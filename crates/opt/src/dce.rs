//! Dead code elimination.
//!
//! An instruction is removable when its result is unused and executing it
//! has no observable effect. The paper's `ExceptionsEnabled` attribute
//! (§3.3) is load-bearing here: a `div` or `load` whose exceptions are
//! *enabled* may trap and therefore cannot be deleted even if its result
//! is dead, while the same instruction marked `[noexc]` can. This is the
//! "expose non-excepting operations to the translator" benefit, and the
//! `ablation` bench quantifies it.

use crate::pass::ModulePass;
use llva_core::function::Function;
use llva_core::instruction::{InstId, Opcode};
use llva_core::module::Module;
use llva_core::value::ValueData;

/// The DCE pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dce {
    removed: usize,
}

impl Dce {
    /// Creates the pass.
    pub fn new() -> Dce {
        Dce::default()
    }

    /// Instructions removed by the last run.
    pub fn removed(&self) -> usize {
        self.removed
    }
}

impl ModulePass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&mut self, module: &mut Module) -> bool {
        self.removed = 0;
        for fid in module.function_ids() {
            let func = module.function_mut(fid);
            if !func.is_declaration() {
                self.removed += run_function(func);
            }
        }
        self.removed > 0
    }
}

/// Removes every dead instruction of `func`: a worklist seeded with the
/// dead instructions, where each removal re-examines the definitions of
/// its operands. Returns how many were removed.
fn run_function(func: &mut Function) -> usize {
    let mut work: Vec<InstId> = func
        .inst_iter()
        .map(|(_, i)| i)
        .filter(|&i| is_dead(func, i))
        .collect();
    let mut removed = 0;
    while let Some(i) = work.pop() {
        if func.inst_parent(i).is_none() {
            continue; // queued twice
        }
        func.remove_inst(i);
        removed += 1;
        for &op in func.inst(i).operands() {
            if let ValueData::Inst { inst: def, .. } = *func.value(op) {
                if func.inst_parent(def).is_some() && is_dead(func, def) {
                    work.push(def);
                }
            }
        }
    }
    removed
}

/// An attached instruction whose result is unused by attached code and
/// whose execution has no observable effect.
fn is_dead(func: &Function, i: InstId) -> bool {
    let inst = func.inst(i);
    !inst.is_terminator()
        && !has_side_effects(inst)
        && func.inst_result(i).is_none_or(|r| func.count_uses(r) == 0)
}

fn has_side_effects(inst: &llva_core::instruction::Instruction) -> bool {
    match inst.opcode() {
        // Stores and calls always have effects.
        Opcode::Store | Opcode::Call | Opcode::Invoke => true,
        // A trapping instruction with exceptions enabled is observable
        // even when its result is dead (§3.3).
        Opcode::Div | Opcode::Rem | Opcode::Load => inst.exceptions_enabled(),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llva_core::builder::FunctionBuilder;
    use llva_core::layout::TargetConfig;
    use llva_core::verifier::verify_module;

    fn count_insts(m: &Module, name: &str) -> usize {
        m.function(m.function_by_name(name).expect("fn")).num_insts()
    }

    #[test]
    fn removes_dead_arithmetic() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![int]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let x = b.func().args()[0];
        let _dead = b.add(x, x);
        let _dead2 = b.mul(x, x);
        b.ret(Some(x));
        assert_eq!(count_insts(&m, "f"), 3);
        let mut pass = Dce::new();
        assert!(pass.run(&mut m));
        assert_eq!(pass.removed(), 2);
        assert_eq!(count_insts(&m, "f"), 1);
        verify_module(&m).expect("verifies");
    }

    #[test]
    fn removes_transitively_dead_chains() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![int]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let x = b.func().args()[0];
        let a = b.add(x, x);
        let c = b.mul(a, a); // c uses a; both dead
        let _ = c;
        b.ret(Some(x));
        let mut pass = Dce::new();
        assert!(pass.run(&mut m));
        assert_eq!(pass.removed(), 2);
        assert_eq!(count_insts(&m, "f"), 1);
    }

    #[test]
    fn trapping_div_survives_when_exceptions_enabled() {
        // paper §3.3: div has ExceptionsEnabled=true by default
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![int, int]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let (x, y) = (b.func().args()[0], b.func().args()[1]);
        let _dead_div = b.div(x, y);
        b.ret(Some(x));
        let mut pass = Dce::new();
        assert!(!pass.run(&mut m));
        assert_eq!(count_insts(&m, "f"), 2);
    }

    #[test]
    fn noexc_div_is_removable() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![int, int]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let (x, y) = (b.func().args()[0], b.func().args()[1]);
        let _dead_div = b.div(x, y);
        b.ret(Some(x));
        let div_id = m.function(f).block(e).insts()[0];
        m.function_mut(f).set_exceptions_enabled(div_id, false);
        let mut pass = Dce::new();
        assert!(pass.run(&mut m));
        assert_eq!(count_insts(&m, "f"), 1);
    }

    #[test]
    fn stores_and_calls_survive() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let void = m.types_mut().void();
        let callee = m.add_function("effectful", void, vec![]);
        let f = m.add_function("f", int, vec![int]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let x = b.func().args()[0];
        let slot = b.alloca(int);
        b.store(x, slot);
        b.call(callee, vec![]);
        b.ret(Some(x));
        let mut pass = Dce::new();
        // the alloca's result is used by the store, the store and the call
        // are effectful — nothing to remove.
        assert!(!pass.run(&mut m));
        assert_eq!(count_insts(&m, "f"), 4);
    }
}
