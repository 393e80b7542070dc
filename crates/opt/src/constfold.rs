//! Constant folding and algebraic simplification.
//!
//! Folds binary / comparison / cast instructions over constant operands
//! using the shared evaluator in [`llva_core::eval`], simplifies a few
//! algebraic identities (`x+0`, `x*1`, `x*0` when exception-free,
//! `x-x`), collapses `phi`s whose incomings agree, and turns
//! constant-condition `br`s into unconditional branches (the dead edge
//! is cleaned up by `simplifycfg`).

use crate::pass::ModulePass;
use llva_core::eval;
use llva_core::instruction::{InstId, Instruction, Opcode};
use llva_core::module::Module;
use llva_core::types::TypeKind;
use llva_core::value::{Constant, ValueId};

/// The folding pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConstFold {
    folded: usize,
}

impl ConstFold {
    /// Creates the pass.
    pub fn new() -> ConstFold {
        ConstFold::default()
    }

    /// Number of instructions folded or simplified in the last run.
    pub fn folded(&self) -> usize {
        self.folded
    }
}

impl ModulePass for ConstFold {
    fn name(&self) -> &'static str {
        "constfold"
    }

    fn run(&mut self, module: &mut Module) -> bool {
        self.folded = 0;
        for fid in module.function_ids() {
            if module.function(fid).is_declaration() {
                continue;
            }
            loop {
                let mut changed = false;
                let worklist: Vec<InstId> = module
                    .function(fid)
                    .inst_iter()
                    .map(|(_, i)| i)
                    .collect();
                for inst_id in worklist {
                    if module.function(fid).inst_parent(inst_id).is_none() {
                        continue; // removed during this sweep
                    }
                    if let Some(n) = fold_one(module, fid, inst_id) {
                        self.folded += n;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        self.folded > 0
    }
}

/// Attempts to fold/simplify one instruction; returns how many
/// simplifications were applied (for statistics).
fn fold_one(module: &mut Module, fid: llva_core::module::FuncId, inst_id: InstId) -> Option<usize> {
    let func = module.function(fid);
    let inst = func.inst(inst_id);
    let op = inst.opcode();
    let ops = inst.operands().to_vec();

    let as_const = |v: ValueId| func.value_as_const(v).copied();

    if op.is_binary() {
        let (a, b) = (ops[0], ops[1]);
        let (ca, cb) = (as_const(a), as_const(b));
        // full fold
        if let (Some(ca), Some(cb)) = (ca, cb) {
            if let Some(c) = eval::fold_binary(module.types(), op, &ca, &cb) {
                replace_with_const(module, fid, inst_id, c);
                return Some(1);
            }
        }
        // algebraic identities (integer only, trap-safe)
        let types = module.types();
        let ty = func.value_type(a, types.bool_or_sentinel());
        if types.is_integer(ty) {
            let is_zero = |c: Option<Constant>| matches!(c, Some(Constant::Int { bits: 0, .. }));
            let is_one = |c: Option<Constant>| matches!(c, Some(Constant::Int { bits: 1, .. }));
            let replacement = match op {
                Opcode::Add if is_zero(cb) => Some(a),
                Opcode::Add if is_zero(ca) => Some(b),
                Opcode::Sub if is_zero(cb) => Some(a),
                Opcode::Mul if is_one(cb) => Some(a),
                Opcode::Mul if is_one(ca) => Some(b),
                Opcode::Or | Opcode::Xor if is_zero(cb) => Some(a),
                Opcode::Shl | Opcode::Shr if is_zero(cb) => Some(a),
                Opcode::Div if is_one(cb) => Some(a),
                Opcode::Sub if a == b => None, // handled below as constant 0
                _ => None,
            };
            if let Some(r) = replacement {
                replace_with_value(module, fid, inst_id, r);
                return Some(1);
            }
            if op == Opcode::Sub && a == b {
                let c = Constant::Int { ty, bits: 0 };
                replace_with_const(module, fid, inst_id, c);
                return Some(1);
            }
            if op == Opcode::Mul && (is_zero(ca) || is_zero(cb)) {
                let c = Constant::Int { ty, bits: 0 };
                replace_with_const(module, fid, inst_id, c);
                return Some(1);
            }
        }
        return None;
    }

    if op.is_comparison() {
        if let (Some(ca), Some(cb)) = (as_const(ops[0]), as_const(ops[1])) {
            if let Some(c) = eval::fold_compare(module.types(), op, &ca, &cb) {
                replace_with_const(module, fid, inst_id, c);
                return Some(1);
            }
        }
        return None;
    }

    match op {
        Opcode::Cast => {
            let to = inst.result_type();
            if let Some(cv) = as_const(ops[0]) {
                if let Some(c) = eval::fold_cast(module.types(), &cv, to) {
                    replace_with_const(module, fid, inst_id, c);
                    return Some(1);
                }
            }
            // cast to the same type is the identity
            let bool_ty = module.types().lookup(&TypeKind::Bool).unwrap_or(to);
            if func.value_type(ops[0], bool_ty) == to {
                replace_with_value(module, fid, inst_id, ops[0]);
                return Some(1);
            }
            None
        }
        Opcode::Phi => {
            // collapse when all incomings are the same value (or the phi
            // itself — a self-loop)
            let result = module.function(fid).inst_result(inst_id)?;
            let mut unique: Option<ValueId> = None;
            for &v in &ops {
                if v == result {
                    continue;
                }
                match unique {
                    None => unique = Some(v),
                    Some(u) if u == v => {}
                    Some(_) => return None,
                }
            }
            let u = unique?;
            replace_with_value(module, fid, inst_id, u);
            Some(1)
        }
        Opcode::Br if ops.len() == 1 => {
            // constant condition -> unconditional branch
            let c = as_const(ops[0])?;
            let Constant::Bool(flag) = c else { return None };
            let func = module.function_mut(fid);
            let targets = func.inst(inst_id).block_operands().to_vec();
            let dest = if flag { targets[0] } else { targets[1] };
            func.set_operands(inst_id, vec![]);
            func.set_block_operands(inst_id, vec![dest]);
            Some(1)
        }
        Opcode::Mbr => {
            // constant discriminant -> unconditional branch
            let c = as_const(ops[0])?;
            let bits = c.as_int_bits()?;
            let func = module.function_mut(fid);
            let inst = func.inst(inst_id);
            let blocks = inst.block_operands().to_vec();
            let mut dest = blocks[0];
            for (i, &case) in ops[1..].iter().enumerate() {
                if let Some(cc) = func.value_as_const(case) {
                    if cc.as_int_bits() == Some(bits) {
                        dest = blocks[1 + i];
                        break;
                    }
                }
            }
            // an `mbr` becomes a fresh `br` in the terminator's place
            let void = func.inst(inst_id).result_type();
            let block = func.inst_parent(inst_id)?;
            func.remove_inst(inst_id);
            let br = Instruction::new(Opcode::Br, void, vec![], vec![dest]);
            func.append_inst(block, br, void);
            Some(1)
        }
        _ => None,
    }
}

fn replace_with_const(
    module: &mut Module,
    fid: llva_core::module::FuncId,
    inst_id: InstId,
    c: Constant,
) {
    let func = module.function_mut(fid);
    let cv = func.constant(c);
    replace_with_value(module, fid, inst_id, cv);
}

fn replace_with_value(
    module: &mut Module,
    fid: llva_core::module::FuncId,
    inst_id: InstId,
    v: ValueId,
) {
    let func = module.function_mut(fid);
    if let Some(result) = func.inst_result(inst_id) {
        func.replace_all_uses(result, v);
    }
    func.remove_inst(inst_id);
}

#[cfg(test)]
mod tests {
    use super::*;
    use llva_core::builder::FunctionBuilder;
    use llva_core::layout::TargetConfig;
    use llva_core::verifier::verify_module;

    #[test]
    fn folds_constant_expression_tree() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let two = b.iconst(int, 2);
        let three = b.iconst(int, 3);
        let five = b.add(two, three); // 5
        let ten = b.mul(five, two); // 10
        b.ret(Some(ten));
        let mut pass = ConstFold::new();
        assert!(pass.run(&mut m));
        verify_module(&m).expect("verifies");
        let func = m.function(f);
        assert_eq!(func.num_insts(), 1);
        let ret = func.block(func.entry_block()).insts()[0];
        let rv = func.inst(ret).operands()[0];
        assert_eq!(
            func.value_as_const(rv).and_then(Constant::as_int_bits),
            Some(10)
        );
    }

    #[test]
    fn algebraic_identities() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![int]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let x = b.func().args()[0];
        let zero = b.iconst(int, 0);
        let one = b.iconst(int, 1);
        let a = b.add(x, zero); // = x
        let bv = b.mul(a, one); // = x
        let c = b.sub(bv, zero); // = x
        b.ret(Some(c));
        let mut pass = ConstFold::new();
        assert!(pass.run(&mut m));
        let func = m.function(f);
        assert_eq!(func.num_insts(), 1);
        let ret = func.block(func.entry_block()).insts()[0];
        assert_eq!(func.inst(ret).operands()[0], x);
    }

    #[test]
    fn x_minus_x_is_zero() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![int]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let x = b.func().args()[0];
        let d = b.sub(x, x);
        b.ret(Some(d));
        let mut pass = ConstFold::new();
        assert!(pass.run(&mut m));
        let func = m.function(f);
        let ret = func.block(func.entry_block()).insts()[0];
        let rv = func.inst(ret).operands()[0];
        assert_eq!(
            func.value_as_const(rv).and_then(Constant::as_int_bits),
            Some(0)
        );
    }

    #[test]
    fn constant_branch_becomes_unconditional() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        let t = b.block("t");
        let u = b.block("u");
        b.switch_to(e);
        let c = b.bconst(true);
        b.cond_br(c, t, u);
        b.switch_to(t);
        let one = b.iconst(int, 1);
        b.ret(Some(one));
        b.switch_to(u);
        let two = b.iconst(int, 2);
        b.ret(Some(two));
        let mut pass = ConstFold::new();
        assert!(pass.run(&mut m));
        let func = m.function(f);
        assert_eq!(func.successors(e), vec![t]);
    }

    #[test]
    fn mbr_with_constant_discriminant() {
        let src = r#"
int %f() {
entry:
    mbr int 1, label %other, [ int 0, label %zero ], [ int 1, label %one ]
zero:
    ret int 10
one:
    ret int 11
other:
    ret int 12
}
"#;
        let mut m = llva_core::parser::parse_module(src).expect("parses");
        let f = m.function_by_name("f").expect("f");
        let mut pass = ConstFold::new();
        assert!(pass.run(&mut m));
        let func = m.function(f);
        let e = func.entry_block();
        let succs = func.successors(e);
        assert_eq!(succs.len(), 1);
        assert_eq!(func.block(succs[0]).name(), "one");
    }

    #[test]
    fn comparison_folds() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let boolt = m.types_mut().bool();
        let f = m.add_function("f", boolt, vec![]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let two = b.iconst(int, 2);
        let three = b.iconst(int, 3);
        let c = b.setlt(two, three);
        b.ret(Some(c));
        let mut pass = ConstFold::new();
        assert!(pass.run(&mut m));
        let func = m.function(f);
        let ret = func.block(func.entry_block()).insts()[0];
        let rv = func.inst(ret).operands()[0];
        assert_eq!(func.value_as_const(rv), Some(&Constant::Bool(true)));
    }

    #[test]
    fn division_by_zero_not_folded() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let one = b.iconst(int, 1);
        let zero = b.iconst(int, 0);
        let d = b.div(one, zero);
        b.ret(Some(d));
        let mut pass = ConstFold::new();
        assert!(!pass.run(&mut m));
        assert_eq!(m.function(f).num_insts(), 2);
    }
}
