//! Function inlining (link-time interprocedural optimization, §4.2).
//!
//! Inlines small direct calls. The paper motivates performing this on
//! the V-ISA at link time, "the first time that most or all modules of
//! an application are simultaneously available": virtual function
//! dispatch becomes "a pair of loads … followed by a call
//! (optimizations can eliminate some of these in the static compiler,
//! translator, or both)".
//!
//! Conservative applicability rules: the callee must be defined, small,
//! non-recursive, contain no `invoke`/`unwind`, and keep its `alloca`s
//! in the entry block (they are re-homed into the caller's entry).

use crate::pass::ModulePass;
use llva_core::function::BlockId;
use llva_core::instruction::{InstId, Instruction, Opcode};
use llva_core::module::{FuncId, Module};
use llva_core::types::TypeKind;
use llva_core::value::{Constant, ValueData, ValueId};
use std::collections::HashMap;

/// The inlining pass.
#[derive(Debug, Clone, Copy)]
pub struct Inline {
    threshold: usize,
    inlined: usize,
}

impl Default for Inline {
    fn default() -> Self {
        Inline::new()
    }
}

impl Inline {
    /// Creates the pass with the default size threshold.
    pub fn new() -> Inline {
        Inline {
            threshold: 40,
            inlined: 0,
        }
    }

    /// Creates the pass with a custom callee-size threshold
    /// (in LLVA instructions).
    pub fn with_threshold(threshold: usize) -> Inline {
        Inline {
            threshold,
            inlined: 0,
        }
    }

    /// Call sites inlined by the last run.
    pub fn inlined(&self) -> usize {
        self.inlined
    }
}

impl ModulePass for Inline {
    fn name(&self) -> &'static str {
        "inline"
    }

    fn run(&mut self, module: &mut Module) -> bool {
        self.inlined = 0;
        // Iterate until no more sites qualify (bounded: inlining into a
        // function grows it, eventually crossing thresholds).
        while let Some((caller, call)) = find_site(module, self.threshold) {
            inline_site(module, caller, call);
            self.inlined += 1;
            if self.inlined > 10_000 {
                break; // safety valve
            }
        }
        self.inlined > 0
    }
}

/// Finds one inlinable call site.
fn find_site(module: &Module, threshold: usize) -> Option<(FuncId, InstId)> {
    for (caller_id, caller) in module.functions() {
        if caller.is_declaration() {
            continue;
        }
        for (_, inst_id) in caller.inst_iter() {
            let inst = caller.inst(inst_id);
            if inst.opcode() != Opcode::Call {
                continue;
            }
            let callee_v = inst.operands()[0];
            let Some(Constant::FunctionAddr { func: callee_id, .. }) =
                caller.value_as_const(callee_v)
            else {
                continue;
            };
            let callee_id = *callee_id;
            if callee_id == caller_id {
                continue; // direct recursion
            }
            let callee = module.function(callee_id);
            if callee.is_declaration() || callee.num_insts() > threshold {
                continue;
            }
            if llva_core::intrinsics::is_intrinsic_name(callee.name()) {
                continue;
            }
            if !inlinable(module, callee_id) {
                continue;
            }
            return Some((caller_id, inst_id));
        }
    }
    None
}

fn inlinable(module: &Module, callee_id: FuncId) -> bool {
    let callee = module.function(callee_id);
    let entry = callee.entry_block();
    for (block, inst_id) in callee.inst_iter() {
        let inst = callee.inst(inst_id);
        match inst.opcode() {
            Opcode::Invoke | Opcode::Unwind => return false,
            Opcode::Alloca if block != entry => return false,
            Opcode::Call => {
                // indirect recursion check: calling self through a constant
                if let Some(Constant::FunctionAddr { func, .. }) =
                    callee.value_as_const(inst.operands()[0])
                {
                    if *func == callee_id {
                        return false;
                    }
                }
            }
            _ => {}
        }
    }
    true
}

/// Inlines one call site. The call must satisfy [`find_site`]'s checks.
fn inline_site(module: &mut Module, caller_id: FuncId, call: InstId) {
    let void = module.types_mut().void();

    // Snapshot callee structure.
    let (callee_id, call_args, call_block, ret_is_void) = {
        let caller = module.function(caller_id);
        let inst = caller.inst(call);
        let Some(Constant::FunctionAddr { func, .. }) = caller.value_as_const(inst.operands()[0])
        else {
            unreachable!("find_site guarantees a direct call");
        };
        let callee_id = *func;
        let args = inst.operands()[1..].to_vec();
        let block = caller.inst_parent(call).expect("call is attached");
        let ret_void = matches!(
            module.types().kind(module.function(callee_id).return_type()),
            TypeKind::Void
        );
        (callee_id, args, block, ret_void)
    };
    let callee = module.function(callee_id).clone();

    // 1. Split the call block: everything after the call moves to `cont`.
    let cont = module
        .function_mut(caller_id)
        .add_block(format!("inl.cont.{}", call.index()));
    {
        let caller = module.function_mut(caller_id);
        let pos = caller
            .block(call_block)
            .insts()
            .iter()
            .position(|&i| i == call)
            .expect("call in its block");
        caller.move_insts(call_block, pos + 1, cont);
        // successors' phis now flow from `cont`
        caller.retarget_successor_phis(cont, call_block);
    }

    // 2. Create one caller block per callee block.
    let mut block_map: HashMap<BlockId, BlockId> = HashMap::new();
    for &cb in callee.block_order() {
        let nb = module.function_mut(caller_id).add_block(format!(
            "inl.{}.{}",
            callee.name(),
            callee.block(cb).name()
        ));
        block_map.insert(cb, nb);
    }

    // 3. Map callee values -> caller values (args and constants now;
    //    instruction results as they are created).
    let mut value_map: HashMap<ValueId, ValueId> = HashMap::new();
    for (i, &a) in callee.args().iter().enumerate() {
        value_map.insert(a, call_args[i]);
    }

    // Pass A: create instructions with empty operands.
    let caller_entry = module.function(caller_id).entry_block();
    let mut created: Vec<(InstId, InstId)> = Vec::new(); // (new, old)
    let mut returns: Vec<(BlockId, Option<ValueId>)> = Vec::new(); // filled pass B
    for &cb in callee.block_order() {
        let nb = block_map[&cb];
        for &old_id in callee.block(cb).insts() {
            let old = callee.inst(old_id);
            if old.opcode() == Opcode::Ret {
                // becomes a br to cont; return value recorded in pass B
                let (new_id, _) = module.function_mut(caller_id).append_inst(
                    nb,
                    Instruction::new(Opcode::Br, void, vec![], vec![cont]),
                    void,
                );
                created.push((new_id, old_id));
                continue;
            }
            let mut inst = Instruction::new(old.opcode(), old.result_type(), vec![], vec![]);
            inst.set_exceptions_enabled(old.exceptions_enabled());
            // allocas are re-homed to the caller's entry block head
            let target = if old.opcode() == Opcode::Alloca {
                caller_entry
            } else {
                nb
            };
            let (new_id, result) = if old.opcode() == Opcode::Alloca {
                module
                    .function_mut(caller_id)
                    .insert_inst_at(target, 0, inst, void)
            } else {
                module.function_mut(caller_id).append_inst(target, inst, void)
            };
            if let (Some(old_r), Some(new_r)) = (callee.inst_result(old_id), result) {
                value_map.insert(old_r, new_r);
            }
            created.push((new_id, old_id));
        }
    }

    // Pass B: patch operands & blocks.
    for (new_id, old_id) in &created {
        let old = callee.inst(*old_id);
        if old.opcode() == Opcode::Ret {
            let v = old
                .operands()
                .first()
                .map(|&rv| remap_value(module, caller_id, &callee, &mut value_map, rv));
            let nb = module.function(caller_id).inst_parent(*new_id).expect("br attached");
            returns.push((nb, v));
            continue;
        }
        let ops: Vec<ValueId> = old
            .operands()
            .iter()
            .map(|&v| remap_value(module, caller_id, &callee, &mut value_map, v))
            .collect();
        let blocks: Vec<BlockId> = old.block_operands().iter().map(|b| block_map[b]).collect();
        let caller = module.function_mut(caller_id);
        caller.set_operands(*new_id, ops);
        caller.set_block_operands(*new_id, blocks);
    }

    // 4. Replace the call: branch into the inlined entry; merge returns.
    {
        let inl_entry = block_map[&callee.entry_block()];
        let call_result = module.function(caller_id).inst_result(call);
        let caller = module.function_mut(caller_id);
        if let Some(result) = call_result {
            let merged: ValueId = if ret_is_void {
                unreachable!("void call has no result")
            } else if returns.len() == 1 {
                returns[0].1.expect("non-void ret has a value")
            } else {
                // phi at the head of cont
                let (values, blocks): (Vec<_>, Vec<_>) = returns
                    .iter()
                    .map(|(b, v)| (v.expect("non-void ret"), *b))
                    .unzip();
                let ret_ty = callee.return_type();
                let phi = Instruction::new(Opcode::Phi, ret_ty, values, blocks);
                let (_, pv) = caller.insert_inst_at(cont, 0, phi, void);
                pv.expect("phi produces a value")
            };
            caller.replace_all_uses(result, merged);
        }
        caller.remove_inst(call);
        caller.append_inst(
            call_block,
            Instruction::new(Opcode::Br, void, vec![], vec![inl_entry]),
            void,
        );
    }
}

fn remap_value(
    module: &mut Module,
    caller_id: FuncId,
    callee: &llva_core::function::Function,
    value_map: &mut HashMap<ValueId, ValueId>,
    v: ValueId,
) -> ValueId {
    if let Some(&m) = value_map.get(&v) {
        return m;
    }
    let mapped = match callee.value(v) {
        ValueData::Const(c) => module.function_mut(caller_id).constant(*c),
        other => panic!("unmapped non-constant callee value {v}: {other:?}"),
    };
    value_map.insert(v, mapped);
    mapped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::PassManager;
    use llva_core::verifier::verify_module;

    fn parse(src: &str) -> Module {
        llva_core::parser::parse_module(src).expect("parses")
    }

    #[test]
    fn inlines_leaf_function() {
        let mut m = parse(
            r#"
int %inc(int %x) {
entry:
    %r = add int %x, 1
    ret int %r
}

int %main(int %a) {
entry:
    %v = call int %inc(int %a)
    %w = call int %inc(int %v)
    ret int %w
}
"#,
        );
        let mut pass = Inline::new();
        assert!(pass.run(&mut m));
        assert_eq!(pass.inlined(), 2);
        verify_module(&m).expect("verifies");
        let main = m.function(m.function_by_name("main").expect("main"));
        let has_call = main
            .inst_iter()
            .any(|(_, i)| main.inst(i).opcode() == Opcode::Call);
        assert!(!has_call, "all calls inlined");
    }

    #[test]
    fn inlined_code_computes_same_value() {
        let mut m = parse(
            r#"
int %square(int %x) {
entry:
    %r = mul int %x, %x
    ret int %r
}

int %main() {
entry:
    %v = call int %square(int 7)
    ret int %v
}
"#,
        );
        let mut pm = PassManager::new();
        pm.add(Inline::new())
            .add(crate::constfold::ConstFold::new())
            .add(crate::simplify_cfg::SimplifyCfg::new())
            .verify_after_each(true);
        pm.run(&mut m);
        let main = m.function(m.function_by_name("main").expect("main"));
        // after fold+simplify, main is `ret int 49`
        let e = main.entry_block();
        let ret = *main.block(e).insts().last().unwrap();
        let rv = main.inst(ret).operands()[0];
        assert_eq!(
            main.value_as_const(rv).and_then(Constant::as_int_bits),
            Some(49)
        );
    }

    #[test]
    fn multi_return_callee_gets_phi() {
        let mut m = parse(
            r#"
int %pick(bool %c) {
entry:
    br bool %c, label %a, label %b
a:
    ret int 1
b:
    ret int 2
}

int %main(bool %c) {
entry:
    %v = call int %pick(bool %c)
    ret int %v
}
"#,
        );
        let mut pass = Inline::new();
        assert!(pass.run(&mut m));
        verify_module(&m).expect("verifies");
        let main = m.function(m.function_by_name("main").expect("main"));
        let has_phi = main
            .inst_iter()
            .any(|(_, i)| main.inst(i).opcode() == Opcode::Phi);
        assert!(has_phi, "return merge phi expected");
    }

    #[test]
    fn recursion_is_not_inlined() {
        let mut m = parse(
            r#"
int %fact(int %n) {
entry:
    %c = setle int %n, 1
    br bool %c, label %base, label %rec
base:
    ret int 1
rec:
    %n1 = sub int %n, 1
    %r = call int %fact(int %n1)
    %p = mul int %n, %r
    ret int %p
}
"#,
        );
        let mut pass = Inline::new();
        assert!(!pass.run(&mut m));
    }

    #[test]
    fn callee_allocas_move_to_caller_entry() {
        let mut m = parse(
            r#"
int %with_slot(int %x) {
entry:
    %s = alloca int
    store int %x, int* %s
    %v = load int* %s
    ret int %v
}

int %main(int %a) {
entry:
    %v = call int %with_slot(int %a)
    ret int %v
}
"#,
        );
        let mut pass = Inline::new();
        assert!(pass.run(&mut m));
        verify_module(&m).expect("verifies");
        let main = m.function(m.function_by_name("main").expect("main"));
        let entry = main.entry_block();
        let first = main.block(entry).insts()[0];
        assert_eq!(main.inst(first).opcode(), Opcode::Alloca);
    }

    #[test]
    fn threshold_respected() {
        let mut m = parse(
            r#"
int %big(int %x) {
entry:
    %a = add int %x, 1
    %b = add int %a, 1
    %c = add int %b, 1
    ret int %c
}

int %main(int %a) {
entry:
    %v = call int %big(int %a)
    ret int %v
}
"#,
        );
        let mut pass = Inline::with_threshold(2);
        assert!(!pass.run(&mut m));
        let mut pass = Inline::with_threshold(10);
        assert!(pass.run(&mut m));
    }

    #[test]
    fn code_after_call_survives_in_continuation() {
        let mut m = parse(
            r#"
int %inc(int %x) {
entry:
    %r = add int %x, 1
    ret int %r
}

int %main(int %a) {
entry:
    %v = call int %inc(int %a)
    %w = mul int %v, 3
    %u = add int %w, %a
    ret int %u
}
"#,
        );
        let mut pass = Inline::new();
        assert!(pass.run(&mut m));
        verify_module(&m).expect("verifies");
        let main = m.function(m.function_by_name("main").expect("main"));
        // the mul and add still exist somewhere
        let count = |op: Opcode| {
            main.inst_iter()
                .filter(|&(_, i)| main.inst(i).opcode() == op)
                .count()
        };
        assert_eq!(count(Opcode::Mul), 1);
        assert_eq!(count(Opcode::Add), 2); // inlined add + original add
    }
}
