//! CFG simplification.
//!
//! Three cleanups, iterated to a local fixpoint per function:
//!
//! 1. remove blocks unreachable from the entry (pruning their `phi`
//!    entries in surviving successors),
//! 2. merge a block into its unique predecessor when that predecessor
//!    ends in an unconditional branch to it (straight-line fusion), and
//! 3. collapse conditional branches whose two targets are identical.
//!
//! Together with `constfold`'s constant-branch rewriting this removes
//! the dead arms the static compiler could prove away — optimization the
//! paper argues should happen *before* translation (§4.2, item 1).

use crate::pass::ModulePass;
use llva_core::dominators::Cfg;
use llva_core::function::{BlockId, Function};
use llva_core::instruction::Opcode;
use llva_core::module::Module;

/// The CFG simplification pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimplifyCfg {
    removed_blocks: usize,
    merged_blocks: usize,
}

impl SimplifyCfg {
    /// Creates the pass.
    pub fn new() -> SimplifyCfg {
        SimplifyCfg::default()
    }

    /// Unreachable blocks removed by the last run.
    pub fn removed_blocks(&self) -> usize {
        self.removed_blocks
    }

    /// Straight-line merges performed by the last run.
    pub fn merged_blocks(&self) -> usize {
        self.merged_blocks
    }
}

impl ModulePass for SimplifyCfg {
    fn name(&self) -> &'static str {
        "simplifycfg"
    }

    fn run(&mut self, module: &mut Module) -> bool {
        self.removed_blocks = 0;
        self.merged_blocks = 0;
        for fid in module.function_ids() {
            let func = module.function_mut(fid);
            if func.is_declaration() {
                continue;
            }
            loop {
                let mut changed = false;
                changed |= collapse_same_target_cond_br(func);
                let removed = remove_unreachable(func);
                self.removed_blocks += removed;
                changed |= removed > 0;
                let merged = merge_straight_line(func);
                self.merged_blocks += merged;
                changed |= merged > 0;
                if !changed {
                    break;
                }
            }
        }
        self.removed_blocks + self.merged_blocks > 0
    }
}

/// `br bool %c, label %x, label %x` → `br label %x` (with a phi fix:
/// such a branch would create duplicate phi predecessors downstream).
fn collapse_same_target_cond_br(func: &mut Function) -> bool {
    let mut changed = false;
    for &b in &func.block_order().to_vec() {
        let Some(t) = func.terminator(b) else { continue };
        let inst = func.inst(t);
        if inst.opcode() == Opcode::Br && inst.operands().len() == 1 {
            let targets = inst.block_operands();
            if targets.len() == 2 && targets[0] == targets[1] {
                let dest = targets[0];
                func.set_operands(t, vec![]);
                func.set_block_operands(t, vec![dest]);
                changed = true;
            }
        }
    }
    changed
}

/// Removes blocks unreachable from the entry, pruning phi entries in
/// the remaining blocks. Returns how many were removed.
fn remove_unreachable(func: &mut Function) -> usize {
    let rpo = Cfg::new(func).reverse_postorder();
    let mut reachable = vec![false; func.num_block_ids()];
    for b in &rpo {
        reachable[b.index()] = true;
    }
    let dead: Vec<BlockId> = func
        .block_order()
        .iter()
        .copied()
        .filter(|b| !reachable[b.index()])
        .collect();
    if dead.is_empty() {
        return 0;
    }
    // prune phi entries that flow in from dead blocks
    for &b in &rpo {
        let phis: Vec<_> = func
            .block(b)
            .insts()
            .iter()
            .copied()
            .filter(|&i| func.inst(i).opcode() == Opcode::Phi)
            .collect();
        for phi in phis {
            let inst = func.inst(phi);
            let keep: Vec<usize> = inst
                .block_operands()
                .iter()
                .enumerate()
                .filter(|(_, pb)| reachable[pb.index()])
                .map(|(i, _)| i)
                .collect();
            if keep.len() != inst.block_operands().len() {
                let ops: Vec<_> = keep.iter().map(|&i| inst.operands()[i]).collect();
                let blocks: Vec<_> = keep.iter().map(|&i| inst.block_operands()[i]).collect();
                func.set_operands(phi, ops);
                func.set_block_operands(phi, blocks);
            }
        }
    }
    let n = dead.len();
    for b in dead {
        func.remove_block(b);
    }
    n
}

/// Merges `b2` into `b1` when `b1` ends in `br label %b2` and `b2` has
/// exactly one predecessor. Returns how many merges were performed.
///
/// A merge hands `b2`'s out-edges to `b1` and drops the `b1 -> b2` edge
/// with `b2`, so every surviving block keeps its number of incoming
/// edges: one CFG snapshot answers "exactly one predecessor" for the
/// whole sweep, and each block absorbs its whole chain in one visit.
fn merge_straight_line(func: &mut Function) -> usize {
    let cfg = Cfg::new(func);
    let entry = func.entry_block();
    let mut merged = 0;
    for b1 in func.block_order().to_vec() {
        // a block merged away earlier is empty and has no terminator
        while let Some(t) = func.terminator(b1) {
            let inst = func.inst(t);
            if inst.opcode() != Opcode::Br || !inst.operands().is_empty() {
                break;
            }
            let b2 = inst.block_operands()[0];
            // b2 must not start with phis referencing b1 (after a
            // single-pred prune they are collapsible, but leave that to
            // constfold's phi collapse; skip if phis present).
            let starts_with_phi = func
                .block(b2)
                .insts()
                .first()
                .is_some_and(|&i| func.inst(i).opcode() == Opcode::Phi);
            if b2 == b1 || b2 == entry || cfg.preds(b2).len() != 1 || starts_with_phi {
                break;
            }
            // Move b2's instructions into b1 (dropping b1's terminator).
            func.remove_inst(t);
            func.move_insts(b2, 0, b1);
            // phis in b2's successors must now name b1 as predecessor.
            func.retarget_successor_phis(b1, b2);
            func.remove_block(b2);
            merged += 1;
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constfold::ConstFold;
    use crate::pass::PassManager;
    use llva_core::builder::FunctionBuilder;
    use llva_core::layout::TargetConfig;
    use llva_core::verifier::verify_module;

    #[test]
    fn removes_unreachable_block() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![int]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        let dead = b.block("dead");
        b.switch_to(e);
        let x = b.func().args()[0];
        b.ret(Some(x));
        b.switch_to(dead);
        b.ret(Some(x));
        let mut pass = SimplifyCfg::new();
        assert!(pass.run(&mut m));
        assert_eq!(pass.removed_blocks(), 1);
        assert_eq!(m.function(f).num_blocks(), 1);
        verify_module(&m).expect("verifies");
    }

    #[test]
    fn merges_straight_line_blocks() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![int]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        let mid = b.block("mid");
        let end = b.block("end");
        b.switch_to(e);
        b.br(mid);
        b.switch_to(mid);
        let x = b.func().args()[0];
        let y = b.add(x, x);
        b.br(end);
        b.switch_to(end);
        b.ret(Some(y));
        let mut pass = SimplifyCfg::new();
        assert!(pass.run(&mut m));
        assert_eq!(m.function(f).num_blocks(), 1);
        assert_eq!(m.function(f).num_insts(), 2);
        verify_module(&m).expect("verifies");
    }

    #[test]
    fn constant_branch_then_simplify_removes_dead_arm() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        let t = b.block("t");
        let u = b.block("u");
        b.switch_to(e);
        let c = b.bconst(false);
        b.cond_br(c, t, u);
        b.switch_to(t);
        let one = b.iconst(int, 1);
        b.ret(Some(one));
        b.switch_to(u);
        let two = b.iconst(int, 2);
        b.ret(Some(two));
        let mut pm = PassManager::new();
        pm.add(ConstFold::new())
            .add(SimplifyCfg::new())
            .verify_after_each(true);
        pm.run(&mut m);
        let func = m.function(f);
        assert_eq!(func.num_blocks(), 1);
        let ret = func.block(func.entry_block()).insts()[0];
        let rv = func.inst(ret).operands()[0];
        assert_eq!(
            func.value_as_const(rv)
                .and_then(llva_core::value::Constant::as_int_bits),
            Some(2)
        );
    }

    #[test]
    fn phi_entries_pruned_when_pred_dies() {
        let src = r#"
int %f(bool %c) {
entry:
    br bool %c, label %a, label %join
a:
    br label %join
dead:
    br label %join
join:
    %v = phi int [ 1, %entry ], [ 2, %a ], [ 3, %dead ]
    ret int %v
}
"#;
        let mut m = llva_core::parser::parse_module(src).expect("parses");
        let mut pass = SimplifyCfg::new();
        assert!(pass.run(&mut m));
        verify_module(&m).expect("verifies after pruning");
        let f = m.function_by_name("f").expect("f");
        let func = m.function(f);
        let phi = func
            .inst_iter()
            .find(|&(_, i)| func.inst(i).opcode() == Opcode::Phi)
            .map(|(_, i)| i)
            .expect("phi survives");
        assert_eq!(func.inst(phi).operands().len(), 2);
    }

    #[test]
    fn same_target_cond_br_collapses() {
        let src = r#"
int %f(bool %c) {
entry:
    br bool %c, label %x, label %x
x:
    ret int 1
}
"#;
        let mut m = llva_core::parser::parse_module(src).expect("parses");
        let mut pass = SimplifyCfg::new();
        assert!(pass.run(&mut m));
        verify_module(&m).expect("verifies");
        let f = m.function_by_name("f").expect("f");
        // entry and x should have merged into one block
        assert_eq!(m.function(f).num_blocks(), 1);
    }
}
