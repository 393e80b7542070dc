//! Delta-debugging minimization of diverging modules.
//!
//! The shrinker repeatedly tries structural edits — dropping function
//! bodies, truncating blocks down to a bare `ret`, collapsing
//! conditional/multi-way branches to one arm, hollowing out single
//! instructions, and running cleanup passes — keeping an edit only if
//! the result (a) still passes the verifier and (b) still diverges
//! under the caller's predicate. Edits never need to preserve
//! semantics: the verifier filters out malformed candidates and the
//! predicate filters out candidates that lost the bug, so the edits
//! themselves can be as crude as they like.
//!
//! Termination is guaranteed because every accepted edit strictly
//! decreases an integer size metric (instructions, CFG edges, and live
//! function bodies, weighted).

use llva_core::dominators::Cfg;
use llva_core::function::{BlockId, Function};
use llva_core::instruction::{InstId, Instruction, Opcode};
use llva_core::module::{FuncId, Module};
use llva_core::value::{Constant, ValueData, ValueId};

/// Statistics from one shrink run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Candidate edits attempted.
    pub tried: usize,
    /// Edits that verified, still diverged, and were kept.
    pub applied: usize,
    /// Instruction count before shrinking.
    pub insts_before: usize,
    /// Instruction count after shrinking.
    pub insts_after: usize,
}

/// Minimizes `module` while `interesting` stays true.
///
/// `interesting(&module)` must be true on entry; the returned module
/// still satisfies it and still passes the verifier.
pub fn shrink(
    module: &Module,
    interesting: &dyn Fn(&Module) -> bool,
) -> (Module, ShrinkStats) {
    let mut cur = module.clone();
    let mut stats = ShrinkStats {
        insts_before: cur.total_insts(),
        ..ShrinkStats::default()
    };
    debug_assert!(interesting(&cur), "shrink precondition: module diverges");

    loop {
        let mut progressed = false;
        for edit in candidates(&cur) {
            stats.tried += 1;
            let Some(cand) = apply(&cur, &edit) else {
                continue;
            };
            if metric(&cand) >= metric(&cur) {
                continue;
            }
            if llva_core::verifier::verify_module(&cand).is_err() {
                continue;
            }
            if !interesting(&cand) {
                continue;
            }
            cur = cand;
            stats.applied += 1;
            progressed = true;
            break; // re-enumerate on the new, smaller module
        }
        if !progressed {
            break;
        }
    }
    stats.insts_after = cur.total_insts();
    (cur, stats)
}

/// The strictly-decreasing size metric: instructions dominate, then CFG
/// edges, then function bodies.
fn metric(m: &Module) -> usize {
    let mut insts = 0usize;
    let mut edges = 0usize;
    let mut bodies = 0usize;
    for (_, f) in m.functions() {
        if f.is_declaration() {
            continue;
        }
        bodies += 1;
        insts += f.num_insts();
        for &b in f.block_order() {
            edges += f.successors(b).len();
        }
    }
    insts * 4 + edges + bodies * 64
}

#[derive(Debug, Clone)]
enum Edit {
    /// Turn a never-referenced non-entry function into a declaration.
    DropBody(FuncId),
    /// Replace a block's contents from `at` onward with a bare `ret`.
    Truncate(FuncId, BlockId, usize),
    /// Replace a conditional/multi-way terminator with `br` to one target.
    TakeBranch(FuncId, BlockId, usize),
    /// Delete one result-less, non-terminator instruction (a store).
    RemoveInst(FuncId, InstId),
    /// Replace an instruction's result with one of its own same-typed
    /// operands, then delete it — collapses `or long 0, %x` to `%x`,
    /// a call to one of its arguments, chains generally.
    Forward(FuncId, InstId, usize),
    /// Replace one value-producing instruction's uses with zero, then
    /// delete it.
    Hollow(FuncId, InstId),
    /// DCE + SimplifyCFG over the whole module.
    Cleanup,
}

/// Candidate edits for the current module, most aggressive first.
fn candidates(m: &Module) -> Vec<Edit> {
    let mut edits = Vec::new();
    // whole function bodies (entry "f" is id-agnostic: we just never
    // drop a function that is still referenced, and the entry is
    // referenced by the oracle itself — guarded by name below)
    for (id, f) in m.functions() {
        if !f.is_declaration() && f.name() != "f" && f.name() != "main" && !is_referenced(m, id) {
            edits.push(Edit::DropBody(id));
        }
    }
    for (id, f) in m.functions() {
        if f.is_declaration() {
            continue;
        }
        // aggressive truncation: empty the block, then halve it
        for &b in f.block_order() {
            let n = f.block(b).insts().len();
            edits.push(Edit::Truncate(id, b, 0));
            if n > 2 {
                edits.push(Edit::Truncate(id, b, n / 2));
            }
        }
        for &b in f.block_order() {
            if let Some(t) = f.terminator(b) {
                let nb = f.inst(t).block_operands().len();
                if nb > 1 {
                    for which in 0..nb {
                        edits.push(Edit::TakeBranch(id, b, which));
                    }
                }
            }
        }
        for (_, inst_id) in f.inst_iter() {
            let inst = f.inst(inst_id);
            if inst.is_terminator() {
                continue;
            }
            if f.inst_result(inst_id).is_none() {
                edits.push(Edit::RemoveInst(id, inst_id));
            } else {
                for op_idx in 0..inst.operands().len() {
                    edits.push(Edit::Forward(id, inst_id, op_idx));
                }
                edits.push(Edit::Hollow(id, inst_id));
            }
        }
    }
    edits.push(Edit::Cleanup);
    edits
}

/// True if any instruction operand in the module resolves to the
/// address of `target` (i.e. a call or an escaped function pointer).
fn is_referenced(m: &Module, target: FuncId) -> bool {
    for (_, f) in m.functions() {
        for (_, inst_id) in f.inst_iter() {
            for &op in f.inst(inst_id).operands() {
                if let Some(Constant::FunctionAddr { func, .. }) = f.value_as_const(op) {
                    if *func == target {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// Applies `edit` to a clone of `m`; `None` if it is inapplicable.
fn apply(m: &Module, edit: &Edit) -> Option<Module> {
    let mut m2 = m.clone();
    match *edit {
        Edit::DropBody(f) => {
            m2.discard_function_body(f);
        }
        Edit::Truncate(fid, block, at) => {
            let ret_ty = m2.function(fid).return_type();
            let ret_val = zero_value_of(&mut m2, fid, ret_ty)?;
            let func = m2.function_mut(fid);
            let tail: Vec<InstId> = func.block(block).insts().get(at..)?.to_vec();
            if tail.is_empty() {
                return None;
            }
            // no-op guard: don't re-truncate an already-minimal block
            if tail.len() == 1 && func.inst(tail[0]).opcode() == Opcode::Ret {
                return None;
            }
            for id in tail {
                func.remove_inst(id);
            }
            let void = m2.types_mut().void();
            let operands = ret_val.into_iter().collect();
            m2.function_mut(fid)
                .append_inst(block, Instruction::new(Opcode::Ret, void, operands, vec![]), void);
            prune_unreachable(m2.function_mut(fid));
            fixup_phis(m2.function_mut(fid));
        }
        Edit::TakeBranch(fid, block, which) => {
            let void = m2.types_mut().void();
            let func = m2.function_mut(fid);
            let t = func.terminator(block)?;
            let inst = func.inst(t);
            if inst.opcode() == Opcode::Ret || inst.block_operands().len() <= 1 {
                return None;
            }
            let dest = *inst.block_operands().get(which)?;
            func.remove_inst(t);
            func.append_inst(block, Instruction::new(Opcode::Br, void, vec![], vec![dest]), void);
            prune_unreachable(func);
            fixup_phis(func);
        }
        Edit::RemoveInst(fid, inst_id) => {
            let func = m2.function_mut(fid);
            if func.inst(inst_id).is_terminator() || func.inst_result(inst_id).is_some() {
                return None;
            }
            func.remove_inst(inst_id);
        }
        Edit::Forward(fid, inst_id, op_idx) => {
            let result = m.function(fid).inst_result(inst_id)?;
            let ty = m.function(fid).inst(inst_id).result_type();
            let op = *m.function(fid).inst(inst_id).operands().get(op_idx)?;
            let bool_ty = m2.types_mut().bool();
            let func = m2.function_mut(fid);
            if func.value_type(op, bool_ty) != ty {
                return None;
            }
            func.replace_all_uses(result, op);
            func.remove_inst(inst_id);
        }
        Edit::Hollow(fid, inst_id) => {
            let result = m.function(fid).inst_result(inst_id)?;
            let ty = m.function(fid).inst(inst_id).result_type();
            let zero = zero_value_of(&mut m2, fid, ty)??;
            let func = m2.function_mut(fid);
            func.replace_all_uses(result, zero);
            func.remove_inst(inst_id);
        }
        Edit::Cleanup => {
            let mut pm = llva_opt::PassManager::new();
            pm.add(llva_opt::dce::Dce::new())
                .add(llva_opt::simplify_cfg::SimplifyCfg::new());
            pm.run(&mut m2);
        }
    }
    Some(m2)
}

/// A zero-ish constant of `ty` in `fid`'s value pool.
///
/// Outer `None` means the type is unsupported (the edit is skipped);
/// inner `None` means "void — return without a value".
fn zero_value_of(m: &mut Module, fid: FuncId, ty: llva_core::types::TypeId) -> Option<Option<ValueId>> {
    use llva_core::types::TypeKind;
    let c = match m.types().kind(ty) {
        TypeKind::Void => return Some(None),
        TypeKind::Bool => Constant::Bool(false),
        TypeKind::Pointer(_) => Constant::Null(ty),
        TypeKind::Float | TypeKind::Double => Constant::Float { ty, bits: 0 },
        _ if m.types().is_integer(ty) => Constant::Int { ty, bits: 0 },
        _ => return None,
    };
    Some(Some(m.function_mut(fid).constant(c)))
}

/// Removes blocks no longer reachable from the entry.
///
/// The verifier tolerates dangling value references in unreachable
/// code (its SSA checks only cover reachable blocks), but the printer
/// and downstream consumers do not — so edits that cut CFG edges must
/// drop the code they orphaned.
fn prune_unreachable(func: &mut Function) {
    let seen = Cfg::new(func).reverse_postorder();
    let dead: Vec<BlockId> = func
        .block_order()
        .iter()
        .copied()
        .filter(|b| !seen.contains(b))
        .collect();
    for b in dead {
        func.remove_block(b);
    }
}

/// Drops phi incoming entries whose source block is no longer an
/// actual predecessor (after an edge was removed by truncation or
/// branch collapsing).
fn fixup_phis(func: &mut Function) {
    let cfg = Cfg::new(func);
    let blocks: Vec<BlockId> = func.block_order().to_vec();
    for b in blocks {
        let ps = cfg.preds(b);
        let phi_ids: Vec<InstId> = func
            .block(b)
            .insts()
            .iter()
            .copied()
            .filter(|&i| func.inst(i).opcode() == Opcode::Phi)
            .collect();
        for id in phi_ids {
            let inst = func.inst(id);
            let pairs: Vec<(ValueId, BlockId)> = inst
                .operands()
                .iter()
                .copied()
                .zip(inst.block_operands().iter().copied())
                .filter(|(_, blk)| ps.contains(blk))
                .collect();
            if pairs.len() != inst.operands().len() {
                let (ops, blks): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
                func.set_operands(id, ops);
                func.set_block_operands(id, blks);
            }
        }
    }
}

/// Convenience for callers that want the defining instruction of a
/// value (used by tests).
pub fn defining_inst(func: &Function, v: ValueId) -> Option<InstId> {
    match *func.value(v) {
        ValueData::Inst { inst, .. } => Some(inst),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    /// Shrinking with an always-true predicate must drive any generated
    /// module down to almost nothing — and terminate.
    #[test]
    fn shrinks_to_trivial_when_everything_is_interesting() {
        for seed in [5u64, 17, 29] {
            let tc = generate(seed, &GenConfig::default());
            let before = tc.module.total_insts();
            let (min, stats) = shrink(&tc.module, &|_| true);
            llva_core::verifier::verify_module(&min).expect("minimized module verifies");
            assert!(stats.insts_after <= before);
            // the entry function must still exist and be minimal
            let f = min.function_by_name("f").expect("entry survives");
            assert!(min.function(f).num_insts() <= 2, "seed {seed}: {}", min.function(f).num_insts());
        }
    }

    /// A predicate that pins a specific behavior keeps that behavior.
    #[test]
    fn preserves_the_interesting_property() {
        let tc = generate(11, &GenConfig::default());
        let entry = tc.entry.clone();
        let args = tc.args.clone();
        let expected = match crate::oracle::interp_outcome(&tc.module, &entry, &args, 50_000_000) {
            crate::oracle::Outcome::Value(v) => v,
            other => panic!("seed 11 should complete normally, got {other}"),
        };
        // "interesting" = still returns the same value
        let pred = move |m: &Module| {
            matches!(
                crate::oracle::interp_outcome(m, &entry, &args, 50_000_000),
                crate::oracle::Outcome::Value(v) if v == expected
            )
        };
        let (min, _) = shrink(&tc.module, &pred);
        assert!(pred(&min));
        assert!(min.total_insts() <= tc.module.total_insts());
    }
}
