//! `mem2reg`: promote `alloca` slots to SSA registers.
//!
//! Front ends lower every address-taken or mutable local to an `alloca`
//! plus loads/stores (paper §3.2 and Figure 2: `%V = alloca double`).
//! This pass rebuilds the SSA form the V-ISA is designed around, placing
//! `phi` instructions at iterated dominance frontiers (Cytron et al.) and
//! renaming loads/stores to direct register uses. It is the foundation
//! the paper's "sparse" SSA optimizations stand on.

use crate::pass::ModulePass;
use llva_core::dominators::{Cfg, DomTree};
use llva_core::function::{BlockId, Function};
use llva_core::instruction::{InstId, Instruction, Opcode};
use llva_core::module::Module;
use llva_core::types::TypeId;
use llva_core::value::{Constant, ValueId};

/// The promotion pass. See the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mem2Reg {
    promoted: usize,
}

impl Mem2Reg {
    /// Creates the pass.
    pub fn new() -> Mem2Reg {
        Mem2Reg::default()
    }

    /// Number of allocas promoted by the last run.
    pub fn promoted(&self) -> usize {
        self.promoted
    }
}

impl ModulePass for Mem2Reg {
    fn name(&self) -> &'static str {
        "mem2reg"
    }

    fn run(&mut self, module: &mut Module) -> bool {
        self.promoted = 0;
        let void = module.types_mut().void();
        for fid in module.function_ids() {
            if module.function(fid).is_declaration() {
                continue;
            }
            let candidates = find_candidates(module, fid);
            if candidates.is_empty() {
                continue;
            }
            self.promoted += promote_function(module.function_mut(fid), candidates, void);
        }
        self.promoted > 0
    }
}

/// One promotable alloca and its loads/stores.
struct Candidate {
    alloca: InstId,
    slot: ValueId,
    pointee: TypeId,
    stores: Vec<InstId>,
}

fn promote_function(func: &mut Function, candidates: Vec<Candidate>, void: TypeId) -> usize {
    let cfg = Cfg::new(func);
    let dom = DomTree::from_cfg(&cfg);
    let nb = cfg.num_block_ids();

    // Phi placement at iterated dominance frontiers of store blocks.
    // phis[block] = (candidate index, phi) for each phi placed there.
    let mut phis: Vec<Vec<(usize, InstId)>> = vec![Vec::new(); nb];
    // the last candidate that placed a phi at / queued each block
    let mut placed = vec![usize::MAX; nb];
    let mut queued = vec![usize::MAX; nb];
    for (ci, cand) in candidates.iter().enumerate() {
        let mut work: Vec<BlockId> = cand
            .stores
            .iter()
            .filter_map(|&s| func.inst_parent(s))
            .collect();
        for b in &work {
            queued[b.index()] = ci;
        }
        while let Some(b) = work.pop() {
            for &df in dom.frontier(b) {
                if std::mem::replace(&mut placed[df.index()], ci) == ci {
                    continue;
                }
                // Insert a phi with one incoming (undef placeholder) per
                // predecessor; filled during renaming.
                let block_preds = cfg.preds(df).to_vec();
                let undef = func.constant(Constant::Undef(cand.pointee));
                let operands = vec![undef; block_preds.len()];
                let inst = Instruction::new(Opcode::Phi, cand.pointee, operands, block_preds);
                let (phi_id, _) = func.insert_inst_at(df, 0, inst, void);
                phis[df.index()].push((ci, phi_id));
                if std::mem::replace(&mut queued[df.index()], ci) != ci {
                    work.push(df);
                }
            }
        }
    }

    // Renaming: iterative DFS over the dominator tree.
    let mut stacks: Vec<Vec<ValueId>> = vec![Vec::new(); candidates.len()];
    let mut slot_of: Vec<Option<usize>> = vec![None; func.num_values()];
    for (ci, c) in candidates.iter().enumerate() {
        slot_of[c.slot.index()] = Some(ci);
    }
    let current = |func: &mut Function, stacks: &[Vec<ValueId>], ci: usize| {
        stacks[ci]
            .last()
            .copied()
            .unwrap_or_else(|| func.constant(Constant::Undef(candidates[ci].pointee)))
    };
    let mut to_remove: Vec<InstId> = Vec::new();

    enum Action {
        Visit(BlockId),
        Pop(Vec<usize>), // one stack entry to drop per listed candidate
    }
    let mut agenda = vec![Action::Visit(func.entry_block())];
    while let Some(action) = agenda.pop() {
        match action {
            Action::Pop(pushes) => {
                for ci in pushes {
                    stacks[ci].pop();
                }
            }
            Action::Visit(block) => {
                let mut pushes: Vec<usize> = Vec::new();
                for inst_id in func.block(block).insts().to_vec() {
                    let inst = func.inst(inst_id);
                    match inst.opcode() {
                        Opcode::Phi => {
                            let ours = phis[block.index()].iter().find(|&&(_, p)| p == inst_id);
                            if let Some(&(ci, _)) = ours {
                                let v = func.inst_result(inst_id).expect("phi has a result");
                                stacks[ci].push(v);
                                pushes.push(ci);
                            }
                        }
                        Opcode::Store => {
                            let (value, ptr) = (inst.operands()[0], inst.operands()[1]);
                            if let Some(ci) = slot_of[ptr.index()] {
                                stacks[ci].push(value);
                                pushes.push(ci);
                                to_remove.push(inst_id);
                            }
                        }
                        Opcode::Load => {
                            if let Some(ci) = slot_of[inst.operands()[0].index()] {
                                let result = func.inst_result(inst_id).expect("load has a result");
                                let v = current(func, &stacks, ci);
                                func.replace_all_uses(result, v);
                                to_remove.push(inst_id);
                            }
                        }
                        _ => {}
                    }
                }
                // Fill phi incomings in CFG successors.
                for &succ in cfg.succs(block) {
                    for &(ci, phi_id) in &phis[succ.index()] {
                        let v = current(func, &stacks, ci);
                        let idx = func
                            .inst(phi_id)
                            .block_operands()
                            .iter()
                            .position(|&b| b == block)
                            .expect("edge recorded in phi");
                        func.set_operand(phi_id, idx, v);
                    }
                }
                // Recurse into dominator-tree children.
                agenda.push(Action::Pop(pushes));
                for &child in dom.children(block) {
                    agenda.push(Action::Visit(child));
                }
            }
        }
    }

    for inst in to_remove {
        func.remove_inst(inst);
    }
    for cand in &candidates {
        func.remove_inst(cand.alloca);
    }
    candidates.len()
}

/// Scalar allocas whose address is only loaded from and stored to, found
/// from each slot's use list.
fn find_candidates(module: &Module, fid: llva_core::module::FuncId) -> Vec<Candidate> {
    let func = module.function(fid);
    let types = module.types();
    let mut out = Vec::new();
    'next: for (_, alloca) in func.inst_iter() {
        let inst = func.inst(alloca);
        if inst.opcode() != Opcode::Alloca || !inst.operands().is_empty() {
            continue;
        }
        let Some(slot) = func.inst_result(alloca) else {
            continue;
        };
        let Some(pointee) = types
            .pointee(inst.result_type())
            .filter(|&p| types.is_scalar(p))
        else {
            continue;
        };
        let mut stores = Vec::new();
        for user in func.users(slot) {
            if func.inst_parent(user).is_none() {
                continue;
            }
            let u = func.inst(user);
            match u.opcode() {
                Opcode::Load => {}
                Opcode::Store if u.operands()[0] != slot => stores.push(user),
                _ => continue 'next, // address escapes
            }
        }
        out.push(Candidate {
            alloca,
            slot,
            pointee,
            stores,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::PassManager;
    use llva_core::builder::FunctionBuilder;
    use llva_core::layout::TargetConfig;
    use llva_core::verifier::verify_module;

    fn build_if_else() -> (Module, llva_core::module::FuncId) {
        // int f(int x) { int v; if (x > 0) v = 1; else v = 2; return v; }
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![int]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let entry = b.block("entry");
        let t = b.block("t");
        let e = b.block("e");
        let join = b.block("join");
        b.switch_to(entry);
        let x = b.func().args()[0];
        let slot = b.alloca(int);
        let zero = b.iconst(int, 0);
        let c = b.setgt(x, zero);
        b.cond_br(c, t, e);
        b.switch_to(t);
        let one = b.iconst(int, 1);
        b.store(one, slot);
        b.br(join);
        b.switch_to(e);
        let two = b.iconst(int, 2);
        b.store(two, slot);
        b.br(join);
        b.switch_to(join);
        let v = b.load(slot);
        b.ret(Some(v));
        (m, f)
    }

    #[test]
    fn promotes_if_else_to_phi() {
        let (mut m, f) = build_if_else();
        let mut pm = PassManager::new();
        pm.add(Mem2Reg::new()).verify_after_each(true);
        let stats = pm.run(&mut m);
        assert!(stats[0].changed);
        verify_module(&m).expect("verifies");
        let func = m.function(f);
        // no more alloca/load/store
        for (_, i) in func.inst_iter() {
            assert!(!matches!(
                func.inst(i).opcode(),
                Opcode::Alloca | Opcode::Load | Opcode::Store
            ));
        }
        // a phi was introduced in join
        let has_phi = func
            .inst_iter()
            .any(|(_, i)| func.inst(i).opcode() == Opcode::Phi);
        assert!(has_phi);
    }

    #[test]
    fn load_before_store_yields_undef() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let entry = b.block("entry");
        b.switch_to(entry);
        let slot = b.alloca(int);
        let v = b.load(slot);
        b.ret(Some(v));
        let mut pass = Mem2Reg::new();
        assert!(pass.run(&mut m));
        verify_module(&m).expect("verifies");
        let func = m.function(f);
        let entry = func.entry_block();
        let ret = func.block(entry).insts()[0];
        assert_eq!(func.inst(ret).opcode(), Opcode::Ret);
        let op = func.inst(ret).operands()[0];
        assert!(matches!(
            func.value_as_const(op),
            Some(Constant::Undef(_))
        ));
    }

    #[test]
    fn escaped_alloca_not_promoted() {
        // address passed to a call -> must stay in memory
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let intp = m.types_mut().pointer_to(int);
        let void = m.types_mut().void();
        let callee = m.add_function("taker", void, vec![intp]);
        let f = m.add_function("f", int, vec![]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let entry = b.block("entry");
        b.switch_to(entry);
        let slot = b.alloca(int);
        b.call(callee, vec![slot]);
        let v = b.load(slot);
        b.ret(Some(v));
        let mut pass = Mem2Reg::new();
        assert!(!pass.run(&mut m));
        let func = m.function(f);
        let has_alloca = func
            .inst_iter()
            .any(|(_, i)| func.inst(i).opcode() == Opcode::Alloca);
        assert!(has_alloca, "escaped alloca must survive");
    }

    #[test]
    fn loop_variable_promotion() {
        // int f(int n) { int s = 0; int i = 0; while (i < n) { s += i; i += 1; } return s; }
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![int]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let entry = b.block("entry");
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        let n = b.func().args()[0];
        let s = b.alloca(int);
        let i = b.alloca(int);
        let zero = b.iconst(int, 0);
        b.store(zero, s);
        b.store(zero, i);
        b.br(header);
        b.switch_to(header);
        let iv = b.load(i);
        let c = b.setlt(iv, n);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        let sv = b.load(s);
        let iv2 = b.load(i);
        let s2 = b.add(sv, iv2);
        b.store(s2, s);
        let one = b.iconst(int, 1);
        let i2 = b.add(iv2, one);
        b.store(i2, i);
        b.br(header);
        b.switch_to(exit);
        let out = b.load(s);
        b.ret(Some(out));

        let mut pass = Mem2Reg::new();
        assert!(pass.run(&mut m));
        assert_eq!(pass.promoted(), 2);
        verify_module(&m).expect("verifies");
        // header should now have phis for both variables
        let func = m.function(f);
        let phis = func
            .block(header)
            .insts()
            .iter()
            .filter(|&&i| func.inst(i).opcode() == Opcode::Phi)
            .count();
        assert_eq!(phis, 2);
    }
}
