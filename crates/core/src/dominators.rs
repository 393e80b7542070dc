//! CFG snapshots and dominator analysis over the explicit CFG.
//!
//! [`Cfg`] is the dense form every analysis starts from: successors and
//! predecessors as `Vec`s indexed by [`BlockId::index`]. [`DomTree`] is
//! built over it with the Cooper–Harvey–Kennedy iterative algorithm on a
//! reverse-postorder numbering — simple, and fast in practice — and
//! numbers the dominator tree in DFS pre-order so `dominates` is O(1).
//! The verifier uses dominance to check the SSA property ("defs dominate
//! uses"), `mem2reg` uses dominance frontiers to place `phi` nodes, and
//! `licm` finds natural loops from it.

use crate::function::{BlockId, Function};

/// Marks a block with no reverse-postorder number (unreachable).
const UNREACHABLE: u32 = u32::MAX;

/// A snapshot of a function's CFG: the successors and predecessors of
/// every laid-out block, indexed by block.
///
/// Predecessor lists name each laid-out block once per terminator edge,
/// in layout order, so a block reached by both arms of a `br` lists that
/// predecessor twice. The snapshot does not follow later CFG edits.
#[derive(Debug, Clone)]
pub struct Cfg {
    entry: BlockId,
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
}

impl Cfg {
    /// Snapshots the CFG of `func`.
    ///
    /// # Panics
    ///
    /// Panics on declarations.
    pub fn new(func: &Function) -> Cfg {
        let n = func.num_block_ids();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for &b in func.block_order() {
            if let Some(t) = func.terminator(b) {
                let targets = func.inst(t).block_operands();
                for &s in targets {
                    preds[s.index()].push(b);
                }
                succs[b.index()] = targets.to_vec();
            }
        }
        Cfg {
            entry: func.entry_block(),
            succs,
            preds,
        }
    }

    /// The length of a table indexed by [`BlockId::index`] over this CFG.
    pub fn num_block_ids(&self) -> usize {
        self.succs.len()
    }

    /// Successors of `block`, in terminator operand order.
    pub fn succs(&self, block: BlockId) -> &[BlockId] {
        &self.succs[block.index()]
    }

    /// Predecessors of `block` (one entry per incoming edge).
    pub fn preds(&self, block: BlockId) -> &[BlockId] {
        &self.preds[block.index()]
    }

    /// Blocks reachable from the entry, in reverse postorder of a DFS
    /// that visits successors in terminator operand order.
    pub fn reverse_postorder(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.num_block_ids()];
        let mut postorder = Vec::new();
        // Iterative DFS with an explicit stack of (block, next-successor-index).
        let mut stack: Vec<(BlockId, usize)> = vec![(self.entry, 0)];
        visited[self.entry.index()] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if let Some(&s) = self.succs(b).get(*next) {
                *next += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                postorder.push(b);
                stack.pop();
            }
        }
        postorder.reverse();
        postorder
    }
}

/// Dominator tree plus dominance frontiers for one function, indexed by
/// block.
#[derive(Debug, Clone)]
pub struct DomTree {
    rpo: Vec<BlockId>,
    /// Reverse-postorder number of each block, `UNREACHABLE` if none.
    rpo_index: Vec<u32>,
    /// Immediate dominator by reverse-postorder number (the entry's is
    /// itself).
    idom: Vec<u32>,
    children: Vec<Vec<BlockId>>,
    frontier: Vec<Vec<BlockId>>,
    /// Dominator-tree DFS interval of each block: `a` dominates `b` iff
    /// `pre[a] <= pre[b] < pre_end[a]`.
    pre: Vec<u32>,
    pre_end: Vec<u32>,
}

impl DomTree {
    /// Computes dominators for `func`.
    ///
    /// Blocks unreachable from the entry are excluded from the tree (they
    /// have no RPO number and no immediate dominator).
    pub fn compute(func: &Function) -> DomTree {
        DomTree::from_cfg(&Cfg::new(func))
    }

    /// Computes dominators over an existing CFG snapshot.
    pub fn from_cfg(cfg: &Cfg) -> DomTree {
        let n = cfg.num_block_ids();
        let rpo = cfg.reverse_postorder();
        let mut rpo_index = vec![UNREACHABLE; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i as u32;
        }
        // Reachable predecessors of each block, by RPO number.
        let preds: Vec<Vec<u32>> = rpo
            .iter()
            .map(|&b| {
                cfg.preds(b)
                    .iter()
                    .map(|p| rpo_index[p.index()])
                    .filter(|&r| r != UNREACHABLE)
                    .collect()
            })
            .collect();

        // Immediate dominators, CHK-style. idom[entry] = entry.
        let mut idom = vec![UNREACHABLE; rpo.len()];
        idom[0] = 0;
        let mut changed = true;
        while changed {
            changed = false;
            for b in 1..rpo.len() {
                let mut new_idom = UNREACHABLE;
                for &p in &preds[b] {
                    if idom[p as usize] == UNREACHABLE {
                        continue;
                    }
                    new_idom = if new_idom == UNREACHABLE {
                        p
                    } else {
                        intersect(&idom, p, new_idom)
                    };
                }
                if new_idom != UNREACHABLE && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }

        // Children in block-id order.
        let mut children = vec![Vec::new(); n];
        for (bi, &r) in rpo_index.iter().enumerate() {
            if r != UNREACHABLE && r != 0 {
                let d = rpo[idom[r as usize] as usize];
                children[d.index()].push(BlockId::from_index(bi));
            }
        }

        // Dominance frontiers (Cytron et al. via the CHK formulation).
        let mut frontier: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for (b, ps) in preds.iter().enumerate() {
            if ps.len() < 2 {
                continue;
            }
            for &p in ps {
                let mut runner = p;
                while runner != idom[b] {
                    let df = &mut frontier[rpo[runner as usize].index()];
                    if !df.contains(&rpo[b]) {
                        df.push(rpo[b]);
                    }
                    runner = idom[runner as usize];
                }
            }
        }

        // Pre-order intervals over the dominator tree.
        let mut pre = vec![0u32; n];
        let mut pre_end = vec![0u32; n];
        if let Some(&entry) = rpo.first() {
            let mut counter = 1u32;
            let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
            while let Some(&mut (b, ref mut next)) = stack.last_mut() {
                if let Some(&c) = children[b.index()].get(*next) {
                    *next += 1;
                    pre[c.index()] = counter;
                    counter += 1;
                    stack.push((c, 0));
                } else {
                    pre_end[b.index()] = counter;
                    stack.pop();
                }
            }
        }

        DomTree {
            rpo,
            rpo_index,
            idom,
            children,
            frontier,
            pre,
            pre_end,
        }
    }

    /// Blocks in reverse postorder (entry first).
    pub fn reverse_postorder(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Whether `block` is reachable from the entry.
    pub fn is_reachable(&self, block: BlockId) -> bool {
        self.rpo_number(block).is_some()
    }

    fn rpo_number(&self, block: BlockId) -> Option<usize> {
        let r = *self.rpo_index.get(block.index())?;
        (r != UNREACHABLE).then_some(r as usize)
    }

    /// The immediate dominator of `block` (`None` for the entry and for
    /// unreachable blocks).
    pub fn idom(&self, block: BlockId) -> Option<BlockId> {
        let r = self.rpo_number(block)?;
        (r != 0).then(|| self.rpo[self.idom[r] as usize])
    }

    /// Whether `a` dominates `b` (reflexively).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        let (a, b) = (a.index(), b.index());
        self.pre[a] <= self.pre[b] && self.pre[b] < self.pre_end[a]
    }

    /// Whether `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Children of `block` in the dominator tree, in block-id order.
    pub fn children(&self, block: BlockId) -> &[BlockId] {
        self.children.get(block.index()).map_or(&[], Vec::as_slice)
    }

    /// The dominance frontier of `block`.
    pub fn frontier(&self, block: BlockId) -> &[BlockId] {
        self.frontier.get(block.index()).map_or(&[], Vec::as_slice)
    }
}

/// The nearest common dominator of two RPO numbers.
fn intersect(idom: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while a > b {
            a = idom[a as usize];
        }
        while b > a {
            b = idom[b as usize];
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::layout::TargetConfig;
    use crate::module::Module;

    /// Builds the classic diamond:  entry -> {t, e} -> join -> exit
    fn diamond() -> (Module, crate::module::FuncId, Vec<BlockId>) {
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
        let zero = b.iconst(int, 0);
        let c = b.setgt(x, zero);
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.br(join);
        b.switch_to(e);
        b.br(join);
        b.switch_to(join);
        b.ret(Some(x));
        (m, f, vec![entry, t, e, join])
    }

    #[test]
    fn diamond_dominators() {
        let (m, f, blocks) = diamond();
        let dom = DomTree::compute(m.function(f));
        let [entry, t, e, join] = blocks[..] else {
            unreachable!()
        };
        assert_eq!(dom.idom(entry), None);
        assert_eq!(dom.idom(t), Some(entry));
        assert_eq!(dom.idom(e), Some(entry));
        assert_eq!(dom.idom(join), Some(entry)); // join has two preds
        assert!(dom.dominates(entry, join));
        assert!(!dom.dominates(t, join));
        assert!(dom.dominates(join, join));
        assert!(dom.strictly_dominates(entry, t));
        assert!(!dom.strictly_dominates(t, t));
        assert_eq!(dom.children(entry), &[t, e, join]);
    }

    #[test]
    fn diamond_frontiers() {
        let (m, f, blocks) = diamond();
        let dom = DomTree::compute(m.function(f));
        let [_, t, e, join] = blocks[..] else {
            unreachable!()
        };
        assert_eq!(dom.frontier(t), &[join]);
        assert_eq!(dom.frontier(e), &[join]);
        assert!(dom.frontier(join).is_empty());
    }

    #[test]
    fn diamond_cfg() {
        let (m, f, blocks) = diamond();
        let cfg = Cfg::new(m.function(f));
        let [entry, t, e, join] = blocks[..] else {
            unreachable!()
        };
        assert_eq!(cfg.succs(entry), &[t, e]);
        assert_eq!(cfg.preds(join), &[t, e]);
        assert!(cfg.preds(entry).is_empty());
        assert!(cfg.succs(join).is_empty());
    }

    #[test]
    fn rpo_starts_at_entry() {
        let (m, f, blocks) = diamond();
        let dom = DomTree::compute(m.function(f));
        assert_eq!(dom.reverse_postorder()[0], blocks[0]);
        assert_eq!(dom.reverse_postorder().len(), 4);
    }

    #[test]
    fn unreachable_blocks_excluded() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![int]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let entry = b.block("entry");
        let dead = b.block("dead");
        b.switch_to(entry);
        let x = b.func().args()[0];
        b.ret(Some(x));
        b.switch_to(dead);
        b.ret(Some(x));
        let dom = DomTree::compute(m.function(f));
        assert!(dom.is_reachable(entry));
        assert!(!dom.is_reachable(dead));
        assert!(!dom.dominates(entry, dead));
        assert_eq!(dom.idom(dead), None);
    }

    #[test]
    fn loop_dominators() {
        // entry -> header -> body -> header (back edge), header -> exit
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![int]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let entry = b.block("entry");
        let header = b.block("header");
        let body = b.block("body");
        let exit = b.block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let x = b.func().args()[0];
        let zero = b.iconst(int, 0);
        let c = b.setgt(x, zero);
        b.cond_br(c, body, exit);
        b.switch_to(body);
        b.br(header);
        b.switch_to(exit);
        b.ret(Some(x));
        let dom = DomTree::compute(m.function(f));
        assert_eq!(dom.idom(header), Some(entry));
        assert_eq!(dom.idom(body), Some(header));
        assert_eq!(dom.idom(exit), Some(header));
        assert!(dom.dominates(header, body) && !dom.dominates(body, exit));
        // header is in its own body's frontier (back edge)
        assert!(dom.frontier(body).contains(&header));
        assert!(dom.frontier(header).contains(&header));
    }
}
