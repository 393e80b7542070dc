//! Functions and basic blocks.
//!
//! Each LLVA function is a list of basic blocks; each block is a list of
//! instructions ending in exactly one control-flow instruction that
//! explicitly names its successors (paper §3.1, "Global Data-flow (SSA) &
//! Control Flow Information"). The explicit CFG is a core feature of the
//! V-ISA — unlike native machine code, successors are never implicit.
//!
//! The function also keeps the def-use graph: every value's use list is
//! updated by each operand mutation (`append_inst`, `insert_inst_at`,
//! `set_operands`, `set_operand`, `replace_all_uses`), which makes
//! replace-all-uses-with and use counting proportional to the uses.

use crate::instruction::{InstId, Instruction, Opcode};
use crate::types::TypeId;
use crate::value::{Constant, ValueData, ValueId};
use std::collections::HashMap;
use std::fmt;

/// A handle to a basic block within a function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(u32);

impl BlockId {
    /// Raw index into the owning function's block arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a handle from a raw index.
    pub fn from_index(index: usize) -> BlockId {
        BlockId(u32::try_from(index).expect("block index overflow"))
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Linkage of a function or global (paper §4.2: link-time interprocedural
/// optimization relies on internalizing symbols not visible outside the
/// linked program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Linkage {
    /// Visible to other modules / the OS loader.
    #[default]
    External,
    /// Private to this module; may be removed or rewritten freely.
    Internal,
}

/// A basic block: a label plus an ordered list of instructions.
#[derive(Debug, Clone, Default)]
pub struct BasicBlock {
    name: String,
    insts: Vec<InstId>,
}

impl BasicBlock {
    /// The block label (without the trailing `:`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Instructions in execution order.
    pub fn insts(&self) -> &[InstId] {
        &self.insts
    }
}

/// The end of a def-use chain.
const NIL: u32 = u32::MAX;

/// One operand slot in a def-use chain: the instruction holding it and
/// the next node of the chain (`NIL` at the end).
#[derive(Debug, Clone, Copy)]
struct UseNode {
    user: InstId,
    next: u32,
}

/// An LLVA function: argument list, block layout, and the arenas that own
/// all instructions and SSA values.
#[derive(Debug, Clone)]
pub struct Function {
    name: String,
    ty: TypeId,
    ret_ty: TypeId,
    param_tys: Vec<TypeId>,
    linkage: Linkage,
    is_declaration: bool,
    blocks: Vec<BasicBlock>,
    block_order: Vec<BlockId>,
    insts: Vec<Instruction>,
    inst_block: Vec<Option<BlockId>>,
    values: Vec<ValueData>,
    /// Def-use chains: `first_use[v]` starts a list through `use_nodes`
    /// with one node per operand slot of an arena instruction (attached
    /// or not) that holds `v`. Unlinked nodes are chained from
    /// `free_use` for reuse.
    first_use: Vec<u32>,
    use_nodes: Vec<UseNode>,
    free_use: u32,
    inst_results: Vec<Option<ValueId>>,
    args: Vec<ValueId>,
    value_names: HashMap<ValueId, String>,
    consts: HashMap<Constant, ValueId>,
}

impl Function {
    /// Creates an empty function (a *declaration* until blocks are added).
    ///
    /// `ty` must be a function type whose components are repeated in
    /// `ret_ty` / `param_tys` (the redundancy keeps hot paths free of
    /// type-table lookups).
    pub fn new(
        name: impl Into<String>,
        ty: TypeId,
        ret_ty: TypeId,
        param_tys: Vec<TypeId>,
    ) -> Function {
        let mut f = Function {
            name: name.into(),
            ty,
            ret_ty,
            param_tys,
            linkage: Linkage::External,
            is_declaration: true,
            blocks: Vec::new(),
            block_order: Vec::new(),
            insts: Vec::new(),
            inst_block: Vec::new(),
            values: Vec::new(),
            first_use: Vec::new(),
            use_nodes: Vec::new(),
            free_use: NIL,
            inst_results: Vec::new(),
            args: Vec::new(),
            value_names: HashMap::new(),
            consts: HashMap::new(),
        };
        for (i, &pt) in f.param_tys.clone().iter().enumerate() {
            let v = f.push_value(ValueData::Arg {
                index: i as u32,
                ty: pt,
            });
            f.args.push(v);
        }
        f
    }

    /// The function name (without the leading `%`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The interned function type.
    pub fn type_id(&self) -> TypeId {
        self.ty
    }

    /// The return type.
    pub fn return_type(&self) -> TypeId {
        self.ret_ty
    }

    /// The parameter types.
    pub fn param_types(&self) -> &[TypeId] {
        &self.param_tys
    }

    /// The SSA values bound to the formal parameters.
    pub fn args(&self) -> &[ValueId] {
        &self.args
    }

    /// Linkage of this function.
    pub fn linkage(&self) -> Linkage {
        self.linkage
    }

    /// Sets the linkage (used by the `internalize` pass).
    pub fn set_linkage(&mut self, linkage: Linkage) {
        self.linkage = linkage;
    }

    /// Whether this function has no body (an external declaration).
    pub fn is_declaration(&self) -> bool {
        self.is_declaration
    }

    // ---- blocks -----------------------------------------------------------

    /// Appends a new empty block named `name` and returns its handle.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId(u32::try_from(self.blocks.len()).expect("too many blocks"));
        self.blocks.push(BasicBlock {
            name: name.into(),
            insts: Vec::new(),
        });
        self.block_order.push(id);
        self.is_declaration = false;
        id
    }

    /// The entry block (first in layout order).
    ///
    /// # Panics
    ///
    /// Panics on declarations.
    pub fn entry_block(&self) -> BlockId {
        *self
            .block_order
            .first()
            .expect("entry_block on a declaration")
    }

    /// Blocks in layout order. Removed blocks are absent.
    pub fn block_order(&self) -> &[BlockId] {
        &self.block_order
    }

    /// Immutable access to one block.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Number of live (laid-out) blocks.
    pub fn num_blocks(&self) -> usize {
        self.block_order.len()
    }

    /// Number of block handles ever created, laid out or removed: the
    /// length of a table indexed by [`BlockId::index`].
    pub fn num_block_ids(&self) -> usize {
        self.blocks.len()
    }

    /// Removes `block` from the layout. Its instructions stay in the
    /// arena but are no longer reachable through the layout; the caller
    /// (normally `simplifycfg`) is responsible for fixing up references.
    pub fn remove_block(&mut self, block: BlockId) {
        self.block_order.retain(|&b| b != block);
        for &i in &self.blocks[block.index()].insts.clone() {
            self.inst_block[i.index()] = None;
        }
        self.blocks[block.index()].insts.clear();
    }

    /// Renames a block (parser/printer fidelity).
    pub fn set_block_name(&mut self, block: BlockId, name: impl Into<String>) {
        self.blocks[block.index()].name = name.into();
    }

    // ---- instructions -----------------------------------------------------

    /// Appends `inst` to `block`, creating a result value when the result
    /// type is non-void. Returns `(inst id, result value if any)`.
    pub fn append_inst(
        &mut self,
        block: BlockId,
        inst: Instruction,
        void_ty: TypeId,
    ) -> (InstId, Option<ValueId>) {
        let id = InstId::from_index(self.insts.len());
        let ty = inst.result_type();
        for &op in inst.operands() {
            self.link_use(op, id);
        }
        self.insts.push(inst);
        self.inst_block.push(Some(block));
        let result = if ty != void_ty {
            let v = self.push_value(ValueData::Inst { inst: id, ty });
            Some(v)
        } else {
            None
        };
        self.inst_results.push(result);
        self.blocks[block.index()].insts.push(id);
        (id, result)
    }

    /// Inserts `inst` at `pos` within `block` rather than at the end
    /// (used by `mem2reg` to place phis at block heads).
    pub fn insert_inst_at(
        &mut self,
        block: BlockId,
        pos: usize,
        inst: Instruction,
        void_ty: TypeId,
    ) -> (InstId, Option<ValueId>) {
        let (id, result) = self.append_inst(block, inst, void_ty);
        let insts = &mut self.blocks[block.index()].insts;
        let popped = insts.pop().expect("just appended");
        debug_assert_eq!(popped, id);
        insts.insert(pos.min(insts.len()), id);
        (id, result)
    }

    /// Immutable access to an instruction.
    pub fn inst(&self, id: InstId) -> &Instruction {
        &self.insts[id.index()]
    }

    /// Replaces the value operands of `id`, keeping use lists exact.
    pub fn set_operands(&mut self, id: InstId, operands: Vec<ValueId>) {
        for &v in &operands {
            self.link_use(v, id);
        }
        for &v in self.insts[id.index()].replace_operands(operands).iter() {
            self.unlink_use(v, id);
        }
    }

    /// Replaces operand `index` of `id` with `value`, keeping use lists
    /// exact.
    pub fn set_operand(&mut self, id: InstId, index: usize, value: ValueId) {
        let old = std::mem::replace(&mut self.insts[id.index()].operand_slots()[index], value);
        if old != value {
            self.unlink_use(old, id);
            self.link_use(value, id);
        }
    }

    /// Replaces the block operands of `id` (branch targets / phi
    /// predecessors).
    pub fn set_block_operands(&mut self, id: InstId, blocks: Vec<BlockId>) {
        self.insts[id.index()].set_block_operands(blocks);
    }

    /// Overrides the `ExceptionsEnabled` attribute (§3.3) of `id`.
    pub fn set_exceptions_enabled(&mut self, id: InstId, enabled: bool) {
        self.insts[id.index()].set_exceptions_enabled(enabled);
    }

    /// Makes the phis of `block`'s successors that name `from` as an
    /// incoming block name `block` instead — the fix-up after the code
    /// ending in `from`'s terminator moved into `block`.
    pub fn retarget_successor_phis(&mut self, block: BlockId, from: BlockId) {
        for succ in self.successors(block) {
            for &i in &self.blocks[succ.index()].insts {
                let inst = &mut self.insts[i.index()];
                if inst.opcode() == Opcode::Phi {
                    for pb in inst.block_operands_mut() {
                        if *pb == from {
                            *pb = block;
                        }
                    }
                }
            }
        }
    }

    /// The block currently containing `id`, or `None` if detached.
    pub fn inst_parent(&self, id: InstId) -> Option<BlockId> {
        self.inst_block[id.index()]
    }

    /// The SSA value produced by `id`, if it produces one.
    pub fn inst_result(&self, id: InstId) -> Option<ValueId> {
        self.inst_results[id.index()]
    }

    /// Unlinks `id` from its block (the arena slot is tombstoned).
    pub fn remove_inst(&mut self, id: InstId) {
        if let Some(b) = self.inst_block[id.index()].take() {
            self.blocks[b.index()].insts.retain(|&i| i != id);
        }
    }

    /// Re-links a detached instruction at the end of `block` (used by
    /// code motion and by inlining).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the instruction is still attached.
    pub fn reattach_inst(&mut self, block: BlockId, inst: InstId) {
        debug_assert!(self.inst_block[inst.index()].is_none());
        self.inst_block[inst.index()] = Some(block);
        self.blocks[block.index()].insts.push(inst);
    }

    /// Moves the instructions of `from` at positions `pos..` to the end
    /// of `to` (block splits and straight-line merges).
    pub fn move_insts(&mut self, from: BlockId, pos: usize, to: BlockId) {
        let tail = self.blocks[from.index()].insts.split_off(pos);
        for &i in &tail {
            self.inst_block[i.index()] = Some(to);
        }
        self.blocks[to.index()].insts.extend(tail);
    }

    /// The terminator of `block`, if the block is non-empty and ends in
    /// a control-flow instruction.
    pub fn terminator(&self, block: BlockId) -> Option<InstId> {
        let last = *self.blocks[block.index()].insts.last()?;
        self.inst(last).is_terminator().then_some(last)
    }

    /// Successor blocks of `block`, in terminator operand order.
    pub fn successors(&self, block: BlockId) -> Vec<BlockId> {
        match self.terminator(block) {
            Some(t) => self.inst(t).block_operands().to_vec(),
            None => Vec::new(),
        }
    }

    /// Total number of instructions currently linked into blocks.
    pub fn num_insts(&self) -> usize {
        self.block_order
            .iter()
            .map(|&b| self.blocks[b.index()].insts.len())
            .sum()
    }

    /// Iterates `(block, inst)` over every linked instruction in layout
    /// order.
    pub fn inst_iter(&self) -> impl Iterator<Item = (BlockId, InstId)> + '_ {
        self.block_order
            .iter()
            .flat_map(move |&b| self.blocks[b.index()].insts.iter().map(move |&i| (b, i)))
    }

    // ---- values -----------------------------------------------------------

    fn push_value(&mut self, data: ValueData) -> ValueId {
        let id = ValueId::from_index(self.values.len());
        self.values.push(data);
        self.first_use.push(NIL);
        id
    }

    /// Materializes (and interns) a constant as an SSA value.
    pub fn constant(&mut self, c: Constant) -> ValueId {
        if let Some(&v) = self.consts.get(&c) {
            return v;
        }
        let v = self.push_value(ValueData::Const(c));
        self.consts.insert(c, v);
        v
    }

    /// What `value` is.
    pub fn value(&self, value: ValueId) -> &ValueData {
        &self.values[value.index()]
    }

    /// The constant behind `value`, if it is one.
    pub fn value_as_const(&self, value: ValueId) -> Option<&Constant> {
        match self.value(value) {
            ValueData::Const(c) => Some(c),
            _ => None,
        }
    }

    /// The type of `value`. `bool_ty` is needed because `Constant::Bool`
    /// carries no type id.
    pub fn value_type(&self, value: ValueId, bool_ty: TypeId) -> TypeId {
        match self.value(value) {
            ValueData::Arg { ty, .. } | ValueData::Inst { ty, .. } => *ty,
            ValueData::Const(c) => c.type_id().unwrap_or(bool_ty),
        }
    }

    /// Number of SSA values ever created (the paper's "infinite register
    /// file" — arguments, instruction results, and interned constants).
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Gives `value` a printable name (e.g. `%Ret.1`).
    pub fn set_value_name(&mut self, value: ValueId, name: impl Into<String>) {
        self.value_names.insert(value, name.into());
    }

    /// The printable name of `value`, if one was assigned.
    pub fn value_name(&self, value: ValueId) -> Option<&str> {
        self.value_names.get(&value).map(String::as_str)
    }

    /// The arena instructions using `value`, once per operand slot that
    /// holds it, in no particular order. Detached instructions are
    /// included: code motion and inlining re-attach them.
    pub fn users(&self, value: ValueId) -> impl Iterator<Item = InstId> + '_ {
        let mut k = self.first_use[value.index()];
        std::iter::from_fn(move || {
            let node = *self.use_nodes.get(k as usize)?;
            k = node.next;
            Some(node.user)
        })
    }

    /// Rewrites every use of `from` into `to` across all instructions,
    /// attached or not, in O(uses of `from`).
    pub fn replace_all_uses(&mut self, from: ValueId, to: ValueId) {
        let head = self.first_use[from.index()];
        if from == to || head == NIL {
            return;
        }
        let mut k = head;
        loop {
            let UseNode { user, next } = self.use_nodes[k as usize];
            for op in self.insts[user.index()].operand_slots() {
                if *op == from {
                    *op = to;
                }
            }
            if next == NIL {
                break;
            }
            k = next;
        }
        // the whole chain moves in front of `to`'s
        self.use_nodes[k as usize].next = self.first_use[to.index()];
        self.first_use[to.index()] = head;
        self.first_use[from.index()] = NIL;
    }

    /// Counts uses of `value` among linked instructions only.
    pub fn count_uses(&self, value: ValueId) -> usize {
        self.users(value)
            .filter(|u| self.inst_block[u.index()].is_some())
            .count()
    }

    /// Adds a `user` node to `value`'s chain.
    fn link_use(&mut self, value: ValueId, user: InstId) {
        let node = UseNode {
            user,
            next: self.first_use[value.index()],
        };
        let k = if self.free_use == NIL {
            self.use_nodes.push(node);
            u32::try_from(self.use_nodes.len() - 1).expect("use index overflow")
        } else {
            let k = self.free_use;
            self.free_use = self.use_nodes[k as usize].next;
            self.use_nodes[k as usize] = node;
            k
        };
        self.first_use[value.index()] = k;
    }

    /// Drops one `user` node from `value`'s chain.
    fn unlink_use(&mut self, value: ValueId, user: InstId) {
        let mut prev = NIL;
        let mut k = self.first_use[value.index()];
        let next = loop {
            let node = self
                .use_nodes
                .get(k as usize)
                .expect("every operand slot is on its value's chain");
            if node.user == user {
                break node.next;
            }
            prev = k;
            k = node.next;
        };
        if prev == NIL {
            self.first_use[value.index()] = next;
        } else {
            self.use_nodes[prev as usize].next = next;
        }
        self.use_nodes[k as usize].next = self.free_use;
        self.free_use = k;
    }

    /// Checks the def-use chains against the operands: every operand of
    /// every arena instruction appears in its value's use list exactly as
    /// often as it is used there, and nothing else appears.
    ///
    /// # Errors
    ///
    /// Names the first value whose use list disagrees.
    pub fn check_uses(&self) -> Result<(), String> {
        let mut expected: Vec<(ValueId, InstId)> = Vec::new();
        for (i, inst) in self.insts.iter().enumerate() {
            expected.extend(inst.operands().iter().map(|&v| (v, InstId::from_index(i))));
        }
        let mut actual: Vec<(ValueId, InstId)> = Vec::with_capacity(expected.len());
        for v in (0..self.values.len()).map(ValueId::from_index) {
            // a corrupted chain may cycle: no chain has more nodes than exist
            actual.extend(self.users(v).take(self.use_nodes.len() + 1).map(|u| (v, u)));
        }
        expected.sort_unstable();
        actual.sort_unstable();
        let Some(k) =
            (0..expected.len().max(actual.len())).find(|&k| expected.get(k) != actual.get(k))
        else {
            return Ok(());
        };
        let value = match (expected.get(k), actual.get(k)) {
            (Some(e), Some(a)) => e.0.min(a.0),
            (Some(e), None) => e.0,
            (None, Some(a)) => a.0,
            (None, None) => unreachable!("k is below one of the lengths"),
        };
        let of = |pairs: &[(ValueId, InstId)]| -> Vec<InstId> {
            pairs.iter().filter(|p| p.0 == value).map(|p| p.1).collect()
        };
        Err(format!(
            "use list of {value} is {:?} but its operand slots are in {:?}",
            of(&actual),
            of(&expected)
        ))
    }

    /// Whether the terminator list of every laid-out block is well formed
    /// (cheap structural check used in debug assertions; the full
    /// [`verifier`](crate::verifier) does much more).
    pub fn has_terminators(&self) -> bool {
        self.block_order.iter().all(|&b| self.terminator(b).is_some())
    }

    /// Dedicated accessor used by phi handling: the value flowing into
    /// `phi` from predecessor `pred`, if recorded.
    pub fn phi_incoming(&self, phi: InstId, pred: BlockId) -> Option<ValueId> {
        let inst = self.inst(phi);
        debug_assert_eq!(inst.opcode(), Opcode::Phi);
        inst.block_operands()
            .iter()
            .position(|&b| b == pred)
            .map(|i| inst.operands()[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TypeTable;

    fn simple_fn(tt: &mut TypeTable) -> Function {
        let int = tt.int();
        let fty = tt.function(int, vec![int, int], false);
        Function::new("f", fty, int, vec![int, int])
    }

    #[test]
    fn declaration_until_blocks_added() {
        let mut tt = TypeTable::new();
        let mut f = simple_fn(&mut tt);
        assert!(f.is_declaration());
        f.add_block("entry");
        assert!(!f.is_declaration());
        assert_eq!(f.block(f.entry_block()).name(), "entry");
    }

    #[test]
    fn args_are_values() {
        let mut tt = TypeTable::new();
        let f = simple_fn(&mut tt);
        assert_eq!(f.args().len(), 2);
        let int = {
            let mut tt2 = TypeTable::new();
            tt2.int()
        };
        // args carry their declared types
        let b = TypeId::from_index(999); // sentinel never used for args
        assert_eq!(f.value_type(f.args()[0], b), int);
    }

    #[test]
    fn append_and_result() {
        let mut tt = TypeTable::new();
        let int = tt.int();
        let void = tt.void();
        let mut f = simple_fn(&mut tt);
        let entry = f.add_block("entry");
        let (a, b) = (f.args()[0], f.args()[1]);
        let (id, res) = f.append_inst(entry, Instruction::new(Opcode::Add, int, vec![a, b], vec![]), void);
        assert!(res.is_some());
        assert_eq!(f.inst_parent(id), Some(entry));
        let (rid, rres) = f.append_inst(
            entry,
            Instruction::new(Opcode::Ret, void, vec![res.unwrap()], vec![]),
            void,
        );
        assert!(rres.is_none());
        assert_eq!(f.terminator(entry), Some(rid));
        assert_eq!(f.num_insts(), 2);
        assert!(f.has_terminators());
    }

    #[test]
    fn constants_are_interned_per_function() {
        let mut tt = TypeTable::new();
        let int = tt.int();
        let mut f = simple_fn(&mut tt);
        let c1 = f.constant(Constant::Int { ty: int, bits: 7 });
        let c2 = f.constant(Constant::Int { ty: int, bits: 7 });
        let c3 = f.constant(Constant::Int { ty: int, bits: 8 });
        assert_eq!(c1, c2);
        assert_ne!(c1, c3);
    }

    #[test]
    fn replace_all_uses_rewrites_operands() {
        let mut tt = TypeTable::new();
        let int = tt.int();
        let void = tt.void();
        let mut f = simple_fn(&mut tt);
        let entry = f.add_block("entry");
        let (a, b) = (f.args()[0], f.args()[1]);
        let (_, res) = f.append_inst(entry, Instruction::new(Opcode::Add, int, vec![a, a], vec![]), void);
        f.replace_all_uses(a, b);
        let add_id = f.block(entry).insts()[0];
        assert_eq!(f.inst(add_id).operands(), &[b, b]);
        assert_eq!(f.count_uses(a), 0);
        let _ = res;
    }

    #[test]
    fn remove_inst_unlinks() {
        let mut tt = TypeTable::new();
        let int = tt.int();
        let void = tt.void();
        let mut f = simple_fn(&mut tt);
        let entry = f.add_block("entry");
        let (a, b) = (f.args()[0], f.args()[1]);
        let (id, _) = f.append_inst(entry, Instruction::new(Opcode::Add, int, vec![a, b], vec![]), void);
        assert_eq!(f.num_insts(), 1);
        f.remove_inst(id);
        assert_eq!(f.num_insts(), 0);
        assert_eq!(f.inst_parent(id), None);
    }

    #[test]
    fn successors_and_predecessors() {
        let mut tt = TypeTable::new();
        let void = tt.void();
        let b = tt.bool();
        let mut f = simple_fn(&mut tt);
        let entry = f.add_block("entry");
        let then = f.add_block("then");
        let els = f.add_block("else");
        let mut fcond = f.constant(Constant::Bool(true));
        let _ = b;
        let _ = &mut fcond;
        f.append_inst(
            entry,
            Instruction::new(Opcode::Br, void, vec![fcond], vec![then, els]),
            void,
        );
        f.append_inst(then, Instruction::new(Opcode::Ret, void, vec![f.args()[0]], vec![]), void);
        f.append_inst(els, Instruction::new(Opcode::Ret, void, vec![f.args()[1]], vec![]), void);
        assert_eq!(f.successors(entry), vec![then, els]);
        let cfg = crate::dominators::Cfg::new(&f);
        assert_eq!(cfg.preds(then), &[entry]);
        assert_eq!(cfg.preds(els), &[entry]);
        assert!(cfg.preds(entry).is_empty());
    }

    #[test]
    fn use_lists_follow_every_operand_mutation() {
        let mut tt = TypeTable::new();
        let int = tt.int();
        let void = tt.void();
        let mut f = simple_fn(&mut tt);
        let entry = f.add_block("entry");
        let (a, b) = (f.args()[0], f.args()[1]);
        let add_aa = Instruction::new(Opcode::Add, int, vec![a, a], vec![]);
        let (add, s) = f.append_inst(entry, add_aa, void);
        let s = s.unwrap();
        let ret_s = Instruction::new(Opcode::Ret, void, vec![s], vec![]);
        let (ret, _) = f.append_inst(entry, ret_s, void);
        let users = |f: &Function, v| f.users(v).collect::<Vec<_>>();
        assert_eq!(users(&f, a), [add, add]);
        f.set_operand(add, 1, b);
        assert_eq!((users(&f, a), users(&f, b)), (vec![add], vec![add]));
        f.set_operands(add, vec![b, b]);
        assert!(users(&f, a).is_empty());
        f.replace_all_uses(b, a);
        assert_eq!(f.count_uses(a), 2);
        assert!(users(&f, b).is_empty());
        // a detached user keeps its uses, but no longer counts
        f.remove_inst(ret);
        assert_eq!((users(&f, s), f.count_uses(s)), (vec![ret], 0));
        f.check_uses().expect("use lists in sync");
    }

    #[test]
    fn desynchronised_use_list_is_reported() {
        let mut tt = TypeTable::new();
        let int = tt.int();
        let void = tt.void();
        let mut f = simple_fn(&mut tt);
        let entry = f.add_block("entry");
        let (a, b) = (f.args()[0], f.args()[1]);
        let add_ab = Instruction::new(Opcode::Add, int, vec![a, b], vec![]);
        let (add, _) = f.append_inst(entry, add_ab, void);
        f.check_uses().expect("in sync");
        // a stale entry: `b` claims a second use by `add`
        f.link_use(b, add);
        let err = f.check_uses().unwrap_err();
        assert!(err.contains(&format!("use list of {b}")), "{err}");
        // a missing entry
        f.unlink_use(b, add);
        f.unlink_use(b, add);
        let err = f.check_uses().unwrap_err();
        assert!(err.contains(&format!("use list of {b}")), "{err}");
    }
}
