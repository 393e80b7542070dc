//! The target-independent lowering driver: one code generator, three
//! target descriptions.
//!
//! [`Lower`] owns everything that is the same on every implementation
//! ISA: fused-compare detection, location and frame planning
//! ([`Frame::plan`]), the block-order walk with its branch fixups, the
//! phi copies on each edge, the opcode dispatch, direct / indirect /
//! intrinsic call selection with `invoke`'s normal edge and landing
//! pad, and GEP folding into a static offset plus scaled dynamic
//! indices. A [`Target`] supplies only what differs: register roles,
//! immediate fit and constant materialisation, slot addressing,
//! prologue/epilogue and the argument convention, integer and float ALU
//! lowering, the compare model, and casts. The driver is monomorphised
//! per target; nothing is dispatched dynamically.
//!
//! Planning: a value has exactly one home — a register *or* one frame
//! slot. Integer-class values with enough static uses are promoted to
//! the target's callee-saved registers, hottest first; ties go to the
//! earlier candidate, arguments by index and then results in layout
//! order, so the code depends on the bytecode and not on how values
//! happened to be numbered in memory. Each promoted register gets one
//! save slot; every other value, every phi's staging slot and every
//! fixed-size `alloca` gets frame space below the frame pointer, and
//! the outgoing-argument overflow area is sized for the widest call.

use crate::common::{access_of, canonical_const, classify, intrinsic_target, ValClass};
use crate::peephole::{self, PeepholeConfig, PeepholeIsa};
use llva_core::function::{BlockId, Function};
use llva_core::instruction::{InstId, Opcode};
use llva_core::intrinsics::Intrinsic;
use llva_core::module::{FuncId, Module};
use llva_core::types::{TypeId, TypeKind, TypeTable};
use llva_core::value::{Constant, ValueData, ValueId};
use llva_machine::common::{FpOp, Sym, Width};

/// Where a value lives for the whole function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Loc<R> {
    /// A callee-saved register.
    Reg(R),
    /// A frame slot: a byte offset from the frame pointer.
    Slot(i32),
}

/// How the planner hands out homes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Policy {
    /// The fewest static uses for which an argument, and an instruction
    /// result, is promoted to a register; `None` promotes nothing.
    pub promote: Option<(usize, usize)>,
    /// Whether a compare fused into its branch still gets a home.
    pub home_fused: bool,
    /// Frame bytes reserved below the frame pointer before any slot.
    pub frame_base: i32,
}

/// The paper's x86 translator (§5.2): no promotion, one slot per
/// result — the Table 2 baseline.
pub(crate) const NAIVE: Policy = Policy {
    promote: None,
    home_fused: true,
    frame_base: 0,
};

/// The callee a call instruction transfers to.
pub(crate) enum Callee<R> {
    Intrinsic(Intrinsic),
    Direct(u32),
    Indirect(R),
}

/// What one implementation ISA supplies to the driver.
pub(crate) trait Target: Sized {
    type Inst: Clone;
    type Reg: Copy + PartialEq + std::fmt::Debug + 'static;
    type FReg: Copy;
    /// The ISA's peephole lens, which also knows how to retarget every
    /// control transfer.
    type Lens: PeepholeIsa<Inst = Self::Inst>;

    /// Callee-saved registers the planner may hand out, in order.
    const ALLOCATABLE: &'static [Self::Reg];
    const POLICY: Policy;
    /// Arguments passed in registers; the rest go through memory.
    const ARG_REGS: usize;
    /// A register that always reads zero, if the ISA has one.
    const ZERO: Option<Self::Reg>;
    /// Scratch for a first and a second operand.
    const SCRATCH: [Self::Reg; 2];
    /// Where a slot-homed integer result is computed.
    const RESULT: Self::Reg;
    /// Where a slot-homed loaded integer is loaded.
    const LOAD_RESULT: Self::Reg;
    /// Scratch holding an indirect callee.
    const CALLEE: Self::Reg;
    /// The integer return-value register.
    const RET: Self::Reg;
    /// Float scratch registers.
    const F: [Self::FReg; 3];
    /// Whether a float result comes back in [`Target::RET`].
    const FLOAT_RESULT_IN_GPR: bool;

    /// Where argument `i` lives when it is not promoted; `None` gives
    /// it a fresh slot the prologue fills.
    fn arg_home(_i: usize) -> Option<i32> {
        None
    }

    // values: constants, slots and moves
    fn mov(e: &mut Lower<'_, Self>, dst: Self::Reg, src: Self::Reg);
    fn mat_const(e: &mut Lower<'_, Self>, bits: u64, dst: Self::Reg);
    /// Copies `v` into exactly `dst`.
    fn load_to(e: &mut Lower<'_, Self>, v: ValueId, dst: Self::Reg);
    fn load_slot(e: &mut Lower<'_, Self>, r: Self::Reg, off: i32);
    fn store_slot(e: &mut Lower<'_, Self>, r: Self::Reg, off: i32);
    fn fload_slot(e: &mut Lower<'_, Self>, f: Self::FReg, off: i32);
    fn fstore_slot(e: &mut Lower<'_, Self>, f: Self::FReg, off: i32);
    fn mov_sym(r: Self::Reg, sym: Sym) -> Self::Inst;
    fn mov_fg(f: Self::FReg, r: Self::Reg) -> Self::Inst;
    fn mov_gf(r: Self::Reg, f: Self::FReg) -> Self::Inst;

    // memory and control
    fn load(rd: Self::Reg, base: Self::Reg, width: Width, signed: bool) -> Self::Inst;
    fn store(rs: Self::Reg, base: Self::Reg, width: Width) -> Self::Inst;
    fn fload(f: Self::FReg, base: Self::Reg, is32: bool) -> Self::Inst;
    /// An unconditional jump whose target the driver patches.
    fn jump() -> Self::Inst;
    fn unwind() -> Self::Inst;

    // frame and calling convention
    fn prologue(e: &mut Lower<'_, Self>);
    fn epilogue(e: &mut Lower<'_, Self>);
    fn frame_addr(e: &mut Lower<'_, Self>, rd: Self::Reg, off: i32);
    fn stack_alloc(e: &mut Lower<'_, Self>, rd: Self::Reg, count: ValueId, size: u64);
    fn pass_args(e: &mut Lower<'_, Self>, args: &[ValueId]);
    fn call(callee: Callee<Self::Reg>, nargs: usize, unwind: Option<u32>) -> Self::Inst;
    /// Runs after the call returns and again at an `invoke`'s pad.
    fn after_call(_e: &mut Lower<'_, Self>, _nargs: usize) {}

    // arithmetic and casts
    fn int_binary(
        e: &mut Lower<'_, Self>,
        id: InstId,
        op: Opcode,
        ops: &[ValueId],
        ty: TypeId,
        trapping: bool,
    );
    /// `fd := fa ⊕ fb`.
    fn falu(
        e: &mut Lower<'_, Self>,
        op: FpOp,
        fd: Self::FReg,
        fa: Self::FReg,
        fb: Self::FReg,
        is32: bool,
    );
    fn cvt_if(f: Self::FReg, r: Self::Reg, to32: bool, signed: bool) -> Self::Inst;
    fn cvt_fi(r: Self::Reg, f: Self::FReg, from32: bool, signed: bool) -> Self::Inst;
    fn cvt_ff(fd: Self::FReg, fs: Self::FReg, to32: bool) -> Self::Inst;
    /// Normalises `r` to the canonical representation of `ty`.
    fn extend(e: &mut Lower<'_, Self>, r: Self::Reg, ty: TypeId);
    /// `rd := src != 0` for an integer `src`.
    fn int_to_bool(e: &mut Lower<'_, Self>, src: ValueId, rd: Self::Reg);
    /// `rd := F[0] != 0.0`.
    fn float_to_bool(e: &mut Lower<'_, Self>, rd: Self::Reg, is32: bool);

    // the compare model
    /// Materialises compare `cmp`'s boolean into `rd`.
    fn set_cond(e: &mut Lower<'_, Self>, cmp: InstId, rd: Self::Reg);
    /// Branches to `target` when `cond` holds; `fused` is its defining
    /// compare when that compare was folded into this branch.
    fn branch_if(e: &mut Lower<'_, Self>, cond: ValueId, fused: Option<InstId>, target: BlockId);
    /// Branches to `target` when `r` equals the constant `case`.
    fn branch_eq(e: &mut Lower<'_, Self>, r: Self::Reg, case: ValueId, target: BlockId);

    /// A GEP's address: `base + offset + Σ index × size` into `id`'s
    /// result.
    fn gep(
        e: &mut Lower<'_, Self>,
        id: InstId,
        base: ValueId,
        offset: i64,
        dynamic: &[(ValueId, u64)],
    );
}

/// Translates one function with the target's own policy, then runs the
/// shared peephole pass.
pub(crate) fn compile<T: Target>(
    module: &Module,
    fid: FuncId,
    peep: &PeepholeConfig,
) -> Vec<T::Inst> {
    peephole::run::<T::Lens>(lower::<T>(module, fid, &T::POLICY), peep).0
}

/// Translates one function under `policy`. The module must verify.
pub(crate) fn lower<T: Target>(module: &Module, fid: FuncId, policy: &Policy) -> Vec<T::Inst> {
    let func = module.function(fid);
    assert!(!func.is_declaration(), "cannot compile a declaration");
    Lower::<T>::new(module, func, policy).run()
}

/// The planned frame of one function.
#[derive(Debug)]
pub(crate) struct Frame<R> {
    /// The home of every argument and materialised result, by value.
    locs: Vec<Option<Loc<R>>>,
    /// Each phi's staging slot and each fixed-size alloca's area, by
    /// instruction.
    inst_slots: Vec<i32>,
    /// Promoted registers and the slots they are saved in.
    pub saves: Vec<(R, i32)>,
    /// Bytes below the frame pointer.
    pub size: i32,
    /// Bytes of outgoing arguments beyond the register arguments.
    pub out_area: i32,
}

impl<R: Copy + PartialEq> Frame<R> {
    fn new_slot(&mut self) -> i32 {
        self.size += 8;
        -self.size
    }

    /// Plans the homes of `func`'s values (see the module docs).
    pub(crate) fn plan<T: Target<Reg = R>>(
        module: &Module,
        func: &Function,
        policy: &Policy,
        uses: &[usize],
        fused: &[bool],
    ) -> Frame<R> {
        let bool_ty = module.types().bool_or_sentinel();
        let int = |v: ValueId| classify(module, func.value_type(v, bool_ty)) == ValClass::Int;
        let homed = |i: InstId| policy.home_fused || !fused[i.index()];
        let mut frame = Frame {
            locs: vec![None; func.num_values()],
            inst_slots: vec![0; fused.len()],
            saves: Vec::new(),
            size: policy.frame_base,
            out_area: 0,
        };
        if let Some((min_arg, min_result)) = policy.promote {
            // an argument's weight counts the prologue's homing copy
            let mut candidates: Vec<(usize, ValueId)> = Vec::new();
            for &a in func.args() {
                if uses[a.index()] >= min_arg && int(a) {
                    candidates.push((uses[a.index()] + 1, a));
                }
            }
            for (_, i) in func.inst_iter() {
                if let Some(r) = func.inst_result(i).filter(|_| homed(i)) {
                    if uses[r.index()] >= min_result && int(r) {
                        candidates.push((uses[r.index()], r));
                    }
                }
            }
            // stable: ties keep candidate (layout) order
            candidates.sort_by_key(|&(uses, _)| std::cmp::Reverse(uses));
            for (&(_, v), &reg) in candidates.iter().zip(T::ALLOCATABLE) {
                frame.locs[v.index()] = Some(Loc::Reg(reg));
                let slot = frame.new_slot();
                frame.saves.push((reg, slot));
            }
        }
        for (i, &a) in func.args().iter().enumerate() {
            if frame.locs[a.index()].is_none() {
                let off = T::arg_home(i).unwrap_or_else(|| frame.new_slot());
                frame.locs[a.index()] = Some(Loc::Slot(off));
            }
        }
        for (_, i) in func.inst_iter() {
            if let Some(r) = func.inst_result(i).filter(|_| homed(i)) {
                if frame.locs[r.index()].is_none() {
                    frame.locs[r.index()] = Some(Loc::Slot(frame.new_slot()));
                }
            }
            let inst = func.inst(i);
            match inst.opcode() {
                Opcode::Phi => frame.inst_slots[i.index()] = frame.new_slot(),
                // paper §3.2: fixed-size allocas are preallocated in the frame
                Opcode::Alloca if inst.operands().is_empty() => {
                    let pointee = module
                        .types()
                        .pointee(inst.result_type())
                        .expect("alloca yields a pointer");
                    let size = module.target().size_of(module.types(), pointee);
                    frame.size += ((size + 7) & !7) as i32;
                    frame.inst_slots[i.index()] = -frame.size;
                }
                Opcode::Call | Opcode::Invoke => {
                    let extra = inst.operands().len().saturating_sub(1 + T::ARG_REGS) as i32;
                    frame.out_area = frame.out_area.max(extra * 8);
                }
                _ => {}
            }
        }
        frame
    }

    /// The home of `v`.
    pub(crate) fn loc(&self, v: ValueId) -> Loc<R> {
        self.locs[v.index()].expect("value has a home")
    }

    /// A phi's staging slot or a fixed-size alloca's area.
    pub(crate) fn inst_slot(&self, i: InstId) -> i32 {
        self.inst_slots[i.index()]
    }
}

/// Static uses of every value by the function's linked instructions.
pub(crate) fn use_counts(func: &Function) -> Vec<usize> {
    let mut uses = vec![0; func.num_values()];
    for (_, i) in func.inst_iter() {
        for &op in func.inst(i).operands() {
            uses[op.index()] += 1;
        }
    }
    uses
}

/// Compares whose single use is the conditional branch ending their own
/// block: the branch evaluates them itself, so they are never
/// materialised. Indexed by instruction.
pub(crate) fn fused_compares(func: &Function, uses: &[usize]) -> Vec<bool> {
    let n = func
        .inst_iter()
        .map(|(_, i)| i.index() + 1)
        .max()
        .unwrap_or(0);
    let mut fused = vec![false; n];
    for &block in func.block_order() {
        let Some(term) = func.terminator(block) else {
            continue;
        };
        let term = func.inst(term);
        if term.opcode() != Opcode::Br || term.operands().len() != 1 {
            continue;
        }
        let cond = term.operands()[0];
        if let ValueData::Inst { inst: def, .. } = *func.value(cond) {
            if func.inst_parent(def) == Some(block)
                && func.inst(def).opcode().is_comparison()
                && uses[cond.index()] == 1
            {
                fused[def.index()] = true;
            }
        }
    }
    fused
}

/// One function being lowered for target `T`.
pub(crate) struct Lower<'a, T: Target> {
    pub module: &'a Module,
    pub func: &'a Function,
    pub frame: Frame<T::Reg>,
    pub code: Vec<T::Inst>,
    fused: Vec<bool>,
    /// Jumps and branches awaiting their block's start index.
    fixups: Vec<(usize, BlockId)>,
    bool_ty: TypeId,
}

impl<'a, T: Target> Lower<'a, T> {
    pub(crate) fn new(module: &'a Module, func: &'a Function, policy: &Policy) -> Self {
        let uses = use_counts(func);
        let fused = fused_compares(func, &uses);
        Lower {
            module,
            func,
            frame: Frame::plan::<T>(module, func, policy, &uses, &fused),
            code: Vec::new(),
            fused,
            fixups: Vec::new(),
            bool_ty: module.types().bool_or_sentinel(),
        }
    }

    fn run(mut self) -> Vec<T::Inst> {
        T::prologue(&mut self);
        let func = self.func;
        let order = func.block_order();
        let mut starts = vec![0u32; order.iter().map(|b| b.index() + 1).max().unwrap_or(0)];
        for (bi, &block) in order.iter().enumerate() {
            starts[block.index()] = self.code.len() as u32;
            for &id in func.block(block).insts() {
                self.inst(block, id, order.get(bi + 1).copied());
            }
        }
        for (at, block) in std::mem::take(&mut self.fixups) {
            T::Lens::retarget(&mut self.code[at], &mut |_| starts[block.index()]);
        }
        self.code
    }

    // ---- helpers for targets ------------------------------------------

    pub(crate) fn push(&mut self, inst: T::Inst) {
        self.code.push(inst);
    }

    pub(crate) fn types(&self) -> &'a TypeTable {
        self.module.types()
    }

    pub(crate) fn vty(&self, v: ValueId) -> TypeId {
        self.func.value_type(v, self.bool_ty)
    }

    pub(crate) fn class(&self, ty: TypeId) -> ValClass {
        classify(self.module, ty)
    }

    pub(crate) fn signed(&self, ty: TypeId) -> bool {
        self.types().is_signed_integer(ty)
    }

    pub(crate) fn is_bool(&self, ty: TypeId) -> bool {
        matches!(self.types().kind(ty), TypeKind::Bool)
    }

    pub(crate) fn konst(&self, v: ValueId) -> Option<&'a Constant> {
        self.func.value_as_const(v)
    }

    /// The register `v` lives in, unless it is a constant or slot-homed.
    pub(crate) fn home_reg(&self, v: ValueId) -> Option<T::Reg> {
        match self.konst(v) {
            Some(_) => None,
            None => match self.frame.loc(v) {
                Loc::Reg(r) => Some(r),
                Loc::Slot(_) => None,
            },
        }
    }

    /// The slot `v` lives in, unless it is a constant or register-homed.
    pub(crate) fn home_slot(&self, v: ValueId) -> Option<i32> {
        match self.konst(v) {
            Some(_) => None,
            None => match self.frame.loc(v) {
                Loc::Slot(off) => Some(off),
                Loc::Reg(_) => None,
            },
        }
    }

    /// The canonical bits of a constant that is not an address.
    pub(crate) fn imm(&self, v: ValueId) -> Option<i64> {
        match self.konst(v)? {
            Constant::GlobalAddr { .. } | Constant::FunctionAddr { .. } => None,
            c => Some(canonical_const(self.module, c) as i64),
        }
    }

    /// A register holding `v`, read-only: its home register, the zero
    /// register, or `scratch` after materialising or reloading it.
    pub(crate) fn read(&mut self, v: ValueId, scratch: T::Reg) -> T::Reg {
        match self.konst(v) {
            Some(Constant::GlobalAddr { global, .. }) => {
                self.push(T::mov_sym(scratch, Sym::Global(global.index() as u32)));
            }
            Some(Constant::FunctionAddr { func, .. }) => {
                self.push(T::mov_sym(scratch, Sym::Function(func.index() as u32)));
            }
            Some(c) => {
                let bits = canonical_const(self.module, c);
                match T::ZERO {
                    Some(zero) if bits == 0 => return zero,
                    _ => T::mat_const(self, bits, scratch),
                }
            }
            None => match self.frame.loc(v) {
                Loc::Reg(r) => return r,
                Loc::Slot(off) => T::load_slot(self, scratch, off),
            },
        }
        scratch
    }

    /// Where instruction `id` computes its integer result: its home
    /// register, or `scratch` when it is slot-homed.
    pub(crate) fn dst(&self, id: InstId, scratch: T::Reg) -> T::Reg {
        match self.frame.loc(self.result(id)) {
            Loc::Reg(home) => home,
            Loc::Slot(_) => scratch,
        }
    }

    /// Completes an integer result computed into `r`.
    pub(crate) fn finish(&mut self, id: InstId, r: T::Reg) {
        match self.frame.loc(self.result(id)) {
            Loc::Reg(home) if home != r => T::mov(self, home, r),
            Loc::Reg(_) => {}
            Loc::Slot(off) => T::store_slot(self, r, off),
        }
    }

    /// Loads the float value `v` into `f`.
    pub(crate) fn fload(&mut self, v: ValueId, f: T::FReg) {
        if let Some(c) = self.konst(v) {
            let bits = canonical_const(self.module, c);
            T::mat_const(self, bits, T::SCRATCH[0]);
            self.push(T::mov_fg(f, T::SCRATCH[0]));
            return;
        }
        match self.frame.loc(v) {
            Loc::Reg(r) => self.push(T::mov_fg(f, r)),
            Loc::Slot(off) => T::fload_slot(self, f, off),
        }
    }

    /// Stores the float result of `id` from `f`.
    pub(crate) fn fstore_result(&mut self, id: InstId, f: T::FReg) {
        match self.frame.loc(self.result(id)) {
            Loc::Reg(r) => self.push(T::mov_gf(r, f)),
            Loc::Slot(off) => T::fstore_slot(self, f, off),
        }
    }

    /// Emits a branch to `target`, patched once every block is placed.
    pub(crate) fn branch(&mut self, inst: T::Inst, target: BlockId) {
        self.fixups.push((self.code.len(), target));
        self.push(inst);
    }

    fn jump(&mut self, target: BlockId) {
        self.branch(T::jump(), target);
    }

    fn result(&self, id: InstId) -> ValueId {
        self.func.inst_result(id).expect("has a result")
    }

    // ---- the walk -----------------------------------------------------

    /// Stages `succ`'s phi incomings for the edge from `block`.
    fn phi_copies(&mut self, block: BlockId, succ: BlockId) {
        let func = self.func;
        for &phi in func.block(succ).insts() {
            if func.inst(phi).opcode() != Opcode::Phi {
                continue;
            }
            if let Some(incoming) = func.phi_incoming(phi, block) {
                let r = self.read(incoming, T::SCRATCH[0]);
                let stage = self.frame.inst_slot(phi);
                T::store_slot(self, r, stage);
            }
        }
    }

    fn all_phi_copies(&mut self, block: BlockId) {
        for succ in self.func.successors(block) {
            self.phi_copies(block, succ);
        }
    }

    fn inst(&mut self, block: BlockId, id: InstId, next: Option<BlockId>) {
        if self.fused[id.index()] {
            return; // evaluated by its branch
        }
        let func = self.func;
        let inst = func.inst(id);
        let op = inst.opcode();
        let ops = inst.operands();
        let blocks = inst.block_operands();
        let [f0, _, _] = T::F;
        match op {
            _ if op.is_binary() => {
                let ty = inst.result_type();
                match self.class(ty) {
                    ValClass::Int => {
                        T::int_binary(self, id, op, ops, ty, inst.exceptions_enabled())
                    }
                    class => self.float_binary(id, op, ops, class == ValClass::F32),
                }
            }
            _ if op.is_comparison() => {
                let rd = self.dst(id, T::RESULT);
                T::set_cond(self, id, rd);
                self.finish(id, rd);
            }
            Opcode::Ret => {
                if let Some(&v) = ops.first() {
                    if self.class(self.vty(v)) == ValClass::Int {
                        T::load_to(self, v, T::RET);
                    } else {
                        // float returns travel as raw bits
                        self.fload(v, f0);
                        self.push(T::mov_gf(T::RET, f0));
                    }
                }
                T::epilogue(self);
            }
            Opcode::Br => {
                self.all_phi_copies(block);
                if ops.is_empty() {
                    if next != Some(blocks[0]) {
                        self.jump(blocks[0]);
                    }
                } else {
                    let fused = match *func.value(ops[0]) {
                        ValueData::Inst { inst: def, .. } if self.fused[def.index()] => Some(def),
                        _ => None,
                    };
                    T::branch_if(self, ops[0], fused, blocks[0]);
                    if next != Some(blocks[1]) {
                        self.jump(blocks[1]);
                    }
                }
            }
            Opcode::Mbr => {
                self.all_phi_copies(block);
                let r = self.read(ops[0], T::SCRATCH[0]);
                for (&case, &target) in ops[1..].iter().zip(&blocks[1..]) {
                    T::branch_eq(self, r, case, target);
                }
                if next != Some(blocks[0]) {
                    self.jump(blocks[0]);
                }
            }
            Opcode::Call | Opcode::Invoke => self.call(block, id, op, ops, blocks),
            Opcode::Unwind => self.push(T::unwind()),
            Opcode::Load => {
                let pointee = self
                    .types()
                    .pointee(self.vty(ops[0]))
                    .expect("load from pointer");
                let (width, signed) = access_of(self.module, pointee);
                let rp = self.read(ops[0], T::SCRATCH[0]);
                match self.class(pointee) {
                    ValClass::Int => {
                        let rd = self.dst(id, T::LOAD_RESULT);
                        self.push(T::load(rd, rp, width, signed));
                        self.finish(id, rd);
                    }
                    class => {
                        self.push(T::fload(f0, rp, class == ValClass::F32));
                        self.fstore_result(id, f0);
                    }
                }
            }
            Opcode::Store => {
                let pointee = self
                    .types()
                    .pointee(self.vty(ops[1]))
                    .expect("store to pointer");
                let (width, _) = access_of(self.module, pointee);
                let rv = self.read(ops[0], T::SCRATCH[0]);
                let rp = self.read(ops[1], T::SCRATCH[1]);
                self.push(T::store(rv, rp, width));
            }
            Opcode::GetElementPtr => {
                let (offset, dynamic) = self.fold_gep(ops);
                T::gep(self, id, ops[0], offset, &dynamic);
            }
            Opcode::Alloca => {
                let rd = self.dst(id, T::RESULT);
                if ops.is_empty() {
                    let off = self.frame.inst_slot(id);
                    T::frame_addr(self, rd, off);
                } else {
                    let pointee = self
                        .types()
                        .pointee(inst.result_type())
                        .expect("alloca pointer");
                    let size = self.module.target().size_of(self.types(), pointee).max(1);
                    T::stack_alloc(self, rd, ops[0], (size + 7) & !7);
                }
                self.finish(id, rd);
            }
            Opcode::Cast => self.cast(id, ops[0], inst.result_type()),
            Opcode::Phi => {
                let rd = self.dst(id, T::RESULT);
                let stage = self.frame.inst_slot(id);
                T::load_slot(self, rd, stage);
                self.finish(id, rd);
            }
            _ => unreachable!("all opcodes covered"),
        }
    }

    fn float_binary(&mut self, id: InstId, op: Opcode, ops: &[ValueId], is32: bool) {
        let [f0, f1, _] = T::F;
        self.fload(ops[0], f0);
        self.fload(ops[1], f1);
        let fop = match op {
            Opcode::Add => FpOp::Add,
            Opcode::Sub => FpOp::Sub,
            Opcode::Mul => FpOp::Mul,
            Opcode::Div => FpOp::Div,
            Opcode::Rem => FpOp::Rem,
            _ => panic!("bitwise op on float"),
        };
        T::falu(self, fop, f0, f0, f1, is32);
        self.fstore_result(id, f0);
    }

    fn call(
        &mut self,
        block: BlockId,
        id: InstId,
        op: Opcode,
        ops: &[ValueId],
        blocks: &[BlockId],
    ) {
        let args = &ops[1..];
        T::pass_args(self, args);
        let invoke = op == Opcode::Invoke;
        // an invoke's pad is patched in once it is placed
        let unwind = invoke.then_some(0);
        let callee = if let Some(intr) = intrinsic_target(self.module, self.func, ops[0]) {
            Callee::Intrinsic(intr)
        } else if let Some(Constant::FunctionAddr { func, .. }) = self.konst(ops[0]) {
            Callee::Direct(func.index() as u32)
        } else {
            Callee::Indirect(self.read(ops[0], T::CALLEE))
        };
        let at = self.code.len();
        self.push(T::call(callee, args.len(), unwind));
        T::after_call(self, args.len());
        if self.func.inst_result(id).is_some() {
            if self.class(self.func.inst(id).result_type()) == ValClass::Int {
                self.finish(id, T::RET);
            } else {
                if T::FLOAT_RESULT_IN_GPR {
                    self.push(T::mov_fg(T::F[0], T::RET));
                }
                self.fstore_result(id, T::F[0]);
            }
        }
        if invoke {
            self.phi_copies(block, blocks[0]);
            self.jump(blocks[0]);
            // the machine restores the caller's registers and stack
            // pointer at the call site before entering the pad
            let pad = self.code.len() as u32;
            T::after_call(self, args.len());
            self.phi_copies(block, blocks[1]);
            self.jump(blocks[1]);
            T::Lens::retarget(&mut self.code[at], &mut |_| pad);
        }
    }

    /// Folds a GEP's constant indices into one byte offset; the rest
    /// become `(index, element size)` pairs.
    fn fold_gep(&self, ops: &[ValueId]) -> (i64, Vec<(ValueId, u64)>) {
        let tt = self.types();
        let cfg = self.module.target();
        let mut cur = tt.pointee(self.vty(ops[0])).expect("gep base pointer");
        let mut offset: i64 = 0;
        let mut dynamic = Vec::new();
        for (i, &idx) in ops[1..].iter().enumerate() {
            let size = if i == 0 {
                cfg.size_of(tt, cur)
            } else {
                match tt.kind(cur) {
                    TypeKind::Array { elem, .. } => {
                        cur = *elem;
                        cfg.size_of(tt, cur)
                    }
                    TypeKind::LiteralStruct(_) | TypeKind::Struct(_) => {
                        let field = self
                            .konst(idx)
                            .and_then(Constant::as_int_bits)
                            .expect("struct index constant")
                            as usize;
                        offset += cfg.field_offset(tt, cur, field) as i64;
                        cur = tt.struct_fields(cur).expect("defined struct")[field];
                        continue;
                    }
                    other => panic!("gep into non-aggregate {other:?}"),
                }
            };
            match self.imm(idx) {
                Some(k) => offset += k * size as i64,
                None => dynamic.push((idx, size)),
            }
        }
        (offset, dynamic)
    }

    fn cast(&mut self, id: InstId, src: ValueId, to: TypeId) {
        let from = self.vty(src);
        let [f0, _, _] = T::F;
        match (self.class(from), self.class(to)) {
            (ValClass::Int, ValClass::Int) => {
                let rd = self.dst(id, T::RESULT);
                if self.is_bool(to) {
                    T::int_to_bool(self, src, rd);
                } else {
                    T::load_to(self, src, rd);
                    T::extend(self, rd, to);
                }
                self.finish(id, rd);
            }
            (ValClass::Int, fc) => {
                let r = self.read(src, T::SCRATCH[0]);
                let signed = self.signed(from) || self.is_bool(from);
                self.push(T::cvt_if(f0, r, fc == ValClass::F32, signed));
                self.fstore_result(id, f0);
            }
            (fc, ValClass::Int) => {
                let rd = self.dst(id, T::RESULT);
                self.fload(src, f0);
                if self.is_bool(to) {
                    T::float_to_bool(self, rd, fc == ValClass::F32);
                } else {
                    self.push(T::cvt_fi(rd, f0, fc == ValClass::F32, self.signed(to)));
                    T::extend(self, rd, to);
                }
                self.finish(id, rd);
            }
            (fa, fb) => {
                self.fload(src, f0);
                if fa != fb {
                    self.push(T::cvt_ff(f0, f0, fb == ValClass::F32));
                }
                self.fstore_result(id, f0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::riscvgen::Riscv;
    use crate::sparcgen::Sparc;
    use crate::x86gen::X86;

    #[test]
    fn fused_compare_detection() {
        let m = llva_core::parser::parse_module(
            r#"
int %f(int %x) {
entry:
    %c = setlt int %x, 10
    br bool %c, label %a, label %b
a:
    ret int 1
b:
    %c2 = setgt int %x, 0
    %d = cast bool %c2 to int
    br bool %c2, label %a, label %a
}
"#,
        )
        .expect("parses");
        let f = m.function(m.function_by_name("f").expect("f"));
        let fused = fused_compares(f, &use_counts(f));
        // %c is fused (single use by same-block br); %c2 is not (2 uses)
        assert_eq!(fused.iter().filter(|&&b| b).count(), 1);
    }

    const REGISTER_HUNGRY: &str = r#"
int %f(int %a, int %b, int %c, int %d) {
entry:
    %p = alloca long
    %t0 = add int %a, %b
    %t1 = mul int %t0, %c
    %cond = setlt int %t1, %d
    br bool %cond, label %then, label %els
then:
    %t2 = sub int %t1, %t0
    store long 1, long* %p
    br label %join
els:
    br label %join
join:
    %t3 = phi int [ %t2, %then ], [ %t1, %els ]
    %r = call int %f(int %t3, int %a, int %b, int %c)
    %s = add int %r, %t3
    ret int %s
}
"#;

    /// The exhaustive frame-layout audit: one home per value, no slot
    /// for register-homed values (or, where the policy says so, fused
    /// compares), disjoint slots, and a frame exactly accounting for
    /// every slot it hands out.
    fn audit<T: Target>(policy: &Policy) -> usize {
        let m = llva_core::parser::parse_module(REGISTER_HUNGRY).expect("parses");
        let func = m.function(m.function_by_name("f").expect("f"));
        let uses = use_counts(func);
        let fused = fused_compares(func, &uses);
        let frame = Frame::plan::<T>(&m, func, policy, &uses, &fused);
        let mut slots: Vec<i32> = Vec::new();
        let mut reg_homes = 0;
        let values = func
            .args()
            .iter()
            .copied()
            .chain(func.inst_iter().filter_map(|(_, i)| {
                let r = func.inst_result(i)?;
                if fused[i.index()] && !policy.home_fused {
                    assert!(
                        frame.locs[r.index()].is_none(),
                        "fused compare {r:?} was given a home"
                    );
                    return None;
                }
                Some(r)
            }));
        for (n, v) in values.enumerate() {
            match frame.loc(v) {
                Loc::Reg(r) => {
                    assert!(T::ALLOCATABLE.contains(&r), "{v:?} homed in scratch {r:?}");
                    reg_homes += 1;
                }
                // arguments may stay where the caller put them
                Loc::Slot(off) if n < func.args().len() && T::arg_home(n) == Some(off) => {}
                Loc::Slot(off) => slots.push(off),
            }
        }
        slots.extend(frame.saves.iter().map(|&(_, off)| off));
        let alloca_bytes = 8; // one `long` alloca
        let alloca = func
            .inst_iter()
            .find(|&(_, i)| func.inst(i).opcode() == Opcode::Alloca)
            .map(|(_, i)| frame.inst_slot(i))
            .expect("one alloca");
        let phi = func
            .inst_iter()
            .find(|&(_, i)| func.inst(i).opcode() == Opcode::Phi)
            .map(|(_, i)| frame.inst_slot(i))
            .expect("one phi");
        slots.push(phi);
        let mut sorted = slots.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), slots.len(), "overlapping frame slots");
        assert!(!slots.contains(&alloca), "alloca area overlaps a slot");
        for &off in slots.iter().chain([&alloca]) {
            assert!(
                off < -policy.frame_base && off >= -frame.size,
                "slot {off} outside frame {}",
                frame.size
            );
        }
        // the frame is exactly its 8-byte slots plus the alloca area
        assert_eq!(
            frame.size,
            policy.frame_base + 8 * slots.len() as i32 + alloca_bytes,
            "frame size does not match allocated slots"
        );
        reg_homes
    }

    #[test]
    fn frame_layout_is_exact() {
        assert_eq!(
            audit::<X86>(&X86::POLICY),
            X86::ALLOCATABLE.len(),
            "linear scan left registers idle on a register-hungry function"
        );
        assert_eq!(audit::<X86>(&NAIVE), 0);
        // all 12 integer values fit SPARC's 14 registers; RISC-V has 11
        assert_eq!(audit::<Sparc>(&Sparc::POLICY), 12);
        assert_eq!(audit::<Riscv>(&Riscv::POLICY), 11);
    }
}
