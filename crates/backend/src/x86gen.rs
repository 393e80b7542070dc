//! The IA-32 code generator.
//!
//! The paper's x86 back end "performs virtually no optimization and
//! very simple register allocation resulting in significant spill
//! code" (§5.2). That translator is preserved as
//! [`compile_x86_naive`] — every SSA value homed in a stack slot —
//! because Table 2's spill-code numbers are measured against it. The
//! default path now uses the same use-count linear-scan register
//! assignment as the SPARC back end, scaled down to IA-32's three
//! callee-saved registers (EBX/ESI/EDI): the hottest integer values
//! live in registers, everything else still spills. Arithmetic still
//! computes in EAX/ECX/EDX (memory-operand forms used where the ISA
//! allows), so the caller-clobbered scratch set never overlaps the
//! allocator's home set.
//!
//! Frame discipline: `push ebp; mov ebp, esp; sub esp, frame`.
//! Incoming arguments live where the caller pushed them
//! (`[ebp + 8 + 8i]`) unless promoted to a register; spill slots, phi
//! staging slots, preallocated `alloca`s and the callee-saved register
//! save area live at negative `ebp` offsets. A value has exactly one
//! home — a register *or* one slot — and fused compares have none,
//! which is what the exhaustive frame-layout test pins down (the old
//! accounting gave every instruction result a slot whether or not it
//! could ever be materialized).
//!
//! `phi` nodes are eliminated by copies in predecessor blocks (paper
//! §3.1), routed through staging slots so parallel phi semantics are
//! preserved.

use crate::common::{
    access_of, canonical_const, classify, fused_compares, inst_defining, intrinsic_target,
    use_counts, ValClass,
};
use llva_core::function::{BlockId, Function};
use llva_core::instruction::{InstId, Opcode};
use llva_core::module::{FuncId, Module};
use llva_core::types::{TypeId, TypeKind};
use llva_core::value::{Constant, ValueId};
use llva_machine::common::{Sym, Width};
use llva_machine::x86::{AluOp, Cond, Fpr, Gpr, MemOp, Norm, X86Inst};
use std::collections::{HashMap, HashSet};

/// Compiles one function to x86 code. The module must verify.
pub fn compile_x86(module: &Module, fid: FuncId) -> Vec<X86Inst> {
    compile_x86_with(module, fid, &crate::peephole::PeepholeConfig::from_env())
}

/// [`compile_x86`] with an explicit peephole configuration (used by
/// the conformance oracle's off-vs-on stages and perf-smoke deltas).
pub fn compile_x86_with(
    module: &Module,
    fid: FuncId,
    peep: &crate::peephole::PeepholeConfig,
) -> Vec<X86Inst> {
    let func = module.function(fid);
    assert!(!func.is_declaration(), "cannot compile a declaration");
    let mut cg = CodeGen::new(module, func, false);
    cg.run();
    crate::peephole::run_x86(cg.finish(), peep)
}

/// The paper-faithful translator: every value slot-homed, no peephole.
/// Kept as the baseline for Table 2 spill-count deltas.
pub fn compile_x86_naive(module: &Module, fid: FuncId) -> Vec<X86Inst> {
    let func = module.function(fid);
    assert!(!func.is_declaration(), "cannot compile a declaration");
    let mut cg = CodeGen::new(module, func, true);
    cg.run();
    cg.finish()
}

const EAX: Gpr = Gpr::Eax;
const ECX: Gpr = Gpr::Ecx;
const EDX: Gpr = Gpr::Edx;
const F0: Fpr = Fpr(0);
const F1: Fpr = Fpr(1);

/// Allocatable callee-saved registers.
const ALLOCATABLE: [Gpr; 3] = [Gpr::Ebx, Gpr::Esi, Gpr::Edi];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Reg(Gpr),
    Slot(MemOp),
}

struct CodeGen<'a> {
    module: &'a Module,
    func: &'a Function,
    code: Vec<X86Inst>,
    locs: HashMap<ValueId, Loc>,
    staging: HashMap<InstId, MemOp>,
    alloca_home: HashMap<InstId, i32>,
    save_slots: HashMap<Gpr, MemOp>,
    used_saved: Vec<Gpr>,
    frame_size: i32,
    fused: HashSet<InstId>,
    block_starts: HashMap<BlockId, u32>,
    fixups: Vec<(usize, BlockId)>,
    bool_ty: TypeId,
    naive: bool,
}

impl<'a> CodeGen<'a> {
    fn new(module: &'a Module, func: &'a Function, naive: bool) -> CodeGen<'a> {
        let bool_ty = module.types().bool_or_sentinel();
        let mut cg = CodeGen {
            module,
            func,
            code: Vec::new(),
            locs: HashMap::new(),
            staging: HashMap::new(),
            alloca_home: HashMap::new(),
            save_slots: HashMap::new(),
            used_saved: Vec::new(),
            frame_size: 0,
            fused: fused_compares(func),
            block_starts: HashMap::new(),
            fixups: Vec::new(),
            bool_ty,
            naive,
        };
        cg.assign_frame();
        cg
    }

    fn new_slot(&mut self) -> MemOp {
        self.frame_size += 8;
        MemOp {
            base: Gpr::Ebp,
            disp: -self.frame_size,
        }
    }

    fn assign_frame(&mut self) {
        // Linear scan: the hottest integer values get the callee-saved
        // registers; each promoted register is saved once in the frame.
        if !self.naive {
            // Promotion must pay for its fixed overhead: each promoted
            // register costs a save + restore pair per activation (and
            // an extra arg-homing load for arguments), so a value is a
            // candidate only when the memory traffic it avoids — one
            // access per use, plus one for the eliminated result store
            // — strictly exceeds that cost. Call-heavy code with
            // single-use values (fib) therefore promotes nothing and
            // keeps the naive translator's instruction counts.
            let counts = use_counts(self.func);
            let mut candidates: Vec<(usize, ValueId)> = Vec::new();
            for &a in self.func.args() {
                let uses = counts.get(&a).copied().unwrap_or(0);
                if uses >= 4
                    && classify(self.module, self.func.value_type(a, self.bool_ty))
                        == ValClass::Int
                {
                    candidates.push((uses + 1, a));
                }
            }
            for (_, inst_id) in self.func.inst_iter() {
                if self.fused.contains(&inst_id) {
                    continue; // never materialized — no home at all
                }
                if let Some(r) = self.func.inst_result(inst_id) {
                    let uses = counts.get(&r).copied().unwrap_or(0);
                    if uses >= 2
                        && classify(self.module, self.func.value_type(r, self.bool_ty))
                            == ValClass::Int
                    {
                        candidates.push((uses, r));
                    }
                }
            }
            candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            for ((_, v), &reg) in candidates.iter().zip(ALLOCATABLE.iter()) {
                self.locs.insert(*v, Loc::Reg(reg));
                if !self.used_saved.contains(&reg) {
                    self.used_saved.push(reg);
                    let slot = self.new_slot();
                    self.save_slots.insert(reg, slot);
                }
            }
        }
        // arguments not promoted live where the caller pushed them
        for (i, &a) in self.func.args().to_vec().iter().enumerate() {
            self.locs.entry(a).or_insert(Loc::Slot(MemOp {
                base: Gpr::Ebp,
                disp: 8 + 8 * i as i32,
            }));
        }
        for (_, inst_id) in self.func.inst_iter().collect::<Vec<_>>() {
            if let Some(r) = self.func.inst_result(inst_id) {
                // one home per value: skip reg-homed results and (in
                // the allocating mode) fused compares, which are never
                // materialized — the naive path keeps the historical
                // slot-per-result accounting
                let skip = !self.naive && self.fused.contains(&inst_id);
                if !skip && !self.locs.contains_key(&r) {
                    let slot = self.new_slot();
                    self.locs.insert(r, Loc::Slot(slot));
                }
            }
            let inst = self.func.inst(inst_id);
            if inst.opcode() == Opcode::Phi {
                let slot = self.new_slot();
                self.staging.insert(inst_id, slot);
            }
            if inst.opcode() == Opcode::Alloca && inst.operands().is_empty() {
                // paper §3.2: fixed-size allocas are preallocated in the frame
                let pointee = self
                    .module
                    .types()
                    .pointee(inst.result_type())
                    .expect("alloca yields a pointer");
                let size = self.module.target().size_of(self.module.types(), pointee);
                let size = ((size + 7) & !7) as i32;
                self.frame_size += size;
                self.alloca_home.insert(inst_id, -self.frame_size);
            }
        }
    }

    fn vty(&self, v: ValueId) -> TypeId {
        self.func.value_type(v, self.bool_ty)
    }

    fn slot(&self, v: ValueId) -> MemOp {
        match self.locs[&v] {
            Loc::Slot(m) => m,
            Loc::Reg(r) => unreachable!("{v:?} homed in {r:?}, not a slot"),
        }
    }

    /// Emits code to materialize `v` into GPR `r` (a fresh copy — safe
    /// to mutate afterwards).
    fn load_into(&mut self, v: ValueId, r: Gpr) {
        match self.func.value_as_const(v) {
            Some(Constant::GlobalAddr { global, .. }) => {
                self.code
                    .push(X86Inst::MovRSym(r, Sym::Global(global.index() as u32)));
            }
            Some(Constant::FunctionAddr { func, .. }) => {
                self.code
                    .push(X86Inst::MovRSym(r, Sym::Function(func.index() as u32)));
            }
            Some(c) => {
                let bits = canonical_const(self.module, c);
                self.code.push(X86Inst::MovRI(r, bits as i64));
            }
            None => match self.locs[&v] {
                Loc::Reg(home) => self.code.push(X86Inst::MovRR(r, home)),
                Loc::Slot(mem) => self.code.push(X86Inst::Load {
                    dst: r,
                    mem,
                    width: Width::B8,
                    signed: false,
                }),
            },
        }
    }

    /// A register holding `v`, read-only: the home register when it
    /// has one, otherwise materialized into `scratch`. Callers must
    /// not mutate the result.
    fn reg_source(&mut self, v: ValueId, scratch: Gpr) -> Gpr {
        if self.func.value_as_const(v).is_none() {
            if let Loc::Reg(home) = self.locs[&v] {
                return home;
            }
        }
        self.load_into(v, scratch);
        scratch
    }

    /// Emits code to materialize a float value into `f`.
    fn fload_into(&mut self, v: ValueId, f: Fpr) {
        match self.func.value_as_const(v) {
            Some(c) => {
                let bits = canonical_const(self.module, c);
                self.code.push(X86Inst::MovRI(EAX, bits as i64));
                self.code.push(X86Inst::MovFG(f, EAX));
            }
            None => {
                let mem = self.slot(v);
                self.code.push(X86Inst::FLoad {
                    dst: f,
                    mem,
                    is32: false,
                });
            }
        }
    }

    /// The register an int-result instruction should compute into: the
    /// value's home register when it has one (no store needed after),
    /// otherwise the given scratch.
    fn int_dst(&mut self, inst: InstId, scratch: Gpr) -> Gpr {
        let v = self.func.inst_result(inst).expect("has a result");
        match self.locs[&v] {
            Loc::Reg(home) => home,
            Loc::Slot(_) => scratch,
        }
    }

    /// Completes an int result computed into `r`: a no-op when `r` is
    /// already the value's home register, a spill store otherwise.
    fn finish_int(&mut self, inst: InstId, r: Gpr) {
        let v = self.func.inst_result(inst).expect("has a result");
        match self.locs[&v] {
            Loc::Reg(home) => {
                if home != r {
                    self.code.push(X86Inst::MovRR(home, r));
                }
            }
            Loc::Slot(mem) => self.code.push(X86Inst::Store {
                src: r,
                mem,
                width: Width::B8,
            }),
        }
    }

    fn fstore_result(&mut self, inst: InstId, f: Fpr) {
        let v = self.func.inst_result(inst).expect("has a result");
        let mem = self.slot(v);
        self.code.push(X86Inst::FStore {
            src: f,
            mem,
            is32: false,
        });
    }

    /// An immediate operand if `v` is a non-address constant that fits
    /// in an i32 immediate.
    fn as_imm(&self, v: ValueId) -> Option<i64> {
        match self.func.value_as_const(v) {
            Some(
                c @ (Constant::Int { .. }
                | Constant::Bool(_)
                | Constant::Null(_)
                | Constant::Undef(_)),
            ) => {
                let bits = canonical_const(self.module, c) as i64;
                i32::try_from(bits).ok().map(i64::from)
            }
            _ => None,
        }
    }

    /// A memory-operand form for `v`, when it is slot-homed.
    fn mem_operand(&self, v: ValueId) -> Option<MemOp> {
        if self.func.value_as_const(v).is_some() {
            return None;
        }
        match self.locs[&v] {
            Loc::Slot(m) => Some(m),
            Loc::Reg(_) => None,
        }
    }

    /// The home register of `v`, when it has one.
    fn reg_home(&self, v: ValueId) -> Option<Gpr> {
        if self.func.value_as_const(v).is_some() {
            return None;
        }
        match self.locs[&v] {
            Loc::Reg(r) => Some(r),
            Loc::Slot(_) => None,
        }
    }

    /// The free width normalization real IA-32 arithmetic provides for
    /// 32-bit operands.
    fn norm_of(&self, ty: TypeId) -> Norm {
        let tt = self.module.types();
        match tt.int_bits(ty) {
            Some(32) => {
                if tt.is_signed_integer(ty) {
                    Norm::Sext32
                } else {
                    Norm::Zext32
                }
            }
            _ => Norm::None,
        }
    }

    /// Normalizes `r` for any width including 32 bits (used by casts,
    /// where there is no arithmetic instruction to fold the width into).
    fn normalize_full(&mut self, r: Gpr, ty: TypeId) {
        let tt = self.module.types();
        if let Some(w) = tt.int_bits(ty) {
            if w < 64 {
                let width = Width::from_bytes(u64::from(w.max(8)) / 8);
                if tt.is_signed_integer(ty) {
                    self.code.push(X86Inst::SignExtend(r, width));
                } else {
                    self.code.push(X86Inst::ZeroExtend(r, width));
                }
            }
        }
    }

    /// Normalizes `r` to the canonical representation of `ty` with an
    /// explicit extend — needed only for 8/16-bit types (32-bit widths
    /// are free via [`Norm`], 64-bit needs nothing).
    fn normalize(&mut self, r: Gpr, ty: TypeId) {
        let tt = self.module.types();
        if let Some(w) = tt.int_bits(ty) {
            if w < 32 {
                let width = Width::from_bytes(u64::from(w.max(8)) / 8);
                if tt.is_signed_integer(ty) {
                    self.code.push(X86Inst::SignExtend(r, width));
                } else {
                    self.code.push(X86Inst::ZeroExtend(r, width));
                }
            }
        }
    }

    fn jump(&mut self, target: BlockId) {
        self.fixups.push((self.code.len(), target));
        self.code.push(X86Inst::Jmp(0));
    }

    fn jcc(&mut self, cond: Cond, target: BlockId) {
        self.fixups.push((self.code.len(), target));
        self.code.push(X86Inst::Jcc(cond, 0));
    }

    fn cond_for(&self, op: Opcode, ty: TypeId) -> Cond {
        let tt = self.module.types();
        let signed = tt.is_signed_integer(ty) || tt.is_float(ty);
        match (op, signed) {
            (Opcode::SetEq, _) => Cond::E,
            (Opcode::SetNe, _) => Cond::Ne,
            (Opcode::SetLt, true) => Cond::L,
            (Opcode::SetLt, false) => Cond::B,
            (Opcode::SetGt, true) => Cond::G,
            (Opcode::SetGt, false) => Cond::A,
            (Opcode::SetLe, true) => Cond::Le,
            (Opcode::SetLe, false) => Cond::Be,
            (Opcode::SetGe, true) => Cond::Ge,
            (Opcode::SetGe, false) => Cond::Ae,
            _ => unreachable!("not a comparison"),
        }
    }

    /// Emits the flag-setting compare for a `set*` instruction.
    fn emit_compare_flags(&mut self, inst_id: InstId) {
        let inst = self.func.inst(inst_id);
        let (a, b) = (inst.operands()[0], inst.operands()[1]);
        let ty = self.vty(a);
        match classify(self.module, ty) {
            ValClass::Int => {
                let ra = self.reg_source(a, EAX);
                if let Some(imm) = self.as_imm(b) {
                    self.code.push(X86Inst::CmpRI(ra, imm));
                } else if let Some(mem) = self.mem_operand(b) {
                    self.code.push(X86Inst::CmpRM(ra, mem));
                } else {
                    let rb = self.reg_source(b, ECX);
                    self.code.push(X86Inst::CmpRR(ra, rb));
                }
            }
            ValClass::F32 | ValClass::F64 => {
                let is32 = classify(self.module, ty) == ValClass::F32;
                self.fload_into(a, F0);
                self.fload_into(b, F1);
                self.code.push(X86Inst::FCmp(F0, F1, is32));
            }
        }
    }

    fn run(&mut self) {
        // prologue
        self.code.push(X86Inst::Push(Gpr::Ebp));
        self.code.push(X86Inst::MovRR(Gpr::Ebp, Gpr::Esp));
        let frame = self.frame_size;
        if frame > 0 {
            self.code
                .push(X86Inst::AluRI(AluOp::Sub, Gpr::Esp, i64::from(frame), Norm::None));
        }
        // save promoted callee-saved registers, then home register args
        let saves: Vec<(Gpr, MemOp)> = self
            .used_saved
            .iter()
            .map(|r| (*r, self.save_slots[r]))
            .collect();
        for (r, mem) in &saves {
            self.code.push(X86Inst::Store {
                src: *r,
                mem: *mem,
                width: Width::B8,
            });
        }
        for (i, &a) in self.func.args().to_vec().iter().enumerate() {
            if let Some(Loc::Reg(home)) = self.locs.get(&a).copied() {
                self.code.push(X86Inst::Load {
                    dst: home,
                    mem: MemOp {
                        base: Gpr::Ebp,
                        disp: 8 + 8 * i as i32,
                    },
                    width: Width::B8,
                    signed: false,
                });
            }
        }
        let order = self.func.block_order().to_vec();
        for (bi, &block) in order.iter().enumerate() {
            self.block_starts.insert(block, self.code.len() as u32);
            let next_block = order.get(bi + 1).copied();
            let insts = self.func.block(block).insts().to_vec();
            for &inst_id in &insts {
                self.emit_inst(block, inst_id, next_block);
            }
        }
        // patch branch targets
        for (idx, block) in std::mem::take(&mut self.fixups) {
            let target = self.block_starts[&block];
            match &mut self.code[idx] {
                X86Inst::Jmp(t) | X86Inst::Jcc(_, t) => *t = target,
                X86Inst::CallFn { unwind, .. } | X86Inst::CallIndirect { unwind, .. } => {
                    *unwind = Some(target);
                }
                other => unreachable!("fixup on non-branch {other:?}"),
            }
        }
    }

    fn finish(self) -> Vec<X86Inst> {
        self.code
    }

    fn emit_epilogue(&mut self) {
        let saves: Vec<(Gpr, MemOp)> = self
            .used_saved
            .iter()
            .map(|r| (*r, self.save_slots[r]))
            .collect();
        for (r, mem) in &saves {
            self.code.push(X86Inst::Load {
                dst: *r,
                mem: *mem,
                width: Width::B8,
                signed: false,
            });
        }
        self.code.push(X86Inst::MovRR(Gpr::Esp, Gpr::Ebp));
        self.code.push(X86Inst::Pop(Gpr::Ebp));
        self.code.push(X86Inst::Ret);
    }

    /// Copies phi incomings of `succ` for the edge `block -> succ` into
    /// the staging slots.
    fn emit_phi_copies(&mut self, block: BlockId, succ: BlockId) {
        let phis: Vec<InstId> = self
            .func
            .block(succ)
            .insts()
            .iter()
            .copied()
            .filter(|&i| self.func.inst(i).opcode() == Opcode::Phi)
            .collect();
        for phi in phis {
            let Some(incoming) = self.func.phi_incoming(phi, block) else {
                continue;
            };
            let stage = self.staging[&phi];
            let r = self.reg_source(incoming, EAX);
            self.code.push(X86Inst::Store {
                src: r,
                mem: stage,
                width: Width::B8,
            });
        }
    }

    fn emit_all_phi_copies(&mut self, block: BlockId) {
        for succ in self.func.successors(block) {
            self.emit_phi_copies(block, succ);
        }
    }

    #[allow(clippy::too_many_lines)]
    fn emit_inst(&mut self, block: BlockId, inst_id: InstId, next_block: Option<BlockId>) {
        let inst = self.func.inst(inst_id).clone();
        let op = inst.opcode();
        let ops = inst.operands().to_vec();
        let blocks = inst.block_operands().to_vec();
        let tt = self.module.types();

        if self.fused.contains(&inst_id) {
            return; // emitted at the branch
        }

        match op {
            _ if op.is_binary() => {
                let ty = inst.result_type();
                match classify(self.module, ty) {
                    ValClass::Int => self.emit_int_binary(inst_id, op, &ops, ty, inst.exceptions_enabled()),
                    class => {
                        let is32 = class == ValClass::F32;
                        let fop = match op {
                            Opcode::Add => llva_machine::x86::FpOp::Add,
                            Opcode::Sub => llva_machine::x86::FpOp::Sub,
                            Opcode::Mul => llva_machine::x86::FpOp::Mul,
                            Opcode::Div | Opcode::Rem => llva_machine::x86::FpOp::Div,
                            _ => panic!("bitwise op on float"),
                        };
                        self.fload_into(ops[0], F0);
                        self.fload_into(ops[1], F1);
                        if op == Opcode::Rem {
                            // x - trunc(x/y)*y
                            self.code.push(X86Inst::FMovRR(Fpr(2), F0));
                            self.code
                                .push(X86Inst::FAlu(llva_machine::x86::FpOp::Div, Fpr(2), F1, is32));
                            self.code.push(X86Inst::CvtFI {
                                dst: EAX,
                                src: Fpr(2),
                                from32: is32,
                                signed: true,
                            });
                            self.code.push(X86Inst::CvtIF {
                                dst: Fpr(2),
                                src: EAX,
                                to32: is32,
                                signed: true,
                            });
                            self.code
                                .push(X86Inst::FAlu(llva_machine::x86::FpOp::Mul, Fpr(2), F1, is32));
                            self.code
                                .push(X86Inst::FAlu(llva_machine::x86::FpOp::Sub, F0, Fpr(2), is32));
                        } else {
                            self.code.push(X86Inst::FAlu(fop, F0, F1, is32));
                        }
                        self.fstore_result(inst_id, F0);
                    }
                }
            }
            _ if op.is_comparison() => {
                self.emit_compare_flags(inst_id);
                let cond = self.cond_for(op, self.vty(ops[0]));
                let dst = self.int_dst(inst_id, EAX);
                self.code.push(X86Inst::MovRI(dst, 0));
                self.code.push(X86Inst::Setcc(cond, dst));
                self.finish_int(inst_id, dst);
            }
            Opcode::Ret => {
                if let Some(&v) = ops.first() {
                    match classify(self.module, self.vty(v)) {
                        ValClass::Int => self.load_into(v, EAX),
                        _ => {
                            self.fload_into(v, F0);
                            self.code.push(X86Inst::MovGF(EAX, F0));
                        }
                    }
                }
                self.emit_epilogue();
            }
            Opcode::Br => {
                self.emit_all_phi_copies(block);
                if ops.is_empty() {
                    if next_block != Some(blocks[0]) {
                        self.jump(blocks[0]);
                    }
                } else {
                    let cond_val = ops[0];
                    let (cond, _) = match inst_defining(self.func, cond_val) {
                        Some(def) if self.fused.contains(&def) => {
                            self.emit_compare_flags(def);
                            let def_inst = self.func.inst(def);
                            (
                                self.cond_for(def_inst.opcode(), self.vty(def_inst.operands()[0])),
                                (),
                            )
                        }
                        _ => {
                            let r = self.reg_source(cond_val, EAX);
                            self.code.push(X86Inst::CmpRI(r, 0));
                            (Cond::Ne, ())
                        }
                    };
                    self.jcc(cond, blocks[0]);
                    if next_block != Some(blocks[1]) {
                        self.jump(blocks[1]);
                    }
                }
            }
            Opcode::Mbr => {
                self.emit_all_phi_copies(block);
                let r = self.reg_source(ops[0], EAX);
                for (i, &case) in ops[1..].iter().enumerate() {
                    let imm = self.as_imm(case).expect("mbr cases are constants");
                    self.code.push(X86Inst::CmpRI(r, imm));
                    self.jcc(Cond::E, blocks[1 + i]);
                }
                if next_block != Some(blocks[0]) {
                    self.jump(blocks[0]);
                }
            }
            Opcode::Call | Opcode::Invoke => {
                self.emit_call(block, inst_id, op, &ops, &blocks, next_block);
            }
            Opcode::Unwind => {
                self.code.push(X86Inst::Unwind);
            }
            Opcode::Load => {
                let pointee = tt.pointee(self.vty(ops[0])).expect("load from pointer");
                let (width, signed) = access_of(self.module, pointee);
                let rp = self.reg_source(ops[0], EAX);
                match classify(self.module, pointee) {
                    ValClass::Int => {
                        let result = self.func.inst_result(inst_id).expect("has a result");
                        // load straight into the home register if any
                        let dst = self.reg_home(result).unwrap_or(ECX);
                        self.code.push(X86Inst::Load {
                            dst,
                            mem: MemOp { base: rp, disp: 0 },
                            width,
                            signed,
                        });
                        self.finish_int(inst_id, dst);
                    }
                    class => {
                        self.code.push(X86Inst::FLoad {
                            dst: F0,
                            mem: MemOp { base: rp, disp: 0 },
                            is32: class == ValClass::F32,
                        });
                        self.fstore_result(inst_id, F0);
                    }
                }
            }
            Opcode::Store => {
                let pointee = tt.pointee(self.vty(ops[1])).expect("store to pointer");
                let (width, _) = access_of(self.module, pointee);
                let rv = self.reg_source(ops[0], EAX);
                let rp = self.reg_source(ops[1], ECX);
                self.code.push(X86Inst::Store {
                    src: rv,
                    mem: MemOp { base: rp, disp: 0 },
                    width,
                });
            }
            Opcode::GetElementPtr => self.emit_gep(inst_id, &ops),
            Opcode::Alloca => {
                let dst = self.int_dst(inst_id, EAX);
                if ops.is_empty() {
                    let disp = self.alloca_home[&inst_id];
                    self.code.push(X86Inst::Lea(
                        dst,
                        MemOp {
                            base: Gpr::Ebp,
                            disp,
                        },
                    ));
                } else {
                    // dynamic: esp -= size * count (8-byte aligned)
                    let pointee = tt.pointee(inst.result_type()).expect("alloca pointer");
                    let size = self.module.target().size_of(tt, pointee).max(1);
                    let size = (size + 7) & !7;
                    self.load_into(ops[0], ECX);
                    self.code.push(X86Inst::MovRI(EDX, size as i64));
                    self.code.push(X86Inst::IMulRR(ECX, EDX, Norm::None));
                    self.code.push(X86Inst::AluRR(AluOp::Sub, Gpr::Esp, ECX, Norm::None));
                    self.code.push(X86Inst::MovRR(dst, Gpr::Esp));
                }
                self.finish_int(inst_id, dst);
            }
            Opcode::Cast => self.emit_cast(inst_id, ops[0], inst.result_type()),
            Opcode::Phi => {
                let stage = self.staging[&inst_id];
                let result = self.func.inst_result(inst_id).expect("has a result");
                let dst = self.reg_home(result).unwrap_or(EAX);
                self.code.push(X86Inst::Load {
                    dst,
                    mem: stage,
                    width: Width::B8,
                    signed: false,
                });
                self.finish_int(inst_id, dst);
            }
            _ => unreachable!("all opcodes covered"),
        }
    }

    fn emit_int_binary(
        &mut self,
        inst_id: InstId,
        op: Opcode,
        ops: &[ValueId],
        ty: TypeId,
        exceptions: bool,
    ) {
        let tt = self.module.types();
        let signed = tt.is_signed_integer(ty);
        match op {
            Opcode::Div | Opcode::Rem => {
                self.load_into(ops[0], EAX);
                if signed {
                    self.code.push(X86Inst::Cdq);
                } else {
                    self.code.push(X86Inst::MovRI(EDX, 0));
                }
                // the divisor must survive EDX:EAX setup; homes do,
                // otherwise stage through ECX
                let divisor = self.reg_source(ops[1], ECX);
                self.code.push(X86Inst::Div {
                    signed,
                    divisor,
                    trapping: exceptions,
                    norm: self.norm_of(ty),
                });
                let out = if op == Opcode::Div { EAX } else { EDX };
                self.normalize(out, ty);
                self.finish_int(inst_id, out);
            }
            Opcode::Mul => {
                let norm = self.norm_of(ty);
                let dst = self.int_dst(inst_id, EAX);
                self.load_into(ops[0], dst);
                if let Some(home) = self.reg_home(ops[1]) {
                    self.code.push(X86Inst::IMulRR(dst, home, norm));
                } else if let Some(mem) = self.mem_operand(ops[1]) {
                    self.code.push(X86Inst::IMulRM(dst, mem, norm));
                } else {
                    self.load_into(ops[1], ECX);
                    self.code.push(X86Inst::IMulRR(dst, ECX, norm));
                }
                self.normalize(dst, ty);
                self.finish_int(inst_id, dst);
            }
            Opcode::Shl | Opcode::Shr => {
                let alu = match (op, signed) {
                    (Opcode::Shl, _) => AluOp::Shl,
                    (Opcode::Shr, true) => AluOp::Sar,
                    (Opcode::Shr, false) => AluOp::Shr,
                    _ => unreachable!(),
                };
                let norm = if op == Opcode::Shl {
                    self.norm_of(ty)
                } else {
                    Norm::None
                };
                let dst = self.int_dst(inst_id, EAX);
                self.load_into(ops[0], dst);
                if let Some(imm) = self.as_imm(ops[1]) {
                    self.code.push(X86Inst::AluRI(alu, dst, imm, norm));
                } else {
                    let rb = self.reg_source(ops[1], ECX);
                    self.code.push(X86Inst::AluRR(alu, dst, rb, norm));
                }
                if op == Opcode::Shl {
                    self.normalize(dst, ty);
                }
                self.finish_int(inst_id, dst);
            }
            _ => {
                let alu = match op {
                    Opcode::Add => AluOp::Add,
                    Opcode::Sub => AluOp::Sub,
                    Opcode::And => AluOp::And,
                    Opcode::Or => AluOp::Or,
                    Opcode::Xor => AluOp::Xor,
                    _ => unreachable!(),
                };
                let norm = if matches!(op, Opcode::Add | Opcode::Sub) {
                    self.norm_of(ty)
                } else {
                    Norm::None
                };
                let dst = self.int_dst(inst_id, EAX);
                self.load_into(ops[0], dst);
                if let Some(imm) = self.as_imm(ops[1]) {
                    self.code.push(X86Inst::AluRI(alu, dst, imm, norm));
                } else if let Some(home) = self.reg_home(ops[1]) {
                    self.code.push(X86Inst::AluRR(alu, dst, home, norm));
                } else if let Some(mem) = self.mem_operand(ops[1]) {
                    self.code.push(X86Inst::AluRM(alu, dst, mem, norm));
                } else {
                    self.load_into(ops[1], ECX);
                    self.code.push(X86Inst::AluRR(alu, dst, ECX, norm));
                }
                if matches!(op, Opcode::Add | Opcode::Sub) {
                    self.normalize(dst, ty);
                }
                self.finish_int(inst_id, dst);
            }
        }
    }

    fn emit_call(
        &mut self,
        block: BlockId,
        inst_id: InstId,
        op: Opcode,
        ops: &[ValueId],
        blocks: &[BlockId],
        next_block: Option<BlockId>,
    ) {
        let args = &ops[1..];
        // push right-to-left
        for &a in args.iter().rev() {
            let r = self.reg_source(a, EAX);
            self.code.push(X86Inst::Push(r));
        }
        let cleanup = 8 * args.len() as i64;
        let is_invoke = op == Opcode::Invoke;
        // the call itself
        let call_idx = self.code.len();
        if let Some(intr) = intrinsic_target(self.module, self.func, ops[0]) {
            self.code.push(X86Inst::CallIntrinsic {
                which: intr,
                nargs: args.len() as u8,
            });
        } else if let Some(Constant::FunctionAddr { func, .. }) = self.func.value_as_const(ops[0])
        {
            self.code.push(X86Inst::CallFn {
                func: func.index() as u32,
                unwind: None,
            });
        } else {
            let target = self.reg_source(ops[0], ECX);
            self.code.push(X86Inst::CallIndirect {
                target,
                unwind: None,
            });
        }
        // normal path: cleanup, store result
        if cleanup > 0 {
            self.code
                .push(X86Inst::AluRI(AluOp::Add, Gpr::Esp, cleanup, Norm::None));
        }
        if let Some(_result) = self.func.inst_result(inst_id) {
            match classify(self.module, self.func.inst(inst_id).result_type()) {
                ValClass::Int => self.finish_int(inst_id, EAX),
                _ => self.fstore_result(inst_id, F0),
            }
        }
        if is_invoke {
            // normal edge
            self.emit_phi_copies(block, blocks[0]);
            self.jump(blocks[0]);
            // unwind pad: cleanup then jump to the unwind block (the
            // machine restored the caller's registers and SP at the
            // call site, so the pushed args are still to pop)
            let pad_start = self.code.len() as u32;
            if cleanup > 0 {
                self.code
                    .push(X86Inst::AluRI(AluOp::Add, Gpr::Esp, cleanup, Norm::None));
            }
            self.emit_phi_copies(block, blocks[1]);
            self.jump(blocks[1]);
            // point the call's unwind at the pad
            match &mut self.code[call_idx] {
                X86Inst::CallFn { unwind, .. } | X86Inst::CallIndirect { unwind, .. } => {
                    *unwind = Some(pad_start);
                }
                X86Inst::CallIntrinsic { .. } => {
                    // intrinsics do not unwind
                }
                other => unreachable!("call fixup on {other:?}"),
            }
            let _ = next_block;
        }
    }

    fn emit_gep(&mut self, inst_id: InstId, ops: &[ValueId]) {
        let tt = self.module.types();
        let cfg = self.module.target();
        let dst = self.int_dst(inst_id, EAX);
        self.load_into(ops[0], dst);
        let mut cur = tt.pointee(self.vty(ops[0])).expect("gep base pointer");
        let mut static_off: i64 = 0;
        for (i, &idx) in ops[1..].iter().enumerate() {
            let elem_size = if i == 0 {
                cfg.size_of(tt, cur)
            } else {
                match tt.kind(cur).clone() {
                    TypeKind::Array { elem, .. } => {
                        let s = cfg.size_of(tt, elem);
                        cur = elem;
                        s
                    }
                    TypeKind::LiteralStruct(_) | TypeKind::Struct(_) => {
                        let field = self
                            .func
                            .value_as_const(idx)
                            .and_then(Constant::as_int_bits)
                            .expect("struct index constant")
                            as usize;
                        static_off += cfg.field_offset(tt, cur, field) as i64;
                        cur = tt.struct_fields(cur).expect("defined struct")[field];
                        continue;
                    }
                    other => panic!("gep into non-aggregate {other:?}"),
                }
            };
            if let Some(k) = self
                .func
                .value_as_const(idx)
                .map(|c| canonical_const(self.module, c) as i64)
            {
                static_off += k * elem_size as i64;
            } else {
                // the index is scaled in place — always a fresh copy
                self.load_into(idx, ECX);
                if elem_size.is_power_of_two() {
                    self.code.push(X86Inst::AluRI(
                        AluOp::Shl,
                        ECX,
                        i64::from(elem_size.trailing_zeros()),
                        Norm::None,
                    ));
                } else {
                    self.code.push(X86Inst::MovRI(EDX, elem_size as i64));
                    self.code.push(X86Inst::IMulRR(ECX, EDX, Norm::None));
                }
                self.code.push(X86Inst::AluRR(AluOp::Add, dst, ECX, Norm::None));
            }
        }
        if static_off != 0 {
            self.code.push(X86Inst::Lea(
                dst,
                MemOp {
                    base: dst,
                    disp: static_off as i32,
                },
            ));
        }
        self.finish_int(inst_id, dst);
    }

    fn emit_cast(&mut self, inst_id: InstId, src: ValueId, to: TypeId) {
        let tt = self.module.types();
        let from = self.vty(src);
        let from_class = classify(self.module, from);
        let to_class = classify(self.module, to);
        match (from_class, to_class) {
            (ValClass::Int, ValClass::Int) => {
                let dst = self.int_dst(inst_id, EAX);
                self.load_into(src, dst);
                if matches!(tt.kind(to), TypeKind::Bool) {
                    self.code.push(X86Inst::CmpRI(dst, 0));
                    self.code.push(X86Inst::MovRI(dst, 0));
                    self.code.push(X86Inst::Setcc(Cond::Ne, dst));
                } else {
                    self.normalize_full(dst, to);
                }
                self.finish_int(inst_id, dst);
            }
            (ValClass::Int, fc) => {
                let r = self.reg_source(src, EAX);
                self.code.push(X86Inst::CvtIF {
                    dst: F0,
                    src: r,
                    to32: fc == ValClass::F32,
                    signed: tt.is_signed_integer(from) || matches!(tt.kind(from), TypeKind::Bool),
                });
                self.fstore_result(inst_id, F0);
            }
            (fc, ValClass::Int) => {
                let dst = self.int_dst(inst_id, EAX);
                self.fload_into(src, F0);
                if matches!(tt.kind(to), TypeKind::Bool) {
                    self.code.push(X86Inst::MovRI(EAX, 0));
                    self.code.push(X86Inst::MovFG(F1, EAX));
                    self.code.push(X86Inst::FCmp(F0, F1, fc == ValClass::F32));
                    self.code.push(X86Inst::MovRI(dst, 0));
                    self.code.push(X86Inst::Setcc(Cond::Ne, dst));
                } else {
                    self.code.push(X86Inst::CvtFI {
                        dst,
                        src: F0,
                        from32: fc == ValClass::F32,
                        signed: tt.is_signed_integer(to),
                    });
                    self.normalize_full(dst, to);
                }
                self.finish_int(inst_id, dst);
            }
            (fa, fb) => {
                self.fload_into(src, F0);
                if fa != fb {
                    self.code.push(X86Inst::CvtFF {
                        dst: F0,
                        src: F0,
                        to32: fb == ValClass::F32,
                    });
                }
                self.fstore_result(inst_id, F0);
            }
        }
    }
}

/// Counts the frame-traffic (spill) instructions in a compiled stream:
/// loads and stores whose address is `ebp`-relative. This is the
/// "spill code" metric perf-smoke reports for Table 2 deltas.
pub fn spill_count(code: &[X86Inst]) -> usize {
    code.iter()
        .filter(|i| match i {
            X86Inst::Load { mem, .. }
            | X86Inst::Store { mem, .. }
            | X86Inst::FLoad { mem, .. }
            | X86Inst::FStore { mem, .. }
            | X86Inst::AluRM(_, _, mem, _)
            | X86Inst::IMulRM(_, mem, _)
            | X86Inst::CmpRM(_, mem) => mem.base == Gpr::Ebp,
            _ => false,
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use llva_machine::common::Exit;
    use llva_machine::memory::Memory;
    use llva_machine::x86::{X86Machine, X86Program};

    fn run_main(src: &str, args: &[u64]) -> Exit {
        run_main_with(src, args, compile_x86)
    }

    fn run_main_with(
        src: &str,
        args: &[u64],
        compile: fn(&Module, FuncId) -> Vec<X86Inst>,
    ) -> Exit {
        let m = llva_core::parser::parse_module(src).expect("parses");
        llva_core::verifier::verify_module(&m).expect("verifies");
        let image = crate::common::layout_globals(&m);
        let mut program = X86Program::new(m.num_functions(), image.addrs.clone());
        for (fid, f) in m.functions() {
            if !f.is_declaration() {
                program.install(fid.index() as u32, compile(&m, fid));
            }
        }
        let mut mem = Memory::new(1 << 22, image.heap_base, m.target().endianness);
        mem.write_bytes(llva_machine::memory::GLOBAL_BASE, &image.image)
            .expect("image fits");
        let mut machine = X86Machine::new(mem);
        let main = m.function_by_name("main").expect("main");
        machine.call_entry(main.index() as u32, args).expect("entry");
        machine.run(&program, 100_000_000)
    }

    #[test]
    fn arithmetic_pipeline() {
        let exit = run_main(
            r#"
int %main(int %x) {
entry:
    %a = add int %x, 10
    %b = mul int %a, 3
    %c = sub int %b, 6
    %d = div int %c, 2
    ret int %d
}
"#,
            &[4],
        );
        assert_eq!(exit, Exit::Halt(18)); // ((4+10)*3-6)/2
    }

    #[test]
    fn fib_recursive() {
        let exit = run_main(
            r#"
int %fib(int %n) {
entry:
    %c = setlt int %n, 2
    br bool %c, label %base, label %rec
base:
    ret int %n
rec:
    %n1 = sub int %n, 1
    %a = call int %fib(int %n1)
    %n2 = sub int %n, 2
    %b = call int %fib(int %n2)
    %s = add int %a, %b
    ret int %s
}

int %main() {
entry:
    %r = call int %fib(int 10)
    ret int %r
}
"#,
            &[],
        );
        assert_eq!(exit, Exit::Halt(55));
    }

    #[test]
    fn loops_and_phis() {
        let exit = run_main(
            r#"
int %main(int %n) {
entry:
    br label %header
header:
    %i = phi int [ 0, %entry ], [ %i2, %body ]
    %s = phi int [ 0, %entry ], [ %s2, %body ]
    %c = setlt int %i, %n
    br bool %c, label %body, label %exit
body:
    %s2 = add int %s, %i
    %i2 = add int %i, 1
    br label %header
exit:
    ret int %s
}
"#,
            &[10],
        );
        assert_eq!(exit, Exit::Halt(45));
    }

    #[test]
    fn memory_and_gep() {
        let exit = run_main(
            r#"
%Pair = type { int, long }

long %main() {
entry:
    %p = alloca %Pair
    %f0 = getelementptr %Pair* %p, long 0, ubyte 0
    %f1 = getelementptr %Pair* %p, long 0, ubyte 1
    store int 7, int* %f0
    store long 35, long* %f1
    %a = load int* %f0
    %b = load long* %f1
    %aw = cast int %a to long
    %s = add long %aw, %b
    ret long %s
}
"#,
            &[],
        );
        assert_eq!(exit, Exit::Halt(42));
    }

    #[test]
    fn globals_resolve() {
        let exit = run_main(
            r#"
@counter = global int 5

int %main() {
entry:
    %v = load int* @counter
    %v2 = add int %v, 1
    store int %v2, int* @counter
    %v3 = load int* @counter
    ret int %v3
}
"#,
            &[],
        );
        assert_eq!(exit, Exit::Halt(6));
    }

    #[test]
    fn narrow_arithmetic_wraps() {
        let exit = run_main(
            r#"
int %main() {
entry:
    %a = cast int 250 to ubyte
    %b = cast int 10 to ubyte
    %c = add ubyte %a, %b
    %r = cast ubyte %c to int
    ret int %r
}
"#,
            &[],
        );
        assert_eq!(exit, Exit::Halt(4)); // 260 wraps to 4
    }

    #[test]
    fn float_math() {
        let exit = run_main(
            r#"
int %main() {
entry:
    %a = cast int 7 to double
    %b = cast int 2 to double
    %q = div double %a, %b
    %t = mul double %q, %b
    %r = cast double %t to int
    ret int %r
}
"#,
            &[],
        );
        assert_eq!(exit, Exit::Halt(7));
    }

    #[test]
    fn mbr_dispatch() {
        for (x, expect) in [(0, 10), (1, 11), (7, 12)] {
            let exit = run_main(
                r#"
int %main(int %x) {
entry:
    mbr int %x, label %other, [ int 0, label %zero ], [ int 1, label %one ]
zero:
    ret int 10
one:
    ret int 11
other:
    ret int 12
}
"#,
                &[x],
            );
            assert_eq!(exit, Exit::Halt(expect));
        }
    }

    #[test]
    fn invoke_unwind_flow() {
        let exit = run_main(
            r#"
void %thrower(int %x) {
entry:
    %c = setgt int %x, 5
    br bool %c, label %throw, label %ok
throw:
    unwind
ok:
    ret void
}

int %main(int %x) {
entry:
    invoke void %thrower(int %x) to label %fine unwind label %caught
fine:
    ret int 0
caught:
    ret int 1
}
"#,
            &[9],
        );
        assert_eq!(exit, Exit::Halt(1));
    }

    #[test]
    fn register_homed_value_survives_unwind() {
        // %acc is hot (register-homed by linear scan) and live across
        // the invoke; the callee clobbers every callee-saved register
        // through its own allocation before unwinding. The machine's
        // call-site register snapshot must bring %acc back at the pad.
        let exit = run_main(
            r#"
int %burn(int %n) {
entry:
    %a = mul int %n, 3
    %b = add int %a, %n
    %c = mul int %b, %a
    %d = add int %c, %b
    %e = mul int %d, %c
    %t = setgt int %e, -1
    br bool %t, label %throw, label %throw
throw:
    unwind
}

int %main(int %x) {
entry:
    %acc1 = add int %x, 100
    %acc2 = mul int %acc1, 3
    %acc3 = add int %acc2, %acc1
    invoke int %burn(int %x) to label %fine unwind label %caught
fine:
    ret int 0
caught:
    %r = add int %acc3, %acc1
    ret int %r
}
"#,
            &[1],
        );
        // acc1 = 101, acc2 = 303, acc3 = 404, r = 505
        assert_eq!(exit, Exit::Halt(505));
    }

    #[test]
    fn indirect_call() {
        let exit = run_main(
            r#"
int %double(int %x) {
entry:
    %r = add int %x, %x
    ret int %r
}

int %apply(int (int)* %f, int %v) {
entry:
    %r = call int %f(int %v)
    ret int %r
}

int %main() {
entry:
    %r = call int %apply(int (int)* %double, int 21)
    ret int %r
}
"#,
            &[],
        );
        assert_eq!(exit, Exit::Halt(42));
    }

    #[test]
    fn division_traps_when_enabled() {
        let exit = run_main(
            r#"
int %main(int %x) {
entry:
    %q = div int 10, %x
    ret int %q
}
"#,
            &[0],
        );
        match exit {
            Exit::Trapped(t) => assert_eq!(t.kind, llva_machine::TrapKind::DivideByZero),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn naive_translator_agrees_with_allocating_one() {
        let src = r#"
int %work(int %n) {
entry:
    br label %header
header:
    %i = phi int [ 0, %entry ], [ %i2, %body ]
    %s = phi int [ 0, %entry ], [ %s2, %body ]
    %c = setlt int %i, %n
    br bool %c, label %body, label %exit
body:
    %t = mul int %i, 3
    %u = add int %t, %s
    %s2 = rem int %u, 1000
    %i2 = add int %i, 1
    br label %header
exit:
    ret int %s
}

int %main(int %n) {
entry:
    %r = call int %work(int %n)
    ret int %r
}
"#;
        let fast = run_main_with(src, &[25], compile_x86);
        let naive = run_main_with(src, &[25], compile_x86_naive);
        assert_eq!(fast, naive);
    }

    #[test]
    fn linear_scan_reduces_spill_traffic() {
        let m = llva_core::parser::parse_module(
            r#"
int %work(int %n) {
entry:
    br label %header
header:
    %i = phi int [ 0, %entry ], [ %i2, %body ]
    %s = phi int [ 0, %entry ], [ %s2, %body ]
    %c = setlt int %i, %n
    br bool %c, label %body, label %exit
body:
    %t = mul int %i, 3
    %u = add int %t, %s
    %s2 = rem int %u, 1000
    %i2 = add int %i, 1
    br label %header
exit:
    ret int %s
}
"#,
        )
        .expect("parses");
        let f = m.function_by_name("work").expect("work");
        let naive = spill_count(&compile_x86_naive(&m, f));
        let allocated = spill_count(&compile_x86(&m, f));
        assert!(
            allocated < naive,
            "expected spill reduction, got {allocated} vs naive {naive}"
        );
    }

    /// The exhaustive frame-layout audit: one home per value, no slot
    /// for register-homed values or fused compares, disjoint slots,
    /// and a frame exactly accounting for every slot it hands out.
    /// (The old allocator double-counted: every instruction result got
    /// a frame slot even when it was never materialized.)
    #[test]
    fn frame_layout_is_exact() {
        let src = r#"
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
        let m = llva_core::parser::parse_module(src).expect("parses");
        let fid = m.function_by_name("f").expect("f");
        let func = m.function(fid);
        let cg = CodeGen::new(&m, func, false);

        let fused = fused_compares(func);
        let mut slot_disps: Vec<i32> = Vec::new();
        let mut reg_homes = 0usize;
        for (_, inst_id) in func.inst_iter() {
            let Some(r) = func.inst_result(inst_id) else {
                continue;
            };
            if fused.contains(&inst_id) {
                // fused compares are never materialized: no home at all
                assert!(
                    !cg.locs.contains_key(&r),
                    "fused compare {r:?} was given a home"
                );
                continue;
            }
            match cg.locs[&r] {
                Loc::Reg(g) => {
                    assert!(ALLOCATABLE.contains(&g), "{r:?} homed in scratch {g:?}");
                    reg_homes += 1;
                }
                Loc::Slot(m) => {
                    assert_eq!(m.base, Gpr::Ebp);
                    assert!(m.disp < 0, "value slot above the frame: {}", m.disp);
                    slot_disps.push(m.disp);
                }
            }
        }
        // args promoted to registers; the rest stay in caller slots
        for (i, &a) in func.args().iter().enumerate() {
            match cg.locs[&a] {
                Loc::Reg(_) => reg_homes += 1,
                Loc::Slot(m) => assert_eq!(m.disp, 8 + 8 * i as i32),
            }
        }
        assert_eq!(
            reg_homes,
            ALLOCATABLE.len(),
            "linear scan left registers idle on a register-hungry function"
        );
        // save slots, staging slots and value slots must be disjoint
        slot_disps.extend(cg.save_slots.values().map(|m| m.disp));
        slot_disps.extend(cg.staging.values().map(|m| m.disp));
        slot_disps.extend(cg.alloca_home.values().copied());
        let unique: std::collections::HashSet<i32> = slot_disps.iter().copied().collect();
        assert_eq!(unique.len(), slot_disps.len(), "overlapping frame slots");
        // every negative slot lies inside the frame, and the frame is
        // exactly the 8-byte slots plus the alloca area — no
        // double-counted slack
        for d in &slot_disps {
            assert!(*d >= -cg.frame_size, "slot {d} outside frame {}", cg.frame_size);
        }
        let alloca_bytes: i32 = 8; // one `long` alloca
        assert_eq!(
            cg.frame_size,
            (slot_disps.len() as i32 - 1) * 8 + alloca_bytes,
            "frame size does not match allocated slots"
        );
    }

    #[test]
    fn expansion_ratio_in_paper_range() {
        // The paper reports 2.2–3.3 x86 instructions per LLVA
        // instruction across its benchmarks — measured on the naive
        // translator, which is the paper-faithful one.
        let m = llva_core::parser::parse_module(
            r#"
int %work(int %n) {
entry:
    br label %header
header:
    %i = phi int [ 0, %entry ], [ %i2, %body ]
    %s = phi int [ 0, %entry ], [ %s2, %body ]
    %c = setlt int %i, %n
    br bool %c, label %body, label %exit
body:
    %t = mul int %i, 3
    %u = add int %t, %s
    %s2 = rem int %u, 1000
    %i2 = add int %i, 1
    br label %header
exit:
    ret int %s
}
"#,
        )
        .expect("parses");
        let f = m.function_by_name("work").expect("work");
        let code = compile_x86_naive(&m, f);
        let llva_count = m.function(f).num_insts();
        let ratio = code.len() as f64 / llva_count as f64;
        assert!(
            (1.5..=4.5).contains(&ratio),
            "x86 expansion ratio {ratio:.2} out of range ({} -> {})",
            llva_count,
            code.len()
        );
    }
}
