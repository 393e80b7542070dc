//! The RV64 code generator — the third LLEE target.
//!
//! Same use-count register assignment discipline as the SPARC back end
//! (hot SSA values live in the 12 callee-saved registers
//! `s1`/`s2`–`s11`), but shaped by the RISC-V model: **no condition
//! codes**. Comparisons that feed a branch fuse directly into
//! compare-and-branch instructions (`beq`/`blt`/…); comparisons whose
//! boolean is consumed as a value materialize it with
//! `slt`/`sltu`/`xor`+`sltiu` sequences, and float comparisons write
//! 0/1 through `feq`/`flt`/`fle`. Constants beyond 12 bits need
//! `lui`/`addi` pairs (one bit tighter than SPARC's 13-bit fields), and
//! loads/stores carry immediate-only offsets, so wide frame offsets
//! route through an address add.
//!
//! Frame discipline mirrors the SPARC back end: `s0`/`fp` holds the
//! caller's stack pointer; spill slots, phi staging slots, preallocated
//! `alloca`s and the saved registers live at negative `fp` offsets;
//! outgoing argument overflow lives at `[sp + 8j]`; incoming overflow
//! at `[fp + 8*(i-8)]` (eight register arguments `a0`–`a7`).

use crate::common::{
    access_of, canonical_const, classify, fused_compares, inst_defining, intrinsic_target,
    peephole, use_counts, PeepholeConfig, ValClass,
};
use llva_core::function::{BlockId, Function};
use llva_core::instruction::{InstId, Opcode};
use llva_core::module::{FuncId, Module};
use llva_core::types::{TypeId, TypeKind};
use llva_core::value::{Constant, ValueId};
use llva_machine::common::Sym;
use llva_machine::riscv::{
    fits_imm12, AluOp, BrCond, FReg, FSetOp, Reg, RegOrImm, RiscvInst, A0, FP, SP, T0, T1, T2, X0,
};
use std::collections::{HashMap, HashSet};

/// Address-materialization scratch `x28`/`t3`.
const T3: Reg = Reg(28);
/// Constant-materialization scratch `x29`/`t4` (internal to `mat_const`).
const T4: Reg = Reg(29);

/// Compiles one function to RV64 code. The module must verify.
pub fn compile_riscv(module: &Module, fid: FuncId) -> Vec<RiscvInst> {
    compile_riscv_with(module, fid, &PeepholeConfig::from_env())
}

/// [`compile_riscv`] with an explicit peephole configuration (used by
/// the conformance oracle's off-vs-on stages and perf-smoke deltas).
pub fn compile_riscv_with(
    module: &Module,
    fid: FuncId,
    peep: &PeepholeConfig,
) -> Vec<RiscvInst> {
    let func = module.function(fid);
    assert!(!func.is_declaration(), "cannot compile a declaration");
    let mut cg = CodeGen::new(module, func);
    cg.run();
    peephole::run_riscv(cg.finish(), peep)
}

/// Allocatable callee-saved registers: `s1` (`x9`), `s2`–`s11`
/// (`x18`–`x27`). `s0` is the frame pointer.
const ALLOCATABLE: [Reg; 11] = [
    Reg(9),
    Reg(18),
    Reg(19),
    Reg(20),
    Reg(21),
    Reg(22),
    Reg(23),
    Reg(24),
    Reg(25),
    Reg(26),
    Reg(27),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Reg(Reg),
    Slot(i32), // negative offset from fp
}

struct CodeGen<'a> {
    module: &'a Module,
    func: &'a Function,
    code: Vec<RiscvInst>,
    locs: HashMap<ValueId, Loc>,
    staging: HashMap<InstId, i32>,
    alloca_home: HashMap<InstId, i32>,
    save_slots: HashMap<Reg, i32>,
    frame_size: i32,
    used_saved: Vec<Reg>,
    fused: HashSet<InstId>,
    block_starts: HashMap<BlockId, u32>,
    fixups: Vec<(usize, BlockId)>,
    bool_ty: TypeId,
    out_area: i32,
}

impl<'a> CodeGen<'a> {
    fn new(module: &'a Module, func: &'a Function) -> CodeGen<'a> {
        let bool_ty = module.types().bool_or_sentinel();
        let mut cg = CodeGen {
            module,
            func,
            code: Vec::new(),
            locs: HashMap::new(),
            staging: HashMap::new(),
            alloca_home: HashMap::new(),
            save_slots: HashMap::new(),
            // fp-8 = saved old fp; saved regs and slots grow below
            frame_size: 8,
            used_saved: Vec::new(),
            fused: fused_compares(func),
            block_starts: HashMap::new(),
            fixups: Vec::new(),
            bool_ty,
            out_area: 0,
        };
        cg.assign_locations();
        cg
    }

    fn new_slot(&mut self) -> i32 {
        self.frame_size += 8;
        -self.frame_size
    }

    fn assign_locations(&mut self) {
        let counts = use_counts(self.func);
        // candidates: int-class args + int-class instruction results
        let mut candidates: Vec<(usize, ValueId)> = Vec::new();
        for &a in self.func.args() {
            if classify(self.module, self.func.value_type(a, self.bool_ty)) == ValClass::Int {
                candidates.push((counts.get(&a).copied().unwrap_or(0) + 1, a));
            }
        }
        for (_, inst_id) in self.func.inst_iter() {
            if let Some(r) = self.func.inst_result(inst_id) {
                if classify(self.module, self.func.value_type(r, self.bool_ty)) == ValClass::Int {
                    candidates.push((counts.get(&r).copied().unwrap_or(0), r));
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
        // everything else gets a slot
        for a in self.func.args().to_vec() {
            if !self.locs.contains_key(&a) {
                let s = self.new_slot();
                self.locs.insert(a, Loc::Slot(s));
            }
        }
        for (_, inst_id) in self.func.inst_iter().collect::<Vec<_>>() {
            if let Some(r) = self.func.inst_result(inst_id) {
                if !self.locs.contains_key(&r) {
                    let s = self.new_slot();
                    self.locs.insert(r, Loc::Slot(s));
                }
            }
            let inst = self.func.inst(inst_id);
            if inst.opcode() == Opcode::Phi {
                let s = self.new_slot();
                self.staging.insert(inst_id, s);
            }
            if inst.opcode() == Opcode::Alloca && inst.operands().is_empty() {
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
            if matches!(inst.opcode(), Opcode::Call | Opcode::Invoke) {
                let extra = inst.operands().len().saturating_sub(1).saturating_sub(8) as i32;
                self.out_area = self.out_area.max(extra * 8);
            }
        }
    }

    fn finish(self) -> Vec<RiscvInst> {
        self.code
    }

    fn vty(&self, v: ValueId) -> TypeId {
        self.func.value_type(v, self.bool_ty)
    }

    fn emit(&mut self, inst: RiscvInst) {
        self.code.push(inst);
    }

    fn mov(&mut self, dst: Reg, src: Reg) {
        if dst != src {
            self.emit(RiscvInst::Alu {
                op: AluOp::Add,
                rs1: src,
                rhs: RegOrImm::Imm(0),
                rd: dst,
                trapping: false,
            });
        }
    }

    /// Materializes the low 32 bits of `w` into `dst` (`lui`+`addi`;
    /// the upper 32 bits of the register may hold sign-extension
    /// garbage — callers mask or shift it away).
    fn mat_low32(&mut self, w: u32, dst: Reg) {
        let sv = w as i32 as i64;
        if fits_imm12(sv) {
            self.emit(RiscvInst::Alu {
                op: AluOp::Add,
                rs1: X0,
                rhs: RegOrImm::Imm(sv as i16),
                rd: dst,
                trapping: false,
            });
            return;
        }
        let hi20 = (w.wrapping_add(0x800) >> 12) & 0xF_FFFF;
        let lo12 = ((w & 0xFFF) as i32) << 20 >> 20; // sign-extend 12 bits
        self.emit(RiscvInst::Lui { imm20: hi20, rd: dst });
        if lo12 != 0 {
            self.emit(RiscvInst::Alu {
                op: AluOp::Add,
                rs1: dst,
                rhs: RegOrImm::Imm(lo12 as i16),
                rd: dst,
                trapping: false,
            });
        }
    }

    /// Materializes an integer constant into `dst` (clobbers `t4` for
    /// full 64-bit constants).
    fn mat_const(&mut self, bits: u64, dst: Reg) {
        let v = bits as i64;
        if v == 0 {
            self.mov(dst, X0);
            return;
        }
        if fits_imm12(v) {
            self.emit(RiscvInst::Alu {
                op: AluOp::Add,
                rs1: X0,
                rhs: RegOrImm::Imm(v as i16),
                rd: dst,
                trapping: false,
            });
            return;
        }
        if v == (v as i32) as i64 {
            // standard li expansion; the +0x800 rounding keeps lo12 in
            // range except at the very top of the i32 range, which
            // falls through to the general path
            let hi20 = (((v + 0x800) >> 12) & 0xF_FFFF) as u32;
            let base = i64::from((hi20 << 12) as i32);
            let lo = v - base;
            if fits_imm12(lo) {
                self.emit(RiscvInst::Lui { imm20: hi20, rd: dst });
                if lo != 0 {
                    self.emit(RiscvInst::Alu {
                        op: AluOp::Add,
                        rs1: dst,
                        rhs: RegOrImm::Imm(lo as i16),
                        rd: dst,
                        trapping: false,
                    });
                }
                return;
            }
        }
        // general 64-bit: high half shifted up, low half masked in
        let low32 = (bits & 0xFFFF_FFFF) as u32;
        let high32 = (bits >> 32) as u32;
        self.mat_low32(high32, dst);
        self.emit(RiscvInst::Alu {
            op: AluOp::Sll,
            rs1: dst,
            rhs: RegOrImm::Imm(32),
            rd: dst,
            trapping: false,
        });
        if low32 != 0 {
            self.mat_low32(low32, T4);
            self.emit(RiscvInst::Alu {
                op: AluOp::Sll,
                rs1: T4,
                rhs: RegOrImm::Imm(32),
                rd: T4,
                trapping: false,
            });
            self.emit(RiscvInst::Alu {
                op: AluOp::Srl,
                rs1: T4,
                rhs: RegOrImm::Imm(32),
                rd: T4,
                trapping: false,
            });
            self.emit(RiscvInst::Alu {
                op: AluOp::Or,
                rs1: dst,
                rhs: RegOrImm::Reg(T4),
                rd: dst,
                trapping: false,
            });
        }
    }

    /// A (base, offset) pair addressing `fp + off`. Loads and stores
    /// only take 12-bit immediate offsets, so wide offsets compute the
    /// address into `t3` first.
    fn fp_addr(&mut self, off: i32) -> (Reg, i16) {
        if fits_imm12(i64::from(off)) {
            (FP, off as i16)
        } else {
            self.mat_const(off as i64 as u64, T3);
            self.emit(RiscvInst::Alu {
                op: AluOp::Add,
                rs1: FP,
                rhs: RegOrImm::Reg(T3),
                rd: T3,
                trapping: false,
            });
            (T3, 0)
        }
    }

    /// Ensures `v` is in a register, loading/materializing into
    /// `scratch` when needed. Returns the register actually holding it.
    fn reg_of(&mut self, v: ValueId, scratch: Reg) -> Reg {
        if let Some(c) = self.func.value_as_const(v) {
            match c {
                Constant::GlobalAddr { global, .. } => {
                    self.emit(RiscvInst::MovSym {
                        rd: scratch,
                        sym: Sym::Global(global.index() as u32),
                    });
                }
                Constant::FunctionAddr { func, .. } => {
                    self.emit(RiscvInst::MovSym {
                        rd: scratch,
                        sym: Sym::Function(func.index() as u32),
                    });
                }
                _ => {
                    let bits = canonical_const(self.module, c);
                    if bits == 0 {
                        return X0;
                    }
                    self.mat_const(bits, scratch);
                }
            }
            return scratch;
        }
        match self.locs[&v] {
            Loc::Reg(r) => r,
            Loc::Slot(off) => {
                let (base, o) = self.fp_addr(off);
                self.emit(RiscvInst::Ld {
                    rd: scratch,
                    rs1: base,
                    off: o,
                    width: llva_machine::Width::B8,
                    signed: false,
                });
                scratch
            }
        }
    }

    /// The second-operand form: a 12-bit immediate when possible.
    fn rhs_of(&mut self, v: ValueId, scratch: Reg) -> RegOrImm {
        if let Some(c) = self.func.value_as_const(v) {
            if !matches!(
                c,
                Constant::GlobalAddr { .. } | Constant::FunctionAddr { .. }
            ) {
                let bits = canonical_const(self.module, c) as i64;
                if fits_imm12(bits) {
                    return RegOrImm::Imm(bits as i16);
                }
            }
        }
        RegOrImm::Reg(self.reg_of(v, scratch))
    }

    /// Where to compute a result: directly into its home register, or
    /// into `scratch` followed by a store.
    fn dst_of(&mut self, inst: InstId, scratch: Reg) -> (Reg, Option<i32>) {
        let v = self.func.inst_result(inst).expect("has result");
        match self.locs[&v] {
            Loc::Reg(r) => (r, None),
            Loc::Slot(off) => (scratch, Some(off)),
        }
    }

    fn finish_dst(&mut self, reg: Reg, spill: Option<i32>) {
        if let Some(off) = spill {
            let (base, o) = self.fp_addr(off);
            self.emit(RiscvInst::St {
                rs: reg,
                rs1: base,
                off: o,
                width: llva_machine::Width::B8,
            });
        }
    }

    /// Loads a float value into `f`.
    fn freg_of(&mut self, v: ValueId, f: FReg) {
        if let Some(c) = self.func.value_as_const(v) {
            let bits = canonical_const(self.module, c);
            self.mat_const(bits, T0);
            self.emit(RiscvInst::MovFG(f, T0));
            return;
        }
        match self.locs[&v] {
            Loc::Reg(r) => self.emit(RiscvInst::MovFG(f, r)),
            Loc::Slot(off) => {
                let (base, o) = self.fp_addr(off);
                self.emit(RiscvInst::LdF {
                    fd: f,
                    rs1: base,
                    off: o,
                    is32: false,
                });
            }
        }
    }

    fn fstore_result(&mut self, inst: InstId, f: FReg) {
        let v = self.func.inst_result(inst).expect("has result");
        match self.locs[&v] {
            Loc::Reg(r) => self.emit(RiscvInst::MovGF(r, f)),
            Loc::Slot(off) => {
                let (base, o) = self.fp_addr(off);
                self.emit(RiscvInst::StF {
                    fs: f,
                    rs1: base,
                    off: o,
                    is32: false,
                });
            }
        }
    }

    /// Normalizes `r` to the canonical form of a narrow integer type
    /// using a shift pair.
    fn normalize(&mut self, r: Reg, ty: TypeId) {
        let tt = self.module.types();
        if let Some(w) = tt.int_bits(ty) {
            if w < 64 {
                let sh = (64 - w.max(8)) as i16;
                self.emit(RiscvInst::Alu {
                    op: AluOp::Sll,
                    rs1: r,
                    rhs: RegOrImm::Imm(sh),
                    rd: r,
                    trapping: false,
                });
                self.emit(RiscvInst::Alu {
                    op: if tt.is_signed_integer(ty) {
                        AluOp::Sra
                    } else {
                        AluOp::Srl
                    },
                    rs1: r,
                    rhs: RegOrImm::Imm(sh),
                    rd: r,
                    trapping: false,
                });
            }
        }
    }

    fn jump(&mut self, target: BlockId) {
        self.fixups.push((self.code.len(), target));
        self.emit(RiscvInst::J { target: 0 });
    }

    /// Compare-and-branch to `target` — the RISC-V fusion of what SPARC
    /// expresses as `cmp` + `b<cond>`. `rs1`/`rs2` are already ordered
    /// for the branch opcode.
    fn jcc(&mut self, cond: BrCond, rs1: Reg, rs2: Reg, target: BlockId) {
        self.fixups.push((self.code.len(), target));
        self.emit(RiscvInst::Br {
            cond,
            rs1,
            rs2,
            target: 0,
        });
    }

    /// Maps a comparison opcode to a branch condition and operand
    /// order: `(cond, swap)` — `swap` means branch on `(b, a)`.
    fn br_cond_for(&self, op: Opcode, ty: TypeId) -> (BrCond, bool) {
        let tt = self.module.types();
        let signed = tt.is_signed_integer(ty) || tt.is_float(ty);
        match (op, signed) {
            (Opcode::SetEq, _) => (BrCond::Eq, false),
            (Opcode::SetNe, _) => (BrCond::Ne, false),
            (Opcode::SetLt, true) => (BrCond::Lt, false),
            (Opcode::SetLt, false) => (BrCond::Ltu, false),
            (Opcode::SetGt, true) => (BrCond::Lt, true),
            (Opcode::SetGt, false) => (BrCond::Ltu, true),
            (Opcode::SetLe, true) => (BrCond::Ge, true),
            (Opcode::SetLe, false) => (BrCond::Geu, true),
            (Opcode::SetGe, true) => (BrCond::Ge, false),
            (Opcode::SetGe, false) => (BrCond::Geu, false),
            _ => unreachable!("not a comparison"),
        }
    }

    /// Emits a fused comparison as a direct branch to `target`.
    fn emit_compare_branch(&mut self, def: InstId, target: BlockId) {
        let inst = self.func.inst(def);
        let op = inst.opcode();
        let (a, b) = (inst.operands()[0], inst.operands()[1]);
        let ty = self.vty(a);
        match classify(self.module, ty) {
            ValClass::Int => {
                let ra = self.reg_of(a, T0);
                let rb = self.reg_of(b, T1);
                let (cond, swap) = self.br_cond_for(op, ty);
                let (r1, r2) = if swap { (rb, ra) } else { (ra, rb) };
                self.jcc(cond, r1, r2, target);
            }
            _ => {
                // float: materialize the 0/1 with feq/flt/fle, branch on it
                self.emit_float_setcc(op, a, b, T0);
                self.jcc(BrCond::Ne, T0, X0, target);
            }
        }
    }

    /// Materializes a float comparison's 0/1 into `rd` (NaN operands
    /// make every `FSet` false; `Ne` is the complement, so unordered
    /// compares agree with the interpreter's semantics).
    fn emit_float_setcc(&mut self, op: Opcode, a: ValueId, b: ValueId, rd: Reg) {
        let is32 = classify(self.module, self.vty(a)) == ValClass::F32;
        self.freg_of(a, FReg(0));
        self.freg_of(b, FReg(1));
        let (fop, swap, negate) = match op {
            Opcode::SetEq => (FSetOp::Feq, false, false),
            Opcode::SetNe => (FSetOp::Feq, false, true),
            Opcode::SetLt => (FSetOp::Flt, false, false),
            Opcode::SetGt => (FSetOp::Flt, true, false),
            Opcode::SetLe => (FSetOp::Fle, false, false),
            Opcode::SetGe => (FSetOp::Fle, true, false),
            _ => unreachable!("not a comparison"),
        };
        let (f1, f2) = if swap {
            (FReg(1), FReg(0))
        } else {
            (FReg(0), FReg(1))
        };
        self.emit(RiscvInst::FSet {
            op: fop,
            rd,
            fs1: f1,
            fs2: f2,
            is32,
        });
        if negate {
            self.emit(RiscvInst::Alu {
                op: AluOp::Xor,
                rs1: rd,
                rhs: RegOrImm::Imm(1),
                rd,
                trapping: false,
            });
        }
    }

    /// Materializes an integer comparison's 0/1 into `rd` with
    /// `slt`/`sltu`/`xor`+`sltiu` sequences — no flags to read.
    fn emit_int_setcc(&mut self, op: Opcode, a: ValueId, b: ValueId, rd: Reg) {
        let ty = self.vty(a);
        let signed = self.module.types().is_signed_integer(ty);
        let slt = if signed { AluOp::Slt } else { AluOp::Sltu };
        let ra = self.reg_of(a, T0);
        let rb = self.reg_of(b, T1);
        match op {
            Opcode::SetEq | Opcode::SetNe => {
                self.emit(RiscvInst::Alu {
                    op: AluOp::Xor,
                    rs1: ra,
                    rhs: RegOrImm::Reg(rb),
                    rd,
                    trapping: false,
                });
                if op == Opcode::SetEq {
                    // seqz: rd = (rd unsigned< 1)
                    self.emit(RiscvInst::Alu {
                        op: AluOp::Sltu,
                        rs1: rd,
                        rhs: RegOrImm::Imm(1),
                        rd,
                        trapping: false,
                    });
                } else {
                    // snez: rd = (0 unsigned< rd)
                    self.emit(RiscvInst::Alu {
                        op: AluOp::Sltu,
                        rs1: X0,
                        rhs: RegOrImm::Reg(rd),
                        rd,
                        trapping: false,
                    });
                }
            }
            Opcode::SetLt => self.emit(RiscvInst::Alu {
                op: slt,
                rs1: ra,
                rhs: RegOrImm::Reg(rb),
                rd,
                trapping: false,
            }),
            Opcode::SetGt => self.emit(RiscvInst::Alu {
                op: slt,
                rs1: rb,
                rhs: RegOrImm::Reg(ra),
                rd,
                trapping: false,
            }),
            Opcode::SetGe | Opcode::SetLe => {
                let (r1, r2) = if op == Opcode::SetGe { (ra, rb) } else { (rb, ra) };
                self.emit(RiscvInst::Alu {
                    op: slt,
                    rs1: r1,
                    rhs: RegOrImm::Reg(r2),
                    rd,
                    trapping: false,
                });
                self.emit(RiscvInst::Alu {
                    op: AluOp::Xor,
                    rs1: rd,
                    rhs: RegOrImm::Imm(1),
                    rd,
                    trapping: false,
                });
            }
            _ => unreachable!("not a comparison"),
        }
    }

    fn run(&mut self) {
        self.emit_prologue();
        let order = self.func.block_order().to_vec();
        for (bi, &block) in order.iter().enumerate() {
            self.block_starts.insert(block, self.code.len() as u32);
            let next_block = order.get(bi + 1).copied();
            let insts = self.func.block(block).insts().to_vec();
            for &inst_id in &insts {
                self.emit_inst(block, inst_id, next_block);
            }
        }
        for (idx, block) in std::mem::take(&mut self.fixups) {
            let target = self.block_starts[&block];
            match &mut self.code[idx] {
                RiscvInst::J { target: t } | RiscvInst::Br { target: t, .. } => *t = target,
                RiscvInst::Call { unwind, .. } | RiscvInst::CallIndirect { unwind, .. } => {
                    *unwind = Some(target);
                }
                other => unreachable!("fixup on {other:?}"),
            }
        }
    }

    fn emit_prologue(&mut self) {
        let frame = (self.frame_size + self.out_area + 15) & !15;
        // t0 = old sp
        self.mov(T0, SP);
        if fits_imm12(i64::from(frame)) {
            self.emit(RiscvInst::Alu {
                op: AluOp::Sub,
                rs1: SP,
                rhs: RegOrImm::Imm(frame as i16),
                rd: SP,
                trapping: false,
            });
        } else {
            self.mat_const(frame as u64, T1);
            self.emit(RiscvInst::Alu {
                op: AluOp::Sub,
                rs1: SP,
                rhs: RegOrImm::Reg(T1),
                rd: SP,
                trapping: false,
            });
        }
        // save old fp at [t0 - 8]; fp = old sp
        self.emit(RiscvInst::St {
            rs: FP,
            rs1: T0,
            off: -8,
            width: llva_machine::Width::B8,
        });
        self.mov(FP, T0);
        // save used callee-saved registers
        let saves: Vec<(Reg, i32)> = self
            .used_saved
            .iter()
            .map(|r| (*r, self.save_slots[r]))
            .collect();
        for (r, off) in saves {
            let (base, o) = self.fp_addr(off);
            self.emit(RiscvInst::St {
                rs: r,
                rs1: base,
                off: o,
                width: llva_machine::Width::B8,
            });
        }
        // move incoming arguments to their homes
        let args = self.func.args().to_vec();
        for (i, &a) in args.iter().enumerate() {
            if i < 8 {
                let src = Reg(10 + i as u8);
                match self.locs[&a] {
                    Loc::Reg(r) => self.mov(r, src),
                    Loc::Slot(off) => {
                        let (base, o) = self.fp_addr(off);
                        self.emit(RiscvInst::St {
                            rs: src,
                            rs1: base,
                            off: o,
                            width: llva_machine::Width::B8,
                        });
                    }
                }
            } else {
                // incoming overflow at [fp + 8*(i-8)]
                let off = 8 * (i as i32 - 8);
                self.emit(RiscvInst::Ld {
                    rd: T0,
                    rs1: FP,
                    off: off as i16,
                    width: llva_machine::Width::B8,
                    signed: false,
                });
                match self.locs[&a] {
                    Loc::Reg(r) => self.mov(r, T0),
                    Loc::Slot(soff) => {
                        let (base, o) = self.fp_addr(soff);
                        self.emit(RiscvInst::St {
                            rs: T0,
                            rs1: base,
                            off: o,
                            width: llva_machine::Width::B8,
                        });
                    }
                }
            }
        }
    }

    fn emit_epilogue(&mut self) {
        let saves: Vec<(Reg, i32)> = self
            .used_saved
            .iter()
            .map(|r| (*r, self.save_slots[r]))
            .collect();
        for (r, off) in saves {
            let (base, o) = self.fp_addr(off);
            self.emit(RiscvInst::Ld {
                rd: r,
                rs1: base,
                off: o,
                width: llva_machine::Width::B8,
                signed: false,
            });
        }
        // old fp at [fp - 8]; sp = fp
        self.emit(RiscvInst::Ld {
            rd: T0,
            rs1: FP,
            off: -8,
            width: llva_machine::Width::B8,
            signed: false,
        });
        self.mov(SP, FP);
        self.mov(FP, T0);
        self.emit(RiscvInst::Ret);
    }

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
            let off = self.staging[&phi];
            let r = self.reg_of(incoming, T0);
            let (base, o) = self.fp_addr(off);
            self.emit(RiscvInst::St {
                rs: r,
                rs1: base,
                off: o,
                width: llva_machine::Width::B8,
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
            return;
        }

        match op {
            _ if op.is_binary() => {
                let ty = inst.result_type();
                match classify(self.module, ty) {
                    ValClass::Int => {
                        let signed = tt.is_signed_integer(ty);
                        let alu = match op {
                            Opcode::Add => AluOp::Add,
                            Opcode::Sub => AluOp::Sub,
                            Opcode::Mul => AluOp::Mul,
                            Opcode::Div => {
                                if signed {
                                    AluOp::Sdiv
                                } else {
                                    AluOp::Udiv
                                }
                            }
                            Opcode::Rem => {
                                if signed {
                                    AluOp::Srem
                                } else {
                                    AluOp::Urem
                                }
                            }
                            Opcode::And => AluOp::And,
                            Opcode::Or => AluOp::Or,
                            Opcode::Xor => AluOp::Xor,
                            Opcode::Shl => AluOp::Sll,
                            Opcode::Shr => {
                                if signed {
                                    AluOp::Sra
                                } else {
                                    AluOp::Srl
                                }
                            }
                            _ => unreachable!(),
                        };
                        let ra = self.reg_of(ops[0], T0);
                        let rb = self.rhs_of(ops[1], T1);
                        let (rd, spill) = self.dst_of(inst_id, T2);
                        self.emit(RiscvInst::Alu {
                            op: alu,
                            rs1: ra,
                            rhs: rb,
                            rd,
                            trapping: inst.exceptions_enabled(),
                        });
                        if matches!(
                            op,
                            Opcode::Add
                                | Opcode::Sub
                                | Opcode::Mul
                                | Opcode::Shl
                                | Opcode::Div
                                | Opcode::Rem
                        ) {
                            self.normalize(rd, ty);
                        }
                        self.finish_dst(rd, spill);
                    }
                    class => {
                        let is32 = class == ValClass::F32;
                        self.freg_of(ops[0], FReg(0));
                        self.freg_of(ops[1], FReg(1));
                        let fop = match op {
                            Opcode::Add => llva_machine::riscv::FpOp::Add,
                            Opcode::Sub => llva_machine::riscv::FpOp::Sub,
                            Opcode::Mul => llva_machine::riscv::FpOp::Mul,
                            Opcode::Div | Opcode::Rem => llva_machine::riscv::FpOp::Div,
                            _ => panic!("bitwise op on float"),
                        };
                        if op == Opcode::Rem {
                            self.emit(RiscvInst::FAlu {
                                op: llva_machine::riscv::FpOp::Div,
                                fs1: FReg(0),
                                fs2: FReg(1),
                                fd: FReg(2),
                                is32,
                            });
                            self.emit(RiscvInst::CvtFI {
                                rd: T0,
                                fs: FReg(2),
                                from32: is32,
                                signed: true,
                            });
                            self.emit(RiscvInst::CvtIF {
                                fd: FReg(2),
                                rs: T0,
                                to32: is32,
                                signed: true,
                            });
                            self.emit(RiscvInst::FAlu {
                                op: llva_machine::riscv::FpOp::Mul,
                                fs1: FReg(2),
                                fs2: FReg(1),
                                fd: FReg(2),
                                is32,
                            });
                            self.emit(RiscvInst::FAlu {
                                op: llva_machine::riscv::FpOp::Sub,
                                fs1: FReg(0),
                                fs2: FReg(2),
                                fd: FReg(0),
                                is32,
                            });
                        } else {
                            self.emit(RiscvInst::FAlu {
                                op: fop,
                                fs1: FReg(0),
                                fs2: FReg(1),
                                fd: FReg(0),
                                is32,
                            });
                        }
                        self.fstore_result(inst_id, FReg(0));
                    }
                }
            }
            _ if op.is_comparison() => {
                let (rd, spill) = self.dst_of(inst_id, T2);
                match classify(self.module, self.vty(ops[0])) {
                    ValClass::Int => self.emit_int_setcc(op, ops[0], ops[1], rd),
                    _ => self.emit_float_setcc(op, ops[0], ops[1], rd),
                }
                self.finish_dst(rd, spill);
            }
            Opcode::Ret => {
                if let Some(&v) = ops.first() {
                    match classify(self.module, self.vty(v)) {
                        ValClass::Int => {
                            let r = self.reg_of(v, T0);
                            self.mov(A0, r);
                        }
                        _ => {
                            // float returns as raw bits in a0
                            self.freg_of(v, FReg(0));
                            self.emit(RiscvInst::MovGF(A0, FReg(0)));
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
                    match inst_defining(self.func, cond_val) {
                        Some(def) if self.fused.contains(&def) => {
                            self.emit_compare_branch(def, blocks[0]);
                        }
                        _ => {
                            let r = self.reg_of(cond_val, T0);
                            self.jcc(BrCond::Ne, r, X0, blocks[0]);
                        }
                    }
                    if next_block != Some(blocks[1]) {
                        self.jump(blocks[1]);
                    }
                }
            }
            Opcode::Mbr => {
                self.emit_all_phi_copies(block);
                let r = self.reg_of(ops[0], T0);
                for (i, &case) in ops[1..].iter().enumerate() {
                    let rc = self.reg_of(case, T1);
                    self.jcc(BrCond::Eq, r, rc, blocks[1 + i]);
                }
                if next_block != Some(blocks[0]) {
                    self.jump(blocks[0]);
                }
            }
            Opcode::Call | Opcode::Invoke => {
                self.emit_call(block, inst_id, op, &ops, &blocks);
            }
            Opcode::Unwind => self.emit(RiscvInst::Unwind),
            Opcode::Load => {
                let pointee = tt.pointee(self.vty(ops[0])).expect("pointer");
                let (width, signed) = access_of(self.module, pointee);
                let rp = self.reg_of(ops[0], T0);
                match classify(self.module, pointee) {
                    ValClass::Int => {
                        let (rd, spill) = self.dst_of(inst_id, T2);
                        self.emit(RiscvInst::Ld {
                            rd,
                            rs1: rp,
                            off: 0,
                            width,
                            signed,
                        });
                        self.finish_dst(rd, spill);
                    }
                    class => {
                        self.emit(RiscvInst::LdF {
                            fd: FReg(0),
                            rs1: rp,
                            off: 0,
                            is32: class == ValClass::F32,
                        });
                        self.fstore_result(inst_id, FReg(0));
                    }
                }
            }
            Opcode::Store => {
                let pointee = tt.pointee(self.vty(ops[1])).expect("pointer");
                let (width, _) = access_of(self.module, pointee);
                let rv = self.reg_of(ops[0], T0);
                let rp = self.reg_of(ops[1], T1);
                self.emit(RiscvInst::St {
                    rs: rv,
                    rs1: rp,
                    off: 0,
                    width,
                });
            }
            Opcode::GetElementPtr => self.emit_gep(inst_id, &ops),
            Opcode::Alloca => {
                let (rd, spill) = self.dst_of(inst_id, T2);
                if ops.is_empty() {
                    let off = self.alloca_home[&inst_id];
                    if fits_imm12(i64::from(off)) {
                        self.emit(RiscvInst::Alu {
                            op: AluOp::Add,
                            rs1: FP,
                            rhs: RegOrImm::Imm(off as i16),
                            rd,
                            trapping: false,
                        });
                    } else {
                        self.mat_const(off as i64 as u64, T3);
                        self.emit(RiscvInst::Alu {
                            op: AluOp::Add,
                            rs1: FP,
                            rhs: RegOrImm::Reg(T3),
                            rd,
                            trapping: false,
                        });
                    }
                } else {
                    let pointee = tt.pointee(inst.result_type()).expect("pointer");
                    let size = self.module.target().size_of(tt, pointee).max(1);
                    let size = (size + 7) & !7;
                    let rc = self.reg_of(ops[0], T0);
                    self.mat_const(size, T1);
                    self.emit(RiscvInst::Alu {
                        op: AluOp::Mul,
                        rs1: rc,
                        rhs: RegOrImm::Reg(T1),
                        rd: T0,
                        trapping: false,
                    });
                    self.emit(RiscvInst::Alu {
                        op: AluOp::Sub,
                        rs1: SP,
                        rhs: RegOrImm::Reg(T0),
                        rd: SP,
                        trapping: false,
                    });
                    self.mov(rd, SP);
                }
                self.finish_dst(rd, spill);
            }
            Opcode::Cast => self.emit_cast(inst_id, ops[0], inst.result_type()),
            Opcode::Phi => {
                let off = self.staging[&inst_id];
                let (rd, spill) = self.dst_of(inst_id, T2);
                let (base, o) = self.fp_addr(off);
                self.emit(RiscvInst::Ld {
                    rd,
                    rs1: base,
                    off: o,
                    width: llva_machine::Width::B8,
                    signed: false,
                });
                self.finish_dst(rd, spill);
            }
            _ => unreachable!("all opcodes covered"),
        }
    }

    fn emit_call(
        &mut self,
        block: BlockId,
        inst_id: InstId,
        op: Opcode,
        ops: &[ValueId],
        blocks: &[BlockId],
    ) {
        let args = &ops[1..];
        for (i, &a) in args.iter().take(8).enumerate() {
            let dst = Reg(10 + i as u8);
            match classify(self.module, self.vty(a)) {
                ValClass::Int => {
                    let r = self.reg_of(a, dst);
                    self.mov(dst, r);
                }
                _ => {
                    self.freg_of(a, FReg(0));
                    self.emit(RiscvInst::MovGF(dst, FReg(0)));
                }
            }
        }
        for (j, &a) in args.iter().skip(8).enumerate() {
            let r = self.reg_of(a, T0);
            self.emit(RiscvInst::St {
                rs: r,
                rs1: SP,
                off: (8 * j) as i16,
                width: llva_machine::Width::B8,
            });
        }
        let call_idx = self.code.len();
        if let Some(intr) = intrinsic_target(self.module, self.func, ops[0]) {
            self.emit(RiscvInst::CallIntrinsic {
                which: intr,
                nargs: args.len().min(8) as u8,
            });
        } else if let Some(Constant::FunctionAddr { func, .. }) = self.func.value_as_const(ops[0])
        {
            self.emit(RiscvInst::Call {
                func: func.index() as u32,
                unwind: None,
            });
        } else {
            let r = self.reg_of(ops[0], T0);
            self.emit(RiscvInst::CallIndirect {
                rs: r,
                unwind: None,
            });
        }
        if let Some(result) = self.func.inst_result(inst_id) {
            match classify(self.module, self.func.inst(inst_id).result_type()) {
                ValClass::Int => match self.locs[&result] {
                    Loc::Reg(r) => self.mov(r, A0),
                    Loc::Slot(off) => {
                        let (base, o) = self.fp_addr(off);
                        self.emit(RiscvInst::St {
                            rs: A0,
                            rs1: base,
                            off: o,
                            width: llva_machine::Width::B8,
                        });
                    }
                },
                _ => {
                    self.emit(RiscvInst::MovFG(FReg(0), A0));
                    self.fstore_result(inst_id, FReg(0));
                }
            }
        }
        if op == Opcode::Invoke {
            self.emit_phi_copies(block, blocks[0]);
            self.jump(blocks[0]);
            let pad = self.code.len() as u32;
            self.emit_phi_copies(block, blocks[1]);
            self.jump(blocks[1]);
            match &mut self.code[call_idx] {
                RiscvInst::Call { unwind, .. } | RiscvInst::CallIndirect { unwind, .. } => {
                    *unwind = Some(pad);
                }
                _ => {}
            }
        }
    }

    fn emit_gep(&mut self, inst_id: InstId, ops: &[ValueId]) {
        let tt = self.module.types();
        let cfg = self.module.target();
        let base = self.reg_of(ops[0], T0);
        self.mov(T0, base);
        let mut cur = tt.pointee(self.vty(ops[0])).expect("pointer");
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
                        cur = tt.struct_fields(cur).expect("defined")[field];
                        continue;
                    }
                    other => panic!("gep into {other:?}"),
                }
            };
            if let Some(k) = self
                .func
                .value_as_const(idx)
                .map(|c| canonical_const(self.module, c) as i64)
            {
                static_off += k * elem_size as i64;
            } else {
                let ri = self.reg_of(idx, T1);
                if elem_size.is_power_of_two() {
                    self.emit(RiscvInst::Alu {
                        op: AluOp::Sll,
                        rs1: ri,
                        rhs: RegOrImm::Imm(elem_size.trailing_zeros() as i16),
                        rd: T1,
                        trapping: false,
                    });
                } else {
                    self.mat_const(elem_size, T2);
                    self.emit(RiscvInst::Alu {
                        op: AluOp::Mul,
                        rs1: ri,
                        rhs: RegOrImm::Reg(T2),
                        rd: T1,
                        trapping: false,
                    });
                }
                self.emit(RiscvInst::Alu {
                    op: AluOp::Add,
                    rs1: T0,
                    rhs: RegOrImm::Reg(T1),
                    rd: T0,
                    trapping: false,
                });
            }
        }
        let (rd, spill) = self.dst_of(inst_id, T2);
        if static_off != 0 {
            if fits_imm12(static_off) {
                self.emit(RiscvInst::Alu {
                    op: AluOp::Add,
                    rs1: T0,
                    rhs: RegOrImm::Imm(static_off as i16),
                    rd,
                    trapping: false,
                });
            } else {
                self.mat_const(static_off as u64, T3);
                self.emit(RiscvInst::Alu {
                    op: AluOp::Add,
                    rs1: T0,
                    rhs: RegOrImm::Reg(T3),
                    rd,
                    trapping: false,
                });
            }
        } else {
            self.mov(rd, T0);
        }
        self.finish_dst(rd, spill);
    }

    fn emit_cast(&mut self, inst_id: InstId, src: ValueId, to: TypeId) {
        let tt = self.module.types();
        let from = self.vty(src);
        let from_class = classify(self.module, from);
        let to_class = classify(self.module, to);
        match (from_class, to_class) {
            (ValClass::Int, ValClass::Int) => {
                let rs = self.reg_of(src, T0);
                let (rd, spill) = self.dst_of(inst_id, T2);
                if matches!(tt.kind(to), TypeKind::Bool) {
                    // snez rd, rs
                    self.emit(RiscvInst::Alu {
                        op: AluOp::Sltu,
                        rs1: X0,
                        rhs: RegOrImm::Reg(rs),
                        rd,
                        trapping: false,
                    });
                } else {
                    self.mov(rd, rs);
                    self.normalize(rd, to);
                }
                self.finish_dst(rd, spill);
            }
            (ValClass::Int, fc) => {
                let rs = self.reg_of(src, T0);
                self.emit(RiscvInst::CvtIF {
                    fd: FReg(0),
                    rs,
                    to32: fc == ValClass::F32,
                    signed: tt.is_signed_integer(from) || matches!(tt.kind(from), TypeKind::Bool),
                });
                self.fstore_result(inst_id, FReg(0));
            }
            (fc, ValClass::Int) => {
                self.freg_of(src, FReg(0));
                let (rd, spill) = self.dst_of(inst_id, T2);
                if matches!(tt.kind(to), TypeKind::Bool) {
                    // rd = !(src == 0.0); feq is false on NaN, so NaN → true
                    self.emit(RiscvInst::MovFG(FReg(1), X0));
                    self.emit(RiscvInst::FSet {
                        op: FSetOp::Feq,
                        rd,
                        fs1: FReg(0),
                        fs2: FReg(1),
                        is32: fc == ValClass::F32,
                    });
                    self.emit(RiscvInst::Alu {
                        op: AluOp::Xor,
                        rs1: rd,
                        rhs: RegOrImm::Imm(1),
                        rd,
                        trapping: false,
                    });
                } else {
                    self.emit(RiscvInst::CvtFI {
                        rd,
                        fs: FReg(0),
                        from32: fc == ValClass::F32,
                        signed: tt.is_signed_integer(to),
                    });
                    self.normalize(rd, to);
                }
                self.finish_dst(rd, spill);
            }
            (fa, fb) => {
                self.freg_of(src, FReg(0));
                if fa != fb {
                    self.emit(RiscvInst::CvtFF {
                        fd: FReg(0),
                        fs: FReg(0),
                        to32: fb == ValClass::F32,
                    });
                }
                self.fstore_result(inst_id, FReg(0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llva_machine::common::Exit;
    use llva_machine::memory::Memory;
    use llva_machine::riscv::{RiscvMachine, RiscvProgram};

    fn compile_and_run(src: &str, args: &[u64]) -> Exit {
        let mut m = llva_core::parser::parse_module(src).expect("parses");
        m.set_target(llva_core::layout::TargetConfig::riscv64());
        llva_core::verifier::verify_module(&m).expect("verifies");
        let image = crate::common::layout_globals(&m);
        let mut program = RiscvProgram::new(m.num_functions(), image.addrs.clone());
        for (fid, f) in m.functions() {
            if !f.is_declaration() {
                program.install(fid.index() as u32, compile_riscv(&m, fid));
            }
        }
        let mut mem = Memory::new(1 << 22, image.heap_base, m.target().endianness);
        mem.write_bytes(llva_machine::memory::GLOBAL_BASE, &image.image)
            .expect("image fits");
        let mut machine = RiscvMachine::new(mem);
        let main = m.function_by_name("main").expect("main");
        machine
            .call_entry(main.index() as u32, args)
            .expect("entry");
        machine.run(&program, 100_000_000)
    }

    #[test]
    fn arithmetic_pipeline() {
        let exit = compile_and_run(
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
        assert_eq!(exit, Exit::Halt(18));
    }

    #[test]
    fn fib_recursive() {
        let exit = compile_and_run(
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
        let exit = compile_and_run(
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
    fn globals_and_memory_little_endian() {
        let exit = compile_and_run(
            r#"
@counter = global int 41

int %main() {
entry:
    %v = load int* @counter
    %v2 = add int %v, 1
    store int %v2, int* @counter
    %r = load int* @counter
    ret int %r
}
"#,
            &[],
        );
        assert_eq!(exit, Exit::Halt(42));
    }

    #[test]
    fn large_constants_need_lui() {
        let exit = compile_and_run(
            r#"
long %main() {
entry:
    %a = add long 0, 305419896
    %b = add long %a, 1
    ret long %b
}
"#,
            &[],
        );
        assert_eq!(exit, Exit::Halt(0x1234_5679));
    }

    #[test]
    fn full_64bit_constants_materialize() {
        // forces the general lui/shift/or path, including the i32-edge
        let exit = compile_and_run(
            r#"
long %main() {
entry:
    %a = add long 0, 81985529216486895
    %b = sub long %a, 81985529216486890
    ret long %b
}
"#,
            &[],
        );
        // 0x0123456789ABCDEF - (0x0123456789ABCDEF - 5) = 5
        assert_eq!(exit, Exit::Halt(5));
    }

    #[test]
    fn many_args_use_a_regs_then_stack() {
        let exit = compile_and_run(
            r#"
int %sum10(int %a, int %b, int %c, int %d, int %e, int %f, int %g, int %h, int %i, int %j) {
entry:
    %s1 = add int %a, %b
    %s2 = add int %s1, %c
    %s3 = add int %s2, %d
    %s4 = add int %s3, %e
    %s5 = add int %s4, %f
    %s6 = add int %s5, %g
    %s7 = add int %s6, %h
    %s8 = add int %s7, %i
    %s9 = add int %s8, %j
    ret int %s9
}

int %main() {
entry:
    %r = call int %sum10(int 1, int 2, int 3, int 4, int 5, int 6, int 7, int 8, int 9, int 10)
    ret int %r
}
"#,
            &[],
        );
        assert_eq!(exit, Exit::Halt(55));
    }

    #[test]
    fn float_math_and_struct_gep() {
        let exit = compile_and_run(
            r#"
%P = type { double, double }

int %main() {
entry:
    %p = alloca %P
    %f0 = getelementptr %P* %p, long 0, ubyte 0
    %f1 = getelementptr %P* %p, long 0, ubyte 1
    %three = cast int 3 to double
    %four = cast int 4 to double
    store double %three, double* %f0
    store double %four, double* %f1
    %a = load double* %f0
    %b = load double* %f1
    %aa = mul double %a, %a
    %bb = mul double %b, %b
    %cc = add double %aa, %bb
    %r = cast double %cc to int
    ret int %r
}
"#,
            &[],
        );
        assert_eq!(exit, Exit::Halt(25));
    }

    #[test]
    fn invoke_unwind_flow() {
        let exit = compile_and_run(
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
    fn unsigned_comparisons_use_unsigned_branches() {
        // 0xFFFFFFFFFFFFFFFF as ulong is huge, as long is -1
        let exit = compile_and_run(
            r#"
int %main() {
entry:
    %big = sub ulong 0, 1
    %c = setgt ulong %big, 10
    br bool %c, label %yes, label %no
yes:
    ret int 1
no:
    ret int 0
}
"#,
            &[],
        );
        assert_eq!(exit, Exit::Halt(1));
    }

    #[test]
    fn mbr_dispatch() {
        for (x, expect) in [(0u64, 10u64), (1, 11), (7, 12)] {
            let exit = compile_and_run(
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
    fn indirect_call_through_table() {
        let exit = compile_and_run(
            r#"
int %double(int %x) {
entry:
    %r = add int %x, %x
    ret int %r
}

@table = global int (int)* %double

int %main() {
entry:
    %f = load int (int)** @table
    %r = call int %f(int 21)
    ret int %r
}
"#,
            &[],
        );
        assert_eq!(exit, Exit::Halt(42));
    }

    #[test]
    fn setcc_materializes_without_flags() {
        // each comparison consumed as a value, not a branch
        let exit = compile_and_run(
            r#"
int %main(int %x) {
entry:
    %eq = seteq int %x, 7
    %ne = setne int %x, 9
    %lt = setlt int %x, 100
    %ge = setge int %x, 7
    %a = cast bool %eq to int
    %b = cast bool %ne to int
    %c = cast bool %lt to int
    %d = cast bool %ge to int
    %s1 = add int %a, %b
    %s2 = add int %s1, %c
    %s3 = add int %s2, %d
    ret int %s3
}
"#,
            &[7],
        );
        assert_eq!(exit, Exit::Halt(4));
    }
}
