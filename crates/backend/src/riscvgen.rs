//! The RV64 target description — the third LLEE target.
//!
//! The same promotion discipline as the SPARC back end (hot SSA values
//! live in the 11 callee-saved registers `s1`–`s11`), shaped by the
//! RISC-V model: **no condition codes**. Comparisons that feed a branch
//! fuse directly into compare-and-branch instructions
//! (`beq`/`blt`/…); comparisons whose boolean is consumed as a value
//! materialize it with `slt`/`sltu`/`xor`+`sltiu` sequences, and float
//! comparisons write 0/1 through `feq`/`flt`/`fle`. Constants beyond 12
//! bits need `lui`/`addi` pairs (one bit tighter than SPARC's 13-bit
//! fields), and loads/stores carry immediate-only offsets, so wide
//! frame offsets route through an address add.
//!
//! Frame discipline mirrors the SPARC back end: `s0`/`fp` holds the
//! caller's stack pointer and the caller's `fp` is saved at `[fp - 8]`;
//! arguments arrive in `a0`–`a7`, the rest at `[fp + 8*(i-8)]`;
//! outgoing overflow is stored at `[sp + 8j]`.

use crate::common::ValClass;
use crate::lower::{self, Callee, Lower, Policy, Target};
use crate::peephole::{PeepholeConfig, RiscvPeep};
use llva_core::function::BlockId;
use llva_core::instruction::{InstId, Opcode};
use llva_core::module::{FuncId, Module};
use llva_core::types::TypeId;
use llva_core::value::ValueId;
use llva_machine::common::{FpOp, Sym, Width};
use llva_machine::riscv::{
    fits_imm12, AluOp, BrCond, FReg, FSetOp, Reg, RegOrImm, RiscvInst, A0, FP, SP, T0, T1, T2, X0,
};

/// Compiles one function to RV64 code. The module must verify.
pub fn compile_riscv(module: &Module, fid: FuncId) -> Vec<RiscvInst> {
    compile_riscv_with(module, fid, &PeepholeConfig::on())
}

/// [`compile_riscv`] with an explicit peephole configuration (used by
/// the conformance oracle's off-vs-on stages).
pub fn compile_riscv_with(module: &Module, fid: FuncId, peep: &PeepholeConfig) -> Vec<RiscvInst> {
    lower::compile::<Riscv>(module, fid, peep)
}

/// Address-materialization scratch `x28`/`t3`.
const T3: Reg = Reg(28);
/// Constant-materialization scratch `x29`/`t4` (internal to `mat_const`).
const T4: Reg = Reg(29);
const F0: FReg = FReg(0);
const F1: FReg = FReg(1);

/// The RV64 description the lowering driver runs over.
pub(crate) struct Riscv;

type E<'a> = Lower<'a, Riscv>;

fn alu(op: AluOp, rs1: Reg, rhs: RegOrImm, rd: Reg) -> RiscvInst {
    RiscvInst::Alu {
        op,
        rs1,
        rhs,
        rd,
        trapping: false,
    }
}

fn imm(v: i64) -> RegOrImm {
    RegOrImm::Imm(v as i16)
}

fn reg(r: Reg) -> RegOrImm {
    RegOrImm::Reg(r)
}

/// `rd := rs op v`, materialising a wide `v` into `tmp`.
fn alu_imm(e: &mut E, op: AluOp, rs: Reg, v: i64, rd: Reg, tmp: Reg) {
    if fits_imm12(v) {
        e.push(alu(op, rs, imm(v), rd));
    } else {
        Riscv::mat_const(e, v as u64, tmp);
        e.push(alu(op, rs, reg(tmp), rd));
    }
}

/// Materializes the low 32 bits of `w` into `dst` (`lui`+`addi`; the
/// upper 32 bits of the register may hold sign-extension garbage —
/// callers mask or shift it away).
fn mat_low32(e: &mut E, w: u32, dst: Reg) {
    let sv = i64::from(w as i32);
    if fits_imm12(sv) {
        e.push(alu(AluOp::Add, X0, imm(sv), dst));
        return;
    }
    let hi20 = (w.wrapping_add(0x800) >> 12) & 0xF_FFFF;
    let lo12 = ((w & 0xFFF) as i32) << 20 >> 20; // sign-extend 12 bits
    e.push(RiscvInst::Lui {
        imm20: hi20,
        rd: dst,
    });
    if lo12 != 0 {
        e.push(alu(AluOp::Add, dst, imm(i64::from(lo12)), dst));
    }
}

/// A `(base, offset)` pair addressing `fp + off`. Loads and stores only
/// take 12-bit immediate offsets, so wide offsets compute the address
/// into `t3` first.
fn fp_addr(e: &mut E, off: i32) -> (Reg, i16) {
    if fits_imm12(i64::from(off)) {
        (FP, off as i16)
    } else {
        Riscv::mat_const(e, off as i64 as u64, T3);
        e.push(alu(AluOp::Add, FP, reg(T3), T3));
        (T3, 0)
    }
}

fn st(rs: Reg, rs1: Reg, off: i16) -> RiscvInst {
    RiscvInst::St {
        rs,
        rs1,
        off,
        width: Width::B8,
    }
}

fn ld(rd: Reg, rs1: Reg, off: i16) -> RiscvInst {
    RiscvInst::Ld {
        rd,
        rs1,
        off,
        width: Width::B8,
        signed: false,
    }
}

/// Normalizes `r` to the canonical form of a narrow integer type with a
/// shift pair.
fn normalize(e: &mut E, r: Reg, ty: TypeId) {
    if let Some(w) = e.types().int_bits(ty).filter(|&w| w < 64) {
        let sh = i64::from(64 - w.max(8));
        let down = if e.signed(ty) { AluOp::Sra } else { AluOp::Srl };
        e.push(alu(AluOp::Sll, r, imm(sh), r));
        e.push(alu(down, r, imm(sh), r));
    }
}

/// Materializes a float comparison's 0/1 into `rd` (NaN operands make
/// every `FSet` false; `Ne` is the complement, so unordered compares
/// agree with the interpreter's semantics).
fn float_setcc(e: &mut E, op: Opcode, a: ValueId, b: ValueId, rd: Reg) {
    let is32 = e.class(e.vty(a)) == ValClass::F32;
    e.fload(a, F0);
    e.fload(b, F1);
    let (fop, swap, negate) = match op {
        Opcode::SetEq => (FSetOp::Feq, false, false),
        Opcode::SetNe => (FSetOp::Feq, false, true),
        Opcode::SetLt => (FSetOp::Flt, false, false),
        Opcode::SetGt => (FSetOp::Flt, true, false),
        Opcode::SetLe => (FSetOp::Fle, false, false),
        Opcode::SetGe => (FSetOp::Fle, true, false),
        _ => unreachable!("not a comparison"),
    };
    let (fs1, fs2) = if swap { (F1, F0) } else { (F0, F1) };
    e.push(RiscvInst::FSet {
        op: fop,
        rd,
        fs1,
        fs2,
        is32,
    });
    if negate {
        e.push(alu(AluOp::Xor, rd, imm(1), rd));
    }
}

/// Materializes an integer comparison's 0/1 into `rd` with
/// `slt`/`sltu`/`xor`+`sltiu` sequences — no flags to read.
fn int_setcc(e: &mut E, op: Opcode, a: ValueId, b: ValueId, rd: Reg) {
    let slt = if e.signed(e.vty(a)) {
        AluOp::Slt
    } else {
        AluOp::Sltu
    };
    let ra = e.read(a, T0);
    let rb = e.read(b, T1);
    match op {
        Opcode::SetEq | Opcode::SetNe => {
            e.push(alu(AluOp::Xor, ra, reg(rb), rd));
            e.push(if op == Opcode::SetEq {
                alu(AluOp::Sltu, rd, imm(1), rd) // seqz
            } else {
                alu(AluOp::Sltu, X0, reg(rd), rd) // snez
            });
        }
        Opcode::SetLt => e.push(alu(slt, ra, reg(rb), rd)),
        Opcode::SetGt => e.push(alu(slt, rb, reg(ra), rd)),
        Opcode::SetGe | Opcode::SetLe => {
            let (r1, r2) = if op == Opcode::SetGe {
                (ra, rb)
            } else {
                (rb, ra)
            };
            e.push(alu(slt, r1, reg(r2), rd));
            e.push(alu(AluOp::Xor, rd, imm(1), rd));
        }
        _ => unreachable!("not a comparison"),
    }
}

fn br(cond: BrCond, rs1: Reg, rs2: Reg) -> RiscvInst {
    RiscvInst::Br {
        cond,
        rs1,
        rs2,
        target: 0,
    }
}

/// A fused comparison as a direct compare-and-branch to `target` — the
/// RISC-V fusion of what SPARC expresses as `cmp` + `b<cond>`.
fn compare_branch(e: &mut E, cmp: InstId, target: BlockId) {
    let inst = e.func.inst(cmp);
    let op = inst.opcode();
    let (a, b) = (inst.operands()[0], inst.operands()[1]);
    let ty = e.vty(a);
    if e.class(ty) != ValClass::Int {
        // float: materialize the 0/1 with feq/flt/fle, branch on it
        float_setcc(e, op, a, b, T0);
        e.branch(br(BrCond::Ne, T0, X0), target);
        return;
    }
    let ra = e.read(a, T0);
    let rb = e.read(b, T1);
    // greater-than forms swap the operands
    let (cond, swap) = match (op, e.signed(ty)) {
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
    };
    let (r1, r2) = if swap { (rb, ra) } else { (ra, rb) };
    e.branch(br(cond, r1, r2), target);
}

impl Target for Riscv {
    type Inst = RiscvInst;
    type Reg = Reg;
    type FReg = FReg;
    type Lens = RiscvPeep;

    /// `s1` (`x9`), `s2`–`s11` (`x18`–`x27`); `s0` is the frame pointer.
    const ALLOCATABLE: &'static [Reg] = &[
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
    const POLICY: Policy = Policy {
        promote: Some((0, 0)),
        home_fused: true,
        frame_base: 8,
    };
    const ARG_REGS: usize = 8;
    const ZERO: Option<Reg> = Some(X0);
    const SCRATCH: [Reg; 2] = [T0, T1];
    const RESULT: Reg = T2;
    const LOAD_RESULT: Reg = T2;
    const CALLEE: Reg = T0;
    const RET: Reg = A0;
    const F: [FReg; 3] = [F0, F1, FReg(2)];
    const FLOAT_RESULT_IN_GPR: bool = true;

    fn mov(e: &mut E, dst: Reg, src: Reg) {
        if dst != src {
            e.push(alu(AluOp::Add, src, imm(0), dst));
        }
    }

    /// Clobbers `t4` for full 64-bit constants.
    fn mat_const(e: &mut E, bits: u64, dst: Reg) {
        let v = bits as i64;
        if v == 0 {
            Self::mov(e, dst, X0);
            return;
        }
        if fits_imm12(v) {
            e.push(alu(AluOp::Add, X0, imm(v), dst));
            return;
        }
        if v == i64::from(v as i32) {
            // standard li expansion; the +0x800 rounding keeps lo12 in
            // range except at the very top of the i32 range, which
            // falls through to the general path
            let hi20 = (((v + 0x800) >> 12) & 0xF_FFFF) as u32;
            let lo = v - i64::from((hi20 << 12) as i32);
            if fits_imm12(lo) {
                e.push(RiscvInst::Lui {
                    imm20: hi20,
                    rd: dst,
                });
                if lo != 0 {
                    e.push(alu(AluOp::Add, dst, imm(lo), dst));
                }
                return;
            }
        }
        // general 64-bit: high half shifted up, low half masked in
        let low32 = (bits & 0xFFFF_FFFF) as u32;
        mat_low32(e, (bits >> 32) as u32, dst);
        e.push(alu(AluOp::Sll, dst, imm(32), dst));
        if low32 != 0 {
            mat_low32(e, low32, T4);
            e.push(alu(AluOp::Sll, T4, imm(32), T4));
            e.push(alu(AluOp::Srl, T4, imm(32), T4));
            e.push(alu(AluOp::Or, dst, reg(T4), dst));
        }
    }

    fn load_to(e: &mut E, v: ValueId, dst: Reg) {
        let r = e.read(v, T0);
        Self::mov(e, dst, r);
    }

    fn load_slot(e: &mut E, r: Reg, off: i32) {
        let (base, o) = fp_addr(e, off);
        e.push(ld(r, base, o));
    }

    fn store_slot(e: &mut E, r: Reg, off: i32) {
        let (base, o) = fp_addr(e, off);
        e.push(st(r, base, o));
    }

    fn fload_slot(e: &mut E, f: FReg, off: i32) {
        let (rs1, off) = fp_addr(e, off);
        e.push(RiscvInst::LdF {
            fd: f,
            rs1,
            off,
            is32: false,
        });
    }

    fn fstore_slot(e: &mut E, f: FReg, off: i32) {
        let (rs1, off) = fp_addr(e, off);
        e.push(RiscvInst::StF {
            fs: f,
            rs1,
            off,
            is32: false,
        });
    }

    fn mov_sym(rd: Reg, sym: Sym) -> RiscvInst {
        RiscvInst::MovSym { rd, sym }
    }

    fn mov_fg(f: FReg, r: Reg) -> RiscvInst {
        RiscvInst::MovFG(f, r)
    }

    fn mov_gf(r: Reg, f: FReg) -> RiscvInst {
        RiscvInst::MovGF(r, f)
    }

    fn load(rd: Reg, rs1: Reg, width: Width, signed: bool) -> RiscvInst {
        RiscvInst::Ld {
            rd,
            rs1,
            off: 0,
            width,
            signed,
        }
    }

    fn store(rs: Reg, rs1: Reg, width: Width) -> RiscvInst {
        RiscvInst::St {
            rs,
            rs1,
            off: 0,
            width,
        }
    }

    fn fload(fd: FReg, rs1: Reg, is32: bool) -> RiscvInst {
        RiscvInst::LdF {
            fd,
            rs1,
            off: 0,
            is32,
        }
    }

    fn jump() -> RiscvInst {
        RiscvInst::J { target: 0 }
    }

    fn unwind() -> RiscvInst {
        RiscvInst::Unwind
    }

    fn prologue(e: &mut E) {
        let frame = (e.frame.size + e.frame.out_area + 15) & !15;
        // t0 = old sp; the caller's fp is saved at [t0 - 8]
        Self::mov(e, T0, SP);
        alu_imm(e, AluOp::Sub, SP, i64::from(frame), SP, T1);
        e.push(st(FP, T0, -8));
        Self::mov(e, FP, T0);
        for (r, off) in e.frame.saves.clone() {
            Self::store_slot(e, r, off);
        }
        // move incoming arguments to their homes
        let func = e.func;
        for (i, &a) in func.args().iter().enumerate() {
            let src = if i < Self::ARG_REGS {
                Reg(10 + i as u8)
            } else {
                e.push(ld(T0, FP, (8 * (i - Self::ARG_REGS)) as i16));
                T0
            };
            match e.frame.loc(a) {
                lower::Loc::Reg(r) => Self::mov(e, r, src),
                lower::Loc::Slot(off) => Self::store_slot(e, src, off),
            }
        }
    }

    fn epilogue(e: &mut E) {
        for (r, off) in e.frame.saves.clone() {
            Self::load_slot(e, r, off);
        }
        e.push(ld(T0, FP, -8));
        Self::mov(e, SP, FP);
        Self::mov(e, FP, T0);
        e.push(RiscvInst::Ret);
    }

    fn frame_addr(e: &mut E, rd: Reg, off: i32) {
        alu_imm(e, AluOp::Add, FP, i64::from(off), rd, T3);
    }

    fn stack_alloc(e: &mut E, rd: Reg, count: ValueId, size: u64) {
        let rc = e.read(count, T0);
        Self::mat_const(e, size, T1);
        e.push(alu(AluOp::Mul, rc, reg(T1), T0));
        e.push(alu(AluOp::Sub, SP, reg(T0), SP));
        Self::mov(e, rd, SP);
    }

    fn pass_args(e: &mut E, args: &[ValueId]) {
        for (i, &a) in args.iter().enumerate() {
            if i < Self::ARG_REGS {
                let dst = Reg(10 + i as u8);
                if e.class(e.vty(a)) == ValClass::Int {
                    let r = e.read(a, dst);
                    Self::mov(e, dst, r);
                } else {
                    e.fload(a, F0);
                    e.push(RiscvInst::MovGF(dst, F0));
                }
            } else {
                let r = e.read(a, T0);
                e.push(st(r, SP, (8 * (i - Self::ARG_REGS)) as i16));
            }
        }
    }

    fn call(callee: Callee<Reg>, nargs: usize, unwind: Option<u32>) -> RiscvInst {
        match callee {
            Callee::Intrinsic(which) => RiscvInst::CallIntrinsic {
                which,
                nargs: nargs.min(Self::ARG_REGS) as u8,
            },
            Callee::Direct(func) => RiscvInst::Call { func, unwind },
            Callee::Indirect(rs) => RiscvInst::CallIndirect { rs, unwind },
        }
    }

    fn int_binary(e: &mut E, id: InstId, op: Opcode, ops: &[ValueId], ty: TypeId, trapping: bool) {
        let signed = e.signed(ty);
        let alu_op = match (op, signed) {
            (Opcode::Add, _) => AluOp::Add,
            (Opcode::Sub, _) => AluOp::Sub,
            (Opcode::Mul, _) => AluOp::Mul,
            (Opcode::Div, true) => AluOp::Sdiv,
            (Opcode::Div, false) => AluOp::Udiv,
            (Opcode::Rem, true) => AluOp::Srem,
            (Opcode::Rem, false) => AluOp::Urem,
            (Opcode::And, _) => AluOp::And,
            (Opcode::Or, _) => AluOp::Or,
            (Opcode::Xor, _) => AluOp::Xor,
            (Opcode::Shl, _) => AluOp::Sll,
            (Opcode::Shr, true) => AluOp::Sra,
            (Opcode::Shr, false) => AluOp::Srl,
            _ => unreachable!("not an integer binary operator"),
        };
        let ra = e.read(ops[0], T0);
        let rb = match e.imm(ops[1]).filter(|&bits| fits_imm12(bits)) {
            Some(bits) => imm(bits),
            None => reg(e.read(ops[1], T1)),
        };
        let rd = e.dst(id, T2);
        e.push(RiscvInst::Alu {
            op: alu_op,
            rs1: ra,
            rhs: rb,
            rd,
            trapping,
        });
        if matches!(
            op,
            Opcode::Add | Opcode::Sub | Opcode::Mul | Opcode::Shl | Opcode::Div | Opcode::Rem
        ) {
            normalize(e, rd, ty);
        }
        e.finish(id, rd);
    }

    fn falu(e: &mut E, op: FpOp, fd: FReg, fs1: FReg, fs2: FReg, is32: bool) {
        e.push(RiscvInst::FAlu {
            op,
            fs1,
            fs2,
            fd,
            is32,
        });
    }

    fn cvt_if(fd: FReg, rs: Reg, to32: bool, signed: bool) -> RiscvInst {
        RiscvInst::CvtIF {
            fd,
            rs,
            to32,
            signed,
        }
    }

    fn cvt_fi(rd: Reg, fs: FReg, from32: bool, signed: bool) -> RiscvInst {
        RiscvInst::CvtFI {
            rd,
            fs,
            from32,
            signed,
        }
    }

    fn cvt_ff(fd: FReg, fs: FReg, to32: bool) -> RiscvInst {
        RiscvInst::CvtFF { fd, fs, to32 }
    }

    fn extend(e: &mut E, r: Reg, ty: TypeId) {
        normalize(e, r, ty);
    }

    fn int_to_bool(e: &mut E, src: ValueId, rd: Reg) {
        // snez rd, rs
        let rs = e.read(src, T0);
        e.push(alu(AluOp::Sltu, X0, reg(rs), rd));
    }

    fn float_to_bool(e: &mut E, rd: Reg, is32: bool) {
        // rd = !(src == 0.0); feq is false on NaN, so NaN → true
        e.push(RiscvInst::MovFG(F1, X0));
        e.push(RiscvInst::FSet {
            op: FSetOp::Feq,
            rd,
            fs1: F0,
            fs2: F1,
            is32,
        });
        e.push(alu(AluOp::Xor, rd, imm(1), rd));
    }

    fn set_cond(e: &mut E, cmp: InstId, rd: Reg) {
        let inst = e.func.inst(cmp);
        let (op, a, b) = (inst.opcode(), inst.operands()[0], inst.operands()[1]);
        if e.class(e.vty(a)) == ValClass::Int {
            int_setcc(e, op, a, b, rd);
        } else {
            float_setcc(e, op, a, b, rd);
        }
    }

    fn branch_if(e: &mut E, cond: ValueId, fused: Option<InstId>, target: BlockId) {
        match fused {
            Some(cmp) => compare_branch(e, cmp, target),
            None => {
                let r = e.read(cond, T0);
                e.branch(br(BrCond::Ne, r, X0), target);
            }
        }
    }

    fn branch_eq(e: &mut E, r: Reg, case: ValueId, target: BlockId) {
        let rc = e.read(case, T1);
        e.branch(br(BrCond::Eq, r, rc), target);
    }

    fn gep(e: &mut E, id: InstId, base: ValueId, offset: i64, dynamic: &[(ValueId, u64)]) {
        Self::load_to(e, base, T0);
        for &(idx, size) in dynamic {
            let ri = e.read(idx, T1);
            if size.is_power_of_two() {
                e.push(alu(
                    AluOp::Sll,
                    ri,
                    imm(i64::from(size.trailing_zeros())),
                    T1,
                ));
            } else {
                Self::mat_const(e, size, T2);
                e.push(alu(AluOp::Mul, ri, reg(T2), T1));
            }
            e.push(alu(AluOp::Add, T0, reg(T1), T0));
        }
        let rd = e.dst(id, T2);
        if offset != 0 {
            alu_imm(e, AluOp::Add, T0, offset, rd, T3);
        } else {
            Self::mov(e, rd, T0);
        }
        e.finish(id, rd);
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
