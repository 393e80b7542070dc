//! Every instruction variant of every ISA, and every value of every
//! operand enum, encoded for the native-code cache and pinned to a
//! recorded table.
//!
//! `native_golden.rs` hashes only the instructions the translators
//! emit. This table also pins the variants and operand values they
//! never produce, so renumbering any tag of the cached-code format
//! changes a line here. Each sample must decode back to itself, and the
//! samples must cover every instruction tag the decoder accepts.
//!
//! On a mismatch the test writes the table it computed next to the
//! build's other test output and names the file. Copying it over
//! `tests/golden/codec.txt` re-records the table, which is only right
//! when the cached-code format is *meant* to change.

use llva::core::intrinsics::Intrinsic;
use llva::machine::codec::{decode, encode, Field};
use llva::machine::common::{FpOp, Sym, Width};
use llva::machine::{riscv, sparc, x86};
use std::collections::BTreeSet;
use std::fmt::{Debug, Write as _};

const GOLDEN: &str = include_str!("golden/codec.txt");
const FP: [FpOp; 4] = [FpOp::Add, FpOp::Sub, FpOp::Mul, FpOp::Div];
const WIDTHS: [Width; 4] = [Width::B1, Width::B2, Width::B4, Width::B8];

fn x86_samples() -> Vec<x86::X86Inst> {
    use x86::{AluOp as A, Cond as C, Fpr, Gpr, MemOp, Norm, X86Inst as I};
    let m = |base, disp| MemOp { base, disp };
    let mut v = vec![
        I::MovRI(Gpr::Ecx, -0x1234_5678_9abc),
        I::MovRR(Gpr::Edx, Gpr::Ebx),
        I::MovRSym(Gpr::Esi, Sym::Function(7)),
        I::Load { dst: Gpr::Edi, mem: m(Gpr::Ebp, -16), width: Width::B2, signed: true },
        I::Store { src: Gpr::Ecx, mem: m(Gpr::Esp, 24), width: Width::B4 },
        I::Lea(Gpr::Eax, m(Gpr::Ebx, 0x1_0000)),
        I::AluRR(A::Sar, Gpr::Esi, Gpr::Edi, Norm::Sext32),
        I::AluRI(A::Xor, Gpr::Edx, 0x7fff_ffff_ffff, Norm::Zext32),
        I::AluRM(A::Sub, Gpr::Ecx, m(Gpr::Ebp, -8), Norm::None),
        I::IMulRR(Gpr::Ebx, Gpr::Ecx, Norm::Sext32),
        I::IMulRM(Gpr::Edi, m(Gpr::Esi, 4), Norm::Zext32),
        I::Cdq,
        I::Div { signed: true, divisor: Gpr::Ebx, trapping: false, norm: Norm::Zext32 },
        I::CmpRR(Gpr::Eax, Gpr::Edi),
        I::CmpRI(Gpr::Esi, -1),
        I::CmpRM(Gpr::Edx, m(Gpr::Ebp, -32)),
        I::Setcc(C::Be, Gpr::Ecx),
        I::Jmp(0x0102_0304),
        I::Jcc(C::Ge, 77),
        I::CallFn { func: 9, unwind: Some(12) },
        I::CallIndirect { target: Gpr::Edx, unwind: None },
        I::CallIntrinsic { which: Intrinsic::HeapAlloc, nargs: 3 },
        I::Ret,
        I::Unwind,
        I::Push(Gpr::Ebp),
        I::Pop(Gpr::Edi),
        I::FLoad { dst: Fpr(3), mem: m(Gpr::Ebp, -40), is32: true },
        I::FStore { src: Fpr(5), mem: m(Gpr::Esp, 8), is32: false },
        I::FMovRR(Fpr(1), Fpr(6)),
        I::FAlu(FpOp::Div, Fpr(2), Fpr(7), true),
        I::FCmp(Fpr(4), Fpr(0), false),
        I::CvtIF { dst: Fpr(6), src: Gpr::Esi, to32: true, signed: false },
        I::CvtFI { dst: Gpr::Ebx, src: Fpr(2), from32: false, signed: true },
        I::CvtFF { dst: Fpr(1), src: Fpr(3), to32: true },
        I::MovGF(Gpr::Ecx, Fpr(7)),
        I::MovFG(Fpr(5), Gpr::Edx),
        I::SignExtend(Gpr::Eax, Width::B1),
        I::ZeroExtend(Gpr::Ebx, Width::B4),
    ];
    let alu = [A::Add, A::Sub, A::And, A::Or, A::Xor, A::Shl, A::Shr, A::Sar];
    v.extend(alu.map(|op| I::AluRR(op, Gpr::Eax, Gpr::Ecx, Norm::None)));
    let cond = [C::E, C::Ne, C::L, C::G, C::Le, C::Ge, C::B, C::A, C::Be, C::Ae];
    v.extend(cond.map(|c| I::Jcc(c, 1)));
    v.extend([Norm::None, Norm::Sext32, Norm::Zext32].map(|n| I::IMulRR(Gpr::Eax, Gpr::Eax, n)));
    v.extend(Gpr::ALL.map(I::Push));
    v.extend(FP.map(|op| I::FAlu(op, Fpr(0), Fpr(1), false)));
    v.extend(WIDTHS.map(|w| I::ZeroExtend(Gpr::Eax, w)));
    v.extend(Intrinsic::ALL.map(|which| I::CallIntrinsic { which, nargs: 0 }));
    v
}

fn sparc_samples() -> Vec<sparc::SparcInst> {
    use sparc::{AluOp as A, Cond as C, FReg, Reg, RegOrImm, SparcInst as I};
    let mut v = vec![
        I::Sethi { imm22: 0x3f_ffff, rd: Reg(17) },
        I::Alu { op: A::Srem, rs1: Reg(9), rhs: RegOrImm::Imm(-4096), rd: Reg(31), trapping: true },
        I::Cmp { rs1: Reg(10), rhs: RegOrImm::Reg(Reg(11)) },
        I::Ld { rd: Reg(16), rs1: Reg(30), off: RegOrImm::Imm(-8), width: Width::B8, signed: false },
        I::St { rs: Reg(12), rs1: Reg(14), off: RegOrImm::Reg(Reg(3)), width: Width::B1 },
        I::LdF { fd: FReg(15), rs1: Reg(30), off: RegOrImm::Imm(16), is32: true },
        I::StF { fs: FReg(2), rs1: Reg(14), off: RegOrImm::Imm(4095), is32: false },
        I::Br { cond: C::Geu, target: 300 },
        I::Ba { target: 0xdead },
        I::Call { func: 4, unwind: None },
        I::CallIndirect { rs: Reg(5), unwind: Some(0x1_0000) },
        I::CallIntrinsic { which: Intrinsic::IoPutChar, nargs: 6 },
        I::Ret,
        I::Unwind,
        I::MovSym { rd: Reg(4), sym: Sym::Global(2) },
        I::FMov(FReg(8), FReg(9)),
        I::FAlu { op: FpOp::Mul, fs1: FReg(1), fs2: FReg(2), fd: FReg(3), is32: false },
        I::FCmp { fs1: FReg(10), fs2: FReg(11), is32: true },
        I::CvtIF { fd: FReg(12), rs: Reg(20), to32: false, signed: true },
        I::CvtFI { rd: Reg(21), fs: FReg(13), from32: true, signed: false },
        I::CvtFF { fd: FReg(14), fs: FReg(0), to32: false },
        I::MovGF(Reg(22), FReg(6)),
        I::MovFG(FReg(7), Reg(23)),
    ];
    let alu = [
        A::Add, A::Sub, A::Mul, A::Sdiv, A::Udiv, A::Srem, A::Urem, A::And, A::Or, A::Xor, A::Sll,
        A::Srl, A::Sra,
    ];
    let g1 = RegOrImm::Reg(Reg(1));
    v.extend(alu.map(|op| I::Alu { op, rs1: Reg(1), rhs: g1, rd: Reg(2), trapping: false }));
    let cond = [C::E, C::Ne, C::L, C::G, C::Le, C::Ge, C::Lu, C::Gu, C::Leu, C::Geu];
    v.extend(cond.map(|cond| I::Br { cond, target: 1 }));
    v.extend(FP.map(|op| I::FAlu { op, fs1: FReg(0), fs2: FReg(1), fd: FReg(2), is32: true }));
    v.extend(WIDTHS.map(|width| I::St { rs: Reg(1), rs1: Reg(2), off: g1, width }));
    v.extend(Intrinsic::ALL.map(|which| I::CallIntrinsic { which, nargs: 0 }));
    v
}

fn riscv_samples() -> Vec<riscv::RiscvInst> {
    use riscv::{AluOp as A, BrCond as B, FReg, FSetOp as S, Reg, RegOrImm, RiscvInst as I};
    let mut v = vec![
        I::Lui { imm20: 0xf_ffff, rd: Reg(10) },
        I::Alu { op: A::Sltu, rs1: Reg(11), rhs: RegOrImm::Reg(Reg(12)), rd: Reg(13), trapping: false },
        I::Ld { rd: Reg(14), rs1: Reg(8), off: -2048, width: Width::B4, signed: true },
        I::St { rs: Reg(15), rs1: Reg(2), off: 2047, width: Width::B2 },
        I::LdF { fd: FReg(9), rs1: Reg(8), off: -24, is32: false },
        I::StF { fs: FReg(10), rs1: Reg(2), off: 40, is32: true },
        I::Br { cond: B::Ltu, rs1: Reg(5), rs2: Reg(6), target: 1234 },
        I::J { target: 99 },
        I::Call { func: 3, unwind: Some(7) },
        I::CallIndirect { rs: Reg(7), unwind: None },
        I::CallIntrinsic { which: Intrinsic::Clock, nargs: 8 },
        I::Ret,
        I::Unwind,
        I::MovSym { rd: Reg(28), sym: Sym::Function(1) },
        I::FMov(FReg(11), FReg(12)),
        I::FAlu { op: FpOp::Sub, fs1: FReg(4), fs2: FReg(5), fd: FReg(6), is32: true },
        I::FSet { op: S::Fle, rd: Reg(29), fs1: FReg(3), fs2: FReg(4), is32: true },
        I::CvtIF { fd: FReg(7), rs: Reg(18), to32: true, signed: false },
        I::CvtFI { rd: Reg(19), fs: FReg(8), from32: false, signed: true },
        I::CvtFF { fd: FReg(13), fs: FReg(14), to32: true },
        I::MovGF(Reg(30), FReg(15)),
        I::MovFG(FReg(0), Reg(31)),
    ];
    let alu = [
        A::Add, A::Sub, A::Mul, A::Sdiv, A::Udiv, A::Srem, A::Urem, A::And, A::Or, A::Xor, A::Sll,
        A::Srl, A::Sra, A::Slt, A::Sltu,
    ];
    let imm = RegOrImm::Imm(-7);
    v.extend(alu.map(|op| I::Alu { op, rs1: Reg(1), rhs: imm, rd: Reg(2), trapping: true }));
    let cond = [B::Eq, B::Ne, B::Lt, B::Ge, B::Ltu, B::Geu];
    v.extend(cond.map(|cond| I::Br { cond, rs1: Reg(1), rs2: Reg(2), target: 1 }));
    let fset = [S::Feq, S::Flt, S::Fle];
    v.extend(fset.map(|op| I::FSet { op, rd: Reg(1), fs1: FReg(0), fs2: FReg(1), is32: false }));
    v.extend(FP.map(|op| I::FAlu { op, fs1: FReg(0), fs2: FReg(1), fd: FReg(2), is32: false }));
    v.extend(WIDTHS.map(|width| I::St { rs: Reg(1), rs1: Reg(2), off: 0, width }));
    v.extend(Intrinsic::ALL.map(|which| I::CallIntrinsic { which, nargs: 0 }));
    v
}

/// Appends the `isa hex debug` line of `sample`, after checking that it
/// decodes to itself, and returns its instruction tag.
fn line<I: Field + Debug + PartialEq>(out: &mut String, isa: &str, sample: &I) -> u8 {
    let blob = encode(std::slice::from_ref(sample));
    let back = decode::<Vec<I>>(&blob).expect("decodes");
    assert_eq!(back, std::slice::from_ref(sample), "{isa} {sample:?}");
    let hex: String = blob[4..].iter().map(|b| format!("{b:02x}")).collect();
    writeln!(out, "{isa} {hex} {sample:?}").expect("writes to a String");
    blob[4]
}

/// Appends one `isa hex debug` line per sample, after checking that
/// each decodes to itself and that the samples use every instruction
/// tag the decoder accepts.
fn rows<I: Field + Debug + PartialEq>(out: &mut String, isa: &str, samples: &[I]) {
    let mut used = BTreeSet::new();
    for s in samples {
        used.insert(line(out, isa, s));
    }
    // with some number of all-zero operand bytes, every tag the
    // decoder knows decodes
    let accepted: BTreeSet<u8> = (0..=255u8)
        .filter(|&tag| {
            (0..32).any(|n| {
                let mut blob = vec![1, 0, 0, 0, tag];
                blob.extend(std::iter::repeat_n(0, n));
                decode::<Vec<I>>(&blob).is_ok()
            })
        })
        .collect();
    assert_eq!(used, accepted, "{isa}: the samples must use every instruction tag");
}

#[test]
fn every_variant_matches_the_recorded_bytes() {
    let mut got = String::new();
    rows(&mut got, "x86", &x86_samples());
    rows(&mut got, "sparc", &sparc_samples());
    rows(&mut got, "riscv", &riscv_samples());
    // operand values added after the table was first recorded, after
    // every earlier row so those rows keep their lines
    line(&mut got, "x86", &x86::X86Inst::FAlu(FpOp::Rem, x86::Fpr(0), x86::Fpr(1), false));
    let (fs1, fs2, fd) = (sparc::FReg(0), sparc::FReg(1), sparc::FReg(2));
    line(&mut got, "sparc", &sparc::SparcInst::FAlu { op: FpOp::Rem, fs1, fs2, fd, is32: true });
    let (fs1, fs2, fd) = (riscv::FReg(0), riscv::FReg(1), riscv::FReg(2));
    line(&mut got, "riscv", &riscv::RiscvInst::FAlu { op: FpOp::Rem, fs1, fs2, fd, is32: false });
    if got == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("codec.txt");
    std::fs::write(&path, &got).expect("writes the computed table");
    let first = got
        .lines()
        .zip(GOLDEN.lines())
        .find(|(g, w)| g != w)
        .map_or_else(
            || "the tables differ in length".to_string(),
            |(g, w)| format!("first difference:\n  recorded: {w}\n  computed: {g}"),
        );
    panic!("{first}\n(computed table written to {})", path.display());
}
