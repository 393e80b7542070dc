//! The SPARC-V9-like implementation ISA and its simulated processor.
//!
//! The second I-ISA of the reproduction: a big-endian, 3-address RISC
//! with 32 integer registers (`%g0` hard-wired to zero), 13-bit
//! immediates (larger constants need `sethi`/`or` sequences — the main
//! reason the paper's SPARC instruction-count ratios exceed the x86
//! ones), and fixed 4-byte instruction encoding. Deviations from real
//! SPARC V9, documented in DESIGN.md: no register windows (the backend
//! uses an explicit callee-save discipline instead), no branch delay
//! slots, and return addresses live in a simulator-internal frame stack.

use crate::codec::{plain, register, tagged};
pub use crate::common::{function_value, FpOp, FUNC_TAG};
use crate::common::{Sym, TrapKind, Width};
use crate::core::{function_index, Cpu, Flags, Flow, Isa, Machine, Program, Regs, FPRS, GPRS};
use llva_core::eval::{self, CastKind};
use llva_core::intrinsics::Intrinsic;

/// An integer register number (0–31; register 0 always reads zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

/// The hard-wired zero register `%g0`.
pub const G0: Reg = Reg(0);
/// The stack pointer `%sp` (`%o6`).
pub const SP: Reg = Reg(14);
/// First argument / return-value register `%o0`.
pub const O0: Reg = Reg(8);
/// Scratch register `%g1`.
pub const G1: Reg = Reg(1);
/// Scratch register `%g2`.
pub const G2: Reg = Reg(2);
/// Scratch register `%g3`.
pub const G3: Reg = Reg(3);
/// Scratch register `%g4` (used for address materialization).
pub const G4: Reg = Reg(4);
/// Arguments passed in registers, `%o0`–`%o5`.
pub const ARG_REGS: u8 = 6;

/// A float register number (0–15, each 64 bits wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FReg(pub u8);

/// Second ALU operand: register or 13-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegOrImm {
    /// Register operand.
    Reg(Reg),
    /// Sign-extended 13-bit immediate.
    Imm(i16),
}

/// Whether `v` fits a signed 13-bit immediate field.
pub fn fits_imm13(v: i64) -> bool {
    (-4096..=4095).contains(&v)
}

/// Integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Signed division.
    Sdiv,
    /// Unsigned division.
    Udiv,
    /// Signed remainder.
    Srem,
    /// Unsigned remainder.
    Urem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Shift left.
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
}

/// Branch conditions over the condition codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// Equal.
    E,
    /// Not equal.
    Ne,
    /// Signed less.
    L,
    /// Signed greater.
    G,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned below.
    Lu,
    /// Unsigned above.
    Gu,
    /// Unsigned below-or-equal.
    Leu,
    /// Unsigned above-or-equal.
    Geu,
}

impl Cond {
    /// Whether the condition holds for the last compare.
    pub fn holds(self, flags: Flags) -> bool {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let order = match self {
            Cond::L | Cond::G | Cond::Le | Cond::Ge => flags.signed,
            _ => flags.unsigned,
        };
        match self {
            Cond::E => order == Some(Equal),
            Cond::Ne => order != Some(Equal),
            Cond::L | Cond::Lu => order == Some(Less),
            Cond::G | Cond::Gu => order == Some(Greater),
            Cond::Le | Cond::Leu => matches!(order, Some(Less | Equal)),
            Cond::Ge | Cond::Geu => matches!(order, Some(Greater | Equal)),
        }
    }
}

/// One SPARC-like instruction (4 bytes each; `MovSym` is the
/// `sethi`+`or` relocation pair and counts as two).
#[derive(Debug, Clone, PartialEq)]
pub enum SparcInst {
    /// `sethi imm22, rd` — rd := imm22 << 10.
    Sethi {
        /// The 22-bit immediate.
        imm22: u32,
        /// Destination.
        rd: Reg,
    },
    /// Three-address ALU operation.
    Alu {
        /// Operation.
        op: AluOp,
        /// First source.
        rs1: Reg,
        /// Second source (register or imm13).
        rhs: RegOrImm,
        /// Destination.
        rd: Reg,
        /// Division by zero traps when set (clear for translations of
        /// `[noexc]` LLVA `div`, §3.3).
        trapping: bool,
    },
    /// `subcc rs1, rhs, %g0` — compare, setting condition codes.
    Cmp {
        /// First source.
        rs1: Reg,
        /// Second source.
        rhs: RegOrImm,
    },
    /// Integer load.
    Ld {
        /// Destination.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Offset.
        off: RegOrImm,
        /// Width.
        width: Width,
        /// Sign-extend.
        signed: bool,
    },
    /// Integer store.
    St {
        /// Source.
        rs: Reg,
        /// Base.
        rs1: Reg,
        /// Offset.
        off: RegOrImm,
        /// Width.
        width: Width,
    },
    /// Float load.
    LdF {
        /// Destination.
        fd: FReg,
        /// Base.
        rs1: Reg,
        /// Offset.
        off: RegOrImm,
        /// 32-bit vs 64-bit.
        is32: bool,
    },
    /// Float store.
    StF {
        /// Source.
        fs: FReg,
        /// Base.
        rs1: Reg,
        /// Offset.
        off: RegOrImm,
        /// 32-bit vs 64-bit.
        is32: bool,
    },
    /// Conditional branch.
    Br {
        /// Condition.
        cond: Cond,
        /// Target instruction index.
        target: u32,
    },
    /// Unconditional branch.
    Ba {
        /// Target instruction index.
        target: u32,
    },
    /// Direct call.
    Call {
        /// Callee function index.
        func: u32,
        /// Optional unwind landing pad.
        unwind: Option<u32>,
    },
    /// Indirect call through a register.
    CallIndirect {
        /// Register with the tagged function value.
        rs: Reg,
        /// Optional unwind landing pad.
        unwind: Option<u32>,
    },
    /// Intrinsic call (§3.5); arguments in `%o0`–`%o5`.
    CallIntrinsic {
        /// Which intrinsic.
        which: Intrinsic,
        /// Number of register arguments.
        nargs: u8,
    },
    /// Return to the caller.
    Ret,
    /// LLVA `unwind`.
    Unwind,
    /// Relocated symbol address (assembles to `sethi`+`or`, counted as
    /// 2 instructions / 8 bytes).
    MovSym {
        /// Destination.
        rd: Reg,
        /// The symbol.
        sym: Sym,
    },
    /// Float register move.
    FMov(FReg, FReg),
    /// Float ALU: `fd := fs1 ⊕ fs2`.
    FAlu {
        /// Operation.
        op: FpOp,
        /// First source.
        fs1: FReg,
        /// Second source.
        fs2: FReg,
        /// Destination.
        fd: FReg,
        /// 32-bit vs 64-bit.
        is32: bool,
    },
    /// Float compare, setting the condition codes.
    FCmp {
        /// First source.
        fs1: FReg,
        /// Second source.
        fs2: FReg,
        /// 32-bit vs 64-bit.
        is32: bool,
    },
    /// Integer → float conversion.
    CvtIF {
        /// Destination float register.
        fd: FReg,
        /// Source integer register.
        rs: Reg,
        /// Produce f32.
        to32: bool,
        /// Source is signed.
        signed: bool,
    },
    /// Float → integer conversion (truncating).
    CvtFI {
        /// Destination integer register.
        rd: Reg,
        /// Source float register.
        fs: FReg,
        /// Source is f32.
        from32: bool,
        /// Produce signed.
        signed: bool,
    },
    /// f32 ↔ f64 conversion.
    CvtFF {
        /// Destination.
        fd: FReg,
        /// Source.
        fs: FReg,
        /// Destination is f32.
        to32: bool,
    },
    /// Move float bits into an integer register.
    MovGF(Reg, FReg),
    /// Move integer bits into a float register.
    MovFG(FReg, Reg),
}

// The cached-code format (see `crate::codec`).
tagged!(SparcInst {
    0 Sethi { imm22, rd },
    1 Alu { op, rs1, rhs, rd, trapping },
    2 Cmp { rs1, rhs },
    3 Ld { rd, rs1, off, width, signed },
    4 St { rs, rs1, off, width },
    5 LdF { fd, rs1, off, is32 },
    6 StF { fs, rs1, off, is32 },
    7 Br { cond, target },
    8 Ba { target },
    9 Call { func, unwind },
    10 CallIndirect { rs, unwind },
    11 CallIntrinsic { which, nargs in ..=ARG_REGS },
    12 Ret,
    13 Unwind,
    14 MovSym { rd, sym },
    15 FMov(a, b),
    16 FAlu { op, fs1, fs2, fd, is32 },
    17 FCmp { fs1, fs2, is32 },
    18 CvtIF { fd, rs, to32, signed },
    19 CvtFI { rd, fs, from32, signed },
    20 CvtFF { fd, fs, to32 },
    21 MovGF(r, f),
    22 MovFG(f, r),
});
tagged!(RegOrImm { 0 Reg(r), 1 Imm(v) });
plain!(
    AluOp { Add, Sub, Mul, Sdiv, Udiv, Srem, Urem, And, Or, Xor, Sll, Srl, Sra },
    Cond { E, Ne, L, G, Le, Ge, Lu, Gu, Leu, Geu },
);
register!(Reg < GPRS, FReg < FPRS);

/// A translated SPARC-like program.
pub type SparcProgram = Program<SparcInst>;

/// The simulated SPARC-like processor.
pub type SparcMachine = Machine<SparcInst>;

/// Writes `r` unless it is `%g0`. Since `%g0` is never written, reads
/// index the register file directly.
fn set(regs: &mut Regs, r: Reg, v: u64) {
    if r.0 != 0 {
        regs.gpr[r.0 as usize] = v;
    }
}

fn operand(regs: &Regs, roi: RegOrImm) -> u64 {
    match roi {
        RegOrImm::Reg(r) => regs.gpr[r.0 as usize],
        RegOrImm::Imm(v) => v as i64 as u64,
    }
}

impl Isa for SparcInst {
    const SP: usize = SP.0 as usize;
    const RESULT: usize = O0.0 as usize;

    /// `MovSym` is the `sethi`+`or` pair and counts as two.
    fn weight(&self) -> u32 {
        match self {
            SparcInst::MovSym { .. } => 2,
            _ => 1,
        }
    }

    /// 4 bytes per real instruction.
    fn native_size(&self) -> u32 {
        self.weight() * 4
    }

    /// Arguments in `%o0`–`%o5`, extras on the stack.
    fn enter(cpu: &mut Cpu, args: &[u64]) -> Result<(), TrapKind> {
        cpu.pass_in_registers(O0.0 as usize, ARG_REGS.into(), Self::SP, args)
    }

    #[allow(clippy::too_many_lines)]
    #[inline]
    fn exec(&self, cpu: &mut Cpu, program: &Program<SparcInst>) -> Result<Flow, TrapKind> {
        use SparcInst as I;
        let Cpu {
            regs,
            flags,
            mem,
            stats,
        } = cpu;
        let mut cycles = 1;
        match self {
            I::Sethi { imm22, rd } => set(regs, *rd, u64::from(*imm22) << 10),
            I::Alu {
                op,
                rs1,
                rhs,
                rd,
                trapping,
            } => {
                let (a, b) = (regs.gpr[rs1.0 as usize], operand(regs, *rhs));
                let v = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::Mul => {
                        cycles = 3;
                        a.wrapping_mul(b)
                    }
                    AluOp::Sdiv | AluOp::Udiv | AluOp::Srem | AluOp::Urem => {
                        cycles = 20;
                        if b == 0 {
                            if *trapping {
                                return Err(TrapKind::DivideByZero);
                            }
                            0
                        } else {
                            match op {
                                AluOp::Sdiv => (a as i64).wrapping_div(b as i64) as u64,
                                AluOp::Udiv => a / b,
                                AluOp::Srem => (a as i64).wrapping_rem(b as i64) as u64,
                                _ => a % b,
                            }
                        }
                    }
                    AluOp::And => a & b,
                    AluOp::Or => a | b,
                    AluOp::Xor => a ^ b,
                    AluOp::Sll => a.wrapping_shl((b & 63) as u32),
                    AluOp::Srl => a.wrapping_shr((b & 63) as u32),
                    AluOp::Sra => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
                };
                set(regs, *rd, v);
            }
            I::Cmp { rs1, rhs } => *flags = Flags::int(regs.gpr[rs1.0 as usize], operand(regs, *rhs)),
            I::Ld {
                rd,
                rs1,
                off,
                width,
                signed,
            } => {
                let a = regs.gpr[rs1.0 as usize].wrapping_add(operand(regs, *off));
                let v = if *signed {
                    mem.load_signed(a, *width)?
                } else {
                    mem.load(a, *width)?
                };
                set(regs, *rd, v);
                stats.loads += 1;
                cycles = 2;
            }
            I::St {
                rs,
                rs1,
                off,
                width,
            } => {
                let a = regs.gpr[rs1.0 as usize].wrapping_add(operand(regs, *off));
                mem.store(a, regs.gpr[rs.0 as usize], *width)?;
                stats.stores += 1;
                cycles = 2;
            }
            I::LdF { fd, rs1, off, is32 } => {
                let a = regs.gpr[rs1.0 as usize].wrapping_add(operand(regs, *off));
                let width = if *is32 { Width::B4 } else { Width::B8 };
                regs.fpr[fd.0 as usize] = mem.load(a, width)?;
                stats.loads += 1;
                cycles = 2;
            }
            I::StF { fs, rs1, off, is32 } => {
                let a = regs.gpr[rs1.0 as usize].wrapping_add(operand(regs, *off));
                let v = regs.fpr[fs.0 as usize];
                if *is32 {
                    mem.store(a, v & 0xFFFF_FFFF, Width::B4)?;
                } else {
                    mem.store(a, v, Width::B8)?;
                }
                stats.stores += 1;
                cycles = 2;
            }
            I::Br { cond, target } => {
                if cond.holds(*flags) {
                    return Ok(Flow::Jump(*target));
                }
            }
            I::Ba { target } => return Ok(Flow::Jump(*target)),
            I::Call { func, unwind } => {
                stats.calls += 1;
                return Ok(Flow::Call {
                    func: *func,
                    unwind: *unwind,
                    cycles: 2,
                });
            }
            I::CallIndirect { rs, unwind } => {
                let func = function_index(regs.gpr[rs.0 as usize])?;
                stats.calls += 1;
                return Ok(Flow::Call {
                    func,
                    unwind: *unwind,
                    cycles: 3,
                });
            }
            I::CallIntrinsic { which, nargs } => {
                stats.calls += 1;
                let first = O0.0 as usize;
                return Ok(Flow::Intrinsic {
                    which: *which,
                    args: regs.gpr[first..first + usize::from(*nargs)].to_vec(),
                });
            }
            I::Ret => return Ok(Flow::Ret),
            I::Unwind => return Ok(Flow::Unwind),
            I::MovSym { rd, sym } => {
                set(regs, *rd, program.resolve(*sym)?);
                cycles = 2; // sethi + or
            }
            I::FMov(d, s) => regs.fpr[d.0 as usize] = regs.fpr[s.0 as usize],
            I::FAlu {
                op,
                fs1,
                fs2,
                fd,
                is32,
            } => {
                let (a, b) = (regs.fpr[fs1.0 as usize], regs.fpr[fs2.0 as usize]);
                regs.fpr[fd.0 as usize] = op.apply(a, b, *is32);
                cycles = 3;
            }
            I::FCmp { fs1, fs2, is32 } => {
                let (a, b) = (regs.fpr[fs1.0 as usize], regs.fpr[fs2.0 as usize]);
                *flags = Flags::float(a, b, *is32);
                cycles = 2;
            }
            I::CvtIF {
                fd,
                rs,
                to32,
                signed,
            } => {
                let kind = CastKind::IntToFloat { src_signed: *signed, dst32: *to32 };
                regs.fpr[fd.0 as usize] = eval::cast(kind, regs.gpr[rs.0 as usize]);
                cycles = 3;
            }
            I::CvtFI {
                rd,
                fs,
                from32,
                signed,
            } => {
                let kind = CastKind::FloatToInt { src32: *from32, width: 64, signed: *signed };
                let v = eval::cast(kind, regs.fpr[fs.0 as usize]);
                set(regs, *rd, v);
                cycles = 3;
            }
            I::CvtFF { fd, fs, to32 } => {
                let kind = CastKind::FloatToFloat { src32: !*to32, dst32: *to32 };
                regs.fpr[fd.0 as usize] = eval::cast(kind, regs.fpr[fs.0 as usize]);
                cycles = 2;
            }
            I::MovGF(rd, fs) => {
                let v = regs.fpr[fs.0 as usize];
                set(regs, *rd, v);
            }
            I::MovFG(fd, rs) => regs.fpr[fd.0 as usize] = regs.gpr[rs.0 as usize],
        }
        Ok(Flow::Next(cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Exit;
    use crate::memory::Memory;
    use llva_core::layout::Endianness;

    fn machine() -> SparcMachine {
        SparcMachine::new(Memory::new(1 << 20, 0x2000, Endianness::Big))
    }

    #[test]
    fn g0_is_always_zero() {
        use SparcInst as I;
        let mut p = SparcProgram::new(1, vec![]);
        let or = |rs1, imm, rd| I::Alu {
            op: AluOp::Or,
            rs1,
            rhs: RegOrImm::Imm(imm),
            rd,
            trapping: false,
        };
        p.install(0, vec![or(G0, 42, G0), or(G0, 0, O0), I::Ret]);
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        assert_eq!(m.run(&p, 100), Exit::Halt(0));
    }

    #[test]
    fn sethi_or_builds_constants() {
        use SparcInst as I;
        let mut p = SparcProgram::new(1, vec![]);
        // build 0x12345678 into %o0: sethi hi22, o0; or o0, lo10
        let v = 0x1234_5678u64;
        p.install(
            0,
            vec![
                I::Sethi {
                    imm22: (v >> 10) as u32,
                    rd: O0,
                },
                I::Alu {
                    op: AluOp::Or,
                    rs1: O0,
                    rhs: RegOrImm::Imm((v & 0x3FF) as i16),
                    rd: O0,
                    trapping: false,
                },
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        assert_eq!(m.run(&p, 100), Exit::Halt(v));
    }

    #[test]
    fn register_args_and_return() {
        use SparcInst as I;
        let mut p = SparcProgram::new(1, vec![]);
        // o0 = o0 + o1
        p.install(
            0,
            vec![
                I::Alu {
                    op: AluOp::Add,
                    rs1: Reg(8),
                    rhs: RegOrImm::Reg(Reg(9)),
                    rd: O0,
                    trapping: false,
                },
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[30, 12]).unwrap();
        assert_eq!(m.run(&p, 100), Exit::Halt(42));
    }

    #[test]
    fn branch_loop_sums() {
        use SparcInst as I;
        // sum 1..=n: l0 (r16) = acc, o0 = n
        let mut p = SparcProgram::new(1, vec![]);
        p.install(
            0,
            vec![
                I::Alu {
                    op: AluOp::Or,
                    rs1: G0,
                    rhs: RegOrImm::Imm(0),
                    rd: Reg(16),
                    trapping: false,
                }, // acc = 0
                // loop:
                I::Alu {
                    op: AluOp::Add,
                    rs1: Reg(16),
                    rhs: RegOrImm::Reg(O0),
                    rd: Reg(16),
                    trapping: false,
                },
                I::Alu {
                    op: AluOp::Sub,
                    rs1: O0,
                    rhs: RegOrImm::Imm(1),
                    rd: O0,
                    trapping: false,
                },
                I::Cmp {
                    rs1: O0,
                    rhs: RegOrImm::Imm(0),
                },
                I::Br {
                    cond: Cond::G,
                    target: 1,
                },
                I::Alu {
                    op: AluOp::Or,
                    rs1: Reg(16),
                    rhs: RegOrImm::Imm(0),
                    rd: O0,
                    trapping: false,
                },
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[5]).unwrap();
        assert_eq!(m.run(&p, 1000), Exit::Halt(15));
    }

    #[test]
    fn memory_is_big_endian() {
        use SparcInst as I;
        let mut p = SparcProgram::new(1, vec![]);
        p.install(
            0,
            vec![
                I::Alu {
                    op: AluOp::Or,
                    rs1: G0,
                    rhs: RegOrImm::Imm(0x1AB),
                    rd: G1,
                    trapping: false,
                },
                I::St {
                    rs: G1,
                    rs1: SP,
                    off: RegOrImm::Imm(-8),
                    width: Width::B4,
                },
                I::Ld {
                    rd: O0,
                    rs1: SP,
                    off: RegOrImm::Imm(-8),
                    width: Width::B1,
                    signed: false,
                },
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        // big-endian: first byte of 0x000001AB is 0x00
        assert_eq!(m.run(&p, 100), Exit::Halt(0));
    }

    #[test]
    fn div_by_zero_trap_and_nontrapping() {
        use SparcInst as I;
        for (trapping, expect_trap) in [(true, true), (false, false)] {
            let mut p = SparcProgram::new(1, vec![]);
            p.install(
                0,
                vec![
                    I::Alu {
                        op: AluOp::Sdiv,
                        rs1: O0,
                        rhs: RegOrImm::Reg(G0),
                        rd: O0,
                        trapping,
                    },
                    I::Ret,
                ],
            );
            let mut m = machine();
            m.call_entry(0, &[10]).unwrap();
            match m.run(&p, 100) {
                Exit::Trapped(t) if expect_trap => assert_eq!(t.kind, TrapKind::DivideByZero),
                Exit::Halt(0) if !expect_trap => {}
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn movsym_weight_counts_double() {
        use SparcInst as I;
        let inst = I::MovSym {
            rd: O0,
            sym: Sym::Global(0),
        };
        assert_eq!(inst.weight(), 2);
        assert_eq!(inst.native_size(), 8);
        let mut p = SparcProgram::new(1, vec![0x4000]);
        p.install(0, vec![inst, I::Ret]);
        assert_eq!(p.total_insts(), 3);
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        assert_eq!(m.run(&p, 100), Exit::Halt(0x4000));
    }

    #[test]
    fn float_and_conversion() {
        use SparcInst as I;
        let mut p = SparcProgram::new(1, vec![]);
        // o0 = (int)(1.5 + 2.25) -> 3
        p.install(
            0,
            vec![
                I::Alu {
                    op: AluOp::Or,
                    rs1: G0,
                    rhs: RegOrImm::Imm(3),
                    rd: G1,
                    trapping: false,
                },
                I::CvtIF {
                    fd: FReg(0),
                    rs: G1,
                    to32: false,
                    signed: true,
                }, // f0 = 3.0
                I::Alu {
                    op: AluOp::Or,
                    rs1: G0,
                    rhs: RegOrImm::Imm(2),
                    rd: G1,
                    trapping: false,
                },
                I::CvtIF {
                    fd: FReg(1),
                    rs: G1,
                    to32: false,
                    signed: true,
                }, // f1 = 2.0
                I::FAlu {
                    op: FpOp::Div,
                    fs1: FReg(0),
                    fs2: FReg(1),
                    fd: FReg(2),
                    is32: false,
                }, // 1.5
                I::CvtFI {
                    rd: O0,
                    fs: FReg(2),
                    from32: false,
                    signed: true,
                }, // 1
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        assert_eq!(m.run(&p, 100), Exit::Halt(1));
    }

    #[test]
    fn intrinsic_args_from_o_regs() {
        use SparcInst as I;
        let mut p = SparcProgram::new(1, vec![]);
        p.install(
            0,
            vec![
                I::Alu {
                    op: AluOp::Or,
                    rs1: G0,
                    rhs: RegOrImm::Imm(65),
                    rd: O0,
                    trapping: false,
                },
                I::CallIntrinsic {
                    which: Intrinsic::IoPutChar,
                    nargs: 1,
                },
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        match m.run(&p, 100) {
            Exit::Intrinsic { which, args } => {
                assert_eq!(which, Intrinsic::IoPutChar);
                assert_eq!(args, vec![65]);
            }
            other => panic!("unexpected {other:?}"),
        }
        m.finish_intrinsic(0);
        assert_eq!(m.run(&p, 100), Exit::Halt(0));
    }

    #[test]
    fn unwind_across_frames() {
        use SparcInst as I;
        let mut p = SparcProgram::new(3, vec![]);
        p.install(2, vec![I::Unwind]); // innermost
        p.install(
            1,
            vec![
                I::Call {
                    func: 2,
                    unwind: None,
                },
                I::Ret,
            ],
        ); // middle, no pad
        p.install(
            0,
            vec![
                I::Call {
                    func: 1,
                    unwind: Some(3),
                },
                I::Alu {
                    op: AluOp::Or,
                    rs1: G0,
                    rhs: RegOrImm::Imm(1),
                    rd: O0,
                    trapping: false,
                },
                I::Ret,
                I::Alu {
                    op: AluOp::Or,
                    rs1: G0,
                    rhs: RegOrImm::Imm(99),
                    rd: O0,
                    trapping: false,
                }, // pad
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        assert_eq!(m.run(&p, 1000), Exit::Halt(99));
    }
}
