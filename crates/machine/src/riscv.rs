//! The RV64-like implementation ISA and its simulated processor.
//!
//! The third I-ISA of the reproduction: a little-endian, 3-address RISC
//! with 32 integer registers (`x0` hard-wired to zero), 12-bit
//! immediates (one bit narrower than SPARC's — larger constants need
//! `lui`/`addi` pairs), fixed 4-byte instructions, and **no condition
//! codes**: comparisons either fuse into compare-and-branch
//! instructions (`beq`/`bne`/`blt`/…) or materialize booleans with
//! `slt`/`sltu`, exactly the RISC-V model. This is the structural
//! divergence from the SPARC back end that makes the 3-way conformance
//! vote interesting — a flag-model bug in one back end cannot be
//! mirrored here.
//!
//! Deviations from real RV64, documented in DESIGN.md: divide-by-zero
//! traps when the `trapping` flag is set (real RV64M returns all-ones;
//! the flag stands in for the explicit zero-check branch a faithful
//! translation would emit), loads/stores keep their immediate-only
//! 12-bit offsets but ALU ops accept an immediate second operand for
//! every opcode, and return addresses live in a simulator-internal
//! frame stack (no architectural `ra` linkage).

use crate::codec::{plain, register, tagged};
pub use crate::common::{function_value, FpOp, FUNC_TAG};
use crate::common::{Sym, TrapKind, Width};
use crate::core::{function_index, Cpu, Flow, Isa, Machine, Program, Regs, FPRS, GPRS};
use llva_core::eval::{self, CastKind, CmpClass};
use llva_core::instruction::Opcode;
use llva_core::intrinsics::Intrinsic;

/// An integer register number (0–31; register 0 always reads zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

/// The hard-wired zero register `x0`/`zero`.
pub const X0: Reg = Reg(0);
/// The stack pointer `x2`/`sp`.
pub const SP: Reg = Reg(2);
/// The frame pointer `x8`/`s0`.
pub const FP: Reg = Reg(8);
/// First argument / return-value register `x10`/`a0`.
pub const A0: Reg = Reg(10);
/// Scratch register `x5`/`t0`.
pub const T0: Reg = Reg(5);
/// Scratch register `x6`/`t1`.
pub const T1: Reg = Reg(6);
/// Scratch register `x7`/`t2` (used for address materialization).
pub const T2: Reg = Reg(7);
/// Arguments passed in registers, `a0`–`a7`.
pub const ARG_REGS: u8 = 8;

/// A float register number (0–15, each 64 bits wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FReg(pub u8);

/// Second ALU operand: register or 12-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegOrImm {
    /// Register operand.
    Reg(Reg),
    /// Sign-extended 12-bit immediate.
    Imm(i16),
}

/// Whether `v` fits a signed 12-bit immediate field.
pub fn fits_imm12(v: i64) -> bool {
    (-2048..=2047).contains(&v)
}

/// Integer ALU operations (RV64IM plus `slt`/`sltu` as ordinary ops).
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
    /// Set if signed less-than (rd := rs1 < rhs).
    Slt,
    /// Set if unsigned less-than.
    Sltu,
}

/// Compare-and-branch conditions (the six real RV branch opcodes;
/// greater-than forms come from swapping operands).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrCond {
    /// `beq` — equal.
    Eq,
    /// `bne` — not equal.
    Ne,
    /// `blt` — signed less.
    Lt,
    /// `bge` — signed greater-or-equal.
    Ge,
    /// `bltu` — unsigned below.
    Ltu,
    /// `bgeu` — unsigned above-or-equal.
    Geu,
}

/// Float comparisons writing 0/1 into an integer register (`feq`,
/// `flt`, `fle`; all false on unordered operands, as in real RISC-V).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FSetOp {
    /// Equal.
    Feq,
    /// Less-than.
    Flt,
    /// Less-or-equal.
    Fle,
}

/// One RV64-like instruction (4 bytes each; `MovSym` is the
/// `auipc`+`addi` relocation pair and counts as two).
#[derive(Debug, Clone, PartialEq)]
pub enum RiscvInst {
    /// `lui imm20, rd` — rd := sign-extend32(imm20 << 12).
    Lui {
        /// The 20-bit immediate.
        imm20: u32,
        /// Destination.
        rd: Reg,
    },
    /// Three-address ALU operation.
    Alu {
        /// Operation.
        op: AluOp,
        /// First source.
        rs1: Reg,
        /// Second source (register or imm12).
        rhs: RegOrImm,
        /// Destination.
        rd: Reg,
        /// Division by zero traps when set (clear for translations of
        /// `[noexc]` LLVA `div`, §3.3).
        trapping: bool,
    },
    /// Integer load (immediate-only 12-bit offset, as in real RV).
    Ld {
        /// Destination.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Signed 12-bit offset.
        off: i16,
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
        /// Signed 12-bit offset.
        off: i16,
        /// Width.
        width: Width,
    },
    /// Float load.
    LdF {
        /// Destination.
        fd: FReg,
        /// Base.
        rs1: Reg,
        /// Signed 12-bit offset.
        off: i16,
        /// 32-bit vs 64-bit.
        is32: bool,
    },
    /// Float store.
    StF {
        /// Source.
        fs: FReg,
        /// Base.
        rs1: Reg,
        /// Signed 12-bit offset.
        off: i16,
        /// 32-bit vs 64-bit.
        is32: bool,
    },
    /// Compare-and-branch — no condition codes anywhere in this ISA.
    Br {
        /// Condition.
        cond: BrCond,
        /// First compared register.
        rs1: Reg,
        /// Second compared register.
        rs2: Reg,
        /// Target instruction index.
        target: u32,
    },
    /// Unconditional jump (`jal x0`).
    J {
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
    /// Indirect call through a register (`jalr`).
    CallIndirect {
        /// Register with the tagged function value.
        rs: Reg,
        /// Optional unwind landing pad.
        unwind: Option<u32>,
    },
    /// Intrinsic call (§3.5); arguments in `a0`–`a7`.
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
    /// Relocated symbol address (assembles to `auipc`+`addi`, counted
    /// as 2 instructions / 8 bytes).
    MovSym {
        /// Destination.
        rd: Reg,
        /// The symbol.
        sym: Sym,
    },
    /// Float register move (`fsgnj.d fd, fs, fs`).
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
    /// Float compare writing 0/1 into an integer register.
    FSet {
        /// Comparison.
        op: FSetOp,
        /// Integer destination.
        rd: Reg,
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
    /// Move float bits into an integer register (`fmv.x.d`).
    MovGF(Reg, FReg),
    /// Move integer bits into a float register (`fmv.d.x`).
    MovFG(FReg, Reg),
}

// The cached-code format (see `crate::codec`).
tagged!(RiscvInst {
    0 Lui { imm20, rd },
    1 Alu { op, rs1, rhs, rd, trapping },
    2 Ld { rd, rs1, off, width, signed },
    3 St { rs, rs1, off, width },
    4 LdF { fd, rs1, off, is32 },
    5 StF { fs, rs1, off, is32 },
    6 Br { cond, rs1, rs2, target },
    7 J { target },
    8 Call { func, unwind },
    9 CallIndirect { rs, unwind },
    10 CallIntrinsic { which, nargs in ..=ARG_REGS },
    11 Ret,
    12 Unwind,
    13 MovSym { rd, sym },
    14 FMov(a, b),
    15 FAlu { op, fs1, fs2, fd, is32 },
    16 FSet { op, rd, fs1, fs2, is32 },
    17 CvtIF { fd, rs, to32, signed },
    18 CvtFI { rd, fs, from32, signed },
    19 CvtFF { fd, fs, to32 },
    20 MovGF(r, f),
    21 MovFG(f, r),
});
tagged!(RegOrImm { 0 Reg(r), 1 Imm(v) });
plain!(
    AluOp { Add, Sub, Mul, Sdiv, Udiv, Srem, Urem, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu },
    BrCond { Eq, Ne, Lt, Ge, Ltu, Geu },
    FSetOp { Feq, Flt, Fle },
);
register!(Reg < GPRS, FReg < FPRS);

/// A translated RISC-V program.
pub type RiscvProgram = Program<RiscvInst>;

/// The simulated RV64-like processor.
pub type RiscvMachine = Machine<RiscvInst>;

/// Writes `r` unless it is `x0`. Since `x0` is never written, reads
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

/// `base + off`, the only addressing mode.
fn addr(regs: &Regs, base: Reg, off: i16) -> u64 {
    regs.gpr[base.0 as usize].wrapping_add(off as i64 as u64)
}

impl BrCond {
    /// Whether the branch is taken for operands `a` and `b`.
    pub fn holds(self, a: u64, b: u64) -> bool {
        match self {
            BrCond::Eq => a == b,
            BrCond::Ne => a != b,
            BrCond::Lt => (a as i64) < (b as i64),
            BrCond::Ge => (a as i64) >= (b as i64),
            BrCond::Ltu => a < b,
            BrCond::Geu => a >= b,
        }
    }
}

impl Isa for RiscvInst {
    const SP: usize = SP.0 as usize;
    const RESULT: usize = A0.0 as usize;

    /// `MovSym` is the `auipc`+`addi` pair and counts as two.
    fn weight(&self) -> u32 {
        match self {
            RiscvInst::MovSym { .. } => 2,
            _ => 1,
        }
    }

    /// 4 bytes per real instruction.
    fn native_size(&self) -> u32 {
        self.weight() * 4
    }

    /// Arguments in `a0`–`a7`, extras on the stack.
    fn enter(cpu: &mut Cpu, args: &[u64]) -> Result<(), TrapKind> {
        cpu.pass_in_registers(A0.0 as usize, ARG_REGS.into(), Self::SP, args)
    }

    #[allow(clippy::too_many_lines)]
    #[inline]
    fn exec(&self, cpu: &mut Cpu, program: &Program<RiscvInst>) -> Result<Flow, TrapKind> {
        use RiscvInst as I;
        let Cpu {
            regs, mem, stats, ..
        } = cpu;
        let mut cycles = 1;
        match self {
            // lui sign-extends bit 31 on RV64
            I::Lui { imm20, rd } => set(regs, *rd, ((*imm20 << 12) as i32) as i64 as u64),
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
                    AluOp::Slt => u64::from((a as i64) < (b as i64)),
                    AluOp::Sltu => u64::from(a < b),
                };
                set(regs, *rd, v);
            }
            I::Ld {
                rd,
                rs1,
                off,
                width,
                signed,
            } => {
                let a = addr(regs, *rs1, *off);
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
                mem.store(addr(regs, *rs1, *off), regs.gpr[rs.0 as usize], *width)?;
                stats.stores += 1;
                cycles = 2;
            }
            I::LdF { fd, rs1, off, is32 } => {
                let width = if *is32 { Width::B4 } else { Width::B8 };
                regs.fpr[fd.0 as usize] = mem.load(addr(regs, *rs1, *off), width)?;
                stats.loads += 1;
                cycles = 2;
            }
            I::StF { fs, rs1, off, is32 } => {
                let a = addr(regs, *rs1, *off);
                let v = regs.fpr[fs.0 as usize];
                if *is32 {
                    mem.store(a, v & 0xFFFF_FFFF, Width::B4)?;
                } else {
                    mem.store(a, v, Width::B8)?;
                }
                stats.stores += 1;
                cycles = 2;
            }
            I::Br {
                cond,
                rs1,
                rs2,
                target,
            } => {
                if cond.holds(regs.gpr[rs1.0 as usize], regs.gpr[rs2.0 as usize]) {
                    return Ok(Flow::Jump(*target));
                }
            }
            I::J { target } => return Ok(Flow::Jump(*target)),
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
                let first = A0.0 as usize;
                return Ok(Flow::Intrinsic {
                    which: *which,
                    args: regs.gpr[first..first + usize::from(*nargs)].to_vec(),
                });
            }
            I::Ret => return Ok(Flow::Ret),
            I::Unwind => return Ok(Flow::Unwind),
            I::MovSym { rd, sym } => {
                set(regs, *rd, program.resolve(*sym)?);
                cycles = 2; // auipc + addi
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
            I::FSet {
                op,
                rd,
                fs1,
                fs2,
                is32,
            } => {
                let (a, b) = (regs.fpr[fs1.0 as usize], regs.fpr[fs2.0 as usize]);
                let class = if *is32 { CmpClass::F32 } else { CmpClass::F64 };
                // all three are false on unordered operands
                let op = match op {
                    FSetOp::Feq => Opcode::SetEq,
                    FSetOp::Flt => Opcode::SetLt,
                    FSetOp::Fle => Opcode::SetLe,
                };
                set(regs, *rd, u64::from(eval::compare(op, class, a, b)));
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

    fn machine() -> RiscvMachine {
        RiscvMachine::new(Memory::new(1 << 20, 0x2000, Endianness::Little))
    }

    #[test]
    fn x0_is_always_zero() {
        use RiscvInst as I;
        let mut p = RiscvProgram::new(1, vec![]);
        let addi = |rs1, imm, rd| I::Alu {
            op: AluOp::Add,
            rs1,
            rhs: RegOrImm::Imm(imm),
            rd,
            trapping: false,
        };
        p.install(0, vec![addi(X0, 42, X0), addi(X0, 0, A0), I::Ret]);
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        assert_eq!(m.run(&p, 100), Exit::Halt(0));
    }

    #[test]
    fn lui_addi_builds_constants() {
        use RiscvInst as I;
        let mut p = RiscvProgram::new(1, vec![]);
        // build 0x12345678 into a0 via the standard li expansion:
        // lui hi20 (rounded for the sign of lo12), addi lo12
        let v = 0x1234_5678i64;
        let hi20 = (((v + 0x800) >> 12) & 0xFFFFF) as u32;
        let lo12 = (v - ((i64::from(hi20 as i32) << 12) as i32 as i64)) as i16;
        p.install(
            0,
            vec![
                I::Lui { imm20: hi20, rd: A0 },
                I::Alu {
                    op: AluOp::Add,
                    rs1: A0,
                    rhs: RegOrImm::Imm(lo12),
                    rd: A0,
                    trapping: false,
                },
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        assert_eq!(m.run(&p, 100), Exit::Halt(v as u64));
    }

    #[test]
    fn register_args_and_return() {
        use RiscvInst as I;
        let mut p = RiscvProgram::new(1, vec![]);
        // a0 = a0 + a1
        p.install(
            0,
            vec![
                I::Alu {
                    op: AluOp::Add,
                    rs1: Reg(10),
                    rhs: RegOrImm::Reg(Reg(11)),
                    rd: A0,
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
    fn compare_and_branch_loop_sums() {
        use RiscvInst as I;
        // sum 1..=n without any condition codes: s1 (x9) = acc, a0 = n
        let mut p = RiscvProgram::new(1, vec![]);
        p.install(
            0,
            vec![
                I::Alu {
                    op: AluOp::Add,
                    rs1: X0,
                    rhs: RegOrImm::Imm(0),
                    rd: Reg(9),
                    trapping: false,
                }, // acc = 0
                // loop:
                I::Alu {
                    op: AluOp::Add,
                    rs1: Reg(9),
                    rhs: RegOrImm::Reg(A0),
                    rd: Reg(9),
                    trapping: false,
                },
                I::Alu {
                    op: AluOp::Sub,
                    rs1: A0,
                    rhs: RegOrImm::Imm(1),
                    rd: A0,
                    trapping: false,
                },
                I::Br {
                    cond: BrCond::Lt,
                    rs1: X0,
                    rs2: A0,
                    target: 1,
                }, // 0 < a0 → loop
                I::Alu {
                    op: AluOp::Add,
                    rs1: Reg(9),
                    rhs: RegOrImm::Imm(0),
                    rd: A0,
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
    fn memory_is_little_endian() {
        use RiscvInst as I;
        let mut p = RiscvProgram::new(1, vec![]);
        p.install(
            0,
            vec![
                I::Alu {
                    op: AluOp::Add,
                    rs1: X0,
                    rhs: RegOrImm::Imm(0x1AB),
                    rd: T0,
                    trapping: false,
                },
                I::St {
                    rs: T0,
                    rs1: SP,
                    off: -8,
                    width: Width::B4,
                },
                I::Ld {
                    rd: A0,
                    rs1: SP,
                    off: -8,
                    width: Width::B1,
                    signed: false,
                },
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        // little-endian: first byte of 0x000001AB is 0xAB
        assert_eq!(m.run(&p, 100), Exit::Halt(0xAB));
    }

    #[test]
    fn slt_materializes_comparisons() {
        use RiscvInst as I;
        // a0 = (a0 < a1 signed) — exercised with a negative operand so
        // slt and sltu differ
        let mut p = RiscvProgram::new(1, vec![]);
        p.install(
            0,
            vec![
                I::Alu {
                    op: AluOp::Slt,
                    rs1: Reg(10),
                    rhs: RegOrImm::Reg(Reg(11)),
                    rd: A0,
                    trapping: false,
                },
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[(-5i64) as u64, 3]).unwrap();
        assert_eq!(m.run(&p, 100), Exit::Halt(1));
        let mut m2 = machine();
        m2.call_entry(0, &[(-5i64) as u64, 3]).unwrap();
        // same bits through sltu: huge unsigned value is not < 3
        let mut p2 = RiscvProgram::new(1, vec![]);
        p2.install(
            0,
            vec![
                I::Alu {
                    op: AluOp::Sltu,
                    rs1: Reg(10),
                    rhs: RegOrImm::Reg(Reg(11)),
                    rd: A0,
                    trapping: false,
                },
                I::Ret,
            ],
        );
        assert_eq!(m2.run(&p2, 100), Exit::Halt(0));
    }

    #[test]
    fn div_by_zero_trap_and_nontrapping() {
        use RiscvInst as I;
        for (trapping, expect_trap) in [(true, true), (false, false)] {
            let mut p = RiscvProgram::new(1, vec![]);
            p.install(
                0,
                vec![
                    I::Alu {
                        op: AluOp::Sdiv,
                        rs1: A0,
                        rhs: RegOrImm::Reg(X0),
                        rd: A0,
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
        use RiscvInst as I;
        let inst = I::MovSym {
            rd: A0,
            sym: Sym::Global(0),
        };
        assert_eq!(inst.weight(), 2);
        assert_eq!(inst.native_size(), 8);
        let mut p = RiscvProgram::new(1, vec![0x4000]);
        p.install(0, vec![inst, I::Ret]);
        assert_eq!(p.total_insts(), 3);
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        assert_eq!(m.run(&p, 100), Exit::Halt(0x4000));
    }

    #[test]
    fn fset_handles_nan_as_all_false() {
        use RiscvInst as I;
        // f0 = 0/0 (NaN), a0 = feq f0, f0 — must be 0 on unordered
        let mut p = RiscvProgram::new(1, vec![]);
        p.install(
            0,
            vec![
                I::CvtIF {
                    fd: FReg(0),
                    rs: X0,
                    to32: false,
                    signed: true,
                }, // f0 = 0.0
                I::FAlu {
                    op: FpOp::Div,
                    fs1: FReg(0),
                    fs2: FReg(0),
                    fd: FReg(1),
                    is32: false,
                }, // NaN
                I::FSet {
                    op: FSetOp::Feq,
                    rd: A0,
                    fs1: FReg(1),
                    fs2: FReg(1),
                    is32: false,
                },
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        assert_eq!(m.run(&p, 100), Exit::Halt(0));
    }

    #[test]
    fn float_and_conversion() {
        use RiscvInst as I;
        let mut p = RiscvProgram::new(1, vec![]);
        // a0 = (int)(3.0 / 2.0) -> 1
        p.install(
            0,
            vec![
                I::Alu {
                    op: AluOp::Add,
                    rs1: X0,
                    rhs: RegOrImm::Imm(3),
                    rd: T0,
                    trapping: false,
                },
                I::CvtIF {
                    fd: FReg(0),
                    rs: T0,
                    to32: false,
                    signed: true,
                }, // f0 = 3.0
                I::Alu {
                    op: AluOp::Add,
                    rs1: X0,
                    rhs: RegOrImm::Imm(2),
                    rd: T0,
                    trapping: false,
                },
                I::CvtIF {
                    fd: FReg(1),
                    rs: T0,
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
                    rd: A0,
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
    fn intrinsic_args_from_a_regs() {
        use RiscvInst as I;
        let mut p = RiscvProgram::new(1, vec![]);
        p.install(
            0,
            vec![
                I::Alu {
                    op: AluOp::Add,
                    rs1: X0,
                    rhs: RegOrImm::Imm(65),
                    rd: A0,
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
        use RiscvInst as I;
        let mut p = RiscvProgram::new(3, vec![]);
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
                    op: AluOp::Add,
                    rs1: X0,
                    rhs: RegOrImm::Imm(1),
                    rd: A0,
                    trapping: false,
                },
                I::Ret,
                I::Alu {
                    op: AluOp::Add,
                    rs1: X0,
                    rhs: RegOrImm::Imm(99),
                    rd: A0,
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
