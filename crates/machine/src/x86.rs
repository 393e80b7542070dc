//! The IA-32-like implementation ISA and its simulated processor.
//!
//! This is one of the two I-ISAs of the reproduction (the paper's
//! evaluation targets Intel IA-32 and SPARC V9). It is a CISC,
//! two-address, 8-GPR machine with memory operands and condition-flag
//! branching. Deviations from real IA-32, documented in DESIGN.md:
//! registers are 64 bits wide (so LLVA `long` needs no register pairs),
//! and return addresses live in a simulator-internal frame stack rather
//! than in memory (arguments are still passed on the memory stack).
//!
//! Instruction byte sizes reported by [`native_size`](Isa::native_size)
//! approximate real IA-32 encodings and feed the "Native size" column
//! of Table 2.

use crate::codec::{plain, record, register, tagged};
pub use crate::common::{function_value, FpOp, FUNC_TAG};
use crate::common::{Sym, TrapKind, Width};
use crate::core::{function_index, Cpu, Flags, Flow, Isa, Machine, Program, Regs};
use crate::memory::Memory;
use llva_core::eval::{self, CastKind};
use llva_core::intrinsics::Intrinsic;

/// The eight general-purpose registers (64-bit in this simulation),
/// declared in encoding order: a register's discriminant is its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gpr {
    /// Accumulator / return value.
    Eax,
    /// Counter / scratch.
    Ecx,
    /// Data / division remainder.
    Edx,
    /// Callee-saved scratch.
    Ebx,
    /// Stack pointer.
    Esp,
    /// Frame pointer.
    Ebp,
    /// Source index.
    Esi,
    /// Destination index.
    Edi,
}

impl Gpr {
    /// All GPRs in encoding order.
    pub const ALL: [Gpr; 8] = [
        Gpr::Eax,
        Gpr::Ecx,
        Gpr::Edx,
        Gpr::Ebx,
        Gpr::Esp,
        Gpr::Ebp,
        Gpr::Esi,
        Gpr::Edi,
    ];
}

/// The eight SSE-like floating-point registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fpr(pub u8);

/// A `[base + disp]` memory operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOp {
    /// Base register.
    pub base: Gpr,
    /// Signed displacement.
    pub disp: i32,
}

/// Two-address ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
}

/// Branch conditions (signed L/G*, unsigned B/A*).
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
    B,
    /// Unsigned above.
    A,
    /// Unsigned below-or-equal.
    Be,
    /// Unsigned above-or-equal.
    Ae,
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
            Cond::L | Cond::B => order == Some(Less),
            Cond::G | Cond::A => order == Some(Greater),
            Cond::Le | Cond::Be => matches!(order, Some(Less | Equal)),
            Cond::Ge | Cond::Ae => matches!(order, Some(Greater | Equal)),
        }
    }
}

/// Result-width normalization applied by ALU operations — models the
/// fact that real IA-32 arithmetic operates at 32-bit register width
/// for `int`-sized values (no separate extend instruction needed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Norm {
    /// Full 64-bit result (this simulator's registers are 64-bit).
    #[default]
    None,
    /// Sign-extend the low 32 bits (signed `int` semantics).
    Sext32,
    /// Zero-extend the low 32 bits (unsigned `uint` semantics).
    Zext32,
}

impl Norm {
    /// Applies the normalization.
    pub fn apply(self, v: u64) -> u64 {
        match self {
            Norm::None => v,
            Norm::Sext32 => (v as u32) as i32 as i64 as u64,
            Norm::Zext32 => u64::from(v as u32),
        }
    }
}

/// One IA-32-like instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum X86Inst {
    /// `mov r, imm`.
    MovRI(Gpr, i64),
    /// `mov r, r`.
    MovRR(Gpr, Gpr),
    /// `mov r, sym` (address constant; relocated at load time).
    MovRSym(Gpr, Sym),
    /// Load from memory, optionally sign-extending.
    Load {
        /// Destination register.
        dst: Gpr,
        /// Address operand.
        mem: MemOp,
        /// Access width.
        width: Width,
        /// Sign-extend narrow loads.
        signed: bool,
    },
    /// Store to memory.
    Store {
        /// Source register.
        src: Gpr,
        /// Address operand.
        mem: MemOp,
        /// Access width.
        width: Width,
    },
    /// `lea r, [base+disp]`.
    Lea(Gpr, MemOp),
    /// `op r, r` (at the width implied by `Norm`).
    AluRR(AluOp, Gpr, Gpr, Norm),
    /// `op r, imm`.
    AluRI(AluOp, Gpr, i64, Norm),
    /// `op r, qword [mem]`.
    AluRM(AluOp, Gpr, MemOp, Norm),
    /// `imul r, r`.
    IMulRR(Gpr, Gpr, Norm),
    /// `imul r, qword [mem]`.
    IMulRM(Gpr, MemOp, Norm),
    /// Sign-extend EAX into EDX (cdq/cqo).
    Cdq,
    /// Divide EDX:EAX by a register; quotient→EAX, remainder→EDX.
    Div {
        /// Signed (idiv) vs unsigned (div).
        signed: bool,
        /// Divisor register.
        divisor: Gpr,
        /// When `false`, a zero divisor yields 0 instead of trapping —
        /// the translation of an LLVA `div` with `ExceptionsEnabled`
        /// cleared (§3.3).
        trapping: bool,
        /// Result-width normalization.
        norm: Norm,
    },
    /// `cmp r, r`.
    CmpRR(Gpr, Gpr),
    /// `cmp r, imm`.
    CmpRI(Gpr, i64),
    /// `cmp r, qword [mem]`.
    CmpRM(Gpr, MemOp),
    /// `setcc r` (r := 0/1).
    Setcc(Cond, Gpr),
    /// Unconditional jump to an instruction index.
    Jmp(u32),
    /// Conditional jump.
    Jcc(Cond, u32),
    /// Direct call; `unwind` is the landing pad for `unwind` (from an
    /// LLVA `invoke`).
    CallFn {
        /// Callee function index.
        func: u32,
        /// Optional unwind landing pad (instruction index in *this*
        /// function).
        unwind: Option<u32>,
    },
    /// Indirect call through a register holding a function "address".
    CallIndirect {
        /// Register with the callee.
        target: Gpr,
        /// Optional unwind landing pad.
        unwind: Option<u32>,
    },
    /// Call an LLVA intrinsic (§3.5); arguments follow the stack
    /// convention.
    CallIntrinsic {
        /// Which intrinsic.
        which: Intrinsic,
        /// Number of stack arguments.
        nargs: u8,
    },
    /// Return (restores the caller frame).
    Ret,
    /// LLVA `unwind`: pop frames to the nearest unwind landing pad.
    Unwind,
    /// `push r`.
    Push(Gpr),
    /// `pop r`.
    Pop(Gpr),
    /// Load float register from memory.
    FLoad {
        /// Destination.
        dst: Fpr,
        /// Address.
        mem: MemOp,
        /// 32-bit (float) vs 64-bit (double).
        is32: bool,
    },
    /// Store float register to memory.
    FStore {
        /// Source.
        src: Fpr,
        /// Address.
        mem: MemOp,
        /// 32-bit vs 64-bit.
        is32: bool,
    },
    /// `movaps`-style register move.
    FMovRR(Fpr, Fpr),
    /// Float ALU `dst ⊕= src`.
    FAlu(FpOp, Fpr, Fpr, bool),
    /// Float compare; sets flags like `ucomiss`.
    FCmp(Fpr, Fpr, bool),
    /// Convert integer to float.
    CvtIF {
        /// Destination float register.
        dst: Fpr,
        /// Source GPR.
        src: Gpr,
        /// Produce f32 (vs f64).
        to32: bool,
        /// Treat the integer as signed.
        signed: bool,
    },
    /// Convert float to integer (truncating).
    CvtFI {
        /// Destination GPR.
        dst: Gpr,
        /// Source float register.
        src: Fpr,
        /// Source is f32 (vs f64).
        from32: bool,
        /// Produce a signed integer.
        signed: bool,
    },
    /// Convert between f32 and f64.
    CvtFF {
        /// Destination.
        dst: Fpr,
        /// Source.
        src: Fpr,
        /// Destination is f32.
        to32: bool,
    },
    /// Move float bits to a GPR (for returns through EAX).
    MovGF(Gpr, Fpr),
    /// Move GPR bits to a float register.
    MovFG(Fpr, Gpr),
    /// Sign-extend the low `width` bytes of a register in place.
    SignExtend(Gpr, Width),
    /// Zero-extend the low `width` bytes of a register in place.
    ZeroExtend(Gpr, Width),
}

// The cached-code format (see `crate::codec`).
tagged!(X86Inst {
    0 MovRI(r, v),
    1 MovRR(a, b),
    2 MovRSym(r, s),
    3 Load { dst, mem, width, signed },
    4 Store { src, mem, width },
    5 Lea(r, m),
    6 AluRR(op, a, b, n),
    7 AluRI(op, a, v, n),
    8 AluRM(op, a, m, n),
    9 IMulRR(a, b, n),
    10 IMulRM(a, m, n),
    11 Cdq,
    12 Div { signed, divisor, trapping, norm },
    13 CmpRR(a, b),
    14 CmpRI(a, v),
    15 CmpRM(a, m),
    16 Setcc(c, r),
    17 Jmp(t),
    18 Jcc(c, t),
    19 CallFn { func, unwind },
    20 CallIndirect { target, unwind },
    21 CallIntrinsic { which, nargs },
    22 Ret,
    23 Unwind,
    24 Push(r),
    25 Pop(r),
    26 FLoad { dst, mem, is32 },
    27 FStore { src, mem, is32 },
    28 FMovRR(a, b),
    29 FAlu(op, a, b, is32),
    30 FCmp(a, b, is32),
    31 CvtIF { dst, src, to32, signed },
    32 CvtFI { dst, src, from32, signed },
    33 CvtFF { dst, src, to32 },
    34 MovGF(g, f),
    35 MovFG(f, g),
    36 SignExtend(r, w),
    37 ZeroExtend(r, w),
});
plain!(
    Gpr { Eax, Ecx, Edx, Ebx, Esp, Ebp, Esi, Edi },
    AluOp { Add, Sub, And, Or, Xor, Shl, Shr, Sar },
    Cond { E, Ne, L, G, Le, Ge, B, A, Be, Ae },
    Norm { None, Sext32, Zext32 },
);
register!(Fpr < 8);

record!(MemOp { base, disp });

/// A translated IA-32-like program.
pub type X86Program = Program<X86Inst>;

/// The simulated IA-32-like processor.
pub type X86Machine = Machine<X86Inst>;

const EAX: usize = Gpr::Eax as usize;
const EDX: usize = Gpr::Edx as usize;
const ESP: usize = Gpr::Esp as usize;

fn addr(regs: &Regs, m: MemOp) -> u64 {
    regs.gpr[m.base as usize].wrapping_add(m.disp as i64 as u64)
}

fn push(regs: &mut Regs, mem: &mut Memory, v: u64) -> Result<(), TrapKind> {
    let sp = regs.gpr[ESP].wrapping_sub(8);
    if sp < mem.stack_limit() {
        return Err(TrapKind::StackOverflow);
    }
    mem.store(sp, v, Width::B8)?;
    regs.gpr[ESP] = sp;
    Ok(())
}

impl Isa for X86Inst {
    const SP: usize = ESP;
    const RESULT: usize = EAX;

    fn native_size(&self) -> u32 {
        fn disp_size(d: i32) -> u32 {
            if d == 0 {
                1
            } else if (-128..=127).contains(&d) {
                2
            } else {
                5
            }
        }
        fn imm_size(v: i64) -> u32 {
            if (-128..=127).contains(&v) {
                1
            } else {
                4
            }
        }
        match self {
            X86Inst::MovRI(_, v) => {
                if i32::try_from(*v).is_ok() {
                    5
                } else {
                    10
                }
            }
            X86Inst::MovRR(..) => 2,
            X86Inst::MovRSym(..) => 5,
            X86Inst::Load { mem, .. } | X86Inst::Store { mem, .. } => 1 + disp_size(mem.disp),
            X86Inst::Lea(_, mem) => 1 + disp_size(mem.disp),
            X86Inst::AluRR(..) => 2,
            X86Inst::AluRI(_, _, v, _) => 2 + imm_size(*v),
            X86Inst::AluRM(_, _, mem, _) | X86Inst::CmpRM(_, mem) | X86Inst::IMulRM(_, mem, _) => {
                1 + disp_size(mem.disp) + 1
            }
            X86Inst::IMulRR(..) => 3,
            X86Inst::Cdq => 1,
            X86Inst::Div { .. } => 2,
            X86Inst::CmpRR(..) => 2,
            X86Inst::CmpRI(_, v) => 2 + imm_size(*v),
            X86Inst::Setcc(..) => 3,
            X86Inst::Jmp(_) => 5,
            X86Inst::Jcc(..) => 6,
            X86Inst::CallFn { .. } | X86Inst::CallIntrinsic { .. } => 5,
            X86Inst::CallIndirect { .. } => 2,
            X86Inst::Ret => 1,
            X86Inst::Unwind => 5,
            X86Inst::Push(_) | X86Inst::Pop(_) => 1,
            X86Inst::FLoad { mem, .. } | X86Inst::FStore { mem, .. } => 3 + disp_size(mem.disp),
            X86Inst::FMovRR(..) => 3,
            X86Inst::FAlu(..) => 4,
            X86Inst::FCmp(..) => 4,
            X86Inst::CvtIF { .. } | X86Inst::CvtFI { .. } | X86Inst::CvtFF { .. } => 4,
            X86Inst::MovGF(..) | X86Inst::MovFG(..) => 4,
            X86Inst::SignExtend(..) | X86Inst::ZeroExtend(..) => 3,
        }
    }

    /// Arguments go on the memory stack, pushed right to left.
    fn enter(cpu: &mut Cpu, args: &[u64]) -> Result<(), TrapKind> {
        args.iter()
            .rev()
            .try_for_each(|&a| push(&mut cpu.regs, &mut cpu.mem, a))
    }

    #[allow(clippy::too_many_lines)]
    #[inline]
    fn exec(&self, cpu: &mut Cpu, program: &Program<X86Inst>) -> Result<Flow, TrapKind> {
        use X86Inst as I;
        let Cpu {
            regs,
            flags,
            mem,
            stats,
        } = cpu;
        let mut cycles = 1;
        match self {
            I::MovRI(d, v) => regs.gpr[*d as usize] = *v as u64,
            I::MovRR(d, s) => regs.gpr[*d as usize] = regs.gpr[*s as usize],
            I::MovRSym(d, sym) => regs.gpr[*d as usize] = program.resolve(*sym)?,
            I::Load {
                dst,
                mem: m,
                width,
                signed,
            } => {
                let a = addr(regs, *m);
                regs.gpr[*dst as usize] = if *signed {
                    mem.load_signed(a, *width)?
                } else {
                    mem.load(a, *width)?
                };
                stats.loads += 1;
                cycles = 2;
            }
            I::Store { src, mem: m, width } => {
                mem.store(addr(regs, *m), regs.gpr[*src as usize], *width)?;
                stats.stores += 1;
                cycles = 2;
            }
            I::Lea(d, m) => regs.gpr[*d as usize] = addr(regs, *m),
            I::AluRR(op, d, s, norm) => {
                let v = regs.gpr[*s as usize];
                let d = &mut regs.gpr[*d as usize];
                *d = norm.apply(alu(*op, *d, v));
            }
            I::AluRI(op, d, v, norm) => {
                let d = &mut regs.gpr[*d as usize];
                *d = norm.apply(alu(*op, *d, *v as u64));
            }
            I::AluRM(op, d, m, norm) => {
                let v = mem.load(addr(regs, *m), Width::B8)?;
                let d = &mut regs.gpr[*d as usize];
                *d = norm.apply(alu(*op, *d, v));
                stats.loads += 1;
                cycles = 2;
            }
            I::IMulRR(d, s, norm) => {
                let v = regs.gpr[*s as usize];
                let d = &mut regs.gpr[*d as usize];
                *d = norm.apply(d.wrapping_mul(v));
                cycles = 3;
            }
            I::IMulRM(d, m, norm) => {
                let v = mem.load(addr(regs, *m), Width::B8)?;
                let d = &mut regs.gpr[*d as usize];
                *d = norm.apply(d.wrapping_mul(v));
                stats.loads += 1;
                cycles = 4;
            }
            I::Cdq => regs.gpr[EDX] = ((regs.gpr[EAX] as i64) >> 63) as u64,
            I::Div {
                signed,
                divisor,
                trapping,
                norm,
            } => {
                let (a, d) = (regs.gpr[EAX], regs.gpr[*divisor as usize]);
                let (q, r) = if d == 0 {
                    if *trapping {
                        return Err(TrapKind::DivideByZero);
                    }
                    (0, 0)
                } else if *signed {
                    let (a, d) = (a as i64, d as i64);
                    (a.wrapping_div(d) as u64, a.wrapping_rem(d) as u64)
                } else {
                    (a / d, a % d)
                };
                regs.gpr[EAX] = norm.apply(q);
                regs.gpr[EDX] = norm.apply(r);
                cycles = 20;
            }
            I::CmpRR(a, b) => *flags = Flags::int(regs.gpr[*a as usize], regs.gpr[*b as usize]),
            I::CmpRI(a, v) => *flags = Flags::int(regs.gpr[*a as usize], *v as u64),
            I::CmpRM(a, m) => {
                let v = mem.load(addr(regs, *m), Width::B8)?;
                *flags = Flags::int(regs.gpr[*a as usize], v);
                stats.loads += 1;
                cycles = 2;
            }
            I::Setcc(c, d) => regs.gpr[*d as usize] = u64::from(c.holds(*flags)),
            I::Jmp(t) => return Ok(Flow::Jump(*t)),
            I::Jcc(c, t) => {
                if c.holds(*flags) {
                    return Ok(Flow::Jump(*t));
                }
            }
            I::CallFn { func, unwind } => {
                stats.calls += 1;
                return Ok(Flow::Call {
                    func: *func,
                    unwind: *unwind,
                    cycles: 2,
                });
            }
            I::CallIndirect { target, unwind } => {
                let func = function_index(regs.gpr[*target as usize])?;
                stats.calls += 1;
                return Ok(Flow::Call {
                    func,
                    unwind: *unwind,
                    cycles: 3,
                });
            }
            I::CallIntrinsic { which, nargs } => {
                stats.calls += 1;
                let sp = regs.gpr[ESP];
                let args = (0..u64::from(*nargs))
                    .map(|i| mem.load(sp + 8 * i, Width::B8))
                    .collect::<Result<_, _>>()?;
                return Ok(Flow::Intrinsic {
                    which: *which,
                    args,
                });
            }
            I::Ret => return Ok(Flow::Ret),
            I::Unwind => return Ok(Flow::Unwind),
            I::Push(r) => {
                let v = regs.gpr[*r as usize];
                push(regs, mem, v)?;
                stats.stores += 1;
                cycles = 2;
            }
            I::Pop(r) => {
                let sp = regs.gpr[ESP];
                let v = mem.load(sp, Width::B8)?;
                regs.gpr[ESP] = sp + 8;
                regs.gpr[*r as usize] = v;
                stats.loads += 1;
                cycles = 2;
            }
            I::FLoad { dst, mem: m, is32 } => {
                let width = if *is32 { Width::B4 } else { Width::B8 };
                regs.fpr[dst.0 as usize] = mem.load(addr(regs, *m), width)?;
                stats.loads += 1;
                cycles = 2;
            }
            I::FStore { src, mem: m, is32 } => {
                let v = regs.fpr[src.0 as usize];
                let a = addr(regs, *m);
                if *is32 {
                    mem.store(a, v & 0xFFFF_FFFF, Width::B4)?;
                } else {
                    mem.store(a, v, Width::B8)?;
                }
                stats.stores += 1;
                cycles = 2;
            }
            I::FMovRR(d, s) => regs.fpr[d.0 as usize] = regs.fpr[s.0 as usize],
            I::FAlu(op, d, s, is32) => {
                let v = regs.fpr[s.0 as usize];
                let d = &mut regs.fpr[d.0 as usize];
                *d = op.apply(*d, v, *is32);
                cycles = 3;
            }
            I::FCmp(a, b, is32) => {
                let (a, b) = (regs.fpr[a.0 as usize], regs.fpr[b.0 as usize]);
                *flags = Flags::float(a, b, *is32);
                cycles = 2;
            }
            I::CvtIF {
                dst,
                src,
                to32,
                signed,
            } => {
                let kind = CastKind::IntToFloat { src_signed: *signed, dst32: *to32 };
                regs.fpr[dst.0 as usize] = eval::cast(kind, regs.gpr[*src as usize]);
                cycles = 3;
            }
            I::CvtFI {
                dst,
                src,
                from32,
                signed,
            } => {
                let kind = CastKind::FloatToInt { src32: *from32, width: 64, signed: *signed };
                regs.gpr[*dst as usize] = eval::cast(kind, regs.fpr[src.0 as usize]);
                cycles = 3;
            }
            I::CvtFF { dst, src, to32 } => {
                let kind = CastKind::FloatToFloat { src32: !*to32, dst32: *to32 };
                regs.fpr[dst.0 as usize] = eval::cast(kind, regs.fpr[src.0 as usize]);
                cycles = 2;
            }
            I::MovGF(d, s) => regs.gpr[*d as usize] = regs.fpr[s.0 as usize],
            I::MovFG(d, s) => regs.fpr[d.0 as usize] = regs.gpr[*s as usize],
            I::SignExtend(r, w) => {
                let r = &mut regs.gpr[*r as usize];
                *r = eval::sign_extend(*r, w.bytes() as u32 * 8) as u64;
            }
            I::ZeroExtend(r, w) => {
                let r = &mut regs.gpr[*r as usize];
                *r = eval::truncate(*r, w.bytes() as u32 * 8);
            }
        }
        Ok(Flow::Next(cycles))
    }
}

fn alu(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl => a.wrapping_shl((b & 63) as u32),
        AluOp::Shr => a.wrapping_shr((b & 63) as u32),
        AluOp::Sar => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Exit;
    use crate::memory::Memory;
    use llva_core::layout::Endianness;

    fn machine() -> X86Machine {
        X86Machine::new(Memory::new(1 << 20, 0x2000, Endianness::Little))
    }

    #[test]
    fn arithmetic_and_halt() {
        use X86Inst as I;
        let mut program = X86Program::new(1, vec![]);
        program.install(
            0,
            vec![
                I::MovRI(Gpr::Eax, 40),
                I::MovRI(Gpr::Ecx, 2),
                I::AluRR(AluOp::Add, Gpr::Eax, Gpr::Ecx, Norm::None),
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        assert_eq!(m.run(&program, 1000), Exit::Halt(42));
        assert_eq!(m.stats().instructions, 4);
    }

    #[test]
    fn conditional_branch_loop() {
        use X86Inst as I;
        // sum 1..=5 : ECX counter, EAX acc
        let mut program = X86Program::new(1, vec![]);
        program.install(
            0,
            vec![
                I::MovRI(Gpr::Eax, 0),
                I::MovRI(Gpr::Ecx, 5),
                // loop:
                I::AluRR(AluOp::Add, Gpr::Eax, Gpr::Ecx, Norm::None), // 2
                I::AluRI(AluOp::Sub, Gpr::Ecx, 1, Norm::None),
                I::CmpRI(Gpr::Ecx, 0),
                I::Jcc(Cond::G, 2),
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        assert_eq!(m.run(&program, 1000), Exit::Halt(15));
    }

    #[test]
    fn call_and_stack_args() {
        use X86Inst as I;
        let mut program = X86Program::new(2, vec![]);
        // callee: eax = arg0 * 2 ; args at [esp+0] (no saved ret addr in mem)
        program.install(
            1,
            vec![
                I::Load {
                    dst: Gpr::Eax,
                    mem: MemOp {
                        base: Gpr::Esp,
                        disp: 0,
                    },
                    width: Width::B8,
                    signed: false,
                },
                I::AluRI(AluOp::Shl, Gpr::Eax, 1, Norm::None),
                I::Ret,
            ],
        );
        // main: push 21; call 1; add esp,8; ret
        program.install(
            0,
            vec![
                I::MovRI(Gpr::Ecx, 21),
                I::Push(Gpr::Ecx),
                I::CallFn {
                    func: 1,
                    unwind: None,
                },
                I::AluRI(AluOp::Add, Gpr::Esp, 8, Norm::None),
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        assert_eq!(m.run(&program, 1000), Exit::Halt(42));
    }

    #[test]
    fn need_function_then_resume() {
        use X86Inst as I;
        let mut program = X86Program::new(2, vec![]);
        program.install(
            0,
            vec![
                I::CallFn {
                    func: 1,
                    unwind: None,
                },
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        assert_eq!(m.run(&program, 1000), Exit::NeedFunction(1));
        // engine translates and installs, then resumes
        program.install(1, vec![I::MovRI(Gpr::Eax, 7), I::Ret]);
        assert_eq!(m.run(&program, 1000), Exit::Halt(7));
    }

    #[test]
    fn divide_by_zero_traps_precisely() {
        use X86Inst as I;
        let mut program = X86Program::new(1, vec![]);
        program.install(
            0,
            vec![
                I::MovRI(Gpr::Eax, 10),
                I::MovRI(Gpr::Ecx, 0),
                I::Cdq,
                I::Div {
                    signed: true,
                    divisor: Gpr::Ecx,
                    trapping: true,
                    norm: Norm::None,
                },
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        match m.run(&program, 1000) {
            Exit::Trapped(t) => {
                assert_eq!(t.kind, TrapKind::DivideByZero);
                assert_eq!(t.pc, 3, "precise: trap names the div instruction");
            }
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn nontrapping_div_yields_zero() {
        use X86Inst as I;
        let mut program = X86Program::new(1, vec![]);
        program.install(
            0,
            vec![
                I::MovRI(Gpr::Eax, 10),
                I::MovRI(Gpr::Ecx, 0),
                I::Div {
                    signed: true,
                    divisor: Gpr::Ecx,
                    trapping: false,
                    norm: Norm::None,
                },
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        assert_eq!(m.run(&program, 1000), Exit::Halt(0));
    }

    #[test]
    fn null_load_traps() {
        use X86Inst as I;
        let mut program = X86Program::new(1, vec![]);
        program.install(
            0,
            vec![
                I::MovRI(Gpr::Eax, 0),
                I::Load {
                    dst: Gpr::Ecx,
                    mem: MemOp {
                        base: Gpr::Eax,
                        disp: 0,
                    },
                    width: Width::B8,
                    signed: false,
                },
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        match m.run(&program, 1000) {
            Exit::Trapped(t) => assert_eq!(t.kind, TrapKind::MemoryFault),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn unwind_to_invoke_pad() {
        use X86Inst as I;
        let mut program = X86Program::new(2, vec![]);
        // callee: unwind immediately
        program.install(1, vec![I::Unwind]);
        // main: call with unwind pad at 3; pad sets eax=99
        program.install(
            0,
            vec![
                I::CallFn {
                    func: 1,
                    unwind: Some(3),
                },
                I::MovRI(Gpr::Eax, 1), // normal path (skipped)
                I::Ret,
                I::MovRI(Gpr::Eax, 99), // pad
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        assert_eq!(m.run(&program, 1000), Exit::Halt(99));
    }

    #[test]
    fn unhandled_unwind_traps() {
        use X86Inst as I;
        let mut program = X86Program::new(1, vec![]);
        program.install(0, vec![I::Unwind]);
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        match m.run(&program, 1000) {
            Exit::Trapped(t) => assert_eq!(t.kind, TrapKind::UnhandledUnwind),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn intrinsic_roundtrip() {
        use X86Inst as I;
        let mut program = X86Program::new(1, vec![]);
        program.install(
            0,
            vec![
                I::MovRI(Gpr::Ecx, 1234),
                I::Push(Gpr::Ecx),
                I::CallIntrinsic {
                    which: Intrinsic::HeapAlloc,
                    nargs: 1,
                },
                I::AluRI(AluOp::Add, Gpr::Esp, 8, Norm::None),
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        match m.run(&program, 1000) {
            Exit::Intrinsic { which, args } => {
                assert_eq!(which, Intrinsic::HeapAlloc);
                assert_eq!(args, vec![1234]);
            }
            other => panic!("expected intrinsic exit, got {other:?}"),
        }
        m.finish_intrinsic(0x8000);
        assert_eq!(m.run(&program, 1000), Exit::Halt(0x8000));
    }

    #[test]
    fn float_pipeline() {
        use X86Inst as I;
        let mut program = X86Program::new(1, vec![]);
        // f0 = 1.5; f1 = 2.5; f0 += f1; eax = bits(f0)
        program.install(
            0,
            vec![
                I::MovRI(Gpr::Eax, 1.5f64.to_bits() as i64),
                I::MovFG(Fpr(0), Gpr::Eax),
                I::MovRI(Gpr::Eax, 2.5f64.to_bits() as i64),
                I::MovFG(Fpr(1), Gpr::Eax),
                I::FAlu(FpOp::Add, Fpr(0), Fpr(1), false),
                I::MovGF(Gpr::Eax, Fpr(0)),
                I::Ret,
            ],
        );
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        assert_eq!(m.run(&program, 1000), Exit::Halt(4.0f64.to_bits()));
    }

    #[test]
    fn fuel_exhaustion() {
        use X86Inst as I;
        let mut program = X86Program::new(1, vec![]);
        program.install(0, vec![I::Jmp(0)]);
        let mut m = machine();
        m.call_entry(0, &[]).unwrap();
        assert_eq!(m.run(&program, 100), Exit::OutOfFuel);
    }

    /// Code only a tampered cache entry holds (decode admits it): it
    /// traps instead of panicking the simulator.
    #[test]
    fn unknown_global_and_wild_stack_pointer_trap() {
        use X86Inst as I;
        for code in [
            vec![I::MovRSym(Gpr::Eax, Sym::Global(9)), I::Ret],
            vec![I::MovRI(Gpr::Esp, 0), I::Push(Gpr::Eax), I::Ret],
        ] {
            let mut program = X86Program::new(1, vec![]);
            program.install(0, code);
            let mut m = machine();
            m.call_entry(0, &[]).unwrap();
            match m.run(&program, 100) {
                Exit::Trapped(t) => assert_eq!(t.kind, TrapKind::MemoryFault),
                other => panic!("expected trap, got {other:?}"),
            }
        }
    }

    #[test]
    fn native_size_is_plausible() {
        use X86Inst as I;
        assert_eq!(I::Ret.native_size(), 1);
        assert_eq!(I::MovRI(Gpr::Eax, 1).native_size(), 5);
        assert_eq!(I::MovRI(Gpr::Eax, i64::MAX).native_size(), 10);
        assert_eq!(I::AluRR(AluOp::Add, Gpr::Eax, Gpr::Ecx, Norm::None).native_size(), 2);
    }
}
