//! Types shared by the simulated hardware processors.

use llva_core::eval;
use llva_core::instruction::Opcode;
use llva_core::intrinsics::Intrinsic;
use std::fmt;

/// Tag bit marking a value as a function "address". Kept below bit 31
/// so tagged function pointers survive 32-bit pointer stores on the
/// IA-32-like target (simulated memories stay far below 1 GiB).
pub const FUNC_TAG: u64 = 1 << 30;

/// Packs a function index into a tagged function address value.
pub fn function_value(idx: u32) -> u64 {
    FUNC_TAG | u64::from(idx)
}

/// Floating-point ALU operations (the same five on every ISA).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder, truncating the quotient (C's `fmod`).
    Rem,
}

impl FpOp {
    /// `a ⊕ b` over float register bits of one precision.
    #[inline]
    pub fn apply(self, a: u64, b: u64, is32: bool) -> u64 {
        let op = match self {
            FpOp::Add => Opcode::Add,
            FpOp::Sub => Opcode::Sub,
            FpOp::Mul => Opcode::Mul,
            FpOp::Div => Opcode::Div,
            FpOp::Rem => Opcode::Rem,
        };
        eval::float_binary(op, a, b, is32).expect("FpOp is float arithmetic")
    }
}

/// Width of a memory access, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 1 byte.
    B1,
    /// 2 bytes.
    B2,
    /// 4 bytes.
    B4,
    /// 8 bytes.
    B8,
}

impl Width {
    /// Number of bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Width::B1 => 1,
            Width::B2 => 2,
            Width::B4 => 4,
            Width::B8 => 8,
        }
    }

    /// The width needed for a value of `bytes` size.
    ///
    /// # Panics
    ///
    /// Panics on sizes other than 1, 2, 4, 8.
    pub fn from_bytes(bytes: u64) -> Width {
        match bytes {
            1 => Width::B1,
            2 => Width::B2,
            4 => Width::B4,
            8 => Width::B8,
            other => panic!("unsupported access width {other}"),
        }
    }
}

/// A symbolic reference resolved at load/relocation time (paper §4.1:
/// "LLEE performs relocation as necessary on the native code").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sym {
    /// Address of global variable `n` of the module.
    Global(u32),
    /// "Address" of function `n` (an index into the program's function
    /// table, tagged so it is distinguishable from data addresses).
    Function(u32),
}

/// Hardware trap kinds raised by the simulated processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrapKind {
    /// Load/store through a null or unmapped address.
    MemoryFault,
    /// Integer division by zero.
    DivideByZero,
    /// `unwind` executed with no active `invoke` frame.
    UnhandledUnwind,
    /// Explicit trap raised via `llva.trap.raise`.
    Software,
    /// Unprivileged use of a privileged intrinsic (§3.5).
    PrivilegeViolation,
    /// Executed an indirect call through a non-function value.
    BadFunctionPointer,
    /// Stack overflow (frame allocation exhausted the stack segment).
    StackOverflow,
}

impl fmt::Display for TrapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrapKind::MemoryFault => "memory fault",
            TrapKind::DivideByZero => "divide by zero",
            TrapKind::UnhandledUnwind => "unhandled unwind",
            TrapKind::Software => "software trap",
            TrapKind::PrivilegeViolation => "privilege violation",
            TrapKind::BadFunctionPointer => "bad function pointer",
            TrapKind::StackOverflow => "stack overflow",
        };
        f.write_str(s)
    }
}

/// A precise trap: what happened and where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trap {
    /// The trap kind.
    pub kind: TrapKind,
    /// Function index at the trap point.
    pub function: u32,
    /// Instruction index within the function.
    pub pc: u32,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at fn{}+{}", self.kind, self.function, self.pc)
    }
}

impl std::error::Error for Trap {}

/// Why a machine stopped running.
#[derive(Debug, Clone, PartialEq)]
pub enum Exit {
    /// The outermost function returned with this raw value.
    Halt(u64),
    /// A call targeted function `index`, whose native code is not yet
    /// installed. The execution engine translates it and resumes
    /// (JIT-on-demand, §4.1).
    NeedFunction(u32),
    /// An intrinsic call; the engine services it and resumes with a
    /// return value.
    Intrinsic {
        /// Which intrinsic.
        which: Intrinsic,
        /// Raw argument values (calling-convention independent).
        args: Vec<u64>,
    },
    /// A hardware trap was raised.
    Trapped(Trap),
    /// Executed more than the configured fuel limit (runaway guard).
    OutOfFuel,
}

/// Per-run execution statistics — the simulator's "performance counters".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Dynamic instruction count.
    pub instructions: u64,
    /// Simulated cycles (simple per-opcode cost model).
    pub cycles: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// Calls executed (including intrinsics).
    pub calls: u64,
    /// Taken branches.
    pub taken_branches: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_round_trip() {
        for w in [Width::B1, Width::B2, Width::B4, Width::B8] {
            assert_eq!(Width::from_bytes(w.bytes()), w);
        }
    }

    #[test]
    fn trap_display() {
        let t = Trap {
            kind: TrapKind::DivideByZero,
            function: 3,
            pc: 7,
        };
        assert_eq!(t.to_string(), "divide by zero at fn3+7");
    }
}
