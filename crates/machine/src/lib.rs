//! # llva-machine — simulated hardware processors (implementation ISAs)
//!
//! The paper evaluates LLVA by translating to two real hardware ISAs,
//! Intel IA-32 and SPARC V9. This reproduction has no silicon, so this
//! crate provides the substitution documented in DESIGN.md §4:
//! cycle-counting functional simulators whose ISAs mirror the relevant
//! properties of the originals —
//!
//! * [`x86`]: CISC, two-address, 8 GPRs, memory operands, variable
//!   instruction sizes;
//! * [`sparc`]: RISC, three-address, 32 GPRs (`%g0` = 0), 13-bit
//!   immediates (`sethi`/`or` for larger constants), fixed 4-byte
//!   instructions, big-endian memory;
//! * [`riscv`]: RISC, three-address, 32 GPRs (`x0` = 0), 12-bit
//!   immediates (`lui`/`addi` for larger constants), compare-and-branch
//!   instead of condition codes, little-endian memory.
//!
//! All three run on one [`core::Machine`]; an ISA supplies its
//! instructions' semantics and calling convention through
//! [`core::Isa`]. The machine exposes the execution-manager interface
//! the paper's LLEE needs: a call to untranslated code exits with
//! [`common::Exit::NeedFunction`] so the JIT can translate on demand,
//! intrinsic calls (§3.5) exit to the engine, and all traps are precise
//! ([`common::Trap`] names the exact faulting instruction).
//!
//! [`codec`] is the one record codec: the byte format LLEE caches
//! translated code in — each ISA describes its instructions' part of it
//! once, beside its `Isa` impl — and the generic pieces that LLEE's
//! image records and `llva-serve`'s wire messages are described with.

pub mod codec;
pub mod common;
pub mod core;
pub mod memory;
pub mod riscv;
pub mod sparc;
pub mod x86;

pub use common::{ExecStats, Exit, Sym, Trap, TrapKind, Width};
pub use crate::core::{Isa, Machine, Program};
pub use memory::{Memory, GLOBAL_BASE};
