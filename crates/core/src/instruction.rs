//! The 28-instruction LLVA instruction set (paper §3.1, Table 1).
//!
//! | Category     | Instructions |
//! |--------------|--------------|
//! | arithmetic   | `add, sub, mul, div, rem` |
//! | bitwise      | `and, or, xor, shl, shr` |
//! | comparison   | `seteq, setne, setlt, setgt, setle, setge` |
//! | control-flow | `ret, br, mbr, invoke, unwind` |
//! | memory       | `load, store, getelementptr, alloca` |
//! | other        | `cast, call, phi` |
//!
//! Every instruction carries the `ExceptionsEnabled` attribute from §3.3:
//! exceptions raised while it is `false` are ignored, which gives the
//! translator reordering freedom. It defaults to `true` only for `load`,
//! `store` and `div`.

use crate::function::BlockId;
use crate::value::ValueId;
use std::fmt;

/// A handle to an instruction within a function's instruction arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(u32);

impl InstId {
    /// Raw index into the owning function's instruction arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a handle from a raw index.
    pub fn from_index(index: usize) -> InstId {
        InstId(u32::try_from(index).expect("instruction index overflow"))
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// One of the 28 LLVA opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Opcode {
    /// Integer or floating addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (traps on integer divide-by-zero when exceptions enabled).
    Div,
    /// Remainder.
    Rem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Shift left.
    Shl,
    /// Shift right (arithmetic for signed types, logical for unsigned).
    Shr,
    /// Equality comparison, yields `bool`.
    SetEq,
    /// Inequality comparison.
    SetNe,
    /// Less-than comparison.
    SetLt,
    /// Greater-than comparison.
    SetGt,
    /// Less-or-equal comparison.
    SetLe,
    /// Greater-or-equal comparison.
    SetGe,
    /// Function return, with optional value operand.
    Ret,
    /// Branch: unconditional (one target) or conditional (bool + two targets).
    Br,
    /// Multi-way branch on an integer value with a case table and default.
    Mbr,
    /// Call with exceptional control flow: normal and unwind successors.
    Invoke,
    /// Unwind the stack to the nearest enclosing `invoke`.
    Unwind,
    /// Load a scalar from memory.
    Load,
    /// Store a scalar to memory.
    Store,
    /// Typed pointer arithmetic over struct fields and array elements.
    GetElementPtr,
    /// Allocate stack memory, yielding a typed pointer.
    Alloca,
    /// Explicit type conversion (the sole coercion mechanism).
    Cast,
    /// Function call through a function-pointer value.
    Call,
    /// SSA merge of values flowing in from predecessor blocks.
    Phi,
}

impl Opcode {
    /// All 28 opcodes, in the paper's Table 1 order.
    pub const ALL: [Opcode; 28] = [
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mul,
        Opcode::Div,
        Opcode::Rem,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Shl,
        Opcode::Shr,
        Opcode::SetEq,
        Opcode::SetNe,
        Opcode::SetLt,
        Opcode::SetGt,
        Opcode::SetLe,
        Opcode::SetGe,
        Opcode::Ret,
        Opcode::Br,
        Opcode::Mbr,
        Opcode::Invoke,
        Opcode::Unwind,
        Opcode::Load,
        Opcode::Store,
        Opcode::GetElementPtr,
        Opcode::Alloca,
        Opcode::Cast,
        Opcode::Call,
        Opcode::Phi,
    ];

    /// The assembly mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Mul => "mul",
            Opcode::Div => "div",
            Opcode::Rem => "rem",
            Opcode::And => "and",
            Opcode::Or => "or",
            Opcode::Xor => "xor",
            Opcode::Shl => "shl",
            Opcode::Shr => "shr",
            Opcode::SetEq => "seteq",
            Opcode::SetNe => "setne",
            Opcode::SetLt => "setlt",
            Opcode::SetGt => "setgt",
            Opcode::SetLe => "setle",
            Opcode::SetGe => "setge",
            Opcode::Ret => "ret",
            Opcode::Br => "br",
            Opcode::Mbr => "mbr",
            Opcode::Invoke => "invoke",
            Opcode::Unwind => "unwind",
            Opcode::Load => "load",
            Opcode::Store => "store",
            Opcode::GetElementPtr => "getelementptr",
            Opcode::Alloca => "alloca",
            Opcode::Cast => "cast",
            Opcode::Call => "call",
            Opcode::Phi => "phi",
        }
    }

    /// Parses a mnemonic back into an opcode.
    pub fn from_mnemonic(s: &str) -> Option<Opcode> {
        Opcode::ALL.iter().copied().find(|op| op.mnemonic() == s)
    }

    /// A stable numeric encoding used by the bytecode format.
    pub fn encoding(self) -> u8 {
        Opcode::ALL
            .iter()
            .position(|&op| op == self)
            .expect("opcode present in ALL") as u8
    }

    /// Inverse of [`encoding`](Opcode::encoding).
    pub fn from_encoding(byte: u8) -> Option<Opcode> {
        Opcode::ALL.get(byte as usize).copied()
    }

    /// Whether this opcode terminates a basic block (paper §3.1: each
    /// block ends in exactly one control-flow instruction).
    pub fn is_terminator(self) -> bool {
        matches!(
            self,
            Opcode::Ret | Opcode::Br | Opcode::Mbr | Opcode::Invoke | Opcode::Unwind
        )
    }

    /// Whether this is one of the two-operand arithmetic/bitwise ops.
    pub fn is_binary(self) -> bool {
        matches!(
            self,
            Opcode::Add
                | Opcode::Sub
                | Opcode::Mul
                | Opcode::Div
                | Opcode::Rem
                | Opcode::And
                | Opcode::Or
                | Opcode::Xor
                | Opcode::Shl
                | Opcode::Shr
        )
    }

    /// Whether this is one of the six `set*` comparisons.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            Opcode::SetEq
                | Opcode::SetNe
                | Opcode::SetLt
                | Opcode::SetGt
                | Opcode::SetLe
                | Opcode::SetGe
        )
    }

    /// Default value of the `ExceptionsEnabled` attribute (§3.3): `true`
    /// for `load`, `store` and `div`; `false` for everything else.
    pub fn default_exceptions_enabled(self) -> bool {
        matches!(self, Opcode::Load | Opcode::Store | Opcode::Div)
    }

    /// Whether the instruction may read or write memory (used by DCE and
    /// code motion legality).
    pub fn touches_memory(self) -> bool {
        matches!(
            self,
            Opcode::Load | Opcode::Store | Opcode::Call | Opcode::Invoke
        )
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One LLVA instruction: an opcode, a result type, value operands, and —
/// for control flow and `phi` — block operands.
///
/// Operand conventions:
///
/// * binary / comparison: `[lhs, rhs]`
/// * `ret`: `[]` or `[value]`
/// * `br`: unconditional `[]` + blocks `[dest]`; conditional `[cond]` +
///   blocks `[then, else]`
/// * `mbr`: `[discriminant, case0, case1, …]` (cases are integer
///   constants) + blocks `[default, target0, target1, …]`
/// * `invoke`: `[callee, args…]` + blocks `[normal, unwind]`
/// * `unwind`: `[]`
/// * `load`: `[ptr]`; `store`: `[value, ptr]`
/// * `getelementptr`: `[ptr, idx0, idx1, …]`
/// * `alloca`: `[]` or `[count]`; result type is the pointer
/// * `cast`: `[value]`; result type is the destination type
/// * `call`: `[callee, args…]`
/// * `phi`: `[v0, v1, …]` + blocks `[pred0, pred1, …]` (parallel)
///
/// Operand lists are boxed slices: they are replaced whole, never grown,
/// so they carry no spare capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instruction {
    opcode: Opcode,
    ty: crate::types::TypeId,
    operands: Box<[ValueId]>,
    blocks: Box<[BlockId]>,
    exceptions_enabled: bool,
}

impl Instruction {
    /// Creates an instruction with the opcode's default
    /// `ExceptionsEnabled` attribute.
    pub fn new(
        opcode: Opcode,
        ty: crate::types::TypeId,
        operands: Vec<ValueId>,
        blocks: Vec<BlockId>,
    ) -> Instruction {
        Instruction {
            opcode,
            ty,
            operands: operands.into_boxed_slice(),
            blocks: blocks.into_boxed_slice(),
            exceptions_enabled: opcode.default_exceptions_enabled(),
        }
    }

    /// The opcode.
    pub fn opcode(&self) -> Opcode {
        self.opcode
    }

    /// The result type (`void` when the instruction produces no value).
    pub fn result_type(&self) -> crate::types::TypeId {
        self.ty
    }

    /// The value operands.
    pub fn operands(&self) -> &[ValueId] {
        &self.operands
    }

    /// The operand slots, for the owning [`Function`]'s use-list-aware
    /// mutators only.
    ///
    /// [`Function`]: crate::function::Function
    pub(crate) fn operand_slots(&mut self) -> &mut [ValueId] {
        &mut self.operands
    }

    /// Replaces the operand list, returning the old one (for the owning
    /// [`Function`]'s use-list-aware mutators only).
    ///
    /// [`Function`]: crate::function::Function
    pub(crate) fn replace_operands(&mut self, operands: Vec<ValueId>) -> Box<[ValueId]> {
        std::mem::replace(&mut self.operands, operands.into_boxed_slice())
    }

    /// The block operands (branch targets / phi predecessors).
    pub fn block_operands(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Mutable access to the block operands (block operands carry no
    /// use lists).
    pub(crate) fn block_operands_mut(&mut self) -> &mut [BlockId] {
        &mut self.blocks
    }

    /// Replaces the block-operand list.
    pub(crate) fn set_block_operands(&mut self, blocks: Vec<BlockId>) {
        self.blocks = blocks.into_boxed_slice();
    }

    /// The `ExceptionsEnabled` attribute (§3.3).
    pub fn exceptions_enabled(&self) -> bool {
        self.exceptions_enabled
    }

    /// Overrides the `ExceptionsEnabled` attribute. Static compilers may
    /// set it to `false` for operations whose exceptions a language
    /// ignores, or `true` to force precise trapping.
    pub fn set_exceptions_enabled(&mut self, enabled: bool) {
        self.exceptions_enabled = enabled;
    }

    /// Whether this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        self.opcode.is_terminator()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_has_exactly_28_instructions() {
        assert_eq!(Opcode::ALL.len(), 28);
    }

    #[test]
    fn mnemonic_round_trip() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(Opcode::from_mnemonic("bogus"), None);
    }

    #[test]
    fn encoding_round_trip() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_encoding(op.encoding()), Some(op));
        }
        assert_eq!(Opcode::from_encoding(28), None);
        assert_eq!(Opcode::from_encoding(255), None);
    }

    #[test]
    fn terminators_are_the_control_flow_category() {
        let terms: Vec<Opcode> = Opcode::ALL.iter().copied().filter(|o| o.is_terminator()).collect();
        assert_eq!(
            terms,
            vec![Opcode::Ret, Opcode::Br, Opcode::Mbr, Opcode::Invoke, Opcode::Unwind]
        );
    }

    #[test]
    fn default_exceptions_enabled_matches_paper() {
        // §3.3: true by default for load, store and div; false otherwise.
        for op in Opcode::ALL {
            let expected = matches!(op, Opcode::Load | Opcode::Store | Opcode::Div);
            assert_eq!(op.default_exceptions_enabled(), expected, "{op}");
        }
    }

    #[test]
    fn category_counts_match_table_1() {
        let binary = Opcode::ALL.iter().filter(|o| o.is_binary()).count();
        let cmp = Opcode::ALL.iter().filter(|o| o.is_comparison()).count();
        let term = Opcode::ALL.iter().filter(|o| o.is_terminator()).count();
        assert_eq!(binary, 10); // arithmetic (5) + bitwise (5)
        assert_eq!(cmp, 6);
        assert_eq!(term, 5);
        // memory (4) + other (3) = the remaining 7
        assert_eq!(Opcode::ALL.len() - binary - cmp - term, 7);
    }
}
