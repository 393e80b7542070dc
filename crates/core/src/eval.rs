//! LLVA scalar semantics, written once.
//!
//! Integer and float arithmetic, the six compares and every cast are
//! defined here and nowhere else. The structural and pre-decoded
//! interpreters, the trace compiler, the simulated processors' float
//! and convert instructions, and the constant folder (through
//! [`fold_binary`], [`fold_compare`] and [`fold_cast`]) all evaluate
//! through these functions; only the simulators' integer ALUs, which
//! model native instructions, keep their own.
//!
//! Values are bits in, bits out, in the canonical register
//! representation: an integer narrower than 64 bits is sign-extended
//! (signed types) or zero-extended (unsigned types, `bool`, pointers);
//! a `float` is its `f32` bits zero-extended and a `double` its `f64`
//! bits. Float arithmetic runs in `f64` and rounds to the result type.
//! Integer arithmetic wraps at the type width, and shifts use the
//! amount's low six bits at every width, so an amount at or past a
//! narrow type's width shifts every bit out. Division by zero has no
//! value: whether it traps depends on the instruction's exception bit,
//! so it never folds.

use crate::instruction::Opcode;
use crate::types::{TypeId, TypeKind, TypeTable};
use crate::value::Constant;
use std::cmp::Ordering;

/// The integer widths ([`TypeTable::int_bits`]) a canonical value has.
pub const INT_WIDTHS: [u32; 5] = [1, 8, 16, 32, 64];

/// Truncates `bits` to `width` bits.
#[inline]
pub fn truncate(bits: u64, width: u32) -> u64 {
    if width >= 64 {
        bits
    } else {
        bits & ((1u64 << width) - 1)
    }
}

/// Sign-extends the low `width` bits of `bits` to 64 bits.
#[inline]
pub fn sign_extend(bits: u64, width: u32) -> i64 {
    if width >= 64 {
        return bits as i64;
    }
    let shift = 64 - width;
    ((bits << shift) as i64) >> shift
}

/// The canonical representation of the low `width` bits of `v`.
#[inline]
pub fn canonicalize(v: u64, width: u32, signed: bool) -> u64 {
    if signed {
        sign_extend(v, width) as u64
    } else {
        truncate(v, width)
    }
}

/// The value of float register bits: an `f32` (`is32`) or an `f64`.
#[inline]
pub fn float(bits: u64, is32: bool) -> f64 {
    if is32 {
        f64::from(f32::from_bits(bits as u32))
    } else {
        f64::from_bits(bits)
    }
}

/// The register bits of `v` rounded to an `f32` (`is32`) or an `f64`.
#[inline]
pub fn float_bits(v: f64, is32: bool) -> u64 {
    if is32 {
        u64::from((v as f32).to_bits())
    } else {
        v.to_bits()
    }
}

/// An integer binary op over canonical operands of a `width`-bit type;
/// `None` only for division by zero.
///
/// # Panics
///
/// Panics on an opcode that is not a binary op.
#[inline]
pub fn int_binary(op: Opcode, a: u64, b: u64, width: u32, signed: bool) -> Option<u64> {
    let raw = match op {
        Opcode::Add => a.wrapping_add(b),
        Opcode::Sub => a.wrapping_sub(b),
        Opcode::Mul => a.wrapping_mul(b),
        Opcode::Div if b == 0 => return None,
        Opcode::Div if signed => (a as i64).wrapping_div(b as i64) as u64,
        Opcode::Div => a / b,
        Opcode::Rem if b == 0 => return None,
        Opcode::Rem if signed => (a as i64).wrapping_rem(b as i64) as u64,
        Opcode::Rem => a % b,
        Opcode::And => a & b,
        Opcode::Or => a | b,
        Opcode::Xor => a ^ b,
        Opcode::Shl => a.wrapping_shl((b & 63) as u32),
        Opcode::Shr if signed => (a as i64).wrapping_shr((b & 63) as u32) as u64,
        Opcode::Shr => a.wrapping_shr((b & 63) as u32),
        _ => unreachable!("{op:?} is not a binary op"),
    };
    Some(canonicalize(raw, width, signed))
}

/// A float binary op over register bits; `None` for the bitwise ops,
/// which floats do not have.
#[inline]
pub fn float_binary(op: Opcode, a: u64, b: u64, is32: bool) -> Option<u64> {
    let (x, y) = (float(a, is32), float(b, is32));
    let r = match op {
        Opcode::Add => x + y,
        Opcode::Sub => x - y,
        Opcode::Mul => x * y,
        Opcode::Div => x / y,
        Opcode::Rem => x % y,
        _ => return None,
    };
    Some(float_bits(r, is32))
}

/// How a compare reads its operands' bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpClass {
    /// Signed 64-bit integer ordering.
    Sint,
    /// Unsigned ordering (also bool and pointers).
    Uint,
    /// 32-bit float ordering (NaN compares unordered).
    F32,
    /// 64-bit float ordering.
    F64,
}

/// The class of a compare of two `ty` values.
pub fn cmp_class(tt: &TypeTable, ty: TypeId) -> CmpClass {
    match tt.kind(ty) {
        TypeKind::Float => CmpClass::F32,
        TypeKind::Double => CmpClass::F64,
        _ if tt.is_signed_integer(ty) => CmpClass::Sint,
        _ => CmpClass::Uint,
    }
}

/// The order of `a` and `b` read as `class`; `None` when a float
/// operand is NaN.
#[inline]
pub fn order(class: CmpClass, a: u64, b: u64) -> Option<Ordering> {
    match class {
        CmpClass::Sint => Some((a as i64).cmp(&(b as i64))),
        CmpClass::Uint => Some(a.cmp(&b)),
        CmpClass::F32 | CmpClass::F64 => {
            let is32 = class == CmpClass::F32;
            float(a, is32).partial_cmp(&float(b, is32))
        }
    }
}

/// One of the six `set*` compares. With a NaN operand only `setne`
/// holds.
///
/// # Panics
///
/// Panics on an opcode that is not a compare.
#[inline]
pub fn compare(op: Opcode, class: CmpClass, a: u64, b: u64) -> bool {
    let Some(ord) = order(class, a, b) else {
        return op == Opcode::SetNe;
    };
    match op {
        Opcode::SetEq => ord == Ordering::Equal,
        Opcode::SetNe => ord != Ordering::Equal,
        Opcode::SetLt => ord == Ordering::Less,
        Opcode::SetGt => ord == Ordering::Greater,
        Opcode::SetLe => ord != Ordering::Greater,
        Opcode::SetGe => ord != Ordering::Less,
        _ => unreachable!("{op:?} is not a compare"),
    }
}

/// A `cast`, classified by its source and destination types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CastKind {
    /// Bit-identical (pointer↔int of same width, unknown targets).
    Identity,
    /// Integer/bool/pointer to bool: `v != 0`.
    IntToBool,
    /// Integer to integer: canonicalize to width/signedness.
    IntToInt { width: u32, signed: bool },
    /// Integer to float/double, respecting source signedness.
    IntToFloat { src_signed: bool, dst32: bool },
    /// Float/double to float/double.
    FloatToFloat { src32: bool, dst32: bool },
    /// Float/double to bool: `x != 0.0`.
    FloatToBool { src32: bool },
    /// Float/double to integer: truncating toward zero, saturating at
    /// the 64-bit range, then canonicalized to the width.
    FloatToInt { src32: bool, width: u32, signed: bool },
}

/// The kind of a cast of a `from` value to `to`.
pub fn cast_kind(tt: &TypeTable, from: TypeId, to: TypeId) -> CastKind {
    let int = || {
        let width = tt.int_bits(to).expect("integer type");
        (width, tt.is_signed_integer(to))
    };
    if tt.is_float(from) {
        let src32 = matches!(tt.kind(from), TypeKind::Float);
        return match tt.kind(to) {
            TypeKind::Float => CastKind::FloatToFloat { src32, dst32: true },
            TypeKind::Double => CastKind::FloatToFloat { src32, dst32: false },
            TypeKind::Bool => CastKind::FloatToBool { src32 },
            _ if tt.is_integer(to) => {
                let (width, signed) = int();
                CastKind::FloatToInt { src32, width, signed }
            }
            _ => CastKind::Identity,
        };
    }
    let src_signed = tt.is_signed_integer(from);
    match tt.kind(to) {
        TypeKind::Bool => CastKind::IntToBool,
        TypeKind::Float => CastKind::IntToFloat { src_signed, dst32: true },
        TypeKind::Double => CastKind::IntToFloat { src_signed, dst32: false },
        _ if tt.is_integer(to) => {
            let (width, signed) = int();
            CastKind::IntToInt { width, signed }
        }
        _ => CastKind::Identity,
    }
}

/// Casts the canonical bits `v` as `kind` says.
#[inline]
pub fn cast(kind: CastKind, v: u64) -> u64 {
    match kind {
        CastKind::Identity => v,
        CastKind::IntToBool => u64::from(v != 0),
        CastKind::IntToInt { width, signed } => canonicalize(v, width, signed),
        CastKind::IntToFloat { src_signed, dst32 } => {
            let x = if src_signed { v as i64 as f64 } else { v as f64 };
            float_bits(x, dst32)
        }
        CastKind::FloatToFloat { src32, dst32 } => float_bits(float(v, src32), dst32),
        CastKind::FloatToBool { src32 } => u64::from(float(v, src32) != 0.0),
        CastKind::FloatToInt { src32, width, signed } => {
            let x = float(v, src32);
            let raw = if signed { x as i64 as u64 } else { x as u64 };
            canonicalize(raw, width, signed)
        }
    }
}

/// The canonical bits of a constant; `None` for the address constants,
/// which have no bits until they are placed.
pub fn const_bits(tt: &TypeTable, c: &Constant) -> Option<u64> {
    Some(match c {
        Constant::Bool(b) => u64::from(*b),
        Constant::Int { ty, bits } => {
            canonicalize(*bits, tt.int_bits(*ty)?, tt.is_signed_integer(*ty))
        }
        Constant::Float { bits, .. } => *bits,
        Constant::Null(_) | Constant::Undef(_) => 0,
        Constant::GlobalAddr { .. } | Constant::FunctionAddr { .. } => return None,
    })
}

/// The constant of type `ty` whose canonical bits are `bits`; `None`
/// for types without numeric constants.
fn constant(tt: &TypeTable, ty: TypeId, bits: u64) -> Option<Constant> {
    Some(match tt.kind(ty) {
        TypeKind::Bool => Constant::Bool(bits != 0),
        TypeKind::Float | TypeKind::Double => Constant::Float { ty, bits },
        _ => Constant::Int { ty, bits: truncate(bits, tt.int_bits(ty)?) },
    })
}

/// Folds a binary op over two integer or two float constants of one
/// type; `None` when it cannot fold (mixed or non-numeric operands,
/// division by zero).
pub fn fold_binary(
    types: &TypeTable,
    op: Opcode,
    lhs: &Constant,
    rhs: &Constant,
) -> Option<Constant> {
    debug_assert!(op.is_binary());
    let ty = match (lhs, rhs) {
        (Constant::Int { ty, .. }, Constant::Int { ty: t2, .. })
        | (Constant::Float { ty, .. }, Constant::Float { ty: t2, .. })
            if ty == t2 =>
        {
            *ty
        }
        _ => return None,
    };
    let (a, b) = (const_bits(types, lhs)?, const_bits(types, rhs)?);
    let bits = match types.kind(ty) {
        TypeKind::Float => float_binary(op, a, b, true)?,
        TypeKind::Double => float_binary(op, a, b, false)?,
        _ => int_binary(op, a, b, types.int_bits(ty)?, types.is_signed_integer(ty))?,
    };
    constant(types, ty, bits)
}

/// Folds one of the six `set*` compares over two constants, including
/// the symbolic ones: null equals null, and an address is never null.
pub fn fold_compare(
    types: &TypeTable,
    op: Opcode,
    lhs: &Constant,
    rhs: &Constant,
) -> Option<Constant> {
    debug_assert!(op.is_comparison());
    let holds = |class, a, b| Some(Constant::Bool(compare(op, class, a, b)));
    match (lhs, rhs) {
        (Constant::Bool(a), Constant::Bool(b)) => {
            holds(CmpClass::Uint, u64::from(*a), u64::from(*b))
        }
        (Constant::Int { ty, .. }, Constant::Int { ty: t2, .. })
        | (Constant::Float { ty, .. }, Constant::Float { ty: t2, .. })
            if ty == t2 =>
        {
            let (a, b) = (const_bits(types, lhs)?, const_bits(types, rhs)?);
            holds(cmp_class(types, *ty), a, b)
        }
        (Constant::Null(t1), Constant::Null(t2)) if t1 == t2 => holds(CmpClass::Uint, 0, 0),
        (Constant::GlobalAddr { .. } | Constant::FunctionAddr { .. }, Constant::Null(_)) => {
            holds(CmpClass::Uint, 1, 0)
        }
        (Constant::Null(_), Constant::GlobalAddr { .. } | Constant::FunctionAddr { .. }) => {
            holds(CmpClass::Uint, 0, 1)
        }
        _ => None,
    }
}

/// Folds a `cast` of a constant to `to`. Null, addresses and `undef`
/// cast symbolically; an integer becomes a pointer only at run time.
pub fn fold_cast(types: &TypeTable, value: &Constant, to: TypeId) -> Option<Constant> {
    match value {
        Constant::Null(_) => match types.kind(to) {
            TypeKind::Pointer(_) => Some(Constant::Null(to)),
            TypeKind::Bool => Some(Constant::Bool(false)),
            _ if types.is_integer(to) => Some(Constant::Int { ty: to, bits: 0 }),
            _ => None,
        },
        Constant::GlobalAddr { global, .. } if types.is_pointer(to) => Some(Constant::GlobalAddr {
            global: *global,
            ty: to,
        }),
        Constant::FunctionAddr { func, .. } if types.is_pointer(to) => {
            Some(Constant::FunctionAddr {
                func: *func,
                ty: to,
            })
        }
        Constant::Undef(_) => Some(Constant::Undef(to)),
        Constant::Bool(_) | Constant::Int { .. } | Constant::Float { .. }
            if !types.is_pointer(to) =>
        {
            let from = value.type_id().or_else(|| types.lookup(&TypeKind::Bool))?;
            constant(types, to, cast(cast_kind(types, from, to), const_bits(types, value)?))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tt() -> TypeTable {
        TypeTable::new()
    }

    fn ci(tt: &mut TypeTable, v: i64) -> Constant {
        let int = tt.int();
        Constant::Int {
            ty: int,
            bits: truncate(v as u64, 32),
        }
    }

    #[test]
    fn int_arithmetic_wraps() {
        let mut t = tt();
        let a = ci(&mut t, i32::MAX as i64);
        let b = ci(&mut t, 1);
        let r = fold_binary(&t, Opcode::Add, &a, &b).expect("folds");
        assert_eq!(r.as_int_bits(), Some(truncate(i32::MIN as u64, 32)));
    }

    #[test]
    fn signed_division() {
        let mut t = tt();
        let a = ci(&mut t, -7);
        let b = ci(&mut t, 2);
        let r = fold_binary(&t, Opcode::Div, &a, &b).expect("folds");
        assert_eq!(sign_extend(r.as_int_bits().unwrap(), 32), -3);
        let r = fold_binary(&t, Opcode::Rem, &a, &b).expect("folds");
        assert_eq!(sign_extend(r.as_int_bits().unwrap(), 32), -1);
    }

    #[test]
    fn division_by_zero_does_not_fold() {
        let mut t = tt();
        let a = ci(&mut t, 1);
        let z = ci(&mut t, 0);
        assert_eq!(fold_binary(&t, Opcode::Div, &a, &z), None);
        assert_eq!(fold_binary(&t, Opcode::Rem, &a, &z), None);
    }

    #[test]
    fn unsigned_vs_signed_shr() {
        let mut t = tt();
        let int = t.int();
        let uint = t.uint();
        let neg = Constant::Int {
            ty: int,
            bits: truncate(-8i64 as u64, 32),
        };
        let one = Constant::Int { ty: int, bits: 1 };
        let r = fold_binary(&t, Opcode::Shr, &neg, &one).expect("folds");
        assert_eq!(sign_extend(r.as_int_bits().unwrap(), 32), -4);
        let uneg = Constant::Int {
            ty: uint,
            bits: truncate(-8i64 as u64, 32),
        };
        let uone = Constant::Int { ty: uint, bits: 1 };
        let r = fold_binary(&t, Opcode::Shr, &uneg, &uone).expect("folds");
        assert_eq!(r.as_int_bits(), Some(truncate(-8i64 as u64, 32) >> 1));
    }

    #[test]
    fn comparisons_respect_signedness() {
        let mut t = tt();
        let int = t.int();
        let uint = t.uint();
        let m1 = Constant::Int {
            ty: int,
            bits: truncate(-1i64 as u64, 32),
        };
        let one = Constant::Int { ty: int, bits: 1 };
        assert_eq!(
            fold_compare(&t, Opcode::SetLt, &m1, &one),
            Some(Constant::Bool(true))
        );
        let um1 = Constant::Int {
            ty: uint,
            bits: truncate(-1i64 as u64, 32),
        };
        let uone = Constant::Int { ty: uint, bits: 1 };
        assert_eq!(
            fold_compare(&t, Opcode::SetLt, &um1, &uone),
            Some(Constant::Bool(false))
        );
    }

    #[test]
    fn float_folding() {
        let mut t = tt();
        let dbl = t.double();
        let a = Constant::Float {
            ty: dbl,
            bits: 1.5f64.to_bits(),
        };
        let b = Constant::Float {
            ty: dbl,
            bits: 2.0f64.to_bits(),
        };
        let r = fold_binary(&t, Opcode::Mul, &a, &b).expect("folds");
        assert_eq!(r.as_f64(false), Some(3.0));
        assert_eq!(
            fold_compare(&t, Opcode::SetGt, &b, &a),
            Some(Constant::Bool(true))
        );
    }

    #[test]
    fn casts() {
        let mut t = tt();
        let int = t.int();
        let ubyte = t.ubyte();
        let dbl = t.double();
        let c = Constant::Int {
            ty: int,
            bits: truncate(300, 32),
        };
        // int 300 -> ubyte 44
        let r = fold_cast(&t, &c, ubyte).expect("folds");
        assert_eq!(r.as_int_bits(), Some(44));
        // int -2 -> double -2.0
        let neg = Constant::Int {
            ty: int,
            bits: truncate(-2i64 as u64, 32),
        };
        let r = fold_cast(&t, &neg, dbl).expect("folds");
        assert_eq!(r.as_f64(false), Some(-2.0));
        // double 3.7 -> int 3
        let f = Constant::Float {
            ty: dbl,
            bits: 3.7f64.to_bits(),
        };
        let r = fold_cast(&t, &f, int).expect("folds");
        assert_eq!(r.as_int_bits(), Some(3));
    }

    #[test]
    fn null_comparisons() {
        let mut t = tt();
        let int = t.int();
        let p = t.pointer_to(int);
        let null = Constant::Null(p);
        assert_eq!(
            fold_compare(&t, Opcode::SetEq, &null, &null),
            Some(Constant::Bool(true))
        );
        let g = Constant::GlobalAddr {
            global: crate::module::GlobalId::from_index(0),
            ty: p,
        };
        assert_eq!(
            fold_compare(&t, Opcode::SetEq, &g, &null),
            Some(Constant::Bool(false))
        );
        assert_eq!(
            fold_compare(&t, Opcode::SetNe, &null, &g),
            Some(Constant::Bool(true))
        );
    }
}
