//! Compile-time evaluation of LLVA scalar operations on constants.
//!
//! Shared by the constant-folding optimizer and the code generators.
//! Semantics match the reference interpreter in `llva-engine`: integer
//! arithmetic wraps at the type width, shifts use the amount's low six
//! bits at every width (an amount at or past a narrow type's width
//! shifts every bit out), division by zero does *not* fold (it must
//! trap — or not — at run time depending on `ExceptionsEnabled`).

use crate::instruction::Opcode;
use crate::types::{TypeId, TypeKind, TypeTable};
use crate::value::Constant;

/// Truncates `bits` to `width` bits.
pub fn truncate(bits: u64, width: u32) -> u64 {
    if width >= 64 {
        bits
    } else {
        bits & ((1u64 << width) - 1)
    }
}

/// Sign-extends the low `width` bits of `bits` to 64 bits.
pub fn sign_extend(bits: u64, width: u32) -> i64 {
    if width >= 64 {
        return bits as i64;
    }
    let shift = 64 - width;
    ((bits << shift) as i64) >> shift
}

/// Folds a binary arithmetic/bitwise operation over two constants.
///
/// Returns `None` when the operation cannot be folded at compile time
/// (mismatched kinds, division by zero, non-numeric types).
pub fn fold_binary(
    types: &TypeTable,
    op: Opcode,
    lhs: &Constant,
    rhs: &Constant,
) -> Option<Constant> {
    debug_assert!(op.is_binary());
    match (lhs, rhs) {
        (Constant::Int { ty, bits: a }, Constant::Int { ty: ty2, bits: b }) if ty == ty2 => {
            let width = types.int_bits(*ty)?;
            let signed = types.is_signed_integer(*ty);
            let bits = fold_int_binary(op, *a, *b, width, signed)?;
            Some(Constant::Int {
                ty: *ty,
                bits: truncate(bits, width),
            })
        }
        (Constant::Float { ty, bits: a }, Constant::Float { ty: ty2, bits: b }) if ty == ty2 => {
            let is_f32 = matches!(types.kind(*ty), TypeKind::Float);
            let (x, y) = if is_f32 {
                (
                    f32::from_bits(*a as u32) as f64,
                    f32::from_bits(*b as u32) as f64,
                )
            } else {
                (f64::from_bits(*a), f64::from_bits(*b))
            };
            let r = match op {
                Opcode::Add => x + y,
                Opcode::Sub => x - y,
                Opcode::Mul => x * y,
                Opcode::Div => x / y,
                Opcode::Rem => x % y,
                _ => return None, // no bitwise on floats
            };
            let bits = if is_f32 {
                (r as f32).to_bits() as u64
            } else {
                r.to_bits()
            };
            Some(Constant::Float { ty: *ty, bits })
        }
        _ => None,
    }
}

fn fold_int_binary(op: Opcode, a: u64, b: u64, width: u32, signed: bool) -> Option<u64> {
    let sa = sign_extend(a, width);
    let sb = sign_extend(b, width);
    Some(match op {
        Opcode::Add => a.wrapping_add(b),
        Opcode::Sub => a.wrapping_sub(b),
        Opcode::Mul => a.wrapping_mul(b),
        Opcode::Div => {
            if b == 0 {
                return None; // must trap at run time
            }
            if signed {
                sa.checked_div(sb)? as u64
            } else {
                a / b
            }
        }
        Opcode::Rem => {
            if b == 0 {
                return None;
            }
            if signed {
                sa.checked_rem(sb)? as u64
            } else {
                a % b
            }
        }
        Opcode::And => a & b,
        Opcode::Or => a | b,
        Opcode::Xor => a ^ b,
        // the executors shift by the amount's low six bits whatever
        // the width, so an amount >= the width shifts bits out
        Opcode::Shl => a.wrapping_shl((b & 63) as u32),
        Opcode::Shr => {
            let sh = (b & 63) as u32;
            if signed {
                (sign_extend(a, width) >> sh) as u64
            } else {
                truncate(a, width) >> sh
            }
        }
        _ => return None,
    })
}

/// Folds one of the six `set*` comparisons over two constants.
pub fn fold_compare(
    types: &TypeTable,
    op: Opcode,
    lhs: &Constant,
    rhs: &Constant,
) -> Option<Constant> {
    debug_assert!(op.is_comparison());
    use std::cmp::Ordering;
    let ord = match (lhs, rhs) {
        (Constant::Bool(a), Constant::Bool(b)) => a.cmp(b),
        (Constant::Int { ty, bits: a }, Constant::Int { ty: ty2, bits: b }) if ty == ty2 => {
            let width = types.int_bits(*ty)?;
            if types.is_signed_integer(*ty) {
                sign_extend(*a, width).cmp(&sign_extend(*b, width))
            } else {
                truncate(*a, width).cmp(&truncate(*b, width))
            }
        }
        (Constant::Float { ty, bits: a }, Constant::Float { ty: ty2, bits: b }) if ty == ty2 => {
            let is_f32 = matches!(types.kind(*ty), TypeKind::Float);
            let (x, y) = if is_f32 {
                (
                    f32::from_bits(*a as u32) as f64,
                    f32::from_bits(*b as u32) as f64,
                )
            } else {
                (f64::from_bits(*a), f64::from_bits(*b))
            };
            x.partial_cmp(&y)?
        }
        (Constant::Null(t1), Constant::Null(t2)) if t1 == t2 => Ordering::Equal,
        // A global/function address is never null.
        (Constant::GlobalAddr { .. }, Constant::Null(_))
        | (Constant::FunctionAddr { .. }, Constant::Null(_)) => Ordering::Greater,
        (Constant::Null(_), Constant::GlobalAddr { .. })
        | (Constant::Null(_), Constant::FunctionAddr { .. }) => Ordering::Less,
        _ => return None,
    };
    let r = match op {
        Opcode::SetEq => ord == Ordering::Equal,
        Opcode::SetNe => ord != Ordering::Equal,
        Opcode::SetLt => ord == Ordering::Less,
        Opcode::SetGt => ord == Ordering::Greater,
        Opcode::SetLe => ord != Ordering::Greater,
        Opcode::SetGe => ord != Ordering::Less,
        _ => return None,
    };
    Some(Constant::Bool(r))
}

/// Folds a `cast` of a constant to `to`.
pub fn fold_cast(types: &TypeTable, value: &Constant, to: TypeId) -> Option<Constant> {
    let to_kind = types.kind(to).clone();
    // Source as a (value, signedness) pair where applicable.
    match value {
        Constant::Bool(b) => {
            let v = u64::from(*b);
            cast_from_int(types, v, false, to, &to_kind)
        }
        Constant::Int { ty, bits } => {
            let w = types.int_bits(*ty)?;
            let signed = types.is_signed_integer(*ty);
            let v = if signed {
                sign_extend(*bits, w) as u64
            } else {
                truncate(*bits, w)
            };
            cast_from_int(types, v, signed, to, &to_kind)
        }
        Constant::Float { ty, bits } => {
            let is_f32 = matches!(types.kind(*ty), TypeKind::Float);
            let x = if is_f32 {
                f32::from_bits(*bits as u32) as f64
            } else {
                f64::from_bits(*bits)
            };
            match to_kind {
                TypeKind::Float => Some(Constant::Float {
                    ty: to,
                    bits: (x as f32).to_bits() as u64,
                }),
                TypeKind::Double => Some(Constant::Float {
                    ty: to,
                    bits: x.to_bits(),
                }),
                TypeKind::Bool => Some(Constant::Bool(x != 0.0)),
                _ if types.is_integer(to) => {
                    let w = types.int_bits(to)?;
                    let v = if types.is_signed_integer(to) {
                        (x as i64) as u64
                    } else {
                        x as u64
                    };
                    Some(Constant::Int {
                        ty: to,
                        bits: truncate(v, w),
                    })
                }
                _ => None,
            }
        }
        Constant::Null(_) => match to_kind {
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
        _ => None,
    }
}

fn cast_from_int(
    types: &TypeTable,
    v: u64,
    signed: bool,
    to: TypeId,
    to_kind: &TypeKind,
) -> Option<Constant> {
    match to_kind {
        TypeKind::Bool => Some(Constant::Bool(v != 0)),
        TypeKind::Float => {
            let x = if signed { v as i64 as f64 } else { v as f64 };
            Some(Constant::Float {
                ty: to,
                bits: (x as f32).to_bits() as u64,
            })
        }
        TypeKind::Double => {
            let x = if signed { v as i64 as f64 } else { v as f64 };
            Some(Constant::Float {
                ty: to,
                bits: x.to_bits(),
            })
        }
        TypeKind::Pointer(_) => None, // int-to-pointer: not foldable
        _ if types.is_integer(to) => {
            let w = types.int_bits(to)?;
            Some(Constant::Int {
                ty: to,
                bits: truncate(v, w),
            })
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
