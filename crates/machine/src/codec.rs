//! The byte format of cached native code, described once per ISA.
//!
//! LLEE keeps translated functions in OS-provided storage and in module
//! images and reloads them on later runs (§4.1). Each ISA lists its
//! instructions once, in a [`tagged!`] table beside its `Isa` impl: one
//! tag per variant and the variant's fields in byte order. [`encode`]
//! and [`decode`] are both generated from that table. A field's bytes
//! come from its type's [`Field`] impl, so the table names fields and
//! never repeats a type.
//!
//! Stored bytes are untrusted: a blob can pass the cache-entry checksum
//! and still be crafted. The field decoders therefore reject what the
//! simulators cannot execute — a register number outside the register
//! file, an intrinsic argument count beyond the argument registers — so
//! any code that decodes runs without panicking.
//!
//! This is a tag + operands format, *not* the `native_size()` model of
//! real IA-32/SPARC encodings behind Table 2.

use crate::common::{FpOp, Sym, Width};
use llva_core::intrinsics::Intrinsic;
use std::fmt;

/// A blob that failed to decode (stale format, corruption, tampering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "native-code codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// The result of a decode.
pub type Result<T> = std::result::Result<T, CodecError>;

/// A cursor over an encoded blob.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    pub(crate) fn error(&self, what: impl fmt::Display) -> CodecError {
        CodecError(format!("{what} at offset {}", self.pos))
    }

    fn bytes<const N: usize>(&mut self) -> Result<[u8; N]> {
        let Some(b) = self.buf.get(self.pos..self.pos + N) else {
            return Err(self.error("truncated"));
        };
        self.pos += N;
        Ok(b.try_into().expect("N bytes"))
    }

    /// A one-byte number below `n`.
    pub(crate) fn below(&mut self, n: usize, what: &str) -> Result<u8> {
        let [v] = self.bytes()?;
        if usize::from(v) >= n {
            return Err(self.error(format_args!("{what} {v} out of range")));
        }
        Ok(v)
    }
}

/// One encodable piece of native code: an operand kind, or a whole
/// instruction.
pub trait Field: Sized {
    /// Appends the bytes of `self`.
    fn put(&self, out: &mut Vec<u8>);

    /// Reads one value back.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a value out of range.
    fn take(r: &mut Reader<'_>) -> Result<Self>;
}

macro_rules! le_field {
    ($($t:ty),+) => {$(
        impl Field for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn take(r: &mut Reader<'_>) -> Result<Self> {
                r.bytes().map(<$t>::from_le_bytes)
            }
        }
    )+};
}

le_field!(u8, i16, u32, i32, i64);

impl Field for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn take(r: &mut Reader<'_>) -> Result<Self> {
        Ok(u8::take(r)? != 0)
    }
}

/// Implements [`Field`] for an enum from its table. Each entry is
/// `tag Variant`, `tag Variant(a, b)` or `tag Variant { a, b <= MAX }`:
/// the variant's tag byte, then its fields in byte order, each encoded
/// by its own type. `<= MAX` makes decode reject a larger value.
macro_rules! tagged {
    ($ty:ty {
        $($tag:literal $v:ident
            $(($($t:ident),+))?
            $({ $($f:ident $(<= $max:expr)?),+ })?
        ),+ $(,)?
    }) => {
        impl $crate::codec::Field for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $(Self::$v $(($($t),+))? $({ $($f),+ })? => {
                        out.push($tag);
                        $($($crate::codec::Field::put($t, out);)+)?
                        $($($crate::codec::Field::put($f, out);)+)?
                    })+
                }
            }
            fn take(r: &mut $crate::codec::Reader<'_>) -> $crate::codec::Result<Self> {
                use $crate::codec::Field;
                Ok(match u8::take(r)? {
                    $($tag => Self::$v
                        $(($({
                            let $t = Field::take(r)?;
                            $t
                        }),+))?
                        $({ $($f: {
                            let $f = Field::take(r)?;
                            $(if $f > $max {
                                return Err(r.error(format_args!("{} {} out of range", stringify!($f), $f)));
                            })?
                            $f
                        }),+ })?,
                    )+
                    tag => return Err(r.error(format_args!("bad {} tag {tag}", stringify!($ty)))),
                })
            }
        }
    };
}

/// Implements [`Field`] for fieldless enums: one byte, the discriminant.
/// The list must name every variant (`put` matches it exhaustively).
macro_rules! plain {
    ($($ty:ident { $($v:ident),+ $(,)? }),+ $(,)?) => {$(
        impl $crate::codec::Field for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $(Self::$v)|+ => out.push(*self as u8),
                }
            }
            fn take(r: &mut $crate::codec::Reader<'_>) -> $crate::codec::Result<Self> {
                let tag = <u8 as $crate::codec::Field>::take(r)?;
                $(if tag == Self::$v as u8 {
                    return Ok(Self::$v);
                })+
                Err(r.error(format_args!("bad {} {tag}", stringify!($ty))))
            }
        }
    )+};
}

/// Implements [`Field`] for register-number newtypes: one byte, which
/// decode rejects unless it names one of the `n` registers.
macro_rules! register {
    ($($ty:ident < $n:expr),+) => {$(
        impl $crate::codec::Field for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.push(self.0);
            }
            fn take(r: &mut $crate::codec::Reader<'_>) -> $crate::codec::Result<Self> {
                r.below($n, stringify!($ty)).map($ty)
            }
        }
    )+};
}

pub(crate) use {plain, register, tagged};

tagged!(Option<u32> { 0 None, 1 Some(v) });
tagged!(Sym { 0 Global(g), 1 Function(f) });
plain!(
    Width { B1, B2, B4, B8 },
    FpOp { Add, Sub, Mul, Div },
    Intrinsic {
        TrapRegister, TrapRaise, PrivSet, PrivGet, StackFrames, StackFuncName, SmcInvalidate,
        SmcReplace, StorageRegister, IoPutChar, IoGetChar, HeapAlloc, HeapFree, Clock,
    },
);

/// Encodes `code` for the native-code cache: the instruction count,
/// then each instruction.
pub fn encode<I: Field>(code: &[I]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + code.len() * 8);
    (code.len() as u32).put(&mut out);
    for inst in code {
        inst.put(&mut out);
    }
    out
}

/// Decodes code written by [`encode`].
///
/// # Errors
///
/// [`CodecError`] on truncation, a bad tag, an operand out of range, or
/// an instruction count above the bytes that follow (every instruction
/// takes at least one, so a corrupt count cannot drive a huge
/// allocation).
pub fn decode<I: Field>(bytes: &[u8]) -> Result<Vec<I>> {
    let mut r = Reader { buf: bytes, pos: 0 };
    let n = u32::take(&mut r)? as usize;
    let remaining = bytes.len() - r.pos;
    if n > remaining {
        return Err(r.error(format_args!(
            "instruction count {n} exceeds the {remaining} bytes that follow"
        )));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(I::take(&mut r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{riscv, sparc, x86};

    #[test]
    fn corrupt_blobs_rejected() {
        assert!(decode::<x86::X86Inst>(&[1, 2, 3]).is_err());
        assert!(decode::<sparc::SparcInst>(&[9]).is_err());
        assert!(decode::<riscv::RiscvInst>(&[7, 7]).is_err());
        let mut bad_tag = encode(&[x86::X86Inst::Ret]);
        bad_tag[4] = 250;
        assert!(decode::<x86::X86Inst>(&bad_tag).is_err());
    }

    #[test]
    fn huge_counts_rejected_without_allocating() {
        // a count claiming 4 billion instructions in a 4-byte blob
        let bomb = u32::MAX.to_le_bytes();
        assert!(decode::<x86::X86Inst>(&bomb).is_err());
        assert!(decode::<sparc::SparcInst>(&bomb).is_err());
        assert!(decode::<riscv::RiscvInst>(&bomb).is_err());
    }

    /// Sets byte `at` of `inst`'s encoding to each of `ok` and `bad`,
    /// which must decode and must not.
    fn bounds<I: Field + fmt::Debug>(inst: I, at: usize, ok: u8, bad: u8) {
        let mut blob = encode(&[inst]);
        blob[4 + at] = ok;
        assert!(decode::<I>(&blob).is_ok(), "{blob:?}");
        blob[4 + at] = bad;
        assert!(decode::<I>(&blob).is_err(), "{blob:?}");
    }

    #[test]
    fn operands_the_simulator_cannot_execute_are_rejected() {
        use crate::core::{FPRS, GPRS};
        use riscv::RiscvInst as R;
        use sparc::SparcInst as S;
        use x86::X86Inst as X;
        let (gpr, fpr) = (GPRS as u8, FPRS as u8);
        let clock = Intrinsic::Clock;
        bounds(X::FMovRR(x86::Fpr(0), x86::Fpr(1)), 2, 7, 8);
        bounds(X::Push(x86::Gpr::Eax), 1, 7, 8);
        bounds(S::FMov(sparc::FReg(0), sparc::FReg(1)), 2, fpr - 1, fpr);
        bounds(S::MovGF(sparc::G1, sparc::FReg(1)), 1, gpr - 1, gpr);
        bounds(S::CallIntrinsic { which: clock, nargs: 0 }, 2, 6, 7);
        bounds(R::MovFG(riscv::FReg(0), riscv::A0), 1, fpr - 1, fpr);
        bounds(R::MovGF(riscv::A0, riscv::FReg(1)), 1, gpr - 1, gpr);
        bounds(R::CallIntrinsic { which: clock, nargs: 0 }, 2, 8, 9);
    }
}
