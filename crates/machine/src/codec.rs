//! The one byte codec for every record LLEE and `llva-serve` write.
//!
//! LLEE keeps translated functions in OS-provided storage and keeps
//! module images on disk, and `llva-serve` reads requests off a socket
//! (§4.1): every stored or received byte is untrusted. Each record
//! format is therefore described once, as a table beside its type, and
//! [`encode`] and [`decode`] are generated from the tables:
//!
//! * cached native code — each ISA's instruction enum, in a [`tagged!`]
//!   table beside its `Isa` impl (`x86.rs`, `sparc.rs`, `riscv.rs`);
//! * predecode records — `PreFunction` and its instructions, operands
//!   and edges, beside their definitions in `llva-engine`'s `predecode`
//!   (the compare and cast classes of `llva_core::eval` are here, beside
//!   `Opcode`: the orphan rule keeps a foreign type's table in this crate);
//! * wire messages — `Request` and `Response` in `llva-serve`'s `proto`.
//!
//! A [`tagged!`] entry is one tag byte per variant and the variant's
//! fields in byte order; a [`record!`] lists a struct's fields in byte
//! order; [`plain!`] writes a fieldless enum as its discriminant. A
//! field's bytes come from its type's [`Field`] impl, so a table names
//! fields and never repeats a type. The generic pieces are
//! little-endian integers, `bool` (0 or 1), `Option<T>` (tag 0 or 1),
//! sequences and `Vec<T>` (a `u32` count, then the items), strings (a
//! `u32` byte count, then UTF-8) and tuples.
//!
//! Decode rejects, with a [`CodecError`] and never a panic: truncation,
//! a count larger than the bytes that follow (checked before anything
//! is allocated), a bad tag or `bool`, invalid UTF-8, a field outside
//! the set its table allows (register numbers, intrinsic argument
//! counts, integer widths, opcodes), and trailing bytes.
//!
//! The native-code format is a tag + operands format, *not* the
//! `native_size()` model of real IA-32/SPARC encodings behind Table 2.
//!
//! Every stored or sent record travels in a [`Format`]'s frame: magic,
//! version, a `u32` payload length and a [`hash`] of the payload seeded
//! by a per-format tag. Cache entries, image sections and wire messages
//! are all frames of this one definition.

use crate::common::{FpOp, Sym, TrapKind, Width};
use llva_core::eval::{CastKind, CmpClass, INT_WIDTHS};
use llva_core::instruction::Opcode;
use llva_core::intrinsics::Intrinsic;
use std::fmt;
use std::io;
use std::ops::Range;
use std::sync::Arc;

/// Bytes that failed to decode (stale format, corruption, tampering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// The result of a decode.
pub type Result<T> = std::result::Result<T, CodecError>;

/// A cursor over an encoded buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// An error naming the current offset.
    #[cold]
    pub fn error(&self, what: impl fmt::Display) -> CodecError {
        CodecError(format!("{what} at offset {}", self.pos))
    }

    #[inline]
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

    /// A `u32` count of items that follow, each at least one byte long.
    /// A count above the bytes left is rejected, so a corrupt count
    /// cannot drive a huge allocation.
    #[inline]
    pub fn count(&mut self) -> Result<usize> {
        let n = u32::take(self)? as usize;
        let left = self.buf.len() - self.pos;
        if n > left {
            return Err(self.error(format_args!("count {n} exceeds the {left} bytes that follow")));
        }
        Ok(n)
    }

    /// A counted run of bytes, as its range in the decoded buffer.
    #[inline]
    pub fn span(&mut self) -> Result<Range<usize>> {
        let n = self.count()?;
        self.pos += n;
        Ok(self.pos - n..self.pos)
    }

    #[inline]
    fn utf8(&mut self) -> Result<&'a str> {
        let span = self.span()?;
        std::str::from_utf8(&self.buf[span]).map_err(|_| self.error("invalid UTF-8"))
    }
}

/// One encodable piece of a record: an operand, an instruction, a
/// message or a whole record.
pub trait Field {
    /// Appends the bytes of `self`.
    fn put(&self, out: &mut Vec<u8>);

    /// Reads one value back.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation or a value out of range.
    fn take(r: &mut Reader<'_>) -> Result<Self>
    where
        Self: Sized;
}

macro_rules! le_field {
    ($($t:ty),+) => {$(
        impl Field for $t {
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn take(r: &mut Reader<'_>) -> Result<Self> {
                r.bytes().map(<$t>::from_le_bytes)
            }
        }
    )+};
}

le_field!(u8, i16, u32, i32, u64, i64);

impl Field for bool {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn take(r: &mut Reader<'_>) -> Result<Self> {
        match u8::take(r)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(r.error(format_args!("bool {v} out of range"))),
        }
    }
}

impl<T: Field> Field for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self> {
        match u8::take(r)? {
            0 => Ok(None),
            1 => T::take(r).map(Some),
            tag => Err(r.error(format_args!("bad Option tag {tag}"))),
        }
    }
}

impl<T: Field> Field for [T] {
    fn put(&self, out: &mut Vec<u8>) {
        // the in-memory size is a cheap guess at the encoded size
        out.reserve(4 + std::mem::size_of_val(self));
        (self.len() as u32).put(out);
        for v in self {
            v.put(out);
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_slice().put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self> {
        let n = r.count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::take(r)?);
        }
        Ok(out)
    }
}

impl Field for str {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Field for String {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.as_str().put(out);
    }
    #[inline]
    fn take(r: &mut Reader<'_>) -> Result<Self> {
        r.utf8().map(str::to_owned)
    }
}

impl Field for Arc<str> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }
    #[inline]
    fn take(r: &mut Reader<'_>) -> Result<Self> {
        r.utf8().map(Arc::from)
    }
}

macro_rules! tuple_field {
    ($(($($t:ident $v:ident),+)),+) => {$(
        impl<$($t: Field),+> Field for ($($t,)+) {
            fn put(&self, out: &mut Vec<u8>) {
                let ($($v,)+) = self;
                $($v.put(out);)+
            }
            fn take(r: &mut Reader<'_>) -> Result<Self> {
                Ok(($($t::take(r)?,)+))
            }
        }
    )+};
}

tuple_field!((A a, B b), (A a, B b, C c));

/// Opcodes by their bytecode encoding (`Opcode::encoding`).
impl Field for Opcode {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.encoding());
    }
    #[inline]
    fn take(r: &mut Reader<'_>) -> Result<Self> {
        let v = u8::take(r)?;
        Opcode::from_encoding(v).ok_or_else(|| r.error(format_args!("bad Opcode {v}")))
    }
}

/// Implements [`Field`] for an enum from its table. Each entry is
/// `tag Variant`, `tag Variant(a, b)` or `tag Variant { a, b in SET }`:
/// the variant's tag byte, then its fields in byte order, each encoded
/// by its own type. `in SET` makes decode reject a value that `SET`
/// (a range, array or slice) does not contain.
#[macro_export]
macro_rules! tagged {
    ($ty:ty {
        $($tag:literal $v:ident
            $(($($t:ident),+))?
            $({ $($f:ident $(in $set:expr)?),+ })?
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
                            $(if !$set.contains(&$f) {
                                return Err(r.error(format_args!("{} {:?} out of range", stringify!($f), $f)));
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

/// Implements [`Field`] for a struct from its field list: the fields in
/// byte order, each encoded by its own type. The list must name every
/// field (decode builds the struct from it).
#[macro_export]
macro_rules! record {
    ($ty:ident { $($f:ident),+ $(,)? }) => {
        impl $crate::codec::Field for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $($crate::codec::Field::put(&self.$f, out);)+
            }
            fn take(r: &mut $crate::codec::Reader<'_>) -> $crate::codec::Result<Self> {
                Ok($ty { $($f: $crate::codec::Field::take(r)?),+ })
            }
        }
    };
}

/// Implements [`Field`] for fieldless enums: one byte, the discriminant.
/// The list must name every variant (`put` matches it exhaustively).
#[macro_export]
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

pub use crate::{plain, record, tagged};
pub(crate) use register;

tagged!(Sym { 0 Global(g), 1 Function(f) });
tagged!(CastKind {
    0 Identity,
    1 IntToBool,
    2 IntToInt { width in INT_WIDTHS, signed },
    3 IntToFloat { src_signed, dst32 },
    4 FloatToFloat { src32, dst32 },
    5 FloatToBool { src32 },
    6 FloatToInt { src32, width in INT_WIDTHS, signed },
});
plain!(
    Width { B1, B2, B4, B8 },
    CmpClass { Sint, Uint, F32, F64 },
    FpOp { Add, Sub, Mul, Div, Rem },
    TrapKind {
        MemoryFault, DivideByZero, UnhandledUnwind, Software, PrivilegeViolation,
        BadFunctionPointer, StackOverflow,
    },
    Intrinsic {
        TrapRegister, TrapRaise, PrivSet, PrivGet, StackFrames, StackFuncName, SmcInvalidate,
        SmcReplace, StorageRegister, IoPutChar, IoGetChar, HeapAlloc, HeapFree, Clock,
    },
);

/// Encodes `value`.
pub fn encode<T: Field + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// Decodes one `T` that fills `bytes` exactly.
///
/// # Errors
///
/// [`CodecError`] on anything the module doc lists, trailing bytes
/// included.
pub fn decode<T: Field>(bytes: &[u8]) -> Result<T> {
    read(bytes, T::take)
}

/// Runs `f` over a [`Reader`] of `bytes` and rejects the bytes `f`
/// leaves unread: the one decode entry point, for framings a table
/// cannot describe (such as an index of byte ranges).
///
/// # Errors
///
/// `f`'s error, or [`CodecError`] on trailing bytes.
pub fn read<'a, T>(bytes: &'a [u8], f: impl FnOnce(&mut Reader<'a>) -> Result<T>) -> Result<T> {
    let mut r = Reader { buf: bytes, pos: 0 };
    let value = f(&mut r)?;
    let left = bytes.len() - r.pos;
    if left != 0 {
        return Err(r.error(format_args!("{left} trailing bytes")));
    }
    Ok(value)
}

/// The state [`hash`] starts from: FNV-1a's 64-bit offset basis.
pub const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The one hash of every stored or sent byte: FNV-1a over 8-byte
/// little-endian words (tail bytes singly), chained onto the state `h`.
/// A multiply only carries a difference upward, so each step folds the
/// high half of the state back down: without the fold, a flip of a
/// word's top bit stays in the top bit of the state and a second top-bit
/// flip in any later word cancels it.
#[must_use]
pub fn hash(bytes: &[u8], mut h: u64) -> u64 {
    let mut mix = |v: u64| {
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 32;
    };
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        mix(u64::from_le_bytes(w.try_into().expect("8 bytes")));
    }
    for &b in words.remainder() {
        mix(u64::from(b));
    }
    h
}

/// Bytes of a frame header: magic, version, payload length, checksum.
const FRAME_HEADER_LEN: usize = 4 + 1 + 4 + 8;

/// A framed format: the magic and version at the front of each of its
/// frames. A frame's checksum is the [`hash`] of its payload seeded by a
/// tag the format chooses (a storage key, a section kind), so a payload
/// copied under the wrong tag fails like a corrupt one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// First four bytes of every frame.
    pub magic: [u8; 4],
    /// The format's version, the fifth byte.
    pub version: u8,
}

impl Format {
    /// The header of the frame holding `payload` under `seed`.
    #[must_use]
    pub fn head(self, seed: &[u8], payload: &[u8]) -> [u8; FRAME_HEADER_LEN] {
        let mut head = [0; FRAME_HEADER_LEN];
        head[..4].copy_from_slice(&self.magic);
        head[4] = self.version;
        head[5..9].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        head[9..].copy_from_slice(&checksum(seed, payload).to_le_bytes());
        head
    }

    /// Appends the frame of `payload` under `seed` to `out`.
    pub fn put(self, seed: &[u8], payload: &[u8], out: &mut Vec<u8>) {
        out.reserve(FRAME_HEADER_LEN + payload.len());
        out.extend_from_slice(&self.head(seed, payload));
        out.extend_from_slice(payload);
    }

    /// The frame of `payload` under `seed`.
    #[must_use]
    pub fn frame(self, seed: &[u8], payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.put(seed, payload, &mut out);
        out
    }

    /// The payload of the frame that fills `bytes` exactly, checked
    /// against `seed`.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a short or torn frame, trailing bytes, a wrong
    /// magic or version, and a checksum that does not match (corruption,
    /// or a frame written under another seed).
    pub fn unframe<'a>(self, seed: &[u8], bytes: &'a [u8]) -> Result<&'a [u8]> {
        let (payload, sum) = self.walk(bytes, 0)?;
        if payload.end != bytes.len() {
            return Err(self.error(format_args!("{} trailing bytes", bytes.len() - payload.end)));
        }
        check(seed, &bytes[payload.clone()], sum)?;
        Ok(&bytes[payload])
    }

    /// The payload range and checksum of the frame at offset `at`,
    /// *not* checked: a container of several frames checks each payload
    /// when it is first used (see [`check`]).
    ///
    /// # Errors
    ///
    /// [`CodecError`] on a wrong magic or version and on a header or
    /// payload that runs past the end of `bytes`.
    pub fn walk(self, bytes: &[u8], at: usize) -> Result<(Range<usize>, u64)> {
        let rest = bytes.get(at..).unwrap_or_default();
        let Some(head) = rest.first_chunk() else {
            return Err(self.error(format_args!("{} bytes at {at}, short of a header", rest.len())));
        };
        let (len, sum) = self.parse_head(head)?;
        if len > rest.len() - FRAME_HEADER_LEN {
            return Err(self.error(format_args!("{len}-byte payload at {at} cut short")));
        }
        let start = at + FRAME_HEADER_LEN;
        Ok((start..start + len, sum))
    }

    /// Reads one frame from a stream and returns its payload, checked
    /// under the empty seed (a stream has no tag to seed with); `None`
    /// on a clean end of stream before the frame. A length above
    /// `max` is refused from the header alone, before any payload buffer
    /// exists.
    ///
    /// # Errors
    ///
    /// I/O errors; `UnexpectedEof` for a stream cut inside a frame;
    /// `InvalidData` for a bad header, a length above `max` or a
    /// checksum that does not match.
    pub fn read(self, r: &mut impl io::Read, max: usize) -> io::Result<Option<Vec<u8>>> {
        let mut head = [0; FRAME_HEADER_LEN];
        match r.read(&mut head)? {
            0 => return Ok(None),
            n => r.read_exact(&mut head[n..])?,
        }
        let invalid = |e: CodecError| io::Error::new(io::ErrorKind::InvalidData, e);
        let (len, sum) = self.parse_head(&head).map_err(invalid)?;
        if len > max {
            return Err(invalid(self.error(format_args!("length {len} exceeds the limit {max}"))));
        }
        let mut payload = vec![0; len];
        r.read_exact(&mut payload)?;
        check(&[], &payload, sum).map_err(invalid)?;
        Ok(Some(payload))
    }

    /// The payload length and checksum a header holds.
    fn parse_head(self, head: &[u8; FRAME_HEADER_LEN]) -> Result<(usize, u64)> {
        if head[..4] != self.magic || head[4] != self.version {
            return Err(self.error(format_args!("header starts {:02x?}", &head[..5])));
        }
        let len = u32::from_le_bytes(head[5..9].try_into().expect("4 bytes")) as usize;
        Ok((len, u64::from_le_bytes(head[9..].try_into().expect("8 bytes"))))
    }

    #[cold]
    fn error(self, what: impl fmt::Display) -> CodecError {
        let magic = String::from_utf8_lossy(&self.magic);
        CodecError(format!("{magic} v{} frame: {what}", self.version))
    }
}

fn checksum(seed: &[u8], payload: &[u8]) -> u64 {
    hash(payload, hash(seed, HASH_SEED))
}

/// Checks a payload [`Format::walk`] found against its checksum under
/// `seed`.
///
/// # Errors
///
/// [`CodecError`] when the checksum does not match.
pub fn check(seed: &[u8], payload: &[u8], sum: u64) -> Result<()> {
    if checksum(seed, payload) != sum {
        return Err(CodecError(format!("checksum mismatch over {} payload bytes", payload.len())));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{riscv, sparc, x86};

    #[test]
    fn corrupt_blobs_rejected() {
        assert!(decode::<Vec<x86::X86Inst>>(&[1, 2, 3]).is_err());
        assert!(decode::<Vec<sparc::SparcInst>>(&[9]).is_err());
        assert!(decode::<Vec<riscv::RiscvInst>>(&[7, 7]).is_err());
        let mut bad_tag = encode(&[x86::X86Inst::Ret][..]);
        bad_tag[4] = 250;
        assert!(decode::<Vec<x86::X86Inst>>(&bad_tag).is_err());
        let mut trailing = encode(&[x86::X86Inst::Ret][..]);
        trailing.push(0);
        assert!(decode::<Vec<x86::X86Inst>>(&trailing).is_err());
    }

    #[test]
    fn huge_counts_rejected_without_allocating() {
        // a count claiming 4 billion items in a 4-byte buffer
        let bomb = u32::MAX.to_le_bytes();
        assert!(decode::<Vec<x86::X86Inst>>(&bomb).is_err());
        assert!(decode::<Vec<sparc::SparcInst>>(&bomb).is_err());
        assert!(decode::<Vec<riscv::RiscvInst>>(&bomb).is_err());
        assert!(decode::<Vec<u64>>(&bomb).is_err());
        assert!(decode::<String>(&bomb).is_err());
    }

    #[test]
    fn generic_fields_round_trip_and_reject_what_they_cannot_hold() {
        let v: (Option<u64>, Vec<(String, bool)>, Arc<str>) =
            (Some(7), vec![("é".into(), true), (String::new(), false)], Arc::from("x"));
        assert_eq!(decode::<(Option<u64>, Vec<(String, bool)>, Arc<str>)>(&encode(&v)), Ok(v));
        assert!(decode::<bool>(&[2]).is_err());
        assert!(decode::<Option<u8>>(&[2, 0]).is_err());
        assert!(decode::<String>(&[2, 0, 0, 0, 0xc3, 0x28]).is_err(), "invalid UTF-8");
        assert!(decode::<Opcode>(&[Opcode::ALL.len() as u8]).is_err());
    }

    /// Sets byte `at` of `inst`'s encoding to each of `ok` and `bad`,
    /// which must decode and must not.
    fn bounds<I: Field + fmt::Debug>(inst: I, at: usize, ok: u8, bad: u8) {
        let mut blob = encode(&[inst][..]);
        blob[4 + at] = ok;
        assert!(decode::<Vec<I>>(&blob).is_ok(), "{blob:?}");
        blob[4 + at] = bad;
        assert!(decode::<Vec<I>>(&blob).is_err(), "{blob:?}");
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
