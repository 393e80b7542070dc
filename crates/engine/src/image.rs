//! Persistent module images: sectioned, checksummed, zero-re-lowering
//! artifacts for warm process starts (paper §4.1, ROADMAP item 4).
//!
//! The paper's systems claim is that translation is an *offline, cached*
//! activity — native code is produced once and reused across runs. The
//! per-function cache entries (PR 1/2) already give that for native
//! code, but every process still pays the SSA→[`PreFunction`] lowering
//! (~60–130µs/function) on every start, and a fleet of tenants re-walks
//! one storage entry per function. An [`LlvaImage`] packages everything
//! a warm start needs into one framed artifact:
//!
//! * **bytecode** — the module's verified virtual object code
//!   ([`llva_core::bytecode::encode_module`]), so the image is
//!   self-contained: a warm loader needs no other source of truth;
//! * **predecode** — every defined function's [`PreFunction`] as a
//!   dense, offset-based record (flat code array, phi move lists, trap
//!   side table), so a warm load *deserializes* instead of re-lowering.
//!   The fast path ([`LlvaImage::attach_loader`]) is zero-copy and
//!   lazy: the section is checksummed and indexed once, and each
//!   record deserializes only when the interpreter first calls that
//!   function. Module↔image identity is established once at attach
//!   time (a stamp compare, or decoding the module from the image
//!   itself), never by re-deriving per-function hashes on load;
//! * **native** — zero or more per-ISA sections of encoded translations
//!   ([`llva_machine::codec`]), keyed by the same per-function content hashes
//!   ([`crate::llee::function_stamps`]) the storage cache validates.
//!
//! Every section carries its own FNV-1a checksum in the section table,
//! and the header + table are themselves checksummed, so corruption is
//! localized: a flipped bit in the native section leaves the predecode
//! section loadable, and [`repair_image`] rebuilds *only* the damaged
//! sections from the surviving bytecode. File-level helpers write
//! images with the same tmp+rename discipline as [`crate::storage::DirStorage`]
//! (a crash leaves only an [`IMAGE_TMP_MARKER`] temp file, swept at
//! startup), and [`repair_image_file`] quarantines the corrupt original
//! under the storage layer's `.quar` convention before rewriting it.
//!
//! Decoding is bounded and panic-free throughout: images arrive from
//! disk or an OS storage API and are untrusted (`tests/image_fuzz.rs`
//! hammers truncations and byte mutations). Beyond the checksums, every
//! deserialized [`PreFunction`] is validated structurally (slot bounds,
//! edge indices, PC ranges) before it is handed to the interpreter.

use crate::codec::{fnv1a, FNV_OFFSET};
use crate::interp::Name;
use crate::llee::{function_stamps, TargetIsa};
use crate::predecode::{
    CastKind, CmpClass, Edge, GepStep, PreFunction, PreInst, PreModule, Src,
};
use llva_core::instruction::Opcode;
use llva_core::module::Module;
use llva_machine::codec::encode;
use llva_machine::common::TrapKind;
use llva_machine::Width;
use std::fmt;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;

/// First bytes of every persistent module image ("LLva Image").
pub const IMAGE_MAGIC: &[u8; 4] = b"LLVI";
/// Version of the image container format.
pub const IMAGE_VERSION: u8 = 1;
/// Marker embedded in in-flight image temp file names; a crash between
/// write and rename leaves one behind, and [`crate::storage::DirStorage`]'s
/// startup sweep garbage-collects anything bearing it.
pub const IMAGE_TMP_MARKER: &str = ".__imgtmp";
/// Storage entry name under which a module's image is cached
/// content-addressed (llva-serve shares warm artifacts across tenants
/// through this entry).
pub const IMAGE_ENTRY: &str = "__image__";

/// Header: magic + version + module stamp + section count.
const HEADER_LEN: usize = 4 + 1 + 8 + 4;
/// Section table entry: kind + isa + offset + len + checksum.
const TABLE_ENTRY_LEN: usize = 1 + 1 + 4 + 4 + 8;

/// An image that failed to parse, validate, or decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageError(pub String);

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "image error: {}", self.0)
    }
}

impl std::error::Error for ImageError {}

type Result<T> = std::result::Result<T, ImageError>;

fn err<T>(msg: impl Into<String>) -> Result<T> {
    Err(ImageError(msg.into()))
}

/// What one image section holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// The module's encoded virtual object code.
    Bytecode,
    /// Serialized [`PreFunction`] records for every defined function.
    Predecode,
    /// Encoded native translations for one implementation ISA.
    Native(TargetIsa),
}

impl SectionKind {
    fn tag(self) -> (u8, u8) {
        match self {
            SectionKind::Bytecode => (1, 0),
            SectionKind::Predecode => (2, 0),
            SectionKind::Native(TargetIsa::X86) => (3, 1),
            SectionKind::Native(TargetIsa::Sparc) => (3, 2),
            SectionKind::Native(TargetIsa::Riscv) => (3, 3),
        }
    }

    fn from_tag(kind: u8, isa: u8) -> Option<SectionKind> {
        match (kind, isa) {
            (1, 0) => Some(SectionKind::Bytecode),
            (2, 0) => Some(SectionKind::Predecode),
            (3, 1) => Some(SectionKind::Native(TargetIsa::X86)),
            (3, 2) => Some(SectionKind::Native(TargetIsa::Sparc)),
            (3, 3) => Some(SectionKind::Native(TargetIsa::Riscv)),
            _ => None,
        }
    }
}

impl fmt::Display for SectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SectionKind::Bytecode => f.write_str("bytecode"),
            SectionKind::Predecode => f.write_str("predecode"),
            SectionKind::Native(isa) => write!(f, "native:{isa}"),
        }
    }
}

/// FNV-1a folded over 8-byte words (tail bytes singly): the same
/// error-detection role as [`crate::codec::fnv1a`], but ~8x faster — every
/// warm load checksums whole section payloads, so the byte-at-a-time
/// hash would dominate the fast path it exists to protect.
fn fnv1a_words(bytes: &[u8], mut h: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = (h ^ u64::from_le_bytes(c.try_into().expect("8 bytes"))).wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Chains a section's payload onto its kind tag, so a payload copied
/// under the wrong section kind fails validation like a payload copied
/// under the wrong storage key does.
fn section_checksum(kind: SectionKind, payload: &[u8]) -> u64 {
    let (k, i) = kind.tag();
    fnv1a_words(payload, fnv1a(&[k, i], FNV_OFFSET))
}

// ---------------------------------------------------------------------------
// Byte writer / bounded reader
// ---------------------------------------------------------------------------

struct W(Vec<u8>);

impl W {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.0.extend_from_slice(s.as_bytes());
    }
    fn src(&mut self, s: Src) {
        match s {
            Src::Reg(r) => {
                self.u8(0);
                self.u32(r);
            }
            Src::Imm(v) => {
                self.u8(1);
                self.u64(v);
            }
        }
    }
    fn opt_src(&mut self, s: Option<Src>) {
        match s {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.src(s);
            }
        }
    }
    fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
        }
    }
}

/// Bounded little-endian reader: every method returns `Err` instead of
/// panicking when the record runs out, so truncated or garbled payloads
/// surface as [`ImageError`]s.
struct R<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> R<'a> {
    fn new(bytes: &'a [u8]) -> R<'a> {
        R { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return err(format!("record truncated: wanted {n} bytes, {} left", self.remaining()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// A length-prefixed count, sanity-bounded by the bytes that remain
    /// (each item needs at least `min_item` bytes) so a corrupt count
    /// cannot become an allocation bomb.
    fn count(&mut self, min_item: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_item.max(1) {
            return err(format!("count {n} exceeds remaining payload"));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<&'a str> {
        let len = self.count(1)?;
        std::str::from_utf8(self.take(len)?).map_err(|_| ImageError("non-UTF-8 name".into()))
    }

    fn src(&mut self) -> Result<Src> {
        match self.u8()? {
            0 => Ok(Src::Reg(self.u32()?)),
            1 => Ok(Src::Imm(self.u64()?)),
            t => err(format!("bad Src tag {t}")),
        }
    }

    fn opt_src(&mut self) -> Result<Option<Src>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.src()?)),
            t => err(format!("bad Option<Src> tag {t}")),
        }
    }

    fn opt_u32(&mut self) -> Result<Option<u32>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            t => err(format!("bad Option<u32> tag {t}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Leaf enum codecs
// ---------------------------------------------------------------------------

fn opcode_tag(op: Opcode) -> u8 {
    Opcode::ALL
        .iter()
        .position(|&o| o == op)
        .expect("opcode in ALL") as u8
}

fn opcode_from(tag: u8) -> Result<Opcode> {
    Opcode::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| ImageError(format!("bad opcode tag {tag}")))
}

fn width_tag(w: Width) -> u8 {
    match w {
        Width::B1 => 0,
        Width::B2 => 1,
        Width::B4 => 2,
        Width::B8 => 3,
    }
}

fn width_from(tag: u8) -> Result<Width> {
    Ok(match tag {
        0 => Width::B1,
        1 => Width::B2,
        2 => Width::B4,
        3 => Width::B8,
        t => return err(format!("bad width tag {t}")),
    })
}

fn trap_tag(k: TrapKind) -> u8 {
    match k {
        TrapKind::MemoryFault => 0,
        TrapKind::DivideByZero => 1,
        TrapKind::UnhandledUnwind => 2,
        TrapKind::Software => 3,
        TrapKind::PrivilegeViolation => 4,
        TrapKind::BadFunctionPointer => 5,
        TrapKind::StackOverflow => 6,
    }
}

fn trap_from(tag: u8) -> Result<TrapKind> {
    Ok(match tag {
        0 => TrapKind::MemoryFault,
        1 => TrapKind::DivideByZero,
        2 => TrapKind::UnhandledUnwind,
        3 => TrapKind::Software,
        4 => TrapKind::PrivilegeViolation,
        5 => TrapKind::BadFunctionPointer,
        6 => TrapKind::StackOverflow,
        t => return err(format!("bad trap tag {t}")),
    })
}

fn cmp_tag(c: CmpClass) -> u8 {
    match c {
        CmpClass::Sint => 0,
        CmpClass::Uint => 1,
        CmpClass::F32 => 2,
        CmpClass::F64 => 3,
    }
}

fn cmp_from(tag: u8) -> Result<CmpClass> {
    Ok(match tag {
        0 => CmpClass::Sint,
        1 => CmpClass::Uint,
        2 => CmpClass::F32,
        3 => CmpClass::F64,
        t => return err(format!("bad cmp-class tag {t}")),
    })
}

fn write_cast(w: &mut W, kind: CastKind) {
    match kind {
        CastKind::Identity => w.u8(0),
        CastKind::IntToBool => w.u8(1),
        CastKind::IntToInt { width, signed } => {
            w.u8(2);
            w.u32(width);
            w.u8(u8::from(signed));
        }
        CastKind::IntToFloat { src_signed, dst32 } => {
            w.u8(3);
            w.u8(u8::from(src_signed));
            w.u8(u8::from(dst32));
        }
        CastKind::FloatToFloat { src32, dst32 } => {
            w.u8(4);
            w.u8(u8::from(src32));
            w.u8(u8::from(dst32));
        }
        CastKind::FloatToBool { src32 } => {
            w.u8(5);
            w.u8(u8::from(src32));
        }
        CastKind::FloatToInt { src32, width, signed } => {
            w.u8(6);
            w.u8(u8::from(src32));
            w.u32(width);
            w.u8(u8::from(signed));
        }
    }
}

fn read_cast(r: &mut R) -> Result<CastKind> {
    Ok(match r.u8()? {
        0 => CastKind::Identity,
        1 => CastKind::IntToBool,
        2 => CastKind::IntToInt { width: r.u32()?, signed: r.u8()? != 0 },
        3 => CastKind::IntToFloat { src_signed: r.u8()? != 0, dst32: r.u8()? != 0 },
        4 => CastKind::FloatToFloat { src32: r.u8()? != 0, dst32: r.u8()? != 0 },
        5 => CastKind::FloatToBool { src32: r.u8()? != 0 },
        6 => CastKind::FloatToInt { src32: r.u8()? != 0, width: r.u32()?, signed: r.u8()? != 0 },
        t => return err(format!("bad cast tag {t}")),
    })
}

// ---------------------------------------------------------------------------
// PreFunction record codec
// ---------------------------------------------------------------------------

fn write_inst(w: &mut W, inst: &PreInst) {
    match inst {
        PreInst::IntBin { op, a, b, dst, width, signed } => {
            w.u8(0);
            w.u8(opcode_tag(*op));
            w.src(*a);
            w.src(*b);
            w.u32(*dst);
            w.u32(*width);
            w.u8(u8::from(*signed));
        }
        PreInst::IntDiv { op, a, b, dst, width, signed, exc } => {
            w.u8(1);
            w.u8(opcode_tag(*op));
            w.src(*a);
            w.src(*b);
            w.u32(*dst);
            w.u32(*width);
            w.u8(u8::from(*signed));
            w.u8(u8::from(*exc));
        }
        PreInst::FloatBin { op, a, b, dst, is32 } => {
            w.u8(2);
            w.u8(opcode_tag(*op));
            w.src(*a);
            w.src(*b);
            w.u32(*dst);
            w.u8(u8::from(*is32));
        }
        PreInst::Cmp { op, class, a, b, dst } => {
            w.u8(3);
            w.u8(opcode_tag(*op));
            w.u8(cmp_tag(*class));
            w.src(*a);
            w.src(*b);
            w.u32(*dst);
        }
        PreInst::Ret { val } => {
            w.u8(4);
            w.opt_src(*val);
        }
        PreInst::Jump { edge } => {
            w.u8(5);
            w.u32(*edge);
        }
        PreInst::BrCond { cond, then_edge, else_edge } => {
            w.u8(6);
            w.src(*cond);
            w.u32(*then_edge);
            w.u32(*else_edge);
        }
        PreInst::Mbr { disc, cases, default_edge } => {
            w.u8(7);
            w.src(*disc);
            w.u32(cases.len() as u32);
            for (c, e) in cases {
                w.src(*c);
                w.u32(*e);
            }
            w.u32(*default_edge);
        }
        PreInst::Call { callee, args, dst, normal_edge, unwind_edge } => {
            w.u8(8);
            w.src(*callee);
            w.u32(args.len() as u32);
            for a in args {
                w.src(*a);
            }
            w.opt_u32(*dst);
            w.opt_u32(*normal_edge);
            w.opt_u32(*unwind_edge);
        }
        PreInst::Unwind => w.u8(9),
        PreInst::Load { addr, dst, width, signed, exc } => {
            w.u8(10);
            w.src(*addr);
            w.u32(*dst);
            w.u8(width_tag(*width));
            w.u8(u8::from(*signed));
            w.u8(u8::from(*exc));
        }
        PreInst::Store { val, addr, width, exc } => {
            w.u8(11);
            w.src(*val);
            w.src(*addr);
            w.u8(width_tag(*width));
            w.u8(u8::from(*exc));
        }
        PreInst::Gep { base, steps, dst } => {
            w.u8(12);
            w.src(*base);
            w.u32(steps.len() as u32);
            for s in steps {
                match s {
                    GepStep::Scaled { idx, size } => {
                        w.u8(0);
                        w.src(*idx);
                        w.i64(*size);
                    }
                    GepStep::Const(off) => {
                        w.u8(1);
                        w.u64(*off);
                    }
                    GepStep::Trap => w.u8(2),
                }
            }
            w.u32(*dst);
        }
        PreInst::GepConst { base, offset, dst } => {
            w.u8(13);
            w.src(*base);
            w.u64(*offset);
            w.u32(*dst);
        }
        PreInst::Alloca { count, unit, dst } => {
            w.u8(14);
            w.opt_src(*count);
            w.u64(*unit);
            w.u32(*dst);
        }
        PreInst::Cast { src, kind, dst } => {
            w.u8(15);
            w.src(*src);
            write_cast(w, *kind);
            w.u32(*dst);
        }
        PreInst::AlwaysTrap { kind } => {
            w.u8(16);
            w.u8(trap_tag(*kind));
        }
    }
}

fn read_inst(r: &mut R) -> Result<PreInst> {
    Ok(match r.u8()? {
        0 => PreInst::IntBin {
            op: opcode_from(r.u8()?)?,
            a: r.src()?,
            b: r.src()?,
            dst: r.u32()?,
            width: r.u32()?,
            signed: r.u8()? != 0,
        },
        1 => PreInst::IntDiv {
            op: opcode_from(r.u8()?)?,
            a: r.src()?,
            b: r.src()?,
            dst: r.u32()?,
            width: r.u32()?,
            signed: r.u8()? != 0,
            exc: r.u8()? != 0,
        },
        2 => PreInst::FloatBin {
            op: opcode_from(r.u8()?)?,
            a: r.src()?,
            b: r.src()?,
            dst: r.u32()?,
            is32: r.u8()? != 0,
        },
        3 => PreInst::Cmp {
            op: opcode_from(r.u8()?)?,
            class: cmp_from(r.u8()?)?,
            a: r.src()?,
            b: r.src()?,
            dst: r.u32()?,
        },
        4 => PreInst::Ret { val: r.opt_src()? },
        5 => PreInst::Jump { edge: r.u32()? },
        6 => PreInst::BrCond { cond: r.src()?, then_edge: r.u32()?, else_edge: r.u32()? },
        7 => {
            let disc = r.src()?;
            let n = r.count(5)?;
            let mut cases = Vec::with_capacity(n);
            for _ in 0..n {
                cases.push((r.src()?, r.u32()?));
            }
            PreInst::Mbr { disc, cases, default_edge: r.u32()? }
        }
        8 => {
            let callee = r.src()?;
            let n = r.count(5)?;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(r.src()?);
            }
            PreInst::Call {
                callee,
                args,
                dst: r.opt_u32()?,
                normal_edge: r.opt_u32()?,
                unwind_edge: r.opt_u32()?,
            }
        }
        9 => PreInst::Unwind,
        10 => PreInst::Load {
            addr: r.src()?,
            dst: r.u32()?,
            width: width_from(r.u8()?)?,
            signed: r.u8()? != 0,
            exc: r.u8()? != 0,
        },
        11 => PreInst::Store {
            val: r.src()?,
            addr: r.src()?,
            width: width_from(r.u8()?)?,
            exc: r.u8()? != 0,
        },
        12 => {
            let base = r.src()?;
            let n = r.count(1)?;
            let mut steps = Vec::with_capacity(n);
            for _ in 0..n {
                steps.push(match r.u8()? {
                    0 => GepStep::Scaled { idx: r.src()?, size: r.i64()? },
                    1 => GepStep::Const(r.u64()?),
                    2 => GepStep::Trap,
                    t => return err(format!("bad gep-step tag {t}")),
                });
            }
            PreInst::Gep { base, steps, dst: r.u32()? }
        }
        13 => PreInst::GepConst { base: r.src()?, offset: r.u64()?, dst: r.u32()? },
        14 => PreInst::Alloca { count: r.opt_src()?, unit: r.u64()?, dst: r.u32()? },
        15 => PreInst::Cast { src: r.src()?, kind: read_cast(r)?, dst: r.u32()? },
        16 => PreInst::AlwaysTrap { kind: trap_from(r.u8()?)? },
        t => return err(format!("bad inst tag {t}")),
    })
}

/// Serializes one lowered function as a dense record.
fn encode_prefunction(pf: &PreFunction) -> Vec<u8> {
    let mut w = W(Vec::with_capacity(64 + pf.insts.len() * 16));
    w.str(&pf.name);
    w.u32(pf.block_names.len() as u32);
    for n in &pf.block_names {
        w.str(n);
    }
    w.u32(pf.insts.len() as u32);
    for inst in &pf.insts {
        write_inst(&mut w, inst);
    }
    w.u32(pf.traps.len() as u32);
    for &(b, i) in &pf.traps {
        w.u32(b);
        w.u32(i);
    }
    w.u32(pf.edges.len() as u32);
    for e in &pf.edges {
        w.u32(e.target_pc);
        w.u32(e.target_block);
        w.u8(u8::from(e.trap));
        w.u32(e.moves.len() as u32);
        for &(dst, src) in &e.moves {
            w.u32(dst);
            w.src(src);
        }
    }
    w.u32(pf.block_span.len() as u32);
    for &(pc, n) in &pf.block_span {
        w.u32(pc);
        w.u32(n);
    }
    w.u32(pf.num_slots);
    w.u32(pf.num_args);
    w.u32(pf.entry_pc);
    w.0
}

/// Deserializes and *validates* one function record: beyond decoding,
/// every register slot, edge index, and PC is checked against the
/// record's own bounds, so a record that decodes structurally but would
/// index out of range in the dispatch loop is rejected here, not mid-run.
fn decode_prefunction(bytes: &[u8]) -> Result<PreFunction> {
    let mut r = R::new(bytes);
    let name = Name::new(r.str()?);
    let nblocks = r.count(4)?;
    let mut block_names = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        block_names.push(Name::new(r.str()?));
    }
    let ninsts = r.count(1)?;
    let mut insts = Vec::with_capacity(ninsts);
    for _ in 0..ninsts {
        insts.push(read_inst(&mut r)?);
    }
    let ntraps = r.count(8)?;
    let mut traps = Vec::with_capacity(ntraps);
    for _ in 0..ntraps {
        traps.push((r.u32()?, r.u32()?));
    }
    let nedges = r.count(13)?;
    let mut edges = Vec::with_capacity(nedges);
    for _ in 0..nedges {
        let target_pc = r.u32()?;
        let target_block = r.u32()?;
        let trap = r.u8()? != 0;
        let nmoves = r.count(9)?;
        let mut moves = Vec::with_capacity(nmoves);
        for _ in 0..nmoves {
            moves.push((r.u32()?, r.src()?));
        }
        edges.push(Edge { target_pc, target_block, moves, trap });
    }
    let nspans = r.count(8)?;
    let mut block_span = Vec::with_capacity(nspans);
    for _ in 0..nspans {
        block_span.push((r.u32()?, r.u32()?));
    }
    let num_slots = r.u32()?;
    let num_args = r.u32()?;
    let entry_pc = r.u32()?;
    if r.remaining() != 0 {
        return err(format!("{} trailing bytes after function record", r.remaining()));
    }
    let pf = PreFunction {
        name,
        block_names,
        insts,
        traps,
        edges,
        block_span,
        num_slots,
        num_args,
        entry_pc,
    };
    validate_prefunction(&pf)?;
    Ok(pf)
}

/// Structural bounds a deserialized function must satisfy before the
/// dispatch loop may execute it.
fn validate_prefunction(pf: &PreFunction) -> Result<()> {
    // a corrupt slot count must not become a giant frame allocation
    const MAX_SLOTS: u32 = 1 << 20;
    let npc = pf.insts.len() as u32;
    let nslots = pf.num_slots;
    let nedges = pf.edges.len() as u32;
    if nslots > MAX_SLOTS {
        return err(format!("implausible slot count {nslots}"));
    }
    if pf.num_args > nslots {
        return err("more arguments than slots");
    }
    if pf.traps.len() != pf.insts.len() {
        return err("trap table length mismatch");
    }
    if pf.block_names.len() != pf.block_span.len() {
        return err("block table length mismatch");
    }
    if npc > 0 && pf.entry_pc >= npc {
        return err("entry PC out of range");
    }
    let slot = |s: Src| match s {
        Src::Reg(r) if r >= nslots => err(format!("slot {r} out of range")),
        _ => Ok(()),
    };
    let dst_ok = |d: u32| {
        if d >= nslots {
            err(format!("dst slot {d} out of range"))
        } else {
            Ok(())
        }
    };
    let edge_ok = |e: u32| {
        if e >= nedges {
            err(format!("edge {e} out of range"))
        } else {
            Ok(())
        }
    };
    for inst in &pf.insts {
        match inst {
            PreInst::IntBin { a, b, dst, .. }
            | PreInst::IntDiv { a, b, dst, .. }
            | PreInst::FloatBin { a, b, dst, .. }
            | PreInst::Cmp { a, b, dst, .. } => {
                slot(*a)?;
                slot(*b)?;
                dst_ok(*dst)?;
            }
            PreInst::Ret { val } => {
                if let Some(v) = val {
                    slot(*v)?;
                }
            }
            PreInst::Jump { edge } => edge_ok(*edge)?,
            PreInst::BrCond { cond, then_edge, else_edge } => {
                slot(*cond)?;
                edge_ok(*then_edge)?;
                edge_ok(*else_edge)?;
            }
            PreInst::Mbr { disc, cases, default_edge } => {
                slot(*disc)?;
                for (c, e) in cases {
                    slot(*c)?;
                    edge_ok(*e)?;
                }
                edge_ok(*default_edge)?;
            }
            PreInst::Call { callee, args, dst, normal_edge, unwind_edge } => {
                slot(*callee)?;
                for a in args {
                    slot(*a)?;
                }
                if let Some(d) = dst {
                    dst_ok(*d)?;
                }
                if let Some(e) = normal_edge {
                    edge_ok(*e)?;
                }
                if let Some(e) = unwind_edge {
                    edge_ok(*e)?;
                }
            }
            PreInst::Unwind | PreInst::AlwaysTrap { .. } => {}
            PreInst::Load { addr, dst, .. } => {
                slot(*addr)?;
                dst_ok(*dst)?;
            }
            PreInst::Store { val, addr, .. } => {
                slot(*val)?;
                slot(*addr)?;
            }
            PreInst::Gep { base, steps, dst } => {
                slot(*base)?;
                for s in steps {
                    if let GepStep::Scaled { idx, .. } = s {
                        slot(*idx)?;
                    }
                }
                dst_ok(*dst)?;
            }
            PreInst::GepConst { base, dst, .. } => {
                slot(*base)?;
                dst_ok(*dst)?;
            }
            PreInst::Alloca { count, dst, .. } => {
                if let Some(c) = count {
                    slot(*c)?;
                }
                dst_ok(*dst)?;
            }
            PreInst::Cast { src, dst, .. } => {
                slot(*src)?;
                dst_ok(*dst)?;
            }
        }
    }
    for e in &pf.edges {
        if !e.trap && e.target_pc >= npc.max(1) {
            return err("edge target PC out of range");
        }
        if e.target_block as usize >= pf.block_names.len() {
            return err("edge target block out of range");
        }
        for &(d, s) in &e.moves {
            dst_ok(d)?;
            slot(s)?;
        }
    }
    for &(b, _) in &pf.traps {
        if b as usize >= pf.block_names.len() {
            return err("trap block out of range");
        }
    }
    for &(pc, n) in &pf.block_span {
        if pc.saturating_add(n) > npc {
            return err("block span out of range");
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Assembles an image from a module plus any subset of predecode and
/// per-ISA native sections.
pub struct ImageBuilder {
    stamp: u64,
    func_stamps: Vec<u64>,
    sections: Vec<(SectionKind, Vec<u8>)>,
}

impl ImageBuilder {
    /// Starts an image for `module`: computes the module stamp and
    /// per-function content hashes and adds the bytecode section.
    pub fn new(module: &Module) -> ImageBuilder {
        let bytecode = llva_core::bytecode::encode_module(module);
        ImageBuilder {
            stamp: fnv1a(&bytecode, FNV_OFFSET),
            func_stamps: function_stamps(module),
            sections: vec![(SectionKind::Bytecode, bytecode)],
        }
    }

    /// The module stamp the image will carry (equals
    /// [`crate::llee::stamp`] of the module).
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Adds the predecode section: every *decoded* function in `pre`
    /// (call [`PreModule::decode_all`] first for a complete image),
    /// serialized as dense records keyed by function id + content hash.
    pub fn add_predecode(&mut self, pre: &PreModule) {
        let module = pre.module();
        let mut w = W(Vec::new());
        let mut entries: Vec<(u32, Vec<u8>)> = Vec::new();
        for fid in module.function_ids() {
            let f = fid.index();
            if module.function(fid).is_declaration() || !pre.is_decoded(f) {
                continue;
            }
            entries.push((f as u32, encode_prefunction(&pre.get(fid))));
        }
        w.u32(entries.len() as u32);
        for (f, rec) in entries {
            w.u32(f);
            w.u64(self.func_stamps.get(f as usize).copied().unwrap_or(0));
            w.u32(rec.len() as u32);
            w.0.extend_from_slice(&rec);
        }
        self.sections.retain(|(k, _)| *k != SectionKind::Predecode);
        self.sections.push((SectionKind::Predecode, w.0));
    }

    /// Adds a native-code section for `isa`: `(function id, content
    /// hash, encoded translation)` triples. The hashes are explicit
    /// because translation happens against a *target-configured* module
    /// (pointer size and endianness are part of the per-function stamp),
    /// so the producing [`crate::llee::ExecutionManager`] supplies the
    /// stamps its consumers will validate against — see
    /// [`crate::llee::ExecutionManager::native_image_entries`].
    pub fn add_native(&mut self, isa: TargetIsa, entries: &[(u32, u64, Vec<u8>)]) {
        let mut w = W(Vec::new());
        w.u32(entries.len() as u32);
        for (f, stamp, blob) in entries {
            w.u32(*f);
            w.u64(*stamp);
            w.u32(blob.len() as u32);
            w.0.extend_from_slice(blob);
        }
        self.sections.retain(|(k, _)| *k != SectionKind::Native(isa));
        self.sections.push((SectionKind::Native(isa), w.0));
    }

    /// Serializes the image: header, checksummed section table, payloads.
    pub fn finish(&self) -> Vec<u8> {
        let table_end = HEADER_LEN + self.sections.len() * TABLE_ENTRY_LEN;
        let mut out = Vec::with_capacity(
            table_end + 8 + self.sections.iter().map(|(_, p)| p.len()).sum::<usize>(),
        );
        out.extend_from_slice(IMAGE_MAGIC);
        out.push(IMAGE_VERSION);
        out.extend_from_slice(&self.stamp.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let mut offset = (table_end + 8) as u32;
        for (kind, payload) in &self.sections {
            let (k, i) = kind.tag();
            out.push(k);
            out.push(i);
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&section_checksum(*kind, payload).to_le_bytes());
            offset += payload.len() as u32;
        }
        // header + table checksum: a corrupt offset or length must fail
        // parse, not misdirect a section read
        let table_sum = fnv1a(&out, FNV_OFFSET);
        out.extend_from_slice(&table_sum.to_le_bytes());
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Memory-mapped image bytes
// ---------------------------------------------------------------------------

/// A read-only, private `mmap` of a whole file. No external crates: the
/// two libc symbols are declared directly (they are always present in
/// the already-linked C runtime on unix).
#[cfg(unix)]
mod mapped {
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: core::ffi::c_int,
            flags: core::ffi::c_int,
            fd: core::ffi::c_int,
            offset: core::ffi::c_long,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> core::ffi::c_int;
    }

    const PROT_READ: core::ffi::c_int = 1;
    const MAP_PRIVATE: core::ffi::c_int = 2;

    /// An owned mapping; unmapped on drop. Derefs to the file bytes.
    pub struct MappedFile {
        ptr: *mut core::ffi::c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ + MAP_PRIVATE — no writer inside
    // this process exists, and the pointer is exclusively owned until
    // munmap in Drop, so shared references across threads are sound.
    // (A concurrent *external* truncation of the file could fault; the
    // image writer's tmp+rename discipline replaces files atomically
    // and never truncates in place.)
    unsafe impl Send for MappedFile {}
    unsafe impl Sync for MappedFile {}

    impl MappedFile {
        /// Maps the whole file read-only. Fails on empty files (a
        /// zero-length mmap is an error by spec) and on any OS error —
        /// callers fall back to `std::fs::read`.
        pub fn open(path: &std::path::Path) -> std::io::Result<MappedFile> {
            let file = std::fs::File::open(path)?;
            let len = usize::try_from(file.metadata()?.len())
                .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large"))?;
            if len == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "empty file",
                ));
            }
            // SAFETY: null hint, length from metadata, read-only
            // private mapping over a file descriptor we own; the
            // result is checked against MAP_FAILED below.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(MappedFile { ptr, len })
        }
    }

    impl std::ops::Deref for MappedFile {
        type Target = [u8];
        fn deref(&self) -> &[u8] {
            // SAFETY: ptr/len describe a live PROT_READ mapping owned
            // by self; the borrow cannot outlive the Drop that unmaps.
            unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
        }
    }

    impl Drop for MappedFile {
        fn drop(&mut self) {
            // SAFETY: exactly the pointer/length pair mmap returned.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(unix)]
pub use mapped::MappedFile;

/// The backing bytes of a parsed [`LlvaImage`]: either an owned buffer
/// or a zero-copy file mapping (with `offset` skipping a container
/// prefix, e.g. [`crate::storage::DirStorage`]'s 8-byte timestamp).
/// The image layout is offset-based, so all parsing and section access
/// work identically through `Deref`.
enum ImageBytes {
    Owned(Vec<u8>),
    #[cfg(unix)]
    Mapped { map: MappedFile, offset: usize },
}

impl std::ops::Deref for ImageBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            ImageBytes::Owned(v) => v,
            #[cfg(unix)]
            ImageBytes::Mapped { map, offset } => &map[*offset..],
        }
    }
}

// ---------------------------------------------------------------------------
// Parsed image
// ---------------------------------------------------------------------------

/// One entry of a parsed image's section table.
#[derive(Debug, Clone, Copy)]
struct SectionEntry {
    kind: SectionKind,
    offset: usize,
    len: usize,
    checksum: u64,
}

/// A parsed persistent module image.
///
/// Parsing validates the header and the checksummed section table;
/// individual section payloads are validated on access, so one corrupt
/// section leaves the others loadable (per-section fault isolation).
pub struct LlvaImage {
    bytes: ImageBytes,
    stamp: u64,
    table: Vec<SectionEntry>,
    /// Bitmask of section-table indices whose payload checksum has
    /// already validated. The bytes are immutable after parse, so a
    /// section that validated once stays valid — every later access
    /// through a shared `Arc` (per-call `set_image`, `attach_loader`)
    /// skips the checksum entirely.
    validated: std::sync::atomic::AtomicU32,
}

impl fmt::Debug for LlvaImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LlvaImage")
            .field("stamp", &format_args!("{:#018x}", self.stamp))
            .field(
                "sections",
                &self.table.iter().map(|s| s.kind.to_string()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl LlvaImage {
    /// Parses and validates an image's header and section table.
    ///
    /// # Errors
    ///
    /// [`ImageError`] on bad magic/version, a truncated or garbled
    /// table, or section ranges outside the byte buffer. Payload
    /// corruption is *not* an error here — see [`LlvaImage::section_ok`].
    pub fn parse(bytes: Vec<u8>) -> Result<LlvaImage> {
        LlvaImage::parse_bytes(ImageBytes::Owned(bytes))
    }

    fn parse_bytes(bytes: ImageBytes) -> Result<LlvaImage> {
        if bytes.len() < HEADER_LEN + 8 {
            return err(format!("image truncated: {} bytes", bytes.len()));
        }
        if &bytes[..4] != IMAGE_MAGIC {
            return err("bad image magic");
        }
        if bytes[4] != IMAGE_VERSION {
            return err(format!("unsupported image version {}", bytes[4]));
        }
        let stamp = u64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes"));
        let count = u32::from_le_bytes(bytes[13..17].try_into().expect("4 bytes")) as usize;
        // kind + isa + offset + len + checksum per entry, and each
        // section needs at least its table entry present
        if count > (bytes.len() - HEADER_LEN) / TABLE_ENTRY_LEN {
            return err(format!("implausible section count {count}"));
        }
        let table_end = HEADER_LEN + count * TABLE_ENTRY_LEN;
        if bytes.len() < table_end + 8 {
            return err("image truncated inside section table");
        }
        let want = u64::from_le_bytes(bytes[table_end..table_end + 8].try_into().expect("8 bytes"));
        if fnv1a(&bytes[..table_end], FNV_OFFSET) != want {
            return err("header/table checksum mismatch");
        }
        let mut table = Vec::with_capacity(count);
        for s in 0..count {
            let at = HEADER_LEN + s * TABLE_ENTRY_LEN;
            let kind = SectionKind::from_tag(bytes[at], bytes[at + 1])
                .ok_or_else(|| ImageError(format!("bad section kind {}/{}", bytes[at], bytes[at + 1])))?;
            let offset =
                u32::from_le_bytes(bytes[at + 2..at + 6].try_into().expect("4 bytes")) as usize;
            let len =
                u32::from_le_bytes(bytes[at + 6..at + 10].try_into().expect("4 bytes")) as usize;
            let checksum = u64::from_le_bytes(bytes[at + 10..at + 18].try_into().expect("8 bytes"));
            if offset < table_end + 8 || offset.saturating_add(len) > bytes.len() {
                return err(format!("section {kind} range {offset}+{len} out of bounds"));
            }
            if table.iter().any(|e: &SectionEntry| e.kind == kind) {
                return err(format!("duplicate section {kind}"));
            }
            table.push(SectionEntry { kind, offset, len, checksum });
        }
        Ok(LlvaImage {
            bytes,
            stamp,
            table,
            validated: std::sync::atomic::AtomicU32::new(0),
        })
    }

    /// The module stamp recorded at build time (equals
    /// [`crate::llee::stamp`] of the module the image was built from).
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// True when this image reads straight out of a file mapping
    /// (zero-copy warm load) rather than an owned buffer.
    pub fn is_mapped(&self) -> bool {
        match self.bytes {
            ImageBytes::Owned(_) => false,
            #[cfg(unix)]
            ImageBytes::Mapped { .. } => true,
        }
    }

    /// The kinds of the sections present, in file order.
    pub fn sections(&self) -> Vec<SectionKind> {
        self.table.iter().map(|s| s.kind).collect()
    }

    /// Whether `kind` is present *and* its payload checksum validates.
    pub fn section_ok(&self, kind: SectionKind) -> bool {
        matches!(self.section_payload(kind), Some(Ok(_)))
    }

    /// The validated payload of section `kind`: `None` when absent,
    /// `Some(Err)` when present but corrupt (checksum mismatch).
    fn section_payload(&self, kind: SectionKind) -> Option<Result<&[u8]>> {
        use std::sync::atomic::Ordering;
        let i = self.table.iter().position(|s| s.kind == kind)?;
        let entry = self.table[i];
        let payload = &self.bytes[entry.offset..entry.offset + entry.len];
        let bit = 1u32 << i;
        if self.validated.load(Ordering::Relaxed) & bit == 0 {
            if section_checksum(kind, payload) != entry.checksum {
                return Some(Err(ImageError(format!("section {kind} checksum mismatch"))));
            }
            self.validated.fetch_or(bit, Ordering::Relaxed);
        }
        Some(Ok(payload))
    }

    fn require_section(&self, kind: SectionKind) -> Result<&[u8]> {
        match self.section_payload(kind) {
            None => err(format!("image has no {kind} section")),
            Some(r) => r,
        }
    }

    /// Decodes the module from the bytecode section.
    ///
    /// # Errors
    ///
    /// [`ImageError`] if the section is absent, corrupt, or does not
    /// decode as virtual object code.
    pub fn decode_module(&self) -> Result<Module> {
        let payload = self.require_section(SectionKind::Bytecode)?;
        llva_core::bytecode::decode_module(payload)
            .map_err(|e| ImageError(format!("bytecode section: {e}")))
    }

    /// The predecode entry frames: `(function id, absolute byte range
    /// of the record in the image)`, with the section's checksum
    /// validated once up front. The per-entry content-hash field is
    /// carried for repair and diagnostics but deliberately *not*
    /// re-derived from the module here — recomputing
    /// [`crate::llee::function_stamps`] re-encodes every function and
    /// costs as much as the SSA lowering the warm path exists to skip.
    fn predecode_entries(&self) -> Result<Vec<(u32, std::ops::Range<usize>)>> {
        let payload = self.require_section(SectionKind::Predecode)?;
        let base = self
            .table
            .iter()
            .find(|s| s.kind == SectionKind::Predecode)
            .expect("section present")
            .offset;
        let mut r = R::new(payload);
        let count = r.count(16)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let f = r.u32()?;
            let _stamp = r.u64()?;
            let len = r.count(1)?;
            let start = base + r.pos;
            let _ = r.take(len)?;
            out.push((f, start..start + len));
        }
        if r.remaining() != 0 {
            return err("trailing bytes after predecode entries");
        }
        Ok(out)
    }

    /// Eagerly installs every pre-decoded function into `pre`,
    /// deserializing and validating each record now. Out-of-range
    /// function ids are skipped. Returns how many were installed.
    ///
    /// Module-identity contract (also [`LlvaImage::attach_loader`] /
    /// [`LlvaImage::premodule`]): the caller must already have
    /// established that `pre`'s module is the one this image was built
    /// from — by decoding it from the image itself
    /// ([`LlvaImage::decode_module`]), or by comparing
    /// [`crate::llee::stamp`] against [`LlvaImage::stamp`] (llva-serve
    /// gets that comparison for free from its content-addressed cache
    /// key; [`crate::supervisor::Supervisor::set_image`] enforces it
    /// once at attach time).
    ///
    /// # Errors
    ///
    /// [`ImageError`] if the predecode section is absent, corrupt, or a
    /// record fails to decode/validate.
    pub fn install_predecoded(&self, pre: &PreModule) -> Result<usize> {
        let n = pre.module().num_functions();
        let mut installed = 0;
        for (f, range) in self.predecode_entries()? {
            if (f as usize) < n {
                let pf = decode_prefunction(&self.bytes[range])?;
                pre.install(f as usize, Rc::new(pf));
                installed += 1;
            }
        }
        Ok(installed)
    }

    /// Attaches this image to `pre` as a zero-copy warm loader: the
    /// predecode section is checksummed and its entry frames indexed
    /// *once*, and each function's record is deserialized only when
    /// [`PreModule::get`] first asks for that function — a warm start
    /// pays microseconds up front instead of re-lowering (or even
    /// re-deserializing) bodies it may never call. A record that fails
    /// to decode falls back to SSA lowering for that function only.
    /// Returns how many functions the index covers.
    ///
    /// Module-identity contract: see [`LlvaImage::install_predecoded`].
    ///
    /// # Errors
    ///
    /// [`ImageError`] if the predecode section is absent, corrupt, or
    /// its entry framing is garbled.
    pub fn attach_loader(self: &Arc<Self>, pre: &PreModule) -> Result<usize> {
        let n = pre.module().num_functions();
        let mut index: Vec<(u32, std::ops::Range<usize>)> = self
            .predecode_entries()?
            .into_iter()
            .filter(|(f, _)| (*f as usize) < n)
            .collect();
        index.sort_unstable_by_key(|&(f, _)| f);
        let covered = index.len();
        let img = Arc::clone(self);
        pre.set_loader(Box::new(move |f| {
            let i = index.binary_search_by_key(&(f as u32), |&(f, _)| f).ok()?;
            let range = index[i].1.clone();
            decode_prefunction(&img.bytes[range]).ok().map(Rc::new)
        }));
        Ok(covered)
    }

    /// Builds a warm [`PreModule`] over `module`: the cheap per-module
    /// state is recomputed, then the image is attached as the lazy
    /// record loader ([`LlvaImage::attach_loader`]) so no SSA
    /// re-lowering happens for covered functions. Returns the
    /// pre-decode cache and how many functions the image covers.
    ///
    /// Module-identity contract: see [`LlvaImage::install_predecoded`].
    ///
    /// # Errors
    ///
    /// See [`LlvaImage::attach_loader`].
    pub fn premodule<'m>(self: &Arc<Self>, module: &'m Module) -> Result<(Rc<PreModule<'m>>, usize)> {
        let pre = Rc::new(PreModule::new(module));
        let covered = self.attach_loader(&pre)?;
        Ok((pre, covered))
    }

    /// The native entry frames for `isa` as `(function id, content
    /// hash, absolute byte range of the encoded translation)`, with the
    /// section's checksum validated once up front — the
    /// [`crate::llee::ExecutionManager`] indexes these and decodes a
    /// blob only when [`crate::llee::ExecutionManager::translate`]
    /// first reaches that function.
    ///
    /// # Errors
    ///
    /// [`ImageError`] if the section is absent, corrupt, or truncated.
    pub(crate) fn native_entry_ranges(
        &self,
        isa: TargetIsa,
    ) -> Result<Vec<(u32, u64, std::ops::Range<usize>)>> {
        let payload = self.require_section(SectionKind::Native(isa))?;
        let base = self
            .table
            .iter()
            .find(|s| s.kind == SectionKind::Native(isa))
            .expect("section present")
            .offset;
        let mut r = R::new(payload);
        let count = r.count(16)?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let f = r.u32()?;
            let stamp = r.u64()?;
            let len = r.count(1)?;
            let start = base + r.pos;
            let _ = r.take(len)?;
            entries.push((f, stamp, start..start + len));
        }
        if r.remaining() != 0 {
            return err("trailing bytes after native entries");
        }
        Ok(entries)
    }

    /// The native-code entries for `isa`: `(function id, content hash,
    /// encoded translation)` triples.
    ///
    /// # Errors
    ///
    /// [`ImageError`] if the section is absent, corrupt, or truncated.
    pub fn native_entries(&self, isa: TargetIsa) -> Result<Vec<(u32, u64, &[u8])>> {
        Ok(self
            .native_entry_ranges(isa)?
            .into_iter()
            .map(|(f, stamp, range)| (f, stamp, &self.bytes[range]))
            .collect())
    }

    /// The raw image bytes (blob ranges from
    /// [`LlvaImage::native_entry_ranges`] index into these).
    pub(crate) fn raw_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

// ---------------------------------------------------------------------------
// Repair: per-section quarantine + rebuild
// ---------------------------------------------------------------------------

/// What [`repair_image`] / [`repair_image_file`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// Sections whose checksums failed and were rebuilt from the
    /// surviving bytecode.
    pub rebuilt: Vec<SectionKind>,
    /// Where the corrupt original was quarantined (file repair only).
    pub quarantined: Option<PathBuf>,
}

/// Rebuilds exactly the corrupt sections of an image from its surviving
/// bytecode section: a corrupt predecode section is re-lowered, a
/// corrupt native section is re-translated, and intact sections are
/// copied byte-identically. Returns the repaired image bytes and the
/// kinds that were rebuilt (empty when nothing was wrong).
///
/// # Errors
///
/// [`ImageError`] when the header/table does not parse or the bytecode
/// section itself is corrupt — with no trusted virtual object code
/// there is nothing to rebuild from, and the caller must fall back to
/// the original module source.
pub fn repair_image(bytes: &[u8]) -> Result<(Vec<u8>, Vec<SectionKind>)> {
    use llva_backend::{
        compile_riscv_with, compile_sparc_with, compile_x86_with, PeepholeConfig,
    };
    let image = LlvaImage::parse(bytes.to_vec())?;
    let module = image.decode_module()?; // bytecode must survive
    let mut rebuilt = Vec::new();
    let mut builder = ImageBuilder::new(&module);
    let peep = PeepholeConfig::on();
    for kind in image.sections() {
        match kind {
            SectionKind::Bytecode => {} // the builder re-encoded it
            SectionKind::Predecode => {
                if image.section_ok(kind) {
                    // keep the validated payload byte-identical
                    if let Some(Ok(payload)) = image.section_payload(kind) {
                        builder.sections.push((kind, payload.to_vec()));
                    }
                } else {
                    let pre = PreModule::new(&module);
                    pre.decode_all();
                    builder.add_predecode(&pre);
                    rebuilt.push(kind);
                }
            }
            SectionKind::Native(isa) => {
                if image.section_ok(kind) {
                    if let Some(Ok(payload)) = image.section_payload(kind) {
                        builder.sections.push((kind, payload.to_vec()));
                    }
                } else {
                    // translation stamps are computed over the
                    // target-configured module, exactly as the producing
                    // ExecutionManager would
                    let mut tm = module.clone();
                    tm.set_target(match isa {
                        TargetIsa::X86 => llva_core::layout::TargetConfig::ia32(),
                        TargetIsa::Sparc => llva_core::layout::TargetConfig::sparc_v9(),
                        TargetIsa::Riscv => llva_core::layout::TargetConfig::riscv64(),
                    });
                    let stamps = function_stamps(&tm);
                    let entries: Vec<(u32, u64, Vec<u8>)> = tm
                        .functions()
                        .filter(|(_, f)| !f.is_declaration())
                        .map(|(fid, _)| {
                            let f = fid.index() as u32;
                            let blob = match isa {
                                TargetIsa::X86 => encode(&compile_x86_with(&tm, fid, &peep)),
                                TargetIsa::Sparc => encode(&compile_sparc_with(&tm, fid, &peep)),
                                TargetIsa::Riscv => encode(&compile_riscv_with(&tm, fid, &peep)),
                            };
                            (f, stamps[f as usize], blob)
                        })
                        .collect();
                    builder.add_native(isa, &entries);
                    rebuilt.push(kind);
                }
            }
        }
    }
    Ok((builder.finish(), rebuilt))
}

// ---------------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------------

/// Writes image bytes with the tmp+rename discipline: readers never see
/// a torn image, and a crash mid-write leaves only a temp file bearing
/// [`IMAGE_TMP_MARKER`], which [`crate::storage::DirStorage`]'s startup
/// sweep removes.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_image_file(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let mut tmp_name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    tmp_name.push(format!("{IMAGE_TMP_MARKER}{}", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, bytes)?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

/// Maps an image file read-only and parses it zero-copy, with `offset`
/// bytes of container prefix skipped (0 for a bare image file; 8 for a
/// [`crate::storage::DirStorage`] blob, whose entries lead with a
/// little-endian timestamp). The section payloads are then served
/// straight from the page cache — the warm-load path never copies the
/// image.
///
/// # Errors
///
/// [`ImageError`] for OS mapping failures, an offset past the end of
/// the file, and anything [`LlvaImage::parse`] rejects. Callers should
/// fall back to [`read_image_file`] / [`LlvaImage::parse`] on error.
#[cfg(unix)]
pub fn map_image_file(path: impl AsRef<Path>, offset: usize) -> Result<LlvaImage> {
    let path = path.as_ref();
    let map = MappedFile::open(path)
        .map_err(|e| ImageError(format!("mmap {}: {e}", path.display())))?;
    if map.len() < offset {
        return err(format!(
            "image file {} shorter than its {offset}-byte container prefix",
            path.display()
        ));
    }
    LlvaImage::parse_bytes(ImageBytes::Mapped { map, offset })
}

/// Reads and parses an image file: on unix, by `mmap` (zero-copy; see
/// [`map_image_file`]), falling back to `std::fs::read` on any mapping
/// error; elsewhere, always by reading into an owned buffer.
///
/// # Errors
///
/// [`ImageError`] for I/O failures and anything [`LlvaImage::parse`]
/// rejects.
pub fn read_image_file(path: impl AsRef<Path>) -> Result<LlvaImage> {
    #[cfg(unix)]
    if let Ok(image) = map_image_file(path.as_ref(), 0) {
        return Ok(image);
    }
    let bytes = std::fs::read(path.as_ref())
        .map_err(|e| ImageError(format!("read {}: {e}", path.as_ref().display())))?;
    LlvaImage::parse(bytes)
}

/// Checks an image file's sections and, when any are corrupt,
/// quarantines the original (renamed aside with the storage layer's
/// `.quar` suffix) and rewrites a repaired image in place — rebuilding
/// only the damaged sections. A healthy file is left untouched.
///
/// # Errors
///
/// See [`repair_image`]; file I/O failures are also reported.
pub fn repair_image_file(path: impl AsRef<Path>) -> Result<RepairReport> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)
        .map_err(|e| ImageError(format!("read {}: {e}", path.display())))?;
    let (repaired, rebuilt) = repair_image(&bytes)?;
    if rebuilt.is_empty() {
        return Ok(RepairReport { rebuilt, quarantined: None });
    }
    let mut quar_name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    quar_name.push(crate::storage::QUARANTINE_SUFFIX);
    let quar = path.with_file_name(quar_name);
    std::fs::rename(path, &quar)
        .map_err(|e| ImageError(format!("quarantine {}: {e}", path.display())))?;
    write_image_file(path, &repaired)
        .map_err(|e| ImageError(format!("rewrite {}: {e}", path.display())))?;
    Ok(RepairReport { rebuilt, quarantined: Some(quar) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predecode::FastInterpreter;

    const SAMPLE: &str = r#"
%Pair = type { int, int }

@counter = global int 4

int %fib(int %n) {
entry:
    %c = setlt int %n, 2
    br bool %c, label %base, label %rec
base:
    ret int %n
rec:
    %n1 = sub int %n, 1
    %a = call int %fib(int %n1)
    %n2 = sub int %n, 2
    %b = call int %fib(int %n2)
    %s = add int %a, %b
    ret int %s
}

int %main() {
entry:
    %v = load int* @counter
    %r = call int %fib(int 10)
    %t = add int %r, %v
    ret int %t
}
"#;

    fn module() -> Module {
        llva_core::parser::parse_module(SAMPLE).expect("parses")
    }

    fn predecode_image(m: &Module) -> Vec<u8> {
        let pre = PreModule::new(m);
        pre.decode_all();
        let mut b = ImageBuilder::new(m);
        b.add_predecode(&pre);
        b.finish()
    }

    #[test]
    fn warm_load_round_trips_and_executes_identically() {
        let m = module();
        let bytes = predecode_image(&m);
        let image = Arc::new(LlvaImage::parse(bytes).expect("parses"));
        assert_eq!(image.stamp(), crate::llee::stamp(&m));

        let m2 = image.decode_module().expect("bytecode decodes");
        let (pre, covered) = image.premodule(&m2).expect("warm load");
        assert_eq!(covered, 2, "both defined functions covered by the index");
        assert_eq!(pre.decoded_functions(), 0, "records deserialize lazily");

        let mut warm = FastInterpreter::with_predecoded(pre);
        let warm_v = warm.run("main", &[]).expect("runs");
        let mut cold = FastInterpreter::new(&m);
        let cold_v = cold.run("main", &[]).expect("runs");
        assert_eq!(warm_v, cold_v);
        assert_eq!(warm.insts_executed(), cold.insts_executed());
    }

    #[test]
    fn eager_install_covers_every_defined_function() {
        let m = module();
        let bytes = predecode_image(&m);
        let image = LlvaImage::parse(bytes).expect("parses");
        let m2 = image.decode_module().expect("bytecode decodes");
        let pre = PreModule::new(&m2);
        let installed = image.install_predecoded(&pre).expect("installs");
        assert_eq!(installed, 2);
        assert_eq!(pre.decoded_functions(), 2, "eager install fills the cache now");
    }

    #[test]
    fn mismatched_image_is_refused_at_attach() {
        let m = module();
        let bytes = predecode_image(&m);
        let image = Arc::new(LlvaImage::parse(bytes).expect("parses"));
        // a *different* module: the supervisor's one-time stamp check
        // refuses the image, so no stale record can ever install
        let other = llva_core::parser::parse_module(
            "int %main() {\nentry:\n    ret int 7\n}\n",
        )
        .expect("parses");
        let mut sup = crate::supervisor::Supervisor::new(other, TargetIsa::X86);
        assert!(!sup.set_image(image.clone()), "mismatched image refused");
        let out = sup.run("main", &[]).expect("still executes cold");
        assert_eq!(out.outcome, crate::supervisor::TierOutcome::Value(7));
        // the matching module is accepted
        let mut sup = crate::supervisor::Supervisor::new(module(), TargetIsa::X86);
        assert!(sup.set_image(image), "matching image attaches");
    }

    #[test]
    fn per_section_corruption_is_isolated() {
        let m = module();
        let mut b = ImageBuilder::new(&m);
        let pre = PreModule::new(&m);
        pre.decode_all();
        b.add_predecode(&pre);
        b.add_native(TargetIsa::X86, &[(0, 11, vec![1, 2, 3]), (1, 22, vec![4, 5])]);
        let bytes = b.finish();
        let image = LlvaImage::parse(bytes.clone()).expect("parses");

        // find the native section's payload range and smash a byte
        let entry = image
            .table
            .iter()
            .find(|s| s.kind == SectionKind::Native(TargetIsa::X86))
            .expect("present");
        let mut corrupt = bytes;
        corrupt[entry.offset] ^= 0xFF;
        let image = Arc::new(LlvaImage::parse(corrupt).expect("table still parses"));
        assert!(!image.section_ok(SectionKind::Native(TargetIsa::X86)));
        assert!(image.section_ok(SectionKind::Bytecode), "other sections unaffected");
        assert!(image.section_ok(SectionKind::Predecode));
        assert!(image.native_entries(TargetIsa::X86).is_err());
        // the predecode section still warm-loads
        let m2 = image.decode_module().expect("decodes");
        let (_, covered) = image.premodule(&m2).expect("warm load");
        assert_eq!(covered, 2);
    }

    #[test]
    fn repair_rebuilds_only_the_corrupt_section() {
        let m = module();
        let mut b = ImageBuilder::new(&m);
        let pre = PreModule::new(&m);
        pre.decode_all();
        b.add_predecode(&pre);
        let stamps = function_stamps(&m);
        let entries: Vec<(u32, u64, Vec<u8>)> = m
            .functions()
            .filter(|(_, f)| !f.is_declaration())
            .map(|(fid, _)| {
                let code = llva_backend::compile_x86(&m, fid);
                (fid.index() as u32, stamps[fid.index()], encode(&code))
            })
            .collect();
        b.add_native(TargetIsa::X86, &entries);
        let bytes = b.finish();

        let image = LlvaImage::parse(bytes.clone()).expect("parses");
        let entry = image
            .table
            .iter()
            .find(|s| s.kind == SectionKind::Predecode)
            .expect("present");
        let pristine_native = image
            .section_payload(SectionKind::Native(TargetIsa::X86))
            .expect("present")
            .expect("valid")
            .to_vec();
        let mut corrupt = bytes;
        corrupt[entry.offset + 5] ^= 0x40;

        let (repaired, rebuilt) = repair_image(&corrupt).expect("repairs");
        assert_eq!(rebuilt, vec![SectionKind::Predecode]);
        let repaired = LlvaImage::parse(repaired).expect("parses");
        assert!(repaired.section_ok(SectionKind::Predecode));
        // the intact native section survived byte-identically
        let native_after = repaired
            .section_payload(SectionKind::Native(TargetIsa::X86))
            .expect("present")
            .expect("valid")
            .to_vec();
        assert_eq!(native_after, pristine_native);
    }

    #[test]
    fn truncations_never_panic_and_fail_cleanly() {
        let m = module();
        let bytes = predecode_image(&m);
        for cut in 0..bytes.len() {
            if let Ok(img) = LlvaImage::parse(bytes[..cut].to_vec()) {
                // a parse that survives truncation may only expose
                // sections that still checksum — exercise every accessor
                let img = Arc::new(img);
                let _ = img.decode_module();
                let _ = img.native_entries(TargetIsa::X86);
                if let Ok(m2) = img.decode_module() {
                    let _ = img.premodule(&m2);
                }
            }
        }
    }

    #[test]
    fn image_file_round_trip_with_tmp_rename() {
        let m = module();
        let bytes = predecode_image(&m);
        let dir = std::env::temp_dir().join(format!("llva-image-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("sample.llvi");
        write_image_file(&path, &bytes).expect("writes");
        // no temp residue after a clean write
        let residue = std::fs::read_dir(&dir)
            .expect("readdir")
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().contains(IMAGE_TMP_MARKER))
            .count();
        assert_eq!(residue, 0);
        let image = read_image_file(&path).expect("reads");
        assert_eq!(image.stamp(), crate::llee::stamp(&m));
        // warm loads take the zero-copy mmap fast path on unix
        #[cfg(unix)]
        assert!(image.is_mapped(), "read_image_file should mmap on unix");
        // healthy file: repair is a no-op
        let report = repair_image_file(&path).expect("checks");
        assert!(report.rebuilt.is_empty());
        assert!(report.quarantined.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn mapped_image_at_offset_matches_owned_parse() {
        let m = module();
        let bytes = predecode_image(&m);
        let dir = std::env::temp_dir().join(format!("llva-image-mmap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("prefixed.blob");
        // a DirStorage-style blob: 8-byte LE timestamp prefix + image
        let stamp = crate::llee::stamp(&m);
        let mut blob = stamp.to_le_bytes().to_vec();
        blob.extend_from_slice(&bytes);
        std::fs::write(&path, &blob).expect("writes");

        let mapped = map_image_file(&path, 8).expect("maps past the prefix");
        assert!(mapped.is_mapped());
        assert_eq!(mapped.stamp(), stamp);
        let owned = LlvaImage::parse(bytes).expect("parses");
        assert!(!owned.is_mapped());
        assert_eq!(mapped.stamp(), owned.stamp());
        // decoding through the mapped bytes gives the same module
        assert_eq!(
            crate::llee::stamp(&mapped.decode_module().expect("decodes")),
            crate::llee::stamp(&owned.decode_module().expect("decodes")),
        );
        // an offset past EOF is an error, not UB
        assert!(map_image_file(&path, blob.len() + 1).is_err());
        // empty files are rejected before mmap
        let empty = dir.join("empty.blob");
        std::fs::write(&empty, b"").expect("writes");
        assert!(map_image_file(&empty, 0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repair_file_quarantines_the_corrupt_original() {
        let m = module();
        let bytes = predecode_image(&m);
        let dir = std::env::temp_dir().join(format!("llva-image-quar-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("sample.llvi");
        let image = LlvaImage::parse(bytes.clone()).expect("parses");
        let entry = image
            .table
            .iter()
            .find(|s| s.kind == SectionKind::Predecode)
            .expect("present");
        let mut corrupt = bytes;
        corrupt[entry.offset + 3] ^= 0x10;
        std::fs::write(&path, &corrupt).expect("writes");

        let report = repair_image_file(&path).expect("repairs");
        assert_eq!(report.rebuilt, vec![SectionKind::Predecode]);
        let quar = report.quarantined.expect("quarantined");
        assert!(quar.exists(), "corrupt original kept for forensics");
        let repaired = read_image_file(&path).expect("reads");
        assert!(repaired.section_ok(SectionKind::Predecode));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
