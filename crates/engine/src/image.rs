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
//!   dense record (flat code array, phi move lists, trap side table),
//!   so a warm load *deserializes* instead of re-lowering.
//!   The fast path ([`LlvaImage::attach_loader`]) is zero-copy and
//!   lazy: the section is checksummed and indexed once, and each
//!   record deserializes only when the interpreter first calls that
//!   function. Module↔image identity is established once at attach
//!   time (a stamp compare, or decoding the module from the image
//!   itself), never by re-deriving per-function hashes on load;
//! * **native** — zero or more per-ISA sections of translations, each
//!   entry byte for byte what the storage cache holds for that function:
//!   its [`crate::llee::CACHE_ENTRY`] frame, seeded by
//!   [`crate::llee::ExecutionManager::cache_key`], stamped with its
//!   per-function content hash ([`crate::llee::function_stamps`]).
//!   [`crate::llee::ExecutionManager::set_image`] makes the section the
//!   first store LLEE reads, ahead of storage.
//!
//! An image is a run of [`IMAGE_FORMAT`] frames ([`llva_machine::codec::Format`]):
//! a header frame holding the module stamp and the list of section
//! kinds, then one frame per section, its checksum seeded by its kind.
//! Parsing checks the header frame and walks the section frames; a
//! section's checksum is checked when the section is first used, so
//! corruption is localized: a flipped bit in the native section leaves
//! the predecode section loadable, and [`repair_image`] rebuilds *only*
//! the damaged sections from the surviving bytecode. File-level helpers write
//! images with the same tmp+rename discipline as [`crate::storage::DirStorage`]
//! (a crash leaves only an [`IMAGE_TMP_MARKER`] temp file, swept at
//! startup), and [`repair_image_file`] quarantines the corrupt original
//! under the storage layer's `.quar` convention before rewriting it.
//!
//! The predecode and native sections lay out their entries alike — a
//! `u32` count, then per function its id, content hash and counted
//! bytes (a record, or a cache-entry frame) — and `LlvaImage::entries`
//! is the one index over both. Records are in the record codec every
//! stored format shares ([`llva_machine::codec`]); the predecode tables
//! sit beside their types in [`crate::predecode`].
//!
//! Decoding is bounded and panic-free throughout: images arrive from
//! disk or an OS storage API and are untrusted (`tests/image_fuzz.rs`
//! hammers truncations and byte mutations of whole images, and this
//! module's record storm mutates records past the checksums). The codec
//! rejects what the dispatch loop cannot execute (bad tags, integer
//! widths, opcodes, counts beyond the bytes, trailing bytes), and every
//! decoded [`PreFunction`] is then validated structurally (slot bounds,
//! edge indices, PC ranges) before it is handed to the interpreter.

use crate::llee::{function_stamps, TargetIsa};
use crate::predecode::{GepStep, PreFunction, PreInst, PreModule, Src};
use llva_core::module::Module;
use llva_machine::codec::{
    self, decode, encode, hash, plain, tagged, CodecError, Field, Format, HASH_SEED,
};
use std::fmt;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;

/// The frame of every image header and section ("LLva Image").
pub const IMAGE_FORMAT: Format = Format { magic: *b"LLVI", version: 3 };
/// Marker embedded in in-flight image temp file names; a crash between
/// write and rename leaves one behind, and [`crate::storage::DirStorage`]'s
/// startup sweep garbage-collects anything bearing it.
pub const IMAGE_TMP_MARKER: &str = ".__imgtmp";
/// Storage entry name under which a module's image is cached
/// content-addressed (llva-serve shares warm artifacts across tenants
/// through this entry).
pub const IMAGE_ENTRY: &str = "__image__";

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

// a section kind's bytes are also the seed of its frame's checksum
tagged!(SectionKind { 1 Bytecode, 2 Predecode, 3 Native(isa) });
plain!(TargetIsa { X86, Sparc, Riscv });

impl fmt::Display for SectionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SectionKind::Bytecode => f.write_str("bytecode"),
            SectionKind::Predecode => f.write_str("predecode"),
            SectionKind::Native(isa) => write!(f, "native:{isa}"),
        }
    }
}

impl From<CodecError> for ImageError {
    fn from(e: CodecError) -> ImageError {
        ImageError(e.to_string())
    }
}

/// One entry of a predecode or native section: function id, content
/// hash, and the absolute byte range of its bytes in the image.
pub(crate) type Entry = (u32, u64, Range<usize>);

/// The bytes of a predecode or native section (see
/// [`LlvaImage::entries`]): what `codec::encode` writes for `entries`,
/// with each entry's bytes copied whole rather than byte by byte.
fn entry_section(entries: &[(u32, u64, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + entries.iter().map(|(_, _, b)| 16 + b.len()).sum::<usize>());
    (entries.len() as u32).put(&mut out);
    for &(f, stamp, ref bytes) in entries {
        (f, stamp, bytes.len() as u32).put(&mut out);
        out.extend_from_slice(bytes);
    }
    out
}

/// Decodes and *validates* one function record: beyond decoding, every
/// register slot, edge index, and PC is checked against the record's
/// own bounds, so a record that decodes but would index out of range in
/// the dispatch loop is rejected here, not mid-run.
fn decode_prefunction(bytes: &[u8]) -> Result<PreFunction> {
    let pf = decode(bytes)?;
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
            stamp: hash(&bytecode, HASH_SEED),
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
        let entries: Vec<(u32, u64, Vec<u8>)> = module
            .function_ids()
            .into_iter()
            .filter(|&fid| !module.function(fid).is_declaration() && pre.is_decoded(fid.index()))
            .map(|fid| {
                let f = fid.index();
                let stamp = self.func_stamps.get(f).copied().unwrap_or(0);
                (f as u32, stamp, encode(&*pre.get(fid)))
            })
            .collect();
        self.set_section(SectionKind::Predecode, entry_section(&entries));
    }

    /// Adds a native-code section for `isa`: `(function id, content
    /// hash, cache-entry frame)` triples. The entries come from the
    /// producing [`crate::llee::ExecutionManager`]
    /// ([`crate::llee::ExecutionManager::native_image_entries`]) because
    /// translation happens against a *target-configured* module
    /// (pointer size and endianness are part of the per-function stamp),
    /// so it alone has the stamps and keys its consumers validate
    /// against.
    pub fn add_native(&mut self, isa: TargetIsa, entries: &[(u32, u64, Vec<u8>)]) {
        self.set_section(SectionKind::Native(isa), entry_section(entries));
    }

    fn set_section(&mut self, kind: SectionKind, payload: Vec<u8>) {
        self.sections.retain(|(k, _)| *k != kind);
        self.sections.push((kind, payload));
    }

    /// Serializes the image: the header frame, then one frame per
    /// section.
    pub fn finish(&self) -> Vec<u8> {
        let kinds: Vec<SectionKind> = self.sections.iter().map(|&(kind, _)| kind).collect();
        let mut out = IMAGE_FORMAT.frame(&[], &encode(&(self.stamp, kinds)));
        for (kind, payload) in &self.sections {
            IMAGE_FORMAT.put(&encode(kind), payload, &mut out);
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
/// prefix, e.g. [`crate::storage::DirStorage`]'s timestamp). The image
/// layout is offset-based, so all parsing and section access work
/// identically through `Deref`.
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

/// One section frame of a parsed image, its checksum not yet checked.
#[derive(Debug)]
struct Section {
    kind: SectionKind,
    payload: Range<usize>,
    checksum: u64,
}

/// A parsed persistent module image.
///
/// Parsing checks the header frame and walks the section frames;
/// individual section payloads are validated on access, so one corrupt
/// section leaves the others loadable (per-section fault isolation).
pub struct LlvaImage {
    bytes: ImageBytes,
    stamp: u64,
    frames: Vec<Section>,
    /// Bitmask of `frames` indices whose payload checksum has
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
                &self.frames.iter().map(|s| s.kind.to_string()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl LlvaImage {
    /// Parses an image: checks its header frame and walks its section
    /// frames.
    ///
    /// # Errors
    ///
    /// [`ImageError`] on a bad or corrupt header frame, a section frame
    /// that is missing, misplaced or runs past the end, a duplicate
    /// section, or trailing bytes. Payload corruption is *not* an error
    /// here — see [`LlvaImage::section_ok`].
    pub fn parse(bytes: Vec<u8>) -> Result<LlvaImage> {
        LlvaImage::parse_bytes(ImageBytes::Owned(bytes))
    }

    fn parse_bytes(bytes: ImageBytes) -> Result<LlvaImage> {
        let (head, sum) = IMAGE_FORMAT.walk(&bytes, 0)?;
        codec::check(&[], &bytes[head.clone()], sum)?;
        let (stamp, kinds): (u64, Vec<SectionKind>) = decode(&bytes[head.clone()])?;
        let mut frames: Vec<Section> = Vec::with_capacity(kinds.len());
        let mut at = head.end;
        for kind in kinds {
            if frames.iter().any(|s| s.kind == kind) {
                return err(format!("duplicate section {kind}"));
            }
            let (payload, checksum) = IMAGE_FORMAT.walk(&bytes, at)?;
            at = payload.end;
            frames.push(Section { kind, payload, checksum });
        }
        if at != bytes.len() {
            return err(format!("{} trailing bytes after the last section", bytes.len() - at));
        }
        Ok(LlvaImage {
            bytes,
            stamp,
            frames,
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
        self.frames.iter().map(|s| s.kind).collect()
    }

    /// Whether `kind` is present *and* its payload checksum validates.
    pub fn section_ok(&self, kind: SectionKind) -> bool {
        self.section(kind).is_ok()
    }

    /// The file offset and validated payload of section `kind`: an
    /// error when the section is absent or corrupt (checksum mismatch).
    fn section(&self, kind: SectionKind) -> Result<(usize, &[u8])> {
        use std::sync::atomic::Ordering;
        let Some(i) = self.frames.iter().position(|s| s.kind == kind) else {
            return err(format!("image has no {kind} section"));
        };
        let section = &self.frames[i];
        let payload = &self.bytes[section.payload.clone()];
        let bit = 1u32 << i;
        if self.validated.load(Ordering::Relaxed) & bit == 0 {
            if codec::check(&encode(&kind), payload, section.checksum).is_err() {
                return err(format!("section {kind} checksum mismatch"));
            }
            self.validated.fetch_or(bit, Ordering::Relaxed);
        }
        Ok((section.payload.start, payload))
    }

    /// Decodes the module from the bytecode section.
    ///
    /// # Errors
    ///
    /// [`ImageError`] if the section is absent, corrupt, or does not
    /// decode as virtual object code.
    pub fn decode_module(&self) -> Result<Module> {
        let (_, payload) = self.section(SectionKind::Bytecode)?;
        llva_core::bytecode::decode_module(payload)
            .map_err(|e| ImageError(format!("bytecode section: {e}")))
    }

    /// The entry index of a predecode or native section, with the
    /// section's checksum validated once up front. Both sections lay out
    /// their entries alike: a `u32` count, then per entry the function
    /// id, its content hash and the counted bytes of its record or
    /// cache-entry frame.
    /// A predecode entry's content hash is carried for repair and
    /// diagnostics but deliberately *not* re-derived from the module
    /// here — recomputing [`crate::llee::function_stamps`] re-encodes
    /// every function and costs as much as the SSA lowering the warm
    /// path exists to skip.
    ///
    /// # Errors
    ///
    /// [`ImageError`] if the section is absent, corrupt, or its entry
    /// framing is garbled.
    pub(crate) fn entries(&self, kind: SectionKind) -> Result<Vec<Entry>> {
        let (base, payload) = self.section(kind)?;
        Ok(codec::read(payload, |r| {
            let n = r.count()?;
            let mut out = Vec::new();
            for _ in 0..n {
                let f = u32::take(r)?;
                let stamp = u64::take(r)?;
                let span = r.span()?;
                out.push((f, stamp, base + span.start..base + span.end));
            }
            Ok(out)
        })?)
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
    /// Module-identity contract (also [`LlvaImage::premodule`]): the
    /// caller must already have established that `pre`'s module is the
    /// one this image was built from — by decoding it from the image
    /// itself ([`LlvaImage::decode_module`]), or by comparing
    /// [`crate::llee::stamp`] against [`LlvaImage::stamp`] (llva-serve
    /// gets that comparison for free from its content-addressed cache
    /// key; [`crate::supervisor::Supervisor::set_image`] enforces it
    /// once at attach time).
    ///
    /// # Errors
    ///
    /// [`ImageError`] if the predecode section is absent, corrupt, or
    /// its entry framing is garbled.
    pub fn attach_loader(self: &Arc<Self>, pre: &PreModule) -> Result<usize> {
        let n = pre.module().num_functions();
        let mut index: Vec<(u32, Range<usize>)> = self
            .entries(SectionKind::Predecode)?
            .into_iter()
            .filter(|(f, _, _)| (*f as usize) < n)
            .map(|(f, _, range)| (f, range))
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
    /// Module-identity contract: see [`LlvaImage::attach_loader`].
    ///
    /// # Errors
    ///
    /// See [`LlvaImage::attach_loader`].
    pub fn premodule<'m>(self: &Arc<Self>, module: &'m Module) -> Result<(Rc<PreModule<'m>>, usize)> {
        let pre = Rc::new(PreModule::new(module));
        let covered = self.attach_loader(&pre)?;
        Ok((pre, covered))
    }

    /// The raw image bytes (entry ranges from [`LlvaImage::entries`]
    /// index into these).
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
/// [`ImageError`] when the image does not parse or the bytecode
/// section itself is corrupt — with no trusted virtual object code
/// there is nothing to rebuild from, and the caller must fall back to
/// the original module source.
pub fn repair_image(bytes: &[u8]) -> Result<(Vec<u8>, Vec<SectionKind>)> {
    let image = LlvaImage::parse(bytes.to_vec())?;
    let module = image.decode_module()?; // bytecode must survive
    let mut rebuilt = Vec::new();
    let mut builder = ImageBuilder::new(&module);
    for kind in image.sections() {
        match (kind, image.section(kind)) {
            (SectionKind::Bytecode, _) => {} // the builder re-encoded it
            // keep a validated payload byte-identical
            (_, Ok((_, payload))) => builder.sections.push((kind, payload.to_vec())),
            (SectionKind::Predecode, _) => {
                let pre = PreModule::new(&module);
                pre.decode_all();
                builder.add_predecode(&pre);
                rebuilt.push(kind);
            }
            (SectionKind::Native(isa), _) => {
                // retranslated, and stamped over the target-configured
                // module, exactly as the producing ExecutionManager did
                let mut mgr = crate::llee::ExecutionManager::parked(module.clone(), isa, 1 << 24);
                mgr.translate_all().map_err(|e| ImageError(format!("retranslation: {e}")))?;
                builder.add_native(isa, &mgr.native_image_entries());
                rebuilt.push(kind);
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
/// bytes of container prefix skipped (0 for a bare image file; the
/// offset [`crate::storage::Storage::file_path`] reports for a stored
/// entry). The section payloads are then served straight from the page
/// cache — the warm-load path never copies the image.
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
    use crate::interp::Interpreter;
    use crate::predecode::FastInterpreter;
    use llva_core::eval::{CastKind, CmpClass};
    use llva_core::instruction::Opcode;
    use llva_machine::common::TrapKind;
    use llva_machine::Width;

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

    /// One sample of every record variant, and of every opcode, width,
    /// comparison class, cast kind and trap kind a record can hold —
    /// `AlwaysTrap` included, though no verified module produces it.
    fn record_samples() -> Vec<PreInst> {
        use PreInst as P;
        let (r, i) = (Src::Reg(3), Src::Imm(0x1122_3344_5566_7788));
        let mut v = vec![
            P::IntDiv { op: Opcode::Rem, a: i, b: r, dst: 5, width: 16, signed: false, exc: true },
            P::FloatBin { op: Opcode::Mul, a: r, b: r, dst: 6, is32: true },
            P::Ret { val: None },
            P::Ret { val: Some(r) },
            P::Jump { edge: 7 },
            P::BrCond { cond: r, then_edge: 1, else_edge: 2 },
            P::Mbr { disc: r, cases: vec![(i, 1), (Src::Imm(9), 2)], default_edge: 0 },
            P::Call { callee: i, args: vec![r, i], dst: Some(8), normal_edge: None, unwind_edge: Some(3) },
            P::Call { callee: r, args: vec![], dst: None, normal_edge: Some(1), unwind_edge: None },
            P::Unwind,
            P::Store { val: i, addr: r, width: Width::B8, exc: false },
            P::Gep {
                base: r,
                steps: vec![GepStep::Scaled { idx: r, size: -12 }, GepStep::Const(40), GepStep::Trap],
                dst: 9,
            },
            P::GepConst { base: i, offset: 24, dst: 10 },
            P::Alloca { count: None, unit: 8, dst: 11 },
            P::Alloca { count: Some(r), unit: 16, dst: 12 },
        ];
        v.extend(Opcode::ALL.map(|op| P::IntBin { op, a: r, b: i, dst: 1, width: 32, signed: true }));
        v.extend(
            [Width::B1, Width::B2, Width::B4, Width::B8]
                .map(|width| P::Load { addr: r, dst: 2, width, signed: true, exc: true }),
        );
        v.extend(
            [CmpClass::Sint, CmpClass::Uint, CmpClass::F32, CmpClass::F64]
                .map(|class| P::Cmp { op: Opcode::SetLt, class, a: r, b: i, dst: 3 }),
        );
        v.extend(
            [
                CastKind::Identity,
                CastKind::IntToBool,
                CastKind::IntToInt { width: 8, signed: true },
                CastKind::IntToFloat { src_signed: true, dst32: false },
                CastKind::FloatToFloat { src32: true, dst32: false },
                CastKind::FloatToBool { src32: false },
                CastKind::FloatToInt { src32: true, width: 64, signed: false },
            ]
            .map(|kind| P::Cast { src: r, kind, dst: 4 }),
        );
        v.extend(
            [
                TrapKind::MemoryFault,
                TrapKind::DivideByZero,
                TrapKind::UnhandledUnwind,
                TrapKind::Software,
                TrapKind::PrivilegeViolation,
                TrapKind::BadFunctionPointer,
                TrapKind::StackOverflow,
            ]
            .map(|kind| P::AlwaysTrap { kind }),
        );
        v
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The record bytes, recorded before the record codec moved onto
    /// `llva_machine::codec`: `hex debug` per sample, then one whole
    /// function record per function of [`SAMPLE`].
    const RECORDS: &str = "\
0104018877665544332211000300000005000000100000000001 IntDiv { op: Rem, a: Imm(1234605616436508552), b: Reg(3), dst: 5, width: 16, signed: false, exc: true }
0202000300000000030000000600000001 FloatBin { op: Mul, a: Reg(3), b: Reg(3), dst: 6, is32: true }
0400 Ret { val: None }
04010003000000 Ret { val: Some(Reg(3)) }
0507000000 Jump { edge: 7 }
0600030000000100000002000000 BrCond { cond: Reg(3), then_edge: 1, else_edge: 2 }
07000300000002000000018877665544332211010000000109000000000000000200000000000000 Mbr { disc: Reg(3), cases: [(Imm(1234605616436508552), 1), (Imm(9), 2)], default_edge: 0 }
080188776655443322110200000000030000000188776655443322110108000000000103000000 Call { callee: Imm(1234605616436508552), args: [Reg(3), Imm(1234605616436508552)], dst: Some(8), normal_edge: None, unwind_edge: Some(3) }
0800030000000000000000010100000000 Call { callee: Reg(3), args: [], dst: None, normal_edge: Some(1), unwind_edge: None }
09 Unwind
0b01887766554433221100030000000300 Store { val: Imm(1234605616436508552), addr: Reg(3), width: B8, exc: false }
0c000300000003000000000003000000f4ffffffffffffff0128000000000000000209000000 Gep { base: Reg(3), steps: [Scaled { idx: Reg(3), size: -12 }, Const(40), Trap], dst: 9 }
0d01887766554433221118000000000000000a000000 GepConst { base: Imm(1234605616436508552), offset: 24, dst: 10 }
0e0008000000000000000b000000 Alloca { count: None, unit: 8, dst: 11 }
0e01000300000010000000000000000c000000 Alloca { count: Some(Reg(3)), unit: 16, dst: 12 }
00000003000000018877665544332211010000002000000001 IntBin { op: Add, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
00010003000000018877665544332211010000002000000001 IntBin { op: Sub, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
00020003000000018877665544332211010000002000000001 IntBin { op: Mul, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
00030003000000018877665544332211010000002000000001 IntBin { op: Div, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
00040003000000018877665544332211010000002000000001 IntBin { op: Rem, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
00050003000000018877665544332211010000002000000001 IntBin { op: And, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
00060003000000018877665544332211010000002000000001 IntBin { op: Or, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
00070003000000018877665544332211010000002000000001 IntBin { op: Xor, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
00080003000000018877665544332211010000002000000001 IntBin { op: Shl, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
00090003000000018877665544332211010000002000000001 IntBin { op: Shr, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
000a0003000000018877665544332211010000002000000001 IntBin { op: SetEq, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
000b0003000000018877665544332211010000002000000001 IntBin { op: SetNe, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
000c0003000000018877665544332211010000002000000001 IntBin { op: SetLt, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
000d0003000000018877665544332211010000002000000001 IntBin { op: SetGt, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
000e0003000000018877665544332211010000002000000001 IntBin { op: SetLe, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
000f0003000000018877665544332211010000002000000001 IntBin { op: SetGe, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
00100003000000018877665544332211010000002000000001 IntBin { op: Ret, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
00110003000000018877665544332211010000002000000001 IntBin { op: Br, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
00120003000000018877665544332211010000002000000001 IntBin { op: Mbr, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
00130003000000018877665544332211010000002000000001 IntBin { op: Invoke, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
00140003000000018877665544332211010000002000000001 IntBin { op: Unwind, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
00150003000000018877665544332211010000002000000001 IntBin { op: Load, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
00160003000000018877665544332211010000002000000001 IntBin { op: Store, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
00170003000000018877665544332211010000002000000001 IntBin { op: GetElementPtr, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
00180003000000018877665544332211010000002000000001 IntBin { op: Alloca, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
00190003000000018877665544332211010000002000000001 IntBin { op: Cast, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
001a0003000000018877665544332211010000002000000001 IntBin { op: Call, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
001b0003000000018877665544332211010000002000000001 IntBin { op: Phi, a: Reg(3), b: Imm(1234605616436508552), dst: 1, width: 32, signed: true }
0a000300000002000000000101 Load { addr: Reg(3), dst: 2, width: B1, signed: true, exc: true }
0a000300000002000000010101 Load { addr: Reg(3), dst: 2, width: B2, signed: true, exc: true }
0a000300000002000000020101 Load { addr: Reg(3), dst: 2, width: B4, signed: true, exc: true }
0a000300000002000000030101 Load { addr: Reg(3), dst: 2, width: B8, signed: true, exc: true }
030c00000300000001887766554433221103000000 Cmp { op: SetLt, class: Sint, a: Reg(3), b: Imm(1234605616436508552), dst: 3 }
030c01000300000001887766554433221103000000 Cmp { op: SetLt, class: Uint, a: Reg(3), b: Imm(1234605616436508552), dst: 3 }
030c02000300000001887766554433221103000000 Cmp { op: SetLt, class: F32, a: Reg(3), b: Imm(1234605616436508552), dst: 3 }
030c03000300000001887766554433221103000000 Cmp { op: SetLt, class: F64, a: Reg(3), b: Imm(1234605616436508552), dst: 3 }
0f00030000000004000000 Cast { src: Reg(3), kind: Identity, dst: 4 }
0f00030000000104000000 Cast { src: Reg(3), kind: IntToBool, dst: 4 }
0f000300000002080000000104000000 Cast { src: Reg(3), kind: IntToInt { width: 8, signed: true }, dst: 4 }
0f000300000003010004000000 Cast { src: Reg(3), kind: IntToFloat { src_signed: true, dst32: false }, dst: 4 }
0f000300000004010004000000 Cast { src: Reg(3), kind: FloatToFloat { src32: true, dst32: false }, dst: 4 }
0f0003000000050004000000 Cast { src: Reg(3), kind: FloatToBool { src32: false }, dst: 4 }
0f00030000000601400000000004000000 Cast { src: Reg(3), kind: FloatToInt { src32: true, width: 64, signed: false }, dst: 4 }
1000 AlwaysTrap { kind: MemoryFault }
1001 AlwaysTrap { kind: DivideByZero }
1002 AlwaysTrap { kind: UnhandledUnwind }
1003 AlwaysTrap { kind: Software }
1004 AlwaysTrap { kind: PrivilegeViolation }
1005 AlwaysTrap { kind: BadFunctionPointer }
1006 AlwaysTrap { kind: StackOverflow }
030000006669620300000005000000656e74727904000000626173650300000072656309000000030c00000000000001020000000000000001000000060001000000000000000100000004010000000000000100000000000101000000000000000200000020000000010801000000400000000001000000000200000001030000000000000100000000000102000000000000000400000020000000010801000000400000000001000000000400000001050000000000000000030000000005000000060000002000000001040100060000000900000000000000000000000000000001000000010000000000000002000000000000000200000001000000020000000200000002000000030000000200000004000000020000000500000002000000020000000100000000000000000300000002000000000000000003000000000000000200000002000000010000000300000006000000070000000100000000000000 fib
040000006d61696e0100000005000000656e747279040000000a010010000000000000000000000201010801000000400000000001000000010a00000000000000010100000000000000000100000000000000000200000020000000010401000200000004000000000000000000000000000000010000000000000002000000000000000300000000000000010000000000000004000000030000000000000000000000 main
";

    #[test]
    fn records_match_the_recorded_bytes() {
        use std::fmt::Write as _;
        let mut got = String::new();
        for s in record_samples() {
            let bytes = encode(&s);
            match decode::<PreInst>(&bytes) {
                Ok(back) => assert_eq!(format!("{back:?}"), format!("{s:?}")),
                // the opcode samples pin every opcode byte, but decode
                // keeps `IntBin` to the ops its dispatch arm executes
                Err(_) => assert!(
                    matches!(s, PreInst::IntBin { op, .. }
                        if !op.is_binary() || matches!(op, Opcode::Div | Opcode::Rem)),
                    "{s:?} rejected"
                ),
            }
            writeln!(got, "{} {s:?}", hex(&bytes)).expect("writes to a String");
        }
        let m = module();
        let pre = PreModule::new(&m);
        pre.decode_all();
        for (fid, f) in m.functions() {
            let bytes = encode(&*pre.get(fid));
            assert!(decode_prefunction(&bytes).is_ok());
            writeln!(got, "{} {}", hex(&bytes), f.name()).expect("writes to a String");
        }
        if got != RECORDS {
            eprintln!("{got}");
            let first = got.lines().zip(RECORDS.lines()).find(|(g, w)| g != w);
            panic!("record bytes changed; first difference (computed, recorded): {first:?}");
        }
    }

    /// A record whose integer width no dispatch arm can shift by
    /// (width 0) passes the checksums but is rejected when it decodes,
    /// and the loader lowers that function from SSA instead.
    #[test]
    fn records_with_unexecutable_widths_are_rejected() {
        let m = module();
        let pre = PreModule::new(&m);
        pre.decode_all();
        let fib = m.function_by_name("fib").expect("fib");
        let pf = pre.get(fib);
        let insts = pf
            .insts
            .iter()
            .map(|inst| match *inst {
                PreInst::IntBin { op, a, b, dst, signed, .. } => {
                    PreInst::IntBin { op, a, b, dst, width: 0, signed }
                }
                ref other => other.clone(),
            })
            .collect();
        let crafted = PreFunction {
            name: pf.name.clone(),
            block_names: pf.block_names.clone(),
            insts,
            traps: pf.traps.clone(),
            edges: pf.edges.clone(),
            block_span: pf.block_span.clone(),
            num_slots: pf.num_slots,
            num_args: pf.num_args,
            entry_pc: pf.entry_pc,
        };
        pre.install(fib.index(), Rc::new(crafted));
        let mut b = ImageBuilder::new(&m);
        b.add_predecode(&pre);
        let image = Arc::new(LlvaImage::parse(b.finish()).expect("parses"));
        assert!(image.section_ok(SectionKind::Predecode), "the checksums cover the record");

        let cold = FastInterpreter::new(&m).run("main", &[]).expect("runs");
        let (warm, _) = image.premodule(&m).expect("attaches");
        assert_eq!(FastInterpreter::with_predecoded(warm).run("main", &[]), Ok(cold));
        let err = decode_prefunction(&encode(&*pre.get(fib))).expect_err("width 0 rejected");
        assert!(err.to_string().contains("width 0 out of range"), "{err}");
        // asked for every function, the loader serves the SSA lowering
        // of the one whose record it refused
        let (warm, _) = image.premodule(&m).expect("attaches");
        let lowered = PreModule::new(&m);
        for fid in m.function_ids() {
            assert_eq!(encode(&*warm.get(fid)), encode(&*lowered.get(fid)), "{fid:?}");
        }
    }

    /// Every kind of instruction a record can hold: integer, division,
    /// float and each comparison class, every cast kind, `mbr`, phis,
    /// calls, `invoke`/`unwind`, allocas, struct, array and global GEPs.
    const STORM: &str = r#"
%Pair = type { int, long }

@table = global [4 x int] [ 1, 2, 3, 4 ]

void %risky(int %x) {
entry:
    %c = setgt int %x, 3
    br bool %c, label %boom, label %ok
boom:
    unwind
ok:
    ret void
}

int %classify(int %x) {
entry:
    mbr int %x, label %other, [ int 1, label %one ], [ int 2, label %two ]
one:
    ret int 100
two:
    ret int 200
other:
    %q = div int %x, 3
    %r = rem int %q, 5
    ret int %r
}

long %walk(uint %n) {
entry:
    %buf = alloca long, uint %n
    %p = alloca %Pair
    %f1 = getelementptr %Pair* %p, long 0, ubyte 1
    store long 35, long* %f1
    br label %fill
fill:
    %i = phi long [ 0, %entry ], [ %i2, %fill ]
    %slot = getelementptr long* %buf, long %i
    %sh = shl long %i, 3
    store long %sh, long* %slot
    %i2 = add long %i, 1
    %more = setlt long %i2, 6
    br bool %more, label %fill, label %sum
sum:
    %v = load long* %f1
    %e = getelementptr [4 x int]* @table, long 0, long 2
    %w = load int* %e
    %ww = cast int %w to long
    %t = add long %v, %ww
    ret long %t
}

int %main(int %x) {
entry:
    %a = add double 1.5, 2.25
    %b = mul double %a, 2.0
    %c = setgt double %b, 7.0
    %f = cast int %x to float
    %g = sub float %f, 0.5
    %h = setlt float %g, 2.0
    %gd = cast float %g to double
    %gb = cast float %g to bool
    %xb = cast int %x to bool
    %n = cast int %x to sbyte
    %m = cast sbyte %n to int
    %u = cast int %x to uint
    %uc = setlt uint %u, 9
    %k = call int %classify(int %m)
    %l = call long %walk(uint 6)
    %lt = cast long %l to int
    %bt = cast double %gd to int
    %s = add int %k, %lt
    %s2 = add int %s, %bt
    invoke void %risky(int %x) to label %fine unwind label %caught
fine:
    br bool %c, label %yes, label %no
yes:
    br bool %h, label %no, label %done
no:
    br bool %uc, label %done, label %caught
done:
    %z = phi int [ %s2, %yes ], [ 1, %no ]
    %o = cast bool %gb to int
    %o2 = cast bool %xb to int
    %z2 = add int %z, %o
    %z3 = xor int %z2, %o2
    ret int %z3
caught:
    ret int -1
}
"#;

    /// Seeded mutations and truncations of every function record of
    /// [`STORM`]: each mutant either fails to decode or, installed in
    /// place of its function, runs on the pre-decoded interpreter with
    /// bounded fuel, plain and tracing. Nothing may panic.
    #[test]
    fn record_mutation_storm_never_panics_the_interpreter() {
        let m = llva_core::parser::parse_module(STORM).expect("parses");
        llva_core::verifier::verify_module(&m).expect("verifies");
        assert_eq!(FastInterpreter::new(&m).run("main", &[2]), Interpreter::new(&m).run("main", &[2]));
        let pre = PreModule::new(&m);
        pre.decode_all();
        let records: Vec<(usize, Vec<u8>)> = m
            .functions()
            .filter(|(_, f)| !f.is_declaration())
            .map(|(fid, _)| (fid.index(), encode(&*pre.get(fid))))
            .collect();
        let mut x = 0x5eed_1234_u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut ran = 0;
        for round in 0..20_000 {
            let (f, record) = &records[round % records.len()];
            let mut mutant = record.clone();
            if next().is_multiple_of(16) {
                mutant.truncate((next() % mutant.len() as u64) as usize);
            }
            if !mutant.is_empty() {
                // small nudges reach slots, edges, counts and widths
                // that stay in range; random bytes reach everything else
                for _ in 0..1 + next() % 2 {
                    let at = (next() % mutant.len() as u64) as usize;
                    mutant[at] = match next() % 3 {
                        0 => next() as u8,
                        1 => mutant[at].wrapping_add(1),
                        _ => mutant[at].wrapping_sub(1),
                    };
                }
            }
            if decode_prefunction(&mutant).is_err() {
                continue;
            }
            for tracing in [false, true] {
                let pre = PreModule::new(&m);
                pre.install(*f, Rc::new(decode_prefunction(&mutant).expect("decoded once")));
                let mut interp = FastInterpreter::with_predecoded(Rc::new(pre));
                if tracing {
                    interp.enable_tracing(crate::traced::TraceConfig { hot_threshold: 2, max_blocks: 32 });
                }
                interp.set_fuel(5_000);
                let _ = interp.run("main", &[next() % 6]);
            }
            ran += 1;
        }
        assert!(ran >= 3000, "only {ran} mutants decoded: the storm must reach execution");
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
            .frames
            .iter()
            .find(|s| s.kind == SectionKind::Native(TargetIsa::X86))
            .expect("present");
        let mut corrupt = bytes;
        corrupt[entry.payload.start] ^= 0xFF;
        let image = Arc::new(LlvaImage::parse(corrupt).expect("the frames still parse"));
        assert!(!image.section_ok(SectionKind::Native(TargetIsa::X86)));
        assert!(image.section_ok(SectionKind::Bytecode), "other sections unaffected");
        assert!(image.section_ok(SectionKind::Predecode));
        assert!(image.entries(SectionKind::Native(TargetIsa::X86)).is_err());
        // the predecode section still warm-loads
        let m2 = image.decode_module().expect("decodes");
        let (_, covered) = image.premodule(&m2).expect("warm load");
        assert_eq!(covered, 2);
    }

    #[test]
    fn repair_rebuilds_only_the_corrupt_section() {
        let mut mgr = crate::llee::ExecutionManager::new(module(), TargetIsa::X86);
        mgr.translate_all().expect("translates");
        let bytes = mgr.build_image(true);

        let image = LlvaImage::parse(bytes.clone()).expect("parses");
        let entry = image
            .frames
            .iter()
            .find(|s| s.kind == SectionKind::Predecode)
            .expect("present");
        let pristine_native = image
            .section(SectionKind::Native(TargetIsa::X86))
            .expect("valid")
            .1
            .to_vec();
        let mut corrupt = bytes;
        corrupt[entry.payload.start + 5] ^= 0x40;

        let (repaired, rebuilt) = repair_image(&corrupt).expect("repairs");
        assert_eq!(rebuilt, vec![SectionKind::Predecode]);
        let repaired = LlvaImage::parse(repaired).expect("parses");
        assert!(repaired.section_ok(SectionKind::Predecode));
        // the intact native section survived byte-identically
        let native_after = repaired
            .section(SectionKind::Native(TargetIsa::X86))
            .expect("valid")
            .1
            .to_vec();
        assert_eq!(native_after, pristine_native);

        // a corrupt native section is retranslated to the same code
        let native = image.frames.iter().find(|s| s.kind == SectionKind::Native(TargetIsa::X86));
        let mut corrupt = image.raw_bytes().to_vec();
        corrupt[native.expect("present").payload.start + 7] ^= 0x01;
        let (repaired, rebuilt) = repair_image(&corrupt).expect("repairs");
        assert_eq!(rebuilt, vec![SectionKind::Native(TargetIsa::X86)]);
        let native = |img: &LlvaImage| {
            let (_, payload) = img.section(SectionKind::Native(TargetIsa::X86)).expect("valid");
            payload.to_vec()
        };
        assert_eq!(native(&LlvaImage::parse(repaired).expect("parses")), native(&image));
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
                let _ = img.entries(SectionKind::Native(TargetIsa::X86));
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
            .frames
            .iter()
            .find(|s| s.kind == SectionKind::Predecode)
            .expect("present");
        let mut corrupt = bytes;
        corrupt[entry.payload.start + 3] ^= 0x10;
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
