//! LLEE: the execution manager (paper §4.1).
//!
//! "Offline translation when possible, online translation whenever
//! necessary": when control reaches an untranslated function, LLEE
//! looks for a stored translation — first in the attached module image
//! ([`crate::image`]), then in the OS-provided storage API — and
//! validates its timestamp against the module; on a miss in both (or
//! with neither attached) it invokes the JIT, installs the code, and
//! writes it back to storage. An image entry and a storage entry are
//! the same bytes: a [`CACHE_ENTRY`] frame seeded by
//! [`ExecutionManager::cache_key`], stamped with the function's content
//! hash. `translate_all` is the offline-translation mode (the OS
//! "initiating 'execution' … but flagging it for translation and not
//! actual execution").
//!
//! # Parallel offline translation
//!
//! Per-function translation is pure (`compile_x86`/`compile_sparc`
//! take `&Module` and touch no shared state), so offline translation
//! is an embarrassingly parallel batch job.
//! [`ExecutionManager::translate_all_parallel`] fans compilation out
//! across scoped worker threads pulling function ids from a shared
//! atomic work queue; results are installed and written back serially
//! after the join, in work-list order, so the installed code and the
//! cache contents are byte-identical to the serial
//! [`ExecutionManager::translate_all`] path regardless of worker
//! count. Probing the stores (which needs `&mut` access to the
//! engine) stays on the calling thread and only actual misses reach
//! the workers.
//!
//! # Incremental per-function cache keys
//!
//! Cache validation is per function, not per module: each entry is
//! stamped with a content hash of the function's own encoded body
//! chained onto a hash of everything a translation can observe
//! *outside* the body (target configuration, type table, globals, and
//! all function signatures — see
//! [`llva_core::bytecode::encode_module_env`]). After a constrained
//! self-modifying-code edit (`modify_function`, §3.4) only the edited
//! function's hash changes, so the next `translate_all` re-translates
//! exactly that function and serves every other entry from the cache.
//! A whole-module fingerprint ([`stamp`]) is still exported for
//! callers that want coarse validation.

use crate::env::{Env, StackView};
use crate::image::{Entry as ImageEntry, LlvaImage, SectionKind};
use crate::interp::trap_number;
use crate::storage::Storage;
use llva_backend::common::layout_globals;
use llva_backend::{
    compile_riscv_with, compile_sparc_with, compile_x86_with, PeepholeConfig,
};
use llva_core::module::{FuncId, Module};
use llva_machine::codec::{decode, encode, hash, Field, Format, HASH_SEED};
use llva_machine::common::{ExecStats, Exit, Trap};
use llva_machine::core::{Isa, Machine, Program};
use llva_machine::memory::{Memory, GLOBAL_BASE};
use llva_machine::riscv::RiscvInst;
use llva_machine::sparc::SparcInst;
use llva_machine::x86::X86Inst;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which implementation ISA to translate to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetIsa {
    /// The IA-32-like CISC target.
    X86,
    /// The SPARC-V9-like RISC target.
    Sparc,
    /// The RV64-like RISC target (no condition codes).
    Riscv,
}

impl TargetIsa {
    /// All implementation ISAs, for code enumerating translation
    /// targets (conformance stages, kill matrices, benchmarks).
    pub const ALL: [TargetIsa; 3] = [TargetIsa::X86, TargetIsa::Sparc, TargetIsa::Riscv];

    /// The target flags a module must carry to run on this processor
    /// (§3.2).
    pub fn target_config(self) -> llva_core::layout::TargetConfig {
        match self {
            TargetIsa::X86 => llva_core::layout::TargetConfig::ia32(),
            TargetIsa::Sparc => llva_core::layout::TargetConfig::sparc_v9(),
            TargetIsa::Riscv => llva_core::layout::TargetConfig::riscv64(),
        }
    }
}

impl fmt::Display for TargetIsa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TargetIsa::X86 => "x86",
            TargetIsa::Sparc => "sparc",
            TargetIsa::Riscv => "riscv",
        })
    }
}

/// Why execution failed.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A hardware trap was delivered (after running any registered
    /// trap handler).
    Trapped(Trap),
    /// The fuel limit was exhausted.
    OutOfFuel,
    /// The entry function does not exist or has no body.
    NoSuchFunction(String),
    /// Control reached a declaration with no body to translate.
    MissingBody(String),
    /// One function's translation panicked during parallel offline
    /// translation; every other function was still translated and
    /// installed.
    TranslationPanicked(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Trapped(t) => write!(f, "trapped: {t}"),
            EngineError::OutOfFuel => f.write_str("out of fuel"),
            EngineError::NoSuchFunction(n) => write!(f, "no such function %{n}"),
            EngineError::MissingBody(n) => write!(f, "function %{n} has no body to translate"),
            EngineError::TranslationPanicked(n) => {
                write!(f, "translation of %{n} panicked (other functions unaffected)")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Translation / cache statistics for one manager. `cache_*` count
/// outcomes of the storage probe, `image_*` those of the attached
/// image's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslationStats {
    /// Functions translated by the JIT this session.
    pub functions_translated: usize,
    /// Total wall-clock time spent translating.
    pub translate_time: Duration,
    /// Translations loaded from storage.
    pub cache_hits: usize,
    /// Storage lookups that missed (or were stale).
    pub cache_misses: usize,
    /// Cache lookups that found an entry whose per-function content
    /// hash no longer matched (a subset of `cache_misses`).
    pub cache_stale: usize,
    /// Cache lookups whose entry failed frame validation (bad magic,
    /// torn length, checksum mismatch) or whose payload would not
    /// decode (a subset of `cache_misses`). The bad entry is
    /// quarantined and the function retranslated.
    pub cache_corrupt: usize,
    /// Retranslations forced by a corrupt cache entry.
    pub cache_retried: usize,
    /// Corrupt entries successfully rewritten after retranslation.
    pub cache_recovered: usize,
    /// Storage operations (read probes or validated write-backs) that
    /// failed transiently but succeeded within the bounded retry budget
    /// — the fault healed, nothing was quarantined.
    pub retried_ok: usize,
    /// Storage operations that kept failing through the whole retry
    /// budget: the fault is persistent, so the probe gave up (and
    /// quarantined the entry) or the write-back was abandoned.
    pub gave_up: usize,
    /// Translations discarded by SMC invalidation.
    pub invalidations: usize,
    /// Translations installed from an attached module image
    /// ([`crate::image::LlvaImage`]) instead of storage or the JIT.
    pub image_hits: usize,
    /// Image entries skipped because their per-function content hash no
    /// longer matched the module.
    pub image_stale: usize,
    /// Image native sections that failed their checksum at attach, and
    /// image entries whose frame or code failed validation; each falls
    /// through to storage and the JIT.
    pub image_corrupt: usize,
}

impl TranslationStats {
    /// Accumulates `other` into `self` — long-running surfaces (the
    /// serving layer's metrics endpoint) aggregate the stats of every
    /// manager a module has had: load-time warmup, the supervisor's
    /// resident one, and any discarded after a panic.
    pub fn merge(&mut self, other: &TranslationStats) {
        self.functions_translated += other.functions_translated;
        self.translate_time += other.translate_time;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_stale += other.cache_stale;
        self.cache_corrupt += other.cache_corrupt;
        self.cache_retried += other.cache_retried;
        self.cache_recovered += other.cache_recovered;
        self.retried_ok += other.retried_ok;
        self.gave_up += other.gave_up;
        self.invalidations += other.invalidations;
        self.image_hits += other.image_hits;
        self.image_stale += other.image_stale;
        self.image_corrupt += other.image_corrupt;
    }
}

/// Storage counters for one function (see
/// [`ExecutionManager::func_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuncCacheStats {
    /// Lookups served from the cache.
    pub hits: u32,
    /// Lookups that found nothing usable (includes `stale` and
    /// `corrupt`).
    pub misses: u32,
    /// Lookups that found an entry with a mismatched content hash.
    pub stale: u32,
    /// Lookups that found a corrupt entry (frame or payload invalid).
    pub corrupt: u32,
}

/// The frame around every cached translation ("LLva Cache Entry"):
/// storage is OS-provided and untrusted, so each entry is checked —
/// magic, version, length, and a checksum seeded by its storage key,
/// which also catches an entry copied under the wrong key — before a
/// byte of it reaches the instruction decoder.
pub const CACHE_ENTRY: Format = Format { magic: *b"LLCE", version: 2 };

/// Bounded retry budget for storage reads and validated write-backs.
/// Attempt-count based, never wall-clock, so fault-injection runs stay
/// deterministic: a transient fault heals within the budget; anything
/// that persists through it is treated as real corruption.
const STORAGE_ATTEMPTS: u32 = 3;

/// What a probe of the stores found (see
/// [`ExecutionManager::load_stored`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    /// Validated entry installed.
    Hit,
    /// Nothing usable (absent, stale, or no store attached).
    Miss,
    /// A storage entry failed validation on every attempt; it was
    /// quarantined and the caller must retranslate.
    Corrupt,
}

/// The stores a translation is read from, in probe order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Store {
    /// The attached image's native section: read-only and read once; a
    /// bad entry is skipped, never retried, quarantined or rewritten.
    Image,
    /// OS storage: read with bounded retry; a bad entry is quarantined
    /// and the retranslation written back.
    Storage,
}

/// The most one store's attempts saw of an entry, for counting a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Found {
    /// No entry.
    Nothing,
    /// An entry whose timestamp is not the function's stamp.
    Stale,
    /// An entry with the right timestamp that failed validation.
    Invalid,
}

/// The result of a successful run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// The entry function's return value (raw bits).
    pub value: u64,
    /// Machine execution statistics for the whole session so far.
    pub stats: ExecStats,
}

/// What LLEE needs of an implementation ISA besides running it and
/// caching its code: its translator. This is the only per-ISA line of
/// the execution manager.
trait Target: Isa + Field + Send + 'static {
    fn compile(module: &Module, f: FuncId, peep: &PeepholeConfig) -> Vec<Self>;
}

impl Target for X86Inst {
    fn compile(module: &Module, f: FuncId, peep: &PeepholeConfig) -> Vec<Self> {
        compile_x86_with(module, f, peep)
    }
}

impl Target for SparcInst {
    fn compile(module: &Module, f: FuncId, peep: &PeepholeConfig) -> Vec<Self> {
        compile_sparc_with(module, f, peep)
    }
}

impl Target for RiscvInst {
    fn compile(module: &Module, f: FuncId, peep: &PeepholeConfig) -> Vec<Self> {
        compile_riscv_with(module, f, peep)
    }
}

/// One ISA's resident native code and the process running it.
struct Native<I> {
    program: Program<I>,
    machine: Machine<I>,
}

/// The ISA-independent face of [`Native`]: everything the manager asks
/// of the translated program and the simulated processor.
trait Engine {
    /// Replaces the process with a fresh one over `mem`.
    fn new_process(&mut self, mem: Memory);
    fn mem(&self) -> &Memory;
    fn mem_mut(&mut self) -> &mut Memory;
    fn exec_stats(&self) -> ExecStats;
    fn call_entry(&mut self, f: u32, args: &[u64]) -> Result<(), Trap>;
    fn run(&mut self, fuel: u64) -> Exit;
    /// The functions on the call stack (innermost first) and the
    /// current `(function, pc)`.
    fn stack(&self) -> (Vec<u32>, (u32, u32));
    fn finish_intrinsic(&mut self, ret: u64);
    fn program_size(&self) -> (usize, usize);
    fn global_addr(&self, g: u32) -> u64;
    fn is_installed(&self, f: u32) -> bool;
    fn invalidate(&mut self, f: u32);
    fn ensure_slots(&mut self, n: usize);
    /// Decodes and installs a native blob; false when it does not decode.
    fn install_blob(&mut self, f: u32, blob: &[u8]) -> bool;
    /// The installed code of `f`, encoded.
    fn encoded(&self, f: u32) -> Option<Vec<u8>>;
    /// Compiles and installs `f`, returning the encoded code.
    fn translate(&mut self, module: &Module, f: FuncId, peep: &PeepholeConfig) -> Vec<u8>;
    /// Compiles `work` on up to `n_workers` threads, each function's
    /// compilation isolated by `catch_unwind`, and installs the results
    /// in `work` order: the encoded code per item, `None` where it
    /// panicked.
    fn translate_batch(
        &mut self,
        module: &Module,
        work: &[u32],
        n_workers: usize,
        peep: &PeepholeConfig,
    ) -> Vec<Option<Vec<u8>>>;
}

impl<I: Target> Engine for Native<I> {
    fn new_process(&mut self, mem: Memory) {
        self.machine = Machine::new(mem);
    }
    fn mem(&self) -> &Memory {
        &self.machine.cpu.mem
    }
    fn mem_mut(&mut self) -> &mut Memory {
        &mut self.machine.cpu.mem
    }
    fn exec_stats(&self) -> ExecStats {
        self.machine.stats()
    }
    fn call_entry(&mut self, f: u32, args: &[u64]) -> Result<(), Trap> {
        self.machine.call_entry(f, args)
    }
    fn run(&mut self, fuel: u64) -> Exit {
        self.machine.run(&self.program, fuel)
    }
    fn stack(&self) -> (Vec<u32>, (u32, u32)) {
        (self.machine.stack(), self.machine.current_location())
    }
    fn finish_intrinsic(&mut self, ret: u64) {
        self.machine.finish_intrinsic(ret);
    }
    fn program_size(&self) -> (usize, usize) {
        (self.program.total_insts(), self.program.total_bytes())
    }
    fn global_addr(&self, g: u32) -> u64 {
        self.program.global_addr(g)
    }
    fn is_installed(&self, f: u32) -> bool {
        self.program.is_installed(f)
    }
    fn invalidate(&mut self, f: u32) {
        self.program.invalidate(f);
    }
    fn ensure_slots(&mut self, n: usize) {
        self.program.ensure_slots(n);
    }
    fn install_blob(&mut self, f: u32, blob: &[u8]) -> bool {
        decode::<Vec<I>>(blob).map(|code| self.program.install(f, code)).is_ok()
    }
    fn encoded(&self, f: u32) -> Option<Vec<u8>> {
        self.program.code(f).map(encode)
    }
    fn translate(&mut self, module: &Module, f: FuncId, peep: &PeepholeConfig) -> Vec<u8> {
        let code = I::compile(module, f, peep);
        let blob = encode(&code);
        self.program.install(f.index() as u32, code);
        blob
    }
    fn translate_batch(
        &mut self,
        module: &Module,
        work: &[u32],
        n_workers: usize,
        peep: &PeepholeConfig,
    ) -> Vec<Option<Vec<u8>>> {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let compiled = compile_batch(work, n_workers, |fid| {
            catch_unwind(AssertUnwindSafe(|| {
                let code = I::compile(module, fid, peep);
                let blob = encode(&code);
                (code, blob)
            }))
            .ok()
        });
        work.iter()
            .zip(compiled)
            .map(|(&f, result)| {
                let (code, blob) = result?;
                self.program.install(f, code);
                Some(blob)
            })
            .collect()
    }
}

/// The LLVA execution environment: owns the module, the simulated
/// processor, and the translation state.
pub struct ExecutionManager {
    module: Module,
    isa: TargetIsa,
    engine: Box<dyn Engine>,
    /// Intrinsic state (I/O, privileged bit, trap handlers).
    pub env: Env,
    storage: Option<Box<dyn Storage>>,
    cache_name: String,
    /// Per-function content hashes (the cache "timestamps", §4.1) —
    /// indexed by function id; see [`function_stamps`].
    func_hashes: Vec<u64>,
    stats: TranslationStats,
    func_cache: Vec<FuncCacheStats>,
    func_names: Vec<String>,
    fuel: u64,
    /// Whether translations run the shared peephole pass. Part of the
    /// cache key: peephole-off code must never be served to (or from)
    /// a peephole-on manager.
    peephole: PeepholeConfig,
    /// Warm-start native code: the attached image and its native
    /// entries for this ISA, sorted by function id — the first store
    /// [`ExecutionManager::load_stored`] reads. Entries decode lazily,
    /// one function at a time.
    image: Option<(Arc<LlvaImage>, Vec<ImageEntry>)>,
    /// What every process starts from: the rendered global
    /// initializers (loaded at [`GLOBAL_BASE`]), where its heap begins,
    /// and how large its address space is.
    global_image: Vec<u8>,
    heap_base: u64,
    mem_size: u64,
}

impl fmt::Debug for ExecutionManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecutionManager")
            .field("module", &self.module.name())
            .field("isa", &self.isa)
            .field("stats", &self.stats)
            .finish()
    }
}

impl ExecutionManager {
    /// Creates a manager with a 16 MiB simulated memory.
    pub fn new(module: Module, isa: TargetIsa) -> ExecutionManager {
        ExecutionManager::with_memory_size(module, isa, 1 << 24)
    }

    /// Creates a manager with a custom memory size.
    pub fn with_memory_size(module: Module, isa: TargetIsa, mem_size: u64) -> ExecutionManager {
        let mut mgr = ExecutionManager::parked(module, isa, mem_size);
        mgr.start_process();
        mgr
    }

    /// A manager holding code state only — no process has been started
    /// on it, so it owns no simulated memory yet (see
    /// [`Self::start_process`]).
    pub(crate) fn parked(mut module: Module, isa: TargetIsa, mem_size: u64) -> ExecutionManager {
        // the module's target flags must match the processor (§3.2)
        let target = isa.target_config();
        module.set_target(target);
        let image = layout_globals(&module);
        let mem = Memory::new(mem_size, image.heap_base, target.endianness);
        fn native<I: Target>(n: usize, addrs: Vec<u64>, mem: Memory) -> Box<dyn Engine> {
            Box::new(Native::<I> {
                program: Program::new(n, addrs),
                machine: Machine::new(mem),
            })
        }
        let n = module.num_functions();
        let engine = match isa {
            TargetIsa::X86 => native::<X86Inst>(n, image.addrs, mem),
            TargetIsa::Sparc => native::<SparcInst>(n, image.addrs, mem),
            TargetIsa::Riscv => native::<RiscvInst>(n, image.addrs, mem),
        };
        let func_names = module
            .functions()
            .map(|(_, f)| f.name().to_string())
            .collect();
        let func_hashes = function_stamps(&module);
        let func_cache = vec![FuncCacheStats::default(); func_hashes.len()];
        ExecutionManager {
            module,
            isa,
            engine,
            env: Env::new(),
            storage: None,
            cache_name: String::new(),
            func_hashes,
            stats: TranslationStats::default(),
            func_cache,
            func_names,
            fuel: 10_000_000_000,
            peephole: PeepholeConfig::on(),
            image: None,
            global_image: image.image,
            heap_base: image.heap_base,
            mem_size,
        }
    }

    /// Starts a fresh process on the resident code: new simulated
    /// memory holding the load image, a new processor (registers,
    /// stack, [`ExecStats`]) and a new [`Env`] (I/O, privileged bit,
    /// trap handlers, virtual clock). The module, installed
    /// translations, cache and image attachments and
    /// [`TranslationStats`] carry over — translate once, run many
    /// (§4.1). Nothing the previous process did is observable to the
    /// next one.
    ///
    /// # Panics
    ///
    /// Panics when the module's global image does not fit in the
    /// address space this manager was created with.
    pub fn start_process(&mut self) {
        self.end_process();
        self.engine
            .mem_mut()
            .write_bytes(GLOBAL_BASE, &self.global_image)
            .expect("global image fits");
    }

    /// Drops the current process (memory, processor state, [`Env`]),
    /// leaving the manager holding code only: a parked manager costs
    /// its translations, not an address space. [`Self::start_process`]
    /// must precede the next [`Self::run`].
    pub fn end_process(&mut self) {
        let mem = Memory::new(
            self.mem_size,
            self.heap_base,
            self.module.target().endianness,
        );
        self.engine.new_process(mem);
        self.env = Env::new();
    }

    /// Enables or disables the shared peephole pass for all future
    /// translations (the conformance oracle's off-vs-on stages). Does
    /// not retranslate already-installed code.
    pub fn set_peephole(&mut self, enabled: bool) {
        self.peephole = if enabled {
            PeepholeConfig::on()
        } else {
            PeepholeConfig::off()
        };
    }

    /// Attaches an OS storage implementation for offline caching
    /// (§4.1); `cache` names this program's cache.
    pub fn set_storage(&mut self, mut storage: Box<dyn Storage>, cache: &str) {
        storage.create_cache(cache);
        self.storage = Some(storage);
        self.cache_name = cache.to_string();
    }

    /// Detaches and returns the storage (to inspect or reuse).
    pub fn take_storage(&mut self) -> Option<Box<dyn Storage>> {
        self.storage.take()
    }

    /// Limits executed native instructions.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// The module being executed.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The target ISA.
    pub fn isa(&self) -> TargetIsa {
        self.isa
    }

    /// Translation statistics.
    pub fn stats(&self) -> TranslationStats {
        self.stats
    }

    /// Machine execution statistics.
    pub fn exec_stats(&self) -> ExecStats {
        self.engine.exec_stats()
    }

    /// Total native instructions across installed translations.
    pub fn installed_insts(&self) -> usize {
        self.engine.program_size().0
    }

    /// Total native code bytes across installed translations.
    pub fn installed_bytes(&self) -> usize {
        self.engine.program_size().1
    }

    /// Reads `len` bytes of simulated memory (tests, profiling).
    pub fn read_memory(&self, addr: u64, len: u64) -> Option<Vec<u8>> {
        self.engine.mem().read_bytes(addr, len).ok()
    }

    /// The relocated address of a global (profiling support).
    pub fn global_addr(&self, g: llva_core::module::GlobalId) -> u64 {
        self.engine.global_addr(g.index() as u32)
    }

    /// The name under which function `f`'s translation is stored, and
    /// the seed of its [`CACHE_ENTRY`] frame: the ISA, whether the
    /// peephole pass ran, and the function id. It is the single source
    /// of truth for the lookup, the write-back and the image's native
    /// section (and for tests or tools that need to inspect or corrupt
    /// a specific entry). The module is named by the cache and its
    /// content by the stamp, not by the key: bytecode does not carry a
    /// module's name, so an image decoded back into a module must still
    /// match its own entries.
    pub fn cache_key(&self, f: u32) -> String {
        let peep = if self.peephole.enabled { "" } else { ".nopeep" };
        format!("{}{}.fn{}", self.isa, peep, f)
    }

    /// What storage holds, and an image's native section carries, for
    /// function `f` translated to `code`: its [`Self::cache_key`], its
    /// [`CACHE_ENTRY`] frame, and its content stamp as the timestamp.
    fn stored_entry(&self, f: u32, code: &[u8]) -> (String, Vec<u8>, u64) {
        let key = self.cache_key(f);
        let framed = CACHE_ENTRY.frame(key.as_bytes(), code);
        (key, framed, self.func_hashes[f as usize])
    }

    /// This manager's per-function cache counters, indexed by function
    /// id: hits, misses, and stale entries (content hash mismatch).
    pub fn func_cache_stats(&self) -> &[FuncCacheStats] {
        &self.func_cache
    }

    /// Whether function `f`'s translation is already installed.
    pub fn is_function_installed(&self, f: u32) -> bool {
        self.engine.is_installed(f)
    }

    /// Attaches a persistent image's native section for this manager's
    /// ISA as the first store a translation is read from — the
    /// warm-load fast path: no JIT, no per-function storage round trips.
    /// The section is checksummed and its entries indexed *once, here*;
    /// each function's entry is validated and installed lazily, when
    /// [`Self::translate`] (or the [`Self::translate_all_parallel`]
    /// probe) first reaches that function. A corrupt section counts as
    /// `image_corrupt` and attaches nothing. Returns how many functions
    /// the index covers.
    pub fn set_image(&mut self, image: Arc<LlvaImage>) -> usize {
        let kind = SectionKind::Native(self.isa);
        let mut entries = match image.entries(kind) {
            Ok(entries) => entries,
            Err(_) => {
                // absent is a quiet miss; corrupt is worth counting
                if image.sections().contains(&kind) {
                    self.stats.image_corrupt += 1;
                }
                return 0;
            }
        };
        entries.sort_unstable_by_key(|&(f, _, _)| f);
        let covered = entries.len();
        self.image = Some((image, entries));
        covered
    }

    /// The installed translations as image-section entries: `(function
    /// id, timestamp, LLCE frame)` for this manager's ISA, byte for byte
    /// what storage holds for each, ready for
    /// [`crate::image::ImageBuilder::add_native`].
    pub fn native_image_entries(&self) -> Vec<(u32, u64, Vec<u8>)> {
        self.defined_functions()
            .into_iter()
            .filter_map(|f| {
                let (_, framed, ts) = self.stored_entry(f, &self.engine.encoded(f)?);
                Some((f, ts, framed))
            })
            .collect()
    }

    /// Builds a persistent module image from this manager: the module's
    /// bytecode, optionally the full pre-decode section, and a native
    /// section holding every currently-installed translation (call
    /// [`Self::translate_all_parallel`] first for a complete one).
    pub fn build_image(&self, include_predecode: bool) -> Vec<u8> {
        let mut builder = crate::image::ImageBuilder::new(&self.module);
        if include_predecode {
            let pre = crate::predecode::PreModule::new(&self.module);
            pre.decode_all();
            builder.add_predecode(&pre);
        }
        builder.add_native(self.isa, &self.native_image_entries());
        builder.finish()
    }

    /// Looks for a stored translation of `f` in each store in turn — the
    /// attached image, then storage — and installs the first that
    /// validates. Every entry passes the same checks before a byte of
    /// it reaches the program: its timestamp equals the function's
    /// content stamp (§4.1 "check a timestamp on … a cached vector",
    /// made per function), its [`CACHE_ENTRY`] frame checks under
    /// [`Self::cache_key`], and its code decodes.
    ///
    /// The image is read once; a stale or invalid entry is counted
    /// (`image_stale`, `image_corrupt`) and the probe falls through.
    /// Storage is read up to [`STORAGE_ATTEMPTS`] times (attempt-count
    /// based, no wall clock, so probes are deterministic): a transient
    /// fault (flaky read, momentary bit rot) heals on retry and counts
    /// as `retried_ok`. Only an entry with the right timestamp that
    /// stays invalid through the whole budget is a [`Probe::Corrupt`]:
    /// it is quarantined (`gave_up`) so it cannot be served again, and
    /// the caller retranslates. A store that is not attached records
    /// nothing.
    fn load_stored(&mut self, f: u32) -> Probe {
        let key = self.cache_key(f);
        let stamp = self.func_hashes[f as usize];
        for store in [Store::Image, Store::Storage] {
            let attempts = match store {
                Store::Image if self.image.is_some() => 1,
                Store::Storage if self.storage.is_some() => STORAGE_ATTEMPTS,
                _ => continue,
            };
            let mut found = Found::Nothing;
            for attempt in 0..attempts {
                let entry = match (store, &self.image, &self.storage) {
                    (Store::Image, Some((image, entries)), _) => {
                        let i = entries.binary_search_by_key(&f, |&(g, _, _)| g).ok();
                        i.map(|i| {
                            let (_, ts, ref range) = entries[i];
                            (Cow::Borrowed(&image.raw_bytes()[range.clone()]), ts)
                        })
                    }
                    (Store::Storage, _, Some(storage)) => storage
                        .read(&self.cache_name, &key)
                        .map(|(framed, ts)| (Cow::Owned(framed), ts)),
                    _ => None,
                };
                // absent, or transiently unreadable
                let Some((framed, ts)) = entry else { continue };
                if ts != stamp {
                    // stale — or a transiently garbled timestamp
                    found = found.max(Found::Stale);
                    continue;
                }
                found = Found::Invalid;
                let engine = &mut self.engine;
                if CACHE_ENTRY
                    .unframe(key.as_bytes(), &framed)
                    .is_ok_and(|code| engine.install_blob(f, code))
                {
                    match store {
                        Store::Image => self.stats.image_hits += 1,
                        Store::Storage => {
                            self.stats.retried_ok += usize::from(attempt > 0);
                            self.stats.cache_hits += 1;
                            self.func_cache[f as usize].hits += 1;
                        }
                    }
                    return Probe::Hit;
                }
                // invalid frame or undecodable code this attempt; retry
                // in case the damage was in transit rather than at rest
            }
            let stats = &mut self.stats;
            if store == Store::Image {
                match found {
                    Found::Nothing => {}
                    Found::Stale => stats.image_stale += 1,
                    Found::Invalid => stats.image_corrupt += 1,
                }
                continue;
            }
            let per_func = &mut self.func_cache[f as usize];
            stats.cache_misses += 1;
            per_func.misses += 1;
            match found {
                Found::Nothing => {}
                Found::Stale => {
                    stats.cache_stale += 1;
                    per_func.stale += 1;
                }
                Found::Invalid => {
                    // persistent corruption: quarantine so the bad entry
                    // is never consulted again, then retranslate
                    stats.cache_corrupt += 1;
                    stats.gave_up += 1;
                    per_func.corrupt += 1;
                    if let Some(storage) = &mut self.storage {
                        storage.quarantine(&self.cache_name, &key);
                    }
                    return Probe::Corrupt;
                }
            }
        }
        Probe::Miss
    }

    /// Writes one framed cache entry and validates it by read-back
    /// (byte-for-byte plus timestamp), rewriting up to
    /// [`STORAGE_ATTEMPTS`] times. A write that validates after a
    /// transient fault counts as `retried_ok`; one that never validates
    /// is abandoned (`gave_up`) — the cache simply stays cold for that
    /// function, which the probe path already tolerates.
    fn write_validated(&mut self, key: &str, framed: &[u8], ts: u64) -> bool {
        let Some(storage) = &mut self.storage else {
            return false;
        };
        for attempt in 0..STORAGE_ATTEMPTS {
            storage.write(&self.cache_name, key, framed, ts);
            let landed = storage
                .read(&self.cache_name, key)
                .is_some_and(|(blob, got_ts)| got_ts == ts && blob == framed);
            if landed {
                if attempt > 0 {
                    self.stats.retried_ok += 1;
                }
                return true;
            }
        }
        self.stats.gave_up += 1;
        false
    }

    /// Translates one function, consulting the cache first. Returns
    /// whether it was a cache hit.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::MissingBody`] for declarations and
    /// [`EngineError::NoSuchFunction`] for an out-of-range id (ids can
    /// arrive from untrusted artifacts, e.g. corrupted cache state).
    pub fn translate(&mut self, f: u32) -> Result<bool, EngineError> {
        if f as usize >= self.module.num_functions() {
            return Err(EngineError::NoSuchFunction(format!("fn{f}")));
        }
        let fid = FuncId::from_index(f as usize);
        if self.module.function(fid).is_declaration() {
            return Err(EngineError::MissingBody(
                self.module.function(fid).name().to_string(),
            ));
        }
        // a translation already installed (warm image load, or an
        // earlier call) is authoritative until invalidated
        if self.is_function_installed(f) {
            return Ok(true);
        }
        // a stored translation: the image, then storage (§4.1)
        let probe = self.load_stored(f);
        if probe == Probe::Hit {
            return Ok(true);
        }
        // JIT translation
        let start = Instant::now();
        let blob = self.engine.translate(&self.module, fid, &self.peephole);
        self.stats.translate_time += start.elapsed();
        self.stats.functions_translated += 1;
        self.write_back(f, &blob, probe == Probe::Corrupt);
        Ok(false)
    }

    /// Writes a fresh translation back to storage, framed for
    /// validation and verified by read-back (with bounded retry for
    /// transient faults), and counts the recovery of an entry the probe
    /// found corrupt. Without storage nothing is written.
    fn write_back(&mut self, f: u32, code: &[u8], was_corrupt: bool) {
        let written = self.storage.is_some() && {
            let (key, framed, ts) = self.stored_entry(f, code);
            self.write_validated(&key, &framed, ts)
        };
        if was_corrupt {
            self.stats.cache_retried += 1;
            if written {
                self.stats.cache_recovered += 1;
            }
        }
    }

    /// Offline translation of the whole program (§4.1: translation
    /// without execution, e.g. during OS idle time). This is the
    /// serial reference path; [`Self::translate_all_parallel`] produces
    /// byte-identical results on worker threads.
    ///
    /// # Errors
    ///
    /// Never fails for defined functions; declarations are skipped.
    pub fn translate_all(&mut self) -> Result<(), EngineError> {
        for f in self.defined_functions() {
            self.translate(f)?;
        }
        Ok(())
    }

    /// The default worker count for parallel offline translation: the
    /// machine's available parallelism (1 if it cannot be queried).
    pub fn default_workers() -> usize {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }

    /// Offline translation with function compilation fanned out across
    /// `n_workers` scoped threads (`0` = [`Self::default_workers`]).
    ///
    /// The calling thread first probes the stores for every defined
    /// function (installing validated hits); only the misses are
    /// compiled, by workers pulling function ids off a shared atomic
    /// queue. Compiled code is installed and written back to storage
    /// serially after the join, in function-id order, so the installed
    /// program and the cache contents are byte-identical to
    /// [`Self::translate_all`] for any worker count.
    ///
    /// # Errors
    ///
    /// A panic inside one function's translation (a compiler bug, or
    /// virtual object code crafted to poison it) is caught per
    /// function: every other function is still translated, installed,
    /// and written back, and the first poisoned function is reported as
    /// [`EngineError::TranslationPanicked`].
    pub fn translate_all_parallel(&mut self, n_workers: usize) -> Result<(), EngineError> {
        let n_workers = if n_workers == 0 {
            Self::default_workers()
        } else {
            n_workers
        };
        // serial probe, as translate() does: hits install here, misses
        // become work; corrupt storage entries are quarantined and
        // tracked for recovery accounting after their retranslation
        // lands
        let mut corrupt: Vec<u32> = Vec::new();
        let work: Vec<u32> = self
            .defined_functions()
            .into_iter()
            .filter(|&f| {
                !self.is_function_installed(f)
                    && match self.load_stored(f) {
                        Probe::Hit => false,
                        Probe::Miss => true,
                        Probe::Corrupt => {
                            corrupt.push(f);
                            true
                        }
                    }
            })
            .collect();
        if work.is_empty() {
            return Ok(());
        }
        // parallel compile (compile_* are pure over &Module), then a
        // serial install pass in work-list order for determinism
        let start = Instant::now();
        let compiled = self
            .engine
            .translate_batch(&self.module, &work, n_workers, &self.peephole);
        let mut blobs: Vec<(u32, Vec<u8>)> = Vec::with_capacity(work.len());
        let mut poisoned: Option<u32> = None;
        for (&f, blob) in work.iter().zip(compiled) {
            match blob {
                Some(blob) => blobs.push((f, blob)),
                None => poisoned = poisoned.or(Some(f)),
            }
        }
        self.stats.translate_time += start.elapsed();
        self.stats.functions_translated += blobs.len();
        // serial write-back in function-id order, entry by entry, as
        // translate() does
        for (f, blob) in blobs {
            self.write_back(f, &blob, corrupt.contains(&f));
        }
        match poisoned {
            None => Ok(()),
            Some(f) => Err(EngineError::TranslationPanicked(
                self.module.function(FuncId::from_index(f as usize)).name().to_string(),
            )),
        }
    }

    /// Ids of all functions with bodies, in id order.
    fn defined_functions(&self) -> Vec<u32> {
        self.module
            .functions()
            .filter(|(_, func)| !func.is_declaration())
            .map(|(fid, _)| fid.index() as u32)
            .collect()
    }

    /// Invalidates a function's translation (SMC, §3.4): the current
    /// activation keeps running old code; the *next* call retranslates.
    pub fn invalidate_function(&mut self, name: &str) {
        if let Some(fid) = self.module.function_by_name(name) {
            self.engine.invalidate(fid.index() as u32);
            self.stats.invalidations += 1;
        }
    }

    /// Mutates the module (e.g. rewrites a function body through the
    /// constrained SMC model) and invalidates the affected translation.
    pub fn modify_function(&mut self, name: &str, edit: impl FnOnce(&mut Module, FuncId)) {
        let Some(fid) = self.module.function_by_name(name) else {
            return;
        };
        edit(&mut self.module, fid);
        // re-stamp: only the edited function's hash changes unless the
        // edit touched the observable environment (types, globals,
        // signatures), so cached translations of untouched functions
        // stay valid
        self.func_hashes = function_stamps(&self.module);
        self.func_cache
            .resize(self.func_hashes.len(), FuncCacheStats::default());
        // self-extending code may have added functions (§3.4)
        self.engine.ensure_slots(self.module.num_functions());
        self.func_names = self
            .module
            .functions()
            .map(|(_, f)| f.name().to_string())
            .collect();
        self.invalidate_function(name);
    }

    /// Runs function `name` with the given raw argument values.
    ///
    /// # Errors
    ///
    /// See [`EngineError`].
    pub fn run(&mut self, name: &str, args: &[u64]) -> Result<RunOutcome, EngineError> {
        let fid = self
            .module
            .function_by_name(name)
            .filter(|&f| !self.module.function(f).is_declaration())
            .ok_or_else(|| EngineError::NoSuchFunction(name.to_string()))?;
        self.engine
            .call_entry(fid.index() as u32, args)
            .map_err(EngineError::Trapped)?;
        loop {
            match self.engine.run(self.fuel) {
                Exit::Halt(value) => {
                    return Ok(RunOutcome {
                        value,
                        stats: self.exec_stats(),
                    })
                }
                Exit::NeedFunction(f) => {
                    self.translate(f)?;
                }
                Exit::Intrinsic { which, args } => {
                    self.service_intrinsic(which, &args)?;
                }
                Exit::Trapped(trap) => {
                    self.deliver_trap(trap);
                    return Err(EngineError::Trapped(trap));
                }
                Exit::OutOfFuel => return Err(EngineError::OutOfFuel),
            }
        }
    }

    fn service_intrinsic(
        &mut self,
        which: llva_core::intrinsics::Intrinsic,
        args: &[u64],
    ) -> Result<(), EngineError> {
        // advance the virtual clock with execution progress
        self.env.clock = self.exec_stats().cycles;
        let (functions, location) = self.engine.stack();
        let result = self.env.handle(
            which,
            args,
            self.engine.mem_mut(),
            &StackView { functions },
            &self.func_names,
        );
        let ret = match result {
            Ok(v) => v,
            Err(kind) => {
                let trap = Trap {
                    kind,
                    function: location.0,
                    pc: location.1,
                };
                self.deliver_trap(trap);
                return Err(EngineError::Trapped(trap));
            }
        };
        // drain SMC invalidations (§3.4: takes effect on next call);
        // out-of-range indices from hostile code are dropped, not fatal
        let pending = std::mem::take(&mut self.env.smc_invalidations);
        for f in pending {
            if f as usize >= self.module.num_functions() {
                continue;
            }
            self.engine.invalidate(f);
            self.stats.invalidations += 1;
        }
        self.engine.finish_intrinsic(ret);
        Ok(())
    }

    /// Invokes a registered trap handler, if any (§3.5). The handler is
    /// an ordinary LLVA function taking the trap number and an info
    /// pointer.
    fn deliver_trap(&mut self, trap: Trap) {
        let no = trap_number(trap.kind);
        let Some(&handler) = self.env.trap_handlers.get(&no) else {
            return;
        };
        // a handler index pointing past the function table (stale
        // registration after SMC shrank the module, hostile input)
        // degrades to "no handler" instead of aborting the engine
        if handler as usize >= self.module.num_functions() {
            return;
        }
        if self
            .module
            .function(FuncId::from_index(handler as usize))
            .is_declaration()
        {
            return;
        }
        // best-effort: run the handler to completion for its effects
        if self.engine.call_entry(handler, &[u64::from(no), 0]).is_err() {
            return;
        }
        for _ in 0..64 {
            match self.engine.run(1_000_000) {
                Exit::Halt(_) => break,
                Exit::NeedFunction(f) => {
                    if self.translate(f).is_err() {
                        break;
                    }
                }
                Exit::Intrinsic { which, args } => {
                    if self.service_intrinsic(which, &args).is_err() {
                        break;
                    }
                }
                _ => break,
            }
        }
    }
}

/// Runs `compile` over `work` on up to `n_workers` scoped threads and
/// returns the results in `work` order. Workers claim items from a
/// shared atomic cursor, so load-balancing adapts to uneven function
/// sizes; determinism comes from reassembling results by index, not
/// from the claim order.
fn compile_batch<T: Send>(
    work: &[u32],
    n_workers: usize,
    compile: impl Fn(FuncId) -> T + Sync,
) -> Vec<T> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let n_workers = n_workers.clamp(1, work.len());
    if n_workers == 1 {
        return work
            .iter()
            .map(|&f| compile(FuncId::from_index(f as usize)))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let (cursor, compile) = (&cursor, &compile);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..n_workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&f) = work.get(i) else { break };
                        done.push((i, compile(FuncId::from_index(f as usize))));
                    }
                    done
                })
            })
            .collect();
        let mut merged: Vec<Option<T>> = std::iter::repeat_with(|| None).take(work.len()).collect();
        for worker in workers {
            for (i, result) in worker.join().expect("translator worker panicked") {
                merged[i] = Some(result);
            }
        }
        merged
            .into_iter()
            .map(|r| r.expect("every work item compiled"))
            .collect()
    })
}

/// The address space `module`'s load image occupies on `isa`, null
/// page included — what a loader holds against its memory limit
/// *before* building an executor, whose constructors treat an image
/// that does not fit as a bug.
pub fn load_image_end(module: &Module, isa: TargetIsa) -> u64 {
    llva_backend::common::place_globals(module, &isa.target_config()).1
}

/// A stable fingerprint of a module's virtual object code, used as a
/// coarse cache timestamp ("check a timestamp on an LLVA program",
/// §4.1). LLEE's own cache uses the finer-grained [`function_stamps`].
pub fn stamp(module: &Module) -> u64 {
    hash(&llva_core::bytecode::encode_module(module), HASH_SEED)
}

/// Per-function content hashes, indexed by function id: each is the
/// hash of the function's own encoded signature + body chained onto a
/// hash of the module environment the translation observes (target,
/// types, globals, all signatures — see
/// [`llva_core::bytecode::encode_module_env`]). Editing one function's
/// body changes exactly one stamp; editing shared structure changes
/// them all.
pub fn function_stamps(module: &Module) -> Vec<u64> {
    let env_hash = hash(&llva_core::bytecode::encode_module_env(module), HASH_SEED);
    module
        .functions()
        .map(|(fid, _)| hash(&llva_core::bytecode::encode_function(module, fid), env_hash))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use llva_machine::common::TrapKind;

    const FIB: &str = r#"
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
    %r = call int %fib(int 15)
    ret int %r
}
"#;

    fn module(src: &str) -> Module {
        llva_core::parser::parse_module(src).expect("parses")
    }

    #[test]
    fn jit_on_demand_both_targets() {
        for isa in TargetIsa::ALL {
            let mut mgr = ExecutionManager::new(module(FIB), isa);
            let out = mgr.run("main", &[]).expect("runs");
            assert_eq!(out.value, 610, "{isa}");
            // both functions translated lazily
            assert_eq!(mgr.stats().functions_translated, 2);
        }
    }

    #[test]
    fn lazy_translation_skips_unused_functions() {
        let src = r#"
int %unused(int %x) {
entry:
    ret int %x
}

int %main() {
entry:
    ret int 5
}
"#;
        let mut mgr = ExecutionManager::new(module(src), TargetIsa::X86);
        mgr.run("main", &[]).expect("runs");
        // "the JIT translates functions on demand, so that unused code
        // is not translated" (§5.2)
        assert_eq!(mgr.stats().functions_translated, 1);
    }

    #[test]
    fn offline_cache_round_trip() {
        let storage = crate::storage::SyncStorage::new(MemStorage::new());
        // first run: translate + populate the cache
        {
            let mut mgr = ExecutionManager::new(module(FIB), TargetIsa::X86);
            mgr.set_storage(Box::new(storage.clone()), "fib");
            let out = mgr.run("main", &[]).expect("runs");
            assert_eq!(out.value, 610);
            assert_eq!(mgr.stats().functions_translated, 2);
            assert_eq!(mgr.stats().cache_hits, 0);
        }
        // second run: everything loads from the cache
        {
            let mut mgr = ExecutionManager::new(module(FIB), TargetIsa::X86);
            mgr.set_storage(Box::new(storage), "fib");
            let out = mgr.run("main", &[]).expect("runs");
            assert_eq!(out.value, 610);
            assert_eq!(mgr.stats().functions_translated, 0, "all from cache");
            assert_eq!(mgr.stats().cache_hits, 2);
        }
    }

    #[test]
    fn stale_cache_entries_rejected() {
        let storage = crate::storage::SyncStorage::new(MemStorage::new());
        {
            let mut mgr = ExecutionManager::new(module(FIB), TargetIsa::X86);
            mgr.set_storage(Box::new(storage.clone()), "fib");
            mgr.run("main", &[]).expect("runs");
        }
        // a program with a *different* fib must not reuse fib's cached
        // code — but main's body is unchanged, so with per-function
        // content hashes main still loads from the cache
        let other = r#"
int %fib(int %n) {
entry:
    ret int 0
}

int %main() {
entry:
    %r = call int %fib(int 15)
    ret int %r
}
"#;
        let mut mgr = ExecutionManager::new(module(other), TargetIsa::X86);
        mgr.set_storage(Box::new(storage), "fib");
        let out = mgr.run("main", &[]).expect("runs");
        assert_eq!(out.value, 0, "new semantics, not cached ones");
        assert_eq!(mgr.stats().functions_translated, 1, "only fib retranslates");
        assert_eq!(mgr.stats().cache_hits, 1, "main is content-identical");
        assert_eq!(mgr.stats().cache_stale, 1, "fib's entry failed validation");
    }

    #[test]
    fn offline_translation_avoids_online_jit() {
        let mut mgr = ExecutionManager::new(module(FIB), TargetIsa::Sparc);
        mgr.translate_all().expect("translates");
        let before = mgr.stats().functions_translated;
        mgr.run("main", &[]).expect("runs");
        assert_eq!(mgr.stats().functions_translated, before, "no online JIT");
    }

    #[test]
    fn parallel_offline_translation_avoids_online_jit() {
        for isa in TargetIsa::ALL {
            let mut mgr = ExecutionManager::new(module(FIB), isa);
            mgr.translate_all_parallel(4).expect("translates");
            assert_eq!(mgr.stats().functions_translated, 2, "{isa}");
            let out = mgr.run("main", &[]).expect("runs");
            assert_eq!(out.value, 610, "{isa}");
            assert_eq!(mgr.stats().functions_translated, 2, "{isa}: no online JIT");
        }
    }

    #[test]
    fn cache_read_and_write_keys_agree() {
        let storage = crate::storage::SyncStorage::new(MemStorage::new());
        let mut mgr = ExecutionManager::new(module(FIB), TargetIsa::X86);
        mgr.set_storage(Box::new(storage.clone()), "fib");
        let fib = mgr.module().function_by_name("fib").expect("fib").index() as u32;
        mgr.translate(fib).expect("translates");
        // the write-back landed under exactly the key translate reads
        let key = mgr.cache_key(fib);
        assert!(
            storage.read("fib", &key).is_some(),
            "write-back key {key:?} must be readable via cache_key"
        );
        // and a fresh manager's lookup under that key hits
        let mut mgr2 = ExecutionManager::new(module(FIB), TargetIsa::X86);
        mgr2.set_storage(Box::new(storage), "fib");
        assert!(mgr2.translate(fib).expect("translates"), "cache hit");
    }

    /// Generates a module with `n` small distinct functions plus a
    /// `main` that calls the first of them.
    fn many_functions(n: usize) -> String {
        let mut src = String::new();
        for i in 0..n {
            src.push_str(&format!(
                r#"
int %f{i}(int %x) {{
entry:
    %a = add int %x, {i}
    %b = mul int %a, 3
    %c = setlt int %b, 100
    br bool %c, label %lo, label %hi
lo:
    ret int %b
hi:
    %d = sub int %b, 100
    ret int %d
}}
"#
            ));
        }
        src.push_str(
            r#"
int %main() {
entry:
    %r = call int %f0(int 7)
    ret int %r
}
"#,
        );
        src
    }

    #[test]
    fn incremental_invalidation_misses_exactly_one_function() {
        const N: usize = 9; // 8 f* functions + main
        let src = many_functions(N - 1);
        for isa in TargetIsa::ALL {
            let storage = crate::storage::SyncStorage::new(MemStorage::new());
            // populate the cache
            {
                let mut mgr = ExecutionManager::new(module(&src), isa);
                mgr.set_storage(Box::new(storage.clone()), "incr");
                mgr.translate_all().expect("translates");
                assert_eq!(mgr.stats().functions_translated, N, "{isa}");
            }
            // SMC-edit one function, then re-translate everything
            let mut mgr = ExecutionManager::new(module(&src), isa);
            mgr.set_storage(Box::new(storage), "incr");
            mgr.modify_function("f3", |m, fid| {
                m.discard_function_body(fid);
                let int = m.types_mut().int();
                let mut b = llva_core::builder::FunctionBuilder::new(m, fid);
                let e = b.block("entry");
                b.switch_to(e);
                let v = b.iconst(int, 41);
                b.ret(Some(v));
            });
            mgr.translate_all().expect("translates");
            let stats = mgr.stats();
            assert_eq!(stats.cache_hits, N - 1, "{isa}: all but f3 hit");
            assert_eq!(stats.cache_misses, 1, "{isa}: only f3 misses");
            assert_eq!(stats.cache_stale, 1, "{isa}: f3's entry is stale");
            assert_eq!(
                stats.functions_translated, 1,
                "{isa}: exactly one function re-translates"
            );
            // per-function counters agree
            let f3 = mgr.module().function_by_name("f3").expect("f3").index();
            for (i, fc) in mgr.func_cache_stats().iter().enumerate() {
                if i == f3 {
                    assert_eq!((fc.hits, fc.misses, fc.stale), (0, 1, 1), "{isa} fn{i}");
                } else {
                    assert_eq!((fc.hits, fc.misses, fc.stale), (1, 0, 0), "{isa} fn{i}");
                }
            }
        }
    }

    #[test]
    fn parallel_translation_is_deterministic_across_worker_counts() {
        let src = many_functions(12);
        for isa in TargetIsa::ALL {
            // serial reference: cache contents + installed sizes
            let serial_storage = crate::storage::SyncStorage::new(MemStorage::new());
            let mut serial = ExecutionManager::new(module(&src), isa);
            serial.set_storage(Box::new(serial_storage.clone()), "det");
            serial.translate_all().expect("translates");
            let reference: Vec<(String, Vec<u8>)> = (0..serial.module().num_functions() as u32)
                .map(|f| {
                    let key = serial.cache_key(f);
                    let blob = serial_storage.read("det", &key).expect("cached").0;
                    (key, blob)
                })
                .collect();
            for workers in [1, 2, 8] {
                let storage = crate::storage::SyncStorage::new(MemStorage::new());
                let mut mgr = ExecutionManager::new(module(&src), isa);
                mgr.set_storage(Box::new(storage.clone()), "det");
                mgr.translate_all_parallel(workers).expect("translates");
                assert_eq!(
                    mgr.installed_bytes(),
                    serial.installed_bytes(),
                    "{isa}/{workers} workers: installed_bytes"
                );
                assert_eq!(
                    mgr.installed_insts(),
                    serial.installed_insts(),
                    "{isa}/{workers} workers: installed_insts"
                );
                for (key, blob) in &reference {
                    let got = storage.read("det", key).expect("cached").0;
                    assert_eq!(
                        &got, blob,
                        "{isa}/{workers} workers: byte-identical code for {key}"
                    );
                }
            }
        }
    }

    #[test]
    fn panic_mid_parallel_write_back_leaves_only_landed_entries() {
        use crate::storage::{FaultPlan, FaultyStorage, SyncStorage};
        let src = many_functions(4);
        let storage = SyncStorage::new(FaultyStorage::new(MemStorage::new(), FaultPlan::none(7)));
        storage.with(|s| s.arm_write_panic(2)); // the 2nd write-back panics
        let mut mgr = ExecutionManager::new(module(&src), TargetIsa::X86);
        mgr.set_storage(Box::new(storage.clone()), "app");
        let keys: Vec<String> = mgr
            .defined_functions()
            .into_iter()
            .map(|f| mgr.cache_key(f))
            .collect();
        assert_eq!(keys.len(), 5);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mgr.translate_all_parallel(2)
        }));
        assert!(result.is_err(), "the write-back must have panicked");
        drop(mgr);
        // the write before the panic landed; the later ones were never made
        assert!(
            storage.read("app", &keys[0]).is_some(),
            "first entry stored"
        );
        for key in &keys[1..] {
            assert_eq!(storage.read("app", key), None, "{key} must be absent");
        }
        // the poisoned lock recovers: the storage stays usable
        let mut handle = storage.clone();
        handle.write("app", "probe", b"ok", 1);
        assert_eq!(storage.read("app", "probe"), Some((b"ok".to_vec(), 1)));
        // a fresh manager over the same storage stores every function
        let mut mgr = ExecutionManager::new(module(&src), TargetIsa::X86);
        mgr.set_storage(Box::new(storage.clone()), "app");
        mgr.translate_all_parallel(2).expect("translates");
        assert_eq!(mgr.stats().cache_hits, 1, "the landed entry is a hit");
        assert_eq!(mgr.stats().functions_translated, 4);
        for key in &keys {
            assert!(storage.read("app", key).is_some(), "{key} stored");
        }
        assert_eq!(mgr.run("main", &[]).expect("runs").value, 21);
    }

    #[test]
    fn parallel_warm_cache_skips_compilation() {
        let src = many_functions(10);
        let storage = crate::storage::SyncStorage::new(MemStorage::new());
        {
            let mut mgr = ExecutionManager::new(module(&src), TargetIsa::X86);
            mgr.set_storage(Box::new(storage.clone()), "warm");
            mgr.translate_all_parallel(4).expect("translates");
            assert_eq!(mgr.stats().functions_translated, 11);
        }
        let mut mgr = ExecutionManager::new(module(&src), TargetIsa::X86);
        mgr.set_storage(Box::new(storage), "warm");
        mgr.translate_all_parallel(4).expect("translates");
        assert_eq!(mgr.stats().functions_translated, 0, "all from cache");
        assert_eq!(mgr.stats().cache_hits, 11);
        let out = mgr.run("main", &[]).expect("runs");
        assert_eq!(out.value, 21);
    }

    #[test]
    fn intrinsics_via_native_code() {
        let src = r#"
declare int %llva.io.putchar(int)

int %main() {
entry:
    %a = call int %llva.io.putchar(int 111)
    %b = call int %llva.io.putchar(int 107)
    ret int 0
}
"#;
        for isa in TargetIsa::ALL {
            let mut mgr = ExecutionManager::new(module(src), isa);
            mgr.run("main", &[]).expect("runs");
            assert_eq!(mgr.env.stdout_string(), "ok", "{isa}");
        }
    }

    #[test]
    fn heap_alloc_intrinsic_end_to_end() {
        let src = r#"
declare sbyte* %llva.heap.alloc(ulong)

int %main() {
entry:
    %p = call sbyte* %llva.heap.alloc(ulong 16)
    %ip = cast sbyte* %p to int*
    store int 42, int* %ip
    %v = load int* %ip
    ret int %v
}
"#;
        for isa in TargetIsa::ALL {
            let mut mgr = ExecutionManager::new(module(src), isa);
            let out = mgr.run("main", &[]).expect("runs");
            assert_eq!(out.value, 42, "{isa}");
        }
    }

    #[test]
    fn smc_invalidation_retranslates_next_call() {
        let mut mgr = ExecutionManager::new(module(FIB), TargetIsa::X86);
        mgr.run("main", &[]).expect("runs");
        let before = mgr.stats().functions_translated;
        // SMC: change fib to return 0 for every input
        mgr.modify_function("fib", |m, fid| {
            m.discard_function_body(fid);
            let int = m.types_mut().int();
            let mut b = llva_core::builder::FunctionBuilder::new(m, fid);
            let e = b.block("entry");
            b.switch_to(e);
            let zero = b.iconst(int, 0);
            b.ret(Some(zero));
        });
        let out = mgr.run("main", &[]).expect("runs");
        assert_eq!(out.value, 0, "future invocations see the new code");
        assert!(mgr.stats().functions_translated > before);
        assert_eq!(mgr.stats().invalidations, 1);
    }

    #[test]
    fn trap_reported_after_handler() {
        let src = r#"
int %main(int %x) {
entry:
    %q = div int 10, %x
    ret int %q
}
"#;
        let mut mgr = ExecutionManager::new(module(src), TargetIsa::X86);
        match mgr.run("main", &[0]) {
            Err(EngineError::Trapped(t)) => assert_eq!(t.kind, TrapKind::DivideByZero),
            other => panic!("expected trap, got {other:?}"),
        }
    }
}
