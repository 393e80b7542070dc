//! The OS-independent storage API (paper §4.1).
//!
//! > "The V-ABI defines a standard, OS-independent storage API with a
//! > set of routines that enables LLEE to read, write, and validate
//! > data in offline storage. … the basic storage API includes
//! > routines to create, delete, and query the size of an offline
//! > cache, read or write a vector of N bytes tagged by a unique
//! > string name from/to a cache, and check a timestamp on an LLVA
//! > program or on a cached vector."
//!
//! An OS implements [`Storage`] to enable offline translation and
//! caching; it is "strictly optional and the system will operate
//! correctly in their absence". Two backends are provided: an in-memory
//! one ([`MemStorage`]: tests and OS-less operation, like
//! DAISY/Crusoe's memory-only translation cache) and a directory-backed
//! one ([`DirStorage`]: the user-level POSIX LLEE of §4.1). Wrappers
//! share one backend between handles ([`SyncStorage`]), spread it over
//! shards ([`ShardedStorage`]) and inject faults into it
//! ([`FaultyStorage`]).

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Suffix appended to a quarantined entry's name (see
/// [`Storage::quarantine`]).
pub const QUARANTINE_SUFFIX: &str = ".quar";

/// The storage API of §4.1. All methods are infallible-or-`Option`
/// because a failed cache interaction must never break execution.
pub trait Storage {
    /// Creates (or opens) a named cache.
    fn create_cache(&mut self, cache: &str);

    /// Deletes a cache and everything in it.
    fn delete_cache(&mut self, cache: &str);

    /// Total bytes stored in a cache, or `None` if it does not exist.
    fn cache_size(&self, cache: &str) -> Option<u64>;

    /// Writes a named vector of bytes with a timestamp tag.
    fn write(&mut self, cache: &str, name: &str, bytes: &[u8], timestamp: u64);

    /// Reads a named vector and its timestamp.
    fn read(&self, cache: &str, name: &str) -> Option<(Vec<u8>, u64)>;

    /// Checks the timestamp of a named vector without reading it.
    fn timestamp(&self, cache: &str, name: &str) -> Option<u64>;

    /// Removes a single named vector (no-op if absent). Part of the
    /// fault-tolerance protocol: LLEE removes entries that fail frame
    /// validation so a bad blob is never served twice.
    fn remove(&mut self, cache: &str, name: &str);

    /// Moves a corrupt entry aside under [`QUARANTINE_SUFFIX`] (keeping
    /// the bytes for post-mortem inspection) and removes the original,
    /// so the next lookup misses cleanly and retranslation rewrites it.
    fn quarantine(&mut self, cache: &str, name: &str) {
        if let Some((bytes, ts)) = self.read(cache, name) {
            self.write(cache, &format!("{name}{QUARANTINE_SUFFIX}"), &bytes, ts);
        }
        self.remove(cache, name);
    }

    /// The on-disk path of a named vector and the offset at which its
    /// bytes start in that file, when this storage keeps entries as
    /// individual files ([`DirStorage`]). `None` for in-memory backends,
    /// for absent entries, and for wrappers that intercept reads (fault
    /// injection must not be bypassed by a caller mapping the file
    /// directly). Callers use this as a zero-copy fast path (`mmap`)
    /// and must fall back to [`Storage::read`] when it returns `None`.
    fn file_path(&self, cache: &str, name: &str) -> Option<(PathBuf, usize)> {
        let _ = (cache, name);
        None
    }
}

/// A purely in-memory storage (no OS support — entries die with the
/// process, exactly like DAISY and Crusoe's in-memory caches).
#[derive(Debug, Default, Clone)]
pub struct MemStorage {
    caches: HashMap<String, HashMap<String, (Vec<u8>, u64)>>,
}

impl MemStorage {
    /// Creates an empty storage.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }
}

impl Storage for MemStorage {
    fn create_cache(&mut self, cache: &str) {
        self.caches.entry(cache.to_string()).or_default();
    }

    fn delete_cache(&mut self, cache: &str) {
        self.caches.remove(cache);
    }

    fn cache_size(&self, cache: &str) -> Option<u64> {
        Some(
            self.caches
                .get(cache)?
                .values()
                .map(|(b, _)| b.len() as u64)
                .sum(),
        )
    }

    fn write(&mut self, cache: &str, name: &str, bytes: &[u8], timestamp: u64) {
        self.caches
            .entry(cache.to_string())
            .or_default()
            .insert(name.to_string(), (bytes.to_vec(), timestamp));
    }

    fn read(&self, cache: &str, name: &str) -> Option<(Vec<u8>, u64)> {
        self.caches.get(cache)?.get(name).cloned()
    }

    fn timestamp(&self, cache: &str, name: &str) -> Option<u64> {
        self.caches.get(cache)?.get(name).map(|(_, t)| *t)
    }

    fn remove(&mut self, cache: &str, name: &str) {
        if let Some(entries) = self.caches.get_mut(cache) {
            entries.remove(name);
        }
    }
}

/// Directory-backed storage: each vector is a file whose first 8 bytes
/// are the little-endian timestamp (the user-level LLEE of §4.1 that
/// "reads and writes disk files directly").
#[derive(Debug, Clone)]
pub struct DirStorage {
    root: PathBuf,
}

/// Bytes of timestamp before the vector in each [`DirStorage`] file.
const TIMESTAMP_LEN: usize = 8;

/// Marker embedded in the names of in-flight temp files; a crash
/// between write and rename leaves one behind, and the startup sweep
/// garbage-collects anything bearing it.
const TMP_MARKER: &str = ".__tmp";

impl DirStorage {
    /// Creates storage rooted at `root` (created on demand) and sweeps
    /// temp files orphaned by earlier crashed writers — both cache-entry
    /// temps inside cache subdirectories and partially-written module
    /// images ([`crate::image::IMAGE_TMP_MARKER`]), which may sit at the
    /// root level next to the cache directories.
    pub fn new(root: impl Into<PathBuf>) -> DirStorage {
        let storage = DirStorage { root: root.into() };
        sweep_orphaned_tmp(&storage.root);
        if let Ok(dir) = std::fs::read_dir(&storage.root) {
            for entry in dir.flatten() {
                sweep_orphaned_tmp(&entry.path());
            }
        }
        storage
    }

    fn cache_dir(&self, cache: &str) -> PathBuf {
        self.root.join(sanitize(cache))
    }

    fn entry_path(&self, cache: &str, name: &str) -> PathBuf {
        self.cache_dir(cache).join(sanitize(name))
    }
}

/// Deletes files under `dir` whose names carry [`TMP_MARKER`] or the
/// image writer's [`crate::image::IMAGE_TMP_MARKER`] — both are
/// in-flight tmp+rename writes a killed process never renamed.
fn sweep_orphaned_tmp(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.contains(TMP_MARKER) || name.contains(crate::image::IMAGE_TMP_MARKER) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

impl fmt::Display for DirStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DirStorage({})", self.root.display())
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl Storage for DirStorage {
    fn create_cache(&mut self, cache: &str) {
        let dir = self.cache_dir(cache);
        let _ = std::fs::create_dir_all(&dir);
        sweep_orphaned_tmp(&dir);
    }

    fn delete_cache(&mut self, cache: &str) {
        let _ = std::fs::remove_dir_all(self.cache_dir(cache));
    }

    fn cache_size(&self, cache: &str) -> Option<u64> {
        let dir = std::fs::read_dir(self.cache_dir(cache)).ok()?;
        Some(
            dir.flatten()
                .filter(|e| !e.file_name().to_string_lossy().contains(TMP_MARKER))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum(),
        )
    }

    fn write(&mut self, cache: &str, name: &str, bytes: &[u8], timestamp: u64) {
        let dir = self.cache_dir(cache);
        let _ = std::fs::create_dir_all(&dir);
        let mut blob = timestamp.to_le_bytes().to_vec();
        blob.extend_from_slice(bytes);
        // write-to-temp + rename: readers never observe a torn entry,
        // and a crash mid-write leaves only a swept-on-startup temp file
        let tmp = dir.join(format!(
            "{}{TMP_MARKER}{}",
            sanitize(name),
            std::process::id()
        ));
        if std::fs::write(&tmp, blob).is_ok()
            && std::fs::rename(&tmp, self.entry_path(cache, name)).is_err()
        {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    fn read(&self, cache: &str, name: &str) -> Option<(Vec<u8>, u64)> {
        let mut blob = std::fs::read(self.entry_path(cache, name)).ok()?;
        let ts = u64::from_le_bytes(blob.get(..TIMESTAMP_LEN)?.try_into().ok()?);
        blob.drain(..TIMESTAMP_LEN);
        Some((blob, ts))
    }

    // reads the prefix alone: the mmap fast path checks the timestamp
    // of a vector it must not copy
    fn timestamp(&self, cache: &str, name: &str) -> Option<u64> {
        use std::io::Read;
        let mut prefix = [0; TIMESTAMP_LEN];
        std::fs::File::open(self.entry_path(cache, name)).ok()?.read_exact(&mut prefix).ok()?;
        Some(u64::from_le_bytes(prefix))
    }

    fn remove(&mut self, cache: &str, name: &str) {
        let _ = std::fs::remove_file(self.entry_path(cache, name));
    }

    fn file_path(&self, cache: &str, name: &str) -> Option<(PathBuf, usize)> {
        let path = self.entry_path(cache, name);
        path.is_file().then_some((path, TIMESTAMP_LEN))
    }
}

/// A `Send + Sync` cloneable handle sharing one underlying storage:
/// one cache shared by execution managers on different threads, or a
/// test or benchmark inspecting (and driving the fault hooks of) the
/// storage a manager owns a boxed handle to. All operations take the
/// mutex for their duration; the
/// storage contract says failures must never break execution, so a
/// poisoned lock is recovered rather than propagated.
#[derive(Debug, Default)]
pub struct SyncStorage<S>(std::sync::Arc<std::sync::Mutex<S>>);

// manual impl: cloning the handle must not require S: Clone
impl<S> Clone for SyncStorage<S> {
    fn clone(&self) -> SyncStorage<S> {
        SyncStorage(std::sync::Arc::clone(&self.0))
    }
}

impl<S: Storage> SyncStorage<S> {
    /// Wraps `storage` in a thread-shared handle.
    pub fn new(storage: S) -> SyncStorage<S> {
        SyncStorage(std::sync::Arc::new(std::sync::Mutex::new(storage)))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, S> {
        match self.0.lock() {
            Ok(guard) => guard,
            Err(poison) => {
                // a holder panicked mid-operation: the writes before the
                // panic landed, the rest were never made
                self.0.clear_poison();
                poison.into_inner()
            }
        }
    }

    /// Runs `f` with direct access to the wrapped storage, recovering
    /// the lock if a previous holder panicked.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.lock())
    }
}

impl<S: Storage> Storage for SyncStorage<S> {
    fn create_cache(&mut self, cache: &str) {
        self.lock().create_cache(cache);
    }
    fn delete_cache(&mut self, cache: &str) {
        self.lock().delete_cache(cache);
    }
    fn cache_size(&self, cache: &str) -> Option<u64> {
        self.lock().cache_size(cache)
    }
    fn write(&mut self, cache: &str, name: &str, bytes: &[u8], timestamp: u64) {
        self.lock().write(cache, name, bytes, timestamp);
    }
    fn read(&self, cache: &str, name: &str) -> Option<(Vec<u8>, u64)> {
        self.lock().read(cache, name)
    }
    fn timestamp(&self, cache: &str, name: &str) -> Option<u64> {
        self.lock().timestamp(cache, name)
    }
    fn remove(&mut self, cache: &str, name: &str) {
        self.lock().remove(cache, name);
    }
    fn quarantine(&mut self, cache: &str, name: &str) {
        self.lock().quarantine(cache, name);
    }
    fn file_path(&self, cache: &str, name: &str) -> Option<(PathBuf, usize)> {
        self.lock().file_path(cache, name)
    }
}

/// Trait-object passthrough so storage stacks can be composed behind a
/// `Box<dyn Storage + Send>` (the serving layer shards over boxed
/// storages whose concrete type is chosen at runtime).
impl<T: Storage + ?Sized> Storage for Box<T> {
    fn create_cache(&mut self, cache: &str) {
        (**self).create_cache(cache);
    }
    fn delete_cache(&mut self, cache: &str) {
        (**self).delete_cache(cache);
    }
    fn cache_size(&self, cache: &str) -> Option<u64> {
        (**self).cache_size(cache)
    }
    fn write(&mut self, cache: &str, name: &str, bytes: &[u8], timestamp: u64) {
        (**self).write(cache, name, bytes, timestamp);
    }
    fn read(&self, cache: &str, name: &str) -> Option<(Vec<u8>, u64)> {
        (**self).read(cache, name)
    }
    fn timestamp(&self, cache: &str, name: &str) -> Option<u64> {
        (**self).timestamp(cache, name)
    }
    fn remove(&mut self, cache: &str, name: &str) {
        (**self).remove(cache, name);
    }
    fn quarantine(&mut self, cache: &str, name: &str) {
        (**self).quarantine(cache, name);
    }
    fn file_path(&self, cache: &str, name: &str) -> Option<(PathBuf, usize)> {
        (**self).file_path(cache, name)
    }
}

/// The one [`hash`](llva_machine::codec::hash) of an entry name — the
/// shard-routing hash of [`ShardedStorage`]. Deterministic and stable
/// across processes, so a fleet of services sharing one directory tree
/// routes identically.
#[must_use]
pub fn shard_hash(name: &str) -> u64 {
    llva_machine::codec::hash(name.as_bytes(), llva_machine::codec::HASH_SEED)
}

/// A sharded, thread-safe storage: N independent [`SyncStorage`] shards
/// with entries routed by [`shard_hash`] of the entry name. Contention
/// on the translation cache then scales with the shard count instead of
/// serializing every tenant behind one mutex, and a poisoned shard
/// (a panicking writer) degrades only the functions hashed to it —
/// every shard recovers independently via [`SyncStorage`]'s
/// poison-recovery path.
///
/// Cloning yields another handle to the same shards (cheap, `Arc`).
#[derive(Debug)]
pub struct ShardedStorage<S> {
    shards: std::sync::Arc<[SyncStorage<S>]>,
}

// manual impl: cloning the handle must not require S: Clone
impl<S> Clone for ShardedStorage<S> {
    fn clone(&self) -> ShardedStorage<S> {
        ShardedStorage { shards: std::sync::Arc::clone(&self.shards) }
    }
}

impl<S: Storage> ShardedStorage<S> {
    /// `shards` storages (at least 1), one per shard, built by `mk`
    /// (called with the shard index — e.g. to give each shard its own
    /// directory or fault seed).
    pub fn new(shards: usize, mut mk: impl FnMut(usize) -> S) -> ShardedStorage<S> {
        let n = shards.max(1);
        ShardedStorage {
            shards: (0..n).map(|i| SyncStorage::new(mk(i))).collect(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index entry `name` routes to.
    #[must_use]
    pub fn shard_index(&self, name: &str) -> usize {
        (shard_hash(name) % self.shards.len() as u64) as usize
    }

    /// Direct access to one shard (tests and fault-injection drivers).
    #[must_use]
    pub fn shard(&self, i: usize) -> &SyncStorage<S> {
        &self.shards[i]
    }

    fn route(&self, name: &str) -> &SyncStorage<S> {
        &self.shards[self.shard_index(name)]
    }
}

impl<S: Storage> Storage for ShardedStorage<S> {
    fn create_cache(&mut self, cache: &str) {
        for shard in self.shards.iter() {
            shard.lock().create_cache(cache);
        }
    }
    fn delete_cache(&mut self, cache: &str) {
        for shard in self.shards.iter() {
            shard.lock().delete_cache(cache);
        }
    }
    fn cache_size(&self, cache: &str) -> Option<u64> {
        // Some if any shard knows the cache (they are created on all
        // shards together; a fresh shard may legitimately hold nothing)
        let sizes: Vec<u64> = self
            .shards
            .iter()
            .filter_map(|s| s.cache_size(cache))
            .collect();
        if sizes.is_empty() {
            None
        } else {
            Some(sizes.iter().sum())
        }
    }
    fn write(&mut self, cache: &str, name: &str, bytes: &[u8], timestamp: u64) {
        self.route(name).lock().write(cache, name, bytes, timestamp);
    }
    fn read(&self, cache: &str, name: &str) -> Option<(Vec<u8>, u64)> {
        self.route(name).read(cache, name)
    }
    fn timestamp(&self, cache: &str, name: &str) -> Option<u64> {
        self.route(name).timestamp(cache, name)
    }
    fn remove(&mut self, cache: &str, name: &str) {
        self.route(name).lock().remove(cache, name);
    }
    fn file_path(&self, cache: &str, name: &str) -> Option<(PathBuf, usize)> {
        self.route(name).file_path(cache, name)
    }
    // `quarantine` deliberately keeps the default trait implementation:
    // the preserved `.quar` copy routes by its own name, so lookups of
    // either name stay consistent with the routing function.
}

/// How often [`FaultyStorage`] injects each fault class. Every knob is
/// "about 1 in N operations" (`0` = never). Faults are drawn from a
/// seeded xorshift PRNG, so the same seed over the same operation
/// sequence reproduces the same faults exactly — fault-injection runs
/// are deterministic and debuggable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// PRNG seed.
    pub seed: u64,
    /// Reads that fail outright (entry appears missing).
    pub read_fail: u32,
    /// Reads whose returned bytes are truncated at a random point.
    pub read_truncate: u32,
    /// Reads with one random bit flipped (bit rot).
    pub read_bit_flip: u32,
    /// Writes that persist only a prefix of the bytes (torn write).
    pub torn_write: u32,
    /// Reads that report a perturbed timestamp.
    pub stale_timestamp: u32,
}

impl FaultPlan {
    /// No faults — a pass-through wrapper (useful for warming a cache
    /// before switching to a hostile plan).
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            read_fail: 0,
            read_truncate: 0,
            read_bit_flip: 0,
            torn_write: 0,
            stale_timestamp: 0,
        }
    }

    /// Flips a bit in every read — the acceptance scenario for the
    /// degradation ladder: with corruption on every read, execution
    /// must match a manager with no storage at all.
    pub fn corrupt_every_read(seed: u64) -> FaultPlan {
        FaultPlan {
            read_bit_flip: 1,
            ..FaultPlan::none(seed)
        }
    }

    /// Everything at once, each fault class roughly 1-in-4.
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            read_fail: 5,
            read_truncate: 4,
            read_bit_flip: 3,
            torn_write: 4,
            stale_timestamp: 5,
        }
    }
}

/// Counts of faults actually injected by a [`FaultyStorage`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultLog {
    /// Reads turned into misses.
    pub failed_reads: u64,
    /// Reads returned truncated.
    pub truncated_reads: u64,
    /// Reads returned with a flipped bit.
    pub flipped_reads: u64,
    /// Writes that persisted only a prefix.
    pub torn_writes: u64,
    /// Timestamps perturbed on read.
    pub stale_timestamps: u64,
}

impl FaultLog {
    /// Total faults injected across all classes.
    pub fn total(&self) -> u64 {
        self.failed_reads
            + self.truncated_reads
            + self.flipped_reads
            + self.torn_writes
            + self.stale_timestamps
    }
}

/// A deterministic fault-injection wrapper around any [`Storage`]: the
/// test double for hostile or failing OS storage (torn writes, bit rot,
/// lost entries, stale metadata). LLEE must ride out anything this
/// wrapper does — §4.1's "operate correctly in their absence" extended
/// to *presence with faults*.
#[derive(Debug)]
pub struct FaultyStorage<S> {
    inner: S,
    plan: FaultPlan,
    rng: Cell<u64>,
    log: Cell<FaultLog>,
    /// Countdown to an injected panic mid-`write` (0 = disarmed); see
    /// [`FaultyStorage::arm_write_panic`].
    write_panic_in: Cell<u32>,
    /// Next N reads fail outright (transient outage, deterministic).
    read_fail_next: Cell<u32>,
    /// Next N reads get one bit flipped (transient corruption).
    read_corrupt_next: Cell<u32>,
}

impl<S: Storage> FaultyStorage<S> {
    /// Wraps `inner`, injecting faults per `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> FaultyStorage<S> {
        FaultyStorage {
            inner,
            plan,
            rng: Cell::new(plan.seed.max(1)),
            log: Cell::new(FaultLog::default()),
            write_panic_in: Cell::new(0),
            read_fail_next: Cell::new(0),
            read_corrupt_next: Cell::new(0),
        }
    }

    /// Arms a panic on the `n`-th subsequent `write` (1 = the very next
    /// one), before the inner write — the test hook for a crash part-way
    /// through a run of write-backs. Disarmed once fired.
    pub fn arm_write_panic(&mut self, n: u32) {
        self.write_panic_in.set(n);
    }

    /// Makes the next `n` reads fail outright (return `None`), then
    /// behave normally — a deterministic transient outage, as opposed
    /// to the probabilistic `read_fail` plan knob.
    pub fn arm_read_fail(&mut self, n: u32) {
        self.read_fail_next.set(n);
    }

    /// Flips one bit in each of the next `n` reads, then behaves
    /// normally — deterministic transient bit rot (the blob in storage
    /// stays pristine; only the returned copy is damaged).
    pub fn arm_read_corrupt(&mut self, n: u32) {
        self.read_corrupt_next.set(n);
    }

    /// The active fault plan.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Swaps the fault plan (and reseeds the PRNG from it) — e.g. warm
    /// the cache fault-free, then turn corruption on.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
        self.rng.set(plan.seed.max(1));
    }

    /// Faults injected so far.
    pub fn log(&self) -> FaultLog {
        self.log.get()
    }

    /// The wrapped storage.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the inner storage.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Deterministically flips one bit of a stored entry *in place*
    /// (independent of the probabilistic plan) — the harness hook for
    /// "corrupt exactly this entry" tests. Returns whether the entry
    /// existed and was non-empty.
    pub fn corrupt_entry(&mut self, cache: &str, name: &str) -> bool {
        let Some((mut bytes, ts)) = self.inner.read(cache, name) else {
            return false;
        };
        if bytes.is_empty() {
            return false;
        }
        let i = self.next() as usize % bytes.len();
        bytes[i] ^= 1 << (self.next() % 8);
        self.inner.write(cache, name, &bytes, ts);
        true
    }

    /// xorshift64* (same generator as `tests/proptest_core.rs`); `Cell`
    /// state so the `&self` read path can draw faults.
    fn next(&self) -> u64 {
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn roll(&self, one_in: u32) -> bool {
        one_in != 0 && self.next().is_multiple_of(u64::from(one_in))
    }

    fn bump(&self, f: impl FnOnce(&mut FaultLog)) {
        let mut log = self.log.get();
        f(&mut log);
        self.log.set(log);
    }
}

impl<S: Storage> Storage for FaultyStorage<S> {
    // `file_path` deliberately keeps the default `None`: a caller that
    // mapped the underlying file directly would bypass every read-side
    // fault hook, making chaos runs quietly easier than production.
    fn create_cache(&mut self, cache: &str) {
        self.inner.create_cache(cache);
    }

    fn delete_cache(&mut self, cache: &str) {
        self.inner.delete_cache(cache);
    }

    fn cache_size(&self, cache: &str) -> Option<u64> {
        self.inner.cache_size(cache)
    }

    fn write(&mut self, cache: &str, name: &str, bytes: &[u8], timestamp: u64) {
        let armed = self.write_panic_in.get();
        if armed > 0 {
            self.write_panic_in.set(armed - 1);
            if armed == 1 {
                panic!("injected storage panic during write of '{cache}/{name}'");
            }
        }
        if self.roll(self.plan.torn_write) && !bytes.is_empty() {
            let keep = self.next() as usize % bytes.len();
            self.bump(|l| l.torn_writes += 1);
            self.inner.write(cache, name, &bytes[..keep], timestamp);
        } else {
            self.inner.write(cache, name, bytes, timestamp);
        }
    }

    fn read(&self, cache: &str, name: &str) -> Option<(Vec<u8>, u64)> {
        let (mut bytes, mut ts) = self.inner.read(cache, name)?;
        if self.read_fail_next.get() > 0 {
            self.read_fail_next.set(self.read_fail_next.get() - 1);
            self.bump(|l| l.failed_reads += 1);
            return None;
        }
        if self.read_corrupt_next.get() > 0 && !bytes.is_empty() {
            self.read_corrupt_next.set(self.read_corrupt_next.get() - 1);
            let i = self.next() as usize % bytes.len();
            bytes[i] ^= 1 << (self.next() % 8);
            self.bump(|l| l.flipped_reads += 1);
        }
        if self.roll(self.plan.read_fail) {
            self.bump(|l| l.failed_reads += 1);
            return None;
        }
        if self.roll(self.plan.read_truncate) && !bytes.is_empty() {
            let keep = self.next() as usize % bytes.len();
            bytes.truncate(keep);
            self.bump(|l| l.truncated_reads += 1);
        }
        if self.roll(self.plan.read_bit_flip) && !bytes.is_empty() {
            let i = self.next() as usize % bytes.len();
            bytes[i] ^= 1 << (self.next() % 8);
            self.bump(|l| l.flipped_reads += 1);
        }
        if self.roll(self.plan.stale_timestamp) {
            ts ^= 0x5a5a;
            self.bump(|l| l.stale_timestamps += 1);
        }
        Some((bytes, ts))
    }

    fn timestamp(&self, cache: &str, name: &str) -> Option<u64> {
        let mut ts = self.inner.timestamp(cache, name)?;
        if self.roll(self.plan.stale_timestamp) {
            ts ^= 0x5a5a;
            self.bump(|l| l.stale_timestamps += 1);
        }
        Some(ts)
    }

    fn remove(&mut self, cache: &str, name: &str) {
        self.inner.remove(cache, name);
    }

    fn quarantine(&mut self, cache: &str, name: &str) {
        // quarantine bypasses fault injection: it is LLEE's recovery
        // action and must see the inner storage's true contents
        self.inner.quarantine(cache, name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(storage: &mut dyn Storage) {
        storage.create_cache("app");
        assert_eq!(storage.cache_size("app"), Some(0));
        storage.write("app", "fn0", b"code0", 100);
        storage.write("app", "fn1", b"code11", 101);
        assert_eq!(storage.read("app", "fn0"), Some((b"code0".to_vec(), 100)));
        assert_eq!(storage.timestamp("app", "fn1"), Some(101));
        assert_eq!(storage.cache_size("app").map(|s| s > 0), Some(true));
        storage.write("app", "fn0", b"newer", 200);
        assert_eq!(storage.read("app", "fn0"), Some((b"newer".to_vec(), 200)));
        assert_eq!(storage.read("app", "nope"), None);
        assert_eq!(storage.read("ghost", "fn0"), None);
        // remove deletes exactly one entry; removing again is a no-op
        storage.remove("app", "fn0");
        assert_eq!(storage.read("app", "fn0"), None);
        assert_eq!(storage.timestamp("app", "fn1"), Some(101));
        storage.remove("app", "fn0");
        storage.remove("ghost", "fn0");
        // quarantine moves the entry aside and clears the original name
        storage.quarantine("app", "fn1");
        assert_eq!(storage.read("app", "fn1"), None);
        assert_eq!(
            storage.read("app", &format!("fn1{QUARANTINE_SUFFIX}")),
            Some((b"code11".to_vec(), 101))
        );
        storage.delete_cache("app");
        assert_eq!(storage.read("app", "fn0"), None);
    }

    #[test]
    fn mem_storage_contract() {
        let mut s = MemStorage::new();
        exercise(&mut s);
    }

    #[test]
    fn dir_storage_contract() {
        let dir = std::env::temp_dir().join(format!("llva-storage-test-{}", std::process::id()));
        let mut s = DirStorage::new(&dir);
        exercise(&mut s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_storage_persists_across_instances() {
        let dir = std::env::temp_dir().join(format!("llva-storage-persist-{}", std::process::id()));
        {
            let mut s = DirStorage::new(&dir);
            s.write("app", "fn0", b"persistent", 7);
        }
        {
            let s = DirStorage::new(&dir);
            assert_eq!(s.read("app", "fn0"), Some((b"persistent".to_vec(), 7)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_storage_contract() {
        let mut s = SyncStorage::new(MemStorage::new());
        exercise(&mut s);
    }

    #[test]
    fn sync_storage_is_send_and_shares_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SyncStorage<MemStorage>>();

        let storage = SyncStorage::new(MemStorage::new());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let mut handle = storage.clone();
                scope.spawn(move || {
                    handle.write("app", &format!("fn{t}"), &[t as u8; 4], t);
                });
            }
        });
        for t in 0..4u64 {
            assert_eq!(
                storage.read("app", &format!("fn{t}")),
                Some((vec![t as u8; 4], t))
            );
        }
    }

    #[test]
    fn sanitize_rejects_path_tricks() {
        // path separators are neutralized; the result is one filename
        assert_eq!(sanitize("../../etc/passwd"), ".._.._etc_passwd");
        assert!(!sanitize("../../etc/passwd").contains('/'));
        assert_eq!(sanitize("fn0.x86"), "fn0.x86");
    }

    #[test]
    fn shared_and_faulty_storage_contracts() {
        let mut shared = SyncStorage::new(MemStorage::new());
        exercise(&mut shared);
        let mut faulty = FaultyStorage::new(MemStorage::new(), FaultPlan::none(7));
        exercise(&mut faulty);
        assert_eq!(faulty.log(), FaultLog::default(), "plan none injects nothing");
    }

    /// Panics on `write` while armed — the only way to poison a
    /// `SyncStorage` mutex from the public API.
    #[derive(Default)]
    struct PanickyStorage {
        armed: bool,
        inner: MemStorage,
    }

    impl Storage for PanickyStorage {
        fn create_cache(&mut self, cache: &str) {
            self.inner.create_cache(cache);
        }
        fn delete_cache(&mut self, cache: &str) {
            self.inner.delete_cache(cache);
        }
        fn cache_size(&self, cache: &str) -> Option<u64> {
            self.inner.cache_size(cache)
        }
        fn write(&mut self, cache: &str, name: &str, bytes: &[u8], timestamp: u64) {
            assert!(!self.armed, "injected writer panic");
            self.inner.write(cache, name, bytes, timestamp);
        }
        fn read(&self, cache: &str, name: &str) -> Option<(Vec<u8>, u64)> {
            self.inner.read(cache, name)
        }
        fn timestamp(&self, cache: &str, name: &str) -> Option<u64> {
            self.inner.timestamp(cache, name)
        }
        fn remove(&mut self, cache: &str, name: &str) {
            self.inner.remove(cache, name);
        }
    }

    #[test]
    fn sync_storage_survives_panicking_writer_thread() {
        let storage = SyncStorage::new(PanickyStorage::default());
        let mut warm = storage.clone();
        warm.write("app", "before", b"ok", 1);
        storage.with(|s| s.armed = true);
        // a writer thread panics while holding the mutex → poison
        let writer = storage.clone();
        let result = std::thread::spawn(move || {
            let mut writer = writer;
            writer.write("app", "boom", b"never lands", 2);
        })
        .join();
        assert!(result.is_err(), "writer thread must have panicked");
        // every lock site recovers the poison: the storage stays usable
        storage.with(|s| s.armed = false);
        assert_eq!(storage.read("app", "before"), Some((b"ok".to_vec(), 1)));
        assert_eq!(storage.cache_size("app"), Some(2));
        let mut after = storage.clone();
        after.write("app", "after", b"fine", 3);
        assert_eq!(storage.read("app", "after"), Some((b"fine".to_vec(), 3)));
        after.remove("app", "before");
        assert_eq!(storage.read("app", "before"), None);
    }

    #[test]
    fn dir_storage_write_is_atomic_and_sweeps_orphans() {
        let dir = std::env::temp_dir().join(format!("llva-storage-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut s = DirStorage::new(&dir);
            s.write("app", "fn0", b"payload", 9);
            // no temp files survive a completed write
            let leftovers: Vec<_> = std::fs::read_dir(dir.join("app"))
                .expect("cache dir")
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().contains(TMP_MARKER))
                .collect();
            assert!(leftovers.is_empty(), "completed writes leave no temp files");
            // simulate a crash mid-write: a stray temp file appears
            std::fs::write(dir.join("app").join(format!("fn9{TMP_MARKER}999")), b"torn")
                .expect("writes");
        }
        {
            // a fresh instance sweeps the orphan and still serves data
            let s = DirStorage::new(&dir);
            assert_eq!(s.read("app", "fn0"), Some((b"payload".to_vec(), 9)));
            assert!(
                !std::fs::read_dir(dir.join("app"))
                    .expect("cache dir")
                    .flatten()
                    .any(|e| e.file_name().to_string_lossy().contains(TMP_MARKER)),
                "startup sweep collects orphaned temp files"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_storage_sweeps_orphaned_image_temp_files() {
        let marker = crate::image::IMAGE_TMP_MARKER;
        let dir = std::env::temp_dir().join(format!("llva-storage-imgtmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("app")).expect("mkdir");
        // a killed process left half-written images behind: one at the
        // storage root (CLI image output) and one inside a cache dir
        std::fs::write(dir.join(format!("prog.llvi{marker}4242")), b"torn image")
            .expect("writes");
        std::fs::write(
            dir.join("app").join(format!("m0.llvi{marker}4242")),
            b"torn image",
        )
        .expect("writes");
        // a finished image must NOT be swept
        std::fs::write(dir.join("prog.llvi"), b"complete image").expect("writes");
        let s = DirStorage::new(&dir);
        let survivors: Vec<String> = std::fs::read_dir(&dir)
            .expect("root")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            !survivors.iter().any(|n| n.contains(marker)),
            "root-level image temp files are swept, got {survivors:?}"
        );
        assert!(
            survivors.iter().any(|n| n == "prog.llvi"),
            "completed images survive the sweep"
        );
        assert!(
            !std::fs::read_dir(dir.join("app"))
                .expect("cache dir")
                .flatten()
                .any(|e| e.file_name().to_string_lossy().contains(marker)),
            "cache-level image temp files are swept"
        );
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    type ReadTrace = Vec<Option<(Vec<u8>, u64)>>;

    #[test]
    fn faulty_storage_is_deterministic_per_seed() {
        let run = |seed: u64| -> (ReadTrace, FaultLog) {
            let mut s = FaultyStorage::new(MemStorage::new(), FaultPlan::chaos(seed));
            let mut reads = Vec::new();
            for i in 0..64u64 {
                s.write("c", &format!("e{}", i % 8), &[i as u8; 16], i);
                reads.push(s.read("c", &format!("e{}", i % 8)));
            }
            (reads, s.log())
        };
        let (reads_a, log_a) = run(42);
        let (reads_b, log_b) = run(42);
        assert_eq!(reads_a, reads_b, "same seed, same faults");
        assert_eq!(log_a, log_b);
        assert!(log_a.total() > 0, "chaos plan injects faults");
        let (_, log_c) = run(43);
        assert_ne!(log_a, log_c, "different seed, different fault pattern");
    }

    #[test]
    fn sharded_storage_contract() {
        let mut s = ShardedStorage::new(4, |_| MemStorage::new());
        exercise(&mut s);
    }

    #[test]
    fn sharded_storage_routes_deterministically_and_spreads() {
        let s = ShardedStorage::new(8, |_| MemStorage::new());
        let mut hit = [false; 8];
        for i in 0..64 {
            let name = format!("mod.x86.fn{i}");
            assert_eq!(s.shard_index(&name), s.shard_index(&name));
            hit[s.shard_index(&name)] = true;
        }
        assert!(
            hit.iter().filter(|&&h| h).count() >= 4,
            "64 keys over 8 shards must touch at least half of them"
        );
        // a single shard degenerates to one storage and still works
        let one = ShardedStorage::new(1, |_| MemStorage::new());
        assert_eq!(one.shard_count(), 1);
        assert_eq!(one.shard_index("anything"), 0);
    }

    #[test]
    fn sharded_storage_handles_share_shards_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedStorage<MemStorage>>();

        let storage = ShardedStorage::new(4, |_| MemStorage::new());
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let mut handle = storage.clone();
                scope.spawn(move || {
                    handle.create_cache("app");
                    handle.write("app", &format!("fn{t}"), &[t as u8; 8], t);
                });
            }
        });
        for t in 0..8u64 {
            assert_eq!(
                storage.read("app", &format!("fn{t}")),
                Some((vec![t as u8; 8], t)),
                "entry written by thread {t} must be visible from any handle"
            );
        }
    }

    #[test]
    fn boxed_storage_passthrough() {
        let mut boxed: Box<dyn Storage + Send> = Box::new(MemStorage::new());
        exercise(&mut boxed);
        // boxed storages compose: a sharded storage over boxed inners
        let mut sharded: ShardedStorage<Box<dyn Storage + Send>> =
            ShardedStorage::new(2, |_| Box::new(MemStorage::new()) as Box<dyn Storage + Send>);
        exercise(&mut sharded);
    }

    #[test]
    fn faulty_storage_corrupt_entry_flips_exactly_one_bit() {
        let mut s = FaultyStorage::new(MemStorage::new(), FaultPlan::none(5));
        s.write("c", "e", &[0u8; 32], 1);
        assert!(s.corrupt_entry("c", "e"));
        let (bytes, ts) = s.read("c", "e").expect("entry");
        assert_eq!(ts, 1, "timestamp untouched");
        let flipped: u32 = bytes.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit differs");
        assert!(!s.corrupt_entry("c", "missing"));
    }
}
