//! The multi-tenant execution service.
//!
//! # Architecture
//!
//! One [`ExecService`] owns a sharded translation cache
//! ([`ShardedStorage`]) and a set of tenants. Each tenant gets its own
//! **executor thread**: the thread creates and owns one
//! [`Supervisor`] per loaded module, so all non-[`Send`] execution
//! state (supervisors hold `Box<dyn Storage>`) lives on exactly one
//! thread, and only plain data — module source text, argument vectors,
//! result enums — ever crosses a thread boundary.
//!
//! The caller-facing half is pure admission control: quota checks and
//! an in-flight CAS happen on the *caller's* thread before anything is
//! queued, so an over-quota tenant is rejected in nanoseconds without
//! waking its executor. Admitted commands travel over a bounded
//! [`mpsc::sync_channel`] sized to the in-flight quota — the queue
//! physically cannot grow beyond what admission already allowed.
//!
//! Fault isolation falls out of the ownership structure: a poisoned
//! function quarantines `(function, tier)` pairs inside one tenant's
//! supervisor; other tenants never see that supervisor. The only
//! shared mutable state is the sharded cache, which tolerates
//! poisoned-lock recovery per shard (see `llva_engine::storage`).
//!
//! # Supervision (see DESIGN.md §16)
//!
//! Above the per-call tier ladder sits a service-level supervision
//! layer. A monitor thread sweeps every tenant: a **dead** executor
//! (its thread finished — an escaped panic) or a **wedged** one (its
//! busy heartbeat is older than `call_deadline × wedge_multiple`) is
//! **respawned** from the tenant's state journal — module sources,
//! stamps, and quarantines recorded by the executor itself — with
//! modules re-attached warm from the shared image cache.
//!
//! Respawn is **epoch-fenced**: the tenant's epoch counter is bumped
//! before the new executor exists, every executor knows the epoch it
//! was born into, and all shared-state writes (snapshot, journal,
//! breakers) are discarded when they come from a superseded epoch. A
//! call accepted before the crash resolves to a structured
//! [`ServeError::ExecutorLost`] — never a hang — because dropping its
//! queued command drops both its reply sender (the caller's `recv`
//! errors out) and its admission `Ticket` (the in-flight slot is
//! released exactly once, by a `swap`-guarded drop).
//!
//! A per-`(module, function)` **circuit breaker** sits above the
//! supervisor's quarantine probes: repeated
//! [`ServeError::TiersExhausted`] answers open it, admission then
//! rejects with [`ServeError::BreakerOpen`] until an exponential
//! backoff elapses, and a single half-open probe call decides between
//! closing and re-opening deeper. Whole-service **graceful drain**
//! ([`ExecService::drain`]) closes admission, waits for in-flight work
//! with a deadline, snapshots final metrics, and shuts down.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use llva_engine::llee::{self, ExecutionManager};
use llva_engine::storage::{MemStorage, ShardedStorage, Storage};
use llva_engine::supervisor::{
    Supervisor, SupervisorError, Tier, TierCounters, TierKill, TierOutcome,
};
use llva_engine::image::{ImageBuilder, LlvaImage, IMAGE_ENTRY};
use llva_engine::{PreModule, TargetIsa, TranslationStats};

use crate::quota::{CounterValues, QuotaKind, ServeError, TenantCounters, TenantQuota};

/// The boxed storage backend the service shards over. `Send` because
/// shards hop between tenant executor threads.
pub type BoxedStorage = Box<dyn Storage + Send>;

/// Service-wide configuration (per-tenant limits live in
/// [`TenantQuota`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Target ISA for the translated tier.
    pub isa: TargetIsa,
    /// Translation-cache shards (keyed by entry-name hash).
    pub shards: usize,
    /// How long a caller waits for a call answer before giving up
    /// ([`ServeError::DeadlineExpired`]; the call still completes and
    /// is accounted in the background).
    pub call_deadline: Duration,
    /// How long a caller waits for a module load (loads include the
    /// translation warmup, so the default is more generous).
    pub load_deadline: Duration,
    /// Serve-level bounded retry budget for a call whose tier ladder
    /// ran dry: each retry lifts the function's quarantines (transient
    /// storage faults heal; a genuinely poisoned function exhausts the
    /// budget and fails).
    pub max_retries: u32,
    /// Base backoff between those retries (attempt `n` sleeps
    /// `base * 2^(n-1)`).
    pub retry_backoff: Duration,
    /// Faults a `(function, tier)` pair tolerates before quarantine.
    pub max_faults: u32,
    /// Quarantine recovery probes: after this many successful
    /// lower-tier calls, a quarantined pair earns one supervised
    /// retry. `None` disables probing.
    pub probe_after: Option<u32>,
    /// Per-module incident-log ring-buffer capacity.
    pub incident_capacity: usize,
    /// Worker threads for the translation warmup at module load
    /// (0 = [`ExecutionManager::default_workers`]).
    pub translate_workers: usize,
    /// Step watchdog for fast tiers (see `Supervisor::set_watchdog`).
    pub watchdog: Option<u64>,
    /// Cross-check every answer against the structural interpreter
    /// (expensive; catches silent wrong values).
    pub cross_check: bool,
    /// How often the supervision monitor sweeps tenants for dead or
    /// wedged executors. `Duration::ZERO` disables supervision (no
    /// monitor thread is spawned; executors are never respawned).
    pub monitor_interval: Duration,
    /// A busy executor whose current command has run longer than
    /// `call_deadline × wedge_multiple` is declared wedged and
    /// replaced. `0` disables wedge detection (dead-thread detection
    /// stays on).
    pub wedge_multiple: u32,
    /// Consecutive [`ServeError::TiersExhausted`] answers for one
    /// `(module, function)` before its circuit breaker opens. `0`
    /// disables breakers.
    pub breaker_threshold: u32,
    /// Base backoff of an opened breaker (the `n`-th consecutive open
    /// waits `base * 2^(n-1)`).
    pub breaker_backoff: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            isa: TargetIsa::X86,
            shards: 4,
            call_deadline: Duration::from_secs(30),
            load_deadline: Duration::from_secs(120),
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            max_faults: 1,
            probe_after: None,
            incident_capacity: llva_engine::supervisor::DEFAULT_INCIDENT_CAPACITY,
            translate_workers: 0,
            watchdog: None,
            cross_check: false,
            monitor_interval: Duration::from_millis(25),
            wedge_multiple: 4,
            breaker_threshold: 3,
            breaker_backoff: Duration::from_millis(100),
        }
    }
}

/// What a successful module load reports back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadReply {
    /// The tenant-chosen module name.
    pub module: String,
    /// The content-addressed cache this module translates into
    /// (identical module text ⇒ identical cache, shared across
    /// tenants; different text ⇒ disjoint cache, zero collision).
    pub cache: String,
    /// Defined (body-carrying) functions in the module.
    pub functions: usize,
    /// Translation/cache statistics from the load-time warmup.
    pub warmup: TranslationStats,
    /// True when the warm image attach mapped the cache file zero-copy
    /// (`mmap`) instead of reading it into memory.
    pub image_mapped: bool,
}

/// What a successful call reports back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallResult {
    /// The semantic outcome (value, precise trap, or out-of-fuel).
    pub outcome: TierOutcome,
    /// The tier that answered.
    pub tier: Tier,
    /// True when a faster tier faulted or was skipped on the way.
    pub degraded: bool,
    /// Steps the answering tier executed.
    pub steps: u64,
    /// Serve-level retries this call consumed.
    pub retries: u32,
}

impl CallResult {
    /// The returned raw bits, if the call completed normally.
    #[must_use]
    pub fn value(&self) -> Option<u64> {
        match self.outcome {
            TierOutcome::Value(v) => Some(v),
            _ => None,
        }
    }
}

/// Executor-published health snapshot for one loaded module. Counter
/// fields are **lifetime** totals: they carry across executor respawns
/// (the journal re-seeds the baseline), so metrics stay monotonic.
#[derive(Debug, Clone)]
pub struct ModuleSnapshot {
    /// Tenant-chosen module name.
    pub name: String,
    /// Content-addressed cache name.
    pub cache: String,
    /// Defined functions.
    pub functions: usize,
    /// Incidents currently held in the ring buffer (this epoch).
    pub incidents_len: usize,
    /// Older incidents dropped by the ring-buffer cap (lifetime).
    pub incidents_dropped: u64,
    /// Lifetime incident count.
    pub incidents_total: u64,
    /// Display lines for the most recent incidents (newest last).
    pub recent_incidents: Vec<String>,
    /// Quarantined `(function, tier)` pairs right now.
    pub quarantined: Vec<(String, Tier)>,
    /// Per-tier counters, indexed by [`Tier::index`] (lifetime).
    pub tier_counters: [TierCounters; Tier::LADDER.len()],
    /// Aggregated translation/cache statistics (lifetime: every
    /// warmup, including respawn rebuilds, plus every call).
    pub translation: TranslationStats,
}

/// Executor-published health snapshot for one tenant.
#[derive(Debug, Clone, Default)]
pub struct TenantSnapshot {
    /// Executor epoch that published this snapshot (0 = never
    /// published; bumps by one per respawn).
    pub epoch: u64,
    /// One entry per loaded module, in load order.
    pub modules: Vec<ModuleSnapshot>,
}

/// How many incident display lines a snapshot carries per module.
const SNAPSHOT_RECENT_INCIDENTS: usize = 8;

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

/// State of one `(module, function)` circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal admission; consecutive failures are being counted.
    Closed,
    /// Backoff in force: calls are rejected with
    /// [`ServeError::BreakerOpen`] until `open_until`.
    Open,
    /// Backoff elapsed; exactly one probe call is in flight. Its
    /// outcome closes the breaker or re-opens it with deeper backoff.
    HalfOpen,
}

impl BreakerState {
    /// Stable numeric encoding for metrics (0 closed, 1 half-open,
    /// 2 open).
    #[must_use]
    pub fn as_metric(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        })
    }
}

#[derive(Debug, Clone)]
struct Breaker {
    state: BreakerState,
    /// Consecutive `TiersExhausted` answers while closed.
    failures: u32,
    /// Consecutive opens without an intervening success (the backoff
    /// exponent). Reset by a successful call.
    opens: u32,
    /// Lifetime opens (monotonic; survives respawns because breakers
    /// live in the caller-side shared state, not the executor).
    opened_total: u64,
    /// When an open breaker transitions to half-open.
    open_until: Instant,
    /// When the current half-open probe was claimed (a probe caller
    /// that died is reclaimed after one backoff period).
    half_open_since: Instant,
}

impl Default for Breaker {
    fn default() -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            failures: 0,
            opens: 0,
            opened_total: 0,
            open_until: Instant::now(),
            half_open_since: Instant::now(),
        }
    }
}

/// A caller-visible copy of one breaker's state (metrics, tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerSnapshot {
    /// Module the breaker guards.
    pub module: String,
    /// Function the breaker guards.
    pub function: String,
    /// Current state.
    pub state: BreakerState,
    /// Lifetime opens.
    pub opened_total: u64,
    /// Consecutive failures counted so far (while closed).
    pub failures: u32,
}

fn breaker_backoff(config: &ServeConfig, opens: u32) -> Duration {
    config.breaker_backoff * (1u32 << opens.saturating_sub(1).min(16))
}

/// Trips (or re-trips) a breaker open with exponentially deeper
/// backoff.
fn trip_breaker(b: &mut Breaker, config: &ServeConfig) {
    b.failures = 0;
    b.opens = b.opens.saturating_add(1);
    b.opened_total += 1;
    b.open_until = Instant::now() + breaker_backoff(config, b.opens);
    b.state = BreakerState::Open;
}

// ---------------------------------------------------------------------------
// Executor fault injection
// ---------------------------------------------------------------------------

/// Where in the executor loop an injected kill fires (see
/// [`ExecService::arm_executor_kills`]). The points bracket the
/// slot-accounting protocol: `Recv` kills before any processing,
/// `PreReply` after the work is done and published but *before* the
/// admission slot is released (the drop path must release it),
/// `PostReply` after the caller was answered, and `Rebuild` during the
/// journal rebuild of a respawned executor (a crash loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutorKillPoint {
    /// After a command is dequeued, before it is processed.
    Recv,
    /// After processing and snapshot publication, before the slot
    /// release and reply.
    PreReply,
    /// After the reply was sent.
    PostReply,
    /// During the journal rebuild at executor (re)spawn.
    Rebuild,
}

impl ExecutorKillPoint {
    fn parse(s: &str) -> Option<ExecutorKillPoint> {
        match s {
            "recv" => Some(ExecutorKillPoint::Recv),
            "pre-reply" => Some(ExecutorKillPoint::PreReply),
            "post-reply" => Some(ExecutorKillPoint::PostReply),
            "rebuild" => Some(ExecutorKillPoint::Rebuild),
            _ => None,
        }
    }
}

impl std::fmt::Display for ExecutorKillPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExecutorKillPoint::Recv => "recv",
            ExecutorKillPoint::PreReply => "pre-reply",
            ExecutorKillPoint::PostReply => "post-reply",
            ExecutorKillPoint::Rebuild => "rebuild",
        })
    }
}

/// One entry of an executor kill plan: panic the executor the
/// `after`-th time it passes `point` (1 = the very next pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorKill {
    /// Injection point.
    pub point: ExecutorKillPoint,
    /// Fire on this arrival count (≥ 1).
    pub after: u32,
}

/// Parses `LLVA_KILL_EXECUTOR` (`<point>:<after>[,<point>:<after>...]`,
/// points `recv` / `pre-reply` / `post-reply` / `rebuild`) into a kill
/// plan; empty when unset. Unparseable items are skipped, so a CI
/// matrix axis can never turn into a silent no-test panic.
#[must_use]
pub fn executor_kill_from_env() -> Vec<ExecutorKill> {
    let Ok(spec) = std::env::var("LLVA_KILL_EXECUTOR") else {
        return Vec::new();
    };
    spec.split(',')
        .filter_map(|item| {
            let (point, after) = item.trim().split_once(':')?;
            Some(ExecutorKill {
                point: ExecutorKillPoint::parse(point.trim())?,
                after: after.trim().parse().ok().filter(|&n| n >= 1)?,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Journal + shared tenant state
// ---------------------------------------------------------------------------

/// Lifetime counter baselines carried across executor respawns: a
/// respawned executor seeds its published totals from these so
/// metrics stay monotonic through a crash.
#[derive(Debug, Clone, Copy, Default)]
struct CarriedStats {
    incidents_total: u64,
    incidents_dropped: u64,
    tiers: [TierCounters; Tier::LADDER.len()],
    translation: TranslationStats,
}

/// Everything needed to rebuild one loaded module in a fresh executor.
#[derive(Debug, Clone)]
struct JournalEntry {
    source: String,
    stamp: u64,
    cache: String,
    functions: usize,
    carried: CarriedStats,
    quarantined: Vec<(String, Tier)>,
    /// Set when the last rebuild attempt failed (the module then
    /// answers [`ServeError::NoSuchModule`] until re-loaded or a later
    /// rebuild succeeds); cleared on success.
    failed: bool,
}

/// The per-tenant recovery journal: written by the live executor
/// (epoch-guarded), read by the next one at respawn.
#[derive(Debug, Default)]
struct Journal {
    /// Epoch of the newest executor that wrote. Writes from older
    /// epochs (a wedged, superseded executor finishing its last
    /// command) are discarded.
    epoch: u64,
    modules: BTreeMap<String, JournalEntry>,
}

/// Which content-addressed caches loaded modules hold, service-wide. A
/// cache lives while some loaded module holds it: every tenant journal
/// entry holds its module's cache (the journal, not the executor,
/// because the journal survives respawns), and the last release deletes
/// the cache from storage. Shutdown and drain release nothing, so a
/// later service over the same directory still attaches warm.
struct CacheHolds {
    storage: ShardedStorage<BoxedStorage>,
    holders: Mutex<BTreeMap<String, usize>>,
}

impl CacheHolds {
    fn take(&self, cache: &str) {
        *lock_plain(&self.holders).entry(cache.to_string()).or_default() += 1;
    }

    /// Drops one hold. The last one deletes the cache, under the lock,
    /// so a load taking a hold meanwhile probes the storage only after.
    fn release(&self, cache: &str) {
        let mut holders = lock_plain(&self.holders);
        let Some(n) = holders.get_mut(cache) else {
            return;
        };
        *n -= 1;
        if *n == 0 {
            holders.remove(cache);
            self.storage.clone().delete_cache(cache);
        }
    }
}

/// Caller-visible shared state for one tenant (atomics + mailboxes;
/// everything here is readable without blocking on the executor and
/// survives executor respawns).
struct TenantShared {
    counters: TenantCounters,
    in_flight: AtomicU32,
    fuel_remaining: AtomicU64,
    snapshot: Mutex<TenantSnapshot>,
    /// Executor generation: starts at 1, +1 per respawn. Shared-state
    /// writes from an executor whose epoch is older are fenced off.
    epoch: AtomicU64,
    /// Lifetime executor respawns.
    restarts: AtomicU64,
    /// Wedge heartbeat: ms since service start when the executor began
    /// its current command (`.max(1)`), 0 when idle.
    busy_since_ms: AtomicU64,
    /// Commands completed (all epochs).
    heartbeat: AtomicU64,
    /// Set by `stop_tenant` before teardown: the monitor must not
    /// respawn, and a disconnected channel means shutdown, not loss.
    retired: AtomicBool,
    /// Panic message of the most recent executor crash.
    last_crash: Mutex<Option<String>>,
    journal: Mutex<Journal>,
    breakers: Mutex<BTreeMap<(String, String), Breaker>>,
    /// Fast-path flag for [`TenantShared::kill_plan`] (the injection
    /// points sit on the executor hot loop).
    kills_armed: AtomicBool,
    kill_plan: Mutex<VecDeque<ExecutorKill>>,
}

struct TenantHandle {
    quota: TenantQuota,
    shared: Arc<TenantShared>,
    /// Swapped at respawn (write) and cloned per send (read).
    sender: RwLock<SyncSender<Command>>,
    /// The current executor thread. Lock order: `thread` before
    /// `sender` (respawn and stop both follow it).
    thread: Mutex<Option<JoinHandle<()>>>,
    /// Wedged executors that were replaced but are still running their
    /// last (fuel-bounded) command; joined at tenant stop.
    abandoned: Mutex<Vec<JoinHandle<()>>>,
}

/// An admitted call's in-flight slot, released **exactly once**: by
/// the executor after the work is published, or by `Drop` on any path
/// that abandons the command (queue teardown at executor death,
/// `try_send` failure, panic unwind). The `swap` makes the explicit
/// release and the drop release mutually exclusive.
struct Ticket {
    shared: Arc<TenantShared>,
    released: AtomicBool,
}

impl Ticket {
    fn new(shared: Arc<TenantShared>) -> Ticket {
        Ticket { shared, released: AtomicBool::new(false) }
    }

    fn release(&self) {
        if !self.released.swap(true, Ordering::AcqRel) {
            self.shared.in_flight.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        self.release();
    }
}

/// Commands crossing into an executor thread — plain `Send` data only.
/// Every admitted command carries its [`Ticket`]; dropping a command
/// unanswered releases the slot and disconnects the caller's reply
/// channel in one move.
enum Command {
    Load {
        module: String,
        source: String,
        ticket: Ticket,
        reply: mpsc::Sender<Result<LoadReply, ServeError>>,
    },
    Unload {
        module: String,
        ticket: Ticket,
        reply: mpsc::Sender<Result<(), ServeError>>,
    },
    Call {
        module: String,
        entry: String,
        args: Vec<u64>,
        fuel: u64,
        ticket: Ticket,
        reply: mpsc::Sender<Result<CallResult, ServeError>>,
    },
    /// Fault-injection hook (tests, soaks, CI): arm kills on one
    /// module's supervisor for the next `calls` calls (0 = until
    /// re-armed or the module is unloaded).
    ArmKills {
        module: String,
        kills: Vec<TierKill>,
        calls: u32,
        ticket: Ticket,
        reply: mpsc::Sender<Result<(), ServeError>>,
    },
    Shutdown,
}

struct Inner {
    config: ServeConfig,
    storage: ShardedStorage<BoxedStorage>,
    holds: Arc<CacheHolds>,
    tenants: RwLock<BTreeMap<String, Arc<TenantHandle>>>,
    /// Service birth; the wedge heartbeat is ms since this instant.
    started: Instant,
    draining: AtomicBool,
    drain_duration_ms: AtomicU64,
    monitor: Mutex<Option<JoinHandle<()>>>,
    monitor_stop: Arc<(Mutex<bool>, Condvar)>,
}

/// What [`ExecService::drain`] reports after the service is down.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// True when every in-flight call resolved before the deadline.
    pub drained: bool,
    /// How long the drain waited.
    pub waited: Duration,
    /// Calls still in flight when the deadline expired (0 when
    /// `drained`). Their callers get structured errors at shutdown.
    pub abandoned_in_flight: u32,
    /// The final metrics exposition, rendered after the drain wait and
    /// before teardown (the flush a scraper can no longer perform).
    pub final_metrics: String,
}

/// The fault-isolated multi-tenant execution service. Cheap to clone
/// (a handle); see the module docs for the architecture.
#[derive(Clone)]
pub struct ExecService {
    inner: Arc<Inner>,
}

/// Locks a mutex, recovering from a poisoned lock (the storage/serve
/// contract: shared state must stay usable after a panicking holder).
fn lock_plain<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn now_ms(started: Instant) -> u64 {
    started.elapsed().as_millis() as u64
}

impl ExecService {
    /// A service over in-memory cache shards.
    #[must_use]
    pub fn new(config: ServeConfig) -> ExecService {
        ExecService::with_storage(config, |_| Box::new(MemStorage::new()) as BoxedStorage)
    }

    /// A service whose cache shards come from `mk` (tests inject
    /// `FaultyStorage` here).
    #[must_use]
    pub fn with_storage(
        config: ServeConfig,
        mk: impl FnMut(usize) -> BoxedStorage,
    ) -> ExecService {
        let storage = ShardedStorage::new(config.shards, mk);
        let monitor_interval = config.monitor_interval;
        let holds = Arc::new(CacheHolds {
            storage: storage.clone(),
            holders: Mutex::new(BTreeMap::new()),
        });
        let inner = Arc::new(Inner {
            config,
            storage,
            holds,
            tenants: RwLock::new(BTreeMap::new()),
            started: Instant::now(),
            draining: AtomicBool::new(false),
            drain_duration_ms: AtomicU64::new(0),
            monitor: Mutex::new(None),
            monitor_stop: Arc::new((Mutex::new(false), Condvar::new())),
        });
        if monitor_interval > Duration::ZERO {
            // Weak: the monitor must not keep the service alive — the
            // last user handle dropping tears everything down.
            let weak = Arc::downgrade(&inner);
            let stop = Arc::clone(&inner.monitor_stop);
            let handle = std::thread::Builder::new()
                .name("llva-serve:monitor".to_string())
                .spawn(move || monitor_loop(&weak, &stop, monitor_interval))
                .expect("spawn supervision monitor");
            *lock_plain(&inner.monitor) = Some(handle);
        }
        ExecService { inner }
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.inner.config
    }

    /// A handle to the sharded translation cache (tests reach through
    /// this to disarm fault plans or inspect shards).
    #[must_use]
    pub fn storage(&self) -> &ShardedStorage<BoxedStorage> {
        &self.inner.storage
    }

    fn tenants(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<TenantHandle>>> {
        self.inner
            .tenants
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn handle(&self, tenant: &str) -> Result<Arc<TenantHandle>, ServeError> {
        self.tenants()
            .get(tenant)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTenant(tenant.to_string()))
    }

    fn check_draining(&self, handle: &TenantHandle) -> Result<(), ServeError> {
        if self.inner.draining.load(Ordering::Acquire) {
            handle
                .shared
                .counters
                .rejected_draining
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Draining);
        }
        Ok(())
    }

    /// Registers a tenant and spawns its executor thread.
    ///
    /// # Errors
    ///
    /// [`ServeError::TenantExists`] on a duplicate name;
    /// [`ServeError::Draining`] once a drain started.
    pub fn add_tenant(&self, name: &str, quota: TenantQuota) -> Result<(), ServeError> {
        if self.inner.draining.load(Ordering::Acquire) {
            return Err(ServeError::Draining);
        }
        let mut tenants = self
            .inner
            .tenants
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if tenants.contains_key(name) {
            return Err(ServeError::TenantExists(name.to_string()));
        }
        let shared = Arc::new(TenantShared {
            counters: TenantCounters::default(),
            in_flight: AtomicU32::new(0),
            fuel_remaining: AtomicU64::new(quota.fuel_budget),
            snapshot: Mutex::new(TenantSnapshot::default()),
            epoch: AtomicU64::new(1),
            restarts: AtomicU64::new(0),
            busy_since_ms: AtomicU64::new(0),
            heartbeat: AtomicU64::new(0),
            retired: AtomicBool::new(false),
            last_crash: Mutex::new(None),
            journal: Mutex::new(Journal::default()),
            breakers: Mutex::new(BTreeMap::new()),
            kills_armed: AtomicBool::new(false),
            kill_plan: Mutex::new(VecDeque::new()),
        });
        // Queue depth = in-flight quota: admission's CAS already gates
        // every send, so the channel can never reject an admitted
        // command, and memory stays bounded by construction.
        let (sender, receiver) = mpsc::sync_channel(quota.max_in_flight.max(1) as usize);
        let thread = spawn_executor(
            ExecutorSpec {
                name: name.to_string(),
                epoch: 1,
                shared: Arc::clone(&shared),
                config: self.inner.config.clone(),
                storage: self.inner.storage.clone(),
                holds: Arc::clone(&self.inner.holds),
                quota,
                started: self.inner.started,
            },
            receiver,
        );
        tenants.insert(
            name.to_string(),
            Arc::new(TenantHandle {
                quota,
                shared,
                sender: RwLock::new(sender),
                thread: Mutex::new(Some(thread)),
                abandoned: Mutex::new(Vec::new()),
            }),
        );
        Ok(())
    }

    /// Unregisters a tenant: shuts its executor down (draining queued
    /// commands first) and joins the thread(s).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn remove_tenant(&self, name: &str) -> Result<(), ServeError> {
        let handle = {
            let mut tenants = self
                .inner
                .tenants
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            tenants
                .remove(name)
                .ok_or_else(|| ServeError::UnknownTenant(name.to_string()))?
        };
        stop_tenant(&handle);
        let journal = std::mem::take(&mut lock_plain(&handle.shared.journal).modules);
        for entry in journal.values() {
            self.inner.holds.release(&entry.cache);
        }
        Ok(())
    }

    /// Registered tenant names, sorted.
    #[must_use]
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants().keys().cloned().collect()
    }

    /// The tenant's quota, if it exists.
    #[must_use]
    pub fn tenant_quota(&self, tenant: &str) -> Option<TenantQuota> {
        self.tenants().get(tenant).map(|h| h.quota)
    }

    /// Calls currently admitted but unanswered for a tenant.
    #[must_use]
    pub fn tenant_in_flight(&self, tenant: &str) -> Option<u32> {
        self.tenants()
            .get(tenant)
            .map(|h| h.shared.in_flight.load(Ordering::Acquire))
    }

    /// A tenant's admission/outcome counters.
    #[must_use]
    pub fn tenant_counters(&self, tenant: &str) -> Option<CounterValues> {
        self.tenants()
            .get(tenant)
            .map(|h| h.shared.counters.values())
    }

    /// Fuel remaining in a tenant's budget.
    #[must_use]
    pub fn tenant_fuel_remaining(&self, tenant: &str) -> Option<u64> {
        self.tenants()
            .get(tenant)
            .map(|h| h.shared.fuel_remaining.load(Ordering::Acquire))
    }

    /// The tenant's latest executor-published health snapshot.
    #[must_use]
    pub fn tenant_snapshot(&self, tenant: &str) -> Option<TenantSnapshot> {
        self.tenants()
            .get(tenant)
            .map(|h| lock_plain(&h.shared.snapshot).clone())
    }

    /// Lifetime executor respawns for a tenant.
    #[must_use]
    pub fn tenant_restarts(&self, tenant: &str) -> Option<u64> {
        self.tenants()
            .get(tenant)
            .map(|h| h.shared.restarts.load(Ordering::Acquire))
    }

    /// The tenant's current executor epoch (1 at creation, +1 per
    /// respawn).
    #[must_use]
    pub fn tenant_epoch(&self, tenant: &str) -> Option<u64> {
        self.tenants()
            .get(tenant)
            .map(|h| h.shared.epoch.load(Ordering::Acquire))
    }

    /// Panic message of the tenant's most recent executor crash, if
    /// any executor has crashed.
    #[must_use]
    pub fn tenant_last_crash(&self, tenant: &str) -> Option<Option<String>> {
        self.tenants()
            .get(tenant)
            .map(|h| lock_plain(&h.shared.last_crash).clone())
    }

    /// Current circuit-breaker states for a tenant (one per
    /// `(module, function)` pair that has ever recorded an outcome
    /// while breakers were enabled).
    #[must_use]
    pub fn tenant_breakers(&self, tenant: &str) -> Option<Vec<BreakerSnapshot>> {
        self.tenants().get(tenant).map(|h| {
            lock_plain(&h.shared.breakers)
                .iter()
                .map(|((module, function), b)| BreakerSnapshot {
                    module: module.clone(),
                    function: function.clone(),
                    state: b.state,
                    opened_total: b.opened_total,
                    failures: b.failures,
                })
                .collect()
        })
    }

    /// Recovery-journal size for a tenant: `(modules, approximate
    /// bytes)` — what a respawn would rebuild from.
    #[must_use]
    pub fn tenant_journal(&self, tenant: &str) -> Option<(usize, u64)> {
        self.tenants().get(tenant).map(|h| {
            let journal = lock_plain(&h.shared.journal);
            let bytes: u64 = journal
                .modules
                .values()
                .map(|e| {
                    (e.source.len() + e.cache.len()) as u64
                        + 64 * e.quarantined.len() as u64
                        + 128
                })
                .sum();
            (journal.modules.len(), bytes)
        })
    }

    /// True once a [`ExecService::drain`] has started.
    #[must_use]
    pub fn draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// How long the drain waited for in-flight work, in ms (0 until a
    /// drain ran).
    #[must_use]
    pub fn drain_duration_ms(&self) -> u64 {
        self.inner.drain_duration_ms.load(Ordering::Acquire)
    }

    /// Adds `fuel` back to a tenant's budget (operator hook; saturates
    /// at `u64::MAX`).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn refill_fuel(&self, tenant: &str, fuel: u64) -> Result<(), ServeError> {
        let handle = self.handle(tenant)?;
        let _ = handle
            .shared
            .fuel_remaining
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                Some(cur.saturating_add(fuel))
            });
        Ok(())
    }

    /// Arms an executor kill plan on a tenant (see
    /// [`ExecutorKillPoint`]; an empty plan disarms). Unlike
    /// [`ExecService::arm_kills`] this never queues behind the
    /// executor — the plan must be armable even when the executor is
    /// about to die, and it survives respawns (a `Rebuild` entry fires
    /// *inside* the respawn).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownTenant`].
    pub fn arm_executor_kills(
        &self,
        tenant: &str,
        plan: &[ExecutorKill],
    ) -> Result<(), ServeError> {
        let handle = self.handle(tenant)?;
        let mut guard = lock_plain(&handle.shared.kill_plan);
        *guard = plan.iter().copied().collect();
        handle
            .shared
            .kills_armed
            .store(!guard.is_empty(), Ordering::Release);
        Ok(())
    }

    /// Takes one in-flight slot or rejects with [`ServeError::Busy`].
    /// The returned [`Ticket`] releases the slot exactly once — on
    /// drop, wherever the command ends up.
    fn admit_slot(handle: &TenantHandle) -> Result<Ticket, ServeError> {
        let shared = &handle.shared;
        let mut cur = shared.in_flight.load(Ordering::Acquire);
        loop {
            if cur >= handle.quota.max_in_flight {
                shared.counters.rejected_busy.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Busy { in_flight: cur });
            }
            match shared.in_flight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(Ticket::new(Arc::clone(shared))),
                Err(now) => cur = now,
            }
        }
    }

    /// The structured error for a disconnected executor channel:
    /// [`ServeError::Shutdown`] when the tenant is being torn down,
    /// [`ServeError::ExecutorLost`] when the executor died under the
    /// caller (a respawn is coming).
    fn lost_error(handle: &TenantHandle) -> ServeError {
        if handle.shared.retired.load(Ordering::Acquire) {
            ServeError::Shutdown
        } else {
            handle
                .shared
                .counters
                .executor_lost
                .fetch_add(1, Ordering::Relaxed);
            ServeError::ExecutorLost {
                epoch: handle.shared.epoch.load(Ordering::Acquire),
            }
        }
    }

    /// Sends an admitted command (its ticket holds the slot). `Full`
    /// can only happen in the narrow race where a slot was released
    /// before its command left the queue; treat it as busy rather than
    /// blocking the caller. Dropping the rejected command releases the
    /// slot through its ticket.
    fn send_admitted(handle: &TenantHandle, command: Command) -> Result<(), ServeError> {
        let sender = handle
            .sender
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        match sender.try_send(command) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(rejected)) => {
                drop(rejected);
                handle
                    .shared
                    .counters
                    .rejected_busy
                    .fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Busy {
                    in_flight: handle.shared.in_flight.load(Ordering::Acquire),
                })
            }
            Err(TrySendError::Disconnected(rejected)) => {
                drop(rejected);
                Err(Self::lost_error(handle))
            }
        }
    }

    fn await_reply<T>(
        handle: &TenantHandle,
        reply: &mpsc::Receiver<Result<T, ServeError>>,
        deadline: Duration,
    ) -> Result<T, ServeError> {
        match reply.recv_timeout(deadline) {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => {
                // The executor still finishes the command (and its
                // ticket releases the slot); only this caller stops
                // waiting.
                handle
                    .shared
                    .counters
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed);
                Err(ServeError::DeadlineExpired)
            }
            // The reply sender dropped unanswered: the command went
            // down with the executor (or its queue). The slot is
            // already released by the ticket's drop.
            Err(RecvTimeoutError::Disconnected) => Err(Self::lost_error(handle)),
        }
    }

    /// Loads a module for a tenant: parse, create/attach the
    /// content-addressed cache, run the parallel translation warmup,
    /// and stand up the module's supervisor.
    ///
    /// # Errors
    ///
    /// Admission rejections ([`ServeError::Busy`],
    /// [`ServeError::QuotaExceeded`]), [`ServeError::BadModule`], and
    /// the deadline/loss/shutdown errors.
    pub fn load_module(
        &self,
        tenant: &str,
        module: &str,
        source: &str,
    ) -> Result<LoadReply, ServeError> {
        let handle = self.handle(tenant)?;
        self.check_draining(&handle)?;
        if source.len() > handle.quota.max_module_bytes {
            handle
                .shared
                .counters
                .rejected_module
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::QuotaExceeded {
                kind: QuotaKind::Module,
                detail: format!(
                    "module source is {} bytes, quota allows {}",
                    source.len(),
                    handle.quota.max_module_bytes
                ),
            });
        }
        // The module *count* check happens executor-side only: the
        // executor's module map is authoritative and knows whether this
        // load is a fresh module or a same-name update.
        let ticket = Self::admit_slot(&handle)?;
        handle.shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        Self::send_admitted(
            &handle,
            Command::Load {
                module: module.to_string(),
                source: source.to_string(),
                ticket,
                reply: tx,
            },
        )?;
        Self::await_reply(&handle, &rx, self.inner.config.load_deadline)
    }

    /// Unloads a module (its supervisor, incidents, and quarantines go
    /// with it; the shared cache goes too once no loaded module of any
    /// tenant holds it).
    ///
    /// # Errors
    ///
    /// [`ServeError::NoSuchModule`] and the admission/deadline errors.
    pub fn unload_module(&self, tenant: &str, module: &str) -> Result<(), ServeError> {
        let handle = self.handle(tenant)?;
        self.check_draining(&handle)?;
        let ticket = Self::admit_slot(&handle)?;
        let (tx, rx) = mpsc::channel();
        Self::send_admitted(
            &handle,
            Command::Unload {
                module: module.to_string(),
                ticket,
                reply: tx,
            },
        )?;
        Self::await_reply(&handle, &rx, self.inner.config.call_deadline)
    }

    /// Calls `module`'s `entry` with the quota's default per-call fuel.
    ///
    /// # Errors
    ///
    /// See [`ExecService::call_with_fuel`].
    pub fn call(
        &self,
        tenant: &str,
        module: &str,
        entry: &str,
        args: &[u64],
    ) -> Result<CallResult, ServeError> {
        self.call_with_fuel(tenant, module, entry, args, 0)
    }

    /// Calls `module`'s `entry` with an explicit fuel request (`0` =
    /// the quota's per-call ceiling; always clamped to both the
    /// ceiling and the remaining budget).
    ///
    /// # Errors
    ///
    /// Admission rejections ([`ServeError::Busy`],
    /// [`ServeError::QuotaExceeded`] with [`QuotaKind::Fuel`],
    /// [`ServeError::BreakerOpen`], [`ServeError::Draining`]),
    /// [`ServeError::NoSuchModule`] / [`ServeError::NoSuchFunction`],
    /// [`ServeError::TiersExhausted`] after the bounded retry budget,
    /// [`ServeError::ExecutorLost`] when the executor dies under the
    /// call, and the deadline/shutdown errors.
    pub fn call_with_fuel(
        &self,
        tenant: &str,
        module: &str,
        entry: &str,
        args: &[u64],
        fuel: u64,
    ) -> Result<CallResult, ServeError> {
        let handle = self.handle(tenant)?;
        self.check_draining(&handle)?;
        if handle.shared.fuel_remaining.load(Ordering::Acquire) == 0 {
            handle
                .shared
                .counters
                .rejected_fuel
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::QuotaExceeded {
                kind: QuotaKind::Fuel,
                detail: format!("fuel budget of {} exhausted", handle.quota.fuel_budget),
            });
        }
        self.check_breaker(&handle, module, entry)?;
        let ticket = Self::admit_slot(&handle)?;
        handle.shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        Self::send_admitted(
            &handle,
            Command::Call {
                module: module.to_string(),
                entry: entry.to_string(),
                args: args.to_vec(),
                fuel,
                ticket,
                reply: tx,
            },
        )?;
        Self::await_reply(&handle, &rx, self.inner.config.call_deadline)
    }

    /// The admission side of the circuit breaker: rejects while open,
    /// elects exactly one probe caller once the backoff elapsed, and
    /// reclaims a probe whose caller vanished (one further backoff
    /// period without a recorded outcome).
    fn check_breaker(
        &self,
        handle: &TenantHandle,
        module: &str,
        entry: &str,
    ) -> Result<(), ServeError> {
        let config = &self.inner.config;
        if config.breaker_threshold == 0 {
            return Ok(());
        }
        let retry_in_ms = {
            let mut breakers = lock_plain(&handle.shared.breakers);
            let Some(b) = breakers.get_mut(&(module.to_string(), entry.to_string())) else {
                return Ok(());
            };
            let now = Instant::now();
            match b.state {
                BreakerState::Closed => return Ok(()),
                BreakerState::Open => {
                    if now >= b.open_until {
                        // backoff elapsed: this caller is the probe
                        b.state = BreakerState::HalfOpen;
                        b.half_open_since = now;
                        return Ok(());
                    }
                    (b.open_until - now).as_millis() as u64
                }
                BreakerState::HalfOpen => {
                    let probe_age = now.duration_since(b.half_open_since);
                    let stale_after = breaker_backoff(config, b.opens);
                    if probe_age > stale_after {
                        // the elected probe never recorded an outcome
                        // (deadline-expired caller, lost executor):
                        // hand the probe to this caller
                        b.half_open_since = now;
                        return Ok(());
                    }
                    stale_after.saturating_sub(probe_age).as_millis() as u64
                }
            }
        };
        handle
            .shared
            .counters
            .rejected_breaker
            .fetch_add(1, Ordering::Relaxed);
        Err(ServeError::BreakerOpen { retry_in_ms })
    }

    /// Arms fault-injection kills on one tenant's module for the next
    /// `calls` calls (`0` = until re-armed; an empty `kills` disarms).
    /// Test/ops hook — this is how soaks sabotage a victim tenant
    /// without touching its neighbours.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoSuchModule`] and the admission/deadline errors.
    pub fn arm_kills(
        &self,
        tenant: &str,
        module: &str,
        kills: Vec<TierKill>,
        calls: u32,
    ) -> Result<(), ServeError> {
        let handle = self.handle(tenant)?;
        self.check_draining(&handle)?;
        let ticket = Self::admit_slot(&handle)?;
        let (tx, rx) = mpsc::channel();
        Self::send_admitted(
            &handle,
            Command::ArmKills {
                module: module.to_string(),
                kills,
                calls,
                ticket,
                reply: tx,
            },
        )?;
        Self::await_reply(&handle, &rx, self.inner.config.call_deadline)
    }

    /// Gracefully drains the whole service: admission closes
    /// immediately (new work gets [`ServeError::Draining`]), in-flight
    /// work is awaited up to `deadline`, the final metrics are
    /// rendered, and the service shuts down. Idempotent-ish: a second
    /// drain finds no tenants and returns immediately.
    pub fn drain(&self, deadline: Duration) -> DrainReport {
        self.inner.draining.store(true, Ordering::Release);
        let start = Instant::now();
        let (drained, abandoned_in_flight) = loop {
            let total: u32 = self
                .tenants()
                .values()
                .map(|h| h.shared.in_flight.load(Ordering::Acquire))
                .sum();
            if total == 0 {
                break (true, 0);
            }
            if start.elapsed() >= deadline {
                break (false, total);
            }
            // in-flight work resolves through executor replies or
            // monitor respawns; 5ms keeps the poll off any hot path
            std::thread::sleep(Duration::from_millis(5));
        };
        let waited = start.elapsed();
        self.inner
            .drain_duration_ms
            .store(waited.as_millis() as u64, Ordering::Release);
        let final_metrics = self.metrics_text();
        self.shutdown();
        DrainReport {
            drained,
            waited,
            abandoned_in_flight,
            final_metrics,
        }
    }

    /// Shuts every tenant executor down, joins the threads, and stops
    /// the supervision monitor. Called automatically when the last
    /// service handle drops.
    pub fn shutdown(&self) {
        let handles: Vec<Arc<TenantHandle>> = {
            let mut tenants = self
                .inner
                .tenants
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::take(&mut *tenants).into_values().collect()
        };
        for handle in handles {
            stop_tenant(&handle);
        }
        stop_monitor(&self.inner);
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        let tenants = std::mem::take(
            &mut *self
                .tenants
                .write()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for handle in tenants.into_values() {
            stop_tenant(&handle);
        }
        stop_monitor(self);
    }
}

fn stop_monitor(inner: &Inner) {
    {
        let (lock, cvar) = &*inner.monitor_stop;
        *lock_plain(lock) = true;
        cvar.notify_all();
    }
    let handle = lock_plain(&inner.monitor).take();
    if let Some(handle) = handle {
        // The last service Arc can drop *on* the monitor thread (it
        // upgrades its Weak during sweeps): never self-join.
        if handle.thread().id() != std::thread::current().id() {
            let _ = handle.join();
        }
    }
}

fn stop_tenant(handle: &TenantHandle) {
    // Retire first: the monitor must not respawn into the teardown,
    // and callers racing us get Shutdown, not ExecutorLost.
    handle.shared.retired.store(true, Ordering::Release);
    let sender = {
        // The thread lock serializes against an in-progress respawn
        // (which swaps the sender under the same lock).
        let _guard = lock_plain(&handle.thread);
        handle
            .sender
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    };
    // `send` (not `try_send`): queued commands drain first, then the
    // executor sees Shutdown. The queue is bounded, so this blocks at
    // most `max_in_flight` commands long; a dead executor's dropped
    // receiver makes it return an error immediately.
    let _ = sender.send(Command::Shutdown);
    let thread = lock_plain(&handle.thread).take();
    if let Some(thread) = thread {
        let _ = thread.join();
    }
    // Wedged-then-replaced executors: their last command is
    // fuel-bounded, so these joins terminate.
    for abandoned in std::mem::take(&mut *lock_plain(&handle.abandoned)) {
        let _ = abandoned.join();
    }
}

// ---------------------------------------------------------------------------
// Supervision monitor
// ---------------------------------------------------------------------------

fn monitor_loop(
    service: &Weak<Inner>,
    stop: &Arc<(Mutex<bool>, Condvar)>,
    interval: Duration,
) {
    loop {
        {
            let (lock, cvar) = &**stop;
            let guard = lock_plain(lock);
            if *guard {
                return;
            }
            let (guard, _) = cvar
                .wait_timeout(guard, interval)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if *guard {
                return;
            }
        }
        let Some(inner) = service.upgrade() else {
            return;
        };
        let tenants: Vec<(String, Arc<TenantHandle>)> = inner
            .tenants
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(name, handle)| (name.clone(), Arc::clone(handle)))
            .collect();
        for (name, handle) in tenants {
            respawn_if_unhealthy(&inner, &name, &handle);
        }
    }
}

/// Checks one tenant's executor and respawns it when dead (thread
/// finished — an escaped panic) or wedged (busy past the deadline
/// multiple). No-op for healthy or retired tenants.
fn respawn_if_unhealthy(inner: &Arc<Inner>, name: &str, handle: &Arc<TenantHandle>) {
    let shared = &handle.shared;
    if shared.retired.load(Ordering::Acquire) {
        return;
    }
    let mut thread_guard = lock_plain(&handle.thread);
    // re-check under the lock: a concurrent stop_tenant may have
    // retired the tenant between the fast check and here
    if shared.retired.load(Ordering::Acquire) {
        return;
    }
    let dead = thread_guard.as_ref().is_none_or(JoinHandle::is_finished);
    let wedged = !dead && inner.config.wedge_multiple > 0 && {
        let busy = shared.busy_since_ms.load(Ordering::Acquire);
        let wedge_ms = (inner.config.call_deadline.as_millis() as u64)
            .saturating_mul(u64::from(inner.config.wedge_multiple))
            .max(1);
        busy != 0 && now_ms(inner.started).saturating_sub(busy) > wedge_ms
    };
    if !dead && !wedged {
        return;
    }
    // Epoch fence FIRST: once bumped, every write from the old
    // executor (snapshot, journal, breakers) is discarded, and the old
    // executor exits at its next loop turn.
    let epoch = shared.epoch.fetch_add(1, Ordering::AcqRel) + 1;
    shared.restarts.fetch_add(1, Ordering::Relaxed);
    shared.busy_since_ms.store(0, Ordering::Release);
    let (sender, receiver) = mpsc::sync_channel(handle.quota.max_in_flight.max(1) as usize);
    {
        // Swapping drops the old channel's only root sender: a dead
        // executor's queued commands are already dropped (tickets
        // released, callers answered ExecutorLost); an idle superseded
        // executor's recv disconnects and it exits.
        let mut guard = handle
            .sender
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *guard = sender;
    }
    let new_thread = spawn_executor(
        ExecutorSpec {
            name: name.to_string(),
            epoch,
            shared: Arc::clone(shared),
            config: inner.config.clone(),
            storage: inner.storage.clone(),
            holds: Arc::clone(&inner.holds),
            quota: handle.quota,
            started: inner.started,
        },
        receiver,
    );
    let old = thread_guard.replace(new_thread);
    drop(thread_guard);
    if let Some(old) = old {
        if old.is_finished() {
            // dead: reaping a finished thread cannot block the monitor
            let _ = old.join();
        } else {
            // wedged: never block the monitor on it — its current
            // command is fuel-bounded and it parks itself out at the
            // epoch fence; the join happens at tenant stop
            lock_plain(&handle.abandoned).push(old);
        }
    }
}

// ---------------------------------------------------------------------------
// Executor side (one thread per tenant; owns all non-Send state)
// ---------------------------------------------------------------------------

/// Everything an executor thread is born with.
struct ExecutorSpec {
    name: String,
    /// The epoch this executor belongs to; all its shared-state writes
    /// are fenced against `shared.epoch`.
    epoch: u64,
    shared: Arc<TenantShared>,
    config: ServeConfig,
    storage: ShardedStorage<BoxedStorage>,
    holds: Arc<CacheHolds>,
    quota: TenantQuota,
    started: Instant,
}

struct ModuleRuntime {
    supervisor: Supervisor,
    cache: String,
    functions: usize,
    warmup: TranslationStats,
    /// Counter baselines inherited from the previous executor epoch
    /// (zero for a freshly loaded module).
    carried: CarriedStats,
    /// Armed-kill countdown: `Some(n)` clears the kills after `n` more
    /// calls; `None` leaves them armed.
    kill_calls_left: Option<u32>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Spawns an executor thread. The whole loop runs under
/// `catch_unwind`, so an escaped panic — injected or real — records a
/// crash message and lets the thread finish cleanly; the monitor's
/// `is_finished` check treats both identically.
fn spawn_executor(spec: ExecutorSpec, receiver: Receiver<Command>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("llva-serve:{}#e{}", spec.name, spec.epoch))
        .spawn(move || {
            let shared = Arc::clone(&spec.shared);
            if let Err(payload) =
                panic::catch_unwind(AssertUnwindSafe(|| executor_loop(&spec, &receiver)))
            {
                *lock_plain(&shared.last_crash) = Some(panic_message(payload));
            }
        })
        .expect("spawn tenant executor")
}

/// Fires an armed executor kill if the plan's front entry matches this
/// injection point (see [`ExecService::arm_executor_kills`] and
/// [`executor_kill_from_env`]). Firing is a plain panic: it unwinds
/// through the loop (dropping the in-hand command, whose ticket and
/// reply sender resolve the caller) into the spawn wrapper.
fn maybe_kill(shared: &TenantShared, point: ExecutorKillPoint) {
    if !shared.kills_armed.load(Ordering::Relaxed) {
        return;
    }
    let mut plan = lock_plain(&shared.kill_plan);
    let Some(front) = plan.front_mut() else {
        shared.kills_armed.store(false, Ordering::Relaxed);
        return;
    };
    if front.point != point {
        return;
    }
    if front.after > 1 {
        front.after -= 1;
        return;
    }
    plan.pop_front();
    if plan.is_empty() {
        shared.kills_armed.store(false, Ordering::Relaxed);
    }
    drop(plan);
    panic::panic_any(format!("injected executor kill at {point}"));
}

/// Runs `f` against the journal iff this executor's epoch is still
/// current, stamping the journal with it. Returns `None` (without
/// running `f`) for a superseded executor.
fn with_journal<R>(
    shared: &TenantShared,
    my_epoch: u64,
    f: impl FnOnce(&mut Journal) -> R,
) -> Option<R> {
    let mut journal = lock_plain(&shared.journal);
    if my_epoch < journal.epoch {
        return None;
    }
    journal.epoch = my_epoch;
    Some(f(&mut journal))
}

fn executor_loop(spec: &ExecutorSpec, receiver: &Receiver<Command>) {
    let shared = &spec.shared;
    let mut modules = rebuild_from_journal(spec);
    publish_snapshot(spec.epoch, shared, &modules);
    loop {
        let Ok(command) = receiver.recv() else {
            // every root sender dropped: respawn swapped us out while
            // idle, or the tenant handle is gone
            return;
        };
        if shared.epoch.load(Ordering::Acquire) != spec.epoch {
            // superseded (we were declared wedged): drop the command —
            // its ticket and reply sender answer the caller — and get
            // out of the new executor's way
            return;
        }
        maybe_kill(shared, ExecutorKillPoint::Recv);
        shared
            .busy_since_ms
            .store(now_ms(spec.started).max(1), Ordering::Release);
        match command {
            Command::Shutdown => return,
            Command::Load { module, source, ticket, reply } => {
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    handle_load(&mut modules, spec, &module, &source)
                }))
                .unwrap_or_else(|p| Err(ServeError::Internal(panic_message(p))));
                // Publish + release before replying: a caller that acts
                // on the reply (metrics scrape, next call) must see this
                // command's snapshot and its freed slot.
                publish_snapshot(spec.epoch, shared, &modules);
                maybe_kill(shared, ExecutorKillPoint::PreReply);
                ticket.release();
                let _ = reply.send(result);
            }
            Command::Unload { module, ticket, reply } => {
                let result = if modules.remove(&module).is_some() {
                    let unloaded = with_journal(shared, spec.epoch, |journal| {
                        journal.modules.remove(&module)
                    });
                    if let Some(Some(entry)) = unloaded {
                        spec.holds.release(&entry.cache);
                    }
                    Ok(())
                } else {
                    Err(ServeError::NoSuchModule(module))
                };
                publish_snapshot(spec.epoch, shared, &modules);
                maybe_kill(shared, ExecutorKillPoint::PreReply);
                ticket.release();
                let _ = reply.send(result);
            }
            Command::Call { module, entry, args, fuel, ticket, reply } => {
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    handle_call(&mut modules, spec, &module, &entry, &args, fuel)
                }))
                .unwrap_or_else(|p| Err(ServeError::Internal(panic_message(p))));
                match &result {
                    Ok(run) => {
                        let counter = match run.outcome {
                            TierOutcome::Value(_) => &shared.counters.calls_ok,
                            TierOutcome::Trap(_) => &shared.counters.calls_trapped,
                            TierOutcome::OutOfFuel => &shared.counters.calls_out_of_fuel,
                        };
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(ServeError::TiersExhausted { .. }) => {
                        shared.counters.calls_exhausted.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {}
                }
                record_breaker(spec, &module, &entry, &result);
                publish_snapshot(spec.epoch, shared, &modules);
                maybe_kill(shared, ExecutorKillPoint::PreReply);
                ticket.release();
                let _ = reply.send(result);
            }
            Command::ArmKills { module, kills, calls, ticket, reply } => {
                let result = match modules.get_mut(&module) {
                    None => Err(ServeError::NoSuchModule(module)),
                    Some(rt) => {
                        rt.supervisor.clear_kills();
                        for kill in kills {
                            rt.supervisor.arm_kill(kill);
                        }
                        rt.kill_calls_left = (calls > 0).then_some(calls);
                        Ok(())
                    }
                };
                ticket.release();
                let _ = reply.send(result);
            }
        }
        if shared.epoch.load(Ordering::Acquire) != spec.epoch {
            // a respawn happened while we were busy (wedge verdict):
            // don't touch the heartbeat the new executor now owns
            return;
        }
        shared.busy_since_ms.store(0, Ordering::Release);
        shared.heartbeat.fetch_add(1, Ordering::Relaxed);
        maybe_kill(shared, ExecutorKillPoint::PostReply);
    }
}

/// Rebuilds the module table of a (re)spawned executor from the
/// tenant's journal: every journaled module is re-loaded through the
/// shared cache (warm image attach — the image was published at first
/// load), its lifetime counters are seeded from the carried baselines,
/// and its quarantines are re-imposed so a faulty tier is not retried
/// just because the process state was rebuilt. A module whose rebuild
/// fails (hostile storage) is marked failed and skipped — it answers
/// `NoSuchModule` until a later rebuild or an explicit re-load heals
/// it; the executor itself always comes up.
fn rebuild_from_journal(spec: &ExecutorSpec) -> BTreeMap<String, ModuleRuntime> {
    let shared = &spec.shared;
    maybe_kill(shared, ExecutorKillPoint::Rebuild);
    let entries: Vec<(String, JournalEntry)> = lock_plain(&shared.journal)
        .modules
        .iter()
        .map(|(name, entry)| (name.clone(), entry.clone()))
        .collect();
    let mut modules = BTreeMap::new();
    for (name, entry) in entries {
        let rebuilt = panic::catch_unwind(AssertUnwindSafe(|| {
            build_runtime(spec, &entry.source)
        }))
        .unwrap_or_else(|p| Err(ServeError::Internal(panic_message(p))));
        // the journal entry already holds its cache
        if let Ok((_, reply)) = &rebuilt {
            spec.holds.release(&reply.cache);
        }
        match rebuilt {
            // Journal integrity: the rebuilt module must address the
            // same cache (same stamp) and define the same functions as
            // what was journaled — anything else means the journal and
            // the source text disagree, and warm-attached native code
            // would be for the wrong module.
            Ok((_, reply))
                if reply.cache != format!("m{:016x}", entry.stamp)
                    || reply.functions != entry.functions =>
            {
                with_journal(shared, spec.epoch, |journal| {
                    if let Some(e) = journal.modules.get_mut(&name) {
                        e.failed = true;
                    }
                });
            }
            Ok((mut rt, _)) => {
                rt.carried = entry.carried;
                for (function, tier) in &entry.quarantined {
                    rt.supervisor.impose_quarantine(function, *tier);
                }
                with_journal(shared, spec.epoch, |journal| {
                    if let Some(e) = journal.modules.get_mut(&name) {
                        e.failed = false;
                    }
                });
                modules.insert(name, rt);
            }
            Err(_) => {
                with_journal(shared, spec.epoch, |journal| {
                    if let Some(e) = journal.modules.get_mut(&name) {
                        e.failed = true;
                    }
                });
            }
        }
    }
    modules
}

/// Records a call outcome against the module/function breaker: a value
/// (or trap/out-of-fuel — the tiers answered) closes it, a
/// `TiersExhausted` counts toward or deepens the open state. Other
/// errors (no such module, internal) are neutral. Epoch-fenced like
/// every shared write.
fn record_breaker(
    spec: &ExecutorSpec,
    module: &str,
    entry: &str,
    result: &Result<CallResult, ServeError>,
) {
    if spec.config.breaker_threshold == 0 {
        return;
    }
    let failure = matches!(result, Err(ServeError::TiersExhausted { .. }));
    if !failure && result.is_err() {
        return;
    }
    let shared = &spec.shared;
    if shared.epoch.load(Ordering::Acquire) != spec.epoch {
        return;
    }
    let mut breakers = lock_plain(&shared.breakers);
    if !failure && !breakers.contains_key(&(module.to_string(), entry.to_string())) {
        // success with no breaker history: don't allocate an entry
        return;
    }
    let breaker = breakers
        .entry((module.to_string(), entry.to_string()))
        .or_default();
    if !failure {
        breaker.failures = 0;
        breaker.opens = 0;
        breaker.state = BreakerState::Closed;
        return;
    }
    match breaker.state {
        BreakerState::Closed => {
            breaker.failures += 1;
            if breaker.failures >= spec.config.breaker_threshold {
                trip_breaker(breaker, &spec.config);
            }
        }
        // a failed half-open probe (or a failure racing the open
        // window) re-opens with deeper backoff
        BreakerState::HalfOpen | BreakerState::Open => trip_breaker(breaker, &spec.config),
    }
}

/// Builds a module runtime over the shared cache: parse, warm image
/// attach (zero-copy `mmap` when the storage exposes a file, falling
/// back to a read, falling back to a cold build-and-publish), parallel
/// translation warmup, and the supervisor. Used by both first loads
/// and journal rebuilds.
fn build_runtime(
    spec: &ExecutorSpec,
    source: &str,
) -> Result<(ModuleRuntime, LoadReply), ServeError> {
    let config = &spec.config;
    let storage = &spec.storage;
    let parsed = llva_core::parser::parse_module(source)
        .map_err(|e| ServeError::BadModule(e.to_string()))?;
    // Executors treat a load image that overflows their address space as
    // a bug (a panic); for a tenant's module it is just a bad module.
    let needed = llee::load_image_end(&parsed, config.isa);
    if needed > spec.quota.memory_bytes {
        return Err(ServeError::BadModule(format!(
            "global image needs {needed} bytes of address space, the tenant's limit is {}",
            spec.quota.memory_bytes
        )));
    }
    let functions = parsed
        .functions()
        .filter(|(_, f)| !f.is_declaration())
        .count();
    // Content-addressed cache: identical module text shares translations
    // across tenants; different text gets a disjoint cache, so tenants
    // can never thrash each other's entries.
    let module_stamp = llee::stamp(&parsed);
    let cache = format!("m{module_stamp:016x}");
    // Hold the cache before probing it: a concurrent release of its
    // last other holder must not delete what this load finds or writes.
    spec.holds.take(&cache);
    {
        let mut handle = storage.clone();
        handle.create_cache(&cache);
    }
    // Warm-load probe: an earlier process (or another tenant of this
    // shared cache) may have published a persistent module image under
    // IMAGE_ENTRY. Fast path: when the storage exposes the entry as a
    // file (DirStorage), mmap it zero-copy from the offset the storage
    // reports. Validate the entry's timestamp (== the module stamp) AND
    // the image's own stamp against this module before trusting it; any
    // mismatch or error degrades to the owned-read path, then to the
    // cold path, never to an error.
    let mut image: Option<Arc<LlvaImage>> = None;
    let mut image_mapped = false;
    #[cfg(unix)]
    if let Some((path, offset)) = storage.file_path(&cache, IMAGE_ENTRY) {
        if storage.timestamp(&cache, IMAGE_ENTRY) == Some(module_stamp) {
            if let Ok(img) = llva_engine::image::map_image_file(&path, offset) {
                if img.stamp() == module_stamp {
                    image = Some(Arc::new(img));
                    image_mapped = true;
                }
            }
        }
    }
    if image.is_none() {
        image = storage
            .read(&cache, IMAGE_ENTRY)
            .filter(|&(_, ts)| ts == module_stamp)
            .and_then(|(bytes, _)| LlvaImage::parse(bytes).ok())
            .filter(|img| img.stamp() == module_stamp)
            .map(Arc::new);
    }
    // Translation warmup through the worker pool, so the image published
    // below is complete: the module's supervisor then installs every
    // function from it once, on first use, and keeps the code resident.
    // The warmup reads the image alone and writes no storage entry: the
    // image is where this module's code is stored, once. With a whole
    // image already there, the warmup is a no-op.
    let workers = if config.translate_workers == 0 {
        ExecutionManager::default_workers()
    } else {
        config.translate_workers
    };
    let mut warm =
        ExecutionManager::with_memory_size(parsed.clone(), config.isa, spec.quota.memory_bytes);
    if let Some(img) = &image {
        warm.set_image(img.clone());
    }
    if let Err(e) = warm.translate_all_parallel(workers) {
        spec.holds.release(&cache);
        return Err(ServeError::BadModule(format!("translation failed: {e}")));
    }
    let warmup = warm.stats();
    // Publish an image whenever the warmup translated anything — a cold
    // start, or an image whose native section was damaged — so every
    // later load of this module (any tenant, any process, any respawn)
    // skips translation AND SSA re-lowering. Built over the *parsed*
    // module (its stamp is the cache address); the native section
    // carries the warm manager's target-configured per-function stamps.
    if warmup.functions_translated > 0 {
        let pre = PreModule::new(&parsed);
        pre.decode_all();
        let mut builder = ImageBuilder::new(&parsed);
        builder.add_predecode(&pre);
        builder.add_native(config.isa, &warm.native_image_entries());
        let bytes = builder.finish();
        let mut handle = storage.clone();
        handle.write(&cache, IMAGE_ENTRY, &bytes, module_stamp);
        image = LlvaImage::parse(bytes).ok().map(Arc::new);
        image_mapped = false;
    }
    drop(warm);

    let mut supervisor =
        Supervisor::with_memory_size(parsed, config.isa, spec.quota.memory_bytes);
    supervisor.set_storage(Box::new(storage.clone()), &cache);
    if let Some(img) = image {
        supervisor.set_image(img);
    }
    supervisor.set_max_faults(config.max_faults);
    supervisor.set_incident_capacity(config.incident_capacity);
    supervisor.set_cross_check(config.cross_check);
    if let Some(calls) = config.probe_after {
        supervisor.set_probe_after(calls);
    }
    if let Some(budget) = config.watchdog {
        supervisor.set_watchdog(budget);
    }
    let runtime = ModuleRuntime {
        supervisor,
        cache: cache.clone(),
        functions,
        warmup,
        carried: CarriedStats::default(),
        kill_calls_left: None,
    };
    let reply = LoadReply {
        module: String::new(),
        cache,
        functions,
        warmup,
        image_mapped,
    };
    Ok((runtime, reply))
}

fn handle_load(
    modules: &mut BTreeMap<String, ModuleRuntime>,
    spec: &ExecutorSpec,
    module_name: &str,
    source: &str,
) -> Result<LoadReply, ServeError> {
    let shared = &spec.shared;
    if modules.len() >= spec.quota.max_modules && !modules.contains_key(module_name) {
        shared.counters.rejected_module.fetch_add(1, Ordering::Relaxed);
        return Err(ServeError::QuotaExceeded {
            kind: QuotaKind::Module,
            detail: format!("{} module(s) already loaded", spec.quota.max_modules),
        });
    }
    let (runtime, mut reply) = build_runtime(spec, source)?;
    reply.module = module_name.to_string();
    // Journal the load for crash recovery: source (the rebuild input),
    // stamp/cache (the warm re-attach address), and fresh baselines —
    // a re-load of the same name is a new module, counters restart.
    let stamp = u64::from_str_radix(reply.cache.trim_start_matches('m'), 16).unwrap_or(0);
    let replaced = with_journal(shared, spec.epoch, |journal| {
        journal.modules.insert(
            module_name.to_string(),
            JournalEntry {
                source: source.to_string(),
                stamp,
                cache: reply.cache.clone(),
                functions: reply.functions,
                carried: CarriedStats::default(),
                quarantined: Vec::new(),
                failed: false,
            },
        )
    });
    // The journal entry now holds the new cache; the entry it replaced
    // lets go of the old one (a superseded executor journals nothing,
    // so it lets go of the hold it just took).
    match replaced {
        Some(Some(old)) => spec.holds.release(&old.cache),
        Some(None) => {}
        None => spec.holds.release(&reply.cache),
    }
    modules.insert(module_name.to_string(), runtime);
    Ok(reply)
}

fn handle_call(
    modules: &mut BTreeMap<String, ModuleRuntime>,
    spec: &ExecutorSpec,
    module: &str,
    entry: &str,
    args: &[u64],
    fuel: u64,
) -> Result<CallResult, ServeError> {
    let shared = &spec.shared;
    let config = &spec.config;
    let rt = modules
        .get_mut(module)
        .ok_or_else(|| ServeError::NoSuchModule(module.to_string()))?;
    // Clamp to the per-call ceiling AND the remaining budget: a tenant
    // on its last fuel can never overshoot the budget by more than the
    // final clamped call actually burns.
    let remaining = shared.fuel_remaining.load(Ordering::Acquire);
    let requested = if fuel == 0 { spec.quota.max_call_fuel } else { fuel };
    let call_fuel = requested.min(spec.quota.max_call_fuel).min(remaining.max(1));
    rt.supervisor.set_fuel(call_fuel);

    let mut retries_used = 0u32;
    let mut incidents_total = 0u32;
    let result = loop {
        let attempt = rt.supervisor.run(entry, args);
        // The armed-kill countdown ticks per supervisor attempt, not per
        // command: kills armed for N calls model a transient fault that
        // clears while the serve-level retry loop is still working the
        // same call, so a retry after the countdown runs against healthy
        // tiers — the deterministic stand-in for a fault that healed.
        if let Some(left) = rt.kill_calls_left {
            if left <= 1 {
                rt.supervisor.clear_kills();
                rt.kill_calls_left = None;
            } else {
                rt.kill_calls_left = Some(left - 1);
            }
        }
        match attempt {
            Ok(run) => {
                break Ok(CallResult {
                    outcome: run.outcome,
                    tier: run.tier,
                    degraded: run.degraded,
                    steps: run.steps,
                    retries: retries_used,
                });
            }
            Err(SupervisorError::NoSuchFunction(n)) => {
                break Err(ServeError::NoSuchFunction(n));
            }
            Err(SupervisorError::TiersExhausted { function, incidents }) => {
                incidents_total += incidents;
                if retries_used >= config.max_retries {
                    break Err(ServeError::TiersExhausted {
                        incidents: incidents_total,
                        retries: retries_used,
                    });
                }
                retries_used += 1;
                shared.counters.retries.fetch_add(1, Ordering::Relaxed);
                // Exponential backoff, then a clean ladder: a transient
                // storage fault heals across the retry; a genuinely
                // poisoned function just re-quarantines and exhausts
                // the bounded budget.
                std::thread::sleep(config.retry_backoff * (1u32 << (retries_used - 1).min(16)));
                rt.supervisor.lift_all_quarantines(&function);
            }
        }
    };
    if let Ok(run) = &result {
        shared.counters.fuel_used.fetch_add(run.steps, Ordering::Relaxed);
        let _ = shared
            .fuel_remaining
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                Some(cur.saturating_sub(run.steps))
            });
    }
    result
}

/// Publishes the tenant snapshot and refreshes the journal's carried
/// baselines — both epoch-fenced, so a superseded executor can never
/// overwrite the state of its replacement. Published counters are the
/// carried baselines plus this epoch's live counters: lifetime totals
/// that stay monotonic across respawns.
fn publish_snapshot(
    my_epoch: u64,
    shared: &TenantShared,
    modules: &BTreeMap<String, ModuleRuntime>,
) {
    let snapshot = TenantSnapshot {
        epoch: my_epoch,
        modules: modules
            .iter()
            .map(|(name, rt)| {
                let log = rt.supervisor.incident_log();
                let recent = log
                    .incidents()
                    .iter()
                    .rev()
                    .take(SNAPSHOT_RECENT_INCIDENTS)
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .into_iter()
                    .rev()
                    .collect();
                let mut tier_counters = rt.carried.tiers;
                for (acc, live) in tier_counters.iter_mut().zip(rt.supervisor.tier_counters()) {
                    acc.merge(live);
                }
                let mut translation = rt.carried.translation;
                translation.merge(&rt.warmup);
                translation.merge(&rt.supervisor.translation_stats());
                ModuleSnapshot {
                    name: name.clone(),
                    cache: rt.cache.clone(),
                    functions: rt.functions,
                    incidents_len: log.len(),
                    incidents_dropped: rt.carried.incidents_dropped + log.dropped(),
                    incidents_total: rt.carried.incidents_total + log.total_recorded(),
                    recent_incidents: recent,
                    quarantined: rt.supervisor.quarantined(),
                    tier_counters,
                    translation,
                }
            })
            .collect(),
    };
    // Refresh the journal with the published (lifetime) totals: if
    // this executor dies, its successor carries on from exactly what
    // the world last saw.
    with_journal(shared, my_epoch, |journal| {
        for m in &snapshot.modules {
            if let Some(e) = journal.modules.get_mut(&m.name) {
                e.carried = CarriedStats {
                    incidents_total: m.incidents_total,
                    incidents_dropped: m.incidents_dropped,
                    tiers: m.tier_counters,
                    translation: m.translation,
                };
                e.quarantined = m.quarantined.clone();
            }
        }
    });
    let mut guard = lock_plain(&shared.snapshot);
    if guard.epoch <= my_epoch {
        *guard = snapshot;
    }
}
