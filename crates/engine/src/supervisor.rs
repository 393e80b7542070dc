//! The tiered execution supervisor: graceful degradation for LLEE.
//!
//! The paper's premise is that the translator and execution engine are
//! *invisible* system software (§4.1): a bad translation, a panicking
//! fast path, or a runaway tier must never surface as a crash of the
//! "hardware". The [`Supervisor`] makes that discipline explicit: every
//! run walks a **tier ladder**
//!
//! ```text
//! translated native code  →  pre-decoded FastInterpreter  →  structural Interpreter
//! ```
//!
//! where each tier executes under `catch_unwind` plus a fuel/step
//! watchdog. (The hot-trace tier, [`crate::traced`], is not a rung: it
//! is the pre-decoded executor with tracing on, so it would add a rung
//! but no new executor.) On a panic, an engine fault, or watchdog
//! expiry the supervisor **quarantines** that `(function, tier)` pair,
//! records a structured [`Incident`] (tier, function, cause, recovery
//! action, prior-fault count), and transparently re-runs on the next
//! tier — the caller still gets a [`SupervisedRun`]. The structural [`Interpreter`]
//! is the last rung: it is the semantic oracle (PR 3/4) and always runs
//! with the caller's full fuel.
//!
//! # Cross-check mode
//!
//! With [`Supervisor::set_cross_check`] enabled (used by the
//! conformance oracle and the fault-injection suites), the answering
//! fast tier's outcome is verified against the structural interpreter
//! before being served. A divergence is treated as a *fault of the fast
//! tier*: it is quarantined and the ladder continues, so a wrong answer
//! is never propagated. This mirrors the SMC/SEC invalidation model of
//! §3.4 — distrust the derived artifact, never the virtual object code.
//!
//! # Determinism
//!
//! Incidents carry no wall-clock data, quarantine state is kept in
//! ordered maps, and fault injection ([`TierKill`],
//! [`crate::storage::FaultyStorage`]) is seed/count based — the same
//! inputs replay the same [`IncidentLog`] bit for bit.

use crate::interp::Interpreter;
use crate::llee::{EngineError, ExecutionManager, TargetIsa};
use crate::predecode::FastInterpreter;
use crate::storage::Storage;
use crate::InterpError;
use llva_core::module::Module;
use llva_machine::common::TrapKind;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// One rung of the execution ladder, fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// LLEE-translated native code on the simulated processor.
    Translated,
    /// The pre-decoded register-file interpreter (tracing off).
    FastInterp,
    /// The structural reference interpreter (the semantic oracle).
    Interp,
}

impl Tier {
    /// The full ladder, fastest tier first.
    pub const LADDER: [Tier; 3] = [Tier::Translated, Tier::FastInterp, Tier::Interp];

    /// Dense index (for per-tier counter arrays).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Tier::Translated => 0,
            Tier::FastInterp => 1,
            Tier::Interp => 2,
        }
    }

    /// Parses the names used by `LLVA_KILL_TIER` (`translated`,
    /// `fast-interp`/`predecode`, `interp`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Tier> {
        match s.trim() {
            "translated" => Some(Tier::Translated),
            "fast-interp" | "predecode" => Some(Tier::FastInterp),
            "interp" => Some(Tier::Interp),
            _ => None,
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Tier::Translated => "translated",
            Tier::FastInterp => "fast-interp",
            Tier::Interp => "interp",
        })
    }
}

/// The semantic outcome of one tier — the only observations all tiers
/// must agree on (return bits, precise trap kind, or fuel exhaustion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierOutcome {
    /// Normal completion with the returned raw bits.
    Value(u64),
    /// A precise trap of this kind.
    Trap(TrapKind),
    /// The caller's fuel limit was genuinely exhausted (not the
    /// watchdog — that is an [`IncidentCause::Watchdog`] fault).
    OutOfFuel,
}

impl fmt::Display for TierOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TierOutcome::Value(v) => write!(f, "value {v:#x} ({})", *v as i64),
            TierOutcome::Trap(k) => write!(f, "trap: {k}"),
            TierOutcome::OutOfFuel => f.write_str("out of fuel"),
        }
    }
}

/// Why a tier was taken out of service for one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncidentCause {
    /// The tier panicked; the payload message is preserved.
    Panic(String),
    /// The tier reported an engine fault that is not a semantic
    /// outcome (e.g. a missing body or a poisoned translation).
    Fault(String),
    /// The tier exceeded the supervisor's step watchdog while the
    /// caller's fuel budget still had headroom.
    Watchdog {
        /// The step budget the tier blew through.
        budget: u64,
    },
    /// Cross-check mode: the tier's outcome disagreed with the
    /// structural interpreter.
    Divergence {
        /// What the structural interpreter observed.
        expected: TierOutcome,
        /// What this tier produced instead.
        got: TierOutcome,
    },
    /// A quarantine probe succeeded: the pair had earned a one-shot
    /// retry by serving lower-tier calls, the retry passed (including
    /// cross-check when enabled), and the tier was restored to service.
    ProbeRecovered {
        /// Successful lower-tier calls observed before the probe.
        successes: u32,
    },
}

impl fmt::Display for IncidentCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncidentCause::Panic(msg) => write!(f, "panic: {msg}"),
            IncidentCause::Fault(msg) => write!(f, "fault: {msg}"),
            IncidentCause::Watchdog { budget } => {
                write!(f, "watchdog expired (budget {budget} steps)")
            }
            IncidentCause::Divergence { expected, got } => {
                write!(f, "divergence: expected {expected}, got {got}")
            }
            IncidentCause::ProbeRecovered { successes } => {
                write!(f, "probe recovered (after {successes} lower-tier successes)")
            }
        }
    }
}

/// What the supervisor did about an incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Execution degraded to this (slower, known-good) tier.
    FellBack(Tier),
    /// No rung remained; the run failed with
    /// [`SupervisorError::TiersExhausted`].
    Exhausted,
    /// A quarantine probe passed and this tier returned to service.
    Restored(Tier),
}

impl fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryAction::FellBack(t) => write!(f, "fell back to {t}"),
            RecoveryAction::Exhausted => f.write_str("all tiers exhausted"),
            RecoveryAction::Restored(t) => write!(f, "restored {t} to service"),
        }
    }
}

/// One structured fault report: which tier failed on which function,
/// why, what the supervisor did, and how often this pair had already
/// faulted before this incident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// Ordinal of this incident across the log's whole lifetime
    /// (0-based, monotonically increasing — the log's only notion of
    /// time; stays monotonic even after older incidents are dropped by
    /// the ring-buffer cap).
    pub seq: u64,
    /// The faulting tier.
    pub tier: Tier,
    /// The entry function of the supervised run.
    pub function: String,
    /// Why the tier failed.
    pub cause: IncidentCause,
    /// What the supervisor did next.
    pub recovery: RecoveryAction,
    /// Prior recorded faults for this `(function, tier)` pair.
    pub retries: u32,
    /// True when the fault was produced by an armed [`TierKill`]
    /// (fault-injection runs use this to separate expected kills from
    /// genuine bugs).
    pub injected: bool,
    /// True when this incident was produced by a quarantine probe (the
    /// one-shot retry of a quarantined pair): either the probe's own
    /// fault, or the [`IncidentCause::ProbeRecovered`] success report.
    pub probe: bool,
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{} tier {} fn %{}: {} -> {} (prior faults {}{}{})",
            self.seq,
            self.tier,
            self.function,
            self.cause,
            self.recovery,
            self.retries,
            if self.injected { ", injected" } else { "" },
            if self.probe { ", probe" } else { "" }
        )
    }
}

/// The default [`IncidentLog`] ring-buffer capacity: large enough that
/// a real investigation sees deep history, small enough that a tenant
/// flapping for weeks cannot grow a long-running service without bound.
pub const DEFAULT_INCIDENT_CAPACITY: usize = 1024;

/// The bounded incident log of one supervisor: a ring buffer keeping
/// the most recent [`IncidentLog::capacity`] incidents. Older incidents
/// are dropped (counted by [`IncidentLog::dropped`]) rather than
/// accumulated — a flapping function cannot OOM a long-running service.
/// Sequence numbers stay monotonic across drops, so a gap in `seq` is
/// visible evidence of discarded history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentLog {
    incidents: Vec<Incident>,
    capacity: usize,
    dropped: u64,
}

impl Default for IncidentLog {
    fn default() -> IncidentLog {
        IncidentLog::with_capacity(DEFAULT_INCIDENT_CAPACITY)
    }
}

impl IncidentLog {
    /// An empty log keeping at most `capacity` (≥ 1) incidents.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> IncidentLog {
        IncidentLog {
            incidents: Vec::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// The retained incidents, oldest first.
    #[must_use]
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Number of incidents currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.incidents.len()
    }

    /// True when nothing has ever gone wrong (no retained incidents
    /// *and* none dropped).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.incidents.is_empty() && self.dropped == 0
    }

    /// The ring-buffer capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Incidents dropped by the ring buffer so far (monotonic).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Incidents ever recorded: retained plus dropped.
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.dropped + self.incidents.len() as u64
    }

    /// Re-caps the ring buffer (≥ 1), dropping the oldest retained
    /// incidents if the new capacity is smaller.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        if self.incidents.len() > self.capacity {
            let excess = self.incidents.len() - self.capacity;
            self.incidents.drain(..excess);
            self.dropped += excess as u64;
        }
    }

    /// A compact one-line summary (for failure reports): every retained
    /// incident's tier and cause, semicolon separated.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.incidents.is_empty() && self.dropped == 0 {
            return "no incidents".to_string();
        }
        let mut parts: Vec<String> = Vec::new();
        if self.dropped > 0 {
            parts.push(format!("[{} older dropped]", self.dropped));
        }
        parts.extend(
            self.incidents
                .iter()
                .map(|i| format!("{}: {}", i.tier, i.cause)),
        );
        parts.join("; ")
    }

    fn push(&mut self, mut incident: Incident) {
        incident.seq = self.total_recorded();
        if self.incidents.len() >= self.capacity {
            let excess = self.incidents.len() + 1 - self.capacity;
            self.incidents.drain(..excess);
            self.dropped += excess as u64;
        }
        self.incidents.push(incident);
    }
}

/// Per-tier counters (the `exec_stats()`-style health surface).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Runs attempted on this tier.
    pub attempts: u64,
    /// Runs this tier answered (its outcome was served to the caller).
    pub served: u64,
    /// Panics caught in this tier.
    pub panics: u64,
    /// Non-panic engine faults in this tier.
    pub faults: u64,
    /// Watchdog expiries in this tier.
    pub watchdog_expiries: u64,
    /// Cross-check divergences charged to this tier.
    pub divergences: u64,
    /// Runs that skipped this tier because the `(function, tier)` pair
    /// was quarantined.
    pub skipped_quarantined: u64,
    /// Quarantine probes attempted on this tier (one-shot retries of a
    /// quarantined pair; see [`Supervisor::set_probe_after`]).
    pub probes: u64,
}

impl TierCounters {
    /// Accumulates `other` into `self` (long-running surfaces aggregate
    /// per-supervisor counters across modules).
    pub fn merge(&mut self, other: &TierCounters) {
        self.attempts += other.attempts;
        self.served += other.served;
        self.panics += other.panics;
        self.faults += other.faults;
        self.watchdog_expiries += other.watchdog_expiries;
        self.divergences += other.divergences;
        self.skipped_quarantined += other.skipped_quarantined;
        self.probes += other.probes;
    }
}

/// A successful supervised run: the outcome plus which rung produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisedRun {
    /// The semantic outcome (identical across tiers by construction).
    pub outcome: TierOutcome,
    /// The tier that produced the answer.
    pub tier: Tier,
    /// True when any faster tier was skipped or faulted on the way.
    pub degraded: bool,
    /// Steps the answering tier executed (native instructions for the
    /// translated tier, LLVA instructions for the interpreters).
    pub steps: u64,
}

impl SupervisedRun {
    /// The returned raw bits, if the run completed normally.
    #[must_use]
    pub fn value(&self) -> Option<u64> {
        match self.outcome {
            TierOutcome::Value(v) => Some(v),
            _ => None,
        }
    }
}

/// Why a supervised run produced no outcome at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorError {
    /// The entry function does not exist or has no body (checked before
    /// any tier runs; not a tier fault).
    NoSuchFunction(String),
    /// Every rung of the ladder faulted or was quarantined.
    TiersExhausted {
        /// The entry function whose ladder ran dry.
        function: String,
        /// Incidents recorded during this run.
        incidents: u32,
    },
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupervisorError::NoSuchFunction(n) => write!(f, "no such function %{n}"),
            SupervisorError::TiersExhausted { function, incidents } => write!(
                f,
                "all execution tiers exhausted for %{function} ({incidents} incident(s) this run)"
            ),
        }
    }
}

impl std::error::Error for SupervisorError {}

/// How an armed [`TierKill`] sabotages its tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillMode {
    /// Panic inside the rung's `catch_unwind`, after its executor is
    /// built and before it runs — the same point on every rung.
    Panic,
    /// Flip the returned value (a *silent* wrong answer — only
    /// cross-check mode can catch this one).
    WrongValue,
}

/// A deterministic fault-injection directive: sabotage one tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierKill {
    /// The tier to sabotage.
    pub tier: Tier,
    /// How.
    pub mode: KillMode,
}

impl TierKill {
    /// A panic kill for `tier`.
    #[must_use]
    pub fn panic(tier: Tier) -> TierKill {
        TierKill { tier, mode: KillMode::Panic }
    }

    /// A silent wrong-value kill for `tier`.
    #[must_use]
    pub fn wrong_value(tier: Tier) -> TierKill {
        TierKill { tier, mode: KillMode::WrongValue }
    }
}

/// Parses the `LLVA_KILL_TIER` environment variable: a comma-separated
/// list of tier names (`translated,fast-interp`), each armed as a panic
/// kill. Unset or empty yields no kills.
///
/// # Panics
///
/// On a name [`Tier::parse`] does not know: a stale tier name would
/// otherwise arm nothing and let a fault-injection run pass unkilled.
#[must_use]
pub fn kills_from_env() -> Vec<TierKill> {
    let spec = std::env::var("LLVA_KILL_TIER").unwrap_or_default();
    parse_kills(&spec).unwrap_or_else(|e| panic!("LLVA_KILL_TIER: {e}"))
}

/// Parses a comma-separated tier list into panic kills, naming the
/// first unknown entry and the valid names when one does not parse.
fn parse_kills(spec: &str) -> Result<Vec<TierKill>, String> {
    spec.split(',')
        .filter(|name| !name.trim().is_empty())
        .map(|name| {
            Tier::parse(name).map(TierKill::panic).ok_or_else(|| {
                format!(
                    "unknown tier {:?} (valid: translated, fast-interp, predecode, interp)",
                    name.trim()
                )
            })
        })
        .collect()
}

/// What one tier execution produced, pre-recovery.
enum TierRun {
    Done(TierOutcome, u64),
    Fault(IncidentCause),
}

/// The tiered execution supervisor (see the module docs).
pub struct Supervisor {
    module: Module,
    isa: TargetIsa,
    memory_size: u64,
    fuel: u64,
    watchdog: Option<u64>,
    cross_check: bool,
    kills: Vec<TierKill>,
    max_faults: u32,
    probe_after: Option<u32>,
    /// The translated rung's executor: built on first use and kept for
    /// the supervisor's lifetime, so code is translated (or attached)
    /// once, not once per call. Between runs it is parked — no process,
    /// no simulated memory. `None` before the first translated run and
    /// after a panic unwound through it (its state is then suspect, so
    /// the next attempt builds a new one).
    manager: Option<ExecutionManager>,
    /// Storage waiting for a manager to own it, and the cache it names.
    storage: Option<Box<dyn Storage>>,
    cache_name: String,
    quarantine: BTreeSet<(String, Tier)>,
    fault_counts: BTreeMap<(String, Tier), u32>,
    probe_successes: BTreeMap<(String, Tier), u32>,
    log: IncidentLog,
    counters: [TierCounters; Tier::LADDER.len()],
    /// Translation statistics of managers already discarded.
    translation: crate::llee::TranslationStats,
    /// Warm-load fast path: a persistent module image probed before
    /// any tier lowers or translates (shared across tiers and runs).
    image: Option<std::sync::Arc<crate::image::LlvaImage>>,
}

impl fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervisor")
            .field("module", &self.module.name())
            .field("isa", &self.isa)
            .field("incidents", &self.log.len())
            .field("quarantined", &self.quarantine)
            .finish()
    }
}

impl Supervisor {
    /// A supervisor over `module` whose translated tier targets `isa`,
    /// with the default 16 MiB memory.
    #[must_use]
    pub fn new(module: Module, isa: TargetIsa) -> Supervisor {
        Supervisor::with_memory_size(module, isa, crate::DEFAULT_MEMORY_SIZE)
    }

    /// [`Supervisor::new`] with a custom simulated memory size.
    #[must_use]
    pub fn with_memory_size(module: Module, isa: TargetIsa, memory_size: u64) -> Supervisor {
        Supervisor {
            module,
            isa,
            memory_size,
            fuel: 10_000_000_000,
            watchdog: None,
            cross_check: false,
            kills: Vec::new(),
            max_faults: 1,
            probe_after: None,
            manager: None,
            storage: None,
            cache_name: String::new(),
            quarantine: BTreeSet::new(),
            fault_counts: BTreeMap::new(),
            probe_successes: BTreeMap::new(),
            log: IncidentLog::default(),
            counters: [TierCounters::default(); Tier::LADDER.len()],
            translation: crate::llee::TranslationStats::default(),
            image: None,
        }
    }

    /// Attaches a persistent module image ([`crate::image::LlvaImage`]):
    /// the translated tier reads its native section before storage
    /// (see [`crate::llee::ExecutionManager::set_image`]), and the
    /// pre-decoded interpreter
    /// tiers deserialize its predecode section on demand instead of
    /// re-lowering SSA. The image's module stamp is verified against
    /// this supervisor's module *once, here* — so the per-execution
    /// warm loads can trust the records without re-deriving content
    /// hashes. A mismatched image is refused (returns `false`) and the
    /// supervisor keeps its cold paths; corrupt sections degrade the
    /// same way at load time. Attaching an image never changes
    /// outcomes, only costs.
    pub fn set_image(&mut self, image: std::sync::Arc<crate::image::LlvaImage>) -> bool {
        if crate::llee::stamp(&self.module) != image.stamp() {
            return false;
        }
        if let Some(mgr) = &mut self.manager {
            mgr.set_image(image.clone());
        }
        self.image = Some(image);
        true
    }

    /// The module being supervised.
    #[must_use]
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Limits each run's step budget (the semantic fuel limit; see also
    /// [`Supervisor::set_watchdog`]).
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Arms the per-tier step watchdog: a *fast* tier exceeding
    /// `budget` steps (while the caller's fuel still has headroom) is
    /// treated as hung — an incident, not an outcome. The final
    /// structural-interpreter rung always runs with the full fuel, so a
    /// genuine infinite loop still reports [`TierOutcome::OutOfFuel`].
    pub fn set_watchdog(&mut self, budget: u64) {
        self.watchdog = Some(budget);
    }

    /// Enables cross-check mode (see the module docs).
    pub fn set_cross_check(&mut self, enabled: bool) {
        self.cross_check = enabled;
    }

    /// How many faults a `(function, tier)` pair tolerates before
    /// quarantine (default 1: the first fault quarantines).
    pub fn set_max_faults(&mut self, max_faults: u32) {
        self.max_faults = max_faults.max(1);
    }

    /// Enables quarantine recovery probes: after `calls` (≥ 1)
    /// successful lower-tier runs of a function, its quarantined
    /// `(function, tier)` pair earns one supervised retry instead of
    /// staying quarantined forever. A passing probe (including the
    /// cross-check when enabled) restores the tier and logs an
    /// [`IncidentCause::ProbeRecovered`]; a failing probe re-quarantines
    /// and must earn another `calls` successes before the next probe.
    /// At most one pair is probed per run, fastest tier first. Default:
    /// disabled (quarantine is permanent).
    pub fn set_probe_after(&mut self, calls: u32) {
        self.probe_after = Some(calls.max(1));
    }

    /// Disables quarantine recovery probes (the default).
    pub fn clear_probe_after(&mut self) {
        self.probe_after = None;
    }

    /// Re-caps the incident log's ring buffer (see
    /// [`IncidentLog::set_capacity`]).
    pub fn set_incident_capacity(&mut self, capacity: usize) {
        self.log.set_capacity(capacity);
    }

    /// Translation/cache statistics of the translated tier over this
    /// supervisor's lifetime: the resident [`ExecutionManager`]'s, plus
    /// those of any manager discarded after a panic. A function is
    /// translated (or installed from the image or cache) once per
    /// manager, however many calls it then serves.
    #[must_use]
    pub fn translation_stats(&self) -> crate::llee::TranslationStats {
        let mut stats = self.translation;
        if let Some(mgr) = &self.manager {
            stats.merge(&mgr.stats());
        }
        stats
    }

    /// Arms a fault-injection kill (additive; see [`kills_from_env`]).
    pub fn arm_kill(&mut self, kill: TierKill) {
        self.kills.push(kill);
    }

    /// Disarms all kills.
    pub fn clear_kills(&mut self) {
        self.kills.clear();
    }

    /// Attaches OS storage for the translated tier's offline cache
    /// (retry-with-backoff and validation happen inside
    /// [`ExecutionManager`]; see `llee`).
    pub fn set_storage(&mut self, storage: Box<dyn Storage>, cache: &str) {
        self.cache_name = cache.to_string();
        match &mut self.manager {
            Some(mgr) => mgr.set_storage(storage, cache),
            None => self.storage = Some(storage),
        }
    }

    /// Detaches and returns the storage.
    pub fn take_storage(&mut self) -> Option<Box<dyn Storage>> {
        match &mut self.manager {
            Some(mgr) => mgr.take_storage(),
            None => self.storage.take(),
        }
    }

    /// The incident log (append-only, deterministic).
    #[must_use]
    pub fn incident_log(&self) -> &IncidentLog {
        &self.log
    }

    /// Per-tier counters, indexed by [`Tier::index`].
    #[must_use]
    pub fn tier_counters(&self) -> &[TierCounters; Tier::LADDER.len()] {
        &self.counters
    }

    /// True when `(function, tier)` is quarantined.
    #[must_use]
    pub fn is_quarantined(&self, function: &str, tier: Tier) -> bool {
        self.quarantine.contains(&(function.to_string(), tier))
    }

    /// All quarantined `(function, tier)` pairs, in deterministic order.
    #[must_use]
    pub fn quarantined(&self) -> Vec<(String, Tier)> {
        self.quarantine.iter().cloned().collect()
    }

    /// Re-imposes a quarantine without a fresh fault — the serving
    /// layer's crash-recovery path replays journaled quarantine state
    /// into a respawned supervisor so a faulty tier is not retried
    /// just because the executor process state was rebuilt. The fault
    /// count is pinned at the quarantine threshold so a later
    /// recovery-probe failure re-quarantines exactly as if the faults
    /// had happened in this supervisor.
    pub fn impose_quarantine(&mut self, function: &str, tier: Tier) {
        let key = (function.to_string(), tier);
        self.fault_counts
            .insert(key.clone(), self.max_faults.max(1));
        self.quarantine.insert(key);
    }

    /// Lifts the quarantine for one pair (e.g. after an SMC edit
    /// replaced the function body that kept crashing a tier).
    pub fn lift_quarantine(&mut self, function: &str, tier: Tier) {
        self.quarantine.remove(&(function.to_string(), tier));
        self.fault_counts.remove(&(function.to_string(), tier));
        self.probe_successes.remove(&(function.to_string(), tier));
    }

    /// Lifts every quarantine for one function across all tiers — the
    /// serving layer's bounded-retry path gives a transiently-exhausted
    /// function a clean ladder on its next attempt.
    pub fn lift_all_quarantines(&mut self, function: &str) {
        for tier in Tier::LADDER {
            self.lift_quarantine(function, tier);
        }
    }

    fn kill_for(&self, tier: Tier) -> Option<KillMode> {
        self.kills.iter().find(|k| k.tier == tier).map(|k| k.mode)
    }

    /// Runs `entry` through the tier ladder with graceful degradation.
    ///
    /// # Errors
    ///
    /// [`SupervisorError::NoSuchFunction`] for a missing entry point,
    /// and [`SupervisorError::TiersExhausted`] when every rung faulted
    /// — every fault along the way is in [`Supervisor::incident_log`].
    pub fn run(&mut self, entry: &str, args: &[u64]) -> Result<SupervisedRun, SupervisorError> {
        if self
            .module
            .function_by_name(entry)
            .filter(|&f| !self.module.function(f).is_declaration())
            .is_none()
        {
            return Err(SupervisorError::NoSuchFunction(entry.to_string()));
        }
        let mut degraded = false;
        let mut incidents_this_run = 0u32;
        // the structural interpreter's outcome, computed at most once
        // per run (cross-check or the final rung itself)
        let mut oracle: Option<TierOutcome> = None;
        // at most one quarantined pair gets its one-shot probe per run
        let mut probe_spent = false;
        for (rung, &tier) in Tier::LADDER.iter().enumerate() {
            // the pair's key, built only when this rung is a quarantine
            // probe: the set is almost always empty, and a healthy call
            // should not allocate to find that out
            let mut probe_key = None;
            if !self.quarantine.is_empty() {
                let key = (entry.to_string(), tier);
                if self.quarantine.contains(&key) {
                    let due = !probe_spent
                        && self.probe_after.is_some_and(|n| {
                            self.probe_successes.get(&key).copied().unwrap_or(0) >= n
                        });
                    if !due {
                        self.counters[tier.index()].skipped_quarantined += 1;
                        degraded = true;
                        continue;
                    }
                    probe_spent = true;
                    self.counters[tier.index()].probes += 1;
                    probe_key = Some(key);
                }
            }
            let probing = probe_key.is_some();
            let is_final = rung == Tier::LADDER.len() - 1;
            let budget = if is_final {
                self.fuel
            } else {
                self.watchdog.map_or(self.fuel, |w| w.min(self.fuel))
            };
            self.counters[tier.index()].attempts += 1;
            let kill = self.kill_for(tier);
            let run = self.execute_tier(tier, entry, args, budget, kill);
            let (mut outcome, steps) = match run {
                TierRun::Done(outcome, steps) => (outcome, steps),
                TierRun::Fault(cause) => {
                    let injected = matches!(
                        (&cause, kill),
                        (IncidentCause::Panic(_), Some(KillMode::Panic))
                    );
                    incidents_this_run += 1;
                    self.record_fault(tier, entry, cause, injected, probing);
                    if let Some(key) = probe_key {
                        // a failed probe re-quarantines; the pair must
                        // earn a fresh run of successes before the next
                        self.probe_successes.insert(key, 0);
                    }
                    degraded = true;
                    continue;
                }
            };
            // armed wrong-value kill: silently corrupt the answer — the
            // whole point is that only cross-check mode can see it
            let mut value_killed = false;
            if let (Some(KillMode::WrongValue), TierOutcome::Value(v)) = (kill, outcome) {
                outcome = TierOutcome::Value(v ^ 0xBAD_F00D);
                value_killed = true;
            }
            if self.cross_check && tier != Tier::Interp {
                let expected = match &oracle {
                    Some(o) => *o,
                    None => match self.oracle_outcome(entry, args) {
                        Some(o) => *oracle.insert(o),
                        // the oracle itself failed: nothing to compare
                        // against, serve the tier's answer as-is
                        None => outcome,
                    },
                };
                if outcome != expected {
                    incidents_this_run += 1;
                    self.record_fault(
                        tier,
                        entry,
                        IncidentCause::Divergence { expected, got: outcome },
                        value_killed,
                        probing,
                    );
                    if let Some(key) = probe_key {
                        self.probe_successes.insert(key, 0);
                    }
                    degraded = true;
                    continue;
                }
            }
            self.counters[tier.index()].served += 1;
            if let Some(key) = probe_key {
                // the probe passed: lift the quarantine, forget the
                // fault history, and log the recovery
                let retries = *self.fault_counts.get(&key).unwrap_or(&0);
                let successes = self.probe_successes.remove(&key).unwrap_or(0);
                self.quarantine.remove(&key);
                self.fault_counts.remove(&key);
                self.log.push(Incident {
                    seq: 0, // assigned by the log
                    tier,
                    function: entry.to_string(),
                    cause: IncidentCause::ProbeRecovered { successes },
                    recovery: RecoveryAction::Restored(tier),
                    retries,
                    injected: false,
                    probe: true,
                });
            }
            // a served call is progress toward probing this function's
            // (remaining) quarantined pairs
            if self.probe_after.is_some() {
                let waiting: Vec<(String, Tier)> = self
                    .quarantine
                    .iter()
                    .filter(|(f, _)| f == entry)
                    .cloned()
                    .collect();
                for pair in waiting {
                    *self.probe_successes.entry(pair).or_insert(0) += 1;
                }
            }
            return Ok(SupervisedRun { outcome, tier, degraded, steps });
        }
        Err(SupervisorError::TiersExhausted {
            function: entry.to_string(),
            incidents: incidents_this_run,
        })
    }

    /// Records a fault: bumps the per-pair count, quarantines at the
    /// threshold, and appends the [`Incident`] with its recovery action
    /// (the next rung that will actually be attempted).
    fn record_fault(
        &mut self,
        tier: Tier,
        entry: &str,
        cause: IncidentCause,
        injected: bool,
        probe: bool,
    ) {
        let counters = &mut self.counters[tier.index()];
        match &cause {
            IncidentCause::Panic(_) => counters.panics += 1,
            IncidentCause::Fault(_) => counters.faults += 1,
            IncidentCause::Watchdog { .. } => counters.watchdog_expiries += 1,
            IncidentCause::Divergence { .. } => counters.divergences += 1,
            IncidentCause::ProbeRecovered { .. } => {
                unreachable!("probe recoveries are logged directly, not as faults")
            }
        }
        let key = (entry.to_string(), tier);
        let retries = *self.fault_counts.get(&key).unwrap_or(&0);
        let count = retries + 1;
        self.fault_counts.insert(key.clone(), count);
        if count >= self.max_faults {
            self.quarantine.insert(key);
        }
        let recovery = Tier::LADDER
            .iter()
            .skip(tier.index() + 1)
            .find(|&&next| !self.quarantine.contains(&(entry.to_string(), next)))
            .map_or(RecoveryAction::Exhausted, |&next| {
                RecoveryAction::FellBack(next)
            });
        self.log.push(Incident {
            seq: 0, // assigned by the log
            tier,
            function: entry.to_string(),
            cause,
            recovery,
            retries,
            injected,
            probe,
        });
    }

    /// Runs the structural interpreter as the cross-check oracle (full
    /// fuel, fresh state). `None` if the oracle itself panicked — which
    /// would be a bug in the semantic reference, not in a fast tier.
    fn oracle_outcome(&self, entry: &str, args: &[u64]) -> Option<TierOutcome> {
        let module = &self.module;
        let (fuel, mem) = (self.fuel, self.memory_size);
        catch_quiet(|| {
            let mut interp = Interpreter::with_memory_size(module, mem);
            interp.set_fuel(fuel);
            interp.run(entry, args)
        })
        .ok()
        .map(|r| match r {
            Ok(v) => TierOutcome::Value(v),
            Err(InterpError::Trap(t)) => TierOutcome::Trap(t.kind),
            _ => TierOutcome::OutOfFuel,
        })
    }

    /// The translated rung's manager, built (parked, with the storage
    /// and image attached so far) if there is none.
    fn resident_manager(&mut self) -> &mut ExecutionManager {
        self.manager.get_or_insert_with(|| {
            let mut mgr =
                ExecutionManager::parked(self.module.clone(), self.isa, self.memory_size);
            if let Some(storage) = self.storage.take() {
                mgr.set_storage(storage, &self.cache_name);
            }
            if let Some(image) = &self.image {
                mgr.set_image(image.clone());
            }
            mgr
        })
    }

    /// Drops a manager a panic unwound through — whatever it was in the
    /// middle of is suspect — keeping its counters and its storage for
    /// the one the next translated run builds.
    fn discard_manager(&mut self) {
        if let Some(mut mgr) = self.manager.take() {
            self.translation.merge(&mgr.stats());
            self.storage = mgr.take_storage();
        }
    }

    /// Executes one tier under `catch_unwind` with `budget` steps.
    fn execute_tier(
        &mut self,
        tier: Tier,
        entry: &str,
        args: &[u64],
        budget: u64,
        kill: Option<KillMode>,
    ) -> TierRun {
        let watchdog_armed = budget < self.fuel;
        match tier {
            Tier::Translated => {
                let mgr = self.resident_manager();
                mgr.set_fuel(budget);
                let result = catch_quiet(|| {
                    fire_kill(kill, tier);
                    mgr.start_process();
                    mgr.run(entry, args)
                });
                let steps = mgr.exec_stats().instructions;
                if result.is_ok() {
                    // a parked supervisor holds code, not a used
                    // address space
                    mgr.end_process();
                } else {
                    self.discard_manager();
                }
                match result {
                    Ok(Ok(out)) => TierRun::Done(TierOutcome::Value(out.value), steps),
                    Ok(Err(EngineError::Trapped(t))) => {
                        TierRun::Done(TierOutcome::Trap(t.kind), steps)
                    }
                    Ok(Err(EngineError::OutOfFuel)) => {
                        if watchdog_armed {
                            TierRun::Fault(IncidentCause::Watchdog { budget })
                        } else {
                            TierRun::Done(TierOutcome::OutOfFuel, steps)
                        }
                    }
                    Ok(Err(e)) => TierRun::Fault(IncidentCause::Fault(e.to_string())),
                    Err(msg) => TierRun::Fault(IncidentCause::Panic(msg)),
                }
            }
            // both interpreters are built fresh for every run and
            // dropped after it, so an unwind never leaves state behind
            Tier::FastInterp => {
                let (module, mem, image) = (&self.module, self.memory_size, &self.image);
                let result = catch_quiet(|| {
                    let pre = std::rc::Rc::new(crate::predecode::PreModule::new(module));
                    if let Some(image) = image {
                        // best-effort warm attach (stamp was verified at
                        // set_image): corrupt sections or records fall
                        // back to lazy SSA lowering
                        let _ = image.attach_loader(&pre);
                    }
                    let mut interp = FastInterpreter::with_predecoded_memory(pre, mem);
                    interp.set_fuel(budget);
                    fire_kill(kill, tier);
                    let r = interp.run(entry, args);
                    (r, interp.insts_executed())
                });
                Supervisor::map_interp(result, watchdog_armed, budget)
            }
            Tier::Interp => {
                let (module, mem) = (&self.module, self.memory_size);
                let result = catch_quiet(|| {
                    let mut interp = Interpreter::with_memory_size(module, mem);
                    interp.set_fuel(budget);
                    fire_kill(kill, tier);
                    let r = interp.run(entry, args);
                    (r, interp.insts_executed())
                });
                Supervisor::map_interp(result, watchdog_armed, budget)
            }
        }
    }

    /// Maps an interpreter tier's result and step count onto [`TierRun`].
    fn map_interp(
        result: Result<(Result<u64, InterpError>, u64), String>,
        watchdog_armed: bool,
        budget: u64,
    ) -> TierRun {
        match result {
            Ok((Ok(v), steps)) => TierRun::Done(TierOutcome::Value(v), steps),
            Ok((Err(InterpError::Trap(t)), steps)) => {
                TierRun::Done(TierOutcome::Trap(t.kind), steps)
            }
            Ok((Err(InterpError::OutOfFuel), steps)) => {
                if watchdog_armed {
                    TierRun::Fault(IncidentCause::Watchdog { budget })
                } else {
                    TierRun::Done(TierOutcome::OutOfFuel, steps)
                }
            }
            Ok((Err(e @ InterpError::NoSuchFunction(_)), _)) => {
                TierRun::Fault(IncidentCause::Fault(e.to_string()))
            }
            Err(msg) => TierRun::Fault(IncidentCause::Panic(msg)),
        }
    }
}

/// The one kill site: an armed [`KillMode::Panic`] fires here, inside
/// the rung's [`catch_quiet`], after the rung's executor is built and
/// before it runs.
fn fire_kill(kill: Option<KillMode>, tier: Tier) {
    if kill == Some(KillMode::Panic) {
        panic!("injected tier kill: {tier}");
    }
}

thread_local! {
    /// True while this thread is inside [`catch_quiet`]: the chained
    /// panic hook swallows the report instead of spamming stderr with
    /// backtraces for panics the supervisor recovers from by design.
    static SUPPRESS_PANIC_REPORT: Cell<bool> = const { Cell::new(false) };
}

static INSTALL_QUIET_HOOK: Once = Once::new();

/// `catch_unwind` with the panic report suppressed (thread-locally) and
/// the payload rendered to a `String`. The suppression hook chains the
/// previously installed hook, so other threads' panics still print.
fn catch_quiet<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    INSTALL_QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_REPORT.with(Cell::get) {
                prev(info);
            }
        }));
    });
    SUPPRESS_PANIC_REPORT.with(|s| s.set(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_REPORT.with(|s| s.set(false));
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
    %r = call int %fib(int 10)
    ret int %r
}
"#;

    fn module() -> Module {
        llva_core::parser::parse_module(FIB).expect("parses")
    }

    #[test]
    fn healthy_ladder_serves_from_translated_tier() {
        let mut sup = Supervisor::new(module(), TargetIsa::X86);
        let run = sup.run("main", &[]).expect("runs");
        assert_eq!(run.outcome, TierOutcome::Value(55));
        assert_eq!(run.tier, Tier::Translated);
        assert!(!run.degraded);
        assert!(run.steps > 0);
        assert!(sup.incident_log().is_empty());
        assert_eq!(sup.tier_counters()[Tier::Translated.index()].served, 1);
    }

    #[test]
    fn translated_rung_serves_every_target() {
        // the ladder's fast rung must work for all three back ends,
        // including the RISC-V one
        for isa in TargetIsa::ALL {
            let mut sup = Supervisor::new(module(), isa);
            let run = sup.run("main", &[]).expect("runs");
            assert_eq!(run.outcome, TierOutcome::Value(55), "{isa}");
            assert_eq!(run.tier, Tier::Translated, "{isa}");
            assert!(sup.incident_log().is_empty(), "{isa}");
        }
    }

    #[test]
    fn killed_translated_tier_degrades_on_riscv() {
        let mut sup = Supervisor::new(module(), TargetIsa::Riscv);
        sup.arm_kill(TierKill::panic(Tier::Translated));
        let run = sup.run("main", &[]).expect("degrades");
        assert_eq!(run.outcome, TierOutcome::Value(55));
        assert_eq!(run.tier, Tier::FastInterp);
        assert!(run.degraded);
        assert!(sup.is_quarantined("main", Tier::Translated));
    }

    #[test]
    fn missing_entry_is_not_a_tier_fault() {
        let mut sup = Supervisor::new(module(), TargetIsa::X86);
        match sup.run("nope", &[]) {
            Err(SupervisorError::NoSuchFunction(n)) => assert_eq!(n, "nope"),
            other => panic!("expected NoSuchFunction, got {other:?}"),
        }
        assert!(sup.incident_log().is_empty(), "no tier ever ran");
    }

    #[test]
    fn killed_translated_tier_degrades_to_fast_interp() {
        let mut sup = Supervisor::new(module(), TargetIsa::Sparc);
        sup.arm_kill(TierKill::panic(Tier::Translated));
        let run = sup.run("main", &[]).expect("degrades");
        assert_eq!(run.outcome, TierOutcome::Value(55));
        assert_eq!(run.tier, Tier::FastInterp);
        assert!(run.degraded);
        let log = sup.incident_log();
        assert_eq!(log.len(), 1);
        let i = &log.incidents()[0];
        assert_eq!(i.tier, Tier::Translated);
        assert_eq!(i.function, "main");
        assert!(matches!(i.cause, IncidentCause::Panic(_)));
        assert_eq!(i.recovery, RecoveryAction::FellBack(Tier::FastInterp));
        assert!(i.injected);
        assert!(sup.is_quarantined("main", Tier::Translated));
        // second run: quarantine skip, no new incident
        let run2 = sup.run("main", &[]).expect("runs");
        assert_eq!(run2.outcome, TierOutcome::Value(55));
        assert_eq!(sup.incident_log().len(), 1, "quarantine prevents a re-fault");
        assert_eq!(
            sup.tier_counters()[Tier::Translated.index()].skipped_quarantined,
            1
        );
    }

    #[test]
    fn kills_from_env_parses_tier_lists() {
        // pure parse test via parse_kills (env mutation would race other
        // tests in this process)
        assert_eq!(Tier::parse("translated"), Some(Tier::Translated));
        assert_eq!(Tier::parse("fast-interp"), Some(Tier::FastInterp));
        assert_eq!(Tier::parse("predecode"), Some(Tier::FastInterp));
        assert_eq!(Tier::parse(" interp "), Some(Tier::Interp));
        assert_eq!(
            parse_kills("translated,fast-interp"),
            Ok(vec![TierKill::panic(Tier::Translated), TierKill::panic(Tier::FastInterp)])
        );
        assert_eq!(parse_kills(""), Ok(vec![]));
        // a name the ladder does not have is refused, not skipped: the
        // error names the entry and the valid names
        for (spec, bad) in [("traced", "\"traced\""), ("translated,tracd", "\"tracd\"")] {
            let err = parse_kills(spec).expect_err(spec);
            assert!(err.contains(bad), "{err}");
            assert!(err.contains("translated, fast-interp, predecode, interp"), "{err}");
        }
    }

    #[test]
    fn incident_log_ring_buffer_caps_memory_and_counts_drops() {
        let mut sup = Supervisor::new(module(), TargetIsa::X86);
        sup.set_incident_capacity(4);
        // a flapping tier: never quarantine (high max_faults), so every
        // run re-faults and appends a fresh incident
        sup.set_max_faults(u32::MAX);
        sup.arm_kill(TierKill::panic(Tier::Translated));
        for _ in 0..10 {
            sup.run("main", &[]).expect("degrades");
        }
        let log = sup.incident_log();
        assert_eq!(log.len(), 4, "ring buffer keeps exactly the cap");
        assert_eq!(log.capacity(), 4);
        assert_eq!(log.dropped(), 6, "older incidents are dropped, counted");
        assert_eq!(log.total_recorded(), 10);
        // sequence numbers stay monotonic across the drop horizon
        let seqs: Vec<u64> = log.incidents().iter().map(|i| i.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert!(log.summary().contains("6 older dropped"), "{}", log.summary());
        // shrinking the cap trims the oldest retained incidents
        sup.set_incident_capacity(2);
        let log = sup.incident_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 8);
        assert_eq!(log.incidents()[0].seq, 8);
    }

    #[test]
    fn quarantine_probe_restores_a_recovered_tier() {
        let mut sup = Supervisor::new(module(), TargetIsa::X86);
        sup.set_probe_after(3);
        sup.arm_kill(TierKill::panic(Tier::Translated));
        // fault + quarantine
        let run = sup.run("main", &[]).expect("degrades");
        assert_eq!(run.tier, Tier::FastInterp);
        assert!(sup.is_quarantined("main", Tier::Translated));
        // the "bug" goes away (e.g. transient storage corruption healed)
        sup.clear_kills();
        // the degraded first run already banked one lower-tier success;
        // two more are needed before the probe is due
        for _ in 0..2 {
            let r = sup.run("main", &[]).expect("runs");
            assert_eq!(r.tier, Tier::FastInterp, "still quarantined, no probe yet");
        }
        // three successes banked: this run re-attempts translated,
        // succeeds, and restores it
        let r = sup.run("main", &[]).expect("probe run");
        assert_eq!(r.tier, Tier::Translated, "probe serves from the restored tier");
        assert_eq!(r.outcome, TierOutcome::Value(55));
        assert!(!sup.is_quarantined("main", Tier::Translated));
        assert_eq!(sup.tier_counters()[Tier::Translated.index()].probes, 1);
        // the probe outcome is a logged incident
        let last = sup.incident_log().incidents().last().expect("incident");
        assert!(last.probe);
        assert!(matches!(last.cause, IncidentCause::ProbeRecovered { successes: 3 }));
        assert_eq!(last.recovery, RecoveryAction::Restored(Tier::Translated));
        // and the tier keeps serving afterwards without new incidents
        let n = sup.incident_log().total_recorded();
        let r = sup.run("main", &[]).expect("runs");
        assert_eq!(r.tier, Tier::Translated);
        assert_eq!(sup.incident_log().total_recorded(), n);
    }

    #[test]
    fn failed_quarantine_probe_requarantines_and_rearms() {
        let mut sup = Supervisor::new(module(), TargetIsa::X86);
        sup.set_probe_after(2);
        sup.arm_kill(TierKill::panic(Tier::Translated));
        sup.run("main", &[]).expect("degrades");
        assert!(sup.is_quarantined("main", Tier::Translated));
        // the degraded run banked success #1; one more banks #2
        sup.run("main", &[]).expect("runs");
        let before = sup.incident_log().total_recorded();
        // the kill stays armed: the probe must fail
        let r = sup.run("main", &[]).expect("probe fails, ladder degrades");
        assert_eq!(r.tier, Tier::FastInterp);
        assert!(sup.is_quarantined("main", Tier::Translated), "re-quarantined");
        let log = sup.incident_log();
        assert_eq!(log.total_recorded(), before + 1, "the failed probe is logged");
        let last = log.incidents().last().expect("incident");
        assert!(last.probe, "the fault incident is marked as a probe");
        assert!(matches!(last.cause, IncidentCause::Panic(_)));
        // the success counter reset: the very next run must not probe
        let probes_before = sup.tier_counters()[Tier::Translated.index()].probes;
        sup.run("main", &[]).expect("runs");
        assert_eq!(
            sup.tier_counters()[Tier::Translated.index()].probes,
            probes_before,
            "a failed probe re-arms only after fresh successes"
        );
    }

    #[test]
    fn incident_log_renders_tier_and_cause() {
        let mut sup = Supervisor::new(module(), TargetIsa::X86);
        sup.arm_kill(TierKill::panic(Tier::Translated));
        sup.run("main", &[]).expect("degrades");
        let text = sup.incident_log().summary();
        assert!(text.contains("translated"), "{text}");
        assert!(text.contains("panic"), "{text}");
        let line = sup.incident_log().incidents()[0].to_string();
        assert!(line.contains("fell back to fast-interp"), "{line}");
    }
}
