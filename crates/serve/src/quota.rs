//! Per-tenant quotas, admission counters, and the service error type.
//!
//! Admission control is the first robustness layer of `llva-serve`:
//! every request is checked against its tenant's quota *before* any
//! work is queued, and a rejection is a cheap, counted, first-class
//! answer — never unbounded queue growth. The counters are all atomics
//! so the metrics surface reads them without touching the tenant's
//! executor.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Resource limits for one tenant. Every limit is enforced at
/// admission (before queuing) or by construction (memory: the
/// simulated machine is *built* at the quota size, so a tenant cannot
/// address memory it was never given).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Calls admitted but not yet answered (the bounded in-flight
    /// queue). One executes while the rest wait in the tenant's
    /// command queue; the `max_in_flight + 1`-th caller is rejected
    /// with [`ServeError::Busy`].
    pub max_in_flight: u32,
    /// Total execution fuel (steps) this tenant may burn across all
    /// calls. Admission rejects once it hits zero; see
    /// [`crate::ExecService::refill_fuel`].
    pub fuel_budget: u64,
    /// Per-call step ceiling (a single call can never burn more than
    /// this, regardless of remaining budget).
    pub max_call_fuel: u64,
    /// Size of each call's simulated address space, in bytes: a limit
    /// on what a call may address (and on a module's global image),
    /// not an allocation — only the bytes a call touches are backed.
    pub memory_bytes: u64,
    /// Modules this tenant may hold loaded at once.
    pub max_modules: usize,
    /// Largest accepted module source, in bytes.
    pub max_module_bytes: usize,
}

impl Default for TenantQuota {
    fn default() -> TenantQuota {
        TenantQuota {
            max_in_flight: 8,
            fuel_budget: u64::MAX,
            max_call_fuel: 1_000_000_000,
            memory_bytes: llva_engine::DEFAULT_MEMORY_SIZE,
            max_modules: 8,
            max_module_bytes: 1 << 20,
        }
    }
}

impl TenantQuota {
    /// A deliberately tight quota for tests and abuse experiments.
    #[must_use]
    pub fn tight() -> TenantQuota {
        TenantQuota {
            max_in_flight: 2,
            fuel_budget: 10_000_000,
            max_call_fuel: 5_000_000,
            memory_bytes: 1 << 20,
            max_modules: 2,
            max_module_bytes: 64 << 10,
        }
    }
}

/// Which quota an admission rejection hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaKind {
    /// The bounded in-flight queue was full.
    InFlight,
    /// The tenant's fuel budget is exhausted.
    Fuel,
    /// Module count or module size limit.
    Module,
}

impl fmt::Display for QuotaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QuotaKind::InFlight => "in-flight",
            QuotaKind::Fuel => "fuel",
            QuotaKind::Module => "module",
        })
    }
}

/// Why a service request failed. Admission rejections
/// ([`ServeError::Busy`], [`ServeError::QuotaExceeded`]) are expected
/// backpressure, not faults; everything else is surfaced with enough
/// structure for a client to act on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No tenant registered under this name.
    UnknownTenant(String),
    /// A tenant with this name already exists.
    TenantExists(String),
    /// The bounded in-flight queue is full — retry later
    /// (backpressure, never unbounded queueing).
    Busy {
        /// Calls in flight when the request was rejected.
        in_flight: u32,
    },
    /// A quota was exhausted.
    QuotaExceeded {
        /// Which quota.
        kind: QuotaKind,
        /// Human-readable detail.
        detail: String,
    },
    /// The named module is not loaded for this tenant.
    NoSuchModule(String),
    /// The module source failed to parse, its global image does not fit
    /// the tenant's address space, or its warmup translation failed.
    /// The source is not verified: a module that parses but breaks the
    /// V-ISA's rules can load and run.
    BadModule(String),
    /// The entry function does not exist in the module.
    NoSuchFunction(String),
    /// Every execution tier faulted, through the bounded retry budget.
    TiersExhausted {
        /// Incidents recorded across all attempts of this call.
        incidents: u32,
        /// Serve-level retries consumed.
        retries: u32,
    },
    /// The per-call wall-clock deadline expired before the tenant's
    /// executor answered (the call still completes in the background
    /// and is fully accounted; only this caller gave up waiting).
    DeadlineExpired,
    /// The tenant's executor is gone (service shut down).
    Shutdown,
    /// The tenant's executor died (panic or wedge) while this call was
    /// accepted; the supervisor is respawning it. The call's in-flight
    /// slot has been released — retry against the new executor epoch.
    ExecutorLost {
        /// Executor epoch at the time the loss was observed.
        epoch: u64,
    },
    /// The per-(module, function) circuit breaker is open after
    /// repeated [`ServeError::TiersExhausted`] outcomes.
    BreakerOpen {
        /// Suggested wait before the next attempt, in milliseconds.
        retry_in_ms: u64,
    },
    /// The service is draining: admission is closed while queued work
    /// finishes ahead of shutdown.
    Draining,
    /// A malformed request (wire protocol violations, bad arguments).
    BadRequest(String),
    /// An unexpected internal failure (caught panic in the executor —
    /// the tenant stays up; the incident is in the message).
    Internal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant '{t}'"),
            ServeError::TenantExists(t) => write!(f, "tenant '{t}' already exists"),
            ServeError::Busy { in_flight } => {
                write!(f, "busy: {in_flight} call(s) in flight, queue full")
            }
            ServeError::QuotaExceeded { kind, detail } => {
                write!(f, "{kind} quota exceeded: {detail}")
            }
            ServeError::NoSuchModule(m) => write!(f, "no such module '{m}'"),
            ServeError::BadModule(e) => write!(f, "bad module: {e}"),
            ServeError::NoSuchFunction(n) => write!(f, "no such function %{n}"),
            ServeError::TiersExhausted { incidents, retries } => write!(
                f,
                "all execution tiers exhausted ({incidents} incident(s), {retries} retries)"
            ),
            ServeError::DeadlineExpired => f.write_str("deadline expired"),
            ServeError::Shutdown => f.write_str("service shut down"),
            ServeError::ExecutorLost { epoch } => {
                write!(f, "executor lost (epoch {epoch}); respawning")
            }
            ServeError::BreakerOpen { retry_in_ms } => {
                write!(f, "circuit breaker open; retry in {retry_in_ms}ms")
            }
            ServeError::Draining => f.write_str("service draining"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Lock-free admission/outcome counters for one tenant (the metrics
/// surface reads these without queueing behind the executor).
#[derive(Debug, Default)]
pub struct TenantCounters {
    /// Calls admitted past every quota check.
    pub admitted: AtomicU64,
    /// Calls rejected because the in-flight queue was full.
    pub rejected_busy: AtomicU64,
    /// Calls rejected because the fuel budget was exhausted.
    pub rejected_fuel: AtomicU64,
    /// Module loads rejected by count/size quota.
    pub rejected_module: AtomicU64,
    /// Callers that gave up waiting (per-call deadline).
    pub deadline_expired: AtomicU64,
    /// Calls answered with a value.
    pub calls_ok: AtomicU64,
    /// Calls answered with a precise trap.
    pub calls_trapped: AtomicU64,
    /// Calls that genuinely ran out of call fuel.
    pub calls_out_of_fuel: AtomicU64,
    /// Calls that exhausted every tier (after retries).
    pub calls_exhausted: AtomicU64,
    /// Serve-level bounded retries consumed (transient-fault recovery).
    pub retries: AtomicU64,
    /// Total steps burned against the fuel budget.
    pub fuel_used: AtomicU64,
    /// Accepted calls answered with [`ServeError::ExecutorLost`]
    /// because the executor died while they were queued or running.
    pub executor_lost: AtomicU64,
    /// Calls rejected by an open circuit breaker.
    pub rejected_breaker: AtomicU64,
    /// Requests rejected because the service was draining.
    pub rejected_draining: AtomicU64,
}

/// A plain-value copy of [`TenantCounters`] (one consistent-enough
/// read per counter; metrics rendering and assertions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterValues {
    pub admitted: u64,
    pub rejected_busy: u64,
    pub rejected_fuel: u64,
    pub rejected_module: u64,
    pub deadline_expired: u64,
    pub calls_ok: u64,
    pub calls_trapped: u64,
    pub calls_out_of_fuel: u64,
    pub calls_exhausted: u64,
    pub retries: u64,
    pub fuel_used: u64,
    pub executor_lost: u64,
    pub rejected_breaker: u64,
    pub rejected_draining: u64,
}

impl TenantCounters {
    /// Reads every counter (relaxed; monotonic counters need no
    /// cross-counter consistency).
    #[must_use]
    pub fn values(&self) -> CounterValues {
        CounterValues {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected_busy: self.rejected_busy.load(Ordering::Relaxed),
            rejected_fuel: self.rejected_fuel.load(Ordering::Relaxed),
            rejected_module: self.rejected_module.load(Ordering::Relaxed),
            deadline_expired: self.deadline_expired.load(Ordering::Relaxed),
            calls_ok: self.calls_ok.load(Ordering::Relaxed),
            calls_trapped: self.calls_trapped.load(Ordering::Relaxed),
            calls_out_of_fuel: self.calls_out_of_fuel.load(Ordering::Relaxed),
            calls_exhausted: self.calls_exhausted.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            fuel_used: self.fuel_used.load(Ordering::Relaxed),
            executor_lost: self.executor_lost.load(Ordering::Relaxed),
            rejected_breaker: self.rejected_breaker.load(Ordering::Relaxed),
            rejected_draining: self.rejected_draining.load(Ordering::Relaxed),
        }
    }
}

impl CounterValues {
    /// Total admission rejections across all reasons.
    #[must_use]
    pub fn rejected_total(&self) -> u64 {
        self.rejected_busy + self.rejected_fuel + self.rejected_module + self.rejected_breaker
    }
}
