//! # llva-serve — fault-isolated multi-tenant execution service
//!
//! The serving layer over the LLVA execution environment: the paper
//! puts the translator and its caches *below* the OS boundary
//! (§4.1–4.2), which means one implementation serves every consumer on
//! the machine — so the reproduction's capstone is a service where
//! many mutually-untrusting tenants execute modules through the tiered
//! supervisor while sharing one translation cache.
//!
//! Layers (each its own module):
//!
//! * [`quota`] — per-tenant limits, admission counters, and
//!   [`ServeError`];
//! * [`service`] — [`ExecService`]: per-tenant executor threads,
//!   bounded in-flight queues, a sharded content-addressed translation
//!   cache, per-call deadlines, and bounded retry-with-backoff;
//! * [`metrics`] — the `GET /metrics`-style Prometheus text surface;
//! * [`proto`] — the framed request/response wire codec;
//! * [`server`] — the localhost TCP listener (framed protocol with an
//!   HTTP `GET /metrics` sniff on the same port).
//!
//! The robustness claims (one tenant's poisoned function quarantines
//! only that tenant; quotas reject instead of queueing unboundedly;
//! transient storage faults heal within bounded retries) are proven by
//! `tests/service.rs` and the `tests/soak.rs` fault-isolation soak.
//! The self-healing claims (dead/wedged executors respawn warm from a
//! journal; every accepted call resolves; circuit breakers shed load
//! from poisoned functions; drain shuts down cleanly) are proven by
//! the `tests/chaos.rs` executor-kill soak — see DESIGN.md §16.

pub mod metrics;
pub mod proto;
pub mod quota;
pub mod server;
pub mod service;

pub use proto::{Request, Response};
pub use quota::{CounterValues, QuotaKind, ServeError, TenantCounters, TenantQuota};
pub use server::Server;
pub use service::{
    executor_kill_from_env, BoxedStorage, BreakerSnapshot, BreakerState, CallResult, DrainReport,
    ExecService, ExecutorKill, ExecutorKillPoint, LoadReply, ModuleSnapshot, ServeConfig,
    TenantSnapshot,
};
