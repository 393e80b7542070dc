//! # llva-engine — LLEE, the LLVA execution environment (paper §4)
//!
//! The "on-chip runtime execution engine that manages the translation
//! process": JIT-on-demand translation, the OS-independent storage API
//! for offline caching of native code (§4.1), the reference LLVA
//! [`interp`]reter, profiling + the software trace cache (§4.2), the
//! intrinsic/trap [`env`]ironment (§3.5), constrained
//! self-modifying-code support (§3.4), and the tiered execution
//! [`supervisor`] (graceful degradation across translated code, the
//! pre-decoded interpreter, and the structural interpreter).

pub mod env;
pub mod image;
pub mod interp;
pub mod llee;
pub mod predecode;
pub mod profile;
pub mod storage;
pub mod supervisor;
pub mod trace;
pub mod traced;

pub use env::Env;
pub use image::{
    read_image_file, repair_image, repair_image_file, write_image_file, ImageBuilder, ImageError,
    LlvaImage, RepairReport, SectionKind, IMAGE_ENTRY, IMAGE_TMP_MARKER,
};
#[cfg(unix)]
pub use image::{map_image_file, MappedFile};
pub use interp::{Interpreter, InterpError, LlvaTrap, Name, DEFAULT_MEMORY_SIZE};
pub use predecode::{FastInterpreter, PreModule};
pub use llee::{EngineError, ExecutionManager, RunOutcome, TargetIsa, TranslationStats};
pub use storage::{
    shard_hash, DirStorage, FaultLog, FaultPlan, FaultyStorage, MemStorage, ShardedStorage,
    Storage, SyncStorage,
};
pub use traced::{TraceConfig, TraceEngine, TraceStats};
pub use supervisor::{
    kills_from_env, Incident, IncidentCause, IncidentLog, KillMode, RecoveryAction, SupervisedRun,
    Supervisor, SupervisorError, Tier, TierCounters, TierKill, TierOutcome,
};
