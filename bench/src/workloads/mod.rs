//! The six workloads. Each one sets up from a seed, runs whole rounds
//! of operations, checks every output against the structural
//! interpreter outside the timed region and, in a traced run, replays
//! the round through the layers' public entry points.

pub mod build;
pub mod launch;
pub mod run_hot;
pub mod serve;

use crate::trace::Tracer;
use llva_core::layout::TargetConfig;
use llva_core::module::Module;
use llva_core::printer::print_module;
use llva_engine::{ExecutionManager, Interpreter, LlvaImage, Supervisor, TargetIsa, Tier};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one timed round measured.
pub struct Round {
    /// Latency of each operation, in completion order.
    pub op_ns: Vec<u64>,
    /// Wall time of the whole round.
    pub wall_ns: u64,
}

/// Per-layer values a probe sets directly (counts, rates, ratios);
/// span-derived times are added by the runner.
pub type Layers = BTreeMap<&'static str, f64>;

pub trait Workload {
    /// Runs one round: a fixed list of operations, each timed.
    fn round(&mut self, t: &mut Tracer) -> Round;
    /// Checks the last round's outputs against the references computed
    /// in set-up; returns how many operations failed.
    fn check(&mut self, oracle: &mut Oracle) -> usize;
    /// Σ virtual object code bytes of the programs this workload uses.
    fn bytecode_bytes(&self) -> u64;
    /// Traced runs only: replays the last round's inputs through the
    /// layer entry points, recording probe spans and counts.
    fn probe(&mut self, t: &mut Tracer, layers: &mut Layers);
    /// Stops whatever set-up started (threads, sockets).
    fn finish(self: Box<Self>) {}
}

pub fn set_up(
    name: &str,
    seed: u64,
    traced: bool,
    oracle: &mut Oracle,
) -> Option<Box<dyn Workload>> {
    Some(match name {
        "build" => Box::new(build::Build::set_up(seed, oracle)),
        "launch-cold" => Box::new(launch::Launch::set_up(false, oracle)),
        "launch-warm" => Box::new(launch::Launch::set_up(true, oracle)),
        "run-hot" => Box::new(run_hot::RunHot::set_up(oracle)),
        "serve-calls" => Box::new(serve::Serve::set_up(seed, false, traced, oracle)),
        "serve-mixed" => Box::new(serve::Serve::set_up(seed, true, traced, oracle)),
        _ => return None,
    })
}

/// The reference answer: the structural interpreter on the module as
/// the front end (or the generator) produced it — so the optimizer and
/// every executor are judged by an oracle they are not part of.
/// Returns the value and the instructions executed.
fn reference(module: &Module, entry: &str, args: &[u64]) -> (u64, u64) {
    let mut interp = Interpreter::new(module);
    let value = interp
        .run(entry, args)
        .unwrap_or_else(|e| panic!("reference run of {}::{entry} failed: {e}", module.name()));
    (value, interp.insts_executed())
}

pub fn hash_of(bytes: &[u8]) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(bytes)
}

/// The harness's own work inside a set-up — reference answers,
/// generated inputs, checks of what set-up built — which is not the
/// system's and which `setup_s` is not charged for: `take_spent` says
/// how much of a set-up went into it. A run sets up several times, so
/// the reference answers are kept, keyed by a hash of the module's
/// text, the entry and the arguments.
#[derive(Default)]
pub struct Oracle {
    answers: HashMap<(u64, String, Vec<u64>), (u64, u64)>,
    /// Keys of the checks that have passed.
    passed: HashSet<u64>,
    spent: Duration,
}

impl Oracle {
    /// Runs `work` without charging the set-up for it.
    pub fn uncharged<T>(&mut self, work: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = work();
        self.spent += start.elapsed();
        out
    }

    /// Runs `check` unless a check with this key has passed before.
    pub fn passes(&mut self, key: u64, check: impl FnOnce() -> bool) -> bool {
        self.passed.contains(&key) || {
            let ok = self.uncharged(check);
            if ok {
                self.passed.insert(key);
            }
            ok
        }
    }

    pub fn reference(&mut self, module: &Module, entry: &str, args: &[u64]) -> (u64, u64) {
        let start = Instant::now();
        let answer = *self
            .answers
            .entry((
                hash_of(print_module(module).as_bytes()),
                entry.to_string(),
                args.to_vec(),
            ))
            .or_insert_with(|| reference(module, entry, args));
        self.spent += start.elapsed();
        answer
    }

    /// Time spent answering since the last call.
    pub fn take_spent(&mut self) -> Duration {
        std::mem::take(&mut self.spent)
    }
}

pub fn compile_table2(w: &llva_workloads::Workload) -> Module {
    llva_minic::compile(w.source, w.name, TargetConfig::default())
        .unwrap_or_else(|e| panic!("{} does not compile: {e}", w.name))
}

/// The link-time pipeline every shipped program goes through.
pub fn optimise(module: &mut Module, entry: &str) {
    llva_opt::link_time_pipeline(&[entry]).run(module);
}

pub fn table2(names: &[&str]) -> Vec<llva_workloads::Workload> {
    names
        .iter()
        .map(|n| llva_workloads::by_name(n).unwrap_or_else(|| panic!("no Table 2 program {n}")))
        .collect()
}

/// A Table 2 program ready to launch: reference answer from the
/// unoptimised module, then link-time optimised.
pub struct Shipped {
    pub name: &'static str,
    pub module: Module,
    pub expect: u64,
    /// Instructions the reference run executed.
    pub ref_insts: u64,
}

pub fn ship(names: &[&str], oracle: &mut Oracle) -> Vec<Shipped> {
    table2(names)
        .iter()
        .map(|w| {
            let mut module = compile_table2(w);
            let (expect, ref_insts) = oracle.reference(&module, "main", &[]);
            optimise(&mut module, "main");
            Shipped {
                name: w.name,
                module,
                expect,
                ref_insts,
            }
        })
        .collect()
}

/// True when a supervised run is the answer a healthy ladder gives: the
/// expected value from the translated rung, nothing skipped on the way.
pub fn healthy(
    run: &Result<llva_engine::SupervisedRun, llva_engine::SupervisorError>,
    expect: u64,
) -> bool {
    matches!(run, Ok(r) if r.value() == Some(expect) && !r.degraded && r.tier == Tier::Translated)
}

/// A module image with native x86 code and the pre-decode section, the
/// way `llva-run --emit-image` and the service build one.
pub fn build_image(module: &Module) -> Vec<u8> {
    let mut mgr = ExecutionManager::new(module.clone(), TargetIsa::X86);
    mgr.translate_all().expect("translates");
    mgr.build_image(true)
}

/// A supervisor with the module's image attached, like the one the
/// service keeps per loaded module.
pub fn warm_supervisor(module: &Module) -> Supervisor {
    let image = LlvaImage::parse(build_image(module)).expect("fresh image parses");
    let module = image.decode_module().expect("fresh image decodes");
    let mut sup = Supervisor::new(module, TargetIsa::X86);
    assert!(
        sup.set_image(Arc::new(image)),
        "fresh image matches its module"
    );
    sup
}

/// Where the harness may write: `bench/out`.
pub fn out_dir() -> std::path::PathBuf {
    let root = std::env::var_os("CARGO_MANIFEST_DIR").map_or_else(
        || env!("CARGO_MANIFEST_DIR").into(),
        std::path::PathBuf::from,
    );
    let dir = root.join("out");
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    dir
}
