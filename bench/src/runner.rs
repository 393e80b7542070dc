//! One run of one workload in this process: set-up several times over,
//! each with its untimed first round, then whole rounds until the time
//! is up. The last line of standard output is the result the benchmark
//! contract asks for; everything a person reads goes to standard error.

use crate::json::{metrics_object, Json};
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats::{combine, median, percentile, Combine};
use crate::trace::{profile_round, Tracer};
use crate::workloads::{self, out_dir, Layers, Oracle, Workload};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// A run sets up at least three times and at most nine, stopping in
/// between once the set-ups after the first (which alone computes the
/// reference answers) have taken this long: a 100 ms set-up reports a
/// median of nine, a 1.5 s one a median of three.
const SETUPS: std::ops::RangeInclusive<usize> = 3..=9;
const REPEATS_BUDGET: Duration = Duration::from_secs(3);

pub struct RunResult {
    /// Operations checked, the warm-up round's included.
    pub attempted: usize,
    pub failed: usize,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Exact counts that differed between rounds of this run.
    pub disagreements: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.disagreements.is_empty()
    }
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    // A set-up is everything before the first timed round: building
    // what the workload runs on, then one untimed round, in which
    // caches fill and lazy initialisation finishes — so work a change
    // moves out of the timed rounds shows in `setup_s`. The reference
    // answers are the harness's own work and are not charged.
    let mut oracle = Oracle::default();
    let mut setups = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut first_done = None;
    let mut workload: Box<dyn Workload> = loop {
        let start = Instant::now();
        let mut w = workloads::set_up(&args.workload, args.seed, args.traced, &mut oracle)
            .ok_or_else(|| format!("no workload named {}", args.workload))?;
        attempted += w.round(&mut Tracer::new(false)).op_ns.len();
        setups.push(
            start
                .elapsed()
                .saturating_sub(oracle.take_spent())
                .as_secs_f64(),
        );
        failed += w.check(&mut oracle);
        let repeating = first_done.get_or_insert_with(Instant::now).elapsed();
        if setups.len() >= *SETUPS.end()
            || (setups.len() >= *SETUPS.start() && repeating >= REPEATS_BUDGET)
        {
            break w;
        }
        w.finish();
    };

    let mut tracer = Tracer::new(args.traced);
    let mut per_round: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    // every round of a workload holds the same operations
    let mut ops_per_round = 0;
    let mut round_ns = Vec::new();
    let mut traced_op_ns = Vec::new();
    let measure_start = Instant::now();
    while round_ns.is_empty() || measure_start.elapsed().as_secs_f64() < args.seconds {
        let first_span = tracer.spans().len();
        let round = workload.round(&mut tracer);
        failed += workload.check(&mut oracle);
        attempted += round.op_ns.len();
        ops_per_round = round.op_ns.len();
        round_ns.push(round.wall_ns);
        let mut values: Layers = BTreeMap::new();
        if args.traced {
            workload.probe(&mut tracer, &mut values);
            layer_times(&tracer, first_span, &mut values);
            traced_op_ns.extend(&round.op_ns);
        } else {
            values.insert("bytecode_bytes", workload.bytecode_bytes() as f64);
        }
        for (name, value) in values {
            per_round.entry(name).or_default().push(value);
        }
    }
    workload.finish();
    // The rate is taken at the lower quartile of the round times, not
    // their median. What disturbs a round on a shared machine only ever
    // slows it, and comes in bursts that some rounds escape: between
    // 10 s windows of one recording the quartile spread 7.7% of its
    // median, the median 9.4% (bench/README.md, "Noise").
    let quartile_ns = percentile(&round_ns, 25.0);
    let ops_per_s = ops_per_round as f64 / (quartile_ns as f64 / 1e9);
    let rate = if args.traced {
        "harness.traced_ops_per_s"
    } else {
        "ops_per_s"
    };
    per_round.insert(rate, vec![ops_per_s]);
    let rounds = round_ns.len();

    let wanted: Vec<(&'static str, Combine)> = if args.traced {
        let path = out_dir().join(format!("trace-{}.json", args.workload));
        std::fs::write(&path, tracer.to_json().render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        per_round.insert("harness.peak_rss_mb", vec![peak_rss_mb()]);
        for (name, p) in [("harness.op_p50_ms", 50.0), ("harness.op_p99_ms", 99.0)] {
            per_round.insert(name, vec![percentile(&traced_op_ns, p) as f64 / 1e6]);
        }
        PER_LAYER.iter().map(|l| (l.name, l.combine)).collect()
    } else {
        per_round.insert("setup_s", vec![median(&setups)]);
        per_round.insert("peak_heap_mb", vec![crate::heap::peak_mb()]);
        END_TO_END.iter().map(|m| (m.name, m.combine)).collect()
    };
    let mut metrics = BTreeMap::new();
    let mut disagreements = Vec::new();
    for (name, how) in wanted {
        // a layer this workload does not exercise reads 0
        let values = per_round.get(name).map_or(&[0.0][..], Vec::as_slice);
        metrics.insert(
            name,
            combine(values, how).unwrap_or_else(|e| {
                disagreements.push(format!("{name}: {e}"));
                values[0]
            }),
        );
    }
    eprintln!(
        "{}: {rounds} rounds, {attempted} operations, {failed} failed, {} set-ups{}",
        args.workload,
        setups.len(),
        disagreements
            .iter()
            .map(|d| format!("\n  {d}"))
            .collect::<String>()
    );
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        disagreements,
    })
}

/// Turns the round's spans into the per-layer times: `X_ms` is the Σ
/// self time of spans named `X`, `X_us` the median self time of one.
fn layer_times(tracer: &Tracer, first_span: usize, values: &mut Layers) {
    let listed = |name: &str, suffix: &str| {
        PER_LAYER
            .iter()
            .find(|l| l.name.strip_suffix(suffix) == Some(name))
            .map(|l| l.name)
    };
    let profile = profile_round(&tracer.spans()[first_span..], |name| {
        listed(name, "_ms").or(listed(name, "_us")).is_some()
    });
    for (name, self_ns) in &profile.by_name {
        if let Some(metric) = listed(name, "_ms") {
            values
                .entry(metric)
                .or_insert(self_ns.iter().sum::<u64>() as f64 / 1e6);
        } else if let Some(metric) = listed(name, "_us") {
            values
                .entry(metric)
                .or_insert(percentile(self_ns, 50.0) as f64 / 1e3);
        }
    }
    values.insert("harness.op_ms", profile.op_ns as f64 / 1e6);
    values.insert("harness.attributed_ms", profile.attributed_ns as f64 / 1e6);
    values.insert("unattributed_ms", profile.unattributed_ns as f64 / 1e6);
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The contract's result line.
pub fn result_json(result: &RunResult) -> Json {
    Json::obj([
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", metrics_object(&result.metrics, spec::unit_of)),
    ])
}
