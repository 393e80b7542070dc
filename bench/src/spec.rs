//! The benchmark's vocabulary: every workload and every metric, with
//! unit, direction and bound. `BENCHMARK.json` at the repository root
//! states the same tables for the driver; a unit test holds the two
//! together.

use crate::stats::Combine;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 6] = [
    WorkloadSpec {
        name: "build",
        why: "source to shipped bytecode (minic, opt, verify, encode) for the 17 Table 2 programs and 32 seeded modules: the developer's compile time",
    },
    WorkloadSpec {
        name: "launch-cold",
        why: "bytecode to first result with nothing cached for the six shortest programs: decode, verify and JIT translation dominate, execution does not",
    },
    WorkloadSpec {
        name: "launch-warm",
        why: "the same six launches from a module image file: image attach stands in for translation, so translator work must not move it",
    },
    WorkloadSpec {
        name: "run-hot",
        why: "Supervisor::run on prebuilt supervisors for the five longest programs: over 99% of the time is in the executor the ladder picks",
    },
    WorkloadSpec {
        name: "serve-calls",
        why: "closed loop of 2 connections calling a 5-instruction function over TCP: frame codec, admission, queue hop and per-call fixed cost are the latency",
    },
    WorkloadSpec {
        name: "serve-mixed",
        why: "same loop, 15 executor-bound calls then 1 load of a never-seen module: the shared cache's write side beside its read side",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` `new` is worse (negative: better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the median may worsen.
    pub bound: f64,
    pub combine: Combine,
    pub what: &'static str,
}

/// Every end-to-end metric is defined, and never zero, on every
/// workload; an operation is what the workload table says it is.
///
/// The timing bounds are as wide as they are because the 2-vCPU
/// machine this was written on slows by 10 to 30% for tens of seconds
/// at a time, with no steal time to show for it: ten 12-second runs of
/// one binary spread 4 to 12% (quartile distance over median) in
/// `ops_per_s`. Latency percentiles spread wider still and are
/// per-layer metrics for that reason.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        combine: Combine::Median,
        what: "one set-up with its untimed first round, reference answers excluded; median of the set-ups repeated in the run",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        combine: Combine::Median,
        what: "operations of a round over the lower quartile of the rounds' wall times",
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        combine: Combine::Median,
        what: "most heap bytes live at once in the measuring process (set-up and checks included)",
    },
    EndToEnd {
        name: "bytecode_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.01,
        combine: Combine::Exact,
        what: "virtual object code bytes of the fixed programs the workload ships; the same for every seed",
    },
];

/// The name ISSUE 11 gave a (workload, metric) pair, where it named one.
pub fn issue_name(workload: &str, metric: &str) -> Option<&'static str> {
    Some(match (workload, metric) {
        ("build", "ops_per_s") => "build_programs_per_s",
        ("launch-cold", "ops_per_s") => "1000 / cold_start_ms",
        ("launch-warm", "ops_per_s") => "1000 / warm_start_ms",
        ("run-hot", "ops_per_s") => "run_minst_per_s / 8.2056",
        ("serve-calls" | "serve-mixed", "ops_per_s") => "calls_per_s",
        (_, "peak_heap_mb") => "peak_rss_mb, as heap bytes",
        ("build", "bytecode_bytes") => "bytecode_bytes, Table 2 programs only",
        _ => return None,
    })
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Counts the program determines are `Exact`: they must repeat
    /// between rounds and passes.
    pub combine: Combine,
}

const fn timing(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        combine: Combine::Median,
    }
}

const fn ms(name: &'static str) -> Layer {
    timing(name, "ms", Better::Lower)
}

const fn us(name: &'static str) -> Layer {
    timing(name, "us", Better::Lower)
}

const fn rate(name: &'static str) -> Layer {
    timing(name, "Minst/s", Better::Higher)
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        combine: Combine::Exact,
    }
}

const fn fewer(name: &'static str) -> Layer {
    exact(name, "count", Better::Lower)
}

/// A count that is a pure function of the optimised module — and so
/// will be `exact` once the link-time pipeline stops ordering
/// instructions by hash iteration (`opt.unstable_outputs` reads 0).
/// Until then two builds of one program can differ in these.
const fn after_opt(name: &'static str, unit: &'static str) -> Layer {
    timing(name, unit, Better::Lower)
}

/// Per-layer metrics of the traced run. `_ms` values are Σ self time of
/// the spans of that name per round, `_us` values the median self time
/// of one span; both are medians over the traced rounds. A metric whose
/// layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[Layer] = &[
    ms("minic.parse_ms"),
    ms("minic.codegen_ms"),
    fewer("minic.insts_out"),
    ms("opt.internalize_ms"),
    ms("opt.inline_ms"),
    ms("opt.globaldce_ms"),
    ms("opt.mem2reg_ms"),
    ms("opt.constfold_ms"),
    ms("opt.licm_ms"),
    ms("opt.gvn_ms"),
    ms("opt.load_elim_ms"),
    ms("opt.dce_ms"),
    ms("opt.simplify_cfg_ms"),
    exact("opt.passes_changed", "count", Better::Higher),
    fewer("opt.insts_out"),
    // programs of a round whose bytes differ from the set-up build of
    // the same input; not exact, because it is the nondeterminism
    timing("opt.unstable_outputs", "count", Better::Lower),
    ms("core.verifier.verify_ms"),
    ms("core.bytecode.encode_ms"),
    ms("core.bytecode.decode_ms"),
    ms("core.printer.print_ms"),
    ms("core.parser.parse_ms"),
    ms("backend.x86.translate_ms"),
    ms("backend.sparc.translate_ms"),
    ms("backend.riscv.translate_ms"),
    after_opt("backend.x86.insts", "count"),
    after_opt("backend.sparc.insts", "count"),
    after_opt("backend.riscv.insts", "count"),
    after_opt("backend.x86.spills", "count"),
    ms("engine.llee.new_ms"),
    ms("engine.llee.translate_ms"),
    ms("engine.predecode.decode_ms"),
    ms("engine.supervisor.new_ms"),
    ms("engine.supervisor.overhead_ms"),
    ms("engine.supervisor.set_image_ms"),
    ms("engine.image.emit_ms"),
    after_opt("engine.image.bytes", "bytes"),
    ms("engine.image.map_ms"),
    ms("engine.image.decode_module_ms"),
    ms("engine.image.attach_native_ms"),
    ms("engine.image.install_native_ms"),
    ms("engine.image.attach_predecode_ms"),
    exact("engine.llee.image_hit_ratio", "ratio", Better::Higher),
    rate("engine.interp.minst_per_s"),
    rate("engine.predecode.minst_per_s"),
    rate("engine.traced.minst_per_s"),
    exact("engine.traced.coverage", "ratio", Better::Higher),
    fewer("engine.traced.side_exits"),
    ms("machine.x86.exec_ms"),
    rate("machine.x86.minst_per_s"),
    rate("machine.sparc.minst_per_s"),
    rate("machine.riscv.minst_per_s"),
    rate("machine.x86.native_minst_per_s"),
    rate("machine.sparc.native_minst_per_s"),
    rate("machine.riscv.native_minst_per_s"),
    after_opt("machine.x86.sim_cycles", "count"),
    after_opt("machine.sparc.sim_cycles", "count"),
    after_opt("machine.riscv.sim_cycles", "count"),
    exact(
        "engine.supervisor.translated_ratio",
        "ratio",
        Better::Higher,
    ),
    us("serve.proto.encode_us"),
    us("serve.proto.decode_us"),
    us("serve.service.call_us"),
    us("serve.server.wire_us"),
    us("engine.supervisor.call_us"),
    us("serve.service.overhead_us"),
    ms("serve.service.load_cold_ms"),
    ms("serve.service.load_warm_ms"),
    ms("serve.server.load_p50_ms"),
    us("serve.metrics.render_us"),
    // the service's own counters move with scheduling, not only with code
    timing("serve.quota.reject_ratio", "ratio", Better::Lower),
    timing("serve.service.retries", "count", Better::Lower),
    // latency of all the operations of the traced rounds together
    // (tracing adds two clock reads per operation): nearest-rank
    // percentiles, so of fewer than 100 operations p99 is the slowest
    ms("harness.op_p50_ms"),
    ms("harness.op_p99_ms"),
    timing("harness.peak_rss_mb", "MiB", Better::Lower),
    ms("harness.op_ms"),
    ms("harness.attributed_ms"),
    ms("unattributed_ms"),
    timing("harness.traced_ops_per_s", "1/s", Better::Higher),
];

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|l| l.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The unit of any metric of either table.
pub fn unit_of(name: &str) -> &'static str {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| layer(name).map(|l| l.unit))
        .unwrap_or_else(|| panic!("no metric named {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|l| l.name));
        let ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for n in &names {
            assert!(ok(n), "bad name {n}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is what the driver reads; it must say what this
    /// file says.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
            .expect("parses");
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);

        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(got, "name").as_deref(), Some(want.name));
            assert_eq!(field(got, "why").as_deref(), Some(want.why));
        }
        let e2e = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(got, "name").as_deref(), Some(want.name));
            assert_eq!(field(got, "unit").as_deref(), Some(want.unit));
            assert_eq!(field(got, "better").as_deref(), Some(want.better.as_str()));
            assert_eq!(got.get("bound").and_then(Json::as_f64), Some(want.bound));
        }
        let layers = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(got, "name").as_deref(), Some(want.name));
            assert_eq!(field(got, "unit").as_deref(), Some(want.unit));
            assert_eq!(field(got, "better").as_deref(), Some(want.better.as_str()));
        }
        assert_eq!(
            doc.get("paths"),
            Some(&Json::Arr(vec![Json::Str("bench".to_string())]))
        );
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(Better::Higher.worsening(100.0, 120.0) < 0.0);
    }
}
