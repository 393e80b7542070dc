//! Cross-target differential testing: the same module, run on all
//! three simulated processors at -O0 and -O, must produce the same
//! observable outcome — the paper's I-ISA-independence claim (§2, §3)
//! made executable.
//!
//! Two corpora:
//!
//! * every Table 2 workload (`llva-workloads`), the paper's own
//!   benchmark set;
//! * 200 conform-generated seed modules, the adversarial tail.
//!
//! Any divergence — a different return value, a different trap kind,
//! or a different instruction-class profile where one is guaranteed —
//! fails the test. For generated seeds the failure message is a
//! *minimized* `.ll` reproducer (the conform shrinker), so a broken
//! back end produces a small replayable module, not a 200-seed haystack.

use llva_conform::{generate, minimize, GenConfig, Oracle, Outcome};
use llva_engine::llee::{EngineError, ExecutionManager, TargetIsa};
use llva_engine::{InterpError, Interpreter};
use llva_opt::standard_pipeline;

/// Per-run fuel: the heaviest Table 2 workload (175.vpr) retires ~74M
/// SPARC instructions at -O0, so this is a real completion budget, not
/// a cutoff — a `Fuel` outcome on a workload is itself a regression.
const FUEL: u64 = 400_000_000;

/// One target's observation: the outcome plus the instruction-class
/// counts that must be target-invariant.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    outcome: Outcome,
    /// Dynamic calls executed (including intrinsic calls). Every V-ISA
    /// call site lowers to exactly one call-class machine instruction
    /// on every target, so this count is an ISA-independent invariant —
    /// unlike loads/stores (spill strategy) or branches (fusion).
    calls: u64,
}

fn observe(module: &llva_core::module::Module, isa: TargetIsa, entry: &str, args: &[u64]) -> Observation {
    let mut mgr = ExecutionManager::new(module.clone(), isa);
    mgr.set_fuel(FUEL);
    let outcome = match mgr.run(entry, args) {
        Ok(out) => Outcome::Value(out.value),
        Err(EngineError::Trapped(t)) => Outcome::Trap(t.kind),
        Err(EngineError::OutOfFuel) => Outcome::Fuel,
        Err(e) => Outcome::Error(e.to_string()),
    };
    Observation {
        outcome,
        calls: mgr.exec_stats().calls,
    }
}

/// Runs `module` on all three targets and asserts pairwise agreement,
/// labelling failures with `what`.
fn assert_targets_agree(module: &llva_core::module::Module, entry: &str, args: &[u64], what: &str) {
    let mut base: Option<(TargetIsa, Observation)> = None;
    for isa in TargetIsa::ALL {
        let obs = observe(module, isa, entry, args);
        match &base {
            None => base = Some((isa, obs)),
            Some((base_isa, base_obs)) => {
                assert_eq!(
                    base_obs.outcome, obs.outcome,
                    "{what}: outcome divergence between {base_isa} and {isa}"
                );
                // at a fuel cutoff the counters reflect where each
                // target happened to stop, not program semantics
                if obs.outcome != Outcome::Fuel {
                    assert_eq!(
                        base_obs.calls, obs.calls,
                        "{what}: dynamic call-class count divergence between {base_isa} and {isa}"
                    );
                }
            }
        }
    }
}

#[test]
fn table2_workloads_agree_across_targets() {
    // -O0: translate each workload for each target and diff outcomes
    // and call-class counts. The workload's own checksum convention
    // (`main` returns it) makes Value divergence a real miscompile.
    for w in llva_workloads::all() {
        let module = w.compile(llva_core::layout::TargetConfig::ia32());
        assert_targets_agree(&module, "main", &[], w.name);
    }
}

#[test]
fn table2_workloads_agree_across_targets_optimized() {
    // -O: the standard pipeline first, then the same three-way diff.
    for w in llva_workloads::all() {
        let mut module = w.compile(llva_core::layout::TargetConfig::ia32());
        standard_pipeline().run(&mut module);
        llva_core::verifier::verify_module(&module)
            .unwrap_or_else(|e| panic!("{}: optimized module fails verify: {e}", w.name));
        assert_targets_agree(&module, "main", &[], &format!("{} -O", w.name));
    }
}

#[test]
fn generated_seeds_agree_across_targets() {
    // 200 adversarial seeds through the conformance oracle restricted
    // to the native stages: interp baseline + every target at -O0 and
    // -O. A divergence is shrunk to a minimized `.ll` reproducer and
    // the test fails with that reproducer as the message.
    let cfg = GenConfig::default();
    let mut oracle = Oracle::new();
    let mut stages = Vec::new();
    for isa in TargetIsa::ALL {
        stages.push(isa.to_string());
        stages.push(format!("{isa}:opt"));
    }
    oracle.restrict_stages(stages);
    for seed in 0..200u64 {
        let tc = generate(seed, &cfg);
        let (_, divergences) = oracle.check(&tc.module, &tc.entry, &tc.args);
        if !divergences.is_empty() {
            let repro = minimize(seed, &tc, &oracle);
            panic!("cross-target divergence:\n{}", repro.render());
        }
    }
}

#[test]
fn generated_seeds_agree_on_call_class_counts() {
    // The instruction-class invariant on generated modules: dynamic
    // call-class counts agree across targets whenever the run
    // completes or traps identically (the outcome agreement itself is
    // `generated_seeds_agree_across_targets`' job).
    let cfg = GenConfig::default();
    for seed in 0..40u64 {
        let tc = generate(seed, &cfg);
        assert_targets_agree(&tc.module, &tc.entry, &tc.args, &format!("seed {seed}"));
    }
}

/// Runs `%main` of `src` on the structural interpreter and on all three
/// targets; each target's outcome must be the interpreter's.
fn assert_matches_interpreter(src: &str) {
    let module = llva_core::parser::parse_module(src).expect("parses");
    let expected = match Interpreter::new(&module).run("main", &[]) {
        Ok(v) => Outcome::Value(v),
        Err(InterpError::Trap(t)) => Outcome::Trap(t.kind),
        Err(e) => Outcome::Error(e.to_string()),
    };
    for isa in TargetIsa::ALL {
        let got = observe(&module, isa, "main", &[]).outcome;
        assert_eq!(got, expected, "{isa}:\n{src}");
    }
}

#[test]
fn float_compares_with_a_nan_operand_match_the_interpreter() {
    for (ty, nan) in [("float", "0x7FC00000"), ("double", "0x7FF8000000000000")] {
        for op in ["seteq", "setne", "setlt", "setgt", "setle", "setge"] {
            for (a, b) in [(nan, "1.0"), ("1.0", nan)] {
                assert_matches_interpreter(&format!(
                    "bool %main() {{\nentry:\n    %c = {op} {ty} {a}, {b}\n    ret bool %c\n}}\n"
                ));
            }
        }
    }
}

#[test]
fn float_rem_matches_the_interpreter() {
    // a zero divisor gives NaN; a quotient past 2^63 or past the float
    // mantissa still leaves the exact remainder
    let cases = [
        ("double", "5.5", "0.0"),
        ("double", "-7.5", "2.0"),
        ("double", "1.0e300", "3.0"),
        ("float", "1099511627776.0", "3.0"),
        ("float", "5.5", "0.0"),
        ("float", "-7.5", "-2.0"),
    ];
    for (ty, x, y) in cases {
        // the divide keeps the dividend out of the constant pool
        assert_matches_interpreter(&format!(
            "{ty} %main() {{\nentry:\n    %x = div {ty} {x}, 1.0\n    %r = rem {ty} %x, {y}\n    ret {ty} %r\n}}\n"
        ));
    }
}
