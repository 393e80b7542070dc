//! End-to-end tests of the conformance harness itself.
//!
//! The harness is only trustworthy if (a) a healthy pipeline produces
//! zero divergences over a seed sweep, and (b) a *deliberately broken*
//! executor is caught, attributed to its stage, and shrunk to a small
//! reproducer that names the seed. Both directions are covered here.

use llva_conform::gen::{generate, GenConfig};
use llva_conform::oracle::{checked_interp, interp_outcome, Oracle, Outcome};
use llva_conform::{minimize, run_seed};
use llva_core::instruction::{InstId, Opcode};
use llva_core::module::Module;

#[test]
fn healthy_pipeline_sweep_has_zero_divergences() {
    let cfg = GenConfig::default();
    let oracle = Oracle::new();
    for seed in 0..16 {
        let out = run_seed(seed, &generate(seed, &cfg), &oracle, true);
        assert!(
            out.divergences.is_empty(),
            "seed {seed} diverged: {:?}",
            out.divergences
        );
    }
}

#[test]
fn healthy_pipeline_wide_sweep_without_native_stages() {
    // cheaper per seed, so sweep wider: every representation change
    // and every pass, interpreter-checked
    let cfg = GenConfig::default();
    let mut oracle = Oracle::new();
    oracle.skip_native(true);
    for seed in 100..180 {
        let tc = generate(seed, &cfg);
        let (_, divergences) = oracle.check(&tc.module, &tc.entry, &tc.args);
        assert!(
            divergences.is_empty(),
            "seed {seed} diverged: {divergences:?}"
        );
    }
}

/// Swaps the operands of the first `sub` instruction — a classic
/// miscompile (`x - y` becomes `y - x`). Returns `None` if the module
/// has no `sub`.
fn sabotage_first_sub(m: &Module) -> Option<Module> {
    let mut m2 = m.clone();
    for fid in m2.function_ids() {
        let func = m2.function_mut(fid);
        let ids: Vec<InstId> = func.inst_iter().map(|(_, i)| i).collect();
        for id in ids {
            if func.inst(id).opcode() == Opcode::Sub {
                let ops = func.inst(id).operands();
                let swapped = vec![ops[1], ops[0]];
                func.set_operands(id, swapped);
                return Some(m2);
            }
        }
    }
    None
}

/// A "translator" stage with the sabotage wired in: every module it is
/// handed gets its first `sub` flipped before interpretation.
fn sabotaged_oracle() -> Oracle {
    let mut oracle = Oracle::new();
    oracle.skip_native(true);
    oracle.add_stage("miscompile", |m, entry, args, fuel| {
        match sabotage_first_sub(m) {
            Some(bad) => checked_interp(&bad, entry, args, fuel),
            None => interp_outcome(m, entry, args, fuel),
        }
    });
    oracle
}

#[test]
fn injected_miscompile_is_caught_and_shrunk() {
    let cfg = GenConfig::default();
    let oracle = sabotaged_oracle();

    // find a seed whose program is actually sensitive to the flip
    // (deterministic: the generator is seeded)
    let mut caught = None;
    for seed in 0..100u64 {
        let tc = generate(seed, &cfg);
        let (_, divergences) = oracle.check(&tc.module, &tc.entry, &tc.args);
        if divergences.iter().any(|d| d.stage == "miscompile") {
            caught = Some((seed, tc, divergences));
            break;
        }
    }
    let (seed, tc, divergences) =
        caught.expect("some seed in 0..100 must be sensitive to a sub-operand swap");
    assert!(
        divergences.iter().all(|d| d.stage == "miscompile"),
        "only the sabotaged stage may diverge: {divergences:?}"
    );

    // shrink it: the reproducer must be much smaller, still diverge at
    // the same stage, and name the seed for replay
    let before = tc.module.total_insts();
    let repro = minimize(seed, &tc, &oracle);
    assert!(
        repro.stats.insts_after < before,
        "no shrinkage: {} -> {}",
        before,
        repro.stats.insts_after
    );
    assert!(
        repro.stats.insts_after <= 8,
        "reproducer should be tiny, got {} instructions",
        repro.stats.insts_after
    );
    assert!(
        repro.divergences.iter().any(|d| d.stage == "miscompile"),
        "minimized module lost the divergence: {:?}",
        repro.divergences
    );
    // the minimized module still verifies and still contains the
    // sabotage target
    let min = llva_core::parser::parse_module(&repro.text).expect("minimized .ll reparses");
    llva_core::verifier::verify_module(&min).expect("minimized module verifies");
    assert!(repro.text.contains("sub"), "reproducer kept a sub:\n{}", repro.text);

    let report = repro.render();
    assert!(report.contains(&format!("seed {seed}")));
    assert!(report.contains("minimized module"));
    assert!(report.contains("stage 'miscompile'"));
}

#[test]
fn trap_outcomes_are_compared_not_crashed() {
    // a module that traps (divide by zero) must produce the same Trap
    // outcome in every stage rather than aborting the harness
    let src = r#"
long %f(long %a, long %b) {
entry:
    %q = div long %a, 0
    ret long %q
}
"#;
    let m = llva_core::parser::parse_module(src).expect("parses");
    llva_core::verifier::verify_module(&m).expect("verifies");
    let (results, divergences) = Oracle::new().check(&m, "f", &[7, 3]);
    assert!(
        divergences.is_empty(),
        "all stages should agree on the trap: {divergences:?}"
    );
    assert!(
        matches!(results[0].outcome, Outcome::Trap(_)),
        "baseline should trap, got {}",
        results[0].outcome
    );
}

#[test]
fn cli_binary_reports_clean_range() {
    let exe = env!("CARGO_BIN_EXE_llva-conform");
    let out = std::process::Command::new(exe)
        .args(["--seeds", "0..4"])
        .output()
        .expect("llva-conform runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 diverging"), "{stdout}");
    assert!(stdout.contains("x86"), "{stdout}");
    assert!(stdout.contains("sparc"), "{stdout}");
}

/// The line naming what ran: equal across runs and stage sets.
#[test]
fn cli_binary_prints_the_same_hash_of_what_it_ran() {
    let ran = |stages: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_llva-conform"))
            .args(["--seeds", "0..3"])
            .args(stages)
            .output()
            .expect("llva-conform runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let line = stdout
            .lines()
            .find(|l| l.starts_with("ran "))
            .map(str::to_owned);
        line.unwrap_or_else(|| panic!("no hash line in {stdout}"))
    };
    let first = ran(&[]);
    assert!(
        first.starts_with("ran 3 seed(s), bytecode hash "),
        "{first}"
    );
    assert_eq!(ran(&[]), first);
    assert_eq!(ran(&["--stage", "x86"]), first);
}

#[test]
fn cli_binary_honors_seed_env_override() {
    let exe = env!("CARGO_BIN_EXE_llva-conform");
    let out = std::process::Command::new(exe)
        .env("LLVA_CONFORM_SEEDS", "41,42")
        .output()
        .expect("llva-conform runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 seed(s)"), "{stdout}");
}
