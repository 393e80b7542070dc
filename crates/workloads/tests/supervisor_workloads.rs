//! Acceptance sweep for the tiered execution supervisor (ISSUE 5):
//! every Table 2 workload must complete with the structural
//! interpreter's outcome even when fast tiers are deliberately killed.
//!
//! The kill set comes from `LLVA_KILL_TIER` (comma-separated tier
//! names, the same env the CI fault-injection matrix sets), and the
//! translated tier's target from `LLVA_KILL_ISA` (`x86`, `sparc`, or
//! `riscv`; default `x86` — the CI matrix sweeps the others so every
//! back end sits under the same degradation ladder); when unset,
//! the test sweeps every meaningful degradation depth itself: no kill,
//! `translated`, and `translated,fast-interp`. Kills are cumulative ladder
//! prefixes — killing only a lower tier would be masked by the healthy
//! tier above it answering first.
//!
//! For each workload × kill set the test asserts:
//! * the outcome equals the structural interpreter's (zero wrong
//!   answers, zero unhandled panics — every injected panic is caught),
//! * the `IncidentLog` records exactly one quarantine + fallback per
//!   killed tier for the entry function,
//! * a second run serves the same answer from quarantine skips without
//!   any new incident.

use llva_core::layout::TargetConfig;
use llva_engine::llee::TargetIsa;
use llva_engine::supervisor::{kills_from_env, Supervisor, Tier, TierKill, TierOutcome};
use llva_engine::Interpreter;

const FUEL: u64 = 2_000_000_000;

/// The translated tier's back end: `LLVA_KILL_ISA`, default x86.
fn isa_from_env() -> TargetIsa {
    match std::env::var("LLVA_KILL_ISA").ok().as_deref() {
        Some("sparc") => TargetIsa::Sparc,
        Some("riscv") => TargetIsa::Riscv,
        _ => TargetIsa::X86,
    }
}

/// The kill sets to sweep: from the environment if set, else every
/// cumulative ladder prefix.
fn kill_sets() -> Vec<Vec<TierKill>> {
    let from_env = kills_from_env();
    if !from_env.is_empty() {
        return vec![from_env];
    }
    vec![
        vec![],
        vec![TierKill::panic(Tier::Translated)],
        vec![
            TierKill::panic(Tier::Translated),
            TierKill::panic(Tier::FastInterp),
        ],
    ]
}

#[test]
fn workloads_survive_tier_kills_with_interpreter_outcomes() {
    for kills in kill_sets() {
        let killed: Vec<Tier> = kills.iter().map(|k| k.tier).collect();
        for w in llva_workloads::all() {
            let module = w.compile(TargetConfig::default());

            let mut interp = Interpreter::new(&module);
            interp.set_fuel(FUEL);
            let expected = interp.run("main", &[]).unwrap_or_else(|e| {
                panic!("{}: structural interpreter must complete: {e}", w.name)
            });

            let mut sup = Supervisor::new(module.clone(), isa_from_env());
            sup.set_fuel(FUEL);
            for &kill in &kills {
                sup.arm_kill(kill);
            }
            let run = sup
                .run("main", &[])
                .unwrap_or_else(|e| panic!("{} (killed {killed:?}): {e}", w.name));
            assert_eq!(
                run.outcome,
                TierOutcome::Value(expected),
                "{} (killed {killed:?}): degraded outcome differs from the interpreter",
                w.name
            );
            assert_eq!(run.degraded, !kills.is_empty(), "{}", w.name);

            // exactly one quarantine + fallback incident per killed tier
            let log = sup.incident_log();
            assert_eq!(
                log.len(),
                kills.len(),
                "{} (killed {killed:?}): expected one incident per kill, log: {}",
                w.name,
                log.summary()
            );
            for (incident, kill) in log.incidents().iter().zip(&kills) {
                assert_eq!(incident.tier, kill.tier, "{}", w.name);
                assert_eq!(incident.function, "main", "{}", w.name);
                assert!(incident.injected, "{}: kill incidents are injected", w.name);
                assert!(
                    sup.is_quarantined("main", kill.tier),
                    "{}: killed tier must be quarantined",
                    w.name
                );
            }

            // the quarantine holds: same answer, no new incidents
            let again = sup.run("main", &[]).unwrap_or_else(|e| {
                panic!("{} (killed {killed:?}) second run: {e}", w.name)
            });
            assert_eq!(again.outcome, TierOutcome::Value(expected), "{}", w.name);
            assert_eq!(
                sup.incident_log().len(),
                kills.len(),
                "{}: quarantine skips must not re-fault",
                w.name
            );
        }
    }
}
