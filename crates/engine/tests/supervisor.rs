//! Degradation coverage for the tiered execution supervisor.
//!
//! Every scenario here injects a deterministic fault — a panic in a
//! fast tier, a runaway callee against the watchdog, a silently wrong
//! value under cross-check — and asserts three things: the caller still
//! gets the structural interpreter's answer, the faulting tier is
//! quarantined for exactly that function, and the [`IncidentLog`]
//! records the episode in a deterministic, seed-replayable shape.

use llva_engine::llee::TargetIsa;
use llva_engine::storage::MemStorage;
use llva_engine::supervisor::{
    IncidentCause, KillMode, RecoveryAction, Supervisor, SupervisorError, Tier, TierKill,
    TierOutcome,
};
use llva_engine::Interpreter;

const PROGRAM: &str = r#"
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

int %spin(int %n) {
entry:
    br label %loop
loop:
    %i = phi int [ 0, %entry ], [ %i1, %loop ]
    %i1 = add int %i, 1
    %done = seteq int %i1, %n
    br bool %done, label %out, label %loop
out:
    ret int %i1
}

int %main() {
entry:
    %r = call int %fib(int 12)
    ret int %r
}

int %slow_main() {
entry:
    %r = call int %spin(int 100000)
    ret int %r
}
"#;

fn module() -> llva_core::module::Module {
    llva_core::parser::parse_module(PROGRAM).expect("parses")
}

fn interp_value(entry: &str) -> u64 {
    Interpreter::new(&module()).run(entry, &[]).expect("interp runs")
}

/// A panic injected in every fast tier (translated, pre-decoded)
/// degrades to the structural interpreter, with one incident and one
/// quarantine per killed tier.
#[test]
fn killed_fast_tiers_degrade_to_structural_interpreter() {
    let expected = interp_value("main");
    let mut sup = Supervisor::new(module(), TargetIsa::X86);
    sup.arm_kill(TierKill::panic(Tier::Translated));
    sup.arm_kill(TierKill::panic(Tier::FastInterp));
    let run = sup.run("main", &[]).expect("degrades to interp");
    assert_eq!(run.outcome, TierOutcome::Value(expected));
    assert_eq!(run.tier, Tier::Interp);
    assert!(run.degraded);

    let log = sup.incident_log();
    assert_eq!(log.len(), 2, "one incident per killed tier: {}", log.summary());
    assert_eq!(log.incidents()[0].tier, Tier::Translated);
    assert_eq!(log.incidents()[1].tier, Tier::FastInterp);
    for incident in log.incidents() {
        assert!(matches!(incident.cause, IncidentCause::Panic(_)));
        assert!(incident.injected, "kill-driven incidents are marked injected");
        assert_eq!(incident.function, "main");
        assert_eq!(incident.retries, 0, "first fault for the tier");
    }
    assert_eq!(
        log.incidents()[0].recovery,
        RecoveryAction::FellBack(Tier::FastInterp)
    );
    assert_eq!(log.incidents()[1].recovery, RecoveryAction::FellBack(Tier::Interp));
    assert!(sup.is_quarantined("main", Tier::Translated));
    assert!(sup.is_quarantined("main", Tier::FastInterp));

    // a second run skips the quarantined tiers silently: same answer,
    // no new incidents — exactly one quarantine + fallback per kill
    let run2 = sup.run("main", &[]).expect("still runs");
    assert_eq!(run2.outcome, TierOutcome::Value(expected));
    assert_eq!(run2.tier, Tier::Interp);
    assert_eq!(sup.incident_log().len(), 2, "no repeat incidents");
    let counters = sup.tier_counters();
    assert_eq!(counters.len(), Tier::LADDER.len());
    assert_eq!(counters[Tier::Translated.index()].skipped_quarantined, 1);
    assert_eq!(counters[Tier::FastInterp.index()].skipped_quarantined, 1);
    assert_eq!(counters[Tier::Interp.index()].served, 2);
}

/// The one kill site: for each proper prefix of the ladder, with and
/// without a module image attached, a panic kill fires in every killed
/// rung at the same point (after its executor is built, before it
/// runs), and the next rung serves the structural interpreter's answer.
#[test]
fn killing_each_ladder_prefix_falls_back_to_the_next_rung() {
    use llva_engine::{ExecutionManager, LlvaImage};
    use std::sync::Arc;

    let expected = interp_value("main");
    let mut builder = ExecutionManager::new(module(), TargetIsa::X86);
    builder.translate_all().expect("translates");
    let image = Arc::new(LlvaImage::parse(builder.build_image(true)).expect("parses"));
    for with_image in [false, true] {
        for depth in 1..Tier::LADDER.len() {
            let (killed, rest) = Tier::LADDER.split_at(depth);
            let what = format!("killed {killed:?}, image {with_image}");
            let mut sup = if with_image {
                let mut sup =
                    Supervisor::new(image.decode_module().expect("decodes"), TargetIsa::X86);
                assert!(sup.set_image(image.clone()), "{what}: image matches");
                sup
            } else {
                Supervisor::new(module(), TargetIsa::X86)
            };
            for &tier in killed {
                sup.arm_kill(TierKill::panic(tier));
            }
            let run = sup.run("main", &[]).expect("degrades");
            assert_eq!(run.outcome, TierOutcome::Value(expected), "{what}");
            assert_eq!(run.tier, rest[0], "{what}: the next rung answers");
            let log = sup.incident_log();
            assert_eq!(log.len(), depth, "{what}: {}", log.summary());
            for (incident, (&tier, &next)) in
                log.incidents().iter().zip(killed.iter().zip(&Tier::LADDER[1..]))
            {
                assert_eq!(incident.tier, tier, "{what}");
                assert!(incident.injected, "{what}");
                assert_eq!(
                    incident.cause,
                    IncidentCause::Panic(format!("injected tier kill: {tier}")),
                    "{what}"
                );
                assert_eq!(incident.recovery, RecoveryAction::FellBack(next), "{what}");
                assert!(sup.is_quarantined("main", tier), "{what}");
            }
        }
    }
}

/// Watchdog expiry in a callee: `slow_main` spins ~500k instructions in
/// `spin`; with a 10k-step watchdog every fast tier is declared hung
/// and quarantined, while the final interpreter rung (full fuel, never
/// watchdog-limited) completes with the right answer.
#[test]
fn watchdog_expiry_in_callee_degrades_without_changing_the_answer() {
    let expected = interp_value("slow_main");
    let mut sup = Supervisor::new(module(), TargetIsa::X86);
    sup.set_watchdog(10_000);
    let run = sup.run("slow_main", &[]).expect("interp finishes");
    assert_eq!(run.outcome, TierOutcome::Value(expected));
    assert_eq!(run.tier, Tier::Interp);
    assert!(run.degraded);
    let log = sup.incident_log();
    assert_eq!(log.len(), 2, "all fast tiers expired: {}", log.summary());
    for incident in log.incidents() {
        assert_eq!(incident.cause, IncidentCause::Watchdog { budget: 10_000 });
        assert!(!incident.injected, "a genuine hang is not an injected kill");
    }
    assert!(sup.is_quarantined("slow_main", Tier::Translated));
    assert!(sup.is_quarantined("slow_main", Tier::FastInterp));
    // the quarantine is keyed per function: `main` is unaffected
    assert!(!sup.is_quarantined("main", Tier::Translated));
    let fast = sup.run("main", &[]).expect("runs");
    assert_eq!(fast.tier, Tier::Translated, "other functions keep the fast path");
}

/// Cross-check mode: a silently wrong value from the translated tier
/// (the fault no panic or watchdog can see) diverges from the
/// structural interpreter, quarantines the tier, and never reaches the
/// caller.
#[test]
fn divergence_under_cross_check_quarantines_the_lying_tier() {
    let expected = interp_value("main");
    let mut sup = Supervisor::new(module(), TargetIsa::X86);
    sup.set_cross_check(true);
    sup.arm_kill(TierKill::wrong_value(Tier::Translated));
    let run = sup.run("main", &[]).expect("degrades");
    assert_eq!(run.outcome, TierOutcome::Value(expected), "wrong answer never served");
    assert_eq!(run.tier, Tier::FastInterp);
    let log = sup.incident_log();
    assert_eq!(log.len(), 1);
    match &log.incidents()[0].cause {
        IncidentCause::Divergence { expected: want, got } => {
            assert_eq!(*want, TierOutcome::Value(expected));
            assert_eq!(*got, TierOutcome::Value(expected ^ 0xBAD_F00D));
        }
        other => panic!("expected a divergence cause, got {other:?}"),
    }
    assert!(sup.is_quarantined("main", Tier::Translated));
    assert_eq!(sup.tier_counters()[Tier::Translated.index()].divergences, 1);

    // without cross-check the same kill would have been served — prove
    // the mode matters
    let mut unchecked = Supervisor::new(module(), TargetIsa::X86);
    unchecked.arm_kill(TierKill::wrong_value(Tier::Translated));
    let lied = unchecked.run("main", &[]).expect("runs");
    assert_eq!(lied.outcome, TierOutcome::Value(expected ^ 0xBAD_F00D));
}

/// All three tiers killed: the ladder runs dry with the documented
/// error shape, and the log still explains every step.
#[test]
fn all_tiers_exhausted_error_shape() {
    let mut sup = Supervisor::new(module(), TargetIsa::X86);
    for tier in Tier::LADDER {
        sup.arm_kill(TierKill::panic(tier));
    }
    let err = sup.run("main", &[]).expect_err("nothing left to run on");
    match &err {
        SupervisorError::TiersExhausted { function, incidents } => {
            assert_eq!(function, "main");
            assert_eq!(*incidents, 3);
        }
        other => panic!("expected TiersExhausted, got {other:?}"),
    }
    let rendered = err.to_string();
    assert!(rendered.contains("all execution tiers exhausted"), "{rendered}");
    assert!(rendered.contains("%main"), "{rendered}");
    let log = sup.incident_log();
    assert_eq!(log.len(), 3);
    assert_eq!(log.incidents()[2].recovery, RecoveryAction::Exhausted);
    // the value-level API agrees
    assert!(sup.quarantined().len() == 3);
}

/// The incident log is deterministic: the same kills over the same
/// program replay the same log, bit for bit (no wall-clock, no ambient
/// randomness — the acceptance requirement for seed-replayable
/// incident reports).
#[test]
fn incident_log_is_deterministic_across_replays() {
    let run_once = || {
        let mut sup = Supervisor::new(module(), TargetIsa::X86);
        sup.set_cross_check(true);
        sup.arm_kill(TierKill::panic(Tier::Translated));
        sup.arm_kill(TierKill { tier: Tier::FastInterp, mode: KillMode::Panic });
        sup.run("main", &[]).expect("degrades");
        sup.run("main", &[]).expect("degrades");
        sup.incident_log().clone()
    };
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "replaying the scenario must replay the log");
    assert_eq!(first.len(), 2);
    // seq numbers are the log's only clock and they are ordinal
    for (i, incident) in first.incidents().iter().enumerate() {
        assert_eq!(incident.seq as usize, i);
    }
}

/// Storage attached to the supervisor survives a panic in the
/// translated tier (the only tier that uses it) and keeps serving the
/// offline cache after the tier is rehabilitated.
#[test]
fn storage_survives_a_killed_translated_tier() {
    let mut sup = Supervisor::new(module(), TargetIsa::X86);
    sup.set_storage(Box::new(MemStorage::new()), "app");
    sup.arm_kill(TierKill::panic(Tier::Translated));
    sup.run("main", &[]).expect("degrades");
    // the tier panicked at entry; the storage handle must still be here
    sup.clear_kills();
    sup.lift_quarantine("main", Tier::Translated);
    let run = sup.run("main", &[]).expect("translated tier works again");
    assert_eq!(run.tier, Tier::Translated);
    let storage = sup.take_storage().expect("storage survived the panic");
    assert!(storage.cache_size("app").unwrap_or(0) > 0, "cache was written");
}

/// Genuine fuel exhaustion (no watchdog) is an *outcome*, not a fault:
/// every tier agrees and nothing is quarantined.
#[test]
fn out_of_fuel_is_an_outcome_not_an_incident() {
    let mut sup = Supervisor::new(module(), TargetIsa::X86);
    sup.set_fuel(1_000);
    let run = sup.run("slow_main", &[]).expect("runs");
    assert_eq!(run.outcome, TierOutcome::OutOfFuel);
    assert_eq!(run.tier, Tier::Translated, "first tier already answers");
    assert!(sup.incident_log().is_empty());
    assert!(sup.quarantined().is_empty());
}

// ---------------------------------------------------------------------------
// Call isolation on the resident manager: the supervisor keeps one
// `ExecutionManager` (translated code) for its lifetime and starts a
// fresh process on it per run, so no call may see anything an earlier
// call did.
// ---------------------------------------------------------------------------

/// `stateful` folds everything a leaked process would change into its
/// return value: a global it bumps, the first word of a heap block (zero
/// on a fresh heap) which it then overwrites, the block's address (moves
/// if the heap break carried over) and the virtual clock. `boom` dirties
/// the global and then traps; `spin` burns steps.
const STATEFUL: &str = r#"
@counter = global int 5

declare sbyte* %llva.heap.alloc(ulong)
declare ulong %llva.clock()

int %stateful(int %n) {
entry:
    br label %loop
loop:
    %i = phi int [ 0, %entry ], [ %i1, %loop ]
    %v = load int* @counter
    %v1 = add int %v, %i
    store int %v1, int* @counter
    %i1 = add int %i, 1
    %done = seteq int %i1, %n
    br bool %done, label %out, label %loop
out:
    %p = call sbyte* %llva.heap.alloc(ulong 64)
    %ip = cast sbyte* %p to int*
    %old = load int* %ip
    store int %n, int* %ip
    %addr = cast sbyte* %p to int
    %t = call ulong %llva.clock()
    %ti = cast ulong %t to int
    %g = load int* @counter
    %a = add int %g, %addr
    %b = add int %a, %old
    %c = add int %b, %ti
    ret int %c
}

int %boom(int %d) {
entry:
    store int 1000, int* @counter
    %p = call sbyte* %llva.heap.alloc(ulong 4096)
    %q = div int 7, %d
    ret int %q
}

int %spin(int %n) {
entry:
    store int 2000, int* @counter
    br label %loop
loop:
    %i = phi int [ 0, %entry ], [ %i1, %loop ]
    %i1 = add int %i, 1
    %done = seteq int %i1, %n
    br bool %done, label %out, label %loop
out:
    ret int %i1
}

int %other() {
entry:
    ret int 9
}
"#;

fn stateful_module() -> llva_core::module::Module {
    llva_core::parser::parse_module(STATEFUL).expect("parses")
}

/// What a brand-new supervisor answers for `stateful(20)`: the value
/// and the step count every later call must reproduce.
fn fresh_answer(isa: TargetIsa) -> (TierOutcome, u64) {
    let mut sup = Supervisor::new(stateful_module(), isa);
    let run = sup.run("stateful", &[20]).expect("runs");
    assert_eq!(run.tier, Tier::Translated, "{isa}");
    (run.outcome, run.steps)
}

fn assert_fresh(sup: &mut Supervisor, isa: TargetIsa, after: &str) {
    let run = sup.run("stateful", &[20]).expect("runs");
    assert_eq!(run.tier, Tier::Translated, "{isa} after {after}");
    assert_eq!(
        (run.outcome, run.steps),
        fresh_answer(isa),
        "{isa}: a call after {after} saw state a fresh process would not"
    );
}

#[test]
fn every_call_on_a_resident_manager_starts_a_fresh_process() {
    for isa in TargetIsa::ALL {
        let mut sup = Supervisor::new(stateful_module(), isa);
        for call in 1..=5 {
            assert_fresh(&mut sup, isa, &format!("{} earlier call(s)", call - 1));
        }
        // the code, unlike the process, is resident: one translation of
        // the one function reached, however many calls it served
        let t = sup.translation_stats();
        assert_eq!(
            t.functions_translated, 1,
            "{isa}: translated once per supervisor"
        );

        // after a trap that first dirtied the global and the heap
        let run = sup.run("boom", &[0]).expect("answers");
        assert_eq!(
            run.outcome,
            TierOutcome::Trap(llva_machine::TrapKind::DivideByZero)
        );
        assert_eq!(run.tier, Tier::Translated, "{isa}");
        assert_fresh(&mut sup, isa, "a trap");

        // after genuine fuel exhaustion mid-loop
        sup.set_fuel(500);
        let run = sup.run("spin", &[1_000_000]).expect("answers");
        assert_eq!(run.outcome, TierOutcome::OutOfFuel, "{isa}");
        sup.set_fuel(10_000_000_000);
        assert_fresh(&mut sup, isa, "OutOfFuel");

        // after a watchdog expiry (a fault of `spin`'s fast tiers, so
        // `stateful` keeps the translated rung)
        sup.set_watchdog(500);
        let run = sup.run("spin", &[100_000]).expect("interp finishes");
        assert_eq!(run.tier, Tier::Interp, "{isa}");
        assert!(sup.is_quarantined("spin", Tier::Translated), "{isa}");
        sup.set_watchdog(u64::MAX);
        assert_fresh(&mut sup, isa, "a watchdog expiry");
        assert_eq!(
            sup.translation_stats().functions_translated,
            3,
            "{isa}: stateful, boom and spin, each translated once"
        );

        // after an injected panic: the manager it unwound through is
        // discarded, the next attempt builds a new one, which serves
        sup.arm_kill(TierKill::panic(Tier::Translated));
        let run = sup.run("stateful", &[20]).expect("degrades");
        assert_ne!(run.tier, Tier::Translated, "{isa}");
        sup.clear_kills();
        sup.lift_quarantine("stateful", Tier::Translated);
        assert_fresh(&mut sup, isa, "a discarded manager");
        assert_fresh(&mut sup, isa, "a rebuilt manager's first call");
        assert_eq!(
            sup.translation_stats().functions_translated,
            4,
            "{isa}: the rebuilt manager translated stateful again, once; \
             the discarded manager's count is kept"
        );
    }
}

/// `set_storage`, `take_storage` and `set_image` reach the resident
/// manager, not just the one the first run builds.
#[test]
fn attachments_after_the_first_run_still_take_effect() {
    use llva_engine::storage::{Storage, SyncStorage};
    use llva_engine::{ExecutionManager, LlvaImage};
    use std::sync::Arc;

    for isa in TargetIsa::ALL {
        // an image carries its module with the target flags of the
        // manager that built it; supervise exactly that module
        let mut builder = ExecutionManager::new(stateful_module(), isa);
        builder.translate_all().expect("translates");
        let image = LlvaImage::parse(builder.build_image(false)).expect("parses");
        let mut sup = Supervisor::new(image.decode_module().expect("decodes"), isa);
        sup.run("stateful", &[20]).expect("runs");

        // storage attached late: the next function translated is
        // written back to it
        let shared = SyncStorage::new(MemStorage::new());
        sup.set_storage(Box::new(shared.clone()), "late");
        assert_eq!(shared.cache_size("late").unwrap_or(0), 0, "{isa}");
        sup.run("spin", &[10]).expect("runs");
        let written = shared.cache_size("late").unwrap_or(0);
        assert!(written > 0, "{isa}: late storage never saw a write-back");

        // storage detached late: it comes back, and later translations
        // no longer reach it
        assert!(sup.take_storage().is_some(), "{isa}: storage was attached");
        assert!(sup.take_storage().is_none(), "{isa}: and is gone now");
        sup.run("boom", &[1]).expect("runs");
        assert_eq!(shared.cache_size("late").unwrap_or(0), written, "{isa}");

        // image attached late: the one function not yet installed comes
        // from it instead of the JIT
        let before = sup.translation_stats();
        assert!(
            sup.set_image(Arc::new(image)),
            "{isa}: image matches its module"
        );
        let run = sup.run("other", &[]).expect("runs");
        assert_eq!(run.value(), Some(9), "{isa}");
        let after = sup.translation_stats();
        assert_eq!(after.image_hits, before.image_hits + 1, "{isa}");
        assert_eq!(
            after.functions_translated, before.functions_translated,
            "{isa}"
        );
        // and the calls keep starting from a fresh process throughout
        assert_fresh(&mut sup, isa, "late attachments");
    }
}

/// What a supervised call cannot reach (it boots unprivileged) but a
/// process can hold: a registered trap handler, the privileged bit,
/// captured stdout and the virtual clock all die with the process.
#[test]
fn start_process_resets_the_environment() {
    use llva_engine::{EngineError, ExecutionManager};

    let src = r#"
declare int %llva.io.putchar(int)
declare int %llva.trap.register(int, void (int, sbyte*)*)

void %handler(int %no, sbyte* %info) {
entry:
    %x = call int %llva.io.putchar(int 72)
    ret void
}

int %arm() {
entry:
    %r = call int %llva.trap.register(int 2, void (int, sbyte*)* %handler)
    %x = call int %llva.io.putchar(int 65)
    ret int 0
}

int %fault(int %d) {
entry:
    %q = div int 1, %d
    ret int %q
}
"#;
    let module = llva_core::parser::parse_module(src).expect("parses");
    for isa in TargetIsa::ALL {
        let mut mgr = ExecutionManager::new(module.clone(), isa);
        mgr.env.privileged = true; // boot as kernel so the handler registers
        mgr.run("arm", &[]).expect("runs");
        // same process: the handler is live and prints on the fault
        assert!(matches!(
            mgr.run("fault", &[0]),
            Err(EngineError::Trapped(_))
        ));
        assert_eq!(mgr.env.stdout_string(), "AH", "{isa}");
        assert!(mgr.env.clock > 0, "{isa}");
        let translated = mgr.stats().functions_translated;

        mgr.start_process();
        assert!(!mgr.env.privileged, "{isa}: privileged bit survived");
        assert!(mgr.env.trap_handlers.is_empty(), "{isa}: handler survived");
        assert_eq!(mgr.env.clock, 0, "{isa}: clock survived");
        assert!(matches!(
            mgr.run("fault", &[0]),
            Err(EngineError::Trapped(_))
        ));
        assert_eq!(
            mgr.env.stdout_string(),
            "",
            "{isa}: stdout or handler survived"
        );
        assert_eq!(mgr.run("fault", &[1]).expect("runs").value, 1, "{isa}");
        assert_eq!(
            mgr.stats().functions_translated,
            translated,
            "{isa}: the code is resident across processes"
        );

        // a parked manager holds no process; starting one serves again
        mgr.end_process();
        mgr.start_process();
        assert_eq!(mgr.run("fault", &[1]).expect("runs").value, 1, "{isa}");
    }
}
