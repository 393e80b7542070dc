//! Integration tests for the multi-tenant execution service: quota
//! admission (busy / fuel / memory / module), fault isolation between
//! tenants, bounded retry recovery, quarantine probes, the incident
//! ring buffer, storage-fault tolerance, and the metrics surface.

use std::time::{Duration, Instant};

use llva_core::layout::TargetConfig;
use llva_core::printer::print_module;
use llva_engine::storage::{FaultPlan, FaultyStorage, MemStorage};
use llva_engine::supervisor::{Tier, TierKill, TierOutcome};
use llva_serve::{
    BoxedStorage, ExecService, QuotaKind, ServeConfig, ServeError, TenantQuota,
};

/// Test module: a cheap function, a fuel burner, and a far-offset
/// memory poke (in-bounds with the default 16 MiB, out-of-bounds for a
/// 1 MiB tenant). `cheap` deliberately executes more than a handful of
/// instructions: injected interpreter-tier kills fire only after one
/// *executed* instruction, so a single-instruction body would finish
/// before its kill can trigger.
const MINIC_SRC: &str = r"
int cheap() {
    int acc = 0;
    for (int i = 0; i < 7; i++) acc = acc + 6;
    return acc;
}

int spin() {
    int acc = 0;
    for (int i = 0; i < 1000000000; i++) acc = acc + i;
    return acc;
}

int poke() {
    int* p = (int*)malloc(4);
    return p[400000];
}
";

fn module_text() -> String {
    let module = llva_minic::compile(MINIC_SRC, "servetest", TargetConfig::default())
        .expect("test module compiles");
    print_module(&module)
}

fn service(config: ServeConfig) -> ExecService {
    ExecService::new(config)
}

#[test]
fn busy_rejection_is_bounded_backpressure() {
    let svc = service(ServeConfig::default());
    let quota = TenantQuota {
        max_in_flight: 2,
        max_call_fuel: 40_000_000,
        ..TenantQuota::default()
    };
    svc.add_tenant("acme", quota).unwrap();
    svc.load_module("acme", "m", &module_text()).unwrap();

    std::thread::scope(|scope| {
        // two long calls fill the in-flight window (one executes, one
        // queues); both eventually answer OutOfFuel
        let holders: Vec<_> = (0..2)
            .map(|_| {
                let svc = svc.clone();
                scope.spawn(move || svc.call("acme", "m", "spin", &[]))
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while svc.tenant_in_flight("acme") != Some(2) {
            assert!(Instant::now() < deadline, "holders never filled the window");
            std::thread::yield_now();
        }
        // the window is full: the next call must be rejected, not queued
        match svc.call("acme", "m", "cheap", &[]) {
            Err(ServeError::Busy { in_flight }) => assert_eq!(in_flight, 2),
            other => panic!("expected Busy, got {other:?}"),
        }
        for holder in holders {
            let run = holder.join().unwrap().expect("holder call completes");
            assert_eq!(run.outcome, TierOutcome::OutOfFuel);
        }
    });

    let counters = svc.tenant_counters("acme").unwrap();
    assert_eq!(counters.rejected_busy, 1);
    assert_eq!(counters.calls_out_of_fuel, 2);
    // the window drained: the same call is admitted now
    let run = svc.call("acme", "m", "cheap", &[]).unwrap();
    assert_eq!(run.value(), Some(42));
    assert_eq!(svc.tenant_in_flight("acme"), Some(0));
}

#[test]
fn fuel_budget_exhausts_then_refills() {
    let svc = service(ServeConfig::default());
    let quota = TenantQuota {
        fuel_budget: 200_000,
        max_call_fuel: 1_000_000,
        ..TenantQuota::default()
    };
    svc.add_tenant("acme", quota).unwrap();
    svc.load_module("acme", "m", &module_text()).unwrap();

    // the burner is clamped to the remaining budget and runs dry
    let run = svc.call("acme", "m", "spin", &[]).unwrap();
    assert_eq!(run.outcome, TierOutcome::OutOfFuel);
    // the budget is (near-)exhausted: rejection within a few calls
    let mut rejected = None;
    for _ in 0..5 {
        match svc.call("acme", "m", "spin", &[]) {
            Err(e) => {
                rejected = Some(e);
                break;
            }
            Ok(run) => assert_eq!(run.outcome, TierOutcome::OutOfFuel),
        }
    }
    match rejected {
        Some(ServeError::QuotaExceeded { kind: QuotaKind::Fuel, .. }) => {}
        other => panic!("expected fuel rejection, got {other:?}"),
    }
    let counters = svc.tenant_counters("acme").unwrap();
    assert!(counters.rejected_fuel >= 1);
    assert!(counters.fuel_used >= 200_000 - 64);
    assert_eq!(svc.tenant_fuel_remaining("acme"), Some(0));

    // an operator refill restores service
    svc.refill_fuel("acme", 1_000_000).unwrap();
    let run = svc.call("acme", "m", "cheap", &[]).unwrap();
    assert_eq!(run.value(), Some(42));
}

#[test]
fn memory_quota_isolates_address_space() {
    let svc = service(ServeConfig::default());
    svc.add_tenant("roomy", TenantQuota::default()).unwrap();
    svc.add_tenant(
        "cramped",
        TenantQuota {
            memory_bytes: 1 << 20,
            ..TenantQuota::default()
        },
    )
    .unwrap();
    let text = module_text();
    svc.load_module("roomy", "m", &text).unwrap();
    svc.load_module("cramped", "m", &text).unwrap();

    // same function, same module: the roomy tenant's 16 MiB machine
    // serves the far poke; the cramped tenant's 1 MiB machine traps —
    // the quota is enforced by construction, not by a check
    let roomy = svc.call("roomy", "m", "poke", &[]).unwrap();
    assert!(
        matches!(roomy.outcome, TierOutcome::Value(_)),
        "roomy tenant should complete, got {:?}",
        roomy.outcome
    );
    let cramped = svc.call("cramped", "m", "poke", &[]).unwrap();
    assert!(
        matches!(cramped.outcome, TierOutcome::Trap(_)),
        "cramped tenant should trap, got {:?}",
        cramped.outcome
    );
    // a trap is an answer, not a fault: the tenant is alive and healthy
    let run = svc.call("cramped", "m", "cheap", &[]).unwrap();
    assert_eq!(run.value(), Some(42));
    let snapshot = svc.tenant_snapshot("cramped").unwrap();
    assert_eq!(snapshot.modules[0].incidents_total, 0);

    let counters = svc.tenant_counters("cramped").unwrap();
    assert_eq!(counters.calls_trapped, 1);
    assert_eq!(counters.calls_ok, 1);
}

#[test]
fn module_quota_limits_count_and_size() {
    let svc = service(ServeConfig::default());
    let quota = TenantQuota {
        max_modules: 1,
        max_module_bytes: 1 << 20,
        ..TenantQuota::default()
    };
    svc.add_tenant("acme", quota).unwrap();
    let text = module_text();
    svc.load_module("acme", "m1", &text).unwrap();
    match svc.load_module("acme", "m2", &text) {
        Err(ServeError::QuotaExceeded { kind: QuotaKind::Module, .. }) => {}
        other => panic!("expected module-count rejection, got {other:?}"),
    }
    // reloading the *same* name is an update, not a new module
    svc.load_module("acme", "m1", &text).unwrap();

    svc.add_tenant(
        "tiny",
        TenantQuota {
            max_module_bytes: 16,
            ..TenantQuota::default()
        },
    )
    .unwrap();
    match svc.load_module("tiny", "m", &text) {
        Err(ServeError::QuotaExceeded { kind: QuotaKind::Module, .. }) => {}
        other => panic!("expected module-size rejection, got {other:?}"),
    }
    assert_eq!(svc.tenant_counters("tiny").unwrap().rejected_module, 1);
}

#[test]
fn poisoned_tenant_does_not_contaminate_neighbours() {
    let svc = service(ServeConfig::default());
    svc.add_tenant("victim", TenantQuota::default()).unwrap();
    svc.add_tenant("healthy", TenantQuota::default()).unwrap();
    let text = module_text();
    svc.load_module("victim", "m", &text).unwrap();
    svc.load_module("healthy", "m", &text).unwrap();

    // kill every fast tier for the victim, permanently
    let kills = vec![
        TierKill::panic(Tier::Translated),
        TierKill::panic(Tier::FastInterp),
    ];
    svc.arm_kills("victim", "m", kills, 0).unwrap();

    let victim = svc.call("victim", "m", "cheap", &[]).unwrap();
    assert_eq!(victim.value(), Some(42), "degradation preserves semantics");
    assert_eq!(victim.tier, Tier::Interp);
    assert!(victim.degraded);

    let healthy = svc.call("healthy", "m", "cheap", &[]).unwrap();
    assert_eq!(healthy.value(), Some(42));
    assert_eq!(healthy.tier, Tier::Translated, "healthy tenant undisturbed");
    assert!(!healthy.degraded);

    // quarantine state is per-tenant even though the module (and its
    // shared translation cache) is identical
    let victim_snap = svc.tenant_snapshot("victim").unwrap();
    assert_eq!(victim_snap.modules[0].quarantined.len(), 2);
    assert_eq!(victim_snap.modules[0].incidents_total, 2);
    let healthy_snap = svc.tenant_snapshot("healthy").unwrap();
    assert!(healthy_snap.modules[0].quarantined.is_empty());
    assert_eq!(healthy_snap.modules[0].incidents_total, 0);
    // both tenants resolved the same content-addressed cache
    assert_eq!(
        victim_snap.modules[0].cache, healthy_snap.modules[0].cache,
        "identical module text shares one cache"
    );

    let metrics = svc.metrics_text();
    assert!(metrics.contains(r#"llva_serve_quarantined{tenant="victim",module="m"} 2"#));
    assert!(metrics.contains(r#"llva_serve_quarantined{tenant="healthy",module="m"} 0"#));
}

#[test]
fn transient_fault_heals_within_bounded_retries() {
    let svc = service(ServeConfig::default());
    svc.add_tenant("acme", TenantQuota::default()).unwrap();
    svc.load_module("acme", "m", &module_text()).unwrap();

    // transient: every tier dies for exactly one attempt, then heals —
    // the serve-level retry lifts the quarantines and succeeds
    let all_kills: Vec<TierKill> = Tier::LADDER.into_iter().map(TierKill::panic).collect();
    svc.arm_kills("acme", "m", all_kills.clone(), 1).unwrap();
    let run = svc.call("acme", "m", "cheap", &[]).unwrap();
    assert_eq!(run.value(), Some(42));
    assert_eq!(run.retries, 1, "healed on the first retry");
    assert_eq!(run.tier, Tier::Translated);
    assert_eq!(svc.tenant_counters("acme").unwrap().retries, 1);

    // persistent: kills armed forever exhaust the bounded budget
    svc.arm_kills("acme", "m", all_kills, 0).unwrap();
    match svc.call("acme", "m", "cheap", &[]) {
        Err(ServeError::TiersExhausted { retries, incidents }) => {
            assert_eq!(retries, svc.config().max_retries);
            assert!(incidents >= 4, "every rung faulted every attempt");
        }
        other => panic!("expected TiersExhausted, got {other:?}"),
    }
    assert_eq!(svc.tenant_counters("acme").unwrap().calls_exhausted, 1);

    // operator disarms the fault: the next call self-heals through the
    // same retry path (first attempt hits stale quarantines, the retry
    // lifts them)
    svc.arm_kills("acme", "m", Vec::new(), 0).unwrap();
    let run = svc.call("acme", "m", "cheap", &[]).unwrap();
    assert_eq!(run.value(), Some(42));
    assert!(run.retries >= 1);
}

#[test]
fn quarantine_probe_restores_tier_through_service() {
    let config = ServeConfig {
        probe_after: Some(2),
        ..ServeConfig::default()
    };
    let svc = service(config);
    svc.add_tenant("acme", TenantQuota::default()).unwrap();
    svc.load_module("acme", "m", &module_text()).unwrap();

    // one transient translated-tier fault: quarantined after call 1
    svc.arm_kills("acme", "m", vec![TierKill::panic(Tier::Translated)], 1)
        .unwrap();
    let first = svc.call("acme", "m", "cheap", &[]).unwrap();
    assert_eq!(first.tier, Tier::FastInterp);
    assert!(first.degraded);

    // the degraded call banked success #1; this banks #2
    let second = svc.call("acme", "m", "cheap", &[]).unwrap();
    assert_eq!(second.tier, Tier::FastInterp);

    // threshold reached: this call probes the quarantined pair, the
    // probe passes (the kill was transient), and the tier serves again
    let third = svc.call("acme", "m", "cheap", &[]).unwrap();
    assert_eq!(third.tier, Tier::Translated, "probe restored the tier");
    assert_eq!(third.value(), Some(42));

    let snapshot = svc.tenant_snapshot("acme").unwrap();
    assert!(snapshot.modules[0].quarantined.is_empty());
    assert!(
        snapshot.modules[0]
            .recent_incidents
            .iter()
            .any(|line| line.contains("probe recovered")),
        "probe outcome is logged as an incident: {:?}",
        snapshot.modules[0].recent_incidents
    );
    let metrics = svc.metrics_text();
    assert!(metrics.contains(
        r#"llva_serve_tier_probes_total{tenant="acme",module="m",tier="translated"} 1"#
    ));
}

#[test]
fn incident_ring_buffer_is_bounded_with_drop_counter() {
    let config = ServeConfig {
        incident_capacity: 1,
        ..ServeConfig::default()
    };
    let svc = service(config);
    svc.add_tenant("acme", TenantQuota::default()).unwrap();
    svc.load_module("acme", "m", &module_text()).unwrap();
    let kills = vec![
        TierKill::panic(Tier::Translated),
        TierKill::panic(Tier::FastInterp),
    ];
    svc.arm_kills("acme", "m", kills, 0).unwrap();
    svc.call("acme", "m", "cheap", &[]).unwrap();

    // two incidents hit a capacity-1 ring: one dropped, none lost
    // from the ledger
    let snapshot = svc.tenant_snapshot("acme").unwrap();
    assert_eq!(snapshot.modules[0].incidents_len, 1);
    assert_eq!(snapshot.modules[0].incidents_dropped, 1);
    assert_eq!(snapshot.modules[0].incidents_total, 2);
    let metrics = svc.metrics_text();
    assert!(metrics
        .contains(r#"llva_serve_incidents_dropped_total{tenant="acme",module="m"} 1"#));
    assert!(metrics.contains(r#"llva_serve_incidents_total{tenant="acme",module="m"} 2"#));
}

#[test]
fn storage_fault_injection_does_not_corrupt_answers() {
    // read-side chaos on every cache shard: reads fail, truncate, and
    // bit-flip periodically; LLEE's validation + bounded retries and
    // the serve-level retry keep every answer correct
    let config = ServeConfig {
        shards: 3,
        ..ServeConfig::default()
    };
    let svc = ExecService::with_storage(config, |i| {
        Box::new(FaultyStorage::new(
            MemStorage::new(),
            FaultPlan {
                seed: 0xc0ffee + i as u64,
                read_fail: 3,
                read_truncate: 4,
                read_bit_flip: 5,
                torn_write: 7,
                stale_timestamp: 0,
            },
        )) as BoxedStorage
    });
    svc.add_tenant("acme", TenantQuota::default()).unwrap();
    svc.load_module("acme", "m", &module_text()).unwrap();
    for _ in 0..6 {
        let run = svc.call("acme", "m", "cheap", &[]).unwrap();
        assert_eq!(run.value(), Some(42), "storage faults never change answers");
    }
    // corrupt/failed reads surface in the translation stats, not as
    // wrong values; incidents may exist only if a tier faulted and
    // recovered — the tenant's answers above prove service stayed up
    let counters = svc.tenant_counters("acme").unwrap();
    assert_eq!(counters.calls_ok, 6);
}

#[test]
fn unknown_tenant_and_module_are_structured_errors() {
    let svc = service(ServeConfig::default());
    assert!(matches!(
        svc.call("ghost", "m", "cheap", &[]),
        Err(ServeError::UnknownTenant(_))
    ));
    svc.add_tenant("acme", TenantQuota::default()).unwrap();
    assert!(matches!(
        svc.call("acme", "ghost", "cheap", &[]),
        Err(ServeError::NoSuchModule(_))
    ));
    assert!(matches!(
        svc.add_tenant("acme", TenantQuota::default()),
        Err(ServeError::TenantExists(_))
    ));
    svc.load_module("acme", "m", &module_text()).unwrap();
    assert!(matches!(
        svc.call("acme", "m", "ghost", &[]),
        Err(ServeError::NoSuchFunction(_))
    ));
    assert!(matches!(
        svc.load_module("acme", "bad", "this is not llva"),
        Err(ServeError::BadModule(_))
    ));
    svc.unload_module("acme", "m").unwrap();
    assert!(matches!(
        svc.call("acme", "m", "cheap", &[]),
        Err(ServeError::NoSuchModule(_))
    ));
    svc.remove_tenant("acme").unwrap();
    assert!(matches!(
        svc.call("acme", "m", "cheap", &[]),
        Err(ServeError::UnknownTenant(_))
    ));
}

#[test]
fn per_call_deadline_expires_without_losing_the_tenant() {
    let config = ServeConfig {
        call_deadline: Duration::from_millis(10),
        ..ServeConfig::default()
    };
    let svc = service(config);
    let quota = TenantQuota {
        max_call_fuel: 200_000_000,
        ..TenantQuota::default()
    };
    svc.add_tenant("acme", quota).unwrap();
    svc.load_module("acme", "m", &module_text()).unwrap();

    // the burner outlives a 10ms deadline by orders of magnitude
    match svc.call("acme", "m", "spin", &[]) {
        Err(ServeError::DeadlineExpired) => {}
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }
    assert_eq!(svc.tenant_counters("acme").unwrap().deadline_expired, 1);

    // the call still completes in the background and the tenant keeps
    // serving: wait for the slot to drain, then call something cheap
    let deadline = Instant::now() + Duration::from_secs(60);
    while svc.tenant_in_flight("acme") != Some(0) {
        assert!(Instant::now() < deadline, "background call never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
    let run = svc.call("acme", "m", "cheap", &[]).unwrap();
    assert_eq!(run.value(), Some(42));
    // the abandoned call was fully accounted
    let counters = svc.tenant_counters("acme").unwrap();
    assert_eq!(counters.calls_out_of_fuel, 1);
    assert!(counters.fuel_used > 0);
}

/// Warm loads over directory-backed shards take the zero-copy `mmap`
/// fast path: the first service publishes the module image, a second
/// service over the same directory re-attaches it mapped, and the
/// mapped answer is oracle-identical.
#[cfg(unix)]
#[test]
fn warm_image_load_is_mmapped_from_dir_storage() {
    use llva_engine::storage::DirStorage;

    let dir = std::env::temp_dir().join(format!("llva-serve-mmap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let text = module_text();

    // cold process: translates, publishes the image, answers owned
    {
        let svc = ExecService::with_storage(ServeConfig::default(), |i| {
            Box::new(DirStorage::new(dir.join(format!("shard-{i}")))) as BoxedStorage
        });
        svc.add_tenant("acme", TenantQuota::default()).unwrap();
        let reply = svc.load_module("acme", "m", &text).unwrap();
        assert!(
            !reply.image_mapped,
            "first-ever load has no image to map (cold start)"
        );
        assert_eq!(svc.call("acme", "m", "cheap", &[]).unwrap().value(), Some(42));
        svc.shutdown();
    }

    // warm process: same directory, the image is re-attached zero-copy
    let svc = ExecService::with_storage(ServeConfig::default(), |i| {
        Box::new(DirStorage::new(dir.join(format!("shard-{i}")))) as BoxedStorage
    });
    svc.add_tenant("acme", TenantQuota::default()).unwrap();
    let reply = svc.load_module("acme", "m", &text).unwrap();
    assert!(reply.image_mapped, "warm load must mmap the published image");
    // the warmup ran entirely against the image: zero fresh translations
    assert_eq!(reply.warmup.functions_translated, 0);
    assert_eq!(svc.call("acme", "m", "cheap", &[]).unwrap().value(), Some(42));
    // memory-backed shards can never map (no file to point at)
    let mem = ExecService::new(ServeConfig::default());
    mem.add_tenant("acme", TenantQuota::default()).unwrap();
    assert!(!mem.load_module("acme", "m", &text).unwrap().image_mapped);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A module whose global image cannot fit the tenant's address space is
/// a bad module — refused by name before any executor is built, not a
/// panic caught somewhere below.
#[test]
fn oversized_global_image_is_a_bad_module_not_a_panic() {
    let svc = service(ServeConfig::default());
    svc.add_tenant("acme", TenantQuota::default()).unwrap();
    svc.load_module("acme", "m", &module_text()).unwrap();

    let big = llva_minic::compile(
        "int big[8000000];\nint cheap() { big[1] = 7; return big[1]; }",
        "big",
        TargetConfig::default(),
    )
    .expect("compiles");
    match svc.load_module("acme", "m", &print_module(&big)) {
        Err(ServeError::BadModule(why)) => {
            assert!(why.contains("32004096"), "names the bytes needed: {why}");
            assert!(
                why.contains(&TenantQuota::default().memory_bytes.to_string()),
                "names the bytes available: {why}"
            );
        }
        other => panic!("expected BadModule, got {other:?}"),
    }
    // the refused load replaced nothing and holds nothing
    let run = svc.call("acme", "m", "cheap", &[]).unwrap();
    assert_eq!(
        run.value(),
        Some(42),
        "the earlier module of that name still answers"
    );
    assert_eq!(svc.tenant_in_flight("acme"), Some(0), "no slot leaked");
    assert_eq!(svc.tenant_snapshot("acme").unwrap().modules.len(), 1);
    // and the same module is fine for a tenant with room for it
    svc.add_tenant(
        "roomy",
        TenantQuota {
            memory_bytes: 64 << 20,
            ..TenantQuota::default()
        },
    )
    .unwrap();
    svc.load_module("roomy", "m", &print_module(&big)).unwrap();
    assert_eq!(
        svc.call("roomy", "m", "cheap", &[]).unwrap().value(),
        Some(7)
    );
}

/// The supervisor behind a loaded module keeps its translated code
/// across calls but not its process: a function that mutates globals
/// answers call N exactly as it answered call 1, and as a service that
/// has never seen a call does.
#[test]
fn calls_do_not_see_each_others_globals() {
    const SRC: &str = r"
int table[64];
int seed = 17;

int work(int n) {
    for (int i = 0; i < n; i++) {
        seed = (seed * 1103515245 + 12345) % 2147483647;
        int slot = seed % 64;
        if (slot < 0) slot = -slot;
        table[slot] = table[slot] + (seed % 1000);
    }
    int sum = 0;
    for (int k = 0; k < 64; k++) sum = sum + table[k];
    return sum + seed % 1000;
}
";
    let module = llva_minic::compile(SRC, "stateful", TargetConfig::default()).expect("compiles");
    let text = print_module(&module);
    let first_call = || {
        let svc = service(ServeConfig::default());
        svc.add_tenant("acme", TenantQuota::default()).unwrap();
        svc.load_module("acme", "m", &text).unwrap();
        (svc.call("acme", "m", "work", &[200]).unwrap(), svc)
    };
    let (expected, _) = first_call();
    assert_eq!(expected.tier, Tier::Translated);
    let (_, svc) = first_call();
    for call in 2..=6 {
        let run = svc.call("acme", "m", "work", &[200]).unwrap();
        assert_eq!(
            (run.outcome, run.steps, run.tier),
            (expected.outcome, expected.steps, expected.tier),
            "call {call} saw an earlier call's globals"
        );
    }
}

fn cache_bytes(svc: &ExecService, cache: &str) -> Option<u64> {
    use llva_engine::storage::Storage;
    svc.storage().cache_size(cache)
}

/// A module cache lives while some loaded module holds it: a tenant
/// that keeps replacing its module with new text retains one cache, not
/// one per text it ever loaded, and unloading or removing the tenant
/// lets go of the last.
#[test]
fn replaced_module_caches_are_released() {
    let svc = service(ServeConfig::default());
    svc.add_tenant("acme", TenantQuota::default()).unwrap();
    // constants of one encoded width, so every image is the same size
    let text = |n: u32| format!("int %cheap() {{\nentry:\n    ret int {}\n}}\n", 1000 + n);
    let first = svc.load_module("acme", "m", &text(0)).unwrap().cache;
    let live = cache_bytes(&svc, &first).expect("the loaded module's cache exists");
    assert!(live > 0, "the load published its image");
    let mut previous = first;
    for n in 1..300 {
        let cache = svc.load_module("acme", "m", &text(n)).unwrap().cache;
        assert_ne!(cache, previous, "distinct text, distinct cache");
        assert_eq!(cache_bytes(&svc, &previous), None, "load {n} released the replaced cache");
        assert_eq!(cache_bytes(&svc, &cache), Some(live), "load {n} holds one cache's bytes");
        previous = cache;
    }
    assert_eq!(svc.call("acme", "m", "cheap", &[]).unwrap().value(), Some(1299));
    svc.unload_module("acme", "m").unwrap();
    assert_eq!(cache_bytes(&svc, &previous), None, "unload released the cache");

    let cache = svc.load_module("acme", "m", &text(7)).unwrap().cache;
    svc.remove_tenant("acme").unwrap();
    assert_eq!(cache_bytes(&svc, &cache), None, "removing the tenant released the cache");
}

/// Two tenants loading one text share its cache; when one replaces the
/// text, the other still holds the cache, and a later load of that text
/// attaches the published image instead of translating.
#[test]
fn shared_cache_outlives_one_holder() {
    let svc = service(ServeConfig::default());
    for tenant in ["a", "b", "c"] {
        svc.add_tenant(tenant, TenantQuota::default()).unwrap();
    }
    let text = module_text();
    let other = "int %cheap() {\nentry:\n    ret int 5\n}\n";
    let shared = svc.load_module("a", "m", &text).unwrap().cache;
    assert_eq!(svc.load_module("b", "m", &text).unwrap().cache, shared);
    svc.load_module("a", "m", other).unwrap();
    assert!(cache_bytes(&svc, &shared).is_some(), "b still holds the shared cache");

    let warm = svc.load_module("c", "m", &text).unwrap();
    assert_eq!(warm.warmup.functions_translated, 0, "attached warm from the image");
    assert_eq!(svc.call("b", "m", "cheap", &[]).unwrap().value(), Some(42));

    svc.load_module("b", "m", other).unwrap();
    svc.unload_module("c", "m").unwrap();
    assert_eq!(cache_bytes(&svc, &shared), None, "the last holder released it");
    assert_eq!(svc.call("b", "m", "cheap", &[]).unwrap().value(), Some(5));
}

/// A module's code is stored once: on memory-backed shards, a cold load
/// leaves exactly the published image in the module's cache, and calls
/// served from that image add nothing to it.
#[test]
fn a_cold_load_stores_only_the_image() {
    use llva_engine::storage::Storage;
    use llva_engine::IMAGE_ENTRY;

    let svc = service(ServeConfig::default());
    svc.add_tenant("acme", TenantQuota::default()).unwrap();
    let reply = svc.load_module("acme", "m", &module_text()).unwrap();
    assert_eq!(reply.warmup.functions_translated, reply.functions, "a cold load translates");
    let (image, _) = svc
        .storage()
        .read(&reply.cache, IMAGE_ENTRY)
        .expect("the image is published");
    assert_eq!(cache_bytes(&svc, &reply.cache), Some(image.len() as u64));
    assert_eq!(svc.call("acme", "m", "cheap", &[]).unwrap().value(), Some(42));
    assert_eq!(cache_bytes(&svc, &reply.cache), Some(image.len() as u64));
}

/// A load whose attached image has a corrupt native section translates
/// every function and republishes a whole image — the same bytes the
/// first load published — so the next load attaches warm again.
#[test]
fn a_corrupt_native_section_is_republished_whole() {
    use llva_engine::storage::Storage;
    use llva_engine::{LlvaImage, SectionKind, TargetIsa, IMAGE_ENTRY};

    let svc = service(ServeConfig::default());
    for tenant in ["a", "b", "c"] {
        svc.add_tenant(tenant, TenantQuota::default()).unwrap();
    }
    let text = module_text();
    let cold = svc.load_module("a", "m", &text).unwrap();
    let (published, stamp) = svc.storage().read(&cold.cache, IMAGE_ENTRY).expect("published");
    let native = SectionKind::Native(TargetIsa::X86);
    let image = LlvaImage::parse(published.clone()).expect("parses");
    assert_eq!(image.sections().last(), Some(&native), "the native section is last");
    let mut damaged = published.clone();
    *damaged.last_mut().expect("a byte") ^= 1;
    let image = LlvaImage::parse(damaged.clone()).expect("the frames still walk");
    assert!(!image.section_ok(native));
    assert!(image.section_ok(SectionKind::Predecode));
    svc.storage().clone().write(&cold.cache, IMAGE_ENTRY, &damaged, stamp);

    let healed = svc.load_module("b", "m", &text).unwrap();
    assert_eq!(healed.cache, cold.cache);
    assert_eq!(healed.warmup.image_corrupt, 1, "the damaged section was seen");
    assert_eq!(healed.warmup.functions_translated, cold.functions);
    let (republished, _) = svc.storage().read(&cold.cache, IMAGE_ENTRY).expect("republished");
    assert_eq!(republished, published, "the republished image is the first one");

    let warm = svc.load_module("c", "m", &text).unwrap();
    assert_eq!(warm.warmup.functions_translated, 0, "attached warm again");
    assert_eq!(warm.warmup.image_hits, cold.functions);
    assert_eq!(svc.call("c", "m", "cheap", &[]).unwrap().value(), Some(42));
}
