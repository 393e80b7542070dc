//! Multi-tenant fault-isolation soak — the acceptance proof for the
//! serving layer.
//!
//! One victim tenant and two healthy tenants share a service whose
//! cache shards run `FaultyStorage` chaos. The victim's fast tiers are
//! killed via `TierKill` (set `LLVA_KILL_TIER` to choose the rung,
//! matching the CI matrix; default sweeps the full fast-tier prefix)
//! and its fuel budget is sized to run dry mid-soak. The claims under
//! test:
//!
//! * **zero divergences for bystanders** — every healthy-tenant call
//!   returns exactly the structural interpreter's oracle value, at
//!   full speed, with no incidents and no quarantines, while the
//!   victim is being sabotaged on the next executor over;
//! * **the victim degrades, never corrupts** — its completed calls
//!   still match the oracle (wrong answers are worse than no answers);
//! * **quotas reject instead of queueing** — the victim's exhausted
//!   fuel budget surfaces as counted rejections;
//! * **everything is observable** — the victim's incidents, quarantine
//!   gauge, and quota rejections all appear in the metrics text.
//!
//! Chaos seeds honor `LLVA_FAULT_SEED` (comma-separated), so CI
//! crosses storage-fault seeds against tier kills.

use llva_core::layout::TargetConfig;
use llva_core::printer::print_module;
use llva_engine::storage::{FaultPlan, FaultyStorage, MemStorage};
use llva_engine::supervisor::{kills_from_env, Tier, TierKill};
use llva_engine::Interpreter;
use llva_serve::{BoxedStorage, ExecService, QuotaKind, ServeConfig, ServeError, TenantQuota};

const WORKLOAD: &str = "ptrdist-anagram";
const ORACLE_FUEL: u64 = 2_000_000_000;
const VICTIM_FUEL_BUDGET: u64 = 300_000;
const VICTIM_ROUNDS: usize = 8;
const HEALTHY_ROUNDS: usize = 4;

fn seeds() -> Vec<u64> {
    match std::env::var("LLVA_FAULT_SEED") {
        Ok(s) => s
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .collect(),
        Err(_) => vec![1, 7, 0x00de_cade],
    }
}

fn kills() -> Vec<TierKill> {
    let from_env = kills_from_env();
    if !from_env.is_empty() {
        return from_env;
    }
    vec![
        TierKill::panic(Tier::Translated),
        TierKill::panic(Tier::FastInterp),
    ]
}

fn chaos(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        read_fail: 5,
        read_truncate: 6,
        read_bit_flip: 7,
        torn_write: 9,
        stale_timestamp: 8,
    }
}

/// Extracts `name{labels} value` from the metrics text.
fn metric_value(metrics: &str, sample: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(sample)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("metrics sample '{sample}' missing:\n{metrics}"))
}

#[test]
fn victim_sabotage_never_touches_healthy_tenants() {
    let kills = kills();
    // Only a killed *prefix* of the ladder manifests: the supervisor
    // serves at the fastest healthy rung, so a kill below it is never
    // exercised and produces no incident.
    let killed_prefix = Tier::LADDER
        .iter()
        .take_while(|t| kills.iter().any(|k| k.tier == **t))
        .count();
    let kills_all_tiers = killed_prefix >= Tier::LADDER.len();
    let workload = llva_workloads::all()
        .into_iter()
        .find(|w| w.name == WORKLOAD)
        .expect("Table 2 contains ptrdist-anagram");
    let module = workload.compile(TargetConfig::default());
    let text = print_module(&module);

    let mut interp = Interpreter::new(&module);
    interp.set_fuel(ORACLE_FUEL);
    let expected = interp
        .run("main", &[])
        .expect("structural interpreter oracle completes");

    for seed in seeds() {
        let svc = ExecService::with_storage(ServeConfig::default(), |i| {
            Box::new(FaultyStorage::new(
                MemStorage::new(),
                chaos(seed.wrapping_mul(0x9e37_79b9).wrapping_add(i as u64)),
            )) as BoxedStorage
        });
        svc.add_tenant(
            "victim",
            TenantQuota {
                fuel_budget: VICTIM_FUEL_BUDGET,
                ..TenantQuota::default()
            },
        )
        .unwrap();
        svc.add_tenant("healthy-1", TenantQuota::default()).unwrap();
        svc.add_tenant("healthy-2", TenantQuota::default()).unwrap();
        for tenant in ["victim", "healthy-1", "healthy-2"] {
            svc.load_module(tenant, "w", &text)
                .unwrap_or_else(|e| panic!("seed {seed}: load for {tenant}: {e}"));
        }
        svc.arm_kills("victim", "w", kills.clone(), 0).unwrap();

        let mut victim_rejected_fuel = 0u64;
        std::thread::scope(|scope| {
            // sabotaged tenant: hammered concurrently with the others
            let victim = {
                let svc = svc.clone();
                let rejected = &mut victim_rejected_fuel;
                scope.spawn(move || {
                    for round in 0..VICTIM_ROUNDS {
                        match svc.call("victim", "w", "main", &[]) {
                            Ok(run) => {
                                if let Some(v) = run.value() {
                                    assert_eq!(
                                        v, expected,
                                        "seed {seed} round {round}: victim degraded to a WRONG answer"
                                    );
                                }
                            }
                            Err(ServeError::QuotaExceeded {
                                kind: QuotaKind::Fuel,
                                ..
                            }) => *rejected += 1,
                            // with every tier dead, repeated exhaustion opens
                            // the caller-side breaker
                            Err(ServeError::TiersExhausted { .. } | ServeError::BreakerOpen { .. })
                                if kills_all_tiers => {}
                            Err(e) => panic!("seed {seed} round {round}: victim: {e}"),
                        }
                    }
                })
            };
            // bystanders: every call must be oracle-identical and fast
            let healthy: Vec<_> = ["healthy-1", "healthy-2"]
                .into_iter()
                .map(|tenant| {
                    let svc = svc.clone();
                    scope.spawn(move || {
                        for round in 0..HEALTHY_ROUNDS {
                            let run = svc
                                .call(tenant, "w", "main", &[])
                                .unwrap_or_else(|e| {
                                    panic!("seed {seed} round {round}: {tenant}: {e}")
                                });
                            assert_eq!(
                                run.value(),
                                Some(expected),
                                "seed {seed} round {round}: {tenant} diverged from the oracle"
                            );
                        }
                    })
                })
                .collect();
            victim.join().expect("victim caller panicked");
            for handle in healthy {
                handle.join().expect("healthy caller panicked");
            }
        });

        // --- healthy tenants: zero divergences, zero collateral ---
        for tenant in ["healthy-1", "healthy-2"] {
            let counters = svc.tenant_counters(tenant).unwrap();
            assert_eq!(
                counters.calls_ok, HEALTHY_ROUNDS as u64,
                "seed {seed}: every {tenant} call completed"
            );
            assert_eq!(counters.rejected_total(), 0, "seed {seed}: {tenant}");
            let snapshot = svc.tenant_snapshot(tenant).unwrap();
            assert_eq!(
                snapshot.modules[0].incidents_total, 0,
                "seed {seed}: {tenant} must see no incidents while the victim burns"
            );
            assert!(
                snapshot.modules[0].quarantined.is_empty(),
                "seed {seed}: {tenant} must have no quarantines"
            );
        }

        // --- victim: faults contained, quotas enforced, all visible ---
        let victim_counters = svc.tenant_counters("victim").unwrap();
        if !kills_all_tiers {
            // with every rung killed the victim never executes, so its
            // budget cannot drain — fuel pressure only exists when at
            // least one tier still serves
            assert!(
                victim_counters.rejected_fuel >= 1,
                "seed {seed}: the victim's fuel budget must run dry mid-soak \
                 (counters: {victim_counters:?})"
            );
        }
        assert_eq!(victim_rejected_fuel, victim_counters.rejected_fuel);
        let snapshot = svc.tenant_snapshot("victim").unwrap();
        assert!(
            snapshot.modules[0].incidents_total >= killed_prefix as u64,
            "seed {seed}: one incident per exercised kill at minimum \
             ({} < {killed_prefix})",
            snapshot.modules[0].incidents_total
        );
        if !kills_all_tiers {
            assert_eq!(
                snapshot.modules[0].quarantined.len(),
                killed_prefix,
                "seed {seed}: every exercised kill quarantined for main"
            );
        }

        let metrics = svc.metrics_text();
        assert_eq!(
            metric_value(
                &metrics,
                r#"llva_serve_calls_total{tenant="victim",result="rejected_fuel"}"#
            ),
            victim_counters.rejected_fuel,
            "seed {seed}: quota rejections visible in metrics"
        );
        assert!(
            metric_value(
                &metrics,
                r#"llva_serve_incidents_total{tenant="victim",module="w"}"#
            ) >= killed_prefix as u64,
            "seed {seed}: victim incidents visible in metrics"
        );
        for tenant in ["healthy-1", "healthy-2"] {
            assert_eq!(
                metric_value(
                    &metrics,
                    &format!(r#"llva_serve_incidents_total{{tenant="{tenant}",module="w"}}"#)
                ),
                0,
                "seed {seed}: {tenant} clean in metrics"
            );
        }
    }
}
