//! Concurrent access to the sharded translation cache under fault
//! injection (ISSUE 7 satellite).
//!
//! `ShardedStorage` is the serving layer's shared cache: many tenant
//! executors hammer it concurrently while storage faults (read
//! failures, bit rot on the read path, in-place corruption, a writer
//! panicking while holding a shard mutex) fire underneath. The
//! contract under test:
//!
//! * **no poison leaks** — a panicking writer poisons only its shard's
//!   mutex, and every subsequent operation on that shard recovers it;
//! * **no lost valid entries** — every entry a surviving writer wrote
//!   is readable afterwards, bit-for-bit, once read-path fault
//!   injection is disarmed (read faults damage returned copies, never
//!   the stored bytes).
//!
//! Seeds honor `LLVA_FAULT_SEED` (comma-separated), the same env the
//! CI fault-injection matrix sets.

use llva_engine::storage::{FaultPlan, FaultyStorage, MemStorage, ShardedStorage, Storage};

const SHARDS: usize = 4;
const WRITERS: u64 = 6;
const KEYS_PER_WRITER: u64 = 48;

fn seeds() -> Vec<u64> {
    match std::env::var("LLVA_FAULT_SEED") {
        Ok(s) => s
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .collect(),
        Err(_) => vec![3, 41, 0xfeed],
    }
}

/// Read-side chaos only: returned copies get damaged, stored bytes
/// stay pristine — the precondition for the "no lost valid entries"
/// assertion (a torn *write* would legitimately lose data).
fn read_chaos(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        read_fail: 3,
        read_truncate: 4,
        read_bit_flip: 3,
        torn_write: 0,
        stale_timestamp: 5,
    }
}

fn payload(t: u64, i: u64) -> Vec<u8> {
    (0..32u64).map(|j| (t * 131 + i * 17 + j) as u8).collect()
}

#[test]
fn concurrent_shard_access_under_faults_loses_nothing() {
    for seed in seeds() {
        let storage: ShardedStorage<FaultyStorage<MemStorage>> =
            ShardedStorage::new(SHARDS, |i| {
                FaultyStorage::new(MemStorage::new(), read_chaos(seed + i as u64))
            });
        {
            let mut handle = storage.clone();
            handle.create_cache("serve");
        }
        // sacrificial entries for the corruptor thread to chew on
        {
            let mut handle = storage.clone();
            for i in 0..16u64 {
                handle.write("serve", &format!("sac.k{i}"), &payload(99, i), i);
            }
        }
        // a key routed to shard 0, for the poisoning writer
        let poison_key = (0..)
            .map(|i| format!("poison.k{i}"))
            .find(|k| storage.shard_index(k) == 0)
            .expect("some key routes to shard 0");

        std::thread::scope(|scope| {
            // writers: unique key ranges, write + occasionally re-read
            // (the re-read may see injected read faults — that's fine)
            for t in 0..WRITERS {
                let mut handle = storage.clone();
                scope.spawn(move || {
                    for i in 0..KEYS_PER_WRITER {
                        let key = format!("t{t}.k{i}");
                        handle.write("serve", &key, &payload(t, i), t * 1000 + i);
                        if i % 7 == 0 {
                            let _ = handle.read("serve", &key);
                            let _ = handle.timestamp("serve", &key);
                        }
                    }
                });
            }
            // corruptor: in-place bit flips on the sacrificial set
            {
                let storage = storage.clone();
                scope.spawn(move || {
                    for i in 0..16u64 {
                        let key = format!("sac.k{i}");
                        storage
                            .shard(storage.shard_index(&key))
                            .with(|s| s.corrupt_entry("serve", &key));
                    }
                });
            }
            // poisoner: panics mid-write while holding shard 0's mutex.
            // Arming and writing under one lock hold keeps a concurrent
            // writer routed to shard 0 from consuming the armed panic.
            {
                let storage = storage.clone();
                let key = poison_key.clone();
                let handle = scope.spawn(move || {
                    storage.shard(0).with(|s| {
                        s.arm_write_panic(1);
                        s.write("serve", &key, b"never lands", 1);
                    });
                });
                assert!(handle.join().is_err(), "poisoner must have panicked");
            }
        });

        // disarm read-path injection so reads show the true stored bytes
        for i in 0..SHARDS {
            storage.shard(i).with(|s| s.set_plan(FaultPlan::none(1)));
        }
        // no lost valid entries: every surviving writer's entry is
        // present and bit-for-bit identical
        for t in 0..WRITERS {
            for i in 0..KEYS_PER_WRITER {
                let key = format!("t{t}.k{i}");
                assert_eq!(
                    storage.read("serve", &key),
                    Some((payload(t, i), t * 1000 + i)),
                    "seed {seed}: entry {key} lost or damaged"
                );
            }
        }
        // every shard still serves writes (including poisoned shard 0)
        let mut after = storage.clone();
        for i in 0..16u64 {
            let key = format!("after.k{i}");
            after.write("serve", &key, &payload(7, i), i);
            assert_eq!(
                storage.read("serve", &key),
                Some((payload(7, i), i)),
                "seed {seed}: shard serving {key} did not recover"
            );
        }
        // the sacrificial entries still exist (corrupt_entry flips a
        // bit in place; it must never drop the entry)
        for i in 0..16u64 {
            assert!(
                storage.read("serve", &format!("sac.k{i}")).is_some(),
                "seed {seed}: corrupted entry sac.k{i} vanished"
            );
        }
    }
}
