//! Offline-cache bench (paper §4.1): program startup with a cold JIT
//! vs. loading cached translations from the OS storage API. This is the
//! quantitative version of the paper's argument that OS-independent
//! offline caching beats DAISY/Crusoe's translate-every-launch model.

use criterion::{criterion_group, criterion_main, Criterion};
use llva_core::layout::TargetConfig;
use llva_engine::llee::{ExecutionManager, TargetIsa};
use llva_engine::storage::{MemStorage, Storage, SyncStorage};
use llva_machine::x86::X86Inst;

fn bench_startup(c: &mut Criterion) {
    let mut group = c.benchmark_group("startup");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    let w = llva_workloads::by_name("254.gap").expect("workload");

    // cold: no storage — every launch translates everything (DAISY model)
    group.bench_function("jit_every_launch", |b| {
        b.iter_batched(
            || w.compile(TargetConfig::default()),
            |m| {
                let mut mgr = ExecutionManager::new(m, TargetIsa::X86);
                mgr.translate_all().expect("translates");
                mgr
            },
            criterion::BatchSize::SmallInput,
        );
    });

    // warm: a pre-populated offline cache (LLVA model)
    let storage = SyncStorage::new(MemStorage::new());
    {
        let m = w.compile(TargetConfig::default());
        let mut mgr = ExecutionManager::new(m, TargetIsa::X86);
        mgr.set_storage(Box::new(storage.clone()), "bench");
        mgr.translate_all().expect("translates");
        assert!(storage.cache_size("bench").unwrap_or(0) > 0);
    }
    group.bench_function("load_from_offline_cache", |b| {
        b.iter_batched(
            || w.compile(TargetConfig::default()),
            |m| {
                let mut mgr = ExecutionManager::new(m, TargetIsa::X86);
                mgr.set_storage(Box::new(storage.clone()), "bench");
                mgr.translate_all().expect("loads");
                assert_eq!(mgr.stats().functions_translated, 0);
                mgr
            },
            criterion::BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(40);
    let w = llva_workloads::by_name("300.twolf").expect("workload");
    let m = w.compile(TargetConfig::ia32());
    let f = m.function_by_name("main").expect("main");
    let code = llva_backend::compile_x86(&m, f);
    let blob = llva_machine::codec::encode(&code);
    group.bench_function("encode_x86", |b| {
        b.iter(|| llva_machine::codec::encode(&code));
    });
    group.bench_function("decode_x86", |b| {
        b.iter(|| llva_machine::codec::decode::<Vec<X86Inst>>(&blob).expect("decodes"));
    });
    // bytecode (virtual object code) for comparison
    group.bench_function("encode_bytecode", |b| {
        b.iter(|| llva_core::bytecode::encode_module(&m));
    });
    let bytes = llva_core::bytecode::encode_module(&m);
    group.bench_function("decode_bytecode", |b| {
        b.iter(|| llva_core::bytecode::decode_module(&bytes).expect("decodes"));
    });
    group.finish();
}

criterion_group!(benches, bench_startup, bench_codec);
criterion_main!(benches);
