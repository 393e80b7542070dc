//! Ablations for the design choices DESIGN.md calls out.
//!
//! * **A1 — `ExceptionsEnabled` (§3.3)**: how many dead instructions
//!   DCE can delete when arithmetic exceptions default off, vs. a
//!   strawman where every instruction may trap.
//! * **A2 — SSA promotion (mem2reg)**: emitted native instruction count
//!   with and without register promotion.
//! * **A3 — link-time interprocedural optimization (§4.2)**: virtual
//!   object code size with and without internalize+inline+globaldce.

use criterion::{criterion_group, criterion_main, Criterion};
use llva_core::layout::TargetConfig;
use llva_opt::ModulePass;

fn a1_exceptions_enabled(c: &mut Criterion) {
    let mut group = c.benchmark_group("a1_exceptions");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    // A loop full of *dead* divisions: their results are unused, so the
    // only thing keeping them alive is the possibility of a trap. With
    // the paper's `ExceptionsEnabled` cleared ("[noexc]"), DCE deletes
    // them; with it set, they must execute. This is §3.3's claim that a
    // static attribute buys the translator reordering/removal freedom.
    let src = r#"
int %main(int %n) {
entry:
    br label %header
header:
    %i = phi int [ 0, %entry ], [ %i2, %body ]
    %s = phi int [ 0, %entry ], [ %s2, %body ]
    %c = setlt int %i, %n
    br bool %c, label %body, label %exit
body:
    %d = add int %i, 1
    %dead1 = div int 1000000, %d
    %dead2 = rem int 999983, %d
    %s2 = add int %s, %i
    %i2 = add int %i, 1
    br label %header
exit:
    ret int %s
}
"#;
    let build = |exceptions_on: bool| {
        let mut m = llva_core::parser::parse_module(src).expect("parses");
        for fid in m.function_ids() {
            let func = m.function_mut(fid);
            let insts: Vec<_> = func.inst_iter().map(|(_, i)| i).collect();
            for i in insts {
                let op = func.inst(i).opcode();
                if matches!(
                    op,
                    llva_core::instruction::Opcode::Div | llva_core::instruction::Opcode::Rem
                ) {
                    func.set_exceptions_enabled(i, exceptions_on);
                }
            }
        }
        m
    };
    // static effect + dynamic effect (simulated cycles)
    let report = |exc: bool| {
        let mut m = build(exc);
        let mut pm = llva_opt::standard_pipeline();
        pm.run(&mut m);
        let insts = m.total_insts();
        let mut mgr = llva_engine::llee::ExecutionManager::new(m, llva_engine::llee::TargetIsa::Sparc);
        mgr.run("main", &[10_000]).expect("runs");
        (insts, mgr.exec_stats().cycles)
    };
    let (i_on, c_on) = report(true);
    let (i_off, c_off) = report(false);
    println!(
        "A1: trapping divs -> {i_on} insts / {c_on} cycles; [noexc] divs -> {i_off} insts / {c_off} cycles"
    );
    assert!(i_off < i_on, "noexc must let DCE delete the dead divisions");
    for (label, exc) in [("trapping_divs", true), ("noexc_divs", false)] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || build(exc),
                |mut m| {
                    let mut pm = llva_opt::standard_pipeline();
                    pm.run(&mut m);
                    m.total_insts()
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn a2_mem2reg(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2_mem2reg");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    let w = llva_workloads::by_name("181.mcf").expect("workload");
    let count_native = |promote: bool| {
        let mut m = w.compile(TargetConfig::ia32());
        if promote {
            let mut p = llva_opt::mem2reg::Mem2Reg::new();
            p.run(&mut m);
            let mut d = llva_opt::dce::Dce::new();
            d.run(&mut m);
        }
        let mut total = 0usize;
        for (fid, f) in m.functions() {
            if !f.is_declaration() {
                total += llva_backend::compile_x86(&m, fid).len();
            }
        }
        total
    };
    println!(
        "A2: native insts without mem2reg = {}, with mem2reg = {}",
        count_native(false),
        count_native(true)
    );
    for (label, promote) in [("no_promotion", false), ("with_mem2reg", true)] {
        group.bench_function(label, |b| {
            b.iter(|| count_native(promote));
        });
    }
    group.finish();
}

fn a3_link_time_opt(c: &mut Criterion) {
    let mut group = c.benchmark_group("a3_linktime");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    let w = llva_workloads::by_name("181.mcf").expect("workload");
    let size_with = |link_time: bool| {
        let mut m = w.compile(TargetConfig::default());
        if link_time {
            let mut pm = llva_opt::link_time_pipeline(&["main"]);
            pm.run(&mut m);
        } else {
            let mut pm = llva_opt::standard_pipeline();
            pm.run(&mut m);
        }
        llva_core::bytecode::encode_module(&m).len()
    };
    println!(
        "A3: object size standard = {} bytes, link-time = {} bytes",
        size_with(false),
        size_with(true)
    );
    for (label, lt) in [("standard_only", false), ("link_time", true)] {
        group.bench_function(label, |b| {
            b.iter(|| size_with(lt));
        });
    }
    group.finish();
}

criterion_group!(benches, a1_exceptions_enabled, a2_mem2reg, a3_link_time_opt);
criterion_main!(benches);
