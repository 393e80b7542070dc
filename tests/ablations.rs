//! The ablations of the design choices DESIGN.md calls out, checked as
//! counts (instructions, bytes, simulated cycles), never as times:
//!
//! * **A1 — `ExceptionsEnabled` (§3.3)**: dead divisions marked
//!   `[noexc]` are deleted by DCE; trapping ones must stay and execute.
//! * **A2 — SSA promotion (mem2reg)**: register promotion shrinks the
//!   emitted x86 code.
//! * **A3 — link-time interprocedural optimization (§4.2)**:
//!   internalize, inline and global DCE shrink the virtual object code.
//! * The install-time benefit (§4.2): the standard pipeline saves
//!   simulated cycles.
//!
//! Each test prints its numbers (run with `--nocapture`); EXPERIMENTS.md
//! quotes them.

use llva::backend::compile_x86;
use llva::core::bytecode::encode_module;
use llva::core::layout::TargetConfig;
use llva::core::module::Module;
use llva::engine::llee::{ExecutionManager, TargetIsa};
use llva::opt::ModulePass;

/// A loop full of dead divisions: their results are unused, so only the
/// possibility of a trap keeps them alive. `{exc}` takes the attribute.
const DEAD_DIVISIONS: &str = r#"
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
    %dead1 = div {exc} int 1000000, %d
    %dead2 = rem {exc} int 999983, %d
    %s2 = add int %s, %i
    %i2 = add int %i, 1
    br label %header
exit:
    ret int %s
}
"#;

fn mcf(target: TargetConfig) -> Module {
    llva::workloads::by_name("181.mcf")
        .expect("181.mcf")
        .compile(target)
}

/// The result and simulated cycles of `main(args)` on SPARC.
fn sparc_run(m: Module, args: &[u64]) -> (u64, u64) {
    let mut mgr = ExecutionManager::new(m, TargetIsa::Sparc);
    let value = mgr.run("main", args).expect("runs").value;
    (value, mgr.exec_stats().cycles)
}

#[test]
fn a1_noexc_lets_dce_delete_dead_divisions() {
    let optimized = |attr: &str| {
        let mut m = llva::core::parser::parse_module(&DEAD_DIVISIONS.replace("{exc}", attr))
            .expect("parses");
        llva::opt::standard_pipeline().run(&mut m);
        let insts = m.total_insts();
        let (value, cycles) = sparc_run(m, &[10_000]);
        (insts, value, cycles)
    };
    let (trap_insts, trap_value, trap_cycles) = optimized("[exc]");
    let (noexc_insts, noexc_value, noexc_cycles) = optimized("[noexc]");
    println!(
        "A1: trapping divs -> {trap_insts} insts / {trap_cycles} cycles; \
         [noexc] divs -> {noexc_insts} insts / {noexc_cycles} cycles"
    );
    assert_eq!(trap_value, noexc_value);
    assert!(noexc_insts < trap_insts, "[noexc] divisions survive DCE");
    assert!(noexc_cycles < trap_cycles, "[noexc] saves no cycles");
}

#[test]
fn a2_mem2reg_shrinks_mcf_x86_code() {
    let x86_insts = |promote: bool| {
        let mut m = mcf(TargetConfig::ia32());
        if promote {
            llva::opt::mem2reg::Mem2Reg::new().run(&mut m);
            llva::opt::dce::Dce::new().run(&mut m);
        }
        m.functions()
            .filter(|(_, f)| !f.is_declaration())
            .map(|(fid, _)| compile_x86(&m, fid).len())
            .sum::<usize>()
    };
    let (slots, promoted) = (x86_insts(false), x86_insts(true));
    println!("A2: 181.mcf x86 insts without mem2reg = {slots}, with mem2reg = {promoted}");
    assert!(promoted < slots);
}

#[test]
fn a3_link_time_pipeline_shrinks_mcf_bytecode() {
    let bytes = |link_time: bool| {
        let mut m = mcf(TargetConfig::default());
        let mut pm = if link_time {
            llva::opt::link_time_pipeline(&["main"])
        } else {
            llva::opt::standard_pipeline()
        };
        pm.run(&mut m);
        encode_module(&m).len()
    };
    let (standard, link_time) = (bytes(false), bytes(true));
    println!("A3: 181.mcf object size standard = {standard} bytes, link-time = {link_time} bytes");
    assert!(link_time < standard);
}

#[test]
fn standard_pipeline_saves_mcf_sparc_cycles() {
    let raw = mcf(TargetConfig::sparc_v9());
    let mut opt = raw.clone();
    llva::opt::standard_pipeline().run(&mut opt);
    let ((raw_value, raw_cycles), (opt_value, opt_cycles)) =
        (sparc_run(raw, &[]), sparc_run(opt, &[]));
    println!(
        "181.mcf SPARC cycles: unoptimized = {raw_cycles}, standard pipeline = {opt_cycles} \
         ({:.1}% saved)",
        100.0 * (raw_cycles - opt_cycles) as f64 / raw_cycles as f64
    );
    assert_eq!(raw_value, opt_value);
    assert!(opt_cycles < raw_cycles);
}
