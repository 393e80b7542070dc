//! Cross-crate integration tests: whole-system scenarios that span the
//! front end, optimizer, bytecode, execution manager, storage, and
//! both simulated processors.

use llva::core::layout::TargetConfig;
use llva::engine::llee::{ExecutionManager, TargetIsa};
use llva::engine::storage::{MemStorage, Storage, SyncStorage};
use llva::engine::Interpreter;

/// The full paper pipeline: C-like source → LLVA → link-time opt →
/// virtual object code → decode → JIT → native run, all consistent.
#[test]
fn whole_paper_pipeline() {
    let src = r#"
int gcd(int a, int b) {
    while (b != 0) {
        int t = a % b;
        a = b;
        b = t;
    }
    return a;
}

int main() {
    int acc = 0;
    for (int i = 1; i <= 60; i++) {
        acc += gcd(i * 7, 36);
    }
    return acc;
}
"#;
    // front end
    let mut m = llva::minic::compile(src, "pipeline", TargetConfig::default()).expect("compiles");
    llva::core::verifier::verify_module(&m).expect("verifies");
    let reference = Interpreter::new(&m).run("main", &[]).expect("interprets");

    // link-time optimization on the V-ISA
    let mut pm = llva::opt::link_time_pipeline(&["main"]);
    pm.verify_after_each(true);
    pm.run(&mut m);

    // persist as virtual object code, reload
    let bytes = llva::core::bytecode::encode_module(&m);
    let m = llva::core::bytecode::decode_module(&bytes).expect("decodes");
    llva::core::verifier::verify_module(&m).expect("decoded module verifies");

    // execute on all three processors through the execution manager
    for isa in TargetIsa::ALL {
        let m = llva::core::bytecode::decode_module(&bytes).expect("decodes");
        let mut mgr = ExecutionManager::new(m, isa);
        assert_eq!(mgr.run("main", &[]).expect("runs").value, reference, "{isa}");
    }
}

/// The storage API lets a second "boot" of the same program skip the
/// JIT entirely; a third boot of a *changed* program does not reuse
/// stale code.
#[test]
fn cache_lifecycle_across_boots() {
    let storage = SyncStorage::new(MemStorage::new());
    let src_v1 = "int main() { int s = 0; for (int i = 0; i < 50; i++) s += i; return s; }";
    let src_v2 = "int main() { int s = 1; for (int i = 0; i < 50; i++) s += i; return s; }";
    let compile = |s: &str| llva::minic::compile(s, "boot", TargetConfig::default()).expect("ok");

    let mut boot1 = ExecutionManager::new(compile(src_v1), TargetIsa::X86);
    boot1.set_storage(Box::new(storage.clone()), "boot");
    assert_eq!(boot1.run("main", &[]).expect("runs").value, 1225);
    assert!(boot1.stats().functions_translated > 0);

    let mut boot2 = ExecutionManager::new(compile(src_v1), TargetIsa::X86);
    boot2.set_storage(Box::new(storage.clone()), "boot");
    assert_eq!(boot2.run("main", &[]).expect("runs").value, 1225);
    assert_eq!(boot2.stats().functions_translated, 0);
    assert!(boot2.stats().cache_hits > 0);

    let mut boot3 = ExecutionManager::new(compile(src_v2), TargetIsa::X86);
    boot3.set_storage(Box::new(storage.clone()), "boot");
    assert_eq!(boot3.run("main", &[]).expect("runs").value, 1226);
    assert!(boot3.stats().functions_translated > 0, "stale cache rejected");
    assert!(storage.cache_size("boot").unwrap_or(0) > 0);
}

/// Profiling + trace formation + reoptimization preserve results while
/// reducing simulated cycles on a call-heavy loop.
#[test]
fn trace_reoptimization_end_to_end() {
    let src = r#"
int f(int x) { return x * 2 + 1; }
int main() {
    int acc = 0;
    for (int i = 0; i < 500; i++) acc += f(i);
    return acc;
}
"#;
    let mut instrumented =
        llva::minic::compile(src, "traced", TargetConfig::default()).expect("compiles");
    let map = llva::engine::profile::instrument(&mut instrumented);
    let mut mgr = ExecutionManager::new(instrumented, TargetIsa::X86);
    let expected = mgr.run("main", &[]).expect("runs").value;
    let counts = llva::engine::profile::read_counters(&mgr, &map);

    let mut clean = llva::minic::compile(src, "traced", TargetConfig::default()).expect("compiles");
    let cache = llva::engine::trace::form_traces(&clean, &map, &counts, 100, 16);
    assert!(!cache.is_empty());
    assert!(cache.traces().iter().any(|t| t.cross_procedure));

    let cycles = |m: &llva::core::module::Module| {
        let mut mgr = ExecutionManager::new(m.clone(), TargetIsa::X86);
        let out = mgr.run("main", &[]).expect("runs");
        (out.value, mgr.exec_stats().cycles)
    };
    let (v0, c0) = cycles(&clean);
    assert_eq!(v0, expected);
    llva::engine::trace::reoptimize(&mut clean, &cache);
    let (v1, c1) = cycles(&clean);
    assert_eq!(v1, expected, "reoptimization preserves results");
    assert!(c1 < c0, "reoptimization reduced cycles: {c0} -> {c1}");
}

/// Retargeting: the same virtual object code runs with 32-bit pointers
/// (little-endian) and 64-bit pointers (big-endian), exercising §3.2's
/// portability argument for type-safe programs.
#[test]
fn object_code_portability_across_targets() {
    let src = r#"
struct Cell { int v; struct Cell* next; };
int main() {
    struct Cell* head = (struct Cell*)0;
    for (int i = 1; i <= 7; i++) {
        struct Cell* c = (struct Cell*)malloc(sizeof(struct Cell));
        c->v = i * i;
        c->next = head;
        head = c;
    }
    int s = 0;
    while (head) { s += head->v; head = head->next; }
    return s;
}
"#;
    // NOTE: sizeof() bakes the target in, so compile per-target — this
    // is exactly the pointer-size exposure the paper describes for
    // non-type-safe code (§3.2).
    let mut results = Vec::new();
    for isa in TargetIsa::ALL {
        let target = match isa {
            TargetIsa::X86 => TargetConfig::ia32(),
            TargetIsa::Sparc => TargetConfig::sparc_v9(),
            TargetIsa::Riscv => TargetConfig::riscv64(),
        };
        let m = llva::minic::compile(src, "portable", target).expect("compiles");
        let mut mgr = ExecutionManager::new(m, isa);
        results.push(mgr.run("main", &[]).expect("runs").value);
    }
    assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
    assert_eq!(results[0], (1..=7).map(|i| i * i).sum::<u64>());
}

/// The SEC side of §3.4: new code added at run time (a new function
/// installed in the module) is translatable and callable.
#[test]
fn self_extending_code() {
    let src = "int main() { return 1; }";
    let m = llva::minic::compile(src, "sec", TargetConfig::default()).expect("compiles");
    let mut mgr = ExecutionManager::new(m, TargetIsa::X86);
    assert_eq!(mgr.run("main", &[]).expect("runs").value, 1);
    // "main" is rewritten to call newly added code — both changes take
    // effect on the next invocation (§3.4's constrained model)
    mgr.modify_function("main", |m, fid| {
        let int = m.types_mut().int();
        let newf = m.add_function("added_later", int, vec![int]);
        {
            let mut b = llva::core::builder::FunctionBuilder::new(m, newf);
            let e = b.block("entry");
            b.switch_to(e);
            let x = b.func().args()[0];
            let t = b.iconst(int, 41);
            let s = b.add(x, t);
            b.ret(Some(s));
        }
        m.discard_function_body(fid);
        let mut b = llva::core::builder::FunctionBuilder::new(m, fid);
        let e = b.block("entry");
        b.switch_to(e);
        let one = b.iconst(int, 1);
        let r = b.call(newf, vec![one]).expect("non-void");
        b.ret(Some(r));
    });
    assert_eq!(mgr.run("main", &[]).expect("runs").value, 42);
}

/// Differential check of trap behavior: all three executors deliver
/// the same precise trap kind for the same bad program.
#[test]
fn traps_agree_across_executors() {
    let src = r#"
int main(int idx) {
    int a[4];
    for (int i = 0; i < 4; i++) a[i] = i;
    int* p = (int*)0;
    if (idx > 100) p = a;
    return *p;
}
"#;
    let m = llva::minic::compile(src, "trapper", TargetConfig::default()).expect("compiles");
    let mut interp = Interpreter::new(&m);
    let i_err = interp.run("main", &[0]).expect_err("null deref traps");
    let llva::engine::InterpError::Trap(t) = i_err else {
        panic!("expected trap")
    };
    assert_eq!(t.kind, llva::machine::TrapKind::MemoryFault);
    for isa in TargetIsa::ALL {
        let m = llva::minic::compile(src, "trapper", TargetConfig::default()).expect("compiles");
        let mut mgr = ExecutionManager::new(m, isa);
        match mgr.run("main", &[0]) {
            Err(llva::engine::llee::EngineError::Trapped(t)) => {
                assert_eq!(t.kind, llva::machine::TrapKind::MemoryFault, "{isa}");
            }
            other => panic!("{isa}: expected memory fault, got {other:?}"),
        }
    }
}

/// Console I/O through intrinsics is identical everywhere.
#[test]
fn io_identical_across_executors() {
    let src = r#"
void print_int(int v) {
    if (v >= 10) print_int(v / 10);
    putchar('0' + v % 10);
}
int main() {
    print_int(31337);
    putchar('\n');
    return 0;
}
"#;
    let m = llva::minic::compile(src, "io", TargetConfig::default()).expect("compiles");
    let mut interp = Interpreter::new(&m);
    interp.run("main", &[]).expect("runs");
    assert_eq!(interp.env.stdout_string(), "31337\n");
    for isa in TargetIsa::ALL {
        let m = llva::minic::compile(src, "io", TargetConfig::default()).expect("compiles");
        let mut mgr = ExecutionManager::new(m, isa);
        mgr.run("main", &[]).expect("runs");
        assert_eq!(mgr.env.stdout_string(), "31337\n", "{isa}");
    }
}
