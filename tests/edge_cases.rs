//! Edge-case coverage across crates: front-end error paths, exotic
//! type round-trips, resource-limit traps, and optimizer behavior on
//! exceptional control flow.

use llva::core::layout::TargetConfig;
use llva::engine::llee::{EngineError, ExecutionManager, TargetIsa};
use llva::engine::Interpreter;

fn compile_err(src: &str) -> String {
    match llva::minic::compile(src, "t", TargetConfig::default()) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("expected a compile error"),
    }
}

#[test]
fn minic_error_paths() {
    assert!(compile_err("int main() { return x; }").contains("unknown variable"));
    assert!(compile_err("int main() { break; return 0; }").contains("break outside"));
    assert!(compile_err("int main() { continue; }").contains("continue outside"));
    assert!(
        compile_err("int f(int a) { return a; } int main() { return f(1, 2); }")
            .contains("expected 1")
    );
    assert!(compile_err(
        "struct P { int x; }; int main() { struct P p; return p.nope; }"
    )
    .contains("no field"));
    assert!(
        compile_err("int main() { int* p; return p * 2; }").contains("pointer")
    );
    // parse error has a line number
    let e = llva::minic::parse("int main() {\n  @;\n}").unwrap_err();
    assert_eq!(e.line, 2);
}

#[test]
fn exotic_types_round_trip_everywhere() {
    let src = r#"
%Inner = type { sbyte, [3 x ushort], double }
%Outer = type { %Inner, %Inner*, [2 x [2 x int]] }

@matrix = global [2 x [2 x int]] [ [ 1, 2 ], [ 3, 4 ] ]

int %main(%Outer* %o) {
entry:
    %m00 = getelementptr [2 x [2 x int]]* @matrix, long 0, long 1, long 1
    %v = load int* %m00
    ret int %v
}
"#;
    let m = llva::core::parser::parse_module(src).expect("parses");
    llva::core::verifier::verify_module(&m).expect("verifies");
    // textual round trip
    let text = llva::core::printer::print_module(&m);
    let m2 = llva::core::parser::parse_module(&text).expect("reparses");
    llva::core::verifier::verify_module(&m2).expect("verifies again");
    // binary round trip
    let m3 = llva::core::bytecode::decode_module(&llva::core::bytecode::encode_module(&m2))
        .expect("decodes");
    llva::core::verifier::verify_module(&m3).expect("verifies decoded");
    // and it runs: matrix[1][1] == 4
    let mut i = Interpreter::new(&m3);
    assert_eq!(i.run("main", &[0]), Ok(4));
}

#[test]
fn exc_attribute_round_trips_textually() {
    let src = r#"
int %f(int* %p, int %x) {
entry:
    %v = load [noexc] int* %p
    %q = div int %v, %x
    %r = add [exc] int %q, 1
    ret int %r
}
"#;
    let m = llva::core::parser::parse_module(src).expect("parses");
    let text = llva::core::printer::print_module(&m);
    assert!(text.contains("load [noexc]"), "{text}");
    assert!(text.contains("add [exc]"), "{text}");
    assert!(!text.contains("div [")); // default stays unmarked
    let m2 = llva::core::parser::parse_module(&text).expect("reparses");
    let f = m2.function(m2.function_by_name("f").expect("f"));
    let e = f.entry_block();
    let insts = f.block(e).insts();
    assert!(!f.inst(insts[0]).exceptions_enabled());
    assert!(f.inst(insts[1]).exceptions_enabled());
    assert!(f.inst(insts[2]).exceptions_enabled());
}

#[test]
fn deep_recursion_traps_as_stack_overflow() {
    let src = r#"
int infinite(int n) { return infinite(n + 1); }
int main() { return infinite(0); }
"#;
    let m = llva::minic::compile(src, "deep", TargetConfig::default()).expect("compiles");
    let mut interp = Interpreter::new(&m);
    match interp.run("main", &[]) {
        Err(llva::engine::InterpError::Trap(t)) => {
            assert_eq!(t.kind, llva::machine::TrapKind::StackOverflow);
        }
        other => panic!("expected stack overflow, got {other:?}"),
    }
    // native: also a stack overflow (frame pushes exhaust the segment)
    let m = llva::minic::compile(src, "deep", TargetConfig::default()).expect("compiles");
    let mut mgr = ExecutionManager::new(m, TargetIsa::X86);
    match mgr.run("main", &[]) {
        Err(EngineError::Trapped(t)) => {
            assert_eq!(t.kind, llva::machine::TrapKind::StackOverflow);
        }
        other => panic!("expected stack overflow, got {other:?}"),
    }
}

#[test]
fn fuel_limits_runaway_native_code() {
    let src = "int main() { while (1) {} return 0; }";
    let m = llva::minic::compile(src, "spin", TargetConfig::default()).expect("compiles");
    let mut mgr = ExecutionManager::new(m, TargetIsa::Sparc);
    mgr.set_fuel(100_000);
    assert!(matches!(mgr.run("main", &[]), Err(EngineError::OutOfFuel)));
}

#[test]
fn wide_mbr_dispatch() {
    // a 10-way multiway branch, all three executors agreeing
    let mut cases = String::new();
    let mut blocks = String::new();
    for k in 0..10 {
        cases.push_str(&format!(", [ int {k}, label %c{k} ]"));
        blocks.push_str(&format!("c{k}:\n    ret int {}\n", k * 11));
    }
    let src = format!(
        "int %main(int %x) {{\nentry:\n    mbr int %x, label %other{cases}\n{blocks}other:\n    ret int -1\n}}\n"
    );
    let m = llva::core::parser::parse_module(&src).expect("parses");
    llva::core::verifier::verify_module(&m).expect("verifies");
    for x in [0u64, 5, 9, 77] {
        let mut i = Interpreter::new(&m);
        let expected = i.run("main", &[x]).expect("interprets");
        for isa in TargetIsa::ALL {
            let m = llva::core::parser::parse_module(&src).expect("parses");
            let mut mgr = ExecutionManager::new(m, isa);
            assert_eq!(mgr.run("main", &[x]).expect("runs").value, expected);
        }
    }
}

#[test]
fn optimizer_handles_invoke_unwind() {
    let src = r#"
void %maybe_throw(int %x) {
entry:
    %c = setgt int %x, 3
    br bool %c, label %boom, label %ok
boom:
    unwind
ok:
    ret void
}

int %main(int %x) {
entry:
    %dead = add int %x, %x
    invoke void %maybe_throw(int %x) to label %fine unwind label %caught
fine:
    %a = add int 1, 2
    ret int %a
caught:
    ret int 99
}
"#;
    let mut m = llva::core::parser::parse_module(src).expect("parses");
    let mut i = Interpreter::new(&m);
    let r_lo = i.run("main", &[1]).expect("runs");
    let mut i = Interpreter::new(&m);
    let r_hi = i.run("main", &[9]).expect("runs");
    assert_eq!((r_lo, r_hi), (3, 99));
    let mut pm = llva::opt::link_time_pipeline(&["main"]);
    pm.verify_after_each(true);
    pm.run(&mut m);
    let mut i = Interpreter::new(&m);
    assert_eq!(i.run("main", &[1]), Ok(3));
    let mut i = Interpreter::new(&m);
    assert_eq!(i.run("main", &[9]), Ok(99));
}

#[test]
fn intrinsic_stack_inspection() {
    // llva.stack.frames / llva.stack.funcname (§3.5)
    let src = r#"
declare int %llva.stack.frames()
declare sbyte* %llva.stack.funcname(int)

int %leaf() {
entry:
    %d = call int %llva.stack.frames()
    ret int %d
}

int %mid() {
entry:
    %d = call int %leaf()
    ret int %d
}

int %main() {
entry:
    %d = call int %mid()
    ret int %d
}
"#;
    let m = llva::core::parser::parse_module(src).expect("parses");
    let mut i = Interpreter::new(&m);
    assert_eq!(i.run("main", &[]), Ok(3), "main -> mid -> leaf = 3 frames");
    for isa in TargetIsa::ALL {
        let m = llva::core::parser::parse_module(src).expect("parses");
        let mut mgr = ExecutionManager::new(m, isa);
        assert_eq!(mgr.run("main", &[]).expect("runs").value, 3, "{isa}");
    }
}

#[test]
fn privileged_intrinsics_trap_in_user_mode() {
    let src = r#"
declare int %llva.trap.register(int, void (int, sbyte*)*)

void %h(int %n, sbyte* %i) {
entry:
    ret void
}

int %main() {
entry:
    %r = call int %llva.trap.register(int 1, void (int, sbyte*)* %h)
    ret int %r
}
"#;
    let m = llva::core::parser::parse_module(src).expect("parses");
    let mut i = Interpreter::new(&m);
    // user mode: privileged intrinsic traps
    match i.run("main", &[]) {
        Err(llva::engine::InterpError::Trap(t)) => {
            assert_eq!(t.kind, llva::machine::TrapKind::PrivilegeViolation);
        }
        other => panic!("expected privilege violation, got {other:?}"),
    }
    // kernel mode: allowed
    let mut i = Interpreter::new(&m);
    i.env.privileged = true;
    assert_eq!(i.run("main", &[]), Ok(0));
}

#[test]
fn bytecode_small_format_dominates_workloads() {
    // the paper's compactness argument: "most instructions usually fit
    // in a single 32-bit word"
    for w in llva::workloads::all().into_iter().take(8) {
        let m = w.compile(TargetConfig::default());
        let stats = llva::core::bytecode::encoding_stats(&m);
        let frac = stats.small_insts as f64 / (stats.small_insts + stats.extended_insts) as f64;
        assert!(
            frac > 0.6,
            "{}: only {:.0}% small-format instructions",
            w.name,
            frac * 100.0
        );
    }
}

#[test]
fn constant_shifts_fold_to_what_executors_compute() {
    use llva::opt::constfold::ConstFold;
    let types = [
        ("sbyte", 8, true),
        ("ubyte", 8, false),
        ("short", 16, true),
        ("ushort", 16, false),
        ("int", 32, true),
        ("uint", 32, false),
        ("long", 64, true),
        ("ulong", 64, false),
    ];
    for (ty, w, signed) in types {
        // shr shifts the top bit, so an amount taken modulo the width
        // and one taken modulo 64 give different answers
        let top = if signed { format!("-{}", 1u128 << (w - 1)) } else { (1u128 << (w - 1)).to_string() };
        for (op, value) in [("shl", "1".to_string()), ("shr", top)] {
            for amount in [w - 1, w, w + 1, 63, 64] {
                let src = format!("{ty} %main() {{\nentry:\n    %r = {op} {ty} {value}, {amount}\n    ret {ty} %r\n}}\n");
                let mut m = llva::core::parser::parse_module(&src).expect("parses");
                let unfolded = Interpreter::new(&m).run("main", &[]).expect("runs");
                let mut pm = llva::opt::PassManager::new();
                pm.add(ConstFold::new()).verify_after_each(true);
                pm.run(&mut m);
                let folded = Interpreter::new(&m).run("main", &[]).expect("runs");
                assert_eq!(folded, unfolded, "{op} {ty} {value}, {amount}");
            }
        }
    }
}
