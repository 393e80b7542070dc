//! The simulated processors' observable behaviour, pinned to a recorded
//! table: a change to how the simulators *run* code must not change
//! what the simulated code *does*.
//!
//! For each of the three ISAs the table holds, per program, the result
//! and all six `ExecStats` counters: the six launch programs of the
//! benchmark (link-time optimised, as shipped), 32 generated modules, a
//! trap corpus with each trap's `(kind, function, pc)`, intrinsic
//! calls, `OutOfFuel` at small fuel limits, and an `invoke` whose
//! callee chain overwrites callee-saved registers before `unwind` (the
//! landing pad must see the caller's values). Every module is
//! translated from its decoded bytecode, so native code depends on the
//! bytes only.
//!
//! On a mismatch the test writes the table it computed next to the
//! build's other test output and names the file; copying it over
//! `tests/golden/machine.txt` re-records the table, which is only right
//! when the simulated behaviour was *meant* to change.

use llva::conform::gen::{generate, GenConfig};
use llva::core::bytecode::{decode_module, encode_module};
use llva::core::layout::TargetConfig;
use llva::core::module::Module;
use llva::engine::llee::{EngineError, ExecutionManager, TargetIsa};
use llva::engine::Interpreter;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/machine.txt");

/// The benchmark's `launch-*` programs.
const LAUNCH: [&str; 6] = [
    "ptrdist-bc",
    "197.parser",
    "255.vortex",
    "ptrdist-yacr2",
    "186.crafty",
    "ptrdist-anagram",
];

/// Traps of every kind, an intrinsic call and an endless loop.
const TRAPS: &str = include_str!("golden/traps.ll");

/// `main` keeps values live across an `invoke`; `mid` keeps its own
/// across a plain call; `clobber` overwrites whatever registers its
/// arithmetic needs, then unwinds past `mid` to `main`'s landing pad.
const INVOKE: &str = include_str!("golden/invoke.ll");

fn roundtrip(module: &Module) -> Module {
    decode_module(&encode_module(module)).expect("own encoding decodes")
}

/// One table row: what `entry(args)` did on `isa`, and what it cost.
fn row(out: &mut String, isa: TargetIsa, label: &str, module: &Module, entry: &str, args: &[u64], fuel: Option<u64>) {
    let mut mgr = ExecutionManager::new(roundtrip(module), isa);
    if let Some(fuel) = fuel {
        mgr.set_fuel(fuel);
    }
    let outcome = match mgr.run(entry, args) {
        Ok(run) => format!("value {:#x}", run.value),
        Err(EngineError::Trapped(t)) => format!("trap {t}"),
        Err(e) => e.to_string(),
    };
    let s = mgr.exec_stats();
    writeln!(
        out,
        "{isa} {label}: {outcome} | insts {} cycles {} loads {} stores {} calls {} taken {}",
        s.instructions, s.cycles, s.loads, s.stores, s.calls, s.taken_branches
    )
    .expect("writes to a String");
}

fn table() -> String {
    let launch: Vec<Module> = LAUNCH
        .iter()
        .map(|name| {
            let w = llva::workloads::by_name(name).expect("a Table 2 program");
            let mut m = llva::minic::compile(w.source, w.name, TargetConfig::default())
                .expect("compiles");
            llva::opt::link_time_pipeline(&["main"]).run(&mut m);
            m
        })
        .collect();
    let cfg = GenConfig {
        max_helpers: 6,
        max_steps: 60,
        num_globals: 6,
        array_len: 32,
        num_slots: 4,
    };
    let generated: Vec<_> = (0..32).map(|seed| generate(seed, &cfg)).collect();
    let traps = llva::core::parser::parse_module(TRAPS).expect("parses");
    let invoke = llva::core::parser::parse_module(INVOKE).expect("parses");

    let mut out = String::new();
    for isa in TargetIsa::ALL {
        for (name, m) in LAUNCH.iter().zip(&launch) {
            row(&mut out, isa, name, m, "main", &[], None);
        }
        for (seed, tc) in generated.iter().enumerate() {
            row(&mut out, isa, &format!("seed {seed}"), &tc.module, &tc.entry, &tc.args, None);
        }
        for entry in [
            "div_by_zero",
            "null_load",
            "unhandled_unwind",
            "bad_function_pointer",
            "intrinsics",
        ] {
            row(&mut out, isa, entry, &traps, entry, &[12345], None);
        }
        for fuel in [1, 2, 3, 5, 8, 13, 100, 1000] {
            row(&mut out, isa, &format!("spin@{fuel}"), &traps, "spin", &[0], Some(fuel));
        }
        row(&mut out, isa, "invoke", &invoke, "main", &[3], None);
    }
    out
}

#[test]
fn invoke_landing_pad_sees_the_callers_registers() {
    let m = llva::core::parser::parse_module(INVOKE).expect("parses");
    let want = Interpreter::new(&m).run("main", &[3]).expect("interprets");
    for isa in TargetIsa::ALL {
        let got = ExecutionManager::new(roundtrip(&m), isa)
            .run("main", &[3])
            .expect("the pad returns")
            .value;
        assert_eq!(got, want, "{isa}");
    }
}

#[test]
fn machine_behaviour_matches_the_recorded_table() {
    let got = table();
    if got == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("machine.txt");
    std::fs::write(&path, &got).expect("writes the computed table");
    let first = got
        .lines()
        .zip(GOLDEN.lines())
        .find(|(g, w)| g != w)
        .map_or_else(
            || "the tables differ in length".to_string(),
            |(g, w)| format!("first difference:\n  recorded: {w}\n  computed: {g}"),
        );
    panic!("{first}\n(computed table written to {})", path.display());
}
