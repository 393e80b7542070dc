//! The native code the three translators emit, pinned to a recorded
//! table: a change to how the back end is *structured* must not change
//! the code it *produces*.
//!
//! For each ISA the table holds, per function, the native instruction
//! count and the FNV-1a hash of the function's `machine::codec`
//! encoding, peephole pass on: the 17 Table 2 programs and 32 generated
//! modules after the link-time pipeline, the trap corpus and the
//! `invoke` module of `machine_golden.rs`, and the naive x86 translator
//! (the Table 2 baseline) over the 17 programs. Every module is
//! translated from its decoded bytecode, so native code depends on the
//! bytes only.
//!
//! On a mismatch the test writes the table it computed next to the
//! build's other test output and names the file; copying it over
//! `tests/golden/native.txt` re-records the table, which is only right
//! when the emitted code was *meant* to change.

use llva::backend::{compile_riscv, compile_sparc, compile_x86, compile_x86_naive};
use llva::conform::gen::{generate, GenConfig};
use llva::core::bytecode::{decode_module, encode_module};
use llva::core::layout::TargetConfig;
use llva::core::module::{FuncId, Module};
use llva::engine::llee::TargetIsa;
use llva::machine::codec::encode;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/native.txt");
const TRAPS: &str = include_str!("golden/traps.ll");
const INVOKE: &str = include_str!("golden/invoke.ll");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(instruction count, encoded bytes)` of one function.
type Translate = fn(&Module, FuncId) -> (usize, Vec<u8>);

fn x86(m: &Module, f: FuncId) -> (usize, Vec<u8>) {
    let code = compile_x86(m, f);
    (code.len(), encode(&code))
}

fn x86_naive(m: &Module, f: FuncId) -> (usize, Vec<u8>) {
    let code = compile_x86_naive(m, f);
    (code.len(), encode(&code))
}

fn sparc(m: &Module, f: FuncId) -> (usize, Vec<u8>) {
    let code = compile_sparc(m, f);
    (code.len(), encode(&code))
}

fn riscv(m: &Module, f: FuncId) -> (usize, Vec<u8>) {
    let code = compile_riscv(m, f);
    (code.len(), encode(&code))
}

/// One row per defined function of `module`, translated for `cfg`.
fn rows(out: &mut String, tag: &str, label: &str, module: &Module, cfg: TargetConfig, translate: Translate) {
    let mut m = decode_module(&encode_module(module)).expect("own encoding decodes");
    m.set_target(cfg);
    for (fid, f) in m.functions() {
        if f.is_declaration() {
            continue;
        }
        let (insts, bytes) = translate(&m, fid);
        writeln!(out, "{tag} {label} {}: insts {insts} fnv {:016x}", f.name(), fnv1a(&bytes))
            .expect("writes to a String");
    }
}

fn table() -> String {
    let programs: Vec<(&str, Module)> = llva::workloads::all()
        .iter()
        .map(|w| {
            let mut m = llva::minic::compile(w.source, w.name, TargetConfig::default())
                .expect("compiles");
            llva::opt::link_time_pipeline(&["main"]).run(&mut m);
            (w.name, m)
        })
        .collect();
    let cfg = GenConfig {
        max_helpers: 6,
        max_steps: 60,
        num_globals: 6,
        array_len: 32,
        num_slots: 4,
    };
    let generated: Vec<(String, Module)> = (0..32)
        .map(|seed| {
            let tc = generate(seed, &cfg);
            let mut m = tc.module;
            llva::opt::link_time_pipeline(&[tc.entry.as_str()]).run(&mut m);
            (format!("seed{seed}"), m)
        })
        .collect();
    let traps = llva::core::parser::parse_module(TRAPS).expect("parses");
    let invoke = llva::core::parser::parse_module(INVOKE).expect("parses");

    let mut out = String::new();
    for isa in TargetIsa::ALL {
        let translate: Translate = match isa {
            TargetIsa::X86 => x86,
            TargetIsa::Sparc => sparc,
            TargetIsa::Riscv => riscv,
        };
        let tag = isa.to_string();
        let cfg = isa.target_config();
        for (name, m) in &programs {
            rows(&mut out, &tag, name, m, cfg, translate);
        }
        for (name, m) in &generated {
            rows(&mut out, &tag, name, m, cfg, translate);
        }
        rows(&mut out, &tag, "traps", &traps, cfg, translate);
        rows(&mut out, &tag, "invoke", &invoke, cfg, translate);
    }
    for (name, m) in &programs {
        rows(&mut out, "x86-naive", name, m, TargetIsa::X86.target_config(), x86_naive);
    }
    out
}

#[test]
fn native_code_matches_the_recorded_table() {
    let got = table();
    if got == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("native.txt");
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
