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
//! A second table, `tests/golden/image.txt`, pins the module image
//! format over the same modules: one row per module with the size and
//! FNV-1a of the image holding its bytecode and every function's
//! predecode record.
//!
//! On a mismatch a test writes the table it computed next to the
//! build's other test output and names the file; copying it over the
//! golden file re-records the table, which is only right when the
//! emitted bytes were *meant* to change.

use llva::backend::{compile_riscv, compile_sparc, compile_x86, compile_x86_naive};
use llva::conform::gen::{generate, GenConfig};
use llva::core::bytecode::{decode_module, encode_module};
use llva::core::layout::TargetConfig;
use llva::core::module::{FuncId, Module};
use llva::engine::image::ImageBuilder;
use llva::engine::llee::TargetIsa;
use llva::engine::PreModule;
use llva::machine::codec::encode;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/native.txt");
const IMAGE_GOLDEN: &str = include_str!("golden/image.txt");
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

/// The module set: the 17 Table 2 programs and 32 generated modules
/// after the link-time pipeline, then the trap corpus and `invoke`.
fn corpus() -> Vec<(String, Module)> {
    let mut out: Vec<(String, Module)> = llva::workloads::all()
        .iter()
        .map(|w| {
            let mut m = llva::minic::compile(w.source, w.name, TargetConfig::default())
                .expect("compiles");
            llva::opt::link_time_pipeline(&["main"]).run(&mut m);
            (w.name.to_string(), m)
        })
        .collect();
    let cfg = GenConfig {
        max_helpers: 6,
        max_steps: 60,
        num_globals: 6,
        array_len: 32,
        num_slots: 4,
    };
    out.extend((0..32).map(|seed| {
        let tc = generate(seed, &cfg);
        let mut m = tc.module;
        llva::opt::link_time_pipeline(&[tc.entry.as_str()]).run(&mut m);
        (format!("seed{seed}"), m)
    }));
    for (name, text) in [("traps", TRAPS), ("invoke", INVOKE)] {
        out.push((name.to_string(), llva::core::parser::parse_module(text).expect("parses")));
    }
    out
}

fn table(corpus: &[(String, Module)]) -> String {
    let programs = &corpus[..llva::workloads::all().len()];
    let mut out = String::new();
    for isa in TargetIsa::ALL {
        let translate: Translate = match isa {
            TargetIsa::X86 => x86,
            TargetIsa::Sparc => sparc,
            TargetIsa::Riscv => riscv,
        };
        let tag = isa.to_string();
        let cfg = isa.target_config();
        for (name, m) in corpus {
            rows(&mut out, &tag, name, m, cfg, translate);
        }
    }
    for (name, m) in programs {
        rows(&mut out, "x86-naive", name, m, TargetIsa::X86.target_config(), x86_naive);
    }
    out
}

/// One row per module: its image with the bytecode and predecode
/// sections, built from the decoded bytecode.
fn image_table(corpus: &[(String, Module)]) -> String {
    let mut out = String::new();
    for (name, module) in corpus {
        let m = decode_module(&encode_module(module)).expect("own encoding decodes");
        let pre = PreModule::new(&m);
        pre.decode_all();
        let mut builder = ImageBuilder::new(&m);
        builder.add_predecode(&pre);
        let bytes = builder.finish();
        writeln!(out, "{name}: bytes {} fnv {:016x}", bytes.len(), fnv1a(&bytes))
            .expect("writes to a String");
    }
    out
}

/// Passes when `got` equals the recorded table; otherwise writes `got`
/// to `file` in the test output directory and names the first
/// difference.
fn check(got: &str, golden: &str, file: &str) {
    if got == golden {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(file);
    std::fs::write(&path, got).expect("writes the computed table");
    let first = got
        .lines()
        .zip(golden.lines())
        .find(|(g, w)| g != w)
        .map_or_else(
            || "the tables differ in length".to_string(),
            |(g, w)| format!("first difference:\n  recorded: {w}\n  computed: {g}"),
        );
    panic!("{first}\n(computed table written to {})", path.display());
}

#[test]
fn native_code_matches_the_recorded_table() {
    check(&table(&corpus()), GOLDEN, "native.txt");
}

#[test]
fn images_match_the_recorded_table() {
    check(&image_table(&corpus()), IMAGE_GOLDEN, "image.txt");
}
