//! The optimizer is a function of its input: the same module built
//! several times in one process encodes to the same bytes after every
//! pass of the link-time pipeline.
//!
//! LLEE's offline cache, the per-function content-hash keys and module
//! images all assume the same program is the same bytes. Each build
//! below creates its hash tables afresh, so every `HashMap`/`HashSet`
//! gets new `RandomState` keys: a pass whose output follows hash
//! iteration order shows up as a byte difference, named with the pass
//! and the program. Inputs are the 17 Table 2 programs, compiled from
//! source on every build, and 32 generated modules.
//!
//! The translators are a function of the bytecode: native code for the
//! optimised module in memory equals native code for the same module
//! decoded from its encoding, whose value numbering is canonical.

use llva::conform::gen::{generate, GenConfig};
use llva::core::bytecode::{decode_module, encode_module};
use llva::core::layout::TargetConfig;
use llva::core::module::Module;
use llva::engine::llee::TargetIsa;
use llva::machine::codec::encode;

const BUILDS: usize = 3;

/// The bytecode after each pass of the link-time pipeline, in order.
fn encodings_per_pass(mut module: Module, entry: &str) -> Vec<(&'static str, Vec<u8>)> {
    llva::opt::link_time_pass_list(&[entry])
        .into_iter()
        .map(|pass| {
            let name = pass.name();
            let mut pm = llva::opt::PassManager::new();
            pm.add_boxed(pass);
            pm.run(&mut module);
            (name, encode_module(&module))
        })
        .collect()
}

/// Builds `BUILDS` times and demands byte equality after every pass.
fn assert_deterministic(program: &str, entry: &str, build_input: impl Fn() -> Module) {
    let first = encodings_per_pass(build_input(), entry);
    for build in 1..BUILDS {
        let again = encodings_per_pass(build_input(), entry);
        for ((pass, want), (_, got)) in first.iter().zip(&again) {
            assert!(
                want == got,
                "{program}: build {build} differs from build 0 after pass '{pass}'"
            );
        }
    }
}

#[test]
fn table2_programs_build_to_the_same_bytes_after_every_pass() {
    for w in llva::workloads::all() {
        assert_deterministic(w.name, "main", || {
            llva::minic::compile(w.source, w.name, TargetConfig::default())
                .unwrap_or_else(|e| panic!("{} does not compile: {e}", w.name))
        });
    }
}

/// Large enough for nested loops, several helpers and memory traffic.
const GEN: GenConfig = GenConfig {
    max_helpers: 6,
    max_steps: 60,
    num_globals: 6,
    array_len: 32,
    num_slots: 4,
};

#[test]
fn generated_modules_build_to_the_same_bytes_after_every_pass() {
    for seed in 0..32 {
        let tc = generate(seed, &GEN);
        assert_deterministic(&format!("seed {seed}"), &tc.entry, || tc.module.clone());
    }
}

/// Every defined function of `module` translated for `isa`, encoded.
fn native(module: &Module, isa: TargetIsa) -> Vec<Vec<u8>> {
    let mut m = module.clone();
    m.set_target(isa.target_config());
    m.functions()
        .filter(|(_, f)| !f.is_declaration())
        .map(|(fid, _)| match isa {
            TargetIsa::X86 => encode(&llva::backend::compile_x86(&m, fid)),
            TargetIsa::Sparc => encode(&llva::backend::compile_sparc(&m, fid)),
            TargetIsa::Riscv => encode(&llva::backend::compile_riscv(&m, fid)),
        })
        .collect()
}

#[test]
fn native_code_is_a_function_of_the_bytecode() {
    let mut modules: Vec<(String, Module)> = llva::workloads::all()
        .iter()
        .map(|w| {
            let mut m = llva::minic::compile(w.source, w.name, TargetConfig::default())
                .unwrap_or_else(|e| panic!("{} does not compile: {e}", w.name));
            llva::opt::link_time_pipeline(&["main"]).run(&mut m);
            (w.name.to_string(), m)
        })
        .collect();
    for seed in 0..32 {
        let tc = generate(seed, &GEN);
        let mut m = tc.module;
        llva::opt::link_time_pipeline(&[tc.entry.as_str()]).run(&mut m);
        modules.push((format!("seed {seed}"), m));
    }
    let mut differ = Vec::new();
    let mut pairs = 0;
    for (name, m) in &modules {
        let decoded = decode_module(&encode_module(m)).expect("own encoding decodes");
        for isa in TargetIsa::ALL {
            pairs += 1;
            if native(m, isa) != native(&decoded, isa) {
                differ.push(format!("{name} on {isa}"));
            }
        }
    }
    assert_eq!(pairs, 147);
    assert!(
        differ.is_empty(),
        "{} of {pairs} translations differ from the decoded module's: {}",
        differ.len(),
        differ.join(", ")
    );
}
