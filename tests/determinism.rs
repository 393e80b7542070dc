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

use llva::conform::gen::{generate, GenConfig};
use llva::core::bytecode::encode_module;
use llva::core::layout::TargetConfig;
use llva::core::module::Module;

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

#[test]
fn generated_modules_build_to_the_same_bytes_after_every_pass() {
    // large enough for nested loops, several helpers and memory traffic
    let cfg = GenConfig {
        max_helpers: 6,
        max_steps: 60,
        num_globals: 6,
        array_len: 32,
        num_slots: 4,
    };
    for seed in 0..32 {
        let tc = generate(seed, &cfg);
        assert_deterministic(&format!("seed {seed}"), &tc.entry, || tc.module.clone());
    }
}
