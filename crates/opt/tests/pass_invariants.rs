//! Per-pass structural invariants over generated programs.
//!
//! Every pass that appears in `standard_pipeline()` or
//! `link_time_pipeline()` is run *alone* — with the pass manager's
//! verify-after-each mode on — over a sweep of conformance-generated
//! modules. A pass that emits a malformed module panics inside the
//! pass manager with the pass's name, attributing the bug precisely
//! instead of letting a later pass or executor trip over it.
//!
//! Every function's def-use chains are checked against its operands
//! after each pass too (`Function::check_uses`), declarations included,
//! so a use-list bug in one of `Function`'s mutators is caught at the
//! pass that triggered it.
//!
//! Semantic preservation per pass is covered by the conformance
//! harness's `pass:<name>` oracle stages; this suite is the cheaper,
//! wider structural sweep.

use llva_conform::gen::{generate, GenConfig};

/// Runs every distinct pipeline pass individually over `seeds`.
fn sweep(seeds: std::ops::Range<u64>, cfg: &GenConfig) {
    for seed in seeds {
        let tc = generate(seed, cfg);
        for pass in llva_opt::standard_pass_list() {
            run_one(pass, &tc.module, seed);
        }
        for pass in llva_opt::link_time_pass_list(&[&tc.entry]) {
            run_one(pass, &tc.module, seed);
        }
    }
}

fn run_one(pass: Box<dyn llva_opt::ModulePass>, module: &llva_core::module::Module, seed: u64) {
    let name = pass.name();
    let mut pm = llva_opt::PassManager::new();
    pm.add_boxed(pass);
    pm.verify_after_each(true);
    let mut m = module.clone();
    pm.run(&mut m); // panics with the pass name if verification fails
    llva_core::verifier::verify_module(&m)
        .unwrap_or_else(|e| panic!("seed {seed}: pass '{name}' left a malformed module: {e}"));
    for (_, func) in m.functions() {
        let fname = func.name();
        func.check_uses().unwrap_or_else(|e| {
            panic!("seed {seed}: '{name}' desynchronised {fname}'s use lists: {e}")
        });
    }
}

#[test]
fn every_pipeline_pass_preserves_validity() {
    sweep(0..32, &GenConfig::default());
}

#[test]
fn every_pipeline_pass_preserves_validity_on_deep_modules() {
    let cfg = GenConfig {
        max_steps: 48,
        ..GenConfig::default()
    };
    sweep(1000..1012, &cfg);
}

#[test]
fn pipelines_report_their_pass_lists() {
    let std_names: Vec<&str> = llva_opt::standard_pass_list().iter().map(|p| p.name()).collect();
    assert_eq!(llva_opt::standard_pipeline().pass_names(), std_names);
    let lt_names: Vec<&str> = llva_opt::link_time_pass_list(&["main"])
        .iter()
        .map(|p| p.name())
        .collect();
    assert_eq!(llva_opt::link_time_pipeline(&["main"]).pass_names(), lt_names);
    // the pipelines are not trivially identical
    assert_ne!(std_names, lt_names);
    assert!(std_names.contains(&"mem2reg"));
    assert!(lt_names.contains(&"inline"));
}
