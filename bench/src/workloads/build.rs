//! `build`: one program from source to shipped bytecode.

use super::{compile_table2, hash_of, Layers, Oracle, Round, Workload};
use crate::inputs;
use crate::trace::Tracer;
use llva_core::bytecode::{decode_module, encode_module};
use llva_core::layout::TargetConfig;
use llva_core::module::Module;
use llva_core::verifier::verify_module;
use llva_engine::FastInterpreter;
use std::time::Instant;

enum Input {
    /// A Table 2 program: enters at the front end.
    Source(&'static str),
    /// A generated module: enters at the optimizer.
    Module(Box<Module>),
}

struct Program {
    name: String,
    input: Input,
    entry: String,
    args: Vec<u64>,
    /// The structural interpreter's answer on the unoptimised module.
    expect: u64,
    /// The set-up build's bytes, which computed `expect` when executed.
    ref_bytes: Vec<u8>,
}

impl Program {
    /// True when `bytes` compute the reference answer. Each distinct
    /// byte string a program builds to is executed once per run.
    fn built_right(&self, bytes: &[u8], oracle: &mut Oracle) -> bool {
        oracle.passes(hash_of(&[self.name.as_bytes(), bytes].concat()), || {
            self.computes_expected(bytes)
        })
    }

    /// Runs shipped bytecode and compares its answer with the reference.
    fn computes_expected(&self, bytes: &[u8]) -> bool {
        decode_module(bytes).is_ok_and(|module| {
            FastInterpreter::new(&module)
                .run(&self.entry, &self.args)
                .ok()
                == Some(self.expect)
        })
    }
}

pub struct Build {
    programs: Vec<Program>,
    /// Generated modules are consumed by the optimizer, so each round
    /// gets fresh copies, made outside the timed region.
    staged: Vec<Option<Module>>,
    built: Vec<Vec<u8>>,
    /// Programs of the last round whose bytes differ from the set-up
    /// build — the link-time pipeline orders some instructions by hash
    /// iteration, so equal-sized, equivalent outputs differ in bytes.
    unstable: usize,
    op_spans: Vec<u32>,
}

/// The operation: front end (Table 2 only), link-time pipeline,
/// verifier, encoder.
fn build_one(p: &Program, staged: Option<Module>, t: &mut Tracer, op: u32) -> Vec<u8> {
    let mut module = match (&p.input, staged) {
        (Input::Source(src), _) => t
            .scope("minic.compile", op, || {
                llva_minic::compile(src, &p.name, TargetConfig::default())
            })
            .unwrap_or_else(|e| panic!("{} does not compile: {e}", p.name)),
        (Input::Module(_), Some(m)) => m,
        (Input::Module(_), None) => unreachable!("generated module was not staged"),
    };
    t.scope("opt.pipeline", op, || {
        llva_opt::link_time_pipeline(&[&p.entry]).run(&mut module)
    });
    t.scope("core.verifier.verify", op, || verify_module(&module))
        .unwrap_or_else(|e| panic!("{} does not verify after optimisation: {e}", p.name));
    t.scope("core.bytecode.encode", op, || encode_module(&module))
}

impl Build {
    pub fn set_up(seed: u64, oracle: &mut Oracle) -> Build {
        let mut programs = Vec::new();
        for w in llva_workloads::all() {
            programs.push(Program {
                name: w.name.to_string(),
                input: Input::Source(w.source),
                entry: "main".to_string(),
                args: Vec::new(),
                expect: oracle.reference(&compile_table2(&w), "main", &[]).0,
                ref_bytes: Vec::new(),
            });
        }
        for case in oracle.uncharged(|| inputs::generated_modules(seed)) {
            programs.push(Program {
                name: case.module.name().to_string(),
                expect: oracle.reference(&case.module, &case.entry, &case.args).0,
                input: Input::Module(Box::new(case.module)),
                entry: case.entry,
                args: case.args,
                ref_bytes: Vec::new(),
            });
        }
        let mut build = Build {
            staged: Vec::new(),
            built: Vec::new(),
            unstable: 0,
            op_spans: Vec::new(),
            programs,
        };
        // the first build is the reference: it must compute the
        // reference answers; the second is the determinism guard, and
        // must at least reproduce the first one's sizes
        let mut off = Tracer::new(false);
        build.round(&mut off);
        for (p, bytes) in build.programs.iter_mut().zip(&build.built) {
            assert!(
                p.built_right(bytes, oracle),
                "{}: the optimised program disagrees with the reference",
                p.name
            );
            p.ref_bytes.clone_from(bytes);
        }
        build.round(&mut off);
        assert_eq!(
            build.check(oracle),
            0,
            "an optimised program disagrees with the reference"
        );
        for (p, bytes) in build.programs.iter().zip(&build.built) {
            assert_eq!(
                p.ref_bytes.len(),
                bytes.len(),
                "{}: two builds differ in size",
                p.name
            );
        }
        build
    }
}

impl Workload for Build {
    fn round(&mut self, t: &mut Tracer) -> Round {
        self.staged = self
            .programs
            .iter()
            .map(|p| match &p.input {
                Input::Module(m) => Some(Module::clone(m)),
                Input::Source(_) => None,
            })
            .collect();
        self.built.clear();
        self.op_spans.clear();
        let mut op_ns = Vec::with_capacity(self.programs.len());
        let start = Instant::now();
        for (p, staged) in self.programs.iter().zip(self.staged.drain(..)) {
            let t0 = Instant::now();
            let op = t.begin_op("op");
            let bytes = build_one(p, staged, t, op);
            t.end(op);
            op_ns.push(t0.elapsed().as_nanos() as u64);
            self.built.push(bytes);
            self.op_spans.push(op);
        }
        Round {
            op_ns,
            wall_ns: start.elapsed().as_nanos() as u64,
        }
    }

    /// Bytes equal to a build already executed are good; new bytes are
    /// executed, and are good if they compute the reference answer.
    fn check(&mut self, oracle: &mut Oracle) -> usize {
        let mut failed = 0;
        self.unstable = 0;
        for (p, bytes) in self.programs.iter().zip(&self.built) {
            if p.ref_bytes != *bytes {
                self.unstable += 1;
                failed += usize::from(!p.built_right(bytes, oracle));
            }
        }
        failed
    }

    /// The Table 2 programs only: a generated module's size is a
    /// property of the seed, not of the compiler.
    fn bytecode_bytes(&self) -> u64 {
        self.programs
            .iter()
            .filter(|p| matches!(p.input, Input::Source(_)))
            .map(|p| p.ref_bytes.len() as u64)
            .sum()
    }

    fn probe(&mut self, t: &mut Tracer, layers: &mut Layers) {
        let (mut minic_insts, mut opt_insts, mut changed) = (0usize, 0usize, 0usize);
        for ((p, bytes), &op) in self.programs.iter().zip(&self.built).zip(&self.op_spans) {
            // the front end's two phases, under the live compile
            let mut module = match &p.input {
                Input::Source(src) => {
                    let under = t.child(op, "minic.compile");
                    let program = t
                        .scope("minic.parse", under, || llva_minic::parse(src))
                        .expect("parses");
                    let module = t
                        .scope("minic.codegen", under, || {
                            llva_minic::compile_program(&program, &p.name, TargetConfig::default())
                        })
                        .expect("compiles");
                    minic_insts += module.total_insts();
                    module
                }
                Input::Module(m) => Module::clone(m),
            };
            // each pass of the pipeline alone through a pass manager,
            // under the live pipeline run; repeated passes sum
            let under = t.child(op, "opt.pipeline");
            for pass in llva_opt::link_time_pass_list(&[&p.entry]) {
                let name = pass_span(pass.name());
                let mut pm = llva_opt::PassManager::new();
                pm.add_boxed(pass);
                let stats = t.scope(name, under, || pm.run(&mut module));
                changed += stats.iter().filter(|s| s.changed).count();
            }
            opt_insts += module.total_insts();
            // the other directions of the codecs, on the shipped bytes
            let decoded = t
                .scope("core.bytecode.decode", 0, || decode_module(bytes))
                .expect("decodes");
            let text = t.scope("core.printer.print", 0, || {
                llva_core::printer::print_module(&decoded)
            });
            t.scope("core.parser.parse", 0, || {
                llva_core::parser::parse_module(&text)
            })
            .expect("printed module parses");
        }
        layers.insert("minic.insts_out", minic_insts as f64);
        layers.insert("opt.insts_out", opt_insts as f64);
        layers.insert("opt.passes_changed", changed as f64);
        layers.insert("opt.unstable_outputs", self.unstable as f64);
    }
}

/// The span a pass's time is recorded under.
fn pass_span(pass: &str) -> &'static str {
    match pass {
        "internalize" => "opt.internalize",
        "inline" => "opt.inline",
        "globaldce" => "opt.globaldce",
        "mem2reg" => "opt.mem2reg",
        "constfold" => "opt.constfold",
        "licm" => "opt.licm",
        "gvn" => "opt.gvn",
        "loadelim" => "opt.load_elim",
        "dce" => "opt.dce",
        "simplifycfg" => "opt.simplify_cfg",
        other => panic!("the link-time pipeline has a pass this benchmark does not list: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bytecode_bytes` is defined as seed-independent: it sums the
    /// fixed programs only, whatever modules the seed generates.
    #[test]
    fn bytecode_bytes_is_the_same_for_every_seed() {
        let mut oracle = Oracle::default();
        let first = Build::set_up(1, &mut oracle);
        let second = Build::set_up(2, &mut oracle);
        assert_eq!(first.bytecode_bytes(), second.bytecode_bytes());
        let generated = |b: &Build| -> Vec<String> {
            b.programs[17..].iter().map(|p| p.name.clone()).collect()
        };
        assert_ne!(
            generated(&first),
            generated(&second),
            "the seed must change the generated modules"
        );
    }
}
