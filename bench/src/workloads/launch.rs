//! `launch-cold` and `launch-warm`: time to first result for the six
//! shortest Table 2 programs — from bytecode with nothing cached, and
//! from a module image file that already holds native code.

use super::{build_image, healthy, out_dir, ship, Layers, Oracle, Round, Shipped, Workload};
use crate::trace::Tracer;
use llva_backend::{compile_riscv, compile_sparc, compile_x86, spill_count};
use llva_core::bytecode::{decode_module, encode_module};
use llva_core::layout::TargetConfig;
use llva_core::module::Module;
use llva_core::verifier::verify_module;
use llva_engine::{
    read_image_file, write_image_file, ExecutionManager, LlvaImage, PreModule, SupervisedRun,
    Supervisor, SupervisorError, TargetIsa, DEFAULT_MEMORY_SIZE,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Shortest-running first; the paper's short-run case (Table 2
/// translate/run ratio ≥ 0.9 for bc, parser and vortex).
pub const SHORTEST: [&str; 6] = [
    "ptrdist-bc",
    "197.parser",
    "255.vortex",
    "ptrdist-yacr2",
    "186.crafty",
    "ptrdist-anagram",
];

struct Program {
    shipped: Shipped,
    bytes: Vec<u8>,
    /// Warm only: the image file written in set-up.
    image_path: PathBuf,
}

pub struct Launch {
    warm: bool,
    programs: Vec<Program>,
    /// The last round's answers; supervisors are kept so that dropping
    /// them stays outside the timed operations.
    answers: Vec<(Supervisor, Result<SupervisedRun, SupervisorError>, bool)>,
    op_spans: Vec<u32>,
}

impl Launch {
    pub fn set_up(warm: bool, oracle: &mut Oracle) -> Launch {
        let dir = out_dir().join(format!("images-{}", std::process::id()));
        if warm {
            std::fs::create_dir_all(&dir).expect("image directory");
        }
        let programs = ship(&SHORTEST, oracle)
            .into_iter()
            .map(|shipped| {
                let bytes = encode_module(&shipped.module);
                let image_path = dir.join(format!("{}.llvi", shipped.name));
                if warm {
                    write_image_file(&image_path, &build_image(&shipped.module))
                        .expect("image file written");
                }
                Program {
                    shipped,
                    bytes,
                    image_path,
                }
            })
            .collect();
        Launch {
            warm,
            programs,
            answers: Vec::new(),
            op_spans: Vec::new(),
        }
    }
}

fn launch_cold(
    p: &Program,
    t: &mut Tracer,
    op: u32,
) -> (Supervisor, Result<SupervisedRun, SupervisorError>, bool) {
    let module = t
        .scope("core.bytecode.decode", op, || decode_module(&p.bytes))
        .expect("shipped bytecode decodes");
    t.scope("core.verifier.verify", op, || verify_module(&module))
        .expect("shipped bytecode verifies");
    let mut sup = t.scope("engine.supervisor.new", op, || {
        Supervisor::new(module, TargetIsa::X86)
    });
    let run = t.scope("engine.supervisor.overhead", op, || sup.run("main", &[]));
    (sup, run, true)
}

fn open_image(path: &std::path::Path) -> LlvaImage {
    #[cfg(unix)]
    if let Ok(image) = llva_engine::map_image_file(path, 0) {
        return image;
    }
    read_image_file(path).expect("image file written in set-up reads back")
}

fn launch_warm(
    p: &Program,
    t: &mut Tracer,
    op: u32,
) -> (Supervisor, Result<SupervisedRun, SupervisorError>, bool) {
    let image = t.scope("engine.image.map", op, || open_image(&p.image_path));
    let module = t
        .scope("engine.image.decode_module", op, || image.decode_module())
        .expect("image holds its module");
    let mut sup = t.scope("engine.supervisor.new", op, || {
        Supervisor::new(module, TargetIsa::X86)
    });
    let attached = t.scope("engine.supervisor.set_image", op, || {
        sup.set_image(Arc::new(image))
    });
    let run = t.scope("engine.supervisor.overhead", op, || sup.run("main", &[]));
    (sup, run, attached)
}

impl Workload for Launch {
    fn round(&mut self, t: &mut Tracer) -> Round {
        self.answers.clear();
        self.op_spans.clear();
        let mut op_ns = Vec::with_capacity(self.programs.len());
        let start = Instant::now();
        for p in &self.programs {
            let t0 = Instant::now();
            let op = t.begin_op("op");
            let answer = if self.warm {
                launch_warm(p, t, op)
            } else {
                launch_cold(p, t, op)
            };
            t.end(op);
            op_ns.push(t0.elapsed().as_nanos() as u64);
            self.answers.push(answer);
            self.op_spans.push(op);
        }
        Round {
            op_ns,
            wall_ns: start.elapsed().as_nanos() as u64,
        }
    }

    fn check(&mut self, _: &mut Oracle) -> usize {
        self.programs
            .iter()
            .zip(&self.answers)
            .filter(|(p, (_, run, attached))| !(*attached && healthy(run, p.shipped.expect)))
            .count()
    }

    fn bytecode_bytes(&self) -> u64 {
        self.programs.iter().map(|p| p.bytes.len() as u64).sum()
    }

    fn probe(&mut self, t: &mut Tracer, layers: &mut Layers) {
        let mut image_hits = 0usize;
        let mut image_functions = 0usize;
        for (p, &op) in self.programs.iter().zip(&self.op_spans) {
            let module = &p.shipped.module;
            let under = t.child(op, "engine.supervisor.overhead");
            if self.warm {
                let image = Arc::new(open_image(&p.image_path));
                let module = image.decode_module().expect("image holds its module");
                let stats = probe_supervisor_run(t, under, &module, Some(&image));
                image_hits += stats.image_hits;
                image_functions += module
                    .functions()
                    .filter(|(_, f)| !f.is_declaration())
                    .count();
                probe_image(t, layers, &module, &image, &p.image_path);
            } else {
                probe_supervisor_run(t, under, module, None);
                probe_backends(t, layers, module);
                t.scope("engine.predecode.decode", 0, || {
                    PreModule::new(module).decode_all()
                });
            }
        }
        if self.warm {
            layers.insert(
                "engine.llee.image_hit_ratio",
                image_hits as f64 / image_functions as f64,
            );
        }
    }

    fn finish(self: Box<Self>) {
        if let Some(dir) = self
            .programs
            .first()
            .and_then(|p| p.image_path.parent())
            .filter(|_| self.warm)
        {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Replays what `Supervisor::run` does inside its translated rung, as
/// children of the live span `under`: a fresh execution manager (module
/// clone + 16 MiB memory), the image attach when there is one, every
/// function's translation (or installation from the image), then the
/// run itself on the simulator. What is left of the live span is the
/// supervisor's own overhead.
pub fn probe_supervisor_run(
    t: &mut Tracer,
    under: u32,
    module: &Module,
    image: Option<&Arc<LlvaImage>>,
) -> llva_engine::TranslationStats {
    let mut mgr = t.scope("engine.llee.new", under, || {
        ExecutionManager::with_memory_size(module.clone(), TargetIsa::X86, DEFAULT_MEMORY_SIZE)
    });
    let translate = match image {
        Some(image) => {
            t.scope("engine.image.attach_native", under, || {
                mgr.set_image(image.clone())
            });
            "engine.image.install_native"
        }
        None => "engine.llee.translate",
    };
    t.scope(translate, under, || mgr.translate_all())
        .expect("translates");
    t.scope("machine.x86.exec", under, || mgr.run("main", &[]))
        .expect("runs on the simulator");
    mgr.stats()
}

/// The three code generators over every function of `module`, outside
/// LLEE: translation time, instructions emitted, x86 spill traffic.
pub fn probe_backends(t: &mut Tracer, layers: &mut Layers, module: &Module) {
    let mut m = module.clone();
    let fids: Vec<_> = m
        .functions()
        .filter(|(_, f)| !f.is_declaration())
        .map(|(fid, _)| fid)
        .collect();
    m.set_target(TargetConfig::ia32());
    let x86 = t.scope("backend.x86.translate", 0, || {
        fids.iter().map(|&f| compile_x86(&m, f)).collect::<Vec<_>>()
    });
    *layers.entry("backend.x86.insts").or_default() +=
        x86.iter().map(Vec::len).sum::<usize>() as f64;
    *layers.entry("backend.x86.spills").or_default() +=
        x86.iter().map(|c| spill_count(c)).sum::<usize>() as f64;
    m.set_target(TargetConfig::sparc_v9());
    let sparc = t.scope("backend.sparc.translate", 0, || {
        fids.iter()
            .map(|&f| compile_sparc(&m, f).len())
            .sum::<usize>()
    });
    *layers.entry("backend.sparc.insts").or_default() += sparc as f64;
    m.set_target(TargetConfig::riscv64());
    let riscv = t.scope("backend.riscv.translate", 0, || {
        fids.iter()
            .map(|&f| compile_riscv(&m, f).len())
            .sum::<usize>()
    });
    *layers.entry("backend.riscv.insts").or_default() += riscv as f64;
}

/// The image's write side and its pre-decode attach.
fn probe_image(
    t: &mut Tracer,
    layers: &mut Layers,
    module: &Module,
    image: &Arc<LlvaImage>,
    path: &std::path::Path,
) {
    let mut mgr = ExecutionManager::new(module.clone(), TargetIsa::X86);
    mgr.translate_all().expect("translates");
    let scratch = path.with_extension("probe");
    let bytes = t.scope("engine.image.emit", 0, || {
        let bytes = mgr.build_image(true);
        write_image_file(&scratch, &bytes).expect("probe image written");
        bytes
    });
    let _ = std::fs::remove_file(&scratch);
    *layers.entry("engine.image.bytes").or_default() += bytes.len() as f64;
    t.scope("engine.image.attach_predecode", 0, || {
        image.premodule(module).map(|(_, n)| n)
    })
    .expect("image pre-decode section attaches");
}
