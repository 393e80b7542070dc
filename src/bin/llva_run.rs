//! `llva-run` — LLEE from the command line: execute virtual object code
//! (or assembly) on the reference interpreter or a simulated processor,
//! with optional offline caching through the storage API and persistent
//! module images for warm starts. A module that fails the verifier
//! (text, bytecode or an image's) is refused before anything runs.
//!
//! Usage:
//!   llva-run program.bc [args...]
//!       [--isa x86|sparc|riscv|interp] [--entry NAME]
//!       [--cache DIR]            # enable the offline storage API (§4.1)
//!       [--emit-image FILE]      # translate offline, write a module image
//!       [--image FILE]           # warm-load from a module image
//!       [--stats]

use llva::engine::llee::{ExecutionManager, TargetIsa};
use std::process::exit;

fn load(path: &str) -> llva::core::module::Module {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("llva-run: cannot read {path}: {e}");
        exit(1);
    });
    if bytes.starts_with(llva::core::bytecode::MAGIC) {
        llva::core::bytecode::decode_module(&bytes).unwrap_or_else(|e| {
            eprintln!("llva-run: {path}: {e}");
            exit(1);
        })
    } else {
        let src = String::from_utf8_lossy(&bytes);
        llva::core::parser::parse_module(&src).unwrap_or_else(|e| {
            eprintln!("llva-run: {path}: {e}");
            exit(1);
        })
    }
}

/// Reads a module image, repairing corrupt sections in place first
/// (quarantine + rebuild of only the damage; see `engine::image`).
fn load_image(path: &str) -> llva::engine::LlvaImage {
    let image = llva::engine::read_image_file(path).unwrap_or_else(|e| {
        eprintln!("llva-run: {path}: {e}");
        exit(1);
    });
    if image.sections().iter().all(|&k| image.section_ok(k)) {
        return image;
    }
    match llva::engine::repair_image_file(path) {
        Ok(report) => {
            let rebuilt: Vec<String> = report.rebuilt.iter().map(ToString::to_string).collect();
            eprintln!(
                "llva-run: {path}: repaired corrupt section(s) [{}] (original quarantined)",
                rebuilt.join(", ")
            );
        }
        Err(e) => {
            eprintln!("llva-run: {path}: unrepairable image: {e}");
            exit(1);
        }
    }
    llva::engine::read_image_file(path).unwrap_or_else(|e| {
        eprintln!("llva-run: {path}: {e}");
        exit(1);
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut isa = "x86".to_string();
    let mut entry = "main".to_string();
    let mut cache: Option<String> = None;
    let mut emit_image: Option<String> = None;
    let mut image_path: Option<String> = None;
    let mut stats = false;
    let mut prog_args: Vec<u64> = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--isa" => isa = it.next().cloned().unwrap_or_default(),
            "--entry" => entry = it.next().cloned().unwrap_or_default(),
            "--cache" => cache = it.next().cloned(),
            "--emit-image" => emit_image = it.next().cloned(),
            "--image" => image_path = it.next().cloned(),
            "--stats" => stats = true,
            "-h" | "--help" => {
                eprintln!(
                    "usage: llva-run program.bc [args...] [--isa x86|sparc|riscv|interp] \
                     [--entry NAME] [--cache DIR] [--emit-image FILE] [--image FILE] [--stats]"
                );
                exit(0);
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => prog_args.push(other.parse().unwrap_or_else(|_| {
                eprintln!("llva-run: program arguments must be integers, got '{other}'");
                exit(1);
            })),
        }
    }
    // a warm start needs no program file: the image is self-contained
    let (module, image) = match (&image_path, &path) {
        (Some(img), _) => {
            let image = load_image(img);
            let module = image.decode_module().unwrap_or_else(|e| {
                eprintln!("llva-run: {img}: {e}");
                exit(1);
            });
            (module, Some(std::sync::Arc::new(image)))
        }
        (None, Some(path)) => (load(path), None),
        (None, None) => {
            eprintln!("usage: llva-run program.bc [args...]  (or --image FILE)");
            exit(1);
        }
    };
    // the translators and interpreters trust the V-ISA's type rules and
    // SSA form, so nothing runs that breaks them
    if let Err(e) = llva::core::verifier::verify_module(&module) {
        let source = image_path
            .as_deref()
            .or(path.as_deref())
            .unwrap_or_default();
        eprint!("llva-run: {source}: {e}");
        exit(1);
    }

    if let Some(out) = emit_image {
        // offline image build (§4.1 translation during idle time):
        // bytecode + full pre-decode, plus native code unless interp
        let bytes = if isa == "interp" {
            let pre = llva::engine::PreModule::new(&module);
            pre.decode_all();
            let mut b = llva::engine::ImageBuilder::new(&module);
            b.add_predecode(&pre);
            b.finish()
        } else {
            let target = parse_isa(&isa);
            let mut mgr = ExecutionManager::new(module, target);
            if let Err(e) = mgr.translate_all_parallel(0) {
                eprintln!("llva-run: translation failed: {e}");
                exit(1);
            }
            mgr.build_image(true)
        };
        if let Err(e) = llva::engine::write_image_file(&out, &bytes) {
            eprintln!("llva-run: cannot write {out}: {e}");
            exit(1);
        }
        if stats {
            eprintln!("llva-run: wrote {} image bytes to {out}", bytes.len());
        }
        exit(0);
    }

    if isa == "interp" {
        // with an image: run from the deserialized pre-decode (no SSA
        // re-lowering); without: the structural reference interpreter
        if let Some(image) = &image {
            let (pre, covered) = image.premodule(&module).unwrap_or_else(|e| {
                eprintln!("llva-run: {e}");
                exit(1);
            });
            let mut interp = llva::engine::FastInterpreter::with_predecoded(pre);
            match interp.run(&entry, &prog_args) {
                Ok(v) => {
                    print!("{}", interp.env.stdout_string());
                    if stats {
                        eprintln!(
                            "llva-run: result={} ({} LLVA instructions executed, \
                             {covered} functions warm-loaded from image)",
                            v,
                            interp.insts_executed()
                        );
                    }
                    exit((v & 0xff) as i32);
                }
                Err(e) => {
                    print!("{}", interp.env.stdout_string());
                    eprintln!("llva-run: {e}");
                    exit(101);
                }
            }
        }
        let mut interp = llva::engine::Interpreter::new(&module);
        match interp.run(&entry, &prog_args) {
            Ok(v) => {
                print!("{}", interp.env.stdout_string());
                if stats {
                    eprintln!(
                        "llva-run: result={} ({} LLVA instructions executed)",
                        v,
                        interp.insts_executed()
                    );
                }
                exit((v & 0xff) as i32);
            }
            Err(e) => {
                print!("{}", interp.env.stdout_string());
                eprintln!("llva-run: {e}");
                exit(101);
            }
        }
    }

    let target = parse_isa(&isa);
    let mut mgr = ExecutionManager::new(module, target);
    if let Some(image) = &image {
        mgr.set_image(image.clone());
    }
    if let Some(dir) = cache {
        let name = image_path
            .as_deref()
            .or(path.as_deref())
            .map(|p| {
                std::path::Path::new(p)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| "program".into())
            })
            .unwrap_or_else(|| "program".into());
        mgr.set_storage(
            Box::new(llva::engine::storage::DirStorage::new(dir)),
            &name,
        );
    }
    match mgr.run(&entry, &prog_args) {
        Ok(out) => {
            print!("{}", mgr.env.stdout_string());
            if stats {
                let t = mgr.stats();
                eprintln!(
                    "llva-run: result={} | translated {} fns in {:?}, cache hits {}, image hits {} | \
                     {} native insts executed, {} simulated cycles",
                    out.value,
                    t.functions_translated,
                    t.translate_time,
                    t.cache_hits,
                    t.image_hits,
                    out.stats.instructions,
                    out.stats.cycles
                );
            }
            exit((out.value & 0xff) as i32);
        }
        Err(e) => {
            print!("{}", mgr.env.stdout_string());
            eprintln!("llva-run: {e}");
            exit(101);
        }
    }
}

fn parse_isa(isa: &str) -> TargetIsa {
    match isa {
        "x86" => TargetIsa::X86,
        "sparc" => TargetIsa::Sparc,
        "riscv" => TargetIsa::Riscv,
        other => {
            eprintln!("llva-run: unknown --isa '{other}' (x86|sparc|riscv|interp)");
            exit(1);
        }
    }
}
