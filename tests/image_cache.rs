//! The image as a code store over the Table 2 workloads (CI's
//! `image-cache` job).
//!
//! One store: on every ISA, an image's native section holds byte for
//! byte what the storage cache holds for each function, and a warm
//! manager installs every function from it.
//!
//! Recovery: for every workload, build a full persistent image
//! (bytecode + predecode + x86 native), corrupt one derived section
//! with a flip chosen deterministically from `LLVA_FAULT_SEED`, and
//! check the §4.1 offline-cache story end to end — `repair_image`
//! rebuilds exactly the damaged section, and both warm-start paths
//! (lazy pre-decode loader, lazy native probe) still execute to the
//! structural interpreter's answer.

use llva::engine::llee::{ExecutionManager, TargetIsa};
use llva::engine::storage::{DirStorage, Storage};
use llva::engine::{FastInterpreter, ImageBuilder, Interpreter, LlvaImage, PreModule, SectionKind};
use std::sync::Arc;

/// Deterministic xorshift64* PRNG (no external deps).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn usize(&mut self, hi: usize) -> usize {
        (self.next() % hi as u64) as usize
    }
}

fn fault_seeds() -> Vec<u64> {
    match std::env::var("LLVA_FAULT_SEED") {
        Ok(s) => s
            .split(',')
            .filter_map(|t| t.trim().parse().ok())
            .collect(),
        Err(_) => vec![1, 7, 0x00de_cade],
    }
}

/// Flips seeded bits until exactly one *derived* section (predecode or
/// native — the ones `repair_image` can rebuild from the bytecode)
/// reports checksum damage, and returns that corrupted image.
fn corrupt_one_derived_section(intact: &[u8], seed: u64) -> (Vec<u8>, SectionKind) {
    let mut rng = Rng::new(seed);
    for _ in 0..4096 {
        let mut corrupt = intact.to_vec();
        let at = rng.usize(corrupt.len());
        corrupt[at] ^= 1 << rng.usize(8);
        let Ok(img) = LlvaImage::parse(corrupt.clone()) else {
            continue; // header/table damage: rejected wholesale
        };
        let bad: Vec<SectionKind> = img
            .sections()
            .into_iter()
            .filter(|&k| !img.section_ok(k))
            .collect();
        match bad[..] {
            [k] if k != SectionKind::Bytecode => return (corrupt, k),
            _ => continue,
        }
    }
    panic!("no seeded flip landed in a derived section (seed {seed})");
}

#[test]
fn corrupted_workload_images_recover_by_partial_rebuild() {
    for w in llva_workloads::all() {
        let module = w.compile(llva::core::layout::TargetConfig::default());
        let oracle = Interpreter::new(&module)
            .run("main", &[])
            .unwrap_or_else(|e| panic!("{}: oracle run failed: {e}", w.name));

        let mut mgr = ExecutionManager::new(module.clone(), TargetIsa::X86);
        mgr.translate_all_parallel(0)
            .unwrap_or_else(|e| panic!("{}: translation failed: {e}", w.name));
        let intact = mgr.build_image(true);
        let stamp = LlvaImage::parse(intact.clone()).expect("parses").stamp();

        for seed in fault_seeds() {
            let (corrupt, damaged) = corrupt_one_derived_section(&intact, seed);
            let (repaired, rebuilt) = llva::engine::repair_image(&corrupt)
                .unwrap_or_else(|e| panic!("{}: unrepairable: {e}", w.name));
            assert_eq!(
                rebuilt,
                vec![damaged],
                "{}: rebuild must touch only the damaged section",
                w.name
            );

            let image = Arc::new(LlvaImage::parse(repaired).expect("repaired parses"));
            assert_eq!(image.stamp(), stamp, "{}: stamp drifted", w.name);
            assert!(
                image.sections().iter().all(|&k| image.section_ok(k)),
                "{}: repaired image still damaged",
                w.name
            );

            // interpreter warm path: lazy loader, no SSA re-lowering
            let (pre, covered) = image.premodule(&module).expect("premodule");
            assert!(covered > 0, "{}: nothing warm-loaded", w.name);
            let mut interp = FastInterpreter::with_predecoded(pre);
            let got = interp
                .run("main", &[])
                .unwrap_or_else(|e| panic!("{}: warm interp failed: {e}", w.name));
            assert_eq!(got, oracle, "{}: warm interp diverged", w.name);

            // native warm path: per-function image probe, no JIT
            let mut warm = ExecutionManager::new(module.clone(), TargetIsa::X86);
            warm.set_image(image.clone());
            let out = warm
                .run("main", &[])
                .unwrap_or_else(|e| panic!("{}: warm native failed: {e}", w.name));
            assert_eq!(out.value, oracle, "{}: warm native diverged", w.name);
            let t = warm.stats();
            assert!(t.image_hits > 0, "{}: native probe never hit", w.name);
            assert_eq!(
                t.image_corrupt, 0,
                "{}: repaired image reported corruption",
                w.name
            );
        }
    }
}

/// Every native entry of an image is the cache-entry frame and
/// timestamp a storage-backed manager wrote for the same function in a
/// cold `translate_all`: the image rebuilt from those storage entries is
/// the image itself, byte for byte. A manager attaching it to the
/// module decoded from it installs every function from the image.
#[test]
fn image_native_entries_are_the_storage_entries() {
    let root = std::env::temp_dir().join(format!("llva-image-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let workloads = llva_workloads::all();
    assert_eq!(workloads.len(), 17, "the Table 2 workloads");
    for w in workloads {
        let module = w.compile(llva::core::layout::TargetConfig::default());
        for isa in TargetIsa::ALL {
            let storage = DirStorage::new(&root);
            let mut cold = ExecutionManager::new(module.clone(), isa);
            cold.set_storage(Box::new(storage.clone()), w.name);
            cold.translate_all().expect("translates");
            let defined: Vec<u32> = cold
                .module()
                .functions()
                .filter(|(_, f)| !f.is_declaration())
                .map(|(fid, _)| fid.index() as u32)
                .collect();
            assert_eq!(
                cold.stats().functions_translated,
                defined.len(),
                "{} {isa}",
                w.name
            );

            let mut warm = ExecutionManager::new(module.clone(), isa);
            warm.translate_all_parallel(0).expect("translates");
            let image = warm.build_image(true);

            let stored: Vec<(u32, u64, Vec<u8>)> = defined
                .iter()
                .map(|&f| {
                    let (framed, ts) = storage
                        .read(w.name, &cold.cache_key(f))
                        .unwrap_or_else(|| panic!("{} {isa}: fn{f} was written back", w.name));
                    (f, ts, framed)
                })
                .collect();
            let mut from_storage = ImageBuilder::new(warm.module());
            let pre = PreModule::new(warm.module());
            pre.decode_all();
            from_storage.add_predecode(&pre);
            from_storage.add_native(isa, &stored);
            assert!(
                from_storage.finish() == image,
                "{} {isa}: the image's native entries are not the storage entries",
                w.name
            );

            let image = Arc::new(LlvaImage::parse(image).expect("parses"));
            let mut attached = ExecutionManager::new(image.decode_module().expect("decodes"), isa);
            assert_eq!(attached.set_image(image), defined.len(), "{} {isa}", w.name);
            attached.translate_all().expect("installs");
            let t = attached.stats();
            assert_eq!(
                (t.image_hits, t.functions_translated),
                (defined.len(), 0),
                "{} {isa}",
                w.name
            );
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
