//! Deterministic fuzzing of the persistent module image loader.
//!
//! Images are the most-trusted untrusted input in the system: a warm
//! load hands pre-decoded function records and pre-translated native
//! code straight to the execution engine, so a corrupt or truncated
//! artifact must never panic the parser, the section loaders, or the
//! warm-start execution paths — damage must surface as a typed
//! `ImageError` (or a per-section fallback), exactly like a rotten
//! cache entry in `decode_fuzz.rs`.
//!
//! The build environment has no crates.io access, so instead of a
//! fuzzing crate these loops use the same deterministic xorshift64*
//! generator as `proptest_core.rs`: every run explores the same case
//! set and a failing input is reproducible from the seed.

use llva::engine::llee::{ExecutionManager, TargetIsa};
use llva::engine::{FastInterpreter, Interpreter, LlvaImage, PreModule, SectionKind};
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

const SAMPLE: &str = r#"
@counter = global int 4

int %fib(int %n) {
entry:
    %c = setlt int %n, 2
    br bool %c, label %base, label %rec
base:
    ret int %n
rec:
    %n1 = sub int %n, 1
    %a = call int %fib(int %n1)
    %n2 = sub int %n, 2
    %b = call int %fib(int %n2)
    %s = add int %a, %b
    ret int %s
}

int %main() {
entry:
    %v = load int* @counter
    %r = call int %fib(int 10)
    %t = add int %r, %v
    ret int %t
}
"#;

fn sample_module() -> llva::core::module::Module {
    let m = llva::core::parser::parse_module(SAMPLE).expect("parses");
    llva::core::verifier::verify_module(&m).expect("verifies");
    m
}

/// A full image over the sample module: bytecode + predecode + one
/// native section, built through the offline translation path.
fn sample_image_bytes() -> Vec<u8> {
    let mut mgr = ExecutionManager::new(sample_module(), TargetIsa::X86);
    mgr.translate_all_parallel(0).expect("translates");
    mgr.build_image(true)
}

fn baseline_result() -> u64 {
    let module = sample_module();
    let mut interp = Interpreter::new(&module);
    interp.run("main", &[]).expect("baseline runs")
}

/// Drives every warm-load surface over an arbitrary byte string. The
/// property is totality: each step either succeeds or returns an
/// error; nothing may panic. Returns the executed result when the
/// whole warm pipeline survived.
fn exercise(bytes: &[u8]) -> Option<u64> {
    let image = Arc::new(LlvaImage::parse(bytes.to_vec()).ok()?);
    for kind in image.sections() {
        let _ = image.section_ok(kind);
    }
    let module = image.decode_module().ok()?;
    // native warm path: attach + lazy per-function probe during run
    let mut mgr = ExecutionManager::new(module.clone(), TargetIsa::X86);
    mgr.set_image(image.clone());
    let _ = mgr.run("main", &[]);
    // interpreter warm path: the lazy record loader, asked for every
    // defined function so that every record is decoded
    let pre = PreModule::new(&module);
    let _ = image.attach_loader(&pre);
    for (fid, f) in module.functions() {
        if !f.is_declaration() {
            pre.get(fid);
        }
    }
    let (pre, _) = image.premodule(&module).ok()?;
    let mut interp = FastInterpreter::with_predecoded(pre);
    interp.run("main", &[]).ok()
}

/// Every strict truncation of a valid image — which includes a cut at
/// every section boundary — is handled cleanly: the parser or a
/// section checksum rejects it, or (when only trailing sections are
/// lost) the survivors still execute to the oracle's answer. None may
/// panic.
#[test]
fn truncations_never_panic_any_loader() {
    let bytes = sample_image_bytes();
    let expect = baseline_result();
    assert_eq!(exercise(&bytes), Some(expect), "intact image runs");
    for cut in 0..bytes.len() {
        if let Some(got) = exercise(&bytes[..cut]) {
            assert_eq!(got, expect, "truncation to {cut} bytes diverged");
        }
    }
}

/// Seeded byte mutations over a corpus of clones: every mutated image
/// must parse-or-error without panicking, and any mutant that survives
/// the full warm pipeline (header, table, and section checksums all
/// pass) must still execute to the oracle's answer — a silent
/// semantic change would mean a checksum hole.
#[test]
fn seeded_mutations_never_panic_and_survivors_match_oracle() {
    let bytes = sample_image_bytes();
    let expect = baseline_result();
    let mut rng = Rng::new(0x1111_a6e5);
    for _ in 0..2000 {
        let mut corrupt = bytes.clone();
        // occasionally truncate, then mutate 1..=8 bytes
        if rng.usize(4) == 0 {
            corrupt.truncate(rng.usize(corrupt.len()));
        }
        if !corrupt.is_empty() {
            for _ in 0..1 + rng.usize(8) {
                let at = rng.usize(corrupt.len());
                corrupt[at] = rng.next() as u8;
            }
        }
        if let Some(got) = exercise(&corrupt) {
            assert_eq!(got, expect, "mutated image diverged from oracle");
        }
    }
}

/// Two flips of the same bit eight bytes apart — the same bit of two
/// adjacent words wherever the word grid falls — are caught at every
/// offset: the parse or some section's checksum fails. A word hash that
/// only multiplies never moves a difference in a word's top bit down, so
/// a second top-bit flip in a later word cancels the first.
#[test]
fn paired_top_bit_flips_are_caught_at_every_offset() {
    let intact = sample_image_bytes();
    for p in 0..intact.len() - 8 {
        let mut corrupt = intact.clone();
        corrupt[p] ^= 0x80;
        corrupt[p + 8] ^= 0x80;
        if let Ok(image) = LlvaImage::parse(corrupt) {
            assert!(
                image.sections().into_iter().any(|k| !image.section_ok(k)),
                "flips at {p} and {} passed every checksum",
                p + 8
            );
        }
    }
}

/// Bit flips confined to one section corrupt *only* that section: the
/// others stay loadable and `repair_image` rebuilds exactly the
/// damaged one (fault isolation, the per-section analogue of the
/// cache-entry quarantine path).
#[test]
fn single_section_flips_stay_isolated_and_repairable() {
    let intact = sample_image_bytes();
    let image = LlvaImage::parse(intact.clone()).expect("parses");
    let kinds = image.sections();
    let mut rng = Rng::new(0x5ec7_10f5);
    for (i, &kind) in kinds.iter().enumerate() {
        // find a byte inside this section by corrupting until exactly
        // this section reports damage (deterministic: seeded probes)
        let mut hit = false;
        for _ in 0..512 {
            let mut corrupt = intact.clone();
            let at = rng.usize(corrupt.len());
            corrupt[at] ^= 1 << rng.usize(8);
            let Ok(img) = LlvaImage::parse(corrupt.clone()) else {
                continue; // header/table damage: rejected wholesale
            };
            let bad: Vec<SectionKind> =
                kinds.iter().copied().filter(|&k| !img.section_ok(k)).collect();
            if bad != [kind] {
                continue;
            }
            hit = true;
            if kind == SectionKind::Bytecode {
                // the bytecode section is the source of truth the
                // other sections rebuild from; losing it is fatal
                assert!(llva::engine::repair_image(&corrupt).is_err());
                break;
            }
            let (repaired, rebuilt) =
                llva::engine::repair_image(&corrupt).expect("repairable");
            assert_eq!(rebuilt, vec![kind], "only the damaged section rebuilds");
            let fixed = LlvaImage::parse(repaired).expect("repaired image parses");
            assert!(fixed.sections().iter().all(|&k| fixed.section_ok(k)));
            break;
        }
        assert!(hit, "no probe landed in section {i} after 512 tries");
    }
}
