//! One storm over every framed format LLEE and `llva-serve` store or
//! send: LLCE cache entries, LLVI module images and wire frames are all
//! frames of `machine::codec::Format`, so each must refuse the same
//! damage — every truncation, a trailing byte, every one- and two-bit
//! flip (header included) of a frame whose payload is at least 96 bytes,
//! and a frame written under another seed.
//!
//! LLCE and LLVI are also fed the bytes their earlier versions wrote
//! (LLCE version 1, LLVI versions 1 and 2): the result must be a miss or
//! an error, never a panic or a served entry (`proto.rs` and
//! `crates/serve/tests/server.rs` do the same for length-only wire
//! frames).

use llva::core::bytecode::encode_module;
use llva::core::module::Module;
use llva::engine::image::{ImageBuilder, LlvaImage, SectionKind, IMAGE_FORMAT};
use llva::engine::llee::{function_stamps, stamp, ExecutionManager, TargetIsa, CACHE_ENTRY};
use llva::engine::storage::{MemStorage, Storage, SyncStorage};
use llva::machine::codec::{encode, Field, Format};
use llva_serve::proto::{read_frame, Request, WIRE};

const MODULE: &str = r#"
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
    %r = call int %fib(int 10)
    ret int %r
}
"#;

fn module() -> Module {
    let m = llva::core::parser::parse_module(MODULE).expect("parses");
    llva::core::verifier::verify_module(&m).expect("verifies");
    m
}

/// Checks that `accepts` takes `frame` and refuses every truncation, a
/// trailing byte of every value, and every one- and two-bit flip.
/// Returns how many damaged copies it tried.
fn storm(what: &str, frame: &[u8], accepts: impl Fn(&[u8]) -> bool) -> usize {
    assert!(accepts(frame), "{what}: the intact frame is refused");
    for cut in 0..frame.len() {
        assert!(
            !accepts(&frame[..cut]),
            "{what}: truncation to {cut} bytes accepted"
        );
    }
    let mut longer = frame.to_vec();
    longer.push(0);
    for b in 0..=255 {
        *longer.last_mut().expect("a byte") = b;
        assert!(!accepts(&longer), "{what}: trailing byte {b} accepted");
    }
    let bits = frame.len() * 8;
    let mut mutant = frame.to_vec();
    let mut tried = frame.len() + 256;
    for i in 0..bits {
        mutant[i / 8] ^= 1 << (i % 8);
        assert!(!accepts(&mutant), "{what}: flip of bit {i} accepted");
        for j in i + 1..bits {
            mutant[j / 8] ^= 1 << (j % 8);
            assert!(
                !accepts(&mutant),
                "{what}: flips of bits {i} and {j} accepted"
            );
            mutant[j / 8] ^= 1 << (j % 8);
        }
        mutant[i / 8] ^= 1 << (i % 8);
        tried += bits - i;
    }
    tried
}

/// An image is accepted only when it parses and every section checks.
fn image_ok(bytes: &[u8]) -> bool {
    LlvaImage::parse(bytes.to_vec())
        .is_ok_and(|image| image.sections().into_iter().all(|k| image.section_ok(k)))
}

#[test]
fn every_format_refuses_every_truncation_trailing_byte_and_two_bit_flip() {
    let m = module();
    let fib = m.function_by_name("fib").expect("fib");
    let code = encode(&llva::backend::compile_x86(&m, fib));
    assert!(code.len() >= 96, "LLCE payload of {} bytes", code.len());
    let key = b"fib.x86.fn0";
    let entry = CACHE_ENTRY.frame(key, &code);
    let mut tried = storm("LLCE", &entry, |b| CACHE_ENTRY.unframe(key, b).is_ok());
    assert!(
        CACHE_ENTRY.unframe(b"fib.x86.fn1", &entry).is_err(),
        "LLCE under another key"
    );

    // the image of the bytecode alone: a header frame and one section
    let bytecode = encode_module(&m);
    assert!(
        bytecode.len() >= 96,
        "LLVI payload of {} bytes",
        bytecode.len()
    );
    let image = ImageBuilder::new(&m).finish();
    tried += storm("LLVI", &image, image_ok);
    // the bytecode's frame listed as the predecode section
    let mut relabelled =
        IMAGE_FORMAT.frame(&[], &encode(&(stamp(&m), vec![SectionKind::Predecode])));
    IMAGE_FORMAT.put(&encode(&SectionKind::Bytecode), &bytecode, &mut relabelled);
    let parsed = LlvaImage::parse(relabelled).expect("the frames walk");
    assert!(
        !parsed.section_ok(SectionKind::Predecode),
        "LLVI section under another kind"
    );

    // a load request carries the module text: well over 96 bytes
    let load = Request::Load {
        module: "m".into(),
        source: MODULE.into(),
    }
    .encode();
    let wire = WIRE.frame(&[], &load);
    // the stream must hold exactly one good frame and then end
    let one_frame = |mut b: &[u8]| {
        read_frame(&mut b).is_ok_and(|p| p.is_some()) && matches!(read_frame(&mut b), Ok(None))
    };
    tried += storm("wire", &wire, one_frame);
    assert!(
        !one_frame(&WIRE.frame(b"seed", &load)),
        "wire frame under a seed"
    );
    assert!(tried > 3_000_000, "only {tried} damaged frames");
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// FNV-1a byte by byte: the checksum of version 1 cache entries and of
/// the version 1 image header and section table.
fn fnv1a(bytes: &[u8], h: u64) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// FNV-1a over 8-byte words, tail bytes singly, with no fold: the
/// version 1 section checksum.
fn fnv1a_words(bytes: &[u8], mut h: u64) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8 bytes"))).wrapping_mul(FNV_PRIME);
    }
    fnv1a(words.remainder(), h)
}

/// A version 1 cache entry, stored where version 2 keeps its own and
/// stamped fresh, is a miss: the function is translated again, its
/// entry rewritten, and the run gives the right answer.
#[test]
fn version_1_cache_entries_are_misses() {
    let storage = SyncStorage::new(MemStorage::new());
    let mut mgr = ExecutionManager::new(module(), TargetIsa::X86);
    mgr.set_storage(Box::new(storage.clone()), "fib");
    let expect = mgr.run("main", &[]).expect("runs").value;
    assert_eq!(expect, 55);
    let fib = mgr.module().function_by_name("fib").expect("fib").index() as u32;
    let key = mgr.cache_key(fib);
    let (blob, ts) = storage.with(|s| s.read("fib", &key)).expect("written back");
    let code = CACHE_ENTRY
        .unframe(key.as_bytes(), &blob)
        .expect("a version 2 entry");
    // magic, version 1, length, then FNV-1a over the key and the payload
    let mut old = b"LLCE\x01".to_vec();
    old.extend_from_slice(&(code.len() as u32).to_le_bytes());
    old.extend_from_slice(&fnv1a(code, fnv1a(key.as_bytes(), FNV_OFFSET)).to_le_bytes());
    old.extend_from_slice(code);
    storage.with(|s| s.write("fib", &key, &old, ts));

    let mut mgr = ExecutionManager::new(module(), TargetIsa::X86);
    mgr.set_storage(Box::new(storage.clone()), "fib");
    assert_eq!(mgr.run("main", &[]).expect("runs").value, expect);
    let stats = mgr.stats();
    assert_eq!(
        stats.functions_translated, 1,
        "only fib is translated again"
    );
    assert_eq!(stats.cache_corrupt, 1, "the version 1 entry is refused");
    let (rewritten, _) = storage.with(|s| s.read("fib", &key)).expect("rewritten");
    assert!(CACHE_ENTRY.unframe(key.as_bytes(), &rewritten).is_ok());
}

/// A version 1 image — header, checksummed section table, payloads —
/// does not parse, from memory or from a file.
#[test]
fn version_1_images_are_refused() {
    let m = module();
    let bytecode = encode_module(&m);
    // magic, version 1, stamp, section count, then per section kind,
    // ISA, offset, length and a word-wise FNV seeded by the kind, then
    // FNV-1a over all of that, then the payloads
    let mut old = b"LLVI\x01".to_vec();
    old.extend_from_slice(&fnv1a(&bytecode, FNV_OFFSET).to_le_bytes());
    old.extend_from_slice(&1u32.to_le_bytes());
    let offset = old.len() + 18 + 8;
    old.extend_from_slice(&[1, 0]);
    old.extend_from_slice(&(offset as u32).to_le_bytes());
    old.extend_from_slice(&(bytecode.len() as u32).to_le_bytes());
    old.extend_from_slice(&fnv1a_words(&bytecode, fnv1a(&[1, 0], FNV_OFFSET)).to_le_bytes());
    old.extend_from_slice(&fnv1a(&old, FNV_OFFSET).to_le_bytes());
    old.extend_from_slice(&bytecode);
    assert_eq!(old.len(), offset + bytecode.len());

    refused("v1", &old);
}

/// `old` fails to parse, from memory or from a file, at its header.
fn refused(name: &str, old: &[u8]) {
    let err = LlvaImage::parse(old.to_vec()).expect_err("old version refused");
    let current = format!("LLVI v{} frame: header starts", IMAGE_FORMAT.version);
    assert!(err.to_string().contains(&current), "{err}");
    let dir = std::env::temp_dir().join(format!("llva-frames-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("old.llvi");
    std::fs::write(&path, old).expect("writes");
    assert!(llva::engine::read_image_file(&path).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A version 2 image — the same frames as today's, but each native
/// entry the bare encoded code rather than its cache-entry frame — does
/// not parse, from memory or from a file.
#[test]
fn version_2_images_are_refused() {
    const V2: Format = Format {
        magic: *b"LLVI",
        version: 2,
    };
    let mut m = module();
    m.set_target(TargetIsa::X86.target_config());
    let stamps = function_stamps(&m);
    // a header frame with the module stamp and the section kinds, then
    // the bytecode section and the x86 native section, each seeded by
    // its kind; a native entry is the function id, its stamp and the
    // counted code
    let kinds = vec![SectionKind::Bytecode, SectionKind::Native(TargetIsa::X86)];
    let mut old = V2.frame(&[], &encode(&(stamp(&m), kinds.clone())));
    V2.put(&encode(&kinds[0]), &encode_module(&m), &mut old);
    let mut native = (m.num_functions() as u32).to_le_bytes().to_vec();
    for fid in m.function_ids() {
        let code = encode(&llva::backend::compile_x86(&m, fid));
        (fid.index() as u32, stamps[fid.index()], code).put(&mut native);
    }
    V2.put(&encode(&kinds[1]), &native, &mut old);

    refused("v2", &old);
    // today's writer frames every native entry, so the image it builds
    // is longer by one frame header per function
    let mut mgr = ExecutionManager::new(module(), TargetIsa::X86);
    mgr.translate_all().expect("translates");
    let current = mgr.build_image(false);
    assert_eq!(current.len(), old.len() + 17 * m.num_functions());
    assert!(LlvaImage::parse(current).is_ok());
}
