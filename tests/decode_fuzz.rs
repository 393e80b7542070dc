//! Deterministic fuzzing of the untrusted-input decode paths.
//!
//! LLEE is system software: virtual object code arrives from disk or
//! from an OS-provided storage API, and a cached translation may have
//! rotted in place. No byte string — random, truncated, or bit-flipped
//! — may ever panic the decoder; malformed input must surface as a
//! typed `DecodeError` (ISSUE 2 acceptance criterion).
//!
//! The build environment has no crates.io access, so instead of a
//! fuzzing crate these loops are driven by the same deterministic
//! xorshift64* generator as `proptest_core.rs`: every run explores the
//! same case set, and a failing input is reproducible from the seed.

use llva::core::bytecode::{decode_module, encode_module};
use llva::core::layout::TargetConfig;
use llva::core::module::{FuncId, Module};
use llva::engine::llee::CACHE_ENTRY;
use llva::machine::codec::{decode, encode, Field};
use llva::machine::riscv::RiscvInst;
use llva::machine::sparc::SparcInst;
use llva::machine::x86::X86Inst;
use llva::machine::{Exit, Isa, Machine, Memory, Program, GLOBAL_BASE};
use std::fmt::Debug;

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

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

fn sample_module_bytes() -> Vec<u8> {
    let m = llva::core::parser::parse_module(
        r#"
%Pair = type { int, int }

@counter = global int 4
@msg = internal constant [3 x sbyte] c"hi\00"

void %touch(%Pair* %p) {
entry:
    %f = getelementptr %Pair* %p, long 0, ubyte 1
    %v = load int* %f
    store int %v, int* %f
    ret void
}

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
"#,
    )
    .expect("parses");
    llva::core::verifier::verify_module(&m).expect("verifies");
    encode_module(&m)
}

/// Random byte strings never panic the module decoder. Most are
/// rejected at the magic check; strings that start with the real
/// header exercise the deeper decode paths.
#[test]
fn random_bytes_never_panic_module_decode() {
    let mut rng = Rng::new(0x5eed_f00d);
    for case in 0..4000 {
        let len = rng.usize(256);
        let mut buf = rng.bytes(len);
        // Half the cases get a valid header spliced on so decoding
        // reaches types/globals/functions instead of dying at magic.
        if case % 2 == 0 {
            let header = [b'L', b'L', b'V', b'A', 1, 32, 0];
            for (i, b) in header.iter().enumerate() {
                if i < buf.len() {
                    buf[i] = *b;
                }
            }
        }
        let _ = decode_module(&buf); // must return, not panic
    }
}

/// Every strict truncation of a valid encoding is rejected (no prefix
/// of a well-formed module is itself well-formed), and none panics.
#[test]
fn truncations_of_valid_encoding_error_cleanly() {
    let bytes = sample_module_bytes();
    assert!(decode_module(&bytes).is_ok());
    for cut in 0..bytes.len() {
        assert!(
            decode_module(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes decoded successfully"
        );
    }
}

/// Single-bit flips of a valid encoding never panic. A flip may still
/// decode (e.g. it lands in a constant's payload) — the property under
/// test is absence of panics and allocation bombs, not rejection.
#[test]
fn bit_flips_of_valid_encoding_never_panic() {
    let bytes = sample_module_bytes();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[byte] ^= 1 << bit;
            let _ = decode_module(&corrupt);
        }
    }
}

/// Multi-byte corruption bursts (seeded) never panic.
#[test]
fn corruption_bursts_never_panic() {
    let bytes = sample_module_bytes();
    let mut rng = Rng::new(0xbad_cafe);
    for _ in 0..2000 {
        let mut corrupt = bytes.clone();
        let burst = 1 + rng.usize(8);
        for _ in 0..burst {
            let at = rng.usize(corrupt.len());
            corrupt[at] = rng.next() as u8;
        }
        let _ = decode_module(&corrupt);
    }
}

/// The native-code codecs (cached translation payloads) are equally
/// untrusted: random bytes and truncations must error, never panic —
/// for all three targets.
#[test]
fn native_codec_decode_never_panics() {
    let mut rng = Rng::new(0xc0de_c0de);
    for _ in 0..4000 {
        let len = rng.usize(192);
        let buf = rng.bytes(len);
        let _ = decode::<Vec<X86Inst>>(&buf);
        let _ = decode::<Vec<SparcInst>>(&buf);
        let _ = decode::<Vec<RiscvInst>>(&buf);
        let _ = CACHE_ENTRY.unframe(b"some.key", &buf);
    }
}

/// Mutation storm over the native-code codec of every ISA: start from
/// the *well-formed* encoding of a real translated function, then
/// truncate it and overwrite bytes. Corruptions near valid structure
/// reach deeper decoder states than random bytes (tags decode, then
/// operands and register fields go wrong). A blob the codec accepts
/// must re-encode to exactly its own bytes, and must run on its simulated
/// processor without panicking: a crafted cache entry can carry a
/// valid frame checksum, so decode is the last check before `exec`.
#[test]
fn native_codecs_survive_mutations_and_execution() {
    let src = r#"
int %grind(int %n) {
entry:
    %c = setle int %n, 1
    br bool %c, label %base, label %rec
base:
    ret int 1
rec:
    %n1 = sub int %n, 1
    %r = call int %grind(int %n1)
    %d = div int %r, 3
    %f = cast int %d to double
    %g = mul double %f, 2.5
    %h = cast double %g to int
    %m = mul int %h, %n
    ret int %m
}
"#;
    let module = llva::core::parser::parse_module(src).expect("parses");
    storm(&module, TargetConfig::ia32(), llva::backend::compile_x86, 0x86);
    storm(&module, TargetConfig::sparc_v9(), llva::backend::compile_sparc, 0x5a4c);
    storm(&module, TargetConfig::riscv64(), llva::backend::compile_riscv, 0x715c);
}

fn storm<I: Isa + Field + PartialEq + Debug>(
    module: &Module,
    cfg: TargetConfig,
    compile: fn(&Module, FuncId) -> Vec<I>,
    seed: u64,
) {
    let mut module = module.clone();
    module.set_target(cfg);
    let fid = *module.function_ids().first().expect("one function");
    let code = compile(&module, fid);
    let blob = encode(&code);
    assert_eq!(decode::<Vec<I>>(&blob).expect("own encoding decodes"), code);
    let mut rng = Rng::new(seed);
    let mut ran = 0;
    for _ in 0..4000 {
        let mut corrupt = blob.clone();
        // truncate, then mutate 1..=4 bytes
        if rng.usize(4) == 0 {
            corrupt.truncate(rng.usize(corrupt.len()));
        }
        if !corrupt.is_empty() {
            for _ in 0..1 + rng.usize(4) {
                let at = rng.usize(corrupt.len());
                corrupt[at] = rng.next() as u8;
            }
        }
        let Ok(decoded) = decode::<Vec<I>>(&corrupt) else {
            continue;
        };
        assert_eq!(encode(&decoded), corrupt, "every value has one encoding");
        run(decoded, cfg);
        ran += 1;
    }
    assert!(ran >= 100, "only {ran} mutants decoded: the storm must reach exec");
}

/// Runs `code` as function 0 of a one-global program with bounded fuel,
/// answering every intrinsic with 0.
fn run<I: Isa>(code: Vec<I>, cfg: TargetConfig) {
    let mut program = Program::new(1, vec![GLOBAL_BASE]);
    program.install(0, code);
    let mut machine = Machine::<I>::new(Memory::new(1 << 16, GLOBAL_BASE + 64, cfg.endianness));
    if machine.call_entry(0, &[5]).is_err() {
        return;
    }
    for _ in 0..8 {
        match machine.run(&program, 2000) {
            Exit::Intrinsic { .. } => machine.finish_intrinsic(0),
            _ => return,
        }
    }
}
