//! The command-line tools: `llva-cc --target` accepts every target
//! the simulated processors implement, and `llva-run` runs only what
//! verifies.

use llva::core::bytecode::decode_module;
use llva::core::layout::TargetConfig;
use llva::engine::llee::{ExecutionManager, TargetIsa};
use std::path::PathBuf;
use std::process::Command;

const SOURCE: &str = "int main() { int s = 0; for (int i = 1; i <= 10; i++) s += i; return s; }";

fn tmp_file(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli");
    std::fs::create_dir_all(&dir).expect("creates the test directory");
    dir.join(name)
}

#[test]
fn llva_cc_compiles_for_riscv64() {
    let src = tmp_file("sum.c");
    let out = tmp_file("sum.riscv64.bc");
    std::fs::write(&src, SOURCE).expect("writes the source");
    let status = Command::new(env!("CARGO_BIN_EXE_llva-cc"))
        .arg(&src)
        .args(["--target", "riscv64", "-o"])
        .arg(&out)
        .status()
        .expect("runs llva-cc");
    assert!(status.success(), "llva-cc exited with {status}");
    let module = decode_module(&std::fs::read(&out).expect("reads the object code"))
        .expect("the object code decodes");
    assert_eq!(module.target(), TargetConfig::riscv64());
    let run = ExecutionManager::new(module, TargetIsa::Riscv)
        .run("main", &[])
        .expect("runs on the RISC-V processor");
    assert_eq!(run.value, 55);
}

#[test]
fn llva_cc_names_every_target_when_one_is_unknown() {
    let output = Command::new(env!("CARGO_BIN_EXE_llva-cc"))
        .args(["in.c", "--target", "mips"])
        .output()
        .expect("runs llva-cc");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("ia32|sparcv9|riscv64"), "{stderr}");
}

/// Runs `text` through `llva-run` as text, as bytecode encoded without
/// verifying and as a module image, on every executor: each run must
/// exit 1 with the verifier's `message` (a panic exits 101).
fn assert_refused(name: &str, text: &str, message: &str) {
    let module = llva::core::parser::parse_module(text).expect("parses");
    let ll = tmp_file(&format!("{name}.ll"));
    let bc = tmp_file(&format!("{name}.bc"));
    let img = tmp_file(&format!("{name}.llvi"));
    std::fs::write(&ll, text).expect("writes the text");
    std::fs::write(&bc, llva::core::bytecode::encode_module(&module)).expect("writes the bytecode");
    llva::engine::write_image_file(&img, &llva::engine::ImageBuilder::new(&module).finish())
        .expect("writes the image");
    for isa in ["x86", "sparc", "riscv", "interp"] {
        for args in [
            vec![ll.as_os_str()],
            vec![bc.as_os_str()],
            vec!["--image".as_ref(), img.as_os_str()],
        ] {
            let output = Command::new(env!("CARGO_BIN_EXE_llva-run"))
                .args(&args)
                .args(["--isa", isa])
                .output()
                .expect("runs llva-run");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(1), "{args:?} on {isa}: {stderr}");
            assert!(stderr.contains(message), "{args:?} on {isa}: {stderr}");
        }
    }
}

#[test]
fn llva_run_refuses_a_use_before_its_definition() {
    let text =
        "int %main() {\nentry:\n    %b = add int %a, 1\n    %a = add int 0, 0\n    ret int %b\n}\n";
    assert_refused("use-before-def", text, "does not dominate its use");
}

#[test]
fn llva_run_refuses_a_load_through_an_int() {
    // the forward reference hides `%p`'s type from the parser
    let text =
        "int %main() {\nentry:\n    br label %def\nuse:\n    %v = load int* %p\n    ret int %v\n\
                def:\n    %p = add int 0, 64\n    br label %use\n}\n";
    assert_refused("load-through-int", text, "load requires a pointer operand");
}

#[test]
fn llva_run_refuses_a_block_with_no_terminator() {
    let text = "int %main() {\nentry:\n    %a = add int 1, 2\n}\n";
    assert_refused("no-terminator", text, "does not end in a terminator");
}
