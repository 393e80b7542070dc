//! The command-line compiler: `llva-cc --target` accepts every target
//! the simulated processors implement.

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
