//! `llva-cc` — compile minic (the C-like front-end language) to LLVA
//! virtual object code.
//!
//! Usage: `llva-cc input.c [-o output.bc] [--target ia32|sparcv9|riscv64]
//!         [--emit-asm] [-O]`

use std::process::exit;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut input = None;
    let mut output = None;
    let mut target = llva::core::layout::TargetConfig::default();
    let mut emit_asm = false;
    let mut optimize = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" => output = it.next().cloned(),
            "--target" => match it.next().map(String::as_str) {
                Some("ia32") => target = llva::core::layout::TargetConfig::ia32(),
                Some("sparcv9") => target = llva::core::layout::TargetConfig::sparc_v9(),
                Some("riscv64") => target = llva::core::layout::TargetConfig::riscv64(),
                other => {
                    eprintln!("llva-cc: unknown target {other:?} (ia32|sparcv9|riscv64)");
                    exit(1);
                }
            },
            "--emit-asm" => emit_asm = true,
            "-O" => optimize = true,
            "-h" | "--help" => {
                eprintln!(
                    "usage: llva-cc input.c [-o out.bc] [--target ia32|sparcv9|riscv64] [--emit-asm] [-O]"
                );
                exit(0);
            }
            other => input = Some(other.to_string()),
        }
    }
    let Some(input) = input else {
        eprintln!("usage: llva-cc input.c [-o out.bc]");
        exit(1);
    };
    let src = std::fs::read_to_string(&input).unwrap_or_else(|e| {
        eprintln!("llva-cc: cannot read {input}: {e}");
        exit(1);
    });
    let name = std::path::Path::new(&input)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "module".into());
    let mut module = llva::minic::compile(&src, &name, target).unwrap_or_else(|e| {
        eprintln!("llva-cc: {input}: {e}");
        exit(1);
    });
    if let Err(e) = llva::core::verifier::verify_module(&module) {
        eprintln!("llva-cc: INTERNAL ERROR — generated module does not verify:\n{e}");
        exit(2);
    }
    if optimize {
        let mut pm = llva::opt::standard_pipeline();
        pm.run(&mut module);
    }
    if emit_asm {
        print!("{}", llva::core::printer::print_module(&module));
        return;
    }
    let out = output.unwrap_or_else(|| format!("{name}.bc"));
    let bytes = llva::core::bytecode::encode_module(&module);
    if let Err(e) = std::fs::write(&out, &bytes) {
        eprintln!("llva-cc: cannot write {out}: {e}");
        exit(1);
    }
    eprintln!(
        "llva-cc: {} -> {} ({} LLVA instructions, {} bytes)",
        input,
        out,
        module.total_insts(),
        bytes.len()
    );
}
