//! # llva-backend — native code generators (the "translator")
//!
//! Translates LLVA virtual object code to the three simulated
//! implementation ISAs in `llva-machine` with one code generator:
//! `lower` is the target-independent lowering driver (frame planning,
//! the block walk, phi copies, calls, GEP folding, the opcode dispatch)
//! and each ISA is a small target description it is monomorphised
//! over:
//!
//! * [`x86gen`] — IA-32-like: three callee-saved registers, two-address
//!   arithmetic with memory operands, arguments on the stack. The
//!   paper's translator, "virtually no optimization and very simple
//!   register allocation resulting in significant spill code" (§5.2),
//!   is the same driver under the naive policy:
//!   [`x86gen::compile_x86_naive`], the Table 2 baseline.
//! * [`sparcgen`] — SPARC-V9-like: "produces higher quality code, but
//!   requires more instructions because of the RISC architecture";
//!   14 callee-saved registers, `sethi`/`or` for wide constants.
//! * [`riscvgen`] — RV64-like: the third target, proving the V-ISA's
//!   I-ISA independence with a condition-code-free ISA (fused
//!   compare-and-branch, `slt`-materialized booleans) and 12-bit
//!   immediates.
//!
//! [`common`] holds global memory image layout and constant
//! canonicalization, shared with the interpreters. [`peephole`] is the
//! shared target-independent peephole pass run over every finished
//! stream.

pub mod common;
mod lower;
pub mod peephole;
pub mod riscvgen;
pub mod sparcgen;
pub mod x86gen;

pub use common::{layout_globals, GlobalImage};
pub use peephole::{PeepholeConfig, PeepholeStats};
pub use riscvgen::{compile_riscv, compile_riscv_with};
pub use sparcgen::{compile_sparc, compile_sparc_with};
pub use x86gen::{compile_x86, compile_x86_naive, compile_x86_with, spill_count};

#[cfg(test)]
mod tests {
    //! The compile entry points are the unit of work for LLEE's
    //! parallel offline translator: they must be pure over `&Module`
    //! and callable concurrently from many threads.

    use llva_core::layout::TargetConfig;
    use llva_core::module::Module;

    const SRC: &str = r#"
int %helper(int %x) {
entry:
    %a = mul int %x, 7
    %c = setlt int %a, 50
    br bool %c, label %lo, label %hi
lo:
    ret int %a
hi:
    %b = sub int %a, 50
    ret int %b
}

int %main(int %n) {
entry:
    %r = call int %helper(int %n)
    ret int %r
}
"#;

    #[test]
    fn module_is_shareable_across_threads() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<Module>();
    }

    /// Compiles every function serially and from 4 threads and asserts
    /// the results agree, via a target-erasing closure.
    fn assert_reentrant<C, O>(m: &Module, compile: C)
    where
        C: Fn(&Module, llva_core::module::FuncId) -> O + Sync,
        O: PartialEq + std::fmt::Debug + Send,
    {
        let fids: Vec<_> = m.functions().map(|(fid, _)| fid).collect();
        let serial: Vec<_> = fids.iter().map(|&f| compile(m, f)).collect();
        let (compile, fids) = (&compile, &fids);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(move || fids.iter().map(|&f| compile(m, f)).collect::<Vec<_>>()))
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("no panic"), serial);
            }
        });
    }

    #[test]
    fn compile_entry_points_are_reentrant() {
        // the same &Module compiled concurrently from many threads
        // must produce the same code as a serial compile — all three
        // back ends
        let mut m = llva_core::parser::parse_module(SRC).expect("parses");
        m.set_target(TargetConfig::ia32());
        assert_reentrant(&m, crate::compile_x86);
        m.set_target(TargetConfig::sparc_v9());
        assert_reentrant(&m, crate::compile_sparc);
        m.set_target(TargetConfig::riscv64());
        assert_reentrant(&m, crate::compile_riscv);
    }
}
