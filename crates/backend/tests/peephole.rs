//! Per-rewrite-rule equivalence for the shared peephole pass.
//!
//! The unit tests in `src/peephole.rs` check the rewrites structurally
//! (what the stream looks like after); these tests check them
//! *semantically*: for each rule on each target, a hand-built
//! instruction stream that triggers exactly that rule is executed on
//! the machine simulator before and after the pass, and the final
//! machine state — return value, the registers the stream touches,
//! and the memory it stores to — must be identical.
//!
//! The second half is the "peephole off vs on" oracle: whole modules
//! translated with the pass disabled (`ExecutionManager::set_peephole`)
//! must produce the same observable outcome and the same global-memory
//! image as with it enabled, across all three targets. (The standing
//! conformance sweep runs the same comparison as the `<isa>:nopeep`
//! oracle stages.)

use llva_backend::peephole::{self, PeepholeConfig, PeepholeStats};
use llva_conform::{generate, GenConfig};
use llva_core::layout::Endianness;
use llva_engine::llee::{ExecutionManager, TargetIsa};
use llva_machine::common::Exit;
use llva_machine::memory::{Memory, GLOBAL_BASE};
use llva_machine::Width;

const MEM_SIZE: u64 = 1 << 20;
/// Scratch address the store/load streams use — inside the heap
/// segment, clear of the null guard page and the globals.
const SCRATCH: i64 = 0x2000;

// ---------------------------------------------------------------------------
// x86
// ---------------------------------------------------------------------------

mod x86_rules {
    use super::*;
    use llva_machine::x86::{Cond, Fpr, Gpr, MemOp, X86Inst, X86Machine, X86Program};

    /// Runs `code` as function 0 and returns (halt value, gprs, scratch word).
    fn exec(code: &[X86Inst]) -> (u64, Vec<u64>, u64) {
        let mut program = X86Program::new(1, Vec::new());
        program.install(0, code.to_vec());
        let mem = Memory::new(MEM_SIZE, GLOBAL_BASE, Endianness::Little);
        let mut m = X86Machine::new(mem);
        m.call_entry(0, &[]).expect("entry");
        match m.run(&program, 10_000) {
            Exit::Halt(v) => {
                let regs: Vec<u64> = Gpr::ALL
                    .iter()
                    .filter(|r| **r != Gpr::Esp) // stream lengths differ only in pc
                    .map(|r| m.cpu.regs.gpr[*r as usize])
                    .collect();
                let word = m.cpu.mem.load(SCRATCH as u64, Width::B8).unwrap_or(0);
                (v, regs, word)
            }
            other => panic!("stream did not halt: {other:?}"),
        }
    }

    /// Applies the pass, asserts `expect_rule` fired, and checks
    /// machine-state equivalence of the before/after streams.
    fn check_rule(before: Vec<X86Inst>, expect_rule: fn(&PeepholeStats) -> usize, shrinks: bool) {
        let (after, stats) = peephole::run::<peephole::X86Peep>(before.clone(), &PeepholeConfig::on());
        assert!(expect_rule(&stats) > 0, "rule did not fire: {stats:?}");
        if shrinks {
            assert!(after.len() < before.len(), "pass removed nothing");
        } else {
            // replacement rewrites keep the stream length
            assert_eq!(after.len(), before.len());
            assert_ne!(after, before, "pass rewrote nothing");
        }
        assert_eq!(exec(&before), exec(&after), "machine state diverged");
    }

    #[test]
    fn redundant_move_elision_preserves_state() {
        check_rule(
            vec![
                X86Inst::MovRI(Gpr::Eax, 42),
                X86Inst::MovRR(Gpr::Eax, Gpr::Eax),
                X86Inst::Ret,
            ],
            |s| s.moves_elided,
            true,
        );
    }

    #[test]
    fn load_after_store_forwarding_preserves_state() {
        let slot = MemOp { base: Gpr::Ecx, disp: 0 };
        check_rule(
            vec![
                X86Inst::MovRI(Gpr::Ecx, SCRATCH),
                X86Inst::MovRI(Gpr::Eax, 7),
                X86Inst::Store { src: Gpr::Eax, mem: slot, width: Width::B8 },
                X86Inst::Load { dst: Gpr::Edx, mem: slot, width: Width::B8, signed: false },
                X86Inst::MovRR(Gpr::Eax, Gpr::Edx),
                X86Inst::Ret,
            ],
            |s| s.loads_forwarded,
            false,
        );
    }

    #[test]
    fn branch_over_branch_folding_preserves_state() {
        check_rule(
            vec![
                X86Inst::MovRI(Gpr::Eax, 5),
                X86Inst::CmpRI(Gpr::Eax, 5),
                X86Inst::Jcc(Cond::E, 4),
                X86Inst::Jmp(6),
                X86Inst::MovRI(Gpr::Eax, 111),
                X86Inst::Ret,
                X86Inst::MovRI(Gpr::Eax, 222),
                X86Inst::Ret,
            ],
            |s| s.branches_folded,
            true,
        );
        // a NaN operand leaves the flags unordered, where `jl` and `jge`
        // are both not taken: only the equality branches may fold
        let nan = f64::NAN.to_bits() as i64;
        for cond in [Cond::E, Cond::Ne, Cond::L, Cond::G, Cond::Le, Cond::Ge] {
            for (a, b) in [(nan, 0), (0, nan)] {
                let before = vec![
                    X86Inst::MovRI(Gpr::Eax, a),
                    X86Inst::MovFG(Fpr(0), Gpr::Eax),
                    X86Inst::MovRI(Gpr::Eax, b),
                    X86Inst::MovFG(Fpr(1), Gpr::Eax),
                    X86Inst::FCmp(Fpr(0), Fpr(1), false),
                    X86Inst::Jcc(cond, 7),
                    X86Inst::Jmp(9),
                    X86Inst::MovRI(Gpr::Eax, 111),
                    X86Inst::Ret,
                    X86Inst::MovRI(Gpr::Eax, 222),
                    X86Inst::Ret,
                ];
                let (after, _) =
                    peephole::run::<peephole::X86Peep>(before.clone(), &PeepholeConfig::on());
                let what = format!("{cond:?} after fcmp {a:#x}, {b:#x}");
                assert_eq!(exec(&before), exec(&after), "{what}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SPARC
// ---------------------------------------------------------------------------

mod sparc_rules {
    use super::*;
    use llva_machine::sparc::{
        AluOp, Cond, FReg, RegOrImm, SparcInst, SparcMachine, SparcProgram, G0, G1, G2, G3, O0,
    };

    fn exec(code: &[SparcInst]) -> (u64, Vec<u64>, u64) {
        let mut program = SparcProgram::new(1, Vec::new());
        program.install(0, code.to_vec());
        let mem = Memory::new(MEM_SIZE, GLOBAL_BASE, Endianness::Big);
        let mut m = SparcMachine::new(mem);
        m.call_entry(0, &[]).expect("entry");
        match m.run(&program, 10_000) {
            Exit::Halt(v) => {
                let regs = [O0, G1, G2, G3].map(|r| m.cpu.regs.gpr[r.0 as usize]).to_vec();
                let word = m.cpu.mem.load(SCRATCH as u64, Width::B8).unwrap_or(0);
                (v, regs, word)
            }
            other => panic!("stream did not halt: {other:?}"),
        }
    }

    fn check_rule(before: Vec<SparcInst>, expect_rule: fn(&PeepholeStats) -> usize, shrinks: bool) {
        let (after, stats) =
            peephole::run::<peephole::SparcPeep>(before.clone(), &PeepholeConfig::on());
        assert!(expect_rule(&stats) > 0, "rule did not fire: {stats:?}");
        if shrinks {
            assert!(after.len() < before.len(), "pass removed nothing");
        } else {
            assert_eq!(after.len(), before.len());
            assert_ne!(after, before, "pass rewrote nothing");
        }
        assert_eq!(exec(&before), exec(&after), "machine state diverged");
    }

    fn movi(rd: llva_machine::sparc::Reg, imm: i16) -> SparcInst {
        SparcInst::Alu {
            op: AluOp::Or,
            rs1: llva_machine::sparc::G0,
            rhs: RegOrImm::Imm(imm),
            rd,
            trapping: false,
        }
    }

    #[test]
    fn redundant_move_elision_preserves_state() {
        check_rule(
            vec![
                movi(O0, 42),
                // `or %o0, %o0, 0` — the collapsed move idiom
                SparcInst::Alu {
                    op: AluOp::Or,
                    rs1: O0,
                    rhs: RegOrImm::Imm(0),
                    rd: O0,
                    trapping: false,
                },
                SparcInst::Ret,
            ],
            |s| s.moves_elided,
            true,
        );
    }

    #[test]
    fn load_after_store_forwarding_preserves_state() {
        check_rule(
            vec![
                movi(G1, SCRATCH as i16),
                movi(O0, 7),
                SparcInst::St { rs: O0, rs1: G1, off: RegOrImm::Imm(0), width: Width::B8 },
                SparcInst::Ld {
                    rd: G2,
                    rs1: G1,
                    off: RegOrImm::Imm(0),
                    width: Width::B8,
                    signed: false,
                },
                SparcInst::Alu {
                    op: AluOp::Add,
                    rs1: G2,
                    rhs: RegOrImm::Imm(1),
                    rd: O0,
                    trapping: false,
                },
                SparcInst::Ret,
            ],
            |s| s.loads_forwarded,
            false,
        );
    }

    #[test]
    fn branch_over_branch_folding_preserves_state() {
        check_rule(
            vec![
                movi(O0, 5),
                SparcInst::Cmp { rs1: O0, rhs: RegOrImm::Imm(5) },
                SparcInst::Br { cond: Cond::E, target: 4 },
                SparcInst::Ba { target: 6 },
                movi(O0, 111),
                SparcInst::Ret,
                movi(O0, 222),
                SparcInst::Ret,
            ],
            |s| s.branches_folded,
            true,
        );
        // a NaN operand leaves the codes unordered, where `bl` and `bge`
        // are both not taken: only the equality branches may fold
        let nan = SparcInst::Sethi { imm22: f32::NAN.to_bits() >> 10, rd: G1 };
        for cond in [Cond::E, Cond::Ne, Cond::L, Cond::G, Cond::Le, Cond::Ge] {
            for (a, b) in [(G1, G0), (G0, G1)] {
                let before = vec![
                    nan.clone(),
                    SparcInst::MovFG(FReg(0), a),
                    SparcInst::MovFG(FReg(1), b),
                    SparcInst::FCmp { fs1: FReg(0), fs2: FReg(1), is32: true },
                    SparcInst::Br { cond, target: 6 },
                    SparcInst::Ba { target: 8 },
                    movi(O0, 111),
                    SparcInst::Ret,
                    movi(O0, 222),
                    SparcInst::Ret,
                ];
                let (after, _) =
                    peephole::run::<peephole::SparcPeep>(before.clone(), &PeepholeConfig::on());
                let what = format!("{cond:?} after fcmp {a:?}, {b:?}");
                assert_eq!(exec(&before), exec(&after), "{what}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// RISC-V
// ---------------------------------------------------------------------------

mod riscv_rules {
    use super::*;
    use llva_machine::riscv::{
        AluOp, BrCond, RegOrImm, RiscvInst, RiscvMachine, RiscvProgram, A0, T0, T1, X0,
    };

    fn exec(code: &[RiscvInst]) -> (u64, Vec<u64>, u64) {
        let mut program = RiscvProgram::new(1, Vec::new());
        program.install(0, code.to_vec());
        let mem = Memory::new(MEM_SIZE, GLOBAL_BASE, Endianness::Little);
        let mut m = RiscvMachine::new(mem);
        m.call_entry(0, &[]).expect("entry");
        match m.run(&program, 10_000) {
            Exit::Halt(v) => {
                let regs = [A0, T0, T1].map(|r| m.cpu.regs.gpr[r.0 as usize]).to_vec();
                let word = m.cpu.mem.load(SCRATCH as u64, Width::B8).unwrap_or(0);
                (v, regs, word)
            }
            other => panic!("stream did not halt: {other:?}"),
        }
    }

    fn check_rule(before: Vec<RiscvInst>, expect_rule: fn(&PeepholeStats) -> usize, shrinks: bool) {
        let (after, stats) =
            peephole::run::<peephole::RiscvPeep>(before.clone(), &PeepholeConfig::on());
        assert!(expect_rule(&stats) > 0, "rule did not fire: {stats:?}");
        if shrinks {
            assert!(after.len() < before.len(), "pass removed nothing");
        } else {
            assert_eq!(after.len(), before.len());
            assert_ne!(after, before, "pass rewrote nothing");
        }
        assert_eq!(exec(&before), exec(&after), "machine state diverged");
    }

    fn movi(rd: llva_machine::riscv::Reg, imm: i16) -> RiscvInst {
        RiscvInst::Alu {
            op: AluOp::Add,
            rs1: X0,
            rhs: RegOrImm::Imm(imm),
            rd,
            trapping: false,
        }
    }

    #[test]
    fn redundant_move_elision_preserves_state() {
        check_rule(
            vec![
                movi(A0, 42),
                // `addi a0, a0, 0` — the collapsed move idiom
                RiscvInst::Alu {
                    op: AluOp::Add,
                    rs1: A0,
                    rhs: RegOrImm::Imm(0),
                    rd: A0,
                    trapping: false,
                },
                RiscvInst::Ret,
            ],
            |s| s.moves_elided,
            true,
        );
    }

    #[test]
    fn load_after_store_forwarding_preserves_state() {
        check_rule(
            vec![
                movi(T0, SCRATCH as i16),
                movi(A0, 7),
                RiscvInst::St { rs: A0, rs1: T0, off: 0, width: Width::B8 },
                RiscvInst::Ld { rd: T1, rs1: T0, off: 0, width: Width::B8, signed: false },
                RiscvInst::Alu {
                    op: AluOp::Add,
                    rs1: T1,
                    rhs: RegOrImm::Imm(1),
                    rd: A0,
                    trapping: false,
                },
                RiscvInst::Ret,
            ],
            |s| s.loads_forwarded,
            false,
        );
    }

    #[test]
    fn branch_over_branch_folding_preserves_state() {
        check_rule(
            vec![
                movi(A0, 5),
                movi(T0, 5),
                RiscvInst::Br { cond: BrCond::Eq, rs1: A0, rs2: T0, target: 4 },
                RiscvInst::J { target: 6 },
                movi(A0, 111),
                RiscvInst::Ret,
                movi(A0, 222),
                RiscvInst::Ret,
            ],
            |s| s.branches_folded,
            true,
        );
    }
}

// ---------------------------------------------------------------------------
// Peephole off vs on: whole-module observable equivalence
// ---------------------------------------------------------------------------

/// Runs `module` through LLEE with the peephole pass on and off and
/// returns both (outcome-string, global-memory image) observations.
fn off_vs_on(
    module: &llva_core::module::Module,
    isa: TargetIsa,
    entry: &str,
    args: &[u64],
) -> [(String, Option<Vec<u8>>); 2] {
    [true, false].map(|enabled| {
        let mut mgr = ExecutionManager::new(module.clone(), isa);
        mgr.set_peephole(enabled);
        mgr.set_fuel(50_000_000);
        let outcome = match mgr.run(entry, args) {
            Ok(out) => format!("value {:#x}", out.value),
            Err(e) => format!("error {e}"),
        };
        let image = llva_backend::layout_globals(module);
        let globals = mgr.read_memory(GLOBAL_BASE, image.heap_base - GLOBAL_BASE);
        (outcome, globals)
    })
}

#[test]
fn peephole_off_matches_on_for_generated_modules() {
    // 24 generated seeds × 3 targets: same outcome, same final global
    // memory, with and without the pass.
    let cfg = GenConfig::default();
    for seed in 0..24u64 {
        let tc = generate(seed, &cfg);
        for isa in TargetIsa::ALL {
            let [on, off] = off_vs_on(&tc.module, isa, &tc.entry, &tc.args);
            assert_eq!(on, off, "seed {seed} isa {isa}: peephole changed observable state");
        }
    }
}

#[test]
fn peephole_off_matches_on_for_workloads() {
    // a few Table 2 programs end to end (the full set runs in the
    // cross-target suite; this adds the off/on axis on real code)
    for name in ["ptrdist-anagram", "ptrdist-bc", "164.gzip"] {
        let w = llva_workloads::by_name(name).expect("known workload");
        let module = w.compile(llva_core::layout::TargetConfig::ia32());
        for isa in TargetIsa::ALL {
            let [on, off] = off_vs_on(&module, isa, "main", &[]);
            assert_eq!(on, off, "{name} isa {isa}: peephole changed observable state");
        }
    }
}
