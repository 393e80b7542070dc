//! The shared, target-independent peephole pass.
//!
//! All three code generators run their finished instruction stream
//! through the same engine; each ISA contributes only a thin
//! [`PeepholeIsa`] lens that recognizes its own spellings of three
//! universal rewrite rules:
//!
//! 1. **Redundant move elision** — a register-to-register move whose
//!    source and destination coincide is deleted.
//! 2. **Load-after-store forwarding** — a full-width load from the
//!    exact `[base + off]` slot the immediately preceding instruction
//!    stored becomes a register move (or disappears entirely when it
//!    would reload the same register).
//! 3. **Branch-over-branch folding** — `bcond L1; jmp L2; L1:` becomes
//!    `b!cond L2` when `L1` is the fall-through. After a float compare
//!    only equality folds: a NaN operand leaves the codes unordered,
//!    where `<` and `>=` are both false.
//!
//! Because branch targets are instruction indices patched by the
//! generators *before* this pass runs, deletion is two-phase: rules
//! mark a tombstone mask, then one compaction remaps every control
//! transfer (including `invoke` unwind pads) through the survivor
//! index map. Rules never delete an instruction that is itself a
//! branch target unless it is a strict no-op at its position, so a
//! remapped edge that lands past a tombstone is always behavior
//! preserving.
//!
//! The pass is on by default; the conformance oracle's `*:nopeep`
//! stages switch it off through [`PeepholeConfig`].

use llva_machine::common::Width;
use std::collections::HashSet;

/// Whether the peephole pass runs (off only for tests and the
/// conformance oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeepholeConfig {
    /// Run the rewrite rules when set.
    pub enabled: bool,
}

impl PeepholeConfig {
    /// The pass enabled (the default).
    pub fn on() -> PeepholeConfig {
        PeepholeConfig { enabled: true }
    }

    /// The pass disabled — generators emit their raw streams.
    pub fn off() -> PeepholeConfig {
        PeepholeConfig { enabled: false }
    }
}

/// Counts of applied rewrites, per rule (the per-rule tests check them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeepholeStats {
    /// Rule 1: self-moves deleted.
    pub moves_elided: usize,
    /// Rule 2: loads forwarded from an adjacent store.
    pub loads_forwarded: usize,
    /// Rule 3: unconditional jumps folded into an inverted branch.
    pub branches_folded: usize,
}

impl PeepholeStats {
    /// Total instructions removed from the stream.
    pub fn total(&self) -> usize {
        self.moves_elided + self.loads_forwarded + self.branches_folded
    }
}

/// What the engine asks of each ISA. Implementations are pure pattern
/// lenses — all sequencing, tombstoning and retargeting lives in
/// [`run`].
pub trait PeepholeIsa {
    /// The ISA's instruction type.
    type Inst: Clone;

    /// Is this a register-to-register move with `dst == src` (a strict
    /// no-op)?
    fn is_nop_move(inst: &Self::Inst) -> bool;

    /// If `second` reloads, at full width, exactly the slot `first`
    /// just stored, the replacement: `Some(None)` deletes the load
    /// outright (it would reload the stored register into itself),
    /// `Some(Some(mv))` replaces it with a register move.
    #[allow(clippy::option_option)]
    fn forward_store_load(first: &Self::Inst, second: &Self::Inst)
        -> Option<Option<Self::Inst>>;

    /// The target of a conditional branch, if `inst` is one.
    fn cond_branch_target(inst: &Self::Inst) -> Option<u32>;

    /// The target of an unconditional jump, if `inst` is one.
    fn jump_target(inst: &Self::Inst) -> Option<u32>;

    /// Whether `inst` sets the condition codes from a float compare
    /// (`Some(true)`) or an integer compare (`Some(false)`); `None` when
    /// it leaves them alone.
    fn float_compare(_inst: &Self::Inst) -> Option<bool> {
        None
    }

    /// The same conditional branch with its condition inverted and its
    /// target replaced (operand order preserved); `None` when the
    /// condition has no inverse. `unordered`: the codes the branch
    /// reads may come from a float compare with a NaN operand.
    fn invert_branch(inst: &Self::Inst, new_target: u32, unordered: bool) -> Option<Self::Inst>;

    /// Every instruction index this instruction can transfer control
    /// to (branch/jump targets and `invoke` unwind pads).
    fn targets(inst: &Self::Inst, out: &mut Vec<u32>);

    /// Rewrites every control-transfer target through `map`.
    fn retarget(inst: &mut Self::Inst, map: &mut dyn FnMut(u32) -> u32);
}

/// Runs the rewrite rules to a fixpoint over `code`, returning the
/// compacted stream and what was removed.
pub fn run<I: PeepholeIsa>(
    mut code: Vec<I::Inst>,
    cfg: &PeepholeConfig,
) -> (Vec<I::Inst>, PeepholeStats) {
    let mut stats = PeepholeStats::default();
    if !cfg.enabled {
        return (code, stats);
    }
    // Each iteration applies every rule once, then compacts; new
    // adjacencies created by compaction are picked up next round.
    loop {
        let mut scratch = Vec::new();
        let mut jump_targets: HashSet<u32> = HashSet::new();
        for inst in &code {
            scratch.clear();
            I::targets(inst, &mut scratch);
            jump_targets.extend(scratch.iter().copied());
        }
        let mut deleted = vec![false; code.len()];
        let mut changed = false;

        // Rule 1: self-moves. Safe even when branch-targeted — the
        // remap lands on the next survivor and nothing was skipped.
        for (i, inst) in code.iter().enumerate() {
            if I::is_nop_move(inst) {
                deleted[i] = true;
                stats.moves_elided += 1;
                changed = true;
            }
        }

        // Rule 2: load-after-store forwarding. The load must not be a
        // branch target (control could arrive without the store).
        for i in 0..code.len().saturating_sub(1) {
            if deleted[i] || deleted[i + 1] || jump_targets.contains(&(i as u32 + 1)) {
                continue;
            }
            if let Some(repl) = I::forward_store_load(&code[i], &code[i + 1]) {
                match repl {
                    Some(mv) => code[i + 1] = mv,
                    None => deleted[i + 1] = true,
                }
                stats.loads_forwarded += 1;
                changed = true;
            }
        }

        // Rule 3: branch-over-branch. The jump must not be a branch
        // target (something else still needs to reach L2 through it).
        // The branch reads the codes of the nearest compare before it,
        // as in every generator's stream.
        for i in 0..code.len().saturating_sub(2) {
            if deleted[i] || deleted[i + 1] || jump_targets.contains(&(i as u32 + 1)) {
                continue;
            }
            if I::cond_branch_target(&code[i]) != Some(i as u32 + 2) {
                continue;
            }
            let Some(l2) = I::jump_target(&code[i + 1]) else {
                continue;
            };
            let unordered = code[..i].iter().rev().find_map(I::float_compare) == Some(true);
            if let Some(inv) = I::invert_branch(&code[i], l2, unordered) {
                code[i] = inv;
                deleted[i + 1] = true;
                stats.branches_folded += 1;
                changed = true;
            }
        }

        if !changed {
            return (code, stats);
        }

        // Compact and remap: new_index[i] = survivors strictly before
        // i, so a target on a tombstone falls through to the next
        // surviving instruction.
        let mut new_index = Vec::with_capacity(code.len() + 1);
        let mut n: u32 = 0;
        for &d in &deleted {
            new_index.push(n);
            if !d {
                n += 1;
            }
        }
        new_index.push(n);
        let mut kept: Vec<I::Inst> = code
            .into_iter()
            .zip(deleted)
            .filter_map(|(inst, d)| (!d).then_some(inst))
            .collect();
        for inst in &mut kept {
            I::retarget(inst, &mut |t| new_index[t as usize]);
        }
        code = kept;
    }
}

// ---------------------------------------------------------------------------
// x86 lens
// ---------------------------------------------------------------------------

/// The IA-32 lens. Moves and loads never write flags in this
/// simulator, so rewrites cannot disturb a `cmp`→`jcc` window.
pub struct X86Peep;

mod x86_lens {
    use super::*;
    use llva_machine::x86::{Cond, X86Inst};

    fn invert(c: Cond) -> Cond {
        match c {
            Cond::E => Cond::Ne,
            Cond::Ne => Cond::E,
            Cond::L => Cond::Ge,
            Cond::Ge => Cond::L,
            Cond::G => Cond::Le,
            Cond::Le => Cond::G,
            Cond::B => Cond::Ae,
            Cond::Ae => Cond::B,
            Cond::A => Cond::Be,
            Cond::Be => Cond::A,
        }
    }

    impl PeepholeIsa for X86Peep {
        type Inst = X86Inst;

        fn is_nop_move(inst: &X86Inst) -> bool {
            match inst {
                X86Inst::MovRR(d, s) => d == s,
                X86Inst::FMovRR(d, s) => d == s,
                _ => false,
            }
        }

        fn forward_store_load(first: &X86Inst, second: &X86Inst) -> Option<Option<X86Inst>> {
            match (first, second) {
                (
                    X86Inst::Store { src, mem, width: Width::B8 },
                    X86Inst::Load { dst, mem: m2, width: Width::B8, .. },
                ) if mem == m2 => Some((dst != src).then_some(X86Inst::MovRR(*dst, *src))),
                (
                    X86Inst::FStore { src, mem, is32: false },
                    X86Inst::FLoad { dst, mem: m2, is32: false },
                ) if mem == m2 => Some((dst != src).then_some(X86Inst::FMovRR(*dst, *src))),
                _ => None,
            }
        }

        fn cond_branch_target(inst: &X86Inst) -> Option<u32> {
            match inst {
                X86Inst::Jcc(_, t) => Some(*t),
                _ => None,
            }
        }

        fn jump_target(inst: &X86Inst) -> Option<u32> {
            match inst {
                X86Inst::Jmp(t) => Some(*t),
                _ => None,
            }
        }

        fn float_compare(inst: &X86Inst) -> Option<bool> {
            match inst {
                X86Inst::CmpRR(..) | X86Inst::CmpRI(..) | X86Inst::CmpRM(..) => Some(false),
                X86Inst::FCmp(..) => Some(true),
                _ => None,
            }
        }

        fn invert_branch(inst: &X86Inst, new_target: u32, unordered: bool) -> Option<X86Inst> {
            match inst {
                X86Inst::Jcc(c, _) if !unordered || matches!(c, Cond::E | Cond::Ne) => {
                    Some(X86Inst::Jcc(invert(*c), new_target))
                }
                _ => None,
            }
        }

        fn targets(inst: &X86Inst, out: &mut Vec<u32>) {
            match inst {
                X86Inst::Jmp(t) | X86Inst::Jcc(_, t) => out.push(*t),
                X86Inst::CallFn { unwind, .. } | X86Inst::CallIndirect { unwind, .. } => {
                    if let Some(t) = unwind {
                        out.push(*t);
                    }
                }
                _ => {}
            }
        }

        fn retarget(inst: &mut X86Inst, map: &mut dyn FnMut(u32) -> u32) {
            match inst {
                X86Inst::Jmp(t) | X86Inst::Jcc(_, t) => *t = map(*t),
                X86Inst::CallFn { unwind, .. } | X86Inst::CallIndirect { unwind, .. } => {
                    if let Some(t) = unwind {
                        *t = map(*t);
                    }
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SPARC lens
// ---------------------------------------------------------------------------

/// The SPARC lens. Only `Cmp`/`FCmp` write condition codes, so move
/// elision and forwarding cannot clobber a deferred-flags window.
pub struct SparcPeep;

mod sparc_lens {
    use super::*;
    use llva_machine::sparc::{AluOp, Cond, RegOrImm, SparcInst, G0};

    fn invert(c: Cond) -> Cond {
        match c {
            Cond::E => Cond::Ne,
            Cond::Ne => Cond::E,
            Cond::L => Cond::Ge,
            Cond::Ge => Cond::L,
            Cond::G => Cond::Le,
            Cond::Le => Cond::G,
            Cond::Lu => Cond::Geu,
            Cond::Geu => Cond::Lu,
            Cond::Gu => Cond::Leu,
            Cond::Leu => Cond::Gu,
        }
    }

    impl PeepholeIsa for SparcPeep {
        type Inst = SparcInst;

        fn is_nop_move(inst: &SparcInst) -> bool {
            match inst {
                // `or rd, rd, 0` / `add rd, rd, 0` — the generators'
                // move idiom collapsed onto itself
                SparcInst::Alu {
                    op: AluOp::Or | AluOp::Add,
                    rs1,
                    rhs: RegOrImm::Imm(0),
                    rd,
                    ..
                } => rd == rs1,
                // `or rd, %g0, rs` with rd == rs
                SparcInst::Alu {
                    op: AluOp::Or,
                    rs1: G0,
                    rhs: RegOrImm::Reg(r),
                    rd,
                    ..
                } => rd == r,
                SparcInst::FMov(d, s) => d == s,
                _ => false,
            }
        }

        fn forward_store_load(first: &SparcInst, second: &SparcInst) -> Option<Option<SparcInst>> {
            match (first, second) {
                (
                    SparcInst::St { rs, rs1, off, width: Width::B8 },
                    SparcInst::Ld { rd, rs1: b2, off: o2, width: Width::B8, .. },
                ) if rs1 == b2 && off == o2 => Some((rd != rs).then_some(SparcInst::Alu {
                    op: AluOp::Or,
                    rs1: *rs,
                    rhs: RegOrImm::Imm(0),
                    rd: *rd,
                    trapping: false,
                })),
                (
                    SparcInst::StF { fs, rs1, off, is32: false },
                    SparcInst::LdF { fd, rs1: b2, off: o2, is32: false },
                ) if rs1 == b2 && off == o2 => {
                    Some((fd != fs).then_some(SparcInst::FMov(*fd, *fs)))
                }
                _ => None,
            }
        }

        fn cond_branch_target(inst: &SparcInst) -> Option<u32> {
            match inst {
                SparcInst::Br { target, .. } => Some(*target),
                _ => None,
            }
        }

        fn jump_target(inst: &SparcInst) -> Option<u32> {
            match inst {
                SparcInst::Ba { target } => Some(*target),
                _ => None,
            }
        }

        fn float_compare(inst: &SparcInst) -> Option<bool> {
            match inst {
                SparcInst::Cmp { .. } => Some(false),
                SparcInst::FCmp { .. } => Some(true),
                _ => None,
            }
        }

        fn invert_branch(inst: &SparcInst, new_target: u32, unordered: bool) -> Option<SparcInst> {
            match inst {
                SparcInst::Br { cond, .. } if !unordered || matches!(cond, Cond::E | Cond::Ne) => {
                    Some(SparcInst::Br {
                        cond: invert(*cond),
                        target: new_target,
                    })
                }
                _ => None,
            }
        }

        fn targets(inst: &SparcInst, out: &mut Vec<u32>) {
            match inst {
                SparcInst::Br { target, .. } | SparcInst::Ba { target } => out.push(*target),
                SparcInst::Call { unwind, .. } | SparcInst::CallIndirect { unwind, .. } => {
                    if let Some(t) = unwind {
                        out.push(*t);
                    }
                }
                _ => {}
            }
        }

        fn retarget(inst: &mut SparcInst, map: &mut dyn FnMut(u32) -> u32) {
            match inst {
                SparcInst::Br { target, .. } | SparcInst::Ba { target } => *target = map(*target),
                SparcInst::Call { unwind, .. } | SparcInst::CallIndirect { unwind, .. } => {
                    if let Some(t) = unwind {
                        *t = map(*t);
                    }
                }
                _ => {}
            }
        }
    }
}

// ---------------------------------------------------------------------------
// RISC-V lens
// ---------------------------------------------------------------------------

/// The RV64 lens. No condition codes at all, so every rewrite window
/// is flag-free by construction; branch inversion keeps the operand
/// order and flips only the condition.
pub struct RiscvPeep;

mod riscv_lens {
    use super::*;
    use llva_machine::riscv::{AluOp, BrCond, RegOrImm, RiscvInst};

    fn invert(c: BrCond) -> BrCond {
        match c {
            BrCond::Eq => BrCond::Ne,
            BrCond::Ne => BrCond::Eq,
            BrCond::Lt => BrCond::Ge,
            BrCond::Ge => BrCond::Lt,
            BrCond::Ltu => BrCond::Geu,
            BrCond::Geu => BrCond::Ltu,
        }
    }

    impl PeepholeIsa for RiscvPeep {
        type Inst = RiscvInst;

        fn is_nop_move(inst: &RiscvInst) -> bool {
            match inst {
                // `addi rd, rd, 0` — the move idiom collapsed
                RiscvInst::Alu {
                    op: AluOp::Add,
                    rs1,
                    rhs: RegOrImm::Imm(0),
                    rd,
                    trapping: false,
                } => rd == rs1,
                RiscvInst::FMov(d, s) => d == s,
                _ => false,
            }
        }

        fn forward_store_load(first: &RiscvInst, second: &RiscvInst) -> Option<Option<RiscvInst>> {
            match (first, second) {
                (
                    RiscvInst::St { rs, rs1, off, width: Width::B8 },
                    RiscvInst::Ld { rd, rs1: b2, off: o2, width: Width::B8, .. },
                ) if rs1 == b2 && off == o2 => Some((rd != rs).then_some(RiscvInst::Alu {
                    op: AluOp::Add,
                    rs1: *rs,
                    rhs: RegOrImm::Imm(0),
                    rd: *rd,
                    trapping: false,
                })),
                (
                    RiscvInst::StF { fs, rs1, off, is32: false },
                    RiscvInst::LdF { fd, rs1: b2, off: o2, is32: false },
                ) if rs1 == b2 && off == o2 => {
                    Some((fd != fs).then_some(RiscvInst::FMov(*fd, *fs)))
                }
                _ => None,
            }
        }

        fn cond_branch_target(inst: &RiscvInst) -> Option<u32> {
            match inst {
                RiscvInst::Br { target, .. } => Some(*target),
                _ => None,
            }
        }

        fn jump_target(inst: &RiscvInst) -> Option<u32> {
            match inst {
                RiscvInst::J { target } => Some(*target),
                _ => None,
            }
        }

        fn invert_branch(inst: &RiscvInst, new_target: u32, _unordered: bool) -> Option<RiscvInst> {
            match inst {
                RiscvInst::Br { cond, rs1, rs2, .. } => Some(RiscvInst::Br {
                    cond: invert(*cond),
                    rs1: *rs1,
                    rs2: *rs2,
                    target: new_target,
                }),
                _ => None,
            }
        }

        fn targets(inst: &RiscvInst, out: &mut Vec<u32>) {
            match inst {
                RiscvInst::Br { target, .. } | RiscvInst::J { target } => out.push(*target),
                RiscvInst::Call { unwind, .. } | RiscvInst::CallIndirect { unwind, .. } => {
                    if let Some(t) = unwind {
                        out.push(*t);
                    }
                }
                _ => {}
            }
        }

        fn retarget(inst: &mut RiscvInst, map: &mut dyn FnMut(u32) -> u32) {
            match inst {
                RiscvInst::Br { target, .. } | RiscvInst::J { target } => *target = map(*target),
                RiscvInst::Call { unwind, .. } | RiscvInst::CallIndirect { unwind, .. } => {
                    if let Some(t) = unwind {
                        *t = map(*t);
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llva_machine::x86::{Cond, Gpr, MemOp, X86Inst};

    fn mem(disp: i32) -> MemOp {
        MemOp { base: Gpr::Ebp, disp }
    }

    #[test]
    fn disabled_config_is_identity() {
        let code = vec![X86Inst::MovRR(Gpr::Eax, Gpr::Eax), X86Inst::Ret];
        let (out, stats) = run::<X86Peep>(code.clone(), &PeepholeConfig::off());
        assert_eq!(out, code);
        assert_eq!(stats.total(), 0);
    }

    #[test]
    fn self_move_deleted_and_branches_remap() {
        // jcc over the nop move must land on the ret that follows it
        let code = vec![
            X86Inst::Jcc(Cond::E, 2),
            X86Inst::MovRR(Gpr::Eax, Gpr::Eax),
            X86Inst::Ret,
        ];
        let (out, stats) = run::<X86Peep>(code, &PeepholeConfig::on());
        assert_eq!(out, vec![X86Inst::Jcc(Cond::E, 1), X86Inst::Ret]);
        assert_eq!(stats.moves_elided, 1);
    }

    #[test]
    fn store_load_forwards_to_move() {
        let code = vec![
            X86Inst::Store { src: Gpr::Ecx, mem: mem(-8), width: Width::B8 },
            X86Inst::Load { dst: Gpr::Eax, mem: mem(-8), width: Width::B8, signed: false },
            X86Inst::Ret,
        ];
        let (out, stats) = run::<X86Peep>(code, &PeepholeConfig::on());
        assert_eq!(
            out,
            vec![
                X86Inst::Store { src: Gpr::Ecx, mem: mem(-8), width: Width::B8 },
                X86Inst::MovRR(Gpr::Eax, Gpr::Ecx),
                X86Inst::Ret,
            ]
        );
        assert_eq!(stats.loads_forwarded, 1);
    }

    #[test]
    fn store_load_same_reg_deletes_load() {
        let code = vec![
            X86Inst::Store { src: Gpr::Eax, mem: mem(-8), width: Width::B8 },
            X86Inst::Load { dst: Gpr::Eax, mem: mem(-8), width: Width::B8, signed: false },
            X86Inst::Ret,
        ];
        let (out, _) = run::<X86Peep>(code, &PeepholeConfig::on());
        assert_eq!(
            out,
            vec![
                X86Inst::Store { src: Gpr::Eax, mem: mem(-8), width: Width::B8 },
                X86Inst::Ret,
            ]
        );
    }

    #[test]
    fn narrow_or_mismatched_slots_not_forwarded() {
        let code = vec![
            X86Inst::Store { src: Gpr::Ecx, mem: mem(-8), width: Width::B4 },
            X86Inst::Load { dst: Gpr::Eax, mem: mem(-8), width: Width::B4, signed: false },
            X86Inst::Store { src: Gpr::Ecx, mem: mem(-8), width: Width::B8 },
            X86Inst::Load { dst: Gpr::Eax, mem: mem(-16), width: Width::B8, signed: false },
            X86Inst::Ret,
        ];
        let (out, stats) = run::<X86Peep>(code.clone(), &PeepholeConfig::on());
        assert_eq!(out, code);
        assert_eq!(stats.total(), 0);
    }

    #[test]
    fn branch_target_blocks_forwarding() {
        // control reaches the load without the store — must not rewrite
        let code = vec![
            X86Inst::Jcc(Cond::E, 2),
            X86Inst::Store { src: Gpr::Ecx, mem: mem(-8), width: Width::B8 },
            X86Inst::Load { dst: Gpr::Eax, mem: mem(-8), width: Width::B8, signed: false },
            X86Inst::Ret,
        ];
        let (out, stats) = run::<X86Peep>(code.clone(), &PeepholeConfig::on());
        assert_eq!(out, code);
        assert_eq!(stats.total(), 0);
    }

    #[test]
    fn branch_over_branch_folds() {
        let code = vec![
            X86Inst::Jcc(Cond::L, 2),
            X86Inst::Jmp(5),
            X86Inst::MovRI(Gpr::Eax, 1),
            X86Inst::Ret,
            X86Inst::MovRI(Gpr::Eax, 2),
            X86Inst::Ret,
        ];
        let (out, stats) = run::<X86Peep>(code, &PeepholeConfig::on());
        assert_eq!(out[0], X86Inst::Jcc(Cond::Ge, 4));
        assert_eq!(out.len(), 5);
        assert_eq!(stats.branches_folded, 1);
    }

    #[test]
    fn targeted_jump_not_folded() {
        // something else branches *to* the jmp: folding would strand it
        let code = vec![
            X86Inst::Jcc(Cond::L, 2),
            X86Inst::Jmp(5),
            X86Inst::MovRI(Gpr::Eax, 1),
            X86Inst::Jcc(Cond::G, 1),
            X86Inst::Ret,
            X86Inst::MovRI(Gpr::Eax, 2),
            X86Inst::Ret,
        ];
        let (out, stats) = run::<X86Peep>(code.clone(), &PeepholeConfig::on());
        assert_eq!(out, code);
        assert_eq!(stats.total(), 0);
    }

    #[test]
    fn unwind_pads_are_remapped() {
        let code = vec![
            X86Inst::MovRR(Gpr::Eax, Gpr::Eax),
            X86Inst::CallFn { func: 0, unwind: Some(2) },
            X86Inst::Ret,
        ];
        let (out, _) = run::<X86Peep>(code, &PeepholeConfig::on());
        assert_eq!(
            out,
            vec![X86Inst::CallFn { func: 0, unwind: Some(1) }, X86Inst::Ret]
        );
    }

    #[test]
    fn fixpoint_chains_rules() {
        // folding the branch makes the store/load adjacent only after
        // compaction; the second round forwards it
        let code = vec![
            X86Inst::Store { src: Gpr::Ecx, mem: mem(-8), width: Width::B8 },
            X86Inst::MovRR(Gpr::Edx, Gpr::Edx),
            X86Inst::Load { dst: Gpr::Eax, mem: mem(-8), width: Width::B8, signed: false },
            X86Inst::Ret,
        ];
        let (out, stats) = run::<X86Peep>(code, &PeepholeConfig::on());
        assert_eq!(
            out,
            vec![
                X86Inst::Store { src: Gpr::Ecx, mem: mem(-8), width: Width::B8 },
                X86Inst::MovRR(Gpr::Eax, Gpr::Ecx),
                X86Inst::Ret,
            ]
        );
        assert_eq!(stats.moves_elided, 1);
        assert_eq!(stats.loads_forwarded, 1);
    }
}
