//! Property-based tests over randomly generated LLVA programs.
//!
//! The programs come from the conformance harness's seeded generator
//! (`llva::conform::gen`) — well-typed modules with real control flow
//! (branches, loops, phis, `mbr`), memory traffic through `alloca` and
//! globals, and multi-function call graphs, all verifying by
//! construction. Properties assert that every representation change
//! (bytecode, assembly) and every optimization preserves the
//! interpreter's semantics, and that both simulated processors agree
//! with the interpreter — each property is one oracle stage from
//! `llva::conform::oracle`, so a failure here is replayable as
//! `llva-conform --seeds N..N+1`.
//!
//! The build environment has no crates.io access, so instead of the
//! proptest crate these properties are driven by the harness's small
//! deterministic xorshift generator: every run explores the same case
//! set, and a failing case is reproducible from the printed seed.

use llva::conform::gen::{generate, GenConfig};
use llva::conform::oracle::Oracle;
use llva::conform::rng::Rng;
use llva::core::module::Module;
use llva::engine::Interpreter;

const CASES: u64 = 48;

fn interp(m: &Module, entry: &str, args: &[u64]) -> u64 {
    let mut i = Interpreter::new(m);
    i.set_fuel(50_000_000);
    i.run(entry, args).expect("generated programs are total")
}

/// One oracle stage must agree with the baseline interpreter over a
/// seed sweep.
fn stage_agrees(stage: &str, seeds: std::ops::Range<u64>) {
    let cfg = GenConfig::default();
    let oracle = Oracle::new();
    for seed in seeds {
        let tc = generate(seed, &cfg);
        let baseline = oracle
            .run_stage("interp", &tc.module, &tc.entry, &tc.args)
            .expect("interp is a known stage");
        let got = oracle
            .run_stage(stage, &tc.module, &tc.entry, &tc.args)
            .unwrap_or_else(|| panic!("unknown stage '{stage}'"));
        assert_eq!(
            got, baseline,
            "seed {seed}: stage '{stage}' diverged (replay: llva-conform --seeds {seed}..{})",
            seed + 1
        );
    }
}

#[test]
fn generated_modules_verify() {
    let cfg = GenConfig::default();
    for seed in 0..CASES {
        let tc = generate(seed, &cfg);
        llva::core::verifier::verify_module(&tc.module)
            .unwrap_or_else(|e| panic!("seed {seed}: generated module fails to verify: {e:?}"));
    }
}

#[test]
fn bytecode_round_trip_preserves_semantics() {
    stage_agrees("bytecode", 0..CASES);
}

#[test]
fn assembly_round_trip_preserves_semantics() {
    stage_agrees("print-parse", 0..CASES);
}

#[test]
fn optimizer_preserves_semantics() {
    // like the oracle's opt:standard stage, but with the pass manager's
    // verify-after-each-pass mode on, so a pass that emits a malformed
    // module is caught at the offending pass rather than downstream
    let cfg = GenConfig::default();
    for seed in 0..CASES {
        let tc = generate(seed, &cfg);
        let expected = interp(&tc.module, &tc.entry, &tc.args);
        let mut m = tc.module.clone();
        let mut pm = llva::opt::standard_pipeline();
        pm.verify_after_each(true);
        pm.run(&mut m);
        assert_eq!(interp(&m, &tc.entry, &tc.args), expected, "seed {seed}");
    }
}

#[test]
fn both_processors_agree_with_interpreter() {
    stage_agrees("x86", 0..24);
    stage_agrees("sparc", 0..24);
}

#[test]
fn both_processors_agree_on_optimized_modules() {
    stage_agrees("x86:opt", 24..40);
    stage_agrees("sparc:opt", 24..40);
}

#[test]
fn constant_folding_agrees_with_runtime() {
    let cfg = GenConfig::default();
    for seed in 0..CASES {
        let tc = generate(seed, &cfg);
        let expected = interp(&tc.module, &tc.entry, &tc.args);
        let mut folded = tc.module.clone();
        let mut pm = llva::opt::PassManager::new();
        pm.add(llva::opt::constfold::ConstFold::new())
            .add(llva::opt::dce::Dce::new())
            .verify_after_each(true);
        pm.run_to_fixpoint(&mut folded, 8);
        assert_eq!(interp(&folded, &tc.entry, &tc.args), expected, "seed {seed}");
    }
}

#[test]
fn eval_matches_interpreter_for_binaries() {
    use llva::core::builder::FunctionBuilder;
    use llva::core::instruction::Opcode;
    use llva::core::layout::TargetConfig;
    let ops = [
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mul,
        Opcode::Div,
        Opcode::Rem,
        Opcode::And,
        Opcode::Or,
        Opcode::Xor,
        Opcode::Shl,
        Opcode::Shr,
    ];
    for seed in 0..CASES * 4 {
        let mut rng = Rng::new(0xE7A1_0000 + seed);
        // mix full-range and small operands so div/rem edge cases and
        // ordinary arithmetic are both exercised
        let a = if seed % 3 == 0 {
            rng.next_u64() as i64
        } else {
            rng.range(-1000, 1000)
        };
        let b = match seed % 5 {
            0 => 0,
            1 => -1,
            _ => rng.next_u64() as i64,
        };
        let op = ops[rng.index(ops.len())];
        let mut m = Module::new("e", TargetConfig::default());
        let long = m.types_mut().long();
        let f = m.add_function("f", long, vec![long, long]);
        let mut bb = FunctionBuilder::new(&mut m, f);
        let entry = bb.block("entry");
        bb.switch_to(entry);
        let (x, y) = (bb.func().args()[0], bb.func().args()[1]);
        let r = match op {
            Opcode::Add => bb.add(x, y),
            Opcode::Sub => bb.sub(x, y),
            Opcode::Mul => bb.mul(x, y),
            Opcode::Div => bb.div(x, y),
            Opcode::Rem => bb.rem(x, y),
            Opcode::And => bb.and(x, y),
            Opcode::Or => bb.or(x, y),
            Opcode::Xor => bb.xor(x, y),
            Opcode::Shl => bb.shl(x, y),
            _ => bb.shr(x, y),
        };
        bb.ret(Some(r));

        let ca = llva::core::value::Constant::Int {
            ty: long,
            bits: a as u64,
        };
        let cb = llva::core::value::Constant::Int {
            ty: long,
            bits: b as u64,
        };
        let folded = llva::core::eval::fold_binary(m.types(), op, &ca, &cb);
        let mut i = Interpreter::new(&m);
        i.set_fuel(1000);
        let run = i.run("f", &[a as u64, b as u64]);
        match folded {
            Some(c) => {
                // the interpreter must agree with compile-time folding
                assert_eq!(
                    run.expect("no trap when folding succeeded"),
                    c.as_int_bits().unwrap(),
                    "seed {seed}"
                );
            }
            None => {
                // fold refuses for division by zero and for
                // i64::MIN / -1 overflow (where the runtime wraps but
                // folding conservatively declines)
                assert!(matches!(op, Opcode::Div | Opcode::Rem), "seed {seed}");
                if b == 0 {
                    // §3.3: exceptions are on by default for div (must
                    // trap), but off for rem — rem-by-zero is defined
                    // as 0 rather than trapping
                    match op {
                        Opcode::Div => assert!(run.is_err(), "seed {seed}"),
                        _ => assert_eq!(
                            run.expect("rem-by-zero with exceptions off"),
                            0,
                            "seed {seed}"
                        ),
                    }
                }
            }
        }
    }
}

#[test]
fn dominator_properties() {
    use llva::core::dominators::DomTree;
    let cfg = GenConfig::default();
    for seed in 0..CASES {
        let m = generate(seed, &cfg).module;
        for (_, func) in m.functions() {
            if func.is_declaration() {
                continue;
            }
            let dom = DomTree::compute(func);
            let entry = func.entry_block();
            for &b in dom.reverse_postorder() {
                // the entry dominates every reachable block
                assert!(dom.dominates(entry, b), "seed {seed}");
                // the immediate dominator strictly dominates its child
                if let Some(idom) = dom.idom(b) {
                    assert!(dom.strictly_dominates(idom, b), "seed {seed}");
                } else {
                    assert_eq!(b, entry, "seed {seed}");
                }
                // no block strictly dominates itself
                assert!(!dom.strictly_dominates(b, b), "seed {seed}");
            }
        }
    }
}

/// A random CFG over 2–12 blocks ending in `ret`, `br`, two-way `br` or a
/// three-target `mbr`, with loops, irreducible regions, duplicate edges
/// and unreachable blocks. As in every front end's output, no edge
/// re-enters the entry block (the frontier formulation assumes an entry
/// without predecessors).
fn random_cfg(seed: u64) -> (Module, llva::core::module::FuncId) {
    use llva::core::instruction::{Instruction, Opcode};
    use llva::core::value::Constant;
    let mut rng = Rng::new(0xD0_0000 + seed);
    let mut m = Module::new("cfg", llva::core::layout::TargetConfig::default());
    let int = m.types_mut().int();
    let void = m.types_mut().void();
    let f = m.add_function("f", int, vec![int]);
    let func = m.function_mut(f);
    let n = 2 + rng.index(11);
    let blocks: Vec<_> = (0..n).map(|i| func.add_block(format!("b{i}"))).collect();
    let x = func.args()[0];
    let cond = func.constant(Constant::Bool(true));
    let cases: Vec<_> = (0..2)
        .map(|k| func.constant(Constant::Int { ty: int, bits: k }))
        .collect();
    for &b in &blocks {
        let shape = rng.index(5);
        let mut target = || blocks[1 + rng.index(n - 1)];
        let (ops, targets) = match shape {
            0 => (vec![x], vec![]),
            1 | 2 => (vec![], vec![target()]),
            3 => (vec![cond], vec![target(), target()]),
            _ => (
                vec![x, cases[0], cases[1]],
                vec![target(), target(), target()],
            ),
        };
        let op = match (ops.len(), targets.len()) {
            (1, 0) => Opcode::Ret,
            (_, 3) => Opcode::Mbr,
            _ => Opcode::Br,
        };
        func.append_inst(b, Instruction::new(op, void, ops, targets), void);
    }
    (m, f)
}

#[test]
fn dominators_match_brute_force_reference() {
    use llva::core::dominators::DomTree;
    use llva::core::function::{BlockId, Function};
    // blocks reachable from the entry without passing `removed`
    fn reachable(func: &Function, removed: Option<BlockId>) -> Vec<bool> {
        let entry = func.entry_block();
        let mut seen = vec![false; func.num_block_ids()];
        if removed == Some(entry) {
            return seen;
        }
        seen[entry.index()] = true;
        let mut stack = vec![entry];
        while let Some(b) = stack.pop() {
            for s in func.successors(b) {
                if Some(s) != removed && !std::mem::replace(&mut seen[s.index()], true) {
                    stack.push(s);
                }
            }
        }
        seen
    }
    for seed in 0..CASES * 8 {
        let (m, f) = random_cfg(seed);
        let func = m.function(f);
        let dom = DomTree::compute(func);
        let blocks = func.block_order().to_vec();
        let reach = reachable(func, None);
        let cut: Vec<Vec<bool>> = blocks.iter().map(|&a| reachable(func, Some(a))).collect();
        // a dominates b iff removing a makes b unreachable from the entry
        let dominates = |a: BlockId, b: BlockId| {
            reach[a.index()] && reach[b.index()] && (a == b || !cut[a.index()][b.index()])
        };
        let strictly = |a: BlockId, b: BlockId| a != b && dominates(a, b);
        // the immediate dominator: the strict dominator every other one dominates
        let idom = |b: BlockId| {
            let sdoms: Vec<BlockId> = blocks.iter().copied().filter(|&a| strictly(a, b)).collect();
            sdoms
                .iter()
                .copied()
                .find(|&d| sdoms.iter().all(|&s| dominates(s, d)))
        };
        let preds = |b: BlockId| -> Vec<BlockId> {
            blocks
                .iter()
                .copied()
                .filter(|&p| reach[p.index()] && func.successors(p).contains(&b))
                .collect()
        };
        for &a in &blocks {
            assert_eq!(dom.is_reachable(a), reach[a.index()], "seed {seed}: {a}");
            assert_eq!(dom.idom(a), idom(a), "seed {seed}: idom of {a}");
            for &b in &blocks {
                assert_eq!(
                    dom.dominates(a, b),
                    dominates(a, b),
                    "seed {seed}: {a} dom {b}"
                );
            }
            let children: Vec<BlockId> = blocks
                .iter()
                .copied()
                .filter(|&b| idom(b) == Some(a))
                .collect();
            assert_eq!(dom.children(a), children, "seed {seed}: children of {a}");
            // in reverse postorder, the order phi placement consumes
            let frontier: Vec<BlockId> = dom
                .reverse_postorder()
                .iter()
                .copied()
                .filter(|&b| !strictly(a, b) && preds(b).iter().any(|&p| dominates(a, p)))
                .collect();
            assert_eq!(dom.frontier(a), frontier, "seed {seed}: frontier of {a}");
        }
    }
}

#[test]
fn encoding_stats_are_consistent() {
    let cfg = GenConfig::default();
    for seed in 0..CASES {
        let m = generate(seed, &cfg).module;
        let stats = llva::core::bytecode::encoding_stats(&m);
        assert_eq!(
            stats.small_insts + stats.extended_insts,
            m.total_insts(),
            "seed {seed}"
        );
        assert!(stats.total_bytes > 0, "seed {seed}");
    }
}
