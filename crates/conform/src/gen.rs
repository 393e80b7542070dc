//! Seeded generation of well-typed LLVA modules with real structure.
//!
//! Every generated module passes the verifier *by construction*: the
//! generator only ever emits dominance-correct SSA, phi nodes whose
//! incoming lists exactly match their block's predecessors, guarded
//! division/remainder (divisor forced odd, hence nonzero), and masked
//! shift amounts. Programs are total and deterministic: loops run a
//! constant trip count, the call graph is a DAG (helper `hN` may only
//! call helpers with a smaller `N`), and all memory traffic goes
//! through `alloca` slots or module globals that exist by
//! construction.
//!
//! The shapes exercised (one per [`Step`] variant):
//!
//! * straight-line arithmetic with guarded `div`/`rem` and masked
//!   `shl`/`shr`,
//! * compare → `cast bool to long` chains and width-changing
//!   `cast long → int/ubyte → long` chains,
//! * `select` lowered as a CFG diamond + `phi`,
//! * constant-trip-count loops (`phi` recurrences with a back edge),
//! * `mbr` multi-way branches joined by a 4-way `phi`,
//! * loads/stores through `alloca` slots, scalar globals, and a global
//!   array indexed via `getelementptr`,
//! * direct calls into the helper DAG.

use crate::rng::Rng;
use llva_core::builder::FunctionBuilder;
use llva_core::layout::TargetConfig;
use llva_core::module::{FuncId, GlobalId, Initializer, Module};
use llva_core::value::{Constant, ValueData, ValueId};

/// Tuning knobs for the generator.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Maximum number of helper functions (callable from `f` and from
    /// later helpers).
    pub max_helpers: usize,
    /// Maximum number of steps per function body.
    pub max_steps: usize,
    /// Number of scalar `long` globals.
    pub num_globals: usize,
    /// Length of the global `long` array.
    pub array_len: u64,
    /// Number of `alloca` slots per function.
    pub num_slots: usize,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            max_helpers: 3,
            max_steps: 22,
            num_globals: 3,
            array_len: 8,
            num_slots: 2,
        }
    }
}

/// A generated test case: the module, its entry point, and the
/// arguments every oracle stage is run with.
#[derive(Debug, Clone)]
pub struct TestCase {
    /// The module (verifies by construction).
    pub module: Module,
    /// Entry function name (always `"f"`, signature `long(long, long)`).
    pub entry: String,
    /// Raw argument bits for the entry function.
    pub args: Vec<u64>,
}

/// Generates the test case for `seed`.
pub fn generate(seed: u64, cfg: &GenConfig) -> TestCase {
    let mut rng = Rng::new(seed ^ 0xC0F0_44A1_D1FF_5EED);
    let mut m = Module::new(format!("conform_{seed}"), TargetConfig::default());

    let long = m.types_mut().long();
    let mut globals = Vec::new();
    for i in 0..cfg.num_globals {
        let init = Constant::Int {
            ty: long,
            bits: rng.range(-100, 100) as u64,
        };
        globals.push(m.add_global(&format!("g{i}"), long, Initializer::Scalar(init), false));
    }
    let arr_ty = m.types_mut().array_of(long, cfg.array_len);
    let garr = m.add_global("garr", arr_ty, Initializer::Zero, false);

    let n_helpers = rng.index(cfg.max_helpers + 1);
    let mut helpers: Vec<FuncId> = Vec::new();
    for i in 0..n_helpers {
        let long = m.types_mut().long();
        let h = m.add_function(&format!("h{i}"), long, vec![long, long]);
        gen_function(&mut m, h, &mut rng, &helpers[..], &globals, garr, cfg);
        helpers.push(h);
    }
    let f = m.add_function("f", long, vec![long, long]);
    gen_function(&mut m, f, &mut rng, &helpers[..], &globals, garr, cfg);

    let args = vec![
        rng.range(-1000, 1000) as u64,
        if rng.chance(1, 4) {
            rng.next_u64()
        } else {
            rng.range(-1000, 1000) as u64
        },
    ];
    TestCase {
        module: m,
        entry: "f".to_string(),
        args,
    }
}

/// The step shapes; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Const,
    Bin,
    CmpCast,
    WidthCast,
    Select,
    Loop,
    Mbr,
    Slot,
    Global,
    Array,
    Call,
}

const STEPS: [Step; 11] = [
    Step::Const,
    Step::Bin,
    Step::CmpCast,
    Step::WidthCast,
    Step::Select,
    Step::Loop,
    Step::Mbr,
    Step::Slot,
    Step::Global,
    Step::Array,
    Step::Call,
];

fn gen_function(
    m: &mut Module,
    f: FuncId,
    rng: &mut Rng,
    callees: &[FuncId],
    globals: &[GlobalId],
    garr: GlobalId,
    cfg: &GenConfig,
) {
    let long = m.types_mut().long();
    let mut b = FunctionBuilder::new(m, f);
    let entry = b.block("entry");
    b.switch_to(entry);

    // `vals` holds long-typed values defined on the "spine": every one
    // dominates the current insertion point, because each step returns
    // control to a join block dominated by the block it started in.
    let mut vals: Vec<ValueId> = b.func().args().to_vec();
    let mut slots: Vec<ValueId> = Vec::new();
    for s in 0..cfg.num_slots {
        let slot = b.alloca(long);
        let init = vals[s % vals.len()];
        b.store(init, slot);
        slots.push(slot);
    }

    let mut label = 0usize;
    let mut fresh = move |prefix: &str| {
        label += 1;
        format!("{prefix}{label}")
    };

    let n_steps = 4 + rng.index(cfg.max_steps.saturating_sub(3).max(1));
    for _ in 0..n_steps {
        let pick = |rng: &mut Rng, vals: &[ValueId]| vals[rng.index(vals.len())];
        let step = STEPS[rng.index(STEPS.len())];
        match step {
            Step::Const => {
                let v = b.iconst(long, rng.range(-1000, 1000));
                vals.push(v);
            }
            Step::Bin => {
                let x = pick(rng, &vals);
                let y = pick(rng, &vals);
                let v = gen_binary(&mut b, rng, long, x, y);
                vals.push(v);
            }
            Step::CmpCast => {
                let x = pick(rng, &vals);
                let y = pick(rng, &vals);
                let c = match rng.index(6) {
                    0 => b.seteq(x, y),
                    1 => b.setne(x, y),
                    2 => b.setlt(x, y),
                    3 => b.setgt(x, y),
                    4 => b.setle(x, y),
                    _ => b.setge(x, y),
                };
                let v = b.cast(c, long);
                vals.push(v);
            }
            Step::WidthCast => {
                let x = pick(rng, &vals);
                let narrow = if rng.chance(1, 2) {
                    b.module().types_mut().int()
                } else {
                    b.module().types_mut().ubyte()
                };
                let t = b.cast(x, narrow);
                let v = b.cast(t, long);
                vals.push(v);
            }
            Step::Select => {
                // select(c, x, y) as a diamond + phi
                let cx = pick(rng, &vals);
                let cy = pick(rng, &vals);
                let x = pick(rng, &vals);
                let y = pick(rng, &vals);
                let c = b.setlt(cx, cy);
                let tb = b.block(&fresh("sel.t"));
                let eb = b.block(&fresh("sel.e"));
                let jb = b.block(&fresh("sel.j"));
                b.cond_br(c, tb, eb);
                b.switch_to(tb);
                b.br(jb);
                b.switch_to(eb);
                b.br(jb);
                b.switch_to(jb);
                let v = b.phi(long, vec![(x, tb), (y, eb)]);
                vals.push(v);
            }
            Step::Loop => {
                let v = gen_loop(&mut b, rng, long, &mut fresh, &vals);
                vals.push(v);
            }
            Step::Mbr => {
                let sel_src = pick(rng, &vals);
                let arms: Vec<ValueId> = (0..4).map(|_| pick(rng, &vals)).collect();
                let three = b.iconst(long, 3);
                let sel = b.and(sel_src, three);
                let c0 = b.block(&fresh("mbr.a"));
                let c1 = b.block(&fresh("mbr.b"));
                let c2 = b.block(&fresh("mbr.c"));
                let d = b.block(&fresh("mbr.d"));
                let jb = b.block(&fresh("mbr.j"));
                let k0 = b.iconst(long, 0);
                let k1 = b.iconst(long, 1);
                let k2 = b.iconst(long, 2);
                b.mbr(sel, d, vec![(k0, c0), (k1, c1), (k2, c2)]);
                for arm in [c0, c1, c2, d] {
                    b.switch_to(arm);
                    b.br(jb);
                }
                b.switch_to(jb);
                let incoming = [c0, c1, c2, d]
                    .into_iter()
                    .enumerate()
                    .map(|(i, arm)| (arms[i], arm))
                    .collect();
                let v = b.phi(long, incoming);
                vals.push(v);
            }
            Step::Slot => {
                if slots.is_empty() {
                    continue;
                }
                let slot = slots[rng.index(slots.len())];
                if rng.chance(1, 2) {
                    let x = pick(rng, &vals);
                    b.store(x, slot);
                } else {
                    let v = b.load(slot);
                    vals.push(v);
                }
            }
            Step::Global => {
                if globals.is_empty() {
                    continue;
                }
                let g = globals[rng.index(globals.len())];
                let addr = b.global_addr(g);
                if rng.chance(1, 2) {
                    let x = pick(rng, &vals);
                    b.store(x, addr);
                } else {
                    let v = b.load(addr);
                    vals.push(v);
                }
            }
            Step::Array => {
                let base = b.global_addr(garr);
                let idx = rng.index(cfg.array_len as usize) as i64;
                let p = b.gep_const(base, &[(0, false), (idx, false)]);
                if rng.chance(1, 2) {
                    let x = pick(rng, &vals);
                    b.store(x, p);
                } else {
                    let v = b.load(p);
                    vals.push(v);
                }
            }
            Step::Call => {
                if callees.is_empty() {
                    continue;
                }
                let callee = callees[rng.index(callees.len())];
                let x = pick(rng, &vals);
                let y = pick(rng, &vals);
                let v = b.call(callee, vec![x, y]).expect("helpers return long");
                vals.push(v);
            }
        }
    }

    let ret = *vals.last().expect("at least the arguments");
    b.ret(Some(ret));
}

/// A guarded binary operation: division/remainder force an odd (hence
/// nonzero) divisor, shifts mask the amount to `[0, 32)`.
fn gen_binary(
    b: &mut FunctionBuilder<'_>,
    rng: &mut Rng,
    long: llva_core::types::TypeId,
    x: ValueId,
    y: ValueId,
) -> ValueId {
    match rng.index(10) {
        0 => b.add(x, y),
        1 => b.sub(x, y),
        2 => b.mul(x, y),
        3 => {
            let one = b.iconst(long, 1);
            let nz = b.or(y, one);
            b.div(x, nz)
        }
        4 => {
            let one = b.iconst(long, 1);
            let nz = b.or(y, one);
            b.rem(x, nz)
        }
        5 => b.and(x, y),
        6 => b.or(x, y),
        7 => b.xor(x, y),
        8 => {
            let mask = b.iconst(long, 31);
            let sh = b.and(y, mask);
            b.shl(x, sh)
        }
        _ => {
            let mask = b.iconst(long, 31);
            let sh = b.and(y, mask);
            b.shr(x, sh)
        }
    }
}

/// A constant-trip-count accumulation loop:
///
/// ```text
/// pre:    br header
/// header: i   = phi [0, pre], [i+1, body]
///         acc = phi [init, pre], [acc', body]
///         br (i < trip), body, exit
/// body:   acc' = acc ⊕ step
///         br header
/// exit:   ... acc ...
/// ```
fn gen_loop(
    b: &mut FunctionBuilder<'_>,
    rng: &mut Rng,
    long: llva_core::types::TypeId,
    fresh: &mut impl FnMut(&str) -> String,
    vals: &[ValueId],
) -> ValueId {
    let trip_n = 1 + rng.range(0, 6);
    let init = vals[rng.index(vals.len())];
    let step_src = vals[rng.index(vals.len())];

    let zero = b.iconst(long, 0);
    let one = b.iconst(long, 1);
    let trip = b.iconst(long, trip_n);
    let pre = b.current_block();
    let header = b.block(&fresh("loop.h"));
    let body = b.block(&fresh("loop.b"));
    let exit = b.block(&fresh("loop.x"));
    b.br(header);

    b.switch_to(header);
    // back-edge operands are placeholders until the body exists
    let i_phi = b.phi(long, vec![(zero, pre), (zero, body)]);
    let acc_phi = b.phi(long, vec![(init, pre), (init, body)]);
    let c = b.setlt(i_phi, trip);
    b.cond_br(c, body, exit);

    b.switch_to(body);
    let acc_next = match rng.index(4) {
        0 => b.add(acc_phi, step_src),
        1 => b.xor(acc_phi, step_src),
        2 => b.sub(acc_phi, step_src),
        _ => {
            let m = b.mul(acc_phi, step_src);
            let c3 = b.iconst(long, 1021);
            b.rem(m, c3)
        }
    };
    let i_next = b.add(i_phi, one);
    b.br(header);

    // patch the back-edge phi operands
    patch_phi_operand(b, i_phi, 1, i_next);
    patch_phi_operand(b, acc_phi, 1, acc_next);

    b.switch_to(exit);
    acc_phi
}

/// Rewrites incoming operand `idx` of the phi that defines `phi_value`.
fn patch_phi_operand(b: &mut FunctionBuilder<'_>, phi_value: ValueId, idx: usize, v: ValueId) {
    let inst = match *b.func().value(phi_value) {
        ValueData::Inst { inst, .. } => inst,
        _ => panic!("phi value is not an instruction result"),
    };
    b.func_mut().set_operand(inst, idx, v);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_modules_verify() {
        let cfg = GenConfig::default();
        for seed in 0..64 {
            let tc = generate(seed, &cfg);
            llva_core::verifier::verify_module(&tc.module)
                .unwrap_or_else(|e| panic!("seed {seed}: generated module fails to verify:\n{e}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        let a = generate(12345, &cfg);
        let b = generate(12345, &cfg);
        assert_eq!(
            llva_core::printer::print_module(&a.module),
            llva_core::printer::print_module(&b.module)
        );
        assert_eq!(a.args, b.args);
    }

    #[test]
    fn structure_is_present_somewhere_in_the_seed_space() {
        // across a modest seed range we must see multi-block CFGs,
        // loops (back edges), phis, memory traffic, and calls
        let cfg = GenConfig::default();
        let (mut multi_block, mut has_phi, mut has_mem, mut has_call) = (false, false, false, false);
        for seed in 0..32 {
            let tc = generate(seed, &cfg);
            let text = llva_core::printer::print_module(&tc.module);
            for (_, func) in tc.module.functions() {
                if func.num_blocks() > 1 {
                    multi_block = true;
                }
            }
            has_phi |= text.contains("phi");
            has_mem |= text.contains("load") && text.contains("store");
            has_call |= text.contains("call");
        }
        assert!(multi_block && has_phi && has_mem && has_call);
    }
}
