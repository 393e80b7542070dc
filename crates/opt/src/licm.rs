//! Loop-invariant code motion.
//!
//! Natural loops are discovered from back edges (`tail -> header` where
//! `header` dominates `tail`); pure instructions whose operands are all
//! defined outside the loop hoist into the block that enters the loop
//! from outside. Instructions that may trap (per the `ExceptionsEnabled`
//! attribute, §3.3) are *not* hoisted — executing them when the loop
//! body would never have run could introduce a spurious exception. This
//! is another place the paper's exception model directly buys the
//! translator optimization freedom: a `[noexc]` division hoists, a
//! trapping one does not.
//!
//! Hoisting never changes the CFG, so the CFG, dominators and loops are
//! computed once per function. Loops are visited innermost first, each in
//! one sweep over its blocks in reverse postorder: a definition is seen
//! before its uses, so a chain of invariants hoists in def order in the
//! same sweep, and what an inner loop hoists into its preheader is swept
//! again by the enclosing loop. Every order involved is a function of the
//! CFG, so the output does not depend on hashing.

use crate::pass::ModulePass;
use llva_core::dominators::{Cfg, DomTree};
use llva_core::function::{BlockId, Function};
use llva_core::instruction::{InstId, Opcode};
use llva_core::module::Module;
use llva_core::value::ValueData;

/// The LICM pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Licm {
    hoisted: usize,
}

impl Licm {
    /// Creates the pass.
    pub fn new() -> Licm {
        Licm::default()
    }

    /// Instructions hoisted in the last run (an instruction hoisted out
    /// of two nested loops counts twice).
    pub fn hoisted(&self) -> usize {
        self.hoisted
    }
}

/// A natural loop: its header and the blocks of its body.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// The loop header (dominates every block in the loop).
    pub header: BlockId,
    /// All blocks in the loop, including the header, in reverse
    /// postorder.
    pub blocks: Vec<BlockId>,
}

/// Finds all natural loops of a function from its back edges, innermost
/// first. Loops sharing a header are merged.
pub fn natural_loops(cfg: &Cfg, dom: &DomTree) -> Vec<NaturalLoop> {
    let rpo = dom.reverse_postorder();
    let mut found: Vec<(BlockId, Vec<bool>)> = Vec::new();
    for &b in rpo {
        for &header in cfg.succs(b) {
            if !dom.dominates(header, b) {
                continue;
            }
            // back edge b -> header: the body is what reaches b
            // backwards without passing the header
            let k = match found.iter().position(|(h, _)| *h == header) {
                Some(k) => k,
                None => {
                    found.push((header, vec![false; cfg.num_block_ids()]));
                    found.len() - 1
                }
            };
            let member = &mut found[k].1;
            member[header.index()] = true;
            let mut work = vec![b];
            while let Some(n) = work.pop() {
                if !std::mem::replace(&mut member[n.index()], true) {
                    work.extend(cfg.preds(n).iter().filter(|&&p| dom.is_reachable(p)));
                }
            }
        }
    }
    let mut loops: Vec<NaturalLoop> = found
        .into_iter()
        .map(|(header, member)| NaturalLoop {
            header,
            blocks: rpo.iter().copied().filter(|b| member[b.index()]).collect(),
        })
        .collect();
    // a nested loop has strictly fewer blocks than any loop around it
    loops.sort_by_key(|l| l.blocks.len());
    loops
}

impl ModulePass for Licm {
    fn name(&self) -> &'static str {
        "licm"
    }

    fn run(&mut self, module: &mut Module) -> bool {
        self.hoisted = 0;
        for fid in module.function_ids() {
            let func = module.function_mut(fid);
            if !func.is_declaration() {
                self.hoisted += run_function(func);
            }
        }
        self.hoisted > 0
    }
}

fn run_function(func: &mut Function) -> usize {
    let cfg = Cfg::new(func);
    let dom = DomTree::from_cfg(&cfg);
    let mut in_loop = vec![false; cfg.num_block_ids()];
    let mut hoisted = 0;
    for l in natural_loops(&cfg, &dom) {
        for &b in &l.blocks {
            in_loop[b.index()] = true;
        }
        if let Some(pre) = preheader(func, &cfg, &dom, &l, &in_loop) {
            // Detach each invariant as the sweep finds it: a detached
            // definition reads as outside the loop to its users.
            let mut moved: Vec<InstId> = Vec::new();
            for &b in &l.blocks {
                for i in func.block(b).insts().to_vec() {
                    if is_invariant(func, i, &in_loop) {
                        func.remove_inst(i);
                        moved.push(i);
                    }
                }
            }
            // re-lay the preheader once: invariants before its branch
            if !moved.is_empty() {
                let term = func.terminator(pre).expect("preheader ends in br");
                func.remove_inst(term);
                for &i in &moved {
                    func.reattach_inst(pre, i);
                }
                func.reattach_inst(pre, term);
                hoisted += moved.len();
            }
        }
        for &b in &l.blocks {
            in_loop[b.index()] = false;
        }
    }
    hoisted
}

/// The loop's unique predecessor from outside, if it enters the loop
/// with an unconditional branch (so it runs exactly when the loop is
/// entered and can hold hoisted code).
fn preheader(
    func: &Function,
    cfg: &Cfg,
    dom: &DomTree,
    l: &NaturalLoop,
    in_loop: &[bool],
) -> Option<BlockId> {
    let mut outside = cfg
        .preds(l.header)
        .iter()
        .copied()
        .filter(|&p| !in_loop[p.index()] && dom.is_reachable(p));
    let pre = outside.next()?;
    if outside.next().is_some() {
        return None;
    }
    let t = func.inst(func.terminator(pre)?);
    (t.opcode() == Opcode::Br && t.operands().is_empty()).then_some(pre)
}

/// Whether `i` is pure, cannot trap, and has every operand defined
/// outside the loop.
fn is_invariant(func: &Function, i: InstId, in_loop: &[bool]) -> bool {
    let inst = func.inst(i);
    let op = inst.opcode();
    let pure = (op.is_binary()
        || op.is_comparison()
        || matches!(op, Opcode::Cast | Opcode::GetElementPtr))
        && !inst.exceptions_enabled();
    pure && inst.operands().iter().all(|&v| match *func.value(v) {
        ValueData::Inst { inst: def, .. } => {
            func.inst_parent(def).is_none_or(|b| !in_loop[b.index()])
        }
        _ => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use llva_core::verifier::verify_module;

    fn parse(src: &str) -> Module {
        llva_core::parser::parse_module(src).expect("parses")
    }

    /// `%f` with one counted loop whose body block `b` is `body` (which
    /// must define `%i2`, the next induction value).
    fn single_loop(body: &str) -> Module {
        parse(&format!(
            r#"
int %f(int %n, int %k) {{
entry:
    br label %h
h:
    %i = phi int [ 0, %entry ], [ %i2, %b ]
    %c = setlt int %i, %n
    br bool %c, label %b, label %x
b:
{body}
    br label %h
x:
    ret int %i
}}
"#
        ))
    }

    /// Runs LICM, checks the result verifies, and returns the pass.
    fn hoist(m: &mut Module) -> Licm {
        let mut pass = Licm::new();
        pass.run(m);
        verify_module(m).expect("verifies after hoisting");
        pass
    }

    /// The opcodes of `%f`'s block `block`, in order.
    fn opcodes(m: &Module, block: &str) -> Vec<Opcode> {
        let func = m.function(m.function_by_name("f").expect("f"));
        let b = func
            .block_order()
            .iter()
            .copied()
            .find(|&b| func.block(b).name() == block)
            .expect("block");
        func.block(b)
            .insts()
            .iter()
            .map(|&i| func.inst(i).opcode())
            .collect()
    }

    #[test]
    fn finds_natural_loops() {
        let m = single_loop("    %i2 = add int %i, 1");
        let cfg = Cfg::new(m.function(m.function_by_name("f").expect("f")));
        let loops = natural_loops(&cfg, &DomTree::from_cfg(&cfg));
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].blocks.len(), 2); // header + body
    }

    #[test]
    fn hoists_invariant_computation() {
        let mut m = single_loop("    %inv = mul int %k, 37\n    %i2 = add int %i, %inv");
        assert_eq!(hoist(&mut m).hoisted(), 1);
        assert_eq!(opcodes(&m, "entry"), [Opcode::Mul, Opcode::Br]);
    }

    #[test]
    fn only_exception_free_division_hoists() {
        // paper §3.3: a trapping div must not execute speculatively, a
        // [noexc] one may
        for (div, hoists) in [("div", false), ("div [noexc]", true)] {
            let mut m = single_loop(&format!(
                "    %q = {div} int 100, %k\n    %i2 = add int %i, %q"
            ));
            hoist(&mut m);
            assert_eq!(opcodes(&m, "entry").contains(&Opcode::Div), hoists, "{div}");
        }
    }

    #[test]
    fn dependent_invariants_land_in_def_order() {
        let mut m = single_loop(
            "    %a1 = mul int %k, 3
    %a2 = sub int %a1, 5
    %a3 = xor int %a2, %a1
    %a4 = cast int %a3 to long
    %i2 = add int %i, %a3",
        );
        hoist(&mut m);
        let chain = [
            Opcode::Mul,
            Opcode::Sub,
            Opcode::Xor,
            Opcode::Cast,
            Opcode::Br,
        ];
        assert_eq!(opcodes(&m, "entry"), chain);
        assert_eq!(opcodes(&m, "b"), [Opcode::Add, Opcode::Br]);
    }

    #[test]
    fn nested_invariant_reaches_outermost_preheader_in_one_run() {
        let mut m = parse(
            r#"
int %f(int %n, int %k) {
entry:
    br label %oh
oh:
    %i = phi int [ 0, %entry ], [ %i2, %olatch ]
    %c = setlt int %i, %n
    br bool %c, label %opre, label %exit
opre:
    br label %ih
ih:
    %j = phi int [ 0, %opre ], [ %j2, %ib ]
    %d = setlt int %j, %n
    br bool %d, label %ib, label %olatch
ib:
    %inv = mul int %k, 37
    %j2 = add int %j, %inv
    br label %ih
olatch:
    %i2 = add int %i, 1
    br label %oh
exit:
    ret int %i
}
"#,
        );
        // out of the inner loop into `opre`, then out of the outer loop
        assert_eq!(hoist(&mut m).hoisted(), 2);
        assert_eq!(opcodes(&m, "entry"), [Opcode::Mul, Opcode::Br]);
        assert_eq!(opcodes(&m, "opre"), [Opcode::Br]);
        assert_eq!(hoist(&mut m).hoisted(), 0, "one run reaches the fixpoint");
    }

    #[test]
    fn conditional_preheader_hoists_nothing() {
        let mut m = parse(
            r#"
int %f(int %n, int %k, bool %p) {
entry:
    br bool %p, label %h, label %x
h:
    %i = phi int [ 0, %entry ], [ %i2, %b ]
    %c = setlt int %i, %n
    br bool %c, label %b, label %x
b:
    %inv = mul int %k, 37
    %i2 = add int %i, %inv
    br label %h
x:
    ret int %k
}
"#,
        );
        assert_eq!(hoist(&mut m).hoisted(), 0);
        assert_eq!(opcodes(&m, "b"), [Opcode::Mul, Opcode::Add, Opcode::Br]);
    }
}
