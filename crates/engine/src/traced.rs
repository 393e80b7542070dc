//! The hot-trace tier: profile-guided trace compilation for the
//! [`FastInterpreter`](crate::predecode::FastInterpreter) (paper §4.2).
//!
//! > "The translator can ... use the CFG at runtime to perform path
//! > profiling within frequently executed loop regions while avoiding
//! > interpretation."
//!
//! The pre-decoded interpreter counts block entries on every CFG edge
//! it takes. When a block crosses the hot threshold, the counters feed
//! [`crate::trace::form_traces`] — the same software-trace-cache
//! algorithm the offline reoptimizer uses — and each formed trace is
//! compiled into a contiguous linear run of [`TraceOp`]s:
//!
//! * branches along the trace become **guards** carrying the hot
//!   edge's phi moves inline; a failed guard side-exits through the
//!   ordinary edge machinery back into the general dispatch loop;
//! * adjacent instructions fuse into **superinstructions** (`setcc`+
//!   `br`, `gep`+`load`, `gep`+`store`, op+`store`, `load`+op) that
//!   dispatch once but retire — and account for — both components;
//! * operands that are compile-time constants fold: chains of
//!   constant arithmetic collapse into one [`TraceOp::Consts`] write
//!   batch that still retires one instruction per folded write, so
//!   instruction counts match the structural interpreter exactly.
//!
//! Compiled traces are anchored at their head's flat PC; the dispatch
//! loop enters them with a single table lookup on block entry. Traces
//! never span calls — a cross-procedure trace from `form_traces` is
//! split at function boundaries and each segment anchors in its own
//! function, chaining naturally through the call/return path.
//!
//! Self-modifying code (§3.4) invalidates a function's traces together
//! with its pre-decoded body; live activations of a trace keep their
//! `Rc` and finish under the old code, exactly like the pre-decode
//! cache itself.

use crate::predecode::{GepStep, PreFunction, PreInst, PreModule, Src};
use crate::profile::{self, ProfileMap};
use crate::trace::form_traces;
use llva_core::eval::{self, CastKind, CmpClass};
use llva_core::instruction::Opcode;
use llva_core::module::FuncId;
use llva_machine::Width;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Tuning knobs for trace formation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Block-entry count at which trace formation triggers. Formation
    /// fires exactly when a counter *reaches* this value, so each block
    /// triggers at most one formation event.
    pub hot_threshold: u64,
    /// Maximum number of basic blocks per formed trace.
    pub max_blocks: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { hot_threshold: 32, max_blocks: 32 }
    }
}

/// Counters describing trace-tier activity, for tests and the benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Traces compiled and anchored (recompilations count again).
    pub traces_compiled: u64,
    /// Superinstructions emitted: fusions plus constant-folded writes.
    pub superinsts: u64,
    /// Times the dispatch loop entered a compiled trace.
    pub trace_entries: u64,
    /// Instructions retired inside compiled traces.
    pub trace_insts: u64,
    /// Guard failures that side-exited back to the dispatch loop.
    pub side_exits: u64,
    /// Anchors dropped by SMC invalidation.
    pub invalidated: u64,
    /// Anchors dropped as unprofitable (too few instructions retired
    /// per entry to cover the entry overhead).
    pub banned: u64,
}

/// How a compiled trace ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TraceEnd {
    /// The last block branches back to the trace head: loop in place.
    Loop,
    /// Fall back to the dispatch loop at `pc`. `block` is the target's
    /// arena index when the exit lands on a block head (so profiling
    /// and trace chaining continue), `None` for mid-block exits (calls,
    /// returns, untraceable instructions).
    Exit { pc: u32, block: Option<u32> },
}

/// Why and where a running trace returned control.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceExit {
    pub(crate) pc: u32,
    pub(crate) block: Option<u32>,
    /// True when a guard failed (cold edge taken), false for the
    /// trace's ordinary end.
    pub(crate) side: bool,
}

/// One operation of a compiled trace. Mirrors
/// [`PreInst`](crate::predecode::PreInst) minus control flow, plus the
/// fused superinstruction forms. Ops that can trap carry the flat PC of
/// the originating instruction so trap coordinates stay precise.
#[derive(Debug, Clone)]
pub(crate) enum TraceOp {
    /// Specialized hot integer ops (no opcode dispatch).
    Add { a: Src, b: Src, dst: u32, width: u32, signed: bool },
    Sub { a: Src, b: Src, dst: u32, width: u32, signed: bool },
    Mul { a: Src, b: Src, dst: u32, width: u32, signed: bool },
    /// Remaining infallible integer binary ops.
    IntBin { op: Opcode, a: Src, b: Src, dst: u32, width: u32, signed: bool },
    /// `div`/`rem` — the only integer ops that can trap.
    IntDiv { op: Opcode, a: Src, b: Src, dst: u32, width: u32, signed: bool, exc: bool, pc: u32 },
    FloatBin { op: Opcode, a: Src, b: Src, dst: u32, is32: bool },
    Cmp { op: Opcode, class: CmpClass, a: Src, b: Src, dst: u32 },
    Cast { src: Src, kind: CastKind, dst: u32 },
    Load { addr: Src, dst: u32, width: Width, signed: bool, exc: bool, pc: u32 },
    Store { val: Src, addr: Src, width: Width, exc: bool, pc: u32 },
    /// General GEP (may contain a `Trap` step).
    Gep { base: Src, steps: Box<[GepStep]>, dst: u32, pc: u32 },
    /// GEP normalized to `base + off + idx * size`.
    GepS { base: Src, off: u64, idx: Src, size: i64, dst: u32 },
    /// GEP folded to `base + offset`.
    GepConst { base: Src, offset: u64, dst: u32 },
    Alloca { count: Option<Src>, unit: u64, dst: u32, pc: u32 },
    /// Branch along the trace with no phi moves.
    Jump0,
    /// Branch along the trace with exactly one phi move.
    Jump1 { dst: u32, src: Src },
    /// Branch along the trace with a parallel phi-move batch.
    Moves { moves: Box<[(u32, Src)]> },
    /// Conditional branch whose `expect` side stays on the trace (hot
    /// phi moves inlined); the other side side-exits via edge `cold`.
    Guard { cond: Src, expect: bool, hot: Box<[(u32, Src)]>, cold: u32 },
    /// Fused `setcc` + `br`: retires two instructions.
    CmpBr {
        op: Opcode,
        class: CmpClass,
        a: Src,
        b: Src,
        dst: u32,
        expect: bool,
        hot: Box<[(u32, Src)]>,
        cold: u32,
    },
    /// Fused loop latch — integer op + `setcc` + `br` (the classic
    /// `i += step; cmp i, bound; br` sequence): retires three
    /// instructions with one dispatch.
    BinCmpBr {
        bop: Opcode,
        ba: Src,
        bb: Src,
        bdst: u32,
        bwidth: u32,
        bsigned: bool,
        cop: Opcode,
        class: CmpClass,
        ca: Src,
        cb: Src,
        cdst: u32,
        expect: bool,
        hot: Box<[(u32, Src)]>,
        cold: u32,
    },
    /// Fused `load` + integer op consuming the loaded value.
    LoadBin {
        op: Opcode,
        addr: Src,
        lwidth: Width,
        lsigned: bool,
        lexc: bool,
        ldst: u32,
        lpc: u32,
        other: Src,
        /// Whether the loaded value is the left operand of `op`.
        loaded_lhs: bool,
        dst: u32,
        width: u32,
        signed: bool,
    },
    /// Fused integer op + `store` of the result.
    BinStore {
        op: Opcode,
        a: Src,
        b: Src,
        tdst: u32,
        width: u32,
        signed: bool,
        addr: Src,
        swidth: Width,
        sexc: bool,
        spc: u32,
    },
    /// Fused `gep` + `load` through the computed address.
    GepLoad {
        base: Src,
        off: u64,
        idx: Option<(Src, i64)>,
        gdst: u32,
        dst: u32,
        width: Width,
        lsigned: bool,
        lexc: bool,
        lpc: u32,
    },
    /// Fused `gep` + `store` through the computed address.
    GepStore {
        val: Src,
        base: Src,
        off: u64,
        idx: Option<(Src, i64)>,
        gdst: u32,
        swidth: Width,
        sexc: bool,
        spc: u32,
    },
    /// Constant-folded chain: each write retires one original
    /// instruction (never empty).
    Consts { writes: Box<[(u32, u64)]> },
}

/// A trace compiled to straight-line [`TraceOp`]s, anchored at
/// `head_pc` in its function's flat instruction stream.
#[derive(Debug)]
pub(crate) struct CompiledTrace {
    pub(crate) ops: Vec<TraceOp>,
    pub(crate) end: TraceEnd,
    pub(crate) head_pc: u32,
    /// How many source blocks the trace was compiled from — installs
    /// skip recompiling a head whose anchored trace already covers at
    /// least as many blocks.
    pub(crate) src_blocks: u32,
    /// Instructions one full pass over `ops` retires. When at least
    /// this much fuel remains, the executor runs the pass without
    /// per-step fuel checks.
    pub(crate) pass_steps: u64,
    /// Trace sessions this trace opened (profitability probation — see
    /// [`TraceEngine::note_trace_profit`]).
    pub(crate) entered: Cell<u32>,
    /// Instructions retired by sessions this trace opened.
    pub(crate) retired: Cell<u64>,
}

/// Per-function trace-tier state.
struct FuncState {
    /// Entry counts per block arena index.
    counts: Vec<u64>,
    /// Compiled traces by head flat PC.
    anchors: Vec<Option<Rc<CompiledTrace>>>,
    /// Head PCs whose traces were banned as unprofitable (too few
    /// instructions retired per entry): never re-anchored.
    banned: HashSet<u32>,
}

/// The trace engine: profile counters, the anchor tables, and the
/// trace compiler. Owned by a `FastInterpreter` (boxed, so the
/// untraced configuration pays one null check).
pub struct TraceEngine {
    config: TraceConfig,
    funcs: Vec<Option<FuncState>>,
    /// Lazily built block-index map for `form_traces` (no
    /// instrumentation globals — the counters live here, not in the
    /// module).
    map: Option<ProfileMap>,
    stats: TraceStats,
}

impl TraceEngine {
    /// Creates an engine with the given formation thresholds.
    pub fn new(config: TraceConfig) -> TraceEngine {
        TraceEngine { config, funcs: Vec::new(), map: None, stats: TraceStats::default() }
    }

    /// Activity counters so far.
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut TraceStats {
        &mut self.stats
    }

    /// Drops all counters and compiled traces of `func` (SMC edit,
    /// §3.4). Live activations keep their `Rc` and finish under the
    /// old code, exactly like the pre-decode cache.
    pub fn invalidate(&mut self, func: usize) {
        if let Some(Some(st)) = self.funcs.get_mut(func).map(Option::take) {
            self.stats.invalidated += st.anchors.iter().filter(|a| a.is_some()).count() as u64;
        }
    }

    /// Bumps the entry counter of `(func, block)`. Returns true exactly
    /// when the counter reaches the hot threshold — the caller should
    /// then run trace formation. Counters saturate one past the
    /// threshold, so blocks that already fired stop dirtying their
    /// cache line on every entry.
    #[inline]
    pub(crate) fn note_block_entry(&mut self, func: u32, block: u32, pf: &PreFunction) -> bool {
        let th = self.config.hot_threshold;
        let st = self.state_mut(func, pf);
        match st.counts.get_mut(block as usize) {
            Some(c) => {
                if *c <= th {
                    *c += 1;
                }
                *c == th
            }
            None => false,
        }
    }

    /// The dispatch loop's combined per-edge hook: bump the target
    /// block's entry counter and check for an anchored trace at `pc` in
    /// one per-function lookup. Returns `(hot, anchored)`.
    #[inline]
    pub(crate) fn edge_event(
        &mut self,
        func: u32,
        block: u32,
        pc: u32,
        pf: &PreFunction,
    ) -> (bool, bool) {
        let th = self.config.hot_threshold;
        let st = self.state_mut(func, pf);
        let hot = match st.counts.get_mut(block as usize) {
            Some(c) => {
                if *c <= th {
                    *c += 1;
                }
                *c == th
            }
            None => false,
        };
        let anchored = st.anchors.get(pc as usize).is_some_and(Option::is_some);
        (hot, anchored)
    }

    /// The compiled trace anchored at `(func, pc)`, if any.
    #[inline]
    pub(crate) fn anchor(&self, func: u32, pc: u32) -> Option<Rc<CompiledTrace>> {
        self.funcs
            .get(func as usize)?
            .as_ref()?
            .anchors
            .get(pc as usize)?
            .clone()
    }

    /// True when a compiled trace is anchored at `(func, pc)` — the
    /// dispatch loop's fast reject, with no `Rc` traffic.
    #[inline]
    pub(crate) fn has_anchor(&self, func: u32, pc: u32) -> bool {
        self.funcs
            .get(func as usize)
            .and_then(Option::as_ref)
            .is_some_and(|st| st.anchors.get(pc as usize).is_some_and(Option::is_some))
    }

    /// Runs trace formation over the current counters and compiles
    /// every formed trace. Called when `(func, block)` just crossed the
    /// hot threshold.
    pub(crate) fn form_and_compile(&mut self, pre: &PreModule<'_>, func: u32, block: u32) {
        if self.map.is_none() {
            self.map = Some(profile::index_only(pre.module()));
        }
        let segments = {
            let map = self.map.as_ref().expect("just built");
            let mut counts = vec![0u64; map.len];
            for (&(fid, bid), &i) in &map.index {
                if let Some(Some(st)) = self.funcs.get(fid.index()) {
                    if let Some(&c) = st.counts.get(bid.index()) {
                        counts[i] = c;
                    }
                }
            }
            let cache = form_traces(
                pre.module(),
                map,
                &counts,
                self.config.hot_threshold,
                self.config.max_blocks,
            );
            // split cross-procedure traces at function boundaries: each
            // segment anchors in its own function and the segments chain
            // through the ordinary call/return path
            let mut segs: Vec<(u32, Vec<u32>)> = Vec::new();
            for t in cache.traces() {
                let mut cur: Option<(u32, Vec<u32>)> = None;
                for &(fid, bid) in &t.blocks {
                    let f = fid.index() as u32;
                    match &mut cur {
                        Some((cf, seg)) if *cf == f => seg.push(bid.index() as u32),
                        _ => {
                            if let Some(done) = cur.take() {
                                segs.push(done);
                            }
                            cur = Some((f, vec![bid.index() as u32]));
                        }
                    }
                }
                if let Some(done) = cur.take() {
                    segs.push(done);
                }
            }
            segs
        };
        for (f, seg) in segments {
            self.install(pre, f, &seg);
        }
        // form_traces requires two blocks, but a self-looping block is
        // the hottest possible trace head — compile it alone
        self.install_self_loop(pre, func, block);
    }

    fn install(&mut self, pre: &PreModule<'_>, func: u32, seg: &[u32]) {
        if pre.is_declaration.get(func as usize).copied().unwrap_or(true) {
            return;
        }
        let pf = pre.get(FuncId::from_index(func as usize));
        // the trace stops at every call; anchor a continuation trace at
        // each post-call resume point so the return re-enters compiled
        // code mid-block instead of interpreting the block's tail
        let mut blocks = seg;
        let mut skip = 0u32;
        loop {
            let Some(&(start, n)) = blocks.first().and_then(|&b| pf.block_span.get(b as usize))
            else {
                return;
            };
            if skip >= n {
                return;
            }
            let head_pc = start + skip;
            // formation re-fires every time another block crosses the
            // threshold; skip banned heads, and heads whose anchored
            // trace already covers at least as many blocks (instead of
            // recompiling equal code)
            let fresh = !self.is_banned(func, head_pc)
                && match self.anchor(func, head_pc) {
                    Some(old) => (old.src_blocks as usize) < blocks.len(),
                    None => true,
                };
            let cont = if fresh {
                let (ct, cont) = compile_range(&pf, blocks, skip, &mut self.stats);
                if let Some(ct) = ct {
                    let head = ct.head_pc as usize;
                    let st = self.state_mut(func, &pf);
                    st.anchors[head] = Some(Rc::new(ct));
                    self.stats.traces_compiled += 1;
                }
                cont
            } else {
                // still walk past the call sites so continuations that
                // are missing (e.g. dropped by worthiness) get a chance
                compile_range(&pf, blocks, skip, &mut self.stats).1
            };
            let Some((bi, off)) = cont else {
                return;
            };
            blocks = &blocks[bi..];
            skip = off + 1;
        }
    }

    fn install_self_loop(&mut self, pre: &PreModule<'_>, func: u32, block: u32) {
        if pre.is_declaration.get(func as usize).copied().unwrap_or(true) {
            return;
        }
        let pf = pre.get(FuncId::from_index(func as usize));
        let Some(&(start, n)) = pf.block_span.get(block as usize) else {
            return;
        };
        if n == 0 || self.anchor(func, start).is_some() {
            return;
        }
        let term = &pf.insts[(start + n - 1) as usize];
        let self_loop = match term {
            PreInst::Jump { edge } => pf.edges[*edge as usize].target_block == block,
            PreInst::BrCond { then_edge, else_edge, .. } => {
                pf.edges[*then_edge as usize].target_block == block
                    || pf.edges[*else_edge as usize].target_block == block
            }
            _ => false,
        };
        if !self_loop {
            return;
        }
        self.install(pre, func, &[block]);
    }

    fn state_mut(&mut self, func: u32, pf: &PreFunction) -> &mut FuncState {
        let f = func as usize;
        if self.funcs.len() <= f {
            self.funcs.resize_with(f + 1, || None);
        }
        self.funcs[f].get_or_insert_with(|| FuncState {
            counts: vec![0; pf.block_span.len()],
            anchors: vec![None; pf.insts.len()],
            banned: HashSet::new(),
        })
    }

    /// True when the head pc was banned as unprofitable.
    fn is_banned(&self, func: u32, pc: u32) -> bool {
        self.funcs
            .get(func as usize)
            .and_then(Option::as_ref)
            .is_some_and(|st| st.banned.contains(&pc))
    }

    /// Records one trace *session* that `tr` opened and that retired
    /// `retired` instructions in total (including chained traces). A
    /// trace that leaves its probation with a poor average gets its
    /// anchor dropped and its head pc banned from re-anchoring: opening
    /// a session for its few instructions costs more than running them
    /// under the general loop saves.
    pub(crate) fn note_trace_profit(&mut self, func: u32, tr: &CompiledTrace, retired: u64) {
        /// Sessions after which profitability is judged.
        const PROBATION_ENTRIES: u32 = 128;
        /// Minimum average instructions retired per session.
        const MIN_RETIRED_PER_ENTRY: u64 = 8;
        let e = tr.entered.get() + 1;
        tr.entered.set(e);
        tr.retired.set(tr.retired.get() + retired);
        if e == PROBATION_ENTRIES
            && tr.retired.get() < u64::from(e) * MIN_RETIRED_PER_ENTRY
        {
            if let Some(Some(st)) = self.funcs.get_mut(func as usize) {
                if let Some(a) = st.anchors.get_mut(tr.head_pc as usize) {
                    *a = None;
                }
                st.banned.insert(tr.head_pc);
                self.stats.banned += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The trace compiler
// ---------------------------------------------------------------------------

struct SegCompiler<'a> {
    pre: &'a PreFunction,
    ops: Vec<TraceOp>,
    /// Registers known to hold a compile-time constant at the current
    /// point of the trace. Every write along the trace re-establishes
    /// its entry, so the map stays valid across the loop back-edge.
    consts: HashMap<u32, u64>,
    stats: &'a mut TraceStats,
}

/// How many instructions one execution of a trace op retires (fused
/// superinstructions retire each original instruction they absorbed).
fn op_steps(op: &TraceOp) -> u64 {
    match op {
        TraceOp::CmpBr { .. }
        | TraceOp::LoadBin { .. }
        | TraceOp::BinStore { .. }
        | TraceOp::GepLoad { .. }
        | TraceOp::GepStore { .. } => 2,
        TraceOp::BinCmpBr { .. } => 3,
        TraceOp::Consts { writes } => writes.len() as u64,
        _ => 1,
    }
}

/// Compiles a run of consecutive same-function blocks — starting `skip`
/// instructions into the head block — into a [`CompiledTrace`] (`None`
/// when nothing worth anchoring comes out). Also reports the first
/// plain call the walk stopped at, as `(index into blocks, instruction
/// offset within that block)`, so the caller can anchor a continuation
/// trace at the post-call resume point.
fn compile_range(
    pre: &PreFunction,
    blocks: &[u32],
    skip: u32,
    stats: &mut TraceStats,
) -> (Option<CompiledTrace>, Option<(usize, u32)>) {
    let Some(head) = blocks.first().copied() else {
        return (None, None);
    };
    let Some(&(head_start, head_n)) = pre.block_span.get(head as usize) else {
        return (None, None);
    };
    if skip >= head_n {
        return (None, None);
    }
    let head_pc = head_start + skip;
    // a trace entered mid-block cannot loop back to its own anchor: the
    // back-edge targets the block *head*, which is upstream of it
    let can_loop = skip == 0;
    let mut c = SegCompiler { pre, ops: Vec::new(), consts: HashMap::new(), stats };
    let mut end = None;
    let mut cont = None;
    'blocks: for (bi, &b) in blocks.iter().enumerate() {
        let Some(&(start, n)) = pre.block_span.get(b as usize) else {
            break;
        };
        if n == 0 {
            break;
        }
        let next = blocks.get(bi + 1).copied();
        let first = if bi == 0 { start + skip } else { start };
        for pc in first..start + n {
            let inst = &pre.insts[pc as usize];
            match inst {
                PreInst::Jump { edge } => {
                    let e = *edge;
                    let eg = &pre.edges[e as usize];
                    if eg.trap {
                        // the edge raises Software unconditionally: leave
                        // it to the dispatch loop for exact coordinates
                        end = Some(TraceEnd::Exit { pc, block: None });
                        break 'blocks;
                    }
                    let tgt = eg.target_block;
                    c.emit_jump(e);
                    if next == Some(tgt) {
                        continue; // follow the trace into the next block
                    }
                    end = Some(if tgt == head && next.is_none() && can_loop {
                        TraceEnd::Loop
                    } else {
                        TraceEnd::Exit { pc: eg.target_pc, block: Some(tgt) }
                    });
                    break 'blocks;
                }
                PreInst::BrCond { cond, then_edge, else_edge } => {
                    if next.is_none() && !can_loop {
                        // mid-block continuation reaching the back-edge:
                        // end before the branch, dispatch loop takes it
                        end = Some(TraceEnd::Exit { pc, block: None });
                        break 'blocks;
                    }
                    let want = next.unwrap_or(head);
                    let (hot, cold, expect) =
                        if pre.edges[*then_edge as usize].target_block == want {
                            (*then_edge, *else_edge, true)
                        } else if pre.edges[*else_edge as usize].target_block == want {
                            (*else_edge, *then_edge, false)
                        } else {
                            // neither side continues the trace
                            end = Some(TraceEnd::Exit { pc, block: None });
                            break 'blocks;
                        };
                    if !c.emit_guard(cond, expect, hot, cold) {
                        end = Some(TraceEnd::Exit { pc, block: None });
                        break 'blocks;
                    }
                    if next.is_none() {
                        end = Some(TraceEnd::Loop);
                        break 'blocks;
                    }
                }
                PreInst::Call { normal_edge, .. } => {
                    // a plain call resumes at pc + 1: report it so a
                    // continuation trace gets anchored there (invokes
                    // resume through an edge to a block head, which the
                    // ordinary anchoring already covers)
                    if normal_edge.is_none() {
                        cont = Some((bi, pc - start));
                    }
                    end = Some(TraceEnd::Exit { pc, block: None });
                    break 'blocks;
                }
                PreInst::Ret { .. }
                | PreInst::Mbr { .. }
                | PreInst::Unwind
                | PreInst::AlwaysTrap { .. } => {
                    // returns, multiway branches, and guaranteed traps
                    // end the trace; the dispatch loop resumes exactly
                    // at this instruction
                    end = Some(TraceEnd::Exit { pc, block: None });
                    break 'blocks;
                }
                _ => {
                    if !c.emit_linear(pc, inst) {
                        end = Some(TraceEnd::Exit { pc, block: None });
                        break 'blocks;
                    }
                }
            }
        }
    }
    let end = end.unwrap_or(TraceEnd::Exit { pc: head_pc, block: None });
    // only anchor traces that amortize their entry cost
    if c.ops.is_empty() || (!matches!(end, TraceEnd::Loop) && c.ops.len() < 2) {
        return (None, cont);
    }
    let pass_steps = c.ops.iter().map(op_steps).sum();
    (
        Some(CompiledTrace {
            ops: c.ops,
            end,
            head_pc,
            src_blocks: blocks.len() as u32,
            pass_steps,
            entered: Cell::new(0),
            retired: Cell::new(0),
        }),
        cont,
    )
}

impl SegCompiler<'_> {
    /// Resolves a source against the constant map (register → immediate
    /// upgrade when the register's value is known).
    fn res(&self, s: Src) -> Src {
        match s {
            Src::Reg(r) => self.consts.get(&r).map_or(s, |&v| Src::Imm(v)),
            Src::Imm(_) => s,
        }
    }

    /// Marks `dst` as written with a non-constant value.
    fn kill(&mut self, dst: u32) {
        self.consts.remove(&dst);
    }

    /// Records a constant-folded write: the register still gets written
    /// at runtime (side exits and later code must see it), batched into
    /// a trailing [`TraceOp::Consts`].
    fn set_const(&mut self, dst: u32, v: u64) {
        self.consts.insert(dst, v);
        self.stats.superinsts += 1;
        if let Some(TraceOp::Consts { writes }) = self.ops.last_mut() {
            let mut w = std::mem::take(writes).into_vec();
            w.push((dst, v));
            *writes = w.into_boxed_slice();
        } else {
            self.ops.push(TraceOp::Consts { writes: Box::new([(dst, v)]) });
        }
    }

    /// Resolves an edge's parallel move list against the constant map
    /// and updates the map (all sources read the pre-move state).
    fn compile_moves(&mut self, moves: &[(u32, Src)]) -> Box<[(u32, Src)]> {
        let resolved: Vec<(u32, Src)> =
            moves.iter().map(|&(d, s)| (d, self.res(s))).collect();
        for &(d, s) in &resolved {
            match s {
                Src::Imm(v) => {
                    self.consts.insert(d, v);
                }
                Src::Reg(_) => {
                    self.consts.remove(&d);
                }
            }
        }
        resolved.into_boxed_slice()
    }

    /// Emits an on-trace branch (the edge's phi moves inline). The edge
    /// must not be trap-flagged.
    fn emit_jump(&mut self, e: u32) {
        let moves = self.compile_moves(&self.pre.edges[e as usize].moves.clone());
        match *moves {
            [] => self.ops.push(TraceOp::Jump0),
            [(dst, src)] => self.ops.push(TraceOp::Jump1 { dst, src }),
            _ => self.ops.push(TraceOp::Moves { moves }),
        }
    }

    /// Emits a guard keeping the `hot` edge on-trace. Returns false when
    /// the hot edge is trap-flagged (the trace must end instead — the
    /// dispatch loop raises the exact trap).
    fn emit_guard(&mut self, cond: &Src, expect: bool, hot: u32, cold: u32) -> bool {
        if self.pre.edges[hot as usize].trap {
            return false;
        }
        // the branch reads its condition before the phi moves run
        let cond = self.res(*cond);
        let moves = self.compile_moves(&self.pre.edges[hot as usize].moves.clone());
        // fuse with an immediately preceding compare of the same register
        if let (Src::Reg(cr), Some(TraceOp::Cmp { dst, .. })) = (cond, self.ops.last()) {
            if *dst == cr {
                let Some(TraceOp::Cmp { op, class, a, b, dst }) = self.ops.pop() else {
                    unreachable!("just matched");
                };
                // latch fusion: the compare reads the result of the
                // integer op right before it (`i += step; cmp i, n; br`)
                let feeds = |s: Src, d: u32| matches!(s, Src::Reg(r) if r == d);
                let bin = match self.ops.last() {
                    Some(&TraceOp::Add { a: ba, b: bb, dst: bd, width, signed })
                        if feeds(a, bd) || feeds(b, bd) =>
                    {
                        Some((Opcode::Add, ba, bb, bd, width, signed))
                    }
                    Some(&TraceOp::Sub { a: ba, b: bb, dst: bd, width, signed })
                        if feeds(a, bd) || feeds(b, bd) =>
                    {
                        Some((Opcode::Sub, ba, bb, bd, width, signed))
                    }
                    Some(&TraceOp::Mul { a: ba, b: bb, dst: bd, width, signed })
                        if feeds(a, bd) || feeds(b, bd) =>
                    {
                        Some((Opcode::Mul, ba, bb, bd, width, signed))
                    }
                    Some(&TraceOp::IntBin { op: bop, a: ba, b: bb, dst: bd, width, signed })
                        if feeds(a, bd) || feeds(b, bd) =>
                    {
                        Some((bop, ba, bb, bd, width, signed))
                    }
                    _ => None,
                };
                if let Some((bop, ba, bb, bdst, bwidth, bsigned)) = bin {
                    self.ops.pop();
                    self.stats.superinsts += 2;
                    self.ops.push(TraceOp::BinCmpBr {
                        bop,
                        ba,
                        bb,
                        bdst,
                        bwidth,
                        bsigned,
                        cop: op,
                        class,
                        ca: a,
                        cb: b,
                        cdst: dst,
                        expect,
                        hot: moves,
                        cold,
                    });
                    return true;
                }
                self.stats.superinsts += 1;
                self.ops.push(TraceOp::CmpBr {
                    op,
                    class,
                    a,
                    b,
                    dst,
                    expect,
                    hot: moves,
                    cold,
                });
                return true;
            }
        }
        self.ops.push(TraceOp::Guard { cond, expect, hot: moves, cold });
        true
    }

    /// Emits one non-control-flow instruction, folding and fusing where
    /// possible. Returns false for instructions the trace cannot carry.
    fn emit_linear(&mut self, pc: u32, inst: &PreInst) -> bool {
        match inst {
            PreInst::IntBin { op, a, b, dst, width, signed } => {
                let (a, b) = (self.res(*a), self.res(*b));
                if let (Src::Imm(x), Src::Imm(y)) = (a, b) {
                    self.set_const(*dst, eval::int_binary(*op, x, y, *width, *signed).unwrap_or(0));
                    return true;
                }
                self.kill(*dst);
                // fuse with an immediately preceding load feeding this op
                if let Some(&TraceOp::Load {
                    addr, dst: ldst, width: lwidth, signed: lsigned, exc: lexc, pc: lpc,
                }) = self.ops.last()
                {
                    let loaded = Src::Reg(ldst);
                    if a == loaded || b == loaded {
                        self.ops.pop();
                        self.stats.superinsts += 1;
                        self.ops.push(TraceOp::LoadBin {
                            op: *op,
                            addr,
                            lwidth,
                            lsigned,
                            lexc,
                            ldst,
                            lpc,
                            other: if a == loaded { b } else { a },
                            loaded_lhs: a == loaded,
                            dst: *dst,
                            width: *width,
                            signed: *signed,
                        });
                        return true;
                    }
                }
                self.ops.push(match op {
                    Opcode::Add => {
                        TraceOp::Add { a, b, dst: *dst, width: *width, signed: *signed }
                    }
                    Opcode::Sub => {
                        TraceOp::Sub { a, b, dst: *dst, width: *width, signed: *signed }
                    }
                    Opcode::Mul => {
                        TraceOp::Mul { a, b, dst: *dst, width: *width, signed: *signed }
                    }
                    _ => TraceOp::IntBin {
                        op: *op,
                        a,
                        b,
                        dst: *dst,
                        width: *width,
                        signed: *signed,
                    },
                });
            }
            PreInst::IntDiv { op, a, b, dst, width, signed, exc } => {
                let (a, b) = (self.res(*a), self.res(*b));
                if let (Src::Imm(x), Src::Imm(y)) = (a, b) {
                    match eval::int_binary(*op, x, y, *width, *signed) {
                        Some(v) => {
                            self.set_const(*dst, v);
                            return true;
                        }
                        None if !*exc => {
                            self.set_const(*dst, 0);
                            return true;
                        }
                        // a guaranteed DivideByZero: leave it to the
                        // dispatch loop
                        None => return false,
                    }
                }
                self.kill(*dst);
                self.ops.push(TraceOp::IntDiv {
                    op: *op,
                    a,
                    b,
                    dst: *dst,
                    width: *width,
                    signed: *signed,
                    exc: *exc,
                    pc,
                });
            }
            PreInst::FloatBin { op, a, b, dst, is32 } => {
                let (a, b) = (self.res(*a), self.res(*b));
                self.kill(*dst);
                self.ops.push(TraceOp::FloatBin { op: *op, a, b, dst: *dst, is32: *is32 });
            }
            PreInst::Cmp { op, class, a, b, dst } => {
                let (a, b) = (self.res(*a), self.res(*b));
                if let (Src::Imm(x), Src::Imm(y)) = (a, b) {
                    self.set_const(*dst, u64::from(eval::compare(*op, *class, x, y)));
                    return true;
                }
                self.kill(*dst);
                self.ops.push(TraceOp::Cmp { op: *op, class: *class, a, b, dst: *dst });
            }
            PreInst::Cast { src, kind, dst } => {
                let src = self.res(*src);
                if let Src::Imm(v) = src {
                    self.set_const(*dst, eval::cast(*kind, v));
                    return true;
                }
                self.kill(*dst);
                self.ops.push(TraceOp::Cast { src, kind: *kind, dst: *dst });
            }
            PreInst::Load { addr, dst, width, signed, exc } => {
                let addr = self.res(*addr);
                self.kill(*dst);
                // fuse with an immediately preceding address computation
                if let Src::Reg(ar) = addr {
                    match self.ops.last() {
                        Some(&TraceOp::GepConst { base, offset, dst: gdst }) if gdst == ar => {
                            self.ops.pop();
                            self.stats.superinsts += 1;
                            self.ops.push(TraceOp::GepLoad {
                                base,
                                off: offset,
                                idx: None,
                                gdst,
                                dst: *dst,
                                width: *width,
                                lsigned: *signed,
                                lexc: *exc,
                                lpc: pc,
                            });
                            return true;
                        }
                        Some(&TraceOp::GepS { base, off, idx, size, dst: gdst })
                            if gdst == ar =>
                        {
                            self.ops.pop();
                            self.stats.superinsts += 1;
                            self.ops.push(TraceOp::GepLoad {
                                base,
                                off,
                                idx: Some((idx, size)),
                                gdst,
                                dst: *dst,
                                width: *width,
                                lsigned: *signed,
                                lexc: *exc,
                                lpc: pc,
                            });
                            return true;
                        }
                        _ => {}
                    }
                }
                self.ops.push(TraceOp::Load {
                    addr,
                    dst: *dst,
                    width: *width,
                    signed: *signed,
                    exc: *exc,
                    pc,
                });
            }
            PreInst::Store { val, addr, width, exc } => {
                let (val, addr) = (self.res(*val), self.res(*addr));
                // fuse with the op producing the stored value…
                if let (Src::Reg(vr), Some(last)) = (val, self.ops.last()) {
                    if let Some((op, a, b, tdst, w, s)) = as_int_op(last) {
                        if tdst == vr {
                            self.ops.pop();
                            self.stats.superinsts += 1;
                            self.ops.push(TraceOp::BinStore {
                                op,
                                a,
                                b,
                                tdst,
                                width: w,
                                signed: s,
                                addr,
                                swidth: *width,
                                sexc: *exc,
                                spc: pc,
                            });
                            return true;
                        }
                    }
                }
                // …or with the address computation
                if let Src::Reg(ar) = addr {
                    match self.ops.last() {
                        Some(&TraceOp::GepConst { base, offset, dst: gdst }) if gdst == ar => {
                            self.ops.pop();
                            self.stats.superinsts += 1;
                            self.ops.push(TraceOp::GepStore {
                                val,
                                base,
                                off: offset,
                                idx: None,
                                gdst,
                                swidth: *width,
                                sexc: *exc,
                                spc: pc,
                            });
                            return true;
                        }
                        Some(&TraceOp::GepS { base, off, idx, size, dst: gdst })
                            if gdst == ar =>
                        {
                            self.ops.pop();
                            self.stats.superinsts += 1;
                            self.ops.push(TraceOp::GepStore {
                                val,
                                base,
                                off,
                                idx: Some((idx, size)),
                                gdst,
                                swidth: *width,
                                sexc: *exc,
                                spc: pc,
                            });
                            return true;
                        }
                        _ => {}
                    }
                }
                self.ops.push(TraceOp::Store { val, addr, width: *width, exc: *exc, pc });
            }
            PreInst::Gep { base, steps, dst } => {
                self.emit_gep(pc, *base, steps, *dst);
            }
            PreInst::GepConst { base, offset, dst } => {
                let base = self.res(*base);
                if let Src::Imm(b) = base {
                    self.set_const(*dst, b.wrapping_add(*offset));
                    return true;
                }
                self.kill(*dst);
                self.ops.push(TraceOp::GepConst { base, offset: *offset, dst: *dst });
            }
            PreInst::Alloca { count, unit, dst } => {
                let count = count.map(|c| self.res(c));
                self.kill(*dst);
                self.ops.push(TraceOp::Alloca { count, unit: *unit, dst: *dst, pc });
            }
            // control flow is handled by the segment walker
            PreInst::Jump { .. }
            | PreInst::BrCond { .. }
            | PreInst::Mbr { .. }
            | PreInst::Ret { .. }
            | PreInst::Call { .. }
            | PreInst::Unwind
            | PreInst::AlwaysTrap { .. } => return false,
        }
        true
    }

    /// Normalizes a general GEP: resolve indices, fold constant steps,
    /// and pick the cheapest addressing form.
    fn emit_gep(&mut self, pc: u32, base: Src, steps: &[GepStep], dst: u32) {
        let base = self.res(base);
        let mut norm: Vec<GepStep> = Vec::with_capacity(steps.len());
        let mut trapped = false;
        for &step in steps {
            let step = match step {
                GepStep::Scaled { idx, size } => match self.res(idx) {
                    Src::Imm(k) => GepStep::Const((k as i64).wrapping_mul(size) as u64),
                    idx => GepStep::Scaled { idx, size },
                },
                other => other,
            };
            match (norm.last_mut(), step) {
                (Some(GepStep::Const(acc)), GepStep::Const(off)) => {
                    *acc = acc.wrapping_add(off);
                }
                (_, s) => {
                    if matches!(s, GepStep::Trap) {
                        trapped = true;
                    }
                    norm.push(s);
                }
            }
        }
        self.kill(dst);
        if trapped {
            self.ops.push(TraceOp::Gep { base, steps: norm.into_boxed_slice(), dst, pc });
            return;
        }
        match (base, norm.as_slice()) {
            (Src::Imm(b), []) => self.set_const(dst, b),
            (Src::Imm(b), [GepStep::Const(off)]) => self.set_const(dst, b.wrapping_add(*off)),
            (_, []) => self.ops.push(TraceOp::GepConst { base, offset: 0, dst }),
            (_, [GepStep::Const(off)]) => {
                self.ops.push(TraceOp::GepConst { base, offset: *off, dst });
            }
            (_, [GepStep::Scaled { idx, size }]) => {
                self.ops.push(TraceOp::GepS { base, off: 0, idx: *idx, size: *size, dst });
            }
            (_, [GepStep::Const(off), GepStep::Scaled { idx, size }])
            | (_, [GepStep::Scaled { idx, size }, GepStep::Const(off)]) => {
                self.ops.push(TraceOp::GepS { base, off: *off, idx: *idx, size: *size, dst });
            }
            _ => self.ops.push(TraceOp::Gep { base, steps: norm.into_boxed_slice(), dst, pc }),
        }
    }
}

/// Extracts `(op, a, b, dst, width, signed)` from an infallible integer
/// trace op (the fusable producers for [`TraceOp::BinStore`]).
fn as_int_op(op: &TraceOp) -> Option<(Opcode, Src, Src, u32, u32, bool)> {
    match *op {
        TraceOp::Add { a, b, dst, width, signed } => {
            Some((Opcode::Add, a, b, dst, width, signed))
        }
        TraceOp::Sub { a, b, dst, width, signed } => {
            Some((Opcode::Sub, a, b, dst, width, signed))
        }
        TraceOp::Mul { a, b, dst, width, signed } => {
            Some((Opcode::Mul, a, b, dst, width, signed))
        }
        TraceOp::IntBin { op, a, b, dst, width, signed } => Some((op, a, b, dst, width, signed)),
        _ => None,
    }
}
