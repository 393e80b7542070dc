//! The pre-decoded register-file interpreter: the *fast* semantic oracle.
//!
//! The structural [`Interpreter`](crate::interp::Interpreter) is the
//! readable executable spec: it walks `Module` structures on every step
//! and keeps SSA values in a per-frame `HashMap`. That is exactly the
//! right shape for auditing against the paper, and exactly the wrong
//! shape for the differential conformance sweeps, whose 28 stages are
//! each checked against it as their baseline.
//!
//! This module adds a one-time, per-function lowering of verified SSA
//! into a flat, dense [`PreFunction`]:
//!
//! * instructions live in one contiguous `Vec<PreInst>` in block layout
//!   order (phis excluded — they compile into edge move lists);
//! * every operand is resolved at decode time to either a dense
//!   register-file *slot* index or an immediate ([`Src`]) — constants,
//!   global addresses, and function addresses are materialized as
//!   immediates, never looked up again;
//! * block targets become flat PCs; each CFG edge carries the parallel
//!   move list compiled from the target block's phis;
//! * per-instruction metadata (access width, signedness, exception bit,
//!   cast kind, GEP step plan) is precomputed, and a side table maps
//!   each flat PC back to `(block, index)` so [`LlvaTrap`]s stay
//!   precise and identical to the structural interpreter's;
//! * pre-decoded functions are cached per module ([`PreModule`]),
//!   lazily on first call, so repeated oracle stages and repeated
//!   workload runs pay the decode cost once.
//!
//! Execution ([`FastInterpreter`]) then runs over a `Vec<u64>` register
//! slab (frames carved out of one reusable allocation instead of a
//! fresh `HashMap` per call), with a tight dispatch loop that never
//! touches [`Module`] on the hot path. The two interpreters must be
//! trap-for-trap, value-for-value identical; `crates/conform` enforces
//! this with a dedicated `fast-interp` oracle stage.

use crate::env::{Env, StackView};
use crate::interp::{alloca_sp, trap_number, InterpError, LlvaTrap, Name, DEFAULT_MEMORY_SIZE};
use crate::traced::{
    CompiledTrace, TraceConfig, TraceEnd, TraceEngine, TraceExit, TraceOp, TraceStats,
};
use llva_backend::common::{access_of, canonical_const, layout_globals, GlobalImage};
use llva_core::eval::{self, CastKind, CmpClass, INT_WIDTHS};
use llva_core::function::{BlockId, Function};
use llva_core::instruction::Opcode;
use llva_core::intrinsics::Intrinsic;
use llva_core::module::{FuncId, Module};
use llva_core::types::{TypeId, TypeKind};
use llva_core::value::{Constant, ValueId};
use llva_machine::codec::{record, tagged};
use llva_machine::common::TrapKind;
use llva_machine::memory::Memory;
use llva_machine::x86::{function_value, FUNC_TAG};
use llva_machine::Width;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// A pre-resolved operand: a register-file slot or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Read the value from this frame-relative register slot.
    Reg(u32),
    /// The value itself (constants are materialized at decode time).
    Imm(u64),
}

// The image record format (see `llva_machine::codec`): each table below
// sits beside its type, and a record that decodes holds only what the
// dispatch loop can execute — `image::validate_prefunction` then checks
// slots, edges and PCs against the record's own bounds.
tagged!(Src { 0 Reg(r), 1 Imm(v) });

/// The opcodes each arithmetic variant's dispatch arm executes.
const INT_OPS: [Opcode; 8] = [
    Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::And, Opcode::Or, Opcode::Xor, Opcode::Shl,
    Opcode::Shr,
];
const DIV_OPS: [Opcode; 2] = [Opcode::Div, Opcode::Rem];
const FLOAT_OPS: [Opcode; 5] = [Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Div, Opcode::Rem];
const CMP_OPS: [Opcode; 6] = [
    Opcode::SetEq, Opcode::SetNe, Opcode::SetLt, Opcode::SetGt, Opcode::SetLe, Opcode::SetGe,
];

/// One step of a pre-planned `getelementptr` address computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GepStep {
    /// `addr += value(idx) * size` (array/pointer indexing).
    Scaled { idx: Src, size: i64 },
    /// `addr += offset` (constant indices and struct fields, folded).
    Const(u64),
    /// Indexing into a non-aggregate: precise `MemoryFault`, like the
    /// structural interpreter.
    Trap,
}

tagged!(GepStep { 0 Scaled { idx, size }, 1 Const(off), 2 Trap });

/// A CFG edge: flat target PC plus the parallel move list compiled from
/// the target block's phis.
#[derive(Debug, Clone)]
pub(crate) struct Edge {
    /// Flat PC of the target block's first non-phi instruction.
    pub(crate) target_pc: u32,
    /// Arena index of the target block (trap coordinates).
    pub(crate) target_block: u32,
    /// `(dst slot, src)` pairs, executed as one parallel assignment.
    pub(crate) moves: Vec<(u32, Src)>,
    /// A phi in the target block has no incoming value for this edge
    /// (malformed module): taking the edge raises a `Software` trap,
    /// exactly like `Interpreter::run_phis`.
    pub(crate) trap: bool,
}

record!(Edge { target_pc, target_block, trap, moves });

/// One pre-decoded instruction.
#[derive(Debug, Clone)]
pub(crate) enum PreInst {
    /// Integer arithmetic/bitwise binary op that cannot trap (`div` and
    /// `rem` decode as [`PreInst::IntDiv`], so `eval::int_binary` always
    /// has a value here).
    IntBin { op: Opcode, a: Src, b: Src, dst: u32, width: u32, signed: bool },
    /// Integer `div`/`rem` — the only integer binary ops that can trap.
    IntDiv { op: Opcode, a: Src, b: Src, dst: u32, width: u32, signed: bool, exc: bool },
    /// Float/double arithmetic binary op (`add`–`rem` only).
    FloatBin { op: Opcode, a: Src, b: Src, dst: u32, is32: bool },
    /// One of the six `set*` comparisons.
    Cmp { op: Opcode, class: CmpClass, a: Src, b: Src, dst: u32 },
    /// Return, with optional value.
    Ret { val: Option<Src> },
    /// Unconditional branch.
    Jump { edge: u32 },
    /// Conditional branch.
    BrCond { cond: Src, then_edge: u32, else_edge: u32 },
    /// Multi-way branch: first matching case wins, else default.
    Mbr { disc: Src, cases: Vec<(Src, u32)>, default_edge: u32 },
    /// `call` / `invoke`. `normal_edge`/`unwind_edge` are `Some` only
    /// for `invoke`; both are edges of the *calling* function.
    Call {
        callee: Src,
        args: Vec<Src>,
        dst: Option<u32>,
        normal_edge: Option<u32>,
        unwind_edge: Option<u32>,
    },
    /// Unwind to the nearest enclosing `invoke`.
    Unwind,
    /// Scalar load with precomputed access width.
    Load { addr: Src, dst: u32, width: Width, signed: bool, exc: bool },
    /// Scalar store with precomputed access width.
    Store { val: Src, addr: Src, width: Width, exc: bool },
    /// General GEP with a step plan.
    Gep { base: Src, steps: Vec<GepStep>, dst: u32 },
    /// GEP whose indices folded entirely into one constant offset.
    GepConst { base: Src, offset: u64, dst: u32 },
    /// Stack allocation with precomputed unit size.
    Alloca { count: Option<Src>, unit: u64, dst: u32 },
    /// Type conversion with precomputed kind.
    Cast { src: Src, kind: CastKind, dst: u32 },
    /// An instruction that always raises this trap (e.g. a bitwise op
    /// on floats, which the structural interpreter traps as Software).
    AlwaysTrap { kind: TrapKind },
}

tagged!(PreInst {
    0 IntBin { op in INT_OPS, a, b, dst, width in INT_WIDTHS, signed },
    1 IntDiv { op in DIV_OPS, a, b, dst, width in INT_WIDTHS, signed, exc },
    2 FloatBin { op in FLOAT_OPS, a, b, dst, is32 },
    3 Cmp { op in CMP_OPS, class, a, b, dst },
    4 Ret { val },
    5 Jump { edge },
    6 BrCond { cond, then_edge, else_edge },
    7 Mbr { disc, cases, default_edge },
    8 Call { callee, args, dst, normal_edge, unwind_edge },
    9 Unwind,
    10 Load { addr, dst, width, signed, exc },
    11 Store { val, addr, width, exc },
    12 Gep { base, steps, dst },
    13 GepConst { base, offset, dst },
    14 Alloca { count, unit, dst },
    15 Cast { src, kind, dst },
    16 AlwaysTrap { kind },
});

/// A function lowered to the flat pre-decoded form.
pub struct PreFunction {
    pub(crate) name: Name,
    /// Block names by arena index (trap coordinates).
    pub(crate) block_names: Vec<Name>,
    pub(crate) insts: Vec<PreInst>,
    /// Per flat PC: `(block arena index, index within the block's
    /// original instruction list, phis included)` — the precise trap
    /// coordinate the structural interpreter would report.
    pub(crate) traps: Vec<(u32, u32)>,
    pub(crate) edges: Vec<Edge>,
    /// Per block arena index: `(first flat PC, flat instruction count)`.
    /// Blocks absent from the layout order keep `(0, 0)`. The trace
    /// compiler ([`crate::traced`]) walks these spans.
    pub(crate) block_span: Vec<(u32, u32)>,
    pub(crate) num_slots: u32,
    pub(crate) num_args: u32,
    pub(crate) entry_pc: u32,
}

record!(PreFunction {
    name, block_names, insts, traps, edges, block_span, num_slots, num_args, entry_pc,
});

impl fmt::Debug for PreFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreFunction")
            .field("name", &self.name)
            .field("insts", &self.insts.len())
            .field("edges", &self.edges.len())
            .field("slots", &self.num_slots)
            .finish()
    }
}

impl PreFunction {
    /// The function name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of flat (non-phi) instructions.
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// Number of distinct CFG edges with compiled move lists.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Register-file slots this function needs per frame.
    pub fn num_slots(&self) -> u32 {
        self.num_slots
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Decoder<'a> {
    module: &'a Module,
    func: &'a Function,
    global_addrs: &'a [u64],
    bool_ty: TypeId,
    slots: HashMap<ValueId, u32>,
    block_start: Vec<u32>,
    insts: Vec<PreInst>,
    traps: Vec<(u32, u32)>,
    edges: Vec<Edge>,
    edge_map: HashMap<(BlockId, BlockId), u32>,
}

impl<'a> Decoder<'a> {
    /// Resolves `v` to a slot or an immediate, exactly as
    /// `Interpreter::value` would evaluate it.
    fn resolve(&self, v: ValueId) -> Src {
        if let Some(&s) = self.slots.get(&v) {
            return Src::Reg(s);
        }
        match self.func.value_as_const(v) {
            Some(Constant::GlobalAddr { global, .. }) => {
                Src::Imm(self.global_addrs[global.index()])
            }
            Some(Constant::FunctionAddr { func, .. }) => {
                Src::Imm(function_value(func.index() as u32))
            }
            Some(c) => Src::Imm(canonical_const(self.module, c)),
            None => panic!("use of undefined value {v}"),
        }
    }

    fn vty(&self, v: ValueId) -> TypeId {
        self.func.value_type(v, self.bool_ty)
    }

    fn slot_of(&self, v: ValueId) -> u32 {
        self.slots[&v]
    }

    /// Interns the `pred → succ` edge, compiling the target's phis into
    /// a parallel move list.
    fn edge(&mut self, pred: BlockId, succ: BlockId) -> u32 {
        if let Some(&e) = self.edge_map.get(&(pred, succ)) {
            return e;
        }
        let mut moves = Vec::new();
        let mut trap = false;
        for &i in self.func.block(succ).insts() {
            if self.func.inst(i).opcode() != Opcode::Phi {
                break;
            }
            let incoming = self.func.phi_incoming(i, pred);
            let result = self.func.inst_result(i);
            match (incoming, result) {
                (Some(incoming), Some(result)) => {
                    moves.push((self.slot_of(result), self.resolve(incoming)));
                }
                _ => {
                    // `Interpreter::run_phis` delivers a Software trap
                    // before committing any of the edge's assignments.
                    moves.clear();
                    trap = true;
                    break;
                }
            }
        }
        let id = u32::try_from(self.edges.len()).expect("edge count overflow");
        self.edges.push(Edge {
            target_pc: self.block_start[succ.index()],
            target_block: succ.index() as u32,
            moves,
            trap,
        });
        self.edge_map.insert((pred, succ), id);
        id
    }

    /// Plans a GEP: constant indices (and all struct fields) fold into
    /// constant offsets; consecutive constants merge.
    fn plan_gep(&mut self, ops: &[ValueId]) -> (Src, Vec<GepStep>) {
        let tt = self.module.types();
        let cfg = self.module.target();
        let base = self.resolve(ops[0]);
        let mut cur = tt.pointee(self.vty(ops[0])).expect("gep base");
        let mut steps: Vec<GepStep> = Vec::new();
        let mut pending: u64 = 0;
        let mut has_pending = false;
        for (i, &idx) in ops[1..].iter().enumerate() {
            let elem = if i == 0 {
                // first index scales by the pointee size and does not
                // descend into the type
                cur
            } else {
                match tt.kind(cur).clone() {
                    TypeKind::Array { elem, .. } => {
                        cur = elem;
                        elem
                    }
                    TypeKind::LiteralStruct(_) | TypeKind::Struct(_) => {
                        let field = self
                            .func
                            .value_as_const(idx)
                            .and_then(Constant::as_int_bits)
                            .expect("struct index constant")
                            as usize;
                        pending = pending.wrapping_add(cfg.field_offset(tt, cur, field));
                        has_pending = true;
                        cur = tt.struct_fields(cur).expect("defined")[field];
                        continue;
                    }
                    _ => {
                        if has_pending {
                            steps.push(GepStep::Const(pending));
                        }
                        steps.push(GepStep::Trap);
                        return (base, steps);
                    }
                }
            };
            let size = cfg.size_of(tt, elem) as i64;
            match self.resolve(idx) {
                Src::Imm(k) => {
                    pending = pending.wrapping_add((k as i64).wrapping_mul(size) as u64);
                    has_pending = true;
                }
                s @ Src::Reg(_) => {
                    if has_pending {
                        steps.push(GepStep::Const(pending));
                        pending = 0;
                        has_pending = false;
                    }
                    steps.push(GepStep::Scaled { idx: s, size });
                }
            }
        }
        if has_pending {
            steps.push(GepStep::Const(pending));
        }
        (base, steps)
    }
}

/// Lowers one function body into the flat pre-decoded form.
///
/// # Panics
///
/// Panics on malformed SSA that the verifier rejects (undefined value
/// uses, non-constant struct indices, phis after non-phis) — the same
/// inputs on which the structural interpreter panics.
#[allow(clippy::too_many_lines)]
fn decode_function(
    module: &Module,
    fid: FuncId,
    global_addrs: &[u64],
    bool_ty: TypeId,
) -> PreFunction {
    let func = module.function(fid);
    let tt = module.types();
    let cfg = module.target();
    let order = func.block_order().to_vec();
    let arena_len = order.iter().map(|b| b.index() + 1).max().unwrap_or(0);

    // slot assignment: arguments first (slot i == argument i), then
    // every instruction result in layout order
    let mut slots: HashMap<ValueId, u32> = HashMap::new();
    for (i, &a) in func.args().iter().enumerate() {
        slots.insert(a, i as u32);
    }
    let mut next = func.args().len() as u32;
    for (_, i) in func.inst_iter() {
        if let Some(r) = func.inst_result(i) {
            slots.insert(r, next);
            next += 1;
        }
    }

    // flat PCs: phis occupy no flat slots
    let mut block_start = vec![0u32; arena_len];
    let mut block_span = vec![(0u32, 0u32); arena_len];
    let mut pc = 0u32;
    for &b in &order {
        block_start[b.index()] = pc;
        let insts = func.block(b).insts();
        let nphi = insts
            .iter()
            .take_while(|&&i| func.inst(i).opcode() == Opcode::Phi)
            .count();
        assert!(
            insts[nphi..]
                .iter()
                .all(|&i| func.inst(i).opcode() != Opcode::Phi),
            "phi not at block head in %{}",
            func.name()
        );
        let n = (insts.len() - nphi) as u32;
        block_span[b.index()] = (pc, n);
        pc += n;
    }

    let mut block_names = vec![Name::new(""); arena_len];
    for &b in &order {
        block_names[b.index()] = Name::new(func.block(b).name());
    }

    let mut d = Decoder {
        module,
        func,
        global_addrs,
        bool_ty,
        slots,
        block_start,
        insts: Vec::with_capacity(pc as usize),
        traps: Vec::with_capacity(pc as usize),
        edges: Vec::new(),
        edge_map: HashMap::new(),
    };

    for &b in &order {
        for (pos, &iid) in func.block(b).insts().iter().enumerate() {
            let inst = func.inst(iid);
            let op = inst.opcode();
            if op == Opcode::Phi {
                continue;
            }
            let ops = inst.operands();
            let blocks = inst.block_operands();
            let exc = inst.exceptions_enabled();
            let result_ty = inst.result_type();
            let dst = func.inst_result(iid).map(|r| d.slot_of(r));
            let pre = match op {
                _ if op.is_binary() => {
                    let a = d.resolve(ops[0]);
                    let bb = d.resolve(ops[1]);
                    if tt.is_float(result_ty) {
                        if matches!(
                            op,
                            Opcode::Add | Opcode::Sub | Opcode::Mul | Opcode::Div | Opcode::Rem
                        ) {
                            PreInst::FloatBin {
                                op,
                                a,
                                b: bb,
                                dst: dst.expect("binary result"),
                                is32: matches!(tt.kind(result_ty), TypeKind::Float),
                            }
                        } else {
                            // bitwise op on floats: the structural
                            // interpreter traps Software
                            PreInst::AlwaysTrap { kind: TrapKind::Software }
                        }
                    } else {
                        let dst = dst.expect("binary result");
                        let width = tt.int_bits(result_ty).expect("integer binary op");
                        let signed = tt.is_signed_integer(result_ty);
                        if matches!(op, Opcode::Div | Opcode::Rem) {
                            PreInst::IntDiv { op, a, b: bb, dst, width, signed, exc }
                        } else {
                            PreInst::IntBin { op, a, b: bb, dst, width, signed }
                        }
                    }
                }
                _ if op.is_comparison() => {
                    PreInst::Cmp {
                        op,
                        class: eval::cmp_class(tt, d.vty(ops[0])),
                        a: d.resolve(ops[0]),
                        b: d.resolve(ops[1]),
                        dst: dst.expect("cmp result"),
                    }
                }
                Opcode::Ret => PreInst::Ret {
                    val: ops.first().map(|&v| d.resolve(v)),
                },
                Opcode::Br => {
                    if ops.is_empty() {
                        PreInst::Jump { edge: d.edge(b, blocks[0]) }
                    } else {
                        PreInst::BrCond {
                            cond: d.resolve(ops[0]),
                            then_edge: d.edge(b, blocks[0]),
                            else_edge: d.edge(b, blocks[1]),
                        }
                    }
                }
                Opcode::Mbr => PreInst::Mbr {
                    disc: d.resolve(ops[0]),
                    cases: ops[1..]
                        .iter()
                        .zip(&blocks[1..])
                        .map(|(&c, &t)| (d.resolve(c), d.edge(b, t)))
                        .collect(),
                    default_edge: d.edge(b, blocks[0]),
                },
                Opcode::Call | Opcode::Invoke => PreInst::Call {
                    callee: d.resolve(ops[0]),
                    args: ops[1..].iter().map(|&a| d.resolve(a)).collect(),
                    dst,
                    normal_edge: (op == Opcode::Invoke).then(|| d.edge(b, blocks[0])),
                    unwind_edge: (op == Opcode::Invoke).then(|| d.edge(b, blocks[1])),
                },
                Opcode::Unwind => PreInst::Unwind,
                Opcode::Load => {
                    let pointee = tt.pointee(d.vty(ops[0])).expect("pointer");
                    let (width, signed) = access_of(module, pointee);
                    PreInst::Load {
                        addr: d.resolve(ops[0]),
                        dst: dst.expect("load result"),
                        width,
                        signed,
                        exc,
                    }
                }
                Opcode::Store => {
                    let pointee = tt.pointee(d.vty(ops[1])).expect("pointer");
                    let (width, _) = access_of(module, pointee);
                    PreInst::Store {
                        val: d.resolve(ops[0]),
                        addr: d.resolve(ops[1]),
                        width,
                        exc,
                    }
                }
                Opcode::GetElementPtr => {
                    let (base, steps) = d.plan_gep(ops);
                    let dst = dst.expect("gep result");
                    match steps.as_slice() {
                        [] => PreInst::GepConst { base, offset: 0, dst },
                        [GepStep::Const(off)] => PreInst::GepConst { base, offset: *off, dst },
                        _ => PreInst::Gep { base, steps, dst },
                    }
                }
                Opcode::Alloca => {
                    let pointee = tt.pointee(result_ty).expect("alloca pointer");
                    PreInst::Alloca {
                        count: ops.first().map(|&c| d.resolve(c)),
                        unit: cfg.size_of(tt, pointee).max(1),
                        dst: dst.expect("alloca result"),
                    }
                }
                Opcode::Cast => PreInst::Cast {
                    src: d.resolve(ops[0]),
                    kind: eval::cast_kind(tt, d.vty(ops[0]), result_ty),
                    dst: dst.expect("cast result"),
                },
                Opcode::Phi => unreachable!("phis skipped above"),
                _ => unreachable!("all opcodes covered"),
            };
            d.insts.push(pre);
            d.traps.push((b.index() as u32, pos as u32));
        }
    }

    let entry_pc = d.block_start[func.entry_block().index()];
    PreFunction {
        name: Name::new(func.name()),
        block_names,
        insts: d.insts,
        traps: d.traps,
        edges: d.edges,
        block_span,
        num_slots: next,
        num_args: func.args().len() as u32,
        entry_pc,
    }
}

// ---------------------------------------------------------------------------
// The per-module pre-decode cache
// ---------------------------------------------------------------------------

/// Per-module pre-decode state: the global layout, interned function
/// metadata, and the lazily-populated [`PreFunction`] cache.
///
/// Share one `Rc<PreModule>` across repeated [`FastInterpreter`]
/// constructions (oracle stages, benchmark iterations) so each function
/// is decoded exactly once per module.
pub struct PreModule<'m> {
    module: &'m Module,
    image: GlobalImage,
    bool_ty: TypeId,
    /// Function names for [`Env`] (`llva.stack.funcname`).
    func_names: Vec<String>,
    /// Which functions are intrinsics, resolved once by name.
    intrinsics: Vec<Option<Intrinsic>>,
    pub(crate) is_declaration: Vec<bool>,
    decoded: RefCell<Vec<Option<Rc<PreFunction>>>>,
    /// Warm-start hook: asked for a function body *before* SSA lowering.
    /// A persistent module image installs one that deserializes its
    /// pre-decode records on demand ([`crate::image::LlvaImage`]);
    /// `None` from the loader falls back to lowering, so a bad record
    /// degrades to the cold path instead of failing the call.
    loader: RefCell<Option<RecordLoader>>,
}

/// A warm-start record loader: function index → pre-decoded body, or
/// `None` to fall back to SSA lowering for that function.
pub type RecordLoader = Box<dyn Fn(usize) -> Option<Rc<PreFunction>>>;

impl<'m> fmt::Debug for PreModule<'m> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreModule")
            .field("module", &self.module.name())
            .field("decoded", &self.decoded_functions())
            .finish()
    }
}

impl<'m> PreModule<'m> {
    /// Builds the per-module state; no function is decoded yet.
    pub fn new(module: &'m Module) -> PreModule<'m> {
        let image = layout_globals(module);
        let bool_ty = module.types().bool_or_sentinel();
        let n = module.num_functions();
        let mut func_names = Vec::with_capacity(n);
        let mut intrinsics = Vec::with_capacity(n);
        let mut is_declaration = Vec::with_capacity(n);
        for (_, f) in module.functions() {
            func_names.push(f.name().to_string());
            intrinsics.push(Intrinsic::by_name(f.name()));
            is_declaration.push(f.is_declaration());
        }
        PreModule {
            module,
            image,
            bool_ty,
            func_names,
            intrinsics,
            is_declaration,
            decoded: RefCell::new(vec![None; n]),
            loader: RefCell::new(None),
        }
    }

    /// The underlying module.
    pub fn module(&self) -> &'m Module {
        self.module
    }

    /// The pre-decoded body of `fid`, decoding it on first use: the
    /// warm loader (if one is attached) is probed first, then SSA
    /// lowering.
    pub fn get(&self, fid: FuncId) -> Rc<PreFunction> {
        if let Some(p) = &self.decoded.borrow()[fid.index()] {
            return p.clone();
        }
        let p = self
            .loader
            .borrow()
            .as_ref()
            .and_then(|l| l(fid.index()))
            .unwrap_or_else(|| {
                Rc::new(decode_function(self.module, fid, &self.image.addrs, self.bool_ty))
            });
        self.decoded.borrow_mut()[fid.index()] = Some(p.clone());
        p
    }

    /// Attaches a warm-start loader consulted by [`PreModule::get`]
    /// before SSA lowering. Already-cached functions are unaffected.
    pub fn set_loader(&self, loader: RecordLoader) {
        *self.loader.borrow_mut() = Some(loader);
    }

    /// Eagerly decodes every defined function (benchmark harnesses use
    /// this to separate decode time from run time).
    pub fn decode_all(&self) {
        for fid in self.module.function_ids() {
            if !self.is_declaration[fid.index()] {
                let _ = self.get(fid);
            }
        }
    }

    /// How many functions have been decoded so far.
    pub fn decoded_functions(&self) -> usize {
        self.decoded.borrow().iter().filter(|p| p.is_some()).count()
    }

    /// Whether `func`'s body is already in the cache.
    pub fn is_decoded(&self, func: usize) -> bool {
        matches!(self.decoded.borrow().get(func), Some(Some(_)))
    }

    /// Installs an externally-produced pre-decode for `func` (a warm
    /// image load deserializes records instead of re-lowering SSA).
    /// Out-of-range ids are ignored.
    pub fn install(&self, func: usize, pre: Rc<PreFunction>) {
        if let Some(slot) = self.decoded.borrow_mut().get_mut(func) {
            *slot = Some(pre);
        }
    }

    /// Drops the cached pre-decode of one function (§3.4 SMC: the next
    /// call re-decodes from the module). Live activations keep their
    /// `Rc<PreFunction>`, matching the paper's rule that a code edit
    /// takes effect from the *next* activation of the edited function.
    pub fn invalidate(&self, func: usize) {
        if let Some(slot) = self.decoded.borrow_mut().get_mut(func) {
            *slot = None;
        }
    }

    /// The simulated address of a global (profiling counter readback).
    pub fn global_addr(&self, g: llva_core::module::GlobalId) -> u64 {
        self.image.addrs[g.index()]
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Debug-build fill pattern for unused register-slab words; reads of it
/// mean a use-before-def escaped the verifier, frees catch stale reads.
const POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;

struct FastFrame {
    /// Function index (for [`StackView`]).
    func: u32,
    pre: Rc<PreFunction>,
    /// Saved PC: meaningful while a callee runs (points at the call).
    pc: u32,
    /// This frame's first register slot in the slab.
    base: usize,
    slots: u32,
    saved_sp: u64,
    /// Edge (in the *caller's* function) to take when an `unwind`
    /// reaches this frame; `Some` iff the frame was entered via `invoke`.
    unwind_edge: Option<u32>,
}

/// The pre-decoded register-file interpreter.
///
/// Semantically identical to [`Interpreter`](crate::interp::Interpreter)
/// — same values, same precise traps (kind, function, block, index),
/// same instruction counts — but executing flat [`PreFunction`] code
/// over a dense register slab. Use it when throughput matters (the
/// conformance oracle, workload sweeps); use the structural interpreter
/// when you want code that reads like the paper's semantics.
pub struct FastInterpreter<'m> {
    pre: Rc<PreModule<'m>>,
    /// The memory image (globals initialized at construction).
    pub mem: Memory,
    /// Intrinsic state shared with native execution.
    pub env: Env,
    frames: Vec<FastFrame>,
    /// The frame slab: every live frame's registers, contiguously.
    regs: Vec<u64>,
    /// High-water mark of live registers (`regs[top..]` is free).
    top: usize,
    sp: u64,
    insts: u64,
    fuel: u64,
    phi_scratch: Vec<u64>,
    arg_buf: Vec<u64>,
    /// The hot-trace tier (paper §4.2), `None` when tracing is off.
    trace: Option<Box<TraceEngine>>,
}

/// Batched step accounting for the dispatch loop: `fuel`, `insts`, and
/// `env.clock` advance in lockstep, so the hot loop keeps one local
/// step counter and commits all three on every exit path instead of
/// performing three memory read-modify-writes per instruction.
struct Acct {
    /// Steps executed since the last commit/resync.
    steps: u64,
    /// Fuel available at the last resync (`steps == limit` ⇒ out of fuel).
    limit: u64,
    /// `self.insts` at the last resync.
    insts0: u64,
    /// `self.env.clock` at the last resync.
    clock0: u64,
}

/// How one pass over a trace's ops ended: back at the head (the driver
/// re-checks the fuel budget before the next pass) or leaving the trace.
enum PassEnd {
    Looped,
    Exit(TraceExit),
}

impl<'m> fmt::Debug for FastInterpreter<'m> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FastInterpreter")
            .field("module", &self.pre.module.name())
            .field("frames", &self.frames.len())
            .field("insts", &self.insts)
            .finish()
    }
}

#[inline]
fn read(regs: &[u64], base: usize, s: Src) -> u64 {
    match s {
        Src::Reg(r) => regs[base + r as usize],
        Src::Imm(v) => v,
    }
}

impl<'m> FastInterpreter<'m> {
    /// Creates a fast interpreter with its own pre-decode cache and the
    /// default 16 MiB memory ([`DEFAULT_MEMORY_SIZE`]).
    pub fn new(module: &'m Module) -> FastInterpreter<'m> {
        FastInterpreter::with_predecoded(Rc::new(PreModule::new(module)))
    }

    /// Creates a fast interpreter with a custom memory size.
    pub fn with_memory_size(module: &'m Module, mem_size: u64) -> FastInterpreter<'m> {
        FastInterpreter::with_predecoded_memory(Rc::new(PreModule::new(module)), mem_size)
    }

    /// Creates a fast interpreter sharing an existing pre-decode cache
    /// (repeated runs pay the decode cost once).
    pub fn with_predecoded(pre: Rc<PreModule<'m>>) -> FastInterpreter<'m> {
        FastInterpreter::with_predecoded_memory(pre, DEFAULT_MEMORY_SIZE)
    }

    /// [`FastInterpreter::with_predecoded`] with a custom memory size.
    pub fn with_predecoded_memory(pre: Rc<PreModule<'m>>, mem_size: u64) -> FastInterpreter<'m> {
        let module = pre.module;
        let mut mem = Memory::new(mem_size, pre.image.heap_base, module.target().endianness);
        mem.write_bytes(llva_machine::memory::GLOBAL_BASE, &pre.image.image)
            .expect("global image fits");
        let sp = mem.initial_sp();
        FastInterpreter {
            pre,
            mem,
            env: Env::new(),
            frames: Vec::new(),
            regs: Vec::new(),
            top: 0,
            sp,
            insts: 0,
            fuel: u64::MAX,
            phi_scratch: Vec::new(),
            arg_buf: Vec::new(),
            trace: None,
        }
    }

    /// Enables the hot-trace tier: edge-profile counters accumulate at
    /// every block entry, hot regions compile into linear traces with
    /// fused superinstructions, and the dispatch loop enters them with
    /// a single anchor-table lookup (paper §4.2).
    pub fn enable_tracing(&mut self, config: TraceConfig) {
        self.trace = Some(Box::new(TraceEngine::new(config)));
    }

    /// Installs an existing trace engine. The engine's counters and
    /// compiled traces index into this interpreter's [`PreModule`] —
    /// only reuse an engine across interpreters sharing the same
    /// pre-decode cache (benchmark harnesses keep hot traces warm
    /// across fresh memory images this way).
    pub fn set_trace_engine(&mut self, engine: Box<TraceEngine>) {
        self.trace = Some(engine);
    }

    /// Detaches the trace engine, keeping compiled traces and stats.
    pub fn take_trace_engine(&mut self) -> Option<Box<TraceEngine>> {
        self.trace.take()
    }

    /// Trace-tier statistics, when tracing is enabled.
    /// Reads profiling counters back from this interpreter's memory
    /// after a run of an instrumented module (see [`crate::profile`]).
    pub fn read_counters(&self, map: &crate::profile::ProfileMap) -> Vec<u64> {
        let addr = self.pre.global_addr(map.counters);
        let bytes = self
            .mem
            .read_bytes(addr, (map.len * 8) as u64)
            .expect("counters mapped");
        let big = matches!(
            self.pre.module().target().endianness,
            llva_core::layout::Endianness::Big
        );
        crate::profile::decode_counters(&bytes, map.len, big)
    }

    pub fn trace_stats(&self) -> Option<TraceStats> {
        self.trace.as_deref().map(TraceEngine::stats)
    }

    /// Limits the number of LLVA instructions executed.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// LLVA instructions executed so far (identical to the structural
    /// interpreter's count on the same program).
    pub fn insts_executed(&self) -> u64 {
        self.insts
    }

    /// The shared pre-decode cache.
    pub fn predecoded(&self) -> &Rc<PreModule<'m>> {
        &self.pre
    }

    /// Checks frame-slab invariants: live frames tile `regs[..top]`
    /// contiguously in stack order, and (in debug builds, where freed
    /// slots are poisoned) nothing above `top` holds live data.
    pub fn slab_consistent(&self) -> bool {
        let mut expect = 0usize;
        for f in &self.frames {
            if f.base != expect {
                return false;
            }
            expect += f.slots as usize;
        }
        if expect != self.top {
            return false;
        }
        #[cfg(debug_assertions)]
        if !self.regs[self.top..].iter().all(|&v| v == POISON) {
            return false;
        }
        true
    }

    /// Current depth of the call stack.
    pub fn call_depth(&self) -> usize {
        self.frames.len()
    }

    /// Runs function `name` with the given argument values.
    ///
    /// # Errors
    ///
    /// Exactly as [`Interpreter::run`](crate::interp::Interpreter::run):
    /// precise traps (after invoking a registered trap handler, §3.5),
    /// [`InterpError::OutOfFuel`], or [`InterpError::NoSuchFunction`].
    pub fn run(&mut self, name: &str, args: &[u64]) -> Result<u64, InterpError> {
        let module = self.pre.module;
        let fid = module
            .function_by_name(name)
            .filter(|&f| !module.function(f).is_declaration())
            .ok_or_else(|| InterpError::NoSuchFunction(name.to_string()))?;
        match self.run_function(fid, args) {
            Err(InterpError::Trap(trap)) => {
                // §3.5: deliver to a registered trap handler, then report.
                let trap_no = trap_number(trap.kind);
                if let Some(&handler) = self.env.trap_handlers.get(&trap_no) {
                    if (handler as usize) < module.num_functions() {
                        let h = FuncId::from_index(handler as usize);
                        if !module.function(h).is_declaration() {
                            let _ = self.run_function(h, &[u64::from(trap_no), 0]);
                        }
                    }
                }
                Err(InterpError::Trap(trap))
            }
            other => other,
        }
    }

    fn reset(&mut self) {
        self.frames.clear();
        #[cfg(debug_assertions)]
        for v in &mut self.regs[..self.top] {
            *v = POISON;
        }
        self.top = 0;
    }

    fn push_frame(
        &mut self,
        fid: FuncId,
        args: &[u64],
        unwind_edge: Option<u32>,
    ) -> Rc<PreFunction> {
        let pre = self.pre.get(fid);
        let base = self.top;
        let needed = base + pre.num_slots as usize;
        if self.regs.len() < needed {
            let fill = if cfg!(debug_assertions) { POISON } else { 0 };
            self.regs.resize(needed, fill);
        }
        debug_assert!(
            self.regs[base..needed].iter().all(|&v| v == POISON),
            "frame slab region reused without poisoning"
        );
        self.top = needed;
        for i in 0..pre.num_args as usize {
            self.regs[base + i] = args.get(i).copied().unwrap_or(0);
        }
        self.frames.push(FastFrame {
            func: fid.index() as u32,
            pre: pre.clone(),
            pc: pre.entry_pc,
            base,
            slots: pre.num_slots,
            saved_sp: self.sp,
            unwind_edge,
        });
        pre
    }

    fn pop_frame(&mut self) -> FastFrame {
        let f = self.frames.pop().expect("active frame");
        self.sp = f.saved_sp;
        #[cfg(debug_assertions)]
        for v in &mut self.regs[f.base..self.top] {
            *v = POISON;
        }
        self.top = f.base;
        f
    }

    /// Builds the precise trap for the instruction at `pc` of `cur`.
    fn trap_at(&self, cur: &PreFunction, pc: u32, kind: TrapKind) -> InterpError {
        let (b, i) = cur.traps[pc as usize];
        InterpError::Trap(LlvaTrap {
            kind,
            function: cur.name.clone(),
            block: cur.block_names[b as usize].clone(),
            index: i as usize,
        })
    }

    /// Performs edge `e` of `cur`: the parallel phi moves, then returns
    /// the new PC (or the Software trap for a malformed edge).
    fn take_edge(&mut self, cur: &PreFunction, base: usize, e: u32) -> Result<u32, InterpError> {
        let edge = &cur.edges[e as usize];
        if edge.trap {
            return Err(InterpError::Trap(LlvaTrap {
                kind: TrapKind::Software,
                function: cur.name.clone(),
                block: cur.block_names[edge.target_block as usize].clone(),
                index: 0,
            }));
        }
        match edge.moves.as_slice() {
            [] => {}
            &[(d, s)] => {
                let v = read(&self.regs, base, s);
                self.regs[base + d as usize] = v;
            }
            moves => {
                self.phi_scratch.clear();
                for &(_, s) in moves {
                    let v = read(&self.regs, base, s);
                    self.phi_scratch.push(v);
                }
                for (k, &(d, _)) in moves.iter().enumerate() {
                    self.regs[base + d as usize] = self.phi_scratch[k];
                }
            }
        }
        Ok(edge.target_pc)
    }

    /// The dispatch loop. Never touches [`Module`] structures: all hot
    /// state is the current [`PreFunction`], the register slab, `pc`,
    /// and `base`. Fuel/instruction/clock accounting is batched in an
    /// [`Acct`] and committed on every exit path, so the per-step cost
    /// is one compare and one add instead of three memory RMWs.
    #[allow(clippy::too_many_lines)]
    fn run_function(&mut self, fid: FuncId, args: &[u64]) -> Result<u64, InterpError> {
        // commits the batched accounting before propagating an error
        macro_rules! tc {
            ($self:ident, $acct:ident, $e:expr) => {
                match $e {
                    Ok(v) => v,
                    Err(err) => {
                        $self.commit(&$acct);
                        return Err(err);
                    }
                }
            };
        }
        self.reset();
        let mut cur = self.push_frame(fid, args, None);
        let mut func = fid.index() as u32;
        let mut base = self.frames.last().expect("frame just pushed").base;
        let mut acct = self.acct_begin();
        let mut pc = {
            let entry = cur.entry_pc;
            tc!(self, acct, self.entry_hot(&cur, func, base, entry, &mut acct))
        };
        loop {
            if acct.steps == acct.limit {
                self.commit(&acct);
                self.frames.last_mut().expect("active frame").pc = pc;
                return Err(InterpError::OutOfFuel);
            }
            acct.steps += 1;

            let inst = &cur.insts[pc as usize];
            match inst {
                PreInst::IntBin { op, a, b, dst, width, signed } => {
                    let x = read(&self.regs, base, *a);
                    let y = read(&self.regs, base, *b);
                    self.regs[base + *dst as usize] =
                        eval::int_binary(*op, x, y, *width, *signed).unwrap_or(0);
                    pc += 1;
                }
                PreInst::IntDiv { op, a, b, dst, width, signed, exc } => {
                    let x = read(&self.regs, base, *a);
                    let y = read(&self.regs, base, *b);
                    let out = match eval::int_binary(*op, x, y, *width, *signed) {
                        Some(v) => v,
                        None => {
                            if *exc {
                                return Err(self.fail(&acct, &cur, pc, TrapKind::DivideByZero));
                            }
                            0
                        }
                    };
                    self.regs[base + *dst as usize] = out;
                    pc += 1;
                }
                PreInst::FloatBin { op, a, b, dst, is32 } => {
                    let x = read(&self.regs, base, *a);
                    let y = read(&self.regs, base, *b);
                    self.regs[base + *dst as usize] =
                        eval::float_binary(*op, x, y, *is32).unwrap_or(0);
                    pc += 1;
                }
                PreInst::Cmp { op, class, a, b, dst } => {
                    let x = read(&self.regs, base, *a);
                    let y = read(&self.regs, base, *b);
                    self.regs[base + *dst as usize] = u64::from(eval::compare(*op, *class, x, y));
                    pc += 1;
                }
                PreInst::Ret { val } => {
                    let ret = val.map(|s| read(&self.regs, base, s)).unwrap_or(0);
                    self.pop_frame();
                    let Some(caller) = self.frames.last() else {
                        self.commit(&acct);
                        return Ok(ret);
                    };
                    cur = caller.pre.clone();
                    base = caller.base;
                    func = caller.func;
                    pc = caller.pc;
                    let PreInst::Call { dst, normal_edge, .. } = &cur.insts[pc as usize] else {
                        unreachable!("caller pc rests on its call instruction");
                    };
                    let (dst, normal_edge) = (*dst, *normal_edge);
                    if let Some(d) = dst {
                        self.regs[base + d as usize] = ret;
                    }
                    match normal_edge {
                        Some(e) => {
                            pc = tc!(self, acct, self.take_edge_hot(&cur, func, base, e, &mut acct));
                        }
                        None => {
                            pc = tc!(self, acct, self.resume_hot(&cur, func, base, pc + 1, &mut acct));
                        }
                    }
                }
                PreInst::Jump { edge } => {
                    let e = *edge;
                    pc = tc!(self, acct, self.take_edge_hot(&cur, func, base, e, &mut acct));
                }
                PreInst::BrCond { cond, then_edge, else_edge } => {
                    let e = if read(&self.regs, base, *cond) != 0 {
                        *then_edge
                    } else {
                        *else_edge
                    };
                    pc = tc!(self, acct, self.take_edge_hot(&cur, func, base, e, &mut acct));
                }
                PreInst::Mbr { disc, cases, default_edge } => {
                    let dv = read(&self.regs, base, *disc);
                    let mut e = *default_edge;
                    for &(c, t) in cases {
                        if read(&self.regs, base, c) == dv {
                            e = t;
                            break;
                        }
                    }
                    pc = tc!(self, acct, self.take_edge_hot(&cur, func, base, e, &mut acct));
                }
                PreInst::Call { callee, args, dst, normal_edge, unwind_edge } => {
                    let cv = read(&self.regs, base, *callee);
                    let idx = (cv & !FUNC_TAG) as usize;
                    if cv & FUNC_TAG == 0 || idx >= self.pre.intrinsics.len() {
                        return Err(self.fail(&acct, &cur, pc, TrapKind::BadFunctionPointer));
                    }
                    self.arg_buf.clear();
                    for &a in args {
                        let v = read(&self.regs, base, a);
                        self.arg_buf.push(v);
                    }
                    let (dst, normal_edge, unwind_edge) = (*dst, *normal_edge, *unwind_edge);
                    if let Some(intr) = self.pre.intrinsics[idx] {
                        let stack = StackView {
                            functions: self.frames.iter().rev().map(|f| f.func).collect(),
                        };
                        let argv = std::mem::take(&mut self.arg_buf);
                        // the intrinsic environment observes `env.clock`
                        self.commit(&acct);
                        let result = self.env.handle(
                            intr,
                            &argv,
                            &mut self.mem,
                            &stack,
                            &self.pre.func_names,
                        );
                        self.arg_buf = argv;
                        // §3.4: an SMC edit takes effect at the next
                        // activation — drop the pre-decoded body and any
                        // compiled traces of the edited function now
                        if !self.env.smc_invalidations.is_empty() {
                            let pend = std::mem::take(&mut self.env.smc_invalidations);
                            for f in pend {
                                self.pre.invalidate(f as usize);
                                if let Some(eng) = self.trace.as_deref_mut() {
                                    eng.invalidate(f as usize);
                                }
                            }
                        }
                        acct = self.acct_begin();
                        let ret = match result {
                            Ok(v) => v,
                            Err(k) => return Err(self.fail(&acct, &cur, pc, k)),
                        };
                        if let Some(d) = dst {
                            self.regs[base + d as usize] = ret;
                        }
                        match normal_edge {
                            Some(e) => {
                                pc = tc!(
                                    self,
                                    acct,
                                    self.take_edge_hot(&cur, func, base, e, &mut acct)
                                );
                            }
                            None => {
                                pc = tc!(
                                    self,
                                    acct,
                                    self.resume_hot(&cur, func, base, pc + 1, &mut acct)
                                );
                            }
                        }
                        continue;
                    }
                    if self.pre.is_declaration[idx] {
                        return Err(self.fail(&acct, &cur, pc, TrapKind::BadFunctionPointer));
                    }
                    if self.frames.len() > 4096 {
                        return Err(self.fail(&acct, &cur, pc, TrapKind::StackOverflow));
                    }
                    self.frames.last_mut().expect("active frame").pc = pc;
                    let argv = std::mem::take(&mut self.arg_buf);
                    cur = self.push_frame(FuncId::from_index(idx), &argv, unwind_edge);
                    self.arg_buf = argv;
                    func = idx as u32;
                    base = self.frames.last().expect("frame just pushed").base;
                    let entry = cur.entry_pc;
                    pc = tc!(self, acct, self.entry_hot(&cur, func, base, entry, &mut acct));
                }
                PreInst::Unwind => {
                    // pop frames to the nearest enclosing invoke (§3.1)
                    let unhandled = self.trap_at(&cur, pc, TrapKind::UnhandledUnwind);
                    loop {
                        if self.frames.is_empty() {
                            self.commit(&acct);
                            return Err(unhandled);
                        }
                        let f = self.pop_frame();
                        if let Some(e) = f.unwind_edge {
                            let Some(caller) = self.frames.last() else {
                                self.commit(&acct);
                                return Err(unhandled);
                            };
                            cur = caller.pre.clone();
                            base = caller.base;
                            func = caller.func;
                            pc = tc!(self, acct, self.take_edge_hot(&cur, func, base, e, &mut acct));
                            break;
                        }
                        if self.frames.is_empty() {
                            self.commit(&acct);
                            return Err(unhandled);
                        }
                    }
                }
                PreInst::Load { addr, dst, width, signed, exc } => {
                    let a = read(&self.regs, base, *addr);
                    let loaded = if *signed {
                        self.mem.load_signed(a, *width)
                    } else {
                        self.mem.load(a, *width)
                    };
                    let v = match loaded {
                        Ok(v) => v,
                        Err(k) => {
                            if *exc {
                                return Err(self.fail(&acct, &cur, pc, k));
                            }
                            0
                        }
                    };
                    self.regs[base + *dst as usize] = v;
                    pc += 1;
                }
                PreInst::Store { val, addr, width, exc } => {
                    let v = read(&self.regs, base, *val);
                    let a = read(&self.regs, base, *addr);
                    if let Err(k) = self.mem.store(a, v, *width) {
                        if *exc {
                            return Err(self.fail(&acct, &cur, pc, k));
                        }
                    }
                    pc += 1;
                }
                PreInst::Gep { base: b, steps, dst } => {
                    let mut addr = read(&self.regs, base, *b);
                    let mut fault = false;
                    for step in steps {
                        match *step {
                            GepStep::Scaled { idx, size } => {
                                let k = read(&self.regs, base, idx) as i64;
                                addr = addr.wrapping_add(k.wrapping_mul(size) as u64);
                            }
                            GepStep::Const(off) => addr = addr.wrapping_add(off),
                            GepStep::Trap => {
                                fault = true;
                                break;
                            }
                        }
                    }
                    if fault {
                        return Err(self.fail(&acct, &cur, pc, TrapKind::MemoryFault));
                    }
                    self.regs[base + *dst as usize] = addr;
                    pc += 1;
                }
                PreInst::GepConst { base: b, offset, dst } => {
                    let addr = read(&self.regs, base, *b).wrapping_add(*offset);
                    self.regs[base + *dst as usize] = addr;
                    pc += 1;
                }
                PreInst::Alloca { count, unit, dst } => {
                    let count = count.map(|c| read(&self.regs, base, c)).unwrap_or(1);
                    let Some(sp) = alloca_sp(self.sp, self.mem.stack_limit(), *unit, count) else {
                        return Err(self.fail(&acct, &cur, pc, TrapKind::StackOverflow));
                    };
                    self.sp = sp;
                    self.regs[base + *dst as usize] = self.sp;
                    pc += 1;
                }
                PreInst::Cast { src, kind, dst } => {
                    let v = read(&self.regs, base, *src);
                    self.regs[base + *dst as usize] = eval::cast(*kind, v);
                    pc += 1;
                }
                PreInst::AlwaysTrap { kind } => {
                    return Err(self.fail(&acct, &cur, pc, *kind));
                }
            }
        }
    }

    /// Opens a fresh accounting batch against the current fuel level.
    #[inline]
    fn acct_begin(&self) -> Acct {
        Acct {
            steps: 0,
            limit: self.fuel,
            insts0: self.insts,
            clock0: self.env.clock,
        }
    }

    /// Writes a batch back to `fuel`/`insts`/`env.clock`. Committing the
    /// same batch twice is a no-op, so exit paths can commit defensively.
    #[inline]
    fn commit(&mut self, a: &Acct) {
        self.fuel = a.limit - a.steps;
        self.insts = a.insts0 + a.steps;
        self.env.clock = a.clock0 + a.steps;
    }

    /// Commits the accounting, then builds the precise trap at `pc`.
    #[cold]
    fn fail(&mut self, a: &Acct, cur: &PreFunction, pc: u32, kind: TrapKind) -> InterpError {
        self.commit(a);
        self.trap_at(cur, pc, kind)
    }

    /// [`FastInterpreter::take_edge`] plus the trace-tier hook: bumps the
    /// target block's profile counter and enters any trace anchored at
    /// the landing PC. With tracing disabled this compiles down to the
    /// plain edge transfer.
    #[inline]
    fn take_edge_hot(
        &mut self,
        cur: &Rc<PreFunction>,
        func: u32,
        base: usize,
        e: u32,
        acct: &mut Acct,
    ) -> Result<u32, InterpError> {
        let pc = self.take_edge(cur, base, e)?;
        if self.trace.is_none() {
            return Ok(pc);
        }
        let block = cur.edges[e as usize].target_block;
        self.trace_pc(cur, func, base, pc, Some(block), acct)
    }

    /// The trace-tier hook at function entry (the callee's entry block).
    #[inline]
    fn entry_hot(
        &mut self,
        cur: &Rc<PreFunction>,
        func: u32,
        base: usize,
        pc: u32,
        acct: &mut Acct,
    ) -> Result<u32, InterpError> {
        if self.trace.is_none() {
            return Ok(pc);
        }
        let block = cur.traps.get(pc as usize).map(|&(b, _)| b);
        self.trace_pc(cur, func, base, pc, block, acct)
    }

    /// The trace hook at a post-call resume point: plain calls resume
    /// mid-block, so there is no block entry to profile — only a
    /// continuation trace anchored at the resume pc to enter.
    #[inline]
    fn resume_hot(
        &mut self,
        cur: &Rc<PreFunction>,
        func: u32,
        base: usize,
        pc: u32,
        acct: &mut Acct,
    ) -> Result<u32, InterpError> {
        if self.trace.is_none() {
            return Ok(pc);
        }
        self.trace_pc(cur, func, base, pc, None, acct)
    }

    /// The per-edge trace hook: profile the block entry and check for an
    /// anchored trace in one per-function lookup; fall through to the
    /// dispatch loop when neither fires.
    #[inline]
    fn trace_pc(
        &mut self,
        cur: &Rc<PreFunction>,
        func: u32,
        base: usize,
        pc: u32,
        block: Option<u32>,
        acct: &mut Acct,
    ) -> Result<u32, InterpError> {
        let eng = self.trace.as_deref_mut().expect("tracing enabled");
        let (hot, anchored) = match block {
            Some(b) => eng.edge_event(func, b, pc, cur),
            // mid-block resume: no block entry to profile
            None => (false, eng.has_anchor(func, pc)),
        };
        if !hot && !anchored {
            return Ok(pc);
        }
        self.trace_enter(cur, func, base, pc, block, hot, acct)
    }

    /// The cold half of the trace hook: trigger trace formation and run
    /// a trace session.
    #[allow(clippy::too_many_arguments)]
    fn trace_enter(
        &mut self,
        cur: &Rc<PreFunction>,
        func: u32,
        base: usize,
        pc: u32,
        block: Option<u32>,
        hot: bool,
        acct: &mut Acct,
    ) -> Result<u32, InterpError> {
        // entering compiled code: fold the batch back into `fuel` so the
        // trace executor sees exact remaining fuel, and reopen it after
        self.commit(acct);
        let mut eng = self.trace.take().expect("tracing enabled");
        let r = self.trace_session(&mut eng, cur, func, base, pc, block, hot);
        self.trace = Some(eng);
        *acct = self.acct_begin();
        r
    }

    /// Runs traces anchored at `pc`, chaining across exits that land on
    /// further anchors, until execution leaves traced code. The engine
    /// is moved out of `self` for the whole session, so the chain loop
    /// pays no per-entry indirection; fuel, instruction counts, and
    /// statistics all commit exactly once when the session ends —
    /// identical instruction counts, trap coordinates, and fuel behavior
    /// to the general dispatch loop.
    #[allow(clippy::too_many_arguments)]
    fn trace_session(
        &mut self,
        eng: &mut TraceEngine,
        cur: &Rc<PreFunction>,
        func: u32,
        base: usize,
        mut pc: u32,
        mut block: Option<u32>,
        mut hot: bool,
    ) -> Result<u32, InterpError> {
        let avail = self.fuel;
        let mut done = 0u64;
        let mut entries = 0u64;
        let mut sides = 0u64;
        let mut first: Option<Rc<CompiledTrace>> = None;
        let result = loop {
            if hot {
                let b = block.expect("hot entries always name a block");
                eng.form_and_compile(&self.pre, func, b);
            }
            let Some(tr) = eng.anchor(func, pc) else {
                break Ok(pc);
            };
            entries += 1;
            if first.is_none() {
                first = Some(tr.clone());
            }
            match self.trace_body(&tr, cur, base, avail, &mut done) {
                Ok(exit) => {
                    pc = exit.pc;
                    sides += u64::from(exit.side);
                    let Some(b) = exit.block else {
                        // mid-block exit (call/ret boundary): no anchor
                        // can start here
                        break Ok(pc);
                    };
                    block = Some(b);
                    hot = eng.note_block_entry(func, b, cur);
                }
                Err(e) => break Err(e),
            }
        };
        self.fuel = avail - done;
        self.insts += done;
        self.env.clock += done;
        // profitability is judged per *session*, attributed to the trace
        // that opened it: entries chained within a session are cheap,
        // but opening a session (fold the fuel batch, enter, reopen)
        // must be covered by the instructions the session retires
        if let Some(tr) = first {
            eng.note_trace_profit(func, &tr, done);
        }
        let s = eng.stats_mut();
        s.trace_entries += entries;
        s.trace_insts += done;
        s.side_exits += sides;
        result
    }

    /// The trace dispatch loop: a budget-checking driver around
    /// [`Self::trace_pass`]. When the remaining fuel covers a whole pass
    /// over the trace (`pass_steps`), the pass runs without per-step
    /// fuel compares; only the final passes before exhaustion pay the
    /// per-step check, so exhaustion still lands on the exact
    /// instruction the general loop would stop at.
    fn trace_body(
        &mut self,
        tr: &CompiledTrace,
        cur: &Rc<PreFunction>,
        base: usize,
        avail: u64,
        done: &mut u64,
    ) -> Result<TraceExit, InterpError> {
        loop {
            let budget = avail - *done;
            let end = if budget >= tr.pass_steps {
                let passes = budget / tr.pass_steps;
                self.trace_pass::<false>(tr, cur, base, avail, done, passes)?
            } else {
                self.trace_pass::<true>(tr, cur, base, avail, done, 0)?
            };
            match end {
                PassEnd::Looped => {}
                PassEnd::Exit(e) => return Ok(e),
            }
        }
    }

    /// Runs a trace's ops. Every original instruction the trace covers
    /// bumps `done` exactly once (fused superinstructions bump it once
    /// per fused component), so accounting matches the general loop.
    /// `CHECKED` compiles the per-step fuel compare in or out: the
    /// checked instantiation loops in place until the trace exits or
    /// fuel runs dry, the unchecked one runs up to `max_passes` full
    /// passes (the caller guarantees the budget covers that many) and
    /// then hands back to the driver for a budget re-check.
    #[allow(clippy::too_many_lines)]
    fn trace_pass<const CHECKED: bool>(
        &mut self,
        tr: &CompiledTrace,
        cur: &Rc<PreFunction>,
        base: usize,
        avail: u64,
        done: &mut u64,
        max_passes: u64,
    ) -> Result<PassEnd, InterpError> {
        // one original instruction retires
        macro_rules! step {
            ($self:ident) => {
                if CHECKED && *done == avail {
                    $self
                        .frames
                        .last_mut()
                        .expect("active frame")
                        .pc = tr.head_pc;
                    return Err(InterpError::OutOfFuel);
                }
                *done += 1;
            };
        }
        // inlined hot-edge phi moves (parallel-move semantics)
        macro_rules! hot_moves {
            ($self:ident, $moves:expr) => {
                match $moves {
                    [] => {}
                    [(d, s)] => {
                        let v = read(&$self.regs, base, *s);
                        $self.regs[base + *d as usize] = v;
                    }
                    ms => {
                        $self.phi_scratch.clear();
                        for (_, s) in ms {
                            let v = read(&$self.regs, base, *s);
                            $self.phi_scratch.push(v);
                        }
                        for (i, (d, _)) in ms.iter().enumerate() {
                            $self.regs[base + *d as usize] = $self.phi_scratch[i];
                        }
                    }
                }
            };
        }
        let mut idx = 0usize;
        let mut passes = 0u64;
        loop {
            if idx == tr.ops.len() {
                match tr.end {
                    TraceEnd::Loop => {
                        passes += 1;
                        if CHECKED || passes < max_passes {
                            idx = 0;
                            continue;
                        }
                        // batch exhausted: hand the back-edge to the
                        // driver for a fresh budget check
                        return Ok(PassEnd::Looped);
                    }
                    TraceEnd::Exit { pc, block } => {
                        return Ok(PassEnd::Exit(TraceExit { pc, block, side: false }));
                    }
                }
            }
            match &tr.ops[idx] {
                TraceOp::Add { a, b, dst, width, signed } => {
                    step!(self);
                    let x = read(&self.regs, base, *a);
                    let y = read(&self.regs, base, *b);
                    self.regs[base + *dst as usize] =
                        eval::int_binary(Opcode::Add, x, y, *width, *signed).unwrap_or(0);
                }
                TraceOp::Sub { a, b, dst, width, signed } => {
                    step!(self);
                    let x = read(&self.regs, base, *a);
                    let y = read(&self.regs, base, *b);
                    self.regs[base + *dst as usize] =
                        eval::int_binary(Opcode::Sub, x, y, *width, *signed).unwrap_or(0);
                }
                TraceOp::Mul { a, b, dst, width, signed } => {
                    step!(self);
                    let x = read(&self.regs, base, *a);
                    let y = read(&self.regs, base, *b);
                    self.regs[base + *dst as usize] =
                        eval::int_binary(Opcode::Mul, x, y, *width, *signed).unwrap_or(0);
                }
                TraceOp::IntBin { op, a, b, dst, width, signed } => {
                    step!(self);
                    let x = read(&self.regs, base, *a);
                    let y = read(&self.regs, base, *b);
                    self.regs[base + *dst as usize] =
                        eval::int_binary(*op, x, y, *width, *signed).unwrap_or(0);
                }
                TraceOp::IntDiv { op, a, b, dst, width, signed, exc, pc } => {
                    step!(self);
                    let x = read(&self.regs, base, *a);
                    let y = read(&self.regs, base, *b);
                    let out = match eval::int_binary(*op, x, y, *width, *signed) {
                        Some(v) => v,
                        None => {
                            if *exc {
                                return Err(self.trap_at(cur, *pc, TrapKind::DivideByZero));
                            }
                            0
                        }
                    };
                    self.regs[base + *dst as usize] = out;
                }
                TraceOp::FloatBin { op, a, b, dst, is32 } => {
                    step!(self);
                    let x = read(&self.regs, base, *a);
                    let y = read(&self.regs, base, *b);
                    self.regs[base + *dst as usize] =
                        eval::float_binary(*op, x, y, *is32).unwrap_or(0);
                }
                TraceOp::Cmp { op, class, a, b, dst } => {
                    step!(self);
                    let x = read(&self.regs, base, *a);
                    let y = read(&self.regs, base, *b);
                    self.regs[base + *dst as usize] = u64::from(eval::compare(*op, *class, x, y));
                }
                TraceOp::Cast { src, kind, dst } => {
                    step!(self);
                    let v = read(&self.regs, base, *src);
                    self.regs[base + *dst as usize] = eval::cast(*kind, v);
                }
                TraceOp::Load { addr, dst, width, signed, exc, pc } => {
                    step!(self);
                    let a = read(&self.regs, base, *addr);
                    let v = self.trace_load(cur, a, *width, *signed, *exc, *pc)?;
                    self.regs[base + *dst as usize] = v;
                }
                TraceOp::Store { val, addr, width, exc, pc } => {
                    step!(self);
                    let v = read(&self.regs, base, *val);
                    let a = read(&self.regs, base, *addr);
                    if let Err(k) = self.mem.store(a, v, *width) {
                        if *exc {
                            return Err(self.trap_at(cur, *pc, k));
                        }
                    }
                }
                TraceOp::Gep { base: b, steps, dst, pc } => {
                    step!(self);
                    let mut addr = read(&self.regs, base, *b);
                    let mut fault = false;
                    for step in steps.iter() {
                        match *step {
                            GepStep::Scaled { idx, size } => {
                                let k = read(&self.regs, base, idx) as i64;
                                addr = addr.wrapping_add(k.wrapping_mul(size) as u64);
                            }
                            GepStep::Const(off) => addr = addr.wrapping_add(off),
                            GepStep::Trap => {
                                fault = true;
                                break;
                            }
                        }
                    }
                    if fault {
                        return Err(self.trap_at(cur, *pc, TrapKind::MemoryFault));
                    }
                    self.regs[base + *dst as usize] = addr;
                }
                TraceOp::GepS { base: b, off, idx: i, size, dst } => {
                    step!(self);
                    let k = read(&self.regs, base, *i) as i64;
                    let addr = read(&self.regs, base, *b)
                        .wrapping_add(*off)
                        .wrapping_add(k.wrapping_mul(*size) as u64);
                    self.regs[base + *dst as usize] = addr;
                }
                TraceOp::GepConst { base: b, offset, dst } => {
                    step!(self);
                    let addr = read(&self.regs, base, *b).wrapping_add(*offset);
                    self.regs[base + *dst as usize] = addr;
                }
                TraceOp::Alloca { count, unit, dst, pc } => {
                    step!(self);
                    let count = count.map(|c| read(&self.regs, base, c)).unwrap_or(1);
                    let Some(sp) = alloca_sp(self.sp, self.mem.stack_limit(), *unit, count) else {
                        return Err(self.trap_at(cur, *pc, TrapKind::StackOverflow));
                    };
                    self.sp = sp;
                    self.regs[base + *dst as usize] = self.sp;
                }
                TraceOp::Jump0 => {
                    step!(self);
                }
                TraceOp::Jump1 { dst, src } => {
                    step!(self);
                    let v = read(&self.regs, base, *src);
                    self.regs[base + *dst as usize] = v;
                }
                TraceOp::Moves { moves } => {
                    step!(self);
                    hot_moves!(self, moves.as_ref());
                }
                TraceOp::Guard { cond, expect, hot, cold } => {
                    step!(self);
                    let taken = read(&self.regs, base, *cond) != 0;
                    if taken == *expect {
                        hot_moves!(self, hot.as_ref());
                    } else {
                        let pc = self.take_edge(cur, base, *cold)?;
                        let block = cur.edges[*cold as usize].target_block;
                        return Ok(PassEnd::Exit(TraceExit { pc, block: Some(block), side: true }));
                    }
                }
                TraceOp::CmpBr { op, class, a, b, dst, expect, hot, cold } => {
                    // fused setcc + br: two original instructions
                    step!(self);
                    let x = read(&self.regs, base, *a);
                    let y = read(&self.regs, base, *b);
                    let taken = eval::compare(*op, *class, x, y);
                    self.regs[base + *dst as usize] = u64::from(taken);
                    step!(self);
                    if taken == *expect {
                        hot_moves!(self, hot.as_ref());
                    } else {
                        let pc = self.take_edge(cur, base, *cold)?;
                        let block = cur.edges[*cold as usize].target_block;
                        return Ok(PassEnd::Exit(TraceExit { pc, block: Some(block), side: true }));
                    }
                }
                TraceOp::BinCmpBr {
                    bop, ba, bb, bdst, bwidth, bsigned,
                    cop, class, ca, cb, cdst, expect, hot, cold,
                } => {
                    // fused loop latch: three original instructions
                    step!(self);
                    let x = read(&self.regs, base, *ba);
                    let y = read(&self.regs, base, *bb);
                    self.regs[base + *bdst as usize] =
                        eval::int_binary(*bop, x, y, *bwidth, *bsigned).unwrap_or(0);
                    step!(self);
                    let x = read(&self.regs, base, *ca);
                    let y = read(&self.regs, base, *cb);
                    let taken = eval::compare(*cop, *class, x, y);
                    self.regs[base + *cdst as usize] = u64::from(taken);
                    step!(self);
                    if taken == *expect {
                        hot_moves!(self, hot.as_ref());
                    } else {
                        let pc = self.take_edge(cur, base, *cold)?;
                        let block = cur.edges[*cold as usize].target_block;
                        return Ok(PassEnd::Exit(TraceExit { pc, block: Some(block), side: true }));
                    }
                }
                TraceOp::LoadBin {
                    op, addr, lwidth, lsigned, lexc, ldst, lpc,
                    other, loaded_lhs, dst, width, signed,
                } => {
                    // fused load + integer op: two original instructions
                    step!(self);
                    let a = read(&self.regs, base, *addr);
                    let v = self.trace_load(cur, a, *lwidth, *lsigned, *lexc, *lpc)?;
                    self.regs[base + *ldst as usize] = v;
                    step!(self);
                    let o = read(&self.regs, base, *other);
                    let (x, y) = if *loaded_lhs { (v, o) } else { (o, v) };
                    self.regs[base + *dst as usize] =
                        eval::int_binary(*op, x, y, *width, *signed).unwrap_or(0);
                }
                TraceOp::BinStore {
                    op, a, b, tdst, width, signed, addr, swidth, sexc, spc,
                } => {
                    // fused integer op + store: two original instructions
                    step!(self);
                    let x = read(&self.regs, base, *a);
                    let y = read(&self.regs, base, *b);
                    let v = eval::int_binary(*op, x, y, *width, *signed).unwrap_or(0);
                    self.regs[base + *tdst as usize] = v;
                    step!(self);
                    let ad = read(&self.regs, base, *addr);
                    if let Err(k) = self.mem.store(ad, v, *swidth) {
                        if *sexc {
                            return Err(self.trap_at(cur, *spc, k));
                        }
                    }
                }
                TraceOp::GepLoad {
                    base: gb, off, idx: gi, gdst, dst, width, lsigned, lexc, lpc,
                } => {
                    // fused address computation + load
                    step!(self);
                    let mut addr = read(&self.regs, base, *gb).wrapping_add(*off);
                    if let Some((i, size)) = gi {
                        let k = read(&self.regs, base, *i) as i64;
                        addr = addr.wrapping_add(k.wrapping_mul(*size) as u64);
                    }
                    self.regs[base + *gdst as usize] = addr;
                    step!(self);
                    let v = self.trace_load(cur, addr, *width, *lsigned, *lexc, *lpc)?;
                    self.regs[base + *dst as usize] = v;
                }
                TraceOp::GepStore {
                    val, base: gb, off, idx: gi, gdst, swidth, sexc, spc,
                } => {
                    // fused address computation + store
                    step!(self);
                    let mut addr = read(&self.regs, base, *gb).wrapping_add(*off);
                    if let Some((i, size)) = gi {
                        let k = read(&self.regs, base, *i) as i64;
                        addr = addr.wrapping_add(k.wrapping_mul(*size) as u64);
                    }
                    self.regs[base + *gdst as usize] = addr;
                    step!(self);
                    let v = read(&self.regs, base, *val);
                    if let Err(k) = self.mem.store(addr, v, *swidth) {
                        if *sexc {
                            return Err(self.trap_at(cur, *spc, k));
                        }
                    }
                }
                TraceOp::Consts { writes } => {
                    // constant-folded chain: each write retires one
                    // original instruction
                    for (d, v) in writes.iter() {
                        step!(self);
                        self.regs[base + *d as usize] = *v;
                    }
                }
            }
            idx += 1;
        }
    }

    /// Shared load helper for trace ops (plain and fused).
    #[inline]
    fn trace_load(
        &mut self,
        cur: &PreFunction,
        addr: u64,
        width: Width,
        signed: bool,
        exc: bool,
        pc: u32,
    ) -> Result<u64, InterpError> {
        let loaded = if signed {
            self.mem.load_signed(addr, width)
        } else {
            self.mem.load(addr, width)
        };
        match loaded {
            Ok(v) => Ok(v),
            Err(k) => {
                if exc {
                    Err(self.trap_at(cur, pc, k))
                } else {
                    Ok(0)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Module {
        let m = llva_core::parser::parse_module(src).expect("parses");
        llva_core::verifier::verify_module(&m).expect("verifies");
        m
    }

    #[test]
    fn constants_become_immediates() {
        let m = parse(
            r#"
int %f(int %x) {
entry:
    %a = add int %x, 7
    ret int %a
}
"#,
        );
        let pre = PreModule::new(&m);
        let f = pre.get(m.function_by_name("f").expect("f"));
        assert_eq!(f.num_insts(), 2);
        let PreInst::IntBin { a, b, .. } = &f.insts[0] else {
            panic!("expected IntBin, got {:?}", f.insts[0]);
        };
        assert!(matches!(a, Src::Reg(0)), "arg is slot 0: {a:?}");
        assert_eq!(*b, Src::Imm(7), "constant folded to immediate");
    }

    #[test]
    fn struct_gep_folds_to_constant_offset() {
        let m = parse(
            r#"
%Pair = type { int, long }

long* %f(%Pair* %p) {
entry:
    %f1 = getelementptr %Pair* %p, long 0, ubyte 1
    ret long* %f1
}
"#,
        );
        let pre = PreModule::new(&m);
        let f = pre.get(m.function_by_name("f").expect("f"));
        let PreInst::GepConst { offset, .. } = &f.insts[0] else {
            panic!("expected fully-folded GEP, got {:?}", f.insts[0]);
        };
        assert_eq!(*offset, 8, "long field sits at offset 8");
    }

    #[test]
    fn phis_compile_into_edge_moves() {
        let m = parse(
            r#"
int %sum(int %n) {
entry:
    br label %header
header:
    %i = phi int [ 0, %entry ], [ %i2, %body ]
    %c = setlt int %i, %n
    br bool %c, label %body, label %exit
body:
    %i2 = add int %i, 1
    br label %header
exit:
    ret int %i
}
"#,
        );
        let pre = PreModule::new(&m);
        let f = pre.get(m.function_by_name("sum").expect("sum"));
        // the phi occupies no flat slot
        assert_eq!(f.num_insts(), 6, "br, setlt, br, add, br, ret (no phi)");
        // entry->header and body->header each carry one move
        let with_moves = f.edges.iter().filter(|e| !e.moves.is_empty()).count();
        assert_eq!(with_moves, 2, "two phi-carrying edges: {:?}", f.edges);
        assert!(f.edges.iter().all(|e| !e.trap));
    }

    #[test]
    fn predecode_is_cached_per_function() {
        let m = parse(
            r#"
int %helper(int %x) {
entry:
    ret int %x
}
int %main() {
entry:
    %a = call int %helper(int 1)
    %b = call int %helper(int 2)
    %s = add int %a, %b
    ret int %s
}
"#,
        );
        let pre = Rc::new(PreModule::new(&m));
        assert_eq!(pre.decoded_functions(), 0, "decode is lazy");
        let mut i = FastInterpreter::with_predecoded(pre.clone());
        assert_eq!(i.run("main", &[]), Ok(3));
        assert_eq!(pre.decoded_functions(), 2);
        // a second interpreter over the same cache decodes nothing new
        let mut j = FastInterpreter::with_predecoded(pre.clone());
        assert_eq!(j.run("main", &[]), Ok(3));
        assert_eq!(pre.decoded_functions(), 2);
    }

    #[test]
    fn slab_reused_across_calls() {
        let m = parse(
            r#"
int %leaf(int %x) {
entry:
    %y = add int %x, 1
    ret int %y
}
int %main(int %n) {
entry:
    br label %header
header:
    %i = phi int [ 0, %entry ], [ %i2, %body ]
    %c = setlt int %i, %n
    br bool %c, label %body, label %exit
body:
    %i2 = call int %leaf(int %i)
    br label %header
exit:
    ret int %i
}
"#,
        );
        let mut i = FastInterpreter::new(&m);
        assert_eq!(i.run("main", &[100]), Ok(100));
        assert!(i.slab_consistent());
        // 100 leaf calls reuse one slab: high water = main + leaf frames
        let main_pre = i.pre.get(m.function_by_name("main").expect("main"));
        let leaf_pre = i.pre.get(m.function_by_name("leaf").expect("leaf"));
        assert!(
            i.regs.len() <= (main_pre.num_slots() + leaf_pre.num_slots()) as usize,
            "slab high water {} exceeds one main+leaf frame pair",
            i.regs.len()
        );
    }
}
