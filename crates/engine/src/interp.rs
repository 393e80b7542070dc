//! The reference LLVA interpreter.
//!
//! Executes virtual object code directly, with the precise-exception
//! semantics of §3.3: every instruction either completes or raises a
//! precise trap naming it, and exceptions of `[noexc]` instructions are
//! suppressed. The interpreter is the semantic oracle for both code
//! generators (differential tests run every workload through all
//! three executors).

use crate::env::{Env, StackView};
use llva_backend::common::{access_of, layout_globals};
use llva_core::eval;
use llva_core::function::BlockId;
use llva_core::instruction::{InstId, Opcode};
use llva_core::module::{FuncId, Module};
use llva_core::types::{TypeId, TypeKind};
use llva_core::value::{Constant, ValueId};
use llva_machine::codec::{Field, Reader};
use llva_machine::common::TrapKind;
use llva_machine::memory::Memory;
use llva_machine::x86::{function_value, FUNC_TAG};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Default simulated memory size: 16 MiB.
pub const DEFAULT_MEMORY_SIZE: u64 = 1 << 24;

/// An interned, cheaply clonable name used in trap reports.
///
/// Cloning a `Name` bumps a reference count instead of copying the
/// string, so traps can carry function/block names without the hot
/// loop ever allocating (names are materialized only when a trap
/// actually fires, and the fast interpreter interns them once at
/// pre-decode time).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(Arc<str>);

impl Field for Name {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn take(r: &mut Reader<'_>) -> llva_machine::codec::Result<Name> {
        Field::take(r).map(Name)
    }
}

impl Name {
    /// Interns `s`.
    pub fn new(s: &str) -> Name {
        Name(Arc::from(s))
    }

    /// The underlying string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::ops::Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name(Arc::from(s))
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

/// A precise LLVA-level trap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlvaTrap {
    /// What kind of exception.
    pub kind: TrapKind,
    /// The function containing the faulting instruction.
    pub function: Name,
    /// The faulting instruction's block label.
    pub block: Name,
    /// Index of the instruction within its block.
    pub index: usize,
}

impl fmt::Display for LlvaTrap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in %{} at {}:{}",
            self.kind, self.function, self.block, self.index
        )
    }
}

impl std::error::Error for LlvaTrap {}

/// Why interpretation stopped without a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// A precise trap was delivered.
    Trap(LlvaTrap),
    /// The configured fuel limit was exhausted.
    OutOfFuel,
    /// The named entry function does not exist or is a declaration.
    NoSuchFunction(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Trap(t) => t.fmt(f),
            InterpError::OutOfFuel => f.write_str("out of fuel"),
            InterpError::NoSuchFunction(n) => write!(f, "no such function %{n}"),
        }
    }
}

impl std::error::Error for InterpError {}

struct Frame {
    func: FuncId,
    block: BlockId,
    prev_block: Option<BlockId>,
    idx: usize,
    values: HashMap<ValueId, u64>,
    saved_sp: u64,
    /// `(call instruction in this frame, unwind target)` for `invoke`.
    pending_call: Option<InstId>,
    unwind_to: Option<BlockId>,
}

/// The interpreter: a module, a simulated memory, and an [`Env`].
pub struct Interpreter<'m> {
    module: &'m Module,
    /// The memory image (globals initialized at construction).
    pub mem: Memory,
    /// Intrinsic state shared with native execution.
    pub env: Env,
    global_addrs: Vec<u64>,
    func_names: Vec<String>,
    frames: Vec<Frame>,
    sp: u64,
    insts: u64,
    fuel: u64,
    bool_ty: TypeId,
}

impl<'m> fmt::Debug for Interpreter<'m> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interpreter")
            .field("module", &self.module.name())
            .field("frames", &self.frames.len())
            .field("insts", &self.insts)
            .finish()
    }
}

impl<'m> Interpreter<'m> {
    /// Creates an interpreter with the default 16 MiB memory
    /// ([`DEFAULT_MEMORY_SIZE`]) and effectively unlimited fuel.
    pub fn new(module: &'m Module) -> Interpreter<'m> {
        Interpreter::with_memory_size(module, DEFAULT_MEMORY_SIZE)
    }

    /// Creates an interpreter with a custom memory size.
    pub fn with_memory_size(module: &'m Module, mem_size: u64) -> Interpreter<'m> {
        let image = layout_globals(module);
        let mut mem = Memory::new(mem_size, image.heap_base, module.target().endianness);
        mem.write_bytes(llva_machine::memory::GLOBAL_BASE, &image.image)
            .expect("global image fits");
        let sp = mem.initial_sp();
        let func_names = module
            .functions()
            .map(|(_, f)| f.name().to_string())
            .collect();
        let bool_ty = module.types().bool_or_sentinel();
        Interpreter {
            module,
            mem,
            env: Env::new(),
            global_addrs: image.addrs,
            func_names,
            frames: Vec::new(),
            sp,
            insts: 0,
            fuel: u64::MAX,
            bool_ty,
        }
    }

    /// Limits the number of LLVA instructions executed.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// LLVA instructions executed so far.
    pub fn insts_executed(&self) -> u64 {
        self.insts
    }

    /// Runs function `name` with the given argument values.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::Trap`] for precise traps (after invoking
    /// a registered trap handler, §3.5, if any), [`InterpError::OutOfFuel`]
    /// past the fuel limit, and [`InterpError::NoSuchFunction`] for a
    /// missing entry point.
    pub fn run(&mut self, name: &str, args: &[u64]) -> Result<u64, InterpError> {
        let fid = self
            .module
            .function_by_name(name)
            .filter(|&f| !self.module.function(f).is_declaration())
            .ok_or_else(|| InterpError::NoSuchFunction(name.to_string()))?;
        match self.run_function(fid, args) {
            Err(InterpError::Trap(trap)) => {
                // §3.5: deliver to a registered trap handler, then report.
                let trap_no = trap_number(trap.kind);
                if let Some(&handler) = self.env.trap_handlers.get(&trap_no) {
                    // A stale or forged registration must not abort trap
                    // delivery: an out-of-range handler is simply ignored.
                    if (handler as usize) < self.module.num_functions() {
                        let h = FuncId::from_index(handler as usize);
                        if !self.module.function(h).is_declaration() {
                            let _ = self.run_function(h, &[u64::from(trap_no), 0]);
                        }
                    }
                }
                Err(InterpError::Trap(trap))
            }
            other => other,
        }
    }

    fn run_function(&mut self, fid: FuncId, args: &[u64]) -> Result<u64, InterpError> {
        self.frames.clear();
        self.push_frame(fid, args, None)?;
        loop {
            match self.step() {
                Ok(Some(ret)) => return Ok(ret),
                Ok(None) => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn push_frame(
        &mut self,
        fid: FuncId,
        args: &[u64],
        unwind_to: Option<BlockId>,
    ) -> Result<(), InterpError> {
        let func = self.module.function(fid);
        let mut values = HashMap::new();
        for (&a, &v) in func.args().iter().zip(args) {
            values.insert(a, v);
        }
        self.frames.push(Frame {
            func: fid,
            block: func.entry_block(),
            prev_block: None,
            idx: 0,
            values,
            saved_sp: self.sp,
            pending_call: None,
            unwind_to,
        });
        Ok(())
    }

    fn trap(&self, kind: TrapKind) -> InterpError {
        let frame = self.frames.last().expect("active frame");
        let func = self.module.function(frame.func);
        InterpError::Trap(LlvaTrap {
            kind,
            function: Name::new(func.name()),
            block: Name::new(func.block(frame.block).name()),
            index: frame.idx,
        })
    }

    fn value(&self, v: ValueId) -> u64 {
        let frame = self.frames.last().expect("active frame");
        if let Some(&x) = frame.values.get(&v) {
            return x;
        }
        let func = self.module.function(frame.func);
        match func.value_as_const(v) {
            Some(Constant::GlobalAddr { global, .. }) => self.global_addrs[global.index()],
            Some(Constant::FunctionAddr { func, .. }) => function_value(func.index() as u32),
            Some(c) => llva_backend::common::canonical_const(self.module, c),
            None => panic!("use of undefined value {v}"),
        }
    }

    fn set_value(&mut self, v: ValueId, x: u64) {
        self.frames
            .last_mut()
            .expect("active frame")
            .values
            .insert(v, x);
    }

    fn vty(&self, v: ValueId) -> TypeId {
        let frame = self.frames.last().expect("active frame");
        self.module.function(frame.func).value_type(v, self.bool_ty)
    }

    /// Executes one instruction; returns `Some(ret)` when the outermost
    /// function returns.
    #[allow(clippy::too_many_lines)]
    fn step(&mut self) -> Result<Option<u64>, InterpError> {
        if self.fuel == 0 {
            return Err(InterpError::OutOfFuel);
        }
        self.fuel -= 1;
        self.insts += 1;
        self.env.clock += 1;

        let (fid, block, idx) = {
            let f = self.frames.last().expect("active frame");
            (f.func, f.block, f.idx)
        };
        let func = self.module.function(fid);
        let inst_id = func.block(block).insts()[idx];
        let inst = func.inst(inst_id);
        let op = inst.opcode();
        let ops = inst.operands().to_vec();
        let blocks = inst.block_operands().to_vec();
        let exc = inst.exceptions_enabled();
        let result_ty = inst.result_type();
        let result_val = func.inst_result(inst_id);
        let tt = self.module.types();

        match op {
            _ if op.is_binary() => {
                let a = self.value(ops[0]);
                let b = self.value(ops[1]);
                let out = if tt.is_float(result_ty) {
                    let is32 = matches!(tt.kind(result_ty), TypeKind::Float);
                    let out = eval::float_binary(op, a, b, is32);
                    out.ok_or_else(|| self.trap(TrapKind::Software))?
                } else {
                    let w = tt.int_bits(result_ty).expect("integer binary op");
                    let signed = tt.is_signed_integer(result_ty);
                    match eval::int_binary(op, a, b, w, signed) {
                        Some(v) => v,
                        None if exc => return Err(self.trap(TrapKind::DivideByZero)),
                        None => 0,
                    }
                };
                self.set_value(result_val.expect("binary result"), out);
                self.advance();
            }
            _ if op.is_comparison() => {
                let a = self.value(ops[0]);
                let b = self.value(ops[1]);
                let r = eval::compare(op, eval::cmp_class(tt, self.vty(ops[0])), a, b);
                self.set_value(result_val.expect("cmp result"), u64::from(r));
                self.advance();
            }
            Opcode::Ret => {
                let ret = ops.first().map(|&v| self.value(v)).unwrap_or(0);
                let frame = self.frames.pop().expect("active frame");
                self.sp = frame.saved_sp;
                match self.frames.last_mut() {
                    None => return Ok(Some(ret)),
                    Some(caller) => {
                        let caller_func = self.module.function(caller.func);
                        let call_inst = caller.pending_call.take().expect("call in progress");
                        if let Some(rv) = caller_func.inst_result(call_inst) {
                            caller.values.insert(rv, ret);
                        }
                        // invoke continues at its normal target
                        let inst = caller_func.inst(call_inst);
                        if inst.opcode() == Opcode::Invoke {
                            let normal = inst.block_operands()[0];
                            caller.prev_block = Some(caller.block);
                            caller.block = normal;
                            caller.idx = 0;
                            let (pb, blk) = (caller.prev_block, caller.block);
                            self.run_phis(pb, blk)?;
                        } else {
                            caller.idx += 1;
                        }
                    }
                }
            }
            Opcode::Br => {
                let target = if ops.is_empty() || self.value(ops[0]) != 0 {
                    blocks[0]
                } else {
                    blocks[1]
                };
                self.branch_to(target)?;
            }
            Opcode::Mbr => {
                let disc = self.value(ops[0]);
                let mut target = blocks[0];
                for (i, &case) in ops[1..].iter().enumerate() {
                    if self.value(case) == disc {
                        target = blocks[1 + i];
                        break;
                    }
                }
                self.branch_to(target)?;
            }
            Opcode::Call | Opcode::Invoke => {
                let callee_v = self.value(ops[0]);
                let callee_idx = (callee_v & !FUNC_TAG) as usize;
                if callee_v & FUNC_TAG == 0 || callee_idx >= self.module.num_functions() {
                    return Err(self.trap(TrapKind::BadFunctionPointer));
                }
                let callee = FuncId::from_index(callee_idx);
                let args: Vec<u64> = ops[1..].iter().map(|&a| self.value(a)).collect();
                // `module` outlives `self`, so borrowing the callee name
                // does not conflict with the `&mut self.env` below — no
                // allocation on this (hot, non-trapping) path.
                let module = self.module;
                let callee_name = module.function(callee).name();
                if let Some(intr) = llva_core::intrinsics::Intrinsic::by_name(callee_name) {
                    let stack = StackView {
                        functions: self
                            .frames
                            .iter()
                            .rev()
                            .map(|f| f.func.index() as u32)
                            .collect(),
                    };
                    let ret = self
                        .env
                        .handle(intr, &args, &mut self.mem, &stack, &self.func_names)
                        .map_err(|k| self.trap(k))?;
                    if let Some(rv) = result_val {
                        self.set_value(rv, ret);
                    }
                    if op == Opcode::Invoke {
                        self.branch_to(blocks[0])?;
                    } else {
                        self.advance();
                    }
                    return Ok(None);
                }
                if self.module.function(callee).is_declaration() {
                    return Err(self.trap(TrapKind::BadFunctionPointer));
                }
                if self.frames.len() > 4096 {
                    return Err(self.trap(TrapKind::StackOverflow));
                }
                let unwind_to = (op == Opcode::Invoke).then(|| blocks[1]);
                {
                    let frame = self.frames.last_mut().expect("active");
                    frame.pending_call = Some(inst_id);
                }
                self.push_frame(callee, &args, unwind_to)?;
            }
            Opcode::Unwind => {
                // pop frames to the nearest enclosing invoke (§3.1)
                let unhandled = || {
                    InterpError::Trap(LlvaTrap {
                        kind: TrapKind::UnhandledUnwind,
                        function: Name::new(self.module.function(fid).name()),
                        block: Name::new(self.module.function(fid).block(block).name()),
                        index: idx,
                    })
                };
                loop {
                    let frame = self.frames.pop().ok_or_else(unhandled)?;
                    self.sp = frame.saved_sp;
                    // this frame was entered via invoke iff unwind_to is set
                    if let Some(t) = frame.unwind_to {
                        let caller = self.frames.last_mut().ok_or_else(unhandled)?;
                        caller.pending_call = None;
                        caller.prev_block = Some(caller.block);
                        caller.block = t;
                        caller.idx = 0;
                        let (pb, blk) = (
                            self.frames.last().expect("caller").prev_block,
                            self.frames.last().expect("caller").block,
                        );
                        self.run_phis(pb, blk)?;
                        break;
                    }
                    if self.frames.is_empty() {
                        return Err(unhandled());
                    }
                    self.frames.last_mut().expect("caller").pending_call = None;
                }
            }
            Opcode::Load => {
                let addr = self.value(ops[0]);
                let pointee = tt.pointee(self.vty(ops[0])).expect("pointer");
                let (width, signed) = access_of(self.module, pointee);
                let loaded = if signed {
                    self.mem.load_signed(addr, width)
                } else {
                    self.mem.load(addr, width)
                };
                match loaded {
                    Ok(v) => {
                        self.set_value(result_val.expect("load result"), v);
                        self.advance();
                    }
                    Err(k) => {
                        if exc {
                            return Err(self.trap(k));
                        }
                        self.set_value(result_val.expect("load result"), 0);
                        self.advance();
                    }
                }
            }
            Opcode::Store => {
                let v = self.value(ops[0]);
                let addr = self.value(ops[1]);
                let pointee = tt.pointee(self.vty(ops[1])).expect("pointer");
                let (width, _) = access_of(self.module, pointee);
                match self.mem.store(addr, v, width) {
                    Ok(()) => self.advance(),
                    Err(k) => {
                        if exc {
                            return Err(self.trap(k));
                        }
                        self.advance();
                    }
                }
            }
            Opcode::GetElementPtr => {
                let addr = self.eval_gep(&ops)?;
                self.set_value(result_val.expect("gep result"), addr);
                self.advance();
            }
            Opcode::Alloca => {
                let pointee = tt.pointee(result_ty).expect("alloca pointer");
                let unit = self.module.target().size_of(tt, pointee).max(1);
                let count = ops.first().map(|&c| self.value(c)).unwrap_or(1);
                let Some(sp) = alloca_sp(self.sp, self.mem.stack_limit(), unit, count) else {
                    return Err(self.trap(TrapKind::StackOverflow));
                };
                self.sp = sp;
                let addr = self.sp;
                self.set_value(result_val.expect("alloca result"), addr);
                self.advance();
            }
            Opcode::Cast => {
                let v = self.value(ops[0]);
                let out = eval::cast(eval::cast_kind(tt, self.vty(ops[0]), result_ty), v);
                self.set_value(result_val.expect("cast result"), out);
                self.advance();
            }
            Opcode::Phi => {
                unreachable!("phis are executed on block entry");
            }
            _ => unreachable!("all opcodes covered"),
        }
        Ok(None)
    }

    fn advance(&mut self) {
        self.frames.last_mut().expect("active").idx += 1;
    }

    fn branch_to(&mut self, target: BlockId) -> Result<(), InterpError> {
        {
            let frame = self.frames.last_mut().expect("active");
            frame.prev_block = Some(frame.block);
            frame.block = target;
            frame.idx = 0;
        }
        let (pb, blk) = {
            let f = self.frames.last().expect("active");
            (f.prev_block, f.block)
        };
        self.run_phis(pb, blk)
    }

    /// Evaluates the phis at the head of `block` in parallel, then skips
    /// past them.
    fn run_phis(&mut self, prev: Option<BlockId>, block: BlockId) -> Result<(), InterpError> {
        let fid = self.frames.last().expect("active").func;
        let func = self.module.function(fid);
        let mut assignments: Vec<(ValueId, u64)> = Vec::new();
        let mut nphis = 0usize;
        for &i in func.block(block).insts() {
            if func.inst(i).opcode() != Opcode::Phi {
                break;
            }
            nphis += 1;
            // Verified modules guarantee both of these; on a malformed
            // module we degrade to a software trap instead of aborting.
            let Some(incoming) = prev.and_then(|pb| func.phi_incoming(i, pb)) else {
                return Err(self.trap(TrapKind::Software));
            };
            let v = self.value(incoming);
            let Some(result) = func.inst_result(i) else {
                return Err(self.trap(TrapKind::Software));
            };
            assignments.push((result, v));
        }
        let frame = self.frames.last_mut().expect("active");
        for (k, v) in assignments {
            frame.values.insert(k, v);
        }
        frame.idx = nphis;
        Ok(())
    }

    fn eval_gep(&mut self, ops: &[ValueId]) -> Result<u64, InterpError> {
        let tt = self.module.types();
        let cfg = self.module.target();
        let mut addr = self.value(ops[0]);
        let mut cur = tt.pointee(self.vty(ops[0])).expect("gep base");
        let frame_func = self.module.function(self.frames.last().expect("active").func);
        for (i, &idx) in ops[1..].iter().enumerate() {
            if i == 0 {
                let k = self.value(idx) as i64;
                addr = addr.wrapping_add((k * cfg.size_of(tt, cur) as i64) as u64);
                continue;
            }
            match tt.kind(cur).clone() {
                TypeKind::Array { elem, .. } => {
                    let k = self.value(idx) as i64;
                    addr = addr.wrapping_add((k * cfg.size_of(tt, elem) as i64) as u64);
                    cur = elem;
                }
                TypeKind::LiteralStruct(_) | TypeKind::Struct(_) => {
                    let field = frame_func
                        .value_as_const(idx)
                        .and_then(Constant::as_int_bits)
                        .expect("struct index constant") as usize;
                    addr = addr.wrapping_add(cfg.field_offset(tt, cur, field));
                    cur = tt.struct_fields(cur).expect("defined")[field];
                }
                _ => return Err(self.trap(TrapKind::MemoryFault)),
            }
        }
        Ok(addr)
    }
}

/// Standard trap numbering used by `llva.trap.register` (§3.5).
pub fn trap_number(kind: TrapKind) -> u32 {
    match kind {
        TrapKind::MemoryFault => 1,
        TrapKind::DivideByZero => 2,
        TrapKind::UnhandledUnwind => 3,
        TrapKind::Software => 4,
        TrapKind::PrivilegeViolation => 5,
        TrapKind::BadFunctionPointer => 6,
        TrapKind::StackOverflow => 7,
    }
}

/// The stack pointer after an `alloca` of `count` × `unit` bytes,
/// rounded up to 8, below `sp`; `None` — a stack overflow — when it
/// would pass `limit` or the size does not fit in 64 bits.
pub(crate) fn alloca_sp(sp: u64, limit: u64, unit: u64, count: u64) -> Option<u64> {
    let size = unit.checked_mul(count)?.checked_add(7)? & !7;
    sp.checked_sub(size).filter(|&sp| sp >= limit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interp_run(src: &str, entry: &str, args: &[u64]) -> Result<u64, InterpError> {
        let m = llva_core::parser::parse_module(src).expect("parses");
        llva_core::verifier::verify_module(&m).expect("verifies");
        let mut i = Interpreter::new(&m);
        i.run(entry, args)
    }

    #[test]
    fn fib() {
        let r = interp_run(
            r#"
int %fib(int %n) {
entry:
    %c = setlt int %n, 2
    br bool %c, label %base, label %rec
base:
    ret int %n
rec:
    %n1 = sub int %n, 1
    %a = call int %fib(int %n1)
    %n2 = sub int %n, 2
    %b = call int %fib(int %n2)
    %s = add int %a, %b
    ret int %s
}
"#,
            "fib",
            &[12],
        );
        assert_eq!(r, Ok(144));
    }

    #[test]
    fn loop_with_phis() {
        let r = interp_run(
            r#"
int %sum(int %n) {
entry:
    br label %header
header:
    %i = phi int [ 0, %entry ], [ %i2, %body ]
    %s = phi int [ 0, %entry ], [ %s2, %body ]
    %c = setlt int %i, %n
    br bool %c, label %body, label %exit
body:
    %s2 = add int %s, %i
    %i2 = add int %i, 1
    br label %header
exit:
    ret int %s
}
"#,
            "sum",
            &[100],
        );
        assert_eq!(r, Ok(4950));
    }

    #[test]
    fn swap_phis_are_parallel() {
        // classic swap problem: a,b = b,a each iteration
        let r = interp_run(
            r#"
int %swap(int %n) {
entry:
    br label %header
header:
    %i = phi int [ 0, %entry ], [ %i2, %body ]
    %a = phi int [ 1, %entry ], [ %b, %body ]
    %b = phi int [ 2, %entry ], [ %a, %body ]
    %c = setlt int %i, %n
    br bool %c, label %body, label %exit
body:
    %i2 = add int %i, 1
    br label %header
exit:
    ret int %a
}
"#,
            "swap",
            &[3],
        );
        // after 3 swaps starting at (1,2): a = 2
        assert_eq!(r, Ok(2));
    }

    #[test]
    fn memory_and_gep() {
        let r = interp_run(
            r#"
%Pair = type { int, long }

long %main() {
entry:
    %p = alloca %Pair
    %f0 = getelementptr %Pair* %p, long 0, ubyte 0
    %f1 = getelementptr %Pair* %p, long 0, ubyte 1
    store int 7, int* %f0
    store long 35, long* %f1
    %a = load int* %f0
    %b = load long* %f1
    %aw = cast int %a to long
    %s = add long %aw, %b
    ret long %s
}
"#,
            "main",
            &[],
        );
        assert_eq!(r, Ok(42));
    }

    #[test]
    fn precise_divide_trap() {
        let r = interp_run(
            r#"
int %main(int %x) {
entry:
    %q = div int 10, %x
    ret int %q
}
"#,
            "main",
            &[0],
        );
        match r {
            Err(InterpError::Trap(t)) => {
                assert_eq!(t.kind, TrapKind::DivideByZero);
                assert_eq!(t.function, "main");
                assert_eq!(t.block, "entry");
                assert_eq!(t.index, 0);
            }
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn noexc_div_suppressed() {
        let r = interp_run(
            r#"
int %main(int %x) {
entry:
    %q = div [noexc] int 10, %x
    ret int %q
}
"#,
            "main",
            &[0],
        );
        assert_eq!(r, Ok(0));
    }

    #[test]
    fn null_load_traps_precisely() {
        let r = interp_run(
            r#"
int %main() {
entry:
    %p = cast long 0 to int*
    %v = load int* %p
    ret int %v
}
"#,
            "main",
            &[],
        );
        match r {
            Err(InterpError::Trap(t)) => assert_eq!(t.kind, TrapKind::MemoryFault),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn invoke_and_unwind() {
        let r = interp_run(
            r#"
void %risky(int %x) {
entry:
    %c = setgt int %x, 0
    br bool %c, label %boom, label %ok
boom:
    unwind
ok:
    ret void
}

int %main(int %x) {
entry:
    invoke void %risky(int %x) to label %fine unwind label %caught
fine:
    ret int 0
caught:
    ret int 1
}
"#,
            "main",
            &[1],
        );
        assert_eq!(r, Ok(1));
    }

    #[test]
    fn intrinsic_io() {
        let m = llva_core::parser::parse_module(
            r#"
declare int %llva.io.putchar(int)

int %main() {
entry:
    %a = call int %llva.io.putchar(int 104)
    %b = call int %llva.io.putchar(int 105)
    ret int 0
}
"#,
        )
        .expect("parses");
        let mut i = Interpreter::new(&m);
        assert_eq!(i.run("main", &[]), Ok(0));
        assert_eq!(i.env.stdout_string(), "hi");
    }

    #[test]
    fn trap_handler_runs_on_fault() {
        let m = llva_core::parser::parse_module(
            r#"
declare int %llva.io.putchar(int)
declare int %llva.priv.set(bool)
declare int %llva.trap.register(int, void (int, sbyte*)*)

void %handler(int %no, sbyte* %info) {
entry:
    %c = add int %no, 64
    %x = call int %llva.io.putchar(int %c)
    ret void
}

int %main() {
entry:
    %p = call int %llva.priv.set(bool true)
    %r = call int %llva.trap.register(int 2, void (int, sbyte*)* %handler)
    %q = div int 1, 0
    ret int %q
}
"#,
        )
        .expect("parses");
        let mut i = Interpreter::new(&m);
        i.env.privileged = true; // boot as kernel so priv.set is legal
        let r = i.run("main", &[]);
        assert!(matches!(r, Err(InterpError::Trap(t)) if t.kind == TrapKind::DivideByZero));
        // handler printed 'B' (64 + trap number 2)
        assert_eq!(i.env.stdout_string(), "B");
    }

    #[test]
    fn fuel_limit() {
        let m = llva_core::parser::parse_module(
            r#"
int %main() {
entry:
    br label %entry2
entry2:
    br label %entry
}
"#,
        )
        .expect("parses");
        let mut i = Interpreter::new(&m);
        i.set_fuel(1000);
        assert_eq!(i.run("main", &[]), Err(InterpError::OutOfFuel));
    }
}
