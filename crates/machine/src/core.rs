//! One simulator core for every implementation ISA.
//!
//! The three simulated processors differ in their instructions and
//! calling conventions, not in how a processor runs. [`Machine`] is the
//! part they share: fetch, fuel, [`ExecStats`], the call-frame stack,
//! `unwind`, trap coordinates and every [`Exit`]. It is generic over an
//! [`Isa`], implemented by each ISA's instruction type, which supplies
//! only what differs: where the stack pointer and the return value
//! live, how arguments enter a function ([`Isa::enter`]), what one
//! instruction does ([`Isa::exec`]) and how many real instructions it
//! stands for ([`Isa::weight`]).
//!
//! [`Machine::run`] borrows the program for its whole duration, so no
//! code can be installed or invalidated under it: the loop holds the
//! current function's instructions as a slice and fetches again only
//! when control moves to another function (call, return, unwind). A
//! call saves the caller's register file only when it has an unwind
//! landing pad (an LLVA `invoke`), because those are the only frames
//! `unwind` restores from.

use crate::common::{function_value, ExecStats, Exit, Sym, Trap, TrapKind, Width, FUNC_TAG};
use crate::memory::Memory;
use llva_core::eval::{self, CmpClass};
use llva_core::intrinsics::Intrinsic;
use std::cmp::Ordering;
use std::marker::PhantomData;

/// Integer registers in the register file.
pub const GPRS: usize = 32;
/// Floating-point registers in the register file.
pub const FPRS: usize = 16;

/// The register file: as many integer and floating-point registers as
/// the largest ISA has (the IA-32-like one uses the first eight of
/// each).
#[derive(Debug, Clone, Copy, Default)]
pub struct Regs {
    /// Integer registers, indexed by the ISA's register numbers.
    pub gpr: [u64; GPRS],
    /// Float registers (raw bits).
    pub fpr: [u64; FPRS],
}

/// Condition codes: the outcome of the last compare, read as signed or
/// as unsigned integers (`None`: an unordered float compare). RISC-V has
/// no condition codes and never touches them.
#[derive(Debug, Clone, Copy)]
pub struct Flags {
    /// The compare read as signed integers, or as floats.
    pub signed: Option<Ordering>,
    /// The compare read as unsigned integers, or as floats.
    pub unsigned: Option<Ordering>,
}

impl Flags {
    /// The codes of an integer compare of `a` with `b`.
    pub fn int(a: u64, b: u64) -> Flags {
        Flags {
            signed: Some((a as i64).cmp(&(b as i64))),
            unsigned: Some(a.cmp(&b)),
        }
    }

    /// The codes of a float compare of the register bits `a` with `b`.
    pub fn float(a: u64, b: u64, is32: bool) -> Flags {
        let class = if is32 { CmpClass::F32 } else { CmpClass::F64 };
        let order = eval::order(class, a, b);
        Flags {
            signed: order,
            unsigned: order,
        }
    }
}

impl Default for Flags {
    /// A processor starts as if it had compared 0 with 0.
    fn default() -> Flags {
        Flags::int(0, 0)
    }
}

/// The architectural state an instruction reads and writes.
#[derive(Debug)]
pub struct Cpu {
    /// Registers.
    pub regs: Regs,
    /// Condition codes.
    pub flags: Flags,
    /// The processor's memory.
    pub mem: Memory,
    /// Performance counters. [`Isa::exec`] counts the loads, stores and
    /// calls an instruction makes; the core counts instructions, cycles
    /// and taken branches.
    pub stats: ExecStats,
}

impl Cpu {
    /// The register calling convention: the first `n` arguments in
    /// consecutive registers from `first`, the rest on the stack below
    /// the stack pointer `sp`.
    ///
    /// # Errors
    ///
    /// A trap from writing a stack argument.
    pub fn pass_in_registers(
        &mut self,
        first: usize,
        n: usize,
        sp: usize,
        args: &[u64],
    ) -> Result<(), TrapKind> {
        let (in_regs, on_stack) = args.split_at(args.len().min(n));
        self.regs.gpr[first..first + in_regs.len()].copy_from_slice(in_regs);
        if !on_stack.is_empty() {
            let base = self.regs.gpr[sp] - 8 * on_stack.len() as u64;
            for (slot, &a) in (base..).step_by(8).zip(on_stack) {
                self.mem.store(slot, a, Width::B8)?;
            }
            self.regs.gpr[sp] = base;
        }
        Ok(())
    }
}

/// What an executed instruction does to control flow.
#[derive(Debug)]
pub enum Flow {
    /// Fall through to the next instruction, after this many cycles.
    Next(u64),
    /// A taken branch to this instruction index (1 cycle).
    Jump(u32),
    /// A call. Its cycles are charged once the callee is installed and
    /// entered; a call to untranslated code exits without advancing.
    Call {
        /// Callee function index.
        func: u32,
        /// Landing pad in the caller for an `unwind` through this call.
        unwind: Option<u32>,
        /// Cycles of the call.
        cycles: u64,
    },
    /// Return to the caller (2 cycles).
    Ret,
    /// LLVA `unwind`: pop frames to the nearest landing pad (2 cycles).
    Unwind,
    /// An intrinsic call for the engine to service (0 cycles).
    Intrinsic {
        /// Which intrinsic.
        which: Intrinsic,
        /// Raw argument values.
        args: Vec<u64>,
    },
}

/// An implementation ISA, implemented by its instruction type.
pub trait Isa: Sized {
    /// Index of the stack pointer in [`Regs::gpr`].
    const SP: usize;
    /// Index of the register a function returns its value in.
    const RESULT: usize;

    /// How many real instructions this one stands for (the
    /// `instructions` counter and Table 2's instruction columns).
    fn weight(&self) -> u32 {
        1
    }

    /// Approximate encoded size in bytes.
    fn native_size(&self) -> u32;

    /// Passes `args` to a function about to be entered (the calling
    /// convention).
    ///
    /// # Errors
    ///
    /// A trap from writing stack arguments.
    fn enter(cpu: &mut Cpu, args: &[u64]) -> Result<(), TrapKind>;

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// The trap it raises; the core reports it at this instruction.
    fn exec(&self, cpu: &mut Cpu, program: &Program<Self>) -> Result<Flow, TrapKind>;
}

/// A translated native program: per-function code plus the global
/// address map produced at load/relocation time.
#[derive(Debug, Clone)]
pub struct Program<I> {
    functions: Vec<Option<Vec<I>>>,
    global_addrs: Vec<u64>,
}

impl<I: Isa> Program<I> {
    /// Creates a program with `num_functions` empty translation slots.
    pub fn new(num_functions: usize, global_addrs: Vec<u64>) -> Program<I> {
        let mut functions = Vec::new();
        functions.resize_with(num_functions, || None);
        Program {
            functions,
            global_addrs,
        }
    }

    /// Grows the translation table to at least `n` slots (self-
    /// extending code adds functions after program creation, §3.4).
    pub fn ensure_slots(&mut self, n: usize) {
        if self.functions.len() < n {
            self.functions.resize_with(n, || None);
        }
    }

    /// Installs translated code for function `idx` (JIT or cache load).
    pub fn install(&mut self, idx: u32, code: Vec<I>) {
        self.functions[idx as usize] = Some(code);
    }

    /// Removes the code for function `idx` (SMC invalidation, §3.4).
    pub fn invalidate(&mut self, idx: u32) {
        self.functions[idx as usize] = None;
    }

    /// Whether code for function `idx` is installed.
    pub fn is_installed(&self, idx: u32) -> bool {
        self.code(idx).is_some()
    }

    /// The installed code for function `idx`.
    pub fn code(&self, idx: u32) -> Option<&[I]> {
        self.functions.get(idx as usize)?.as_deref()
    }

    /// The relocated address of global `idx`.
    pub fn global_addr(&self, idx: u32) -> u64 {
        self.global_addrs[idx as usize]
    }

    /// The run-time value of a relocated symbol.
    ///
    /// # Errors
    ///
    /// [`TrapKind::MemoryFault`] for a global the program does not have
    /// (only cached code that was tampered with names one).
    pub fn resolve(&self, sym: Sym) -> Result<u64, TrapKind> {
        match sym {
            Sym::Global(g) => {
                self.global_addrs.get(g as usize).copied().ok_or(TrapKind::MemoryFault)
            }
            Sym::Function(f) => Ok(function_value(f)),
        }
    }

    fn insts(&self) -> impl Iterator<Item = &I> {
        self.functions.iter().flatten().flatten()
    }

    /// Total native instruction count across installed functions,
    /// weighted (the native-instruction columns of Table 2).
    pub fn total_insts(&self) -> usize {
        self.insts().map(|i| i.weight() as usize).sum()
    }

    /// Total approximate native code bytes across installed functions.
    pub fn total_bytes(&self) -> usize {
        self.insts().map(|i| i.native_size() as usize).sum()
    }
}

/// The function index a tagged function value names.
///
/// # Errors
///
/// [`TrapKind::BadFunctionPointer`] for a value without the tag.
pub fn function_index(v: u64) -> Result<u32, TrapKind> {
    if v & FUNC_TAG == 0 {
        return Err(TrapKind::BadFunctionPointer);
    }
    Ok((v & !FUNC_TAG) as u32)
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    func: u32,
    ret_pc: u32,
    unwind: Option<u32>,
}

/// A simulated processor running one ISA's code.
#[derive(Debug)]
pub struct Machine<I> {
    /// Registers, condition codes, memory and counters.
    pub cpu: Cpu,
    frames: Vec<Frame>,
    /// The caller's registers at each call with a landing pad, innermost
    /// last — what a real unwinder reconstructs from unwind tables, so
    /// the frame pointer and values homed in callee-saved registers
    /// survive the non-local exit.
    saved: Vec<Regs>,
    cur_func: u32,
    pc: u32,
    pending_intrinsic: bool,
    isa: PhantomData<I>,
}

impl<I: Isa> Machine<I> {
    /// Creates a machine over `mem`, with the stack pointer at the top
    /// of memory.
    pub fn new(mem: Memory) -> Machine<I> {
        let mut regs = Regs::default();
        regs.gpr[I::SP] = mem.initial_sp();
        Machine {
            cpu: Cpu {
                regs,
                flags: Flags::default(),
                mem,
                stats: ExecStats::default(),
            },
            frames: Vec::new(),
            saved: Vec::new(),
            cur_func: 0,
            pc: 0,
            pending_intrinsic: false,
            isa: PhantomData,
        }
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> ExecStats {
        self.cpu.stats
    }

    /// Positions the machine at the entry of function `func` with the
    /// arguments placed per the calling convention.
    ///
    /// # Errors
    ///
    /// A trap (at `func`'s first instruction) from placing the arguments.
    pub fn call_entry(&mut self, func: u32, args: &[u64]) -> Result<(), Trap> {
        I::enter(&mut self.cpu, args).map_err(|kind| Trap {
            kind,
            function: func,
            pc: 0,
        })?;
        self.cur_func = func;
        self.pc = 0;
        self.frames.clear();
        self.saved.clear();
        Ok(())
    }

    /// The (function, pc) the machine is currently positioned at.
    pub fn current_location(&self) -> (u32, u32) {
        (self.cur_func, self.pc)
    }

    /// The functions on the call stack, innermost first (used by
    /// `llva.stack.*`).
    pub fn stack(&self) -> Vec<u32> {
        std::iter::once(self.cur_func)
            .chain(self.frames.iter().rev().map(|f| f.func))
            .collect()
    }

    /// Completes a pending intrinsic call with its return value.
    pub fn finish_intrinsic(&mut self, ret: u64) {
        debug_assert!(self.pending_intrinsic);
        self.cpu.regs.gpr[I::RESULT] = ret;
        self.pending_intrinsic = false;
        self.pc += 1;
    }

    /// Runs until an [`Exit`] occurs, executing at most `fuel`
    /// instructions.
    pub fn run(&mut self, program: &Program<I>, fuel: u64) -> Exit {
        let mut code = program.code(self.cur_func);
        for _ in 0..fuel {
            let Some(insts) = code else {
                return Exit::NeedFunction(self.cur_func);
            };
            let Some(inst) = insts.get(self.pc as usize) else {
                // falling off the end acts like `ret`
                if let Some(exit) = self.ret() {
                    return exit;
                }
                code = program.code(self.cur_func);
                continue;
            };
            self.cpu.stats.instructions += u64::from(inst.weight());
            let cycles = match inst.exec(&mut self.cpu, program) {
                Ok(Flow::Next(cycles)) => {
                    self.pc += 1;
                    cycles
                }
                Ok(Flow::Jump(target)) => {
                    self.pc = target;
                    self.cpu.stats.taken_branches += 1;
                    1
                }
                Ok(Flow::Call {
                    func,
                    unwind,
                    cycles,
                }) => {
                    code = program.code(func);
                    if code.is_none() {
                        return Exit::NeedFunction(func);
                    }
                    if unwind.is_some() {
                        self.saved.push(self.cpu.regs);
                    }
                    self.frames.push(Frame {
                        func: self.cur_func,
                        ret_pc: self.pc + 1,
                        unwind,
                    });
                    self.cur_func = func;
                    self.pc = 0;
                    cycles
                }
                Ok(Flow::Ret) => {
                    self.cpu.stats.cycles += 2;
                    if let Some(exit) = self.ret() {
                        return exit;
                    }
                    code = program.code(self.cur_func);
                    continue;
                }
                Ok(Flow::Unwind) => {
                    if !self.unwind() {
                        return self.trap(TrapKind::UnhandledUnwind);
                    }
                    code = program.code(self.cur_func);
                    2
                }
                Ok(Flow::Intrinsic { which, args }) => {
                    self.pending_intrinsic = true;
                    return Exit::Intrinsic { which, args };
                }
                Err(kind) => return self.trap(kind),
            };
            self.cpu.stats.cycles += cycles;
        }
        Exit::OutOfFuel
    }

    fn trap(&self, kind: TrapKind) -> Exit {
        Exit::Trapped(Trap {
            kind,
            function: self.cur_func,
            pc: self.pc,
        })
    }

    /// Returns to the caller, or halts with the outermost result.
    fn ret(&mut self) -> Option<Exit> {
        let Some(frame) = self.frames.pop() else {
            return Some(Exit::Halt(self.cpu.regs.gpr[I::RESULT]));
        };
        if frame.unwind.is_some() {
            self.saved.pop();
        }
        self.cur_func = frame.func;
        self.pc = frame.ret_pc;
        None
    }

    /// Pops frames to the nearest landing pad and restores the caller's
    /// registers there; false when no frame has one (the frames are gone
    /// and the machine still names the `unwind`).
    fn unwind(&mut self) -> bool {
        while let Some(frame) = self.frames.pop() {
            if let Some(pad) = frame.unwind {
                self.cpu.regs = self.saved.pop().expect("a landing pad saves its caller's registers");
                self.cur_func = frame.func;
                self.pc = pad;
                return true;
            }
        }
        false
    }
}
