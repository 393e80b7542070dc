//! The IA-32 target description.
//!
//! The paper's x86 back end "performs virtually no optimization and
//! very simple register allocation resulting in significant spill
//! code" (§5.2). That translator is kept as [`compile_x86_naive`] — the
//! shared driver under the naive policy, every SSA value homed in a
//! stack slot — because Table 2's spill-code numbers are measured
//! against it. The default path promotes the hottest integer values to
//! IA-32's three callee-saved registers (EBX/ESI/EDI). Promotion must
//! pay for the save/restore pair it costs, so an argument needs four
//! uses and a result two: call-heavy code with single-use values (fib)
//! keeps the naive translator's instruction counts. Arithmetic computes
//! in EAX/ECX/EDX, with memory-operand forms where the ISA allows, so
//! the scratch set never overlaps the homes.
//!
//! Frame discipline: `push ebp; mov ebp, esp; sub esp, frame`. Incoming
//! arguments stay where the caller pushed them (`[ebp + 8 + 8i]`)
//! unless promoted, and the caller pops them after the call. Compares
//! set flags for a `jcc` or a `setcc`.

use crate::common::ValClass;
use crate::lower::{self, Callee, Lower, Policy, Target, NAIVE};
use crate::peephole::{PeepholeConfig, X86Peep};
use llva_core::function::BlockId;
use llva_core::instruction::{InstId, Opcode};
use llva_core::module::{FuncId, Module};
use llva_core::types::TypeId;
use llva_core::value::ValueId;
use llva_machine::common::{FpOp, Sym, Width};
use llva_machine::x86::{AluOp, Cond, Fpr, Gpr, MemOp, Norm, X86Inst};

/// Compiles one function to x86 code. The module must verify.
pub fn compile_x86(module: &Module, fid: FuncId) -> Vec<X86Inst> {
    compile_x86_with(module, fid, &PeepholeConfig::on())
}

/// [`compile_x86`] with an explicit peephole configuration (used by
/// the conformance oracle's off-vs-on stages).
pub fn compile_x86_with(module: &Module, fid: FuncId, peep: &PeepholeConfig) -> Vec<X86Inst> {
    lower::compile::<X86>(module, fid, peep)
}

/// The paper-faithful translator: every value slot-homed, no peephole.
/// Kept as the baseline for Table 2 spill-count deltas.
pub fn compile_x86_naive(module: &Module, fid: FuncId) -> Vec<X86Inst> {
    lower::lower::<X86>(module, fid, &NAIVE)
}

/// Counts the frame-traffic (spill) instructions in a compiled stream:
/// loads and stores whose address is `ebp`-relative. This is the
/// "spill code" metric Table 2 reports for both x86 translators.
pub fn spill_count(code: &[X86Inst]) -> usize {
    code.iter()
        .filter(|i| match i {
            X86Inst::Load { mem, .. }
            | X86Inst::Store { mem, .. }
            | X86Inst::FLoad { mem, .. }
            | X86Inst::FStore { mem, .. }
            | X86Inst::AluRM(_, _, mem, _)
            | X86Inst::IMulRM(_, mem, _)
            | X86Inst::CmpRM(_, mem) => mem.base == Gpr::Ebp,
            _ => false,
        })
        .count()
}

const EAX: Gpr = Gpr::Eax;
const ECX: Gpr = Gpr::Ecx;
const EDX: Gpr = Gpr::Edx;
const F0: Fpr = Fpr(0);
const F1: Fpr = Fpr(1);

/// The IA-32 description the lowering driver runs over.
pub(crate) struct X86;

type E<'a> = Lower<'a, X86>;

fn slot(disp: i32) -> MemOp {
    MemOp {
        base: Gpr::Ebp,
        disp,
    }
}

fn at(base: Gpr) -> MemOp {
    MemOp { base, disp: 0 }
}

/// An immediate operand: a non-address constant that fits an i32.
fn imm32(e: &E, v: ValueId) -> Option<i64> {
    e.imm(v).filter(|&bits| i32::try_from(bits).is_ok())
}

/// The free width normalization real IA-32 arithmetic provides for
/// 32-bit operands.
fn norm_of(e: &E, ty: TypeId) -> Norm {
    match e.types().int_bits(ty) {
        Some(32) if e.signed(ty) => Norm::Sext32,
        Some(32) => Norm::Zext32,
        _ => Norm::None,
    }
}

/// Extends `r` in place when `ty` is narrower than `below` bits.
fn extend_below(e: &mut E, r: Gpr, ty: TypeId, below: u32) {
    if let Some(w) = e.types().int_bits(ty).filter(|&w| w < below) {
        let width = Width::from_bytes(u64::from(w.max(8)) / 8);
        e.push(if e.signed(ty) {
            X86Inst::SignExtend(r, width)
        } else {
            X86Inst::ZeroExtend(r, width)
        });
    }
}

/// Normalizes `r` after arithmetic: only 8/16-bit types need an
/// explicit extend (32-bit widths are free via [`Norm`]).
fn normalize(e: &mut E, r: Gpr, ty: TypeId) {
    extend_below(e, r, ty, 32);
}

fn cond_for(e: &E, op: Opcode, ty: TypeId) -> Cond {
    let signed = e.signed(ty) || e.types().is_float(ty);
    match (op, signed) {
        (Opcode::SetEq, _) => Cond::E,
        (Opcode::SetNe, _) => Cond::Ne,
        (Opcode::SetLt, true) => Cond::L,
        (Opcode::SetLt, false) => Cond::B,
        (Opcode::SetGt, true) => Cond::G,
        (Opcode::SetGt, false) => Cond::A,
        (Opcode::SetLe, true) => Cond::Le,
        (Opcode::SetLe, false) => Cond::Be,
        (Opcode::SetGe, true) => Cond::Ge,
        (Opcode::SetGe, false) => Cond::Ae,
        _ => unreachable!("not a comparison"),
    }
}

/// Emits the flag-setting compare of a `set*` instruction and returns
/// the condition its result is.
fn compare_flags(e: &mut E, cmp: InstId) -> Cond {
    let inst = e.func.inst(cmp);
    let (a, b) = (inst.operands()[0], inst.operands()[1]);
    let ty = e.vty(a);
    match e.class(ty) {
        ValClass::Int => {
            let ra = e.read(a, EAX);
            if let Some(imm) = imm32(e, b) {
                e.push(X86Inst::CmpRI(ra, imm));
            } else if let Some(off) = e.home_slot(b) {
                e.push(X86Inst::CmpRM(ra, slot(off)));
            } else {
                let rb = e.read(b, ECX);
                e.push(X86Inst::CmpRR(ra, rb));
            }
        }
        class => {
            e.fload(a, F0);
            e.fload(b, F1);
            e.push(X86Inst::FCmp(F0, F1, class == ValClass::F32));
        }
    }
    cond_for(e, inst.opcode(), ty)
}

impl Target for X86 {
    type Inst = X86Inst;
    type Reg = Gpr;
    type FReg = Fpr;
    type Lens = X86Peep;

    const ALLOCATABLE: &'static [Gpr] = &[Gpr::Ebx, Gpr::Esi, Gpr::Edi];
    const POLICY: Policy = Policy {
        promote: Some((4, 2)),
        home_fused: false,
        frame_base: 0,
    };
    const ARG_REGS: usize = 0;
    const ZERO: Option<Gpr> = None;
    const SCRATCH: [Gpr; 2] = [EAX, ECX];
    const RESULT: Gpr = EAX;
    const LOAD_RESULT: Gpr = ECX;
    const CALLEE: Gpr = ECX;
    const RET: Gpr = EAX;
    const F: [Fpr; 3] = [F0, F1, Fpr(2)];
    const FLOAT_RESULT_IN_GPR: bool = false;

    fn arg_home(i: usize) -> Option<i32> {
        Some(8 + 8 * i as i32)
    }

    fn mov(e: &mut E, dst: Gpr, src: Gpr) {
        e.push(X86Inst::MovRR(dst, src));
    }

    fn mat_const(e: &mut E, bits: u64, dst: Gpr) {
        e.push(X86Inst::MovRI(dst, bits as i64));
    }

    fn load_to(e: &mut E, v: ValueId, dst: Gpr) {
        match e.home_reg(v) {
            Some(home) => e.push(X86Inst::MovRR(dst, home)),
            None => {
                e.read(v, dst);
            }
        }
    }

    fn load_slot(e: &mut E, r: Gpr, off: i32) {
        e.push(X86Inst::Load {
            dst: r,
            mem: slot(off),
            width: Width::B8,
            signed: false,
        });
    }

    fn store_slot(e: &mut E, r: Gpr, off: i32) {
        e.push(X86Inst::Store {
            src: r,
            mem: slot(off),
            width: Width::B8,
        });
    }

    fn fload_slot(e: &mut E, f: Fpr, off: i32) {
        e.push(X86Inst::FLoad {
            dst: f,
            mem: slot(off),
            is32: false,
        });
    }

    fn fstore_slot(e: &mut E, f: Fpr, off: i32) {
        e.push(X86Inst::FStore {
            src: f,
            mem: slot(off),
            is32: false,
        });
    }

    fn mov_sym(r: Gpr, sym: Sym) -> X86Inst {
        X86Inst::MovRSym(r, sym)
    }

    fn mov_fg(f: Fpr, r: Gpr) -> X86Inst {
        X86Inst::MovFG(f, r)
    }

    fn mov_gf(r: Gpr, f: Fpr) -> X86Inst {
        X86Inst::MovGF(r, f)
    }

    fn load(rd: Gpr, base: Gpr, width: Width, signed: bool) -> X86Inst {
        X86Inst::Load {
            dst: rd,
            mem: at(base),
            width,
            signed,
        }
    }

    fn store(rs: Gpr, base: Gpr, width: Width) -> X86Inst {
        X86Inst::Store {
            src: rs,
            mem: at(base),
            width,
        }
    }

    fn fload(f: Fpr, base: Gpr, is32: bool) -> X86Inst {
        X86Inst::FLoad {
            dst: f,
            mem: at(base),
            is32,
        }
    }

    fn jump() -> X86Inst {
        X86Inst::Jmp(0)
    }

    fn unwind() -> X86Inst {
        X86Inst::Unwind
    }

    fn prologue(e: &mut E) {
        e.push(X86Inst::Push(Gpr::Ebp));
        e.push(X86Inst::MovRR(Gpr::Ebp, Gpr::Esp));
        if e.frame.size > 0 {
            let frame = i64::from(e.frame.size);
            e.push(X86Inst::AluRI(AluOp::Sub, Gpr::Esp, frame, Norm::None));
        }
        for (r, off) in e.frame.saves.clone() {
            Self::store_slot(e, r, off);
        }
        // promoted arguments move out of the caller's frame
        let func = e.func;
        for (i, &a) in func.args().iter().enumerate() {
            if let Some(home) = e.home_reg(a) {
                Self::load_slot(e, home, 8 + 8 * i as i32);
            }
        }
    }

    fn epilogue(e: &mut E) {
        for (r, off) in e.frame.saves.clone() {
            Self::load_slot(e, r, off);
        }
        e.push(X86Inst::MovRR(Gpr::Esp, Gpr::Ebp));
        e.push(X86Inst::Pop(Gpr::Ebp));
        e.push(X86Inst::Ret);
    }

    fn frame_addr(e: &mut E, rd: Gpr, off: i32) {
        e.push(X86Inst::Lea(rd, slot(off)));
    }

    fn stack_alloc(e: &mut E, rd: Gpr, count: ValueId, size: u64) {
        Self::load_to(e, count, ECX);
        e.push(X86Inst::MovRI(EDX, size as i64));
        e.push(X86Inst::IMulRR(ECX, EDX, Norm::None));
        e.push(X86Inst::AluRR(AluOp::Sub, Gpr::Esp, ECX, Norm::None));
        e.push(X86Inst::MovRR(rd, Gpr::Esp));
    }

    fn pass_args(e: &mut E, args: &[ValueId]) {
        // pushed right to left
        for &a in args.iter().rev() {
            let r = e.read(a, EAX);
            e.push(X86Inst::Push(r));
        }
    }

    fn call(callee: Callee<Gpr>, nargs: usize, unwind: Option<u32>) -> X86Inst {
        match callee {
            Callee::Intrinsic(which) => X86Inst::CallIntrinsic {
                which,
                nargs: nargs as u8,
            },
            Callee::Direct(func) => X86Inst::CallFn { func, unwind },
            Callee::Indirect(target) => X86Inst::CallIndirect { target, unwind },
        }
    }

    fn after_call(e: &mut E, nargs: usize) {
        if nargs > 0 {
            let cleanup = 8 * nargs as i64;
            e.push(X86Inst::AluRI(AluOp::Add, Gpr::Esp, cleanup, Norm::None));
        }
    }

    fn int_binary(e: &mut E, id: InstId, op: Opcode, ops: &[ValueId], ty: TypeId, trapping: bool) {
        let signed = e.signed(ty);
        if matches!(op, Opcode::Div | Opcode::Rem) {
            Self::load_to(e, ops[0], EAX);
            e.push(if signed {
                X86Inst::Cdq
            } else {
                X86Inst::MovRI(EDX, 0)
            });
            // the divisor must survive EDX:EAX setup; homes do,
            // otherwise stage through ECX
            let divisor = e.read(ops[1], ECX);
            let norm = norm_of(e, ty);
            e.push(X86Inst::Div {
                signed,
                divisor,
                trapping,
                norm,
            });
            let out = if op == Opcode::Div { EAX } else { EDX };
            normalize(e, out, ty);
            e.finish(id, out);
            return;
        }
        // only results that can carry past the width normalize
        let wraps = matches!(op, Opcode::Add | Opcode::Sub | Opcode::Mul | Opcode::Shl);
        let norm = if wraps { norm_of(e, ty) } else { Norm::None };
        let dst = e.dst(id, EAX);
        Self::load_to(e, ops[0], dst);
        let b = ops[1];
        if op == Opcode::Mul {
            if let Some(home) = e.home_reg(b) {
                e.push(X86Inst::IMulRR(dst, home, norm));
            } else if let Some(off) = e.home_slot(b) {
                e.push(X86Inst::IMulRM(dst, slot(off), norm));
            } else {
                Self::load_to(e, b, ECX);
                e.push(X86Inst::IMulRR(dst, ECX, norm));
            }
        } else {
            let alu = match (op, signed) {
                (Opcode::Add, _) => AluOp::Add,
                (Opcode::Sub, _) => AluOp::Sub,
                (Opcode::And, _) => AluOp::And,
                (Opcode::Or, _) => AluOp::Or,
                (Opcode::Xor, _) => AluOp::Xor,
                (Opcode::Shl, _) => AluOp::Shl,
                (Opcode::Shr, true) => AluOp::Sar,
                (Opcode::Shr, false) => AluOp::Shr,
                _ => unreachable!("not an integer binary operator"),
            };
            let shift = matches!(op, Opcode::Shl | Opcode::Shr);
            if let Some(imm) = imm32(e, b) {
                e.push(X86Inst::AluRI(alu, dst, imm, norm));
            } else if let (false, Some(home)) = (shift, e.home_reg(b)) {
                e.push(X86Inst::AluRR(alu, dst, home, norm));
            } else if let (false, Some(off)) = (shift, e.home_slot(b)) {
                e.push(X86Inst::AluRM(alu, dst, slot(off), norm));
            } else {
                let rb = e.read(b, ECX);
                e.push(X86Inst::AluRR(alu, dst, rb, norm));
            }
        }
        if wraps {
            normalize(e, dst, ty);
        }
        e.finish(id, dst);
    }

    fn falu(e: &mut E, op: FpOp, fd: Fpr, fa: Fpr, fb: Fpr, is32: bool) {
        // two-address: copy the first operand into the destination
        if fd != fa {
            e.push(X86Inst::FMovRR(fd, fa));
        }
        e.push(X86Inst::FAlu(op, fd, fb, is32));
    }

    fn cvt_if(f: Fpr, r: Gpr, to32: bool, signed: bool) -> X86Inst {
        X86Inst::CvtIF {
            dst: f,
            src: r,
            to32,
            signed,
        }
    }

    fn cvt_fi(r: Gpr, f: Fpr, from32: bool, signed: bool) -> X86Inst {
        X86Inst::CvtFI {
            dst: r,
            src: f,
            from32,
            signed,
        }
    }

    fn cvt_ff(fd: Fpr, fs: Fpr, to32: bool) -> X86Inst {
        X86Inst::CvtFF {
            dst: fd,
            src: fs,
            to32,
        }
    }

    fn extend(e: &mut E, r: Gpr, ty: TypeId) {
        // casts have no arithmetic instruction to fold a width into
        extend_below(e, r, ty, 64);
    }

    fn int_to_bool(e: &mut E, src: ValueId, rd: Gpr) {
        Self::load_to(e, src, rd);
        e.push(X86Inst::CmpRI(rd, 0));
        e.push(X86Inst::MovRI(rd, 0));
        e.push(X86Inst::Setcc(Cond::Ne, rd));
    }

    fn float_to_bool(e: &mut E, rd: Gpr, is32: bool) {
        e.push(X86Inst::MovRI(EAX, 0));
        e.push(X86Inst::MovFG(F1, EAX));
        e.push(X86Inst::FCmp(F0, F1, is32));
        e.push(X86Inst::MovRI(rd, 0));
        e.push(X86Inst::Setcc(Cond::Ne, rd));
    }

    fn set_cond(e: &mut E, cmp: InstId, rd: Gpr) {
        let cond = compare_flags(e, cmp);
        e.push(X86Inst::MovRI(rd, 0));
        e.push(X86Inst::Setcc(cond, rd));
    }

    fn branch_if(e: &mut E, cond: ValueId, fused: Option<InstId>, target: BlockId) {
        let cc = match fused {
            Some(cmp) => compare_flags(e, cmp),
            None => {
                let r = e.read(cond, EAX);
                e.push(X86Inst::CmpRI(r, 0));
                Cond::Ne
            }
        };
        e.branch(X86Inst::Jcc(cc, 0), target);
    }

    fn branch_eq(e: &mut E, r: Gpr, case: ValueId, target: BlockId) {
        let imm = imm32(e, case).expect("mbr cases are constants");
        e.push(X86Inst::CmpRI(r, imm));
        e.branch(X86Inst::Jcc(Cond::E, 0), target);
    }

    fn gep(e: &mut E, id: InstId, base: ValueId, offset: i64, dynamic: &[(ValueId, u64)]) {
        let dst = e.dst(id, EAX);
        Self::load_to(e, base, dst);
        for &(idx, size) in dynamic {
            // the index is scaled in place — always a fresh copy
            Self::load_to(e, idx, ECX);
            if size.is_power_of_two() {
                let shift = i64::from(size.trailing_zeros());
                e.push(X86Inst::AluRI(AluOp::Shl, ECX, shift, Norm::None));
            } else {
                e.push(X86Inst::MovRI(EDX, size as i64));
                e.push(X86Inst::IMulRR(ECX, EDX, Norm::None));
            }
            e.push(X86Inst::AluRR(AluOp::Add, dst, ECX, Norm::None));
        }
        if offset != 0 {
            let mem = MemOp {
                base: dst,
                disp: offset as i32,
            };
            e.push(X86Inst::Lea(dst, mem));
        }
        e.finish(id, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llva_machine::common::Exit;
    use llva_machine::memory::Memory;
    use llva_machine::x86::{X86Machine, X86Program};

    fn run_main(src: &str, args: &[u64]) -> Exit {
        run_main_with(src, args, compile_x86)
    }

    fn run_main_with(
        src: &str,
        args: &[u64],
        compile: fn(&Module, FuncId) -> Vec<X86Inst>,
    ) -> Exit {
        let m = llva_core::parser::parse_module(src).expect("parses");
        llva_core::verifier::verify_module(&m).expect("verifies");
        let image = crate::common::layout_globals(&m);
        let mut program = X86Program::new(m.num_functions(), image.addrs.clone());
        for (fid, f) in m.functions() {
            if !f.is_declaration() {
                program.install(fid.index() as u32, compile(&m, fid));
            }
        }
        let mut mem = Memory::new(1 << 22, image.heap_base, m.target().endianness);
        mem.write_bytes(llva_machine::memory::GLOBAL_BASE, &image.image)
            .expect("image fits");
        let mut machine = X86Machine::new(mem);
        let main = m.function_by_name("main").expect("main");
        machine.call_entry(main.index() as u32, args).expect("entry");
        machine.run(&program, 100_000_000)
    }

    #[test]
    fn arithmetic_pipeline() {
        let exit = run_main(
            r#"
int %main(int %x) {
entry:
    %a = add int %x, 10
    %b = mul int %a, 3
    %c = sub int %b, 6
    %d = div int %c, 2
    ret int %d
}
"#,
            &[4],
        );
        assert_eq!(exit, Exit::Halt(18)); // ((4+10)*3-6)/2
    }

    #[test]
    fn fib_recursive() {
        let exit = run_main(
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

int %main() {
entry:
    %r = call int %fib(int 10)
    ret int %r
}
"#,
            &[],
        );
        assert_eq!(exit, Exit::Halt(55));
    }

    #[test]
    fn loops_and_phis() {
        let exit = run_main(
            r#"
int %main(int %n) {
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
            &[10],
        );
        assert_eq!(exit, Exit::Halt(45));
    }

    #[test]
    fn memory_and_gep() {
        let exit = run_main(
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
            &[],
        );
        assert_eq!(exit, Exit::Halt(42));
    }

    #[test]
    fn globals_resolve() {
        let exit = run_main(
            r#"
@counter = global int 5

int %main() {
entry:
    %v = load int* @counter
    %v2 = add int %v, 1
    store int %v2, int* @counter
    %v3 = load int* @counter
    ret int %v3
}
"#,
            &[],
        );
        assert_eq!(exit, Exit::Halt(6));
    }

    #[test]
    fn narrow_arithmetic_wraps() {
        let exit = run_main(
            r#"
int %main() {
entry:
    %a = cast int 250 to ubyte
    %b = cast int 10 to ubyte
    %c = add ubyte %a, %b
    %r = cast ubyte %c to int
    ret int %r
}
"#,
            &[],
        );
        assert_eq!(exit, Exit::Halt(4)); // 260 wraps to 4
    }

    #[test]
    fn float_math() {
        let exit = run_main(
            r#"
int %main() {
entry:
    %a = cast int 7 to double
    %b = cast int 2 to double
    %q = div double %a, %b
    %t = mul double %q, %b
    %r = cast double %t to int
    ret int %r
}
"#,
            &[],
        );
        assert_eq!(exit, Exit::Halt(7));
    }

    #[test]
    fn mbr_dispatch() {
        for (x, expect) in [(0, 10), (1, 11), (7, 12)] {
            let exit = run_main(
                r#"
int %main(int %x) {
entry:
    mbr int %x, label %other, [ int 0, label %zero ], [ int 1, label %one ]
zero:
    ret int 10
one:
    ret int 11
other:
    ret int 12
}
"#,
                &[x],
            );
            assert_eq!(exit, Exit::Halt(expect));
        }
    }

    #[test]
    fn invoke_unwind_flow() {
        let exit = run_main(
            r#"
void %thrower(int %x) {
entry:
    %c = setgt int %x, 5
    br bool %c, label %throw, label %ok
throw:
    unwind
ok:
    ret void
}

int %main(int %x) {
entry:
    invoke void %thrower(int %x) to label %fine unwind label %caught
fine:
    ret int 0
caught:
    ret int 1
}
"#,
            &[9],
        );
        assert_eq!(exit, Exit::Halt(1));
    }

    #[test]
    fn register_homed_value_survives_unwind() {
        // %acc is hot (register-homed by linear scan) and live across
        // the invoke; the callee clobbers every callee-saved register
        // through its own allocation before unwinding. The machine's
        // call-site register snapshot must bring %acc back at the pad.
        let exit = run_main(
            r#"
int %burn(int %n) {
entry:
    %a = mul int %n, 3
    %b = add int %a, %n
    %c = mul int %b, %a
    %d = add int %c, %b
    %e = mul int %d, %c
    %t = setgt int %e, -1
    br bool %t, label %throw, label %throw
throw:
    unwind
}

int %main(int %x) {
entry:
    %acc1 = add int %x, 100
    %acc2 = mul int %acc1, 3
    %acc3 = add int %acc2, %acc1
    invoke int %burn(int %x) to label %fine unwind label %caught
fine:
    ret int 0
caught:
    %r = add int %acc3, %acc1
    ret int %r
}
"#,
            &[1],
        );
        // acc1 = 101, acc2 = 303, acc3 = 404, r = 505
        assert_eq!(exit, Exit::Halt(505));
    }

    #[test]
    fn indirect_call() {
        let exit = run_main(
            r#"
int %double(int %x) {
entry:
    %r = add int %x, %x
    ret int %r
}

int %apply(int (int)* %f, int %v) {
entry:
    %r = call int %f(int %v)
    ret int %r
}

int %main() {
entry:
    %r = call int %apply(int (int)* %double, int 21)
    ret int %r
}
"#,
            &[],
        );
        assert_eq!(exit, Exit::Halt(42));
    }

    #[test]
    fn division_traps_when_enabled() {
        let exit = run_main(
            r#"
int %main(int %x) {
entry:
    %q = div int 10, %x
    ret int %q
}
"#,
            &[0],
        );
        match exit {
            Exit::Trapped(t) => assert_eq!(t.kind, llva_machine::TrapKind::DivideByZero),
            other => panic!("expected trap, got {other:?}"),
        }
    }

    #[test]
    fn naive_translator_agrees_with_allocating_one() {
        let src = r#"
int %work(int %n) {
entry:
    br label %header
header:
    %i = phi int [ 0, %entry ], [ %i2, %body ]
    %s = phi int [ 0, %entry ], [ %s2, %body ]
    %c = setlt int %i, %n
    br bool %c, label %body, label %exit
body:
    %t = mul int %i, 3
    %u = add int %t, %s
    %s2 = rem int %u, 1000
    %i2 = add int %i, 1
    br label %header
exit:
    ret int %s
}

int %main(int %n) {
entry:
    %r = call int %work(int %n)
    ret int %r
}
"#;
        let fast = run_main_with(src, &[25], compile_x86);
        let naive = run_main_with(src, &[25], compile_x86_naive);
        assert_eq!(fast, naive);
    }

    #[test]
    fn linear_scan_reduces_spill_traffic() {
        let m = llva_core::parser::parse_module(
            r#"
int %work(int %n) {
entry:
    br label %header
header:
    %i = phi int [ 0, %entry ], [ %i2, %body ]
    %s = phi int [ 0, %entry ], [ %s2, %body ]
    %c = setlt int %i, %n
    br bool %c, label %body, label %exit
body:
    %t = mul int %i, 3
    %u = add int %t, %s
    %s2 = rem int %u, 1000
    %i2 = add int %i, 1
    br label %header
exit:
    ret int %s
}
"#,
        )
        .expect("parses");
        let f = m.function_by_name("work").expect("work");
        let naive = spill_count(&compile_x86_naive(&m, f));
        let allocated = spill_count(&compile_x86(&m, f));
        assert!(
            allocated < naive,
            "expected spill reduction, got {allocated} vs naive {naive}"
        );
    }

    #[test]
    fn expansion_ratio_in_paper_range() {
        // The paper reports 2.2–3.3 x86 instructions per LLVA
        // instruction across its benchmarks — measured on the naive
        // translator, which is the paper-faithful one.
        let m = llva_core::parser::parse_module(
            r#"
int %work(int %n) {
entry:
    br label %header
header:
    %i = phi int [ 0, %entry ], [ %i2, %body ]
    %s = phi int [ 0, %entry ], [ %s2, %body ]
    %c = setlt int %i, %n
    br bool %c, label %body, label %exit
body:
    %t = mul int %i, 3
    %u = add int %t, %s
    %s2 = rem int %u, 1000
    %i2 = add int %i, 1
    br label %header
exit:
    ret int %s
}
"#,
        )
        .expect("parses");
        let f = m.function_by_name("work").expect("work");
        let code = compile_x86_naive(&m, f);
        let llva_count = m.function(f).num_insts();
        let ratio = code.len() as f64 / llva_count as f64;
        assert!(
            (1.5..=4.5).contains(&ratio),
            "x86 expansion ratio {ratio:.2} out of range ({} -> {})",
            llva_count,
            code.len()
        );
    }
}
