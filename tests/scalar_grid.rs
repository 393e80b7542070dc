//! One fixed table of LLVA scalar semantics, run on every executor.
//!
//! Each row is one tiny function: an integer binary op over the
//! boundary values of its type, a float op, one of the six compares
//! (as a `bool` value and as a fused compare-and-branch), or a cast
//! between two scalar types, with its operands as constants and as
//! arguments. There are no random seeds.
//!
//! The structural interpreter is the oracle. The pre-decoded
//! interpreter, the structural interpreter after constant folding, and
//! the x86, SPARC and RISC-V translators (through `ExecutionManager`)
//! must give every row the same value, or trap with the same kind.
//! Trap coordinates are not compared here. A failing row prints its
//! description and its function.

use llva::engine::llee::{EngineError, ExecutionManager, TargetIsa};
use llva::engine::{FastInterpreter, InterpError, Interpreter};
use llva::machine::TrapKind;
use llva::opt::constfold::ConstFold;

/// Simulated memory per executor: the rows need only a stack frame.
const MEM: u64 = 1 << 20;
/// Functions per module.
const CHUNK: usize = 256;

/// The integer types: name, width, signedness.
const INTS: [(&str, u32, bool); 8] = [
    ("sbyte", 8, true),
    ("ubyte", 8, false),
    ("short", 16, true),
    ("ushort", 16, false),
    ("int", 32, true),
    ("uint", 32, false),
    ("long", 64, true),
    ("ulong", 64, false),
];
const INT_OPS: [&str; 8] = ["add", "sub", "mul", "div", "rem", "and", "or", "xor"];
const FLOAT_OPS: [&str; 5] = ["add", "sub", "mul", "div", "rem"];
const CMPS: [&str; 6] = ["seteq", "setne", "setlt", "setgt", "setle", "setge"];
/// Operands of the float ops and compares: signed zeros, infinities,
/// NaN, and values whose quotient or remainder is inexact.
const FLOATS: [f64; 9] = [
    0.0,
    -0.0,
    1.0,
    -1.5,
    3.0,
    1e30,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];
/// Sources of the float-to-integer casts: halves round toward zero,
/// and each magnitude overflows a narrower integer type.
const TO_INT: [f64; 18] = [
    0.5,
    -0.5,
    1.5,
    -1.5,
    200.75,
    -200.75,
    70000.5,
    -70000.5,
    3e9,
    -3e9,
    1e19,
    -1e19,
    1e30,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

/// What running one row produced.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Value(u64),
    Trap(TrapKind),
    Error(String),
}

impl From<Result<u64, InterpError>> for Outcome {
    fn from(r: Result<u64, InterpError>) -> Outcome {
        match r {
            Ok(v) => Outcome::Value(v),
            Err(InterpError::Trap(t)) => Outcome::Trap(t.kind),
            Err(e) => Outcome::Error(e.to_string()),
        }
    }
}

impl From<Result<u64, EngineError>> for Outcome {
    fn from(r: Result<u64, EngineError>) -> Outcome {
        match r {
            Ok(v) => Outcome::Value(v),
            Err(EngineError::Trapped(t)) => Outcome::Trap(t.kind),
            Err(e) => Outcome::Error(e.to_string()),
        }
    }
}

/// A scalar type of the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ty {
    Bool,
    Int(&'static str, u32, bool),
    Float,
    Double,
}

impl Ty {
    fn name(self) -> &'static str {
        match self {
            Ty::Bool => "bool",
            Ty::Int(name, ..) => name,
            Ty::Float => "float",
            Ty::Double => "double",
        }
    }

    fn all() -> Vec<Ty> {
        let ints = INTS.iter().map(|&(n, w, s)| Ty::Int(n, w, s));
        [Ty::Bool]
            .into_iter()
            .chain(ints)
            .chain([Ty::Float, Ty::Double])
            .collect()
    }

    /// The boundary values of the type, in the canonical register
    /// representation (signed integers sign-extended; floats as bits).
    fn values(self) -> Vec<u64> {
        match self {
            Ty::Bool => vec![0, 1],
            Ty::Int(_, w, signed) => {
                let (min, max) = if signed {
                    (-(1i128 << (w - 1)), (1i128 << (w - 1)) - 1)
                } else {
                    (0, (1i128 << w) - 1)
                };
                [0, 1, -1, min, max, max - 1]
                    .map(|v| canon(v, w, signed))
                    .to_vec()
            }
            Ty::Float | Ty::Double => FLOATS.iter().map(|&x| self.float_bits(x)).collect(),
        }
    }

    fn float_bits(self, x: f64) -> u64 {
        match self {
            Ty::Float => u64::from((x as f32).to_bits()),
            _ => x.to_bits(),
        }
    }

    /// The assembly literal of the canonical value `v`.
    fn literal(self, v: u64) -> String {
        match self {
            Ty::Bool => (v != 0).to_string(),
            Ty::Int(..) => (v as i64).to_string(),
            Ty::Float => format!("0x{:08X}", v as u32),
            Ty::Double => format!("0x{v:016X}"),
        }
    }
}

/// `v` truncated to `w` bits and sign- or zero-extended back to 64.
fn canon(v: i128, w: u32, signed: bool) -> u64 {
    let bits = v as u64;
    if w == 64 {
        return bits;
    }
    let low = bits & ((1u64 << w) - 1);
    if signed && low >> (w - 1) == 1 {
        low | !((1u64 << w) - 1)
    } else {
        low
    }
}

/// One row: what it checks, its function (named `%f`, renamed per
/// module), and the arguments of a run.
struct Row {
    what: String,
    func: String,
    args: Vec<u64>,
}

/// The operands of a row: both constants, or both arguments.
#[derive(Clone, Copy)]
enum Shape {
    Constants,
    Arguments,
}

/// A row computing `%r = <inst>` over operands `a` (and `b`) of type
/// `ty`, returning `%r` as `ret`, or branching on it when `branch`.
fn row(
    what: String,
    shape: Shape,
    ty: Ty,
    ops: &[u64],
    inst: &str,
    ret: &str,
    branch: bool,
) -> Row {
    let (params, names, args): (Vec<String>, Vec<String>, Vec<u64>) = match shape {
        Shape::Constants => (vec![], ops.iter().map(|&v| ty.literal(v)).collect(), vec![]),
        Shape::Arguments => (
            (0..ops.len())
                .map(|i| format!("{} %x{i}", ty.name()))
                .collect(),
            (0..ops.len()).map(|i| format!("%x{i}")).collect(),
            ops.to_vec(),
        ),
    };
    let inst = inst.replace("{ty}", ty.name()).replace("{a}", &names[0]);
    let inst = match names.get(1) {
        Some(b) => inst.replace("{b}", b),
        None => inst,
    };
    let tail = if branch {
        "    br bool %r, label %t, label %e\nt:\n    ret int 1\ne:\n    ret int 0\n".to_string()
    } else {
        format!("    ret {ret} %r\n")
    };
    let ret = if branch { "int" } else { ret };
    let func = format!(
        "{ret} %f({}) {{\nentry:\n    %r = {inst}\n{tail}}}\n",
        params.join(", ")
    );
    let shape = match shape {
        Shape::Constants => "constants",
        Shape::Arguments => "arguments",
    };
    Row {
        what: format!("{what} ({shape})"),
        func,
        args,
    }
}

fn int_binary_rows(rows: &mut Vec<Row>) {
    for &(name, w, signed) in &INTS {
        let ty = Ty::Int(name, w, signed);
        let vals = ty.values();
        for shape in [Shape::Constants, Shape::Arguments] {
            for op in INT_OPS {
                for &a in &vals {
                    for &b in &vals {
                        let what = format!("{op} {name} {}, {}", a as i64, b as i64);
                        let inst = format!("{op} {{ty}} {{a}}, {{b}}");
                        rows.push(row(what, shape, ty, &[a, b], &inst, name, false));
                        if b == 0 && matches!(op, "div" | "rem") {
                            let what = format!("{op} [noexc] {name} {}, 0", a as i64);
                            let inst = format!("{op} [noexc] {{ty}} {{a}}, {{b}}");
                            rows.push(row(what, shape, ty, &[a, b], &inst, name, false));
                        }
                    }
                }
            }
            for op in ["shl", "shr"] {
                for &a in &vals {
                    for amount in [w - 1, w, w + 1, 63, 64] {
                        let what = format!("{op} {name} {}, {amount}", a as i64);
                        let inst = format!("{op} {{ty}} {{a}}, {{b}}");
                        rows.push(row(
                            what,
                            shape,
                            ty,
                            &[a, u64::from(amount)],
                            &inst,
                            name,
                            false,
                        ));
                    }
                }
            }
        }
        // one bit past the width: the assembler keeps the low `w` bits
        if w < 64 {
            for op in ["add", "or", "sub"] {
                let inst = format!("{op} {name} {}, 1", 1u64 << w);
                let what = format!("{op} {name} 2^{w}, 1");
                rows.push(row(what, Shape::Constants, ty, &[0], &inst, name, false));
            }
        }
    }
}

fn float_binary_rows(rows: &mut Vec<Row>) {
    for ty in [Ty::Float, Ty::Double] {
        let vals = ty.values();
        for shape in [Shape::Constants, Shape::Arguments] {
            for op in FLOAT_OPS {
                for (&a, &x) in vals.iter().zip(&FLOATS) {
                    for (&b, &y) in vals.iter().zip(&FLOATS) {
                        let what = format!("{op} {} {x:?}, {y:?}", ty.name());
                        let inst = format!("{op} {{ty}} {{a}}, {{b}}");
                        rows.push(row(what, shape, ty, &[a, b], &inst, ty.name(), false));
                    }
                }
            }
        }
    }
}

fn compare_rows(rows: &mut Vec<Row>) {
    for ty in Ty::all() {
        let vals = ty.values();
        for shape in [Shape::Constants, Shape::Arguments] {
            for op in CMPS {
                for &a in &vals {
                    for &b in &vals {
                        for branch in [false, true] {
                            let form = if branch { "branch on" } else { "set" };
                            let what = format!(
                                "{form} {op} {} {}, {}",
                                ty.name(),
                                ty.literal(a),
                                ty.literal(b)
                            );
                            let inst = format!("{op} {{ty}} {{a}}, {{b}}");
                            rows.push(row(what, shape, ty, &[a, b], &inst, "bool", branch));
                        }
                    }
                }
            }
        }
    }
}

fn cast_rows(rows: &mut Vec<Row>) {
    for from in Ty::all() {
        let vals = match from {
            Ty::Float | Ty::Double => TO_INT.iter().map(|&x| from.float_bits(x)).collect(),
            _ => from.values(),
        };
        for to in Ty::all() {
            for shape in [Shape::Constants, Shape::Arguments] {
                for &v in &vals {
                    let what = format!("cast {} {} to {}", from.name(), from.literal(v), to.name());
                    let inst = format!("cast {{ty}} {{a}} to {}", to.name());
                    rows.push(row(what, shape, from, &[v], &inst, to.name(), false));
                }
            }
        }
    }
}

/// Runs one module's rows on every executor and records each
/// disagreement with the structural interpreter.
fn check_chunk(rows: &[Row], failures: &mut Vec<String>) {
    let name = |i: usize| format!("r{i}");
    let src: String = rows
        .iter()
        .enumerate()
        .map(|(i, r)| r.func.replacen("%f(", &format!("%{}(", name(i)), 1))
        .collect();
    let module = llva::core::parser::parse_module(&src).expect("the grid parses");
    llva::core::verifier::verify_module(&module).expect("the grid verifies");
    let oracle: Vec<Outcome> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            Interpreter::with_memory_size(&module, MEM)
                .run(&name(i), &r.args)
                .into()
        })
        .collect();
    let mut check = |executor: &str, i: usize, got: Outcome| {
        if got != oracle[i] {
            let r = &rows[i];
            failures.push(format!(
                "{}: {executor} gave {got:?}, the structural interpreter {:?}\n{}args {:?}",
                r.what, oracle[i], r.func, r.args
            ));
        }
    };

    let mut fast = FastInterpreter::with_memory_size(&module, MEM);
    for (i, r) in rows.iter().enumerate() {
        let got = Outcome::from(fast.run(&name(i), &r.args));
        if !matches!(got, Outcome::Value(_)) {
            fast = FastInterpreter::with_memory_size(&module, MEM);
        }
        check("pre-decoded", i, got);
    }

    let mut folded = module.clone();
    let mut pm = llva::opt::PassManager::new();
    pm.add(ConstFold::new()).verify_after_each(true);
    pm.run(&mut folded);
    for (i, r) in rows.iter().enumerate() {
        let got = Interpreter::with_memory_size(&folded, MEM)
            .run(&name(i), &r.args)
            .into();
        check("constfold", i, got);
    }

    for isa in TargetIsa::ALL {
        let fresh = || ExecutionManager::with_memory_size(module.clone(), isa, MEM);
        let mut mgr = fresh();
        for (i, r) in rows.iter().enumerate() {
            let got = Outcome::from(mgr.run(&name(i), &r.args).map(|o| o.value));
            if !matches!(got, Outcome::Value(_)) {
                mgr = fresh();
            }
            check(&isa.to_string(), i, got);
        }
    }
}

#[test]
fn every_executor_gives_every_scalar_row_the_interpreters_result() {
    let mut rows = Vec::new();
    int_binary_rows(&mut rows);
    float_binary_rows(&mut rows);
    compare_rows(&mut rows);
    cast_rows(&mut rows);
    let mut failures = Vec::new();
    for chunk in rows.chunks(CHUNK) {
        check_chunk(chunk, &mut failures);
    }
    assert!(
        failures.is_empty(),
        "{} of {} checks disagree; the first:\n\n{}",
        failures.len(),
        rows.len() * 5,
        failures
            .iter()
            .take(12)
            .cloned()
            .collect::<Vec<_>>()
            .join("\n\n")
    );
}
