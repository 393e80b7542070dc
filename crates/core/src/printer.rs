//! Textual LLVA assembly printer (the syntax of paper Figure 2(b)).
//!
//! The printed form round-trips through [`parser`](crate::parser). Values
//! print with their assigned names when present, otherwise with stable
//! sequential numbers. Non-default `ExceptionsEnabled` attributes print
//! as `[exc]` / `[noexc]` after the mnemonic so the flexible exception
//! model of §3.3 survives the round trip.

use crate::function::{BlockId, Function};
use crate::instruction::{InstId, Opcode};
use crate::module::{Initializer, Module};
use crate::types::TypeKind;
use crate::value::{Constant, ValueData, ValueId};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Prints a whole module as LLVA assembly.
pub fn print_module(module: &Module) -> String {
    let mut out = String::new();
    let tt = module.types();
    let _ = writeln!(out, "; module '{}'", module.name());
    let _ = writeln!(
        out,
        "target pointersize = {}",
        module.target().pointer_size.bits()
    );
    let _ = writeln!(
        out,
        "target endian = {}",
        match module.target().endianness {
            crate::layout::Endianness::Little => "little",
            crate::layout::Endianness::Big => "big",
        }
    );
    let _ = writeln!(out);

    for (_, def) in tt.struct_defs() {
        match def.body() {
            Some(fields) => {
                let inner: Vec<String> = fields.iter().map(|&f| tt.display(f)).collect();
                let _ = writeln!(out, "%{} = type {{ {} }}", def.name(), inner.join(", "));
            }
            None => {
                let _ = writeln!(out, "%{} = type opaque", def.name());
            }
        }
    }
    if tt.struct_defs().next().is_some() {
        let _ = writeln!(out);
    }

    for (_, g) in module.globals() {
        let kw = if g.is_const() { "constant" } else { "global" };
        let link = match g.linkage() {
            crate::function::Linkage::Internal => "internal ",
            crate::function::Linkage::External => "",
        };
        let _ = writeln!(
            out,
            "@{} = {}{} {} {}",
            g.name(),
            link,
            kw,
            tt.display(g.value_type()),
            print_initializer(module, g.init())
        );
    }
    if module.num_globals() > 0 {
        let _ = writeln!(out);
    }

    for (_, f) in module.functions() {
        if f.is_declaration() {
            let params: Vec<String> = f.param_types().iter().map(|&p| tt.display(p)).collect();
            let _ = writeln!(
                out,
                "declare {} %{}({})",
                tt.display(f.return_type()),
                f.name(),
                params.join(", ")
            );
        } else {
            out.push_str(&print_function(module, f));
        }
        let _ = writeln!(out);
    }
    out
}

/// Prints an initializer expression.
pub fn print_initializer(module: &Module, init: &Initializer) -> String {
    match init {
        Initializer::Zero => "zeroinitializer".into(),
        Initializer::Scalar(c) => print_constant_payload(module, c),
        Initializer::Array(items) => {
            let inner: Vec<String> = items
                .iter()
                .map(|i| print_initializer(module, i))
                .collect();
            format!("[ {} ]", inner.join(", "))
        }
        Initializer::Struct(items) => {
            let inner: Vec<String> = items
                .iter()
                .map(|i| print_initializer(module, i))
                .collect();
            format!("{{ {} }}", inner.join(", "))
        }
        Initializer::Bytes(bytes) => {
            let mut s = String::from("c\"");
            for &b in bytes {
                match b {
                    b'"' => s.push_str("\\22"),
                    b'\\' => s.push_str("\\5C"),
                    0x20..=0x7e => s.push(b as char),
                    _ => {
                        let _ = write!(s, "\\{b:02X}");
                    }
                }
            }
            s.push('"');
            s
        }
    }
}

/// Assigns printable names to every value in `func`: explicit names win,
/// everything else gets a sequential number.
pub fn value_names(func: &Function) -> HashMap<ValueId, String> {
    let mut names = HashMap::new();
    let mut used: HashMap<String, usize> = HashMap::new();
    let mut next = 0usize;
    let mut assign = |v: ValueId, names: &mut HashMap<ValueId, String>| {
        if names.contains_key(&v) {
            return;
        }
        let name = match func.value_name(v) {
            Some(n) => {
                // explicit names may repeat (e.g. shadowed locals);
                // uniquify for the textual form
                let count = used.entry(n.to_string()).or_insert(0);
                let unique = if *count == 0 {
                    n.to_string()
                } else {
                    format!("{n}.{count}")
                };
                *count += 1;
                unique
            }
            None => {
                let n = next.to_string();
                next += 1;
                n
            }
        };
        names.insert(v, name);
    };
    for &a in func.args() {
        assign(a, &mut names);
    }
    for (_, inst) in func.inst_iter() {
        if let Some(r) = func.inst_result(inst) {
            assign(r, &mut names);
        }
    }
    names
}

/// Assigns unique printable labels to every laid-out block (block
/// names are not required to be unique in the IR, but labels are in
/// the textual form).
pub fn block_names(func: &Function) -> HashMap<BlockId, String> {
    let mut used: HashMap<String, usize> = HashMap::new();
    let mut out = HashMap::new();
    for &b in func.block_order() {
        let base = func.block(b).name().to_string();
        let n = used.entry(base.clone()).or_insert(0);
        let name = if *n == 0 { base.clone() } else { format!("{base}.{n}") };
        *n += 1;
        out.insert(b, name);
    }
    out
}

/// Prints a single function definition.
pub fn print_function(module: &Module, func: &Function) -> String {
    let tt = module.types();
    let names = value_names(func);
    let blocks = block_names(func);
    let mut out = String::new();
    let params: Vec<String> = func
        .args()
        .iter()
        .zip(func.param_types())
        .map(|(&a, &t)| format!("{} %{}", tt.display(t), names[&a]))
        .collect();
    let link = match func.linkage() {
        crate::function::Linkage::Internal => "internal ",
        crate::function::Linkage::External => "",
    };
    let _ = writeln!(
        out,
        "{}{} %{}({}) {{",
        link,
        tt.display(func.return_type()),
        func.name(),
        params.join(", ")
    );
    for &b in func.block_order() {
        let _ = writeln!(out, "{}:", blocks[&b]);
        for &i in func.block(b).insts() {
            let _ = writeln!(out, "    {}", print_inst(module, func, &names, &blocks, i));
        }
    }
    out.push_str("}\n");
    out
}

fn operand(module: &Module, func: &Function, names: &HashMap<ValueId, String>, v: ValueId) -> String {
    match func.value(v) {
        ValueData::Const(c) => print_constant_payload(module, c),
        _ => format!("%{}", names[&v]),
    }
}

fn typed_operand(
    module: &Module,
    func: &Function,
    names: &HashMap<ValueId, String>,
    v: ValueId,
) -> String {
    let ty = value_type_str(module, func, v);
    format!("{} {}", ty, operand(module, func, names, v))
}

fn value_type_str(module: &Module, func: &Function, v: ValueId) -> String {
    let tt = module.types();
    match func.value(v) {
        ValueData::Const(Constant::Bool(_)) => "bool".into(),
        ValueData::Const(c) => tt.display(c.type_id().expect("non-bool constant has a type")),
        ValueData::Arg { ty, .. } | ValueData::Inst { ty, .. } => tt.display(*ty),
    }
}

/// Prints the payload of a constant (without its type).
pub fn print_constant_payload(module: &Module, c: &Constant) -> String {
    let tt = module.types();
    match c {
        Constant::Bool(b) => b.to_string(),
        Constant::Int { ty, bits } => {
            if tt.is_signed_integer(*ty) {
                let w = tt.int_bits(*ty).expect("integer");
                let signed = sign_extend(*bits, w);
                signed.to_string()
            } else {
                bits.to_string()
            }
        }
        Constant::Float { ty, bits } => match tt.kind(*ty) {
            TypeKind::Float => format!("0x{:08X}", *bits as u32),
            _ => format!("0x{bits:016X}"),
        },
        Constant::Null(_) => "null".into(),
        Constant::GlobalAddr { global, .. } => format!("@{}", module.global(*global).name()),
        Constant::FunctionAddr { func, .. } => format!("%{}", module.function(*func).name()),
        Constant::Undef(_) => "undef".into(),
    }
}

fn sign_extend(bits: u64, width: u32) -> i64 {
    if width >= 64 {
        return bits as i64;
    }
    let shift = 64 - width;
    ((bits << shift) as i64) >> shift
}

fn exc_attr(func: &Function, id: InstId) -> &'static str {
    let inst = func.inst(id);
    let default = inst.opcode().default_exceptions_enabled();
    match (inst.exceptions_enabled(), default) {
        (true, false) => "[exc] ",
        (false, true) => "[noexc] ",
        _ => "",
    }
}

/// Prints one instruction in assembly syntax.
pub fn print_inst(
    module: &Module,
    func: &Function,
    names: &HashMap<ValueId, String>,
    blocks_map: &HashMap<BlockId, String>,
    id: InstId,
) -> String {
    let tt = module.types();
    let inst = func.inst(id);
    let op = inst.opcode();
    let ops = inst.operands();
    let blocks = inst.block_operands();
    let result_prefix = match func.inst_result(id) {
        Some(r) => format!("%{} = ", names[&r]),
        None => String::new(),
    };
    let exc = exc_attr(func, id);
    let label = |b: BlockId| format!("label %{}", blocks_map[&b]);

    match op {
        _ if op.is_binary() || op.is_comparison() => {
            let ty = value_type_str(module, func, ops[0]);
            format!(
                "{result_prefix}{op} {exc}{ty} {}, {}",
                operand(module, func, names, ops[0]),
                operand(module, func, names, ops[1])
            )
        }
        Opcode::Ret => match ops.first() {
            Some(&v) => format!("ret {exc}{}", typed_operand(module, func, names, v)),
            None => format!("ret {exc}void"),
        },
        Opcode::Br => {
            if ops.is_empty() {
                format!("br {exc}{}", label(blocks[0]))
            } else {
                format!(
                    "br {exc}bool {}, {}, {}",
                    operand(module, func, names, ops[0]),
                    label(blocks[0]),
                    label(blocks[1])
                )
            }
        }
        Opcode::Mbr => {
            let mut s = format!(
                "mbr {exc}{}, {}",
                typed_operand(module, func, names, ops[0]),
                label(blocks[0])
            );
            for (i, &case) in ops[1..].iter().enumerate() {
                let _ = write!(
                    s,
                    ", [ {}, {} ]",
                    typed_operand(module, func, names, case),
                    label(blocks[1 + i])
                );
            }
            s
        }
        Opcode::Invoke => {
            let args: Vec<String> = ops[1..]
                .iter()
                .map(|&a| typed_operand(module, func, names, a))
                .collect();
            format!(
                "{result_prefix}invoke {exc}{} {}({}) to {} unwind {}",
                tt.display(inst.result_type()),
                operand(module, func, names, ops[0]),
                args.join(", "),
                label(blocks[0]),
                label(blocks[1])
            )
        }
        Opcode::Unwind => format!("unwind {exc}").trim_end().to_string(),
        Opcode::Load => {
            format!(
                "{result_prefix}load {exc}{}",
                typed_operand(module, func, names, ops[0])
            )
        }
        Opcode::Store => format!(
            "store {exc}{}, {}",
            typed_operand(module, func, names, ops[0]),
            typed_operand(module, func, names, ops[1])
        ),
        Opcode::GetElementPtr => {
            let indices: Vec<String> = ops[1..]
                .iter()
                .map(|&i| typed_operand(module, func, names, i))
                .collect();
            format!(
                "{result_prefix}getelementptr {exc}{}, {}",
                typed_operand(module, func, names, ops[0]),
                indices.join(", ")
            )
        }
        Opcode::Alloca => {
            let pointee = tt
                .pointee(inst.result_type())
                .expect("alloca produces a pointer");
            match ops.first() {
                Some(&count) => format!(
                    "{result_prefix}alloca {exc}{}, {}",
                    tt.display(pointee),
                    typed_operand(module, func, names, count)
                ),
                None => format!("{result_prefix}alloca {exc}{}", tt.display(pointee)),
            }
        }
        Opcode::Cast => format!(
            "{result_prefix}cast {exc}{} to {}",
            typed_operand(module, func, names, ops[0]),
            tt.display(inst.result_type())
        ),
        Opcode::Call => {
            let args: Vec<String> = ops[1..]
                .iter()
                .map(|&a| typed_operand(module, func, names, a))
                .collect();
            format!(
                "{result_prefix}call {exc}{} {}({})",
                tt.display(inst.result_type()),
                operand(module, func, names, ops[0]),
                args.join(", ")
            )
        }
        Opcode::Phi => {
            let pairs: Vec<String> = ops
                .iter()
                .zip(blocks)
                .map(|(&v, &b)| {
                    format!(
                        "[ {}, %{} ]",
                        operand(module, func, names, v),
                        blocks_map[&b]
                    )
                })
                .collect();
            format!(
                "{result_prefix}phi {exc}{} {}",
                tt.display(inst.result_type()),
                pairs.join(", ")
            )
        }
        _ => unreachable!("all opcodes covered"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::layout::TargetConfig;

    #[test]
    fn prints_add_function() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("add", int, vec![int, int]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let (x, y) = (b.func().args()[0], b.func().args()[1]);
        b.name_value(x, "x");
        b.name_value(y, "y");
        let s = b.add(x, y);
        b.name_value(s, "sum");
        b.ret(Some(s));
        let text = print_function(&m, m.function(f));
        assert!(text.contains("int %add(int %x, int %y)"), "{text}");
        assert!(text.contains("%sum = add int %x, %y"), "{text}");
        assert!(text.contains("ret int %sum"), "{text}");
    }

    #[test]
    fn prints_module_header() {
        let m = Module::new("m", TargetConfig::sparc_v9());
        let text = print_module(&m);
        assert!(text.contains("target pointersize = 64"));
        assert!(text.contains("target endian = big"));
    }

    #[test]
    fn prints_signed_and_unsigned_constants() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let uint = m.types_mut().uint();
        let f = m.add_function("f", int, vec![]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let neg = b.iconst(int, -3);
        let big = b.iconst(uint, 0xFFFF_FFFF);
        let x = b.cast(big, int);
        let y = b.add(neg, x);
        b.ret(Some(y));
        let text = print_function(&m, m.function(f));
        assert!(text.contains("int -3"), "{text}");
        assert!(text.contains("uint 4294967295"), "{text}");
    }

    #[test]
    fn prints_noexc_attribute_only_when_nondefault() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![int, int]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let (x, y) = (b.func().args()[0], b.func().args()[1]);
        let d = b.div(x, y);
        b.ret(Some(d));
        // default: div has exceptions enabled -> no attribute shown
        let text = print_function(&m, m.function(f));
        assert!(text.contains("div int"), "{text}");
        assert!(!text.contains("[exc]"), "{text}");
        // flip it off -> [noexc] printed
        let div_inst = m.function(f).block(e).insts()[0];
        m.function_mut(f).set_exceptions_enabled(div_inst, false);
        let text = print_function(&m, m.function(f));
        assert!(text.contains("div [noexc] int"), "{text}");
    }

    #[test]
    fn prints_phi_and_branches() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![int]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        let t = b.block("t");
        let j = b.block("j");
        b.switch_to(e);
        let x = b.func().args()[0];
        let zero = b.iconst(int, 0);
        let c = b.setgt(x, zero);
        b.cond_br(c, t, j);
        b.switch_to(t);
        b.br(j);
        b.switch_to(j);
        let p = b.phi(int, vec![(x, t), (zero, e)]);
        b.ret(Some(p));
        let text = print_function(&m, m.function(f));
        assert!(text.contains("br bool"), "{text}");
        assert!(text.contains("label %t, label %j"), "{text}");
        assert!(text.contains("phi int [ "), "{text}");
    }

    #[test]
    fn prints_global_with_bytes_init() {
        let mut m = Module::new("m", TargetConfig::default());
        let sb = m.types_mut().sbyte();
        let arr = m.types_mut().array_of(sb, 6);
        m.add_global(
            "msg",
            arr,
            Initializer::Bytes(b"hi\n\0!\\".to_vec()),
            true,
        );
        let text = print_module(&m);
        assert!(text.contains("@msg = constant [6 x sbyte] c\"hi\\0A\\00!\\5C\""), "{text}");
    }
}
