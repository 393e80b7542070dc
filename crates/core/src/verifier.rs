//! The LLVA verifier: strict type rules and SSA well-formedness.
//!
//! Paper §3.1: "All instructions in the V-ISA have strict type rules …
//! There are no mixed-type operations and hence, no implicit type
//! coercion." The verifier enforces those rules plus CFG invariants
//! (every block ends in exactly one terminator) and the SSA property
//! (every use is dominated by its definition).

use crate::dominators::{Cfg, DomTree};
use crate::function::{BlockId, Function};
use crate::instruction::{InstId, Opcode};
use crate::module::Module;
use crate::types::{TypeId, TypeKind};
use crate::value::ValueData;
use std::fmt;

/// A single verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the failure occurred, if any.
    pub function: Option<String>,
    /// Description of what rule was broken.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.function {
            Some(name) => write!(f, "in function '{}': {}", name, self.message),
            None => f.write_str(&self.message),
        }
    }
}

impl std::error::Error for VerifyError {}

/// All verification failures found in a module.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifyErrors(pub Vec<VerifyError>);

impl fmt::Display for VerifyErrors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} verification error(s):", self.0.len())?;
        for e in &self.0 {
            writeln!(f, "  - {e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyErrors {}

/// Verifies every function in `module`.
///
/// # Errors
///
/// Returns all rule violations found; an empty error list is impossible
/// (`Ok(())` is returned instead).
pub fn verify_module(module: &Module) -> Result<(), VerifyErrors> {
    let mut errors = Vec::new();
    for (_, func) in module.functions() {
        if func.is_declaration() {
            continue;
        }
        verify_function(module, func, &mut errors);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(VerifyErrors(errors))
    }
}

/// Verifies a single function, appending failures to `errors`.
pub fn verify_function(module: &Module, func: &Function, errors: &mut Vec<VerifyError>) {
    let mut ctx = Ctx {
        module,
        func,
        bool_ty: module.types().bool_or_sentinel(),
        errors,
    };
    if let Err(e) = func.check_uses() {
        ctx.err(e);
    }
    ctx.check_blocks();
    let cfg = Cfg::new(func);
    let dom = DomTree::from_cfg(&cfg);
    ctx.check_instructions(&cfg, &dom);
    ctx.check_ssa(&dom);
}

struct Ctx<'a> {
    module: &'a Module,
    func: &'a Function,
    bool_ty: TypeId,
    errors: &'a mut Vec<VerifyError>,
}

impl<'a> Ctx<'a> {
    fn err(&mut self, message: String) {
        self.errors.push(VerifyError {
            function: Some(self.func.name().to_string()),
            message,
        });
    }

    fn ty_name(&self, ty: TypeId) -> String {
        self.module.types().display(ty)
    }

    fn vty(&self, v: crate::value::ValueId) -> TypeId {
        self.func.value_type(v, self.bool_ty)
    }

    fn check_blocks(&mut self) {
        for &b in self.func.block_order() {
            let insts = self.func.block(b).insts();
            if insts.is_empty() {
                self.err(format!("block '{}' is empty", self.func.block(b).name()));
                continue;
            }
            for (i, &inst) in insts.iter().enumerate() {
                let is_last = i + 1 == insts.len();
                let is_term = self.func.inst(inst).is_terminator();
                if is_last && !is_term {
                    self.err(format!(
                        "block '{}' does not end in a terminator",
                        self.func.block(b).name()
                    ));
                }
                if !is_last && is_term {
                    self.err(format!(
                        "terminator in the middle of block '{}'",
                        self.func.block(b).name()
                    ));
                }
            }
            // phis must be grouped at the head of the block
            let mut seen_non_phi = false;
            for &inst in insts {
                let is_phi = self.func.inst(inst).opcode() == Opcode::Phi;
                if is_phi && seen_non_phi {
                    self.err(format!(
                        "phi after non-phi instruction in block '{}'",
                        self.func.block(b).name()
                    ));
                }
                if !is_phi {
                    seen_non_phi = true;
                }
            }
        }
    }

    fn check_instructions(&mut self, cfg: &Cfg, dom: &DomTree) {
        for (block, inst_id) in self.func.inst_iter() {
            if !dom.is_reachable(block) {
                continue;
            }
            self.check_inst(inst_id, cfg.preds(block));
        }
    }

    fn check_inst(&mut self, id: InstId, preds: &[BlockId]) {
        let inst = self.func.inst(id);
        let op = inst.opcode();
        let types = self.module.types();
        let n_ops = inst.operands().len();
        let n_blocks = inst.block_operands().len();

        match op {
            _ if op.is_binary() => {
                if n_ops != 2 {
                    self.err(format!("{op} expects 2 operands, got {n_ops}"));
                    return;
                }
                let (l, r) = (self.vty(inst.operands()[0]), self.vty(inst.operands()[1]));
                if l != r {
                    self.err(format!(
                        "{op} has mixed operand types {} and {}",
                        self.ty_name(l),
                        self.ty_name(r)
                    ));
                }
                if inst.result_type() != l {
                    self.err(format!("{op} result type differs from operand type"));
                }
                let arith_ok = types.is_integer(l) || types.is_float(l);
                let bitwise = matches!(
                    op,
                    Opcode::And | Opcode::Or | Opcode::Xor | Opcode::Shl | Opcode::Shr
                );
                if bitwise && !types.is_integer(l) {
                    self.err(format!("{op} requires integer operands, got {}", self.ty_name(l)));
                } else if !bitwise && !arith_ok {
                    self.err(format!(
                        "{op} requires numeric operands, got {}",
                        self.ty_name(l)
                    ));
                }
            }
            _ if op.is_comparison() => {
                if n_ops != 2 {
                    self.err(format!("{op} expects 2 operands, got {n_ops}"));
                    return;
                }
                let (l, r) = (self.vty(inst.operands()[0]), self.vty(inst.operands()[1]));
                if l != r {
                    self.err(format!("{op} has mixed operand types"));
                }
                if !types.is_scalar(l) {
                    self.err(format!("{op} requires scalar operands"));
                }
                if !matches!(types.kind(inst.result_type()), TypeKind::Bool) {
                    self.err(format!("{op} must produce bool"));
                }
            }
            Opcode::Ret => {
                let ret_ty = self.func.return_type();
                let is_void = matches!(types.kind(ret_ty), TypeKind::Void);
                match (is_void, n_ops) {
                    (true, 0) | (false, 1) => {}
                    (true, _) => self.err("ret with value in void function".into()),
                    (false, 0) => self.err("ret without value in non-void function".into()),
                    (false, _) => self.err("ret with multiple values".into()),
                }
                if n_ops == 1 {
                    let t = self.vty(inst.operands()[0]);
                    if t != ret_ty {
                        self.err(format!(
                            "ret type {} does not match function return type {}",
                            self.ty_name(t),
                            self.ty_name(ret_ty)
                        ));
                    }
                }
            }
            Opcode::Br => match (n_ops, n_blocks) {
                (0, 1) => {}
                (1, 2) => {
                    let c = self.vty(inst.operands()[0]);
                    if !matches!(types.kind(c), TypeKind::Bool) {
                        self.err("conditional br requires a bool condition".into());
                    }
                }
                _ => self.err(format!(
                    "br has invalid shape: {n_ops} operands, {n_blocks} targets"
                )),
            },
            Opcode::Mbr => {
                if n_ops == 0 || n_blocks != n_ops {
                    self.err(format!(
                        "mbr shape invalid: {n_ops} operands vs {n_blocks} targets"
                    ));
                    return;
                }
                let disc = self.vty(inst.operands()[0]);
                if !types.is_integer(disc) {
                    self.err("mbr discriminant must be an integer".into());
                }
                for &c in &inst.operands()[1..] {
                    match self.func.value_as_const(c) {
                        Some(k) => {
                            if k.type_id() != Some(disc) {
                                self.err("mbr case type differs from discriminant".into());
                            }
                        }
                        None => self.err("mbr case is not a constant".into()),
                    }
                }
            }
            Opcode::Invoke | Opcode::Call => {
                if n_ops == 0 {
                    self.err(format!("{op} missing callee"));
                    return;
                }
                if op == Opcode::Invoke && n_blocks != 2 {
                    self.err("invoke needs normal and unwind targets".into());
                }
                let callee_ty = self.vty(inst.operands()[0]);
                let Some(fn_ty) = types.pointee(callee_ty) else {
                    self.err("callee is not a function pointer".into());
                    return;
                };
                let TypeKind::Function { ret, params, varargs } = types.kind(fn_ty).clone() else {
                    self.err("callee does not point to a function type".into());
                    return;
                };
                if inst.result_type() != ret {
                    self.err(format!(
                        "{op} result type {} differs from callee return {}",
                        self.ty_name(inst.result_type()),
                        self.ty_name(ret)
                    ));
                }
                let args = &inst.operands()[1..];
                if args.len() < params.len() || (!varargs && args.len() != params.len()) {
                    self.err(format!(
                        "{op} passes {} args to a function of {} params",
                        args.len(),
                        params.len()
                    ));
                }
                for (i, (&a, &p)) in args.iter().zip(params.iter()).enumerate() {
                    let at = self.vty(a);
                    if at != p {
                        self.err(format!(
                            "{op} argument {i} has type {}, expected {}",
                            self.ty_name(at),
                            self.ty_name(p)
                        ));
                    }
                }
            }
            Opcode::Unwind => {
                if n_ops != 0 || n_blocks != 0 {
                    self.err("unwind takes no operands".into());
                }
            }
            Opcode::Load => {
                if n_ops != 1 {
                    self.err("load expects 1 operand".into());
                    return;
                }
                let pt = self.vty(inst.operands()[0]);
                match types.pointee(pt) {
                    Some(pointee) => {
                        if !types.is_scalar(pointee) {
                            self.err("load of non-scalar memory".into());
                        }
                        if inst.result_type() != pointee {
                            self.err("load result type differs from pointee".into());
                        }
                    }
                    None => self.err("load requires a pointer operand".into()),
                }
            }
            Opcode::Store => {
                if n_ops != 2 {
                    self.err("store expects 2 operands".into());
                    return;
                }
                let vt = self.vty(inst.operands()[0]);
                let pt = self.vty(inst.operands()[1]);
                match types.pointee(pt) {
                    Some(pointee) if pointee == vt => {}
                    Some(_) => self.err("store value type differs from pointee".into()),
                    None => self.err("store requires a pointer operand".into()),
                }
            }
            Opcode::GetElementPtr => {
                if n_ops < 2 {
                    self.err("getelementptr needs a pointer and at least one index".into());
                    return;
                }
                let pt = self.vty(inst.operands()[0]);
                if types.pointee(pt).is_none() {
                    self.err("getelementptr base is not a pointer".into());
                    return;
                }
                // Re-walk the indices to validate the result type.
                let mut cur = types.pointee(pt).expect("checked above");
                for &idx in &inst.operands()[2..] {
                    match types.kind(cur).clone() {
                        TypeKind::Array { elem, .. } => {
                            let it = self.vty(idx);
                            if !types.is_integer(it) {
                                self.err("array index must be an integer".into());
                            }
                            cur = elem;
                        }
                        TypeKind::LiteralStruct(_) | TypeKind::Struct(_) => {
                            let field = self
                                .func
                                .value_as_const(idx)
                                .and_then(crate::value::Constant::as_int_bits);
                            match (field, types.struct_fields(cur)) {
                                (Some(fi), Some(fields)) if (fi as usize) < fields.len() => {
                                    cur = fields[fi as usize];
                                }
                                (None, _) => {
                                    self.err("struct field index must be a constant".into());
                                    return;
                                }
                                (_, None) => {
                                    self.err("getelementptr into opaque struct".into());
                                    return;
                                }
                                (Some(fi), Some(fields)) => {
                                    self.err(format!(
                                        "struct field index {fi} out of range ({})",
                                        fields.len()
                                    ));
                                    return;
                                }
                            }
                        }
                        _ => {
                            self.err("getelementptr walks into a non-aggregate".into());
                            return;
                        }
                    }
                }
                let expected = match types.kind(inst.result_type()) {
                    TypeKind::Pointer(p) => *p == cur,
                    _ => false,
                };
                if !expected {
                    self.err("getelementptr result type does not match its walk".into());
                }
            }
            Opcode::Alloca => {
                if types.pointee(inst.result_type()).is_none() {
                    self.err("alloca must produce a pointer".into());
                }
                if n_ops > 1 {
                    self.err("alloca takes at most one (count) operand".into());
                }
                if n_ops == 1 {
                    let ct = self.vty(inst.operands()[0]);
                    if !types.is_integer(ct) {
                        self.err("alloca count must be an integer".into());
                    }
                }
            }
            Opcode::Cast => {
                if n_ops != 1 {
                    self.err("cast expects 1 operand".into());
                    return;
                }
                let from = self.vty(inst.operands()[0]);
                let to = inst.result_type();
                if !types.is_scalar(from) || !types.is_scalar(to) {
                    self.err(format!(
                        "cast between non-scalar types {} -> {}",
                        self.ty_name(from),
                        self.ty_name(to)
                    ));
                }
            }
            Opcode::Phi => {
                let expected_preds = preds.len();
                if n_ops != n_blocks {
                    self.err("phi values and blocks are not parallel".into());
                    return;
                }
                if n_ops != expected_preds {
                    self.err(format!(
                        "phi has {n_ops} incoming entries but block has {expected_preds} predecessors"
                    ));
                }
                let mut seen: Vec<BlockId> = Vec::new();
                for (&v, &b) in inst.operands().iter().zip(inst.block_operands()) {
                    if seen.contains(&b) {
                        self.err("phi lists a predecessor twice".into());
                    }
                    seen.push(b);
                    if !preds.contains(&b) {
                        self.err(format!(
                            "phi incoming block '{}' is not a predecessor",
                            self.func.block(b).name()
                        ));
                    }
                    let vt = self.vty(v);
                    if vt != inst.result_type() {
                        self.err("phi incoming value type differs from result type".into());
                    }
                }
            }
            _ => unreachable!("all opcodes covered"),
        }
    }

    fn check_ssa(&mut self, dom: &DomTree) {
        // Position of each instruction result within its block, for
        // same-block dominance.
        let mut def_pos = vec![0u32; self.func.num_values()];
        for &b in self.func.block_order() {
            for (pos, &i) in self.func.block(b).insts().iter().enumerate() {
                if let Some(r) = self.func.inst_result(i) {
                    def_pos[r.index()] = pos as u32;
                }
            }
        }
        for &block in self.func.block_order() {
            if !dom.is_reachable(block) {
                continue;
            }
            for (use_pos, &inst_id) in self.func.block(block).insts().iter().enumerate() {
                let inst = self.func.inst(inst_id);
                let is_phi = inst.opcode() == Opcode::Phi;
                for (i, &op) in inst.operands().iter().enumerate() {
                    let ValueData::Inst { inst: def, .. } = *self.func.value(op) else {
                        continue; // constants and args dominate everything
                    };
                    let Some(def_block) = self.func.inst_parent(def) else {
                        self.err(format!("use of detached instruction result {op}"));
                        continue;
                    };
                    let dominated = if is_phi {
                        // A phi use must be dominated at the end of the
                        // corresponding predecessor block. Values flowing
                        // in over a dead edge (unreachable predecessor)
                        // are never read and are exempt, as in LLVM's
                        // verifier.
                        match inst.block_operands().get(i) {
                            Some(&pb) if dom.is_reachable(pb) => dom.dominates(def_block, pb),
                            _ => continue,
                        }
                    } else if def_block == block {
                        (def_pos[op.index()] as usize) < use_pos
                    } else {
                        dom.dominates(def_block, block)
                    };
                    if !dominated {
                        self.err(format!(
                            "definition of {op} does not dominate its use in block '{}'",
                            self.func.block(block).name()
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instruction::Instruction;
    use crate::layout::TargetConfig;

    fn verify(m: &Module) -> Result<(), VerifyErrors> {
        verify_module(m)
    }

    #[test]
    fn well_formed_function_passes() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![int, int]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let (x, y) = (b.func().args()[0], b.func().args()[1]);
        let s = b.add(x, y);
        b.ret(Some(s));
        assert!(verify(&m).is_ok());
    }

    #[test]
    fn missing_terminator_detected() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let void = m.types_mut().void();
        let f = m.add_function("f", int, vec![int]);
        let func = m.function_mut(f);
        let e = func.add_block("entry");
        let x = func.args()[0];
        func.append_inst(e, Instruction::new(Opcode::Add, int, vec![x, x], vec![]), void);
        let err = verify(&m).unwrap_err();
        assert!(err.to_string().contains("does not end in a terminator"), "{err}");
    }

    #[test]
    fn ret_type_mismatch_detected() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let dbl = m.types_mut().double();
        let void = m.types_mut().void();
        let f = m.add_function("f", dbl, vec![int]);
        let func = m.function_mut(f);
        let e = func.add_block("entry");
        let x = func.args()[0];
        func.append_inst(e, Instruction::new(Opcode::Ret, void, vec![x], vec![]), void);
        let err = verify(&m).unwrap_err();
        assert!(err.to_string().contains("does not match function return type"), "{err}");
    }

    #[test]
    fn mixed_type_add_detected() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let uint = m.types_mut().uint();
        let void = m.types_mut().void();
        let f = m.add_function("f", int, vec![int, uint]);
        let func = m.function_mut(f);
        let e = func.add_block("entry");
        let (x, y) = (func.args()[0], func.args()[1]);
        let (_, r) = func.append_inst(e, Instruction::new(Opcode::Add, int, vec![x, y], vec![]), void);
        func.append_inst(e, Instruction::new(Opcode::Ret, void, vec![r.unwrap()], vec![]), void);
        let err = verify(&m).unwrap_err();
        assert!(err.to_string().contains("mixed operand types"), "{err}");
    }

    #[test]
    fn use_before_def_detected() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let void = m.types_mut().void();
        let f = m.add_function("f", int, vec![int]);
        let func = m.function_mut(f);
        let e = func.add_block("entry");
        let x = func.args()[0];
        // Manually create: %a = add %b, %b ; %b = add %x, %x  — %a uses %b before def.
        let (_b_id, b_val) = {
            // create the later instruction first so we can reference it
            let (bid, bval) =
                func.append_inst(e, Instruction::new(Opcode::Add, int, vec![x, x], vec![]), void);
            (bid, bval.unwrap())
        };
        // Now move a new instruction BEFORE it that uses b_val.
        let (_, _a) = func.insert_inst_at(
            e,
            0,
            Instruction::new(Opcode::Add, int, vec![b_val, b_val], vec![]),
            void,
        );
        func.append_inst(e, Instruction::new(Opcode::Ret, void, vec![b_val], vec![]), void);
        let err = verify(&m).unwrap_err();
        assert!(err.to_string().contains("does not dominate"), "{err}");
    }

    #[test]
    fn phi_incoming_count_checked() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let void = m.types_mut().void();
        let f = m.add_function("f", int, vec![int]);
        let func = m.function_mut(f);
        let e = func.add_block("entry");
        let j = func.add_block("join");
        let x = func.args()[0];
        func.append_inst(e, Instruction::new(Opcode::Br, void, vec![], vec![j]), void);
        // phi with zero incoming in a block with one predecessor
        let (_, p) = func.append_inst(j, Instruction::new(Opcode::Phi, int, vec![], vec![]), void);
        func.append_inst(j, Instruction::new(Opcode::Ret, void, vec![p.unwrap()], vec![]), void);
        let _ = x;
        let err = verify(&m).unwrap_err();
        assert!(err.to_string().contains("predecessors"), "{err}");
    }

    #[test]
    fn store_type_mismatch_detected() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let dbl = m.types_mut().double();
        let void = m.types_mut().void();
        let intp = m.types_mut().pointer_to(int);
        let f = m.add_function("f", void, vec![dbl, intp]);
        let func = m.function_mut(f);
        let e = func.add_block("entry");
        let (v, p) = (func.args()[0], func.args()[1]);
        func.append_inst(e, Instruction::new(Opcode::Store, void, vec![v, p], vec![]), void);
        func.append_inst(e, Instruction::new(Opcode::Ret, void, vec![], vec![]), void);
        let err = verify(&m).unwrap_err();
        assert!(err.to_string().contains("store value type differs"), "{err}");
    }

    #[test]
    fn declarations_are_skipped() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        m.add_function("external", int, vec![int]);
        assert!(verify(&m).is_ok());
    }
}
