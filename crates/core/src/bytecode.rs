//! Binary "virtual object code" encoding (paper §3.1).
//!
//! > "To support an infinite register set, we use a self-extending
//! > instruction encoding, but define a fixed-size 32-bit format to hold
//! > small instructions for compactness and translator efficiency."
//!
//! The encoder normalizes each function to a dense value numbering
//! (arguments, then the constant pool in first-use order, then
//! instruction results in layout order). Most instructions then fit the
//! fixed 32-bit *small* format:
//!
//! ```text
//!  bit 31  30..22   21..13   12..5   4..0
//!  [ 0 ][  op2  ][  op1  ][ type ][ opcode ]
//! ```
//!
//! where `op1`/`op2` are 9-bit value numbers (`0x1FF` = unused) and
//! `type` is an 8-bit type index. Anything larger — wide indexes, block
//! operands, overridden `ExceptionsEnabled` — self-extends into a tagged
//! 32-bit word followed by LEB128 varints.
//!
//! Local value and block names are *not* encoded (like any object format,
//! locals are anonymous); function, global, and struct names are.

use crate::function::Linkage;
use crate::instruction::{Instruction, Opcode};
use crate::layout::{Endianness, PointerSize, TargetConfig};
use crate::module::{FuncId, GlobalId, Initializer, Module};
use crate::types::{TypeId, TypeKind};
use crate::value::{Constant, ValueData, ValueId};
use std::collections::HashMap;
use std::fmt;

/// Magic bytes at the start of every LLVA object file.
pub const MAGIC: &[u8; 4] = b"LLVA";
/// Format version.
pub const VERSION: u8 = 1;

/// A bytecode decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset at which decoding failed (best effort).
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bytecode error at offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for DecodeError {}

type Result<T> = std::result::Result<T, DecodeError>;

// -------------------------------------------------------------- writing --

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                break;
            }
            self.buf.push(byte | 0x80);
        }
    }
    fn str(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.varint(b.len() as u64);
        self.buf.extend_from_slice(b);
    }
}

/// Encodes a module into virtual object code.
pub fn encode_module(module: &Module) -> Vec<u8> {
    let mut w = Writer::default();
    w.buf.extend_from_slice(MAGIC);
    w.u8(VERSION);
    w.u8(match module.target().pointer_size {
        PointerSize::Bits32 => 32,
        PointerSize::Bits64 => 64,
    });
    w.u8(match module.target().endianness {
        Endianness::Little => 0,
        Endianness::Big => 1,
    });

    encode_types(module, &mut w);
    encode_globals(module, &mut w);
    encode_functions(module, &mut w);
    w.buf
}

fn encode_types(module: &Module, w: &mut Writer) {
    let tt = module.types();
    w.varint(tt.len() as u64);
    for (_, kind) in tt.iter() {
        match kind {
            TypeKind::Void => w.u8(0),
            TypeKind::Bool => w.u8(1),
            TypeKind::UByte => w.u8(2),
            TypeKind::SByte => w.u8(3),
            TypeKind::UShort => w.u8(4),
            TypeKind::Short => w.u8(5),
            TypeKind::UInt => w.u8(6),
            TypeKind::Int => w.u8(7),
            TypeKind::ULong => w.u8(8),
            TypeKind::Long => w.u8(9),
            TypeKind::Float => w.u8(10),
            TypeKind::Double => w.u8(11),
            TypeKind::Label => w.u8(12),
            TypeKind::Pointer(p) => {
                w.u8(13);
                w.varint(p.index() as u64);
            }
            TypeKind::Array { elem, len } => {
                w.u8(14);
                w.varint(elem.index() as u64);
                w.varint(*len);
            }
            TypeKind::LiteralStruct(fields) => {
                w.u8(15);
                w.varint(fields.len() as u64);
                for f in fields {
                    w.varint(f.index() as u64);
                }
            }
            TypeKind::Struct(sid) => {
                w.u8(16);
                w.str(tt.struct_def(*sid).name());
            }
            TypeKind::Function {
                ret,
                params,
                varargs,
            } => {
                w.u8(17);
                w.varint(ret.index() as u64);
                w.varint(params.len() as u64);
                for p in params {
                    w.varint(p.index() as u64);
                }
                w.u8(u8::from(*varargs));
            }
        }
    }
    // struct bodies
    let defs: Vec<_> = tt.struct_defs().collect();
    w.varint(defs.len() as u64);
    for (_, def) in defs {
        w.str(def.name());
        match def.body() {
            Some(fields) => {
                w.u8(1);
                w.varint(fields.len() as u64);
                for f in fields {
                    w.varint(f.index() as u64);
                }
            }
            None => w.u8(0),
        }
    }
}

fn encode_constant(c: &Constant, w: &mut Writer) {
    match c {
        Constant::Bool(b) => {
            w.u8(0);
            w.u8(u8::from(*b));
        }
        Constant::Int { ty, bits } => {
            w.u8(1);
            w.varint(ty.index() as u64);
            w.varint(*bits);
        }
        Constant::Float { ty, bits } => {
            w.u8(2);
            w.varint(ty.index() as u64);
            w.varint(*bits);
        }
        Constant::Null(ty) => {
            w.u8(3);
            w.varint(ty.index() as u64);
        }
        Constant::GlobalAddr { global, ty } => {
            w.u8(4);
            w.varint(global.index() as u64);
            w.varint(ty.index() as u64);
        }
        Constant::FunctionAddr { func, ty } => {
            w.u8(5);
            w.varint(func.index() as u64);
            w.varint(ty.index() as u64);
        }
        Constant::Undef(ty) => {
            w.u8(6);
            w.varint(ty.index() as u64);
        }
    }
}

fn encode_initializer(init: &Initializer, w: &mut Writer) {
    match init {
        Initializer::Zero => w.u8(0),
        Initializer::Scalar(c) => {
            w.u8(1);
            encode_constant(c, w);
        }
        Initializer::Array(items) => {
            w.u8(2);
            w.varint(items.len() as u64);
            for i in items {
                encode_initializer(i, w);
            }
        }
        Initializer::Struct(items) => {
            w.u8(3);
            w.varint(items.len() as u64);
            for i in items {
                encode_initializer(i, w);
            }
        }
        Initializer::Bytes(bytes) => {
            w.u8(4);
            w.bytes(bytes);
        }
    }
}

fn encode_globals(module: &Module, w: &mut Writer) {
    w.varint(module.num_globals() as u64);
    for (_, g) in module.globals() {
        w.str(g.name());
        w.varint(g.value_type().index() as u64);
        w.u8(u8::from(g.is_const()) | (u8::from(g.linkage() == Linkage::Internal) << 1));
        encode_initializer(g.init(), w);
    }
}

fn encode_function_sig(f: &crate::function::Function, w: &mut Writer) {
    w.str(f.name());
    w.varint(f.return_type().index() as u64);
    w.varint(f.param_types().len() as u64);
    for &p in f.param_types() {
        w.varint(p.index() as u64);
    }
    w.u8(u8::from(f.linkage() == Linkage::Internal));
}

fn encode_functions(module: &Module, w: &mut Writer) {
    w.varint(module.num_functions() as u64);
    for (_, f) in module.functions() {
        encode_function_sig(f, w);
        if f.is_declaration() {
            w.u8(0);
            continue;
        }
        w.u8(1);
        encode_body(f, w);
    }
}

/// Encodes everything a single function's translation can observe
/// *besides* its own body: the target configuration, the type table,
/// the globals (ids, layouts, initializers), and every function's
/// signature + declaration-ness (calls compile against callee ids and
/// signatures; intrinsic calls depend on declaration-ness). Two modules
/// with equal environment encodings and an equal [`encode_function`]
/// encoding for `f` produce byte-identical translations of `f` — this
/// is the basis of LLEE's per-function incremental cache keys.
pub fn encode_module_env(module: &Module) -> Vec<u8> {
    let mut w = Writer::default();
    w.buf.extend_from_slice(MAGIC);
    w.u8(VERSION);
    w.u8(match module.target().pointer_size {
        PointerSize::Bits32 => 32,
        PointerSize::Bits64 => 64,
    });
    w.u8(match module.target().endianness {
        Endianness::Little => 0,
        Endianness::Big => 1,
    });
    encode_types(module, &mut w);
    encode_globals(module, &mut w);
    w.varint(module.num_functions() as u64);
    for (_, f) in module.functions() {
        encode_function_sig(f, &mut w);
        w.u8(u8::from(!f.is_declaration()));
    }
    w.buf
}

/// Encodes one function (signature + body) in the same normalized form
/// `encode_module` uses. Together with [`encode_module_env`] this gives
/// a content-addressed identity for a function's translation input.
pub fn encode_function(module: &Module, f: FuncId) -> Vec<u8> {
    let mut w = Writer::default();
    let func = module.function(f);
    encode_function_sig(func, &mut w);
    if func.is_declaration() {
        w.u8(0);
    } else {
        w.u8(1);
        encode_body(func, &mut w);
    }
    w.buf
}

/// The normalized numbering of a function's values for encoding.
struct Numbering {
    map: HashMap<ValueId, u64>,
    consts: Vec<Constant>,
}

fn number_function(f: &crate::function::Function) -> Numbering {
    let mut map = HashMap::new();
    let mut next = 0u64;
    for &a in f.args() {
        map.insert(a, next);
        next += 1;
    }
    // constant pool in first-use order
    let mut consts = Vec::new();
    for (_, inst) in f.inst_iter() {
        for &op in f.inst(inst).operands() {
            if map.contains_key(&op) {
                continue;
            }
            if let ValueData::Const(c) = f.value(op) {
                map.insert(op, next);
                next += 1;
                consts.push(*c);
            }
        }
    }
    // instruction results in layout order
    for (_, inst) in f.inst_iter() {
        if let Some(r) = f.inst_result(inst) {
            map.insert(r, next);
            next += 1;
        }
    }
    Numbering { map, consts }
}

fn encode_body(f: &crate::function::Function, w: &mut Writer) {
    let numbering = number_function(f);
    w.varint(numbering.consts.len() as u64);
    for c in &numbering.consts {
        encode_constant(c, w);
    }
    // blocks
    let order = f.block_order();
    let block_index: HashMap<_, _> = order.iter().enumerate().map(|(i, &b)| (b, i)).collect();
    w.varint(order.len() as u64);
    for &b in order {
        let insts = f.block(b).insts();
        w.varint(insts.len() as u64);
        for &i in insts {
            encode_inst(f, i, &numbering, &block_index, w);
        }
    }
}

const SMALL_UNUSED: u32 = 0x1FF;

fn encode_inst(
    f: &crate::function::Function,
    id: crate::instruction::InstId,
    numbering: &Numbering,
    block_index: &HashMap<crate::function::BlockId, usize>,
    w: &mut Writer,
) {
    let inst = f.inst(id);
    let opcode = inst.opcode().encoding() as u32;
    let ty_idx = inst.result_type().index() as u64;
    let ops: Vec<u64> = inst.operands().iter().map(|o| numbering.map[o]).collect();
    let blocks: Vec<u64> = inst
        .block_operands()
        .iter()
        .map(|b| block_index[b] as u64)
        .collect();
    let exc_default = inst.opcode().default_exceptions_enabled();
    let small_ok = blocks.is_empty()
        && inst.exceptions_enabled() == exc_default
        && ty_idx < 256
        && ops.len() <= 2
        && ops.iter().all(|&o| o < SMALL_UNUSED as u64);
    if small_ok {
        let op1 = ops.first().map_or(SMALL_UNUSED, |&o| o as u32);
        let op2 = ops.get(1).map_or(SMALL_UNUSED, |&o| o as u32);
        let word = opcode | ((ty_idx as u32) << 5) | (op1 << 13) | (op2 << 22);
        debug_assert_eq!(word >> 31, 0);
        w.u32(word);
    } else {
        let word = (1u32 << 31) | opcode;
        w.u32(word);
        w.varint(ty_idx);
        let exc_flag = if inst.exceptions_enabled() == exc_default {
            0
        } else if inst.exceptions_enabled() {
            1
        } else {
            2
        };
        w.u8(exc_flag);
        w.varint(ops.len() as u64);
        for o in &ops {
            w.varint(*o);
        }
        w.varint(blocks.len() as u64);
        for b in &blocks {
            w.varint(*b);
        }
    }
}

// -------------------------------------------------------------- reading --

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(DecodeError {
            offset: self.pos,
            message: message.into(),
        })
    }
    fn u8(&mut self) -> Result<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| DecodeError {
                offset: self.pos,
                message: "unexpected end of file".into(),
            })?;
        self.pos += 1;
        Ok(b)
    }
    fn u32(&mut self) -> Result<u32> {
        if self.pos + 4 > self.buf.len() {
            return self.err("unexpected end of file");
        }
        let v = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().expect("4 bytes"));
        self.pos += 4;
        Ok(v)
    }
    fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.u8()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return self.err("varint too long");
            }
        }
    }
    fn str(&mut self) -> Result<String> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes).map_err(|_| DecodeError {
            offset: self.pos,
            message: "invalid utf-8 string".into(),
        })
    }
    /// Reads an item count, bounded by the remaining input. Every
    /// counted item occupies at least one byte, so a larger count is
    /// malformed; rejecting it before any `Vec::with_capacity` keeps a
    /// hostile length prefix from becoming an allocation bomb (an
    /// allocation failure aborts — it cannot be caught downstream).
    fn count(&mut self, what: &str) -> Result<usize> {
        let n = self.varint()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n > remaining {
            return self.err(format!("{what} count {n} exceeds {remaining} remaining bytes"));
        }
        Ok(n as usize)
    }
    /// Reads a table index, rejecting values a 32-bit id cannot hold
    /// (the id constructors panic on overflow; untrusted input must
    /// surface a `DecodeError` instead).
    fn index(&mut self, what: &str) -> Result<usize> {
        let n = self.varint()?;
        if n >= u64::from(u32::MAX) {
            return self.err(format!("{what} index {n} out of range"));
        }
        Ok(n as usize)
    }
    fn bytes(&mut self) -> Result<Vec<u8>> {
        // compare against remaining (not pos + len) so a huge length
        // prefix can neither overflow the addition nor drive an
        // oversized allocation
        let len = self.varint()?;
        if len > (self.buf.len() - self.pos) as u64 {
            return self.err("unexpected end of file in bytes");
        }
        let len = len as usize;
        let v = self.buf[self.pos..self.pos + len].to_vec();
        self.pos += len;
        Ok(v)
    }
}

/// Decodes virtual object code back into a [`Module`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed input. Decoding a module
/// produced by [`encode_module`] always succeeds.
pub fn decode_module(bytes: &[u8]) -> Result<Module> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if bytes.len() < 7 || &bytes[0..4] != MAGIC {
        return r.err("bad magic");
    }
    r.pos = 4;
    let version = r.u8()?;
    if version != VERSION {
        return r.err(format!("unsupported version {version}"));
    }
    let psize = match r.u8()? {
        32 => PointerSize::Bits32,
        64 => PointerSize::Bits64,
        other => return r.err(format!("bad pointer size {other}")),
    };
    let endian = match r.u8()? {
        0 => Endianness::Little,
        1 => Endianness::Big,
        other => return r.err(format!("bad endianness {other}")),
    };
    let mut module = Module::new(
        "decoded",
        TargetConfig {
            pointer_size: psize,
            endianness: endian,
        },
    );

    decode_types(&mut module, &mut r)?;
    decode_globals(&mut module, &mut r)?;
    decode_functions(&mut module, &mut r)?;
    Ok(module)
}

fn decode_types(module: &mut Module, r: &mut Reader<'_>) -> Result<()> {
    let count = r.count("type")?;
    for i in 0..count {
        let tag = r.u8()?;
        let tt = module.types_mut();
        let id = match tag {
            0 => tt.void(),
            1 => tt.bool(),
            2 => tt.ubyte(),
            3 => tt.sbyte(),
            4 => tt.ushort(),
            5 => tt.short(),
            6 => tt.uint(),
            7 => tt.int(),
            8 => tt.ulong(),
            9 => tt.long(),
            10 => tt.float(),
            11 => tt.double(),
            12 => tt.label(),
            13 => {
                let p = TypeId::from_index(r.index("pointee type")?);
                module.types_mut().pointer_to(p)
            }
            14 => {
                let elem = TypeId::from_index(r.index("element type")?);
                let len = r.varint()?;
                module.types_mut().array_of(elem, len)
            }
            15 => {
                let n = r.count("struct field")?;
                let mut fields = Vec::with_capacity(n);
                for _ in 0..n {
                    fields.push(TypeId::from_index(r.index("field type")?));
                }
                module.types_mut().literal_struct(fields)
            }
            16 => {
                let name = r.str()?;
                module.types_mut().named_struct(&name)
            }
            17 => {
                let ret = TypeId::from_index(r.index("return type")?);
                let n = r.count("parameter")?;
                let mut params = Vec::with_capacity(n);
                for _ in 0..n {
                    params.push(TypeId::from_index(r.index("parameter type")?));
                }
                let varargs = r.u8()? != 0;
                module.types_mut().function(ret, params, varargs)
            }
            other => return r.err(format!("bad type tag {other}")),
        };
        if id.index() != i {
            return r.err(format!(
                "type table order mismatch: expected {i}, got {}",
                id.index()
            ));
        }
    }
    // struct bodies
    let ndefs = r.count("struct def")?;
    for _ in 0..ndefs {
        let name = r.str()?;
        let has_body = r.u8()? != 0;
        if has_body {
            let n = r.count("struct body field")?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                fields.push(TypeId::from_index(r.index("body field type")?));
            }
            module.types_mut().set_struct_body(&name, fields);
        } else {
            module.types_mut().named_struct(&name);
        }
    }
    Ok(())
}

fn decode_constant(r: &mut Reader<'_>) -> Result<Constant> {
    Ok(match r.u8()? {
        0 => Constant::Bool(r.u8()? != 0),
        1 => Constant::Int {
            ty: TypeId::from_index(r.index("constant type")?),
            bits: r.varint()?,
        },
        2 => Constant::Float {
            ty: TypeId::from_index(r.index("constant type")?),
            bits: r.varint()?,
        },
        3 => Constant::Null(TypeId::from_index(r.index("constant type")?)),
        4 => Constant::GlobalAddr {
            global: GlobalId::from_index(r.index("global")?),
            ty: TypeId::from_index(r.index("constant type")?),
        },
        5 => Constant::FunctionAddr {
            func: FuncId::from_index(r.index("function")?),
            ty: TypeId::from_index(r.index("constant type")?),
        },
        6 => Constant::Undef(TypeId::from_index(r.index("constant type")?)),
        other => return r.err(format!("bad constant tag {other}")),
    })
}

fn decode_initializer(r: &mut Reader<'_>) -> Result<Initializer> {
    Ok(match r.u8()? {
        0 => Initializer::Zero,
        1 => Initializer::Scalar(decode_constant(r)?),
        2 => {
            let n = r.count("array initializer item")?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_initializer(r)?);
            }
            Initializer::Array(items)
        }
        3 => {
            let n = r.count("struct initializer item")?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_initializer(r)?);
            }
            Initializer::Struct(items)
        }
        4 => Initializer::Bytes(r.bytes()?),
        other => return r.err(format!("bad initializer tag {other}")),
    })
}

fn decode_globals(module: &mut Module, r: &mut Reader<'_>) -> Result<()> {
    let count = r.count("global")?;
    for _ in 0..count {
        let name = r.str()?;
        let ty = TypeId::from_index(r.index("global type")?);
        let flags = r.u8()?;
        let init = decode_initializer(r)?;
        if module.global_by_name(&name).is_some() {
            return r.err(format!("duplicate global {name}"));
        }
        let g = module.add_global(&name, ty, init, flags & 1 != 0);
        if flags & 2 != 0 {
            module.global_mut(g).set_linkage(Linkage::Internal);
        }
    }
    Ok(())
}

fn decode_functions(module: &mut Module, r: &mut Reader<'_>) -> Result<()> {
    let count = r.count("function")?;
    for _ in 0..count {
        let name = r.str()?;
        let ret = TypeId::from_index(r.index("return type")?);
        let nparams = r.count("parameter")?;
        let mut params = Vec::with_capacity(nparams);
        for _ in 0..nparams {
            params.push(TypeId::from_index(r.index("parameter type")?));
        }
        let internal = r.u8()? != 0;
        if module.function_by_name(&name).is_some() {
            return r.err(format!("duplicate function {name}"));
        }
        let f = module.add_function(&name, ret, params);
        if internal {
            module.function_mut(f).set_linkage(Linkage::Internal);
        }
        let has_body = r.u8()? != 0;
        if has_body {
            decode_body(module, f, r)?;
        }
    }
    Ok(())
}

struct RawInst {
    opcode: Opcode,
    ty: TypeId,
    exc_flag: u8,
    ops: Vec<u64>,
    blocks: Vec<u64>,
}

fn decode_body(module: &mut Module, f: FuncId, r: &mut Reader<'_>) -> Result<()> {
    let void = module.types_mut().void();
    let nconsts = r.count("constant")?;
    let mut value_by_number: Vec<ValueId> = module.function(f).args().to_vec();
    for _ in 0..nconsts {
        let c = decode_constant(r)?;
        let v = module.function_mut(f).constant(c);
        value_by_number.push(v);
    }
    let nblocks = r.count("block")?;
    let mut blocks = Vec::with_capacity(nblocks);
    let mut raw: Vec<(usize, RawInst)> = Vec::new();
    for bi in 0..nblocks {
        let b = module.function_mut(f).add_block(format!("b{bi}"));
        blocks.push(b);
        let ninsts = r.count("instruction")?;
        for _ in 0..ninsts {
            raw.push((bi, decode_raw_inst(r)?));
        }
    }
    // Pass A: create instructions, collect result values.
    let mut inst_ids = Vec::with_capacity(raw.len());
    for (bi, ri) in &raw {
        let mut inst = Instruction::new(ri.opcode, ri.ty, vec![], vec![]);
        match ri.exc_flag {
            0 => {}
            1 => inst.set_exceptions_enabled(true),
            2 => inst.set_exceptions_enabled(false),
            other => return r.err(format!("bad exceptions flag {other}")),
        }
        let (iid, result) = module
            .function_mut(f)
            .append_inst(blocks[*bi], inst, void);
        if let Some(rv) = result {
            value_by_number.push(rv);
        }
        inst_ids.push(iid);
    }
    // Pass B: patch operands.
    for (iid, (_, ri)) in inst_ids.iter().zip(&raw) {
        let mut operands = Vec::with_capacity(ri.ops.len());
        for &n in &ri.ops {
            let v = *value_by_number.get(n as usize).ok_or_else(|| DecodeError {
                offset: r.pos,
                message: format!("value number {n} out of range"),
            })?;
            operands.push(v);
        }
        let mut bops = Vec::with_capacity(ri.blocks.len());
        for &n in &ri.blocks {
            let b = *blocks.get(n as usize).ok_or_else(|| DecodeError {
                offset: r.pos,
                message: format!("block number {n} out of range"),
            })?;
            bops.push(b);
        }
        let func = module.function_mut(f);
        func.set_operands(*iid, operands);
        func.set_block_operands(*iid, bops);
    }
    Ok(())
}

fn decode_raw_inst(r: &mut Reader<'_>) -> Result<RawInst> {
    let word = r.u32()?;
    if word >> 31 == 0 {
        // small format
        let opcode = Opcode::from_encoding((word & 0x1F) as u8)
            .ok_or_else(|| DecodeError {
                offset: r.pos,
                message: format!("bad opcode {}", word & 0x1F),
            })?;
        let ty = TypeId::from_index(((word >> 5) & 0xFF) as usize);
        let op1 = (word >> 13) & 0x1FF;
        let op2 = (word >> 22) & 0x1FF;
        let mut ops = Vec::new();
        if op1 != SMALL_UNUSED {
            ops.push(u64::from(op1));
        }
        if op2 != SMALL_UNUSED {
            ops.push(u64::from(op2));
        }
        Ok(RawInst {
            opcode,
            ty,
            exc_flag: 0,
            ops,
            blocks: Vec::new(),
        })
    } else {
        let opcode = Opcode::from_encoding((word & 0x1F) as u8)
            .ok_or_else(|| DecodeError {
                offset: r.pos,
                message: format!("bad opcode {}", word & 0x1F),
            })?;
        let ty = TypeId::from_index(r.index("result type")?);
        let exc_flag = r.u8()?;
        let nops = r.count("operand")?;
        let mut ops = Vec::with_capacity(nops);
        for _ in 0..nops {
            ops.push(r.varint()?);
        }
        let nblocks = r.count("block operand")?;
        let mut blocks = Vec::with_capacity(nblocks);
        for _ in 0..nblocks {
            blocks.push(r.varint()?);
        }
        Ok(RawInst {
            opcode,
            ty,
            exc_flag,
            ops,
            blocks,
        })
    }
}

/// Statistics about an encoded module, used by the Table 2 harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EncodingStats {
    /// Total size of the object code in bytes.
    pub total_bytes: usize,
    /// Number of instructions encoded in the fixed 32-bit small format.
    pub small_insts: usize,
    /// Number of instructions that needed the self-extending format.
    pub extended_insts: usize,
}

/// Encodes `module` and reports size/format statistics.
pub fn encoding_stats(module: &Module) -> EncodingStats {
    let bytes = encode_module(module);
    let mut small = 0usize;
    let mut extended = 0usize;
    for (_, f) in module.functions() {
        if f.is_declaration() {
            continue;
        }
        let numbering = number_function(f);
        let order = f.block_order();
        let block_index: HashMap<_, _> = order.iter().enumerate().map(|(i, &b)| (b, i)).collect();
        for &b in order {
            for &i in f.block(b).insts() {
                let mut w = Writer::default();
                encode_inst(f, i, &numbering, &block_index, &mut w);
                if w.buf.len() == 4 && w.buf[3] & 0x80 == 0 {
                    small += 1;
                } else {
                    extended += 1;
                }
            }
        }
    }
    EncodingStats {
        total_bytes: bytes.len(),
        small_insts: small,
        extended_insts: extended,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::printer::print_module;
    use crate::verifier::verify_module;

    fn fib_module() -> Module {
        crate::parser::parse_module(
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
        )
        .expect("parses")
    }

    #[test]
    fn round_trip_preserves_structure() {
        let m1 = fib_module();
        let bytes = encode_module(&m1);
        let m2 = decode_module(&bytes).expect("decodes");
        verify_module(&m2).expect("verifies");
        let f1 = m1.function(m1.function_by_name("fib").expect("fib"));
        let f2 = m2.function(m2.function_by_name("fib").expect("fib"));
        assert_eq!(f1.num_insts(), f2.num_insts());
        assert_eq!(f1.num_blocks(), f2.num_blocks());
        // re-encoding the decoded module is a fixpoint
        let bytes2 = encode_module(&m2);
        assert_eq!(bytes, bytes2);
    }

    #[test]
    fn round_trip_preserves_semantic_text() {
        // Text after decode differs only in local names, which we drop.
        let m1 = fib_module();
        let m2 = decode_module(&encode_module(&m1)).expect("decodes");
        // Count mnemonics in both printed forms — structure identical.
        let count = |text: &str, pat: &str| text.matches(pat).count();
        let t1 = print_module(&m1);
        let t2 = print_module(&m2);
        for pat in ["add", "sub", "call", "setlt", "br", "ret"] {
            assert_eq!(count(&t1, pat), count(&t2, pat), "{pat}");
        }
    }

    #[test]
    fn small_format_dominates_simple_code() {
        let m = fib_module();
        let stats = encoding_stats(&m);
        assert!(stats.small_insts > 0);
        // calls carry a callee + arg and still fit small format (2 ops)
        assert!(
            stats.small_insts >= stats.extended_insts,
            "expected mostly small instructions: {stats:?}"
        );
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert!(decode_module(b"NOPE").is_err());
        let m = fib_module();
        let bytes = encode_module(&m);
        assert!(decode_module(&bytes[..bytes.len() - 3]).is_err());
        let mut corrupt = bytes.clone();
        corrupt[4] = 99; // version
        assert!(decode_module(&corrupt).is_err());
    }

    #[test]
    fn globals_and_targets_round_trip() {
        let mut m = Module::new("g", TargetConfig::ia32());
        let int = m.types_mut().int();
        let arr = m.types_mut().array_of(int, 3);
        m.add_global(
            "table",
            arr,
            Initializer::Array(vec![
                Initializer::Scalar(Constant::Int { ty: int, bits: 1 }),
                Initializer::Scalar(Constant::Int { ty: int, bits: 2 }),
                Initializer::Scalar(Constant::Int { ty: int, bits: 3 }),
            ]),
            true,
        );
        let bytes = encode_module(&m);
        let m2 = decode_module(&bytes).expect("decodes");
        assert_eq!(m2.target(), TargetConfig::ia32());
        let g = m2.global_by_name("table").expect("table");
        assert!(m2.global(g).is_const());
        assert!(matches!(m2.global(g).init(), Initializer::Array(v) if v.len() == 3));
    }

    #[test]
    fn exceptions_override_round_trips() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let f = m.add_function("f", int, vec![int, int]);
        let mut b = FunctionBuilder::new(&mut m, f);
        let e = b.block("entry");
        b.switch_to(e);
        let (x, y) = (b.func().args()[0], b.func().args()[1]);
        let d = b.div(x, y);
        b.ret(Some(d));
        let div_inst = m.function(f).block(e).insts()[0];
        m.function_mut(f).set_exceptions_enabled(div_inst, false);
        let m2 = decode_module(&encode_module(&m)).expect("decodes");
        let f2 = m2.function_by_name("f").expect("f");
        let e2 = m2.function(f2).entry_block();
        let d2 = m2.function(f2).block(e2).insts()[0];
        assert!(!m2.function(f2).inst(d2).exceptions_enabled());
    }

    #[test]
    fn named_struct_round_trips() {
        let src = r#"
%QT = type { double, [4 x %QT*] }

void %touch(%QT* %p) {
entry:
    %f = getelementptr %QT* %p, long 0, ubyte 0
    %v = load double* %f
    store double %v, double* %f
    ret void
}
"#;
        let m1 = crate::parser::parse_module(src).expect("parses");
        let m2 = decode_module(&encode_module(&m1)).expect("decodes");
        verify_module(&m2).expect("verifies");
        let sid = m2.types().struct_by_name("QT").expect("QT");
        assert!(m2.types().struct_def(sid).body().is_some());
    }
}
