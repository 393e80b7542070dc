//! Textual LLVA assembly parser.
//!
//! Parses the syntax produced by [`printer`](crate::printer) (and written
//! by hand in tests and examples) back into a [`Module`]. The parser is a
//! hand-written lexer + recursive-descent parser, two-pass at both the
//! module level (signatures before bodies, so calls may reference
//! later-defined functions) and the function level (instruction results
//! before operands, so `phi` and cross-block forward references resolve).
//!
//! # Examples
//!
//! ```
//! let src = r#"
//! int %double_it(int %x) {
//! entry:
//!     %y = add int %x, %x
//!     ret int %y
//! }
//! "#;
//! let m = llva_core::parser::parse_module(src).expect("parses");
//! assert!(m.function_by_name("double_it").is_some());
//! ```

use crate::function::{BlockId, Linkage};
use crate::instruction::{Instruction, Opcode};
use crate::layout::{Endianness, PointerSize, TargetConfig};
use crate::module::{FuncId, Initializer, Module};
use crate::types::{TypeId, TypeKind};
use crate::value::{Constant, ValueId};
use std::collections::HashMap;
use std::fmt;

/// A parse failure with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

type Result<T> = std::result::Result<T, ParseError>;

// ---------------------------------------------------------------- lexer --

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Local(String),  // %name
    Global(String), // @name
    Int(i128),
    FloatLit(f64),
    HexBits(u64),
    Bytes(Vec<u8>), // c"..."
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Equals,
    Colon,
    Star,
    Ellipsis,
    Eof,
}

#[derive(Debug, Clone)]
struct SpannedTok {
    tok: Tok,
    line: usize,
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '$')
}

fn lex(src: &str) -> Result<Vec<SpannedTok>> {
    let mut toks = Vec::new();
    let mut chars = src.chars().peekable();
    let mut line = 1usize;
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            ';' => {
                for c in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '%' | '@' => {
                let sigil = c;
                chars.next();
                let mut name = String::new();
                while let Some(&c) = chars.peek() {
                    if is_ident_char(c) {
                        name.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if name.is_empty() {
                    return Err(ParseError {
                        line,
                        message: format!("expected a name after '{sigil}'"),
                    });
                }
                toks.push(SpannedTok {
                    tok: if sigil == '%' {
                        Tok::Local(name)
                    } else {
                        Tok::Global(name)
                    },
                    line,
                });
            }
            'c' => {
                // maybe c"..." bytes literal, else identifier
                let mut clone = chars.clone();
                clone.next();
                if clone.peek() == Some(&'"') {
                    chars.next(); // c
                    chars.next(); // "
                    let mut bytes = Vec::new();
                    loop {
                        match chars.next() {
                            Some('"') => break,
                            Some('\\') => {
                                let h1 = chars.next().ok_or_else(|| ParseError {
                                    line,
                                    message: "unterminated escape".into(),
                                })?;
                                let h2 = chars.next().ok_or_else(|| ParseError {
                                    line,
                                    message: "unterminated escape".into(),
                                })?;
                                let hex: String = [h1, h2].iter().collect();
                                let b = u8::from_str_radix(&hex, 16).map_err(|_| ParseError {
                                    line,
                                    message: format!("bad escape \\{hex}"),
                                })?;
                                bytes.push(b);
                            }
                            Some(c) => bytes.push(c as u8),
                            None => {
                                return Err(ParseError {
                                    line,
                                    message: "unterminated bytes literal".into(),
                                })
                            }
                        }
                    }
                    toks.push(SpannedTok {
                        tok: Tok::Bytes(bytes),
                        line,
                    });
                } else {
                    lex_ident(&mut chars, &mut toks, line);
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                lex_ident(&mut chars, &mut toks, line);
            }
            c if c.is_ascii_digit() || c == '-' => {
                let mut text = String::new();
                text.push(c);
                chars.next();
                while let Some(&c) = chars.peek() {
                    let take = c.is_ascii_alphanumeric()
                        || c == '.'
                        || ((c == '+' || c == '-') && text.ends_with('e'));
                    if take {
                        text.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let tok = if let Some(hex) =
                    text.strip_prefix("0x").or_else(|| text.strip_prefix("0X"))
                {
                    Tok::HexBits(u64::from_str_radix(hex, 16).map_err(|_| ParseError {
                        line,
                        message: format!("bad hex constant {text}"),
                    })?)
                } else if text.contains('.') || text.contains('e') || text.contains('E') {
                    Tok::FloatLit(text.parse().map_err(|_| ParseError {
                        line,
                        message: format!("bad float constant {text}"),
                    })?)
                } else {
                    Tok::Int(text.parse().map_err(|_| ParseError {
                        line,
                        message: format!("bad integer constant {text}"),
                    })?)
                };
                toks.push(SpannedTok { tok, line });
            }
            '(' => push1(&mut chars, &mut toks, Tok::LParen, line),
            ')' => push1(&mut chars, &mut toks, Tok::RParen, line),
            '[' => push1(&mut chars, &mut toks, Tok::LBracket, line),
            ']' => push1(&mut chars, &mut toks, Tok::RBracket, line),
            '{' => push1(&mut chars, &mut toks, Tok::LBrace, line),
            '}' => push1(&mut chars, &mut toks, Tok::RBrace, line),
            ',' => push1(&mut chars, &mut toks, Tok::Comma, line),
            '=' => push1(&mut chars, &mut toks, Tok::Equals, line),
            ':' => push1(&mut chars, &mut toks, Tok::Colon, line),
            '*' => push1(&mut chars, &mut toks, Tok::Star, line),
            '.' => {
                chars.next();
                if chars.peek() == Some(&'.') {
                    chars.next();
                    if chars.next() != Some('.') {
                        return Err(ParseError {
                            line,
                            message: "expected '...'".into(),
                        });
                    }
                    toks.push(SpannedTok {
                        tok: Tok::Ellipsis,
                        line,
                    });
                } else {
                    return Err(ParseError {
                        line,
                        message: "unexpected '.'".into(),
                    });
                }
            }
            other => {
                return Err(ParseError {
                    line,
                    message: format!("unexpected character '{other}'"),
                })
            }
        }
    }
    toks.push(SpannedTok {
        tok: Tok::Eof,
        line,
    });
    Ok(toks)
}

fn lex_ident(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    toks: &mut Vec<SpannedTok>,
    line: usize,
) {
    let mut name = String::new();
    while let Some(&c) = chars.peek() {
        if is_ident_char(c) {
            name.push(c);
            chars.next();
        } else {
            break;
        }
    }
    toks.push(SpannedTok {
        tok: Tok::Ident(name),
        line,
    });
}

fn push1(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
    toks: &mut Vec<SpannedTok>,
    tok: Tok,
    line: usize,
) {
    chars.next();
    toks.push(SpannedTok { tok, line });
}

// --------------------------------------------------------------- parser --

/// Parses a full module from LLVA assembly text.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first syntax or resolution
/// problem encountered.
pub fn parse_module(src: &str) -> Result<Module> {
    let toks = lex(src)?;
    let mut module = Module::new("parsed", TargetConfig::default());

    // Pass 1: targets, types, globals, function signatures.
    {
        let mut p = Parser::new(&toks, &mut module);
        p.pass1()?;
    }
    // Pass 2: function bodies.
    {
        let mut p = Parser::new(&toks, &mut module);
        p.pass2()?;
    }
    Ok(module)
}

struct Parser<'a> {
    toks: &'a [SpannedTok],
    pos: usize,
    module: &'a mut Module,
}

/// Unresolved operand captured during body parsing.
#[derive(Debug, Clone)]
enum PVal {
    Local(String),
    Global(String),
    Int(i128),
    Float(f64),
    HexBits(u64),
    Bool(bool),
    Null,
    Undef,
}

#[derive(Debug, Clone)]
struct POperand {
    ty: TypeId,
    val: PVal,
}

#[derive(Debug, Clone)]
struct PInst {
    line: usize,
    result: Option<String>,
    opcode: Opcode,
    /// Result type (resolved where syntax states it; for geps it is
    /// computed during build).
    ty: TypeId,
    operands: Vec<POperand>,
    blocks: Vec<String>,
    exc_override: Option<bool>,
}

impl<'a> Parser<'a> {
    fn new(toks: &'a [SpannedTok], module: &'a mut Module) -> Parser<'a> {
        Parser {
            toks,
            pos: 0,
            module,
        }
    }

    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn line(&self) -> usize {
        self.toks[self.pos].line
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(ParseError {
            line: self.line(),
            message: message.into(),
        })
    }

    fn expect(&mut self, tok: Tok) -> Result<()> {
        if *self.peek() == tok {
            self.next();
            Ok(())
        } else {
            self.err(format!("expected {tok:?}, found {:?}", self.peek()))
        }
    }

    fn expect_ident(&mut self, word: &str) -> Result<()> {
        if self.eat_ident(word) {
            Ok(())
        } else {
            self.err(format!("expected '{word}', found {:?}", self.peek()))
        }
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(w) if w == word) {
            self.next();
            true
        } else {
            false
        }
    }

    fn eat(&mut self, tok: Tok) -> bool {
        if *self.peek() == tok {
            self.next();
            true
        } else {
            false
        }
    }

    // ---- types ----

    fn parse_type(&mut self) -> Result<TypeId> {
        let mut base = match self.next() {
            Tok::Ident(name) => match name.as_str() {
                "void" => self.module.types_mut().void(),
                "bool" => self.module.types_mut().bool(),
                "ubyte" => self.module.types_mut().ubyte(),
                "sbyte" => self.module.types_mut().sbyte(),
                "ushort" => self.module.types_mut().ushort(),
                "short" => self.module.types_mut().short(),
                "uint" => self.module.types_mut().uint(),
                "int" => self.module.types_mut().int(),
                "ulong" => self.module.types_mut().ulong(),
                "long" => self.module.types_mut().long(),
                "float" => self.module.types_mut().float(),
                "double" => self.module.types_mut().double(),
                "label" => self.module.types_mut().label(),
                other => {
                    self.pos -= 1;
                    return self.err(format!("unknown type '{other}'"));
                }
            },
            Tok::Local(name) => self.module.types_mut().named_struct(&name),
            Tok::LBracket => {
                // [ N x T ]
                let len = match self.next() {
                    Tok::Int(n) if n >= 0 => n as u64,
                    _ => return self.err("expected array length"),
                };
                self.expect_ident("x")?;
                let elem = self.parse_type()?;
                self.expect(Tok::RBracket)?;
                self.module.types_mut().array_of(elem, len)
            }
            Tok::LBrace => {
                let mut fields = Vec::new();
                if *self.peek() != Tok::RBrace {
                    loop {
                        fields.push(self.parse_type()?);
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(Tok::RBrace)?;
                self.module.types_mut().literal_struct(fields)
            }
            _ => {
                self.pos -= 1;
                return self.err(format!("expected a type, found {:?}", self.peek()));
            }
        };
        // function type suffix: (params...)
        if *self.peek() == Tok::LParen {
            self.next();
            let mut params = Vec::new();
            let mut varargs = false;
            if *self.peek() != Tok::RParen {
                loop {
                    if self.eat(Tok::Ellipsis) {
                        varargs = true;
                        break;
                    }
                    params.push(self.parse_type()?);
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
            }
            self.expect(Tok::RParen)?;
            base = self.module.types_mut().function(base, params, varargs);
        }
        // pointer suffixes
        while self.eat(Tok::Star) {
            base = self.module.types_mut().pointer_to(base);
        }
        Ok(base)
    }

    // ---- pass 1 ----

    fn pass1(&mut self) -> Result<()> {
        let mut target = self.module.target();
        loop {
            match self.peek().clone() {
                Tok::Eof => break,
                Tok::Ident(w) if w == "target" => {
                    self.next();
                    match self.next() {
                        Tok::Ident(k) if k == "pointersize" => {
                            self.expect(Tok::Equals)?;
                            match self.next() {
                                Tok::Int(32) => target.pointer_size = PointerSize::Bits32,
                                Tok::Int(64) => target.pointer_size = PointerSize::Bits64,
                                _ => return self.err("pointersize must be 32 or 64"),
                            }
                        }
                        Tok::Ident(k) if k == "endian" => {
                            self.expect(Tok::Equals)?;
                            match self.next() {
                                Tok::Ident(e) if e == "little" => {
                                    target.endianness = Endianness::Little
                                }
                                Tok::Ident(e) if e == "big" => target.endianness = Endianness::Big,
                                _ => return self.err("endian must be little or big"),
                            }
                        }
                        _ => return self.err("unknown target directive"),
                    }
                }
                Tok::Local(name) if *self.peek2() == Tok::Equals => {
                    // %Name = type ...
                    self.next();
                    self.expect(Tok::Equals)?;
                    self.expect_ident("type")?;
                    if self.eat_ident("opaque") {
                        self.module.types_mut().named_struct(&name);
                    } else {
                        self.expect(Tok::LBrace)?;
                        let mut fields = Vec::new();
                        if *self.peek() != Tok::RBrace {
                            loop {
                                fields.push(self.parse_type()?);
                                if !self.eat(Tok::Comma) {
                                    break;
                                }
                            }
                        }
                        self.expect(Tok::RBrace)?;
                        self.module.types_mut().set_struct_body(&name, fields);
                    }
                }
                Tok::Global(name) => {
                    self.next();
                    self.expect(Tok::Equals)?;
                    let internal = self.eat_ident("internal");
                    let is_const = if self.eat_ident("constant") {
                        true
                    } else {
                        self.expect_ident("global")?;
                        false
                    };
                    let ty = self.parse_type()?;
                    let init = self.parse_initializer(ty)?;
                    let g = self.module.add_global(&name, ty, init, is_const);
                    if internal {
                        self.module.global_mut(g).set_linkage(Linkage::Internal);
                    }
                }
                Tok::Ident(w) if w == "declare" => {
                    self.next();
                    let ret = self.parse_type()?;
                    let name = match self.next() {
                        Tok::Local(n) => n,
                        _ => return self.err("expected function name"),
                    };
                    self.expect(Tok::LParen)?;
                    let mut params = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            params.push(self.parse_type()?);
                            if matches!(self.peek(), Tok::Local(_)) {
                                self.next();
                            }
                            if !self.eat(Tok::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    self.module.add_function(&name, ret, params);
                }
                _ => {
                    // function definition: [internal] type %name (params) { ... }
                    let internal = self.eat_ident("internal");
                    let ret = self.parse_type()?;
                    let name = match self.next() {
                        Tok::Local(n) => n,
                        _ => return self.err("expected function name"),
                    };
                    self.expect(Tok::LParen)?;
                    let mut params = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            params.push(self.parse_type()?);
                            if matches!(self.peek(), Tok::Local(_)) {
                                self.next();
                            }
                            if !self.eat(Tok::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    let f = self.module.add_function(&name, ret, params);
                    if internal {
                        self.module.function_mut(f).set_linkage(Linkage::Internal);
                    }
                    // skip balanced braces
                    self.expect(Tok::LBrace)?;
                    let mut depth = 1usize;
                    while depth > 0 {
                        match self.next() {
                            Tok::LBrace => depth += 1,
                            Tok::RBrace => depth -= 1,
                            Tok::Eof => return self.err("unterminated function body"),
                            _ => {}
                        }
                    }
                }
            }
        }
        self.module.set_target(target);
        Ok(())
    }

    fn parse_initializer(&mut self, ty: TypeId) -> Result<Initializer> {
        if self.eat_ident("zeroinitializer") {
            return Ok(Initializer::Zero);
        }
        match self.peek().clone() {
            Tok::Bytes(bytes) => {
                self.next();
                Ok(Initializer::Bytes(bytes))
            }
            Tok::LBracket => {
                self.next();
                let elem = match self.module.types().kind(ty) {
                    TypeKind::Array { elem, .. } => *elem,
                    _ => return self.err("array initializer for non-array type"),
                };
                let mut items = Vec::new();
                if *self.peek() != Tok::RBracket {
                    loop {
                        items.push(self.parse_initializer(elem)?);
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(Tok::RBracket)?;
                Ok(Initializer::Array(items))
            }
            Tok::LBrace => {
                self.next();
                let fields = self
                    .module
                    .types()
                    .struct_fields(ty)
                    .map(<[TypeId]>::to_vec)
                    .ok_or_else(|| ParseError {
                        line: self.line(),
                        message: "struct initializer for non-struct type".into(),
                    })?;
                let mut items = Vec::new();
                for (i, &f) in fields.iter().enumerate() {
                    items.push(self.parse_initializer(f)?);
                    if i + 1 < fields.len() {
                        self.expect(Tok::Comma)?;
                    }
                }
                self.expect(Tok::RBrace)?;
                Ok(Initializer::Struct(items))
            }
            _ => {
                let c = self.parse_scalar_constant(ty)?;
                Ok(Initializer::Scalar(c))
            }
        }
    }

    fn parse_scalar_constant(&mut self, ty: TypeId) -> Result<Constant> {
        let pv = self.parse_pval()?;
        self.resolve_const(ty, &pv)
    }

    fn parse_pval(&mut self) -> Result<PVal> {
        let line = self.line();
        Ok(match self.next() {
            Tok::Int(n) => PVal::Int(n),
            Tok::FloatLit(f) => PVal::Float(f),
            Tok::HexBits(b) => PVal::HexBits(b),
            Tok::Local(n) => PVal::Local(n),
            Tok::Global(n) => PVal::Global(n),
            Tok::Ident(w) if w == "true" => PVal::Bool(true),
            Tok::Ident(w) if w == "false" => PVal::Bool(false),
            Tok::Ident(w) if w == "null" => PVal::Null,
            Tok::Ident(w) if w == "undef" => PVal::Undef,
            other => {
                return Err(ParseError {
                    line,
                    message: format!("expected an operand, found {other:?}"),
                })
            }
        })
    }

    fn resolve_const(&mut self, ty: TypeId, pv: &PVal) -> Result<Constant> {
        let types = self.module.types();
        Ok(match pv {
            PVal::Bool(b) => Constant::Bool(*b),
            PVal::Int(n) => {
                if matches!(types.kind(ty), TypeKind::Bool) {
                    Constant::Bool(*n != 0)
                } else if types.is_float(ty) {
                    let bits = match types.kind(ty) {
                        TypeKind::Float => (*n as f32).to_bits() as u64,
                        _ => (*n as f64).to_bits(),
                    };
                    Constant::Float { ty, bits }
                } else {
                    let w = types.int_bits(ty).ok_or_else(|| ParseError {
                        line: self.line(),
                        message: "integer constant for non-integer type".into(),
                    })?;
                    let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
                    Constant::Int {
                        ty,
                        bits: (*n as u64) & mask,
                    }
                }
            }
            PVal::Float(f) => {
                let bits = match types.kind(ty) {
                    TypeKind::Float => (*f as f32).to_bits() as u64,
                    TypeKind::Double => f.to_bits(),
                    _ => {
                        return self.err("float constant for non-float type");
                    }
                };
                Constant::Float { ty, bits }
            }
            PVal::HexBits(b) => {
                if types.is_float(ty) {
                    Constant::Float { ty, bits: *b }
                } else if types.is_integer(ty) {
                    Constant::Int { ty, bits: *b }
                } else {
                    return self.err("hex constant for non-numeric type");
                }
            }
            PVal::Null => Constant::Null(ty),
            PVal::Undef => Constant::Undef(ty),
            PVal::Global(name) => {
                let g = self.module.global_by_name(name).ok_or_else(|| ParseError {
                    line: self.line(),
                    message: format!("unknown global @{name}"),
                })?;
                Constant::GlobalAddr { global: g, ty }
            }
            PVal::Local(name) => {
                // in constant position a %name must be a function reference
                let f = self
                    .module
                    .function_by_name(name)
                    .ok_or_else(|| ParseError {
                        line: self.line(),
                        message: format!("unknown function %{name} in constant position"),
                    })?;
                Constant::FunctionAddr { func: f, ty }
            }
        })
    }

    // ---- pass 2 ----

    fn pass2(&mut self) -> Result<()> {
        loop {
            match self.peek().clone() {
                Tok::Eof => break,
                Tok::Ident(w) if w == "target" => {
                    self.next();
                    self.next();
                    self.expect(Tok::Equals)?;
                    self.next();
                }
                Tok::Local(_) if *self.peek2() == Tok::Equals => {
                    // type definition — skip
                    self.next();
                    self.expect(Tok::Equals)?;
                    self.expect_ident("type")?;
                    if !self.eat_ident("opaque") {
                        let mut depth = 0usize;
                        loop {
                            match self.next() {
                                Tok::LBrace => depth += 1,
                                Tok::RBrace => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                Tok::Eof => return self.err("unterminated type"),
                                _ => {}
                            }
                        }
                    }
                }
                Tok::Global(_) => {
                    // global — reparse and discard
                    self.next();
                    self.expect(Tok::Equals)?;
                    self.eat_ident("internal");
                    if !self.eat_ident("constant") {
                        self.expect_ident("global")?;
                    }
                    let ty = self.parse_type()?;
                    let _ = self.parse_initializer(ty)?;
                }
                Tok::Ident(w) if w == "declare" => {
                    self.next();
                    let _ = self.parse_type()?;
                    self.next(); // name
                    self.expect(Tok::LParen)?;
                    let mut depth = 1usize;
                    while depth > 0 {
                        match self.next() {
                            Tok::LParen => depth += 1,
                            Tok::RParen => depth -= 1,
                            Tok::Eof => return self.err("unterminated declare"),
                            _ => {}
                        }
                    }
                }
                _ => self.parse_function_body()?,
            }
        }
        Ok(())
    }

    fn parse_function_body(&mut self) -> Result<()> {
        self.eat_ident("internal");
        let _ret = self.parse_type()?;
        let name = match self.next() {
            Tok::Local(n) => n,
            _ => return self.err("expected function name"),
        };
        let func_id = self
            .module
            .function_by_name(&name)
            .ok_or_else(|| ParseError {
                line: self.line(),
                message: format!("function %{name} vanished between passes"),
            })?;
        self.expect(Tok::LParen)?;
        let mut param_names = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                let _ = self.parse_type()?;
                match self.peek().clone() {
                    Tok::Local(n) => {
                        self.next();
                        param_names.push(Some(n));
                    }
                    _ => param_names.push(None),
                }
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::LBrace)?;

        // Collect blocks and raw instructions.
        let mut pinsts: Vec<(String, Vec<PInst>)> = Vec::new();
        loop {
            match self.peek().clone() {
                Tok::RBrace => {
                    self.next();
                    break;
                }
                Tok::Ident(label) if *self.peek2() == Tok::Colon => {
                    self.next();
                    self.expect(Tok::Colon)?;
                    pinsts.push((label, Vec::new()));
                }
                Tok::Eof => return self.err("unterminated function body"),
                _ => {
                    let inst = self.parse_pinst()?;
                    match pinsts.last_mut() {
                        Some((_, v)) => v.push(inst),
                        None => return self.err("instruction before the first block label"),
                    }
                }
            }
        }

        self.build_function(func_id, &param_names, pinsts)
    }

    fn parse_pinst(&mut self) -> Result<PInst> {
        let line = self.line();
        // optional "%name ="
        let result = if matches!(self.peek(), Tok::Local(_)) && *self.peek2() == Tok::Equals {
            let Tok::Local(n) = self.next() else {
                unreachable!()
            };
            self.expect(Tok::Equals)?;
            Some(n)
        } else {
            None
        };
        let mnemonic = match self.next() {
            Tok::Ident(m) => m,
            _ => return self.err("expected an instruction mnemonic"),
        };
        let opcode = Opcode::from_mnemonic(&mnemonic).ok_or_else(|| ParseError {
            line,
            message: format!("unknown instruction '{mnemonic}'"),
        })?;
        // optional [exc] / [noexc]
        let mut exc_override = None;
        if *self.peek() == Tok::LBracket {
            if let Tok::Ident(attr) = self.peek2().clone() {
                if attr == "exc" || attr == "noexc" {
                    self.next();
                    self.next();
                    self.expect(Tok::RBracket)?;
                    exc_override = Some(attr == "exc");
                }
            }
        }

        let void = self.module.types_mut().void();
        let boolt = self.module.types_mut().bool();
        let mut inst = PInst {
            line,
            result,
            opcode,
            ty: void,
            operands: Vec::new(),
            blocks: Vec::new(),
            exc_override,
        };

        match opcode {
            _ if opcode.is_binary() || opcode.is_comparison() => {
                let ty = self.parse_type()?;
                let a = self.parse_pval()?;
                self.expect(Tok::Comma)?;
                let b = self.parse_pval()?;
                inst.operands.push(POperand { ty, val: a });
                inst.operands.push(POperand { ty, val: b });
                inst.ty = if opcode.is_comparison() { boolt } else { ty };
            }
            Opcode::Ret => {
                if self.eat_ident("void") {
                    // no operand
                } else {
                    let ty = self.parse_type()?;
                    let v = self.parse_pval()?;
                    inst.operands.push(POperand { ty, val: v });
                }
            }
            Opcode::Br => {
                if self.eat_ident("label") {
                    inst.blocks.push(self.parse_label_name()?);
                } else {
                    self.expect_ident("bool")?;
                    let c = self.parse_pval()?;
                    inst.operands.push(POperand { ty: boolt, val: c });
                    self.expect(Tok::Comma)?;
                    self.expect_ident("label")?;
                    inst.blocks.push(self.parse_label_name()?);
                    self.expect(Tok::Comma)?;
                    self.expect_ident("label")?;
                    inst.blocks.push(self.parse_label_name()?);
                }
            }
            Opcode::Mbr => {
                let ty = self.parse_type()?;
                let disc = self.parse_pval()?;
                inst.operands.push(POperand { ty, val: disc });
                self.expect(Tok::Comma)?;
                self.expect_ident("label")?;
                inst.blocks.push(self.parse_label_name()?);
                while self.eat(Tok::Comma) {
                    self.expect(Tok::LBracket)?;
                    let cty = self.parse_type()?;
                    let c = self.parse_pval()?;
                    inst.operands.push(POperand { ty: cty, val: c });
                    self.expect(Tok::Comma)?;
                    self.expect_ident("label")?;
                    inst.blocks.push(self.parse_label_name()?);
                    self.expect(Tok::RBracket)?;
                }
            }
            Opcode::Invoke | Opcode::Call => {
                let ret = self.parse_type()?;
                inst.ty = ret;
                let callee = self.parse_pval()?;
                inst.operands.push(POperand {
                    ty: void,
                    val: callee,
                });
                self.expect(Tok::LParen)?;
                if *self.peek() != Tok::RParen {
                    loop {
                        let aty = self.parse_type()?;
                        let a = self.parse_pval()?;
                        inst.operands.push(POperand { ty: aty, val: a });
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(Tok::RParen)?;
                if opcode == Opcode::Invoke {
                    self.expect_ident("to")?;
                    self.expect_ident("label")?;
                    inst.blocks.push(self.parse_label_name()?);
                    self.expect_ident("unwind")?;
                    self.expect_ident("label")?;
                    inst.blocks.push(self.parse_label_name()?);
                }
            }
            Opcode::Unwind => {}
            Opcode::Load => {
                let pty = self.parse_type()?;
                let p = self.parse_pval()?;
                inst.operands.push(POperand { ty: pty, val: p });
                inst.ty = self.module.types().pointee(pty).ok_or_else(|| ParseError {
                    line,
                    message: "load operand is not a pointer".into(),
                })?;
            }
            Opcode::Store => {
                let vty = self.parse_type()?;
                let v = self.parse_pval()?;
                self.expect(Tok::Comma)?;
                let pty = self.parse_type()?;
                let p = self.parse_pval()?;
                inst.operands.push(POperand { ty: vty, val: v });
                inst.operands.push(POperand { ty: pty, val: p });
            }
            Opcode::GetElementPtr => {
                let pty = self.parse_type()?;
                let p = self.parse_pval()?;
                inst.operands.push(POperand { ty: pty, val: p });
                while self.eat(Tok::Comma) {
                    let ity = self.parse_type()?;
                    let i = self.parse_pval()?;
                    inst.operands.push(POperand { ty: ity, val: i });
                }
                // result type computed during build
            }
            Opcode::Alloca => {
                let pointee = self.parse_type()?;
                inst.ty = self.module.types_mut().pointer_to(pointee);
                if self.eat(Tok::Comma) {
                    let cty = self.parse_type()?;
                    let c = self.parse_pval()?;
                    inst.operands.push(POperand { ty: cty, val: c });
                }
            }
            Opcode::Cast => {
                let fty = self.parse_type()?;
                let v = self.parse_pval()?;
                inst.operands.push(POperand { ty: fty, val: v });
                self.expect_ident("to")?;
                inst.ty = self.parse_type()?;
            }
            Opcode::Phi => {
                let ty = self.parse_type()?;
                inst.ty = ty;
                loop {
                    self.expect(Tok::LBracket)?;
                    let v = self.parse_pval()?;
                    self.expect(Tok::Comma)?;
                    let b = self.parse_label_name()?;
                    self.expect(Tok::RBracket)?;
                    inst.operands.push(POperand { ty, val: v });
                    inst.blocks.push(b);
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
            }
            _ => unreachable!("all opcodes covered"),
        }
        Ok(inst)
    }

    fn parse_label_name(&mut self) -> Result<String> {
        match self.next() {
            Tok::Local(n) => Ok(n),
            other => Err(ParseError {
                line: self.line(),
                message: format!("expected %label, found {other:?}"),
            }),
        }
    }

    fn build_function(
        &mut self,
        func_id: FuncId,
        param_names: &[Option<String>],
        blocks: Vec<(String, Vec<PInst>)>,
    ) -> Result<()> {
        let void = self.module.types_mut().void();

        // Name parameters.
        {
            let func = self.module.function_mut(func_id);
            let args = func.args().to_vec();
            for (a, n) in args.iter().zip(param_names) {
                if let Some(n) = n {
                    func.set_value_name(*a, n.clone());
                }
            }
        }

        // Create blocks and the locals map.
        let mut block_ids: HashMap<String, BlockId> = HashMap::new();
        for (name, _) in &blocks {
            let b = self.module.function_mut(func_id).add_block(name.clone());
            if block_ids.insert(name.clone(), b).is_some() {
                return Err(ParseError {
                    line: 0,
                    message: format!("duplicate block label '{name}'"),
                });
            }
        }

        let mut locals: HashMap<String, ValueId> = HashMap::new();
        {
            let func = self.module.function(func_id);
            for (a, n) in func.args().to_vec().iter().zip(param_names) {
                if let Some(n) = n {
                    locals.insert(n.clone(), *a);
                }
            }
        }

        // Pass A: create instructions with empty operands; bind results.
        let mut created: Vec<(crate::instruction::InstId, PInst)> = Vec::new();
        for (bname, insts) in &blocks {
            let bid = block_ids[bname];
            for pinst in insts {
                let mut ty = pinst.ty;
                if pinst.opcode == Opcode::GetElementPtr {
                    ty = self.gep_ty_from_past(pinst)?;
                }
                let mut raw = Instruction::new(pinst.opcode, ty, vec![], vec![]);
                if let Some(exc) = pinst.exc_override {
                    raw.set_exceptions_enabled(exc);
                }
                let (iid, result) = self.module.function_mut(func_id).append_inst(bid, raw, void);
                if let (Some(rname), Some(rv)) = (&pinst.result, result) {
                    self.module
                        .function_mut(func_id)
                        .set_value_name(rv, rname.clone());
                    locals.insert(rname.clone(), rv);
                }
                created.push((iid, pinst.clone()));
            }
        }

        // Pass B: resolve operands.
        for (iid, pinst) in created {
            let mut operands = Vec::with_capacity(pinst.operands.len());
            for po in &pinst.operands {
                let v = self.resolve_operand(func_id, &locals, po, pinst.line)?;
                operands.push(v);
            }
            let mut bops = Vec::with_capacity(pinst.blocks.len());
            for bn in &pinst.blocks {
                bops.push(*block_ids.get(bn).ok_or_else(|| ParseError {
                    line: pinst.line,
                    message: format!("unknown block label '{bn}'"),
                })?);
            }
            let func = self.module.function_mut(func_id);
            func.set_operands(iid, operands);
            func.set_block_operands(iid, bops);
        }
        Ok(())
    }

    /// Computes a GEP result type from parsed operand types + constant
    /// indices (before value resolution).
    fn gep_ty_from_past(&mut self, pinst: &PInst) -> Result<TypeId> {
        let base = pinst.operands[0].ty;
        let mut cur = self
            .module
            .types()
            .pointee(base)
            .ok_or_else(|| ParseError {
                line: pinst.line,
                message: "getelementptr base is not a pointer".into(),
            })?;
        for po in &pinst.operands[2..] {
            cur = match self.module.types().kind(cur).clone() {
                TypeKind::Array { elem, .. } => elem,
                TypeKind::LiteralStruct(_) | TypeKind::Struct(_) => {
                    let PVal::Int(field) = po.val else {
                        return Err(ParseError {
                            line: pinst.line,
                            message: "struct field index must be a literal constant".into(),
                        });
                    };
                    let fields = self
                        .module
                        .types()
                        .struct_fields(cur)
                        .ok_or_else(|| ParseError {
                            line: pinst.line,
                            message: "getelementptr into opaque struct".into(),
                        })?;
                    *fields.get(field as usize).ok_or_else(|| ParseError {
                        line: pinst.line,
                        message: format!("field index {field} out of range"),
                    })?
                }
                _ => {
                    return Err(ParseError {
                        line: pinst.line,
                        message: "getelementptr walks into non-aggregate".into(),
                    })
                }
            };
        }
        Ok(self.module.types_mut().pointer_to(cur))
    }

    fn resolve_operand(
        &mut self,
        func_id: FuncId,
        locals: &HashMap<String, ValueId>,
        po: &POperand,
        line: usize,
    ) -> Result<ValueId> {
        // %name: local first, then function reference.
        if let PVal::Local(name) = &po.val {
            if let Some(&v) = locals.get(name) {
                return Ok(v);
            }
            if let Some(f) = self.module.function_by_name(name) {
                let fty = self.module.function(f).type_id();
                let pty = self.module.types_mut().pointer_to(fty);
                return Ok(self
                    .module
                    .function_mut(func_id)
                    .constant(Constant::FunctionAddr { func: f, ty: pty }));
            }
            return Err(ParseError {
                line,
                message: format!("unknown value %{name}"),
            });
        }
        let c = self.resolve_const(po.ty, &po.val).map_err(|mut e| {
            e.line = line;
            e
        })?;
        // Fix up global-address constant types (pointer to value type).
        let c = match c {
            Constant::GlobalAddr { global, .. } => {
                let vt = self.module.global(global).value_type();
                let pt = self.module.types_mut().pointer_to(vt);
                Constant::GlobalAddr { global, ty: pt }
            }
            other => other,
        };
        Ok(self.module.function_mut(func_id).constant(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;
    use crate::verifier::verify_module;

    #[test]
    fn parse_simple_function() {
        let src = r#"
int %add(int %x, int %y) {
entry:
    %s = add int %x, %y
    ret int %s
}
"#;
        let m = parse_module(src).expect("parses");
        let f = m.function_by_name("add").expect("exists");
        assert_eq!(m.function(f).num_insts(), 2);
        verify_module(&m).expect("verifies");
    }

    #[test]
    fn parse_figure_2() {
        // The paper's Figure 2(b), modulo whitespace.
        let src = r#"
%QT = type { double, [4 x %QT*] }

void %Sum3rdChildren(%QT* %T, double* %Result) {
entry:
    %V = alloca double
    %tmp.0 = seteq %QT* %T, null
    br bool %tmp.0, label %endif, label %else
else:
    %tmp.1 = getelementptr %QT* %T, long 0, ubyte 1, long 3
    %Child3 = load %QT** %tmp.1
    call void %Sum3rdChildren(%QT* %Child3, double* %V)
    %tmp.2 = load double* %V
    %tmp.3 = getelementptr %QT* %T, long 0, ubyte 0
    %tmp.4 = load double* %tmp.3
    %Ret.0 = add double %tmp.2, %tmp.4
    br label %endif
endif:
    %Ret.1 = phi double [ %Ret.0, %else ], [ 0.0, %entry ]
    store double %Ret.1, double* %Result
    ret void
}
"#;
        let m = parse_module(src).expect("parses");
        verify_module(&m).expect("verifies");
        let f = m.function_by_name("Sum3rdChildren").expect("exists");
        assert_eq!(m.function(f).num_blocks(), 3);
        assert_eq!(m.function(f).num_insts(), 14);
    }

    #[test]
    fn parse_globals_and_targets() {
        let src = r#"
target pointersize = 32
target endian = little

@counter = global int 0
@msg = internal constant [3 x sbyte] c"hi\00"

int %main() {
entry:
    %v = load int* @counter
    ret int %v
}
"#;
        let m = parse_module(src).expect("parses");
        assert_eq!(m.target().pointer_size, PointerSize::Bits32);
        assert_eq!(m.target().endianness, Endianness::Little);
        assert!(m.global_by_name("counter").is_some());
        let msg = m.global_by_name("msg").expect("msg");
        assert!(m.global(msg).is_const());
        assert_eq!(m.global(msg).linkage(), Linkage::Internal);
        assert!(matches!(m.global(msg).init(), Initializer::Bytes(b) if b == b"hi\0"));
        verify_module(&m).expect("verifies");
    }

    #[test]
    fn round_trip_print_parse_print() {
        let src = r#"
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
"#;
        let m1 = parse_module(src).expect("first parse");
        verify_module(&m1).expect("m1 verifies");
        let text1 = print_module(&m1);
        let m2 = parse_module(&text1).expect("reparse");
        verify_module(&m2).expect("m2 verifies");
        let text2 = print_module(&m2);
        assert_eq!(text1, text2, "printer/parser fixpoint");
    }

    #[test]
    fn parse_mbr_and_attrs() {
        let src = r#"
int %classify(int %x) {
entry:
    %y = div [noexc] int %x, %x
    mbr int %y, label %other, [ int 0, label %zero ], [ int 1, label %one ]
zero:
    ret int 0
one:
    ret int 1
other:
    ret int 2
}
"#;
        let m = parse_module(src).expect("parses");
        verify_module(&m).expect("verifies");
        let f = m.function_by_name("classify").expect("f");
        let func = m.function(f);
        let entry = func.entry_block();
        let div = func.block(entry).insts()[0];
        assert!(!func.inst(div).exceptions_enabled());
        let mbr = func.block(entry).insts()[1];
        assert_eq!(func.inst(mbr).opcode(), Opcode::Mbr);
        assert_eq!(func.inst(mbr).block_operands().len(), 3);
    }

    #[test]
    fn parse_invoke_unwind() {
        let src = r#"
void %risky() {
entry:
    unwind
}

int %caller() {
entry:
    %r = invoke int %risky() to label %ok unwind label %bad
ok:
    ret int 0
bad:
    ret int 1
}
"#;
        // risky returns void but invoke says int — the verifier should flag
        // it; parsing alone should succeed.
        let m = parse_module(src).expect("parses");
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn error_reports_line() {
        let src = "int %f() {\nentry:\n    %x = bogus int 1, 2\n    ret int %x\n}\n";
        let err = parse_module(src).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.message.contains("bogus"));
    }

    #[test]
    fn forward_reference_across_blocks() {
        // `join` uses %v, which is defined in a block that appears later
        // in layout order than the phi-free path would suggest.
        let src = r#"
int %f(bool %c) {
entry:
    br bool %c, label %def, label %def
def:
    %v = add int 1, 2
    br label %join
join:
    ret int %v
}
"#;
        let m = parse_module(src).expect("parses");
        verify_module(&m).expect("verifies");
    }

    #[test]
    fn parse_function_pointer_type_operand() {
        let src = r#"
int %apply(int (int)* %f, int %x) {
entry:
    %r = call int %f(int %x)
    ret int %r
}

int %inc(int %x) {
entry:
    %r = add int %x, 1
    ret int %r
}

int %main() {
entry:
    %r = call int %apply(int (int)* %inc, int 5)
    ret int %r
}
"#;
        let m = parse_module(src).expect("parses");
        verify_module(&m).expect("verifies");
    }

    #[test]
    fn declare_then_call() {
        let src = r#"
declare int %external(int)

int %main() {
entry:
    %r = call int %external(int 1)
    ret int %r
}
"#;
        let m = parse_module(src).expect("parses");
        verify_module(&m).expect("verifies");
        let ext = m.function_by_name("external").expect("decl");
        assert!(m.function(ext).is_declaration());
    }
}
