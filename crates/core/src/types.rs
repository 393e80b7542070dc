//! The LLVA type system (paper §3.1, "LLVA Type System").
//!
//! The type system is deliberately small: primitive scalar types with
//! predefined sizes (`bool`, `ubyte`, …, `double`) and exactly four derived
//! types — pointer, array, structure, and function. All types are interned
//! in a [`TypeTable`] and referred to by copyable [`TypeId`] handles.
//!
//! Structure types come in two flavors:
//!
//! * *literal* structs (`{ int, float }`) which are interned structurally,
//! * *identified* structs (`%struct.QuadTree = type { double, [4 x %QT*] }`)
//!   which are registered by name and may be recursive: the body can be set
//!   after the identifier is created, allowing `%QT*` fields inside `%QT`.
//!
//! # Examples
//!
//! ```
//! use llva_core::types::{TypeTable, TypeKind};
//!
//! let mut tt = TypeTable::new();
//! let int = tt.int();
//! let ptr = tt.pointer_to(int);
//! assert_eq!(tt.pointer_to(int), ptr); // interned
//! assert!(matches!(tt.kind(ptr), TypeKind::Pointer(p) if *p == int));
//! ```

use std::collections::HashMap;
use std::fmt;

/// A handle to an interned type inside a [`TypeTable`].
///
/// `TypeId`s are only meaningful with respect to the table that created
/// them; mixing handles between tables is a logic error (caught by
/// debug assertions in most table methods).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(u32);

impl TypeId {
    /// Returns the raw index of this type in its table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a `TypeId` from a raw index (used by the bytecode reader).
    pub fn from_index(index: usize) -> TypeId {
        TypeId(u32::try_from(index).expect("type index overflow"))
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ty{}", self.0)
    }
}

/// A handle to an identified (named, possibly recursive) struct definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StructId(u32);

impl StructId {
    /// Returns the raw index of this struct definition.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a `StructId` from a raw index.
    pub fn from_index(index: usize) -> StructId {
        StructId(u32::try_from(index).expect("struct index overflow"))
    }
}

/// The shape of an LLVA type.
///
/// Primitives carry no payload; the four derived types reference other
/// interned types. See the paper, Table in §3.1.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TypeKind {
    /// The absence of a value (function return only).
    Void,
    /// A 1-bit boolean, result of the `set*` comparison family.
    Bool,
    /// Unsigned 8-bit integer.
    UByte,
    /// Signed 8-bit integer.
    SByte,
    /// Unsigned 16-bit integer.
    UShort,
    /// Signed 16-bit integer.
    Short,
    /// Unsigned 32-bit integer.
    UInt,
    /// Signed 32-bit integer.
    Int,
    /// Unsigned 64-bit integer.
    ULong,
    /// Signed 64-bit integer.
    Long,
    /// IEEE-754 single precision.
    Float,
    /// IEEE-754 double precision.
    Double,
    /// A basic-block label (only valid as a control-flow operand).
    Label,
    /// A typed pointer to another type.
    Pointer(TypeId),
    /// A fixed-length homogeneous array.
    Array {
        /// Element type.
        elem: TypeId,
        /// Number of elements.
        len: u64,
    },
    /// A literal (anonymous, structural) struct.
    LiteralStruct(Vec<TypeId>),
    /// An identified struct; its body lives in the [`TypeTable`].
    Struct(StructId),
    /// A function signature.
    Function {
        /// Return type.
        ret: TypeId,
        /// Parameter types.
        params: Vec<TypeId>,
        /// Whether the function takes additional variadic arguments.
        varargs: bool,
    },
}

/// An identified struct definition: a name and an optional body.
///
/// A body of `None` means the struct is *opaque* — declared but not yet
/// defined, which is how recursive types are constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    name: String,
    body: Option<Vec<TypeId>>,
}

impl StructDef {
    /// The name of the struct (without the leading `%`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The field types, or `None` while the struct is opaque.
    pub fn body(&self) -> Option<&[TypeId]> {
        self.body.as_deref()
    }
}

/// An interning table for LLVA types.
///
/// Every [`Module`](crate::module::Module) owns one. Interning means
/// structural equality of types reduces to `TypeId` equality.
#[derive(Debug, Clone, Default)]
pub struct TypeTable {
    kinds: Vec<TypeKind>,
    interned: HashMap<TypeKind, TypeId>,
    structs: Vec<StructDef>,
    struct_names: HashMap<String, StructId>,
}

impl TypeTable {
    /// Creates an empty table. Primitive types are interned on first use.
    pub fn new() -> TypeTable {
        TypeTable::default()
    }

    /// Interns `kind` and returns its handle.
    pub fn intern(&mut self, kind: TypeKind) -> TypeId {
        if let Some(&id) = self.interned.get(&kind) {
            return id;
        }
        let id = TypeId(u32::try_from(self.kinds.len()).expect("too many types"));
        self.kinds.push(kind.clone());
        self.interned.insert(kind, id);
        id
    }

    /// The handle of `kind` if it is already interned (a hash lookup,
    /// unlike [`intern`](TypeTable::intern) it never adds a type).
    pub fn lookup(&self, kind: &TypeKind) -> Option<TypeId> {
        self.interned.get(kind).copied()
    }

    /// The `bool` handle for [`Function::value_type`], which needs one
    /// for `bool` constants: the interned `bool`, or, when the table has
    /// none, a sentinel no type in the table equals.
    ///
    /// [`Function::value_type`]: crate::function::Function::value_type
    pub fn bool_or_sentinel(&self) -> TypeId {
        self.lookup(&TypeKind::Bool)
            .unwrap_or_else(|| TypeId::from_index((u32::MAX - 1) as usize))
    }

    /// Returns the kind of a previously interned type.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this table.
    pub fn kind(&self, id: TypeId) -> &TypeKind {
        &self.kinds[id.index()]
    }

    /// Number of distinct types interned so far.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the table has no types yet.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Iterates over `(id, kind)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (TypeId, &TypeKind)> {
        self.kinds
            .iter()
            .enumerate()
            .map(|(i, k)| (TypeId(i as u32), k))
    }

    // ---- primitive shorthands -------------------------------------------

    /// The `void` type.
    pub fn void(&mut self) -> TypeId {
        self.intern(TypeKind::Void)
    }
    /// The `bool` type.
    pub fn bool(&mut self) -> TypeId {
        self.intern(TypeKind::Bool)
    }
    /// The `ubyte` type.
    pub fn ubyte(&mut self) -> TypeId {
        self.intern(TypeKind::UByte)
    }
    /// The `sbyte` type.
    pub fn sbyte(&mut self) -> TypeId {
        self.intern(TypeKind::SByte)
    }
    /// The `ushort` type.
    pub fn ushort(&mut self) -> TypeId {
        self.intern(TypeKind::UShort)
    }
    /// The `short` type.
    pub fn short(&mut self) -> TypeId {
        self.intern(TypeKind::Short)
    }
    /// The `uint` type.
    pub fn uint(&mut self) -> TypeId {
        self.intern(TypeKind::UInt)
    }
    /// The `int` type.
    pub fn int(&mut self) -> TypeId {
        self.intern(TypeKind::Int)
    }
    /// The `ulong` type.
    pub fn ulong(&mut self) -> TypeId {
        self.intern(TypeKind::ULong)
    }
    /// The `long` type.
    pub fn long(&mut self) -> TypeId {
        self.intern(TypeKind::Long)
    }
    /// The `float` type.
    pub fn float(&mut self) -> TypeId {
        self.intern(TypeKind::Float)
    }
    /// The `double` type.
    pub fn double(&mut self) -> TypeId {
        self.intern(TypeKind::Double)
    }
    /// The `label` type.
    pub fn label(&mut self) -> TypeId {
        self.intern(TypeKind::Label)
    }

    // ---- derived type constructors --------------------------------------

    /// Interns a pointer to `pointee`.
    pub fn pointer_to(&mut self, pointee: TypeId) -> TypeId {
        self.intern(TypeKind::Pointer(pointee))
    }

    /// Interns `[len x elem]`.
    pub fn array_of(&mut self, elem: TypeId, len: u64) -> TypeId {
        self.intern(TypeKind::Array { elem, len })
    }

    /// Interns a literal struct `{ fields... }`.
    pub fn literal_struct(&mut self, fields: Vec<TypeId>) -> TypeId {
        self.intern(TypeKind::LiteralStruct(fields))
    }

    /// Interns a function type `ret (params...)`.
    pub fn function(&mut self, ret: TypeId, params: Vec<TypeId>, varargs: bool) -> TypeId {
        self.intern(TypeKind::Function {
            ret,
            params,
            varargs,
        })
    }

    // ---- identified structs ---------------------------------------------

    /// Declares (or retrieves) an identified struct named `name`, initially
    /// opaque, and returns its type handle. Call
    /// [`set_struct_body`](TypeTable::set_struct_body) to define it.
    pub fn named_struct(&mut self, name: &str) -> TypeId {
        if let Some(&sid) = self.struct_names.get(name) {
            return self.intern(TypeKind::Struct(sid));
        }
        let sid = StructId(u32::try_from(self.structs.len()).expect("too many structs"));
        self.structs.push(StructDef {
            name: name.to_string(),
            body: None,
        });
        self.struct_names.insert(name.to_string(), sid);
        self.intern(TypeKind::Struct(sid))
    }

    /// Defines the body of the identified struct named `name`.
    ///
    /// Overwrites any previous body; returns the struct's type handle.
    pub fn set_struct_body(&mut self, name: &str, fields: Vec<TypeId>) -> TypeId {
        let ty = self.named_struct(name);
        let TypeKind::Struct(sid) = *self.kind(ty) else {
            unreachable!("named_struct returns Struct kinds")
        };
        self.structs[sid.index()].body = Some(fields);
        ty
    }

    /// Looks up an identified struct by name.
    pub fn struct_by_name(&self, name: &str) -> Option<StructId> {
        self.struct_names.get(name).copied()
    }

    /// The definition of an identified struct.
    pub fn struct_def(&self, id: StructId) -> &StructDef {
        &self.structs[id.index()]
    }

    /// Iterates over all identified struct definitions.
    pub fn struct_defs(&self) -> impl Iterator<Item = (StructId, &StructDef)> {
        self.structs
            .iter()
            .enumerate()
            .map(|(i, d)| (StructId(i as u32), d))
    }

    /// The field list of any struct-like type (literal or identified).
    ///
    /// Returns `None` for non-struct types and opaque structs.
    pub fn struct_fields(&self, ty: TypeId) -> Option<&[TypeId]> {
        match self.kind(ty) {
            TypeKind::LiteralStruct(fields) => Some(fields),
            TypeKind::Struct(sid) => self.struct_def(*sid).body(),
            _ => None,
        }
    }

    // ---- classification helpers ------------------------------------------

    /// Whether `ty` is one of the eight integer types.
    pub fn is_integer(&self, ty: TypeId) -> bool {
        matches!(
            self.kind(ty),
            TypeKind::UByte
                | TypeKind::SByte
                | TypeKind::UShort
                | TypeKind::Short
                | TypeKind::UInt
                | TypeKind::Int
                | TypeKind::ULong
                | TypeKind::Long
        )
    }

    /// Whether `ty` is a signed integer type.
    pub fn is_signed_integer(&self, ty: TypeId) -> bool {
        matches!(
            self.kind(ty),
            TypeKind::SByte | TypeKind::Short | TypeKind::Int | TypeKind::Long
        )
    }

    /// Whether `ty` is `float` or `double`.
    pub fn is_float(&self, ty: TypeId) -> bool {
        matches!(self.kind(ty), TypeKind::Float | TypeKind::Double)
    }

    /// Whether `ty` is a pointer.
    pub fn is_pointer(&self, ty: TypeId) -> bool {
        matches!(self.kind(ty), TypeKind::Pointer(_))
    }

    /// Whether `ty` may live in a virtual register: bool, integer,
    /// floating point, or pointer (paper §3.1: "Registers can only hold
    /// scalar values").
    pub fn is_scalar(&self, ty: TypeId) -> bool {
        matches!(self.kind(ty), TypeKind::Bool | TypeKind::Pointer(_))
            || self.is_integer(ty)
            || self.is_float(ty)
    }

    /// Whether `ty` is an aggregate (array or struct).
    pub fn is_aggregate(&self, ty: TypeId) -> bool {
        matches!(
            self.kind(ty),
            TypeKind::Array { .. } | TypeKind::LiteralStruct(_) | TypeKind::Struct(_)
        )
    }

    /// Whether values of `ty` can be stored in memory (anything sized).
    pub fn is_first_class(&self, ty: TypeId) -> bool {
        self.is_scalar(ty)
    }

    /// The pointee of a pointer type.
    pub fn pointee(&self, ty: TypeId) -> Option<TypeId> {
        match self.kind(ty) {
            TypeKind::Pointer(p) => Some(*p),
            _ => None,
        }
    }

    /// The bit width of a scalar integer/bool type, if any.
    pub fn int_bits(&self, ty: TypeId) -> Option<u32> {
        Some(match self.kind(ty) {
            TypeKind::Bool => 1,
            TypeKind::UByte | TypeKind::SByte => 8,
            TypeKind::UShort | TypeKind::Short => 16,
            TypeKind::UInt | TypeKind::Int => 32,
            TypeKind::ULong | TypeKind::Long => 64,
            _ => return None,
        })
    }

    /// A short human-readable rendering of `ty` (`int`, `%QT*`,
    /// `[4 x double]`, `{ int, float }`, `void (int)`).
    pub fn display(&self, ty: TypeId) -> String {
        match self.kind(ty) {
            TypeKind::Void => "void".into(),
            TypeKind::Bool => "bool".into(),
            TypeKind::UByte => "ubyte".into(),
            TypeKind::SByte => "sbyte".into(),
            TypeKind::UShort => "ushort".into(),
            TypeKind::Short => "short".into(),
            TypeKind::UInt => "uint".into(),
            TypeKind::Int => "int".into(),
            TypeKind::ULong => "ulong".into(),
            TypeKind::Long => "long".into(),
            TypeKind::Float => "float".into(),
            TypeKind::Double => "double".into(),
            TypeKind::Label => "label".into(),
            TypeKind::Pointer(p) => format!("{}*", self.display(*p)),
            TypeKind::Array { elem, len } => format!("[{} x {}]", len, self.display(*elem)),
            TypeKind::LiteralStruct(fields) => {
                let inner: Vec<String> = fields.iter().map(|f| self.display(*f)).collect();
                format!("{{ {} }}", inner.join(", "))
            }
            TypeKind::Struct(sid) => format!("%{}", self.struct_def(*sid).name()),
            TypeKind::Function {
                ret,
                params,
                varargs,
            } => {
                let mut inner: Vec<String> = params.iter().map(|p| self.display(*p)).collect();
                if *varargs {
                    inner.push("...".into());
                }
                format!("{} ({})", self.display(*ret), inner.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_are_interned_once() {
        let mut tt = TypeTable::new();
        assert_eq!(tt.int(), tt.int());
        assert_ne!(tt.int(), tt.uint());
        assert_ne!(tt.float(), tt.double());
    }

    #[test]
    fn lookup_never_interns() {
        let mut tt = TypeTable::new();
        let int = tt.int();
        assert_eq!(tt.lookup(&TypeKind::Int), Some(int));
        assert_eq!(tt.lookup(&TypeKind::Bool), None);
        let sentinel = tt.bool_or_sentinel();
        assert!(tt.iter().all(|(id, _)| id != sentinel));
        assert_eq!(tt.len(), 1);
        let b = tt.bool();
        assert_eq!(tt.bool_or_sentinel(), b);
    }

    #[test]
    fn derived_types_intern_structurally() {
        let mut tt = TypeTable::new();
        let int = tt.int();
        let p1 = tt.pointer_to(int);
        let p2 = tt.pointer_to(int);
        assert_eq!(p1, p2);
        let a1 = tt.array_of(int, 4);
        let a2 = tt.array_of(int, 4);
        let a3 = tt.array_of(int, 5);
        assert_eq!(a1, a2);
        assert_ne!(a1, a3);
        let f = tt.float();
        let s1 = tt.literal_struct(vec![int, f]);
        let s2 = tt.literal_struct(vec![int, f]);
        assert_eq!(s1, s2);
    }

    #[test]
    fn recursive_named_struct() {
        // %QT = { double, [4 x %QT*] }  (Figure 2 of the paper)
        let mut tt = TypeTable::new();
        let qt = tt.named_struct("struct.QuadTree");
        let qt_ptr = tt.pointer_to(qt);
        let children = tt.array_of(qt_ptr, 4);
        let dbl = tt.double();
        let qt2 = tt.set_struct_body("struct.QuadTree", vec![dbl, children]);
        assert_eq!(qt, qt2);
        let fields = tt.struct_fields(qt).expect("defined body");
        assert_eq!(fields, &[dbl, children]);
        assert_eq!(tt.display(qt), "%struct.QuadTree");
        assert_eq!(tt.display(children), "[4 x %struct.QuadTree*]");
    }

    #[test]
    fn opaque_struct_has_no_fields() {
        let mut tt = TypeTable::new();
        let op = tt.named_struct("opaque");
        assert!(tt.struct_fields(op).is_none());
    }

    #[test]
    fn classification() {
        let mut tt = TypeTable::new();
        let int = tt.int();
        let ulong = tt.ulong();
        let dbl = tt.double();
        let b = tt.bool();
        let v = tt.void();
        let p = tt.pointer_to(int);
        let arr = tt.array_of(int, 3);
        assert!(tt.is_integer(int));
        assert!(tt.is_signed_integer(int));
        assert!(!tt.is_signed_integer(ulong));
        assert!(tt.is_float(dbl));
        assert!(tt.is_scalar(b));
        assert!(tt.is_scalar(p));
        assert!(!tt.is_scalar(v));
        assert!(!tt.is_scalar(arr));
        assert!(tt.is_aggregate(arr));
        assert_eq!(tt.int_bits(b), Some(1));
        assert_eq!(tt.int_bits(ulong), Some(64));
        assert_eq!(tt.int_bits(dbl), None);
        assert_eq!(tt.pointee(p), Some(int));
        assert_eq!(tt.pointee(int), None);
    }

    #[test]
    fn display_function_type() {
        let mut tt = TypeTable::new();
        let int = tt.int();
        let v = tt.void();
        let f = tt.function(v, vec![int, int], false);
        assert_eq!(tt.display(f), "void (int, int)");
        let g = tt.function(int, vec![int], true);
        assert_eq!(tt.display(g), "int (int, ...)");
    }
}
