//! Code-generation helpers shared by all three back ends.

use llva_core::function::Function;
use llva_core::layout::TargetConfig;
use llva_core::module::{Initializer, Module};
use llva_core::types::{TypeId, TypeKind};
use llva_core::value::{Constant, ValueId};
use llva_machine::memory::GLOBAL_BASE;
use llva_machine::x86::FUNC_TAG;

/// The globals laid out in simulated memory: per-global addresses plus
/// the initialized byte image starting at [`GLOBAL_BASE`].
#[derive(Debug, Clone)]
pub struct GlobalImage {
    /// Address of each global, indexed by `GlobalId` index.
    pub addrs: Vec<u64>,
    /// Initialized bytes, to be copied to [`GLOBAL_BASE`].
    pub image: Vec<u8>,
    /// First free address after the globals (heap base).
    pub heap_base: u64,
}

/// Assigns every global its address under `cfg`; returns the addresses
/// and the end of the last global — the address space a load image
/// needs, which a loader can check against a limit before rendering
/// (and allocating) the image itself.
pub fn place_globals(module: &Module, cfg: &TargetConfig) -> (Vec<u64>, u64) {
    let tt = module.types();
    let mut addrs = Vec::with_capacity(module.num_globals());
    let mut cursor = GLOBAL_BASE;
    for (_, g) in module.globals() {
        let align = cfg.align_of(tt, g.value_type()).max(8);
        // saturating: the module may be hostile, and this sum is what
        // the loader's limit check reads
        cursor = cursor.saturating_add(align - 1) & !(align - 1);
        addrs.push(cursor);
        cursor = cursor.saturating_add(cfg.size_of(tt, g.value_type()));
    }
    (addrs, cursor)
}

/// Lays out and renders every global for the module's target.
pub fn layout_globals(module: &Module) -> GlobalImage {
    let cfg = module.target();
    let (addrs, cursor) = place_globals(module, &cfg);
    let image_len = (cursor - GLOBAL_BASE) as usize;
    let mut image = vec![0u8; image_len];
    for (i, (_, g)) in module.globals().enumerate() {
        let off = (addrs[i] - GLOBAL_BASE) as usize;
        render_init(
            module,
            &cfg,
            g.init(),
            g.value_type(),
            &addrs,
            &mut image[off..],
        );
    }
    GlobalImage {
        addrs,
        image,
        heap_base: (cursor + 15) & !15,
    }
}

fn render_init(
    module: &Module,
    cfg: &TargetConfig,
    init: &Initializer,
    ty: TypeId,
    addrs: &[u64],
    out: &mut [u8],
) {
    let tt = module.types();
    match init {
        Initializer::Zero => {}
        Initializer::Bytes(bytes) => {
            let n = bytes.len().min(out.len());
            out[..n].copy_from_slice(&bytes[..n]);
        }
        Initializer::Scalar(c) => {
            let (bits, size) = constant_bits(module, cfg, c, ty, addrs);
            write_scalar(cfg, &mut out[..size as usize], bits);
        }
        Initializer::Array(items) => {
            let TypeKind::Array { elem, .. } = tt.kind(ty).clone() else {
                panic!("array initializer for non-array global");
            };
            let stride = cfg.size_of(tt, elem) as usize;
            for (i, item) in items.iter().enumerate() {
                render_init(module, cfg, item, elem, addrs, &mut out[i * stride..]);
            }
        }
        Initializer::Struct(items) => {
            let fields = tt
                .struct_fields(ty)
                .expect("struct initializer needs a defined struct")
                .to_vec();
            for (i, (item, &fty)) in items.iter().zip(&fields).enumerate() {
                let off = cfg.field_offset(tt, ty, i) as usize;
                render_init(module, cfg, item, fty, addrs, &mut out[off..]);
            }
        }
    }
}

/// The raw bit pattern and byte size of a scalar constant as stored in
/// memory for the given target.
pub fn constant_bits(
    module: &Module,
    cfg: &TargetConfig,
    c: &Constant,
    ty: TypeId,
    global_addrs: &[u64],
) -> (u64, u64) {
    let tt = module.types();
    match c {
        Constant::Bool(b) => (u64::from(*b), 1),
        Constant::Int { bits, .. } => (*bits, cfg.size_of(tt, ty)),
        Constant::Float { bits, .. } => (*bits, cfg.size_of(tt, ty)),
        Constant::Null(_) => (0, cfg.pointer_size.bytes()),
        Constant::GlobalAddr { global, .. } => (
            global_addrs[global.index()],
            cfg.pointer_size.bytes(),
        ),
        Constant::FunctionAddr { func, .. } => (
            FUNC_TAG | func.index() as u64,
            cfg.pointer_size.bytes(),
        ),
        Constant::Undef(_) => (0, cfg.size_of(tt, ty)),
    }
}

fn write_scalar(cfg: &TargetConfig, out: &mut [u8], bits: u64) {
    let n = out.len();
    match cfg.endianness {
        llva_core::layout::Endianness::Little => {
            for (i, b) in out.iter_mut().enumerate() {
                *b = (bits >> (8 * i)) as u8;
            }
        }
        llva_core::layout::Endianness::Big => {
            for (i, b) in out.iter_mut().enumerate() {
                *b = (bits >> (8 * (n - 1 - i))) as u8;
            }
        }
    }
}

/// The canonical 64-bit register representation of a constant: signed
/// integers sign-extended, everything else zero-extended.
///
/// # Panics
///
/// Panics on an address constant, which is materialized symbolically.
pub fn canonical_const(module: &Module, c: &Constant) -> u64 {
    llva_core::eval::const_bits(module.types(), c)
        .expect("address constants are materialized symbolically")
}

/// Memory access width and signedness for loads/stores of `ty`.
pub fn access_of(module: &Module, ty: TypeId) -> (llva_machine::Width, bool) {
    let tt = module.types();
    let cfg = module.target();
    let size = match tt.kind(ty) {
        TypeKind::Bool => 1,
        TypeKind::Pointer(_) => cfg.pointer_size.bytes(),
        _ => cfg.size_of(tt, ty),
    };
    (
        llva_machine::Width::from_bytes(size),
        tt.is_signed_integer(ty),
    )
}

/// Classification of an LLVA scalar type for the code generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValClass {
    /// Integer, boolean, or pointer — lives in GPRs.
    Int,
    /// `float` — 32-bit floating point.
    F32,
    /// `double` — 64-bit floating point.
    F64,
}

/// Classifies `ty`.
pub fn classify(module: &Module, ty: TypeId) -> ValClass {
    match module.types().kind(ty) {
        TypeKind::Float => ValClass::F32,
        TypeKind::Double => ValClass::F64,
        _ => ValClass::Int,
    }
}

/// Whether a direct-call target is an intrinsic, and which.
pub fn intrinsic_target(
    module: &Module,
    func: &Function,
    callee: ValueId,
) -> Option<llva_core::intrinsics::Intrinsic> {
    let Constant::FunctionAddr { func: f, .. } = func.value_as_const(callee)? else {
        return None;
    };
    llva_core::intrinsics::Intrinsic::by_name(module.function(*f).name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use llva_core::layout::{Endianness, TargetConfig};

    #[test]
    fn global_layout_and_image() {
        let mut m = Module::new("m", TargetConfig::ia32());
        let int = m.types_mut().int();
        let arr = m.types_mut().array_of(int, 3);
        m.add_global(
            "a",
            arr,
            Initializer::Array(vec![
                Initializer::Scalar(Constant::Int { ty: int, bits: 1 }),
                Initializer::Scalar(Constant::Int { ty: int, bits: 2 }),
                Initializer::Scalar(Constant::Int {
                    ty: int,
                    bits: 0x0102_0304,
                }),
            ]),
            false,
        );
        m.add_global("b", int, Initializer::Zero, false);
        let img = layout_globals(&m);
        assert_eq!(img.addrs[0], GLOBAL_BASE);
        assert!(img.addrs[1] >= img.addrs[0] + 12);
        // little-endian rendering
        assert_eq!(&img.image[0..4], &[1, 0, 0, 0]);
        assert_eq!(&img.image[8..12], &[4, 3, 2, 1]);
        assert!(img.heap_base > img.addrs[1]);
    }

    #[test]
    fn big_endian_scalars() {
        let mut m = Module::new("m", TargetConfig::sparc_v9());
        let int = m.types_mut().int();
        m.add_global(
            "x",
            int,
            Initializer::Scalar(Constant::Int {
                ty: int,
                bits: 0x0102_0304,
            }),
            false,
        );
        let img = layout_globals(&m);
        assert_eq!(&img.image[0..4], &[1, 2, 3, 4]);
    }

    #[test]
    fn global_addr_in_initializer_resolves() {
        let mut m = Module::new("m", TargetConfig::ia32());
        let int = m.types_mut().int();
        let intp = m.types_mut().pointer_to(int);
        let g0 = m.add_global("target", int, Initializer::Zero, false);
        m.add_global(
            "ptr",
            intp,
            Initializer::Scalar(Constant::GlobalAddr {
                global: g0,
                ty: intp,
            }),
            false,
        );
        let img = layout_globals(&m);
        let off = (img.addrs[1] - GLOBAL_BASE) as usize;
        let stored = u32::from_le_bytes(img.image[off..off + 4].try_into().unwrap());
        assert_eq!(u64::from(stored), img.addrs[0]);
    }

    #[test]
    fn canonical_const_signedness() {
        let mut m = Module::new("m", TargetConfig::default());
        let int = m.types_mut().int();
        let uint = m.types_mut().uint();
        let neg = Constant::Int {
            ty: int,
            bits: 0xFFFF_FFFF,
        };
        assert_eq!(canonical_const(&m, &neg), u64::MAX);
        let big = Constant::Int {
            ty: uint,
            bits: 0xFFFF_FFFF,
        };
        assert_eq!(canonical_const(&m, &big), 0xFFFF_FFFF);
    }

    #[test]
    fn access_width_follows_target_pointer_size() {
        let mut m = Module::new("m", TargetConfig::ia32());
        let int = m.types_mut().int();
        let p = m.types_mut().pointer_to(int);
        assert_eq!(access_of(&m, p).0, llva_machine::Width::B4);
        m.set_target(TargetConfig::sparc_v9());
        assert_eq!(access_of(&m, p).0, llva_machine::Width::B8);
        let _ = Endianness::Little;
    }
}
