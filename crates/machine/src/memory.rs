//! Simulated flat memory with stack / heap / global segments.
//!
//! The paper's memory model (§3.1): "Memory is partitioned into stack,
//! heap, and global memory, and all memory is explicitly allocated."
//! The simulated address space reserves a null guard page, lays globals
//! at the bottom, grows the heap upward, and grows the stack downward
//! from the top. Loads and stores honor the module's declared
//! endianness (§3.2).
//!
//! The *address space* is flat and `size` bytes long; its *backing
//! store* is not. A program touches kilobytes of a 16 MiB space, so the
//! bytes live in two segments that grow toward each other on demand —
//! `low` up from address 0 (null page, globals, heap) and `high` down
//! from `size` (the stack) — and the untouched gap between them reads
//! as zero. Which addresses are *valid* never depends on what is
//! backed: the null page, `size`, and `addr + len` overflow trap
//! exactly as they would over one `size`-byte buffer.

use crate::common::{TrapKind, Width};
use llva_core::layout::Endianness;

/// Base address of the globals segment (everything below traps).
pub const GLOBAL_BASE: u64 = 0x1000;

/// Smallest step a segment's backing grows by.
const MIN_GROW: usize = 4096;

/// Flat byte-addressed memory for one simulated processor.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Backs `[0, low.len())`; never grows past `stack_limit`.
    low: Vec<u8>,
    /// Backs `[high_base, size)`; never grows below `stack_limit`.
    high: Vec<u8>,
    /// `size - high.len()`, kept beside `high` for the access fast path.
    high_base: u64,
    size: u64,
    endianness: Endianness,
    heap_next: u64,
    stack_limit: u64,
}

impl Memory {
    /// Creates a `size`-byte address space; the heap begins at
    /// `heap_base` (normally just past the globals) and the stack
    /// occupies the top eighth of the space. Nothing is backed until it
    /// is written.
    pub fn new(size: u64, heap_base: u64, endianness: Endianness) -> Memory {
        assert!(size >= GLOBAL_BASE * 4, "memory too small");
        assert!(
            size < (1 << 30),
            "memory must stay below the function-tag bit"
        );
        Memory {
            low: Vec::new(),
            high: Vec::new(),
            high_base: size,
            size,
            endianness,
            heap_next: heap_base.max(GLOBAL_BASE),
            stack_limit: size - size / 8,
        }
    }

    /// Total size of the address space in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The configured endianness.
    pub fn endianness(&self) -> Endianness {
        self.endianness
    }

    /// Initial stack pointer (top of memory, 16-byte aligned).
    pub fn initial_sp(&self) -> u64 {
        self.size() & !0xF
    }

    /// Lowest address the stack may grow to.
    pub fn stack_limit(&self) -> u64 {
        self.stack_limit
    }

    /// Bump-allocates `size` bytes on the heap (the translator-provided
    /// heap behind `llva.heap.alloc`). Returns the address.
    ///
    /// # Errors
    ///
    /// Returns [`TrapKind::MemoryFault`] when the heap would collide
    /// with the stack segment.
    pub fn heap_alloc(&mut self, size: u64) -> Result<u64, TrapKind> {
        let addr = (self.heap_next + 7) & !7;
        let end = addr.checked_add(size.max(1)).ok_or(TrapKind::MemoryFault)?;
        if end > self.stack_limit {
            return Err(TrapKind::MemoryFault);
        }
        self.heap_next = end;
        Ok(addr)
    }

    /// Releases a heap block. The bump allocator only reclaims when the
    /// freed block is the most recent allocation; otherwise it is a
    /// no-op (valid for the explicit-allocation model).
    pub fn heap_free(&mut self, _addr: u64) {}

    /// Current heap break (for statistics).
    pub fn heap_used(&self) -> u64 {
        self.heap_next.saturating_sub(GLOBAL_BASE)
    }

    /// Validates `[addr, addr + len)` against the address space and
    /// returns its end.
    fn check(&self, addr: u64, len: u64) -> Result<u64, TrapKind> {
        if addr < GLOBAL_BASE {
            return Err(TrapKind::MemoryFault); // null page
        }
        let end = addr.checked_add(len).ok_or(TrapKind::MemoryFault)?;
        if end > self.size {
            return Err(TrapKind::MemoryFault);
        }
        Ok(end)
    }

    /// The backing of a checked range that lies wholly inside one
    /// segment — every access but the first touch of new ground and the
    /// rare one that straddles the gap.
    #[inline]
    fn backed(&self, addr: u64, end: u64) -> Option<&[u8]> {
        if end <= self.low.len() as u64 {
            Some(&self.low[addr as usize..end as usize])
        } else if addr >= self.high_base {
            let base = self.high_base;
            Some(&self.high[(addr - base) as usize..(end - base) as usize])
        } else {
            None
        }
    }

    #[inline]
    fn backed_mut(&mut self, addr: u64, end: u64) -> Option<&mut [u8]> {
        if end <= self.low.len() as u64 {
            Some(&mut self.low[addr as usize..end as usize])
        } else if addr >= self.high_base {
            let base = self.high_base;
            Some(&mut self.high[(addr - base) as usize..(end - base) as usize])
        } else {
            None
        }
    }

    /// Copies the backed part of a checked range into `out`, which
    /// arrives zeroed — so the unbacked part reads as zero.
    fn copy_out(&self, addr: u64, out: &mut [u8]) {
        let end = addr + out.len() as u64;
        let low_end = end.min(self.low.len() as u64);
        if addr < low_end {
            let n = (low_end - addr) as usize;
            out[..n].copy_from_slice(&self.low[addr as usize..low_end as usize]);
        }
        let high_start = addr.max(self.high_base);
        if high_start < end {
            let base = self.high_base;
            out[(high_start - addr) as usize..]
                .copy_from_slice(&self.high[(high_start - base) as usize..(end - base) as usize]);
        }
    }

    /// Copies `data` into a checked range, backing it first: addresses
    /// below `stack_limit` extend `low`, the rest extend `high`.
    fn copy_in(&mut self, addr: u64, data: &[u8]) {
        let end = addr + data.len() as u64;
        let split = self.stack_limit;
        let below = end.min(split).saturating_sub(addr) as usize;
        if below > 0 {
            self.grow_low(addr as usize + below);
            self.low[addr as usize..addr as usize + below].copy_from_slice(&data[..below]);
        }
        if below < data.len() {
            let start = addr.max(split);
            self.grow_high(start);
            let base = self.high_base;
            self.high[(start - base) as usize..(end - base) as usize]
                .copy_from_slice(&data[below..]);
        }
    }

    /// Zero-extends `low` to cover `[0, end)`, at least doubling it.
    fn grow_low(&mut self, end: usize) {
        let len = self.low.len();
        if end <= len {
            return;
        }
        let target = end
            .max(len * 2)
            .max(MIN_GROW)
            .min(self.stack_limit as usize);
        self.low.reserve_exact(target - len);
        self.low.resize(target, 0);
    }

    /// Zero-extends `high` downward to cover `[start, size)`, at least
    /// doubling it.
    fn grow_high(&mut self, start: u64) {
        if start >= self.high_base {
            return;
        }
        let len = self.high.len();
        let target = ((self.size - start) as usize)
            .max(len * 2)
            .max(MIN_GROW)
            .min((self.size - self.stack_limit) as usize);
        let mut grown = vec![0; target];
        grown[target - len..].copy_from_slice(&self.high);
        self.high = grown;
        self.high_base = self.size - target as u64;
    }

    /// Loads `width` bytes at `addr`, zero-extended to 64 bits.
    ///
    /// # Errors
    ///
    /// Returns [`TrapKind::MemoryFault`] for null-page or out-of-range
    /// accesses.
    #[inline]
    pub fn load(&self, addr: u64, width: Width) -> Result<u64, TrapKind> {
        let end = self.check(addr, width.bytes())?;
        Ok(match self.backed(addr, end) {
            Some(slice) => decode(slice, self.endianness),
            None => self.load_unbacked(addr, width),
        })
    }

    #[cold]
    fn load_unbacked(&self, addr: u64, width: Width) -> u64 {
        let mut bytes = [0u8; 8];
        let slice = &mut bytes[..width.bytes() as usize];
        self.copy_out(addr, slice);
        decode(slice, self.endianness)
    }

    /// Loads with sign extension from `width` to 64 bits.
    ///
    /// # Errors
    ///
    /// Same as [`load`](Memory::load).
    pub fn load_signed(&self, addr: u64, width: Width) -> Result<u64, TrapKind> {
        let v = self.load(addr, width)?;
        Ok(llva_core::eval::sign_extend(v, width.bytes() as u32 * 8) as u64)
    }

    /// Stores the low `width` bytes of `value` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`TrapKind::MemoryFault`] for bad addresses.
    #[inline]
    pub fn store(&mut self, addr: u64, value: u64, width: Width) -> Result<(), TrapKind> {
        let end = self.check(addr, width.bytes())?;
        let endianness = self.endianness;
        match self.backed_mut(addr, end) {
            Some(slice) => encode(value, slice, endianness),
            None => self.store_unbacked(addr, value, width),
        }
        Ok(())
    }

    #[cold]
    fn store_unbacked(&mut self, addr: u64, value: u64, width: Width) {
        let mut bytes = [0u8; 8];
        let slice = &mut bytes[..width.bytes() as usize];
        encode(value, slice, self.endianness);
        self.copy_in(addr, slice);
    }

    /// Copies raw bytes into memory (used by the loader to materialize
    /// global initializers).
    ///
    /// # Errors
    ///
    /// Returns [`TrapKind::MemoryFault`] for bad ranges.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), TrapKind> {
        self.check(addr, data.len() as u64)?;
        self.copy_in(addr, data);
        Ok(())
    }

    /// Reads raw bytes (used by intrinsics that take string arguments).
    /// Owned, because a range may span both segments and the gap.
    ///
    /// # Errors
    ///
    /// Returns [`TrapKind::MemoryFault`] for bad ranges.
    pub fn read_bytes(&self, addr: u64, len: u64) -> Result<Vec<u8>, TrapKind> {
        self.check(addr, len)?;
        let mut out = vec![0; len as usize];
        self.copy_out(addr, &mut out);
        Ok(out)
    }

    /// Reads a NUL-terminated string starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`TrapKind::MemoryFault`] if no terminator is found in
    /// mapped memory.
    pub fn read_cstr(&self, addr: u64) -> Result<Vec<u8>, TrapKind> {
        let mut out = Vec::new();
        let mut a = addr;
        loop {
            let b = self.load(a, Width::B1)? as u8;
            if b == 0 {
                return Ok(out);
            }
            out.push(b);
            a += 1;
            if out.len() > 1 << 20 {
                return Err(TrapKind::MemoryFault);
            }
        }
    }
}

/// Reads a 1-, 2-, 4- or 8-byte integer, zero-extended.
#[inline]
fn decode(bytes: &[u8], endianness: Endianness) -> u64 {
    macro_rules! int {
        ($t:ty) => {{
            let raw = bytes.try_into().expect("length matched");
            u64::from(match endianness {
                Endianness::Little => <$t>::from_le_bytes(raw),
                Endianness::Big => <$t>::from_be_bytes(raw),
            })
        }};
    }
    match bytes.len() {
        1 => u64::from(bytes[0]),
        2 => int!(u16),
        4 => int!(u32),
        8 => int!(u64),
        n => unreachable!("access width {n}"),
    }
}

/// Writes the low `out.len()` (1, 2, 4 or 8) bytes of `value`.
#[inline]
fn encode(value: u64, out: &mut [u8], endianness: Endianness) {
    macro_rules! int {
        ($t:ty) => {{
            let v = value as $t;
            out.copy_from_slice(&match endianness {
                Endianness::Little => v.to_le_bytes(),
                Endianness::Big => v.to_be_bytes(),
            })
        }};
    }
    match out.len() {
        1 => out[0] = value as u8,
        2 => int!(u16),
        4 => int!(u32),
        8 => int!(u64),
        n => unreachable!("access width {n}"),
    }
}

/// The one-buffer implementation this module replaced, kept as the
/// oracle for `tests::differential_storm_matches_the_flat_model`: every
/// byte of the address space is backed from construction, so it is
/// trivially right about what is valid and what reads as zero.
#[cfg(test)]
mod flat {
    use super::{Endianness, TrapKind, Width, GLOBAL_BASE};

    pub struct FlatMemory {
        bytes: Vec<u8>,
        endianness: Endianness,
        heap_next: u64,
        stack_limit: u64,
    }

    impl FlatMemory {
        pub fn new(size: u64, heap_base: u64, endianness: Endianness) -> FlatMemory {
            FlatMemory {
                bytes: vec![0; size as usize],
                endianness,
                heap_next: heap_base.max(GLOBAL_BASE),
                stack_limit: size - size / 8,
            }
        }

        pub fn heap_alloc(&mut self, size: u64) -> Result<u64, TrapKind> {
            let addr = (self.heap_next + 7) & !7;
            let end = addr.checked_add(size.max(1)).ok_or(TrapKind::MemoryFault)?;
            if end > self.stack_limit {
                return Err(TrapKind::MemoryFault);
            }
            self.heap_next = end;
            Ok(addr)
        }

        fn check(&self, addr: u64, len: u64) -> Result<usize, TrapKind> {
            if addr < GLOBAL_BASE {
                return Err(TrapKind::MemoryFault); // null page
            }
            let end = addr.checked_add(len).ok_or(TrapKind::MemoryFault)?;
            if end > self.bytes.len() as u64 {
                return Err(TrapKind::MemoryFault);
            }
            Ok(addr as usize)
        }

        pub fn load(&self, addr: u64, width: Width) -> Result<u64, TrapKind> {
            let base = self.check(addr, width.bytes())?;
            let n = width.bytes() as usize;
            let slice = &self.bytes[base..base + n];
            let mut v = 0u64;
            match self.endianness {
                Endianness::Little => {
                    for (i, &b) in slice.iter().enumerate() {
                        v |= u64::from(b) << (8 * i);
                    }
                }
                Endianness::Big => {
                    for &b in slice {
                        v = (v << 8) | u64::from(b);
                    }
                }
            }
            Ok(v)
        }

        pub fn store(&mut self, addr: u64, value: u64, width: Width) -> Result<(), TrapKind> {
            let base = self.check(addr, width.bytes())?;
            let n = width.bytes() as usize;
            match self.endianness {
                Endianness::Little => {
                    for i in 0..n {
                        self.bytes[base + i] = (value >> (8 * i)) as u8;
                    }
                }
                Endianness::Big => {
                    for i in 0..n {
                        self.bytes[base + i] = (value >> (8 * (n - 1 - i))) as u8;
                    }
                }
            }
            Ok(())
        }

        pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), TrapKind> {
            let base = self.check(addr, data.len() as u64)?;
            self.bytes[base..base + data.len()].copy_from_slice(data);
            Ok(())
        }

        pub fn read_bytes(&self, addr: u64, len: u64) -> Result<&[u8], TrapKind> {
            let base = self.check(addr, len)?;
            Ok(&self.bytes[base..base + len as usize])
        }

        pub fn read_cstr(&self, addr: u64) -> Result<Vec<u8>, TrapKind> {
            let mut out = Vec::new();
            let mut a = addr;
            loop {
                let b = self.load(a, Width::B1)? as u8;
                if b == 0 {
                    return Ok(out);
                }
                out.push(b);
                a += 1;
                if out.len() > 1 << 20 {
                    return Err(TrapKind::MemoryFault);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(endian: Endianness) -> Memory {
        Memory::new(1 << 20, GLOBAL_BASE + 0x1000, endian)
    }

    #[test]
    fn little_endian_round_trip() {
        let mut m = mem(Endianness::Little);
        m.store(0x2000, 0x1122334455667788, Width::B8).unwrap();
        assert_eq!(m.load(0x2000, Width::B8).unwrap(), 0x1122334455667788);
        assert_eq!(m.load(0x2000, Width::B1).unwrap(), 0x88);
        assert_eq!(m.load(0x2000, Width::B4).unwrap(), 0x55667788);
    }

    #[test]
    fn big_endian_round_trip() {
        let mut m = mem(Endianness::Big);
        m.store(0x2000, 0x1122334455667788, Width::B8).unwrap();
        assert_eq!(m.load(0x2000, Width::B8).unwrap(), 0x1122334455667788);
        assert_eq!(m.load(0x2000, Width::B1).unwrap(), 0x11);
        assert_eq!(m.load(0x2007, Width::B1).unwrap(), 0x88);
    }

    #[test]
    fn null_page_traps() {
        let m = mem(Endianness::Little);
        assert_eq!(m.load(0, Width::B4), Err(TrapKind::MemoryFault));
        assert_eq!(m.load(0xFFF, Width::B1), Err(TrapKind::MemoryFault));
        assert!(m.load(0x1000, Width::B1).is_ok());
    }

    #[test]
    fn out_of_range_traps() {
        let mut m = mem(Endianness::Little);
        let top = m.size();
        assert_eq!(m.load(top, Width::B1), Err(TrapKind::MemoryFault));
        assert_eq!(m.store(top - 4, 0, Width::B8), Err(TrapKind::MemoryFault));
        assert!(m.store(top - 8, 0, Width::B8).is_ok());
    }

    #[test]
    fn signed_loads_extend() {
        let mut m = mem(Endianness::Little);
        m.store(0x2000, 0xFF, Width::B1).unwrap();
        assert_eq!(m.load(0x2000, Width::B1).unwrap(), 0xFF);
        assert_eq!(m.load_signed(0x2000, Width::B1).unwrap() as i64, -1);
    }

    #[test]
    fn heap_alloc_bumps_and_bounds() {
        let mut m = mem(Endianness::Little);
        let a = m.heap_alloc(100).unwrap();
        let b = m.heap_alloc(100).unwrap();
        assert!(b >= a + 100);
        assert_eq!(a % 8, 0);
        assert!(m.heap_alloc(1 << 30).is_err(), "cannot collide with stack");
    }

    #[test]
    fn cstr_reading() {
        let mut m = mem(Endianness::Little);
        m.write_bytes(0x3000, b"hello\0").unwrap();
        assert_eq!(m.read_cstr(0x3000).unwrap(), b"hello");
    }

    /// xorshift64*: the storm's only source of randomness.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    const WIDTHS: [Width; 4] = [Width::B1, Width::B2, Width::B4, Width::B8];

    /// Addresses where the two-segment backing could go wrong: both ends
    /// of the address space, the null page, the heap/stack split, the
    /// current edges of each segment (so accesses straddle a segment
    /// edge or the gap), the middle of the gap, and anywhere at all.
    fn storm_addr(rng: &mut Rng, m: &Memory) -> u64 {
        let near = |rng: &mut Rng, a: u64| a.wrapping_add(rng.below(33)).wrapping_sub(16);
        match rng.below(10) {
            0 => near(rng, GLOBAL_BASE),
            1 => near(rng, m.size()),
            2 => near(rng, m.stack_limit()),
            3 => near(rng, m.low.len() as u64),
            4 => near(rng, m.high_base),
            5 => m.size() / 2 + rng.below(4096),
            6 => u64::MAX - rng.below(16),
            7 => GLOBAL_BASE + rng.below(1 << 14),
            8 => m.size() - rng.below(1 << 14),
            _ => rng.below(m.size() + 64),
        }
    }

    #[test]
    fn differential_storm_matches_the_flat_model() {
        const SIZE: u64 = 1 << 20;
        for (seed, endianness) in [(1, Endianness::Little), (2, Endianness::Big)] {
            let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ seed);
            let mut m = Memory::new(SIZE, 0x2000, endianness);
            let mut flat = flat::FlatMemory::new(SIZE, 0x2000, endianness);
            for step in 0..200_000 {
                let addr = storm_addr(&mut rng, &m);
                let width = WIDTHS[rng.below(4) as usize];
                let what = format!("seed {seed} step {step} addr {addr:#x}");
                match rng.below(8) {
                    0..=2 => assert_eq!(m.load(addr, width), flat.load(addr, width), "{what}"),
                    3..=4 => {
                        let v = rng.next();
                        assert_eq!(
                            m.store(addr, v, width),
                            flat.store(addr, v, width),
                            "{what}"
                        );
                    }
                    5 => {
                        let bound = if rng.below(50) == 0 { 70_000 } else { 40 };
                        let len = rng.below(bound);
                        let data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
                        assert_eq!(
                            m.write_bytes(addr, &data),
                            flat.write_bytes(addr, &data),
                            "{what}"
                        );
                    }
                    6 => {
                        let len = match rng.below(50) {
                            0 => SIZE, // spans low, gap and high at once
                            1 => u64::MAX - rng.below(8),
                            _ => rng.below(300),
                        };
                        assert_eq!(
                            m.read_bytes(addr, len),
                            flat.read_bytes(addr, len).map(<[u8]>::to_vec),
                            "{what}"
                        );
                        assert_eq!(m.read_cstr(addr), flat.read_cstr(addr), "{what}");
                    }
                    _ => {
                        // mostly small blocks; now and then one that
                        // cannot fit, so the collision trap is compared
                        let size = if rng.below(16) == 0 {
                            rng.next()
                        } else {
                            rng.below(64)
                        };
                        assert_eq!(m.heap_alloc(size), flat.heap_alloc(size), "{what}");
                    }
                }
                assert!(
                    (m.low.capacity() + m.high.capacity()) as u64 <= SIZE,
                    "{what}: backing outgrew the address space"
                );
            }
            // and byte for byte at the end, gap included
            assert_eq!(
                m.read_bytes(GLOBAL_BASE, SIZE - GLOBAL_BASE).unwrap(),
                flat.read_bytes(GLOBAL_BASE, SIZE - GLOBAL_BASE).unwrap(),
                "seed {seed}: final images differ"
            );
        }
    }

    #[test]
    fn untouched_space_costs_nothing_and_a_wild_store_is_kept() {
        let mut m = Memory::new(1 << 24, 0x2000, Endianness::Little);
        assert_eq!(
            m.low.capacity() + m.high.capacity(),
            0,
            "fresh memory is unbacked"
        );
        assert_eq!(
            m.load((1 << 23) + 5, Width::B8),
            Ok(0),
            "the gap reads as zero"
        );
        assert_eq!(
            m.low.capacity() + m.high.capacity(),
            0,
            "loads never back anything"
        );
        m.store(m.initial_sp() - 8, 7, Width::B8).unwrap();
        m.store(0x2000, 9, Width::B4).unwrap();
        assert!(
            m.low.len() + m.high.len() <= 4 * MIN_GROW,
            "a small program stays small"
        );
        // a wild store in the middle of the space lands and reads back
        m.store(1 << 23, 0xDEAD_BEEF, Width::B4).unwrap();
        assert_eq!(m.load(1 << 23, Width::B4), Ok(0xDEAD_BEEF));
        assert_eq!(m.load(0x2000, Width::B4), Ok(9));
        assert_eq!(m.load(m.initial_sp() - 8, Width::B8), Ok(7));
        // an access across the heap/stack split is backed by both segments
        let split = m.stack_limit();
        m.store(split - 3, 0x0102_0304_0506_0708, Width::B8)
            .unwrap();
        assert_eq!(m.load(split - 3, Width::B8), Ok(0x0102_0304_0506_0708));
        assert_eq!(m.load(split, Width::B1), Ok(0x05));
        assert!((m.low.capacity() + m.high.capacity()) as u64 <= m.size());
    }
}
