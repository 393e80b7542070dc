//! The frame around every cached translation.
//!
//! LLEE writes translated functions to offline storage and reloads them
//! on later runs (§4.1). The payload is the native code in the format
//! [`llva_machine::codec`] derives from each ISA's description; this
//! module wraps it for storage.
//!
//! Storage is OS-provided and untrusted (§4.1: the system must "operate
//! correctly in their absence" — and, we add, in their *failure*). Every
//! cache entry is therefore wrapped in a self-describing frame that LLEE
//! validates before a single payload byte reaches the instruction
//! decoder: magic, format version, payload length (detects torn writes
//! and truncated reads), and an FNV-1a checksum chained over the storage
//! key and the payload (detects bit rot and entries copied under the
//! wrong key).

use llva_machine::codec::{CodecError, Result};

/// First bytes of every framed cache entry ("LLva Cache Entry").
pub const FRAME_MAGIC: &[u8; 4] = b"LLCE";
/// Version of the cache-entry frame format.
pub const FRAME_VERSION: u8 = 1;
/// Frame header size: magic + version + payload length + checksum.
pub const FRAME_HEADER_LEN: usize = 4 + 1 + 4 + 8;

/// FNV-1a offset basis (shared with LLEE's content stamps).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Chains `bytes` onto an FNV-1a hash state `h`.
pub(crate) fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn frame_checksum(key: &str, payload: &[u8]) -> u64 {
    fnv1a(payload, fnv1a(key.as_bytes(), FNV_OFFSET))
}

/// Wraps an encoded translation in the self-describing cache-entry
/// frame under which it will be stored as `key`.
pub fn frame_entry(key: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(FRAME_MAGIC);
    out.push(FRAME_VERSION);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame_checksum(key, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a framed cache entry read back under `key` and returns its
/// payload.
///
/// # Errors
///
/// Returns [`CodecError`] on any mismatch — wrong magic or version,
/// torn/truncated payload, checksum failure, or an entry that was
/// written under a different key.
pub fn unframe_entry<'a>(key: &str, blob: &'a [u8]) -> Result<&'a [u8]> {
    if blob.len() < FRAME_HEADER_LEN {
        return Err(CodecError(format!(
            "framed entry truncated: {} bytes < {FRAME_HEADER_LEN}-byte header",
            blob.len()
        )));
    }
    if &blob[..4] != FRAME_MAGIC {
        return Err(CodecError("bad cache-entry magic".into()));
    }
    if blob[4] != FRAME_VERSION {
        return Err(CodecError(format!(
            "unsupported cache-entry version {}",
            blob[4]
        )));
    }
    let len = u32::from_le_bytes(blob[5..9].try_into().expect("4 bytes")) as usize;
    let payload = &blob[FRAME_HEADER_LEN..];
    if payload.len() != len {
        return Err(CodecError(format!(
            "torn cache entry: header says {len} payload bytes, found {}",
            payload.len()
        )));
    }
    let sum = u64::from_le_bytes(blob[9..17].try_into().expect("8 bytes"));
    if frame_checksum(key, payload) != sum {
        return Err(CodecError(format!("checksum mismatch for key {key:?}")));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llva_machine::codec::encode;
    use llva_machine::x86::X86Inst;

    #[test]
    fn frame_round_trip() {
        let payload = encode(&[X86Inst::Ret][..]);
        let framed = frame_entry("m.x86.fn0", &payload);
        assert_eq!(
            unframe_entry("m.x86.fn0", &framed).expect("valid"),
            &payload[..]
        );
    }

    #[test]
    fn frame_rejects_wrong_key() {
        let framed = frame_entry("m.x86.fn0", b"payload");
        assert!(unframe_entry("m.x86.fn1", &framed).is_err());
    }

    #[test]
    fn frame_rejects_any_single_bit_flip() {
        let framed = frame_entry("k", &encode(&[X86Inst::Ret, X86Inst::Cdq][..]));
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut bad = framed.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    unframe_entry("k", &bad).is_err(),
                    "flip of byte {byte} bit {bit} must be detected"
                );
            }
        }
    }

    #[test]
    fn frame_rejects_truncations_and_extensions() {
        let framed = frame_entry("k", b"some payload bytes");
        for cut in 0..framed.len() {
            assert!(unframe_entry("k", &framed[..cut]).is_err(), "cut at {cut}");
        }
        let mut longer = framed;
        longer.push(0);
        assert!(unframe_entry("k", &longer).is_err(), "trailing garbage");
    }
}
