//! Framed wire protocol for `llva-serve`.
//!
//! Every message is one [`WIRE`] frame ([`llva_machine::codec::Format`]):
//! magic, version, a `u32` payload length and a checksum of the payload,
//! then the payload. A hostile peer is bounded by [`MAX_FRAME`] before a
//! single payload byte is buffered, and a payload damaged in transit
//! fails its checksum before it is decoded.
//!
//! The payload is a [`Request`] or [`Response`] in the one record codec
//! LLEE also uses for cached native code and image records
//! ([`llva_machine::codec`]): the message tag, then the variant's fields
//! in the order its table below lists them — `u32`/`u64` little-endian
//! integers, `bool` bytes, strings as a `u32` length and UTF-8 bytes,
//! and the call arguments as a `u32` count and `u64`s. Decode rejects
//! truncation, unknown tags, counts beyond the bytes that follow,
//! invalid UTF-8 and trailing bytes with a [`CodecError`].

use llva_machine::codec::{self, tagged, CodecError, Format};
use std::io::{self, Read, Write};

/// The frame of every message ("LLva Wire"); its checksum has no seed.
pub const WIRE: Format = Format { magic: *b"LLVW", version: 1 };

/// Hard ceiling on one frame's payload (guards the server against a
/// hostile length field before any allocation happens).
pub const MAX_FRAME: usize = 16 << 20;

/// Client → server messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Selects (and auto-registers) the connection's tenant. Must be
    /// the first request on a connection.
    Hello {
        /// Tenant name.
        tenant: String,
    },
    /// Loads a module from LLVA assembly text.
    Load {
        /// Tenant-chosen module name.
        module: String,
        /// Module source text.
        source: String,
    },
    /// Calls a function in a loaded module.
    Call {
        /// Module name from a prior [`Request::Load`].
        module: String,
        /// Entry function name.
        entry: String,
        /// Argument raw bits.
        args: Vec<u64>,
        /// Fuel request (`0` = the tenant quota's per-call ceiling).
        fuel: u64,
    },
    /// Asks for the metrics text.
    Metrics,
    /// Gracefully drains the whole service: admission closes, in-flight
    /// work is awaited up to the deadline, and the final metrics come
    /// back as the response body. The server exits afterwards.
    Drain {
        /// How long to wait for in-flight work, in milliseconds.
        deadline_ms: u64,
    },
}

tagged!(Request {
    1 Hello { tenant },
    2 Load { module, source },
    3 Call { module, entry, args, fuel },
    4 Metrics,
    5 Drain { deadline_ms },
});

/// Server → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A call completed normally.
    Value {
        /// Returned raw bits.
        value: u64,
        /// Name of the tier that answered.
        tier: String,
        /// True when a faster tier faulted or was skipped.
        degraded: bool,
        /// Serve-level retries the call consumed.
        retries: u32,
    },
    /// A call hit a precise trap.
    Trap {
        /// Trap kind display string.
        kind: String,
        /// Name of the tier that answered.
        tier: String,
    },
    /// A call genuinely exhausted its fuel.
    OutOfFuel {
        /// Name of the tier that answered.
        tier: String,
    },
    /// The request failed ([`crate::ServeError`] display string —
    /// includes admission rejections, which are expected backpressure).
    Error {
        /// Error message.
        message: String,
    },
    /// Free-form text (metrics, hello banner).
    Text {
        /// The text body.
        body: String,
    },
    /// A module loaded.
    Loaded {
        /// Content-addressed cache name.
        cache: String,
        /// Defined functions in the module.
        functions: u64,
    },
}

tagged!(Response {
    0 Value { value, tier, degraded, retries },
    1 Trap { kind, tier },
    2 OutOfFuel { tier },
    3 Error { message },
    4 Text { body },
    5 Loaded { cache, functions },
});

impl Request {
    /// Encodes this request as a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// [`CodecError`] for truncated or malformed payloads.
    pub fn decode(payload: &[u8]) -> Result<Request, CodecError> {
        codec::decode(payload)
    }
}

impl Response {
    /// Encodes this response as a frame payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// [`CodecError`] for truncated or malformed payloads.
    pub fn decode(payload: &[u8]) -> Result<Response, CodecError> {
        codec::decode(payload)
    }
}

// -- frame IO ----------------------------------------------------------------

/// Writes one frame.
///
/// # Errors
///
/// IO errors; `InvalidInput` when `payload` exceeds [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds limit", payload.len()),
        ));
    }
    w.write_all(&WIRE.head(&[], payload))?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame and returns its checked payload; `None` on clean EOF
/// before the header (the peer hung up between messages).
///
/// # Errors
///
/// IO errors; `InvalidData` for a bad header, an oversize length or a
/// checksum mismatch; `UnexpectedEof` for a connection cut mid-frame.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    WIRE.read(r, MAX_FRAME)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One sample of every request variant.
    fn requests() -> Vec<Request> {
        vec![
            Request::Hello { tenant: "acme".into() },
            Request::Load {
                module: "m".into(),
                source: "module demo\n".into(),
            },
            Request::Call {
                module: "m".into(),
                entry: "main".into(),
                args: vec![1, u64::MAX, 0],
                fuel: 42,
            },
            Request::Call {
                module: "m".into(),
                entry: "f".into(),
                args: vec![],
                fuel: 0,
            },
            Request::Metrics,
            Request::Drain { deadline_ms: 1_500 },
        ]
    }

    /// One sample of every response variant.
    fn responses() -> Vec<Response> {
        vec![
            Response::Value {
                value: 0xdead_beef,
                tier: "translated".into(),
                degraded: true,
                retries: 2,
            },
            Response::Value {
                value: 0,
                tier: "interp".into(),
                degraded: false,
                retries: 0,
            },
            Response::Trap {
                kind: "load out of bounds".into(),
                tier: "interp".into(),
            },
            Response::OutOfFuel { tier: "interp".into() },
            Response::Error { message: "busy".into() },
            Response::Text { body: "# HELP x\n".into() },
            Response::Loaded {
                cache: "mdeadbeef".into(),
                functions: 7,
            },
        ]
    }

    /// The payload bytes of every sample, recorded before the messages
    /// moved onto `llva_machine::codec`: `hex debug` per sample.
    const WIRE: &str = "\
010400000061636d65 Hello { tenant: \"acme\" }
02010000006d0c0000006d6f64756c652064656d6f0a Load { module: \"m\", source: \"module demo\\n\" }
03010000006d040000006d61696e030000000100000000000000ffffffffffffffff00000000000000002a00000000000000 Call { module: \"m\", entry: \"main\", args: [1, 18446744073709551615, 0], fuel: 42 }
03010000006d0100000066000000000000000000000000 Call { module: \"m\", entry: \"f\", args: [], fuel: 0 }
04 Metrics
05dc05000000000000 Drain { deadline_ms: 1500 }
00efbeadde000000000a0000007472616e736c617465640102000000 Value { value: 3735928559, tier: \"translated\", degraded: true, retries: 2 }
00000000000000000006000000696e746572700000000000 Value { value: 0, tier: \"interp\", degraded: false, retries: 0 }
01120000006c6f6164206f7574206f6620626f756e647306000000696e74657270 Trap { kind: \"load out of bounds\", tier: \"interp\" }
0206000000696e74657270 OutOfFuel { tier: \"interp\" }
030400000062757379 Error { message: \"busy\" }
0409000000232048454c5020780a Text { body: \"# HELP x\\n\" }
05090000006d64656164626565660700000000000000 Loaded { cache: \"mdeadbeef\", functions: 7 }
";

    #[test]
    fn messages_match_the_recorded_bytes() {
        use std::fmt::Write as _;
        let mut got = String::new();
        let hex = |b: Vec<u8>| b.iter().map(|b| format!("{b:02x}")).collect::<String>();
        for req in requests() {
            writeln!(got, "{} {req:?}", hex(req.encode())).expect("writes to a String");
        }
        for resp in responses() {
            writeln!(got, "{} {resp:?}", hex(resp.encode())).expect("writes to a String");
        }
        if got != WIRE {
            eprintln!("{got}");
            let first = got.lines().zip(WIRE.lines()).find(|(g, w)| g != w);
            panic!("wire bytes changed; first difference (computed, recorded): {first:?}");
        }
    }

    #[test]
    fn requests_round_trip() {
        for req in requests() {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in responses() {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    /// The error text `payload` decodes to as a request.
    fn request_error(payload: &[u8]) -> String {
        Request::decode(payload).expect_err("malformed").to_string()
    }

    #[test]
    fn malformed_payloads_are_rejected_not_panicked() {
        assert!(request_error(&[]).contains("truncated"));
        assert!(request_error(&[0xff]).contains("bad Request tag 255"));
        // a string length beyond the payload
        assert!(request_error(&[1, 5, 0, 0, 0, b'a']).contains("count 5 exceeds the 1 bytes"));
        // an argument count beyond the payload, refused before allocating
        let mut evil = Request::Call {
            module: "m".into(),
            entry: "f".into(),
            args: vec![],
            fuel: 0,
        }
        .encode();
        evil.truncate(evil.len() - 12);
        evil.extend(u32::MAX.to_le_bytes());
        assert!(request_error(&evil).contains("count 4294967295 exceeds"));
        // invalid UTF-8 in a string
        assert!(request_error(&[1, 1, 0, 0, 0, 0xff]).contains("invalid UTF-8"));
        // a degraded flag that is neither 0 nor 1
        let mut flag = responses()[0].encode();
        let at = flag.len() - 5;
        flag[at] = 2;
        assert!(Response::decode(&flag).expect_err("bad bool").to_string().contains("bool 2"));
        // trailing garbage
        let mut trailing = Request::Metrics.encode();
        trailing.push(0);
        assert!(request_error(&trailing).contains("1 trailing bytes"));
    }

    /// A seeded xorshift stream for the mutation storms.
    fn rng(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// Decodes every truncation of `bytes` and 2,000 seeded mutants of
    /// it (1–4 bytes overwritten): each must fail or decode to a message
    /// that re-encodes to exactly the mutant. Returns how many decoded.
    fn storm<M: std::fmt::Debug>(
        bytes: &[u8],
        decode: fn(&[u8]) -> Result<M, CodecError>,
        encode: fn(&M) -> Vec<u8>,
        seed: u64,
    ) -> usize {
        let mut decoded = 0;
        let mut check = |b: &[u8]| {
            if let Ok(m) = decode(b) {
                assert_eq!(encode(&m), b, "{m:?} re-encodes differently");
                decoded += 1;
            }
        };
        for cut in 0..bytes.len() {
            check(&bytes[..cut]);
        }
        let mut next = rng(seed);
        for _ in 0..2000 {
            let mut mutant = bytes.to_vec();
            for _ in 0..1 + next() % 4 {
                let at = (next() % mutant.len() as u64) as usize;
                mutant[at] = next() as u8;
            }
            check(&mutant);
        }
        decoded
    }

    #[test]
    fn mutated_messages_fail_or_re_encode_exactly() {
        let mut decoded = 0;
        for (seed, req) in (1..).zip(requests()) {
            decoded += storm(&req.encode(), Request::decode, Request::encode, seed);
        }
        for (seed, resp) in (100..).zip(responses()) {
            decoded += storm(&resp.encode(), Response::decode, Response::encode, seed);
        }
        assert!(decoded > 1000, "only {decoded} mutants decoded: the storm must reach decode's success path");
    }

    #[test]
    fn mutated_length_prefixes_never_panic_or_buffer_past_the_limit() {
        let frame = super::WIRE.frame(&[], &Request::Metrics.encode());
        let mut next = rng(7);
        for _ in 0..2000 {
            let mut mutant = frame.clone();
            let prefix = if next().is_multiple_of(2) {
                next() as u32
            } else {
                (next() % (2 * MAX_FRAME as u64)) as u32
            };
            mutant[5..9].copy_from_slice(&prefix.to_le_bytes());
            let len = prefix as usize;
            if len == 1 {
                continue; // the payload's own length
            }
            let err = read_frame(&mut mutant.as_slice()).expect_err("a changed length is refused");
            // refused from the header alone, before any buffer exists;
            // an empty payload fails the checksum; a longer one is cut
            let kind = if len > MAX_FRAME || len == 0 {
                io::ErrorKind::InvalidData
            } else {
                io::ErrorKind::UnexpectedEof
            };
            assert_eq!(err.kind(), kind, "length {len}: {err}");
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_framed_request_is_refused() {
        for req in requests() {
            let frame = super::WIRE.frame(&[], &req.encode());
            for bit in 0..frame.len() * 8 {
                let mut mutant = frame.clone();
                mutant[bit / 8] ^= 1 << (bit % 8);
                let read = read_frame(&mut mutant.as_slice());
                assert!(read.is_err(), "{req:?}: flip of bit {bit} read");
            }
        }
    }

    /// A peer speaking the length-only framing of earlier versions is
    /// refused at its first frame, before a payload byte is decoded.
    #[test]
    fn length_only_frames_are_refused() {
        for req in requests() {
            let payload = req.encode();
            let mut old = (payload.len() as u32).to_le_bytes().to_vec();
            old.extend_from_slice(&payload);
            let err = read_frame(&mut old.as_slice()).expect_err("refused");
            assert!(
                matches!(err.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
                "{req:?}: {err}"
            );
        }
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(b"hello".to_vec()));
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(Vec::new()));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
        // a hostile length is rejected before allocation
        let mut evil = super::WIRE.head(&[], &[]);
        evil[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut evil.as_slice()).expect_err("oversize");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
