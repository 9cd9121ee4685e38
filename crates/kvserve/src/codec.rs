//! Compact wire codec for request and response batches.
//!
//! The format is purpose-built and offline-friendly (no external
//! serialization crates): everything is a byte stream of LEB128 varints
//! behind 1-byte tags.  Small keys — the common case under Zipfian service
//! traffic, where hot keys are small ranks — encode in 1 byte instead of 8.
//!
//! ```text
//! batch          := varint(count) request*
//! request        := 0x01 varint(key)                      -- Get
//!                 | 0x02 varint(key) varint(value)        -- Put
//!                 | 0x03 varint(key)                      -- Delete
//!                 | 0x04 varint(lo) varint(len)           -- Scan
//!                 | 0x05 varint(n) varint(key)*n          -- MGet
//!                 | 0x06 varint(n) (varint varint)*n      -- MPut
//!                 | 0x07                                  -- Stats
//! response_batch := varint(count) response*
//! response       := 0x81 opt                              -- Value
//!                 | 0x82 varint(n) opt*n                  -- Values
//!                 | 0x83 varint(n) (varint varint)*n      -- Entries
//!                 | 0x84                                  -- Overloaded
//!                 | 0x85 varint(code)                     -- Error
//!                 | 0x86 varint(len) byte*len             -- Stats (UTF-8 text)
//! opt            := 0x00 | 0x01 varint(value)
//! ```
//!
//! Decoding is strict: unknown tags, truncated input, over-long varints,
//! oversized batches and trailing bytes are all rejected with a
//! [`CodecError`] rather than silently accepted, so a corrupted frame can
//! never turn into a plausible-looking batch.  Two engine-level limits are
//! part of the wire contract so that a decoded frame is always *servable*
//! and a served response is always *encodable*:
//!
//! * every key position (and a `Scan`'s window length) is capped by
//!   [`MAX_DECODED_LEN`] where it bounds downstream work, and
//! * the engine's reserved key ([`abtree::EMPTY_KEY`], `u64::MAX`) is
//!   rejected in key positions ([`CodecError::ReservedKey`]) — it can never
//!   be stored, and letting it through would trade a decode error for a
//!   panic deeper in the stack.
//!
//! Encoders enforce the same limits by panicking, so this module can never
//! produce a frame it would itself refuse.

use crate::request::{Request, Response};

/// Upper bound on any encoded or decoded count (batch length, multi-get
/// size, scan result size).  Decoders reject larger length prefixes up
/// front — keeping a corrupt or hostile prefix from provoking a huge
/// allocation — and encoders panic on oversized collections, so a frame
/// this module produces is always decodable by it.
pub const MAX_DECODED_LEN: u64 = 1 << 20;

/// Why a byte stream failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended inside a value.
    Truncated,
    /// An unknown request/response tag byte (the offending byte).
    BadTag(u8),
    /// An `Option` flag byte other than 0 or 1 (the offending byte).
    BadFlag(u8),
    /// A varint ran longer than 10 bytes or overflowed 64 bits.
    BadVarint,
    /// A length prefix exceeded [`MAX_DECODED_LEN`] (the offending length).
    TooLong(u64),
    /// A key position carried the engine's reserved `EMPTY_KEY` sentinel
    /// (`u64::MAX`), which can never be stored or queried.
    ReservedKey,
    /// The batch decoded successfully but bytes remain (the count).
    TrailingBytes(usize),
    /// A stats-snapshot payload was not valid UTF-8.  The exposition text
    /// is UTF-8 by construction, so this means corruption, same severity
    /// as a bad tag.
    BadUtf8,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated mid-value"),
            CodecError::BadTag(tag) => write!(f, "unknown tag byte 0x{tag:02x}"),
            CodecError::BadFlag(flag) => write!(f, "option flag must be 0 or 1, got 0x{flag:02x}"),
            CodecError::BadVarint => write!(f, "varint longer than 10 bytes or overflowing u64"),
            CodecError::TooLong(len) => {
                write!(f, "length prefix {len} exceeds the {MAX_DECODED_LEN} cap")
            }
            CodecError::ReservedKey => {
                write!(f, "key is the reserved EMPTY_KEY sentinel (u64::MAX)")
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the batch"),
            CodecError::BadUtf8 => write!(f, "stats payload is not valid UTF-8"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Appends `value` to `out` as a LEB128 varint (1 byte for values < 128,
/// at most 10 bytes).
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push((value as u8) | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Reads a LEB128 varint from `buf` starting at `*pos`, advancing `*pos`.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        let &byte = buf.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        let chunk = (byte & 0x7F) as u64;
        // The 10th byte may only carry the single remaining bit.
        if shift == 63 && chunk > 1 {
            return Err(CodecError::BadVarint);
        }
        value |= chunk << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(CodecError::BadVarint)
}

fn read_len(buf: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    let len = read_varint(buf, pos)?;
    if len > MAX_DECODED_LEN {
        return Err(CodecError::TooLong(len));
    }
    Ok(len as usize)
}

/// Encoder-side twin of `read_len`: writes a length prefix, panicking on
/// counts the decoder would reject so an encoded frame is always decodable.
fn write_len(out: &mut Vec<u8>, len: usize) {
    assert!(
        len as u64 <= MAX_DECODED_LEN,
        "count {len} exceeds the {MAX_DECODED_LEN} wire cap; split the batch"
    );
    write_varint(out, len as u64);
}

/// Reads a key position, rejecting the engine's reserved sentinel.
fn read_key(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    match read_varint(buf, pos)? {
        abtree::EMPTY_KEY => Err(CodecError::ReservedKey),
        key => Ok(key),
    }
}

/// Encoder-side twin of `read_key`.
fn write_key(out: &mut Vec<u8>, key: u64) {
    assert!(
        key != abtree::EMPTY_KEY,
        "the reserved EMPTY_KEY sentinel cannot appear in a key position"
    );
    write_varint(out, key);
}

fn write_opt(out: &mut Vec<u8>, value: Option<u64>) {
    match value {
        None => out.push(0x00),
        Some(v) => {
            out.push(0x01);
            write_varint(out, v);
        }
    }
}

fn read_opt(buf: &[u8], pos: &mut usize) -> Result<Option<u64>, CodecError> {
    let &flag = buf.get(*pos).ok_or(CodecError::Truncated)?;
    *pos += 1;
    match flag {
        0x00 => Ok(None),
        0x01 => Ok(Some(read_varint(buf, pos)?)),
        other => Err(CodecError::BadFlag(other)),
    }
}

/// Appends the encoding of one request to `out`.
pub fn encode_request(req: &Request, out: &mut Vec<u8>) {
    match req {
        Request::Get { key } => {
            out.push(0x01);
            write_key(out, *key);
        }
        Request::Put { key, value } => {
            out.push(0x02);
            write_key(out, *key);
            write_varint(out, *value);
        }
        Request::Delete { key } => {
            out.push(0x03);
            write_key(out, *key);
        }
        Request::Scan { lo, len } => {
            out.push(0x04);
            write_key(out, *lo);
            // The window length caps the work a single scan request can
            // demand of a shard *and* the size of the entries response, so
            // it shares the batch-length cap.
            write_len(out, *len as usize);
        }
        Request::MGet { keys } => {
            out.push(0x05);
            write_len(out, keys.len());
            for &key in keys {
                write_key(out, key);
            }
        }
        Request::MPut { pairs } => {
            out.push(0x06);
            write_len(out, pairs.len());
            for &(key, value) in pairs {
                write_key(out, key);
                write_varint(out, value);
            }
        }
        // Payload-free, like Overloaded on the response side: a scrape
        // asks for everything, so there is nothing to parameterize.
        Request::Stats => out.push(0x07),
    }
}

fn decode_request(buf: &[u8], pos: &mut usize) -> Result<Request, CodecError> {
    let &tag = buf.get(*pos).ok_or(CodecError::Truncated)?;
    *pos += 1;
    Ok(match tag {
        0x01 => Request::Get {
            key: read_key(buf, pos)?,
        },
        0x02 => Request::Put {
            key: read_key(buf, pos)?,
            value: read_varint(buf, pos)?,
        },
        0x03 => Request::Delete {
            key: read_key(buf, pos)?,
        },
        0x04 => Request::Scan {
            lo: read_key(buf, pos)?,
            len: read_len(buf, pos)? as u64,
        },
        0x05 => {
            let n = read_len(buf, pos)?;
            let mut keys = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                keys.push(read_key(buf, pos)?);
            }
            Request::MGet { keys }
        }
        0x06 => {
            let n = read_len(buf, pos)?;
            let mut pairs = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let key = read_key(buf, pos)?;
                let value = read_varint(buf, pos)?;
                pairs.push((key, value));
            }
            Request::MPut { pairs }
        }
        0x07 => Request::Stats,
        other => return Err(CodecError::BadTag(other)),
    })
}

/// Appends the encoding of one response to `out`.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    match resp {
        Response::Value(value) => {
            out.push(0x81);
            write_opt(out, *value);
        }
        Response::Values(values) => {
            out.push(0x82);
            write_len(out, values.len());
            for &value in values {
                write_opt(out, value);
            }
        }
        Response::Entries(entries) => {
            out.push(0x83);
            write_len(out, entries.len());
            for &(key, value) in entries {
                write_varint(out, key);
                write_varint(out, value);
            }
        }
        // Payload-free: the shed signal carries no data, only the tag.
        Response::Overloaded => out.push(0x84),
        Response::Error { code } => {
            out.push(0x85);
            write_varint(out, *code);
        }
        Response::Stats(text) => {
            out.push(0x86);
            // The exposition text shares the wire length cap, so a stats
            // frame can never exceed what any decoder would accept (a
            // full scrape of a large deployment is tens of KB).
            write_len(out, text.len());
            out.extend_from_slice(text.as_bytes());
        }
    }
}

fn decode_response(buf: &[u8], pos: &mut usize) -> Result<Response, CodecError> {
    let &tag = buf.get(*pos).ok_or(CodecError::Truncated)?;
    *pos += 1;
    Ok(match tag {
        0x81 => Response::Value(read_opt(buf, pos)?),
        0x82 => {
            let n = read_len(buf, pos)?;
            let mut values = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                values.push(read_opt(buf, pos)?);
            }
            Response::Values(values)
        }
        0x83 => {
            let n = read_len(buf, pos)?;
            let mut entries = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let key = read_varint(buf, pos)?;
                let value = read_varint(buf, pos)?;
                entries.push((key, value));
            }
            Response::Entries(entries)
        }
        0x84 => Response::Overloaded,
        0x85 => Response::Error {
            code: read_varint(buf, pos)?,
        },
        0x86 => {
            let n = read_len(buf, pos)?;
            let bytes = buf.get(*pos..*pos + n).ok_or(CodecError::Truncated)?;
            *pos += n;
            let text = std::str::from_utf8(bytes)
                .map_err(|_| CodecError::BadUtf8)?
                .to_string();
            Response::Stats(text)
        }
        other => return Err(CodecError::BadTag(other)),
    })
}

/// Encodes a request batch into `out` (cleared first).
pub fn encode_batch(requests: &[Request], out: &mut Vec<u8>) {
    out.clear();
    write_len(out, requests.len());
    for req in requests {
        encode_request(req, out);
    }
}

/// Decodes a request batch, requiring the whole buffer to be consumed.
pub fn decode_batch(buf: &[u8]) -> Result<Vec<Request>, CodecError> {
    let mut pos = 0;
    let count = read_len(buf, &mut pos)?;
    let mut requests = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        requests.push(decode_request(buf, &mut pos)?);
    }
    if pos != buf.len() {
        return Err(CodecError::TrailingBytes(buf.len() - pos));
    }
    Ok(requests)
}

/// Encodes a response batch into `out` (cleared first).
pub fn encode_response_batch(responses: &[Response], out: &mut Vec<u8>) {
    out.clear();
    write_len(out, responses.len());
    for resp in responses {
        encode_response(resp, out);
    }
}

/// Decodes a response batch, requiring the whole buffer to be consumed.
pub fn decode_response_batch(buf: &[u8]) -> Result<Vec<Response>, CodecError> {
    let mut pos = 0;
    let count = read_len(buf, &mut pos)?;
    let mut responses = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        responses.push(decode_response(buf, &mut pos)?);
    }
    if pos != buf.len() {
        return Err(CodecError::TrailingBytes(buf.len() - pos));
    }
    Ok(responses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            buf.clear();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
        // Small values are 1 byte — the compactness the format exists for.
        buf.clear();
        write_varint(&mut buf, 42);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // 11 continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        assert_eq!(read_varint(&buf, &mut 0), Err(CodecError::BadVarint));
        // A 10-byte varint whose top byte overflows bit 63 is rejected too.
        let mut buf = vec![0xFFu8; 9];
        buf.push(0x02);
        assert_eq!(read_varint(&buf, &mut 0), Err(CodecError::BadVarint));
    }

    #[test]
    fn batch_round_trips() {
        let reqs = vec![
            Request::Get { key: 7 },
            Request::Put {
                key: 1,
                value: u64::MAX,
            },
            Request::Delete { key: 0 },
            Request::Scan { lo: 100, len: 50 },
            Request::MGet {
                keys: vec![1, 128, 300_000],
            },
            Request::MPut {
                pairs: vec![(5, 50), (6, 60)],
            },
        ];
        let mut wire = Vec::new();
        encode_batch(&reqs, &mut wire);
        assert_eq!(decode_batch(&wire).unwrap(), reqs);

        let resps = vec![
            Response::Value(None),
            Response::Value(Some(9)),
            Response::Values(vec![Some(1), None, Some(u64::MAX)]),
            Response::Entries(vec![(1, 2), (3, 4)]),
            Response::Overloaded,
            Response::Error { code: 2 },
        ];
        encode_response_batch(&resps, &mut wire);
        assert_eq!(decode_response_batch(&wire).unwrap(), resps);
        // An error frame is tag + code and nothing else.
        encode_response_batch(&[Response::Error { code: 3 }], &mut wire);
        assert_eq!(wire, vec![1, 0x85, 3]);
        // Overloaded is a bare tag: it must cost exactly one byte.
        encode_response_batch(&[Response::Overloaded], &mut wire);
        assert_eq!(wire, vec![1, 0x84]);
    }

    #[test]
    fn strictness() {
        let mut wire = Vec::new();
        encode_batch(&[Request::Get { key: 1000 }], &mut wire);
        // Truncation anywhere inside the frame is an error.
        for cut in 0..wire.len() {
            assert!(decode_batch(&wire[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is an error.
        wire.push(0x00);
        assert_eq!(decode_batch(&wire), Err(CodecError::TrailingBytes(1)));
        // Unknown tags are an error.
        assert_eq!(decode_batch(&[1, 0x7F, 0]), Err(CodecError::BadTag(0x7F)));
        // Hostile length prefixes are capped.
        let mut huge = Vec::new();
        write_varint(&mut huge, u64::MAX / 2);
        assert!(matches!(decode_batch(&huge), Err(CodecError::TooLong(_))));
        // Bad option flags are an error.
        assert_eq!(
            decode_response_batch(&[1, 0x81, 0x07]),
            Err(CodecError::BadFlag(0x07))
        );
    }

    #[test]
    fn reserved_key_is_rejected_both_ways() {
        // Decoder: a well-formed frame carrying the sentinel in a key
        // position errors instead of reaching the engine.
        let mut frame = Vec::new();
        write_varint(&mut frame, 1); // batch of one
        frame.push(0x01); // Get
        write_varint(&mut frame, u64::MAX);
        assert_eq!(decode_batch(&frame), Err(CodecError::ReservedKey));
        // Scan window lengths above the cap are rejected at decode, so a
        // decoded scan can never demand an unencodable Entries response.
        let mut frame = Vec::new();
        write_varint(&mut frame, 1);
        frame.push(0x04); // Scan
        write_varint(&mut frame, 0); // lo
        write_varint(&mut frame, MAX_DECODED_LEN + 1); // len
        assert!(matches!(decode_batch(&frame), Err(CodecError::TooLong(_))));
    }

    #[test]
    #[should_panic(expected = "EMPTY_KEY")]
    fn encoder_rejects_the_reserved_key_too() {
        encode_batch(&[Request::Get { key: u64::MAX }], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "wire cap")]
    fn encoder_enforces_the_cap_too() {
        // A frame the decoder would reject must never be produced: the
        // encoder panics instead of emitting an undecodable batch.
        let oversized = Request::MGet {
            keys: vec![0; MAX_DECODED_LEN as usize + 1],
        };
        encode_batch(std::slice::from_ref(&oversized), &mut Vec::new());
    }

    #[test]
    fn errors_display() {
        for (err, needle) in [
            (CodecError::Truncated, "truncated"),
            (CodecError::BadTag(0xAA), "0xaa"),
            (CodecError::BadFlag(9), "flag"),
            (CodecError::BadVarint, "varint"),
            (CodecError::TooLong(1 << 30), "cap"),
            (CodecError::ReservedKey, "EMPTY_KEY"),
            (CodecError::TrailingBytes(3), "3 trailing"),
            (CodecError::BadUtf8, "UTF-8"),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn stats_frames_round_trip() {
        // The request is a bare tag, like Overloaded on the response side.
        let mut wire = Vec::new();
        encode_batch(&[Request::Stats], &mut wire);
        assert_eq!(wire, vec![1, 0x07]);
        assert_eq!(decode_batch(&wire).unwrap(), vec![Request::Stats]);

        // The response carries length-prefixed UTF-8 exposition text.
        let text = "# TYPE kv_ops_total counter\nkv_ops_total{shard=\"0\"} 42\n";
        let resp = Response::Stats(text.to_string());
        encode_response_batch(std::slice::from_ref(&resp), &mut wire);
        assert_eq!(decode_response_batch(&wire).unwrap(), vec![resp]);
        // Empty exposition (no sources registered) is legal.
        let empty = Response::Stats(String::new());
        encode_response_batch(std::slice::from_ref(&empty), &mut wire);
        assert_eq!(decode_response_batch(&wire).unwrap(), vec![empty]);
        // Stats mixes with other responses in one batch.
        let mixed = vec![
            Response::Value(Some(1)),
            Response::Stats("x 1\n".to_string()),
            Response::Overloaded,
        ];
        encode_response_batch(&mixed, &mut wire);
        assert_eq!(decode_response_batch(&wire).unwrap(), mixed);
    }

    #[test]
    fn stats_decode_is_strict() {
        let mut wire = Vec::new();
        encode_response_batch(
            &[Response::Stats("metric_total 7\n".to_string())],
            &mut wire,
        );
        // Truncation anywhere inside the frame — including mid-payload —
        // is an error, same rule as every other frame.
        for cut in 0..wire.len() {
            assert!(decode_response_batch(&wire[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing bytes after the payload are an error.
        wire.push(0x00);
        assert_eq!(
            decode_response_batch(&wire),
            Err(CodecError::TrailingBytes(1))
        );
        // A length prefix larger than the cap is rejected before any
        // allocation.
        let mut hostile = Vec::new();
        write_varint(&mut hostile, 1); // batch of one
        hostile.push(0x86);
        write_varint(&mut hostile, MAX_DECODED_LEN + 1);
        assert!(matches!(
            decode_response_batch(&hostile),
            Err(CodecError::TooLong(_))
        ));
        // Non-UTF-8 payload bytes are rejected, not lossily accepted.
        let mut bad = Vec::new();
        write_varint(&mut bad, 1);
        bad.push(0x86);
        write_varint(&mut bad, 2);
        bad.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(decode_response_batch(&bad), Err(CodecError::BadUtf8));
    }

    #[test]
    #[should_panic(expected = "wire cap")]
    fn stats_encoder_enforces_the_cap_too() {
        let oversized = Response::Stats("x".repeat(MAX_DECODED_LEN as usize + 1));
        encode_response_batch(std::slice::from_ref(&oversized), &mut Vec::new());
    }
}
