//! Wire framing: length-prefixed frames and their incremental reassembly.
//!
//! A TCP stream is just bytes; the service speaks in discrete request and
//! response batches.  The bridge between them is one more layer of the
//! codec's own varint discipline:
//!
//! ```text
//! frame := varint(byte_len) payload[byte_len]
//! ```
//!
//! where `payload` is exactly one encoded batch
//! ([`kvserve::codec::encode_batch`] / `encode_response_batch`).  The
//! length prefix is the framing contract the reactor relies on:
//!
//! * **Partial reads are normal.**  [`FrameDecoder::push`] accepts any
//!   split of the byte stream — header varints may arrive one byte at a
//!   time — and emits complete payloads as they finish reassembling.
//! * **Hostile prefixes are rejected before buffering.**  A length above
//!   the decoder's cap fails with [`FrameError::Oversized`] the moment the
//!   header completes, so a malicious 8-byte header can never provoke a
//!   gigabyte allocation.  Over-long varints fail as [`FrameError::BadVarint`].
//!
//! After an error the decoder is poisoned: the stream has no recoverable
//! frame boundary anymore, so the connection must be closed (the server
//! sends a final [`kvserve::Response::Error`] frame first).

use kvserve::codec::write_varint;

/// Default cap on a *request* frame accepted by the server (1 MiB —
/// generous for batches, far below any allocation of concern).
pub const MAX_REQUEST_FRAME: usize = 1 << 20;

/// Default cap on a *response* frame accepted by the client (64 MiB: a
/// maximal wire-legal `Entries` response is larger than any request).
pub const MAX_RESPONSE_FRAME: usize = 64 << 20;

/// Why the byte stream stopped being a frame stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A frame header announced more bytes than the decoder's cap.
    Oversized {
        /// The announced payload length.
        len: u64,
        /// The decoder's cap.
        max: usize,
    },
    /// The header varint ran longer than 10 bytes or overflowed 64 bits.
    BadVarint,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            FrameError::BadVarint => write!(f, "frame header varint malformed"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends one frame (header + payload) to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

/// Incremental reassembler of length-prefixed frames from arbitrary byte
/// splits.
#[derive(Debug)]
pub struct FrameDecoder {
    max_frame: usize,
    /// Varint accumulator for the in-progress header.
    header: u64,
    shift: u32,
    /// Payload length, once the header is complete.
    need: Option<usize>,
    payload: Vec<u8>,
    poisoned: bool,
}

impl FrameDecoder {
    /// A decoder accepting payloads up to `max_frame` bytes.
    pub fn new(max_frame: usize) -> Self {
        Self {
            max_frame,
            header: 0,
            shift: 0,
            need: None,
            payload: Vec::new(),
            poisoned: false,
        }
    }

    /// True when no partial frame is buffered (a clean stream boundary —
    /// e.g. a peer that disconnects while the decoder is idle was not cut
    /// off mid-frame).
    pub fn is_idle(&self) -> bool {
        self.need.is_none() && self.shift == 0 && !self.poisoned
    }

    /// Consumes `bytes`, appending every completed payload to `frames`.
    ///
    /// On error the decoder is poisoned and every later call fails the
    /// same way; frames completed *before* the error are still delivered.
    pub fn push(&mut self, bytes: &[u8], frames: &mut Vec<Vec<u8>>) -> Result<(), FrameError> {
        if self.poisoned {
            return Err(FrameError::BadVarint);
        }
        let mut rest = bytes;
        while !rest.is_empty() {
            match self.need {
                None => {
                    // Header byte by byte: the varint itself may be split
                    // across reads.
                    let byte = rest[0];
                    rest = &rest[1..];
                    let chunk = (byte & 0x7F) as u64;
                    // The 10th byte may only carry the single remaining
                    // bit, and nothing may follow it.
                    if self.shift == 63 && (chunk > 1 || byte & 0x80 != 0) {
                        self.poisoned = true;
                        return Err(FrameError::BadVarint);
                    }
                    self.header |= chunk << self.shift;
                    if byte & 0x80 != 0 {
                        self.shift += 7;
                        continue;
                    }
                    let len = self.header;
                    self.header = 0;
                    self.shift = 0;
                    if len > self.max_frame as u64 {
                        self.poisoned = true;
                        return Err(FrameError::Oversized {
                            len,
                            max: self.max_frame,
                        });
                    }
                    self.need = Some(len as usize);
                    self.payload.reserve(len as usize);
                }
                Some(need) => {
                    let take = (need - self.payload.len()).min(rest.len());
                    self.payload.extend_from_slice(&rest[..take]);
                    rest = &rest[take..];
                    if self.payload.len() == need {
                        frames.push(std::mem::take(&mut self.payload));
                        self.need = None;
                    }
                }
            }
        }
        // A zero-length frame completes without ever entering the payload
        // arm above.
        if self.need == Some(0) {
            frames.push(std::mem::take(&mut self.payload));
            self.need = None;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    /// Reference encoding of a sequence of payloads as one byte stream.
    fn stream_of(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            write_frame(&mut out, p);
        }
        out
    }

    #[test]
    fn byte_by_byte_equals_one_shot() {
        let payloads: Vec<&[u8]> = vec![b"", b"a", b"hello world", &[0x80; 300]];
        let stream = stream_of(&payloads);

        let mut one_shot = Vec::new();
        let mut dec = FrameDecoder::new(1 << 16);
        dec.push(&stream, &mut one_shot).unwrap();

        let mut trickled = Vec::new();
        let mut dec = FrameDecoder::new(1 << 16);
        for &byte in &stream {
            dec.push(&[byte], &mut trickled).unwrap();
        }

        assert_eq!(one_shot, trickled);
        assert_eq!(one_shot.len(), payloads.len());
        for (frame, payload) in one_shot.iter().zip(&payloads) {
            assert_eq!(frame.as_slice(), *payload);
        }
        assert!(dec.is_idle());
    }

    #[test]
    fn random_split_points_reassemble_identically() {
        let mut rng = StdRng::seed_from_u64(0xF4A3);
        for _ in 0..50 {
            // Random payload sizes crossing every interesting boundary
            // (empty, 1-byte, multi-byte varint headers).
            let payloads: Vec<Vec<u8>> = (0..rng.gen_range(1..8))
                .map(|_| {
                    let len = [0, 1, 7, 127, 128, 129, 1000, 20_000][rng.gen_range(0..8usize)];
                    (0..len).map(|i| (i % 251) as u8).collect()
                })
                .collect();
            let refs: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
            let stream = stream_of(&refs);

            let mut out = Vec::new();
            let mut dec = FrameDecoder::new(1 << 20);
            let mut pos = 0;
            while pos < stream.len() {
                let take = rng.gen_range(1..=(stream.len() - pos).min(4096));
                dec.push(&stream[pos..pos + take], &mut out).unwrap();
                pos += take;
            }
            assert_eq!(out, payloads);
            assert!(dec.is_idle());
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_before_buffering() {
        let mut dec = FrameDecoder::new(1024);
        let mut frames = Vec::new();
        let mut header = Vec::new();
        write_varint(&mut header, 1025);
        assert_eq!(
            dec.push(&header, &mut frames),
            Err(FrameError::Oversized {
                len: 1025,
                max: 1024
            })
        );
        // Poisoned: even an innocent byte now fails.
        assert!(dec.push(&[0x00], &mut frames).is_err());
        assert!(!dec.is_idle());
        // The rejection happens on header completion — no payload bytes
        // were ever demanded or stored.
        assert!(frames.is_empty());

        // A hostile 10-byte maximal varint is also rejected, split or not.
        let mut dec = FrameDecoder::new(1024);
        let huge = [0xFFu8; 9];
        dec.push(&huge, &mut frames).unwrap();
        assert_eq!(dec.push(&[0x7F], &mut frames), Err(FrameError::BadVarint));
        // ... and a 10th byte that *legally* completes the varint still
        // yields a length far beyond any cap.
        let mut dec = FrameDecoder::new(1024);
        dec.push(&huge, &mut frames).unwrap();
        assert!(matches!(
            dec.push(&[0x01], &mut frames),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let mut dec = FrameDecoder::new(usize::MAX);
        let mut frames = Vec::new();
        // 10 continuation bytes: the 10th may not continue.
        assert_eq!(
            dec.push(&[0x80; 10], &mut frames),
            Err(FrameError::BadVarint)
        );
        for (err, needle) in [
            (FrameError::BadVarint, "varint"),
            (FrameError::Oversized { len: 9, max: 8 }, "cap"),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn frames_before_an_error_are_still_delivered() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"good");
        let mut header = Vec::new();
        write_varint(&mut header, u64::MAX / 2);
        stream.extend_from_slice(&header);

        let mut dec = FrameDecoder::new(1 << 10);
        let mut frames = Vec::new();
        assert!(dec.push(&stream, &mut frames).is_err());
        assert_eq!(frames, vec![b"good".to_vec()]);
    }
}
