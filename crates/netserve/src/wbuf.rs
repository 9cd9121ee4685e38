//! Per-connection write-side buffering with high-water-mark backpressure.
//!
//! A non-blocking reactor can never `write_all`: when the kernel socket
//! buffer fills (a slow or stalled client), bytes queue here instead.
//! Unbounded queueing would let one slow client absorb the server's
//! memory, so the buffer carries a **high-water mark**: once
//! [`WriteBuffer::over_high_water`] trips, the reactor stops *reading*
//! from that connection — no new requests, no new responses — until a
//! flush drains the buffer back [`below_low_water`](WriteBuffer::below_low_water)
//! (half the high-water mark, so pause/resume doesn't flap on every byte).

use std::io::{self, ErrorKind, Write};

/// An elastic byte queue in front of a non-blocking writer.
#[derive(Debug)]
pub struct WriteBuffer {
    buf: Vec<u8>,
    /// Index of the first unwritten byte; everything before it has been
    /// handed to the kernel and is reclaimed on compaction.
    start: usize,
    high_water: usize,
}

/// Consumed prefixes above this size are compacted eagerly.
const COMPACT_AT: usize = 64 << 10;

impl WriteBuffer {
    /// An empty buffer with the given high-water mark (bytes).
    pub fn new(high_water: usize) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            high_water: high_water.max(1),
        }
    }

    /// Queues `bytes` for writing.
    pub fn queue(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Unwritten bytes currently queued.
    pub fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when every queued byte has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once the backlog reaches the high-water mark: the owner should
    /// stop reading from this connection.
    pub fn over_high_water(&self) -> bool {
        self.len() >= self.high_water
    }

    /// True once the backlog has drained to half the high-water mark or
    /// less: a paused connection may resume reading.
    pub fn below_low_water(&self) -> bool {
        self.len() <= self.high_water / 2
    }

    /// Writes as much of the backlog as `w` will take right now.
    ///
    /// `WouldBlock` is a normal outcome (the caller keeps write interest
    /// registered and retries on readiness); any other error is fatal to
    /// the connection. A successful return with [`is_empty`](Self::is_empty)
    /// still false means the writer blocked mid-backlog.
    pub fn flush_to(&mut self, w: &mut impl Write) -> io::Result<()> {
        while self.start < self.buf.len() {
            match w.write(&self.buf[self.start..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::WriteZero,
                        "peer accepted zero bytes",
                    ))
                }
                Ok(n) => self.start += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= COMPACT_AT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that accepts `budget` bytes then reports `WouldBlock`.
    struct Throttled {
        taken: Vec<u8>,
        budget: usize,
        chunk: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.budget).min(self.chunk);
            self.taken.extend_from_slice(&buf[..n]);
            self.budget -= n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn hwm_trips_and_low_water_releases() {
        let mut wb = WriteBuffer::new(100);
        wb.queue(&[0xAB; 99]);
        assert!(!wb.over_high_water());
        wb.queue(&[0xCD; 1]);
        assert!(wb.over_high_water());
        assert!(!wb.below_low_water());

        // Drain 49 bytes: 51 left, still above low water (50).
        let mut w = Throttled {
            taken: Vec::new(),
            budget: 49,
            chunk: 7,
        };
        wb.flush_to(&mut w).unwrap();
        assert_eq!(wb.len(), 51);
        assert!(!wb.below_low_water());

        // One more byte reaches the low-water mark exactly.
        let mut w = Throttled {
            taken: Vec::new(),
            budget: 1,
            chunk: 7,
        };
        wb.flush_to(&mut w).unwrap();
        assert_eq!(wb.len(), 50);
        assert!(wb.below_low_water());
        assert!(!wb.over_high_water());
    }

    #[test]
    fn flush_preserves_byte_order_across_partial_writes() {
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let mut wb = WriteBuffer::new(1 << 20);
        // Queue in ragged pieces.
        for chunk in payload.chunks(333) {
            wb.queue(chunk);
        }
        let mut w = Throttled {
            taken: Vec::new(),
            budget: usize::MAX,
            chunk: 97,
        };
        // Repeated partial flushes with interleaved queueing.
        wb.flush_to(&mut w).unwrap();
        wb.queue(&payload);
        wb.flush_to(&mut w).unwrap();
        assert!(wb.is_empty());
        let mut expect = payload.clone();
        expect.extend_from_slice(&payload);
        assert_eq!(w.taken, expect);
    }

    #[test]
    fn write_zero_is_fatal() {
        struct Zero;
        impl Write for Zero {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut wb = WriteBuffer::new(8);
        wb.queue(b"x");
        assert_eq!(
            wb.flush_to(&mut Zero).unwrap_err().kind(),
            ErrorKind::WriteZero
        );
    }
}
