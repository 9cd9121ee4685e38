//! In-memory spans around calls into the stack's public functions, written
//! out as JSON lines when the traced run ends.
//!
//! The driver records them from outside (tracing inside the program is a
//! later issue): one span per call, `parent` naming the request-level span
//! that caused it, all spans of one request sharing `req_id`.

use std::io::Write;
use std::time::Instant;

/// Index of a span's parent in its log; roots have none.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req_id: u64,
}

/// A bounded span log with its own clock origin.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
}

impl SpanLog {
    /// A log keeping at most `cap` spans (later ones are dropped, so a fast
    /// depth cannot grow memory without bound).
    pub fn new(origin: Instant, cap: usize) -> Self {
        Self {
            origin,
            spans: Vec::with_capacity(cap.min(1 << 16)),
            cap,
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index (or [`NO_PARENT`] when
    /// the log is full, which makes children of a dropped span roots).
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        req_id: u64,
    ) -> u32 {
        if self.spans.len() >= self.cap {
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a request-level span whose end is set by [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, start: Instant, req_id: u64) -> u32 {
        self.push(name, start, start, NO_PARENT, req_id)
    }

    pub fn close(&mut self, index: u32, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(span) = self.spans.get_mut(index as usize) {
            span.end_ns = end_ns;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends `other`'s spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// One JSON object per line: `{name, start_ns, end_ns, parent, req_id,
    /// self_ns}` (`parent` is a line index, -1 for roots).
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        for (span, self_ns) in self.spans.iter().zip(self_ns) {
            let parent = if span.parent == NO_PARENT {
                -1
            } else {
                span.parent as i64
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req_id\":{},\"self_ns\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.req_id, self_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// its direct children cover (overlapping children are counted once, and a
/// child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(list) = children.get_mut(span.parent as usize) {
            list.push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Mean self time per span name, in first-appearance order: the rows of
/// the depth ledger.
pub fn mean_self_by_name(spans: &[Span]) -> Vec<(&'static str, f64, usize)> {
    let mut rows: Vec<(&'static str, u64, usize)> = Vec::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        match rows.iter_mut().find(|row| row.0 == span.name) {
            Some(row) => {
                row.1 += self_ns;
                row.2 += 1;
            }
            None => rows.push((span.name, self_ns, 1)),
        }
    }
    rows.into_iter()
        .map(|(name, total, n)| (name, total as f64 / n as f64, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_child_cover() {
        let spans = [
            span("request", 100, 200, NO_PARENT),
            span("send", 100, 130, 0),
            span("recv", 170, 200, 0),
            span("syscall", 175, 195, 2),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 10, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("request", 100, 200, NO_PARENT),
            span("a", 110, 150, 0),
            span("b", 140, 160, 0), // overlaps a by 10
            span("c", 190, 260, 0), // overhangs the parent by 60
            span("d", 120, 130, 0), // inside a
        ];
        // Cover: [110,160) = 50 and [190,200) = 10.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn absorb_rebases_parents_and_jsonl_round_trips_fields() {
        let origin = Instant::now();
        let at = |ns| origin + std::time::Duration::from_nanos(ns);
        let mut a = SpanLog::new(origin, 8);
        a.push("solo", at(0), at(5), NO_PARENT, 7);
        let mut b = SpanLog::new(origin, 8);
        let root = b.open("request", at(10), 9);
        b.push("call", at(12), at(18), root, 9);
        b.close(root, at(20));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        let mut text = Vec::new();
        a.write_jsonl(&mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[1],
            "{\"name\":\"request\",\"start_ns\":10,\"end_ns\":20,\"parent\":-1,\"req_id\":9,\"self_ns\":4}"
        );
        assert_eq!(mean_self_by_name(a.spans())[2], ("call", 6.0, 1));
    }

    #[test]
    fn a_full_log_drops_spans_instead_of_growing() {
        let origin = Instant::now();
        let mut log = SpanLog::new(origin, 1);
        assert_eq!(log.push("kept", origin, origin, NO_PARENT, 0), 0);
        assert_eq!(log.push("dropped", origin, origin, 0, 0), NO_PARENT);
        log.close(NO_PARENT, origin);
        assert_eq!(log.len(), 1);
    }
}
