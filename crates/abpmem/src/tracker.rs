//! Flush/fence event tracking for tests.
//!
//! The durable trees' correctness rests on *ordering* properties — e.g. the
//! link-and-persist rule of §5: a newly created node must be flushed before
//! the pointer that links it into the tree is flushed, and a marked pointer
//! must be flushed before its mark is removed.  The tracker records the exact
//! global sequence of flush and fence events so unit tests can assert such
//! orderings.
//!
//! Tracking sessions also act as a cross-test mutex: because the persist mode
//! and the event log are process-global, any test that manipulates them takes
//! a [`TrackingSession`], and sessions serialize through one static lock.
//!
//! Recording costs nothing while no session is live: a flush or fence
//! loads one relaxed flag and returns, and only takes the log's lock while
//! the flag is up.  A session raises the flag when it starts and lowers it
//! when it finishes or drops, both under that lock, so the flag is read
//! again under the lock before an event is pushed.  A flush racing a
//! session's start or end may or may not be recorded; a flush that
//! happens-before the start (or after the end) never is.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One recorded persistence event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushEvent {
    /// A flush of the cache lines overlapping `[addr, addr + len)`.
    Flush {
        /// Starting address of the flushed range.
        addr: usize,
        /// Length of the flushed range in bytes.
        len: usize,
    },
    /// A store fence.
    Fence,
}

impl FlushEvent {
    /// Returns `true` if this event is a flush covering address `addr`.
    pub fn covers(&self, target: usize) -> bool {
        match *self {
            FlushEvent::Flush { addr, len } => target >= addr && target < addr + len,
            FlushEvent::Fence => false,
        }
    }
}

/// Up while a session is live; written only under the [`EVENTS`] lock.
static RECORDING: AtomicBool = AtomicBool::new(false);
static EVENTS: Mutex<Vec<FlushEvent>> = Mutex::new(Vec::new());
static SESSION_LOCK: Mutex<()> = Mutex::new(());

/// The log; a push or a swap leaves it valid at every step, so a panic
/// elsewhere while it was held does not poison it.
fn events() -> MutexGuard<'static, Vec<FlushEvent>> {
    EVENTS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn record(event: FlushEvent) {
    if !RECORDING.load(Ordering::Relaxed) {
        return;
    }
    let mut log = events();
    // Re-read under the lock: the session may have ended since.
    if RECORDING.load(Ordering::Relaxed) {
        log.push(event);
    }
}

pub(crate) fn record_flush(addr: usize, len: usize) {
    record(FlushEvent::Flush { addr, len });
}

pub(crate) fn record_fence() {
    record(FlushEvent::Fence);
}

/// A scoped tracking session.
///
/// Starting a session clears the event log and enables recording; calling
/// [`TrackingSession::finish`] (or dropping the session) disables recording.
/// Only one session can exist at a time; concurrent attempts block, which
/// conveniently serializes tests that depend on the global persist mode.
pub struct TrackingSession {
    _serial: MutexGuard<'static, ()>,
}

impl TrackingSession {
    /// Begins recording flush/fence events (clearing any previous log).
    pub fn start() -> Self {
        let serial = SESSION_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let mut log = events();
        log.clear();
        RECORDING.store(true, Ordering::Relaxed);
        drop(log);
        Self { _serial: serial }
    }

    /// Returns a snapshot of the events recorded so far without ending the
    /// session.
    pub fn snapshot(&self) -> Vec<FlushEvent> {
        events().clone()
    }

    /// Stops recording and returns all recorded events.
    pub fn finish(self) -> Vec<FlushEvent> {
        let mut log = events();
        RECORDING.store(false, Ordering::Relaxed);
        std::mem::take(&mut *log)
        // `self._serial` dropped afterwards, releasing the session lock.
    }

    /// Asserts that some flush covering `earlier` appears before some flush
    /// covering `later` in the recorded sequence.  Panics with a descriptive
    /// message otherwise.  Intended for use in tests.
    pub fn assert_flushed_before(events: &[FlushEvent], earlier: usize, later: usize) {
        let first_earlier = events.iter().position(|e| e.covers(earlier));
        let first_later = events.iter().position(|e| e.covers(later));
        match (first_earlier, first_later) {
            (Some(a), Some(b)) => assert!(
                a < b,
                "expected a flush of {earlier:#x} (index {a}) before the first flush of {later:#x} (index {b})"
            ),
            (None, _) => panic!("no flush covering {earlier:#x} was recorded"),
            (_, None) => panic!("no flush covering {later:#x} was recorded"),
        }
    }
}

impl Drop for TrackingSession {
    fn drop(&mut self) {
        let _log = events();
        RECORDING.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{flush_value, set_mode, sfence, PersistMode};

    #[test]
    fn session_records_and_clears() {
        let session = TrackingSession::start();
        set_mode(PersistMode::CountOnly);
        let x = 5u32;
        flush_value(&x);
        sfence();
        assert_eq!(session.snapshot().len(), 2);
        let events = session.finish();
        assert_eq!(events.len(), 2);

        // A new session starts from an empty log.
        let session2 = TrackingSession::start();
        assert!(session2.snapshot().is_empty());
        drop(session2);
    }

    #[test]
    fn flushes_outside_a_session_record_nothing() {
        let x = 5u64;
        {
            // Holding the session lock keeps every other session out.
            let _serial = SESSION_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
            events().clear();
            set_mode(PersistMode::CountOnly);
            flush_value(&x);
            sfence();
            assert!(events().is_empty(), "recorded with no live session");
        }
        let session = TrackingSession::start();
        let y = 6u64;
        flush_value(&y);
        assert_eq!(
            session.finish(),
            [FlushEvent::Flush {
                addr: &y as *const u64 as usize,
                len: 8
            }],
            "a session sees only its own events"
        );
    }

    #[test]
    fn covers_predicate() {
        let e = FlushEvent::Flush { addr: 100, len: 8 };
        assert!(e.covers(100));
        assert!(e.covers(107));
        assert!(!e.covers(108));
        assert!(!FlushEvent::Fence.covers(100));
    }

    #[test]
    fn assert_flushed_before_works() {
        let events = vec![
            FlushEvent::Flush { addr: 0x10, len: 8 },
            FlushEvent::Fence,
            FlushEvent::Flush { addr: 0x80, len: 8 },
        ];
        TrackingSession::assert_flushed_before(&events, 0x10, 0x80);
    }

    #[test]
    #[should_panic(expected = "before the first flush")]
    fn assert_flushed_before_detects_violation() {
        let events = vec![
            FlushEvent::Flush { addr: 0x80, len: 8 },
            FlushEvent::Flush { addr: 0x10, len: 8 },
        ];
        TrackingSession::assert_flushed_before(&events, 0x10, 0x80);
    }
}
