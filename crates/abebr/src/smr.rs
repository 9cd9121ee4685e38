//! The safe-memory-reclamation (SMR) front door: the [`SmrPolicy`]
//! selector and the [`Collector`] both policies share.
//!
//! One interface — register a thread, pin to a guard, retire through the
//! guard, flush, observe stats — runs under either reclamation scheme:
//!
//! * **EBR** ([`SmrPolicy::Ebr`], the default) — epoch-based reclamation.
//!   Pins are a single epoch announcement, retirement does no global
//!   read-modify-write, and readers never touch per-object state.  The
//!   failure mode: one stalled reader freezes the epoch and *all* garbage
//!   accumulates behind it, unboundedly.
//! * **HP** ([`SmrPolicy::Hp`]) — hybrid hazard pointers.  Point-operation
//!   readers protect the O(1) nodes they actually hold, so a stalled reader
//!   blocks at most [`crate::HAZARD_SLOTS`] objects plus whatever was
//!   retired after it pinned; everything else keeps reclaiming.
//!
//! [`Collector`], [`LocalHandle`] and [`Guard`](crate::Guard) are plain
//! structs over one core, so structure code is written once against them
//! and runs under either scheme.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use crate::collector::{CollectorStats, Inner};
use crate::local::{Local, LocalHandle};

/// Which reclamation policy a [`Collector`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SmrPolicy {
    /// Epoch-based reclamation (the crate's original scheme): cheapest
    /// pins, batched reclamation, but a stalled reader blocks *all*
    /// reclamation.
    #[default]
    Ebr,
    /// Hazard pointers: point-operation readers announce the specific
    /// nodes they hold, so garbage stays bounded under a stalled reader at
    /// the cost of a store + fence per descent step.
    Hp,
}

impl SmrPolicy {
    /// Every selectable policy, in registry order.
    pub const ALL: [SmrPolicy; 2] = [SmrPolicy::Ebr, SmrPolicy::Hp];

    /// The short name used on flags and in benchmark rows (`"ebr"`/`"hp"`).
    pub fn name(self) -> &'static str {
        match self {
            SmrPolicy::Ebr => "ebr",
            SmrPolicy::Hp => "hp",
        }
    }
}

impl fmt::Display for SmrPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SmrPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ebr" => Ok(SmrPolicy::Ebr),
            "hp" => Ok(SmrPolicy::Hp),
            other => Err(format!("unknown SMR policy {other:?} (expected ebr|hp)")),
        }
    }
}

/// The thread-registration table of a collector is full.
///
/// Returned by [`Collector::try_register`] when all [`crate::MAX_THREADS`]
/// slots are claimed.  Long-lived servers that spawn workers on demand
/// should treat this as a service error (refuse the new worker), not a
/// crash; the infallible [`Collector::register`] panics instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegisterError {
    /// The slot capacity that was exhausted ([`crate::MAX_THREADS`]).
    pub capacity: usize,
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "abebr: more than {} threads registered with one collector",
            self.capacity
        )
    }
}

impl std::error::Error for RegisterError {}

/// A garbage collector shared by all threads operating on one (or several)
/// concurrent data structures, running epoch-based reclamation by default
/// or hazard pointers ([`Collector::new_hp`] / [`Collector::with_policy`]).
///
/// `Collector` is cheaply cloneable (it is a reference-counted handle);
/// every clone refers to the same shared state.  Threads take part through
/// the owned [`LocalHandle`] that [`Collector::register`] returns.
#[derive(Debug, Clone)]
pub struct Collector {
    inner: Arc<Inner>,
}

impl Default for Collector {
    fn default() -> Self {
        Self::new()
    }
}

impl Collector {
    /// Creates a new epoch-based collector with no registered threads.
    pub fn new() -> Self {
        Self::with_policy(SmrPolicy::Ebr)
    }

    /// Creates a new hazard-pointer collector with no registered threads.
    pub fn new_hp() -> Self {
        Self::with_policy(SmrPolicy::Hp)
    }

    /// Creates a collector running the given reclamation policy.
    pub fn with_policy(policy: SmrPolicy) -> Self {
        Self {
            inner: Arc::new(Inner::new(policy)),
        }
    }

    /// The reclamation policy this collector runs.
    pub fn policy(&self) -> SmrPolicy {
        self.inner.policy
    }

    /// Registers the calling thread and returns an **owned**
    /// [`LocalHandle`], through which it pins, retires and flushes.  Call
    /// once per worker thread (or session) and keep the handle; each call
    /// claims a fresh slot, so a thread may hold several independent
    /// handles.
    ///
    /// Panics when all [`crate::MAX_THREADS`] slots are taken; services
    /// that spawn workers on demand should call
    /// [`try_register`](Collector::try_register) and surface the error.
    pub fn register(&self) -> LocalHandle {
        self.try_register().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible sibling of [`register`](Collector::register): returns
    /// [`RegisterError`] instead of panicking when the slot table is full.
    pub fn try_register(&self) -> Result<LocalHandle, RegisterError> {
        Local::register(Arc::clone(&self.inner)).map(LocalHandle::new)
    }

    /// Returns current statistics (see [`CollectorStats`] for the field
    /// meanings under each policy).
    pub fn stats(&self) -> CollectorStats {
        self.inner.stats()
    }

    /// Debug/testing helper: does any registered thread currently hold an
    /// observable pin (an announced epoch or watermark, or a non-null
    /// hazard slot)?
    pub fn debug_any_thread_pinned(&self) -> bool {
        self.inner.any_thread_pinned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parse_display_round_trip() {
        for p in SmrPolicy::ALL {
            assert_eq!(p.name().parse::<SmrPolicy>().unwrap(), p);
            assert_eq!(format!("{p}").parse::<SmrPolicy>().unwrap(), p);
        }
        assert!("circ".parse::<SmrPolicy>().is_err());
        assert_eq!(SmrPolicy::default(), SmrPolicy::Ebr);
    }

    #[test]
    fn with_policy_selects_the_backend() {
        assert_eq!(Collector::new().policy(), SmrPolicy::Ebr);
        assert_eq!(Collector::new_hp().policy(), SmrPolicy::Hp);
        for p in SmrPolicy::ALL {
            let c = Collector::with_policy(p);
            assert_eq!(c.policy(), p);
            assert_eq!(c.clone().policy(), p, "clones share the backend");
        }
    }

    /// A refused `try_register` claims no slot, so it is no registration.
    #[test]
    fn refused_registrations_are_not_counted() {
        for p in SmrPolicy::ALL {
            let c = Collector::with_policy(p);
            let held: Vec<_> = (0..crate::MAX_THREADS).map(|_| c.register()).collect();
            let before = c.stats().registrations;
            for _ in 0..3 {
                c.try_register().expect_err("slot table is full");
            }
            assert_eq!(c.stats().registrations, before, "{p}");
            drop(held);
        }
    }

    #[test]
    fn both_backends_run_the_basic_lifecycle() {
        for p in SmrPolicy::ALL {
            let c = Collector::with_policy(p);
            let handle = c.register();
            crate::retire_new(&handle.pin(), 7u64);
            for _ in 0..8 {
                handle.flush(); // garbage sits in the handle's own retire list
            }
            let s = c.stats();
            assert_eq!(s.retired, 1, "{p}");
            assert_eq!(s.freed, 1, "{p}");
            assert_eq!(s.unreclaimed, 0, "{p}");
        }
    }
}
