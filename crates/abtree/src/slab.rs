//! The node slab: where every tree node lives, instead of in malloc.
//!
//! Nodes are born and die at a high rate (a splitting insert makes three
//! and retires one) and are freed by whichever thread's reclamation pass
//! finds them safe, which need not be the thread that made them.  Through
//! malloc that meant a 256-byte chunk per 232-byte node, and a node
//! allocated by one thread's arena coming back to another's.  Here they are
//! 232-byte slots carved from large blocks and recycled:
//!
//! * each thread keeps a cache of two *magazines* (stacks of up to
//!   `MAGAZINE` free slots, linked through the slots themselves), so
//!   `alloc` and `release` take no lock;
//! * a thread whose magazines are both empty takes a full one from the
//!   shared **depot** (or carves a fresh one there); a thread whose
//!   magazines are both full hands one to the depot.  That is one lock per
//!   `MAGAZINE` slots, whichever way the slots flow between threads;
//! * a thread that exits returns its magazines to the depot.
//!
//! Blocks are never returned to the system allocator: a freed slot is
//! reused by the next node, of any tree.  [`carved`] counts the slots ever
//! carved, so a test can tell reuse from growth.

use std::alloc::{handle_alloc_error, Layout};
use std::cell::RefCell;
use std::ptr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Size of one slot: exactly one `Node<McsLock>` (the node module asserts
/// every node type fits).
pub(crate) const SLOT_BYTES: usize = 232;

/// Alignment of every slot.
pub(crate) const SLOT_ALIGN: usize = 8;

/// Free slots a magazine holds: the unit a thread cache trades with the
/// depot.
const MAGAZINE: usize = 64;

/// Slots per block taken from the system allocator (~0.9 MiB: big enough
/// that malloc maps it, so slots not yet carved cost no resident memory).
const BLOCK_SLOTS: usize = 4096;

/// A free slot's first word links it to the next free slot.
struct FreeSlot {
    next: *mut FreeSlot,
}

/// A stack of free slots.
struct Magazine {
    top: *mut FreeSlot,
    len: usize,
}

impl Magazine {
    const EMPTY: Magazine = Magazine {
        top: ptr::null_mut(),
        len: 0,
    };

    fn push(&mut self, slot: *mut u8) {
        let slot = slot.cast::<FreeSlot>();
        // SAFETY: `slot` is a free slot of at least `SLOT_BYTES`, aligned
        // for a pointer, and nothing else references it.
        unsafe { slot.write(FreeSlot { next: self.top }) };
        self.top = slot;
        self.len += 1;
    }

    fn pop(&mut self) -> Option<*mut u8> {
        if self.top.is_null() {
            return None;
        }
        let slot = self.top;
        // SAFETY: every slot on the stack was written by `push`.
        self.top = unsafe { (*slot).next };
        self.len -= 1;
        Some(slot.cast())
    }
}

/// The shared pool behind the thread caches.
struct Depot {
    /// Magazines handed back by threads, full except for those of exited
    /// threads.
    magazines: Vec<Magazine>,
    /// The uncarved rest of the newest block.
    next: *mut u8,
    end: *mut u8,
}

// SAFETY: the depot holds free slots only, which no thread references.
unsafe impl Send for Depot {}

static DEPOT: Mutex<Depot> = Mutex::new(Depot {
    magazines: Vec::new(),
    next: ptr::null_mut(),
    end: ptr::null_mut(),
});

static CARVED: AtomicUsize = AtomicUsize::new(0);

fn depot() -> MutexGuard<'static, Depot> {
    // Nothing panics halfway through a depot update, so a poisoned depot
    // is still a consistent one.
    DEPOT
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Depot {
    /// A magazine of free slots: one handed back if there is one, else
    /// [`MAGAZINE`] slots carved from the current block.
    fn take(&mut self) -> Magazine {
        if let Some(magazine) = self.magazines.pop() {
            return magazine;
        }
        let mut magazine = Magazine::EMPTY;
        for _ in 0..MAGAZINE {
            if self.next == self.end {
                let layout = Layout::from_size_align(BLOCK_SLOTS * SLOT_BYTES, 64)
                    .expect("the block layout is valid");
                // SAFETY: the layout has a non-zero size.
                let block = unsafe { std::alloc::alloc(layout) };
                if block.is_null() {
                    handle_alloc_error(layout);
                }
                self.next = block;
                // SAFETY: one past the end of the block just allocated.
                self.end = unsafe { block.add(BLOCK_SLOTS * SLOT_BYTES) };
            }
            magazine.push(self.next);
            // SAFETY: `next < end`, and both lie in one block.
            self.next = unsafe { self.next.add(SLOT_BYTES) };
        }
        CARVED.fetch_add(MAGAZINE, Ordering::Relaxed);
        magazine
    }

    fn give(&mut self, magazine: Magazine) {
        if magazine.len > 0 {
            self.magazines.push(magazine);
        }
    }
}

/// One thread's cache: `spare` is always empty or full.
struct Cache {
    loaded: Magazine,
    spare: Magazine,
}

impl Cache {
    fn alloc(&mut self) -> *mut u8 {
        if let Some(slot) = self.loaded.pop() {
            return slot;
        }
        if self.spare.len > 0 {
            std::mem::swap(&mut self.loaded, &mut self.spare);
        } else {
            self.loaded = depot().take();
        }
        self.loaded.pop().expect("a fresh magazine holds slots")
    }

    fn release(&mut self, slot: *mut u8) {
        if self.loaded.len == MAGAZINE {
            if self.spare.len > 0 {
                depot().give(std::mem::replace(&mut self.spare, Magazine::EMPTY));
            }
            std::mem::swap(&mut self.loaded, &mut self.spare);
        }
        self.loaded.push(slot);
    }
}

impl Drop for Cache {
    fn drop(&mut self) {
        let mut depot = depot();
        depot.give(std::mem::replace(&mut self.loaded, Magazine::EMPTY));
        depot.give(std::mem::replace(&mut self.spare, Magazine::EMPTY));
    }
}

thread_local! {
    static CACHE: RefCell<Cache> = const {
        RefCell::new(Cache {
            loaded: Magazine::EMPTY,
            spare: Magazine::EMPTY,
        })
    };
}

/// A free slot of [`SLOT_BYTES`] bytes, aligned to [`SLOT_ALIGN`].
pub(crate) fn alloc() -> *mut u8 {
    CACHE
        .try_with(|cache| cache.borrow_mut().alloc())
        .unwrap_or_else(|_| {
            // This thread's cache is already torn down (a node made by
            // another thread-local's destructor): go to the depot.
            let mut depot = depot();
            let mut magazine = depot.take();
            let slot = magazine.pop().expect("a fresh magazine holds slots");
            depot.give(magazine);
            slot
        })
}

/// Returns a slot from [`alloc`] for reuse.
///
/// # Safety
/// `slot` came from [`alloc`], is not released twice, and nothing
/// references it any more.
pub(crate) unsafe fn release(slot: *mut u8) {
    if CACHE
        .try_with(|cache| cache.borrow_mut().release(slot))
        .is_err()
    {
        // Freed by a thread-local destructor (a reclamation session's
        // last flush) after this thread's cache was torn down.
        let mut magazine = Magazine::EMPTY;
        magazine.push(slot);
        depot().give(magazine);
    }
}

/// Slots carved from the system allocator so far, process-wide.  Flat
/// while nodes are only recycled.
pub fn carved() -> usize {
    CARVED.load(Ordering::Relaxed)
}
