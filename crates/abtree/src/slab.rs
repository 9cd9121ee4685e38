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
//! Slots are carved from 2 MiB blocks aligned to 2 MiB, so that a block
//! can be one transparent huge page.  A big tree's descent touches a node
//! per level, each in a different 4 KiB page; with 4 KiB pages every level
//! past the TLB's reach (~8 MiB of nodes: 1.5-2k second-level entries)
//! costs a page walk.  So once the slab has carved [`HUGE_AFTER_BYTES`],
//! every new block is advised `MADV_HUGEPAGE`, and the blocks before that
//! `MADV_NOHUGEPAGE`: a huge page is resident in full at its first touch,
//! so the newest, partly carved block can cost up to 2 MiB it does not use
//! yet, which only a node set past the TLB's reach pays back.  On a host
//! whose huge pages are off (`never`, or a kernel without them) the advice
//! does nothing or fails, and every block stays on 4 KiB pages, where
//! uncarved slots cost no resident memory.
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
pub const SLOT_BYTES: usize = 232;

/// Alignment of every slot.
pub const SLOT_ALIGN: usize = 8;

/// Free slots a magazine holds: the unit a thread cache trades with the
/// depot.
const MAGAZINE: usize = 64;

/// Size and alignment of a block taken from the system allocator: one
/// huge page.
pub const BLOCK_BYTES: usize = 2 << 20;

/// Slots per block (9,039; the last 152 bytes of a block are never used).
const BLOCK_SLOTS: usize = BLOCK_BYTES / SLOT_BYTES;

/// Blocks carved after the first this many bytes of blocks are advised onto
/// huge pages; the ones before stay on 4 KiB pages.
pub const HUGE_AFTER_BYTES: usize = 8 << 20;

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
    /// Blocks taken so far.
    blocks: usize,
}

// SAFETY: the depot holds free slots only, which no thread references.
unsafe impl Send for Depot {}

static DEPOT: Mutex<Depot> = Mutex::new(Depot {
    magazines: Vec::new(),
    next: ptr::null_mut(),
    end: ptr::null_mut(),
    blocks: 0,
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
                let layout = Layout::from_size_align(BLOCK_BYTES, BLOCK_BYTES)
                    .expect("the block layout is valid");
                // SAFETY: the layout has a non-zero size.
                let block = unsafe { std::alloc::alloc(layout) };
                if block.is_null() {
                    handle_alloc_error(layout);
                }
                advise(block, self.blocks * BLOCK_BYTES >= HUGE_AFTER_BYTES);
                self.blocks += 1;
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

/// Asks the kernel to back `block` with one huge page, or never to.  A
/// refusal (a kernel without huge pages) leaves 4 KiB pages, which are
/// correct too, so its error is ignored.
#[cfg(target_os = "linux")]
fn advise(block: *mut u8, huge: bool) {
    const MADV_HUGEPAGE: i32 = 14;
    const MADV_NOHUGEPAGE: i32 = 15;
    extern "C" {
        fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }
    let advice = if huge { MADV_HUGEPAGE } else { MADV_NOHUGEPAGE };
    // SAFETY: `block` starts a live allocation of `BLOCK_BYTES` aligned to
    // `BLOCK_BYTES`, hence page-aligned, and these two advices change only
    // which page size backs it, never its contents.
    unsafe { madvise(block, BLOCK_BYTES, advice) };
}

#[cfg(not(target_os = "linux"))]
fn advise(_block: *mut u8, _huge: bool) {}

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
pub fn alloc() -> *mut u8 {
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
pub unsafe fn release(slot: *mut u8) {
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
