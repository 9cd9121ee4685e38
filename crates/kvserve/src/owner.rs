//! The shard-owner runtime: one thread per shard, fed by per-client SPSC
//! lanes, parked when idle — the durable `crashkv` service's runtime.
//!
//! A shard is served by exactly one **owner** thread running
//! [`run_owner`].  Each client opens a [`ClientLane`] on the shard's
//! [`Mailbox`] (one bounded job ring and one reply ring from
//! [`crate::queue`]) and the owner drains every lane in *runs*, so a drain
//! executes many jobs against owner-local state with no per-job
//! synchronization.  A service needs this when one thread must decide
//! something for the whole shard: crashkv's group fence has a single
//! committer.  The volatile [`crate::KvService`] needs no owner — every
//! request runs on the client's own tree session (`crate::router`).
//!
//! What happens to a job, and when its reply may leave, is the
//! [`CommitPolicy`] the loop is monomorphised over.  The policy
//! [`hold`](OwnerLane::hold)s every reply and declares a
//! [`group_limit`](CommitPolicy::group_limit); the loop closes the group at
//! a [`boundary`](CommitPolicy::boundary) (the durable `crashkv` policy
//! issues its covering fence there) and only then releases the held
//! replies — or, if the policy [`Abort`](Verdict::Abort)s, answers them all
//! with the abort reply and goes on serving.  One owner serves its shard
//! from start to shutdown.
//!
//! ## One scan of the loop
//!
//! adopt lanes deposited since the last scan → drain each lane (capped at
//! the group limit) → boundary if the group is full, or if the lanes ran
//! dry with replies held (so a lone window-1 client never waits for a
//! group that will not fill) → prune lanes whose client is gone → spin (if
//! another CPU can answer) → publish `idle` → re-scan → park.
//!
//! ## The wake-up handshake: one doorbell per window
//!
//! Waking a parked owner is a futex call, and with client and owner on one
//! core it is also a preemption: the owner runs, serves whatever is queued
//! and parks again.  Paid per push, that is one context switch per request
//! and runs of length one; so a push only *marks* its lane as having
//! unannounced jobs, and the **doorbell** — `fence(SeqCst)`, load `idle`,
//! unpark if it is up — rings once, when the client is about to wait:
//!
//! * [`ClientLane::recv_from`] (and [`recv`](ClientLane::recv)) rings when
//!   it finds the reply ring empty — every lane of the client that has
//!   unannounced jobs, not only the one it waits on, so the other shards
//!   work while the client waits on this one;
//! * [`ClientLane::ring`] is the explicit form, for a client that sends and
//!   then waits on something other than a receive (the durable router's
//!   `flush`);
//! * dropping a lane hangs up and rings, so jobs abandoned unannounced are
//!   still drained and the lane is pruned.
//!
//! Only the syscall is deferred: a busy owner sees every push on its next
//! scan, exactly as before.  A send alone therefore does **not** guarantee
//! that a parked owner wakes; a receive, a `ring` or the drop does.
//!
//! The owner does *store `idle`, `fence(SeqCst)`, re-scan* before it parks;
//! the doorbell does *`fence(SeqCst)`, load `idle`* after the client's last
//! push.  The two fences still pair: either the doorbell sees the flag and
//! unparks, or the owner's re-scan sees every push made before the
//! doorbell.  Without them the pushes can be ordered after the flag load
//! while the re-scan still reads an empty lane, and the client waits
//! forever on a parked owner.  The lost-wake-up window is now between the
//! *last* push and the doorbell, which is why a client must not block
//! between the two on anything but a receive.
//!
//! ## Spin, then park: spin only while another CPU can answer
//!
//! Both waits spin briefly before they give the CPU away: an idle owner
//! re-scans its lanes `IDLE_SPINS` (64) times before it parks, and a
//! client polls an empty reply ring `REPLY_SPINS` (128) times before it
//! yields.  A spin pays only while the thread being waited for runs at the
//! same time (Karlin et al., "Empirical Studies of Competitive Spinning for
//! a Shared-Memory Multiprocessor", SOSP 1991).  A process that may run on
//! one CPU only (an affinity mask or a cgroup quota of one) therefore gets
//! a budget of zero at both sites: the owner parks on the first quiet scan
//! and the client yields on the first empty poll, so neither burns the one
//! core the other needs.  The CPU count is read once per owner
//! ([`run_owner`]) and once per lane ([`Mailbox::open_lane`]), never on a
//! wait.  The handshake above does not depend on the budget; a budget of
//! zero only reaches it sooner.

use std::collections::VecDeque;
use std::num::{NonZeroU32, NonZeroUsize};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::Thread;

use crate::queue::{self, Consumer, Producer, PushError};
use crate::LANE_CAPACITY;

/// How many consecutive empty scans the owner tolerates before it
/// advertises idleness and parks, when another CPU can run a client that
/// may push meanwhile (see [`spins_on`]).
const IDLE_SPINS: u32 = 64;

/// How many times a client polls an empty reply lane before it starts
/// yielding, when another CPU can run the owner that fills it (see
/// [`spins_on`]).
const REPLY_SPINS: u32 = 128;

/// The spin budget `spins` on a process that may run on `cpus` CPUs: all of
/// it when another CPU can run the awaited thread, none on one CPU, where
/// every spin delays the thread that would answer.  With every service
/// thread on one core (the ledger's placement, on a 2-vCPU x86-64 host),
/// zero at both sites — together with taking `abpmem`'s tracker lock and
/// shared counters off every flush — took `durable-group-commit` from
/// 1.244M to 1.492M acknowledged ops/s (medians, 10 of 10 interleaved 10-s
/// pairs) and `crashkv.owner_self_ns` from 379/141 to 95/68 ns (traced, two
/// seeds).
const fn spins_on(cpus: usize, spins: u32) -> u32 {
    if cpus > 1 {
        spins
    } else {
        0
    }
}

/// The CPUs this process may run on, as the affinity mask and the cgroup
/// quota allow (1 if that cannot be read: parking is always correct).
/// Costs syscalls and file reads, so it is read at set-up, never on a wait.
fn available_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// How a [`boundary`](CommitPolicy::boundary) closes the open group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict<R> {
    /// Release the held replies.
    Continue,
    /// Answer every held reply with this value instead of its own, then
    /// keep serving: jobs still queued in the lanes form the next group.
    Abort(R),
}

/// How an owner applies jobs and when their replies may leave.
///
/// All hooks run on the owner thread, between jobs.
pub trait CommitPolicy {
    /// What clients send.
    type Job;
    /// What they get back (cloned only to fan an abort reply out).
    type Reply: Clone;

    /// The loop calls [`boundary`](Self::boundary) after at most this many
    /// applied jobs.
    fn group_limit(&self) -> NonZeroU32;

    /// Executes one job and [`hold`](OwnerLane::hold)s its reply on `lane`.
    fn apply(&mut self, job: Self::Job, lane: &mut OwnerLane<Self::Job, Self::Reply>);

    /// The open group closes: make everything applied since the last
    /// boundary safe to acknowledge, or abort it.
    fn boundary(&mut self) -> Verdict<Self::Reply> {
        Verdict::Continue
    }

    /// A scan found no work and no group is open, so no reply is held.
    fn idle(&mut self) {}
}

/// The owner's end of one client's lane pair, plus the replies held for
/// the open group (released, in FIFO order, after the boundary).
pub struct OwnerLane<J, R> {
    jobs: Consumer<J>,
    replies: Producer<R>,
    held: VecDeque<R>,
}

impl<J, R> OwnerLane<J, R> {
    /// Parks `reply` until the loop releases the group it belongs to.
    #[inline]
    pub fn hold(&mut self, reply: R) {
        self.held.push_back(reply);
    }

    /// Releases every held reply, oldest first.
    pub fn release_held(&mut self) {
        while let Some(reply) = self.held.pop_front() {
            self.push(reply);
        }
    }

    /// The client bounds its in-flight jobs by [`LANE_CAPACITY`], so a live
    /// reply ring always has room; a disconnected one means the client is
    /// gone and the reply is undeliverable — it is dropped.
    #[inline]
    fn push(&mut self, reply: R) {
        match self.replies.try_push(reply) {
            Ok(()) | Err(PushError::Disconnected(_)) => {}
            Err(PushError::Full(_)) => unreachable!("reply lane overflowed its in-flight cap"),
        }
    }

    /// A lane is dead once its client dropped its half, every queued job
    /// has been drained and no reply is held.
    fn is_dead(&self) -> bool {
        self.jobs.is_disconnected() && self.jobs.is_empty() && self.held.is_empty()
    }
}

/// Shared coordination state of one shard: the lanes waiting for its
/// owner, and the idle/park/shutdown handshake with that owner.
pub struct Mailbox<J, R> {
    /// Lanes opened by clients and not yet adopted.  Locked on lane open
    /// and on adoption — never on the request path.
    pending_lanes: Mutex<Vec<OwnerLane<J, R>>>,
    /// Bumped on every deposit (and by [`notify`](Self::notify)); the
    /// owner looks into the mailbox only when it moves.
    lane_generation: AtomicU64,
    /// Raised by the owner just before parking; doorbells unpark only when
    /// it is up.
    idle: AtomicBool,
    /// Unparks issued because `idle` was up: the doorbells that cost a
    /// syscall.
    wakes: AtomicU64,
    shutdown: AtomicBool,
    /// The owner thread, registered by [`run_owner`] itself.
    owner: OnceLock<Thread>,
}

impl<J, R> Default for Mailbox<J, R> {
    /// An empty mailbox with no owner yet.
    fn default() -> Self {
        Self {
            pending_lanes: Mutex::new(Vec::new()),
            lane_generation: AtomicU64::new(0),
            idle: AtomicBool::new(false),
            wakes: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            owner: OnceLock::new(),
        }
    }
}

impl<J, R> Mailbox<J, R> {
    /// Opens a client lane: deposits the owner's half for the owner to
    /// adopt and returns the client's half.
    pub fn open_lane(self: &Arc<Self>) -> ClientLane<J, R> {
        let (jobs, owner_jobs) = queue::channel(LANE_CAPACITY);
        let (owner_replies, replies) = queue::channel(LANE_CAPACITY);
        self.pending_lanes
            .lock()
            .expect("lane mailbox poisoned")
            .push(OwnerLane {
                jobs: owner_jobs,
                replies: owner_replies,
                held: VecDeque::new(),
            });
        self.notify();
        ClientLane {
            mailbox: Arc::clone(self),
            jobs,
            replies,
            in_flight: 0,
            unannounced: false,
            reply_spins: spins_on(available_cpus(), REPLY_SPINS),
        }
    }

    /// Makes the owner run one more scan even if no lane has work, so it
    /// reaches its policy's [`idle`](CommitPolicy::idle) hook: call after
    /// changing state that hook reads.
    pub fn notify(&self) {
        self.lane_generation.fetch_add(1, Ordering::SeqCst);
        self.wake();
    }

    /// Unparks the owner if (and only if) it advertised itself idle.  The
    /// caller's preceding write must be a `SeqCst` RMW or be followed by a
    /// `fence(SeqCst)`; see the module docs.
    fn wake(&self) {
        if self.idle.load(Ordering::SeqCst) {
            self.wakes.fetch_add(1, Ordering::Relaxed);
            self.unpark();
        }
    }

    /// How many times a doorbell (or [`notify`](Self::notify)) found the
    /// owner idle and unparked it.
    pub fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }

    /// Whether the owner has advertised itself idle: it is parked, or about
    /// to park unless its re-scan finds work.
    pub fn is_idle(&self) -> bool {
        self.idle.load(Ordering::SeqCst)
    }

    fn unpark(&self) {
        if let Some(owner) = self.owner.get() {
            owner.unpark();
        }
    }

    /// Asks the owner to drain its lanes and return from [`run_owner`].
    /// Sticky: an owner that starts afterwards drains and returns too.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.unpark();
    }
}

/// A client's end of one shard's lane pair.
///
/// Sending only queues; the owner is woken by the **doorbell** —
/// `fence(SeqCst)`, then unpark if the owner is idle — which rings when a
/// receive has to wait, on [`ring`](Self::ring), and on drop.  The fence
/// orders every earlier push before the load of the owner's idle flag,
/// which is what rules out the lost wake-up described in the module docs —
/// for every service on this runtime, by construction.
pub struct ClientLane<J, R> {
    mailbox: Arc<Mailbox<J, R>>,
    jobs: Producer<J>,
    replies: Consumer<R>,
    /// Sent-but-unreceived jobs; bounds the occupancy of both rings.
    in_flight: usize,
    /// Jobs were pushed since the last doorbell: a parked owner may not
    /// know about them yet.
    unannounced: bool,
    /// Polls of an empty reply ring before a receive starts yielding.
    reply_spins: u32,
}

impl<J, R> ClientLane<J, R> {
    /// Jobs sent whose reply has not been [`recv`](Self::recv)-ed.
    #[inline]
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Queues `job`; hands it back when [`LANE_CAPACITY`] jobs are already
    /// in flight.  A busy owner picks the job up on its next scan; a parked
    /// one learns of it at the next doorbell (see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if the job ring is disconnected: an owner never drops a lane
    /// its client still holds, so the shard's owner thread died.
    #[inline]
    pub fn try_send(&mut self, job: J) -> Result<(), J> {
        if self.in_flight >= LANE_CAPACITY {
            return Err(job);
        }
        if self.jobs.try_push(job).is_err() {
            panic!("shard lane rejected a push below the in-flight cap (owner thread died?)");
        }
        self.in_flight += 1;
        self.unannounced = true;
        Ok(())
    }

    /// Rings the doorbell if jobs were sent since the last ring: wakes the
    /// owner if it is parked.  Call after sending when the next thing this
    /// thread waits on is not a receive from this client's lanes.
    #[inline]
    pub fn ring(&mut self) {
        if self.unannounced {
            self.unannounced = false;
            fence(Ordering::SeqCst);
            self.mailbox.wake();
        }
    }

    #[inline]
    fn try_recv(&mut self) -> Option<R> {
        let reply = self.replies.try_pop()?;
        self.in_flight -= 1;
        Some(reply)
    }

    /// [`recv_from`](Self::recv_from) for a client with this one lane.
    pub fn recv(&mut self) -> R {
        Self::recv_from(std::slice::from_mut(self), 0)
    }

    /// Receives the reply to the oldest in-flight job of `lanes[index]`,
    /// where `lanes` are all the lanes of one client (one per shard).  If
    /// the reply is not there yet, rings **every** lane with unannounced
    /// jobs — so the other shards work while this one is waited on — and
    /// then waits, spinning briefly and then yielding.
    ///
    /// # Panics
    ///
    /// Panics if the reply ring is disconnected — the owner thread died —
    /// rather than wait forever.
    pub fn recv_from(lanes: &mut [Self], index: usize) -> R {
        debug_assert!(lanes[index].in_flight > 0, "recv with nothing in flight");
        if let Some(reply) = lanes[index].try_recv() {
            return reply;
        }
        for lane in lanes.iter_mut() {
            lane.ring();
        }
        let lane = &mut lanes[index];
        let mut spins = 0u32;
        loop {
            if let Some(reply) = lane.try_recv() {
                return reply;
            }
            assert!(
                !lane.replies.is_disconnected(),
                "shard owner thread died with replies outstanding"
            );
            spins += 1;
            if spins < lane.reply_spins {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

impl<J, R> Drop for ClientLane<J, R> {
    /// Hangs up before the last doorbell, so the owner it wakes drains the
    /// abandoned jobs and prunes the lane in the same scan.
    fn drop(&mut self) {
        self.jobs.close();
        self.ring();
    }
}

/// The shard-owner thread body: serves `mailbox`'s lanes under `policy`
/// and returns once [`Mailbox::begin_shutdown`] was called and every lane
/// is drained (see the module docs for one scan of the loop).
///
/// # Panics
///
/// Panics if the mailbox already had an owner: a shard has exactly one.
pub fn run_owner<P: CommitPolicy>(mailbox: &Mailbox<P::Job, P::Reply>, policy: &mut P) {
    assert!(
        mailbox.owner.set(std::thread::current()).is_ok(),
        "a shard has exactly one owner"
    );
    let idle_spins = spins_on(available_cpus(), IDLE_SPINS);
    let mut lanes: Vec<OwnerLane<P::Job, P::Reply>> = Vec::new();
    let mut seen_generation = 0u64;
    let mut quiet_scans = 0u32;
    // Jobs applied since the last boundary.
    let mut open = 0u32;
    loop {
        let generation = mailbox.lane_generation.load(Ordering::Acquire);
        if generation != seen_generation {
            seen_generation = generation;
            lanes.append(&mut mailbox.pending_lanes.lock().expect("lane mailbox poisoned"));
        }
        let mut served = 0u64;
        let limit = policy.group_limit().get();
        lanes.retain_mut(|lane| {
            // Capping each run at the group's remaining room puts the
            // boundary between runs, never inside one.
            while open < limit {
                let Some(job) = lane.jobs.try_pop() else {
                    break;
                };
                policy.apply(job, lane);
                open += 1;
                served += 1;
            }
            !lane.is_dead()
        });
        let full = open >= limit;
        if open > 0 && (full || served == 0) {
            let verdict = policy.boundary();
            for lane in &mut lanes {
                if let Verdict::Abort(reply) = &verdict {
                    lane.held.iter_mut().for_each(|held| *held = reply.clone());
                }
                lane.release_held();
            }
            open = 0;
            continue;
        }
        if served > 0 {
            quiet_scans = 0;
            continue;
        }
        policy.idle();
        if mailbox.shutdown.load(Ordering::SeqCst) {
            // Callers shut down only once no client can send any more, so
            // drained means done.
            return;
        }
        quiet_scans += 1;
        if quiet_scans < idle_spins {
            std::hint::spin_loop();
            continue;
        }
        // Publish idleness, then re-scan once: a producer that pushed
        // before seeing the flag is caught by the re-scan, one that pushes
        // after seeing it will unpark us.
        mailbox.idle.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let work_arrived = lanes.iter().any(|lane| !lane.jobs.is_empty())
            || mailbox.lane_generation.load(Ordering::SeqCst) != seen_generation
            || mailbox.shutdown.load(Ordering::SeqCst);
        if !work_arrived {
            std::thread::park();
        }
        mailbox.idle.store(false, Ordering::SeqCst);
        quiet_scans = 0;
    }
}

/// Waits until the owner has advertised itself idle and has had time to
/// finish its re-scan and park: for tests that need a parked owner.  Only
/// for a mailbox nobody is sending to.
pub fn wait_parked<J, R>(mailbox: &Mailbox<J, R>) {
    while !mailbox.is_idle() {
        std::thread::yield_now();
    }
    for _ in 0..200 {
        std::thread::yield_now();
    }
    assert!(mailbox.is_idle(), "no work arrived, the owner stays idle");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::mpsc;
    use std::time::Duration;

    const ABORTED: u64 = u64::MAX;

    type Probe = Rc<RefCell<ClientLane<u64, u64>>>;

    /// A policy with no store behind it: echoes each job as its reply,
    /// holds it, and counts what the loop does with the groups.
    #[derive(Default)]
    struct Counting {
        limit: u32,
        open: u32,
        /// Size of every group the loop closed, in order.
        groups: Vec<u32>,
        /// Replies the probed client could see when each group closed.
        visible_at_boundary: Vec<usize>,
        probe: Option<Probe>,
        /// Abort the group with this index instead of releasing it.
        abort_at: Option<usize>,
    }

    impl Counting {
        fn with_limit(limit: u32) -> Self {
            Self {
                limit,
                ..Self::default()
            }
        }
    }

    impl CommitPolicy for Counting {
        type Job = u64;
        type Reply = u64;

        fn group_limit(&self) -> NonZeroU32 {
            NonZeroU32::new(self.limit).expect("a group holds at least one job")
        }

        fn apply(&mut self, job: u64, lane: &mut OwnerLane<u64, u64>) {
            self.open += 1;
            lane.hold(job);
        }

        fn boundary(&mut self) -> Verdict<u64> {
            if let Some(probe) = &self.probe {
                self.visible_at_boundary.push(probe.borrow().replies.len());
            }
            let index = self.groups.len();
            self.groups.push(std::mem::take(&mut self.open));
            if self.abort_at == Some(index) {
                Verdict::Abort(ABORTED)
            } else {
                Verdict::Continue
            }
        }
    }

    /// Echoes each job as its reply, one job per group.
    struct Echo;

    impl CommitPolicy for Echo {
        type Job = u64;
        type Reply = u64;

        fn group_limit(&self) -> NonZeroU32 {
            NonZeroU32::MIN
        }

        fn apply(&mut self, job: u64, lane: &mut OwnerLane<u64, u64>) {
            lane.hold(job);
        }
    }

    fn send_all(lane: &mut ClientLane<u64, u64>, jobs: std::ops::Range<u64>) {
        for job in jobs {
            lane.try_send(job).expect("below the in-flight cap");
        }
    }

    /// Runs an owner on this thread until it has drained every lane: with
    /// shutdown already requested the loop never parks, so the whole
    /// schedule is deterministic.
    fn drain_inline<P: CommitPolicy<Job = u64, Reply = u64>>(
        mailbox: &Mailbox<u64, u64>,
        policy: &mut P,
    ) {
        mailbox.begin_shutdown();
        run_owner(mailbox, policy);
    }

    #[test]
    fn spin_budgets_are_zero_on_one_cpu_and_full_above() {
        assert_eq!(spins_on(1, IDLE_SPINS), 0);
        assert_eq!(spins_on(1, REPLY_SPINS), 0);
        for cpus in [2, 64] {
            assert_eq!(spins_on(cpus, IDLE_SPINS), 64);
            assert_eq!(spins_on(cpus, REPLY_SPINS), 128);
        }
    }

    #[test]
    fn replies_are_held_until_their_boundary_and_released_in_fifo_order() {
        let mailbox = Arc::new(Mailbox::default());
        let client: Probe = Rc::new(RefCell::new(mailbox.open_lane()));
        send_all(&mut client.borrow_mut(), 0..10);
        let mut policy = Counting::with_limit(4);
        policy.probe = Some(Rc::clone(&client));
        drain_inline(&mailbox, &mut policy);
        assert_eq!(policy.groups, [4, 4, 2]);
        // Nothing applied in a group is visible before that group closes.
        assert_eq!(policy.visible_at_boundary, [0, 4, 8]);
        let mut client = client.borrow_mut();
        for job in 0..10 {
            assert_eq!(client.recv(), job);
        }
        assert_eq!(client.in_flight(), 0);
    }

    #[test]
    fn a_group_never_exceeds_its_limit_across_lanes() {
        let mailbox = Arc::new(Mailbox::default());
        let mut a = mailbox.open_lane();
        let mut b = mailbox.open_lane();
        send_all(&mut a, 0..LANE_CAPACITY as u64);
        send_all(&mut b, 100..105);
        assert_eq!(a.try_send(999), Err(999), "the in-flight cap refuses");
        let mut policy = Counting::with_limit(3);
        drain_inline(&mailbox, &mut policy);
        assert!(policy.groups.iter().all(|&group| (1..=3).contains(&group)));
        assert_eq!(policy.groups.iter().sum::<u32>(), LANE_CAPACITY as u32 + 5);
        for job in 0..LANE_CAPACITY as u64 {
            assert_eq!(a.recv(), job);
        }
        for job in 100..105 {
            assert_eq!(b.recv(), job);
        }
    }

    #[test]
    fn an_aborted_group_is_answered_and_the_owner_keeps_serving() {
        let mailbox = Arc::new(Mailbox::default());
        let mut client = mailbox.open_lane();
        send_all(&mut client, 0..6);
        let mut policy = Counting::with_limit(4);
        policy.abort_at = Some(0);
        drain_inline(&mailbox, &mut policy);
        // One call closed both groups: the aborted one, then the two jobs
        // still queued behind it.
        assert_eq!(policy.groups, [4, 2]);
        // The four held replies come back as the abort reply ...
        for _ in 0..4 {
            assert_eq!(client.recv(), ABORTED);
        }
        // ... and the two queued jobs get their own.
        assert_eq!(client.recv(), 4);
        assert_eq!(client.recv(), 5);
    }

    #[test]
    fn shutdown_drains_before_exit() {
        let mailbox = Arc::new(Mailbox::default());
        let mut client = mailbox.open_lane();
        send_all(&mut client, 0..LANE_CAPACITY as u64);
        drain_inline(&mailbox, &mut Echo);
        for job in 0..LANE_CAPACITY as u64 {
            assert_eq!(client.recv(), job);
        }
    }

    /// Runs `body` against a live owner thread, failing instead of hanging
    /// if `body` gets stuck; returns what `summarize` makes of the policy
    /// after shutdown.
    fn with_live_owner<P, S>(
        make_policy: impl FnOnce() -> P + Send + 'static,
        summarize: impl FnOnce(P) -> S + Send + 'static,
        body: impl FnOnce(Arc<Mailbox<P::Job, P::Reply>>) + Send + 'static,
    ) -> S
    where
        P: CommitPolicy,
        P::Job: Send + 'static,
        P::Reply: Send + 'static,
        S: Send + 'static,
    {
        let mailbox = Arc::new(Mailbox::default());
        let owner = {
            let mailbox = Arc::clone(&mailbox);
            std::thread::spawn(move || {
                let mut policy = make_policy();
                run_owner(&mailbox, &mut policy);
                summarize(policy)
            })
        };
        let (done, finished) = mpsc::channel();
        let client = {
            let mailbox = Arc::clone(&mailbox);
            std::thread::spawn(move || {
                body(mailbox);
                done.send(())
            })
        };
        finished
            .recv_timeout(Duration::from_secs(60))
            .expect("client stuck: a wake-up was lost or a reply never released");
        client.join().expect("client thread").expect("result sent");
        mailbox.begin_shutdown();
        owner.join().expect("owner thread")
    }

    #[test]
    fn pushes_ring_no_doorbell_and_one_recv_delivers_them_as_one_run() {
        const JOBS: u64 = 40;
        // A group can hold the whole window, so its size is the run's.
        let runs = with_live_owner(
            || Counting::with_limit(LANE_CAPACITY as u32),
            |policy| policy.groups,
            |mailbox| {
                let mut client = mailbox.open_lane();
                wait_parked(&mailbox);
                let wakes = mailbox.wakes();
                send_all(&mut client, 0..JOBS);
                wait_parked(&mailbox);
                assert_eq!(mailbox.wakes(), wakes, "a push alone rings no doorbell");
                for job in 0..JOBS {
                    assert_eq!(client.recv(), job);
                }
                assert_eq!(mailbox.wakes(), wakes + 1, "one doorbell for the window");
            },
        );
        assert_eq!(
            runs,
            [JOBS as u32],
            "the woken owner finds the whole window queued"
        );
    }

    #[test]
    fn ring_wakes_a_parked_owner_without_a_receive() {
        with_live_owner(
            || Echo,
            |_| (),
            |mailbox| {
                let mut client = mailbox.open_lane();
                wait_parked(&mailbox);
                send_all(&mut client, 0..3);
                client.ring();
                while client.replies.len() < 3 {
                    std::thread::yield_now();
                }
                let wakes = mailbox.wakes();
                client.ring();
                assert_eq!(mailbox.wakes(), wakes, "nothing unannounced, nothing rung");
            },
        );
    }

    #[test]
    fn a_lane_dropped_with_unannounced_jobs_is_drained_and_pruned() {
        /// Echoes each token back, so a token is alive exactly as long as a
        /// ring of its lane is.
        struct EchoToken;
        impl CommitPolicy for EchoToken {
            type Job = Arc<()>;
            type Reply = Arc<()>;
            fn group_limit(&self) -> NonZeroU32 {
                NonZeroU32::MIN
            }
            fn apply(&mut self, job: Arc<()>, lane: &mut OwnerLane<Arc<()>, Arc<()>>) {
                lane.hold(job);
            }
        }
        with_live_owner(
            || EchoToken,
            |_| (),
            |mailbox| {
                let token = Arc::new(());
                let mut client = mailbox.open_lane();
                wait_parked(&mailbox);
                for _ in 0..5 {
                    client.try_send(Arc::clone(&token)).expect("below the cap");
                }
                assert_eq!(Arc::strong_count(&token), 6);
                drop(client);
                // The owner is still running (no shutdown yet): the tokens die
                // only when it has drained the jobs *and* dropped its half of
                // the lane.
                while Arc::strong_count(&token) > 1 {
                    std::thread::yield_now();
                }
            },
        );
    }

    #[test]
    fn a_lone_window_one_client_is_never_parked_behind_an_unfilled_group() {
        let groups = with_live_owner(
            || Counting::with_limit(16),
            |policy| policy.groups,
            |mailbox| {
                let mut client = mailbox.open_lane();
                for job in 0..2_000 {
                    client.try_send(job).unwrap();
                    // The group (limit 16) cannot fill: the reply must come
                    // from the drained-with-replies-held boundary.
                    assert_eq!(client.recv(), job);
                }
            },
        );
        assert_eq!(groups.len(), 2_000);
        assert!(groups.iter().all(|&group| group == 1));
    }

    #[test]
    fn a_parked_owner_is_woken_by_sends_lane_opens_and_notify() {
        struct CountIdle(Arc<AtomicU64>);
        impl CommitPolicy for CountIdle {
            type Job = u64;
            type Reply = u64;
            fn group_limit(&self) -> NonZeroU32 {
                NonZeroU32::MIN
            }
            fn apply(&mut self, job: u64, lane: &mut OwnerLane<u64, u64>) {
                lane.hold(job);
            }
            fn idle(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let idle_scans = Arc::new(AtomicU64::new(0));
        let policy = CountIdle(Arc::clone(&idle_scans));
        with_live_owner(
            || policy,
            |_| (),
            move |mailbox| {
                let parked = || {
                    while !mailbox.idle.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                };
                for job in 0..50 {
                    parked();
                    // A lane opened while the owner is parked is adopted ...
                    let mut client = mailbox.open_lane();
                    parked();
                    // ... and a send to a parked owner is served.
                    client.try_send(job).unwrap();
                    assert_eq!(client.recv(), job);
                }
                parked();
                let before = idle_scans.load(Ordering::SeqCst);
                mailbox.notify();
                // The notified owner leaves the park to reach its idle hook.
                while idle_scans.load(Ordering::SeqCst) == before {
                    std::thread::yield_now();
                }
            },
        );
    }

    #[test]
    #[should_panic(expected = "owner thread died")]
    fn a_dead_owner_fails_the_waiting_client_loudly() {
        struct Dies;
        impl CommitPolicy for Dies {
            type Job = u64;
            type Reply = u64;
            fn group_limit(&self) -> NonZeroU32 {
                NonZeroU32::MIN
            }
            fn apply(&mut self, _: u64, _: &mut OwnerLane<u64, u64>) {
                panic!("the store blew up (expected by this test)");
            }
        }
        let mailbox = Arc::new(Mailbox::default());
        let mut client = mailbox.open_lane();
        client.try_send(1).unwrap();
        let owner = {
            let mailbox = Arc::clone(&mailbox);
            std::thread::spawn(move || run_owner(&mailbox, &mut Dies))
        };
        assert!(owner.join().is_err());
        client.recv();
    }
}
