//! The TCP front end: reactor threads, connection lifecycle, and graceful
//! shutdown.
//!
//! # Architecture
//!
//! [`Server::start`] binds a listener and spawns `reactors` event-loop
//! threads.  Each thread owns a [`polling::Poller`], its own
//! [`kvserve::ShardRouter`] and its own `try_clone` of the listening
//! socket, registered level-triggered in its poller, so serving a frame
//! never takes a lock and never blocks on another reactor.  Every reactor
//! accepts its own connections, at most one `accept` per listener event,
//! so a burst spreads over the reactors that woke; a connection then lives
//! and dies on the thread that accepted it.  Which reactor takes a
//! connection depends on which one wakes first, not on a round-robin
//! (`net_reactor_frames_total{reactor}` shows the resulting split).  The
//! reactors share only the listening socket, the shutdown flag, the
//! counters and the pollers, whose wake-up is used only at shutdown.
//!
//! Per connection the reactor composes the crate's pure pieces:
//!
//! * a [`FrameDecoder`] reassembles request
//!   frames across arbitrary partial reads and rejects oversized or
//!   malformed headers *before* buffering;
//! * each reassembled frame is served as it decodes: by
//!   [`ShardRouter::serve_pipelined`](kvserve::ShardRouter::serve_pipelined),
//!   every request on the reactor's own tree sessions, in order, then its
//!   responses are re-encoded and queued on
//! * a [`WriteBuffer`] whose high-water mark
//!   pauses *reading* from slow clients until the backlog drains below the
//!   low-water mark;
//! * a [`TimerWheel`] evicts idle connections
//!   and re-arms a paused listener.
//!
//! # Backpressure and failure
//!
//! Misbehaving clients get a final frame carrying
//! [`Response::Error`] (codes [`ERR_BAD_FRAME`],
//! [`ERR_FRAME_TOO_LARGE`], [`ERR_BAD_BATCH`]) and are disconnected; the
//! server itself stays up.  When `accept` fails with `EMFILE`/`ENFILE`
//! the reactor unregisters its listener clone and re-arms it on a timer
//! instead of spinning.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] (also run on drop) raises the shutdown flag and
//! wakes every reactor.  Each one accepts until `WouldBlock` — connections
//! that finished the handshake already have request bytes buffered — then
//! drops its listener clone and keeps serving the connections it has:
//! request bytes may still be in flight on the wire, so draining cannot
//! just read once and hang up.  A draining connection closes when its
//! client half-closes (EOF), errors out, or the
//! [`ServerConfig::drain_timeout`] deadline passes; responses are flushed
//! before the close either way.  A reactor exits once its last connection
//! is gone, and `shutdown` joins them all.  The `Server` holds no copy of
//! the listener, so the port closes when the last reactor drops its
//! clone.  Shut the `Server` down **before** the [`KvService`] it fronts.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use kvserve::codec::{decode_batch, encode_response_batch};
use kvserve::{KvService, Response, ShardRouter};
use obs::{Registry, Sample, SourceId, Stage, StageRecorder, Stamp};
use polling::Poller;

use crate::frame::{self, FrameDecoder, FrameError};
use crate::stats::NetStats;
use crate::timer::TimerWheel;
use crate::wbuf::WriteBuffer;

/// Wire error code: the frame header varint was malformed.
pub const ERR_BAD_FRAME: u64 = 1;
/// Wire error code: a frame announced a length above the server's cap.
pub const ERR_FRAME_TOO_LARGE: u64 = 2;
/// Wire error code: the frame's payload was not a decodable request batch.
pub const ERR_BAD_BATCH: u64 = 3;

/// Poller key of the listening socket (also its timer token while the
/// listener is paused under fd pressure).  `polling` reserves
/// `usize::MAX`; connection tokens count up from zero.
const LISTENER_TOKEN: usize = usize::MAX - 1;

/// How long a listener paused by `EMFILE`/`ENFILE` waits before re-arming.
const ACCEPT_RETRY_MS: u64 = 100;

/// Bytes one readable event may consume before yielding to other
/// connections (level-triggered polling re-reports the remainder).
const READ_BUDGET: usize = 256 << 10;

/// Bytes of unread input `close` discards before dropping the socket, so the
/// kernel sends FIN rather than RST (an RST would throw away responses still
/// buffered on the peer's side).
const CLOSE_DISCARD_BUDGET: usize = 64 << 10;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: SocketAddr,
    /// Reactor (event-loop) threads; clamped to at least 1.  Each one
    /// accepts on its own clone of the listening socket, so connections
    /// land on whichever reactor wakes first.
    pub reactors: usize,
    /// Largest request frame payload accepted before the connection is
    /// rejected with [`ERR_FRAME_TOO_LARGE`].
    pub max_frame_len: usize,
    /// Write-backlog high-water mark per connection: at or above this the
    /// reactor stops reading from the connection until the backlog drains
    /// to half.
    pub write_high_water: usize,
    /// Connections idle longer than this are evicted; `Duration::ZERO`
    /// disables eviction.
    pub idle_timeout: Duration,
    /// Upper bound on graceful shutdown's drain phase: connections whose
    /// clients have not hung up by then are force-closed.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            reactors: 2,
            max_frame_len: frame::MAX_REQUEST_FRAME,
            write_high_water: 256 << 10,
            idle_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// State shared by the reactor threads and the [`Server`] handle.
struct Shared {
    shutdown: AtomicBool,
    stats: NetStats,
    /// Frames served per reactor thread, for the `net_reactor_frames_total`
    /// metric — the load-balance view the aggregate counter cannot give.
    reactor_frames: Box<[AtomicU64]>,
    /// One per reactor; [`Server::shutdown`] wakes each through it.
    pollers: Vec<Arc<Poller>>,
}

/// A running TCP front end over a [`KvService`].
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    local_addr: SocketAddr,
    /// The service registry this server's `net_*` source is registered in,
    /// and the source's id — the server outlives neither, so shutdown
    /// unregisters (the service, and its registry, outlive the server).
    registry: Arc<Registry>,
    source: Option<SourceId>,
}

impl Server {
    /// Binds `config.addr` and spawns the reactor threads, each of which
    /// opens its router on the service.  Fails if binding fails, or if a
    /// reactor cannot open its router ([`kvserve::RouterError`]: a shard's
    /// store has no session slot left); the reactors already running are
    /// shut down first.
    ///
    /// The service must outlive the server: shut the server down first.
    pub fn start(config: ServerConfig, service: Arc<KvService>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let reactors = config.reactors.max(1);
        let mut pollers = Vec::with_capacity(reactors);
        for _ in 0..reactors {
            pollers.push(Arc::new(Poller::new()?));
        }
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            stats: NetStats::default(),
            reactor_frames: (0..reactors).map(|_| AtomicU64::new(0)).collect(),
            pollers,
        });

        // The front end reports into the *service's* registry, so one
        // scrape — wire or in-process — covers the whole stack.
        let registry = Arc::clone(service.registry());
        let source = {
            let shared = Arc::clone(&shared);
            registry.register(move |out: &mut Vec<Sample>| {
                shared.stats.collect(out);
                for (index, frames) in shared.reactor_frames.iter().enumerate() {
                    out.push(
                        Sample::counter("net_reactor_frames_total", frames.load(Ordering::Relaxed))
                            .with("reactor", index),
                    );
                }
            })
        };

        let mut server = Server {
            shared,
            threads: Vec::with_capacity(reactors),
            local_addr,
            registry,
            source: Some(source),
        };
        let (ready, started) = mpsc::channel();
        for index in 0..reactors {
            let shared = Arc::clone(&server.shared);
            let service = Arc::clone(&service);
            let config = config.clone();
            // Every reactor accepts on its own clone; `listener` itself is
            // dropped on return, so the reactors hold the only copies.
            let listener = listener.try_clone()?;
            let ready = ready.clone();
            let thread = std::thread::Builder::new()
                .name(format!("netserve-{index}"))
                .spawn(move || {
                    // A router is `!Send`, so it is opened here, on its
                    // reactor, and the outcome reported to `start`.
                    let router = match service.try_router() {
                        Ok(router) => router,
                        Err(e) => {
                            let _ = ready.send(Err(e));
                            return;
                        }
                    };
                    let _ = ready.send(Ok(()));
                    Reactor::new(index, shared, config, listener, router).run();
                })?;
            server.threads.push(thread);
        }
        // On an error return, dropping `server` shuts the started reactors
        // down again.
        for _ in 0..reactors {
            started
                .recv()
                .map_err(|_| std::io::Error::other("a reactor died at start-up"))?
                .map_err(std::io::Error::other)?;
        }
        Ok(server)
    }

    /// The bound address (with the real port when `addr` asked for 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's counters.
    pub fn stats(&self) -> &NetStats {
        &self.shared.stats
    }

    /// Graceful shutdown: stop accepting, keep serving existing
    /// connections until each client hangs up (or the drain deadline
    /// passes), flush write backlogs, then join every reactor.
    /// Idempotent; also run on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for poller in &self.shared.pollers {
            let _ = poller.notify();
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        // The registry outlives the server (it belongs to the service):
        // pull the `net_*` source so later scrapes stop reporting a front
        // end that no longer exists.  `stats()` stays readable directly.
        if let Some(source) = self.source.take() {
            self.registry.unregister(source);
        }
    }

    /// True once `shutdown` has completed.
    pub fn is_shut_down(&self) -> bool {
        self.threads.is_empty() && self.shared.shutdown.load(Ordering::Acquire)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("reactors", &self.shared.pollers.len())
            .field("open_connections", &self.shared.stats.open_connections())
            .finish()
    }
}

/// Per-connection state owned by exactly one reactor.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: WriteBuffer,
    /// Reading is paused: the write backlog crossed the high-water mark.
    paused: bool,
    /// Flush the backlog, then close (protocol error or shutdown drain).
    closing: bool,
    /// Interest currently registered with the poller.
    reg_r: bool,
    reg_w: bool,
    /// Authoritative idle deadline (ms on the reactor clock); the wheel
    /// entry is re-armed lazily against it.
    idle_deadline: u64,
    /// Frames reassembled but not yet served.  Normally emptied by the
    /// read that filled it; but once the write backlog crosses the
    /// high-water mark, responses stop being *generated*, not just read —
    /// otherwise a client pipelining large scans could inflate the backlog
    /// arbitrarily far past the mark within one read — and the rest waits
    /// here, served in order as the backlog drains.
    frames: VecDeque<Vec<u8>>,
}

struct Reactor<'s> {
    index: usize,
    shared: Arc<Shared>,
    poller: Arc<Poller>,
    config: ServerConfig,
    router: ShardRouter<'s>,
    listener: Option<TcpListener>,
    listener_paused: bool,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Tokens freed during this event batch; recycled only once the batch
    /// ends, so a stale event in the same batch can't hit a new owner.
    retired: Vec<usize>,
    live: usize,
    wheel: TimerWheel,
    epoch: Instant,
    idle_ms: u64,
    draining: bool,
    drain_deadline: u64,
    /// Stage recorder for the wire-side stages (`Recv`, `Decode`,
    /// `Write`); recorded per read pass / per frame, which is already
    /// amortized over the requests inside, so it is unsampled.
    recorder: StageRecorder,
    // Scratch buffers reused across frames.
    read_buf: Vec<u8>,
    frames: Vec<Vec<u8>>,
    responses: Vec<Response>,
    payload: Vec<u8>,
    wire: Vec<u8>,
}

impl<'s> Reactor<'s> {
    fn new(
        index: usize,
        shared: Arc<Shared>,
        config: ServerConfig,
        listener: TcpListener,
        router: ShardRouter<'s>,
    ) -> Self {
        let poller = Arc::clone(&shared.pollers[index]);
        let idle_ms = config.idle_timeout.as_millis() as u64;
        // Slot width tracks the idle timeout so eviction lag stays a small
        // fraction of it; 64 slots cover one timeout per revolution.
        let slot_ms = if idle_ms == 0 { 25 } else { (idle_ms / 32).clamp(1, 1000) };
        // Registration failure would leave a deaf listener; surfacing it
        // from a spawned thread has no good channel, and `add` on a fresh
        // poller only fails for exhausted kernel memory.
        poller
            .add(listener.as_raw_fd(), LISTENER_TOKEN, true, false)
            .expect("register listener");
        let recorder = router.service().stage_trace().recorder();
        Self {
            index,
            shared,
            poller,
            config,
            router,
            recorder,
            listener: Some(listener),
            listener_paused: false,
            conns: Vec::new(),
            free: Vec::new(),
            retired: Vec::new(),
            live: 0,
            wheel: TimerWheel::new(slot_ms, 64),
            epoch: Instant::now(),
            idle_ms,
            draining: false,
            drain_deadline: u64::MAX,
            read_buf: vec![0; 16 << 10],
            frames: Vec::new(),
            responses: Vec::new(),
            payload: Vec::new(),
            wire: Vec::new(),
        }
    }

    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn run(mut self) {
        let mut events: Vec<polling::Event> = Vec::new();
        let mut expired: Vec<usize> = Vec::new();
        loop {
            let timeout = self.next_timeout();
            events.clear();
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            let now = self.now_ms();
            if self.shared.shutdown.load(Ordering::Acquire) && !self.draining {
                self.begin_drain(now);
            }
            for event in &events {
                if event.key == LISTENER_TOKEN {
                    // One accept per event: the listener stays readable
                    // while its backlog is not empty, and every reactor
                    // that woke takes its share.
                    if !self.draining {
                        self.accept_one(now);
                    }
                } else {
                    if event.readable {
                        self.conn_readable(event.key, now);
                    }
                    if event.writable {
                        self.flush_conn(event.key);
                    }
                }
            }
            expired.clear();
            self.wheel.advance(self.now_ms(), &mut expired);
            for &token in &expired {
                self.timer_fired(token, now);
            }
            self.free.append(&mut self.retired);
            if self.draining {
                if self.now_ms() >= self.drain_deadline {
                    self.force_close_all();
                    break;
                }
                if self.live == 0 {
                    break;
                }
            }
        }
    }

    fn next_timeout(&self) -> Option<Duration> {
        let mut deadline = self.wheel.next_deadline();
        if self.draining {
            deadline = Some(deadline.map_or(self.drain_deadline, |d| d.min(self.drain_deadline)));
        }
        deadline.map(|d| Duration::from_millis(d.saturating_sub(self.now_ms()).max(1)))
    }

    /// Accepts one connection from this reactor's listener clone and
    /// adopts it.  Returns whether another `accept` may succeed: `false`
    /// once the backlog is empty, the listener is gone or paused, or the
    /// would-be peer has already gone (ECONNABORTED and friends; the
    /// level-triggered listener is reported again if more are queued).
    fn accept_one(&mut self, now: u64) -> bool {
        let Some(listener) = self.listener.as_ref() else { return false };
        match listener.accept() {
            Ok((stream, _peer)) => {
                self.shared.stats.add_accepted(1);
                self.adopt(stream, now);
                true
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => true,
            Err(e) if matches!(e.raw_os_error(), Some(23) | Some(24)) => {
                // ENFILE/EMFILE: the process is out of fds.  Accepting
                // would fail forever at full CPU; unregister and re-arm on
                // a timer so existing connections can finish and release
                // fds.
                let _ = self.poller.delete(listener.as_raw_fd());
                self.listener_paused = true;
                self.shared.stats.add_accept_pauses(1);
                self.wheel.schedule(now + ACCEPT_RETRY_MS, LISTENER_TOKEN);
                false
            }
            Err(_) => false,
        }
    }

    fn adopt(&mut self, stream: TcpStream, now: u64) {
        if stream.set_nonblocking(true).is_err() {
            self.shared.stats.add_closed(1);
            return;
        }
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        let token = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        if self.poller.add(fd, token, true, false).is_err() {
            self.free.push(token);
            self.shared.stats.add_closed(1);
            return;
        }
        let idle_deadline = now.saturating_add(self.idle_ms);
        self.conns[token] = Some(Conn {
            stream,
            decoder: FrameDecoder::new(self.config.max_frame_len),
            out: WriteBuffer::new(self.config.write_high_water),
            paused: false,
            closing: false,
            reg_r: true,
            reg_w: false,
            idle_deadline,
            frames: VecDeque::new(),
        });
        self.live += 1;
        if self.idle_ms > 0 {
            self.wheel.schedule(idle_deadline, token);
        }
    }

    fn conn_readable(&mut self, token: usize, now: u64) {
        let mut budget = READ_BUDGET;
        loop {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return;
            };
            if conn.paused || conn.closing {
                break;
            }
            let read_start = Stamp::now();
            match conn.stream.read(&mut self.read_buf) {
                Ok(0) => {
                    self.close(token);
                    return;
                }
                Ok(n) => {
                    conn.idle_deadline = now.saturating_add(self.idle_ms);
                    budget = budget.saturating_sub(n);
                    let pushed = conn.decoder.push(&self.read_buf[..n], &mut self.frames);
                    conn.frames.extend(self.frames.drain(..));
                    // Recv stage: the read syscall plus frame reassembly.
                    self.recorder.record(Stage::Recv, read_start);
                    self.serve_frames(token);
                    if let Err(err) = pushed {
                        let code = match err {
                            FrameError::Oversized { .. } => ERR_FRAME_TOO_LARGE,
                            FrameError::BadVarint => ERR_BAD_FRAME,
                        };
                        self.protocol_error(token, code);
                        break;
                    }
                    let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                        return;
                    };
                    if conn.closing {
                        break;
                    }
                    if conn.out.over_high_water() {
                        conn.paused = true;
                        self.shared.stats.add_hwm_pauses(1);
                        break;
                    }
                    // A short read usually means the socket is drained;
                    // level-triggered polling re-reports if not.  The
                    // budget keeps one fire-hose client from starving the
                    // rest of the loop.
                    if n < self.read_buf.len() || budget == 0 {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        self.flush_conn(token);
    }

    /// Serves `token`'s reassembled frames in order, as far as the write
    /// high-water mark allows; the rest stays queued on the connection
    /// until its backlog drains.  Returns once the connection is caught up,
    /// backlogged, closing or gone.
    ///
    /// Each frame is decoded, served by one `serve_pipelined` and answered
    /// before the next one starts, so the mark is re-checked after every
    /// frame.
    fn serve_frames(&mut self, token: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return;
            };
            if conn.closing || conn.out.over_high_water() {
                return;
            }
            let Some(payload) = conn.frames.pop_front() else {
                return;
            };
            self.shared.stats.add_frames(1);
            if obs::ENABLED {
                self.shared.reactor_frames[self.index].fetch_add(1, Ordering::Relaxed);
            }
            if self.draining {
                self.shared.stats.add_drained_frames(1);
            }
            let frame_start = Stamp::now();
            // A malformed frame: everything before it has been answered;
            // then the error frame, then the close.
            let Ok(batch) = decode_batch(&payload) else {
                self.protocol_error(token, ERR_BAD_BATCH);
                return;
            };
            self.shared.stats.add_requests(batch.len() as u64);
            self.recorder.record(Stage::Decode, frame_start);
            // Every request runs right here, on this thread's tree
            // sessions, in order; nothing is shed.  (Its interior is what
            // the sampled Apply stage covers.)
            self.router.serve_pipelined(&batch, &mut self.responses);
            let served = Stamp::now();
            encode_response_batch(&self.responses, &mut self.payload);
            self.wire.clear();
            frame::write_frame(&mut self.wire, &self.payload);
            conn.out.queue(&self.wire);
            // Write stage: response encoding, framing, and backlog
            // queueing.
            self.recorder.record(Stage::Write, served);
        }
    }

    /// Sends a final `Response::Error { code }` frame and marks the
    /// connection for flush-then-close.
    fn protocol_error(&mut self, token: usize, code: u64) {
        self.shared.stats.add_protocol_errors(1);
        self.responses.clear();
        self.responses.push(Response::Error { code });
        encode_response_batch(&self.responses, &mut self.payload);
        self.wire.clear();
        frame::write_frame(&mut self.wire, &self.payload);
        if let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) {
            conn.out.queue(&self.wire);
            conn.closing = true;
        }
    }

    /// Flushes the write backlog and applies the resulting state
    /// transitions: close when a closing connection drains (or the peer is
    /// gone), resume reading below the low-water mark, and re-register
    /// interest.
    fn flush_conn(&mut self, token: usize) {
        let mut close = false;
        let mut catch_up = false;
        {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return;
            };
            let flushed = conn.out.flush_to(&mut conn.stream);
            if flushed.is_err() || (conn.closing && conn.out.is_empty()) {
                close = true;
            } else if conn.paused && conn.out.below_low_water() {
                catch_up = true;
            }
        }
        if close {
            self.close(token);
            return;
        }
        if catch_up {
            // Work through the frames already reassembled first — they
            // precede anything the socket still holds — then resume reading
            // if both the backlog and that queue have cleared.
            self.serve_frames(token);
            if let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) {
                if !conn.closing && conn.frames.is_empty() && !conn.out.over_high_water() {
                    conn.paused = false;
                    self.shared.stats.add_hwm_resumes(1);
                }
            }
        }
        self.update_interest(token);
    }

    fn update_interest(&mut self, token: usize) {
        let mut close = false;
        {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return;
            };
            // Draining does not revoke read interest: in-flight request
            // bytes may still be arriving, and the only reliable end-of-
            // requests signal is the client's FIN.
            let want_r = !conn.paused && !conn.closing;
            let want_w = !conn.out.is_empty();
            if (want_r, want_w) != (conn.reg_r, conn.reg_w) {
                let fd = conn.stream.as_raw_fd();
                if self.poller.modify(fd, token, want_r, want_w).is_ok() {
                    conn.reg_r = want_r;
                    conn.reg_w = want_w;
                } else {
                    close = true;
                }
            }
        }
        if close {
            self.close(token);
        }
    }

    fn close(&mut self, token: usize) {
        let Some(mut conn) = self.conns.get_mut(token).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        // Drain any unread input (bounded) before dropping: closing a socket
        // with pending receive data sends RST instead of FIN, and an RST
        // discards responses the peer has buffered but not yet read.
        let mut discard_budget = CLOSE_DISCARD_BUDGET;
        while discard_budget > 0 {
            match conn.stream.read(&mut self.read_buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => discard_budget = discard_budget.saturating_sub(n),
            }
        }
        self.shared.stats.add_closed(1);
        self.live -= 1;
        self.retired.push(token);
    }

    fn timer_fired(&mut self, token: usize, now: u64) {
        if token == LISTENER_TOKEN {
            if !self.listener_paused || self.draining {
                return;
            }
            let Some(listener) = self.listener.as_ref() else { return };
            // Level-triggered: a backlog that built up meanwhile is
            // reported by the next wait.
            if self.poller.add(listener.as_raw_fd(), LISTENER_TOKEN, true, false).is_ok() {
                self.listener_paused = false;
            } else {
                self.wheel.schedule(now + ACCEPT_RETRY_MS, LISTENER_TOKEN);
            }
            return;
        }
        let mut evict = false;
        {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return;
            };
            if conn.closing {
                // Being flushed out (error or drain); the drain deadline
                // bounds it — no idle timer needed, let the entry lapse.
            } else if conn.idle_deadline <= now {
                evict = true;
            } else {
                // Lazy re-arm: traffic moved the authoritative deadline
                // since this entry was scheduled.
                self.wheel.schedule(conn.idle_deadline, token);
            }
        }
        if evict {
            self.shared.stats.add_idle_evictions(1);
            self.close(token);
        }
    }

    /// Enters drain mode: take the last connections off the listener and
    /// drop this reactor's clone, then keep serving the existing
    /// connections normally.  A one-shot "read once and close" drain would
    /// race request bytes still in flight on the wire, so each connection
    /// stays open until the client half-closes (EOF after reading its
    /// responses), errors out, or the drain deadline forces the issue.
    fn begin_drain(&mut self, now: u64) {
        self.draining = true;
        self.drain_deadline = now.saturating_add(self.config.drain_timeout.as_millis() as u64);
        // One final accept pass before the clone goes away: connections
        // that completed the kernel handshake before the shutdown landed
        // already have request bytes buffered, and closing the listener
        // would RST them unserved.
        if !self.listener_paused {
            while self.accept_one(now) {}
        }
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.delete(listener.as_raw_fd());
        }
    }

    fn force_close_all(&mut self) {
        for token in 0..self.conns.len() {
            self.close(token);
        }
    }
}
