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
//! reactors share only the listening socket, the shutdown flag and the
//! counters.
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
//!   low-water mark.
//!
//! # Deadlines
//!
//! A reactor keeps no timer structure.  Each pass of its loop reads the
//! clock once, then sleeps in [`Poller::wait`] until the earliest of the
//! deadlines it already holds: the next idle sweep, a paused listener's
//! accept retry, the drain deadline, and a fixed 25 ms tick.  The tick is
//! how a reactor notices the shutdown flag, so nothing ever has to wake
//! it.  The idle sweep walks the reactor's connections and evicts those
//! past their [`ServerConfig::idle_timeout`]; it runs at each
//! connection's idle deadline but at most once per `idle_timeout / 32`
//! (clamped to 1–1000 ms), which bounds the eviction lag.
//!
//! # Backpressure and failure
//!
//! Misbehaving clients get a final frame carrying
//! [`Response::Error`] (codes [`ERR_BAD_FRAME`],
//! [`ERR_FRAME_TOO_LARGE`], [`ERR_BAD_BATCH`]) and are disconnected; the
//! server itself stays up.  When `accept` fails with `EMFILE`/`ENFILE`
//! the reactor unregisters its listener clone and registers it again
//! 100 ms later instead of spinning.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] (also run on drop) raises the shutdown flag; each
//! reactor sees it within one tick.  Each one then accepts until
//! `WouldBlock` — connections that finished the handshake already have
//! request bytes buffered — then drops its listener clone and keeps
//! serving the connections it has: request bytes may still be in flight
//! on the wire, so draining cannot just read once and hang up.  A draining
//! connection closes when its client half-closes (EOF), errors out, or the
//! [`ServerConfig::drain_timeout`] deadline passes.  Responses are written
//! as they are produced, but none of these closes waits for a backlog:
//! whatever the connection's write buffer still holds is dropped.  In
//! particular, at the drain deadline the reactor closes every connection
//! it still has without flushing.  (Only a protocol error's final frame
//! is flushed before its close.)  A reactor exits once its last connection is gone,
//! and `shutdown` joins them all.  The `Server` holds no copy of the
//! listener, so the port closes when the last reactor drops its clone.
//! Shut the `Server` down **before** the [`KvService`] it fronts.

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
use crate::wbuf::WriteBuffer;

/// Wire error code: the frame header varint was malformed.
pub const ERR_BAD_FRAME: u64 = 1;
/// Wire error code: a frame announced a length above the server's cap.
pub const ERR_FRAME_TOO_LARGE: u64 = 2;
/// Wire error code: the frame's payload was not a decodable request batch.
pub const ERR_BAD_BATCH: u64 = 3;

/// Poller key of the listening socket; connection tokens count up from
/// zero.
const LISTENER_TOKEN: usize = usize::MAX;

/// How long a listener paused by `EMFILE`/`ENFILE` waits before re-arming.
const ACCEPT_RETRY_MS: u64 = 100;

/// The longest one wait sleeps: how soon a reactor notices the shutdown
/// flag, since nothing wakes it.
const TICK_MS: u64 = 25;

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
    /// reactor cannot open its router ([`kvserve::RouterError`]: the
    /// store has no session slot left); the reactors already running are
    /// shut down first.
    ///
    /// The service must outlive the server: shut the server down first.
    pub fn start(config: ServerConfig, service: Arc<KvService>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let reactors = config.reactors.max(1);
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            stats: NetStats::default(),
            reactor_frames: (0..reactors).map(|_| AtomicU64::new(0)).collect(),
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
            // Every reactor accepts on its own clone, registered in its own
            // poller; `listener` itself is dropped on return, so the
            // reactors hold the only copies.
            let listener = listener.try_clone()?;
            let mut poller = Poller::new()?;
            poller.add(listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
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
                    Reactor::new(index, shared, config, poller, listener, router).run();
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
    /// passes), then join every reactor.  Each reactor notices the request
    /// within one 25 ms tick of its loop.  Idempotent; also run on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
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
            .field("reactors", &self.shared.reactor_frames.len())
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
    /// Idle deadline (ms on the reactor clock), pushed back by every read;
    /// the first idle sweep after it evicts the connection.
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
    poller: Poller,
    config: ServerConfig,
    router: ShardRouter<'s>,
    listener: Option<TcpListener>,
    /// Set while the listener is unregistered under fd pressure: when
    /// (ms on the reactor clock) to register it again.
    accept_retry_at: Option<u64>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Tokens freed during this event batch; recycled only once the batch
    /// ends, so a stale event in the same batch can't hit a new owner.
    retired: Vec<usize>,
    live: usize,
    epoch: Instant,
    /// The idle timeout in ms; `u64::MAX` when eviction is off, so no idle
    /// deadline ever passes.
    idle_ms: u64,
    /// When the next idle sweep is due; `u64::MAX` while no connection
    /// has an idle deadline.
    next_sweep: u64,
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
        poller: Poller,
        listener: TcpListener,
        router: ShardRouter<'s>,
    ) -> Self {
        let idle_ms = match config.idle_timeout.as_millis() as u64 {
            0 => u64::MAX,
            ms => ms,
        };
        let recorder = router.service().stage_trace().recorder(0);
        Self {
            index,
            shared,
            poller,
            config,
            router,
            recorder,
            listener: Some(listener),
            accept_retry_at: None,
            conns: Vec::new(),
            free: Vec::new(),
            retired: Vec::new(),
            live: 0,
            epoch: Instant::now(),
            idle_ms,
            next_sweep: u64::MAX,
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
        let mut now = self.now_ms();
        loop {
            let timeout = Duration::from_millis(self.next_deadline(now).saturating_sub(now));
            events.clear();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            now = self.now_ms();
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
            if self.accept_retry_at.is_some_and(|at| at <= now) {
                self.retry_accept(now);
            }
            if self.next_sweep <= now {
                self.evict_idle(now);
            }
            self.free.append(&mut self.retired);
            if self.draining {
                if now >= self.drain_deadline {
                    self.force_close_all();
                    break;
                }
                if self.live == 0 {
                    break;
                }
            }
        }
    }

    /// The earliest deadline this reactor keeps, and never more than one
    /// tick past `now`.
    fn next_deadline(&self, now: u64) -> u64 {
        let retry = self.accept_retry_at.unwrap_or(u64::MAX);
        (now + TICK_MS)
            .min(self.next_sweep)
            .min(retry)
            .min(self.drain_deadline)
    }

    /// Accepts one connection from this reactor's listener clone and
    /// adopts it.  Returns whether another `accept` may succeed: `false`
    /// once the backlog is empty, the listener is gone or paused, or the
    /// would-be peer has already gone (ECONNABORTED and friends; the
    /// level-triggered listener is reported again if more are queued).
    fn accept_one(&mut self, now: u64) -> bool {
        let Some(listener) = self.listener.as_ref() else {
            return false;
        };
        match listener.accept() {
            Ok((stream, _peer)) => {
                self.shared.stats.add_accepted(1);
                self.adopt(stream, now);
                true
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => true,
            Err(e) if matches!(e.raw_os_error(), Some(23) | Some(24)) => {
                // ENFILE/EMFILE: the process is out of fds.  Accepting
                // would fail forever at full CPU; unregister and re-arm
                // later so existing connections can finish and release
                // fds.
                let _ = self.poller.delete(listener.as_raw_fd());
                self.accept_retry_at = Some(now + ACCEPT_RETRY_MS);
                self.shared.stats.add_accept_pauses(1);
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
            decoder: FrameDecoder::new(frame::MAX_REQUEST_FRAME),
            out: WriteBuffer::new(self.config.write_high_water),
            paused: false,
            closing: false,
            reg_r: true,
            reg_w: false,
            idle_deadline,
            frames: VecDeque::new(),
        });
        self.live += 1;
        self.next_sweep = self.next_sweep.min(idle_deadline);
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

    /// Registers the listener paused under fd pressure again, or retries
    /// after another [`ACCEPT_RETRY_MS`] if that fails.  Level-triggered:
    /// a backlog that built up meanwhile is reported by the next wait.
    fn retry_accept(&mut self, now: u64) {
        self.accept_retry_at = None;
        let Some(listener) = self.listener.as_ref() else {
            return;
        };
        if self
            .poller
            .add(listener.as_raw_fd(), LISTENER_TOKEN, true, false)
            .is_err()
        {
            self.accept_retry_at = Some(now + ACCEPT_RETRY_MS);
        }
    }

    /// Evicts every connection past its idle deadline and schedules the
    /// next sweep at the earliest deadline left, but no sooner than one
    /// sweep gap away.  A closing connection is being flushed out (error
    /// or drain) and is left alone: the drain deadline bounds it.
    fn evict_idle(&mut self, now: u64) {
        let mut earliest = u64::MAX;
        for token in 0..self.conns.len() {
            let Some(conn) = self.conns[token].as_ref() else {
                continue;
            };
            if conn.closing {
                continue;
            }
            if conn.idle_deadline <= now {
                self.shared.stats.add_idle_evictions(1);
                self.close(token);
            } else {
                earliest = earliest.min(conn.idle_deadline);
            }
        }
        // Sweeps stay a small fraction of the timeout apart, so the
        // eviction lag does too.
        let gap = (self.idle_ms / 32).clamp(1, 1000);
        self.next_sweep = earliest.max(now + gap);
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
        // would RST them unserved.  A listener paused under fd pressure
        // stays paused.
        if self.accept_retry_at.take().is_none() {
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
