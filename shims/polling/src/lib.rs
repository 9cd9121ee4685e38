//! Offline shim for a minimal readiness-polling API (in the spirit of the
//! `polling` crate, same crate name so swapping in the real package is a
//! one-line workspace change).
//!
//! The build environment has no crates.io access, so this is written
//! against raw OS facilities only: non-blocking file descriptors from
//! `std::net`, plus direct `extern "C"` bindings to the handful of
//! syscalls an event loop needs.  Two backends share one API:
//!
//! * **epoll** (Linux, the default): `epoll_create1`/`epoll_ctl`/
//!   `epoll_wait`, level-triggered.  Level triggering keeps the consumer's
//!   state machine simple — a connection that still has unread bytes or an
//!   unflushed write buffer is re-reported on the next wait, so a missed
//!   drain is a wasted wakeup rather than a lost connection.
//! * **poll(2)** (any unix; forced on Linux with the `force-poll` feature
//!   so CI can exercise it): the registration table *is* the `pollfd`
//!   array handed to the kernel, so a wait copies nothing.  O(n) per wait,
//!   which is the accepted cost of the portable fallback.
//!
//! One thread owns a `Poller`: `add`/`modify`/`delete`/`wait` all take
//! `&mut self`, so there is no cross-thread wake-up and no lock.  A
//! thread-per-reactor server gives each reactor its own poller and bounds
//! every `wait` with a timeout to notice shared state (a shutdown flag)
//! changing.

#![warn(missing_docs)]
#![cfg(unix)]

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// One readiness event: the registration `key` and which directions are
/// ready.  Hangups and errors are reported as *both* readable and writable
/// so the consumer discovers them from the failing `read`/`write` itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The key the file descriptor was registered under.
    pub key: usize,
    /// The descriptor is ready for reading (or has hung up).
    pub readable: bool,
    /// The descriptor is ready for writing (or has errored).
    pub writable: bool,
}

#[allow(dead_code)] // each backend uses its half of the surface
mod sys {
    //! The raw syscall surface, kept to the minimum an event loop needs.
    use std::os::raw::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    /// `struct epoll_event`; packed on x86-64, where the kernel ABI demands
    /// the 12-byte layout.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// Converts a `-1` syscall return into the thread's `errno` as an
/// [`io::Error`].
fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// A wait's return value as the number of ready entries.  A signal is not
/// an error for the loop: it reads as "no events", and the caller's next
/// iteration recomputes its timeouts.
fn ready_count(ret: i32) -> io::Result<usize> {
    match cvt(ret) {
        Ok(n) => Ok(n as usize),
        Err(err) if err.kind() == io::ErrorKind::Interrupted => Ok(0),
        Err(err) => Err(err),
    }
}

/// Milliseconds for the kernel timeout argument: `None` blocks forever,
/// sub-millisecond waits round **up** so a short timeout cannot spin.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) => {
            let ms = t.as_millis().min(i32::MAX as u128) as i32;
            if ms == 0 && t.as_nanos() > 0 {
                1
            } else {
                ms
            }
        }
    }
}

#[cfg(all(target_os = "linux", not(feature = "force-poll")))]
mod backend {
    //! The epoll backend: the kernel holds the interest table.
    use super::*;

    pub struct Backend {
        epfd: RawFd,
    }

    fn interest_bits(readable: bool, writable: bool) -> u32 {
        let mut events = sys::EPOLLRDHUP;
        if readable {
            events |= sys::EPOLLIN;
        }
        if writable {
            events |= sys::EPOLLOUT;
        }
        events
    }

    impl Backend {
        pub fn new() -> io::Result<Self> {
            // SAFETY: no pointer arguments; the returned fd is owned by
            // `Self` and closed exactly once, in `drop`.
            let epfd = cvt(unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) })?;
            Ok(Self { epfd })
        }

        fn ctl(&mut self, op: i32, fd: RawFd, key: usize, events: u32) -> io::Result<()> {
            let mut event = sys::EpollEvent {
                events,
                data: key as u64,
            };
            // SAFETY: `event` is a live, correctly laid out `epoll_event`
            // that the kernel only reads during the call; a bad `fd` is
            // reported through errno, not undefined behaviour.
            cvt(unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut event) })?;
            Ok(())
        }

        pub fn add(
            &mut self,
            fd: RawFd,
            key: usize,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(
                sys::EPOLL_CTL_ADD,
                fd,
                key,
                interest_bits(readable, writable),
            )
        }

        pub fn modify(
            &mut self,
            fd: RawFd,
            key: usize,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(
                sys::EPOLL_CTL_MOD,
                fd,
                key,
                interest_bits(readable, writable),
            )
        }

        pub fn delete(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            const CAPACITY: usize = 256;
            let mut raw = [sys::EpollEvent { events: 0, data: 0 }; CAPACITY];
            // SAFETY: `raw` is a writable array of `CAPACITY` entries and
            // the kernel writes at most `maxevents` = `CAPACITY` of them.
            let n = ready_count(unsafe {
                sys::epoll_wait(
                    self.epfd,
                    raw.as_mut_ptr(),
                    CAPACITY as i32,
                    timeout_ms(timeout),
                )
            })?;
            for entry in raw.iter().take(n) {
                // Copy out of the (possibly packed) struct before use.
                let bits = entry.events;
                let failed = bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0;
                events.push(Event {
                    key: entry.data as usize,
                    readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 || failed,
                    writable: bits & sys::EPOLLOUT != 0 || failed,
                });
            }
            Ok(())
        }
    }

    impl Drop for Backend {
        fn drop(&mut self) {
            // SAFETY: `epfd` came from `epoll_create1` in `new`, is owned
            // by `self` alone and is closed only here.
            unsafe {
                sys::close(self.epfd);
            }
        }
    }
}

#[cfg(any(not(target_os = "linux"), feature = "force-poll"))]
mod backend {
    //! The portable poll(2) backend: the interest table lives in userspace
    //! as the very `pollfd` array each wait hands to the kernel, with each
    //! entry's key alongside.
    use super::*;

    pub struct Backend {
        fds: Vec<sys::PollFd>,
        keys: Vec<usize>,
    }

    fn interest_bits(readable: bool, writable: bool) -> i16 {
        let mut bits = 0i16;
        if readable {
            bits |= sys::POLLIN;
        }
        if writable {
            bits |= sys::POLLOUT;
        }
        bits
    }

    impl Backend {
        pub fn new() -> io::Result<Self> {
            Ok(Self {
                fds: Vec::new(),
                keys: Vec::new(),
            })
        }

        fn position(&self, fd: RawFd) -> io::Result<usize> {
            self.fds
                .iter()
                .position(|slot| slot.fd == fd)
                .ok_or_else(|| io::Error::from_raw_os_error(2 /* ENOENT */))
        }

        pub fn add(
            &mut self,
            fd: RawFd,
            key: usize,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            if self.position(fd).is_ok() {
                return Err(io::Error::from_raw_os_error(17 /* EEXIST */));
            }
            self.fds.push(sys::PollFd {
                fd,
                events: interest_bits(readable, writable),
                revents: 0,
            });
            self.keys.push(key);
            Ok(())
        }

        pub fn modify(
            &mut self,
            fd: RawFd,
            key: usize,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            let index = self.position(fd)?;
            self.fds[index].events = interest_bits(readable, writable);
            self.keys[index] = key;
            Ok(())
        }

        pub fn delete(&mut self, fd: RawFd) -> io::Result<()> {
            let index = self.position(fd)?;
            self.fds.swap_remove(index);
            self.keys.swap_remove(index);
            Ok(())
        }

        pub fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            // SAFETY: `fds` is a live, writable array of exactly
            // `fds.len()` `pollfd`s; the kernel writes only their
            // `revents` fields.
            let n = ready_count(unsafe {
                sys::poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as u64,
                    timeout_ms(timeout),
                )
            })?;
            // Nothing ready, or a signal, after which `revents` may still
            // hold the previous wait's bits: report nothing.
            if n == 0 {
                return Ok(());
            }
            for (slot, &key) in self.fds.iter().zip(&self.keys) {
                let bits = slot.revents;
                if bits == 0 {
                    continue;
                }
                let failed = bits & (sys::POLLERR | sys::POLLHUP) != 0;
                events.push(Event {
                    key,
                    readable: bits & sys::POLLIN != 0 || failed,
                    writable: bits & sys::POLLOUT != 0 || failed,
                });
            }
            Ok(())
        }
    }
}

/// A readiness poller over non-blocking file descriptors, owned by one
/// thread.
///
/// Register descriptors with [`add`](Self::add) under a caller-chosen
/// `key`, change interest with [`modify`](Self::modify), and block in
/// [`wait`](Self::wait) for readiness.  Registered descriptors must outlive
/// their registration (call [`delete`](Self::delete) before closing them;
/// the epoll backend tolerates a missed delete, the poll backend does not).
pub struct Poller {
    backend: backend::Backend,
}

impl Poller {
    /// Creates a poller.
    pub fn new() -> io::Result<Self> {
        Ok(Self {
            backend: backend::Backend::new()?,
        })
    }

    /// Registers `fd` under `key` with the given interest.  Fails on a
    /// double registration.
    pub fn add(&mut self, fd: RawFd, key: usize, readable: bool, writable: bool) -> io::Result<()> {
        self.backend.add(fd, key, readable, writable)
    }

    /// Replaces the interest (and key) of a registered `fd`.
    pub fn modify(
        &mut self,
        fd: RawFd,
        key: usize,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.backend.modify(fd, key, readable, writable)
    }

    /// Removes `fd`'s registration.
    pub fn delete(&mut self, fd: RawFd) -> io::Result<()> {
        self.backend.delete(fd)
    }

    /// Blocks until at least one registered descriptor is ready or the
    /// timeout elapses (`None` = forever); ready descriptors are appended
    /// to `events` (which is **not** cleared).  Spurious empty returns are
    /// allowed (signals): callers must treat "no events" as a normal
    /// iteration.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        self.backend.wait(events, timeout)
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();
        server.set_nonblocking(true).unwrap();
        (client, server)
    }

    #[test]
    fn readiness_round_trip() {
        let mut poller = Poller::new().unwrap();
        assert!(format!("{poller:?}").contains("Poller"));
        let (mut client, mut server) = pair();
        poller.add(server.as_raw_fd(), 7, true, false).unwrap();

        // Nothing to read yet: a short wait times out empty.
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        client.write_all(b"hi").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].key, 7);
        assert!(events[0].readable);

        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 2);

        // Level-triggered: drained socket stops reporting.
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        // Write interest on an idle socket reports immediately.
        poller.modify(server.as_raw_fd(), 7, true, true).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.key == 7 && e.writable));

        poller.delete(server.as_raw_fd()).unwrap();
        client.write_all(b"!").unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "deleted fds report nothing");
    }

    #[test]
    fn peer_hangup_reports_readable() {
        let mut poller = Poller::new().unwrap();
        let (client, server) = pair();
        poller.add(server.as_raw_fd(), 3, true, false).unwrap();
        drop(client);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.key == 3 && e.readable),
            "hangup must surface as readable (read returns 0): {events:?}"
        );
    }
}
