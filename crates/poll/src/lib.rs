//! # cq-poll — minimal readiness polling for the socket transport
//!
//! The engine's TCP backend (`cq_engine::transport_tcp`) is a single-threaded
//! event loop: every socket is nonblocking, and one [`Poller`] tells the loop
//! which sockets are readable or writable. This crate is the thin OS shim
//! under that loop — an epoll(7) wrapper on Linux and a poll(2) fallback on
//! other Unix systems — written against the C symbols `std` already links,
//! so the workspace stays dependency-free (the same offline constraint that
//! drove the vendored `rand`/`proptest` stand-ins).
//!
//! The API is deliberately tiny and level-triggered:
//!
//! * [`Poller::register`] / [`Poller::modify`] / [`Poller::deregister`]
//!   associate a file descriptor with a caller-chosen `u64` token and an
//!   [`Interest`] (readable and/or writable).
//! * [`Poller::wait`] blocks up to a timeout and fills a caller-owned
//!   [`Event`] buffer. Level-triggered semantics: a socket that still has
//!   unread bytes (or writable space) reports again on the next wait, so the
//!   loop never needs to drain a socket to exhaustion in one pass.
//!
//! One `setsockopt` helper ([`set_send_buffer`]) is exposed so tests can
//! shrink a kernel send buffer and force the write path into backpressure
//! deterministically.

#![warn(missing_docs)]
#![cfg(unix)]

use std::io;
use std::os::fd::AsRawFd;
use std::time::Duration;

/// Which readiness states a registration wants to hear about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the descriptor has bytes to read (or a pending accept, or
    /// a hangup — closed peers always surface as readable).
    pub readable: bool,
    /// Wake when the descriptor can accept more bytes.
    pub writable: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Readable and writable.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// The descriptor is readable (bytes, a pending accept, or EOF).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
    /// The peer hung up or the descriptor errored. A read on the socket
    /// returns the queued bytes and then `Ok(0)` / the error — callers
    /// should treat this as "readable, then check for close".
    pub closed: bool,
}

/// Converts a `-1` C return into the thread's errno as [`io::Error`].
fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Millisecond timeout for the C poll interfaces: `None` blocks forever.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        // Round up so a nonzero timeout never busy-spins as zero.
        Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
    }
}

// =====================================================================
// Linux: epoll(7)
// =====================================================================
#[cfg(target_os = "linux")]
mod sys {
    use super::{cvt, timeout_ms, Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Mirror of the kernel's `struct epoll_event`. Packed on x86-64, where
    /// the kernel ABI declares it `__attribute__((packed))`.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy, Debug)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// The Linux poller: one epoll instance.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
        /// Number of live registrations (sizes the kernel event buffer).
        registered: usize,
        /// Reused kernel-side event buffer.
        buf: Vec<EpollEvent>,
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = 0;
        if interest.readable {
            // RDHUP rides with read interest only: a half-closed peer must
            // not wake a registration that masked reads off (EOF already
            // consumed), or the event loop spins on the level trigger.
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }

    impl Poller {
        /// Creates the epoll instance (close-on-exec).
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscall; the returned fd is owned by the Poller.
            let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller {
                epfd,
                registered: 0,
                buf: Vec::new(),
            })
        }

        /// Registers `fd` under `token` with the given interest.
        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) })?;
            self.registered += 1;
            Ok(())
        }

        /// Changes the interest (and token) of an already registered `fd`.
        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            // SAFETY: as in `register`.
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, &mut ev) })?;
            Ok(())
        }

        /// Removes `fd` from the poller. Must be called before the
        /// descriptor is closed (epoll auto-deregisters on close, but the
        /// registration count would drift).
        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // SAFETY: kernels since 2.6.9 accept a dummy event for DEL.
            cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) })?;
            self.registered = self.registered.saturating_sub(1);
            Ok(())
        }

        /// Waits up to `timeout` (`None` = forever) and appends readiness
        /// events to `out`. Returns the number of events appended; `0`
        /// means the timeout elapsed. EINTR retries internally.
        pub fn wait(
            &mut self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let cap = self.registered.clamp(8, 1024);
            self.buf.resize(cap, EpollEvent { events: 0, data: 0 });
            let n = loop {
                // SAFETY: `buf` is a live, correctly sized epoll_event array.
                let r = unsafe {
                    epoll_wait(
                        self.epfd,
                        self.buf.as_mut_ptr(),
                        cap as i32,
                        timeout_ms(timeout),
                    )
                };
                match cvt(r) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in &self.buf[..n] {
                let bits = ev.events;
                out.push(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                    writable: bits & EPOLLOUT != 0,
                    closed: bits & (EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: epfd is owned by this Poller and closed exactly once.
            unsafe { close(self.epfd) };
        }
    }
}

// =====================================================================
// Other Unix: poll(2)
// =====================================================================
#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    use super::{cvt, timeout_ms, Event, Interest};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: std::os::raw::c_uint, timeout: i32) -> i32;
    }

    /// The portable poller: a registration table replayed through poll(2)
    /// on every wait. Fine at the fleet sizes the transport runs (hundreds
    /// of sockets); Linux uses the epoll implementation instead.
    #[derive(Debug)]
    pub struct Poller {
        slots: Vec<(RawFd, u64, Interest)>,
        buf: Vec<PollFd>,
    }

    impl Poller {
        /// Creates an empty registration table.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                slots: Vec::new(),
                buf: Vec::new(),
            })
        }

        /// Registers `fd` under `token` with the given interest.
        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            if self.slots.iter().any(|(f, _, _)| *f == fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            self.slots.push((fd, token, interest));
            Ok(())
        }

        /// Changes the interest (and token) of an already registered `fd`.
        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            for slot in &mut self.slots {
                if slot.0 == fd {
                    slot.1 = token;
                    slot.2 = interest;
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        /// Removes `fd` from the table.
        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let before = self.slots.len();
            self.slots.retain(|(f, _, _)| *f != fd);
            if self.slots.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
            }
            Ok(())
        }

        /// Waits up to `timeout` (`None` = forever) and appends readiness
        /// events to `out`, returning how many were appended.
        pub fn wait(
            &mut self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            self.buf.clear();
            for (fd, _, interest) in &self.slots {
                let mut events = 0i16;
                if interest.readable {
                    events |= POLLIN;
                }
                if interest.writable {
                    events |= POLLOUT;
                }
                self.buf.push(PollFd {
                    fd: *fd,
                    events,
                    revents: 0,
                });
            }
            if self.buf.is_empty() {
                if let Some(d) = timeout {
                    std::thread::sleep(d.min(Duration::from_millis(50)));
                }
                return Ok(0);
            }
            loop {
                // SAFETY: `buf` is a live pollfd array of the given length.
                let r = unsafe {
                    poll(
                        self.buf.as_mut_ptr(),
                        self.buf.len() as std::os::raw::c_uint,
                        timeout_ms(timeout),
                    )
                };
                match cvt(r) {
                    Ok(_) => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
            let mut appended = 0;
            for (pfd, (_, token, _)) in self.buf.iter().zip(&self.slots) {
                let bits = pfd.revents;
                if bits == 0 {
                    continue;
                }
                out.push(Event {
                    token: *token,
                    readable: bits & (POLLIN | POLLHUP | POLLERR) != 0,
                    writable: bits & POLLOUT != 0,
                    closed: bits & (POLLHUP | POLLERR) != 0,
                });
                appended += 1;
            }
            Ok(appended)
        }
    }
}

/// Readiness poller: epoll(7) on Linux, poll(2) on other Unix systems.
/// See the module docs for the level-triggered contract.
#[derive(Debug)]
pub struct Poller {
    inner: sys::Poller,
}

impl Poller {
    /// Creates a poller with no registrations.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            inner: sys::Poller::new()?,
        })
    }

    /// Registers a descriptor under `token` with the given interest. The
    /// token comes back verbatim in every [`Event`] for this descriptor.
    pub fn register(
        &mut self,
        fd: &impl AsRawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        self.inner.register(fd.as_raw_fd(), token, interest)
    }

    /// Replaces the interest (and token) of a registered descriptor.
    pub fn modify(&mut self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.inner.modify(fd.as_raw_fd(), token, interest)
    }

    /// Removes a descriptor. Call before closing it.
    pub fn deregister(&mut self, fd: &impl AsRawFd) -> io::Result<()> {
        self.inner.deregister(fd.as_raw_fd())
    }

    /// Waits up to `timeout` (`None` blocks indefinitely, `Some(ZERO)` is a
    /// nonblocking check) and appends readiness events to `out`. Returns
    /// the number appended; `0` means the timeout elapsed with no events.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        self.inner.wait(out, timeout)
    }
}

// =====================================================================
// Socket-buffer helpers
// =====================================================================

#[cfg(target_os = "linux")]
mod sockopt_consts {
    pub const SOL_SOCKET: i32 = 1;
    pub const SO_SNDBUF: i32 = 7;
}
#[cfg(all(unix, not(target_os = "linux")))]
mod sockopt_consts {
    pub const SOL_SOCKET: i32 = 0xffff;
    pub const SO_SNDBUF: i32 = 0x1001;
}

extern "C" {
    fn setsockopt(
        fd: i32,
        level: i32,
        optname: i32,
        optval: *const std::ffi::c_void,
        optlen: u32,
    ) -> i32;
}

/// Shrinks (or grows) the kernel send buffer of a socket. The kernel may
/// round the value (Linux doubles it and enforces a floor of ~4.5 KiB);
/// tests use this to force partial writes and exercise backpressure.
pub fn set_send_buffer(sock: &impl AsRawFd, bytes: usize) -> io::Result<()> {
    let val = bytes.min(i32::MAX as usize) as i32;
    // SAFETY: `val` is a live i32 and optlen matches its size.
    cvt(unsafe {
        setsockopt(
            sock.as_raw_fd(),
            sockopt_consts::SOL_SOCKET,
            sockopt_consts::SO_SNDBUF,
            (&val as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    })
    .map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    #[test]
    fn listener_reports_readable_on_pending_accept() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(&listener, 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(0)))
            .unwrap();
        assert_eq!(n, 0, "no pending accept yet");

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn stream_reports_readable_when_bytes_arrive_and_modify_swaps_interest() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.register(&server, 1, Interest::READ).unwrap();
        let mut events = Vec::new();
        client.write_all(b"hi").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].readable && !events[0].writable);

        // Swap to write interest: an idle healthy socket is writable.
        poller.modify(&server, 2, Interest::WRITE).unwrap();
        events.clear();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 2);
        assert!(events[0].writable);

        poller.deregister(&server).unwrap();
        drop(client);
    }

    #[test]
    fn closed_peer_surfaces_as_readable_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let mut poller = Poller::new().unwrap();
        poller.register(&server, 9, Interest::READ).unwrap();
        drop(client);
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].readable, "close surfaces as readable");
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 0, "EOF");
    }

    #[test]
    fn send_buffer_can_be_shrunk() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        set_send_buffer(&client, 4096).unwrap();
    }
}
