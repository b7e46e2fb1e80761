//! # mbal-netpoll
//!
//! A minimal, safe readiness-notification wrapper over Linux `epoll`,
//! just wide enough for MBal's event-driven TCP transport: register a
//! file descriptor under a `u64` token with read/write interest, block
//! in [`Poller::wait`], get `(token, readable, writable, hangup)`
//! events back.
//!
//! This crate is the only place in the workspace that uses `unsafe`
//! (the three `epoll_*` syscalls and an `rlimit` helper); everything
//! above it — connection state machines, frame reassembly, vectored
//! writes — is safe code in `mbal-server`. The FFI declarations bind
//! libc symbols that `std` already links on Linux, so no new
//! dependency is involved.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod sys {
    use std::io;
    use std::os::raw::c_int;
    use std::os::unix::io::RawFd;

    // The x86-64 kernel ABI packs epoll_event; other architectures use
    // natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
        fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    }

    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }

    const RLIMIT_NOFILE: c_int = 7;

    pub fn create() -> io::Result<RawFd> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(fd)
    }

    pub fn ctl(epfd: RawFd, op: c_int, fd: RawFd, mut ev: Option<EpollEvent>) -> io::Result<()> {
        let ptr = ev
            .as_mut()
            .map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
        if unsafe { epoll_ctl(epfd, op, fd, ptr) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn wait(epfd: RawFd, buf: &mut [EpollEvent], timeout_ms: c_int) -> io::Result<usize> {
        let n = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(n as usize)
    }

    pub fn close_fd(fd: RawFd) {
        unsafe {
            close(fd);
        }
    }

    /// Raises the soft open-file limit towards `want` (capped at the
    /// hard limit). Returns the resulting soft limit.
    pub fn raise_nofile(want: u64) -> io::Result<u64> {
        let mut lim = Rlimit { cur: 0, max: 0 };
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } < 0 {
            return Err(io::Error::last_os_error());
        }
        if lim.cur >= want {
            return Ok(lim.cur);
        }
        let target = want.min(lim.max);
        let next = Rlimit {
            cur: target,
            max: lim.max,
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &next) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(target)
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::sys;
    use std::io;
    use std::os::unix::io::RawFd;

    /// I/O readiness to watch a descriptor for.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Interest {
        /// Wake when the descriptor becomes readable.
        pub readable: bool,
        /// Wake when the descriptor becomes writable.
        pub writable: bool,
    }

    impl Interest {
        /// Read-only interest.
        pub const READ: Interest = Interest {
            readable: true,
            writable: false,
        };
        /// Read + write interest.
        pub const READ_WRITE: Interest = Interest {
            readable: true,
            writable: true,
        };

        fn mask(self) -> u32 {
            let mut m = sys::EPOLLRDHUP;
            if self.readable {
                m |= sys::EPOLLIN;
            }
            if self.writable {
                m |= sys::EPOLLOUT;
            }
            m
        }
    }

    /// One readiness event out of [`Poller::wait`].
    #[derive(Debug, Clone, Copy)]
    pub struct PollEvent {
        /// The token the descriptor was registered under.
        pub token: u64,
        /// Readable (or a peer half-close — drain until EOF).
        pub readable: bool,
        /// Writable.
        pub writable: bool,
        /// Error or hangup; the connection is done for.
        pub hangup: bool,
    }

    /// An epoll instance. Closes its descriptor on drop.
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        /// Creates a new epoll instance.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                epfd: sys::create()?,
            })
        }

        /// Registers `fd` under `token`.
        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            sys::ctl(
                self.epfd,
                sys::EPOLL_CTL_ADD,
                fd,
                Some(sys::EpollEvent {
                    events: interest.mask(),
                    data: token,
                }),
            )
        }

        /// Changes the interest set of a registered `fd`.
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            sys::ctl(
                self.epfd,
                sys::EPOLL_CTL_MOD,
                fd,
                Some(sys::EpollEvent {
                    events: interest.mask(),
                    data: token,
                }),
            )
        }

        /// Deregisters `fd`.
        pub fn delete(&self, fd: RawFd) -> io::Result<()> {
            sys::ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, None)
        }

        /// Blocks until readiness or `timeout_ms` (negative blocks
        /// forever), appending events to `out`. Returns the event count.
        pub fn wait(&self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<usize> {
            let mut buf = [sys::EpollEvent { events: 0, data: 0 }; 256];
            let n = sys::wait(self.epfd, &mut buf, timeout_ms)?;
            for ev in &buf[..n] {
                let bits = ev.events;
                out.push(PollEvent {
                    token: ev.data,
                    readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                    writable: bits & sys::EPOLLOUT != 0,
                    hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
                });
            }
            Ok(n)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            sys::close_fd(self.epfd);
        }
    }

    /// Raises the process soft fd limit towards `want` (capped at the
    /// hard limit); returns the resulting soft limit. Connection-dense
    /// servers and tests call this so accept storms don't die on EMFILE.
    pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
        sys::raise_nofile(want)
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use std::io;
    use std::os::unix::io::RawFd;

    /// I/O readiness to watch a descriptor for.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Interest {
        /// Wake when the descriptor becomes readable.
        pub readable: bool,
        /// Wake when the descriptor becomes writable.
        pub writable: bool,
    }

    impl Interest {
        /// Read-only interest.
        pub const READ: Interest = Interest {
            readable: true,
            writable: false,
        };
        /// Read + write interest.
        pub const READ_WRITE: Interest = Interest {
            readable: true,
            writable: true,
        };
    }

    /// One readiness event out of [`Poller::wait`].
    #[derive(Debug, Clone, Copy)]
    pub struct PollEvent {
        /// The token the descriptor was registered under.
        pub token: u64,
        /// Readable.
        pub readable: bool,
        /// Writable.
        pub writable: bool,
        /// Error or hangup.
        pub hangup: bool,
    }

    /// Unsupported on this platform: construction fails, so the TCP
    /// server reports [`io::ErrorKind::Unsupported`] instead of serving.
    #[derive(Debug)]
    pub struct Poller {}

    impl Poller {
        /// Always fails off Linux.
        pub fn new() -> io::Result<Poller> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "epoll is Linux-only; the MBal TCP server needs it",
            ))
        }

        /// Unreachable (construction fails).
        pub fn add(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            unreachable!("Poller cannot be constructed off Linux")
        }

        /// Unreachable (construction fails).
        pub fn modify(&self, _fd: RawFd, _token: u64, _interest: Interest) -> io::Result<()> {
            unreachable!("Poller cannot be constructed off Linux")
        }

        /// Unreachable (construction fails).
        pub fn delete(&self, _fd: RawFd) -> io::Result<()> {
            unreachable!("Poller cannot be constructed off Linux")
        }

        /// Unreachable (construction fails).
        pub fn wait(&self, _out: &mut Vec<PollEvent>, _timeout_ms: i32) -> io::Result<usize> {
            unreachable!("Poller cannot be constructed off Linux")
        }
    }

    /// No-op off Linux.
    pub fn raise_nofile_limit(_want: u64) -> io::Result<u64> {
        Ok(u64::MAX)
    }
}

pub use imp::{raise_nofile_limit, Interest, PollEvent, Poller};

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readiness_roundtrip() {
        let poller = Poller::new().expect("epoll_create");
        let (mut a, mut b) = UnixStream::pair().expect("socketpair");
        poller
            .add(b.as_raw_fd(), 7, Interest::READ)
            .expect("register");

        // Nothing pending: a zero-timeout wait returns no events.
        let mut evs = Vec::new();
        poller.wait(&mut evs, 0).expect("wait");
        assert!(evs.is_empty());

        a.write_all(b"x").expect("write");
        poller.wait(&mut evs, 1000).expect("wait");
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].token, 7);
        assert!(evs[0].readable);

        let mut byte = [0u8; 1];
        b.read_exact(&mut byte).expect("read");

        // Write interest on an empty socket buffer fires immediately.
        poller
            .modify(b.as_raw_fd(), 7, Interest::READ_WRITE)
            .expect("modify");
        evs.clear();
        poller.wait(&mut evs, 1000).expect("wait");
        assert!(evs.iter().any(|e| e.token == 7 && e.writable));

        poller.delete(b.as_raw_fd()).expect("delete");
        evs.clear();
        a.write_all(b"y").expect("write");
        poller.wait(&mut evs, 0).expect("wait");
        assert!(evs.is_empty(), "deregistered fd raises no events");
    }

    #[test]
    fn peer_close_raises_readable_for_eof() {
        let poller = Poller::new().expect("epoll_create");
        let (a, b) = UnixStream::pair().expect("socketpair");
        poller
            .add(b.as_raw_fd(), 1, Interest::READ)
            .expect("register");
        drop(a);
        let mut evs = Vec::new();
        poller.wait(&mut evs, 1000).expect("wait");
        assert!(
            evs.iter().any(|e| e.token == 1 && (e.readable || e.hangup)),
            "peer close must surface: {evs:?}"
        );
    }

    #[test]
    fn nofile_limit_is_queryable() {
        let got = raise_nofile_limit(1).expect("rlimit");
        assert!(got >= 1);
    }
}
