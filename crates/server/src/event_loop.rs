//! The TCP server: one nonblocking poll loop per worker multiplexing
//! every connection on that worker's port.
//!
//! The loop runs on the worker's own thread (paper §2.2): once
//! [`crate::tcp::serve_tcp`] hands it over, the worker thread waits in
//! `epoll_wait` over its listener, a waker pipe, and all of its
//! connections instead of on its mailbox, so the server runs one thread
//! per worker whatever the connection count. Per-connection state is a
//! `Conn`: a [`FrameDecoder`] reassembling pipelined request frames from
//! arbitrary reads, and an outbound queue of response [`Frag`]s flushed
//! with vectored writes.
//!
//! ## Serving
//!
//! Each decoded frame is one batch of requests, served to completion on
//! the loop in read order (`WorkerCell::serve_batch`): the loop takes
//! the cell lock, serves every message queued in the mailbox before the
//! batch, then the batch itself. In-proc callers still serve an idle
//! worker on their own threads and queue otherwise; a send to a parked
//! loop rings the waker pipe, and the loop drains the mailbox between
//! poll rounds. A `Shutdown` message ends the loop: its connections
//! close, and its listener and poller are dropped.
//!
//! ## Zero-copy response path
//!
//! Responses are encoded straight onto the connection's queue with
//! [`codec::encode_response_frags_into`]: each frame's header and
//! metadata are written once into an owned fragment, and each value
//! payload is a refcount-bumped clone of the engine's own buffer. The
//! flush hands every fragment to `writev` via [`IoSlice`]. Responses
//! wait for the flush that follows the read, so the answers to every
//! frame of one read leave together, up to 64 fragments per `writev`. A cached value is therefore never
//! memcpy'd between the engine's return and the kernel.
//!
//! ## Half-close
//!
//! A peer may send its requests and shut down its write side. Every
//! complete frame read before the EOF is served, then the connection
//! closes once its answers are flushed.

use crate::config::IoConfig;
use crate::worker::WorkerCell;
use mbal_netpoll::{Interest, PollEvent, Poller};
use mbal_proto::codec::{self, opcode_of, Frag, Opcode};
use mbal_proto::{FrameDecoder, Request, Response, Status};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// Poll token of the worker's listener.
const LISTENER: u64 = 0;
/// Poll token of the waker pipe's read end.
const WAKER: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN: u64 = 2;
/// Read-buffer size; frames larger than this reassemble across reads.
const READ_BUF: usize = 64 * 1024;
/// Max fragments handed to one `writev` call (Linux caps iovecs at
/// 1024; staying well under keeps the syscall cheap).
const MAX_IOVECS: usize = 64;

/// Wakes an event loop parked in `epoll_wait`.
///
/// The worker's mailbox holds the write end of a socketpair; the loop
/// polls the read end. A one-byte write after a send to the parked
/// loop makes its `wait` return immediately. Both ends are nonblocking:
/// if the pipe buffer is full, enough wake bytes are already queued
/// that the loop is guaranteed to wake without this one.
struct LoopWaker {
    tx: UnixStream,
}

impl LoopWaker {
    /// Creates a waker and the read end the loop should poll.
    fn pair() -> std::io::Result<(LoopWaker, UnixStream)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((LoopWaker { tx }, rx))
    }

    /// Rings the loop. Never blocks; a full pipe already guarantees a
    /// wakeup to come.
    fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// Per-connection state: ~200 bytes plus buffers.
struct Conn {
    stream: TcpStream,
    /// Reassembles request frames from arbitrary read chunks.
    dec: FrameDecoder,
    /// Outbound response fragments, oldest first. Value fragments are
    /// refcounted views of engine memory; see the module docs.
    out: VecDeque<Frag>,
    /// Bytes of `out[0]` already written.
    out_head: usize,
    /// Last moment bytes arrived or left; drives idle reaping.
    last_active: Instant,
    /// Flush what remains, then close (EOF or protocol error).
    closing: bool,
    /// Current poll registration includes write interest.
    wants_write: bool,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Self {
            stream,
            dec: FrameDecoder::new(),
            out: VecDeque::new(),
            out_head: 0,
            last_active: now,
            closing: false,
            wants_write: false,
        }
    }
}

/// What to do after handling an event.
#[derive(PartialEq)]
enum Verdict {
    Keep,
    /// Close this connection.
    Drop,
    /// The worker has shut down: close everything.
    Stop,
}

/// One worker's event loop. [`EventLoop::new`] does every fallible step
/// on the caller's thread, so [`crate::tcp::serve_tcp`] can build all
/// loops before it hands any to its worker.
pub(crate) struct EventLoop {
    listener: TcpListener,
    poller: Poller,
    waker: LoopWaker,
    waker_rx: UnixStream,
    cfg: IoConfig,
}

impl EventLoop {
    /// Builds the loop for `listener`: poller, nonblocking listener,
    /// waker pair, registrations. Fails with [`ErrorKind::Unsupported`]
    /// on platforms without epoll.
    pub(crate) fn new(listener: TcpListener, cfg: IoConfig) -> std::io::Result<EventLoop> {
        let poller = Poller::new()?;
        listener.set_nonblocking(true)?;
        let (waker, waker_rx) = LoopWaker::pair()?;
        poller.add(listener.as_raw_fd(), LISTENER, Interest::READ)?;
        poller.add(waker_rx.as_raw_fd(), WAKER, Interest::READ)?;
        Ok(EventLoop {
            listener,
            poller,
            waker,
            waker_rx,
            cfg,
        })
    }

    /// Serves the worker's port and mailbox on the worker's thread
    /// until a `Shutdown` message stops the worker. Returning drops
    /// every connection, the listener and the poller.
    pub(crate) fn run(self, cell: &WorkerCell) {
        let mailbox = cell.mailbox();
        let waker = self.waker;
        mailbox.set_waker(move || waker.wake());
        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_token = FIRST_CONN;
        let mut events: Vec<PollEvent> = Vec::new();
        let mut read_buf = vec![0u8; READ_BUF];
        // Sweep cadence: half the idle timeout, clamped to [10ms, 1s], so a
        // connection overstays by at most 50%.
        let wait_ms = self
            .cfg
            .idle_timeout
            .map(|t| (t.as_millis() / 2).clamp(10, 1000) as i32)
            .unwrap_or(1000);

        loop {
            // Serve what was queued while the loop was busy. Parking
            // fails when mail is already queued; then only poll.
            if !mailbox.is_empty() && !cell.drain() {
                return;
            }
            let timeout = if mailbox.park() { wait_ms } else { 0 };
            events.clear();
            // EINTR comes back as an empty wait; nothing else can fail.
            self.poller.wait(&mut events, timeout).expect("epoll_wait");
            mailbox.unpark();
            let now = Instant::now();

            for ev in &events {
                match ev.token {
                    LISTENER => accept_ready(
                        &self.listener,
                        &self.poller,
                        &self.cfg,
                        &mut conns,
                        &mut next_token,
                        now,
                    ),
                    WAKER => drain_waker(&self.waker_rx),
                    token => {
                        let Some(conn) = conns.get_mut(&token) else {
                            continue;
                        };
                        let mut verdict = if ev.hangup {
                            Verdict::Drop
                        } else {
                            Verdict::Keep
                        };
                        if verdict == Verdict::Keep && ev.readable {
                            verdict = on_readable(conn, &mut read_buf, cell, now);
                            // Push out the answers to this read now.
                            if verdict == Verdict::Keep && !conn.out.is_empty() && !conn.wants_write
                            {
                                verdict = flush(conn, &self.poller, token, now);
                            }
                        }
                        if verdict == Verdict::Keep && ev.writable {
                            verdict = flush(conn, &self.poller, token, now);
                        }
                        match verdict {
                            Verdict::Keep => {}
                            Verdict::Drop => drop_conn(&self.poller, &mut conns, token),
                            Verdict::Stop => return,
                        }
                    }
                }
            }

            if let Some(idle) = self.cfg.idle_timeout {
                reap_idle(&self.poller, &mut conns, idle, now);
            }
        }
    }
}

/// Accepts until the listener runs dry, closing arrivals past the
/// connection cap on the spot.
fn accept_ready(
    listener: &TcpListener,
    poller: &Poller,
    cfg: &IoConfig,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    now: Instant,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if conns.len() >= cfg.max_conns_per_worker {
                    drop(stream); // shed: accept-and-close
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                stream.set_nodelay(true).ok();
                let token = *next_token;
                *next_token += 1;
                if poller
                    .add(stream.as_raw_fd(), token, Interest::READ)
                    .is_ok()
                {
                    conns.insert(token, Conn::new(stream, now));
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Swallows queued wake bytes so the pipe stays shallow.
fn drain_waker(rx: &UnixStream) {
    let mut buf = [0u8; 256];
    while matches!((&*rx).read(&mut buf), Ok(n) if n > 0) {}
}

/// Reads everything the socket has into `buf`, reassembles frames, and
/// serves each decoded batch. Frames read before an EOF are still
/// served; the connection closes once they are answered.
fn on_readable(conn: &mut Conn, buf: &mut [u8], cell: &WorkerCell, now: Instant) -> Verdict {
    let mut eof = false;
    loop {
        match conn.stream.read(buf) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => {
                conn.last_active = now;
                conn.dec.push(&buf[..n]);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Verdict::Drop,
        }
    }
    while !conn.closing {
        match conn.dec.next_frame() {
            Ok(Some(frame)) => {
                let verdict = dispatch(conn, &frame, cell);
                if verdict != Verdict::Keep {
                    return verdict;
                }
            }
            Ok(None) => break,
            Err(e) => {
                // Answer with a protocol error, then close. The stream
                // cannot be resynchronised past a malformed header.
                queue_protocol_error(conn, &e.to_string());
                conn.closing = true;
            }
        }
    }
    if eof {
        // Peer finished sending. Answer what was read, then close;
        // nothing left to answer means close now.
        conn.closing = true;
        if conn.out.is_empty() {
            return Verdict::Drop;
        }
    }
    Verdict::Keep
}

/// Decodes one frame, serves it on the worker and queues the answers.
/// Decode errors answer a protocol error and start closing.
fn dispatch(conn: &mut Conn, frame: &[u8], cell: &WorkerCell) -> Verdict {
    let (reqs, meta): (Vec<Request>, Vec<_>) = if codec::is_batch(frame) {
        match codec::decode_batch_request(frame) {
            Ok(subs) => subs
                .into_iter()
                .map(|(req, opaque)| {
                    let op = opcode_of(&req);
                    (req, (op, opaque))
                })
                .unzip(),
            Err(e) => {
                queue_protocol_error(conn, &e.to_string());
                conn.closing = true;
                return Verdict::Keep;
            }
        }
    } else {
        match codec::decode_request(frame) {
            Ok((req, opaque)) => {
                let op = opcode_of(&req);
                (vec![req], vec![(op, opaque)])
            }
            Err(e) => {
                queue_protocol_error(conn, &e.to_string());
                conn.closing = true;
                return Verdict::Keep;
            }
        }
    };
    match cell.serve_batch(reqs) {
        Some(resps) => queue_responses(conn, &resps, meta),
        None => Verdict::Stop,
    }
}

/// Encodes a batch's responses onto the connection's outbound queue.
/// Value payloads enter the queue as refcounted clones — no copy
/// between the engine's buffer and `writev`.
fn queue_responses(conn: &mut Conn, resps: &[Response], meta: Vec<(Opcode, u32)>) -> Verdict {
    for (resp, (opcode, opaque)) in resps.iter().zip(meta) {
        if codec::encode_response_frags_into(resp, opcode, opaque, &mut conn.out).is_err() {
            return Verdict::Drop;
        }
    }
    Verdict::Keep
}

/// Writes as much of the outbound queue as the socket accepts, handing
/// up to [`MAX_IOVECS`] fragments per `writev`. Registers or clears
/// write interest to match what remains.
fn flush(conn: &mut Conn, poller: &Poller, token: u64, now: Instant) -> Verdict {
    while !conn.out.is_empty() {
        let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(conn.out.len().min(MAX_IOVECS));
        let mut iter = conn.out.iter();
        let head = iter.next().expect("queue is non-empty");
        slices.push(IoSlice::new(&head[conn.out_head..]));
        for frag in iter.take(MAX_IOVECS - 1) {
            slices.push(IoSlice::new(frag));
        }
        match conn.stream.write_vectored(&slices) {
            Ok(0) => return Verdict::Drop,
            Ok(mut n) => {
                conn.last_active = now;
                while n > 0 {
                    let rem = conn.out[0].len() - conn.out_head;
                    if n >= rem {
                        n -= rem;
                        conn.out.pop_front();
                        conn.out_head = 0;
                    } else {
                        conn.out_head += n;
                        n = 0;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Verdict::Drop,
        }
    }
    if conn.closing && conn.out.is_empty() {
        return Verdict::Drop;
    }
    let wants = !conn.out.is_empty();
    if wants != conn.wants_write {
        let interest = if wants {
            Interest::READ_WRITE
        } else {
            Interest::READ
        };
        if poller
            .modify(conn.stream.as_raw_fd(), token, interest)
            .is_err()
        {
            return Verdict::Drop;
        }
        conn.wants_write = wants;
    }
    Verdict::Keep
}

/// Queues a best-effort `Fail` frame describing a protocol error.
fn queue_protocol_error(conn: &mut Conn, message: &str) {
    let resp = Response::Fail {
        status: Status::Error,
        message: message.to_string(),
    };
    // A `Fail` response always encodes.
    let _ = codec::encode_response_frags_into(&resp, Opcode::Stats, 0, &mut conn.out);
}

/// Deregisters and forgets a connection; dropping the stream closes it.
fn drop_conn(poller: &Poller, conns: &mut HashMap<u64, Conn>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        poller.delete(conn.stream.as_raw_fd()).ok();
    }
}

/// Closes connections with no traffic and nothing left to write for
/// longer than the idle timeout.
fn reap_idle(poller: &Poller, conns: &mut HashMap<u64, Conn>, idle: Duration, now: Instant) {
    let dead: Vec<u64> = conns
        .iter()
        .filter(|(_, c)| c.out.is_empty() && now.duration_since(c.last_active) >= idle)
        .map(|(t, _)| *t)
        .collect();
    for token in dead {
        drop_conn(poller, conns, token);
    }
}
