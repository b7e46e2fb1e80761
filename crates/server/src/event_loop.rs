//! Nonblocking event-loop transport: one poll loop per worker
//! multiplexing every connection on that worker's port.
//!
//! The original transport spawned a blocking framing thread per
//! accepted connection, so a worker serving 10k mostly-idle clients
//! carried 10k stacks. Here each worker owns a single loop thread
//! parked in `epoll_wait` over its listener, a waker pipe, and all of
//! its connections; per-connection state shrinks from a thread to a
//! [`Conn`]: a [`FrameDecoder`] reassembling pipelined request frames
//! from arbitrary reads, and an outbound queue of reference-counted
//! [`Bytes`] fragments flushed with vectored writes.
//!
//! ## Zero-copy response path
//!
//! Decoded requests are enqueued to the worker as
//! [`WorkerMsg::RpcTagged`]; the worker's reply travels back over the
//! loop's completion channel, and the worker rings the [`LoopWaker`] to
//! pop the loop out of `epoll_wait`. Responses are encoded with
//! [`codec::encode_response_frags`], which keeps each value payload as
//! a refcount-bumped [`Bytes`] clone of the engine's own buffer —
//! header and metadata are owned fragments, values are borrowed ones —
//! and the flush hands every fragment to `writev` via [`IoSlice`]. A
//! cached value is therefore never memcpy'd between the engine's
//! return and the kernel.
//!
//! ## Ordering
//!
//! Responses must leave a connection in request order. That holds with
//! no sequencing machinery because each loop serves exactly one
//! worker whose mailbox is FIFO: batch *k+1* is enqueued after batch
//! *k*, completes after it, and its completion is drained after it.

use crate::config::IoConfig;
use crate::mailbox::Mailbox;
use crate::messages::{RpcTag, WorkerMsg};
use bytes::Bytes;
use crossbeam_channel::Sender;
use mbal_netpoll::{Interest, PollEvent, Poller};
use mbal_proto::codec::{self, opcode_of};
use mbal_proto::{FrameDecoder, Request, Response, Status};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
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
/// The worker thread holds the write end of a socketpair; the loop
/// polls the read end. A one-byte write after publishing a completion
/// makes the loop's next `wait` return immediately. Both ends are
/// nonblocking: if the pipe buffer is full, enough wake bytes are
/// already pending that the loop is guaranteed to wake without this
/// one.
#[derive(Debug)]
pub struct LoopWaker {
    tx: UnixStream,
}

impl LoopWaker {
    /// Creates a waker and the read end the loop should poll.
    fn pair() -> std::io::Result<(Arc<LoopWaker>, UnixStream)> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok((Arc::new(LoopWaker { tx }), rx))
    }

    /// Rings the loop. Never blocks; a full pipe already guarantees a
    /// pending wakeup.
    pub fn wake(&self) {
        let _ = (&self.tx).write(&[1u8]);
    }
}

/// Per-connection state: everything the old per-connection thread kept
/// on its stack, in ~200 bytes plus buffers.
struct Conn {
    stream: TcpStream,
    /// Reassembles request frames from arbitrary read chunks.
    dec: FrameDecoder,
    /// Outbound response fragments, oldest first. Value fragments are
    /// refcounted views of engine memory; see the module docs.
    out: VecDeque<Bytes>,
    /// Bytes of `out[0]` already written.
    out_head: usize,
    /// Tagged batches in flight at the worker.
    pending: usize,
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
            pending: 0,
            last_active: now,
            closing: false,
            wants_write: false,
        }
    }

    /// True once nothing is buffered, in flight, or expected.
    fn drained(&self) -> bool {
        self.out.is_empty() && self.pending == 0
    }
}

/// What to do with a connection after handling an event.
#[derive(PartialEq)]
enum Verdict {
    Keep,
    Drop,
}

/// Runs one worker's event loop until the process exits (mirroring the
/// listener threads of the threaded backend). Fails fast with
/// [`ErrorKind::Unsupported`] on platforms without epoll so the caller
/// can fall back to the threaded backend.
pub(crate) fn run(
    listener: &TcpListener,
    worker: Mailbox<WorkerMsg>,
    cfg: IoConfig,
) -> std::io::Result<()> {
    let poller = Poller::new()?;
    listener.set_nonblocking(true)?;
    let (waker, waker_rx) = LoopWaker::pair()?;
    let (done_tx, done_rx) = crossbeam_channel::unbounded::<(RpcTag, Vec<Response>)>();
    poller.add(listener.as_raw_fd(), LISTENER, Interest::READ)?;
    poller.add(waker_rx.as_raw_fd(), WAKER, Interest::READ)?;

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN;
    let mut events: Vec<PollEvent> = Vec::new();
    // Sweep cadence: half the idle timeout, clamped to [10ms, 1s], so a
    // connection overstays by at most 50%.
    let wait_ms = cfg
        .idle_timeout
        .map(|t| (t.as_millis() / 2).clamp(10, 1000) as i32)
        .unwrap_or(1000);

    loop {
        events.clear();
        poller.wait(&mut events, wait_ms)?;
        let now = Instant::now();

        for ev in &events {
            match ev.token {
                LISTENER => accept_ready(listener, &poller, &cfg, &mut conns, &mut next_token, now),
                WAKER => drain_waker(&waker_rx),
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
                        verdict = on_readable(conn, token, &worker, &done_tx, &waker, now);
                        // A protocol-error frame queued during decode has
                        // no completion coming to flush it — push it out
                        // now or the peer waits forever.
                        if verdict == Verdict::Keep && !conn.out.is_empty() && !conn.wants_write {
                            verdict = flush(conn, &poller, token, now);
                        }
                    }
                    if verdict == Verdict::Keep && ev.writable {
                        verdict = flush(conn, &poller, token, now);
                    }
                    if verdict == Verdict::Drop {
                        drop_conn(&poller, &mut conns, token);
                    }
                }
            }
        }

        // Completions can land whether or not the waker event was seen
        // this round; always drain.
        while let Ok((tag, resps)) = done_rx.try_recv() {
            let token = tag.conn;
            let Some(conn) = conns.get_mut(&token) else {
                continue; // connection died while the batch was in flight
            };
            if on_complete(conn, &poller, token, tag, resps, now) == Verdict::Drop {
                drop_conn(&poller, &mut conns, token);
            }
        }

        if let Some(idle) = cfg.idle_timeout {
            reap_idle(&poller, &mut conns, idle, now);
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

/// Swallows pending wake bytes so the pipe stays shallow.
fn drain_waker(rx: &UnixStream) {
    let mut buf = [0u8; 256];
    while matches!((&*rx).read(&mut buf), Ok(n) if n > 0) {}
}

/// Reads everything the socket has, reassembles frames, and enqueues
/// decoded requests to the worker.
fn on_readable(
    conn: &mut Conn,
    token: u64,
    worker: &Mailbox<WorkerMsg>,
    done_tx: &Sender<(RpcTag, Vec<Response>)>,
    waker: &Arc<LoopWaker>,
    now: Instant,
) -> Verdict {
    let mut buf = [0u8; READ_BUF];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                // Peer finished sending. Serve what is in flight, then
                // close; nothing buffered means close now.
                conn.closing = true;
                if conn.drained() {
                    return Verdict::Drop;
                }
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
                if dispatch(conn, token, &frame, worker, done_tx, waker) == Verdict::Drop {
                    return Verdict::Drop;
                }
            }
            Ok(None) => break,
            Err(e) => {
                // Same contract as the blocking path: answer with a
                // protocol error, then close. The stream cannot be
                // resynchronised past a malformed header.
                queue_protocol_error(conn, &e.to_string());
                conn.closing = true;
            }
        }
    }
    Verdict::Keep
}

/// Decodes one frame and enqueues it as a tagged batch. Decode errors
/// answer a protocol error and start closing, like the blocking path.
fn dispatch(
    conn: &mut Conn,
    token: u64,
    frame: &[u8],
    worker: &Mailbox<WorkerMsg>,
    done_tx: &Sender<(RpcTag, Vec<Response>)>,
    waker: &Arc<LoopWaker>,
) -> Verdict {
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
    let msg = WorkerMsg::RpcTagged {
        reqs,
        tag: RpcTag { conn: token, meta },
        reply: done_tx.clone(),
        notify: waker.clone(),
    };
    if worker.send(msg).is_err() {
        return Verdict::Drop; // worker is gone; nothing to serve
    }
    conn.pending += 1;
    Verdict::Keep
}

/// Encodes a completed batch onto the connection's outbound queue and
/// flushes. Value payloads enter the queue as refcounted [`Bytes`]
/// clones — no copy between the engine's buffer and `writev`.
fn on_complete(
    conn: &mut Conn,
    poller: &Poller,
    token: u64,
    tag: RpcTag,
    resps: Vec<Response>,
    now: Instant,
) -> Verdict {
    conn.pending = conn.pending.saturating_sub(1);
    for (resp, (opcode, opaque)) in resps.iter().zip(tag.meta) {
        match codec::encode_response_frags(resp, opcode, opaque) {
            Ok(frags) => conn.out.extend(frags),
            Err(_) => return Verdict::Drop,
        }
    }
    flush(conn, poller, token, now)
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
    if conn.closing && conn.drained() {
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
    if let Ok(frags) = codec::encode_response_frags(&resp, codec::Opcode::Stats, 0) {
        conn.out.extend(frags);
    }
}

/// Deregisters and forgets a connection; dropping the stream closes it.
fn drop_conn(poller: &Poller, conns: &mut HashMap<u64, Conn>, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        poller.delete(conn.stream.as_raw_fd()).ok();
    }
}

/// Closes connections with no traffic and no pending work for longer
/// than the idle timeout.
fn reap_idle(poller: &Poller, conns: &mut HashMap<u64, Conn>, idle: Duration, now: Instant) {
    let dead: Vec<u64> = conns
        .iter()
        .filter(|(_, c)| c.drained() && now.duration_since(c.last_active) >= idle)
        .map(|(t, _)| *t)
        .collect();
    for token in dead {
        drop_conn(poller, conns, token);
    }
}
