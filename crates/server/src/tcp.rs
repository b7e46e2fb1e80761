//! TCP transport: one listening port per worker (§2.3).
//!
//! "We associate a TCP/UDP port with each cache server worker thread so
//! that clients can directly interact with workers without any
//! centralized component." Each worker gets its own listener. By
//! default ([`IoBackend::EventLoop`]) the listener and all of its
//! connections are multiplexed on one nonblocking poll loop per worker
//! (see [`crate::event_loop`]); the legacy [`IoBackend::Threaded`]
//! backend — one blocking framing thread per accepted connection — is
//! retained as a config option and as the automatic fallback on
//! platforms without epoll.
//!
//! Batches travel as one [`codec::Opcode::Batch`] envelope per
//! direction-in, and as pipelined individual response frames (written in
//! a single flush) direction-out, so a connection drop mid-batch still
//! yields per-operation outcomes via opaque correlation.

use crate::config::{IoBackend, IoConfig};
use crate::event_loop;
use crate::mailbox::Mailbox;
use crate::messages::WorkerMsg;
use crate::transport::{batch_errs, Transport, TransportError, DEFAULT_DEADLINE};
use crossbeam_channel::{bounded, Receiver, Sender};
use mbal_core::types::WorkerAddr;
use mbal_proto::codec::{self, opcode_of, HEADER_LEN};
use mbal_proto::{Request, Response, Status};
use mbal_telemetry::{Counter, MetricsShard, MetricsSnapshot};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connect attempts per call before giving up on a worker.
const CONNECT_RETRIES: u32 = 3;
/// Base backoff between connect attempts; doubles each retry.
const RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// Per-operation results of a batch exchange.
type BatchOutcome = Vec<Result<Response, TransportError>>;

/// Reads one length-framed protocol frame. Returns `Ok(None)` on a clean
/// EOF at a frame boundary. Malformed headers (bad magic, or a body
/// length past [`codec::MAX_FRAME_LEN`]) surface as
/// [`ErrorKind::InvalidData`] rather than a panic or a multi-gigabyte
/// allocation, so one hostile byte stream can never take down a framing
/// thread or the worker behind it.
fn read_frame(stream: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; HEADER_LEN];
    match stream.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    if header[0] != codec::MAGIC_REQUEST && header[0] != codec::MAGIC_RESPONSE {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("bad magic {:#x}", header[0]),
        ));
    }
    let total = match codec::frame_len(&header) {
        Some(t) if t <= codec::MAX_FRAME_LEN => t,
        Some(t) => {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!(
                    "frame of {t} bytes exceeds the {} byte cap",
                    codec::MAX_FRAME_LEN
                ),
            ))
        }
        None => {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                "short frame header",
            ))
        }
    };
    let mut frame = vec![0u8; total];
    frame[..HEADER_LEN].copy_from_slice(&header);
    stream.read_exact(&mut frame[HEADER_LEN..])?;
    Ok(Some(frame))
}

/// Best-effort `Fail` response describing a protocol error; the caller
/// drops the connection right after (resynchronising a byte stream past
/// a malformed frame is guesswork).
fn send_protocol_error(stream: &mut TcpStream, message: &str) {
    let resp = Response::Fail {
        status: Status::Error,
        message: message.to_string(),
    };
    if let Ok(bytes) = codec::encode_response(&resp, codec::Opcode::Stats, 0) {
        let _ = stream.write_all(&bytes);
    }
}

/// Serves one decoded batch: a single mailbox enqueue, then one response
/// frame per sub-request — all encoded into one buffer and flushed with
/// a single write. Returns `false` when the connection or worker is gone.
fn serve_batch(
    stream: &mut TcpStream,
    worker: &Mailbox<WorkerMsg>,
    subs: Vec<(Request, u32)>,
) -> bool {
    let mut opcodes = Vec::with_capacity(subs.len());
    let mut opaques = Vec::with_capacity(subs.len());
    let mut reqs = Vec::with_capacity(subs.len());
    for (req, opaque) in subs {
        opcodes.push(opcode_of(&req));
        opaques.push(opaque);
        reqs.push(req);
    }
    let (rtx, rrx) = bounded(1);
    if worker
        .send(WorkerMsg::RpcBatch { reqs, reply: rtx })
        .is_err()
    {
        return false;
    }
    let Ok(resps) = rrx.recv() else {
        return false;
    };
    let mut out = Vec::new();
    for (i, resp) in resps.iter().enumerate().take(opcodes.len()) {
        match codec::encode_response(resp, opcodes[i], opaques[i]) {
            Ok(bytes) => out.extend_from_slice(&bytes),
            Err(_) => return false,
        }
    }
    stream.write_all(&out).is_ok()
}

/// Serves one accepted connection against a worker mailbox.
fn serve_connection(mut stream: TcpStream, worker: Mailbox<WorkerMsg>) {
    stream.set_nodelay(true).ok();
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(f)) => f,
            Ok(None) => return,
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                send_protocol_error(&mut stream, &e.to_string());
                return;
            }
            Err(_) => return,
        };
        if codec::is_batch(&frame) {
            match codec::decode_batch_request(&frame) {
                Ok(subs) => {
                    if !serve_batch(&mut stream, &worker, subs) {
                        return;
                    }
                }
                Err(e) => {
                    send_protocol_error(&mut stream, &e.to_string());
                    return;
                }
            }
            continue;
        }
        let (resp, opcode, opaque) = match codec::decode_request(&frame) {
            Ok((req, opaque)) => {
                let opcode = opcode_of(&req);
                let (rtx, rrx) = bounded(1);
                if worker.send(WorkerMsg::Rpc { req, reply: rtx }).is_err() {
                    return;
                }
                match rrx.recv() {
                    Ok(resp) => (resp, opcode, opaque),
                    Err(_) => return,
                }
            }
            Err(e) => {
                send_protocol_error(&mut stream, &e.to_string());
                return;
            }
        };
        let Ok(bytes) = codec::encode_response(&resp, opcode, opaque) else {
            return;
        };
        if stream.write_all(&bytes).is_err() {
            return;
        }
    }
}

/// Binds one listener per worker on consecutive ports starting at
/// `base_port` (0 picks ephemeral ports) and returns the bound
/// addresses, serving with the default I/O configuration (event loop,
/// environment-overridable). Serving threads run until the process
/// exits.
pub fn serve_tcp(
    workers: &[(WorkerAddr, Mailbox<WorkerMsg>)],
    host: &str,
    base_port: u16,
) -> std::io::Result<Vec<(WorkerAddr, SocketAddr)>> {
    serve_tcp_with(workers, host, base_port, IoConfig::from_env())
}

/// [`serve_tcp`] with explicit I/O knobs: serving backend, per-worker
/// connection cap, and idle-connection reaping.
///
/// Under [`IoBackend::EventLoop`] each worker gets exactly one loop
/// thread multiplexing every connection on its port, so the server's
/// thread count is bounded by the worker count regardless of how many
/// clients connect. Under [`IoBackend::Threaded`] (or when epoll is
/// unavailable) each accepted connection gets a blocking framing
/// thread, as before.
pub fn serve_tcp_with(
    workers: &[(WorkerAddr, Mailbox<WorkerMsg>)],
    host: &str,
    base_port: u16,
    io: IoConfig,
) -> std::io::Result<Vec<(WorkerAddr, SocketAddr)>> {
    // Accept storms under the event loop are bounded by the connection
    // cap, not the thread count; make sure the fd table keeps up.
    if io.backend == IoBackend::EventLoop {
        let want = workers.len() as u64 * io.max_conns_per_worker as u64 + 64;
        mbal_netpoll::raise_nofile_limit(want).ok();
    }
    let mut bound = Vec::new();
    for (i, (addr, tx)) in workers.iter().enumerate() {
        let port = if base_port == 0 {
            0
        } else {
            base_port + i as u16
        };
        let listener = TcpListener::bind((host, port))?;
        bound.push((*addr, listener.local_addr()?));
        let tx = tx.clone();
        let cfg = io.clone();
        std::thread::Builder::new()
            .name(format!("mbal-tcp-{addr}"))
            .spawn(move || {
                if cfg.backend == IoBackend::EventLoop {
                    match event_loop::run(&listener, tx.clone(), cfg) {
                        // The loop only returns on an unrecoverable
                        // poller error; Unsupported never reaches here
                        // because construction is the first fallible
                        // step, so fall through to the threaded backend.
                        Err(e) if e.kind() == ErrorKind::Unsupported => {}
                        _ => return,
                    }
                    // `event_loop::run` flipped the listener
                    // nonblocking before failing; undo for the
                    // blocking accept loop.
                    // (Unreachable on Linux: Poller::new is the first
                    // fallible step and epoll is always present.)
                    #[allow(unused_must_use)]
                    {
                        listener.set_nonblocking(false);
                    }
                }
                serve_threaded(listener, tx);
            })
            .expect("spawn listener thread");
    }
    Ok(bound)
}

/// The legacy backend: a blocking framing thread per accepted
/// connection.
fn serve_threaded(listener: TcpListener, tx: Mailbox<WorkerMsg>) {
    for conn in listener.incoming().flatten() {
        let tx = tx.clone();
        std::thread::spawn(move || serve_connection(conn, tx));
    }
}

/// Maps an I/O failure to a transport error, classifying read/write
/// timeouts as [`TransportError::Timeout`].
fn io_err(addr: WorkerAddr, e: &std::io::Error) -> TransportError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => TransportError::Timeout(addr),
        _ => TransportError::Broken(e.to_string()),
    }
}

/// Applies the remaining deadline budget to both stream directions,
/// failing with [`TransportError::Timeout`] once it is exhausted (a zero
/// socket timeout would be rejected by the OS as "no timeout").
fn set_stream_deadline(
    stream: &TcpStream,
    deadline: Instant,
    addr: WorkerAddr,
) -> Result<(), TransportError> {
    let now = Instant::now();
    if now >= deadline {
        return Err(TransportError::Timeout(addr));
    }
    let left = deadline - now;
    stream
        .set_read_timeout(Some(left))
        .map_err(|e| TransportError::Broken(e.to_string()))?;
    stream
        .set_write_timeout(Some(left))
        .map_err(|e| TransportError::Broken(e.to_string()))?;
    Ok(())
}

/// One request/response exchange. On failure the `bool` is `true` when
/// the frame never fully left this side — the worker cannot have seen a
/// complete frame, so resending on a fresh connection is safe even for
/// non-idempotent ops — and `false` once the worker may have executed
/// the request.
fn exchange_one(
    stream: &mut TcpStream,
    frame: &[u8],
    deadline: Instant,
    addr: WorkerAddr,
) -> Result<Response, (bool, TransportError)> {
    set_stream_deadline(stream, deadline, addr).map_err(|e| (true, e))?;
    stream
        .write_all(frame)
        .map_err(|e| (true, io_err(addr, &e)))?;
    set_stream_deadline(stream, deadline, addr).map_err(|e| (false, e))?;
    let resp_frame = read_frame(stream)
        .map_err(|e| (false, io_err(addr, &e)))?
        .ok_or_else(|| (false, TransportError::Broken("connection closed".into())))?;
    let (resp, _, _) = codec::decode_response(&resp_frame)
        .map_err(|e| (false, TransportError::Broken(e.to_string())))?;
    Ok(resp)
}

/// Overwrites every not-yet-answered slot with `e`.
fn fill_pending(out: &mut [Result<Response, TransportError>], e: TransportError) {
    for slot in out.iter_mut() {
        if slot.is_err() {
            *slot = Err(e.clone());
        }
    }
}

/// Sends one batch envelope and drains its pipelined responses,
/// correlating by opaque. Write-side failures return `Err((retry_safe,
/// err))` so the caller can resend the whole batch on a fresh
/// connection; once response bytes start flowing, failures degrade to
/// per-operation errors inside the returned vector instead — the batch
/// is never resent then, because some of its writes may already have
/// executed.
fn exchange_batch(
    stream: &mut TcpStream,
    frame: &[u8],
    n: usize,
    deadline: Instant,
    addr: WorkerAddr,
) -> Result<BatchOutcome, (bool, TransportError)> {
    set_stream_deadline(stream, deadline, addr).map_err(|e| (true, e))?;
    stream
        .write_all(frame)
        .map_err(|e| (true, io_err(addr, &e)))?;
    let mut out: BatchOutcome = batch_errs(
        n,
        TransportError::Broken("no response before the connection died".into()),
    );
    for got in 0..n {
        if let Err(e) = set_stream_deadline(stream, deadline, addr) {
            fill_pending(&mut out, e);
            return Ok(out);
        }
        let resp_frame = match read_frame(stream) {
            Ok(Some(f)) => f,
            Ok(None) => {
                fill_pending(
                    &mut out,
                    TransportError::Broken(format!(
                        "connection closed after {got} of {n} batch responses"
                    )),
                );
                return Ok(out);
            }
            Err(e) => {
                fill_pending(&mut out, io_err(addr, &e));
                return Ok(out);
            }
        };
        match codec::decode_response(&resp_frame) {
            Ok((resp, _, opaque)) => {
                if let Some(slot) = out.get_mut(opaque as usize) {
                    *slot = Ok(resp);
                }
            }
            Err(e) => {
                fill_pending(&mut out, TransportError::Broken(e.to_string()));
                return Ok(out);
            }
        }
    }
    Ok(out)
}

/// Drains fire-and-forget casts over dedicated connections, so a slow or
/// dead shadow never blocks the worker that enqueued the cast. Each
/// response is read (with the configured `read_timeout`) and discarded
/// to keep the stream framed; a shadow that times out counts a
/// [`Counter::TransportTimeouts`] tick and loses its pump connection —
/// never a silent retry — because asynchronous replication is
/// best-effort (§3.2) but operators still need to see the drops. The
/// pump exits when the owning transport is dropped.
fn cast_pump(
    addrs: HashMap<WorkerAddr, SocketAddr>,
    rx: Receiver<(WorkerAddr, Request)>,
    read_timeout: Duration,
    metrics: Arc<MetricsShard>,
) {
    let mut conns: HashMap<WorkerAddr, TcpStream> = HashMap::new();
    while let Ok((addr, req)) = rx.recv() {
        let Ok(frame) = codec::encode_request(&req, 0) else {
            continue;
        };
        let Some(&sock) = addrs.get(&addr) else {
            continue;
        };
        // A pooled pump connection may have gone stale while idle; retry
        // once on a fresh one (write failures only — a read timeout is a
        // live-but-slow shadow, where resending would double-apply).
        for _ in 0..2 {
            if let std::collections::hash_map::Entry::Vacant(e) = conns.entry(addr) {
                match TcpStream::connect(sock) {
                    Ok(s) => {
                        s.set_nodelay(true).ok();
                        s.set_read_timeout(Some(read_timeout)).ok();
                        e.insert(s);
                    }
                    Err(_) => break,
                }
            }
            let stream = conns.get_mut(&addr).expect("just inserted");
            if stream.write_all(&frame).is_ok() {
                match read_frame(stream) {
                    Ok(Some(_)) => {}
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        metrics.incr(Counter::TransportTimeouts);
                        conns.remove(&addr);
                    }
                    _ => {
                        conns.remove(&addr);
                    }
                }
                break;
            }
            conns.remove(&addr);
        }
    }
}

/// Client-side TCP transport with per-worker connection pooling,
/// per-call deadlines, bounded connect retry/backoff, pipelined batches,
/// and a background cast pump for genuinely non-blocking casts.
pub struct TcpTransport {
    addrs: HashMap<WorkerAddr, SocketAddr>,
    pool: Mutex<HashMap<WorkerAddr, Vec<TcpStream>>>,
    cast_tx: Sender<(WorkerAddr, Request)>,
    /// Client-side transport health counters
    /// ([`Counter::TransportRetries`], [`Counter::TransportTimeouts`]).
    metrics: Arc<MetricsShard>,
}

impl TcpTransport {
    /// Creates a transport from a worker→socket address map and spawns
    /// its cast pump thread (which exits when the transport is dropped).
    /// The pump's read timeout comes from the default [`IoConfig`]
    /// (overridable via `MBAL_CAST_TIMEOUT_MS`).
    pub fn new(addrs: HashMap<WorkerAddr, SocketAddr>) -> Arc<Self> {
        Self::with_cast_timeout(addrs, IoConfig::from_env().cast_read_timeout)
    }

    /// [`TcpTransport::new`] with an explicit cast-pump read timeout.
    /// Pump timeouts surface as [`Counter::TransportTimeouts`] in this
    /// transport's [`metrics`](TcpTransport::metrics).
    pub fn with_cast_timeout(
        addrs: HashMap<WorkerAddr, SocketAddr>,
        cast_read_timeout: Duration,
    ) -> Arc<Self> {
        let (cast_tx, cast_rx) = crossbeam_channel::unbounded();
        let pump_addrs = addrs.clone();
        let metrics = Arc::new(MetricsShard::new());
        let pump_metrics = metrics.clone();
        std::thread::Builder::new()
            .name("mbal-cast-pump".into())
            .spawn(move || cast_pump(pump_addrs, cast_rx, cast_read_timeout, pump_metrics))
            .expect("spawn cast pump");
        Arc::new(Self {
            addrs,
            pool: Mutex::new(HashMap::new()),
            cast_tx,
            metrics,
        })
    }

    /// Snapshot of this transport's health counters (retries after
    /// stale pooled connections, deadline timeouts).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Counts a timeout on its way out so operators can tell "slow
    /// worker" from "dead link" without parsing error strings.
    fn note(&self, e: TransportError) -> TransportError {
        if matches!(e, TransportError::Timeout(_)) {
            self.metrics.incr(Counter::TransportTimeouts);
        }
        e
    }

    /// Counts the timeout slots of a finished batch outcome.
    fn note_outcome(&self, out: &BatchOutcome) {
        let t = out
            .iter()
            .filter(|r| matches!(r, Err(TransportError::Timeout(_))))
            .count();
        if t > 0 {
            self.metrics.add(Counter::TransportTimeouts, t as u64);
        }
    }

    /// Opens a fresh connection with bounded retry/backoff under the
    /// deadline.
    fn connect(&self, addr: WorkerAddr, deadline: Instant) -> Result<TcpStream, TransportError> {
        let sock = *self
            .addrs
            .get(&addr)
            .ok_or(TransportError::Unreachable(addr))?;
        let mut backoff = RETRY_BACKOFF;
        let mut last = TransportError::Unreachable(addr);
        for attempt in 0..CONNECT_RETRIES {
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout(addr));
            }
            match TcpStream::connect_timeout(&sock, deadline - now) {
                Ok(s) => {
                    s.set_nodelay(true).ok();
                    return Ok(s);
                }
                Err(e) => last = io_err(addr, &e),
            }
            if attempt + 1 < CONNECT_RETRIES {
                std::thread::sleep(backoff.min(deadline.saturating_duration_since(Instant::now())));
                backoff *= 2;
            }
        }
        Err(last)
    }

    /// Pops a pooled connection or dials a fresh one; the flag says
    /// which, so callers know whether a stale-connection retry applies.
    fn checkout(
        &self,
        addr: WorkerAddr,
        deadline: Instant,
    ) -> Result<(TcpStream, bool), TransportError> {
        if let Some(s) = self.pool.lock().get_mut(&addr).and_then(|v| v.pop()) {
            return Ok((s, true));
        }
        Ok((self.connect(addr, deadline)?, false))
    }

    fn checkin(&self, addr: WorkerAddr, stream: TcpStream) {
        self.pool.lock().entry(addr).or_default().push(stream);
    }
}

impl Transport for TcpTransport {
    fn call(&self, addr: WorkerAddr, req: Request) -> Result<Response, TransportError> {
        self.call_with_deadline(addr, req, DEFAULT_DEADLINE)
    }

    fn call_with_deadline(
        &self,
        addr: WorkerAddr,
        req: Request,
        budget: Duration,
    ) -> Result<Response, TransportError> {
        let deadline = Instant::now() + budget;
        let frame =
            codec::encode_request(&req, 1).map_err(|e| TransportError::Broken(e.to_string()))?;
        let (mut stream, pooled) = self.checkout(addr, deadline).map_err(|e| self.note(e))?;
        match exchange_one(&mut stream, &frame, deadline, addr) {
            Ok(resp) => {
                self.checkin(addr, stream);
                Ok(resp)
            }
            Err((retry_safe, e)) => {
                drop(stream);
                if pooled && retry_safe {
                    self.metrics.incr(Counter::TransportRetries);
                    let mut fresh = self.connect(addr, deadline).map_err(|e| self.note(e))?;
                    match exchange_one(&mut fresh, &frame, deadline, addr) {
                        Ok(resp) => {
                            self.checkin(addr, fresh);
                            Ok(resp)
                        }
                        Err((_, e2)) => Err(self.note(e2)),
                    }
                } else {
                    Err(self.note(e))
                }
            }
        }
    }

    /// One batch envelope out, `reqs.len()` pipelined response frames
    /// back — a batch costs one request flush and one response drain per
    /// worker instead of `n` serial round-trips.
    fn call_many(&self, addr: WorkerAddr, reqs: Vec<Request>, budget: Duration) -> BatchOutcome {
        let n = reqs.len();
        if n == 0 {
            return Vec::new();
        }
        let deadline = Instant::now() + budget;
        let frame = match codec::encode_batch_request(&reqs) {
            Ok(f) => f,
            Err(e) => return batch_errs(n, TransportError::Broken(e.to_string())),
        };
        let (mut stream, pooled) = match self.checkout(addr, deadline) {
            Ok(s) => s,
            Err(e) => return batch_errs(n, self.note(e)),
        };
        match exchange_batch(&mut stream, &frame, n, deadline, addr) {
            Ok(out) => {
                // A mid-batch failure leaves the stream desynchronised;
                // only fully-drained connections go back to the pool.
                if out.iter().all(|r| r.is_ok()) {
                    self.checkin(addr, stream);
                }
                self.note_outcome(&out);
                out
            }
            Err((retry_safe, e)) => {
                drop(stream);
                if !(pooled && retry_safe) {
                    return batch_errs(n, self.note(e));
                }
                self.metrics.incr(Counter::TransportRetries);
                let mut fresh = match self.connect(addr, deadline) {
                    Ok(s) => s,
                    Err(e2) => return batch_errs(n, self.note(e2)),
                };
                match exchange_batch(&mut fresh, &frame, n, deadline, addr) {
                    Ok(out) => {
                        if out.iter().all(|r| r.is_ok()) {
                            self.checkin(addr, fresh);
                        }
                        self.note_outcome(&out);
                        out
                    }
                    Err((_, e2)) => batch_errs(n, self.note(e2)),
                }
            }
        }
    }

    /// Genuinely non-blocking: hands the frame to the cast pump thread,
    /// which owns dedicated connections.
    fn cast(&self, addr: WorkerAddr, req: Request) {
        let _ = self.cast_tx.send((addr, req));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbal_core::types::CacheletId;

    /// A loopback worker that stores into a HashMap (protocol-level test
    /// without the full server). Handles both single RPCs and batches.
    fn spawn_map_worker() -> Mailbox<WorkerMsg> {
        use mbal_core::types::Value;
        let tx = Mailbox::new();
        let rx = tx.clone();
        std::thread::spawn(move || {
            let mut map: HashMap<Vec<u8>, Value> = HashMap::new();
            let answer = |req: Request, map: &mut HashMap<Vec<u8>, Value>| match req {
                Request::Get { key, .. } => match map.get(&key) {
                    Some(v) => Response::Value {
                        value: v.clone(),
                        replicas: vec![],
                    },
                    None => Response::NotFound,
                },
                Request::Set { key, value, .. } => {
                    map.insert(key, value);
                    Response::Stored
                }
                Request::Delete { key, .. } => {
                    map.remove(&key);
                    Response::Deleted
                }
                _ => Response::Fail {
                    status: Status::Error,
                    message: "unsupported".into(),
                },
            };
            while let Some(msg) = rx.recv() {
                match msg {
                    WorkerMsg::Rpc { req, reply } => {
                        let _ = reply.send(answer(req, &mut map));
                    }
                    WorkerMsg::RpcBatch { reqs, reply } => {
                        let resps = reqs.into_iter().map(|r| answer(r, &mut map)).collect();
                        let _ = reply.send(resps);
                    }
                    WorkerMsg::RpcTagged {
                        reqs,
                        tag,
                        reply,
                        notify,
                    } => {
                        let resps = reqs.into_iter().map(|r| answer(r, &mut map)).collect();
                        let _ = reply.send((tag, resps));
                        notify.wake();
                    }
                    WorkerMsg::Control(_) => {}
                }
            }
        });
        tx
    }

    #[test]
    fn tcp_roundtrip_set_get_delete() {
        let worker = WorkerAddr::new(0, 0);
        let tx = spawn_map_worker();
        let bound = serve_tcp(&[(worker, tx)], "127.0.0.1", 0).expect("bind");
        let transport = TcpTransport::new(bound.into_iter().collect());

        let set = transport
            .call(
                worker,
                Request::Set {
                    cachelet: CacheletId(1),
                    key: b"alpha".to_vec(),
                    value: b"beta".to_vec().into(),
                    expiry_ms: 0,
                },
            )
            .expect("set over tcp");
        assert_eq!(set, Response::Stored);

        let get = transport
            .call(
                worker,
                Request::Get {
                    cachelet: CacheletId(1),
                    key: b"alpha".to_vec(),
                },
            )
            .expect("get over tcp");
        assert_eq!(
            get,
            Response::Value {
                value: b"beta".to_vec().into(),
                replicas: vec![]
            }
        );

        let del = transport
            .call(
                worker,
                Request::Delete {
                    cachelet: CacheletId(1),
                    key: b"alpha".to_vec(),
                },
            )
            .expect("delete over tcp");
        assert_eq!(del, Response::Deleted);
        let miss = transport
            .call(
                worker,
                Request::Get {
                    cachelet: CacheletId(1),
                    key: b"alpha".to_vec(),
                },
            )
            .expect("miss over tcp");
        assert_eq!(miss, Response::NotFound);
    }

    #[test]
    fn unknown_route_is_unreachable() {
        let transport = TcpTransport::new(HashMap::new());
        assert!(matches!(
            transport.call(WorkerAddr::new(5, 5), Request::Stats { reset: false }),
            Err(TransportError::Unreachable(_))
        ));
    }

    #[test]
    fn connections_are_reused() {
        let worker = WorkerAddr::new(0, 0);
        let tx = spawn_map_worker();
        let bound = serve_tcp(&[(worker, tx)], "127.0.0.1", 0).expect("bind");
        let transport = TcpTransport::new(bound.into_iter().collect());
        for i in 0..50u32 {
            let r = transport
                .call(
                    worker,
                    Request::Set {
                        cachelet: CacheletId(0),
                        key: format!("k{i}").into_bytes(),
                        value: i.to_le_bytes().to_vec().into(),
                        expiry_ms: 0,
                    },
                )
                .expect("set");
            assert_eq!(r, Response::Stored);
        }
        // Exactly one pooled connection after serial calls.
        assert_eq!(transport.pool.lock().get(&worker).map_or(0, |v| v.len()), 1);
    }

    #[test]
    fn batch_roundtrips_over_tcp() {
        let worker = WorkerAddr::new(0, 0);
        let tx = spawn_map_worker();
        let bound = serve_tcp(&[(worker, tx)], "127.0.0.1", 0).expect("bind");
        let transport = TcpTransport::new(bound.into_iter().collect());

        let mut reqs: Vec<Request> = (0..8)
            .map(|i| Request::Set {
                cachelet: CacheletId(0),
                key: format!("k{i}").into_bytes(),
                value: format!("v{i}").into_bytes().into(),
                expiry_ms: 0,
            })
            .collect();
        reqs.extend((0..8).map(|i| Request::Get {
            cachelet: CacheletId(0),
            key: format!("k{i}").into_bytes(),
        }));
        let out = transport.call_many(worker, reqs, DEFAULT_DEADLINE);
        assert_eq!(out.len(), 16);
        for r in &out[..8] {
            assert_eq!(r, &Ok(Response::Stored));
        }
        for (i, r) in out[8..].iter().enumerate() {
            assert_eq!(
                r,
                &Ok(Response::Value {
                    value: format!("v{i}").into_bytes().into(),
                    replicas: vec![]
                })
            );
        }
        // The whole batch reused (and returned) a single pooled stream.
        assert_eq!(transport.pool.lock().get(&worker).map_or(0, |v| v.len()), 1);
    }

    #[test]
    fn malformed_frame_errors_and_closes_but_worker_survives() {
        let worker = WorkerAddr::new(0, 0);
        let tx = spawn_map_worker();
        let bound = serve_tcp(&[(worker, tx)], "127.0.0.1", 0).expect("bind");
        let sock = bound[0].1;

        // Bad magic: the server answers with a protocol error, then
        // closes the connection.
        let mut raw = TcpStream::connect(sock).expect("connect");
        raw.write_all(&[0x55u8; HEADER_LEN]).expect("write garbage");
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).expect("drain until close");
        let (resp, _, _) = codec::decode_response(&buf).expect("protocol error response");
        assert!(matches!(resp, Response::Fail { .. }));

        // A 4 GiB body length: rejected without the allocation.
        let mut huge = [0u8; HEADER_LEN];
        huge[0] = codec::MAGIC_REQUEST;
        huge[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        let mut raw = TcpStream::connect(sock).expect("connect");
        raw.write_all(&huge).expect("write huge header");
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).expect("drain until close");
        let (resp, _, _) = codec::decode_response(&buf).expect("protocol error response");
        assert!(matches!(resp, Response::Fail { .. }));

        // The worker behind the listener is unharmed.
        let transport = TcpTransport::new(bound.into_iter().collect());
        assert_eq!(
            transport.call(
                worker,
                Request::Get {
                    cachelet: CacheletId(0),
                    key: b"missing".to_vec(),
                }
            ),
            Ok(Response::NotFound)
        );
    }

    #[test]
    fn mid_batch_drop_yields_per_op_errors() {
        // A fake worker endpoint that answers only the first two
        // sub-requests of a batch, then drops the connection.
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let sock = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let frame = read_frame(&mut conn).expect("read").expect("frame");
            let subs = codec::decode_batch_request(&frame).expect("batch");
            for (req, opaque) in subs.into_iter().take(2) {
                let bytes = codec::encode_response(&Response::Stored, opcode_of(&req), opaque)
                    .expect("encode");
                conn.write_all(&bytes).expect("write");
            }
            // Dropping `conn` closes the stream mid-batch.
        });

        let worker = WorkerAddr::new(0, 0);
        let transport = TcpTransport::new([(worker, sock)].into_iter().collect());
        let reqs: Vec<Request> = (0..5)
            .map(|i| Request::Set {
                cachelet: CacheletId(0),
                key: format!("k{i}").into_bytes(),
                value: b"v".to_vec().into(),
                expiry_ms: 0,
            })
            .collect();
        let out = transport.call_many(worker, reqs, DEFAULT_DEADLINE);
        assert_eq!(out.len(), 5);
        assert_eq!(out[0], Ok(Response::Stored));
        assert_eq!(out[1], Ok(Response::Stored));
        for r in &out[2..] {
            assert!(matches!(r, Err(TransportError::Broken(_))), "got {r:?}");
        }
        // The poisoned connection must not be returned to the pool.
        assert_eq!(transport.pool.lock().get(&worker).map_or(0, |v| v.len()), 0);
    }

    #[test]
    fn deadline_expires_as_timeout() {
        // An endpoint that accepts but never answers.
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let sock = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accept");
            std::thread::sleep(Duration::from_secs(5));
            drop(conn);
        });
        let worker = WorkerAddr::new(0, 0);
        let transport = TcpTransport::new([(worker, sock)].into_iter().collect());
        let out = transport.call_with_deadline(
            worker,
            Request::Stats { reset: false },
            Duration::from_millis(50),
        );
        assert_eq!(out, Err(TransportError::Timeout(worker)));
    }
}
