//! TCP transport: one listening port per worker (§2.3).
//!
//! "We associate a TCP/UDP port with each cache server worker thread so
//! that clients can directly interact with workers without any
//! centralized component." [`serve_tcp`] gives each worker its own
//! listener, served on the worker's own thread by one poll loop over
//! every connection on that port (see [`crate::event_loop`]).
//! [`TcpTransport`] is the client side: pooled connections, per-call
//! deadlines and a cast pump.
//!
//! Every call is one exchange: a single request travels as a plain
//! frame, a batch as one [`codec::Opcode::Batch`] envelope, and the
//! answers come back as pipelined individual response frames (written
//! in a single flush) that the client reads through the same
//! [`FrameDecoder`] the server uses, so a connection drop mid-batch
//! still yields per-operation outcomes via opaque correlation.

use crate::config::IoConfig;
use crate::event_loop::EventLoop;
use crate::transport::{batch_errs, Transport, TransportError, DEFAULT_DEADLINE};
use crate::worker::WorkerCell;
use bytes::Bytes;
use crossbeam_channel::{Receiver, Sender};
use mbal_core::types::WorkerAddr;
use mbal_proto::codec;
use mbal_proto::{FrameDecoder, Request, Response};
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
/// Bytes a client connection asks the socket for per read.
const READ_CHUNK: usize = 16 * 1024;

/// Per-operation results of a batch exchange.
type BatchOutcome = Vec<Result<Response, TransportError>>;

/// Binds one listener per worker on consecutive ports starting at
/// `base_port` (0 picks ephemeral ports) and returns the bound
/// addresses, serving with the default I/O configuration
/// (environment-overridable).
///
/// Each worker's own thread serves its port, in place of its mailbox
/// wait; no thread is spawned. Serving ends at [`crate::Server::shutdown`],
/// which closes the listener and every connection.
pub fn serve_tcp(
    workers: &[(WorkerAddr, Arc<WorkerCell>)],
    host: &str,
    base_port: u16,
) -> std::io::Result<Vec<(WorkerAddr, SocketAddr)>> {
    serve_tcp_with(workers, host, base_port, IoConfig::from_env())
}

/// [`serve_tcp`] with explicit I/O knobs: per-worker connection cap and
/// idle-connection reaping.
///
/// All or nothing: every listener is bound and every worker's event
/// loop built on the caller's thread before any loop is handed to its
/// worker, so on error nothing is left listening. A cell without a
/// live worker thread ([`WorkerCell::detached`], a stopped worker) and a
/// port range past 65535 fail with [`ErrorKind::InvalidInput`] before
/// anything is bound; a host without epoll fails with
/// [`ErrorKind::Unsupported`].
pub fn serve_tcp_with(
    workers: &[(WorkerAddr, Arc<WorkerCell>)],
    host: &str,
    base_port: u16,
    io: IoConfig,
) -> std::io::Result<Vec<(WorkerAddr, SocketAddr)>> {
    if let Some((addr, _)) = workers.iter().find(|(_, cell)| !cell.is_live()) {
        let msg = format!("worker {addr} has no live worker thread to serve TCP");
        return Err(std::io::Error::new(ErrorKind::InvalidInput, msg));
    }
    let last = u16::try_from(workers.len().saturating_sub(1)).unwrap_or(u16::MAX);
    if base_port != 0 && base_port.checked_add(last).is_none() {
        let msg = format!(
            "{} workers from port {base_port} run past 65535",
            workers.len()
        );
        return Err(std::io::Error::new(ErrorKind::InvalidInput, msg));
    }
    // Accept storms are bounded by the connection cap, not the thread
    // count; make sure the fd table keeps up.
    let want = workers.len() as u64 * io.max_conns_per_worker as u64 + 64;
    mbal_netpoll::raise_nofile_limit(want).ok();
    let mut bound = Vec::with_capacity(workers.len());
    let mut loops = Vec::with_capacity(workers.len());
    for (i, (addr, _)) in workers.iter().enumerate() {
        // Base port 0 gives every worker an ephemeral port.
        let port = if base_port == 0 {
            0
        } else {
            base_port + i as u16
        };
        let listener = TcpListener::bind((host, port))?;
        bound.push((*addr, listener.local_addr()?));
        loops.push(EventLoop::new(listener, io.clone())?);
    }
    for ((_, cell), event_loop) in workers.iter().zip(loops) {
        cell.hand_loop(event_loop);
    }
    Ok(bound)
}

/// Maps an I/O failure to a transport error, classifying read/write
/// timeouts as [`TransportError::Timeout`].
fn io_err(addr: WorkerAddr, e: &std::io::Error) -> TransportError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => TransportError::Timeout(addr),
        _ => TransportError::Broken(e.to_string()),
    }
}

/// Time left before `deadline`, or [`TransportError::Timeout`] once it
/// is spent (a zero socket timeout would be rejected by the OS as "no
/// timeout").
fn time_left(deadline: Instant, addr: WorkerAddr) -> Result<Duration, TransportError> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|left| !left.is_zero())
        .ok_or(TransportError::Timeout(addr))
}

fn broken(e: impl ToString) -> TransportError {
    TransportError::Broken(e.to_string())
}

/// A client connection: the stream, and the [`FrameDecoder`] that
/// frames what is read from it — the same decoder the server reads
/// requests with, so a bad magic or a body length past
/// [`codec::MAX_FRAME_LEN`] fails the read before any body byte is
/// awaited or allocated.
struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    /// Scratch the socket is read into before the decoder takes it.
    rbuf: Box<[u8]>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        stream.set_nodelay(true).ok();
        Conn {
            stream,
            dec: FrameDecoder::new(),
            rbuf: vec![0; READ_CHUNK].into_boxed_slice(),
        }
    }

    /// Blocks for the next frame, reading only when the decoder holds
    /// none, until `deadline` at the latest.
    fn next_frame(&mut self, deadline: Instant, addr: WorkerAddr) -> Result<Bytes, TransportError> {
        loop {
            if let Some(frame) = self.dec.next_frame().map_err(broken)? {
                return Ok(frame);
            }
            let left = time_left(deadline, addr)?;
            self.stream.set_read_timeout(Some(left)).map_err(broken)?;
            match self.stream.read(&mut self.rbuf) {
                Ok(0) => return Err(broken("connection closed")),
                Ok(n) => self.dec.push(&self.rbuf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(io_err(addr, &e)),
            }
        }
    }

    /// Sends `frame` and reads `n` responses into slots by their opaque:
    /// a plain request frame (opaque 0) expects one, a batch envelope
    /// one per sub-request. `Err` means the frame never fully left — the
    /// worker cannot have seen it, so resending on a fresh connection is
    /// safe even for non-idempotent ops. Once the frame is out, failures
    /// degrade to per-operation errors in the slots not yet answered,
    /// and the frame is never resent, because some of its writes may
    /// already have executed.
    fn exchange(
        &mut self,
        frame: &[u8],
        n: usize,
        deadline: Instant,
        addr: WorkerAddr,
    ) -> Result<BatchOutcome, TransportError> {
        let left = time_left(deadline, addr)?;
        self.stream.set_write_timeout(Some(left)).map_err(broken)?;
        self.stream.write_all(frame).map_err(|e| io_err(addr, &e))?;
        let mut out: BatchOutcome = batch_errs(n, broken("no response before the connection died"));
        for _ in 0..n {
            let decoded = self
                .next_frame(deadline, addr)
                .and_then(|f| codec::decode_response(&f).map_err(broken));
            match decoded {
                Ok((resp, _, opaque)) => {
                    if let Some(slot) = out.get_mut(opaque as usize) {
                        *slot = Ok(resp);
                    }
                }
                Err(e) => {
                    fill_pending(&mut out, e);
                    break;
                }
            }
        }
        Ok(out)
    }
}

/// Overwrites every not-yet-answered slot with `e`.
fn fill_pending(out: &mut [Result<Response, TransportError>], e: TransportError) {
    for slot in out.iter_mut() {
        if slot.is_err() {
            *slot = Err(e.clone());
        }
    }
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
    let mut conns: HashMap<WorkerAddr, Conn> = HashMap::new();
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
                        e.insert(Conn::new(s));
                    }
                    Err(_) => break,
                }
            }
            let conn = conns.get_mut(&addr).expect("just inserted");
            if conn.stream.write_all(&frame).is_ok() {
                match conn.next_frame(Instant::now() + read_timeout, addr) {
                    Ok(_) if conn.dec.is_clean() => {}
                    Err(TransportError::Timeout(_)) => {
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
    pool: Mutex<HashMap<WorkerAddr, Vec<Conn>>>,
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

    /// Opens a fresh connection with bounded retry/backoff under the
    /// deadline.
    fn connect(&self, addr: WorkerAddr, deadline: Instant) -> Result<Conn, TransportError> {
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
                Ok(s) => return Ok(Conn::new(s)),
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
    ) -> Result<(Conn, bool), TransportError> {
        if let Some(c) = self.pool.lock().get_mut(&addr).and_then(|v| v.pop()) {
            return Ok((c, true));
        }
        Ok((self.connect(addr, deadline)?, false))
    }

    /// One exchange of `frame` for `n` responses, with the one retry
    /// rule: a pooled connection whose write failed may have gone stale
    /// while idle, so the frame is resent once on a fresh connection.
    /// A connection goes back to the pool only when every response
    /// arrived and its decoder sits at a frame boundary.
    fn exchange(
        &self,
        addr: WorkerAddr,
        frame: &[u8],
        n: usize,
        deadline: Instant,
    ) -> BatchOutcome {
        let (mut conn, pooled) = match self.checkout(addr, deadline) {
            Ok(c) => c,
            Err(e) => return batch_errs(n, self.note(e)),
        };
        let mut sent = conn.exchange(frame, n, deadline, addr);
        if pooled && sent.is_err() {
            self.metrics.incr(Counter::TransportRetries);
            conn = match self.connect(addr, deadline) {
                Ok(c) => c,
                Err(e) => return batch_errs(n, self.note(e)),
            };
            sent = conn.exchange(frame, n, deadline, addr);
        }
        let out = match sent {
            Ok(out) => out,
            Err(e) => return batch_errs(n, self.note(e)),
        };
        if out.iter().all(|r| r.is_ok()) && conn.dec.is_clean() {
            self.pool.lock().entry(addr).or_default().push(conn);
        }
        let timeouts = out
            .iter()
            .filter(|r| matches!(r, Err(TransportError::Timeout(_))))
            .count();
        if timeouts > 0 {
            self.metrics
                .add(Counter::TransportTimeouts, timeouts as u64);
        }
        out
    }
}

impl Transport for TcpTransport {
    fn call(&self, addr: WorkerAddr, req: Request) -> Result<Response, TransportError> {
        self.call_with_deadline(addr, req, DEFAULT_DEADLINE)
    }

    /// A single call is a one-frame exchange: a plain request frame out,
    /// one response back.
    fn call_with_deadline(
        &self,
        addr: WorkerAddr,
        req: Request,
        budget: Duration,
    ) -> Result<Response, TransportError> {
        let deadline = Instant::now() + budget;
        let frame = codec::encode_request(&req, 0).map_err(broken)?;
        let mut out = self.exchange(addr, &frame, 1, deadline);
        out.pop().expect("one slot per request")
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
        match codec::encode_batch_request(&reqs) {
            Ok(frame) => self.exchange(addr, &frame, n, deadline),
            Err(e) => batch_errs(n, broken(e)),
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
    use crate::mailbox::Mailbox;
    use crate::server::Server;
    use mbal_core::types::CacheletId;
    use mbal_proto::codec::{opcode_of, HEADER_LEN};

    /// A server of `workers` workers, two cachelets each; worker 0
    /// owns cachelets 0 and 1 when it is the only one.
    fn spawn_server(workers: u16) -> Server {
        use crate::config::ServerConfig;
        use crate::transport::InProcRegistry;
        use mbal_balancer::coordinator::Coordinator;
        use mbal_balancer::BalancerConfig;
        use mbal_core::clock::RealClock;
        use mbal_core::types::ServerId;
        use mbal_ring::{ConsistentRing, MappingTable};

        let mut ring = ConsistentRing::new();
        for w in 0..workers {
            ring.add_worker(WorkerAddr::new(0, w));
        }
        let mapping = MappingTable::build(&ring, 2, 16);
        Server::spawn(
            ServerConfig::new(ServerId(0), workers, 4 << 20).cachelets_per_worker(2),
            &mapping,
            &InProcRegistry::new(),
            Arc::new(Coordinator::new(mapping.clone(), BalancerConfig::default())),
            Arc::new(RealClock::new()),
        )
    }

    /// A one-worker server, served over TCP on an ephemeral port.
    fn serve_one_worker() -> (Server, WorkerAddr, Vec<(WorkerAddr, SocketAddr)>) {
        let server = spawn_server(1);
        let bound = serve_tcp(&server.worker_mailboxes(), "127.0.0.1", 0).expect("bind");
        (server, WorkerAddr::new(0, 0), bound)
    }

    #[test]
    fn tcp_roundtrip_set_get_delete() {
        let (mut server, worker, bound) = serve_one_worker();
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
        server.shutdown();
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
        let (mut server, worker, bound) = serve_one_worker();
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
        server.shutdown();
    }

    #[test]
    fn batch_roundtrips_over_tcp() {
        let (mut server, worker, bound) = serve_one_worker();
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
        server.shutdown();
    }

    #[test]
    fn malformed_frame_errors_and_closes_but_worker_survives() {
        let (mut server, worker, bound) = serve_one_worker();
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
        server.shutdown();
    }

    #[test]
    fn mid_batch_drop_yields_per_op_errors() {
        // A fake worker endpoint that answers only the first two
        // sub-requests of a batch, then drops the connection.
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let sock = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (conn, _) = listener.accept().expect("accept");
            let mut conn = Conn::new(conn);
            let deadline = Instant::now() + DEFAULT_DEADLINE;
            let frame = conn
                .next_frame(deadline, WorkerAddr::new(0, 0))
                .expect("frame");
            let subs = codec::decode_batch_request(&frame).expect("batch");
            for (req, opaque) in subs.into_iter().take(2) {
                let bytes = codec::encode_response(&Response::Stored, opcode_of(&req), opaque)
                    .expect("encode");
                conn.stream.write_all(&bytes).expect("write");
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

    #[test]
    fn a_port_range_past_65535_is_refused_before_binding() {
        let mut server = spawn_server(2);
        let err = serve_tcp(&server.worker_mailboxes(), "127.0.0.1", u16::MAX)
            .expect_err("range overflows u16");
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
        server.shutdown();
    }

    #[test]
    fn a_cell_without_a_worker_thread_is_refused_before_binding() {
        let workers = [(WorkerAddr::new(0, 0), WorkerCell::detached(Mailbox::new()))];
        let err = serve_tcp(&workers, "127.0.0.1", 0).expect_err("no worker thread");
        assert_eq!(err.kind(), ErrorKind::InvalidInput);
    }

    #[test]
    fn a_failed_bind_leaves_no_worker_listening() {
        let mut server = spawn_server(2);
        let workers = server.worker_mailboxes();
        // Find two consecutive free ports P and P+1, then hold P+1.
        let (base, _blocker) = (0..64)
            .find_map(|_| {
                let probe = TcpListener::bind(("127.0.0.1", 0)).ok()?;
                let p = probe.local_addr().ok()?.port().checked_add(1)?;
                let blocker = TcpListener::bind(("127.0.0.1", p)).ok()?;
                Some((p - 1, blocker))
            })
            .expect("two consecutive free ports");
        assert!(serve_tcp(&workers, "127.0.0.1", base).is_err());
        // Worker 0's listener must have closed with the failed call.
        TcpListener::bind(("127.0.0.1", base)).expect("base port is free again");
        // And no worker was handed a loop: both can still be served.
        serve_tcp(&workers, "127.0.0.1", 0).expect("serve after a failed call");
        server.shutdown();
    }
}
