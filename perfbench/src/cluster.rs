//! The cluster under test and the two wrappers the traced run passes to
//! each client: a [`Transport`] decorator and a [`CoordinatorLink`]
//! wrapper. Both forward every call unchanged; they only time and count.

use crate::trace::{self, Name};
use mbal_balancer::coordinator::{Coordinator, HeartbeatReply};
use mbal_balancer::{BalancerConfig, PhaseSet};
use mbal_client::{Client, CoordinatorLink};
use mbal_core::clock::{Clock, RealClock};
use mbal_core::engine::EngineKind;
use mbal_core::mem::MemConfig;
use mbal_core::types::{ServerId, WorkerAddr};
use mbal_proto::{Request, Response};
use mbal_ring::{ConsistentRing, MappingTable};
use mbal_server::tcp::{serve_tcp, TcpTransport};
use mbal_server::{InProcRegistry, Server, ServerConfig, Transport, TransportError};
use mbal_telemetry::StatsReport;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Servers in the cluster: two servers of two workers is the smallest
/// shape in which all three balancer phases can act.
pub const SERVERS: u16 = 2;
pub const WORKERS_PER_SERVER: u16 = 2;
pub const CACHELETS_PER_WORKER: usize = 4;
/// Permissible load `T_j` per worker, ops/s: a quarter of the in-proc
/// capacity measured on a 2-core host, the same for every workload.
pub const WORKER_CAPACITY: f64 = 30_000.0;
/// Budget for one client operation, retries included.
pub const OP_BUDGET: Duration = Duration::from_secs(1);
/// Slab chunk size. The 1 MiB default suits caches of gigabytes; with a
/// few MiB per server every cachelet would own a single chunk and could
/// never hold a second size class.
const CHUNK_BYTES: usize = 64 << 10;

/// The memory manager of a server with `mem_per_server` bytes: the
/// paper's policy with the chunk and the local high watermark scaled to
/// the cache.
pub fn mem_config(mem_per_server: usize) -> MemConfig {
    let mut mem = MemConfig::with_capacity(mem_per_server);
    mem.chunk_size = CHUNK_BYTES;
    mem.thr_mem_high_thresh = 4 * CHUNK_BYTES;
    mem
}

/// The one server configuration every workload runs: slab engine, every
/// balancer phase, asynchronous replica propagation.
fn server_config(server: u16, mem_per_server: usize, bal: &BalancerConfig) -> ServerConfig {
    let mut cfg = ServerConfig::new(ServerId(server), WORKERS_PER_SERVER, mem_per_server)
        .cachelets_per_worker(CACHELETS_PER_WORKER)
        .balancer(bal.clone())
        .worker_capacity(WORKER_CAPACITY)
        .engine(EngineKind::SlabLru);
    cfg.mem = mem_config(mem_per_server);
    // Synchronous propagation makes a worker wait on a shadow while
    // serving: two workers shadowing each other's hot keys then wait on
    // each other until the call times out.
    cfg.sync_replication = false;
    cfg
}

/// A running cluster: servers with their balance threads, the
/// coordinator, and the transport clients use to reach the workers.
pub struct Cluster {
    servers: Vec<Arc<parking_lot::Mutex<Server>>>,
    balance_threads: Vec<JoinHandle<()>>,
    pub coordinator: Arc<Coordinator>,
    pub transport: Arc<dyn Transport>,
    pub clock: Arc<RealClock>,
}

impl Cluster {
    /// Starts `SERVERS × WORKERS_PER_SERVER` workers with the slab
    /// engine, every balancer phase on, and `mem_per_server` bytes of
    /// cache per server; over TCP loopback when `tcp` is set.
    pub fn start(tcp: bool, mem_per_server: usize) -> Self {
        let mut ring = ConsistentRing::new();
        for s in 0..SERVERS {
            for w in 0..WORKERS_PER_SERVER {
                ring.add_worker(WorkerAddr::new(s, w));
            }
        }
        let workers = (SERVERS * WORKERS_PER_SERVER) as usize;
        let vns = (workers * CACHELETS_PER_WORKER * 16).next_power_of_two();
        let mapping = MappingTable::build(&ring, CACHELETS_PER_WORKER, vns);
        let bal = BalancerConfig {
            phases: PhaseSet::all(),
            ..BalancerConfig::aggressive()
        };
        let coordinator = Arc::new(Coordinator::new(mapping.clone(), bal.clone()));
        let registry = InProcRegistry::new();
        let clock = Arc::new(RealClock::new());
        let mut routes = std::collections::HashMap::new();
        let mut servers = Vec::new();
        for s in 0..SERVERS {
            let server = Server::spawn(
                server_config(s, mem_per_server, &bal),
                &mapping,
                &registry,
                Arc::clone(&coordinator),
                Arc::clone(&clock) as Arc<dyn Clock>,
            );
            if tcp {
                let bound =
                    serve_tcp(&server.worker_mailboxes(), "127.0.0.1", 0).expect("bind loopback");
                routes.extend(bound);
            }
            servers.push(Arc::new(parking_lot::Mutex::new(server)));
        }
        let transport: Arc<dyn Transport> = if tcp {
            TcpTransport::new(routes)
        } else {
            registry
        };
        let balance_threads = servers
            .iter()
            .map(|s| Server::start_balance_thread(Arc::clone(s)))
            .collect();
        Self {
            servers,
            balance_threads,
            coordinator,
            transport,
            clock,
        }
    }

    /// A client over `transport` and `link`, with the benchmark's one
    /// client configuration.
    pub fn client_with(
        &self,
        transport: Arc<dyn Transport>,
        link: Arc<dyn CoordinatorLink>,
    ) -> Client {
        Client::builder(transport, link)
            .op_budget(OP_BUDGET)
            .build()
    }

    /// A plain client (loading, scraping).
    pub fn client(&self) -> Client {
        self.client_with(
            Arc::clone(&self.transport),
            Arc::clone(&self.coordinator) as Arc<dyn CoordinatorLink>,
        )
    }

    /// Stats from every worker, in address order.
    pub fn scrape(&self, client: &mut Client, reset: bool) -> Vec<StatsReport> {
        let mut out = Vec::new();
        for s in 0..SERVERS {
            for w in 0..WORKERS_PER_SERVER {
                if let Ok(r) = client.worker_stats(WorkerAddr::new(s, w), reset) {
                    out.push(r);
                }
            }
        }
        out
    }

    /// Waits until no migration is in flight, up to `limit`; returns
    /// whether the cluster settled.
    pub fn settle(&self, limit: Duration) -> bool {
        let deadline = std::time::Instant::now() + limit;
        loop {
            if self.coordinator.rebalance_inflight() == 0 {
                return true;
            }
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops balance threads and workers.
    pub fn shutdown(self) {
        for s in &self.servers {
            s.lock().shutdown();
        }
        for h in self.balance_threads {
            let _ = h.join();
        }
    }
}

/// Cap on the request/response pairs kept for the codec replay.
const CAPTURE_CAP: usize = 4096;

/// Transport decorator: times every call on a tracing thread as a
/// `server.call` / `server.call_many` child span, counts batch sizes,
/// and keeps a sample of request/response pairs for the codec replay.
pub struct TimedTransport {
    inner: Arc<dyn Transport>,
    pub batches: AtomicU64,
    pub batch_keys: AtomicU64,
    capturing: AtomicBool,
    pub captured: Mutex<Vec<(Request, Response)>>,
}

impl TimedTransport {
    /// Wraps `inner`; keeps request/response pairs only if `capture`.
    pub fn new(inner: Arc<dyn Transport>, capture: bool) -> Arc<Self> {
        Arc::new(Self {
            inner,
            batches: AtomicU64::new(0),
            batch_keys: AtomicU64::new(0),
            capturing: AtomicBool::new(capture),
            captured: Mutex::new(Vec::new()),
        })
    }

    fn copy(&self, req: &Request) -> Option<Request> {
        self.capturing.load(Ordering::Relaxed).then(|| req.clone())
    }

    fn capture(&self, req: Option<Request>, resp: &Result<Response, TransportError>) {
        if let (Some(req), Ok(resp)) = (req, resp) {
            let mut c = self.captured.lock().expect("capture lock");
            c.push((req, resp.clone()));
            if c.len() >= CAPTURE_CAP {
                self.capturing.store(false, Ordering::Relaxed);
            }
        }
    }
}

impl Transport for TimedTransport {
    fn call(&self, addr: WorkerAddr, req: Request) -> Result<Response, TransportError> {
        let Some(start) = trace::now() else {
            return self.inner.call(addr, req);
        };
        let copy = self.copy(&req);
        let resp = self.inner.call(addr, req);
        trace::child(Name::ServerCall, start);
        self.capture(copy, &resp);
        resp
    }

    fn call_with_deadline(
        &self,
        addr: WorkerAddr,
        req: Request,
        deadline: Duration,
    ) -> Result<Response, TransportError> {
        let Some(start) = trace::now() else {
            return self.inner.call_with_deadline(addr, req, deadline);
        };
        let copy = self.copy(&req);
        let resp = self.inner.call_with_deadline(addr, req, deadline);
        trace::child(Name::ServerCall, start);
        self.capture(copy, &resp);
        resp
    }

    fn call_many(
        &self,
        addr: WorkerAddr,
        reqs: Vec<Request>,
        deadline: Duration,
    ) -> Vec<Result<Response, TransportError>> {
        let Some(start) = trace::now() else {
            return self.inner.call_many(addr, reqs, deadline);
        };
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_keys
            .fetch_add(reqs.len() as u64, Ordering::Relaxed);
        let copies: Vec<Option<Request>> = reqs.iter().map(|r| self.copy(r)).collect();
        let resps = self.inner.call_many(addr, reqs, deadline);
        trace::child(Name::ServerCallMany, start);
        for (req, resp) in copies.into_iter().zip(&resps) {
            self.capture(req, resp);
        }
        resps
    }

    fn cast(&self, addr: WorkerAddr, req: Request) {
        self.inner.cast(addr, req)
    }
}

/// Coordinator link wrapper: counts calls and times them as
/// `coordinator.*` child spans on a tracing thread.
pub struct CountingCoordinator {
    inner: Arc<Coordinator>,
    pub calls: AtomicU64,
}

impl CountingCoordinator {
    pub fn new(inner: Arc<Coordinator>) -> Arc<Self> {
        Arc::new(Self {
            inner,
            calls: AtomicU64::new(0),
        })
    }
}

impl CoordinatorLink for CountingCoordinator {
    fn heartbeat(&self, version: u64) -> HeartbeatReply {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let start = trace::now();
        let reply = self.inner.heartbeat(version);
        if let Some(start) = start {
            trace::child(Name::CoordinatorHeartbeat, start);
        }
        reply
    }

    fn full_table(&self) -> MappingTable {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let start = trace::now();
        let table = self.inner.mapping_snapshot();
        if let Some(start) = start {
            trace::child(Name::CoordinatorFullTable, start);
        }
        table
    }
}
