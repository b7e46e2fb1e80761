//! Worker-addressed request transport.
//!
//! Everything that talks to a worker — clients, home workers propagating
//! replica updates, migrating sources — goes through [`Transport`]. The
//! in-process implementation ([`InProcRegistry`]) serves a call on the
//! caller's thread when the worker is idle and through its mailbox
//! otherwise; it backs tests, benchmarks and the cluster simulator. The
//! TCP implementation lives in [`crate::tcp`].

use crate::messages::WorkerMsg;
use crate::worker::WorkerCell;
use crossbeam_channel::RecvTimeoutError;
use mbal_core::types::WorkerAddr;
use mbal_proto::{Request, Response};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Transport failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// No route to the worker.
    Unreachable(WorkerAddr),
    /// The worker did not answer in time.
    Timeout(WorkerAddr),
    /// The connection failed mid-flight.
    Broken(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Unreachable(a) => write!(f, "no route to worker {a}"),
            TransportError::Timeout(a) => write!(f, "timeout waiting on worker {a}"),
            TransportError::Broken(m) => write!(f, "transport broken: {m}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Default per-call deadline applied when a caller has no tighter budget.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(5);

/// Replicates one error across every slot of a batch result.
pub(crate) fn batch_errs(n: usize, e: TransportError) -> Vec<Result<Response, TransportError>> {
    (0..n).map(|_| Err(e.clone())).collect()
}

/// Serves a batch one [`Transport::call_with_deadline`] at a time: the
/// `call_many` of a transport with no pipeline of its own (a test
/// double, an adapter), which must opt into it by name.
pub fn serial_call_many<T: Transport + ?Sized>(
    transport: &T,
    addr: WorkerAddr,
    reqs: Vec<Request>,
    deadline: Duration,
) -> Vec<Result<Response, TransportError>> {
    reqs.into_iter()
        .map(|r| transport.call_with_deadline(addr, r, deadline))
        .collect()
}

/// A synchronous request/response transport addressed by worker.
///
/// Every method is required: a transport that cannot honour a deadline,
/// batch a pipeline or send without waiting must say how it degrades,
/// not inherit a silent fallback.
pub trait Transport: Send + Sync {
    /// Sends `req` to `addr` and waits for the response under the
    /// implementation's default deadline.
    fn call(&self, addr: WorkerAddr, req: Request) -> Result<Response, TransportError>;

    /// Like [`Transport::call`], but gives up once `deadline` has
    /// elapsed, returning [`TransportError::Timeout`].
    fn call_with_deadline(
        &self,
        addr: WorkerAddr,
        req: Request,
        deadline: Duration,
    ) -> Result<Response, TransportError>;

    /// Pipelined batch: sends every request to `addr` and returns one
    /// result per request, in order. Implementations coalesce the batch —
    /// one frame flush over TCP, one mailbox enqueue in-process — so a
    /// batch costs one round-trip instead of `reqs.len()`.
    fn call_many(
        &self,
        addr: WorkerAddr,
        reqs: Vec<Request>,
        deadline: Duration,
    ) -> Vec<Result<Response, TransportError>>;

    /// Fire-and-forget send (asynchronous replica propagation, §3.2):
    /// returns without waiting for the worker. [`InProcRegistry`]
    /// enqueues into the mailbox, and the TCP transport hands the frame
    /// to a background cast pump.
    fn cast(&self, addr: WorkerAddr, req: Request);
}

/// In-process transport: a registry of worker cells.
///
/// All servers of an in-process "cluster" register their workers here.
/// A call is served on the caller's thread when the worker is idle
/// ([`WorkerCell::try_serve`]) and through the worker's mailbox
/// otherwise; casts always go through the mailbox.
#[derive(Default)]
pub struct InProcRegistry {
    routes: RwLock<HashMap<WorkerAddr, Arc<WorkerCell>>>,
    timeout: Duration,
}

impl InProcRegistry {
    /// Creates an empty registry with a 5-second call timeout.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            routes: RwLock::new(HashMap::new()),
            timeout: DEFAULT_DEADLINE,
        })
    }

    /// Registers (or replaces) a worker.
    pub fn register(&self, addr: WorkerAddr, cell: Arc<WorkerCell>) {
        self.routes.write().insert(addr, cell);
    }

    /// Removes a worker (server shutdown).
    pub fn deregister(&self, addr: WorkerAddr) {
        self.routes.write().remove(&addr);
    }

    /// Number of registered workers.
    pub fn len(&self) -> usize {
        self.routes.read().len()
    }

    /// Returns `true` when no workers are registered.
    pub fn is_empty(&self) -> bool {
        self.routes.read().is_empty()
    }

    /// The cell registered for `addr`, if any.
    pub fn cell(&self, addr: WorkerAddr) -> Option<Arc<WorkerCell>> {
        self.routes.read().get(&addr).cloned()
    }

    fn route(&self, addr: WorkerAddr) -> Result<Arc<WorkerCell>, TransportError> {
        self.cell(addr).ok_or(TransportError::Unreachable(addr))
    }
}

/// Maps a failed reply wait: a reply channel dropped unanswered means
/// the worker is gone, or shut down with the message still queued.
fn reply_error(addr: WorkerAddr, e: RecvTimeoutError) -> TransportError {
    match e {
        RecvTimeoutError::Timeout => TransportError::Timeout(addr),
        RecvTimeoutError::Disconnected => TransportError::Unreachable(addr),
    }
}

impl Transport for InProcRegistry {
    fn call(&self, addr: WorkerAddr, req: Request) -> Result<Response, TransportError> {
        self.call_with_deadline(addr, req, self.timeout)
    }

    fn call_with_deadline(
        &self,
        addr: WorkerAddr,
        req: Request,
        deadline: Duration,
    ) -> Result<Response, TransportError> {
        let cell = self.route(addr)?;
        let req = match cell.try_serve(req) {
            Ok(resp) => return Ok(resp),
            Err(req) => req,
        };
        cell.queue_rpc(vec![req])
            .recv_timeout(deadline)
            .map_err(|e| reply_error(addr, e))?
            .pop()
            .ok_or_else(|| TransportError::Broken("empty reply".into()))
    }

    /// Served whole on the caller's thread when the worker is idle,
    /// otherwise one mailbox enqueue for the whole batch: the worker
    /// drains all of `reqs` before replying, so a batch pays a single
    /// round-trip regardless of its size.
    fn call_many(
        &self,
        addr: WorkerAddr,
        reqs: Vec<Request>,
        deadline: Duration,
    ) -> Vec<Result<Response, TransportError>> {
        let n = reqs.len();
        if n == 0 {
            return Vec::new();
        }
        let cell = match self.route(addr) {
            Ok(cell) => cell,
            Err(e) => return batch_errs(n, e),
        };
        let resps = match cell.try_serve_batch(reqs) {
            Ok(resps) => resps,
            Err(reqs) => match cell.queue_rpc(reqs).recv_timeout(deadline) {
                Ok(resps) => resps,
                Err(e) => return batch_errs(n, reply_error(addr, e)),
            },
        };
        if resps.len() == n {
            return resps.into_iter().map(Ok).collect();
        }
        // A well-behaved worker answers 1:1; pad defensively.
        let mut out: Vec<Result<Response, TransportError>> =
            resps.into_iter().take(n).map(Ok).collect();
        while out.len() < n {
            out.push(Err(TransportError::Broken(
                "batch reply shorter than the batch".into(),
            )));
        }
        out
    }

    /// Genuinely asynchronous: enqueue and return without waiting; the
    /// response is dropped. This is what makes asynchronous replica
    /// propagation (§3.2) non-blocking for the home worker.
    fn cast(&self, addr: WorkerAddr, req: Request) {
        if let Some(cell) = self.cell(addr) {
            let _ = cell.mailbox().send(WorkerMsg::Rpc {
                reqs: vec![req],
                done: Box::new(drop),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::Mailbox;
    use mbal_proto::Status;

    /// Registers a worker-less cell for `addr`: its mailbox is served by
    /// the test itself.
    fn register_mailbox(reg: &InProcRegistry, addr: WorkerAddr) -> Mailbox<WorkerMsg> {
        let mailbox = Mailbox::new();
        reg.register(addr, WorkerCell::detached(mailbox.clone()));
        mailbox
    }

    /// A one-shot echo worker: answers the first RPC, one response per
    /// request in order, then exits.
    fn spawn_echo(reg: &InProcRegistry, addr: WorkerAddr) -> std::thread::JoinHandle<()> {
        let rx = register_mailbox(reg, addr);
        std::thread::spawn(move || {
            if let Some(WorkerMsg::Rpc { reqs, done }) = rx.wait().then(|| rx.try_recv()).flatten()
            {
                let resps = reqs
                    .into_iter()
                    .map(|req| match req {
                        Request::Get { key, .. } => Response::Value {
                            value: key.into(),
                            replicas: vec![],
                        },
                        Request::Stats { .. } => Response::StatsBlob {
                            payload: b"{}".to_vec(),
                        },
                        _ => Response::Fail {
                            status: Status::Error,
                            message: "unsupported".into(),
                        },
                    })
                    .collect();
                done(resps);
            }
        })
    }

    #[test]
    fn call_roundtrips_through_registry() {
        let reg = InProcRegistry::new();
        let h = spawn_echo(&reg, WorkerAddr::new(0, 0));
        let resp = reg
            .call(
                WorkerAddr::new(0, 0),
                Request::Get {
                    cachelet: mbal_core::types::CacheletId(0),
                    key: b"echo".to_vec(),
                },
            )
            .expect("reachable");
        assert_eq!(
            resp,
            Response::Value {
                value: b"echo".to_vec().into(),
                replicas: vec![]
            }
        );
        h.join().expect("worker exits");
    }

    #[test]
    fn call_many_is_one_enqueue_and_stays_ordered() {
        let reg = InProcRegistry::new();
        let h = spawn_echo(&reg, WorkerAddr::new(0, 0));
        let reqs: Vec<Request> = (0..5)
            .map(|i| Request::Get {
                cachelet: mbal_core::types::CacheletId(0),
                key: format!("k{i}").into_bytes(),
            })
            .collect();
        let out = reg.call_many(WorkerAddr::new(0, 0), reqs, DEFAULT_DEADLINE);
        assert_eq!(out.len(), 5);
        for (i, r) in out.into_iter().enumerate() {
            assert_eq!(
                r,
                Ok(Response::Value {
                    value: format!("k{i}").into_bytes().into(),
                    replicas: vec![]
                })
            );
        }
        h.join().expect("worker exits");
    }

    #[test]
    fn call_many_to_unknown_worker_fails_every_op() {
        let reg = InProcRegistry::new();
        let reqs: Vec<Request> = (0..3).map(|_| Request::Stats { reset: false }).collect();
        let out = reg.call_many(WorkerAddr::new(9, 9), reqs, DEFAULT_DEADLINE);
        assert_eq!(out.len(), 3);
        for r in out {
            assert_eq!(r, Err(TransportError::Unreachable(WorkerAddr::new(9, 9))));
        }
    }

    #[test]
    fn call_many_times_out_as_a_unit() {
        let reg = InProcRegistry::new();
        let _mailbox = register_mailbox(&reg, WorkerAddr::new(0, 2));
        let reqs: Vec<Request> = (0..2).map(|_| Request::Stats { reset: false }).collect();
        let out = reg.call_many(WorkerAddr::new(0, 2), reqs, Duration::from_millis(20));
        assert_eq!(out.len(), 2);
        for r in out {
            assert_eq!(r, Err(TransportError::Timeout(WorkerAddr::new(0, 2))));
        }
    }

    #[test]
    fn unknown_worker_is_unreachable() {
        let reg = InProcRegistry::new();
        assert_eq!(
            reg.call(WorkerAddr::new(9, 9), Request::Stats { reset: false }),
            Err(TransportError::Unreachable(WorkerAddr::new(9, 9)))
        );
    }

    #[test]
    fn deregister_breaks_routing() {
        let reg = InProcRegistry::new();
        let _mailbox = register_mailbox(&reg, WorkerAddr::new(0, 1));
        assert_eq!(reg.len(), 1);
        reg.deregister(WorkerAddr::new(0, 1));
        assert!(reg.is_empty());
        assert!(matches!(
            reg.call(WorkerAddr::new(0, 1), Request::Stats { reset: false }),
            Err(TransportError::Unreachable(_))
        ));
    }
}
