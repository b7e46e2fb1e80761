//! The worker mailbox protocol.
//!
//! A worker's mailbox carries three kinds of message: client and peer
//! RPCs, each with a [`Completion`] that receives the responses; steps
//! that the server's balance and migration machinery runs against the
//! [`Worker`] on its own thread; and `Shutdown`. Callers that need a
//! step's result reach it through [`crate::worker::WorkerCell::ask`].

use crate::worker::Worker;
use mbal_balancer::WorkerLoad;
use mbal_core::hotkey::HotKey;
use mbal_core::types::Value;
use mbal_proto::{Request, Response};

/// A drained migration batch: `(key, value, expiry_ms)` triples. Values
/// are refcounted [`Value`]s, so shipping a batch through channels and
/// the codec never copies payload bytes.
pub type MigrationBatch = Vec<(Vec<u8>, Value, u64)>;

/// Receives an RPC's responses, one per request and in order, on the
/// worker's thread. It decides where they go: a caller waiting on a
/// channel, or nowhere (a cast).
pub type Completion = Box<dyn FnOnce(Vec<Response>) + Send>;

/// Everything a worker can receive.
pub enum WorkerMsg {
    /// Client or peer-server RPCs, served in order.
    Rpc {
        /// The requests.
        reqs: Vec<Request>,
        /// Called with the responses (same length and order as `reqs`).
        done: Completion,
    },
    /// A step run against the worker on its own thread, in mailbox order.
    Run(Box<dyn FnOnce(&mut Worker) + Send>),
    /// Stop the worker loop.
    Shutdown,
}

/// A worker's end-of-epoch report. Cumulative counters (ops, hits,
/// latency histograms, …) live in `load.metrics`, the worker's
/// telemetry snapshot — the same type served over the `Stats` RPC.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Balancer-facing load snapshot, including the metrics snapshot
    /// and (under multi-tenancy) the per-tenant accounting rows the
    /// memory arbiter consumes.
    pub load: WorkerLoad,
    /// Hot keys observed this epoch.
    pub hot_keys: Vec<HotKey>,
    /// Replica-table size in bytes (Table 2's duplicate-space cost).
    pub replica_bytes: usize,
}
