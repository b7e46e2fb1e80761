//! # mbal-server
//!
//! The MBal server runtime (§2 of the paper): one fully-functional
//! caching worker per core, each owning its cachelets outright, with no
//! dispatcher thread — clients route directly to workers.
//!
//! - [`mod@unit`] — [`unit::CacheUnit`]: a cachelet bundled with its own slab
//!   store. Because the store travels with the cachelet, server-local
//!   migration really is an ownership handoff between threads (a pointer
//!   move through a mailbox), with zero data copying — the paper's
//!   "near-zero cost" Phase 2 mechanism.
//! - [`messages`] — the worker mailbox protocol: RPC batches that carry
//!   their completion, and control-plane steps (epoch ticks,
//!   adopt/release, per-bucket migration) run against the worker.
//! - [`mailbox`] — the many-producer, one-consumer worker inbox.
//! - [`worker`] — the worker event loop: GET/SET/DELETE over owned
//!   cachelets, the shadow-side replica table, hot-key sampling, and
//!   the Write-Invalidate rules for in-flight migrations; the
//!   [`worker::WorkerCell`] that lets an idle worker serve an in-proc
//!   call on the caller's thread.
//! - [`transport`] — the [`transport::Transport`] abstraction — unary,
//!   batched ([`transport::Transport::call_many`]) and deadline-aware —
//!   with the in-process registry implementation used by tests,
//!   benchmarks and single-host clusters.
//! - [`tcp`] — the TCP transport: one listening port per worker (§2.3),
//!   frames encoded by `mbal-proto`, pooled connections, pipelined
//!   batch envelopes (one flush per batch) and bounded connect retry.
//! - [`event_loop`] — the TCP server: one nonblocking epoll loop per
//!   worker, run on the worker's own thread, multiplexing every
//!   connection and serving each batch to completion, with zero-copy
//!   [`bytes::Bytes`] response fragments flushed via vectored writes.
//! - [`server`] — [`server::Server`]: spawns workers, runs the balance
//!   epoch loop, executes Phase 1/2/3 actions, and performs coordinated
//!   per-bucket migration with the coordinator.
//! - [`fault`] — seeded, deterministic fault injection: a
//!   [`fault::FaultInjector`] wraps any transport and drops, delays,
//!   duplicates, reorders and resets frames from a replayable
//!   [`fault::FaultPlan`].
//! - [`metrics_http`] — the optional plaintext (Prometheus text format)
//!   metrics exposition endpoint.
//! - [`cli`] — command-line parsing shared by the workspace's binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod config;
pub mod event_loop;
pub mod fault;
pub mod mailbox;
pub mod messages;
pub mod metrics_http;
pub mod server;
pub mod tcp;
pub mod transport;
pub mod unit;
pub mod worker;

pub use config::{IoConfig, ServerConfig, ServerConfigBuilder};
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan};
pub use metrics_http::serve_metrics_http;
pub use server::Server;
pub use transport::{InProcRegistry, Transport, TransportError};
