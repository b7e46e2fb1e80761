//! # mbal-core
//!
//! Core building blocks of the MBal in-memory object caching framework
//! (Cheng, Gupta, Butt — EuroSys 2015).
//!
//! MBal partitions user objects and compute/memory resources into
//! non-overlapping subsets called *cachelets*. Each cachelet is owned by
//! exactly one worker thread, so inserts (`SET`) and lookups (`GET`) take no
//! locks at all — the single-writer discipline replaces synchronization.
//!
//! This crate provides:
//!
//! - [`types`] — keys, identifiers, errors shared across the workspace.
//! - [`hash`] — the 64-bit key hash functions used for sharding and bucket
//!   placement.
//! - [`mem`] — the hierarchical slab memory manager of §2.4 of the paper:
//!   a global chunk pool plus thread-local per-size-class free lists, with
//!   NUMA-aware placement and the `GLOB_MEM_LOW_THRESH` /
//!   `THR_MEM_HIGH_THRESH` rebalancing thresholds.
//! - [`store`] — pluggable value storage backends ([`store::ValueStore`]):
//!   the slab store plus the `malloc`/`static`/shared-arena ablations used
//!   by Figure 8 of the paper.
//! - [`table`] — the single-writer open-chaining hash table with an
//!   intrusive LRU list threaded through its entry slab.
//! - [`engine`] — the storage engine behind the [`engine::Engine`]
//!   trait: the slab+LRU table as [`engine::slab_lru`].
//! - [`cachelet`] — the cachelet abstraction: storage engine + statistics +
//!   memory accounting + lease state.
//! - [`stats`] — epoch-based access statistics and EWMA load tracking
//!   consumed by the load balancer.
//! - [`hotkey`] — SPORE-style proportional-sampling hot-key tracker with
//!   weighted read increments and write decrements.
//! - [`replica`] — the separate replica hash table kept by shadow workers
//!   during Phase 1 key replication.
//! - [`clock`] — a pluggable time source so the same code runs on real
//!   time (servers) and simulated time (the cluster simulator).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cachelet;
pub mod clock;
pub mod engine;
pub mod hash;
pub mod hotkey;
pub mod mem;
pub mod replica;
pub mod stats;
pub mod store;
pub mod table;
pub mod types;

pub use cachelet::Cachelet;
pub use clock::{Clock, ManualClock, RealClock};
pub use engine::{Engine, EngineStats};
pub use stats::AccessStats;
pub use types::{CacheError, CacheletId, Key, ServerId, TenantId, Value, VnId, WorkerId};
