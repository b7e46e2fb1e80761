//! The static metrics registry: sharded, cache-line-padded per-worker
//! counter/gauge/histogram blocks.
//!
//! Modeled on Pelikan's static-metrics approach: the full metric
//! catalog is a closed enum (no string lookups, no hashing on the hot
//! path), each worker owns one [`MetricsShard`], and an increment is a
//! single relaxed atomic add into the worker's own cache-line-aligned
//! block — workers never touch each other's lines. Reads aggregate:
//! [`MetricsRegistry::snapshot`] folds every shard into one
//! [`MetricsSnapshot`], which is the serializable, mergeable,
//! delta-able value shipped over the `Stats` RPC and consumed by the
//! balancer.

use crate::histogram::{AtomicHistogram, Histogram, LatencyPercentiles};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The closed catalog of cumulative counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Operations reaching the data path (reads + writes, owned or not).
    Ops,
    /// GET lookups (including each key of a MultiGET).
    Gets,
    /// GETs that found a live value.
    GetHits,
    /// GETs that missed.
    GetMisses,
    /// SET stores.
    Sets,
    /// DELETEs.
    Deletes,
    /// Conditional stores (add/replace).
    CondStores,
    /// Append/prepend operations.
    Concats,
    /// Counter increments/decrements.
    Incrs,
    /// TTL refreshes.
    Touches,
    /// MultiGET envelope requests.
    MultiGets,
    /// Replica-table reads (shadow side of Phase 1).
    ReplicaReads,
    /// Replica-table reads that hit.
    ReplicaReadHits,
    /// Replica installs accepted.
    ReplicaInstalls,
    /// Replica updates applied.
    ReplicaUpdates,
    /// Replica invalidations applied.
    ReplicaInvalidates,
    /// Shadow replicas promoted to authoritative values after their
    /// home worker's server was confirmed failed.
    ReplicasPromoted,
    /// Entries installed by inbound coordinated migration.
    MigrateEntriesIn,
    /// Coordinated-migration commits accepted.
    MigrateCommits,
    /// `Moved` redirects issued (on-the-way routing).
    MovedRedirects,
    /// Requests refused because the cachelet is not owned here.
    NotOwnerErrors,
    /// Stores refused for lack of memory.
    OomErrors,
    /// Any other failure response.
    OtherErrors,
    /// Payload bytes received in SET-family values.
    BytesIn,
    /// Payload bytes sent in GET-family values.
    BytesOut,
    /// `Stats` RPCs served.
    StatsRequests,
    /// Pipelined RPC batches (messages of more than one request) drained.
    BatchRpcs,
    /// Faults injected by a fault-injection transport wrapper.
    FaultsInjected,
    /// RPC attempts re-issued after a transient transport failure.
    TransportRetries,
    /// RPC attempts that exhausted their deadline.
    TransportTimeouts,
    /// Replica reads refused because the lease had expired (the value
    /// may be stale, so the shadow answers `NotFound` instead).
    StaleReadsRejected,
    /// Entries dropped by the storage engine's eviction policy.
    Evictions,
    /// Entries reclaimed because their TTL had passed.
    Expirations,
    /// Value bytes released by eviction.
    EvictedBytes,
    /// Value bytes released by TTL expiry.
    ExpiredBytes,
    /// Client front-cache reads served locally (never reached the wire).
    FrontHits,
    /// Front-cache entries rejected at read time for TTL expiry or a
    /// mapping-version mismatch.
    FrontStaleRejected,
    /// Keys the heavy-hitter sketch promoted into the front cache.
    SketchPromotions,
    /// Assignments redirected off a worker at the bounded-load cap.
    RingCapSpills,
    /// RPC messages (one request or one pipelined batch) served on the
    /// caller's thread — an in-proc caller or a TCP event loop — instead
    /// of through the worker's mailbox.
    InlineRpcs,
}

impl Counter {
    /// Number of counters in the catalog.
    pub const COUNT: usize = 40;

    /// Every counter, in index order.
    pub const ALL: [Counter; Self::COUNT] = [
        Counter::Ops,
        Counter::Gets,
        Counter::GetHits,
        Counter::GetMisses,
        Counter::Sets,
        Counter::Deletes,
        Counter::CondStores,
        Counter::Concats,
        Counter::Incrs,
        Counter::Touches,
        Counter::MultiGets,
        Counter::ReplicaReads,
        Counter::ReplicaReadHits,
        Counter::ReplicaInstalls,
        Counter::ReplicaUpdates,
        Counter::ReplicaInvalidates,
        Counter::ReplicasPromoted,
        Counter::MigrateEntriesIn,
        Counter::MigrateCommits,
        Counter::MovedRedirects,
        Counter::NotOwnerErrors,
        Counter::OomErrors,
        Counter::OtherErrors,
        Counter::BytesIn,
        Counter::BytesOut,
        Counter::StatsRequests,
        Counter::BatchRpcs,
        Counter::FaultsInjected,
        Counter::TransportRetries,
        Counter::TransportTimeouts,
        Counter::StaleReadsRejected,
        Counter::Evictions,
        Counter::Expirations,
        Counter::EvictedBytes,
        Counter::ExpiredBytes,
        Counter::FrontHits,
        Counter::FrontStaleRejected,
        Counter::SketchPromotions,
        Counter::RingCapSpills,
        Counter::InlineRpcs,
    ];

    /// Stable wire/exposition name.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::Ops => "ops",
            Counter::Gets => "gets",
            Counter::GetHits => "get_hits",
            Counter::GetMisses => "get_misses",
            Counter::Sets => "sets",
            Counter::Deletes => "deletes",
            Counter::CondStores => "cond_stores",
            Counter::Concats => "concats",
            Counter::Incrs => "incrs",
            Counter::Touches => "touches",
            Counter::MultiGets => "multi_gets",
            Counter::ReplicaReads => "replica_reads",
            Counter::ReplicaReadHits => "replica_read_hits",
            Counter::ReplicaInstalls => "replica_installs",
            Counter::ReplicaUpdates => "replica_updates",
            Counter::ReplicaInvalidates => "replica_invalidates",
            Counter::ReplicasPromoted => "replicas_promoted",
            Counter::MigrateEntriesIn => "migrate_entries_in",
            Counter::MigrateCommits => "migrate_commits",
            Counter::MovedRedirects => "moved_redirects",
            Counter::NotOwnerErrors => "not_owner_errors",
            Counter::OomErrors => "oom_errors",
            Counter::OtherErrors => "other_errors",
            Counter::BytesIn => "bytes_in",
            Counter::BytesOut => "bytes_out",
            Counter::StatsRequests => "stats_requests",
            Counter::BatchRpcs => "batch_rpcs",
            Counter::FaultsInjected => "faults_injected",
            Counter::TransportRetries => "retries",
            Counter::TransportTimeouts => "timeouts",
            Counter::StaleReadsRejected => "stale_reads_rejected",
            Counter::Evictions => "evictions",
            Counter::Expirations => "expirations",
            Counter::EvictedBytes => "evicted_bytes",
            Counter::ExpiredBytes => "expired_bytes",
            Counter::FrontHits => "front_hits",
            Counter::FrontStaleRejected => "front_stale_rejected",
            Counter::SketchPromotions => "sketch_promotions",
            Counter::RingCapSpills => "ring_cap_spills",
            Counter::InlineRpcs => "inline_rpcs",
        }
    }
}

/// The closed catalog of point-in-time gauges (set, not incremented;
/// survive a `stats reset`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Cachelets currently owned by the worker.
    CacheletsOwned,
    /// Cachelets given away and answered with `Moved`.
    ForwardedCachelets,
    /// Live entries in the shadow-side replica table.
    ReplicaTableLen,
    /// Bytes held by the shadow-side replica table.
    ReplicaBytes,
    /// Home-side keys currently replicated elsewhere.
    ReplicatedKeys,
    /// Bytes resident across the worker's cachelets.
    MemBytes,
    /// Member servers in the cluster (membership view; cluster-level,
    /// published on worker 0's shard).
    ClusterSize,
    /// Servers currently suspected by the failure detector
    /// (cluster-level, published on worker 0's shard).
    SuspectNodes,
    /// Membership-driven cachelet migrations currently in flight
    /// (cluster-level, published on worker 0's shard).
    RebalanceInflight,
}

impl Gauge {
    /// Number of gauges in the catalog.
    pub const COUNT: usize = 9;

    /// Every gauge, in index order.
    pub const ALL: [Gauge; Self::COUNT] = [
        Gauge::CacheletsOwned,
        Gauge::ForwardedCachelets,
        Gauge::ReplicaTableLen,
        Gauge::ReplicaBytes,
        Gauge::ReplicatedKeys,
        Gauge::MemBytes,
        Gauge::ClusterSize,
        Gauge::SuspectNodes,
        Gauge::RebalanceInflight,
    ];

    /// Stable wire/exposition name.
    pub const fn name(self) -> &'static str {
        match self {
            Gauge::CacheletsOwned => "cachelets_owned",
            Gauge::ForwardedCachelets => "forwarded_cachelets",
            Gauge::ReplicaTableLen => "replica_table_len",
            Gauge::ReplicaBytes => "replica_bytes",
            Gauge::ReplicatedKeys => "replicated_keys",
            Gauge::MemBytes => "mem_bytes",
            Gauge::ClusterSize => "cluster_size",
            Gauge::SuspectNodes => "suspect_nodes",
            Gauge::RebalanceInflight => "rebalance_inflight",
        }
    }
}

// See histogram.rs: const-init pattern for atomic arrays.
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

/// One worker's metrics block. Alignment pads each shard to its own
/// cache lines (128 covers adjacent-line prefetchers), so relaxed
/// increments from different workers never false-share.
#[repr(align(128))]
pub struct MetricsShard {
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    read_us: AtomicHistogram,
    write_us: AtomicHistogram,
}

impl MetricsShard {
    /// Creates a zeroed shard.
    pub fn new() -> Self {
        Self {
            counters: [ZERO; Counter::COUNT],
            gauges: [ZERO; Gauge::COUNT],
            read_us: AtomicHistogram::new(),
            write_us: AtomicHistogram::new(),
        }
    }

    /// Adds 1 to `c` (relaxed; the owning worker's hot path).
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Adds `n` to `c`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of counter `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Sets gauge `g` to `v`.
    #[inline]
    pub fn set_gauge(&self, g: Gauge, v: u64) {
        self.gauges[g as usize].store(v, Ordering::Relaxed);
    }

    /// Current value of gauge `g`.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize].load(Ordering::Relaxed)
    }

    /// Records a read-family RPC latency in microseconds.
    #[inline]
    pub fn record_read_us(&self, us: u64) {
        self.read_us.record(us);
    }

    /// Records a write-family RPC latency in microseconds.
    #[inline]
    pub fn record_write_us(&self, us: u64) {
        self.write_us.record(us);
    }

    /// Copies the shard into a plain snapshot. Taken concurrently with
    /// recording, each field is a valid past value (monotonicity holds
    /// per counter) but the set is not a single atomic cut.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        for (o, c) in s.counters.iter_mut().zip(self.counters.iter()) {
            *o = c.load(Ordering::Relaxed);
        }
        for (o, g) in s.gauges.iter_mut().zip(self.gauges.iter()) {
            *o = g.load(Ordering::Relaxed);
        }
        s.read_us = self.read_us.snapshot();
        s.write_us = self.write_us.snapshot();
        s
    }

    /// Zeroes counters and histograms (the `stats reset` variant).
    /// Gauges describe current state and are left alone.
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        self.read_us.reset();
        self.write_us.reset();
    }
}

impl Default for MetricsShard {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for MetricsShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsShard")
            .field("ops", &self.counter(Counter::Ops))
            .finish()
    }
}

/// The process-wide registry: one [`MetricsShard`] per worker, created
/// at server spawn and handed to each worker thread as an `Arc`.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: Vec<Arc<MetricsShard>>,
}

impl MetricsRegistry {
    /// Creates a registry with `workers` shards.
    pub fn new(workers: usize) -> Self {
        Self {
            shards: (0..workers.max(1))
                .map(|_| Arc::new(MetricsShard::new()))
                .collect(),
        }
    }

    /// The shard owned by worker `worker`.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn shard(&self, worker: usize) -> Arc<MetricsShard> {
        Arc::clone(&self.shards[worker])
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// One worker's snapshot.
    pub fn worker_snapshot(&self, worker: usize) -> MetricsSnapshot {
        self.shards[worker].snapshot()
    }

    /// Aggregated snapshot across every shard.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for s in &self.shards {
            out.merge(&s.snapshot());
        }
        out
    }

    /// Resets every shard's counters and histograms.
    pub fn reset(&self) {
        for s in &self.shards {
            s.reset();
        }
    }
}

/// A plain, serializable copy of one shard (or a merged set of shards).
///
/// This is the `Snapshot`/`Delta` API that subsumes the old
/// `AccessStats::delta` pattern: snapshots [`merge`](Self::merge)
/// across workers and [`delta`](Self::delta) across time, both
/// saturating, so a worker restart or counter reset between epochs
/// yields zeros instead of underflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values, indexed by [`Counter`]. A `Vec` (always
    /// `Counter::COUNT` long when built here) so the catalog can grow
    /// past serde's fixed-size-array limits; reads treat a missing tail
    /// as zeros, which also keeps old serialized snapshots loadable.
    pub counters: Vec<u64>,
    /// Gauge values, indexed by [`Gauge`].
    pub gauges: [u64; Gauge::COUNT],
    /// Read-family RPC latency histogram (µs).
    pub read_us: Histogram,
    /// Write-family RPC latency histogram (µs).
    pub write_us: Histogram,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        Self {
            counters: vec![0; Counter::COUNT],
            gauges: [0; Gauge::COUNT],
            read_us: Histogram::default(),
            write_us: Histogram::default(),
        }
    }
}

impl MetricsSnapshot {
    /// Value of counter `c` (zero when the snapshot predates `c`).
    pub fn get(&self, c: Counter) -> u64 {
        self.counters.get(c as usize).copied().unwrap_or(0)
    }

    /// Value of gauge `g`.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Folds `other` in: counters and gauges add, histograms merge.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        if self.counters.len() < other.counters.len() {
            self.counters.resize(other.counters.len(), 0);
        }
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a = a.saturating_add(*b);
        }
        for (a, b) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            *a = a.saturating_add(*b);
        }
        self.read_us.merge(&other.read_us);
        self.write_us.merge(&other.write_us);
    }

    /// Saturating difference `self - earlier` for counters and
    /// histograms; gauges are point-in-time and taken from `self`.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for (o, e) in out.counters.iter_mut().zip(earlier.counters.iter()) {
            *o = o.saturating_sub(*e);
        }
        out.read_us = self.read_us.delta(&earlier.read_us);
        out.write_us = self.write_us.delta(&earlier.write_us);
        out
    }

    /// Total operations (the [`Counter::Ops`] counter).
    pub fn ops(&self) -> u64 {
        self.get(Counter::Ops)
    }

    /// GET hit ratio in `[0, 1]`; 1.0 when no GETs were served.
    pub fn hit_ratio(&self) -> f64 {
        let gets = self.get(Counter::Gets);
        if gets == 0 {
            1.0
        } else {
            self.get(Counter::GetHits) as f64 / gets as f64
        }
    }

    /// Iterates `(name, value)` over every counter, in catalog order.
    pub fn counters_named(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Counter::ALL.iter().map(move |&c| (c.name(), self.get(c)))
    }

    /// Iterates `(name, value)` over every gauge, in catalog order.
    pub fn gauges_named(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        Gauge::ALL.iter().map(move |&g| (g.name(), self.gauge(g)))
    }

    /// Read-latency percentile summary.
    pub fn read_latency(&self) -> LatencyPercentiles {
        self.read_us.percentiles()
    }

    /// Write-latency percentile summary.
    pub fn write_latency(&self) -> LatencyPercentiles {
        self.write_us.percentiles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_consistent() {
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        assert_eq!(Gauge::ALL.len(), Gauge::COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{} out of order", c.name());
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i, "{} out of order", g.name());
        }
        // Names are unique.
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Gauge::ALL.iter().map(|g| g.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn shard_snapshot_reset_roundtrip() {
        let s = MetricsShard::new();
        s.incr(Counter::Ops);
        s.add(Counter::BytesIn, 128);
        s.set_gauge(Gauge::CacheletsOwned, 4);
        s.record_read_us(250);
        let snap = s.snapshot();
        assert_eq!(snap.get(Counter::Ops), 1);
        assert_eq!(snap.get(Counter::BytesIn), 128);
        assert_eq!(snap.gauge(Gauge::CacheletsOwned), 4);
        assert_eq!(snap.read_us.count(), 1);
        s.reset();
        let after = s.snapshot();
        assert_eq!(after.get(Counter::Ops), 0);
        assert!(after.read_us.is_empty());
        assert_eq!(
            after.gauge(Gauge::CacheletsOwned),
            4,
            "gauges survive reset"
        );
    }

    #[test]
    fn registry_aggregates_across_shards() {
        let r = MetricsRegistry::new(3);
        for w in 0..3 {
            let s = r.shard(w);
            s.add(Counter::Gets, (w as u64 + 1) * 10);
            s.record_read_us(100 * (w as u64 + 1));
        }
        let total = r.snapshot();
        assert_eq!(total.get(Counter::Gets), 60);
        assert_eq!(total.read_us.count(), 3);
        assert_eq!(r.worker_snapshot(1).get(Counter::Gets), 20);
    }

    #[test]
    fn snapshot_delta_saturates_and_keeps_gauges() {
        let mut early = MetricsSnapshot::default();
        early.counters[Counter::Ops as usize] = 100;
        let mut late = MetricsSnapshot::default();
        late.counters[Counter::Ops as usize] = 130;
        late.gauges[Gauge::MemBytes as usize] = 999;
        let d = late.delta(&early);
        assert_eq!(d.get(Counter::Ops), 30);
        assert_eq!(d.gauge(Gauge::MemBytes), 999);
        // Reset between snapshots: no underflow.
        let d2 = early.delta(&late);
        assert_eq!(d2.get(Counter::Ops), 0);
    }

    #[test]
    fn snapshot_serde_roundtrip() {
        let s = MetricsShard::new();
        s.incr(Counter::Sets);
        s.record_write_us(42);
        let snap = s.snapshot();
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, snap);
    }
}
