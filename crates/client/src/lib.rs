//! # mbal-client
//!
//! The MBal client library (§2.3, §3.2 of the paper).
//!
//! Clients do the routing: a request for a key is resolved through the
//! cached two-level mapping table (key → VN → cachelet → worker) and sent
//! straight to the owning worker's endpoint — there is no dispatcher. Web
//! applications "simply link against our Memcached protocol compliant
//! client library"; this crate is that library for the Rust world.
//!
//! Responsibilities:
//!
//! - **Configuration cache** — a local [`MappingTable`] copy, updated
//!   from `Moved` responses ("on-the-way routing") and from periodic
//!   coordinator heartbeats carrying mapping deltas
//!   ([`Client::poll_coordinator`], the *migration poller*).
//! - **Replica-aware reads** — when a GET response piggybacks replica
//!   locations for a hot key, subsequent reads for that key round-robin
//!   across the home worker and its shadows (Phase 1, §3.2). Writes
//!   always go to the home worker.
//! - **MultiGET batching** — [`Client::multi_get`] groups keys by owner
//!   worker and issues one batched request per worker, the technique the
//!   paper uses to amortize network overhead (100-GET batches, §4.1).
//! - **Front tier** (optional, [`ClientBuilder::front_cache`]) — a
//!   heavy-hitter sketch over recent GETs feeding a tiny TTL-bounded
//!   cache of sketch-confirmed hot keys, plus power-of-two-choices
//!   replica reads for hot keys. See the [`front`] module for the
//!   staleness model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod front;

pub use front::{FrontCache, FrontCacheConfig, FrontLookup, SketchCounter, SpaceSaving};

use mbal_balancer::coordinator::{Coordinator, HeartbeatReply};
use mbal_balancer::replicated::ReplicatedCoordinator;
use mbal_core::types::{Key, TenantId, Value, WorkerAddr};
use mbal_proto::{Request, Response, Status};
use mbal_ring::MappingTable;
use mbal_server::transport::{Transport, TransportError, DEFAULT_DEADLINE};
use mbal_telemetry::StatsReport;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Abstraction over how a client reaches the coordinator (in-process or
/// remote).
pub trait CoordinatorLink: Send + Sync {
    /// Sends a heartbeat with the client's mapping version.
    fn heartbeat(&self, version: u64) -> HeartbeatReply;

    /// Fetches the full mapping table (bootstrap / lagged poller).
    fn full_table(&self) -> MappingTable;
}

impl CoordinatorLink for Coordinator {
    fn heartbeat(&self, version: u64) -> HeartbeatReply {
        Coordinator::heartbeat(self, version)
    }

    fn full_table(&self) -> MappingTable {
        self.mapping_snapshot()
    }
}

impl CoordinatorLink for ReplicatedCoordinator {
    fn heartbeat(&self, version: u64) -> HeartbeatReply {
        mbal_balancer::replicated::CoordinatorService::heartbeat(self, version)
    }

    fn full_table(&self) -> MappingTable {
        mbal_balancer::replicated::CoordinatorService::mapping_snapshot(self)
    }
}

/// Client-side operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// GET operations issued.
    pub gets: u64,
    /// GETs that found a value.
    pub hits: u64,
    /// SET operations issued.
    pub sets: u64,
    /// DELETE operations issued.
    pub deletes: u64,
    /// `Moved` redirects followed (mapping refreshed on the way).
    pub moved: u64,
    /// Reads served by a replica instead of the home worker.
    pub replica_reads: u64,
    /// Requests retried after a transient `Busy` (bucket mid-migration).
    pub busy_retries: u64,
    /// Idempotent requests retried after a transport error (timeout,
    /// dropped frame, connection reset), within the operation's budget.
    pub transport_retries: u64,
    /// Coordinator polls skipped because the migration poller was
    /// backing off after fruitless resyncs.
    pub backoff_skips: u64,
    /// Operations that failed after exhausting retries.
    pub failures: u64,
    /// Retries held back until a handoff window closed: a `NotOwner`
    /// after a `Moved` in the same operation, or a `Moved` back to a
    /// worker that already redirected it.
    pub handoff_waits: u64,
    /// GETs served from the client's front cache without touching the
    /// wire (a subset of `hits`).
    pub front_hits: u64,
    /// Front-cache entries rejected at read time — TTL expired or the
    /// mapping version moved past the one they were cached under.
    pub front_stale_rejected: u64,
    /// Keys newly admitted into the front cache after the sketch
    /// confirmed them hot.
    pub sketch_promotions: u64,
    /// Times the front sketch was decayed because the mapping moved (a
    /// migration, failover, or membership epoch) — the hot-key regime
    /// the sketch summarized may have shifted with it.
    pub sketch_decays: u64,
}

/// Errors surfaced to the application.
///
/// Server-side refusals carry the wire [`Status`] alongside the server's
/// message, so the client does not maintain a parallel error taxonomy:
/// `From<Status>` is the single mapping between the two worlds.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The transport could not reach the worker.
    Transport(TransportError),
    /// The cache rejected the operation (out of memory, protocol error).
    Rejected {
        /// The proto status the server answered with ([`Status::Error`]
        /// for malformed/unexpected responses diagnosed client-side).
        status: Status,
        /// Human-readable detail (the server's message where one was
        /// sent, otherwise [`Status::describe`]).
        message: String,
    },
    /// Retries were exhausted (persistent `Busy` or routing flap).
    RetriesExhausted,
}

impl ClientError {
    /// The proto status behind this error, if it came from the server.
    pub fn status(&self) -> Option<Status> {
        match self {
            ClientError::Rejected { status, .. } => Some(*status),
            _ => None,
        }
    }

    fn rejected(status: Status, message: String) -> Self {
        if message.is_empty() {
            ClientError::from(status)
        } else {
            ClientError::Rejected { status, message }
        }
    }

    fn unexpected(resp: &Response) -> Self {
        ClientError::Rejected {
            status: Status::Error,
            message: format!("unexpected response {resp:?}"),
        }
    }
}

impl From<Status> for ClientError {
    fn from(status: Status) -> Self {
        ClientError::Rejected {
            status,
            message: status.describe().to_string(),
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Rejected { status, message } => {
                write!(f, "rejected ({status:?}): {message}")
            }
            ClientError::RetriesExhausted => write!(f, "retries exhausted"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Typed result of a conditional store ([`Client::set_opts`],
/// [`Client::touch_opts`]): what the server did, instead of a bare bool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// The value was stored (or the TTL refreshed).
    Stored,
    /// A conditional store was declined because its presence condition
    /// failed: `replace`/`append`/`prepend` on an absent key (memcached
    /// `NOT_STORED`).
    NotStored,
    /// `add` declined: the key already exists.
    Exists,
    /// The addressed key was absent (`touch` on a missing key).
    Missed,
}

impl StoreOutcome {
    /// `true` when the server actually stored/refreshed the value.
    pub fn is_stored(self) -> bool {
        self == StoreOutcome::Stored
    }
}

/// Which store-family verb [`Client::set_opts`] issues.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StoreMode {
    /// Unconditional insert-or-replace (memcached `set`).
    #[default]
    Set,
    /// Store only if absent (`add`).
    Add,
    /// Store only if present (`replace`).
    Replace,
    /// Append bytes to an existing value (`append`).
    Append,
    /// Prepend bytes to an existing value (`prepend`).
    Prepend,
}

/// Options for [`Client::set_opts`] — the single entry point for the
/// store family (`set`/`add`/`replace`/`append`/`prepend`, with or
/// without expiry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetOptions {
    /// Store verb (default [`StoreMode::Set`]).
    pub mode: StoreMode,
    /// Absolute expiry in milliseconds (0 = never). Ignored by the
    /// concatenating modes, which keep the existing entry's expiry.
    pub expiry_ms: u64,
}

impl SetOptions {
    /// Plain unconditional store, no expiry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store only if absent.
    pub fn add() -> Self {
        Self {
            mode: StoreMode::Add,
            ..Self::default()
        }
    }

    /// Store only if present.
    pub fn replace() -> Self {
        Self {
            mode: StoreMode::Replace,
            ..Self::default()
        }
    }

    /// Append to an existing value.
    pub fn append() -> Self {
        Self {
            mode: StoreMode::Append,
            ..Self::default()
        }
    }

    /// Prepend to an existing value.
    pub fn prepend() -> Self {
        Self {
            mode: StoreMode::Prepend,
            ..Self::default()
        }
    }

    /// Sets the absolute expiry in milliseconds (0 = never).
    pub fn expiry_ms(mut self, expiry_ms: u64) -> Self {
        self.expiry_ms = expiry_ms;
        self
    }
}

struct ReplicaSet {
    /// Home worker plus shadows, read round-robin.
    targets: Vec<WorkerAddr>,
    next: usize,
}

/// Fluent constructor for [`Client`].
///
/// The transport and coordinator link are mandatory and positional;
/// everything else has defaults tuned for the live stack: a
/// [`DEFAULT_DEADLINE`] per-operation budget, 8 retries, and 100-key
/// MultiGET batches (the paper's §4.1 batching factor).
///
/// ```ignore
/// let client = Client::builder(transport, coordinator)
///     .op_budget(Duration::from_millis(250))
///     .multiget_batch(100)
///     .build();
/// ```
pub struct ClientBuilder {
    transport: Arc<dyn Transport>,
    coordinator: Arc<dyn CoordinatorLink>,
    op_budget: Duration,
    max_retries: usize,
    multiget_batch: usize,
    backoff_base: Duration,
    backoff_max: Duration,
    tenant: TenantId,
    front: Option<FrontCacheConfig>,
}

impl ClientBuilder {
    /// Starts a builder over the given transport and coordinator link.
    pub fn new(transport: Arc<dyn Transport>, coordinator: Arc<dyn CoordinatorLink>) -> Self {
        Self {
            transport,
            coordinator,
            op_budget: DEFAULT_DEADLINE,
            max_retries: 8,
            multiget_batch: 100,
            backoff_base: Duration::from_millis(2),
            backoff_max: Duration::from_millis(256),
            tenant: TenantId::DEFAULT,
            front: None,
        }
    }

    /// The tenant this client acts for (default: [`TenantId::DEFAULT`]).
    /// Every data operation is tagged with the tenant on the wire; a
    /// server without that tenant admitted answers a typed
    /// `Status::UnknownTenant` refusal rather than dropping the
    /// connection. The default tenant sends unchanged frames, so
    /// single-tenant deployments pay nothing.
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Total wall-clock budget for one logical operation, shared by all
    /// of its retries — a retry gets the *remaining* budget as its
    /// transport deadline, never a fresh full one. Default
    /// [`DEFAULT_DEADLINE`].
    pub fn op_budget(mut self, budget: Duration) -> Self {
        self.op_budget = budget;
        self
    }

    /// Maximum attempts per logical operation (default 8, minimum 1).
    pub fn max_retries(mut self, n: usize) -> Self {
        self.max_retries = n.max(1);
        self
    }

    /// Maximum keys per pipelined MultiGET batch to one worker (default
    /// 100, minimum 1). Larger [`Client::multi_get`] calls are split
    /// into batches of this size per worker.
    pub fn multiget_batch(mut self, n: usize) -> Self {
        self.multiget_batch = n.max(1);
        self
    }

    /// Migration-poller backoff window: a coordinator resync that yields
    /// no mapping change (the rebalance the client is waiting on has not
    /// committed yet) opens a jittered window that doubles per fruitless
    /// resync, from `base` up to `max`. Defaults: 2 ms → 256 ms.
    pub fn poll_backoff(mut self, base: Duration, max: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_max = max.max(base);
        self
    }

    /// Enables the client front tier: a heavy-hitter sketch over recent
    /// GETs feeding a tiny bounded cache of hot keys, plus
    /// power-of-two-choices replica reads for hot keys. Off by default —
    /// a client without a front tier pays nothing. The front cache is
    /// per-client (and therefore per-tenant: a tenant's client never
    /// sees another tenant's values), TTL-bounded, invalidated by every
    /// local write, and rejects entries cached under an older mapping
    /// version. See [`front`] for the full staleness model.
    pub fn front_cache(mut self, cfg: FrontCacheConfig) -> Self {
        self.front = Some(cfg);
        self
    }

    /// Builds the client, fetching the initial mapping from the
    /// coordinator.
    pub fn build(self) -> Client {
        let mapping = self.coordinator.full_table();
        Client {
            mapping,
            transport: self.transport,
            coordinator: self.coordinator,
            replicas: HashMap::new(),
            max_retries: self.max_retries,
            op_budget: self.op_budget,
            multiget_batch: self.multiget_batch,
            backoff_base: self.backoff_base,
            backoff_max: self.backoff_max,
            backoff_streak: 0,
            backoff_until: None,
            jitter_rng: 0x9E37_79B9_7F4A_7C15,
            tenant: self.tenant,
            front: self.front.map(FrontCache::new),
            latency_ewma_us: HashMap::new(),
            stats: ClientStats::default(),
        }
    }
}

/// An MBal cache client.
pub struct Client {
    mapping: MappingTable,
    transport: Arc<dyn Transport>,
    coordinator: Arc<dyn CoordinatorLink>,
    replicas: HashMap<Key, ReplicaSet>,
    max_retries: usize,
    /// Total wall-clock budget for one logical operation, shared by all
    /// of its retries — a retry gets the *remaining* budget as its
    /// transport deadline, never a fresh full one.
    op_budget: Duration,
    /// Keys per pipelined MultiGET batch to one worker.
    multiget_batch: usize,
    /// First fruitless-resync backoff window (doubles per streak).
    backoff_base: Duration,
    /// Ceiling on the backoff window.
    backoff_max: Duration,
    /// Consecutive coordinator resyncs that changed nothing.
    backoff_streak: u32,
    /// No poller resync before this instant.
    backoff_until: Option<Instant>,
    /// xorshift64* state for backoff jitter and power-of-two-choices
    /// replica picks (no RNG dependency).
    jitter_rng: u64,
    /// The tenant every data op is tagged with on the wire.
    tenant: TenantId,
    /// Optional front tier: hot-key sketch + tiny bounded cache.
    front: Option<FrontCache>,
    /// Per-target EWMA service time in µs, the load signal behind
    /// power-of-two-choices replica reads. Only maintained when the
    /// front tier is enabled.
    latency_ewma_us: HashMap<WorkerAddr, u64>,
    stats: ClientStats,
}

/// One operation's record of the handoffs it has met.
#[derive(Default)]
struct Handoffs {
    /// Workers that answered this op with `Moved`.
    redirected_by: Vec<WorkerAddr>,
    /// Handoff waits so far; each doubles the next window.
    waits: u32,
}

impl Client {
    /// Starts a [`ClientBuilder`] — the way to construct a client.
    pub fn builder(
        transport: Arc<dyn Transport>,
        coordinator: Arc<dyn CoordinatorLink>,
    ) -> ClientBuilder {
        ClientBuilder::new(transport, coordinator)
    }

    /// Remaining budget before `deadline`, or `None` once it has passed.
    fn remaining(deadline: Instant) -> Option<Duration> {
        let now = Instant::now();
        if now >= deadline {
            None
        } else {
            Some(deadline - now)
        }
    }

    /// The client's current mapping version.
    pub fn mapping_version(&self) -> u64 {
        self.mapping.version()
    }

    /// Operation counters.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Polls the coordinator (the heartbeat/migration-poller path) and
    /// applies any mapping changes. Returns the number of deltas applied.
    ///
    /// Fruitless polls — no deltas, no refetch, meaning the move the
    /// client is waiting on has not committed yet — open a jittered
    /// exponential backoff window honoured by the retry paths, so a
    /// cluster mid-rebalance is not hammered with heartbeats. Any
    /// mapping change closes the window.
    pub fn poll_coordinator(&mut self) -> usize {
        let reply = self.coordinator.heartbeat(self.mapping.version());
        let changes = if reply.full_refetch {
            let table = self.coordinator.full_table();
            self.mapping.replace_with(&table);
            1 // full refresh counts as one change
        } else {
            for d in &reply.deltas {
                self.mapping.apply_delta(d);
            }
            reply.deltas.len()
        };
        if changes == 0 {
            let delay = self.next_backoff_delay();
            self.backoff_until = Some(Instant::now() + delay);
        } else {
            self.backoff_streak = 0;
            self.backoff_until = None;
            self.decay_front_sketch();
        }
        changes
    }

    /// Decays the front tier's heavy-hitter sketch after a remap: the
    /// mapping moving means a migration, failover, or membership epoch
    /// touched the cluster, and the traffic regime the sketch
    /// summarized may have rotated with it. Halving (rather than
    /// clearing) keeps genuinely persistent hot keys warm while letting
    /// a rotated head displace them quickly.
    fn decay_front_sketch(&mut self) {
        if let Some(front) = self.front.as_mut() {
            front.decay_sketch();
            self.stats.sketch_decays += 1;
        }
    }

    /// The gated resync used by `NotOwner`/transport-error retry paths:
    /// polls the coordinator unless a backoff window from earlier
    /// fruitless polls is still open.
    fn resync_mapping(&mut self) -> usize {
        if let Some(until) = self.backoff_until {
            if Instant::now() < until {
                self.stats.backoff_skips += 1;
                return 0;
            }
        }
        self.poll_coordinator()
    }

    /// Next poller backoff window; each fruitless poll doubles it.
    fn next_backoff_delay(&mut self) -> Duration {
        let delay = self.backoff_window(self.backoff_streak);
        self.backoff_streak = self.backoff_streak.saturating_add(1);
        delay
    }

    /// The `streak`-th backoff window: `base × 2^streak`, capped at
    /// `max`, jittered uniformly into `[window/2, window]` so a herd of
    /// clients chasing the same migration desynchronizes.
    fn backoff_window(&mut self, streak: u32) -> Duration {
        let window = self
            .backoff_base
            .saturating_mul(1u32 << streak.min(16))
            .min(self.backoff_max);
        let rng = self.rng_next();
        let nanos = window.as_nanos() as u64;
        let jittered = nanos / 2 + (nanos / 2 / 512) * (rng % 512);
        Duration::from_nanos(jittered)
    }

    /// xorshift64*: tiny, seedable, and dependency-free — shared by
    /// backoff jitter and power-of-two-choices replica picks.
    fn rng_next(&mut self) -> u64 {
        self.jitter_rng ^= self.jitter_rng << 13;
        self.jitter_rng ^= self.jitter_rng >> 7;
        self.jitter_rng ^= self.jitter_rng << 17;
        self.jitter_rng
    }

    /// Folds one observed service time into the target's EWMA (α = 1/8).
    fn note_latency(&mut self, target: WorkerAddr, elapsed: Duration) {
        let us = elapsed.as_micros() as u64;
        let e = self.latency_ewma_us.entry(target).or_insert(us);
        *e = (*e * 7 + us) / 8;
    }

    /// Drops `key` from the front cache after a local write, so the
    /// owning client never reads its own stale value.
    fn front_invalidate(&mut self, key: &[u8]) {
        if let Some(front) = self.front.as_mut() {
            front.invalidate(key);
        }
    }

    /// Offers a freshly fetched value to the front cache; counts the
    /// promotion if the sketch admitted a new key.
    fn front_admit(&mut self, key: &[u8], value: &[u8]) {
        let version = self.mapping.version();
        if let Some(front) = self.front.as_mut() {
            if front.admit(key, value, Instant::now(), version) {
                self.stats.sketch_promotions += 1;
            }
        }
    }

    fn apply_moved(&mut self, cachelet: mbal_core::types::CacheletId, new_owner: WorkerAddr) {
        self.stats.moved += 1;
        // Synthesize a delta one version ahead so it applies.
        let d = mbal_ring::MappingDelta {
            version: self.mapping.version() + 1,
            cachelet,
            new_owner,
        };
        self.mapping.apply_delta(&d);
        self.decay_front_sketch();
    }

    /// Follows a `Moved` from `from`. A redirect back to a worker that
    /// already redirected this op means one end still forwards stale (a
    /// coordinated migration's drained bucket not yet delivered, say),
    /// so the retry waits out the handoff instead of bouncing.
    fn follow_moved(
        &mut self,
        op: &mut Handoffs,
        from: WorkerAddr,
        cachelet: mbal_core::types::CacheletId,
        new_owner: WorkerAddr,
        deadline: Instant,
    ) {
        self.apply_moved(cachelet, new_owner);
        let cycle = op.redirected_by.contains(&new_owner);
        op.redirected_by.push(from);
        if cycle {
            self.await_handoff(op, deadline);
        }
    }

    /// Answers `NotOwner` with a resync. After a `Moved` in the same
    /// operation the redirect was right but early: the new owner has
    /// not adopted the cachelet yet (a Phase 2 `Release` ran, its
    /// `Adopt` has not), so the retry also waits out the handoff.
    fn on_not_owner(&mut self, op: &mut Handoffs, deadline: Instant) {
        if op.redirected_by.is_empty() {
            self.resync_mapping();
        } else {
            self.await_handoff(op, deadline);
        }
    }

    /// Resyncs the mapping; if that changes nothing, sleeps for the
    /// op's next backoff window — the poller's schedule, doubling from
    /// its base with each wait of this op — or until `deadline` if
    /// sooner, so the next attempt lands after the handoff instead of
    /// inside it. The doubling restarts with every op, so one long
    /// handoff does not slow the ones after it.
    fn await_handoff(&mut self, op: &mut Handoffs, deadline: Instant) {
        if self.resync_mapping() > 0 {
            return;
        }
        let window = self.backoff_window(op.waits);
        op.waits = op.waits.saturating_add(1);
        let until = (Instant::now() + window).min(deadline);
        let now = Instant::now();
        if until > now {
            self.stats.handoff_waits += 1;
            std::thread::sleep(until - now);
        }
    }

    /// Looks up `key`. Replica-aware: hot keys spread across their home
    /// worker and shadows — power-of-two-choices by observed latency
    /// when the front tier confirms the key hot, round-robin otherwise.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Value>, ClientError> {
        self.stats.gets += 1;
        // Front tier: feed the sketch, then try the local hot cache.
        // TTL and mapping-version coherence are enforced at read time.
        if let Some(front) = self.front.as_mut() {
            front.observe_get(key);
            match front.lookup(key, Instant::now(), self.mapping.version()) {
                FrontLookup::Hit(value) => {
                    self.stats.front_hits += 1;
                    self.stats.hits += 1;
                    return Ok(Some(value));
                }
                FrontLookup::Stale => self.stats.front_stale_rejected += 1,
                FrontLookup::Miss => {}
            }
        }
        // Replica fast path. Phase-1 replication only covers the default
        // tenant (replica ops speak raw keys), so tenant clients always
        // read from the home worker.
        if self.tenant.is_default() {
            if let Some(target) = self.pick_replica(key) {
                let (_cachelet, home) = self
                    .mapping
                    .route(key)
                    .ok_or(ClientError::RetriesExhausted)?;
                if target != home {
                    let start = Instant::now();
                    match self
                        .transport
                        .call(target, Request::ReplicaRead { key: key.to_vec() })
                    {
                        Ok(Response::Value { value, .. }) => {
                            if self.front.is_some() {
                                self.note_latency(target, start.elapsed());
                            }
                            self.stats.hits += 1;
                            self.stats.replica_reads += 1;
                            self.front_admit(key, &value);
                            return Ok(Some(value));
                        }
                        _ => {
                            // Replica expired or unreachable: forget and fall
                            // through to the home worker.
                            self.replicas.remove(key);
                        }
                    }
                }
            }
        }
        self.get_home(key)
    }

    /// Picks the read target for a key with replica routing state.
    /// Sketch-confirmed hot keys use power-of-two-choices over the
    /// target set, keyed by each target's latency EWMA (an unsampled
    /// target scores zero and gets explored); everything else keeps the
    /// round-robin rotation.
    fn pick_replica(&mut self, key: &[u8]) -> Option<WorkerAddr> {
        let set = self.replicas.get(key)?;
        let n = set.targets.len();
        let hot = self.front.as_ref().is_some_and(|f| f.is_hot(key));
        if hot && n > 1 {
            let targets = set.targets.clone();
            let a = (self.rng_next() % n as u64) as usize;
            let mut b = (self.rng_next() % (n as u64 - 1)) as usize;
            if b >= a {
                b += 1;
            }
            let load = |w: &WorkerAddr| self.latency_ewma_us.get(w).copied().unwrap_or(0);
            let pick = if load(&targets[a]) <= load(&targets[b]) {
                a
            } else {
                b
            };
            return Some(targets[pick]);
        }
        let set = self.replicas.get_mut(key).expect("present above");
        let target = set.targets[set.next % n];
        set.next += 1;
        Some(target)
    }

    fn get_home(&mut self, key: &[u8]) -> Result<Option<Value>, ClientError> {
        let deadline = Instant::now() + self.op_budget;
        let mut last_err = ClientError::RetriesExhausted;
        let mut handoffs = Handoffs::default();
        for _ in 0..self.max_retries {
            let Some(left) = Self::remaining(deadline) else {
                break;
            };
            let (cachelet, worker) = self
                .mapping
                .route(key)
                .ok_or(ClientError::RetriesExhausted)?;
            let start = Instant::now();
            let resp = match self.transport.call_with_deadline(
                worker,
                Request::Get {
                    cachelet,
                    key: key.to_vec(),
                }
                .for_tenant(self.tenant),
                left,
            ) {
                Ok(r) => r,
                Err(e) => {
                    // GET is idempotent: retry against refreshed routing
                    // within the remaining budget. The endpoint may have
                    // reset or the bucket may have moved, so drop any
                    // replica routing for the key and resync the mapping.
                    last_err = ClientError::Transport(e);
                    self.stats.transport_retries += 1;
                    self.replicas.remove(key);
                    self.resync_mapping();
                    continue;
                }
            };
            if self.front.is_some() {
                self.note_latency(worker, start.elapsed());
            }
            match resp {
                Response::Value { value, replicas } => {
                    self.stats.hits += 1;
                    if !replicas.is_empty() {
                        let mut targets = vec![worker];
                        targets.extend(replicas);
                        self.replicas
                            .insert(key.to_vec(), ReplicaSet { targets, next: 1 });
                    }
                    self.front_admit(key, &value);
                    return Ok(Some(value));
                }
                Response::NotFound => return Ok(None),
                Response::Moved {
                    cachelet,
                    new_owner,
                } => {
                    self.follow_moved(&mut handoffs, worker, cachelet, new_owner, deadline);
                    continue;
                }
                Response::Fail { status, message } => match status {
                    Status::Busy => {
                        self.stats.busy_retries += 1;
                        continue;
                    }
                    Status::NotOwner => {
                        // Stale mapping with no forward, or a handoff
                        // still in flight.
                        self.on_not_owner(&mut handoffs, deadline);
                        continue;
                    }
                    _ => return Err(ClientError::rejected(status, message)),
                },
                other => return Err(ClientError::unexpected(&other)),
            }
        }
        self.stats.failures += 1;
        Err(last_err)
    }

    /// Batched lookup: groups keys by owner worker and issues pipelined
    /// `call_many` batches of GETs per worker — one request flush and
    /// one response drain per batch, the paper's MultiGET amortization
    /// (§4.1). Batches are capped at the builder's `multiget_batch`
    /// (default 100, the paper's batching factor). Results are
    /// positional (`None` = miss). Per-operation failures — redirects,
    /// mid-migration buckets, a connection dropped mid-batch — fall back
    /// to the singleton path for the affected keys only, instead of
    /// poisoning the whole batch.
    pub fn multi_get(&mut self, keys: &[Key]) -> Result<Vec<Option<Value>>, ClientError> {
        self.stats.gets += keys.len() as u64;
        let mut by_worker: HashMap<WorkerAddr, Vec<(usize, mbal_core::types::CacheletId, Key)>> =
            HashMap::new();
        for (i, key) in keys.iter().enumerate() {
            let (cachelet, worker) = self
                .mapping
                .route(key)
                .ok_or(ClientError::RetriesExhausted)?;
            by_worker
                .entry(worker)
                .or_default()
                .push((i, cachelet, key.clone()));
        }
        let mut out = vec![None; keys.len()];
        let cap = self.multiget_batch.max(1);
        for (worker, batch) in by_worker {
            for chunk in batch.chunks(cap) {
                let reqs: Vec<Request> = chunk
                    .iter()
                    .map(|(_, c, k)| {
                        Request::Get {
                            cachelet: *c,
                            key: k.clone(),
                        }
                        .for_tenant(self.tenant)
                    })
                    .collect();
                let results = self.transport.call_many(worker, reqs, self.op_budget);
                for ((i, _, k), result) in chunk.iter().zip(results) {
                    match result {
                        Ok(Response::Value { value, replicas }) => {
                            self.stats.hits += 1;
                            if !replicas.is_empty() {
                                let mut targets = vec![worker];
                                targets.extend(replicas);
                                self.replicas
                                    .insert(k.clone(), ReplicaSet { targets, next: 1 });
                            }
                            out[*i] = Some(value);
                        }
                        Ok(Response::NotFound) => out[*i] = None,
                        Ok(Response::Moved {
                            cachelet,
                            new_owner,
                        }) => {
                            // Singleton path follows the redirect chain.
                            self.apply_moved(cachelet, new_owner);
                            out[*i] = self.get_home(k)?;
                        }
                        Ok(Response::Fail { .. }) | Err(_) => {
                            out[*i] = self.get_home(k)?;
                        }
                        Ok(other) => return Err(ClientError::unexpected(&other)),
                    }
                }
            }
        }
        Ok(out)
    }

    /// The store-family entry point: one call covers `set`, `add`,
    /// `replace`, `append`, and `prepend`, with or without expiry, and
    /// answers a typed [`StoreOutcome`] instead of a bare bool.
    ///
    /// Retry semantics follow the verb: [`StoreMode::Set`] is idempotent
    /// (last-writer-wins on the same value) and retries through transport
    /// errors within the budget; the conditional and concatenating modes
    /// fail fast on transport errors because a lost *ack* may still have
    /// mutated state.
    pub fn set_opts(
        &mut self,
        key: &[u8],
        value: &[u8],
        opts: SetOptions,
    ) -> Result<StoreOutcome, ClientError> {
        self.stats.sets += 1;
        // A cached replica set must not keep serving the pre-write value
        // after this write is acknowledged (read-your-writes): route
        // subsequent reads back to the home worker until the server
        // piggybacks a fresh replica set. The front cache drops the key
        // for the same reason.
        self.replicas.remove(key);
        self.front_invalidate(key);
        match opts.mode {
            StoreMode::Set => self.set_unconditional(key, value, opts.expiry_ms),
            StoreMode::Add => self.cond_store(key, value, opts.expiry_ms, true),
            StoreMode::Replace => self.cond_store(key, value, opts.expiry_ms, false),
            StoreMode::Append => self.concat_op(key, value, false),
            StoreMode::Prepend => self.concat_op(key, value, true),
        }
    }

    fn set_unconditional(
        &mut self,
        key: &[u8],
        value: &[u8],
        expiry_ms: u64,
    ) -> Result<StoreOutcome, ClientError> {
        // Copy the caller's slice once into a refcounted [`Value`]; every
        // retry below is then a refcount bump, not another payload copy.
        let value = Value::copy_from_slice(value);
        let deadline = Instant::now() + self.op_budget;
        let mut last_err = ClientError::RetriesExhausted;
        let mut handoffs = Handoffs::default();
        for _ in 0..self.max_retries {
            let Some(left) = Self::remaining(deadline) else {
                break;
            };
            let (cachelet, worker) = self
                .mapping
                .route(key)
                .ok_or(ClientError::RetriesExhausted)?;
            let resp = match self.transport.call_with_deadline(
                worker,
                Request::Set {
                    cachelet,
                    key: key.to_vec(),
                    value: value.clone(),
                    expiry_ms,
                }
                .for_tenant(self.tenant),
                left,
            ) {
                Ok(r) => r,
                Err(e) => {
                    // SET is idempotent (last-writer-wins on the same
                    // value): safe to re-send within the budget even if
                    // the lost frame was actually applied.
                    last_err = ClientError::Transport(e);
                    self.stats.transport_retries += 1;
                    self.resync_mapping();
                    continue;
                }
            };
            match resp {
                Response::Stored => return Ok(StoreOutcome::Stored),
                Response::Moved {
                    cachelet,
                    new_owner,
                } => {
                    self.follow_moved(&mut handoffs, worker, cachelet, new_owner, deadline);
                    continue;
                }
                Response::Fail { status, message } => match status {
                    Status::Busy => {
                        self.stats.busy_retries += 1;
                        continue;
                    }
                    Status::NotOwner => {
                        self.on_not_owner(&mut handoffs, deadline);
                        continue;
                    }
                    _ => return Err(ClientError::rejected(status, message)),
                },
                other => return Err(ClientError::unexpected(&other)),
            }
        }
        self.stats.failures += 1;
        Err(last_err)
    }

    /// Shared retry loop for single-key write-family operations: routes,
    /// follows `Moved`, retries `Busy`, resyncs on `NotOwner`. The
    /// `request` closure builds the request for the current routing;
    /// `accept` translates terminal responses.
    ///
    /// Transport errors are **not** retried here: `add`, `replace`,
    /// `concat`, `incr`, and `touch` are not idempotent — a lost *ack*
    /// may still have mutated state, and blindly re-sending would e.g.
    /// double-apply an increment. The application owns that decision.
    /// Every attempt still draws its deadline from the shared budget.
    fn write_op<T>(
        &mut self,
        key: &[u8],
        mut request: impl FnMut(mbal_core::types::CacheletId) -> Request,
        mut accept: impl FnMut(Response) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let deadline = Instant::now() + self.op_budget;
        let mut handoffs = Handoffs::default();
        for _ in 0..self.max_retries {
            let Some(left) = Self::remaining(deadline) else {
                break;
            };
            let (cachelet, worker) = self
                .mapping
                .route(key)
                .ok_or(ClientError::RetriesExhausted)?;
            let resp = self
                .transport
                .call_with_deadline(worker, request(cachelet).for_tenant(self.tenant), left)
                .map_err(ClientError::Transport)?;
            match resp {
                Response::Moved {
                    cachelet,
                    new_owner,
                } => {
                    self.follow_moved(&mut handoffs, worker, cachelet, new_owner, deadline);
                    continue;
                }
                Response::Fail { status, message } => match status {
                    Status::Busy => {
                        self.stats.busy_retries += 1;
                        continue;
                    }
                    Status::NotOwner => {
                        self.on_not_owner(&mut handoffs, deadline);
                        continue;
                    }
                    _ => {
                        return accept(Response::Fail { status, message });
                    }
                },
                other => return accept(other),
            }
        }
        self.stats.failures += 1;
        Err(ClientError::RetriesExhausted)
    }

    /// Conditional store: `add` (`if_absent`) or `replace`.
    fn cond_store(
        &mut self,
        key: &[u8],
        value: &[u8],
        expiry_ms: u64,
        if_absent: bool,
    ) -> Result<StoreOutcome, ClientError> {
        let value = Value::copy_from_slice(value);
        self.write_op(
            key,
            |cachelet| {
                if if_absent {
                    Request::Add {
                        cachelet,
                        key: key.to_vec(),
                        value: value.clone(),
                        expiry_ms,
                    }
                } else {
                    Request::Replace {
                        cachelet,
                        key: key.to_vec(),
                        value: value.clone(),
                        expiry_ms,
                    }
                }
            },
            |resp| match resp {
                Response::Stored => Ok(StoreOutcome::Stored),
                Response::Fail {
                    status: Status::Exists,
                    ..
                } => Ok(StoreOutcome::Exists),
                Response::NotFound => Ok(StoreOutcome::NotStored),
                Response::Fail { status, message } => Err(ClientError::rejected(status, message)),
                other => Err(ClientError::unexpected(&other)),
            },
        )
    }

    fn concat_op(
        &mut self,
        key: &[u8],
        bytes: &[u8],
        front: bool,
    ) -> Result<StoreOutcome, ClientError> {
        let bytes = Value::copy_from_slice(bytes);
        self.write_op(
            key,
            |cachelet| Request::Concat {
                cachelet,
                key: key.to_vec(),
                value: bytes.clone(),
                front,
            },
            |resp| match resp {
                Response::Stored => Ok(StoreOutcome::Stored),
                Response::NotFound => Ok(StoreOutcome::NotStored),
                Response::Fail { status, message } => Err(ClientError::rejected(status, message)),
                other => Err(ClientError::unexpected(&other)),
            },
        )
    }

    /// Increments an ASCII-decimal counter; `Ok(None)` on a miss.
    pub fn incr(&mut self, key: &[u8], delta: u64) -> Result<Option<u64>, ClientError> {
        self.counter_op(key, delta as i64)
    }

    /// Decrements a counter, saturating at zero; `Ok(None)` on a miss.
    pub fn decr(&mut self, key: &[u8], delta: u64) -> Result<Option<u64>, ClientError> {
        self.counter_op(key, -(delta as i64))
    }

    fn counter_op(&mut self, key: &[u8], delta: i64) -> Result<Option<u64>, ClientError> {
        self.stats.sets += 1;
        self.front_invalidate(key);
        self.write_op(
            key,
            |cachelet| Request::Incr {
                cachelet,
                key: key.to_vec(),
                delta,
            },
            |resp| match resp {
                Response::Counter { value } => Ok(Some(value)),
                Response::NotFound => Ok(None),
                Response::Fail { status, message } => Err(ClientError::rejected(status, message)),
                other => Err(ClientError::unexpected(&other)),
            },
        )
    }

    /// Refreshes the TTL of an existing key: [`StoreOutcome::Stored`] on
    /// success, [`StoreOutcome::Missed`] when the key is absent.
    pub fn touch_opts(&mut self, key: &[u8], expiry_ms: u64) -> Result<StoreOutcome, ClientError> {
        // Conservative: a TTL change can shorten the entry's server-side
        // life below the front window.
        self.front_invalidate(key);
        self.write_op(
            key,
            |cachelet| Request::Touch {
                cachelet,
                key: key.to_vec(),
                expiry_ms,
            },
            |resp| match resp {
                Response::Touched => Ok(StoreOutcome::Stored),
                Response::NotFound => Ok(StoreOutcome::Missed),
                Response::Fail { status, message } => Err(ClientError::rejected(status, message)),
                other => Err(ClientError::unexpected(&other)),
            },
        )
    }

    /// Deletes `key`.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool, ClientError> {
        self.stats.deletes += 1;
        self.replicas.remove(key);
        self.front_invalidate(key);
        let deadline = Instant::now() + self.op_budget;
        let mut last_err = ClientError::RetriesExhausted;
        let mut handoffs = Handoffs::default();
        for _ in 0..self.max_retries {
            let Some(left) = Self::remaining(deadline) else {
                break;
            };
            let (cachelet, worker) = self
                .mapping
                .route(key)
                .ok_or(ClientError::RetriesExhausted)?;
            let resp = match self.transport.call_with_deadline(
                worker,
                Request::Delete {
                    cachelet,
                    key: key.to_vec(),
                }
                .for_tenant(self.tenant),
                left,
            ) {
                Ok(r) => r,
                Err(e) => {
                    // DELETE is idempotent: a replay of an applied delete
                    // just reports NotFound.
                    last_err = ClientError::Transport(e);
                    self.stats.transport_retries += 1;
                    self.resync_mapping();
                    continue;
                }
            };
            match resp {
                Response::Deleted => return Ok(true),
                Response::NotFound => return Ok(false),
                Response::Moved {
                    cachelet,
                    new_owner,
                } => {
                    self.follow_moved(&mut handoffs, worker, cachelet, new_owner, deadline);
                    continue;
                }
                Response::Fail {
                    status: Status::NotOwner,
                    ..
                } => {
                    self.on_not_owner(&mut handoffs, deadline);
                    continue;
                }
                Response::Fail { status, message } => {
                    return Err(ClientError::rejected(status, message))
                }
                other => return Err(ClientError::unexpected(&other)),
            }
        }
        self.stats.failures += 1;
        Err(last_err)
    }

    /// Number of keys with client-side replica routing state.
    pub fn replicated_keys(&self) -> usize {
        self.replicas.len()
    }

    /// The front tier, when one was configured (diagnostics, tests).
    pub fn front_cache(&self) -> Option<&FrontCache> {
        self.front.as_ref()
    }

    /// Fetches the server-side stats dump from one worker (the memcached
    /// `stats` analog). With `reset: true` the worker zeroes its counters
    /// and latency histograms after snapshotting (`stats reset`); gauges
    /// describe current state and are left alone.
    pub fn worker_stats(
        &mut self,
        addr: WorkerAddr,
        reset: bool,
    ) -> Result<StatsReport, ClientError> {
        let resp = self
            .transport
            .call(addr, Request::Stats { reset })
            .map_err(ClientError::Transport)?;
        match resp {
            Response::StatsBlob { payload } => {
                serde_json::from_slice(&payload).map_err(|e| ClientError::Rejected {
                    status: Status::Error,
                    message: format!("bad stats payload: {e}"),
                })
            }
            Response::Fail { status, message } => Err(ClientError::rejected(status, message)),
            other => Err(ClientError::unexpected(&other)),
        }
    }

    /// Fetches stats from every worker in the client's mapping table, in
    /// worker-address order. Workers that fail to answer are skipped.
    pub fn server_stats(&mut self, reset: bool) -> Result<Vec<StatsReport>, ClientError> {
        let workers = self.mapping.workers();
        let mut out = Vec::with_capacity(workers.len());
        for w in workers {
            if let Ok(report) = self.worker_stats(w, reset) {
                out.push(report);
            }
        }
        if out.is_empty() {
            return Err(ClientError::RetriesExhausted);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbal_ring::ConsistentRing;
    use mbal_server::transport::serial_call_many;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// A coordinator whose mapping never changes.
    struct StaticCoord(MappingTable);

    impl CoordinatorLink for StaticCoord {
        fn heartbeat(&self, version: u64) -> HeartbeatReply {
            HeartbeatReply {
                version,
                deltas: Vec::new(),
                full_refetch: false,
            }
        }

        fn full_table(&self) -> MappingTable {
            self.0.clone()
        }
    }

    /// Records every per-attempt deadline the client hands the transport
    /// and times out the first `fail_first` calls.
    struct FlakyTransport {
        deadlines: Mutex<Vec<Duration>>,
        fail_first: AtomicUsize,
    }

    impl FlakyTransport {
        fn recorded(&self) -> Vec<Duration> {
            self.deadlines.lock().unwrap().clone()
        }
    }

    impl Transport for FlakyTransport {
        fn call_many(
            &self,
            addr: WorkerAddr,
            reqs: Vec<Request>,
            deadline: Duration,
        ) -> Vec<Result<Response, TransportError>> {
            serial_call_many(self, addr, reqs, deadline)
        }

        fn cast(&self, addr: WorkerAddr, req: Request) {
            let _ = self.call(addr, req);
        }

        fn call(&self, addr: WorkerAddr, req: Request) -> Result<Response, TransportError> {
            self.call_with_deadline(addr, req, DEFAULT_DEADLINE)
        }

        fn call_with_deadline(
            &self,
            addr: WorkerAddr,
            req: Request,
            deadline: Duration,
        ) -> Result<Response, TransportError> {
            self.deadlines.lock().unwrap().push(deadline);
            if self.fail_first.load(Ordering::SeqCst) > 0 {
                self.fail_first.fetch_sub(1, Ordering::SeqCst);
                return Err(TransportError::Timeout(addr));
            }
            Ok(match req {
                Request::Get { .. } => Response::NotFound,
                Request::Set { .. } | Request::Add { .. } => Response::Stored,
                Request::Delete { .. } => Response::Deleted,
                _ => Response::NotFound,
            })
        }
    }

    fn client_with_budget(fail_first: usize, budget: Duration) -> (Client, Arc<FlakyTransport>) {
        let mut ring = ConsistentRing::new();
        ring.add_worker(WorkerAddr::new(0, 0));
        let mapping = MappingTable::build(&ring, 2, 16);
        let transport = Arc::new(FlakyTransport {
            deadlines: Mutex::new(Vec::new()),
            fail_first: AtomicUsize::new(fail_first),
        });
        let client = Client::builder(transport.clone(), Arc::new(StaticCoord(mapping)))
            .op_budget(budget)
            .build();
        (client, transport)
    }

    fn client_with(fail_first: usize) -> (Client, Arc<FlakyTransport>) {
        client_with_budget(fail_first, DEFAULT_DEADLINE)
    }

    #[test]
    fn retries_draw_from_one_shared_budget() {
        let (mut client, transport) = client_with_budget(3, Duration::from_secs(5));
        assert!(client.get(b"k").expect("succeeds on attempt 4").is_none());
        let deadlines = transport.recorded();
        assert_eq!(deadlines.len(), 4, "three timeouts then one success");
        assert!(deadlines[0] <= Duration::from_secs(5));
        for pair in deadlines.windows(2) {
            assert!(
                pair[1] <= pair[0],
                "a retry was granted more deadline than its predecessor: {deadlines:?}"
            );
        }
        assert_eq!(client.stats().transport_retries, 3);
        assert_eq!(client.stats().failures, 0);
    }

    #[test]
    fn exhausted_budget_fails_without_touching_the_wire() {
        let (mut client, transport) = client_with_budget(0, Duration::ZERO);
        assert!(client.get(b"k").is_err());
        assert!(
            transport.recorded().is_empty(),
            "no transport call may be issued with a spent budget"
        );
        assert_eq!(client.stats().failures, 1);
    }

    #[test]
    fn non_idempotent_writes_fail_fast_on_transport_errors() {
        let (mut client, transport) = client_with(1);
        let res = client.set_opts(b"k", b"v", SetOptions::add());
        assert!(
            matches!(res, Err(ClientError::Transport(_))),
            "add must not be blindly re-sent: {res:?}"
        );
        assert_eq!(transport.recorded().len(), 1, "exactly one attempt");
        assert_eq!(client.stats().transport_retries, 0);
    }

    #[test]
    fn idempotent_delete_retries_within_budget() {
        let (mut client, transport) = client_with(2);
        assert!(client.delete(b"k").expect("succeeds on attempt 3"));
        assert_eq!(transport.recorded().len(), 3);
        assert_eq!(client.stats().transport_retries, 2);
    }

    #[test]
    fn set_drops_replica_routing_for_the_key() {
        let (mut client, _transport) = client_with(0);
        client.replicas.insert(
            b"k".to_vec(),
            ReplicaSet {
                targets: vec![WorkerAddr::new(0, 0)],
                next: 0,
            },
        );
        assert_eq!(client.replicated_keys(), 1);
        client
            .set_opts(b"k", b"v", SetOptions::new())
            .expect("set succeeds");
        assert_eq!(
            client.replicated_keys(),
            0,
            "a cached replica set must not serve the pre-set value"
        );
    }

    /// Answers each store verb with its characteristic refusal, so every
    /// [`StoreOutcome`] variant is exercised.
    struct RefusingTransport;

    impl Transport for RefusingTransport {
        fn call_many(
            &self,
            addr: WorkerAddr,
            reqs: Vec<Request>,
            deadline: Duration,
        ) -> Vec<Result<Response, TransportError>> {
            serial_call_many(self, addr, reqs, deadline)
        }

        fn cast(&self, addr: WorkerAddr, req: Request) {
            let _ = self.call(addr, req);
        }

        fn call(&self, addr: WorkerAddr, req: Request) -> Result<Response, TransportError> {
            self.call_with_deadline(addr, req, DEFAULT_DEADLINE)
        }

        fn call_with_deadline(
            &self,
            _addr: WorkerAddr,
            req: Request,
            _deadline: Duration,
        ) -> Result<Response, TransportError> {
            Ok(match req {
                Request::Set { .. } => Response::Stored,
                Request::Add { .. } => Response::Fail {
                    status: Status::Exists,
                    message: String::new(),
                },
                Request::Replace { .. } | Request::Concat { .. } | Request::Touch { .. } => {
                    Response::NotFound
                }
                _ => Response::NotFound,
            })
        }
    }

    fn refusing_client() -> Client {
        let mut ring = ConsistentRing::new();
        ring.add_worker(WorkerAddr::new(0, 0));
        let mapping = MappingTable::build(&ring, 2, 16);
        Client::builder(Arc::new(RefusingTransport), Arc::new(StaticCoord(mapping))).build()
    }

    #[test]
    fn store_outcomes_are_typed() {
        let mut c = refusing_client();
        assert_eq!(
            c.set_opts(b"k", b"v", SetOptions::new()).unwrap(),
            StoreOutcome::Stored
        );
        assert_eq!(
            c.set_opts(b"k", b"v", SetOptions::add()).unwrap(),
            StoreOutcome::Exists
        );
        assert_eq!(
            c.set_opts(b"k", b"v", SetOptions::replace()).unwrap(),
            StoreOutcome::NotStored
        );
        assert_eq!(
            c.set_opts(b"k", b"v", SetOptions::append()).unwrap(),
            StoreOutcome::NotStored
        );
        assert_eq!(
            c.set_opts(b"k", b"v", SetOptions::prepend()).unwrap(),
            StoreOutcome::NotStored
        );
        assert_eq!(c.touch_opts(b"k", 500).unwrap(), StoreOutcome::Missed);
        assert!(!StoreOutcome::Exists.is_stored());
        assert!(StoreOutcome::Stored.is_stored());
    }

    #[test]
    fn status_maps_into_client_error() {
        let e = ClientError::from(Status::OutOfMemory);
        assert_eq!(e.status(), Some(Status::OutOfMemory));
        match &e {
            ClientError::Rejected { message, .. } => {
                assert_eq!(message, Status::OutOfMemory.describe());
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // A server-sent message wins; an empty one falls back to the
        // canonical description.
        let kept = ClientError::rejected(Status::Error, "boom".into());
        assert_eq!(
            kept,
            ClientError::Rejected {
                status: Status::Error,
                message: "boom".into()
            }
        );
        let filled = ClientError::rejected(Status::Busy, String::new());
        assert_eq!(filled.status(), Some(Status::Busy));
        assert!(format!("{filled}").contains(Status::Busy.describe()));
    }

    #[test]
    fn builder_clamps_and_applies_options() {
        let mut ring = ConsistentRing::new();
        ring.add_worker(WorkerAddr::new(0, 0));
        let mapping = MappingTable::build(&ring, 2, 16);
        let transport = Arc::new(RefusingTransport);
        let c = Client::builder(transport, Arc::new(StaticCoord(mapping)))
            .op_budget(Duration::from_millis(250))
            .max_retries(0)
            .multiget_batch(0)
            .build();
        assert_eq!(c.op_budget, Duration::from_millis(250));
        assert_eq!(c.max_retries, 1, "retries clamp to at least one attempt");
        assert_eq!(c.multiget_batch, 1, "batch clamps to at least one key");
    }

    /// Counts heartbeats and never changes the mapping — a coordinator
    /// mid-rebalance whose move has not committed yet.
    struct CountingCoord {
        mapping: MappingTable,
        heartbeats: AtomicUsize,
    }

    impl CoordinatorLink for CountingCoord {
        fn heartbeat(&self, version: u64) -> HeartbeatReply {
            self.heartbeats.fetch_add(1, Ordering::SeqCst);
            HeartbeatReply {
                version,
                deltas: Vec::new(),
                full_refetch: false,
            }
        }

        fn full_table(&self) -> MappingTable {
            self.mapping.clone()
        }
    }

    /// Refuses everything with `NotOwner` — routing that never resolves.
    struct NotOwnerTransport;

    impl Transport for NotOwnerTransport {
        fn call_many(
            &self,
            addr: WorkerAddr,
            reqs: Vec<Request>,
            deadline: Duration,
        ) -> Vec<Result<Response, TransportError>> {
            serial_call_many(self, addr, reqs, deadline)
        }

        fn cast(&self, addr: WorkerAddr, req: Request) {
            let _ = self.call(addr, req);
        }

        fn call(&self, addr: WorkerAddr, req: Request) -> Result<Response, TransportError> {
            self.call_with_deadline(addr, req, DEFAULT_DEADLINE)
        }

        fn call_with_deadline(
            &self,
            _addr: WorkerAddr,
            _req: Request,
            _deadline: Duration,
        ) -> Result<Response, TransportError> {
            Ok(Response::Fail {
                status: Status::NotOwner,
                message: String::new(),
            })
        }
    }

    #[test]
    fn fruitless_resyncs_back_off_instead_of_hammering_the_coordinator() {
        let mut ring = ConsistentRing::new();
        ring.add_worker(WorkerAddr::new(0, 0));
        let mapping = MappingTable::build(&ring, 2, 16);
        let coord = Arc::new(CountingCoord {
            mapping,
            heartbeats: AtomicUsize::new(0),
        });
        let mut client = Client::builder(Arc::new(NotOwnerTransport), coord.clone())
            .poll_backoff(Duration::from_secs(30), Duration::from_secs(60))
            .build();
        assert!(client.get(b"k").is_err(), "every attempt is refused");
        assert_eq!(
            coord.heartbeats.load(Ordering::SeqCst),
            1,
            "the first fruitless poll opens the window; later retries wait"
        );
        assert_eq!(
            client.stats().backoff_skips,
            7,
            "the remaining attempts skip the poll"
        );
    }

    #[test]
    fn mapping_change_resets_poller_backoff() {
        struct RefetchCoord(MappingTable);

        impl CoordinatorLink for RefetchCoord {
            fn heartbeat(&self, version: u64) -> HeartbeatReply {
                HeartbeatReply {
                    version,
                    deltas: Vec::new(),
                    full_refetch: true,
                }
            }

            fn full_table(&self) -> MappingTable {
                self.0.clone()
            }
        }

        let mut ring = ConsistentRing::new();
        ring.add_worker(WorkerAddr::new(0, 0));
        let mapping = MappingTable::build(&ring, 2, 16);
        let mut client =
            Client::builder(Arc::new(NotOwnerTransport), Arc::new(RefetchCoord(mapping))).build();
        client.backoff_streak = 5;
        client.backoff_until = Some(Instant::now() + Duration::from_secs(60));
        assert_eq!(client.poll_coordinator(), 1, "full refetch is one change");
        assert_eq!(
            client.backoff_streak, 0,
            "a mapping change resets the streak"
        );
        assert!(client.backoff_until.is_none(), "and closes the window");
    }

    /// Worker `A` owns every cachelet in the client's mapping; `B` is
    /// where they are moving.
    const A: WorkerAddr = WorkerAddr::new(0, 0);
    const B: WorkerAddr = WorkerAddr::new(0, 1);

    /// How a scripted handoff looks from the client until it settles.
    #[derive(Clone, Copy)]
    enum Handoff {
        /// `A` forwards to `B`, which has not adopted the cachelet yet.
        NotAdopted,
        /// `A` and `B` each forward to the other.
        Cycle,
    }

    /// Plays one handoff for `window` after the first call (forever
    /// when `None`), then serves every op at its new owner `B`.
    struct HandoffTransport {
        handoff: Handoff,
        /// The window, and when its first call came.
        window: Mutex<(Option<Duration>, Option<Instant>)>,
        calls: AtomicUsize,
    }

    impl HandoffTransport {
        fn new(handoff: Handoff, window: Option<Duration>) -> Arc<Self> {
            Arc::new(Self {
                handoff,
                window: Mutex::new((window, None)),
                calls: AtomicUsize::new(0),
            })
        }

        /// Plays the handoff again, for `window` from the next call.
        fn restart(&self, window: Duration) {
            *self.window.lock().unwrap() = (Some(window), None);
        }

        fn settled(&self) -> bool {
            let (window, started) = &mut *self.window.lock().unwrap();
            let started = *started.get_or_insert_with(Instant::now);
            window.is_some_and(|w| started.elapsed() >= w)
        }
    }

    impl Transport for HandoffTransport {
        fn call(&self, addr: WorkerAddr, req: Request) -> Result<Response, TransportError> {
            self.call_with_deadline(addr, req, DEFAULT_DEADLINE)
        }

        fn call_with_deadline(
            &self,
            addr: WorkerAddr,
            req: Request,
            _deadline: Duration,
        ) -> Result<Response, TransportError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let cachelet = match req {
                Request::Get { cachelet, .. }
                | Request::Set { cachelet, .. }
                | Request::Add { cachelet, .. }
                | Request::Delete { cachelet, .. } => cachelet,
                other => panic!("unexpected request {other:?}"),
            };
            let moved = |new_owner| Response::Moved {
                cachelet,
                new_owner,
            };
            Ok(match (self.settled(), addr == B, self.handoff) {
                (true, true, _) => match req {
                    Request::Get { .. } => Response::Value {
                        value: b"v".to_vec().into(),
                        replicas: vec![],
                    },
                    Request::Delete { .. } => Response::Deleted,
                    _ => Response::Stored,
                },
                (_, false, _) => moved(B),
                (false, true, Handoff::NotAdopted) => Response::Fail {
                    status: Status::NotOwner,
                    message: String::new(),
                },
                (false, true, Handoff::Cycle) => moved(A),
            })
        }

        fn call_many(
            &self,
            addr: WorkerAddr,
            reqs: Vec<Request>,
            deadline: Duration,
        ) -> Vec<Result<Response, TransportError>> {
            serial_call_many(self, addr, reqs, deadline)
        }

        fn cast(&self, addr: WorkerAddr, req: Request) {
            let _ = self.call(addr, req);
        }
    }

    fn handoff_client(transport: Arc<HandoffTransport>, budget: Duration) -> Client {
        let mut ring = ConsistentRing::new();
        ring.add_worker(A);
        let mapping = MappingTable::build(&ring, 2, 16);
        Client::builder(transport, Arc::new(StaticCoord(mapping)))
            .op_budget(budget)
            .build()
    }

    #[test]
    fn not_owner_after_a_redirect_waits_for_the_adopt() {
        let window = Duration::from_millis(2);
        for op in ["get", "set", "delete", "add"] {
            let transport = HandoffTransport::new(Handoff::NotAdopted, Some(window));
            let mut c = handoff_client(transport.clone(), DEFAULT_DEADLINE);
            let started = Instant::now();
            match op {
                "get" => assert_eq!(c.get(b"k").expect(op), Some(b"v".to_vec().into())),
                "set" => assert!(c
                    .set_opts(b"k", b"v", SetOptions::new())
                    .expect(op)
                    .is_stored()),
                "add" => assert!(c
                    .set_opts(b"k", b"v", SetOptions::add())
                    .expect(op)
                    .is_stored()),
                _ => assert!(c.delete(b"k").expect(op)),
            }
            assert!(
                started.elapsed() >= window,
                "{op} succeeded inside the window"
            );
            assert!(c.stats().handoff_waits > 0, "{op}");
            assert!(
                transport.calls.load(Ordering::SeqCst) <= 8,
                "{op} spent more than its retries"
            );
        }
    }

    #[test]
    fn a_redirect_cycle_waits_until_it_resolves() {
        let window = Duration::from_millis(2);
        let transport = HandoffTransport::new(Handoff::Cycle, Some(window));
        let mut c = handoff_client(transport, DEFAULT_DEADLINE);
        assert_eq!(c.get(b"k").expect("get"), Some(b"v".to_vec().into()));
        assert!(c.stats().handoff_waits > 0);
        let transport = HandoffTransport::new(Handoff::Cycle, Some(window));
        let mut c = handoff_client(transport, DEFAULT_DEADLINE);
        assert!(c
            .set_opts(b"k", b"v", SetOptions::new())
            .expect("set")
            .is_stored());
    }

    #[test]
    fn a_long_handoff_does_not_slow_the_next_one() {
        let transport = HandoffTransport::new(Handoff::Cycle, Some(Duration::from_millis(50)));
        let mut c = handoff_client(transport.clone(), DEFAULT_DEADLINE);
        assert_eq!(c.get(b"k").expect("get"), Some(b"v".to_vec().into()));
        let long_waits = c.stats().handoff_waits;
        assert!(long_waits >= 3, "{long_waits} waits");
        // The next handoff's waits start again from the 2 ms base, not
        // from where the long one left off (32 ms or more).
        transport.restart(Duration::from_millis(2));
        let started = Instant::now();
        assert_eq!(c.get(b"k").expect("get"), Some(b"v".to_vec().into()));
        let took = started.elapsed();
        assert!(took < Duration::from_millis(25), "took {took:?}");
        assert!(c.stats().handoff_waits > long_waits);
    }

    #[test]
    fn an_endless_redirect_cycle_fails_at_the_op_budget() {
        let budget = Duration::from_millis(50);
        let transport = HandoffTransport::new(Handoff::Cycle, None);
        let mut c = handoff_client(transport, budget);
        let started = Instant::now();
        assert_eq!(c.get(b"k"), Err(ClientError::RetriesExhausted));
        let took = started.elapsed();
        assert!(took >= budget, "gave up before the budget: {took:?}");
        assert!(took < budget * 4, "overran the budget: {took:?}");
        assert_eq!(c.stats().failures, 1);
    }

    /// Asserts every data op arrives wrapped for tenant 7 and answers
    /// the inner verb's happy response.
    struct TenantCheckingTransport;

    impl Transport for TenantCheckingTransport {
        fn call_many(
            &self,
            addr: WorkerAddr,
            reqs: Vec<Request>,
            deadline: Duration,
        ) -> Vec<Result<Response, TransportError>> {
            serial_call_many(self, addr, reqs, deadline)
        }

        fn cast(&self, addr: WorkerAddr, req: Request) {
            let _ = self.call(addr, req);
        }

        fn call(&self, addr: WorkerAddr, req: Request) -> Result<Response, TransportError> {
            self.call_with_deadline(addr, req, DEFAULT_DEADLINE)
        }

        fn call_with_deadline(
            &self,
            _addr: WorkerAddr,
            req: Request,
            _deadline: Duration,
        ) -> Result<Response, TransportError> {
            let (tenant, inner) = req.tenant_parts();
            assert_eq!(
                tenant,
                TenantId(7),
                "every data op must carry the tenant tag: {inner:?}"
            );
            Ok(match inner {
                Request::Get { .. } => Response::NotFound,
                Request::Set { .. } | Request::Add { .. } | Request::Concat { .. } => {
                    Response::Stored
                }
                Request::Delete { .. } => Response::Deleted,
                Request::Touch { .. } => Response::Touched,
                _ => Response::NotFound,
            })
        }
    }

    #[test]
    fn tenant_client_tags_every_data_op() {
        let mut ring = ConsistentRing::new();
        ring.add_worker(WorkerAddr::new(0, 0));
        let mapping = MappingTable::build(&ring, 2, 16);
        let mut c = Client::builder(
            Arc::new(TenantCheckingTransport),
            Arc::new(StaticCoord(mapping)),
        )
        .tenant(TenantId(7))
        .build();
        assert_eq!(c.get(b"k").unwrap(), None);
        assert!(c
            .set_opts(b"k", b"v", SetOptions::new())
            .unwrap()
            .is_stored());
        assert!(c
            .set_opts(b"k", b"v", SetOptions::add())
            .unwrap()
            .is_stored());
        assert_eq!(c.touch_opts(b"k", 9).unwrap(), StoreOutcome::Stored);
        assert!(c.delete(b"k").unwrap());
        let got = c.multi_get(&[b"a".to_vec(), b"b".to_vec()]).unwrap();
        assert_eq!(got, vec![None, None]);
    }

    #[test]
    fn tenant_client_skips_the_replica_fast_path() {
        let mut ring = ConsistentRing::new();
        ring.add_worker(WorkerAddr::new(0, 0));
        let mapping = MappingTable::build(&ring, 2, 16);
        let mut c = Client::builder(
            Arc::new(TenantCheckingTransport),
            Arc::new(StaticCoord(mapping)),
        )
        .tenant(TenantId(7))
        .build();
        // Even with poisoned replica routing state, a tenant client must
        // go to the home worker (a ReplicaRead would trip the transport's
        // tenant assertion, since replica ops are never wrapped).
        c.replicas.insert(
            b"k".to_vec(),
            ReplicaSet {
                targets: vec![WorkerAddr::new(0, 0), WorkerAddr::new(9, 9)],
                next: 1,
            },
        );
        assert_eq!(c.get(b"k").unwrap(), None);
        assert_eq!(c.stats().replica_reads, 0);
    }

    #[test]
    fn unknown_tenant_surfaces_as_a_typed_rejection() {
        struct UnknownTenantTransport;

        impl Transport for UnknownTenantTransport {
            fn call_many(
                &self,
                addr: WorkerAddr,
                reqs: Vec<Request>,
                deadline: Duration,
            ) -> Vec<Result<Response, TransportError>> {
                serial_call_many(self, addr, reqs, deadline)
            }

            fn cast(&self, addr: WorkerAddr, req: Request) {
                let _ = self.call(addr, req);
            }

            fn call(&self, addr: WorkerAddr, req: Request) -> Result<Response, TransportError> {
                self.call_with_deadline(addr, req, DEFAULT_DEADLINE)
            }

            fn call_with_deadline(
                &self,
                _addr: WorkerAddr,
                _req: Request,
                _deadline: Duration,
            ) -> Result<Response, TransportError> {
                Ok(Response::Fail {
                    status: Status::UnknownTenant,
                    message: "tenant 9 is not admitted on this server".into(),
                })
            }
        }

        let mut ring = ConsistentRing::new();
        ring.add_worker(WorkerAddr::new(0, 0));
        let mapping = MappingTable::build(&ring, 2, 16);
        let mut c = Client::builder(
            Arc::new(UnknownTenantTransport),
            Arc::new(StaticCoord(mapping)),
        )
        .tenant(TenantId(9))
        .build();
        let err = c.set_opts(b"k", b"v", SetOptions::new()).unwrap_err();
        assert_eq!(err.status(), Some(Status::UnknownTenant));
        let err = c.get(b"k").unwrap_err();
        assert_eq!(
            err.status(),
            Some(Status::UnknownTenant),
            "an unadmitted tenant gets a typed error, not a dead session"
        );
    }

    /// Always answers GETs (home or replica) with `b"v"` and counts
    /// every wire call — the front tier's effect is visible as calls
    /// that never happen.
    struct ValueTransport {
        calls: AtomicUsize,
    }

    impl Transport for ValueTransport {
        fn call_many(
            &self,
            addr: WorkerAddr,
            reqs: Vec<Request>,
            deadline: Duration,
        ) -> Vec<Result<Response, TransportError>> {
            serial_call_many(self, addr, reqs, deadline)
        }

        fn cast(&self, addr: WorkerAddr, req: Request) {
            let _ = self.call(addr, req);
        }

        fn call(&self, addr: WorkerAddr, req: Request) -> Result<Response, TransportError> {
            self.call_with_deadline(addr, req, DEFAULT_DEADLINE)
        }

        fn call_with_deadline(
            &self,
            _addr: WorkerAddr,
            req: Request,
            _deadline: Duration,
        ) -> Result<Response, TransportError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            Ok(match req.tenant_parts().1 {
                Request::Get { .. } | Request::ReplicaRead { .. } => Response::Value {
                    value: b"v".to_vec().into(),
                    replicas: Vec::new(),
                },
                Request::Set { .. } => Response::Stored,
                Request::Delete { .. } => Response::Deleted,
                _ => Response::NotFound,
            })
        }
    }

    fn front_client(cfg: FrontCacheConfig) -> (Client, Arc<ValueTransport>) {
        let mut ring = ConsistentRing::new();
        ring.add_worker(WorkerAddr::new(0, 0));
        let mapping = MappingTable::build(&ring, 2, 16);
        let transport = Arc::new(ValueTransport {
            calls: AtomicUsize::new(0),
        });
        let client = Client::builder(transport.clone(), Arc::new(StaticCoord(mapping)))
            .front_cache(cfg)
            .build();
        (client, transport)
    }

    #[test]
    fn hot_keys_are_served_from_the_front_cache() {
        let (mut c, t) = front_client(
            FrontCacheConfig::default()
                .promote_min_count(3)
                .ttl(Duration::from_secs(60)),
        );
        // GETs 1–2 are below the admission threshold; GET 3 crosses it
        // and the fetched value is admitted.
        for _ in 0..3 {
            assert_eq!(c.get(b"hot").unwrap(), Some(b"v".to_vec().into()));
        }
        assert_eq!(c.stats().sketch_promotions, 1);
        let wire = t.calls.load(Ordering::SeqCst);
        assert_eq!(c.get(b"hot").unwrap(), Some(b"v".to_vec().into()));
        assert_eq!(
            t.calls.load(Ordering::SeqCst),
            wire,
            "a front hit must not touch the wire"
        );
        assert_eq!(c.stats().front_hits, 1);
        assert_eq!(c.stats().hits, 4, "front hits still count as hits");
    }

    #[test]
    fn cold_keys_never_enter_the_front_cache() {
        let (mut c, t) = front_client(FrontCacheConfig::default().promote_min_count(100));
        for i in 0..10u32 {
            c.get(format!("k{i}").as_bytes()).unwrap();
        }
        assert_eq!(c.stats().front_hits, 0);
        assert_eq!(c.stats().sketch_promotions, 0);
        assert_eq!(t.calls.load(Ordering::SeqCst), 10, "every GET went out");
    }

    #[test]
    fn local_writes_invalidate_the_front_cache() {
        let (mut c, t) = front_client(
            FrontCacheConfig::default()
                .promote_min_count(2)
                .ttl(Duration::from_secs(60)),
        );
        for _ in 0..3 {
            c.get(b"k").unwrap();
        }
        assert_eq!(c.stats().front_hits, 1, "cached after promotion");
        c.set_opts(b"k", b"w", SetOptions::new()).expect("set");
        let wire = t.calls.load(Ordering::SeqCst);
        c.get(b"k").unwrap();
        assert_eq!(
            t.calls.load(Ordering::SeqCst),
            wire + 1,
            "read-your-writes: the GET after a local write goes out"
        );
    }

    #[test]
    fn delete_and_counter_ops_invalidate_the_front_cache() {
        let (mut c, _t) = front_client(
            FrontCacheConfig::default()
                .promote_min_count(2)
                .ttl(Duration::from_secs(60)),
        );
        for _ in 0..3 {
            c.get(b"k").unwrap();
        }
        assert_eq!(c.front_cache().unwrap().len(), 1);
        c.delete(b"k").expect("delete");
        assert_eq!(c.front_cache().unwrap().len(), 0);
        for _ in 0..2 {
            c.get(b"k").unwrap();
        }
        assert_eq!(c.front_cache().unwrap().len(), 1);
        let _ = c.incr(b"k", 1);
        assert_eq!(c.front_cache().unwrap().len(), 0);
    }

    #[test]
    fn mapping_version_bump_rejects_front_entries() {
        let (mut c, t) = front_client(
            FrontCacheConfig::default()
                .promote_min_count(2)
                .ttl(Duration::from_secs(60)),
        );
        for _ in 0..3 {
            c.get(b"k").unwrap();
        }
        assert_eq!(c.stats().front_hits, 1);
        // A migration (even one that lands on the same owner) bumps the
        // mapping version; entries cached before it are suspect.
        c.apply_moved(mbal_core::types::CacheletId(0), WorkerAddr::new(0, 0));
        let wire = t.calls.load(Ordering::SeqCst);
        c.get(b"k").unwrap();
        assert_eq!(c.stats().front_stale_rejected, 1);
        assert_eq!(t.calls.load(Ordering::SeqCst), wire + 1, "refetched");
    }

    #[test]
    fn hot_replicated_keys_use_power_of_two_choices() {
        // TTL zero: every admitted entry is stale by its next read, so
        // each GET exercises target selection instead of the front cache.
        let (mut c, _t) = front_client(
            FrontCacheConfig::default()
                .promote_min_count(2)
                .ttl(Duration::ZERO),
        );
        c.replicas.insert(
            b"k".to_vec(),
            ReplicaSet {
                targets: vec![
                    WorkerAddr::new(0, 0),
                    WorkerAddr::new(1, 0),
                    WorkerAddr::new(2, 0),
                ],
                next: 0,
            },
        );
        for _ in 0..20 {
            assert_eq!(c.get(b"k").unwrap(), Some(b"v".to_vec().into()));
        }
        assert!(
            c.stats().replica_reads > 0,
            "p2c must route some hot reads to shadows: {:?}",
            c.stats()
        );
        assert!(
            !c.latency_ewma_us.is_empty(),
            "replica reads feed the latency signal"
        );
    }

    #[test]
    fn backoff_windows_grow_jittered_and_capped() {
        let (mut client, _t) = client_with(0);
        // Builder defaults: base 2 ms, cap 256 ms.
        let delays: Vec<Duration> = (0..12).map(|_| client.next_backoff_delay()).collect();
        for d in &delays {
            assert!(*d >= Duration::from_millis(1), "never below base/2: {d:?}");
            assert!(
                *d <= Duration::from_millis(256),
                "never above the cap: {d:?}"
            );
        }
        assert!(
            delays[0] <= Duration::from_millis(2),
            "streak 0 stays within the base window: {:?}",
            delays[0]
        );
        assert!(
            delays[11] >= Duration::from_millis(128),
            "a saturated streak fills at least half the cap: {:?}",
            delays[11]
        );
        assert!(
            delays.windows(2).any(|p| p[0] != p[1]),
            "jitter must vary the windows: {delays:?}"
        );
    }
}
