//! `mbal-loadgen`: an open-loop, coordinated-omission-safe load harness
//! driving the real client → transport → server stack.
//!
//! Unlike the closed-loop Criterion microbenchmarks in `benches/`, this
//! harness fixes the *arrival rate* up front: every operation gets an
//! intended start time on a pre-computed schedule, and its recorded
//! latency is `completion − intended start`, not `completion − actual
//! send`. A stalled server therefore inflates the tail of every queued
//! operation instead of silently pausing the generator — the classic
//! coordinated-omission correction (cf. wrk2/HdrHistogram).
//!
//! The harness runs a matrix of YCSB mixes × balancer phase
//! configurations (off, P1 only, P1+P2, all), each against a freshly
//! built cluster over the in-proc or TCP transport, and emits a
//! machine-readable report (`BENCH_results.json`) with MQPS,
//! p50/p99/p999 intended-latency percentiles, per-phase deltas against
//! the balancing-off baseline, and an exact client-vs-server operation
//! count reconciliation cross-checked through the `Stats` wire surface.

use mbal_balancer::coordinator::Coordinator;
use mbal_balancer::{BalancerConfig, PhaseSet};
use mbal_client::{Client, ClientStats, CoordinatorLink, FrontCacheConfig, SetOptions};
use mbal_core::clock::{Clock, RealClock};
use mbal_core::engine::EngineKind;
use mbal_core::types::{Key, ServerId, TenantId, WorkerAddr};
use mbal_membership::NodeState;
use mbal_ring::{ConsistentRing, MappingTable};
use mbal_scenario::{
    fleet_utilization, origin_value, Autoscaler, AutoscalerConfig, DiurnalCurve, ScaleDecision,
    ScenarioGen, ScenarioPack,
};
use mbal_server::tcp::{serve_tcp, TcpTransport};
use mbal_server::{InProcRegistry, Server, Transport};
use mbal_telemetry::{Counter, Histogram, LatencyPercentiles, WorkerSnapshot};
use mbal_tenant::{TenantDirectory, TenantQuota};
use mbal_workload::{Op, OpKind, Popularity, WorkloadGen, WorkloadSpec};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Which transport the generated load travels over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// The in-process channel registry (no serialization).
    InProc,
    /// Real TCP loopback through the batched frame codec.
    Tcp,
}

impl TransportMode {
    /// Stable lowercase label used in reports and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            TransportMode::InProc => "inproc",
            TransportMode::Tcp => "tcp",
        }
    }

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "inproc" | "in-proc" => Some(TransportMode::InProc),
            "tcp" => Some(TransportMode::Tcp),
            _ => None,
        }
    }
}

/// How multi-tenancy is configured for one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenancyMode {
    /// Single-tenant: no directory admitted, keys not namespaced.
    Off,
    /// Tenants admitted with quotas but the arbiter frozen: every
    /// tenant keeps its static midpoint budget for the whole run —
    /// the Memshare "static partitioning" baseline.
    Static,
    /// Tenants admitted and the epoch-driven memory arbiter live,
    /// moving budget toward the highest marginal hit-rate.
    Arbitrated,
}

impl TenancyMode {
    /// Stable lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            TenancyMode::Off => "off",
            TenancyMode::Static => "static",
            TenancyMode::Arbitrated => "arbitrated",
        }
    }
}

/// Which skew defenses are armed for one cell. The two defenses are
/// orthogonal — a client-side front tier for confirmed-hot keys and a
/// server-side bounded-load cap on per-worker cachelet load — so the
/// harness runs them as a 2×2 ablation against the identical schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseMode {
    /// No defenses: the skewed stream lands wherever the ring puts it.
    Off,
    /// Client front tier only (sketch-gated hot-key cache + p2c replica
    /// reads).
    Front,
    /// Bounded-load cap only (workers above `cap × mean` shed cachelets
    /// every balance epoch).
    Bounded,
    /// Both defenses armed.
    Both,
}

impl DefenseMode {
    /// The full 2×2 ablation, in report order.
    pub const ALL: [DefenseMode; 4] = [
        DefenseMode::Off,
        DefenseMode::Front,
        DefenseMode::Bounded,
        DefenseMode::Both,
    ];

    /// Stable lowercase label used in reports and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            DefenseMode::Off => "off",
            DefenseMode::Front => "front",
            DefenseMode::Bounded => "bounded",
            DefenseMode::Both => "both",
        }
    }

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" | "none" => Some(DefenseMode::Off),
            "front" | "front-cache" => Some(DefenseMode::Front),
            "bounded" | "load-cap" => Some(DefenseMode::Bounded),
            "both" | "all" => Some(DefenseMode::Both),
            _ => None,
        }
    }

    /// The front-cache configuration this mode arms, if any.
    pub fn front(self) -> Option<FrontCacheConfig> {
        match self {
            DefenseMode::Front | DefenseMode::Both => Some(FrontCacheConfig::new()),
            _ => None,
        }
    }

    /// The bounded-load cap this mode arms, if any.
    pub fn load_cap(self) -> Option<f64> {
        match self {
            DefenseMode::Bounded | DefenseMode::Both => Some(1.25),
            _ => None,
        }
    }
}

/// The workload mixes the harness knows how to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// YCSB-A analog (Table 4 WorkloadA): 100% read, zipfian.
    A,
    /// YCSB-B analog (Table 4 WorkloadB): 95% read, hotspot 95/5.
    B,
    /// YCSB-C analog (Table 4 WorkloadC): 50% read / 50% update, zipfian.
    C,
    /// WorkloadB whose hot set rotates to a disjoint key range halfway
    /// through the run, forcing the balancer to chase a moving target.
    HotShift,
    /// WorkloadC with every update carrying a 1–8 s TTL, exercising the
    /// engines' expiry and reclamation paths under churn.
    TtlHeavy,
    /// Three tenants with deliberately mismatched footprints and skews
    /// sharing one cluster (see [`tenant_plan`]): two well-behaved
    /// skewed readers and one noisy uniform write-flooder. Run once
    /// with static partitioning and once arbitrated to reproduce the
    /// Memshare comparison.
    MultiTenant,
    /// Flash-crowd skew: 95% reads drawn zipfian θ = 1.3, which piles
    /// over a quarter of all traffic on the single hottest key. The
    /// adversarial input for the skew defenses — [`run_matrix`] runs
    /// this mix once per [`DefenseMode`] against the identical
    /// schedule.
    ExtremeZipf,
    /// A trace-style scenario pack (`video-cdn`, `social-feed`,
    /// `session-store`): weighted value sizes and TTLs, `Touch`
    /// renewals, MultiGET bursts, and a rotating hot head, all drawn
    /// from seeded streams so the schedule stays digest-stable.
    Scenario(ScenarioPack),
}

impl Mix {
    /// Stable lowercase label used in reports and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            Mix::A => "ycsb-a",
            Mix::B => "ycsb-b",
            Mix::C => "ycsb-c",
            Mix::HotShift => "hotshift",
            Mix::TtlHeavy => "ttl-heavy",
            Mix::MultiTenant => "multi-tenant",
            Mix::ExtremeZipf => "extreme-zipf",
            Mix::Scenario(pack) => pack.label(),
        }
    }

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "a" | "ycsb-a" => Some(Mix::A),
            "b" | "ycsb-b" => Some(Mix::B),
            "c" | "ycsb-c" => Some(Mix::C),
            "hotshift" | "hotspot-shift" => Some(Mix::HotShift),
            "ttl" | "ttl-heavy" | "ttlheavy" => Some(Mix::TtlHeavy),
            "mt" | "multi-tenant" | "multitenant" => Some(Mix::MultiTenant),
            "extreme-zipf" | "xzipf" | "extremezipf" => Some(Mix::ExtremeZipf),
            _ => ScenarioPack::parse(s).map(Mix::Scenario),
        }
    }

    /// The workload specification for `records` keys. For
    /// [`Mix::MultiTenant`] this is only the representative
    /// quiet-tenant spec — real runs draw per-tenant specs from
    /// [`tenant_plan`].
    pub fn spec(self, records: u64) -> WorkloadSpec {
        match self {
            Mix::A => WorkloadSpec::workload_a(records),
            Mix::B | Mix::HotShift => WorkloadSpec::workload_b(records),
            Mix::C => WorkloadSpec::workload_c(records),
            Mix::TtlHeavy => WorkloadSpec::ttl_heavy(records),
            Mix::MultiTenant => tenant_plan(records)[0].spec.clone(),
            Mix::ExtremeZipf => WorkloadSpec::extreme_zipf(records),
            Mix::Scenario(pack) => pack.spec(records).base,
        }
    }
}

/// One tenant of the [`Mix::MultiTenant`] mix: identity, cluster-wide
/// quota, private workload, and whether it is the designated noisy
/// neighbour.
#[derive(Debug, Clone)]
pub struct TenantPlan {
    /// The tenant.
    pub tenant: TenantId,
    /// Cluster-wide reserved floor in bytes (divided across cache
    /// units when the directory is built).
    pub reserved_total: u64,
    /// Cluster-wide burstable ceiling in bytes.
    pub ceiling_total: u64,
    /// The tenant's private workload.
    pub spec: WorkloadSpec,
    /// Whether this is the deliberately antisocial tenant.
    pub noisy: bool,
}

/// The canonical three-tenant plan for `records` keys. All three get
/// the IDENTICAL quota, sized off the quiet footprint, so any outcome
/// difference is policy, not provisioning:
///
/// * tenant 1 — zipfian(0.99) 95%-read over `records/2` keys, 256 B
///   values: a steep miss-ratio curve that rewards extra memory.
/// * tenant 2 — hotspot(5%/95%) 95%-read over `records/2` keys: a
///   second well-behaved shape the arbiter must not starve.
/// * tenant 3 — uniform 50%-write over `records` keys with 1 KiB
///   values: a footprint several times its budget, flooding the
///   cluster with cold writes.
///
/// Under static partitioning everyone is frozen at the quota midpoint:
/// the quiet tenants fit with slack while the flooder thrashes. The
/// arbiter's job is to notice the slack (flat marginal curves) and
/// move it to whoever's curve is steepest — without ever pushing a
/// tenant below its reserved floor.
pub fn tenant_plan(records: u64) -> Vec<TenantPlan> {
    let records = records.max(64);
    let quiet_records = records / 2;
    // Approximate resident bytes per entry: 24 B key + value + engine
    // metadata. Only used for quota sizing, so precision is not load-
    // bearing.
    let entry_overhead = 104;
    let quiet_fp = quiet_records * (256 + entry_overhead);
    let reserved_total = (quiet_fp / 2).max(64 << 10);
    let ceiling_total = (quiet_fp * 3).max(512 << 10);
    let quiet = |popularity| WorkloadSpec {
        records: quiet_records,
        read_fraction: 0.95,
        popularity,
        key_len: 24,
        value_len: 256,
        ttl_range_ms: (0, 0),
    };
    vec![
        TenantPlan {
            tenant: TenantId(1),
            reserved_total,
            ceiling_total,
            spec: quiet(Popularity::Zipfian { theta: 0.99 }),
            noisy: false,
        },
        TenantPlan {
            tenant: TenantId(2),
            reserved_total,
            ceiling_total,
            spec: quiet(Popularity::Hotspot {
                hot_data: 0.05,
                hot_ops: 0.95,
            }),
            noisy: false,
        },
        TenantPlan {
            tenant: TenantId(3),
            reserved_total,
            ceiling_total,
            spec: WorkloadSpec {
                records,
                read_fraction: 0.5,
                popularity: Popularity::Uniform,
                key_len: 24,
                value_len: 1024,
                ttl_range_ms: (0, 0),
            },
            noisy: true,
        },
    ]
}

/// One cell of the harness configuration: a mix, a phase gate set, and
/// the shared pacing/topology parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Workload mix.
    pub mix: Mix,
    /// Which balancer phases are allowed to run.
    pub phases: PhaseSet,
    /// Target arrival rate, operations per second across all threads.
    pub rate: u64,
    /// Generator threads, each owning one [`Client`].
    pub threads: usize,
    /// Warmup window: operations whose intended start falls inside it
    /// are executed but excluded from the measured histogram.
    pub warmup_secs: f64,
    /// Measurement window following warmup.
    pub measure_secs: f64,
    /// Distinct keys; the cache is pre-populated with all of them.
    pub records: u64,
    /// Master seed: per-thread streams derive deterministically from it.
    pub seed: u64,
    /// Transport the load travels over.
    pub transport: TransportMode,
    /// Servers in the cluster.
    pub servers: u16,
    /// Worker threads per server.
    pub workers_per_server: u16,
    /// Storage engine every worker runs.
    pub engine: EngineKind,
    /// Multi-tenancy mode (admitted tenants + arbitration policy).
    pub tenancy: TenancyMode,
    /// Which skew defenses are armed.
    pub defense: DefenseMode,
    /// Diurnal load curve stretching/compressing inter-arrival gaps
    /// over the run (`None` = constant rate, byte-identical schedules
    /// to the pre-curve harness).
    pub diurnal: Option<DiurnalCurve>,
    /// Reactive autoscaler driving the membership join/drain path off
    /// epoch fleet utilization (`None` = fixed fleet).
    pub autoscale: Option<AutoscalerConfig>,
    /// Cold spare servers spawned outside the initial ring, available
    /// for the autoscaler to join. Ignored unless `autoscale` is set.
    pub spares: u16,
    /// Simulated origin (backing store) fetch cost on a GET miss, in
    /// milliseconds. `0` disables the delayed-hits model.
    pub origin_fetch_ms: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            mix: Mix::B,
            phases: PhaseSet::all(),
            rate: 20_000,
            threads: 4,
            warmup_secs: 1.0,
            measure_secs: 4.0,
            records: 10_000,
            seed: 42,
            transport: TransportMode::InProc,
            servers: 2,
            workers_per_server: 2,
            engine: EngineKind::from_env(),
            tenancy: TenancyMode::Off,
            defense: DefenseMode::Off,
            diurnal: None,
            autoscale: None,
            spares: 0,
            origin_fetch_ms: 0,
        }
    }
}

impl LoadgenConfig {
    /// A fast configuration for smoke tests and CI: small keyspace,
    /// sub-second windows, modest rate.
    pub fn smoke() -> Self {
        Self {
            rate: 4_000,
            threads: 2,
            warmup_secs: 0.2,
            measure_secs: 0.8,
            records: 500,
            ..Self::default()
        }
    }

    /// The configuration a run actually executes: the multi-tenant mix
    /// needs at least one generator thread per tenant (each thread is
    /// bound to a single tenant) and tenants must be admitted, so `Off`
    /// is bumped to `Static`. An autoscaling cell needs at least one
    /// spare to join, and the controller's fleet bounds are clamped to
    /// what the harness actually spawned. A no-op for every other
    /// configuration; idempotent.
    pub fn normalized(&self) -> Self {
        let mut cfg = self.clone();
        if cfg.mix == Mix::MultiTenant {
            cfg.threads = cfg.threads.max(tenant_plan(cfg.records).len());
            if cfg.tenancy == TenancyMode::Off {
                cfg.tenancy = TenancyMode::Static;
            }
        }
        if let Some(a) = cfg.autoscale.as_mut() {
            cfg.spares = cfg.spares.max(1);
            a.min_nodes = a.min_nodes.clamp(1, cfg.servers as usize);
            a.max_nodes = a
                .max_nodes
                .clamp(a.min_nodes, (cfg.servers + cfg.spares) as usize);
        }
        cfg
    }

    /// The tenant a generator thread drives: round-robin over the
    /// tenant plan for the multi-tenant mix, the default tenant
    /// otherwise.
    pub fn thread_tenant(&self, thread: usize) -> TenantId {
        if self.mix == Mix::MultiTenant {
            let plans = tenant_plan(self.records);
            plans[thread % plans.len()].tenant
        } else {
            TenantId::DEFAULT
        }
    }
}

/// One operation with its intended start time on the open-loop
/// schedule, in microseconds from the run origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledOp {
    /// Intended start, µs from the schedule origin.
    pub intended_us: u64,
    /// The operation itself.
    pub op: Op,
}

/// The deterministic op source behind one thread's schedule.
enum GenKind {
    /// A plain YCSB-style generator (one op per pacing slot).
    Plain(WorkloadGen),
    /// A scenario pack (may emit MultiGET bursts). Boxed: the pack
    /// generator carries per-pack RNG + spec state that dwarfs the
    /// plain variant.
    Scenario(Box<ScenarioGen>),
}

impl GenKind {
    fn next_burst(&mut self) -> Vec<Op> {
        match self {
            GenKind::Plain(g) => vec![g.next_op()],
            GenKind::Scenario(g) => g.next_burst(),
        }
    }

    fn set_index_offset(&mut self, offset: u64) {
        if let GenKind::Plain(g) = self {
            g.set_index_offset(offset);
        }
    }
}

/// One thread's open-loop schedule as a *stream*: operations are
/// generated on demand instead of materialized up front, so an
/// hours-long schedule costs the same memory as a one-second one. The
/// stream is a pure function of the configuration — collecting it twice
/// yields identical ops at identical intended times, which is what
/// [`config_digest`] fingerprints.
///
/// Pacing has two modes:
///
/// * **Constant rate** (no curve): the k-th pacing slot is intended at
///   `k × period` — bit-identical arithmetic to the original
///   pre-materialized schedules, so historical digests still hold.
/// * **Diurnal** ([`DiurnalCurve`]): each slot advances an accumulator
///   by `period ÷ multiplier(progress)`, so the instantaneous arrival
///   rate is `rate × multiplier` while the wall-clock duration stays
///   `warmup + measure`.
///
/// A scenario MultiGET burst consumes one pacing slot per member but
/// shares the first member's intended instant: arrivals cluster the way
/// a feed-page fetch does without inflating the configured average
/// rate.
pub struct ThreadSchedule {
    gen: GenKind,
    curve: Option<DiurnalCurve>,
    period_ns: u128,
    total_ns: u128,
    ops_limit: u64,
    /// `(at_emitted, offset)` — [`Mix::HotShift`]'s midpoint rotation.
    shift_at: Option<(u64, u64)>,
    emitted: u64,
    slot: u64,
    acc_ns: u128,
    pending: VecDeque<Op>,
    pending_intended: u64,
}

impl ThreadSchedule {
    fn exhausted(&self) -> bool {
        match self.curve {
            None => self.slot >= self.ops_limit,
            Some(_) => self.acc_ns >= self.total_ns,
        }
    }

    fn intended_us(&self) -> u64 {
        match self.curve {
            None => ((self.slot as u128 * self.period_ns) / 1_000) as u64,
            Some(_) => (self.acc_ns / 1_000) as u64,
        }
    }

    fn advance(&mut self, slots: u64) {
        match &self.curve {
            None => self.slot += slots,
            Some(c) => {
                for _ in 0..slots {
                    let frac = self.acc_ns as f64 / self.total_ns.max(1) as f64;
                    let step = self.period_ns as f64 / c.multiplier_at(frac);
                    self.acc_ns += step as u128;
                }
            }
        }
    }
}

impl Iterator for ThreadSchedule {
    type Item = ScheduledOp;

    fn next(&mut self) -> Option<ScheduledOp> {
        if let Some(op) = self.pending.pop_front() {
            return Some(ScheduledOp {
                intended_us: self.pending_intended,
                op,
            });
        }
        if self.exhausted() {
            return None;
        }
        if let Some((at, offset)) = self.shift_at {
            if self.emitted == at {
                self.gen.set_index_offset(offset);
            }
        }
        let intended_us = self.intended_us();
        let mut ops = self.gen.next_burst();
        let n = ops.len() as u64;
        self.emitted += n;
        self.advance(n);
        let first = ops.remove(0);
        self.pending_intended = intended_us;
        self.pending.extend(ops);
        Some(ScheduledOp {
            intended_us,
            op: first,
        })
    }
}

/// The per-thread schedule streams for `cfg`: fixed-rate arrivals (rate
/// split evenly across threads, optionally shaped by the diurnal
/// curve), operations drawn from the mix's deterministic generator. For
/// [`Mix::HotShift`] the key index rotates by half the key space at the
/// midpoint of each thread's schedule. Two calls with the same
/// configuration produce identical streams (see [`config_digest`]).
pub fn thread_schedules(cfg: &LoadgenConfig) -> Vec<ThreadSchedule> {
    let cfg = cfg.normalized();
    let threads = cfg.threads.max(1);
    let per_thread_rate = (cfg.rate as f64 / threads as f64).max(1.0);
    let total_secs = cfg.warmup_secs + cfg.measure_secs;
    let ops_per_thread = (per_thread_rate * total_secs).ceil() as u64;
    let period_ns = (1e9 / per_thread_rate) as u128;
    (0..threads)
        .map(|t| {
            let seed = cfg.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let gen = match cfg.mix {
                Mix::Scenario(pack) => {
                    GenKind::Scenario(Box::new(ScenarioGen::new(pack.spec(cfg.records), seed)))
                }
                Mix::MultiTenant => {
                    let plans = tenant_plan(cfg.records);
                    GenKind::Plain(WorkloadGen::new(plans[t % plans.len()].spec.clone(), seed))
                }
                _ => GenKind::Plain(WorkloadGen::new(cfg.mix.spec(cfg.records), seed)),
            };
            ThreadSchedule {
                gen,
                curve: cfg.diurnal.clone(),
                period_ns,
                total_ns: (total_secs * 1e9) as u128,
                ops_limit: ops_per_thread,
                shift_at: (cfg.mix == Mix::HotShift)
                    .then_some((ops_per_thread / 2, cfg.records / 2)),
                emitted: 0,
                slot: 0,
                acc_ns: 0,
                pending: VecDeque::new(),
                pending_intended: 0,
            }
        })
        .collect()
}

/// Materializes the full per-thread schedules (tests and offline
/// inspection; the harness itself streams via [`thread_schedules`]).
pub fn build_schedule(cfg: &LoadgenConfig) -> Vec<Vec<ScheduledOp>> {
    thread_schedules(cfg)
        .into_iter()
        .map(Iterator::collect)
        .collect()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn digest_op(h: &mut u64, s: &ScheduledOp) {
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(FNV_PRIME);
        }
    };
    eat(&s.intended_us.to_le_bytes());
    eat(&[match s.op.kind {
        OpKind::Get => 0,
        OpKind::Set => 1,
        OpKind::Delete => 2,
        OpKind::Touch => 3,
    }]);
    eat(&s.op.ttl_ms.to_le_bytes());
    eat(&s.op.key);
}

/// FNV-1a digest over every scheduled operation, in thread-major order.
/// Equal configurations must produce equal digests — the replay
/// guarantee the deterministic-seed smoke test asserts.
pub fn schedule_digest(schedule: &[Vec<ScheduledOp>]) -> u64 {
    let mut h: u64 = FNV_OFFSET;
    for thread in schedule {
        for s in thread {
            digest_op(&mut h, s);
        }
    }
    h
}

/// [`schedule_digest`] computed by streaming `cfg`'s schedules without
/// materializing them — byte-for-byte the same digest the
/// pre-streaming harness produced for the same configuration.
pub fn config_digest(cfg: &LoadgenConfig) -> u64 {
    let mut h: u64 = FNV_OFFSET;
    for ts in thread_schedules(cfg) {
        for s in ts {
            digest_op(&mut h, &s);
        }
    }
    h
}

/// Bounded-memory consumer over a [`ThreadSchedule`]: the generator
/// thread pulls operations in chunks instead of materializing the whole
/// schedule. The refill runs before the pre-op pacing sleep, so on a
/// healthy schedule its cost is absorbed by pacing slack rather than
/// charged to an in-flight operation's latency.
struct ChunkedSchedule {
    src: ThreadSchedule,
    buf: VecDeque<ScheduledOp>,
}

impl ChunkedSchedule {
    /// Ops generated per refill — bounds generator memory at a few
    /// thousand ops regardless of schedule length.
    const CHUNK: usize = 1_024;

    fn new(src: ThreadSchedule) -> Self {
        Self {
            src,
            buf: VecDeque::with_capacity(Self::CHUNK),
        }
    }

    fn refill(&mut self) {
        while self.buf.len() < Self::CHUNK {
            match self.src.next() {
                Some(s) => self.buf.push_back(s),
                None => break,
            }
        }
    }

    fn pop(&mut self) -> Option<ScheduledOp> {
        if self.buf.is_empty() {
            self.refill();
        }
        self.buf.pop_front()
    }

    fn peek(&mut self) -> Option<&ScheduledOp> {
        if self.buf.is_empty() {
            self.refill();
        }
        self.buf.front()
    }
}

/// A live cluster owned by the harness for the duration of one cell.
pub struct Harness {
    servers: Vec<Arc<Mutex<Server>>>,
    balance_threads: Vec<std::thread::JoinHandle<()>>,
    coordinator: Arc<Coordinator>,
    transport: Arc<dyn Transport>,
    clock: Arc<RealClock>,
    /// Armed when the cell's defense mode includes the front tier;
    /// every generator client gets one.
    front: Option<FrontCacheConfig>,
    /// Balance-epoch length of the spawned servers (autoscaler cadence).
    epoch_ms: u64,
}

impl Harness {
    /// Builds and starts a cluster for `cfg`: mapping, coordinator,
    /// servers with per-server balance threads, and the configured
    /// transport (in-proc registry or real TCP listeners on ephemeral
    /// loopback ports).
    ///
    /// When the cell autoscales, `cfg.spares` extra servers are spawned
    /// *outside* the initial ring — cold, no cachelets — with the
    /// membership protocol armed on every server, so a later
    /// [`Coordinator::join_server`] pulls a spare in through the real
    /// grow/migrate path.
    pub fn start(cfg: &LoadgenConfig) -> Self {
        let mut ring = ConsistentRing::new();
        for s in 0..cfg.servers {
            for w in 0..cfg.workers_per_server {
                ring.add_worker(WorkerAddr::new(s, w));
            }
        }
        let spares = if cfg.autoscale.is_some() {
            cfg.spares
        } else {
            0
        };
        let workers_total = (cfg.servers * cfg.workers_per_server) as usize;
        let vns = (workers_total * 4 * 16).next_power_of_two();
        let mapping = MappingTable::build(&ring, 4, vns);
        let bal = BalancerConfig {
            phases: cfg.phases,
            tenant_arbitration: cfg.tenancy == TenancyMode::Arbitrated,
            load_cap: cfg.defense.load_cap(),
            ..BalancerConfig::aggressive()
        };
        // Quotas in the directory are per cache unit: divide each
        // tenant's cluster-wide allotment across every unit.
        let mut tenants = TenantDirectory::new();
        if cfg.tenancy != TenancyMode::Off {
            let units = (cfg.servers as u64 * cfg.workers_per_server as u64 * 4).max(1);
            for p in tenant_plan(cfg.records) {
                tenants.admit(
                    p.tenant,
                    TenantQuota::new(
                        (p.reserved_total / units).max(4 << 10),
                        (p.ceiling_total / units).max(16 << 10),
                    ),
                );
            }
        }
        let coordinator = Arc::new(Coordinator::new(mapping.clone(), bal.clone()));
        let registry = InProcRegistry::new();
        let mut routes = std::collections::HashMap::new();
        let mut raw_servers = Vec::new();
        // One clock shared by every server AND the generator threads, so
        // absolute expiry timestamps computed from per-op TTLs mean the
        // same instant everywhere.
        let clock = Arc::new(RealClock::new());
        for s in 0..cfg.servers + spares {
            let server = Server::spawn(
                mbal_server::ServerConfig::new(ServerId(s), cfg.workers_per_server, 64 << 20)
                    .cachelets_per_worker(4)
                    .balancer(bal.clone())
                    .worker_capacity(cfg.rate as f64 / workers_total as f64)
                    .engine(cfg.engine)
                    .membership(cfg.autoscale.is_some())
                    .tenants(tenants.clone()),
                &mapping,
                &registry,
                Arc::clone(&coordinator),
                Arc::clone(&clock) as Arc<dyn Clock>,
            );
            if cfg.transport == TransportMode::Tcp {
                let bound =
                    serve_tcp(&server.worker_mailboxes(), "127.0.0.1", 0).expect("bind loopback");
                routes.extend(bound);
            }
            raw_servers.push(server);
        }
        let transport: Arc<dyn Transport> = match cfg.transport {
            TransportMode::InProc => registry as Arc<dyn Transport>,
            TransportMode::Tcp => TcpTransport::new(routes) as Arc<dyn Transport>,
        };
        let servers: Vec<Arc<Mutex<Server>>> = raw_servers
            .into_iter()
            .map(|s| Arc::new(Mutex::new(s)))
            .collect();
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
            front: cfg.defense.front(),
            epoch_ms: bal.epoch_ms,
        }
    }

    /// The clock shared by every server in this cluster; generator
    /// threads use it to turn relative per-op TTLs into absolute expiry
    /// timestamps the servers agree on.
    pub fn clock(&self) -> Arc<RealClock> {
        Arc::clone(&self.clock)
    }

    /// The coordinator owning mapping + membership for this cluster.
    pub fn coordinator(&self) -> Arc<Coordinator> {
        Arc::clone(&self.coordinator)
    }

    /// The servers' balance-epoch length in milliseconds.
    pub fn epoch_ms(&self) -> u64 {
        self.epoch_ms
    }

    /// A fresh client bound to this cluster.
    pub fn client(&self) -> Client {
        self.client_for(TenantId::DEFAULT)
    }

    /// A fresh client whose data operations are tagged with `tenant`,
    /// front-cached when the cell's defense mode arms the front tier.
    pub fn client_for(&self, tenant: TenantId) -> Client {
        let mut b = Client::builder(
            Arc::clone(&self.transport),
            Arc::clone(&self.coordinator) as Arc<dyn CoordinatorLink>,
        )
        .tenant(tenant);
        if let Some(front) = self.front {
            b = b.front_cache(front);
        }
        b.build()
    }

    /// Pre-populates every record of `spec`, then zeroes all server-side
    /// counters and histograms so the run starts from a clean slate.
    pub fn load_phase(&self, spec: &WorkloadSpec, seed: u64) {
        let mut client = self.client();
        let gen = WorkloadGen::new(spec.clone(), seed);
        for (k, v) in gen.load_phase() {
            client
                .set_opts(&k, &v, SetOptions::new())
                .expect("load-phase set");
        }
        client.server_stats(true).expect("stats reset after load");
    }

    /// Pre-populates every tenant's private records through a client
    /// tagged with that tenant, then zeroes the server-side counters.
    /// (The noisy tenant's footprint exceeds its budget, so its load
    /// phase already churns through its own — and only its own —
    /// evictions.)
    pub fn load_phase_tenants(&self, plans: &[TenantPlan], seed: u64) {
        for p in plans {
            let mut client = self.client_for(p.tenant);
            let gen = WorkloadGen::new(
                p.spec.clone(),
                seed ^ (p.tenant.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            for (k, v) in gen.load_phase() {
                client
                    .set_opts(&k, &v, SetOptions::new())
                    .expect("tenant load-phase set");
            }
        }
        self.client()
            .server_stats(true)
            .expect("stats reset after load");
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

/// Client-side operation counts summed over every generator thread.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct ClientCounts {
    /// GETs issued.
    pub gets: u64,
    /// GETs that hit.
    pub hits: u64,
    /// SETs issued.
    pub sets: u64,
    /// Reads served by Phase-1 replicas instead of the home worker.
    pub replica_reads: u64,
    /// GETs served from client front caches without touching the wire.
    pub front_hits: u64,
    /// Front entries rejected at read time (TTL or mapping version).
    pub front_stale_rejected: u64,
    /// Keys newly promoted into a front cache by the sketch.
    pub sketch_promotions: u64,
    /// Front-sketch decays triggered by mapping movement (migration,
    /// failover, membership epoch).
    #[serde(default)]
    pub sketch_decays: u64,
    /// Operations that failed after exhausting retries.
    pub failures: u64,
}

/// Server-side counts summed over every worker's `StatsReport`.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct ServerCounts {
    /// Data-path operations.
    pub ops: u64,
    /// GET lookups.
    pub gets: u64,
    /// GETs that hit.
    pub get_hits: u64,
    /// SET stores.
    pub sets: u64,
    /// Replica-table reads (shadow side of Phase 1).
    pub replica_reads: u64,
    /// Objects evicted under memory pressure.
    pub evictions: u64,
    /// Objects reclaimed because their TTL passed.
    pub expirations: u64,
    /// Value bytes freed by eviction.
    pub evicted_bytes: u64,
    /// Value bytes freed by expiry.
    pub expired_bytes: u64,
    /// Whole segments reclaimed by proactive expiry (seg engine only).
    pub segments_expired: u64,
    /// Merge-based eviction passes (seg engine only).
    pub seg_merges: u64,
    /// Cachelets shed by the bounded-load cap (defense telemetry).
    pub ring_cap_spills: u64,
}

/// Per-tenant outcome inside one multi-tenant cell: client-observed
/// latency/hit-rate for the tenant's own traffic plus the server-side
/// accounting rows scraped over the stats wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantCellResult {
    /// The tenant.
    pub tenant: u16,
    /// Whether this is the plan's designated noisy neighbour.
    pub noisy: bool,
    /// GETs this tenant's threads issued (warmup included).
    pub gets: u64,
    /// GETs that hit.
    pub hits: u64,
    /// Client-observed hit rate (1.0 when no GETs ran).
    pub hit_rate: f64,
    /// SETs this tenant's threads issued.
    pub sets: u64,
    /// Intended-latency p50 over the tenant's measure-window ops (µs).
    pub p50_us: u64,
    /// Intended-latency p99 (µs).
    pub p99_us: u64,
    /// Bytes resident under this tenant, summed over every worker.
    pub resident_bytes: u64,
    /// The tenant's memory budget at scrape time, summed over every
    /// worker (moves during arbitrated runs, frozen during static).
    pub budget_bytes: u64,
    /// Entries this tenant lost to eviction, summed over every worker.
    pub evictions: u64,
}

/// One latency class of the delayed-hits model (hit / miss /
/// delayed hit), measured against intended start times like everything
/// else in the harness.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OriginResult {
    /// Configured origin fetch cost (ms).
    pub fetch_ms: u64,
    /// Origin fetches actually issued (coalesced misses share one).
    pub fetches: u64,
    /// Misses that coalesced behind an already-in-flight fetch for the
    /// same key — the delayed hits.
    pub coalesced: u64,
    /// GETs served from the cache.
    pub hit: LatencyPercentiles,
    /// GETs that missed and led their origin fetch.
    pub miss: LatencyPercentiles,
    /// GETs that missed but waited out a peer's in-flight fetch.
    pub delayed_hit: LatencyPercentiles,
}

/// The measured outcome of one (mix × phases) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellResult {
    /// Workload mix label.
    pub mix: String,
    /// Phase gate label (`off`, `p1`, `p1p2`, `all`, …).
    pub phases: String,
    /// Transport label.
    pub transport: String,
    /// Storage engine label (`slab`, `seg`).
    pub engine: String,
    /// Tenancy label (`off`, `static`, `arbitrated`).
    pub tenancy: String,
    /// Defense label (`off`, `front`, `bounded`, `both`).
    pub defense: String,
    /// Configured arrival rate (ops/s).
    pub target_rate: u64,
    /// Measured ops ÷ the time from the end of warmup to the last
    /// measured completion (at least the measure window), so a host
    /// that cannot keep up reports what it served, not the offered
    /// rate.
    pub achieved_rate: f64,
    /// Achieved rate in MQPS.
    pub mqps: f64,
    /// Intended-start-time latency percentiles (µs) over the measure
    /// window — the coordinated-omission-safe numbers.
    pub latency: LatencyPercentiles,
    /// Operations inside the measure window.
    pub ops_measured: u64,
    /// All operations executed, warmup included.
    pub ops_total: u64,
    /// FNV digest of the full op schedule (replay fingerprint).
    pub schedule_digest: String,
    /// Client-side counts (warmup included).
    pub client: ClientCounts,
    /// Server-side counts scraped over the stats wire after the run.
    pub server: ServerCounts,
    /// Worker-load imbalance: the busiest worker's data-path op count
    /// over the mean worker's (1.0 = perfectly level). The headline
    /// number the skew defenses exist to pull down.
    pub worst_worker_utilization: f64,
    /// Whether client and server agree exactly: every client GET landed
    /// either at a home worker, at a replica, or in a client front
    /// cache (front hits never reach the wire), and every SET at a home
    /// worker, with nothing lost or double-counted. Guaranteed only when
    /// no migration is mid-flight at scrape time; always true with
    /// `phases = off` and no bounded-load cap.
    pub counts_reconciled: bool,
    /// Per-tenant breakdown; empty for single-tenant cells.
    pub tenants: Vec<TenantCellResult>,
    /// Diurnal curve label (`flat` for constant rate) — part of the
    /// cell's identity in the baseline gate. Baselines committed before
    /// this field existed deserialize it empty; the gate reads empty as
    /// `flat`.
    #[serde(default)]
    pub diurnal: String,
    /// `on` when the reactive autoscaler drove membership, else `off` —
    /// part of the cell's identity in the baseline gate (empty in old
    /// baselines reads as `off`).
    #[serde(default)]
    pub autoscale: String,
    /// Nodes the autoscaler joined during the run.
    #[serde(default)]
    pub scale_joins: u64,
    /// Nodes the autoscaler drained during the run.
    #[serde(default)]
    pub scale_drains: u64,
    /// Fleet-size integral over the run, in node-hours — the cost side
    /// of the autoscaler's node-hours × p99 trade-off.
    #[serde(default)]
    pub node_hours: f64,
    /// Mean member count over the run.
    #[serde(default)]
    pub avg_nodes: f64,
    /// Delayed-hits model outcome; `None` when `origin_fetch_ms = 0`.
    #[serde(default)]
    pub origin: Option<OriginResult>,
}

/// Client-side origin (backing store) model for the delayed-hits
/// experiments. A GET miss triggers a simulated origin fetch costing
/// `fetch` of wall time, after which the leader stores the fetched
/// value back into the cache; concurrent misses on the same key
/// coalesce behind the in-flight fetch instead of issuing their own —
/// the followers are *delayed hits*, cheaper than a full miss but
/// slower than a cache hit.
struct OriginSim {
    fetch: Duration,
    inflight: Mutex<HashMap<Key, Arc<FetchState>>>,
    // (`inflight` stays on parking_lot for lock-poisoning-free hot
    // path; `FetchState` needs std's Condvar pairing.)
    fetches: AtomicU64,
    coalesced: AtomicU64,
}

struct FetchState {
    done: StdMutex<bool>,
    cv: StdCondvar,
}

/// How a missed GET resolved under the origin model.
enum MissClass {
    /// This op led the origin fetch (a full miss).
    Fetched,
    /// This op coalesced behind a peer's in-flight fetch.
    Delayed,
}

impl OriginSim {
    fn new(fetch_ms: u64) -> Self {
        Self {
            fetch: Duration::from_millis(fetch_ms),
            inflight: Mutex::new(HashMap::new()),
            fetches: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Resolves a miss on `key`: the first caller becomes the leader —
    /// it pays the fetch delay, runs `store` to install the value, and
    /// wakes every follower; followers block on the leader's fetch.
    fn on_miss(&self, key: &[u8], store: impl FnOnce()) -> MissClass {
        let (state, leader) = {
            let mut g = self.inflight.lock();
            match g.get(key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(FetchState {
                        done: StdMutex::new(false),
                        cv: StdCondvar::new(),
                    });
                    g.insert(key.to_vec(), Arc::clone(&f));
                    (f, true)
                }
            }
        };
        if leader {
            std::thread::sleep(self.fetch);
            store();
            // Remove only after the store: a miss arriving post-removal
            // finds the value cached and never reaches this path.
            self.inflight.lock().remove(key);
            *state.done.lock().expect("origin fetch lock") = true;
            state.cv.notify_all();
            self.fetches.fetch_add(1, Ordering::Relaxed);
            MissClass::Fetched
        } else {
            let done = state.done.lock().expect("origin fetch lock");
            // Bounded wait: a leader cancelled mid-fetch (run teardown)
            // must not strand its followers.
            let timeout = self.fetch * 4 + Duration::from_millis(100);
            let _ = state
                .cv
                .wait_timeout_while(done, timeout, |d| !*d)
                .expect("origin fetch lock");
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            MissClass::Delayed
        }
    }
}

/// Everything one generator thread brings home.
struct ThreadOutcome {
    hist: Histogram,
    hit: Histogram,
    miss: Histogram,
    delayed: Histogram,
    measured: u64,
    /// Completion time of the last measured op, µs after the thread's
    /// start.
    last_done_us: u64,
    total: u64,
    stats: ClientStats,
    tenant: TenantId,
}

/// What the autoscaler thread reports at teardown.
struct ScaleOutcome {
    joins: u64,
    drains: u64,
    node_seconds: f64,
    avg_nodes: f64,
}

enum OpClass {
    Hit,
    Miss,
    DelayedHit,
}

/// Runs one cell: build cluster → load phase → paced open-loop run
/// (with the autoscaler and origin model armed if configured) →
/// scrape + reconcile → shutdown.
pub fn run_cell(cfg: &LoadgenConfig) -> CellResult {
    let cfg = &cfg.normalized();
    let digest = config_digest(cfg);
    let harness = Harness::start(cfg);
    if cfg.mix == Mix::MultiTenant {
        harness.load_phase_tenants(&tenant_plan(cfg.records), cfg.seed);
    } else {
        harness.load_phase(&cfg.mix.spec(cfg.records), cfg.seed);
    }

    let warmup_us = (cfg.warmup_secs * 1e6) as u64;
    let origin = (cfg.origin_fetch_ms > 0).then(|| Arc::new(OriginSim::new(cfg.origin_fetch_ms)));
    let origin_len = cfg.mix.spec(cfg.records).value_len;
    let batch_bursts = matches!(cfg.mix, Mix::Scenario(_));
    let schedules = thread_schedules(cfg);
    let threads = schedules.len();
    let barrier = Arc::new(Barrier::new(threads + 1));
    let mut handles = Vec::new();
    for (t, ts) in schedules.into_iter().enumerate() {
        let barrier = Arc::clone(&barrier);
        let tenant = cfg.thread_tenant(t);
        let mut client = harness.client_for(tenant);
        let clock = harness.clock();
        let origin = origin.clone();
        handles.push(std::thread::spawn(move || {
            let mut out = ThreadOutcome {
                hist: Histogram::new(),
                hit: Histogram::new(),
                miss: Histogram::new(),
                delayed: Histogram::new(),
                measured: 0,
                last_done_us: 0,
                total: 0,
                stats: ClientStats::default(),
                tenant,
            };
            let mut sched = ChunkedSchedule::new(ts);
            barrier.wait();
            let t0 = Instant::now();
            while let Some(s) = sched.pop() {
                // A scenario MultiGET burst arrives as consecutive GETs
                // sharing one intended instant — reassemble it into a
                // real MultiGET (one batched request per owner worker).
                let mut burst: Vec<Key> = Vec::new();
                if batch_bursts && s.op.kind == OpKind::Get {
                    while sched
                        .peek()
                        .is_some_and(|n| n.intended_us == s.intended_us && n.op.kind == OpKind::Get)
                    {
                        if burst.is_empty() {
                            burst.push(s.op.key.clone());
                        }
                        burst.push(sched.pop().expect("peeked").op.key);
                    }
                }
                let now_us = t0.elapsed().as_micros() as u64;
                if s.intended_us > now_us {
                    std::thread::sleep(Duration::from_micros(s.intended_us - now_us));
                }
                let mut class = None;
                let (ok, n_ops) = if burst.is_empty() {
                    let ok = match s.op.kind {
                        OpKind::Get => match client.get(&s.op.key) {
                            Ok(Some(_)) => {
                                class = Some(OpClass::Hit);
                                true
                            }
                            Ok(None) => {
                                if let Some(o) = &origin {
                                    let resolved = o.on_miss(&s.op.key, || {
                                        let v = origin_value(&s.op.key, origin_len);
                                        let _ = client.set_opts(&s.op.key, &v, SetOptions::new());
                                    });
                                    class = Some(match resolved {
                                        MissClass::Fetched => OpClass::Miss,
                                        MissClass::Delayed => OpClass::DelayedHit,
                                    });
                                }
                                true
                            }
                            Err(_) => false,
                        },
                        OpKind::Set => {
                            // Relative TTLs become absolute expiries on
                            // the cluster-shared clock at send time.
                            let opts = if s.op.ttl_ms > 0 {
                                SetOptions::new().expiry_ms(clock.now_millis() + s.op.ttl_ms)
                            } else {
                                SetOptions::new()
                            };
                            client.set_opts(&s.op.key, &s.op.value, opts).is_ok()
                        }
                        OpKind::Delete => client.delete(&s.op.key).is_ok(),
                        OpKind::Touch => client
                            .touch_opts(&s.op.key, clock.now_millis() + s.op.ttl_ms)
                            .is_ok(),
                    };
                    (ok, 1u64)
                } else {
                    let n = burst.len() as u64;
                    (client.multi_get(&burst).is_ok(), n)
                };
                out.total += n_ops;
                if s.intended_us >= warmup_us && ok {
                    // Latency against the *intended* start: queueing
                    // delay behind a stalled server is charged to the
                    // operation, never silently absorbed.
                    let done_us = t0.elapsed().as_micros() as u64;
                    let lat = done_us.saturating_sub(s.intended_us);
                    out.hist.record_n(lat, n_ops);
                    out.measured += n_ops;
                    out.last_done_us = done_us;
                    match class {
                        Some(OpClass::Hit) => out.hit.record(lat),
                        Some(OpClass::Miss) => out.miss.record(lat),
                        Some(OpClass::DelayedHit) => out.delayed.record(lat),
                        None => {}
                    }
                }
            }
            out.stats = client.stats();
            out
        }));
    }

    // The autoscaler thread: once per balance epoch, derive fleet
    // utilization from the same worker snapshots the balancer sees and
    // let the controller decide. Joins pull cold spares in through the
    // coordinator's real grow path; drains evacuate the most recently
    // joined node (the base fleet is never drained).
    let scale_stop = Arc::new(AtomicBool::new(false));
    let scaler_handle = cfg.autoscale.map(|ascfg| {
        let stop = Arc::clone(&scale_stop);
        let coordinator = harness.coordinator();
        let mut scrape = harness.client();
        let clock = harness.clock();
        let epoch_ms = harness.epoch_ms();
        let wps = cfg.workers_per_server;
        // `pop()` takes the back, so reverse to join lowest spare first.
        let spare_ids: Vec<u16> = (cfg.servers..cfg.servers + cfg.spares).rev().collect();
        std::thread::spawn(move || {
            let mut scaler = Autoscaler::new(ascfg);
            let mut spares = spare_ids;
            let mut joined: Vec<u16> = Vec::new();
            let mut node_epochs = 0.0f64;
            let mut epochs = 0u64;
            // Joins/drains *acted on* — the controller can decide to
            // scale out with no spare left to give it.
            let mut joins = 0u64;
            let mut drains = 0u64;
            // A drained node isn't lost — once its evacuation finishes
            // (state Left) it returns to the spare pool and can rejoin
            // on the next day's ramp, incarnation bumped.
            let mut draining: Vec<u16> = Vec::new();
            // The load phase leaves a huge EWMA residue in every
            // worker's load signal; decisions hold until the warmup
            // window has flushed it (node accounting still runs).
            let warmup_epochs = (warmup_us / 1_000).div_ceil(epoch_ms.max(1));
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(epoch_ms));
                let view = coordinator.membership_view(clock.now_millis());
                let members = view.cluster_size();
                node_epochs += members as f64;
                epochs += 1;
                draining.retain(|&s| {
                    let left = view
                        .nodes
                        .iter()
                        .any(|n| n.server == ServerId(s) && n.state == NodeState::Left);
                    if left {
                        spares.push(s);
                    }
                    !left
                });
                // The scrape mapping must track joins/drains, or the
                // fleet's capacity (the utilization denominator) would
                // freeze at the starting fleet.
                scrape.poll_coordinator();
                let Ok(reports) = scrape.server_stats(false) else {
                    continue;
                };
                let snaps: Vec<WorkerSnapshot> = reports.into_iter().map(|r| r.load).collect();
                if epochs <= warmup_epochs {
                    continue;
                }
                match scaler.observe(members, fleet_utilization(&snaps)) {
                    ScaleDecision::ScaleOut => {
                        if let Some(s) = spares.pop() {
                            coordinator.join_server(ServerId(s), wps, clock.now_millis());
                            joined.push(s);
                            joins += 1;
                        }
                    }
                    ScaleDecision::ScaleIn => {
                        if let Some(s) = joined.pop() {
                            coordinator.drain_server(ServerId(s), clock.now_millis());
                            draining.push(s);
                            drains += 1;
                        }
                    }
                    ScaleDecision::Hold => {}
                }
            }
            ScaleOutcome {
                joins,
                drains,
                node_seconds: node_epochs * epoch_ms as f64 / 1_000.0,
                avg_nodes: if epochs == 0 {
                    0.0
                } else {
                    node_epochs / epochs as f64
                },
            }
        })
    });

    barrier.wait();
    let mut hist = Histogram::new();
    let mut hit_hist = Histogram::new();
    let mut miss_hist = Histogram::new();
    let mut delayed_hist = Histogram::new();
    let mut measured = 0u64;
    let mut last_done_us = 0u64;
    let mut total = 0u64;
    let mut client_counts = ClientCounts::default();
    // Per-tenant client-side aggregation (threads of one tenant merge).
    let mut by_tenant: BTreeMap<u16, (Histogram, u64, u64, u64)> = BTreeMap::new();
    for h in handles {
        let out = h.join().expect("loadgen thread");
        let st = out.stats;
        if !out.tenant.is_default() {
            let e = by_tenant
                .entry(out.tenant.0)
                .or_insert_with(|| (Histogram::new(), 0, 0, 0));
            e.0.merge(&out.hist);
            e.1 += st.gets;
            e.2 += st.hits;
            e.3 += st.sets;
        }
        hist.merge(&out.hist);
        hit_hist.merge(&out.hit);
        miss_hist.merge(&out.miss);
        delayed_hist.merge(&out.delayed);
        measured += out.measured;
        last_done_us = last_done_us.max(out.last_done_us);
        total += out.total;
        client_counts.gets += st.gets;
        client_counts.hits += st.hits;
        client_counts.sets += st.sets;
        client_counts.replica_reads += st.replica_reads;
        client_counts.front_hits += st.front_hits;
        client_counts.front_stale_rejected += st.front_stale_rejected;
        client_counts.sketch_promotions += st.sketch_promotions;
        client_counts.sketch_decays += st.sketch_decays;
        client_counts.failures += st.failures;
    }

    // Stop the autoscaler, then let any in-flight membership transfer
    // settle (drain → Left, join → Up) before the final scrape: a
    // mid-flight move would make the ledgers legitimately disagree.
    let scale = scaler_handle.map(|h| {
        scale_stop.store(true, Ordering::Relaxed);
        let outcome = h.join().expect("autoscaler thread");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let view = harness
                .coordinator()
                .membership_view(harness.clock().now_millis());
            let settling = view
                .nodes
                .iter()
                .any(|n| matches!(n.state, NodeState::Joining | NodeState::Draining));
            if !settling || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(harness.epoch_ms()));
        }
        // One extra epoch for the final migration-complete to promote.
        std::thread::sleep(Duration::from_millis(2 * harness.epoch_ms()));
        outcome
    });

    // With the autoscaler on, a drained spare's workers have left the
    // mapping by now — but the ops they served while joined live in
    // *their* counters. Reconciliation across a resize must therefore
    // scrape every spawned worker by address, not just current members.
    let reports = if cfg.autoscale.is_some() {
        let mut c = harness.client();
        let mut out = Vec::new();
        for s in 0..cfg.servers + cfg.spares {
            for w in 0..cfg.workers_per_server {
                if let Ok(r) = c.worker_stats(WorkerAddr::new(s, w), false) {
                    out.push(r);
                }
            }
        }
        out
    } else {
        harness.client().server_stats(false).expect("final scrape")
    };
    let mut server_counts = ServerCounts::default();
    let mut worker_ops: Vec<u64> = Vec::with_capacity(reports.len());
    for r in &reports {
        worker_ops.push(r.load.metrics.get(Counter::Ops));
        server_counts.ops += r.load.metrics.get(Counter::Ops);
        server_counts.gets += r.load.metrics.get(Counter::Gets);
        server_counts.get_hits += r.load.metrics.get(Counter::GetHits);
        server_counts.sets += r.load.metrics.get(Counter::Sets);
        server_counts.replica_reads += r.load.metrics.get(Counter::ReplicaReads);
        server_counts.evictions += r.load.metrics.get(Counter::Evictions);
        server_counts.expirations += r.load.metrics.get(Counter::Expirations);
        server_counts.evicted_bytes += r.load.metrics.get(Counter::EvictedBytes);
        server_counts.expired_bytes += r.load.metrics.get(Counter::ExpiredBytes);
        server_counts.segments_expired += r.load.metrics.get(Counter::SegmentsExpired);
        server_counts.seg_merges += r.load.metrics.get(Counter::SegMerges);
        server_counts.ring_cap_spills += r.load.metrics.get(Counter::RingCapSpills);
    }
    // Server-side per-tenant rows, summed across workers.
    let mut server_tenants: BTreeMap<u16, (u64, u64, u64)> = BTreeMap::new();
    for r in &reports {
        for t in &r.load.tenants {
            let e = server_tenants.entry(t.tenant.0).or_insert((0, 0, 0));
            e.0 = e.0.saturating_add(t.resident_bytes);
            e.1 = e.1.saturating_add(t.budget_bytes);
            e.2 = e.2.saturating_add(t.evictions);
        }
    }
    harness.shutdown();

    let noisy: std::collections::BTreeSet<u16> = tenant_plan(cfg.records)
        .iter()
        .filter(|p| p.noisy)
        .map(|p| p.tenant.0)
        .collect();
    let tenants: Vec<TenantCellResult> = by_tenant
        .into_iter()
        .map(|(t, (th, gets, hits, sets))| {
            let pct = th.percentiles();
            let (resident_bytes, budget_bytes, evictions) =
                server_tenants.get(&t).copied().unwrap_or((0, 0, 0));
            TenantCellResult {
                tenant: t,
                noisy: noisy.contains(&t),
                gets,
                hits,
                hit_rate: if gets == 0 {
                    1.0
                } else {
                    hits as f64 / gets as f64
                },
                sets,
                p50_us: pct.p50_us,
                p99_us: pct.p99_us,
                resident_bytes,
                budget_bytes,
                evictions,
            }
        })
        .collect();

    // Completed ops over the time it took to complete them: from the end
    // of warmup to the last measured completion. A host that falls
    // behind the schedule stretches the window past `measure_secs`; one
    // that keeps up is charged the full window, never less.
    let measure_window_secs = last_done_us.saturating_sub(warmup_us) as f64 / 1e6;
    let achieved_rate = measured as f64 / measure_window_secs.max(cfg.measure_secs).max(1e-9);
    // Front-cache hits are served entirely client-side, so the wire
    // only ever sees `gets − front_hits` of the client's reads.
    let counts_reconciled = server_counts.gets + server_counts.replica_reads
        == client_counts.gets - client_counts.front_hits
        && server_counts.sets == client_counts.sets
        && client_counts.failures == 0;
    let worst_worker_utilization = {
        let max = worker_ops.iter().copied().max().unwrap_or(0) as f64;
        let mean = server_counts.ops as f64 / worker_ops.len().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            0.0
        }
    };
    // Node-hours: with the autoscaler on, the per-epoch membership
    // integral; off, the fixed fleet for the whole run.
    let run_secs = cfg.warmup_secs + cfg.measure_secs;
    let (scale_joins, scale_drains, node_hours, avg_nodes) = match &scale {
        Some(s) => (s.joins, s.drains, s.node_seconds / 3600.0, s.avg_nodes),
        None => (
            0,
            0,
            cfg.servers as f64 * run_secs / 3600.0,
            cfg.servers as f64,
        ),
    };
    let origin_result = origin.map(|o| OriginResult {
        fetch_ms: cfg.origin_fetch_ms,
        fetches: o.fetches.load(Ordering::Relaxed),
        coalesced: o.coalesced.load(Ordering::Relaxed),
        hit: hit_hist.percentiles(),
        miss: miss_hist.percentiles(),
        delayed_hit: delayed_hist.percentiles(),
    });
    CellResult {
        mix: cfg.mix.label().to_string(),
        phases: cfg.phases.label().to_string(),
        transport: cfg.transport.label().to_string(),
        engine: cfg.engine.label().to_string(),
        tenancy: cfg.tenancy.label().to_string(),
        defense: cfg.defense.label().to_string(),
        diurnal: cfg
            .diurnal
            .as_ref()
            .map(|c| c.label())
            .unwrap_or_else(|| "flat".to_string()),
        autoscale: if cfg.autoscale.is_some() { "on" } else { "off" }.to_string(),
        target_rate: cfg.rate,
        achieved_rate,
        mqps: achieved_rate / 1e6,
        latency: hist.percentiles(),
        ops_measured: measured,
        ops_total: total,
        schedule_digest: format!("{digest:016x}"),
        client: client_counts,
        server: server_counts,
        worst_worker_utilization,
        counts_reconciled,
        scale_joins,
        scale_drains,
        node_hours,
        avg_nodes,
        origin: origin_result,
        tenants,
    }
}

/// The configuration fingerprint embedded in every report, so a JSON
/// artifact is traceable to the exact run parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfigFingerprint {
    /// Crate version the binary was built from.
    pub version: String,
    /// Master seed.
    pub seed: u64,
    /// Target rate (ops/s).
    pub rate: u64,
    /// Generator threads.
    pub threads: usize,
    /// Warmup window (s).
    pub warmup_secs: f64,
    /// Measure window (s).
    pub measure_secs: f64,
    /// Distinct keys.
    pub records: u64,
    /// Transport label.
    pub transport: String,
    /// Servers × workers per server.
    pub servers: u16,
    /// Workers per server.
    pub workers_per_server: u16,
    /// Storage engine labels in the matrix.
    pub engines: Vec<String>,
}

/// Tail/throughput movement of one cell against the balancing-off
/// baseline of the same mix and engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseDelta {
    /// Workload mix label.
    pub mix: String,
    /// Storage engine label.
    pub engine: String,
    /// Phase gate label of the compared cell.
    pub phases: String,
    /// `p99(off) − p99(cell)` in µs: positive means balancing helped.
    pub p99_improvement_us: i64,
    /// `p999(off) − p999(cell)` in µs.
    pub p999_improvement_us: i64,
    /// `mqps(cell) − mqps(off)`.
    pub mqps_delta: f64,
}

/// Movement of one armed-defense cell against the defenses-off cell of
/// the same mix, engine and phase set. Positive improvements mean the
/// defense helped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DefenseDelta {
    /// Workload mix label.
    pub mix: String,
    /// Storage engine label.
    pub engine: String,
    /// Phase gate label.
    pub phases: String,
    /// Defense label of the compared cell (`front`, `bounded`, `both`).
    pub defense: String,
    /// `p99(off) − p99(cell)` in µs.
    pub p99_improvement_us: i64,
    /// `p999(off) − p999(cell)` in µs.
    pub p999_improvement_us: i64,
    /// `worst_worker_utilization(off) − worst_worker_utilization(cell)`:
    /// positive means the defense levelled the worker load.
    pub worst_worker_utilization_drop: f64,
    /// Fraction of the cell's client GETs served by front caches.
    pub front_hit_rate: f64,
    /// Cachelets the bounded-load cap shed during the cell.
    pub ring_cap_spills: u64,
}

/// Arbitrated-vs-static movement of one multi-tenant cell pair (same
/// engine and phase set). Positive gains mean arbitration helped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantDelta {
    /// Storage engine label.
    pub engine: String,
    /// Phase gate label.
    pub phases: String,
    /// `hit_rate(arbitrated) − hit_rate(static)` over every tenant's
    /// GETs combined.
    pub overall_hit_rate_gain: f64,
    /// Same, over the well-behaved (non-noisy) tenants only: the
    /// arbiter must not buy its overall gain by starving them.
    pub quiet_hit_rate_gain: f64,
    /// Same, over the noisy tenant alone.
    pub noisy_hit_rate_gain: f64,
}

/// The full matrix report serialized to `BENCH_results.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadgenReport {
    /// Run parameters.
    pub config: ConfigFingerprint,
    /// One entry per (mix × phases) cell, in run order.
    pub cells: Vec<CellResult>,
    /// Per-phase movement vs the `off` cell of the same mix (present
    /// only for mixes that ran an `off` baseline).
    pub phase_deltas: Vec<PhaseDelta>,
    /// Arbitrated-vs-static movement for every multi-tenant cell pair.
    pub tenant_deltas: Vec<TenantDelta>,
    /// Armed-vs-off movement for every skew-defense cell pair.
    pub defense_deltas: Vec<DefenseDelta>,
}

/// Compares a fresh report against a committed baseline: every cell
/// whose coordinates (mix, phases, engine, tenancy, defense, transport,
/// diurnal, autoscale) appear in both reports must keep its p99 within
/// `tolerance`
/// (fractional, e.g. `0.20` = +20%) of the baseline, plus a small
/// absolute allowance so microsecond-scale baselines don't fail on
/// scheduler noise. Returns one human-readable line per violation;
/// empty means the gate passes. Cells present on only one side are
/// ignored — adding a new mix must not invalidate old baselines.
pub fn compare_to_baseline(
    current: &LoadgenReport,
    baseline: &LoadgenReport,
    tolerance: f64,
) -> Vec<String> {
    compare_to_baseline_with(current, baseline, tolerance, |_| None)
}

/// [`compare_to_baseline`] with a recheck hook for transient stalls.
///
/// The CO-safe clock charges scheduler stalls to p99 by design, so on
/// a small runner a single multi-millisecond deschedule can blow one
/// arbitrary cell's budget. `recheck` is called (up to twice) with the
/// failing *current* cell and may produce a fresh measurement of the
/// same cell — a fresh cluster, the same replayed schedule. The cell is
/// absolved the moment a measurement fits the budget; a regression that
/// reproduces on every recheck still fails. Return `None` to decline
/// (the cell fails on its original measurement).
pub fn compare_to_baseline_with(
    current: &LoadgenReport,
    baseline: &LoadgenReport,
    tolerance: f64,
    mut recheck: impl FnMut(&CellResult) -> Option<CellResult>,
) -> Vec<String> {
    /// Absolute slack (µs) on top of the fractional budget. The
    /// CO-safe clock charges every scheduler stall to p99 by design,
    /// and on small CI runners a single ~1 ms generator deschedule is
    /// routine — so sub-millisecond movement is noise, not signal, at
    /// short measure windows. Genuine regressions at loadgen scale
    /// (a defense unwired, a lock on the hot path) move p99 by
    /// multiples, which still clears this slack.
    const ABS_SLACK_US: u64 = 1_000;
    // Baselines committed before the elasticity coordinates existed
    // carry them as empty strings — read those as the flat/off cells
    // every pre-elasticity run actually was.
    fn norm<'a>(s: &'a str, missing: &'a str) -> &'a str {
        if s.is_empty() {
            missing
        } else {
            s
        }
    }
    let mut failures = Vec::new();
    for base in &baseline.cells {
        let Some(cur) = current.cells.iter().find(|c| {
            c.mix == base.mix
                && c.phases == base.phases
                && c.engine == base.engine
                && c.tenancy == base.tenancy
                && c.defense == base.defense
                && c.transport == base.transport
                && norm(&c.diurnal, "flat") == norm(&base.diurnal, "flat")
                && norm(&c.autoscale, "off") == norm(&base.autoscale, "off")
        }) else {
            continue;
        };
        let budget = (base.latency.p99_us as f64 * (1.0 + tolerance)) as u64 + ABS_SLACK_US;
        let mut p99 = cur.latency.p99_us;
        for _ in 0..2 {
            if p99 <= budget {
                break;
            }
            match recheck(cur) {
                Some(fresh) => p99 = fresh.latency.p99_us,
                None => break,
            }
        }
        if p99 > budget {
            failures.push(format!(
                "{}/{}/{}/{}/{} p99 regressed: {}µs vs baseline {}µs (budget {}µs)",
                cur.engine,
                cur.mix,
                cur.phases,
                cur.tenancy,
                cur.defense,
                p99,
                base.latency.p99_us,
                budget
            ));
        }
    }
    failures
}

/// Runs the full matrix: every engine × mix × phase set, sharing the
/// pacing parameters of `base`.
pub fn run_matrix(
    base: &LoadgenConfig,
    mixes: &[Mix],
    phase_sets: &[PhaseSet],
    engines: &[EngineKind],
) -> LoadgenReport {
    let engines = if engines.is_empty() {
        vec![base.engine]
    } else {
        engines.to_vec()
    };
    let mut cells = Vec::new();
    for &engine in &engines {
        for &mix in mixes {
            for &phases in phase_sets {
                // The multi-tenant mix is always a pair: the static-
                // partitioning baseline and the arbitrated run, same
                // schedule, so the delta is pure policy.
                let tenancies: &[TenancyMode] = if mix == Mix::MultiTenant {
                    &[TenancyMode::Static, TenancyMode::Arbitrated]
                } else {
                    &[TenancyMode::Off]
                };
                // The extreme-zipf mix is the skew-defense ablation: the
                // identical schedule runs once per defense combination.
                let defenses: &[DefenseMode] = if mix == Mix::ExtremeZipf {
                    &DefenseMode::ALL
                } else {
                    std::slice::from_ref(&base.defense)
                };
                for &tenancy in tenancies {
                    for &defense in defenses {
                        let cfg = LoadgenConfig {
                            mix,
                            phases,
                            engine,
                            tenancy,
                            defense,
                            ..base.clone()
                        };
                        cells.push(run_cell(&cfg));
                    }
                }
            }
        }
    }
    let mut phase_deltas = Vec::new();
    for c in cells.iter().filter(|c| c.tenancy == "off") {
        if c.phases == PhaseSet::none().label() {
            continue;
        }
        // The phases-off baseline of the same mix, engine AND defense —
        // phase movement must never be conflated with defense movement.
        let Some(off) = cells.iter().find(|o| {
            o.mix == c.mix
                && o.engine == c.engine
                && o.tenancy == "off"
                && o.defense == c.defense
                && o.phases == PhaseSet::none().label()
        }) else {
            continue;
        };
        phase_deltas.push(PhaseDelta {
            mix: c.mix.clone(),
            engine: c.engine.clone(),
            phases: c.phases.clone(),
            p99_improvement_us: off.latency.p99_us as i64 - c.latency.p99_us as i64,
            p999_improvement_us: off.latency.p999_us as i64 - c.latency.p999_us as i64,
            mqps_delta: c.mqps - off.mqps,
        });
    }
    let mut defense_deltas = Vec::new();
    for c in cells.iter().filter(|c| c.defense != "off") {
        let Some(off) = cells.iter().find(|o| {
            o.mix == c.mix
                && o.engine == c.engine
                && o.tenancy == c.tenancy
                && o.phases == c.phases
                && o.defense == "off"
        }) else {
            continue;
        };
        defense_deltas.push(DefenseDelta {
            mix: c.mix.clone(),
            engine: c.engine.clone(),
            phases: c.phases.clone(),
            defense: c.defense.clone(),
            p99_improvement_us: off.latency.p99_us as i64 - c.latency.p99_us as i64,
            p999_improvement_us: off.latency.p999_us as i64 - c.latency.p999_us as i64,
            worst_worker_utilization_drop: off.worst_worker_utilization
                - c.worst_worker_utilization,
            front_hit_rate: if c.client.gets == 0 {
                0.0
            } else {
                c.client.front_hits as f64 / c.client.gets as f64
            },
            ring_cap_spills: c.server.ring_cap_spills,
        });
    }
    let hit_rate = |rows: &[&TenantCellResult]| -> f64 {
        let gets: u64 = rows.iter().map(|t| t.gets).sum();
        let hits: u64 = rows.iter().map(|t| t.hits).sum();
        if gets == 0 {
            1.0
        } else {
            hits as f64 / gets as f64
        }
    };
    let mut tenant_deltas = Vec::new();
    for arb in cells.iter().filter(|c| c.tenancy == "arbitrated") {
        let Some(stat) = cells.iter().find(|c| {
            c.tenancy == "static"
                && c.mix == arb.mix
                && c.engine == arb.engine
                && c.phases == arb.phases
        }) else {
            continue;
        };
        fn split(c: &CellResult, noisy: bool) -> Vec<&TenantCellResult> {
            c.tenants.iter().filter(|t| t.noisy == noisy).collect()
        }
        fn all(c: &CellResult) -> Vec<&TenantCellResult> {
            c.tenants.iter().collect()
        }
        tenant_deltas.push(TenantDelta {
            engine: arb.engine.clone(),
            phases: arb.phases.clone(),
            overall_hit_rate_gain: hit_rate(&all(arb)) - hit_rate(&all(stat)),
            quiet_hit_rate_gain: hit_rate(&split(arb, false)) - hit_rate(&split(stat, false)),
            noisy_hit_rate_gain: hit_rate(&split(arb, true)) - hit_rate(&split(stat, true)),
        });
    }
    LoadgenReport {
        config: ConfigFingerprint {
            version: env!("CARGO_PKG_VERSION").to_string(),
            seed: base.seed,
            rate: base.rate,
            threads: base.threads,
            warmup_secs: base.warmup_secs,
            measure_secs: base.measure_secs,
            records: base.records,
            transport: base.transport.label().to_string(),
            servers: base.servers,
            workers_per_server: base.workers_per_server,
            engines: engines.iter().map(|e| e.label().to_string()).collect(),
        },
        cells,
        phase_deltas,
        tenant_deltas,
        defense_deltas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_replay_exactly_for_a_seed() {
        let cfg = LoadgenConfig {
            rate: 1_000,
            threads: 3,
            warmup_secs: 0.1,
            measure_secs: 0.4,
            records: 100,
            ..LoadgenConfig::default()
        };
        let a = build_schedule(&cfg);
        let b = build_schedule(&cfg);
        assert_eq!(a, b, "same config must replay the same schedule");
        assert_eq!(schedule_digest(&a), schedule_digest(&b));
        let c = build_schedule(&LoadgenConfig {
            seed: cfg.seed + 1,
            ..cfg.clone()
        });
        assert_ne!(
            schedule_digest(&a),
            schedule_digest(&c),
            "different seeds must diverge"
        );
    }

    #[test]
    fn schedule_paces_at_the_configured_rate() {
        let cfg = LoadgenConfig {
            rate: 10_000,
            threads: 2,
            warmup_secs: 0.5,
            measure_secs: 0.5,
            records: 100,
            ..LoadgenConfig::default()
        };
        let schedule = build_schedule(&cfg);
        assert_eq!(schedule.len(), 2);
        for thread in &schedule {
            assert_eq!(thread.len(), 5_000, "5k ops/s × 1 s per thread");
            assert_eq!(thread[0].intended_us, 0);
            // Fixed-rate arrivals: the k-th op is intended at k·period.
            let period_us = 200;
            assert_eq!(thread[100].intended_us, 100 * period_us);
            assert!(thread
                .windows(2)
                .all(|w| w[0].intended_us <= w[1].intended_us));
        }
    }

    #[test]
    fn hotshift_rotates_keys_midway() {
        let cfg = LoadgenConfig {
            mix: Mix::HotShift,
            rate: 2_000,
            threads: 1,
            warmup_secs: 0.5,
            measure_secs: 0.5,
            records: 1_000,
            ..LoadgenConfig::default()
        };
        let plain = build_schedule(&LoadgenConfig {
            mix: Mix::B,
            ..cfg.clone()
        });
        let shifted = build_schedule(&cfg);
        let half = shifted[0].len() / 2;
        assert_eq!(
            plain[0][..half],
            shifted[0][..half],
            "identical before the shift point"
        );
        assert_ne!(
            plain[0][half..],
            shifted[0][half..],
            "key stream must rotate after the shift point"
        );
    }

    #[test]
    fn labels_parse_back() {
        for m in [
            Mix::A,
            Mix::B,
            Mix::C,
            Mix::HotShift,
            Mix::TtlHeavy,
            Mix::MultiTenant,
            Mix::ExtremeZipf,
            Mix::Scenario(ScenarioPack::VideoCdn),
            Mix::Scenario(ScenarioPack::SocialFeed),
            Mix::Scenario(ScenarioPack::SessionStore),
        ] {
            assert_eq!(Mix::parse(m.label()), Some(m));
        }
        for t in [TransportMode::InProc, TransportMode::Tcp] {
            assert_eq!(TransportMode::parse(t.label()), Some(t));
        }
        for d in DefenseMode::ALL {
            assert_eq!(DefenseMode::parse(d.label()), Some(d));
        }
        assert_eq!(Mix::parse("nope"), None);
    }

    /// Minimal cell at the given coordinates with the given p99.
    fn cell(mix: &str, defense: &str, p99_us: u64) -> CellResult {
        CellResult {
            mix: mix.into(),
            phases: "off".into(),
            transport: "inproc".into(),
            engine: "slab".into(),
            tenancy: "off".into(),
            defense: defense.into(),
            diurnal: "flat".into(),
            autoscale: "off".into(),
            target_rate: 1000,
            achieved_rate: 1000.0,
            mqps: 0.001,
            latency: LatencyPercentiles {
                p99_us,
                ..Default::default()
            },
            ops_measured: 1000,
            ops_total: 1200,
            schedule_digest: "0".into(),
            client: ClientCounts::default(),
            server: ServerCounts::default(),
            worst_worker_utilization: 1.0,
            counts_reconciled: true,
            scale_joins: 0,
            scale_drains: 0,
            node_hours: 0.0,
            avg_nodes: 2.0,
            origin: None,
            tenants: vec![],
        }
    }

    fn report(cells: Vec<CellResult>) -> LoadgenReport {
        LoadgenReport {
            config: ConfigFingerprint {
                version: "0".into(),
                seed: 42,
                rate: 1000,
                threads: 1,
                warmup_secs: 0.0,
                measure_secs: 1.0,
                records: 100,
                transport: "inproc".into(),
                servers: 2,
                workers_per_server: 2,
                engines: vec!["slab".into()],
            },
            cells,
            phase_deltas: vec![],
            tenant_deltas: vec![],
            defense_deltas: vec![],
        }
    }

    #[test]
    fn baseline_compare_flags_only_genuine_regressions() {
        let baseline = report(vec![
            cell("ycsb-b", "off", 1_000),
            cell("extreme-zipf", "both", 2_000),
            cell("retired-mix", "off", 10),
        ]);
        // Within budget: +20% of 1000 plus slack covers 1250.
        let ok = report(vec![
            cell("ycsb-b", "off", 1_250),
            cell("extreme-zipf", "both", 2_100),
        ]);
        assert!(compare_to_baseline(&ok, &baseline, 0.20).is_empty());

        // A genuine blowout on one cell is one failure line; the cell
        // missing from the current run is never flagged.
        let bad = report(vec![
            cell("ycsb-b", "off", 5_000),
            cell("extreme-zipf", "both", 2_100),
        ]);
        let failures = compare_to_baseline(&bad, &baseline, 0.20);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("ycsb-b"), "{failures:?}");

        // Tiny baselines are shielded by the absolute slack: 10µs → a
        // 90µs run is runner noise, not a regression.
        let noisy = report(vec![cell("retired-mix", "off", 90)]);
        assert!(compare_to_baseline(&noisy, &baseline, 0.20).is_empty());

        // Reports round-trip through serde, so committed baselines can
        // be reloaded and compared.
        let json = serde_json::to_string(&baseline).expect("serialize");
        let back: LoadgenReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.cells.len(), baseline.cells.len());
        assert!(compare_to_baseline(&bad, &back, 0.20).len() == 1);
    }

    #[test]
    fn baseline_recheck_absolves_transient_stalls_only() {
        let baseline = report(vec![cell("ycsb-b", "off", 1_000)]);
        let stalled = report(vec![cell("ycsb-b", "off", 50_000)]);

        // A regression that reproduces on every re-measurement fails,
        // and the failure line carries the final measurement.
        let mut calls = 0;
        let failures = compare_to_baseline_with(&stalled, &baseline, 0.20, |c| {
            calls += 1;
            let mut fresh = c.clone();
            fresh.latency.p99_us = 40_000;
            Some(fresh)
        });
        assert_eq!(calls, 2, "a persistent regression is re-measured twice");
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("40000"), "{failures:?}");

        // A re-measurement back inside the budget absolves the cell:
        // the original blowout was a scheduler stall, not a regression.
        let failures = compare_to_baseline_with(&stalled, &baseline, 0.20, |c| {
            let mut fresh = c.clone();
            fresh.latency.p99_us = 900;
            Some(fresh)
        });
        assert!(failures.is_empty(), "{failures:?}");

        // Declining the recheck falls back to the plain gate.
        let failures = compare_to_baseline_with(&stalled, &baseline, 0.20, |_| None);
        assert_eq!(failures.len(), 1);

        // Cells inside the budget are never re-measured at all.
        let ok = report(vec![cell("ycsb-b", "off", 1_100)]);
        let failures = compare_to_baseline_with(&ok, &baseline, 0.20, |_| {
            panic!("no recheck for a passing cell")
        });
        assert!(failures.is_empty());
    }

    /// The streamed generator must replay the exact byte-for-byte
    /// schedules of the fully-materialized implementation it replaced.
    /// These digests were captured from the pre-streaming code; a
    /// mismatch means committed baselines no longer describe the runs.
    #[test]
    fn streamed_schedules_match_pinned_digests() {
        let pin = LoadgenConfig {
            rate: 8_000,
            threads: 2,
            warmup_secs: 0.5,
            measure_secs: 2.0,
            records: 4_000,
            seed: 42,
            ..LoadgenConfig::default()
        };
        let pin2 = LoadgenConfig {
            rate: 3_000,
            threads: 3,
            warmup_secs: 0.15,
            measure_secs: 0.6,
            records: 400,
            seed: 7,
            ..LoadgenConfig::default()
        };
        let pinned: [(Mix, u64, u64); 7] = [
            (Mix::A, 15888823837573180473, 12600607677667349621),
            (Mix::B, 4259103438952254696, 8120209872834679380),
            (Mix::C, 2478245565823579101, 9251963053529161845),
            (Mix::HotShift, 10038153267685077720, 17777198603061315574),
            (Mix::TtlHeavy, 11949389470945714920, 9159858056968513582),
            (Mix::MultiTenant, 11024186252967614692, 3844852061421095439),
            (Mix::ExtremeZipf, 3200851058511634371, 17475542349080588867),
        ];
        for (mix, d1, d2) in pinned {
            let got1 = config_digest(&LoadgenConfig { mix, ..pin.clone() });
            assert_eq!(got1, d1, "{} diverged at PIN", mix.label());
            let got2 = config_digest(&LoadgenConfig {
                mix,
                ..pin2.clone()
            });
            assert_eq!(got2, d2, "{} diverged at PIN2", mix.label());
            // config_digest streams; schedule_digest materializes. Both
            // views of the same config must agree.
            let materialized = schedule_digest(&build_schedule(&LoadgenConfig {
                mix,
                ..pin2.clone()
            }));
            assert_eq!(materialized, d2, "{} streamed ≠ materialized", mix.label());
        }
    }

    #[test]
    fn scenario_schedules_replay_and_carry_bursts() {
        for pack in ScenarioPack::ALL {
            let cfg = LoadgenConfig {
                mix: Mix::Scenario(pack),
                rate: 4_000,
                threads: 2,
                warmup_secs: 0.1,
                measure_secs: 0.4,
                records: 500,
                ..LoadgenConfig::default()
            };
            let a = build_schedule(&cfg);
            let b = build_schedule(&cfg);
            assert_eq!(a, b, "{} must replay by seed", pack.label());
            assert_eq!(config_digest(&cfg), schedule_digest(&a));
            let diverged = config_digest(&LoadgenConfig {
                seed: cfg.seed + 1,
                ..cfg.clone()
            });
            assert_ne!(diverged, schedule_digest(&a), "{}", pack.label());
        }
        // social-feed is the MultiGET-heavy pack: its schedule must
        // contain runs of consecutive GETs sharing one intended slot
        // (the burst the run loop reassembles into one MultiGET).
        let cfg = LoadgenConfig {
            mix: Mix::Scenario(ScenarioPack::SocialFeed),
            rate: 4_000,
            threads: 1,
            warmup_secs: 0.1,
            measure_secs: 0.9,
            records: 500,
            ..LoadgenConfig::default()
        };
        let sched = build_schedule(&cfg);
        let bursts = sched[0]
            .windows(2)
            .filter(|w| {
                w[0].intended_us == w[1].intended_us
                    && w[0].op.kind == OpKind::Get
                    && w[1].op.kind == OpKind::Get
            })
            .count();
        assert!(bursts > 0, "social-feed schedule lost its MultiGET bursts");
        // session-store renews TTLs via Touch.
        let cfg = LoadgenConfig {
            mix: Mix::Scenario(ScenarioPack::SessionStore),
            ..cfg.clone()
        };
        let sched = build_schedule(&cfg);
        assert!(
            sched[0].iter().any(|s| s.op.kind == OpKind::Touch),
            "session-store schedule lost its Touch ops"
        );
    }

    #[test]
    fn diurnal_curve_stretches_the_arrival_process() {
        let flat = LoadgenConfig {
            rate: 8_000,
            threads: 1,
            warmup_secs: 0.1,
            measure_secs: 0.9,
            records: 200,
            ..LoadgenConfig::default()
        };
        let curved = LoadgenConfig {
            diurnal: Some(DiurnalCurve::two_phase(0.25)),
            ..flat.clone()
        };
        let f = build_schedule(&flat);
        let c = build_schedule(&curved);
        // The curve spends most of the run below multiplier 1, so the
        // same wall-clock window carries fewer ops.
        assert!(
            c[0].len() < f[0].len(),
            "trough multiplier must thin arrivals: {} vs {}",
            c[0].len(),
            f[0].len()
        );
        // Arrivals stay monotone and span the full run.
        assert!(c[0]
            .windows(2)
            .all(|w| w[0].intended_us <= w[1].intended_us));
        let last = c[0].last().expect("non-empty").intended_us;
        assert!(last > 900_000, "arrivals must cover the window: {last}");
        // The curve changes pacing, never the op *content* stream: the
        // k-th op of both schedules is the same op at different times.
        for (a, b) in f[0].iter().zip(c[0].iter()) {
            assert_eq!(a.op, b.op);
        }
        // And the digest (which covers intended times) must diverge, so
        // diurnal cells can never be confused with flat ones.
        assert_ne!(config_digest(&flat), config_digest(&curved));
    }

    #[test]
    fn origin_sim_coalesces_concurrent_misses() {
        let origin = Arc::new(OriginSim::new(30));
        let stored = Arc::new(AtomicU64::new(0));
        let start = Arc::new(Barrier::new(6));
        let mut handles = Vec::new();
        for _ in 0..6 {
            let origin = Arc::clone(&origin);
            let stored = Arc::clone(&stored);
            let start = Arc::clone(&start);
            handles.push(std::thread::spawn(move || {
                start.wait();
                let t0 = Instant::now();
                let class = origin.on_miss(b"the-key", || {
                    stored.fetch_add(1, Ordering::Relaxed);
                });
                (class, t0.elapsed())
            }));
        }
        let mut fetched = 0;
        let mut delayed = 0;
        for h in handles {
            let (class, dt) = h.join().expect("miss thread");
            match class {
                MissClass::Fetched => fetched += 1,
                MissClass::Delayed => delayed += 1,
            }
            assert!(
                dt >= Duration::from_millis(5),
                "every miss waits on the fetch: {dt:?}"
            );
        }
        assert_eq!(fetched, 1, "exactly one origin fetch per key");
        assert_eq!(delayed, 5, "latecomers coalesce behind it");
        assert_eq!(stored.load(Ordering::Relaxed), 1, "one store-back");
        assert_eq!(origin.fetches.load(Ordering::Relaxed), 1);
        assert_eq!(origin.coalesced.load(Ordering::Relaxed), 5);

        // After the fetch completes the key is no longer in flight: a
        // later miss leads a fresh fetch.
        match origin.on_miss(b"the-key", || {}) {
            MissClass::Fetched => {}
            MissClass::Delayed => panic!("completed fetch must not linger"),
        }
        assert_eq!(origin.fetches.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn defense_modes_arm_the_right_knobs() {
        assert!(DefenseMode::Off.front().is_none() && DefenseMode::Off.load_cap().is_none());
        assert!(DefenseMode::Front.front().is_some() && DefenseMode::Front.load_cap().is_none());
        assert!(DefenseMode::Bounded.front().is_none());
        let cap = DefenseMode::Bounded.load_cap().expect("cap armed");
        assert!(cap > 1.0, "a cap ≤ 1 could never be satisfied");
        assert!(DefenseMode::Both.front().is_some() && DefenseMode::Both.load_cap().is_some());
    }

    #[test]
    fn defense_mode_never_touches_the_schedule() {
        // The 2×2 defense ablation is only meaningful because all four
        // cells replay the identical op stream.
        let base = LoadgenConfig {
            mix: Mix::ExtremeZipf,
            rate: 2_000,
            threads: 2,
            warmup_secs: 0.1,
            measure_secs: 0.4,
            records: 300,
            ..LoadgenConfig::default()
        };
        let digests: Vec<u64> = DefenseMode::ALL
            .iter()
            .map(|&defense| {
                schedule_digest(&build_schedule(&LoadgenConfig {
                    defense,
                    ..base.clone()
                }))
            })
            .collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
    }
}
