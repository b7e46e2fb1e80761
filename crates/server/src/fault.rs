//! Seeded, deterministic fault injection at the transport layer.
//!
//! [`FaultInjector`] wraps any [`Transport`] — the in-process registry,
//! the TCP transport, or another injector — and perturbs traffic
//! according to a [`FaultPlan`]: dropping frames, delaying them,
//! duplicating them, reordering batches, resetting connections
//! mid-batch, and failing specific opcodes or endpoints outright.
//!
//! Every probabilistic decision comes from a private [`SplitMix64`]
//! stream seeded by the plan, and every injected fault is appended to a
//! schedule log. Two runs with the same plan and the same sequence of
//! transport calls therefore produce **byte-identical** schedules
//! ([`FaultInjector::schedule_digest`]) — a failing chaos run replays
//! exactly from its printed seed. Determinism requires the calls
//! themselves to arrive in a deterministic order, which the chaos
//! harness guarantees by driving the cluster from a single thread;
//! concurrent callers still get valid injection, just an
//! interleaving-dependent schedule.
//!
//! Fault semantics mirror a real lossy network as seen through an RPC
//! layer:
//!
//! - **Drop** — the frame never arrives; the caller burns its deadline
//!   and gets [`TransportError::Timeout`] (without actually sleeping —
//!   the model charges the timeout, not the wall clock).
//! - **Delay** — the frame is held for a drawn duration, then delivered
//!   with the remaining deadline; a delay past the deadline becomes a
//!   timeout.
//! - **Duplicate** — the frame is delivered twice back to back; the
//!   caller sees the second response. Receivers must be idempotent.
//! - **Reorder** — a batch executes in a shuffled order (results are
//!   returned in request order, as the opaque correlation would).
//! - **Reset** — the connection dies mid-exchange: the request (or a
//!   prefix of a batch) *is* executed, but the response is lost. This is
//!   the adversarial case for exactly-once assumptions.
//! - **Dead endpoint / failed opcode** — unconditional, probability-free
//!   failures for targeted partition and message-class outage tests.

use crate::transport::{batch_errs, Transport, TransportError, DEFAULT_DEADLINE};
use mbal_core::types::WorkerAddr;
use mbal_proto::codec::{opcode_of, Opcode};
use mbal_proto::{Request, Response};
use mbal_telemetry::{Counter, MetricsShard};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Tiny deterministic PRNG (Sebastiano Vigna's SplitMix64). The fault
/// layer deliberately avoids external RNG crates: a printed seed must
/// replay the same schedule forever, so the generator's algorithm has
/// to be pinned by this crate, not by a dependency's versioning policy.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`. `n` must be non-zero. The modulo
    /// bias is irrelevant at fault-injection sample sizes.
    pub fn next_below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What a single injected fault did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Frame discarded; the caller times out.
    Drop,
    /// Frame held for this many milliseconds before delivery.
    Delay(u64),
    /// Frame delivered twice.
    Duplicate,
    /// Batch executed in a shuffled order.
    Reorder,
    /// Connection reset after the request (or a batch prefix) executed.
    Reset,
    /// The endpoint is configured dead; nothing was delivered.
    DeadEndpoint,
    /// The opcode is configured to fail; nothing was delivered.
    FailOpcode,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Drop => write!(f, "drop"),
            FaultKind::Delay(ms) => write!(f, "delay({ms}ms)"),
            FaultKind::Duplicate => write!(f, "dup"),
            FaultKind::Reorder => write!(f, "reorder"),
            FaultKind::Reset => write!(f, "reset"),
            FaultKind::DeadEndpoint => write!(f, "dead-endpoint"),
            FaultKind::FailOpcode => write!(f, "fail-opcode"),
        }
    }
}

/// One entry of the injected-fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Position in the schedule (0-based injection order).
    pub seq: u64,
    /// What was injected.
    pub kind: FaultKind,
    /// Opcode of the affected frame ([`Opcode::Batch`] for batches).
    pub opcode: Opcode,
    /// The worker the frame was addressed to.
    pub addr: WorkerAddr,
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "#{} {} {:?} -> {}",
            self.seq, self.kind, self.opcode, self.addr
        )
    }
}

/// A seeded description of which faults to inject at which rates.
///
/// Probabilities are per transport call and are evaluated in the fixed
/// order drop → delay → duplicate → reorder → reset (one PRNG draw
/// decides among them), so the same plan replays identically.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// PRNG seed; printed by harnesses so failures replay.
    pub seed: u64,
    /// Probability a frame is dropped.
    pub drop: f64,
    /// Probability a frame is delayed.
    pub delay: f64,
    /// Probability a frame is duplicated.
    pub duplicate: f64,
    /// Probability a batch is executed in shuffled order.
    pub reorder: f64,
    /// Probability the connection resets after delivery.
    pub reset: f64,
    /// Inclusive range of injected delays, in milliseconds.
    pub delay_ms: (u64, u64),
    /// Opcodes that always fail with [`TransportError::Broken`].
    pub fail_opcodes: Vec<Opcode>,
    /// Endpoints that always fail with [`TransportError::Unreachable`].
    pub dead_endpoints: Vec<WorkerAddr>,
    /// Stop injecting after this many faults (0 = unlimited). The
    /// cut-off is deterministic for a deterministic call sequence.
    pub max_faults: u64,
}

impl FaultPlan {
    /// A plan that injects nothing (still deterministic — useful as a
    /// control arm).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            drop: 0.0,
            delay: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reset: 0.0,
            delay_ms: (1, 5),
            fail_opcodes: Vec::new(),
            dead_endpoints: Vec::new(),
            max_faults: 0,
        }
    }

    /// Drops each frame with probability `p`.
    pub fn drops(seed: u64, p: f64) -> Self {
        Self {
            drop: p,
            ..Self::none(seed)
        }
    }

    /// Delays each frame with probability `p`, for `lo..=hi` ms.
    pub fn delays(seed: u64, p: f64, lo_ms: u64, hi_ms: u64) -> Self {
        Self {
            delay: p,
            delay_ms: (lo_ms, hi_ms.max(lo_ms)),
            ..Self::none(seed)
        }
    }

    /// Duplicates each frame with probability `p`.
    pub fn duplicates(seed: u64, p: f64) -> Self {
        Self {
            duplicate: p,
            ..Self::none(seed)
        }
    }

    /// Shuffles each batch with probability `p`.
    pub fn reorders(seed: u64, p: f64) -> Self {
        Self {
            reorder: p,
            ..Self::none(seed)
        }
    }

    /// Resets the connection after delivery with probability `p`.
    pub fn resets(seed: u64, p: f64) -> Self {
        Self {
            reset: p,
            ..Self::none(seed)
        }
    }

    /// Adds an always-failing opcode.
    pub fn with_fail_opcode(mut self, op: Opcode) -> Self {
        self.fail_opcodes.push(op);
        self
    }

    /// Adds an always-unreachable endpoint.
    pub fn with_dead_endpoint(mut self, addr: WorkerAddr) -> Self {
        self.dead_endpoints.push(addr);
        self
    }

    /// Caps the number of injected faults.
    pub fn with_max_faults(mut self, n: u64) -> Self {
        self.max_faults = n;
        self
    }

    /// Sets the drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Sets the duplicate probability.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Sets the reset probability.
    pub fn with_reset(mut self, p: f64) -> Self {
        self.reset = p;
        self
    }

    /// Sets the reorder probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Sets the delay probability and range.
    pub fn with_delay(mut self, p: f64, lo_ms: u64, hi_ms: u64) -> Self {
        self.delay = p;
        self.delay_ms = (lo_ms, hi_ms.max(lo_ms));
        self
    }
}

struct InjectorState {
    rng: SplitMix64,
    log: Vec<FaultEvent>,
}

/// A [`Transport`] decorator that injects the faults of a [`FaultPlan`].
pub struct FaultInjector {
    plan: FaultPlan,
    inner: Arc<dyn Transport>,
    state: Mutex<InjectorState>,
    /// Endpoints killed at runtime via [`FaultInjector::kill_endpoint`],
    /// on top of the plan's static [`FaultPlan::dead_endpoints`]. Lets a
    /// scenario sever a node *mid-run* — the node-kill chaos class —
    /// without rebuilding the transport stack.
    killed: Mutex<Vec<WorkerAddr>>,
    metrics: Arc<MetricsShard>,
}

impl FaultInjector {
    /// Wraps `inner` with the fault behavior of `plan`.
    pub fn new(inner: Arc<dyn Transport>, plan: FaultPlan) -> Arc<Self> {
        let rng = SplitMix64::new(plan.seed);
        Arc::new(Self {
            plan,
            inner,
            state: Mutex::new(InjectorState {
                rng,
                log: Vec::new(),
            }),
            killed: Mutex::new(Vec::new()),
            metrics: Arc::new(MetricsShard::new()),
        })
    }

    /// Kills `addr` from now on: every call to it fails as unreachable,
    /// exactly like a plan-listed dead endpoint. Irrevocable, like the
    /// real thing.
    pub fn kill_endpoint(&self, addr: WorkerAddr) {
        let mut killed = self.killed.lock();
        if !killed.contains(&addr) {
            killed.push(addr);
        }
    }

    /// Whether `addr` is dead, statically (plan) or dynamically
    /// ([`FaultInjector::kill_endpoint`]).
    fn is_dead(&self, addr: WorkerAddr) -> bool {
        self.plan.dead_endpoints.contains(&addr) || self.killed.lock().contains(&addr)
    }

    /// The seed this injector replays from.
    pub fn seed(&self) -> u64 {
        self.plan.seed
    }

    /// The plan being executed.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> u64 {
        self.state.lock().log.len() as u64
    }

    /// A copy of the injected-fault schedule, in injection order.
    pub fn schedule(&self) -> Vec<FaultEvent> {
        self.state.lock().log.clone()
    }

    /// The schedule as one line per fault — the byte-comparable replay
    /// artifact two same-seed runs must agree on.
    pub fn schedule_digest(&self) -> String {
        let state = self.state.lock();
        let mut out = String::new();
        for ev in &state.log {
            out.push_str(&ev.to_string());
            out.push('\n');
        }
        out
    }

    /// Counters recorded by this injector ([`Counter::FaultsInjected`],
    /// [`Counter::TransportTimeouts`]).
    pub fn metrics(&self) -> Arc<MetricsShard> {
        Arc::clone(&self.metrics)
    }

    /// True once the fault budget is spent.
    fn budget_spent(&self, log_len: usize) -> bool {
        self.plan.max_faults > 0 && log_len as u64 >= self.plan.max_faults
    }

    /// Records an unconditional fault (dead endpoint / failed opcode).
    fn record(&self, kind: FaultKind, opcode: Opcode, addr: WorkerAddr) {
        let mut state = self.state.lock();
        let seq = state.log.len() as u64;
        state.log.push(FaultEvent {
            seq,
            kind,
            opcode,
            addr,
        });
        self.metrics.incr(Counter::FaultsInjected);
    }

    /// Draws at most one probabilistic fault for a frame and records it.
    /// Exactly one uniform draw decides among the classes (plus one more
    /// for a delay amount), keeping the stream position a pure function
    /// of the call sequence.
    fn roll(&self, opcode: Opcode, addr: WorkerAddr) -> Option<FaultKind> {
        let mut state = self.state.lock();
        if self.budget_spent(state.log.len()) {
            return None;
        }
        let x = state.rng.next_f64();
        let p = &self.plan;
        let mut edge = p.drop;
        let kind = if x < edge {
            FaultKind::Drop
        } else {
            edge += p.delay;
            if x < edge {
                let (lo, hi) = p.delay_ms;
                let ms = lo + state.rng.next_below(hi - lo + 1);
                FaultKind::Delay(ms)
            } else {
                edge += p.duplicate;
                if x < edge {
                    FaultKind::Duplicate
                } else {
                    edge += p.reorder;
                    if x < edge {
                        FaultKind::Reorder
                    } else if x < edge + p.reset {
                        FaultKind::Reset
                    } else {
                        return None;
                    }
                }
            }
        };
        let seq = state.log.len() as u64;
        state.log.push(FaultEvent {
            seq,
            kind,
            opcode,
            addr,
        });
        self.metrics.incr(Counter::FaultsInjected);
        Some(kind)
    }

    /// Fisher–Yates shuffle driven by the plan's PRNG stream.
    fn shuffled_order(&self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        let mut state = self.state.lock();
        for i in (1..n).rev() {
            let j = state.rng.next_below(i as u64 + 1) as usize;
            order.swap(i, j);
        }
        order
    }

    fn injected_unreachable(&self, addr: WorkerAddr) -> TransportError {
        TransportError::Unreachable(addr)
    }

    fn injected_opcode_failure(&self, op: Opcode) -> TransportError {
        TransportError::Broken(format!("injected failure for opcode {op:?}"))
    }
}

impl Transport for FaultInjector {
    fn call(&self, addr: WorkerAddr, req: Request) -> Result<Response, TransportError> {
        self.call_with_deadline(addr, req, DEFAULT_DEADLINE)
    }

    fn call_with_deadline(
        &self,
        addr: WorkerAddr,
        req: Request,
        deadline: Duration,
    ) -> Result<Response, TransportError> {
        let op = opcode_of(&req);
        if self.is_dead(addr) {
            self.record(FaultKind::DeadEndpoint, op, addr);
            return Err(self.injected_unreachable(addr));
        }
        if self.plan.fail_opcodes.contains(&op) {
            self.record(FaultKind::FailOpcode, op, addr);
            return Err(self.injected_opcode_failure(op));
        }
        match self.roll(op, addr) {
            None | Some(FaultKind::Reorder) => {
                // Nothing to reorder in a unary call; deliver as-is.
                self.inner.call_with_deadline(addr, req, deadline)
            }
            Some(FaultKind::Drop) => {
                // The frame vanished. The caller would block for its
                // whole deadline; the injector charges the timeout
                // without sleeping so chaos runs stay fast.
                self.metrics.incr(Counter::TransportTimeouts);
                Err(TransportError::Timeout(addr))
            }
            Some(FaultKind::Delay(ms)) => {
                let held = Duration::from_millis(ms);
                if held >= deadline {
                    self.metrics.incr(Counter::TransportTimeouts);
                    return Err(TransportError::Timeout(addr));
                }
                std::thread::sleep(held);
                self.inner.call_with_deadline(addr, req, deadline - held)
            }
            Some(FaultKind::Duplicate) => {
                let _ = self.inner.call_with_deadline(addr, req.clone(), deadline);
                self.inner.call_with_deadline(addr, req, deadline)
            }
            Some(FaultKind::Reset) => {
                // Delivered and executed, but the response never made it
                // back — the caller cannot tell this from a pre-delivery
                // loss, which is exactly what makes it dangerous.
                let _ = self.inner.call_with_deadline(addr, req, deadline);
                Err(TransportError::Broken("injected connection reset".into()))
            }
            Some(FaultKind::DeadEndpoint) | Some(FaultKind::FailOpcode) => {
                unreachable!("roll never draws unconditional faults")
            }
        }
    }

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
        if self.is_dead(addr) {
            self.record(FaultKind::DeadEndpoint, Opcode::Batch, addr);
            return batch_errs(n, self.injected_unreachable(addr));
        }
        // Per-opcode failures split the batch: matching slots fail,
        // the rest forwards as one smaller batch.
        if !self.plan.fail_opcodes.is_empty()
            && reqs
                .iter()
                .any(|r| self.plan.fail_opcodes.contains(&opcode_of(r)))
        {
            let mut out: Vec<Option<Result<Response, TransportError>>> = vec![None; n];
            let mut fwd = Vec::new();
            let mut fwd_slots = Vec::new();
            for (i, r) in reqs.into_iter().enumerate() {
                let op = opcode_of(&r);
                if self.plan.fail_opcodes.contains(&op) {
                    self.record(FaultKind::FailOpcode, op, addr);
                    out[i] = Some(Err(self.injected_opcode_failure(op)));
                } else {
                    fwd_slots.push(i);
                    fwd.push(r);
                }
            }
            for (slot, res) in fwd_slots
                .into_iter()
                .zip(self.call_many(addr, fwd, deadline))
            {
                out[slot] = Some(res);
            }
            return out.into_iter().map(|o| o.expect("slot filled")).collect();
        }
        match self.roll(Opcode::Batch, addr) {
            None => self.inner.call_many(addr, reqs, deadline),
            Some(FaultKind::Drop) => {
                self.metrics.incr(Counter::TransportTimeouts);
                batch_errs(n, TransportError::Timeout(addr))
            }
            Some(FaultKind::Delay(ms)) => {
                let held = Duration::from_millis(ms);
                if held >= deadline {
                    self.metrics.incr(Counter::TransportTimeouts);
                    return batch_errs(n, TransportError::Timeout(addr));
                }
                std::thread::sleep(held);
                self.inner.call_many(addr, reqs, deadline - held)
            }
            Some(FaultKind::Duplicate) => {
                let _ = self.inner.call_many(addr, reqs.clone(), deadline);
                self.inner.call_many(addr, reqs, deadline)
            }
            Some(FaultKind::Reorder) => {
                // Execute in shuffled order; return results in request
                // order, as opaque correlation would over the wire.
                let order = self.shuffled_order(n);
                let permuted: Vec<Request> = order.iter().map(|&i| reqs[i].clone()).collect();
                let results = self.inner.call_many(addr, permuted, deadline);
                let mut out: Vec<Option<Result<Response, TransportError>>> = vec![None; n];
                for (slot, res) in order.into_iter().zip(results) {
                    out[slot] = Some(res);
                }
                out.into_iter()
                    .map(|o| {
                        o.unwrap_or_else(|| {
                            Err(TransportError::Broken("reorder lost a slot".into()))
                        })
                    })
                    .collect()
            }
            Some(FaultKind::Reset) => {
                // A prefix of the batch executes, then the connection
                // dies: prefix slots carry real results, the rest error.
                let cut = {
                    let mut state = self.state.lock();
                    state.rng.next_below(n as u64) as usize
                };
                let mut out = if cut > 0 {
                    self.inner.call_many(addr, reqs[..cut].to_vec(), deadline)
                } else {
                    Vec::new()
                };
                while out.len() < n {
                    out.push(Err(TransportError::Broken(
                        "injected connection reset mid-batch".into(),
                    )));
                }
                out
            }
            Some(FaultKind::DeadEndpoint) | Some(FaultKind::FailOpcode) => {
                unreachable!("roll never draws unconditional faults")
            }
        }
    }

    fn cast(&self, addr: WorkerAddr, req: Request) {
        let op = opcode_of(&req);
        if self.is_dead(addr) {
            self.record(FaultKind::DeadEndpoint, op, addr);
            return;
        }
        if self.plan.fail_opcodes.contains(&op) {
            self.record(FaultKind::FailOpcode, op, addr);
            return;
        }
        match self.roll(op, addr) {
            Some(FaultKind::Drop) => {}
            Some(FaultKind::Duplicate) => {
                self.inner.cast(addr, req.clone());
                self.inner.cast(addr, req);
            }
            // Delay/reorder/reset have no observable meaning for a
            // one-way frame that outruns its sender; deliver as-is.
            _ => self.inner.cast(addr, req),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::serial_call_many;
    use mbal_core::types::CacheletId;
    use mbal_proto::Status;

    /// Echoes a GET's key back as its value; acks everything else.
    struct Echo;

    impl Transport for Echo {
        fn call_with_deadline(
            &self,
            addr: WorkerAddr,
            req: Request,
            _deadline: Duration,
        ) -> Result<Response, TransportError> {
            self.call(addr, req)
        }

        fn call_many(
            &self,
            addr: WorkerAddr,
            reqs: Vec<Request>,
            deadline: Duration,
        ) -> Vec<Result<Response, TransportError>> {
            serial_call_many(self, addr, reqs, deadline)
        }

        fn call(&self, _addr: WorkerAddr, req: Request) -> Result<Response, TransportError> {
            Ok(match req {
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
        }

        fn cast(&self, _addr: WorkerAddr, _req: Request) {}
    }

    fn get(i: usize) -> Request {
        Request::Get {
            cachelet: CacheletId(0),
            key: format!("k{i}").into_bytes(),
        }
    }

    fn run_sequence(plan: FaultPlan) -> (String, Vec<Result<Response, TransportError>>) {
        let inj = FaultInjector::new(Arc::new(Echo), plan);
        let a = WorkerAddr::new(0, 0);
        let b = WorkerAddr::new(1, 0);
        let mut outcomes = Vec::new();
        for i in 0..40 {
            let target = if i % 3 == 0 { b } else { a };
            outcomes.push(inj.call(target, get(i)));
        }
        outcomes.extend(inj.call_many(a, (0..8).map(get).collect(), DEFAULT_DEADLINE));
        (inj.schedule_digest(), outcomes)
    }

    #[test]
    fn same_seed_same_schedule_and_outcomes() {
        let plan = FaultPlan::none(7)
            .with_drop(0.2)
            .with_duplicate(0.1)
            .with_reset(0.1)
            .with_reorder(0.1);
        let (d1, o1) = run_sequence(plan.clone());
        let (d2, o2) = run_sequence(plan);
        assert_eq!(d1, d2, "schedules must be byte-identical");
        assert_eq!(o1, o2, "outcomes must replay identically");
        assert!(!d1.is_empty(), "this plan injects at these rates");
    }

    #[test]
    fn different_seeds_diverge() {
        let (d1, _) = run_sequence(FaultPlan::drops(1, 0.3));
        let (d2, _) = run_sequence(FaultPlan::drops(2, 0.3));
        assert_ne!(d1, d2, "different seeds must give different schedules");
    }

    #[test]
    fn drop_times_out_and_counts() {
        let inj = FaultInjector::new(Arc::new(Echo), FaultPlan::drops(3, 1.0));
        let a = WorkerAddr::new(0, 0);
        assert_eq!(inj.call(a, get(0)), Err(TransportError::Timeout(a)));
        assert_eq!(inj.injected(), 1);
        let m = inj.metrics().snapshot();
        assert_eq!(m.get(Counter::FaultsInjected), 1);
        assert_eq!(m.get(Counter::TransportTimeouts), 1);
    }

    #[test]
    fn dead_endpoint_and_fail_opcode_short_circuit() {
        let dead = WorkerAddr::new(9, 9);
        let plan = FaultPlan::none(4)
            .with_dead_endpoint(dead)
            .with_fail_opcode(Opcode::Delete);
        let inj = FaultInjector::new(Arc::new(Echo), plan);
        assert_eq!(
            inj.call(dead, get(0)),
            Err(TransportError::Unreachable(dead))
        );
        let del = Request::Delete {
            cachelet: CacheletId(0),
            key: b"k".to_vec(),
        };
        assert!(matches!(
            inj.call(WorkerAddr::new(0, 0), del),
            Err(TransportError::Broken(_))
        ));
        // A clean op still goes through.
        assert!(inj.call(WorkerAddr::new(0, 0), get(1)).is_ok());
        assert_eq!(inj.injected(), 2);
        let kinds: Vec<FaultKind> = inj.schedule().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![FaultKind::DeadEndpoint, FaultKind::FailOpcode]);
    }

    #[test]
    fn reorder_returns_results_in_request_order() {
        let inj = FaultInjector::new(Arc::new(Echo), FaultPlan::reorders(5, 1.0));
        let out = inj.call_many(
            WorkerAddr::new(0, 0),
            (0..6).map(get).collect(),
            DEFAULT_DEADLINE,
        );
        for (i, r) in out.into_iter().enumerate() {
            assert_eq!(
                r,
                Ok(Response::Value {
                    value: format!("k{i}").into_bytes().into(),
                    replicas: vec![]
                }),
                "slot {i} must hold its own result despite shuffled execution"
            );
        }
    }

    #[test]
    fn reset_mid_batch_fails_a_suffix() {
        let inj = FaultInjector::new(Arc::new(Echo), FaultPlan::resets(6, 1.0));
        let out = inj.call_many(
            WorkerAddr::new(0, 0),
            (0..8).map(get).collect(),
            DEFAULT_DEADLINE,
        );
        assert_eq!(out.len(), 8);
        let cut = out
            .iter()
            .position(|r| r.is_err())
            .expect("some slot fails");
        assert!(out[..cut].iter().all(|r| r.is_ok()));
        assert!(out[cut..].iter().all(|r| r.is_err()));
    }

    #[test]
    fn max_faults_caps_injection() {
        let inj = FaultInjector::new(Arc::new(Echo), FaultPlan::drops(8, 1.0).with_max_faults(3));
        let a = WorkerAddr::new(0, 0);
        let failures = (0..10).filter(|&i| inj.call(a, get(i)).is_err()).count();
        assert_eq!(failures, 3);
        assert_eq!(inj.injected(), 3);
    }

    #[test]
    fn duplicate_delivers_twice() {
        use std::sync::atomic::{AtomicU64, Ordering};
        struct Counting(AtomicU64);
        impl Transport for Counting {
            fn call_with_deadline(
                &self,
                addr: WorkerAddr,
                req: Request,
                _deadline: Duration,
            ) -> Result<Response, TransportError> {
                self.call(addr, req)
            }

            fn call_many(
                &self,
                addr: WorkerAddr,
                reqs: Vec<Request>,
                deadline: Duration,
            ) -> Vec<Result<Response, TransportError>> {
                serial_call_many(self, addr, reqs, deadline)
            }

            fn call(&self, _addr: WorkerAddr, _req: Request) -> Result<Response, TransportError> {
                self.0.fetch_add(1, Ordering::SeqCst);
                Ok(Response::Stored)
            }
            fn cast(&self, _addr: WorkerAddr, _req: Request) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let counting = Arc::new(Counting(AtomicU64::new(0)));
        let inj = FaultInjector::new(
            Arc::clone(&counting) as Arc<dyn Transport>,
            FaultPlan::duplicates(9, 1.0),
        );
        assert_eq!(
            inj.call(WorkerAddr::new(0, 0), get(0)),
            Ok(Response::Stored)
        );
        assert_eq!(counting.0.load(Ordering::SeqCst), 2);
        inj.cast(WorkerAddr::new(0, 0), get(1));
        assert_eq!(counting.0.load(Ordering::SeqCst), 4);
    }
}
