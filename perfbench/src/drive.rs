//! The two measured phases of a run, executed by each generator thread:
//! an open loop at a fixed offered rate whose latency is charged from
//! each op's intended send time, and a closed loop with one outstanding
//! op per thread for capacity.

use crate::trace;
use crate::workload::{BenchOp, OpSource, Validator};
use mbal_client::{Client, ClientError, SetOptions};
use mbal_core::clock::{Clock, RealClock};
use mbal_core::types::Value;
use std::time::{Duration, Instant};

/// What one thread observed in one phase. Counts are in keys: a
/// MultiGET of eight keys is eight operations.
#[derive(Default)]
pub struct Outcome {
    /// `(intended send, latency from intended send to completion)`, ns,
    /// per single GET.
    pub get_ns: Vec<(u64, u64)>,
    /// The same for SETs.
    pub set_ns: Vec<(u64, u64)>,
    /// The same per MultiGET call.
    pub mget_ns: Vec<(u64, u64)>,
    /// Actual minus intended send time, ns.
    pub send_lag_ns: Vec<u64>,
    /// Completed keys per window of a closed loop.
    pub per_window: Vec<u64>,
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    pub get_keys: u64,
    pub get_hits: u64,
    /// GET keys that missed in an op the client had to redirect: the
    /// key's bucket was in flight between workers.
    pub excused_misses: u64,
    /// GET keys of ops that failed; they count as misses, not as hits.
    pub failed_get_keys: u64,
    pub bad_values: u64,
}

impl Outcome {
    pub fn merge(&mut self, o: Outcome) {
        self.get_ns.extend(o.get_ns);
        self.set_ns.extend(o.set_ns);
        self.mget_ns.extend(o.mget_ns);
        self.send_lag_ns.extend(o.send_lag_ns);
        if self.per_window.len() < o.per_window.len() {
            self.per_window.resize(o.per_window.len(), 0);
        }
        for (a, b) in self.per_window.iter_mut().zip(o.per_window) {
            *a += b;
        }
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.failed += o.failed;
        self.get_keys += o.get_keys;
        self.get_hits += o.get_hits;
        self.excused_misses += o.excused_misses;
        self.failed_get_keys += o.failed_get_keys;
        self.bad_values += o.bad_values;
    }
}

/// The parts of a thread that every phase uses.
pub struct Gen<'a> {
    pub client: Client,
    pub src: OpSource,
    pub validator: &'a Validator,
    pub clock: &'a RealClock,
    /// Op ids are `thread << 48 | sequence`, shared by an op's spans.
    pub op_base: u64,
    pub seq: u64,
    /// Failed ops so far; the first few are reported on stderr.
    pub errors: u64,
}

enum Reply {
    Get(Result<Option<Value>, ClientError>),
    Set(Result<(), ClientError>),
    Multi(Result<Vec<Option<Value>>, ClientError>),
}

impl Gen<'_> {
    fn report_failure(&mut self, e: &ClientError) {
        self.errors += 1;
        if self.errors <= 3 {
            eprintln!("op {:#x} failed: {e:?}", self.op_base | self.seq);
        }
    }

    /// Issues `op`; returns whether it succeeded and when the client
    /// returned. Every value it read is checked (after that instant) and
    /// counted into `out`.
    fn execute(&mut self, op: &BenchOp, out: &mut Outcome) -> (bool, Instant) {
        self.seq += 1;
        let opts = match op {
            BenchOp::Set { ttl_ms, .. } if *ttl_ms > 0 => {
                SetOptions::new().expiry_ms(self.clock.now_millis() + ttl_ms)
            }
            _ => SetOptions::new(),
        };
        let span = trace::now().map(|t| {
            let name = match op {
                BenchOp::Get(_) => trace::Name::ClientGet,
                BenchOp::Set { .. } => trace::Name::ClientSet,
                BenchOp::MultiGet(_) => trace::Name::ClientMultiGet,
            };
            trace::open(self.op_base | self.seq, name, t)
        });
        let moved = self.client.stats().moved;
        let reply = match op {
            BenchOp::Get(key) => Reply::Get(self.client.get(key)),
            BenchOp::Set { key, value, .. } => {
                Reply::Set(self.client.set_opts(key, value, opts).map(drop))
            }
            BenchOp::MultiGet(keys) => Reply::Multi(self.client.multi_get(keys)),
        };
        let finished = Instant::now();
        if let Some(idx) = span {
            trace::close(idx);
        }
        let redirected = self.client.stats().moved > moved;
        let mut check = |key: &[u8], value: &Option<Value>| {
            out.get_keys += 1;
            match value {
                Some(v) => {
                    out.get_hits += 1;
                    if !self.validator.check(key, v) {
                        out.bad_values += 1;
                    }
                }
                None if redirected => out.excused_misses += 1,
                None => {}
            }
        };
        if let Reply::Get(Err(e)) | Reply::Set(Err(e)) | Reply::Multi(Err(e)) = &reply {
            self.report_failure(e);
        }
        let ok = match (op, reply) {
            (BenchOp::Get(key), Reply::Get(Ok(v))) => {
                check(key, &v);
                true
            }
            (BenchOp::MultiGet(keys), Reply::Multi(Ok(values))) => {
                for (k, v) in keys.iter().zip(&values) {
                    check(k, v);
                }
                true
            }
            (BenchOp::Get(_), _) | (BenchOp::MultiGet(_), _) => {
                out.get_keys += op.keys();
                out.failed_get_keys += op.keys();
                false
            }
            (_, Reply::Set(r)) => r.is_ok(),
            _ => unreachable!("a reply matches its op"),
        };
        (ok, finished)
    }
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Sets the calling thread's timer slack to 1 ns, so a sleep ends when
/// asked instead of up to 50 µs later (the Linux default slack).
pub fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: prctl(PR_SET_TIMERSLACK, n) takes integer arguments only
    // and changes nothing but the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Sleeps until `target`. With the timer slack tightened the sleep ends
/// on time, and a sleeping generator leaves both cores to the cluster.
fn pace_until(target: Instant) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        std::thread::sleep(target - now);
    }
}

/// The open-loop schedule of one thread.
pub struct OpenLoop {
    /// Shared time origin of the phase.
    pub origin: Instant,
    /// Ops per second for this thread.
    pub rate: f64,
    /// Fraction of a period this thread's slots are shifted by, so the
    /// threads' arrivals interleave.
    pub phase: f64,
    pub duration: Duration,
    /// No op is sent, and none counts as completed, after this instant.
    pub deadline: Instant,
    /// Ops intended before this offset are run but not timed.
    pub warmup: Duration,
    /// Slot from which on the hot head is rotated, if it is.
    pub rotate_at: Option<u64>,
}

impl OpenLoop {
    pub fn run(&self, gen: &mut Gen<'_>) -> Outcome {
        let mut out = Outcome::default();
        let period_ns = 1e9 / self.rate;
        let slots = (self.rate * self.duration.as_secs_f64()).ceil() as u64;
        let warmup_ns = self.warmup.as_nanos() as u64;
        let mut slot = 0u64;
        let mut rotated = false;
        while slot < slots {
            if !rotated && self.rotate_at.is_some_and(|at| slot >= at) {
                gen.src.rotate();
                rotated = true;
            }
            // Prepared before pacing, so generating the op is absorbed
            // by the slack before its send time.
            let op = gen.src.next_op();
            let keys = op.keys();
            let intended_ns = ((slot as f64 + self.phase) * period_ns) as u64;
            let intended = self.origin + Duration::from_nanos(intended_ns);
            slot += keys;
            if Instant::now() >= self.deadline {
                out.attempted += keys;
                out.failed += keys;
                continue;
            }
            pace_until(intended);
            let sent = Instant::now();
            out.send_lag_ns
                .push(sent.saturating_duration_since(intended).as_nanos() as u64);
            out.attempted += keys;
            let (ok, finished) = gen.execute(&op, &mut out);
            let ok = ok && finished <= self.deadline;
            if ok {
                out.completed += keys;
            } else {
                out.failed += keys;
            }
            if intended_ns < warmup_ns {
                continue;
            }
            // A failed op misses every latency limit.
            let lat = if ok {
                finished.saturating_duration_since(intended).as_nanos() as u64
            } else {
                u64::MAX
            };
            match op {
                BenchOp::Get(_) => out.get_ns.push((intended_ns, lat)),
                BenchOp::Set { .. } => out.set_ns.push((intended_ns, lat)),
                BenchOp::MultiGet(_) => out.mget_ns.push((intended_ns, lat)),
            }
        }
        out
    }
}

/// Back-to-back ops from `origin` until `end`; ops finishing after
/// `deadline` fail. Completions are also counted per `window` since
/// `origin`.
pub fn closed_loop(
    gen: &mut Gen<'_>,
    origin: Instant,
    end: Instant,
    deadline: Instant,
    window: Duration,
) -> Outcome {
    let mut out = Outcome::default();
    while Instant::now() < end {
        let op = gen.src.next_op();
        let keys = op.keys();
        out.attempted += keys;
        let (ok, finished) = gen.execute(&op, &mut out);
        if ok && finished <= deadline {
            out.completed += keys;
            let w = (finished.saturating_duration_since(origin).as_nanos() / window.as_nanos())
                as usize;
            if out.per_window.len() <= w {
                out.per_window.resize(w + 1, 0);
            }
            out.per_window[w] += keys;
        } else {
            out.failed += keys;
        }
    }
    out
}
