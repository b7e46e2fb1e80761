//! The three workloads: their traffic, their seeded op streams, and the
//! check that every value a GET returns was written for its key.

use mbal_scenario::{origin_value, ScenarioGen, ScenarioPack};
use mbal_server::fault::SplitMix64;
use mbal_workload::{OpKind, Popularity, WorkloadGen, WorkloadSpec};

/// One benchmark workload. Everything not named here (cluster shape,
/// engine, balancer, client settings) is the same for all of them.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Over TCP loopback instead of the in-process registry.
    pub tcp: bool,
    /// Distinct keys, all pre-loaded during setup.
    pub records: u64,
    /// Cache memory per server.
    pub mem_per_server: usize,
    /// Offered rate of the latency phase, ops/s over all threads.
    pub rate: f64,
    /// Whether the benchmark rotates the hot head once, at the middle
    /// of the latency phase.
    pub rotate_mid: bool,
    /// Whether every GET must hit.
    pub zero_misses: bool,
    kind: Kind,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    SkewRead,
    ChurnWrite,
    TcpFeed,
}

const MIB: usize = 1 << 20;
/// `churn-write` value sizes are uniform over this range.
const CHURN_MIN: usize = 1024;
const CHURN_MAX: usize = 4096;
/// `social-feed` SET sizes (see `ScenarioPack::SocialFeed`).
const FEED_SIZES: [usize; 3] = [64, 256, 1024];
/// Added to every `social-feed` TTL (30 s or 120 s). `tcp-feed` must
/// always hit, so no key may expire within a run; a run of 30 s or more
/// would otherwise read keys whose 30 s TTL ran out at its end.
const FEED_TTL_SHIFT_MS: u64 = 3_600_000;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "skew-read",
        why: "in-proc 95% GET zipf 0.99, hot head rotated mid-run: client, mailbox hop, engine GET and all three balancer phases",
        tcp: false,
        records: 10_000,
        mem_per_server: 64 * MIB,
        rate: 10_000.0,
        rotate_mid: true,
        zero_misses: true,
        kind: Kind::SkewRead,
    },
    Workload {
        name: "churn-write",
        why: "in-proc 50% SET of 1-4 KiB values with 1-8 s TTLs over 2x cache memory: write, eviction and expiry paths; balancer idle",
        tcp: false,
        records: 16_000,
        mem_per_server: 8 * MIB,
        rate: 10_000.0,
        rotate_mid: false,
        zero_misses: false,
        kind: Kind::ChurnWrite,
    },
    Workload {
        name: "tcp-feed",
        why: "social-feed pack over TCP loopback with MultiGET bursts: the only workload through the codec, epoll loop and call_many",
        tcp: true,
        records: 10_000,
        mem_per_server: 64 * MIB,
        rate: 5_000.0,
        rotate_mid: false,
        zero_misses: true,
        kind: Kind::TcpFeed,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One operation as the generator issues it.
pub enum BenchOp {
    Get(Vec<u8>),
    Set {
        key: Vec<u8>,
        value: Vec<u8>,
        ttl_ms: u64,
    },
    MultiGet(Vec<Vec<u8>>),
}

impl BenchOp {
    /// Keys the operation touches; throughput and failures count keys.
    pub fn keys(&self) -> u64 {
        match self {
            BenchOp::MultiGet(keys) => keys.len() as u64,
            _ => 1,
        }
    }
}

/// Per-thread stream seed derived from the run seed.
pub fn thread_seed(seed: u64, thread: usize) -> u64 {
    seed ^ (thread as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Workload {
    fn spec(&self) -> WorkloadSpec {
        match self.kind {
            Kind::SkewRead => WorkloadSpec {
                records: self.records,
                read_fraction: 0.95,
                popularity: Popularity::Zipfian { theta: 0.99 },
                key_len: 24,
                value_len: 320,
                ttl_range_ms: (0, 0),
            },
            Kind::ChurnWrite => WorkloadSpec {
                records: self.records,
                read_fraction: 0.5,
                popularity: Popularity::Uniform,
                key_len: 24,
                value_len: CHURN_MAX,
                ttl_range_ms: (1_000, 8_000),
            },
            Kind::TcpFeed => ScenarioPack::SocialFeed.spec(self.records).base,
        }
    }

    /// The op stream of one generator thread.
    pub fn source(&self, seed: u64) -> OpSource {
        let gen = match self.kind {
            Kind::TcpFeed => Gen::Feed(Box::new(ScenarioGen::new(
                ScenarioPack::SocialFeed.spec(self.records),
                seed,
            ))),
            _ => Gen::Plain(WorkloadGen::new(self.spec(), seed)),
        };
        OpSource {
            kind: self.kind,
            gen,
            sizes: SplitMix64::new(seed ^ 0x5123_A11E),
            records: self.records,
        }
    }

    /// Every `(key, value)` of the load phase for run seed `seed`.
    pub fn load_pairs(&self, seed: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
        let gen = WorkloadGen::new(self.spec(), seed);
        gen.load_phase()
            .enumerate()
            .map(|(i, (k, mut v))| {
                if self.kind == Kind::ChurnWrite {
                    v.truncate(churn_len(&mut SplitMix64::new(i as u64 ^ seed)));
                }
                (k, v)
            })
            .collect()
    }

    /// The value check for a run with `threads` generator threads.
    pub fn validator(&self, seed: u64, threads: usize) -> Validator {
        let spec = self.spec();
        let mut gens = vec![WorkloadGen::new(spec.clone(), seed)];
        if self.kind != Kind::TcpFeed {
            gens.extend((0..threads).map(|t| WorkloadGen::new(spec.clone(), thread_seed(seed, t))));
        }
        Validator {
            kind: self.kind,
            gens,
        }
    }

    /// Why the traced run's per-layer metrics (looked up by `metric`)
    /// show that this workload did not stress the layers it was chosen
    /// for: the codec only on `tcp-feed`; the balancer on `skew-read` and
    /// not on `churn-write`; eviction on `churn-write` and not on
    /// `skew-read`.
    pub fn stress_problems(&self, metric: impl Fn(&str) -> f64) -> Vec<String> {
        let proto = metric("proto.encode_ns") + metric("proto.decode_ns");
        let balancer = metric("balancer.migrations") + metric("balancer.replica_installs");
        let evictions = metric("core.evictions_per_kop");
        let mut problems = Vec::new();
        let mut expect = |holds: bool, what: &str| {
            if !holds {
                problems.push(format!("{} must {what}", self.name));
            }
        };
        expect(
            (proto > 0.0) == self.tcp,
            if self.tcp {
                "cross the codec"
            } else {
                "bypass the codec"
            },
        );
        match self.kind {
            Kind::SkewRead => {
                expect(balancer > 0.0, "migrate or replicate cachelets");
                expect(evictions == 0.0, "evict nothing");
            }
            Kind::ChurnWrite => {
                expect(balancer == 0.0, "neither migrate nor replicate cachelets");
                expect(evictions > 0.0, "evict");
            }
            Kind::TcpFeed => {}
        }
        problems
    }
}

fn churn_len(rng: &mut SplitMix64) -> usize {
    CHURN_MIN + rng.next_below((CHURN_MAX - CHURN_MIN + 1) as u64) as usize
}

enum Gen {
    Plain(WorkloadGen),
    Feed(Box<ScenarioGen>),
}

/// A seeded, deterministic op stream.
pub struct OpSource {
    kind: Kind,
    gen: Gen,
    sizes: SplitMix64,
    records: u64,
}

impl OpSource {
    pub fn next_op(&mut self) -> BenchOp {
        match &mut self.gen {
            Gen::Plain(g) => {
                let op = g.next_op();
                match op.kind {
                    OpKind::Get => BenchOp::Get(op.key),
                    _ => {
                        let mut value = op.value;
                        if self.kind == Kind::ChurnWrite {
                            value.truncate(churn_len(&mut self.sizes));
                        }
                        BenchOp::Set {
                            key: op.key,
                            value,
                            ttl_ms: op.ttl_ms,
                        }
                    }
                }
            }
            Gen::Feed(g) => {
                let mut burst = g.next_burst();
                if burst.len() > 1 {
                    return BenchOp::MultiGet(burst.into_iter().map(|o| o.key).collect());
                }
                let op = burst.pop().expect("a burst holds at least one op");
                match op.kind {
                    OpKind::Get => BenchOp::Get(op.key),
                    _ => BenchOp::Set {
                        key: op.key,
                        value: op.value,
                        ttl_ms: if op.ttl_ms > 0 {
                            op.ttl_ms + FEED_TTL_SHIFT_MS
                        } else {
                            0
                        },
                    },
                }
            }
        }
    }

    /// Moves the hot head to a disjoint part of the key space.
    pub fn rotate(&mut self) {
        if let Gen::Plain(g) = &mut self.gen {
            g.set_index_offset(self.records / 2);
        }
    }
}

/// Checks that a value read for a key is one that was written for it:
/// the load phase's value, or any generator's value for that key.
pub struct Validator {
    kind: Kind,
    gens: Vec<WorkloadGen>,
}

/// The record index encoded in a `user000…123` key.
fn key_index(key: &[u8]) -> Option<u64> {
    std::str::from_utf8(key.strip_prefix(b"user")?)
        .ok()?
        .parse()
        .ok()
}

impl Validator {
    pub fn check(&self, key: &[u8], value: &[u8]) -> bool {
        let Some(idx) = key_index(key) else {
            return false;
        };
        match self.kind {
            Kind::SkewRead => self.gens.iter().any(|g| g.make_value(idx) == value),
            Kind::ChurnWrite => {
                (CHURN_MIN..=CHURN_MAX).contains(&value.len())
                    && self
                        .gens
                        .iter()
                        .any(|g| g.make_value(idx)[..value.len()] == *value)
            }
            Kind::TcpFeed => {
                self.gens[0].make_value(idx) == value
                    || (FEED_SIZES.contains(&value.len())
                        && origin_value(key, value.len()) == value)
            }
        }
    }
}
