//! Operation-mix generation and the paper's workload presets.

use crate::dist::{Hotspot, KeyDist, ScrambledZipfian, Uniform, Zipfian};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The kind of a generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A lookup.
    Get,
    /// An insert/update carrying a value.
    Set,
    /// A delete.
    Delete,
    /// A TTL renewal: pushes the key's expiry out to `ttl_ms` from now
    /// without rewriting the value. Never emitted by the YCSB presets
    /// (their streams predate the variant and must stay bit-identical);
    /// the scenario packs' session-store mix uses it for per-key
    /// session keep-alive.
    Touch,
}

/// One generated operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Operation kind.
    pub kind: OpKind,
    /// The key bytes.
    pub key: Vec<u8>,
    /// Value bytes for `Set`; empty otherwise.
    pub value: Vec<u8>,
    /// Relative TTL in milliseconds for `Set` (0 = no expiry). The
    /// consumer converts it to an absolute expiry at send time.
    pub ttl_ms: u64,
}

/// Which key-popularity distribution a workload uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// Uniform popularity.
    Uniform,
    /// Zipfian with the given theta, ranks scattered by hashing.
    Zipfian {
        /// Skew parameter in `(0, 1)`.
        theta: f64,
    },
    /// Zipfian with clustered ranks (rank 0 is key 0); mostly useful for
    /// analytical tests.
    ZipfianClustered {
        /// Skew parameter in `(0, 1)`.
        theta: f64,
    },
    /// Hotspot: `hot_ops` of traffic on `hot_data` of the key space.
    Hotspot {
        /// Fraction of the key space that is hot.
        hot_data: f64,
        /// Fraction of operations hitting the hot set.
        hot_ops: f64,
    },
}

/// A workload specification.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of distinct keys.
    pub records: u64,
    /// Fraction of operations that are GETs, in `[0, 1]`.
    pub read_fraction: f64,
    /// Key popularity.
    pub popularity: Popularity,
    /// Key length in bytes (keys are fixed-width, zero-padded).
    pub key_len: usize,
    /// Value length in bytes.
    pub value_len: usize,
    /// Relative TTL range `[lo, hi]` in milliseconds applied to every
    /// generated SET; `(0, 0)` (the default for all presets) means no
    /// expiry. Each SET draws its TTL uniformly from the range, so a
    /// TTL-heavy mix exercises the engines' expiry paths.
    pub ttl_range_ms: (u64, u64),
}

impl WorkloadSpec {
    /// The microbenchmark workload of Figure 5: uniform popularity,
    /// 10 B keys, 20 B values.
    pub fn microbench(records: u64, read_fraction: f64) -> Self {
        Self {
            records,
            read_fraction,
            popularity: Popularity::Uniform,
            key_len: 10,
            value_len: 20,
            ttl_range_ms: (0, 0),
        }
    }

    /// The end-to-end workload of Figure 7: zipfian 0.99, 10 B/20 B.
    pub fn end_to_end(records: u64, read_fraction: f64) -> Self {
        Self {
            records,
            read_fraction,
            popularity: Popularity::Zipfian { theta: 0.99 },
            key_len: 10,
            value_len: 20,
            ttl_range_ms: (0, 0),
        }
    }

    /// The cluster workload of §4.2.1: zipfian 0.99, 24 B keys, 64 B
    /// values, 95% GET.
    pub fn cluster_default(records: u64) -> Self {
        Self {
            records,
            read_fraction: 0.95,
            popularity: Popularity::Zipfian { theta: 0.99 },
            key_len: 24,
            value_len: 64,
            ttl_range_ms: (0, 0),
        }
    }

    /// Table 4 WorkloadA: 100% read, zipfian — "user account status
    /// information".
    pub fn workload_a(records: u64) -> Self {
        Self {
            records,
            read_fraction: 1.0,
            popularity: Popularity::Zipfian { theta: 0.99 },
            key_len: 24,
            value_len: 64,
            ttl_range_ms: (0, 0),
        }
    }

    /// Table 4 WorkloadB: 95% read / 5% update, hotspot with 95% of
    /// operations in 5% of the data — "photo tagging".
    pub fn workload_b(records: u64) -> Self {
        Self {
            records,
            read_fraction: 0.95,
            popularity: Popularity::Hotspot {
                hot_data: 0.05,
                hot_ops: 0.95,
            },
            key_len: 24,
            value_len: 64,
            ttl_range_ms: (0, 0),
        }
    }

    /// Table 4 WorkloadC: 50% read / 50% update, zipfian — "session
    /// store recording recent actions".
    pub fn workload_c(records: u64) -> Self {
        Self {
            records,
            read_fraction: 0.5,
            popularity: Popularity::Zipfian { theta: 0.99 },
            key_len: 24,
            value_len: 64,
            ttl_range_ms: (0, 0),
        }
    }

    /// A TTL-heavy session-store mix: WorkloadC's 50% read / 50%
    /// update zipfian stream, but every update carries a short TTL
    /// drawn from `[1 s, 8 s]`, so entries churn through expiry within
    /// a normal measurement window.
    pub fn ttl_heavy(records: u64) -> Self {
        Self {
            ttl_range_ms: (1_000, 8_000),
            ..Self::workload_c(records)
        }
    }

    /// An extreme-skew flash-crowd mix: zipfian θ = 1.3 (well past the
    /// YCSB default 0.99 — a handful of keys take most of the traffic),
    /// 95% GET. This is the adversarial input for the skew defenses:
    /// client front caching and bounded-load assignment.
    pub fn extreme_zipf(records: u64) -> Self {
        Self {
            records,
            read_fraction: 0.95,
            popularity: Popularity::Zipfian { theta: 1.3 },
            key_len: 24,
            value_len: 64,
            ttl_range_ms: (0, 0),
        }
    }

    /// Formats the key for item `index` at this spec's key length.
    pub fn key_of(&self, index: u64) -> Vec<u8> {
        format_key(index, self.key_len)
    }
}

/// Formats `index` as a fixed-width key like `user000000012345`.
pub fn format_key(index: u64, key_len: usize) -> Vec<u8> {
    let digits = key_len.saturating_sub(4).max(1);
    let mut s = format!("user{index:0digits$}", digits = digits);
    s.truncate(key_len.max(5));
    s.into_bytes()
}

enum DistImpl {
    Uniform(Uniform),
    Zipf(ScrambledZipfian),
    ZipfClustered(Zipfian),
    Hot(Hotspot),
}

/// A deterministic operation stream for a [`WorkloadSpec`].
pub struct WorkloadGen {
    spec: WorkloadSpec,
    dist: DistImpl,
    rng: SmallRng,
    value_seed: u8,
    generated: u64,
    index_offset: u64,
}

impl WorkloadGen {
    /// Creates a generator with the given `seed`.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        let dist = match spec.popularity {
            Popularity::Uniform => DistImpl::Uniform(Uniform::new(spec.records)),
            Popularity::Zipfian { theta } => {
                DistImpl::Zipf(ScrambledZipfian::new(spec.records, theta))
            }
            Popularity::ZipfianClustered { theta } => {
                DistImpl::ZipfClustered(Zipfian::new(spec.records, theta))
            }
            Popularity::Hotspot { hot_data, hot_ops } => {
                DistImpl::Hot(Hotspot::new(spec.records, hot_data, hot_ops))
            }
        };
        Self {
            spec,
            dist,
            rng: SmallRng::seed_from_u64(seed),
            value_seed: (seed & 0xff) as u8,
            generated: 0,
            index_offset: 0,
        }
    }

    /// The underlying specification.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Number of operations generated so far.
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// Rotates every drawn key index by `offset` (mod the record count),
    /// shifting the entire popular set onto different keys — the
    /// "hotspot shift" perturbation used to exercise the balancer's
    /// reaction to a moving working set. An offset of 0 restores the
    /// original popularity assignment; the op stream stays deterministic
    /// for a given (seed, offset-change schedule).
    pub fn set_index_offset(&mut self, offset: u64) {
        self.index_offset = offset;
    }

    /// The current key-index rotation (see [`Self::set_index_offset`]).
    pub fn index_offset(&self) -> u64 {
        self.index_offset
    }

    fn next_index(&mut self) -> u64 {
        let raw = match &mut self.dist {
            DistImpl::Uniform(d) => d.next_index(&mut self.rng),
            DistImpl::Zipf(d) => d.next_index(&mut self.rng),
            DistImpl::ZipfClustered(d) => d.next_index(&mut self.rng),
            DistImpl::Hot(d) => d.next_index(&mut self.rng),
        };
        let m = self.spec.records.max(1);
        (raw + self.index_offset % m) % m
    }

    /// Generates the next operation.
    pub fn next_op(&mut self) -> Op {
        self.generated += 1;
        let idx = self.next_index();
        let key = self.spec.key_of(idx);
        if self.rng.gen::<f64>() < self.spec.read_fraction {
            Op {
                kind: OpKind::Get,
                key,
                value: Vec::new(),
                ttl_ms: 0,
            }
        } else {
            // The TTL draw happens only on the write path, so presets
            // without TTLs generate bit-identical streams to before the
            // field existed.
            let ttl_ms = match self.spec.ttl_range_ms {
                (0, 0) => 0,
                (lo, hi) => self.rng.gen_range(lo..=hi.max(lo)),
            };
            Op {
                kind: OpKind::Set,
                key,
                value: self.make_value(idx),
                ttl_ms,
            }
        }
    }

    /// A deterministic value for item `idx` of the spec's value length.
    pub fn make_value(&self, idx: u64) -> Vec<u8> {
        let mut v = vec![0u8; self.spec.value_len];
        let seed = idx.to_le_bytes();
        for (i, b) in v.iter_mut().enumerate() {
            *b = seed[i % 8] ^ self.value_seed ^ (i as u8);
        }
        v
    }

    /// The full load phase: `(key, value)` pairs for every record, used
    /// to pre-populate caches before read benchmarks.
    pub fn load_phase(&self) -> impl Iterator<Item = (Vec<u8>, Vec<u8>)> + '_ {
        (0..self.spec.records).map(move |i| (self.spec.key_of(i), self.make_value(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_formatting_is_fixed_width_and_unique() {
        let k1 = format_key(1, 10);
        let k2 = format_key(2, 10);
        assert_eq!(k1.len(), 10);
        assert_eq!(k2.len(), 10);
        assert_ne!(k1, k2);
        assert!(k1.starts_with(b"user"));
        let k24 = format_key(12345, 24);
        assert_eq!(k24.len(), 24);
    }

    #[test]
    fn read_fraction_is_respected() {
        let mut g = WorkloadGen::new(WorkloadSpec::microbench(1_000, 0.95), 7);
        let mut reads = 0;
        for _ in 0..20_000 {
            if g.next_op().kind == OpKind::Get {
                reads += 1;
            }
        }
        let frac = reads as f64 / 20_000.0;
        assert!((frac - 0.95).abs() < 0.01, "read fraction {frac}");
        assert_eq!(g.generated(), 20_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = WorkloadGen::new(WorkloadSpec::workload_c(10_000), 99);
        let mut b = WorkloadGen::new(WorkloadSpec::workload_c(10_000), 99);
        for _ in 0..1_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
        let mut c = WorkloadGen::new(WorkloadSpec::workload_c(10_000), 100);
        let same = (0..1_000)
            .filter(|_| {
                // Re-seeded generators must diverge.
                a.next_op() == c.next_op()
            })
            .count();
        assert!(same < 1_000, "different seeds produced identical streams");
    }

    #[test]
    fn workload_b_concentrates_on_hot_set() {
        let mut g = WorkloadGen::new(WorkloadSpec::workload_b(10_000), 3);
        let hot_keys: std::collections::HashSet<Vec<u8>> =
            (0..500).map(|i| g.spec().key_of(i)).collect();
        let hot_hits = (0..10_000)
            .filter(|_| hot_keys.contains(&g.next_op().key))
            .count();
        let frac = hot_hits as f64 / 10_000.0;
        assert!((frac - 0.95).abs() < 0.02, "hot fraction {frac}");
    }

    #[test]
    fn workload_a_is_read_only() {
        let mut g = WorkloadGen::new(WorkloadSpec::workload_a(100), 1);
        assert!((0..5_000).all(|_| g.next_op().kind == OpKind::Get));
    }

    #[test]
    fn load_phase_covers_all_records_with_right_sizes() {
        let g = WorkloadGen::new(WorkloadSpec::cluster_default(1_000), 5);
        let pairs: Vec<_> = g.load_phase().collect();
        assert_eq!(pairs.len(), 1_000);
        let keys: std::collections::HashSet<_> = pairs.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys.len(), 1_000, "keys must be unique");
        assert!(pairs.iter().all(|(k, v)| k.len() == 24 && v.len() == 64));
    }

    #[test]
    fn index_offset_shifts_the_hot_set() {
        // With a clustered-zipfian the hot ranks are the low indices, so
        // a rotation by `records / 2` must move the mass of traffic off
        // the original hot keys and onto the rotated ones.
        let spec = WorkloadSpec {
            records: 1_000,
            read_fraction: 1.0,
            popularity: Popularity::ZipfianClustered { theta: 0.99 },
            key_len: 10,
            value_len: 20,
            ttl_range_ms: (0, 0),
        };
        let mut g = WorkloadGen::new(spec.clone(), 42);
        let original_hot: std::collections::HashSet<Vec<u8>> =
            (0..50).map(|i| g.spec().key_of(i)).collect();
        let before = (0..5_000)
            .filter(|_| original_hot.contains(&g.next_op().key))
            .count();
        g.set_index_offset(500);
        assert_eq!(g.index_offset(), 500);
        let after = (0..5_000)
            .filter(|_| original_hot.contains(&g.next_op().key))
            .count();
        assert!(
            before > 2_000 && after < before / 4,
            "shift did not move the hot set: before={before} after={after}"
        );
        let shifted_hot: std::collections::HashSet<Vec<u8>> =
            (500..550).map(|i| g.spec().key_of(i)).collect();
        let shifted = (0..5_000)
            .filter(|_| shifted_hot.contains(&g.next_op().key))
            .count();
        assert!(shifted > 2_000, "rotated hot set not hot: {shifted}");
        // Offsets never escape the key space.
        g.set_index_offset(u64::MAX / 2);
        for _ in 0..100 {
            let op = g.next_op();
            assert_eq!(op.key.len(), 10);
        }
    }

    #[test]
    fn ttl_heavy_sets_carry_ttls_in_range() {
        let mut g = WorkloadGen::new(WorkloadSpec::ttl_heavy(1_000), 13);
        let mut sets = 0;
        for _ in 0..5_000 {
            let op = g.next_op();
            match op.kind {
                OpKind::Set => {
                    sets += 1;
                    assert!(
                        (1_000..=8_000).contains(&op.ttl_ms),
                        "ttl {} out of range",
                        op.ttl_ms
                    );
                }
                _ => assert_eq!(op.ttl_ms, 0, "only SETs carry TTLs"),
            }
        }
        assert!(sets > 1_000, "mix must be write-heavy enough: {sets}");
        // TTL draws stay deterministic per seed.
        let mut a = WorkloadGen::new(WorkloadSpec::ttl_heavy(1_000), 13);
        let mut b = WorkloadGen::new(WorkloadSpec::ttl_heavy(1_000), 13);
        for _ in 0..1_000 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn values_are_deterministic_per_item() {
        let g = WorkloadGen::new(WorkloadSpec::microbench(10, 0.5), 11);
        assert_eq!(g.make_value(3), g.make_value(3));
        assert_ne!(g.make_value(3), g.make_value(4));
    }
}
