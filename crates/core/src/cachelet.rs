//! The cachelet: MBal's unit of partitioning and load balancing (§2.1).
//!
//! A cachelet is a configurable resource container that encapsulates
//! multiple virtual nodes and is managed as a separate entity by a single
//! worker thread. It bundles a storage [`Engine`] (the slab+LRU table),
//! access statistics, an EWMA load estimate, and migration/lease state.
//! Because exactly one worker owns a cachelet at any time, none of its
//! operations synchronize.

use crate::engine::{slab_lru::SlabLru, Engine, EngineStats};
use crate::stats::{AccessStats, CacheletLoad, Ewma};
use crate::table::SetOutcome;
use crate::types::{CacheError, CacheletId, Value, WorkerId};

/// Where a cachelet currently lives relative to its home worker.
///
/// Server-local migration (Phase 2) and coordinated migration (Phase 3) are
/// lease-based for ephemeral hotspots: a migrated cachelet returns to its
/// home worker when the lease expires and the hotspot has cooled (§3.3).
/// Phase 3 migrations are permanent (no lease).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// The cachelet is on its home worker.
    Home,
    /// Migrated within the server; returns home when the lease expires.
    Leased {
        /// The original (home) worker.
        home: WorkerId,
        /// Absolute lease expiry in milliseconds.
        lease_expiry_ms: u64,
    },
    /// Permanently migrated across servers (Phase 3).
    Adopted,
}

/// A cachelet: storage engine + statistics + residency state.
#[derive(Debug)]
pub struct Cachelet {
    id: CacheletId,
    engine: Box<dyn Engine>,
    stats: AccessStats,
    epoch_base: AccessStats,
    load: Ewma,
    residency: Residency,
}

impl Cachelet {
    /// Creates an empty cachelet with the given `id`, backed by an
    /// unbounded heap slab+LRU engine (tests and tools; servers inject
    /// their engine via [`Cachelet::with_engine`]).
    pub fn new(id: CacheletId) -> Self {
        Self::with_engine(id, Box::new(SlabLru::unbounded()))
    }

    /// Creates an empty cachelet over the given storage engine.
    pub fn with_engine(id: CacheletId, engine: Box<dyn Engine>) -> Self {
        Self {
            id,
            engine,
            stats: AccessStats::default(),
            epoch_base: AccessStats::default(),
            load: Ewma::default(),
            residency: Residency::Home,
        }
    }

    /// The cachelet identifier.
    pub fn id(&self) -> CacheletId {
        self.id
    }

    /// Current residency state.
    pub fn residency(&self) -> Residency {
        self.residency
    }

    /// Marks the cachelet as leased out from `home` until
    /// `lease_expiry_ms` (Phase 2 migration).
    pub fn lease_out(&mut self, home: WorkerId, lease_expiry_ms: u64) {
        self.residency = Residency::Leased {
            home,
            lease_expiry_ms,
        };
    }

    /// Marks the cachelet as permanently adopted by its current worker.
    pub fn adopt(&mut self) {
        self.residency = Residency::Adopted;
    }

    /// Restores home residency (lease expiry or explicit return).
    pub fn restore_home(&mut self) {
        self.residency = Residency::Home;
    }

    /// Returns `Some(home)` if the lease has expired at `now_ms`.
    pub fn lease_expired(&self, now_ms: u64) -> Option<WorkerId> {
        match self.residency {
            Residency::Leased {
                home,
                lease_expiry_ms,
            } if lease_expiry_ms <= now_ms => Some(home),
            _ => None,
        }
    }

    /// Looks up `key` and records the access. The returned [`Value`] is
    /// a refcounted view shared with the engine where its storage
    /// permits (see [`Engine::get`]).
    pub fn get(&mut self, key: &[u8], now_ms: u64) -> Option<Value> {
        self.stats.reads += 1;
        match self.engine.get(key, now_ms) {
            Some(v) => {
                self.stats.hits += 1;
                self.stats.bytes_out += v.len() as u64;
                Some(v)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts or replaces `key` and records the access.
    pub fn set(
        &mut self,
        key: &[u8],
        value: &[u8],
        now_ms: u64,
        expiry_ms: u64,
    ) -> Result<SetOutcome, CacheError> {
        self.stats.writes += 1;
        self.stats.bytes_in += value.len() as u64;
        self.engine.set(key, value, now_ms, expiry_ms)
    }

    /// Deletes `key` and records the access.
    pub fn delete(&mut self, key: &[u8], now_ms: u64) -> bool {
        self.stats.writes += 1;
        self.engine.delete(key, now_ms)
    }

    /// Conditional insert (Memcached `add`); records the write.
    pub fn add(
        &mut self,
        key: &[u8],
        value: &[u8],
        now_ms: u64,
        expiry_ms: u64,
    ) -> Result<bool, CacheError> {
        self.stats.writes += 1;
        self.stats.bytes_in += value.len() as u64;
        self.engine.add(key, value, now_ms, expiry_ms)
    }

    /// Conditional overwrite (Memcached `replace`); records the write.
    pub fn replace(
        &mut self,
        key: &[u8],
        value: &[u8],
        now_ms: u64,
        expiry_ms: u64,
    ) -> Result<bool, CacheError> {
        self.stats.writes += 1;
        self.stats.bytes_in += value.len() as u64;
        self.engine.replace(key, value, now_ms, expiry_ms)
    }

    /// Append/prepend (Memcached `append`/`prepend`); records the write.
    pub fn concat(
        &mut self,
        key: &[u8],
        suffix: &[u8],
        front: bool,
        now_ms: u64,
    ) -> Result<Option<usize>, CacheError> {
        self.stats.writes += 1;
        self.stats.bytes_in += suffix.len() as u64;
        self.engine.concat(key, suffix, front, now_ms)
    }

    /// Counter arithmetic (Memcached `incr`/`decr`); records the write.
    pub fn incr(&mut self, key: &[u8], delta: i64, now_ms: u64) -> Result<Option<u64>, CacheError> {
        self.stats.writes += 1;
        self.engine.incr(key, delta, now_ms)
    }

    /// TTL refresh (Memcached `touch`); records the write.
    pub fn touch(&mut self, key: &[u8], now_ms: u64, expiry_ms: u64) -> bool {
        self.stats.writes += 1;
        self.engine.touch(key, now_ms, expiry_ms)
    }

    /// Read access to the storage engine (migration & inspection).
    pub fn engine(&self) -> &dyn Engine {
        self.engine.as_ref()
    }

    /// Mutable access to the storage engine (migration machinery,
    /// epoch maintenance).
    pub fn engine_mut(&mut self) -> &mut dyn Engine {
        self.engine.as_mut()
    }

    /// Cumulative access statistics.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Engine statistics (length, evictions, expirations, …).
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Closes an epoch of `epoch_secs` seconds: feeds the request rate into
    /// the EWMA and returns the epoch's raw counters.
    pub fn end_epoch(&mut self, epoch_secs: f64) -> AccessStats {
        let delta = self.stats.delta(&self.epoch_base);
        self.epoch_base = self.stats;
        let rate = if epoch_secs > 0.0 {
            delta.ops() as f64 / epoch_secs
        } else {
            0.0
        };
        self.load.update(rate);
        delta
    }

    /// Smoothed request rate in ops/second.
    pub fn load(&self) -> f64 {
        self.load.value()
    }

    /// Memory charged to this cachelet in bytes: values plus key/entry
    /// overhead, as accounted by the engine.
    pub fn mem_bytes(&self) -> u64 {
        self.engine.used_bytes() as u64
    }

    /// Builds the balancer-facing load record.
    pub fn load_record(&self) -> CacheletLoad {
        let delta = self.stats.delta(&self.epoch_base);
        CacheletLoad {
            cachelet: self.id,
            load: self.load(),
            mem_bytes: self.mem_bytes(),
            read_ratio: if delta.ops() > 0 {
                delta.read_ratio()
            } else {
                self.stats.read_ratio()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Cachelet {
        Cachelet::new(CacheletId(3))
    }

    #[test]
    fn get_set_updates_stats() {
        let mut c = fixture();
        assert!(c.get(b"missing", 0).is_none());
        c.set(b"k", b"value", 0, 0).expect("set");
        assert_eq!(c.get(b"k", 0).expect("hit").as_ref(), b"value");
        let st = c.stats();
        assert_eq!(st.reads, 2);
        assert_eq!(st.writes, 1);
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
        assert_eq!(st.bytes_in, 5);
        assert_eq!(st.bytes_out, 5);
    }

    #[test]
    fn epoch_updates_ewma_load() {
        let mut c = fixture();
        for i in 0..100u32 {
            c.set(format!("k{i}").as_bytes(), b"v", 0, 0).expect("set");
        }
        let delta = c.end_epoch(1.0);
        assert_eq!(delta.writes, 100);
        assert!((c.load() - 100.0).abs() < 1e-9, "first epoch primes EWMA");
        let _ = c.end_epoch(1.0);
        assert!(c.load() < 100.0, "idle epoch decays the load");
    }

    #[test]
    fn lease_lifecycle() {
        let mut c = fixture();
        assert_eq!(c.residency(), Residency::Home);
        c.lease_out(WorkerId(1), 1_000);
        assert_eq!(c.lease_expired(999), None);
        assert_eq!(c.lease_expired(1_000), Some(WorkerId(1)));
        c.restore_home();
        assert_eq!(c.residency(), Residency::Home);
        c.adopt();
        assert_eq!(c.residency(), Residency::Adopted);
        assert_eq!(c.lease_expired(u64::MAX), None, "adoption is permanent");
    }

    #[test]
    fn mem_accounting_includes_overhead() {
        let mut c = fixture();
        c.set(b"key-bytes", b"0123456789", 0, 0).expect("set");
        let m = c.mem_bytes();
        assert!(m >= (9 + 10) as u64, "must cover key and value bytes");
        let rec = c.load_record();
        assert_eq!(rec.cachelet, CacheletId(3));
        assert_eq!(rec.mem_bytes, m);
    }

    #[test]
    fn touch_extends_life_and_delete_empties() {
        let mut c = fixture();
        c.set(b"k", b"v", 0, 1_000).expect("set");
        assert_eq!(c.get(b"k", 500).expect("hit").as_ref(), b"v");
        assert!(c.touch(b"k", 500, 2_000));
        assert!(c.get(b"k", 1_500).is_some(), "touch extended life");
        assert!(c.delete(b"k", 1_500));
        assert_eq!(c.engine_stats().len, 0);
        assert_eq!(c.stats().writes, 3);
    }
}
