//! [`CacheUnit`]: a cachelet bundled with its storage engine.
//!
//! MBal describes a cachelet as "a configurable resource container"
//! (§2.1) — it owns not just its keys but the memory they live in. We
//! realize that literally: the unit carries its [`Engine`] (a slab+LRU
//! engine over a [`SlabStore`] refilled from the server-wide global
//! pool), so handing a unit to another worker thread moves the data
//! with it at pointer cost.

use mbal_core::cachelet::Cachelet;
use mbal_core::engine::TenantUsage;
use mbal_core::engine::{build_engine, Engine, EngineStats, SlabLru};
use mbal_core::mem::{GlobalPool, LocalPool, MemConfig, MemPolicy};
use mbal_core::stats::CacheletLoad;
use mbal_core::store::SlabStore;
use mbal_core::table::SetOutcome;
use mbal_core::types::{CacheError, CacheletId, TenantId, Value, WorkerAddr};
use mbal_tenant::{EngineFactory, TenantDirectory, TenantEngine};
use std::collections::HashSet;
use std::sync::Arc;

/// Migration progress attached to a unit that is being transferred to
/// another server (§3.4: per-partition, Write-Invalidate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationProgress {
    /// Destination worker.
    pub dest: WorkerAddr,
    /// Partitions `0..next_bucket` have been drained and now live at
    /// the destination.
    pub next_bucket: usize,
    /// Total partitions at freeze time.
    pub bucket_count: usize,
}

/// A drained partition: `(key, value, expiry_ms)` triples ready to ship.
pub type DrainedBucket = Vec<(Box<[u8]>, Vec<u8>, u64)>;

/// A cachelet plus its storage engine and migration state.
#[derive(Debug)]
pub struct CacheUnit {
    meta: Cachelet,
    migration: Option<MigrationProgress>,
    /// Keys handed over in the current transfer: drained from this unit
    /// (migrating out) or received into it (migrating in).
    transferred: HashSet<Box<[u8]>>,
    /// Engine counters already reported via [`CacheUnit::take_stats_delta`].
    stats_base: EngineStats,
}

/// The slab+LRU engine over a [`SlabStore`] that allocates through a
/// [`LocalPool`] over `global`, so the shared pool governs its budget.
fn pool_engine(global: Arc<GlobalPool>, mem: &MemConfig, numa: u8) -> Box<dyn Engine> {
    let pool = LocalPool::new(global, mem, numa, MemPolicy::ThreadLocal);
    Box::new(SlabLru::new(SlabStore::new(pool)))
}

impl CacheUnit {
    /// Creates an empty unit whose engine draws memory from `global`.
    pub fn new(id: CacheletId, global: Arc<GlobalPool>, mem: &MemConfig, numa: u8) -> Self {
        Self::with_engine(id, pool_engine(global, mem, numa))
    }

    /// Creates an empty unit with multi-tenancy: the engine is a
    /// [`TenantEngine`] multiplexing one inner engine per admitted
    /// tenant, so eviction (and therefore one tenant's flood) is
    /// structurally confined to the offending tenant's own budget.
    ///
    /// The default tenant's inner engine is built exactly as in
    /// [`CacheUnit::new`] (pool-backed slab store); every other tenant
    /// gets a private engine sized by its quota's initial budget and
    /// resized by arbitration. With no tenants beyond the default
    /// configured this degrades to a plain single-engine unit — keys
    /// are only namespaced when tenancy is on.
    pub fn with_tenancy(
        id: CacheletId,
        global: Arc<GlobalPool>,
        mem: &MemConfig,
        numa: u8,
        tenants: &TenantDirectory,
    ) -> Self {
        if tenants.len() <= 1 {
            return Self::new(id, global, mem, numa);
        }
        let mem = mem.clone();
        let factory: EngineFactory = Box::new(move |tenant: TenantId, budget: usize| {
            if tenant.is_default() {
                pool_engine(Arc::clone(&global), &mem, numa)
            } else {
                build_engine(budget)
            }
        });
        Self::with_engine(id, Box::new(TenantEngine::new(tenants.clone(), factory)))
    }

    fn with_engine(id: CacheletId, engine: Box<dyn Engine>) -> Self {
        Self {
            meta: Cachelet::with_engine(id, engine),
            migration: None,
            transferred: HashSet::new(),
            stats_base: EngineStats::default(),
        }
    }

    /// Per-tenant accounting rows (empty for non-tenant units).
    pub fn tenant_usage(&self) -> Vec<TenantUsage> {
        self.meta.engine().tenant_usage()
    }

    /// Applies an arbitrated budget to one tenant's inner engine,
    /// evicting the tenant's own coldest entries if it now overshoots.
    /// Returns `false` on non-tenant units.
    pub fn set_tenant_budget(&mut self, tenant: TenantId, bytes: usize) -> bool {
        self.meta.engine_mut().set_tenant_budget(tenant, bytes)
    }

    /// The cachelet id.
    pub fn id(&self) -> CacheletId {
        self.meta.id()
    }

    /// Immutable cachelet metadata access.
    pub fn meta(&self) -> &Cachelet {
        &self.meta
    }

    /// Mutable cachelet metadata access.
    pub fn meta_mut(&mut self) -> &mut Cachelet {
        &mut self.meta
    }

    /// Looks up `key`. The returned [`Value`] is a refcounted view of
    /// (or single copy out of) the engine's buffer; cloning it further
    /// downstream never copies the payload again.
    pub fn get(&mut self, key: &[u8], now_ms: u64) -> Option<Value> {
        self.meta.get(key, now_ms)
    }

    /// Inserts or replaces `key`.
    pub fn set(
        &mut self,
        key: &[u8],
        value: &[u8],
        now_ms: u64,
        expiry_ms: u64,
    ) -> Result<SetOutcome, CacheError> {
        self.meta.set(key, value, now_ms, expiry_ms)
    }

    /// Deletes `key`.
    pub fn delete(&mut self, key: &[u8], now_ms: u64) -> bool {
        self.meta.delete(key, now_ms)
    }

    /// Conditional insert (Memcached `add`): `Ok(true)` if stored.
    pub fn add(
        &mut self,
        key: &[u8],
        value: &[u8],
        now_ms: u64,
        expiry_ms: u64,
    ) -> Result<bool, CacheError> {
        self.meta.add(key, value, now_ms, expiry_ms)
    }

    /// Conditional overwrite (Memcached `replace`): `Ok(true)` if stored.
    pub fn replace(
        &mut self,
        key: &[u8],
        value: &[u8],
        now_ms: u64,
        expiry_ms: u64,
    ) -> Result<bool, CacheError> {
        self.meta.replace(key, value, now_ms, expiry_ms)
    }

    /// Append/prepend to an existing value; `Ok(Some(new_len))` on hit.
    pub fn concat(
        &mut self,
        key: &[u8],
        suffix: &[u8],
        front: bool,
        now_ms: u64,
    ) -> Result<Option<usize>, CacheError> {
        self.meta.concat(key, suffix, front, now_ms)
    }

    /// Counter arithmetic; `Ok(Some(new_value))` on hit.
    pub fn incr(&mut self, key: &[u8], delta: i64, now_ms: u64) -> Result<Option<u64>, CacheError> {
        self.meta.incr(key, delta, now_ms)
    }

    /// TTL refresh; `true` if the key was present.
    pub fn touch(&mut self, key: &[u8], now_ms: u64, expiry_ms: u64) -> bool {
        self.meta.touch(key, now_ms, expiry_ms)
    }

    /// Hands a chunk back to the server's global pool for a neighbour
    /// unit; see [`Engine::release_chunk`].
    pub fn release_chunk(&mut self, evict: bool) -> bool {
        self.meta.engine_mut().release_chunk(evict)
    }

    /// Whether storing a `value_len`-byte value would allocate fresh
    /// memory; see [`Engine::needs_fresh_memory`].
    pub fn needs_fresh_memory(&self, value_len: usize) -> bool {
        self.meta.engine().needs_fresh_memory(value_len)
    }

    /// Bytes of payload stored.
    pub fn value_bytes(&self) -> usize {
        self.meta.engine_stats().value_bytes
    }

    /// The balancer-facing load record.
    pub fn load_record(&self) -> CacheletLoad {
        self.meta.load_record()
    }

    /// Closes an epoch (EWMA load update).
    pub fn end_epoch(&mut self, epoch_secs: f64) {
        self.meta.end_epoch(epoch_secs);
    }

    /// Runs the engine's background maintenance (proactive expiry).
    pub fn maintain(&mut self, now_ms: u64) {
        self.meta.engine_mut().maintain(now_ms);
    }

    /// Engine counter increments since the previous call (evictions,
    /// expirations, reclaimed bytes), for pumping into the worker's
    /// metrics shard. Point-in-time fields carry current values.
    pub fn take_stats_delta(&mut self) -> EngineStats {
        let now = self.meta.engine_stats();
        let delta = now.counter_delta(&self.stats_base);
        self.stats_base = now;
        delta
    }

    /// Begins outbound migration to `dest`: freezes partition indices
    /// and initializes progress.
    pub fn begin_migration(&mut self, dest: WorkerAddr) {
        let engine = self.meta.engine_mut();
        engine.freeze();
        let bucket_count = engine.partition_count();
        self.migration = Some(MigrationProgress {
            dest,
            next_bucket: 0,
            bucket_count,
        });
    }

    /// Current migration progress, if any.
    pub fn migration(&self) -> Option<MigrationProgress> {
        self.migration
    }

    /// Whether `key`'s partition has already been drained to the
    /// destination.
    pub fn key_migrated(&self, key: &[u8]) -> bool {
        match self.migration {
            Some(p) => self.meta.engine().partition_of(key) < p.next_bucket,
            None => false,
        }
    }

    /// Whether `key` was handed over in the current transfer: drained
    /// from here (source) or received here (destination). On both sides
    /// this tells a key the other end may hold from one it never had.
    pub fn was_transferred(&self, key: &[u8]) -> bool {
        self.transferred.contains(key)
    }

    /// Drains the next partition for transfer. Returns the entries, or
    /// `None` when every partition has been drained.
    pub fn drain_next_bucket(&mut self) -> Option<DrainedBucket> {
        let p = self.migration.as_mut()?;
        if p.next_bucket >= p.bucket_count {
            return None;
        }
        let b = p.next_bucket;
        p.next_bucket += 1;
        let batch = self.meta.engine_mut().drain_partition(b);
        self.transferred
            .extend(batch.iter().map(|(k, _, _)| k.clone()));
        Some(batch)
    }

    /// Installs one transfer batch on the destination and remembers its
    /// keys until the commit; see [`CacheUnit::install_entries`].
    pub fn receive_entries(&mut self, entries: Vec<(Vec<u8>, Value, u64)>, now_ms: u64) -> usize {
        self.transferred
            .extend(entries.iter().map(|(k, _, _)| k.as_slice().into()));
        self.install_entries(entries, now_ms)
    }

    /// Installs entries received from a migrating source (destination
    /// side). Installation is add-if-absent so a duplicated or reordered
    /// `MigrateEntries` frame can never clobber a newer write the
    /// destination already accepted for the same key — replaying a batch
    /// is a no-op. Entries that fail on memory pressure are counted as
    /// evictions — the paper's constraint (10)–(11) planner makes this
    /// rare.
    pub fn install_entries(&mut self, entries: Vec<(Vec<u8>, Value, u64)>, now_ms: u64) -> usize {
        let mut installed = 0;
        for (k, v, exp) in entries {
            if self.add(&k, &v, now_ms, exp) == Ok(true) {
                installed += 1;
            }
        }
        installed
    }

    /// Rolls back an aborted outbound migration (source side): thaws the
    /// engine, clears progress, and re-installs the entries that had
    /// already been drained, so every acknowledged write survives the
    /// failed transfer. Re-installation is add-if-absent, preserving any
    /// write accepted since the key's partition was drained.
    pub fn abort_migration(&mut self, entries: Vec<(Vec<u8>, Value, u64)>, now_ms: u64) -> usize {
        self.finish_migration();
        self.install_entries(entries, now_ms)
    }

    /// Finishes migration bookkeeping (source side, before dropping, or
    /// destination side after commit): thaws the engine and forgets the
    /// transferred keys.
    pub fn finish_migration(&mut self) {
        self.meta.engine_mut().thaw();
        self.migration = None;
        self.transferred = HashSet::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbal_core::mem::GlobalPool;

    fn unit(id: u32) -> CacheUnit {
        let mut mem = MemConfig::with_capacity(1 << 20);
        mem.chunk_size = 1 << 14;
        let global = Arc::new(GlobalPool::new(1 << 20, 1 << 14, 1));
        CacheUnit::new(CacheletId(id), global, &mem, 0)
    }

    #[test]
    fn roundtrip_and_accounting() {
        let mut u = unit(7);
        u.set(b"k", b"value", 0, 0).expect("set");
        assert_eq!(u.get(b"k", 0).expect("hit"), b"value");
        assert_eq!(u.value_bytes(), 5);
        let rec = u.load_record();
        assert_eq!(rec.cachelet, CacheletId(7));
        assert!(rec.mem_bytes > 5);
        assert!(u.delete(b"k", 0));
        assert_eq!(u.value_bytes(), 0);
    }

    #[test]
    fn unit_serves_the_full_surface() {
        let mut u = unit(7);
        u.set(b"k", b"value", 0, 0).expect("set");
        assert_eq!(u.get(b"k", 0).expect("hit"), b"value");
        assert_eq!(u.value_bytes(), 5);
        assert_eq!(u.add(b"k", b"x", 0, 0), Ok(false));
        assert_eq!(u.replace(b"k", b"value2", 0, 0), Ok(true));
        assert_eq!(u.concat(b"k", b"!", false, 0), Ok(Some(7)));
        u.set(b"n", b"41", 0, 0).expect("set");
        assert_eq!(u.incr(b"n", 1, 0), Ok(Some(42)));
        assert!(u.touch(b"k", 0, 5_000));
        assert!(u.delete(b"k", 0));
        assert!(u.get(b"k", 0).is_none());
    }

    #[test]
    fn take_stats_delta_rebase() {
        let mut u = unit(3);
        u.set(b"k", b"v", 0, 100).expect("set");
        assert!(u.get(b"k", 200).is_none(), "expired");
        let d = u.take_stats_delta();
        assert_eq!(d.expirations, 1);
        assert_eq!(d.expired_bytes, 1);
        let d2 = u.take_stats_delta();
        assert_eq!(d2.expirations, 0, "second take reports only new events");
    }

    #[test]
    fn unit_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<CacheUnit>();
    }

    #[test]
    fn migration_drains_every_bucket_exactly_once() {
        let mut u = unit(1);
        for i in 0..300u32 {
            u.set(format!("k{i}").as_bytes(), &i.to_le_bytes(), 0, 0)
                .expect("set");
        }
        u.begin_migration(WorkerAddr::new(1, 0));
        let mut moved = Vec::new();
        while let Some(batch) = u.drain_next_bucket() {
            moved.extend(batch);
        }
        assert_eq!(moved.len(), 300);
        assert_eq!(u.value_bytes(), 0);
        // Keys are unique.
        let set: std::collections::HashSet<_> = moved.iter().map(|(k, _, _)| k.clone()).collect();
        assert_eq!(set.len(), 300);
        u.finish_migration();
        assert!(u.migration().is_none());
    }

    #[test]
    fn key_migrated_tracks_bucket_frontier() {
        let mut u = unit(1);
        for i in 0..100u32 {
            u.set(format!("k{i}").as_bytes(), b"v", 0, 0).expect("set");
        }
        u.begin_migration(WorkerAddr::new(1, 1));
        assert!(!u.key_migrated(b"k0"));
        // Drain half the partitions.
        let total = u.migration().expect("migrating").bucket_count;
        for _ in 0..total / 2 {
            u.drain_next_bucket();
        }
        let frontier = u.migration().expect("migrating").next_bucket;
        // Any key whose partition is below the frontier reports migrated.
        let mut some_migrated = false;
        for i in 0..100u32 {
            let k = format!("k{i}");
            let migrated = u.key_migrated(k.as_bytes());
            let partition = u.meta().engine().partition_of(k.as_bytes());
            assert_eq!(migrated, partition < frontier, "key {k}");
            some_migrated |= migrated;
        }
        assert!(some_migrated);
    }

    #[test]
    fn inserts_during_migration_stay_in_undrained_buckets() {
        let mut u = unit(1);
        for i in 0..200u32 {
            u.set(format!("k{i}").as_bytes(), b"v", 0, 0).expect("set");
        }
        u.begin_migration(WorkerAddr::new(1, 0));
        let partitions = u.meta().engine().partition_count();
        // Freeze holds even under further inserts.
        for i in 200..1_000u32 {
            u.set(format!("k{i}").as_bytes(), b"v", 0, 0).expect("set");
        }
        assert_eq!(u.meta().engine().partition_count(), partitions);
        // And the full drain still moves everything.
        let mut moved = 0;
        while let Some(batch) = u.drain_next_bucket() {
            moved += batch.len();
        }
        assert_eq!(moved, 1_000);
    }

    #[test]
    fn install_entries_on_destination() {
        // Drain one unit into another through the `(key, value, expiry)`
        // transfer format.
        let mut src = unit(1);
        for i in 0..50u32 {
            src.set(format!("k{i}").as_bytes(), &i.to_le_bytes(), 0, 0)
                .expect("set");
        }
        src.begin_migration(WorkerAddr::new(1, 0));
        let mut dst = unit(2);
        while let Some(batch) = src.drain_next_bucket() {
            let entries: Vec<(Vec<u8>, Value, u64)> = batch
                .into_iter()
                .map(|(k, v, e)| (k.into_vec(), v.into(), e))
                .collect();
            let n = entries.len();
            assert_eq!(dst.install_entries(entries, 0), n);
        }
        for i in 0..50u32 {
            assert_eq!(
                dst.get(format!("k{i}").as_bytes(), 0).expect("hit"),
                i.to_le_bytes()
            );
        }
    }

    #[test]
    fn duplicate_install_never_clobbers_newer_write() {
        let mut dst = unit(1);
        let batch = vec![(b"k".to_vec(), Value::from(b"old".to_vec()), 0u64)];
        assert_eq!(dst.install_entries(batch.clone(), 0), 1);
        // A client write lands on the destination after the install...
        dst.set(b"k", b"new", 0, 0).expect("set");
        // ...then the same migration batch is delivered again (dup).
        assert_eq!(dst.install_entries(batch, 0), 0, "replay is a no-op");
        assert_eq!(dst.get(b"k", 0).expect("hit"), b"new");
    }

    #[test]
    fn abort_migration_restores_drained_entries() {
        let mut u = unit(1);
        for i in 0..80u32 {
            u.set(format!("k{i}").as_bytes(), &i.to_le_bytes(), 0, 0)
                .expect("set");
        }
        u.begin_migration(WorkerAddr::new(1, 0));
        let mut drained: Vec<(Vec<u8>, Value, u64)> = Vec::new();
        // Drain half the partitions, then the transfer "fails".
        let total = u.migration().expect("migrating").bucket_count;
        for _ in 0..total / 2 {
            if let Some(batch) = u.drain_next_bucket() {
                drained.extend(
                    batch
                        .into_iter()
                        .map(|(k, v, e)| (k.into_vec(), v.into(), e)),
                );
            }
        }
        assert!(!drained.is_empty());
        u.abort_migration(drained, 0);
        assert!(u.migration().is_none());
        for i in 0..80u32 {
            assert_eq!(
                u.get(format!("k{i}").as_bytes(), 0).expect("hit"),
                u32::to_le_bytes(i),
                "k{i} must survive the rollback"
            );
        }
    }
}
