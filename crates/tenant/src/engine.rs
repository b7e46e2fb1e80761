//! [`TenantEngine`]: an [`Engine`] that multiplexes per-tenant inner
//! engines.
//!
//! Every key stored through a `TenantEngine` carries a 2-byte
//! big-endian tenant prefix ([`namespaced_key`]); the multiplexer
//! strips it and routes the operation to that tenant's **own inner
//! engine**, created lazily from a factory with a byte budget derived
//! from the tenant's quota. Isolation is therefore structural, not
//! policy-enforced at eviction time: a tenant that overruns its budget
//! evicts inside its own engine, and no code path exists by which its
//! pressure can touch another tenant's entries.
//!
//! The migration surface (`freeze`/`partition_of`/`drain_partition`)
//! presents the concatenation of the inner engines' partition spaces in
//! tenant-id order, with the layout snapshotted at [`Engine::freeze`]
//! so indices stay stable while a drain is in flight. Tenants that
//! first appear *after* the freeze (installs racing a migration) map to
//! the final partition and are swept when it drains, so no entry is
//! stranded. Drained keys are re-prefixed with their tenant id, so the
//! tenant association survives the wire transfer and re-routes
//! correctly at the destination.

use crate::quota::{TenantDirectory, TenantQuota};
use mbal_core::engine::{build_engine, Engine, EngineStats, TenantUsage};
use mbal_core::table::SetOutcome;
use mbal_core::types::{CacheError, TenantId, Value};
use std::collections::BTreeMap;
use std::fmt;

/// Length of the tenant prefix on every namespaced key.
pub const TENANT_PREFIX_LEN: usize = 2;

/// Prefixes `key` with the tenant's 2-byte big-endian id. Applied by
/// the worker to every key before it reaches the engine (tenant 0
/// included, so the mapping is unambiguous).
pub fn namespaced_key(tenant: TenantId, key: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(TENANT_PREFIX_LEN + key.len());
    out.extend_from_slice(&tenant.0.to_be_bytes());
    out.extend_from_slice(key);
    out
}

/// Splits a namespaced key back into `(tenant, raw key)`. Keys shorter
/// than the prefix (never produced by [`namespaced_key`]) fall back to
/// the default tenant with the key unchanged.
pub fn split_namespaced(key: &[u8]) -> (TenantId, &[u8]) {
    if key.len() >= TENANT_PREFIX_LEN {
        let tenant = u16::from_be_bytes([key[0], key[1]]);
        (TenantId(tenant), &key[TENANT_PREFIX_LEN..])
    } else {
        (TenantId::DEFAULT, key)
    }
}

/// Builds one tenant's inner engine, given the tenant and its initial
/// byte budget.
pub type EngineFactory = Box<dyn FnMut(TenantId, usize) -> Box<dyn Engine> + Send>;

struct Slot {
    engine: Box<dyn Engine>,
    /// Current arbitrated budget in bytes (`u64::MAX` = governed by the
    /// worker's own pool, i.e. the default tenant).
    budget: u64,
}

/// Partition layout snapshotted at freeze time: `(tenant, offset,
/// count)` per inner engine, in tenant-id order.
struct FrozenLayout {
    parts: Vec<(u16, usize, usize)>,
    total: usize,
}

/// The per-tenant multiplexing engine. See the module docs.
pub struct TenantEngine {
    slots: BTreeMap<u16, Slot>,
    factory: EngineFactory,
    directory: TenantDirectory,
    frozen: Option<FrozenLayout>,
}

impl fmt::Debug for TenantEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TenantEngine")
            .field("tenants", &self.slots.keys().collect::<Vec<_>>())
            .field("frozen", &self.frozen.is_some())
            .finish()
    }
}

impl TenantEngine {
    /// A multiplexer over `factory`-built inner engines. The default
    /// tenant's engine is created eagerly (its budget is `usize::MAX`:
    /// the worker's own pool governs it); every other tenant's engine
    /// appears on first touch with [`TenantQuota::initial_budget`].
    pub fn new(directory: TenantDirectory, factory: EngineFactory) -> Self {
        let mut this = Self {
            slots: BTreeMap::new(),
            factory,
            directory,
            frozen: None,
        };
        this.slot_mut(0);
        this
    }

    /// Convenience constructor: every tenant gets a heap-backed slab
    /// engine via [`build_engine`]. Servers that want the default
    /// tenant pool-backed pass a custom factory to [`TenantEngine::new`]
    /// instead.
    pub fn with_slab(directory: TenantDirectory) -> Self {
        Self::new(directory, Box::new(|_t, budget| build_engine(budget)))
    }

    /// The directory this engine consults for quotas.
    pub fn directory(&self) -> &TenantDirectory {
        &self.directory
    }

    fn slot_mut(&mut self, tenant: u16) -> &mut Slot {
        if !self.slots.contains_key(&tenant) {
            let quota = self
                .directory
                .quota(TenantId(tenant))
                .unwrap_or_else(TenantQuota::unlimited);
            let budget = quota.initial_budget();
            let cap = usize::try_from(budget).unwrap_or(usize::MAX);
            let mut engine = (self.factory)(TenantId(tenant), cap);
            if self.frozen.is_some() {
                // Keep partition indices stable inside the new engine
                // too; the layout maps all its keys to the sweep
                // partition regardless.
                engine.freeze();
            }
            self.slots.insert(tenant, Slot { engine, budget });
        }
        self.slots.get_mut(&tenant).expect("slot just ensured")
    }

    /// The layout in effect: the frozen snapshot, or the live
    /// concatenation of inner partition spaces in tenant-id order.
    fn layout(&self) -> (Vec<(u16, usize, usize)>, usize) {
        if let Some(f) = &self.frozen {
            return (f.parts.clone(), f.total);
        }
        let mut parts = Vec::new();
        let mut off = 0;
        for (&t, s) in &self.slots {
            let count = s.engine.partition_count();
            parts.push((t, off, count));
            off += count;
        }
        (parts, off)
    }
}

impl Engine for TenantEngine {
    fn get(&mut self, key: &[u8], now_ms: u64) -> Option<Value> {
        let (t, rest) = split_namespaced(key);
        self.slot_mut(t.0).engine.get(rest, now_ms)
    }

    fn set(
        &mut self,
        key: &[u8],
        value: &[u8],
        now_ms: u64,
        expiry_ms: u64,
    ) -> Result<SetOutcome, CacheError> {
        let (t, rest) = split_namespaced(key);
        self.slot_mut(t.0)
            .engine
            .set(rest, value, now_ms, expiry_ms)
    }

    fn delete(&mut self, key: &[u8], now_ms: u64) -> bool {
        let (t, rest) = split_namespaced(key);
        self.slot_mut(t.0).engine.delete(rest, now_ms)
    }

    fn contains(&mut self, key: &[u8], now_ms: u64) -> bool {
        let (t, rest) = split_namespaced(key);
        self.slot_mut(t.0).engine.contains(rest, now_ms)
    }

    fn touch(&mut self, key: &[u8], now_ms: u64, expiry_ms: u64) -> bool {
        let (t, rest) = split_namespaced(key);
        self.slot_mut(t.0).engine.touch(rest, now_ms, expiry_ms)
    }

    fn read_for_update(&mut self, key: &[u8], now_ms: u64) -> Option<(Vec<u8>, u64)> {
        let (t, rest) = split_namespaced(key);
        self.slot_mut(t.0).engine.read_for_update(rest, now_ms)
    }

    fn add(
        &mut self,
        key: &[u8],
        value: &[u8],
        now_ms: u64,
        expiry_ms: u64,
    ) -> Result<bool, CacheError> {
        let (t, rest) = split_namespaced(key);
        self.slot_mut(t.0)
            .engine
            .add(rest, value, now_ms, expiry_ms)
    }

    fn replace(
        &mut self,
        key: &[u8],
        value: &[u8],
        now_ms: u64,
        expiry_ms: u64,
    ) -> Result<bool, CacheError> {
        let (t, rest) = split_namespaced(key);
        self.slot_mut(t.0)
            .engine
            .replace(rest, value, now_ms, expiry_ms)
    }

    fn concat(
        &mut self,
        key: &[u8],
        suffix: &[u8],
        front: bool,
        now_ms: u64,
    ) -> Result<Option<usize>, CacheError> {
        let (t, rest) = split_namespaced(key);
        self.slot_mut(t.0)
            .engine
            .concat(rest, suffix, front, now_ms)
    }

    fn incr(&mut self, key: &[u8], delta: i64, now_ms: u64) -> Result<Option<u64>, CacheError> {
        let (t, rest) = split_namespaced(key);
        self.slot_mut(t.0).engine.incr(rest, delta, now_ms)
    }

    fn maintain(&mut self, now_ms: u64) {
        for slot in self.slots.values_mut() {
            slot.engine.maintain(now_ms);
        }
    }

    fn len(&self) -> usize {
        self.slots.values().map(|s| s.engine.len()).sum()
    }

    fn used_bytes(&self) -> usize {
        self.slots.values().map(|s| s.engine.used_bytes()).sum()
    }

    fn capacity_bytes(&self) -> usize {
        self.slots.values().fold(0usize, |acc, s| {
            acc.saturating_add(usize::try_from(s.budget).unwrap_or(usize::MAX))
        })
    }

    fn set_capacity_bytes(&mut self, bytes: usize) {
        // The multiplexer's own budget governs the default namespace.
        self.slot_mut(0).engine.set_capacity_bytes(bytes);
    }

    fn tenant_usage(&self) -> Vec<TenantUsage> {
        self.slots
            .iter()
            .map(|(&t, s)| {
                let st = s.engine.stats();
                TenantUsage {
                    tenant: TenantId(t),
                    len: st.len,
                    used_bytes: st.used_bytes,
                    budget_bytes: usize::try_from(s.budget).unwrap_or(usize::MAX),
                    evictions: st.evictions,
                    evicted_bytes: st.evicted_bytes,
                }
            })
            .collect()
    }

    fn set_tenant_budget(&mut self, tenant: TenantId, bytes: usize) -> bool {
        let clamped = match self.directory.quota(tenant) {
            Some(q) => q.clamp(bytes as u64),
            None => bytes as u64,
        };
        let slot = self.slot_mut(tenant.0);
        slot.budget = clamped;
        slot.engine
            .set_capacity_bytes(usize::try_from(clamped).unwrap_or(usize::MAX));
        true
    }

    fn stats(&self) -> EngineStats {
        let mut total = EngineStats::default();
        for s in self.slots.values() {
            let st = s.engine.stats();
            total.len += st.len;
            total.value_bytes += st.value_bytes;
            total.used_bytes += st.used_bytes;
            total.evictions += st.evictions;
            total.expirations += st.expirations;
            total.evicted_bytes += st.evicted_bytes;
            total.expired_bytes += st.expired_bytes;
        }
        total
    }

    fn freeze(&mut self) {
        if self.frozen.is_some() {
            return;
        }
        let mut parts = Vec::with_capacity(self.slots.len());
        let mut off = 0;
        for (&t, s) in &mut self.slots {
            s.engine.freeze();
            let count = s.engine.partition_count();
            parts.push((t, off, count));
            off += count;
        }
        self.frozen = Some(FrozenLayout { parts, total: off });
    }

    fn thaw(&mut self) {
        for s in self.slots.values_mut() {
            s.engine.thaw();
        }
        self.frozen = None;
    }

    fn is_frozen(&self) -> bool {
        self.frozen.is_some()
    }

    fn partition_count(&self) -> usize {
        let (_, total) = self.layout();
        total.max(1)
    }

    fn partition_of(&self, key: &[u8]) -> usize {
        let (t, rest) = split_namespaced(key);
        let (parts, total) = self.layout();
        match parts.iter().find(|&&(pt, _, _)| pt == t.0) {
            Some(&(_, off, count)) => {
                let slot = &self.slots[&t.0];
                off + slot.engine.partition_of(rest).min(count.saturating_sub(1))
            }
            // Tenant appeared after the freeze: its keys live in the
            // sweep partition (the last one).
            None => total.saturating_sub(1),
        }
    }

    fn drain_partition(&mut self, p: usize) -> Vec<(Box<[u8]>, Vec<u8>, u64)> {
        let (parts, total) = self.layout();
        let mut out = Vec::new();
        if let Some(&(t, off, _)) = parts
            .iter()
            .find(|&&(_, off, count)| p >= off && p < off + count)
        {
            let tenant = TenantId(t);
            if let Some(slot) = self.slots.get_mut(&t) {
                for (k, v, exp) in slot.engine.drain_partition(p - off) {
                    out.push((namespaced_key(tenant, &k).into_boxed_slice(), v, exp));
                }
            }
        }
        // Sweep: the final partition also carries every tenant created
        // after the freeze (absent from the layout), in full.
        if p + 1 == total.max(1) {
            let known: Vec<u16> = parts.iter().map(|&(t, _, _)| t).collect();
            let extra: Vec<u16> = self
                .slots
                .keys()
                .copied()
                .filter(|t| !known.contains(t))
                .collect();
            for t in extra {
                let tenant = TenantId(t);
                let slot = self.slots.get_mut(&t).expect("listed above");
                for ip in 0..slot.engine.partition_count() {
                    for (k, v, exp) in slot.engine.drain_partition(ip) {
                        out.push((namespaced_key(tenant, &k).into_boxed_slice(), v, exp));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> TenantDirectory {
        TenantDirectory::new()
            .with_tenant(TenantId(1), TenantQuota::new(16 << 10, 64 << 10))
            .with_tenant(TenantId(2), TenantQuota::new(16 << 10, 64 << 10))
    }

    fn engine() -> TenantEngine {
        TenantEngine::with_slab(dir())
    }

    #[test]
    fn namespacing_roundtrips_and_isolates_identical_raw_keys() {
        let namespaced = namespaced_key(TenantId(7), b"user:42");
        let (t, rest) = split_namespaced(&namespaced);
        assert_eq!((t, rest), (TenantId(7), &b"user:42"[..]));
        let mut e = engine();
        for t in [0u16, 1, 2] {
            let k = namespaced_key(TenantId(t), b"shared-key");
            e.set(&k, format!("value-of-{t}").as_bytes(), 0, 0)
                .expect("set");
        }
        for t in [0u16, 1, 2] {
            let k = namespaced_key(TenantId(t), b"shared-key");
            assert_eq!(
                e.get(&k, 0).expect("hit").as_ref(),
                format!("value-of-{t}").as_bytes()
            );
        }
        let k1 = namespaced_key(TenantId(1), b"shared-key");
        assert!(e.delete(&k1, 0));
        assert!(e.get(&k1, 0).is_none(), "deleted for tenant 1");
        let k2 = namespaced_key(TenantId(2), b"shared-key");
        assert!(e.get(&k2, 0).is_some(), "untouched for tenant 2");
    }

    #[test]
    fn budgets_start_at_quota_midpoint_and_clamp_on_update() {
        let mut e = engine();
        let k = namespaced_key(TenantId(1), b"k");
        e.set(&k, b"v", 0, 0).expect("set");
        let usage = e.tenant_usage();
        let row = usage.iter().find(|u| u.tenant == TenantId(1)).expect("row");
        assert_eq!(row.budget_bytes, 40 << 10, "midway between 16K and 64K");
        // Over-ceiling request clamps to the ceiling; under-floor to
        // the floor.
        assert!(e.set_tenant_budget(TenantId(1), 1 << 30));
        assert!(e.set_tenant_budget(TenantId(2), 1));
        let usage = e.tenant_usage();
        let b = |t: u16| {
            usage
                .iter()
                .find(|u| u.tenant == TenantId(t))
                .expect("row")
                .budget_bytes
        };
        assert_eq!(b(1), 64 << 10);
        assert_eq!(b(2), 16 << 10, "budget set before first touch sticks");
    }

    #[test]
    fn flood_evicts_only_the_flooding_tenant() {
        let mut e = engine();
        // Seed tenant 2 with entries well under its budget.
        for i in 0..20u32 {
            let k = namespaced_key(TenantId(2), format!("keep{i}").as_bytes());
            e.set(&k, &[7u8; 128], 0, 0).expect("seed");
        }
        // Tenant 1 floods far past its 64 KiB ceiling.
        for i in 0..2_000u32 {
            let k = namespaced_key(TenantId(1), format!("flood{i}").as_bytes());
            e.set(&k, &[1u8; 256], 0, 0).expect("flood");
        }
        for i in 0..20u32 {
            let k = namespaced_key(TenantId(2), format!("keep{i}").as_bytes());
            assert!(
                e.get(&k, 0).is_some(),
                "tenant 2 lost `keep{i}` to tenant 1's flood"
            );
        }
        let usage = e.tenant_usage();
        let row = |t: u16| *usage.iter().find(|u| u.tenant == TenantId(t)).expect("row");
        assert!(row(1).evictions > 0, "the flood itself evicted");
        assert_eq!(row(2).evictions, 0, "victim tenant never evicted");
        assert!(row(1).used_bytes <= (usize::MAX >> 1), "bounded");
    }

    #[test]
    fn migration_drain_covers_all_tenants_and_reprefixes_keys() {
        let (mut src, mut dst) = (engine(), engine());
        for t in [0u16, 1, 2] {
            for i in 0..50u32 {
                let k = namespaced_key(TenantId(t), format!("k{i}").as_bytes());
                src.set(&k, format!("{t}/{i}").as_bytes(), 0, 60_000)
                    .expect("set");
            }
        }
        src.freeze();
        assert!(src.is_frozen());
        let total = src.partition_count();
        // A tenant that appears mid-migration maps to the sweep
        // partition.
        let late = namespaced_key(TenantId(9), b"late");
        src.set(&late, b"late-v", 0, 60_000).expect("late set");
        assert_eq!(src.partition_of(&late), total - 1);
        let mut moved = 0usize;
        for p in 0..total {
            for (k, v, exp) in src.drain_partition(p) {
                dst.set(&k, &v, 0, exp).expect("install");
                moved += 1;
            }
        }
        assert_eq!(moved, 151, "3 tenants x 50 + the late key");
        assert_eq!(src.len(), 0, "source fully drained");
        src.thaw();
        assert!(!src.is_frozen());
        for t in [0u16, 1, 2] {
            for i in 0..50u32 {
                let k = namespaced_key(TenantId(t), format!("k{i}").as_bytes());
                assert_eq!(
                    dst.get(&k, 0).expect("migrated").as_ref(),
                    format!("{t}/{i}").as_bytes()
                );
            }
        }
        assert_eq!(
            dst.get(&late, 0).expect("late migrated").as_ref(),
            b"late-v"
        );
    }

    #[test]
    fn partition_indices_stay_stable_while_frozen() {
        let mut e = engine();
        for t in [0u16, 1] {
            let k = namespaced_key(TenantId(t), b"x");
            e.set(&k, b"v", 0, 0).expect("set");
        }
        e.freeze();
        let count = e.partition_count();
        let k = namespaced_key(TenantId(1), b"x");
        let before = e.partition_of(&k);
        // Creating a new tenant's engine mid-freeze must not shift
        // existing indices.
        let nk = namespaced_key(TenantId(2), b"new");
        e.set(&nk, b"v", 0, 0).expect("set");
        assert_eq!(e.partition_count(), count);
        assert_eq!(e.partition_of(&k), before);
    }

    #[test]
    fn aggregate_stats_sum_over_tenants() {
        let mut e = engine();
        for t in [0u16, 1, 2] {
            let k = namespaced_key(TenantId(t), b"k");
            e.set(&k, &[0u8; 64], 0, 0).expect("set");
        }
        assert_eq!(e.len(), 3);
        assert_eq!(e.stats().len, 3);
        assert!(e.used_bytes() >= 3 * 64);
        assert!(!e.is_empty());
        e.maintain(0);
    }
}
