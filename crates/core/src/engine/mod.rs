//! The storage engine.
//!
//! A storage engine owns everything between the cachelet's op surface and
//! raw memory: indexing, eviction policy, TTL expiry, and byte accounting.
//! [`crate::store::ValueStore`] stays underneath as the *allocator*
//! abstraction (the Figure-8 ablation); [`Engine`] sits above it.
//!
//! One engine ships: [`slab_lru`], the paper's design — the
//! single-writer [`crate::table::HashTable`] (open chaining + intrusive
//! LRU) over a [`crate::store::ValueStore`]. The trait stays because
//! `mbal-tenant`'s `TenantEngine` multiplexes per-tenant inner engines
//! behind it.
//!
//! ## Observable semantics contract
//!
//! Every observable result is defined over **live** state only: an entry
//! is live iff its expiry is 0 or still in the future, and an expired
//! entry behaves exactly like an absent one for `get`, `contains`,
//! `touch`, `delete`, `add`, `replace`, and for the `Inserted`/`Updated`
//! outcome of `set`. `incr` and `concat` keep the entry's expiry. The
//! model proptest in `tests/engine_differential.rs` holds the slab
//! engine to this contract against a `HashMap` oracle.

pub mod slab_lru;

pub use slab_lru::SlabLru;

use crate::table::SetOutcome;
use crate::types::{CacheError, TenantId, Value};
use std::fmt;

/// Which storage engine a worker runs. Slab+LRU is the only one; the
/// type remains so the repository benchmark (`perfbench`), which names
/// it when it builds its server configuration, keeps compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Slab allocator + hash table + LRU (the paper's design).
    SlabLru,
}

/// Cumulative engine statistics. Counters are monotone over the life of
/// the engine; `len`/`value_bytes`/`used_bytes` are point-in-time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Live (unexpired-or-not-yet-reclaimed) entries.
    pub len: usize,
    /// Bytes of stored values.
    pub value_bytes: usize,
    /// Total bytes charged (values + per-object metadata).
    pub used_bytes: usize,
    /// Entries dropped by the eviction policy.
    pub evictions: u64,
    /// Entries dropped because they had expired.
    pub expirations: u64,
    /// Value bytes released by eviction.
    pub evicted_bytes: u64,
    /// Value bytes released by expiry.
    pub expired_bytes: u64,
}

impl EngineStats {
    /// Counter-wise delta since `base` (saturating); point-in-time
    /// fields are taken from `self`.
    pub fn counter_delta(&self, base: &EngineStats) -> EngineStats {
        EngineStats {
            len: self.len,
            value_bytes: self.value_bytes,
            used_bytes: self.used_bytes,
            evictions: self.evictions.saturating_sub(base.evictions),
            expirations: self.expirations.saturating_sub(base.expirations),
            evicted_bytes: self.evicted_bytes.saturating_sub(base.evicted_bytes),
            expired_bytes: self.expired_bytes.saturating_sub(base.expired_bytes),
        }
    }
}

/// One tenant's slice of a multiplexing engine: point-in-time occupancy
/// against its arbitrated budget, plus reclamation counters, as surfaced
/// by [`Engine::tenant_usage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantUsage {
    /// The tenant this row describes.
    pub tenant: TenantId,
    /// Live entries in the tenant's namespace.
    pub len: usize,
    /// Bytes charged to the tenant (values + metadata).
    pub used_bytes: usize,
    /// The tenant's current arbitrated byte budget.
    pub budget_bytes: usize,
    /// Entries evicted from this tenant's namespace (always by its own
    /// pressure — isolation is structural).
    pub evictions: u64,
    /// Value bytes released by those evictions.
    pub evicted_bytes: u64,
}

/// A pluggable storage engine: index + eviction + expiry + accounting.
///
/// Engines are single-writer like everything else in a cachelet: all
/// methods take `&mut self` (even logical reads, which may reclaim
/// expired entries and update recency/frequency state) and implementors
/// only need to be [`Send`] so a unit can migrate between worker
/// threads.
pub trait Engine: Send + fmt::Debug {
    /// Looks up `key`, refreshing its recency/frequency state. Expired
    /// entries are reclaimed lazily and reported as a miss.
    ///
    /// Returns a reference-counted [`Value`]: engines whose storage can
    /// be shared (the `Bytes`-backed heap store) serve it zero-copy;
    /// arena-backed engines copy once here and never again downstream.
    fn get(&mut self, key: &[u8], now_ms: u64) -> Option<Value>;

    /// Inserts or replaces `key` → `value`. `expiry_ms` of 0 means no
    /// expiry. Replacing an *expired* entry reports `Inserted`.
    fn set(
        &mut self,
        key: &[u8],
        value: &[u8],
        now_ms: u64,
        expiry_ms: u64,
    ) -> Result<SetOutcome, CacheError>;

    /// Deletes `key`, returning `true` if it was present and unexpired.
    fn delete(&mut self, key: &[u8], now_ms: u64) -> bool;

    /// Returns `true` if `key` is present and unexpired, reclaiming an
    /// expired entry it finds.
    fn contains(&mut self, key: &[u8], now_ms: u64) -> bool;

    /// Updates the expiry of a live key (Memcached `touch`); `true` on
    /// success. An expired entry is reclaimed and reported absent.
    fn touch(&mut self, key: &[u8], now_ms: u64, expiry_ms: u64) -> bool;

    /// Reads a live value and its current expiry for a read-modify-write
    /// (`concat`/`incr`), without refreshing recency. Expired entries
    /// are reclaimed and reported as a miss.
    fn read_for_update(&mut self, key: &[u8], now_ms: u64) -> Option<(Vec<u8>, u64)>;

    /// Stores `key` only if absent (Memcached `add`).
    fn add(
        &mut self,
        key: &[u8],
        value: &[u8],
        now_ms: u64,
        expiry_ms: u64,
    ) -> Result<bool, CacheError> {
        if self.contains(key, now_ms) {
            return Ok(false);
        }
        self.set(key, value, now_ms, expiry_ms)?;
        Ok(true)
    }

    /// Stores `key` only if present (Memcached `replace`).
    fn replace(
        &mut self,
        key: &[u8],
        value: &[u8],
        now_ms: u64,
        expiry_ms: u64,
    ) -> Result<bool, CacheError> {
        if !self.contains(key, now_ms) {
            return Ok(false);
        }
        self.set(key, value, now_ms, expiry_ms)?;
        Ok(true)
    }

    /// Appends (or with `front`, prepends) to an existing value,
    /// preserving its expiry. Returns the new length, `Ok(None)` on a
    /// miss.
    fn concat(
        &mut self,
        key: &[u8],
        suffix: &[u8],
        front: bool,
        now_ms: u64,
    ) -> Result<Option<usize>, CacheError> {
        let Some((current, expiry)) = self.read_for_update(key, now_ms) else {
            return Ok(None);
        };
        let mut combined = Vec::with_capacity(current.len() + suffix.len());
        if front {
            combined.extend_from_slice(suffix);
            combined.extend_from_slice(&current);
        } else {
            combined.extend_from_slice(&current);
            combined.extend_from_slice(suffix);
        }
        self.set(key, &combined, now_ms, expiry)?;
        Ok(Some(combined.len()))
    }

    /// Adds `delta` to an ASCII-decimal `u64` value, saturating at the
    /// ends, preserving expiry. Returns the new value, `Ok(None)` on a
    /// miss, `Err` on a non-numeric value.
    fn incr(&mut self, key: &[u8], delta: i64, now_ms: u64) -> Result<Option<u64>, CacheError> {
        let Some((current, expiry)) = self.read_for_update(key, now_ms) else {
            return Ok(None);
        };
        let text = std::str::from_utf8(&current)
            .map_err(|_| CacheError::Internal("counter is not valid UTF-8"))?;
        let n: u64 = text
            .trim()
            .parse()
            .map_err(|_| CacheError::Internal("counter is not a decimal number"))?;
        let new = if delta >= 0 {
            n.saturating_add(delta as u64)
        } else {
            n.saturating_sub(delta.unsigned_abs())
        };
        self.set(key, new.to_string().as_bytes(), now_ms, expiry)?;
        Ok(Some(new))
    }

    /// Background maintenance: proactive expiry (bounded work). Called
    /// once per epoch by the worker.
    fn maintain(&mut self, now_ms: u64);

    /// Live entry count.
    fn len(&self) -> usize;

    /// Returns `true` when the engine holds no entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes charged to this engine (values + metadata overhead).
    fn used_bytes(&self) -> usize;

    /// Byte budget, `usize::MAX` when unbounded or externally governed.
    fn capacity_bytes(&self) -> usize;

    /// Adjusts the byte budget at runtime (memory arbitration moves
    /// budget between tenants each epoch). Enforcement is lazy: an
    /// engine shrunk below its current usage converges by evicting on
    /// subsequent inserts rather than reclaiming immediately. Engines
    /// whose budget is externally governed ignore the call.
    fn set_capacity_bytes(&mut self, _bytes: usize) {}

    /// Hands one chunk of memory back to the pool this engine shares
    /// with its neighbours, so another engine on the same pool can
    /// allocate. A fully free chunk goes first; with `evict` set the
    /// engine evicts from its LRU tail until one frees up. Returns
    /// whether a chunk went back. Engines with private memory have
    /// nothing to give.
    fn release_chunk(&mut self, _evict: bool) -> bool {
        false
    }

    /// Whether storing a value of `value_len` bytes would allocate
    /// fresh memory for the engine's value storage (a new slab chunk,
    /// say) instead of reusing memory it already holds.
    fn needs_fresh_memory(&self, _value_len: usize) -> bool {
        false
    }

    // --- multi-tenant surface (implemented by tenant multiplexers) ---

    /// Per-tenant occupancy/budget breakdown. Non-empty only for engines
    /// that multiplex tenants (`mbal-tenant`'s `TenantEngine`); plain
    /// single-namespace engines report nothing.
    fn tenant_usage(&self) -> Vec<TenantUsage> {
        Vec::new()
    }

    /// Sets one tenant's byte budget; `true` if the engine routes
    /// tenants and applied the change. Plain engines refuse.
    fn set_tenant_budget(&mut self, _tenant: TenantId, _bytes: usize) -> bool {
        false
    }

    /// Point-in-time statistics snapshot.
    fn stats(&self) -> EngineStats;

    // --- migration surface (§3.4: per-partition, Write-Invalidate) ---

    /// Freezes partition indices so [`Engine::partition_of`] stays
    /// stable while a drain is in flight.
    fn freeze(&mut self);

    /// Thaws partition indices after a finished/aborted migration.
    fn thaw(&mut self);

    /// Whether partitions are currently frozen.
    fn is_frozen(&self) -> bool;

    /// Number of drainable partitions (stable while frozen).
    fn partition_count(&self) -> usize;

    /// The partition `key` maps to (stable while frozen).
    fn partition_of(&self, key: &[u8]) -> usize;

    /// Removes every entry of partition `p`, returning `(key, value,
    /// expiry_ms)` triples — the unit of migration transfer. Entries are
    /// moved with their remaining TTL, expired or not.
    fn drain_partition(&mut self, p: usize) -> Vec<(Box<[u8]>, Vec<u8>, u64)>;
}

/// Builds a boxed slab+LRU engine over a [`crate::store::MallocStore`]
/// holding at most `capacity_bytes` of values: the engine evicts from
/// its LRU tail once the store refuses an allocation. Tenant
/// multiplexers build their per-tenant engines with it; servers build a
/// unit's own engine over a pool-backed slab store instead (`CacheUnit`).
pub fn build_engine(capacity_bytes: usize) -> Box<dyn Engine> {
    Box::new(SlabLru::new(crate::store::MallocStore::new(capacity_bytes)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_counter_delta_saturates() {
        let a = EngineStats {
            evictions: 5,
            expired_bytes: 100,
            ..EngineStats::default()
        };
        let b = EngineStats {
            evictions: 7,
            len: 3,
            ..EngineStats::default()
        };
        let d = b.counter_delta(&a);
        assert_eq!(d.evictions, 2);
        assert_eq!(d.expired_bytes, 0, "saturates, never underflows");
        assert_eq!(d.len, 3, "point-in-time fields come from self");
    }

    #[test]
    fn build_engine_serves_a_roundtrip() {
        let mut e = build_engine(1 << 20);
        e.set(b"k", b"v", 0, 0).expect("set");
        assert_eq!(e.get(b"k", 0).expect("hit").as_ref(), b"v");
        assert_eq!(e.len(), 1);
    }
}
