//! The paper's storage design as an [`Engine`]: slab-allocated values
//! indexed by the single-writer [`HashTable`] with intrusive-LRU
//! eviction and lazy per-entry expiry.
//!
//! This is a thin adapter — all the data-structure work lives in
//! [`crate::table`]; this module maps it onto the engine contract and
//! fills in the engine-level accounting. Migration partitions are the
//! table's hash buckets (frozen during a drain, exactly as before the
//! engine refactor).

use crate::engine::{Engine, EngineStats};
use crate::store::{MallocStore, ValueStore};
use crate::table::{HashTable, SetOutcome};
use crate::types::{CacheError, Value};
use std::fmt;

/// Upper bound on entries visited per [`Engine::maintain`] call, so
/// proactive expiry stays an O(1)-ish epoch task.
const MAINTAIN_PURGE_LIMIT: usize = 128;

/// Slab + hash table + LRU, behind the [`Engine`] trait.
#[derive(Debug)]
pub struct SlabLru<S: ValueStore> {
    table: HashTable,
    store: S,
}

impl<S: ValueStore> SlabLru<S> {
    /// Wraps `store` with a fresh table (64-entry capacity hint, the
    /// historical cachelet default).
    pub fn new(store: S) -> Self {
        Self::with_capacity_hint(store, 64)
    }

    /// Wraps `store` with a table pre-sized for `hint` entries.
    pub fn with_capacity_hint(store: S, hint: usize) -> Self {
        Self {
            table: HashTable::new(hint),
            store,
        }
    }

    /// The underlying table (inspection/tests).
    pub fn table(&self) -> &HashTable {
        &self.table
    }

    /// The underlying value store (inspection/tests).
    pub fn store(&self) -> &S {
        &self.store
    }
}

impl SlabLru<MallocStore> {
    /// A heap-backed engine with no byte budget (tests, baselines).
    pub fn unbounded() -> Self {
        Self::new(MallocStore::new(usize::MAX))
    }
}

impl<S: ValueStore + Send + fmt::Debug> Engine for SlabLru<S> {
    fn get(&mut self, key: &[u8], now_ms: u64) -> Option<Value> {
        self.table.get(key, &mut self.store, now_ms)
    }

    fn set(
        &mut self,
        key: &[u8],
        value: &[u8],
        now_ms: u64,
        expiry_ms: u64,
    ) -> Result<SetOutcome, CacheError> {
        self.table
            .set(key, value, &mut self.store, now_ms, expiry_ms)
    }

    fn delete(&mut self, key: &[u8], now_ms: u64) -> bool {
        self.table.delete(key, &mut self.store, now_ms)
    }

    fn contains(&mut self, key: &[u8], now_ms: u64) -> bool {
        self.table.contains(key, &mut self.store, now_ms)
    }

    fn touch(&mut self, key: &[u8], now_ms: u64, expiry_ms: u64) -> bool {
        self.table.touch(key, &mut self.store, now_ms, expiry_ms)
    }

    fn read_for_update(&mut self, key: &[u8], now_ms: u64) -> Option<(Vec<u8>, u64)> {
        self.table.read_for_update(key, &mut self.store, now_ms)
    }

    fn maintain(&mut self, now_ms: u64) {
        self.table
            .purge_expired(&mut self.store, now_ms, MAINTAIN_PURGE_LIMIT);
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn used_bytes(&self) -> usize {
        self.store.used_bytes() + self.table.overhead_bytes()
    }

    fn capacity_bytes(&self) -> usize {
        // The byte budget is enforced by the value store (its allocator
        // refuses when full and the table evicts from its LRU tail);
        // the engine itself is unbounded.
        usize::MAX
    }

    fn set_capacity_bytes(&mut self, bytes: usize) {
        // Budget changes pass through to the value store; backends with
        // an externally governed budget (the slab pool) ignore them.
        self.store.set_capacity(bytes);
    }

    fn needs_fresh_memory(&self, value_len: usize) -> bool {
        self.store.needs_fresh_memory(value_len)
    }

    fn release_chunk(&mut self, evict: bool) -> bool {
        loop {
            if self.store.release_idle_chunk() {
                return true;
            }
            if !evict || !self.table.evict_one(&mut self.store) {
                return false;
            }
        }
    }

    fn stats(&self) -> EngineStats {
        let t = self.table.stats();
        EngineStats {
            len: t.len,
            value_bytes: self.store.used_bytes(),
            used_bytes: self.used_bytes(),
            evictions: t.evictions,
            expirations: t.expirations,
            evicted_bytes: t.evicted_bytes,
            expired_bytes: t.expired_bytes,
        }
    }

    fn freeze(&mut self) {
        self.table.set_frozen(true);
    }

    fn thaw(&mut self) {
        self.table.set_frozen(false);
    }

    fn is_frozen(&self) -> bool {
        self.table.is_frozen()
    }

    fn partition_count(&self) -> usize {
        self.table.bucket_count()
    }

    fn partition_of(&self, key: &[u8]) -> usize {
        self.table.bucket_of(key)
    }

    fn drain_partition(&mut self, p: usize) -> Vec<(Box<[u8]>, Vec<u8>, u64)> {
        self.table.drain_bucket(p, &mut self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_surface_roundtrip() {
        let mut e = SlabLru::unbounded();
        assert_eq!(e.set(b"k", b"v1", 0, 0), Ok(SetOutcome::Inserted));
        assert_eq!(e.get(b"k", 0).expect("hit").as_ref(), b"v1");
        assert_eq!(e.concat(b"k", b"+", false, 0), Ok(Some(3)));
        assert!(e.touch(b"k", 0, 500));
        assert!(e.contains(b"k", 499));
        assert!(!e.contains(b"k", 500), "expired");
        assert_eq!(e.len(), 0, "contains reclaimed the expired entry");
        let st = e.stats();
        assert_eq!(st.expirations, 1);
        assert_eq!(st.expired_bytes, 3);
        assert_eq!(st.value_bytes, 0);
    }

    #[test]
    fn release_chunk_evicts_only_when_asked() {
        use crate::mem::{GlobalPool, LocalPool, MemConfig, MemPolicy};
        use crate::store::SlabStore;
        use std::sync::Arc;
        let global = Arc::new(GlobalPool::new(1 << 14, 1 << 12, 1));
        let mut cfg = MemConfig::with_capacity(1 << 14);
        cfg.chunk_size = 1 << 12;
        let pool = LocalPool::new(Arc::clone(&global), &cfg, 0, MemPolicy::ThreadLocal);
        let mut e = SlabLru::new(SlabStore::new(pool));
        let mut i = 0u32;
        while global.free_bytes() > 0 {
            e.set(format!("k{i}").as_bytes(), &[0u8; 1000], 0, 0)
                .expect("fits");
            i += 1;
        }
        let live = e.len();
        assert!(!e.release_chunk(false), "every chunk holds a live entry");
        assert!(e.release_chunk(true));
        assert_eq!(global.free_bytes(), 1 << 12);
        assert!(e.len() < live, "the chunk was freed by eviction");
        assert_eq!(e.stats().evictions, (live - e.len()) as u64);
    }

    #[test]
    fn drain_partitions_cover_everything() {
        let mut e = SlabLru::unbounded();
        for i in 0..200u32 {
            e.set(format!("k{i}").as_bytes(), &i.to_le_bytes(), 0, 0)
                .expect("set");
        }
        e.freeze();
        let mut moved = 0;
        for p in 0..e.partition_count() {
            moved += e.drain_partition(p).len();
        }
        assert_eq!(moved, 200);
        assert!(e.is_empty());
        e.thaw();
    }
}
