//! The single-writer open-chaining hash table with an intrusive LRU list.
//!
//! Every cachelet owns one [`HashTable`]. Tables are only ever touched by
//! the worker thread that owns the cachelet, so no operation takes a lock —
//! this is the "fine-grained, partitioned, lockless design" of §2.2.
//!
//! Entries live in a slab (`Vec<Entry>`) addressed by `u32` handles; chains
//! and the LRU list are threaded through the slab with handle links rather
//! than pointers, which keeps the implementation in safe Rust while
//! preserving the intrusive-list performance shape. Values live in a
//! [`ValueStore`]; the table stores only [`ValRef`] handles.

use crate::hash::bucket_hash;
use crate::store::{ValRef, ValueStore};
use crate::types::{CacheError, MAX_KEY_LEN, MAX_VALUE_LEN};
use bytes::Bytes;

/// Sentinel "null" handle for chain and LRU links.
const NIL: u32 = u32::MAX;

/// Reads a value as shared [`Bytes`]: zero-copy where the backend
/// supports it, one copy at the engine boundary otherwise.
fn shared_read<S: ValueStore>(store: &S, val: &ValRef) -> Bytes {
    store
        .read_shared(val)
        .unwrap_or_else(|| Bytes::from(store.read(val).into_owned()))
}

/// Approximate per-entry bookkeeping overhead in bytes, charged to memory
/// accounting (entry struct + bucket share).
pub const ENTRY_OVERHEAD: usize = 64;

/// Outcome of a successful `set`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOutcome {
    /// The key was not present and has been inserted.
    Inserted,
    /// The key existed and its value was replaced.
    Updated,
}

#[derive(Debug)]
struct Entry {
    key: Box<[u8]>,
    hash: u64,
    val: ValRef,
    /// Next entry in the bucket chain.
    next: u32,
    /// Towards most-recently-used.
    lru_prev: u32,
    /// Towards least-recently-used.
    lru_next: u32,
    /// Absolute expiry in milliseconds; 0 means no expiry.
    expiry_ms: u64,
}

/// Point-in-time table statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Live entries.
    pub len: usize,
    /// Bucket count.
    pub buckets: usize,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries dropped because they had expired.
    pub expirations: u64,
    /// Value bytes released by LRU eviction.
    pub evicted_bytes: u64,
    /// Value bytes released by expiry (lazy or purged).
    pub expired_bytes: u64,
    /// Number of rehash operations performed.
    pub rehashes: u64,
}

/// A single-writer hash table with LRU replacement.
#[derive(Debug)]
pub struct HashTable {
    buckets: Vec<u32>,
    entries: Vec<Entry>,
    free_entries: Vec<u32>,
    len: usize,
    lru_head: u32,
    lru_tail: u32,
    key_bytes: usize,
    evictions: u64,
    expirations: u64,
    evicted_bytes: u64,
    expired_bytes: u64,
    rehashes: u64,
    /// While `true`, rehashing is suppressed so bucket indices stay
    /// stable — required during per-bucket migration (§3.4), where "which
    /// bucket has already moved" is tracked by index.
    frozen: bool,
}

impl HashTable {
    /// Creates a table with capacity for roughly `capacity_hint` entries
    /// before the first rehash.
    pub fn new(capacity_hint: usize) -> Self {
        let buckets = (capacity_hint.max(8) * 4 / 3).next_power_of_two();
        Self {
            buckets: vec![NIL; buckets],
            entries: Vec::new(),
            free_entries: Vec::new(),
            len: 0,
            lru_head: NIL,
            lru_tail: NIL,
            key_bytes: 0,
            evictions: 0,
            expirations: 0,
            evicted_bytes: 0,
            expired_bytes: 0,
            rehashes: 0,
            frozen: false,
        }
    }

    /// Freezes (or thaws) bucket indices: while frozen, the table will
    /// not rehash, so [`HashTable::bucket_of`] stays stable. Used by the
    /// migration protocol.
    pub fn set_frozen(&mut self, frozen: bool) {
        self.frozen = frozen;
    }

    /// Whether bucket indices are currently frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of buckets currently allocated.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// The bucket index `key` maps to (used by the per-bucket migration
    /// protocol of §3.4 to decide whether a request hits an in-flight
    /// bucket).
    pub fn bucket_of(&self, key: &[u8]) -> usize {
        (bucket_hash(key) & (self.buckets.len() as u64 - 1)) as usize
    }

    /// Bytes charged to this table: keys plus per-entry overhead. Value
    /// bytes are accounted by the [`ValueStore`].
    pub fn overhead_bytes(&self) -> usize {
        self.key_bytes + self.len * ENTRY_OVERHEAD
    }

    /// Snapshot of the table statistics.
    pub fn stats(&self) -> TableStats {
        TableStats {
            len: self.len,
            buckets: self.buckets.len(),
            evictions: self.evictions,
            expirations: self.expirations,
            evicted_bytes: self.evicted_bytes,
            expired_bytes: self.expired_bytes,
            rehashes: self.rehashes,
        }
    }

    fn find(&self, key: &[u8], hash: u64) -> Option<u32> {
        let mut idx = self.buckets[(hash & (self.buckets.len() as u64 - 1)) as usize];
        while idx != NIL {
            let e = &self.entries[idx as usize];
            if e.hash == hash && e.key.as_ref() == key {
                return Some(idx);
            }
            idx = e.next;
        }
        None
    }

    fn lru_unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let e = &self.entries[idx as usize];
            (e.lru_prev, e.lru_next)
        };
        if prev != NIL {
            self.entries[prev as usize].lru_next = next;
        } else {
            self.lru_head = next;
        }
        if next != NIL {
            self.entries[next as usize].lru_prev = prev;
        } else {
            self.lru_tail = prev;
        }
    }

    fn lru_push_front(&mut self, idx: u32) {
        let old_head = self.lru_head;
        {
            let e = &mut self.entries[idx as usize];
            e.lru_prev = NIL;
            e.lru_next = old_head;
        }
        if old_head != NIL {
            self.entries[old_head as usize].lru_prev = idx;
        } else {
            self.lru_tail = idx;
        }
        self.lru_head = idx;
    }

    fn chain_unlink(&mut self, idx: u32) {
        let hash = self.entries[idx as usize].hash;
        let b = (hash & (self.buckets.len() as u64 - 1)) as usize;
        let mut cur = self.buckets[b];
        if cur == idx {
            self.buckets[b] = self.entries[idx as usize].next;
            return;
        }
        while cur != NIL {
            let next = self.entries[cur as usize].next;
            if next == idx {
                self.entries[cur as usize].next = self.entries[idx as usize].next;
                return;
            }
            cur = next;
        }
        debug_assert!(false, "entry missing from its chain");
    }

    /// Removes entry `idx` from all structures and releases its value.
    fn remove_entry<S: ValueStore>(&mut self, idx: u32, store: &mut S) -> Box<[u8]> {
        self.chain_unlink(idx);
        self.lru_unlink(idx);
        let e = &mut self.entries[idx as usize];
        let key = std::mem::take(&mut e.key);
        let val = e.val;
        e.next = NIL;
        self.key_bytes -= key.len();
        self.len -= 1;
        self.free_entries.push(idx);
        store.free(val);
        key
    }

    fn is_expired(&self, idx: u32, now_ms: u64) -> bool {
        let exp = self.entries[idx as usize].expiry_ms;
        exp != 0 && exp <= now_ms
    }

    /// Removes an expired entry, freeing its value bytes and charging
    /// the expiration counters. Every path that discovers an expired
    /// entry (`get`, `contains`, `touch`, `set`, `delete`, `concat`,
    /// `incr`, `purge_expired`) reclaims through here, so no path leaks
    /// value bytes or undercounts `expirations`.
    fn expire_entry<S: ValueStore>(&mut self, idx: u32, store: &mut S) -> Box<[u8]> {
        self.expired_bytes += self.entries[idx as usize].val.len() as u64;
        self.expirations += 1;
        self.remove_entry(idx, store)
    }

    /// Looks up `key`, refreshing its LRU position.
    ///
    /// Expired entries are removed lazily and reported as a miss.
    ///
    /// Returns a reference-counted [`Bytes`] view: backends that can
    /// share their storage ([`ValueStore::read_shared`]) serve it with a
    /// refcount bump and zero copies; arena-backed stores copy once here
    /// at the engine boundary.
    pub fn get<S: ValueStore>(&mut self, key: &[u8], store: &mut S, now_ms: u64) -> Option<Bytes> {
        let hash = bucket_hash(key);
        let idx = self.find(key, hash)?;
        if self.is_expired(idx, now_ms) {
            self.expire_entry(idx, store);
            return None;
        }
        self.lru_unlink(idx);
        self.lru_push_front(idx);
        let val = self.entries[idx as usize].val;
        Some(shared_read(store, &val))
    }

    /// Looks up `key` without touching the LRU (used by migration reads).
    pub fn peek<S: ValueStore>(&self, key: &[u8], store: &S, now_ms: u64) -> Option<Bytes> {
        let hash = bucket_hash(key);
        let idx = self.find(key, hash)?;
        if self.is_expired(idx, now_ms) {
            return None;
        }
        Some(shared_read(store, &self.entries[idx as usize].val))
    }

    /// Returns `true` if `key` is present and unexpired.
    ///
    /// An expired entry discovered here is reclaimed immediately (its
    /// value bytes freed, `expirations` charged) just like on the `get`
    /// path, so repeated membership probes cannot pin dead values.
    pub fn contains<S: ValueStore>(&mut self, key: &[u8], store: &mut S, now_ms: u64) -> bool {
        let hash = bucket_hash(key);
        match self.find(key, hash) {
            Some(idx) if self.is_expired(idx, now_ms) => {
                self.expire_entry(idx, store);
                false
            }
            Some(_) => true,
            None => false,
        }
    }

    /// Inserts or replaces `key` → `value`, evicting LRU entries as needed
    /// to make room.
    ///
    /// `expiry_ms` of 0 means no expiry. Returns whether the key was
    /// inserted or updated.
    pub fn set<S: ValueStore>(
        &mut self,
        key: &[u8],
        value: &[u8],
        store: &mut S,
        now_ms: u64,
        expiry_ms: u64,
    ) -> Result<SetOutcome, CacheError> {
        if key.len() > MAX_KEY_LEN {
            return Err(CacheError::KeyTooLong(key.len()));
        }
        if value.len() > MAX_VALUE_LEN {
            return Err(CacheError::ValueTooLong(value.len()));
        }
        let hash = bucket_hash(key);
        // The replaced entry's key allocation is reused: an overwrite
        // allocates nothing long-lived on the calling thread.
        let mut old_key = None;
        let existed = if let Some(idx) = self.find(key, hash) {
            if self.is_expired(idx, now_ms) {
                // An expired entry counts as absent: reclaim it and
                // report the set as an insert, so the outcome depends
                // only on live state (engines that physically remove
                // expired entries at different times must still agree).
                old_key = Some(self.expire_entry(idx, store));
                false
            } else {
                // Replace: free the old value first so in-place updates
                // of the same size recycle their own slot.
                old_key = Some(self.remove_entry(idx, store));
                true
            }
        } else {
            false
        };

        // Allocate, evicting from our own LRU tail on memory pressure.
        let val = loop {
            match store.alloc_write(value) {
                Some(v) => break v,
                None => {
                    if !self.evict_one(store) {
                        return Err(CacheError::OutOfMemory);
                    }
                }
            }
        };

        self.insert_fresh(old_key.unwrap_or_else(|| key.into()), hash, val, expiry_ms);
        Ok(if existed {
            SetOutcome::Updated
        } else {
            SetOutcome::Inserted
        })
    }

    fn insert_fresh(&mut self, key: Box<[u8]>, hash: u64, val: ValRef, expiry_ms: u64) {
        if !self.frozen && self.len + 1 > self.buckets.len() * 3 / 4 {
            self.rehash(self.buckets.len() * 2);
        }
        self.key_bytes += key.len();
        let idx = match self.free_entries.pop() {
            Some(i) => {
                let e = &mut self.entries[i as usize];
                e.key = key;
                e.hash = hash;
                e.val = val;
                e.expiry_ms = expiry_ms;
                i
            }
            None => {
                self.entries.push(Entry {
                    key,
                    hash,
                    val,
                    next: NIL,
                    lru_prev: NIL,
                    lru_next: NIL,
                    expiry_ms,
                });
                (self.entries.len() - 1) as u32
            }
        };
        let b = (hash & (self.buckets.len() as u64 - 1)) as usize;
        self.entries[idx as usize].next = self.buckets[b];
        self.buckets[b] = idx;
        self.lru_push_front(idx);
        self.len += 1;
    }

    /// Stores `key` only if it is absent (Memcached `add`). Returns
    /// `Ok(true)` if stored, `Ok(false)` if the key already existed.
    pub fn add<S: ValueStore>(
        &mut self,
        key: &[u8],
        value: &[u8],
        store: &mut S,
        now_ms: u64,
        expiry_ms: u64,
    ) -> Result<bool, CacheError> {
        if self.contains(key, store, now_ms) {
            return Ok(false);
        }
        self.set(key, value, store, now_ms, expiry_ms)?;
        Ok(true)
    }

    /// Stores `key` only if it is present (Memcached `replace`). Returns
    /// `Ok(true)` if replaced, `Ok(false)` on a miss.
    pub fn replace<S: ValueStore>(
        &mut self,
        key: &[u8],
        value: &[u8],
        store: &mut S,
        now_ms: u64,
        expiry_ms: u64,
    ) -> Result<bool, CacheError> {
        if !self.contains(key, store, now_ms) {
            return Ok(false);
        }
        self.set(key, value, store, now_ms, expiry_ms)?;
        Ok(true)
    }

    /// Appends (or, with `front`, prepends) `suffix` to an existing
    /// value. Returns the new length, or `Ok(None)` on a miss.
    pub fn concat<S: ValueStore>(
        &mut self,
        key: &[u8],
        suffix: &[u8],
        front: bool,
        store: &mut S,
        now_ms: u64,
    ) -> Result<Option<usize>, CacheError> {
        let (current, expiry) = {
            let hash = bucket_hash(key);
            let Some(idx) = self.find(key, hash) else {
                return Ok(None);
            };
            if self.is_expired(idx, now_ms) {
                self.expire_entry(idx, store);
                return Ok(None);
            }
            let e = &self.entries[idx as usize];
            (store.read(&e.val).into_owned(), e.expiry_ms)
        };
        let mut combined = Vec::with_capacity(current.len() + suffix.len());
        if front {
            combined.extend_from_slice(suffix);
            combined.extend_from_slice(&current);
        } else {
            combined.extend_from_slice(&current);
            combined.extend_from_slice(suffix);
        }
        self.set(key, &combined, store, now_ms, expiry)?;
        Ok(Some(combined.len()))
    }

    /// Adds `delta` to a numeric (ASCII decimal `u64`) value
    /// (Memcached `incr`/`decr` with a negative delta saturating at 0).
    /// Returns the new value, `Ok(None)` on a miss.
    pub fn incr<S: ValueStore>(
        &mut self,
        key: &[u8],
        delta: i64,
        store: &mut S,
        now_ms: u64,
    ) -> Result<Option<u64>, CacheError> {
        let (current, expiry) = {
            let hash = bucket_hash(key);
            let Some(idx) = self.find(key, hash) else {
                return Ok(None);
            };
            if self.is_expired(idx, now_ms) {
                self.expire_entry(idx, store);
                return Ok(None);
            }
            let e = &self.entries[idx as usize];
            (store.read(&e.val).into_owned(), e.expiry_ms)
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
        self.set(key, new.to_string().as_bytes(), store, now_ms, expiry)?;
        Ok(Some(new))
    }

    /// Reads a live value and its expiry for a read-modify-write
    /// (`concat`/`incr`-style) path, without refreshing the LRU.
    /// An expired entry is reclaimed and reported as a miss.
    pub fn read_for_update<S: ValueStore>(
        &mut self,
        key: &[u8],
        store: &mut S,
        now_ms: u64,
    ) -> Option<(Vec<u8>, u64)> {
        let hash = bucket_hash(key);
        let idx = self.find(key, hash)?;
        if self.is_expired(idx, now_ms) {
            self.expire_entry(idx, store);
            return None;
        }
        let e = &self.entries[idx as usize];
        Some((store.read(&e.val).into_owned(), e.expiry_ms))
    }

    /// Updates the expiry of an existing key (Memcached `touch`).
    /// Returns `true` if the key was present and unexpired.
    ///
    /// An expired entry discovered here is reclaimed immediately,
    /// like on the `get`/`contains` paths.
    pub fn touch<S: ValueStore>(
        &mut self,
        key: &[u8],
        store: &mut S,
        now_ms: u64,
        expiry_ms: u64,
    ) -> bool {
        let hash = bucket_hash(key);
        match self.find(key, hash) {
            Some(idx) if self.is_expired(idx, now_ms) => {
                self.expire_entry(idx, store);
                false
            }
            Some(idx) => {
                self.entries[idx as usize].expiry_ms = expiry_ms;
                true
            }
            None => false,
        }
    }

    /// Deletes `key`, returning `true` if it was present and unexpired.
    ///
    /// Deleting an already-expired entry reclaims it but reports `false`
    /// (it was logically absent), charged as an expiration — not a
    /// delete-hit.
    pub fn delete<S: ValueStore>(&mut self, key: &[u8], store: &mut S, now_ms: u64) -> bool {
        let hash = bucket_hash(key);
        match self.find(key, hash) {
            Some(idx) if self.is_expired(idx, now_ms) => {
                self.expire_entry(idx, store);
                false
            }
            Some(idx) => {
                self.remove_entry(idx, store);
                true
            }
            None => false,
        }
    }

    /// Evicts the least-recently-used entry; returns `false` on an empty
    /// table.
    pub fn evict_one<S: ValueStore>(&mut self, store: &mut S) -> bool {
        let tail = self.lru_tail;
        if tail == NIL {
            return false;
        }
        self.evicted_bytes += self.entries[tail as usize].val.len() as u64;
        self.remove_entry(tail, store);
        self.evictions += 1;
        true
    }

    /// Removes up to `limit` expired entries, returning how many were
    /// purged.
    pub fn purge_expired<S: ValueStore>(
        &mut self,
        store: &mut S,
        now_ms: u64,
        limit: usize,
    ) -> usize {
        // Walk the LRU from the tail; expired entries cluster there under
        // lease-style usage but we scan the whole list bounded by `limit`
        // visits for correctness.
        let mut purged = 0;
        let mut visited = 0;
        let mut idx = self.lru_tail;
        while idx != NIL && visited < limit {
            let prev = self.entries[idx as usize].lru_prev;
            if self.is_expired(idx, now_ms) {
                self.expire_entry(idx, store);
                purged += 1;
            }
            visited += 1;
            idx = prev;
        }
        purged
    }

    fn rehash(&mut self, new_buckets: usize) {
        let new_len = new_buckets.next_power_of_two();
        let mut buckets = vec![NIL; new_len];
        // Rebuild chains; order within a chain is irrelevant.
        let mut idx = self.lru_head;
        while idx != NIL {
            let (hash, next_lru) = {
                let e = &self.entries[idx as usize];
                (e.hash, e.lru_next)
            };
            let b = (hash & (new_len as u64 - 1)) as usize;
            self.entries[idx as usize].next = buckets[b];
            buckets[b] = idx;
            idx = next_lru;
        }
        self.buckets = buckets;
        self.rehashes += 1;
    }

    /// Keys currently stored in bucket `b` (unexpired ones included; the
    /// migrator moves them with their remaining TTL).
    pub fn keys_in_bucket(&self, b: usize) -> Vec<Box<[u8]>> {
        let mut out = Vec::new();
        let mut idx = self.buckets[b];
        while idx != NIL {
            let e = &self.entries[idx as usize];
            out.push(e.key.clone());
            idx = e.next;
        }
        out
    }

    /// Removes every entry in bucket `b`, returning `(key, value,
    /// expiry_ms)` triples — the unit of transfer for coordinated cachelet
    /// migration (§3.4).
    pub fn drain_bucket<S: ValueStore>(
        &mut self,
        b: usize,
        store: &mut S,
    ) -> Vec<(Box<[u8]>, Vec<u8>, u64)> {
        let mut out = Vec::new();
        while self.buckets[b] != NIL {
            let idx = self.buckets[b];
            let (val, expiry) = {
                let e = &self.entries[idx as usize];
                (e.val, e.expiry_ms)
            };
            let value = store.read(&val).into_owned();
            let key = self.remove_entry(idx, store);
            out.push((key, value, expiry));
        }
        out
    }

    /// Iterates `(key, value, expiry_ms)` over the whole table in LRU
    /// order (most recent first) without modifying it.
    pub fn snapshot<S: ValueStore>(&self, store: &S) -> Vec<(Box<[u8]>, Vec<u8>, u64)> {
        let mut out = Vec::with_capacity(self.len);
        let mut idx = self.lru_head;
        while idx != NIL {
            let e = &self.entries[idx as usize];
            out.push((e.key.clone(), store.read(&e.val).into_owned(), e.expiry_ms));
            idx = e.lru_next;
        }
        out
    }

    /// The key of the least-recently-used entry, if any (test/debug aid).
    pub fn lru_victim(&self) -> Option<&[u8]> {
        if self.lru_tail == NIL {
            None
        } else {
            Some(&self.entries[self.lru_tail as usize].key)
        }
    }

    /// Verifies internal invariants; used by tests and debug assertions.
    ///
    /// # Panics
    ///
    /// Panics if any chain/LRU/accounting invariant is violated.
    pub fn check_invariants(&self) {
        // Every chain entry is live and hashes into its bucket.
        let mut chained = 0;
        for (b, &head) in self.buckets.iter().enumerate() {
            let mut idx = head;
            while idx != NIL {
                let e = &self.entries[idx as usize];
                assert_eq!(
                    (e.hash & (self.buckets.len() as u64 - 1)) as usize,
                    b,
                    "entry in wrong bucket"
                );
                chained += 1;
                idx = e.next;
                assert!(chained <= self.len, "chain cycle");
            }
        }
        assert_eq!(chained, self.len, "chain count mismatch");
        // LRU list covers exactly the live entries, both directions.
        let mut fwd = 0;
        let mut idx = self.lru_head;
        let mut prev = NIL;
        while idx != NIL {
            assert_eq!(self.entries[idx as usize].lru_prev, prev, "lru prev link");
            prev = idx;
            idx = self.entries[idx as usize].lru_next;
            fwd += 1;
            assert!(fwd <= self.len, "lru cycle");
        }
        assert_eq!(fwd, self.len, "lru count mismatch");
        assert_eq!(self.lru_tail, prev, "lru tail mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MallocStore;

    fn fixture() -> (HashTable, MallocStore) {
        (HashTable::new(16), MallocStore::new(usize::MAX))
    }

    #[test]
    fn set_get_delete_roundtrip() {
        let (mut t, mut s) = fixture();
        assert_eq!(
            t.set(b"k1", b"v1", &mut s, 0, 0).expect("set"),
            SetOutcome::Inserted
        );
        assert_eq!(t.get(b"k1", &mut s, 0).expect("hit").as_ref(), b"v1");
        assert_eq!(
            t.set(b"k1", b"v2", &mut s, 0, 0).expect("set"),
            SetOutcome::Updated
        );
        assert_eq!(t.get(b"k1", &mut s, 0).expect("hit").as_ref(), b"v2");
        assert!(t.delete(b"k1", &mut s, 0));
        assert!(!t.delete(b"k1", &mut s, 0));
        assert!(t.get(b"k1", &mut s, 0).is_none());
        assert_eq!(s.used_bytes(), 0, "value storage leaked");
        t.check_invariants();
    }

    #[test]
    fn rejects_oversize_key_and_value() {
        let (mut t, mut s) = fixture();
        let long_key = vec![b'k'; MAX_KEY_LEN + 1];
        assert_eq!(
            t.set(&long_key, b"v", &mut s, 0, 0),
            Err(CacheError::KeyTooLong(MAX_KEY_LEN + 1))
        );
        let long_val = vec![0u8; MAX_VALUE_LEN + 1];
        assert_eq!(
            t.set(b"k", &long_val, &mut s, 0, 0),
            Err(CacheError::ValueTooLong(MAX_VALUE_LEN + 1))
        );
    }

    #[test]
    fn lru_eviction_order() {
        let mut t = HashTable::new(16);
        let mut s = MallocStore::new(usize::MAX);
        for i in 0..4 {
            t.set(format!("k{i}").as_bytes(), b"v", &mut s, 0, 0)
                .expect("set");
        }
        // Touch k0 so k1 becomes the victim.
        assert!(t.get(b"k0", &mut s, 0).is_some());
        assert_eq!(t.lru_victim().expect("victim"), b"k1");
        assert!(t.evict_one(&mut s));
        assert!(!t.contains(b"k1", &mut s, 0));
        assert!(t.contains(b"k0", &mut s, 0));
        t.check_invariants();
    }

    #[test]
    fn set_evicts_under_memory_pressure() {
        let mut t = HashTable::new(16);
        // Capacity for ~4 values of 100 bytes.
        let mut s = MallocStore::new(400);
        for i in 0..8 {
            t.set(format!("k{i}").as_bytes(), &[i as u8; 100], &mut s, 0, 0)
                .expect("set with eviction");
        }
        assert_eq!(t.len(), 4);
        assert!(t.stats().evictions >= 4);
        // The most recent four survive.
        for i in 4..8 {
            assert!(
                t.contains(format!("k{i}").as_bytes(), &mut s, 0),
                "k{i} missing"
            );
        }
        t.check_invariants();
    }

    #[test]
    fn oversize_value_on_empty_table_is_oom() {
        let mut t = HashTable::new(4);
        let mut s = MallocStore::new(10);
        assert_eq!(
            t.set(b"k", &[0u8; 100], &mut s, 0, 0),
            Err(CacheError::OutOfMemory)
        );
        assert!(t.is_empty());
    }

    #[test]
    fn expiry_is_lazy_and_purgeable() {
        let (mut t, mut s) = fixture();
        t.set(b"fresh", b"v", &mut s, 0, 0).expect("set");
        t.set(b"stale", b"v", &mut s, 0, 100).expect("set");
        assert!(t.get(b"stale", &mut s, 50).is_some());
        assert!(t.get(b"stale", &mut s, 100).is_none(), "expired at t=100");
        assert_eq!(t.len(), 1);
        t.set(b"stale2", b"v", &mut s, 0, 100).expect("set");
        assert_eq!(t.purge_expired(&mut s, 200, 100), 1);
        assert!(t.contains(b"fresh", &mut s, 200));
        t.check_invariants();
    }

    #[test]
    fn grows_and_rehashes() {
        let (mut t, mut s) = fixture();
        for i in 0..10_000u32 {
            t.set(
                format!("key:{i}").as_bytes(),
                &i.to_le_bytes(),
                &mut s,
                0,
                0,
            )
            .expect("set");
        }
        assert!(t.stats().rehashes > 0);
        assert_eq!(t.len(), 10_000);
        for i in (0..10_000u32).step_by(97) {
            assert_eq!(
                t.get(format!("key:{i}").as_bytes(), &mut s, 0)
                    .expect("hit")
                    .as_ref(),
                &i.to_le_bytes()
            );
        }
        t.check_invariants();
    }

    #[test]
    fn drain_bucket_moves_everything_once() {
        let (mut t, mut s) = fixture();
        for i in 0..500u32 {
            t.set(
                format!("key:{i}").as_bytes(),
                &i.to_le_bytes(),
                &mut s,
                0,
                0,
            )
            .expect("set");
        }
        let mut moved = 0;
        for b in 0..t.bucket_count() {
            moved += t.drain_bucket(b, &mut s).len();
        }
        assert_eq!(moved, 500);
        assert!(t.is_empty());
        assert_eq!(s.used_bytes(), 0);
        t.check_invariants();
    }

    #[test]
    fn snapshot_is_lru_ordered() {
        let (mut t, mut s) = fixture();
        t.set(b"a", b"1", &mut s, 0, 0).expect("set");
        t.set(b"b", b"2", &mut s, 0, 0).expect("set");
        t.set(b"c", b"3", &mut s, 0, 0).expect("set");
        let _ = t.get(b"a", &mut s, 0);
        let snap = t.snapshot(&s);
        let keys: Vec<&[u8]> = snap.iter().map(|(k, _, _)| k.as_ref()).collect();
        assert_eq!(keys, vec![b"a" as &[u8], b"c", b"b"]);
    }

    #[test]
    fn frozen_table_never_rehashes() {
        let (mut t, mut s) = fixture();
        t.set_frozen(true);
        let buckets = t.bucket_count();
        for i in 0..2_000u32 {
            t.set(format!("k{i}").as_bytes(), b"v", &mut s, 0, 0)
                .expect("set");
        }
        assert_eq!(t.bucket_count(), buckets, "frozen table grew");
        assert_eq!(t.stats().rehashes, 0);
        t.set_frozen(false);
        t.set(b"one-more", b"v", &mut s, 0, 0).expect("set");
        assert!(t.stats().rehashes > 0, "thawed table rehashes");
        t.check_invariants();
    }

    #[test]
    fn add_and_replace_are_conditional() {
        let (mut t, mut s) = fixture();
        assert_eq!(t.add(b"k", b"v1", &mut s, 0, 0), Ok(true));
        assert_eq!(t.add(b"k", b"v2", &mut s, 0, 0), Ok(false), "add on hit");
        assert_eq!(t.get(b"k", &mut s, 0).expect("hit").as_ref(), b"v1");
        assert_eq!(t.replace(b"k", b"v3", &mut s, 0, 0), Ok(true));
        assert_eq!(t.get(b"k", &mut s, 0).expect("hit").as_ref(), b"v3");
        assert_eq!(
            t.replace(b"missing", b"v", &mut s, 0, 0),
            Ok(false),
            "replace on miss"
        );
        // Expired keys count as absent for add.
        t.set(b"ttl", b"v", &mut s, 0, 100).expect("set");
        assert_eq!(t.add(b"ttl", b"new", &mut s, 200, 0), Ok(true));
        t.check_invariants();
    }

    #[test]
    fn concat_appends_and_prepends() {
        let (mut t, mut s) = fixture();
        t.set(b"k", b"mid", &mut s, 0, 500).expect("set");
        assert_eq!(t.concat(b"k", b"-end", false, &mut s, 0), Ok(Some(7)));
        assert_eq!(t.concat(b"k", b"pre-", true, &mut s, 0), Ok(Some(11)));
        assert_eq!(
            t.get(b"k", &mut s, 0).expect("hit").as_ref(),
            b"pre-mid-end"
        );
        assert_eq!(t.concat(b"nope", b"x", false, &mut s, 0), Ok(None));
        // Expiry is preserved across concat.
        assert!(t.get(b"k", &mut s, 499).is_some());
        assert!(t.get(b"k", &mut s, 500).is_none());
    }

    #[test]
    fn incr_decr_semantics() {
        let (mut t, mut s) = fixture();
        t.set(b"n", b"10", &mut s, 0, 0).expect("set");
        assert_eq!(t.incr(b"n", 5, &mut s, 0), Ok(Some(15)));
        assert_eq!(t.incr(b"n", -20, &mut s, 0), Ok(Some(0)), "decr saturates");
        assert_eq!(t.incr(b"missing", 1, &mut s, 0), Ok(None));
        t.set(b"text", b"abc", &mut s, 0, 0).expect("set");
        assert!(t.incr(b"text", 1, &mut s, 0).is_err(), "non-numeric");
        // Overflow saturates rather than wrapping.
        t.set(b"big", u64::MAX.to_string().as_bytes(), &mut s, 0, 0)
            .expect("set");
        assert_eq!(t.incr(b"big", 1, &mut s, 0), Ok(Some(u64::MAX)));
    }

    #[test]
    fn touch_updates_expiry() {
        let (mut t, mut s) = fixture();
        t.set(b"k", b"v", &mut s, 0, 100).expect("set");
        assert!(t.touch(b"k", &mut s, 50, 1_000));
        assert!(t.get(b"k", &mut s, 500).is_some(), "touch extended life");
        assert!(!t.touch(b"missing", &mut s, 0, 1_000));
        assert!(
            !t.touch(b"k", &mut s, 2_000, 9_000),
            "expired key cannot be touched"
        );
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let (mut t, mut s) = fixture();
        t.set(b"a", b"1", &mut s, 0, 0).expect("set");
        t.set(b"b", b"2", &mut s, 0, 0).expect("set");
        assert_eq!(t.peek(b"a", &s, 0).expect("hit").as_ref(), b"1");
        assert_eq!(
            t.lru_victim().expect("victim"),
            b"a",
            "peek must not refresh"
        );
    }
}
