//! Pluggable value-storage backends.
//!
//! The hash table stores values through the [`ValueStore`] trait so the
//! allocator ablation of Figure 8 (slab vs `malloc` vs static vs a
//! contended jemalloc-like arena) swaps backends without touching the
//! table. The production backend is [`SlabStore`], a thin wrapper over
//! [`crate::mem::LocalPool`].

use crate::mem::{Extent, LocalPool};
use bytes::Bytes;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::sync::Arc;

/// Backend-agnostic value reference stored inline in hash-table entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValRef(pub(crate) Extent);

impl ValRef {
    /// Logical length of the referenced bytes.
    pub fn len(&self) -> usize {
        self.0.len as usize
    }

    /// Returns `true` for a zero-length value.
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }
}

/// A value storage backend.
///
/// Implementations own the bytes; the hash table only keeps [`ValRef`]
/// handles. All methods are `&mut self`/`&self` because every store is
/// owned by exactly one worker thread (the single-writer discipline) —
/// shared-state backends do their own internal locking.
pub trait ValueStore {
    /// Stores `data`, returning a handle, or `None` when out of memory.
    fn alloc_write(&mut self, data: &[u8]) -> Option<ValRef>;

    /// Reads the bytes behind `r`.
    ///
    /// Returns borrowed bytes for thread-owned backends; shared backends
    /// (which cannot lend borrows across their internal mutex) return an
    /// owned copy.
    fn read(&self, r: &ValRef) -> Cow<'_, [u8]>;

    /// Returns a reference-counted shared view of the bytes behind `r`,
    /// or `None` for backends whose storage cannot be safely shared
    /// outside the store (slab/static arenas recycle extents eagerly, so
    /// a refcounted view could observe a recycled slot). Callers fall
    /// back to one copy at the engine boundary via [`ValueStore::read`].
    fn read_shared(&self, _r: &ValRef) -> Option<Bytes> {
        None
    }

    /// Releases the storage behind `r`.
    fn free(&mut self, r: ValRef);

    /// Bytes of payload currently stored (logical, not slot-rounded).
    fn used_bytes(&self) -> usize;

    /// Adjusts the store's byte budget at runtime; stores whose budget
    /// is externally governed (the slab pool hierarchy) ignore this.
    /// Shrinking below current usage is allowed — the engine above
    /// converges by evicting on subsequent allocation failures.
    fn set_capacity(&mut self, _bytes: usize) {}

    /// Returns one fully free chunk to the shared pool the store draws
    /// from; `false` when it holds none, or has no shared pool.
    fn release_idle_chunk(&mut self) -> bool {
        false
    }

    /// Whether storing `len` bytes would allocate fresh memory for the
    /// store rather than reuse memory it or its pool already holds.
    fn needs_fresh_memory(&self, _len: usize) -> bool {
        false
    }
}

/// The production backend: MBal's hierarchical slab pool.
#[derive(Debug)]
pub struct SlabStore {
    pool: LocalPool,
    used: usize,
}

impl SlabStore {
    /// Wraps a worker-local pool.
    pub fn new(pool: LocalPool) -> Self {
        Self { pool, used: 0 }
    }

    /// Access the underlying pool (for statistics).
    pub fn pool(&self) -> &LocalPool {
        &self.pool
    }
}

impl ValueStore for SlabStore {
    fn alloc_write(&mut self, data: &[u8]) -> Option<ValRef> {
        let ext = self.pool.alloc_write(data)?;
        self.used += data.len();
        Some(ValRef(ext))
    }

    fn read(&self, r: &ValRef) -> Cow<'_, [u8]> {
        Cow::Borrowed(self.pool.read(&r.0))
    }

    fn free(&mut self, r: ValRef) {
        self.used -= r.0.len as usize;
        self.pool.free(r.0);
    }

    fn used_bytes(&self) -> usize {
        self.used
    }

    fn release_idle_chunk(&mut self) -> bool {
        self.pool.release_idle_chunk()
    }

    fn needs_fresh_memory(&self, len: usize) -> bool {
        self.pool.needs_fresh_chunk(len)
    }
}

/// `malloc` ablation: every value is an individual heap allocation.
///
/// Models running a cache instance on per-request dynamic allocation
/// (`Multi-inst Mc(malloc)` / `MBal(malloc)` in Figure 8). Slots hold
/// reference-counted [`Bytes`], so [`ValueStore::read_shared`] serves a
/// zero-copy view: freeing the slot drops this store's reference while
/// in-flight readers keep theirs alive.
#[derive(Debug, Default)]
pub struct MallocStore {
    slots: Vec<Option<Bytes>>,
    free_ids: Vec<u32>,
    used: usize,
    /// Budget in bytes; `usize::MAX` means unlimited.
    capacity: usize,
}

impl MallocStore {
    /// Creates a store with a byte `capacity` budget.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            ..Self::default()
        }
    }

    /// Current byte budget.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl ValueStore for MallocStore {
    fn alloc_write(&mut self, data: &[u8]) -> Option<ValRef> {
        if self.used + data.len() > self.capacity {
            return None;
        }
        let shared = Bytes::copy_from_slice(data);
        let id = match self.free_ids.pop() {
            Some(id) => {
                self.slots[id as usize] = Some(shared);
                id
            }
            None => {
                self.slots.push(Some(shared));
                (self.slots.len() - 1) as u32
            }
        };
        self.used += data.len();
        Some(ValRef(Extent {
            chunk: id,
            offset: 0,
            len: data.len() as u32,
            class: 0,
        }))
    }

    fn read(&self, r: &ValRef) -> Cow<'_, [u8]> {
        Cow::Borrowed(
            self.slots[r.0.chunk as usize]
                .as_deref()
                .expect("live malloc slot"),
        )
    }

    fn read_shared(&self, r: &ValRef) -> Option<Bytes> {
        Some(
            self.slots[r.0.chunk as usize]
                .clone()
                .expect("live malloc slot"),
        )
    }

    fn free(&mut self, r: ValRef) {
        let slot = self.slots[r.0.chunk as usize]
            .take()
            .expect("freeing live malloc slot");
        self.used -= slot.len();
        self.free_ids.push(r.0.chunk);
    }

    fn used_bytes(&self) -> usize {
        self.used
    }

    fn set_capacity(&mut self, bytes: usize) {
        self.capacity = bytes;
    }
}

/// Static-preallocation ablation: fixed-size slots carved up front
/// (`Multi-inst Mc(static)` in Figure 8). Fast but wastes memory on small
/// values and caps value size.
#[derive(Debug)]
pub struct StaticStore {
    arena: Box<[u8]>,
    slot_size: usize,
    free: Vec<u32>,
    lens: Vec<u32>,
    used: usize,
}

impl StaticStore {
    /// Preallocates `slots` slots of `slot_size` bytes each.
    pub fn new(slots: usize, slot_size: usize) -> Self {
        Self {
            arena: vec![0u8; slots * slot_size].into_boxed_slice(),
            slot_size,
            free: (0..slots as u32).rev().collect(),
            lens: vec![0; slots],
            used: 0,
        }
    }
}

impl ValueStore for StaticStore {
    fn alloc_write(&mut self, data: &[u8]) -> Option<ValRef> {
        if data.len() > self.slot_size {
            return None;
        }
        let id = self.free.pop()?;
        let start = id as usize * self.slot_size;
        self.arena[start..start + data.len()].copy_from_slice(data);
        self.lens[id as usize] = data.len() as u32;
        self.used += data.len();
        Some(ValRef(Extent {
            chunk: id,
            offset: 0,
            len: data.len() as u32,
            class: 0,
        }))
    }

    fn read(&self, r: &ValRef) -> Cow<'_, [u8]> {
        let start = r.0.chunk as usize * self.slot_size;
        Cow::Borrowed(&self.arena[start..start + r.0.len as usize])
    }

    fn free(&mut self, r: ValRef) {
        self.used -= self.lens[r.0.chunk as usize] as usize;
        self.lens[r.0.chunk as usize] = 0;
        self.free.push(r.0.chunk);
    }

    fn used_bytes(&self) -> usize {
        self.used
    }
}

/// Shared-arena ablation approximating a general-purpose multithreaded
/// allocator (`MBal(jemalloc)` in Figure 8): allocations and frees go
/// through an arena shared by all workers behind a mutex, so concurrency
/// pays lock contention the slab design avoids.
#[derive(Debug, Clone)]
pub struct SharedArenaStore {
    arena: Arc<Mutex<SharedArena>>,
    used: usize,
}

#[derive(Debug, Default)]
struct SharedArena {
    slots: Vec<Option<Box<[u8]>>>,
    free_ids: Vec<u32>,
    used: usize,
    capacity: usize,
}

impl SharedArenaStore {
    /// Creates a shared arena with a byte `capacity` budget; clone the
    /// returned store once per worker.
    pub fn new(capacity: usize) -> Self {
        Self {
            arena: Arc::new(Mutex::new(SharedArena {
                capacity,
                ..SharedArena::default()
            })),
            used: 0,
        }
    }
}

impl ValueStore for SharedArenaStore {
    fn alloc_write(&mut self, data: &[u8]) -> Option<ValRef> {
        let mut a = self.arena.lock();
        if a.used + data.len() > a.capacity {
            return None;
        }
        let boxed: Box<[u8]> = data.into();
        let id = match a.free_ids.pop() {
            Some(id) => {
                a.slots[id as usize] = Some(boxed);
                id
            }
            None => {
                a.slots.push(Some(boxed));
                (a.slots.len() - 1) as u32
            }
        };
        a.used += data.len();
        self.used += data.len();
        Some(ValRef(Extent {
            chunk: id,
            offset: 0,
            len: data.len() as u32,
            class: 0,
        }))
    }

    fn read(&self, r: &ValRef) -> Cow<'_, [u8]> {
        // The arena cannot lend borrows across its mutex, so reads copy.
        // This per-read copy is part of the cost a shared general-purpose
        // allocator pays versus the slab design.
        Cow::Owned(self.read_owned(r))
    }

    fn free(&mut self, r: ValRef) {
        let mut a = self.arena.lock();
        let slot = a.slots[r.0.chunk as usize]
            .take()
            .expect("freeing live shared slot");
        a.used -= slot.len();
        self.used -= slot.len();
        a.free_ids.push(r.0.chunk);
    }

    fn used_bytes(&self) -> usize {
        self.used
    }
}

impl SharedArenaStore {
    /// Reads the bytes behind `r` as an owned copy (the shared arena
    /// cannot lend borrows across its mutex).
    pub fn read_owned(&self, r: &ValRef) -> Vec<u8> {
        let a = self.arena.lock();
        a.slots[r.0.chunk as usize]
            .as_deref()
            .expect("live shared slot")
            .to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{GlobalPool, MemConfig, MemPolicy};

    fn slab() -> SlabStore {
        let mut cfg = MemConfig::with_capacity(1 << 20);
        cfg.chunk_size = 1 << 14;
        let global = Arc::new(GlobalPool::new(1 << 20, 1 << 14, 1));
        SlabStore::new(LocalPool::new(global, &cfg, 0, MemPolicy::ThreadLocal))
    }

    fn exercise<S: ValueStore>(mut s: S) {
        let a = s.alloc_write(b"alpha").expect("a");
        let b = s.alloc_write(b"beta-beta").expect("b");
        assert_eq!(s.read(&a).as_ref(), b"alpha");
        assert_eq!(s.read(&b).as_ref(), b"beta-beta");
        assert_eq!(s.used_bytes(), 5 + 9);
        s.free(a);
        assert_eq!(s.used_bytes(), 9);
        let c = s.alloc_write(&[3u8; 500]).expect("c");
        assert_eq!(s.read(&c).as_ref(), &[3u8; 500][..]);
        s.free(b);
        s.free(c);
        assert_eq!(s.used_bytes(), 0);
    }

    #[test]
    fn slab_store_roundtrip() {
        exercise(slab());
    }

    #[test]
    fn malloc_store_roundtrip() {
        exercise(MallocStore::new(usize::MAX));
    }

    #[test]
    fn static_store_roundtrip() {
        exercise(StaticStore::new(64, 1024));
    }

    #[test]
    fn malloc_store_respects_capacity() {
        let mut s = MallocStore::new(10);
        assert!(s.alloc_write(&[0u8; 11]).is_none());
        let a = s.alloc_write(&[0u8; 10]).expect("exact fit");
        assert!(s.alloc_write(&[0u8; 1]).is_none());
        s.free(a);
        assert!(s.alloc_write(&[0u8; 1]).is_some());
    }

    #[test]
    fn static_store_rejects_oversize_and_exhaustion() {
        let mut s = StaticStore::new(2, 16);
        assert!(s.alloc_write(&[0u8; 17]).is_none());
        let _a = s.alloc_write(&[1u8; 16]).expect("slot 1");
        let _b = s.alloc_write(&[2u8; 8]).expect("slot 2");
        assert!(s.alloc_write(&[3u8; 1]).is_none(), "slots exhausted");
    }

    #[test]
    fn shared_arena_concurrent_alloc_free() {
        let base = SharedArenaStore::new(1 << 20);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let mut s = base.clone();
                std::thread::spawn(move || {
                    let mut refs = Vec::new();
                    for i in 0..200usize {
                        let data = vec![t as u8; 1 + (i % 64)];
                        refs.push((s.alloc_write(&data).expect("alloc"), data));
                    }
                    for (r, data) in refs {
                        assert_eq!(s.read_owned(&r), data);
                        s.free(r);
                    }
                    assert_eq!(s.used_bytes(), 0);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("no panic");
        }
    }
}
