//! Worker-local slab pools — the lock-free bottom tier of the hierarchy.

use super::global::{GlobalPool, RawChunk};
use super::sizeclass::SizeClasses;
use super::MemConfig;
use std::sync::Arc;

/// A handle to a slab-allocated value extent.
///
/// Extents are only meaningful to the [`LocalPool`] (or
/// [`crate::store::ValueStore`]) that produced them; they are plain data so
/// the hash table can store them inline in its entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Local chunk slot index within the owning pool.
    pub chunk: u32,
    /// Byte offset of the slot within the chunk.
    pub offset: u32,
    /// Logical length of the stored bytes (≤ slot size).
    pub len: u32,
    /// Size class of the slot.
    pub class: u8,
}

/// Memory-management policy, selecting between MBal's thread-local design
/// and the global-pool ablation of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemPolicy {
    /// MBal default: frees return to the owning thread's local pool;
    /// the global mutex is touched only on bulk refill/return.
    ThreadLocal,
    /// Ablation (`MBal global lru` in the paper): every allocation and
    /// free synchronizes on the global pool, as Memcached/Mercury do.
    GlobalOnly,
}

/// Point-in-time statistics of a local pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocalPoolStats {
    /// Bytes held in chunks by this pool (free + used slots).
    pub held_bytes: usize,
    /// Bytes currently free in local slots.
    pub free_bytes: usize,
    /// Slot allocations served.
    pub allocs: u64,
    /// Slot frees received.
    pub frees: u64,
    /// Chunk refills pulled from the global pool.
    pub refills: u64,
    /// Chunks returned to the global pool.
    pub returns: u64,
}

#[derive(Debug)]
struct Chunk {
    data: Box<[u8]>,
    class: u8,
    numa: u8,
    /// Free slot indices within this chunk.
    free: Vec<u32>,
    /// Slots handed out.
    used: u32,
}

#[derive(Debug, Default)]
struct ClassState {
    /// Chunk slots (indices into `LocalPool::chunks`) with ≥1 free slot.
    partial: Vec<u32>,
}

/// A per-worker slab pool.
///
/// All per-object operations (`alloc`, `write`, `read`, `free`) are
/// lock-free: only chunk refill and chunk return touch the shared
/// [`GlobalPool`].
#[derive(Debug)]
pub struct LocalPool {
    global: Arc<GlobalPool>,
    classes: SizeClasses,
    policy: MemPolicy,
    numa_domain: u8,
    glob_low: usize,
    local_high: usize,
    chunks: Vec<Option<Chunk>>,
    free_chunk_slots: Vec<u32>,
    class_state: Vec<ClassState>,
    free_bytes: usize,
    held_bytes: usize,
    stats: LocalPoolStats,
}

impl LocalPool {
    /// Creates a local pool drawing from `global`, pinned to NUMA
    /// `numa_domain`, with the thresholds from `cfg`.
    pub fn new(
        global: Arc<GlobalPool>,
        cfg: &MemConfig,
        numa_domain: u8,
        policy: MemPolicy,
    ) -> Self {
        let classes = SizeClasses::new(global.chunk_size(), cfg.growth_factor);
        let n = classes.len();
        Self {
            global,
            classes,
            policy,
            numa_domain,
            glob_low: cfg.glob_mem_low_thresh,
            local_high: cfg.thr_mem_high_thresh,
            chunks: Vec::new(),
            free_chunk_slots: Vec::new(),
            class_state: (0..n).map(|_| ClassState::default()).collect(),
            free_bytes: 0,
            held_bytes: 0,
            stats: LocalPoolStats::default(),
        }
    }

    /// The pool's NUMA domain.
    pub fn numa_domain(&self) -> u8 {
        self.numa_domain
    }

    /// The active memory policy.
    pub fn policy(&self) -> MemPolicy {
        self.policy
    }

    /// Allocates a slot fitting `len` bytes.
    ///
    /// Returns `None` when both the local pool and the global budget are
    /// exhausted; the caller is expected to evict and retry.
    pub fn alloc(&mut self, len: usize) -> Option<Extent> {
        if self.policy == MemPolicy::GlobalOnly {
            self.global.contended_touch();
        }
        let class = self.classes.class_for(len.max(1))?;
        let slot_size = self.classes.slot_size(class);
        loop {
            if let Some(&cslot) = self.class_state[class as usize].partial.last() {
                let chunk = self.chunks[cslot as usize]
                    .as_mut()
                    .expect("partial list points at live chunk");
                let slot = chunk.free.pop().expect("partial chunk has a free slot");
                chunk.used += 1;
                if chunk.free.is_empty() {
                    self.class_state[class as usize].partial.pop();
                }
                self.free_bytes -= slot_size;
                self.stats.allocs += 1;
                return Some(Extent {
                    chunk: cslot,
                    offset: slot * slot_size as u32,
                    len: len as u32,
                    class,
                });
            }
            // Refill: pull one chunk from the global pool and carve it.
            let raw = self.global.acquire(self.numa_domain)?;
            self.admit_chunk(raw, class);
        }
    }

    /// Whether allocating `len` bytes would take a freshly allocated
    /// chunk: no slot of its size class is free here and the global
    /// pool would allocate rather than hand out a cached chunk. (With
    /// the budget spent, the caller evicts instead; that allocates
    /// nothing.)
    pub fn needs_fresh_chunk(&self, len: usize) -> bool {
        let Some(class) = self.classes.class_for(len.max(1)) else {
            return false;
        };
        self.class_state[class as usize].partial.is_empty() && self.global.would_allocate()
    }

    fn admit_chunk(&mut self, raw: RawChunk, class: u8) {
        let slot_size = self.classes.slot_size(class);
        let nslots = self.classes.slots_per_chunk(class) as u32;
        let chunk = Chunk {
            data: raw.data,
            class,
            numa: raw.numa,
            free: (0..nslots).rev().collect(),
            used: 0,
        };
        let cslot = match self.free_chunk_slots.pop() {
            Some(s) => {
                self.chunks[s as usize] = Some(chunk);
                s
            }
            None => {
                self.chunks.push(Some(chunk));
                (self.chunks.len() - 1) as u32
            }
        };
        self.class_state[class as usize].partial.push(cslot);
        self.free_bytes += nslots as usize * slot_size;
        self.held_bytes += self.global.chunk_size();
        self.stats.refills += 1;
    }

    /// Writes `data` into a freshly allocated extent and returns it.
    pub fn alloc_write(&mut self, data: &[u8]) -> Option<Extent> {
        let ext = self.alloc(data.len())?;
        self.write(&ext, data);
        Some(ext)
    }

    /// Copies `data` into the extent's slot.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the extent's recorded length.
    pub fn write(&mut self, ext: &Extent, data: &[u8]) {
        assert_eq!(data.len(), ext.len as usize, "extent length mismatch");
        let chunk = self.chunks[ext.chunk as usize]
            .as_mut()
            .expect("extent points at live chunk");
        let start = ext.offset as usize;
        chunk.data[start..start + data.len()].copy_from_slice(data);
    }

    /// Reads the bytes stored in `ext`.
    pub fn read(&self, ext: &Extent) -> &[u8] {
        let chunk = self.chunks[ext.chunk as usize]
            .as_ref()
            .expect("extent points at live chunk");
        let start = ext.offset as usize;
        &chunk.data[start..start + ext.len as usize]
    }

    /// Returns a slot to the pool, possibly returning a fully-free chunk to
    /// the global pool per the threshold policy.
    pub fn free(&mut self, ext: Extent) {
        if self.policy == MemPolicy::GlobalOnly {
            self.global.contended_touch();
        }
        let slot_size = self.classes.slot_size(ext.class);
        let chunk_size = self.global.chunk_size();
        let fully_free;
        {
            let chunk = self.chunks[ext.chunk as usize]
                .as_mut()
                .expect("freeing into live chunk");
            debug_assert_eq!(chunk.class, ext.class, "class mismatch on free");
            let was_full = chunk.free.is_empty();
            chunk.free.push(ext.offset / slot_size as u32);
            chunk.used -= 1;
            fully_free = chunk.used == 0;
            if was_full {
                self.class_state[ext.class as usize].partial.push(ext.chunk);
            }
        }
        self.free_bytes += slot_size;
        self.stats.frees += 1;

        // Threshold policy from §2.4: return chunks when the global pool is
        // starved and we are hoarding. The GlobalOnly ablation always
        // returns fully free chunks (global free pool semantics).
        let should_return = fully_free
            && match self.policy {
                MemPolicy::ThreadLocal => {
                    self.free_bytes > self.local_high && self.global.free_bytes() < self.glob_low
                }
                MemPolicy::GlobalOnly => true,
            };
        if should_return {
            self.return_chunk(ext.chunk, chunk_size);
        }
    }

    /// Returns one fully free chunk to the global pool regardless of the
    /// watermarks, so a neighbour starved by an exhausted global pool can
    /// refill. `false` when every held chunk has a live slot.
    pub fn release_idle_chunk(&mut self) -> bool {
        let idle = self
            .chunks
            .iter()
            .position(|c| c.as_ref().is_some_and(|c| c.used == 0));
        match idle {
            Some(cslot) => {
                self.return_chunk(cslot as u32, self.global.chunk_size());
                true
            }
            None => false,
        }
    }

    fn return_chunk(&mut self, cslot: u32, chunk_size: usize) {
        let chunk = self.chunks[cslot as usize]
            .take()
            .expect("returning live chunk");
        debug_assert_eq!(chunk.used, 0);
        let slot_size = self.classes.slot_size(chunk.class);
        self.free_bytes -= chunk.free.len() * slot_size;
        self.held_bytes -= chunk_size;
        self.class_state[chunk.class as usize]
            .partial
            .retain(|&c| c != cslot);
        self.free_chunk_slots.push(cslot);
        self.stats.returns += 1;
        self.global.release(RawChunk {
            data: chunk.data,
            numa: chunk.numa,
        });
    }

    /// Snapshots pool statistics.
    pub fn stats(&self) -> LocalPoolStats {
        LocalPoolStats {
            held_bytes: self.held_bytes,
            free_bytes: self.free_bytes,
            ..self.stats
        }
    }

    /// Bytes currently free in local slots.
    pub fn free_bytes(&self) -> usize {
        self.free_bytes
    }

    /// Bytes held by this pool in chunks (free + used).
    pub fn held_bytes(&self) -> usize {
        self.held_bytes
    }
}

impl Drop for LocalPool {
    /// Hands every chunk back to the global pool, so the memory of a
    /// dropped cachelet (migrated away, say) stays in the server's
    /// budget instead of being charged to it forever.
    fn drop(&mut self) {
        for chunk in self.chunks.drain(..).flatten() {
            self.global.release(RawChunk {
                data: chunk.data,
                numa: chunk.numa,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(capacity: usize) -> LocalPool {
        let cfg = MemConfig::with_capacity(capacity);
        let global = Arc::new(GlobalPool::new(capacity, 1 << 12, 1));
        let mut cfg = cfg;
        cfg.chunk_size = 1 << 12;
        LocalPool::new(global, &cfg, 0, MemPolicy::ThreadLocal)
    }

    #[test]
    fn roundtrip_write_read() {
        let mut p = pool(1 << 16);
        let ext = p.alloc_write(b"hello world").expect("fits");
        assert_eq!(p.read(&ext), b"hello world");
        assert_eq!(ext.len, 11);
        p.free(ext);
        assert_eq!(p.stats().frees, 1);
    }

    #[test]
    fn slot_reuse_after_free() {
        let mut p = pool(1 << 16);
        let a = p.alloc_write(&[7u8; 40]).expect("a");
        p.free(a);
        let b = p.alloc_write(&[9u8; 40]).expect("b");
        // Same class, same chunk, slot recycled locally without a refill.
        assert_eq!(a.chunk, b.chunk);
        assert_eq!(p.stats().refills, 1);
        assert_eq!(p.read(&b), &[9u8; 40][..]);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut p = pool(1 << 12); // exactly one chunk
        let mut held = Vec::new();
        while let Some(e) = p.alloc(64) {
            held.push(e);
            assert!(held.len() < 10_000, "runaway");
        }
        assert!(!held.is_empty());
        assert!(p.alloc(64).is_none());
        // Free one and allocation works again.
        p.free(held.pop().expect("held one"));
        assert!(p.alloc(64).is_some());
    }

    #[test]
    fn idle_chunks_go_back_below_the_watermarks() {
        let global = Arc::new(GlobalPool::new(1 << 13, 1 << 12, 1));
        let mut cfg = MemConfig::with_capacity(1 << 13);
        cfg.chunk_size = 1 << 12;
        let mut p = LocalPool::new(Arc::clone(&global), &cfg, 0, MemPolicy::ThreadLocal);
        let a = p.alloc(1000).expect("first chunk");
        let b = p.alloc(3000).expect("second chunk, another class");
        assert_eq!(global.free_bytes(), 0);
        assert!(!p.release_idle_chunk(), "both chunks hold a live slot");
        // Far below the local high watermark, so `free` keeps the chunk.
        p.free(a);
        assert_eq!(global.free_bytes(), 0);
        assert!(p.release_idle_chunk());
        assert_eq!(global.free_bytes(), 1 << 12);
        assert_eq!(p.held_bytes(), 1 << 12);
        assert!(!p.release_idle_chunk());
        p.free(b);
    }

    #[test]
    fn a_dropped_pool_returns_its_chunks() {
        let global = Arc::new(GlobalPool::new(1 << 14, 1 << 12, 1));
        let mut cfg = MemConfig::with_capacity(1 << 14);
        cfg.chunk_size = 1 << 12;
        let mut p = LocalPool::new(Arc::clone(&global), &cfg, 0, MemPolicy::ThreadLocal);
        let _a = p.alloc(1000).expect("first chunk");
        let _b = p.alloc(3000).expect("second chunk");
        assert_eq!(global.free_bytes(), 2 << 12);
        drop(p);
        assert_eq!(global.free_bytes(), 4 << 12);
        assert_eq!(global.stats().in_use, 0);
    }

    #[test]
    fn global_only_policy_returns_chunks_eagerly() {
        let cfg = {
            let mut c = MemConfig::with_capacity(1 << 14);
            c.chunk_size = 1 << 12;
            c
        };
        let global = Arc::new(GlobalPool::new(1 << 14, 1 << 12, 1));
        let mut p = LocalPool::new(Arc::clone(&global), &cfg, 0, MemPolicy::GlobalOnly);
        let e = p.alloc_write(&[1u8; 100]).expect("alloc");
        let before = global.stats().releases;
        p.free(e);
        assert_eq!(global.stats().releases, before + 1, "chunk must go back");
        assert_eq!(p.held_bytes(), 0);
        // Every op touched the global mutex.
        assert!(global.stats().lock_ops >= 4);
    }

    #[test]
    fn accounting_balances() {
        let mut p = pool(1 << 16);
        let mut exts = Vec::new();
        for i in 0..100usize {
            let data = vec![i as u8; 16 + (i % 200)];
            exts.push((p.alloc_write(&data).expect("alloc"), data));
        }
        for (e, data) in &exts {
            assert_eq!(p.read(e), &data[..]);
        }
        let held = p.held_bytes();
        for (e, _) in exts {
            p.free(e);
        }
        // Nothing forced a return (global pool not starved), so held bytes
        // stay put and everything is free.
        assert_eq!(p.held_bytes(), held);
        assert_eq!(p.free_bytes(), held / (1 << 12) * (1 << 12) - waste(&p));
    }

    // Free bytes differ from held bytes by per-chunk carving waste; compute
    // it from the pool's class table for the assertion above.
    fn waste(p: &LocalPool) -> usize {
        let mut w = 0;
        for c in p.chunks.iter().flatten() {
            let slot = p.classes.slot_size(c.class);
            w += p.global.chunk_size() - p.classes.slots_per_chunk(c.class) * slot;
        }
        w
    }
}
