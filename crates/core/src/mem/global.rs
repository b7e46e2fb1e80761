//! The global chunk pool — the top tier of MBal's memory hierarchy.

use parking_lot::Mutex;

/// A raw memory chunk handed between the global pool and worker-local
/// pools. Carries its NUMA-domain tag so reuse stays local.
#[derive(Debug)]
pub(crate) struct RawChunk {
    pub data: Box<[u8]>,
    pub numa: u8,
}

/// Point-in-time statistics of the global pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalPoolStats {
    /// Total budget in bytes.
    pub capacity: usize,
    /// Bytes currently handed out to local pools.
    pub in_use: usize,
    /// Bytes cached as free chunks inside the global pool.
    pub cached_free: usize,
    /// Number of chunk acquisitions served.
    pub acquires: u64,
    /// Number of chunk releases received.
    pub releases: u64,
    /// Number of lock acquisitions on the pool mutex (a contention proxy).
    pub lock_ops: u64,
}

#[derive(Debug, Default)]
struct Inner {
    free: Vec<RawChunk>,
    in_use: usize,
    cached_free: usize,
    acquires: u64,
    releases: u64,
    lock_ops: u64,
}

/// The global memory pool: owns the cache-wide budget and serves large
/// chunks to worker-local pools under a single mutex.
///
/// The mutex is only on the refill/return path in the default
/// ([`super::MemPolicy::ThreadLocal`]) policy; per-object allocation never
/// touches it.
#[derive(Debug)]
pub struct GlobalPool {
    inner: Mutex<Inner>,
    capacity: usize,
    chunk_size: usize,
    numa_domains: u8,
}

impl GlobalPool {
    /// Creates a pool with the given `capacity` budget, serving chunks of
    /// `chunk_size` bytes, spread over `numa_domains` NUMA domains.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero or exceeds `capacity`.
    pub fn new(capacity: usize, chunk_size: usize, numa_domains: u8) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        assert!(chunk_size <= capacity, "capacity below one chunk");
        Self {
            inner: Mutex::new(Inner::default()),
            capacity,
            chunk_size,
            numa_domains: numa_domains.max(1),
        }
    }

    /// The chunk size in bytes.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// The number of NUMA domains chunks are tagged with.
    pub fn numa_domains(&self) -> u8 {
        self.numa_domains
    }

    /// Acquires one chunk, preferring the caller's NUMA `domain`.
    ///
    /// Returns `None` when the budget is exhausted — the caller must then
    /// evict (the cachelet LRU path) and retry, or fail the insert.
    pub(crate) fn acquire(&self, domain: u8) -> Option<RawChunk> {
        let mut g = self.inner.lock();
        g.lock_ops += 1;
        // Prefer a cached free chunk from the same NUMA domain.
        if let Some(pos) = g.free.iter().position(|c| c.numa == domain) {
            let c = g.free.swap_remove(pos);
            g.cached_free -= self.chunk_size;
            g.in_use += self.chunk_size;
            g.acquires += 1;
            return Some(c);
        }
        // Any cached free chunk next (cross-domain reuse beats a fresh map).
        if let Some(c) = g.free.pop() {
            g.cached_free -= self.chunk_size;
            g.in_use += self.chunk_size;
            g.acquires += 1;
            return Some(c);
        }
        // Fresh allocation if budget allows.
        if g.in_use + g.cached_free + self.chunk_size <= self.capacity {
            g.in_use += self.chunk_size;
            g.acquires += 1;
            drop(g);
            return Some(RawChunk {
                data: vec![0u8; self.chunk_size].into_boxed_slice(),
                numa: domain % self.numa_domains,
            });
        }
        None
    }

    /// Whether the next [`GlobalPool::acquire`] would allocate a fresh
    /// chunk: nothing is cached and the budget has room.
    pub(crate) fn would_allocate(&self) -> bool {
        let g = self.inner.lock();
        g.free.is_empty() && g.in_use + g.cached_free + self.chunk_size <= self.capacity
    }

    /// Returns a fully-free chunk from a local pool.
    pub(crate) fn release(&self, chunk: RawChunk) {
        let mut g = self.inner.lock();
        g.lock_ops += 1;
        g.in_use -= self.chunk_size;
        g.cached_free += self.chunk_size;
        g.releases += 1;
        g.free.push(chunk);
    }

    /// Bytes available (budget headroom plus cached free chunks).
    pub fn free_bytes(&self) -> usize {
        let g = self.inner.lock();
        self.capacity - g.in_use
    }

    /// Records a synchronization touch on the pool mutex.
    ///
    /// Used by the `GlobalOnly` ablation (the "global LRU" configuration of
    /// Figure 6) which pays a global lock per allocation and per free, as
    /// Memcached and Mercury do.
    pub(crate) fn contended_touch(&self) {
        let mut g = self.inner.lock();
        g.lock_ops += 1;
        // Model the shared-structure cacheline write that a global free
        // list performs under the lock.
        g.acquires = g.acquires.wrapping_add(0);
        std::hint::black_box(&mut g.lock_ops);
    }

    /// Snapshots pool statistics.
    pub fn stats(&self) -> GlobalPoolStats {
        let g = self.inner.lock();
        GlobalPoolStats {
            capacity: self.capacity,
            in_use: g.in_use,
            cached_free: g.cached_free,
            acquires: g.acquires,
            releases: g.releases,
            lock_ops: g.lock_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_until_budget_exhausted() {
        let p = GlobalPool::new(4 << 10, 1 << 10, 1);
        let mut chunks = Vec::new();
        for _ in 0..4 {
            chunks.push(p.acquire(0).expect("within budget"));
        }
        assert!(p.acquire(0).is_none(), "budget must be enforced");
        assert_eq!(p.free_bytes(), 0);
        let s = p.stats();
        assert_eq!(s.in_use, 4 << 10);
        assert_eq!(s.acquires, 4);
    }

    #[test]
    fn release_recycles_chunks() {
        let p = GlobalPool::new(2 << 10, 1 << 10, 1);
        let a = p.acquire(0).expect("first");
        let _b = p.acquire(0).expect("second");
        assert!(p.acquire(0).is_none());
        p.release(a);
        let again = p.acquire(0).expect("recycled");
        assert_eq!(again.data.len(), 1 << 10);
        assert_eq!(p.stats().releases, 1);
    }

    #[test]
    fn numa_domain_preference() {
        let p = GlobalPool::new(8 << 10, 1 << 10, 2);
        let c0 = p.acquire(0).expect("d0");
        let c1 = p.acquire(1).expect("d1");
        assert_eq!(c0.numa, 0);
        assert_eq!(c1.numa, 1);
        p.release(c0);
        p.release(c1);
        // Requesting domain 1 should return the domain-1 chunk first.
        let c = p.acquire(1).expect("cached");
        assert_eq!(c.numa, 1);
    }

    #[test]
    #[should_panic(expected = "capacity below one chunk")]
    fn rejects_tiny_capacity() {
        let _ = GlobalPool::new(10, 1 << 10, 1);
    }
}
