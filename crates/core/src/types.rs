//! Shared identifiers, value types and errors for the MBal workspace.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A cache key: an opaque byte string (Memcached keys are ≤ 250 bytes).
pub type Key = Vec<u8>;

/// A cache value: an opaque, reference-counted byte string.
///
/// `bytes::Bytes` end-to-end means a GET can serve a refcounted view of
/// the engine's own buffer — cloning a `Value` bumps a refcount instead
/// of copying payload bytes, and the TCP write path hands the same
/// buffer to `writev` untouched.
pub type Value = bytes::Bytes;

/// Maximum key length accepted by the cache, matching Memcached's limit.
pub const MAX_KEY_LEN: usize = 250;

/// Maximum value length accepted by the cache (1 MiB, Memcached default).
pub const MAX_VALUE_LEN: usize = 1 << 20;

/// Identifier of a virtual node (VN) — a subset of the key hash space.
///
/// Consistent hashing maps keys to VNs; many VNs map onto one cachelet
/// (typically an order of magnitude more VNs than cachelets, §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VnId(pub u32);

/// Identifier of a cachelet — a configurable resource container that
/// encapsulates multiple VNs and is managed by a single worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CacheletId(pub u32);

/// Identifier of a cache tenant (an application sharing the cluster).
///
/// Tenant 0 is the **default tenant**: requests that carry no tenant
/// envelope belong to it, which keeps single-tenant deployments and the
/// pre-tenancy wire format working unchanged. On the wire the id rides
/// the Memcached binary extras field (2 bytes, big-endian); inside an
/// engine it prefixes the key (see `mbal-tenant`).
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct TenantId(pub u16);

impl TenantId {
    /// The default tenant: unwrapped requests and pre-tenancy clients.
    pub const DEFAULT: TenantId = TenantId(0);

    /// `true` for the default tenant.
    pub fn is_default(self) -> bool {
        self.0 == 0
    }
}

/// Identifier of a worker thread within one cache server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WorkerId(pub u16);

/// Identifier of a cache server within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ServerId(pub u16);

/// Globally unique address of a worker: `(server, worker)`.
///
/// Each worker owns a dedicated transport endpoint (a TCP/UDP port in the
/// paper) so clients route to workers directly, without a dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WorkerAddr {
    /// Server hosting the worker.
    pub server: ServerId,
    /// Worker index within the server.
    pub worker: WorkerId,
}

impl WorkerAddr {
    /// Creates a worker address from raw server and worker indices.
    pub const fn new(server: u16, worker: u16) -> Self {
        Self {
            server: ServerId(server),
            worker: WorkerId(worker),
        }
    }
}

impl fmt::Display for WorkerAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}w{}", self.server.0, self.worker.0)
    }
}

macro_rules! fmt_display_newtype {
    ($($t:ty),+) => {$(
        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    )+};
}
fmt_display_newtype!(CacheletId, VnId, WorkerId, ServerId, TenantId);

/// Errors surfaced by core cache operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// The key exceeds [`MAX_KEY_LEN`].
    KeyTooLong(usize),
    /// The value exceeds [`MAX_VALUE_LEN`].
    ValueTooLong(usize),
    /// The cache is out of memory and eviction could not make room.
    OutOfMemory,
    /// The addressed cachelet is not owned by this worker.
    WrongCachelet(CacheletId),
    /// The addressed cachelet is mid-migration and the bucket is locked.
    BucketMigrating,
    /// An internal invariant was violated; carries a diagnostic message.
    Internal(&'static str),
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::KeyTooLong(n) => write!(f, "key too long: {n} bytes"),
            CacheError::ValueTooLong(n) => write!(f, "value too long: {n} bytes"),
            CacheError::OutOfMemory => write!(f, "out of memory"),
            CacheError::WrongCachelet(c) => write!(f, "cachelet {c} not owned here"),
            CacheError::BucketMigrating => write!(f, "bucket is being migrated"),
            CacheError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for CacheError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_addr_display() {
        let a = WorkerAddr::new(3, 7);
        assert_eq!(a.to_string(), "s3w7");
        assert_eq!(a.server, ServerId(3));
        assert_eq!(a.worker, WorkerId(7));
    }

    #[test]
    fn error_display_is_descriptive() {
        assert!(CacheError::KeyTooLong(300).to_string().contains("300"));
        assert!(CacheError::OutOfMemory.to_string().contains("memory"));
        assert!(CacheError::WrongCachelet(CacheletId(9))
            .to_string()
            .contains('9'));
    }

    #[test]
    fn ids_order_and_hash() {
        assert!(CacheletId(1) < CacheletId(2));
        assert!(VnId(0) < VnId(10));
        let mut set = std::collections::HashSet::new();
        set.insert(WorkerAddr::new(0, 0));
        set.insert(WorkerAddr::new(0, 0));
        assert_eq!(set.len(), 1);
    }
}
