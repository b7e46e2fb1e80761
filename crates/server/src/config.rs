//! Server configuration.

use mbal_balancer::BalancerConfig;
use mbal_core::engine::EngineKind;
use mbal_core::hotkey::HotKeyConfig;
use mbal_core::mem::MemConfig;
use mbal_core::types::ServerId;
use mbal_tenant::TenantDirectory;
use std::time::Duration;

/// Transport I/O knobs, applied per worker listener.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoConfig {
    /// Open-connection cap per worker; connections accepted past the
    /// cap are closed immediately (accept-and-close sheds load without
    /// letting the backlog grow unbounded).
    pub max_conns_per_worker: usize,
    /// Reap connections idle longer than this (no reads, no pending
    /// work). `None` disables reaping.
    pub idle_timeout: Option<Duration>,
    /// Read timeout on client-side cast-pump connections; a timed-out
    /// shadow counts a transport-timeout telemetry tick and drops the
    /// pump connection.
    pub cast_read_timeout: Duration,
}

impl Default for IoConfig {
    fn default() -> Self {
        Self {
            max_conns_per_worker: 4096,
            idle_timeout: Some(Duration::from_secs(60)),
            cast_read_timeout: Duration::from_secs(1),
        }
    }
}

impl IoConfig {
    /// Defaults overlaid with environment overrides:
    /// `MBAL_MAX_CONNS_PER_WORKER`, `MBAL_IDLE_TIMEOUT_MS` (`0`
    /// disables reaping), and `MBAL_CAST_TIMEOUT_MS`.
    pub fn from_env() -> Self {
        let mut io = Self::default();
        if let Some(n) = env_u64("MBAL_MAX_CONNS_PER_WORKER") {
            io.max_conns_per_worker = (n as usize).max(1);
        }
        if let Some(ms) = env_u64("MBAL_IDLE_TIMEOUT_MS") {
            io.idle_timeout = (ms > 0).then(|| Duration::from_millis(ms));
        }
        if let Some(ms) = env_u64("MBAL_CAST_TIMEOUT_MS") {
            io.cast_read_timeout = Duration::from_millis(ms.max(1));
        }
        io
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Configuration of one MBal cache server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// This server's id.
    pub server: ServerId,
    /// Number of worker threads (usually the core count, §2.3).
    pub workers: u16,
    /// Cachelets per worker (the paper's evaluation uses 16).
    pub cachelets_per_worker: usize,
    /// Memory manager configuration (global pool budget, thresholds).
    pub mem: MemConfig,
    /// Load balancer tunables.
    pub balancer: BalancerConfig,
    /// Hot-key tracker tunables.
    pub hotkey: HotKeyConfig,
    /// Permissible load `T_j` per worker in ops/s (footnote 2: computed
    /// experimentally per instance type).
    pub worker_load_capacity: f64,
    /// Synchronous replica updates (consistent, slower writes) vs
    /// asynchronous (eventual consistency), §3.2.
    pub sync_replication: bool,
    /// Participate in the cluster membership protocol: heartbeat the
    /// coordinator each tick, execute join/drain rebalances queued for
    /// this server, honour drain mode, and reconcile cachelets
    /// reassigned here after a peer failure. Off by default so
    /// single-server deployments (and tests that drive ticks with large
    /// manual clock jumps) never engage the failure detector.
    pub membership: bool,
    /// Admitted tenants and their per-unit memory quotas. The default
    /// directory holds only tenant 0, which disables multi-tenancy:
    /// keys stay un-namespaced and requests naming any other tenant are
    /// refused with `Status::UnknownTenant`. Admitting tenants switches
    /// every cache unit to per-tenant inner engines with quota
    /// enforcement and epoch-driven memory arbitration.
    pub tenants: TenantDirectory,
    /// Transport I/O knobs (connection cap, idle reaping, cast
    /// timeout). Defaults come from [`IoConfig::from_env`] so
    /// deployments can tune them without touching call sites.
    pub io: IoConfig,
    /// Port for the Prometheus-style metrics endpoint; `None` leaves
    /// the endpoint unserved. Defaults to the `MBAL_METRICS_PORT`
    /// environment variable.
    pub metrics_port: Option<u16>,
}

impl ServerConfig {
    /// A sensible default configuration for `server` with `workers`
    /// worker threads and a `cache_bytes` memory budget.
    pub fn new(server: ServerId, workers: u16, cache_bytes: usize) -> Self {
        Self {
            server,
            workers,
            cachelets_per_worker: 16,
            mem: MemConfig::with_capacity(cache_bytes),
            balancer: BalancerConfig::default(),
            hotkey: HotKeyConfig::default(),
            worker_load_capacity: 1_000_000.0,
            sync_replication: true,
            membership: false,
            tenants: TenantDirectory::new(),
            io: IoConfig::from_env(),
            metrics_port: env_u64("MBAL_METRICS_PORT").map(|p| p as u16),
        }
    }

    /// Starts a fluent builder with the same defaults (and environment
    /// overrides) as [`ServerConfig::new`]: two workers, a 256 MiB
    /// budget, and every knob overridable before [`build`].
    ///
    /// [`build`]: ServerConfigBuilder::build
    pub fn builder(server: ServerId) -> ServerConfigBuilder {
        ServerConfigBuilder {
            cfg: ServerConfig::new(server, 2, 256 << 20),
        }
    }

    /// Returns `self` unchanged: slab+LRU is the only storage engine.
    /// Kept only because the repository benchmark (`perfbench`) still
    /// calls it; it goes once that caller drops the call.
    pub fn engine(self, _kind: EngineKind) -> Self {
        self
    }

    /// Replaces the tenant directory and returns `self`.
    pub fn tenants(mut self, dir: TenantDirectory) -> Self {
        self.tenants = dir;
        self
    }

    /// `true` when tenants beyond the default are admitted, i.e. the
    /// tenant layer (key namespacing, quotas, arbitration) is active.
    pub fn tenancy_enabled(&self) -> bool {
        self.tenants.len() > 1
    }

    /// Enables (or disables) membership participation and returns `self`.
    pub fn membership(mut self, on: bool) -> Self {
        self.membership = on;
        self
    }

    /// Overrides the cachelet count and returns `self`.
    pub fn cachelets_per_worker(mut self, n: usize) -> Self {
        self.cachelets_per_worker = n.max(1);
        self
    }

    /// Overrides the balancer config and returns `self`.
    pub fn balancer(mut self, b: BalancerConfig) -> Self {
        self.balancer = b;
        self
    }

    /// Overrides the per-worker load capacity and returns `self`.
    pub fn worker_capacity(mut self, ops_per_sec: f64) -> Self {
        self.worker_load_capacity = ops_per_sec;
        self
    }

    /// Per-worker memory capacity `M_j` in bytes.
    pub fn worker_mem_capacity(&self) -> u64 {
        (self.mem.capacity / self.workers.max(1) as usize) as u64
    }
}

/// Fluent constructor for [`ServerConfig`] unifying every server knob —
/// sizing, tenancy, balancing, telemetry, and transport I/O —
/// behind one surface (see [`ServerConfig::builder`]).
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    cfg: ServerConfig,
}

impl ServerConfigBuilder {
    /// Sets the worker-thread count.
    pub fn workers(mut self, n: u16) -> Self {
        self.cfg.workers = n.max(1);
        self
    }

    /// Sets the total cache memory budget in bytes.
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cfg.mem = MemConfig::with_capacity(bytes);
        self
    }

    /// Sets cachelets per worker (clamped to at least one).
    pub fn cachelets_per_worker(mut self, n: usize) -> Self {
        self.cfg.cachelets_per_worker = n.max(1);
        self
    }

    /// Replaces the tenant directory.
    pub fn tenants(mut self, dir: TenantDirectory) -> Self {
        self.cfg.tenants = dir;
        self
    }

    /// Replaces the balancer configuration.
    pub fn balancer(mut self, b: BalancerConfig) -> Self {
        self.cfg.balancer = b;
        self
    }

    /// Sets the permissible per-worker load `T_j` in ops/s.
    pub fn load_cap(mut self, ops_per_sec: f64) -> Self {
        self.cfg.worker_load_capacity = ops_per_sec;
        self
    }

    /// Enables or disables membership participation.
    pub fn membership(mut self, on: bool) -> Self {
        self.cfg.membership = on;
        self
    }

    /// Enables or disables synchronous replica updates.
    pub fn sync_replication(mut self, on: bool) -> Self {
        self.cfg.sync_replication = on;
        self
    }

    /// Sets (or clears) the metrics endpoint port.
    pub fn metrics_port(mut self, port: Option<u16>) -> Self {
        self.cfg.metrics_port = port;
        self
    }

    /// Sets the per-worker open-connection cap.
    pub fn max_conns_per_worker(mut self, n: usize) -> Self {
        self.cfg.io.max_conns_per_worker = n.max(1);
        self
    }

    /// Sets (or disables, with `None`) idle-connection reaping.
    pub fn idle_timeout(mut self, t: Option<Duration>) -> Self {
        self.cfg.io.idle_timeout = t;
        self
    }

    /// Sets the cast-pump read timeout.
    pub fn cast_read_timeout(mut self, t: Duration) -> Self {
        self.cfg.io.cast_read_timeout = t.max(Duration::from_millis(1));
        self
    }

    /// Finishes the build.
    pub fn build(self) -> ServerConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_coherent() {
        let c = ServerConfig::new(ServerId(3), 8, 64 << 20);
        assert_eq!(c.server, ServerId(3));
        assert_eq!(c.workers, 8);
        assert_eq!(c.cachelets_per_worker, 16);
        assert_eq!(c.worker_mem_capacity(), (64 << 20) / 8);
        assert!(c.sync_replication);
        assert!(!c.membership, "membership participation is opt-in");
    }

    #[test]
    fn builders_override() {
        let c = ServerConfig::new(ServerId(0), 2, 1 << 20)
            .cachelets_per_worker(0)
            .worker_capacity(500.0)
            .membership(true);
        assert_eq!(c.cachelets_per_worker, 1, "clamped to one");
        assert_eq!(c.worker_load_capacity, 500.0);
        assert!(c.membership);
    }

    #[test]
    fn tenancy_is_off_until_tenants_are_admitted() {
        use mbal_core::types::TenantId;
        use mbal_tenant::TenantQuota;
        let c = ServerConfig::new(ServerId(0), 2, 1 << 20);
        assert!(!c.tenancy_enabled(), "default directory: tenant 0 only");
        let c = c.tenants(
            TenantDirectory::new().with_tenant(TenantId(1), TenantQuota::new(1 << 16, 1 << 18)),
        );
        assert!(c.tenancy_enabled());
    }

    #[test]
    fn builder_unifies_every_knob() {
        let c = ServerConfig::builder(ServerId(7))
            .workers(4)
            .cache_bytes(32 << 20)
            .cachelets_per_worker(8)
            .load_cap(250_000.0)
            .membership(true)
            .sync_replication(false)
            .metrics_port(Some(9100))
            .max_conns_per_worker(128)
            .idle_timeout(Some(Duration::from_secs(5)))
            .cast_read_timeout(Duration::from_millis(200))
            .build();
        assert_eq!(c.server, ServerId(7));
        assert_eq!(c.workers, 4);
        assert_eq!(c.mem.capacity, 32 << 20);
        assert_eq!(c.cachelets_per_worker, 8);
        assert_eq!(c.worker_load_capacity, 250_000.0);
        assert!(c.membership);
        assert!(!c.sync_replication);
        assert_eq!(c.metrics_port, Some(9100));
        assert_eq!(c.io.max_conns_per_worker, 128);
        assert_eq!(c.io.idle_timeout, Some(Duration::from_secs(5)));
        assert_eq!(c.io.cast_read_timeout, Duration::from_millis(200));
    }

    #[test]
    fn builder_matches_new_defaults() {
        let b = ServerConfig::builder(ServerId(1))
            .workers(2)
            .cache_bytes(256 << 20)
            .build();
        let n = ServerConfig::new(ServerId(1), 2, 256 << 20);
        assert_eq!(b.cachelets_per_worker, n.cachelets_per_worker);
        assert_eq!(b.io, n.io);
        assert_eq!(b.worker_load_capacity, n.worker_load_capacity);
    }
}
