//! Front-cache coherence, end to end through the real server stack.
//!
//! The front tier trades a bounded staleness window for locality, and
//! this suite pins the exact boundary of that trade (see
//! `crates/client/src/front.rs` for the model):
//!
//! - **Read-your-writes**: a front-cached read never serves a value
//!   older than the client's own last acked write — local writes
//!   invalidate the front entry before they touch the wire.
//! - **TTL bound**: a front entry never outlives its TTL, so another
//!   client's write becomes visible within one front-cache window.
//! - **Mapping coherence**: a forced coordinated migration bumps the
//!   mapping version, and the next read rejects every front entry
//!   admitted under the old mapping instead of serving it.
//! - **Chaos**: the same read-your-writes contract holds while a
//!   seeded fault injector drops and resets frames mid-run and a
//!   migration races the traffic.
//! - **Multi-tenancy**: front caches are per-client; two tenants
//!   hammering the same key bytes never observe each other's values.

use mbal::balancer::coordinator::Coordinator;
use mbal::balancer::plan::Migration;
use mbal::balancer::BalancerConfig;
use mbal::client::{Client, CoordinatorLink, FrontCacheConfig, SetOptions};
use mbal::core::clock::{Clock, ManualClock};
use mbal::core::types::{ServerId, TenantId, WorkerAddr};
use mbal::ring::{ConsistentRing, MappingTable};
use mbal::server::{FaultInjector, FaultPlan, InProcRegistry, Server, ServerConfig, Transport};
use mbal::tenant::{TenantDirectory, TenantQuota};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// A front-cache config that promotes quickly and holds entries long
/// enough that only an explicit staleness rule can reject them.
fn eager_front() -> FrontCacheConfig {
    FrontCacheConfig::new()
        .promote_min_count(2)
        .ttl(Duration::from_secs(3600))
}

struct Cluster {
    servers: Vec<Server>,
    registry: Arc<InProcRegistry>,
    coordinator: Arc<Coordinator>,
    /// Set when the cluster was started with a fault injector; clients
    /// built through [`Cluster::client`] then share the faulty path.
    injector: Option<Arc<FaultInjector>>,
}

impl Cluster {
    fn start() -> Self {
        Self::start_inner(None, None)
    }

    fn start_faulty(plan: FaultPlan) -> Self {
        Self::start_inner(Some(plan), None)
    }

    fn start_tenanted(tenants: TenantDirectory) -> Self {
        Self::start_inner(None, Some(tenants))
    }

    fn start_inner(plan: Option<FaultPlan>, tenants: Option<TenantDirectory>) -> Self {
        let mut ring = ConsistentRing::new();
        for s in 0..2u16 {
            ring.add_worker(WorkerAddr::new(s, 0));
            ring.add_worker(WorkerAddr::new(s, 1));
        }
        let mapping = MappingTable::build(&ring, 4, 128);
        let coordinator = Arc::new(Coordinator::new(mapping.clone(), BalancerConfig::default()));
        let registry = InProcRegistry::new();
        let clock = ManualClock::new();
        let injector =
            plan.map(|p| FaultInjector::new(Arc::clone(&registry) as Arc<dyn Transport>, p));
        let servers = (0..2u16)
            .map(|s| {
                let mut cfg = ServerConfig::new(ServerId(s), 2, 32 << 20).cachelets_per_worker(4);
                if let Some(dir) = &tenants {
                    cfg = cfg.tenants(dir.clone());
                }
                match &injector {
                    Some(inj) => Server::spawn_with_transport(
                        cfg,
                        &mapping,
                        &registry,
                        Arc::clone(inj) as Arc<dyn Transport>,
                        Arc::clone(&coordinator),
                        Arc::new(clock.clone()) as Arc<dyn Clock>,
                    ),
                    None => Server::spawn(
                        cfg,
                        &mapping,
                        &registry,
                        Arc::clone(&coordinator),
                        Arc::new(clock.clone()) as Arc<dyn Clock>,
                    ),
                }
            })
            .collect();
        Self {
            servers,
            registry,
            coordinator,
            injector,
        }
    }

    /// A client over the cluster's transport (faulty when the cluster
    /// was started with an injector), optionally front-cached.
    fn client(&self, front: Option<FrontCacheConfig>) -> Client {
        let transport: Arc<dyn Transport> = match &self.injector {
            Some(inj) => Arc::clone(inj) as Arc<dyn Transport>,
            None => Arc::clone(&self.registry) as Arc<dyn Transport>,
        };
        let mut b = Client::builder(
            transport,
            Arc::clone(&self.coordinator) as Arc<dyn CoordinatorLink>,
        )
        .op_budget(Duration::from_secs(3600))
        .poll_backoff(Duration::ZERO, Duration::ZERO);
        if let Some(cfg) = front {
            b = b.front_cache(cfg);
        }
        b.build()
    }

    fn client_for(&self, tenant: TenantId, front: Option<FrontCacheConfig>) -> Client {
        let mut b = Client::builder(
            Arc::clone(&self.registry) as Arc<dyn Transport>,
            Arc::clone(&self.coordinator) as Arc<dyn CoordinatorLink>,
        )
        .tenant(tenant);
        if let Some(cfg) = front {
            b = b.front_cache(cfg);
        }
        b.build()
    }

    /// Forcibly migrates the cachelet homing `key` to the other server
    /// (the Phase-3 idiom from `tenant_isolation.rs`), bumping the
    /// mapping version.
    fn migrate_key(&mut self, key: &[u8]) {
        let snap = self.coordinator.mapping_snapshot();
        let (cachelet, owner) = snap.route(key).expect("mapping is total");
        let dest_server = if owner.server == ServerId(0) { 1 } else { 0 };
        let m = Migration {
            cachelet,
            from: owner,
            to: WorkerAddr::new(dest_server, 0),
            load: 0.0,
        };
        self.coordinator.report_local_move(&m);
        let committed = self.servers[owner.server.0 as usize].migrate_out(&m);
        assert!(committed, "coordinated migration must commit");
    }

    fn shutdown(mut self) {
        for s in &mut self.servers {
            s.shutdown();
        }
    }
}

/// Reads `key` enough times to promote it into the front cache and
/// asserts the last read was actually served by the front tier.
fn promote(client: &mut Client, key: &[u8], expect: &[u8]) {
    let before = client.stats().front_hits;
    for _ in 0..4 {
        assert_eq!(
            client.get(key).expect("get"),
            Some(expect.to_vec().into()),
            "wrong value while promoting"
        );
    }
    assert!(
        client.stats().front_hits > before,
        "key never reached the front cache (front_hits stuck at {before})"
    );
}

/// Read-your-writes: across many rewrite rounds of a hot key, a get
/// issued right after an acked set must return exactly that value —
/// the front tier never rolls a client's own writes back.
#[test]
fn own_acked_writes_are_never_rolled_back_slab() {
    let cluster = Cluster::start();
    let mut c = cluster.client(Some(eager_front()));
    let key = b"rw:hot";

    for round in 0..50u32 {
        let value = format!("v{round:04}").into_bytes();
        c.set_opts(key, &value, SetOptions::new()).expect("set");
        // The very next read, and every read until the next write, must
        // observe the acked value — whether it comes off the wire or,
        // after re-promotion, out of the front cache.
        for _ in 0..4 {
            assert_eq!(
                c.get(key).expect("get"),
                Some(value.clone().into()),
                "round {round}: front tier served a value \
                 older than the client's own acked write"
            );
        }
    }

    let stats = c.stats();
    assert!(
        stats.front_hits > 0,
        "scenario never exercised the front cache"
    );
    assert!(
        stats.sketch_promotions > 0,
        "sketch never promoted the hot key"
    );
    cluster.shutdown();
}

/// TTL bound: another client's write becomes visible within one front
/// window — a front entry is rejected at read time once it outlives its
/// TTL, so the reader falls back to the wire and sees the new value.
#[test]
fn front_entries_never_outlive_their_ttl() {
    let cluster = Cluster::start();
    let ttl = Duration::from_millis(25);
    let mut reader = cluster.client(Some(FrontCacheConfig::new().promote_min_count(2).ttl(ttl)));
    let mut writer = cluster.client(None);
    let key = b"ttl:hot";

    writer
        .set_opts(key, b"old", SetOptions::new())
        .expect("seed write");
    promote(&mut reader, key, b"old");

    // A foreign write the reader's front cache knows nothing about.
    writer
        .set_opts(key, b"new", SetOptions::new())
        .expect("foreign write");

    // Inside the window the reader may legitimately still serve "old"
    // (that is the bounded-staleness trade); past the window it must
    // not. Sleep well past the TTL and require the new value.
    std::thread::sleep(ttl + Duration::from_millis(40));
    let before = reader.stats().front_stale_rejected;
    assert_eq!(
        reader.get(key).expect("get"),
        Some(b"new".to_vec().into()),
        "front entry served past its TTL: foreign write invisible"
    );
    assert!(
        reader.stats().front_stale_rejected > before,
        "the expired entry should have been counted as a stale rejection"
    );
    cluster.shutdown();
}

/// Mapping coherence: a coordinated migration bumps the mapping
/// version; every front entry admitted under the old mapping is
/// rejected on the next read instead of being served.
#[test]
fn migration_version_bump_rejects_front_entries() {
    let mut cluster = Cluster::start();
    let mut c = cluster.client(Some(eager_front()));
    let key = b"mig:hot";

    c.set_opts(key, b"before-move", SetOptions::new())
        .expect("seed write");
    promote(&mut c, key, b"before-move");
    let version_before = c.mapping_version();

    cluster.migrate_key(key);
    // The heartbeat picks up the new mapping; the front entry's
    // recorded version no longer matches.
    c.poll_coordinator();
    assert!(
        c.mapping_version() > version_before,
        "migration must be visible as a mapping version bump"
    );

    let stale_before = c.stats().front_stale_rejected;
    assert_eq!(
        c.get(key).expect("get across migration"),
        Some(b"before-move".to_vec().into()),
        "value lost across coordinated migration"
    );
    assert!(
        c.stats().front_stale_rejected > stale_before,
        "front entry admitted under the old mapping was not rejected"
    );
    cluster.shutdown();
}

/// Chaos: read-your-writes holds while frames drop and reset mid-run
/// and a forced migration races the traffic. A set that errors leaves
/// the key's value uncertain (the ack was lost, the write may or may
/// not have landed), so the model tracks an admissible set per key,
/// exactly like `tests/chaos.rs`.
#[test]
fn read_your_writes_survives_chaos_and_migration() {
    let mut cluster = Cluster::start_faulty(FaultPlan::drops(0xC0FFEE, 0.05));
    let mut c = cluster.client(Some(eager_front()));

    const KEYS: u32 = 8;
    let key_of = |k: u32| format!("chaos:{k:02}").into_bytes();
    // Admissible values per key: the last acked write, plus any
    // unacked writes issued since.
    let mut admissible: HashMap<u32, Vec<Vec<u8>>> = HashMap::new();

    for round in 0..60u32 {
        let k = round % KEYS;
        let key = key_of(k);
        let value = format!("c{round:04}").into_bytes();
        match c.set_opts(&key, &value, SetOptions::new()) {
            Ok(_) => {
                admissible.insert(k, vec![value]);
            }
            Err(_) => {
                // Ack lost: both the old admissible values and the new
                // one remain possible until a read resolves them.
                admissible.entry(k).or_default().push(value);
            }
        }
        // Hammer the hot keys so the front tier stays engaged while
        // faults fire around it.
        for _ in 0..3 {
            if let Ok(got) = c.get(&key) {
                let poss = admissible.entry(k).or_default();
                let got = got.expect("written key must not vanish").to_vec();
                assert!(
                    poss.contains(&got),
                    "round {round}: read {:?} not in admissible set {:?}",
                    String::from_utf8_lossy(&got),
                    poss.len()
                );
                // A successful read resolves the uncertainty.
                *poss = vec![got];
            }
        }
        if round == 30 {
            cluster.migrate_key(&key_of(0));
            c.poll_coordinator();
        }
    }

    assert!(
        c.stats().front_hits > 0,
        "chaos run never exercised the front cache"
    );
    cluster.shutdown();
}

/// Multi-tenancy: front caches are per-client and keys are
/// tenant-namespaced on the wire, so two tenants reading the same key
/// bytes each stay pinned to their own value — even with both front
/// tiers hot.
#[test]
fn per_tenant_front_caches_never_leak_across_tenants() {
    const RED: TenantId = TenantId(1);
    const BLUE: TenantId = TenantId(2);
    let dir = TenantDirectory::new()
        .with_tenant(RED, TenantQuota::new(256 << 10, 1 << 20))
        .with_tenant(BLUE, TenantQuota::new(256 << 10, 1 << 20));
    let cluster = Cluster::start_tenanted(dir);

    let mut red = cluster.client_for(RED, Some(eager_front()));
    let mut blue = cluster.client_for(BLUE, Some(eager_front()));
    let key = b"shared:bytes";

    red.set_opts(key, b"red-value", SetOptions::new())
        .expect("red set");
    blue.set_opts(key, b"blue-value", SetOptions::new())
        .expect("blue set");
    promote(&mut red, key, b"red-value");
    promote(&mut blue, key, b"blue-value");

    // Interleave hot reads and rewrites; each tenant must only ever
    // see its own value.
    for round in 0..20u32 {
        let rv = format!("red-{round}").into_bytes();
        red.set_opts(key, &rv, SetOptions::new())
            .expect("red rewrite");
        for _ in 0..3 {
            assert_eq!(
                red.get(key).expect("red get"),
                Some(rv.clone().into()),
                "red tenant leaked a foreign or stale value"
            );
            assert_eq!(
                blue.get(key).expect("blue get"),
                Some(b"blue-value".to_vec().into()),
                "blue tenant observed red's write through the front tier"
            );
        }
    }

    assert!(red.stats().front_hits > 0, "red front cache never engaged");
    assert!(
        blue.stats().front_hits > 0,
        "blue front cache never engaged"
    );
    cluster.shutdown();
}
