//! Tenant isolation, end to end through the real server stack.
//!
//! The contract under test is the multi-tenancy subsystem's core
//! promise: one tenant's memory pressure is *structurally* unable to
//! touch another tenant's entries. A flooding tenant whose footprint
//! exceeds its budget several times over churns through its own
//! evictions while a quiet tenant's acked writes — comfortably inside
//! their reserved floor — read back verbatim, with a coordinated
//! migration racing the flood, and with unknown
//! tenants bounced as a typed status rather than a dropped session.
//!
//! (The chaos suite extends the same invariant across injected
//! network faults and node kills; see `tests/chaos.rs`.)

use mbal::balancer::coordinator::Coordinator;
use mbal::balancer::plan::Migration;
use mbal::balancer::BalancerConfig;
use mbal::client::{Client, CoordinatorLink, SetOptions};
use mbal::core::clock::{Clock, ManualClock};
use mbal::core::types::{ServerId, TenantId, WorkerAddr};
use mbal::proto::Status;
use mbal::ring::{ConsistentRing, MappingTable};
use mbal::server::{InProcRegistry, Server, ServerConfig, Transport};
use mbal::tenant::{TenantDirectory, TenantQuota};
use std::sync::Arc;

const QUIET: TenantId = TenantId(1);
const FLOOD: TenantId = TenantId(2);

/// Quotas are per cache unit. The quiet tenant's whole footprint fits
/// far inside its reserved floor; the flooder's budget is a fraction
/// of what it will try to store.
fn directory() -> TenantDirectory {
    TenantDirectory::new()
        .with_tenant(QUIET, TenantQuota::new(256 << 10, 1 << 20))
        .with_tenant(FLOOD, TenantQuota::new(32 << 10, 256 << 10))
}

struct Cluster {
    servers: Vec<Server>,
    registry: Arc<InProcRegistry>,
    coordinator: Arc<Coordinator>,
}

impl Cluster {
    fn start() -> Self {
        let mut ring = ConsistentRing::new();
        for s in 0..2u16 {
            ring.add_worker(WorkerAddr::new(s, 0));
            ring.add_worker(WorkerAddr::new(s, 1));
        }
        let mapping = MappingTable::build(&ring, 4, 128);
        let coordinator = Arc::new(Coordinator::new(mapping.clone(), BalancerConfig::default()));
        let registry = InProcRegistry::new();
        let clock = ManualClock::new();
        let servers = (0..2u16)
            .map(|s| {
                Server::spawn(
                    ServerConfig::new(ServerId(s), 2, 32 << 20)
                        .cachelets_per_worker(4)
                        .tenants(directory()),
                    &mapping,
                    &registry,
                    Arc::clone(&coordinator),
                    Arc::new(clock.clone()) as Arc<dyn Clock>,
                )
            })
            .collect();
        Self {
            servers,
            registry,
            coordinator,
        }
    }

    fn client_for(&self, tenant: TenantId) -> Client {
        Client::builder(
            Arc::clone(&self.registry) as Arc<dyn Transport>,
            Arc::clone(&self.coordinator) as Arc<dyn CoordinatorLink>,
        )
        .tenant(tenant)
        .build()
    }

    fn shutdown(mut self) {
        for s in &mut self.servers {
            s.shutdown();
        }
    }
}

fn quiet_key(i: u32) -> Vec<u8> {
    format!("quiet:{i:05}").into_bytes()
}

fn quiet_value(i: u32) -> Vec<u8> {
    format!("qv-{i:05}-{}", "x".repeat(96)).into_bytes()
}

/// Writes the quiet tenant's working set, floods from the noisy
/// tenant, and asserts the quiet set is untouched while the flooder
/// paid for its own overrun.
#[test]
fn flood_cannot_evict_the_quiet_tenant_slab() {
    let cluster = Cluster::start();
    let mut quiet = cluster.client_for(QUIET);
    let mut flood = cluster.client_for(FLOOD);

    const QUIET_KEYS: u32 = 300;
    for i in 0..QUIET_KEYS {
        quiet
            .set_opts(&quiet_key(i), &quiet_value(i), SetOptions::new())
            .expect("quiet set must be admitted");
    }

    // ~5 MiB of cold writes against a ~2.3 MiB cluster-wide budget.
    let big = vec![0xABu8; 2048];
    for i in 0..2_500u32 {
        flood
            .set_opts(format!("flood:{i:06}").as_bytes(), &big, SetOptions::new())
            .expect("flood sets are admitted (they evict flood-owned entries)");
    }

    for i in 0..QUIET_KEYS {
        assert_eq!(
            quiet.get(&quiet_key(i)).expect("quiet get"),
            Some(quiet_value(i).into()),
            "flood evicted quiet key {i}: cross-tenant eviction"
        );
    }

    // The server's per-tenant books must agree: the flooder churned,
    // the quiet tenant lost nothing.
    let reports = quiet.server_stats(false).expect("stats scrape");
    let mut quiet_evictions = 0u64;
    let mut flood_evictions = 0u64;
    let mut quiet_resident = 0u64;
    for r in &reports {
        for t in &r.load.tenants {
            if t.tenant == QUIET {
                quiet_evictions += t.evictions;
                quiet_resident += t.resident_bytes;
            } else if t.tenant == FLOOD {
                flood_evictions += t.evictions;
            }
        }
    }
    assert_eq!(
        quiet_evictions, 0,
        "quiet tenant under its floor must never be evicted"
    );
    assert!(
        flood_evictions > 0,
        "the flooder must have evicted its own entries"
    );
    assert!(
        quiet_resident > 0,
        "quiet tenant accounting shows nothing resident"
    );
    cluster.shutdown();
}

#[test]
fn unknown_tenant_is_a_typed_rejection_not_a_dropped_session() {
    let cluster = Cluster::start();
    let mut ghost = cluster.client_for(TenantId(9));

    let err = ghost
        .set_opts(b"ghost:key", b"v", SetOptions::new())
        .expect_err("unadmitted tenant must be refused");
    assert_eq!(err.status(), Some(Status::UnknownTenant), "{err}");
    let err = ghost.get(b"ghost:key").expect_err("reads refused too");
    assert_eq!(err.status(), Some(Status::UnknownTenant), "{err}");

    // The rejection is per-request: the same transport keeps serving
    // admitted tenants afterwards.
    let mut quiet = cluster.client_for(QUIET);
    quiet
        .set_opts(b"alive", b"yes", SetOptions::new())
        .expect("admitted tenant unaffected by the rejection");
    assert_eq!(
        quiet.get(b"alive").expect("get"),
        Some(b"yes".to_vec().into())
    );
    cluster.shutdown();
}

/// A coordinated migration mid-flood: the migrating cachelet carries
/// namespaced keys across servers, and the quiet tenant's entries —
/// including the migrated ones — must survive both the move and the
/// flood raging around it.
#[test]
fn quiet_tenant_survives_a_flood_racing_a_migration() {
    let mut cluster = Cluster::start();
    let mut quiet = cluster.client_for(QUIET);
    let mut flood = cluster.client_for(FLOOD);

    const QUIET_KEYS: u32 = 200;
    for i in 0..QUIET_KEYS {
        quiet
            .set_opts(&quiet_key(i), &quiet_value(i), SetOptions::new())
            .expect("quiet set");
    }

    let big = vec![0xCDu8; 2048];
    let mut flood_i = 0u32;
    let mut flood_burst = |flood: &mut Client, n: u32| {
        for _ in 0..n {
            flood
                .set_opts(
                    format!("flood:{flood_i:06}").as_bytes(),
                    &big,
                    SetOptions::new(),
                )
                .expect("flood set");
            flood_i += 1;
        }
    };
    flood_burst(&mut flood, 800);

    // Migrate the cachelet that homes quiet key 0 to the other server,
    // with the flood's writes interleaved before and after.
    let snap = cluster.coordinator.mapping_snapshot();
    let (cachelet, owner) = snap.route(&quiet_key(0)).expect("mapping is total");
    let dest_server = if owner.server == ServerId(0) { 1 } else { 0 };
    let m = Migration {
        cachelet,
        from: owner,
        to: WorkerAddr::new(dest_server, 0),
        load: 0.0,
    };
    cluster.coordinator.report_local_move(&m);
    let committed = cluster.servers[owner.server.0 as usize].migrate_out(&m);
    assert!(committed, "coordinated migration must commit");

    flood_burst(&mut flood, 800);

    for i in 0..QUIET_KEYS {
        assert_eq!(
            quiet.get(&quiet_key(i)).expect("quiet get"),
            Some(quiet_value(i).into()),
            "quiet key {i} lost across migration + flood"
        );
    }
    cluster.shutdown();
}
