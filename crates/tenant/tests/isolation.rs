//! Tenant isolation and arbitration-policy properties.
//!
//! Two claims the multi-tenancy subsystem makes:
//!
//! 1. **Isolation** — one tenant's write flood can never evict another
//!    tenant's entries (randomized over several seeds and entry sizes).
//! 2. **Arbitration beats static partitioning** — for two tenants with
//!    mismatched skew (a zipfian tenant that benefits from memory and a
//!    scanning tenant that cannot), running the Memshare-style arbiter
//!    epoch loop yields a strictly better aggregate hit rate than the
//!    static midpoint split, without ever violating a reserved floor.

use mbal_core::engine::Engine;
use mbal_tenant::{
    arbitrate, namespaced_key, ArbiterConfig, MrcEstimator, TenantDirectory, TenantEngine,
    TenantId, TenantLoad, TenantQuota,
};
use mbal_workload::{KeyDist, Zipfian};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const KIB: u64 = 1 << 10;

#[test]
fn flood_never_evicts_another_tenant_randomized() {
    for seed in [11u64, 23, 47] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dir = TenantDirectory::new()
            .with_tenant(TenantId(1), TenantQuota::new(64 * KIB, 256 * KIB))
            .with_tenant(TenantId(2), TenantQuota::new(64 * KIB, 256 * KIB));
        let mut e = TenantEngine::with_slab(dir);

        // Victim tenant 2 stores a modest working set, well under
        // its reserved floor.
        let mut victim = Vec::new();
        let mut victim_bytes = 0usize;
        while victim_bytes < 24 * KIB as usize {
            let key = format!("v{}", victim.len()).into_bytes();
            let len = rng.gen_range(64..512);
            let val = vec![rng.gen::<u8>(); len];
            e.set(&namespaced_key(TenantId(2), &key), &val, 0, 0)
                .expect("victim set");
            victim_bytes += len;
            victim.push((key, val));
        }

        // Tenant 1 floods far past its own ceiling with random
        // sizes; every eviction this forces must land on itself.
        for i in 0..4_000u32 {
            let key = format!("f{seed}-{i}").into_bytes();
            let len = rng.gen_range(64..1_024);
            e.set(&namespaced_key(TenantId(1), &key), &vec![0xAB; len], 0, 0)
                .expect("flood set");
        }

        for (key, val) in &victim {
            let got = e.get(&namespaced_key(TenantId(2), key), 0);
            assert_eq!(
                got.as_deref(),
                Some(val.as_slice()),
                "seed {seed}: victim lost {:?} to the flood",
                String::from_utf8_lossy(key)
            );
        }
        let usage = e.tenant_usage();
        let row = |t: u16| *usage.iter().find(|u| u.tenant == TenantId(t)).expect("row");
        assert_eq!(row(2).evictions, 0, "victim tenant evicted");
        assert!(row(1).evictions > 0, "flood should self-evict");
        assert!(
            row(1).used_bytes as u64 <= 2 * 256 * KIB,
            "flooder stays near its ceiling, got {}",
            row(1).used_bytes
        );
    }
}

/// One simulated run: a zipfian tenant (1) and a scanning tenant (2)
/// share the unit read-through style; returns (aggregate hit rate over
/// the second half, final budgets).
fn run_two_tenants(arbitrated: bool) -> (f64, HashMap<u16, u64>) {
    const VALUE: usize = 256;
    const OPS: u64 = 160_000;
    const EPOCH_OPS: u64 = 10_000;
    let floor = 256 * KIB;
    let ceiling = 3_840 * KIB; // midpoint = 2 MiB each: an even static split

    let dir = TenantDirectory::new()
        .with_tenant(TenantId(1), TenantQuota::new(floor, ceiling))
        .with_tenant(TenantId(2), TenantQuota::new(floor, ceiling));
    let mut e = TenantEngine::with_slab(dir);
    let mut zipf = Zipfian::new(30_000, 0.9);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut scan_cursor = 0u64;
    let mut mrcs: HashMap<u16, MrcEstimator> = HashMap::new();
    let mut gets: HashMap<u16, u64> = HashMap::new();
    let mut hits: HashMap<u16, u64> = HashMap::new();
    let cfg = ArbiterConfig::default();
    let mut measured = (0u64, 0u64); // (gets, hits) over the second half

    for op in 0..OPS {
        let tenant = if op % 2 == 0 { 1u16 } else { 2 };
        let idx = if tenant == 1 {
            zipf.next_index(&mut rng)
        } else {
            scan_cursor += 1;
            scan_cursor // strictly increasing: a scan with no reuse
        };
        let key = namespaced_key(TenantId(tenant), format!("{idx:08}").as_bytes());
        let hit = e.get(&key, 0).is_some();
        if !hit {
            e.set(&key, &[tenant as u8; VALUE], 0, 0).expect("fill");
        }
        mrcs.entry(tenant)
            .or_default()
            .record_access(idx, VALUE + key.len());
        *gets.entry(tenant).or_default() += 1;
        if hit {
            *hits.entry(tenant).or_default() += 1;
        }
        if op >= OPS / 2 {
            measured.0 += 1;
            measured.1 += u64::from(hit);
        }

        if arbitrated && op % EPOCH_OPS == EPOCH_OPS - 1 {
            let rows: Vec<TenantLoad> = e
                .tenant_usage()
                .iter()
                .filter(|u| !u.tenant.is_default())
                .map(|u| TenantLoad {
                    tenant: u.tenant,
                    resident_bytes: u.used_bytes as u64,
                    budget_bytes: u.budget_bytes as u64,
                    reserved_bytes: floor,
                    ceiling_bytes: ceiling,
                    gets: gets.get(&u.tenant.0).copied().unwrap_or(0),
                    hits: hits.get(&u.tenant.0).copied().unwrap_or(0),
                    sets: 0,
                    evictions: u.evictions,
                    marginal_hits_per_mb: mrcs
                        .get(&u.tenant.0)
                        .map(|m| m.marginal_hits_per_mb(u.budget_bytes as u64, cfg.step_bytes))
                        .unwrap_or(0.0),
                })
                .collect();
            for (tenant, budget) in arbitrate(&rows, &cfg) {
                assert!(budget >= floor, "arbiter violated a reserved floor");
                assert!(budget <= ceiling, "arbiter violated a ceiling");
                e.set_tenant_budget(tenant, budget as usize);
            }
            for m in mrcs.values_mut() {
                m.decay();
            }
        }
    }

    let budgets = e
        .tenant_usage()
        .iter()
        .filter(|u| !u.tenant.is_default())
        .map(|u| (u.tenant.0, u.budget_bytes as u64))
        .collect();
    (measured.1 as f64 / measured.0 as f64, budgets)
}

#[test]
fn arbitration_beats_static_partitioning_on_skew_mismatch() {
    let (static_hr, static_budgets) = run_two_tenants(false);
    let (arb_hr, arb_budgets) = run_two_tenants(true);

    // Static never moves off the midpoint split.
    assert_eq!(static_budgets[&1], 2_048 * KIB);
    assert_eq!(static_budgets[&2], 2_048 * KIB);
    // The arbiter shifts memory from the reuse-free scanner to the
    // zipfian tenant, never below the scanner's floor.
    assert!(
        arb_budgets[&1] > static_budgets[&1],
        "zipfian tenant should have gained budget: {arb_budgets:?}"
    );
    assert!(arb_budgets[&2] >= 256 * KIB, "floor held");
    assert!(
        arb_hr > static_hr + 0.01,
        "arbitration should beat the static split: \
         arbitrated {arb_hr:.4} vs static {static_hr:.4}"
    );
}
