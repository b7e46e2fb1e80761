//! Loadgen smoke: the deterministic-seed replay guarantee, the exact
//! client/server count reconciliation, and completed-op throughput, end
//! to end through the real stack. Kept small enough for tier-1 CI (~2 s wall).

use mbal_balancer::PhaseSet;
use mbal_bench::loadgen::{
    build_schedule, run_cell, schedule_digest, DefenseMode, LoadgenConfig, Mix, TenancyMode,
    TransportMode,
};
use mbal_workload::OpKind;

fn smoke_cfg() -> LoadgenConfig {
    LoadgenConfig {
        mix: Mix::C,
        phases: PhaseSet::none(),
        rate: 3_000,
        threads: 2,
        warmup_secs: 0.15,
        measure_secs: 0.6,
        records: 400,
        seed: 7,
        transport: TransportMode::InProc,
        servers: 2,
        workers_per_server: 2,
        tenancy: TenancyMode::Off,
        defense: DefenseMode::Off,
        diurnal: None,
        autoscale: None,
        spares: 0,
        origin_fetch_ms: 0,
    }
}

#[test]
fn identical_seeds_replay_the_identical_op_schedule() {
    let cfg = smoke_cfg();
    let a = build_schedule(&cfg);
    let b = build_schedule(&cfg);
    assert_eq!(a, b);
    assert_eq!(schedule_digest(&a), schedule_digest(&b));
    // The schedule is a genuine mix (reads and writes both present for
    // WorkloadC) and fully pre-materialized: replaying it can never
    // depend on runtime timing.
    let kinds: Vec<OpKind> = a.iter().flatten().map(|s| s.op.kind).collect();
    assert!(kinds.contains(&OpKind::Get) && kinds.contains(&OpKind::Set));
}

#[test]
fn balancing_off_run_reconciles_counts_exactly() {
    let cfg = smoke_cfg();
    let cell = run_cell(&cfg);

    assert_eq!(cell.client.failures, 0, "no op may fail: {cell:?}");
    assert!(cell.ops_measured > 0, "measure window captured nothing");
    assert!(
        cell.ops_total > cell.ops_measured,
        "warmup must be excluded"
    );
    assert_eq!(cell.latency.count, cell.ops_measured);
    assert!(cell.latency.p50_us <= cell.latency.p99_us);
    assert!(cell.latency.p99_us <= cell.latency.p999_us);
    assert!(cell.latency.p999_us <= cell.latency.max_us);
    assert!(cell.achieved_rate > 0.0);

    // With every balancing phase gated off there are no replica reads
    // and no mid-flight migrations, so the client's issue counts and
    // the servers' StatsReport counters must agree EXACTLY.
    assert_eq!(cell.server.replica_reads, 0, "phases off ⇒ no replicas");
    assert_eq!(
        cell.server.gets, cell.client.gets,
        "every client GET must be counted exactly once server-side"
    );
    assert_eq!(
        cell.server.sets, cell.client.sets,
        "every client SET must be counted exactly once server-side"
    );
    assert_eq!(cell.server.ops, cell.server.gets + cell.server.sets);
    assert!(cell.counts_reconciled, "reconciliation flag must agree");

    // Every record was pre-loaded, so reads never miss.
    assert_eq!(cell.client.hits, cell.client.gets);
    assert_eq!(cell.server.get_hits, cell.server.gets);
}

#[test]
fn ttl_heavy_schedule_carries_per_op_ttls() {
    let cfg = LoadgenConfig {
        mix: Mix::TtlHeavy,
        ..smoke_cfg()
    };
    let schedule = build_schedule(&cfg);
    let ops: Vec<_> = schedule.iter().flatten().collect();
    assert!(
        ops.iter()
            .filter(|s| s.op.kind == OpKind::Set)
            .all(|s| (1_000..=8_000).contains(&s.op.ttl_ms)),
        "every SET carries a TTL in the preset range"
    );
    assert!(
        ops.iter()
            .filter(|s| s.op.kind != OpKind::Set)
            .all(|s| s.op.ttl_ms == 0),
        "non-SETs carry no TTL"
    );
    // TTLs are part of the replay fingerprint.
    let plain = build_schedule(&LoadgenConfig {
        mix: Mix::C,
        ..cfg.clone()
    });
    assert_ne!(schedule_digest(&schedule), schedule_digest(&plain));
    assert_eq!(
        schedule_digest(&schedule),
        schedule_digest(&build_schedule(&cfg))
    );
}

#[test]
fn tcp_run_reconciles_counts_exactly() {
    let cfg = LoadgenConfig {
        transport: TransportMode::Tcp,
        rate: 1_500,
        warmup_secs: 0.1,
        measure_secs: 0.4,
        ..smoke_cfg()
    };
    let cell = run_cell(&cfg);
    assert_eq!(cell.client.failures, 0);
    assert!(cell.ops_measured > 0);
    assert_eq!(cell.server.gets, cell.client.gets);
    assert_eq!(cell.server.sets, cell.client.sets);
    assert!(cell.counts_reconciled);
    assert_eq!(cell.transport, "tcp");
}

#[test]
fn front_cache_defense_reconciles_counts_exactly() {
    // Extreme skew with the front tier armed: a meaningful share of
    // GETs never reaches the wire, and the reconciliation must account
    // for every one of them.
    let cfg = LoadgenConfig {
        mix: Mix::ExtremeZipf,
        defense: DefenseMode::Front,
        ..smoke_cfg()
    };
    let cell = run_cell(&cfg);
    assert_eq!(cell.defense, "front");
    assert_eq!(cell.client.failures, 0, "no op may fail: {cell:?}");
    assert!(
        cell.client.front_hits > 0,
        "θ=1.3 must drive the hottest keys into the front cache: {cell:?}"
    );
    assert!(cell.client.sketch_promotions > 0);
    assert_eq!(
        cell.server.gets + cell.server.replica_reads + cell.client.front_hits,
        cell.client.gets,
        "every GET is served exactly once: wire, replica, or front cache"
    );
    assert!(cell.counts_reconciled, "front hits must reconcile");
    // Pre-loaded keyspace: front hits count as hits like any other.
    assert_eq!(cell.client.hits, cell.client.gets);
}

#[test]
fn bounded_load_defense_arms_the_balancer_cap() {
    // The cap plans through the live balance thread; this smoke only
    // pins the wiring (cap armed, counters scraped, run completes) —
    // the skew benefit itself is the loadgen matrix's job.
    let cfg = LoadgenConfig {
        mix: Mix::ExtremeZipf,
        defense: DefenseMode::Bounded,
        ..smoke_cfg()
    };
    let cell = run_cell(&cfg);
    assert_eq!(cell.defense, "bounded");
    // Cap sheds are real migrations racing live traffic, so a handful
    // of ops may exhaust retries mid-move — unlike the phases-off
    // cells, zero-failure is not a guarantee here.
    assert!(
        cell.client.failures <= 5,
        "cap sheds may cost a few retries, not wholesale failure: {cell:?}"
    );
    assert_eq!(cell.client.front_hits, 0, "no front tier in bounded mode");
    assert!(
        cell.server.ring_cap_spills > 0,
        "θ=1.3 must push a worker over the cap within the run: {cell:?}"
    );
    assert!(cell.worst_worker_utilization >= 1.0);
}

#[test]
fn multi_tenant_run_reports_per_tenant_cells() {
    let cfg = LoadgenConfig {
        mix: Mix::MultiTenant,
        tenancy: TenancyMode::Arbitrated,
        rate: 3_000,
        ..smoke_cfg()
    };
    // The static-partitioning baseline and the arbitrated run replay
    // the exact same schedule: the comparison is pure policy.
    let static_cfg = LoadgenConfig {
        tenancy: TenancyMode::Static,
        ..cfg.clone()
    };
    assert_eq!(
        schedule_digest(&build_schedule(&cfg)),
        schedule_digest(&build_schedule(&static_cfg)),
    );

    let cell = run_cell(&cfg);
    assert_eq!(cell.tenancy, "arbitrated");
    assert_eq!(cell.client.failures, 0, "no op may fail: {cell:?}");
    assert!(cell.counts_reconciled, "tenant tagging must not lose ops");

    // Three tenants, exactly one of them the designated flooder, and
    // the server kept per-tenant books for each.
    assert_eq!(cell.tenants.len(), 3, "one row per planned tenant");
    assert_eq!(cell.tenants.iter().filter(|t| t.noisy).count(), 1);
    for t in &cell.tenants {
        assert!(t.gets + t.sets > 0, "tenant {} drove no traffic", t.tenant);
        assert!(
            t.resident_bytes > 0,
            "tenant {} has no resident bytes in the scrape",
            t.tenant
        );
        assert!(t.budget_bytes > 0, "tenant {} has no budget", t.tenant);
    }

    // The flooder's footprint exceeds its budget by design, so its own
    // eviction churn must show up in its row — and only its row can be
    // forced: the quiet tenants fit inside their static midpoints.
    let noisy = cell.tenants.iter().find(|t| t.noisy).unwrap();
    assert!(
        noisy.evictions > 0,
        "the noisy tenant must be thrashing: {noisy:?}"
    );
}

#[test]
fn an_overloaded_run_reports_the_rate_it_served() {
    // Far past what the host serves: the run stretches well beyond its
    // window, and the reported rate must say so instead of echoing the
    // offered one.
    let cfg = LoadgenConfig {
        rate: 2_000_000,
        warmup_secs: 0.02,
        measure_secs: 0.1,
        ..smoke_cfg()
    };
    let cell = run_cell(&cfg);
    assert_eq!(cell.client.failures, 0, "no op may fail: {cell:?}");
    assert!(
        cell.achieved_rate < 0.9 * cfg.rate as f64,
        "achieved {} of {} offered",
        cell.achieved_rate,
        cfg.rate
    );
}
