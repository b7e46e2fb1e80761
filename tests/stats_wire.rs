//! The STATS wire surface end to end over TCP: a client drives real
//! traffic, then scrapes per-worker stats (the memcached `stats`
//! analog) and checks the counters and latency histograms match what
//! was issued.

use mbal::balancer::coordinator::Coordinator;
use mbal::balancer::BalancerConfig;
use mbal::client::{Client, SetOptions};
use mbal::core::clock::RealClock;
use mbal::core::types::{ServerId, WorkerAddr};
use mbal::ring::{ConsistentRing, MappingTable};
use mbal::server::tcp::{serve_tcp, TcpTransport};
use mbal::server::{FaultInjector, FaultPlan, InProcRegistry, Server, ServerConfig, Transport};
use mbal::telemetry::{Counter, Gauge};
use std::collections::HashMap;
use std::sync::Arc;

fn build(n_servers: u16, workers: u16) -> (Vec<Server>, Arc<Coordinator>, Arc<TcpTransport>) {
    let mut ring = ConsistentRing::new();
    for s in 0..n_servers {
        for w in 0..workers {
            ring.add_worker(WorkerAddr::new(s, w));
        }
    }
    let mapping = MappingTable::build(&ring, 4, 256);
    let coordinator = Arc::new(Coordinator::new(mapping.clone(), BalancerConfig::default()));
    let registry = InProcRegistry::new();
    let mut routes = HashMap::new();
    let servers: Vec<Server> = (0..n_servers)
        .map(|s| {
            let server = Server::spawn(
                ServerConfig::new(ServerId(s), workers, 64 << 20).cachelets_per_worker(4),
                &mapping,
                &registry,
                Arc::clone(&coordinator),
                Arc::new(RealClock::new()),
            );
            let bound = serve_tcp(&server.worker_mailboxes(), "127.0.0.1", 0).expect("bind");
            routes.extend(bound);
            server
        })
        .collect();
    (servers, coordinator, TcpTransport::new(routes))
}

#[test]
fn stats_over_tcp_report_issued_traffic() {
    const N: u64 = 120;
    let (mut servers, coordinator, transport) = build(2, 2);
    let mut client = Client::builder(
        Arc::clone(&transport) as Arc<dyn Transport>,
        Arc::clone(&coordinator) as Arc<dyn mbal::client::CoordinatorLink>,
    )
    .build();
    for i in 0..N {
        client
            .set_opts(format!("sw:{i}").as_bytes(), b"value", SetOptions::new())
            .expect("set over tcp");
    }
    for i in 0..N {
        assert!(client
            .get(format!("sw:{i}").as_bytes())
            .expect("get over tcp")
            .is_some());
    }

    let reports = client.server_stats(false).expect("stats over tcp");
    assert_eq!(reports.len(), 4, "one report per worker");

    let sets: u64 = reports
        .iter()
        .map(|r| r.load.metrics.get(Counter::Sets))
        .sum();
    let gets: u64 = reports
        .iter()
        .map(|r| r.load.metrics.get(Counter::Gets))
        .sum();
    let hits: u64 = reports
        .iter()
        .map(|r| r.load.metrics.get(Counter::GetHits))
        .sum();
    assert_eq!(sets, N, "every SET must be counted exactly once");
    assert_eq!(gets, N, "every GET must be counted exactly once");
    assert_eq!(hits, N, "every GET was a hit");
    // The workers sat idle between one-at-a-time calls, so the event
    // loops served some of them on their own threads.
    let inline: u64 = reports
        .iter()
        .map(|r| r.load.metrics.get(Counter::InlineRpcs))
        .sum();
    assert!(inline > 0, "no TCP batch was served inline");

    // Latency histograms recorded every op, with sane percentiles.
    let read_count: u64 = reports.iter().map(|r| r.read_latency.count).sum();
    let write_count: u64 = reports.iter().map(|r| r.write_latency.count).sum();
    assert_eq!(read_count, N);
    assert_eq!(write_count, N);
    for r in &reports {
        if r.read_latency.count > 0 {
            assert!(r.read_latency.p50_us <= r.read_latency.p99_us);
            assert!(r.read_latency.p99_us <= r.read_latency.max_us);
        }
    }

    // A single-worker scrape agrees with the fleet scrape.
    let one = client
        .worker_stats(WorkerAddr::new(0, 0), false)
        .expect("worker stats");
    assert_eq!(one.load.addr, WorkerAddr::new(0, 0));
    assert!(!one.named_dump().is_empty());

    for s in &mut servers {
        s.shutdown();
    }
}

/// `Stats { reset: true }` raced against live writers, with the stats
/// scrapes travelling through a delay-injecting fault transport to
/// widen the race window. Because a worker serves its mailbox serially,
/// every reset snapshot must partition the write stream exactly: the
/// sum of harvested deltas plus the final residual equals the writes
/// issued — nothing lost, nothing double-counted — and gauges (current
/// state, not rates) must survive every reset.
#[test]
fn stats_reset_raced_with_writers_conserves_counts() {
    const WRITES: u64 = 400;
    let (mut servers, coordinator, transport) = build(1, 1);

    let writer_transport = Arc::clone(&transport);
    let writer_coord = Arc::clone(&coordinator);
    let writer = std::thread::spawn(move || {
        let mut c = Client::builder(
            writer_transport as Arc<dyn Transport>,
            writer_coord as Arc<dyn mbal::client::CoordinatorLink>,
        )
        .build();
        for i in 0..WRITES {
            c.set_opts(
                format!("race:{}", i % 32).as_bytes(),
                b"v",
                SetOptions::new(),
            )
            .expect("writer set");
        }
    });

    // The scraper's frames get held 1–3 ms half the time, so resets land
    // at arbitrary points of the write stream.
    let injector = FaultInjector::new(
        Arc::clone(&transport) as Arc<dyn Transport>,
        FaultPlan::delays(0xbeef, 0.5, 1, 3),
    );
    let mut scraper = Client::builder(
        Arc::clone(&injector) as Arc<dyn Transport>,
        Arc::clone(&coordinator) as Arc<dyn mbal::client::CoordinatorLink>,
    )
    .build();

    let mut harvested = 0u64;
    let mut owned_gauge = None;
    let mut scrapes = 0u32;
    loop {
        let done = writer.is_finished();
        let reports = scraper.server_stats(true).expect("stats reset under delay");
        harvested += reports
            .iter()
            .map(|r| r.load.metrics.get(Counter::Sets))
            .sum::<u64>();
        let owned = reports[0].load.metrics.gauge(Gauge::CacheletsOwned);
        assert!(owned > 0, "gauges must survive a counter reset");
        if let Some(prev) = owned_gauge {
            assert_eq!(prev, owned, "reset must not disturb gauges");
        }
        owned_gauge = Some(owned);
        scrapes += 1;
        if done && scrapes >= 3 {
            break;
        }
    }
    writer.join().expect("writer thread");

    // Writers are synchronous, so after the join every SET has been
    // counted; whatever the harvest missed sits in the residual.
    let residual: u64 = scraper
        .server_stats(false)
        .expect("final stats")
        .iter()
        .map(|r| r.load.metrics.get(Counter::Sets))
        .sum();
    assert_eq!(
        harvested + residual,
        WRITES,
        "reset deltas must partition the write stream exactly \
         (harvested {harvested} + residual {residual})"
    );
    assert!(injector.injected() > 0, "delay plan never fired");

    for s in &mut servers {
        s.shutdown();
    }
}

#[test]
fn stats_reset_over_tcp_zeroes_counters() {
    let (mut servers, coordinator, transport) = build(1, 1);
    let mut client = Client::builder(
        Arc::clone(&transport) as Arc<dyn Transport>,
        Arc::clone(&coordinator) as Arc<dyn mbal::client::CoordinatorLink>,
    )
    .build();
    for i in 0..10u32 {
        client
            .set_opts(format!("r:{i}").as_bytes(), b"v", SetOptions::new())
            .expect("set");
    }
    let before = client.server_stats(true).expect("stats reset");
    assert_eq!(before[0].load.metrics.get(Counter::Sets), 10);
    let after = client.server_stats(false).expect("stats");
    assert_eq!(after[0].load.metrics.get(Counter::Sets), 0);
    assert_eq!(after[0].write_latency.count, 0);
    for s in &mut servers {
        s.shutdown();
    }
}
