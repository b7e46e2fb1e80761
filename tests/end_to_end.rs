//! End-to-end integration over the real TCP transport: servers listen
//! on per-worker ports (§2.3), a client routes through the mapping
//! table, and traffic survives a balance tick.

use mbal::balancer::coordinator::Coordinator;
use mbal::balancer::BalancerConfig;
use mbal::client::{Client, SetOptions};
use mbal::core::clock::RealClock;
use mbal::core::types::{ServerId, WorkerAddr};
use mbal::proto::{Request, Response};
use mbal::ring::{ConsistentRing, MappingTable};
use mbal::server::tcp::{serve_tcp, TcpTransport};
use mbal::server::{InProcRegistry, Server, ServerConfig, Transport};
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
fn tcp_cluster_set_get_delete() {
    let (mut servers, coordinator, transport) = build(2, 2);
    let mut client = Client::builder(
        Arc::clone(&transport) as Arc<dyn Transport>,
        Arc::clone(&coordinator) as Arc<dyn mbal::client::CoordinatorLink>,
    )
    .build();
    for i in 0..300u32 {
        client
            .set_opts(
                format!("tcp:{i}").as_bytes(),
                &i.to_be_bytes(),
                SetOptions::new(),
            )
            .expect("set over tcp");
    }
    for i in 0..300u32 {
        assert_eq!(
            client
                .get(format!("tcp:{i}").as_bytes())
                .expect("get over tcp")
                .expect("hit"),
            i.to_be_bytes()
        );
    }
    let got = client
        .multi_get(
            &(0..50u32)
                .map(|i| format!("tcp:{i}").into_bytes())
                .collect::<Vec<_>>(),
        )
        .expect("multi_get over tcp");
    assert!(got.iter().all(|v| v.is_some()));
    assert!(client.delete(b"tcp:0").expect("delete"));
    assert_eq!(client.get(b"tcp:0").expect("get"), None);
    for s in &mut servers {
        s.shutdown();
    }
}

#[test]
fn multiget_over_tcp_is_one_flush_per_worker() {
    use mbal::telemetry::Counter;

    // A 64-key MultiGET must reach each home worker as ONE pipelined
    // batch (one request flush, one response drain), never as 64
    // singleton round-trips. The workers' own counters show what the
    // TCP layer delivered: after a stats reset, every message a worker's
    // event loop serves counts one `InlineRpcs`, and a message of more
    // than one request also counts one `BatchRpcs`.
    let (mut servers, coordinator, transport) = build(2, 2);
    let mapping = coordinator.mapping_snapshot();
    let mut client = Client::builder(
        Arc::clone(&transport) as Arc<dyn Transport>,
        Arc::clone(&coordinator) as Arc<dyn mbal::client::CoordinatorLink>,
    )
    .build();

    let keys: Vec<Vec<u8>> = (0..64u32)
        .map(|i| format!("batch:{i}").into_bytes())
        .collect();
    for k in &keys {
        client.set_opts(k, b"v", SetOptions::new()).expect("set");
    }
    let workers: Vec<WorkerAddr> = servers.iter().flat_map(|s| s.worker_addrs()).collect();
    for &w in &workers {
        client.worker_stats(w, true).expect("stats reset");
    }

    let got = client.multi_get(&keys).expect("multi_get over tcp");
    assert!(got.iter().all(|v| v.is_some()), "all 64 keys must hit");

    let reports: Vec<_> = workers
        .iter()
        .map(|&w| client.worker_stats(w, false).expect("stats"))
        .collect();
    let total = |c: Counter| reports.iter().map(|r| r.load.metrics.get(c)).sum::<u64>();
    let homes: std::collections::HashSet<WorkerAddr> = keys
        .iter()
        .map(|k| mapping.route(k).expect("routed").1)
        .collect();
    assert_eq!(total(Counter::Gets), keys.len() as u64);
    assert_eq!(
        total(Counter::BatchRpcs),
        homes.len() as u64,
        "one pipelined batch per home worker"
    );
    // Every message served is a batch, except each worker's stats read.
    assert_eq!(
        total(Counter::InlineRpcs) - total(Counter::BatchRpcs),
        workers.len() as u64,
        "no singleton round-trips during a fully-hit MultiGET"
    );
    for s in &mut servers {
        s.shutdown();
    }
}

#[test]
fn tcp_frames_interoperate_with_raw_protocol() {
    // A hand-rolled protocol client (no mbal-client) must interoperate:
    // the wire format is the contract.
    let (mut servers, coordinator, transport) = build(1, 1);
    let mapping = coordinator.mapping_snapshot();
    let key = b"raw-key".to_vec();
    let (cachelet, worker) = mapping.route(&key).expect("routed");
    let resp = transport
        .call(
            worker,
            Request::Set {
                cachelet,
                key: key.clone(),
                value: b"raw-value".to_vec().into(),
                expiry_ms: 0,
            },
        )
        .expect("set");
    assert_eq!(resp, Response::Stored);
    let resp = transport
        .call(worker, Request::Get { cachelet, key })
        .expect("get");
    assert_eq!(
        resp,
        Response::Value {
            value: b"raw-value".to_vec().into(),
            replicas: vec![]
        }
    );
    for s in &mut servers {
        s.shutdown();
    }
}

#[test]
fn stats_blob_is_valid_json_stats_report() {
    let (mut servers, _coordinator, transport) = build(1, 1);
    let resp = transport
        .call(WorkerAddr::new(0, 0), Request::Stats { reset: false })
        .expect("stats");
    let Response::StatsBlob { payload } = resp else {
        panic!("expected stats blob, got {resp:?}");
    };
    let report: mbal::telemetry::StatsReport =
        serde_json::from_slice(&payload).expect("stats parse as StatsReport");
    assert_eq!(report.load.addr, WorkerAddr::new(0, 0));
    assert_eq!(report.load.cachelets.len(), 4);
    for s in &mut servers {
        s.shutdown();
    }
}

#[test]
fn balance_tick_does_not_disturb_tcp_traffic() {
    let (mut servers, coordinator, transport) = build(2, 2);
    let mut client = Client::builder(
        Arc::clone(&transport) as Arc<dyn Transport>,
        Arc::clone(&coordinator) as Arc<dyn mbal::client::CoordinatorLink>,
    )
    .build();
    for i in 0..200u32 {
        client
            .set_opts(format!("k{i}").as_bytes(), b"v", SetOptions::new())
            .expect("set");
    }
    for s in &mut servers {
        s.tick(1_000);
        s.tick(2_000);
    }
    for i in 0..200u32 {
        assert!(client
            .get(format!("k{i}").as_bytes())
            .expect("get")
            .is_some());
    }
    for s in &mut servers {
        s.shutdown();
    }
}
