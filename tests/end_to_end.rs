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
    use mbal::server::mailbox::Mailbox;
    use mbal::server::messages::WorkerMsg;
    use std::sync::atomic::{AtomicUsize, Ordering};

    // Like `build`, but every worker mailbox is wrapped in a counting
    // relay, so the test observes exactly what the TCP layer enqueues:
    // a 64-key MultiGET must reach each home worker as ONE pipelined
    // batch (one request flush, one response drain), never as 64
    // singleton round-trips.
    let mut ring = ConsistentRing::new();
    for s in 0..2u16 {
        for w in 0..2u16 {
            ring.add_worker(WorkerAddr::new(s, w));
        }
    }
    let mapping = MappingTable::build(&ring, 4, 256);
    let coordinator = Arc::new(Coordinator::new(mapping.clone(), BalancerConfig::default()));
    let registry = InProcRegistry::new();
    let singles = Arc::new(AtomicUsize::new(0));
    let batches = Arc::new(AtomicUsize::new(0));
    let mut routes = HashMap::new();
    let mut servers = Vec::new();
    for s in 0..2u16 {
        let server = Server::spawn(
            ServerConfig::new(ServerId(s), 2, 64 << 20).cachelets_per_worker(4),
            &mapping,
            &registry,
            Arc::clone(&coordinator),
            Arc::new(RealClock::new()),
        );
        let relayed: Vec<_> = server
            .worker_mailboxes()
            .into_iter()
            .map(|(addr, real)| {
                let tx = Mailbox::<WorkerMsg>::new();
                let rx = tx.clone();
                let singles = Arc::clone(&singles);
                let batches = Arc::clone(&batches);
                std::thread::spawn(move || {
                    while let Some(msg) = rx.recv() {
                        match &msg {
                            WorkerMsg::Rpc { .. } => {
                                singles.fetch_add(1, Ordering::SeqCst);
                            }
                            WorkerMsg::RpcBatch { .. } => {
                                batches.fetch_add(1, Ordering::SeqCst);
                            }
                            // The event-loop backend tags every enqueue;
                            // a pipelined envelope shows up as one
                            // multi-request message.
                            WorkerMsg::RpcTagged { reqs, .. } => {
                                if reqs.len() > 1 {
                                    batches.fetch_add(1, Ordering::SeqCst);
                                } else {
                                    singles.fetch_add(1, Ordering::SeqCst);
                                }
                            }
                            WorkerMsg::Control(_) => {}
                        }
                        if real.send(msg).is_err() {
                            break;
                        }
                    }
                });
                (addr, tx)
            })
            .collect();
        let bound = serve_tcp(&relayed, "127.0.0.1", 0).expect("bind");
        routes.extend(bound);
        servers.push(server);
    }
    let transport = TcpTransport::new(routes);
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
    singles.store(0, Ordering::SeqCst);
    batches.store(0, Ordering::SeqCst);

    let got = client.multi_get(&keys).expect("multi_get over tcp");
    assert!(got.iter().all(|v| v.is_some()), "all 64 keys must hit");

    let homes: std::collections::HashSet<WorkerAddr> = keys
        .iter()
        .map(|k| mapping.route(k).expect("routed").1)
        .collect();
    assert_eq!(
        batches.load(Ordering::SeqCst),
        homes.len(),
        "one pipelined batch per home worker"
    );
    assert_eq!(
        singles.load(Ordering::SeqCst),
        0,
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
