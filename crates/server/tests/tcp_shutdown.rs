//! `Server::shutdown` stops TCP serving: once it returns, every served
//! port refuses connections and no worker or event-loop thread is left.
//!
//! This file holds a single test: it reads the names of this process's
//! threads from `/proc/self/task`, and integration test files run as
//! their own process, so no sibling test's server can show up there.

#![cfg(target_os = "linux")]

use mbal_balancer::coordinator::Coordinator;
use mbal_balancer::BalancerConfig;
use mbal_core::clock::RealClock;
use mbal_core::types::{ServerId, WorkerAddr};
use mbal_proto::{Request, Response};
use mbal_ring::{ConsistentRing, MappingTable};
use mbal_server::tcp::{serve_tcp, TcpTransport};
use mbal_server::{InProcRegistry, Server, ServerConfig, Transport};
use std::io::ErrorKind;
use std::net::TcpStream;
use std::sync::Arc;

/// Names of this process's threads that belong to a server.
fn server_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .filter(|name| name.starts_with("mbal-tcp-") || name.starts_with("mbal-worker-"))
        .collect()
}

#[test]
fn shutdown_closes_every_served_port_and_leaves_no_server_thread() {
    let mut ring = ConsistentRing::new();
    for w in 0..2 {
        ring.add_worker(WorkerAddr::new(0, w));
    }
    let mapping = MappingTable::build(&ring, 2, 16);
    let mut server = Server::spawn(
        ServerConfig::new(ServerId(0), 2, 4 << 20).cachelets_per_worker(2),
        &mapping,
        &InProcRegistry::new(),
        Arc::new(Coordinator::new(mapping.clone(), BalancerConfig::default())),
        Arc::new(RealClock::new()),
    );
    let bound = serve_tcp(&server.worker_mailboxes(), "127.0.0.1", 0).expect("bind");
    assert_eq!(bound.len(), 2);
    let transport = TcpTransport::new(bound.iter().copied().collect());
    for &(worker, _) in &bound {
        let get = Request::Get {
            cachelet: mapping.cachelets_of_worker(worker)[0],
            key: b"absent".to_vec(),
        };
        assert_eq!(transport.call(worker, get), Ok(Response::NotFound));
    }
    assert_eq!(server_threads().len(), 2, "{:?}", server_threads());

    server.shutdown();

    for &(worker, port) in &bound {
        let err = TcpStream::connect(port).expect_err("a stopped worker's port must refuse");
        assert_eq!(err.kind(), ErrorKind::ConnectionRefused, "worker {worker}");
    }
    assert_eq!(server_threads(), Vec::<String>::new());
}
