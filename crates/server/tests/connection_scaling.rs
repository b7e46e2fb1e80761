//! Connection-scaling proof for the event-loop transport: one worker
//! must sustain ≥1k concurrent idle connections, and serving it over
//! TCP must add no thread at all — the worker's own thread runs the
//! loop, and no connection gets a thread of its own.
//!
//! This file deliberately holds a single test: it reads the
//! process-wide thread count from `/proc/self/status`, and integration
//! test files run as their own process, so no sibling test can perturb
//! the measurement.

#![cfg(target_os = "linux")]

use mbal_balancer::coordinator::Coordinator;
use mbal_balancer::BalancerConfig;
use mbal_core::clock::RealClock;
use mbal_core::types::{ServerId, WorkerAddr};
use mbal_proto::{Request, Response};
use mbal_ring::{ConsistentRing, MappingTable};
use mbal_server::tcp::serve_tcp_with;
use mbal_server::{InProcRegistry, IoConfig, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Threads in this process, per the kernel's own books.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[test]
fn one_worker_sustains_1k_idle_connections_with_no_extra_thread() {
    const CONNS: usize = 1_000;

    let worker = WorkerAddr::new(0, 0);
    let mut ring = ConsistentRing::new();
    ring.add_worker(worker);
    let mapping = MappingTable::build(&ring, 1, 16);
    let mut server = Server::spawn(
        ServerConfig::new(ServerId(0), 1, 4 << 20).cachelets_per_worker(1),
        &mapping,
        &InProcRegistry::new(),
        Arc::new(Coordinator::new(mapping.clone(), BalancerConfig::default())),
        Arc::new(RealClock::new()),
    );
    let io = IoConfig {
        max_conns_per_worker: CONNS + 64,
        idle_timeout: None,
        ..IoConfig::default()
    };

    // Threads once the worker runs, before it serves TCP: the count
    // the event loop must hold.
    let before = thread_count();
    let bound = serve_tcp_with(&server.worker_mailboxes(), "127.0.0.1", 0, io)
        .expect("bind event-loop listener");
    let addr = bound[0].1;
    assert_eq!(
        thread_count(),
        before,
        "serving over TCP must run on the worker's own thread"
    );

    let mut conns: Vec<TcpStream> = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let c = TcpStream::connect(addr)
            .unwrap_or_else(|e| panic!("connect #{i} of {CONNS} failed: {e}"));
        conns.push(c);
    }

    // Prove the sockets are live sessions, not queued-and-forgotten
    // accepts: a request on the first and last connection must round-trip
    // while the other 998 sit idle on the same loop.
    let cachelet = mapping.cachelets_of_worker(worker)[0];
    for idx in [0, CONNS - 1] {
        let c = &mut conns[idx];
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let frame = mbal_proto::codec::encode_request(
            &Request::Set {
                cachelet,
                key: format!("conn:{idx}").into_bytes(),
                value: b"alive".to_vec().into(),
                expiry_ms: 0,
            },
            idx as u32,
        )
        .expect("encode");
        c.write_all(&frame).expect("write");
        let mut hdr = [0u8; mbal_proto::codec::HEADER_LEN];
        c.read_exact(&mut hdr).expect("response header");
        let total = mbal_proto::codec::frame_len(&hdr).expect("framed");
        let mut frame = hdr.to_vec();
        frame.resize(total, 0);
        c.read_exact(&mut frame[hdr.len()..])
            .expect("response body");
        let (resp, _, opaque) = mbal_proto::codec::decode_response(&frame).expect("decode");
        assert_eq!((resp, opaque), (Response::Stored, idx as u32));
    }

    let after = thread_count();
    assert_eq!(
        after,
        before,
        "the event loop grew {} threads for {CONNS} connections \
         — connection handling must not spawn a thread",
        after.saturating_sub(before)
    );
    drop(conns);
    server.shutdown();
}
