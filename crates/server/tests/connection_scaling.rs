//! Connection-scaling proof for the event-loop transport: one worker
//! must sustain ≥1k concurrent idle connections while the process
//! thread count stays bounded by the worker count — no thread per
//! connection.
//!
//! This file deliberately holds a single test: it reads the
//! process-wide thread count from `/proc/self/status`, and integration
//! test files run as their own process, so no sibling test can perturb
//! the measurement.

#![cfg(target_os = "linux")]

use mbal_core::types::{Value, WorkerAddr};
use mbal_proto::{Request, Response, Status};
use mbal_server::mailbox::Mailbox;
use mbal_server::messages::WorkerMsg;
use mbal_server::tcp::serve_tcp_with;
use mbal_server::worker::WorkerCell;
use mbal_server::IoConfig;
use std::collections::HashMap;
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

/// A minimal in-memory worker speaking the mailbox protocol, behind a
/// detached cell (every batch goes through the mailbox).
fn spawn_worker() -> Arc<WorkerCell> {
    let tx = Mailbox::new();
    let rx = tx.clone();
    std::thread::spawn(move || {
        let mut map: HashMap<Vec<u8>, Value> = HashMap::new();
        let answer = |req: Request, map: &mut HashMap<Vec<u8>, Value>| match req {
            Request::Get { key, .. } => match map.get(&key) {
                Some(v) => Response::Value {
                    value: v.clone(),
                    replicas: vec![],
                },
                None => Response::NotFound,
            },
            Request::Set { key, value, .. } => {
                map.insert(key, value);
                Response::Stored
            }
            _ => Response::Fail {
                status: Status::Error,
                message: "unsupported".into(),
            },
        };
        while let Some(msg) = rx.recv() {
            if let WorkerMsg::Rpc { reqs, done } = msg {
                done(reqs.into_iter().map(|r| answer(r, &mut map)).collect());
            }
        }
    });
    WorkerCell::detached(tx)
}

#[test]
fn one_worker_sustains_1k_idle_connections_with_bounded_threads() {
    const CONNS: usize = 1_000;

    let worker = spawn_worker();
    let io = IoConfig {
        max_conns_per_worker: CONNS + 64,
        idle_timeout: None,
        ..IoConfig::default()
    };
    let bound = serve_tcp_with(&[(WorkerAddr::new(0, 0), worker)], "127.0.0.1", 0, io)
        .expect("bind event-loop listener");
    let addr = bound[0].1;

    // Threads after the transport spins up (1 loop thread), before any
    // client connects: this is the bound the event loop must hold.
    let before = thread_count();

    let mut conns: Vec<TcpStream> = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let c = TcpStream::connect(addr)
            .unwrap_or_else(|e| panic!("connect #{i} of {CONNS} failed: {e}"));
        conns.push(c);
    }

    // Prove the sockets are live sessions, not queued-and-forgotten
    // accepts: a request on the first and last connection must round-trip
    // while the other 998 sit idle on the same loop.
    let cachelet = mbal_core::types::CacheletId(0);
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
        let mut body = vec![0u8; total - hdr.len()];
        c.read_exact(&mut body).expect("response body");
    }

    let after = thread_count();
    let delta = after.saturating_sub(before);
    assert!(
        delta <= 4,
        "event loop grew {delta} threads for {CONNS} connections \
         (before={before}, after={after}) — connection handling must not \
         spawn a thread per connection"
    );
    drop(conns);
}
