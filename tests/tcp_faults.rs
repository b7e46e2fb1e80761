//! TCP transport under failure: connections dying mid-`Batch`, and the
//! seeded [`FaultInjector`] composed over the real TCP stack — the
//! injector is transport-agnostic, so the same `FaultPlan` that drives
//! the in-proc chaos suite drives a socket-backed cluster here.

use mbal::balancer::coordinator::Coordinator;
use mbal::balancer::BalancerConfig;
use mbal::client::{Client, SetOptions};
use mbal::core::clock::RealClock;
use mbal::core::types::{CacheletId, ServerId, WorkerAddr};
use mbal::proto::codec::{self, opcode_of, HEADER_LEN};
use mbal::proto::{Request, Response};
use mbal::ring::{ConsistentRing, MappingTable};
use mbal::server::tcp::{serve_tcp, TcpTransport};
use mbal::server::{
    FaultInjector, FaultPlan, InProcRegistry, Server, ServerConfig, Transport, TransportError,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reads one length-framed protocol frame (test-side peer).
fn read_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header).ok()?;
    let total = codec::frame_len(&header)?;
    let mut frame = vec![0u8; total];
    frame[..HEADER_LEN].copy_from_slice(&header);
    stream.read_exact(&mut frame[HEADER_LEN..]).ok()?;
    Some(frame)
}

/// A scripted worker endpoint: the first accepted connection answers
/// only `answer_first` sub-requests of its batch and then closes the
/// stream mid-batch; every later connection serves batches fully and
/// keeps the connection open. Returns the socket address and an accept
/// counter.
fn scripted_endpoint(answer_first: usize) -> (std::net::SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let sock = listener.local_addr().expect("addr");
    let accepts = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&accepts);
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { return };
            let nth = counter.fetch_add(1, Ordering::SeqCst);
            std::thread::spawn(move || loop {
                let Some(frame) = read_frame(&mut conn) else {
                    return;
                };
                let subs = codec::decode_batch_request(&frame).expect("batch frame");
                let keep = if nth == 0 { answer_first } else { subs.len() };
                for (req, opaque) in subs.into_iter().take(keep) {
                    let bytes = codec::encode_response(&Response::Stored, opcode_of(&req), opaque)
                        .expect("encode");
                    conn.write_all(&bytes).expect("write");
                }
                if nth == 0 {
                    // Close mid-batch: the remaining responses never come.
                    return;
                }
            });
        }
    });
    (sock, accepts)
}

#[test]
fn tcp_connection_dying_mid_batch_degrades_to_per_op_errors() {
    let (sock, accepts) = scripted_endpoint(2);
    let worker = WorkerAddr::new(0, 0);
    let transport = TcpTransport::new([(worker, sock)].into_iter().collect());
    let reqs: Vec<Request> = (0..6)
        .map(|i| Request::Set {
            cachelet: CacheletId(0),
            key: format!("k{i}").into_bytes(),
            value: b"v".to_vec().into(),
            expiry_ms: 0,
        })
        .collect();

    let started = Instant::now();
    let out = transport.call_many(worker, reqs.clone(), Duration::from_secs(5));
    let elapsed = started.elapsed();

    // Per-operation outcomes, no panic, and a prompt return — the two
    // answered slots succeed, the rest fail with Broken, and nothing
    // waits out the full deadline.
    assert_eq!(out.len(), 6);
    assert_eq!(out[0], Ok(Response::Stored));
    assert_eq!(out[1], Ok(Response::Stored));
    for r in &out[2..] {
        assert!(matches!(r, Err(TransportError::Broken(_))), "got {r:?}");
    }
    assert!(
        elapsed < Duration::from_secs(4),
        "mid-batch death must not hang until the deadline: took {elapsed:?}"
    );

    // The poisoned connection was discarded, not pooled: the next batch
    // dials a fresh connection (second accept) and completes fully.
    let out2 = transport.call_many(worker, reqs, Duration::from_secs(5));
    assert!(out2.iter().all(|r| r == &Ok(Response::Stored)), "{out2:?}");
    assert_eq!(
        accepts.load(Ordering::SeqCst),
        2,
        "retry after a mid-batch death must use a fresh connection"
    );
}

/// An endpoint whose `i`-th connection answers every request with
/// `replies[i]`, and whose later connections answer with a well-formed
/// `NotFound`. Each connection stays open until the client closes it, so
/// a client that waits on a hostile reply waits for its deadline.
fn hostile_endpoint(replies: Vec<Vec<u8>>) -> (std::net::SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let sock = listener.local_addr().expect("addr");
    let accepts = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&accepts);
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut conn) = conn else { return };
            let nth = counter.fetch_add(1, Ordering::SeqCst);
            let reply = replies.get(nth).cloned();
            std::thread::spawn(move || {
                while let Some(frame) = read_frame(&mut conn) {
                    let (req, opaque) = codec::decode_request(&frame).expect("request frame");
                    let bytes = reply.clone().unwrap_or_else(|| {
                        codec::encode_response(&Response::NotFound, opcode_of(&req), opaque)
                            .expect("encode")
                    });
                    if conn.write_all(&bytes).is_err() {
                        return;
                    }
                }
            });
        }
    });
    (sock, accepts)
}

#[test]
fn a_hostile_response_header_breaks_the_call_and_its_connection() {
    let bad_magic = vec![0x55u8; HEADER_LEN];
    let mut too_large = vec![0u8; HEADER_LEN];
    too_large[0] = codec::MAGIC_RESPONSE;
    too_large[8..12].copy_from_slice(&(codec::MAX_FRAME_LEN as u32).to_be_bytes());
    let (sock, accepts) = hostile_endpoint(vec![bad_magic, too_large]);
    let worker = WorkerAddr::new(0, 0);
    let transport = TcpTransport::new([(worker, sock)].into_iter().collect());
    let get = Request::Get {
        cachelet: CacheletId(0),
        key: b"k".to_vec(),
    };
    let budget = Duration::from_secs(5);

    for (nth, header) in ["bad magic", "over-cap length"].into_iter().enumerate() {
        let started = Instant::now();
        let res = transport.call_with_deadline(worker, get.clone(), budget);
        assert!(
            matches!(res, Err(TransportError::Broken(_))),
            "{header}: got {res:?}"
        );
        assert!(
            started.elapsed() < budget,
            "{header}: the header alone must fail the call, not the deadline"
        );
        assert_eq!(
            accepts.load(Ordering::SeqCst),
            nth + 1,
            "{header}: each call dials anew, so no broken connection was pooled"
        );
    }
    // The third connection is well-behaved, and the call goes through.
    assert_eq!(
        transport.call_with_deadline(worker, get, budget),
        Ok(Response::NotFound)
    );
    assert_eq!(accepts.load(Ordering::SeqCst), 3);
}

fn build_cluster(
    n_servers: u16,
    workers: u16,
) -> (Vec<Server>, Arc<Coordinator>, Arc<TcpTransport>) {
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
fn fault_injector_composes_over_tcp() {
    let (mut servers, coordinator, tcp) = build_cluster(1, 2);
    // Drop the first three frames, then behave: the client's budgeted
    // retries must ride through without any application-level error.
    let plan = FaultPlan::drops(0xface, 1.0).with_max_faults(3);
    let injector = FaultInjector::new(Arc::clone(&tcp) as Arc<dyn Transport>, plan);
    let mut client = Client::builder(
        Arc::clone(&injector) as Arc<dyn Transport>,
        Arc::clone(&coordinator) as Arc<dyn mbal::client::CoordinatorLink>,
    )
    .build();

    client
        .set_opts(b"tf:key", b"value", SetOptions::new())
        .expect("set rides out drops");
    assert_eq!(
        client.get(b"tf:key").expect("get over tcp"),
        Some(b"value".to_vec().into())
    );
    assert_eq!(injector.injected(), 3, "exactly the budgeted drops fired");
    assert_eq!(
        client.stats().transport_retries,
        3,
        "each dropped frame must surface as one budgeted retry"
    );

    // The schedule is replayable from the printed seed even over TCP.
    assert_eq!(injector.seed(), 0xface);
    assert_eq!(injector.schedule().len(), 3);

    for s in &mut servers {
        s.shutdown();
    }
}

#[test]
fn dead_endpoint_fails_fast_over_tcp() {
    let (mut servers, _coordinator, tcp) = build_cluster(1, 2);
    let dead = WorkerAddr::new(0, 1);
    let plan = FaultPlan::none(1).with_dead_endpoint(dead);
    let injector = FaultInjector::new(Arc::clone(&tcp) as Arc<dyn Transport>, plan);

    let started = Instant::now();
    let res = injector.call(dead, Request::Stats { reset: false });
    assert_eq!(res, Err(TransportError::Unreachable(dead)));
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "a dead endpoint must short-circuit, not burn the deadline"
    );
    // The live sibling still answers through the same injector.
    let ok = injector.call(WorkerAddr::new(0, 0), Request::Stats { reset: false });
    assert!(ok.is_ok(), "live endpoint failed: {ok:?}");

    for s in &mut servers {
        s.shutdown();
    }
}

/// A peer that writes one request and shuts down its write side, so the
/// request bytes and the FIN can arrive in one readable event, still
/// gets its answer before the server closes.
#[test]
fn a_request_followed_by_a_half_close_is_answered() {
    let mut ring = ConsistentRing::new();
    ring.add_worker(WorkerAddr::new(0, 0));
    let mapping = MappingTable::build(&ring, 4, 256);
    let coordinator = Arc::new(Coordinator::new(mapping.clone(), BalancerConfig::default()));
    let mut server = Server::spawn(
        ServerConfig::new(ServerId(0), 1, 64 << 20).cachelets_per_worker(4),
        &mapping,
        &InProcRegistry::new(),
        coordinator,
        Arc::new(RealClock::new()),
    );
    let sock = serve_tcp(&server.worker_mailboxes(), "127.0.0.1", 0).expect("bind")[0].1;
    let frame = codec::encode_request(&Request::Stats { reset: false }, 7).expect("encode");
    for attempt in 0..20 {
        let mut stream = TcpStream::connect(sock).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        stream.write_all(&frame).expect("write request");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut answers = 0;
        while let Some(resp) = read_frame(&mut stream) {
            let (resp, _, opaque) = codec::decode_response(&resp).expect("response frame");
            assert!(matches!(resp, Response::StatsBlob { .. }), "got {resp:?}");
            assert_eq!(opaque, 7);
            answers += 1;
        }
        assert_eq!(answers, 1, "attempt {attempt}: one answer, then EOF");
    }
    server.shutdown();
}
