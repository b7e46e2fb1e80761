//! Direct tests of the worker event loop's RPC semantics: ownership
//! checks, forwarding, the replica table, MultiGET, migration rules
//! (Write-Invalidate), epoch reports and sampling backoff.

use crossbeam_channel::bounded;
use mbal_core::clock::ManualClock;
use mbal_core::engine::EngineKind;
use mbal_core::hotkey::HotKeyConfig;
use mbal_core::mem::{GlobalPool, MemConfig};
use mbal_core::types::{CacheletId, Value, WorkerAddr, WorkerId};
use mbal_proto::{Request, Response, Status};
use mbal_server::mailbox::Mailbox;
use mbal_server::messages::{EpochReport, WorkerMsg};
use mbal_server::transport::{InProcRegistry, Transport, TransportError};
use mbal_server::unit::CacheUnit;
use mbal_server::worker::{spawn_worker, Worker, WorkerCell, WorkerContext};
use mbal_telemetry::{Counter, MetricsShard, StatsReport};
use std::sync::Arc;

struct Fixture {
    cell: Arc<WorkerCell>,
    clock: ManualClock,
    registry: Arc<InProcRegistry>,
    _join: std::thread::JoinHandle<()>,
}

fn fixture(addr: WorkerAddr, cachelets: &[u32]) -> Fixture {
    fixture_with_engine(addr, cachelets, EngineKind::from_env())
}

fn fixture_with_engine(addr: WorkerAddr, cachelets: &[u32], engine: EngineKind) -> Fixture {
    fixture_with(addr, cachelets, engine, 16 << 20, None)
}

/// A worker over a global pool of `mem` bytes in 64 KiB chunks (local
/// pools keep up to 4 MiB free). With a `gate`, every unit the worker
/// creates for itself first waits for one message on it, which holds
/// the worker busy.
fn fixture_with(
    addr: WorkerAddr,
    cachelets: &[u32],
    engine: EngineKind,
    mem_bytes: usize,
    gate: Option<std::sync::mpsc::Receiver<()>>,
) -> Fixture {
    let registry = InProcRegistry::new();
    let clock = ManualClock::new();
    let mem = {
        let mut m = MemConfig::with_capacity(mem_bytes);
        m.chunk_size = 1 << 16;
        m
    };
    let global = Arc::new(GlobalPool::new(mem_bytes, 1 << 16, 1));
    let factory_mem = mem.clone();
    let factory_global = Arc::clone(&global);
    let ctx = WorkerContext {
        addr,
        transport: Arc::clone(&registry) as Arc<dyn mbal_server::Transport>,
        clock: Arc::new(clock.clone()),
        hotkey: HotKeyConfig {
            sample_rate: 1.0,
            ..HotKeyConfig::default()
        },
        load_capacity: 10_000.0,
        mem_capacity: mem_bytes as u64,
        sync_replication: true,
        metrics: Arc::new(MetricsShard::new()),
        unit_factory: Box::new(move |id| {
            if let Some(gate) = &gate {
                let _ = gate.recv();
            }
            CacheUnit::with_engine_kind(
                engine,
                id,
                Arc::clone(&factory_global),
                &factory_mem,
                0,
                mem_bytes,
            )
        }),
        tenants: mbal_tenant::TenantDirectory::new(),
    };
    let (cell, join) = spawn_worker(ctx);
    registry.register(addr, Arc::clone(&cell));
    let f = Fixture {
        cell,
        clock,
        registry,
        _join: join,
    };
    for &c in cachelets {
        let unit = Box::new(CacheUnit::with_engine_kind(
            engine,
            CacheletId(c),
            Arc::clone(&global),
            &mem,
            0,
            mem_bytes,
        ));
        f.ask(|w| w.adopt(unit, None));
    }
    f
}

/// Sends `reqs` through `cell`'s mailbox as one RPC and waits for the
/// responses.
fn rpc_many(cell: &WorkerCell, reqs: Vec<Request>) -> Vec<Response> {
    let (rtx, rrx) = bounded(1);
    let done = Box::new(move |resps| {
        let _ = rtx.send(resps);
    });
    cell.mailbox()
        .send(WorkerMsg::Rpc { reqs, done })
        .expect("send");
    rrx.recv().expect("reply")
}

/// [`rpc_many`] for one request.
fn rpc(cell: &WorkerCell, req: Request) -> Response {
    let mut resps = rpc_many(cell, vec![req]);
    assert_eq!(resps.len(), 1, "one response per request");
    resps.pop().expect("one response")
}

impl Fixture {
    fn rpc(&self, req: Request) -> Response {
        rpc(&self.cell, req)
    }

    fn ask<R: Send + 'static>(&self, step: impl FnOnce(&mut Worker) -> R + Send + 'static) -> R {
        self.cell.ask(step).expect("worker is running")
    }

    fn epoch(&self) -> EpochReport {
        self.ask(|w| w.end_epoch(1.0))
    }

    fn shutdown(&self) {
        self.cell.mailbox().send(WorkerMsg::Shutdown).expect("send");
    }
}

fn set(f: &Fixture, c: u32, key: &[u8], value: &[u8]) -> Response {
    f.rpc(Request::Set {
        cachelet: CacheletId(c),
        key: key.to_vec(),
        value: Value::copy_from_slice(value),
        expiry_ms: 0,
    })
}

fn get(f: &Fixture, c: u32, key: &[u8]) -> Response {
    f.rpc(Request::Get {
        cachelet: CacheletId(c),
        key: key.to_vec(),
    })
}

#[test]
fn ownership_is_enforced() {
    let f = fixture(WorkerAddr::new(0, 0), &[1, 2]);
    assert_eq!(set(&f, 1, b"k", b"v"), Response::Stored);
    assert_eq!(
        get(&f, 1, b"k"),
        Response::Value {
            value: b"v".to_vec().into(),
            replicas: vec![]
        }
    );
    // Unowned cachelet with no forwarding info → NotOwner failure.
    match get(&f, 9, b"k") {
        Response::Fail { status, .. } => assert_eq!(status, Status::NotOwner),
        other => panic!("expected NotOwner, got {other:?}"),
    }
    f.shutdown();
}

#[test]
fn release_leaves_forwarding_breadcrumb() {
    let f = fixture(WorkerAddr::new(0, 0), &[1]);
    set(&f, 1, b"k", b"v");
    let unit = f
        .ask(|w| w.release(CacheletId(1), WorkerAddr::new(0, 1)))
        .expect("owned");
    assert_eq!(unit.id(), CacheletId(1));
    // Requests now redirect to the new owner.
    assert_eq!(
        get(&f, 1, b"k"),
        Response::Moved {
            cachelet: CacheletId(1),
            new_owner: WorkerAddr::new(0, 1)
        }
    );
    f.shutdown();
}

#[test]
fn multiget_returns_positional_hits() {
    let f = fixture(WorkerAddr::new(0, 0), &[1, 2]);
    set(&f, 1, b"a", b"1");
    set(&f, 2, b"b", b"2");
    let resp = f.rpc(Request::MultiGet {
        keys: vec![
            (CacheletId(1), b"a".to_vec()),
            (CacheletId(2), b"missing".to_vec()),
            (CacheletId(2), b"b".to_vec()),
            (CacheletId(7), b"not-owned".to_vec()),
        ],
    });
    assert_eq!(
        resp,
        Response::Values {
            values: vec![
                Some(b"1".to_vec().into()),
                None,
                Some(b"2".to_vec().into()),
                None
            ]
        }
    );
    f.shutdown();
}

#[test]
fn replica_table_lifecycle_via_rpc() {
    let f = fixture(WorkerAddr::new(0, 0), &[1]);
    f.clock.advance(1_000_000); // 1 s
    assert_eq!(
        f.rpc(Request::ReplicaInstall {
            key: b"hot".to_vec(),
            value: b"v1".to_vec().into(),
            lease_expiry_ms: 5_000,
        }),
        Response::Stored
    );
    assert_eq!(
        f.rpc(Request::ReplicaRead {
            key: b"hot".to_vec()
        }),
        Response::Value {
            value: b"v1".to_vec().into(),
            replicas: vec![]
        }
    );
    assert_eq!(
        f.rpc(Request::ReplicaUpdate {
            key: b"hot".to_vec(),
            value: b"v2".to_vec().into(),
        }),
        Response::Stored
    );
    assert_eq!(
        f.rpc(Request::ReplicaRead {
            key: b"hot".to_vec()
        }),
        Response::Value {
            value: b"v2".to_vec().into(),
            replicas: vec![]
        }
    );
    // Lease expiry retires the replica.
    f.clock.advance(10_000_000);
    assert_eq!(
        f.rpc(Request::ReplicaRead {
            key: b"hot".to_vec()
        }),
        Response::NotFound
    );
    // Updating a missing replica reports NotFound (home resyncs).
    assert_eq!(
        f.rpc(Request::ReplicaUpdate {
            key: b"hot".to_vec(),
            value: b"v3".to_vec().into(),
        }),
        Response::NotFound
    );
    f.shutdown();
}

#[test]
fn get_piggybacks_replica_locations() {
    let f = fixture(WorkerAddr::new(0, 0), &[1]);
    set(&f, 1, b"hot", b"v");
    f.cell.tell(|w| {
        w.set_replicated(
            b"hot".to_vec(),
            vec![WorkerAddr::new(1, 0), WorkerAddr::new(2, 1)],
        )
    });
    assert_eq!(
        get(&f, 1, b"hot"),
        Response::Value {
            value: b"v".to_vec().into(),
            replicas: vec![WorkerAddr::new(1, 0), WorkerAddr::new(2, 1)]
        }
    );
    f.cell.tell(|w| w.unset_replicated(b"hot"));
    assert_eq!(
        get(&f, 1, b"hot"),
        Response::Value {
            value: b"v".to_vec().into(),
            replicas: vec![]
        }
    );
    f.shutdown();
}

#[test]
fn writes_propagate_to_shadow_synchronously() {
    // Two workers on the registry: home (0,0) and shadow (1,0).
    let home = fixture(WorkerAddr::new(0, 0), &[1]);
    // Spawn the shadow worker sharing home's registry.
    let mem = {
        let mut m = MemConfig::with_capacity(4 << 20);
        m.chunk_size = 1 << 16;
        m
    };
    let global = Arc::new(GlobalPool::new(4 << 20, 1 << 16, 1));
    let ctx = WorkerContext {
        addr: WorkerAddr::new(1, 0),
        transport: Arc::clone(&home.registry) as Arc<dyn mbal_server::Transport>,
        clock: Arc::new(home.clock.clone()),
        hotkey: HotKeyConfig::default(),
        load_capacity: 10_000.0,
        mem_capacity: 4 << 20,
        sync_replication: true,
        metrics: Arc::new(MetricsShard::new()),
        unit_factory: Box::new(move |id| CacheUnit::new(id, Arc::clone(&global), &mem, 0)),
        tenants: mbal_tenant::TenantDirectory::new(),
    };
    let (shadow, _join) = spawn_worker(ctx);
    home.registry
        .register(WorkerAddr::new(1, 0), Arc::clone(&shadow));

    set(&home, 1, b"hot", b"v1");
    // Install the replica at the shadow and tell home about it.
    rpc(
        &shadow,
        Request::ReplicaInstall {
            key: b"hot".to_vec(),
            value: b"v1".to_vec().into(),
            lease_expiry_ms: u64::MAX,
        },
    );
    home.cell
        .tell(|w| w.set_replicated(b"hot".to_vec(), vec![WorkerAddr::new(1, 0)]));

    // A write at home must synchronously update the shadow.
    assert_eq!(set(&home, 1, b"hot", b"v2"), Response::Stored);
    assert_eq!(
        rpc(
            &shadow,
            Request::ReplicaRead {
                key: b"hot".to_vec(),
            }
        ),
        Response::Value {
            value: b"v2".to_vec().into(),
            replicas: vec![]
        }
    );
    home.shutdown();
}

#[test]
fn migration_write_invalidate_rules() {
    let f = fixture(WorkerAddr::new(0, 0), &[1]);
    for i in 0..200u32 {
        set(&f, 1, format!("k{i}").as_bytes(), b"v");
    }
    let dest = WorkerAddr::new(1, 0);
    // Register a sink for the cast invalidations the source sends.
    f.registry
        .register(dest, WorkerCell::detached(Mailbox::new()));
    assert!(f.ask(move |w| w.begin_migration(CacheletId(1), dest)));
    // Drain roughly half the buckets.
    let mut drained = 0usize;
    while let Some(batch) = f.ask(|w| w.drain_bucket(CacheletId(1))) {
        drained += batch.len();
        if drained >= 100 {
            break;
        }
    }
    assert!(drained >= 100);
    // Now probe every key: drained keys answer Moved, undrained serve.
    let mut moved = 0;
    let mut served = 0;
    for i in 0..200u32 {
        match get(&f, 1, format!("k{i}").as_bytes()) {
            Response::Moved { new_owner, .. } => {
                assert_eq!(new_owner, dest);
                moved += 1;
            }
            Response::Value { .. } => served += 1,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(moved + served, 200);
    assert!(moved > 0, "no keys reported migrated");
    assert!(served > 0, "source stopped serving undrained buckets");
    // Writes to migrated keys redirect too (invalidation is cast).
    let mut write_moved = false;
    for i in 0..200u32 {
        if let Response::Moved { .. } = set(&f, 1, format!("k{i}").as_bytes(), b"v2") {
            write_moved = true;
            break;
        }
    }
    assert!(write_moved, "writes to migrated keys must redirect");
    f.shutdown();
}

#[test]
fn seg_engine_whole_segment_expiry_reaches_stats_report() {
    let f = fixture_with_engine(WorkerAddr::new(0, 0), &[1], EngineKind::Seg);
    for i in 0..40u32 {
        // One TTL cohort, all expired by t = 6 s.
        let r = f.rpc(Request::Set {
            cachelet: CacheletId(1),
            key: format!("ttl{i}").as_bytes().to_vec(),
            value: vec![7u8; 50].into(),
            expiry_ms: 5_000 + u64::from(i),
        });
        assert_eq!(r, Response::Stored);
    }
    // Advance past every expiry; the per-epoch maintenance pass must
    // reclaim the whole cohort and surface it through the report.
    f.clock.advance(10_000_000);
    let report = f.epoch();
    assert_eq!(report.load.metrics.get(Counter::Expirations), 40);
    assert_eq!(report.load.metrics.get(Counter::ExpiredBytes), 40 * 50);
    assert!(
        report.load.metrics.get(Counter::SegmentsExpired) >= 1,
        "whole-segment reclamation must be visible"
    );
    // Expired keys read as misses afterwards.
    assert_eq!(get(&f, 1, b"ttl0"), Response::NotFound);
    f.shutdown();
}

#[test]
fn slab_engine_lazy_expiry_reaches_stats_report() {
    let f = fixture_with_engine(WorkerAddr::new(0, 0), &[1], EngineKind::SlabLru);
    let r = f.rpc(Request::Set {
        cachelet: CacheletId(1),
        key: b"soon".to_vec(),
        value: vec![9u8; 33].into(),
        expiry_ms: 1_000,
    });
    assert_eq!(r, Response::Stored);
    f.clock.advance(2_000_000);
    // A lookup finds the entry expired: the value bytes must be freed
    // and the expiry counted — the lazy-expiry leak fix.
    assert_eq!(get(&f, 1, b"soon"), Response::NotFound);
    let report = f.epoch();
    assert_eq!(report.load.metrics.get(Counter::Expirations), 1);
    assert_eq!(report.load.metrics.get(Counter::ExpiredBytes), 33);
    f.shutdown();
}

#[test]
fn epoch_report_counts_and_backoff() {
    let f = fixture(WorkerAddr::new(0, 0), &[1, 2]);
    for i in 0..100u32 {
        set(&f, 1, format!("k{i}").as_bytes(), b"v");
    }
    for _ in 0..50 {
        get(&f, 1, b"k1");
    }
    get(&f, 1, b"missing");
    let report = f.epoch();
    assert_eq!(report.load.addr, WorkerAddr::new(0, 0));
    assert_eq!(report.load.cachelets.len(), 2);
    assert_eq!(report.load.metrics.get(Counter::Ops), 151);
    assert_eq!(report.load.metrics.get(Counter::Gets), 51);
    assert_eq!(report.load.metrics.get(Counter::GetHits), 50);
    // Full-sampling tracker saw the hammered key.
    assert!(
        report.hot_keys.iter().any(|h| h.key == b"k1"),
        "k1 missing from hot keys: {:?}",
        report.hot_keys.len()
    );
    // Backoff quarters the sampling rate; just verify the control is
    // accepted and the loop stays alive.
    f.cell.tell(|w| w.set_sampling_backoff(4));
    assert_eq!(set(&f, 2, b"x", b"y"), Response::Stored);
    f.shutdown();
}

#[test]
fn stats_rpc_returns_parseable_load() {
    let f = fixture(WorkerAddr::new(0, 3), &[5]);
    set(&f, 5, b"k", b"v");
    let Response::StatsBlob { payload } = f.rpc(Request::Stats { reset: false }) else {
        panic!("expected blob");
    };
    let report: StatsReport = serde_json::from_slice(&payload).expect("json");
    assert_eq!(report.load.addr, WorkerAddr::new(0, 3));
    assert_eq!(report.load.cachelets.len(), 1);
    assert_eq!(report.load.addr.worker, WorkerId(3));
    assert_eq!(report.load.metrics.get(Counter::Sets), 1);
    assert_eq!(report.write_latency.count, 1);
    f.shutdown();
}

#[test]
fn stats_reset_clears_counters_but_keeps_gauges() {
    let f = fixture(WorkerAddr::new(0, 0), &[1]);
    set(&f, 1, b"k", b"v");
    get(&f, 1, b"k");
    let Response::StatsBlob { payload } = f.rpc(Request::Stats { reset: true }) else {
        panic!("expected blob");
    };
    let report: StatsReport = serde_json::from_slice(&payload).expect("json");
    assert_eq!(report.load.metrics.get(Counter::Sets), 1);
    assert_eq!(report.load.metrics.get(Counter::Gets), 1);
    // The reset happened after the snapshot: a fresh dump starts over.
    let Response::StatsBlob { payload } = f.rpc(Request::Stats { reset: false }) else {
        panic!("expected blob");
    };
    let report: StatsReport = serde_json::from_slice(&payload).expect("json");
    assert_eq!(report.load.metrics.get(Counter::Sets), 0);
    assert_eq!(report.load.metrics.get(Counter::Gets), 0);
    assert_eq!(report.read_latency.count, 0);
    // Gauges describe current state and survive the reset.
    assert_eq!(
        report
            .load
            .metrics
            .gauge(mbal_telemetry::Gauge::CacheletsOwned),
        1
    );
    f.shutdown();
}

#[test]
fn heartbeat_is_rejected_at_workers() {
    let f = fixture(WorkerAddr::new(0, 0), &[]);
    match f.rpc(Request::Heartbeat { version: 1 }) {
        Response::Fail { status, .. } => assert_eq!(status, Status::Error),
        other => panic!("unexpected {other:?}"),
    }
    f.shutdown();
}

#[test]
fn extended_write_ops_redirect_on_migrated_buckets() {
    let f = fixture(WorkerAddr::new(0, 0), &[1]);
    for i in 0..200u32 {
        set(&f, 1, format!("k{i}").as_bytes(), b"10");
    }
    let dest = WorkerAddr::new(1, 0);
    f.registry
        .register(dest, WorkerCell::detached(Mailbox::new()));
    assert!(f.ask(move |w| w.begin_migration(CacheletId(1), dest)));
    // Drain everything: every key now reports migrated.
    loop {
        if f.ask(|w| w.drain_bucket(CacheletId(1))).is_none() {
            break;
        }
    }
    // Every write-family op on a migrated key must redirect, not apply.
    let key = b"k0".to_vec();
    let ops: Vec<Request> = vec![
        Request::Add {
            cachelet: CacheletId(1),
            key: key.clone(),
            value: b"x".to_vec().into(),
            expiry_ms: 0,
        },
        Request::Replace {
            cachelet: CacheletId(1),
            key: key.clone(),
            value: b"x".to_vec().into(),
            expiry_ms: 0,
        },
        Request::Concat {
            cachelet: CacheletId(1),
            key: key.clone(),
            value: b"x".to_vec().into(),
            front: false,
        },
        Request::Incr {
            cachelet: CacheletId(1),
            key: key.clone(),
            delta: 1,
        },
        Request::Touch {
            cachelet: CacheletId(1),
            key: key.clone(),
            expiry_ms: 99,
        },
    ];
    for req in ops {
        match f.rpc(req.clone()) {
            Response::Moved { new_owner, .. } => assert_eq!(new_owner, dest),
            other => panic!("{req:?} did not redirect: {other:?}"),
        }
    }
    f.shutdown();
}

#[test]
fn extended_ops_respect_ownership() {
    let f = fixture(WorkerAddr::new(0, 0), &[1]);
    match f.rpc(Request::Incr {
        cachelet: CacheletId(9),
        key: b"n".to_vec(),
        delta: 1,
    }) {
        Response::Fail { status, .. } => assert_eq!(status, Status::NotOwner),
        other => panic!("unexpected {other:?}"),
    }
    // Status mapping for incr on non-numeric data.
    set(&f, 1, b"text", b"abc");
    match f.rpc(Request::Incr {
        cachelet: CacheletId(1),
        key: b"text".to_vec(),
        delta: 1,
    }) {
        Response::Fail { status, .. } => assert_eq!(status, Status::NotNumeric),
        other => panic!("unexpected {other:?}"),
    }
    f.shutdown();
}

#[test]
fn concat_propagates_full_value_to_replicas() {
    // Home (0,0) + shadow (1,0) sharing the registry: after an append on
    // a replicated key, the shadow must hold the *combined* value.
    let home = fixture(WorkerAddr::new(0, 0), &[1]);
    let mem = {
        let mut m = MemConfig::with_capacity(4 << 20);
        m.chunk_size = 1 << 16;
        m
    };
    let global = Arc::new(GlobalPool::new(4 << 20, 1 << 16, 1));
    let ctx = WorkerContext {
        addr: WorkerAddr::new(1, 0),
        transport: Arc::clone(&home.registry) as Arc<dyn mbal_server::Transport>,
        clock: Arc::new(home.clock.clone()),
        hotkey: HotKeyConfig::default(),
        load_capacity: 10_000.0,
        mem_capacity: 4 << 20,
        sync_replication: true,
        metrics: Arc::new(MetricsShard::new()),
        unit_factory: Box::new(move |id| CacheUnit::new(id, Arc::clone(&global), &mem, 0)),
        tenants: mbal_tenant::TenantDirectory::new(),
    };
    let (shadow, _join) = spawn_worker(ctx);
    home.registry
        .register(WorkerAddr::new(1, 0), Arc::clone(&shadow));

    set(&home, 1, b"hot", b"base");
    rpc(
        &shadow,
        Request::ReplicaInstall {
            key: b"hot".to_vec(),
            value: b"base".to_vec().into(),
            lease_expiry_ms: u64::MAX,
        },
    );
    home.cell
        .tell(|w| w.set_replicated(b"hot".to_vec(), vec![WorkerAddr::new(1, 0)]));

    let resp = home.rpc(Request::Concat {
        cachelet: CacheletId(1),
        key: b"hot".to_vec(),
        value: b"+tail".to_vec().into(),
        front: false,
    });
    assert_eq!(resp, Response::Stored);
    assert_eq!(
        rpc(
            &shadow,
            Request::ReplicaRead {
                key: b"hot".to_vec(),
            }
        ),
        Response::Value {
            value: b"base+tail".to_vec().into(),
            replicas: vec![]
        }
    );
    home.shutdown();
}

#[test]
fn an_empty_unit_on_a_full_server_still_accepts_sets() {
    // 1 MiB of cache, far below the local pools' 4 MiB high watermark:
    // units never hand chunks back on their own.
    let f = fixture_with(
        WorkerAddr::new(0, 0),
        &[1, 2],
        EngineKind::SlabLru,
        1 << 20,
        None,
    );
    let value = vec![7u8; 3000];
    for i in 0..1200u32 {
        let resp = set(&f, 1 + i % 2, format!("fill{i}").as_bytes(), &value);
        assert_eq!(resp, Response::Stored, "fill {i}");
    }
    assert!(
        f.epoch().load.metrics.get(Counter::Evictions) > 0,
        "the seeded units filled the server"
    );
    // An inbound coordinated migration of an empty cachelet.
    assert_eq!(
        f.rpc(Request::MigrateEntries {
            cachelet: CacheletId(9),
            entries: vec![],
        }),
        Response::MigrateAck
    );
    assert_eq!(
        f.rpc(Request::MigrateCommit {
            cachelet: CacheletId(9)
        }),
        Response::MigrateAck
    );
    for (i, len) in [1024usize, 2500, 4096].into_iter().enumerate() {
        let key = format!("new{i}");
        assert_eq!(
            set(&f, 9, key.as_bytes(), &vec![1u8; len]),
            Response::Stored,
            "{len}-byte SET into the new unit"
        );
        assert_eq!(
            get(&f, 9, key.as_bytes()),
            Response::Value {
                value: vec![1u8; len].into(),
                replicas: vec![]
            }
        );
    }
    f.shutdown();
}

/// Serves `req` on the test thread, waiting out the moments in which
/// the worker's own thread holds its cell.
fn serve_inline(cell: &WorkerCell, req: Request) -> Response {
    let mut req = req;
    loop {
        match cell.try_serve(req) {
            Ok(resp) => return resp,
            Err(back) => {
                req = back;
                std::thread::yield_now();
            }
        }
    }
}

#[test]
fn a_cast_queued_before_an_inline_read_is_visible_to_it() {
    let f = fixture(WorkerAddr::new(0, 0), &[]);
    let addr = WorkerAddr::new(0, 0);
    let key = b"hot".to_vec();
    f.rpc(Request::ReplicaInstall {
        key: key.clone(),
        value: b"v0".to_vec().into(),
        lease_expiry_ms: u64::MAX,
    });
    for i in 1..=500u32 {
        let v = format!("v{i}").into_bytes();
        f.registry.cast(
            addr,
            Request::ReplicaUpdate {
                key: key.clone(),
                value: v.clone().into(),
            },
        );
        let read = Request::ReplicaRead { key: key.clone() };
        // An inline read may run only once the update has been served;
        // otherwise it must fall back behind the update in the mailbox.
        let resp = match f.cell.try_serve(read) {
            Ok(resp) => resp,
            Err(read) => f.registry.call(addr, read).expect("reachable"),
        };
        assert_eq!(
            resp,
            Response::Value {
                value: v.into(),
                replicas: vec![]
            },
            "round {i}"
        );
    }
    // The inline path itself must be live, or the test proves nothing.
    assert_eq!(
        serve_inline(&f.cell, Request::ReplicaRead { key }),
        Response::Value {
            value: b"v500".to_vec().into(),
            replicas: vec![]
        }
    );
    f.shutdown();
}

#[test]
fn a_busy_worker_makes_callers_queue_and_honour_their_deadline() {
    let (open, gate) = std::sync::mpsc::channel();
    let f = fixture_with(
        WorkerAddr::new(0, 0),
        &[1],
        EngineKind::SlabLru,
        16 << 20,
        Some(gate),
    );
    let addr = WorkerAddr::new(0, 0);
    set(&f, 1, b"k", b"v");
    // Promoting replicas into a cachelet the worker does not own makes
    // it build a unit, which waits at the gate: the worker is busy.
    let (rtx, rrx) = bounded(1);
    f.cell.tell(move |w| {
        let _ = rtx.send(w.promote_replicas(CacheletId(5), 64, 8));
    });
    while !f.cell.mailbox().is_empty() {
        std::thread::yield_now();
    }
    let get_k = Request::Get {
        cachelet: CacheletId(1),
        key: b"k".to_vec(),
    };
    let started = std::time::Instant::now();
    let deadline = std::time::Duration::from_millis(50);
    assert_eq!(
        f.registry.call_with_deadline(addr, get_k.clone(), deadline),
        Err(TransportError::Timeout(addr))
    );
    let waited = started.elapsed();
    assert!(waited >= deadline, "gave up early: {waited:?}");
    assert!(waited < deadline * 20, "overran its deadline: {waited:?}");
    let batch = f
        .registry
        .call_many(addr, vec![get_k.clone(), get_k.clone()], deadline);
    assert_eq!(
        batch,
        vec![
            Err(TransportError::Timeout(addr)),
            Err(TransportError::Timeout(addr))
        ]
    );
    open.send(()).expect("worker waits at the gate");
    assert_eq!(rrx.recv().expect("promotion finishes"), 0);
    assert_eq!(
        f.registry.call(addr, get_k).expect("served again"),
        Response::Value {
            value: b"v".to_vec().into(),
            replicas: vec![]
        }
    );
    f.shutdown();
}

#[test]
fn inline_calls_count_in_the_ledgers_like_mailbox_calls() {
    let f = fixture(WorkerAddr::new(0, 0), &[1]);
    set(&f, 1, b"k", b"v");
    let get_k = Request::Get {
        cachelet: CacheletId(1),
        key: b"k".to_vec(),
    };
    let ledgers = |f: &Fixture| {
        let m = f.epoch().load.metrics;
        [
            m.get(Counter::Ops),
            m.get(Counter::Gets),
            m.get(Counter::GetHits),
            m.get(Counter::BatchRpcs),
        ]
    };
    // Through the mailbox: three GETs and one batch of two.
    let before = ledgers(&f);
    for _ in 0..3 {
        f.rpc(get_k.clone());
    }
    rpc_many(&f.cell, vec![get_k.clone(), get_k.clone()]);
    let mailbox = ledgers(&f);
    // On this thread: the same traffic.
    for _ in 0..3 {
        serve_inline(&f.cell, get_k.clone());
    }
    let mut reqs = vec![get_k.clone(), get_k];
    let resps = loop {
        match f.cell.try_serve_batch(reqs) {
            Ok(resps) => break resps,
            Err(back) => {
                reqs = back;
                std::thread::yield_now();
            }
        }
    };
    assert_eq!(resps.len(), 2);
    let inline = ledgers(&f);
    for i in 0..4 {
        assert_eq!(
            inline[i] - mailbox[i],
            mailbox[i] - before[i],
            "ledger {i}: inline {inline:?} vs mailbox {mailbox:?} from {before:?}"
        );
    }
    assert_eq!(mailbox[1] - before[1], 5);
    assert_eq!(mailbox[3] - before[3], 1);
    f.shutdown();
}

#[test]
fn a_one_request_batch_is_not_a_batch_rpc() {
    let f = fixture(WorkerAddr::new(0, 0), &[1]);
    let addr = WorkerAddr::new(0, 0);
    let get_k = Request::Get {
        cachelet: CacheletId(1),
        key: b"k".to_vec(),
    };
    let batch_rpcs = |f: &Fixture| f.epoch().load.metrics.get(Counter::BatchRpcs);
    let before = batch_rpcs(&f);
    let out = f
        .registry
        .call_many(addr, vec![get_k], std::time::Duration::from_secs(5));
    assert_eq!(out, vec![Ok(Response::NotFound)]);
    assert_eq!(batch_rpcs(&f) - before, 0);
    f.shutdown();
}

#[test]
fn ask_answers_none_once_the_worker_shuts_down() {
    let (open, gate) = std::sync::mpsc::channel();
    let f = fixture_with(
        WorkerAddr::new(0, 0),
        &[],
        EngineKind::SlabLru,
        16 << 20,
        Some(gate),
    );
    // Building the promoted unit waits at the gate: the worker is busy.
    f.cell.tell(|w| {
        w.promote_replicas(CacheletId(5), 64, 8);
    });
    while !f.cell.mailbox().is_empty() {
        std::thread::yield_now();
    }
    f.shutdown();
    let cell = Arc::clone(&f.cell);
    let (answer_tx, answer) = std::sync::mpsc::channel();
    let asker = std::thread::spawn(move || {
        let _ = answer_tx.send(cell.ask(|w| w.end_epoch(1.0)).map(|_| ()));
    });
    // Shutdown and the ask are both queued behind the held step.
    while f.cell.mailbox().len() < 2 {
        std::thread::yield_now();
    }
    open.send(()).expect("worker waits at the gate");
    let waited = std::time::Duration::from_secs(5);
    assert_eq!(answer.recv_timeout(waited).expect("ask returned"), None);
    asker.join().expect("asker");
    let started = std::time::Instant::now();
    assert!(f.cell.ask(|w| w.end_epoch(1.0)).is_none());
    assert!(started.elapsed() < waited, "a second ask waited");
}

#[test]
fn a_shut_down_worker_is_unreachable_and_freed() {
    use mbal_balancer::coordinator::Coordinator;
    use mbal_balancer::BalancerConfig;
    use mbal_core::clock::RealClock;
    use mbal_core::types::ServerId;
    use mbal_ring::{ConsistentRing, MappingTable};
    use mbal_server::{Server, ServerConfig};

    let addr = WorkerAddr::new(0, 0);
    let mut ring = ConsistentRing::new();
    ring.add_worker(addr);
    let mapping = MappingTable::build(&ring, 2, 16);
    let registry = InProcRegistry::new();
    let mut server = Server::spawn(
        ServerConfig::new(ServerId(0), 1, 4 << 20).cachelets_per_worker(2),
        &mapping,
        &registry,
        Arc::new(Coordinator::new(mapping.clone(), BalancerConfig::default())),
        Arc::new(RealClock::new()),
    );
    let cachelet = mapping.cachelets_of_worker(addr)[0];
    let get_k = Request::Get {
        cachelet,
        key: b"k".to_vec(),
    };
    assert_eq!(registry.call(addr, get_k.clone()), Ok(Response::NotFound));
    let cell = Arc::downgrade(&registry.cell(addr).expect("registered"));
    let served = server.metrics_snapshot().get(Counter::Ops);
    server.shutdown();
    assert_eq!(
        registry.call(addr, get_k.clone()),
        Err(TransportError::Unreachable(addr))
    );
    assert_eq!(
        registry.call_many(addr, vec![get_k.clone()], std::time::Duration::from_secs(1)),
        vec![Err(TransportError::Unreachable(addr))]
    );
    let strong = cell.upgrade().expect("the registry still holds the cell");
    assert!(
        strong.try_serve(get_k).is_err(),
        "served by a stopped worker"
    );
    drop(strong);
    assert_eq!(server.metrics_snapshot().get(Counter::Ops), served);
    drop(server);
    drop(registry);
    assert!(
        cell.upgrade().is_none(),
        "a stopped worker's cell outlived its server and registry"
    );
}

#[test]
fn misses_in_a_cachelet_migrating_in_go_back_to_the_source_until_commit() {
    let f = fixture(WorkerAddr::new(0, 0), &[]);
    let source = WorkerAddr::new(1, 0);
    let moved_to_source = Response::Moved {
        cachelet: CacheletId(3),
        new_owner: source,
    };
    // The source announces the transfer before draining anything.
    assert_eq!(
        f.rpc(Request::MigrateAbort {
            cachelet: CacheletId(3),
            home: source,
        }),
        Response::MigrateAck
    );
    assert_eq!(get(&f, 3, b"arrived"), moved_to_source);
    let entry = |key: &[u8]| (key.to_vec(), Value::copy_from_slice(b"v"), 0);
    assert_eq!(
        f.rpc(Request::MigrateEntries {
            cachelet: CacheletId(3),
            entries: vec![entry(b"arrived")],
        }),
        Response::MigrateAck
    );
    assert_eq!(
        get(&f, 3, b"arrived"),
        Response::Value {
            value: b"v".to_vec().into(),
            replicas: vec![]
        }
    );
    let gets = f.epoch().load.metrics.get(Counter::Gets);
    assert_eq!(get(&f, 3, b"in-flight"), moved_to_source);
    assert_eq!(
        f.epoch().load.metrics.get(Counter::Gets),
        gets,
        "a redirected GET is not a served GET"
    );
    assert_eq!(
        f.rpc(Request::MigrateCommit {
            cachelet: CacheletId(3)
        }),
        Response::MigrateAck
    );
    assert_eq!(get(&f, 3, b"in-flight"), Response::NotFound);
    f.shutdown();
}

/// Follows `Moved` redirects for a GET of `key` from `first`, as a
/// client would, and stops at the first answer that is not a redirect
/// or at a redirect back to a worker already visited. Returns the last
/// answer and the workers visited, in order.
fn read_following_redirects(
    workers: &[(WorkerAddr, &Fixture)],
    first: WorkerAddr,
    key: &[u8],
) -> (Response, Vec<WorkerAddr>) {
    let mut at = first;
    let mut visited = vec![];
    loop {
        visited.push(at);
        let (_, f) = workers
            .iter()
            .find(|(a, _)| *a == at)
            .expect("redirect to a known worker");
        match get(f, 3, key) {
            Response::Moved { new_owner, .. } if !visited.contains(&new_owner) => at = new_owner,
            answer => return (answer, visited),
        }
    }
}

#[test]
fn a_read_during_a_transfer_never_bounces_for_a_key_no_end_holds() {
    let (src_addr, dst_addr) = (WorkerAddr::new(0, 0), WorkerAddr::new(1, 0));
    let src = fixture(src_addr, &[3]);
    let dst = fixture(dst_addr, &[]);
    let workers = [(src_addr, &src), (dst_addr, &dst)];
    for i in 0..200u32 {
        set(&src, 3, format!("k{i}").as_bytes(), b"v");
    }
    assert_eq!(
        dst.rpc(Request::MigrateAbort {
            cachelet: CacheletId(3),
            home: src_addr,
        }),
        Response::MigrateAck
    );
    assert!(src.ask(move |w| w.begin_migration(CacheletId(3), dst_addr)));
    // Drain every bucket and deliver all but the last batch.
    let mut batches = vec![];
    loop {
        match src.ask(|w| w.drain_bucket(CacheletId(3))) {
            Some(batch) if batch.is_empty() => {}
            Some(batch) => batches.push(batch),
            None => break,
        }
    }
    let in_flight = batches.pop().expect("a non-empty bucket");
    let delivered: Vec<Vec<u8>> = batches.iter().flatten().map(|e| e.0.clone()).collect();
    for entries in batches {
        assert_eq!(
            dst.rpc(Request::MigrateEntries {
                cachelet: CacheletId(3),
                entries,
            }),
            Response::MigrateAck
        );
    }
    // Clients follow the new mapping to the destination first.
    for i in 0..50u32 {
        let key = format!("absent{i}");
        assert_eq!(
            read_following_redirects(&workers, dst_addr, key.as_bytes()),
            (Response::NotFound, vec![dst_addr, src_addr]),
            "{key}"
        );
    }
    let value = Response::Value {
        value: b"v".to_vec().into(),
        replicas: vec![],
    };
    for key in &delivered {
        assert_eq!(
            read_following_redirects(&workers, dst_addr, key),
            (value.clone(), vec![dst_addr])
        );
    }
    // A delivered key deleted at the destination is a miss there.
    let gone = delivered[0].clone();
    assert_eq!(
        dst.rpc(Request::Delete {
            cachelet: CacheletId(3),
            key: gone.clone(),
        }),
        Response::Deleted
    );
    assert_eq!(
        read_following_redirects(&workers, dst_addr, &gone),
        (Response::NotFound, vec![dst_addr])
    );
    // Only a key in flight goes round, and only until it lands.
    let (key, _, _) = in_flight[0].clone();
    assert_eq!(
        read_following_redirects(&workers, dst_addr, &key).1,
        vec![dst_addr, src_addr],
        "an in-flight key is sent back to the destination"
    );
    assert_eq!(
        dst.rpc(Request::MigrateEntries {
            cachelet: CacheletId(3),
            entries: in_flight,
        }),
        Response::MigrateAck
    );
    assert_eq!(
        read_following_redirects(&workers, dst_addr, &key),
        (value, vec![dst_addr])
    );
    assert_eq!(
        dst.rpc(Request::MigrateCommit {
            cachelet: CacheletId(3)
        }),
        Response::MigrateAck
    );
    assert_eq!(
        read_following_redirects(&workers, dst_addr, b"absent0"),
        (Response::NotFound, vec![dst_addr])
    );
    src.shutdown();
    dst.shutdown();
}

#[test]
fn state_building_requests_are_left_to_the_worker_thread() {
    let f = fixture_with(
        WorkerAddr::new(0, 0),
        &[1],
        EngineKind::SlabLru,
        16 << 20,
        None,
    );
    let set_k = |key: &str| Request::Set {
        cachelet: CacheletId(1),
        key: key.as_bytes().to_vec(),
        value: Value::copy_from_slice(&[5u8; 300]),
        expiry_ms: 0,
    };
    // The unit holds no chunk yet: the first store would allocate one.
    assert!(f.cell.try_serve(set_k("a")).is_err());
    assert_eq!(f.rpc(set_k("a")), Response::Stored);
    // Its chunk has room for more values of that size.
    assert_eq!(serve_inline(&f.cell, set_k("b")), Response::Stored);
    let install = Request::ReplicaInstall {
        key: b"hot".to_vec(),
        value: Value::copy_from_slice(b"v"),
        lease_expiry_ms: u64::MAX,
    };
    assert!(f.cell.try_serve(install.clone()).is_err());
    assert!(f.cell.try_serve_batch(vec![set_k("c"), install]).is_err());
    f.shutdown();
}

/// Over TCP, a pipelined stream that alternates a request the worker
/// thread must serve (`ReplicaInstall`) with one an idle worker serves
/// on the event loop (`ReplicaRead`) is answered in request order, and
/// every read sees the install before it.
#[test]
fn pipelined_tcp_answers_keep_request_order_across_inline_and_mailbox_serves() {
    use mbal_proto::codec;
    use std::io::{BufWriter, Read, Write};

    const PAIRS: u32 = 10_000;
    let addr = WorkerAddr::new(0, 0);
    let f = fixture(addr, &[]);
    let bound =
        mbal_server::tcp::serve_tcp(&[(addr, Arc::clone(&f.cell))], "127.0.0.1", 0).expect("bind");
    let stream = std::net::TcpStream::connect(bound[0].1).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = stream.try_clone().expect("clone");
    reader
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout");
    let value = |i: u32| format!("v{i}").into_bytes();
    let writer = std::thread::spawn(move || {
        let mut out = BufWriter::new(stream);
        for i in 0..PAIRS {
            let key = format!("k{i}").into_bytes();
            let install = Request::ReplicaInstall {
                key: key.clone(),
                value: value(i).into(),
                lease_expiry_ms: u64::MAX,
            };
            let read = Request::ReplicaRead { key };
            for (req, opaque) in [(install, 2 * i), (read, 2 * i + 1)] {
                let frame = codec::encode_request(&req, opaque).expect("encode");
                out.write_all(&frame).expect("write");
            }
        }
        out.flush().expect("flush");
        out
    });
    for opaque in 0..2 * PAIRS {
        let mut header = [0u8; codec::HEADER_LEN];
        reader.read_exact(&mut header).expect("response header");
        let total = codec::frame_len(&header).expect("framed");
        let mut frame = vec![0u8; total];
        frame[..codec::HEADER_LEN].copy_from_slice(&header);
        reader
            .read_exact(&mut frame[codec::HEADER_LEN..])
            .expect("response body");
        let (resp, _, got) = codec::decode_response(&frame).expect("decode");
        assert_eq!(got, opaque, "answers left request order");
        let want = if opaque % 2 == 0 {
            Response::Stored
        } else {
            Response::Value {
                value: value(opaque / 2).into(),
                replicas: vec![],
            }
        };
        assert_eq!(resp, want, "answer to frame {opaque}");
    }
    drop(writer.join().expect("writer"));
    assert!(
        f.epoch().load.metrics.get(Counter::InlineRpcs) > 0,
        "no read was served inline, so the test proves nothing"
    );
    f.shutdown();
}
