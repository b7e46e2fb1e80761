//! `mbal-server` — a standalone MBal cache server over TCP.
//!
//! Binds one port per worker thread starting at `--port`, prints the
//! worker→port map, and serves the Memcached-style binary protocol until
//! killed. The balancer runs on its epoch timer (Phase 2 is fully
//! functional single-node; Phases 1 and 3 need a multi-server deployment
//! wired through a shared coordinator — see the library docs).
//!
//! ```text
//! mbal-server [--workers N] [--port BASE] [--mem MB] [--cachelets N] [--epoch-ms MS]
//!             [--metrics-port P] [--tenants SPEC] [--load-cap C]
//!             [--max-conns N] [--idle-timeout-ms MS] [--membership on|off]
//! ```
//!
//! An unknown flag, a flag without a value, or a value that does not
//! parse (`--port 70000`, `--workers abc`) prints a usage error and
//! exits with status 2 before anything binds.
//!
//! `--metrics-port` (0 = disabled, the default) additionally serves the
//! per-worker counters and latency histograms in Prometheus text format
//! on `0.0.0.0:P` — scrape with `curl http://host:P/metrics`.
//!
//! `--tenants` admits tenants with per-unit memory quotas and turns on
//! multi-tenant mode. The spec is a comma list of
//! `id:reserved:ceiling` with `k`/`m`/`g` suffixes, e.g.
//! `--tenants "1:256k:1m,2:64k:512k"`. Inspect the books with
//! `mbal-cli tenants`; tag client traffic with `mbal-cli --tenant T`.
//!
//! `--load-cap C` (C > 1, e.g. `1.25`) arms the bounded-load skew
//! defense: every balance epoch, any worker carrying more than `C ×`
//! the mean worker load sheds cachelets to colder workers until it is
//! back under the ceiling, independent of the phase ladder. Shed counts
//! show up as `ring_cap_spills` in `mbal-cli stats`.
//!
//! `--membership on` opts this node into the cluster-membership
//! protocol: it heartbeats the coordinator each balance epoch and the
//! workers cache the published view, so `mbal-cli cluster-status`
//! answers (with the Table-1 cost footer) instead of reporting that no
//! view exists. Single-node it is a one-member cluster; multi-server
//! elasticity needs the shared-coordinator library deployment.
//!
//! Each worker's port is served by one nonblocking epoll loop
//! multiplexing every connection (Linux only; elsewhere the server
//! exits with an "unsupported" error). `--max-conns` caps open
//! connections per worker; `--idle-timeout-ms` reaps connections idle
//! that long (0 disables reaping). Each flag defaults to its `MBAL_*`
//! environment variable (`MBAL_MAX_CONNS_PER_WORKER`,
//! `MBAL_IDLE_TIMEOUT_MS`) when absent.

use mbal_balancer::coordinator::Coordinator;
use mbal_balancer::BalancerConfig;
use mbal_core::clock::RealClock;
use mbal_core::types::{ServerId, WorkerAddr};
use mbal_ring::{ConsistentRing, MappingTable};
use mbal_server::cli::Args;
use mbal_server::tcp::serve_tcp_with;
use mbal_server::{InProcRegistry, Server, ServerConfig};
use mbal_tenant::TenantDirectory;
use std::sync::Arc;

const USAGE: &str = "usage: mbal-server [--workers N] [--port BASE] [--mem MB] [--cachelets N] \
[--epoch-ms MS] [--metrics-port P] [--tenants SPEC] [--load-cap C] [--max-conns N] \
[--idle-timeout-ms MS] [--membership on|off]";

fn main() {
    let args = Args::parse("mbal-server", USAGE, std::env::args().skip(1));
    if let Some(arg) = args.positional.first() {
        args.usage_error(&format!("unexpected argument {arg:?}"));
    }
    let workers: u16 = args.get_or("--workers", 4);
    let port: u16 = args.get_or("--port", 11311);
    let mem_mb: usize = args.get_or("--mem", 512);
    let cachelets: usize = args.get_or("--cachelets", 16);
    let epoch_ms: u64 = args.get_or("--epoch-ms", 1_000);
    let metrics_port: u16 = args.get_or("--metrics-port", 0);
    let load_cap: f64 = args.get_or("--load-cap", 0.0);
    if load_cap != 0.0 && load_cap <= 1.0 {
        args.usage_error(&format!("--load-cap must be > 1 (got {load_cap})"));
    }
    let tenants = match args.raw("--tenants").unwrap_or("") {
        "" => TenantDirectory::new(),
        spec => TenantDirectory::parse(spec)
            .unwrap_or_else(|e| args.usage_error(&format!("bad --tenants spec: {e}"))),
    };

    // I/O flags layer over the MBAL_* environment defaults (already
    // folded into the builder's starting config).
    let max_conns: usize = args.get_or("--max-conns", 0);
    let idle_timeout_ms: i64 = args.get_or("--idle-timeout-ms", -1);
    let membership = match args.raw("--membership").unwrap_or("off") {
        "on" => true,
        "off" => false,
        s => args.usage_error(&format!("bad --membership {s:?} (expected on|off)")),
    };

    let mut ring = ConsistentRing::new();
    for w in 0..workers {
        ring.add_worker(WorkerAddr::new(0, w));
    }
    let vns = (workers as usize * cachelets * 4).next_power_of_two();
    let mapping = MappingTable::build(&ring, cachelets, vns);
    let balancer = BalancerConfig {
        epoch_ms,
        load_cap: (load_cap != 0.0).then_some(load_cap),
        ..BalancerConfig::default()
    };
    let coordinator = Arc::new(Coordinator::new(mapping.clone(), balancer.clone()));
    let registry = InProcRegistry::new();
    let mut builder = ServerConfig::builder(ServerId(0))
        .workers(workers)
        .cache_bytes(mem_mb << 20)
        .cachelets_per_worker(cachelets)
        .balancer(balancer)
        .tenants(tenants.clone())
        .membership(membership);
    if metrics_port != 0 {
        builder = builder.metrics_port(Some(metrics_port));
    }
    if max_conns != 0 {
        builder = builder.max_conns_per_worker(max_conns);
    }
    if idle_timeout_ms >= 0 {
        builder = builder.idle_timeout(
            (idle_timeout_ms > 0).then(|| std::time::Duration::from_millis(idle_timeout_ms as u64)),
        );
    }
    let config = builder.build();
    let io = config.io.clone();
    let metrics_port = config.metrics_port.unwrap_or(0);
    let server = Server::spawn(
        config,
        &mapping,
        &registry,
        coordinator,
        Arc::new(RealClock::new()),
    );

    let bound = match serve_tcp_with(&server.worker_mailboxes(), "0.0.0.0", port, io.clone()) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("mbal-server: cannot serve from port {port}: {e}");
            std::process::exit(1);
        }
    };
    println!("mbal-server: {workers} workers, {mem_mb} MiB, {cachelets} cachelets/worker");
    if tenants.len() > 1 {
        println!("  multi-tenant: {} tenants admitted", tenants.len() - 1);
    }
    if load_cap != 0.0 {
        println!("  bounded-load cap: {load_cap} × mean worker load");
    }
    if membership {
        println!("  membership: on (cluster-status view published each epoch)");
    }
    println!(
        "  io: event loop, up to {} connections/worker",
        io.max_conns_per_worker
    );
    for (addr, sock) in &bound {
        println!("  worker {addr} listening on {sock}");
    }
    println!("ready (Ctrl-C to stop)");

    let server = Arc::new(parking_lot::Mutex::new(server));
    if metrics_port != 0 {
        let for_metrics = Arc::clone(&server);
        match mbal_server::serve_metrics_http("0.0.0.0", metrics_port, move || {
            for_metrics.lock().stats_reports()
        }) {
            Ok((addr, _handle)) => println!("  metrics (Prometheus text) on http://{addr}/metrics"),
            Err(e) => eprintln!("mbal-server: metrics endpoint failed to bind: {e}"),
        }
    }
    let _balance = Server::start_balance_thread(Arc::clone(&server));
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
