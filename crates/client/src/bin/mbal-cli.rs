//! `mbal-cli` — a tiny command-line client for a running `mbal-server`.
//!
//! The CLI reconstructs the server's mapping from the same parameters
//! the server was started with (workers/cachelets are deterministic), so
//! it needs `--workers` and `--cachelets` to match.
//!
//! ```text
//! mbal-cli --host 127.0.0.1 --port 11311 --workers 4 set user:1 alice
//! mbal-cli --host 127.0.0.1 --port 11311 --workers 4 get user:1
//! mbal-cli --host 127.0.0.1 --port 11311 --workers 4 del user:1
//! mbal-cli --host 127.0.0.1 --port 11311 --workers 4 stats
//! mbal-cli --host 127.0.0.1 --port 11311 --workers 4 stats-reset
//! mbal-cli --host 127.0.0.1 --port 11311 --workers 4 cluster-status
//! mbal-cli --host 127.0.0.1 --port 11311 --workers 4 tenants
//! mbal-cli --host 127.0.0.1 --port 11311 --workers 4 --tenant 3 get user:1
//! ```
//!
//! `--tenant T` tags data ops with tenant `T` (multi-tenant servers);
//! `tenants` prints per-tenant residency, budget, and hit rate.
//!
//! An unknown flag, a flag without a value, or a value that does not
//! parse (`--tenant abc`, `--port 70000`) prints a usage error and exits
//! with status 2 before anything connects.
//!
//! `--front-cache N` arms the client front tier with room for `N`
//! sketch-confirmed hot keys (TTL-bounded staleness; see the client
//! `front` module). A single-shot CLI process cannot profit from it —
//! every invocation starts cold — but the flag exercises the exact
//! builder path long-lived embedders use, and `mget`-style scripted
//! loops inside one process do benefit.

use mbal_balancer::coordinator::HeartbeatReply;
use mbal_client::{Client, CoordinatorLink, FrontCacheConfig, SetOptions};
use mbal_core::types::{TenantId, WorkerAddr};
use mbal_membership::{MembershipView, NodeState};
use mbal_proto::{Request, Response};
use mbal_ring::{ConsistentRing, MappingTable};
use mbal_server::cli::Args;
use mbal_server::tcp::TcpTransport;
use mbal_server::Transport;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;

/// A static coordinator stub: the CLI trusts its reconstructed mapping
/// and relies on `Moved` redirects for anything that shifted.
struct StaticMapping(MappingTable);

impl CoordinatorLink for StaticMapping {
    fn heartbeat(&self, version: u64) -> HeartbeatReply {
        HeartbeatReply {
            version,
            deltas: vec![],
            full_refetch: false,
        }
    }

    fn full_table(&self) -> MappingTable {
        self.0.clone()
    }
}

const USAGE: &str = "usage: mbal-cli [--host H] [--port P] [--workers N] [--cachelets N] \
[--tenant T] [--front-cache N] [--instance TYPE] \
<get KEY | set KEY VALUE | del KEY | stats | stats-reset | cluster-status | tenants>
--instance picks the Table-1 cost-model row for the cluster-status cost footer (default c3.large)";

fn main() {
    let args = Args::parse("mbal-cli", USAGE, std::env::args().skip(1));
    let host = args.raw("--host").unwrap_or("127.0.0.1");
    let port: u16 = args.get_or("--port", 11311);
    let workers: u16 = args.get_or("--workers", 4);
    let cachelets: usize = args.get_or("--cachelets", 16);
    let tenant: u16 = args.get_or("--tenant", 0);
    let front_entries: usize = args.get_or("--front-cache", 0);
    let instance_name = args.raw("--instance").unwrap_or("c3.large");
    let pos = &args.positional;
    if pos.is_empty() {
        args.usage_error("missing command");
    }

    // Worker w listens on port + w; the range must stay within u16.
    if port.checked_add(workers.saturating_sub(1)).is_none() {
        args.usage_error(&format!(
            "--port {port} with --workers {workers} runs past port 65535"
        ));
    }

    let mut ring = ConsistentRing::new();
    for w in 0..workers {
        ring.add_worker(WorkerAddr::new(0, w));
    }
    let vns = (workers as usize * cachelets * 4).next_power_of_two();
    let mapping = MappingTable::build(&ring, cachelets, vns);
    let routes: HashMap<WorkerAddr, SocketAddr> = (0..workers)
        .map(|w| {
            (
                WorkerAddr::new(0, w),
                format!("{host}:{}", port + w).parse().expect("socket addr"),
            )
        })
        .collect();
    let transport = TcpTransport::new(routes);
    let mut builder = Client::builder(
        Arc::clone(&transport) as Arc<dyn Transport>,
        Arc::new(StaticMapping(mapping)) as Arc<dyn CoordinatorLink>,
    )
    .tenant(TenantId(tenant));
    if front_entries > 0 {
        builder = builder.front_cache(FrontCacheConfig::new().max_entries(front_entries));
    }
    let mut client = builder.build();

    match pos[0].as_str() {
        "get" if pos.len() == 2 => match client.get(pos[1].as_bytes()) {
            Ok(Some(v)) => println!("{}", String::from_utf8_lossy(&v)),
            Ok(None) => {
                eprintln!("(miss)");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        },
        "set" if pos.len() == 3 => {
            match client.set_opts(pos[1].as_bytes(), pos[2].as_bytes(), SetOptions::new()) {
                Ok(_) => println!("STORED"),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
        }
        "del" if pos.len() == 2 => match client.delete(pos[1].as_bytes()) {
            Ok(true) => println!("DELETED"),
            Ok(false) => println!("NOT_FOUND"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        },
        cmd @ ("stats" | "stats-reset") => {
            let reset = cmd == "stats-reset";
            for w in 0..workers {
                let addr = WorkerAddr::new(0, w);
                match client.worker_stats(addr, reset) {
                    Ok(report) => {
                        println!("# worker {w}");
                        for (name, value) in report.named_dump() {
                            println!("STAT {name} {value}");
                        }
                    }
                    Err(e) => eprintln!("worker {w}: {e}"),
                }
            }
        }
        "tenants" => {
            // Aggregate per-tenant accounting rows across every worker.
            use std::collections::BTreeMap;
            let mut rows: BTreeMap<u16, (u64, u64, u64, u64, u64)> = BTreeMap::new();
            let mut reached = false;
            for w in 0..workers {
                let addr = WorkerAddr::new(0, w);
                match client.worker_stats(addr, false) {
                    Ok(report) => {
                        reached = true;
                        for t in &report.load.tenants {
                            let e = rows.entry(t.tenant.0).or_insert((0, 0, 0, 0, 0));
                            e.0 = e.0.saturating_add(t.resident_bytes);
                            e.1 = e.1.saturating_add(t.budget_bytes);
                            e.2 += t.gets;
                            e.3 += t.hits;
                            e.4 += t.evictions;
                        }
                    }
                    Err(e) => eprintln!("worker {w}: {e}"),
                }
            }
            if !reached {
                std::process::exit(1);
            }
            if rows.is_empty() {
                println!("(single-tenant deployment: no tenants admitted)");
            } else {
                println!(
                    "{:>6} {:>14} {:>14} {:>12} {:>12} {:>10} {:>8}",
                    "tenant", "resident", "budget", "gets", "hits", "evictions", "hit-rate"
                );
                for (t, (resident, budget, gets, hits, evictions)) in rows {
                    let rate = if gets == 0 {
                        1.0
                    } else {
                        hits as f64 / gets as f64
                    };
                    let budget_s = if budget == u64::MAX {
                        "unlimited".to_string()
                    } else {
                        budget.to_string()
                    };
                    println!(
                        "{t:>6} {resident:>14} {budget_s:>14} {gets:>12} {hits:>12} {evictions:>10} {rate:>8.3}"
                    );
                }
            }
        }
        "cluster-status" => {
            // Any worker can answer: servers push the coordinator's view
            // to every worker each balance epoch. Ask worker 0 first and
            // fall back down the list if it is unreachable.
            let mut served = false;
            for w in 0..workers {
                let addr = WorkerAddr::new(0, w);
                match transport.call(addr, Request::ClusterStatus) {
                    Ok(Response::StatsBlob { payload }) => {
                        match serde_json::from_slice::<MembershipView>(&payload) {
                            Ok(view) => {
                                print_cluster_status(&view);
                                print_cost_summary(&view, &mut client, workers, instance_name);
                            }
                            Err(e) => {
                                eprintln!("error: malformed view payload: {e}");
                                std::process::exit(1);
                            }
                        }
                        served = true;
                        break;
                    }
                    Ok(Response::Fail { message, .. }) => {
                        eprintln!("worker {w}: {message}");
                    }
                    Ok(other) => {
                        eprintln!("worker {w}: unexpected reply {other:?}");
                    }
                    Err(e) => {
                        eprintln!("worker {w}: {e}");
                    }
                }
            }
            if !served {
                std::process::exit(1);
            }
        }
        _ => args.usage_error(&format!("bad command {pos:?}")),
    }
}

/// Renders a membership snapshot the way `stats` renders counters: one
/// header line, then one line per node, stable enough to script against.
fn print_cluster_status(view: &MembershipView) {
    println!(
        "epoch {}  members {}  suspects {}",
        view.epoch,
        view.cluster_size(),
        view.suspect_count()
    );
    for n in &view.nodes {
        let mut line = format!(
            "node {:>3}  state {:<8}  workers {}  incarnation {}  heartbeat-age {}ms",
            n.server.0,
            n.state.name(),
            n.workers,
            n.incarnation,
            n.heartbeat_age_ms
        );
        if n.state == NodeState::Suspect {
            if let Some(ms) = n.suspect_remaining_ms {
                line.push_str(&format!("  confirm-in {ms}ms"));
            }
        }
        println!("{line}");
    }
}

/// The Table-1 cost footer under `cluster-status`: what the membership
/// roster costs on the paper's instance catalogue (fleet capacity,
/// hourly/daily dollars, estimated instance-hours), plus the measured
/// utilization of the node this CLI is pointed at. Remote nodes are not
/// reachable over this transport (the CLI maps one host's worker
/// ports), so their utilization rows come from the loadgen's
/// `BENCH_results.json` instead.
fn print_cost_summary(view: &MembershipView, client: &mut Client, workers: u16, instance: &str) {
    let Some(inst) = mbal_cluster::ec2::instance(instance) else {
        eprintln!(
            "unknown instance type {instance}; known: {}",
            mbal_cluster::INSTANCES
                .iter()
                .map(|i| i.name)
                .collect::<Vec<_>>()
                .join(" ")
        );
        return;
    };
    let members = view.cluster_size() as u32;
    println!(
        "cost model {} ({} vcpu, {:.2} GiB, ${:.3}/h): fleet {} member(s), \
         peak capacity ≈ {:.0} KQPS",
        inst.name,
        inst.vcpus,
        inst.memory_gb,
        inst.cost_per_hour,
        members,
        mbal_cluster::ec2::cluster_kqps(inst, members.max(1)),
    );
    println!(
        "  hourly ${:.3}  est. instance-hours/day {:.1}  (${:.2}/day)",
        inst.cost_per_hour * members as f64,
        members as f64 * 24.0,
        inst.cost_per_hour * members as f64 * 24.0,
    );
    let mut load = 0.0;
    let mut capacity = 0.0;
    let mut reached = 0u16;
    for w in 0..workers {
        if let Ok(report) = client.worker_stats(WorkerAddr::new(0, w), false) {
            load += report.load.cachelets.iter().map(|c| c.load).sum::<f64>();
            capacity += report.load.load_capacity;
            reached += 1;
        }
    }
    if reached > 0 && capacity > 0.0 {
        println!(
            "  node 0 (this host): utilization {:.2}  ({:.0} ops/s over {:.0} ops/s \
             across {reached} worker(s))",
            load / capacity,
            load,
            capacity,
        );
    }
}
