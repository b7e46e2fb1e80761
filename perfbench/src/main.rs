//! `perfbench`: the repository benchmark.
//!
//! One run drives the real `mbal-client` → `mbal-server` → `mbal-core`
//! stack, in this process, through one workload, in [`SEGMENTS`]
//! segments of a fresh cluster each (one when traced). A segment is:
//!
//! 1. setup: start a cluster of 2 servers × 2 workers and pre-load every
//!    record (`setup_s` is the median over [`SETUPS`] such setups);
//! 2. latency phase: an open loop at the workload's offered rate, each
//!    op timed from its intended send time;
//! 3. capacity phase: the same threads back to back, one outstanding op
//!    each;
//! 4. a final scrape, taken once no migration is in flight, and the
//!    correctness check.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload skew-read --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Stdout is a table of every metric with its unit and sample count; its
//! last line is one JSON object. With `--trace 0` that object holds the
//! end-to-end metrics of `BENCHMARK.json`. With `--trace 1` the run
//! records spans around the calls into each crate, replays each layer on
//! the workload's inputs, and reports the per-layer metrics instead. The
//! exit code is 1 when the correctness check fails, 2 on bad arguments.

mod cluster;
mod drive;
mod layers;
mod report;
mod steal;
mod timing;
mod trace;
mod workload;

use cluster::{Cluster, CountingCoordinator, TimedTransport};
use drive::{closed_loop, Gen, OpenLoop, Outcome};
use mbal_client::{ClientStats, CoordinatorLink};
use mbal_server::Transport;
use mbal_telemetry::{Counter, MetricsSnapshot, StatsReport, WorkerSnapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};
use steal::StealLog;
use timing::median;
use workload::{thread_seed, Workload};

const USAGE: &str = "usage: perfbench --workload <skew-read|churn-write|tcp-feed|all> \
                     --seed <n> --seconds <n> [--trace <0|1>]";

/// Cluster setups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Fresh clusters an untraced run measures in turn, each for an equal
/// share of `--seconds` and on the inputs of a seed of its own; the
/// end-to-end figures are their medians. On a small host a cluster's
/// thread placement sets its latency level for as long as it lives, so
/// with one cluster per run that level would be the run's.
const SEGMENTS: usize = 8;
/// A segment in which the host stole more than this share of the CPU
/// time is *stolen*: its figures describe the host, not the program.
const STEAL_LIMIT: f64 = 0.02;
/// Segments run beyond [`SEGMENTS`] while stolen ones are still among the
/// least-stolen [`SEGMENTS`]; the figures come from those least-stolen.
const EXTRA_SEGMENTS: usize = 2;
/// Share of `--seconds` spent in the latency phase; the rest is the
/// capacity phase.
const LATENCY_SHARE: f64 = 0.6;
/// Leading share of the latency phase that runs but is not timed.
const WARMUP_SHARE: f64 = 0.1;
/// Grace after a phase's last scheduled op before outstanding ops fail.
const GRACE: Duration = Duration::from_secs(2);
/// Interval of the traced run's stats scrape.
const MONITOR_EVERY: Duration = Duration::from_millis(100);
/// How long the final scrape waits for migrations and replica installs
/// to finish before it reports the ledgers as disagreeing.
const QUIESCE: Duration = Duration::from_secs(10);
/// Where the traced run writes its latency-phase spans, relative to the
/// working directory.
const TRACE_DIR: &str = ".bench_trace";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    let Some(wl) = workload::find(&args.workload) else {
        eprintln!("perfbench: unknown workload {}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    std::process::exit(run(wl, &args));
}

/// Runs every workload in turn, each in a child process of its own so
/// that its peak memory is its own; fails if any run failed.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return 2;
        }
    };
    let mut code = 0;
    for wl in &workload::WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", wl.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => code = s.code().unwrap_or(1).max(1),
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", wl.name);
                code = 2;
            }
        }
    }
    code
}

/// The traced run's stats scrapes during the latency phase.
#[derive(Default)]
pub struct Monitor {
    /// `(seconds since the phase origin, served ops per worker)`.
    pub samples: Vec<(f64, Vec<u64>)>,
    pub snapshots: Vec<Vec<WorkerSnapshot>>,
}

/// The wrappers the traced run hands every generator client.
pub struct Wrappers {
    pub transport: Arc<TimedTransport>,
    pub link: Arc<CountingCoordinator>,
}

/// Everything a run measured; the input of the metric functions.
pub struct RunData {
    pub latency: Outcome,
    /// Capacity-phase slices: one when untraced; untraced, traced,
    /// traced, untraced in the traced run.
    pub capacity: Vec<Outcome>,
    pub client: ClientStats,
    /// The final scrape, merged over workers, and per worker.
    pub server: MetricsSnapshot,
    pub reports: Vec<StatsReport>,
    /// Traced run only: spans per thread of the latency phase, the
    /// stats scrapes, and the scrape at the end of the latency phase.
    pub lat_spans: Vec<Vec<trace::Span>>,
    pub monitor: Monitor,
    pub lat_end_reports: Vec<StatsReport>,
    /// Coordinator calls the generator clients made during the phases.
    pub coord_calls: u64,
    /// When each phase began (the origin of its schedule and windows)
    /// and how long it was meant to last.
    pub lat_origin: Instant,
    pub lat_dur: Duration,
    pub cap_origin: Instant,
    pub cap_dur: Duration,
    /// The host's steal counter over both phases.
    pub steal: StealLog,
}

impl RunData {
    /// Attempted, failed, GET-key and hit counts over both phases.
    pub fn totals(&self) -> Outcome {
        let mut t = Outcome::default();
        for o in std::iter::once(&self.latency).chain(&self.capacity) {
            t.attempted += o.attempted;
            t.failed += o.failed;
            t.get_keys += o.get_keys;
            t.get_hits += o.get_hits;
            t.excused_misses += o.excused_misses;
            t.failed_get_keys += o.failed_get_keys;
            t.bad_values += o.bad_values;
        }
        t
    }
}

pub fn ops_per_worker(reports: &[StatsReport]) -> Vec<u64> {
    reports
        .iter()
        .map(|r| r.load.metrics.get(Counter::Ops))
        .collect()
}

/// Sets every record with `threads` clients in parallel.
fn load(cluster: &Cluster, pairs: &[(Vec<u8>, Vec<u8>)], threads: usize) {
    let chunk = pairs.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        for part in pairs.chunks(chunk) {
            let mut client = cluster.client();
            s.spawn(move || {
                for (k, v) in part {
                    client
                        .set_opts(k, v, mbal_client::SetOptions::new())
                        .expect("load-phase set");
                }
            });
        }
    });
}

/// Starts a cluster and pre-loads every record; returns it and how long
/// that took.
fn setup(wl: &Workload, pairs: &[(Vec<u8>, Vec<u8>)], threads: usize) -> (Cluster, f64) {
    let t0 = Instant::now();
    let cluster = Cluster::start(wl.tcp, wl.mem_per_server);
    load(&cluster, pairs, threads);
    cluster.scrape(&mut cluster.client(), true);
    (cluster, t0.elapsed().as_secs_f64())
}

/// The seed of segment `k` of a run with seed `seed`; segment 0 uses the
/// run seed itself.
fn segment_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0xA076_1D64_78BD_642F))
}

/// What one generator thread brings home.
struct ThreadResult {
    latency: Outcome,
    capacity: Vec<Outcome>,
    stats: ClientStats,
    latency_spans: Vec<trace::Span>,
}

/// Runs the latency and capacity phases, `secs` seconds together, on
/// `threads` generator threads fed from `seed` (and, when traced, the
/// stats monitor).
#[allow(clippy::too_many_arguments)]
fn phases(
    cluster: &Cluster,
    wl: &Workload,
    args: &Args,
    seed: u64,
    secs: f64,
    threads: usize,
    validator: &workload::Validator,
    wrappers: Option<&Wrappers>,
) -> RunData {
    let lat_dur = Duration::from_secs_f64(secs * LATENCY_SHARE);
    let cap_dur = Duration::from_secs_f64(secs * (1.0 - LATENCY_SHARE));
    let gens: Vec<_> = (0..threads)
        .map(|t| {
            let client = match wrappers {
                Some(w) => cluster.client_with(
                    Arc::clone(&w.transport) as Arc<dyn Transport>,
                    Arc::clone(&w.link) as Arc<dyn CoordinatorLink>,
                ),
                None => cluster.client(),
            };
            (client, wl.source(thread_seed(seed, t)))
        })
        .collect();
    let coord_calls = || wrappers.map_or(0, |w| w.link.calls.load(Ordering::Relaxed));
    let coord_calls_before = coord_calls();
    let slots = (wl.rate * lat_dur.as_secs_f64() / threads as f64).ceil() as u64;
    let lat_origin = OnceLock::new();
    let cap_origin = OnceLock::new();
    let barrier = Barrier::new(threads + 1);
    let monitor_stop = AtomicBool::new(false);
    let steal_stop = AtomicBool::new(false);
    let trace_origin = Instant::now();
    let mut lat_end_reports = Vec::new();
    let (results, monitor, steal) = std::thread::scope(|s| {
        let steal = s.spawn(|| StealLog::sample(&steal_stop));
        let handles: Vec<_> = gens
            .into_iter()
            .enumerate()
            .map(|(t, (client, src))| {
                let (barrier, lat_origin, cap_origin) = (&barrier, &lat_origin, &cap_origin);
                let clock = &*cluster.clock;
                s.spawn(move || {
                    drive::tighten_timer_slack();
                    if args.trace {
                        trace::install(trace_origin, 1 << 18);
                        trace::enable(true);
                    }
                    let mut gen = Gen {
                        client,
                        src,
                        validator,
                        clock,
                        op_base: (t as u64) << 48,
                        seq: 0,
                        errors: 0,
                    };
                    barrier.wait();
                    let origin: Instant = *lat_origin.get().expect("latency origin set");
                    let latency = OpenLoop {
                        origin,
                        rate: wl.rate / threads as f64,
                        phase: t as f64 / threads as f64,
                        duration: lat_dur,
                        deadline: origin + lat_dur + GRACE,
                        warmup: lat_dur.mul_f64(WARMUP_SHARE),
                        rotate_at: wl.rotate_mid.then_some(slots / 2),
                    }
                    .run(&mut gen);
                    let latency_spans = trace::take();
                    barrier.wait();
                    barrier.wait();
                    let origin: Instant = *cap_origin.get().expect("capacity origin set");
                    // Traced: untraced, traced, traced, untraced slices, so
                    // the two pairs cancel a linear drift across the phase.
                    let slices = if args.trace { 4 } else { 1 };
                    let capacity = (0..slices)
                        .map(|i| {
                            if args.trace {
                                trace::enable(i == 1 || i == 2);
                            }
                            let end = origin + cap_dur * (i + 1) / slices;
                            closed_loop(&mut gen, origin, end, end + GRACE, report::WINDOW)
                        })
                        .collect();
                    ThreadResult {
                        latency,
                        capacity,
                        stats: gen.client.stats(),
                        latency_spans,
                    }
                })
            })
            .collect();

        let monitor = args.trace.then(|| {
            let (stop, lat_origin) = (&monitor_stop, &lat_origin);
            s.spawn(move || {
                let mut scrape = cluster.client();
                let mut m = Monitor::default();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(MONITOR_EVERY);
                    let Some(origin) = lat_origin.get() else {
                        continue;
                    };
                    let reports = cluster.scrape(&mut scrape, false);
                    let t: f64 = origin.elapsed().as_secs_f64();
                    m.samples.push((t, ops_per_worker(&reports)));
                    m.snapshots
                        .push(reports.into_iter().map(|r| r.load).collect());
                }
                m
            })
        });

        lat_origin
            .set(Instant::now() + Duration::from_millis(10))
            .expect("set once");
        barrier.wait();
        barrier.wait();
        monitor_stop.store(true, Ordering::Relaxed);
        let monitor = monitor.map(|h| h.join().expect("monitor thread"));
        if args.trace {
            lat_end_reports = cluster.scrape(&mut cluster.client(), false);
        }
        cap_origin
            .set(Instant::now() + Duration::from_millis(5))
            .expect("set once");
        barrier.wait();
        let results: Vec<ThreadResult> = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect();
        steal_stop.store(true, Ordering::Relaxed);
        let steal = steal.join().expect("steal sampler thread");
        (results, monitor.unwrap_or_default(), steal)
    });

    let mut data = RunData {
        latency: Outcome::default(),
        capacity: Vec::new(),
        client: ClientStats::default(),
        server: MetricsSnapshot::default(),
        reports: Vec::new(),
        lat_spans: Vec::new(),
        monitor,
        lat_end_reports,
        coord_calls: coord_calls() - coord_calls_before,
        lat_origin: *lat_origin.get().expect("latency origin set"),
        lat_dur,
        cap_origin: *cap_origin.get().expect("capacity origin set"),
        cap_dur,
        steal,
    };
    for r in results {
        data.latency.merge(r.latency);
        for (i, o) in r.capacity.into_iter().enumerate() {
            match data.capacity.get_mut(i) {
                Some(c) => c.merge(o),
                None => data.capacity.push(o),
            }
        }
        let (c, st) = (&mut data.client, r.stats);
        c.gets += st.gets;
        c.sets += st.sets;
        c.deletes += st.deletes;
        c.moved += st.moved;
        c.replica_reads += st.replica_reads;
        c.busy_retries += st.busy_retries;
        c.transport_retries += st.transport_retries;
        c.failures += st.failures;
        data.lat_spans.push(r.latency_spans);
    }
    data
}

/// Why the client and server ledgers disagree, or `None` when every
/// client GET was served once (by its home worker or a replica) plus one
/// home GET per replica the balancer installed, and every SET once.
///
/// A call the client gave up on and re-sent (`transport_retries`) may
/// still have reached its worker, so each such retry allows the server
/// one op more than the client; without retries the match is exact.
fn ledger_mismatch(client: &ClientStats, server: &MetricsSnapshot) -> Option<String> {
    let served = server.get(Counter::Gets) + server.get(Counter::ReplicaReadHits);
    let installs = server.get(Counter::ReplicaInstalls);
    let sets = server.get(Counter::Sets);
    let slack = client.transport_retries;
    let within = |server: u64, client: u64| (client..=client + slack).contains(&server);
    (!within(served, client.gets + installs) || !within(sets, client.sets)).then(|| {
        format!(
            "ledgers disagree: client gets {} + replica installs {installs} vs server gets + \
             replica hits {served}, client sets {} vs server sets {sets}, with {slack} \
             re-sent calls",
            client.gets, client.sets
        )
    })
}

/// The final scrape. Once no migration is in flight it scrapes until the
/// ledgers agree (an in-flight replica install can split a scrape), for
/// at most [`QUIESCE`]; returns the last scrape and any disagreement.
fn final_scrape(cluster: &Cluster, data: &mut RunData, reconcile: bool) -> Option<String> {
    let deadline = Instant::now() + QUIESCE;
    let settled = cluster.settle(QUIESCE);
    let mut scrape = cluster.client();
    loop {
        data.reports = cluster.scrape(&mut scrape, false);
        data.server = MetricsSnapshot::default();
        for r in &data.reports {
            data.server.merge(&r.load.metrics);
        }
        if !reconcile {
            return None;
        }
        if !settled {
            return Some("migrations still in flight after the run".into());
        }
        let mismatch = ledger_mismatch(&data.client, &data.server);
        if mismatch.is_none() || Instant::now() > deadline {
            return mismatch;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The correctness check: every value read was written for its key, the
/// always-hit workloads missed only keys in flight between workers, and,
/// when nothing failed, the client and server ledgers reconcile exactly.
/// The traced run also checks that the workload stressed the layers it
/// was chosen for.
fn check(
    wl: &Workload,
    data: &RunData,
    ledger: Option<String>,
    traced: Option<&report::Metrics>,
) -> Vec<String> {
    let t = data.totals();
    let mut problems = Vec::new();
    if t.bad_values > 0 {
        problems.push(format!(
            "{} GET values differ from every value written for their key",
            t.bad_values
        ));
    }
    // Every key of an always-hit workload is loaded and never expires.
    // The one legal miss is a key whose bucket a live migration has
    // drained but not yet delivered: the client follows the redirect and
    // finds nothing at the destination. So every miss must come from an
    // op the client redirected. Keys of failed ops count in `failed`.
    let misses = t.get_keys - t.get_hits - t.excused_misses - t.failed_get_keys;
    if wl.zero_misses && misses > 0 {
        problems.push(format!(
            "{misses} of {} GET keys missed without a migration redirect on a workload \
             that must always hit",
            t.get_keys
        ));
    }
    if t.failed == 0 && data.client.gets != t.get_keys {
        problems.push(format!(
            "client counted {} GET keys, the generator issued {}",
            data.client.gets, t.get_keys
        ));
    }
    problems.extend(ledger);
    if let Some(m) = traced {
        problems.extend(wl.stress_problems(|name| report::value(m, name)));
    }
    problems
}

/// One measured segment of a run on a freshly set-up `cluster`, fed from
/// `seed` for `secs` seconds: the phases, the final scrape and the
/// check. Shuts the cluster down; returns the segment's metrics, the
/// share of CPU time the host stole during its phases, its attempted and
/// failed ops, and what the check found.
fn segment(
    wl: &Workload,
    args: &Args,
    seed: u64,
    secs: f64,
    threads: usize,
    cluster: Cluster,
) -> (report::Metrics, f64, (u64, u64), Vec<String>) {
    let validator = wl.validator(seed, threads);
    let wrappers = args.trace.then(|| Wrappers {
        transport: TimedTransport::new(Arc::clone(&cluster.transport), wl.tcp),
        link: CountingCoordinator::new(Arc::clone(&cluster.coordinator)),
    });
    let migrations_before = cluster.coordinator.migration_counters().1;

    let mut data = phases(
        &cluster,
        wl,
        args,
        seed,
        secs,
        threads,
        &validator,
        wrappers.as_ref(),
    );
    let failed = data.totals().failed;
    let ledger = final_scrape(&cluster, &mut data, failed == 0);

    let steal = data
        .steal
        .clean(data.lat_origin, data.cap_origin + data.cap_dur)
        .steal_frac;
    let metrics = match &wrappers {
        Some(w) => {
            let migrations = cluster.coordinator.migration_counters().1 - migrations_before;
            let (m, replays) = report::per_layer(wl, seed, &cluster, &data, w, migrations);
            report::print_replays(&replays);
            let path =
                std::path::Path::new(TRACE_DIR).join(format!("{}-seed{}.tsv", wl.name, seed));
            match trace::write_tsv(&path, &data.lat_spans) {
                Ok(()) => eprintln!("spans written to {}", path.display()),
                Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
            }
            m
        }
        None => report::end_to_end(&data),
    };
    cluster.shutdown();
    let problems = check(wl, &data, ledger, wrappers.is_some().then_some(&metrics));
    let t = data.totals();
    (metrics, steal, (t.attempted, t.failed), problems)
}

fn run(wl: &Workload, args: &Args) -> i32 {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let segments = if args.trace { 1 } else { SEGMENTS };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} transport={} rate={} threads={} \
         segments={segments} available_parallelism={}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if wl.tcp { "tcp" } else { "inproc" },
        wl.rate,
        threads,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!("why: {}", wl.why);

    // Set-ups beyond the segments' own only time set-up, so that
    // `setup_s` is a median of SETUPS.
    let mut setup_s = Vec::with_capacity(SETUPS);
    if !args.trace {
        let pairs = wl.load_pairs(args.seed);
        for _ in segments..SETUPS {
            let (cluster, t) = setup(wl, &pairs, threads);
            setup_s.push(t);
            cluster.shutdown();
        }
    }
    let secs = args.seconds as f64 / segments as f64;
    let extra = if args.trace { 0 } else { EXTRA_SEGMENTS };
    let (mut parts, mut problems) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    for k in 0..segments + extra {
        let clean = parts
            .iter()
            .filter(|p: &&(f64, _)| p.0 <= STEAL_LIMIT)
            .count();
        if k >= segments && clean >= segments {
            break;
        }
        let seed = segment_seed(args.seed, k);
        let (cluster, t) = setup(wl, &wl.load_pairs(seed), threads);
        setup_s.push(t);
        let (m, steal, (a, f), p) = segment(wl, args, seed, secs, threads, cluster);
        println!(
            "segment {k} seed={seed} steal_frac={steal:.4} throughput_ops_s={:.0} get_p50_us={:.2}",
            report::value(&m, "throughput_ops_s"),
            report::value(&m, "get_p50_us"),
        );
        parts.push((steal, m));
        attempted += a;
        failed += f;
        problems.extend(p);
    }
    // The least-stolen segments stand for the run.
    parts.sort_by(|a, b| a.0.total_cmp(&b.0));
    parts.truncate(segments);
    let parts: Vec<report::Metrics> = parts.into_iter().map(|p| p.1).collect();
    let mut metrics = report::combine(&parts);
    if !args.trace {
        metrics.extend([
            ("setup_s", median(&setup_s), "s", setup_s.len() as u64),
            ("peak_rss_mb", report::peak_rss_mb(), "MB", 1),
        ]);
    }

    report::print_table(&metrics);
    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }
    if !problems.is_empty() {
        return 1;
    }
    report::print_json(&metrics, args.trace, attempted, failed);
    0
}
