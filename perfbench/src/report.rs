//! The metrics a run reports: end-to-end from the untraced run, per
//! layer from the traced run, and how they are printed.

use crate::cluster::Cluster;
use crate::layers;
use crate::steal::Clean;
use crate::timing::{median, quantile, Timing};
use crate::trace::{self, Name};
use crate::workload::{BenchOp, Workload};
use crate::{ops_per_worker, Monitor, RunData, Wrappers};
use mbal_balancer::BalancerConfig;
use mbal_telemetry::{Counter, Gauge, MetricsSnapshot};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// The capacity phase is cut into windows of this length; throughput is
/// the median over the windows the host did not steal (see
/// [`crate::steal`]).
pub const WINDOW: Duration = Duration::from_millis(100);
/// Latency samples are cut into at most this many windows of
/// consecutive samples (by intended send time)...
const MAX_LATENCY_WINDOWS: usize = 1000;
/// ...of at least this many samples, so a window's 90th percentile has
/// forty samples beyond it.
const MIN_WINDOW_SAMPLES: usize = 400;
/// Mixed into the run seed for the op stream the layer replays use.
const REPLAY_SEED: u64 = 0x7E1A_4E5D;

/// The end-to-end metrics `BENCHMARK.json` bounds; the table prints more.
const BOUNDED: [&str; 8] = [
    "throughput_ops_s",
    "get_p50_us",
    "get_p90_us",
    "set_p50_us",
    "set_p90_us",
    "hit_ratio",
    "setup_s",
    "peak_rss_mb",
];

/// Metric rows: `(name, value, unit, samples)`.
pub type Metrics = Vec<(&'static str, f64, &'static str, u64)>;

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn per_kop(count: u64, ops: u64) -> f64 {
    count as f64 * 1000.0 / ops.max(1) as f64
}

/// Busiest over mean worker; 0 when nothing was served.
fn imbalance(ops: &[u64]) -> f64 {
    let sum: u64 = ops.iter().sum();
    match ops.iter().max() {
        Some(&max) if sum > 0 => max as f64 / (sum as f64 / ops.len() as f64),
        _ => 0.0,
    }
}

pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `(intended, latency)` samples (ns since `origin`), in send order,
/// that were sent and completed outside stolen intervals; all of them if
/// none was. A failed op is always kept: it misses every limit.
fn clean_samples(samples: &[(u64, u64)], origin: Instant, clean: &Clean) -> Vec<(u64, u64)> {
    let mut kept: Vec<(u64, u64)> = samples
        .iter()
        .copied()
        .filter(|&(sent, lat)| {
            let sent = origin + Duration::from_nanos(sent);
            lat == u64::MAX || clean.is_clean(sent, sent + Duration::from_nanos(lat))
        })
        .collect();
    if kept.is_empty() {
        kept = samples.to_vec();
    }
    kept.sort_unstable();
    kept
}

/// `(p50, p90)` of samples in send order, each the median over windows
/// of consecutive samples of that window's percentile.
fn windowed(by_time: &[(u64, u64)]) -> (f64, f64) {
    let size = MIN_WINDOW_SAMPLES.max(by_time.len().div_ceil(MAX_LATENCY_WINDOWS));
    let (mut p50, mut p90) = (Vec::new(), Vec::new());
    for w in by_time.chunks(size) {
        let w = sorted(w.iter().map(|s| s.1).collect());
        p50.push(quantile(&w, 0.5) as f64);
        p90.push(quantile(&w, 0.9) as f64);
    }
    (median(&p50), median(&p90))
}

/// One untraced segment's metrics, taken outside the intervals the host
/// stole; `setup_s` and `peak_rss_mb` are the run's and added by it.
/// Latency is charged from each op's intended send time. p50 and p90 are
/// medians over windows of the latency phase (see [`windowed`]),
/// so a transient shorter than half the phase, such as the balancer's
/// answer to the skew-read rotation, moves them little; p99 covers the
/// whole phase and has no bound, because on a small shared host it moves
/// severalfold between identical runs.
pub fn end_to_end(data: &RunData) -> Metrics {
    let lat = &data.latency;
    let cap = &data.capacity[0];
    let lat_clean = data
        .steal
        .clean(data.lat_origin, data.lat_origin + data.lat_dur);
    let cap_clean = data
        .steal
        .clean(data.cap_origin, data.cap_origin + data.cap_dur);
    // Whole windows only: the last one is cut short by the phase end.
    let whole = cap.per_window.len().saturating_sub(1).max(1);
    let windows: Vec<(Instant, f64)> = cap
        .per_window
        .iter()
        .take(whole)
        .enumerate()
        .map(|(i, &c)| {
            let from = data.cap_origin + WINDOW * i as u32;
            (from, c as f64 / WINDOW.as_secs_f64())
        })
        .collect();
    let mut per_s: Vec<f64> = windows
        .iter()
        .filter(|(from, _)| cap_clean.is_clean(*from, *from + WINDOW))
        .map(|w| w.1)
        .collect();
    if per_s.is_empty() {
        per_s = windows.iter().map(|w| w.1).collect();
    }
    let mut m: Metrics = vec![("throughput_ops_s", median(&per_s), "ops/s", cap.completed)];
    for (samples, names) in [
        (&lat.get_ns, ["get_p50_us", "get_p90_us", "get_p99_us"]),
        (&lat.set_ns, ["set_p50_us", "set_p90_us", "set_p99_us"]),
        (&lat.mget_ns, ["mget_p50_us", "mget_p90_us", "mget_p99_us"]),
    ] {
        if samples.is_empty() && names[0].starts_with("mget") {
            continue;
        }
        let kept = clean_samples(samples, data.lat_origin, &lat_clean);
        let (p50, p90) = windowed(&kept);
        let all = sorted(kept.iter().map(|s| s.1).collect());
        let n = kept.len() as u64;
        m.push((names[0], us(p50), "us", n));
        m.push((names[1], us(p90), "us", n));
        m.push((names[2], us(quantile(&all, 0.99) as f64), "us", n));
    }
    let t = data.totals();
    let lag = sorted(lat.send_lag_ns.clone());
    m.extend([
        (
            "hit_ratio",
            t.get_hits as f64 / t.get_keys.max(1) as f64,
            "frac",
            t.get_keys,
        ),
        (
            "get_misses",
            (t.get_keys - t.get_hits) as f64,
            "count",
            t.get_keys,
        ),
        (
            "get_misses.redirected",
            t.excused_misses as f64,
            "count",
            t.get_keys,
        ),
        ("client.redirects", data.client.moved as f64, "count", 1),
        (
            "error_frac",
            t.failed as f64 / t.attempted.max(1) as f64,
            "frac",
            t.attempted,
        ),
        ("host.steal_frac.latency", lat_clean.steal_frac, "frac", 1),
        ("host.stolen_frac.latency", lat_clean.stolen_frac, "frac", 1),
        ("host.steal_frac.capacity", cap_clean.steal_frac, "frac", 1),
        (
            "host.stolen_frac.capacity",
            cap_clean.stolen_frac,
            "frac",
            1,
        ),
        (
            "bench.send_lag_p50_us",
            us(quantile(&lag, 0.5) as f64),
            "us",
            lag.len() as u64,
        ),
        (
            "bench.send_lag_p99_us",
            us(quantile(&lag, 0.99) as f64),
            "us",
            lag.len() as u64,
        ),
    ]);
    m
}

/// Seconds from the rotation until the per-scrape imbalance is back
/// under its mean over the second before; the rest of the phase if it
/// never is.
fn settle_s(monitor: &Monitor, rotate_s: f64) -> f64 {
    let windows: Vec<(f64, f64)> = monitor
        .samples
        .windows(2)
        .map(|w| {
            let delta: Vec<u64> = w[1]
                .1
                .iter()
                .zip(&w[0].1)
                .map(|(b, a)| b.saturating_sub(*a))
                .collect();
            (w[1].0, imbalance(&delta))
        })
        .collect();
    let before: Vec<f64> = windows
        .iter()
        .filter(|(t, _)| *t <= rotate_s && *t > rotate_s - 1.0)
        .map(|(_, i)| *i)
        .collect();
    let baseline = before.iter().sum::<f64>() / before.len().max(1) as f64;
    let last = windows.last().map_or(rotate_s, |(t, _)| *t);
    windows
        .iter()
        .find(|(t, i)| *t > rotate_s && *i <= baseline)
        .map_or(last, |(t, _)| *t)
        - rotate_s
}

/// Client self time (span minus its transport and coordinator child
/// spans), single-call times, and coordinator call times, in ns.
fn span_times(threads: &[Vec<trace::Span>]) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let (mut self_ns, mut call_ns, mut coord_ns) = (Vec::new(), Vec::new(), Vec::new());
    for spans in threads {
        let mut children = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != trace::NO_PARENT {
                children[s.parent as usize] += s.dur_ns();
            }
            match s.name {
                Name::ServerCall => call_ns.push(s.dur_ns()),
                Name::CoordinatorHeartbeat | Name::CoordinatorFullTable => {
                    coord_ns.push(s.dur_ns())
                }
                _ => {}
            }
        }
        for (s, child) in spans.iter().zip(children) {
            if s.parent == trace::NO_PARENT {
                self_ns.push(s.dur_ns().saturating_sub(child));
            }
        }
    }
    (sorted(self_ns), sorted(call_ns), coord_ns)
}

/// Each layer replay's timing, for the table.
pub type Replays = Vec<(&'static str, Timing)>;

/// The traced run's per-layer metrics and the replay timings behind them.
pub fn per_layer(
    wl: &Workload,
    seed: u64,
    cluster: &Cluster,
    data: &RunData,
    w: &Wrappers,
    migrations: u64,
) -> (Metrics, Replays) {
    let (self_ns, call_ns, coord_ns) = span_times(&data.lat_spans);
    let lag = sorted(data.latency.send_lag_ns.clone());
    let (client, server) = (&data.client, &data.server);
    let ops = client.gets + client.sets + client.deletes;
    let retries = client.transport_retries + client.busy_retries + client.moved;
    // Service time over the same span as the call spans: the scrape at
    // the end of the latency phase covers setup's end through that phase.
    let mut lat_end = MetricsSnapshot::default();
    for r in &data.lat_end_reports {
        lat_end.merge(&r.load.metrics);
    }
    let mut service = lat_end.read_us;
    service.merge(&lat_end.write_us);
    let service_p50_us = service.value_at_quantile(0.5) as f64;
    let call_p50 = quantile(&call_ns, 0.5) as f64;
    let batches = w.transport.batches.load(Ordering::Relaxed);
    let batch_keys = w.transport.batch_keys.load(Ordering::Relaxed);

    // The workload's own keys and values, for the replays.
    let mut src = wl.source(seed ^ REPLAY_SEED);
    let (mut keys, mut sets) = (Vec::new(), Vec::new());
    for _ in 0..8192 {
        match src.next_op() {
            BenchOp::Get(k) => keys.push(k),
            BenchOp::MultiGet(ks) => keys.extend(ks),
            BenchOp::Set { key, value, .. } => sets.push((key, value)),
        }
    }
    let mapping = cluster.coordinator.mapping_snapshot();
    let route = layers::ring_route(&mapping, &keys);

    // Codec: only the TCP workload crosses it.
    let codec = wl.tcp.then(|| {
        let pairs = w.transport.captured.lock().expect("capture lock").clone();
        layers::proto(&pairs)
    });

    // Engine: one cachelet's keys and traffic in one unit's share of a
    // server's memory.
    let cachelet = |k: &[u8]| mapping.route(k).map(|(c, _)| c);
    let unit = cachelet(&keys[0]);
    let pairs = wl.load_pairs(seed);
    let unit_load: Vec<_> = pairs
        .iter()
        .filter(|(k, _)| cachelet(k) == unit)
        .cloned()
        .collect();
    let unit_gets: Vec<_> = keys
        .iter()
        .filter(|k| cachelet(k) == unit)
        .cloned()
        .collect();
    let unit_sets: Vec<_> = sets
        .iter()
        .filter(|(k, _)| cachelet(k) == unit)
        .cloned()
        .collect();
    let (core_get, core_set) = layers::core(
        wl.mem_per_server,
        &unit_load,
        &unit_gets,
        if unit_sets.is_empty() {
            &sets
        } else {
            &unit_sets
        },
    );
    let record = layers::telemetry_record();

    // Memory: the MemBytes gauge over the user bytes still live, found
    // by reading every key back once after the final scrape.
    let mem_bytes: u64 = data
        .reports
        .iter()
        .map(|r| r.load.metrics.gauge(Gauge::MemBytes))
        .sum();
    let mut census = cluster.client();
    let mut live_bytes = 0u64;
    let all_keys: Vec<Vec<u8>> = pairs.into_iter().map(|(k, _)| k).collect();
    for chunk in all_keys.chunks(100) {
        if let Ok(values) = census.multi_get(chunk) {
            for (k, v) in chunk.iter().zip(values) {
                live_bytes += v.map_or(0, |v| (k.len() + v.len()) as u64);
            }
        }
    }

    let lat_ops = ops_per_worker(&data.lat_end_reports);
    let plan = layers::balancer_plan(&data.monitor.snapshots, &BalancerConfig::aggressive());
    let settle = if wl.rotate_mid {
        settle_s(&data.monitor, data.lat_dur.as_secs_f64() / 2.0)
    } else {
        0.0
    };

    // Tracing overhead: the traced capacity slices against the untraced.
    let slice = |i: usize| data.capacity.get(i).map_or(0.0, |c| c.completed as f64);
    let untraced = slice(0) + slice(3);
    let overhead = if untraced > 0.0 {
        1.0 - (slice(1) + slice(2)) / untraced
    } else {
        0.0
    };

    let served = server.get(Counter::Ops);
    let timed = |t: &Timing| t.iters * t.reps as u64;
    let mut replays = vec![
        ("ring.route", route),
        ("core.get", core_get),
        ("core.set", core_set),
        ("telemetry.record", record),
        ("balancer.plan", plan),
    ];
    let (encode_ns, decode_ns, bytes_per_op) = match codec {
        Some((e, d, b)) => {
            replays.extend([("proto.encode", e), ("proto.decode", d)]);
            (e.median_ns, d.median_ns, b)
        }
        None => (0.0, 0.0, 0.0),
    };
    let metrics = vec![
        (
            "bench.send_lag_p99_us",
            us(quantile(&lag, 0.99) as f64),
            "us",
            lag.len() as u64,
        ),
        (
            "client.self_ns_p50",
            quantile(&self_ns, 0.5) as f64,
            "ns",
            self_ns.len() as u64,
        ),
        (
            "client.retries_per_kop",
            per_kop(retries, ops),
            "1/kop",
            ops,
        ),
        (
            "client.replica_read_frac",
            client.replica_reads as f64 / client.gets.max(1) as f64,
            "frac",
            client.gets,
        ),
        (
            "client.coord_calls_per_kop",
            per_kop(data.coord_calls, ops),
            "1/kop",
            ops,
        ),
        (
            "client.coord_ns_mean",
            coord_ns.iter().sum::<u64>() as f64 / coord_ns.len().max(1) as f64,
            "ns",
            coord_ns.len() as u64,
        ),
        ("ring.route_ns", route.median_ns, "ns", timed(&route)),
        ("server.call_ns_p50", call_p50, "ns", call_ns.len() as u64),
        (
            "server.call_ns_p99",
            quantile(&call_ns, 0.99) as f64,
            "ns",
            call_ns.len() as u64,
        ),
        (
            "server.service_us_p50",
            service_p50_us,
            "us",
            service.count(),
        ),
        (
            "server.hop_ns_p50",
            // The p50 call minus the p50 service time (whole µs).
            (call_p50 - service_p50_us * 1e3).max(0.0),
            "ns",
            call_ns.len() as u64,
        ),
        (
            "server.batch_keys_mean",
            batch_keys as f64 / batches.max(1) as f64,
            "keys",
            batches,
        ),
        ("proto.encode_ns", encode_ns, "ns", 0),
        ("proto.decode_ns", decode_ns, "ns", 0),
        ("proto.bytes_per_op", bytes_per_op, "B", 0),
        ("core.get_ns", core_get.median_ns, "ns", timed(&core_get)),
        ("core.set_ns", core_set.median_ns, "ns", timed(&core_set)),
        (
            "core.evictions_per_kop",
            per_kop(server.get(Counter::Evictions), served),
            "1/kop",
            served,
        ),
        (
            "core.expirations_per_kop",
            per_kop(server.get(Counter::Expirations), served),
            "1/kop",
            served,
        ),
        (
            "core.mem_bytes_per_user_byte",
            mem_bytes as f64 / live_bytes.max(1) as f64,
            "B/B",
            live_bytes,
        ),
        (
            "telemetry.record_ns",
            record.median_ns,
            "ns",
            timed(&record),
        ),
        (
            "balancer.imbalance",
            imbalance(&lat_ops),
            "ratio",
            lat_ops.iter().sum(),
        ),
        ("balancer.migrations", migrations as f64, "count", 1),
        (
            "balancer.replica_installs",
            server.get(Counter::ReplicaInstalls) as f64,
            "count",
            1,
        ),
        (
            "balancer.plan_ns",
            plan.median_ns,
            "ns",
            data.monitor.snapshots.len() as u64,
        ),
        (
            "balancer.settle_s",
            settle,
            "s",
            data.monitor.samples.len() as u64,
        ),
        ("trace.overhead_frac", overhead, "frac", untraced as u64),
    ];
    (metrics, replays)
}

/// Median, minimum and median absolute deviation of each replay.
pub fn print_replays(replays: &Replays) {
    println!(
        "{:<18} {:>12} {:>12} {:>10} {:>12}",
        "replay", "median_ns", "min_ns", "mad_ns", "iterations"
    );
    for (name, t) in replays {
        println!(
            "{name:<18} {:>12.2} {:>12.2} {:>10.2} {:>7} x {:<2}",
            t.median_ns, t.min_ns, t.mad_ns, t.iters, t.reps
        );
    }
}

/// The metrics of a run's segments as one: counts summed, every other
/// value the median over the segments that report it.
pub fn combine(parts: &[Metrics]) -> Metrics {
    let mut out = Metrics::new();
    let mut values: Vec<Vec<f64>> = Vec::new();
    for part in parts {
        for &(name, value, unit, n) in part {
            match out.iter().position(|m| m.0 == name) {
                Some(i) => {
                    out[i].3 += n;
                    values[i].push(value);
                }
                None => {
                    out.push((name, 0.0, unit, n));
                    values.push(vec![value]);
                }
            }
        }
    }
    for (m, v) in out.iter_mut().zip(values) {
        m.1 = if m.2 == "count" {
            v.iter().sum()
        } else {
            median(&v)
        };
    }
    out
}

/// The value of metric `name`; 0 when `metrics` lacks it.
pub fn value(metrics: &Metrics, name: &str) -> f64 {
    metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1)
}

pub fn print_table(metrics: &Metrics) {
    println!(
        "{:<30} {:>16} {:<6} {:>10}",
        "metric", "value", "unit", "samples"
    );
    for (name, value, unit, n) in metrics {
        println!("{name:<30} {value:>16.4} {unit:<6} {n:>10}");
    }
}

/// The last stdout line: every per-layer metric when traced, the bounded
/// end-to-end metrics otherwise.
pub fn print_json(metrics: &Metrics, traced: bool, attempted: u64, failed: u64) {
    let body: Vec<String> = metrics
        .iter()
        .filter(|(name, ..)| traced || BOUNDED.contains(name))
        .map(|(name, value, unit, _)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}
