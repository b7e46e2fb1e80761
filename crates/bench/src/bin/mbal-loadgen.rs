//! `mbal-loadgen` — the open-loop, coordinated-omission-safe load
//! harness over the real client/server stack.
//!
//! Runs a matrix of YCSB mixes × balancer phase configurations, prints
//! a human-readable summary, and writes the machine-readable report to
//! `BENCH_results.json` (or `--out PATH`).
//!
//! ```text
//! mbal-loadgen --mix ycsb-b,hotshift --phases off,p1,p1p2,all \
//!     --rate 20000 --threads 4 --warmup-secs 1 --measure-secs 4 \
//!     --records 10000 --seed 42 --transport inproc --out BENCH_results.json
//! ```
//!
//! An unknown flag, a flag without a value, or a value that does not
//! parse prints a usage error and exits with status 2 before any cell
//! runs.

use mbal_balancer::PhaseSet;
use mbal_bench::loadgen::{
    compare_to_baseline_with, run_cell, run_matrix, CellResult, DefenseMode, LoadgenConfig,
    LoadgenReport, Mix, TenancyMode, TransportMode,
};
use mbal_scenario::{AutoscalerConfig, DiurnalCurve};
use mbal_server::cli::Args;

const USAGE: &str = "usage: mbal-loadgen [--mix M1,M2] [--phases P1,P2] [--defense D] \
[--rate OPS] [--threads N] [--warmup-secs S] [--measure-secs S] [--records N] [--seed N] \
[--transport inproc|tcp] [--servers N] [--workers N] [--out PATH] \
[--diurnal flat|two-phase:LOW|T:M,T:M,…] [--autoscale on|off] [--spares N] \
[--origin-fetch-ms MS] [--compare BASELINE.json [--tolerance FRAC]]
mixes: ycsb-a ycsb-b ycsb-c hotshift ttl-heavy multi-tenant extreme-zipf \
video-cdn social-feed session-store; \
phases: off p1 p2 p3 p1p2 all …; \
defenses: off front bounded both
(multi-tenant runs each cell twice: static partitioning, then arbitrated; \
extreme-zipf runs each cell once per defense combination; --autoscale holds \
--spares cold nodes the reactive scaler can join on the diurnal ramp)";

/// `flat` → no curve; `two-phase:LOW` → the canonical day/night shape;
/// anything else is raw `t:mult,t:mult` control points.
fn parse_diurnal(s: &str) -> Option<Option<DiurnalCurve>> {
    if s == "flat" {
        return Some(None);
    }
    if let Some(low) = s.strip_prefix("two-phase:") {
        return low.parse().ok().map(|l| Some(DiurnalCurve::two_phase(l)));
    }
    DiurnalCurve::parse(s).map(Some)
}

/// The comma list in flag `name`, each item parsed by `parse`, or
/// `default` when the flag is absent; any item that does not parse is a
/// usage error.
fn parse_list<T: Copy>(
    args: &Args,
    name: &str,
    default: &[T],
    parse: impl Fn(&str) -> Option<T>,
) -> Vec<T> {
    let Some(s) = args.raw(name) else {
        return default.to_vec();
    };
    s.split(',')
        .map(|p| parse(p.trim()))
        .collect::<Option<Vec<T>>>()
        .unwrap_or_else(|| args.usage_error(&format!("bad {name} value {s:?}")))
}

fn main() {
    let args = Args::parse("mbal-loadgen", USAGE, std::env::args().skip(1));
    if let Some(arg) = args.positional.first() {
        args.usage_error(&format!("unexpected argument {arg:?}"));
    }
    let mixes = parse_list(&args, "--mix", &[Mix::B, Mix::HotShift], Mix::parse);
    let phase_sets = parse_list(
        &args,
        "--phases",
        &[PhaseSet::none(), PhaseSet::all()],
        PhaseSet::parse,
    );
    let base = LoadgenConfig {
        mix: mixes[0],
        phases: phase_sets[0],
        rate: args.get_or("--rate", 20_000),
        threads: args.get_or("--threads", 4),
        warmup_secs: args.get_or("--warmup-secs", 1.0),
        measure_secs: args.get_or("--measure-secs", 4.0),
        records: args.get_or("--records", 10_000),
        seed: args.get_or("--seed", 42),
        transport: args
            .parsed("--transport", TransportMode::parse)
            .unwrap_or(TransportMode::InProc),
        servers: args.get_or("--servers", 2),
        workers_per_server: args.get_or("--workers", 2),
        tenancy: TenancyMode::Off,
        defense: args
            .parsed("--defense", DefenseMode::parse)
            .unwrap_or(DefenseMode::Off),
        diurnal: args.parsed("--diurnal", parse_diurnal).flatten(),
        autoscale: args
            .parsed("--autoscale", |v| match v {
                "on" => Some(Some(AutoscalerConfig::default())),
                "off" => Some(None),
                _ => None,
            })
            .flatten(),
        spares: args.get_or("--spares", 0),
        origin_fetch_ms: args.get_or("--origin-fetch-ms", 0),
    };
    let out_path = args.raw("--out").unwrap_or("BENCH_results.json");

    eprintln!(
        "mbal-loadgen: {} mix(es) × {} phase set(s), {} ops/s over {} thread(s), \
         {:.1}s warmup + {:.1}s measure, transport {}",
        mixes.len(),
        phase_sets.len(),
        base.rate,
        base.threads,
        base.warmup_secs,
        base.measure_secs,
        base.transport.label()
    );
    let report = run_matrix(&base, &mixes, &phase_sets);

    println!(
        "{:<12} {:<6} {:<10} {:<8} {:>9} {:>8} {:>8} {:>8} {:>8} {:>6} {:>6}  reconciled",
        "mix",
        "phases",
        "tenancy",
        "defense",
        "rate",
        "p50µs",
        "p99µs",
        "p999µs",
        "maxµs",
        "worst",
        "spills",
    );
    for c in &report.cells {
        println!(
            "{:<12} {:<6} {:<10} {:<8} {:>9.0} {:>8} {:>8} {:>8} {:>8} {:>6.2} {:>6}  {}",
            c.mix,
            c.phases,
            c.tenancy,
            c.defense,
            c.achieved_rate,
            c.latency.p50_us,
            c.latency.p99_us,
            c.latency.p999_us,
            c.latency.max_us,
            c.worst_worker_utilization,
            c.server.ring_cap_spills,
            if c.counts_reconciled { "exact" } else { "—" }
        );
        for t in &c.tenants {
            println!(
                "       tenant {:<3} {:<5} hit {:>6.3} p50 {:>6}µs p99 {:>6}µs \
                 resident {:>10} budget {:>10} evict {:>7}",
                t.tenant,
                if t.noisy { "noisy" } else { "quiet" },
                t.hit_rate,
                t.p50_us,
                t.p99_us,
                t.resident_bytes,
                t.budget_bytes,
                t.evictions,
            );
        }
    }
    for d in &report.phase_deltas {
        println!(
            "delta {:<10} {:<6} p99 {:+}µs p999 {:+}µs mqps {:+.4}",
            d.mix, d.phases, d.p99_improvement_us, d.p999_improvement_us, d.mqps_delta
        );
    }
    for d in &report.defense_deltas {
        println!(
            "defense-delta {:<12} {:<6} {:<8} p99 {:+}µs p999 {:+}µs worst {:+.2} \
             front-hit {:.3} spills {}",
            d.mix,
            d.phases,
            d.defense,
            d.p99_improvement_us,
            d.p999_improvement_us,
            d.worst_worker_utilization_drop,
            d.front_hit_rate,
            d.ring_cap_spills,
        );
    }
    for d in &report.tenant_deltas {
        println!(
            "tenant-delta {:<6} arbitrated−static hit-rate: overall {:+.4} quiet {:+.4} \
             noisy {:+.4}",
            d.phases, d.overall_hit_rate_gain, d.quiet_hit_rate_gain, d.noisy_hit_rate_gain,
        );
    }

    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(out_path, &json).expect("write report");
    eprintln!("wrote {out_path}");

    // Perf-trajectory gate: against a committed baseline report, any
    // matching cell whose p99 regresses past the tolerance fails the
    // run (and CI with it). A failing cell is independently re-measured
    // (fresh cluster, same replayed schedule, up to twice) before it
    // counts: the CO-safe clock charges scheduler stalls to p99, so a
    // single stall on a small runner blows one arbitrary cell's budget
    // — but a genuine regression reproduces on every recheck.
    if let Some(baseline_path) = args.raw("--compare") {
        let tolerance: f64 = args.get_or("--tolerance", 0.20);
        let raw = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
            eprintln!("mbal-loadgen: cannot read baseline {baseline_path}: {e}");
            std::process::exit(1);
        });
        let baseline: LoadgenReport = serde_json::from_str(&raw).unwrap_or_else(|e| {
            eprintln!("mbal-loadgen: malformed baseline {baseline_path}: {e}");
            std::process::exit(1);
        });
        let recheck = |cell: &CellResult| -> Option<CellResult> {
            let cfg = LoadgenConfig {
                mix: Mix::parse(&cell.mix)?,
                phases: PhaseSet::parse(&cell.phases)?,
                transport: TransportMode::parse(&cell.transport)?,
                tenancy: match cell.tenancy.as_str() {
                    "static" => TenancyMode::Static,
                    "arbitrated" => TenancyMode::Arbitrated,
                    _ => TenancyMode::Off,
                },
                defense: DefenseMode::parse(&cell.defense)?,
                diurnal: match cell.diurnal.as_str() {
                    "" | "flat" => None,
                    s => Some(DiurnalCurve::parse(s)?),
                },
                autoscale: (cell.autoscale == "on").then(AutoscalerConfig::default),
                ..base.clone()
            };
            eprintln!(
                "baseline gate: re-measuring {}/{}/{}/{} (transient-stall check)",
                cell.mix, cell.phases, cell.tenancy, cell.defense
            );
            Some(run_cell(&cfg))
        };
        let failures = compare_to_baseline_with(&report, &baseline, tolerance, recheck);
        if failures.is_empty() {
            eprintln!(
                "baseline gate: all matching cells within {:.0}% of {baseline_path}",
                tolerance * 100.0
            );
        } else {
            for f in &failures {
                eprintln!("baseline gate FAIL: {f}");
            }
            std::process::exit(1);
        }
    }
}
