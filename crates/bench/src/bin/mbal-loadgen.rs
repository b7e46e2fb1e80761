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

use mbal_balancer::PhaseSet;
use mbal_bench::loadgen::{
    compare_to_baseline_with, run_cell, run_matrix, CellResult, DefenseMode, LoadgenConfig,
    LoadgenReport, Mix, TenancyMode, TransportMode,
};
use mbal_scenario::{AutoscalerConfig, DiurnalCurve};

fn flag(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn usage() -> ! {
    eprintln!(
        "usage: mbal-loadgen [--mix M1,M2] [--phases P1,P2] [--defense D] \
         [--rate OPS] [--threads N] [--warmup-secs S] [--measure-secs S] [--records N] [--seed N] \
         [--transport inproc|tcp] [--servers N] [--workers N] [--out PATH] \
         [--diurnal flat|two-phase:LOW|T:M,T:M,…] [--autoscale on|off] [--spares N] \
         [--origin-fetch-ms MS] [--compare BASELINE.json [--tolerance FRAC]]\n\
         mixes: ycsb-a ycsb-b ycsb-c hotshift ttl-heavy multi-tenant extreme-zipf \
         video-cdn social-feed session-store; \
         phases: off p1 p2 p3 p1p2 all …; \
         defenses: off front bounded both\n\
         (multi-tenant runs each cell twice: static partitioning, then arbitrated; \
         extreme-zipf runs each cell once per defense combination; --autoscale holds \
         --spares cold nodes the reactive scaler can join on the diurnal ramp)"
    );
    std::process::exit(2);
}

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

fn parse_list<T>(raw: Option<String>, default: &[T], parse: impl Fn(&str) -> Option<T>) -> Vec<T>
where
    T: Copy,
{
    match raw {
        None => default.to_vec(),
        Some(s) => {
            let out: Vec<T> = s.split(',').filter_map(|p| parse(p.trim())).collect();
            if out.is_empty() || out.len() != s.split(',').count() {
                usage();
            }
            out
        }
    }
}

fn main() {
    let mixes = parse_list(flag("--mix"), &[Mix::B, Mix::HotShift], Mix::parse);
    let phase_sets = parse_list(
        flag("--phases"),
        &[PhaseSet::none(), PhaseSet::all()],
        PhaseSet::parse,
    );
    let num = |name: &str, default: u64| -> u64 {
        flag(name).map_or(default, |v| v.parse().unwrap_or_else(|_| usage()))
    };
    let secs = |name: &str, default: f64| -> f64 {
        flag(name).map_or(default, |v| v.parse().unwrap_or_else(|_| usage()))
    };
    let base = LoadgenConfig {
        mix: mixes[0],
        phases: phase_sets[0],
        rate: num("--rate", 20_000),
        threads: num("--threads", 4) as usize,
        warmup_secs: secs("--warmup-secs", 1.0),
        measure_secs: secs("--measure-secs", 4.0),
        records: num("--records", 10_000),
        seed: num("--seed", 42),
        transport: flag("--transport").map_or(TransportMode::InProc, |v| {
            TransportMode::parse(&v).unwrap_or_else(|| usage())
        }),
        servers: num("--servers", 2) as u16,
        workers_per_server: num("--workers", 2) as u16,
        tenancy: TenancyMode::Off,
        defense: flag("--defense").map_or(DefenseMode::Off, |v| {
            DefenseMode::parse(&v).unwrap_or_else(|| usage())
        }),
        diurnal: flag("--diurnal").and_then(|v| parse_diurnal(&v).unwrap_or_else(|| usage())),
        autoscale: flag("--autoscale").and_then(|v| match v.as_str() {
            "on" => Some(AutoscalerConfig::default()),
            "off" => None,
            _ => usage(),
        }),
        spares: num("--spares", 0) as u16,
        origin_fetch_ms: num("--origin-fetch-ms", 0),
    };
    let out_path = flag("--out").unwrap_or_else(|| "BENCH_results.json".into());

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
    std::fs::write(&out_path, &json).expect("write report");
    eprintln!("wrote {out_path}");

    // Perf-trajectory gate: against a committed baseline report, any
    // matching cell whose p99 regresses past the tolerance fails the
    // run (and CI with it). A failing cell is independently re-measured
    // (fresh cluster, same replayed schedule, up to twice) before it
    // counts: the CO-safe clock charges scheduler stalls to p99, so a
    // single stall on a small runner blows one arbitrary cell's budget
    // — but a genuine regression reproduces on every recheck.
    if let Some(baseline_path) = flag("--compare") {
        let tolerance: f64 =
            flag("--tolerance").map_or(0.20, |v| v.parse().unwrap_or_else(|_| usage()));
        let raw = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
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
