//! Worker-level snapshot and wire-facing stats report types.
//!
//! [`WorkerSnapshot`] is the per-epoch load descriptor the balancer
//! planners consume (it replaces the old bespoke `WorkerLoad` struct in
//! `mbal-balancer`, which now re-exports this type), extended with a
//! full [`MetricsSnapshot`]. [`StatsReport`] is the JSON payload served
//! by the `Stats` RPC, and [`render_prometheus`] formats a set of
//! reports in the Prometheus text exposition format.

use crate::histogram::LatencyPercentiles;
use crate::registry::MetricsSnapshot;
use mbal_core::stats::CacheletLoad;
use mbal_core::types::WorkerAddr;
use mbal_tenant::TenantLoad;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The load/memory/metrics state of one worker, as fed to the
/// migration planners and served over the `Stats` RPC.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerSnapshot {
    /// The worker's cluster-wide address.
    pub addr: WorkerAddr,
    /// Per-cachelet loads (request rates) and memory.
    pub cachelets: Vec<CacheletLoad>,
    /// Maximum permissible load `T_j` (ops/s), computed experimentally
    /// per instance type in the paper (footnote 2).
    pub load_capacity: f64,
    /// Memory capacity `M_j` in bytes.
    pub mem_capacity: u64,
    /// Full metrics snapshot for the worker (counters, gauges, latency
    /// histograms). Defaults to empty when absent, so pre-telemetry
    /// serialized snapshots still deserialize.
    #[serde(default)]
    pub metrics: MetricsSnapshot,
    /// Per-tenant accounting rows (resident bytes, budgets, hit/miss
    /// counters, and the marginal-utility signal the memory arbiter
    /// consumes). Empty on servers without multi-tenancy configured,
    /// and when deserializing pre-tenancy snapshots.
    #[serde(default)]
    pub tenants: Vec<TenantLoad>,
}

impl WorkerSnapshot {
    /// Total current load `L*_j`.
    pub fn total_load(&self) -> f64 {
        self.cachelets.iter().map(|c| c.load).sum()
    }

    /// Total memory in use `M*_j`.
    pub fn total_mem(&self) -> u64 {
        self.cachelets.iter().map(|c| c.mem_bytes).sum()
    }

    /// `true` when above `factor × load_capacity`.
    pub fn is_overloaded(&self, factor: f64) -> bool {
        self.total_load() > factor * self.load_capacity
    }
}

/// The payload answered to a `Stats` RPC: the worker's snapshot plus
/// precomputed latency percentile summaries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReport {
    /// The worker's load + metrics snapshot.
    pub load: WorkerSnapshot,
    /// Percentile summary of the read-path latency histogram (µs).
    pub read_latency: LatencyPercentiles,
    /// Percentile summary of the write-path latency histogram (µs).
    pub write_latency: LatencyPercentiles,
}

impl StatsReport {
    /// Builds a report from a snapshot, extracting percentile
    /// summaries from its latency histograms.
    pub fn from_snapshot(load: WorkerSnapshot) -> Self {
        let read_latency = load.metrics.read_latency();
        let write_latency = load.metrics.write_latency();
        Self {
            load,
            read_latency,
            write_latency,
        }
    }

    /// Named-metric dump in memcached `stats` style: one
    /// `(name, value)` line per counter, gauge, and latency summary
    /// field, in stable catalog order.
    pub fn named_dump(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (name, v) in self.load.metrics.counters_named() {
            out.push((name.to_string(), v.to_string()));
        }
        for (name, v) in self.load.metrics.gauges_named() {
            out.push((name.to_string(), v.to_string()));
        }
        out.push((
            "total_load".to_string(),
            format!("{:.3}", self.load.total_load()),
        ));
        for t in &self.load.tenants {
            let p = format!("tenant_{}", t.tenant.0);
            out.push((format!("{p}_resident_bytes"), t.resident_bytes.to_string()));
            out.push((format!("{p}_budget_bytes"), t.budget_bytes.to_string()));
            out.push((format!("{p}_gets"), t.gets.to_string()));
            out.push((format!("{p}_hits"), t.hits.to_string()));
            out.push((format!("{p}_evictions"), t.evictions.to_string()));
            out.push((format!("{p}_hit_rate"), format!("{:.4}", t.hit_rate())));
        }
        for (prefix, p) in [("read", &self.read_latency), ("write", &self.write_latency)] {
            out.push((format!("{prefix}_latency_count"), p.count.to_string()));
            out.push((
                format!("{prefix}_latency_mean_us"),
                format!("{:.1}", p.mean_us),
            ));
            out.push((format!("{prefix}_latency_p50_us"), p.p50_us.to_string()));
            out.push((format!("{prefix}_latency_p90_us"), p.p90_us.to_string()));
            out.push((format!("{prefix}_latency_p95_us"), p.p95_us.to_string()));
            out.push((format!("{prefix}_latency_p99_us"), p.p99_us.to_string()));
            out.push((format!("{prefix}_latency_p999_us"), p.p999_us.to_string()));
            out.push((format!("{prefix}_latency_max_us"), p.max_us.to_string()));
        }
        out
    }
}

/// Renders worker reports in the Prometheus text exposition format
/// (version 0.0.4): counters as `mbal_<name>_total`, gauges as
/// `mbal_<name>`, latency summaries as `mbal_<path>_latency_us`
/// quantile series, each labeled with `server` and `worker`.
pub fn render_prometheus(reports: &[StatsReport]) -> String {
    let mut out = String::new();
    for r in reports {
        let server = r.load.addr.server.0;
        let worker = r.load.addr.worker.0;
        let labels = format!("server=\"{server}\",worker=\"{worker}\"");
        for (name, v) in r.load.metrics.counters_named() {
            let _ = writeln!(out, "mbal_{name}_total{{{labels}}} {v}");
        }
        for (name, v) in r.load.metrics.gauges_named() {
            let _ = writeln!(out, "mbal_{name}{{{labels}}} {v}");
        }
        let _ = writeln!(out, "mbal_total_load{{{labels}}} {}", r.load.total_load());
        for t in &r.load.tenants {
            let tl = format!("{labels},tenant=\"{}\"", t.tenant.0);
            let _ = writeln!(
                out,
                "mbal_tenant_resident_bytes{{{tl}}} {}",
                t.resident_bytes
            );
            let _ = writeln!(out, "mbal_tenant_budget_bytes{{{tl}}} {}", t.budget_bytes);
            let _ = writeln!(out, "mbal_tenant_gets_total{{{tl}}} {}", t.gets);
            let _ = writeln!(out, "mbal_tenant_hits_total{{{tl}}} {}", t.hits);
            let _ = writeln!(out, "mbal_tenant_sets_total{{{tl}}} {}", t.sets);
            let _ = writeln!(out, "mbal_tenant_evictions_total{{{tl}}} {}", t.evictions);
            let _ = writeln!(out, "mbal_tenant_hit_rate{{{tl}}} {:.6}", t.hit_rate());
            let _ = writeln!(
                out,
                "mbal_tenant_marginal_hits_per_mb{{{tl}}} {:.6}",
                t.marginal_hits_per_mb
            );
        }
        for (path, p) in [("read", &r.read_latency), ("write", &r.write_latency)] {
            for (q, v) in [
                ("0.5", p.p50_us),
                ("0.9", p.p90_us),
                ("0.95", p.p95_us),
                ("0.99", p.p99_us),
                ("0.999", p.p999_us),
            ] {
                let _ = writeln!(
                    out,
                    "mbal_{path}_latency_us{{{labels},quantile=\"{q}\"}} {v}"
                );
            }
            let _ = writeln!(out, "mbal_{path}_latency_us_count{{{labels}}} {}", p.count);
            let _ = writeln!(out, "mbal_{path}_latency_us_max{{{labels}}} {}", p.max_us);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{Counter, Gauge, MetricsShard};
    use mbal_core::types::CacheletId;

    fn sample_snapshot() -> WorkerSnapshot {
        let shard = MetricsShard::new();
        shard.incr(Counter::Ops);
        shard.incr(Counter::Gets);
        shard.incr(Counter::GetHits);
        shard.set_gauge(Gauge::CacheletsOwned, 2);
        shard.add(Counter::Evictions, 3);
        shard.add(Counter::ExpiredBytes, 1_024);
        shard.record_read_us(120);
        shard.record_write_us(300);
        WorkerSnapshot {
            addr: WorkerAddr::new(1, 2),
            cachelets: vec![
                CacheletLoad {
                    cachelet: CacheletId(7),
                    load: 10.0,
                    mem_bytes: 512,
                    read_ratio: 0.9,
                },
                CacheletLoad {
                    cachelet: CacheletId(8),
                    load: 5.0,
                    mem_bytes: 256,
                    read_ratio: 0.5,
                },
            ],
            load_capacity: 1000.0,
            mem_capacity: 1 << 20,
            metrics: shard.snapshot(),
            tenants: vec![TenantLoad {
                tenant: mbal_core::types::TenantId(3),
                resident_bytes: 4_096,
                budget_bytes: 8_192,
                reserved_bytes: 1_024,
                ceiling_bytes: 16_384,
                gets: 10,
                hits: 7,
                sets: 2,
                evictions: 1,
                marginal_hits_per_mb: 0.5,
            }],
        }
    }

    #[test]
    fn totals_and_overload() {
        let w = sample_snapshot();
        assert_eq!(w.total_load(), 15.0);
        assert_eq!(w.total_mem(), 768);
        assert!(w.is_overloaded(0.01));
        assert!(!w.is_overloaded(0.5));
    }

    #[test]
    fn report_extracts_percentiles() {
        let r = StatsReport::from_snapshot(sample_snapshot());
        assert_eq!(r.read_latency.count, 1);
        assert!(r.read_latency.p50_us > 0);
        assert_eq!(r.write_latency.count, 1);
        let dump = r.named_dump();
        assert!(dump.iter().any(|(k, v)| k == "ops" && v == "1"));
        assert!(dump.iter().any(|(k, _)| k == "read_latency_p99_us"));
    }

    #[test]
    fn snapshot_deserializes_without_metrics_field() {
        // Back-compat: a pre-telemetry WorkerLoad JSON blob (no
        // `metrics` key) must still parse, with empty metrics.
        let json = r#"{
            "addr": {"server": 0, "worker": 3},
            "cachelets": [],
            "load_capacity": 100.0,
            "mem_capacity": 1048576
        }"#;
        let w: WorkerSnapshot = serde_json::from_str(json).expect("parse");
        assert_eq!(w.addr, WorkerAddr::new(0, 3));
        assert_eq!(w.metrics.ops(), 0);
        assert!(w.tenants.is_empty(), "pre-tenancy snapshots parse");
    }

    #[test]
    fn serde_roundtrip() {
        let r = StatsReport::from_snapshot(sample_snapshot());
        let json = serde_json::to_string(&r).expect("serialize");
        let back: StatsReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, r);
    }

    #[test]
    fn prometheus_rendering_has_expected_lines() {
        let r = StatsReport::from_snapshot(sample_snapshot());
        let text = render_prometheus(std::slice::from_ref(&r));
        assert!(text.contains("mbal_ops_total{server=\"1\",worker=\"2\"} 1"));
        assert!(text.contains("mbal_cachelets_owned{server=\"1\",worker=\"2\"} 2"));
        // Storage-engine reclamation counters reach the scrape surface.
        assert!(text.contains("mbal_evictions_total{server=\"1\",worker=\"2\"} 3"));
        assert!(text.contains("mbal_expired_bytes_total{server=\"1\",worker=\"2\"} 1024"));
        assert!(text.contains("quantile=\"0.99\""));
        assert!(text.contains("mbal_read_latency_us_count{server=\"1\",worker=\"2\"} 1"));
        // Tenant accounting reaches the scrape surface, tenant-labeled.
        assert!(text
            .contains("mbal_tenant_resident_bytes{server=\"1\",worker=\"2\",tenant=\"3\"} 4096"));
        assert!(text.contains("mbal_tenant_hit_rate{server=\"1\",worker=\"2\",tenant=\"3\"} 0.7"));
        // Every line is `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.contains('{') && line.contains("} "),
                "bad line: {line}"
            );
        }
    }
}
