//! Metric names, units and the result line.
//!
//! [`registry`] is the one list of what every run prints: untraced runs
//! print the end-to-end metrics, traced runs the per-layer metrics, and
//! every workload prints all of them. `BENCHMARK.json` lists the same
//! names; the self-test checks that the two agree and that every run
//! prints exactly the registry.

use std::fmt::Write as _;

/// Host time in reference-kernel runs (see [`crate::refkernel`]).
pub const REF: &str = "ref";

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, unique across the benchmark.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["trace_replay", "service_storm", "sql_tpch"];

/// The engine operations of `sql_tpch`, in round order.
pub const SQL_OPS: [&str; 4] = ["q9_sort", "q9_hash", "q13", "sort"];

/// The operations of `sql_tpch` that start from SQL text.
pub const SQL_QUERIES: [&str; 3] = ["q9_sort", "q9_hash", "q13"];

/// One metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The one workload that runs the layer this metric measures, or
    /// `None` if every workload measures it. Every workload prints every
    /// metric; on the others a layer metric reads 0, since its layer
    /// does no work there.
    pub only: Option<&'static str>,
}

impl Entry {
    /// Whether `workload` measures this metric.
    pub fn measured_by(&self, workload: &str) -> bool {
        self.only.is_none_or(|w| w == workload)
    }
}

/// Every metric printed with tracing off (`traced = false`, the
/// end-to-end metrics) or on (the per-layer metrics), in
/// `BENCHMARK.json` order.
pub fn registry(traced: bool) -> Vec<Entry> {
    let mut out = Vec::new();
    let mut add = |only: Option<&'static str>, name: String, unit: &'static str| {
        out.push(Entry { name, unit, only });
    };
    if !traced {
        add(None, "setup_s".into(), "s");
        add(None, "peak_rss_mb".into(), "MB");
        add(None, "op_time".into(), REF);
        return out;
    }
    add(None, "swift-workload.gen_s".into(), "s");
    let replay = Some("trace_replay");
    for (name, unit) in [
        ("swift-scheduler.sim_new", REF),
        ("swift-scheduler.sim_run", REF),
        ("swift-scheduler.report_digest", REF),
        ("swift-sim.events", "count"),
        ("swift-scheduler.tasks_started", "count"),
        ("swift-scheduler.template_hits", "count"),
        ("swift-scheduler.gang_wait_sim_s", "s"),
        ("swift-scheduler.idle_ratio", "ratio"),
        ("swift-scheduler.job_p50_sim_s", "s"),
        ("swift-scheduler.job_p995_sim_s", "s"),
        ("swift-ft.recoveries", "count"),
        ("swift-ft.rerun_tasks", "count"),
    ] {
        add(replay, name.into(), unit);
    }
    let service = Some("service_storm");
    for (name, unit) in [
        ("swift-service.new", REF),
        ("swift-service.run", REF),
        ("swift-service.report_digest", REF),
        ("swift-service.controller", REF),
        ("swift-service.inner_build", REF),
        ("swift-service.inner_run", REF),
        ("swift-service.inner_digest", REF),
        ("swift-service.events", "count"),
        ("swift-service.inner_events", "count"),
        ("swift-service.template_hits", "count"),
        ("swift-service.warm_hits", "count"),
        ("swift-service.cold_starts", "count"),
        ("swift-service.sched_p50_sim_s", "s"),
        ("swift-service.sched_p999_sim_s", "s"),
        ("swift-service.peak_queue_depth", "count"),
        ("swift-service.restarted_jobs", "count"),
        ("swift-service.lost_exec_sim_s", "s"),
        ("swift-service.job_p50_sim_s", "s"),
        ("swift-service.job_p999_sim_s", "s"),
        ("swift-service.jobs_per_sim_s", "1/s"),
    ] {
        add(service, name.into(), unit);
    }
    let sql = Some("sql_tpch");
    for q in SQL_QUERIES {
        add(sql, format!("swift-sql.parse.{q}"), REF);
        add(sql, format!("swift-sql.plan.{q}"), REF);
    }
    for q in SQL_OPS {
        add(sql, format!("swift-engine.exec.{q}"), REF);
        add(sql, format!("swift-engine.tasks_run.{q}"), "count");
        add(sql, format!("swift-shuffle.shuffled_bytes.{q}"), "bytes");
        add(sql, format!("swift-dag.graphlets.{q}"), "count");
    }
    add(sql, "swift-shuffle.spilled_bytes.sort".into(), "bytes");
    add(None, "bench.trace_overhead".into(), REF);
    add(None, "bench.coverage".into(), "ratio");
    out
}

/// Renders the result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`. Values are finite (the runner drops any other)
/// and print with all their digits (Rust's shortest round-trip form).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for traced in [false, true] {
            for e in registry(traced) {
                assert!(seen.insert(e.name.clone()), "{} listed twice", e.name);
                assert!(e.only.is_none_or(|w| WORKLOADS.contains(&w)), "{}", e.name);
            }
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 4, 0, &[Metric::new("a", "s", 0.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
