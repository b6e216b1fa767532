//! # swift-e2ebench — one benchmark for the simulator, the service front
//! door and the SQL engine
//!
//! One process runs one named workload as a closed loop: it repeats the
//! workload's round of operations, one at a time, for the run length,
//! checks every output, and prints one JSON result line. Each runtime is
//! measured from outside, by timing calls into its public functions.
//!
//! * Host-time metrics (unit `ref`) are medians over the run of one
//!   operation's wall time divided by the mean wall time of the
//!   [`refkernel`] run immediately before and after it.
//! * Sim-time metrics are exact functions of the seeded inputs.
//! * A traced run (`--trace 1`) alternates untraced and traced operations,
//!   times each public call, installs the public observers, and prints
//!   the per-layer metrics, the tracing overhead and the share of the
//!   operation time its layer spans cover.
//!
//! The workloads and the metric table are described in `README.md`.

pub mod metrics;
pub mod refkernel;
mod service_storm;
mod sql_tpch;
mod trace_replay;

use metrics::{registry, Metric, REF};
use refkernel::{RefKernel, NOMINAL_SECS};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use swift_cluster::MachineId;
use swift_sim::{SimDuration, SimRng, SimTime};

/// The layer spans of one traced operation, by metric name.
#[derive(Debug, Default)]
pub(crate) struct Layers {
    /// Spans with no child spans: their durations are self times and
    /// together cover the operation.
    leaves: Vec<(String, Duration)>,
    /// Spans that enclose leaves, reported but not summed for coverage.
    parents: Vec<(String, Duration)>,
}

impl Layers {
    /// Records a span with no child spans.
    pub(crate) fn leaf(&mut self, name: impl Into<String>, took: Duration) {
        self.leaves.push((name.into(), took));
    }

    /// Records a span whose time its child spans already cover.
    pub(crate) fn parent(&mut self, name: impl Into<String>, took: Duration) {
        self.parents.push((name.into(), took));
    }
}

/// One workload: its inputs, the checks on its outputs, and what it
/// measured so far.
pub(crate) trait Workload {
    /// The names of the operations of one round.
    fn ops(&self) -> &'static [&'static str];

    /// Runs operation `k` once and checks its output. Returns the wall
    /// time of the calls into the program; checks are not timed. With
    /// `layers`, the run is traced: the public observers are installed
    /// and the self time of every layer span is pushed.
    fn run_op(&mut self, k: usize, layers: Option<&mut Layers>) -> Result<Duration, String>;

    /// Generates the inputs again from the seed, checks they equal the
    /// ones in use, and returns the generation and construction time.
    fn regenerate(&self) -> Result<Duration, String>;

    /// Threads one operation runs on; the reference kernel uses as many.
    fn threads(&self) -> usize {
        1
    }

    /// The per-layer metrics this workload computes itself from the
    /// traced run: counts and sim-time figures.
    fn layer_metrics(&self) -> Vec<Metric>;
}

/// Builds `workload`'s inputs from `seed`. Returns the workload and the
/// wall time of its input generation and construction (reference results
/// the checks compare against are computed after, untimed).
fn build(workload: &str, seed: u64) -> Option<(Box<dyn Workload>, Duration)> {
    Some(match workload {
        "trace_replay" => {
            let (w, d) = trace_replay::TraceReplay::new(seed);
            (Box::new(w), d)
        }
        "service_storm" => {
            let (w, d) = service_storm::ServiceStorm::new(seed);
            (Box::new(w), d)
        }
        "sql_tpch" => {
            let (w, d) = sql_tpch::SqlTpch::new(seed);
            (Box::new(w), d)
        }
        _ => return None,
    })
}

/// Command-line configuration of one run.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured run length.
    pub seconds: u64,
    /// Traced run.
    pub traced: bool,
}

/// What one run prints.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Every check outside the operations held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check or panicked.
    pub failed: u64,
    /// Every metric of the registry, in its order.
    pub metrics: Vec<Metric>,
}

/// Median of `v` (mean of the middle two for an even count); NaN if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice, `q` in per-mille:
/// `sorted[ceil(q * n / 1000) - 1]`.
pub(crate) fn percentile(sorted: &[f64], permille: usize) -> f64 {
    let r = (permille * sorted.len()).div_ceil(1000).max(1);
    sorted[r - 1]
}

/// `n` times evenly spaced from `from` to `to`, both included.
pub(crate) fn evenly(n: u64, from: SimTime, to: SimTime) -> impl Iterator<Item = SimTime> {
    let step = to.saturating_since(from).as_micros() / n.max(2).saturating_sub(1);
    (0..n).map(move |i| from + SimDuration::from_micros(step * i))
}

/// One crash per entry of `times`, each on a distinct machine of
/// `0..machines` drawn from `rng`. The times do not depend on the seed, so
/// every seed loses the same capacity at the same moments; the seed
/// decides which machines, and so which work, the crashes hit.
pub(crate) fn machine_failures(
    rng: &mut SimRng,
    machines: u32,
    times: impl IntoIterator<Item = SimTime>,
) -> Vec<(SimTime, MachineId)> {
    let mut out: Vec<(SimTime, MachineId)> = Vec::new();
    for at in times {
        let m = loop {
            let m = MachineId(rng.range(0, u64::from(machines)) as u32);
            if out.iter().all(|&(_, x)| x != m) {
                break m;
            }
        };
        out.push((at, m));
    }
    out
}

/// The closed loop's bookkeeping.
struct Loop {
    kernel: RefKernel,
    /// The kernel run that ended right before the next operation.
    ref_prev: Duration,
    kernel_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Host-time ratios per operation, untraced and traced.
    untraced: Vec<Vec<f64>>,
    traced: Vec<Vec<f64>>,
    layers: BTreeMap<String, Vec<f64>>,
    coverage: Vec<f64>,
}

impl Loop {
    fn op(&mut self, w: &mut dyn Workload, k: usize, traced: bool, record: bool) {
        self.attempted += 1;
        let mut layers = Layers::default();
        let res = catch_unwind(AssertUnwindSafe(|| {
            w.run_op(k, traced.then_some(&mut layers))
        }));
        let after = self.kernel.time();
        let base = (self.ref_prev + after).as_secs_f64() / 2.0;
        self.ref_prev = after;
        self.kernel_ms.push(after.as_secs_f64() * 1e3);
        let took = match res {
            Ok(Ok(took)) => took,
            Ok(Err(msg)) => {
                self.failed += 1;
                eprintln!("e2ebench: {} failed: {msg}", w.ops()[k]);
                return;
            }
            Err(_) => {
                self.failed += 1;
                eprintln!("e2ebench: {} panicked", w.ops()[k]);
                return;
            }
        };
        if !record {
            return;
        }
        let ratio = took.as_secs_f64() / base;
        if !traced {
            self.untraced[k].push(ratio);
            return;
        }
        self.traced[k].push(ratio);
        let covered: f64 = layers.leaves.iter().map(|(_, t)| t.as_secs_f64()).sum();
        for (name, t) in layers.leaves.into_iter().chain(layers.parents) {
            self.layers
                .entry(name)
                .or_default()
                .push(t.as_secs_f64() / base);
        }
        self.coverage.push(covered / took.as_secs_f64());
    }

    fn round(&mut self, w: &mut dyn Workload, traced: bool, record: bool) {
        for k in 0..w.ops().len() {
            self.op(w, k, false, record);
            if traced {
                self.op(w, k, true, record);
            }
        }
    }
}

/// Runs one workload to the end of its run length. `process_start` is
/// taken first thing in `main`; `None` for an unknown workload.
pub fn run(cfg: &Config, process_start: Instant) -> Option<Outcome> {
    let before_build = process_start.elapsed();
    let (mut w, gen) = build(&cfg.workload, cfg.seed)?;
    let w = w.as_mut();
    let mut correct = true;

    // Set-up runs on one thread, so a 1-thread kernel scales it. The
    // first sample runs from process start and has a kernel run only
    // after it.
    let mut setup_kernel = RefKernel::new(1);
    setup_kernel.time(); // fault the work buffers in before the first sample
    let mut setup = vec![(before_build + gen).as_secs_f64() / setup_kernel.time().as_secs_f64()];

    let mut kernel = RefKernel::new(w.threads());
    kernel.time(); // fault the work buffers in before the first sample
    let ops = w.ops().len();
    let mut lp = Loop {
        ref_prev: kernel.time(),
        kernel,
        kernel_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        untraced: vec![Vec::new(); ops],
        traced: vec![Vec::new(); ops],
        layers: BTreeMap::new(),
        coverage: Vec::new(),
    };
    // Warm-up: one round, checked and counted, not timed.
    lp.round(w, cfg.traced, false);

    // Set-up is repeated across the run, every quarter second but taking
    // at most a fifth of it, so that its median rests on many samples
    // from the host's slow and fast phases alike.
    let measure = Instant::now();
    let length = Duration::from_secs(cfg.seconds);
    let gap = |took: Duration| (took * 5).max(Duration::from_millis(250));
    let mut next_setup = gap(gen);
    while measure.elapsed() < length {
        lp.round(w, cfg.traced, true);
        if measure.elapsed() >= next_setup {
            let before = setup_kernel.time();
            let res = w.regenerate();
            let after = setup_kernel.time();
            // So that the next operation's ratio rests on a kernel run made
            // right before it, not before the set-up.
            lp.ref_prev = lp.kernel.time();
            match res {
                Ok(d) => {
                    next_setup = measure.elapsed() + gap(d);
                    setup.push(d.as_secs_f64() / ((before + after).as_secs_f64() / 2.0));
                }
                Err(msg) => {
                    next_setup = measure.elapsed() + gap(gen);
                    correct = false;
                    eprintln!("e2ebench: regenerated inputs differ: {msg}");
                }
            }
        }
    }

    let mut values: BTreeMap<String, Metric> = BTreeMap::new();
    let mut put = |m: Metric| {
        values.insert(m.name.clone(), m);
    };
    if cfg.traced {
        put(Metric::new(
            "swift-workload.gen_s",
            "s",
            median(&setup) * NOMINAL_SECS,
        ));
        for (name, samples) in &lp.layers {
            put(Metric::new(name.clone(), REF, median(samples)));
        }
        let overhead: f64 = (0..ops)
            .map(|k| median(&lp.traced[k]) - median(&lp.untraced[k]))
            .sum();
        put(Metric::new("bench.trace_overhead", REF, overhead));
        let coverage = median(&lp.coverage);
        let covered = coverage >= 0.9;
        if !covered {
            correct = false;
            eprintln!("e2ebench: layer spans cover only {coverage:.3} of the operation time");
        }
        put(Metric::new("bench.coverage", "ratio", coverage));
        for m in w.layer_metrics() {
            put(m);
        }
    } else {
        put(Metric::new("setup_s", "s", median(&setup) * NOMINAL_SECS));
        put(Metric::new("peak_rss_mb", "MB", peak_rss_mb()));
        // The geometric mean weighs every operation of the round alike,
        // so a change to the shortest one shows as much as one to the
        // longest.
        let log_sum: f64 = (0..ops).map(|k| median(&lp.untraced[k]).ln()).sum();
        put(Metric::new("op_time", REF, (log_sum / ops as f64).exp()));
    }

    eprintln!(
        "e2ebench: {} seed {} {}: {} ops ({} failed), reference kernel median {:.3} ms, {} set-ups",
        cfg.workload,
        cfg.seed,
        if cfg.traced { "traced" } else { "untraced" },
        lp.attempted,
        lp.failed,
        median(&lp.kernel_ms),
        setup.len(),
    );
    let expected = registry(cfg.traced);
    let mut metrics = Vec::with_capacity(expected.len());
    for e in expected {
        if !e.measured_by(&cfg.workload) {
            metrics.push(Metric::new(e.name, e.unit, 0.0));
            continue;
        }
        match values.remove(&e.name) {
            Some(m) if m.unit == e.unit && m.value.is_finite() => metrics.push(m),
            other => {
                correct = false;
                eprintln!(
                    "e2ebench: metric {} ({}) not measured: {other:?}",
                    e.name, e.unit
                );
            }
        }
    }
    for name in values.keys() {
        correct = false;
        eprintln!("e2ebench: metric {name} is not in the registry");
    }
    Some(Outcome {
        correct,
        attempted: lp.attempted,
        failed: lp.failed,
        metrics,
    })
}

/// Peak resident set size of this process, MB: the `VmHWM` line of
/// `/proc/self/status`, which counts this program's own address space only.
/// (`getrusage`'s `ru_maxrss` would also count the image of the parent
/// that forked it, e.g. `cargo run`'s.)
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let s: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(percentile(&s, 500), 1000.0);
        assert_eq!(percentile(&s, 995), 1990.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
