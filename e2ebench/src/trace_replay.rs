//! `trace_replay`: one large simulation.
//!
//! One operation is `Simulation::new` + `run` + `RunReport::digest` over
//! a seeded 2 000-job Fig. 8 trace on the 2 000-machine × 32-executor
//! cluster with the default `SimConfig::swift()`, Fig. 15 task failures in
//! 30 % of the jobs and a few machine crashes. It has a long event queue,
//! planning for 2 000 jobs, recovery and a digest, so queue, planning,
//! template-default and digest changes show here.

use crate::metrics::Metric;
use crate::{evenly, machine_failures, median, percentile, Layers, Workload};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};
use swift_cluster::{Cluster, CostModel, MachineId};
use swift_dag::{JobDag, TaskId};
use swift_ft::{FailureKind, RecoveryPlan};
use swift_scheduler::{
    FailureAt, FailureInjection, JobSpec, RecoveryContext, RunReport, SimConfig, SimObserver,
    Simulation, TemplateDecision, TemplateOutcome,
};
use swift_sim::{SimDuration, SimRng, SimTime};
use swift_workload::{failure_injections, generate_trace, TraceConfig};

/// Jobs in the trace.
const JOBS: usize = 2_000;
/// Cluster shape (the paper's 2 000-node deployment).
const MACHINES: u32 = 2_000;
const EXECUTORS_PER_MACHINE: u32 = 32;
/// Seed of the trace itself (the generator's default). The trace is the
/// same in every run so that its job latencies compare across runs: job
/// runtimes are log-normal, and from one trace seed to the next the
/// p99.5 latency moves by about 11 % (interquartile range over ten seeds).
/// The run's `--seed` draws the failures instead.
const TRACE_SEED: u64 = 20_210_419;
/// Share of jobs that get one Fig. 8a-timed task failure (Fig. 15).
const FAILING_JOB_SHARE: f64 = 0.3;
/// Seed of the failure draw (the one `fig15_trace_failures` uses).
const FAILURE_SEED: u64 = 77;
/// Machine crashes, evenly spaced over the last 90 % of the arrivals.
const MACHINE_FAILURES: u64 = 6;

/// The seeded inputs.
struct Inputs {
    specs: Vec<JobSpec>,
    injections: Vec<FailureInjection>,
    machine_failures: Vec<(SimTime, MachineId)>,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let trace = generate_trace(&TraceConfig {
            jobs: JOBS,
            seed: TRACE_SEED,
            ..TraceConfig::default()
        });
        let mut rng = SimRng::new(seed);
        // Which jobs fail, and when, is Fig. 15's fixed draw; the seed
        // picks the victim stage and task in each.
        let injections = failure_injections(&trace, FAILING_JOB_SHARE, FAILURE_SEED)
            .into_iter()
            .map(|f| {
                let stages = trace[f.job_index].dag.stages();
                let stage = &stages[rng.range(0, stages.len() as u64) as usize];
                FailureInjection {
                    job_index: f.job_index,
                    stage: stage.name.clone(),
                    task_index: rng.range(0, u64::from(stage.task_count)) as u32,
                    at: FailureAt::AfterSubmit(f.after),
                    kind: FailureKind::ProcessRestart,
                }
            })
            .collect();
        let span = trace.last().map_or(0, |j| j.submit_at.as_micros());
        let at = |permille: u64| SimTime::ZERO + SimDuration::from_micros(span * permille / 1000);
        let machine_failures = machine_failures(
            &mut rng,
            MACHINES,
            evenly(MACHINE_FAILURES, at(100), at(1000)),
        );
        let specs = trace
            .iter()
            .map(|t| JobSpec::at(t.dag.clone(), t.submit_at))
            .collect();
        Inputs {
            specs,
            injections,
            machine_failures,
        }
    }

    /// Cheap identity of the inputs: submit times, DAG shapes, failures.
    fn fingerprint(&self) -> String {
        let mut s = String::new();
        for j in &self.specs {
            s.push_str(&format!(
                "{}:{}:{};",
                j.submit_at.as_micros(),
                j.dag.stage_count(),
                j.dag.total_tasks()
            ));
        }
        for f in &self.injections {
            s.push_str(&format!(
                "{}/{}/{}/{:?};",
                f.job_index, f.stage, f.task_index, f.at
            ));
        }
        s.push_str(&format!("{:?}", self.machine_failures));
        s
    }
}

/// Longest chain of `process_us_per_task` through the DAG: no schedule
/// can finish the job sooner.
fn critical_path(dag: &JobDag) -> SimDuration {
    let mut done = vec![0u64; dag.stage_count()];
    for &s in dag.topo_order() {
        let before = dag
            .predecessors(s)
            .map(|p| done[p.index()])
            .max()
            .unwrap_or(0);
        done[s.index()] = before + dag.stage(s).profile.process_us_per_task;
    }
    SimDuration::from_micros(done.into_iter().max().unwrap_or(0))
}

/// What the traced run's `SimObserver` counts.
#[derive(Default)]
struct Counts {
    tasks_started: u64,
    template_hits: u64,
    recoveries: u64,
    gang_open: BTreeMap<(usize, u32), SimTime>,
    gang_waits: u64,
    gang_wait: SimDuration,
    completions: Vec<u32>,
}

struct Tracer(Rc<RefCell<Counts>>);

impl SimObserver for Tracer {
    fn on_task_started(&mut self, _: SimTime, _: usize, _: TaskId, _: u32) {
        self.0.borrow_mut().tasks_started += 1;
    }

    fn on_template_decision(&mut self, _: SimTime, _: usize, d: &TemplateDecision) {
        if matches!(d.outcome, TemplateOutcome::Hit { .. }) {
            self.0.borrow_mut().template_hits += 1;
        }
    }

    fn on_recovery_planned(
        &mut self,
        _: SimTime,
        _: usize,
        _: &RecoveryContext<'_>,
        _: &RecoveryPlan,
    ) {
        self.0.borrow_mut().recoveries += 1;
    }

    fn on_gang_wait_started(&mut self, now: SimTime, job: usize, unit: u32, _: usize) {
        self.0.borrow_mut().gang_open.insert((job, unit), now);
    }

    fn on_gang_wait_ended(&mut self, now: SimTime, job: usize, unit: u32, _: usize, _: bool) {
        let mut c = self.0.borrow_mut();
        if let Some(start) = c.gang_open.remove(&(job, unit)) {
            c.gang_waits += 1;
            c.gang_wait += now.saturating_since(start);
        }
    }

    fn on_job_completed(&mut self, _: SimTime, job: usize, _: bool) {
        self.0.borrow_mut().completions[job] += 1;
    }

    fn wants_input_reads(&self) -> bool {
        false
    }
}

/// The workload.
pub(crate) struct TraceReplay {
    seed: u64,
    inputs: Inputs,
    fingerprint: String,
    lower_bounds: Vec<SimDuration>,
    /// Digest and job latencies of the first completed operation.
    first: Option<(u64, Vec<f64>)>,
    /// Counters of the last traced operation.
    traced: Option<(Counts, RunReport)>,
}

impl TraceReplay {
    pub(crate) fn new(seed: u64) -> (Self, Duration) {
        let start = Instant::now();
        let inputs = Inputs::generate(seed);
        let gen = start.elapsed();
        let lower_bounds = inputs.specs.iter().map(|s| critical_path(&s.dag)).collect();
        let fingerprint = inputs.fingerprint();
        let w = TraceReplay {
            seed,
            inputs,
            fingerprint,
            lower_bounds,
            first: None,
            traced: None,
        };
        (w, gen)
    }

    fn check(&mut self, report: &RunReport, digest: u64) -> Result<(), String> {
        if report.jobs.len() != JOBS {
            return Err(format!("{} job reports for {JOBS} jobs", report.jobs.len()));
        }
        for (i, j) in report.jobs.iter().enumerate() {
            if j.job_index != i || j.aborted {
                return Err(format!(
                    "job {i}: index {} aborted {}",
                    j.job_index, j.aborted
                ));
            }
            if j.elapsed < self.lower_bounds[i] {
                return Err(format!(
                    "job {i} took {} < its critical path {}",
                    j.elapsed, self.lower_bounds[i]
                ));
            }
        }
        match &self.first {
            Some((d, _)) if *d != digest => Err(format!(
                "digest {digest:#x} differs from the first run's {d:#x}"
            )),
            Some(_) => Ok(()),
            None => {
                let mut lat: Vec<f64> = report
                    .jobs
                    .iter()
                    .map(|j| j.elapsed.as_secs_f64())
                    .collect();
                lat.sort_by(f64::total_cmp);
                self.first = Some((digest, lat));
                Ok(())
            }
        }
    }
}

impl Workload for TraceReplay {
    fn ops(&self) -> &'static [&'static str] {
        &["replay"]
    }

    fn run_op(&mut self, _: usize, layers: Option<&mut Layers>) -> Result<Duration, String> {
        let counts = Rc::new(RefCell::new(Counts {
            completions: vec![0; JOBS],
            ..Counts::default()
        }));
        let t0 = Instant::now();
        let cluster = Cluster::new(MACHINES, EXECUTORS_PER_MACHINE, CostModel::default());
        let mut sim = Simulation::new(cluster, SimConfig::swift(), self.inputs.specs.clone());
        sim.inject_failures(self.inputs.injections.clone());
        sim.fail_machines(self.inputs.machine_failures.clone());
        if layers.is_some() {
            sim.set_observer(Box::new(Tracer(counts.clone())));
        }
        let t1 = Instant::now();
        let report = sim.run();
        let t2 = Instant::now();
        let digest = report.digest();
        let t3 = Instant::now();
        self.check(&report, digest)?;
        if let Some(layers) = layers {
            layers.leaf("swift-scheduler.sim_new", t1 - t0);
            layers.leaf("swift-scheduler.sim_run", t2 - t1);
            layers.leaf("swift-scheduler.report_digest", t3 - t2);
            let c = Rc::try_unwrap(counts)
                .map_err(|_| "observer outlived its simulation".to_string())?
                .into_inner();
            if c.completions.iter().any(|&n| n != 1) {
                return Err("a job did not complete exactly once".into());
            }
            self.traced = Some((c, report));
        }
        Ok(t3 - t0)
    }

    fn regenerate(&self) -> Result<Duration, String> {
        let start = Instant::now();
        let inputs = Inputs::generate(self.seed);
        let took = start.elapsed();
        if inputs.fingerprint() != self.fingerprint {
            return Err("trace inputs".into());
        }
        Ok(took)
    }

    fn layer_metrics(&self) -> Vec<Metric> {
        let (Some((c, report)), Some((_, lat))) = (&self.traced, &self.first) else {
            return Vec::new();
        };
        let rerun: u64 = report.jobs.iter().map(|j| j.rerun_tasks).sum();
        vec![
            Metric::new("swift-scheduler.job_p50_sim_s", "s", median(lat)),
            Metric::new("swift-scheduler.job_p995_sim_s", "s", percentile(lat, 995)),
            Metric::new("swift-sim.events", "count", report.events_processed as f64),
            Metric::new(
                "swift-scheduler.tasks_started",
                "count",
                c.tasks_started as f64,
            ),
            Metric::new(
                "swift-scheduler.template_hits",
                "count",
                c.template_hits as f64,
            ),
            Metric::new(
                "swift-scheduler.gang_wait_sim_s",
                "s",
                c.gang_wait.as_secs_f64() / c.gang_waits.max(1) as f64,
            ),
            Metric::new("swift-scheduler.idle_ratio", "ratio", report.idle_ratio()),
            Metric::new("swift-ft.recoveries", "count", c.recoveries as f64),
            Metric::new("swift-ft.rerun_tasks", "count", rerun as f64),
        ]
    }
}
