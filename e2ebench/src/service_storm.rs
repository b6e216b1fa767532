//! `service_storm`: the same simulator as 12 000 tiny simulations.
//!
//! One operation is `ServiceSim::new` + `run` + `ServiceReport::digest`
//! over 12 000 jobs from 1 200 Zipf-skewed tenants with a diurnal curve
//! and two storms on the 40-machine fleet (about 1.3× overload), warm pool
//! on, and a few fleet machines failing mid-run. Per-job build, per-job
//! digest and DRR dispatch dominate instead of the event loop, and the
//! failures drive the whole-job requeue path.

use crate::metrics::Metric;
use crate::{evenly, machine_failures, median, percentile, Layers, Workload};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use swift_cluster::MachineId;
use swift_scheduler::{RunReport, SimObserver};
use swift_service::{ServiceConfig, ServiceObserver, ServiceRun, ServiceSim};
use swift_sim::{SimDuration, SimRng, SimTime};
use swift_workload::{generate_service_workload, ServiceJob, ServiceWorkloadConfig, TraceConfig};

/// Seed of the arrival stream. It is the same in every run: under overload
/// the backlog, and with it the median job latency, depends on where the
/// storms and the Zipf-heavy tenants fall, and moves by about 36 %
/// (interquartile range over ten seeds) from one stream seed to the next.
/// The run's `--seed` draws the machine failures instead.
const WORKLOAD_SEED: u64 = 20_210_419;
/// Eight fleet machines fail: three evenly spaced over 10–30 % of the
/// arrival span, before the overload backlog peaks, and five over 75–90 %,
/// while the last storm drains. The early crashes set the median job
/// latency, the late ones the tail and the makespan: crashes spread over
/// 30–50 % of the span instead land while the backlog builds, and which
/// sessions they kill then moves the median by 13–17 % from seed to seed
/// (interquartile range), while early crashes alone leave the p99.9 and
/// the makespan identical on most seeds.
fn workload_config(seed: u64) -> ServiceWorkloadConfig {
    ServiceWorkloadConfig {
        tenants: 1_200,
        jobs: 12_000,
        seed,
        mean_interarrival: SimDuration::from_millis(250),
        diurnal: true,
        storms: 2,
        storm_factor: 6.0,
        storm_len: SimDuration::from_secs(20),
        tenant_skew: 1.1,
        high_priority_share: 0.15,
        shape: TraceConfig {
            runtime_median_secs: 1.5,
            runtime_sigma: 0.5,
            tasks_median: 8.0,
            tasks_sigma: 0.8,
            ..TraceConfig::default()
        },
    }
}

/// 40 machines × 8 executors, 4-executor sessions, quota 8 per tenant.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        machines: 40,
        executors_per_machine: 8,
        queue_watermark: 2_048,
        ..ServiceConfig::default()
    }
}

struct Inputs {
    jobs: Vec<ServiceJob>,
    failures: Vec<(SimTime, MachineId)>,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let jobs = generate_service_workload(&workload_config(WORKLOAD_SEED));
        let span = jobs.last().map_or(0, |j| j.submit_at.as_micros());
        let at = |permille: u64| SimTime::ZERO + SimDuration::from_micros(span * permille / 1000);
        let failures = machine_failures(
            &mut SimRng::new(seed),
            service_config().machines,
            evenly(3, at(100), at(300)).chain(evenly(5, at(750), at(900))),
        );
        Inputs { jobs, failures }
    }

    fn fingerprint(&self) -> String {
        let mut s = String::new();
        for j in &self.jobs {
            s.push_str(&format!(
                "{}:{}:{:?}:{};",
                j.submit_at.as_micros(),
                j.tenant,
                j.priority,
                j.cost
            ));
        }
        s.push_str(&format!("{:?}", self.failures));
        s
    }
}

/// What the service observer records. Untraced runs keep completions and
/// held executors only; traced runs add the inner-run brackets.
#[derive(Default)]
struct Ledger {
    traced: bool,
    quota: u32,
    session_executors: u32,
    /// `(job, completion time)` in completion order.
    completions: Vec<(usize, SimTime)>,
    held: Vec<u32>,
    over_quota: Option<(u32, u32)>,
    // ---- traced only ----
    /// Dispatch time per running job (for executor time lost to kills).
    dispatched: Vec<Option<SimTime>>,
    lost_exec_s: f64,
    /// Wall-clock brackets of the current dispatch.
    dispatch_at: Option<Instant>,
    inner_started: Option<Instant>,
    inner_finished: Option<Instant>,
    inner_build: Duration,
    inner_run: Duration,
    inner_digest: Duration,
}

impl Ledger {
    fn dispatch(&mut self, now: SimTime, job: usize) {
        if self.traced {
            self.dispatched[job] = Some(now);
            self.dispatch_at = Some(Instant::now());
        }
    }
}

struct Front(Rc<RefCell<Ledger>>);

impl ServiceObserver for Front {
    fn on_session_warm_hit(&mut self, now: SimTime, job: usize, _: u32, _: u32) {
        self.0.borrow_mut().dispatch(now, job);
    }

    fn on_session_cold_start(&mut self, now: SimTime, job: usize, tenant: u32, _: u32, n: u32) {
        let mut l = self.0.borrow_mut();
        let held = &mut l.held[tenant as usize];
        *held += n;
        let h = *held;
        if h > l.quota && l.over_quota.is_none() {
            l.over_quota = Some((tenant, h));
        }
        l.dispatch(now, job);
    }

    fn on_session_expired(&mut self, _: SimTime, tenant: u32, _: u32, n: u32) {
        self.0.borrow_mut().held[tenant as usize] -= n;
    }

    fn on_session_killed(&mut self, _: SimTime, tenant: u32, _: u32, n: u32) {
        self.0.borrow_mut().held[tenant as usize] -= n;
    }

    fn on_job_completed(&mut self, now: SimTime, job: usize, _: u32) {
        self.0.borrow_mut().completions.push((job, now));
    }

    fn on_job_requeued(&mut self, now: SimTime, job: usize, _: u32) {
        let mut l = self.0.borrow_mut();
        if let Some(at) = l.dispatched.get_mut(job).and_then(Option::take) {
            let n = f64::from(l.session_executors);
            l.lost_exec_s += now.saturating_since(at).as_secs_f64() * n;
        }
    }

    fn job_sim_observer(&mut self, _: usize, _: u32) -> Option<Box<dyn SimObserver>> {
        self.0
            .borrow()
            .traced
            .then(|| Box::new(Inner(self.0.clone())) as Box<dyn SimObserver>)
    }

    fn on_job_report(&mut self, _: SimTime, _: usize, _: u32, _: &RunReport) {
        let mut l = self.0.borrow_mut();
        if !l.traced {
            return;
        }
        let now = Instant::now();
        if let (Some(d), Some(s), Some(f)) = (l.dispatch_at, l.inner_started, l.inner_finished) {
            l.inner_build += s - d;
            l.inner_run += f - s;
            l.inner_digest += now - f;
        }
        l.dispatch_at = None;
        l.inner_started = None;
        l.inner_finished = None;
    }
}

/// The inner simulation's observer: brackets its run.
struct Inner(Rc<RefCell<Ledger>>);

impl SimObserver for Inner {
    fn on_job_submitted(&mut self, _: SimTime, _: usize) {
        let mut l = self.0.borrow_mut();
        if l.inner_started.is_none() {
            l.inner_started = Some(Instant::now());
        }
    }

    fn on_run_finished(&mut self, _: SimTime, _: u64) {
        self.0.borrow_mut().inner_finished = Some(Instant::now());
    }

    fn wants_input_reads(&self) -> bool {
        false
    }
}

/// The end-to-end numbers of the first completed operation.
struct First {
    digest: u64,
    /// Submit → complete, sorted.
    latencies: Vec<f64>,
    jobs_per_sim_s: f64,
}

/// The workload.
pub(crate) struct ServiceStorm {
    seed: u64,
    inputs: Inputs,
    fingerprint: String,
    tenants: usize,
    first: Option<First>,
    traced: Option<(Ledger, ServiceRun)>,
}

impl ServiceStorm {
    pub(crate) fn new(seed: u64) -> (Self, Duration) {
        let start = Instant::now();
        let inputs = Inputs::generate(seed);
        let gen = start.elapsed();
        let fingerprint = inputs.fingerprint();
        let tenants = inputs
            .jobs
            .iter()
            .map(|j| j.tenant as usize + 1)
            .max()
            .unwrap_or(0);
        let w = ServiceStorm {
            seed,
            inputs,
            fingerprint,
            tenants,
            first: None,
            traced: None,
        };
        (w, gen)
    }

    fn check(&mut self, run: &ServiceRun, digest: u64, l: &Ledger) -> Result<(), String> {
        let r = &run.report;
        let n = self.inputs.jobs.len() as u64;
        if r.jobs_submitted != n || r.jobs_submitted != r.jobs_admitted + r.jobs_rejected {
            return Err(format!(
                "submitted {} admitted {} rejected {} of {n}",
                r.jobs_submitted, r.jobs_admitted, r.jobs_rejected
            ));
        }
        if r.jobs_completed != r.jobs_admitted || l.completions.len() as u64 != r.jobs_completed {
            return Err(format!(
                "completed {} (observer {}) of {} admitted",
                r.jobs_completed,
                l.completions.len(),
                r.jobs_admitted
            ));
        }
        if let Some((tenant, held)) = l.over_quota {
            return Err(format!(
                "tenant {tenant} held {held} executors over quota {}",
                l.quota
            ));
        }
        if l.held.iter().any(|&h| h != 0) {
            return Err("executors still held at quiesce".into());
        }
        let mut seen = vec![false; self.inputs.jobs.len()];
        let mut last = SimTime::ZERO;
        let mut latencies = Vec::with_capacity(l.completions.len());
        for &(job, at) in &l.completions {
            if std::mem::replace(&mut seen[job], true) {
                return Err(format!("job {job} completed twice"));
            }
            last = last.max(at);
            latencies.push(
                at.saturating_since(self.inputs.jobs[job].submit_at)
                    .as_secs_f64(),
            );
        }
        let jobs_per_sim_s = l.completions.len() as f64 / last.as_secs_f64();
        if jobs_per_sim_s != r.jobs_per_sec() {
            return Err(format!(
                "jobs per sim second {jobs_per_sim_s} from completions, {} reported",
                r.jobs_per_sec()
            ));
        }
        match &self.first {
            Some(f) if f.digest != digest => Err(format!(
                "digest {digest:#x} differs from the first run's {:#x}",
                f.digest
            )),
            Some(_) => Ok(()),
            None => {
                latencies.sort_by(f64::total_cmp);
                self.first = Some(First {
                    digest,
                    latencies,
                    jobs_per_sim_s,
                });
                Ok(())
            }
        }
    }
}

impl Workload for ServiceStorm {
    fn ops(&self) -> &'static [&'static str] {
        &["service"]
    }

    fn run_op(&mut self, _: usize, layers: Option<&mut Layers>) -> Result<Duration, String> {
        let cfg = service_config();
        let ledger = Rc::new(RefCell::new(Ledger {
            traced: layers.is_some(),
            quota: cfg.tenant_quota,
            session_executors: cfg.session_executors,
            held: vec![0; self.tenants],
            dispatched: if layers.is_some() {
                vec![None; self.inputs.jobs.len()]
            } else {
                Vec::new()
            },
            ..Ledger::default()
        }));
        let t0 = Instant::now();
        let mut sim = ServiceSim::new(cfg, self.inputs.jobs.clone());
        sim.fail_machines(self.inputs.failures.clone());
        sim.set_observer(Box::new(Front(ledger.clone())));
        let t1 = Instant::now();
        let run = sim.run();
        let t2 = Instant::now();
        let digest = run.report.digest();
        let t3 = Instant::now();
        let ledger = Rc::try_unwrap(ledger)
            .map_err(|_| "observer outlived its service".to_string())?
            .into_inner();
        self.check(&run, digest, &ledger)?;
        if let Some(layers) = layers {
            let inner = ledger.inner_build + ledger.inner_run + ledger.inner_digest;
            layers.leaf("swift-service.new", t1 - t0);
            layers.parent("swift-service.run", t2 - t1);
            layers.leaf("swift-service.controller", (t2 - t1).saturating_sub(inner));
            layers.leaf("swift-service.inner_build", ledger.inner_build);
            layers.leaf("swift-service.inner_run", ledger.inner_run);
            layers.leaf("swift-service.inner_digest", ledger.inner_digest);
            layers.leaf("swift-service.report_digest", t3 - t2);
            self.traced = Some((ledger, run));
        }
        Ok(t3 - t0)
    }

    fn regenerate(&self) -> Result<Duration, String> {
        let start = Instant::now();
        let inputs = Inputs::generate(self.seed);
        let took = start.elapsed();
        if inputs.fingerprint() != self.fingerprint {
            return Err("service inputs".into());
        }
        Ok(took)
    }

    fn layer_metrics(&self) -> Vec<Metric> {
        let (Some((l, run)), Some(f)) = (&self.traced, &self.first) else {
            return Vec::new();
        };
        let r = &run.report;
        let us = |v: u64| v as f64 / 1e6;
        vec![
            Metric::new("swift-service.job_p50_sim_s", "s", median(&f.latencies)),
            Metric::new(
                "swift-service.job_p999_sim_s",
                "s",
                percentile(&f.latencies, 999),
            ),
            Metric::new("swift-service.jobs_per_sim_s", "1/s", f.jobs_per_sim_s),
            Metric::new("swift-service.events", "count", r.events as f64),
            Metric::new("swift-service.inner_events", "count", r.sim_events as f64),
            Metric::new(
                "swift-service.template_hits",
                "count",
                run.template_hits as f64,
            ),
            Metric::new("swift-service.warm_hits", "count", r.warm_hits as f64),
            Metric::new("swift-service.cold_starts", "count", r.cold_starts as f64),
            Metric::new(
                "swift-service.sched_p50_sim_s",
                "s",
                us(r.sched_latency.p50_us),
            ),
            Metric::new(
                "swift-service.sched_p999_sim_s",
                "s",
                us(r.sched_latency.p999_us),
            ),
            Metric::new(
                "swift-service.peak_queue_depth",
                "count",
                f64::from(r.peak_queue_depth),
            ),
            Metric::new(
                "swift-service.restarted_jobs",
                "count",
                r.jobs_restarted as f64,
            ),
            Metric::new("swift-service.lost_exec_sim_s", "s", l.lost_exec_s),
        ]
    }
}
