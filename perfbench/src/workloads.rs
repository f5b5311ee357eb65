//! The four benchmark workloads: set-up from a seed, one timed run, the
//! simulated outcome with its correctness checks, and the per-layer counts
//! only a traced run reports.

use std::sync::Arc;
use std::time::Instant;

use dias_core::federation::{FederationExperiment, FederationReport, FederationRunLog, Router};
use dias_core::sweep::{run_multi_experiments_branch, BranchStats, DifferentialReport};
use dias_core::{
    Experiment, ExperimentError, ExperimentReport, JobSource, MultiJobExperiment, MultiJobReport,
    Policy, SoakExperiment, SoakReport, SprintBudget, SprintPolicy, VecJobSource, WarmupRule,
};
use dias_des::stats::SampleStats;
use dias_engine::{ClusterSim, ClusterSpec, EngineEvent, FaultTrace, GangBinPack, Scheduler};
use dias_workloads::{
    heterogeneous_width_fleet, heterogeneous_width_two_priority, reference_two_priority,
    slot_failure_trace, JobStream,
};

use crate::trace::{Sink, TracedScheduler, TracedSource, NEXT_JOB};

/// Run id of the first traced repetition.
pub const FIRST_TRACED_RUN: u16 = 1;

/// Measured jobs per policy of `paper_policies`.
const PAPER_JOBS: usize = 60_000;
/// Measured jobs of one `soak_chaos` run.
const SOAK_JOBS: usize = 300_000;
/// Arrivals of one `fleet_federation` run.
const FLEET_ARRIVALS: usize = 40_000;
/// Worker lanes of the timed `fleet_federation` run.
const FLEET_LANES: usize = 2;
/// Measured jobs per cell of `theta_sweep`.
const SWEEP_JOBS: usize = 12_000;
/// Low-class drop ratios of the `theta_sweep` grid; point 0 is the reference.
const SWEEP_THETAS: [f64; 8] = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4];
/// Grid index of the `theta_sweep` headline point (θ = 0.2).
const SWEEP_HEADLINE: usize = 4;

/// Where a traced run records: the shared sink and the run id.
pub struct Tracer {
    /// The span store.
    pub sink: Arc<Sink>,
    /// Run id stamped on every span.
    pub run: u16,
}

impl Tracer {
    /// Runs `f` inside a root span called `name`; `f` receives the span id to
    /// parent its wrappers under.
    fn root<R>(&self, name: &str, f: impl FnOnce(u32) -> R) -> R {
        let span = self.sink.open(self.sink.name(name), self.run, 0);
        let r = f(span.id);
        self.sink.close(span);
        r
    }

    fn source<S>(&self, inner: S, parent: u32) -> TracedSource<S> {
        TracedSource::new(inner, self.sink.recorder(self.run, parent))
    }

    fn sched(&self, inner: Box<dyn Scheduler>, parent: u32) -> Box<dyn Scheduler> {
        Box::new(TracedScheduler::new(
            inner,
            self.sink.recorder(self.run, parent),
        ))
    }
}

/// The simulated outcome of one run, with its failed checks.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Simulated completions, warm-up included, over every policy, cell and
    /// shard.
    pub completions: u64,
    /// p95 response of the lowest class at the headline configuration.
    pub low_p95: f64,
    /// p95 response of the highest class at the headline configuration.
    pub high_p95: f64,
    /// Energy at the headline configuration, joules.
    pub energy_j: f64,
    /// Machine-seconds spent on evicted attempts, every configuration.
    pub wasted_s: f64,
    /// Machine-seconds delivered (useful + wasted), every configuration.
    pub delivered_s: f64,
    /// Runs or cells attempted.
    pub attempted: u64,
    /// Runs or cells that failed a check.
    pub failed: u64,
    /// Descriptions of the failed checks.
    pub problems: Vec<String>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.problems.push(what());
        }
        ok
    }

    /// Counts one run or cell, failed when any of `oks` is false.
    fn cell(&mut self, oks: &[bool]) {
        self.attempted += 1;
        if oks.iter().any(|ok| !ok) {
            self.failed += 1;
        }
    }
}

/// Traced-only per-layer figures a workload reports on top of the span
/// statistics, plus invariant failures.
#[derive(Debug, Default)]
pub struct Layers {
    /// Engine events of one run (see each workload for how they are counted).
    pub events: f64,
    /// Evictions of one run.
    pub evictions: f64,
    /// Failure evictions of one run.
    pub failure_evictions: f64,
    /// Further named metrics.
    pub extra: Vec<(&'static str, f64)>,
    /// Failed traced-mode invariants.
    pub problems: Vec<String>,
}

/// One benchmark workload.
pub trait Workload {
    /// Inputs built from the seed.
    type Setup;
    /// What one run returns.
    type Report: Clone;

    /// Builds the inputs: stream calibration, pre-sampling, fault traces.
    fn setup(seed: u64) -> Self::Setup;
    /// One timed run; traced when `tracer` is given.
    ///
    /// # Errors
    ///
    /// Whatever the program's entry point returns.
    fn run(setup: &Self::Setup, tracer: Option<&Tracer>) -> Result<Self::Report, ExperimentError>;
    /// Whether two runs simulated the same thing.
    fn same(a: &Self::Report, b: &Self::Report) -> bool;
    /// Simulated outcome and correctness checks of one run.
    fn outcome(setup: &Self::Setup, report: &Self::Report) -> Outcome;
    /// The p50/p95/p99 queries a user makes on a finished report.
    fn query(report: &Self::Report) -> f64;
    /// Traced-only counts and invariants; `tracer` may record extra spans.
    fn layers(setup: &Self::Setup, report: &Self::Report, tracer: &Tracer) -> Layers;
}

/// Machine-seconds of a report: `(wasted, delivered)`.
fn multi_work(r: &MultiJobReport) -> (f64, f64) {
    // The multi-job books keep waste out of `total_work_secs`.
    (r.wasted_work_secs, r.total_work_secs + r.wasted_work_secs)
}

fn all_finite(xs: &[f64]) -> bool {
    xs.iter().all(|x| x.is_finite())
}

fn quantiles<S: SampleStats>(s: &S) -> [f64; 3] {
    [s.quantile(0.5), s.quantile(0.95), s.quantile(0.99)]
}

fn multi_floats(r: &MultiJobReport) -> Vec<f64> {
    let mut v = vec![
        r.horizon_secs,
        r.energy_joules,
        r.idle_energy_joules,
        r.wasted_work_secs,
        r.total_work_secs,
        r.busy_slot_secs,
        r.utilization,
        r.sprint_budget_spent_j,
        r.sprint_budget_replenished_j,
        r.sprint_budget_remaining_j,
        r.failure_lost_work_secs,
    ];
    for c in &r.per_class {
        v.extend(quantiles(&c.response));
        v.extend([c.response.mean(), c.active_energy_joules, c.busy_slot_secs]);
    }
    v
}

fn multi_measured(r: &MultiJobReport) -> u64 {
    r.per_class.iter().map(|c| c.completed).sum()
}

// ---------------------------------------------------------------- paper_policies

/// The paper's closed loop on the reference workload: P, NP, DA(0,20) and
/// DiAS back to back.
pub struct PaperPolicies;

/// Inputs of [`PaperPolicies`].
pub struct PaperSetup {
    stream: JobStream,
    policies: Vec<(&'static str, Policy)>,
}

fn paper_policies() -> Vec<(&'static str, Policy)> {
    let extra = ClusterSpec::paper_reference().sprint_extra_power_w();
    let sprint = SprintPolicy::top_class(2, 65.0, SprintBudget::paper_limited(extra));
    vec![
        ("P", Policy::preemptive(2)),
        ("NP", Policy::non_preemptive(2)),
        ("DA", Policy::da_percent_high_to_low(&[0.0, 20.0])),
        (
            "DiAS",
            Policy::da_percent_high_to_low(&[0.0, 20.0]).with_sprint(sprint),
        ),
    ]
}

/// Engine events of running `inst` alone on an idle paper cluster.
fn isolated_events(inst: &dias_engine::JobInstance, drops: &[f64]) -> u64 {
    let mut sim = ClusterSim::new(ClusterSpec::paper_reference());
    sim.start_job(inst, drops)
        .expect("an idle engine accepts the job");
    let mut n = 0;
    loop {
        n += 1;
        match sim.advance().expect("a running job yields events") {
            EngineEvent::JobFinished { .. } => return n,
            _ => continue,
        }
    }
}

impl Workload for PaperPolicies {
    type Setup = PaperSetup;
    type Report = Vec<ExperimentReport>;

    fn setup(seed: u64) -> PaperSetup {
        PaperSetup {
            stream: reference_two_priority(0.8, seed),
            policies: paper_policies(),
        }
    }

    fn run(s: &PaperSetup, tracer: Option<&Tracer>) -> Result<Self::Report, ExperimentError> {
        s.policies
            .iter()
            .map(|(name, policy)| match tracer {
                None => Experiment::new(s.stream.clone(), policy.clone())
                    .jobs(PAPER_JOBS)
                    .run(),
                Some(t) => t.root(&format!("core.experiment.{name}"), |id| {
                    Experiment::new(t.source(s.stream.clone(), id), policy.clone())
                        .jobs(PAPER_JOBS)
                        .run()
                }),
            })
            .collect()
    }

    fn same(a: &Self::Report, b: &Self::Report) -> bool {
        a == b
    }

    fn outcome(s: &PaperSetup, reports: &Self::Report) -> Outcome {
        let mut o = Outcome::default();
        for ((name, policy), r) in s.policies.iter().zip(reports) {
            let measured: u64 = r.per_class.iter().map(|c| c.completed).sum();
            let mut floats = vec![
                r.wasted_work_secs,
                r.total_work_secs,
                r.energy_joules,
                r.idle_energy_joules,
                r.horizon_secs,
                r.utilization,
                r.sprint_secs,
            ];
            for c in &r.per_class {
                floats.extend(quantiles(&c.response));
                floats.push(c.response.mean());
            }
            let oks = [
                o.check(measured == PAPER_JOBS as u64, || {
                    format!("{name}: {measured} of {PAPER_JOBS} measured jobs completed")
                }),
                o.check(all_finite(&floats), || format!("{name}: non-finite figure")),
                o.check(policy.is_preemptive() || r.wasted_work_secs == 0.0, || {
                    format!("{name}: non-preemptive policy wasted work")
                }),
                o.check(r.energy_joules >= r.idle_energy_joules, || {
                    format!("{name}: energy below the idle floor")
                }),
            ];
            o.cell(&oks);
            o.completions += measured + (PAPER_JOBS / 10) as u64;
            o.wasted_s += r.wasted_work_secs;
            o.delivered_s += r.total_work_secs;
        }
        if let Some(dias) = reports.last() {
            o.low_p95 = dias.p95_response(0);
            o.high_p95 = dias.p95_response(1);
            o.energy_j = dias.energy_joules;
        }
        o
    }

    fn query(reports: &Self::Report) -> f64 {
        reports
            .iter()
            .flat_map(|r| r.per_class.iter().map(|c| quantiles(&c.response)[2]))
            .sum()
    }

    fn layers(s: &PaperSetup, reports: &Self::Report, tracer: &Tracer) -> Layers {
        // `Experiment` exposes no event count. Estimate it from outside: the
        // jobs each policy pulled from the source in the first traced
        // repetition, each re-run alone on an idle cluster under the
        // policy's drops. This misses the partial attempts P evicts and
        // counts the few jobs still queued at the end.
        let spans = tracer.sink.spans();
        let mut events = 0;
        for (name, policy) in &s.policies {
            let root = tracer.sink.name(&format!("core.experiment.{name}"));
            let ids: Vec<u32> = spans
                .iter()
                .filter(|sp| sp.run == FIRST_TRACED_RUN && sp.name == root)
                .map(|sp| sp.id)
                .collect();
            let pulled = spans
                .iter()
                .filter(|sp| sp.name == NEXT_JOB && ids.contains(&sp.parent))
                .count();
            let mut stream = s.stream.clone();
            for _ in 0..pulled {
                let inst = stream.next_job().expect("the stream is endless");
                events += isolated_events(&inst, &policy.drops_for(&inst.spec));
            }
        }
        Layers {
            events: events as f64,
            evictions: reports.iter().map(|r| r.evictions as f64).sum(),
            ..Layers::default()
        }
    }
}

// ---------------------------------------------------------------- soak_chaos

/// An open-system soak under slot failures.
pub struct SoakChaos;

/// Inputs of [`SoakChaos`].
pub struct SoakSetup {
    stream: JobStream,
    faults: FaultTrace,
    sprint: SprintPolicy,
}

impl Workload for SoakChaos {
    type Setup = SoakSetup;
    type Report = SoakReport;

    fn setup(seed: u64) -> SoakSetup {
        let stream = heterogeneous_width_two_priority(0.7, seed);
        // The fault trace must outlast the run: MSER calibration plus the
        // measured jobs, at the stream's arrival rate, with margin.
        let rate: f64 = stream.rates().iter().sum();
        let horizon = 1.5 * (SOAK_JOBS + 2_000) as f64 / rate;
        let faults = slot_failure_trace(20, horizon, 2_400.0, 150.0, seed ^ 0xFA17);
        let spec = ClusterSpec::paper_reference();
        let budget = SprintBudget::limited(
            22_000.0,
            4.0 * spec.sprint_extra_slot_power_w() * 6.0 * 60.0 / 3600.0,
        );
        SoakSetup {
            stream,
            faults,
            sprint: SprintPolicy::top_class(2, 65.0, budget),
        }
    }

    fn run(s: &SoakSetup, tracer: Option<&Tracer>) -> Result<SoakReport, ExperimentError> {
        fn build<S: JobSource>(
            s: &SoakSetup,
            src: S,
            sched: Box<dyn Scheduler>,
        ) -> SoakExperiment<S> {
            SoakExperiment::new(src, sched)
                .jobs(SOAK_JOBS)
                .warmup(WarmupRule::Mser { calibration: 0 })
                .drops(&[0.2, 0.0])
                .sprint(s.sprint.clone())
                .faults(s.faults.clone())
        }
        match tracer {
            None => build(s, s.stream.clone(), Box::new(GangBinPack)).run(),
            Some(t) => t.root("core.stream.run", |id| {
                build(
                    s,
                    t.source(s.stream.clone(), id),
                    t.sched(Box::new(GangBinPack), id),
                )
                .run()
            }),
        }
    }

    fn same(a: &SoakReport, b: &SoakReport) -> bool {
        a.same_simulation(b)
    }

    fn outcome(_: &SoakSetup, r: &SoakReport) -> Outcome {
        let mut o = Outcome::default();
        let mut floats = multi_floats(&r.totals);
        for c in &r.per_class {
            floats.extend(quantiles(&c.response));
            floats.push(c.response.mean());
        }
        for w in &r.windows {
            floats.push(w.energy_joules);
            floats.extend(w.per_class.iter().map(|c| c.p95_response));
        }
        let t = &r.totals;
        let oks = [
            o.check(r.measured_jobs == SOAK_JOBS as u64, || {
                format!("{} of {SOAK_JOBS} measured jobs completed", r.measured_jobs)
            }),
            o.check(all_finite(&floats), || "non-finite figure".into()),
            // GangBinPack never preempts: every wasted second is a failure's.
            o.check(t.wasted_work_secs == t.failure_lost_work_secs, || {
                "work wasted outside slot failures".into()
            }),
            o.check(t.energy_joules >= t.idle_energy_joules, || {
                "energy below the idle floor".into()
            }),
        ];
        o.cell(&oks);
        o.completions = r.measured_jobs + r.warmup_jobs;
        (o.wasted_s, o.delivered_s) = multi_work(t);
        o.low_p95 = r.p95_response(0);
        o.high_p95 = r.p95_response(1);
        o.energy_j = t.energy_joules;
        o
    }

    fn query(r: &SoakReport) -> f64 {
        r.per_class.iter().map(|c| quantiles(&c.response)[2]).sum()
    }

    fn layers(_: &SoakSetup, r: &SoakReport, _: &Tracer) -> Layers {
        Layers {
            events: r.events as f64,
            evictions: r.totals.evictions as f64,
            failure_evictions: r.totals.failure_evictions as f64,
            extra: vec![
                ("core.stream.live_high_water", r.live_high_water as f64),
                ("core.stream.windows", r.windows.len() as f64),
                ("core.stream.warmup_jobs", r.warmup_jobs as f64),
            ],
            problems: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------- fleet_federation

/// The 16-shard, 10k-slot federation fleet on two pool lanes.
pub struct FleetFederation;

/// Inputs of [`FleetFederation`].
pub struct FleetSetup {
    shards: Vec<ClusterSpec>,
    stream: JobStream,
    sprint: SprintPolicy,
}

impl FleetSetup {
    fn experiment<S: JobSource>(
        &self,
        src: S,
        mut sched: impl FnMut() -> Box<dyn Scheduler>,
    ) -> FederationExperiment<S> {
        FederationExperiment::new(src, self.shards.clone(), |_| sched())
            .router(Router::Hash)
            .epoch_secs(60.0)
            .drops(&[0.2, 0.0])
            .sprint(self.sprint.clone())
            .arrivals(FLEET_ARRIVALS)
    }
}

impl Workload for FleetFederation {
    type Setup = FleetSetup;
    type Report = (FederationReport, FederationRunLog);

    fn setup(seed: u64) -> FleetSetup {
        // 16 shards × 313 two-core workers = 10 016 slots.
        let shard = ClusterSpec {
            workers: 313,
            ..ClusterSpec::paper_reference()
        };
        let fleet = ClusterSpec {
            workers: 16 * 313,
            ..ClusterSpec::paper_reference()
        };
        let spec = ClusterSpec::paper_reference();
        let ratio = fleet.slots() as f64 / spec.slots() as f64;
        let budget = SprintBudget::limited(
            22_000.0 * ratio,
            4.0 * spec.sprint_extra_slot_power_w() * 6.0 * 60.0 / 3600.0 * ratio,
        );
        FleetSetup {
            shards: vec![shard; 16],
            stream: heterogeneous_width_fleet(&fleet, 0.7, seed),
            sprint: SprintPolicy::top_class(2, 65.0, budget),
        }
    }

    fn run(s: &FleetSetup, tracer: Option<&Tracer>) -> Result<Self::Report, ExperimentError> {
        match tracer {
            None => s
                .experiment(s.stream.clone(), || Box::new(GangBinPack))
                .run_with_log(FLEET_LANES),
            Some(t) => t.root("core.federation.run", |id| {
                s.experiment(t.source(s.stream.clone(), id), || {
                    t.sched(Box::new(GangBinPack), id)
                })
                .run_with_log(FLEET_LANES)
            }),
        }
    }

    fn same(a: &Self::Report, b: &Self::Report) -> bool {
        a.0 == b.0
    }

    fn outcome(_: &FleetSetup, (r, _): &Self::Report) -> Outcome {
        let mut o = Outcome::default();
        let mut floats = vec![
            r.horizon_secs,
            r.energy_joules,
            r.idle_energy_joules,
            r.busy_slot_secs,
            r.utilization,
            r.total_work_secs,
            r.wasted_work_secs,
            r.sprint_budget_spent_j,
            r.sprint_budget_remaining_j,
        ];
        for c in &r.per_class {
            floats.extend(quantiles(&c.response));
            floats.push(c.response.mean());
        }
        for shard in &r.shards {
            floats.extend(multi_floats(shard));
        }
        let oks = [
            o.check(r.completed() == FLEET_ARRIVALS as u64, || {
                format!("{} of {FLEET_ARRIVALS} jobs completed", r.completed())
            }),
            o.check(all_finite(&floats), || "non-finite figure".into()),
            o.check(r.wasted_work_secs == 0.0, || "DA fleet wasted work".into()),
            o.check(r.energy_joules >= r.idle_energy_joules, || {
                "energy below the idle floor".into()
            }),
        ];
        o.cell(&oks);
        o.completions = r.completed();
        o.wasted_s = r.wasted_work_secs;
        o.delivered_s = r.total_work_secs + r.wasted_work_secs;
        o.low_p95 = r.p95_response(0);
        o.high_p95 = r.p95_response(1);
        o.energy_j = r.energy_joules;
        o
    }

    fn query((r, _): &Self::Report) -> f64 {
        r.per_class.iter().map(|c| quantiles(&c.response)[2]).sum()
    }

    fn layers(s: &FleetSetup, (r, log): &Self::Report, _: &Tracer) -> Layers {
        let mut problems = Vec::new();
        // Lane invariance, untraced: one lane must reproduce the timed
        // two-lane report bit for bit; the wall-time ratio is the pool's
        // speed-up on this host.
        let t = Instant::now();
        let one = s
            .experiment(s.stream.clone(), || Box::new(GangBinPack))
            .run(1);
        let one_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let two = s
            .experiment(s.stream.clone(), || Box::new(GangBinPack))
            .run(2);
        let two_s = t.elapsed().as_secs_f64();
        match (one, two) {
            (Ok(one), Ok(two)) if one == two && two == *r => {}
            (Ok(_), Ok(_)) => problems.push("fleet differs between 1 and 2 lanes".into()),
            (Err(e), _) | (_, Err(e)) => problems.push(format!("lane run failed: {e}")),
        }
        let routed: Vec<f64> = r.routed_jobs.iter().map(|&n| n as f64).collect();
        let mean = routed.iter().sum::<f64>() / routed.len() as f64;
        let max = routed.iter().copied().fold(0.0, f64::max);
        Layers {
            // Epoch records carry running totals; the last one closes the run.
            events: log.epochs.last().map_or(0.0, |e| e.events as f64),
            evictions: r.evictions as f64,
            failure_evictions: r.failure_evictions as f64,
            extra: vec![
                ("core.federation.epochs", log.epochs.len() as f64),
                ("core.federation.route_imbalance", max / mean),
                ("pool.speedup_2t", one_s / two_s),
            ],
            problems,
        }
    }
}

// ---------------------------------------------------------------- theta_sweep

/// A checkpoint-and-branch θ sweep over a pre-sampled job vector.
pub struct ThetaSweep;

/// Inputs of [`ThetaSweep`].
pub struct SweepSetup {
    jobs: VecJobSource,
    thetas: Vec<Vec<f64>>,
    stride: usize,
}

impl SweepSetup {
    fn experiment<S: JobSource>(src: S, sched: Box<dyn Scheduler>) -> MultiJobExperiment<S> {
        MultiJobExperiment::new(src, sched).jobs(SWEEP_JOBS)
    }
}

/// The grid's reports by point, plus the branch sweep's work accounting.
pub type SweepReport = (Vec<MultiJobReport>, BranchStats);

impl Workload for ThetaSweep {
    type Setup = SweepSetup;
    type Report = SweepReport;

    fn setup(seed: u64) -> SweepSetup {
        // Common random numbers: every point replays the same sampled jobs.
        // Twice the measured window leaves room for arrivals that land
        // before the last measured job completes.
        let target = SWEEP_JOBS + SWEEP_JOBS / 10;
        let mut stream = heterogeneous_width_two_priority(0.7, seed);
        let jobs = (0..2 * target)
            .map(|_| stream.next_job().expect("the stream is endless"))
            .collect();
        SweepSetup {
            jobs: VecJobSource::new(jobs, 2),
            thetas: SWEEP_THETAS.iter().map(|&t| vec![t, 0.0]).collect(),
            stride: (target / 8).max(1),
        }
    }

    fn run(s: &SweepSetup, tracer: Option<&Tracer>) -> Result<SweepReport, ExperimentError> {
        let (grid, stats) = match tracer {
            None => run_multi_experiments_branch(&s.thetas, 1, 1, s.stride, |_| {
                SweepSetup::experiment(s.jobs.clone(), Box::new(GangBinPack))
            })
            .map(|(g, st)| (point_rows(&g), st)),
            Some(t) => t.root("core.sweep.run", |id| {
                run_multi_experiments_branch(&s.thetas, 1, 1, s.stride, |_| {
                    SweepSetup::experiment(
                        t.source(s.jobs.clone(), id),
                        t.sched(Box::new(GangBinPack), id),
                    )
                })
                .map(|(g, st)| (point_rows(&g), st))
            }),
        }?;
        Ok((grid, stats))
    }

    fn same(a: &SweepReport, b: &SweepReport) -> bool {
        a == b
    }

    fn outcome(s: &SweepSetup, (grid, _): &SweepReport) -> Outcome {
        let mut o = Outcome::default();
        for (theta, r) in s.thetas.iter().zip(grid) {
            let measured = multi_measured(r);
            let oks = [
                o.check(measured == SWEEP_JOBS as u64, || {
                    format!("θ={}: {measured} of {SWEEP_JOBS} measured jobs", theta[0])
                }),
                o.check(all_finite(&multi_floats(r)), || {
                    format!("θ={}: non-finite figure", theta[0])
                }),
                o.check(r.wasted_work_secs == 0.0, || {
                    format!("θ={}: DA cell wasted work", theta[0])
                }),
                o.check(r.energy_joules >= r.idle_energy_joules, || {
                    format!("θ={}: energy below the idle floor", theta[0])
                }),
            ];
            o.cell(&oks);
            o.completions += measured + (SWEEP_JOBS / 10) as u64;
            let (w, d) = multi_work(r);
            o.wasted_s += w;
            o.delivered_s += d;
        }
        if let Some(h) = grid.get(SWEEP_HEADLINE) {
            o.low_p95 = h.p95_response(0);
            o.high_p95 = h.p95_response(1);
            o.energy_j = h.energy_joules;
        }
        o
    }

    fn query((grid, _): &SweepReport) -> f64 {
        grid.iter()
            .flat_map(|r| r.per_class.iter().map(|c| quantiles(&c.response)[2]))
            .sum()
    }

    fn layers(s: &SweepSetup, (grid, stats): &SweepReport, tracer: &Tracer) -> Layers {
        let mut problems = Vec::new();
        // The sweep decomposed by hand, untraced: record the reference point,
        // then resume every other point from the recorded trace.
        let make = |p: usize| {
            SweepSetup::experiment(s.jobs.clone(), Box::new(GangBinPack)).drops(&s.thetas[p])
        };
        let recorded = tracer.root("core.sweep.record", |_| make(0).run_recording(s.stride));
        let mut events = 0.0;
        let mut checkpoints = 0.0;
        match recorded {
            Ok((reference, trace)) => {
                events += trace.events_total() as f64;
                checkpoints = trace.checkpoints() as f64;
                let mut manual = vec![reference];
                for p in 1..s.thetas.len() {
                    match tracer.root("core.sweep.replay", |_| make(p).run_from(&trace)) {
                        Ok(r) => manual.push(r),
                        Err(e) => problems.push(format!("replay of point {p} failed: {e}")),
                    }
                }
                if manual != *grid {
                    problems.push("hand-made record/replay differs from the sweep".into());
                }
            }
            Err(e) => problems.push(format!("recording failed: {e}")),
        }
        // Branching must equal a full replay; check the headline point.
        match make(SWEEP_HEADLINE).run() {
            Ok(full) if full == grid[SWEEP_HEADLINE] => {}
            Ok(_) => problems.push("branched headline point differs from full replay".into()),
            Err(e) => problems.push(format!("full replay failed: {e}")),
        }
        events += (stats.events_full - stats.events_skipped) as f64;
        Layers {
            events,
            evictions: grid.iter().map(|r| r.evictions as f64).sum(),
            failure_evictions: 0.0,
            extra: vec![
                ("core.sweep.checkpoints", checkpoints),
                ("core.sweep.suffix_cells", stats.suffix_cells as f64),
                ("core.sweep.skip_fraction", stats.skip_fraction()),
            ],
            problems,
        }
    }
}

/// Flattens a one-replica differential report into its point rows.
fn point_rows(grid: &DifferentialReport<MultiJobReport>) -> Vec<MultiJobReport> {
    (0..grid.points())
        .map(|p| grid.point(p)[0].clone())
        .collect()
}
