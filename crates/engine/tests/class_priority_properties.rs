//! Properties of the whole-cluster class-priority schedulers — the paper's
//! per-priority buffers and dispatcher (`ClassPriority` for NP/DA/DiAS,
//! `ClassPriorityPreempt` for P), checked on the engine against a model
//! queue:
//!
//! 1. the highest waiting class is dispatched first, FCFS within a class;
//! 2. an evicted job re-queues at the head and resumes ahead of its class;
//! 3. nothing is ever placed beside a running job: every dispatch takes the
//!    whole cluster and at most one job runs;
//! 4. a victim is always of a strictly lower class than the arrival that
//!    evicted it (and the non-preemptive scheduler never evicts).

use std::collections::VecDeque;

use proptest::prelude::*;

use dias_des::SimTime;
use dias_engine::{
    ClassPriority, ClassPriorityPreempt, ClusterSim, ClusterSpec, EngineEvent, JobId, JobInstance,
    JobSpec, Scheduler, SlotRange, StageKind, StageSpec, Submission,
};
use dias_stochastic::Dist;

/// A job of `class` with one map stage of `tasks` tasks of `secs` each.
fn instance(id: u64, class: usize, tasks: usize, secs: f64) -> JobInstance {
    let spec = JobSpec::builder(id, class)
        .stage(StageSpec::new(StageKind::Map, tasks, Dist::constant(secs)))
        .build();
    JobInstance {
        spec,
        setup_secs: 1.0,
        shuffle_secs: Vec::new(),
        task_secs: vec![vec![secs; tasks]],
        arrival_secs: 0.0,
    }
}

/// The engine's pending queue as the paper describes it, plus the job
/// holding the cluster.
struct Model {
    classes: Vec<usize>,
    queue: VecDeque<JobId>,
    running: Option<JobId>,
    whole: SlotRange,
}

impl Model {
    /// The job the dispatcher must pick: the first queued job of the
    /// highest waiting class.
    fn expected_next(&self) -> Option<usize> {
        let top = self
            .queue
            .iter()
            .map(|j| self.classes[j.0 as usize])
            .max()?;
        self.queue
            .iter()
            .position(|j| self.classes[j.0 as usize] == top)
    }

    /// Checks the dispatches the engine logged since the last call against
    /// the model and moves the dispatched jobs from the queue to `running`.
    fn dispatches(&mut self, sim: &mut ClusterSim) -> Result<(), String> {
        prop_assert!(sim.running_count() <= 1, "two jobs share the cluster");
        for d in sim.take_dispatched() {
            prop_assert!(d.slots == self.whole, "dispatch beside a running job");
            prop_assert!(self.running.is_none(), "dispatch onto a busy cluster");
            let idx = self.expected_next().expect("a dispatch needs a queued job");
            prop_assert_eq!(self.queue.remove(idx), Some(d.job));
            self.running = Some(d.job);
        }
        Ok(())
    }

    /// Submits `inst` at `now`, checks any evictions and the resulting
    /// dispatch, and returns the number of victims.
    fn submit(
        &mut self,
        sim: &mut ClusterSim,
        inst: &JobInstance,
        now: f64,
    ) -> Result<usize, String> {
        let class = inst.class();
        sim.idle_until(SimTime::from_secs(now));
        let evicted = match sim.submit_job(inst, &[0.0]).expect("valid submission") {
            Submission::Dispatched { .. } => Vec::new(),
            Submission::Preempted { evicted, .. } => evicted,
            Submission::Queued { evicted } => {
                prop_assert!(evicted.is_empty(), "evicted without placing the arrival");
                Vec::new()
            }
        };
        for (victim, _) in &evicted {
            prop_assert!(Some(*victim) == self.running, "victim was not running");
            prop_assert!(
                self.classes[victim.0 as usize] < class,
                "class-{class} arrival evicted a class-{} job",
                self.classes[victim.0 as usize]
            );
            self.running = None;
            self.queue.push_front(*victim);
        }
        // The arrival joins the tail of the queue; if it was placed, the
        // dispatch check finds it as the first job of the highest class.
        self.queue.push_back(inst.spec.id);
        self.dispatches(sim)?;
        Ok(evicted.len())
    }
}

/// Drives `(class, gap, tasks, secs)` arrivals through `scheduler`, checking
/// every dispatch and eviction against the model. Returns the evictions.
fn drive(
    jobs: &[(usize, u32, usize, u32)],
    scheduler: Box<dyn Scheduler>,
) -> Result<usize, String> {
    let spec = ClusterSpec::paper_reference();
    let whole = SlotRange::new(0, spec.slots());
    let mut sim = ClusterSim::with_scheduler(spec, scheduler).expect("valid spec");
    let mut model = Model {
        classes: jobs.iter().map(|j| j.0).collect(),
        queue: VecDeque::new(),
        running: None,
        whole,
    };
    let mut evictions = 0;
    let mut now = 0.0;
    for (id, &(class, gap, tasks, secs)) in jobs.iter().enumerate() {
        now += f64::from(gap);
        while sim.next_event_time().is_some_and(|t| t.as_secs() <= now) {
            if let EngineEvent::JobFinished { job, .. } = sim.advance().expect("running job") {
                prop_assert_eq!(model.running.take(), Some(job));
            }
            model.dispatches(&mut sim)?;
        }
        let inst = instance(id as u64, class, tasks, f64::from(secs));
        evictions += model.submit(&mut sim, &inst, now)?;
    }
    while !sim.is_idle() {
        if let EngineEvent::JobFinished { job, .. } = sim.advance().expect("running job") {
            prop_assert_eq!(model.running.take(), Some(job));
        }
        model.dispatches(&mut sim)?;
    }
    prop_assert!(
        model.queue.is_empty(),
        "jobs left behind: {:?}",
        model.queue
    );
    Ok(evictions)
}

fn arb_jobs() -> impl Strategy<Value = Vec<(usize, u32, usize, u32)>> {
    prop::collection::vec((0usize..4, 0u32..40, 1usize..=30, 1u32..=12), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn class_priority_dispatches_highest_class_then_fifo(jobs in arb_jobs()) {
        let evictions = drive(&jobs, Box::new(ClassPriority))?;
        prop_assert!(evictions == 0, "the non-preemptive dispatcher evicted");
    }

    #[test]
    fn class_priority_preempt_evicts_only_lower_classes(jobs in arb_jobs()) {
        drive(&jobs, Box::new(ClassPriorityPreempt))?;
    }
}

#[test]
fn evicted_job_resumes_ahead_of_its_class() {
    let spec = ClusterSpec::paper_reference();
    let mut sim = ClusterSim::with_scheduler(spec, Box::new(ClassPriorityPreempt)).unwrap();
    // Low-class A runs, low-class B queues behind it, then high-class H
    // evicts A. When H finishes, A — re-queued at the head — resumes before
    // B, although both are class 0 and B never ran.
    let a = sim.submit_job(&instance(0, 0, 20, 10.0), &[0.0]).unwrap();
    assert!(matches!(a, Submission::Dispatched { .. }));
    sim.idle_until(SimTime::from_secs(0.25));
    let b = sim.submit_job(&instance(1, 0, 20, 10.0), &[0.0]).unwrap();
    assert!(matches!(b, Submission::Queued { .. }));
    sim.idle_until(SimTime::from_secs(0.5));
    let h = sim.submit_job(&instance(2, 1, 20, 1.0), &[0.0]).unwrap();
    match h {
        Submission::Preempted { evicted, .. } => assert_eq!(evicted[0].0, JobId(0)),
        other => panic!("expected preemption, got {other:?}"),
    }
    let order: Vec<JobId> = std::iter::from_fn(|| {
        while !sim.is_idle() {
            if let EngineEvent::JobFinished { job, .. } = sim.advance().unwrap() {
                return Some(job);
            }
        }
        None
    })
    .collect();
    assert_eq!(order, vec![JobId(2), JobId(0), JobId(1)]);
}
