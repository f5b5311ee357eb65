//! # dias-repro
//!
//! Meta-crate for the reproduction of *"Differential Approximation and Sprinting for
//! Multi-Priority Big Data Engines"* (Birke et al., Middleware 2019).
//!
//! This crate re-exports every workspace crate under a single namespace so the
//! repository-level examples and integration tests can exercise the full public API:
//!
//! * [`des`] — discrete-event simulation kernel and statistics.
//! * [`linalg`] — dense linear algebra used by the stochastic models.
//! * [`stochastic`] — phase-type distributions and marked arrival processes.
//! * [`models`] — the paper's §4 task-/wave-level models and priority-queue analysis.
//! * [`engine`] — the Spark-like cluster simulator substrate.
//! * [`pool`] — the scoped worker-lane pool behind every parallel runner.
//! * [`core`] — the DiAS controller: policies, deflator, sprinter, driver loop.
//! * [`workloads`] — text/graph analytics workloads and job-stream generators.
//!
//! # Quickstart
//!
//! ```
//! use dias_repro::core::{Experiment, Policy};
//! use dias_repro::workloads::reference_two_priority;
//!
//! // The paper's two-priority reference workload at 80% utilization.
//! let workload = reference_two_priority(0.8, 7);
//! let report = Experiment::new(workload, Policy::da_percent_high_to_low(&[0.0, 20.0]))
//!     .jobs(50)
//!     .run()
//!     .unwrap();
//! assert!(report.mean_response(0) > 0.0);
//! assert_eq!(report.evictions, 0); // DiAS never evicts
//! ```
//!
//! # Multi-job quickstart
//!
//! Concurrent jobs on disjoint slot subsets, with per-class energy
//! attribution, differential approximation, and **budgeted per-gang
//! sprinting**: only high-class jobs' own frequency domains sprint, each
//! charged to a shared replenishing budget at the per-slot extra power times
//! its gang width:
//!
//! ```
//! use dias_repro::core::{MultiJobExperiment, SprintBudget, SprintPolicy};
//! use dias_repro::engine::GangBinPack;
//! use dias_repro::workloads::heterogeneous_width_two_priority;
//!
//! let workload = heterogeneous_width_two_priority(0.8, 7); // 12- vs 4-wide gangs
//! let report = MultiJobExperiment::new(workload, Box::new(GangBinPack))
//!     .drops(&[0.2, 0.0]) // DA(0,20): low class approximates
//!     // High class sprints its own gang from dispatch, on a 22 kJ budget
//!     // replenished at 18 W; budget depletion stops every sprint at once.
//!     .sprint(SprintPolicy::top_class(2, 0.0, SprintBudget::limited(22_000.0, 18.0)))
//!     .jobs(50)
//!     .run()
//!     .unwrap();
//! assert!(report.per_class[0].active_energy_joules > 0.0);
//! assert_eq!(report.per_class[0].sprint_slot_secs, 0.0); // low gangs never sprint
//! assert_eq!(report.evictions, 0); // gang packing never evicts
//! // The budget books balance: initial + replenished − spent == remaining.
//! let residual = 22_000.0 + report.sprint_budget_replenished_j
//!     - report.sprint_budget_spent_j
//!     - report.sprint_budget_remaining_j;
//! assert!(residual.abs() < 1e-6);
//! ```
//!
//! # Open-system soak quickstart
//!
//! The same driver loop over an **unbounded** arrival stream at O(1) memory
//! per class: exact streaming moments (Welford) plus Greenwald–Khanna
//! quantile sketches with a proven ε rank bound, MSER warm-up detection,
//! tumbling telemetry windows, and a live-object high-water mark as the
//! peak-RSS proxy. The README's 1M-job version only changes `.jobs(..)` —
//! the doctest stays small so `cargo test --doc` stays fast:
//!
//! ```
//! use dias_repro::core::{SoakExperiment, WarmupRule};
//! use dias_repro::des::stats::SampleStats;
//! use dias_repro::engine::GangBinPack;
//! use dias_repro::workloads::heterogeneous_width_two_priority;
//!
//! let report = SoakExperiment::new(
//!     heterogeneous_width_two_priority(0.7, 42),
//!     Box::new(GangBinPack),
//! )
//! .jobs(2_000)
//! .warmup(WarmupRule::Mser { calibration: 0 })
//! .drops(&[0.2, 0.0])
//! .run()
//! .unwrap();
//! assert_eq!(report.measured_jobs, 2_000);
//! assert!(report.per_class[0].response.quantile(0.99) > 0.0);
//! assert!(!report.windows.is_empty());
//! // Per-job state died with the jobs: the peak live-object count is set by
//! // queue depth and sketch size, not run length (the soak bench pins the
//! // same bound at a million jobs).
//! assert!(report.live_high_water < 20_000);
//! ```
//!
//! # Sharded federation quickstart
//!
//! A fleet of clusters sharded across worker threads: each shard owns its
//! own calendar, a deterministic router (a pure function of the arrival
//! stream) assigns every job to a shard, and cross-shard couplings (shared
//! sprint budget, global power cap) are partitioned by slot share up front.
//! Workers synchronise at fixed epoch boundaries, and the report is
//! **bitwise identical at any thread count and any epoch length** — the
//! thread count below is a resource knob, not a semantic one:
//!
//! ```
//! use dias_repro::core::federation::{FederationExperiment, Router};
//! use dias_repro::engine::{ClusterSpec, GangBinPack};
//! use dias_repro::workloads::heterogeneous_width_fleet;
//!
//! // Two paper-reference shards fed at twice the single-cluster rate.
//! let shards = vec![ClusterSpec::paper_reference(); 2];
//! let fleet = ClusterSpec {
//!     workers: 2 * ClusterSpec::paper_reference().workers,
//!     ..ClusterSpec::paper_reference()
//! };
//! let stream = heterogeneous_width_fleet(&fleet, 0.7, 42);
//! let build = |threads: usize| {
//!     FederationExperiment::new(stream.clone(), shards.clone(), |_| Box::new(GangBinPack))
//!         .router(Router::Hash)
//!         .epoch_secs(60.0)
//!         .drops(&[0.2, 0.0])
//!         .arrivals(60)
//!         .run(threads)
//!         .unwrap()
//! };
//! let serial = build(1);
//! let parallel = build(4);
//! assert_eq!(serial, parallel); // bit-identical across thread counts
//! assert_eq!(serial.completed(), 60);
//! assert_eq!(serial.shards.len(), 2);
//! ```

pub use dias_core as core;
pub use dias_des as des;
pub use dias_engine as engine;
pub use dias_linalg as linalg;
pub use dias_models as models;
pub use dias_pool as pool;
pub use dias_stochastic as stochastic;
pub use dias_workloads as workloads;
