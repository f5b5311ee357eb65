//! Scheduler policies: how [`ClusterSim`](crate::ClusterSim) places concurrent
//! jobs onto disjoint slot subsets.
//!
//! The paper's analysis assumes one job at a time over `C` slots; its *system*
//! story — low-priority jobs absorbing approximation error while high-priority
//! jobs sprint past them — only becomes interesting when jobs of different
//! classes coexist on the machine. A [`Scheduler`] decides three things for the
//! engine:
//!
//! 1. **placement** — which contiguous [`SlotRange`] an arriving job runs on
//!    (or `None` to hold it);
//! 2. **backfill** — which pending job to dispatch when capacity frees up;
//! 3. **preemption** — which running job, if any, to evict so a higher-class
//!    arrival fits.
//!
//! Five policies ship with the engine:
//!
//! * [`Fifo`] — one job at a time over the full cluster, exactly the paper's
//!   model and the pre-multi-job engine's behaviour (pinned bit-for-bit by
//!   `crates/engine/tests/golden_trace.rs`);
//! * [`ClassPriority`] and [`ClassPriorityPreempt`] — one job at a time over
//!   the full cluster with class-ordered backfill: the paper's per-priority
//!   buffers and dispatcher (§3, Fig. 3), non-preemptive (NP, DA, DiAS) and
//!   preemptive (P);
//! * [`GangBinPack`] — jobs get disjoint slot subsets sized by their widest
//!   stage, best-fit bin-packed into the free gaps, with FCFS backfill;
//! * [`PriorityPreempt`] — gang placement plus class-ordered backfill and
//!   eviction of lower-class jobs (through their calendar handles) when a
//!   higher-class arrival does not fit — the preemptive baseline made
//!   concurrent.

use std::fmt;

use serde::{Deserialize, Serialize};

use dias_des::SimTime;

use crate::JobId;

/// A contiguous subset `[start, start + count)` of the cluster's slots.
///
/// The engine assigns every running job one such range; a scheduler must keep
/// the ranges of concurrently running jobs disjoint (property-tested in
/// `crates/engine/tests/gang_properties.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SlotRange {
    /// First slot index of the range.
    pub start: usize,
    /// Number of slots in the range.
    pub count: usize,
}

impl SlotRange {
    /// Creates the range `[start, start + count)`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`; a running job always owns at least one slot.
    #[must_use]
    pub fn new(start: usize, count: usize) -> Self {
        assert!(count > 0, "a slot range cannot be empty");
        SlotRange { start, count }
    }

    /// One past the last slot index of the range.
    #[must_use]
    pub fn end(&self) -> usize {
        self.start + self.count
    }

    /// Whether two ranges share any slot.
    #[must_use]
    pub fn overlaps(&self, other: &SlotRange) -> bool {
        self.start < other.end() && other.start < self.end()
    }
}

impl fmt::Display for SlotRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end())
    }
}

/// Read-only view of one running job, handed to schedulers for decisions.
///
/// [`ClusterSim`](crate::ClusterSim) hands its views over sorted by
/// `slots.start`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningView {
    /// The running job's id.
    pub job: JobId,
    /// Its priority class (higher = more important).
    pub class: usize,
    /// The slot subset it occupies.
    pub slots: SlotRange,
    /// When its current attempt was dispatched.
    pub started: SimTime,
}

/// Read-only view of one job waiting in the engine's pending queue, in queue
/// order (index 0 = head).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingView {
    /// The waiting job's id.
    pub job: JobId,
    /// Its priority class.
    pub class: usize,
    /// Slots the job wants: its widest stage after drops, at least 1.
    pub width: usize,
}

/// A slot-subset scheduling policy driving [`ClusterSim`](crate::ClusterSim)'s
/// admission, backfill and preemption decisions.
///
/// Implementations must be deterministic pure functions of their arguments:
/// the engine's bitwise reproducibility (and the golden traces pinning it)
/// depends on placement never consulting wall clocks, RNGs or iteration
/// order of unordered containers.
pub trait Scheduler: fmt::Debug + Send {
    /// Short human-readable policy name used in reports and benches.
    fn label(&self) -> &'static str;

    /// Chooses a slot range for an arriving job of `class` wanting `width`
    /// slots, or `None` when the job cannot be placed right now.
    fn place(
        &mut self,
        class: usize,
        width: usize,
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<SlotRange>;

    /// After capacity frees up, chooses the next pending job to dispatch:
    /// an index into `pending` plus the range to run it on. `None` leaves the
    /// queue untouched until the next departure.
    fn pick_next(
        &mut self,
        pending: &[PendingView],
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<(usize, SlotRange)>;

    /// Names one running job to evict so an arriving job of `class` wanting
    /// `width` slots can fit. The engine evicts it and asks again until
    /// [`Scheduler::place`] succeeds or this returns `None` (then the arrival
    /// queues). The default never preempts.
    fn victim(
        &mut self,
        class: usize,
        width: usize,
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<JobId> {
        let _ = (class, width, total_slots, running);
        None
    }
}

/// Best-fit placement: the smallest free gap between the `occupied` ranges
/// (which may overlap) that still holds `width` slots, ties broken by lowest
/// start, truncated to exactly `width`.
///
/// The engine hands its views over sorted by start, so its calls sweep them
/// in place without allocating; ranges in any other order are sorted into a
/// fresh buffer first.
fn best_fit<I>(width: usize, total_slots: usize, occupied: I) -> Option<SlotRange>
where
    I: Iterator<Item = SlotRange> + Clone,
{
    if occupied.clone().is_sorted_by_key(|r| r.start) {
        return best_fit_sorted(width, total_slots, occupied);
    }
    let mut sorted: Vec<SlotRange> = occupied.collect();
    sorted.sort_unstable_by_key(|r| r.start);
    best_fit_sorted(width, total_slots, sorted.into_iter())
}

/// [`best_fit`] over ranges sorted by start: one sweep over the free gaps
/// they leave, in slot order.
fn best_fit_sorted(
    width: usize,
    total_slots: usize,
    occupied: impl Iterator<Item = SlotRange>,
) -> Option<SlotRange> {
    let w = width.clamp(1, total_slots);
    // The tightest gap so far, as `(count, start)`.
    let mut best: Option<(usize, usize)> = None;
    let mut consider = |start: usize, end: usize| {
        let gap = (end - start, start);
        if gap.0 >= w && best.is_none_or(|b| gap < b) {
            best = Some(gap);
        }
    };
    let mut cursor = 0usize;
    for r in occupied {
        if r.start > cursor {
            consider(cursor, r.start);
        }
        cursor = cursor.max(r.end());
    }
    if cursor < total_slots {
        consider(cursor, total_slots);
    }
    best.map(|(_, start)| SlotRange::new(start, w))
}

/// The slot ranges of `running`, as [`best_fit`] takes them.
fn ranges(running: &[RunningView]) -> impl Iterator<Item = SlotRange> + Clone + '_ {
    running.iter().map(|r| r.slots)
}

/// One job at a time over the full cluster — the paper's model and the
/// engine's historical behaviour.
///
/// A job is placed only on an idle cluster and always receives every slot
/// (even a one-task stage holds the whole machine, exactly as before);
/// backfill dispatches strictly in FCFS order. `Fifo` is the default policy
/// of [`ClusterSim::new`](crate::ClusterSim::new) and is pinned bit-for-bit
/// to the pre-multi-job engine by the golden trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl Scheduler for Fifo {
    fn label(&self) -> &'static str {
        "FIFO"
    }

    fn place(
        &mut self,
        _class: usize,
        _width: usize,
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<SlotRange> {
        running.is_empty().then(|| SlotRange::new(0, total_slots))
    }

    fn pick_next(
        &mut self,
        pending: &[PendingView],
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<(usize, SlotRange)> {
        (running.is_empty() && !pending.is_empty()).then(|| (0, SlotRange::new(0, total_slots)))
    }
}

/// Index of the pending job to dispatch next under class priority: the
/// highest waiting class, FCFS within a class (the first queue position of
/// that class — evicted jobs re-queue at the head, so they resume ahead of
/// their class).
fn highest_class_first(pending: &[PendingView]) -> Option<usize> {
    let top = pending.iter().map(|p| p.class).max()?;
    pending.iter().position(|p| p.class == top)
}

/// One job at a time over the full cluster, highest class first — the
/// paper's per-priority buffers and non-preemptive dispatcher (§3, Fig. 3),
/// the discipline of NP, DA and DiAS.
///
/// A job is placed only on an idle cluster and receives every slot;
/// backfill dispatches the highest waiting class, FCFS within a class. No
/// preemption.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassPriority;

impl Scheduler for ClassPriority {
    fn label(&self) -> &'static str {
        "ClassPriority"
    }

    fn place(
        &mut self,
        _class: usize,
        _width: usize,
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<SlotRange> {
        running.is_empty().then(|| SlotRange::new(0, total_slots))
    }

    fn pick_next(
        &mut self,
        pending: &[PendingView],
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<(usize, SlotRange)> {
        if !running.is_empty() {
            return None;
        }
        highest_class_first(pending).map(|i| (i, SlotRange::new(0, total_slots)))
    }
}

/// [`ClassPriority`] plus eviction: the paper's preemptive baseline `P`.
///
/// An arrival of a strictly higher class than the running job evicts it; the
/// victim re-queues at the head of the pending queue and re-executes from
/// scratch, ahead of the rest of its class. A victim is named only when
/// every running view is of a strictly lower class, so an arrival that could
/// not take the cluster anyway (a slot blocked by a fault) destroys nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassPriorityPreempt;

impl Scheduler for ClassPriorityPreempt {
    fn label(&self) -> &'static str {
        "ClassPriorityPreempt"
    }

    fn place(
        &mut self,
        class: usize,
        width: usize,
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<SlotRange> {
        ClassPriority.place(class, width, total_slots, running)
    }

    fn pick_next(
        &mut self,
        pending: &[PendingView],
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<(usize, SlotRange)> {
        ClassPriority.pick_next(pending, total_slots, running)
    }

    fn victim(
        &mut self,
        class: usize,
        _width: usize,
        _total_slots: usize,
        running: &[RunningView],
    ) -> Option<JobId> {
        if running.iter().all(|r| r.class < class) {
            running.first().map(|r| r.job)
        } else {
            None
        }
    }
}

/// Gang scheduling with best-fit bin-packing by stage width.
///
/// An arriving job asks for `min(widest stage, C)` slots and is placed into
/// the smallest free gap that fits (lowest start among ties); narrow jobs
/// therefore coexist instead of serializing. Backfill walks the pending
/// queue in FCFS order and dispatches the **first job that fits**, so a wide
/// job at the head does not block narrow jobs behind it. No preemption.
#[derive(Debug, Clone, Copy, Default)]
pub struct GangBinPack;

impl Scheduler for GangBinPack {
    fn label(&self) -> &'static str {
        "GangBinPack"
    }

    fn place(
        &mut self,
        _class: usize,
        width: usize,
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<SlotRange> {
        best_fit(width, total_slots, ranges(running))
    }

    fn pick_next(
        &mut self,
        pending: &[PendingView],
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<(usize, SlotRange)> {
        pending
            .iter()
            .enumerate()
            .find_map(|(i, p)| best_fit(p.width, total_slots, ranges(running)).map(|r| (i, r)))
    }
}

/// Gang placement plus class-ordered backfill and lower-class eviction — the
/// paper's preemptive baseline made concurrent.
///
/// Placement is [`GangBinPack`]'s best fit. When a higher-class arrival does
/// not fit, [`Scheduler::victim`] repeatedly names a running job of a strictly
/// lower class — lowest class first, then the most recently dispatched
/// attempt (least sunk work), then the highest [`JobId`] — until the arrival
/// fits or no lower-class job remains (then the arrival queues). Backfill
/// prefers the highest waiting class, FCFS within a class, and lets narrower
/// lower-class jobs fill slots a blocked higher-class job cannot use (they
/// run at their own risk: a later high arrival evicts them again).
#[derive(Debug, Clone, Copy, Default)]
pub struct PriorityPreempt;

impl Scheduler for PriorityPreempt {
    fn label(&self) -> &'static str {
        "PriorityPreempt"
    }

    fn place(
        &mut self,
        _class: usize,
        width: usize,
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<SlotRange> {
        best_fit(width, total_slots, ranges(running))
    }

    fn pick_next(
        &mut self,
        pending: &[PendingView],
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<(usize, SlotRange)> {
        // Highest class first, FCFS within a class: walk the classes present
        // from the top down, each in queue order.
        let mut class = pending.iter().map(|p| p.class).max()?;
        loop {
            let found = pending
                .iter()
                .enumerate()
                .filter(|(_, p)| p.class == class)
                .find_map(|(i, p)| best_fit(p.width, total_slots, ranges(running)).map(|r| (i, r)));
            if found.is_some() {
                return found;
            }
            class = pending
                .iter()
                .map(|p| p.class)
                .filter(|&c| c < class)
                .max()?;
        }
    }

    fn victim(
        &mut self,
        class: usize,
        width: usize,
        total_slots: usize,
        running: &[RunningView],
    ) -> Option<JobId> {
        // Feasibility first: would the arrival fit even after evicting every
        // strictly-lower-class job? If not (same-or-higher-class jobs
        // fragment the cluster too much), evicting anything destroys work
        // for zero benefit — decline and let the arrival queue.
        let survivors = running.iter().filter(|r| r.class >= class).map(|r| r.slots);
        best_fit(width, total_slots, survivors)?;
        running
            .iter()
            .filter(|r| r.class < class)
            .min_by(|a, b| {
                a.class
                    .cmp(&b.class)
                    .then(
                        b.started
                            .partial_cmp(&a.started)
                            .expect("dispatch times are finite"),
                    )
                    .then(b.job.cmp(&a.job))
            })
            .map(|r| r.job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(job: u64, class: usize, start: usize, count: usize, started: f64) -> RunningView {
        RunningView {
            job: JobId(job),
            class,
            slots: SlotRange::new(start, count),
            started: SimTime::from_secs(started),
        }
    }

    #[test]
    fn slot_range_overlap_geometry() {
        let a = SlotRange::new(0, 10);
        let b = SlotRange::new(10, 5);
        let c = SlotRange::new(9, 2);
        assert!(!a.overlaps(&b), "adjacent ranges do not overlap");
        assert!(a.overlaps(&c) && c.overlaps(&b));
        assert_eq!(a.end(), 10);
        assert_eq!(format!("{c}"), "[9, 11)");
    }

    #[test]
    #[should_panic(expected = "cannot be empty")]
    fn empty_range_rejected() {
        let _ = SlotRange::new(3, 0);
    }

    #[test]
    fn fifo_places_only_on_idle_cluster() {
        let mut f = Fifo;
        assert_eq!(f.place(0, 3, 20, &[]), Some(SlotRange::new(0, 20)));
        let running = [view(1, 0, 0, 20, 0.0)];
        assert_eq!(f.place(1, 3, 20, &running), None);
        assert_eq!(f.victim(1, 3, 20, &running), None);
    }

    fn pending(job: u64, class: usize) -> PendingView {
        PendingView {
            job: JobId(job),
            class,
            width: 4,
        }
    }

    #[test]
    fn class_priority_places_whole_cluster_only_when_idle() {
        let mut p = ClassPriority;
        assert_eq!(p.place(0, 3, 20, &[]), Some(SlotRange::new(0, 20)));
        let running = [view(1, 0, 0, 20, 0.0)];
        assert_eq!(p.place(1, 3, 20, &running), None);
        assert_eq!(p.pick_next(&[pending(2, 1)], 20, &running), None);
        assert_eq!(p.victim(1, 3, 20, &running), None);
    }

    #[test]
    fn class_priority_backfills_highest_class_first() {
        let mut p = ClassPriority;
        let queue = [pending(1, 0), pending(2, 2), pending(3, 1), pending(4, 2)];
        assert_eq!(
            p.pick_next(&queue, 20, &[]),
            Some((1, SlotRange::new(0, 20)))
        );
        assert_eq!(p.pick_next(&[], 20, &[]), None);
    }

    #[test]
    fn class_priority_is_fcfs_within_a_class() {
        let mut p = ClassPriorityPreempt;
        // Queue position is arrival order, except that an evicted job sits
        // at the head: it resumes ahead of its class.
        let queue = [pending(7, 0), pending(3, 0), pending(5, 0)];
        assert_eq!(
            p.pick_next(&queue, 20, &[]),
            Some((0, SlotRange::new(0, 20)))
        );
    }

    #[test]
    fn class_priority_preempt_evicts_only_strictly_lower_classes() {
        let mut p = ClassPriorityPreempt;
        let low = [view(1, 0, 0, 20, 0.0)];
        assert_eq!(p.victim(1, 3, 20, &low), Some(JobId(1)));
        assert_eq!(p.victim(0, 3, 20, &low), None);
        let high = [view(2, 2, 0, 20, 0.0)];
        assert_eq!(p.victim(1, 3, 20, &high), None);
        // A slot blocked by a fault (class usize::MAX) keeps the cluster
        // unplaceable after any eviction: nothing is destroyed.
        let blocked = [
            view(1, 0, 0, 19, 0.0),
            view(u64::MAX, usize::MAX, 19, 1, 0.0),
        ];
        assert_eq!(p.victim(1, 3, 20, &blocked), None);
    }

    #[test]
    fn gang_best_fit_prefers_tightest_gap() {
        let mut g = GangBinPack;
        // Free gaps: [4,8) of 4 slots and [12,20) of 8 slots.
        let running = [view(1, 0, 0, 4, 0.0), view(2, 0, 8, 4, 0.0)];
        assert_eq!(g.place(0, 3, 20, &running), Some(SlotRange::new(4, 3)));
        // Width 6 only fits the tail gap.
        assert_eq!(g.place(0, 6, 20, &running), Some(SlotRange::new(12, 6)));
        // Width 9 fits nowhere.
        assert_eq!(g.place(0, 9, 20, &running), None);
        // Width is clamped to the cluster.
        assert_eq!(g.place(0, 50, 8, &[]), Some(SlotRange::new(0, 8)));
    }

    #[test]
    fn gang_backfill_skips_jobs_that_do_not_fit() {
        let mut g = GangBinPack;
        let running = [view(1, 0, 0, 16, 0.0)];
        let pending = [
            PendingView {
                job: JobId(2),
                class: 0,
                width: 10,
            },
            PendingView {
                job: JobId(3),
                class: 0,
                width: 4,
            },
        ];
        assert_eq!(
            g.pick_next(&pending, 20, &running),
            Some((1, SlotRange::new(16, 4)))
        );
    }

    #[test]
    fn priority_backfill_prefers_high_class() {
        let mut p = PriorityPreempt;
        let pending = [
            PendingView {
                job: JobId(2),
                class: 0,
                width: 4,
            },
            PendingView {
                job: JobId(3),
                class: 1,
                width: 4,
            },
        ];
        assert_eq!(
            p.pick_next(&pending, 20, &[]),
            Some((1, SlotRange::new(0, 4)))
        );
    }

    #[test]
    fn preempt_picks_lowest_class_youngest_attempt() {
        let mut p = PriorityPreempt;
        let running = [
            view(1, 0, 0, 8, 5.0),
            view(2, 0, 8, 8, 9.0),
            view(3, 1, 16, 4, 1.0),
        ];
        // Class-1 arrival of width 16: feasible once the class-0 jobs go —
        // the youngest class-0 attempt is named first.
        assert_eq!(p.victim(1, 16, 20, &running), Some(JobId(2)));
        // Class-1 jobs are never victims of a class-1 arrival.
        let only_high = [view(3, 1, 16, 4, 1.0)];
        assert_eq!(p.victim(1, 16, 20, &only_high), None);
    }

    #[test]
    fn preempt_declines_infeasible_evictions() {
        let mut p = PriorityPreempt;
        // A class-1 job pins [16, 20): even evicting every class-0 job
        // leaves only a 16-slot gap, so a width-20 class-1 arrival can
        // never fit — no victim may be named (evicting would destroy work
        // for zero benefit).
        let running = [
            view(1, 0, 0, 8, 5.0),
            view(2, 0, 8, 8, 9.0),
            view(3, 1, 16, 4, 1.0),
        ];
        assert_eq!(p.victim(1, 20, 20, &running), None);
    }
}
