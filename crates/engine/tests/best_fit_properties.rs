//! Model-based property test of gang placement: the allocation-free best fit
//! behind [`GangBinPack`] and [`PriorityPreempt`] against the gap-list
//! version it replaced, kept here as the reference.
//!
//! The reference sorts the occupied ranges, sweeps them into an explicit
//! list of free gaps and takes the smallest gap that holds the job (lowest
//! start among ties). The generated views include what the engine hands a
//! scheduler under faults: phantom blocked ranges that overlap a draining
//! run's range, ranges that touch or nest, and empty view sets. Each case
//! runs in the generated order and sorted by start, the engine's order.

use proptest::prelude::*;

use dias_des::SimTime;
use dias_engine::{
    GangBinPack, JobId, PendingView, PriorityPreempt, RunningView, Scheduler, SlotRange,
    BLOCKED_SLOT_CLASS, BLOCKED_SLOT_JOB,
};

/// Free contiguous gaps between the (possibly overlapping) ranges of
/// `running`, in slot order.
fn free_gaps(total_slots: usize, running: &[RunningView]) -> Vec<SlotRange> {
    let mut ranges: Vec<SlotRange> = running.iter().map(|r| r.slots).collect();
    ranges.sort_by_key(|r| r.start);
    let mut gaps = Vec::new();
    let mut cursor = 0usize;
    for r in ranges {
        if r.start > cursor {
            gaps.push(SlotRange::new(cursor, r.start - cursor));
        }
        cursor = cursor.max(r.end());
    }
    if cursor < total_slots {
        gaps.push(SlotRange::new(cursor, total_slots - cursor));
    }
    gaps
}

/// The reference best fit: smallest gap that holds `width` (clamped to the
/// cluster), lowest start among ties, truncated to exactly that width.
fn best_fit(width: usize, total_slots: usize, running: &[RunningView]) -> Option<SlotRange> {
    let w = width.clamp(1, total_slots);
    free_gaps(total_slots, running)
        .into_iter()
        .filter(|g| g.count >= w)
        .min_by_key(|g| (g.count, g.start))
        .map(|g| SlotRange::new(g.start, w))
}

/// The reference `PriorityPreempt` backfill: highest class first through a
/// stable sort, FCFS within a class, first job that fits.
fn priority_pick_next(
    pending: &[PendingView],
    total_slots: usize,
    running: &[RunningView],
) -> Option<(usize, SlotRange)> {
    let mut order: Vec<usize> = (0..pending.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(pending[i].class));
    order
        .into_iter()
        .find_map(|i| best_fit(pending[i].width, total_slots, running).map(|r| (i, r)))
}

/// A cluster size, a view set (possibly empty) and a pending queue. Each
/// view is a running job or, when its flag is set, a phantom blocked range;
/// ranges are clipped to the cluster and may overlap each other.
fn arb_case() -> impl Strategy<Value = (usize, Vec<RunningView>, Vec<PendingView>)> {
    // Mostly narrow ranges, so the cluster keeps several gaps, often of
    // equal size (the start tie-break); now and then a wide one.
    let view = (
        0usize..40,
        prop_oneof![1usize..6, 1usize..40],
        0usize..3,
        any::<bool>(),
        0u32..8,
    );
    (
        prop_oneof![1usize..16, 1usize..40],
        prop::collection::vec(view, 0..8),
        prop::collection::vec((0usize..3, 1usize..50), 0..6),
    )
        .prop_map(|(total, views, pending)| {
            let running = views
                .into_iter()
                .map(|(start, count, class, phantom, started)| {
                    let start = start % total;
                    let count = count.min(total - start);
                    let (job, class) = if phantom {
                        (BLOCKED_SLOT_JOB, BLOCKED_SLOT_CLASS)
                    } else {
                        (JobId((start * 100 + count) as u64), class)
                    };
                    RunningView {
                        job,
                        class,
                        slots: SlotRange::new(start, count),
                        started: SimTime::from_secs(f64::from(started)),
                    }
                })
                .collect();
            let pending = pending
                .into_iter()
                .enumerate()
                .map(|(i, (class, width))| PendingView {
                    job: JobId(1000 + i as u64),
                    class,
                    width,
                })
                .collect();
            (total, running, pending)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn placement_matches_the_gap_list_reference(
        (total, running, pending) in arb_case(),
        width in prop_oneof![1usize..4, 1usize..50],
        class in 0usize..3,
    ) {
        // Once as generated (best fit sorts a copy) and once sorted by
        // start, the order the engine hands views over (swept in place).
        let mut by_start = running.clone();
        by_start.sort_by_key(|r| r.slots.start);
        for running in [running, by_start] {
            let want = best_fit(width, total, &running);
            prop_assert_eq!(GangBinPack.place(class, width, total, &running), want);
            prop_assert_eq!(PriorityPreempt.place(class, width, total, &running), want);

            let gang_want = pending
                .iter()
                .enumerate()
                .find_map(|(i, p)| best_fit(p.width, total, &running).map(|r| (i, r)));
            prop_assert_eq!(GangBinPack.pick_next(&pending, total, &running), gang_want);
            prop_assert_eq!(
                PriorityPreempt.pick_next(&pending, total, &running),
                priority_pick_next(&pending, total, &running)
            );

            // The victim search asks whether the arrival would fit once every
            // strictly lower class is gone; no victim is named when it would not.
            let survivors: Vec<RunningView> =
                running.iter().filter(|r| r.class >= class).copied().collect();
            let victim = PriorityPreempt.victim(class, width, total, &running);
            if best_fit(width, total, &survivors).is_none() {
                prop_assert_eq!(victim, None);
            } else {
                prop_assert_eq!(victim.is_some(), running.iter().any(|r| r.class < class));
            }
        }
    }
}

#[test]
fn equal_gaps_break_ties_by_lowest_start() {
    let view = |job: u64, start: usize, count: usize| RunningView {
        job: JobId(job),
        class: 0,
        slots: SlotRange::new(start, count),
        started: SimTime::ZERO,
    };
    // Gaps [2, 3) and [5, 6) hold one slot each; the view listing the later
    // gap's left neighbour first must not win the tie.
    let running = [view(1, 3, 2), view(2, 0, 2), view(3, 6, 2)];
    assert_eq!(best_fit(1, 8, &running), Some(SlotRange::new(2, 1)));
    assert_eq!(
        GangBinPack.place(0, 1, 8, &running),
        Some(SlotRange::new(2, 1))
    );
}

#[test]
fn empty_and_full_view_sets() {
    assert_eq!(GangBinPack.place(0, 5, 20, &[]), Some(SlotRange::new(0, 5)));
    assert_eq!(best_fit(5, 20, &[]), Some(SlotRange::new(0, 5)));
    // A phantom covering the whole cluster beside a run on part of it (a
    // draining slot's occupant): nothing is free.
    let running = [
        RunningView {
            job: JobId(1),
            class: 0,
            slots: SlotRange::new(0, 8),
            started: SimTime::ZERO,
        },
        RunningView {
            job: BLOCKED_SLOT_JOB,
            class: BLOCKED_SLOT_CLASS,
            slots: SlotRange::new(0, 20),
            started: SimTime::ZERO,
        },
    ];
    assert_eq!(GangBinPack.place(0, 1, 20, &running), None);
    assert_eq!(best_fit(1, 20, &running), None);
}
