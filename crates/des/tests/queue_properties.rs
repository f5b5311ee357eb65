//! Model-based property test: [`EventQueue`] against a naive sorted-`Vec`
//! reference under random push / cancel / reschedule / pop interleavings.
//!
//! The reference model keeps every live event in a flat `Vec` and re-derives
//! the pop order by a full scan, so it is obviously correct (if slow). The
//! indexed heap must agree with it on every observable: pop order (including
//! equal-timestamp FIFO ties and reschedule's pushed-afresh tie semantics),
//! the success/failure of every cancel and reschedule (stale handles must be
//! rejected), and the live-event count after every operation.
//!
//! A pop leaves the heap's root vacant until the next operation refills it
//! (a push by taking its place, anything else by the usual tail refill). The
//! composite operations below pin those paths: pop→push, pop→cancel, a pop
//! followed by nothing but reads (`len`, `peek_time`), and a snapshot taken
//! mid-sequence, vacant root included, which must drain exactly like the
//! model while leaving the original untouched.

use proptest::prelude::*;

use dias_des::{EventHandle, EventQueue, SimTime};

/// One randomly generated operation; indices select among issued handles.
#[derive(Debug, Clone)]
enum Op {
    Push {
        time_units: u32,
    },
    Cancel {
        handle_idx: usize,
    },
    Reschedule {
        handle_idx: usize,
        time_units: u32,
    },
    Pop,
    /// A pop immediately followed by a push: the push fills the vacant root.
    PopPush {
        time_units: u32,
    },
    /// A pop immediately followed by a cancel, which refills the root first.
    PopCancel {
        handle_idx: usize,
    },
    /// Snapshot the queue as it stands and drain the copy against a copy of
    /// the model; the original carries on.
    Snapshot,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Coarse timestamps force plenty of equal-time ties.
        (0u32..50).prop_map(|time_units| Op::Push { time_units }),
        (0usize..200).prop_map(|handle_idx| Op::Cancel { handle_idx }),
        (0usize..200, 0u32..50).prop_map(|(handle_idx, time_units)| Op::Reschedule {
            handle_idx,
            time_units
        }),
        Just(Op::Pop),
        (0u32..50).prop_map(|time_units| Op::PopPush { time_units }),
        (0usize..200).prop_map(|handle_idx| Op::PopCancel { handle_idx }),
        Just(Op::Snapshot),
    ]
}

/// The naive reference: a `Vec` of live `(time, seq, id)` events.
#[derive(Debug, Default, Clone)]
struct NaiveModel {
    live: Vec<(SimTime, u64, u64)>,
    next_seq: u64,
}

impl NaiveModel {
    fn push(&mut self, time: SimTime, id: u64) {
        self.live.push((time, self.next_seq, id));
        self.next_seq += 1;
    }

    fn contains(&self, id: u64) -> bool {
        self.live.iter().any(|&(_, _, i)| i == id)
    }

    fn cancel(&mut self, id: u64) -> bool {
        match self.live.iter().position(|&(_, _, i)| i == id) {
            Some(pos) => {
                self.live.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Mirrors [`EventQueue::reschedule`]: the event keeps its identity but
    /// takes a fresh sequence number, as if newly pushed.
    fn reschedule(&mut self, id: u64, time: SimTime) -> bool {
        if !self.cancel(id) {
            return false;
        }
        self.push(time, id);
        true
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let pos = self
            .live
            .iter()
            .enumerate()
            .min_by_key(|(_, &(t, s, _))| (t, s))
            .map(|(pos, _)| pos)?;
        let (t, _, id) = self.live.remove(pos);
        Some((t, id))
    }
}

/// Every observable read agrees with the model: the live count and the
/// earliest timestamp (both plain reads, so they leave a vacant root vacant).
fn assert_reads_agree(queue: &EventQueue<u64>, model: &NaiveModel) {
    assert_eq!(queue.len(), model.live.len(), "live counts diverged");
    assert_eq!(queue.is_empty(), model.live.is_empty());
    assert_eq!(
        queue.peek_time(),
        model
            .live
            .iter()
            .map(|&(t, s, _)| (t, s))
            .min()
            .map(|(t, _)| t)
    );
}

fn run_scenario(ops: &[Op]) {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let mut model = NaiveModel::default();
    // Every handle ever issued, including fired/cancelled ones, so the
    // generated indices regularly hit stale handles.
    let mut handles: Vec<(EventHandle, u64)> = Vec::new();
    let mut next_id = 0u64;

    for op in ops {
        apply(op, &mut queue, &mut model, &mut handles, &mut next_id);
        assert_reads_agree(&queue, &model);
    }

    // Drain: the remaining pop order must match exactly, and every issued
    // handle must be stale afterwards.
    while let Some(want) = model.pop() {
        assert_eq!(queue.pop(), Some(want), "drain order diverged");
        assert_reads_agree(&queue, &model);
    }
    assert!(queue.is_empty());
    assert_eq!(queue.pop(), None);
    for &(h, id) in &handles {
        assert!(
            !queue.cancel(h),
            "handle of event {id} must be stale after the drain"
        );
        assert!(!queue.reschedule(h, SimTime::ZERO));
        assert!(!model.contains(id));
    }
}

fn apply(
    op: &Op,
    queue: &mut EventQueue<u64>,
    model: &mut NaiveModel,
    handles: &mut Vec<(EventHandle, u64)>,
    next_id: &mut u64,
) {
    match *op {
        Op::PopPush { time_units } => {
            apply(&Op::Pop, queue, model, handles, next_id);
            assert_reads_agree(queue, model);
            apply(&Op::Push { time_units }, queue, model, handles, next_id);
        }
        Op::PopCancel { handle_idx } => {
            apply(&Op::Pop, queue, model, handles, next_id);
            assert_reads_agree(queue, model);
            apply(&Op::Cancel { handle_idx }, queue, model, handles, next_id);
        }
        Op::Snapshot => {
            let mut copy = queue.snapshot();
            let mut copy_model = model.clone();
            assert_reads_agree(&copy, &copy_model);
            // Handles issued before the snapshot resolve in the copy.
            if let Some(&(h, id)) = handles.last() {
                assert_eq!(copy.cancel(h), copy_model.cancel(id));
            }
            while let Some(want) = copy_model.pop() {
                assert_eq!(copy.pop(), Some(want), "snapshot drain diverged");
            }
            assert!(copy.is_empty());
        }
        Op::Push { time_units } => {
            let t = SimTime::from_secs(f64::from(time_units));
            let id = *next_id;
            *next_id += 1;
            let h = queue.push(t, id);
            model.push(t, id);
            handles.push((h, id));
        }
        Op::Cancel { handle_idx } => {
            if handles.is_empty() {
                return;
            }
            let (h, id) = handles[handle_idx % handles.len()];
            let expect = model.cancel(id);
            assert_eq!(
                queue.cancel(h),
                expect,
                "cancel of event {id} disagrees with the model"
            );
        }
        Op::Reschedule {
            handle_idx,
            time_units,
        } => {
            if handles.is_empty() {
                return;
            }
            let (h, id) = handles[handle_idx % handles.len()];
            let t = SimTime::from_secs(f64::from(time_units));
            let expect = model.reschedule(id, t);
            assert_eq!(
                queue.reschedule(h, t),
                expect,
                "reschedule of event {id} disagrees with the model"
            );
        }
        Op::Pop => {
            let got = queue.pop();
            let want = model.pop();
            assert_eq!(got, want, "pop order diverged from the model");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_heap_matches_naive_model(ops in prop::collection::vec(arb_op(), 1..250)) {
        run_scenario(&ops);
    }
}

/// A deterministic dense-tie scenario: many pushes at one timestamp, mixed
/// with reschedules onto the same timestamp, must interleave exactly like the
/// model (reschedule = pushed afresh).
#[test]
fn equal_timestamp_fifo_with_reschedules() {
    let t = 7u32;
    let mut ops = Vec::new();
    for i in 0..40 {
        ops.push(Op::Push { time_units: t });
        if i % 3 == 0 {
            ops.push(Op::Reschedule {
                handle_idx: i,
                time_units: t,
            });
        }
        if i % 5 == 0 {
            ops.push(Op::Pop);
        }
    }
    run_scenario(&ops);
}
