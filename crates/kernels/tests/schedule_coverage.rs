//! Property test for the scheduling invariant every unsafe kernel
//! relies on: whatever the policy, the union of ranges handed to the
//! workers covers each row **exactly once**. A row dispatched twice
//! would alias the kernels' unchecked `YPtr` writes; a row dropped
//! would silently leave stale output behind.

use std::sync::atomic::{AtomicU32, Ordering};

use proptest::collection::vec;
use proptest::prelude::*;
use spmv_kernels::schedule::execute_spawn;
use spmv_kernels::{Plan, Schedule};

/// Builds a row pointer from per-row nonzero counts (including empty
/// rows, which the nnz-balanced partitioner must still cover).
fn rowptr_from_counts(counts: &[usize]) -> Vec<usize> {
    let mut rowptr = Vec::with_capacity(counts.len() + 1);
    rowptr.push(0usize);
    for &c in counts {
        rowptr.push(rowptr.last().unwrap() + c);
    }
    rowptr
}

fn all_schedules() -> [Schedule; 2] {
    [Schedule::NnzBalanced, Schedule::Guided]
}

/// Records how often each row was dispatched. Workers run
/// concurrently, so the tally must be atomic.
fn tally(nrows: usize, run: impl FnOnce(&(dyn Fn(std::ops::Range<usize>) + Sync))) -> Vec<u32> {
    let hits: Vec<AtomicU32> = (0..nrows).map(|_| AtomicU32::new(0)).collect();
    run(&|range: std::ops::Range<usize>| {
        for r in range {
            hits[r].fetch_add(1, Ordering::Relaxed);
        }
    });
    hits.into_iter().map(AtomicU32::into_inner).collect()
}

fn assert_exactly_once(hits: &[u32], schedule: Schedule, nthreads: usize) {
    for (row, &h) in hits.iter().enumerate() {
        assert_eq!(h, 1, "{schedule:?} with {nthreads} threads dispatched row {row} {h} times");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Pooled dispatch: every policy's partition of a random (possibly
    /// empty-rowed) matrix covers each row exactly once.
    #[test]
    fn pooled_plan_covers_each_row_exactly_once(
        counts in vec(0usize..9, 1..120),
        nthreads in 1usize..9,
    ) {
        let rowptr = rowptr_from_counts(&counts);
        let nrows = counts.len();
        for schedule in all_schedules() {
            let plan = Plan::new(schedule, &rowptr, nthreads);
            let hits = tally(nrows, |worker| {
                plan.execute(worker);
            });
            assert_exactly_once(&hits, schedule, nthreads);
        }
    }

    /// The legacy spawn-per-call path must satisfy the same invariant
    /// — it is the reference the pooled engine is checked against.
    #[test]
    fn spawned_execution_covers_each_row_exactly_once(
        counts in vec(0usize..9, 1..60),
        nthreads in 1usize..5,
    ) {
        let rowptr = rowptr_from_counts(&counts);
        let nrows = counts.len();
        for schedule in all_schedules() {
            let hits = tally(nrows, |worker| {
                execute_spawn(schedule, &rowptr, nthreads, worker);
            });
            assert_exactly_once(&hits, schedule, nthreads);
        }
    }
}

/// Degenerate shapes that random generation may shrink past: a single
/// row, all-empty rows, and more threads than rows.
#[test]
fn degenerate_shapes_covered() {
    for (counts, nthreads) in
        [(vec![0usize], 4), (vec![0; 17], 8), (vec![3], 1), (vec![1, 0, 0, 0, 5], 16)]
    {
        let rowptr = rowptr_from_counts(&counts);
        for schedule in all_schedules() {
            let plan = Plan::new(schedule, &rowptr, nthreads);
            let hits = tally(counts.len(), |worker| {
                plan.execute(worker);
            });
            assert_exactly_once(&hits, schedule, nthreads);
        }
    }
}
