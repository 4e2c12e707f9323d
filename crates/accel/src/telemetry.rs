//! Lightweight simulation telemetry: the preparation-cost and class-replay
//! counters the scaling regression tests and the DSE `--stats` output read.
//!
//! Two counters live here, with deliberately different scopes:
//!
//! * [`prepare_ops`] — a **thread-local** count of degree elements visited
//!   while building prepared-workload structures (`PreparedSpmm`,
//!   `TileStats`, `WorkloadSummary`, `DegreeSummary`, degree classes) *and*
//!   while scanning tiles inside a reference walk or a chunked VFN/FVN walk
//!   (which reads each tile's degrees in place instead of building a
//!   summary).
//!   Thread-local so a test can assert "the second unchunked simulation of
//!   the same workload built nothing" without interference from parallel
//!   tests; reset it with [`reset_prepare_ops`] before the section under
//!   measurement.
//! * [`class_replays`] — a **process-wide monotone** count of tile passes that
//!   were *replayed* from a batched degree class, tile group or tile class
//!   instead of being walked (a batch covering `m` identical tiles costs one
//!   timeline computation and `m − 1` replays). It counts *tile* replays,
//!   not folded neighbour slices: batching a run of identical slices into
//!   one pass adds nothing to it, so the value does not depend on how the
//!   slices fold. The CI
//!   scale smoke pins its rmat-18 value — proof the summary-driven path
//!   engaged and its work did not move.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    static PREPARE_OPS: Cell<u64> = const { Cell::new(0) };
}

static CLASS_REPLAYS: AtomicU64 = AtomicU64::new(0);

/// Degree elements visited by prepared-structure builds and by the tile
/// scans of reference and chunked walks on *this thread* since the last
/// [`reset_prepare_ops`].
pub fn prepare_ops() -> u64 {
    PREPARE_OPS.with(|c| c.get())
}

/// Resets this thread's [`prepare_ops`] counter to zero.
pub fn reset_prepare_ops() {
    PREPARE_OPS.with(|c| c.set(0));
}

#[inline]
pub(crate) fn count_prepare(n: u64) {
    PREPARE_OPS.with(|c| c.set(c.get() + n));
}

/// Process-wide monotone count of tile passes replayed from a batched class
/// instead of walked per-edge. Read a before/after delta around the section
/// of interest.
pub fn class_replays() -> u64 {
    CLASS_REPLAYS.load(Ordering::Relaxed)
}

#[inline]
pub(crate) fn add_class_replays(n: u64) {
    if n > 0 {
        CLASS_REPLAYS.fetch_add(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_ops_are_thread_local_and_resettable() {
        reset_prepare_ops();
        count_prepare(7);
        count_prepare(5);
        assert_eq!(prepare_ops(), 12);
        let other = std::thread::spawn(|| {
            count_prepare(100);
            prepare_ops()
        })
        .join()
        .unwrap();
        assert_eq!(other, 100);
        assert_eq!(prepare_ops(), 12);
        reset_prepare_ops();
        assert_eq!(prepare_ops(), 0);
    }

    #[test]
    fn class_replays_accumulate_globally() {
        let before = class_replays();
        add_class_replays(3);
        add_class_replays(0); // no-op, no atomic traffic
        assert!(class_replays() >= before + 3);
    }
}
