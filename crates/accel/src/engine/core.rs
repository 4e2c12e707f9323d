//! The `PhaseEngine` core: shared machinery of every phase engine.
//!
//! A phase engine is split in two (DESIGN.md §3):
//!
//! * the **core** (this module) owns everything that is identical across phase
//!   kinds — the pass-granularity walk state ([`PhaseWalk`]), chunk-timeline
//!   emission ([`ChunkTracker`]), uniform-pass batching ([`loop_classes`]),
//!   bandwidth-share accounting ([`bandwidth_sweep`], [`pass_timing`]),
//!   partial-sum placement ([`SpillModel`]), pipeline-fill overheads
//!   ([`fill_overheads`]), prepared workload structures ([`PreparedSpmm`],
//!   [`PreparedGemm`]), and the [`run_phase`] driver that assembles the final
//!   [`PhaseStats`];
//! * each **leaf** (`gemm.rs`, `spmm.rs`, `sddmm.rs`, `elementwise.rs`)
//!   implements the [`PhaseEngine`] trait: which loop orders are legal, how the
//!   tile walk visits the workload, and what each pass costs in MACs and
//!   per-operand-class traffic.
//!
//! Everything here is crate-internal by design: the public surface of
//! `omega_accel::engine` stays the `simulate_*` functions and their
//! workload/options types, so the core can evolve without breaking callers.
//!
//! # Adding a phase kind
//!
//! 1. Define the workload type and a leaf struct precomputing the tile grid
//!    and a [`SpillModel`] (when the phase can carry partial sums).
//! 2. Implement [`PhaseEngine`]: `is_empty`, `reduction_lanes`,
//!    `pe_footprint`, `chunk_total`, and `walk` — the walk calls
//!    [`PhaseWalk::run_pass`] once per batched pass with the per-pass compute
//!    steps, GB traffic, and produced/consumed element counts. Override
//!    `epilogue` for post-walk sweeps (the SDDMM softmax).
//! 3. Expose a `simulate_<kind>` entry point that validates the tiling and
//!    calls [`run_phase`]. The elementwise engine (`elementwise.rs`, ~150
//!    lines) is the template.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::{Arc, Mutex, OnceLock};

use super::{ChunkSide, ChunkSpec, EngineOptions, GemmDims, OperandClasses};
use crate::{AccelConfig, AccessCounters, BandwidthShare, ChunkTimeline, PhaseStats, RfBudget};

/// Tracks progress toward chunk boundaries and records the chunk timeline,
/// one run of equal chunk durations at a time.
#[derive(Debug)]
pub(crate) struct ChunkTracker {
    pel: u64,
    total: u64,
    progress: u64,
    emitted: u64,
    timeline: ChunkTimeline,
}

impl ChunkTracker {
    pub(crate) fn new(spec: Option<&ChunkSpec>, total_elems: u64) -> Option<Self> {
        let spec = spec?;
        let pel = spec.pel.max(1);
        let timeline = ChunkTimeline::new();
        Some(ChunkTracker { pel, total: total_elems, progress: 0, emitted: 0, timeline })
    }

    /// Records `elems` of progress at cumulative time `now`. Reference
    /// implementation for [`Self::advance_repeat`], which the engines use for
    /// batched passes (`advance(e, t)` ≡ `advance_repeat(1, e, …)`); kept for
    /// the equivalence tests.
    #[cfg(test)]
    pub(crate) fn advance(&mut self, elems: u64, now: u64) {
        self.progress += elems;
        while (self.emitted + 1) * self.pel <= self.progress {
            self.timeline.push_mark(now);
            self.emitted += 1;
        }
    }

    /// Records `reps` back-to-back identical passes, each contributing
    /// `elems_each` of progress and `cycles_each` cycles, with the first pass
    /// starting at cumulative time `start_cycles`. Records exactly the marks
    /// the equivalent sequence of [`Self::advance`] calls would (each boundary
    /// is stamped with the end time of the pass that crosses it). When
    /// `elems_each` divides `pel`, every crossing after the first comes
    /// exactly `pel / elems_each` passes after the one before, so the batch is
    /// one mark plus one run: O(1). Otherwise it costs O(#marks).
    pub(crate) fn advance_repeat(
        &mut self,
        reps: u64,
        elems_each: u64,
        cycles_each: u64,
        start_cycles: u64,
    ) {
        if reps == 0 || elems_each == 0 {
            return;
        }
        let end = self.progress + reps * elems_each;
        if (self.emitted + 1) * self.pel <= end {
            self.stamp_next(elems_each, cycles_each, start_cycles);
            if (self.emitted + 1) * self.pel <= end && self.pel.is_multiple_of(elems_each) {
                let rest = end / self.pel - self.emitted;
                self.timeline.push(self.pel / elems_each * cycles_each, rest);
                self.emitted += rest;
            }
            while (self.emitted + 1) * self.pel <= end {
                self.stamp_next(elems_each, cycles_each, start_cycles);
            }
        }
        self.progress = end;
    }

    /// Stamps the next chunk boundary, which the batch of [`Self::advance_repeat`]
    /// crosses, with the end time of the pass that crosses it.
    fn stamp_next(&mut self, elems_each: u64, cycles_each: u64, start_cycles: u64) {
        let target = (self.emitted + 1) * self.pel;
        // 1-based index of the pass whose end crosses `target`.
        let r = (target - self.progress).div_ceil(elems_each);
        self.timeline.push_mark(start_cycles + r * cycles_each);
        self.emitted += 1;
    }

    /// Closes the tracker at final time `now`, padding the trailing partial
    /// chunk (and any rounding shortfall) so the timeline ends at the
    /// phase's total cycles.
    pub(crate) fn finish(mut self, now: u64) -> ChunkTimeline {
        let expected = self.total.div_ceil(self.pel).max(1);
        if self.timeline.len() < expected {
            self.timeline.push_mark(now);
            self.timeline.push(0, expected - self.timeline.len());
        }
        self.timeline.retime_last(now);
        self.timeline
    }
}

/// Actual size of tile `i` when dividing `extent` into tiles of `tile`.
#[inline]
pub(crate) fn actual_tile(extent: usize, tile: usize, i: usize) -> usize {
    let start = i * tile;
    tile.min(extent - start)
}

/// Equivalence classes of a tiled loop of `n` iterations whose per-pass cost is
/// uniform except possibly at the first index (stationary reloads), the last
/// index (remainder tile, final reduction step), and boundary conditions on the
/// reduction index. Returns `(representative index, multiplicity)` pairs in
/// iteration order; walking them with the multiplicity applied is exactly
/// equivalent to walking `0..n` pass by pass.
pub(crate) fn loop_classes(n: usize) -> Vec<(usize, u64)> {
    match n {
        0 => Vec::new(),
        1 => vec![(0, 1)],
        2 => vec![(0, 1), (1, 1)],
        _ => vec![(0, 1), (1, (n - 2) as u64), (n - 1, 1)],
    }
}

/// One NoC-bounded sweep: `compute` cycles of array work overlapped with
/// distributing `gb_reads` elements and collecting `gb_writes` elements at the
/// given bandwidth share. Returns `(body_cycles, stall_cycles)` — the body is
/// the slowest of the three streams, the stall the part not covered by
/// compute. This is the single copy of the bandwidth-share math every engine's
/// pass timing and the SDDMM softmax sweeps reduce to.
#[inline]
pub(crate) fn bandwidth_sweep(
    compute: u64,
    gb_reads: u64,
    gb_writes: u64,
    bw: BandwidthShare,
) -> (u64, u64) {
    let dist = crate::noc::distribution_cycles(gb_reads, bw.dist);
    let coll = crate::noc::collection_cycles(gb_writes, bw.red);
    let body = compute.max(dist).max(coll);
    (body, body - compute.min(body))
}

/// Combines per-pass costs into cycles: one [`bandwidth_sweep`] body, plus
/// fixed per-pass overheads (tree fill, NoC latency) and a *serial* preload of
/// stationary operands — streaming cannot start until the pinned tile sits in
/// the RFs, which is the `t_load` that SP-Optimized avoids (Table III).
/// Returns `(pass_cycles, stall_cycles)`.
#[inline]
pub(crate) fn pass_timing(
    compute: u64,
    stream_reads: u64,
    gb_writes: u64,
    preload_elems: u64,
    bw: BandwidthShare,
    overhead: u64,
) -> (u64, u64) {
    let preload = crate::noc::distribution_cycles(preload_elems, bw.dist);
    let (body, stall) = bandwidth_sweep(compute, stream_reads, gb_writes, bw);
    (preload + body + overhead, preload + stall)
}

/// Pipeline-fill overheads of a phase whose spatial reduction spans `lanes`
/// PEs: the reduction-tree depth plus the distribution-network latency.
/// Returns `(phase_fill, pass_fill)` — by default the networks stay pipelined
/// across passes, so the fill is paid once per phase; the `per_pass_fill` knob
/// moves it into every pass instead.
pub(crate) fn fill_overheads(cfg: &AccelConfig, lanes: usize) -> (u64, u64) {
    let tree = if lanes > 1 { crate::tree_latency(lanes, cfg.tree_latency_per_level) } else { 0 };
    if cfg.knobs.per_pass_fill {
        (0, tree + cfg.dist_latency)
    } else {
        (tree + cfg.dist_latency, 0)
    }
}

/// Partial-sum placement for one phase: whether the live partial sums of an
/// accumulation round fit the per-PE register files, and — when they do not —
/// which fraction of the touched elements spills to the global buffer.
///
/// `revisits` is the number of live partial sums per reduction group (the
/// temporal revisits of the output dims inner to the reduction position, times
/// any head multiplicity); `lanes` the spatial reduction group size sharing
/// them (`psum_group_sharing`); `possible` gates kinds/orders that cannot
/// carry partial sums at all (reduction innermost, single reduction slice).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpillModel {
    /// Live partial sums per PE (the overflow fraction's denominator, ≥ 1).
    live: u64,
    /// The overflowing share of them (the numerator).
    num: u64,
    /// `true` when the live psums overflow the RF and spill to the GB.
    pub(crate) spill: bool,
}

impl SpillModel {
    pub(crate) fn new(cfg: &AccelConfig, revisits: u64, lanes: usize, possible: bool) -> Self {
        let share = if cfg.knobs.psum_group_sharing { lanes.max(1) as u64 } else { 1 };
        let live = revisits.div_ceil(share);
        let rf = RfBudget::new(cfg.rf_words(), 1);
        let spill = possible && !rf.psums_fit(live as usize);
        // Only the psums that do not fit spill: traffic scales with the
        // overflow fraction (the RF keeps serving the rest).
        let num = if cfg.knobs.fractional_spill {
            live.saturating_sub(rf.psum_capacity() as u64)
        } else {
            live
        };
        SpillModel { live: live.max(1), num, spill }
    }

    /// The GB-spilled share of `x` live elements.
    #[inline]
    pub(crate) fn scale(&self, x: u64) -> u64 {
        x * self.num / self.live
    }

    /// Live partial sums per PE — the psum share of the RF working-set demand
    /// the [`Footprint`] model reports.
    #[inline]
    pub(crate) fn live(&self) -> u64 {
        self.live
    }
}

/// Working-set demand of one phase run at the two on-chip storage levels — the
/// footprint model the capacity story hangs off (DESIGN.md §3). Each leaf
/// derives it from its actual tile grid and the residency flags; [`run_phase`]
/// turns it into the reported [`PhaseStats::rf_peak_bytes`] /
/// [`PhaseStats::gb_peak_bytes`] and, under a finite
/// [`super::CapacityBudget`], into costed spill passes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Footprint {
    /// Peak per-PE register-file demand, in words.
    pub(crate) rf_words_per_pe: u64,
    /// Peak global-buffer staging demand, in elements.
    pub(crate) gb_elems: u64,
}

impl Footprint {
    /// Baseline per-PE RF slots every engine occupies: one stationary word plus
    /// the two double-buffered stream slots ([`RfBudget`]'s model).
    pub(crate) const BASE_RF_WORDS: u64 = 3;

    /// Builds a footprint from the per-PE live-psum demand, the full-matrix
    /// residency pins (distributed across `pe_footprint` PEs), and the GB
    /// staging elements.
    pub(crate) fn new(
        live_psums: u64,
        pinned_elems: u64,
        pe_footprint: usize,
        gb_elems: u64,
    ) -> Self {
        let per_pe_pins = pinned_elems.div_ceil(pe_footprint.max(1) as u64);
        Footprint { rf_words_per_pe: Self::BASE_RF_WORDS + live_psums + per_pe_pins, gb_elems }
    }
}

/// The share of `total` stream elements that makes an extra GB round trip when
/// `over` of `peak` working-set bytes overflow the budget: `total · over /
/// peak` (widened to `u128` so huge residency pins cannot overflow).
fn overflow_share(total: u64, over: u64, peak: u64) -> u64 {
    if peak == 0 {
        return 0;
    }
    ((total as u128 * over as u128) / peak as u128) as u64
}

/// Mutable walk state threaded through every leaf's tile walk: the accumulating
/// statistics, the chunk tracker, and the per-run classification/options.
/// Leaves charge traffic into [`Self::counters`] as they classify it, then
/// close each batched pass with [`Self::run_pass`].
pub(crate) struct PhaseWalk {
    /// Per-operand-class buffer access counters.
    pub(crate) counters: AccessCounters,
    /// Cumulative cycles so far.
    pub(crate) cycles: u64,
    /// Cumulative bandwidth-stall cycles (subset of `cycles`).
    pub(crate) stall_cycles: u64,
    /// Cumulative MACs.
    pub(crate) macs: u64,
    /// Set when any pass spilled partial sums.
    pub(crate) spilled: bool,
    /// Tile passes replayed from a batched class this walk (flushed into
    /// [`crate::telemetry::class_replays`] by [`run_phase`]).
    pub(crate) class_replays: u64,
    /// Operand-class assignment of this run.
    pub(crate) classes: OperandClasses,
    /// Per-run engine options.
    pub(crate) opts: EngineOptions,
    chunks: Option<ChunkTracker>,
    /// Per-pass fill overhead (0 unless `per_pass_fill`).
    overhead: u64,
}

impl PhaseWalk {
    /// A fresh walk state; `pass_fill` is the per-pass fill overhead.
    fn new<E: PhaseEngine>(
        leaf: &E,
        classes: &OperandClasses,
        opts: &EngineOptions,
        pass_fill: u64,
    ) -> Self {
        let chunk_total = opts.chunk.map_or(0, |c| leaf.chunk_total(c.side));
        PhaseWalk {
            counters: AccessCounters::default(),
            cycles: 0,
            stall_cycles: 0,
            macs: 0,
            spilled: false,
            class_replays: 0,
            classes: *classes,
            opts: *opts,
            chunks: ChunkTracker::new(opts.chunk.as_ref(), chunk_total),
            overhead: pass_fill,
        }
    }

    /// `true` when chunk timestamps were requested — leaves use this to pick
    /// order-exact walks over order-insensitive batched ones.
    pub(crate) fn has_chunks(&self) -> bool {
        self.chunks.is_some()
    }

    /// Closes a batch of `m` identical passes: times the pass body against the
    /// bandwidth share ([`pass_timing`]), accumulates cycles and stalls, and
    /// advances the chunk timeline — `produced_each` intermediate elements per
    /// pass on the produce side, `consumed_each` on the consume side (either
    /// may be 0 when the pass completes nothing on that side).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_pass(
        &mut self,
        compute: u64,
        gb_reads: u64,
        gb_writes: u64,
        preload_elems: u64,
        produced_each: u64,
        consumed_each: u64,
        m: u64,
    ) {
        let (pass, stall) =
            pass_timing(compute, gb_reads, gb_writes, preload_elems, self.opts.bandwidth, self.overhead);
        let start = self.cycles;
        self.cycles += pass * m;
        self.stall_cycles += stall * m;
        if let Some(t) = self.chunks.as_mut() {
            let elems = match self.opts.chunk.expect("tracker implies spec").side {
                ChunkSide::Produce => produced_each,
                ChunkSide::Consume => consumed_each,
            };
            t.advance_repeat(m, elems, pass, start);
        }
    }
}

/// One phase kind's leaf: what [`run_phase`] needs beyond the shared core.
/// Implementations precompute their tile grid (and [`SpillModel`]) at
/// construction; `walk` then visits the workload pass by pass.
pub(crate) trait PhaseEngine {
    /// Degenerate workload (no work at all) — [`run_phase`] returns
    /// [`PhaseStats::empty`] without walking.
    fn is_empty(&self) -> bool;

    /// Spatial reduction lanes (the tree fan-in; 1 when the phase has no
    /// spatial reduction), used for the pipeline-fill overheads.
    fn reduction_lanes(&self) -> usize;

    /// PEs the tiling occupies.
    fn pe_footprint(&self) -> usize;

    /// Total intermediate elements the chunk timeline tracks on `side`:
    /// produced elements, or the consume-side progress units of this kind
    /// (edge visits for the sparse engines, elements for the dense ones).
    fn chunk_total(&self, side: ChunkSide) -> u64;

    /// The phase-specific tile walk: one [`PhaseWalk::run_pass`] per batched
    /// pass.
    fn walk(&self, w: &mut PhaseWalk);

    /// The working-set demand of this run (the footprint model): per-PE RF
    /// words and GB staging elements, derived from the tile grid and the
    /// residency flags in `opts`. Pure reporting until a finite
    /// [`super::CapacityBudget`] makes overflow cost traffic.
    fn footprint(&self, opts: &EngineOptions) -> Footprint;

    /// Post-walk sweeps (the SDDMM softmax); returns the extra cycles to add
    /// after the walk. Traffic/stalls are charged into the walk state.
    fn epilogue(&self, _w: &mut PhaseWalk) -> u64 {
        0
    }
}

/// Drives one leaf through the shared simulation skeleton: empty short-cut,
/// fill overheads, chunk tracking, the walk, the epilogue, and the final
/// [`PhaseStats`] assembly. Returns the chunk timeline beside the stats, whose
/// `chunk_marks` stay empty; every `simulate_*_prepared` entry point is a thin
/// wrapper over this, and every `simulate_*` one expands the timeline with
/// [`with_marks`].
pub(crate) fn run_phase<E: PhaseEngine>(
    leaf: &E,
    cfg: &AccelConfig,
    classes: &OperandClasses,
    opts: &EngineOptions,
) -> (PhaseStats, ChunkTimeline) {
    let footprint = leaf.pe_footprint();
    if leaf.is_empty() {
        return (PhaseStats::empty(footprint), ChunkTimeline::new());
    }
    let (phase_fill, pass_fill) = fill_overheads(cfg, leaf.reduction_lanes());
    let mut w = PhaseWalk::new(leaf, classes, opts, pass_fill);
    leaf.walk(&mut w);
    crate::telemetry::add_class_replays(w.class_replays);
    let extra = leaf.epilogue(&mut w);
    let fp = leaf.footprint(opts);
    let word = cfg.word_bytes as u64;
    let rf_peak_bytes = fp.rf_words_per_pe.saturating_mul(word);
    let gb_peak_bytes = fp.gb_elems.saturating_mul(word);
    // Costed capacity spills: under a finite budget, the overflow fraction of
    // the working set makes an extra GB round trip per streamed element — RF
    // overflow bounces the produced stream through the GB as psum traffic, GB
    // overflow re-fetches the consumed stream (conceptually from DRAM through
    // the GB). Both are pure-traffic passes (compute = 0), timed against the
    // phase's bandwidth share. An unbounded budget compares against
    // `u64::MAX` and never fires, keeping the paper model bit-identical.
    let mut capacity_cycles = 0u64;
    if w.cycles > 0 {
        if (opts.capacity.rf_bytes_per_pe as u64) < rf_peak_bytes {
            let over = rf_peak_bytes - opts.capacity.rf_bytes_per_pe as u64;
            let elems = overflow_share(leaf.chunk_total(ChunkSide::Produce), over, rf_peak_bytes);
            if elems > 0 {
                w.spilled = true;
                w.counters.read(crate::OperandClass::Psum, elems);
                w.counters.write(crate::OperandClass::Psum, elems);
                let (body, stall) = bandwidth_sweep(0, elems, elems, opts.bandwidth);
                capacity_cycles += body;
                w.stall_cycles += stall;
            }
        }
        if (opts.capacity.gb_bytes as u64) < gb_peak_bytes {
            let over = gb_peak_bytes - opts.capacity.gb_bytes as u64;
            let elems = overflow_share(leaf.chunk_total(ChunkSide::Consume), over, gb_peak_bytes);
            if elems > 0 {
                w.spilled = true;
                w.counters.read(classes.a_input, elems);
                let (body, stall) = bandwidth_sweep(0, elems, 0, opts.bandwidth);
                capacity_cycles += body;
                w.stall_cycles += stall;
            }
        }
    }
    // Phase-level pipeline fill is paid once, only when the phase did any work.
    let cycles = if w.cycles > 0 { w.cycles + phase_fill + extra + capacity_cycles } else { 0 };
    let timeline = w.chunks.map(|t| t.finish(cycles)).unwrap_or_default();
    let stats = PhaseStats {
        cycles,
        stall_cycles: w.stall_cycles,
        macs: w.macs,
        counters: w.counters,
        pe_footprint: footprint,
        chunk_marks: Vec::new(),
        psum_spilled: w.spilled,
        rf_peak_bytes,
        gb_peak_bytes,
    };
    (stats, timeline)
}

/// A phase result with its timeline expanded into
/// [`PhaseStats::chunk_marks`] — what the public `simulate_*` entry points
/// report.
pub(crate) fn with_marks((mut stats, timeline): (PhaseStats, ChunkTimeline)) -> PhaseStats {
    stats.chunk_marks = timeline.marks().collect();
    stats
}

/// The tile replays one walk of `leaf` counts — what [`run_phase`] adds to
/// the process-wide counter, read without racing other tests.
#[cfg(test)]
pub(crate) fn walk_class_replays<E: PhaseEngine>(
    leaf: &E,
    classes: &OperandClasses,
    opts: &EngineOptions,
) -> u64 {
    let mut w = PhaseWalk::new(leaf, classes, opts, 0);
    leaf.walk(&mut w);
    w.class_replays
}

// ---------------------------------------------------------------------------
// Prepared workload structures — the shared prepare logic hoisted out of the
// leaves so `PreparedEval` plans every phase kind uniformly.
// ---------------------------------------------------------------------------

/// A multiply-rotate hasher (the Fx hash) for the degree-keyed maps of the
/// prepare path: their keys are small integers or short integer slices
/// hashed once per row or tile, where SipHash's per-call setup dominates.
/// `write` folds 8 bytes per step. The degrees can come from a `mapperd`
/// request, so two defences stand in for SipHash's: `finish` rotates the
/// well-mixed high product bits down into the low bits the table indexes
/// by (a bare product leaves them a function of the key's low bits alone,
/// so every tile starting with the same degree would share one bucket),
/// and each map starts from a random seed ([`FxSeed`]), so which keys
/// collide cannot be worked out ahead of the request.
struct FxHasher(u64);

impl FxHasher {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Builds the [`FxHasher`]s of one map from a seed drawn from std's random
/// per-map hash keys.
#[derive(Debug, Clone, Copy)]
struct FxSeed(u64);

impl Default for FxSeed {
    fn default() -> Self {
        FxSeed(RandomState::new().hash_one(()))
    }
}

impl BuildHasher for FxSeed {
    type Hasher = FxHasher;

    fn build_hasher(&self) -> FxHasher {
        FxHasher(self.0)
    }
}

/// A `HashMap` hashed with [`FxHasher`].
type FxHashMap<K, V> = HashMap<K, V, FxSeed>;

/// Degree summary supporting O(log classes) "edges active in neighbour slice
/// `[lo, hi)`" queries: `Σ_v min(deg_v, hi) − min(deg_v, lo)`. Shared by the
/// SpMM and SDDMM leaves, whose neighbour-slice walks are the same shape.
///
/// Stored as **degree classes** (distinct degrees + multiplicities), not the
/// sorted row list, so construction is O(V + classes·log classes) and the
/// structure stays small even for million-row graphs whose rows fall into a
/// few hundred distinct degrees.
#[derive(Debug)]
pub(crate) struct DegreeSummary {
    /// Distinct degrees, ascending.
    degs: Vec<u32>,
    /// `rows[i]` = rows with degree among `degs[..i]` (len = degs.len() + 1).
    rows: Vec<u64>,
    /// `edges[i]` = Σ degree·count over `degs[..i]`.
    edges: Vec<u64>,
}

impl DegreeSummary {
    pub(crate) fn new(degrees: impl Iterator<Item = usize>) -> Self {
        let mut counts: FxHashMap<u32, u64> = FxHashMap::default();
        let mut n = 0u64;
        for d in degrees {
            *counts.entry(d as u32).or_insert(0) += 1;
            n += 1;
        }
        crate::telemetry::count_prepare(n);
        let mut classes: Vec<(u32, u64)> = counts.into_iter().collect();
        classes.sort_unstable_by_key(|&(d, _)| d);
        Self::from_classes(classes.iter().map(|&(d, m)| (d as usize, m)))
    }

    /// Builds the summary from already-deduplicated `(degree, multiplicity)`
    /// classes in ascending degree order — O(classes), no re-counting.
    pub(crate) fn from_classes(classes: impl Iterator<Item = (usize, u64)>) -> Self {
        let (lo, hi) = classes.size_hint();
        let cap = hi.unwrap_or(lo);
        let mut degs = Vec::with_capacity(cap);
        let mut rows = Vec::with_capacity(cap + 1);
        let mut edges = Vec::with_capacity(cap + 1);
        rows.push(0u64);
        edges.push(0u64);
        for (d, m) in classes {
            debug_assert!(degs.last().is_none_or(|&p| p < d as u32), "classes must ascend");
            degs.push(d as u32);
            rows.push(rows.last().unwrap() + m);
            edges.push(edges.last().unwrap() + d as u64 * m);
        }
        DegreeSummary { degs, rows, edges }
    }

    fn total_rows(&self) -> u64 {
        *self.rows.last().unwrap()
    }

    /// Σ_v min(deg_v, x).
    fn sum_min(&self, x: usize) -> u64 {
        let idx = self.degs.partition_point(|&d| (d as usize) < x);
        self.edges[idx] + (self.total_rows() - self.rows[idx]) * x as u64
    }

    /// Edge visits whose within-row index falls in `[lo, hi)`.
    pub(crate) fn active(&self, lo: usize, hi: usize) -> u64 {
        self.sum_min(hi) - self.sum_min(lo)
    }

    /// Rows with degree > k.
    pub(crate) fn count_gt(&self, k: usize) -> u64 {
        self.total_rows() - self.rows[self.degs.partition_point(|&d| d as usize <= k)]
    }

    pub(crate) fn max(&self) -> usize {
        self.degs.last().map_or(0, |&d| d as usize)
    }

    /// The neighbour slices `0..n_red` of width `tn`, folded into maximal
    /// runs of identical slices (see [`slice_runs_in`]): O(runs + classes)
    /// instead of one summary query per slice.
    pub(crate) fn slice_runs(&self, tn: usize, n_red: usize, emit: impl FnMut(SliceRun)) {
        slice_runs_in(&self.degs, &self.rows, &self.edges, tn, n_red, emit);
    }
}

/// A maximal run of identical neighbour slices `first..first + len`: each
/// visits `active` edges, has `rows_active` rows with degree above its base
/// and `rows_finishing` rows whose last edge falls strictly inside it — the
/// per-slice `(active(lo, hi), count_gt(lo), count_gt(lo) − count_gt(hi − 1))`
/// of [`DegreeSummary`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SliceRun {
    pub(crate) first: usize,
    pub(crate) len: usize,
    pub(crate) active: u64,
    pub(crate) rows_active: u64,
    pub(crate) rows_finishing: u64,
}

/// [`DegreeSummary::slice_runs`] of a single row of degree `d`, without
/// building a summary.
pub(crate) fn row_slice_runs(d: usize, tn: usize, n_red: usize, emit: impl FnMut(SliceRun)) {
    slice_runs_in(&[d as u32], &[0, 1], &[0, d as u64], tn, n_red, emit);
}

/// The run walk over distinct degrees `degs` with their prefix `rows` and
/// `edges` (the [`DegreeSummary`] columns). Let `d_next` be the smallest degree
/// above slice `s`'s base `lo = s·tn`: every slice below `floor(d_next / tn)`
/// holds no degree, so it repeats slice `s`'s tuple `(tn · rows_active,
/// rows_active, 0)`; a slice holding a degree strictly inside stands alone.
/// That gives at most `2 · classes + 1` runs, each differing from the next.
fn slice_runs_in(
    degs: &[u32],
    rows: &[u64],
    edges: &[u64],
    tn: usize,
    n_red: usize,
    mut emit: impl FnMut(SliceRun),
) {
    let total = rows[degs.len()];
    let mut i = 0; // first class with degree > lo
    let mut s = 0;
    while s < n_red {
        let lo = s * tn;
        while i < degs.len() && degs[i] as usize <= lo {
            i += 1;
        }
        let rows_active = total - rows[i];
        let end = degs.get(i).map_or(n_red, |&d| (d as usize / tn).min(n_red));
        if end > s {
            let active = tn as u64 * rows_active;
            emit(SliceRun { first: s, len: end - s, active, rows_active, rows_finishing: 0 });
            s = end;
            continue;
        }
        let hi = lo + tn;
        let mut j = i; // first class with degree >= hi
        while j < degs.len() && (degs[j] as usize) < hi {
            j += 1;
        }
        let finishing = rows[j] - rows[i];
        let active = (edges[j] - edges[i]) - lo as u64 * finishing + tn as u64 * (total - rows[j]);
        emit(SliceRun { first: s, len: 1, active, rows_active, rows_finishing: finishing });
        s += 1;
    }
}

/// Splits the slices `first..first + len` of an `n_red`-slice reduction so
/// that slice 0 and slice `n_red − 1` stand alone — the only reduction
/// indices the pass bodies distinguish. Yields up to three `(first, len)`
/// pieces in order.
pub(crate) fn split_ends(first: usize, len: usize, n_red: usize) -> impl Iterator<Item = (usize, usize)> {
    let end = first + len;
    let head = if first == 0 { 1 } else { first }.min(end);
    let tail = n_red.saturating_sub(1).clamp(head, end);
    [(first, head), (head, tail), (tail, end)]
        .into_iter()
        .filter(|&(a, b)| b > a)
        .map(|(a, b)| (a, b - a))
}

/// Distinct degrees with multiplicities, ascending — single-row vertex tiles
/// with equal degree make identical pass sequences, so batched walks iterate
/// these classes instead of every vertex. O(V + classes·log classes).
fn degree_classes(degrees: &[usize]) -> Vec<(usize, u64)> {
    crate::telemetry::count_prepare(degrees.len() as u64);
    let mut counts: FxHashMap<usize, u64> = FxHashMap::default();
    for &d in degrees {
        *counts.entry(d).or_insert(0) += 1;
    }
    let mut out: Vec<(usize, u64)> = counts.into_iter().collect();
    out.sort_unstable_by_key(|&(d, _)| d);
    out
}

/// One equivalence class of vertex tiles: every tile whose (sorted) degree
/// multiset equals the class key produces an identical pass timeline under
/// *any* loop order and tile shape, so the summary walks compute that
/// timeline once and replay it `mult` times (`ChunkTracker::advance_repeat`
/// keeps even the chunk marks exact).
#[derive(Debug)]
pub(crate) struct TileClass {
    /// Max degree of one tile (tile-synchronized step count keys off this).
    pub(crate) max: usize,
    /// Rows in one tile (`tv`, or the remainder for the last tile).
    pub(crate) rows: u64,
    /// Tiles in this class.
    pub(crate) mult: u64,
    /// The class key: one tile's degrees, sorted ascending.
    degrees: Box<[u32]>,
    /// Lazily-built slice summary for the orders that cut the neighbour
    /// dimension mid-nest (VNF / NVF).
    summary: OnceLock<DegreeSummary>,
}

impl TileClass {
    /// The degree summary of one representative tile (all tiles in the class
    /// share it by construction).
    pub(crate) fn summary(&self) -> &DegreeSummary {
        self.summary.get_or_init(|| {
            crate::telemetry::count_prepare(self.degrees.len() as u64);
            // The key is sorted, so the classes are a linear run-length pass.
            let mut classes: Vec<(usize, u64)> = Vec::new();
            for &d in self.degrees.iter() {
                match classes.last_mut() {
                    Some((last, m)) if *last == d as usize => *m += 1,
                    _ => classes.push((d as usize, 1)),
                }
            }
            DegreeSummary::from_classes(classes.into_iter())
        })
    }
}

/// The per-(workload, `T_V`) tile summary driving the VNF/NVF walks, which
/// cut the neighbour dimension mid-nest and so read every tile's degree
/// multiset: every vertex tile mapped to its [`TileClass`], with boundary
/// (remainder) tiles falling out naturally as their own class. Built once
/// per tile height in [`PreparedSpmm::summary`] and shared across every
/// simulation of that workload — `T_F`/`T_N`, chunking, residency, and
/// capacity budgets all reuse the same structure. The VFN/FVN walks read
/// the cheaper, unsorted [`TileStats`] instead.
#[derive(Debug)]
pub(crate) struct WorkloadSummary {
    /// Class id of each vertex tile, in tile order (the chunk-exact walks
    /// iterate this; O(#tiles) entries).
    tile_class: Vec<u32>,
    classes: Vec<TileClass>,
}

impl WorkloadSummary {
    /// Maps every `tv`-row tile of `degrees` to its class. One key buffer is
    /// refilled and sorted in place per tile and looked up as a slice, so
    /// only a tile whose class is new allocates.
    pub(crate) fn new(degrees: &[usize], tv: usize) -> Self {
        let tv = tv.max(1);
        let v = degrees.len();
        let n_v = v.div_ceil(tv);
        crate::telemetry::count_prepare(v as u64);
        let mut classes: Vec<TileClass> = Vec::new();
        let mut index: FxHashMap<Box<[u32]>, u32> = FxHashMap::default();
        let mut tile_class = Vec::with_capacity(n_v);
        let mut key: Vec<u32> = Vec::with_capacity(tv.min(v));
        for lo in (0..v).step_by(tv) {
            let hi = (lo + tv).min(v);
            key.clear();
            key.extend(degrees[lo..hi].iter().map(|&d| d as u32));
            key.sort_unstable();
            let id = match index.get(key.as_slice()) {
                Some(&id) => {
                    classes[id as usize].mult += 1;
                    id
                }
                None => {
                    let id = classes.len() as u32;
                    let owned: Box<[u32]> = key.as_slice().into();
                    classes.push(TileClass {
                        max: key.last().map_or(0, |&d| d as usize),
                        rows: (hi - lo) as u64,
                        mult: 1,
                        degrees: owned.clone(),
                        summary: OnceLock::new(),
                    });
                    index.insert(owned, id);
                    id
                }
            };
            tile_class.push(id);
        }
        WorkloadSummary { tile_class, classes }
    }

    /// The single-row summary (`tv = 1`) from the ascending degree
    /// classes of `degrees`: one tile class per degree, and each row's class
    /// looked up by its degree — no per-tile key to sort or hash.
    fn from_degree_classes(degrees: &[usize], classes: &[(usize, u64)]) -> Self {
        crate::telemetry::count_prepare(degrees.len() as u64);
        let ids: FxHashMap<usize, u32> =
            classes.iter().enumerate().map(|(id, &(d, _))| (d, id as u32)).collect();
        let tile_class = degrees.iter().map(|d| ids[d]).collect();
        let classes = classes
            .iter()
            .map(|&(d, mult)| TileClass {
                max: d,
                rows: 1,
                mult,
                degrees: Box::new([d as u32]),
                summary: OnceLock::new(),
            })
            .collect();
        WorkloadSummary { tile_class, classes }
    }

    /// The tile classes: first-occurrence order, or ascending degree for
    /// single-row tiles.
    pub(crate) fn classes(&self) -> &[TileClass] {
        &self.classes
    }

    /// The class of vertex tile `iv`.
    pub(crate) fn class_of(&self, iv: usize) -> &TileClass {
        &self.classes[self.tile_class[iv] as usize]
    }

    /// The class *id* of vertex tile `iv` — O(1) equality checks let the
    /// chunk-exact walks fold runs of consecutive same-class tiles.
    pub(crate) fn class_id(&self, iv: usize) -> u32 {
        self.tile_class[iv]
    }

    /// Number of vertex tiles.
    pub(crate) fn num_tiles(&self) -> usize {
        self.tile_class.len()
    }
}

/// The vertex tiles of one `T_V` that share a degree sum, a maximum degree
/// and a row count — all an unchunked VFN/FVN walk reads of a tile, so every
/// tile of a group costs the same passes.
#[derive(Debug)]
pub(crate) struct TileGroup {
    /// Σ degrees of one tile (edge visits).
    pub(crate) sum: u64,
    /// Max degree of one tile (the tile-synchronized step count keys off it).
    pub(crate) max: usize,
    /// Rows in one tile (`tv`, or the remainder for the last tile).
    pub(crate) rows: u64,
    /// Tiles in the group.
    pub(crate) mult: u64,
}

/// The order-free statistics of one tile height: the tiles grouped by
/// `(sum, max, rows)` and the ascending histogram of tile maxima, from one
/// unsorted O(V) scan. The groups drive the unchunked VFN/FVN walks of SpMM
/// and SDDMM; the maxima give the tile-synchronization floor
/// ([`Self::sync_steps`]) the DSE prunes with.
#[derive(Debug)]
pub(crate) struct TileStats {
    /// The groups, in first-occurrence order.
    groups: Vec<TileGroup>,
    /// `(distinct tile maximum, tiles)`, ascending.
    maxima: Vec<(usize, u64)>,
}

impl TileStats {
    /// Groups every `tv`-row tile of `degrees` by its `(sum, max, rows)`.
    fn new(degrees: &[usize], tv: usize) -> Self {
        let tv = tv.max(1);
        crate::telemetry::count_prepare(degrees.len() as u64);
        let mut groups: Vec<TileGroup> = Vec::new();
        let mut index: FxHashMap<(u64, usize, u64), u32> = FxHashMap::default();
        for tile in degrees.chunks(tv) {
            let (mut sum, mut max) = (0u64, 0usize);
            for &d in tile {
                sum += d as u64;
                max = max.max(d);
            }
            let rows = tile.len() as u64;
            let id = *index.entry((sum, max, rows)).or_insert_with(|| {
                groups.push(TileGroup { sum, max, rows, mult: 0 });
                groups.len() as u32 - 1
            });
            groups[id as usize].mult += 1;
        }
        let mut by_max: Vec<(usize, u64)> = groups.iter().map(|g| (g.max, g.mult)).collect();
        by_max.sort_unstable_by_key(|&(max, _)| max);
        let maxima = by_max
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| (run[0].0, run.iter().map(|&(_, tiles)| tiles).sum()))
            .collect();
        TileStats { groups, maxima }
    }

    /// The single-row statistics (`tv = 1`) from the ascending degree
    /// classes: each row is a tile whose sum and max are its degree.
    fn from_degree_classes(classes: &[(usize, u64)]) -> Self {
        let groups =
            classes.iter().map(|&(d, mult)| TileGroup { sum: d as u64, max: d, rows: 1, mult });
        TileStats { groups: groups.collect(), maxima: classes.to_vec() }
    }

    /// The tile groups.
    pub(crate) fn groups(&self) -> &[TileGroup] {
        &self.groups
    }

    /// `Σ_tiles max(1, ⌈max_t / tn⌉)`: the compute steps of one pass over
    /// every tile when each pass advances at its tile's heaviest row.
    /// O(distinct tile maxima).
    fn sync_steps(&self, tn: usize) -> u64 {
        let tn = tn.max(1);
        self.maxima.iter().map(|&(max, tiles)| tiles * max.div_ceil(tn).max(1) as u64).sum()
    }
}

/// Structures of one adjacency built per vertex-tile height, each at most
/// once by whichever caller gets there first. The map only hands out each
/// height's single-flight slot; the build runs outside the lock, so workers
/// needing other heights never wait on it.
#[derive(Debug)]
struct PerHeight<T>(Mutex<HashMap<usize, Arc<OnceLock<Arc<T>>>>>);

impl<T> PerHeight<T> {
    fn new() -> Self {
        PerHeight(Mutex::new(HashMap::new()))
    }

    /// Height `tv`'s structure, built with `build` on first use.
    fn get(&self, tv: usize, build: impl FnOnce() -> T) -> Arc<T> {
        let slot = {
            let mut map = self.0.lock().unwrap_or_else(|e| e.into_inner());
            map.entry(tv).or_default().clone()
        };
        slot.get_or_init(|| Arc::new(build())).clone()
    }
}

/// Degree structures of one adjacency, hoisted out of the sparse leaves so a
/// caller evaluating thousands of tilings of the *same* workload (the DSE hot
/// path) pays the O(V log V) sorting once instead of per simulation.
///
/// The totals (`nnz`, `max_degree`) are computed eagerly; the sorted degree
/// classes, the global degree summary and the per-`T_V` tile statistics and
/// tile summaries — each needed only by some loop orders or by the DSE's
/// cycle floor — are built lazily on first use and shared across threads.
#[derive(Debug)]
pub struct PreparedSpmm<'a> {
    degrees: &'a [usize],
    nnz: u64,
    max_degree: usize,
    classes: OnceLock<Vec<(usize, u64)>>,
    global: OnceLock<DegreeSummary>,
    /// Per-`T_V` tile statistics and tile summaries, built once and shared
    /// across every simulation of this workload (tile heights are few — the
    /// DSE's power-of-two tile ladder yields ~log₂ V distinct values).
    tile_stats: PerHeight<TileStats>,
    summaries: PerHeight<WorkloadSummary>,
    /// [`Self::sync_steps`] per `(T_V, T_N)`, computed once each.
    sync_steps: Mutex<FxHashMap<(usize, usize), u64>>,
}

impl<'a> PreparedSpmm<'a> {
    /// Prepares the degree structures for `degrees`: one fused O(V) pass for
    /// the totals, everything else lazy.
    pub fn new(degrees: &'a [usize]) -> Self {
        crate::telemetry::count_prepare(degrees.len() as u64);
        let mut nnz = 0u64;
        let mut max_degree = 0usize;
        for &d in degrees {
            nnz += d as u64;
            max_degree = max_degree.max(d);
        }
        PreparedSpmm {
            degrees,
            nnz,
            max_degree,
            classes: OnceLock::new(),
            global: OnceLock::new(),
            tile_stats: PerHeight::new(),
            summaries: PerHeight::new(),
            sync_steps: Mutex::default(),
        }
    }

    /// The stored non-zeros per row this preparation covers.
    pub fn degrees(&self) -> &'a [usize] {
        self.degrees
    }

    /// Total stored non-zeros.
    pub fn nnz(&self) -> u64 {
        self.nnz
    }

    /// Maximum row degree.
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    pub(crate) fn classes(&self) -> &[(usize, u64)] {
        self.classes.get_or_init(|| degree_classes(self.degrees))
    }

    /// Degree sum, tile-synchronized step count (`ceil(max / tn)`) and rows
    /// of vertex tile `iv` of height `tv`, scanned from the degrees and
    /// counted as preparation work — what the reference walks and the
    /// chunked VFN/FVN walks read per tile instead of a tile class.
    pub(crate) fn tile_scan(&self, tv: usize, tn: usize, iv: usize) -> (u64, u64, u64) {
        let lo = iv * tv;
        let hi = (lo + tv).min(self.degrees.len());
        crate::telemetry::count_prepare((hi - lo) as u64);
        let mut sum = 0u64;
        let mut mx = 0usize;
        for &d in &self.degrees[lo..hi] {
            sum += d as u64;
            mx = mx.max(d);
        }
        (sum, (mx as u64).div_ceil(tn as u64), (hi - lo) as u64)
    }

    /// The whole graph's degree summary, built from [`Self::classes`] so the
    /// degrees are counted once for both.
    pub(crate) fn global(&self) -> &DegreeSummary {
        self.global.get_or_init(|| DegreeSummary::from_classes(self.classes().iter().copied()))
    }

    /// The tile statistics for vertex-tile height `tv`, built on first use
    /// and cached like [`Self::summary`]; single-row tiles reuse
    /// [`Self::classes`].
    pub(crate) fn tile_stats(&self, tv: usize) -> Arc<TileStats> {
        self.tile_stats.get(tv, || match tv {
            1 => TileStats::from_degree_classes(self.classes()),
            _ => TileStats::new(self.degrees, tv),
        })
    }

    /// `Σ_tiles max(1, ⌈max_t / tn⌉)` over the `tv`-row tiles: the compute
    /// steps of one pass over every tile when each pass advances at its
    /// tile's heaviest row. O(distinct tile maxima) from
    /// [`Self::tile_stats`] on first use per `(tv, tn)`, a lookup after.
    pub(crate) fn sync_steps(&self, tv: usize, tn: usize) -> u64 {
        let memo = || self.sync_steps.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&steps) = memo().get(&(tv, tn)) {
            return steps;
        }
        let steps = self.tile_stats(tv).sync_steps(tn);
        memo().insert((tv, tn), steps);
        steps
    }

    /// The tile summary for vertex-tile height `tv`, built on first use and
    /// cached (thread-safe — DSE workers share one `PreparedSpmm`; callers
    /// racing on the same height wait for one build, the others run on).
    /// Single-row tiles reuse [`Self::classes`].
    pub(crate) fn summary(&self, tv: usize) -> Arc<WorkloadSummary> {
        self.summaries.get(tv, || match tv {
            1 => WorkloadSummary::from_degree_classes(self.degrees, self.classes()),
            _ => WorkloadSummary::new(self.degrees, tv),
        })
    }
}

/// Prepared form of a GEMM workload — the dense counterpart of
/// [`PreparedSpmm`], so `PreparedEval` holds one prepared structure per phase
/// kind and calls the uniform `simulate_*_prepared` entry points. A GEMM has
/// no degree structure to hoist, so this only pins the dimensions.
#[derive(Debug, Clone, Copy)]
pub struct PreparedGemm {
    dims: GemmDims,
}

impl PreparedGemm {
    /// Prepares a GEMM of the given dimensions.
    pub fn new(dims: GemmDims) -> Self {
        PreparedGemm { dims }
    }

    /// The matrix dimensions this preparation covers.
    pub fn dims(&self) -> GemmDims {
        self.dims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn marks(t: &ChunkTimeline) -> Vec<u64> {
        t.marks().collect()
    }

    #[test]
    fn chunk_tracker_marks_boundaries() {
        let spec = ChunkSpec { side: ChunkSide::Produce, pel: 10 };
        let mut t = ChunkTracker::new(Some(&spec), 25).unwrap();
        t.advance(6, 5);
        t.advance(6, 9); // 12 ≥ 10 → mark at 9
        t.advance(10, 20); // 22 ≥ 20 → mark at 20
        let timeline = t.finish(31);
        assert_eq!(marks(&timeline), vec![9, 20, 31]); // ceil(25/10) = 3 chunks
        assert_eq!(timeline.runs(), [(9, 1), (11, 2)]);
    }

    #[test]
    fn chunk_tracker_handles_multi_crossings() {
        let spec = ChunkSpec { side: ChunkSide::Consume, pel: 5 };
        let mut t = ChunkTracker::new(Some(&spec), 20).unwrap();
        t.advance(20, 7); // all four chunks complete at once
        let timeline = t.finish(7);
        assert_eq!(marks(&timeline), vec![7, 7, 7, 7]);
        assert_eq!(timeline.runs(), [(7, 1), (0, 3)]);
    }

    #[test]
    fn chunk_tracker_none_without_spec() {
        assert!(ChunkTracker::new(None, 100).is_none());
    }

    #[test]
    fn advance_repeat_matches_sequential_advance() {
        // Batched uniform passes must emit exactly the marks the per-pass walk
        // would, including multi-crossing and partial-trailing cases.
        for (pel, total, reps, elems, cycles) in
            [(10u64, 95u64, 12u64, 8u64, 3u64), (3, 40, 7, 6, 5), (64, 64, 4, 9, 2), (5, 100, 20, 5, 1)]
        {
            let spec = ChunkSpec { side: ChunkSide::Produce, pel };
            let mut seq = ChunkTracker::new(Some(&spec), total).unwrap();
            let mut now = 17u64; // arbitrary non-zero start
            for _ in 0..reps {
                now += cycles;
                seq.advance(elems, now);
            }
            let mut batched = ChunkTracker::new(Some(&spec), total).unwrap();
            batched.advance_repeat(reps, elems, cycles, 17);
            assert_eq!(seq.timeline, batched.timeline, "pel={pel} reps={reps} elems={elems}");
            assert_eq!(seq.progress, batched.progress);
            assert_eq!(seq.emitted, batched.emitted);
        }
    }

    /// A batch's per-pass progress by kind: 0, a divisor of `pel`, a
    /// non-divisor, or more than `pel` (possibly a multiple of it).
    fn elems_of(kind: u8, pel: u64, pick: u64) -> u64 {
        match kind {
            0 => 0,
            1 => {
                let divisors: Vec<u64> = (1..=pel).filter(|&d| pel.is_multiple_of(d)).collect();
                divisors[(pick % divisors.len() as u64) as usize]
            }
            2 => {
                let others: Vec<u64> = (1..=2 * pel).filter(|&e| !pel.is_multiple_of(e)).collect();
                others[(pick % others.len() as u64) as usize]
            }
            _ => pel + 1 + pick % (2 * pel),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn advance_repeat_runs_expand_to_the_per_pass_marks(
            pel in 1u64..=64,
            total in 0u64..3000,
            // (reps, elems kind, elems pick, cycles per pass, idle gap)
            calls in proptest::collection::vec(
                (0u64..12, 0u8..4, 0u64..1000, 0u64..9, 0u64..4),
                0..24,
            ),
            tail in 0u64..5,
        ) {
            let spec = ChunkSpec { side: ChunkSide::Produce, pel };
            let mut seq = ChunkTracker::new(Some(&spec), total).unwrap();
            let mut batched = ChunkTracker::new(Some(&spec), total).unwrap();
            let mut now = 0u64;
            for (reps, kind, pick, cycles, gap) in calls {
                let elems = elems_of(kind, pel, pick);
                now += gap;
                batched.advance_repeat(reps, elems, cycles, now);
                for _ in 0..reps {
                    now += cycles;
                    seq.advance(elems, now);
                }
                prop_assert_eq!(marks(&seq.timeline), marks(&batched.timeline));
                prop_assert_eq!(&seq.timeline, &batched.timeline);
                prop_assert_eq!((seq.progress, seq.emitted), (batched.progress, batched.emitted));
            }
            let emitted = batched.timeline.len();
            let (seq, batched) = (seq.finish(now + tail), batched.finish(now + tail));
            prop_assert_eq!(marks(&seq), marks(&batched));
            prop_assert_eq!(batched.len(), emitted.max(total.div_ceil(pel).max(1)));
            prop_assert_eq!(marks(&batched).last().copied(), Some(now + tail));
            // Canonical runs: no empty run, no two neighbours alike.
            prop_assert!(batched.runs().iter().all(|&(_, n)| n > 0));
            prop_assert!(batched.runs().windows(2).all(|w| w[0].0 != w[1].0));
        }
    }

    #[test]
    fn loop_classes_partition_the_range() {
        for n in 0..7usize {
            let classes = loop_classes(n);
            let total: u64 = classes.iter().map(|&(_, m)| m).sum();
            assert_eq!(total, n as u64, "n={n}");
            // First and last indices are always singleton classes.
            if n >= 2 {
                assert_eq!(classes.first().unwrap(), &(0, 1));
                assert_eq!(classes.last().unwrap(), &(n - 1, 1));
            }
            // Representatives are valid indices in iteration order.
            assert!(classes.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(classes.iter().all(|&(rep, _)| rep < n));
        }
    }

    #[test]
    fn actual_tile_remainders() {
        assert_eq!(actual_tile(10, 4, 0), 4);
        assert_eq!(actual_tile(10, 4, 1), 4);
        assert_eq!(actual_tile(10, 4, 2), 2);
    }

    #[test]
    fn pass_timing_stall_accounting() {
        let bw = BandwidthShare { dist: 10, red: 10 };
        // Compute-bound: 8 cycles compute, 40 reads → 4 cycles dist → no stall.
        let (c, s) = pass_timing(8, 40, 0, 0, bw, 2);
        assert_eq!((c, s), (10, 0));
        // Bandwidth-bound: 100 reads → 10 cycles > 8 compute → 2 stall cycles.
        let (c, s) = pass_timing(8, 100, 0, 0, bw, 2);
        assert_eq!((c, s), (12, 2));
        // Collection-bound.
        let (c, s) = pass_timing(1, 0, 55, 0, bw, 0);
        assert_eq!((c, s), (6, 5));
        // Serial preload adds on top of the overlapped body.
        let (c, s) = pass_timing(8, 40, 0, 25, bw, 2);
        assert_eq!((c, s), (13, 3));
    }

    /// Satellite check: [`bandwidth_sweep`] reproduces each engine's previous
    /// inline NoC math exactly — both the pass-timing composition and the
    /// SDDMM softmax two-sweep costing.
    #[test]
    fn bandwidth_sweep_matches_previous_inline_math() {
        let cases = [
            (8u64, 40u64, 0u64, 10usize, 10usize),
            (8, 100, 0, 10, 10),
            (1, 0, 55, 10, 10),
            (7, 33, 91, 4, 16),
            (0, 0, 0, 512, 512),
            (100, 5000, 4999, 512, 256),
        ];
        for (compute, reads, writes, dist, red) in cases {
            let bw = BandwidthShare { dist, red };
            // The engines' previous inline form.
            let d = crate::noc::distribution_cycles(reads, bw.dist);
            let c = crate::noc::collection_cycles(writes, bw.red);
            let body = compute.max(d).max(c);
            let stall = body - compute.min(body);
            assert_eq!(bandwidth_sweep(compute, reads, writes, bw), (body, stall));
            // The softmax two-sweep form: sweep 1 reads only, sweep 2 reads +
            // writes; stalls accumulate per sweep.
            let sweep1 = compute.max(d);
            let sweep2 = compute.max(d).max(c);
            let (b1, s1) = bandwidth_sweep(compute, reads, 0, bw);
            let (b2, s2) = bandwidth_sweep(compute, reads, writes, bw);
            assert_eq!((b1, b2), (sweep1, sweep2));
            assert_eq!(s1 + s2, (sweep1 - compute.min(sweep1)) + (sweep2 - compute.min(sweep2)));
        }
    }

    #[test]
    fn spill_model_overflow_fraction() {
        let cfg = AccelConfig::paper_default(); // 16-word RF → 13 psum slots
        // 32 revisits over 2 lanes → 16 live > 13 → spills 3/16 of traffic.
        let s = SpillModel::new(&cfg, 32, 2, true);
        assert!(s.spill);
        assert_eq!(s.scale(160), 160 * 3 / 16);
        // Fits: 8 live ≤ 13.
        let s = SpillModel::new(&cfg, 16, 2, false);
        assert!(!s.spill);
        let s = SpillModel::new(&cfg, 16, 2, true);
        assert!(!s.spill);
        // `possible = false` never spills regardless of pressure.
        let s = SpillModel::new(&cfg, 1 << 20, 1, false);
        assert!(!s.spill);
    }

    #[test]
    fn degree_summary_queries() {
        let d = DegreeSummary::new([3usize, 1, 5, 0, 2].into_iter());
        assert_eq!(d.sum_min(usize::MAX >> 1), 11);
        assert_eq!(d.active(0, 2), (2 + 1 + 2) + 2); // min(deg,2) each
        assert_eq!(d.active(2, 4), (3 - 2) + 2);
        assert_eq!(d.count_gt(2), 2);
        assert_eq!(d.count_gt(0), 4);
        assert_eq!(d.max(), 5);
    }

    /// The per-slice tuples the walks queried before slices were folded.
    fn per_slice(d: &DegreeSummary, tn: usize, n_red: usize) -> Vec<(u64, u64, u64)> {
        (0..n_red)
            .map(|s| {
                let (lo, hi) = (s * tn, s * tn + tn);
                let rows_active = d.count_gt(lo);
                (d.active(lo, hi), rows_active, rows_active - d.count_gt(hi - 1))
            })
            .collect()
    }

    fn expand(runs: &[SliceRun]) -> Vec<(u64, u64, u64)> {
        runs.iter()
            .flat_map(|r| std::iter::repeat_n((r.active, r.rows_active, r.rows_finishing), r.len))
            .collect()
    }

    proptest! {
        #[test]
        fn slice_runs_expand_to_the_per_slice_queries(
            degrees in proptest::collection::vec(0usize..70, 0..40),
            tn in 1usize..=8,
            extra in 0usize..3,
        ) {
            let d = DegreeSummary::new(degrees.iter().copied());
            let n_red = d.max().div_ceil(tn).max(1) + extra;
            let mut runs = Vec::new();
            d.slice_runs(tn, n_red, |r| runs.push(r));
            prop_assert_eq!(expand(&runs), per_slice(&d, tn, n_red));
            // Runs are contiguous, maximal, and O(classes).
            let mut next = 0;
            for r in &runs {
                prop_assert_eq!(r.first, next);
                prop_assert!(r.len > 0);
                next += r.len;
            }
            for pair in runs.windows(2) {
                let key = |r: &SliceRun| (r.active, r.rows_active, r.rows_finishing);
                prop_assert_ne!(key(&pair[0]), key(&pair[1]));
            }
            prop_assert!(runs.len() <= 2 * d.degs.len() + 1, "{} runs", runs.len());
            // A lone row's closed form matches its one-row summary.
            if let Some(&row) = degrees.first() {
                let one = DegreeSummary::new(std::iter::once(row));
                let n_red = row.div_ceil(tn).max(1);
                let mut lone = Vec::new();
                row_slice_runs(row, tn, n_red, |r| lone.push(r));
                prop_assert_eq!(expand(&lone), per_slice(&one, tn, n_red));
            }
        }
    }

    #[test]
    fn split_ends_isolates_the_first_and_last_slice() {
        let split = |first, len, n_red| split_ends(first, len, n_red).collect::<Vec<_>>();
        assert_eq!(split(0, 1, 1), [(0, 1)]);
        assert_eq!(split(0, 5, 5), [(0, 1), (1, 3), (4, 1)]);
        assert_eq!(split(0, 2, 9), [(0, 1), (1, 1)]);
        assert_eq!(split(2, 3, 10), [(2, 3)]);
        assert_eq!(split(7, 3, 10), [(7, 2), (9, 1)]);
        assert_eq!(split(9, 1, 10), [(9, 1)]);
        for n_red in 1..6 {
            for first in 0..n_red {
                for len in 1..=n_red - first {
                    let pieces = split(first, len, n_red);
                    assert_eq!(pieces.iter().map(|p| p.1).sum::<usize>(), len);
                    for &(a, l) in &pieces {
                        // Slice 0 and slice n_red − 1 never share a piece.
                        assert!(l == 1 || (a > 0 && a + l < n_red), "{first}+{len} of {n_red}");
                    }
                }
            }
        }
    }

    /// Two-row tile keys `[0, b]` differ only above the low 32 bits of the
    /// one word they hash to. A bare multiply maps all of them to the same
    /// low bits, i.e. one bucket, which makes summarising a 2^20-row vector
    /// of such tiles quadratic. The final rotation must spread them over a
    /// good share of the buckets (random keys would fill ~63% of 4,096),
    /// whatever the seed.
    #[test]
    fn fx_hash_spreads_keys_that_share_their_low_bits() {
        for seed in [FxSeed(0), FxSeed(u64::MAX), FxSeed::default()] {
            let buckets: std::collections::HashSet<u64> =
                (0..4096u32).map(|b| seed.hash_one([0u32, b].as_slice()) & 4095).collect();
            assert!(buckets.len() > 1024, "{seed:?}: {} buckets", buckets.len());
        }
    }

    /// A summary's content whatever order its classes are numbered in: each
    /// tile's class key, and the classes `(key, max, rows, mult)` by key.
    type Canonical = (Vec<Vec<u32>>, Vec<(Vec<u32>, usize, u64, u64)>);

    fn canonical(s: &WorkloadSummary) -> Canonical {
        let tiles = (0..s.num_tiles()).map(|iv| s.class_of(iv).degrees.to_vec()).collect();
        let mut classes: Vec<_> =
            s.classes().iter().map(|c| (c.degrees.to_vec(), c.max, c.rows, c.mult)).collect();
        classes.sort();
        (tiles, classes)
    }

    /// Checks [`WorkloadSummary::new`] against a plain build (std `HashMap`
    /// over each tile's sorted degrees, classes in first-occurrence order),
    /// [`PreparedSpmm::summary`] (which builds single-row tiles from the
    /// degree classes) against the same content, and
    /// [`PreparedSpmm::global`] against a summary counted from the raw
    /// degrees.
    fn check_summary(degrees: &[usize], tv: usize) -> Result<(), TestCaseError> {
        let mut index: HashMap<Vec<u32>, u32> = HashMap::new();
        let mut want_classes: Vec<(Vec<u32>, usize, u64, u64)> = Vec::new();
        let mut want_tiles = Vec::new();
        for tile in degrees.chunks(tv) {
            let mut key: Vec<u32> = tile.iter().map(|&d| d as u32).collect();
            key.sort_unstable();
            let id = *index.entry(key.clone()).or_insert_with(|| {
                let max = key.last().map_or(0, |&d| d as usize);
                want_classes.push((key, max, tile.len() as u64, 0));
                want_classes.len() as u32 - 1
            });
            want_classes[id as usize].3 += 1;
            want_tiles.push(id);
        }
        let got = WorkloadSummary::new(degrees, tv);
        prop_assert_eq!(&got.tile_class, &want_tiles);
        let got_classes: Vec<(Vec<u32>, usize, u64, u64)> = got
            .classes()
            .iter()
            .map(|c| (c.degrees.to_vec(), c.max, c.rows, c.mult))
            .collect();
        prop_assert_eq!(got_classes, want_classes);
        let prep = PreparedSpmm::new(degrees);
        let (prepared, plain) = (canonical(&prep.summary(tv)), canonical(&got));
        prop_assert_eq!(prepared.1.len(), prep.summary(tv).classes().len(), "duplicate class");
        prop_assert_eq!(prepared, plain);
        let (global, raw) = (prep.global(), DegreeSummary::new(degrees.iter().copied()));
        prop_assert_eq!(
            (&global.degs, &global.rows, &global.edges),
            (&raw.degs, &raw.rows, &raw.edges)
        );
        Ok(())
    }

    /// Checks [`PreparedSpmm::tile_stats`] against a plain build: std
    /// `HashMap`s grouping each tile's `(sum, max, rows)` and counting its
    /// maximum, and [`TileStats::sync_steps`] against a sum over the tiles.
    fn check_tile_stats(degrees: &[usize], tv: usize) -> Result<(), TestCaseError> {
        let mut groups: HashMap<(u64, usize, u64), u64> = HashMap::new();
        let mut maxima: HashMap<usize, u64> = HashMap::new();
        let tile_max: Vec<usize> =
            degrees.chunks(tv).map(|tile| tile.iter().copied().max().unwrap_or(0)).collect();
        for (tile, &max) in degrees.chunks(tv).zip(&tile_max) {
            let sum = tile.iter().map(|&d| d as u64).sum();
            *groups.entry((sum, max, tile.len() as u64)).or_default() += 1;
            *maxima.entry(max).or_default() += 1;
        }
        let mut want_groups: Vec<_> = groups.into_iter().collect();
        want_groups.sort_unstable();
        let mut want_maxima: Vec<_> = maxima.into_iter().collect();
        want_maxima.sort_unstable();
        let prep = PreparedSpmm::new(degrees);
        let stats = prep.tile_stats(tv);
        let mut got_groups: Vec<_> =
            stats.groups().iter().map(|g| ((g.sum, g.max, g.rows), g.mult)).collect();
        got_groups.sort_unstable();
        prop_assert_eq!(got_groups, want_groups);
        prop_assert_eq!(&stats.maxima, &want_maxima);
        for tn in [1, 2, 3, 8, prep.max_degree().max(1)] {
            let want: u64 = tile_max.iter().map(|&m| m.div_ceil(tn).max(1) as u64).sum();
            prop_assert_eq!(prep.sync_steps(tv, tn), want, "tn = {}", tn);
            prop_assert_eq!(prep.sync_steps(tv, tn), want, "memoised tn = {}", tn);
        }
        Ok(())
    }

    /// The tile heights every summary check runs at: single rows, small
    /// and power-of-two tiles, and one taller than the whole graph.
    fn summary_heights(v: usize) -> [usize; 7] {
        [1, 2, 3, 7, 8, 64, v + 1]
    }

    proptest! {
        #[test]
        fn workload_summary_matches_a_plain_build(
            degrees in proptest::collection::vec(0usize..6, 0..200),
            wide in proptest::collection::vec(0usize..5000, 0..40),
        ) {
            for tv in summary_heights(degrees.len()) {
                check_summary(&degrees, tv)?;
            }
            for tv in summary_heights(wide.len()) {
                check_summary(&wide, tv)?;
            }
        }

        #[test]
        fn tile_stats_match_a_plain_build(
            degrees in proptest::collection::vec(0usize..6, 0..200),
            wide in proptest::collection::vec(0usize..5000, 0..40),
        ) {
            for tv in summary_heights(degrees.len()) {
                check_tile_stats(&degrees, tv)?;
            }
            for tv in summary_heights(wide.len()) {
                check_tile_stats(&wide, tv)?;
            }
        }
    }

    /// `summary_identity`'s adversarial degree vectors: a star, zero-degree
    /// holes, one hub among empty rows, multiples of a tile width, a lone
    /// row and the empty graph.
    fn adversarial_vectors() -> [Vec<usize>; 6] {
        let mut star = vec![2usize; 64];
        star[0] = 64;
        let holes: Vec<usize> = (0..80).map(|i| if i % 3 == 0 { 0 } else { 5 + i % 7 }).collect();
        let mut lone_hub = vec![0usize; 97];
        lone_hub[41] = 500;
        let multiples: Vec<usize> = (0..64).map(|i| 4 * (i % 9)).collect();
        [star, holes, lone_hub, multiples, vec![7], Vec::new()]
    }

    #[test]
    fn workload_summary_matches_a_plain_build_on_adversarial_vectors() {
        for degrees in adversarial_vectors() {
            for tv in summary_heights(degrees.len()) {
                check_summary(&degrees, tv).unwrap();
            }
        }
    }

    #[test]
    fn tile_stats_match_a_plain_build_on_adversarial_vectors() {
        for degrees in adversarial_vectors() {
            for tv in summary_heights(degrees.len()) {
                check_tile_stats(&degrees, tv).unwrap();
            }
        }
    }

    #[test]
    fn concurrent_summary_requests_share_one_build() {
        let degrees: Vec<usize> = (0..4096).map(|i| (i * 31) % 97).collect();
        let prep = PreparedSpmm::new(&degrees);
        let got: Vec<Arc<WorkloadSummary>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8).map(|_| scope.spawn(|| prep.summary(16))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(got.iter().all(|s| Arc::ptr_eq(s, &got[0])));
        assert!(Arc::ptr_eq(&prep.summary(16), &got[0]));
        assert!(!Arc::ptr_eq(&prep.summary(8), &got[0]));
    }

    #[test]
    fn concurrent_tile_stats_requests_share_one_build() {
        let degrees: Vec<usize> = (0..4096).map(|i| (i * 31) % 97).collect();
        let prep = PreparedSpmm::new(&degrees);
        let shared = &prep;
        let got: Vec<(Arc<TileStats>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    scope.spawn(move || (shared.tile_stats(16), shared.sync_steps(16, 1 + i % 3)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(got.iter().all(|(s, _)| Arc::ptr_eq(s, &got[0].0)));
        assert!(Arc::ptr_eq(&prep.tile_stats(16), &got[0].0));
        assert!(!Arc::ptr_eq(&prep.tile_stats(8), &got[0].0));
        for (i, (stats, steps)) in got.iter().enumerate() {
            assert_eq!(*steps, stats.sync_steps(1 + i % 3));
        }
    }
}
