//! The elementwise phase leaf: streaming activations and LayerNorm.
//!
//! GNN layers usually end with a cheap per-element epilogue — a ReLU/ELU
//! activation, or a row-wise LayerNorm (GCNII/GraphGym-style stacks). These
//! phases do no reduction across tiles and touch each element O(1) times, so
//! they are **pure streaming** work: bandwidth-bound on anything but the
//! smallest matrices, and interesting to the DSE only for how they share the
//! NoC and whether their operand stays resident between phases.
//!
//! The leaf walks vertex tiles of the `rows × width` operand. Each tile's
//! elements stream through the PEs in `ceil(width / T_W)` tile-synchronized
//! steps (`T_W` is the width-dimension tile: `F` for an Aggregation-shaped
//! tiling, `G` for a Combination-shaped one). Ops differ only in sweep count:
//!
//! * [`ElementwiseOp::Activation`] — one sweep per tile: read, apply, write
//!   back;
//! * [`ElementwiseOp::LayerNorm`] — two sweeps per tile: a read-only
//!   statistics sweep (mean/variance per row), then a normalise + write-back
//!   sweep. A vertex tile always spans the full row width, so the statistics
//!   never cross tiles.
//!
//! Per-element ALU applications are counted in the `macs` bucket (one op per
//! element per sweep), which keeps `compute_utilisation` meaningful. The loop
//! order within the tiling is irrelevant — there is no reduction dimension —
//! so `omega_dataflow::validate_elementwise` admits every order.
//!
//! This file is the worked example of the "adding a phase kind" recipe in
//! [`super::core`]: the whole engine is one leaf struct, two pass shapes, and
//! a dispatch-free walk.

use omega_dataflow::{Dim, IntraTiling, Phase};

use serde::{Deserialize, Serialize};

use super::core::{
    actual_tile, loop_classes, run_phase, with_marks, Footprint, PhaseEngine, PhaseWalk,
};
use super::{ChunkSide, EngineOptions, OperandClasses};
use crate::{AccelConfig, ChunkTimeline, PhaseStats};

/// The elementwise operation a phase applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Deserialize, Serialize)]
pub enum ElementwiseOp {
    /// Pointwise activation (ReLU/ELU/…): one read-modify-write sweep.
    Activation,
    /// Row-wise LayerNorm: a statistics sweep plus a normalise sweep.
    LayerNorm,
}

impl ElementwiseOp {
    /// Streaming sweeps over the operand this op needs.
    pub fn sweeps(self) -> u64 {
        match self {
            ElementwiseOp::Activation => 1,
            ElementwiseOp::LayerNorm => 2,
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ElementwiseOp::Activation => "act",
            ElementwiseOp::LayerNorm => "norm",
        }
    }
}

impl std::fmt::Display for ElementwiseOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The workload of an elementwise phase: the operand shape and the op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementwiseWorkload {
    /// Rows of the operand matrix (vertices).
    pub rows: usize,
    /// Columns of the operand matrix (feature/output width).
    pub width: usize,
    /// The operation applied.
    pub op: ElementwiseOp,
}

impl ElementwiseWorkload {
    /// Total elements touched per sweep.
    pub fn elems(&self) -> u64 {
        self.rows as u64 * self.width as u64
    }
}

/// Simulates an elementwise/normalization phase under a concrete tiling.
///
/// Accepts either phase's tiling shape: the vertex tile is `T_V`, the width
/// tile is `T_F` (Aggregation) or `T_G` (Combination) — whichever matrix the
/// phase post-processes. Any loop order is legal. `opts.reference_walk`
/// visits every vertex tile with multiplicity 1 instead of batching the
/// uniform ones (the property tests assert the two are bit-identical).
pub fn simulate_elementwise(
    wl: &ElementwiseWorkload,
    tiling: &IntraTiling,
    cfg: &AccelConfig,
    classes: &OperandClasses,
    opts: &EngineOptions,
) -> PhaseStats {
    with_marks(simulate_elementwise_prepared(wl, tiling, cfg, classes, opts))
}

/// [`simulate_elementwise`] with the chunk timeline returned run-length
/// encoded beside the stats instead of expanded into their `chunk_marks` —
/// the elementwise form of the uniform `simulate_*_prepared` entry points
/// (the workload is a few dimensions, so there is nothing to prepare).
pub fn simulate_elementwise_prepared(
    wl: &ElementwiseWorkload,
    tiling: &IntraTiling,
    cfg: &AccelConfig,
    classes: &OperandClasses,
    opts: &EngineOptions,
) -> (PhaseStats, ChunkTimeline) {
    run_phase(&ElementwiseLeaf::new(wl, tiling), cfg, classes, opts)
}

/// The elementwise leaf: a streaming sweep (or two) per vertex tile.
struct ElementwiseLeaf<'a> {
    wl: &'a ElementwiseWorkload,
    tiling: &'a IntraTiling,
    tv: usize,
    tw: usize,
    n_v: usize,
}

impl<'a> ElementwiseLeaf<'a> {
    fn new(wl: &'a ElementwiseWorkload, tiling: &'a IntraTiling) -> Self {
        if wl.rows == 0 || wl.width == 0 {
            // Degenerate: `run_phase` short-circuits before reading these.
            return ElementwiseLeaf { wl, tiling, tv: 1, tw: 1, n_v: 0 };
        }
        let wdim = match tiling.phase() {
            Phase::Aggregation => Dim::F,
            Phase::Combination => Dim::G,
        };
        let tv = tiling.tile_of(Dim::V).min(wl.rows);
        let tw = tiling.tile_of(wdim).min(wl.width);
        let n_v = wl.rows.div_ceil(tv);
        ElementwiseLeaf { wl, tiling, tv, tw, n_v }
    }

    /// One streaming sweep over `m` identical vertex tiles of `av` rows:
    /// `ceil(width / T_W)` tile-synchronized steps read every element, apply
    /// one ALU op, and (when `write_back`) write the result. The read-only
    /// LayerNorm statistics sweep consumes its elements; the write-back sweep
    /// produces them.
    fn sweep(&self, w: &mut PhaseWalk, av: u64, write_back: bool, m: u64) {
        let elems = av * self.wl.width as u64;
        let steps = (self.wl.width.div_ceil(self.tw)) as u64;
        w.macs += elems * m;
        // Load into the RFs, then one read (and one write) per ALU application.
        w.counters.rf_writes += elems * m;
        w.counters.rf_reads += elems * m;
        let mut gb_reads = 0;
        if !w.opts.input_resident {
            w.counters.read(w.classes.a_input, elems * m);
            gb_reads = elems;
        }
        let mut gb_writes = 0;
        let mut produced = 0;
        if write_back {
            w.counters.rf_writes += elems * m;
            produced = elems;
            if !w.opts.output_stays_local {
                w.counters.write(w.classes.output, elems * m);
                gb_writes = elems;
            }
        }
        let consumed = if write_back && self.wl.op.sweeps() > 1 { 0 } else { elems };
        w.run_pass(steps.max(1), gb_reads, gb_writes, 0, produced, consumed, m);
    }

    /// All sweeps of one vertex-tile class (`m` identical tiles).
    fn visit_tile(&self, w: &mut PhaseWalk, iv: usize, m: u64) {
        let av = actual_tile(self.wl.rows, self.tv, iv) as u64;
        if self.wl.op.sweeps() > 1 {
            self.sweep(w, av, false, m); // statistics: read-only
        }
        self.sweep(w, av, true, m); // apply + write-back
    }
}

impl PhaseEngine for ElementwiseLeaf<'_> {
    fn is_empty(&self) -> bool {
        self.wl.rows == 0 || self.wl.width == 0
    }

    fn reduction_lanes(&self) -> usize {
        1 // no cross-PE reduction tree
    }

    fn pe_footprint(&self) -> usize {
        self.tiling.pe_footprint()
    }

    fn chunk_total(&self, side: ChunkSide) -> u64 {
        match side {
            ChunkSide::Produce => self.wl.elems(),
            ChunkSide::Consume => self.wl.elems(),
        }
    }

    fn footprint(&self, opts: &EngineOptions) -> Footprint {
        if self.is_empty() {
            return Footprint::default();
        }
        // The phase streams in place over one matrix: the GB stages one tile
        // per sweep unless both residency flags keep the operand local, and a
        // resident operand pins the whole matrix in the RFs.
        let tile = self.tv as u64 * self.tw as u64;
        let gb = if opts.input_resident && opts.output_stays_local { 0 } else { tile };
        let pins = if opts.input_resident || opts.output_stays_local { self.wl.elems() } else { 0 };
        // No cross-pass partial sums: one accumulator word stands in for the
        // live set (the LayerNorm statistics registers).
        Footprint::new(1, pins, self.pe_footprint(), gb)
    }

    fn walk(&self, w: &mut PhaseWalk) {
        // Vertex tiles are uniform except the remainder tile, so the engine
        // walk batches them via `loop_classes`. With chunk timestamps the
        // multi-sweep passes of distinct tiles interleave in true order, so
        // the walk goes per index, as the per-tile reference walk always does.
        if w.opts.reference_walk || w.has_chunks() {
            for iv in 0..self.n_v {
                self.visit_tile(w, iv, 1);
            }
        } else {
            for &(iv, m) in &loop_classes(self.n_v) {
                self.visit_tile(w, iv, m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ChunkSpec, OperandClasses};
    use crate::{BandwidthShare, OperandClass};
    use omega_dataflow::LoopOrder;
    use proptest::prelude::*;

    fn tiling(phase: Phase, order_idx: usize, tiles: [usize; 3]) -> IntraTiling {
        IntraTiling::new(phase, LoopOrder::all(phase)[order_idx % 6], tiles)
    }

    fn run(wl: &ElementwiseWorkload, t: &IntraTiling, opts: &EngineOptions) -> PhaseStats {
        let cfg = AccelConfig::paper_default();
        simulate_elementwise(wl, t, &cfg, &OperandClasses::elementwise_on(OperandClass::Output), opts)
    }

    fn plain() -> EngineOptions {
        EngineOptions::plain(AccelConfig::paper_default().full_bandwidth())
    }

    #[test]
    fn activation_touches_each_element_once() {
        let wl = ElementwiseWorkload { rows: 10, width: 8, op: ElementwiseOp::Activation };
        let s = run(&wl, &tiling(Phase::Combination, 0, [4, 1, 4]), &plain());
        assert_eq!(s.macs, 80);
        assert_eq!(s.counters.gb_reads[OperandClass::Output.idx()], 80);
        assert_eq!(s.counters.gb_writes[OperandClass::Output.idx()], 80);
        assert!(s.cycles > 0);
    }

    #[test]
    fn layernorm_costs_two_sweeps() {
        let wl = ElementwiseWorkload { rows: 10, width: 8, op: ElementwiseOp::Activation };
        let norm = ElementwiseWorkload { op: ElementwiseOp::LayerNorm, ..wl };
        let t = tiling(Phase::Combination, 0, [4, 1, 4]);
        let act = run(&wl, &t, &plain());
        let ln = run(&norm, &t, &plain());
        assert_eq!(ln.macs, 2 * act.macs);
        // Statistics sweep re-reads but never writes.
        assert_eq!(ln.counters.gb_reads[OperandClass::Output.idx()], 160);
        assert_eq!(ln.counters.gb_writes[OperandClass::Output.idx()], 80);
        assert!(ln.cycles > act.cycles);
    }

    #[test]
    fn aggregation_shaped_tilings_use_the_f_tile() {
        let wl = ElementwiseWorkload { rows: 16, width: 32, op: ElementwiseOp::Activation };
        let narrow = run(&wl, &tiling(Phase::Aggregation, 0, [4, 1, 1]), &plain());
        let wide = run(&wl, &tiling(Phase::Aggregation, 0, [4, 16, 1]), &plain());
        assert!(wide.cycles < narrow.cycles);
        assert_eq!(wide.macs, narrow.macs);
    }

    #[test]
    fn resident_flags_suppress_all_traffic() {
        let wl = ElementwiseWorkload { rows: 12, width: 6, op: ElementwiseOp::LayerNorm };
        let mut opts = plain();
        opts.input_resident = true;
        opts.output_stays_local = true;
        let s = run(&wl, &tiling(Phase::Combination, 0, [4, 1, 2]), &opts);
        assert_eq!(s.counters.total_gb_reads(), 0);
        assert_eq!(s.counters.total_gb_writes(), 0);
        assert!(s.cycles > 0);
    }

    #[test]
    fn empty_workloads_are_free() {
        let t = tiling(Phase::Combination, 0, [4, 1, 2]);
        for wl in [
            ElementwiseWorkload { rows: 0, width: 6, op: ElementwiseOp::Activation },
            ElementwiseWorkload { rows: 6, width: 0, op: ElementwiseOp::LayerNorm },
        ] {
            let s = run(&wl, &t, &plain());
            assert_eq!(s.cycles, 0);
            assert_eq!(s.counters.total_gb_reads(), 0);
        }
    }

    #[test]
    fn chunk_marks_cover_the_operand() {
        let wl = ElementwiseWorkload { rows: 20, width: 8, op: ElementwiseOp::LayerNorm };
        for side in [ChunkSide::Produce, ChunkSide::Consume] {
            let mut opts = plain();
            opts.chunk = Some(ChunkSpec { side, pel: 48 });
            let s = run(&wl, &tiling(Phase::Combination, 0, [4, 1, 4]), &opts);
            assert_eq!(s.chunk_marks.len(), 160u64.div_ceil(48) as usize, "{side:?}");
            assert_eq!(*s.chunk_marks.last().unwrap(), s.cycles);
            assert!(s.chunk_marks.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Satellite acceptance: the batched walk is bit-identical to the
        /// naive per-tile reference across shapes, ops, tilings, both phase
        /// shapes, and all chunking modes.
        #[test]
        fn batched_walk_matches_naive_reference(
            rows in 0usize..40,
            width in 0usize..24,
            op_is_norm in proptest::bool::ANY,
            phase_is_cmb in proptest::bool::ANY,
            order_idx in 0usize..6,
            tv in 1usize..8, tm in 1usize..8, tw in 1usize..8,
            chunk_mode in 0usize..3,
            pel in 1u64..64,
            bw in 1usize..64,
        ) {
            let op = if op_is_norm { ElementwiseOp::LayerNorm } else { ElementwiseOp::Activation };
            let phase = if phase_is_cmb { Phase::Combination } else { Phase::Aggregation };
            let wl = ElementwiseWorkload { rows, width, op };
            // Tile positions are positional in the order; spread the three
            // draws across them so V and the width dim both vary.
            let t = tiling(phase, order_idx, [tv, tm, tw]);
            let cfg = AccelConfig::paper_default();
            let mut opts = EngineOptions::plain(BandwidthShare { dist: bw, red: bw });
            opts.chunk = match chunk_mode {
                0 => None,
                1 => Some(ChunkSpec { side: ChunkSide::Produce, pel }),
                _ => Some(ChunkSpec { side: ChunkSide::Consume, pel }),
            };
            let classes = OperandClasses::elementwise_on(OperandClass::Output);
            let fast = simulate_elementwise(&wl, &t, &cfg, &classes, &opts);
            opts.reference_walk = true;
            let slow = simulate_elementwise(&wl, &t, &cfg, &classes, &opts);
            prop_assert_eq!(fast.cycles, slow.cycles);
            prop_assert_eq!(fast.stall_cycles, slow.stall_cycles);
            prop_assert_eq!(fast.macs, slow.macs);
            prop_assert_eq!(fast.counters, slow.counters);
            prop_assert_eq!(fast.chunk_marks, slow.chunk_marks);
        }

        /// Element count, not tiling, fixes the ALU work.
        #[test]
        fn alu_work_is_tiling_invariant(
            rows in 1usize..40, width in 1usize..24,
            order_idx in 0usize..6,
            tv in 1usize..8, tw in 1usize..8,
        ) {
            let wl = ElementwiseWorkload { rows, width, op: ElementwiseOp::Activation };
            let s = run(&wl, &tiling(Phase::Combination, order_idx, [tv, 1, tw]), &plain());
            prop_assert_eq!(s.macs, (rows * width) as u64);
        }
    }
}
