//! The SDDMM phase leaf: adjacency-masked attention scoring (GAT).
//!
//! An attention GNN's score computation is a **sampled dense-dense matrix
//! multiply**: `S = A ⊙ (Q · Kᵀ)` — one dot product per stored adjacency
//! non-zero, where both dot operands come from the (transformed) feature
//! matrix. Its sparsity structure is exactly the graph, which is why VersaGNN
//! and Dynasparse argue it deserves its own dataflow treatment: the loop nest
//! shares the Aggregation dimension set `[V, N, F]`, but the **reduction
//! dimension is `F`** (the dot-product length), not `N`.
//!
//! The leaf mirrors the SpMM leaf's structure: passes over vertex tiles,
//! neighbour slices, and `F`-slices, with rows inside a spatial vertex tile
//! **tile-synchronized** (the evil-row pathology applies to scoring too),
//! degree-class batching for single-row tiles, and the same closed-form
//! per-pass accounting. Differences from SpMM:
//!
//! * per edge and per head, `ceil(dot_width / T_F)` spatial-reduction steps
//!   produce **one scalar score**, so the phase output is adjacency-shaped
//!   (`heads × nnz` elements, the [`crate::OperandClass::EdgeScore`] bucket);
//! * when `F` is not innermost, the **partial scores** of in-flight edges are
//!   the live psums — they spill exactly like the other engines' partial sums;
//! * heads iterate back-to-back at fixed tile indices, so a workload with `h`
//!   heads runs each pass with multiplicity `h` (the total MAC count
//!   `heads · nnz · dot_width` is invariant in `heads` when the feature width
//!   splits across heads, but the score count `heads · nnz` is not);
//! * after the last score completes, an **edge-wise softmax pass** normalises
//!   the scores per row: two streaming sweeps over the score array (max +
//!   exp-sum, then normalise + write-back), costed against compute throughput
//!   and the NoC floors like any other pass (the leaf's `epilogue`). With
//!   `output_stays_local` the scores never leave the RFs and the sweeps are
//!   compute-only.
//!
//! Loop-order support: the three orders that keep `V` before `N` (`VFN`,
//! `VNF`, `FVN`). Orders that put `N` before `V` interleave every row's score
//! production across the whole phase, which the row-wise softmax cannot
//! stream — `omega_dataflow::validate_sddmm` rejects them before the engine
//! is reached (the engine itself panics on them).

use omega_dataflow::{Dim, IntraTiling, Phase};

use super::core::{
    actual_tile, bandwidth_sweep, loop_classes, row_slice_runs, run_phase, split_ends, with_marks,
    DegreeSummary, Footprint, PhaseEngine, PhaseWalk, PreparedSpmm, SliceRun, SpillModel,
    TileClass,
};
use super::{ChunkSide, EngineOptions, OperandClasses};
use crate::{AccelConfig, ChunkTimeline, OperandClass, PhaseStats};

/// The workload of an SDDMM scoring phase: the adjacency degree structure,
/// the per-head dot-product length, and the head count.
#[derive(Debug, Clone)]
pub struct SddmmWorkload<'a> {
    /// Stored non-zeros per adjacency row (incl. self loops).
    pub degrees: &'a [usize],
    /// Per-head dot-product length (`F / heads` when the feature width splits
    /// across heads, GAT-style).
    pub dot_width: usize,
    /// Attention heads (clamped to ≥ 1): each edge produces one score per head.
    pub heads: usize,
}

impl SddmmWorkload<'_> {
    /// Total stored non-zeros.
    pub fn nnz(&self) -> u64 {
        self.degrees.iter().map(|&d| d as u64).sum()
    }

    /// Scores the phase produces (`heads × nnz`).
    pub fn scores(&self) -> u64 {
        self.heads.max(1) as u64 * self.nnz()
    }
}

/// Simulates the SDDMM scoring phase (plus its softmax pass) under a concrete
/// tiling.
///
/// The tiling is over the Aggregation dimension set (`V`/`F`/`N`), with `F`
/// acting as the reduction: `T_F` PEs form the dot-product reduction group,
/// `T_N` parallelises a row's edges, `T_V` parallelises rows
/// (tile-synchronized).
///
/// # Panics
/// Panics if the tiling is not an Aggregation tiling or its loop order puts
/// `N` before `V` (see `omega_dataflow::validate_sddmm`).
pub fn simulate_sddmm(
    wl: &SddmmWorkload<'_>,
    tiling: &IntraTiling,
    cfg: &AccelConfig,
    classes: &OperandClasses,
    opts: &EngineOptions,
) -> PhaseStats {
    let prep = PreparedSpmm::new(wl.degrees);
    with_marks(simulate_sddmm_prepared(&prep, wl.dot_width, wl.heads, tiling, cfg, classes, opts))
}

/// [`simulate_sddmm`] over pre-hoisted degree structures ([`PreparedSpmm`] —
/// the SDDMM and SpMM phases of one workload share the same adjacency, so the
/// DSE prepares it once). Bit-identical to the plain entry point, with the
/// chunk timeline returned run-length encoded beside the stats instead of
/// expanded into their `chunk_marks`.
#[allow(clippy::too_many_arguments)]
pub fn simulate_sddmm_prepared(
    prep: &PreparedSpmm<'_>,
    dot_width: usize,
    heads: usize,
    tiling: &IntraTiling,
    cfg: &AccelConfig,
    classes: &OperandClasses,
    opts: &EngineOptions,
) -> (PhaseStats, ChunkTimeline) {
    assert_eq!(tiling.phase(), Phase::Aggregation, "SDDMM engine needs a V/F/N tiling");
    let order = tiling.order();
    let pos_v = order.position(Dim::V).expect("V is an SDDMM dim");
    let pos_n = order.position(Dim::N).expect("N is an SDDMM dim");
    assert!(
        pos_v < pos_n,
        "SDDMM loop order {order} puts N before V; gate with omega_dataflow::validate_sddmm"
    );
    // `EngineOptions::reference_walk` routes through the per-pass oracle.
    let leaf = SddmmLeaf::new(prep, dot_width, heads, tiling, cfg, opts.reference_walk);
    run_phase(&leaf, cfg, classes, opts)
}

/// The static shape of one walk, shared by the batched leaf and the naive
/// per-pass reference walker of the tests.
#[derive(Clone, Copy)]
struct WalkShape {
    v: usize,
    d: usize,
    tv: usize,
    tf: usize,
    tn: usize,
    n_v: usize,
    n_f: usize,
    h: u64,
    pos_v: usize,
    pos_f: usize,
}

/// The SDDMM leaf: dot-product scoring over the adjacency structure, with the
/// row-wise softmax as the epilogue.
struct SddmmLeaf<'a> {
    prep: &'a PreparedSpmm<'a>,
    shape: WalkShape,
    tiling: &'a IntraTiling,
    spill: SpillModel,
    naive: bool,
    scores_total: u64,
}

impl<'a> SddmmLeaf<'a> {
    fn new(
        prep: &'a PreparedSpmm<'a>,
        dot_width: usize,
        heads: usize,
        tiling: &'a IntraTiling,
        cfg: &AccelConfig,
        naive: bool,
    ) -> Self {
        let order = tiling.order();
        let pos_v = order.position(Dim::V).expect("V is an SDDMM dim");
        let pos_f = order.position(Dim::F).expect("F is an SDDMM dim");
        let v = prep.degrees().len();
        let d = dot_width;
        let h = heads.max(1) as u64;
        let scores_total = h * prep.nnz();
        if v == 0 || d == 0 || prep.nnz() == 0 {
            // Degenerate: `run_phase` short-circuits before reading these.
            let shape =
                WalkShape { v, d, tv: 1, tf: 1, tn: 1, n_v: 0, n_f: 0, h, pos_v, pos_f };
            let spill = SpillModel::new(cfg, 1, 1, false);
            return SddmmLeaf { prep, shape, tiling, spill, naive, scores_total };
        }
        let max_deg = prep.max_degree();
        let tv = tiling.tile_of(Dim::V).min(v);
        let tf = tiling.tile_of(Dim::F).min(d);
        let tn = tiling.tile_of(Dim::N).min(max_deg.max(1));
        let n_v = v.div_ceil(tv);
        let n_f = d.div_ceil(tf);
        let n_n_global = (max_deg as u64).div_ceil(tn as u64).max(1);
        // Partial-score placement: with F innermost each edge's dot completes
        // in-pass (MAC-register accumulation). With F further out, every
        // (edge, head) in the loops inner to F keeps a live partial score,
        // shared across the T_F PEs of each dot-product reduction group. A
        // single F-slice completes every dot in-pass regardless of the loop
        // order, so only multi-slice reductions can spill partial scores.
        let revisits: u64 = [(Dim::V, n_v as u64), (Dim::N, n_n_global)]
            .iter()
            .filter(|&&(dim, _)| order.position(dim).expect("dim present") > pos_f)
            .map(|&(_, n)| n)
            .product();
        let spill = SpillModel::new(cfg, h * revisits, tf, pos_f < 2 && n_f > 1);
        let shape = WalkShape { v, d, tv, tf, tn, n_v, n_f, h, pos_v, pos_f };
        SddmmLeaf { prep, shape, tiling, spill, naive, scores_total }
    }

    /// Charges the feature and adjacency-structure traffic of a pass visiting
    /// `edge_visits` edges over `width` dot-product columns of `rows` rows,
    /// for `m` identical passes. The stationary Q row slices preload serially
    /// (`q_preload` false suppresses them — VNF keeps the row pinned across
    /// its neighbour slices). Returns per-pass `(gb_stream_reads, preload)`.
    fn charge_inputs(
        &self,
        w: &mut PhaseWalk,
        edge_visits: u64,
        width: u64,
        rows: u64,
        q_preload: bool,
        m: u64,
    ) -> (u64, u64) {
        let k_elems = edge_visits * width; // gathered neighbour slices (streamed)
        let q_elems = if q_preload { rows * width } else { 0 }; // pinned row slices
        let structure = edge_visits + rows; // column indices + row pointers
        w.counters.read(OperandClass::Adjacency, structure * m);
        let mut gb = structure;
        let mut preload = 0;
        if !w.opts.input_resident {
            w.counters.read(w.classes.a_input, (k_elems + q_elems) * m);
            gb += k_elems;
            preload = q_elems;
        }
        // Multicast: each Q element fans out across the T_N edge lanes; K
        // elements land in exactly one reduction group each.
        w.counters.rf_writes += (k_elems + q_elems * self.shape.tn as u64) * m;
        (gb, preload)
    }

    /// `m` identical passes at a fixed `F`-slice (the `VFN`/`FVN` row-major
    /// walks): `steps` tile-synchronized compute steps cover `edge_visits`
    /// edges × `af` dot columns; partial scores carry across the `n_f`
    /// F-slices (accumulating in the RFs or spilling).
    #[allow(clippy::too_many_arguments)]
    fn scoring_pass(
        &self,
        w: &mut PhaseWalk,
        steps: u64,
        edge_visits: u64,
        rows: u64,
        af: u64,
        red_idx: u64,
        q_preload: bool,
        m: u64,
    ) {
        let n_f = self.shape.n_f as u64;
        let macs = edge_visits * af;
        w.macs += macs * m;
        w.counters.rf_reads += 2 * macs * m;
        let mut gb_writes = 0;
        if self.spill.spill {
            w.spilled = true;
            let spilled = self.spill.scale(edge_visits);
            if red_idx > 0 {
                w.counters.read(OperandClass::Psum, spilled * m);
            }
            if red_idx < n_f - 1 {
                w.counters.write(OperandClass::Psum, spilled * m);
                gb_writes += spilled;
            }
        } else {
            let updates = macs.div_ceil(self.shape.tf as u64);
            w.counters.rf_reads += updates * m;
            w.counters.rf_writes += updates * m;
        }
        let mut produced = 0;
        if red_idx == n_f - 1 {
            produced = edge_visits; // one score per edge completes
            if w.opts.output_stays_local {
                w.counters.rf_writes += produced * m;
            } else {
                w.counters.write(w.classes.output, produced * m);
                gb_writes += produced;
            }
        }
        let (mut gb_reads, preload) = self.charge_inputs(w, edge_visits, af, rows, q_preload, m);
        if self.spill.spill && red_idx > 0 {
            gb_reads += self.spill.scale(edge_visits);
        }
        w.run_pass(steps.max(1), gb_reads, gb_writes, preload, produced, macs, m);
    }

    /// `m` identical `VNF` passes: one neighbour slice of one v-tile, the full
    /// dot streaming innermost — each visited edge's score completes in-pass.
    fn streaming_pass(&self, w: &mut PhaseWalk, edge_visits: u64, rows: u64, first_slice: bool, m: u64) {
        let width = self.shape.d as u64;
        let macs = edge_visits * width;
        w.macs += macs * m;
        w.counters.rf_reads += 2 * macs * m;
        let updates = macs.div_ceil(self.shape.tf as u64);
        w.counters.rf_reads += updates * m;
        w.counters.rf_writes += updates * m;
        let produced = edge_visits;
        let mut gb_writes = 0;
        if w.opts.output_stays_local {
            w.counters.rf_writes += produced * m;
        } else {
            w.counters.write(w.classes.output, produced * m);
            gb_writes += produced;
        }
        let (gb_reads, preload) = self.charge_inputs(w, edge_visits, width, rows, first_slice, m);
        let steps = self.shape.n_f as u64; // F-slices stream innermost per edge group
        w.run_pass(steps.max(1), gb_reads, gb_writes, preload, produced, macs, m);
    }

    /// The full neighbour-slice walk of one single-row `VNF` vertex (`m` folds
    /// the head count and any rows of identical degree).
    fn vnf_vertex(&self, w: &mut PhaseWalk, deg: usize, m: u64) {
        let n_red = deg.div_ceil(self.shape.tn).max(1);
        row_slice_runs(deg, self.shape.tn, n_red, |r| self.vnf_run(w, &r, 1, n_red, m));
    }

    /// The neighbour-slice walk of one `VNF` vertex-tile class (`m` folds the
    /// head count and any class multiplicity).
    fn vnf_tile_class(&self, w: &mut PhaseWalk, c: &TileClass, m: u64) {
        let n_red = c.max.div_ceil(self.shape.tn).max(1);
        c.summary().slice_runs(self.shape.tn, n_red, |r| self.vnf_run(w, &r, c.rows, n_red, m));
    }

    /// `m` tiles of `rows` rows through the slices of run `r` under `VNF`:
    /// only the first slice preloads the pinned rows.
    fn vnf_run(&self, w: &mut PhaseWalk, r: &SliceRun, rows: u64, n_red: usize, m: u64) {
        for (first, len) in split_ends(r.first, r.len, n_red) {
            self.streaming_pass(w, r.active, rows, first == 0, m * len as u64);
        }
    }
}

impl PhaseEngine for SddmmLeaf<'_> {
    fn is_empty(&self) -> bool {
        self.shape.v == 0 || self.shape.d == 0 || self.prep.nnz() == 0
    }

    fn reduction_lanes(&self) -> usize {
        // The dot-product reduction tree spans the T_F lanes.
        self.shape.tf
    }

    fn pe_footprint(&self) -> usize {
        self.tiling.pe_footprint()
    }

    fn chunk_total(&self, side: ChunkSide) -> u64 {
        match side {
            ChunkSide::Produce => self.scores_total,
            ChunkSide::Consume => self.scores_total * self.shape.d as u64,
        }
    }

    fn footprint(&self, opts: &EngineOptions) -> Footprint {
        if self.is_empty() {
            return Footprint::default();
        }
        let s = self.shape;
        let (tv, tf, tn) = (s.tv as u64, s.tf as u64, s.tn as u64);
        // GB stages one pass's slices: the CSR structure of the vertex tile,
        // the pinned Q row slices plus the gathered K slices, and the score
        // tile — each unless a residency flag keeps it local.
        let mut gb = tv * (1 + tn);
        if !opts.input_resident {
            gb += tv * tf + tv * tn * tf;
        }
        if !opts.output_stays_local {
            gb += tv * tn;
        }
        // Residency pins: both dot operands come from the full feature matrix
        // (`d` columns per head over every row); local scores pin the whole
        // adjacency-shaped score array until the softmax drains it.
        let mut pins = 0u64;
        if opts.input_resident {
            pins += s.v as u64 * s.d as u64 * s.h;
        }
        if opts.output_stays_local {
            pins += self.scores_total;
        }
        Footprint::new(self.spill.live(), pins, self.pe_footprint(), gb)
    }

    /// Dispatches the supported loop orders. `naive` forces the unbatched
    /// per-pass reference walk (every index and head visited with
    /// multiplicity one) — the engine path collapses uniform passes via
    /// `loop_classes`, degree classes, and the head multiplicity, and the
    /// tests assert both walks are bit-identical.
    fn walk(&self, w: &mut PhaseWalk) {
        let s = self.shape;
        let degrees = self.prep.degrees();
        let tn = s.tn as u64;
        // Heads iterate back-to-back at fixed (tile, slice) indices: the leaf
        // folds them into the pass multiplicity, the reference walk repeats the
        // pass `h` times.
        let (m_h, reps_h) = if self.naive { (1, s.h) } else { (s.h, 1) };
        match (s.pos_v, s.pos_f) {
            (0, 1) => {
                // VFN: per v-tile, F-slices in the middle, neighbours
                // innermost. The F loop is batched per `loop_classes` — at a
                // fixed v-tile its passes are consecutive in true iteration
                // order, so the batching is chunk-exact. Without chunk
                // timestamps the summary walk also folds the vertex tiles of
                // one `(sum, max, rows)` group; the chunked and reference
                // walks scan each tile in order.
                if !self.naive && !w.has_chunks() {
                    let f_walk = loop_classes(s.n_f);
                    for g in self.prep.tile_stats(s.tv).groups() {
                        w.class_replays += g.mult - 1;
                        let steps = (g.max as u64).div_ceil(tn);
                        for &(if_, mf) in &f_walk {
                            let af = actual_tile(s.d, s.tf, if_) as u64;
                            self.scoring_pass(
                                w, steps, g.sum, g.rows, af, if_ as u64, true,
                                mf * s.h * g.mult,
                            );
                        }
                    }
                } else {
                    let f_walk: Vec<(usize, u64)> = if self.naive {
                        (0..s.n_f).map(|if_| (if_, 1)).collect()
                    } else {
                        loop_classes(s.n_f)
                    };
                    for iv in 0..s.n_v {
                        let (sum, steps, avv) = self.prep.tile_scan(s.tv, s.tn, iv);
                        for &(if_, mf) in &f_walk {
                            let af = actual_tile(s.d, s.tf, if_) as u64;
                            for _ in 0..reps_h {
                                self.scoring_pass(
                                    w, steps, sum, avv, af, if_ as u64, true, mf * m_h,
                                );
                            }
                        }
                    }
                }
            }
            (1, 0) => {
                // FVN: F-slices outermost, v-tiles in the middle, neighbours
                // innermost — the same passes as VFN in f-major order. Batching
                // the middle F-class would lump passes that interleave with
                // other v-tiles in true order, so with chunk timestamps the F
                // loop walks per index, scanning each tile in order.
                if !self.naive && !w.has_chunks() {
                    let stats = self.prep.tile_stats(s.tv);
                    for &(if_, mf) in &loop_classes(s.n_f) {
                        let af = actual_tile(s.d, s.tf, if_) as u64;
                        for g in stats.groups() {
                            w.class_replays += g.mult - 1;
                            let steps = (g.max as u64).div_ceil(tn);
                            self.scoring_pass(
                                w, steps, g.sum, g.rows, af, if_ as u64, true,
                                mf * s.h * g.mult,
                            );
                        }
                    }
                } else {
                    for if_ in 0..s.n_f {
                        let af = actual_tile(s.d, s.tf, if_) as u64;
                        for iv in 0..s.n_v {
                            let (sum, steps, avv) = self.prep.tile_scan(s.tv, s.tn, iv);
                            for _ in 0..reps_h {
                                self.scoring_pass(w, steps, sum, avv, af, if_ as u64, true, m_h);
                            }
                        }
                    }
                }
            }
            (0, 2) => {
                // VNF: per v-tile, neighbour slices in the middle, the
                // dot-product F loop innermost — scores complete in-pass.
                if s.tv == 1 && !w.has_chunks() && !self.naive {
                    // Single-row tiles of equal degree make identical pass
                    // sequences — batch by degree class (order-insensitive
                    // without chunk timestamps).
                    for &(deg, m) in self.prep.classes() {
                        w.class_replays += m - 1;
                        self.vnf_vertex(w, deg, m * s.h);
                    }
                } else if s.tv == 1 && !self.naive {
                    for &deg in degrees {
                        self.vnf_vertex(w, deg, s.h);
                    }
                } else if s.tv == 1 {
                    for &deg in degrees {
                        let n_red = (deg as u64).div_ceil(tn).max(1) as usize;
                        for in_ in 0..n_red {
                            let lo = in_ * s.tn;
                            let hi = lo + s.tn;
                            let active = (deg.min(hi) - deg.min(lo)) as u64;
                            for _ in 0..reps_h {
                                self.streaming_pass(w, active, 1, in_ == 0, m_h);
                            }
                        }
                    }
                } else if self.naive {
                    for iv in 0..s.n_v {
                        let lo = iv * s.tv;
                        let hi = ((iv + 1) * s.tv).min(s.v);
                        let summary = DegreeSummary::new(degrees[lo..hi].iter().copied());
                        let avv = (hi - lo) as u64;
                        let n_red = (summary.max() as u64).div_ceil(tn).max(1) as usize;
                        for in_ in 0..n_red {
                            let active = summary.active(in_ * s.tn, (in_ + 1) * s.tn);
                            for _ in 0..reps_h {
                                self.streaming_pass(w, active, avv, in_ == 0, m_h);
                            }
                        }
                    }
                } else {
                    let ws = self.prep.summary(s.tv);
                    if !w.has_chunks() {
                        for c in ws.classes() {
                            w.class_replays += c.mult - 1;
                            self.vnf_tile_class(w, c, s.h * c.mult);
                        }
                    } else {
                        for iv in 0..ws.num_tiles() {
                            self.vnf_tile_class(w, ws.class_of(iv), s.h);
                        }
                    }
                }
            }
            _ => unreachable!("validate_sddmm admits only the V-before-N orders (VFN, VNF, FVN)"),
        }
    }

    /// The edge-wise softmax: two streaming sweeps over the score array
    /// (row max + exp-sum, then normalise + write-back), each bounded by
    /// compute throughput (one score per PE per cycle) and the NoC floors.
    /// Returns the sweep cycles; traffic lands in the output class.
    fn epilogue(&self, w: &mut PhaseWalk) -> u64 {
        let scores = self.scores_total;
        if scores == 0 {
            return 0;
        }
        let footprint = self.tiling.pe_footprint() as u64;
        let compute = scores.div_ceil(footprint.max(1));
        let gb = if w.opts.output_stays_local { 0 } else { scores };
        // Sweep 1 re-reads the scores (no write-back yet); sweep 2 reads and
        // writes the normalised copy.
        let (sweep1, stall1) = bandwidth_sweep(compute, gb, 0, w.opts.bandwidth);
        let (sweep2, stall2) = bandwidth_sweep(compute, gb, gb, w.opts.bandwidth);
        w.stall_cycles += stall1 + stall2;
        if w.opts.output_stays_local {
            w.counters.rf_reads += 2 * scores;
            w.counters.rf_writes += scores;
        } else {
            w.counters.read(w.classes.output, 2 * scores);
            w.counters.write(w.classes.output, scores);
            w.counters.rf_reads += 2 * scores;
            w.counters.rf_writes += scores;
        }
        sweep1 + sweep2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ChunkSpec;
    use crate::BandwidthShare;
    use omega_dataflow::LoopOrder;

    fn tiling(order: &str, tiles: [usize; 3]) -> IntraTiling {
        let d: Vec<Dim> = order.chars().map(|c| Dim::from_letter(c).unwrap()).collect();
        IntraTiling::new(
            Phase::Aggregation,
            LoopOrder::new(Phase::Aggregation, [d[0], d[1], d[2]]).unwrap(),
            tiles,
        )
    }

    fn run(degrees: &[usize], d: usize, h: usize, t: &IntraTiling) -> PhaseStats {
        let cfg = AccelConfig::paper_default();
        let wl = SddmmWorkload { degrees, dot_width: d, heads: h };
        simulate_sddmm(&wl, t, &cfg, &OperandClasses::sddmm(), &EngineOptions::plain(cfg.full_bandwidth()))
    }

    /// The reference walk: every index and head visited pass by pass,
    /// multiplicity 1 — no `loop_classes`, no degree-class batching, no head
    /// batching.
    fn run_naive(
        degrees: &[usize],
        d: usize,
        h: usize,
        t: &IntraTiling,
        cfg: &AccelConfig,
        opts: &EngineOptions,
    ) -> PhaseStats {
        let mut opts = *opts;
        opts.reference_walk = true;
        let wl = SddmmWorkload { degrees, dot_width: d, heads: h };
        simulate_sddmm(&wl, t, cfg, &OperandClasses::sddmm(), &opts)
    }

    const SUPPORTED_ORDERS: [&str; 3] = ["VFN", "VNF", "FVN"];

    fn stats_eq(a: &PhaseStats, b: &PhaseStats, ctx: &str) {
        assert_eq!(a.cycles, b.cycles, "{ctx}: cycles");
        assert_eq!(a.stall_cycles, b.stall_cycles, "{ctx}: stalls");
        assert_eq!(a.macs, b.macs, "{ctx}: macs");
        assert_eq!(a.counters, b.counters, "{ctx}: counters");
        assert_eq!(a.chunk_marks, b.chunk_marks, "{ctx}: chunk marks");
        assert_eq!(a.psum_spilled, b.psum_spilled, "{ctx}: spill flag");
    }

    #[test]
    fn batched_walk_is_bit_identical_to_naive_reference() {
        // The satellite acceptance: every supported loop order, a spread of
        // tilings (incl. remainder tiles and spill-inducing shapes), and both
        // chunked paths, engine vs unbatched reference.
        let cfg = AccelConfig::paper_default();
        let degree_sets: [&[usize]; 3] =
            [&[3, 1, 5, 0, 2], &[7, 7, 7, 7, 7, 7, 7, 7], &[1, 64, 2, 2, 3, 9, 1, 1, 30]];
        for degrees in degree_sets {
            for order in SUPPORTED_ORDERS {
                for tiles in [[1, 1, 1], [2, 4, 2], [4, 2, 1], [3, 3, 3], [1, 2, 4]] {
                    for (d, h) in [(16, 1), (13, 4), (8, 3)] {
                        let t = tiling(order, tiles);
                        let wl = SddmmWorkload { degrees, dot_width: d, heads: h };
                        let base_opts = EngineOptions::plain(cfg.full_bandwidth());
                        let chunked = {
                            let mut o = base_opts;
                            o.chunk = Some(ChunkSpec { side: ChunkSide::Produce, pel: 7 });
                            o
                        };
                        let consuming = {
                            let mut o = base_opts;
                            o.chunk = Some(ChunkSpec { side: ChunkSide::Consume, pel: 33 });
                            o
                        };
                        for opts in [base_opts, chunked, consuming] {
                            let fast =
                                simulate_sddmm(&wl, &t, &cfg, &OperandClasses::sddmm(), &opts);
                            let slow = run_naive(degrees, d, h, &t, &cfg, &opts);
                            stats_eq(
                                &fast,
                                &slow,
                                &format!("{order} {tiles:?} d={d} h={h} chunk={:?}", opts.chunk),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mac_count_is_invariant_across_orders_and_heads() {
        let degrees = [3usize, 1, 5, 0, 2];
        let nnz: u64 = 11;
        for order in SUPPORTED_ORDERS {
            for (d, h) in [(16, 1), (4, 4), (8, 2)] {
                let s = run(&degrees, d, h, &tiling(order, [2, 2, 2]));
                assert_eq!(s.macs, nnz * (d * h) as u64, "{order} d={d} h={h}");
                assert!(s.cycles > 0);
            }
        }
    }

    #[test]
    fn scores_written_once_per_edge_per_head() {
        let degrees = [2usize, 3, 1, 4];
        for order in SUPPORTED_ORDERS {
            let s = run(&degrees, 8, 3, &tiling(order, [2, 4, 1]));
            // Scoring writes h·nnz once; the softmax writes the normalised
            // copy once more.
            assert_eq!(
                s.counters.gb_writes[OperandClass::EdgeScore.idx()],
                2 * 3 * 10,
                "{order}"
            );
        }
    }

    #[test]
    fn softmax_reads_scores_twice() {
        let degrees = [2usize, 3, 1, 4];
        let s = run(&degrees, 8, 2, &tiling("VFN", [2, 4, 1]));
        assert_eq!(s.counters.gb_reads[OperandClass::EdgeScore.idx()], 2 * 2 * 10);
    }

    #[test]
    fn evil_row_dominates_tile_synchronized_scoring() {
        let mut degrees = vec![2usize; 63];
        degrees.push(200);
        let wide = run(&degrees, 16, 1, &tiling("VFN", [64, 8, 1]));
        let narrow = run(&degrees, 16, 1, &tiling("VFN", [8, 8, 1]));
        assert!(narrow.compute_utilisation() > wide.compute_utilisation());
    }

    #[test]
    fn spatial_reduction_lanes_cut_dot_cycles() {
        // T_F spatial lanes shorten every edge's dot product.
        let degrees = vec![8usize; 32];
        let temporal = run(&degrees, 64, 1, &tiling("VNF", [8, 1, 4]));
        let spatial = run(&degrees, 64, 1, &tiling("VNF", [8, 16, 4]));
        assert!(spatial.cycles * 4 < temporal.cycles, "{} vs {}", spatial.cycles, temporal.cycles);
    }

    #[test]
    fn partial_scores_spill_when_f_sliced_and_edges_overflow_rf() {
        // VFN with many F-slices: every edge of a dense row keeps a live
        // partial score across slices → spills past the 13-word RF.
        let degrees = vec![64usize; 16];
        let s = run(&degrees, 64, 2, &tiling("VFN", [4, 1, 1]));
        assert!(s.psum_spilled);
        assert!(s.counters.gb_of(OperandClass::Psum) > 0);
        // F innermost streams the whole dot per edge: nothing persists.
        let vnf = run(&degrees, 64, 2, &tiling("VNF", [4, 1, 1]));
        assert!(!vnf.psum_spilled);
        assert_eq!(vnf.counters.gb_of(OperandClass::Psum), 0);
    }

    #[test]
    fn output_stays_local_suppresses_score_traffic() {
        let degrees = [2usize, 3, 1, 4];
        let t = tiling("VFN", [2, 4, 1]);
        let cfg = AccelConfig::paper_default();
        let wl = SddmmWorkload { degrees: &degrees, dot_width: 8, heads: 2 };
        let mut opts = EngineOptions::plain(cfg.full_bandwidth());
        opts.output_stays_local = true;
        let s = simulate_sddmm(&wl, &t, &cfg, &OperandClasses::sddmm(), &opts);
        assert_eq!(s.counters.gb_of(OperandClass::EdgeScore), 0);
        assert_eq!(s.counters.total_gb_writes(), 0);
    }

    #[test]
    fn produce_chunks_cover_all_scores() {
        let degrees = vec![3usize; 16];
        let t = tiling("VFN", [4, 8, 1]);
        let cfg = AccelConfig::paper_default();
        let wl = SddmmWorkload { degrees: &degrees, dot_width: 8, heads: 2 };
        let mut opts = EngineOptions::plain(cfg.full_bandwidth());
        opts.chunk = Some(ChunkSpec { side: ChunkSide::Produce, pel: 12 });
        let s = simulate_sddmm(&wl, &t, &cfg, &OperandClasses::sddmm(), &opts);
        assert_eq!(s.chunk_marks.len(), (2 * 48u64).div_ceil(12) as usize);
        assert_eq!(*s.chunk_marks.last().unwrap(), s.cycles);
        assert!(s.chunk_marks.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn bandwidth_throttling_stalls_scoring() {
        let degrees = vec![32usize; 64];
        let t = tiling("VFN", [8, 16, 1]);
        let cfg = AccelConfig::paper_default();
        let wl = SddmmWorkload { degrees: &degrees, dot_width: 32, heads: 4 };
        let fast = simulate_sddmm(&wl, &t, &cfg, &OperandClasses::sddmm(),
            &EngineOptions::plain(BandwidthShare { dist: 512, red: 512 }));
        let slow = simulate_sddmm(&wl, &t, &cfg, &OperandClasses::sddmm(),
            &EngineOptions::plain(BandwidthShare { dist: 16, red: 16 }));
        assert!(slow.cycles > fast.cycles);
        assert!(slow.stall_cycles > fast.stall_cycles);
    }

    #[test]
    fn empty_workloads_are_free() {
        assert_eq!(run(&[], 8, 2, &tiling("VFN", [2, 4, 1])).cycles, 0);
        assert_eq!(run(&[0, 0], 8, 2, &tiling("VFN", [2, 4, 1])).cycles, 0);
        assert_eq!(run(&[3, 2], 0, 2, &tiling("VFN", [2, 4, 1])).cycles, 0);
    }

    #[test]
    #[should_panic(expected = "N before V")]
    fn n_outermost_orders_panic() {
        run(&[2, 2], 8, 1, &tiling("NVF", [2, 2, 2]));
    }

    #[test]
    #[should_panic(expected = "N before V")]
    fn fnv_order_panics() {
        run(&[2, 2], 8, 1, &tiling("FNV", [2, 2, 2]));
    }
}
