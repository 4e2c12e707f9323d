//! The dense-GEMM phase leaf (Combination).

use omega_dataflow::{Dim, IntraTiling, Phase};
use serde::Serialize;

use super::core::{
    actual_tile, loop_classes, run_phase, with_marks, Footprint, PhaseEngine, PhaseWalk,
    PreparedGemm, SpillModel,
};
use super::{ChunkSide, EngineOptions, OperandClasses};
use crate::{AccelConfig, ChunkTimeline, PhaseStats};

/// Matrix dimensions of a GEMM phase: `Output[V×G] += A[V×F] · B[F×G]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct GemmDims {
    /// Rows of `A` and the output (vertices).
    pub v: usize,
    /// Columns of `A` / rows of `B` (the reduction dimension).
    pub f: usize,
    /// Columns of `B` and the output.
    pub g: usize,
}

/// Simulates the Combination phase under a concrete tiling.
///
/// See the module docs of [`crate::engine`] for the cost model. The operand
/// roles: `A` is the `(V×F)` streamed matrix (intermediate in AC, raw features
/// in CA), `B` the `(F×G)` weights, and the output is `(V×G)`.
pub fn simulate_gemm(
    dims: GemmDims,
    tiling: &IntraTiling,
    cfg: &AccelConfig,
    classes: &OperandClasses,
    opts: &EngineOptions,
) -> PhaseStats {
    with_marks(simulate_gemm_prepared(&PreparedGemm::new(dims), tiling, cfg, classes, opts))
}

/// [`simulate_gemm`] over a pre-built [`PreparedGemm`] — the uniform
/// `simulate_*_prepared` entry point callers evaluating many tilings of one
/// workload use for every phase kind. Returns the chunk timeline run-length
/// encoded beside the stats instead of expanding it into their `chunk_marks`.
pub fn simulate_gemm_prepared(
    prep: &PreparedGemm,
    tiling: &IntraTiling,
    cfg: &AccelConfig,
    classes: &OperandClasses,
    opts: &EngineOptions,
) -> (PhaseStats, ChunkTimeline) {
    assert_eq!(tiling.phase(), Phase::Combination, "GEMM engine needs a Combination tiling");
    let leaf = GemmLeaf::new(prep.dims(), tiling, cfg);
    run_phase(&leaf, cfg, classes, opts)
}

/// The GEMM leaf: a dense three-deep nest over `V`/`F`/`G` whose passes sweep
/// the innermost dimension at fixed outer/middle tiles.
struct GemmLeaf<'a> {
    dims: GemmDims,
    tiling: &'a IntraTiling,
    /// Spatial reduction group size (`T_F`).
    t_red: usize,
    /// Position of the reduction dimension `F` in the loop order.
    pos_r: usize,
    /// Reduction tile count.
    n_red: u64,
    /// Position of `G` in the loop order (decides the consume-chunk stream).
    pos_g: usize,
    spill: SpillModel,
}

impl<'a> GemmLeaf<'a> {
    fn new(dims: GemmDims, tiling: &'a IntraTiling, cfg: &AccelConfig) -> Self {
        let GemmDims { v, f, g } = dims;
        if v == 0 || f == 0 || g == 0 {
            // Degenerate: `run_phase` short-circuits before reading these.
            let spill = SpillModel::new(cfg, 1, 1, false);
            return GemmLeaf { dims, tiling, t_red: 1, pos_r: 2, n_red: 1, pos_g: 0, spill };
        }
        let extent = |d: Dim| -> usize {
            match d {
                Dim::V => v,
                Dim::F => f,
                Dim::G => g,
                Dim::N => 1,
            }
        };
        let tile = |d: Dim| -> usize { tiling.tile_of(d).min(extent(d)) };
        let ntiles = |d: Dim| -> usize { extent(d).div_ceil(tile(d)) };
        let order = tiling.order();
        let t_red = tile(Dim::F);
        let pos_r = order.position(Dim::F).expect("F is a Combination dim");
        let n_red = ntiles(Dim::F) as u64;
        let pos_g = order.position(Dim::G).expect("G is a Combination dim");
        // Partial-sum placement: the live psums of one accumulation round are
        // the temporal revisits of the output dims inner to the reduction
        // position, *shared across the T_F PEs of each spatial reduction group*
        // — which is why SP1/SP2 (large T_F) keep psums in the RFs while
        // SPhighV (T_F = 1) spills (Section V-D). One RF word is pinned by the
        // stationary operand (there is always exactly one operand not indexed
        // by the innermost loop dimension).
        let out_revisits: u64 = [Dim::V, Dim::G]
            .iter()
            .filter(|&&d| order.position(d).expect("output dim present") > pos_r)
            .map(|&d| ntiles(d) as u64)
            .product();
        let spill = SpillModel::new(cfg, out_revisits, t_red, pos_r < 2);
        GemmLeaf { dims, tiling, t_red, pos_r, n_red, pos_g, spill }
    }
}

impl PhaseEngine for GemmLeaf<'_> {
    fn is_empty(&self) -> bool {
        self.dims.v == 0 || self.dims.f == 0 || self.dims.g == 0
    }

    fn reduction_lanes(&self) -> usize {
        self.t_red
    }

    fn pe_footprint(&self) -> usize {
        self.tiling.pe_footprint()
    }

    fn chunk_total(&self, side: ChunkSide) -> u64 {
        match side {
            // Output of this phase is the intermediate (CA).
            ChunkSide::Produce => (self.dims.v as u64) * (self.dims.g as u64),
            // The A input is the intermediate (AC).
            ChunkSide::Consume => (self.dims.v as u64) * (self.dims.f as u64),
        }
    }

    fn footprint(&self, opts: &EngineOptions) -> Footprint {
        if self.is_empty() {
            return Footprint::default();
        }
        let GemmDims { v, f, g } = self.dims;
        let tile = |d: Dim, extent: usize| self.tiling.tile_of(d).min(extent) as u64;
        let (tv, tf, tg) = (tile(Dim::V, v), tile(Dim::F, f), tile(Dim::G, g));
        // GB stages one pass's operand tiles: the weight tile always, the A
        // and output tiles unless a residency flag keeps them in the RFs.
        let mut gb = tf * tg;
        if !opts.input_resident {
            gb += tv * tf;
        }
        if !opts.output_stays_local {
            gb += tv * tg;
        }
        // Residency pins hold the *whole* matrix in the RFs across the phase.
        let mut pins = 0u64;
        if opts.input_resident {
            pins += v as u64 * f as u64;
        }
        if opts.output_stays_local {
            pins += v as u64 * g as u64;
        }
        Footprint::new(self.spill.live(), pins, self.pe_footprint(), gb)
    }

    fn walk(&self, w: &mut PhaseWalk) {
        let GemmDims { v, f, g } = self.dims;
        let extent = |d: Dim| -> usize {
            match d {
                Dim::V => v,
                Dim::F => f,
                Dim::G => g,
                Dim::N => 1,
            }
        };
        let tile = |d: Dim| -> usize { self.tiling.tile_of(d).min(extent(d)) };
        let ntiles = |d: Dim| -> usize { extent(d).div_ceil(tile(d)) };
        let order = self.tiling.order();
        let [d0, d1, d2] = order.dims();
        let (n0, n1, n2) = (ntiles(d0), ntiles(d1), ntiles(d2));
        let e2 = extent(d2) as u64;

        // Operand dimension sets.
        let a_dims = [Dim::V, Dim::F];
        let b_dims = [Dim::F, Dim::G];

        // Pass costs are uniform in each loop index except at the first
        // iteration (stationary reloads), the last (remainder tile, final
        // reduction step), and the reduction-index boundaries — so both loops
        // collapse into ≤ 3 classes each, every class evaluated once with its
        // multiplicity. With chunk timestamps requested the outer loop must
        // still walk pass order, so only the inner loop is batched (the
        // timeline within a batch is reconstructed exactly by
        // `ChunkTracker::advance_repeat`) — unless the middle loop has one
        // tile: then each outer iteration is a single pass, and the outer
        // classes are runs of consecutive identical passes.
        let i0_classes: Vec<(usize, u64)> = if w.has_chunks() && n1 > 1 {
            (0..n0).map(|i| (i, 1)).collect()
        } else {
            loop_classes(n0)
        };
        let i1_classes = loop_classes(n1);
        for &(i0, m0) in &i0_classes {
            let a0 = actual_tile(extent(d0), tile(d0), i0) as u64;
            for &(i1, m1) in &i1_classes {
                let m = m0 * m1;
                let a1 = actual_tile(extent(d1), tile(d1), i1) as u64;
                // Coverage of a dimension within this pass.
                let cover = |d: Dim| -> u64 {
                    if d == d0 {
                        a0
                    } else if d == d1 {
                        a1
                    } else {
                        e2
                    }
                };

                let mut gb_reads_pass: u64 = 0;
                let mut gb_writes_pass: u64 = 0;
                let mut preload_elems: u64 = 0;

                // --- input operands ---------------------------------------------
                for (dims2, class, is_a) in
                    [(a_dims, w.classes.a_input, true), (b_dims, w.classes.b_input, false)]
                {
                    let streaming = dims2.contains(&d2);
                    let elems: u64 = dims2.iter().map(|&d| cover(d)).product();
                    let lacking: Dim = *[Dim::V, Dim::F, Dim::G]
                        .iter()
                        .find(|&&d| !dims2.contains(&d))
                        .expect("each operand lacks one dim");
                    let copies = tile(lacking) as u64;
                    let resident = is_a && w.opts.input_resident;
                    let fetch = if streaming {
                        // Re-fetched every pass.
                        true
                    } else {
                        // Stationary: reload when its indices change — every pass
                        // if indexed by the middle loop, else once per outer
                        // iteration.
                        dims2.contains(&d1) || i1 == 0
                    };
                    if fetch {
                        if resident {
                            // Already in the RFs: only the per-use RF reads
                            // (counted with the MACs) apply.
                        } else {
                            w.counters.read(class, elems * m);
                            if streaming {
                                gb_reads_pass += elems;
                            } else {
                                // Stationary tiles are pinned before streaming
                                // starts — the serial t_load of Table III.
                                preload_elems += elems;
                            }
                            w.counters.rf_writes += elems * copies * m;
                        }
                    }
                }

                // --- compute ----------------------------------------------------
                let macs_pass = a0 * a1 * e2;
                w.macs += macs_pass * m;
                w.counters.rf_reads += 2 * macs_pass * m;

                // --- outputs & partial sums -------------------------------------
                let mut produced_this_pass: u64 = 0;
                if self.pos_r == 2 {
                    // Reduction innermost: the pass completes its output tile.
                    let out_elems = a0 * a1;
                    let updates = macs_pass / self.t_red.max(1) as u64;
                    w.counters.rf_reads += updates * m;
                    w.counters.rf_writes += updates * m;
                    if w.opts.output_stays_local {
                        w.counters.rf_writes += out_elems * m;
                    } else {
                        w.counters.write(w.classes.output, out_elems * m);
                        gb_writes_pass += out_elems;
                    }
                    produced_this_pass = out_elems;
                } else {
                    // Reduction at an outer position: outputs touched this pass
                    // are revisited across the reduction tiles.
                    let touched: u64 = [Dim::V, Dim::G].iter().map(|&d| cover(d)).product();
                    let red_idx = if self.pos_r == 0 { i0 as u64 } else { i1 as u64 };
                    if self.spill.spill {
                        w.spilled = true;
                        let spilled = self.spill.scale(touched);
                        if red_idx > 0 {
                            w.counters.read(crate::OperandClass::Psum, spilled * m);
                            gb_reads_pass += spilled;
                        }
                        if red_idx < self.n_red - 1 {
                            w.counters.write(crate::OperandClass::Psum, spilled * m);
                            gb_writes_pass += spilled;
                        }
                    } else {
                        let updates = macs_pass / self.t_red.max(1) as u64;
                        w.counters.rf_reads += updates * m;
                        w.counters.rf_writes += updates * m;
                    }
                    if red_idx == self.n_red - 1 {
                        if w.opts.output_stays_local {
                            w.counters.rf_writes += touched * m;
                        } else {
                            w.counters.write(w.classes.output, touched * m);
                            gb_writes_pass += touched;
                        }
                        produced_this_pass = touched;
                    }
                }

                // --- consume-side chunk stream ----------------------------------
                // A's elements whose processing completes this pass: the A tile
                // itself when G is innermost; the (d0, d2) A-tile on the last
                // middle iteration when G is the middle loop; nothing per pass
                // when G is outermost (the whole intermediate stays needed —
                // marks land at finish).
                let consumed_this_pass = match self.pos_g {
                    2 => a0 * a1,
                    1 if i1 == n1 - 1 => a0 * e2,
                    _ => 0,
                };

                w.run_pass(
                    n2 as u64,
                    gb_reads_pass,
                    gb_writes_pass,
                    preload_elems,
                    produced_this_pass,
                    consumed_this_pass,
                    m,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BandwidthShare, OperandClass};
    use omega_dataflow::LoopOrder;

    fn tiling(order: &str, tiles: [usize; 3]) -> IntraTiling {
        let d: Vec<Dim> = order.chars().map(|c| Dim::from_letter(c).unwrap()).collect();
        IntraTiling::new(
            Phase::Combination,
            LoopOrder::new(Phase::Combination, [d[0], d[1], d[2]]).unwrap(),
            tiles,
        )
    }

    fn run(dims: GemmDims, t: &IntraTiling) -> PhaseStats {
        let cfg = AccelConfig::paper_default();
        simulate_gemm(dims, t, &cfg, &OperandClasses::combination_ac(), &EngineOptions::plain(cfg.full_bandwidth()))
    }

    #[test]
    fn mac_count_is_exact() {
        let dims = GemmDims { v: 10, f: 7, g: 5 };
        for (order, tiles) in [("VGF", [2, 2, 1]), ("VFG", [4, 2, 1]), ("GFV", [2, 2, 4]), ("FGV", [3, 2, 4])] {
            let s = run(dims, &tiling(order, tiles));
            assert_eq!(s.macs, 10 * 7 * 5, "{order}");
        }
    }

    #[test]
    fn output_stationary_writes_each_output_once() {
        let dims = GemmDims { v: 8, f: 16, g: 4 };
        let s = run(dims, &tiling("VGF", [4, 4, 1]));
        assert_eq!(s.counters.gb_writes[OperandClass::Output.idx()], 8 * 4);
        assert_eq!(s.counters.gb_of(OperandClass::Psum), 0);
        assert!(!s.psum_spilled);
    }

    #[test]
    fn streaming_inputs_are_refetched_per_g_tile() {
        // VFG with small RF-friendly G: the A matrix is stationary per (v,f) tile,
        // weights stream; weight reads = F*G per (v,f) tile pass... total = nv*nf*F_t*G.
        let dims = GemmDims { v: 4, f: 4, g: 8 };
        let s = run(dims, &tiling("VFG", [2, 2, 1]));
        // A reads: stationary per pass, reloaded every pass (indexed by d1=F):
        // nv*nf passes × 2*2 elements = 4 passes × 4 = 16 = V*F once each.
        assert_eq!(s.counters.gb_reads[OperandClass::Intermediate.idx()], 16);
        // B (weights) streams: per pass tf × G = 2*8 = 16, × 4 passes = 64.
        assert_eq!(s.counters.gb_reads[OperandClass::Weight.idx()], 64);
    }

    #[test]
    fn cycles_scale_inversely_with_parallelism() {
        let dims = GemmDims { v: 64, f: 64, g: 16 };
        let small = run(dims, &tiling("VGF", [4, 4, 1]));
        let large = run(dims, &tiling("VGF", [16, 16, 1]));
        assert!(large.cycles * 8 < small.cycles * 9, "{} vs {}", large.cycles, small.cycles);
    }

    #[test]
    fn psum_spill_when_reduction_outer_and_rf_small() {
        // VFG with 64 G-revisits shared over T_F = 2 → 32 live psums per PE;
        // 13 fit the RF, the other 19/32 of the traffic spills.
        let dims = GemmDims { v: 8, f: 32, g: 64 };
        let s = run(dims, &tiling("VFG", [4, 2, 1]));
        assert!(s.psum_spilled);
        let nf: u64 = 16; // 32 / 2
        let touched_per_pass: u64 = 4 * 64; // T_V × G
        let spilled_per_pass = touched_per_pass * (32 - 13) / 32;
        // Writes on every non-final f-tile: 2 v-tiles × (nf-1) f-tiles.
        assert_eq!(
            s.counters.gb_writes[OperandClass::Psum.idx()],
            2 * (nf - 1) * spilled_per_pass
        );
        assert_eq!(
            s.counters.gb_reads[OperandClass::Psum.idx()],
            2 * (nf - 1) * spilled_per_pass
        );
        // Final outputs written exactly once.
        assert_eq!(s.counters.gb_writes[OperandClass::Output.idx()], 8 * 64);
    }

    #[test]
    fn no_spill_when_revisits_fit_rf() {
        // G revisits = 8 ≤ 13 → RF accumulation, no psum traffic.
        let dims = GemmDims { v: 8, f: 32, g: 8 };
        let s = run(dims, &tiling("VFG", [4, 2, 1]));
        assert!(!s.psum_spilled);
        assert_eq!(s.counters.gb_of(OperandClass::Psum), 0);
    }

    #[test]
    fn input_resident_removes_intermediate_reads() {
        let dims = GemmDims { v: 8, f: 8, g: 4 };
        let t = tiling("VFG", [4, 4, 1]);
        let cfg = AccelConfig::paper_default();
        let mut opts = EngineOptions::plain(cfg.full_bandwidth());
        opts.input_resident = true;
        let s = simulate_gemm(dims, &t, &cfg, &OperandClasses::combination_ac(), &opts);
        assert_eq!(s.counters.gb_reads[OperandClass::Intermediate.idx()], 0);
        // Weights still stream.
        assert!(s.counters.gb_reads[OperandClass::Weight.idx()] > 0);
    }

    #[test]
    fn bandwidth_throttling_adds_stalls() {
        let dims = GemmDims { v: 32, f: 64, g: 16 };
        let t = tiling("VGF", [16, 16, 1]);
        let cfg = AccelConfig::paper_default();
        let fast = simulate_gemm(dims, &t, &cfg, &OperandClasses::combination_ac(),
            &EngineOptions::plain(BandwidthShare { dist: 512, red: 512 }));
        let slow = simulate_gemm(dims, &t, &cfg, &OperandClasses::combination_ac(),
            &EngineOptions::plain(BandwidthShare { dist: 16, red: 16 }));
        assert!(slow.cycles > fast.cycles);
        assert!(slow.stall_cycles > fast.stall_cycles);
    }

    #[test]
    fn consume_chunks_cover_intermediate() {
        let dims = GemmDims { v: 16, f: 8, g: 4 };
        let t = tiling("VGF", [4, 4, 1]);
        let cfg = AccelConfig::paper_default();
        let mut opts = EngineOptions::plain(cfg.full_bandwidth());
        // Row chunks of 4 rows: Pel = 4 * F = 32; V*F = 128 → 4 chunks.
        opts.chunk = Some(crate::engine::ChunkSpec { side: ChunkSide::Consume, pel: 32 });
        let s = simulate_gemm(dims, &t, &cfg, &OperandClasses::combination_ac(), &opts);
        assert_eq!(s.chunk_marks.len(), 4);
        assert_eq!(*s.chunk_marks.last().unwrap(), s.cycles);
        assert!(s.chunk_marks.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn produce_chunks_cover_output() {
        // CA-style: Combination produces the intermediate (V×G).
        let dims = GemmDims { v: 16, f: 8, g: 4 };
        let t = tiling("VGF", [4, 4, 1]);
        let cfg = AccelConfig::paper_default();
        let mut opts = EngineOptions::plain(cfg.full_bandwidth());
        opts.chunk = Some(crate::engine::ChunkSpec { side: ChunkSide::Produce, pel: 16 });
        let s = simulate_gemm(dims, &t, &cfg, &OperandClasses::combination_ca(), &opts);
        assert_eq!(s.chunk_marks.len(), 4); // V*G / 16
        assert_eq!(*s.chunk_marks.last().unwrap(), s.cycles);
    }

    #[test]
    fn zero_dims_produce_zero_stats() {
        let t = tiling("VGF", [1, 1, 1]);
        let s = run(GemmDims { v: 0, f: 4, g: 4 }, &t);
        assert_eq!(s.cycles, 0);
        assert_eq!(s.macs, 0);
    }

    #[test]
    fn tile_larger_than_extent_is_clamped() {
        let dims = GemmDims { v: 3, f: 2, g: 2 };
        let s = run(dims, &tiling("VGF", [512, 16, 1]));
        assert_eq!(s.macs, 12);
        assert!(s.cycles > 0);
    }

    #[test]
    fn prepared_variant_matches_unprepared() {
        let dims = GemmDims { v: 12, f: 9, g: 7 };
        let prep = PreparedGemm::new(dims);
        let cfg = AccelConfig::paper_default();
        let t = tiling("VFG", [4, 2, 1]);
        let mut opts = EngineOptions::plain(cfg.full_bandwidth());
        opts.chunk = Some(crate::engine::ChunkSpec { side: ChunkSide::Produce, pel: 11 });
        let a = simulate_gemm(dims, &t, &cfg, &OperandClasses::combination_ca(), &opts);
        let (b, timeline) =
            simulate_gemm_prepared(&prep, &t, &cfg, &OperandClasses::combination_ca(), &opts);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.counters, b.counters);
        assert!(b.chunk_marks.is_empty());
        assert_eq!(a.chunk_marks, timeline.marks().collect::<Vec<_>>());
    }
}
