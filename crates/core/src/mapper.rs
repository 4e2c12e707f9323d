//! A mapping optimizer over the dataflow design space (Section VI).
//!
//! The paper positions OMEGA as the cost model a future mapper would search
//! with; this module is that mapper: candidate generation (Table V presets, or
//! deterministic samples of the full 6,656-pattern space concretised by the
//! tile chooser) plus [`rank`], which orders an explicit candidate list under
//! a runtime / energy / EDP objective.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use omega_accel::AccelConfig;
use omega_dataflow::enumerate::PatternSpace;
use omega_dataflow::presets::Preset;
use omega_dataflow::{GnnDataflow, IntraTiling, Phase};

use crate::dse::{key_cmp, RankedDataflow};
use crate::{evaluate, CostReport, GnnWorkload, PhaseSimCache, PreparedEval};

/// What the mapper minimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize, Serialize)]
pub enum Objective {
    /// Total cycles.
    Runtime,
    /// Total on-chip buffer energy.
    Energy,
    /// Energy-delay product.
    Edp,
}

impl Objective {
    /// The objective value of a report (lower is better).
    pub fn score(self, r: &CostReport) -> f64 {
        match self {
            Objective::Runtime => r.total_cycles as f64,
            Objective::Energy => r.energy.total_pj(),
            Objective::Edp => r.edp(),
        }
    }

    /// The objective value of a whole-chain report (lower is better) — the
    /// model-level analogue of [`Self::score`], used by
    /// [`crate::dse::model::explore_model`].
    pub fn score_chain(self, r: &crate::multiphase::ChainReport) -> f64 {
        match self {
            Objective::Runtime => r.total_cycles as f64,
            Objective::Energy => r.energy.total_pj(),
            Objective::Edp => r.total_cycles as f64 * r.energy.total_pj(),
        }
    }
}

/// A tile-refinement result ([`refine_tiles`]): the dataflow and its
/// evaluation.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Winning dataflow.
    pub dataflow: GnnDataflow,
    /// Its cost report.
    pub report: CostReport,
    /// Objective value.
    pub score: f64,
    /// Number of candidates actually evaluated (successful `evaluate` calls).
    pub evaluated: usize,
    /// Candidates rejected by dataflow validation (never evaluated).
    pub skipped: usize,
}

/// Concretises `preset` for `workload` on `cfg`, with the PE budgets of
/// [`omega_dataflow::InterPhase::pe_budgets`] (PP split 50-50).
pub fn concretize_preset(preset: &Preset, workload: &GnnWorkload, cfg: &AccelConfig) -> GnnDataflow {
    let ctx = workload.tile_context(preset.pattern.phase_order);
    let (agg_pes, cmb_pes) = preset.pattern.inter.pe_budgets(cfg.num_pes);
    preset.concretize(&ctx, agg_pes, cmb_pes)
}

/// The nine Table V presets concretised for this workload (PP split 50-50).
pub fn preset_candidates(workload: &GnnWorkload, cfg: &AccelConfig) -> Vec<GnnDataflow> {
    Preset::all().iter().map(|p| concretize_preset(p, workload, cfg)).collect()
}

/// Deterministic sample of up to `n` candidates from the full enumerated
/// pattern space, concretised with the balanced tile policy of
/// [`crate::dse::concretize_pattern`]. `offset` rotates the sample (stride
/// sampling keeps this reproducible without an RNG).
///
/// Guarantee: every returned dataflow comes from a *distinct* pattern — `n` is
/// capped at the space size, and the stride walk never revisits an index, so
/// the result has exactly `min(n, space)` entries (the historical behaviour
/// silently wrapped around and yielded duplicates when `n` exceeded the
/// space).
pub fn sampled_candidates(
    workload: &GnnWorkload,
    cfg: &AccelConfig,
    n: usize,
    offset: usize,
) -> Vec<GnnDataflow> {
    let space = PatternSpace::new();
    if space.is_empty() || n == 0 {
        return Vec::new();
    }
    let len = space.len();
    let n = n.min(len);
    let stride = (len / n).max(1);
    // With n capped the stride walk is collision-free: i·stride < n·⌊len/n⌋ ≤
    // len, so the offsets are distinct mod len. Debug builds keep the
    // distinctness guarantee loud instead of silently shrinking the result.
    debug_assert!(
        {
            let mut taken = vec![false; len];
            (0..n).all(|i| !std::mem::replace(&mut taken[(offset + i * stride) % len], true))
        },
        "stride sample revisited a pattern index (n={n}, stride={stride}, offset={offset})"
    );
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let idx = (offset + i * stride) % len;
        out.push(crate::dse::concretize_pattern(&space.get(idx), workload, cfg));
    }
    out
}

/// Ranks an explicit candidate list under `objective`, best first.
///
/// One [`PreparedEval`] and one [`PhaseSimCache`] serve the whole list, so
/// candidates sharing a phase configuration share its simulation. Invalid
/// candidates are dropped, and so is every repeat of a dataflow after its
/// first position. Ties break by list position, which over
/// [`crate::dse::sweep_candidates`] is [`crate::dse::explore`]'s tie-break
/// index. Each report is bit-identical to [`evaluate`]'s; `pattern_index` is
/// always `None`.
pub fn rank(
    candidates: &[GnnDataflow],
    workload: &GnnWorkload,
    cfg: &AccelConfig,
    objective: Objective,
) -> Vec<RankedDataflow> {
    let prep = PreparedEval::new(workload, cfg);
    let cache = PhaseSimCache::new();
    let mut seen = HashSet::new();
    let mut ranked: Vec<(usize, RankedDataflow)> = candidates
        .iter()
        .enumerate()
        .filter(|&(_, df)| seen.insert(*df))
        .filter_map(|(position, df)| {
            let report = prep.evaluate_with_cache(df, &cache).ok()?;
            let score = objective.score(&report);
            Some((position, RankedDataflow { dataflow: *df, report, score, pattern_index: None }))
        })
        .collect();
    ranked.sort_by(|(i, a), (j, b)| key_cmp((a.score, *i), (b.score, *j)));
    ranked.into_iter().map(|(_, r)| r).collect()
}

/// The Table V presets *plus* their CA-order companions (including AWB-GCN's
/// dataflow) — the candidate set that covers both compute orders. CA shrinks
/// aggregation work from `E×F` to `E×G`, so for wide-feature workloads the CA
/// members routinely win.
pub fn extended_candidates(workload: &GnnWorkload, cfg: &AccelConfig) -> Vec<GnnDataflow> {
    Preset::all()
        .iter()
        .chain(&omega_dataflow::presets::ca_variants())
        .map(|p| concretize_preset(p, workload, cfg))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_dataflow::{Dim, InterPhase};
    use omega_graph::DatasetSpec;

    fn wl() -> GnnWorkload {
        GnnWorkload::gcn_layer(&DatasetSpec::mutag().generate(4), 16)
    }

    #[test]
    fn preset_candidates_cover_table_v() {
        let cfg = AccelConfig::paper_default();
        let c = preset_candidates(&wl(), &cfg);
        assert_eq!(c.len(), 9);
    }

    #[test]
    fn sampled_candidates_are_deterministic_and_sized() {
        let cfg = AccelConfig::paper_default();
        let a = sampled_candidates(&wl(), &cfg, 20, 0);
        let b = sampled_candidates(&wl(), &cfg, 20, 0);
        assert_eq!(a.len(), 20);
        assert_eq!(a, b);
        let c = sampled_candidates(&wl(), &cfg, 20, 7);
        assert_ne!(a, c);
    }

    #[test]
    fn sampled_candidates_cap_at_the_space_without_duplicates() {
        use omega_dataflow::enumerate::design_space_size;
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        // Historically n > space wrapped the stride walk and yielded duplicate
        // patterns; now the result caps at the space size, all-distinct.
        let over = sampled_candidates(&workload, &cfg, design_space_size() + 500, 3);
        assert_eq!(over.len(), design_space_size());
        let distinct: std::collections::HashSet<String> =
            over.iter().map(|df| df.to_string()).collect();
        assert_eq!(distinct.len(), over.len());
    }

    #[test]
    fn rank_matches_cold_evaluate_sorted_by_score_then_position() {
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        let candidates = extended_candidates(&workload, &cfg);
        for objective in [Objective::Runtime, Objective::Energy, Objective::Edp] {
            let mut expected: Vec<(f64, usize, CostReport)> = candidates
                .iter()
                .enumerate()
                .map(|(i, df)| {
                    let r = evaluate(&workload, df, &cfg).unwrap();
                    (objective.score(&r), i, r)
                })
                .collect();
            expected.sort_by(|a, b| key_cmp((a.0, a.1), (b.0, b.1)));
            let ranked = rank(&candidates, &workload, &cfg, objective);
            assert_eq!(ranked.len(), candidates.len());
            for (r, (score, i, report)) in ranked.iter().zip(&expected) {
                assert_eq!(r.dataflow, candidates[*i]);
                assert_eq!(r.score.to_bits(), score.to_bits());
                assert_eq!(r.report.total_cycles, report.total_cycles);
                let energy = |r: &CostReport| r.energy.total_pj().to_bits();
                assert_eq!(energy(&r.report), energy(report));
                assert_eq!(r.report.agg.chunk_marks, report.agg.chunk_marks);
                assert_eq!(r.pattern_index, None);
            }
        }
    }

    #[test]
    fn rank_keeps_the_first_position_of_a_duplicate() {
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        // Two distinct dataflows with the same runtime: only their positions
        // order them.
        let sample = sampled_candidates(&workload, &cfg, 400, 0);
        let ranked = rank(&sample, &workload, &cfg, Objective::Runtime);
        let (a, b) = ranked
            .windows(2)
            .find(|w| w[0].score == w[1].score)
            .map(|w| (w[0].dataflow, w[1].dataflow))
            .expect("a runtime tie among the sampled patterns");
        for (first, second) in [(a, b), (b, a)] {
            let order: Vec<GnnDataflow> =
                rank(&[first, second, first], &workload, &cfg, Objective::Runtime)
                    .iter()
                    .map(|r| r.dataflow)
                    .collect();
            assert_eq!(order, [first, second]);
        }
    }

    #[test]
    fn rank_drops_invalid_candidates() {
        use omega_dataflow::{IntraTiling, LoopOrder, PhaseOrder};
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        let mut candidates = preset_candidates(&workload, &cfg);
        // A PP dataflow whose loop orders cannot pipeline fails validation and
        // is dropped from the ranking.
        let agg_order = LoopOrder::new(Phase::Aggregation, [Dim::N, Dim::V, Dim::F]).unwrap();
        let cmb_order = LoopOrder::new(Phase::Combination, [Dim::V, Dim::G, Dim::F]).unwrap();
        let invalid = GnnDataflow {
            inter: InterPhase::ParallelPipeline,
            phase_order: PhaseOrder::AC,
            agg: IntraTiling::new(Phase::Aggregation, agg_order, [1, 2, 2]),
            cmb: IntraTiling::new(Phase::Combination, cmb_order, [2, 2, 1]),
        };
        assert!(evaluate(&workload, &invalid, &cfg).is_err());
        candidates.insert(0, invalid);
        let ranked = rank(&candidates, &workload, &cfg, Objective::Runtime);
        assert_eq!(ranked.len(), 9);
        assert!(ranked.iter().all(|r| r.dataflow != invalid));
    }

    #[test]
    fn objectives_disagree_in_general() {
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        let candidates = preset_candidates(&workload, &cfg);
        let best = |objective| rank(&candidates, &workload, &cfg, objective).remove(0);
        let rt = best(Objective::Runtime);
        let en = best(Objective::Energy);
        let edp = best(Objective::Edp);
        // EDP winner can never beat the runtime winner on runtime or the energy
        // winner on energy.
        assert!(edp.report.total_cycles >= rt.report.total_cycles);
        assert!(edp.report.energy.total_pj() >= en.report.energy.total_pj() - 1e-9);
        // And the three winners are not all the same dataflow.
        assert!(rt.dataflow != en.dataflow || en.dataflow != edp.dataflow);
    }

    #[test]
    fn search_combines_sources() {
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        let mut candidates = extended_candidates(&workload, &cfg);
        candidates.extend(sampled_candidates(&workload, &cfg, 12, 0));
        // presets + CA variants + samples: all concretised candidates validate
        // and are distinct, so every one ranks.
        let ranked = rank(&candidates, &workload, &cfg, Objective::Runtime);
        assert_eq!(ranked.len(), 9 + 3 + 12);
        assert!(ranked[0].score > 0.0);
    }

    #[test]
    fn extended_candidates_cover_both_compute_orders() {
        use omega_dataflow::PhaseOrder;
        let cfg = AccelConfig::paper_default();
        let c = extended_candidates(&wl(), &cfg);
        assert_eq!(c.len(), 12);
        assert!(c.iter().any(|df| df.phase_order == PhaseOrder::CA));
        // On a wide-feature workload the CA members win the runtime ranking.
        let wide = GnnWorkload::gcn_layer(&DatasetSpec::collab().generate(2), 16);
        let wide_candidates = extended_candidates(&wide, &cfg);
        let best = &rank(&wide_candidates, &wide, &cfg, Objective::Runtime)[0];
        assert_eq!(best.dataflow.phase_order, PhaseOrder::CA, "{}", best.dataflow);
    }

    #[test]
    fn empty_candidates_yield_none() {
        let cfg = AccelConfig::paper_default();
        assert!(rank(&[], &wl(), &cfg, Objective::Runtime).is_empty());
    }
}

/// Local search over tile sizes around a concrete dataflow ("the tile sizes
/// (T_Dim) are also parameters which can put the actual number of possible
/// mappings in the trillions", Section III-C).
///
/// Hill climbing: each step tries doubling or halving one tile of one phase
/// (keeping the pattern's spatial/temporal constraints and the PE budgets),
/// keeps the best improving neighbour, and stops at a local optimum or after
/// `max_steps`. Returns the refined result (the input dataflow if no neighbour
/// improves).
pub fn refine_tiles(
    dataflow: &GnnDataflow,
    workload: &GnnWorkload,
    cfg: &AccelConfig,
    objective: Objective,
    max_steps: usize,
) -> Option<SearchResult> {
    let mut current = *dataflow;
    let mut report = evaluate(workload, &current, cfg).ok()?;
    let mut score = objective.score(&report);
    let mut evaluated = 1;
    let mut skipped = 0;

    for _ in 0..max_steps {
        let (agg_budget, cmb_budget) = current.inter.pe_budgets(cfg.num_pes);
        let mut best_neighbour: Option<(GnnDataflow, CostReport, f64)> = None;
        for (phase_sel, budget) in [(Phase::Aggregation, agg_budget), (Phase::Combination, cmb_budget)] {
            let tiling = if phase_sel == Phase::Aggregation { current.agg } else { current.cmb };
            for pos in 0..3 {
                for grow in [true, false] {
                    let Some(new_tiling) = scaled_tile(&tiling, pos, grow) else { continue };
                    if new_tiling.pe_footprint() > budget {
                        continue;
                    }
                    let candidate = if phase_sel == Phase::Aggregation {
                        GnnDataflow { agg: new_tiling, ..current }
                    } else {
                        GnnDataflow { cmb: new_tiling, ..current }
                    };
                    let Ok(r) = evaluate(workload, &candidate, cfg) else {
                        skipped += 1;
                        continue;
                    };
                    evaluated += 1;
                    let s = objective.score(&r);
                    if s < score
                        && best_neighbour.as_ref().is_none_or(|(_, _, bs)| s < *bs)
                    {
                        best_neighbour = Some((candidate, r, s));
                    }
                }
            }
        }
        match best_neighbour {
            Some((df, r, s)) => {
                current = df;
                report = r;
                score = s;
            }
            None => break, // local optimum
        }
    }
    Some(SearchResult { dataflow: current, report, score, evaluated, skipped })
}

/// Doubles or halves the tile at `pos`, returning `None` when out of range.
fn scaled_tile(tiling: &IntraTiling, pos: usize, grow: bool) -> Option<IntraTiling> {
    let mut tiles = *tiling.tiles();
    if grow {
        tiles[pos] = tiles[pos].checked_mul(2)?;
    } else {
        if tiles[pos] <= 1 {
            return None;
        }
        tiles[pos] /= 2;
    }
    Some(IntraTiling::new(tiling.phase(), tiling.order(), tiles))
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use omega_dataflow::{Dim, InterPhase};
    use omega_graph::DatasetSpec;

    fn wl() -> GnnWorkload {
        GnnWorkload::gcn_layer(&DatasetSpec::proteins().generate(2), 16)
    }

    #[test]
    fn refine_tiles_never_regresses() {
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        for df in preset_candidates(&workload, &cfg) {
            let base = evaluate(&workload, &df, &cfg).unwrap();
            let refined = refine_tiles(&df, &workload, &cfg, Objective::Runtime, 8).unwrap();
            assert!(
                refined.report.total_cycles <= base.total_cycles,
                "{df}: {} -> {}",
                base.total_cycles,
                refined.report.total_cycles
            );
            assert!(refined.evaluated >= 1);
        }
    }

    #[test]
    fn refine_tiles_improves_a_bad_start() {
        // Start from a deliberately under-parallelised Seq dataflow.
        use omega_dataflow::{LoopOrder};
        let cfg = AccelConfig::paper_default();
        let workload = wl();
        let agg = IntraTiling::new(
            Phase::Aggregation,
            LoopOrder::new(Phase::Aggregation, [Dim::V, Dim::F, Dim::N]).unwrap(),
            [2, 2, 1],
        );
        let cmb = IntraTiling::new(
            Phase::Combination,
            LoopOrder::new(Phase::Combination, [Dim::V, Dim::G, Dim::F]).unwrap(),
            [2, 2, 1],
        );
        let df = GnnDataflow {
            inter: InterPhase::Sequential,
            phase_order: omega_dataflow::PhaseOrder::AC,
            agg,
            cmb,
        };
        let base = evaluate(&workload, &df, &cfg).unwrap();
        let refined = refine_tiles(&df, &workload, &cfg, Objective::Runtime, 32).unwrap();
        assert!(
            (refined.report.total_cycles as f64) < 0.2 * base.total_cycles as f64,
            "{} -> {}",
            base.total_cycles,
            refined.report.total_cycles
        );
        // The refined tiling still fits the machine.
        assert!(refined.dataflow.agg.pe_footprint() <= cfg.num_pes);
        assert!(refined.dataflow.cmb.pe_footprint() <= cfg.num_pes);
    }
}
