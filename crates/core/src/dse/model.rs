//! Model-level inter-phase DSE: joint search over per-layer dataflows,
//! inter-layer pipelining, and PE partitioning for whole GNN chains.
//!
//! The layer-level explorer of [`crate::dse`] answers "what is the best
//! two-phase dataflow for *this* layer?"; this module answers the question the
//! paper's inter-phase analysis raises for whole models: **how should a
//! multi-layer GNN be mapped end-to-end** when every layer may want a different
//! intra-phase pattern (the F↔G asymmetry flips between layers), consecutive
//! layers may be pipelined instead of barrier-separated, and a pipelined pair
//! must split the PE array and NoC between producer and consumer (the paper's
//! PP strategy, Section IV-C, generalised across layer boundaries).
//!
//! The joint space for a model of `L` layers is the product of
//!
//! * per-layer candidates — the top-K winners of the layer-level exhaustive
//!   search (shared through the [`DseCache`], so repeated studies never
//!   re-search a layer shape), and
//! * per-link strategies — [`Link::Sequential`] or a partitioned
//!   [`Link::Pipelined`] over a small `Pel` ladder derived from the producing
//!   layer's output size and a ladder of PE splits.
//!
//! The product is enumerated with O(1) mixed-radix indexing and scored in
//! index-ordered `par_map` chunks that fold, in order, into one top-K and one
//! Pareto frontier; uniform Table V preset chains are seeded so the reported
//! optimum is never worse than any fixed-preset accelerator.

use std::time::Instant;

use serde::Serialize;

use omega_accel::engine::PreparedSpmm;
use omega_accel::AccelConfig;
use omega_dataflow::presets::Preset;
use omega_dataflow::GnnDataflow;

use super::{par_map, CancelToken, DseCache, DseOptions, Entry, ParetoFront, TopK, WAVE};
use crate::mapper::Objective;
use crate::models::{lower_layers, to_chain, uniform_dataflows, GnnModel, ModelError};
use crate::multiphase::{evaluate_chain, evaluate_chain_with, ChainReport, Link, PartitionSplit};
use crate::GnnWorkload;

/// Tuning knobs of a model-level exploration.
#[derive(Debug, Clone, Serialize)]
pub struct ModelDseOptions {
    /// What to minimise (end-to-end over the whole chain).
    pub objective: Objective,
    /// Worker threads (clamped to ≥ 1).
    pub threads: usize,
    /// How many ranked model mappings to keep.
    pub top_k: usize,
    /// Layer-level winners fed into the joint search, per layer.
    pub per_layer_k: usize,
    /// Rungs of the inter-layer `Pel` ladder (chunk sizes per pipelined link).
    pub pel_rungs: usize,
    /// Producer-side PE fractions tried for partitioned inter-layer links.
    pub split_fractions: Vec<f64>,
    /// Lower-bound pruning in the per-layer exhaustive searches
    /// ([`DseOptions::prune`]; ranked-output-neutral).
    pub prune: bool,
    /// Also maintain the (runtime, energy, buffer-footprint) Pareto frontier
    /// over the joint space. The per-layer searches run in Pareto mode too —
    /// their frontiers feed footprint-diverse layer candidates into the joint
    /// space — and [`ModelExploreOutcome::frontier`] is filled. The scalar
    /// ranked list is unaffected (the joint sweep never prunes).
    pub pareto: bool,
}

impl Default for ModelDseOptions {
    fn default() -> Self {
        ModelDseOptions {
            objective: Objective::Runtime,
            threads: 4,
            top_k: 5,
            per_layer_k: 4,
            pel_rungs: 3,
            split_fractions: vec![0.25, 0.5, 0.75],
            prune: true,
            pareto: false,
        }
    }
}

impl ModelDseOptions {
    /// Default options for `objective`.
    pub fn new(objective: Objective) -> Self {
        ModelDseOptions { objective, ..Default::default() }
    }
}

/// One point of the joint model space: a dataflow per layer plus an
/// inter-layer link per layer boundary.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModelMapping {
    /// Concrete dataflow of each layer, in layer order.
    pub layer_dataflows: Vec<GnnDataflow>,
    /// Inter-layer links (`layers - 1` entries).
    pub links: Vec<Link>,
}

impl ModelMapping {
    /// Pipelined inter-layer links in this mapping.
    pub fn pipelined_inter_links(&self) -> usize {
        self.links.iter().filter(|l| l.is_pipelined()).count()
    }

    /// `true` when any layer pipelines internally (SP/PP) or any inter-layer
    /// link is pipelined.
    pub fn is_pipelined(&self) -> bool {
        self.pipelined_inter_links() > 0
            || self
                .layer_dataflows
                .iter()
                .any(|df| df.inter != omega_dataflow::InterPhase::Sequential)
    }
}

impl std::fmt::Display for ModelMapping {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, df) in self.layer_dataflows.iter().enumerate() {
            if i > 0 {
                match self.links[i - 1] {
                    Link::Sequential => write!(f, " ⇒ ")?,
                    Link::Pipelined { pel, split: None } => write!(f, " ∥{pel}⇒ ")?,
                    Link::Pipelined { pel, split: Some(s) } => {
                        write!(f, " ∥{pel}@{}/{}⇒ ", s.producer_pes, s.consumer_pes)?
                    }
                }
            }
            write!(f, "{df}")?;
        }
        Ok(())
    }
}

/// The enumerable joint space: per-layer candidate lists × per-link options,
/// indexed mixed-radix in O(1) — never materialised.
#[derive(Debug, Clone)]
pub struct ModelSpace {
    /// Candidate dataflows per layer.
    pub layer_candidates: Vec<Vec<GnnDataflow>>,
    /// Link options per layer boundary.
    pub link_options: Vec<Vec<Link>>,
}

impl ModelSpace {
    /// Total number of joint mappings.
    pub fn len(&self) -> usize {
        self.layer_candidates
            .iter()
            .map(Vec::len)
            .chain(self.link_options.iter().map(Vec::len))
            .fold(1usize, |a, b| a.saturating_mul(b))
    }

    /// `true` when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.layer_candidates.iter().any(Vec::is_empty)
            || self.link_options.iter().any(Vec::is_empty)
    }

    /// Mapping `i` of the space (layers are the least-significant digits).
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn mapping(&self, mut i: usize) -> ModelMapping {
        let mut layer_dataflows = Vec::with_capacity(self.layer_candidates.len());
        for cands in &self.layer_candidates {
            layer_dataflows.push(cands[i % cands.len()]);
            i /= cands.len();
        }
        let mut links = Vec::with_capacity(self.link_options.len());
        for opts in &self.link_options {
            links.push(opts[i % opts.len()]);
            i /= opts.len();
        }
        assert_eq!(i, 0, "mapping index out of range");
        ModelMapping { layer_dataflows, links }
    }
}

/// One ranked model-level winner.
#[derive(Debug, Clone, Serialize)]
pub struct RankedModelMapping {
    /// The joint mapping.
    pub mapping: ModelMapping,
    /// Its chain evaluation (chunk timelines stripped).
    pub report: ChainReport,
    /// Objective value (lower is better).
    pub score: f64,
    /// Index in the joint enumeration (`None` for uniform-preset seeds).
    pub index: Option<usize>,
}

/// The best uniform (one Table V preset for every layer, sequential between
/// layers) chain — what a fixed-dataflow accelerator achieves on the model.
#[derive(Debug, Clone, Serialize)]
pub struct UniformBaseline {
    /// Preset name.
    pub preset: String,
    /// End-to-end cycles of the uniform chain.
    pub total_cycles: u64,
    /// Objective value.
    pub score: f64,
}

/// One point of a model-level (runtime, energy, buffer-footprint) Pareto
/// frontier: no other evaluated chain mapping is at least as good on every
/// axis and strictly better on one.
#[derive(Debug, Clone, Serialize)]
pub struct ModelParetoPoint {
    /// The joint mapping.
    pub mapping: ModelMapping,
    /// Its chain evaluation (chunk timelines stripped).
    pub report: ChainReport,
    /// Runtime axis (end-to-end cycles).
    pub runtime_cycles: u64,
    /// Energy axis (total pJ).
    pub energy_pj: f64,
    /// Buffer-footprint axis (peak on-chip working set, bytes).
    pub buffer_peak_bytes: u64,
    /// Index in the joint enumeration (`None` for uniform-preset seeds).
    pub index: Option<usize>,
}

/// The result of one model-level exploration.
#[derive(Debug, Clone, Serialize)]
pub struct ModelExploreOutcome {
    /// Model name.
    pub model: String,
    /// Base workload (dataset) name.
    pub workload: String,
    /// Winners, best first, deduplicated by mapping (≤ `top_k`).
    pub ranked: Vec<RankedModelMapping>,
    /// The chain-level Pareto frontier in runtime order, when
    /// [`ModelDseOptions::pareto`] is set (empty otherwise).
    pub frontier: Vec<ModelParetoPoint>,
    /// Size of the joint space.
    pub space: usize,
    /// Candidates per layer.
    pub layer_candidates: Vec<usize>,
    /// Link options per layer boundary.
    pub link_options: Vec<usize>,
    /// Successful chain evaluations (space + uniform seeds).
    pub evaluated: usize,
    /// Mappings rejected as structurally infeasible (e.g. a stage pipelined on
    /// both sides, or a partition too small for its tiling).
    pub skipped: usize,
    /// Uniform preset chains seeded.
    pub seeded: usize,
    /// Phase simulations the per-layer exhaustive searches actually ran
    /// (summed over the distinct layer shapes; repeated shapes served from the
    /// [`DseCache`] re-report their original search's counters).
    pub phase_sims: usize,
    /// Per-layer phase-simulation lookups the layer sweeps answered from
    /// their memoised phase results instead of re-running an engine (summed
    /// like [`Self::phase_sims`]).
    pub phase_cache_hits: usize,
    /// The best uniform Table V preset applied to every layer.
    pub uniform: Option<UniformBaseline>,
    /// Wall-clock of the whole exploration in milliseconds: the layer-level
    /// searches the [`DseCache`] missed, the joint sweep and the uniform
    /// seeds (cache hits cost only their lookup).
    pub elapsed_ms: f64,
    /// Worker threads used.
    pub threads: usize,
}

impl ModelExploreOutcome {
    /// The optimum, if any mapping evaluated successfully.
    pub fn best(&self) -> Option<&RankedModelMapping> {
        self.ranked.first()
    }

    /// Uniform-baseline objective score over winner score (≥ 1 when both
    /// exist, under *any* objective — uniform chains are seeded into the
    /// search): how much per-layer specialisation + pipelining saves
    /// end-to-end.
    pub fn model_gap(&self) -> Option<f64> {
        let best = self.best()?;
        let uniform = self.uniform.as_ref()?;
        (best.score > 0.0).then(|| uniform.score / best.score)
    }
}

/// The `Pel` ladder for a producing layer handing `total` intermediate elements
/// downstream in rows of `row` elements: geometrically descending chunk sizes
/// (`total/4`, `total/16`, …), clamped to at least one output row, deduplicated.
pub fn pel_ladder(total: u64, row: u64, rungs: usize) -> Vec<u64> {
    let row = row.max(1);
    let mut out: Vec<u64> = Vec::with_capacity(rungs);
    for i in 0..rungs as u32 {
        // Saturate deep rungs to zero instead of overflowing the shift width.
        let shifted = total.checked_shr(2 * (i + 1)).unwrap_or(0);
        let pel = shifted.max(row);
        if !out.contains(&pel) {
            out.push(pel);
        }
    }
    out
}

/// Link options for one layer boundary: `Sequential`, plus a partitioned
/// `Pipelined` per (`Pel` rung × producer split fraction).
fn link_options(
    producer_elems: u64,
    row_elems: u64,
    cfg: &AccelConfig,
    opts: &ModelDseOptions,
) -> Vec<Link> {
    let mut out = vec![Link::Sequential];
    let splits: Vec<PartitionSplit> = opts
        .split_fractions
        .iter()
        .map(|&f| {
            let hi = cfg.num_pes.saturating_sub(1).max(1);
            let producer_pes = ((cfg.num_pes as f64 * f).round() as usize).clamp(1, hi);
            PartitionSplit { producer_pes, consumer_pes: (cfg.num_pes - producer_pes).max(1) }
        })
        .collect();
    for pel in pel_ladder(producer_elems, row_elems, opts.pel_rungs) {
        for &split in &splits {
            let link = Link::Pipelined { pel, split: Some(split) };
            if !out.contains(&link) {
                out.push(link);
            }
        }
    }
    out
}

/// The layer-level candidate list for one layer workload: the top winners of
/// the exhaustive per-layer search (via `cache`), filtered to the phase orders
/// the algorithm admits, topped up with the workload-tuned presets when the
/// filter bites, truncated to `per_layer_k`.
fn layer_candidate_list(
    model: &GnnModel,
    wl: &GnnWorkload,
    cfg: &AccelConfig,
    opts: &ModelDseOptions,
    cache: &DseCache,
) -> (Vec<GnnDataflow>, usize, usize) {
    let allowed = |df: &GnnDataflow| {
        model.algorithm.allowed_phase_orders().contains(&df.phase_order)
            && (wl.attention.is_none() || omega_dataflow::validate_sddmm(&df.agg).is_ok())
    };
    let layer_opts = DseOptions {
        objective: opts.objective,
        threads: opts.threads,
        top_k: opts.per_layer_k + 4, // headroom for the phase-order filter
        refine_steps: 0,
        // Pruning is ranked-output-neutral; turning it off gives the
        // unpruned arm the bit-identity tests compare against.
        prune: opts.prune,
        // Pareto model search draws layer candidates from the layer frontier
        // (ranked = frontier in runtime order there), so footprint-diverse
        // dataflows enter the joint space.
        pareto: opts.pareto,
    };
    let outcome = cache.explore(wl, cfg, &layer_opts);
    let mut cands: Vec<GnnDataflow> =
        outcome.ranked.iter().map(|r| r.dataflow).filter(allowed).collect();
    if cands.len() < opts.per_layer_k {
        for df in crate::mapper::extended_candidates(wl, cfg) {
            if allowed(&df) && !cands.contains(&df) {
                cands.push(df);
            }
        }
    }
    cands.truncate(opts.per_layer_k.max(1));
    (cands, outcome.phase_sims, outcome.phase_cache_hits)
}

/// Builds the joint model space for `model` on `base` — exposed so tests can
/// brute-force the exact space the parallel search streams over.
pub fn build_space(
    model: &GnnModel,
    base: &GnnWorkload,
    cfg: &AccelConfig,
    opts: &ModelDseOptions,
    cache: &DseCache,
) -> ModelSpace {
    build_space_with_stats(model, base, &model.layer_workloads(base), cfg, opts, cache).0
}

/// [`build_space`] over the layer workloads `wls`, plus the summed
/// `(phase_sims, phase_cache_hits)` of the distinct per-layer searches it
/// triggered.
fn build_space_with_stats(
    model: &GnnModel,
    base: &GnnWorkload,
    wls: &[GnnWorkload],
    cfg: &AccelConfig,
    opts: &ModelDseOptions,
    cache: &DseCache,
) -> (ModelSpace, usize, usize) {
    // Layers with the same (F, G) shape share one candidate search (the graph
    // is identical across layers, so shape determines the result).
    let mut by_shape: Vec<((usize, usize), Vec<GnnDataflow>)> = Vec::new();
    let mut layer_candidates = Vec::with_capacity(wls.len());
    let mut phase_sims = 0;
    let mut phase_cache_hits = 0;
    for wl in wls {
        let key = (wl.f, wl.g);
        let cands = match by_shape.iter().find(|(k, _)| *k == key) {
            Some((_, c)) => c.clone(),
            None => {
                let (c, sims, hits) = layer_candidate_list(model, wl, cfg, opts, cache);
                phase_sims += sims;
                phase_cache_hits += hits;
                by_shape.push((key, c.clone()));
                c
            }
        };
        layer_candidates.push(cands);
    }
    let link_options = (0..wls.len().saturating_sub(1))
        .map(|j| {
            let (elems, row) = model.layer_output_shape(base, j);
            link_options(elems, row, cfg, opts)
        })
        .collect();
    (ModelSpace { layer_candidates, link_options }, phase_sims, phase_cache_hits)
}

/// The Pareto axis vector of one evaluated chain: end-to-end cycles, total
/// energy (pJ), and the chain's composed working-set peak (bytes).
fn chain_axes(report: &ChainReport) -> [f64; 3] {
    [report.total_cycles as f64, report.energy.total_pj(), report.buffer_peak_bytes as f64]
}

/// Lowers and evaluates one joint mapping end-to-end, returning its objective
/// value and chain report.
pub fn evaluate_mapping(
    model: &GnnModel,
    base: &GnnWorkload,
    mapping: &ModelMapping,
    cfg: &AccelConfig,
    objective: Objective,
) -> Result<(f64, ChainReport), ModelError> {
    let chain = to_chain(model, base, &mapping.layer_dataflows, &mapping.links, cfg)?;
    let report = evaluate_chain(&chain, &base.degrees, cfg)?;
    Ok((objective.score_chain(&report), report))
}

/// Jointly explores per-layer dataflows × inter-layer links × PE partitions
/// for `model` on `base`.
///
/// Deterministic: the ranked result is independent of `threads`
/// (ties broken by enumeration index). Layer-level searches go through
/// `cache`, so repeated model studies over the same layer shapes never
/// re-search the 6,656-pattern space.
pub fn explore_model(
    model: &GnnModel,
    base: &GnnWorkload,
    cfg: &AccelConfig,
    opts: &ModelDseOptions,
    cache: &DseCache,
) -> ModelExploreOutcome {
    let t0 = Instant::now();
    let wls = model.layer_workloads(base);
    let (space, phase_sims, phase_cache_hits) =
        build_space_with_stats(model, base, &wls, cfg, opts, cache);
    let total = space.len();
    let threads = opts.threads.max(1);

    // Every mapping — joint or uniform seed — lowers the same layer
    // workloads and walks the same graph, prepared once and shared by the
    // workers. Winners don't need the per-chunk pipeline timelines; keep
    // retention memory bounded (re-evaluate a winner to recover them).
    let graph = PreparedSpmm::new(&base.degrees);
    let score_mapping = |m: &ModelMapping| -> Option<(f64, ChainReport)> {
        let chain = lower_layers(model, &wls, &m.layer_dataflows, &m.links, cfg).ok()?;
        let report = evaluate_chain_with(&chain, &graph, cfg, false).ok()?;
        Some((opts.objective.score_chain(&report), report))
    };
    // The joint sweep never prunes, so the Pareto frontier can ride along the
    // scalar search without affecting it: every evaluated chain is offered.
    let mut top = TopK::new(opts.top_k);
    let mut front = ParetoFront::new();
    let mut evaluated = 0;
    let mut offer = |index: usize, mapping: ModelMapping, score: f64, report: ChainReport| {
        evaluated += 1;
        if opts.pareto {
            front.offer(index, mapping.clone(), report.clone(), chain_axes(&report));
        }
        top.offer(Entry { score, index, candidate: mapping, report });
    };
    let mut skipped = 0;
    let never = CancelToken::new();
    for start in (0..total).step_by(WAVE) {
        let scored = par_map(WAVE.min(total - start), threads, &never, |i| {
            let mapping = space.mapping(start + i);
            score_mapping(&mapping).map(|(s, r)| (mapping, s, r))
        });
        for (i, scored) in scored.into_iter().enumerate() {
            match scored.expect("never cancelled") {
                Some((mapping, s, r)) => offer(start + i, mapping, s, r),
                None => skipped += 1,
            }
        }
    }

    // Seed the uniform Table V preset chains (one preset for every layer,
    // sequential between layers): the reported optimum can never lose to a
    // fixed-dataflow accelerator, and the best of them is the baseline the
    // model gap is measured against.
    let mut uniform: Option<UniformBaseline> = None;
    let mut seeded = 0;
    for (j, preset) in Preset::all().iter().enumerate() {
        let Ok(layer_dataflows) = uniform_dataflows(model, &wls, preset, cfg) else {
            continue;
        };
        let links = vec![Link::Sequential; layer_dataflows.len().saturating_sub(1)];
        let mapping = ModelMapping { layer_dataflows, links };
        if let Some((s, r)) = score_mapping(&mapping) {
            seeded += 1;
            if uniform.as_ref().is_none_or(|u| s < u.score) {
                uniform = Some(UniformBaseline {
                    preset: preset.name.to_string(),
                    total_cycles: r.total_cycles,
                    score: s,
                });
            }
            offer(total + j, mapping, s, r);
        }
    }

    let frontier: Vec<ModelParetoPoint> = front
        .into_sorted()
        .into_iter()
        .map(|(index, mapping, report, axes)| ModelParetoPoint {
            mapping,
            runtime_cycles: report.total_cycles,
            energy_pj: axes[1],
            buffer_peak_bytes: report.buffer_peak_bytes,
            report,
            index: (index < total).then_some(index),
        })
        .collect();
    // The top-K is in ascending (score, index) order, deduplicated by mapping.
    let ranked: Vec<RankedModelMapping> = top
        .entries
        .into_iter()
        .map(|e| RankedModelMapping {
            mapping: e.candidate,
            report: e.report,
            score: e.score,
            index: (e.index < total).then_some(e.index),
        })
        .collect();

    ModelExploreOutcome {
        model: model.name.clone(),
        workload: base.name.clone(),
        ranked,
        frontier,
        space: total,
        layer_candidates: space.layer_candidates.iter().map(Vec::len).collect(),
        link_options: space.link_options.iter().map(Vec::len).collect(),
        evaluated,
        skipped,
        seeded,
        phase_sims,
        phase_cache_hits,
        uniform,
        elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_graph::DatasetSpec;

    fn base() -> GnnWorkload {
        GnnWorkload::gcn_layer(&DatasetSpec::mutag().generate(4), 16)
    }

    fn quick_opts() -> ModelDseOptions {
        ModelDseOptions {
            threads: 2,
            top_k: 4,
            per_layer_k: 3,
            pel_rungs: 2,
            split_fractions: vec![0.25, 0.5],
            ..Default::default()
        }
    }

    #[test]
    fn pel_ladder_is_descending_row_clamped_and_deduped() {
        let l = pel_ladder(4096, 16, 3);
        assert_eq!(l, vec![1024, 256, 64]);
        // Clamping collapses small outputs onto one rung.
        assert_eq!(pel_ladder(64, 32, 3), vec![32]);
        assert_eq!(pel_ladder(0, 0, 2), vec![1]);
        // Deep ladders saturate instead of overflowing the u64 shift width.
        let deep = pel_ladder(u64::MAX, 8, 40);
        assert_eq!(deep.last(), Some(&8));
        assert!(deep.windows(2).all(|w| w[0] > w[1]), "{deep:?}");
    }

    #[test]
    fn space_indexing_is_a_bijection() {
        let cfg = AccelConfig::paper_default();
        let model = GnnModel::gcn_2layer(7);
        let cache = DseCache::new();
        let space = build_space(&model, &base(), &cfg, &quick_opts(), &cache);
        assert_eq!(space.layer_candidates.len(), 2);
        assert_eq!(space.link_options.len(), 1);
        assert_eq!(
            space.len(),
            space.layer_candidates[0].len()
                * space.layer_candidates[1].len()
                * space.link_options[0].len()
        );
        let mut seen = std::collections::HashSet::new();
        for i in 0..space.len() {
            let m = space.mapping(i);
            assert!(seen.insert(format!("{m}")), "duplicate mapping at {i}");
        }
        assert_eq!(seen.len(), space.len());
    }

    #[test]
    fn winner_is_never_worse_than_the_uniform_baseline() {
        let cfg = AccelConfig::paper_default();
        let model = GnnModel::gcn_2layer(7);
        let cache = DseCache::new();
        let out = explore_model(&model, &base(), &cfg, &quick_opts(), &cache);
        let best = out.best().expect("non-empty space");
        let uniform = out.uniform.as_ref().expect("presets evaluated");
        assert!(best.score <= uniform.score);
        assert!(out.model_gap().expect("both present") >= 1.0 - 1e-12);
        assert!(out.evaluated + out.skipped >= out.space);
        // Ranked ascending, deduplicated.
        for w in out.ranked.windows(2) {
            assert!(w[0].score <= w[1].score);
            assert!(w[0].mapping != w[1].mapping);
        }
    }

    #[test]
    fn activation_threads_through_the_model_search() {
        use omega_accel::engine::ElementwiseOp;
        let cfg = AccelConfig::paper_default();
        let cache = DseCache::new();
        let plain = explore_model(&GnnModel::gcn_2layer(7), &base(), &cfg, &quick_opts(), &cache);
        let model = GnnModel::gcn_2layer(7).with_activation(ElementwiseOp::Activation);
        let act = explore_model(&model, &base(), &cfg, &quick_opts(), &cache);
        let best = act.best().expect("non-empty space");
        // The winner's lowered chain carries one post stage per layer.
        let posts = best.report.stages.iter().filter(|(n, _)| n.ends_with(".post")).count();
        assert_eq!(posts, 2);
        // The activation suffix can only cost cycles on top of the same space.
        assert!(best.score >= plain.best().unwrap().score);
        // The post op keyed the layer-level searches separately: two shapes
        // each searched with and without it.
        assert_eq!(cache.searches(), 4);
        // The ranked result stays thread-invariant.
        let single = explore_model(
            &model,
            &base(),
            &cfg,
            &ModelDseOptions { threads: 1, ..quick_opts() },
            &cache,
        );
        let sb = single.best().unwrap();
        assert_eq!(sb.score, best.score);
        assert_eq!(format!("{}", sb.mapping), format!("{}", best.mapping));
    }

    #[test]
    fn pareto_model_search_is_thread_count_invariant() {
        let cfg = AccelConfig::paper_default();
        let model = GnnModel::gcn_2layer(7);
        let run = |threads: usize| {
            // A fresh cache, so the per-layer searches run at `threads` too.
            let opts = ModelDseOptions { threads, pareto: true, ..quick_opts() };
            let o = explore_model(&model, &base(), &cfg, &opts, &DseCache::new());
            let ranked =
                o.ranked.iter().map(|r| (format!("{}", r.mapping), r.score.to_bits(), r.index));
            let frontier = o.frontier.iter().map(|p| {
                let m = format!("{}", p.mapping);
                (m, p.runtime_cycles, p.energy_pj.to_bits(), p.buffer_peak_bytes, p.index)
            });
            let counters = (o.evaluated, o.skipped, o.phase_sims, o.phase_cache_hits);
            (counters, ranked.collect::<Vec<_>>(), frontier.collect::<Vec<_>>())
        };
        let one = run(1);
        assert!(!one.1.is_empty() && !one.2.is_empty());
        for threads in [2, 8] {
            assert_eq!(run(threads), one, "{threads} threads");
        }
    }

    #[test]
    fn sage_candidates_are_ac_only() {
        let cfg = AccelConfig::paper_default();
        let model = GnnModel::sage_2layer(16, 7);
        let cache = DseCache::new();
        let space = build_space(&model, &base(), &cfg, &quick_opts(), &cache);
        for cands in &space.layer_candidates {
            assert!(!cands.is_empty());
            assert!(cands
                .iter()
                .all(|df| df.phase_order == omega_dataflow::PhaseOrder::AC));
        }
    }

    #[test]
    fn identical_layer_shapes_share_one_search() {
        let cfg = AccelConfig::paper_default();
        // GIN layers 1.. all have (F, G) = (64, 64): one search serves them.
        let model = GnnModel::gin(3, 64);
        let wl = GnnWorkload::gcn_layer(&DatasetSpec::mutag().generate(4), 64);
        let cache = DseCache::new();
        let space = build_space(&model, &wl, &cfg, &quick_opts(), &cache);
        assert_eq!(space.layer_candidates.len(), 3);
        assert_eq!(space.layer_candidates[1], space.layer_candidates[2]);
        // Two shapes → two layer-level searches, not three.
        assert_eq!(cache.searches(), 2);
    }
}
