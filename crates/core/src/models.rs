//! Multi-layer GNN models: evaluating whole networks, not just one layer.
//!
//! Section II-A: "the main computation bottlenecks of various GNN algorithms like
//! GCN, GraphSage, GINConv can be broken down into two phases: Aggregation and
//! Combination. GCNs allow either phase to precede the other while some
//! algorithms like GraphSAGE perform Aggregation before Combination." This module
//! models those algorithms as layer stacks over one graph:
//!
//! * layer `ℓ` consumes the width produced by layer `ℓ−1` (the first layer
//!   consumes the dataset features), so the F↔G asymmetry — and with it the best
//!   dataflow — changes from layer to layer;
//! * the algorithm constrains the legal phase orders (GraphSAGE/GIN are AC-only);
//! * GIN's combination is a 2-layer MLP, adding a third (dense) phase per layer,
//!   which the evaluator costs as an extra GEMM stage.
//!
//! [`evaluate_model`] runs one preset across all layers (re-concretised per
//! layer); [`evaluate_model_mapped`] lets the mapper pick the best preset *per
//! layer* — the cross-layer face of the paper's flexibility argument.

use serde::Serialize;

use omega_accel::engine::{ElementwiseOp, GemmDims};
use omega_accel::AccelConfig;
use omega_dataflow::presets::Preset;
use omega_dataflow::tiles::{choose_tiling, TileContext};
use omega_dataflow::{GnnDataflow, InterPhase, PhaseOrder};

use crate::evaluate::{EvalPlan, PhaseKind};
use crate::mapper::{preset_candidates, rank, Objective};
use crate::multiphase::{evaluate_chain, Chain, ChainError, ChainNode, Link, PartitionSplit, Stage};
use crate::{evaluate, CostReport, EvalError, GnnWorkload};

/// The GNN algorithm, deciding phase-order legality and per-layer structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Algorithm {
    /// Graph Convolutional Network: either phase order is legal.
    Gcn,
    /// GraphSAGE (mean aggregator): Aggregation must precede Combination.
    GraphSage,
    /// GIN: Aggregation first, then a 2-layer MLP combination with the given
    /// hidden width.
    GinConv {
        /// Hidden width of the per-layer MLP.
        mlp_hidden: usize,
    },
    /// Graph Attention Network: every layer prepends an SDDMM scoring phase
    /// (per-edge `QKᵀ` dot products masked to the adjacency, plus an
    /// edge-wise softmax) before the attention-weighted Aggregation — three
    /// phases per layer, AC-only.
    Gat {
        /// Attention heads per layer (the feature width splits across them).
        heads: usize,
    },
}

impl Algorithm {
    /// Phase orders this algorithm admits (Section II-A; GAT scores on the
    /// input features, so Aggregation must follow the scoring).
    pub fn allowed_phase_orders(self) -> &'static [PhaseOrder] {
        match self {
            Algorithm::Gcn => &[PhaseOrder::AC, PhaseOrder::CA],
            Algorithm::GraphSage | Algorithm::GinConv { .. } | Algorithm::Gat { .. } => {
                &[PhaseOrder::AC]
            }
        }
    }

    /// The attention structure this algorithm gives every layer workload
    /// (`None` for the two-phase algorithms).
    pub fn attention(self) -> Option<crate::workload::AttentionSpec> {
        match self {
            Algorithm::Gat { heads } => Some(crate::workload::AttentionSpec::new(heads)),
            _ => None,
        }
    }
}

/// A GNN model: an algorithm plus the output width of each layer.
#[derive(Debug, Clone, Serialize)]
pub struct GnnModel {
    /// Model name (for reports).
    pub name: String,
    /// The algorithm.
    pub algorithm: Algorithm,
    /// Output feature width per layer (layer 0 consumes the dataset features).
    pub layer_widths: Vec<usize>,
    /// Elementwise post-phase (activation / LayerNorm) every layer applies to
    /// its output. `None` (the constructors' default) evaluates the classic
    /// matrix-phases-only model.
    pub activation: Option<ElementwiseOp>,
}

impl GnnModel {
    /// The standard 2-layer GCN (hidden 16, `num_classes` outputs) used by the
    /// Kipf & Welling citation benchmarks.
    pub fn gcn_2layer(num_classes: usize) -> Self {
        GnnModel {
            name: "GCN-2".into(),
            algorithm: Algorithm::Gcn,
            layer_widths: vec![16, num_classes],
            activation: None,
        }
    }

    /// A 2-layer GraphSAGE with the given hidden and output widths.
    pub fn sage_2layer(hidden: usize, num_classes: usize) -> Self {
        GnnModel {
            name: "GraphSAGE-2".into(),
            algorithm: Algorithm::GraphSage,
            layer_widths: vec![hidden, num_classes],
            activation: None,
        }
    }

    /// A GIN with `layers` identical layers of the given width (GIN papers use
    /// 5 layers of width 64 on the TU datasets).
    pub fn gin(layers: usize, width: usize) -> Self {
        GnnModel {
            name: format!("GIN-{layers}"),
            algorithm: Algorithm::GinConv { mlp_hidden: width },
            layer_widths: vec![width; layers],
            activation: None,
        }
    }

    /// The standard 2-layer GAT (Veličković et al. on the citation networks:
    /// `heads` heads over a hidden width of 64, one implicit output head of
    /// `num_classes`).
    pub fn gat_2layer(heads: usize, num_classes: usize) -> Self {
        GnnModel {
            name: "GAT-2".into(),
            algorithm: Algorithm::Gat { heads },
            layer_widths: vec![64, num_classes],
            activation: None,
        }
    }

    /// Same model with every layer followed by the given elementwise
    /// post-phase (ReLU-style activation or LayerNorm).
    pub fn with_activation(mut self, op: ElementwiseOp) -> Self {
        self.activation = Some(op);
        self
    }

    /// The per-layer workloads for a base (dataset) workload. GAT layers carry
    /// the algorithm's attention spec, which makes [`crate::evaluate`] prepend
    /// the SDDMM scoring phase.
    pub fn layer_workloads(&self, base: &GnnWorkload) -> Vec<GnnWorkload> {
        let mut f = base.f;
        let attention = self.algorithm.attention();
        self.layer_widths
            .iter()
            .enumerate()
            .map(|(i, &g)| {
                let wl = GnnWorkload {
                    name: format!("{}[L{}]", base.name, i),
                    f,
                    g,
                    attention,
                    post_op: self.activation,
                    ..base.clone()
                };
                f = g;
                wl
            })
            .collect()
    }
}

/// Evaluation of one model on one graph.
#[derive(Debug, Clone, Serialize)]
pub struct ModelReport {
    /// Per-layer reports, in layer order.
    pub layers: Vec<CostReport>,
    /// Extra MLP-GEMM cycles per layer (GIN only; zero otherwise).
    pub mlp_cycles: Vec<u64>,
    /// End-to-end cycles (layers are sequential: layer ℓ+1 needs all of ℓ).
    pub total_cycles: u64,
    /// Total buffer energy in pJ.
    pub total_energy_pj: f64,
}

/// Model-evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The chosen dataflow's phase order is illegal for the algorithm.
    PhaseOrderNotAllowed {
        /// The offending order.
        order: PhaseOrder,
    },
    /// A layer evaluation failed.
    Layer(EvalError),
    /// `to_chain` was given the wrong number of per-layer dataflows.
    LayerCountMismatch {
        /// Layers in the model.
        expected: usize,
        /// Dataflows supplied.
        got: usize,
    },
    /// `to_chain` was given the wrong number of inter-layer links.
    LinkCountMismatch {
        /// Links expected (`layers - 1`).
        expected: usize,
        /// Links supplied.
        got: usize,
    },
    /// The lowered chain is structurally invalid (e.g. a stage pipelined on
    /// both sides, or a partition too small for its stage's tiling).
    Chain(ChainError),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::PhaseOrderNotAllowed { order } => {
                write!(f, "phase order {order} is not legal for this algorithm (Section II-A)")
            }
            ModelError::Layer(e) => write!(f, "layer evaluation failed: {e}"),
            ModelError::LayerCountMismatch { expected, got } => {
                write!(f, "model has {expected} layers but {got} dataflows were supplied")
            }
            ModelError::LinkCountMismatch { expected, got } => {
                write!(f, "model needs {expected} inter-layer links but {got} were supplied")
            }
            ModelError::Chain(e) => write!(f, "chain evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for ModelError {}

impl From<ChainError> for ModelError {
    fn from(e: ChainError) -> Self {
        ModelError::Chain(e)
    }
}

/// Evaluates `model` on `base` using one Table V preset for every layer
/// (re-concretised per layer, since each layer's F/G differ).
pub fn evaluate_model(
    model: &GnnModel,
    base: &GnnWorkload,
    preset: &Preset,
    cfg: &AccelConfig,
) -> Result<ModelReport, ModelError> {
    let wls = model.layer_workloads(base);
    let dfs = uniform_dataflows(model, &wls, preset, cfg)?;
    let mut layers = Vec::new();
    let mut mlp_cycles = Vec::new();
    for (wl, df) in wls.iter().zip(&dfs) {
        let report = evaluate(wl, df, cfg).map_err(ModelError::Layer)?;
        mlp_cycles.push(mlp_cost(model, wl, df, cfg));
        layers.push(report);
    }
    Ok(finish(layers, mlp_cycles))
}

/// Evaluates `model` with the mapper choosing the best preset per layer.
pub fn evaluate_model_mapped(
    model: &GnnModel,
    base: &GnnWorkload,
    cfg: &AccelConfig,
    objective: Objective,
) -> Result<ModelReport, ModelError> {
    let mut layers = Vec::new();
    let mut mlp_cycles = Vec::new();
    for wl in model.layer_workloads(base) {
        let candidates: Vec<_> = preset_candidates(&wl, cfg)
            .into_iter()
            .filter(|df| model.allowed(df.phase_order))
            .collect();
        let best = rank(&candidates, &wl, cfg, objective).into_iter().next().ok_or(
            ModelError::Layer(EvalError::Invalid(
                omega_dataflow::ValidationError::BrokenSpOptimizedTiles { detail: "no candidates" },
            )),
        )?;
        mlp_cycles.push(mlp_cost(model, &wl, &best.report.dataflow, cfg));
        layers.push(best.report);
    }
    Ok(finish(layers, mlp_cycles))
}

impl GnnModel {
    fn allowed(&self, order: PhaseOrder) -> bool {
        self.algorithm.allowed_phase_orders().contains(&order)
    }
}

/// GIN's second MLP GEMM (`V×G · G×mlp_hidden`) as a stage: the layer's
/// Combination tiling on the full array, held to the layer's capacity budget.
/// `None` for the other algorithms.
fn mlp_stage(
    model: &GnnModel,
    wl: &GnnWorkload,
    df: &GnnDataflow,
    cfg: &AccelConfig,
) -> Option<Stage> {
    let Algorithm::GinConv { mlp_hidden } = model.algorithm else {
        return None;
    };
    let dims = GemmDims { v: wl.v, f: wl.g, g: mlp_hidden };
    let mut stage = Stage::gemm(format!("{}.mlp", wl.name), dims, df.cmb);
    stage.phase.opts = crate::evaluate::budgeted_options(cfg, cfg.full_bandwidth());
    Some(stage)
}

/// [`mlp_stage`] run on its own, as a one-stage chain: `(cycles, energy_pj)`,
/// zero without an MLP.
fn mlp_cost(model: &GnnModel, wl: &GnnWorkload, df: &GnnDataflow, cfg: &AccelConfig) -> (u64, f64) {
    mlp_stage(model, wl, df, cfg).map_or((0, 0.0), |stage| {
        let chain = Chain { nodes: vec![ChainNode::Single(stage)], links: vec![] };
        let r = evaluate_chain(&chain, &[], cfg).expect("a lone stage is a valid chain");
        (r.total_cycles, r.energy.total_pj())
    })
}

/// Concretises `preset` for every layer of `model` (PP split 50-50) — the
/// per-layer dataflows a *uniform* fixed-preset accelerator would run, shared
/// by [`evaluate_model`] and the uniform baseline of the model-level explorer.
pub fn uniform_layer_dataflows(
    model: &GnnModel,
    base: &GnnWorkload,
    preset: &Preset,
    cfg: &AccelConfig,
) -> Result<Vec<GnnDataflow>, ModelError> {
    uniform_dataflows(model, &model.layer_workloads(base), preset, cfg)
}

/// [`uniform_layer_dataflows`] for the already-built layer workloads `wls`.
pub(crate) fn uniform_dataflows(
    model: &GnnModel,
    wls: &[GnnWorkload],
    preset: &Preset,
    cfg: &AccelConfig,
) -> Result<Vec<GnnDataflow>, ModelError> {
    if !model.allowed(preset.pattern.phase_order) {
        return Err(ModelError::PhaseOrderNotAllowed { order: preset.pattern.phase_order });
    }
    Ok(wls.iter().map(|wl| crate::mapper::concretize_preset(preset, wl, cfg)).collect())
}

impl GnnModel {
    /// Output elements layer `layer` hands to its successor (the layer's final
    /// stage output: `V×G`, or `V×mlp_hidden` for GIN's trailing MLP), together
    /// with the width of one output row. Drives the inter-layer `Pel` ladder.
    pub fn layer_output_shape(&self, base: &GnnWorkload, layer: usize) -> (u64, u64) {
        let width = match self.algorithm {
            Algorithm::GinConv { mlp_hidden } => mlp_hidden,
            _ => self.layer_widths[layer],
        };
        (base.v as u64 * width as u64, width as u64)
    }
}

/// Re-tiles a stage that no longer fits its PE allocation (a partitioned
/// inter-layer link squeezed it): same pattern, balanced growth under the
/// reduced budget. Stages that already fit keep their original tiling. A
/// GEMM stage grows against its own dimensions — GIN's MLP is not the
/// layer's Combination — and every other stage against its `layer` context.
fn fit_stage(stage: &mut Stage, layer: &TileContext, budget: usize) {
    if stage.pe_footprint() <= budget {
        return;
    }
    let ctx = match stage.phase.kind {
        PhaseKind::Gemm { dims } => TileContext { v: dims.v, f_cmb: dims.f, g: dims.g, ..*layer },
        _ => *layer,
    };
    let pattern = stage.tiling().to_pattern();
    let policy = crate::dse::balanced_policy(&pattern);
    stage.phase.tiling = choose_tiling(&pattern, &ctx, budget, &policy);
}

/// Lowers a whole GNN model onto a multiphase [`Chain`]. Each layer's stages
/// are the phases [`crate::evaluate`] plans for it — the SDDMM prefix, the
/// Aggregation/Combination pair in the dataflow's phase order, the
/// elementwise suffix — with the plan's operand classes and engine options
/// (SP-Optimized residency, capacity budget, reference walk), followed by
/// GIN's MLP GEMM. The phase pair is linked by the dataflow's inter-phase
/// strategy (`Seq`/`SP` → [`Link::Sequential`], `PP` → a partitioned
/// [`Link::Pipelined`] at the paper's `Pel`); every other boundary within a
/// layer is a barrier, and the given inter-layer links are woven between
/// layers.
///
/// A partitioned inter-layer link re-tiles the boundary stages to fit their PE
/// allocations (same pattern, balanced growth). Otherwise the lowering is
/// exact: with all-`Sequential` inter-layer links the chain's cycles and
/// class-by-class counters equal [`evaluate_model`]'s per-layer sums under
/// every knob (chain energy is coarser — all non-RF traffic at GB rate, no
/// partition discount).
///
/// The chain's sparse stages walk `base`'s graph: evaluate it with
/// [`evaluate_chain`] over `base.degrees`.
pub fn to_chain(
    model: &GnnModel,
    base: &GnnWorkload,
    layer_dataflows: &[GnnDataflow],
    inter_links: &[Link],
    cfg: &AccelConfig,
) -> Result<Chain, ModelError> {
    lower_layers(model, &model.layer_workloads(base), layer_dataflows, inter_links, cfg)
}

/// [`to_chain`] for the already-built layer workloads `wls`.
pub(crate) fn lower_layers(
    model: &GnnModel,
    wls: &[GnnWorkload],
    layer_dataflows: &[GnnDataflow],
    inter_links: &[Link],
    cfg: &AccelConfig,
) -> Result<Chain, ModelError> {
    if layer_dataflows.len() != wls.len() {
        return Err(ModelError::LayerCountMismatch { expected: wls.len(), got: layer_dataflows.len() });
    }
    if inter_links.len() + 1 != wls.len() {
        return Err(ModelError::LinkCountMismatch {
            expected: wls.len().saturating_sub(1),
            got: inter_links.len(),
        });
    }

    // Each layer's stage list, in execution order, from its plan.
    let mut layer_stages: Vec<Vec<Stage>> = Vec::with_capacity(wls.len());
    for (wl, df) in wls.iter().zip(layer_dataflows) {
        if !model.allowed(df.phase_order) {
            return Err(ModelError::PhaseOrderNotAllowed { order: df.phase_order });
        }
        let plan = EvalPlan::new(wl, cfg, df).map_err(ModelError::Layer)?;
        let pair = match df.phase_order {
            PhaseOrder::AC => [&plan.agg, &plan.cmb],
            PhaseOrder::CA => [&plan.cmb, &plan.agg],
        };
        let mut stages: Vec<Stage> = plan
            .sddmm
            .iter()
            .chain(pair)
            .chain(&plan.post)
            .map(|key| Stage::planned(&wl.name, key))
            .collect();
        stages.extend(mlp_stage(model, wl, df, cfg));
        layer_stages.push(stages);
    }

    // Every stage must at least fit the target machine (candidates may have
    // been concretised for a larger array).
    for (stages, (wl, df)) in layer_stages.iter_mut().zip(wls.iter().zip(layer_dataflows)) {
        let ctx = wl.tile_context(df.phase_order);
        for stage in stages.iter_mut() {
            fit_stage(stage, &ctx, cfg.num_pes);
        }
    }

    // Partitioned inter-layer links squeeze the boundary stages: re-tile them
    // under their allocations before deriving intra-layer links, so PP splits
    // reflect the tilings that actually run.
    for (j, link) in inter_links.iter().enumerate() {
        if let Link::Pipelined { split: Some(s), .. } = link {
            let producer_ctx = wls[j].tile_context(layer_dataflows[j].phase_order);
            let producer = layer_stages[j].last_mut().expect("layers have stages");
            fit_stage(producer, &producer_ctx, s.producer_pes);
            let consumer_ctx = wls[j + 1].tile_context(layer_dataflows[j + 1].phase_order);
            let consumer = layer_stages[j + 1].first_mut().expect("layers have stages");
            fit_stage(consumer, &consumer_ctx, s.consumer_pes);
        }
    }

    // Weave intra- and inter-layer links.
    let mut nodes: Vec<ChainNode> = Vec::new();
    let mut links: Vec<Link> = Vec::new();
    for (j, (stages, (wl, df))) in
        layer_stages.into_iter().zip(wls.iter().zip(layer_dataflows)).enumerate()
    {
        if j > 0 {
            links.push(inter_links[j - 1]);
        }
        // The Aggregation/Combination phase pair sits after GAT's leading
        // SDDMM stage, if any.
        let pair = usize::from(wl.attention.is_some());
        // Intra-layer link between the phase pair, from (possibly re-tiled)
        // stage tilings so Pel and the PP split match what runs.
        let effective = GnnDataflow {
            agg: *match df.phase_order {
                PhaseOrder::AC => stages[pair].tiling(),
                PhaseOrder::CA => stages[pair + 1].tiling(),
            },
            cmb: *match df.phase_order {
                PhaseOrder::AC => stages[pair + 1].tiling(),
                PhaseOrder::CA => stages[pair].tiling(),
            },
            ..*df
        };
        let intra = match df.inter {
            InterPhase::Sequential | InterPhase::SequentialPipeline => Link::Sequential,
            InterPhase::ParallelPipeline => {
                let pel = crate::evaluate::intermediate_pel(wl, &effective)
                    .expect("validated PP dataflow has a granularity");
                Link::Pipelined {
                    pel,
                    split: Some(PartitionSplit {
                        producer_pes: stages[pair].pe_footprint(),
                        consumer_pes: stages[pair + 1].pe_footprint(),
                    }),
                }
            }
        };
        let n = stages.len();
        for (k, stage) in stages.into_iter().enumerate() {
            nodes.push(ChainNode::Single(stage));
            if k + 1 < n {
                // The phase pair gets the dataflow's inter-phase link; every
                // other boundary (SDDMM → aggregation, layer → GIN MLP) is a
                // barrier.
                links.push(if k == pair { intra } else { Link::Sequential });
            }
        }
    }
    Ok(Chain { nodes, links })
}

fn finish(layers: Vec<CostReport>, mlp: Vec<(u64, f64)>) -> ModelReport {
    let mlp_cycles: Vec<u64> = mlp.iter().map(|&(c, _)| c).collect();
    let total_cycles =
        layers.iter().map(|l| l.total_cycles).sum::<u64>() + mlp_cycles.iter().sum::<u64>();
    let total_energy_pj = layers.iter().map(|l| l.energy.total_pj()).sum::<f64>()
        + mlp.iter().map(|&(_, e)| e).sum::<f64>();
    ModelReport { layers, mlp_cycles, total_cycles, total_energy_pj }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_accel::AccessCounters;
    use omega_graph::DatasetSpec;

    fn base() -> GnnWorkload {
        GnnWorkload::gcn_layer(&DatasetSpec::cora().generate(3), 16)
    }

    #[test]
    fn layer_widths_chain() {
        let model = GnnModel::gcn_2layer(7);
        let wls = model.layer_workloads(&base());
        assert_eq!(wls.len(), 2);
        assert_eq!((wls[0].f, wls[0].g), (1433, 16));
        assert_eq!((wls[1].f, wls[1].g), (16, 7));
        assert!(wls[0].name.contains("[L0]"));
    }

    #[test]
    fn gcn_two_layer_evaluates() {
        let model = GnnModel::gcn_2layer(7);
        let preset = Preset::by_name("SP2").unwrap();
        let cfg = AccelConfig::paper_default();
        let r = evaluate_model(&model, &base(), &preset, &cfg).unwrap();
        assert_eq!(r.layers.len(), 2);
        assert_eq!(r.total_cycles, r.layers[0].total_cycles + r.layers[1].total_cycles);
        // Layer 2 is much cheaper (F = 16 instead of 1433).
        assert!(r.layers[1].total_cycles < r.layers[0].total_cycles / 4);
        assert!(r.total_energy_pj > 0.0);
    }

    #[test]
    fn sage_rejects_ca_presets() {
        // Build a CA pattern preset stand-in by checking the algorithm gate
        // directly (all Table V presets are AC, so the gate is exercised here).
        assert_eq!(Algorithm::GraphSage.allowed_phase_orders(), &[PhaseOrder::AC]);
        assert_eq!(Algorithm::Gcn.allowed_phase_orders().len(), 2);
        let model = GnnModel::sage_2layer(32, 7);
        assert!(model.allowed(PhaseOrder::AC));
        assert!(!model.allowed(PhaseOrder::CA));
    }

    #[test]
    fn gin_adds_mlp_stages() {
        let model = GnnModel::gin(3, 64);
        let preset = Preset::by_name("Seq1").unwrap();
        let cfg = AccelConfig::paper_default();
        let small = GnnWorkload::gcn_layer(&DatasetSpec::mutag().generate(4), 64);
        let r = evaluate_model(&model, &small, &preset, &cfg).unwrap();
        assert_eq!(r.layers.len(), 3);
        assert_eq!(r.mlp_cycles.len(), 3);
        assert!(r.mlp_cycles.iter().all(|&c| c > 0), "{:?}", r.mlp_cycles);
        let layer_sum: u64 = r.layers.iter().map(|l| l.total_cycles).sum();
        assert_eq!(r.total_cycles, layer_sum + r.mlp_cycles.iter().sum::<u64>());
        // The MLP GEMM is held to the capacity budget like the layer's phases.
        let mut budget = cfg;
        budget.rf_bytes_per_pe = 32;
        budget.knobs.enforce_capacity = true;
        let sp2 = Preset::by_name("SP2").unwrap();
        let free = evaluate_model(&model, &small, &sp2, &cfg).unwrap();
        let tight = evaluate_model(&model, &small, &sp2, &budget).unwrap();
        assert!(tight.mlp_cycles[0] > free.mlp_cycles[0], "{:?}", tight.mlp_cycles);
    }

    #[test]
    fn activation_makes_models_costlier() {
        let cfg = AccelConfig::paper_default();
        let b = base();
        let preset = Preset::by_name("SP2").unwrap();
        let plain = evaluate_model(&GnnModel::gcn_2layer(7), &b, &preset, &cfg).unwrap();
        let act = evaluate_model(
            &GnnModel::gcn_2layer(7).with_activation(ElementwiseOp::Activation),
            &b,
            &preset,
            &cfg,
        )
        .unwrap();
        let norm = evaluate_model(
            &GnnModel::gcn_2layer(7).with_activation(ElementwiseOp::LayerNorm),
            &b,
            &preset,
            &cfg,
        )
        .unwrap();
        assert!(act.total_cycles > plain.total_cycles);
        assert!(norm.total_cycles > act.total_cycles);
    }

    /// The chain runs the phases `evaluate` plans, so with all-Sequential
    /// inter-layer links its cycles and class-by-class counters equal the
    /// per-layer sums plus GIN's MLP, for every preset and CA companion,
    /// under the paper default, a finite capacity budget and the reference
    /// walk. Returns how many (model, preset) rows the budget made slower.
    fn assert_chain_matches_per_layer(models: &[GnnModel], base: &GnnWorkload) -> usize {
        let paper = AccelConfig::paper_default();
        let mut budget = paper;
        budget.rf_bytes_per_pe = 32;
        budget.knobs.enforce_capacity = true;
        let mut oracle = paper;
        oracle.knobs.reference_walk = true;
        let presets: Vec<Preset> =
            Preset::all().into_iter().chain(omega_dataflow::presets::ca_variants()).collect();
        let mut budget_bites = 0;
        for model in models {
            for preset in &presets {
                let mut paper_cycles = 0;
                for (knob, cfg) in [("paper", paper), ("budget", budget), ("oracle", oracle)] {
                    let row = format!("{} {} {knob}", model.name, preset.name);
                    let Ok(dfs) = uniform_layer_dataflows(model, base, preset, &cfg) else {
                        assert!(!model.allowed(preset.pattern.phase_order), "{row}");
                        continue;
                    };
                    let per_layer = evaluate_model(model, base, preset, &cfg).unwrap();
                    let links = vec![Link::Sequential; dfs.len() - 1];
                    let chain = to_chain(model, base, &dfs, &links, &cfg).unwrap();
                    let r = evaluate_chain(&chain, &base.degrees, &cfg).unwrap();
                    let mut counters = AccessCounters::default();
                    let mut stages = 0;
                    let wls = model.layer_workloads(base);
                    for ((l, wl), df) in per_layer.layers.iter().zip(&wls).zip(&dfs) {
                        counters.merge(&l.counters);
                        stages += 2 + usize::from(l.sddmm.is_some());
                        stages += usize::from(l.post.is_some());
                        if let Some(mlp) = mlp_stage(model, wl, df, &cfg) {
                            let nodes = vec![ChainNode::Single(mlp)];
                            let alone = Chain { nodes, links: vec![] };
                            counters.merge(&evaluate_chain(&alone, &[], &cfg).unwrap().counters);
                            stages += 1;
                        }
                    }
                    assert_eq!(r.stages.len(), stages, "{row}");
                    assert_eq!(r.total_cycles, per_layer.total_cycles, "{row}: cycles");
                    assert_eq!(r.counters, counters, "{row}: counters");
                    match knob {
                        "paper" => paper_cycles = r.total_cycles,
                        "budget" => budget_bites += usize::from(r.total_cycles != paper_cycles),
                        _ => assert_eq!(r.total_cycles, paper_cycles, "{row}: the oracle walk"),
                    }
                }
            }
        }
        budget_bites
    }

    fn mutag64() -> GnnWorkload {
        GnnWorkload::gcn_layer(&DatasetSpec::mutag().generate(4), 64)
    }

    #[test]
    fn to_chain_matches_evaluate_model_cycles_for_every_preset() {
        let bites = assert_chain_matches_per_layer(&[GnnModel::gcn_2layer(7)], &base());
        assert!(bites > 0, "the 32 B/PE budget never changed a chain");
    }

    #[test]
    fn to_chain_matches_evaluate_model_cycles_with_activation() {
        let models = [
            GnnModel::gcn_2layer(7).with_activation(ElementwiseOp::Activation),
            GnnModel::gcn_2layer(7).with_activation(ElementwiseOp::LayerNorm),
        ];
        let bites = assert_chain_matches_per_layer(&models, &base());
        assert!(bites > 0, "the 32 B/PE budget never changed a chain");
    }

    #[test]
    fn to_chain_matches_evaluate_model_for_gin_with_mlp_stages() {
        let bites = assert_chain_matches_per_layer(&[GnnModel::gin(3, 64)], &mutag64());
        assert!(bites > 0, "the 32 B/PE budget never changed a chain");
    }

    #[test]
    fn gat_to_chain_matches_evaluate_model_cycles_for_every_preset() {
        let bites = assert_chain_matches_per_layer(&[GnnModel::gat_2layer(4, 7)], &mutag64());
        assert!(bites > 0, "the 32 B/PE budget never changed a chain");
    }

    #[test]
    fn to_chain_rejects_bad_shapes_and_orders() {
        let cfg = AccelConfig::paper_default();
        let model = GnnModel::gcn_2layer(7);
        let b = base();
        let dfs = uniform_layer_dataflows(&model, &b, &Preset::by_name("Seq1").unwrap(), &cfg)
            .unwrap();
        assert!(matches!(
            to_chain(&model, &b, &dfs[..1], &[Link::Sequential], &cfg),
            Err(ModelError::LayerCountMismatch { expected: 2, got: 1 })
        ));
        assert!(matches!(
            to_chain(&model, &b, &dfs, &[], &cfg),
            Err(ModelError::LinkCountMismatch { expected: 1, got: 0 })
        ));
        // CA dataflows are illegal for GraphSAGE.
        let sage = GnnModel::sage_2layer(16, 7);
        let ca = uniform_layer_dataflows(
            &GnnModel::gcn_2layer(7),
            &b,
            &omega_dataflow::presets::seq_ca(),
            &cfg,
        )
        .unwrap();
        assert!(matches!(
            to_chain(&sage, &b, &ca, &[Link::Sequential], &cfg),
            Err(ModelError::PhaseOrderNotAllowed { order: PhaseOrder::CA })
        ));
    }

    #[test]
    fn partitioned_inter_layer_link_retiles_boundary_stages() {
        let cfg = AccelConfig::paper_default();
        let model = GnnModel::gcn_2layer(7);
        let b = base();
        let dfs = uniform_layer_dataflows(&model, &b, &Preset::by_name("Seq1").unwrap(), &cfg)
            .unwrap();
        let (elems, row) = model.layer_output_shape(&b, 0);
        assert_eq!(row, 16);
        let link = Link::pipelined_split(elems / 4, 96, 416);
        let chain = to_chain(&model, &b, &dfs, &[link], &cfg).unwrap();
        // Boundary stages (L0's cmb, L1's agg) fit their partitions.
        assert!(chain.nodes.len() == 4);
        let footprint = |i: usize| match &chain.nodes[i] {
            crate::multiphase::ChainNode::Single(s) => s.pe_footprint(),
            _ => unreachable!(),
        };
        assert!(footprint(1) <= 96, "producer footprint {}", footprint(1));
        assert!(footprint(2) <= 416);
        let r = evaluate_chain(&chain, &b.degrees, &cfg).unwrap();
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn squeezed_mlp_stages_are_retiled_against_their_own_dims() {
        use omega_dataflow::Dim;
        // GIN's MLP GEMM (`V×G · G×mlp_hidden`) squeezed by a partitioned
        // inter-layer link grows against its own dims, not the layer's
        // Combination (`F = 1433` in Cora's first layer).
        let cfg = AccelConfig::paper_default();
        let model = GnnModel::gin(3, 64);
        let b = base();
        let (elems, _) = model.layer_output_shape(&b, 0);
        let links = [Link::pipelined_split(elems / 4, 128, 384); 2];
        let mut retiled = 0;
        for preset in Preset::all() {
            let dfs = uniform_layer_dataflows(&model, &b, &preset, &cfg).unwrap();
            let chain = to_chain(&model, &b, &dfs, &links, &cfg).unwrap();
            for node in &chain.nodes {
                let ChainNode::Single(stage) = node else { continue };
                let PhaseKind::Gemm { dims } = stage.phase.kind else { continue };
                if !stage.name.ends_with(".mlp") {
                    continue;
                }
                let t = stage.tiling();
                let fits = t.tile_of(Dim::V) <= dims.v
                    && t.tile_of(Dim::F) <= dims.f
                    && t.tile_of(Dim::G) <= dims.g;
                let tiles = t.tiles();
                assert!(fits, "{} {}: tiles {tiles:?} over {dims:?}", preset.name, stage.name);
                retiled += usize::from(dfs.iter().all(|df| df.cmb != *t));
            }
        }
        assert!(retiled > 0, "no MLP stage was squeezed");
    }

    #[test]
    fn gat_layers_carry_attention_and_are_ac_only() {
        let model = GnnModel::gat_2layer(8, 7);
        assert_eq!(Algorithm::Gat { heads: 8 }.allowed_phase_orders(), &[PhaseOrder::AC]);
        let wls = model.layer_workloads(&base());
        assert_eq!(wls.len(), 2);
        assert_eq!(wls[0].attention.map(|a| a.heads), Some(8));
        assert_eq!((wls[0].f, wls[0].g), (1433, 64));
        assert_eq!((wls[1].f, wls[1].g), (64, 7));
    }

    #[test]
    fn gat_is_costlier_than_gcn_of_the_same_widths() {
        let cfg = AccelConfig::paper_default();
        let small = GnnWorkload::gcn_layer(&DatasetSpec::mutag().generate(4), 64);
        let preset = Preset::by_name("Seq1").unwrap();
        let gat = evaluate_model(&GnnModel::gat_2layer(4, 7), &small, &preset, &cfg).unwrap();
        let gcn = evaluate_model(
            &GnnModel {
                name: "GCN-2w".into(),
                algorithm: Algorithm::Gcn,
                layer_widths: vec![64, 7],
                activation: None,
            },
            &small,
            &preset,
            &cfg,
        )
        .unwrap();
        assert!(gat.total_cycles > gcn.total_cycles);
    }

    #[test]
    fn mapper_can_pick_different_dataflows_per_layer() {
        let model = GnnModel::gcn_2layer(7);
        let cfg = AccelConfig::paper_default();
        let fixed = evaluate_model(&model, &base(), &Preset::by_name("Seq1").unwrap(), &cfg).unwrap();
        let mapped = evaluate_model_mapped(&model, &base(), &cfg, Objective::Runtime).unwrap();
        assert!(mapped.total_cycles <= fixed.total_cycles);
        // Both layers were actually searched.
        assert_eq!(mapped.layers.len(), 2);
    }
}
