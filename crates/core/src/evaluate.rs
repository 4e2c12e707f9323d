//! The OMEGA evaluation entry point: one workload × one dataflow × one machine.
//!
//! The evaluation is **phase-factored**: [`evaluate`] first *plans* the two
//! phase simulations (tiling, operand classes, bandwidth share, residency
//! flags, chunk spec — everything a phase engine's result depends on besides
//! the workload itself), then runs them, then *composes* the totals per the
//! inter-phase cost model (Table III). The factoring is what the exhaustive
//! explorer of [`crate::dse`] exploits: for `Sequential` and
//! `SequentialPipeline` dataflows the two phase simulations are completely
//! independent of each other, so a 6,656-candidate sweep can plan every
//! candidate first, simulate each *unique* phase configuration (`PhaseKey`)
//! once, and recompose the rest arithmetically. [`PhaseSimCache`] offers the
//! same memoisation to callers that evaluate one dataflow at a time.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use omega_accel::engine::{
    simulate_elementwise_prepared, simulate_gemm_prepared, simulate_sddmm_prepared,
    simulate_spmm_prepared, spmm_cycle_floor, CapacityBudget, ChunkSide, ChunkSpec,
    ElementwiseWorkload, EngineOptions, GemmDims, OperandClasses, PreparedGemm, PreparedSpmm,
};
use omega_accel::{
    AccelConfig, AccessCounters, BandwidthShare, ChunkTimeline, EnergyModel, OperandClass,
    PhaseStats,
};
use omega_dataflow::{
    validate, validate_elementwise, validate_sddmm, Dim, GnnDataflow, Granularity, InterPhase,
    IntraTiling, PhaseOrder, ValidationError,
};

use crate::cost::{CostReport, EnergyBreakdown, IntermediateCost};
use crate::pipeline::pipeline_runtime_of_timelines;
use crate::GnnWorkload;

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The dataflow violates Table II legality (or, for attention workloads,
    /// the SDDMM loop-order legality of `omega_dataflow::validate_sddmm`).
    Invalid(ValidationError),
    /// An attention (GAT) workload was evaluated under the CA phase order:
    /// the scores are computed on the phase's input features and consumed by
    /// the Aggregation, so only AC is legal.
    AttentionRequiresAc,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Invalid(e) => write!(f, "illegal dataflow: {e}"),
            EvalError::AttentionRequiresAc => {
                write!(f, "attention (GAT) layers are AC-only: SDDMM score -> aggregate -> combine")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ValidationError> for EvalError {
    fn from(e: ValidationError) -> Self {
        EvalError::Invalid(e)
    }
}

/// Evaluates `dataflow` running `workload` on the accelerator `cfg`, producing
/// runtime, buffering, and energy per the inter-phase cost model (Table III).
///
/// One-shot convenience over [`PreparedEval`]: callers evaluating many
/// dataflows of the *same* workload should prepare once and reuse it (the DSE
/// engines do), which hoists the degree preprocessing out of every simulation.
pub fn evaluate(
    workload: &GnnWorkload,
    dataflow: &GnnDataflow,
    cfg: &AccelConfig,
) -> Result<CostReport, EvalError> {
    PreparedEval::new(workload, cfg).evaluate(dataflow)
}

/// One simulated phase: its stats, without `chunk_marks`, and its chunk
/// timeline, run-length encoded.
pub(crate) type PhaseResult = (PhaseStats, ChunkTimeline);

/// One phase simulation, fully specified modulo the workload degrees: the
/// phase's shape, tiling, operand classes and engine options. Doubles as the
/// [`PhaseSimCache`] key: two equal keys denote bit-identical simulations (the
/// engines are deterministic), so every result-affecting knob — tiling,
/// operand classes, bandwidth share, residency flags, chunk spec — participates
/// in `Eq`/`Hash`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PhaseKey {
    pub(crate) kind: PhaseKind,
    pub(crate) tiling: IntraTiling,
    pub(crate) classes: OperandClasses,
    pub(crate) opts: EngineOptions,
}

/// The shape of one phase simulation: which engine runs it, on what sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PhaseKind {
    /// Aggregation: SpMM over the prepared degrees, `width` dense columns.
    Spmm { width: usize },
    /// Combination: dense GEMM.
    Gemm { dims: GemmDims },
    /// Attention scoring: SDDMM over the prepared degrees (`heads` per-edge
    /// dot products of `dot_width` elements, plus the softmax pass).
    Sddmm { dot_width: usize, heads: usize },
    /// Elementwise post-phase (activation / LayerNorm) over the layer output,
    /// run on the final matrix phase's tiling.
    Elementwise(ElementwiseWorkload),
}

impl PhaseKind {
    /// Converts a consumer's `Pel`, in intermediate elements, onto the
    /// progress axis its engine counts on a graph of `v` rows and `nnz`
    /// stored non-zeros: the sparse engines consume per edge visit (a
    /// consumer gathers arbitrary rows), the dense ones per element. The one
    /// conversion shared by [`EvalPlan::new`]'s PP path and the consume side
    /// of a pipelined chain link, so the two stay bit-identical.
    pub(crate) fn consume_pel(&self, pel_elems: u64, v: usize, nnz: u64) -> u64 {
        let row = match *self {
            PhaseKind::Spmm { width } => width as u64,
            PhaseKind::Sddmm { dot_width, heads } => heads.max(1) as u64 * dot_width as u64,
            PhaseKind::Gemm { .. } | PhaseKind::Elementwise(_) => return pel_elems.max(1),
        };
        let (elems, visits) = (v as u64 * row, nnz * row);
        if elems == 0 {
            return pel_elems.max(1);
        }
        ((pel_elems as u128 * visits as u128) / elems as u128).max(1) as u64
    }
}

impl PhaseKey {
    /// Runs this phase on its engine: the one dispatch from a phase spec to
    /// the four engines, shared by [`PreparedEval`] and the chain stages of
    /// [`crate::multiphase`]. `graph` holds the degrees the sparse phases walk.
    pub(crate) fn simulate(&self, graph: &PreparedSpmm<'_>, cfg: &AccelConfig) -> PhaseResult {
        let PhaseKey { kind, tiling, classes, opts } = self;
        match *kind {
            PhaseKind::Spmm { width } => {
                simulate_spmm_prepared(graph, width, tiling, cfg, classes, opts)
            }
            PhaseKind::Gemm { dims } => {
                simulate_gemm_prepared(&PreparedGemm::new(dims), tiling, cfg, classes, opts)
            }
            PhaseKind::Sddmm { dot_width, heads } => {
                simulate_sddmm_prepared(graph, dot_width, heads, tiling, cfg, classes, opts)
            }
            PhaseKind::Elementwise(wl) => {
                simulate_elementwise_prepared(&wl, tiling, cfg, classes, opts)
            }
        }
    }
}

/// The planned evaluation of one dataflow: every phase simulation plus the
/// composition facts that do not depend on simulation results.
pub(crate) struct EvalPlan {
    sp_optimized: bool,
    granularity: Option<Granularity>,
    pel: Option<u64>,
    /// The attention scoring phase, when the workload has one. It runs
    /// sequentially before the aggregation/combination pair on the full
    /// array, sharing the Aggregation tiling.
    pub(crate) sddmm: Option<PhaseKey>,
    pub(crate) agg: PhaseKey,
    pub(crate) cmb: PhaseKey,
    /// The elementwise post-phase, when the workload requests one. It runs
    /// sequentially after both matrix phases on the full array, reusing the
    /// final phase's tiling.
    pub(crate) post: Option<PhaseKey>,
}

impl EvalPlan {
    /// Every phase simulation the plan needs, in composition order (scoring
    /// prefix, aggregation, combination, elementwise suffix).
    pub(crate) fn keys(&self) -> impl Iterator<Item = &PhaseKey> {
        self.sddmm.iter().chain([&self.agg, &self.cmb]).chain(self.post.iter())
    }

    /// Plans the phase simulations of `dataflow` running `workload` on `cfg`
    /// — the per-phase engine options exactly as the inter-phase cost model
    /// prescribes them. This is the one lowering of a layer dataflow onto
    /// phase-engine runs: [`PreparedEval`] simulates it, and
    /// [`crate::models::to_chain`] turns it into chain stages.
    pub(crate) fn new(
        workload: &GnnWorkload,
        cfg: &AccelConfig,
        dataflow: &GnnDataflow,
    ) -> Result<EvalPlan, EvalError> {
        validate(dataflow)?;
        let sp_optimized = dataflow.is_sp_optimized();
        let full = budgeted_options(cfg, cfg.full_bandwidth());

        // Attention (GAT) workloads prepend an SDDMM scoring phase: scores are
        // computed on the input features (AC only) with the layer's
        // Aggregation tiling, which must satisfy the SDDMM loop-order rule.
        let sddmm = match workload.attention {
            None => None,
            Some(att) => {
                if dataflow.phase_order != PhaseOrder::AC {
                    return Err(EvalError::AttentionRequiresAc);
                }
                validate_sddmm(&dataflow.agg)?;
                let mut opts = full;
                opts.reference_walk = cfg.knobs.reference_walk;
                if sp_optimized {
                    // SP-Optimized attention: both phases share the tiling, so
                    // the scores never leave the PE register files — the
                    // softmax runs locally and the aggregation gathers the
                    // resident values (its `scores_resident` flag below).
                    opts.output_stays_local = true;
                }
                let dot_width = att.dot_width(workload.f);
                Some(PhaseKey {
                    kind: PhaseKind::Sddmm { dot_width, heads: att.heads },
                    tiling: dataflow.agg,
                    classes: OperandClasses::sddmm(),
                    opts,
                })
            }
        };
        // A Sequential dataflow's loop orders may *happen* to be
        // pipeline-compatible, but nothing is pipelined — report no
        // granularity/Pel for it.
        let granularity = match dataflow.inter {
            InterPhase::Sequential => None,
            _ => dataflow.granularity(),
        };
        let pel = granularity.and(intermediate_pel(workload, dataflow));

        // The dense width Aggregation streams per neighbour: F under AC, G under CA.
        let agg_width = match dataflow.phase_order {
            PhaseOrder::AC => workload.f,
            PhaseOrder::CA => workload.g,
        };
        let agg_kind = PhaseKind::Spmm { width: agg_width };
        let cmb_kind =
            PhaseKind::Gemm { dims: GemmDims { v: workload.v, f: workload.f, g: workload.g } };
        let (agg_classes, cmb_classes) = match (workload.attention, dataflow.phase_order) {
            // GAT aggregation gathers SDDMM scores as its per-edge values.
            (Some(_), _) => (OperandClasses::aggregation_gat(), OperandClasses::combination_ac()),
            (None, PhaseOrder::AC) => {
                (OperandClasses::aggregation_ac(), OperandClasses::combination_ac())
            }
            (None, PhaseOrder::CA) => {
                (OperandClasses::aggregation_ca(), OperandClasses::combination_ca())
            }
        };

        let (mut agg_opts, cmb_opts) = match dataflow.inter {
            InterPhase::Sequential => (full, full),
            InterPhase::SequentialPipeline => {
                let (mut producer_opts, mut consumer_opts) = (full, full);
                if sp_optimized {
                    producer_opts.output_stays_local = true;
                    consumer_opts.input_resident = true;
                }
                match dataflow.phase_order {
                    PhaseOrder::AC => (producer_opts, consumer_opts),
                    PhaseOrder::CA => (consumer_opts, producer_opts),
                }
            }
            InterPhase::ParallelPipeline => {
                let pel_elems = pel.expect("validated PP dataflow has a granularity");
                // NoC bandwidth is shared between the concurrently-running
                // partitions in proportion to their PE allocation (Section V-C3).
                let mut agg_opts =
                    budgeted_options(cfg, cfg.bandwidth_fraction(dataflow.agg.pe_footprint()));
                let mut cmb_opts =
                    budgeted_options(cfg, cfg.bandwidth_fraction(dataflow.cmb.pe_footprint()));
                let (agg_side, cmb_side) = match dataflow.phase_order {
                    PhaseOrder::AC => (ChunkSide::Produce, ChunkSide::Consume),
                    PhaseOrder::CA => (ChunkSide::Consume, ChunkSide::Produce),
                };
                let chunk = |kind: PhaseKind, side| {
                    let pel = match side {
                        ChunkSide::Produce => pel_elems,
                        ChunkSide::Consume => kind.consume_pel(pel_elems, workload.v, workload.nnz),
                    };
                    Some(ChunkSpec { side, pel })
                };
                agg_opts.chunk = chunk(agg_kind, agg_side);
                cmb_opts.chunk = chunk(cmb_kind, cmb_side);
                (agg_opts, cmb_opts)
            }
        };

        // The per-edge oracle only exists for the sparse walks; GEMM has no
        // reference path, so its options stay untouched (and cache-stable).
        agg_opts.reference_walk = cfg.knobs.reference_walk;
        if sddmm.is_some() && sp_optimized {
            // The SDDMM producer kept the scores local (see above): the
            // aggregation reads them from the RFs, fetching only the CSR
            // structure.
            agg_opts.scores_resident = true;
        }

        // The elementwise post-phase streams the finished `V×G` output through
        // the array once more (twice for LayerNorm), after both matrix phases:
        // it reuses the *final* phase's tiling — the output is already laid out
        // for it — at full bandwidth (nothing else runs concurrently).
        let post = match workload.post_op {
            None => None,
            Some(op) => {
                let tiling = match dataflow.phase_order {
                    PhaseOrder::AC => dataflow.cmb,
                    PhaseOrder::CA => dataflow.agg,
                };
                validate_elementwise(&tiling)?;
                Some(PhaseKey {
                    kind: PhaseKind::Elementwise(ElementwiseWorkload {
                        rows: workload.v,
                        width: workload.g,
                        op,
                    }),
                    tiling,
                    classes: OperandClasses::elementwise_on(OperandClass::Output),
                    opts: full,
                })
            }
        };

        Ok(EvalPlan {
            sp_optimized,
            granularity,
            pel,
            sddmm,
            agg: PhaseKey {
                kind: agg_kind,
                tiling: dataflow.agg,
                classes: agg_classes,
                opts: agg_opts,
            },
            cmb: PhaseKey {
                kind: cmb_kind,
                tiling: dataflow.cmb,
                classes: cmb_classes,
                opts: cmb_opts,
            },
            post,
        })
    }
}

/// Plain engine options at `bandwidth`, held to `cfg`'s storage budgets.
/// Capacity enforcement is opt-in (`ModelKnobs::enforce_capacity`): the
/// engines always *report* their working-set peaks, but only a finite budget
/// makes overflowing tiles pay the spill recipe. `UNBOUNDED` keeps every run
/// bit-identical to the unconstrained paper model.
pub(crate) fn budgeted_options(cfg: &AccelConfig, bandwidth: BandwidthShare) -> EngineOptions {
    let mut opts = EngineOptions::plain(bandwidth);
    if cfg.knobs.enforce_capacity {
        opts.capacity =
            CapacityBudget { rf_bytes_per_pe: cfg.rf_bytes_per_pe, gb_bytes: cfg.gb_bytes };
    }
    opts
}

/// A workload's evaluation context, prepared once and shared across many
/// dataflow evaluations: the hoisted SpMM degree structures and the energy
/// model.
pub struct PreparedEval<'a> {
    workload: &'a GnnWorkload,
    cfg: &'a AccelConfig,
    spmm: PreparedSpmm<'a>,
    energy_model: EnergyModel,
}

impl<'a> PreparedEval<'a> {
    /// Prepares `workload` for repeated evaluation on `cfg`.
    pub fn new(workload: &'a GnnWorkload, cfg: &'a AccelConfig) -> Self {
        PreparedEval {
            workload,
            cfg,
            spmm: PreparedSpmm::new(&workload.degrees),
            energy_model: EnergyModel {
                gb_bank_bytes: cfg.gb_bank_bytes,
                ..EnergyModel::paper_default()
            },
        }
    }

    /// Evaluates one dataflow — bit-identical to [`evaluate`].
    pub fn evaluate(&self, dataflow: &GnnDataflow) -> Result<CostReport, EvalError> {
        let plan = self.plan(dataflow)?;
        Ok(self.run_plan(dataflow, &plan, None))
    }

    /// [`Self::evaluate`] through a shared [`PhaseSimCache`]: bit-identical
    /// results, with repeated phase configurations simulated only once —
    /// Sequential/SP dataflows that share a phase tiling share its simulation.
    pub fn evaluate_with_cache(
        &self,
        dataflow: &GnnDataflow,
        cache: &PhaseSimCache,
    ) -> Result<CostReport, EvalError> {
        let plan = self.plan(dataflow)?;
        Ok(self.run_plan(dataflow, &plan, Some(cache)))
    }

    /// Simulates every planned phase (through `cache` when given, directly
    /// otherwise) and composes the totals.
    fn run_plan(
        &self,
        dataflow: &GnnDataflow,
        plan: &EvalPlan,
        cache: Option<&PhaseSimCache>,
    ) -> CostReport {
        match cache {
            Some(cache) => {
                let phases = plan.keys().map(|k| cache.stats(self, k));
                self.compose_from(dataflow, plan, true, phases)
            }
            None => {
                let phases = plan.keys().map(|k| Arc::new(self.simulate(k)));
                self.compose_from(dataflow, plan, true, phases)
            }
        }
    }

    /// Plans `dataflow` on the prepared workload ([`EvalPlan::new`]).
    pub(crate) fn plan(&self, dataflow: &GnnDataflow) -> Result<EvalPlan, EvalError> {
        EvalPlan::new(self.workload, self.cfg, dataflow)
    }

    /// Runs one planned phase simulation.
    pub(crate) fn simulate(&self, key: &PhaseKey) -> PhaseResult {
        key.simulate(&self.spmm, self.cfg)
    }

    /// Composes a planned dataflow from its phase results, given in
    /// [`EvalPlan::keys`] order, into the inter-phase cost report (Table III;
    /// an attention workload's SDDMM phase adds sequentially up front) — the
    /// shared tail of every evaluation entry point, and how the DSE scores a
    /// candidate once its wave's simulations are done. The PP total is
    /// composed run-wise from the timelines; only with `timelines` are they
    /// expanded into the report's `chunk_marks`, so a search's retained
    /// reports stay small (re-evaluate a winner to recover them).
    pub(crate) fn compose_from(
        &self,
        dataflow: &GnnDataflow,
        plan: &EvalPlan,
        timelines: bool,
        mut phases: impl Iterator<Item = Arc<PhaseResult>>,
    ) -> CostReport {
        let mut next = || phases.next().expect("one result per planned phase");
        let sddmm = plan.sddmm.as_ref().map(|_| next());
        let (agg, cmb) = (next(), next());
        let post = plan.post.as_ref().map(|_| next());
        let workload = self.workload;
        let cfg = self.cfg;
        let (total_cycles, buffering, partition_bytes) = match dataflow.inter {
            InterPhase::Sequential => (
                agg.0.cycles + cmb.0.cycles,
                workload.intermediate_elems(dataflow.phase_order),
                None,
            ),
            InterPhase::SequentialPipeline => {
                // Table III: SP-Generic stages Pel elements through the GB;
                // SP-Optimized keeps the intermediate in the RFs (zero buffering).
                let buffering = if plan.sp_optimized { 0 } else { plan.pel.unwrap_or(0) };
                (agg.0.cycles + cmb.0.cycles, buffering, None)
            }
            InterPhase::ParallelPipeline => {
                let pel_elems = plan.pel.expect("validated PP dataflow has a granularity");
                let producer_is_agg = dataflow.phase_order == PhaseOrder::AC;
                let (producer, consumer) = if producer_is_agg { (&agg, &cmb) } else { (&cmb, &agg) };
                let total = pipeline_runtime_of_timelines(&producer.1, &consumer.1);
                // Ping-pong buffering: 2 × Pel (Table III).
                let buffering = 2 * pel_elems;
                (total, buffering, Some((buffering as usize) * cfg.word_bytes))
            }
        };

        // The scoring phase is a sequential prefix: every downstream phase
        // needs the full normalised score array (the softmax is a global
        // per-row reduction), so its cycles add on top of the composition.
        // Symmetrically, the elementwise post-phase is a sequential suffix: it
        // needs the complete layer output (LayerNorm's stats sweep reads whole
        // rows), so its cycles add at the end.
        let total_cycles = total_cycles
            + sddmm.as_ref().map_or(0, |s| s.0.cycles)
            + post.as_ref().map_or(0, |s| s.0.cycles);

        let mut counters = AccessCounters::default();
        if let Some(s) = &sddmm {
            counters.merge(&s.0.counters);
        }
        counters.merge(&agg.0.counters);
        counters.merge(&cmb.0.counters);
        if let Some(s) = &post {
            counters.merge(&s.0.counters);
        }
        // Fig. 6 / Section IV-A: Seq stages the whole intermediate on chip;
        // whatever does not fit the GB moves through DRAM instead. The
        // intermediate is the resident working set (the other operands stream
        // through small staging buffers), so the overflow is charged against
        // the full GB capacity.
        let intermediate_cost = match partition_bytes {
            Some(cap) => IntermediateCost::Partition(cap),
            None => {
                let dram_fraction = if dataflow.inter == InterPhase::Sequential {
                    let int_bytes = buffering as f64 * cfg.word_bytes as f64;
                    ((int_bytes - cfg.gb_bytes as f64) / int_bytes.max(1.0)).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                IntermediateCost::GlobalBuffer { dram_fraction }
            }
        };
        let energy =
            EnergyBreakdown::from_counters_with(&counters, &self.energy_model, intermediate_cost);

        // On-chip working-set peak, composed the way the runtime is: the two
        // matrix phases share the machine sequentially under Seq/SP (max of
        // their peaks) but coexist under PP (sum); the SDDMM prefix and the
        // elementwise suffix run alone on the full array (max). The Table III
        // intermediate buffering coexists with whichever phase is running, so
        // its bytes add on top.
        let phase_peak = |s: &PhaseResult| -> u64 {
            let s = &s.0;
            s.gb_peak_bytes.saturating_add(s.rf_peak_bytes.saturating_mul(s.pe_footprint as u64))
        };
        let matrix_pair = match dataflow.inter {
            InterPhase::ParallelPipeline => phase_peak(&agg).saturating_add(phase_peak(&cmb)),
            _ => phase_peak(&agg).max(phase_peak(&cmb)),
        };
        let buffer_peak_bytes = matrix_pair
            .max(sddmm.as_deref().map_or(0, phase_peak))
            .max(post.as_deref().map_or(0, phase_peak))
            .saturating_add(buffering.saturating_mul(cfg.word_bytes as u64));

        let keep = |s: Arc<PhaseResult>| {
            let mut stats = s.0.clone();
            if timelines {
                stats.chunk_marks = s.1.marks().collect();
            }
            stats
        };
        CostReport {
            dataflow: *dataflow,
            total_cycles,
            agg: keep(agg),
            cmb: keep(cmb),
            sddmm: sddmm.map(keep),
            post: post.map(keep),
            counters,
            intermediate_buffer_elems: buffering,
            buffer_peak_bytes,
            pel: plan.pel,
            granularity: plan.granularity,
            sp_optimized: plan.sp_optimized,
            energy,
        }
    }

    /// An admissible (never over-estimating) lower bound on the planned
    /// dataflow's total cycles: per phase, the maximum of the MAC roofline
    /// (`macs / PE footprint`), the NoC bandwidth floors over the
    /// *compulsory* traffic (streaming inputs, single-write outputs) at that
    /// phase's bandwidth share and, for an SpMM phase, the tile-synchronized
    /// compute steps of its walk ([`spmm_cycle_floor`]: each vertex tile
    /// advances at its heaviest row, so a skewed degree distribution raises
    /// the floor the way it raises the runtime); phases add under Seq/SP and
    /// overlap (max) under PP. Every term under-counts what the engines
    /// charge — stalls, adjacency traffic, psum spills, preloads and fill
    /// overheads only push the true cycle count further up — so pruning on
    /// this bound can never discard a candidate that would have ranked.
    pub(crate) fn lower_bound(&self, plan: &EvalPlan, inter: InterPhase) -> u64 {
        let agg = self.phase_bound(&plan.agg);
        let cmb = self.phase_bound(&plan.cmb);
        // The SDDMM prefix always adds sequentially; its bound deliberately
        // omits the softmax sweeps (a further under-estimate, still
        // admissible).
        let sddmm = plan.sddmm.as_ref().map_or(0, |k| self.phase_bound(k));
        // The elementwise post-phase is a sequential suffix, same reasoning.
        let post = plan.post.as_ref().map_or(0, |k| self.phase_bound(k));
        sddmm
            + post
            + match inter {
                InterPhase::ParallelPipeline => agg.max(cmb),
                _ => agg + cmb,
            }
    }

    /// Chunks of the timeline `key`'s simulation records: one per `Pel`
    /// chunk of the side the engine tracks (its `chunk_total` over
    /// `pel`), none without a chunk spec. Only a `ParallelPipeline` plan's
    /// matrix phases carry one. Known before simulating, so the DSE can size
    /// its waves by the results it will have to hold.
    pub(crate) fn timeline_len(&self, key: &PhaseKey) -> u64 {
        let v = self.workload.v as u64;
        let (produced, consumed) = match key.kind {
            PhaseKind::Spmm { width } => {
                let w = width as u64;
                (v * w, self.workload.nnz * w)
            }
            PhaseKind::Gemm { dims } => (v * dims.g as u64, v * dims.f as u64),
            PhaseKind::Sddmm { .. } | PhaseKind::Elementwise(_) => return 0,
        };
        key.opts.chunk.map_or(0, |c| {
            let total = match c.side {
                ChunkSide::Produce => produced,
                ChunkSide::Consume => consumed,
            };
            total.div_ceil(c.pel.max(1)).max(1)
        })
    }

    /// One phase's admissible cycle lower bound (see [`Self::lower_bound`]).
    pub(crate) fn phase_bound(&self, key: &PhaseKey) -> u64 {
        let Some(fl) = self.phase_floor(key) else { return 0 };
        let roofline = fl
            .macs
            .div_ceil(fl.footprint.max(1))
            .max((fl.a_reads + fl.b_reads).div_ceil(fl.bandwidth.dist.max(1) as u64))
            .max(fl.writes.div_ceil(fl.bandwidth.red.max(1) as u64));
        match key.kind {
            PhaseKind::Spmm { width } => {
                roofline.max(spmm_cycle_floor(&self.spmm, width, &key.tiling, self.cfg))
            }
            _ => roofline,
        }
    }

    /// The compulsory work and traffic of one planned phase, split by operand
    /// class so [`Self::bound_vector`]'s energy axis can gate out the
    /// (possibly discounted) `Intermediate` class while the cycle bound keeps
    /// summing the raw read streams. `None` when the engine would early-return
    /// a zero report.
    fn phase_floor(&self, key: &PhaseKey) -> Option<PhaseFloor> {
        let (v, nnz) = (self.workload.v as u64, self.workload.nnz);
        // (MACs, streamed `a` reads, `b` reads, output writes), before the
        // residency flags remove the pinned streams.
        let (macs, a_reads, b_reads, writes) = match key.kind {
            PhaseKind::Spmm { width } => {
                let w = width as u64;
                if v == 0 || w == 0 || nnz == 0 {
                    return None;
                }
                // One gathered dense element per MAC (the engine charges
                // `edge_visits × width` per pass, which covers each
                // (edge, column) at least once).
                (nnz * w, nnz * w, 0, v * w)
            }
            PhaseKind::Gemm { dims } => {
                let (v, f, g) = (dims.v as u64, dims.f as u64, dims.g as u64);
                if v == 0 || f == 0 || g == 0 {
                    return None;
                }
                // Every weight is fetched at least once.
                (v * f * g, v * f, f * g, v * g)
            }
            PhaseKind::Sddmm { dot_width, heads } => {
                let (d, h) = (dot_width as u64, heads.max(1) as u64);
                if v == 0 || d == 0 || nnz == 0 {
                    return None;
                }
                // Compulsory: one gathered K element per MAC; one score write
                // per (edge, head).
                (h * nnz * d, h * nnz * d, 0, h * nnz)
            }
            PhaseKind::Elementwise(wl) => {
                let elems = wl.elems();
                if elems == 0 {
                    return None;
                }
                // Compulsory: one ALU op and one streamed read per element per
                // sweep, one write-back per element.
                let sweeps = elems * wl.op.sweeps();
                (sweeps, sweeps, 0, elems)
            }
        };
        Some(PhaseFloor {
            macs,
            footprint: key.tiling.pe_footprint() as u64,
            a_reads: if key.opts.input_resident { 0 } else { a_reads },
            b_reads,
            writes: if key.opts.output_stays_local { 0 } else { writes },
            classes: key.classes,
            bandwidth: key.opts.bandwidth,
        })
    }

    /// The per-objective admissible bound vector of a planned dataflow:
    /// `[total cycles, energy pJ, buffer-peak bytes]`, each component never
    /// over-estimating the corresponding [`CostReport`] axis.
    ///
    /// * Cycles — [`Self::lower_bound`], unchanged from single-objective
    ///   pruning.
    /// * Energy — the compulsory GB traffic of *non-Intermediate* operand
    ///   classes at the flat GB rate. [`EnergyBreakdown`] charges every
    ///   non-Intermediate access at exactly `gb_access_pj` (only the
    ///   Intermediate class is ever discounted to a partition rate), and the
    ///   bound omits RF, DRAM-overflow, adjacency-structure, softmax, and
    ///   spill energy entirely, so the truth is only ever higher.
    /// * Footprint — the Table III intermediate buffering alone, known from
    ///   the plan without simulation; `compose` adds every phase's strictly
    ///   positive staging peak on top of it.
    pub(crate) fn bound_vector(&self, plan: &EvalPlan, dataflow: &GnnDataflow) -> [f64; 3] {
        let cycles = self.lower_bound(plan, dataflow.inter) as f64;
        let mut gb_accesses: u64 = 0;
        for fl in plan.keys().filter_map(|k| self.phase_floor(k)) {
            if fl.classes.a_input != OperandClass::Intermediate {
                gb_accesses += fl.a_reads;
            }
            if fl.classes.b_input != OperandClass::Intermediate {
                gb_accesses += fl.b_reads;
            }
            if fl.classes.output != OperandClass::Intermediate {
                gb_accesses += fl.writes;
            }
        }
        let energy = gb_accesses as f64 * self.energy_model.gb_access_pj;
        let buffering = match dataflow.inter {
            InterPhase::Sequential => self.workload.intermediate_elems(dataflow.phase_order),
            InterPhase::SequentialPipeline => {
                if plan.sp_optimized {
                    0
                } else {
                    plan.pel.unwrap_or(0)
                }
            }
            InterPhase::ParallelPipeline => 2 * plan.pel.unwrap_or(0),
        };
        let footprint = buffering.saturating_mul(self.cfg.word_bytes as u64) as f64;
        [cycles, energy, footprint]
    }
}

/// One phase's compulsory floor (see [`PreparedEval::phase_floor`]): MACs, PE
/// footprint, class-attributed streaming reads (`a`/`b` operands) and
/// single-write outputs, at the phase's bandwidth share.
struct PhaseFloor {
    macs: u64,
    footprint: u64,
    a_reads: u64,
    b_reads: u64,
    writes: u64,
    classes: OperandClasses,
    bandwidth: BandwidthShare,
}

/// A single-threaded memo of phase simulations for one
/// [`PreparedEval`]-prepared workload, keyed by the full phase plan.
///
/// Purely an execution optimisation: hits return the exact [`PhaseStats`] and
/// chunk timeline the engine would recompute, so cached and uncached
/// evaluations are bit-identical. Entries whose chunk timelines are enormous
/// (degenerately tiled PP candidates) are recomputed instead of cached to keep
/// the memo's footprint bounded.
#[derive(Debug, Default)]
pub struct PhaseSimCache {
    inner: RefCell<HashMap<PhaseKey, Arc<PhaseResult>>>,
    hits: Cell<usize>,
    misses: Cell<usize>,
}

/// Chunk-timeline length (in chunks) above which a simulation is recomputed
/// per use rather than cached (a degenerately-tiled PP candidate can mark
/// millions of chunks).
pub(crate) const MAX_CACHED_MARKS: u64 = 1 << 16;

impl PhaseSimCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lookups answered from the memo.
    pub fn hits(&self) -> usize {
        self.hits.get()
    }

    /// Lookups that ran a phase engine (unique phase configurations, plus
    /// recomputations of oversized-timeline entries).
    pub fn misses(&self) -> usize {
        self.misses.get()
    }

    /// Distinct phase configurations currently memoised.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// `true` when nothing is memoised yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stats for `key`, simulated via `prep` on miss.
    fn stats(&self, prep: &PreparedEval<'_>, key: &PhaseKey) -> Arc<PhaseResult> {
        if let Some(hit) = self.inner.borrow().get(key) {
            self.hits.set(self.hits.get() + 1);
            return Arc::clone(hit);
        }
        self.misses.set(self.misses.get() + 1);
        let stats = Arc::new(prep.simulate(key));
        if stats.1.len() <= MAX_CACHED_MARKS {
            self.inner.borrow_mut().insert(*key, Arc::clone(&stats));
        }
        stats
    }
}

/// The `Pel` implied by a pipelined dataflow's granularity for `workload`:
/// intermediate-matrix geometry per Section IV-D, with footnote 1's "max tile
/// across the two phases" rule. `None` when the loop-order pair cannot
/// pipeline. Shared by [`evaluate`] and the chain lowering of
/// [`crate::models::to_chain`] so both agree on chunk sizes.
pub(crate) fn intermediate_pel(workload: &GnnWorkload, dataflow: &GnnDataflow) -> Option<u64> {
    let granularity = dataflow.granularity()?;
    let (rows, cols, t_row_max, t_col_max) = match dataflow.phase_order {
        PhaseOrder::AC => (
            workload.v,
            workload.f,
            dataflow.agg.tile_of(Dim::V).max(dataflow.cmb.tile_of(Dim::V)),
            dataflow.agg.tile_of(Dim::F).max(dataflow.cmb.tile_of(Dim::F)),
        ),
        PhaseOrder::CA => (
            workload.v,
            workload.g,
            dataflow.cmb.tile_of(Dim::V).max(dataflow.agg.tile_of(Dim::N)),
            dataflow.cmb.tile_of(Dim::G).max(dataflow.agg.tile_of(Dim::F)),
        ),
    };
    Some(granularity.pel(rows, cols, t_row_max, t_col_max) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_dataflow::presets::Preset;
    use omega_graph::DatasetSpec;
    use proptest::prelude::*;

    fn small_workload() -> GnnWorkload {
        let d = DatasetSpec::mutag().generate(1);
        GnnWorkload::gcn_layer(&d, 16)
    }

    fn eval_preset(name: &str, wl: &GnnWorkload, cfg: &AccelConfig) -> CostReport {
        let df = crate::mapper::concretize_preset(&Preset::by_name(name).unwrap(), wl, cfg);
        evaluate(wl, &df, cfg).unwrap()
    }

    #[test]
    fn all_presets_evaluate_on_mutag() {
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        for p in Preset::all() {
            let r = eval_preset(p.name, &wl, &cfg);
            assert!(r.total_cycles > 0, "{}", p.name);
            assert!(r.energy.total_pj() > 0.0, "{}", p.name);
            assert_eq!(r.agg.macs, wl.nnz * wl.f as u64, "{}", p.name);
            assert_eq!(r.cmb.macs, (wl.v * wl.f * wl.g) as u64, "{}", p.name);
        }
    }

    #[test]
    fn seq_runtime_is_sum_of_phases() {
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        let r = eval_preset("Seq1", &wl, &cfg);
        assert_eq!(r.total_cycles, r.agg.cycles + r.cmb.cycles);
        // Table III: Seq buffers the whole V×F intermediate.
        assert_eq!(r.intermediate_buffer_elems, (wl.v * wl.f) as u64);
        assert!(!r.sp_optimized);
        assert!(r.granularity.is_none());
    }

    #[test]
    fn sp_optimized_has_zero_intermediate_buffering_and_traffic() {
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        let r = eval_preset("SP2", &wl, &cfg);
        assert!(r.sp_optimized);
        assert_eq!(r.intermediate_buffer_elems, 0);
        use omega_accel::OperandClass;
        assert_eq!(r.counters.gb_of(OperandClass::Intermediate), 0);
        assert_eq!(r.total_cycles, r.agg.cycles + r.cmb.cycles);
    }

    #[test]
    fn sp_beats_seq_on_intermediate_energy() {
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        let seq = eval_preset("Seq1", &wl, &cfg);
        let sp = eval_preset("SP2", &wl, &cfg);
        assert!(sp.energy.intermediate_pj < seq.energy.intermediate_pj);
    }

    #[test]
    fn pp_buffers_two_pel_and_uses_pipeline_runtime() {
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        let r = eval_preset("PP3", &wl, &cfg);
        let pel = r.pel.unwrap();
        assert_eq!(r.intermediate_buffer_elems, 2 * pel);
        // Pipelining overlaps: total < sum of phases, ≥ the slower phase.
        assert!(r.total_cycles <= r.agg.cycles + r.cmb.cycles);
        assert!(r.total_cycles >= r.agg.cycles.max(r.cmb.cycles));
        assert!(r.granularity.is_some());
    }

    #[test]
    fn pp_intermediate_energy_discounted_by_partition() {
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        let seq = eval_preset("Seq1", &wl, &cfg);
        let pp = eval_preset("PP1", &wl, &cfg);
        // Same order of intermediate accesses but the PP partition is small →
        // cheaper per access.
        let seq_rate = seq.energy.intermediate_pj
            / seq.counters.gb_of(omega_accel::OperandClass::Intermediate).max(1) as f64;
        let pp_rate = pp.energy.intermediate_pj
            / pp.counters.gb_of(omega_accel::OperandClass::Intermediate).max(1) as f64;
        assert!(pp_rate < seq_rate, "pp {pp_rate} vs seq {seq_rate}");
    }

    #[test]
    fn buffer_peak_composes_like_the_runtime() {
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        let phase_peak = |s: &PhaseStats| -> u64 {
            s.gb_peak_bytes.saturating_add(s.rf_peak_bytes.saturating_mul(s.pe_footprint as u64))
        };
        // Sequential: max of the phase peaks plus Table III buffering.
        let seq = eval_preset("Seq1", &wl, &cfg);
        assert!(seq.buffer_peak_bytes > 0);
        assert_eq!(
            seq.buffer_peak_bytes,
            phase_peak(&seq.agg).max(phase_peak(&seq.cmb))
                + seq.intermediate_buffer_elems * cfg.word_bytes as u64
        );
        // ParallelPipeline: concurrent phases add, plus the 2×Pel ping-pong.
        let pp = eval_preset("PP3", &wl, &cfg);
        assert_eq!(
            pp.buffer_peak_bytes,
            phase_peak(&pp.agg)
                + phase_peak(&pp.cmb)
                + pp.intermediate_buffer_elems * cfg.word_bytes as u64
        );
    }

    #[test]
    fn enforce_capacity_is_identity_when_unbounded_and_costed_when_finite() {
        let wl = small_workload();
        let cfg = AccelConfig::paper_default(); // enforce_capacity defaults off
        let baseline = eval_preset("Seq1", &wl, &cfg);
        // Turning enforcement on with the (ample) default budgets must not
        // change anything unless a working set actually overflows.
        let mut enforced = cfg;
        enforced.knobs.enforce_capacity = true;
        enforced.rf_bytes_per_pe = usize::MAX;
        enforced.gb_bytes = usize::MAX;
        let wide = {
            let preset = Preset::by_name("Seq1").unwrap();
            let ctx = wl.tile_context(preset.pattern.phase_order);
            let df = preset.concretize(&ctx, enforced.num_pes, enforced.num_pes);
            evaluate(&wl, &df, &enforced).unwrap()
        };
        assert_eq!(wide.total_cycles, baseline.total_cycles);
        assert_eq!(wide.counters.total_gb_reads() + wide.counters.total_gb_writes(), baseline.counters.total_gb_reads() + baseline.counters.total_gb_writes());
        // A starved global buffer forces spill traffic and extra cycles.
        let mut tight = enforced;
        tight.gb_bytes = 1 << 10;
        let starved = {
            let preset = Preset::by_name("Seq1").unwrap();
            let ctx = wl.tile_context(preset.pattern.phase_order);
            let df = preset.concretize(&ctx, tight.num_pes, tight.num_pes);
            evaluate(&wl, &df, &tight).unwrap()
        };
        assert!(starved.total_cycles > baseline.total_cycles);
        assert!(starved.counters.total_gb_reads() + starved.counters.total_gb_writes() > baseline.counters.total_gb_reads() + baseline.counters.total_gb_writes());
        // The reported demand itself is capacity-independent.
        assert_eq!(starved.buffer_peak_bytes, baseline.buffer_peak_bytes);
    }

    #[test]
    fn illegal_dataflow_is_rejected() {
        use omega_dataflow::{IntraTiling, LoopOrder, Phase};
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        let agg_order = LoopOrder::new(Phase::Aggregation, [Dim::N, Dim::V, Dim::F]).unwrap();
        let cmb_order = LoopOrder::new(Phase::Combination, [Dim::V, Dim::G, Dim::F]).unwrap();
        let df = GnnDataflow {
            inter: InterPhase::ParallelPipeline,
            phase_order: PhaseOrder::AC,
            agg: IntraTiling::new(Phase::Aggregation, agg_order, [1, 2, 2]),
            cmb: IntraTiling::new(Phase::Combination, cmb_order, [2, 2, 1]),
        };
        let err = evaluate(&wl, &df, &cfg).unwrap_err();
        assert!(matches!(err, EvalError::Invalid(_)));
        assert!(err.to_string().contains("NVF"));
    }

    #[test]
    fn ca_phase_order_evaluates() {
        use omega_dataflow::{IntraTiling, LoopOrder, Phase};
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        // Seq CA with simple tilings.
        let agg_order = LoopOrder::new(Phase::Aggregation, [Dim::V, Dim::F, Dim::N]).unwrap();
        let cmb_order = LoopOrder::new(Phase::Combination, [Dim::V, Dim::G, Dim::F]).unwrap();
        let df = GnnDataflow {
            inter: InterPhase::Sequential,
            phase_order: PhaseOrder::CA,
            agg: IntraTiling::new(Phase::Aggregation, agg_order, [16, 16, 1]),
            cmb: IntraTiling::new(Phase::Combination, cmb_order, [32, 16, 1]),
        };
        let r = evaluate(&wl, &df, &cfg).unwrap();
        // CA aggregation streams G-wide rows.
        assert_eq!(r.agg.macs, wl.nnz * wl.g as u64);
        // CA intermediate is V×G.
        assert_eq!(r.intermediate_buffer_elems, (wl.v * wl.g) as u64);
    }

    fn gat_workload() -> GnnWorkload {
        let d = DatasetSpec::mutag().generate(1);
        GnnWorkload::gat_layer(&d, 16, 4)
    }

    #[test]
    fn gat_workload_prepends_a_scoring_phase() {
        let wl = gat_workload();
        let cfg = AccelConfig::paper_default();
        for name in ["Seq1", "SP2", "PP3"] {
            let r = eval_preset(name, &wl, &cfg);
            let sddmm = r.sddmm.as_ref().expect("attention workload scores");
            // heads × nnz × (F/heads) dot MACs; sequential prefix.
            let att = wl.attention.unwrap();
            assert_eq!(
                sddmm.macs,
                wl.nnz * (att.heads * att.dot_width(wl.f)) as u64,
                "{name}"
            );
            assert!(sddmm.cycles > 0, "{name}");
            let base = match name {
                // PP overlaps agg/cmb, Seq/SP add them.
                "PP3" => r.total_cycles,
                _ => r.agg.cycles + r.cmb.cycles + sddmm.cycles,
            };
            assert_eq!(
                r.total_cycles, base,
                "{name}: sddmm must add sequentially"
            );
            // Scores flow through the Score bucket somewhere (GB or RF).
            let plain = {
                let mut p = wl.clone();
                p.attention = None;
                eval_preset(name, &p, &cfg)
            };
            assert!(r.total_cycles > plain.total_cycles, "{name}");
        }
    }

    #[test]
    fn sp_optimized_gat_keeps_scores_in_the_register_files() {
        let wl = gat_workload();
        let cfg = AccelConfig::paper_default();
        let seq = eval_preset("Seq1", &wl, &cfg);
        let sp = eval_preset("SP2", &wl, &cfg);
        use omega_accel::OperandClass;
        assert!(seq.counters.gb_of(OperandClass::EdgeScore) > 0);
        assert_eq!(sp.counters.gb_of(OperandClass::EdgeScore), 0, "SP-Optimized scores stay local");
    }

    #[test]
    fn gat_rejects_ca_and_sddmm_illegal_orders() {
        use omega_dataflow::{IntraTiling, LoopOrder, Phase};
        let wl = gat_workload();
        let cfg = AccelConfig::paper_default();
        // CA phase order: scores need the AC structure.
        let agg_order = LoopOrder::new(Phase::Aggregation, [Dim::V, Dim::F, Dim::N]).unwrap();
        let cmb_order = LoopOrder::new(Phase::Combination, [Dim::V, Dim::G, Dim::F]).unwrap();
        let ca = GnnDataflow {
            inter: InterPhase::Sequential,
            phase_order: PhaseOrder::CA,
            agg: IntraTiling::new(Phase::Aggregation, agg_order, [16, 16, 1]),
            cmb: IntraTiling::new(Phase::Combination, cmb_order, [32, 16, 1]),
        };
        assert_eq!(evaluate(&wl, &ca, &cfg).unwrap_err(), EvalError::AttentionRequiresAc);
        // N-before-V aggregation order: the SDDMM cannot stream its softmax.
        let nvf = LoopOrder::new(Phase::Aggregation, [Dim::N, Dim::V, Dim::F]).unwrap();
        let bad = GnnDataflow {
            inter: InterPhase::Sequential,
            phase_order: PhaseOrder::AC,
            agg: IntraTiling::new(Phase::Aggregation, nvf, [1, 16, 16]),
            cmb: IntraTiling::new(Phase::Combination, cmb_order, [32, 16, 1]),
        };
        let err = evaluate(&wl, &bad, &cfg).unwrap_err();
        assert!(matches!(
            err,
            EvalError::Invalid(ValidationError::SddmmOrderUnsupported { .. })
        ));
        // The same dataflows are fine without attention.
        let mut plain = wl.clone();
        plain.attention = None;
        assert!(evaluate(&plain, &ca, &cfg).is_ok());
        assert!(evaluate(&plain, &bad, &cfg).is_ok());
    }

    #[test]
    fn gat_cached_evaluation_is_bit_identical() {
        let wl = gat_workload();
        let cfg = AccelConfig::paper_default();
        let prep = PreparedEval::new(&wl, &cfg);
        let cache = PhaseSimCache::new();
        let ctx = wl.tile_context(PhaseOrder::AC);
        for name in ["Seq1", "Seq2", "SP1", "SP2", "PP1"] {
            let df = Preset::by_name(name).unwrap().concretize(&ctx, 512, 512);
            let direct = prep.evaluate(&df).unwrap();
            let cached = prep.evaluate_with_cache(&df, &cache).unwrap();
            assert_eq!(direct.total_cycles, cached.total_cycles, "{name}");
            assert_eq!(direct.counters, cached.counters, "{name}");
            assert_eq!(
                direct.sddmm.as_ref().map(|s| s.cycles),
                cached.sddmm.as_ref().map(|s| s.cycles),
                "{name}"
            );
        }
        assert!(cache.hits() > 0, "shared agg tilings must share SDDMM sims");
    }

    #[test]
    fn post_op_adds_a_sequential_elementwise_suffix() {
        use omega_accel::engine::ElementwiseOp;
        let mut wl = small_workload();
        let cfg = AccelConfig::paper_default();
        for name in ["Seq1", "SP2", "PP3"] {
            let plain = eval_preset(name, &wl, &cfg);
            assert!(plain.post.is_none(), "{name}");
            wl.post_op = Some(ElementwiseOp::Activation);
            let act = eval_preset(name, &wl, &cfg);
            let post = act.post.as_ref().expect("post stats");
            assert!(post.cycles > 0, "{name}");
            // One ALU op per output element for the activation sweep.
            assert_eq!(post.macs, (wl.v * wl.g) as u64, "{name}");
            // The suffix adds sequentially on top of the unchanged composition.
            assert_eq!(act.total_cycles, plain.total_cycles + post.cycles, "{name}");
            assert_eq!(act.agg.cycles, plain.agg.cycles, "{name}");
            assert_eq!(act.cmb.cycles, plain.cmb.cycles, "{name}");
            // LayerNorm's stats sweep costs more than the activation.
            wl.post_op = Some(ElementwiseOp::LayerNorm);
            let norm = eval_preset(name, &wl, &cfg);
            let norm_post = norm.post.as_ref().unwrap();
            assert_eq!(norm_post.macs, 2 * (wl.v * wl.g) as u64, "{name}");
            assert!(norm_post.cycles > post.cycles, "{name}");
            wl.post_op = None;
        }
    }

    #[test]
    fn post_op_follows_the_final_phase_tiling_under_ca() {
        use omega_accel::engine::ElementwiseOp;
        use omega_dataflow::{IntraTiling, LoopOrder, Phase};
        let mut wl = small_workload();
        wl.post_op = Some(ElementwiseOp::LayerNorm);
        let cfg = AccelConfig::paper_default();
        let agg_order = LoopOrder::new(Phase::Aggregation, [Dim::V, Dim::F, Dim::N]).unwrap();
        let cmb_order = LoopOrder::new(Phase::Combination, [Dim::V, Dim::G, Dim::F]).unwrap();
        let df = GnnDataflow {
            inter: InterPhase::Sequential,
            phase_order: PhaseOrder::CA,
            agg: IntraTiling::new(Phase::Aggregation, agg_order, [16, 16, 1]),
            cmb: IntraTiling::new(Phase::Combination, cmb_order, [32, 16, 1]),
        };
        let r = evaluate(&wl, &df, &cfg).unwrap();
        let post = r.post.as_ref().expect("post stats");
        // Two sweeps over V×G on the CA-final (Aggregation) tiling.
        assert_eq!(post.macs, 2 * (wl.v * wl.g) as u64);
        assert_eq!(r.total_cycles, r.agg.cycles + r.cmb.cycles + post.cycles);
        // Post traffic lands in the Output bucket.
        use omega_accel::OperandClass;
        assert!(r.counters.gb_of(OperandClass::Output) > 0);
    }

    #[test]
    fn post_op_cached_evaluation_is_bit_identical() {
        use omega_accel::engine::ElementwiseOp;
        let mut wl = small_workload();
        wl.post_op = Some(ElementwiseOp::Activation);
        let cfg = AccelConfig::paper_default();
        let prep = PreparedEval::new(&wl, &cfg);
        let cache = PhaseSimCache::new();
        let ctx = wl.tile_context(PhaseOrder::AC);
        for name in ["Seq1", "Seq2", "SP1", "SP2", "PP1"] {
            let df = Preset::by_name(name).unwrap().concretize(&ctx, 512, 512);
            let direct = prep.evaluate(&df).unwrap();
            let cached = prep.evaluate_with_cache(&df, &cache).unwrap();
            assert_eq!(direct.total_cycles, cached.total_cycles, "{name}");
            assert_eq!(direct.counters, cached.counters, "{name}");
            assert_eq!(
                direct.post.as_ref().map(|s| s.cycles),
                cached.post.as_ref().map(|s| s.cycles),
                "{name}"
            );
        }
        assert!(cache.hits() > 0, "shared final tilings must share post sims");
    }

    #[test]
    fn timeline_len_predicts_the_simulated_chunk_marks() {
        // The DSE sizes its waves by `timeline_len` before simulating, so it
        // must match what the engines record, for both phase orders and both
        // chunk sides.
        let wl = small_workload();
        let cfg = AccelConfig::paper_default();
        let prep = PreparedEval::new(&wl, &cfg);
        let mut sides = std::collections::HashSet::new();
        for df in crate::mapper::extended_candidates(&wl, &cfg) {
            let plan = prep.plan(&df).expect("presets are valid");
            for key in plan.keys() {
                let marks = prep.simulate(key).1.len();
                assert_eq!(prep.timeline_len(key), marks, "{df} {key:?}");
                sides.extend(key.opts.chunk.map(|c| format!("{:?}", c.side)));
            }
        }
        assert_eq!(sides.len(), 2, "both chunk sides covered: {sides:?}");
    }

    /// A layer over a bare degree vector: `f` input columns, 16 hidden.
    fn degree_workload(degrees: &[usize], f: usize) -> GnnWorkload {
        let (v, nnz) = (degrees.len(), degrees.iter().map(|&d| d as u64).sum::<u64>());
        GnnWorkload {
            name: "degrees".into(),
            v,
            f,
            g: 16,
            degrees: degrees.to_vec(),
            nnz,
            mean_degree: if v > 0 { nnz as f64 / v as f64 } else { 0.0 },
            max_degree: degrees.iter().copied().max().unwrap_or(0),
            attention: None,
            post_op: None,
        }
    }

    /// The layers over `degrees` the admissibility gate runs, each on its
    /// own machine: GCN on the paper default, GAT (an SDDMM prefix) under
    /// an enforced capacity budget (32 B RFs, a 4 KiB GB) and GCN with a
    /// LayerNorm post-op on a NoC throttled to 2 elements per cycle — then
    /// GCN under the other two machines.
    fn gate_runs(degrees: &[usize], f: usize) -> Vec<(GnnWorkload, AccelConfig)> {
        let mut tight = AccelConfig::paper_default();
        tight.rf_bytes_per_pe = 32;
        tight.gb_bytes = 4 << 10;
        tight.knobs.enforce_capacity = true;
        let throttled = AccelConfig::paper_default().with_bandwidth(2);
        let gcn = degree_workload(degrees, f);
        let mut gat = gcn.clone();
        gat.attention = Some(crate::AttentionSpec::new(4));
        let mut post = gcn.clone();
        post.post_op = Some(omega_accel::engine::ElementwiseOp::LayerNorm);
        vec![
            (gcn.clone(), AccelConfig::paper_default()),
            (gat, tight),
            (post, throttled),
            (gcn.clone(), tight),
            (gcn, throttled),
        ]
    }

    /// Every sweep candidate of `wl` on `cfg` — the 6,656 patterns and the
    /// presets — evaluates to at least its cycle lower bound, and to at
    /// least its bound vector on every axis.
    fn check_admissible(wl: &GnnWorkload, cfg: &AccelConfig) -> Result<(), TestCaseError> {
        let prep = PreparedEval::new(wl, cfg);
        let cache = PhaseSimCache::new();
        for df in crate::dse::sweep_candidates(wl, cfg) {
            let Ok(plan) = prep.plan(&df) else { continue };
            let report = prep.run_plan(&df, &plan, Some(&cache));
            let bound = prep.lower_bound(&plan, df.inter);
            prop_assert!(bound <= report.total_cycles, "{}: {} > {}", df, bound, report.total_cycles);
            let axes = [
                report.total_cycles as f64,
                report.energy.total_pj(),
                report.buffer_peak_bytes as f64,
            ];
            for (axis, (b, t)) in prep.bound_vector(&plan, &df).into_iter().zip(axes).enumerate() {
                prop_assert!(b <= t, "{}: axis {}: bound {} > {}", df, axis, b, t);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn lower_bounds_never_exceed_the_evaluation(
            degrees in proptest::collection::vec(0usize..12, 1..90),
            hub in (0usize..400, 0usize..90),
            f in 4usize..40,
        ) {
            let mut degrees = degrees;
            let at = hub.1 % degrees.len();
            degrees[at] = hub.0;
            for (wl, cfg) in gate_runs(&degrees, f) {
                check_admissible(&wl, &cfg)?;
            }
        }
    }

    #[test]
    fn lower_bounds_never_exceed_the_evaluation_on_adversarial_vectors() {
        // `summary_identity`'s star, holes, lone-hub and multiples vectors.
        let mut star = vec![2usize; 64];
        star[0] = 64;
        let holes: Vec<usize> = (0..80).map(|i| if i % 3 == 0 { 0 } else { 5 + i % 7 }).collect();
        let mut lone_hub = vec![0usize; 97];
        lone_hub[41] = 500;
        let multiples: Vec<usize> = (0..64).map(|i| 4 * (i % 9)).collect();
        for degrees in [star, holes, lone_hub, multiples] {
            for (wl, cfg) in gate_runs(&degrees, 24) {
                check_admissible(&wl, &cfg).unwrap();
            }
        }
    }
}
