//! Generalisation beyond GNNs: multiphase sparse/dense kernel chains.
//!
//! Section VI: "the taxonomy and inter-phase analysis ... can be generalized to
//! dataflows for multiphase computations (GEMM-GEMM / GEMM-SpMM / SpMM-SpMM).
//! One immediate example is Deep Learning Recommendation Models that is built
//! of an SpMM and a DenseGEMM in parallel followed by concatenation followed by
//! a DenseGEMM." This module models such chains: a stage is one planned
//! phase — the same `PhaseKey` a layer evaluation simulates — and stages are
//! grouped sequentially, pipelined pairwise (the SP/PP composition), or in
//! parallel on partitioned PEs (the DLRM front end). The sparse operand is
//! the evaluation's, not a stage's: [`evaluate_chain`] prepares the one graph
//! every SpMM/SDDMM stage of the chain walks.
//!
//! Pipelined links come in two flavours:
//!
//! * **idealised** (`split: None`) — both stages keep the full NoC, an upper
//!   bound no physical schedule can beat (useful as a what-if);
//! * **partitioned** (`split: Some(..)`) — the paper's PP strategy: producer
//!   and consumer run *concurrently* on disjoint PE partitions, each throttled
//!   to its proportional NoC share ([`AccelConfig::partition_bandwidth`]).
//!
//! Whole GNN models lower onto chains via [`crate::models::to_chain`], which
//! the model-level explorer of [`crate::dse::model`] searches over.

use serde::Serialize;

use omega_accel::engine::{
    ChunkSide, ChunkSpec, ElementwiseOp, ElementwiseWorkload, EngineOptions, GemmDims,
    OperandClasses, PreparedSpmm,
};
use omega_accel::{
    AccelConfig, AccessCounters, BandwidthShare, EnergyModel, OperandClass, PhaseStats,
};
use omega_dataflow::IntraTiling;

use crate::cost::EnergyBreakdown;
use crate::evaluate::{PhaseKey, PhaseKind, PhaseResult};
use crate::pipeline::pipeline_runtime_of_timelines;

/// A named stage of a multiphase chain: one planned phase — its kernel shape,
/// concrete tiling, the operand classes that decide its Fig. 13 buckets and
/// the engine options (residency, capacity budget, reference walk) it runs
/// with. [`evaluate_chain`] overwrites the options' bandwidth share and chunk
/// spec from the stage's links; the sparse stages walk the chain's one graph.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Stage label (for reports).
    pub name: String,
    /// The phase the stage runs.
    pub(crate) phase: PhaseKey,
}

impl Stage {
    /// A stage running `kind` on `tiling` with its traffic in `classes` and
    /// plain options: no residency, no capacity budget. The bandwidth share is
    /// a placeholder that [`evaluate_chain`] replaces.
    fn unplanned(
        name: impl Into<String>,
        kind: PhaseKind,
        tiling: IntraTiling,
        classes: OperandClasses,
    ) -> Self {
        let opts = EngineOptions::plain(BandwidthShare { dist: 0, red: 0 });
        Stage { name: name.into(), phase: PhaseKey { kind, tiling, classes, opts } }
    }

    /// Builds a GEMM stage (AC Combination classes: reads an intermediate,
    /// writes an output).
    pub fn gemm(name: impl Into<String>, dims: GemmDims, tiling: IntraTiling) -> Self {
        Self::unplanned(name, PhaseKind::Gemm { dims }, tiling, OperandClasses::combination_ac())
    }

    /// Builds an SpMM stage over the chain's graph with a dense operand of
    /// `width` columns (AC Aggregation classes: reads input features, writes
    /// an intermediate).
    pub fn spmm(name: impl Into<String>, width: usize, tiling: IntraTiling) -> Self {
        Self::unplanned(name, PhaseKind::Spmm { width }, tiling, OperandClasses::aggregation_ac())
    }

    /// Builds an SDDMM attention-scoring stage over the chain's graph: `heads`
    /// per-edge dot products of `dot_width` elements plus the edge-wise
    /// softmax, on a tiling that satisfies `omega_dataflow::validate_sddmm`.
    pub fn sddmm(
        name: impl Into<String>,
        dot_width: usize,
        heads: usize,
        tiling: IntraTiling,
    ) -> Self {
        let kind = PhaseKind::Sddmm { dot_width, heads };
        Self::unplanned(name, kind, tiling, OperandClasses::sddmm())
    }

    /// Builds an elementwise/normalization stage on a `rows × width` output
    /// matrix.
    pub fn elementwise(
        name: impl Into<String>,
        rows: usize,
        width: usize,
        op: ElementwiseOp,
        tiling: IntraTiling,
    ) -> Self {
        let kind = PhaseKind::Elementwise(ElementwiseWorkload { rows, width, op });
        Self::unplanned(name, kind, tiling, OperandClasses::elementwise_on(OperandClass::Output))
    }

    /// A phase [`crate::evaluate`] planned for `layer` as a chain stage named
    /// after its role (`{layer}.att`, `.agg`, `.cmb` or `.post`).
    pub(crate) fn planned(layer: &str, phase: &PhaseKey) -> Self {
        let role = match phase.kind {
            PhaseKind::Sddmm { .. } => "att",
            PhaseKind::Spmm { .. } => "agg",
            PhaseKind::Gemm { .. } => "cmb",
            PhaseKind::Elementwise(_) => "post",
        };
        Stage { name: format!("{layer}.{role}"), phase: *phase }
    }

    /// Runs the stage over `graph` at `bandwidth` with the chunk spec `chunk`.
    pub(crate) fn run(
        &self,
        graph: &PreparedSpmm<'_>,
        cfg: &AccelConfig,
        bandwidth: BandwidthShare,
        chunk: Option<ChunkSpec>,
    ) -> PhaseResult {
        let opts = EngineOptions { bandwidth, chunk, ..self.phase.opts };
        PhaseKey { opts, ..self.phase }.simulate(graph, cfg)
    }

    /// The stage's concrete tiling.
    pub fn tiling(&self) -> &IntraTiling {
        &self.phase.tiling
    }

    /// PEs the stage's tiling occupies.
    pub fn pe_footprint(&self) -> usize {
        self.tiling().pe_footprint()
    }
}

/// A node of the chain: a single stage or a parallel group (stages running
/// concurrently on partitioned PEs, like DLRM's bottom MLP ∥ embedding SpMM).
#[derive(Debug, Clone)]
pub enum ChainNode {
    /// One stage on the whole array.
    Single(Stage),
    /// Concurrent stages; the group finishes with its slowest member.
    Parallel(Vec<Stage>),
}

/// A producer/consumer PE partition for a pipelined link (the paper's PP
/// strategy): the two stages run concurrently on disjoint PE allocations, each
/// receiving its proportional NoC bandwidth share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct PartitionSplit {
    /// PEs allocated to the producing stage.
    pub producer_pes: usize,
    /// PEs allocated to the consuming stage.
    pub consumer_pes: usize,
}

/// How one node hands data to the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Link {
    /// Barrier: the next node starts after this one fully finishes.
    Sequential,
    /// Producer/consumer pipelining at `pel` elements per chunk (only between
    /// two `Single` nodes). With `split: None` both stages keep the full NoC
    /// (an idealised upper bound); with `split: Some(..)` they run on
    /// partitioned PEs with proportionally split bandwidth (physical PP).
    Pipelined {
        /// Elements per pipeline chunk.
        pel: u64,
        /// Optional PE partition (`None` = idealised full-resource overlap).
        split: Option<PartitionSplit>,
    },
}

impl Link {
    /// An idealised pipelined link (both stages keep their full resources).
    pub fn pipelined(pel: u64) -> Self {
        Link::Pipelined { pel, split: None }
    }

    /// A partitioned (physical PP) pipelined link.
    pub fn pipelined_split(pel: u64, producer_pes: usize, consumer_pes: usize) -> Self {
        Link::Pipelined { pel, split: Some(PartitionSplit { producer_pes, consumer_pes }) }
    }

    /// `true` for either pipelined flavour.
    pub fn is_pipelined(&self) -> bool {
        matches!(self, Link::Pipelined { .. })
    }
}

/// A multiphase kernel chain.
#[derive(Debug, Clone)]
pub struct Chain {
    /// Nodes in execution order.
    pub nodes: Vec<ChainNode>,
    /// Links between consecutive nodes (`nodes.len() - 1` entries).
    pub links: Vec<Link>,
}

/// Evaluation of one chain.
#[derive(Debug, Clone, Serialize)]
pub struct ChainReport {
    /// Per-stage statistics, flattened in chain order.
    pub stages: Vec<(String, PhaseStats)>,
    /// End-to-end cycles.
    pub total_cycles: u64,
    /// Merged counters.
    pub counters: AccessCounters,
    /// Buffer energy (all non-RF traffic charged at GB rate).
    pub energy: EnergyBreakdown,
    /// Peak on-chip working set in bytes across the chain's execution steps:
    /// concurrent stages (parallel groups, pipelined pairs plus their
    /// ping-pong buffer) add their per-stage peaks, sequential steps take the
    /// maximum — the chain-level analogue of
    /// [`crate::CostReport::buffer_peak_bytes`].
    pub buffer_peak_bytes: u64,
}

/// Structural failure of a chain evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// `links.len() + 1 != nodes.len()`.
    LinkCountMismatch {
        /// Number of nodes.
        nodes: usize,
        /// Number of links.
        links: usize,
    },
    /// A `Pipelined` link touches a `Parallel` node (pipelining is defined
    /// pairwise between single stages).
    PipelinedParallelNode {
        /// Index of the offending node.
        node: usize,
    },
    /// A stage would have to produce and consume pipelined chunks at once.
    PipelinedBothSides {
        /// Index of the offending node.
        node: usize,
    },
    /// A partitioned link allocates fewer PEs than the stage's tiling needs.
    PartitionTooSmall {
        /// Index of the offending node.
        node: usize,
        /// PEs allocated to the stage.
        allocated: usize,
        /// PEs the stage's tiling occupies.
        footprint: usize,
    },
    /// A partition allocates more PEs than the machine has.
    PartitionOversubscribed {
        /// Producer + consumer allocation.
        allocated: usize,
        /// PEs available.
        available: usize,
    },
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::LinkCountMismatch { nodes, links } => write!(
                f,
                "need one link between consecutive nodes ({nodes} nodes, {links} links)"
            ),
            ChainError::PipelinedParallelNode { node } => {
                write!(f, "pipelined links require single stages on both ends (node {node})")
            }
            ChainError::PipelinedBothSides { node } => {
                write!(f, "a stage cannot be pipelined on both sides (node {node})")
            }
            ChainError::PartitionTooSmall { node, allocated, footprint } => write!(
                f,
                "partition too small at node {node}: {allocated} PEs allocated, tiling needs {footprint}"
            ),
            ChainError::PartitionOversubscribed { allocated, available } => {
                write!(f, "partition oversubscribed: {allocated} PEs allocated of {available}")
            }
        }
    }
}

impl std::error::Error for ChainError {}

/// Evaluates a chain on the accelerator, its SpMM and SDDMM stages walking
/// the one graph whose stored non-zeros per row are `degrees` (a chain with
/// no sparse stage passes `&[]`).
///
/// Returns a [`ChainError`] when the chain is structurally invalid: mismatched
/// link count, a pipelined link touching a `Parallel` node, a stage pipelined
/// on both sides, or a partitioned link whose PE allocation cannot hold its
/// stage (or oversubscribes the machine).
pub fn evaluate_chain(
    chain: &Chain,
    degrees: &[usize],
    cfg: &AccelConfig,
) -> Result<ChainReport, ChainError> {
    evaluate_chain_with(chain, &PreparedSpmm::new(degrees), cfg, true)
}

/// [`evaluate_chain`] over a prepared `graph`, expanding the stages' chunk
/// timelines into their `chunk_marks` only with `timelines`; the pipelined
/// totals are composed run-wise either way.
pub(crate) fn evaluate_chain_with(
    chain: &Chain,
    graph: &PreparedSpmm<'_>,
    cfg: &AccelConfig,
    timelines: bool,
) -> Result<ChainReport, ChainError> {
    if chain.links.len() + 1 != chain.nodes.len() {
        return Err(ChainError::LinkCountMismatch {
            nodes: chain.nodes.len(),
            links: chain.links.len(),
        });
    }
    let full_bw = cfg.full_bandwidth();
    let mut total: u64 = 0;

    // Pre-run every node, attaching chunk specs where a pipelined link needs
    // producer/consumer timestamps.
    let mut node_stats: Vec<Vec<(String, PhaseResult)>> = Vec::with_capacity(chain.nodes.len());
    for (i, node) in chain.nodes.iter().enumerate() {
        let produce = chain.links.get(i).and_then(|l| match l {
            Link::Pipelined { pel, split } => Some((*pel, *split)),
            Link::Sequential => None,
        });
        let consume = i.checked_sub(1).and_then(|j| match chain.links[j] {
            Link::Pipelined { pel, split } => Some((pel, split)),
            Link::Sequential => None,
        });
        match node {
            ChainNode::Single(stage) => {
                if produce.is_some() && consume.is_some() {
                    return Err(ChainError::PipelinedBothSides { node: i });
                }
                let (mut bandwidth, mut chunk) = (full_bw, None);
                if let Some((pel, split)) = produce {
                    if let Some(s) = split {
                        let allocated = s.producer_pes + s.consumer_pes;
                        if allocated > cfg.num_pes {
                            return Err(ChainError::PartitionOversubscribed {
                                allocated,
                                available: cfg.num_pes,
                            });
                        }
                        if stage.pe_footprint() > s.producer_pes {
                            return Err(ChainError::PartitionTooSmall {
                                node: i,
                                allocated: s.producer_pes,
                                footprint: stage.pe_footprint(),
                            });
                        }
                        bandwidth = cfg.partition_bandwidth(s.producer_pes, s.consumer_pes).0;
                    }
                    chunk = Some(ChunkSpec { side: ChunkSide::Produce, pel });
                } else if let Some((pel, split)) = consume {
                    if let Some(s) = split {
                        if stage.pe_footprint() > s.consumer_pes {
                            return Err(ChainError::PartitionTooSmall {
                                node: i,
                                allocated: s.consumer_pes,
                                footprint: stage.pe_footprint(),
                            });
                        }
                        bandwidth = cfg.partition_bandwidth(s.producer_pes, s.consumer_pes).1;
                    }
                    let pel = stage.phase.kind.consume_pel(pel, graph.degrees().len(), graph.nnz());
                    chunk = Some(ChunkSpec { side: ChunkSide::Consume, pel });
                }
                let result = stage.run(graph, cfg, bandwidth, chunk);
                node_stats.push(vec![(stage.name.clone(), result)]);
            }
            ChainNode::Parallel(group) => {
                if produce.is_some() || consume.is_some() {
                    return Err(ChainError::PipelinedParallelNode { node: i });
                }
                // Concurrent members occupy disjoint PE partitions: their
                // tilings must fit the machine together, like a pipelined
                // split must.
                let allocated: usize = group.iter().map(Stage::pe_footprint).sum();
                if allocated > cfg.num_pes {
                    return Err(ChainError::PartitionOversubscribed {
                        allocated,
                        available: cfg.num_pes,
                    });
                }
                // NoC bandwidth is shared between the concurrently-running
                // members in proportion to their PE allocations, exactly as the
                // PP cost model splits it between phases (Section V-C3).
                node_stats.push(
                    group
                        .iter()
                        .map(|s| {
                            let bandwidth = cfg.bandwidth_fraction(s.pe_footprint());
                            (s.name.clone(), s.run(graph, cfg, bandwidth, None))
                        })
                        .collect(),
                );
            }
        }
    }

    // Compose timing, and the working-set peak over the same execution steps:
    // everything running concurrently within a step (a parallel group's
    // members, a pipelined pair plus its ping-pong buffer) adds, sequential
    // steps take the max.
    let phase_peak = |s: &PhaseStats| -> u64 {
        s.gb_peak_bytes.saturating_add(s.rf_peak_bytes.saturating_mul(s.pe_footprint as u64))
    };
    let node_peak = |group: &[(String, PhaseResult)]| -> u64 {
        group.iter().map(|(_, (s, _))| phase_peak(s)).fold(0u64, u64::saturating_add)
    };
    let mut buffer_peak_bytes: u64 = 0;
    let mut i = 0;
    while i < chain.nodes.len() {
        if let Some(Link::Pipelined { pel, .. }) = chain.links.get(i) {
            let (_, producer) = &node_stats[i][0].1;
            let (_, consumer) = &node_stats[i + 1][0].1;
            total += pipeline_runtime_of_timelines(producer, consumer);
            let step = node_peak(&node_stats[i])
                .saturating_add(node_peak(&node_stats[i + 1]))
                .saturating_add(2 * pel * cfg.word_bytes as u64);
            buffer_peak_bytes = buffer_peak_bytes.max(step);
            i += 2;
        } else {
            let node_cycles = node_stats[i].iter().map(|(_, (s, _))| s.cycles).max().unwrap_or(0);
            total += node_cycles;
            buffer_peak_bytes = buffer_peak_bytes.max(node_peak(&node_stats[i]));
            i += 1;
        }
    }

    let mut counters = AccessCounters::default();
    for group in &node_stats {
        for (_, (s, _)) in group {
            counters.merge(&s.counters);
        }
    }
    let stages: Vec<(String, PhaseStats)> = node_stats
        .into_iter()
        .flatten()
        .map(|(name, (mut s, timeline))| {
            if timelines {
                s.chunk_marks = timeline.marks().collect();
            }
            (name, s)
        })
        .collect();
    let energy = EnergyBreakdown::from_counters(&counters, &EnergyModel::paper_default(), None);
    Ok(ChainReport { stages, total_cycles: total, counters, energy, buffer_peak_bytes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use omega_dataflow::{Dim, LoopOrder, Phase};

    fn cmb_tiling(tiles: [usize; 3]) -> IntraTiling {
        IntraTiling::new(
            Phase::Combination,
            LoopOrder::new(Phase::Combination, [Dim::V, Dim::G, Dim::F]).unwrap(),
            tiles,
        )
    }

    fn agg_tiling(tiles: [usize; 3]) -> IntraTiling {
        IntraTiling::new(
            Phase::Aggregation,
            LoopOrder::new(Phase::Aggregation, [Dim::V, Dim::F, Dim::N]).unwrap(),
            tiles,
        )
    }

    fn gemm_stage(name: &str, v: usize, f: usize, g: usize) -> Stage {
        Stage::gemm(name, GemmDims { v, f, g }, cmb_tiling([8, 8, 1]))
    }

    #[test]
    fn sequential_chain_adds_cycles() {
        let chain = Chain {
            nodes: vec![
                ChainNode::Single(gemm_stage("a", 32, 16, 8)),
                ChainNode::Single(gemm_stage("b", 32, 8, 4)),
            ],
            links: vec![Link::Sequential],
        };
        let cfg = AccelConfig::paper_default();
        let r = evaluate_chain(&chain, &[], &cfg).unwrap();
        assert_eq!(r.stages.len(), 2);
        assert_eq!(r.total_cycles, r.stages[0].1.cycles + r.stages[1].1.cycles);
        assert!(r.energy.total_pj() > 0.0);
    }

    #[test]
    fn parallel_group_takes_the_max() {
        let chain = Chain {
            nodes: vec![ChainNode::Parallel(vec![
                gemm_stage("big", 64, 64, 16),
                gemm_stage("small", 8, 8, 4),
            ])],
            links: vec![],
        };
        let cfg = AccelConfig::paper_default();
        let r = evaluate_chain(&chain, &[], &cfg).unwrap();
        let max = r.stages.iter().map(|(_, s)| s.cycles).max().unwrap();
        assert_eq!(r.total_cycles, max);
    }

    #[test]
    fn pipelined_link_overlaps() {
        let producer = Stage::spmm("embed", 16, agg_tiling([8, 8, 1]));
        let consumer = gemm_stage("top", 64, 16, 8);
        let pel = 8 * 16; // 8 rows
        let seq = Chain {
            nodes: vec![
                ChainNode::Single(producer.clone()),
                ChainNode::Single(consumer.clone()),
            ],
            links: vec![Link::Sequential],
        };
        let pip = Chain {
            nodes: vec![ChainNode::Single(producer), ChainNode::Single(consumer)],
            links: vec![Link::pipelined(pel)],
        };
        let cfg = AccelConfig::paper_default();
        let r_seq = evaluate_chain(&seq, &[4; 64], &cfg).unwrap();
        let r_pip = evaluate_chain(&pip, &[4; 64], &cfg).unwrap();
        assert!(r_pip.total_cycles <= r_seq.total_cycles);
        let slower = r_pip.stages.iter().map(|(_, s)| s.cycles).max().unwrap();
        assert!(r_pip.total_cycles >= slower);
    }

    #[test]
    fn partitioned_pipelined_link_throttles_both_sides() {
        let producer = Stage::spmm("embed", 16, agg_tiling([8, 8, 1]));
        let consumer = gemm_stage("top", 64, 16, 8);
        let pel = 8 * 16;
        let cfg = AccelConfig::paper_default();
        let ideal = Chain {
            nodes: vec![ChainNode::Single(producer.clone()), ChainNode::Single(consumer.clone())],
            links: vec![Link::pipelined(pel)],
        };
        let split = Chain {
            nodes: vec![ChainNode::Single(producer), ChainNode::Single(consumer)],
            links: vec![Link::pipelined_split(pel, 256, 256)],
        };
        let r_ideal = evaluate_chain(&ideal, &[4; 64], &cfg).unwrap();
        let r_split = evaluate_chain(&split, &[4; 64], &cfg).unwrap();
        // Halving the NoC share can only slow the stages down.
        assert!(r_split.total_cycles >= r_ideal.total_cycles);
        for ((_, a), (_, b)) in r_split.stages.iter().zip(&r_ideal.stages) {
            assert!(a.cycles >= b.cycles);
        }
    }

    #[test]
    fn chain_buffer_peak_maxes_sequential_and_adds_concurrent() {
        let cfg = AccelConfig::paper_default();
        let big = gemm_stage("big", 64, 64, 16);
        let small = gemm_stage("small", 8, 8, 4);
        let peak_of = |stage: Stage| {
            let chain = Chain { nodes: vec![ChainNode::Single(stage)], links: vec![] };
            evaluate_chain(&chain, &[], &cfg).unwrap().buffer_peak_bytes
        };
        let (pb, ps) = (peak_of(big.clone()), peak_of(small.clone()));
        assert!(pb > 0 && ps > 0);
        // Sequential steps take the max of the per-stage peaks…
        let seq = Chain {
            nodes: vec![ChainNode::Single(big.clone()), ChainNode::Single(small.clone())],
            links: vec![Link::Sequential],
        };
        assert_eq!(evaluate_chain(&seq, &[], &cfg).unwrap().buffer_peak_bytes, pb.max(ps));
        // …a parallel group's members add…
        let par = Chain {
            nodes: vec![ChainNode::Parallel(vec![big.clone(), small.clone()])],
            links: vec![],
        };
        assert_eq!(evaluate_chain(&par, &[], &cfg).unwrap().buffer_peak_bytes, pb + ps);
        // …and a pipelined pair adds both sides plus the 2×Pel ping-pong.
        let pel = 8 * 16;
        let pip = Chain {
            nodes: vec![ChainNode::Single(big), ChainNode::Single(small)],
            links: vec![Link::pipelined(pel)],
        };
        let r = evaluate_chain(&pip, &[], &cfg).unwrap();
        // Chunked runs re-simulate the stages, so compare against the report's
        // own per-stage peaks rather than the unchunked singles.
        let stage_peak = |s: &omega_accel::PhaseStats| {
            s.gb_peak_bytes + s.rf_peak_bytes * s.pe_footprint as u64
        };
        let expected = stage_peak(&r.stages[0].1)
            + stage_peak(&r.stages[1].1)
            + 2 * pel * cfg.word_bytes as u64;
        assert_eq!(r.buffer_peak_bytes, expected);
    }

    #[test]
    fn partition_errors_are_typed() {
        let cfg = AccelConfig::paper_default();
        let mk = |link: Link| Chain {
            nodes: vec![
                ChainNode::Single(gemm_stage("a", 32, 16, 8)), // footprint 64
                ChainNode::Single(gemm_stage("b", 32, 8, 4)),
            ],
            links: vec![link],
        };
        // Producer squeezed below its 64-PE footprint.
        assert_eq!(
            evaluate_chain(&mk(Link::pipelined_split(64, 32, 480)), &[], &cfg).unwrap_err(),
            ChainError::PartitionTooSmall { node: 0, allocated: 32, footprint: 64 }
        );
        // Consumer squeezed below its footprint.
        assert_eq!(
            evaluate_chain(&mk(Link::pipelined_split(64, 448, 32)), &[], &cfg).unwrap_err(),
            ChainError::PartitionTooSmall { node: 1, allocated: 32, footprint: 64 }
        );
        // More PEs than the machine has.
        assert_eq!(
            evaluate_chain(&mk(Link::pipelined_split(64, 400, 200)), &[], &cfg).unwrap_err(),
            ChainError::PartitionOversubscribed { allocated: 600, available: 512 }
        );
    }

    #[test]
    fn oversubscribed_parallel_group_is_an_error() {
        // Two full-array tilings cannot run concurrently: the proportional
        // bandwidth model would otherwise credit the group with more NoC than
        // the machine has.
        let chain = Chain {
            nodes: vec![ChainNode::Parallel(vec![
                Stage::gemm("a", GemmDims { v: 64, f: 64, g: 64 }, cmb_tiling([32, 16, 1])),
                Stage::gemm("b", GemmDims { v: 64, f: 64, g: 64 }, cmb_tiling([32, 16, 1])),
            ])],
            links: vec![],
        };
        assert_eq!(
            evaluate_chain(&chain, &[], &AccelConfig::paper_default()).unwrap_err(),
            ChainError::PartitionOversubscribed { allocated: 1024, available: 512 }
        );
    }

    #[test]
    fn dlrm_shaped_chain_runs() {
        // DLRM: SpMM (embedding gather) ∥ GEMM (bottom MLP) → concat → GEMM (top MLP).
        let chain = Chain {
            nodes: vec![
                ChainNode::Parallel(vec![
                    Stage::spmm("embedding", 32, agg_tiling([8, 8, 1])),
                    gemm_stage("bottom-mlp", 128, 32, 32),
                ]),
                ChainNode::Single(gemm_stage("top-mlp", 128, 64, 16)),
            ],
            links: vec![Link::Sequential],
        };
        let cfg = AccelConfig::paper_default();
        let r = evaluate_chain(&chain, &[8; 128], &cfg).unwrap();
        assert_eq!(r.stages.len(), 3);
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn wrong_link_count_is_an_error() {
        let chain = Chain {
            nodes: vec![ChainNode::Single(gemm_stage("a", 4, 4, 4))],
            links: vec![Link::Sequential],
        };
        assert_eq!(
            evaluate_chain(&chain, &[], &AccelConfig::paper_default()).unwrap_err(),
            ChainError::LinkCountMismatch { nodes: 1, links: 1 }
        );
    }

    #[test]
    fn pipelined_parallel_is_an_error() {
        let chain = Chain {
            nodes: vec![
                ChainNode::Parallel(vec![gemm_stage("a", 4, 4, 4)]),
                ChainNode::Single(gemm_stage("b", 4, 4, 4)),
            ],
            links: vec![Link::pipelined(4)],
        };
        assert_eq!(
            evaluate_chain(&chain, &[], &AccelConfig::paper_default()).unwrap_err(),
            ChainError::PipelinedParallelNode { node: 0 }
        );
        // The same link arriving *at* a parallel node is equally rejected.
        let chain = Chain {
            nodes: vec![
                ChainNode::Single(gemm_stage("a", 4, 4, 4)),
                ChainNode::Parallel(vec![gemm_stage("b", 4, 4, 4)]),
            ],
            links: vec![Link::pipelined(4)],
        };
        assert_eq!(
            evaluate_chain(&chain, &[], &AccelConfig::paper_default()).unwrap_err(),
            ChainError::PipelinedParallelNode { node: 1 }
        );
    }

    #[test]
    fn pipelined_both_sides_is_an_error() {
        let chain = Chain {
            nodes: vec![
                ChainNode::Single(gemm_stage("a", 16, 8, 8)),
                ChainNode::Single(gemm_stage("b", 16, 8, 8)),
                ChainNode::Single(gemm_stage("c", 16, 8, 8)),
            ],
            links: vec![Link::pipelined(8), Link::pipelined(8)],
        };
        assert_eq!(
            evaluate_chain(&chain, &[], &AccelConfig::paper_default()).unwrap_err(),
            ChainError::PipelinedBothSides { node: 1 }
        );
    }

    #[test]
    fn elementwise_stage_runs_in_a_chain() {
        let chain = Chain {
            nodes: vec![
                ChainNode::Single(gemm_stage("cmb", 64, 16, 8)),
                ChainNode::Single(Stage::elementwise(
                    "post",
                    64,
                    8,
                    ElementwiseOp::LayerNorm,
                    cmb_tiling([8, 8, 1]),
                )),
            ],
            links: vec![Link::Sequential],
        };
        let cfg = AccelConfig::paper_default();
        let r = evaluate_chain(&chain, &[], &cfg).unwrap();
        assert_eq!(r.stages.len(), 2);
        assert_eq!(r.total_cycles, r.stages[0].1.cycles + r.stages[1].1.cycles);
        // Two sweeps (stats + write-back) over the 64×8 output.
        assert_eq!(r.stages[1].1.macs, 2 * 64 * 8);
        assert_eq!(r.stages[1].1.pe_footprint, 64);
    }

    #[test]
    fn residency_flags_remove_intermediate_traffic() {
        let producer = Stage::spmm("agg", 16, agg_tiling([8, 8, 1]));
        let consumer = gemm_stage("cmb", 64, 16, 8);
        let (mut local, mut resident) = (producer.clone(), consumer.clone());
        local.phase.opts.output_stays_local = true;
        resident.phase.opts.input_resident = true;
        let cfg = AccelConfig::paper_default();
        let plain = Chain {
            nodes: vec![ChainNode::Single(producer.clone()), ChainNode::Single(consumer.clone())],
            links: vec![Link::Sequential],
        };
        let resident = Chain {
            nodes: vec![ChainNode::Single(local), ChainNode::Single(resident)],
            links: vec![Link::Sequential],
        };
        let r_plain = evaluate_chain(&plain, &[4; 64], &cfg).unwrap();
        let r_res = evaluate_chain(&resident, &[4; 64], &cfg).unwrap();
        assert!(r_plain.counters.gb_of(OperandClass::Intermediate) > 0);
        assert_eq!(r_res.counters.gb_of(OperandClass::Intermediate), 0);
        assert!(r_res.total_cycles <= r_plain.total_cycles);
    }
}
