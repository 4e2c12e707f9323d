//! Phase engines: tile-step-accurate simulation of one GNN phase.
//!
//! Four engines live here: dense GEMM ([`simulate_gemm`]), sparse SpMM over a
//! CSR adjacency ([`simulate_spmm`]), the adjacency-masked SDDMM attention
//! scoring of GAT-style models ([`simulate_sddmm`]), and the streaming
//! elementwise/normalization phase ([`simulate_elementwise`]). Each engine is a
//! thin **leaf** over the shared `core` module's machinery (the
//! `PhaseEngine` trait): the core owns the tile-walk bookkeeping, pass timing,
//! chunk timestamps, and stats assembly, while a leaf contributes only the
//! phase-specific loop nest and per-pass operand math. All walk the loop nest
//! at **pass** granularity — one full
//! sweep of the innermost temporal loop at fixed outer/middle tile indices. Per
//! pass they account, in closed form:
//!
//! * compute cycles — one MAC per PE per cycle, so a pass of `n` innermost tiles
//!   takes `n` compute cycles; Aggregation rows inside a spatial vertex tile are
//!   **tile-synchronized**, so a pass takes `ceil(max_degree_in_tile / T_N)`
//!   steps — the paper's "evil row" pathology emerges from this;
//! * global-buffer traffic per operand class — streaming operands are re-fetched
//!   per innermost step, stationary operands reloaded only when their tile
//!   indices change, multicast copies counted as RF writes;
//! * partial-sum placement — when the reduction dimension is not innermost, the
//!   live psums of one accumulation round either fit the RF
//!   ([`crate::RfBudget`]) or spill, adding GB psum reads/writes per revisit;
//! * bandwidth stalls — a pass cannot finish faster than its GB reads divide by
//!   the distribution bandwidth or its writes by the collection bandwidth;
//! * chunk timestamps — cumulative cycle marks each time `Pel` elements of the
//!   intermediate are produced (first phase) or consumed (second phase), which
//!   the inter-phase cost model turns into the PP pipeline schedule.

pub(crate) mod core;
mod elementwise;
mod gemm;
mod sddmm;
mod spmm;

pub use self::core::{PreparedGemm, PreparedSpmm};
pub use elementwise::{
    simulate_elementwise, simulate_elementwise_prepared, ElementwiseOp, ElementwiseWorkload,
};
pub use gemm::{simulate_gemm, simulate_gemm_prepared, GemmDims};
pub use sddmm::{simulate_sddmm, simulate_sddmm_prepared, SddmmWorkload};
pub use spmm::{simulate_spmm, simulate_spmm_prepared, spmm_cycle_floor, SpmmWorkload};

use serde::Serialize;

use crate::{BandwidthShare, OperandClass};

/// Operand-class assignment for one phase run, deciding which Fig. 13 buckets
/// the traffic lands in. The assignment depends on the phase order: e.g. in AC
/// the Combination's streaming input is the `Intermediate`; in CA it is the raw
/// `Input` features and its output is the `Intermediate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct OperandClasses {
    /// The dense matrix streamed as the "A" operand (features or intermediate).
    pub a_input: OperandClass,
    /// The second operand (adjacency for SpMM, weights for GEMM).
    pub b_input: OperandClass,
    /// The produced matrix (intermediate or final output).
    pub output: OperandClass,
}

impl OperandClasses {
    /// Aggregation in AC order: reads features, writes the intermediate.
    pub fn aggregation_ac() -> Self {
        OperandClasses {
            a_input: OperandClass::Input,
            b_input: OperandClass::Adjacency,
            output: OperandClass::Intermediate,
        }
    }

    /// Aggregation in CA order: reads the intermediate, writes the final output.
    pub fn aggregation_ca() -> Self {
        OperandClasses {
            a_input: OperandClass::Intermediate,
            b_input: OperandClass::Adjacency,
            output: OperandClass::Output,
        }
    }

    /// Combination in AC order: reads the intermediate, writes the final output.
    pub fn combination_ac() -> Self {
        OperandClasses {
            a_input: OperandClass::Intermediate,
            b_input: OperandClass::Weight,
            output: OperandClass::Output,
        }
    }

    /// Combination in CA order: reads features, writes the intermediate.
    pub fn combination_ca() -> Self {
        OperandClasses {
            a_input: OperandClass::Input,
            b_input: OperandClass::Weight,
            output: OperandClass::Intermediate,
        }
    }

    /// SDDMM attention scoring: reads the input features (both dot-product
    /// operands come from the same feature matrix), walks the adjacency
    /// structure, and writes per-edge scores.
    pub fn sddmm() -> Self {
        OperandClasses {
            a_input: OperandClass::Input,
            b_input: OperandClass::Adjacency,
            output: OperandClass::EdgeScore,
        }
    }

    /// Attention-weighted Aggregation (GAT, AC order): like
    /// [`Self::aggregation_ac`], but the per-edge values gathered alongside the
    /// CSR structure are the SDDMM-produced attention scores, so their traffic
    /// lands in the [`OperandClass::EdgeScore`] bucket.
    pub fn aggregation_gat() -> Self {
        OperandClasses {
            a_input: OperandClass::Input,
            b_input: OperandClass::EdgeScore,
            output: OperandClass::Intermediate,
        }
    }

    /// An elementwise/normalization phase operating in place on one matrix:
    /// its read and write traffic both land in `class` (the class of the
    /// matrix it post-processes — usually [`OperandClass::Output`] for a
    /// post-layer activation or LayerNorm).
    pub fn elementwise_on(class: OperandClass) -> Self {
        OperandClasses { a_input: class, b_input: class, output: class }
    }
}

/// Which side of the intermediate matrix chunk timestamps track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ChunkSide {
    /// This phase produces the intermediate: mark every `pel` elements written.
    Produce,
    /// This phase consumes the intermediate: mark every `pel` elements whose
    /// processing completes.
    Consume,
}

/// Chunk-timestamp request: emit a cumulative cycle mark per `pel` elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct ChunkSpec {
    /// Producer or consumer accounting.
    pub side: ChunkSide,
    /// Elements per chunk (`Pel`, Section IV-D).
    pub pel: u64,
}

/// On-chip storage budgets one phase run is held to.
///
/// [`CapacityBudget::UNBOUNDED`] (the [`EngineOptions::plain`] default)
/// reproduces the paper's "sufficient buffering" assumption bit-exactly: the
/// engines still *report* their working-set peaks, but nothing spills. Finite
/// budgets make oversized tiles and residency pins cost real traffic — the
/// core charges a costed spill pass per overflowing level (DESIGN.md §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct CapacityBudget {
    /// Register-file bytes per PE the phase may occupy.
    pub rf_bytes_per_pe: usize,
    /// Global-buffer bytes the phase's staged working set may occupy.
    pub gb_bytes: usize,
}

impl CapacityBudget {
    /// No budget on either level: peaks are reported, nothing spills.
    pub const UNBOUNDED: CapacityBudget =
        CapacityBudget { rf_bytes_per_pe: usize::MAX, gb_bytes: usize::MAX };

    /// `true` when neither level is bounded.
    pub fn is_unbounded(&self) -> bool {
        self.rf_bytes_per_pe == usize::MAX && self.gb_bytes == usize::MAX
    }
}

/// Per-run engine options.
///
/// `Eq`/`Hash` make the options usable as part of a phase-simulation cache key
/// (the engines are deterministic functions of workload × tiling × options):
/// every field that changes a simulation result participates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineOptions {
    /// NoC bandwidth available to this phase.
    pub bandwidth: BandwidthShare,
    /// The `a_input` operand is already resident in the PE register files
    /// (SP-Optimized consumer): no GB reads, no distribution stalls for it.
    pub input_resident: bool,
    /// The produced matrix stays in the PE register files (SP-Optimized
    /// producer): no GB writes, no collection stalls for it.
    pub output_stays_local: bool,
    /// The per-edge values gathered with the CSR structure (the attention
    /// scores of a GAT aggregation) are already resident in the PE register
    /// files — the SDDMM producer kept them local — so only the structure
    /// (indices + row pointers) is fetched from the GB. Consumed by the SpMM
    /// engine; the other engines ignore it.
    pub scores_resident: bool,
    /// Chunk-timestamp request.
    pub chunk: Option<ChunkSpec>,
    /// On-chip storage budgets this run is held to
    /// ([`CapacityBudget::UNBOUNDED`] = the paper's free-buffering model).
    pub capacity: CapacityBudget,
    /// Force the per-edge reference walk: every vertex tile is scanned and
    /// every pass issued with multiplicity 1, instead of replaying
    /// summary-batched tile classes. O(nnz) instead of O(degree classes +
    /// tile boundaries) — kept compiled as the differential-testing oracle
    /// (`crates/accel/tests/summary_identity.rs` asserts bit-identity).
    pub reference_walk: bool,
}

impl EngineOptions {
    /// Plain run: full bandwidth share given, everything through the GB, no
    /// chunk marks, no storage budget.
    pub fn plain(bandwidth: BandwidthShare) -> Self {
        EngineOptions {
            bandwidth,
            input_resident: false,
            output_stays_local: false,
            scores_resident: false,
            chunk: None,
            capacity: CapacityBudget::UNBOUNDED,
            reference_walk: false,
        }
    }
}
