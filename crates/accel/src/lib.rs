//! Spatial-accelerator simulation substrate for the OMEGA framework.
//!
//! The paper builds OMEGA around the STONNE simulator, which models flexible
//! spatial accelerators (MAERI, SIGMA): a PE array with per-PE register files, a
//! single-cycle configurable distribution network, a configurable reduction
//! network, a banked global buffer, and CSR decode logic for SpMM (Section V-A1).
//! This crate re-implements that substrate as a **tile-step-accurate** simulator:
//!
//! * [`AccelConfig`] — hardware parameters (PE count, RF size, NoC bandwidths,
//!   micro-latencies) with the paper's defaults (512 PEs, 64 B RF, stall-free
//!   bandwidth unless a case study reduces it).
//! * [`EnergyModel`] — per-access energies from Dally et al. as used by the paper
//!   (global buffer 1.046 pJ at 1 MB/bank, register file 0.053 pJ), plus
//!   capacity-scaled energy for the PP intermediate partition.
//! * [`stats`] — per-operand-class access counters ([`OperandClass`]) and
//!   [`PhaseStats`], plus the per-`Pel`-chunk timestamps the inter-phase
//!   cost model consumes (Section V-A1: "Some dataflows like PP require
//!   timestamps for the portions of outputs computed for both the phases, which
//!   are collected at the granularity of Pel"), recorded run-length encoded
//!   as a [`ChunkTimeline`].
//! * [`engine`] — a shared `PhaseEngine` core behind four leaf engines:
//!   [`engine::simulate_gemm`] (Combination), [`engine::simulate_spmm`]
//!   (Aggregation over CSR), [`engine::simulate_sddmm`] (adjacency-masked
//!   attention scoring plus its edge-wise softmax pass), and
//!   [`engine::simulate_elementwise`] (post-layer activation / LayerNorm
//!   sweeps). All walk the loop
//!   nest at *pass* granularity (one sweep of the innermost temporal loop),
//!   computing cycles and buffer traffic in closed form per pass: compute
//!   throughput (1 MAC/PE/cycle), distribution/collection bandwidth stalls,
//!   multicast reuse, partial-sum spill traffic when the reduction dimension is
//!   not innermost and the live partial sums overflow the RF, and
//!   tile-synchronized row processing (the "evil row" effect).
//! * [`functional`] — functional execution of any legal tiling, used by property
//!   tests to show the simulator walks a dataflow that really computes the kernel.
//!
//! ```
//! use omega_accel::engine::{simulate_spmm, EngineOptions, OperandClasses, SpmmWorkload};
//! use omega_accel::AccelConfig;
//! use omega_dataflow::{Dim, IntraTiling, LoopOrder, Phase};
//!
//! // Aggregate 64 rows of degree 4 over 32 features with a VtFsNt dataflow.
//! let cfg = AccelConfig::paper_default();
//! let degrees = vec![4usize; 64];
//! let wl = SpmmWorkload { degrees: &degrees, feature_width: 32 };
//! let order = LoopOrder::new(Phase::Aggregation, [Dim::V, Dim::F, Dim::N]).unwrap();
//! let tiling = IntraTiling::new(Phase::Aggregation, order, [16, 32, 1]);
//! let stats = simulate_spmm(&wl, &tiling, &cfg, &OperandClasses::aggregation_ac(),
//!     &EngineOptions::plain(cfg.full_bandwidth()));
//! assert_eq!(stats.macs, 64 * 4 * 32);
//! assert!(stats.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod energy;
pub mod engine;
pub mod functional;
mod noc;
mod rf;
pub mod stats;
pub mod telemetry;

pub use config::{AccelConfig, BandwidthShare, ModelKnobs};
pub use energy::EnergyModel;
pub use noc::{collection_cycles, distribution_cycles, tree_latency};
pub use rf::RfBudget;
pub use stats::{AccessCounters, ChunkTimeline, OperandClass, PhaseStats, NUM_OPERAND_CLASSES};
