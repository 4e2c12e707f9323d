//! **OMEGA** — Observing Mapping Efficiency over GNN Accelerators.
//!
//! The paper's core artifact (Section V-A1, Fig. 10): per-phase cycle-level
//! simulations (here `omega-accel`'s engines) feed an **inter-phase cost model**
//! that produces runtime, buffering, and energy for a complete two-phase GNN
//! dataflow described by the taxonomy of `omega-dataflow`:
//!
//! * `Seq` — phase latencies add; the whole `V×F` intermediate stages through
//!   the memory hierarchy (Table III row 1).
//! * `SP-Generic` — latencies still add, but the intermediate occupies only
//!   `Pel` elements of the global buffer at a time (row 2).
//! * `SP-Optimized` — the intermediate never leaves the PE register files:
//!   zero intermediate buffering and the consumer's reload (`t_load`) is gone
//!   (row 3).
//! * `PP` — the array splits into two concurrent partitions linked by a
//!   `2×Pel` ping-pong buffer; runtime follows the pipeline recurrence
//!   `t_p(c₀) + Σᵢ max(t_p(cᵢ), t_c(cᵢ₋₁)) + t_c(c_K)` over `Pel`-sized chunks,
//!   with NoC bandwidth split between the partitions (rows 4-6).
//!
//! Entry point: [`evaluate`] (a [`GnnWorkload`] × [`GnnDataflow`] ×
//! [`AccelConfig`] → [`CostReport`]). [`mapper`] searches candidate sets using
//! `evaluate` as its cost model (the "future work" optimizer of Section VI),
//! [`dse`] exhaustively explores the full 6,656-pattern space in parallel
//! (plan-first, bound-ordered waves, workload-keyed cache), [`models`]
//! stacks layers into whole GNNs and lowers them onto multiphase chains
//! ([`models::to_chain`]), [`dse::model`] jointly searches per-layer dataflows
//! × inter-layer pipelining × PE partitions for those chains, and
//! [`multiphase`] generalises the composition to non-GNN multiphase kernels
//! (DLRM-style chains) with sequential, idealised-pipelined, and partitioned
//! (PP) links.
//!
//! ```
//! use omega_core::{evaluate, AccelConfig, GnnWorkload};
//! use omega_dataflow::presets::Preset;
//!
//! let dataset = omega_graph::DatasetSpec::mutag().generate(1);
//! let wl = GnnWorkload::gcn_layer(&dataset, 16);
//! let hw = AccelConfig::paper_default();
//! let preset = Preset::by_name("SP2").unwrap();
//! let df = preset.concretize(&wl.tile_context(preset.pattern.phase_order), 512, 512);
//! let report = evaluate(&wl, &df, &hw).unwrap();
//! assert_eq!(report.total_cycles, report.agg.cycles + report.cmb.cycles); // Table III, SP
//! assert_eq!(report.intermediate_buffer_elems, 0); // SP-Optimized
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
pub mod dse;
mod evaluate;
pub mod mapper;
pub mod model_check;
pub mod models;
pub mod multiphase;
mod pipeline;
mod workload;

pub use cost::{CostReport, EnergyBreakdown, IntermediateCost};
pub use evaluate::{evaluate, EvalError, PhaseSimCache, PreparedEval};
pub use pipeline::{pipeline_runtime, resample_durations};
pub use workload::{AttentionSpec, GnnWorkload, PhaseKind, DEFAULT_HIDDEN};

pub use omega_accel::AccelConfig;
pub use omega_dataflow::GnnDataflow;
