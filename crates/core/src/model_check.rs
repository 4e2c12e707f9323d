//! Table III closed forms, used to cross-validate the simulator composition.
//!
//! | Inter-phase | Intermediate buffering | Runtime |
//! |-------------|------------------------|---------|
//! | Seq         | `V×F`                  | `t_AGG + t_CMB` |
//! | SP-Generic  | `Pel`                  | `t_AGG + t_CMB` |
//! | SP-Optimized| `0`                    | `t_AGG + t_CMB − t_load` |
//! | PP          | `2×Pel`                | `Σ max(t_AGG, t_CMB)_Pel` |
//!
//! [`verify_report`] recomputes both columns from a report's own phase
//! statistics and checks the composed numbers match — the property tests in
//! `tests/` run it across every preset × dataset.

use omega_dataflow::{InterPhase, PhaseOrder};

use crate::pipeline::{pipeline_runtime, resample_durations};
use crate::{CostReport, GnnWorkload};

/// A mismatch between a report and the Table III closed forms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelMismatch {
    /// Which quantity disagreed.
    pub what: &'static str,
    /// Value the closed form predicts.
    pub expected: u64,
    /// Value the report carries.
    pub actual: u64,
}

impl std::fmt::Display for ModelMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: expected {} (Table III), got {}", self.what, self.expected, self.actual)
    }
}

impl std::error::Error for ModelMismatch {}

/// The buffering requirement Table III predicts for this dataflow, in elements.
pub fn buffering_formula(report: &CostReport, workload: &GnnWorkload) -> u64 {
    match report.dataflow.inter {
        InterPhase::Sequential => workload.intermediate_elems(report.dataflow.phase_order),
        InterPhase::SequentialPipeline => {
            if report.sp_optimized {
                0
            } else {
                report.pel.unwrap_or(0)
            }
        }
        InterPhase::ParallelPipeline => 2 * report.pel.unwrap_or(0),
    }
}

/// The runtime Table III predicts from the report's own per-phase statistics.
pub fn runtime_formula(report: &CostReport) -> u64 {
    match report.dataflow.inter {
        InterPhase::Sequential | InterPhase::SequentialPipeline => {
            // SP-Optimized's `−t_load` is already inside t_CMB: the consumer was
            // simulated with the intermediate resident, so no reload cycles exist
            // to subtract.
            report.agg.cycles + report.cmb.cycles
        }
        InterPhase::ParallelPipeline => {
            let (producer, consumer) = match report.dataflow.phase_order {
                PhaseOrder::AC => (&report.agg, &report.cmb),
                PhaseOrder::CA => (&report.cmb, &report.agg),
            };
            let p = producer.chunk_durations();
            let c = consumer.chunk_durations();
            let k = p.len().max(1);
            let c = if c.len() == k { c } else { resample_durations(&c, k) };
            let p = if p.is_empty() { vec![0] } else { p };
            pipeline_runtime(&p, &c)
        }
    }
}

/// Checks a report against both closed forms.
pub fn verify_report(report: &CostReport, workload: &GnnWorkload) -> Result<(), ModelMismatch> {
    let expected_buf = buffering_formula(report, workload);
    if expected_buf != report.intermediate_buffer_elems {
        return Err(ModelMismatch {
            what: "intermediate buffering",
            expected: expected_buf,
            actual: report.intermediate_buffer_elems,
        });
    }
    let expected_rt = runtime_formula(report);
    if expected_rt != report.total_cycles {
        return Err(ModelMismatch { what: "runtime", expected: expected_rt, actual: report.total_cycles });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use omega_accel::AccelConfig;
    use omega_dataflow::presets::Preset;
    use omega_graph::DatasetSpec;

    #[test]
    fn every_preset_matches_table_iii_on_proteins() {
        let d = DatasetSpec::proteins().generate(2);
        let wl = GnnWorkload::gcn_layer(&d, 16);
        let cfg = AccelConfig::paper_default();
        for preset in Preset::all() {
            let df = crate::mapper::concretize_preset(&preset, &wl, &cfg);
            let report = evaluate(&wl, &df, &cfg).unwrap();
            verify_report(&report, &wl).unwrap_or_else(|e| panic!("{}: {e}", preset.name));
        }
    }

    #[test]
    fn mismatch_display() {
        let m = ModelMismatch { what: "runtime", expected: 10, actual: 12 };
        assert!(m.to_string().contains("Table III"));
    }
}
