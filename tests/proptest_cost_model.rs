//! Property tests on the end-to-end cost model.

use proptest::prelude::*;

use omega_gnn::core::model_check::verify_report;
use omega_gnn::prelude::*;

/// A small random workload: degrees, feature widths.
fn workload_strategy() -> impl Strategy<Value = GnnWorkload> {
    (
        proptest::collection::vec(1usize..24, 8..80),
        2usize..64,
        1usize..24,
    )
        .prop_map(|(degrees, f, g)| {
            let v = degrees.len();
            let nnz: u64 = degrees.iter().map(|&d| d as u64).sum();
            let max_degree = degrees.iter().copied().max().unwrap_or(0);
            let mean_degree = nnz as f64 / v as f64;
            GnnWorkload {
                name: "prop".into(),
                v,
                f,
                g,
                degrees,
                nnz,
                mean_degree,
                max_degree,
                attention: None,
                post_op: None,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every preset on every random workload: evaluates, obeys Table III, and
    /// schedules exactly the layer's MACs.
    #[test]
    fn presets_are_consistent_on_random_workloads(wl in workload_strategy(), preset_idx in 0usize..9) {
        let hw = AccelConfig::paper_default();
        let preset = &Preset::all()[preset_idx];
        let df = mapper::concretize_preset(preset, &wl, &hw);
        let report = evaluate(&wl, &df, &hw).expect("presets are legal");
        prop_assert_eq!(report.agg.macs, wl.nnz * wl.f as u64);
        prop_assert_eq!(report.cmb.macs, (wl.v * wl.f * wl.g) as u64);
        verify_report(&report, &wl).map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    /// PP runtime is bounded by its phases: max ≤ total ≤ sum.
    #[test]
    fn pp_pipeline_bounds(wl in workload_strategy(), pp_idx in 0usize..4) {
        let hw = AccelConfig::paper_default();
        let name = ["PP1", "PP2", "PP3", "PP4"][pp_idx];
        let preset = Preset::by_name(name).expect("preset");
        let df = mapper::concretize_preset(&preset, &wl, &hw);
        let report = evaluate(&wl, &df, &hw).expect("legal");
        prop_assert!(report.total_cycles >= report.agg.cycles.max(report.cmb.cycles));
        prop_assert!(report.total_cycles <= report.agg.cycles + report.cmb.cycles);
    }

    /// Lower bandwidth can never speed a dataflow up (end-to-end monotonicity).
    #[test]
    fn bandwidth_monotonicity_end_to_end(wl in workload_strategy(), preset_idx in 0usize..9) {
        let preset = &Preset::all()[preset_idx];
        let mut prev = None;
        for bw in [512usize, 128, 16] {
            let hw = AccelConfig::paper_default().with_bandwidth(bw);
            let df = mapper::concretize_preset(preset, &wl, &hw);
            let report = evaluate(&wl, &df, &hw).expect("legal");
            if let Some(p) = prev {
                prop_assert!(report.total_cycles >= p, "{}: bw {bw}", preset.name);
            }
            prev = Some(report.total_cycles);
        }
    }

    /// More PEs can never slow a dataflow down (with scaled bandwidth).
    #[test]
    fn pe_scaling_monotonicity(wl in workload_strategy(), preset_idx in 0usize..9) {
        let preset = &Preset::all()[preset_idx];
        let mut prev: Option<u64> = None;
        for pes in [128usize, 512, 2048] {
            let hw = AccelConfig::paper_default().with_pes(pes);
            let df = mapper::concretize_preset(preset, &wl, &hw);
            let report = evaluate(&wl, &df, &hw).expect("legal");
            if let Some(p) = prev {
                // Allow a tiny slack for remainder-tile effects.
                prop_assert!(
                    report.total_cycles <= p + p / 4 + 64,
                    "{}: {} PEs took {} vs {}",
                    preset.name, pes, report.total_cycles, p
                );
            }
            prev = Some(report.total_cycles);
        }
    }

    /// The energy breakdown is internally consistent.
    #[test]
    fn energy_breakdown_adds_up(wl in workload_strategy(), preset_idx in 0usize..9) {
        let hw = AccelConfig::paper_default();
        let preset = &Preset::all()[preset_idx];
        let df = mapper::concretize_preset(preset, &wl, &hw);
        let report = evaluate(&wl, &df, &hw).expect("legal");
        let e = &report.energy;
        let class_sum: f64 = e.gb_by_class_pj.iter().sum();
        prop_assert!((class_sum - (e.gb_pj + e.intermediate_pj)).abs() < 1e-6);
        prop_assert!((e.total_pj() - (e.gb_pj + e.rf_pj + e.intermediate_pj)).abs() < 1e-9);
        prop_assert!(e.total_pj() > 0.0);
    }
}
