//! Cross-crate integration: every Table V preset evaluates on every Table IV
//! dataset, and every report obeys the Table III closed forms.

use omega_gnn::core::model_check::verify_report;
use omega_gnn::prelude::*;

fn suite() -> Vec<(String, GnnWorkload)> {
    omega_gnn::graph::suite(0x0E5A_2022)
        .into_iter()
        .map(|d| (d.name().to_string(), GnnWorkload::gcn_layer(&d, 16)))
        .collect()
}

#[test]
fn every_preset_on_every_dataset() {
    let hw = AccelConfig::paper_default();
    for (name, wl) in suite() {
        for preset in Preset::all() {
            let df = mapper::concretize_preset(&preset, &wl, &hw);
            let report = evaluate(&wl, &df, &hw)
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", preset.name));
            // Work invariants: the dataflow must schedule exactly the layer's MACs.
            assert_eq!(report.agg.macs, wl.nnz * wl.f as u64, "{name}/{} agg", preset.name);
            assert_eq!(
                report.cmb.macs,
                (wl.v as u64) * (wl.f as u64) * (wl.g as u64),
                "{name}/{} cmb",
                preset.name
            );
            assert!(report.total_cycles > 0);
            assert!(report.energy.total_pj() > 0.0);
            // Table III consistency.
            verify_report(&report, &wl).unwrap_or_else(|e| panic!("{name}/{}: {e}", preset.name));
        }
    }
}

#[test]
fn compute_bound_is_respected() {
    // No dataflow can beat total MACs / PEs.
    let hw = AccelConfig::paper_default();
    for (name, wl) in suite() {
        let floor = wl.total_macs(PhaseOrder::AC) / hw.num_pes as u64;
        for preset in Preset::all() {
            let df = mapper::concretize_preset(&preset, &wl, &hw);
            let report = evaluate(&wl, &df, &hw).expect("legal");
            // PP runs the phases on half the array each, so its floor is the
            // max of the two phases' own floors — still ≤ the sum-based bound.
            assert!(
                report.total_cycles >= floor,
                "{name}/{}: {} < floor {floor}",
                preset.name,
                report.total_cycles
            );
        }
    }
}

#[test]
fn sp_presets_keep_intermediate_out_of_gb() {
    let hw = AccelConfig::paper_default();
    for (name, wl) in suite() {
        for preset_name in ["SP1", "SP2", "SPhighV"] {
            let preset = Preset::by_name(preset_name).expect("preset");
            let df = mapper::concretize_preset(&preset, &wl, &hw);
            let report = evaluate(&wl, &df, &hw).expect("legal");
            assert!(report.sp_optimized, "{name}/{preset_name}");
            assert_eq!(
                report.counters.gb_of(OperandClass::Intermediate),
                0,
                "{name}/{preset_name}"
            );
            assert_eq!(report.intermediate_buffer_elems, 0, "{name}/{preset_name}");
        }
    }
}

#[test]
fn seq_buffers_the_whole_intermediate() {
    let hw = AccelConfig::paper_default();
    for (name, wl) in suite() {
        let preset = Preset::by_name("Seq1").expect("preset");
        let df = mapper::concretize_preset(&preset, &wl, &hw);
        let report = evaluate(&wl, &df, &hw).expect("legal");
        assert_eq!(
            report.intermediate_buffer_elems,
            (wl.v * wl.f) as u64,
            "{name}: Seq buffering is V x F (Table III)"
        );
        // And each intermediate element crosses the GB at least twice
        // (written by Aggregation, read by Combination).
        assert!(report.counters.gb_of(OperandClass::Intermediate) >= 2 * (wl.v * wl.f) as u64);
    }
}

#[test]
fn pp_splits_the_array_and_buffers_two_pel() {
    let hw = AccelConfig::paper_default();
    for (name, wl) in suite() {
        for preset_name in ["PP1", "PP2", "PP3", "PP4"] {
            let preset = Preset::by_name(preset_name).expect("preset");
            let df = mapper::concretize_preset(&preset, &wl, &hw);
            assert!(df.agg.pe_footprint() <= 256, "{name}/{preset_name}");
            assert!(df.cmb.pe_footprint() <= 256, "{name}/{preset_name}");
            let report = evaluate(&wl, &df, &hw).expect("legal");
            let pel = report.pel.expect("PP has Pel");
            assert_eq!(report.intermediate_buffer_elems, 2 * pel, "{name}/{preset_name}");
            // Pipeline bounds: between the slower phase and the phase sum.
            assert!(report.total_cycles >= report.agg.cycles.max(report.cmb.cycles));
            assert!(report.total_cycles <= report.agg.cycles + report.cmb.cycles);
        }
    }
}

#[test]
fn ca_phase_order_round_trip() {
    // CA evaluation works end to end through the public API.
    use omega_gnn::dataflow::{Dim, IntraTiling, LoopOrder, Phase};
    let hw = AccelConfig::paper_default();
    let d = DatasetSpec::mutag().generate(9);
    let wl = GnnWorkload::gcn_layer(&d, 16);
    let agg = IntraTiling::new(
        Phase::Aggregation,
        LoopOrder::new(Phase::Aggregation, [Dim::V, Dim::F, Dim::N]).unwrap(),
        [32, 16, 1],
    );
    let cmb = IntraTiling::new(
        Phase::Combination,
        LoopOrder::new(Phase::Combination, [Dim::V, Dim::G, Dim::F]).unwrap(),
        [32, 16, 1],
    );
    let df = GnnDataflow { inter: InterPhase::Sequential, phase_order: PhaseOrder::CA, agg, cmb };
    let report = evaluate(&wl, &df, &hw).expect("legal CA dataflow");
    assert_eq!(report.agg.macs, wl.nnz * wl.g as u64, "CA aggregation runs over G-wide rows");
    assert_eq!(report.intermediate_buffer_elems, (wl.v * wl.g) as u64);
}

#[test]
fn dataflow_strings_round_trip_through_parser() {
    let hw = AccelConfig::paper_default();
    let d = DatasetSpec::proteins().generate(3);
    let wl = GnnWorkload::gcn_layer(&d, 16);
    for preset in Preset::all() {
        let df = mapper::concretize_preset(&preset, &wl, &hw);
        let pattern: GnnDataflowPattern = df.to_string().parse().expect("engine output parses");
        assert!(pattern.admits(&df), "{}", preset.name);
    }
}
