//! Smoke test: the facade doctest's end-to-end path, exercised as a plain
//! integration test so the public `omega_gnn::prelude` surface stays covered
//! even when doctests are skipped (e.g. `cargo test --tests`).

use omega_gnn::prelude::*;

/// `DatasetSpec` → `GnnWorkload::gcn_layer` → `Preset::by_name("SP2")` →
/// `concretize` → `evaluate`, exactly as the crate-level doc example.
#[test]
fn prelude_end_to_end_sp2_on_mutag() {
    let dataset = DatasetSpec::mutag().generate(42);
    let workload = GnnWorkload::gcn_layer(&dataset, 16);

    let hw = AccelConfig::paper_default();

    let preset = Preset::by_name("SP2").expect("SP2 is a Table V preset");
    let ctx = workload.tile_context(preset.pattern.phase_order);
    let dataflow = preset.concretize(&ctx, hw.num_pes, hw.num_pes);

    let report = evaluate(&workload, &dataflow, &hw).expect("SP2 is legal on MUTAG");
    assert!(report.total_cycles > 0);
    assert!(report.energy.total_uj() > 0.0);
    // The Display impl the doctest prints with must not panic either.
    let line = format!("{dataflow}: {} cycles", report.total_cycles);
    assert!(line.contains("cycles"));
}

/// Every named preset resolves and evaluates on the doc example's workload.
#[test]
fn every_preset_evaluates_via_prelude() {
    let dataset = DatasetSpec::mutag().generate(42);
    let workload = GnnWorkload::gcn_layer(&dataset, 16);
    let hw = AccelConfig::paper_default();

    for preset in Preset::all() {
        let dataflow = mapper::concretize_preset(&preset, &workload, &hw);
        let report = evaluate(&workload, &dataflow, &hw)
            .unwrap_or_else(|e| panic!("{} failed to evaluate: {e:?}", preset.name));
        assert!(report.total_cycles > 0, "{} produced zero cycles", preset.name);
    }
}

/// The mapper path re-exported through the prelude ranks the presets.
#[test]
fn mapper_rank_via_prelude() {
    let dataset = DatasetSpec::mutag().generate(42);
    let workload = GnnWorkload::gcn_layer(&dataset, 16);
    let hw = AccelConfig::paper_default();

    let candidates = mapper::preset_candidates(&workload, &hw);
    assert!(!candidates.is_empty());
    let ranked = mapper::rank(&candidates, &workload, &hw, Objective::Runtime);
    assert_eq!(ranked.len(), candidates.len());
    assert!(ranked[0].report.total_cycles > 0);
}
