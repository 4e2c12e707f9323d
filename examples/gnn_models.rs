//! Whole-model evaluation: 2-layer GCN / GraphSAGE / 5-layer GIN on one graph,
//! per-layer dataflow selection, tile refinement, and the (runtime, energy,
//! buffer-footprint) Pareto frontier of the full pattern space.
//!
//! ```sh
//! cargo run --release --example gnn_models [dataset]
//! ```

use omega_gnn::core::mapper::{preset_candidates, refine_tiles};
use omega_gnn::core::models::{evaluate_model, evaluate_model_mapped, GnnModel};
use omega_gnn::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let dataset_name = args.get(1).map(String::as_str).unwrap_or("Cora");
    let spec = DatasetSpec::by_name(dataset_name).unwrap_or_else(DatasetSpec::cora);
    let dataset = spec.generate(17);
    let base = GnnWorkload::gcn_layer(&dataset, 16);
    let hw = AccelConfig::paper_default();

    // --- whole models, one preset across layers ------------------------------
    println!("models on {} (V={}, F={}):\n", base.name, base.v, base.f);
    let models = [GnnModel::gcn_2layer(7), GnnModel::sage_2layer(32, 7), GnnModel::gin(5, 64)];
    for model in &models {
        let preset = Preset::by_name("SP2").expect("preset");
        let fixed = evaluate_model(model, &base, &preset, &hw).expect("legal");
        let mapped =
            evaluate_model_mapped(model, &base, &hw, Objective::Runtime).expect("legal");
        let picks: Vec<String> = mapped
            .layers
            .iter()
            .map(|l| l.dataflow.to_string())
            .collect();
        println!(
            "{:<12} SP2-everywhere: {:>9} cycles | mapped per layer: {:>9} cycles ({:.1}% better)",
            model.name,
            fixed.total_cycles,
            mapped.total_cycles,
            100.0 * (1.0 - mapped.total_cycles as f64 / fixed.total_cycles as f64),
        );
        for (i, p) in picks.iter().enumerate() {
            println!("             layer {i}: {p}");
        }
    }

    // --- tile refinement around the best preset ------------------------------
    println!("\ntile refinement (hill climbing over T_Dim doublings/halvings):");
    let candidates = preset_candidates(&base, &hw);
    for df in candidates.iter().take(3) {
        let before = evaluate(&base, df, &hw).expect("legal").total_cycles;
        let refined = refine_tiles(df, &base, &hw, Objective::Runtime, 16).expect("refinable");
        println!(
            "  {df}: {before} -> {} cycles ({} evaluations)",
            refined.report.total_cycles, refined.evaluated
        );
    }

    // --- Pareto frontier -------------------------------------------------------
    let out = dse::explore(&base, &hw, &DseOptions { pareto: true, ..DseOptions::default() });
    println!(
        "\n(runtime, energy, buffer) Pareto frontier over all 6,656 patterns: {} points, \
         fastest 10:",
        out.frontier.len()
    );
    for point in out.frontier.iter().take(10) {
        println!(
            "  {:<28} {:>9} cycles  {:>9.2} uJ  {:>9} B",
            point.dataflow.to_string(),
            point.runtime_cycles,
            point.report.energy.total_uj(),
            point.buffer_peak_bytes
        );
    }
}
