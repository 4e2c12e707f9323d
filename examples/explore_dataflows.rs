//! Design-space exploration: exhaustively search the full 6,656-pattern
//! dataflow space with OMEGA as the cost model (the mapping optimizer of
//! Section VI), via the parallel DSE engine.
//!
//! ```sh
//! cargo run --release --example explore_dataflows [dataset] [threads]
//! ```

use omega_gnn::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let dataset_name = args.get(1).map(String::as_str).unwrap_or("Cora");
    let threads: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);

    let spec = DatasetSpec::by_name(dataset_name).unwrap_or_else(|| {
        eprintln!("unknown dataset '{dataset_name}', using Cora");
        DatasetSpec::cora()
    });
    let dataset = spec.generate(11);
    let workload = GnnWorkload::gcn_layer(&dataset, 16);
    let hw = AccelConfig::paper_default();

    println!(
        "exhaustively searching all {} patterns (+preset seeds) on {} with {threads} threads ...",
        omega_dataflow::enumerate::design_space_size(),
        workload.name
    );

    let cache = DseCache::new();
    for objective in [Objective::Runtime, Objective::Energy, Objective::Edp] {
        let out = cache.explore(
            &workload,
            &hw,
            &DseOptions { objective, threads, top_k: 3, ..DseOptions::default() },
        );
        let best = out.best().expect("non-empty space");
        println!(
            "\nbest for {:?}: {}  (tiles {:?})  [{} evaluated, {} skipped, {:.2}s]",
            objective,
            best.dataflow,
            best.dataflow.tile_tuple(),
            out.evaluated,
            out.skipped,
            out.elapsed_ms / 1e3,
        );
        println!(
            "  {} cycles, {:.3} uJ, EDP {:.3e}, granularity {:?}, SP-opt {}",
            best.report.total_cycles,
            best.report.energy.total_uj(),
            best.report.edp(),
            best.report.granularity,
            best.report.sp_optimized,
        );
    }

    // How much headroom is there beyond the paper's presets? (The runtime
    // outcome is cached — this re-uses the search above, whose sweep scored
    // every preset seed and kept the best.)
    let out = cache.explore(
        &workload,
        &hw,
        &DseOptions { threads, top_k: 3, ..DseOptions::default() },
    );
    let preset_only = out.best_seed.as_ref().expect("the preset seeds are valid");
    let optimum = out.best().expect("non-empty space");
    println!(
        "\nruntime: best preset seed (Table V + CA) = {} cycles; exhaustive optimum = {} cycles ({:+.1}%)",
        preset_only.report.total_cycles,
        optimum.report.total_cycles,
        100.0
            * (optimum.report.total_cycles as f64 / preset_only.report.total_cycles as f64 - 1.0),
    );
}
