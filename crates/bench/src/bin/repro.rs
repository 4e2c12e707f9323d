//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro                 # run everything, print tables, write results/
//! repro fig11 fig14     # run a subset
//! repro --out results   # choose the output directory
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use omega_bench::{figures, insights, render, sweep, tables};
use omega_core::dse::DseCache;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = PathBuf::from("results");
    if let Some(pos) = args.iter().position(|a| a == "--out") {
        if pos + 1 >= args.len() {
            eprintln!("--out requires a directory argument");
            return ExitCode::FAILURE;
        }
        out_dir = PathBuf::from(args.remove(pos + 1));
        args.remove(pos);
    }
    let all = [
        "table1", "table2", "table3", "table4", "table5", "fig11", "fig12", "fig13", "fig14",
        "fig15", "fig16", "flexibility", "ablation", "accelerators", "sweep", "preset_gap",
        "model_dse", "capacity_study",
    ];
    let selected: Vec<String> = if args.is_empty() {
        all.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    // One exhaustive-search cache for the run: the sweep, preset-gap and
    // model-level studies share layer shapes, so none is searched twice.
    let cache = DseCache::new();

    for name in &selected {
        match name.as_str() {
            "table1" => emit(&out_dir, name, "Table I: dataflow implications", &tables::table1()),
            "table2" => {
                emit(&out_dir, name, "Table II: design-space size", &[tables::table2()])
            }
            "table3" => emit(
                &out_dir,
                name,
                "Table III: closed forms vs simulator",
                &tables::table3(),
            ),
            "table4" => emit(&out_dir, name, "Table IV: datasets", &tables::table4()),
            "table5" => emit(&out_dir, name, "Table V: dataflow configurations", &tables::table5()),
            "fig11" => emit(&out_dir, name, "Fig 11: runtime vs Seq1", &figures::fig11()),
            "fig12" => emit(&out_dir, name, "Fig 12: buffer access energy", &figures::fig12()),
            "fig13" => emit(&out_dir, name, "Fig 13: GB access breakdown", &figures::fig13()),
            "fig14" => emit(&out_dir, name, "Fig 14: PP load balancing", &figures::fig14()),
            "fig15" => emit(&out_dir, name, "Fig 15: 512 vs 2048 PEs", &figures::fig15()),
            "fig16" => emit(&out_dir, name, "Fig 16: bandwidth sensitivity", &figures::fig16()),
            "flexibility" => emit(
                &out_dir,
                name,
                "Section V-D: value of flexibility (rigid vs reconfigurable)",
                &insights::flexibility(),
            ),
            "ablation" => emit(
                &out_dir,
                name,
                "Cost-model ablation (DESIGN.md S3 decisions)",
                &insights::ablation(),
            ),
            "accelerators" => emit(
                &out_dir,
                name,
                "Published accelerator dataflows: HyGCN vs AWB-GCN vs best preset",
                &insights::accelerators(),
            ),
            "sweep" => emit(
                &out_dir,
                name,
                "Graph-property sweep: where the best dataflow flips",
                &sweep::sweep_with_cache(&cache),
            ),
            "preset_gap" => emit(
                &out_dir,
                name,
                "Preset gap: best Table V preset vs the exhaustive 6,656-space optimum",
                &insights::preset_gap(&cache),
            ),
            "model_dse" => emit(
                &out_dir,
                name,
                "Model-level DSE: per-layer-specialised + pipelined chains vs best uniform preset",
                &insights::model_gap(&cache),
            ),
            "capacity_study" => emit(
                &out_dir,
                name,
                "Capacity study: Table V preset winners under finite RF/GB budgets",
                &insights::capacity_study(),
            ),
            other => {
                eprintln!("unknown experiment '{other}'; known: {}", all.join(", "));
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn emit<T: serde::Serialize>(out_dir: &std::path::Path, id: &str, title: &str, rows: &[T]) {
    print!("{}", render::text_table(title, rows));
    println!();
    let csv = out_dir.join(format!("{id}.csv"));
    let json = out_dir.join(format!("{id}.json"));
    if let Err(e) = render::write_csv(&csv, rows) {
        eprintln!("warning: could not write {}: {e}", csv.display());
    }
    if let Err(e) = render::write_json(&json, rows) {
        eprintln!("warning: could not write {}: {e}", json.display());
    }
}
