//! Bandwidth sensitivity (Fig. 16 extended): sweep the global-buffer
//! distribution/reduction bandwidth and watch the inter-phase strategies
//! diverge — PP suffers most because the two concurrent partitions share the
//! NoC (Section V-C3).
//!
//! ```sh
//! cargo run --release --example bandwidth_sweep [dataset]
//! ```

use omega_gnn::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let dataset_name = args.get(1).map(String::as_str).unwrap_or("Collab");
    let spec = DatasetSpec::by_name(dataset_name).unwrap_or_else(DatasetSpec::collab);
    let dataset = spec.generate(3);
    let workload = GnnWorkload::gcn_layer(&dataset, 16);

    let presets = ["Seq1", "Seq2", "SP1", "SP2", "PP1", "PP3"];
    println!("GB bandwidth sweep on {} (elements/cycle)\n", workload.name);
    print!("{:>10}", "bandwidth");
    for p in presets {
        print!(" {p:>12}");
    }
    println!();

    let mut baseline = None;
    for bw in [512usize, 384, 256, 128, 64, 32] {
        let hw = AccelConfig::paper_default().with_bandwidth(bw);
        print!("{bw:>10}");
        for name in presets {
            let preset = Preset::by_name(name).expect("preset exists");
            let df = mapper::concretize_preset(&preset, &workload, &hw);
            let report = evaluate(&workload, &df, &hw).expect("legal dataflow");
            if bw == 512 && name == "Seq1" {
                baseline = Some(report.total_cycles);
            }
            let norm = report.total_cycles as f64 / baseline.expect("Seq1@512 first") as f64;
            print!(" {norm:>12.3}");
        }
        println!();
    }
    println!("\n(values normalised to Seq1 at 512 elements/cycle, as in Fig. 16)");
}
