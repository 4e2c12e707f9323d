//! Functional end-to-end GCN layer: numeric inference plus dataflow costing.
//!
//! Runs `X1 = ReLU((A · X0) · W)` numerically with the reference kernels,
//! verifies that executing the same layer in an arbitrary dataflow's tile order
//! produces identical results (a dataflow only reorders computation), and then
//! costs every Table V dataflow for the layer.
//!
//! ```sh
//! cargo run --release --example gcn_layer
//! ```

use omega_gnn::accel::functional::{execute_gemm, execute_spmm};
use omega_gnn::prelude::*;

fn main() {
    // A small molecular batch so the functional pass is instant.
    let dataset = DatasetSpec::mutag().generate(7);
    let graph = &dataset.graph;
    let workload = GnnWorkload::gcn_layer(&dataset, 16);
    println!("GCN layer over {}: V={}, F={}, G={}", workload.name, workload.v, workload.f, workload.g);

    // --- numeric inference with the reference kernels -----------------------
    let x0 = graph.features(1); // deterministic synthetic features
    let w = DenseMatrix::from_fn(workload.f, workload.g, |i, j| {
        (((i * 7 + j * 13) % 5) as f32 - 2.0) / 2.0
    });
    let h = ops::spmm(graph.adjacency(), &x0).expect("shapes agree");
    let x1 = ops::gemm(&h, &w).expect("shapes agree");
    let relu = DenseMatrix::from_fn(x1.rows(), x1.cols(), |i, j| x1.get(i, j).max(0.0));
    println!("output: {}x{} features, Frobenius norm {:.2}", relu.rows(), relu.cols(), relu.frobenius_norm());

    // --- a dataflow is only a schedule: same numbers in tile order ----------
    let hw = AccelConfig::paper_default();
    let preset = Preset::by_name("SP2").expect("preset exists");
    let ctx = workload.tile_context(preset.pattern.phase_order);
    let df = preset.concretize(&ctx, hw.num_pes, hw.num_pes);
    let h_tiled = execute_spmm(graph.adjacency(), &x0, &df.agg);
    let x1_tiled = execute_gemm(&h_tiled, &w, &df.cmb);
    assert!(
        x1_tiled.allclose(&x1, 1e-5, 1e-5),
        "dataflow execution must match the reference"
    );
    println!("functional check: {} reproduces the reference result exactly", df);

    // --- cost every Table V dataflow for this layer --------------------------
    println!("\n{:<8} {:>12} {:>10} {:>12}", "dataflow", "cycles", "vs Seq1", "energy (uJ)");
    let mut baseline = None;
    for preset in Preset::all() {
        let df = mapper::concretize_preset(&preset, &workload, &hw);
        let report = evaluate(&workload, &df, &hw).expect("legal dataflow");
        let norm = match &baseline {
            None => {
                baseline = Some(report.total_cycles);
                1.0
            }
            Some(b) => report.total_cycles as f64 / *b as f64,
        };
        println!(
            "{:<8} {:>12} {:>10.3} {:>12.3}",
            preset.name,
            report.total_cycles,
            norm,
            report.energy.total_uj()
        );
    }
}
