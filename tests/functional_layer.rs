//! Functional correctness across the stack: a dataflow is only a schedule, so
//! executing a GCN layer in any preset's tile order must reproduce the
//! reference kernels bit-for-bit (integer-valued operands keep f32 exact).

use omega_gnn::accel::functional::{execute_gemm, execute_spmm};
use omega_gnn::prelude::*;

#[test]
fn every_preset_schedule_computes_the_same_layer() {
    let hw = AccelConfig::paper_default();
    let dataset = DatasetSpec::mutag().generate(13);
    let graph = &dataset.graph;
    let wl = GnnWorkload::gcn_layer(&dataset, 16);

    let x0 = graph.features(3);
    let w = DenseMatrix::from_fn(wl.f, wl.g, |i, j| (((i * 5 + j * 3) % 7) as f32) - 3.0);
    let h_ref = ops::spmm(graph.adjacency(), &x0).expect("shapes agree");
    let out_ref = ops::gemm(&h_ref, &w).expect("shapes agree");

    for preset in Preset::all() {
        let df = mapper::concretize_preset(&preset, &wl, &hw);
        let h = execute_spmm(graph.adjacency(), &x0, &df.agg);
        assert_eq!(h, h_ref, "{}: aggregation result", preset.name);
        let out = execute_gemm(&h, &w, &df.cmb);
        assert_eq!(out, out_ref, "{}: combination result", preset.name);
    }
}

#[test]
fn gcn_normalisation_preserves_structure() {
    // Normalised adjacency changes values, not the sparsity structure the cost
    // model consumes.
    let spec = DatasetSpec::mutag();
    let plain = spec.generate(21).graph;
    let a = plain.adjacency();
    let normalised = GraphBuilder::new("norm", a.rows(), plain.feature_dim())
        .normalise(true)
        .edges(
            (0..a.rows())
                .flat_map(|r| a.row_cols(r).iter().map(move |&c| (r, c as usize)))
                .filter(|(r, c)| r < c),
        )
        .build();
    assert_eq!(normalised.num_vertices(), plain.num_vertices());
    // Row sums of the normalised matrix are bounded by 1-ish (symmetric norm).
    let d = normalised.adjacency();
    for r in 0..d.rows() {
        let sum: f32 = d.row_vals(r).iter().sum();
        assert!(sum <= 1.5, "row {r} sum {sum}");
    }
}
