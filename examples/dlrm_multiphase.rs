//! Beyond GNNs: a DLRM-shaped multiphase chain (Section VI).
//!
//! DLRM inference is "an SpMM and a DenseGEMM in parallel followed by
//! concatenation followed by a DenseGEMM". This example builds that chain from
//! the same phase engines and compares sequential, idealised-pipelined, and
//! PE-partitioned (PP) composition of the two-layer top MLP — and shows the
//! typed [`ChainError`] a structurally impossible chain now returns instead of
//! panicking.
//!
//! ```sh
//! cargo run --release --example dlrm_multiphase
//! ```

use omega_gnn::core::multiphase::{evaluate_chain, Chain, ChainNode, Link, Stage};
use omega_gnn::prelude::*;
use omega_accel::engine::GemmDims;
use omega_dataflow::{Dim, IntraTiling, LoopOrder, Phase};

fn agg_tiling(tiles: [usize; 3]) -> IntraTiling {
    IntraTiling::new(
        Phase::Aggregation,
        LoopOrder::new(Phase::Aggregation, [Dim::V, Dim::F, Dim::N]).expect("valid order"),
        tiles,
    )
}

fn cmb_tiling(tiles: [usize; 3]) -> IntraTiling {
    IntraTiling::new(
        Phase::Combination,
        LoopOrder::new(Phase::Combination, [Dim::V, Dim::G, Dim::F]).expect("valid order"),
        tiles,
    )
}

fn main() {
    let hw = AccelConfig::paper_default();

    // A batch of 2048 requests. Each gathers 32 sparse embeddings of width 64
    // (SpMM over a multi-hot lookup matrix) while the bottom MLP transforms the
    // 64 dense features; the concatenated 128-wide vector feeds a 2-layer top
    // MLP whose stages can be pipelined producer/consumer.
    let batch = 2048;
    let lookups = vec![32; batch];
    let front = ChainNode::Parallel(vec![
        Stage::spmm("embedding-gather", 64, agg_tiling([16, 16, 1])),
        Stage::gemm("bottom-mlp", GemmDims { v: batch, f: 64, g: 64 }, cmb_tiling([16, 16, 1])),
    ]);
    let top1 = |t: [usize; 3]| {
        Stage::gemm("top-mlp-1", GemmDims { v: batch, f: 128, g: 64 }, cmb_tiling(t))
    };
    let top2 = |t: [usize; 3]| {
        Stage::gemm("top-mlp-2", GemmDims { v: batch, f: 64, g: 32 }, cmb_tiling(t))
    };

    // The top-MLP handoff is 2048×64 elements; pipeline it 64 rows at a time.
    let pel = 64 * 64;
    let variants: [(&str, [usize; 3], [usize; 3], Link); 3] = [
        ("sequential top MLP", [16, 16, 2], [16, 16, 1], Link::Sequential),
        // Idealised: both stages keep the full NoC — an upper bound.
        ("pipelined top MLP (idealised)", [16, 16, 2], [16, 16, 1], Link::pipelined(pel)),
        // Physical PP: 256/256 PE partition, proportionally split bandwidth.
        ("pipelined top MLP (PP 256/256)", [16, 16, 1], [16, 16, 1], Link::pipelined_split(pel, 256, 256)),
    ];
    for (label, t1, t2, link) in variants {
        let chain = Chain {
            nodes: vec![front.clone(), ChainNode::Single(top1(t1)), ChainNode::Single(top2(t2))],
            links: vec![Link::Sequential, link],
        };
        let report = evaluate_chain(&chain, &lookups, &hw).expect("chain is structurally valid");
        println!("{label}:");
        for (name, stats) in &report.stages {
            println!(
                "  {:<18} {:>10} cycles   {:>12} MACs   util {:.2}",
                name,
                stats.cycles,
                stats.macs,
                stats.compute_utilisation()
            );
        }
        println!(
            "  total: {} cycles, {:.3} uJ buffer energy\n",
            report.total_cycles,
            report.energy.total_uj()
        );
    }

    // Pipelining into the parallel front end is structurally impossible —
    // historically a panic, now a typed error the mapper can skip over.
    let bad = Chain {
        nodes: vec![front, ChainNode::Single(top1([16, 16, 2]))],
        links: vec![Link::pipelined(pel)],
    };
    let err = evaluate_chain(&bad, &lookups, &hw).expect_err("parallel neighbours cannot pipeline");
    println!("pipelining a Parallel neighbour is rejected: {err}\n");

    println!("the taxonomy's inter-phase analysis carries over unchanged: the");
    println!("pipelined link applies the same sum(max(...)) composition as PP,");
    println!("and the partitioned variant throttles each side to its NoC share.");
}
