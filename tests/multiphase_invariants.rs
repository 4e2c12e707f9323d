//! Chain-composition invariants (ISSUE 3): sequential chains add, pipelining
//! with full resources never loses, partitioned pipelining stays bracketed,
//! and structurally impossible chains return typed errors.

use omega_gnn::core::models::{to_chain, uniform_layer_dataflows, GnnModel};
use omega_gnn::core::multiphase::{
    evaluate_chain, Chain, ChainError, ChainNode, Link, Stage,
};
use omega_gnn::prelude::*;
use omega_accel::engine::GemmDims;
use omega_dataflow::{Dim, IntraTiling, LoopOrder, Phase};

fn cmb_tiling(tiles: [usize; 3]) -> IntraTiling {
    IntraTiling::new(
        Phase::Combination,
        LoopOrder::new(Phase::Combination, [Dim::V, Dim::G, Dim::F]).unwrap(),
        tiles,
    )
}

fn agg_tiling(tiles: [usize; 3]) -> IntraTiling {
    IntraTiling::new(
        Phase::Aggregation,
        LoopOrder::new(Phase::Aggregation, [Dim::V, Dim::F, Dim::N]).unwrap(),
        tiles,
    )
}

/// The graph the chains' SpMM stage walks: 96 rows of 6 non-zeros.
const GRAPH: [usize; 96] = [6; 96];

/// A 4-stage chain mixing SpMM and GEMM stages of different weights.
fn stages() -> Vec<Stage> {
    vec![
        Stage::spmm("s0", 32, agg_tiling([8, 4, 1])),
        Stage::gemm("s1", GemmDims { v: 96, f: 32, g: 24 }, cmb_tiling([8, 8, 1])),
        Stage::gemm("s2", GemmDims { v: 96, f: 24, g: 48 }, cmb_tiling([16, 4, 1])),
        Stage::gemm("s3", GemmDims { v: 96, f: 48, g: 8 }, cmb_tiling([4, 4, 2])),
    ]
}

fn all_sequential() -> Chain {
    let nodes: Vec<ChainNode> = stages().into_iter().map(ChainNode::Single).collect();
    let links = vec![Link::Sequential; 3];
    Chain { nodes, links }
}

#[test]
fn all_sequential_chain_is_the_sum_of_its_stages() {
    let hw = AccelConfig::paper_default();
    let r = evaluate_chain(&all_sequential(), &GRAPH, &hw).unwrap();
    assert_eq!(r.stages.len(), 4);
    let sum: u64 = r.stages.iter().map(|(_, s)| s.cycles).sum();
    assert_eq!(r.total_cycles, sum);
}

#[test]
fn pipelining_any_sequential_link_never_increases_total_cycles() {
    // Converting one Sequential link to Pipelined with `split: None` keeps
    // both stages' full resources — the schedule can only improve (or tie).
    let hw = AccelConfig::paper_default();
    let base = evaluate_chain(&all_sequential(), &GRAPH, &hw).unwrap();
    for link_idx in 0..3 {
        for pel in [64u64, 96 * 8, 96 * 24] {
            let mut chain = all_sequential();
            chain.links[link_idx] = Link::pipelined(pel);
            let r = evaluate_chain(&chain, &GRAPH, &hw).unwrap();
            assert!(
                r.total_cycles <= base.total_cycles,
                "link {link_idx} pel {pel}: {} > {}",
                r.total_cycles,
                base.total_cycles
            );
            // And the pipelined pair can never finish before its slower stage.
            let slowest = r.stages.iter().map(|(_, s)| s.cycles).max().unwrap();
            assert!(r.total_cycles >= slowest);
        }
    }
}

#[test]
fn partitioned_pipelining_stays_within_the_sequential_bracket_of_its_own_stages() {
    // A partitioned link throttles both stages, so it may well lose to the
    // sequential chain — but it must stay within [max, sum] of the stage
    // cycles it actually produced.
    let hw = AccelConfig::paper_default();
    let mut chain = all_sequential();
    chain.links[1] = Link::pipelined_split(96 * 8, 256, 256);
    let r = evaluate_chain(&chain, &GRAPH, &hw).unwrap();
    let s: Vec<u64> = r.stages.iter().map(|(_, st)| st.cycles).collect();
    // stages 0 and 3 are sequential; 1→2 pipeline contributes ≤ s1+s2.
    assert!(r.total_cycles <= s.iter().sum::<u64>());
    assert!(r.total_cycles >= s[0] + s[3] + s[1].max(s[2]));
}

#[test]
fn model_chain_sequential_to_pipelined_inter_layer_invariant() {
    // The same invariant through the model lowering: pipelining the layer
    // boundary of a GCN-2 with full resources kept never increases the total.
    let hw = AccelConfig::paper_default();
    let dataset = DatasetSpec::mutag().generate(4);
    let wl = GnnWorkload::gcn_layer(&dataset, 16);
    let model = GnnModel::gcn_2layer(7);
    let preset = Preset::by_name("Seq1").unwrap();
    let dfs = uniform_layer_dataflows(&model, &wl, &preset, &hw).unwrap();
    let seq = to_chain(&model, &wl, &dfs, &[Link::Sequential], &hw).unwrap();
    let r_seq = evaluate_chain(&seq, &wl.degrees, &hw).unwrap();
    let (elems, _) = model.layer_output_shape(&wl, 0);
    for pel in [elems / 2, elems / 8, elems / 64] {
        let pip = to_chain(&model, &wl, &dfs, &[Link::pipelined(pel.max(1))], &hw).unwrap();
        let r_pip = evaluate_chain(&pip, &wl.degrees, &hw).unwrap();
        assert!(
            r_pip.total_cycles <= r_seq.total_cycles,
            "pel {pel}: {} > {}",
            r_pip.total_cycles,
            r_seq.total_cycles
        );
    }
}

#[test]
fn structural_errors_are_typed_not_panics() {
    let hw = AccelConfig::paper_default();

    // Link count mismatch.
    let mut chain = all_sequential();
    chain.links.pop();
    assert!(matches!(
        evaluate_chain(&chain, &GRAPH, &hw),
        Err(ChainError::LinkCountMismatch { nodes: 4, links: 2 })
    ));

    // Pipelined link into a Parallel node.
    let chain = Chain {
        nodes: vec![
            ChainNode::Single(Stage::gemm("a", GemmDims { v: 8, f: 8, g: 8 }, cmb_tiling([2, 2, 1]))),
            ChainNode::Parallel(vec![Stage::gemm(
                "b",
                GemmDims { v: 8, f: 8, g: 8 },
                cmb_tiling([2, 2, 1]),
            )]),
        ],
        links: vec![Link::pipelined(8)],
    };
    assert!(matches!(
        evaluate_chain(&chain, &GRAPH, &hw),
        Err(ChainError::PipelinedParallelNode { node: 1 })
    ));

    // A middle stage pipelined on both sides.
    let mut chain = all_sequential();
    chain.links[0] = Link::pipelined(64);
    chain.links[1] = Link::pipelined(64);
    assert!(matches!(
        evaluate_chain(&chain, &GRAPH, &hw),
        Err(ChainError::PipelinedBothSides { node: 1 })
    ));

    // Partition allocations that cannot hold the stage tilings.
    let mut chain = all_sequential();
    chain.links[0] = Link::pipelined_split(64, 8, 504); // s0 footprint is 32
    assert!(matches!(
        evaluate_chain(&chain, &GRAPH, &hw),
        Err(ChainError::PartitionTooSmall { node: 0, allocated: 8, footprint: 32 })
    ));
    let mut chain = all_sequential();
    chain.links[0] = Link::pipelined_split(64, 400, 200);
    assert!(matches!(
        evaluate_chain(&chain, &GRAPH, &hw),
        Err(ChainError::PartitionOversubscribed { allocated: 600, available: 512 })
    ));

    // The valid paths still evaluate.
    assert!(evaluate_chain(&all_sequential(), &GRAPH, &hw).is_ok());
}
