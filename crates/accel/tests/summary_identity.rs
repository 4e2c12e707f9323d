//! Differential proof that the summary-driven walk is bit-identical to the
//! per-edge reference oracle.
//!
//! The default SpMM/SDDMM walk batches degree classes and replays tile
//! timelines by multiplicity; `EngineOptions::reference_walk` keeps the old
//! fully unbatched per-edge path alive as an oracle. This suite compares the
//! two walks *field by field* (`PhaseStats` deliberately has no `PartialEq`,
//! so nothing can silently widen the comparison) across:
//!
//! * all seven Table-IV datasets (large ones down-sampled via
//!   [`omega_graph::scale::sample_subgraph`] to keep the O(nnz) oracle
//!   tractable),
//! * adversarial degree vectors — star hubs, rings, bimodal mixes, empty
//!   rows, a lone mega-hub, degrees on neighbour-slice boundaries, and the
//!   empty workload,
//! * all SpMM loop orders, SDDMM orders and head counts, a tiling spread with
//!   remainder tiles, chunked timelines on both sides, residency flags,
//!   throttled bandwidth, and finite capacity budgets that force spills,
//! * a proptest arm over random Chung-Lu degree distributions.
//!
//! Two regression tests pin the scaling claims themselves: prepared-summary
//! construction is one-shot (the second simulation of the same workload
//! builds nothing, while the reference walk keeps re-scanning tiles), and the
//! summary walk actually *replays* duplicate tiles instead of walking them.

use omega_accel::engine::{
    simulate_sddmm, simulate_spmm, simulate_spmm_prepared, CapacityBudget, ChunkSide, ChunkSpec,
    EngineOptions, OperandClasses, PreparedSpmm, SddmmWorkload, SpmmWorkload,
};
use omega_accel::{telemetry, AccelConfig, BandwidthShare, PhaseStats};
use omega_dataflow::{Dim, IntraTiling, LoopOrder, Phase};
use omega_graph::generators::chung_lu;
use omega_graph::scale::sample_subgraph;
use omega_graph::DatasetSpec;
use proptest::prelude::*;

fn tiling(phase: Phase, order: &str, tiles: [usize; 3]) -> IntraTiling {
    let d: Vec<Dim> = order.chars().map(|c| Dim::from_letter(c).unwrap()).collect();
    IntraTiling::new(phase, LoopOrder::new(phase, [d[0], d[1], d[2]]).unwrap(), tiles)
}

const SPMM_ORDERS: [&str; 6] = ["VFN", "FVN", "VNF", "FNV", "NVF", "NFV"];
const SDDMM_ORDERS: [&str; 3] = ["VFN", "VNF", "FVN"];
/// Tile sizes in loop order. The last point puts `T_N = 8` under every order,
/// so the folded slice runs span several slices, next to remainder tiles
/// (`F = 19`, odd vertex counts).
const TILINGS: [[usize; 3]; 5] = [[1, 1, 1], [4, 4, 2], [16, 8, 4], [5, 3, 2], [8, 8, 8]];

/// Field-by-field equality. `PhaseStats` has no `PartialEq` on purpose: every
/// new cost-model field must be added here explicitly or the compiler keeps
/// quiet and the oracle stops covering it — so we enumerate all nine fields.
fn assert_same(summary: &PhaseStats, reference: &PhaseStats, ctx: &str) {
    assert_eq!(summary.cycles, reference.cycles, "cycles: {ctx}");
    assert_eq!(summary.stall_cycles, reference.stall_cycles, "stall_cycles: {ctx}");
    assert_eq!(summary.macs, reference.macs, "macs: {ctx}");
    assert_eq!(summary.counters, reference.counters, "counters: {ctx}");
    assert_eq!(summary.pe_footprint, reference.pe_footprint, "pe_footprint: {ctx}");
    assert_eq!(summary.chunk_marks, reference.chunk_marks, "chunk_marks: {ctx}");
    assert_eq!(summary.psum_spilled, reference.psum_spilled, "psum_spilled: {ctx}");
    assert_eq!(summary.rf_peak_bytes, reference.rf_peak_bytes, "rf_peak_bytes: {ctx}");
    assert_eq!(summary.gb_peak_bytes, reference.gb_peak_bytes, "gb_peak_bytes: {ctx}");
}

/// The option matrix: chunk specs (none / produce / consume at non-round
/// `Pel`), residency combinations, bandwidth shares, and capacity budgets
/// including finite ones small enough to force the PR 7 spill arms. `full`
/// selects the exhaustive matrix (72 options) for the small adversarial
/// vectors; the reduced matrix (12 options) still covers every arm once and
/// keeps the per-edge oracle affordable on the real datasets.
fn option_matrix(cfg: &AccelConfig, full: bool) -> Vec<EngineOptions> {
    let chunks = [
        None,
        Some(ChunkSpec { side: ChunkSide::Produce, pel: 257 }),
        Some(ChunkSpec { side: ChunkSide::Consume, pel: 1023 }),
    ];
    let all_flags = [(false, false, false), (true, false, false), (false, true, false), (true, true, true)];
    let flags: &[(bool, bool, bool)] = if full { &all_flags } else { &all_flags[..2] };
    let bws = if full {
        vec![cfg.full_bandwidth(), BandwidthShare { dist: 48, red: 48 }]
    } else {
        vec![cfg.full_bandwidth()]
    };
    let caps = [
        CapacityBudget::UNBOUNDED,
        CapacityBudget { rf_bytes_per_pe: 128, gb_bytes: 1 << 13 },
        CapacityBudget { rf_bytes_per_pe: 24, gb_bytes: 3072 },
    ];
    let caps: &[CapacityBudget] = if full { &caps } else { &caps[..2] };
    let mut out = Vec::new();
    for chunk in chunks {
        for &(input_resident, output_stays_local, scores_resident) in flags {
            for &bandwidth in &bws {
                for &capacity in caps {
                    out.push(EngineOptions {
                        bandwidth,
                        input_resident,
                        output_stays_local,
                        scores_resident,
                        chunk,
                        capacity,
                        reference_walk: false,
                    });
                }
            }
        }
    }
    out
}

/// Sweeps one degree vector through both walks and asserts bit-identity on
/// every (order, tiling, option) point.
fn sweep_spmm(label: &str, degrees: &[usize], f: usize, cfg: &AccelConfig, opts: &[EngineOptions]) {
    let swl = SpmmWorkload { degrees, feature_width: f };
    for order in SPMM_ORDERS {
        for tiles in TILINGS {
            let t = tiling(Phase::Aggregation, order, tiles);
            for base in opts {
                let classes = if base.scores_resident {
                    OperandClasses::aggregation_gat()
                } else {
                    OperandClasses::aggregation_ac()
                };
                let summary = simulate_spmm(&swl, &t, cfg, &classes, base);
                let mut oracle = *base;
                oracle.reference_walk = true;
                let reference = simulate_spmm(&swl, &t, cfg, &classes, &oracle);
                assert_same(
                    &summary,
                    &reference,
                    &format!("{label} spmm {order} tiles={tiles:?} opts={base:?}"),
                );
            }
        }
    }
}

fn sweep_sddmm(label: &str, degrees: &[usize], f: usize, cfg: &AccelConfig, opts: &[EngineOptions]) {
    for heads in [1usize, 3] {
        let swl = SddmmWorkload { degrees, dot_width: (f / heads).max(1), heads };
        for order in SDDMM_ORDERS {
            for tiles in TILINGS {
                let t = tiling(Phase::Aggregation, order, tiles);
                for base in opts {
                    let summary = simulate_sddmm(&swl, &t, cfg, &OperandClasses::sddmm(), base);
                    let mut oracle = *base;
                    oracle.reference_walk = true;
                    let reference = simulate_sddmm(&swl, &t, cfg, &OperandClasses::sddmm(), &oracle);
                    assert_same(
                        &summary,
                        &reference,
                        &format!("{label} sddmm h={heads} {order} tiles={tiles:?} opts={base:?}"),
                    );
                }
            }
        }
    }
}

/// Hand-built degree vectors that stress the class machinery: maximal
/// multiplicity (every tile identical), no multiplicity (a hub dominating one
/// tile), empty rows inside and between tiles, and the degenerate workloads.
fn adversarial_vectors() -> Vec<(&'static str, Vec<usize>)> {
    let mut star = vec![2usize; 64];
    star[0] = 64; // hub: every spoke + self loop
    let bimodal: Vec<usize> = (0..96).map(|i| if i % 2 == 0 { 2 } else { 33 }).collect();
    let holes: Vec<usize> = (0..80).map(|i| if i % 3 == 0 { 0 } else { 5 + i % 7 }).collect();
    let mut lone_hub = vec![0usize; 97];
    lone_hub[41] = 500;
    // Degrees on slice boundaries (`d == hi`) for every `T_N` dividing 4.
    let multiples: Vec<usize> = (0..64).map(|i| 4 * (i % 9)).collect();
    vec![
        ("star", star),
        ("ring", vec![3usize; 64]),
        ("bimodal", bimodal),
        ("holes", holes),
        ("lone-hub", lone_hub),
        ("multiples", multiples),
        ("single-row", vec![7usize]),
        ("empty", Vec::new()),
    ]
}

#[test]
fn adversarial_degree_vectors_are_bit_identical() {
    let cfg = AccelConfig::paper_default();
    let opts = option_matrix(&cfg, true);
    for (label, degrees) in adversarial_vectors() {
        sweep_spmm(label, &degrees, 19, &cfg, &opts);
        sweep_sddmm(label, &degrees, 19, &cfg, &opts);
    }
}

#[test]
fn table_iv_datasets_are_bit_identical() {
    let cfg = AccelConfig::paper_default();
    let opts = option_matrix(&cfg, false);
    for spec in DatasetSpec::all() {
        let ds = spec.generate(7);
        // The oracle is O(nnz) per pass; down-sample the big batches to a
        // representative subgraph and cap the feature sweep so the full
        // 7-dataset × order × tiling × option product stays test-sized.
        let graph = if ds.graph.num_vertices() > 1600 {
            sample_subgraph(&ds.graph, 1200, 7)
        } else {
            ds.graph.clone()
        };
        let degrees: Vec<usize> = (0..graph.num_vertices()).map(|i| graph.degree(i)).collect();
        let f = graph.feature_dim().min(96);
        sweep_spmm(spec.name, &degrees, f, &cfg, &opts);
        sweep_sddmm(spec.name, &degrees, f, &cfg, &opts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random Chung-Lu degree distributions, one (order, tiling, option)
    /// point per case so shrinking isolates the exact failing configuration.
    #[test]
    fn random_chung_lu_degrees_are_bit_identical(
        n in 1usize..180,
        edges in 1usize..600,
        seed in 0u64..1024,
        order_idx in 0usize..6,
        tiling_idx in 0usize..TILINGS.len(),
        opt_idx in 0usize..72,
    ) {
        let g = chung_lu("cl", n, edges, 2.3, 4, seed).build();
        let degrees: Vec<usize> = (0..g.num_vertices()).map(|i| g.degree(i)).collect();
        let cfg = AccelConfig::paper_default();
        let opts = option_matrix(&cfg, true);
        let base = opts[opt_idx % opts.len()];
        let mut oracle = base;
        oracle.reference_walk = true;
        let t = tiling(Phase::Aggregation, SPMM_ORDERS[order_idx], TILINGS[tiling_idx]);
        let classes = if base.scores_resident {
            OperandClasses::aggregation_gat()
        } else {
            OperandClasses::aggregation_ac()
        };
        let swl = SpmmWorkload { degrees: &degrees, feature_width: 24 };
        let ctx = format!(
            "cl n={n} edges={edges} seed={seed} {} tiles={:?} opts={base:?}",
            SPMM_ORDERS[order_idx], TILINGS[tiling_idx],
        );
        assert_same(
            &simulate_spmm(&swl, &t, &cfg, &classes, &base),
            &simulate_spmm(&swl, &t, &cfg, &classes, &oracle),
            &ctx,
        );
        let dwl = SddmmWorkload { degrees: &degrees, dot_width: 8, heads: 3 };
        let st = tiling(Phase::Aggregation, SDDMM_ORDERS[order_idx % 3], TILINGS[tiling_idx]);
        assert_same(
            &simulate_sddmm(&dwl, &st, &cfg, &OperandClasses::sddmm(), &base),
            &simulate_sddmm(&dwl, &st, &cfg, &OperandClasses::sddmm(), &oracle),
            &ctx,
        );
    }
}

/// Pins the tentpole's cost claim: preparing the summary structures touches
/// O(V + classes) degree elements *once* — the second simulation of the same
/// `PreparedSpmm` builds nothing — while the per-edge oracle re-scans tiles
/// on every call. `prepare_ops` is thread-local, so parallel tests in this
/// binary cannot perturb the deltas.
#[test]
fn prepared_summary_build_cost_is_one_shot_and_reference_rescans() {
    let degrees: Vec<usize> = (0..1024).map(|i| (i * 7919) % 37).collect();
    let v = degrees.len() as u64;
    let cfg = AccelConfig::paper_default();
    let t = tiling(Phase::Aggregation, "VNF", [8, 4, 4]);
    let classes = OperandClasses::aggregation_ac();
    let opts = EngineOptions::plain(cfg.full_bandwidth());

    telemetry::reset_prepare_ops();
    let prep = PreparedSpmm::new(&degrees);
    let (first, _) = simulate_spmm_prepared(&prep, 32, &t, &cfg, &classes, &opts);
    let built = telemetry::prepare_ops();
    assert!(built > 0, "summary build must be visible to the counter");
    assert!(
        built <= 8 * v + 4096,
        "summary build cost {built} is not O(V + classes) for V = {v}"
    );

    let (second, _) = simulate_spmm_prepared(&prep, 32, &t, &cfg, &classes, &opts);
    assert_eq!(telemetry::prepare_ops(), built, "second simulation rebuilt summary state");
    assert_same(&first, &second, "prepared re-simulation");

    let mut oracle = opts;
    oracle.reference_walk = true;
    let (r1, _) = simulate_spmm_prepared(&prep, 32, &t, &cfg, &classes, &oracle);
    let after_first_oracle = telemetry::prepare_ops();
    assert!(after_first_oracle > built, "reference walk must scan tiles");
    assert_same(&first, &r1, "oracle vs prepared summary");
    let _ = simulate_spmm_prepared(&prep, 32, &t, &cfg, &classes, &oracle);
    assert!(
        telemetry::prepare_ops() > after_first_oracle,
        "reference walk must re-scan on every simulation"
    );
}

/// The summary walk must *replay* duplicate tiles, not walk them: 256
/// identical rows at `Tv = 4` form 64 identical tiles, so one timeline is
/// computed and the rest replayed — visible as growth of the process-wide
/// replay counter (monotone, so parallel tests only ever add to it).
#[test]
fn summary_walk_replays_duplicate_tiles() {
    let degrees = vec![6usize; 256];
    let swl = SpmmWorkload { degrees: &degrees, feature_width: 16 };
    let cfg = AccelConfig::paper_default();
    let t = tiling(Phase::Aggregation, "VFN", [4, 4, 2]);
    let opts = EngineOptions::plain(cfg.full_bandwidth());
    let before = telemetry::class_replays();
    let _ = simulate_spmm(&swl, &t, &cfg, &OperandClasses::aggregation_ac(), &opts);
    assert!(
        telemetry::class_replays() > before,
        "uniform-degree workload produced no class replays"
    );
}
