//! Integration coverage for the exhaustive DSE engine (ISSUE 2): on multiple
//! datasets, the engine's winner is never beaten by any preset, extended, or
//! sampled candidate, and the streaming enumeration agrees with the collected
//! one on the paper's 6,656 count.

use omega_gnn::prelude::*;

use omega_dataflow::enumerate::{all_patterns, design_space_size, PatternSpace};

/// Ranked entries as (dataflow, tiles, score bits, cycles, energy bits,
/// pattern index).
type RankKey = Vec<(String, String, u64, u64, u64, Option<usize>)>;

fn rank_key(
    ranked: &[dse::RankedDataflow],
    pattern_index: impl Fn(&dse::RankedDataflow) -> Option<usize>,
) -> RankKey {
    ranked
        .iter()
        .map(|r| {
            (
                r.dataflow.to_string(),
                format!("{:?}", r.dataflow.tile_tuple()),
                r.score.to_bits(),
                r.report.total_cycles,
                r.report.energy.total_pj().to_bits(),
                pattern_index(r),
            )
        })
        .collect()
}

/// `explore`'s ranked output.
fn explore_key(out: &dse::ExploreOutcome) -> RankKey {
    rank_key(&out.ranked, |r| r.pattern_index)
}

/// `explore_model`'s ranked output: (mapping, score bits, cycles, index).
fn model_key(out: &dse::model::ModelExploreOutcome) -> Vec<(String, u64, u64, Option<usize>)> {
    out.ranked
        .iter()
        .map(|r| (r.mapping.to_string(), r.score.to_bits(), r.report.total_cycles, r.index))
        .collect()
}

/// The sweep's oracle: the first `n` entries of `mapper::rank` over every
/// sweep candidate, each pattern index recovered from its list position.
fn reference_key(
    workload: &GnnWorkload,
    hw: &AccelConfig,
    objective: Objective,
    n: usize,
) -> RankKey {
    let candidates = dse::sweep_candidates(workload, hw);
    let ranked = mapper::rank(&candidates, workload, hw, objective);
    let position = |r: &dse::RankedDataflow| candidates.iter().position(|c| *c == r.dataflow);
    rank_key(&ranked[..n.min(ranked.len())], |r| position(r).filter(|&i| i < design_space_size()))
}

fn explore_best(workload: &GnnWorkload, hw: &AccelConfig, objective: Objective) -> f64 {
    let out = dse::explore(
        workload,
        hw,
        &DseOptions { objective, threads: 2, top_k: 1, ..DseOptions::default() },
    );
    assert_eq!(out.space, 6656);
    out.best().expect("non-empty space").score
}

#[test]
fn exhaustive_winner_never_beaten_by_any_candidate_source() {
    let hw = AccelConfig::paper_default();
    // Two datasets of different regimes: near-regular molecules and denser
    // protein graphs (LEF + the heavier tail).
    for spec in [DatasetSpec::mutag(), DatasetSpec::proteins()] {
        let workload = GnnWorkload::gcn_layer(&spec.generate(4), 16);
        for objective in [Objective::Runtime, Objective::Edp] {
            let best = explore_best(&workload, &hw, objective);
            let mut candidates = mapper::preset_candidates(&workload, &hw);
            candidates.extend(mapper::extended_candidates(&workload, &hw));
            candidates.extend(mapper::sampled_candidates(&workload, &hw, 400, 5));
            for df in &candidates {
                if let Ok(r) = evaluate(&workload, df, &hw) {
                    assert!(
                        best <= objective.score(&r) + 1e-9,
                        "{}: {df} beats the exhaustive winner under {objective:?} \
                         ({} vs {})",
                        workload.name,
                        objective.score(&r),
                        best,
                    );
                }
            }
        }
    }
}

#[test]
fn streaming_and_collected_enumeration_agree() {
    // The lazy iterator, the indexed space, and the closed-form count all say
    // 6,656 — and the streamed patterns are exactly the indexed ones.
    assert_eq!(design_space_size(), 6656);
    let collected: Vec<_> = all_patterns().collect();
    assert_eq!(collected.len(), 6656);
    let space = PatternSpace::new();
    assert_eq!(space.len(), collected.len());
    for (i, p) in collected.iter().enumerate() {
        assert_eq!(space.get(i), *p, "index {i}");
    }
}

#[test]
fn model_explore_winners_are_thread_count_invariant() {
    use omega_gnn::core::dse::model::{explore_model, ModelDseOptions, ModelExploreOutcome};
    use omega_gnn::core::models::GnnModel;

    let hw = AccelConfig::paper_default();
    let workload = GnnWorkload::gcn_layer(&DatasetSpec::mutag().generate(4), 16);
    let model = GnnModel::gcn_2layer(7);
    let cache = DseCache::new();
    let run = |threads: usize| -> ModelExploreOutcome {
        explore_model(
            &model,
            &workload,
            &hw,
            &ModelDseOptions {
                threads,
                top_k: 4,
                per_layer_k: 3,
                pel_rungs: 2,
                ..Default::default()
            },
            &cache,
        )
    };
    let a = run(1);
    let b = run(2);
    let c = run(8);
    // Bit-identical ranked winners regardless of worker count.
    assert!(!a.ranked.is_empty());
    assert_eq!(model_key(&a), model_key(&b));
    assert_eq!(model_key(&a), model_key(&c));
    assert_eq!((a.evaluated, a.skipped, a.space), (b.evaluated, b.skipped, b.space));
    assert_eq!((a.evaluated, a.skipped, a.space), (c.evaluated, c.skipped, c.space));
}

#[test]
fn pruned_cached_explore_is_bit_identical_on_two_datasets_and_objectives() {
    // ISSUE 4's contract: the phase-factored, lower-bound-pruned engine must
    // reproduce the `mapper::rank` oracle *exactly* — ranked dataflows, f64-bit
    // scores, pattern indices and reports — on Mutag and Proteins under both
    // Runtime and Edp, and pruning must only change the work accounting.
    let hw = AccelConfig::paper_default();
    for spec in [DatasetSpec::mutag(), DatasetSpec::proteins()] {
        let workload = GnnWorkload::gcn_layer(&spec.generate(4), 16);
        for objective in [Objective::Runtime, Objective::Edp] {
            let base = DseOptions { objective, threads: 2, top_k: 8, ..DseOptions::default() };
            let fast = dse::explore(&workload, &hw, &base);
            // Ranked output, bit for bit.
            assert_eq!(fast.ranked.len(), base.top_k);
            assert_eq!(
                explore_key(&fast),
                reference_key(&workload, &hw, objective, base.top_k),
                "{}/{objective:?}",
                workload.name
            );
            // Accounting: every candidate the unpruned sweep evaluated was
            // either evaluated or soundly pruned by the fast path; validation
            // skips and seeds are identical.
            let unpruned = dse::explore(&workload, &hw, &DseOptions { prune: false, ..base });
            assert_eq!(unpruned.pruned, 0, "{}/{objective:?}", workload.name);
            assert_eq!(
                fast.evaluated + fast.pruned,
                unpruned.evaluated,
                "{}/{objective:?}",
                workload.name
            );
            assert_eq!(fast.skipped, unpruned.skipped);
            assert_eq!(fast.seeded, unpruned.seeded);
            assert_eq!(explore_key(&fast), explore_key(&unpruned));
            // Under Runtime the prune must actually bite; under Edp it is off.
            match objective {
                Objective::Runtime => assert!(fast.pruned > 0, "{}", workload.name),
                _ => assert_eq!(fast.pruned, 0),
            }
        }
    }
}

#[test]
fn sequential_candidates_share_phase_simulations() {
    // PhaseSimCache observability: the full sweep touches each unique phase
    // configuration once — far fewer engine runs than 2 sims × candidates —
    // and the direct cache API shows Sequential dataflows sharing sims.
    let hw = AccelConfig::paper_default();
    let workload = GnnWorkload::gcn_layer(&DatasetSpec::mutag().generate(4), 16);
    let out = dse::explore(
        &workload,
        &hw,
        &DseOptions { threads: 2, prune: false, ..DseOptions::default() },
    );
    // With pruning off, every valid candidate evaluates, so the reuse ratio is
    // directly visible: hits + sims == 2 × (evaluated per-phase lookups).
    assert_eq!(out.phase_sims + out.phase_cache_hits, 2 * out.evaluated);
    assert!(
        out.phase_cache_hits > out.phase_sims,
        "expected most lookups served from cache: {} hits vs {} sims",
        out.phase_cache_hits,
        out.phase_sims
    );

    // And at the API level: two Sequential candidates differing only in the
    // Combination tiling share the Aggregation simulation.
    use omega_gnn::core::{PhaseSimCache, PreparedEval};
    let prep = PreparedEval::new(&workload, &hw);
    let cache = PhaseSimCache::new();
    use omega_gnn::dataflow::IntraTiling;
    let ctx = workload.tile_context(PhaseOrder::AC);
    let a = Preset::by_name("Seq1").unwrap().concretize(&ctx, hw.num_pes, hw.num_pes);
    let mut b = a;
    // Same Aggregation tiling, different Combination tiling.
    let mut tiles = *a.cmb.tiles();
    tiles[0] = if tiles[0] > 1 { tiles[0] / 2 } else { 2 };
    b.cmb = IntraTiling::new(a.cmb.phase(), a.cmb.order(), tiles);
    assert_ne!(a, b);
    let ra = prep.evaluate_with_cache(&a, &cache).unwrap();
    assert_eq!(cache.hits(), 0);
    assert_eq!(cache.misses(), 2); // one agg + one cmb sim
    let rb = prep.evaluate_with_cache(&b, &cache).unwrap();
    assert_eq!(cache.hits(), 1, "the shared Aggregation sim must be a hit");
    assert_eq!(cache.misses(), 3); // only the new cmb sim ran
    assert_eq!(ra.agg.cycles, rb.agg.cycles);
    // The cached path is bit-identical to the plain evaluation.
    let rb_plain = evaluate(&workload, &b, &hw).unwrap();
    assert_eq!(rb.total_cycles, rb_plain.total_cycles);
    assert_eq!(rb.counters, rb_plain.counters);
}

#[test]
fn search_result_counts_are_consistent() {
    let hw = AccelConfig::paper_default();
    let workload = GnnWorkload::gcn_layer(&DatasetSpec::mutag().generate(4), 16);
    let candidates = mapper::extended_candidates(&workload, &hw);
    let ranked = mapper::rank(&candidates, &workload, &hw, Objective::Runtime);
    // Every extended candidate is valid and distinct, so each one ranks once.
    assert_eq!(ranked.len(), candidates.len());
    assert!(ranked.windows(2).all(|w| w[0].score <= w[1].score));
    assert!(candidates.iter().all(|df| ranked.iter().any(|r| r.dataflow == *df)));
}

#[test]
fn gat_layer_explore_is_bit_identical_and_skips_sddmm_illegal_patterns() {
    // ISSUE 5: the layer-level exhaustive search over an attention workload
    // threads the third (SDDMM) phase through the factored engine — the
    // pruned/cached path must stay bit-identical to the `rank` oracle, and the
    // CA / N-before-V patterns the SDDMM cannot run count as validation skips.
    let hw = AccelConfig::paper_default();
    let plain = GnnWorkload::gcn_layer(&DatasetSpec::mutag().generate(4), 16);
    let gat = GnnWorkload::gat_layer(&DatasetSpec::mutag().generate(4), 16, 4);
    let base = DseOptions { threads: 2, top_k: 8, ..DseOptions::new(Objective::Runtime) };
    let fast = dse::explore(&gat, &hw, &base);
    assert_eq!(explore_key(&fast), reference_key(&gat, &hw, Objective::Runtime, base.top_k));
    let unpruned = dse::explore(&gat, &hw, &DseOptions { prune: false, ..base });
    assert_eq!(fast.evaluated + fast.pruned, unpruned.evaluated);
    assert_eq!(fast.skipped, unpruned.skipped);
    // The attention gates shrink the evaluable space: every CA pattern and
    // every N-before-V aggregation order is now a validation skip.
    let plain_out = dse::explore(&plain, &hw, &base);
    assert!(fast.skipped > plain_out.skipped, "{} vs {}", fast.skipped, plain_out.skipped);
    // Every ranked winner is AC with an SDDMM-legal aggregation order and a
    // scoring phase in its report.
    for r in &fast.ranked {
        assert_eq!(r.dataflow.phase_order, PhaseOrder::AC);
        assert!(omega_dataflow::validate_sddmm(&r.dataflow.agg).is_ok(), "{}", r.dataflow);
        assert!(r.report.sddmm.is_some());
        assert!(r.report.total_cycles > 0);
    }
    // Attention work is never free: the GAT optimum is strictly costlier than
    // the plain optimum of the same layer shape.
    assert!(fast.best().unwrap().score > plain_out.best().unwrap().score);
}

/// The work counters of an exploration: `(evaluated, pruned, skipped,
/// phase_sims, phase_cache_hits)`.
fn work_counters(o: &dse::ExploreOutcome) -> (usize, usize, usize, usize, usize) {
    (o.evaluated, o.pruned, o.skipped, o.phase_sims, o.phase_cache_hits)
}

#[test]
fn explore_work_counters_are_thread_invariant() {
    // The sweep decides which candidates each wave holds, and which phase
    // simulations it runs, from the bound-sorted candidate list and the
    // merged results alone — never from which worker finished first. So the
    // work counters, not just the ranked output, match at any thread count:
    // under the pruned Runtime objective, the unpruned Edp one, and the
    // Pareto frontier's bound-vector pruning.
    let hw = AccelConfig::paper_default();
    let workload = GnnWorkload::gcn_layer(&DatasetSpec::mutag().generate(4), 16);
    for (objective, pareto) in
        [(Objective::Runtime, false), (Objective::Edp, false), (Objective::Runtime, true)]
    {
        let run = |threads: usize| {
            dse::explore(
                &workload,
                &hw,
                &DseOptions { objective, pareto, threads, top_k: 8, ..DseOptions::default() },
            )
        };
        let one = run(1);
        assert!(one.phase_sims > 0 && one.phase_cache_hits > 0, "{objective:?}/{pareto}");
        for threads in [2, 8] {
            let other = run(threads);
            assert_eq!(
                work_counters(&one),
                work_counters(&other),
                "{objective:?}/pareto={pareto}: 1 vs {threads} threads"
            );
            assert_eq!(explore_key(&one), explore_key(&other));
        }
    }
}

/// FNV-1a over `text`: a compact pin for a ranked list's debug form.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// `explore`'s CLI defaults: the dataset seed, hidden width and top-K.
const CLI_SEED: u64 = 0x0E5A_2022;
const CLI_HIDDEN: usize = 16;
const CLI_TOP: usize = 10;

/// The pinned work of one canonical run: `(evaluated, pruned, skipped,
/// seeded, phase_sims, phase_cache_hits, frontier points, ranked digest)`.
type WorkPins = (usize, usize, usize, usize, usize, usize, usize, u64);

#[test]
fn explore_work_counters_are_pinned() {
    // The deterministic work accounting is this repository's performance
    // record: every counter below equals what `explore --json` prints for
    // the run at the CLI defaults, at any thread count. A change that moves
    // one of them updates the pin and explains the move in CHANGES.md.
    // (`class_replays` is a process-wide delta, so tests running in parallel
    // inflate it; the CI rmat-18 step pins it in a process of its own.)
    let hw = AccelConfig::paper_default();
    let runs: [(&str, bool, WorkPins); 5] = [
        ("Mutag", false, (428, 6240, 0, 12, 56, 800, 0, 0x5540_25cd_2b57_bc46)),
        ("Proteins", false, (268, 6400, 0, 12, 51, 485, 0, 0xeeba_9eca_2a2b_17c1)),
        ("Citeseer", false, (444, 6224, 0, 12, 65, 823, 0, 0xdbd6_bd8d_7ab0_14f0)),
        ("Mutag", true, (6668, 0, 0, 12, 713, 12623, 105, 0x5540_25cd_2b57_bc46)),
        ("rmat-16", false, (252, 6416, 0, 12, 57, 447, 0, 0x6513_8091_6b98_3bc5)),
    ];
    for (dataset, pareto, want) in runs {
        // The CLI's resolution: Table IV first, then the scale family.
        let workload = match DatasetSpec::by_name(dataset) {
            Some(spec) => GnnWorkload::gcn_layer(&spec.generate(CLI_SEED), CLI_HIDDEN),
            None => {
                let graph = omega_gnn::graph::scale_graph(dataset, CLI_SEED).expect("scale name");
                GnnWorkload::from_graph(&graph, CLI_HIDDEN)
            }
        };
        for threads in [1, 2] {
            let o = dse::explore(
                &workload,
                &hw,
                &DseOptions { threads, pareto, top_k: CLI_TOP, ..DseOptions::default() },
            );
            let got = (
                o.evaluated,
                o.pruned,
                o.skipped,
                o.seeded,
                o.phase_sims,
                o.phase_cache_hits,
                o.frontier.len(),
                fnv1a(&format!("{:?}", explore_key(&o))),
            );
            assert_eq!(got, want, "{dataset} pareto={pareto} at {threads} threads");
        }
    }
}

#[test]
fn model_work_counters_are_pinned() {
    use omega_gnn::core::dse::model::{explore_model, ModelDseOptions};
    use omega_gnn::core::models::GnnModel;

    // `explore --model gat --dataset Cora --pareto` at the CLI defaults: the
    // joint Pareto search through the SDDMM, SpMM and GEMM engines.
    let workload = GnnWorkload::gcn_layer(&DatasetSpec::cora().generate(CLI_SEED), CLI_HIDDEN);
    let o = explore_model(
        &GnnModel::gat_2layer(8, 7),
        &workload,
        &AccelConfig::paper_default(),
        &ModelDseOptions { threads: 2, top_k: CLI_TOP, pareto: true, ..ModelDseOptions::default() },
        &DseCache::new(),
    );
    let got = (
        o.evaluated,
        o.skipped,
        o.seeded,
        o.phase_sims,
        o.phase_cache_hits,
        o.ranked.len(),
        o.frontier.len(),
        fnv1a(&format!("{:?}", model_key(&o))),
    );
    assert_eq!(got, (169, 0, 9, 850, 10724, 10, 20, 0xe2db_f321_961e_7353));
}

#[test]
fn model_search_prepares_its_graph_once() {
    use omega_gnn::accel::telemetry;
    use omega_gnn::core::dse::model::{explore_model, ModelDseOptions};
    use omega_gnn::core::models::GnnModel;

    // The joint GAT-2 Pareto search on Cora with its layer searches already
    // cached: every one of its 169 chain evaluations walks one shared
    // preparation of the graph. The count also covers the chunked (PP)
    // VFN/FVN walks, which scan their tiles' degrees in place instead of
    // building a class summary, and the tile statistics the unchunked
    // VFN/FVN walks read. `prepare_ops` is thread-local, so the pin
    // holds only at one thread, where every chain runs on this one.
    let workload = GnnWorkload::gcn_layer(&DatasetSpec::cora().generate(CLI_SEED), CLI_HIDDEN);
    let (model, hw) = (GnnModel::gat_2layer(8, 7), AccelConfig::paper_default());
    let opts =
        ModelDseOptions { threads: 1, top_k: CLI_TOP, pareto: true, ..ModelDseOptions::default() };
    let cache = DseCache::new();
    explore_model(&model, &workload, &hw, &opts, &cache);
    telemetry::reset_prepare_ops();
    let o = explore_model(&model, &workload, &hw, &opts, &cache);
    assert_eq!(o.evaluated, 169);
    assert_eq!(telemetry::prepare_ops(), 348_260);
}

#[test]
fn preset_pass_preparation_is_pinned() {
    use omega_gnn::accel::telemetry;

    // The preset-gap pass: the 12 Table V and CA-variant presets, each
    // evaluated cold (a fresh `PreparedEval` per call), on rmat-14. The
    // count covers every degree element the preparations and the chunked
    // tile scans visit; `prepare_ops` is thread-local and `evaluate` runs
    // on the caller, so the pin is exact.
    let graph = omega_gnn::graph::scale_graph("rmat-14", 1).expect("rmat-14 resolves");
    let workload = GnnWorkload::from_graph(&graph, CLI_HIDDEN);
    let hw = AccelConfig::paper_default();
    telemetry::reset_prepare_ops();
    let presets = mapper::extended_candidates(&workload, &hw);
    for dataflow in &presets {
        evaluate(&workload, dataflow, &hw).expect("every preset evaluates");
    }
    assert_eq!((presets.len(), graph.num_vertices()), (12, 1 << 14));
    assert_eq!(telemetry::prepare_ops(), 393_216);
}

#[test]
fn scale_dataset_explore_is_thread_and_prune_invariant() {
    // ISSUE 10: the summary-driven walk makes a full 6,656-pattern sweep over
    // a 65k-vertex R-MAT graph test-sized — and the result must be bit-equal
    // across worker counts and with the lower-bound prune on or off.
    let graph = omega_gnn::graph::scale_graph("rmat-16", 11).expect("rmat-16 resolves");
    assert_eq!(graph.num_vertices(), 1 << 16);
    let workload = GnnWorkload::from_graph(&graph, 16);
    let hw = AccelConfig::paper_default();
    let run = |threads: usize, prune: bool| {
        dse::explore(
            &workload,
            &hw,
            &DseOptions { threads, prune, top_k: 8, ..DseOptions::new(Objective::Runtime) },
        )
    };
    let one = run(1, true);
    let two = run(2, true);
    let eight = run(8, true);
    let brute = run(2, false);
    assert_eq!(one.space, 6656);
    assert_eq!(explore_key(&one), explore_key(&two));
    assert_eq!(explore_key(&one), explore_key(&eight));
    assert_eq!(explore_key(&one), explore_key(&brute));
    assert_eq!(one.evaluated + one.pruned, brute.evaluated);
    // The work itself is a property of the space too: every unique phase
    // configuration is simulated once, whatever the worker count.
    assert_eq!(work_counters(&one), work_counters(&two));
    assert_eq!(work_counters(&one), work_counters(&eight));
    // The scaling machinery actually engaged: batched tile classes were
    // replayed rather than walked (the counter is process-wide and monotone,
    // so parallel tests only ever add to the delta — it cannot read zero
    // spuriously).
    assert!(one.class_replays > 0, "summary walk never replayed a class");
}

#[test]
fn summary_and_reference_walks_agree_at_dse_level() {
    // The per-edge oracle, threaded through the whole DSE stack via
    // `ModelKnobs::reference_walk`, must rank the scale-family space exactly
    // like the summary walk — scores bit-for-bit, same work accounting.
    let graph = omega_gnn::graph::scale_graph("chung-lu-8", 3).expect("chung-lu-8 resolves");
    let workload = GnnWorkload::from_graph(&graph, 16);
    let hw = AccelConfig::paper_default();
    let mut hw_oracle = hw;
    hw_oracle.knobs.reference_walk = true;
    let opts = DseOptions { threads: 2, top_k: 8, ..DseOptions::new(Objective::Runtime) };
    let summary = dse::explore(&workload, &hw, &opts);
    let oracle = dse::explore(&workload, &hw_oracle, &opts);
    assert_eq!(explore_key(&summary), explore_key(&oracle));
    // Both walks produce bit-identical phase results, and the sweep's waves
    // and pruning thresholds depend only on those results, so even the
    // evaluated/pruned split and the phase-simulation counts agree.
    assert_eq!(work_counters(&summary), work_counters(&oracle));
    assert!(summary.class_replays > 0);
}

#[test]
fn model_search_on_sampled_scale_subgraph_is_thread_invariant() {
    use omega_gnn::core::dse::model::{explore_model, ModelDseOptions, ModelExploreOutcome};
    use omega_gnn::core::models::GnnModel;

    // Model-level search over a subgraph sampled from a 16k-vertex R-MAT
    // graph: the sampled workload is deterministic, and the ranked model
    // mappings are invariant to worker count.
    let graph = omega_gnn::graph::scale_graph("rmat-14", 5).expect("rmat-14 resolves");
    let sub = omega_gnn::graph::scale::sample_subgraph(&graph, 400, 9);
    assert_eq!(sub.num_vertices(), 400);
    let workload = GnnWorkload::from_graph(&sub, 16);
    let model = GnnModel::gcn_2layer(7);
    let hw = AccelConfig::paper_default();
    let cache = DseCache::new();
    let run = |threads: usize| -> ModelExploreOutcome {
        explore_model(
            &model,
            &workload,
            &hw,
            &ModelDseOptions {
                threads,
                top_k: 4,
                per_layer_k: 3,
                pel_rungs: 2,
                ..Default::default()
            },
            &cache,
        )
    };
    let a = run(1);
    let b = run(8);
    assert!(!a.ranked.is_empty());
    assert_eq!(model_key(&a), model_key(&b));
    assert_eq!((a.evaluated, a.skipped, a.space), (b.evaluated, b.skipped, b.space));
}
