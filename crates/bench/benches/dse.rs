//! Criterion benches for the exhaustive DSE engine: full-space search cost and
//! thread scaling (near-linear on multi-core hosts; flat on a single core).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use omega_accel::AccelConfig;
use omega_core::dse::{explore, sweep_candidates, DseOptions};
use omega_core::mapper::{rank, Objective};
use omega_core::GnnWorkload;
use omega_graph::DatasetSpec;

fn workload(name: &str) -> GnnWorkload {
    let dataset = DatasetSpec::by_name(name).expect("dataset").generate(0x0E5A_2022);
    GnnWorkload::gcn_layer(&dataset, 16)
}

fn bench_thread_scaling(c: &mut Criterion) {
    let wl = workload("Mutag");
    let cfg = AccelConfig::paper_default();
    let mut group = c.benchmark_group("dse_exhaustive_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &threads| {
            b.iter(|| {
                let out = explore(
                    &wl,
                    &cfg,
                    &DseOptions { threads, ..DseOptions::new(Objective::Runtime) },
                );
                assert_eq!(out.space, 6656);
                out.best().map(|r| r.report.total_cycles)
            })
        });
    }
    group.finish();
}

/// The ISSUE 4 headline: the pruned sweep vs the unpruned one and the
/// `mapper::rank` reference over every sweep candidate, single-threaded, per
/// dataset (the configuration `BENCH_dse.json` records — regenerate its
/// numbers from this bench's output after engine changes).
fn bench_factored_vs_reference(c: &mut Criterion) {
    let cfg = AccelConfig::paper_default();
    for dataset in ["Mutag", "Proteins", "Citeseer"] {
        let wl = workload(dataset);
        let mut group = c.benchmark_group(format!("dse_single_thread/{dataset}"));
        // The reference arm evaluates every candidate; keep the sample count
        // low so the slow arm stays tractable.
        group.sample_size(3);
        for (name, prune) in [("factored", true), ("unpruned", false)] {
            group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
                b.iter(|| {
                    let out = explore(
                        &wl,
                        &cfg,
                        &DseOptions { threads: 1, prune, ..DseOptions::new(Objective::Runtime) },
                    );
                    assert_eq!(out.space, 6656);
                    out.best().map(|r| r.report.total_cycles)
                })
            });
        }
        group.bench_function("reference", |b| {
            b.iter(|| {
                let ranked = rank(&sweep_candidates(&wl, &cfg), &wl, &cfg, Objective::Runtime);
                ranked.first().map(|r| r.report.total_cycles)
            })
        });
        group.finish();
    }
}

fn bench_objectives(c: &mut Criterion) {
    let wl = workload("Proteins");
    let cfg = AccelConfig::paper_default();
    let mut group = c.benchmark_group("dse_exhaustive_objective");
    group.sample_size(10);
    for (name, objective) in
        [("runtime", Objective::Runtime), ("energy", Objective::Energy), ("edp", Objective::Edp)]
    {
        group.bench_with_input(BenchmarkId::from_parameter(name), &objective, |b, &objective| {
            b.iter(|| {
                explore(&wl, &cfg, &DseOptions { threads: 4, ..DseOptions::new(objective) })
                    .best()
                    .map(|r| r.score)
            })
        });
    }
    group.finish();
}

/// The ISSUE 5 trajectory row: the GAT model-level joint search (three-phase
/// layers, SDDMM included) with pruned vs unpruned per-layer searches,
/// single-threaded on Cora.
fn bench_gat_model_search(c: &mut Criterion) {
    use omega_core::dse::model::{explore_model, ModelDseOptions};
    use omega_core::dse::DseCache;
    use omega_core::models::GnnModel;

    let cfg = AccelConfig::paper_default();
    let wl = workload("Cora");
    let model = GnnModel::gat_2layer(8, 7);
    let mut group = c.benchmark_group("dse_model_gat/Cora");
    group.sample_size(3);
    for (name, prune) in [("factored", true), ("unpruned", false)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| {
                // A fresh cache per iteration so the layer searches really run.
                let cache = DseCache::new();
                let opts = ModelDseOptions { threads: 1, prune, ..ModelDseOptions::default() };
                let out = explore_model(&model, &wl, &cfg, &opts, &cache);
                out.best().map(|r| r.report.total_cycles)
            })
        });
    }
    group.finish();
}

/// The capacity-aware Pareto sweep vs the single-objective top-K search it
/// rides alongside: one pass over the same 6,656-pattern space, maintaining
/// the full (runtime, energy, buffer-footprint) frontier with bound-vector
/// pruning instead of a scalar threshold.
fn bench_pareto_frontier(c: &mut Criterion) {
    let wl = workload("Mutag");
    let cfg = AccelConfig::paper_default();
    let mut group = c.benchmark_group("dse_pareto/Mutag");
    group.sample_size(10);
    for (name, pareto, prune) in
        [("topk", false, true), ("pareto", true, true), ("pareto_noprune", true, false)]
    {
        group.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, _| {
            b.iter(|| {
                let out = explore(
                    &wl,
                    &cfg,
                    &DseOptions {
                        threads: 2,
                        pareto,
                        prune,
                        ..DseOptions::new(Objective::Runtime)
                    },
                );
                assert_eq!(out.space, 6656);
                if pareto {
                    assert!(out.frontier.len() >= 3);
                }
                out.best().map(|r| r.report.total_cycles)
            })
        });
    }
    group.finish();
}

criterion_group!(
    dse,
    bench_factored_vs_reference,
    bench_thread_scaling,
    bench_objectives,
    bench_gat_model_search,
    bench_pareto_frontier
);
criterion_main!(dse);
