//! Micro-benchmarks of the simulator substrate: per-phase engine throughput,
//! dataset generation, reference kernels, and the mapper.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use omega_accel::engine::{simulate_gemm, simulate_spmm, EngineOptions, GemmDims, OperandClasses, SpmmWorkload};
use omega_accel::AccelConfig;
use omega_core::mapper::{preset_candidates, rank, Objective};
use omega_core::GnnWorkload;
use omega_dataflow::presets::Preset;
use omega_dataflow::{Dim, IntraTiling, LoopOrder, Phase};
use omega_graph::DatasetSpec;
use omega_matrix::ops;
use omega_matrix::DenseMatrix;

fn bench_phase_engines(c: &mut Criterion) {
    let cfg = AccelConfig::paper_default();
    let citeseer = DatasetSpec::citeseer().generate(7);
    let wl = GnnWorkload::gcn_layer(&citeseer, 16);

    let mut g = c.benchmark_group("engines");
    g.sample_size(20);

    let agg_tiling = IntraTiling::new(
        Phase::Aggregation,
        LoopOrder::new(Phase::Aggregation, [Dim::V, Dim::F, Dim::N]).unwrap(),
        [32, 16, 1],
    );
    g.bench_function("spmm_citeseer", |b| {
        let spmm = SpmmWorkload { degrees: &wl.degrees, feature_width: wl.f };
        b.iter(|| {
            black_box(simulate_spmm(
                &spmm,
                &agg_tiling,
                &cfg,
                &OperandClasses::aggregation_ac(),
                &EngineOptions::plain(cfg.full_bandwidth()),
            ))
        })
    });

    let cmb_tiling = IntraTiling::new(
        Phase::Combination,
        LoopOrder::new(Phase::Combination, [Dim::V, Dim::G, Dim::F]).unwrap(),
        [32, 16, 1],
    );
    g.bench_function("gemm_citeseer", |b| {
        b.iter(|| {
            black_box(simulate_gemm(
                GemmDims { v: wl.v, f: wl.f, g: wl.g },
                &cmb_tiling,
                &cfg,
                &OperandClasses::combination_ac(),
                &EngineOptions::plain(cfg.full_bandwidth()),
            ))
        })
    });
    g.finish();
}

fn bench_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("generation");
    g.sample_size(10);
    for name in ["Mutag", "Collab", "Citeseer"] {
        g.bench_with_input(BenchmarkId::new("dataset", name), &name, |b, name| {
            let spec = DatasetSpec::by_name(name).unwrap();
            b.iter(|| black_box(spec.generate(3)))
        });
    }
    g.finish();
}

fn bench_reference_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("reference");
    g.sample_size(10);
    let a = DenseMatrix::from_fn(256, 256, |i, j| ((i * j) % 7) as f32);
    let b_mat = DenseMatrix::from_fn(256, 64, |i, j| ((i + j) % 5) as f32);
    g.bench_function("gemm_256", |b| b.iter(|| black_box(ops::gemm(&a, &b_mat).unwrap())));
    g.finish();
}

fn bench_mapper(c: &mut Criterion) {
    let cfg = AccelConfig::paper_default();
    let wl = GnnWorkload::gcn_layer(&DatasetSpec::mutag().generate(7), 16);
    let candidates = preset_candidates(&wl, &cfg);
    let mut g = c.benchmark_group("mapper");
    g.sample_size(10);
    g.bench_function("presets_mutag", |b| {
        b.iter(|| black_box(rank(&candidates, &wl, &cfg, Objective::Runtime)))
    });
    g.finish();
    // Keep a preset alive so the dependency is exercised end to end.
    black_box(Preset::all());
}

criterion_group!(benches, bench_phase_engines, bench_generation, bench_reference_kernels, bench_mapper);
criterion_main!(benches);
