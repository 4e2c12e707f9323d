//! Workload-property sweeps: "the impact of graph properties (such as number
//! of vertices, edges, features) on dataflow choices" (contribution (iii)).
//!
//! Synthetic single-knob sweeps over density (edges/vertex), feature width, and
//! degree skew show *where* the best dataflow flips — the map a mapper or DSE
//! tool needs (Section I: "in order for mappers or design-space exploration
//! tools to optimize the dataflow based on the workload").

use serde::Serialize;

use omega_accel::AccelConfig;
use omega_core::dse::{DseCache, DseOptions};
use omega_core::mapper::Objective;
use omega_core::GnnWorkload;
use omega_dataflow::presets::Preset;
use omega_graph::generators::{chung_lu, erdos_renyi};

use crate::common::eval_preset;

/// One sweep point: a synthetic workload and the winning dataflow.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRow {
    /// Which knob the sweep varies (`density`, `features`, `skew`).
    pub knob: String,
    /// The knob's value at this point.
    pub value: f64,
    /// Workload summary `V/nnz/F`.
    pub workload: String,
    /// Winning preset by runtime.
    pub best_runtime: String,
    /// Winning preset by energy.
    pub best_energy: String,
    /// Runtime spread: worst preset over best preset.
    pub runtime_spread: f64,
    /// The exhaustive optimum of the full 6,656-pattern space (by runtime).
    pub exhaustive_best: String,
    /// Its cycles.
    pub exhaustive_cycles: u64,
    /// Preset gap: best preset runtime over the exhaustive optimum's (≥ 1) —
    /// what Table V's presets leave on the table at this knob point.
    pub preset_gap: f64,
}

fn best(points: &[(String, u64, f64)]) -> (String, u64, String, f64) {
    let best_rt = points.iter().min_by_key(|(_, c, _)| *c).expect("non-empty");
    let best_en = points
        .iter()
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .expect("non-empty");
    let worst_rt = points.iter().map(|(_, c, _)| *c).max().expect("non-empty");
    (best_rt.0.clone(), best_rt.1, best_en.0.clone(), worst_rt as f64 / best_rt.1 as f64)
}

fn eval_all(wl: &GnnWorkload, cfg: &AccelConfig) -> Vec<(String, u64, f64)> {
    Preset::all()
        .iter()
        .map(|p| {
            let e = eval_preset(p, wl, cfg);
            (p.name.to_string(), e.report.total_cycles, e.report.energy.total_pj())
        })
        .collect()
}

/// One sweep point evaluated: preset winners plus the exhaustive optimum, the
/// latter served by `cache` so repeated sweeps never re-search the space.
fn row(knob: &str, value: f64, wl: &GnnWorkload, cfg: &AccelConfig, cache: &DseCache) -> SweepRow {
    let points = eval_all(wl, cfg);
    let (rt, rt_cycles, en, spread) = best(&points);
    let outcome = cache.explore(
        wl,
        cfg,
        &DseOptions { top_k: 1, ..DseOptions::new(Objective::Runtime) },
    );
    let optimum = outcome.best().expect("the enumerated space is never empty");
    SweepRow {
        knob: knob.into(),
        value,
        workload: format!("{}/{}/{}", wl.v, wl.nnz, wl.f),
        best_runtime: rt,
        best_energy: en,
        runtime_spread: spread,
        exhaustive_best: optimum.dataflow.to_string(),
        exhaustive_cycles: optimum.report.total_cycles,
        preset_gap: rt_cycles as f64 / optimum.report.total_cycles as f64,
    }
}

/// Regenerates the graph-property sweep; `cache` serves the exhaustive optima,
/// so a repeated sweep (or one sharing a cache with the other studies) never
/// re-searches a workload.
pub fn sweep_with_cache(cache: &DseCache) -> Vec<SweepRow> {
    let cfg = AccelConfig::paper_default();
    let mut rows = Vec::new();

    // --- density sweep: ER graphs, V = 1024, F = 256, mean degree 2 → 128 ----
    for mean_deg in [2usize, 8, 32, 128] {
        let edges = 1024 * mean_deg / 2;
        let g = erdos_renyi("sweep-density", 1024, edges, 256, 7).build();
        let wl = GnnWorkload::from_graph(&g, 16);
        rows.push(row("density", mean_deg as f64, &wl, &cfg, cache));
    }

    // --- feature sweep: fixed sparse graph, F = 32 → 4096 --------------------
    for f in [32usize, 256, 1024, 4096] {
        let g = chung_lu("sweep-features", 2048, 4096, 2.2, f, 11).build();
        let wl = GnnWorkload::from_graph(&g, 16);
        rows.push(row("features", f as f64, &wl, &cfg, cache));
    }

    // --- skew sweep: same V/E/F, power-law exponent 1.9 → 3.5 ----------------
    for gamma in [1.9f64, 2.2, 2.8, 3.5] {
        let g = chung_lu("sweep-skew", 2048, 6144, gamma, 512, 13).build();
        let wl = GnnWorkload::from_graph(&g, 16);
        rows.push(row("skew", gamma, &wl, &cfg, cache));
    }

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_three_knobs() {
        let rows = sweep_with_cache(&DseCache::new());
        assert_eq!(rows.len(), 12);
        for knob in ["density", "features", "skew"] {
            assert_eq!(rows.iter().filter(|r| r.knob == knob).count(), 4, "{knob}");
        }
        // The design space matters everywhere: spread is never trivial, and it
        // widens with density and skew (picking the wrong dataflow costs 1.7-4.4x).
        assert!(rows.iter().all(|r| r.runtime_spread > 1.05), "{rows:#?}");
        let density: Vec<_> = rows.iter().filter(|r| r.knob == "density").collect();
        assert!(density.last().unwrap().runtime_spread > density.first().unwrap().runtime_spread);
        // The winner is workload-dependent (the paper's core thesis): across the
        // runtime and energy objectives the sweep crowns several distinct
        // dataflows (on *uniform* synthetic graphs the runtime winner is stable,
        // while the energy winner flips with the knobs).
        let winners: std::collections::HashSet<_> = rows
            .iter()
            .flat_map(|r| [r.best_runtime.clone(), r.best_energy.clone()])
            .collect();
        assert!(winners.len() >= 3, "winners: {winners:?}");
        // The exhaustive optimum (seeded with the presets) can never lose to a
        // preset, so every gap is ≥ 1; and somewhere in the sweep the presets
        // genuinely leave runtime on the table.
        assert!(rows.iter().all(|r| r.preset_gap >= 1.0 - 1e-12), "{rows:#?}");
        assert!(rows.iter().all(|r| r.exhaustive_cycles > 0));
        assert!(
            rows.iter().any(|r| r.preset_gap > 1.01),
            "presets optimal everywhere? {rows:#?}"
        );
    }

    #[test]
    fn repeated_sweeps_hit_the_dse_cache() {
        // The searches counter is the observable (a re-search of a known
        // workload would not change len()).
        let cache = DseCache::new();
        let first = sweep_with_cache(&cache);
        assert_eq!(cache.searches(), 12, "one search per sweep point");
        let second = sweep_with_cache(&cache);
        assert_eq!(cache.searches(), 12, "second sweep re-searched");
        assert_eq!(cache.len(), 12);
        let gaps = |rows: &[SweepRow]| -> Vec<(String, u64)> {
            rows.iter().map(|r| (r.exhaustive_best.clone(), r.exhaustive_cycles)).collect()
        };
        assert_eq!(gaps(&first), gaps(&second));
    }
}
