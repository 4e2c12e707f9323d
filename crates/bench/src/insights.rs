//! Section V-D architectural insights: the value of flexibility.
//!
//! The paper's closing argument is that a *reconfigurable* dataflow accelerator
//! beats fixed-dataflow ASICs for multiphase kernels because the best dataflow
//! (and the best PP allocation) changes with the workload. This module
//! quantifies that: for each dataset, compare
//!
//! * **rigid** — one dataflow fixed across all datasets (each Table V preset in
//!   turn, tiles still workload-fitted, as a HyGCN/AWB-GCN-style fixed engine
//!   would), versus
//! * **flexible** — the per-dataset best preset (what a programmable substrate
//!   with a mapper achieves).

use serde::Serialize;

use omega_accel::{AccelConfig, ModelKnobs};
use omega_core::dse::{concretize_pattern, DseCache, DseOptions};
use omega_core::evaluate;
use omega_core::mapper::Objective;
use omega_dataflow::presets::Preset;
use omega_dataflow::GnnDataflowPattern;

use crate::common::{default_suite, eval_preset};

/// One dataset's rigid-vs-flexible comparison.
#[derive(Debug, Clone, Serialize)]
pub struct FlexibilityRow {
    /// Dataset name.
    pub dataset: String,
    /// The per-dataset best preset (the flexible accelerator's choice).
    pub best_dataflow: String,
    /// Cycles of the per-dataset best.
    pub best_cycles: u64,
    /// The single fixed dataflow that is best *on average* across the suite.
    pub best_rigid: String,
    /// Cycles of that rigid choice on this dataset.
    pub rigid_cycles: u64,
    /// Slowdown of the rigid accelerator on this dataset.
    pub rigid_slowdown: f64,
    /// Worst-case slowdown across all rigid choices on this dataset (what
    /// committing to the *wrong* ASIC dataflow costs).
    pub worst_rigid_slowdown: f64,
}

/// Regenerates the flexibility study.
pub fn flexibility() -> Vec<FlexibilityRow> {
    let cfg = AccelConfig::paper_default();
    let suite = default_suite();
    let presets = Preset::all();

    // cycles[d][p]
    let grid: Vec<Vec<u64>> = suite
        .iter()
        .map(|(_, wl)| presets.iter().map(|p| eval_preset(p, wl, &cfg).report.total_cycles).collect())
        .collect();

    // The rigid accelerator commits to one dataflow for every dataset; pick the
    // one with the best geometric-mean slowdown vs the per-dataset best.
    let best_per_dataset: Vec<u64> =
        grid.iter().map(|row| row.iter().copied().min().expect("presets")).collect();
    let rigid_idx = (0..presets.len())
        .min_by(|&a, &b| {
            let score = |p: usize| -> f64 {
                grid.iter()
                    .zip(&best_per_dataset)
                    .map(|(row, &best)| (row[p] as f64 / best as f64).ln())
                    .sum()
            };
            score(a).total_cmp(&score(b))
        })
        .expect("non-empty");

    suite
        .iter()
        .enumerate()
        .map(|(d, (_, wl))| {
            let row = &grid[d];
            let best = best_per_dataset[d];
            let best_idx = row.iter().position(|&c| c == best).expect("present");
            let worst = row.iter().copied().max().expect("presets");
            FlexibilityRow {
                dataset: wl.name.clone(),
                best_dataflow: presets[best_idx].name.to_string(),
                best_cycles: best,
                best_rigid: presets[rigid_idx].name.to_string(),
                rigid_cycles: row[rigid_idx],
                rigid_slowdown: row[rigid_idx] as f64 / best as f64,
                worst_rigid_slowdown: worst as f64 / best as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flexibility_study_shape() {
        let rows = flexibility();
        assert_eq!(rows.len(), 7);
        for r in &rows {
            // The flexible choice is by construction no slower than the rigid one.
            assert!(r.rigid_slowdown >= 1.0 - 1e-9, "{}", r.dataset);
            assert!(r.worst_rigid_slowdown >= r.rigid_slowdown - 1e-9);
        }
        // Flexibility matters: committing to the wrong ASIC dataflow costs ≥ 1.5x
        // somewhere in the suite (Section V-D's argument).
        assert!(rows.iter().any(|r| r.worst_rigid_slowdown >= 1.5));
        // And no single rigid dataflow is optimal everywhere.
        assert!(rows.iter().any(|r| r.rigid_slowdown > 1.01));
    }
}

/// One row of the cost-model ablation: a DESIGN.md §3 modelling decision flipped
/// off, measured on the configuration it matters most for.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Which knob was flipped.
    pub knob: String,
    /// Dataset × dataflow probe.
    pub probe: String,
    /// Cycles with the calibrated model.
    pub baseline_cycles: u64,
    /// Cycles with the knob flipped.
    pub ablated_cycles: u64,
    /// Energy (pJ) with the calibrated model.
    pub baseline_energy_pj: f64,
    /// Energy (pJ) with the knob flipped.
    pub ablated_energy_pj: f64,
}

/// Regenerates the cost-model ablation (DESIGN.md §3 decisions, one at a time).
pub fn ablation() -> Vec<AblationRow> {
    let suite = default_suite();
    let probe = |dataset: &str, preset_name: &str, knobs: ModelKnobs| {
        let (_, wl) = suite.iter().find(|(d, _)| d.name() == dataset).expect("dataset in suite");
        let cfg = AccelConfig { knobs, ..AccelConfig::paper_default() };
        let preset = Preset::by_name(preset_name).expect("preset");
        let p = eval_preset(&preset, wl, &cfg);
        (p.report.total_cycles, p.report.energy.total_pj())
    };
    let base = ModelKnobs::default();
    let cases: [(&str, &str, &str, ModelKnobs); 3] = [
        // Without group sharing, SP2's psums (revisits = G) no longer fit the RF
        // and it spills like SPhighV — the decision separates them.
        (
            "psum_group_sharing",
            "Citeseer/SP2",
            "SP2",
            ModelKnobs { psum_group_sharing: false, ..base },
        ),
        // Without fractional spill, SPhighV's near-miss (16 live vs 13 words)
        // spills everything, exaggerating the energy blow-up.
        (
            "fractional_spill",
            "Cora/SPhighV",
            "SPhighV",
            ModelKnobs { fractional_spill: false, ..base },
        ),
        // Charging NoC fill per pass instead of per phase punishes short-pass
        // dataflows (spatial aggregation, PP's small tiles).
        ("per_pass_fill", "Collab/Seq2", "Seq2", ModelKnobs { per_pass_fill: true, ..base }),
    ];
    let mut rows: Vec<AblationRow> = cases
        .into_iter()
        .map(|(knob, probe_name, preset, knobs)| {
            let dataset = probe_name.split('/').next().expect("dataset/preset");
            let (bc, be) = probe(dataset, preset, base);
            let (ac, ae) = probe(dataset, preset, knobs);
            AblationRow {
                knob: knob.to_string(),
                probe: probe_name.to_string(),
                baseline_cycles: bc,
                ablated_cycles: ac,
                baseline_energy_pj: be,
                ablated_energy_pj: ae,
            }
        })
        .collect();
    // Fig. 6's DRAM cliff: shrink the GB so Citeseer's 49 MB Seq intermediate no
    // longer fits on chip (Section V-A2 sizes the default to fit).
    {
        let (_, wl) = suite.iter().find(|(d, _)| d.name() == "Citeseer").expect("Citeseer");
        let preset = Preset::by_name("Seq1").expect("Seq1");
        let fits = eval_preset(&preset, wl, &AccelConfig::paper_default());
        let small = AccelConfig { gb_bytes: 8 << 20, ..AccelConfig::paper_default() };
        let spills = eval_preset(&preset, wl, &small);
        rows.push(AblationRow {
            knob: "gb_capacity (Fig. 6 DRAM cliff)".into(),
            probe: "Citeseer/Seq1 @ 8MB GB".into(),
            baseline_cycles: fits.report.total_cycles,
            ablated_cycles: spills.report.total_cycles,
            baseline_energy_pj: fits.report.energy.total_pj(),
            ablated_energy_pj: spills.report.energy.total_pj(),
        });
    }
    rows
}

#[cfg(test)]
mod ablation_tests {
    use super::*;

    #[test]
    fn each_knob_moves_its_probe() {
        let rows = ablation();
        assert_eq!(rows.len(), 4);
        let by_knob = |k: &str| rows.iter().find(|r| r.knob == k).expect("knob present");

        // No group sharing → SP2 spills → more energy and more cycles.
        let r = by_knob("psum_group_sharing");
        assert!(r.ablated_energy_pj > r.baseline_energy_pj * 1.05, "{r:?}");

        // Full spill → strictly more psum energy for the near-miss SPhighV.
        let r = by_knob("fractional_spill");
        assert!(r.ablated_energy_pj > r.baseline_energy_pj * 1.5, "{r:?}");

        // Per-pass fill → strictly more cycles for the spatial-N dataflow.
        let r = by_knob("per_pass_fill");
        assert!(r.ablated_cycles > r.baseline_cycles, "{r:?}");
        // Energy is untouched by a pure timing knob.
        assert!((r.ablated_energy_pj - r.baseline_energy_pj).abs() < 1e-6);

        // The Fig. 6 DRAM cliff: an 8 MB GB makes Seq's energy explode on
        // Citeseer (the intermediate alone is ~49 MB).
        let r = by_knob("gb_capacity (Fig. 6 DRAM cliff)");
        assert!(r.ablated_energy_pj > 5.0 * r.baseline_energy_pj, "{r:?}");
    }
}

/// One dataset's comparison of the two published accelerator dataflows the
/// paper names (Section III-C / Table II): HyGCN's `PP_AC(VxFsNt, VsGsFt)` and
/// AWB-GCN's `PP_CA(FsNtVs, GtFtVs)`, run on the flexible substrate, against
/// the best Table V preset.
#[derive(Debug, Clone, Serialize)]
pub struct AcceleratorRow {
    /// Dataset name.
    pub dataset: String,
    /// HyGCN dataflow cycles.
    pub hygcn_cycles: u64,
    /// AWB-GCN dataflow cycles.
    pub awb_gcn_cycles: u64,
    /// Best Table V preset cycles.
    pub best_preset_cycles: u64,
    /// The best preset's name.
    pub best_preset: String,
    /// HyGCN normalised to the best preset.
    pub hygcn_vs_best: f64,
    /// AWB-GCN normalised to the best preset.
    pub awb_gcn_vs_best: f64,
}

/// Regenerates the published-accelerator case study.
pub fn accelerators() -> Vec<AcceleratorRow> {
    let cfg = AccelConfig::paper_default();
    let hygcn: GnnDataflowPattern =
        "PP_AC(VxFsNt, VsGsFt)".parse().expect("HyGCN pattern parses");
    let awb: GnnDataflowPattern = "PP_CA(FsNtVs, GtFtVs)".parse().expect("AWB-GCN pattern parses");
    default_suite()
        .into_iter()
        .map(|(_, wl)| {
            let hygcn_df = concretize_pattern(&hygcn, &wl, &cfg);
            let awb_df = concretize_pattern(&awb, &wl, &cfg);
            let hygcn_cycles =
                evaluate(&wl, &hygcn_df, &cfg).expect("HyGCN dataflow is legal").total_cycles;
            let awb_gcn_cycles =
                evaluate(&wl, &awb_df, &cfg).expect("AWB-GCN dataflow is legal").total_cycles;
            let (best_preset, best_preset_cycles) = Preset::all()
                .iter()
                .map(|p| (p.name.to_string(), eval_preset(p, &wl, &cfg).report.total_cycles))
                .min_by_key(|&(_, c)| c)
                .expect("presets evaluated");
            AcceleratorRow {
                dataset: wl.name.clone(),
                hygcn_cycles,
                awb_gcn_cycles,
                best_preset_cycles,
                best_preset,
                hygcn_vs_best: hygcn_cycles as f64 / best_preset_cycles as f64,
                awb_gcn_vs_best: awb_gcn_cycles as f64 / best_preset_cycles as f64,
            }
        })
        .collect()
}

/// One dataset's best Table V preset measured against the exhaustive optimum
/// of the full 6,656-pattern space — how much the paper's hand-picked
/// configurations leave on the table (the question Table V cannot answer by
/// itself, and exactly what a mapper-equipped flexible accelerator recovers).
#[derive(Debug, Clone, Serialize)]
pub struct PresetGapRow {
    /// Dataset name.
    pub dataset: String,
    /// Best Table V preset by runtime.
    pub best_preset: String,
    /// Its cycles.
    pub best_preset_cycles: u64,
    /// The exhaustive optimum's dataflow.
    pub exhaustive_best: String,
    /// Its cycles.
    pub exhaustive_cycles: u64,
    /// Best preset over exhaustive optimum (≥ 1).
    pub preset_gap: f64,
    /// Cost-model evaluations the search spent (cache-shared across studies).
    pub evaluated: usize,
    /// Candidates rejected by validation.
    pub skipped: usize,
    /// Candidates discarded by the admissible lower-bound prune without
    /// simulation (`evaluated + skipped + pruned` covers space + seeds).
    pub pruned: usize,
}

/// The preset-gap study over a subset of the Table IV suite (`datasets` by
/// name; unknown names are ignored). Exhaustive outcomes come from `cache`,
/// so re-running the study (or mixing it with the sweeps) never re-searches a
/// workload.
pub fn preset_gap_for(datasets: &[&str], cache: &DseCache) -> Vec<PresetGapRow> {
    let cfg = AccelConfig::paper_default();
    default_suite()
        .into_iter()
        .filter(|(d, _)| datasets.contains(&d.name()))
        .map(|(_, wl)| {
            let (best_preset, best_preset_cycles) = Preset::all()
                .iter()
                .map(|p| (p.name.to_string(), eval_preset(p, &wl, &cfg).report.total_cycles))
                .min_by_key(|&(_, c)| c)
                .expect("presets evaluated");
            let outcome = cache.explore(
                &wl,
                &cfg,
                &DseOptions { top_k: 1, ..DseOptions::new(Objective::Runtime) },
            );
            let optimum = outcome.best().expect("the enumerated space is never empty");
            PresetGapRow {
                dataset: wl.name.clone(),
                best_preset,
                best_preset_cycles,
                exhaustive_best: optimum.dataflow.to_string(),
                exhaustive_cycles: optimum.report.total_cycles,
                preset_gap: best_preset_cycles as f64 / optimum.report.total_cycles as f64,
                evaluated: outcome.evaluated,
                skipped: outcome.skipped,
                pruned: outcome.pruned,
            }
        })
        .collect()
}

/// The preset-gap study over the full seven-dataset suite.
pub fn preset_gap(cache: &DseCache) -> Vec<PresetGapRow> {
    let suite = default_suite();
    let names: Vec<&str> = suite.iter().map(|(d, _)| d.name()).collect();
    preset_gap_for(&names, cache)
}

/// One (model × dataset) row of the model-level DSE study: the best uniform
/// Table V preset applied to every layer versus the joint per-layer-specialised
/// (+pipelined, +partitioned) mapping found by
/// [`omega_core::dse::model::explore_model`].
#[derive(Debug, Clone, Serialize)]
pub struct ModelGapRow {
    /// Model name (GCN-2, GraphSAGE-2, GIN-n).
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// Layers in the model.
    pub layers: usize,
    /// Best uniform preset (one Table V entry for every layer).
    pub uniform_preset: String,
    /// Its end-to-end cycles.
    pub uniform_cycles: u64,
    /// End-to-end cycles of the joint winner.
    pub specialised_cycles: u64,
    /// Uniform score over winner score under the study's runtime objective —
    /// i.e. `uniform_cycles / specialised_cycles` (≥ 1): what per-layer
    /// specialisation and inter-phase freedom save end-to-end.
    pub model_gap: f64,
    /// `true` when the winner pipelines somewhere (intra-layer SP/PP or a
    /// pipelined inter-layer link).
    pub winner_pipelined: bool,
    /// Joint mappings enumerated.
    pub space: usize,
    /// The winning mapping, in the `⇒`/`∥⇒` chain notation.
    pub winner: String,
}

/// The model-level DSE study over explicit (model, dataset) cases. Layer-level
/// searches go through `cache`, so rows over the same layer shapes (and
/// reruns) never re-search the 6,656-pattern space.
pub fn model_gap_for(cases: &[(GnnModelCase, &str)], cache: &DseCache) -> Vec<ModelGapRow> {
    use omega_core::dse::model::{explore_model, ModelDseOptions};

    let cfg = AccelConfig::paper_default();
    let suite = default_suite();
    cases
        .iter()
        .filter_map(|(case, dataset)| {
            let (_, wl) = suite.iter().find(|(d, _)| d.name() == *dataset)?;
            let model = case.build();
            let opts = ModelDseOptions { threads: 4, ..Default::default() };
            let out = explore_model(&model, wl, &cfg, &opts, cache);
            let gap = out.model_gap()?;
            let best = out.best()?;
            let uniform = out.uniform.as_ref()?;
            Some(ModelGapRow {
                model: model.name.clone(),
                dataset: wl.name.clone(),
                layers: model.layer_widths.len(),
                uniform_preset: uniform.preset.clone(),
                uniform_cycles: uniform.total_cycles,
                specialised_cycles: best.report.total_cycles,
                model_gap: gap,
                winner_pipelined: best.mapping.is_pipelined(),
                space: out.space,
                winner: format!("{}", best.mapping),
            })
        })
        .collect()
}

/// The named model shapes the study sweeps.
#[derive(Debug, Clone, Copy)]
pub enum GnnModelCase {
    /// Kipf & Welling 2-layer GCN (hidden 16, 7 classes).
    Gcn2,
    /// 2-layer GraphSAGE (hidden 32, 7 classes) — AC-only.
    Sage2,
    /// 3-layer GIN of width 64 (adds an MLP GEMM per layer).
    Gin3,
    /// 2-layer GAT (8 heads over hidden 64, 7 classes) — adds an SDDMM
    /// scoring phase per layer, AC-only.
    Gat2,
}

impl GnnModelCase {
    fn build(self) -> omega_core::models::GnnModel {
        use omega_core::models::GnnModel;
        match self {
            GnnModelCase::Gcn2 => GnnModel::gcn_2layer(7),
            GnnModelCase::Sage2 => GnnModel::sage_2layer(32, 7),
            GnnModelCase::Gin3 => GnnModel::gin(3, 64),
            GnnModelCase::Gat2 => GnnModel::gat_2layer(8, 7),
        }
    }
}

/// The default model-gap study: citation-style node classification (Cora,
/// Citeseer) under GCN-2/GraphSAGE-2/GAT-2, and graph classification (Mutag,
/// Proteins) under GCN-2/GIN-3/GAT-2 — all three phase types covered.
pub fn model_gap(cache: &DseCache) -> Vec<ModelGapRow> {
    model_gap_for(
        &[
            (GnnModelCase::Gcn2, "Cora"),
            (GnnModelCase::Gcn2, "Citeseer"),
            (GnnModelCase::Sage2, "Cora"),
            (GnnModelCase::Gcn2, "Mutag"),
            (GnnModelCase::Gin3, "Mutag"),
            (GnnModelCase::Gin3, "Proteins"),
            (GnnModelCase::Gat2, "Cora"),
            (GnnModelCase::Gat2, "Mutag"),
        ],
        cache,
    )
}

#[cfg(test)]
mod model_gap_tests {
    use super::*;

    #[test]
    fn model_gap_bounds_and_specialisation_win() {
        // Small-graph subset keeps the per-layer exhaustive searches quick; the
        // repro binary runs the full study.
        let rows = model_gap_for(
            &[
                (GnnModelCase::Gcn2, "Mutag"),
                (GnnModelCase::Gin3, "Mutag"),
                (GnnModelCase::Gat2, "Mutag"),
            ],
            &DseCache::new(),
        );
        assert_eq!(rows.len(), 3);
        for r in &rows {
            // The joint winner can never lose to a uniform preset (they are
            // seeded into the search).
            assert!(r.model_gap >= 1.0 - 1e-12, "{r:?}");
            assert!(r.specialised_cycles > 0);
            assert!(r.space > 0);
            assert!(!r.winner.is_empty());
        }
        // Somewhere the uniform preset leaves real runtime on the table.
        assert!(rows.iter().any(|r| r.model_gap > 1.005), "{rows:#?}");
        // GIN adds an MLP stage per layer and has 3 layers.
        assert_eq!(rows[1].layers, 3);
        // GAT's attention (SDDMM) phases make it strictly costlier than GCN-2
        // on the same graph even after joint optimisation.
        assert!(rows[2].specialised_cycles > rows[0].specialised_cycles, "{rows:#?}");
    }
}

/// One (dataset × capacity regime) row of the capacity study: which Table V
/// preset wins once finite on-chip storage makes overflowing working sets pay
/// costed spill passes — and whether that winner *shifts* versus the
/// unbounded model every other study uses.
#[derive(Debug, Clone, Serialize)]
pub struct CapacityRow {
    /// Dataset name.
    pub dataset: String,
    /// Capacity regime, e.g. `unbounded` or `rf 16 B/PE + gb 96 KiB`.
    pub regime: String,
    /// The preset with the fewest cycles under this regime.
    pub winner: String,
    /// Its cycles under this regime.
    pub winner_cycles: u64,
    /// The unbounded-model winner for this dataset.
    pub unbounded_winner: String,
    /// What the unbounded winner costs under this regime (its spill penalty).
    pub unbounded_winner_cycles: u64,
    /// `true` when the capacity constraint changed which preset wins.
    pub shifted: bool,
}

/// The capacity study over explicit datasets: Table V preset winners under
/// shrinking register-file / global-buffer budgets (the phase engines charge
/// costed spill passes once `enforce_capacity` is on and a working set
/// overflows). The unbounded regime reproduces the paper's infinite-buffer
/// winners exactly; the finite regimes show where they stop being the right
/// choice.
pub fn capacity_study_for(datasets: &[&str]) -> Vec<CapacityRow> {
    // (label, rf bytes per PE, gb bytes); `None` keeps `enforce_capacity` off
    // entirely (the paper's infinite-buffer model). The finite budgets use
    // `usize::MAX` on the axis they leave open so one constraint is isolated
    // at a time.
    let regimes: [(&str, Option<(usize, usize)>); 4] = [
        ("unbounded", None),
        ("rf 32 B/PE", Some((32, usize::MAX))),
        ("gb 2.5 KiB", Some((usize::MAX, 2560))),
        ("rf 16 B/PE + gb 2.5 KiB", Some((16, 2560))),
    ];
    let suite = default_suite();
    let mut rows = Vec::new();
    for (_, wl) in suite.iter().filter(|(d, _)| datasets.contains(&d.name())) {
        let winner_under = |budget: Option<(usize, usize)>| -> (String, u64, AccelConfig) {
            let mut cfg = AccelConfig::paper_default();
            if let Some((rf, gb)) = budget {
                cfg.knobs.enforce_capacity = true;
                cfg.rf_bytes_per_pe = rf;
                cfg.gb_bytes = gb;
            }
            let (name, cycles) = Preset::all()
                .iter()
                .map(|p| (p.name.to_string(), eval_preset(p, wl, &cfg).report.total_cycles))
                .min_by_key(|&(_, c)| c)
                .expect("presets evaluated");
            (name, cycles, cfg)
        };
        let (unbounded_winner, _, _) = winner_under(None);
        for (label, budget) in regimes {
            let (winner, winner_cycles, cfg) = winner_under(budget);
            let unbounded_preset = Preset::by_name(&unbounded_winner).expect("known preset");
            let unbounded_winner_cycles =
                eval_preset(&unbounded_preset, wl, &cfg).report.total_cycles;
            rows.push(CapacityRow {
                dataset: wl.name.clone(),
                regime: label.to_string(),
                shifted: winner != unbounded_winner,
                winner,
                winner_cycles,
                unbounded_winner: unbounded_winner.clone(),
                unbounded_winner_cycles,
            });
        }
    }
    rows
}

/// The capacity study over the full Table IV suite.
pub fn capacity_study() -> Vec<CapacityRow> {
    let suite = default_suite();
    let names: Vec<&str> = suite.iter().map(|(d, _)| d.name()).collect();
    capacity_study_for(&names)
}

#[cfg(test)]
mod capacity_tests {
    use super::*;

    #[test]
    fn capacity_constraints_shift_preset_winners() {
        let rows = capacity_study_for(&["Mutag", "Proteins", "Cora"]);
        assert_eq!(rows.len(), 12); // 3 datasets × 4 regimes
        for r in &rows {
            // The winner is a winner: never slower than the unbounded-model
            // choice re-evaluated under the same budget.
            assert!(r.winner_cycles <= r.unbounded_winner_cycles, "{r:?}");
            assert_eq!(r.shifted, r.winner != r.unbounded_winner);
            // The unbounded regime agrees with itself by construction.
            if r.regime == "unbounded" {
                assert!(!r.shifted, "{r:?}");
            }
        }
        // The study's headline: finite budgets change at least one dataset's
        // Table V winner — buffer capacity is a real axis of the design space.
        assert!(
            rows.iter().any(|r| r.shifted),
            "no preset winner shifted under any finite budget: {rows:#?}"
        );
        // And the spill passes are visible: somewhere the unbounded winner
        // pays real extra cycles under a finite budget.
        let unbounded = |d: &str| {
            rows.iter()
                .find(|r| r.dataset == d && r.regime == "unbounded")
                .map(|r| r.winner_cycles)
                .expect("row present")
        };
        assert!(
            rows.iter()
                .any(|r| r.regime != "unbounded"
                    && r.unbounded_winner_cycles > unbounded(&r.dataset)),
            "no spill penalty anywhere: {rows:#?}"
        );
    }
}

#[cfg(test)]
mod preset_gap_tests {
    use super::*;

    #[test]
    fn preset_gap_bounds_and_coverage() {
        // Small-graph subset keeps the exhaustive searches quick; the repro
        // binary runs the full suite.
        let rows = preset_gap_for(&["Mutag", "Proteins", "Imdb-bin"], &DseCache::new());
        assert_eq!(rows.len(), 3);
        for r in &rows {
            // The search covers the whole space plus the preset seeds (pruned
            // candidates are covered by their lower bound, not a simulation)…
            assert_eq!(r.evaluated + r.skipped + r.pruned, 6656 + 12, "{}", r.dataset);
            // …so the optimum can never lose to a Table V preset.
            assert!(r.preset_gap >= 1.0 - 1e-12, "{r:?}");
            assert!(r.exhaustive_cycles > 0 && r.exhaustive_cycles <= r.best_preset_cycles);
        }
        // Somewhere even in the small sets the presets leave runtime on the table.
        assert!(rows.iter().any(|r| r.preset_gap > 1.005), "{rows:#?}");
    }
}

#[cfg(test)]
mod accelerator_tests {
    use super::*;

    #[test]
    fn published_dataflows_run_on_the_whole_suite() {
        let rows = accelerators();
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert!(r.hygcn_cycles > 0 && r.awb_gcn_cycles > 0, "{}", r.dataset);
            // HyGCN shares the presets' AC order, so the workload-tuned preset
            // always at least matches it.
            assert!(r.hygcn_vs_best >= 1.0 - 1e-9, "{}", r.dataset);
        }
        // Both fixed dataflows pay a real penalty somewhere in the suite
        // (the Section V-D flexibility argument applied to real ASICs)...
        assert!(rows.iter().any(|r| r.hygcn_vs_best > 1.3));
        assert!(rows.iter().any(|r| r.awb_gcn_vs_best > 1.3));
        // ...while AWB-GCN's CA order legitimately *wins* on a dense wide-feature
        // workload: computing A·(X·W) shrinks aggregation work from E×F to E×G
        // (the Table V presets are all AC). No single dataflow dominates.
        assert!(
            rows.iter().any(|r| r.awb_gcn_vs_best < 1.0),
            "CA should win somewhere: {rows:?}"
        );
    }
}
