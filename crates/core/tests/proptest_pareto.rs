//! Property tests for the one-pass Pareto-frontier DSE: the pruned streaming
//! frontier must equal the brute-force non-dominated set of the full space
//! (enumeration + preset seeds), and must be bit-identical across thread
//! counts — determinism is a property of the space, not of the schedule.

use proptest::prelude::*;

use omega_core::dse::{concretize_pattern, explore, DseOptions, ExploreOutcome};
use omega_core::mapper::Objective;
use omega_core::mapper::extended_candidates;
use omega_core::{evaluate, AccelConfig, CostReport, GnnWorkload};
use omega_dataflow::enumerate::PatternSpace;
use omega_graph::DatasetSpec;

fn workload(hidden: usize) -> GnnWorkload {
    GnnWorkload::gcn_layer(&DatasetSpec::mutag().generate(2), hidden)
}

fn axes(r: &CostReport) -> [f64; 3] {
    [r.total_cycles as f64, r.energy.total_pj(), r.buffer_peak_bytes as f64]
}

fn dominates(a: &[f64; 3], b: &[f64; 3]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
}

/// Every successfully evaluated candidate of the space: the full enumeration
/// plus the preset seeds — exactly the population the streaming frontier sees.
fn brute_force_reports(wl: &GnnWorkload, cfg: &AccelConfig) -> Vec<CostReport> {
    let space = PatternSpace::new();
    let mut reports = Vec::new();
    for i in 0..space.len() {
        let df = concretize_pattern(&space.get(i), wl, cfg);
        if let Ok(r) = evaluate(wl, &df, cfg) {
            reports.push(r);
        }
    }
    for df in extended_candidates(wl, cfg) {
        if let Ok(r) = evaluate(wl, &df, cfg) {
            reports.push(r);
        }
    }
    reports
}

fn frontier_key(out: &ExploreOutcome) -> Vec<(String, u64, u64, u64, Option<usize>)> {
    out.frontier
        .iter()
        .map(|p| {
            (
                p.dataflow.to_string(),
                p.runtime_cycles,
                p.energy_pj.to_bits(),
                p.buffer_peak_bytes,
                p.pattern_index,
            )
        })
        .collect()
}

proptest! {
    // Each case sweeps the full 6,656-pattern space several times, so keep the
    // case count small — the properties are about the sweep, not the sample.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The streaming, pruned frontier is exactly the non-dominated set of the
    /// brute-force population: mutually non-dominated, dominating every
    /// non-member, and covering every non-dominated axis vector.
    #[test]
    fn frontier_equals_brute_force_nondominated_set(hidden_pow in 3usize..6) {
        let cfg = AccelConfig::paper_default();
        let wl = workload(1 << hidden_pow);
        let out = explore(
            &wl,
            &cfg,
            &DseOptions { pareto: true, threads: 2, ..DseOptions::new(Objective::Runtime) },
        );
        let population: Vec<[f64; 3]> =
            brute_force_reports(&wl, &cfg).iter().map(axes).collect();
        let front: Vec<[f64; 3]> = out
            .frontier
            .iter()
            .map(|p| [p.runtime_cycles as f64, p.energy_pj, p.buffer_peak_bytes as f64])
            .collect();
        // (a) mutually non-dominated;
        for (i, a) in front.iter().enumerate() {
            for (j, b) in front.iter().enumerate() {
                prop_assert!(i == j || !dominates(a, b), "frontier entry {i} dominates {j}");
            }
        }
        // (b) no population member dominates any frontier entry;
        for v in &population {
            for f in &front {
                prop_assert!(!dominates(v, f), "{v:?} dominates frontier point {f:?}");
            }
        }
        // (c) every non-dominated population vector appears on the frontier.
        for v in &population {
            let dominated = population.iter().any(|w| dominates(w, v));
            if !dominated {
                prop_assert!(
                    front.contains(v),
                    "non-dominated {v:?} missing from the frontier"
                );
            }
        }
    }

    /// 1-, 2-, and 8-thread sweeps produce the same frontier bit for bit, with
    /// and without bound-vector pruning.
    #[test]
    fn frontier_is_bit_identical_across_threads(hidden_pow in 3usize..6) {
        let cfg = AccelConfig::paper_default();
        let wl = workload(1 << hidden_pow);
        let base = DseOptions { pareto: true, ..DseOptions::new(Objective::Runtime) };
        let reference = explore(
            &wl,
            &cfg,
            &DseOptions { threads: 1, prune: false, ..base },
        );
        prop_assert!(reference.frontier.len() >= 3);
        for threads in [1usize, 2, 8] {
            let out = explore(&wl, &cfg, &DseOptions { threads, ..base });
            prop_assert_eq!(frontier_key(&out), frontier_key(&reference), "threads = {}", threads);
        }
    }
}
