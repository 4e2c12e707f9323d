//! Shape assertions for the case studies: Fig. 14 (load balancing), Fig. 15
//! (scalability), Fig. 16 (bandwidth).

use omega_gnn::prelude::*;

fn workload(name: &str) -> GnnWorkload {
    let spec = DatasetSpec::by_name(name).expect("dataset exists");
    GnnWorkload::gcn_layer(&spec.generate(0x0E5A_2022), 16)
}

fn eval_pp_split(wl: &GnnWorkload, preset_name: &str, agg_frac: f64, hw: &AccelConfig) -> u64 {
    let preset = Preset::by_name(preset_name).expect("preset");
    let agg = ((hw.num_pes as f64 * agg_frac) as usize).clamp(1, hw.num_pes - 1);
    let ctx = wl.tile_context(preset.pattern.phase_order);
    let df = preset.concretize(&ctx, agg, hw.num_pes - agg);
    evaluate(wl, &df, hw).expect("legal").total_cycles
}

fn eval_preset(wl: &GnnWorkload, preset_name: &str, hw: &AccelConfig) -> u64 {
    let preset = Preset::by_name(preset_name).expect("preset");
    let df = mapper::concretize_preset(&preset, wl, hw);
    evaluate(wl, &df, hw).expect("legal").total_cycles
}

/// Fig. 14: "Collab has higher density (HE category) hence slow Aggregation,
/// therefore 25-75 performs poorly. ... Since Citeseer is sparse and has high
/// number of features (HF category), the Combination phase is slower, therefore
/// 75-25 allocation performs poorly."
#[test]
fn pp_load_balancing_directions() {
    let hw = AccelConfig::paper_default();

    let collab = workload("Collab");
    let c25 = eval_pp_split(&collab, "PP1", 0.25, &hw);
    let c50 = eval_pp_split(&collab, "PP1", 0.50, &hw);
    assert!(c25 as f64 >= 1.2 * c50 as f64, "Collab 25-75 {c25} vs 50-50 {c50}");

    let citeseer = workload("Citeseer");
    let s75 = eval_pp_split(&citeseer, "PP1", 0.75, &hw);
    let s50 = eval_pp_split(&citeseer, "PP1", 0.50, &hw);
    assert!(s75 as f64 >= 1.3 * s50 as f64, "Citeseer 75-25 {s75} vs 50-50 {s50}");

    // Mutag: 50-50 is the best of the three allocations (Section V-C1).
    let mutag = workload("Mutag");
    let m25 = eval_pp_split(&mutag, "PP1", 0.25, &hw);
    let m50 = eval_pp_split(&mutag, "PP1", 0.50, &hw);
    let m75 = eval_pp_split(&mutag, "PP1", 0.75, &hw);
    assert!(m50 <= m25 && m50 <= m75, "Mutag: {m25}/{m50}/{m75}");
}

/// Fig. 15: "the runtimes normalized to the Seq1 dataflow are similar in case
/// of 512 and 2048 PEs ... the relative performance of dataflows generalizes
/// for different scales of acceleration."
#[test]
fn normalized_runtimes_are_scale_stable() {
    // The paper qualifies the claim: "especially for dataflows with low
    // runtimes" — SPhighV is the deliberate pathology (its vertex tile grows
    // with the array, so the evil row synchronises ever more rows) and is
    // checked separately below.
    let presets = ["Seq2", "SP1", "SP2", "PP1", "PP3"];
    for name in ["Mutag", "Citeseer"] {
        let wl = workload(name);
        let hw512 = AccelConfig::paper_default();
        let hw2048 = AccelConfig::paper_default().with_pes(2048);
        let base512 = eval_preset(&wl, "Seq1", &hw512) as f64;
        let base2048 = eval_preset(&wl, "Seq1", &hw2048) as f64;
        for p in presets {
            let n512 = eval_preset(&wl, p, &hw512) as f64 / base512;
            let n2048 = eval_preset(&wl, p, &hw2048) as f64 / base2048;
            assert!(
                (n512 - n2048).abs() <= 0.75,
                "{name}/{p}: {n512:.2} @512 vs {n2048:.2} @2048"
            );
        }
        // The headline ordering survives scaling: SPhighV stays the worst SP at
        // both scales (and only gets relatively worse with more PEs).
        for hw in [&hw512, &hw2048] {
            assert!(eval_preset(&wl, "SPhighV", hw) >= eval_preset(&wl, "SP2", hw), "{name}");
        }
    }
}

/// Fig. 16: "Runtime reduces with the decrease in the bandwidth and PP dataflow
/// suffers the most since the bandwidth is shared between the two phases."
/// The sharing penalty shows on the large workloads (Citeseer, Collab); on the
/// tiny Mutag batch, Seq's bigger tiles stall on their own reads first, so only
/// monotonicity is asserted there.
#[test]
fn bandwidth_sensitivity_and_pp_sharing() {
    for name in ["Citeseer", "Collab"] {
        let wl = workload(name);
        let mut prev: Option<(u64, u64, u64)> = None;
        let mut degradation = Vec::new();
        for bw in [512usize, 256, 128, 64] {
            let hw = AccelConfig::paper_default().with_bandwidth(bw);
            let seq = eval_preset(&wl, "Seq1", &hw);
            let sp = eval_preset(&wl, "SP2", &hw);
            let pp = eval_preset(&wl, "PP3", &hw);
            if let Some((pseq, psp, ppp)) = prev {
                assert!(seq >= pseq && sp >= psp && pp >= ppp, "{name}@{bw}: monotone");
            }
            // PP stays the slowest of the three strategies at every bandwidth.
            assert!(pp >= seq && pp >= sp, "{name}@{bw}: PP not slowest");
            prev = Some((seq, sp, pp));
            degradation.push((seq, sp, pp));
        }
        // On the dense HE workload the sharing penalty also shows as a steeper
        // degradation slope (on Citeseer the PP tiles are small enough that its
        // proportional share keeps pace).
        if name == "Collab" {
            let (seq0, sp0, pp0) = degradation[0];
            let (seq3, sp3, pp3) = degradation[3];
            let seq_slope = seq3 as f64 / seq0 as f64;
            let sp_slope = sp3 as f64 / sp0 as f64;
            let pp_slope = pp3 as f64 / pp0 as f64;
            assert!(pp_slope > seq_slope, "{name}: PP {pp_slope:.2} vs Seq {seq_slope:.2}");
            assert!(pp_slope > sp_slope, "{name}: PP {pp_slope:.2} vs SP {sp_slope:.2}");
        }
    }

    // Every strategy is at least monotone on the small batches too.
    let wl = workload("Mutag");
    let mut prev = None;
    for bw in [512usize, 128, 32] {
        let hw = AccelConfig::paper_default().with_bandwidth(bw);
        let total: u64 = ["Seq1", "SP2", "PP3"].iter().map(|p| eval_preset(&wl, p, &hw)).sum();
        if let Some(p) = prev {
            assert!(total >= p, "Mutag@{bw}");
        }
        prev = Some(total);
    }
}

/// The generated HF datasets actually contain the hubs ("evil rows") the
/// SPhighV pathology requires.
#[test]
fn hf_datasets_have_evil_rows() {
    for name in ["Citeseer", "Cora", "Reddit-bin"] {
        let wl = workload(name);
        let skew = wl.max_degree as f64 / wl.mean_degree;
        assert!(skew > 15.0, "{name}: degree skew {skew:.1}");
    }
    // And the molecular sets do not.
    for name in ["Mutag", "Proteins"] {
        let wl = workload(name);
        let skew = wl.max_degree as f64 / wl.mean_degree;
        assert!(skew < 5.0, "{name}: degree skew {skew:.1}");
    }
}
