//! Paper-shape assertions: the qualitative results of Section V must hold in
//! this reproduction (each test's comment notes where the substrate deviates
//! from the paper).

use std::collections::HashMap;
use std::sync::OnceLock;

use omega_gnn::prelude::*;

/// All (dataset, preset) → report evaluations, computed once.
fn grid() -> &'static HashMap<(String, String), CostReport> {
    static GRID: OnceLock<HashMap<(String, String), CostReport>> = OnceLock::new();
    GRID.get_or_init(|| {
        let hw = AccelConfig::paper_default();
        let mut out = HashMap::new();
        for dataset in omega_gnn::graph::suite(0x0E5A_2022) {
            let wl = GnnWorkload::gcn_layer(&dataset, 16);
            for preset in Preset::all() {
                let df = mapper::concretize_preset(&preset, &wl, &hw);
                let report = evaluate(&wl, &df, &hw).expect("legal preset");
                out.insert((dataset.name().to_string(), preset.name.to_string()), report);
            }
        }
        out
    })
}

fn cycles(dataset: &str, preset: &str) -> u64 {
    grid()[&(dataset.to_string(), preset.to_string())].total_cycles
}

fn normalized(dataset: &str, preset: &str) -> f64 {
    cycles(dataset, preset) as f64 / cycles(dataset, "Seq1") as f64
}

fn energy(dataset: &str, preset: &str) -> f64 {
    grid()[&(dataset.to_string(), preset.to_string())].energy.total_pj()
}

const HF: [&str; 3] = ["Reddit-bin", "Citeseer", "Cora"];
const LEF: [&str; 2] = ["Mutag", "Proteins"];
const ALL: [&str; 7] = ["Mutag", "Proteins", "Imdb-bin", "Collab", "Reddit-bin", "Citeseer", "Cora"];
const PRESETS: [&str; 9] = ["Seq1", "Seq2", "SP1", "SP2", "SPhighV", "PP1", "PP2", "PP3", "PP4"];

/// Section V-B1 / V-D: "extremely high T_V can lead to delays since the
/// performance is limited by a dense row ('evil row')" — SPhighV collapses on
/// the skewed HF datasets but stays moderate on the near-regular molecular sets
/// ("Mutag and Proteins have great performance despite extremely high T_V").
#[test]
fn evil_rows_break_sp_high_v_on_hf_only() {
    for d in HF {
        assert!(normalized(d, "SPhighV") >= 1.8, "{d}: {}", normalized(d, "SPhighV"));
    }
    for d in LEF {
        assert!(normalized(d, "SPhighV") <= 1.7, "{d}: {}", normalized(d, "SPhighV"));
    }
    // And pushing SP2's pattern to T_V = 512 never pays off: SPhighV is always
    // at least as slow as SP2 (the same pattern with a sane tile).
    for d in ALL {
        assert!(normalized(d, "SPhighV") >= normalized(d, "SP2") - 1e-9, "{d}");
    }
}

/// Section V-B1: the SP family leads on the large sparse workloads (the paper's
/// "SP2 performs well in most cases"; in our substrate SP1/SP2 split the crown).
#[test]
fn sp_family_leads_on_sparse_workloads() {
    for d in ["Collab", "Reddit-bin", "Citeseer", "Cora"] {
        let best_sp = normalized(d, "SP1").min(normalized(d, "SP2"));
        for p in PRESETS {
            if p.starts_with("SP") && p != "SPhighV" {
                continue;
            }
            assert!(
                best_sp <= normalized(d, p) + 1e-9,
                "{d}: best SP {best_sp} vs {p} {}",
                normalized(d, p)
            );
        }
    }
}

/// Section V-B1: "For the Collab dataset, PP performs worst due to poor load
/// balancing between Aggregation and Combination."
#[test]
fn pp_suffers_most_on_collab() {
    // At least one PP variant is > 2x on Collab...
    let worst_pp_collab = ["PP1", "PP2", "PP3", "PP4"]
        .iter()
        .map(|p| normalized("Collab", p))
        .fold(0.0, f64::max);
    assert!(worst_pp_collab >= 2.0, "worst PP on Collab = {worst_pp_collab}");
    // ...and PP is systematically worse on Collab than on the HF sets.
    for p in ["PP2", "PP4"] {
        for d in HF {
            assert!(
                normalized("Collab", p) > normalized(d, p),
                "{p}: Collab {} vs {d} {}",
                normalized("Collab", p),
                normalized(d, p)
            );
        }
    }
}

/// Section V-E: high pipelining granularity (PP3) beats low granularity (PP1)
/// on the HF workloads.
#[test]
fn high_granularity_pp_wins_on_hf() {
    for d in HF {
        assert!(
            normalized(d, "PP3") <= normalized(d, "PP1") + 1e-9,
            "{d}: PP3 {} vs PP1 {}",
            normalized(d, "PP3"),
            normalized(d, "PP1")
        );
    }
}

/// Section V-B1: spatial aggregation pays off on the densely-connected ego
/// networks (Imdb-bin) — Seq2 ≤ Seq1 and PP4 ≤ PP3 there — while on the very
/// sparse molecular sets the spatial-N tile buys nothing (optimal T_N is low).
#[test]
fn spatial_aggregation_helps_on_dense_graphs() {
    assert!(normalized("Imdb-bin", "Seq2") <= 1.0 + 1e-9);
    assert!(normalized("Imdb-bin", "PP4") <= normalized("Imdb-bin", "PP3") + 1e-9);
    for d in LEF {
        // Sparse: Seq2 within noise of Seq1, never a real win.
        let r = normalized(d, "Seq2");
        assert!((0.95..=1.1).contains(&r), "{d}: Seq2 {r}");
    }
}

/// Section V-E energy summary: "For HF workloads, PP3 and SP2 have the best
/// energies. ... For LEF workloads, SP1 [is among the best]" — and the SP
/// family is always within a whisker of the global minimum (it has zero
/// intermediate traffic), while SPhighV pays the partial-sum overhead.
#[test]
fn sp_family_has_lowest_energy() {
    for d in ALL {
        let global_min = PRESETS.iter().map(|p| energy(d, p)).fold(f64::INFINITY, f64::min);
        let best_sp = energy(d, "SP1").min(energy(d, "SP2"));
        assert!(best_sp <= 1.10 * global_min, "{d}: best SP {best_sp} vs min {global_min}");
        // SPhighV's psum overhead shows up against SP2 (same pattern family).
        assert!(energy(d, "SPhighV") > energy(d, "SP2"), "{d}");
    }
    // LEF: SP1 is the outright minimum.
    for d in LEF {
        let global_min = PRESETS.iter().map(|p| energy(d, p)).fold(f64::INFINITY, f64::min);
        assert!((energy(d, "SP1") - global_min).abs() < 1e-6, "{d}");
    }
    // HF: the minimum comes from the {SP2, PP3, PP4} group the paper names.
    for d in HF {
        let global_min = PRESETS.iter().map(|p| energy(d, p)).fold(f64::INFINITY, f64::min);
        let named = ["SP2", "PP3", "PP4"].iter().map(|p| energy(d, p)).fold(f64::INFINITY, f64::min);
        assert!((named - global_min).abs() < 1e-6, "{d}");
    }
}

/// Section V-B2: SPhighV spills partial sums (Psum GB traffic > 0) while
/// SP1/SP2 keep them in the register files.
#[test]
fn psum_spill_is_sp_high_v_specific() {
    for d in ALL {
        let g = grid();
        let high_v = &g[&(d.to_string(), "SPhighV".to_string())];
        assert!(high_v.counters.gb_of(OperandClass::Psum) > 0, "{d}: SPhighV psums");
        for p in ["SP1", "SP2"] {
            let r = &g[&(d.to_string(), p.to_string())];
            assert_eq!(r.counters.gb_of(OperandClass::Psum), 0, "{d}/{p}");
        }
    }
}

/// Fig. 13: on Collab the input-feature accesses dominate the GB traffic; on
/// Citeseer the low-`T_V` dataflows (SP1/PP1) are weight-dominated (weights are
/// re-streamed per vertex tile).
#[test]
fn gb_breakdown_shapes() {
    let g = grid();
    let collab_seq1 = &g[&("Collab".to_string(), "Seq1".to_string())];
    let inp = collab_seq1.counters.gb_of(OperandClass::Input);
    for c in OperandClass::ALL {
        assert!(inp >= collab_seq1.counters.gb_of(c), "Collab Seq1: Inp vs {c}");
    }
    let citeseer_sp1 = &g[&("Citeseer".to_string(), "SP1".to_string())];
    let wt = citeseer_sp1.counters.gb_of(OperandClass::Weight);
    for c in OperandClass::ALL {
        assert!(wt >= citeseer_sp1.counters.gb_of(c), "Citeseer SP1: Wt vs {c}");
    }
}

/// Fig. 12: PP's dedicated intermediate partition is cheaper per access than
/// the global buffer Seq stages the intermediate through.
#[test]
fn pp_intermediate_partition_discount() {
    let g = grid();
    for d in ALL {
        let seq = &g[&(d.to_string(), "Seq1".to_string())];
        let pp = &g[&(d.to_string(), "PP1".to_string())];
        let seq_rate =
            seq.energy.intermediate_pj / seq.counters.gb_of(OperandClass::Intermediate).max(1) as f64;
        let pp_rate =
            pp.energy.intermediate_pj / pp.counters.gb_of(OperandClass::Intermediate).max(1) as f64;
        assert!(pp_rate < seq_rate, "{d}: {pp_rate} vs {seq_rate}");
    }
}
