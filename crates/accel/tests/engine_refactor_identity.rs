//! Golden bit-identity pin for the `PhaseEngine` refactor.
//!
//! Every engine output across the full supported option matrix — all loop
//! orders × a tiling spread (remainder tiles, spill shapes, single-row tiles)
//! × unchunked/produce-chunked/consume-chunked × residency flags × bandwidth
//! shares — is folded into one FNV-1a hash per (dataset, engine). The
//! constants below were recorded from the pre-refactor engines; the refactored
//! engines must reproduce them bit for bit. Any intentional cost-model change
//! must update the constants *and* say why in the commit.

use omega_accel::engine::{
    simulate_gemm, simulate_sddmm, simulate_spmm, CapacityBudget, ChunkSide, ChunkSpec,
    EngineOptions, GemmDims, OperandClasses, SddmmWorkload, SpmmWorkload,
};
use omega_accel::{AccelConfig, BandwidthShare, PhaseStats};
use omega_dataflow::{Dim, IntraTiling, LoopOrder, Phase};
use omega_graph::DatasetSpec;

/// FNV-1a 64-bit fold.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn stats(&mut self, s: &PhaseStats) {
        self.u64(s.cycles);
        self.u64(s.stall_cycles);
        self.u64(s.macs);
        for &r in &s.counters.gb_reads {
            self.u64(r);
        }
        for &w in &s.counters.gb_writes {
            self.u64(w);
        }
        self.u64(s.counters.rf_reads);
        self.u64(s.counters.rf_writes);
        self.u64(s.pe_footprint as u64);
        self.u64(s.chunk_marks.len() as u64);
        for &m in &s.chunk_marks {
            self.u64(m);
        }
        self.u64(s.psum_spilled as u64);
    }
}

fn tiling(phase: Phase, order: &str, tiles: [usize; 3]) -> IntraTiling {
    let d: Vec<Dim> = order.chars().map(|c| Dim::from_letter(c).unwrap()).collect();
    IntraTiling::new(phase, LoopOrder::new(phase, [d[0], d[1], d[2]]).unwrap(), tiles)
}

const TILINGS: [[usize; 3]; 4] = [[1, 1, 1], [4, 4, 2], [16, 8, 4], [5, 3, 2]];

/// The option matrix every engine is swept over: chunk specs (none, produce,
/// consume at non-round `Pel`), residency-flag combinations, and two bandwidth
/// shares (stall-free and throttled). `reference_walk = true` re-runs the
/// whole matrix through the per-edge oracle — it must land on the same golden
/// hashes as the summary-driven default.
fn options_with(cfg: &AccelConfig, reference_walk: bool) -> Vec<EngineOptions> {
    let mut out = Vec::new();
    let chunks = [
        None,
        Some(ChunkSpec { side: ChunkSide::Produce, pel: 257 }),
        Some(ChunkSpec { side: ChunkSide::Consume, pel: 1023 }),
    ];
    let flags = [(false, false, false), (true, false, false), (false, true, false), (true, true, true)];
    let bws = [cfg.full_bandwidth(), BandwidthShare { dist: 48, red: 48 }];
    for chunk in chunks {
        for (input_resident, output_stays_local, scores_resident) in flags {
            for bandwidth in bws {
                out.push(EngineOptions {
                    bandwidth,
                    input_resident,
                    output_stays_local,
                    scores_resident,
                    chunk,
                    capacity: CapacityBudget::UNBOUNDED,
                    reference_walk,
                });
            }
        }
    }
    out
}

struct Workload {
    degrees: Vec<usize>,
    v: usize,
    f: usize,
    g: usize,
}

fn dataset(spec: DatasetSpec) -> Workload {
    let ds = spec.generate(7);
    let v = ds.graph.num_vertices();
    Workload {
        degrees: (0..v).map(|i| ds.graph.degree(i)).collect(),
        v,
        f: ds.graph.feature_dim(),
        g: 16,
    }
}

fn gemm_hash(wl: &Workload, cfg: &AccelConfig) -> u64 {
    let mut h = Fnv::new();
    let dims = GemmDims { v: wl.v, f: wl.f, g: wl.g };
    for order in ["VGF", "VFG", "GVF", "GFV", "FVG", "FGV"] {
        for tiles in TILINGS {
            let t = tiling(Phase::Combination, order, tiles);
            for opts in options_with(cfg, false) {
                h.stats(&simulate_gemm(dims, &t, cfg, &OperandClasses::combination_ac(), &opts));
            }
        }
    }
    h.0
}

fn spmm_hash(wl: &Workload, cfg: &AccelConfig, reference_walk: bool) -> u64 {
    let mut h = Fnv::new();
    let swl = SpmmWorkload { degrees: &wl.degrees, feature_width: wl.f };
    for order in ["VFN", "FVN", "VNF", "FNV", "NVF", "NFV"] {
        for tiles in TILINGS {
            let t = tiling(Phase::Aggregation, order, tiles);
            for opts in options_with(cfg, reference_walk) {
                let classes = if opts.scores_resident {
                    OperandClasses::aggregation_gat()
                } else {
                    OperandClasses::aggregation_ac()
                };
                h.stats(&simulate_spmm(&swl, &t, cfg, &classes, &opts));
            }
        }
    }
    h.0
}

fn sddmm_hash(wl: &Workload, cfg: &AccelConfig, reference_walk: bool) -> u64 {
    let mut h = Fnv::new();
    for heads in [1usize, 3] {
        let dot = (wl.f / heads).max(1);
        let swl = SddmmWorkload { degrees: &wl.degrees, dot_width: dot, heads };
        for order in ["VFN", "VNF", "FVN"] {
            for tiles in TILINGS {
                let t = tiling(Phase::Aggregation, order, tiles);
                for opts in options_with(cfg, reference_walk) {
                    h.stats(&simulate_sddmm(&swl, &t, cfg, &OperandClasses::sddmm(), &opts));
                }
            }
        }
    }
    h.0
}

// Golden hashes recorded from the pre-refactor engines (PR 5 tree).
const GOLDEN: [(&str, &str, u64); 6] = [
    ("Mutag", "gemm", 0xa7b04528687bbdc8),
    ("Mutag", "spmm", 0xa3f67dc2096e51a9),
    ("Mutag", "sddmm", 0xe76d0e057b5b0fe3),
    ("Proteins", "gemm", 0xff32bddf56e42bc9),
    ("Proteins", "spmm", 0xe0ec2e6f41f59138),
    ("Proteins", "sddmm", 0x2d20a797ac61df8f),
];

fn golden(dataset: &str, engine: &str) -> u64 {
    GOLDEN
        .iter()
        .find(|&&(d, e, _)| d == dataset && e == engine)
        .map(|&(_, _, h)| h)
        .expect("golden entry")
}

fn check(dataset_name: &str, engine: &str, actual: u64) {
    assert_eq!(
        actual,
        golden(dataset_name, engine),
        "{dataset_name}/{engine}: engine output diverged from the pre-refactor golden hash \
         (actual {actual:#018x})"
    );
}

#[test]
fn mutag_engines_match_prerefactor_goldens() {
    let cfg = AccelConfig::paper_default();
    let wl = dataset(DatasetSpec::mutag());
    check("Mutag", "gemm", gemm_hash(&wl, &cfg));
    check("Mutag", "spmm", spmm_hash(&wl, &cfg, false));
    check("Mutag", "sddmm", sddmm_hash(&wl, &cfg, false));
}

/// Summary-path satellite: the per-edge reference walk must reproduce the very
/// same golden hashes as the summary-driven default — one assertion covering
/// the whole loop-order × tiling × option matrix per engine.
#[test]
fn reference_walk_reproduces_the_same_goldens() {
    let cfg = AccelConfig::paper_default();
    for spec in [DatasetSpec::mutag(), DatasetSpec::proteins()] {
        let name = spec.name;
        let wl = dataset(spec);
        check(name, "spmm", spmm_hash(&wl, &cfg, true));
        check(name, "sddmm", sddmm_hash(&wl, &cfg, true));
    }
}

/// Capacity satellite: an *unbounded* budget is bit-identical to the paper
/// model (all fields, including the new peaks), a budget equal to the reported
/// peaks never fires, and finite budgets only ever add traffic and cycles.
#[test]
fn capacity_budgets_are_identity_at_unbounded_and_monotone_when_finite() {
    let cfg = AccelConfig::paper_default();
    let wl = dataset(DatasetSpec::mutag());
    let swl = SpmmWorkload { degrees: &wl.degrees, feature_width: wl.f };
    let dims = GemmDims { v: wl.v, f: wl.f, g: wl.g };
    for tiles in TILINGS {
        let ts = tiling(Phase::Aggregation, "VFN", tiles);
        let tg = tiling(Phase::Combination, "VGF", tiles);
        for resident in [false, true] {
            let mut base = EngineOptions::plain(cfg.full_bandwidth());
            base.input_resident = resident;
            let spmm = |opts: &EngineOptions| {
                simulate_spmm(&swl, &ts, &cfg, &OperandClasses::aggregation_ac(), opts)
            };
            let gemm = |opts: &EngineOptions| {
                simulate_gemm(dims, &tg, &cfg, &OperandClasses::combination_ac(), opts)
            };
            for (run, peaks_of) in [
                (&spmm as &dyn Fn(&EngineOptions) -> PhaseStats, "spmm"),
                (&gemm as &dyn Fn(&EngineOptions) -> PhaseStats, "gemm"),
            ] {
                let free = run(&base);
                assert!(free.rf_peak_bytes > 0, "{peaks_of}: peaks must always be reported");
                assert!(free.gb_peak_bytes > 0, "{peaks_of}");
                // Budget exactly at the peak: nothing overflows.
                let mut at_peak = base;
                at_peak.capacity = CapacityBudget {
                    rf_bytes_per_pe: free.rf_peak_bytes as usize,
                    gb_bytes: free.gb_peak_bytes as usize,
                };
                let fit = run(&at_peak);
                assert_eq!(fit.cycles, free.cycles, "{peaks_of} {tiles:?} resident={resident}");
                assert_eq!(fit.counters, free.counters);
                // Halving both budgets can only add cost.
                let mut tight = base;
                tight.capacity = CapacityBudget {
                    rf_bytes_per_pe: (free.rf_peak_bytes as usize / 2).max(1),
                    gb_bytes: (free.gb_peak_bytes as usize / 2).max(1),
                };
                let spilled = run(&tight);
                assert!(spilled.cycles > free.cycles, "{peaks_of} {tiles:?} resident={resident}");
                assert!(spilled.counters.total_gb_reads() > free.counters.total_gb_reads());
                assert!(spilled.psum_spilled);
                assert_eq!(spilled.macs, free.macs, "spills never change the compute");
            }
        }
    }
}

#[test]
fn proteins_engines_match_prerefactor_goldens() {
    let cfg = AccelConfig::paper_default();
    let wl = dataset(DatasetSpec::proteins());
    check("Proteins", "gemm", gemm_hash(&wl, &cfg));
    check("Proteins", "spmm", spmm_hash(&wl, &cfg, false));
    check("Proteins", "sddmm", sddmm_hash(&wl, &cfg, false));
}

/// Tilings whose middle loop has a single tile on Mutag and Proteins
/// (`F` = 28/29, `G` = 16): the G tile covers G under VGF/FGV, the F tile
/// covers F under VFG/GFV. Each order keeps a remainder outer tile (5 or 7
/// rows, or a 3-wide F tile) next to the one-row PP-consumer shape.
const SINGLE_MIDDLE_TILINGS: [(&str, [usize; 3]); 8] = [
    ("VGF", [1, 16, 16]),
    ("VGF", [5, 16, 4]),
    ("VGF", [7, 32, 3]),
    ("VFG", [1, 32, 16]),
    ("VFG", [5, 32, 3]),
    ("VFG", [7, 64, 4]),
    ("FGV", [3, 16, 8]),
    ("GFV", [4, 32, 5]),
];

fn single_middle_gemm_hash(wl: &Workload, cfg: &AccelConfig) -> u64 {
    let mut h = Fnv::new();
    let dims = GemmDims { v: wl.v, f: wl.f, g: wl.g };
    let mut options = options_with(cfg, false);
    for (side, pel) in [(ChunkSide::Produce, 7), (ChunkSide::Consume, 33)] {
        let mut o = EngineOptions::plain(cfg.full_bandwidth());
        o.chunk = Some(ChunkSpec { side, pel });
        options.push(o);
        o.bandwidth = BandwidthShare { dist: 48, red: 48 };
        options.push(o);
    }
    for (order, tiles) in SINGLE_MIDDLE_TILINGS {
        let t = tiling(Phase::Combination, order, tiles);
        for opts in &options {
            for classes in [OperandClasses::combination_ac(), OperandClasses::combination_ca()] {
                h.stats(&simulate_gemm(dims, &t, cfg, &classes, opts));
            }
        }
    }
    h.0
}

/// Golden hashes of [`single_middle_gemm_hash`] on Mutag and Proteins,
/// recorded from the engine that walked every outer tile of a chunked run
/// one at a time.
const SINGLE_MIDDLE_GOLDEN: [u64; 2] = [0x931a_c3e6_5219_3cc5, 0x532e_b8f7_f34f_4039];

/// Chunked GEMM walks whose middle loop has one tile: no `TILINGS` entry
/// reaches that shape, so it has goldens of its own.
#[test]
fn single_middle_tile_chunked_gemm_matches_goldens() {
    let cfg = AccelConfig::paper_default();
    let mut got = Vec::new();
    for spec in [DatasetSpec::mutag(), DatasetSpec::proteins()] {
        let wl = dataset(spec);
        assert!(wl.f <= 32 && wl.g <= 16, "the tilings above assume F ≤ 32, G ≤ 16");
        got.push(single_middle_gemm_hash(&wl, &cfg));
    }
    assert_eq!(got, SINGLE_MIDDLE_GOLDEN, "actual {got:x?}");
}
