//! The nine evaluated dataflow configurations of Table V.
//!
//! | Name    | Configuration              | Distinguishing property                  |
//! |---------|----------------------------|------------------------------------------|
//! | Seq1    | SeqAC(VxFxNt, VxGxFx)      | Temporal Aggregation (T_N = 1)           |
//! | Seq2    | SeqAC(VxFxNs, VxGxFx)      | Spatial Aggregation (T_N > 1)            |
//! | SP1     | SPAC(VxFsNt, VxFsGx)       | Temporal Aggregation & high T_F          |
//! | SP2     | SPAC(VsFxNt, VsFxGx)       | Temporal Aggregation & high T_V          |
//! | SPhighV | SPAC(VsFxNt, VsFxGx)       | SP dataflow; extremely high T_V          |
//! | PP1     | PPAC(VxFxNt, VxGxFx)       | Temporal Agg. & low-row granularity      |
//! | PP2     | PPAC(VxFxNs, VxGxFx)       | Spatial Agg. & low granularity           |
//! | PP3     | PPAC(VxFxNt, VsGxFx)       | Temporal Agg. & high granularity         |
//! | PP4     | PPAC(VxFxNs, VsGxFx)       | Spatial Agg. & high granularity          |
//!
//! A preset couples the dataflow *pattern* with the tile-growth policy that
//! realises its distinguishing property on a given workload and PE budget
//! (Section V-A3: tiles are chosen per dataflow/dataset for ~100% static
//! utilisation).

use crate::tiles::{choose_tiling, Cap, PhasePolicy, TileContext};
use crate::{Dim, GnnDataflow, GnnDataflowPattern, IntraTiling};

/// A named, reproducible dataflow configuration (one row of Table V).
#[derive(Debug, Clone)]
pub struct Preset {
    /// Short name used in the result charts (`Seq1`, `PP4`, ...).
    pub name: &'static str,
    /// Table V's "Distinguishing Property" column.
    pub distinguishing_property: &'static str,
    /// The dataflow pattern (with `x` placeholders).
    pub pattern: GnnDataflowPattern,
    agg_policy: PhasePolicy,
    cmb_policy: PhasePolicy,
    /// SP presets tie the Combination tiles to the Aggregation tiles
    /// (`T_V`/`T_F` shared, `T_G = 1`) per the SP-Optimized constraints.
    tie_sp_tiles: bool,
}

impl Preset {
    /// Concretises the preset for a workload, choosing tile sizes within the given
    /// per-phase PE budgets.
    ///
    /// For Seq and SP both phases time-share the array, so callers pass the same
    /// budget twice; for PP the budgets are the two partition sizes (Section V-C1's
    /// 25-75 / 50-50 / 75-25 splits).
    pub fn concretize(&self, ctx: &TileContext, agg_pes: usize, cmb_pes: usize) -> GnnDataflow {
        let agg = choose_tiling(&self.pattern.agg, ctx, agg_pes, &self.agg_policy);
        let cmb = if self.tie_sp_tiles {
            tie_combination_tiles(&self.pattern, &agg)
        } else {
            choose_tiling(&self.pattern.cmb, ctx, cmb_pes, &self.cmb_policy)
        };
        GnnDataflow { inter: self.pattern.inter, phase_order: self.pattern.phase_order, agg, cmb }
    }

    /// All nine presets in Table V order.
    pub fn all() -> Vec<Preset> {
        vec![
            seq1(),
            seq2(),
            sp1(),
            sp2(),
            sp_high_v(),
            pp1(),
            pp2(),
            pp3(),
            pp4(),
        ]
    }

    /// Looks a preset up by case-insensitive name.
    pub fn by_name(name: &str) -> Option<Preset> {
        Self::all().into_iter().find(|p| p.name.eq_ignore_ascii_case(name))
    }
}

/// Builds the SP Combination tiling from the Aggregation tiling: same `T_V`/`T_F`,
/// `T_G = 1` (the intermediate tile computed by Aggregation is consumed in place).
fn tie_combination_tiles(pattern: &GnnDataflowPattern, agg: &IntraTiling) -> IntraTiling {
    let order = pattern.cmb.order();
    let tiles = order.dims().map(|d| match d {
        Dim::V => agg.tile_of(Dim::V),
        Dim::F => agg.tile_of(Dim::F),
        _ => 1,
    });
    IntraTiling::new(pattern.cmb.phase(), order, tiles)
}

fn parse(s: &str) -> GnnDataflowPattern {
    s.parse().expect("preset pattern strings are valid")
}

/// Seq1 — sequential, temporal Aggregation (`T_N = 1`), balanced `V`/`F` and
/// `V`/`G` spatial tiles.
pub fn seq1() -> Preset {
    Preset {
        name: "Seq1",
        distinguishing_property: "Temporal Aggregation (T_N=1)",
        pattern: parse("Seq_AC(VxFxNt, VxGxFx)"),
        agg_policy: PhasePolicy::round_robin(&[Dim::V, Dim::F]),
        cmb_policy: PhasePolicy::round_robin(&[Dim::V, Dim::G]),
        tie_sp_tiles: false,
    }
}

/// Seq2 — sequential, spatial Aggregation (`T_N > 1`, sized to the mean degree).
pub fn seq2() -> Preset {
    Preset {
        name: "Seq2",
        distinguishing_property: "Spatial Aggregation (T_N>1)",
        pattern: parse("Seq_AC(VxFxNs, VxGxFx)"),
        agg_policy: PhasePolicy::round_robin(&[Dim::N, Dim::V, Dim::F])
            .with_cap(Dim::N, Cap::MeanDegreePow2),
        cmb_policy: PhasePolicy::round_robin(&[Dim::V, Dim::G]),
        tie_sp_tiles: false,
    }
}

/// SP1 — sequential pipeline, temporal Aggregation, high `T_F`.
pub fn sp1() -> Preset {
    Preset {
        name: "SP1",
        distinguishing_property: "Temporal Aggregation & high T_F",
        pattern: parse("SP_AC(VxFsNt, VxFsGx)"),
        agg_policy: PhasePolicy::greedy(&[Dim::F, Dim::V]),
        cmb_policy: PhasePolicy::greedy(&[Dim::F, Dim::V]),
        tie_sp_tiles: true,
    }
}

/// SP2 — sequential pipeline, temporal Aggregation, high (but capped) `T_V`.
pub fn sp2() -> Preset {
    Preset {
        name: "SP2",
        distinguishing_property: "Temporal Aggregation & high T_V",
        pattern: parse("SP_AC(VsFxNt, VsFxGx)"),
        agg_policy: PhasePolicy::greedy(&[Dim::V, Dim::F]).with_cap(Dim::V, Cap::BudgetFrac(8)),
        cmb_policy: PhasePolicy::greedy(&[Dim::V, Dim::F]),
        tie_sp_tiles: true,
    }
}

/// SPhighV — SP2's pattern pushed to the extreme: `T_V` = the whole array,
/// `T_F = 1`. Introduced by the paper "to highlight the problem of parallelizing
/// sparse dimensions" (footnote 4): runtime becomes limited by the densest row and
/// partial sums spill.
pub fn sp_high_v() -> Preset {
    Preset {
        name: "SPhighV",
        distinguishing_property: "SP dataflow; extremely high T_V",
        pattern: parse("SP_AC(VsFxNt, VsFxGx)"),
        agg_policy: PhasePolicy::greedy(&[Dim::V, Dim::F]),
        cmb_policy: PhasePolicy::greedy(&[Dim::V, Dim::F]),
        tie_sp_tiles: true,
    }
}

/// PP1 — parallel pipeline, temporal Aggregation, low row granularity (small
/// `T_V`, features-first tiles).
pub fn pp1() -> Preset {
    Preset {
        name: "PP1",
        distinguishing_property: "Temporal Aggregation & granularity of lower rows",
        pattern: parse("PP_AC(VxFxNt, VxGxFx)"),
        agg_policy: PhasePolicy::greedy(&[Dim::F, Dim::V]),
        cmb_policy: PhasePolicy::greedy(&[Dim::G, Dim::F, Dim::V]),
        tie_sp_tiles: false,
    }
}

/// PP2 — parallel pipeline, spatial Aggregation, low granularity.
pub fn pp2() -> Preset {
    Preset {
        name: "PP2",
        distinguishing_property: "Spatial Agg. & low granularity",
        pattern: parse("PP_AC(VxFxNs, VxGxFx)"),
        agg_policy: PhasePolicy::greedy(&[Dim::N, Dim::F, Dim::V]).with_cap(Dim::N, Cap::MeanDegreePow2),
        cmb_policy: PhasePolicy::greedy(&[Dim::G, Dim::F, Dim::V]),
        tie_sp_tiles: false,
    }
}

/// PP3 — parallel pipeline, temporal Aggregation, high granularity: the `Vs` in
/// the Combination pattern pushes `T_V_CMB` (and with it `T_Vmax`, hence `Pel`)
/// high, while the Aggregation keeps feature-first tiles.
pub fn pp3() -> Preset {
    Preset {
        name: "PP3",
        distinguishing_property: "Temporal Agg. & high granularity",
        pattern: parse("PP_AC(VxFxNt, VsGxFx)"),
        agg_policy: PhasePolicy::greedy(&[Dim::F, Dim::V]),
        cmb_policy: PhasePolicy::greedy(&[Dim::G, Dim::V]),
        tie_sp_tiles: false,
    }
}

/// PP4 — parallel pipeline, spatial Aggregation, high granularity.
pub fn pp4() -> Preset {
    Preset {
        name: "PP4",
        distinguishing_property: "Spatial Agg. & high granularity",
        pattern: parse("PP_AC(VxFxNs, VsGxFx)"),
        agg_policy: PhasePolicy::greedy(&[Dim::N, Dim::F, Dim::V]).with_cap(Dim::N, Cap::MeanDegreePow2),
        cmb_policy: PhasePolicy::greedy(&[Dim::G, Dim::V]),
        tie_sp_tiles: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate, Granularity, PhaseOrder};

    fn citeseer_ctx() -> TileContext {
        TileContext::new(PhaseOrder::AC, 3327, 3703, 16, 3.8, 100)
    }

    fn mutag_ctx() -> TileContext {
        TileContext::new(PhaseOrder::AC, 1147, 28, 16, 3.2, 12)
    }

    #[test]
    fn nine_presets_in_table_v_order() {
        let names: Vec<_> = Preset::all().iter().map(|p| p.name).collect();
        assert_eq!(names, ["Seq1", "Seq2", "SP1", "SP2", "SPhighV", "PP1", "PP2", "PP3", "PP4"]);
    }

    #[test]
    fn by_name_lookup() {
        assert!(Preset::by_name("sp2").is_some());
        assert!(Preset::by_name("PPHIGHV").is_none());
    }

    #[test]
    fn all_presets_concretize_validly_on_all_contexts() {
        for ctx in [citeseer_ctx(), mutag_ctx()] {
            for preset in Preset::all() {
                let (a, c) = preset.pattern.inter.pe_budgets(512);
                let df = preset.concretize(&ctx, a, c);
                assert!(validate(&df).is_ok(), "{}: {}", preset.name, df);
                assert!(preset.pattern.agg.order() == df.agg.order());
                // PE budgets respected.
                assert!(df.agg.pe_footprint() <= a, "{} agg {:?}", preset.name, df.tile_tuple());
                assert!(df.cmb.pe_footprint() <= c, "{} cmb {:?}", preset.name, df.tile_tuple());
            }
        }
    }

    #[test]
    fn sp_presets_are_sp_optimized() {
        for name in ["SP1", "SP2", "SPhighV"] {
            let df = Preset::by_name(name).unwrap().concretize(&citeseer_ctx(), 512, 512);
            assert!(df.is_sp_optimized(), "{name}: {df} {:?}", df.tile_tuple());
        }
    }

    #[test]
    fn sp_high_v_maps_the_whole_array_to_vertices() {
        let df = sp_high_v().concretize(&citeseer_ctx(), 512, 512);
        assert_eq!(df.agg.tile_of(Dim::V), 512);
        assert_eq!(df.agg.tile_of(Dim::F), 1);
    }

    #[test]
    fn sp1_vs_sp2_tile_emphasis() {
        let ctx = citeseer_ctx();
        let d1 = sp1().concretize(&ctx, 512, 512);
        let d2 = sp2().concretize(&ctx, 512, 512);
        assert!(d1.agg.tile_of(Dim::F) > d2.agg.tile_of(Dim::F));
        assert!(d2.agg.tile_of(Dim::V) > d1.agg.tile_of(Dim::V));
        assert_eq!(d2.agg.tile_of(Dim::V), 64); // 512/8 cap
    }

    #[test]
    fn footnote4_small_f_forces_high_tv() {
        // Mutag: F = 28 → T_F ≤ 16, so even SP1 ends up with a large T_V.
        let df = sp1().concretize(&mutag_ctx(), 512, 512);
        assert_eq!(df.agg.tile_of(Dim::F), 16);
        assert_eq!(df.agg.tile_of(Dim::V), 32);
    }

    #[test]
    fn pp_presets_have_row_granularity() {
        let ctx = citeseer_ctx();
        for name in ["PP1", "PP2", "PP3", "PP4"] {
            let df = Preset::by_name(name).unwrap().concretize(&ctx, 256, 256);
            assert_eq!(df.granularity(), Some(Granularity::Row), "{name}");
        }
    }

    #[test]
    fn pp3_pipelines_more_rows_than_pp1() {
        let ctx = citeseer_ctx();
        let low = pp1().concretize(&ctx, 256, 256);
        let high = pp3().concretize(&ctx, 256, 256);
        let tvmax_low = low.agg.tile_of(Dim::V).max(low.cmb.tile_of(Dim::V));
        let tvmax_high = high.agg.tile_of(Dim::V).max(high.cmb.tile_of(Dim::V));
        assert!(tvmax_high > tvmax_low, "{tvmax_high} vs {tvmax_low}");
    }

    #[test]
    fn spatial_aggregation_presets_unroll_n() {
        let collab = TileContext::new(PhaseOrder::AC, 4766, 492, 16, 60.0, 200);
        for name in ["Seq2", "PP2", "PP4"] {
            let df = Preset::by_name(name).unwrap().concretize(&collab, 256, 256);
            assert!(df.agg.tile_of(Dim::N) > 1, "{name}");
        }
        // Temporal presets keep T_N = 1.
        for name in ["Seq1", "SP1", "SP2", "PP1", "PP3"] {
            let df = Preset::by_name(name).unwrap().concretize(&collab, 256, 256);
            assert_eq!(df.agg.tile_of(Dim::N), 1, "{name}");
        }
    }

    #[test]
    fn static_utilisation_is_high_when_dims_allow() {
        let ctx = citeseer_ctx();
        for preset in Preset::all() {
            let df = preset.concretize(&ctx, 512, 512);
            let util = df.agg.static_utilisation(512);
            assert!(util >= 0.99, "{}: agg util {util}", preset.name);
        }
    }
}

/// CA-order companions to the Table V presets.
///
/// The paper evaluates AC only ("for the analysis in this section, we focus on
/// AC computation order, but the same concepts apply to CA", Section IV), yet
/// the CA order `A·(X0·W)` is algebraically cheaper whenever `G < F`: the
/// Aggregation then streams `G`-wide rows, shrinking its work from `E×F` to
/// `E×G`. These presets give mappers real coverage of that half of the space
/// (AWB-GCN's dataflow is the PP member, Table II row 9).
pub fn ca_variants() -> Vec<Preset> {
    vec![seq_ca(), sp_ca(), pp_ca_awb()]
}

/// Seq-CA — sequential with the CA computation order, balanced tiles.
pub fn seq_ca() -> Preset {
    Preset {
        name: "SeqCA",
        distinguishing_property: "Sequential, Combination-first (A\u{b7}(XW))",
        pattern: parse("Seq_CA(VxFxNt, VxGxFx)"),
        agg_policy: PhasePolicy::round_robin(&[Dim::V, Dim::F]),
        cmb_policy: PhasePolicy::round_robin(&[Dim::V, Dim::G]),
        tie_sp_tiles: false,
    }
}

/// SP-CA — the SP-Optimized CA template of Table II row 2: Combination holds
/// its `V×G` tile in the RFs and Aggregation consumes it in place.
pub fn sp_ca() -> Preset {
    Preset {
        name: "SPCA",
        distinguishing_property: "SP-Optimized, Combination-first",
        pattern: parse("SP_CA(NxFxVt, VxGxFt)"),
        agg_policy: PhasePolicy::round_robin(&[Dim::N, Dim::F]),
        cmb_policy: PhasePolicy::round_robin(&[Dim::V, Dim::G]),
        tie_sp_tiles: false,
    }
}

/// PP-CA — AWB-GCN's dataflow (Table II row 9): column-granularity parallel
/// pipeline with Combination feeding Aggregation.
pub fn pp_ca_awb() -> Preset {
    Preset {
        name: "PPCA",
        distinguishing_property: "AWB-GCN: PP_CA(FsNtVs, GtFtVs), column granularity",
        pattern: parse("PP_CA(FsNtVs, GtFtVs)"),
        agg_policy: PhasePolicy::round_robin(&[Dim::F, Dim::V]),
        cmb_policy: PhasePolicy::round_robin(&[Dim::V, Dim::F]),
        tie_sp_tiles: false,
    }
}

#[cfg(test)]
mod ca_tests {
    use super::*;
    use crate::{validate, Granularity, PhaseOrder};

    fn cora_ctx() -> TileContext {
        TileContext::new(PhaseOrder::CA, 2708, 1433, 16, 5.0, 230)
    }

    #[test]
    fn ca_variants_concretize_and_validate() {
        for preset in ca_variants() {
            assert_eq!(preset.pattern.phase_order, PhaseOrder::CA);
            let (a, c) = preset.pattern.inter.pe_budgets(512);
            let df = preset.concretize(&cora_ctx(), a, c);
            assert!(validate(&df).is_ok(), "{}: {df}", preset.name);
            assert!(df.agg.pe_footprint() <= a);
            assert!(df.cmb.pe_footprint() <= c);
        }
    }

    #[test]
    fn awb_gcn_has_column_granularity() {
        let df = pp_ca_awb().concretize(&cora_ctx(), 256, 256);
        assert_eq!(df.granularity(), Some(Granularity::Column));
    }

    #[test]
    fn sp_ca_template_is_pipelinable() {
        let df = sp_ca().concretize(&cora_ctx(), 512, 512);
        // The row-2 CA template is an element-granularity pair.
        assert_eq!(df.granularity(), Some(Granularity::Element));
    }

    #[test]
    fn ca_agg_consumes_g_wide_rows() {
        // Under CA the aggregation's F extent is G = 16, so its F tile caps there.
        let df = seq_ca().concretize(&cora_ctx(), 512, 512);
        assert!(df.agg.tile_of(Dim::F) <= 16);
    }
}
