//! Complete GNN dataflow descriptors: `<Inter><order>(<AggIntra>, <CmbIntra>)`.

use serde::{Deserialize, Serialize};

use crate::granularity::pipeline_granularity;
use crate::{
    Dim, Granularity, InterPhase, IntraPattern, IntraTiling, LoopOrder, MappingSpec, Phase,
    PhaseOrder,
};

/// A dataflow *pattern*: inter-phase strategy, phase order, and one intra-phase
/// pattern per phase — the exact shape of the rows of Tables II and V, including
/// `x` ("either") mapping placeholders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize, Serialize)]
pub struct GnnDataflowPattern {
    /// Inter-phase strategy.
    pub inter: InterPhase,
    /// Phase computation order.
    pub phase_order: PhaseOrder,
    /// Aggregation intra-phase pattern.
    pub agg: IntraPattern,
    /// Combination intra-phase pattern.
    pub cmb: IntraPattern,
}

impl GnnDataflowPattern {
    /// Pipelining granularity implied by the loop orders, if the pair can pipeline.
    pub fn granularity(&self) -> Option<Granularity> {
        pipeline_granularity(self.phase_order, self.agg.order(), self.cmb.order())
    }

    /// `true` when `df` instantiates this pattern.
    pub fn admits(&self, df: &GnnDataflow) -> bool {
        self.inter == df.inter
            && self.phase_order == df.phase_order
            && self.agg.admits(&df.agg)
            && self.cmb.admits(&df.cmb)
    }
}

impl std::fmt::Display for GnnDataflowPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}_{}({}, {})", self.inter, self.phase_order, self.agg, self.cmb)
    }
}

/// A concrete GNN dataflow: inter-phase strategy, phase order, and a concrete
/// tiling per phase. This is the unit the OMEGA cost model evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Deserialize, Serialize)]
pub struct GnnDataflow {
    /// Inter-phase strategy.
    pub inter: InterPhase,
    /// Phase computation order.
    pub phase_order: PhaseOrder,
    /// Aggregation tiling.
    pub agg: IntraTiling,
    /// Combination tiling.
    pub cmb: IntraTiling,
}

impl GnnDataflow {
    /// Pipelining granularity implied by the loop orders, if any.
    pub fn granularity(&self) -> Option<Granularity> {
        pipeline_granularity(self.phase_order, self.agg.order(), self.cmb.order())
    }

    /// `true` when this dataflow satisfies the SP-Optimized conditions of Table II
    /// row 2 / Section IV-B:
    ///
    /// * inter-phase strategy is SP;
    /// * the loop-order pair is `(VFN, VFG)` / `(FVN, FVG)` for AC, or
    ///   `(NFV, VGF)` / `(FNV, GVF)` for CA;
    /// * the first phase's reduction is temporal (`T_N = 1` for AC) so the
    ///   accumulated tile stays in the PE registers;
    /// * the intermediate-tile dimensions are tiled identically in both phases
    ///   (`T_V_AGG = T_V_CMB`, `T_F_AGG = T_F_CMB` for AC).
    pub fn is_sp_optimized(&self) -> bool {
        if self.inter != InterPhase::SequentialPipeline {
            return false;
        }
        let a = self.agg.order().dims();
        let c = self.cmb.order().dims();
        match self.phase_order {
            PhaseOrder::AC => {
                let template_ok = (a == [Dim::V, Dim::F, Dim::N] && c == [Dim::V, Dim::F, Dim::G])
                    || (a == [Dim::F, Dim::V, Dim::N] && c == [Dim::F, Dim::V, Dim::G]);
                template_ok
                    && self.agg.tile_of(Dim::N) == 1
                    && self.cmb.tile_of(Dim::G) == 1
                    && self.agg.tile_of(Dim::V) == self.cmb.tile_of(Dim::V)
                    && self.agg.tile_of(Dim::F) == self.cmb.tile_of(Dim::F)
            }
            PhaseOrder::CA => {
                let template_ok = (a == [Dim::N, Dim::F, Dim::V] && c == [Dim::V, Dim::G, Dim::F])
                    || (a == [Dim::F, Dim::N, Dim::V] && c == [Dim::G, Dim::V, Dim::F]);
                // Producer (Combination) reduction temporal; consumer free dim
                // temporal; intermediate tile dims tied via V↔N, G↔F.
                template_ok
                    && self.cmb.tile_of(Dim::F) == 1
                    && self.agg.tile_of(Dim::V) == 1
                    && self.cmb.tile_of(Dim::V) == self.agg.tile_of(Dim::N)
                    && self.cmb.tile_of(Dim::G) == self.agg.tile_of(Dim::F)
            }
        }
    }

    /// Total PE footprint: for Seq and SP the phases time-share the array (max of
    /// the two); for PP they occupy disjoint partitions (sum).
    pub fn pe_footprint(&self) -> usize {
        match self.inter {
            InterPhase::ParallelPipeline => self.agg.pe_footprint() + self.cmb.pe_footprint(),
            _ => self.agg.pe_footprint().max(self.cmb.pe_footprint()),
        }
    }

    /// The pattern this concrete dataflow instantiates.
    pub fn to_pattern(&self) -> GnnDataflowPattern {
        GnnDataflowPattern {
            inter: self.inter,
            phase_order: self.phase_order,
            agg: self.agg.to_pattern(),
            cmb: self.cmb.to_pattern(),
        }
    }

    /// Tile sizes in the figure-caption convention
    /// `(T_V_AGG, T_N, T_F_AGG, T_V_CMB, T_G, T_F_CMB)`.
    pub fn tile_tuple(&self) -> (usize, usize, usize, usize, usize, usize) {
        (
            self.agg.tile_of(Dim::V),
            self.agg.tile_of(Dim::N),
            self.agg.tile_of(Dim::F),
            self.cmb.tile_of(Dim::V),
            self.cmb.tile_of(Dim::G),
            self.cmb.tile_of(Dim::F),
        )
    }
}

impl std::fmt::Display for GnnDataflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}_{}({}, {})", self.inter, self.phase_order, self.agg, self.cmb)
    }
}

/// Error from parsing a dataflow string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid dataflow string: {}", self.detail)
    }
}

impl std::error::Error for ParseError {}

fn err(detail: impl Into<String>) -> ParseError {
    ParseError { detail: detail.into() }
}

impl std::str::FromStr for GnnDataflowPattern {
    type Err = ParseError;

    /// Parses the paper's template syntax, tolerating `_`, `-`, and whitespace
    /// between the components: `PP_AC(VtFsNt, VsGsFt)`, `SPAC(VxFsNt,VxFsGx)`,
    /// `Seq-CA(NFV..., ...)` all work.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let compact: String = s.chars().filter(|c| !c.is_whitespace() && *c != '_' && *c != '-').collect();
        let open = compact.find('(').ok_or_else(|| err("missing '('"))?;
        if !compact.ends_with(')') {
            return Err(err("missing trailing ')'"));
        }
        let head = &compact[..open];
        let body = &compact[open + 1..compact.len() - 1];

        let (inter, rest) = if let Some(r) = head.strip_prefix("Seq") {
            (InterPhase::Sequential, r)
        } else if let Some(r) = head.strip_prefix("SP") {
            (InterPhase::SequentialPipeline, r)
        } else if let Some(r) = head.strip_prefix("PP") {
            (InterPhase::ParallelPipeline, r)
        } else {
            return Err(err(format!("unknown inter-phase prefix in '{head}'")));
        };
        let phase_order = match rest {
            "AC" => PhaseOrder::AC,
            "CA" => PhaseOrder::CA,
            other => return Err(err(format!("unknown phase order '{other}'"))),
        };

        let mut parts = body.split(',');
        let agg_s = parts.next().ok_or_else(|| err("missing aggregation dataflow"))?;
        let cmb_s = parts.next().ok_or_else(|| err("missing combination dataflow"))?;
        if parts.next().is_some() {
            return Err(err("too many comma-separated parts"));
        }
        let agg = parse_intra(Phase::Aggregation, agg_s)?;
        let cmb = parse_intra(Phase::Combination, cmb_s)?;
        Ok(GnnDataflowPattern { inter, phase_order, agg, cmb })
    }
}

fn parse_intra(phase: Phase, s: &str) -> Result<IntraPattern, ParseError> {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() != 6 {
        return Err(err(format!("intra-phase dataflow '{s}' must be 6 characters (DimMap x3)")));
    }
    let mut dims = [Dim::V; 3];
    let mut maps = [MappingSpec::Any; 3];
    for i in 0..3 {
        dims[i] = Dim::from_letter(chars[2 * i])
            .ok_or_else(|| err(format!("bad dimension letter '{}'", chars[2 * i])))?;
        maps[i] = MappingSpec::from_letter(chars[2 * i + 1])
            .ok_or_else(|| err(format!("bad mapping letter '{}'", chars[2 * i + 1])))?;
    }
    let order = LoopOrder::new(phase, dims)
        .ok_or_else(|| err(format!("'{s}' is not a permutation of the {phase} dims")))?;
    Ok(IntraPattern::new(phase, order, maps))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> GnnDataflowPattern {
        s.parse().unwrap()
    }

    #[test]
    fn parses_hygcn_dataflow() {
        // Section III-C: HyGCN is PP_AC(VxFsNt, VsGsFt).
        let p = parse("PP_AC(VxFsNt, VsGsFt)");
        assert_eq!(p.inter, InterPhase::ParallelPipeline);
        assert_eq!(p.phase_order, PhaseOrder::AC);
        assert_eq!(p.agg.to_string(), "VxFsNt");
        assert_eq!(p.cmb.to_string(), "VsGsFt");
        assert_eq!(p.granularity(), Some(Granularity::Row));
    }

    #[test]
    fn parses_awb_gcn_dataflow() {
        // Section III / Table II row 9: AWB-GCN is PP_CA(FsNtVs, GtFtVs).
        let p = parse("PP_CA(FsNtVs, GtFtVs)");
        assert_eq!(p.phase_order, PhaseOrder::CA);
        assert_eq!(p.granularity(), Some(Granularity::Column));
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "Seq_AC(VxFxNt, VxGxFx)",
            "SP_AC(VxFsNt, VxFsGx)",
            "PP_CA(FxVxNx, GxFxVx)",
            "Seq_CA(NtFsVt, VsGsFt)",
        ] {
            let p = parse(s);
            let canonical = p.to_string();
            assert_eq!(parse(&canonical), p, "{s} → {canonical}");
        }
    }

    #[test]
    fn tolerant_syntax_variants() {
        assert_eq!(parse("PPAC(VtFsNt,VsGsFt)"), parse("PP_AC(VtFsNt, VsGsFt)"));
        assert_eq!(parse("PP-AC( Vt Fs Nt , Vs Gs Ft )"), parse("PP_AC(VtFsNt, VsGsFt)"));
    }

    #[test]
    fn parse_errors_are_descriptive() {
        assert!("XX_AC(VtFsNt, VsGsFt)".parse::<GnnDataflowPattern>().is_err());
        assert!("PP_AB(VtFsNt, VsGsFt)".parse::<GnnDataflowPattern>().is_err());
        assert!("PP_AC(VtFsGt, VsGsFt)".parse::<GnnDataflowPattern>().is_err()); // G in agg
        assert!("PP_AC(VtFsNt)".parse::<GnnDataflowPattern>().is_err());
        assert!("PP_AC(VtFsNt, VsGsFt, VsGsFt)".parse::<GnnDataflowPattern>().is_err());
        assert!("PP_AC(VtFs, VsGsFt)".parse::<GnnDataflowPattern>().is_err());
        assert!("PP_AC VtFsNt, VsGsFt".parse::<GnnDataflowPattern>().is_err());
        assert!("PP_AC(VqFsNt, VsGsFt)".parse::<GnnDataflowPattern>().is_err());
        assert!("PP_AC(VtVsNt, VsGsFt)".parse::<GnnDataflowPattern>().is_err()); // V twice
    }

    fn tiling(phase: Phase, s: &str, tiles: [usize; 3]) -> IntraTiling {
        let dims: Vec<Dim> = s.chars().map(|c| Dim::from_letter(c).unwrap()).collect();
        IntraTiling::new(phase, LoopOrder::new(phase, [dims[0], dims[1], dims[2]]).unwrap(), tiles)
    }

    #[test]
    fn sp_optimized_detection_ac() {
        let good = GnnDataflow {
            inter: InterPhase::SequentialPipeline,
            phase_order: PhaseOrder::AC,
            agg: tiling(Phase::Aggregation, "VFN", [4, 8, 1]),
            cmb: tiling(Phase::Combination, "VFG", [4, 8, 1]),
        };
        assert!(good.is_sp_optimized());

        // Spatial N breaks the in-register accumulation.
        let spatial_n = GnnDataflow { agg: tiling(Phase::Aggregation, "VFN", [4, 8, 2]), ..good };
        assert!(!spatial_n.is_sp_optimized());

        // Mismatched tile sizes break the in-place reuse.
        let mismatched = GnnDataflow { cmb: tiling(Phase::Combination, "VFG", [8, 8, 1]), ..good };
        assert!(!mismatched.is_sp_optimized());

        // Wrong loop order pair.
        let wrong_order = GnnDataflow { cmb: tiling(Phase::Combination, "VGF", [4, 1, 8]), ..good };
        assert!(!wrong_order.is_sp_optimized());

        // PP never qualifies.
        let pp = GnnDataflow { inter: InterPhase::ParallelPipeline, ..good };
        assert!(!pp.is_sp_optimized());
    }

    #[test]
    fn sp_optimized_detection_ca() {
        let good = GnnDataflow {
            inter: InterPhase::SequentialPipeline,
            phase_order: PhaseOrder::CA,
            agg: tiling(Phase::Aggregation, "NFV", [8, 4, 1]),
            cmb: tiling(Phase::Combination, "VGF", [8, 4, 1]),
        };
        assert!(good.is_sp_optimized());
        let bad = GnnDataflow { cmb: tiling(Phase::Combination, "VGF", [8, 4, 2]), ..good };
        assert!(!bad.is_sp_optimized());
    }

    #[test]
    fn pe_footprint_by_inter_phase() {
        let agg = tiling(Phase::Aggregation, "VFN", [8, 4, 1]);
        let cmb = tiling(Phase::Combination, "VGF", [16, 4, 1]);
        let seq = GnnDataflow { inter: InterPhase::Sequential, phase_order: PhaseOrder::AC, agg, cmb };
        assert_eq!(seq.pe_footprint(), 64);
        let pp = GnnDataflow { inter: InterPhase::ParallelPipeline, ..seq };
        assert_eq!(pp.pe_footprint(), 32 + 64);
    }

    #[test]
    fn tile_tuple_convention() {
        let df = GnnDataflow {
            inter: InterPhase::Sequential,
            phase_order: PhaseOrder::AC,
            agg: tiling(Phase::Aggregation, "VFN", [8, 4, 2]),
            cmb: tiling(Phase::Combination, "VGF", [16, 4, 1]),
        };
        // (T_V_AGG, T_N, T_F_AGG, T_V_CMB, T_G, T_F_CMB)
        assert_eq!(df.tile_tuple(), (8, 2, 4, 16, 4, 1));
    }

    #[test]
    fn pattern_admits_concrete_dataflow() {
        let pattern: GnnDataflowPattern = "SP_AC(VxFsNt, VxFsGx)".parse().unwrap();
        let df = GnnDataflow {
            inter: InterPhase::SequentialPipeline,
            phase_order: PhaseOrder::AC,
            agg: tiling(Phase::Aggregation, "VFN", [4, 64, 1]),
            cmb: tiling(Phase::Combination, "VFG", [4, 64, 1]),
        };
        assert!(pattern.admits(&df));
        assert_eq!(df.to_pattern().to_string(), "SP_AC(VsFsNt, VsFsGt)");
    }
}
