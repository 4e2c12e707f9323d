//! Inter-phase strategies, phase orders, and pipelining granularities.

use serde::{Deserialize, Serialize};

/// Inter-phase dataflow strategy (Section III-B, Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Deserialize, Serialize)]
pub enum InterPhase {
    /// `Seq` — phases run back-to-back; the whole `V×F` intermediate matrix is
    /// staged through the memory hierarchy.
    Sequential,
    /// `SP` — phase steps interleave over time on the same PEs. Covers both
    /// SP-Generic (intermediate staged through the global buffer at `Pel`
    /// granularity) and SP-Optimized (intermediate pinned in PE register files);
    /// which one applies is a property of the intra-phase pair, see
    /// [`GnnDataflow::is_sp_optimized`](crate::GnnDataflow::is_sp_optimized).
    SequentialPipeline,
    /// `PP` — the PE array is split into two concurrent engines connected by an
    /// intermediate ping-pong buffer.
    ParallelPipeline,
}

impl InterPhase {
    /// Short name used in dataflow strings (`Seq`, `SP`, `PP`).
    pub fn short(self) -> &'static str {
        match self {
            InterPhase::Sequential => "Seq",
            InterPhase::SequentialPipeline => "SP",
            InterPhase::ParallelPipeline => "PP",
        }
    }

    /// All three strategies.
    pub fn all() -> [InterPhase; 3] {
        [InterPhase::Sequential, InterPhase::SequentialPipeline, InterPhase::ParallelPipeline]
    }

    /// The `(aggregation, combination)` PE budgets on a `num_pes` array: PP
    /// splits the array 50-50 between its two concurrent engines, Seq and SP
    /// give each phase the whole array.
    pub fn pe_budgets(self, num_pes: usize) -> (usize, usize) {
        match self {
            InterPhase::ParallelPipeline => (num_pes / 2, num_pes / 2),
            _ => (num_pes, num_pes),
        }
    }
}

impl std::fmt::Display for InterPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short())
    }
}

/// Phase computation order: GCNs allow either phase first (Section II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Deserialize, Serialize)]
pub enum PhaseOrder {
    /// Aggregation → Combination: computes `(A·X0)·W`; intermediate is `V×F`.
    AC,
    /// Combination → Aggregation: computes `A·(X0·W)`; intermediate is `V×G`.
    CA,
}

impl PhaseOrder {
    /// Both orders.
    pub fn all() -> [PhaseOrder; 2] {
        [PhaseOrder::AC, PhaseOrder::CA]
    }

    /// Name as used in dataflow strings.
    pub fn short(self) -> &'static str {
        match self {
            PhaseOrder::AC => "AC",
            PhaseOrder::CA => "CA",
        }
    }
}

impl std::fmt::Display for PhaseOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.short())
    }
}

/// Granularity at which the intermediate matrix is pipelined between phases for
/// SP-Generic and PP (Section IV-D, Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Deserialize, Serialize)]
pub enum Granularity {
    /// Tiles of `T_V × T_F` elements (`Pel = T_Vmax · T_Fmax`).
    Element,
    /// Whole rows of the intermediate matrix (`Pel = T_Vmax · F`).
    Row,
    /// Whole columns of the intermediate matrix (`Pel = V · T_Fmax`).
    Column,
}

impl Granularity {
    /// Number of pipelined elements `Pel` for an intermediate of `rows × cols`,
    /// given the max tile sizes of the chunked dims across the two phases
    /// (Section IV-D; footnote 1 — we use `T_Dimmax`, with the larger tile
    /// required to be a multiple of the smaller).
    pub fn pel(self, rows: usize, cols: usize, t_row_max: usize, t_col_max: usize) -> usize {
        match self {
            Granularity::Element => t_row_max.min(rows) * t_col_max.min(cols),
            Granularity::Row => t_row_max.min(rows) * cols,
            Granularity::Column => rows * t_col_max.min(cols),
        }
    }
}

impl std::fmt::Display for Granularity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Granularity::Element => "element",
            Granularity::Row => "row",
            Granularity::Column => "column",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_names() {
        assert_eq!(InterPhase::Sequential.to_string(), "Seq");
        assert_eq!(InterPhase::SequentialPipeline.to_string(), "SP");
        assert_eq!(InterPhase::ParallelPipeline.to_string(), "PP");
        assert_eq!(PhaseOrder::AC.to_string(), "AC");
        assert_eq!(PhaseOrder::CA.to_string(), "CA");
    }

    #[test]
    fn pel_formulas_match_table_iii() {
        // Intermediate 100×64, T_Vmax = 8, T_Fmax = 4.
        assert_eq!(Granularity::Element.pel(100, 64, 8, 4), 32);
        assert_eq!(Granularity::Row.pel(100, 64, 8, 4), 8 * 64);
        assert_eq!(Granularity::Column.pel(100, 64, 8, 4), 100 * 4);
    }

    #[test]
    fn pel_clamps_to_matrix_extents() {
        assert_eq!(Granularity::Element.pel(2, 3, 8, 4), 6);
        assert_eq!(Granularity::Row.pel(2, 3, 8, 4), 6);
        assert_eq!(Granularity::Column.pel(2, 3, 8, 4), 6);
    }

    #[test]
    fn enumerations() {
        assert_eq!(InterPhase::all().len(), 3);
        assert_eq!(PhaseOrder::all().len(), 2);
    }
}
