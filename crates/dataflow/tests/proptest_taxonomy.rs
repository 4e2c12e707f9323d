//! Property tests for the taxonomy: tile chooser, parser, legality, presets.

use proptest::prelude::*;

use omega_dataflow::presets::Preset;
use omega_dataflow::tiles::{choose_tiling, Cap, PhasePolicy, TileContext};
use omega_dataflow::{
    validate_pattern, Dim, GnnDataflowPattern, IntraPattern, LoopOrder, MappingSpec,
    Phase, PhaseOrder,
};

fn arb_context() -> impl Strategy<Value = TileContext> {
    (
        1usize..5000,  // v
        1usize..4096,  // f
        1usize..256,   // g
        1.0f64..80.0,  // mean degree
        1usize..512,   // max degree
    )
        .prop_map(|(v, f, g, mean, max)| {
            TileContext::new(PhaseOrder::AC, v, f, g, mean.min(max as f64), max.max(mean as usize))
        })
}

fn arb_pattern(phase: Phase) -> impl Strategy<Value = IntraPattern> {
    (0usize..6, 0usize..3, 0usize..3, 0usize..3).prop_map(move |(oi, m0, m1, m2)| {
        let order = LoopOrder::all(phase)[oi];
        let spec = |m: usize| match m {
            0 => MappingSpec::Spatial,
            1 => MappingSpec::Temporal,
            _ => MappingSpec::Any,
        };
        IntraPattern::new(phase, order, [spec(m0), spec(m1), spec(m2)])
    })
}

fn arb_policy() -> impl Strategy<Value = PhasePolicy> {
    (proptest::collection::vec(0usize..4, 1..4), proptest::bool::ANY).prop_map(|(dims, rr)| {
        let dim = |i: usize| [Dim::V, Dim::F, Dim::N, Dim::G][i];
        let dims: Vec<Dim> = dims.into_iter().map(dim).collect();
        let p = if rr { PhasePolicy::round_robin(&dims) } else { PhasePolicy::greedy(&dims) };
        p.with_cap(Dim::N, Cap::MeanDegreePow2)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tile chooser never exceeds the PE budget and never produces a tile
    /// beyond a dimension's extent (pow2-rounded).
    #[test]
    fn chooser_respects_budget_and_extents(
        ctx in arb_context(),
        pattern in arb_pattern(Phase::Aggregation),
        policy in arb_policy(),
        budget_log in 0u32..12,
    ) {
        let budget = 1usize << budget_log;
        let t = choose_tiling(&pattern, &ctx, budget, &policy);
        prop_assert!(t.pe_footprint() <= budget.max(2), "{t}: {} > {budget}", t.pe_footprint());
        for (i, &d) in t.order().dims().iter().enumerate() {
            let extent = ctx.extent(Phase::Aggregation, d).max(1);
            prop_assert!(
                t.tiles()[i] <= extent.next_power_of_two(),
                "{t}: tile {} of {d} vs extent {extent}", t.tiles()[i]
            );
        }
        // Temporal-pinned dims stay 1.
        for (i, m) in pattern.maps().iter().enumerate() {
            if *m == MappingSpec::Temporal {
                prop_assert_eq!(t.tiles()[i], 1);
            }
        }
    }

    /// Chooser output is deterministic.
    #[test]
    fn chooser_is_deterministic(
        ctx in arb_context(),
        pattern in arb_pattern(Phase::Combination),
        policy in arb_policy(),
    ) {
        let a = choose_tiling(&pattern, &ctx, 512, &policy);
        let b = choose_tiling(&pattern, &ctx, 512, &policy);
        prop_assert_eq!(a, b);
    }

    /// Every enumerated pattern's string form parses back to itself.
    #[test]
    fn pattern_strings_round_trip(idx in 0usize..6656) {
        let patterns: Vec<_> = omega_dataflow::enumerate::all_patterns().collect();
        let p = patterns[idx % patterns.len()];
        let s = p.to_string();
        let parsed: GnnDataflowPattern = s.parse().unwrap();
        prop_assert_eq!(parsed, p);
        prop_assert!(validate_pattern(&parsed).is_ok());
    }

    /// Granularity is a function of the loop orders alone: mapping specs never
    /// change it.
    #[test]
    fn granularity_ignores_mappings(
        agg in arb_pattern(Phase::Aggregation),
        cmb in arb_pattern(Phase::Combination),
        phase_order_ac in proptest::bool::ANY,
    ) {
        let phase_order = if phase_order_ac { PhaseOrder::AC } else { PhaseOrder::CA };
        let g1 = omega_dataflow::granularity::pipeline_granularity(phase_order, agg.order(), cmb.order());
        let all_any = |p: &IntraPattern| IntraPattern::new(p.phase(), p.order(), [MappingSpec::Any; 3]);
        let g2 = omega_dataflow::granularity::pipeline_granularity(
            phase_order,
            all_any(&agg).order(),
            all_any(&cmb).order(),
        );
        prop_assert_eq!(g1, g2);
    }

    /// Preset concretisation always yields a legal dataflow admitted by its own
    /// pattern, at any budget and workload size.
    #[test]
    fn presets_concretize_legally(
        ctx in arb_context(),
        preset_idx in 0usize..9,
        budget_log in 2u32..12,
    ) {
        let preset = &Preset::all()[preset_idx];
        let budget = 1usize << budget_log;
        let (a, c) = preset.pattern.inter.pe_budgets(budget);
        let df = preset.concretize(&ctx, a.max(1), c.max(1));
        prop_assert!(omega_dataflow::validate(&df).is_ok(), "{df}");
        prop_assert!(df.agg.pe_footprint() <= a.max(2), "{df}");
        prop_assert!(df.cmb.pe_footprint() <= c.max(2), "{df}");
        // SP presets stay SP-Optimized at every scale.
        if preset.name.starts_with("SP") {
            prop_assert!(df.is_sp_optimized(), "{}: {df}", preset.name);
        }
    }
}
