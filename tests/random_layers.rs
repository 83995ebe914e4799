//! Property-based integration tests: for arbitrary valid layer shapes the
//! simulator must be bit-exact against the golden reference (which itself
//! is cross-checked against im2col+GEMM in `eyeriss-nn`), and every
//! dataflow's access counts must satisfy physical invariants.

use eyeriss::prelude::*;
use proptest::prelude::*;

fn arb_shape() -> impl Strategy<Value = LayerShape> {
    (1usize..6, 1usize..6, 0usize..8, 1usize..4, 1usize..3).prop_map(|(m, c, extra, r, u)| {
        let h = r + extra * u;
        LayerShape::conv(m, c, h, r, u).expect("constructed valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sim_matches_golden_on_arbitrary_shapes(
        shape in arb_shape(),
        n in 1usize..3,
        seed in 0u64..500,
    ) {
        let input = synth::ifmap(&shape, n, seed);
        let weights = synth::filters(&shape, seed + 1);
        let bias = synth::biases(&shape, seed + 2);
        let mut chip = Accelerator::new(AcceleratorConfig::eyeriss_chip());
        let run = chip.run_conv(&shape, n, &input, &weights, &bias).unwrap();
        let golden = reference::conv_accumulate(&shape, n, &input, &weights, &bias);
        prop_assert_eq!(run.psums, golden);
        prop_assert_eq!(run.stats.macs, shape.macs(n));
    }

    #[test]
    fn zero_gating_never_changes_results(
        shape in arb_shape(),
        sparsity in 0.0f64..0.95,
        seed in 0u64..500,
    ) {
        let input = synth::sparse_ifmap(&shape, 1, seed, sparsity);
        let weights = synth::filters(&shape, seed + 1);
        let bias = synth::biases(&shape, seed + 2);
        let mut plain = Accelerator::new(AcceleratorConfig::eyeriss_chip());
        let mut gated = Accelerator::new(AcceleratorConfig::eyeriss_chip())
            .zero_gating(true)
            .rlc(true);
        let a = plain.run_conv(&shape, 1, &input, &weights, &bias).unwrap();
        let b = gated.run_conv(&shape, 1, &input, &weights, &bias).unwrap();
        prop_assert_eq!(&a.psums, &b.psums);
        prop_assert_eq!(
            b.stats.macs + b.stats.skipped_macs,
            a.stats.macs + a.stats.skipped_macs
        );
    }

    #[test]
    fn every_dataflow_produces_physical_counts(
        shape in arb_shape(),
        n in 1usize..5,
    ) {
        for kind in DataflowKind::ALL {
            let df = registry::builtin(kind);
            let hw = df.comparison_hardware(256);
            for cand in df.enumerate(&LayerProblem::new(shape, n), &hw) {
                prop_assert!(cand.profile.is_valid(), "{kind}: invalid counts");
                prop_assert!(cand.active_pes >= 1 && cand.active_pes <= 256,
                    "{kind}: active {}", cand.active_pes);
                // ALU work is invariant across mappings.
                prop_assert_eq!(cand.profile.alu_ops, shape.macs(n) as f64);
                // Exactly one DRAM write per ofmap value.
                prop_assert_eq!(cand.profile.psum.dram_writes,
                    shape.ofmap_words(n) as f64);
                // Inputs enter the chip at least once each — unless the
                // stride exceeds the filter, which genuinely skips pixels.
                if shape.u <= shape.r {
                    prop_assert!(cand.profile.ifmap.dram_reads
                        >= shape.ifmap_words(n) as f64 * (1.0 - 1e-9));
                }
                prop_assert!(cand.profile.filter.dram_reads
                    >= shape.filter_words() as f64 * (1.0 - 1e-9));
                // Energy is at least the compute floor.
                prop_assert!(TableIv.energy_of(&cand.profile) >= shape.macs(n) as f64);
            }
        }
    }

    #[test]
    fn optimizer_returns_minimum_of_its_space(
        shape in arb_shape(),
        n in 1usize..4,
    ) {
        let rs = registry::builtin(DataflowKind::RowStationary);
        let hw = rs.comparison_hardware(256);
        let problem = LayerProblem::new(shape, n);
        let Some(best) = optimize(rs, &problem, &hw, &TableIv, Objective::Energy) else {
            return Ok(());
        };
        let best_energy = TableIv.energy_of(&best.profile);
        for cand in rs.enumerate(&problem, &hw) {
            prop_assert!(
                TableIv.energy_of(&cand.profile) >= best_energy * (1.0 - 1e-12)
                    // The utilization tie-break may pick a near-tied
                    // candidate within 10% of the optimum.
                    || best_energy <= TableIv.energy_of(&cand.profile) * 1.10
            );
        }
    }
}
