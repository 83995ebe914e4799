//! Cross-validation of the analytical model against the functional
//! simulator — the reproduction's analogue of the paper's chip
//! verification (Section VII-A): both implement the same row-stationary
//! mapping, so their measured access counts must agree on the exact
//! quantities and land in the same energy regime.

use eyeriss::prelude::*;

fn simulate(shape: &LayerShape, n: usize, config: AcceleratorConfig) -> eyeriss::sim::SimStats {
    let input = synth::ifmap(shape, n, 21);
    let weights = synth::filters(shape, 22);
    let bias = synth::biases(shape, 23);
    let mut chip = Accelerator::new(config);
    let run = chip
        .run_conv(shape, n, &input, &weights, &bias)
        .expect("mappable layer");
    // Functional correctness first: the counts only mean something if the
    // computation is right.
    let golden = reference::conv_accumulate(shape, n, &input, &weights, &bias);
    assert_eq!(run.psums, golden);
    run.stats
}

fn test_shapes() -> Vec<(LayerShape, usize)> {
    vec![
        // Shape-preserving shrinks of AlexNet layers (same R/U/E geometry).
        (LayerShape::conv(8, 3, 227, 11, 4).unwrap(), 1), // CONV1 geometry
        (LayerShape::conv(8, 6, 31, 5, 1).unwrap(), 2),   // CONV2 geometry
        (LayerShape::conv(12, 8, 15, 3, 1).unwrap(), 2),  // CONV3 geometry
        (LayerShape::fully_connected(24, 16, 6).unwrap(), 4), // FC1 geometry
    ]
}

/// Exact invariants shared by the model and simulator.
#[test]
fn exact_counts_agree() {
    let config = AcceleratorConfig::eyeriss_chip();
    for (shape, n) in test_shapes() {
        let stats = simulate(&shape, n, config);
        let macs = shape.macs(n) as f64;
        // Every MAC reads both operands from the RF under RS.
        assert_eq!(stats.profile.ifmap.rf_reads, macs);
        assert_eq!(stats.profile.filter.rf_reads, macs);
        // Exactly one DRAM write per ofmap value (Section VII-B).
        assert_eq!(stats.profile.psum.dram_writes, shape.ofmap_words(n) as f64);
        // Psum RF traffic: at most one read+write per MAC.
        assert!(stats.profile.psum.rf_reads <= macs);
        assert!(stats.profile.psum.rf_writes <= macs);
        // Each ifmap word enters the chip at least once.
        assert!(stats.profile.ifmap.dram_reads >= shape.ifmap_words(n) as f64);
        // Each filter word enters the chip at least once.
        assert!(stats.profile.filter.dram_reads >= shape.filter_words() as f64);
    }
}

/// The simulator's measured profile matches the analytical profile of the
/// *same* mapping within a modest tolerance (the analytical model charges
/// full-group aggregates; the simulator clamps partial groups exactly).
#[test]
fn access_profiles_track_the_analytical_model() {
    let config = AcceleratorConfig::eyeriss_chip();
    for (shape, n) in test_shapes() {
        let stats = simulate(&shape, n, config);
        let model = optimize(
            registry::builtin(DataflowKind::RowStationary),
            &LayerProblem::new(shape, n),
            &config,
            &TableIv,
            Objective::Energy,
        )
        .expect("feasible")
        .profile;
        // Compare per-level on-chip traffic within 2x (halo handling and
        // partial-group clamping differ slightly; orders of magnitude and
        // the energy regime must match).
        for (name, sim_v, model_v) in [
            (
                "ifmap buffer reads",
                stats.profile.ifmap.buffer_reads,
                model.ifmap.buffer_reads,
            ),
            (
                "ifmap array hops",
                stats.profile.ifmap.array_hops,
                model.ifmap.array_hops,
            ),
            (
                "filter array hops",
                stats.profile.filter.array_hops,
                model.filter.array_hops,
            ),
            (
                "psum array hops",
                stats.profile.psum.array_hops,
                model.psum.array_hops,
            ),
        ] {
            if model_v == 0.0 {
                continue;
            }
            let ratio = sim_v / model_v;
            assert!(
                (0.4..=2.5).contains(&ratio),
                "{name}: sim {sim_v:.3e} vs model {model_v:.3e} (ratio {ratio:.2}) for {shape:?}"
            );
        }
    }
}

/// The chip-verification headline: for CONV layers the RF consumes around
/// 4x the energy of the remaining on-chip levels, in both the model and
/// the simulator.
#[test]
fn rf_ratio_matches_chip_measurement() {
    let config = AcceleratorConfig::eyeriss_chip();
    // Enough filters and channels that both foldings (filter groups and
    // channel groups) exercise the buffer, as full AlexNet layers do.
    let shape = LayerShape::conv(96, 16, 15, 3, 1).unwrap();
    let stats = simulate(&shape, 1, config);
    let ratio = stats.rf_to_onchip_rest_ratio(&TableIv);
    // RF must dominate on-chip energy (the full-chip measurement is ~4:1;
    // shrunk layers land in the same regime, not the exact figure).
    assert!(ratio > 1.5, "RF does not dominate: ratio {ratio:.2}");
    // And the simulator must agree with the analytical model's ratio for
    // the same layer within 2x.
    let model = optimize(
        registry::builtin(DataflowKind::RowStationary),
        &LayerProblem::new(shape, 1),
        &config,
        &TableIv,
        Objective::Energy,
    )
    .expect("feasible")
    .profile;
    let model_ratio = TableIv.energy_at_level(&model, Level::Rf)
        / (TableIv.energy_at_level(&model, Level::Buffer)
            + TableIv.energy_at_level(&model, Level::Array));
    let agreement = ratio / model_ratio;
    assert!(
        (0.4..=2.5).contains(&agreement),
        "sim ratio {ratio:.2} vs model ratio {model_ratio:.2}"
    );
}

/// Simulated cycles respect the compute lower bound and utilization is a
/// valid fraction.
#[test]
fn cycle_counts_are_physical() {
    let config = AcceleratorConfig::eyeriss_chip();
    for (shape, n) in test_shapes() {
        let stats = simulate(&shape, n, config);
        let total_work = stats.macs + stats.skipped_macs;
        assert_eq!(total_work, shape.macs(n));
        assert!(stats.cycles as f64 >= total_work as f64 / 168.0);
        let util = stats.utilization(168);
        assert!(util > 0.0 && util <= 1.0, "utilization {util}");
    }
}
