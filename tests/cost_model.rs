//! Acceptance tests of the cost layer:
//!
//! 1. Proptests that every figure a [`CostReport`] carries under the
//!    canonical [`TableIv`] model equals the `CostModel` method that
//!    prices it alone (`energy_of`, `energy_at_level`, `energy_of_type`,
//!    `delay_of`) **bit for bit**, and that each energy cell is the count
//!    times the Table IV cost — on arbitrary profiles and on real
//!    searched mappings.
//! 2. Plan-cache keys carry the pricing model's fingerprint: compilers
//!    under models with distinct fingerprints never share cache entries.
//! 3. Table IV prices pinned as bit patterns.

use eyeriss::arch::{AccessCounts, LayerAccessProfile};
use eyeriss::prelude::*;
use eyeriss::Objective;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_counts() -> impl Strategy<Value = AccessCounts> {
    let f = 0.0..1e12f64;
    (
        f.clone(),
        f.clone(),
        f.clone(),
        f.clone(),
        f.clone(),
        f.clone(),
        f,
    )
        .prop_map(|(dr, dw, br, bw, hops, rr, rw)| AccessCounts {
            dram_reads: dr,
            dram_writes: dw,
            buffer_reads: br,
            buffer_writes: bw,
            array_hops: hops,
            rf_reads: rr,
            rf_writes: rw,
        })
}

fn arb_profile() -> impl Strategy<Value = LayerAccessProfile> {
    (arb_counts(), arb_counts(), arb_counts(), 0.0..1e12f64).prop_map(
        |(ifmap, filter, psum, alu)| {
            let mut p = LayerAccessProfile::new();
            p.ifmap = ifmap;
            p.filter = filter;
            p.psum = psum;
            p.alu_ops = alu;
            p
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On arbitrary profiles, every energy figure the unified report
    /// produces under TableIv equals the per-figure methods bit for bit
    /// — totals, per-level stacks, per-data-type stacks — and each cell
    /// is the count times the Table IV cost.
    #[test]
    fn table_iv_reports_are_bit_identical_to_the_energy_model_path(
        profile in arb_profile(),
        active_pes in 1usize..1024,
    ) {
        let em = EnergyModel::table_iv();
        let report = TableIv.report(&profile, active_pes);
        for ty in DataType::ALL {
            for level in Level::ALL {
                prop_assert_eq!(
                    report.energy_cell(ty, level).to_bits(),
                    (profile.of(ty).at_level(level) * em.cost(level)).to_bits(),
                    "cell {} at {}", ty.label(), level
                );
            }
        }
        prop_assert_eq!(
            report.total_energy.to_bits(),
            TableIv.energy_of(&profile).to_bits(),
            "total energy"
        );
        for level in Level::ALL {
            prop_assert_eq!(
                report.energy_at(level).to_bits(),
                TableIv.energy_at_level(&profile, level).to_bits(),
                "level {}", level
            );
        }
        for ty in DataType::ALL {
            prop_assert_eq!(
                report.energy_of(ty).to_bits(),
                TableIv.energy_of_type(&profile, ty).to_bits(),
                "type {}", ty.label()
            );
        }
        // The canonical model is latency-transparent: the analytic delay
        // is exactly the Section VII-B compute proxy.
        prop_assert_eq!(report.delay, profile.alu_ops / active_pes as f64);
        prop_assert_eq!(
            TableIv.delay_of(&profile, active_pes).to_bits(),
            report.delay.to_bits()
        );
    }

    /// On real searched mappings (all six dataflows), the winner's
    /// energy and its report agree bit-exactly, and the cluster planner's
    /// recorded energy equals the per-tile summation.
    #[test]
    fn searched_mappings_price_identically(
        m in 2usize..10,
        c in 1usize..5,
        n in 1usize..4,
    ) {
        let shape = LayerShape::conv(m, c, 13, 3, 2).expect("valid");
        let problem = LayerProblem::new(shape, n);
        for df in DataflowRegistry::builtin().iter() {
            let hw = df.comparison_hardware(256);
            let Some(best) = optimize(df.as_ref(), &problem, &hw, &TableIv, Objective::Energy)
            else {
                continue;
            };
            prop_assert_eq!(
                TableIv.energy_of(&best.profile).to_bits(),
                TableIv.report(&best.profile, best.active_pes).total_energy.to_bits(),
                "{} report", df.id()
            );
        }
        // Cluster planning: the plan's energy is the per-tile sum.
        let hw = AcceleratorConfig::eyeriss_chip();
        if let Some(plan) = plan_layer(
            registry::builtin(DataflowKind::RowStationary),
            &problem,
            2,
            &hw,
            &TableIv,
            &SharedDram::scaled(2),
            Objective::EnergyDelayProduct,
        ) {
            let tile_sum: f64 = plan
                .per_array
                .iter()
                .map(|a| {
                    a.tiles
                        .iter()
                        .map(|t| TableIv.energy_of(&t.mapping.profile))
                        .sum::<f64>()
                })
                .sum();
            prop_assert_eq!(plan.energy.to_bits(), tile_sum.to_bits());
            prop_assert_eq!(plan.cost, TableIv.descriptor());
        }
    }
}

/// Compilers priced under models with distinct fingerprints — even two
/// sharing one label — never share plan-cache entries; equal
/// fingerprints under one label do.
#[test]
fn distinct_fingerprints_never_cross_hit_the_cache() {
    let hw = AcceleratorConfig {
        grid: GridDims::new(6, 8),
        rf_bytes_per_pe: 512.0,
        buffer_bytes: 32.0 * 1024.0,
    };
    let shape = LayerShape::conv(8, 3, 13, 3, 2).unwrap();
    let cache = Arc::new(PlanCache::new());

    let a = CostModel::new("scenario", EnergyModel::table_iv());
    let b = CostModel::new(
        "scenario",
        EnergyModel::new(400.0, 6.0, 2.0, 1.0, 1.0).unwrap(),
    );
    let a_again = CostModel::new("scenario", EnergyModel::table_iv());

    for cost in [a, b] {
        PlanCompiler::new(2, hw)
            .with_cost_model(cost)
            .with_cache(Arc::clone(&cache))
            .compile_layer(&shape, 2)
            .unwrap();
    }
    assert_eq!(cache.len(), 2, "distinct fingerprints → distinct entries");
    assert_eq!(cache.stats().hits, 0, "no cross-hits");

    PlanCompiler::new(2, hw)
        .with_cost_model(a_again)
        .with_cache(Arc::clone(&cache))
        .compile_layer(&shape, 2)
        .unwrap();
    assert_eq!(cache.len(), 2, "equal fingerprint re-uses the entry");
    assert_eq!(cache.stats().hits, 1, "identical model hits");
}

/// The typed construction error of the paper's hierarchy invariant
/// (Section II): callers get a `Result`, never a panic.
#[test]
fn unordered_cost_tables_are_typed_errors() {
    assert!(matches!(
        EnergyModel::new(1.0, 6.0, 2.0, 1.0, 1.0),
        Err(CostModelError::UnorderedHierarchy { .. })
    ));
    assert!(matches!(
        EnergyModel::new(200.0, 6.0, 2.0, -1.0, 1.0),
        Err(CostModelError::InvalidCost { .. })
    ));
    let em = EnergyModel::new(200.0, 6.0, 2.0, 1.0, 1.0).unwrap();
    assert_eq!(em, EnergyModel::table_iv());
}

/// A profile with counts at every level and data type.
fn pin_sample() -> LayerAccessProfile {
    let mut p = LayerAccessProfile::new();
    p.ifmap = AccessCounts {
        dram_reads: 10.0,
        buffer_reads: 100.0,
        array_hops: 300.0,
        rf_reads: 1000.0,
        ..AccessCounts::default()
    };
    p.filter = AccessCounts {
        dram_reads: 3.0,
        rf_reads: 700.0,
        rf_writes: 11.0,
        ..AccessCounts::default()
    };
    p.psum = AccessCounts {
        dram_writes: 5.0,
        buffer_writes: 40.0,
        rf_reads: 900.0,
        rf_writes: 900.0,
        ..AccessCounts::default()
    };
    p.alu_ops = 4321.0;
    p
}

/// Table IV prices, pinned as IEEE-754 bit patterns: every cell of one
/// report, the Energy winner of each of the six dataflows on AlexNet
/// CONV1–5 at N = 1 and 16 on the 256-PE comparison hardware, and one
/// 2-array RS cluster plan. A change to a count or to the pricing
/// arithmetic moves one of these bits.
#[test]
fn table_iv_prices_are_pinned() {
    let r = TableIv.report(&pin_sample(), 123);
    for (ty, row) in DataType::ALL.into_iter().zip(PINNED_CELLS) {
        for (level, bits) in Level::ALL.into_iter().zip(row) {
            let cell = r.energy_cell(ty, level).to_bits();
            assert_eq!(cell, bits, "{} at {level}", ty.label());
        }
    }
    let delay_bits = 0x404190a6810a6811; // 4321 MACs / 123 PEs
    for (level, bits) in Level::ALL.into_iter().zip([0, 0, 0, 0, delay_bits]) {
        let transfer = r.transfer_delay_at(level).to_bits();
        assert_eq!(transfer, bits, "transfer at {level}");
    }
    assert_eq!(r.alu_energy.to_bits(), 0x40b0e10000000000);
    assert_eq!(r.total_energy.to_bits(), 0x40c9240000000000);
    assert_eq!(r.compute_delay.to_bits(), delay_bits);
    assert_eq!(r.delay.to_bits(), delay_bits);
    let fingerprint = TableIv.fingerprint();
    assert_eq!(fingerprint.energy_bits, PINNED_COSTS);
    assert_eq!(fingerprint.bandwidth_bits, [f64::INFINITY.to_bits(); 5]);

    let registry = DataflowRegistry::builtin();
    assert_eq!(registry.len(), PINNED_WINNERS.len());
    for (df, (label, pinned)) in registry.iter().zip(PINNED_WINNERS) {
        assert_eq!(df.id().label(), label, "registry order");
        let hw = df.comparison_hardware(256);
        let problems = alexnet::conv_layers()
            .into_iter()
            .flat_map(|l| [1, 16].map(|n| LayerProblem::new(l.shape, n)));
        for (problem, bits) in problems.zip(pinned) {
            let best = optimize(df.as_ref(), &problem, &hw, &TableIv, Objective::Energy)
                .unwrap_or_else(|| panic!("{label} maps {problem:?}"));
            let energy = TableIv.energy_of(&best.profile).to_bits();
            assert_eq!(energy, bits, "{label} {problem:?}");
        }
    }

    let conv3 = alexnet::conv_layers()[2].shape;
    let plan = plan_layer(
        registry::builtin(DataflowKind::RowStationary),
        &LayerProblem::new(conv3, 16),
        2,
        &AcceleratorConfig::eyeriss_chip(),
        &TableIv,
        &SharedDram::scaled(2),
        Objective::EnergyDelayProduct,
    )
    .expect("CONV3 plans on two arrays");
    assert_eq!(plan.energy.to_bits(), 0x420db97100000000);
    assert_eq!(plan.delay.to_bits(), 0x415b292492492492);
}

/// Table IV's per-level costs, [`Level::ALL`] order.
const PINNED_COSTS: [u64; 5] = [
    0x4069000000000000, // 200
    0x4018000000000000, // 6
    0x4000000000000000, // 2
    0x3ff0000000000000, // 1
    0x3ff0000000000000, // 1
];

/// `TableIv.report(&pin_sample(), 123)` energy cells: rows in
/// [`DataType::ALL`] order, columns in [`Level::ALL`] order.
#[rustfmt::skip]
const PINNED_CELLS: [[u64; 5]; 3] = [
    [0x409f400000000000, 0x4082c00000000000, 0x4082c00000000000, 0x408f400000000000, 0],
    [0x4082c00000000000, 0, 0, 0x4086380000000000, 0],
    [0x408f400000000000, 0x406e000000000000, 0, 0x409c200000000000, 0],
];

/// Energy of each dataflow's Energy winner, in registry order, on AlexNet
/// CONV1 N=1, CONV1 N=16, CONV2 N=1, ..., CONV5 N=16.
#[rustfmt::skip]
const PINNED_WINNERS: [(&str, [u64; 10]); 6] = [
    ("RS", [0x41c40875bc000000, 0x4203b16344000000, 0x41d441f800000000, 0x4213612800000000, 0x41d18e1aa0000000,
          0x420edcb900000000, 0x41c9edd580000000, 0x4205fac080000000, 0x41bdfa4200000000, 0x41fd4e5600000000]),
    ("WS", [0x41ec039a34000000, 0x422bf6f3eac00000, 0x41daea7108000000, 0x421a0b6b48000000, 0x41d587e280000000,
          0x4213059480000000, 0x41d0318c80000000, 0x420c9fa400000000, 0x41c5ae07c0000000, 0x42032bb9c0000000]),
    ("OSA", [0x41cd2c32f0000000, 0x420cc361dc000000, 0x41dad4bae0000000, 0x421ab98ae0000000, 0x41d4a71640000000,
           0x4213ee2a40000000, 0x41cf132380000000, 0x420e732d80000000, 0x41c4cd6600000000, 0x420465b000000000]),
    ("OSB", [0x41d1b288e7800000, 0x4211999c0b800000, 0x41da95e360000000, 0x421a95e360000000, 0x41d47b3640000000,
           0x42147b3640000000, 0x41ced15380000000, 0x420ed15380000000, 0x41c4a18600000000, 0x4204a18600000000]),
    ("OSC", [0x41d8c07a86800000, 0x4214f4e115000000, 0x41e91c09e8000000, 0x4223acbae8000000, 0x41e37b64a0000000,
           0x421a774940000000, 0x41dd455800000000, 0x4213e5b800000000, 0x41d3839000000000, 0x420a87a000000000]),
    ("NLR", [0x41d88cd1c5000000, 0x421873e4e9000000, 0x41e4cf7c30000000, 0x422494e430000000, 0x41ddb9fc80000000,
           0x421c687c80000000, 0x41d6572000000000, 0x42151ab800000000, 0x41cddf7900000000, 0x420c399900000000]),
];
