//! Scratch-reuse bit-exactness: the allocation-free execution core must
//! be invisible in the results.
//!
//! An [`Accelerator`] owns its buffers (the psum strip, the pair-MAC band
//! and the RLC code words) and reuses them across layers and runs, it
//! memoizes winning mappings, and the cluster executes precompiled
//! plans' mappings directly. None of that may change a single psum bit
//! *or* a single statistic relative to the reference discipline — a
//! fresh accelerator (fresh buffers, fresh search) per run.

use eyeriss::prelude::*;
use eyeriss::Engine;
use eyeriss_cluster::{plan_layer, Cluster, SharedDram};
use eyeriss_dataflow::registry::builtin;
use proptest::prelude::*;

fn small_chip() -> AcceleratorConfig {
    AcceleratorConfig {
        grid: eyeriss_arch::GridDims::new(6, 8),
        rf_bytes_per_pe: 512.0,
        buffer_bytes: 32.0 * 1024.0,
    }
}

/// One randomized layer: (M, C, H, R, U) kept small enough that the
/// 6x8-PE test chip maps every draw.
fn layer_strategy() -> impl Strategy<Value = (LayerShape, usize)> {
    (1usize..8, 1usize..6, 1usize..4, 0usize..2, 1usize..4).prop_map(|(m, c, r2, u1, n)| {
        let r = r2 + 1; // 2..=4
        let u = u1 + 1; // 1..=2
        let e = 3 + m % 5; // 3..=7 ofmap size
        let h = (e - 1) * u + r;
        (LayerShape::conv(m, c, h, r, u).unwrap(), n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Back-to-back runs on one reused chip (its buffers and its mapping
    /// memo) are bit-exact — psums *and* stats — against a fresh
    /// accelerator per run, across randomized layer shapes and repeated
    /// executions.
    #[test]
    fn scratch_reuse_is_bit_exact(layer_a in layer_strategy(),
                                  layer_b in layer_strategy(),
                                  sparse in 0u8..2) {
        let ((shape_a, n_a), (shape_b, n_b)) = (layer_a, layer_b);
        let mut reused = Accelerator::new(small_chip());
        for (shape, n) in [(shape_a, n_a), (shape_b, n_b), (shape_a, n_a)] {
            let input = if sparse == 1 {
                synth::sparse_ifmap(&shape, n, 7, 0.6)
            } else {
                synth::ifmap(&shape, n, 7)
            };
            let weights = synth::filters(&shape, 8);
            let bias = synth::biases(&shape, 9);

            // Reference discipline: everything fresh.
            let mut fresh = Accelerator::new(small_chip());
            let want = fresh.run_conv(&shape, n, &input, &weights, &bias).unwrap();
            prop_assert_eq!(
                &want.psums,
                &reference::conv_accumulate(&shape, n, &input, &weights, &bias)
            );

            // The reused chip, its buffers dirty from the run before.
            let got = reused.run_conv(&shape, n, &input, &weights, &bias).unwrap();
            prop_assert_eq!(&got.psums, &want.psums);
            prop_assert_eq!(&got.stats, &want.stats);
            prop_assert_eq!(got.mapping, want.mapping);
        }
    }

    /// The sparsity features (zero-gating + RLC, whose encoder streams
    /// through the chip's reused code-word buffer) survive reuse
    /// bit-exactly.
    #[test]
    fn sparse_features_survive_scratch_reuse(layer in layer_strategy()) {
        let (shape, n) = layer;
        let input = synth::sparse_ifmap(&shape, n, 5, 0.7);
        let weights = synth::filters(&shape, 6);
        let bias = synth::biases(&shape, 7);

        let mut fresh = Accelerator::new(small_chip()).zero_gating(true).rlc(true);
        let want = fresh.run_conv(&shape, n, &input, &weights, &bias).unwrap();

        let mut reused = Accelerator::new(small_chip()).zero_gating(true).rlc(true);
        for _ in 0..3 {
            let got = reused.run_conv(&shape, n, &input, &weights, &bias).unwrap();
            prop_assert_eq!(&got.psums, &want.psums);
            prop_assert_eq!(&got.stats, &want.stats);
        }
    }
}

/// Plans compiled in each of the six builtin mapping spaces execute
/// bit-exactly through the cluster's planned path: row-stationary plans
/// run their own winning mappings directly, the other five fall back to
/// the executor's internal search — either way the reassembled psums
/// match the golden reference, and repeated executions (pooled worker
/// contexts) stay identical.
#[test]
fn all_six_dataflow_plans_execute_bit_exactly() {
    let shape = LayerShape::conv(8, 3, 13, 3, 2).unwrap();
    let n = 4usize;
    let problem = LayerProblem::new(shape, n);
    let hw = small_chip();
    let input = synth::ifmap(&shape, n, 21);
    let weights = synth::filters(&shape, 22);
    let bias = synth::biases(&shape, 23);
    let golden = reference::conv_accumulate(&shape, n, &input, &weights, &bias);

    for kind in DataflowKind::ALL {
        let df = builtin(kind);
        let Some(plan) = plan_layer(
            df,
            &problem,
            2,
            &hw,
            &TableIv,
            &SharedDram::scaled(2),
            Objective::EnergyDelayProduct,
        ) else {
            continue; // space infeasible on this chip; nothing to execute
        };
        let cluster = Cluster::new(2, hw);
        let first = cluster
            .execute(&plan, &problem, &input, &weights, &bias)
            .unwrap();
        assert_eq!(first.psums, golden, "{kind} plan diverged");
        // Re-execution through the (now warmed) pooled contexts.
        let again = cluster
            .execute(&plan, &problem, &input, &weights, &bias)
            .unwrap();
        assert_eq!(again.psums, golden, "{kind} re-run diverged");
        assert_eq!(
            again.stats.per_array.len(),
            first.stats.per_array.len(),
            "{kind}"
        );
        for (a, b) in first.stats.per_array.iter().zip(&again.stats.per_array) {
            assert_eq!(a, b, "{kind} stats changed across pooled re-runs");
        }
    }
}

/// The engine façade's pooled simulate path matches a dedicated chip.
#[test]
fn engine_simulate_pooling_is_bit_exact() {
    let shape = LayerShape::conv(6, 4, 11, 3, 2).unwrap();
    let problem = LayerProblem::new(shape, 2);
    let input = synth::ifmap(&shape, 2, 31);
    let weights = synth::filters(&shape, 32);
    let bias = synth::biases(&shape, 33);

    let engine = Engine::builder()
        .hardware(small_chip())
        .build()
        .expect("engine builds");
    let mut chip = Accelerator::new(small_chip());
    let want = chip.run_conv(&shape, 2, &input, &weights, &bias).unwrap();
    for _ in 0..3 {
        let got = engine.simulate(&problem, &input, &weights, &bias).unwrap();
        assert_eq!(got.psums, want.psums);
        assert_eq!(got.stats, want.stats);
    }
}

/// The counters [`pinned_cells`] fingerprints, in order.
const PINNED_FIELDS: [&str; 18] = [
    "macs",
    "skipped_macs",
    "ifmap.rf_reads",
    "filter.rf_reads",
    "filter.rf_writes",
    "psum.rf_reads",
    "psum.rf_writes",
    "filter.array_hops",
    "ifmap.array_hops",
    "psum.array_hops",
    "noc.transactions",
    "ifmap.buffer_reads",
    "filter.buffer_reads",
    "psum.buffer_reads",
    "psum.buffer_writes",
    "cycles",
    "stall_cycles",
    "dram_raw_words",
];

/// Four layers x {plain, zero-gating, CSC} on the 6x8 test chip, each
/// reduced to the counters of [`PINNED_FIELDS`]. The chips run over a
/// single-cluster mesh: its routing factor is exactly 1.0, so every hop
/// count is the v1 buses', and it is the one configuration that exposes
/// the buses' transaction count in `SimStats`.
fn pinned_cells() -> Vec<(String, [u64; 18])> {
    let hw = small_chip();
    // E = 11 > 8 columns -> two strips; stride 2; batch 2.
    let strided = LayerShape::conv(6, 3, 23, 3, 2).unwrap();
    // Three groups, each its own engine run.
    let grouped = LayerShape::conv_grouped(6, 2, 13, 3, 1, 3).unwrap();
    let depthwise = LayerShape::depthwise(5, 11, 3, 2).unwrap();
    // Ifmap-resident loop order: filters stream from DRAM per pass, the
    // psum tile folds through the buffer across two channel groups.
    let streamed = LayerShape::conv(6, 4, 12, 3, 1).unwrap();
    let streamed_map = eyeriss_sim::passes::RsMapping {
        n: 1,
        p: 2,
        q: 1,
        e: 5,
        r: 2,
        t: 1,
        filter_resident: false,
    };
    let layers = [
        ("strided", strided, 2, None),
        ("grouped", grouped, 2, None),
        ("depthwise", depthwise, 1, None),
        ("streamed", streamed, 2, Some(streamed_map)),
    ];
    let mut cells = Vec::new();
    for (name, shape, n, mapping) in layers {
        let input = synth::sparse_ifmap(&shape, n, 41, 0.5);
        let weights = synth::filters(&shape, 42);
        let bias = synth::biases(&shape, 43);
        let golden = reference::conv_accumulate(&shape, n, &input, &weights, &bias);
        for mode in ["plain", "gated", "csc"] {
            let mut chip = Accelerator::new(hw)
                .zero_gating(mode == "gated")
                .csc(mode == "csc")
                .mesh(eyeriss_sim::mesh::HierarchicalMesh::single_cluster(hw.grid));
            let run = match mapping {
                Some(m) => chip.run_conv_planned(m, &shape, n, &input, &weights, &bias),
                None => chip.run_conv(&shape, n, &input, &weights, &bias),
            }
            .unwrap();
            assert_eq!(run.psums, golden, "{name}/{mode}");
            if let Some(m) = mapping {
                assert_eq!(run.mapping, m);
            }
            let s = &run.stats;
            let p = &s.profile;
            let counts = [
                s.macs as f64,
                s.skipped_macs as f64,
                p.ifmap.rf_reads,
                p.filter.rf_reads,
                p.filter.rf_writes,
                p.psum.rf_reads,
                p.psum.rf_writes,
                p.filter.array_hops,
                p.ifmap.array_hops,
                p.psum.array_hops,
                s.mesh.expect("mesh stats recorded").transactions as f64,
                p.ifmap.buffer_reads,
                p.filter.buffer_reads,
                p.psum.buffer_reads,
                p.psum.buffer_writes,
                s.cycles as f64,
                s.stall_cycles as f64,
                s.dram_raw_words as f64,
            ];
            for (c, field) in counts.iter().zip(PINNED_FIELDS) {
                assert_eq!(c.fract(), 0.0, "{name}/{mode} {field} is a whole count");
            }
            cells.push((format!("{name}/{mode}"), counts.map(|c| c as u64)));
        }
    }
    cells
}

/// [`pinned_cells`] as captured at the parent of the PE-kernel change
/// (commit fd4ae20: per-tap gated loop, filter-outer `run_pass`).
#[rustfmt::skip]
const PINNED: [(&str, [u64; 18]); 12] = [
    ("strided/plain", [39204, 0, 39204, 39204, 1782, 39204, 39204, 1782, 4554, 10164, 516, 3312, 324, 1452, 1452, 1584, 65, 4926]),
    ("strided/gated", [19464, 19740, 39204, 19464, 1782, 19464, 19464, 1782, 4554, 10164, 516, 3312, 324, 1452, 1452, 1584, 65, 4926]),
    ("strided/csc", [19464, 19740, 13698, 19464, 1782, 19464, 19464, 1782, 4554, 10164, 516, 3312, 324, 1452, 1452, 1584, 65, 4926]),
    ("grouped/plain", [26136, 0, 26136, 26136, 1188, 26136, 26136, 1188, 5148, 7260, 384, 2340, 216, 0, 0, 792, 84, 3900]),
    ("grouped/gated", [13012, 13124, 26136, 13012, 1188, 13012, 13012, 1188, 5148, 7260, 384, 2340, 216, 0, 0, 792, 84, 3900]),
    ("grouped/csc", [13012, 13124, 5144, 13012, 1188, 13012, 13012, 1188, 5148, 7260, 384, 2340, 216, 0, 0, 792, 84, 3900]),
    ("depthwise/plain", [1125, 0, 1125, 1125, 225, 1125, 1125, 225, 825, 250, 95, 605, 0, 0, 0, 75, 90, 775]),
    ("depthwise/gated", [570, 555, 1125, 570, 225, 570, 570, 225, 825, 250, 95, 605, 0, 0, 0, 75, 90, 775]),
    ("depthwise/csc", [570, 555, 415, 570, 225, 570, 570, 225, 825, 250, 95, 605, 0, 0, 0, 75, 90, 775]),
    ("streamed/plain", [43200, 0, 43200, 43200, 4320, 43200, 43200, 4320, 8640, 12000, 864, 4032, 0, 1200, 1200, 1440, 198, 3408]),
    ("streamed/gated", [21444, 21756, 43200, 21444, 4320, 21444, 21444, 4320, 8640, 12000, 864, 4032, 0, 1200, 1200, 1440, 198, 3408]),
    ("streamed/csc", [21444, 21756, 8670, 21444, 4320, 21444, 21444, 4320, 8640, 12000, 864, 4032, 0, 1200, 1200, 1440, 198, 3408]),
];

/// `model_energy_per_mac` only checks the energy-weighted sum of these;
/// a kernel or loop-order change in the simulator's hot path must leave
/// every one of them where it was.
#[test]
fn sim_stats_are_pinned_across_pe_kernel_and_pass_order() {
    let cells = pinned_cells();
    assert_eq!(cells.len(), PINNED.len());
    for ((name, got), (want_name, want)) in cells.iter().zip(&PINNED) {
        assert_eq!(name, want_name);
        for ((g, w), field) in got.iter().zip(want).zip(PINNED_FIELDS) {
            assert_eq!(g, w, "{name}: {field}");
        }
    }
}
