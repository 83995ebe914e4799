//! Quickstart: map one AlexNet layer with every dataflow, then simulate
//! it through the `Engine` façade and verify bit-exactness.
//!
//! Run with: `cargo run --release --example quickstart`

use eyeriss::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- 1. Analytical comparison on AlexNet CONV3 -------------------------
    // Every mapping space implements the `Dataflow` trait; the registry
    // holds the paper's six (plus anything you register).
    let conv3 = LayerProblem::new(LayerShape::conv(384, 256, 15, 3, 1)?, 16);
    // TableIv is the canonical CostModel — swap in any
    // `CostModel::new(..)` to price the same comparison differently.
    let em = TableIv;
    let reg = DataflowRegistry::builtin();
    println!("AlexNet CONV3 on a 256-PE spatial architecture, batch 16:");
    println!(
        "{:>4}  {:>12}  {:>10}  {:>10}",
        "flow", "energy/MAC", "DRAM/op", "active PEs"
    );
    for df in reg.iter() {
        let hw = df.comparison_hardware(256);
        match optimize(df.as_ref(), &conv3, &hw, &em, Objective::Energy) {
            Some(best) => {
                let macs = conv3.macs() as f64;
                println!(
                    "{:>4}  {:>12.3}  {:>10.5}  {:>10}",
                    df.id(),
                    em.energy_of(&best.profile) / macs,
                    best.profile.dram_accesses() / macs,
                    best.active_pes
                );
            }
            None => println!("{:>4}  cannot operate", df.id()),
        }
    }

    // ---- 2. Functional simulation through the Engine façade ----------------
    // A shape-preserving shrink of CONV3 (same 3x3 geometry, fewer
    // filters/channels) keeps the demo fast.
    let engine = Engine::builder()
        .hardware(AcceleratorConfig::eyeriss_chip())
        .build()?;
    let small = LayerProblem::new(LayerShape::conv(16, 8, 15, 3, 1)?, 2);
    let input = synth::ifmap(&small.shape, 2, 42);
    let weights = synth::filters(&small.shape, 43);
    let bias = synth::biases(&small.shape, 44);

    let run = engine.simulate(&small, &input, &weights, &bias)?;
    let golden = reference::conv_accumulate(&small.shape, 2, &input, &weights, &bias);
    assert_eq!(run.psums, golden);

    println!(
        "\nSimulated {} MACs on the 168-PE chip — bit-exact against the golden model.",
        run.stats.macs
    );
    println!(
        "mapping: n={} p={} q={} e={} r={} t={}",
        run.mapping.n, run.mapping.p, run.mapping.q, run.mapping.e, run.mapping.r, run.mapping.t
    );
    println!(
        "cycles: {}   utilization: {:.1}%",
        run.stats.cycles,
        100.0 * run.stats.utilization(168)
    );
    println!(
        "measured RF : (buffer+array) energy ratio = {:.2} (chip measured ~4:1 for CONV)",
        run.stats.rf_to_onchip_rest_ratio(&em)
    );
    Ok(())
}
