//! Extension: the dataflow comparison on VGG-16, the deeper network the
//! paper cites alongside AlexNet (Section III-B). Deeper, all-3x3 CONV
//! stacks push even more of the energy into the CONV layers, where the
//! row-stationary advantage lives.
//!
//! Run with: `cargo run --release --example vgg_analysis`

use eyeriss::nn::vgg;
use eyeriss::prelude::*;

fn main() {
    let layers = vgg::conv_layers();
    println!("VGG-16 CONV layers on a 256-PE spatial architecture, batch 16:");
    println!("{:>4}  {:>12}  {:>10}", "flow", "energy/MAC", "DRAM/op");
    let mut rs_energy = 0.0f64;
    for kind in DataflowKind::ALL {
        match run_layers(kind, &layers, 16, 256) {
            Some(run) => {
                if kind == DataflowKind::RowStationary {
                    rs_energy = run.energy_per_op();
                }
                println!(
                    "{:>4}  {:>12.3}  {:>10.5}{}",
                    kind.label(),
                    run.energy_per_op(),
                    run.dram_accesses_per_op(),
                    if kind == DataflowKind::RowStationary {
                        String::new()
                    } else {
                        format!("   ({:.2}x RS)", run.energy_per_op() / rs_energy)
                    }
                );
            }
            None => println!("{:>4}  cannot operate", kind.label()),
        }
    }

    // Per-layer RS picture: the deeper stages (tiny planes, many channels)
    // stress the mapper differently from AlexNet.
    let run = run_layers(DataflowKind::RowStationary, &layers, 16, 256).unwrap();
    println!("\nRS per-layer energy/MAC across the 13 CONV layers:");
    for l in &run.layers {
        println!(
            "  {:<8} active={:>3}  e/op={:.3}",
            l.name,
            l.active_pes,
            l.energy(&run.cost) / l.macs
        );
    }
}
