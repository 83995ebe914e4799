//! Reproduces Fig. 15: trading processing area against storage area for
//! the RS dataflow under a fixed total chip area, then the two ablations
//! beyond the paper's figures: the Section VI-B RF-size sweep and the
//! Section VI-D energy-cost sensitivity.
//!
//! Run with: `cargo run --release --example design_space`

use eyeriss::analysis::experiments::{fig15, rf_sweep, sensitivity};

fn main() {
    let points = fig15::run();
    println!("{}", fig15::render(&points));

    let first = points.first().expect("sweep is non-empty");
    let last = points.last().expect("sweep is non-empty");
    let speedup = first.delay_per_op / last.delay_per_op;
    let energy_ratio = last.energy_per_op / first.energy_per_op;
    println!(
        "From {} to {} PEs: throughput x{:.1}, energy/op x{:.2} \
         (paper: >10x throughput for ~13% energy).",
        first.num_pes, last.num_pes, speedup, energy_ratio
    );

    println!("\n{}", rf_sweep::render(&rf_sweep::run(256)));
    println!("{}", sensitivity::render(&sensitivity::run()));
}
