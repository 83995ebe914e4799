//! Whole-network execution on the simulated accelerator.
//!
//! Runs every stage of an [`eyeriss_nn::network::Network`] on the chip —
//! CONV/FC stages through the row-stationary engine, POOL stages through
//! the MAX datapath (Section V-D) — chaining quantized activations
//! exactly as the software reference does, so the final output is
//! bit-exact.

use crate::chip::Accelerator;
use crate::error::SimError;
use crate::stats::SimStats;
use eyeriss_nn::network::Network;
use eyeriss_nn::{reference, Fix16, LayerKind, Tensor4};

/// Per-stage statistics of a network run.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Stage name.
    pub name: String,
    /// Measured statistics.
    pub stats: SimStats,
}

/// The result of running a network on the accelerator.
#[derive(Debug, Clone)]
pub struct NetworkRun {
    /// Final activations (logits for classifier-terminated networks).
    pub output: Tensor4<Fix16>,
    /// One report per stage, in order.
    pub stages: Vec<StageReport>,
}

impl NetworkRun {
    /// Total wall-clock cycles across stages.
    pub fn total_cycles(&self) -> u64 {
        self.stages.iter().map(|s| s.stats.total_cycles()).sum()
    }

    /// Total normalized energy across stages.
    pub fn total_energy(&self, cost: &eyeriss_arch::CostModel) -> f64 {
        self.stages.iter().map(|s| s.stats.energy(cost)).sum()
    }

    /// Prices the whole run into the unified
    /// [`CostReport`](eyeriss_arch::CostReport) vocabulary (stage reports
    /// accumulated: energies and measured delays add).
    pub fn cost_report(&self, cost: &eyeriss_arch::CostModel) -> eyeriss_arch::CostReport {
        let mut total = eyeriss_arch::CostReport::zero(cost.descriptor());
        for s in &self.stages {
            total.accumulate(&s.stats.cost_report(cost));
        }
        total
    }
}

/// Runs `net` on `chip` for a batch of `n` images.
///
/// # Example
///
/// ```
/// use eyeriss_arch::{AcceleratorConfig, TableIv};
/// use eyeriss_nn::{network::NetworkBuilder, synth};
/// use eyeriss_sim::{runner, Accelerator};
///
/// let net = NetworkBuilder::new(3, 19)
///     .conv("C1", 8, 3, 2)?
///     .pool("P1", 3, 2)?
///     .fully_connected("FC", 10)?
///     .build(31);
/// let input = synth::ifmap(&net.stages()[0].shape, 2, 55);
/// let mut chip = Accelerator::new(AcceleratorConfig::eyeriss_chip());
/// let run = runner::run_network(&mut chip, &net, 2, &input)?;
/// assert_eq!(run.output, net.forward(2, &input)); // bit-exact
/// // The totals are the stages' sums.
/// let stats = || run.stages.iter().map(|s| &s.stats);
/// let cycles: u64 = stats().map(|s| s.total_cycles()).sum();
/// let energy: f64 = stats().map(|s| s.energy(&TableIv)).sum();
/// let priced: f64 = stats().map(|s| s.cost_report(&TableIv).total_energy).sum();
/// assert_eq!(run.total_cycles(), cycles);
/// assert_eq!(run.total_energy(&TableIv), energy);
/// assert_eq!(run.cost_report(&TableIv).total_energy, priced);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// Fails if any weighted stage has no feasible mapping.
///
/// # Panics
///
/// Panics if `input` does not match the network's input dimensions.
pub fn run_network(
    chip: &mut Accelerator,
    net: &Network,
    n: usize,
    input: &Tensor4<Fix16>,
) -> Result<NetworkRun, SimError> {
    let (channels, size) = net.input_dims();
    assert_eq!(
        input.dims(),
        [n, channels, size, size],
        "network input dims mismatch"
    );
    let mut act = input.clone();
    let mut stages = Vec::with_capacity(net.stages().len());
    for stage in net.stages() {
        let stats = match stage.shape.kind {
            LayerKind::Pool => {
                let (out, stats) = chip.run_pool(&stage.shape, n, &act);
                act = out;
                stats
            }
            LayerKind::Conv | LayerKind::FullyConnected => {
                let w = stage.weights.as_ref().expect("weighted stage");
                let b = stage.bias.as_ref().expect("weighted stage");
                let run = chip.run_conv(&stage.shape, n, &act, w, b)?;
                act = reference::quantize(&run.psums, stage.relu);
                run.stats
            }
        };
        stages.push(StageReport {
            name: stage.name.clone(),
            stats,
        });
    }
    Ok(NetworkRun {
        output: act,
        stages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramModel;
    use eyeriss_arch::AcceleratorConfig;
    use eyeriss_nn::network::NetworkBuilder;
    use eyeriss_nn::synth;

    fn tiny_net() -> Network {
        NetworkBuilder::new(3, 19)
            .conv("C1", 8, 3, 2)
            .unwrap()
            .pool("P1", 3, 2)
            .unwrap()
            .conv("C2", 12, 3, 1)
            .unwrap()
            .fully_connected("FC", 10)
            .unwrap()
            .build(31)
    }

    #[test]
    fn network_run_is_bit_exact() {
        let net = tiny_net();
        let input = synth::ifmap(&net.stages()[0].shape, 2, 55);
        let golden = net.forward(2, &input);
        let mut chip = Accelerator::new(AcceleratorConfig::eyeriss_chip());
        let run = run_network(&mut chip, &net, 2, &input).unwrap();
        assert_eq!(run.output, golden);
        assert_eq!(run.stages.len(), 4);
    }

    #[test]
    fn latency_hiding_claim_holds_at_chip_bandwidth() {
        // Section VI-B: with double buffering, "data movement is not
        // expected to impact overall throughput significantly". This holds
        // for layers with realistic arithmetic intensity (deep channels /
        // many filters), not for toy 3-channel stems.
        let shape = eyeriss_nn::LayerShape::conv(32, 16, 19, 3, 1).unwrap();
        let input = synth::ifmap(&shape, 2, 55);
        let weights = synth::filters(&shape, 56);
        let bias = synth::biases(&shape, 57);
        let mut chip =
            Accelerator::new(AcceleratorConfig::eyeriss_chip()).dram(DramModel::eyeriss_chip());
        let run = chip.run_conv(&shape, 2, &input, &weights, &bias).unwrap();
        let stall = run.stats.stall_fraction();
        assert!(stall < 0.2, "stall fraction {stall:.2} too high");
    }

    #[test]
    fn starved_dram_stalls_the_array() {
        let net = tiny_net();
        let input = synth::ifmap(&net.stages()[0].shape, 1, 55);
        let mut fast =
            Accelerator::new(AcceleratorConfig::eyeriss_chip()).dram(DramModel::new(64.0));
        let mut slow =
            Accelerator::new(AcceleratorConfig::eyeriss_chip()).dram(DramModel::new(0.01));
        let f = run_network(&mut fast, &net, 1, &input).unwrap();
        let s = run_network(&mut slow, &net, 1, &input).unwrap();
        // Same computation, same answer...
        assert_eq!(f.output, s.output);
        // ...but the starved configuration takes far longer.
        assert!(s.total_cycles() > 5 * f.total_cycles());
        assert!(s.stages[0].stats.stall_fraction() > 0.5);
    }

    #[test]
    fn energy_aggregates_over_stages() {
        let net = tiny_net();
        let input = synth::ifmap(&net.stages()[0].shape, 1, 5);
        let mut chip = Accelerator::new(AcceleratorConfig::eyeriss_chip());
        let run = run_network(&mut chip, &net, 1, &input).unwrap();
        let em = eyeriss_arch::TableIv;
        let by_hand: f64 = run.stages.iter().map(|s| s.stats.energy(&em)).sum();
        assert_eq!(run.total_energy(&em), by_hand);
        assert!(run.total_energy(&em) > 0.0);
    }
}
