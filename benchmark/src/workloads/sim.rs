//! `sim_dense` and `sim_sparse`: the simulator does all the work.

use crate::inputs::{conv_rota, ConvCase};
use crate::stats::Timed;
use crate::trace::Tracer;
use crate::workload::{Config, Model, Workload};
use eyeriss::arch::{AcceleratorConfig, TableIv};
use eyeriss::nn::network::Network;
use eyeriss::nn::{mobilenet, synth, Fix16, Tensor4};
use eyeriss::sim::{runner, Accelerator, SimStats};
use std::time::Instant;

/// Share of ifmap values zeroed in `sim_sparse` (post-ReLU activations).
pub const SPARSITY: f64 = 0.6;
/// The seed of the inputs `sim_sparse`'s model metrics are computed on.
/// Gated and compressed energy follow the zero pattern, which is the
/// seed's; on one fixed pattern the two metrics compare exactly between
/// any two runs, which is their whole use.
pub const MODEL_SEED: u64 = 12;

fn chip() -> Accelerator {
    Accelerator::new(AcceleratorConfig::eyeriss_chip())
}

/// Runs one rota case; the output check is psums against the golden and
/// statistics against the first run of the same case.
fn run_case(
    chip: &mut Accelerator,
    case: &ConvCase,
    first: &mut Option<SimStats>,
    span: &crate::trace::Span,
    name: &'static str,
) -> (f64, bool) {
    let t0 = Instant::now();
    let run = {
        let _call = span.child("sim", name);
        chip.run_conv(
            &case.shape,
            case.batch,
            &case.input,
            &case.weights,
            &case.bias,
        )
    };
    let us = t0.elapsed().as_secs_f64() * 1e6;
    let ok = match run {
        Ok(run) => {
            let same_stats = *first.get_or_insert_with(|| run.stats.clone()) == run.stats;
            run.psums == case.golden && same_stats
        }
        Err(_) => false,
    };
    (us, ok)
}

/// One steady-state chip cycling `run_conv` over the dense rota.
pub struct SimDense {
    chip: Accelerator,
    rota: Vec<ConvCase>,
    /// Statistics of each case's first run: the model's numbers, and
    /// what every later run must reproduce.
    stats: Vec<Option<SimStats>>,
    next: u64,
}

impl Workload for SimDense {
    const NAME: &'static str = "sim_dense";
    const SEGMENT_CYCLES: usize = 371;
    const SETUPS: usize = 25;

    fn setup(cfg: &Config) -> Self {
        let rota = conv_rota(cfg.seed, 0.0);
        let mut w = SimDense {
            chip: chip(),
            stats: vec![None; rota.len()],
            rota,
            next: 0,
        };
        // Warm-up: mappings memoised, scratch grown.
        let warm = if cfg.quick { 1 } else { 20 } * w.rota.len();
        w.segment(warm, &Tracer::new(false), &mut Timed::default());
        w
    }

    fn cycle_ops(&self) -> usize {
        self.rota.len()
    }

    fn segment(&mut self, ops: usize, tracer: &Tracer, out: &mut Timed) {
        out.segment(ops, || {
            let i = (self.next % self.rota.len() as u64) as usize;
            let span = tracer.op(self.next, "bench", "op");
            self.next += 1;
            run_case(
                &mut self.chip,
                &self.rota[i],
                &mut self.stats[i],
                &span,
                "run_conv",
            )
        });
    }

    fn model(&self) -> Model {
        let mut total = SimStats::default();
        for s in self.stats.iter().flatten() {
            total.merge(s);
        }
        let macs: u64 = self.rota.iter().map(ConvCase::macs).sum();
        Model {
            energy_per_mac: total.energy(&TableIv) / macs as f64,
            cycles_per_kmac: total.total_cycles() as f64 * 1e3 / macs as f64,
        }
    }
}

/// The three sparse-path chips, in rota order.
pub const SPARSE_CHIPS: [&str; 3] = ["gated", "csc", "rlc"];

pub fn sparse_chip(kind: &str) -> Accelerator {
    match kind {
        "gated" => chip().zero_gating(true),
        "csc" => chip().csc(true),
        "rlc" => chip().rlc(true),
        other => panic!("no sparse chip named {other}"),
    }
}

/// The sparse rota through a zero-gating, a CSC and an RLC chip, plus
/// MobileNet-tiny (depthwise and pointwise layers) through the network
/// runner on a plain chip.
pub struct SimSparse {
    chips: Vec<Accelerator>,
    rota: Vec<ConvCase>,
    /// `stats[chip][case]`, as in [`SimDense::stats`].
    stats: Vec<Vec<Option<SimStats>>>,
    net_chip: Accelerator,
    net: Network,
    net_input: Tensor4<Fix16>,
    net_golden: Tensor4<Fix16>,
    net_stats: Option<Vec<SimStats>>,
    next: u64,
}

impl SimSparse {
    fn fresh(seed: u64) -> SimSparse {
        let rota = conv_rota(seed, SPARSITY);
        let net = mobilenet::mobilenet_tiny(seed);
        let net_input = synth::sparse_ifmap(&net.stages()[0].shape, 1, seed ^ 0x5eed, SPARSITY);
        let net_golden = net.forward(1, &net_input);
        SimSparse {
            chips: SPARSE_CHIPS.iter().map(|k| sparse_chip(k)).collect(),
            stats: vec![vec![None; rota.len()]; SPARSE_CHIPS.len()],
            rota,
            net_chip: chip(),
            net,
            net_input,
            net_golden,
            net_stats: None,
            next: 0,
        }
    }

    fn run_net(&mut self, span: &crate::trace::Span) -> (f64, bool) {
        let t0 = Instant::now();
        let run = {
            let _call = span.child("sim", "run_network");
            runner::run_network(&mut self.net_chip, &self.net, 1, &self.net_input)
        };
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let ok = match run {
            Ok(run) => {
                let stats: Vec<SimStats> = run.stages.into_iter().map(|s| s.stats).collect();
                let same_stats = *self.net_stats.get_or_insert_with(|| stats.clone()) == stats;
                run.output == self.net_golden && same_stats
            }
            Err(_) => false,
        };
        (us, ok)
    }
}

impl Workload for SimSparse {
    const NAME: &'static str = "sim_sparse";
    const SEGMENT_CYCLES: usize = 93;
    const SETUPS: usize = 25;

    fn setup(cfg: &Config) -> Self {
        let mut w = SimSparse::fresh(cfg.seed);
        let warm = if cfg.quick { 1 } else { 6 } * w.cycle_ops();
        w.segment(warm, &Tracer::new(false), &mut Timed::default());
        w
    }

    fn cycle_ops(&self) -> usize {
        SPARSE_CHIPS.len() * self.rota.len() + 1
    }

    fn segment(&mut self, ops: usize, tracer: &Tracer, out: &mut Timed) {
        let cases = self.rota.len();
        out.segment(ops, || {
            let slot = (self.next % self.cycle_ops() as u64) as usize;
            let span = tracer.op(self.next, "bench", "op");
            self.next += 1;
            if slot == SPARSE_CHIPS.len() * cases {
                return self.run_net(&span);
            }
            let (c, i) = (slot / cases, slot % cases);
            run_case(
                &mut self.chips[c],
                &self.rota[i],
                &mut self.stats[c][i],
                &span,
                ["run_conv.gated", "run_conv.csc", "run_conv.rlc"][c],
            )
        });
    }

    fn model(&self) -> Model {
        // One cycle on the fixed model inputs, on chips of their own.
        let mut fixed = SimSparse::fresh(MODEL_SEED);
        fixed.segment(
            fixed.cycle_ops(),
            &Tracer::new(false),
            &mut Timed::default(),
        );
        // Sparse runs are priced at the storage format the chip moves
        // (`compressed_cost_report`), per nominal MAC: gating and
        // compression lower energy per MAC, never the MAC count.
        let (mut energy, mut cycles) = (0.0, 0u64);
        let all = fixed
            .stats
            .iter()
            .flatten()
            .flatten()
            .chain(fixed.net_stats.iter().flatten());
        for s in all {
            energy += s.compressed_cost_report(&TableIv).total_energy;
            cycles += s.total_cycles();
        }
        let rota_macs: u64 = fixed.rota.iter().map(ConvCase::macs).sum();
        let macs = SPARSE_CHIPS.len() as u64 * rota_macs + fixed.net.total_ops(1);
        Model {
            energy_per_mac: energy / macs as f64,
            cycles_per_kmac: cycles as f64 * 1e3 / macs as f64,
        }
    }
}
