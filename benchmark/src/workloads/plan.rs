//! `plan_cold`: the mapping search under the cluster planner does all
//! the work, the simulator none.

use crate::stats::Timed;
use crate::trace::Tracer;
use crate::workload::{Config, Model, Workload};
use eyeriss::arch::{AcceleratorConfig, TableIv};
use eyeriss::cluster::ClusterPlan;
use eyeriss::nn::shape::NamedLayer;
use eyeriss::nn::{alexnet, mobilenet, vgg, LayerShape};
use eyeriss::serve::PlanCompiler;
use std::sync::Arc;
use std::time::Instant;

/// Batch size every layer is planned at.
pub const BATCH: usize = 16;
/// Cluster widths planned for.
pub const WIDTHS: [usize; 3] = [1, 2, 4];

/// The distinct layer shapes of one network: a repeated shape would hit
/// the pass's cache and not be a cold compile.
fn distinct(layers: Vec<NamedLayer>) -> Vec<LayerShape> {
    let mut shapes: Vec<LayerShape> = Vec::new();
    for l in layers {
        if !shapes.contains(&l.shape) {
            shapes.push(l.shape);
        }
    }
    shapes
}

/// The planned networks' distinct shapes: AlexNet (CONV and FC), VGG-16
/// and MobileNet-v1. Quick runs keep the AlexNet CONV layers only.
pub fn networks(quick: bool) -> Vec<Vec<LayerShape>> {
    if quick {
        return vec![distinct(alexnet::conv_layers())];
    }
    vec![
        distinct(alexnet::all_layers()),
        distinct(vgg::all_layers()),
        distinct(mobilenet::mobilenet_v1()),
    ]
}

/// One op: compile `shape` for `width` arrays. The first op of a pass
/// starts it on a fresh compiler, and so a fresh `PlanCache`.
#[derive(Debug, Clone, Copy)]
struct Op {
    width: usize,
    shape: LayerShape,
    starts_pass: bool,
}

pub struct PlanCold {
    ops: Vec<Op>,
    /// The plans of the first cycle; every later cold plan must equal
    /// them (partition, mapping parameters, energy and delay bits).
    reference: Vec<Option<Arc<ClusterPlan>>>,
    compiler: PlanCompiler,
    next: u64,
}

fn compiler(width: usize) -> PlanCompiler {
    PlanCompiler::new(width, AcceleratorConfig::eyeriss_chip())
}

impl Workload for PlanCold {
    const NAME: &'static str = "plan_cold";
    const SEGMENT_CYCLES: usize = 4;
    const SETUPS: usize = 9;

    fn setup(cfg: &Config) -> Self {
        let widths: &[usize] = if cfg.quick { &WIDTHS[..1] } else { &WIDTHS };
        let mut ops = Vec::new();
        // Network order, whatever the seed: the shapes are the networks'
        // own, so the seed has no data to vary, and shuffling the order
        // within a pass moved the whole run by up to 8 % from seed to
        // seed (645 op/s on one order four times running, 591 on the
        // next) where one order repeats within 2 %.
        for shapes in networks(cfg.quick) {
            for &width in widths {
                ops.extend(shapes.iter().enumerate().map(|(i, &shape)| Op {
                    width,
                    shape,
                    starts_pass: i == 0,
                }));
            }
        }
        let mut w = PlanCold {
            reference: vec![None; ops.len()],
            ops,
            compiler: compiler(1),
            next: 0,
        };
        // The first cycle is the warm-up and fixes the reference plans.
        w.segment(w.cycle_ops(), &Tracer::new(false), &mut Timed::default());
        w
    }

    fn cycle_ops(&self) -> usize {
        self.ops.len()
    }

    fn segment(&mut self, ops: usize, tracer: &Tracer, out: &mut Timed) {
        out.segment(ops, || {
            let slot = (self.next % self.ops.len() as u64) as usize;
            let op = self.ops[slot];
            if op.starts_pass {
                self.compiler = compiler(op.width);
            }
            let span = tracer.op(self.next, "bench", "op");
            let t0 = Instant::now();
            let plan = {
                let _call = span.child("serve", "compile_layer");
                self.compiler.compile_layer(&op.shape, BATCH)
            };
            let us = t0.elapsed().as_secs_f64() * 1e6;
            self.next += 1;
            let ok = match plan {
                Ok(plan) => {
                    let first = self.reference[slot].get_or_insert_with(|| Arc::clone(&plan));
                    **first == *plan
                        && first.energy.to_bits() == plan.energy.to_bits()
                        && first.delay.to_bits() == plan.delay.to_bits()
                }
                Err(_) => false,
            };
            (us, ok)
        });
    }

    fn model(&self) -> Model {
        let (mut energy, mut delay, mut macs) = (0.0, 0.0, 0.0);
        for (op, plan) in self.ops.iter().zip(&self.reference) {
            if let Some(plan) = plan {
                energy += plan.report(&TableIv).total_energy;
                delay += plan.delay;
                macs += op.shape.macs(BATCH) as f64;
            }
        }
        Model {
            energy_per_mac: energy / macs,
            cycles_per_kmac: delay * 1e3 / macs,
        }
    }
}
