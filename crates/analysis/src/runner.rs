//! Maps layer lists onto the fixed-area comparison hardware of
//! Section VI-B and optimizes each layer's mapping (Section VI-C).

use crate::metrics::{DataflowRun, LayerRun};
use eyeriss_arch::cost::{CostModel, TableIv};
use eyeriss_dataflow::registry::builtin;
use eyeriss_dataflow::search::{optimize_all, Objective};
use eyeriss_dataflow::DataflowKind;
use eyeriss_nn::alexnet;
use eyeriss_nn::shape::NamedLayer;
use eyeriss_nn::LayerProblem;

/// Optimizes `kind` over `layers` at batch `batch` on a `num_pes` array.
///
/// Returns `None` if *any* layer is infeasible — the dataflow "cannot
/// operate" at this point, like WS at batch 64 on 256 PEs (Fig. 11a).
pub fn run_layers(
    kind: DataflowKind,
    layers: &[NamedLayer],
    batch: usize,
    num_pes: usize,
) -> Option<DataflowRun> {
    let hw = builtin(kind).comparison_hardware(num_pes);
    run_layers_on(kind, layers, batch, &hw)
}

/// [`run_layers`] with an explicit accelerator configuration (used by the
/// Fig. 15 resource-allocation sweep, which departs from the Eq. (2)
/// baseline split).
pub fn run_layers_on(
    kind: DataflowKind,
    layers: &[NamedLayer],
    batch: usize,
    hw: &eyeriss_arch::AcceleratorConfig,
) -> Option<DataflowRun> {
    run_layers_priced(kind, layers, batch, hw, TableIv)
}

/// [`run_layers_on`] priced under an explicit [`CostModel`] — the entry
/// point sensitivity studies use with models from a
/// [`CostModelRegistry`](eyeriss_arch::CostModelRegistry).
pub fn run_layers_priced(
    kind: DataflowKind,
    layers: &[NamedLayer],
    batch: usize,
    hw: &eyeriss_arch::AcceleratorConfig,
    cost: CostModel,
) -> Option<DataflowRun> {
    // Repeated shapes (all of VGG's stacked 3x3 stages, say) share one
    // search through the deduplicating batch entry point.
    let problems: Vec<LayerProblem> = layers
        .iter()
        .map(|l| LayerProblem::new(l.shape, batch))
        .collect();
    let mappings = optimize_all(builtin(kind), &problems, hw, &cost, Objective::Energy);
    let mut out = Vec::with_capacity(layers.len());
    for (layer, best) in layers.iter().zip(mappings) {
        let best = best?;
        out.push(LayerRun {
            name: layer.name.clone(),
            macs: layer.shape.macs(batch) as f64,
            profile: best.profile,
            active_pes: best.active_pes,
            params: best.params,
        });
    }
    Some(DataflowRun {
        kind,
        num_pes: hw.num_pes(),
        batch,
        layers: out,
        cost,
    })
}

/// [`run_layers`] over the five AlexNet CONV layers (Section VII-B).
pub fn run_conv_layers(kind: DataflowKind, batch: usize, num_pes: usize) -> Option<DataflowRun> {
    run_layers(kind, &alexnet::conv_layers(), batch, num_pes)
}

/// [`run_layers`] over the three AlexNet FC layers (Section VII-C).
pub fn run_fc_layers(kind: DataflowKind, batch: usize, num_pes: usize) -> Option<DataflowRun> {
    run_layers(kind, &alexnet::fc_layers(), batch, num_pes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rs_conv_run_has_five_layers() {
        let run = run_conv_layers(DataflowKind::RowStationary, 16, 256).unwrap();
        assert_eq!(run.layers.len(), 5);
        assert_eq!(run.layers[0].name, "CONV1");
    }

    #[test]
    fn ws_conv_infeasible_at_batch_64_on_256() {
        assert!(run_conv_layers(DataflowKind::WeightStationary, 64, 256).is_none());
        assert!(run_conv_layers(DataflowKind::WeightStationary, 64, 1024).is_some());
    }

    #[test]
    fn dram_writes_identical_across_dataflows() {
        // Section VII-B: "DRAM writes are the same across all dataflows".
        let runs: Vec<_> = DataflowKind::ALL
            .iter()
            .filter_map(|&k| run_conv_layers(k, 16, 256))
            .collect();
        assert!(runs.len() >= 5);
        let w0 = runs[0].dram_writes_per_op();
        for r in &runs {
            assert!(
                (r.dram_writes_per_op() - w0).abs() / w0 < 1e-9,
                "{} writes differ",
                r.kind
            );
        }
    }
}
