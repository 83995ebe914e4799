//! Flexible row stationary on MobileNet: array utilization and energy
//! per inference of `flex-rs` against the best of the six dense
//! dataflows, layer by layer.
//!
//! MobileNet's depthwise layers have one input channel per filter, so a
//! dense row-stationary mapping fills at most `R` PE rows of one array
//! pass — the 12x14 chip idles. `flex-rs` decomposes the array into
//! cluster gangs that process several groups at once (the Eyeriss v2
//! argument), recovering utilization without changing the search, cost
//! or persistence machinery: this experiment drives it through the same
//! [`search::optimize`] entry point as the built-in six.

use crate::table::TextTable;
use eyeriss_arch::cost::TableIv;
use eyeriss_arch::AcceleratorConfig;
use eyeriss_dataflow::candidate::MappingParams;
use eyeriss_dataflow::flex::FlexRsModel;
use eyeriss_dataflow::registry::builtin;
use eyeriss_dataflow::search::{self, Objective};
use eyeriss_dataflow::DataflowKind;
use eyeriss_nn::mobilenet;
use eyeriss_nn::shape::NamedLayer;
use eyeriss_nn::LayerProblem;

/// One optimized mapping condensed to the comparison's two axes.
#[derive(Debug, Clone, Copy)]
pub struct MappingPoint {
    /// Normalized energy of the layer under the winning mapping.
    pub energy: f64,
    /// PEs doing useful work under that mapping.
    pub active_pes: usize,
}

/// One layer's dense-vs-flex verdict.
#[derive(Debug, Clone)]
pub struct LayerVerdict {
    /// Layer name (`"DW3"`, `"PW7"`, ...).
    pub name: String,
    /// Convolution groups (`> 1` marks the depthwise layers).
    pub groups: usize,
    /// MACs at the evaluated batch.
    pub macs: f64,
    /// The energy-winning dense dataflow's label, or `None` if all six
    /// were infeasible.
    pub dense_label: Option<&'static str>,
    /// Its mapping point.
    pub dense: Option<MappingPoint>,
    /// The `flex-rs` mapping point.
    pub flex: Option<MappingPoint>,
    /// The winning flex knobs `[cluster_rows, cluster_cols, replication,
    /// candidate]`.
    pub flex_knobs: Option<[usize; 4]>,
}

impl LayerVerdict {
    /// Utilization of a point on `num_pes` PEs.
    fn util(point: &Option<MappingPoint>, num_pes: usize) -> Option<f64> {
        point.map(|p| p.active_pes as f64 / num_pes as f64)
    }
}

/// The whole comparison at one operating point.
#[derive(Debug, Clone)]
pub struct FlexComparison {
    /// Batch size.
    pub batch: usize,
    /// PE count of the array (the physical 12x14 chip).
    pub num_pes: usize,
    /// Per-layer verdicts in network order.
    pub layers: Vec<LayerVerdict>,
}

impl FlexComparison {
    /// Total energy per inference under the per-layer best dense
    /// dataflow (skipping layers with no feasible mapping).
    pub fn dense_energy(&self) -> f64 {
        self.layers
            .iter()
            .filter_map(|l| l.dense.map(|d| d.energy))
            .sum()
    }

    /// Total energy per inference under `flex-rs`.
    pub fn flex_energy(&self) -> f64 {
        self.layers
            .iter()
            .filter_map(|l| l.flex.map(|f| f.energy))
            .sum()
    }

    /// Mean utilization over the depthwise layers, `(dense, flex)`.
    pub fn depthwise_utilization(&self) -> (f64, f64) {
        let dw: Vec<&LayerVerdict> = self.layers.iter().filter(|l| l.groups > 1).collect();
        if dw.is_empty() {
            return (0.0, 0.0);
        }
        let mean = |f: &dyn Fn(&LayerVerdict) -> f64| {
            dw.iter().map(|l| f(l)).sum::<f64>() / dw.len() as f64
        };
        (
            mean(&|l| LayerVerdict::util(&l.dense, self.num_pes).unwrap_or(0.0)),
            mean(&|l| LayerVerdict::util(&l.flex, self.num_pes).unwrap_or(0.0)),
        )
    }
}

/// Optimizes `layers` at `batch` on the physical chip under every dense
/// dataflow and under `flex-rs`, keeping each layer's energy winner.
pub fn run_layers(layers: &[NamedLayer], batch: usize) -> FlexComparison {
    let hw = AcceleratorConfig::eyeriss_chip();
    let flex = FlexRsModel;
    let verdicts = layers
        .iter()
        .map(|layer| {
            let problem = LayerProblem::new(layer.shape, batch);
            let mut dense: Option<(&'static str, MappingPoint)> = None;
            for kind in DataflowKind::ALL {
                let Some(cand) =
                    search::optimize(builtin(kind), &problem, &hw, &TableIv, Objective::Energy)
                else {
                    continue;
                };
                let point = MappingPoint {
                    energy: TableIv.energy_of(&cand.profile),
                    active_pes: cand.active_pes,
                };
                if dense.is_none_or(|(_, best)| point.energy < best.energy) {
                    dense = Some((kind.label(), point));
                }
            }
            let flex_cand = search::optimize(&flex, &problem, &hw, &TableIv, Objective::Energy);
            let flex_knobs = flex_cand.as_ref().and_then(|c| match c.params {
                MappingParams::Custom { knobs, .. } => Some(knobs),
                _ => None,
            });
            LayerVerdict {
                name: layer.name.clone(),
                groups: layer.shape.groups,
                macs: layer.shape.macs(batch) as f64,
                dense_label: dense.map(|(l, _)| l),
                dense: dense.map(|(_, p)| p),
                flex: flex_cand.map(|c| MappingPoint {
                    energy: TableIv.energy_of(&c.profile),
                    active_pes: c.active_pes,
                }),
                flex_knobs,
            }
        })
        .collect();
    FlexComparison {
        batch,
        num_pes: hw.num_pes(),
        layers: verdicts,
    }
}

/// The headline experiment: full MobileNet v1 at batch 1 on the
/// 168-PE chip.
pub fn run() -> FlexComparison {
    run_layers(&mobilenet::mobilenet_v1(), 1)
}

/// Renders the comparison table plus the energy/inference summary.
pub fn render(cmp: &FlexComparison) -> String {
    let mut t = TextTable::new(vec![
        "layer".into(),
        "G".into(),
        "best dense".into(),
        "dense util".into(),
        "flex util".into(),
        "dense E".into(),
        "flex E".into(),
        "flex knobs".into(),
    ]);
    let pct = |u: Option<f64>| match u {
        Some(u) => format!("{:.1}%", u * 100.0),
        None => "—".into(),
    };
    let nrg = |p: &Option<MappingPoint>| match p {
        Some(p) => format!("{:.3e}", p.energy),
        None => "—".into(),
    };
    for l in &cmp.layers {
        t.row(vec![
            l.name.clone(),
            l.groups.to_string(),
            l.dense_label.unwrap_or("—").into(),
            pct(LayerVerdict::util(&l.dense, cmp.num_pes)),
            pct(LayerVerdict::util(&l.flex, cmp.num_pes)),
            nrg(&l.dense),
            nrg(&l.flex),
            match l.flex_knobs {
                Some([cr, cc, rep, _]) => format!("{cr}x{cc} x{rep}"),
                None => "—".into(),
            },
        ]);
    }
    let (dw_dense, dw_flex) = cmp.depthwise_utilization();
    format!(
        "flex-rs vs best dense dataflow — MobileNet, batch {}, {} PEs\n{}\n\
         depthwise mean utilization: dense {:.1}% -> flex {:.1}%\n\
         energy/inference: dense {:.4e}, flex {:.4e} ({:.3}x)",
        cmp.batch,
        cmp.num_pes,
        t.render(),
        dw_dense * 100.0,
        dw_flex * 100.0,
        cmp.dense_energy(),
        cmp.flex_energy(),
        cmp.dense_energy() / cmp.flex_energy()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flex_beats_every_dense_dataflow_on_depthwise_utilization() {
        // The acceptance claim: on every MobileNet depthwise layer the
        // flex-rs winner activates strictly more PEs than the
        // energy-winning dense dataflow's.
        let cmp = run_layers(&mobilenet::depthwise_layers(), 1);
        assert_eq!(cmp.layers.len(), 13);
        for l in &cmp.layers {
            let (dense, flex) = (l.dense.unwrap(), l.flex.unwrap());
            assert!(
                flex.active_pes > dense.active_pes,
                "{}: flex {} <= dense {} ({})",
                l.name,
                flex.active_pes,
                dense.active_pes,
                l.dense_label.unwrap()
            );
            // The winner is a real cluster decomposition, not the
            // identity full-array mapping (which would just be RS): it
            // either reshapes the array (early layers, large ofmap
            // planes) or replicates groups (late layers, tiny planes).
            let [cr, cc, rep, _] = l.flex_knobs.unwrap();
            assert!(
                (cr, cc) != (12, 14) || rep > 1,
                "{} won with the identity decomposition",
                l.name
            );
        }
        let (dw_dense, dw_flex) = cmp.depthwise_utilization();
        assert!(dw_flex > dw_dense);
    }

    #[test]
    fn flex_matches_dense_rs_on_a_pointwise_layer() {
        // PW layers are ordinary (G = 1) convolutions: flex-rs contains
        // the full RS space, so it can never lose to RS there.
        let pw = mobilenet::mobilenet_v1()
            .into_iter()
            .find(|l| l.name == "PW1")
            .unwrap();
        let cmp = run_layers(&[pw], 1);
        let l = &cmp.layers[0];
        let (dense, flex) = (l.dense.unwrap(), l.flex.unwrap());
        assert!(flex.energy <= dense.energy * 1.0000001 || l.dense_label != Some("RS"));
        assert!(flex.active_pes >= 1);
    }

    #[test]
    fn render_summarizes_the_uplift() {
        let cmp = run_layers(&mobilenet::depthwise_layers()[..2], 1);
        let s = render(&cmp);
        assert!(s.contains("depthwise mean utilization"));
        assert!(s.contains("energy/inference"));
        assert!(s.contains("DW1"));
    }
}
