//! Ablation: sensitivity of the dataflow ranking to the Table IV energy
//! costs.
//!
//! Section VI-D concedes that the per-level costs are approximations
//! ("the real cost varies due to the actual implementation required by
//! each dataflow") and argues the results are conservative for RS. This
//! experiment re-runs the CONV comparison under perturbed cost models —
//! halving/doubling the DRAM and buffer costs — and checks whether RS
//! keeps winning, quantifying how much headroom the conclusion has.
//!
//! The perturbed models are ordinary [`CostModel`]s in a
//! [`CostModelRegistry`]: the same values could equally be handed to
//! `Engine::builder().cost_model(..)` to search, plan and serve under a
//! scenario end to end.

use crate::metrics::DataflowRun;
use crate::runner::run_layers_priced;
use eyeriss_arch::cost::{CostModel, CostModelRegistry, TableIv};
use eyeriss_arch::energy::EnergyModel;
use eyeriss_dataflow::DataflowKind;
use eyeriss_nn::alexnet;
use eyeriss_nn::shape::NamedLayer;

/// One perturbed cost model and the resulting per-dataflow energies.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario label (the cost model's registry id).
    pub label: String,
    /// The perturbed model, as registered.
    pub model: CostModel,
    /// Energy/op per dataflow, in [`DataflowKind::ALL`] order (`None` =
    /// cannot operate).
    pub energy_per_op: Vec<Option<f64>>,
}

impl Scenario {
    /// RS's advantage over the best competitor (>1 means RS wins).
    pub fn rs_margin(&self) -> f64 {
        let rs = self.energy_per_op[0].expect("RS always operates");
        let best_other = self.energy_per_op[1..]
            .iter()
            .flatten()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        best_other / rs
    }
}

fn perturbed(label: &'static str, dram: f64, buffer: f64, array: f64) -> CostModel {
    CostModel::new(
        label,
        EnergyModel::new(dram, buffer, array, 1.0, 1.0).expect("scenario costs are ordered"),
    )
}

/// The perturbed models — Table IV plus DRAM and buffer scalings — as a
/// [`CostModelRegistry`], in scenario order.
pub fn scenario_registry() -> CostModelRegistry {
    let mut reg = CostModelRegistry::empty();
    reg.register(TableIv).expect("empty registry");
    for model in [
        perturbed("DRAM x0.5", 100.0, 6.0, 2.0),
        perturbed("DRAM x2", 400.0, 6.0, 2.0),
        perturbed("Buffer x0.5", 200.0, 3.0, 2.0),
        perturbed("Buffer x2", 200.0, 12.0, 4.0),
        perturbed("Flat on-chip", 200.0, 2.0, 2.0),
    ] {
        reg.register(model).expect("scenario ids are unique");
    }
    reg
}

fn run_with_model(
    kind: DataflowKind,
    layers: &[NamedLayer],
    batch: usize,
    num_pes: usize,
    cost: CostModel,
) -> Option<DataflowRun> {
    let hw = eyeriss_arch::AcceleratorConfig::under_baseline_area(num_pes, kind.rf_bytes());
    run_layers_priced(kind, layers, batch, &hw, cost)
}

/// Runs the sensitivity study on the AlexNet CONV layers (256 PEs, N=16).
pub fn run() -> Vec<Scenario> {
    let layers = alexnet::conv_layers();
    scenario_registry()
        .iter()
        .map(|model| {
            let energy_per_op = DataflowKind::ALL
                .iter()
                .map(|&k| run_with_model(k, &layers, 16, 256, *model).map(|r| r.energy_per_op()))
                .collect();
            Scenario {
                label: model.id().label().to_string(),
                model: *model,
                energy_per_op,
            }
        })
        .collect()
}

/// Renders the study.
pub fn render(scenarios: &[Scenario]) -> String {
    use crate::table::TextTable;
    let mut header: Vec<String> = vec!["scenario".into()];
    header.extend(DataflowKind::ALL.iter().map(|k| k.label().to_string()));
    header.push("RS margin".into());
    let mut t = TextTable::new(header);
    for s in scenarios {
        let mut row = vec![s.label.clone()];
        for e in &s.energy_per_op {
            row.push(match e {
                Some(v) => format!("{v:.2}"),
                None => "—".into(),
            });
        }
        row.push(format!("{:.2}x", s.rs_margin()));
        t.row(row);
    }
    format!(
        "Ablation — energy-cost sensitivity (AlexNet CONV, 256 PEs, N=16; energy/op)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rs_wins_under_every_perturbation() {
        // Section VI-D: "we find our results to be conservative for RS".
        for s in run() {
            assert!(
                s.rs_margin() > 1.0,
                "{}: RS margin {:.2}",
                s.label,
                s.rs_margin()
            );
        }
    }

    #[test]
    fn dram_cost_drives_ws_penalty() {
        // WS is DRAM-heavy: doubling DRAM cost must widen its gap to RS.
        let all = run();
        let base = &all[0];
        let dram2 = all.iter().find(|s| s.label == "DRAM x2").unwrap();
        let gap = |s: &Scenario| s.energy_per_op[1].unwrap() / s.energy_per_op[0].unwrap();
        assert!(gap(dram2) > gap(base));
    }

    #[test]
    fn scenario_table_lists_all() {
        let s = run();
        let text = render(&s);
        for model in scenario_registry().iter() {
            assert!(
                text.contains(model.id().label()),
                "{} missing",
                model.id().label()
            );
        }
    }

    #[test]
    fn scenarios_are_registered_models() {
        let reg = scenario_registry();
        assert_eq!(reg.len(), 6);
        assert!(reg.get(TableIv.id()).is_some());
        // The first scenario is the canonical model itself.
        let s = run();
        assert_eq!(s[0].label, "table-iv");
        assert_eq!(s[0].model.fingerprint(), TableIv.fingerprint());
    }
}
