//! Fig. 10: energy breakdown of the RS dataflow across the storage
//! hierarchy for all 8 AlexNet CONV/FC layers.
//!
//! Setup (Section VII-A): 256 PEs, 512 B RF per PE, 128 kB buffer,
//! batch size 16; energy normalized to one MAC.

use crate::metrics::DataflowRun;
use crate::runner;
use crate::table::TextTable;
use eyeriss_arch::energy::Level;
use eyeriss_dataflow::DataflowKind;
use eyeriss_nn::alexnet;

/// Per-layer energy stack (absolute, MAC units, whole batch).
#[derive(Debug, Clone)]
pub struct LayerBreakdown {
    /// Layer name.
    pub name: String,
    /// Energy per level in `Level::ALL` order (DRAM, buffer, array, RF, ALU).
    pub by_level: [f64; 5],
}

impl LayerBreakdown {
    /// Total layer energy.
    pub fn total(&self) -> f64 {
        self.by_level.iter().sum()
    }
}

/// The Fig. 10 data: one breakdown per AlexNet layer.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Breakdown per layer in network order (CONV1..FC3).
    pub layers: Vec<LayerBreakdown>,
    /// The underlying run (exposes mappings and raw counts).
    pub run: DataflowRun,
}

/// Runs the Fig. 10 experiment.
pub fn run() -> Fig10 {
    let run = runner::run_layers(DataflowKind::RowStationary, &alexnet::all_layers(), 16, 256)
        .expect("RS is feasible on all AlexNet layers");
    let layers = run
        .layers
        .iter()
        .map(|l| {
            let report = l.report(&run.cost);
            let mut by_level = [0.0; 5];
            for (i, &level) in Level::ALL.iter().enumerate() {
                by_level[i] = report.energy_at(level);
            }
            // Reorder to the figure's legend: ALU, DRAM, Buffer, Array, RF.
            LayerBreakdown {
                name: l.name.clone(),
                by_level,
            }
        })
        .collect();
    Fig10 { layers, run }
}

/// Renders the Fig. 10 stacks (energy in units of 1e9 MACs, like the
/// paper's 1e10 axis at batch 16).
pub fn render(data: &Fig10) -> String {
    let mut t = TextTable::new(vec![
        "layer".into(),
        "ALU".into(),
        "DRAM".into(),
        "Buffer".into(),
        "Array".into(),
        "RF".into(),
        "total".into(),
    ]);
    for l in &data.layers {
        // by_level is in Level::ALL order: DRAM, Buffer, Array, RF, ALU.
        let giga = |v: f64| format!("{:.3}", v / 1e9);
        t.row(vec![
            l.name.clone(),
            giga(l.by_level[4]),
            giga(l.by_level[0]),
            giga(l.by_level[1]),
            giga(l.by_level[2]),
            giga(l.by_level[3]),
            giga(l.total()),
        ]);
    }
    format!(
        "Fig. 10 — RS energy breakdown on AlexNet (256 PEs, N=16; units of 1e9 MAC-energy)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_layers_dominated_by_rf() {
        let data = run();
        for l in &data.layers[..5] {
            let rf = l.by_level[3];
            let dram = l.by_level[0];
            assert!(rf > dram, "{}: RF {rf:.2e} <= DRAM {dram:.2e}", l.name);
        }
    }

    #[test]
    fn fc_layers_dominated_by_dram() {
        let data = run();
        for l in &data.layers[5..] {
            let rf = l.by_level[3];
            let dram = l.by_level[0];
            assert!(dram > rf, "{}: DRAM {dram:.2e} <= RF {rf:.2e}", l.name);
        }
    }

    #[test]
    fn conv_consumes_about_80_percent_of_total() {
        // Section VII-A: "CONV layers still consume approximately 80% of
        // total energy in AlexNet".
        let data = run();
        let conv: f64 = data.layers[..5].iter().map(|l| l.total()).sum();
        let all: f64 = data.layers.iter().map(|l| l.total()).sum();
        let frac = conv / all;
        assert!((0.6..0.95).contains(&frac), "CONV fraction {frac:.2}");
    }

    #[test]
    fn render_contains_all_layers() {
        let data = run();
        let s = render(&data);
        for name in ["CONV1", "CONV5", "FC1", "FC3"] {
            assert!(s.contains(name));
        }
    }
}
