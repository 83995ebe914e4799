//! Cluster scaling (beyond the paper): a CNN partitioned across
//! 1/2/4/8 Eyeriss arrays under several partition strategies.
//!
//! Two complementary views:
//!
//! * [`run_alexnet`]/[`run_vgg`] — the analytic sweep: every CONV layer
//!   is `(partition, mapping)`-planned by `eyeriss_cluster::plan` on each
//!   cluster size, for each fixed elementary strategy plus the free
//!   per-layer search. Reports energy/op, delay/op and speedup.
//! * [`simulate`] — the measured view: a CONV1-geometry slice executed by
//!   the functional cluster executor, reporting *per-array* energy and
//!   cycle aggregates, imbalance and shared-DRAM contention stalls.

use crate::table::TextTable;
use eyeriss_arch::cost::{CostModel, TableIv};
use eyeriss_arch::AcceleratorConfig;
use eyeriss_cluster::partition::Partition;
use eyeriss_cluster::{plan_layer, plan_partition, Cluster, SharedDram};
use eyeriss_dataflow::registry::builtin;
use eyeriss_dataflow::search::Objective;
use eyeriss_dataflow::DataflowKind;
use eyeriss_nn::shape::NamedLayer;
use eyeriss_nn::{alexnet, synth, vgg, LayerProblem, LayerShape};

/// Cluster sizes swept.
pub const ARRAY_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Batch size of the analytic sweep (the paper's central operating point).
pub const BATCH: usize = 16;

/// One (strategy, array count) operating point of the analytic sweep.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Number of arrays.
    pub arrays: usize,
    /// Total normalized energy per MAC across all layers.
    pub energy_per_op: f64,
    /// Summed per-layer cluster delay per MAC.
    pub delay_per_op: f64,
    /// Layers whose delay is bound by the shared DRAM channel, not
    /// compute.
    pub bandwidth_bound_layers: usize,
}

impl ScalingPoint {
    /// Energy-delay product per op².
    pub fn edp_per_op(&self) -> f64 {
        self.energy_per_op * self.delay_per_op
    }
}

/// One partition strategy's scaling curve. `points[i]` corresponds to
/// [`ARRAY_COUNTS`]`[i]`; `None` marks an infeasible (strategy, size).
#[derive(Debug, Clone)]
pub struct StrategySeries {
    /// Strategy name ("batch", "ofmap-ch", "fmap-tile" or "best").
    pub strategy: String,
    /// One point per entry of [`ARRAY_COUNTS`].
    pub points: Vec<Option<ScalingPoint>>,
}

/// The analytic sweep over one network's CONV layers.
#[derive(Debug, Clone)]
pub struct ClusterSweep {
    /// Network name.
    pub network: String,
    /// Total MACs at [`BATCH`].
    pub total_macs: f64,
    /// One series per strategy (three fixed + free search).
    pub series: Vec<StrategySeries>,
}

impl ClusterSweep {
    /// Speedup of `strategy` at `arrays` relative to its own single-array
    /// point (delay ratio), if both points exist.
    pub fn speedup(&self, strategy: &str, arrays: usize) -> Option<f64> {
        let s = self.series.iter().find(|s| s.strategy == strategy)?;
        let base = s.points[0].as_ref()?.delay_per_op;
        let idx = ARRAY_COUNTS.iter().position(|&a| a == arrays)?;
        Some(base / s.points[idx].as_ref()?.delay_per_op)
    }
}

fn sweep_layers(network: &str, layers: &[NamedLayer]) -> ClusterSweep {
    let em = TableIv;
    let hw = AcceleratorConfig::eyeriss_chip();
    let total_macs: f64 = layers.iter().map(|l| l.shape.macs(BATCH) as f64).sum();
    let fixed = [
        Partition::Batch,
        Partition::OfmapChannel,
        Partition::FmapTile,
    ];
    let mut series = Vec::new();
    for p in fixed {
        series.push(StrategySeries {
            strategy: p.label(),
            points: ARRAY_COUNTS
                .iter()
                .map(|&arrays| point_for(layers, total_macs, arrays, Some(p), &hw, &em))
                .collect(),
        });
    }
    series.push(StrategySeries {
        strategy: "best".to_string(),
        points: ARRAY_COUNTS
            .iter()
            .map(|&arrays| point_for(layers, total_macs, arrays, None, &hw, &em))
            .collect(),
    });
    ClusterSweep {
        network: network.to_string(),
        total_macs,
        series,
    }
}

/// Plans every layer under one strategy (`None` = free per-layer search);
/// `None` overall if any layer is infeasible under a fixed strategy.
fn point_for(
    layers: &[NamedLayer],
    total_macs: f64,
    arrays: usize,
    strategy: Option<Partition>,
    hw: &AcceleratorConfig,
    em: &CostModel,
) -> Option<ScalingPoint> {
    let shared = SharedDram::scaled(arrays);
    let mut energy = 0.0f64;
    let mut delay = 0.0f64;
    let mut bound = 0usize;
    for layer in layers {
        let rs = builtin(DataflowKind::RowStationary);
        let problem = LayerProblem::new(layer.shape, BATCH);
        let plan = match strategy {
            Some(p) => plan_partition(
                rs,
                p,
                &problem,
                arrays,
                hw,
                em,
                &shared,
                Objective::EnergyDelayProduct,
            )?,
            None => plan_layer(
                rs,
                &problem,
                arrays,
                hw,
                em,
                &shared,
                Objective::EnergyDelayProduct,
            )?,
        };
        energy += plan.energy;
        delay += plan.delay;
        bound += usize::from(plan.bandwidth_bound());
    }
    Some(ScalingPoint {
        arrays,
        energy_per_op: energy / total_macs,
        delay_per_op: delay / total_macs,
        bandwidth_bound_layers: bound,
    })
}

/// The analytic sweep over AlexNet's five CONV layers.
pub fn run_alexnet() -> ClusterSweep {
    sweep_layers("AlexNet", &alexnet::conv_layers())
}

/// The analytic sweep over VGG-16's CONV layers.
pub fn run_vgg() -> ClusterSweep {
    sweep_layers("VGG-16", &vgg::conv_layers())
}

/// Renders an analytic sweep as a text table.
pub fn render(sweep: &ClusterSweep) -> String {
    let mut t = TextTable::new(vec![
        "strategy".into(),
        "arrays".into(),
        "energy/op".into(),
        "delay/op".into(),
        "speedup".into(),
        "EDP/op²".into(),
        "BW-bound".into(),
    ]);
    for s in &sweep.series {
        for (i, point) in s.points.iter().enumerate() {
            let arrays = ARRAY_COUNTS[i];
            match point {
                Some(p) => t.row(vec![
                    s.strategy.clone(),
                    arrays.to_string(),
                    format!("{:.3}", p.energy_per_op),
                    format!("{:.4}", p.delay_per_op),
                    format!(
                        "{:.2}x",
                        sweep.speedup(&s.strategy, arrays).unwrap_or(f64::NAN)
                    ),
                    format!("{:.4}", p.edp_per_op()),
                    format!("{}", p.bandwidth_bound_layers),
                ]),
                None => t.row(vec![
                    s.strategy.clone(),
                    arrays.to_string(),
                    "—".into(),
                    "—".into(),
                    "—".into(),
                    "—".into(),
                    "infeasible".into(),
                ]),
            }
        }
    }
    format!(
        "Cluster scaling — {} CONV layers, batch {BATCH}, RS mapping per array\n{}",
        sweep.network,
        t.render()
    )
}

/// One measured (partition, array count) point from the functional
/// cluster executor.
#[derive(Debug, Clone)]
pub struct SimPoint {
    /// Number of arrays.
    pub arrays: usize,
    /// Partition strategy executed.
    pub partition: Partition,
    /// Per-array normalized energy (sum over that array's tiles).
    pub per_array_energy: Vec<f64>,
    /// Per-array total cycles (compute + per-array DRAM stalls).
    pub per_array_cycles: Vec<u64>,
    /// Cluster makespan including shared-DRAM contention stalls.
    pub cluster_cycles: u64,
    /// Shared-channel contention stalls.
    pub contention_stalls: u64,
    /// Critical-path / mean busy-array cycles.
    pub imbalance: f64,
}

/// Executes `shape` (batch `n`) on every cluster size in [`ARRAY_COUNTS`]
/// under each elementary partition, measuring per-array aggregates.
/// Infeasible (partition, size) combinations are skipped.
pub fn simulate_shape(shape: &LayerShape, n: usize) -> Vec<SimPoint> {
    let em = TableIv;
    let input = synth::ifmap(shape, n, 11);
    let weights = synth::filters(shape, 12);
    let bias = synth::biases(shape, 13);
    let mut out = Vec::new();
    for &arrays in &ARRAY_COUNTS {
        for p in Partition::ELEMENTARY {
            let cluster = Cluster::new(arrays, AcceleratorConfig::eyeriss_chip())
                .shared_dram(SharedDram::scaled(arrays));
            let problem = LayerProblem::new(*shape, n);
            let Ok(run) = cluster.execute_partition(p, &problem, &input, &weights, &bias) else {
                continue;
            };
            out.push(SimPoint {
                arrays,
                partition: p,
                per_array_energy: run.stats.per_array.iter().map(|s| s.energy(&em)).collect(),
                per_array_cycles: run
                    .stats
                    .per_array
                    .iter()
                    .map(|s| s.total_cycles())
                    .collect(),
                cluster_cycles: run.stats.cluster_cycles(),
                contention_stalls: run.stats.contention_stalls,
                imbalance: run.stats.imbalance(),
            });
        }
    }
    out
}

/// [`simulate_shape`] on an AlexNet-CONV1-geometry slice (same 11x11
/// stride-4 plane, reduced channels) at batch 8 — large enough that every
/// partition has work per array, small enough to simulate quickly.
pub fn simulate() -> Vec<SimPoint> {
    let conv1 = LayerShape::conv(8, 3, 227, 11, 4).expect("CONV1 geometry is valid");
    simulate_shape(&conv1, 8)
}

/// Renders measured points as a text table (one row per array).
pub fn render_sim(points: &[SimPoint]) -> String {
    let mut t = TextTable::new(vec![
        "partition".into(),
        "arrays".into(),
        "array".into(),
        "energy".into(),
        "cycles".into(),
        "cluster cycles".into(),
        "contention".into(),
        "imbalance".into(),
    ]);
    for p in points {
        for (a, (e, c)) in p
            .per_array_energy
            .iter()
            .zip(&p.per_array_cycles)
            .enumerate()
        {
            t.row(vec![
                p.partition.label(),
                p.arrays.to_string(),
                a.to_string(),
                format!("{e:.3e}"),
                c.to_string(),
                if a == 0 {
                    p.cluster_cycles.to_string()
                } else {
                    String::new()
                },
                if a == 0 {
                    p.contention_stalls.to_string()
                } else {
                    String::new()
                },
                if a == 0 {
                    format!("{:.2}", p.imbalance)
                } else {
                    String::new()
                },
            ]);
        }
    }
    format!(
        "Cluster execution — measured per-array aggregates\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alexnet_sweep_has_all_strategies_and_sizes() {
        let sweep = run_alexnet();
        assert_eq!(sweep.series.len(), 4);
        for s in &sweep.series {
            assert_eq!(s.points.len(), ARRAY_COUNTS.len());
            // Single array is always feasible (identity partition).
            assert!(
                s.points[0].is_some(),
                "{} infeasible at 1 array",
                s.strategy
            );
        }
        // The free search dominates or matches every fixed strategy.
        let best = sweep.series.last().unwrap();
        for (i, point) in best.points.iter().enumerate() {
            let b = point.as_ref().expect("best is always feasible");
            for s in &sweep.series[..3] {
                if let Some(p) = &s.points[i] {
                    assert!(
                        b.edp_per_op() <= p.edp_per_op() * (1.0 + 1e-9),
                        "best worse than {} at {} arrays",
                        s.strategy,
                        ARRAY_COUNTS[i]
                    );
                }
            }
        }
    }

    #[test]
    fn scaling_reduces_delay_not_energy() {
        let sweep = run_alexnet();
        let best = sweep.series.last().unwrap();
        let one = best.points[0].as_ref().unwrap();
        let eight = best.points[3].as_ref().unwrap();
        assert!(
            eight.delay_per_op < one.delay_per_op / 3.0,
            "8 arrays only {:.2}x faster",
            one.delay_per_op / eight.delay_per_op
        );
        // Energy stays in the same regime — parallelism is not free energy.
        assert!((0.5..2.0).contains(&(eight.energy_per_op / one.energy_per_op)));
    }

    #[test]
    fn render_mentions_every_strategy() {
        let s = render(&run_alexnet());
        for name in ["batch", "ofmap-ch", "fmap-tile", "best"] {
            assert!(s.contains(name), "missing {name}");
        }
    }

    #[test]
    fn simulated_points_cover_three_strategies() {
        // A small CONV keeps the functional simulation fast in tests.
        let shape = LayerShape::conv(8, 3, 19, 3, 2).unwrap();
        let points = simulate_shape(&shape, 8);
        for &arrays in &ARRAY_COUNTS {
            let strategies: Vec<_> = points
                .iter()
                .filter(|p| p.arrays == arrays)
                .map(|p| p.partition)
                .collect();
            assert!(
                strategies.len() >= 3,
                "only {} strategies at {} arrays",
                strategies.len(),
                arrays
            );
        }
        let four_batch = points
            .iter()
            .find(|p| p.arrays == 4 && p.partition == Partition::Batch)
            .unwrap();
        assert_eq!(four_batch.per_array_cycles.len(), 4);
        assert!(four_batch.per_array_energy.iter().all(|&e| e > 0.0));
        let one = points
            .iter()
            .find(|p| p.arrays == 1 && p.partition == Partition::Batch)
            .unwrap();
        assert!(four_batch.cluster_cycles < one.cluster_cycles);
        assert!(!render_sim(&points).is_empty());
    }
}
