//! `flex-rs`: an Eyeriss-v2-style flexible row-stationary mapping space.
//!
//! The paper's RS dataflow (Section V) assumes layers wide enough to fill
//! the array with logical PE sets. MobileNet-class networks break that
//! assumption: a depthwise layer is `G` independent single-channel
//! convolutions (`M = C = 1` per group), so a per-group RS set degenerates
//! to `R x E` PEs and the crate's sequential-group lowering
//! leaves the rest of the array dark. Eyeriss v2 ("Eyeriss v2: A Flexible
//! Accelerator for Emerging Deep Neural Networks on Mobile Devices",
//! arXiv:1807.07928) answers with a *hierarchical* organization: the array
//! is carved into PE clusters joined by a mesh of router clusters, and a
//! mapping may replicate a small RS tiling across clusters to recover
//! utilization.
//!
//! # Mapping model
//!
//! A candidate is described by four knobs (serialized through
//! [`MappingParams::Custom`]):
//!
//! * `k0 = cr` — PE-cluster rows; divides the array rows.
//! * `k1 = cc` — PE-cluster columns; divides the array columns, giving
//!   `n_clusters = (rows/cr)·(cols/cc)` clusters.
//! * `k2 = rep` — replication: how many *gangs* run different groups of a
//!   grouped convolution concurrently. Divides both `n_clusters` (gangs
//!   own whole clusters) and `G` (every gang executes `G/rep` groups
//!   sequentially, so no gang idles on a ragged final round).
//! * `k3 = idx` — index into the deterministic per-gang RS enumeration
//!   (the full one: the search counts the feasible candidates of pruned
//!   groups without pricing them, so the index never depends on what
//!   was pruned).
//!
//! Each gang owns `cpg = n_clusters/rep` clusters, modeled as a logical
//! `cr x (cc·cpg)` sub-array with a `1/rep` slice of the global buffer, and
//! runs the classic [`RowStationaryModel`](crate::rs::RowStationaryModel)
//! tiling (and its bounds, lifted the same way) on the *per-group* layer
//! shape. The whole-layer profile is the per-gang, per-group profile scaled
//! by `G` (total work is exact), with array-level hops inflated by
//! [`mesh_routing_factor`] to charge words that cross router-cluster
//! boundaries inside a multi-cluster gang. Active PEs are
//! `rep x` the per-gang count, which is what restores utilization: on a
//! 12x14 array a 3x3 depthwise layer maps at best `3·14 = 42` active PEs
//! under dense RS, while `cr = 3, cc = 1, rep = 8` lights all 168.
//!
//! Dense layers (`G = 1`) force `rep = 1`; the `cr = rows, cc = cols`
//! single-cluster knob then reproduces the RS space exactly (mesh factor
//! 1), so `flex-rs` never loses to RS where RS is already optimal.
//!
//! `flex-rs` is deliberately *not* in [`crate::DataflowKind`]: it registers
//! through [`crate::DataflowRegistry`] like any third-party space, which is
//! the proof that the optimizer, cluster planner and serving compiler need
//! zero changes to carry a seventh dataflow.

use crate::candidate::MappingParams;
use crate::dataflow::{CandidateSink, Dataflow};
use crate::grouped::Lift;
use crate::id::DataflowId;
use crate::kind::DataflowKind;
use eyeriss_arch::config::{AcceleratorConfig, GridDims};
use eyeriss_nn::LayerProblem;
use std::cell::Cell;

/// The identity `flex-rs` registers, searches and serializes under.
pub const FLEX_RS: DataflowId = DataflowId::new("flex-rs");

/// Average extra array-NoC cost of a gang spanning `cpg` PE clusters of
/// `cr x cc` PEs each.
///
/// Hops inside a cluster ride the local all-to-all fabric and cost one
/// array-level delivery, exactly like the paper's single-bus model. A word
/// leaving its source cluster additionally traverses router-to-router
/// links; with clusters arranged in a line the mean distance between two
/// of a gang's `cpg` clusters is `(cpg - 1)/2` links, and roughly one in
/// `cr·cc` deliveries crosses a cluster boundary (boundary PEs over
/// cluster area). The factor multiplies `array_hops`, reducing to exactly
/// 1 for a single-cluster gang. The hierarchical-mesh simulator
/// (`eyeriss-sim`) charges its hop counts with the same closed form so the
/// analytical and simulated NoC costs agree.
pub fn mesh_routing_factor(
    cluster_rows: usize,
    cluster_cols: usize,
    clusters_per_gang: usize,
) -> f64 {
    debug_assert!(cluster_rows > 0 && cluster_cols > 0 && clusters_per_gang > 0);
    1.0 + (clusters_per_gang - 1) as f64 / (2.0 * (cluster_rows * cluster_cols) as f64)
}

/// Sorted divisors of `n`.
fn divisors(n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut k = 1usize;
    while k * k <= n {
        if n.is_multiple_of(k) {
            out.push(k);
            if k != n / k {
                out.push(n / k);
            }
        }
        k += 1;
    }
    out.sort_unstable();
    out
}

/// The flexible row-stationary mapping space.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlexRsModel;

impl Dataflow for FlexRsModel {
    fn id(&self) -> DataflowId {
        FLEX_RS
    }

    fn rf_bytes(&self) -> f64 {
        // Same PE scratchpads as RS: the v2 PE keeps the RS register
        // hierarchy and changes the network around it.
        DataflowKind::RowStationary.rf_bytes()
    }

    fn for_each_candidate(
        &self,
        problem: &LayerProblem,
        hw: &AcceleratorConfig,
        sink: &mut dyn CandidateSink,
    ) {
        let g = problem.shape.groups.max(1);
        let per_group = problem.shape.per_group();
        let (rows, cols) = (hw.grid.rows, hw.grid.cols);
        for &cr in &divisors(rows) {
            for &cc in &divisors(cols) {
                let n_clusters = (rows / cr) * (cols / cc);
                for &rep in &divisors(n_clusters) {
                    if !g.is_multiple_of(rep) {
                        continue;
                    }
                    let cpg = n_clusters / rep;
                    let gang_hw = AcceleratorConfig {
                        grid: GridDims::new(cr, cc * cpg),
                        rf_bytes_per_pe: hw.rf_bytes_per_pe,
                        buffer_bytes: hw.buffer_bytes / rep as f64,
                    };
                    let ordinal = Cell::new(0);
                    let relabel = || MappingParams::Custom {
                        id: FLEX_RS,
                        knobs: [cr, cc, rep, ordinal.get()],
                    };
                    let mut gang = Lift {
                        inner: &mut *sink,
                        groups: g as f64,
                        mesh: mesh_routing_factor(cr, cc, cpg),
                        rep,
                        relabel: Some(&relabel),
                    };
                    crate::rs::fold(
                        &per_group,
                        problem.batch,
                        &gang_hw,
                        &mut gang,
                        Some(&ordinal),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rs::RowStationaryModel;
    use crate::search::{self, Objective};
    use eyeriss_arch::TableIv;
    use eyeriss_nn::LayerShape;

    fn chip() -> AcceleratorConfig {
        AcceleratorConfig::eyeriss_chip()
    }

    fn depthwise_problem() -> LayerProblem {
        // MobileNet DW2-style layer on the 12x14 chip: 64 channels, 3x3.
        LayerProblem::new(LayerShape::depthwise(64, 58, 3, 1).unwrap(), 1)
    }

    #[test]
    fn identity_and_rf_match_the_design() {
        assert_eq!(FlexRsModel.id().label(), "flex-rs");
        assert_eq!(
            FlexRsModel.rf_bytes(),
            DataflowKind::RowStationary.rf_bytes()
        );
    }

    #[test]
    fn mesh_factor_is_one_for_a_single_cluster() {
        assert_eq!(mesh_routing_factor(12, 14, 1), 1.0);
        assert!(mesh_routing_factor(3, 1, 7) > 1.0);
    }

    #[test]
    fn dense_layers_contain_the_rs_space() {
        // The cr=rows, cc=cols, rep=1 knob is plain RS with mesh factor 1:
        // every RS candidate's profile and PE count must appear verbatim.
        let hw = chip();
        let p = LayerProblem::new(LayerShape::conv(32, 16, 14, 3, 1).unwrap(), 2);
        let rs_cands = RowStationaryModel.enumerate(&p, &hw);
        let flex: Vec<_> = FlexRsModel
            .enumerate(&p, &hw)
            .into_iter()
            .filter(|c| {
                matches!(
                    c.params,
                    MappingParams::Custom {
                        knobs: [12, 14, 1, _],
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(flex.len(), rs_cands.len());
        for (f, r) in flex.iter().zip(&rs_cands) {
            assert_eq!(f.profile, r.profile);
            assert_eq!(f.active_pes, r.active_pes);
        }
    }

    #[test]
    fn dense_layers_never_replicate() {
        let hw = chip();
        let p = LayerProblem::new(LayerShape::conv(8, 4, 13, 3, 1).unwrap(), 1);
        for c in FlexRsModel.enumerate(&p, &hw) {
            let MappingParams::Custom { knobs, .. } = c.params else {
                panic!("flex candidates carry custom params");
            };
            assert_eq!(knobs[2], 1, "G=1 admits no replication");
        }
    }

    #[test]
    fn replication_divides_the_group_count() {
        let hw = chip();
        let p = depthwise_problem();
        let cands = FlexRsModel.enumerate(&p, &hw);
        assert!(!cands.is_empty());
        let mut saw_replication = false;
        for c in &cands {
            let MappingParams::Custom { knobs, .. } = c.params else {
                panic!("flex candidates carry custom params");
            };
            assert!(64usize.is_multiple_of(knobs[2]), "rep={} !| G=64", knobs[2]);
            saw_replication |= knobs[2] > 1;
            assert_eq!(c.profile.alu_ops, p.macs() as f64);
        }
        assert!(saw_replication);
    }

    #[test]
    fn depthwise_utilization_beats_dense_rs() {
        // Dense RS on a depthwise group (M = C = 1) caps at R·cols active
        // PEs; replication across clusters must fill the whole array.
        let hw = chip();
        let p = depthwise_problem();
        let rs_max = RowStationaryModel
            .enumerate(&p, &hw)
            .iter()
            .map(|c| c.active_pes)
            .max()
            .unwrap();
        let flex_max = FlexRsModel
            .enumerate(&p, &hw)
            .iter()
            .map(|c| c.active_pes)
            .max()
            .unwrap();
        assert!(rs_max <= 3 * hw.grid.cols);
        assert_eq!(flex_max, hw.num_pes(), "some knob lights every PE");
    }

    #[test]
    fn optimizer_picks_high_utilization_on_depthwise() {
        // Through the ordinary search machinery (no flex-specific code),
        // the energy-optimal flex mapping keeps more PEs busy than the
        // energy-optimal dense RS mapping.
        let hw = chip();
        let p = depthwise_problem();
        let best_rs =
            search::optimize(&RowStationaryModel, &p, &hw, &TableIv, Objective::Energy).unwrap();
        let best_flex =
            search::optimize(&FlexRsModel, &p, &hw, &TableIv, Objective::Energy).unwrap();
        assert!(
            best_flex.active_pes > best_rs.active_pes,
            "flex {} <= rs {}",
            best_flex.active_pes,
            best_rs.active_pes
        );
    }

    #[test]
    fn knobs_are_unique_and_model_rederives() {
        let hw = chip();
        let p = depthwise_problem();
        let cands = FlexRsModel.enumerate(&p, &hw);
        let mut seen = std::collections::HashSet::new();
        for c in &cands {
            assert!(seen.insert(c.params), "duplicate knobs {}", c.params);
            FlexRsModel.validate(c, &hw).unwrap();
        }
        for c in cands.iter().step_by(cands.len() / 5 + 1) {
            let again = FlexRsModel.model(&c.params, &p, &hw).unwrap();
            assert_eq!(&again, c);
        }
    }

    #[test]
    fn registry_carries_flex_as_a_seventh_space() {
        let mut reg = crate::DataflowRegistry::builtin();
        reg.register(std::sync::Arc::new(FlexRsModel)).unwrap();
        assert_eq!(reg.len(), 7);
        let df = reg.by_label("flex-rs").unwrap();
        assert_eq!(df.id(), FLEX_RS);
    }
}
