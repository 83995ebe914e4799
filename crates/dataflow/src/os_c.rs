//! The MOC-SOP output-stationary dataflow (OSC, Section IV-B).
//!
//! # Mapping model
//!
//! OSC processes `o_m` ofmap channels of a *single* ofmap pixel position at
//! a time (Fig. 3c), optionally replicated over `n_par` images. Each PE
//! pins one psum in its RF; each fetched ifmap value is broadcast to the
//! `o_m` channel PEs (ifmap reuse in the array — Table III) but, with only
//! one pixel position live, there is **no convolutional reuse on-chip**:
//! every window overlap is refetched from DRAM, which is why OSC's DRAM
//! traffic is among the worst in Fig. 11. Weights enjoy no RF/array reuse
//! at batch 1 — replicating over `n_par` images shares each weight
//! broadcast, which is why "the energy consumption of OSC improves
//! significantly with batch sizes larger than 1" (Section VII-B).

use crate::candidate::{MappingCandidate, MappingParams};
use crate::dataflow::{CandidateSink, Dataflow};
use crate::id::DataflowId;
use crate::kind::DataflowKind;
use crate::model::{ceil_div, factor_candidates};
use crate::split::ReuseSplit;
use eyeriss_arch::access::LayerAccessProfile;
use eyeriss_arch::config::AcceleratorConfig;
use eyeriss_nn::{LayerProblem, LayerShape};

/// The MOC-SOP mapping space.
#[derive(Debug, Clone, Copy, Default)]
pub struct OutputStationaryCModel;

impl Dataflow for OutputStationaryCModel {
    fn id(&self) -> DataflowId {
        DataflowKind::OutputStationaryC.id()
    }

    fn rf_bytes(&self) -> f64 {
        DataflowKind::OutputStationaryC.rf_bytes()
    }

    fn for_each_candidate(
        &self,
        problem: &LayerProblem,
        hw: &AcceleratorConfig,
        sink: &mut dyn CandidateSink,
    ) {
        crate::grouped::lower(problem, sink, |shape, n, sink| mappings(shape, n, hw, sink))
    }
}

/// Offers the feasible mappings of `shape` at batch `n_batch` on `hw`.
fn mappings(
    shape: &LayerShape,
    n_batch: usize,
    hw: &AcceleratorConfig,
    sink: &mut dyn CandidateSink,
) {
    let pes = hw.num_pes();
    let buf_words = hw.buffer_words();
    for &o_m in &factor_candidates(shape.m, pes) {
        for &n_par in &factor_candidates(n_batch, pes / o_m) {
            for weights_resident in [true, false] {
                if let Some(c) = evaluate(shape, n_batch, o_m, n_par, weights_resident, buf_words) {
                    sink.offer(c);
                }
            }
        }
    }
}

fn evaluate(
    shape: &LayerShape,
    n_batch: usize,
    o_m: usize,
    n_par: usize,
    weights_resident: bool,
    buf_words: usize,
) -> Option<MappingCandidate> {
    let (m_dim, c_dim, r_filt, e_dim) = (shape.m, shape.c, shape.r, shape.e);
    let window = c_dim * r_filt * r_filt;

    // The active filter group's weights plus the receptive windows of the
    // current position must be staged on chip.
    let filter_tile = if weights_resident {
        o_m * window
    } else {
        2 * window
    };
    let ifmap_tile = n_par * window;
    if filter_tile + ifmap_tile > buf_words {
        return None;
    }

    let macs = shape.macs(n_batch) as f64;
    let filter_words = shape.filter_words() as f64;
    let ofmap_words = shape.ofmap_words(n_batch) as f64;
    let m_groups = ceil_div(m_dim, o_m) as f64;
    let positions = n_batch as f64 * (e_dim * e_dim) as f64;

    let mut profile = LayerAccessProfile::new();
    profile.alu_ops = macs;

    // ---- psums: fully stationary in the RF --------------------------------
    let psplit = ReuseSplit::new(1.0, 1.0, 1.0, shape.accumulations_per_ofmap() as f64);
    profile.psum = psplit.psum_counts(ofmap_words);

    // ---- ifmaps: receptive window per position, broadcast across o_m ------
    // No convolutional reuse: overlapping windows are refetched in full.
    profile.ifmap.dram_reads = positions * m_groups * window as f64;
    profile.ifmap.buffer_reads = profile.ifmap.dram_reads;
    profile.ifmap.array_hops = macs;

    // ---- filters: reuse only across the n_par image replicas --------------
    if weights_resident {
        profile.filter.dram_reads = filter_words;
        profile.filter.buffer_reads = macs / n_par as f64;
    } else {
        profile.filter.dram_reads = macs / n_par as f64;
    }
    profile.filter.array_hops = macs;

    debug_assert!(profile.is_valid());
    Some(MappingCandidate {
        profile,
        active_pes: o_m * n_par,
        params: MappingParams::OutputStationaryC { o_m, n_par },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_arch::cost::TableIv;
    use eyeriss_nn::alexnet;

    fn hw(pes: usize) -> AcceleratorConfig {
        AcceleratorConfig::under_baseline_area(pes, DataflowKind::OutputStationaryC.rf_bytes())
    }

    fn best(shape: &LayerShape, n: usize, pes: usize) -> MappingCandidate {
        crate::model::mappings_of(&OutputStationaryCModel, shape, n, &hw(pes))
            .into_iter()
            .min_by(|a, b| {
                TableIv
                    .energy_of(&a.profile)
                    .partial_cmp(&TableIv.energy_of(&b.profile))
                    .unwrap()
            })
            .expect("OSC feasible")
    }

    #[test]
    fn conv_dram_traffic_is_high() {
        // Fig. 11: OSC's missing convolutional reuse shows up as DRAM
        // traffic an order of magnitude above RS.
        let conv2 = &alexnet::conv_layers()[1].shape;
        let b = best(conv2, 16, 256);
        let per_op = b.profile.dram_accesses() / conv2.macs(16) as f64;
        assert!(
            per_op > 0.003,
            "OSC CONV DRAM/op {per_op:.5} suspiciously low"
        );
    }

    #[test]
    fn batch_replication_helps_weights() {
        // Section VII-B: OSC improves significantly with batch > 1.
        let conv3 = &alexnet::conv_layers()[2].shape;
        let e1 = TableIv.energy_of(&best(conv3, 1, 1024).profile) / conv3.macs(1) as f64;
        let e16 = TableIv.energy_of(&best(conv3, 16, 1024).profile) / conv3.macs(16) as f64;
        assert!(e16 < 0.8 * e1, "N=16 {e16:.2} vs N=1 {e1:.2}");
    }

    #[test]
    fn active_pes_capped_by_channels_at_batch_1() {
        // Fig. 13: at batch 1 the maximum active PEs is M.
        let conv1 = &alexnet::conv_layers()[0].shape; // M = 96
        for c in crate::model::mappings_of(&OutputStationaryCModel, conv1, 1, &hw(1024)) {
            assert!(c.active_pes <= 96);
        }
    }

    #[test]
    fn fc_ifmap_reads_have_no_conv_penalty() -> Result<(), crate::candidate::ParamsMismatch> {
        // FC layers have R = H: each position reads the whole input once,
        // so OSC's window refetch penalty vanishes (it suits FC).
        let fc2 = &alexnet::fc_layers()[1].shape;
        let b = best(fc2, 16, 1024);
        // A non-OSC candidate propagates as the typed mismatch instead of
        // aborting; after `?` the variant is guaranteed.
        let &MappingParams::OutputStationaryC { o_m, .. } =
            b.params.expect_kind(DataflowKind::OutputStationaryC)?
        else {
            unreachable!("expect_kind verified the variant")
        };
        let groups = (fc2.m as f64 / o_m as f64).ceil();
        assert_eq!(
            b.profile.ifmap.dram_reads,
            fc2.ifmap_words(16) as f64 * groups
        );
        Ok(())
    }

    #[test]
    fn psums_stay_in_rf() {
        let conv5 = &alexnet::conv_layers()[4].shape;
        let b = best(conv5, 16, 256);
        assert_eq!(b.profile.psum.buffer_reads, 0.0);
        assert_eq!(b.profile.psum.array_hops, 0.0);
    }
}
