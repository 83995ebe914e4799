//! The weight-stationary (WS) dataflow (Section IV-A).
//!
//! # Mapping model
//!
//! `R x R` weights of one filter/channel plane are pinned to an `R x R`
//! block of PEs; `g_m` filter planes and `g_c` channel planes are mapped
//! across the available blocks. Ifmap pixels are broadcast to every block
//! sequentially and the psums accumulate spatially across the `R²·g_c` PEs
//! that share an ofmap pixel, then fold through the buffer for the
//! remaining `ceil(C/g_c)` channel rounds.
//!
//! By definition, "once a weight is fetched from DRAM to the RF of a PE,
//! the PE runs through all `N·E²` operations that use the same filter
//! weight" — so the whole batch's psums (`N·g_m·E²` values) must stay live
//! in the global buffer across channel rounds. When even `g_m = 1` does
//! not fit, WS **cannot operate** (the missing batch-64 bar of Fig. 11a).

use crate::candidate::{MappingCandidate, MappingParams};
use crate::dataflow::{CandidateSink, Dataflow};
use crate::id::DataflowId;
use crate::kind::DataflowKind;
use crate::model::{ceil_div, factor_candidates};
use eyeriss_arch::access::LayerAccessProfile;
use eyeriss_arch::config::AcceleratorConfig;
use eyeriss_nn::{LayerProblem, LayerShape};

/// The weight-stationary mapping space.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightStationaryModel;

impl Dataflow for WeightStationaryModel {
    fn id(&self) -> DataflowId {
        DataflowKind::WeightStationary.id()
    }

    fn rf_bytes(&self) -> f64 {
        DataflowKind::WeightStationary.rf_bytes()
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
    // R x R weight blocks pack geometrically into the grid; leftover
    // strips narrower than R are unusable.
    let blocks = (hw.grid.rows / shape.r) * (hw.grid.cols / shape.r);
    if blocks == 0 {
        return;
    }
    let buf_words = hw.buffer_words();
    for &g_m in &factor_candidates(shape.m, blocks) {
        for &g_c in &factor_candidates(shape.c, blocks / g_m) {
            if let Some(cand) = evaluate(shape, n_batch, g_m, g_c, buf_words) {
                sink.offer(cand);
            }
        }
    }
}

fn evaluate(
    shape: &LayerShape,
    n_batch: usize,
    g_m: usize,
    g_c: usize,
    buf_words: usize,
) -> Option<MappingCandidate> {
    let (m_dim, c_dim, h, r_filt, e_dim) = (shape.m, shape.c, shape.h, shape.r, shape.e);
    let rounds = ceil_div(c_dim, g_c);

    // Feasibility: across channel rounds every in-flight psum of the whole
    // batch must live in the buffer, alongside one streaming ifmap row per
    // active channel.
    if rounds > 1 {
        let psum_tile = n_batch * g_m * e_dim * e_dim;
        let stream_tile = g_c * h;
        if psum_tile + stream_tile > buf_words {
            return None;
        }
    }

    let macs = shape.macs(n_batch) as f64;
    let filter_words = shape.filter_words() as f64;
    let ofmap_words = shape.ofmap_words(n_batch) as f64;
    let m_groups = ceil_div(m_dim, g_m) as f64;

    let mut profile = LayerAccessProfile::new();
    profile.alu_ops = macs;

    // ---- filters: DRAM -> RF once, then N·E² stationary uses -------------
    profile.filter.dram_reads = filter_words;
    profile.filter.array_hops = filter_words; // one delivery to its PE
    profile.filter.rf_reads = macs;
    profile.filter.rf_writes = filter_words;

    // ---- ifmaps: streamed and broadcast, no RF reuse ----------------------
    // Each weight-set swap re-streams the ifmap channels it needs; over all
    // channel rounds that is one full pass per filter group.
    let stream_words = m_groups * shape.ifmap_words(n_batch) as f64;
    profile.ifmap.dram_reads = stream_words;
    profile.ifmap.buffer_reads = stream_words;
    // Every MAC receives its ifmap operand over the array broadcast.
    profile.ifmap.array_hops = macs;

    // ---- psums: spatial chains of R²·g_c, buffer-folded over rounds ------
    // No RF accumulation (Table III): every accumulation is either an
    // array transfer along the chain or a buffer round trip.
    profile.psum = crate::split::psum_counts_exact(
        ofmap_words,
        shape.accumulations_per_ofmap() as f64,
        rounds as f64,
        (r_filt * r_filt * g_c) as f64,
    );

    debug_assert!(profile.is_valid());
    Some(MappingCandidate {
        profile,
        active_pes: g_m * g_c * r_filt * r_filt,
        params: MappingParams::WeightStationary { g_m, g_c },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_nn::alexnet;

    fn hw(pes: usize) -> AcceleratorConfig {
        AcceleratorConfig::under_baseline_area(pes, DataflowKind::WeightStationary.rf_bytes())
    }

    #[test]
    fn infeasible_on_conv1_at_batch_64_with_256_pes() {
        // Fig. 11a: "WS cannot even operate due to the global buffer being
        // too small for a batch size of 64". CONV1 psums: 64 x 55^2 words
        // exceed even WS's enlarged buffer.
        let conv1 = &alexnet::conv_layers()[0].shape;
        assert!(
            crate::model::mappings_of(&WeightStationaryModel, conv1, 64, &hw(256)).is_empty(),
            "CONV1 must be infeasible at N=64 on 256 PEs"
        );
    }

    #[test]
    fn feasible_on_conv1_at_batch_16_with_256_pes() {
        let conv1 = &alexnet::conv_layers()[0].shape;
        assert!(!crate::model::mappings_of(&WeightStationaryModel, conv1, 16, &hw(256)).is_empty());
    }

    #[test]
    fn feasible_on_conv1_at_batch_64_with_1024_pes() {
        // Figs. 11b/c show WS operating at batch 64 on larger arrays,
        // whose baseline area buys a bigger buffer.
        let conv1 = &alexnet::conv_layers()[0].shape;
        assert!(
            !crate::model::mappings_of(&WeightStationaryModel, conv1, 64, &hw(1024)).is_empty()
        );
    }

    #[test]
    fn weight_rf_reads_equal_macs() {
        let conv2 = &alexnet::conv_layers()[1].shape;
        let cands = crate::model::mappings_of(&WeightStationaryModel, conv2, 16, &hw(256));
        for c in &cands {
            assert_eq!(c.profile.filter.rf_reads, conv2.macs(16) as f64);
            // WS never uses the RF for psums (Table III).
            assert_eq!(c.profile.psum.rf_reads, 0.0);
            assert_eq!(c.profile.ifmap.rf_reads, 0.0);
        }
    }

    #[test]
    fn dram_filter_reads_are_minimal() {
        // Each weight enters the chip exactly once.
        let conv3 = &alexnet::conv_layers()[2].shape;
        for c in crate::model::mappings_of(&WeightStationaryModel, conv3, 16, &hw(256)) {
            assert_eq!(c.profile.filter.dram_reads, conv3.filter_words() as f64);
        }
    }

    #[test]
    fn ifmap_dram_reads_scale_with_filter_groups() {
        // Smaller g_m -> more weight-set swaps -> more ifmap re-streams.
        let conv2 = &alexnet::conv_layers()[1].shape;
        let cands = crate::model::mappings_of(&WeightStationaryModel, conv2, 16, &hw(256));
        let small = cands
            .iter()
            .find(|c| matches!(c.params, MappingParams::WeightStationary { g_m: 1, .. }))
            .unwrap();
        let big = cands
            .iter()
            .max_by_key(|c| match c.params {
                MappingParams::WeightStationary { g_m, .. } => g_m,
                _ => 0,
            })
            .unwrap();
        assert!(small.profile.ifmap.dram_reads > big.profile.ifmap.dram_reads);
    }

    #[test]
    fn active_pes_bounded_by_blocks() {
        // R=11 -> 11x11 blocks; only one packs into a 16x16 grid.
        let conv1 = &alexnet::conv_layers()[0].shape;
        for c in crate::model::mappings_of(&WeightStationaryModel, conv1, 16, &hw(256)) {
            assert!(c.active_pes <= 121, "one 11x11 block fits a 16x16 grid");
        }
    }

    #[test]
    fn infeasible_when_block_exceeds_array() {
        let shape = LayerShape::conv(4, 4, 40, 20, 1).unwrap(); // 400-PE block
        assert!(crate::model::mappings_of(&WeightStationaryModel, &shape, 1, &hw(256)).is_empty());
    }
}
