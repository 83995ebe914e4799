//! The SOC-MOP output-stationary dataflow (OSA, Section IV-B).
//!
//! # Mapping model
//!
//! OSA dedicates the array to a single ofmap plane at a time (Fig. 3a):
//! an `e_x x e_y` tile of ofmap pixels, each pinned to one PE whose RF
//! accumulates the full `C·R²` chain in place. Ifmap pixels are shifted
//! between neighbouring PEs for convolutional reuse (the ShiDianNao \[23\]
//! style); the current weight is broadcast to every PE. `n_par` images may
//! be processed by disjoint tile regions in parallel when the plane is
//! smaller than the array — which is also OSA's weakness: at batch 1 the
//! active PE count is capped at `E²`, and FC layers (`E = 1`) degenerate
//! entirely ("OSA runs FC layers very poorly because its mapping requires
//! ifmap pixels from the same spatial plane").

use crate::candidate::{MappingCandidate, MappingParams};
use crate::dataflow::{CandidateSink, Dataflow};
use crate::id::DataflowId;
use crate::kind::DataflowKind;
use crate::model::{ceil_div, factor_candidates};
use crate::split::ReuseSplit;
use eyeriss_arch::access::LayerAccessProfile;
use eyeriss_arch::config::AcceleratorConfig;
use eyeriss_nn::{LayerProblem, LayerShape};

/// The SOC-MOP mapping space.
#[derive(Debug, Clone, Copy, Default)]
pub struct OutputStationaryAModel;

impl Dataflow for OutputStationaryAModel {
    fn id(&self) -> DataflowId {
        DataflowKind::OutputStationaryA.id()
    }

    fn rf_bytes(&self) -> f64 {
        DataflowKind::OutputStationaryA.rf_bytes()
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
    let (ah, aw) = (hw.grid.rows, hw.grid.cols);
    let buf_words = hw.buffer_words();
    let pes = hw.num_pes();
    for &e_x in &factor_candidates(shape.e, ah) {
        for &e_y in &factor_candidates(shape.e, aw) {
            let tile = e_x * e_y;
            for &n_par in &factor_candidates(n_batch, pes / tile) {
                for residency in [
                    IfmapResidency::Plane,
                    IfmapResidency::Band,
                    IfmapResidency::Tile,
                ] {
                    if let Some(c) = evaluate(shape, n_batch, e_x, e_y, n_par, residency, buf_words)
                    {
                        sink.offer(c);
                    }
                }
            }
        }
    }
}

/// How much of the ifmap stays buffer-resident between tile visits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IfmapResidency {
    /// Whole image planes stay resident: each ifmap word enters once.
    Plane,
    /// A horizontal band covering one tile row stays resident: vertical
    /// halo rows are refetched per band.
    Band,
    /// Only the current tile's receptive region is staged: every window
    /// overlap is refetched (the fallback when the buffer is small).
    Tile,
}

fn evaluate(
    shape: &LayerShape,
    n_batch: usize,
    e_x: usize,
    e_y: usize,
    n_par: usize,
    residency: IfmapResidency,
    buf_words: usize,
) -> Option<MappingCandidate> {
    let (c_dim, h, r_filt, e_dim, u) = (shape.c, shape.h, shape.r, shape.e, shape.u);
    let tiles = ceil_div(e_dim, e_x) * ceil_div(e_dim, e_y);
    let band_rows = (e_x.min(e_dim) - 1) * u + r_filt;
    let region = band_rows * ((e_y - 1) * u + r_filt);

    // One filter's plane stack (C·R² words) always sits in the buffer.
    let filter_tile = c_dim * r_filt * r_filt;
    let ifmap_tile = match residency {
        IfmapResidency::Plane => n_par * c_dim * h * h,
        IfmapResidency::Band => n_par * c_dim * band_rows * h,
        IfmapResidency::Tile => n_par * c_dim * region,
    };
    if filter_tile + ifmap_tile > buf_words {
        return None;
    }

    let macs = shape.macs(n_batch) as f64;
    let filter_words = shape.filter_words() as f64;
    let ofmap_words = shape.ofmap_words(n_batch) as f64;
    let batch_groups = ceil_div(n_batch, n_par) as f64;

    let mut profile = LayerAccessProfile::new();
    profile.alu_ops = macs;

    // ---- psums: fully stationary in the RF --------------------------------
    let psplit = ReuseSplit::new(1.0, 1.0, 1.0, shape.accumulations_per_ofmap() as f64);
    profile.psum = psplit.psum_counts(ofmap_words);

    // ---- filters: buffer-resident per filter, broadcast to the tile -------
    // Loop order: batch group -> filter -> tile, so each filter's plane is
    // refetched once per batch group — unless the whole filter bank fits
    // next to the resident ifmaps.
    let whole_bank_resident = shape.filter_words() as usize + ifmap_tile <= buf_words;
    profile.filter.dram_reads = if whole_bank_resident {
        filter_words
    } else {
        filter_words * batch_groups
    };
    profile.filter.buffer_reads = filter_words * batch_groups * tiles as f64;
    profile.filter.array_hops = macs; // one broadcast delivery per use

    // ---- ifmaps: tile regions from the buffer, shifted between PEs --------
    let visits = shape.m as f64 * batch_groups * n_par as f64 * tiles as f64;
    profile.ifmap.buffer_reads = visits * (c_dim * region) as f64;
    profile.ifmap.array_hops = macs; // neighbour shifts deliver each operand
    profile.ifmap.dram_reads = match residency {
        // Plane loaded once per image, reused across all M filters.
        IfmapResidency::Plane => shape.ifmap_words(n_batch) as f64,
        // Bands loaded once per image with vertical halo overlap, reused
        // across all M filters and all tiles in the band.
        IfmapResidency::Band => {
            shape.ifmap_words(n_batch) as f64 * shape.strip_refetch_factor(e_x.min(e_dim))
        }
        IfmapResidency::Tile => profile.ifmap.buffer_reads,
    };

    debug_assert!(profile.is_valid());
    Some(MappingCandidate {
        profile,
        active_pes: e_x * e_y * n_par,
        params: MappingParams::OutputStationaryA { e_x, e_y, n_par },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_arch::cost::TableIv;
    use eyeriss_nn::alexnet;

    fn hw(pes: usize) -> AcceleratorConfig {
        AcceleratorConfig::under_baseline_area(pes, DataflowKind::OutputStationaryA.rf_bytes())
    }

    fn best(shape: &LayerShape, n: usize, pes: usize) -> MappingCandidate {
        crate::model::mappings_of(&OutputStationaryAModel, shape, n, &hw(pes))
            .into_iter()
            .min_by(|a, b| {
                TableIv
                    .energy_of(&a.profile)
                    .partial_cmp(&TableIv.energy_of(&b.profile))
                    .unwrap()
            })
            .expect("OSA feasible")
    }

    #[test]
    fn psums_never_leave_the_rf() {
        let conv3 = &alexnet::conv_layers()[2].shape;
        let b = best(conv3, 16, 256);
        assert_eq!(b.profile.psum.buffer_reads, 0.0);
        assert_eq!(b.profile.psum.array_hops, 0.0);
        assert_eq!(b.profile.psum.dram_writes, conv3.ofmap_words(16) as f64);
        // RF psum traffic ~ 2 accesses per MAC.
        let macs = conv3.macs(16) as f64;
        let rf = b.profile.psum.rf_reads + b.profile.psum.rf_writes;
        assert!(rf > 1.9 * macs * (1.0 - 1e-3) && rf <= 2.0 * macs);
    }

    #[test]
    fn active_pes_capped_by_plane_at_batch_1() {
        // CONV5: E=13, so at batch 1 at most 169 PEs can be active even on
        // a 1024-PE array — the root of OSA's high EDP in Fig. 13c.
        let conv5 = &alexnet::conv_layers()[4].shape;
        for c in crate::model::mappings_of(&OutputStationaryAModel, conv5, 1, &hw(1024)) {
            assert!(c.active_pes <= 13 * 13);
        }
    }

    #[test]
    fn fc_layers_degenerate() {
        // E = 1: a single pixel per image; utilization is n_par at best.
        let fc2 = &alexnet::fc_layers()[1].shape;
        for c in crate::model::mappings_of(&OutputStationaryAModel, fc2, 16, &hw(1024)) {
            assert!(c.active_pes <= 16);
        }
    }

    #[test]
    fn batch_parallelism_raises_utilization() {
        let conv5 = &alexnet::conv_layers()[4].shape;
        let b = best(conv5, 16, 1024);
        let b1 = best(conv5, 1, 1024);
        assert!(b.active_pes >= b1.active_pes);
    }

    #[test]
    fn plane_residency_cuts_dram() {
        let conv2 = &alexnet::conv_layers()[1].shape;
        let cands = crate::model::mappings_of(&OutputStationaryAModel, conv2, 16, &hw(256));
        let resident_min = cands
            .iter()
            .map(|c| c.profile.ifmap.dram_reads)
            .fold(f64::INFINITY, f64::min);
        // The resident option reads each ifmap word exactly once.
        assert_eq!(resident_min, conv2.ifmap_words(16) as f64);
    }
}
