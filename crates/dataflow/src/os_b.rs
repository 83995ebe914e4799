//! The MOC-MOP output-stationary dataflow (OSB, Section IV-B).
//!
//! # Mapping model
//!
//! OSB covers `o_m` ofmap channels times a 1-D strip of `o_p` ofmap pixels
//! (Fig. 3b). Each PE pins one (channel, pixel) psum in its RF for the full
//! `C·R²` accumulation. Following Section VI-A, the model captures both
//! 1-D convolutional reuse along the strip (an ifmap pixel shifts across
//! the `o_p` PEs of a row) and ifmap reuse across the `o_m` channel rows
//! (broadcast) — more reuse than the plain matrix-multiplication variant
//! of \[20\].

use crate::candidate::{MappingCandidate, MappingParams};
use crate::dataflow::{CandidateSink, Dataflow};
use crate::id::DataflowId;
use crate::kind::DataflowKind;
use crate::model::{ceil_div, factor_candidates};
use crate::split::ReuseSplit;
use eyeriss_arch::access::LayerAccessProfile;
use eyeriss_arch::config::AcceleratorConfig;
use eyeriss_nn::{LayerProblem, LayerShape};

/// The MOC-MOP mapping space.
#[derive(Debug, Clone, Copy, Default)]
pub struct OutputStationaryBModel;

impl Dataflow for OutputStationaryBModel {
    fn id(&self) -> DataflowId {
        DataflowKind::OutputStationaryB.id()
    }

    fn rf_bytes(&self) -> f64 {
        DataflowKind::OutputStationaryB.rf_bytes()
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
    // For FC layers (E = 1) the "multiple ofmap pixels" of MOC-MOP come
    // from different images of the batch instead of one plane.
    let pixel_dim = if shape.is_fc_shaped() {
        n_batch
    } else {
        shape.e
    };
    for &o_m in &factor_candidates(shape.m, pes) {
        for &o_p in &factor_candidates(pixel_dim, pes / o_m) {
            if shape.is_fc_shaped() {
                if let Some(c) = evaluate_fc(shape, n_batch, o_m, o_p, buf_words) {
                    sink.offer(c);
                }
                continue;
            }
            for plane_resident in [true, false] {
                if let Some(c) = evaluate(shape, n_batch, o_m, o_p, plane_resident, buf_words) {
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
    o_p: usize,
    plane_resident: bool,
    buf_words: usize,
) -> Option<MappingCandidate> {
    let (m_dim, c_dim, h, r_filt, e_dim, u) =
        (shape.m, shape.c, shape.h, shape.r, shape.e, shape.u);
    let strips = ceil_div(e_dim, o_p);
    // Receptive band of one strip: R ifmap rows by the strip's halo width.
    let band = r_filt * ((o_p - 1) * u + r_filt);

    // The o_m filters' weights sit in the buffer for the whole layer pass.
    let filter_tile = o_m * c_dim * r_filt * r_filt;
    let ifmap_tile = if plane_resident {
        c_dim * h * h
    } else {
        c_dim * band
    };
    if filter_tile + ifmap_tile > buf_words {
        return None;
    }

    let macs = shape.macs(n_batch) as f64;
    let filter_words = shape.filter_words() as f64;
    let ofmap_words = shape.ofmap_words(n_batch) as f64;
    let m_groups = ceil_div(m_dim, o_m) as f64;

    let mut profile = LayerAccessProfile::new();
    profile.alu_ops = macs;

    // ---- psums: fully stationary in the RF --------------------------------
    let psplit = ReuseSplit::new(1.0, 1.0, 1.0, shape.accumulations_per_ofmap() as f64);
    profile.psum = psplit.psum_counts(ofmap_words);

    // ---- filters: buffer-resident, multicast along the strip --------------
    // With plane residency the image loop is outermost, so filter groups
    // cycle through once per image unless the whole bank stays on chip.
    let bank_words = shape.filter_words() as usize;
    profile.filter.dram_reads =
        if plane_resident && m_groups > 1.0 && bank_words + ifmap_tile > buf_words {
            filter_words * n_batch as f64
        } else {
            filter_words
        };
    profile.filter.buffer_reads = macs / o_p as f64;
    profile.filter.array_hops = macs;

    // ---- ifmaps: strip bands from the buffer, broadcast across channels ---
    // Each band word is read once per (image, ofmap row, strip, channel)
    // visit and serves all o_m channel rows plus the 1-D shifts.
    let visits = n_batch as f64 * (e_dim * strips) as f64 * m_groups;
    profile.ifmap.buffer_reads = visits * (c_dim * band) as f64 / 1.0;
    profile.ifmap.array_hops = macs;
    profile.ifmap.dram_reads = if plane_resident {
        // Plane fetched once per image, reused across every filter group.
        shape.ifmap_words(n_batch) as f64
    } else {
        profile.ifmap.buffer_reads
    };

    debug_assert!(profile.is_valid());
    Some(MappingCandidate {
        profile,
        active_pes: o_m * o_p,
        params: MappingParams::OutputStationaryB { o_m, o_p },
    })
}

/// FC-shaped layers: `o_p` spans images of the batch; each weight is
/// multicast across the `o_p` image columns (filter reuse), each image's
/// input vector is broadcast across the `o_m` channel rows (ifmap reuse).
fn evaluate_fc(
    shape: &LayerShape,
    n_batch: usize,
    o_m: usize,
    o_p: usize,
    buf_words: usize,
) -> Option<MappingCandidate> {
    let (m_dim, c_dim, r_filt) = (shape.m, shape.c, shape.r);
    let window = c_dim * r_filt * r_filt; // one image's full input vector

    let filter_tile = o_m * window;
    let ifmap_tile = o_p * window;
    if filter_tile + ifmap_tile > buf_words {
        return None;
    }
    // The filter-group loop is outermost (outputs stay stationary while a
    // weight group streams), so ifmaps are revisited once per filter
    // group. They stay on chip only if the whole batch slab fits next to a
    // double-buffered weight group; otherwise each revisit refetches from
    // DRAM — the ifmap-dominated FC energy of Fig. 14c.
    let batch_slab = n_batch * window;
    let ifmap_batch_resident = batch_slab + 2 * filter_tile <= buf_words;

    let macs = shape.macs(n_batch) as f64;
    let filter_words = shape.filter_words() as f64;
    let ofmap_words = shape.ofmap_words(n_batch) as f64;
    let m_groups = ceil_div(m_dim, o_m) as f64;
    let batch_groups = ceil_div(n_batch, o_p) as f64;

    let mut profile = LayerAccessProfile::new();
    profile.alu_ops = macs;

    let psplit = ReuseSplit::new(1.0, 1.0, 1.0, shape.accumulations_per_ofmap() as f64);
    profile.psum = psplit.psum_counts(ofmap_words);

    profile.filter.dram_reads = filter_words;
    profile.filter.buffer_reads = filter_words * batch_groups;
    profile.filter.array_hops = macs;

    profile.ifmap.dram_reads = if ifmap_batch_resident {
        shape.ifmap_words(n_batch) as f64
    } else {
        shape.ifmap_words(n_batch) as f64 * m_groups
    };
    profile.ifmap.buffer_reads = shape.ifmap_words(n_batch) as f64 * m_groups;
    profile.ifmap.array_hops = macs;

    debug_assert!(profile.is_valid());
    Some(MappingCandidate {
        profile,
        active_pes: o_m * o_p,
        params: MappingParams::OutputStationaryB { o_m, o_p },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_arch::energy::EnergyModel;
    use eyeriss_nn::alexnet;

    fn hw(pes: usize) -> AcceleratorConfig {
        AcceleratorConfig::under_baseline_area(pes, DataflowKind::OutputStationaryB.rf_bytes())
    }

    fn best(shape: &LayerShape, n: usize, pes: usize) -> MappingCandidate {
        let em = EnergyModel::table_iv();
        crate::model::mappings_of(&OutputStationaryBModel, shape, n, &hw(pes))
            .into_iter()
            .min_by(|a, b| {
                a.profile
                    .total_energy(&em)
                    .partial_cmp(&b.profile.total_energy(&em))
                    .unwrap()
            })
            .expect("OSB feasible")
    }

    #[test]
    fn feasible_on_all_alexnet_layers() {
        for layer in alexnet::all_layers() {
            let b = best(&layer.shape, 16, 256);
            assert!(b.active_pes > 0, "{}", layer.name);
        }
    }

    #[test]
    fn psums_stay_local() {
        let conv4 = &alexnet::conv_layers()[3].shape;
        let b = best(conv4, 16, 256);
        assert_eq!(b.profile.psum.buffer_reads, 0.0);
        assert_eq!(b.profile.psum.array_hops, 0.0);
    }

    #[test]
    fn strip_multicast_cuts_filter_buffer_reads() {
        // Larger o_p -> fewer buffer reads per weight use.
        let conv3 = &alexnet::conv_layers()[2].shape;
        let cands = crate::model::mappings_of(&OutputStationaryBModel, conv3, 1, &hw(256));
        let narrow = cands
            .iter()
            .find(|c| matches!(c.params, MappingParams::OutputStationaryB { o_p: 1, .. }))
            .unwrap();
        let wide = cands
            .iter()
            .find(|c| matches!(c.params, MappingParams::OutputStationaryB { o_p, .. } if o_p > 4))
            .unwrap();
        assert!(wide.profile.filter.buffer_reads < narrow.profile.filter.buffer_reads);
    }

    #[test]
    fn fc_uses_channel_parallelism() {
        // E = 1 forces o_p = 1 but o_m can still fill the array.
        let fc1 = &alexnet::fc_layers()[0].shape;
        let b = best(fc1, 16, 1024);
        assert!(b.active_pes >= 256, "active={}", b.active_pes);
    }

    #[test]
    fn more_channels_less_ifmap_refetch() {
        let conv2 = &alexnet::conv_layers()[1].shape;
        let cands = crate::model::mappings_of(&OutputStationaryBModel, conv2, 1, &hw(1024));
        let dram_of = |om_want: usize| {
            cands
                .iter()
                .filter(|c| {
                    matches!(c.params,
                        MappingParams::OutputStationaryB { o_m, .. } if o_m == om_want)
                })
                .map(|c| c.profile.ifmap.dram_reads)
                .fold(f64::INFINITY, f64::min)
        };
        assert!(dram_of(256) <= dram_of(1));
    }
}
