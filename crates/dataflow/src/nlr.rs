//! The no-local-reuse (NLR) dataflow (Section IV-C).
//!
//! # Mapping model
//!
//! NLR PEs are bare ALU datapaths with **no RF**; the freed area buys a
//! much larger global buffer (Fig. 7b). The array is divided into `g_c`
//! groups of `g_w` PEs: PEs within a group read the *same* broadcast ifmap
//! value with *different* filter weights (ifmap reuse in the array), and
//! psums accumulate spatially across the `g_c` groups, folding through the
//! buffer for the remaining `R²·ceil(C/g_c)` rounds. This is the
//! DianNao \[22\] style.
//!
//! Consequences the model must reproduce (Section VII-B): DRAM traffic is
//! low (the big buffer keeps planes resident) but "most of its data
//! accesses come from the global buffer directly, which results in high
//! energy consumption", dominated by weight reads (Fig. 12d) since weights
//! see no array reuse at all.

use crate::candidate::{MappingCandidate, MappingParams};
use crate::dataflow::{CandidateSink, Dataflow};
use crate::id::DataflowId;
use crate::kind::DataflowKind;
use crate::model::{ceil_div, factor_candidates};
use eyeriss_arch::access::LayerAccessProfile;
use eyeriss_arch::config::AcceleratorConfig;
use eyeriss_nn::{LayerProblem, LayerShape};

/// The no-local-reuse mapping space.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoLocalReuseModel;

impl Dataflow for NoLocalReuseModel {
    fn id(&self) -> DataflowId {
        DataflowKind::NoLocalReuse.id()
    }

    fn rf_bytes(&self) -> f64 {
        DataflowKind::NoLocalReuse.rf_bytes()
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
    for &g_c in &factor_candidates(shape.c, pes) {
        for &g_w in &factor_candidates(shape.m, pes / g_c) {
            for ifmap_resident in [true, false] {
                if let Some(c) = evaluate(shape, n_batch, g_c, g_w, ifmap_resident, buf_words) {
                    sink.offer(c);
                }
            }
        }
    }
}

fn evaluate(
    shape: &LayerShape,
    n_batch: usize,
    g_c: usize,
    g_w: usize,
    ifmap_resident: bool,
    buf_words: usize,
) -> Option<MappingCandidate> {
    let (m_dim, c_dim, h, r_filt, e_dim) = (shape.m, shape.c, shape.h, shape.r, shape.e);

    // Buffer residency: the current filter group's full weight stack, the
    // live psum plane slice, and optionally a slab of resident ifmaps.
    let filter_tile = g_w * c_dim * r_filt * r_filt;
    let psum_tile = g_w * e_dim * e_dim;
    let image_words = c_dim * h * h;
    let m_groups = ceil_div(m_dim, g_w);
    // Images the leftover buffer space can keep resident at once.
    let slab_images = buf_words
        .saturating_sub(filter_tile + psum_tile)
        .checked_div(image_words)
        .unwrap_or(0)
        .min(n_batch);
    if ifmap_resident {
        if slab_images == 0 {
            return None;
        }
    } else if filter_tile + psum_tile + g_c * h > buf_words {
        return None;
    }

    let macs = shape.macs(n_batch) as f64;
    let filter_words = shape.filter_words() as f64;
    let ofmap_words = shape.ofmap_words(n_batch) as f64;

    let mut profile = LayerAccessProfile::new();
    profile.alu_ops = macs;

    // ---- filters and ifmaps: one of them pays the loop-order price --------
    // Every weight use is a buffer read (no reuse in the array).
    profile.filter.buffer_reads = macs;
    profile.ifmap.buffer_reads = macs / g_w as f64;
    profile.ifmap.array_hops = macs;
    if ifmap_resident {
        // Batch slabs stay resident; the filter groups cycle through per
        // slab (unless a single group covers all filters and never moves).
        profile.ifmap.dram_reads = shape.ifmap_words(n_batch) as f64;
        let slab_rounds = ceil_div(n_batch, slab_images) as f64;
        profile.filter.dram_reads = if m_groups == 1 {
            filter_words
        } else {
            filter_words * slab_rounds
        };
    } else {
        // Filter groups stay resident; the ifmaps re-stream per group.
        profile.filter.dram_reads = filter_words;
        profile.ifmap.dram_reads = shape.ifmap_words(n_batch) as f64 * m_groups as f64;
    }

    // ---- psums: spatial across groups, buffer for everything else ----------
    let rounds = (ceil_div(c_dim, g_c) * r_filt * r_filt) as f64;
    profile.psum = crate::split::psum_counts_exact(
        ofmap_words,
        shape.accumulations_per_ofmap() as f64,
        rounds,
        g_c as f64,
    );

    debug_assert!(profile.is_valid());
    Some(MappingCandidate {
        profile,
        active_pes: g_c * g_w,
        params: MappingParams::NoLocalReuse {
            g_c,
            g_w,
            ifmap_resident,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_arch::energy::{EnergyModel, Level};
    use eyeriss_nn::alexnet;

    fn hw(pes: usize) -> AcceleratorConfig {
        AcceleratorConfig::under_baseline_area(pes, DataflowKind::NoLocalReuse.rf_bytes())
    }

    fn best(shape: &LayerShape, n: usize, pes: usize) -> MappingCandidate {
        let em = EnergyModel::table_iv();
        crate::model::mappings_of(&NoLocalReuseModel, shape, n, &hw(pes))
            .into_iter()
            .min_by(|a, b| {
                a.profile
                    .total_energy(&em)
                    .partial_cmp(&b.profile.total_energy(&em))
                    .unwrap()
            })
            .expect("NLR feasible")
    }

    #[test]
    fn no_rf_traffic_at_all() {
        let conv3 = &alexnet::conv_layers()[2].shape;
        let b = best(conv3, 16, 256);
        for c in [&b.profile.ifmap, &b.profile.filter, &b.profile.psum] {
            assert_eq!(c.rf_reads + c.rf_writes, 0.0);
        }
    }

    #[test]
    fn buffer_energy_dominates_on_chip() {
        // "Most of its data accesses come from the global buffer directly."
        let em = EnergyModel::table_iv();
        let conv2 = &alexnet::conv_layers()[1].shape;
        let b = best(conv2, 16, 256);
        let buf = b.profile.energy_at_level(&em, Level::Buffer);
        let arr = b.profile.energy_at_level(&em, Level::Array);
        assert!(buf > arr);
    }

    #[test]
    fn weights_dominate_data_energy() {
        // Fig. 12d: NLR "consumes most of its energy for weight accesses".
        use eyeriss_arch::access::DataType;
        let em = EnergyModel::table_iv();
        let conv3 = &alexnet::conv_layers()[2].shape;
        let b = best(conv3, 16, 256);
        let w = b.profile.energy_of_type(&em, DataType::Filter);
        let i = b.profile.energy_of_type(&em, DataType::Ifmap);
        let p = b.profile.energy_of_type(&em, DataType::Psum);
        assert!(w > i && w > p, "w={w:.2e} i={i:.2e} p={p:.2e}");
    }

    #[test]
    fn dram_traffic_is_low() {
        // Fig. 11: NLR sits among the low-DRAM dataflows thanks to its
        // enlarged buffer.
        let conv2 = &alexnet::conv_layers()[1].shape;
        let b = best(conv2, 16, 256);
        let per_op = b.profile.dram_accesses() / conv2.macs(16) as f64;
        assert!(per_op < 0.01, "NLR DRAM/op {per_op:.5}");
    }

    #[test]
    fn feasible_on_all_alexnet_layers() {
        for layer in alexnet::all_layers() {
            for n in [1usize, 16] {
                let b = best(&layer.shape, n, 256);
                assert!(b.active_pes > 0, "{} N={n}", layer.name);
            }
        }
    }
}
