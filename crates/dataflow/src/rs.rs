//! The row-stationary (RS) dataflow (Section V) — the paper's contribution.
//!
//! # Mapping model
//!
//! RS breaks the high-dimensional convolution into 1-D row primitives. A
//! *logical PE set* of `R x E` PEs computes one 2-D convolution (Fig. 6):
//! filter rows are multicast horizontally, ifmap rows diagonally, and psum
//! rows accumulate vertically. The physical mapping folds `N·M·C` sets onto
//! the array in two phases (Section V-B):
//!
//! * **Spatial**: `r` sets stacked vertically (different channel groups, so
//!   their psums accumulate across set boundaries) and `t` sets side by
//!   side (different filter groups, sharing the same ifmap rows). Sets
//!   wider than the array are strip-mined to `e <= E` ofmap rows.
//! * **Temporal (RF interleaving)**: each physical PE runs the primitives of
//!   `p` filters, `q` channels and `n` images in an interleaved fashion,
//!   bounded by the RF capacity `p·q·R + q·n·R + p·n <= RF words`
//!   (filter rows + ifmap sliding window + psum accumulators — the
//!   fabricated chip's `p = 16, q = 1, R = 11` fits its 224+12+24-word
//!   scratchpads).
//!
//! A *processing pass* covers `(n, p·t, q·r, e)` of `(N, M, C, E)`; the
//! second folding phase runs `ceil(N/n)·ceil(M/pt)·ceil(C/qr)·ceil(E/e)`
//! passes sequentially, with the global buffer carrying either the ifmap
//! strip (reused across filter groups) or the filter group (reused across
//! batch and strips) — the `filter_resident` knob; the optimizer picks
//! whichever is cheaper per layer, exactly the optimization the paper's
//! framework performs.
//!
//! # Reuse splits
//!
//! | data   | a (DRAM)            | b (buffer)      | c (array)  | d (RF)  |
//! |--------|---------------------|-----------------|------------|---------|
//! | filter | 1 or per-pass       | strips·batches  | `e`        | `n·E`   |
//! | ifmap  | halo-exact strips   | per-pass slice  | diag + `t` | `p·R/U` |
//! | psum   | 1 (pinned)          | `ceil(C/qr)`    | `R·r`      | `R·q`   |
//!
//! # Bounds
//!
//! The space is ~16k candidates per AlexNet layer, so the fold skips
//! groups whose lower bound the sink prunes. A *spatial group* `(e, r, t)`
//! fixes the active PEs `R·r·e·t`, the strips and the halo; its bound
//! charges every MAC's ALU op and filter/ifmap RF reads, each weight one
//! DRAM read and `strips·e` deliveries, the halo-exact ifmap once from
//! DRAM, ifmap hops and buffer reads from `c_groups·q ≥ ⌈C/r⌉` and
//! `n_groups·n ≥ N`, the fewest filter groups any `p` allows, and each
//! psum field at its minimum over the channel folds the group allows.
//! Inside a spatial group, fixing `p` makes `m_groups` exact and fixing
//! `q` makes `c_groups` and the psums exact, each a bound of its own; an
//! *inner group* `(p, q, filter_resident)` relaxes only `n`: to `N`
//! images in total and `n` at its largest RF-feasible value. The
//! tightest spatial group is seeded first, then every group is visited in
//! enumeration order.

use crate::candidate::{MappingCandidate, MappingParams};
use crate::dataflow::{CandidateSink, Dataflow};
use crate::id::DataflowId;
use crate::kind::DataflowKind;
use crate::model::{ceil_div, factor_candidates};
use eyeriss_arch::access::{AccessCounts, LayerAccessProfile};
use eyeriss_arch::config::AcceleratorConfig;
use eyeriss_nn::{LayerProblem, LayerShape};
use std::cell::Cell;

/// RF words one PE needs to interleave `p` filters, `q` channels and
/// `n` images of `shape` (the first-phase folding bound of Section V-B:
/// stationary filter rows + the ifmap sliding window + psum
/// accumulators; FC rows are single-use, so images stream through one
/// row-buffer). The single source of truth for row-stationary RF
/// feasibility — the enumerator prunes with it and executors screen
/// foreign mappings with it.
pub fn rf_words_needed(shape: &LayerShape, n: usize, p: usize, q: usize) -> usize {
    let ifmap_window = if shape.is_fc_shaped() {
        q * shape.r
    } else {
        q * n * shape.r
    };
    p * q * shape.r + ifmap_window + p * n
}

/// The row-stationary mapping space.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowStationaryModel;

impl Dataflow for RowStationaryModel {
    fn id(&self) -> DataflowId {
        DataflowKind::RowStationary.id()
    }

    fn rf_bytes(&self) -> f64 {
        DataflowKind::RowStationary.rf_bytes()
    }

    fn for_each_candidate(
        &self,
        problem: &LayerProblem,
        hw: &AcceleratorConfig,
        sink: &mut dyn CandidateSink,
    ) {
        crate::grouped::lower(problem, sink, |shape, n, sink| {
            fold(shape, n, hw, sink, None)
        })
    }
}

/// Offers the feasible mappings of `shape` at batch `n_batch` on `hw` to
/// `sink` in enumeration order, skipping the groups whose bound `sink`
/// prunes (see the module docs).
///
/// With `ordinal`, the cell counts feasible candidates in enumeration
/// order, pruned ones included: during each offer it holds the offered
/// candidate's index in the full enumeration.
pub(crate) fn fold(
    shape: &LayerShape,
    n_batch: usize,
    hw: &AcceleratorConfig,
    sink: &mut dyn CandidateSink,
    ordinal: Option<&Cell<usize>>,
) {
    if shape.r > hw.grid.rows {
        // A set's filter rows must fit one array column; the paper's
        // configurations always satisfy this (R <= 11, arrays >= 12 rows).
        return;
    }
    let space = Space::new(shape, n_batch, hw);
    let groups = space.spatial_groups(hw.grid.cols);
    let tightest = groups
        .iter()
        .map(|g| sink.price(&g.lower, g.active_pes))
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(&b.1));
    if let Some((i, _)) = tightest {
        space.visit(&groups[i], &mut Seeding(&mut *sink), None, false);
    }
    for g in &groups {
        let pruned = sink.prunes(&g.lower, g.active_pes);
        if !pruned || ordinal.is_some() {
            space.visit(g, sink, ordinal, pruned);
        }
    }
}

/// Turns a visit's offers into seeds.
struct Seeding<'a>(&'a mut dyn CandidateSink);

impl CandidateSink for Seeding<'_> {
    fn offer(&mut self, candidate: MappingCandidate) {
        self.0.seed(&candidate);
    }

    fn price(&self, lower: &LayerAccessProfile, active_pes: usize) -> f64 {
        self.0.price(lower, active_pes)
    }

    fn prunes(&self, lower: &LayerAccessProfile, active_pes: usize) -> bool {
        self.0.prunes(lower, active_pes)
    }
}

/// One problem's mapping space: the knob lists and the layer constants.
struct Space<'a> {
    shape: &'a LayerShape,
    n_batch: usize,
    rf_words: usize,
    buf_words: usize,
    r_list: Vec<usize>,
    p_list: Vec<usize>,
    q_list: Vec<usize>,
    n_list: Vec<usize>,
}

/// A spatial group `(e, r, t)`: what it fixes, and its lower bound.
struct Spatial {
    e: usize,
    r: usize,
    t: usize,
    strips: usize,
    rows_strip: usize,
    active_pes: usize,
    /// The halo-exact ifmap volume one pass over the layer fetches.
    ifmap_once: f64,
    /// The fewest filter groups any `p` allows.
    min_m_groups: usize,
    /// Every psum field at its minimum over the channel-group counts the
    /// `q` values allow.
    psum_floor: AccessCounts,
    lower: LayerAccessProfile,
}

/// A candidate's fold counts, or relaxed ones that bound a group.
#[derive(Debug, Clone, Copy)]
struct Folds {
    /// Processing passes, `m_groups·c_groups·n_groups·strips`.
    passes: usize,
    /// Channel-image slots of a PE per pass, `q·n`.
    qn: usize,
    /// Deliveries of each weight, `n_groups·strips`.
    fetch_rounds: usize,
    /// Filter groups, `⌈M/pt⌉`: ifmap refetches under filter residency.
    m_groups: usize,
    /// Channel-group rounds, `⌈C/qr⌉`: psum spills through the buffer.
    c_groups: usize,
}

impl<'a> Space<'a> {
    fn new(shape: &'a LayerShape, n_batch: usize, hw: &AcceleratorConfig) -> Self {
        Space {
            shape,
            n_batch,
            rf_words: hw.rf_words_per_pe(),
            buf_words: hw.buffer_words(),
            r_list: factor_candidates(shape.c, hw.grid.rows / shape.r),
            p_list: factor_candidates(shape.m, 64),
            q_list: factor_candidates(shape.c, shape.c),
            n_list: factor_candidates(n_batch, n_batch),
        }
    }

    /// The spatial groups in enumeration order, each with its bound.
    fn spatial_groups(&self, cols: usize) -> Vec<Spatial> {
        let shape = self.shape;
        let (m_dim, c_dim, e_dim) = (shape.m, shape.c, shape.e);
        let psum_floors: Vec<AccessCounts> = self
            .r_list
            .iter()
            .map(|&r| {
                self.q_list
                    .iter()
                    .filter(|&&q| !(q * r > c_dim && r > 1))
                    .map(|&q| self.psum(ceil_div(c_dim, q * r), r))
                    .reduce(|a, b| field_min(&a, &b))
                    .expect("q = 1 always fits")
            })
            .collect();
        let mut groups = Vec::new();
        for &e in &factor_candidates(e_dim, cols) {
            let strips = ceil_div(e_dim, e);
            let rows_strip = shape.ifmap_rows_for_strip(e.min(e_dim));
            let ifmap_once =
                shape.ifmap_words(self.n_batch) as f64 * shape.strip_refetch_factor(e.min(e_dim));
            let t_list = factor_candidates(m_dim, cols / e);
            for (&r, &psum_floor) in self.r_list.iter().zip(&psum_floors) {
                for &t in &t_list {
                    let mut g = Spatial {
                        e,
                        r,
                        t,
                        strips,
                        rows_strip,
                        active_pes: shape.r * r * e * t,
                        ifmap_once,
                        min_m_groups: self
                            .p_list
                            .iter()
                            .filter(|&&p| !(p * t > m_dim && t > 1))
                            .map(|&p| ceil_div(m_dim, p * t))
                            .min()
                            .expect("p = 1 always fits"),
                        psum_floor,
                        lower: LayerAccessProfile::new(),
                    };
                    g.lower = self.bound(&g, None, None);
                    groups.push(g);
                }
            }
        }
        groups
    }

    /// A bound over the candidates of `g` with, when given, `p` filters
    /// and `q` channels per PE: streamed filters' counts with each weight
    /// read from DRAM once (what residency achieves), the filter groups at
    /// their fewest without `p`, and the channel folds relaxed to
    /// `c_groups·q ≥ ⌈C/r⌉` (psums at their floor) without `q`.
    fn bound(&self, g: &Spatial, p: Option<usize>, q: Option<usize>) -> LayerAccessProfile {
        let (m_dim, c_dim) = (self.shape.m, self.shape.c);
        let m_groups = p.map_or(g.min_m_groups, |p| ceil_div(m_dim, p * g.t));
        let (c_groups, channels) = match q {
            Some(q) => (ceil_div(c_dim, q * g.r), q),
            None => (1, c_dim.div_ceil(g.r)),
        };
        let mut lower = self.counts(
            g,
            false,
            Folds {
                passes: m_groups * c_groups * g.strips,
                qn: channels * self.n_batch,
                fetch_rounds: g.strips,
                m_groups,
                c_groups,
            },
        );
        lower.filter.dram_reads = self.shape.filter_words() as f64;
        if q.is_none() {
            lower.psum = g.psum_floor;
        }
        lower
    }

    /// The bound over the candidates of `g` with `p`, `q` and
    /// `filter_resident`: exact but for `n`, at most `n_max`, whose batch
    /// groups still cover `N` images.
    fn inner_bound(
        &self,
        g: &Spatial,
        p: usize,
        q: usize,
        n_max: usize,
        filter_resident: bool,
    ) -> LayerAccessProfile {
        let m_groups = ceil_div(self.shape.m, p * g.t);
        let c_groups = ceil_div(self.shape.c, q * g.r);
        self.counts(
            g,
            filter_resident,
            Folds {
                passes: m_groups * c_groups * g.strips,
                qn: q * self.n_batch,
                fetch_rounds: ceil_div(self.n_batch, n_max) * g.strips,
                m_groups,
                c_groups,
            },
        )
    }

    /// The image counts `p` filters and `q` channels leave room for in
    /// the RF (see [`rf_words_needed`]), which grows with `n`: a prefix.
    fn images(&self, p: usize, q: usize) -> &[usize] {
        let fit = self
            .n_list
            .partition_point(|&n| rf_words_needed(self.shape, n, p, q) <= self.rf_words);
        &self.n_list[..fit]
    }

    /// Offers the candidates of spatial group `g` in enumeration order,
    /// skipping those `sink` prunes by a `p`, a `q` or a `(p, q,
    /// filter_resident)` bound, or all of them when `pruned`.
    fn visit(
        &self,
        g: &Spatial,
        sink: &mut dyn CandidateSink,
        ordinal: Option<&Cell<usize>>,
        pruned: bool,
    ) {
        let (m_dim, c_dim) = (self.shape.m, self.shape.c);
        let live = |sink: &dyn CandidateSink, lower: LayerAccessProfile| {
            !pruned && !sink.prunes(&lower, g.active_pes)
        };
        let live_q: Vec<bool> = self
            .q_list
            .iter()
            .map(|&q| live(sink, self.bound(g, None, Some(q))))
            .collect();
        for &p in &self.p_list {
            if p * g.t > m_dim && g.t > 1 {
                continue;
            }
            let live_p = live(sink, self.bound(g, Some(p), None));
            if !live_p && ordinal.is_none() {
                continue;
            }
            for (&q, &live_q) in self.q_list.iter().zip(&live_q) {
                if q * g.r > c_dim && g.r > 1 {
                    continue;
                }
                let images = self.images(p, q);
                let Some(&n_max) = images.last() else {
                    continue;
                };
                // One image count leaves one candidate per residency, which
                // is as cheap to score as to bound.
                let skip = [false, true].map(|filter_resident| {
                    !(live_p && live_q)
                        || images.len() > 1
                            && !live(sink, self.inner_bound(g, p, q, n_max, filter_resident))
                });
                let caps = || {
                    [false, true].map(|filter_resident| self.image_cap(g, p, q, filter_resident))
                };
                if skip == [true, true] {
                    if let Some(o) = ordinal {
                        let fitting = caps().map(|cap| images.partition_point(|&n| n <= cap));
                        o.set(o.get() + fitting[0] + fitting[1]);
                    }
                    continue;
                }
                let caps = caps();
                for &n in images {
                    for filter_resident in [false, true] {
                        if n > caps[usize::from(filter_resident)] {
                            continue;
                        }
                        if !skip[usize::from(filter_resident)] {
                            sink.offer(self.candidate(g, n, p, q, filter_resident));
                        }
                        if let Some(o) = ordinal {
                            o.set(o.get() + 1);
                        }
                    }
                }
            }
        }
    }

    /// The candidate `(n, p, q, filter_resident)` of group `g`.
    fn candidate(
        &self,
        g: &Spatial,
        n: usize,
        p: usize,
        q: usize,
        filter_resident: bool,
    ) -> MappingCandidate {
        let m_groups = ceil_div(self.shape.m, p * g.t);
        let c_groups = ceil_div(self.shape.c, q * g.r);
        let n_groups = ceil_div(self.n_batch, n);
        let folds = Folds {
            passes: m_groups * c_groups * n_groups * g.strips,
            qn: q * n,
            fetch_rounds: n_groups * g.strips,
            m_groups,
            c_groups,
        };
        MappingCandidate {
            profile: self.counts(g, filter_resident, folds),
            active_pes: g.active_pes,
            params: MappingParams::RowStationary {
                n,
                p,
                q,
                e: g.e,
                r: g.r,
                t: g.t,
                filter_resident,
            },
        }
    }

    /// Global buffer capacity (second-phase folding, Section V-B): the
    /// most images a pass of `g` with `p`, `q` and `filter_resident` fits
    /// (0 when none does). Every tile but the filters' grows with `n`.
    fn image_cap(&self, g: &Spatial, p: usize, q: usize, filter_resident: bool) -> usize {
        let shape = self.shape;
        let (m_dim, c_dim, h, r_filt, e_dim) = (shape.m, shape.c, shape.h, shape.r, shape.e);
        // FC layers (E = 1) keep their folded psums in the PE registers
        // across channel-group rounds — only p·n accumulators per PE,
        // already counted in the RF budget — so the buffer carries no psum
        // tile for them.
        let ifmap_tile_per_image = q * g.r * g.rows_strip * h;
        let psum_tile_per_image = if shape.is_fc_shaped() {
            0
        } else if filter_resident {
            // Loop order m -> n -> strip -> c: psums of the current filter
            // group complete before the strip advances.
            p * g.t * g.e * e_dim
        } else {
            // Loop order n -> strip -> c -> m: psums of *all* filters of
            // the strip stay live across channel groups.
            m_dim * g.e * e_dim
        };
        let filter_tile = if filter_resident {
            // The filter group stays resident across batch/strip/channel
            // loops.
            p * g.t * c_dim * r_filt * r_filt
        } else {
            // Filters stream through per pass; only the pass working set
            // lives.
            p * g.t * q * g.r * r_filt * r_filt
        };
        self.buf_words.checked_sub(filter_tile).map_or(0, |room| {
            room / (ifmap_tile_per_image + psum_tile_per_image)
        })
    }

    /// The access profile of group `g` under `folds`: a candidate's exact
    /// counts for its own folds, a bound for relaxed ones.
    fn counts(&self, g: &Spatial, filter_resident: bool, folds: Folds) -> LayerAccessProfile {
        let shape = self.shape;
        let h = shape.h;
        let macs = shape.macs(self.n_batch) as f64;

        let mut profile = LayerAccessProfile::new();
        profile.alu_ops = macs;

        // ---- filters -----------------------------------------------------
        // Every MAC reads its weight from the RF (stationary row, Fig. 5).
        profile.filter.rf_reads = macs;
        let filter_words = shape.filter_words() as f64;
        // Each distinct weight is delivered once per (batch group, strip),
        // multicast across the e columns of its set (Fig. 6a). Using the
        // exact filter volume avoids charging the final partial
        // filter/channel group for phantom weights.
        let filter_fetch_rounds = folds.fetch_rounds as f64;
        profile.filter.array_hops = filter_words * filter_fetch_rounds * g.e as f64;
        if filter_resident {
            profile.filter.dram_reads = filter_words;
            profile.filter.buffer_reads = filter_words * filter_fetch_rounds;
        } else {
            // Streamed from DRAM each pass, bypassing the buffer
            // (footnote 1).
            profile.filter.dram_reads = filter_words * filter_fetch_rounds;
        }

        // ---- ifmaps ------------------------------------------------------
        profile.ifmap.rf_reads = macs;
        // Each active PE receives the q·n ifmap rows of its primitives once
        // per pass; diagonal multicast (Fig. 6b) plus sharing across the t
        // filter sets means the buffer is read only once per distinct word.
        let passes = folds.passes as f64;
        profile.ifmap.array_hops = passes * g.active_pes as f64 * (folds.qn * h) as f64;
        profile.ifmap.buffer_reads = passes * (folds.qn * g.r * g.rows_strip * h) as f64;
        profile.ifmap.dram_reads = if filter_resident {
            // Ifmap strips refetched for every filter group.
            g.ifmap_once * folds.m_groups as f64
        } else {
            g.ifmap_once
        };

        profile.psum = self.psum(folds.c_groups, g.r);
        debug_assert!(profile.is_valid());
        profile
    }

    /// Each ofmap value accumulates exactly C·R² psums: R·q inside a PE
    /// (taps x interleaved channels), across a vertical chain of R·r PEs
    /// (Fig. 6c), folded over `c_groups` channel-group rounds through the
    /// buffer; a = 1 is pinned (only final ofmaps reach DRAM).
    fn psum(&self, c_groups: usize, r: usize) -> AccessCounts {
        let shape = self.shape;
        let mut psum = crate::split::psum_counts_exact(
            shape.ofmap_words(self.n_batch) as f64,
            shape.accumulations_per_ofmap() as f64,
            c_groups as f64,
            (shape.r * r) as f64,
        );
        if shape.is_fc_shaped() {
            // Between-round partials are retained in the chain-top RF
            // instead of spilling to the buffer.
            psum.rf_reads += psum.buffer_reads;
            psum.rf_writes += psum.buffer_writes;
            psum.buffer_reads = 0.0;
            psum.buffer_writes = 0.0;
        }
        psum
    }
}

/// Field-wise minimum of two count sets.
fn field_min(a: &AccessCounts, b: &AccessCounts) -> AccessCounts {
    AccessCounts {
        dram_reads: a.dram_reads.min(b.dram_reads),
        dram_writes: a.dram_writes.min(b.dram_writes),
        buffer_reads: a.buffer_reads.min(b.buffer_reads),
        buffer_writes: a.buffer_writes.min(b.buffer_writes),
        array_hops: a.array_hops.min(b.array_hops),
        rf_reads: a.rf_reads.min(b.rf_reads),
        rf_writes: a.rf_writes.min(b.rf_writes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_arch::cost::TableIv;
    use eyeriss_nn::alexnet;

    fn hw256() -> AcceleratorConfig {
        AcceleratorConfig::under_baseline_area(256, DataflowKind::RowStationary.rf_bytes())
    }

    fn best(shape: &LayerShape, n: usize, hw: &AcceleratorConfig) -> MappingCandidate {
        crate::model::mappings_of(&RowStationaryModel, shape, n, hw)
            .into_iter()
            .min_by(|a, b| {
                TableIv
                    .energy_of(&a.profile)
                    .partial_cmp(&TableIv.energy_of(&b.profile))
                    .unwrap()
            })
            .expect("RS must be feasible on every AlexNet layer")
    }

    #[test]
    fn feasible_on_every_alexnet_layer() {
        let hw = hw256();
        for layer in alexnet::all_layers() {
            let b = best(&layer.shape, 16, &hw);
            assert!(b.active_pes > 0 && b.active_pes <= 256, "{}", layer.name);
        }
    }

    #[test]
    fn rf_reads_equal_macs() {
        // Every MAC reads both operands from the RF under RS.
        let layer = &alexnet::conv_layers()[1]; // CONV2
        let b = best(&layer.shape, 16, &hw256());
        let macs = layer.shape.macs(16) as f64;
        assert_eq!(b.profile.filter.rf_reads, macs);
        assert_eq!(b.profile.ifmap.rf_reads, macs);
    }

    #[test]
    fn conv_energy_dominated_by_rf() {
        // Fig. 10: "the energy consumption of CONV layers is dominated by
        // RF accesses", with RF : (buffer + array) roughly 4:1.
        use eyeriss_arch::energy::Level;
        let mut rf = 0.0;
        let mut rest = 0.0;
        for layer in alexnet::conv_layers() {
            let b = best(&layer.shape, 16, &hw256());
            rf += TableIv.energy_at_level(&b.profile, Level::Rf);
            rest += TableIv.energy_at_level(&b.profile, Level::Buffer)
                + TableIv.energy_at_level(&b.profile, Level::Array);
        }
        let ratio = rf / rest;
        assert!(
            (2.0..=8.0).contains(&ratio),
            "RF:on-chip-rest ratio {ratio:.2} far from the chip's ~4:1"
        );
    }

    #[test]
    fn fc_energy_dominated_by_dram() {
        // Fig. 10: "DRAM accesses dominate the energy consumption of FC
        // layers due to the lack of convolutional data reuse."
        use eyeriss_arch::energy::Level;
        let layer = &alexnet::fc_layers()[1]; // FC2
        let b = best(&layer.shape, 16, &hw256());
        let dram = TableIv.energy_at_level(&b.profile, Level::Dram);
        assert!(dram > 0.5 * TableIv.energy_of(&b.profile));
    }

    #[test]
    fn psum_accumulations_cover_chain() {
        // b*c*d of the psum split must cover C*R^2 accumulations.
        let layer = &alexnet::conv_layers()[2]; // CONV3
        let b = best(&layer.shape, 1, &hw256());
        let macs = layer.shape.macs(1) as f64;
        // RF psum accesses ~ 2*MACs when d dominates; never above 2*MACs
        // plus the array/buffer corrections.
        let rf_acc = b.profile.psum.rf_reads + b.profile.psum.rf_writes;
        assert!(rf_acc <= 2.0 * macs + 1.0);
        assert!(rf_acc > 0.5 * macs);
    }

    #[test]
    fn bigger_batch_does_not_hurt_energy_per_op() {
        let layer = &alexnet::conv_layers()[1];
        let hw = hw256();
        let e1 =
            TableIv.energy_of(&best(&layer.shape, 1, &hw).profile) / layer.shape.macs(1) as f64;
        let e16 =
            TableIv.energy_of(&best(&layer.shape, 16, &hw).profile) / layer.shape.macs(16) as f64;
        assert!(e16 <= e1 * 1.02, "N=16 {e16} vs N=1 {e1}");
    }

    #[test]
    fn dram_per_op_small_for_conv() {
        // Fig. 11a: RS CONV DRAM accesses/op ~ a few 1e-3 at batch 16.
        let hw = hw256();
        let mut acc = 0.0;
        let mut ops = 0.0;
        for layer in alexnet::conv_layers() {
            let b = best(&layer.shape, 16, &hw);
            acc += b.profile.dram_accesses();
            ops += layer.shape.macs(16) as f64;
        }
        let per_op = acc / ops;
        assert!(
            (0.0005..0.01).contains(&per_op),
            "RS CONV DRAM/op {per_op:.5}"
        );
    }

    #[test]
    fn infeasible_when_filter_taller_than_array() {
        let shape = LayerShape::conv(8, 8, 33, 17, 1).unwrap();
        let hw = AcceleratorConfig {
            grid: eyeriss_arch::GridDims::new(16, 16),
            rf_bytes_per_pe: 512.0,
            buffer_bytes: 131072.0,
        };
        assert!(crate::model::mappings_of(&RowStationaryModel, &shape, 1, &hw).is_empty());
    }

    /// Every count of a profile.
    fn counts_of(p: &LayerAccessProfile) -> Vec<f64> {
        let mut out = vec![p.alu_ops];
        for c in [p.ifmap, p.filter, p.psum] {
            out.extend([
                c.dram_reads,
                c.dram_writes,
                c.buffer_reads,
                c.buffer_writes,
                c.array_hops,
                c.rf_reads,
                c.rf_writes,
            ]);
        }
        out
    }

    fn covers(lower: &LayerAccessProfile, profile: &LayerAccessProfile) -> bool {
        counts_of(lower)
            .into_iter()
            .zip(counts_of(profile))
            .all(|(l, c)| l <= c)
    }

    #[test]
    fn bounds_sit_below_every_candidate_they_cover() {
        let shapes: Vec<LayerShape> = alexnet::all_layers()
            .into_iter()
            .chain(eyeriss_nn::mobilenet::mobilenet_v1().into_iter().take(6))
            .map(|l| l.shape)
            .filter(|s| s.kind != eyeriss_nn::LayerKind::Pool)
            .map(|s| s.per_group())
            .collect();
        let hws = [AcceleratorConfig::eyeriss_chip(), hw256()];
        for shape in &shapes {
            for hw in &hws {
                for n in [3, 16] {
                    let space = Space::new(shape, n, hw);
                    for g in space.spatial_groups(hw.grid.cols) {
                        let mut covered = Vec::new();
                        space.visit(&g, &mut covered, None, false);
                        for c in &covered {
                            let MappingParams::RowStationary {
                                p,
                                q,
                                filter_resident,
                                ..
                            } = c.params
                            else {
                                panic!("RS offers RS params");
                            };
                            let n_max = *space.images(p, q).last().expect("c fits the RF");
                            for lower in [
                                g.lower,
                                space.bound(&g, Some(p), None),
                                space.bound(&g, None, Some(q)),
                                space.inner_bound(&g, p, q, n_max, filter_resident),
                            ] {
                                assert!(covers(&lower, &c.profile), "{shape:?} {}", c.params);
                            }
                            assert_eq!(c.active_pes, g.active_pes);
                        }
                        // Priced: the bound's score is at most the lowest
                        // covered score, under either objective.
                        let energy = |p: &LayerAccessProfile| TableIv.energy_of(p);
                        let edp = |p: &LayerAccessProfile| {
                            TableIv.energy_of(p) * TableIv.delay_of(p, g.active_pes)
                        };
                        for score in [&energy as &dyn Fn(&LayerAccessProfile) -> f64, &edp] {
                            let lowest = covered
                                .iter()
                                .map(|c| score(&c.profile))
                                .fold(f64::INFINITY, f64::min);
                            assert!(score(&g.lower) <= lowest, "{shape:?} batch {n}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pruned_groups_keep_the_enumeration_ordinals() {
        // A sink that prunes everything still advances the ordinal past
        // every feasible candidate, so indices never depend on pruning.
        struct PruneAll;
        impl CandidateSink for PruneAll {
            fn offer(&mut self, _: MappingCandidate) {
                panic!("everything is pruned");
            }
            fn prunes(&self, _: &LayerAccessProfile, _: usize) -> bool {
                true
            }
        }
        let shape = alexnet::conv_layers()[2].shape;
        let hw = AcceleratorConfig::eyeriss_chip();
        let ordinal = Cell::new(0);
        fold(&shape, 4, &hw, &mut PruneAll, Some(&ordinal));
        let all = crate::model::mappings_of(&RowStationaryModel, &shape, 4, &hw);
        assert_eq!(ordinal.get(), all.len());
    }

    #[test]
    fn chip_configuration_runs_alexnet() {
        // The fabricated chip (12x14 PEs, 108 kB buffer) must map AlexNet.
        let hw = AcceleratorConfig::eyeriss_chip();
        for layer in alexnet::conv_layers() {
            let b = best(&layer.shape, 4, &hw);
            assert!(b.active_pes <= 168, "{}", layer.name);
        }
    }
}
