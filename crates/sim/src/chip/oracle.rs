//! The PE-driven pass the pass walk and layer kernel replaced, kept as
//! the oracle their psums and statistics are checked against. Every
//! filter row is staged into a pool of [`Pe`] scratchpads, every
//! primitive runs on its PE (CSC as the PE's per-filter scatter), and
//! every multicast, chain hop and buffer access is recorded one row at a
//! time.

use super::{Accelerator, LayerRun};
use crate::csc::{self, CscStats};
use crate::dram::DramModel;
use crate::error::SimError;
use crate::gbuf::GlobalBuffer;
use crate::mesh::{HierarchicalMesh, MeshStats};
use crate::noc::NocStats;
use crate::passes::RsMapping;
use crate::pe::{FilterRows, Pe, PeStats};
use crate::scratch::SimScratch;
use crate::stats::SimStats;
use eyeriss_nn::{Fix16, LayerShape, Tensor4};

/// [`Accelerator::run_conv_mapped`] as the PE-driven pass computes it:
/// one engine per group, no feasibility screen.
pub(crate) fn run_conv_mapped(
    acc: &Accelerator,
    mapping: RsMapping,
    shape: &LayerShape,
    n_batch: usize,
    input: &Tensor4<Fix16>,
    weights: &Tensor4<Fix16>,
    bias: &[Fix16],
) -> Result<LayerRun, SimError> {
    let per_group = shape.per_group();
    let mut psums = Tensor4::zeros([n_batch, shape.m, shape.e, shape.e]);
    let mut stats = SimStats::default();
    for g in 0..shape.groups {
        let mut engine = Engine::new(
            acc,
            &per_group,
            n_batch,
            mapping,
            input,
            weights,
            &mut psums,
            g * per_group.c,
            g * per_group.m,
        );
        engine.run()?;
        stats.merge(&engine.stats);
    }
    let run = LayerRun {
        psums,
        stats,
        mapping,
    };
    Ok(acc.finish(&mut SimScratch::new(), run, input, weights, bias))
}

struct Engine<'a> {
    shape: &'a LayerShape,
    n_batch: usize,
    mapping: RsMapping,
    input: &'a Tensor4<Fix16>,
    weights: &'a Tensor4<Fix16>,
    out: &'a mut Tensor4<i32>,
    chan_base: usize,
    filt_base: usize,
    csc_enabled: bool,
    mesh: Option<HierarchicalMesh>,
    /// An idle PE of this chip; every pass starts from a pool of them.
    fresh_pe: Pe,
    num_pes: usize,
    /// Counters of the pools of past passes.
    pe_total: PeStats,
    row_acc: Vec<i32>,
    csc_values: Vec<Fix16>,
    csc_indices: Vec<u16>,
    glb: GlobalBuffer,
    filter_bus: NocStats,
    ifmap_bus: NocStats,
    chain: NocStats,
    grid_cols: usize,
    stats: SimStats,
    folds: (usize, usize, usize, usize),
    filters_from_dram: bool,
    dram: DramModel,
    pending_dram_words: u64,
}

impl<'a> Engine<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        acc: &'a Accelerator,
        shape: &'a LayerShape,
        n_batch: usize,
        mapping: RsMapping,
        input: &'a Tensor4<Fix16>,
        weights: &'a Tensor4<Fix16>,
        out: &'a mut Tensor4<i32>,
        chan_base: usize,
        filt_base: usize,
    ) -> Self {
        let rf_words = acc.config.rf_words_per_pe();
        let mut fresh_pe = Pe::new(rf_words, rf_words);
        fresh_pe.set_zero_gating(acc.zero_gating);
        Engine {
            shape,
            n_batch,
            mapping,
            input,
            weights,
            out,
            chan_base,
            filt_base,
            csc_enabled: acc.csc_enabled,
            mesh: acc.mesh_model,
            fresh_pe,
            num_pes: acc.config.grid.count(),
            pe_total: PeStats::default(),
            row_acc: Vec::new(),
            csc_values: Vec::new(),
            csc_indices: Vec::new(),
            glb: GlobalBuffer::new(acc.config.buffer_words()),
            filter_bus: NocStats::default(),
            ifmap_bus: NocStats::default(),
            chain: NocStats::default(),
            grid_cols: acc.config.grid.cols,
            stats: SimStats::default(),
            folds: mapping.fold_counts(shape, n_batch),
            filters_from_dram: !mapping.filter_resident,
            dram: acc.dram,
            pending_dram_words: 0,
        }
    }

    fn run(&mut self) -> Result<(), SimError> {
        let (ngs, mgs, cgs, sgs) = self.folds;
        if self.mapping.filter_resident {
            for mg in 0..mgs {
                self.stage_filter_group(mg)?;
                for ng in 0..ngs {
                    for sg in 0..sgs {
                        self.reserve_strip_psums(mg, ng, sg, false)?;
                        for cg in 0..cgs {
                            self.stage_ifmap_slice(ng, sg, cg)?;
                            self.run_pass(mg, ng, sg, cg)?;
                        }
                        self.writeback_strip(mg..mg + 1, ng, sg);
                        self.glb.release_psums();
                    }
                }
            }
        } else {
            for ng in 0..ngs {
                for sg in 0..sgs {
                    self.reserve_strip_psums(0, ng, sg, true)?;
                    for cg in 0..cgs {
                        self.stage_ifmap_slice(ng, sg, cg)?;
                        for mg in 0..mgs {
                            self.run_pass(mg, ng, sg, cg)?;
                        }
                    }
                    self.writeback_strip(0..mgs, ng, sg);
                    self.glb.release_psums();
                }
            }
        }
        let pe_total = self.pe_total;
        self.stats.macs = pe_total.macs;
        self.stats.skipped_macs = pe_total.skipped_macs;
        self.stats.profile.alu_ops = pe_total.macs as f64;
        self.stats.profile.ifmap.rf_reads = pe_total.ifmap_reads as f64;
        self.stats.profile.filter.rf_reads = pe_total.filter_reads as f64;
        self.stats.profile.filter.rf_writes = pe_total.filter_writes as f64;
        self.stats.profile.psum.rf_reads = pe_total.psum_reads as f64;
        self.stats.profile.psum.rf_writes = pe_total.psum_writes as f64;
        let filter_hops = self.filter_bus.word_hops as f64;
        let ifmap_hops = self.ifmap_bus.word_hops as f64;
        let psum_hops = self.chain.word_hops as f64;
        if let Some(mesh) = self.mesh {
            let mut ms = MeshStats {
                transactions: self.filter_bus.transactions
                    + self.ifmap_bus.transactions
                    + self.chain.transactions,
                ..MeshStats::default()
            };
            mesh.charge_bus(&mut ms, filter_hops);
            mesh.charge_bus(&mut ms, ifmap_hops);
            mesh.charge_bus(&mut ms, psum_hops);
            let factor = mesh.routing_factor();
            self.stats.profile.filter.array_hops = filter_hops * factor;
            self.stats.profile.ifmap.array_hops = ifmap_hops * factor;
            self.stats.profile.psum.array_hops = psum_hops * factor;
            self.stats.mesh = Some(ms);
        } else {
            self.stats.profile.filter.array_hops = filter_hops;
            self.stats.profile.ifmap.array_hops = ifmap_hops;
            self.stats.profile.psum.array_hops = psum_hops;
        }
        if self.csc_enabled {
            self.stats.csc = Some(self.csc_storage());
        }
        self.stats.dram_raw_words =
            (self.stats.profile.dram_reads() + self.stats.profile.dram_writes()).round() as u64;
        Ok(())
    }

    fn csc_storage(&self) -> CscStats {
        let mut cs = CscStats::default();
        let s = self.shape;
        for z in 0..self.n_batch {
            for c in 0..s.c {
                for hh in 0..s.h {
                    let row = self.input.row(z, self.chan_base + c, hh);
                    cs.add_row(row.len(), csc::row_nnz(row));
                }
            }
        }
        for f in 0..s.m {
            for c in 0..s.c {
                for i in 0..s.r {
                    let row = self.weights.row(self.filt_base + f, c, i);
                    cs.add_row(row.len(), csc::row_nnz(row));
                }
            }
        }
        cs
    }

    fn stage_filter_group(&mut self, mg: usize) -> Result<(), SimError> {
        let mut words = 0usize;
        for sh in 0..self.mapping.t {
            let fs = self.mapping.filters_of(self.shape, mg, sh);
            words += fs.len() * self.shape.c * self.shape.r * self.shape.r;
        }
        self.stats.profile.filter.dram_reads += words as f64;
        self.pending_dram_words += words as u64;
        self.glb.stage_filters(words)
    }

    fn reserve_strip_psums(
        &mut self,
        mg: usize,
        ng: usize,
        sg: usize,
        all_filters: bool,
    ) -> Result<(), SimError> {
        let (_, _, cgs, _) = self.folds;
        if cgs <= 1 || self.shape.is_fc_shaped() {
            return Ok(());
        }
        let imgs = self.mapping.images_of(self.n_batch, ng).len();
        let rows = self.mapping.ofmap_rows_of(self.shape, sg).len();
        let filters = if all_filters {
            self.shape.m
        } else {
            (0..self.mapping.t)
                .map(|sh| self.mapping.filters_of(self.shape, mg, sh).len())
                .sum()
        };
        self.glb.reserve_psums(imgs * filters * rows * self.shape.e)
    }

    fn stage_ifmap_slice(&mut self, ng: usize, sg: usize, cg: usize) -> Result<(), SimError> {
        let imgs = self.mapping.images_of(self.n_batch, ng).len();
        let yrows = self.mapping.ofmap_rows_of(self.shape, sg);
        let rows_needed = (yrows.len() - 1) * self.shape.u + self.shape.r;
        let mut channels = 0usize;
        for sv in 0..self.mapping.r {
            channels += self.mapping.channels_of(self.shape, cg, sv).len();
        }
        let words = imgs * channels * rows_needed * self.shape.h;
        self.stats.profile.ifmap.dram_reads += words as f64;
        self.pending_dram_words += words as u64;
        self.glb.stage_ifmap(words)
    }

    fn run_pass(&mut self, mg: usize, ng: usize, sg: usize, cg: usize) -> Result<(), SimError> {
        let shape = *self.shape;
        let map = self.mapping;
        let (_, _, cgs, _) = self.folds;
        let imgs = map.images_of(self.n_batch, ng);
        let yrows = map.ofmap_rows_of(&shape, sg);
        let e_cols = yrows.len();
        if e_cols == 0 || imgs.is_empty() {
            return Ok(());
        }
        let (r_filt, u, e_dim, h) = (shape.r, shape.u, shape.e, shape.h);
        let grid_cols = self.grid_cols;
        // Stationary state is per pass: a fresh pool, its counters folded
        // into the total at the end of the pass.
        let mut pes = vec![self.fresh_pe.clone(); self.num_pes];
        let Engine {
            row_acc,
            csc_values,
            csc_indices,
            glb,
            filter_bus,
            ifmap_bus,
            chain,
            stats,
            ..
        } = self;
        let (input, weights, out) = (self.input, self.weights, &mut *self.out);
        let (chan_base, filt_base, csc_on) = (self.chan_base, self.filt_base, self.csc_enabled);

        // ---- load stationary filter rows -----------------------------------
        for sv in 0..map.r {
            let cs = map.channels_of(&shape, cg, sv);
            for sh in 0..map.t {
                let fs = map.filters_of(&shape, mg, sh);
                for i in 0..r_filt {
                    for f in fs.clone() {
                        for c in cs.clone() {
                            if self.filters_from_dram {
                                stats.profile.filter.dram_reads += r_filt as f64;
                                self.pending_dram_words += r_filt as u64;
                            } else {
                                glb.read_words(r_filt);
                                stats.profile.filter.buffer_reads += r_filt as f64;
                            }
                            filter_bus.multicast(1, r_filt, e_cols);
                            let row = weights.row(filt_base + f, c, i);
                            for yy in 0..e_cols {
                                pes[(sv * r_filt + i) * grid_cols + sh * map.e + yy]
                                    .load_filter_row(row)
                                    .map_err(|over| {
                                        SimError::new(format!(
                                            "filter spad overflow by {over} words"
                                        ))
                                    })?;
                            }
                        }
                    }
                }
            }
        }

        // ---- ifmap multicast (diagonal within sets, shared across t) -------
        let rows_needed = (e_cols - 1) * u + r_filt;
        for sv in 0..map.r {
            let cs = map.channels_of(&shape, cg, sv);
            for _z in imgs.clone() {
                for _c in cs.clone() {
                    for local_h in 0..rows_needed {
                        let consumers = (0..e_cols)
                            .filter(|yy| local_h >= u * yy && local_h - u * yy < r_filt)
                            .count();
                        if consumers == 0 {
                            continue;
                        }
                        glb.read_words(h);
                        stats.profile.ifmap.buffer_reads += h as f64;
                        ifmap_bus.multicast(1, h, consumers * map.t);
                    }
                }
            }
        }

        // ---- compute: 1-D primitives + vertical accumulation ---------------
        let mut max_set_ops = 0u64;
        for sh in 0..map.t {
            let fs = map.filters_of(&shape, mg, sh);
            if fs.is_empty() {
                continue;
            }
            for (yy, y) in yrows.clone().enumerate() {
                for z in imgs.clone() {
                    row_acc.clear();
                    row_acc.resize(fs.len() * e_dim, 0);
                    let mut chain_len = 0usize;
                    for sv in 0..map.r {
                        let cs = map.channels_of(&shape, cg, sv);
                        if cs.is_empty() {
                            continue;
                        }
                        chain_len += r_filt;
                        let filter_step = cs.len() * r_filt;
                        for i in 0..r_filt {
                            let pe = &mut pes[(sv * r_filt + i) * grid_cols + sh * map.e + yy];
                            for c in cs.clone() {
                                let row = input.row(z, chan_base + c, u * y + i);
                                let rows = FilterRows {
                                    first: (c - cs.start) * r_filt,
                                    step: filter_step,
                                    count: fs.len(),
                                };
                                if csc_on {
                                    csc::encode_row_into(row, csc_values, csc_indices);
                                    for (k, acc) in row_acc.chunks_exact_mut(e_dim).enumerate() {
                                        pe.run_primitive_csc(
                                            rows.first + k * rows.step,
                                            csc_values,
                                            csc_indices,
                                            row.len(),
                                            u,
                                            true,
                                            acc,
                                        );
                                    }
                                } else {
                                    pe.run_group(rows, row, u, true, row_acc, e_dim);
                                }
                            }
                        }
                    }
                    for (f, acc) in fs.clone().zip(row_acc.chunks_exact(e_dim)) {
                        if chain_len > 0 {
                            chain.accumulate(1, e_dim, chain_len);
                        }
                        if cgs > 1 {
                            if cg > 0 {
                                glb.read_words(e_dim);
                                stats.profile.psum.buffer_reads += e_dim as f64;
                            }
                            if cg + 1 < cgs {
                                glb.write_words(e_dim);
                                stats.profile.psum.buffer_writes += e_dim as f64;
                            }
                        }
                        for (o, v) in out.row_mut(z, filt_base + f, y).iter_mut().zip(acc) {
                            *o = o.wrapping_add(*v);
                        }
                    }
                }
            }
            let set_ops = (imgs.len() * fs.len() * e_dim * r_filt) as u64
                * (0..map.r)
                    .map(|sv| map.channels_of(&shape, cg, sv).len())
                    .max()
                    .unwrap_or(0) as u64;
            max_set_ops = max_set_ops.max(set_ops);
        }
        for pe in &pes {
            self.pe_total.merge(&pe.stats);
        }
        stats.cycles += max_set_ops;
        stats.stall_cycles += self.dram.stall_cycles(self.pending_dram_words, max_set_ops);
        self.pending_dram_words = 0;
        Ok(())
    }

    fn writeback_strip(&mut self, mgs: std::ops::Range<usize>, ng: usize, sg: usize) {
        let imgs = self.mapping.images_of(self.n_batch, ng).len();
        let rows = self.mapping.ofmap_rows_of(self.shape, sg).len();
        let mut filters = 0usize;
        for mg in mgs {
            for sh in 0..self.mapping.t {
                filters += self.mapping.filters_of(self.shape, mg, sh).len();
            }
        }
        let words = imgs * filters * rows * self.shape.e;
        self.stats.profile.psum.dram_writes += words as f64;
        self.pending_dram_words += words as u64;
    }
}
