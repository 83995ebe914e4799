//! The accelerator: the row-stationary dataflow over the PE array,
//! global buffer and NoCs, run as counts plus values.
//!
//! The simulator executes real Q8.8 data and is bit-exact against the
//! golden reference, while measuring every word moved across the
//! hierarchy. A layer run has two halves.
//!
//! * **Counts come from the pass walk.** It visits every processing pass
//!   of the mapping's second folding phase in the chip's loop order,
//!   which the residency policy picks (Section V-B): either the filter
//!   group stays in the buffer across batch/strip loops, or the ifmap
//!   strip stays resident across filter groups. It checks every buffer
//!   and scratchpad capacity, charges each pass's DRAM stall, and
//!   computes the pass's access counts in closed form from the mapping,
//!   the shape and the pass indices. It reads no tensor.
//! * **Values come from the layer kernel** (`chip/kernel.rs`). Each
//!   group's psums are computed once, one `M x E` strip per (image,
//!   ofmap row), with the PE's windowed MAC kernel reading the weight
//!   tensor in place; on a host with AVX2, a copy of the kernel built
//!   for it runs instead, with a pair-MAC loop for stride-1 layers.
//!   Every add wraps, so the order the kernel visits taps in cannot
//!   change a bit. The PE counters that depend on the data (zero-gated and
//!   CSC-skipped MACs, CSC ifmap reads) are set per layer from per-row
//!   zero and nonzero summaries of the ifmap.
//!
//! Both are checked against the PE-driven pass they replace, which
//! stages every filter row into a pool of [`Pe`](crate::pe::Pe)
//! scratchpads and is kept as a test oracle.

use crate::csc::{self, CscStats};
use crate::dram::DramModel;
use crate::error::SimError;
use crate::gbuf::GlobalBuffer;
use crate::mesh::{HierarchicalMesh, MeshStats};
use crate::noc::NocStats;
use crate::passes::RsMapping;
use crate::pe::{self, PeStats};
use crate::rlc;
use crate::scratch::SimScratch;
use crate::stats::SimStats;
use eyeriss_arch::config::AcceleratorConfig;
use eyeriss_nn::{reference, Fix16, LayerKind, LayerShape, Tensor4};
use eyeriss_telemetry::Telemetry;
use std::collections::HashMap;

mod kernel;
#[cfg(test)]
mod oracle;

/// The result of simulating one layer.
#[derive(Debug, Clone)]
pub struct LayerRun {
    /// Full-precision psums `[N][M][E][E]`, bit-exact against
    /// [`eyeriss_nn::reference::conv_accumulate`].
    pub psums: Tensor4<i32>,
    /// Measured statistics.
    pub stats: SimStats,
    /// The mapping that was executed.
    pub mapping: RsMapping,
}

impl LayerRun {
    /// The quantized, ReLU-activated ofmap (what the chip writes back).
    pub fn ofmap(&self) -> Tensor4<Fix16> {
        reference::quantize(&self.psums, true)
    }
}

/// The simulated Eyeriss accelerator.
///
/// # Example
///
/// ```
/// use eyeriss_sim::Accelerator;
/// use eyeriss_arch::AcceleratorConfig;
///
/// let acc = Accelerator::new(AcceleratorConfig::eyeriss_chip());
/// assert_eq!(acc.config().num_pes(), 168);
/// ```
#[derive(Debug, Clone)]
pub struct Accelerator {
    config: AcceleratorConfig,
    zero_gating: bool,
    rlc_enabled: bool,
    csc_enabled: bool,
    mesh_model: Option<HierarchicalMesh>,
    dram: DramModel,
    /// Where layer/pass spans are recorded (defaults to the disabled
    /// [`Telemetry::global`] instance).
    tele: Telemetry,
    /// Private scratch arena, reused across every run on this chip.
    scratch: SimScratch,
    /// Memoized winning mappings per `(shape, batch)` — the search is
    /// deterministic on a fixed configuration, so replaying a layer
    /// reuses its mapping instead of re-scanning the candidate space.
    mappings: HashMap<(LayerShape, usize), RsMapping>,
}

impl Accelerator {
    /// Creates an accelerator with sparsity features disabled.
    pub fn new(config: AcceleratorConfig) -> Self {
        Accelerator {
            config,
            zero_gating: false,
            rlc_enabled: false,
            csc_enabled: false,
            mesh_model: None,
            dram: DramModel::default(),
            tele: Telemetry::global().clone(),
            scratch: SimScratch::new(),
            mappings: HashMap::new(),
        }
    }

    /// Routes this chip's `sim.layer` / `sim.pass` spans to `tele`
    /// instead of the global instance.
    pub fn telemetry(mut self, tele: Telemetry) -> Self {
        self.tele = tele;
        self
    }

    /// Overrides the DRAM bandwidth model.
    pub fn dram(mut self, dram: DramModel) -> Self {
        self.dram = dram;
        self
    }

    /// Enables zero-gating of the PE datapaths (Section V-E).
    pub fn zero_gating(mut self, on: bool) -> Self {
        self.zero_gating = on;
        self
    }

    /// Enables run-length compression of activation DRAM traffic.
    pub fn rlc(mut self, on: bool) -> Self {
        self.rlc_enabled = on;
        self
    }

    /// Enables CSC sparse execution: ifmap rows are stored in the Eyeriss
    /// v2 compressed format and the PEs iterate nonzeros directly, never
    /// issuing zero MACs. Psums stay bit-exact against the dense path;
    /// [`SimStats::csc`] reports the storage win.
    pub fn csc(mut self, on: bool) -> Self {
        self.csc_enabled = on;
        self
    }

    /// Executes array traffic over a v2-style hierarchical mesh instead
    /// of the v1 single-bus NoC: array hop counts inflate by the mesh's
    /// routing factor and [`SimStats::mesh`] reports the local/router hop
    /// split.
    ///
    /// # Panics
    ///
    /// Panics if the mesh was built over a different PE grid than this
    /// accelerator's.
    pub fn mesh(mut self, mesh: HierarchicalMesh) -> Self {
        assert_eq!(
            mesh.grid(),
            self.config.grid,
            "mesh spans a different PE grid than this accelerator"
        );
        self.mesh_model = Some(mesh);
        self
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    /// Runs one CONV or FC layer, returning bit-exact psums and measured
    /// statistics.
    ///
    /// Buffers (the psum strip, RLC code words) and the winning mapping
    /// are reused across calls on the same chip, so repeated layers
    /// execute allocation-free and search-free in steady state.
    ///
    /// # Errors
    ///
    /// Fails if no feasible mapping exists or a capacity is exceeded.
    ///
    /// # Panics
    ///
    /// Panics if tensor dimensions disagree with `shape`.
    pub fn run_conv(
        &mut self,
        shape: &LayerShape,
        n_batch: usize,
        input: &Tensor4<Fix16>,
        weights: &Tensor4<Fix16>,
        bias: &[Fix16],
    ) -> Result<LayerRun, SimError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.run_conv_with(&mut scratch, shape, n_batch, input, weights, bias);
        self.scratch = scratch;
        result
    }

    /// [`Accelerator::run_conv`] against a caller-owned [`SimScratch`] —
    /// for pooled execution contexts shared across accelerators (e.g.
    /// one scratch per cluster worker thread). See [`SimScratch`] for
    /// the reuse rules.
    ///
    /// # Errors
    ///
    /// Fails if no feasible mapping exists or a capacity is exceeded.
    ///
    /// # Panics
    ///
    /// Panics if tensor dimensions disagree with `shape`.
    pub fn run_conv_with(
        &mut self,
        scratch: &mut SimScratch,
        shape: &LayerShape,
        n_batch: usize,
        input: &Tensor4<Fix16>,
        weights: &Tensor4<Fix16>,
        bias: &[Fix16],
    ) -> Result<LayerRun, SimError> {
        let mapping = match self.mappings.get(&(*shape, n_batch)) {
            Some(&m) => m,
            None => {
                let m = RsMapping::plan(shape, n_batch, &self.config)?;
                self.mappings.insert((*shape, n_batch), m);
                m
            }
        };
        self.run_conv_mapped(scratch, mapping, shape, n_batch, input, weights, bias)
    }

    /// [`Accelerator::run_conv_mapped`] against the chip's internal
    /// scratch — the planned-execution path for callers that let the
    /// accelerator own its buffers.
    ///
    /// # Errors
    ///
    /// Fails under [`Accelerator::run_conv_mapped`]'s conditions.
    ///
    /// # Panics
    ///
    /// Panics if tensor dimensions disagree with `shape`.
    pub fn run_conv_planned(
        &mut self,
        mapping: RsMapping,
        shape: &LayerShape,
        n_batch: usize,
        input: &Tensor4<Fix16>,
        weights: &Tensor4<Fix16>,
        bias: &[Fix16],
    ) -> Result<LayerRun, SimError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result =
            self.run_conv_mapped(&mut scratch, mapping, shape, n_batch, input, weights, bias);
        self.scratch = scratch;
        result
    }

    /// Executes one layer under an explicitly chosen row-stationary
    /// mapping — the planned-execution path: a precompiled plan's
    /// winning candidate runs directly, with no repeat mapping search.
    ///
    /// Counts come from the pass walk, values from the layer kernel (see
    /// the [module docs](self)). The walk depends only on the per-group
    /// shape, so a grouped layer walks once and charges every group its
    /// counts; the kernel runs once per group, over that group's slice of
    /// the shared tensors.
    ///
    /// # Errors
    ///
    /// Fails if the mapping does not fit this configuration
    /// ([`RsMapping::fits`]: a zero factor, more PE rows or columns than
    /// the array has, or more RF words than a PE holds), or if a pass
    /// exceeds a scratchpad or buffer capacity. Any mapping the
    /// row-stationary search produces against the same hardware runs.
    ///
    /// # Panics
    ///
    /// Panics if tensor dimensions disagree with `shape`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_conv_mapped(
        &mut self,
        scratch: &mut SimScratch,
        mapping: RsMapping,
        shape: &LayerShape,
        n_batch: usize,
        input: &Tensor4<Fix16>,
        weights: &Tensor4<Fix16>,
        bias: &[Fix16],
    ) -> Result<LayerRun, SimError> {
        assert_eq!(
            input.dims(),
            [n_batch, shape.in_channels(), shape.h, shape.h],
            "ifmap dims mismatch"
        );
        assert_eq!(
            weights.dims(),
            [shape.m, shape.c, shape.r, shape.r],
            "filter dims mismatch"
        );
        assert_eq!(bias.len(), shape.m, "bias length mismatch");
        if !mapping.fits(shape, &self.config) {
            let grid = self.config.grid;
            return Err(SimError::new(format!(
                "{mapping:?} does not fit a {}x{} array with {} RF words per PE",
                grid.rows,
                grid.cols,
                self.config.rf_words_per_pe()
            )));
        }

        let _layer_span = self.tele.span_with("sim.layer", "sim", n_batch as u64);
        let per_group = shape.per_group();
        let walk = PassWalk::new(self, &per_group, n_batch, mapping).run()?;
        let mut psums = Tensor4::zeros([n_batch, shape.m, shape.e, shape.e]);
        let mut stats = SimStats::default();
        for g in 0..shape.groups {
            let group = GroupSlice {
                shape: &per_group,
                n_batch,
                chan_base: g * per_group.c,
                filt_base: g * per_group.m,
            };
            group.convolve(input, weights, scratch, &mut psums);
            let (pe, csc) = group.pe_counts(
                input,
                weights,
                self.zero_gating || self.csc_enabled,
                self.csc_enabled,
            );
            stats.merge(&walk.group_stats(&pe, csc, self.mesh_model));
        }
        let run = LayerRun {
            psums,
            stats,
            mapping,
        };
        Ok(self.finish(scratch, run, input, weights, bias))
    }

    /// The layer-level tail of a run: adds the bias and prices the
    /// tensors the chip stores compressed.
    fn finish(
        &self,
        scratch: &mut SimScratch,
        mut run: LayerRun,
        input: &Tensor4<Fix16>,
        weights: &Tensor4<Fix16>,
        bias: &[Fix16],
    ) -> LayerRun {
        // Bias is added once per ofmap value; the paper's accounting
        // ignores its (negligible) movement energy.
        let [n_batch, _, e, _] = run.psums.dims();
        for z in 0..n_batch {
            for (f, bf) in bias.iter().enumerate() {
                let b = bf.to_accum();
                for x in 0..e {
                    for p in run.psums.row_mut(z, f, x) {
                        *p = p.wrapping_add(b);
                    }
                }
            }
        }
        if self.rlc_enabled || self.csc_enabled {
            // Tensors the chip stores compressed are priced at their
            // measured ratio. CSC supersedes RLC for ifmaps and covers
            // filters too (the v2 storage layout keeps both encoded end
            // to end); its ratio can dip below 1.0 on dense data — the
            // count/address vectors are overhead, and the model charges
            // it. Psums are never CSC-encoded, so their write stream
            // only benefits from RLC.
            let (in_ratio, filt_ratio) = if self.csc_enabled {
                (
                    csc::tensor_stats(input).compression_ratio(),
                    csc::tensor_stats(weights).compression_ratio(),
                )
            } else {
                let in_len = rlc::encode_into(input.as_slice(), &mut scratch.rlc_words);
                (rlc::ratio_of(in_len, &scratch.rlc_words), 1.0)
            };
            let out_ratio = if self.rlc_enabled {
                // The ofmap ratio streams the quantization — no
                // materialized ofmap tensor, identical arithmetic to
                // `reference::quantize(&psums, true)`.
                let out_len = rlc::encode_stream(
                    run.psums.iter().map(|&p| Fix16::from_accum(p).relu()),
                    &mut scratch.rlc_words,
                );
                rlc::ratio_of(out_len, &scratch.rlc_words)
            } else {
                1.0
            };
            let profile = &run.stats.profile;
            let compressed = profile.ifmap.dram_reads / in_ratio
                + profile.filter.dram_reads / filt_ratio
                + profile.psum.dram_writes / out_ratio;
            run.stats.dram_compressed_words = Some(compressed.round() as u64);
        }
        run
    }

    /// Runs a POOL layer by swapping the MAC for a MAX comparison
    /// (Section V-D), plane by plane.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is not a pooling shape or dimensions disagree.
    pub fn run_pool(
        &mut self,
        shape: &LayerShape,
        n_batch: usize,
        input: &Tensor4<Fix16>,
    ) -> (Tensor4<Fix16>, SimStats) {
        assert_eq!(shape.kind, LayerKind::Pool, "shape must be a POOL layer");
        let _pool_span = self.tele.span_with("sim.pool", "sim", n_batch as u64);
        let out = reference::max_pool(shape, n_batch, input);
        let outputs = (n_batch * shape.c * shape.e * shape.e) as u64;
        let window = (shape.r * shape.r) as u64;
        let mut stats = SimStats::default();
        stats.profile.ifmap.dram_reads = (n_batch * shape.c * shape.h * shape.h) as f64;
        stats.profile.ifmap.buffer_reads = stats.profile.ifmap.dram_reads;
        stats.profile.ifmap.rf_reads = (outputs * window) as f64;
        stats.profile.psum.dram_writes = outputs as f64;
        stats.profile.alu_ops = (outputs * window) as f64;
        stats.macs = outputs * window;
        let active = (shape.e * shape.e).min(self.config.num_pes()) as u64;
        stats.cycles = (outputs * window).div_ceil(active);
        (out, stats)
    }
}

/// The pass walk of one group: every processing pass of the mapping's
/// folding schedule, in the chip's loop order, with each pass's access
/// counts in closed form. It reads no tensor, so every group of a layer
/// walks alike.
struct PassWalk<'a> {
    shape: &'a LayerShape,
    n_batch: usize,
    mapping: RsMapping,
    folds: (usize, usize, usize, usize),
    rf_words: usize,
    dram: DramModel,
    tele: &'a Telemetry,
    glb: GlobalBuffer,
    /// Buffer and DRAM traffic, cycles and stalls.
    stats: SimStats,
    filter_noc: NocStats,
    ifmap_noc: NocStats,
    psum_noc: NocStats,
    /// Filter spad fills, summed over PEs.
    filter_writes: u64,
    pending_dram_words: u64,
}

impl<'a> PassWalk<'a> {
    fn new(
        acc: &'a Accelerator,
        shape: &'a LayerShape,
        n_batch: usize,
        mapping: RsMapping,
    ) -> Self {
        PassWalk {
            shape,
            n_batch,
            mapping,
            folds: mapping.fold_counts(shape, n_batch),
            rf_words: acc.config.rf_words_per_pe(),
            dram: acc.dram,
            tele: &acc.tele,
            glb: GlobalBuffer::new(acc.config.buffer_words()),
            stats: SimStats::default(),
            filter_noc: NocStats::default(),
            ifmap_noc: NocStats::default(),
            psum_noc: NocStats::default(),
            filter_writes: 0,
            pending_dram_words: 0,
        }
    }

    fn run(mut self) -> Result<Self, SimError> {
        let (ngs, mgs, cgs, sgs) = self.folds;
        if self.mapping.filter_resident {
            for mg in 0..mgs {
                self.stage_filter_group(mg)?;
                for ng in 0..ngs {
                    for sg in 0..sgs {
                        self.reserve_strip_psums(mg, ng, sg, false)?;
                        for cg in 0..cgs {
                            self.stage_ifmap_slice(ng, sg, cg)?;
                            self.pass(mg, ng, sg, cg)?;
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
                            self.pass(mg, ng, sg, cg)?;
                        }
                    }
                    self.writeback_strip(0..mgs, ng, sg);
                    self.glb.release_psums();
                }
            }
        }
        Ok(self)
    }

    /// One group's [`SimStats`]: the walk's counts plus the group's PE
    /// counters and CSC storage, with array hops charged over `mesh` when
    /// the chip has one.
    fn group_stats(
        &self,
        pe: &PeStats,
        csc: Option<CscStats>,
        mesh: Option<HierarchicalMesh>,
    ) -> SimStats {
        let mut stats = self.stats.clone();
        stats.macs = pe.macs;
        stats.skipped_macs = pe.skipped_macs;
        let p = &mut stats.profile;
        p.alu_ops = pe.macs as f64;
        p.ifmap.rf_reads = pe.ifmap_reads as f64;
        p.filter.rf_reads = pe.filter_reads as f64;
        p.filter.rf_writes = self.filter_writes as f64;
        p.psum.rf_reads = pe.psum_reads as f64;
        p.psum.rf_writes = pe.psum_writes as f64;
        // The v1 buses counted delivery hops; rides over the mesh keep
        // those as local hops and add the routing factor's excess as
        // router traversals, so the charged array cost is hops x factor —
        // the same closed form the flex-rs analytical profiles use.
        let nocs = [self.filter_noc, self.ifmap_noc, self.psum_noc];
        let [filter_hops, ifmap_hops, psum_hops] = nocs.map(|noc| noc.word_hops as f64);
        let factor = mesh.map_or(1.0, |mesh| mesh.routing_factor());
        p.filter.array_hops = filter_hops * factor;
        p.ifmap.array_hops = ifmap_hops * factor;
        p.psum.array_hops = psum_hops * factor;
        stats.mesh = mesh.map(|mesh| {
            let mut ms = MeshStats {
                transactions: nocs.iter().map(|noc| noc.transactions).sum(),
                ..MeshStats::default()
            };
            for hops in [filter_hops, ifmap_hops, psum_hops] {
                mesh.charge_bus(&mut ms, hops);
            }
            ms
        });
        stats.csc = csc;
        stats.dram_raw_words =
            (stats.profile.dram_reads() + stats.profile.dram_writes()).round() as u64;
        debug_assert!(stats.profile.is_valid());
        stats
    }

    /// Loads a filter group (all channels) into the buffer, once per group.
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

    /// Reserves the strip's psum tile in the buffer (only needed when the
    /// accumulation folds over more than one channel group).
    fn reserve_strip_psums(
        &mut self,
        mg: usize,
        ng: usize,
        sg: usize,
        all_filters: bool,
    ) -> Result<(), SimError> {
        let (_, _, cgs, _) = self.folds;
        if cgs <= 1 || self.shape.is_fc_shaped() {
            // Completed spatially / retained in the RF: no buffer tile.
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

    /// Fetches the ifmap rows a (batch group, strip, channel group) pass
    /// needs from DRAM into the buffer.
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

    /// Counts one processing pass: filter loads, ifmap multicast, vertical
    /// accumulation and psum folding, each a closed form of the pass's
    /// channel sets (one per vertical set) and filter sets (one per
    /// horizontal set).
    fn pass(&mut self, mg: usize, ng: usize, sg: usize, cg: usize) -> Result<(), SimError> {
        let _span = self.tele.span("sim.pass", "sim");
        let (shape, map) = (*self.shape, self.mapping);
        let (_, _, cgs, _) = self.folds;
        let imgs = map.images_of(self.n_batch, ng).len();
        let e_cols = map.ofmap_rows_of(&shape, sg).len();
        let (r, u, e, h) = (shape.r, shape.u, shape.e, shape.h);
        let (mut chans, mut max_chans, mut live_sets) = (0, 0, 0);
        for sv in 0..map.r {
            let n = map.channels_of(&shape, cg, sv).len();
            chans += n;
            max_chans = max_chans.max(n);
            live_sets += usize::from(n > 0);
        }
        let (mut filters, mut max_filters) = (0, 0);
        for sh in 0..map.t {
            let n = map.filters_of(&shape, mg, sh).len();
            filters += n;
            max_filters = max_filters.max(n);
        }

        // Filter loads: one R-word row per (channel, filter, filter row)
        // of the pass, read from the buffer (or streamed from DRAM when
        // the ifmap is resident) and multicast along its PE row to the
        // strip's `e_cols` PEs, each writing it into its spad. A PE holds
        // the rows of its vertical set's channels x horizontal set's
        // filters; the first row past the spad overflows it.
        if max_chans * max_filters * r > self.rf_words {
            let over = (self.rf_words / r + 1) * r - self.rf_words;
            return Err(SimError::new(format!(
                "filter spad overflow by {over} words"
            )));
        }
        let loads = chans * filters * r;
        let words = loads * r;
        if map.filter_resident {
            self.glb.read_words(words);
            self.stats.profile.filter.buffer_reads += words as f64;
        } else {
            self.stats.profile.filter.dram_reads += words as f64;
            self.pending_dram_words += words as u64;
        }
        self.filter_noc.multicast(loads, r, loads * e_cols);
        self.filter_writes += (words * e_cols) as u64;

        // Ifmap multicast, per (image, channel): each of the rows the
        // strip's windows cover is read once and multicast diagonally to
        // the PEs whose window holds it, in every horizontal set. The
        // windows, `u` rows apart, cover `(e_cols - 1) * min(u, R) + R`
        // rows and hold `R` rows each.
        let planes = imgs * chans;
        let rows = planes * ((e_cols - 1) * u.min(r) + r);
        self.glb.read_words(rows * h);
        self.stats.profile.ifmap.buffer_reads += (rows * h) as f64;
        self.ifmap_noc
            .multicast(rows, h, planes * e_cols * r * map.t);

        // Vertical accumulation: each filter's psum row, per ofmap row
        // and image, climbs the column through the R PEs of every live
        // vertical set, then folds into the strip psums — through the
        // buffer when the accumulation spans channel groups.
        let psum_rows = filters * e_cols * imgs;
        if live_sets > 0 {
            self.psum_noc.accumulate(psum_rows, e, r * live_sets);
        }
        if cgs > 1 {
            if cg > 0 {
                self.glb.read_words(psum_rows * e);
                self.stats.profile.psum.buffer_reads += (psum_rows * e) as f64;
            }
            if cg + 1 < cgs {
                self.glb.write_words(psum_rows * e);
                self.stats.profile.psum.buffer_writes += (psum_rows * e) as f64;
            }
        }

        // The busiest set bounds the pass latency. Double buffering
        // overlaps this pass's DRAM traffic with its compute; only the
        // excess stalls the array.
        let cycles = (imgs * max_filters * e * r * max_chans) as u64;
        self.stats.cycles += cycles;
        self.stats.stall_cycles += self.dram.stall_cycles(self.pending_dram_words, cycles);
        self.pending_dram_words = 0;
        Ok(())
    }

    /// Writes the completed strip psums back to DRAM.
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

/// One group's slice of a layer: the per-group shape, and the first input
/// channel and filter of the shared tensors it addresses.
struct GroupSlice<'a> {
    shape: &'a LayerShape,
    n_batch: usize,
    chan_base: usize,
    filt_base: usize,
}

impl GroupSlice<'_> {
    /// The group's PE counters, and its CSC storage on a CSC chip. Every
    /// primitive slides one ifmap row under all `M` filters, so each
    /// visit of a row issues `M x E x R` taps. `skip_zeros` chips skip
    /// the taps whose pixel is zero (`M x` the row's zero taps); a CSC
    /// chip reads only the row's nonzeros (`M x` its nonzero count).
    /// Everything else follows: filter and psum accesses are the
    /// performed MACs.
    fn pe_counts(
        &self,
        input: &Tensor4<Fix16>,
        weights: &Tensor4<Fix16>,
        skip_zeros: bool,
        csc: bool,
    ) -> (PeStats, Option<CscStats>) {
        let s = self.shape;
        let ops = s.macs(self.n_batch);
        let (mut zero_taps, mut nonzeros) = (0u64, 0u64);
        let mut storage = CscStats::default();
        if skip_zeros {
            for z in 0..self.n_batch {
                for c in 0..s.c {
                    for hh in 0..s.h {
                        let row = input.row(z, self.chan_base + c, hh);
                        let visits = row_visits(s, hh);
                        if visits > 0 {
                            zero_taps += visits * pe::zero_taps(row, s.r, s.u, s.e);
                        }
                        if csc {
                            let nnz = csc::row_nnz(row);
                            nonzeros += visits * nnz as u64;
                            storage.add_row(row.len(), nnz);
                        }
                    }
                }
            }
        }
        let skipped = s.m as u64 * zero_taps;
        let performed = ops - skipped;
        let pe = PeStats {
            macs: performed,
            skipped_macs: skipped,
            ifmap_reads: if csc { s.m as u64 * nonzeros } else { ops },
            filter_reads: performed,
            // Spad fills are the pass walk's count.
            filter_writes: 0,
            psum_reads: performed,
            psum_writes: performed,
        };
        if !csc {
            return (pe, None);
        }
        for f in self.filt_base..self.filt_base + s.m {
            for c in 0..s.c {
                for i in 0..s.r {
                    let row = weights.row(f, c, i);
                    storage.add_row(row.len(), csc::row_nnz(row));
                }
            }
        }
        (pe, Some(storage))
    }
}

/// How many primitives read ifmap row `hh`: the ofmap rows `y` whose
/// window rows `u * y..u * y + R` cover it.
fn row_visits(shape: &LayerShape, hh: usize) -> u64 {
    let first = (hh + 1).saturating_sub(shape.r).div_ceil(shape.u);
    let last = (hh / shape.u).min(shape.e - 1);
    (last + 1).saturating_sub(first) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_nn::{alexnet, synth};

    fn small_chip() -> AcceleratorConfig {
        AcceleratorConfig {
            grid: eyeriss_arch::GridDims::new(6, 8),
            rf_bytes_per_pe: 512.0,
            buffer_bytes: 32.0 * 1024.0,
        }
    }

    fn run_and_check(shape: &LayerShape, n: usize, config: AcceleratorConfig) -> LayerRun {
        let input = synth::ifmap(shape, n, 11);
        let weights = synth::filters(shape, 12);
        let bias = synth::biases(shape, 13);
        let mut acc = Accelerator::new(config);
        let run = acc.run_conv(shape, n, &input, &weights, &bias).unwrap();
        let golden = reference::conv_accumulate(shape, n, &input, &weights, &bias);
        assert_eq!(run.psums, golden, "simulator diverged from golden model");
        run
    }

    #[test]
    fn bit_exact_on_strided_conv() {
        let shape = LayerShape::conv(6, 3, 19, 3, 2).unwrap();
        run_and_check(&shape, 2, small_chip());
    }

    #[test]
    fn bit_exact_on_multi_strip_layer() {
        // E = 13 exceeds the 8-wide array -> strip mining exercised.
        let shape = LayerShape::conv(4, 5, 15, 3, 1).unwrap();
        run_and_check(&shape, 1, small_chip());
    }

    #[test]
    fn bit_exact_on_fc_shape() {
        let shape = LayerShape::fully_connected(10, 6, 4).unwrap();
        run_and_check(&shape, 3, small_chip());
    }

    #[test]
    fn bit_exact_on_scaled_alexnet_conv3() {
        // CONV3 geometry (3x3, 13x13 ofmap) at reduced channel counts.
        let shape = LayerShape::conv(8, 6, 15, 3, 1).unwrap();
        let run = run_and_check(&shape, 2, AcceleratorConfig::eyeriss_chip());
        assert_eq!(run.stats.macs, shape.macs(2));
    }

    #[test]
    fn mac_count_matches_shape() {
        let shape = LayerShape::conv(5, 4, 11, 3, 2).unwrap();
        let run = run_and_check(&shape, 2, small_chip());
        assert_eq!(run.stats.macs, shape.macs(2));
        assert_eq!(
            run.stats.profile.psum.dram_writes,
            shape.ofmap_words(2) as f64
        );
    }

    #[test]
    fn zero_gating_skips_but_matches() {
        let shape = LayerShape::conv(4, 3, 12, 3, 1).unwrap();
        let input = synth::sparse_ifmap(&shape, 1, 5, 0.6);
        let weights = synth::filters(&shape, 6);
        let bias = synth::biases(&shape, 7);
        let golden = reference::conv_accumulate(&shape, 1, &input, &weights, &bias);

        let mut acc = Accelerator::new(small_chip()).zero_gating(true);
        let run = acc.run_conv(&shape, 1, &input, &weights, &bias).unwrap();
        assert_eq!(run.psums, golden);
        assert!(run.stats.gating_fraction() > 0.4);
        assert_eq!(run.stats.macs + run.stats.skipped_macs, shape.macs(1));
    }

    #[test]
    fn full_scale_operands_wrap_like_the_reference() {
        // CONV1's 11 taps of MIN x MIN (2^30 each) overflow an i32 psum
        // within one filter row. Every datapath, the fold into the ofmap
        // and both references wrap, in debug builds as in release.
        let shape = LayerShape::conv(2, 2, 19, 11, 4).unwrap();
        let input = Tensor4::from_fn([1, 2, 19, 19], |_, _, _, _| Fix16::MIN);
        let weights = Tensor4::from_fn([2, 2, 11, 11], |_, _, _, _| Fix16::MIN);
        let bias = [Fix16::MIN, Fix16::MAX];
        let golden = reference::conv_accumulate(&shape, 1, &input, &weights, &bias);
        let taps = (shape.c * shape.r * shape.r) as i64;
        let exact = taps * (1i64 << 30) + i64::from(bias[0].to_accum());
        assert!(exact > i64::from(i32::MAX));
        assert_eq!(golden[(0, 0, 0, 0)], exact as i32);
        assert_eq!(
            eyeriss_nn::im2col::conv_accumulate(&shape, 1, &input, &weights, &bias),
            golden
        );
        let chip = || Accelerator::new(AcceleratorConfig::eyeriss_chip());
        for mut acc in [chip(), chip().zero_gating(true), chip().csc(true)] {
            let run = acc.run_conv(&shape, 1, &input, &weights, &bias).unwrap();
            assert_eq!(run.psums, golden);
        }
    }

    #[test]
    fn rlc_reduces_sparse_dram_traffic() {
        let shape = LayerShape::conv(4, 3, 12, 3, 1).unwrap();
        let input = synth::sparse_ifmap(&shape, 1, 5, 0.7);
        let weights = synth::filters(&shape, 6);
        let bias = synth::biases(&shape, 7);
        let mut acc = Accelerator::new(small_chip()).rlc(true);
        let run = acc.run_conv(&shape, 1, &input, &weights, &bias).unwrap();
        assert!(
            run.stats.compression_ratio() > 1.2,
            "ratio {}",
            run.stats.compression_ratio()
        );
    }

    #[test]
    fn pool_layer_matches_reference() {
        let shape = LayerShape::pool(3, 8, 2, 2).unwrap();
        let input = synth::ifmap(&shape, 2, 3);
        let mut acc = Accelerator::new(small_chip());
        let (out, stats) = acc.run_pool(&shape, 2, &input);
        assert_eq!(out, reference::max_pool(&shape, 2, &input));
        assert_eq!(stats.macs, (2 * 3 * 4 * 4 * 4) as u64);
    }

    #[test]
    fn utilization_is_sane() {
        let shape = LayerShape::conv(8, 6, 15, 3, 1).unwrap();
        let run = run_and_check(&shape, 2, small_chip());
        let util = run.stats.utilization(48);
        assert!(util > 0.05 && util <= 1.0, "utilization {util}");
    }

    #[test]
    fn chip_runs_alexnet_conv1_slice() {
        // CONV1 geometry (11x11, stride 4) with few filters/channels.
        let shape = LayerShape::conv(4, 3, 227, 11, 4).unwrap();
        let run = run_and_check(&shape, 1, AcceleratorConfig::eyeriss_chip());
        assert!(run.stats.cycles > 0);
    }

    #[test]
    fn rf_dominates_onchip_energy_for_conv() {
        use eyeriss_arch::cost::TableIv;
        // The chip-verification claim of Section VII-A: RF : (buffer+array)
        // is roughly 4:1 for CONV layers under RS.
        let shape = LayerShape::conv(16, 8, 19, 3, 1).unwrap();
        let run = run_and_check(&shape, 4, AcceleratorConfig::eyeriss_chip());
        let ratio = run.stats.rf_to_onchip_rest_ratio(&TableIv);
        assert!(
            (1.5..=10.0).contains(&ratio),
            "RF:on-chip-rest ratio {ratio:.2}"
        );
    }

    #[test]
    fn grouped_conv_is_bit_exact() {
        // 3 groups of 2 input channels, 2 filters each.
        let shape = LayerShape::conv_grouped(6, 2, 13, 3, 1, 3).unwrap();
        run_and_check(&shape, 2, small_chip());
    }

    #[test]
    fn depthwise_conv_is_bit_exact() {
        let shape = LayerShape::depthwise(5, 11, 3, 1).unwrap();
        let run = run_and_check(&shape, 2, small_chip());
        assert_eq!(run.stats.macs, shape.macs(2));
    }

    #[test]
    fn csc_execution_is_bit_exact_and_skips_zeros() {
        let shape = LayerShape::conv(4, 3, 12, 3, 1).unwrap();
        let input = synth::sparse_ifmap(&shape, 1, 5, 0.6);
        let weights = synth::filters(&shape, 6);
        let bias = synth::biases(&shape, 7);
        let golden = reference::conv_accumulate(&shape, 1, &input, &weights, &bias);

        let mut dense = Accelerator::new(small_chip());
        let mut sparse = Accelerator::new(small_chip()).csc(true);
        let d = dense.run_conv(&shape, 1, &input, &weights, &bias).unwrap();
        let s = sparse.run_conv(&shape, 1, &input, &weights, &bias).unwrap();
        assert_eq!(s.psums, golden);
        assert_eq!(s.psums, d.psums);
        // CSC never issues the zero MACs the dense path executes.
        assert_eq!(s.stats.macs + s.stats.skipped_macs, d.stats.macs);
        assert!(s.stats.skipped_macs > 0);
        assert!(s.stats.profile.ifmap.rf_reads < d.stats.profile.ifmap.rf_reads);
        let cs = s.stats.csc.expect("CSC stats recorded");
        assert!(cs.compression_ratio() > 1.0, "{cs:?}");
        assert!(d.stats.csc.is_none());
    }

    #[test]
    fn csc_prices_dram_traffic_like_rlc() {
        use eyeriss_arch::cost::TableIv;
        let shape = LayerShape::conv(4, 3, 12, 3, 1).unwrap();
        let input = synth::sparse_ifmap(&shape, 1, 5, 0.7);
        let weights = synth::filters(&shape, 6);
        let bias = synth::biases(&shape, 7);
        let mut sparse = Accelerator::new(small_chip()).csc(true);
        let s = sparse.run_conv(&shape, 1, &input, &weights, &bias).unwrap();
        // Sparse execution prices ifmap + filter DRAM traffic at the
        // measured CSC storage ratio.
        assert!(
            s.stats.compression_ratio() > 1.0,
            "ratio {}",
            s.stats.compression_ratio()
        );
        // The compressed report charges strictly less DRAM energy, and
        // leaves every other level untouched.
        use eyeriss_arch::energy::Level;
        let full = s.stats.cost_report(&TableIv);
        let cheap = s.stats.compressed_cost_report(&TableIv);
        assert!(cheap.energy_at(Level::Dram) < full.energy_at(Level::Dram));
        assert_eq!(cheap.energy_at(Level::Rf), full.energy_at(Level::Rf));
        assert_eq!(
            cheap.energy_at(Level::Buffer),
            full.energy_at(Level::Buffer)
        );
        // A dense run's compressed report is the identity.
        let mut dense = Accelerator::new(small_chip());
        let d = dense.run_conv(&shape, 1, &input, &weights, &bias).unwrap();
        assert_eq!(
            d.stats.compressed_cost_report(&TableIv).data_energy(),
            d.stats.cost_report(&TableIv).data_energy()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        #[test]
        fn prop_csc_chip_runs_are_bit_exact_at_any_sparsity(
            seed in 0u64..1_000,
            // 0 -> fully dense, 10 -> all-zero ifmap, else in between.
            sparsity_tenths in 0u32..=10,
            depthwise in proptest::arbitrary::any::<bool>(),
        ) {
            let sparsity = f64::from(sparsity_tenths) / 10.0;
            // The layer-level version of the PE property: whole grouped
            // and ungrouped runs stay bit-exact under CSC at every
            // sparsity, and the SimStats work invariant holds.
            let shape = if depthwise {
                LayerShape::depthwise(4, 11, 3, 1).unwrap()
            } else {
                LayerShape::conv(3, 2, 11, 3, 1).unwrap()
            };
            let input = synth::sparse_ifmap(&shape, 1, seed, sparsity);
            let weights = synth::filters(&shape, seed ^ 0xf11e);
            let bias = synth::biases(&shape, seed ^ 0xb1a5);
            let golden = reference::conv_accumulate(&shape, 1, &input, &weights, &bias);

            let mut dense = Accelerator::new(small_chip());
            let mut sparse = Accelerator::new(small_chip()).csc(true);
            let d = dense.run_conv(&shape, 1, &input, &weights, &bias).unwrap();
            let s = sparse.run_conv(&shape, 1, &input, &weights, &bias).unwrap();
            proptest::prop_assert_eq!(&s.psums, &golden);
            proptest::prop_assert_eq!(&s.psums, &d.psums);
            proptest::prop_assert_eq!(s.stats.macs + s.stats.skipped_macs, d.stats.macs);
            proptest::prop_assert!(s.stats.csc.is_some());
        }
    }

    #[test]
    fn mesh_execution_inflates_array_hops_by_the_routing_factor() {
        let shape = LayerShape::conv(4, 3, 12, 3, 1).unwrap();
        let input = synth::ifmap(&shape, 1, 5);
        let weights = synth::filters(&shape, 6);
        let bias = synth::biases(&shape, 7);

        let config = small_chip();
        let mesh =
            crate::mesh::HierarchicalMesh::new(config.grid, eyeriss_arch::GridDims::new(3, 1), 4)
                .unwrap();
        let factor = mesh.routing_factor();
        assert!(factor > 1.0);
        let mut bus = Accelerator::new(config);
        let mut meshed = Accelerator::new(config).mesh(mesh);
        let b = bus.run_conv(&shape, 1, &input, &weights, &bias).unwrap();
        let m = meshed.run_conv(&shape, 1, &input, &weights, &bias).unwrap();
        assert_eq!(m.psums, b.psums, "mesh must not change arithmetic");
        for (mh, bh) in [
            (
                m.stats.profile.filter.array_hops,
                b.stats.profile.filter.array_hops,
            ),
            (
                m.stats.profile.ifmap.array_hops,
                b.stats.profile.ifmap.array_hops,
            ),
            (
                m.stats.profile.psum.array_hops,
                b.stats.profile.psum.array_hops,
            ),
        ] {
            assert!((mh - bh * factor).abs() < 1e-6, "{mh} vs {bh} x {factor}");
        }
        let ms = m.stats.mesh.expect("mesh stats recorded");
        let bus_hops = b.stats.profile.filter.array_hops
            + b.stats.profile.ifmap.array_hops
            + b.stats.profile.psum.array_hops;
        assert!((ms.total_hops() - bus_hops * factor).abs() < 1e-6);
        assert!(ms.router_hops > 0.0);
        assert!(b.stats.mesh.is_none());
    }

    #[test]
    fn alexnet_layer_mappings_execute_on_chip() {
        // Shape-preserving shrink of every AlexNet CONV layer (smaller M/C,
        // same R/U geometry) to keep runtimes reasonable.
        for layer in alexnet::conv_layers() {
            let s = &layer.shape;
            let shrunk = LayerShape::conv(4, s.c.min(4), s.h.min(31 + s.r - 1), s.r, s.u);
            let Ok(shape) = shrunk else { continue };
            run_and_check(&shape, 1, AcceleratorConfig::eyeriss_chip());
        }
    }

    #[test]
    fn mappings_that_cannot_run_are_typed_errors() {
        let shape = LayerShape::conv(4, 2, 15, 3, 1).unwrap();
        let input = synth::ifmap(&shape, 1, 5);
        let weights = synth::filters(&shape, 6);
        let bias = synth::biases(&shape, 7);
        let runs = RsMapping {
            n: 1,
            p: 1,
            q: 1,
            e: 13,
            r: 1,
            t: 1,
            filter_resident: true,
        };
        // 26 > 14 PE columns, 15 > 12 PE rows, and no filter per PE.
        for mapping in [
            RsMapping { t: 2, ..runs },
            RsMapping { r: 5, ..runs },
            RsMapping { p: 0, ..runs },
        ] {
            let mut acc = Accelerator::new(AcceleratorConfig::eyeriss_chip());
            assert!(!mapping.fits(&shape, acc.config()), "{mapping:?}");
            let err = acc
                .run_conv_planned(mapping, &shape, 1, &input, &weights, &bias)
                .unwrap_err();
            assert!(err.to_string().contains("does not fit"), "{err}");
        }
        let mut acc = Accelerator::new(AcceleratorConfig::eyeriss_chip());
        let run = acc.run_conv_planned(runs, &shape, 1, &input, &weights, &bias);
        let golden = reference::conv_accumulate(&shape, 1, &input, &weights, &bias);
        assert_eq!(run.unwrap().psums, golden);
    }

    /// The chip in each mode the oracle comparisons cover: plain,
    /// zero-gated, CSC, RLC and over a hierarchical mesh.
    fn chips(config: AcceleratorConfig) -> [(&'static str, Accelerator); 5] {
        let chip = || Accelerator::new(config);
        let cluster = eyeriss_arch::GridDims::new(3, 1);
        let mesh = crate::mesh::HierarchicalMesh::new(config.grid, cluster, 4).unwrap();
        [
            ("plain", chip()),
            ("gated", chip().zero_gating(true)),
            ("csc", chip().csc(true)),
            ("rlc", chip().rlc(true)),
            ("mesh", chip().mesh(mesh)),
        ]
    }

    /// Runs `mapping` on `acc` and on the PE-driven oracle: the same
    /// psums and statistics, or the same error.
    #[allow(clippy::too_many_arguments)]
    fn assert_matches_oracle(
        label: &str,
        acc: &mut Accelerator,
        mapping: RsMapping,
        shape: &LayerShape,
        n: usize,
        input: &Tensor4<Fix16>,
        weights: &Tensor4<Fix16>,
        bias: &[Fix16],
    ) {
        let want = oracle::run_conv_mapped(acc, mapping, shape, n, input, weights, bias);
        let got = acc.run_conv_planned(mapping, shape, n, input, weights, bias);
        match (got, want) {
            (Ok(got), Ok(want)) => {
                assert!(got.psums == want.psums, "{label}: psums differ");
                assert_eq!(got.stats, want.stats, "{label}");
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "{label}"),
            (got, want) => panic!(
                "{label}: {:?} against the oracle's {:?}",
                got.map(|run| run.stats),
                want.map(|run| run.stats)
            ),
        }
    }

    /// A random layer of one of four kinds: strided CONV, grouped CONV,
    /// depthwise CONV or FC.
    fn oracle_layer(
        (kind, a, b, r, u, e, g): (u8, usize, usize, usize, usize, usize, usize),
    ) -> LayerShape {
        let h = (e - 1) * u + r;
        match kind {
            0 => LayerShape::conv(a, b, h, r, u),
            1 => LayerShape::conv_grouped(g * a.div_ceil(3), b.div_ceil(2), h, r, u, g),
            2 => LayerShape::depthwise(b, h, r, u),
            _ => LayerShape::fully_connected(a, b, r),
        }
        .unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The pass walk's counts and the layer kernel's psums equal the
        /// PE-driven pass's, bit for bit, for random layers and random
        /// mappings of the row-stationary space (both residencies, one or
        /// more channel groups, partial last groups) on every chip mode
        /// at sparsity 0, 1/2 and 1.
        #[test]
        fn prop_walk_and_kernel_match_the_pe_driven_oracle(
            layer in (0u8..4, 1usize..=8, 1usize..=6, 1usize..=5, 1usize..=3, 1usize..=8, 2usize..=3),
            n in 1usize..=3,
            halves in 0u8..=2,
            picks in (proptest::arbitrary::any::<usize>(), proptest::arbitrary::any::<usize>()),
            full_chip in proptest::arbitrary::any::<bool>(),
        ) {
            let shape = oracle_layer(layer);
            let config = if full_chip { AcceleratorConfig::eyeriss_chip() } else { small_chip() };
            let problem = eyeriss_nn::LayerProblem::new(shape, n);
            let rs = eyeriss_dataflow::registry::builtin(eyeriss_dataflow::DataflowKind::RowStationary);
            let candidates = rs.enumerate(&problem, &config);
            proptest::prop_assume!(!candidates.is_empty());
            let input = synth::sparse_ifmap(&shape, n, picks.0 as u64, f64::from(halves) / 2.0);
            let weights = synth::filters(&shape, 3);
            let bias = synth::biases(&shape, 4);
            for pick in [picks.0, picks.1] {
                let params = &candidates[pick % candidates.len()].params;
                let mapping = RsMapping::from_params(params).unwrap();
                for (mode, mut acc) in chips(config) {
                    let label = format!("{shape:?} n={n} {mapping:?} {mode}");
                    assert_matches_oracle(&label, &mut acc, mapping, &shape, n, &input, &weights, &bias);
                }
            }
        }
    }

    /// Every distinct AlexNet (dense and grouped) and MobileNet-v1 layer
    /// at full size, at batch 1 and 4, under its searched mapping on the
    /// chip in every mode: the same psums and statistics as the
    /// PE-driven oracle. Run in release:
    /// `cargo test --release -p eyeriss-sim --lib -- --ignored`.
    #[test]
    #[ignore = "full-size corpus; run in release with --ignored"]
    fn full_size_layers_match_the_pe_driven_oracle() {
        let config = AcceleratorConfig::eyeriss_chip();
        let mut shapes: Vec<LayerShape> = Vec::new();
        let layers = alexnet::all_layers()
            .into_iter()
            .chain(alexnet::grouped_conv_layers())
            .chain(eyeriss_nn::mobilenet::mobilenet_v1());
        for layer in layers {
            if !shapes.contains(&layer.shape) {
                shapes.push(layer.shape);
            }
        }
        for shape in &shapes {
            for n in [1, 4] {
                let input = synth::sparse_ifmap(shape, n, 21, 0.5);
                let weights = synth::filters(shape, 22);
                let bias = synth::biases(shape, 23);
                let mapping = RsMapping::plan(shape, n, &config).unwrap();
                std::thread::scope(|s| {
                    for (mode, mut acc) in chips(config) {
                        let (input, weights, bias) = (&input, &weights, &bias);
                        s.spawn(move || {
                            let label = format!("{shape:?} n={n} {mode}");
                            assert_matches_oracle(
                                &label, &mut acc, mapping, shape, n, input, weights, bias,
                            );
                        });
                    }
                });
            }
        }
    }
}
