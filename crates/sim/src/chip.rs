//! The accelerator: pass orchestration of the row-stationary dataflow
//! over the PE array, global buffer and NoCs.
//!
//! The simulator executes real Q8.8 data and is bit-exact against the
//! golden reference, while measuring every word moved across the
//! hierarchy. The second-phase folding loop order follows the mapping's
//! residency policy (Section V-B): either the filter group stays in the
//! buffer across batch/strip loops, or the ifmap strip stays resident
//! across filter groups.

use crate::csc::{self, CscStats};
use crate::dram::DramModel;
use crate::error::SimError;
use crate::mesh::{HierarchicalMesh, MeshStats};
use crate::passes::RsMapping;
use crate::pe::FilterRows;
use crate::rlc;
use crate::scratch::SimScratch;
use crate::stats::SimStats;
use eyeriss_arch::config::AcceleratorConfig;
use eyeriss_nn::{reference, Fix16, LayerKind, LayerShape, Tensor4};
use eyeriss_telemetry::Telemetry;
use std::collections::HashMap;

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

    /// Enables CSC sparse execution: ifmap rows are encoded into the
    /// Eyeriss v2 compressed format and the PEs iterate nonzeros directly,
    /// never issuing zero MACs. Psums stay bit-exact against the dense
    /// path; [`SimStats::csc`] reports the storage win.
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
    /// Buffers (PE scratchpads, psum strips, RLC code words) and the
    /// winning mapping are reused across calls on the same chip, so
    /// repeated layers execute allocation-free and search-free in steady
    /// state.
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
    /// Fails if the mapping exceeds a scratchpad or buffer capacity.
    ///
    /// # Panics
    ///
    /// Panics if tensor dimensions disagree with `shape`, or the mapping
    /// addresses coordinates outside the layer.
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
    /// The mapping must be feasible for `shape` on this configuration
    /// (any mapping produced by the row-stationary search against the
    /// same hardware is); infeasible spad/buffer demands surface as
    /// [`SimError`]s.
    ///
    /// # Errors
    ///
    /// Fails if the mapping exceeds a scratchpad or buffer capacity.
    ///
    /// # Panics
    ///
    /// Panics if tensor dimensions disagree with `shape`, or the mapping
    /// addresses coordinates outside the layer.
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

        let _layer_span = self.tele.span_with("sim.layer", "sim", n_batch as u64);
        // Grouped layers execute as `groups` sequential sub-runs over the
        // per-group shape, each engine addressing its own channel/filter
        // slice of the shared tensors. Ungrouped layers are the G = 1 case.
        let per_group = shape.per_group();
        let mut psums = Tensor4::zeros([n_batch, shape.m, shape.e, shape.e]);
        let mut stats = SimStats::default();
        for g in 0..shape.groups {
            let mut engine = Engine::new(
                self,
                scratch,
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
        // Bias is added once per ofmap value; the paper's accounting
        // ignores its (negligible) movement energy.
        for z in 0..n_batch {
            for (f, bf) in bias.iter().enumerate() {
                let b = bf.to_accum();
                for x in 0..shape.e {
                    for p in psums.row_mut(z, f, x) {
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
                    psums.iter().map(|&p| Fix16::from_accum(p).relu()),
                    &mut scratch.rlc_words,
                );
                rlc::ratio_of(out_len, &scratch.rlc_words)
            } else {
                1.0
            };
            let compressed = stats.profile.ifmap.dram_reads / in_ratio
                + stats.profile.filter.dram_reads / filt_ratio
                + stats.profile.psum.dram_writes / out_ratio;
            stats.dram_compressed_words = Some(compressed.round() as u64);
        }
        Ok(LayerRun {
            psums,
            stats,
            mapping,
        })
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

/// Internal per-layer execution state. All reusable buffers live in the
/// borrowed [`SimScratch`]; the engine itself only allocates the output
/// tensor it returns.
struct Engine<'a> {
    shape: &'a LayerShape,
    n_batch: usize,
    mapping: RsMapping,
    input: &'a Tensor4<Fix16>,
    weights: &'a Tensor4<Fix16>,
    out: &'a mut Tensor4<i32>,
    /// First input channel of this engine's group slice.
    chan_base: usize,
    /// First filter of this engine's group slice.
    filt_base: usize,
    csc_enabled: bool,
    mesh: Option<HierarchicalMesh>,
    scratch: &'a mut SimScratch,
    grid_cols: usize,
    stats: SimStats,
    folds: (usize, usize, usize, usize),
    filters_from_dram: bool,
    dram: DramModel,
    pending_dram_words: u64,
    tele: &'a Telemetry,
}

impl<'a> Engine<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        acc: &'a Accelerator,
        scratch: &'a mut SimScratch,
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
        let grid = acc.config.grid;
        scratch.prepare(
            grid.count(),
            rf_words,
            rf_words,
            acc.zero_gating,
            acc.config.buffer_words(),
        );
        let folds = mapping.fold_counts(shape, n_batch);
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
            scratch,
            grid_cols: grid.cols,
            stats: SimStats::default(),
            folds,
            filters_from_dram: !mapping.filter_resident,
            dram: acc.dram,
            pending_dram_words: 0,
            tele: &acc.tele,
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
                        self.scratch.glb.release_psums();
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
                    self.scratch.glb.release_psums();
                }
            }
        }
        // Fold PE counters into the profile.
        let mut pe_total = crate::pe::PeStats::default();
        for pe in &self.scratch.pes {
            pe_total.merge(&pe.stats);
        }
        self.stats.macs = pe_total.macs;
        self.stats.skipped_macs = pe_total.skipped_macs;
        self.stats.profile.alu_ops = pe_total.macs as f64;
        self.stats.profile.ifmap.rf_reads = pe_total.ifmap_reads as f64;
        self.stats.profile.filter.rf_reads = pe_total.filter_reads as f64;
        self.stats.profile.filter.rf_writes = pe_total.filter_writes as f64;
        self.stats.profile.psum.rf_reads = pe_total.psum_reads as f64;
        self.stats.profile.psum.rf_writes = pe_total.psum_writes as f64;
        let filter_hops = self.scratch.filter_bus.stats.word_hops as f64;
        let ifmap_hops = self.scratch.ifmap_bus.stats.word_hops as f64;
        let psum_hops = self.scratch.chain.stats.word_hops as f64;
        if let Some(mesh) = self.mesh {
            // The v1 buses counted delivery hops; rides over the mesh keep
            // those as local hops and add the routing factor's excess as
            // router traversals, so the charged array cost is
            // hops x factor — the same closed form the flex-rs analytical
            // profiles use.
            let mut ms = MeshStats {
                transactions: self.scratch.filter_bus.stats.transactions
                    + self.scratch.ifmap_bus.stats.transactions
                    + self.scratch.chain.stats.transactions,
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
        debug_assert!(self.stats.profile.is_valid());
        Ok(())
    }

    /// CSC storage accounting over this engine's slice of the tensors:
    /// every ifmap row of its input channels and every filter row of its
    /// filter group, priced dense vs. encoded.
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

    /// Loads a filter group (all channels) into the buffer, once per group.
    fn stage_filter_group(&mut self, mg: usize) -> Result<(), SimError> {
        let mut words = 0usize;
        for sh in 0..self.mapping.t {
            let fs = self.mapping.filters_of(self.shape, mg, sh);
            words += fs.len() * self.shape.c * self.shape.r * self.shape.r;
        }
        self.stats.profile.filter.dram_reads += words as f64;
        self.pending_dram_words += words as u64;
        self.scratch.glb.stage_filters(words)
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
        self.scratch
            .glb
            .reserve_psums(imgs * filters * rows * self.shape.e)
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
        self.scratch.glb.stage_ifmap(words)
    }

    /// Executes one processing pass: filter loads, ifmap multicast, the
    /// 1-D primitives, vertical accumulation and psum folding.
    ///
    /// The pass is allocation-free: ifmap and filter rows are borrowed
    /// straight out of the tensors (contiguous innermost rows), and the
    /// psum strip is the scratch arena's, zeroed per use.
    fn run_pass(&mut self, mg: usize, ng: usize, sg: usize, cg: usize) -> Result<(), SimError> {
        let _span = self.tele.span("sim.pass", "sim");
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
        // Split borrows: the scratch's buffers, the engine's counters and
        // the borrowed tensors are disjoint places, so the inner loops
        // index PEs and tensor rows directly with no per-row copies.
        let SimScratch {
            pes,
            row_acc,
            csc_values,
            csc_indices,
            glb,
            filter_bus,
            ifmap_bus,
            chain,
            ..
        } = &mut *self.scratch;
        let stats = &mut self.stats;
        let (input, weights, out) = (self.input, self.weights, &mut *self.out);
        let (chan_base, filt_base, csc_on) = (self.chan_base, self.filt_base, self.csc_enabled);

        // ---- reset and load stationary filter rows -------------------------
        for sv in 0..map.r {
            for i in 0..r_filt {
                for sh in 0..map.t {
                    for yy in 0..e_cols {
                        pes[(sv * r_filt + i) * grid_cols + sh * map.e + yy].reset_pass();
                    }
                }
            }
        }
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
                            filter_bus.multicast(r_filt, e_cols);
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
                        ifmap_bus.multicast(h, consumers * map.t);
                    }
                }
            }
        }

        // ---- compute: 1-D primitives + vertical accumulation ---------------
        // As in the hardware PE, the ifmap row is the outer loop and the
        // PE's interleaved filters the inner one: each row is looked up
        // (and, on a CSC chip, encoded) once and slid under every filter
        // of the set, filter `f` accumulating into row `f - fs.start` of
        // the `row_acc` strip.
        let mut max_set_ops = 0u64;
        for sh in 0..map.t {
            let fs = map.filters_of(&shape, mg, sh);
            if fs.is_empty() {
                // A set past the layer's last filter idles this pass.
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
                        // Spad distance between one channel's rows of
                        // consecutive filters (the load order above).
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
                            chain.accumulate(e_dim, chain_len);
                        }
                        // Fold into the strip psums (through the buffer when
                        // the accumulation spans channel groups).
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
            // Busiest set bounds the pass latency.
            let set_ops = (imgs.len() * fs.len() * e_dim * r_filt) as u64
                * (0..map.r)
                    .map(|sv| map.channels_of(&shape, cg, sv).len())
                    .max()
                    .unwrap_or(0) as u64;
            max_set_ops = max_set_ops.max(set_ops);
        }
        stats.cycles += max_set_ops;
        // Double buffering overlaps this pass's DRAM traffic with its
        // compute; only the excess stalls the array.
        stats.stall_cycles += self.dram.stall_cycles(self.pending_dram_words, max_set_ops);
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
}
