//! The plan compiler and content-keyed plan cache.
//!
//! The Eyeriss paper optimizes mappings per layer shape *offline*
//! (Section VI-C); a serving system must amortize that optimization
//! across requests. [`PlanCompiler`] runs the
//! `eyeriss_cluster::plan_layer` search — partition × per-array mapping
//! co-optimization — once per distinct problem and stores the resulting
//! immutable [`ClusterPlan`] in a [`PlanCache`] keyed by problem
//! *content* `(layer shape, batch, array count, dataflow, objective,
//! hardware fingerprint)`. Repeated shapes (all of VGG-16's stacked 3×3
//! stages) and repeated requests then never re-search: the runtime
//! executes cached plans via [`eyeriss_cluster::Cluster::execute`].

use crate::error::ServeError;
use eyeriss_arch::cost::{table_iv_shared, CostDescriptor, CostModel, CostReport};
use eyeriss_arch::AcceleratorConfig;
use eyeriss_cluster::{plan_layer, ClusterPlan, SharedDram};
use eyeriss_dataflow::registry::builtin_shared;
use eyeriss_dataflow::search::Objective;
use eyeriss_dataflow::{Dataflow, DataflowId, DataflowKind};
use eyeriss_nn::network::Network;
use eyeriss_nn::shape::NamedLayer;
use eyeriss_nn::{LayerKind, LayerProblem, LayerShape};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Content key of one compiled layer plan. Two problems collide exactly
/// when the search would provably return the same plan: same layer
/// shape, batch, cluster width, mapping space, objective, per-array
/// hardware and cost model — the cost model travels as its
/// [`CostDescriptor`] (identity + exact numeric fingerprint), so models
/// with distinct fingerprints never cross-hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    pub(crate) shape: LayerShape,
    pub(crate) n: usize,
    pub(crate) arrays: usize,
    pub(crate) dataflow: DataflowId,
    pub(crate) objective: Objective,
    pub(crate) grid: (usize, usize),
    pub(crate) rf_bits: u64,
    pub(crate) buffer_bits: u64,
    pub(crate) cost: CostDescriptor,
}

impl PlanKey {
    /// Builds the content key for one layer problem.
    pub fn new(
        problem: &LayerProblem,
        arrays: usize,
        dataflow: DataflowId,
        objective: Objective,
        hw: &AcceleratorConfig,
        cost: &dyn CostModel,
    ) -> Self {
        PlanKey {
            shape: problem.shape,
            n: problem.batch,
            arrays,
            dataflow,
            objective,
            grid: (hw.grid.rows, hw.grid.cols),
            rf_bits: hw.rf_bytes_per_pe.to_bits(),
            buffer_bits: hw.buffer_bytes.to_bits(),
            cost: cost.descriptor(),
        }
    }
}

/// Hit/miss counters of a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran the full plan search.
    pub misses: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups served from the cache (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// A thread-safe, content-keyed cache of compiled [`ClusterPlan`]s.
///
/// Shared via `Arc` between the compiler and every serving worker; the
/// expensive search runs *outside* the lock, so concurrent workers are
/// never serialized behind another worker's compilation (a race on the
/// same key wastes one duplicate search, kept deliberately for
/// simplicity — both racers insert identical immutable plans).
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<PlanKey, Arc<ClusterPlan>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PlanCache::default()
    }

    /// Returns the cached plan for `key`, or computes, stores and
    /// returns it via `compile`.
    ///
    /// # Errors
    ///
    /// Propagates `compile`'s error; failures are not cached.
    pub fn get_or_compile(
        &self,
        key: PlanKey,
        compile: impl FnOnce() -> Result<ClusterPlan, ServeError>,
    ) -> Result<Arc<ClusterPlan>, ServeError> {
        self.lookup(key, compile).map(|(plan, _)| plan)
    }

    /// [`PlanCache::get_or_compile`], also saying whether *this* lookup
    /// ran `compile` (a miss): the shared counters cannot tell one
    /// caller's lookups from another's.
    fn lookup(
        &self,
        key: PlanKey,
        compile: impl FnOnce() -> Result<ClusterPlan, ServeError>,
    ) -> Result<(Arc<ClusterPlan>, bool), ServeError> {
        if let Some(hit) = self
            .plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(hit), false));
        }
        let plan = Arc::new(compile()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        Ok((Arc::clone(plans.entry(key).or_insert(plan)), true))
    }

    /// Number of distinct plans stored.
    pub fn len(&self) -> usize {
        self.plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when no plan has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// A point-in-time copy of every `(key, plan)` entry (for
    /// persistence; plans are shared, not cloned).
    pub(crate) fn snapshot(&self) -> Vec<(PlanKey, Arc<ClusterPlan>)> {
        self.plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (*k, Arc::clone(v)))
            .collect()
    }

    /// Inserts one precompiled plan (idempotent for equal keys; counts
    /// neither as hit nor miss — reloading is not searching).
    pub(crate) fn insert(&self, key: PlanKey, plan: Arc<ClusterPlan>) {
        self.plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key)
            .or_insert(plan);
    }
}

/// On-chip/working-set footprint of one layer at a given batch, in
/// 16-bit words (what a scheduler would reserve in the global buffer
/// hierarchy for staging this stage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Ifmap words (`N·C·H²`).
    pub ifmap_words: u64,
    /// Filter words (`M·C·R²`; zero for POOL).
    pub filter_words: u64,
    /// Ofmap words (`N·M·E²`).
    pub ofmap_words: u64,
}

impl Footprint {
    pub(crate) fn of(shape: &LayerShape, n: usize) -> Self {
        Footprint {
            ifmap_words: shape.ifmap_words(n),
            filter_words: match shape.kind {
                LayerKind::Pool => 0,
                _ => shape.filter_words(),
            },
            ofmap_words: shape.ofmap_words(n),
        }
    }

    /// Total words across the three tensors.
    pub fn total_words(&self) -> u64 {
        self.ifmap_words + self.filter_words + self.ofmap_words
    }
}

/// One stage of a [`CompiledPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum StagePlan {
    /// A weighted CONV/FC stage with its compiled cluster plan.
    Layer {
        /// Stage name (e.g. `"CONV1"`).
        name: String,
        /// The stage's layer shape.
        shape: LayerShape,
        /// Whether ReLU follows the stage.
        relu: bool,
        /// The immutable compiled `(partition, mapping)` plan.
        plan: Arc<ClusterPlan>,
        /// Working-set footprint at the compiled batch.
        footprint: Footprint,
    },
    /// A weight-free POOL stage (executed per-array, never partitioned).
    Pool {
        /// Stage name.
        name: String,
        /// The pool shape.
        shape: LayerShape,
    },
}

impl StagePlan {
    /// The stage's name.
    pub fn name(&self) -> &str {
        match self {
            StagePlan::Layer { name, .. } | StagePlan::Pool { name, .. } => name,
        }
    }
}

/// An immutable, fully compiled execution plan for one network at one
/// batch size on one cluster configuration.
///
/// Serializable through [`crate::persist`] with a versioned schema.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledPlan {
    /// Batch size the plan was compiled for.
    pub batch: usize,
    /// Cluster width the plan was compiled for.
    pub arrays: usize,
    /// Per-stage plans, in network order.
    pub stages: Vec<StagePlan>,
    /// Wall-clock time of the whole compile, dominated by plan searches
    /// on cache misses (a fully warmed compile still pays the cache
    /// lookups and stage assembly, typically microseconds).
    pub compile_time: Duration,
    /// Searches this compile ran (its own cache misses; concurrent
    /// compiles through the same cache are not counted).
    pub searched: u64,
    /// Stages answered from the plan cache.
    pub cached: u64,
}

impl CompiledPlan {
    /// Summed analytic cluster delay across weighted stages (the model's
    /// per-layer critical-path delay, in MAC-time units) — the capacity
    /// estimate an admission controller would use.
    pub fn analytic_delay(&self) -> f64 {
        self.stages
            .iter()
            .filter_map(|s| match s {
                StagePlan::Layer { plan, .. } => Some(plan.delay),
                StagePlan::Pool { .. } => None,
            })
            .sum()
    }

    /// Summed analytic energy across weighted stages.
    pub fn analytic_energy(&self) -> f64 {
        self.stages
            .iter()
            .filter_map(|s| match s {
                StagePlan::Layer { plan, .. } => Some(plan.energy),
                StagePlan::Pool { .. } => None,
            })
            .sum()
    }

    /// Re-prices the whole compiled network into the unified
    /// [`CostReport`] vocabulary under `cost` (weighted stages
    /// accumulated sequentially; each stage's delay baseline is its
    /// plan's cluster delay).
    pub fn cost_report(&self, cost: &dyn CostModel) -> CostReport {
        let mut total = CostReport::zero(cost.descriptor());
        for s in &self.stages {
            if let StagePlan::Layer { plan, .. } = s {
                total.accumulate(&plan.report(cost));
            }
        }
        total
    }

    /// The largest per-stage working set, in words.
    pub fn peak_footprint_words(&self) -> u64 {
        self.stages
            .iter()
            .filter_map(|s| match s {
                StagePlan::Layer { footprint, .. } => Some(footprint.total_words()),
                StagePlan::Pool { .. } => None,
            })
            .max()
            .unwrap_or(0)
    }
}

/// Compiles layer problems into immutable [`ClusterPlan`]s through a
/// shared [`PlanCache`].
///
/// # Example
///
/// ```
/// use eyeriss_serve::PlanCompiler;
/// use eyeriss_arch::AcceleratorConfig;
/// use eyeriss_nn::LayerShape;
///
/// let compiler = PlanCompiler::new(2, AcceleratorConfig::eyeriss_chip());
/// let shape = LayerShape::conv(16, 8, 11, 3, 2)?;
/// let first = compiler.compile_layer(&shape, 4)?;
/// let again = compiler.compile_layer(&shape, 4)?; // cache hit
/// assert_eq!(first.partition, again.partition);
/// assert_eq!(compiler.cache().stats().hits, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct PlanCompiler {
    hw: AcceleratorConfig,
    cost: Arc<dyn CostModel>,
    dataflow: Arc<dyn Dataflow>,
    objective: Objective,
    arrays: usize,
    shared: SharedDram,
    cache: Arc<PlanCache>,
}

impl std::fmt::Debug for PlanCompiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCompiler")
            .field("hw", &self.hw)
            .field("dataflow", &self.dataflow.id())
            .field("cost", &self.cost.id())
            .field("objective", &self.objective)
            .field("arrays", &self.arrays)
            .finish_non_exhaustive()
    }
}

impl PlanCompiler {
    /// Creates a compiler for a cluster of `arrays` arrays of
    /// configuration `hw`, with the serving defaults: row-stationary
    /// mapping space, energy-delay-product objective, Table IV energy
    /// costs and a shared DRAM channel scaled to the cluster width.
    ///
    /// # Panics
    ///
    /// Panics if `arrays` is zero.
    pub fn new(arrays: usize, hw: AcceleratorConfig) -> Self {
        assert!(arrays > 0, "compiler needs at least one array");
        PlanCompiler {
            hw,
            cost: table_iv_shared(),
            dataflow: builtin_shared(DataflowKind::RowStationary),
            objective: Objective::EnergyDelayProduct,
            arrays,
            shared: SharedDram::scaled(arrays),
            cache: Arc::new(PlanCache::new()),
        }
    }

    /// Overrides the optimization objective.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Overrides the cost model the plan search prices under (any
    /// registered [`CostModel`]). The model's descriptor participates in
    /// plan-cache keys, so compilers pricing under distinct fingerprints
    /// never share plans.
    pub fn with_cost_model(mut self, cost: Arc<dyn CostModel>) -> Self {
        self.cost = cost;
        self
    }

    /// The cost model this compiler prices under.
    pub fn cost_model(&self) -> &Arc<dyn CostModel> {
        &self.cost
    }

    /// Overrides the mapping space (any [`Dataflow`], builtin or
    /// registered).
    pub fn with_dataflow(mut self, dataflow: Arc<dyn Dataflow>) -> Self {
        self.dataflow = dataflow;
        self
    }

    /// The mapping space this compiler plans in.
    pub fn dataflow(&self) -> &Arc<dyn Dataflow> {
        &self.dataflow
    }

    /// Shares an existing plan cache (e.g. across server restarts).
    pub fn with_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The shared plan cache.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// Cluster width this compiler plans for.
    pub fn arrays(&self) -> usize {
        self.arrays
    }

    /// A compiler for a different cluster width sharing this compiler's
    /// cache, cost model, mapping space and objective — the degraded-mode
    /// path: when arrays are quarantined, the runtime re-plans onto the
    /// surviving width. Sharing the cache is sound because [`PlanKey`]
    /// includes the array count, so plans of different widths never
    /// cross-hit; the shared DRAM channel is re-scaled to the new width.
    ///
    /// # Panics
    ///
    /// Panics if `arrays` is zero.
    pub fn resized(&self, arrays: usize) -> Self {
        assert!(arrays > 0, "compiler needs at least one array");
        let mut resized = self.clone();
        resized.arrays = arrays;
        resized.shared = SharedDram::scaled(arrays);
        resized
    }

    /// The per-array hardware configuration.
    pub fn hw(&self) -> &AcceleratorConfig {
        &self.hw
    }

    /// Compiles (or fetches) the plan for one weighted layer at batch
    /// `n`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::NoPlan`] for POOL shapes and for layers with
    /// no feasible `(partition, mapping)` on this cluster.
    pub fn compile_layer(
        &self,
        shape: &LayerShape,
        n: usize,
    ) -> Result<Arc<ClusterPlan>, ServeError> {
        self.compile_layer_counted(shape, n).map(|(plan, _)| plan)
    }

    /// [`PlanCompiler::compile_layer`], also saying whether it searched
    /// (a cache miss of its own).
    fn compile_layer_counted(
        &self,
        shape: &LayerShape,
        n: usize,
    ) -> Result<(Arc<ClusterPlan>, bool), ServeError> {
        let problem = LayerProblem::new(*shape, n);
        if !problem.is_weighted() {
            return Err(ServeError::NoPlan(
                "POOL stages are executed per-array, not planned".into(),
            ));
        }
        let key = PlanKey::new(
            &problem,
            self.arrays,
            self.dataflow.id(),
            self.objective,
            &self.hw,
            self.cost.as_ref(),
        );
        self.cache.lookup(key, || {
            plan_layer(
                self.dataflow.as_ref(),
                &problem,
                self.arrays,
                &self.hw,
                self.cost.as_ref(),
                &self.shared,
                self.objective,
            )
            .ok_or_else(|| {
                ServeError::NoPlan(format!(
                    "no feasible partition/mapping for {}x{}x{} (batch {n}) on {} arrays",
                    shape.m, shape.c, shape.h, self.arrays
                ))
            })
        })
    }

    /// Compiles a whole network for batch `n`: one plan per weighted
    /// stage (distinct shapes searched once), POOL stages passed through.
    ///
    /// # Errors
    ///
    /// Fails if any weighted stage has no feasible plan.
    pub fn compile_network(&self, net: &Network, n: usize) -> Result<CompiledPlan, ServeError> {
        let start = Instant::now();
        let (mut searched, mut cached) = (0, 0);
        let mut stages = Vec::with_capacity(net.stages().len());
        for stage in net.stages() {
            stages.push(match stage.shape.kind {
                LayerKind::Pool => StagePlan::Pool {
                    name: stage.name.clone(),
                    shape: stage.shape,
                },
                LayerKind::Conv | LayerKind::FullyConnected => {
                    let (plan, miss) = self.compile_layer_counted(&stage.shape, n)?;
                    if miss {
                        searched += 1;
                    } else {
                        cached += 1;
                    }
                    StagePlan::Layer {
                        name: stage.name.clone(),
                        shape: stage.shape,
                        relu: stage.relu,
                        plan,
                        footprint: Footprint::of(&stage.shape, n),
                    }
                }
            });
        }
        Ok(CompiledPlan {
            batch: n,
            arrays: self.arrays,
            stages,
            compile_time: start.elapsed(),
            searched,
            cached,
        })
    }

    /// Compiles a list of named layers (e.g. `eyeriss_nn::vgg::conv_layers`)
    /// at batch `n`, sharing the cache across repeated shapes. Returns
    /// the plans in input order.
    ///
    /// # Errors
    ///
    /// Fails on the first layer with no feasible plan.
    pub fn compile_layers(
        &self,
        layers: &[NamedLayer],
        n: usize,
    ) -> Result<Vec<(String, Arc<ClusterPlan>)>, ServeError> {
        layers
            .iter()
            .map(|l| Ok((l.name.clone(), self.compile_layer(&l.shape, n)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_nn::network::NetworkBuilder;

    fn small_hw() -> AcceleratorConfig {
        AcceleratorConfig {
            grid: eyeriss_arch::GridDims::new(6, 8),
            rf_bytes_per_pe: 512.0,
            buffer_bytes: 32.0 * 1024.0,
        }
    }

    #[test]
    fn repeated_layers_hit_the_cache() {
        let compiler = PlanCompiler::new(2, small_hw());
        let shape = LayerShape::conv(8, 3, 13, 3, 2).unwrap();
        let a = compiler.compile_layer(&shape, 4).unwrap();
        let b = compiler.compile_layer(&shape, 4).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "cache must return the same plan");
        let stats = compiler.cache().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
        assert_eq!(compiler.cache().len(), 1);
    }

    #[test]
    fn distinct_batches_and_widths_are_distinct_plans() {
        let cache = Arc::new(PlanCache::new());
        let shape = LayerShape::conv(8, 3, 13, 3, 2).unwrap();
        let two = PlanCompiler::new(2, small_hw()).with_cache(Arc::clone(&cache));
        let four = PlanCompiler::new(4, small_hw()).with_cache(Arc::clone(&cache));
        two.compile_layer(&shape, 2).unwrap();
        two.compile_layer(&shape, 4).unwrap();
        four.compile_layer(&shape, 4).unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn network_compile_reports_search_vs_cache_split() {
        let net = NetworkBuilder::new(3, 19)
            .conv("C1", 8, 3, 2)
            .unwrap()
            .conv("C2", 8, 3, 2)
            .unwrap()
            .build(7);
        let compiler = PlanCompiler::new(2, small_hw());
        let first = compiler.compile_network(&net, 2).unwrap();
        assert_eq!(first.stages.len(), 2);
        assert_eq!((first.searched, first.cached), (2, 0));
        // Recompiling the same network is free: every stage hits.
        let second = compiler.compile_network(&net, 2).unwrap();
        assert_eq!((second.searched, second.cached), (0, 2));
        assert!(second.compile_time <= first.compile_time);
        assert!(first.analytic_delay() > 0.0);
        assert!(first.analytic_energy() > 0.0);
        assert!(first.peak_footprint_words() > 0);
    }

    /// Row stationary, except that its first search compiles another
    /// layer through `side`, a compiler on the same cache: a concurrent
    /// compile, made deterministic.
    struct CompilesMidSearch {
        side: PlanCompiler,
        fired: std::sync::atomic::AtomicBool,
    }

    impl Dataflow for CompilesMidSearch {
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
            sink: &mut dyn eyeriss_dataflow::CandidateSink,
        ) {
            if !self.fired.swap(true, Ordering::Relaxed) {
                let other = LayerShape::conv(4, 3, 9, 3, 2).unwrap();
                self.side.compile_layer(&other, 1).unwrap();
            }
            eyeriss_dataflow::registry::builtin(DataflowKind::RowStationary)
                .for_each_candidate(problem, hw, sink);
        }
    }

    #[test]
    fn network_compile_counts_only_its_own_searches() {
        let cache = Arc::new(PlanCache::new());
        let side = PlanCompiler::new(2, small_hw()).with_cache(Arc::clone(&cache));
        let compiler = PlanCompiler::new(2, small_hw())
            .with_cache(Arc::clone(&cache))
            .with_dataflow(Arc::new(CompilesMidSearch {
                side,
                fired: Default::default(),
            }));
        let net = NetworkBuilder::new(3, 19)
            .conv("C1", 8, 3, 2)
            .unwrap()
            .conv("C2", 8, 3, 2)
            .unwrap()
            .build(7);
        let plan = compiler.compile_network(&net, 2).unwrap();
        assert_eq!(cache.stats().misses, 3, "the side compile searched too");
        assert_eq!((plan.searched, plan.cached), (2, 0));
    }

    #[test]
    fn pool_shapes_are_rejected_but_networks_pass_them_through() {
        let compiler = PlanCompiler::new(2, small_hw());
        let pool = LayerShape::pool(3, 9, 3, 3).unwrap();
        assert!(matches!(
            compiler.compile_layer(&pool, 1),
            Err(ServeError::NoPlan(_))
        ));
        let net = NetworkBuilder::new(3, 19)
            .conv("C1", 8, 3, 2)
            .unwrap()
            .pool("P1", 3, 2)
            .unwrap()
            .build(7);
        let plan = compiler.compile_network(&net, 2).unwrap();
        assert!(matches!(plan.stages[1], StagePlan::Pool { .. }));
        assert_eq!(plan.stages[1].name(), "P1");
    }

    #[test]
    fn vgg_repeated_shapes_compile_once() {
        // The canonical serving win: VGG-16 has 13 CONV layers but only
        // 9 distinct shapes, so 4 compiles come free.
        let compiler = PlanCompiler::new(1, AcceleratorConfig::eyeriss_chip());
        let layers = eyeriss_nn::vgg::conv_layers();
        let plans = compiler.compile_layers(&layers, 1).unwrap();
        assert_eq!(plans.len(), 13);
        let stats = compiler.cache().stats();
        assert_eq!(stats.misses, 9, "9 distinct VGG CONV shapes");
        assert_eq!(stats.hits, 4, "4 repeated shapes served from cache");
        assert!(stats.hit_rate() > 0.0);
    }
}
