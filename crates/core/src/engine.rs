//! The unified `Engine` façade over the whole reproduction.
//!
//! Three generations of entry points (`search::best_mapping*`,
//! `Cluster::run_conv`/`run_planned`, the serving runtime) collapse into
//! one typed builder and three execution tiers sharing the
//! [`LayerProblem`]/[`Workload`] vocabulary:
//!
//! | Tier | Method | Executes on |
//! |------|--------|-------------|
//! | simulate | [`Engine::simulate`] | one bit-exact functional array |
//! | run | [`Engine::run`] | the multi-array cluster, via cached plans |
//! | serve | [`Engine::serve`] | the batching runtime (a [`Server`] handle) |
//!
//! Underneath, every tier is generic over the engine's
//! [`Dataflow`]: dataflows registered with
//! [`EngineBuilder::register`] are searched, planned, persisted and
//! served exactly like the builtin six.
//!
//! # Example
//!
//! ```
//! use eyeriss::{Engine, Objective};
//! use eyeriss::prelude::*;
//!
//! let engine = Engine::builder()
//!     .hardware(AcceleratorConfig::eyeriss_chip())
//!     .arrays(4)
//!     .objective(Objective::EnergyDelayProduct)
//!     .build()?;
//!
//! let conv3 = LayerProblem::new(LayerShape::conv(384, 256, 15, 3, 1)?, 16);
//! let best = engine.best_mapping(&conv3)?;
//! assert!(best.active_pes > 0);
//! let plan = engine.plan(&conv3)?;
//! assert_eq!(plan.arrays, 4);
//! # Ok::<(), eyeriss::EngineError>(())
//! ```

use crate::error::{BuildError, EngineError};
use eyeriss_arch::cost::{CostModel, CostModelId, CostModelRegistry, TableIv};
use eyeriss_arch::AcceleratorConfig;
use eyeriss_cluster::{Cluster, ClusterPlan, ClusterRun, SharedDram};
use eyeriss_dataflow::search::{optimize, Objective};
use eyeriss_dataflow::{Dataflow, DataflowId, DataflowKind, DataflowRegistry, MappingCandidate};
use eyeriss_nn::network::Network;
use eyeriss_nn::{Fix16, LayerProblem, Tensor4, Workload};
use eyeriss_serve::{
    BatchPolicy, CacheStats, CompiledPlan, PlanCache, PlanCompiler, SchedConfig, ServeConfig,
    Server, SloSpec,
};
use eyeriss_sim::chip::LayerRun as SimRun;
use eyeriss_sim::Accelerator;
use eyeriss_telemetry::Telemetry;
use std::path::Path;
use std::sync::Arc;

/// Serving-tier sizing knobs (everything else comes from the engine).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads, each owning a private cluster of the engine's
    /// width.
    pub workers: usize,
    /// Dynamic batching bounds.
    pub policy: BatchPolicy,
    /// Ready-queue depth (full queue = backpressure on `submit`).
    pub queue_capacity: usize,
    /// Declarative service-level objectives, evaluated live by the
    /// server's [`SloMonitor`](eyeriss_serve::SloMonitor) (empty =
    /// monitoring off). Only effective with telemetry enabled.
    pub slos: Vec<SloSpec>,
    /// Tenants, DRR quantum and aging of the scheduling layer every
    /// server runs (`None` = [`SchedConfig::default`]: the default
    /// tenant only, FIFO order); see [`eyeriss_serve::sched`].
    pub sched: Option<SchedConfig>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let d = ServeConfig::new();
        ServeOptions {
            workers: d.workers,
            policy: d.policy,
            queue_capacity: d.queue_capacity,
            slos: d.slos,
            sched: d.sched,
        }
    }
}

/// The selected dataflow of an [`EngineBuilder`].
enum DataflowChoice {
    Id(DataflowId),
    Instance(Arc<dyn Dataflow>),
}

/// The selected cost model of an [`EngineBuilder`].
enum CostChoice {
    Id(CostModelId),
    Instance(CostModel),
}

/// Typed builder for [`Engine`].
pub struct EngineBuilder {
    hw: AcceleratorConfig,
    arrays: usize,
    objective: Objective,
    registry: DataflowRegistry,
    pending: Vec<Arc<dyn Dataflow>>,
    dataflow: DataflowChoice,
    costs: CostModelRegistry,
    pending_costs: Vec<CostModel>,
    cost: CostChoice,
    cache: Option<Arc<PlanCache>>,
    telemetry: Option<Telemetry>,
}

impl EngineBuilder {
    fn new() -> Self {
        EngineBuilder {
            hw: AcceleratorConfig::eyeriss_chip(),
            arrays: 1,
            objective: Objective::EnergyDelayProduct,
            registry: DataflowRegistry::builtin(),
            pending: Vec::new(),
            dataflow: DataflowChoice::Id(DataflowKind::RowStationary.id()),
            costs: CostModelRegistry::builtin(),
            pending_costs: Vec::new(),
            cost: CostChoice::Id(TableIv.id()),
            cache: None,
            telemetry: None,
        }
    }

    /// Per-array accelerator configuration (default: the fabricated
    /// Eyeriss chip).
    pub fn hardware(mut self, hw: AcceleratorConfig) -> Self {
        self.hw = hw;
        self
    }

    /// Uses an explicit cost model instance for every pricing decision
    /// (default: the canonical [`TableIv`]), registering it with the
    /// engine's cost registry when its id is not already taken — so
    /// persisted plans naming it reload in an identically-built engine.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = CostChoice::Instance(cost);
        self
    }

    /// Selects any registered cost model by id — including ones passed
    /// to [`EngineBuilder::register_cost_model`] in this same builder
    /// chain.
    pub fn cost_model_id(mut self, id: CostModelId) -> Self {
        self.cost = CostChoice::Id(id);
        self
    }

    /// Registers an additional cost model with the engine's cost
    /// registry (checked for duplicate ids at [`EngineBuilder::build`]).
    pub fn register_cost_model(mut self, cost: CostModel) -> Self {
        self.pending_costs.push(cost);
        self
    }

    /// Cluster width (default 1; must be at least 1).
    pub fn arrays(mut self, arrays: usize) -> Self {
        self.arrays = arrays;
        self
    }

    /// Optimization objective for every search (default: EDP, the
    /// serving default; use [`Objective::Energy`] for the paper's
    /// figures).
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Selects a builtin dataflow (default: row stationary).
    pub fn dataflow(mut self, kind: DataflowKind) -> Self {
        self.dataflow = DataflowChoice::Id(kind.id());
        self
    }

    /// Selects any registered dataflow by id — including ones passed to
    /// [`EngineBuilder::register`] in this same builder chain.
    pub fn dataflow_id(mut self, id: DataflowId) -> Self {
        self.dataflow = DataflowChoice::Id(id);
        self
    }

    /// Uses an explicit dataflow instance, registering it with the
    /// engine's registry when its id is not already taken (so persisted
    /// plans naming it reload in an identically-built engine).
    pub fn dataflow_instance(mut self, df: Arc<dyn Dataflow>) -> Self {
        self.dataflow = DataflowChoice::Instance(df);
        self
    }

    /// Registers an additional dataflow with the engine's registry
    /// (checked for duplicate ids at [`EngineBuilder::build`]).
    pub fn register(mut self, df: Arc<dyn Dataflow>) -> Self {
        self.pending.push(df);
        self
    }

    /// Shares an existing plan cache (e.g. one reloaded from disk or
    /// shared with another engine).
    pub fn plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Records the engine's execution into `tele`: cluster and simulator
    /// spans, contention counters and reassembly histograms all land in
    /// this instance, retrievable any time via [`Engine::telemetry`].
    /// The default is a private **disabled** instance — every
    /// instrumentation site then costs one relaxed atomic load.
    pub fn telemetry(mut self, tele: Telemetry) -> Self {
        self.telemetry = Some(tele);
        self
    }

    /// Opt-in shorthand: `true` gives the engine a private, enabled
    /// telemetry instance (equivalent to
    /// `.telemetry(Telemetry::new_enabled())`).
    pub fn telemetry_enabled(self, on: bool) -> Self {
        if on {
            self.telemetry(Telemetry::new_enabled())
        } else {
            self.telemetry(Telemetry::new())
        }
    }

    /// Validates the configuration and builds the engine.
    ///
    /// # Errors
    ///
    /// [`BuildError::ZeroArrays`] for an empty cluster,
    /// [`BuildError::DuplicateDataflow`] /
    /// [`BuildError::DuplicateCostModel`] for conflicting registrations,
    /// [`BuildError::UnknownDataflow`] /
    /// [`BuildError::UnknownCostModel`] when a selected id resolves to
    /// nothing.
    pub fn build(self) -> Result<Engine, EngineError> {
        if self.arrays == 0 {
            return Err(BuildError::ZeroArrays.into());
        }
        let mut registry = self.registry;
        for df in self.pending {
            let id = df.id();
            registry
                .register(df)
                .map_err(|_| BuildError::DuplicateDataflow(id))?;
        }
        let dataflow: Arc<dyn Dataflow> = match self.dataflow {
            DataflowChoice::Instance(df) => {
                // Register the instance (when its id is free) so
                // persisted plans naming it resolve on reload — the
                // save_plans/load_plans round trip must not depend on
                // how the dataflow was selected.
                if registry.get(df.id()).is_none() {
                    registry
                        .register(Arc::clone(&df))
                        .expect("id checked free above");
                }
                df
            }
            DataflowChoice::Id(id) => Arc::clone(
                registry
                    .get(id)
                    .ok_or_else(|| BuildError::UnknownDataflow(id.label().to_string()))?,
            ),
        };
        let mut costs = self.costs;
        for cm in self.pending_costs {
            let id = cm.id();
            costs
                .register(cm)
                .map_err(|_| BuildError::DuplicateCostModel(id))?;
        }
        // Symmetric with the dataflow choice: instances self-register
        // when their id is free, ids resolve against the registry.
        let cost: CostModel = match self.cost {
            CostChoice::Instance(cm) => {
                if costs.get(cm.id()).is_none() {
                    costs.register(cm).expect("id checked free above");
                }
                cm
            }
            CostChoice::Id(id) => *costs
                .get(id)
                .ok_or_else(|| BuildError::UnknownCostModel(id.label().to_string()))?,
        };
        let mut compiler = PlanCompiler::new(self.arrays, self.hw)
            .objective(self.objective)
            .with_cost_model(cost)
            .with_dataflow(Arc::clone(&dataflow));
        if let Some(cache) = self.cache {
            compiler = compiler.with_cache(cache);
        }
        let tele = self.telemetry.unwrap_or_default();
        let cluster = Cluster::new(self.arrays, self.hw)
            .shared_dram(SharedDram::scaled(self.arrays))
            .with_telemetry(tele.clone());
        Ok(Engine {
            hw: self.hw,
            arrays: self.arrays,
            objective: self.objective,
            registry,
            dataflow,
            costs,
            cost,
            compiler,
            cluster,
            sim_pool: std::sync::Mutex::new(Vec::new()),
            tele,
        })
    }
}

/// The unified façade: one configured accelerator deployment, exposing
/// mapping search, bit-exact simulation, cluster execution and serving
/// over a shared plan cache.
pub struct Engine {
    hw: AcceleratorConfig,
    arrays: usize,
    objective: Objective,
    registry: DataflowRegistry,
    dataflow: Arc<dyn Dataflow>,
    costs: CostModelRegistry,
    cost: CostModel,
    compiler: PlanCompiler,
    cluster: Cluster,
    /// Pooled single-array simulation contexts for [`Engine::simulate`]:
    /// checked out per call, returned afterwards, so back-to-back
    /// simulations reuse one scratch arena and mapping memo.
    sim_pool: std::sync::Mutex<Vec<Accelerator>>,
    tele: Telemetry,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("hw", &self.hw)
            .field("arrays", &self.arrays)
            .field("objective", &self.objective)
            .field("dataflow", &self.dataflow.id())
            .field("registry", &self.registry)
            .field("cost", &self.cost.id())
            .field("cost_registry", &self.costs)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Starts a builder with the serving defaults (one fabricated-chip
    /// array, row-stationary mapping, EDP objective).
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    // ----- accessors -------------------------------------------------------

    /// Per-array hardware configuration.
    pub fn hardware(&self) -> &AcceleratorConfig {
        &self.hw
    }

    /// The cost model every search, plan and report is priced under.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The engine's cost-model registry (Table IV plus registrations).
    pub fn cost_registry(&self) -> &CostModelRegistry {
        &self.costs
    }

    /// Cluster width.
    pub fn arrays(&self) -> usize {
        self.arrays
    }

    /// Optimization objective.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The active mapping space.
    pub fn dataflow(&self) -> &Arc<dyn Dataflow> {
        &self.dataflow
    }

    /// The engine's dataflow registry (builtin six plus registrations).
    pub fn registry(&self) -> &DataflowRegistry {
        &self.registry
    }

    /// The shared plan cache.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        self.compiler.cache()
    }

    /// Plan-cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.compiler.cache().stats()
    }

    /// The engine's telemetry instance (disabled unless one was injected
    /// via [`EngineBuilder::telemetry`] /
    /// [`EngineBuilder::telemetry_enabled`]). Cluster and simulator
    /// activity records here; snapshot it with
    /// [`eyeriss_telemetry::Telemetry::snapshot`] and export via
    /// [`eyeriss_telemetry::TelemetrySnapshot::to_wire`] or
    /// [`eyeriss_telemetry::TelemetrySnapshot::chrome_trace`].
    ///
    /// Mapping-search metrics (`search.*`) are the one exception: they
    /// record into [`eyeriss_telemetry::Telemetry::global`], because the
    /// search API is free functions with no instance to carry.
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele
    }

    // ----- search tier -----------------------------------------------------

    /// The engine-optimal single-array mapping of `problem`.
    ///
    /// # Errors
    ///
    /// [`EngineError::NoMapping`] when the dataflow cannot operate on
    /// this problem.
    pub fn best_mapping(&self, problem: &LayerProblem) -> Result<MappingCandidate, EngineError> {
        optimize(
            self.dataflow.as_ref(),
            problem,
            &self.hw,
            &self.cost,
            self.objective,
        )
        .ok_or_else(|| self.no_mapping(problem))
    }

    /// The compiled `(partition, mapping)` cluster plan of `problem`,
    /// served from the plan cache (searched at most once per distinct
    /// problem per engine lifetime — or zero times after
    /// [`Engine::load_plans`]).
    ///
    /// # Errors
    ///
    /// [`EngineError::Serve`] wrapping `NoPlan` when no feasible
    /// partition/mapping exists.
    pub fn plan(&self, problem: &LayerProblem) -> Result<Arc<ClusterPlan>, EngineError> {
        Ok(self.compiler.compile_layer(&problem.shape, problem.batch)?)
    }

    /// Plans every problem of `workload` through the cache, returning
    /// `(name, plan)` pairs in workload order.
    ///
    /// # Errors
    ///
    /// Fails on the first problem with no feasible plan.
    pub fn plan_workload(
        &self,
        workload: &Workload,
    ) -> Result<Vec<(String, Arc<ClusterPlan>)>, EngineError> {
        workload
            .problems()
            .iter()
            .map(|(name, p)| Ok((name.clone(), self.plan(p)?)))
            .collect()
    }

    /// Compiles a whole network at batch `n`: one plan per weighted
    /// stage, POOL stages passed through.
    ///
    /// # Errors
    ///
    /// Fails if any weighted stage has no feasible plan.
    pub fn compile(&self, net: &Network, n: usize) -> Result<CompiledPlan, EngineError> {
        Ok(self.compiler.compile_network(net, n)?)
    }

    // ----- tier 1: single-array bit-exact simulation -----------------------

    /// Executes `problem` on one functional array (the fabricated chip's
    /// row-stationary dataflow), returning bit-exact psums and measured
    /// access statistics.
    ///
    /// # Errors
    ///
    /// [`EngineError::Sim`] when the chip cannot map or run the layer.
    ///
    /// # Panics
    ///
    /// Panics if tensor dimensions disagree with the problem.
    pub fn simulate(
        &self,
        problem: &LayerProblem,
        input: &Tensor4<Fix16>,
        weights: &Tensor4<Fix16>,
        bias: &[Fix16],
    ) -> Result<SimRun, EngineError> {
        // Reuse a pooled chip: repeated simulations share one scratch
        // arena and mapping memo instead of reallocating per call.
        let mut chip = self
            .sim_pool
            .lock()
            .expect("sim pool poisoned")
            .pop()
            .unwrap_or_else(|| Accelerator::new(self.hw).telemetry(self.tele.clone()));
        let run = chip.run_conv(&problem.shape, problem.batch, input, weights, bias);
        self.sim_pool.lock().expect("sim pool poisoned").push(chip);
        Ok(run?)
    }

    // ----- tier 2: cluster execution ---------------------------------------

    /// Executes `problem` across the engine's cluster from its cached
    /// plan (planning it first on a cache miss), returning the bit-exact
    /// reassembled psums and per-array statistics.
    ///
    /// # Errors
    ///
    /// Plan-compilation and cluster-execution failures, each typed.
    ///
    /// # Panics
    ///
    /// Panics if tensor dimensions disagree with the problem.
    pub fn run(
        &self,
        problem: &LayerProblem,
        input: &Tensor4<Fix16>,
        weights: &Tensor4<Fix16>,
        bias: &[Fix16],
    ) -> Result<ClusterRun, EngineError> {
        let plan = self.plan(problem)?;
        Ok(self.cluster.execute(&plan, problem, input, weights, bias)?)
    }

    // ----- tier 3: serving -------------------------------------------------

    /// Starts a serving runtime for `net` with default sizing, sharing
    /// this engine's plan cache, dataflow and objective. The returned
    /// [`Server`] handle accepts requests; the engine remains usable for
    /// planning and analysis alongside it.
    ///
    /// # Errors
    ///
    /// [`BuildError::ZeroWorkers`] via [`Engine::serve_with`].
    pub fn serve(&self, net: Network) -> Result<Server, EngineError> {
        self.serve_with(net, ServeOptions::default())
    }

    /// [`Engine::serve`] with explicit sizing.
    ///
    /// # Errors
    ///
    /// [`BuildError::ZeroWorkers`] when `opts.workers` is zero.
    pub fn serve_with(&self, net: Network, opts: ServeOptions) -> Result<Server, EngineError> {
        if opts.workers == 0 {
            return Err(BuildError::ZeroWorkers.into());
        }
        let defaults = ServeConfig::new();
        let cfg = ServeConfig {
            arrays: self.arrays,
            workers: opts.workers,
            policy: opts.policy,
            queue_capacity: opts.queue_capacity,
            hw: self.hw,
            // An enabled engine instance absorbs the server's metrics
            // and spans into one timeline; otherwise the server gets its
            // own live instance so `Server::snapshot()` still works.
            telemetry: self.tele.enabled().then(|| self.tele.clone()),
            slos: opts.slos,
            sched: opts.sched,
            ..defaults
        };
        Ok(Server::start_with_compiler(net, cfg, self.compiler.clone()))
    }

    // ----- persistence -----------------------------------------------------

    /// Persists every compiled plan to `path`, returning how many were
    /// written. A later engine — in a different process — can
    /// [`Engine::load_plans`] them and serve with zero mapping searches.
    ///
    /// # Errors
    ///
    /// [`EngineError::Serve`] wrapping I/O failures.
    pub fn save_plans(&self, path: impl AsRef<Path>) -> Result<usize, EngineError> {
        Ok(self.compiler.cache().save(path)?)
    }

    /// Loads plans persisted by [`Engine::save_plans`] into this
    /// engine's cache, resolving dataflow labels against this engine's
    /// registry. Returns how many plans were read.
    ///
    /// # Errors
    ///
    /// [`EngineError::Serve`] wrapping I/O, schema and
    /// unknown-dataflow failures.
    pub fn load_plans(&self, path: impl AsRef<Path>) -> Result<usize, EngineError> {
        Ok(self
            .compiler
            .cache()
            .load_into(path, &self.registry, &self.costs)?)
    }

    fn no_mapping(&self, problem: &LayerProblem) -> EngineError {
        EngineError::NoMapping {
            dataflow: self.dataflow.id(),
            detail: render_problem(problem),
        }
    }
}

fn render_problem(p: &LayerProblem) -> String {
    format!(
        "{} {}x{}x{} (batch {})",
        p.shape.kind.label(),
        p.shape.m,
        p.shape.c,
        p.shape.h,
        p.batch
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_arch::GridDims;
    use eyeriss_nn::network::NetworkBuilder;
    use eyeriss_nn::{reference, synth, LayerShape};

    fn small_hw() -> AcceleratorConfig {
        AcceleratorConfig {
            grid: GridDims::new(6, 8),
            rf_bytes_per_pe: 512.0,
            buffer_bytes: 32.0 * 1024.0,
        }
    }

    fn small_engine(arrays: usize) -> Engine {
        Engine::builder()
            .hardware(small_hw())
            .arrays(arrays)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_configuration() {
        assert!(matches!(
            Engine::builder().arrays(0).build(),
            Err(EngineError::Build(BuildError::ZeroArrays))
        ));
        assert!(matches!(
            Engine::builder()
                .dataflow_id(DataflowId::new("NOPE"))
                .build(),
            Err(EngineError::Build(BuildError::UnknownDataflow(_)))
        ));
        let engine = Engine::builder()
            .arrays(2)
            .dataflow(DataflowKind::OutputStationaryC)
            .objective(Objective::Energy)
            .build()
            .unwrap();
        assert_eq!(engine.arrays(), 2);
        assert_eq!(engine.objective(), Objective::Energy);
        assert_eq!(engine.dataflow().id().label(), "OSC");
        assert_eq!(engine.registry().len(), 6);
        assert!(format!("{engine:?}").contains("OSC"));
    }

    #[test]
    fn builder_cost_model_reaches_the_plan_search() {
        // A flat on-chip hierarchy vs Table IV: the two engines must not
        // share plans (the cost descriptor is part of the plan key), and
        // each plan's energy must be scored under its own model.
        use eyeriss_arch::cost::CostModel;
        use eyeriss_arch::EnergyModel;
        let cache = Arc::new(PlanCache::new());
        let table = Engine::builder()
            .hardware(small_hw())
            .arrays(2)
            .plan_cache(Arc::clone(&cache))
            .build()
            .unwrap();
        let flat_model =
            CostModel::new("flat", EnergyModel::new(200.0, 2.0, 2.0, 1.0, 1.0).unwrap());
        let flat = Engine::builder()
            .hardware(small_hw())
            .arrays(2)
            .cost_model(flat_model)
            .plan_cache(Arc::clone(&cache))
            .build()
            .unwrap();
        assert_eq!(flat.cost_model().id().label(), "flat");
        assert_eq!(
            flat.cost_registry().len(),
            2,
            "selected instance self-registers next to Table IV"
        );
        let p = LayerProblem::new(LayerShape::conv(8, 3, 13, 3, 2).unwrap(), 2);
        let a = table.plan(&p).unwrap();
        let b = flat.plan(&p).unwrap();
        assert_eq!(
            cache.stats().hits,
            0,
            "different cost models must not collide"
        );
        assert_eq!(cache.len(), 2);
        // The flat plan's recorded energy equals its tiles re-scored
        // under the flat model — proof the search used the builder's
        // cost model — and the plan records its pricer's descriptor.
        let rescored: f64 = b
            .per_array
            .iter()
            .flat_map(|ar| &ar.tiles)
            .map(|t| flat_model.energy_of(&t.mapping.profile))
            .sum();
        assert_eq!(b.energy.to_bits(), rescored.to_bits());
        assert_ne!(a.energy.to_bits(), b.energy.to_bits());
        assert_eq!(b.cost, flat_model.descriptor());
        assert_eq!(a.cost.id.label(), "table-iv");
    }

    #[test]
    fn builder_validates_cost_models() {
        use eyeriss_arch::cost::{CostModel, CostModelId};
        use eyeriss_arch::EnergyModel;
        assert!(matches!(
            Engine::builder()
                .cost_model_id(CostModelId::new("nope"))
                .build(),
            Err(EngineError::Build(BuildError::UnknownCostModel(_)))
        ));
        let dup = CostModel::new("dup", EnergyModel::table_iv());
        assert!(matches!(
            Engine::builder()
                .register_cost_model(dup)
                .register_cost_model(dup)
                .build(),
            Err(EngineError::Build(BuildError::DuplicateCostModel(id))) if id.label() == "dup"
        ));
        // Registered models are selectable by id.
        let lp = CostModel::new("lp", EnergyModel::new(100.0, 6.0, 2.0, 1.0, 1.0).unwrap());
        let engine = Engine::builder()
            .register_cost_model(lp)
            .cost_model_id(CostModelId::new("lp"))
            .build()
            .unwrap();
        assert_eq!(engine.cost_model().id().label(), "lp");
    }

    #[test]
    fn plan_goes_through_the_shared_cache() {
        let engine = small_engine(2);
        let p = LayerProblem::new(LayerShape::conv(8, 3, 13, 3, 2).unwrap(), 2);
        let a = engine.plan(&p).unwrap();
        let b = engine.plan(&p).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn simulate_and_run_agree_bit_exactly() {
        let engine = small_engine(2);
        let shape = LayerShape::conv(6, 3, 13, 3, 2).unwrap();
        let p = LayerProblem::new(shape, 3);
        let input = synth::ifmap(&shape, 3, 1);
        let weights = synth::filters(&shape, 2);
        let bias = synth::biases(&shape, 3);
        let golden = reference::conv_accumulate(&shape, 3, &input, &weights, &bias);
        let sim = engine.simulate(&p, &input, &weights, &bias).unwrap();
        assert_eq!(sim.psums, golden);
        let run = engine.run(&p, &input, &weights, &bias).unwrap();
        assert_eq!(run.psums, golden);
    }

    #[test]
    fn infeasible_mapping_is_a_typed_error() {
        // WS at batch 64 on 256 PEs "cannot operate" (Fig. 11a).
        let engine = Engine::builder()
            .hardware(AcceleratorConfig::under_baseline_area(
                256,
                DataflowKind::WeightStationary.rf_bytes(),
            ))
            .dataflow(DataflowKind::WeightStationary)
            .build()
            .unwrap();
        let conv1 = LayerProblem::new(LayerShape::conv(96, 3, 227, 11, 4).unwrap(), 64);
        let err = engine.best_mapping(&conv1).unwrap_err();
        assert!(matches!(
            err,
            EngineError::NoMapping { dataflow, .. } if dataflow.label() == "WS"
        ));
    }

    #[test]
    fn workload_planning_names_every_problem() {
        let engine = small_engine(2);
        let net = NetworkBuilder::new(3, 19)
            .conv("C1", 8, 3, 2)
            .unwrap()
            .pool("P1", 3, 2)
            .unwrap()
            .fully_connected("FC", 10)
            .unwrap()
            .build(7);
        let w = Workload::from_network("tiny", &net, 2);
        let plans = engine.plan_workload(&w).unwrap();
        assert_eq!(plans.len(), 2, "POOL stages carry no plan");
        assert_eq!(plans[0].0, "C1");
        assert_eq!(plans[1].0, "FC");
        let compiled = engine.compile(&net, 2).unwrap();
        assert_eq!(compiled.stages.len(), 3);
        // compile() reuses the workload plans: no new searches.
        assert_eq!(compiled.searched, 0);
        assert_eq!(compiled.cached, 2);
    }

    #[test]
    fn telemetry_opt_in_records_cluster_and_sim_activity() {
        let engine = Engine::builder()
            .hardware(small_hw())
            .arrays(2)
            .telemetry_enabled(true)
            .build()
            .unwrap();
        assert!(engine.telemetry().enabled());
        let shape = LayerShape::conv(6, 3, 13, 3, 2).unwrap();
        let p = LayerProblem::new(shape, 2);
        let input = synth::ifmap(&shape, 2, 1);
        let weights = synth::filters(&shape, 2);
        let bias = synth::biases(&shape, 3);
        engine.run(&p, &input, &weights, &bias).unwrap();
        engine.simulate(&p, &input, &weights, &bias).unwrap();
        let snap = engine.telemetry().snapshot();
        assert!(snap.spans.iter().any(|s| s.name == "cluster.execute"));
        assert!(snap.spans.iter().any(|s| s.name == "cluster.array"));
        assert!(snap.spans.iter().any(|s| s.name == "sim.layer"));
        assert!(snap
            .histogram("cluster.reassemble_ns")
            .is_some_and(|h| h.count() > 0));
        // The default engine stays disabled and records nothing.
        let quiet = small_engine(2);
        assert!(!quiet.telemetry().enabled());
        quiet.run(&p, &input, &weights, &bias).unwrap();
        assert!(quiet.telemetry().snapshot().spans.is_empty());
    }

    #[test]
    fn serving_tier_shares_the_engine_cache() {
        let engine = small_engine(2);
        let net = NetworkBuilder::new(3, 19)
            .conv("C1", 8, 3, 2)
            .unwrap()
            .pool("P1", 3, 2)
            .unwrap()
            .fully_connected("FC", 10)
            .unwrap()
            .build(7);
        let shape = net.stages()[0].shape;
        // Pre-plan at batch 1 through the engine, then serve: the
        // server's single-request batches hit the same cache.
        engine.plan(&LayerProblem::new(shape, 1)).unwrap();
        let golden = net.clone();
        let opts = ServeOptions {
            workers: 1,
            policy: BatchPolicy::unbatched(),
            queue_capacity: 8,
            slos: Vec::new(),
            sched: None,
        };
        let server = engine.serve_with(net, opts).unwrap();
        let input = synth::ifmap(&shape, 1, 42);
        let response = server.submit(input.clone()).unwrap().wait().unwrap();
        assert_eq!(response.output, golden.forward(1, &input));
        server.shutdown();
        assert!(engine.cache_stats().hits > 0, "server reused engine plans");
        assert!(matches!(
            engine.serve_with(
                golden,
                ServeOptions {
                    workers: 0,
                    ..ServeOptions::default()
                }
            ),
            Err(EngineError::Build(BuildError::ZeroWorkers))
        ));
    }
}
