//! Plan-cache persistence: compiled plans survive process restarts.
//!
//! The ROADMAP's follow-on made real: [`PlanCache::save`] writes every
//! compiled `(problem, plan)` pair to disk under a versioned schema, and
//! [`PlanCache::load`] rebuilds the cache in a *cold* process so that
//! serving resumes with **zero mapping searches** — every stage is a
//! cache hit, and re-execution is bit-exact because the wire format
//! preserves every `f64` by bit pattern (see [`eyeriss_wire`]).
//!
//! Dataflow identities travel as labels; decoding resolves them against
//! a [`DataflowRegistry`], so caches compiled with registered extension
//! dataflows reload too (and caches naming *unregistered* dataflows fail
//! with a typed error instead of misexecuting). Cost models travel the
//! same way — each key and plan records the [`CostDescriptor`] of the
//! model that priced it (label + exact numeric fingerprint), resolved
//! against a [`CostModelRegistry`] on load; plans priced under distinct
//! fingerprints never cross-hit, even under one label.
//!
//! # Example
//!
//! ```
//! use eyeriss_serve::{PlanCache, PlanCompiler};
//! use eyeriss_arch::AcceleratorConfig;
//! use eyeriss_dataflow::DataflowRegistry;
//! use eyeriss_nn::LayerShape;
//!
//! let dir = std::env::temp_dir().join("eyeriss-persist-doc");
//! std::fs::create_dir_all(&dir).ok();
//! let path = dir.join("cache.plans");
//!
//! let compiler = PlanCompiler::new(2, AcceleratorConfig::eyeriss_chip());
//! let shape = LayerShape::conv(16, 8, 11, 3, 2)?;
//! let warm = compiler.compile_layer(&shape, 4)?;
//! compiler.cache().save(&path)?;
//!
//! // A cold process reloads the cache: same plan, no search.
//! use eyeriss_arch::CostModelRegistry;
//! let cold = PlanCache::load(&path, &DataflowRegistry::builtin(), &CostModelRegistry::builtin())?;
//! let compiler2 = PlanCompiler::new(2, AcceleratorConfig::eyeriss_chip())
//!     .with_cache(std::sync::Arc::new(cold));
//! let reloaded = compiler2.compile_layer(&shape, 4)?;
//! assert_eq!(*reloaded, *warm);
//! assert_eq!(compiler2.cache().stats().misses, 0, "zero searches");
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::error::ServeError;
use crate::plan::{CompiledPlan, Footprint, PlanCache, PlanKey, StagePlan};
use eyeriss_arch::cost::CostDescriptor;
use eyeriss_arch::wire as arch_wire;
use eyeriss_arch::CostModelRegistry;
use eyeriss_cluster::wire as cluster_wire;
use eyeriss_dataflow::search::Objective;
use eyeriss_dataflow::DataflowRegistry;
use eyeriss_nn::wire as nn_wire;
use eyeriss_wire::{Value, WireError};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Schema name of a persisted plan cache.
pub const CACHE_SCHEMA: &str = "eyeriss-plan-cache";
/// Schema version of a persisted plan cache. Version 2 replaced the raw
/// `em_bits` energy fingerprint with the cost-model descriptor
/// (label + full energy/bandwidth fingerprint — see
/// [`arch_wire::COST_DESCRIPTOR_VERSION`]) in both keys and plans.
pub const CACHE_VERSION: u64 = 2;

/// Schema name of a persisted compiled plan.
pub const COMPILED_SCHEMA: &str = "eyeriss-compiled-plan";
/// Schema version of a persisted compiled plan (version 2: cost-model
/// descriptors inside each stage's cluster plan).
pub const COMPILED_VERSION: u64 = 2;

fn io_err(path: &Path, what: &str, e: std::io::Error) -> ServeError {
    ServeError::Io(format!("{what} {}: {e}", path.display()))
}

fn encode_key(k: &PlanKey) -> Value {
    Value::obj([
        ("shape", nn_wire::encode_shape(&k.shape)),
        ("n", Value::usize(k.n)),
        ("arrays", Value::usize(k.arrays)),
        ("df", Value::str(k.dataflow.label())),
        ("objective", Value::str(k.objective.label())),
        ("rows", Value::usize(k.grid.0)),
        ("cols", Value::usize(k.grid.1)),
        ("rf_bits", Value::u64(k.rf_bits)),
        ("buffer_bits", Value::u64(k.buffer_bits)),
        ("cost", arch_wire::encode_cost_descriptor(&k.cost)),
    ])
}

fn decode_key(
    v: &Value,
    reg: &DataflowRegistry,
    costs: &CostModelRegistry,
) -> Result<PlanKey, WireError> {
    let label = v.get("df")?.as_str()?;
    let dataflow = reg
        .by_label(label)
        .map(|d| d.id())
        .ok_or_else(|| WireError::Invalid(format!("unregistered dataflow {label:?}")))?;
    let objective_label = v.get("objective")?.as_str()?;
    let objective = Objective::from_label(objective_label)
        .ok_or_else(|| WireError::Invalid(format!("unknown objective {objective_label:?}")))?;
    let cost: CostDescriptor = arch_wire::decode_cost_descriptor(v.get("cost")?, costs)?;
    Ok(PlanKey {
        shape: nn_wire::decode_shape(v.get("shape")?)?,
        n: v.get("n")?.as_usize()?,
        arrays: v.get("arrays")?.as_usize()?,
        dataflow,
        objective,
        grid: (v.get("rows")?.as_usize()?, v.get("cols")?.as_usize()?),
        rf_bits: v.get("rf_bits")?.as_u64()?,
        buffer_bits: v.get("buffer_bits")?.as_u64()?,
        cost,
    })
}

impl PlanCache {
    /// Writes every compiled plan to `path` (overwriting), returning the
    /// number of plans saved. Counters (hits/misses) are *not* saved —
    /// they describe one process's lifetime, not the plans.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on filesystem failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<usize, ServeError> {
        let path = path.as_ref();
        let entries = self.snapshot();
        let doc = Value::obj([
            ("schema", Value::str(CACHE_SCHEMA)),
            ("v", Value::u64(CACHE_VERSION)),
            (
                "plans",
                Value::arr(entries.iter().map(|(k, p)| {
                    Value::obj([
                        ("key", encode_key(k)),
                        ("plan", cluster_wire::encode_plan(p)),
                    ])
                })),
            ),
        ]);
        // Write-then-rename so a crash mid-write never destroys the
        // previously good cache file. The temp name appends to the full
        // file name (distinct targets never share a temp path) and is
        // unique per writer (concurrent savers never clobber each
        // other's in-flight temp).
        static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
        tmp_name.push(format!(".{}.{seq}.tmp", std::process::id()));
        let tmp = path.with_file_name(tmp_name);
        std::fs::write(&tmp, doc.render()).map_err(|e| io_err(&tmp, "writing", e))?;
        std::fs::rename(&tmp, path).map_err(|e| io_err(path, "replacing", e))?;
        Ok(entries.len())
    }

    /// Loads the plans persisted at `path` into `self` (existing entries
    /// under equal keys are kept), returning the number of plans read.
    /// Loaded entries count neither as hits nor misses until looked up.
    ///
    /// The load is all-or-nothing: every entry is decoded before any is
    /// inserted, so a rejected file never leaves the live cache
    /// partially populated.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on filesystem failures, [`ServeError::Wire`]
    /// on schema/decoding failures — including plans whose dataflow is
    /// not registered in `reg` or whose pricing cost model is not
    /// registered in `costs`.
    pub fn load_into(
        &self,
        path: impl AsRef<Path>,
        reg: &DataflowRegistry,
        costs: &CostModelRegistry,
    ) -> Result<usize, ServeError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| io_err(path, "reading", e))?;
        let doc = Value::parse(&text)?;
        doc.expect_schema(CACHE_SCHEMA, CACHE_VERSION)?;
        let entries = doc.get("plans")?.as_arr()?;
        let mut decoded = Vec::with_capacity(entries.len());
        for entry in entries {
            let key = decode_key(entry.get("key")?, reg, costs)?;
            let plan = cluster_wire::decode_plan(entry.get("plan")?, reg, costs)?;
            decoded.push((key, Arc::new(plan)));
        }
        let n = decoded.len();
        for (key, plan) in decoded {
            self.insert(key, plan);
        }
        Ok(n)
    }

    /// Builds a fresh cache from the plans persisted at `path`.
    ///
    /// # Errors
    ///
    /// As [`PlanCache::load_into`].
    pub fn load(
        path: impl AsRef<Path>,
        reg: &DataflowRegistry,
        costs: &CostModelRegistry,
    ) -> Result<PlanCache, ServeError> {
        let cache = PlanCache::new();
        cache.load_into(path, reg, costs)?;
        Ok(cache)
    }
}

/// Encodes a whole compiled network plan (versioned).
pub fn encode_compiled(plan: &CompiledPlan) -> Value {
    Value::obj([
        ("schema", Value::str(COMPILED_SCHEMA)),
        ("v", Value::u64(COMPILED_VERSION)),
        ("batch", Value::usize(plan.batch)),
        ("arrays", Value::usize(plan.arrays)),
        (
            "compile_ns",
            Value::u64(plan.compile_time.as_nanos() as u64),
        ),
        ("searched", Value::u64(plan.searched)),
        ("cached", Value::u64(plan.cached)),
        (
            "stages",
            Value::arr(plan.stages.iter().map(|s| match s {
                StagePlan::Layer {
                    name,
                    shape,
                    relu,
                    plan,
                    footprint: _,
                } => Value::obj([
                    ("stage", Value::str("layer")),
                    ("name", Value::str(name.clone())),
                    ("shape", nn_wire::encode_shape(shape)),
                    ("relu", Value::Bool(*relu)),
                    ("plan", cluster_wire::encode_plan(plan)),
                ]),
                StagePlan::Pool { name, shape } => Value::obj([
                    ("stage", Value::str("pool")),
                    ("name", Value::str(name.clone())),
                    ("shape", nn_wire::encode_shape(shape)),
                ]),
            })),
        ),
    ])
}

/// Decodes a compiled network plan. Stage footprints are re-derived from
/// the decoded shapes (they are pure functions of shape and batch).
///
/// # Errors
///
/// [`WireError`] on schema or structural problems.
pub fn decode_compiled(
    v: &Value,
    reg: &DataflowRegistry,
    costs: &CostModelRegistry,
) -> Result<CompiledPlan, WireError> {
    v.expect_schema(COMPILED_SCHEMA, COMPILED_VERSION)?;
    let batch = v.get("batch")?.as_usize()?;
    let mut stages = Vec::new();
    for s in v.get("stages")?.as_arr()? {
        let name = s.get("name")?.as_str()?.to_string();
        let shape = nn_wire::decode_shape(s.get("shape")?)?;
        stages.push(match s.get("stage")?.as_str()? {
            "layer" => StagePlan::Layer {
                name,
                shape,
                relu: s.get("relu")?.as_bool()?,
                plan: Arc::new(cluster_wire::decode_plan(s.get("plan")?, reg, costs)?),
                footprint: Footprint::of(&shape, batch),
            },
            "pool" => StagePlan::Pool { name, shape },
            other => return Err(WireError::Invalid(format!("unknown stage tag {other:?}"))),
        });
    }
    Ok(CompiledPlan {
        batch,
        arrays: v.get("arrays")?.as_usize()?,
        stages,
        compile_time: Duration::from_nanos(v.get("compile_ns")?.as_u64()?),
        searched: v.get("searched")?.as_u64()?,
        cached: v.get("cached")?.as_u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanCompiler;
    use eyeriss_arch::{AcceleratorConfig, GridDims};
    use eyeriss_nn::network::NetworkBuilder;
    use eyeriss_nn::LayerShape;

    fn small_hw() -> AcceleratorConfig {
        AcceleratorConfig {
            grid: GridDims::new(6, 8),
            rf_bytes_per_pe: 512.0,
            buffer_bytes: 32.0 * 1024.0,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("eyeriss-persist-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn cache_save_load_roundtrip_is_search_free() {
        let path = tmp("roundtrip.plans");
        let compiler = PlanCompiler::new(2, small_hw());
        let shape_a = LayerShape::conv(8, 3, 13, 3, 2).unwrap();
        let shape_b = LayerShape::fully_connected(10, 8, 5).unwrap();
        let a = compiler.compile_layer(&shape_a, 4).unwrap();
        let b = compiler.compile_layer(&shape_b, 2).unwrap();
        assert_eq!(compiler.cache().save(&path).unwrap(), 2);

        let reg = DataflowRegistry::builtin();
        let costs = CostModelRegistry::builtin();
        let cold = PlanCache::load(&path, &reg, &costs).unwrap();
        assert_eq!(cold.len(), 2);
        assert_eq!(cold.stats().lookups(), 0, "loading is not looking up");
        let compiler2 = PlanCompiler::new(2, small_hw()).with_cache(Arc::new(cold));
        let a2 = compiler2.compile_layer(&shape_a, 4).unwrap();
        let b2 = compiler2.compile_layer(&shape_b, 2).unwrap();
        assert_eq!(*a2, *a);
        assert_eq!(*b2, *b);
        let stats = compiler2.cache().stats();
        assert_eq!((stats.hits, stats.misses), (2, 0), "no search after reload");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn different_operating_points_stay_distinct_after_reload() {
        let path = tmp("distinct.plans");
        let cache = Arc::new(PlanCache::new());
        let shape = LayerShape::conv(8, 3, 13, 3, 2).unwrap();
        let two = PlanCompiler::new(2, small_hw()).with_cache(Arc::clone(&cache));
        let four = PlanCompiler::new(4, small_hw()).with_cache(Arc::clone(&cache));
        two.compile_layer(&shape, 2).unwrap();
        four.compile_layer(&shape, 2).unwrap();
        assert_eq!(cache.save(&path).unwrap(), 2);
        let cold = PlanCache::load(
            &path,
            &DataflowRegistry::builtin(),
            &CostModelRegistry::builtin(),
        )
        .unwrap();
        assert_eq!(cold.len(), 2, "cluster widths keep distinct keys");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_load_leaves_the_cache_untouched() {
        // One good entry followed by one naming an unregistered
        // dataflow: the load must reject the whole file atomically.
        let path = tmp("atomic.plans");
        let compiler = PlanCompiler::new(2, small_hw());
        let shape = LayerShape::conv(8, 3, 13, 3, 2).unwrap();
        compiler.compile_layer(&shape, 4).unwrap();
        compiler.cache().save(&path).unwrap();
        // Append a clone of the good entry whose key names a dataflow
        // nobody registered.
        let mut doc = Value::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let Value::Obj(pairs) = &mut doc else {
            panic!("cache document is an object")
        };
        for (k, v) in pairs.iter_mut() {
            let Value::Arr(plans) = v else { continue };
            assert_eq!(k, "plans");
            let mut ghost = plans[0].clone();
            let Value::Obj(entry) = &mut ghost else {
                panic!("entry is an object")
            };
            for (ek, ev) in entry.iter_mut() {
                if ek != "key" {
                    continue;
                }
                let Value::Obj(key) = ev else {
                    panic!("key is an object")
                };
                for (kk, kv) in key.iter_mut() {
                    if kk == "df" {
                        *kv = Value::str("GHOST");
                    }
                }
            }
            // Good entry first: a non-atomic load would insert it
            // before tripping over the ghost.
            plans.push(ghost);
        }
        std::fs::write(&path, doc.render()).unwrap();

        let cold = PlanCache::new();
        let err = cold
            .load_into(
                &path,
                &DataflowRegistry::builtin(),
                &CostModelRegistry::builtin(),
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::Wire(WireError::Invalid(_))));
        assert!(cold.is_empty(), "partial load leaked into the cache");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn distinct_cost_models_keep_distinct_plans() {
        use eyeriss_arch::cost::CostModel;
        use eyeriss_arch::EnergyModel;
        let cache = Arc::new(PlanCache::new());
        let shape = LayerShape::conv(8, 3, 13, 3, 2).unwrap();
        let table = PlanCompiler::new(2, small_hw()).with_cache(Arc::clone(&cache));
        let flat_model =
            CostModel::new("flat", EnergyModel::new(200.0, 2.0, 2.0, 1.0, 1.0).unwrap());
        let flat = PlanCompiler::new(2, small_hw())
            .with_cost_model(flat_model)
            .with_cache(Arc::clone(&cache));
        table.compile_layer(&shape, 2).unwrap();
        flat.compile_layer(&shape, 2).unwrap();
        assert_eq!(cache.len(), 2, "cost model must be part of the key");
        assert_eq!(cache.stats().hits, 0);

        // The persisted cache reloads only when the pricing model is
        // registered; with it registered, the two entries stay distinct.
        let path = tmp("cost-models.plans");
        assert_eq!(cache.save(&path).unwrap(), 2);
        let missing = PlanCache::load(
            &path,
            &DataflowRegistry::builtin(),
            &CostModelRegistry::builtin(),
        );
        assert!(matches!(missing, Err(ServeError::Wire(_))));
        let mut costs = CostModelRegistry::builtin();
        costs.register(flat_model).unwrap();
        let cold = PlanCache::load(&path, &DataflowRegistry::builtin(), &costs).unwrap();
        assert_eq!(cold.len(), 2, "distinct fingerprints stay distinct");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_is_typed_about_missing_files_and_garbage() {
        let reg = DataflowRegistry::builtin();
        assert!(matches!(
            PlanCache::load(tmp("enoent.plans"), &reg, &CostModelRegistry::builtin()),
            Err(ServeError::Io(_))
        ));
        let path = tmp("garbage.plans");
        std::fs::write(&path, "not json").unwrap();
        assert!(matches!(
            PlanCache::load(&path, &reg, &CostModelRegistry::builtin()),
            Err(ServeError::Wire(_))
        ));
        // Wrong schema name.
        let doc = Value::obj([
            ("schema", Value::str("something-else")),
            ("v", Value::u64(1)),
            ("plans", Value::arr([])),
        ]);
        std::fs::write(&path, doc.render()).unwrap();
        assert!(matches!(
            PlanCache::load(&path, &reg, &CostModelRegistry::builtin()),
            Err(ServeError::Wire(WireError::WrongSchema { .. }))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compiled_plan_roundtrips() {
        let net = NetworkBuilder::new(3, 19)
            .conv("C1", 8, 3, 2)
            .unwrap()
            .pool("P1", 3, 2)
            .unwrap()
            .fully_connected("FC", 10)
            .unwrap()
            .build(7);
        let compiler = PlanCompiler::new(2, small_hw());
        let plan = compiler.compile_network(&net, 2).unwrap();
        let reg = DataflowRegistry::builtin();
        let costs = CostModelRegistry::builtin();
        let text = encode_compiled(&plan).render();
        let back = decode_compiled(&Value::parse(&text).unwrap(), &reg, &costs).unwrap();
        assert_eq!(back, plan);
        assert_eq!(
            back.analytic_delay().to_bits(),
            plan.analytic_delay().to_bits()
        );
        assert_eq!(back.peak_footprint_words(), plan.peak_footprint_words());
    }
}
