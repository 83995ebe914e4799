//! The acceptance tests of the `Engine` façade redesign:
//!
//! 1. A *seventh* dataflow registered through the [`DataflowRegistry`]
//!    is searched by the unmodified optimizer, planned by the unmodified
//!    cluster planner, and selectable on an [`Engine`] — no core changes.
//! 2. A cold engine reloading persisted plans serves bit-exact outputs
//!    with **zero** mapping searches.
//! 3. A custom *cost model* registered through the
//!    [`CostModelRegistry`] prices search, cluster planning, plan
//!    persistence (its fingerprint travels in the wire format) and
//!    serving — again with no core changes.

use eyeriss::prelude::*;
use eyeriss::Objective;
use std::sync::Arc;

/// A toy seventh dataflow: `k` ofmap channels mapped to `k` PEs, the
/// whole ifmap refetched once per channel group. Not a good dataflow —
/// the point is that nothing in `search`/`cluster`/`serve` knows it
/// exists, yet everything works through the trait.
struct ChannelCyclic;

const TOY: DataflowId = DataflowId::new("TOY-CC");

impl Dataflow for ChannelCyclic {
    fn id(&self) -> DataflowId {
        TOY
    }

    fn rf_bytes(&self) -> f64 {
        16.0
    }

    fn for_each_candidate(
        &self,
        problem: &LayerProblem,
        hw: &AcceleratorConfig,
        sink: &mut dyn CandidateSink,
    ) {
        let shape = &problem.shape;
        let n = problem.batch;
        let macs = shape.macs(n) as f64;
        let mut k = 1usize;
        while k <= shape.m.min(hw.num_pes()) {
            let groups = shape.m.div_ceil(k) as f64;
            let mut profile = eyeriss::arch::LayerAccessProfile::new();
            profile.alu_ops = macs;
            // Each channel group re-streams the full ifmap from DRAM.
            profile.ifmap.dram_reads = shape.ifmap_words(n) as f64 * groups;
            profile.ifmap.buffer_writes = profile.ifmap.dram_reads;
            profile.ifmap.buffer_reads = macs / k as f64;
            profile.ifmap.rf_reads = macs;
            profile.filter.dram_reads = shape.filter_words() as f64;
            profile.filter.buffer_writes = profile.filter.dram_reads;
            profile.filter.buffer_reads = shape.filter_words() as f64;
            profile.filter.rf_reads = macs;
            profile.psum.rf_reads = macs;
            profile.psum.rf_writes = macs;
            profile.psum.dram_writes = shape.ofmap_words(n) as f64;
            sink.offer(MappingCandidate {
                profile,
                active_pes: k,
                params: eyeriss::dataflow::MappingParams::Custom {
                    id: TOY,
                    knobs: [k, 0, 0, 0],
                },
            });
            k *= 2;
        }
    }
}

#[test]
fn seventh_dataflow_searches_through_the_registry() {
    let mut reg = DataflowRegistry::builtin();
    reg.register(Arc::new(ChannelCyclic)).unwrap();
    assert_eq!(reg.len(), 7);

    let toy = reg.resolve(TOY).unwrap();
    let em = TableIv;
    let hw = toy.comparison_hardware(256);
    let problem = LayerProblem::new(LayerShape::conv(64, 8, 13, 3, 2).unwrap(), 2);

    // The unmodified optimizer searches the registered space.
    let best = optimize(toy.as_ref(), &problem, &hw, &em, Objective::Energy)
        .expect("toy dataflow is feasible");
    assert_eq!(best.params.dataflow(), TOY);
    assert_eq!(best.params.kind(), None, "not one of the builtin six");
    // Wider channel parallelism amortizes the ifmap re-streaming, so the
    // optimizer must pick the widest feasible k.
    let eyeriss::dataflow::MappingParams::Custom { knobs, .. } = best.params else {
        panic!("toy params must be Custom");
    };
    assert_eq!(knobs[0], 64, "optimizer should pick the widest k");

    // The unmodified cluster planner co-optimizes (partition, mapping)
    // in the toy space.
    let plan = plan_layer(
        toy.as_ref(),
        &problem,
        2,
        &hw,
        &em,
        &SharedDram::scaled(2),
        Objective::EnergyDelayProduct,
    )
    .expect("toy dataflow plans across the cluster");
    assert_eq!(plan.arrays, 2);
    assert!(plan
        .per_array
        .iter()
        .flat_map(|a| &a.tiles)
        .all(|t| t.mapping.params.dataflow() == TOY));

    // Typed validation at the trait boundary: a foreign candidate is a
    // typed error, not a panic.
    let rs = registry::builtin(DataflowKind::RowStationary);
    let rs_best = optimize(rs, &problem, &hw, &em, Objective::Energy).unwrap();
    let err = toy.validate(&rs_best, &hw).unwrap_err();
    assert!(matches!(
        err,
        eyeriss::dataflow::DataflowError::Mismatch(m) if m.expected == TOY
    ));
}

#[test]
fn engine_builds_with_a_registered_seventh_dataflow() {
    let engine = Engine::builder()
        .hardware(AcceleratorConfig::eyeriss_chip())
        .arrays(2)
        .register(Arc::new(ChannelCyclic))
        .dataflow_id(TOY)
        .build()
        .unwrap();
    assert_eq!(engine.registry().len(), 7);
    assert_eq!(engine.dataflow().id(), TOY);

    let shape = LayerShape::conv(8, 3, 13, 3, 2).unwrap();
    let problem = LayerProblem::new(shape, 4);
    let best = engine.best_mapping(&problem).unwrap();
    assert_eq!(best.params.dataflow(), TOY);

    // Plans compiled in the toy space flow through the shared cache and
    // execute bit-exactly (the functional arrays implement the chip's
    // row-stationary datapath regardless of the analytic space).
    let plan = engine.plan(&problem).unwrap();
    let input = synth::ifmap(&shape, 4, 1);
    let weights = synth::filters(&shape, 2);
    let bias = synth::biases(&shape, 3);
    let run = engine.run(&problem, &input, &weights, &bias).unwrap();
    assert_eq!(
        run.psums,
        reference::conv_accumulate(&shape, 4, &input, &weights, &bias)
    );
    assert_eq!(run.partition, plan.partition);

    // And they persist: save, reload into a second engine that also
    // registers the toy space, replan with zero searches.
    let dir = std::env::temp_dir().join("eyeriss-engine-facade");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("toy.plans");
    assert_eq!(engine.save_plans(&path).unwrap(), 1);
    let cold = Engine::builder()
        .hardware(AcceleratorConfig::eyeriss_chip())
        .arrays(2)
        .register(Arc::new(ChannelCyclic))
        .dataflow_id(TOY)
        .build()
        .unwrap();
    assert_eq!(cold.load_plans(&path).unwrap(), 1);
    let replan = cold.plan(&problem).unwrap();
    assert_eq!(*replan, *plan);
    assert_eq!(cold.cache_stats().misses, 0, "reload must not re-search");

    // A third engine *without* the registration refuses the persisted
    // plans with a typed error instead of guessing.
    let ignorant = Engine::builder().arrays(2).build().unwrap();
    assert!(matches!(
        ignorant.load_plans(&path),
        Err(EngineError::Serve(_))
    ));

    // Selecting by instance (no explicit register) must round-trip too:
    // the builder registers the instance so reloads resolve its label.
    let by_instance = Engine::builder()
        .hardware(AcceleratorConfig::eyeriss_chip())
        .arrays(2)
        .dataflow_instance(Arc::new(ChannelCyclic))
        .build()
        .unwrap();
    assert_eq!(by_instance.load_plans(&path).unwrap(), 1);
    assert_eq!(*by_instance.plan(&problem).unwrap(), *plan);
    assert_eq!(by_instance.cache_stats().misses, 0);
    std::fs::remove_file(&path).ok();
}

/// A latency-weighted 28 nm-ish scenario: cheaper DRAM energy, but a
/// finite DRAM channel that penalizes DRAM-streaming mappings under EDP.
fn lp28() -> CostModel {
    CostModel::new(
        "lp-28nm",
        EnergyModel::new(120.0, 5.0, 2.0, 1.0, 1.0).unwrap(),
    )
    .with_bandwidth(Level::Dram, 2.0)
    .unwrap()
}

#[test]
fn registered_cost_model_prices_search_plan_persist_and_serve() {
    // The cost-layer acceptance case: a custom model registered through
    // the registry drives mapping search, cluster planning, persistence
    // and serving.
    let model = lp28();

    // 1. The unmodified optimizer prices in the custom model.
    let rs = registry::builtin(DataflowKind::RowStationary);
    let hw = rs.comparison_hardware(256);
    let problem = LayerProblem::new(LayerShape::conv(64, 8, 13, 3, 2).unwrap(), 2);
    let best = optimize(rs, &problem, &hw, &model, Objective::Energy).unwrap();
    let unbanded = CostModel::new(
        "lp-28nm",
        EnergyModel::new(120.0, 5.0, 2.0, 1.0, 1.0).unwrap(),
    );
    assert_eq!(
        model.energy_of(&best.profile).to_bits(),
        unbanded.energy_of(&best.profile).to_bits(),
        "custom pricing is the model's own table"
    );
    assert_ne!(
        model.energy_of(&best.profile).to_bits(),
        TableIv.energy_of(&best.profile).to_bits()
    );

    // 2. The unmodified cluster planner records the pricer's descriptor.
    let plan = plan_layer(
        rs,
        &problem,
        2,
        &hw,
        &model,
        &SharedDram::scaled(2),
        Objective::EnergyDelayProduct,
    )
    .unwrap();
    assert_eq!(plan.cost, model.descriptor());

    // 3. An engine built on the registered model plans and persists it.
    let dir = std::env::temp_dir().join("eyeriss-engine-facade");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lp28.plans");
    let hw_small = AcceleratorConfig {
        grid: GridDims::new(6, 8),
        rf_bytes_per_pe: 512.0,
        buffer_bytes: 32.0 * 1024.0,
    };
    let net = eyeriss::nn::network::NetworkBuilder::new(3, 19)
        .conv("C1", 8, 3, 2)
        .unwrap()
        .pool("P1", 3, 2)
        .unwrap()
        .fully_connected("FC", 10)
        .unwrap()
        .build(7);
    let golden = net.clone();
    let shape = net.stages()[0].shape;
    let warm = Engine::builder()
        .hardware(hw_small)
        .arrays(2)
        .cost_model(model)
        .build()
        .unwrap();
    assert_eq!(warm.cost_model().id().label(), "lp-28nm");
    warm.compile(&net, 1).unwrap();
    assert_eq!(warm.save_plans(&path).unwrap(), 2);

    // 4. A cold engine that registers the model reloads and serves with
    //    zero searches, bit-exactly.
    let cold = Engine::builder()
        .hardware(hw_small)
        .arrays(2)
        .register_cost_model(model)
        .cost_model_id(CostModelId::new("lp-28nm"))
        .build()
        .unwrap();
    assert_eq!(cold.load_plans(&path).unwrap(), 2);
    let server = cold
        .serve_with(
            net,
            ServeOptions {
                workers: 1,
                policy: BatchPolicy::unbatched(),
                queue_capacity: 8,
                slos: Vec::new(),
                sched: None,
            },
        )
        .unwrap();
    let input = synth::ifmap(&shape, 1, 11);
    let response = server.submit(input.clone()).unwrap().wait().unwrap();
    assert_eq!(response.output, golden.forward(1, &input));
    server.shutdown();
    assert_eq!(
        cold.cache_stats().misses,
        0,
        "cold serving under the custom model must not search"
    );

    // 5. An engine *without* the registration refuses the persisted
    //    plans with a typed error; an engine with a same-named model of
    //    different numbers loads them but never cross-hits.
    let ignorant = Engine::builder()
        .hardware(hw_small)
        .arrays(2)
        .build()
        .unwrap();
    assert!(matches!(
        ignorant.load_plans(&path),
        Err(EngineError::Serve(_))
    ));
    let drifted_model = CostModel::new(
        "lp-28nm",
        EnergyModel::new(240.0, 5.0, 2.0, 1.0, 1.0).unwrap(),
    );
    let drifted = Engine::builder()
        .hardware(hw_small)
        .arrays(2)
        .cost_model(drifted_model)
        .build()
        .unwrap();
    assert_eq!(drifted.load_plans(&path).unwrap(), 2);
    drifted
        .plan(&LayerProblem::new(shape, 1))
        .expect("replans under its own fingerprint");
    assert_eq!(
        drifted.cache_stats().misses,
        1,
        "distinct fingerprints under one label must re-search, not cross-hit"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn vgg_plans_persist_and_reload_with_zero_searches() {
    // The acceptance case: VGG-16's CONV stack compiled once, persisted,
    // and reloaded by a cold engine that then plans every layer without
    // a single mapping search.
    let dir = std::env::temp_dir().join("eyeriss-engine-facade");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("vgg.plans");

    let warm = Engine::builder()
        .hardware(AcceleratorConfig::eyeriss_chip())
        .arrays(1)
        .build()
        .unwrap();
    let vgg = Workload::from_layers("vgg-conv", &eyeriss::nn::vgg::conv_layers(), 1);
    let plans = warm.plan_workload(&vgg).unwrap();
    assert_eq!(plans.len(), 13);
    let warm_stats = warm.cache_stats();
    assert_eq!(warm_stats.misses, 9, "9 distinct VGG CONV shapes");
    assert_eq!(warm.save_plans(&path).unwrap(), 9);

    let cold = Engine::builder()
        .hardware(AcceleratorConfig::eyeriss_chip())
        .arrays(1)
        .build()
        .unwrap();
    assert_eq!(cold.load_plans(&path).unwrap(), 9);
    let replans = cold.plan_workload(&vgg).unwrap();
    let cold_stats = cold.cache_stats();
    assert_eq!(cold_stats.misses, 0, "cold engine must not search");
    assert_eq!(cold_stats.hits, 13, "every layer served from disk");
    for ((name, plan), (_, replan)) in plans.iter().zip(&replans) {
        assert_eq!(**plan, **replan, "{name} diverged after reload");
        assert_eq!(
            plan.energy.to_bits(),
            replan.energy.to_bits(),
            "{name} energy lost bits"
        );
        assert_eq!(
            plan.total_profile(),
            replan.total_profile(),
            "{name} access counts diverged"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn cold_engine_serves_bit_exactly_from_persisted_plans() {
    // End-to-end: engine A prewarms + persists; a cold engine B reloads
    // and *serves traffic* bit-exactly with zero mapping searches.
    let dir = std::env::temp_dir().join("eyeriss-engine-facade");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("served.plans");

    let hw = AcceleratorConfig {
        grid: GridDims::new(6, 8),
        rf_bytes_per_pe: 512.0,
        buffer_bytes: 32.0 * 1024.0,
    };
    let net = eyeriss::nn::network::NetworkBuilder::new(3, 19)
        .conv("C1", 8, 3, 2)
        .unwrap()
        .pool("P1", 3, 2)
        .unwrap()
        .fully_connected("FC", 10)
        .unwrap()
        .build(7);
    let golden = net.clone();
    let shape = net.stages()[0].shape;

    let warm = Engine::builder().hardware(hw).arrays(2).build().unwrap();
    // Compile every weighted stage at the batch sizes the unbatched
    // serving policy will form (single-request batches).
    warm.compile(&net, 1).unwrap();
    let saved = warm.save_plans(&path).unwrap();
    assert_eq!(saved, 2, "two weighted stages at batch 1");

    let cold = Engine::builder().hardware(hw).arrays(2).build().unwrap();
    assert_eq!(cold.load_plans(&path).unwrap(), 2);
    let server = cold
        .serve_with(
            net,
            ServeOptions {
                workers: 1,
                policy: BatchPolicy::unbatched(),
                queue_capacity: 8,
                slos: Vec::new(),
                sched: None,
            },
        )
        .unwrap();
    for seed in 0..4u64 {
        let input = synth::ifmap(&shape, 1, seed);
        let response = server.submit(input.clone()).unwrap().wait().unwrap();
        assert_eq!(
            response.output,
            golden.forward(1, &input),
            "served output diverged (seed {seed})"
        );
    }
    assert_eq!(server.shutdown().completed, 4);
    assert_eq!(
        cold.cache_stats().misses,
        0,
        "cold serving must run zero mapping searches"
    );
    // The workers share one network plan per batch size, so the loaded
    // layer plans are looked up exactly once each — not once per request.
    assert_eq!(cold.cache_stats().hits, 2, "2 stages, one shared compile");
    std::fs::remove_file(&path).ok();
}
