//! Round-trip property tests for the serializable plan artifacts:
//! `MappingCandidate`, `ClusterPlan` and `CompiledPlan` survive
//! serialize → deserialize with equal access counts and bit-exact
//! re-execution.

use eyeriss::cluster::wire as cluster_wire;
use eyeriss::dataflow::wire as df_wire;
use eyeriss::nn::network::NetworkBuilder;
use eyeriss::prelude::*;
use eyeriss::serve::persist;
use eyeriss::wire::Value;
use eyeriss::Objective;
use proptest::prelude::*;

fn arb_shape() -> impl Strategy<Value = LayerShape> {
    (1usize..10, 1usize..5, 0usize..6, 1usize..4, 1usize..3).prop_map(|(m, c, extra, r, u)| {
        let h = r + extra * u;
        LayerShape::conv(m, c, h, r, u).expect("constructed valid")
    })
}

fn small_hw() -> AcceleratorConfig {
    AcceleratorConfig {
        grid: GridDims::new(6, 8),
        rf_bytes_per_pe: 512.0,
        buffer_bytes: 32.0 * 1024.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every dataflow's optimal candidate round-trips through rendered
    /// text with equal params, equal exact access counts, and bit-equal
    /// scored energy.
    #[test]
    fn mapping_candidates_roundtrip(
        shape in arb_shape(),
        n in 1usize..4,
    ) {
        let reg = DataflowRegistry::builtin();
        let problem = LayerProblem::new(shape, n);
        for df in reg.iter() {
            let hw = df.comparison_hardware(256);
            let Some(best) = optimize(df.as_ref(), &problem, &hw, &TableIv, Objective::Energy) else {
                continue;
            };
            let text = df_wire::encode_candidate(&best).render();
            let back = df_wire::decode_candidate(
                &Value::parse(&text).expect("rendered text parses"),
                &reg,
            )
            .expect("candidate decodes");
            prop_assert_eq!(&back, &best, "{} candidate diverged", df.id());
            prop_assert_eq!(&back.profile, &best.profile, "{} access counts", df.id());
            prop_assert_eq!(
                TableIv.energy_of(&back.profile).to_bits(),
                TableIv.energy_of(&best.profile).to_bits(),
                "{} energy bits", df.id()
            );
        }
    }

    /// A planned layer round-trips and the *decoded* plan re-executes to
    /// exactly the psums of the original plan (and the golden model).
    #[test]
    fn cluster_plans_roundtrip_and_reexecute_bit_exactly(
        shape in arb_shape(),
        n in 2usize..5,
        arrays in 2usize..4,
        seed in 0u64..500,
    ) {
        let reg = DataflowRegistry::builtin();
        let costs = CostModelRegistry::builtin();
        let hw = small_hw();
        let problem = LayerProblem::new(shape, n);
        let Some(plan) = plan_layer(
            registry::builtin(DataflowKind::RowStationary),
            &problem,
            arrays,
            &hw,
            &TableIv,
            &SharedDram::scaled(arrays),
            Objective::EnergyDelayProduct,
        ) else {
            return Ok(());
        };
        let text = cluster_wire::encode_plan(&plan).render();
        let back = cluster_wire::decode_plan(
            &Value::parse(&text).expect("rendered text parses"),
            &reg,
            &costs,
        )
        .expect("plan decodes");
        prop_assert_eq!(back.cost, TableIv.descriptor());
        prop_assert_eq!(&back, &plan);
        prop_assert_eq!(back.total_profile(), plan.total_profile(), "access counts");
        prop_assert_eq!(back.energy.to_bits(), plan.energy.to_bits());
        prop_assert_eq!(back.delay.to_bits(), plan.delay.to_bits());

        let input = synth::ifmap(&shape, n, seed);
        let weights = synth::filters(&shape, seed + 1);
        let bias = synth::biases(&shape, seed + 2);
        let cluster = Cluster::new(arrays, hw);
        let original = cluster.execute(&plan, &problem, &input, &weights, &bias).unwrap();
        let reloaded = cluster.execute(&back, &problem, &input, &weights, &bias).unwrap();
        prop_assert_eq!(&original.psums, &reloaded.psums, "re-execution diverged");
        prop_assert_eq!(
            &reloaded.psums,
            &reference::conv_accumulate(&shape, n, &input, &weights, &bias)
        );
    }

    /// A compiled network plan round-trips; its per-stage cluster plans
    /// re-execute bit-exactly.
    #[test]
    fn compiled_plans_roundtrip(
        m in 2usize..10,
        seed in 0u64..200,
    ) {
        let reg = DataflowRegistry::builtin();
        let costs = CostModelRegistry::builtin();
        let net = NetworkBuilder::new(3, 19)
            .conv("C1", m, 3, 2).unwrap()
            .pool("P1", 3, 2).unwrap()
            .fully_connected("FC", 10).unwrap()
            .build(seed);
        let compiler = PlanCompiler::new(2, small_hw());
        let plan = compiler.compile_network(&net, 2).unwrap();
        let text = persist::encode_compiled(&plan).render();
        let back = persist::decode_compiled(
            &Value::parse(&text).expect("rendered text parses"),
            &reg,
            &costs,
        )
        .expect("compiled plan decodes");
        prop_assert_eq!(&back, &plan);
        prop_assert_eq!(
            back.analytic_energy().to_bits(),
            plan.analytic_energy().to_bits()
        );

        // The first weighted stage's decoded plan re-executes bit-exactly.
        let (orig_stage, back_stage) = (&plan.stages[0], &back.stages[0]);
        let (eyeriss::serve::StagePlan::Layer { shape, plan: p0, .. },
             eyeriss::serve::StagePlan::Layer { plan: p1, .. }) = (orig_stage, back_stage)
        else {
            panic!("first stage is CONV");
        };
        let problem = LayerProblem::new(*shape, 2);
        let input = synth::ifmap(shape, 2, seed);
        let weights = synth::filters(shape, seed + 1);
        let bias = synth::biases(shape, seed + 2);
        let cluster = Cluster::new(2, small_hw());
        let a = cluster.execute(p0, &problem, &input, &weights, &bias).unwrap();
        let b = cluster.execute(p1, &problem, &input, &weights, &bias).unwrap();
        prop_assert_eq!(&a.psums, &b.psums);
        prop_assert_eq!(
            a.stats.macs(), b.stats.macs(),
            "measured work diverged after reload"
        );
    }
}
