//! Acceptance tests for the `eyeriss-serve` runtime: plan-cache reuse on
//! VGG, bit-exactness of batched execution against per-request
//! single-array simulation, and the offered-load latency/throughput
//! sweep.

use eyeriss::analysis::experiments::serving;
use eyeriss::nn::network::NetworkBuilder;
use eyeriss::nn::vgg;
use eyeriss::prelude::*;
use eyeriss::serve::{BatchPolicy, PlanCompiler, RecoveryPolicy, ServeConfig, Server};
use eyeriss::sim::runner::run_network;
use std::time::Duration;

/// (a) Repeated VGG shapes compile once: the plan cache's hit rate is
/// strictly positive and the distinct-shape count matches the network.
#[test]
fn vgg_plan_cache_hit_rate_is_positive() {
    let compiler = PlanCompiler::new(2, AcceleratorConfig::eyeriss_chip());
    let plans = compiler.compile_layers(&vgg::conv_layers(), 1).unwrap();
    assert_eq!(plans.len(), 13);
    let stats = compiler.cache().stats();
    assert!(
        stats.hit_rate() > 0.0,
        "VGG repeats shapes; hit rate was {}",
        stats.hit_rate()
    );
    assert_eq!(
        stats.misses, 9,
        "VGG-16 has nine distinct CONV shapes; each must be searched once"
    );
    assert_eq!(stats.hits, 4, "the four repeated shapes ride the cache");
    // Identical layers received literally the same immutable plan.
    let conv3_2 = &plans[5]; // CONV3_2 and CONV3_3 share a shape
    let conv3_3 = &plans[6];
    assert!(std::sync::Arc::ptr_eq(&conv3_2.1, &conv3_3.1));
}

/// (b) Batched execution through the server is bit-exact against a
/// per-request single-array simulation of the same inputs.
#[test]
fn batched_execution_matches_single_array_simulation() {
    let net = NetworkBuilder::new(3, 19)
        .conv("C1", 8, 3, 2)
        .unwrap()
        .pool("P1", 3, 2)
        .unwrap()
        .conv("C2", 12, 3, 1)
        .unwrap()
        .fully_connected("FC", 10)
        .unwrap()
        .build(7);
    let shape = net.stages()[0].shape;
    let single_array_net = net.clone();

    let cfg = ServeConfig {
        arrays: 2,
        workers: 1,
        policy: BatchPolicy {
            max_batch: 4,
            // Generous wait so all four requests coalesce into one batch.
            max_wait: Duration::from_millis(2000),
        },
        queue_capacity: 16,
        hw: AcceleratorConfig::eyeriss_chip(),
        telemetry: None,
        slos: Vec::new(),
        flight_capacity: 256,
        sched: None,
        faults: None,
        abft: false,
        recovery: RecoveryPolicy::new(),
    };
    let server = Server::start(net, cfg);
    let inputs: Vec<Tensor4<Fix16>> = (0..4).map(|i| synth::ifmap(&shape, 1, 40 + i)).collect();
    let handles: Vec<_> = inputs
        .iter()
        .map(|input| server.submit(input.clone()).unwrap())
        .collect();

    let mut max_batch_seen = 0;
    for (input, handle) in inputs.iter().zip(handles) {
        let response = handle.wait().unwrap();
        // The per-request golden run: one request, one array, no batching.
        let mut chip = Accelerator::new(AcceleratorConfig::eyeriss_chip());
        let golden = run_network(&mut chip, &single_array_net, 1, input).unwrap();
        assert_eq!(
            response.output, golden.output,
            "batched serving diverged from the single-array simulator"
        );
        max_batch_seen = max_batch_seen.max(response.batch_size);
    }
    assert!(
        max_batch_seen >= 2,
        "requests submitted together must actually coalesce (saw max batch {max_batch_seen})"
    );
    assert_eq!(server.shutdown().completed, 4);
}

/// (c) The offered-load sweep reports non-collapsing throughput up to
/// saturation, with p50/p99 latency recorded at every point.
#[test]
fn offered_load_sweep_is_monotone_with_latency_percentiles() {
    let sweep = serving::sweep_synthetic();
    assert!(sweep.capacity_rps > 0.0);
    assert_eq!(sweep.points.len(), 5);
    for point in &sweep.points {
        assert!(point.completed > 0, "every load point must complete");
        assert!(point.achieved_rps > 0.0);
        assert!(point.p50 > Duration::ZERO, "p50 must be recorded");
        assert!(point.p99 >= point.p50, "p99 must dominate p50");
    }
    assert!(
        // Generous tolerance: saturated points should be ~equal, but this
        // is wall-clock on a possibly noisy runner.
        sweep.throughput_is_monotone(0.25),
        "throughput must be non-decreasing up to saturation: {:?}",
        sweep
            .points
            .iter()
            .map(|p| p.achieved_rps)
            .collect::<Vec<_>>()
    );
    // Past saturation the queue grows: the heaviest load's p99 must not
    // be cheaper than the lightest load's p50.
    let first = &sweep.points[0];
    let last = sweep.points.last().unwrap();
    assert!(last.p99 >= first.p50);
    // Render for a human, too.
    let rendered = serving::render_sweep(&sweep);
    assert!(rendered.contains("p99") || rendered.contains("achieved"));
}
