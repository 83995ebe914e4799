//! Acceptance tests for request-scoped tracing: a served request must
//! yield a causally-linked span tree (queue → batch → per-array →
//! simulator), exportable as a Chrome trace with flow events, plus a
//! per-request attribution record whose energies are bit-exact against
//! the executed plan's cost report.

use eyeriss::arch::{DataType, Level};
use eyeriss::prelude::*;
use eyeriss::serve::{BatchPolicy, PlanCompiler, RecoveryPolicy, ServeConfig, Server};
use eyeriss::telemetry::REQUEST_ROW_TID;
use std::collections::HashSet;
use std::time::Duration;

fn traced_config(tele: &Telemetry) -> ServeConfig {
    ServeConfig {
        arrays: 2,
        workers: 1,
        policy: BatchPolicy {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
        },
        queue_capacity: 16,
        hw: AcceleratorConfig::eyeriss_chip(),
        telemetry: Some(tele.clone()),
        slos: Vec::new(),
        flight_capacity: 16,
        sched: None,
        faults: None,
        abft: false,
        recovery: RecoveryPolicy::new(),
    }
}

/// One request through a telemetry-enabled server produces the full
/// causal tree: a `serve.queue` retro-span on the synthetic requests
/// row flowing into the `serve.batch` span, `cluster.execute` under the
/// batch, `cluster.array` under the execute (across the thread-pool
/// hop), and the simulator's `sim.layer` spans under their arrays — all
/// stamped with the trace id minted at submission.
#[test]
fn served_request_yields_a_causally_linked_span_tree() {
    let tele = Telemetry::new_enabled();
    let net = eyeriss::analysis::experiments::serving::synthetic_net();
    let shape = net.stages()[0].shape;
    let cfg = traced_config(&tele);
    let compiler = PlanCompiler::new(cfg.arrays, cfg.hw);
    let server = Server::start_with_compiler(net, cfg, compiler);
    server.prewarm().expect("synthetic network plans");

    let handle = server.submit(synth::ifmap(&shape, 1, 5)).unwrap();
    let trace = handle.trace_id();
    assert_ne!(trace, 0, "enabled telemetry mints a trace at submission");
    let response = handle.wait().unwrap();

    let snap = tele.snapshot();
    let spans: Vec<_> = snap.spans.iter().filter(|s| s.trace == trace).collect();

    let batch = spans
        .iter()
        .find(|s| s.name == "serve.batch")
        .expect("batch span carries the request's trace");
    assert_eq!(batch.parent, 0, "the batch is the trace root");

    // The request's time-in-queue is a retro-span on the synthetic
    // "requests" row, flowing into the batch that dispatched it.
    let queue = spans
        .iter()
        .find(|s| s.name == "serve.queue")
        .expect("queue span");
    assert_eq!(queue.tid, REQUEST_ROW_TID);
    assert_eq!(queue.arg, response.id);
    assert_eq!(queue.link, batch.id, "queue flows into its batch");

    let execs: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "cluster.execute")
        .collect();
    assert!(!execs.is_empty(), "weighted stages execute on the cluster");
    assert!(
        execs.iter().all(|s| s.parent == batch.id),
        "cluster.execute parents under serve.batch"
    );

    let exec_ids: HashSet<u64> = execs.iter().map(|s| s.id).collect();
    let arrays: Vec<_> = spans.iter().filter(|s| s.name == "cluster.array").collect();
    assert!(!arrays.is_empty());
    assert!(
        arrays.iter().all(|s| exec_ids.contains(&s.parent)),
        "cluster.array parents under cluster.execute across the pool-thread hop"
    );

    let array_ids: HashSet<u64> = arrays.iter().map(|s| s.id).collect();
    let layers: Vec<_> = spans.iter().filter(|s| s.name == "sim.layer").collect();
    assert!(!layers.is_empty());
    assert!(
        layers.iter().all(|s| array_ids.contains(&s.parent)),
        "sim.layer parents under its array"
    );

    // The pool stage runs on the worker itself, directly under the batch.
    let pools: Vec<_> = spans.iter().filter(|s| s.name == "sim.pool").collect();
    assert!(!pools.is_empty(), "the synthetic net has a pool stage");
    assert!(pools.iter().all(|s| s.parent == batch.id));

    // Every span id is unique and non-zero: parent links can never
    // alias a reused slot.
    let mut ids = HashSet::new();
    for s in &snap.spans {
        assert_ne!(s.id, 0);
        assert!(ids.insert(s.id), "span ids are never reused");
    }

    // The Chrome export carries the tree: metadata rows, the trace id
    // on every X event, and s/f flow arrows (queue → batch at minimum).
    let chrome = snap.chrome_trace();
    assert!(chrome.contains("\"ph\":\"M\""));
    assert!(chrome.contains("\"name\":\"requests\""));
    assert!(chrome.contains("\"ph\":\"s\""));
    assert!(chrome.contains("\"ph\":\"f\""));
    assert!(chrome.contains(&format!("\"trace\":{trace}")));

    server.shutdown();
}

/// The per-request attribution record prices the request off the
/// executed plan **bit-exactly**: every per-level and per-datatype
/// energy equals the plan's own cost report, the analytic delay equals
/// the plan's, and the measured-vs-predicted residual lands in the
/// server's `serve.delay_residual` histogram.
#[test]
fn attribution_matches_the_plan_cost_report_bit_exactly() {
    let tele = Telemetry::new_enabled();
    let net = eyeriss::analysis::experiments::serving::synthetic_net();
    let shape = net.stages()[0].shape;
    let cfg = traced_config(&tele);
    let compiler = PlanCompiler::new(cfg.arrays, cfg.hw);
    let server = Server::start_with_compiler(net.clone(), cfg, compiler.clone());
    server.prewarm().expect("synthetic network plans");

    let handle = server.submit(synth::ifmap(&shape, 1, 9)).unwrap();
    let trace = handle.trace_id();
    let response = handle.wait().unwrap();
    let att = response
        .attribution
        .expect("telemetry-enabled servers attribute every request");

    assert_eq!(att.id, response.id);
    assert_eq!(att.trace, trace);
    assert_eq!(att.batch_size, response.batch_size);
    assert_eq!(att.latency, response.latency);
    assert!(att.completed_ns > att.submitted_ns);

    // Recompile through the shared cache: the server executed exactly
    // this plan, and its report must match bit for bit.
    let plan = compiler
        .compile_network(&net, att.batch_size)
        .expect("plan for the executed batch size");
    let want = plan.cost_report(compiler.cost_model());
    for level in Level::ALL {
        assert_eq!(
            att.report.energy_at(level).to_bits(),
            want.energy_at(level).to_bits(),
            "energy at {level:?} must be bit-exact"
        );
    }
    for ty in DataType::ALL {
        assert_eq!(
            att.report.energy_of(ty).to_bits(),
            want.energy_of(ty).to_bits(),
            "energy of {ty:?} must be bit-exact"
        );
    }
    assert_eq!(att.report.alu_energy.to_bits(), want.alu_energy.to_bits());
    assert_eq!(
        att.report.total_energy.to_bits(),
        want.total_energy.to_bits()
    );
    assert_eq!(
        att.analytic_delay.to_bits(),
        plan.analytic_delay().to_bits()
    );

    // The residual is real: the simulator measured cycles, and the
    // server histogrammed the |error| as serve.delay_residual.
    assert!(att.measured_cycles > 0);
    let live = server.snapshot();
    assert!(
        live.delay_residual.count() >= 1,
        "residual histogram populated"
    );

    server.shutdown();
}
