//! Extension: serve inference traffic on a multi-array Eyeriss cluster.
//!
//! Demonstrates the `eyeriss-serve` runtime end to end:
//!
//! 1. **Plan compilation** — AlexNet and VGG-16 CONV layers compiled
//!    through the content-keyed plan cache (VGG's repeated 3×3 shapes
//!    are searched once and then hit the cache).
//! 2. **An open-loop client** — paced request arrivals against a live
//!    server, swept across offered loads, reporting achieved throughput
//!    and p50/p99 latency at each point.
//! 3. **One traced request** — a single inference with its
//!    queue/compile/execute latency breakdown, verified bit-exact
//!    against the pure-software reference — plus the server's live
//!    telemetry (`Server::snapshot()` and the wire-schema export).
//! 4. **Persisted plans** — compile once, serve cold with zero searches.
//! 5. **A non-default cost model** — a registered `lp-28nm` model prices
//!    search/planning, persists by fingerprint, serves cold, and never
//!    cross-hits Table IV-priced cache entries.
//!
//! Run with: `cargo run --release --example serving [--smoke]`
//! (`--smoke` skips the heavier sweeps for CI). `--tenants` instead
//! runs the multi-tenant scheduling demo: admission control under 2×
//! overload versus the same server with no deadlines, and weighted fair
//! sharing between two tenants flooding one worker. `--chaos` runs the seeded
//! fault-injection experiment: transient psum flips retried to
//! bit-exact outputs under ABFT, a persistent array crash quarantined,
//! and degraded-pool throughput measured against the healthy baseline.

use eyeriss::analysis::experiments::chaos;
use eyeriss::analysis::experiments::serving;
use eyeriss::prelude::*;
use eyeriss::serve::SloSpec;
use std::time::Duration;

/// The `--tenants` mode: two weighted tenants under overload. Prints
/// the overload table (deadlines vs none) and the DRR fairness table,
/// asserting the acceptance criteria in release mode (CI uploads the
/// output as an artifact).
fn tenants_demo() -> Result<(), Box<dyn std::error::Error>> {
    let overload = serving::overload_comparison(32);
    println!("{}", serving::render_overload(&overload));
    assert!(
        overload.sched.rejected + overload.sched.expired > 0,
        "2x overload must shed work under admission control"
    );
    assert!(
        overload.admission_bounds_p99(),
        "admission-on p99 {:?} exceeded 2x the {:?} deadline",
        overload.sched.p99,
        overload.deadline
    );
    assert!(
        overload.fifo_p99_grows(1.3),
        "without deadlines p99 should grow unboundedly with the backlog"
    );

    let fairness = serving::fairness_drr(60, 60);
    println!("{}", serving::render_fairness(&fairness));
    assert!(
        fairness.within(0.15),
        "DRR shares {:?} strayed from the {:.0}:1 weight ratio",
        fairness.completed,
        fairness.target_ratio
    );
    Ok(())
}

/// The `--chaos` mode: the seeded fault-injection run. Prints the
/// chaos report table and asserts the fault-tolerance acceptance
/// criteria (CI uploads the output as an artifact).
fn chaos_demo() -> Result<(), Box<dyn std::error::Error>> {
    let report = chaos::run();
    report.verify();
    println!("{}", chaos::render(&report));
    println!(
        "chaos verdict: {} requests bit-exact through {} injections \
         ({} ABFT-detected), 1 array quarantined, degraded pool at {:.0}% capacity",
        report.completed,
        report.faults_injected,
        report.faults_detected,
        report.throughput_ratio() * 100.0,
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if std::env::args().any(|a| a == "--tenants") {
        return tenants_demo();
    }
    if std::env::args().any(|a| a == "--chaos") {
        return chaos_demo();
    }

    // ---- 1. Plan compilation through the content-keyed cache ---------------
    println!("{}", serving::render_compile(&serving::compile_vgg()));
    if !smoke {
        println!("{}", serving::render_compile(&serving::compile_alexnet()));
    }

    // ---- 2. Open-loop offered-load sweep ------------------------------------
    let sweep = if smoke {
        serving::sweep_network(
            &serving::synthetic_net(),
            "synthetic (smoke)",
            &ServeConfig::new(),
            &[0.5, 2.0],
            12,
        )
    } else {
        serving::sweep_synthetic()
    };
    println!("{}", serving::render_sweep(&sweep));
    for point in &sweep.points {
        assert!(point.completed > 0 && point.p99 >= point.p50);
    }
    if !smoke {
        // Wall-clock monotonicity needs a quiet machine; the CI smoke run
        // only checks the structural properties above.
        assert!(
            sweep.throughput_is_monotone(0.25),
            "throughput curve collapsed under load"
        );
    }

    // ---- 3. One traced request, bit-exact -----------------------------------
    let net = serving::synthetic_net();
    let shape = net.stages()[0].shape;
    let golden_net = net.clone();
    let mut cfg = ServeConfig::new();
    cfg.policy = BatchPolicy {
        max_batch: 4,
        max_wait: Duration::from_millis(1),
    };
    // A deliberately unreachable p99 bound so the SLO monitor breaches
    // and the flight recorder dumps — demonstrating the anomaly path.
    cfg.slos = vec![SloSpec::p99_latency("demo-p99", Duration::from_nanos(1)).min_events(1)];
    let server = Server::start(net, cfg);
    let input = synth::ifmap(&shape, 1, 99);
    let handle = server.submit(input.clone())?;
    let trace_id = handle.trace_id();
    let response = handle.wait()?;
    assert_eq!(
        response.output,
        golden_net.forward(1, &input),
        "served output must be bit-exact"
    );
    println!(
        "request {} (batch of {}, trace {:#x}): queue {:.2} ms, compile {:.2} ms, execute {:.2} ms",
        response.id,
        response.batch_size,
        trace_id,
        response.latency.queue.as_secs_f64() * 1e3,
        response.latency.compile.as_secs_f64() * 1e3,
        response.latency.execute.as_secs_f64() * 1e3,
    );
    // Per-request energy/delay attribution: the executed plan's cost
    // report (bit-exact against the plan), this request's even energy
    // share, and the simulated-vs-predicted cycle residual.
    let att = response
        .attribution
        .as_ref()
        .expect("default servers trace every request");
    println!(
        "attribution: batch energy {:.3e} ({:.3e}/request over {}), \
         analytic delay {:.3e} cycles, residual {:+.0} cycles",
        att.report.total_energy,
        att.per_request().total_energy,
        att.batch_size,
        att.analytic_delay,
        att.residual_cycles(),
    );
    // The breached SLO latched exactly one flight dump covering the
    // anomaly window; its wire form (`to_wire`) and a trace-filtered
    // Chrome view (`chrome_trace`) are the post-mortem exports.
    let dumps = server.slo_monitor().dumps();
    assert_eq!(dumps.len(), 1, "one breach, one dump");
    println!(
        "SLO '{}' breached (burn {:.0}x short / {:.0}x long): flight dump holds {} record(s)",
        dumps[0].slo,
        dumps[0].short_burn,
        dumps[0].long_burn,
        dumps[0].records.len(),
    );
    // ---- 3b. Live telemetry, no shutdown required ---------------------------
    // Default servers run a private always-on telemetry instance, so
    // `Server::snapshot()` is live at any point in the server's life;
    // the full exportable snapshot (metrics + spans) comes from
    // `Server::telemetry()`.
    let live = server.snapshot();
    println!(
        "live snapshot: {} completed, queue depth {}, p50 {:.2} ms, p99 {:.2} ms",
        live.completed,
        live.queue_depth,
        live.p50().as_secs_f64() * 1e3,
        live.p99().as_secs_f64() * 1e3,
    );
    println!(
        "telemetry snapshot (wire schema): {}",
        server.telemetry().snapshot().to_wire().render()
    );
    let last = server.shutdown();
    println!(
        "server lifetime: {} requests, plan cache {} searches / {} hits ({:.0}% hit rate)",
        last.completed,
        last.cache.misses,
        last.cache.hits,
        last.cache.hit_rate() * 100.0,
    );

    // ---- 4. Persisted plan cache: compile once, serve cold, search never ----
    // An `Engine` prewarms and persists its plan cache; a *cold* engine
    // (fresh process after a restart) reloads it and serves bit-exactly
    // with zero mapping searches. CI runs this path under `--smoke`.
    let dir = std::env::temp_dir().join("eyeriss-serving-example");
    std::fs::create_dir_all(&dir)?;
    let cache_path = dir.join("serving.plans");

    let net = serving::synthetic_net();
    let golden_net = net.clone();
    let shape = net.stages()[0].shape;
    let warm = Engine::builder()
        .hardware(ServeConfig::new().hw)
        .arrays(2)
        .build()?;
    warm.compile(&net, 1)?;
    let saved = warm.save_plans(&cache_path)?;

    let cold = Engine::builder()
        .hardware(ServeConfig::new().hw)
        .arrays(2)
        .build()?;
    let loaded = cold.load_plans(&cache_path)?;
    assert_eq!(loaded, saved);
    let server = cold.serve_with(
        golden_net.clone(),
        ServeOptions {
            workers: 1,
            policy: BatchPolicy::unbatched(),
            queue_capacity: 8,
            slos: Vec::new(),
            sched: None,
        },
    )?;
    let input = synth::ifmap(&shape, 1, 7);
    let response = server.submit(input.clone())?.wait()?;
    assert_eq!(
        response.output,
        golden_net.forward(1, &input),
        "cold-served output must be bit-exact"
    );
    server.shutdown();
    assert_eq!(
        cold.cache_stats().misses,
        0,
        "a cold engine serving from persisted plans must never search"
    );
    println!(
        "persisted plan cache: {saved} plans saved, {loaded} reloaded cold, \
         1 request served bit-exact with 0 searches"
    );
    std::fs::remove_file(&cache_path).ok();

    // ---- 5. Non-default cost model end to end (CI runs this under --smoke) --
    // A registered custom cost model prices the search, travels in the
    // persisted plans as a fingerprint, and serves cold — while plans
    // with distinct cost fingerprints never cross-hit the cache.
    let lp_path = dir.join("serving-lp28.plans");
    let lp28 = CostModel::new("lp-28nm", EnergyModel::new(120.0, 5.0, 2.0, 1.0, 1.0)?)
        .with_bandwidth(Level::Dram, 2.0)?;
    let net = serving::synthetic_net();
    let golden_net = net.clone();
    let shape = net.stages()[0].shape;
    let warm = Engine::builder()
        .hardware(ServeConfig::new().hw)
        .arrays(2)
        .cost_model(lp28)
        .build()?;
    warm.compile(&net, 1)?;
    let saved = warm.save_plans(&lp_path)?;

    let cold = Engine::builder()
        .hardware(ServeConfig::new().hw)
        .arrays(2)
        .register_cost_model(lp28)
        .cost_model_id(CostModelId::new("lp-28nm"))
        .build()?;
    assert_eq!(cold.load_plans(&lp_path)?, saved);
    let server = cold.serve_with(
        golden_net.clone(),
        ServeOptions {
            workers: 1,
            policy: BatchPolicy::unbatched(),
            queue_capacity: 8,
            slos: Vec::new(),
            sched: None,
        },
    )?;
    let input = synth::ifmap(&shape, 1, 13);
    let response = server.submit(input.clone())?.wait()?;
    assert_eq!(
        response.output,
        golden_net.forward(1, &input),
        "custom-cost-model serving must stay bit-exact"
    );
    server.shutdown();
    assert_eq!(
        cold.cache_stats().misses,
        0,
        "cold serving under the registered cost model must not search"
    );

    // Distinct fingerprints never cross-hit: a Table IV engine loading
    // the lp-28nm plans (with the model registered so they decode) must
    // re-search rather than reuse foreign-priced plans.
    let table = Engine::builder()
        .hardware(ServeConfig::new().hw)
        .arrays(2)
        .register_cost_model(lp28)
        .build()?;
    assert_eq!(table.load_plans(&lp_path)?, saved);
    table.compile(&golden_net, 1)?;
    assert_eq!(
        table.cache_stats().hits,
        0,
        "plans priced under a different cost fingerprint must not cross-hit"
    );
    assert!(table.cache_stats().misses > 0);
    println!(
        "cost-model smoke: {saved} lp-28nm plans persisted + served cold with 0 searches; \
         Table IV engine re-searched {} stages instead of cross-hitting",
        table.cache_stats().misses
    );
    std::fs::remove_file(&lp_path).ok();
    Ok(())
}
