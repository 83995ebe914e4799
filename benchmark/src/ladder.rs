//! The per-layer ledger: every layer of the product timed from outside,
//! through its public functions, plus the exact counts of the model.
//!
//! Each traced run fills the whole ledger, whatever its workload, so a
//! later change can name a layer metric and find it in any traced run.
//! Host times are medians over a few repeats of fixed work; the work is
//! fixed in the code, so two commits measure the same thing.

use crate::inputs::{conv_rota, request_pool, serve_net, ConvCase};
use crate::stats::{median, percentile, sort};
use crate::trace::Tracer;
use crate::workload::Config;
use crate::workloads::figs::{run_figure, FIGURES};
use crate::workloads::serve::{open_loop, serve_config, ClosedLoop, OpenRun, Rig, OPEN_DEADLINE};
use crate::workloads::sim::{sparse_chip, SPARSE_CHIPS, SPARSITY};
use eyeriss::analysis::run_conv_layers;
use eyeriss::arch::cost::CostModelRegistry;
use eyeriss::arch::{AcceleratorConfig, CostModel, TableIv};
use eyeriss::cluster::{plan_layer, Cluster, SharedDram};
use eyeriss::dataflow::flex::FlexRsModel;
use eyeriss::dataflow::search::{self, MappingMemo, Objective};
use eyeriss::dataflow::{registry, Dataflow, DataflowKind, DataflowRegistry};
use eyeriss::nn::{alexnet, mobilenet, reference, synth, Fix16, LayerProblem};
use eyeriss::serve::{PlanCache, PlanCompiler};
use eyeriss::sim::passes::RsMapping;
use eyeriss::sim::pe::Pe;
use eyeriss::sim::{csc, runner, Accelerator, SimStats};
use eyeriss::telemetry::Telemetry;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One ledger entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metric suffix of each searched dataflow, in registry order.
const DATAFLOWS: [&str; 7] = ["rs", "ws", "osa", "osb", "osc", "nlr", "flex-rs"];
/// The open-loop rates of the latency-at-rate table, requests/second.
const OPEN_RATES: [u32; 3] = [500, 1500, 3000];
/// The overload step: well past capacity, with deadlines that bind.
const OVERLOAD_RATE: f64 = 8000.0;
const OVERLOAD_DEADLINE: Duration = Duration::from_millis(5);

/// The filled ledger, with the serving requests it sent outside the
/// overload step (where refusals are the point) and how many failed.
#[derive(Debug)]
pub struct Ledger {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

struct Ladder<'a> {
    cfg: &'a Config,
    tracer: &'a Tracer,
    out: Vec<Metric>,
    next_op: u64,
    attempted: u64,
    failed: u64,
}

impl Ladder<'_> {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.out.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Repeats scaled down for smoke runs, never below one.
    fn reps(&self, full: usize) -> usize {
        if self.cfg.quick {
            1
        } else {
            full
        }
    }

    /// Times one call into `layer`, under a span; nanoseconds.
    fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (f64, T) {
        let span = self.tracer.op(self.next_op, layer, name);
        self.next_op += 1;
        let t0 = Instant::now();
        let v = f();
        let ns = t0.elapsed().as_nanos() as f64;
        drop(span);
        (ns, v)
    }

    /// Median nanoseconds of `reps` calls.
    fn median_ns<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        reps: usize,
        mut f: impl FnMut() -> T,
    ) -> f64 {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let (ns, v) = self.time(layer, name, &mut f);
                black_box(v);
                ns
            })
            .collect();
        median(&samples)
    }
}

fn chip() -> AcceleratorConfig {
    AcceleratorConfig::eyeriss_chip()
}

fn alexnet_conv_problems() -> Vec<LayerProblem> {
    alexnet::conv_layers()
        .iter()
        .map(|l| LayerProblem::new(l.shape, 16))
        .collect()
}

fn pct(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, q)
}

/// Fills the whole ledger.
pub fn run(cfg: &Config, tracer: &Tracer) -> Ledger {
    let mut l = Ladder {
        cfg,
        tracer,
        out: Vec::new(),
        next_op: 1 << 32,
        attempted: 0,
        failed: 0,
    };
    let dense = conv_rota(cfg.seed, 0.0);
    let net = serve_net(cfg.seed);
    nn_and_arch(&mut l, &dense, &net);
    let rs_optimize_ns = dataflow(&mut l);
    cluster(&mut l, rs_optimize_ns, &net);
    sim(&mut l, &dense, &net);
    serve(&mut l);
    wire(&mut l);
    telemetry_and_par(&mut l);
    analysis(&mut l);
    Ledger {
        metrics: l.out,
        attempted: l.attempted,
        failed: l.failed,
    }
}

/// `nn.*`, `arch.*`.
fn nn_and_arch(l: &mut Ladder, dense: &[ConvCase], net: &eyeriss::nn::network::Network) {
    let macs: u64 = dense.iter().map(ConvCase::macs).sum();
    let reps = l.reps(5);
    let ns = l.median_ns("nn", "conv_accumulate", reps, || {
        for c in dense {
            black_box(reference::conv_accumulate(
                &c.shape, c.batch, &c.input, &c.weights, &c.bias,
            ));
        }
    });
    l.put("nn.reference_conv_ns_per_mac", ns / macs as f64, "ns/MAC");

    let input = &request_pool(net, l.cfg.seed, 1)[0].0;
    let reps = l.reps(20);
    let forward_ns = l.median_ns("nn", "forward", reps, || net.forward(1, input));
    l.put("nn.forward_us", forward_ns / 1e3, "us");

    let rs = registry::builtin(DataflowKind::RowStationary);
    let best = search::optimize(
        rs,
        &alexnet_conv_problems()[2],
        &chip(),
        &TableIv,
        Objective::Energy,
    )
    .expect("RS maps CONV3 on the chip");
    let calls = if l.cfg.quick { 10 } else { 2000 };
    let reps = l.reps(5);
    let ns = l.median_ns("arch", "report", reps, || {
        for _ in 0..calls {
            black_box(TableIv.report(black_box(&best.profile), best.active_pes));
        }
    });
    l.put("arch.cost_report_ns", ns / calls as f64, "ns");
}

/// `dataflow.*`: enumerate and optimize per mapping space, on AlexNet
/// CONV1-5 at batch 16. The six paper dataflows search the fixed-area
/// 256-PE comparison hardware under the Energy objective (what the
/// figures do); flex-rs searches the physical chip it was designed for.
/// Returns RS's optimize time on the physical chip under EDP, the base
/// of `cluster.plan_overhead_ratio.a4`.
fn dataflow(l: &mut Ladder) -> f64 {
    let mut reg = DataflowRegistry::builtin();
    reg.register(std::sync::Arc::new(FlexRsModel))
        .expect("flex-rs is not builtin");
    let problems = alexnet_conv_problems();
    let reps = l.reps(3);
    for (df, label) in reg.iter().zip(DATAFLOWS) {
        assert_eq!(df.id().label().to_lowercase(), label, "registry order");
        let df: &dyn Dataflow = df.as_ref();
        let hw = if label == "flex-rs" {
            chip()
        } else {
            df.comparison_hardware(256)
        };
        let mut candidates = 0;
        let enumerate_ns = l.median_ns("dataflow", "enumerate", reps, || {
            candidates = problems.iter().map(|p| df.enumerate(p, &hw).len()).sum();
        });
        let optimize_ns = l.median_ns("dataflow", "optimize", reps, || {
            for p in &problems {
                black_box(search::optimize(df, p, &hw, &TableIv, Objective::Energy));
            }
        });
        l.put(
            format!("dataflow.enumerate_us.{label}"),
            enumerate_ns / 1e3,
            "us",
        );
        l.put(
            format!("dataflow.candidates.{label}"),
            candidates as f64,
            "count",
        );
        l.put(
            format!("dataflow.optimize_us.{label}"),
            optimize_ns / 1e3,
            "us",
        );
    }

    let rs = registry::builtin(DataflowKind::RowStationary);
    let hw = chip();
    let mut memo = MappingMemo::new(&hw, &TableIv, Objective::EnergyDelayProduct);
    memo.best(rs, &problems[2]);
    let calls = if l.cfg.quick { 10 } else { 2000 };
    let reps = l.reps(5);
    let ns = l.median_ns("dataflow", "memo_best", reps, || {
        for _ in 0..calls {
            black_box(memo.best(rs, black_box(&problems[2])));
        }
    });
    l.put("dataflow.memo_hit_ns", ns / calls as f64, "ns");

    let reps = l.reps(3);
    l.median_ns("dataflow", "optimize", reps, || {
        for p in &problems {
            black_box(search::optimize(
                rs,
                p,
                &hw,
                &TableIv,
                Objective::EnergyDelayProduct,
            ));
        }
    })
}

/// `cluster.*`: the planner over the mapping search, and the executor
/// over the simulator.
fn cluster(l: &mut Ladder, rs_optimize_ns: f64, net: &eyeriss::nn::network::Network) {
    let rs = registry::builtin(DataflowKind::RowStationary);
    let problems = alexnet_conv_problems();
    let reps = l.reps(3);
    for arrays in [1usize, 2, 4] {
        let shared = SharedDram::scaled(arrays);
        let ns = l.median_ns("cluster", "plan_layer", reps, || {
            for p in &problems {
                black_box(plan_layer(
                    rs,
                    p,
                    arrays,
                    &chip(),
                    &TableIv,
                    &shared,
                    Objective::EnergyDelayProduct,
                ));
            }
        });
        l.put(format!("cluster.plan_layer_us.a{arrays}"), ns / 1e3, "us");
        if arrays == 4 {
            l.put(
                "cluster.plan_overhead_ratio.a4",
                ns / rs_optimize_ns,
                "ratio",
            );
        }
    }

    // The serve net's first stage at the largest batch the server forms.
    let stage = &net.stages()[0];
    let (weights, bias) = (
        stage.weights.as_ref().expect("C1 is weighted"),
        stage.bias.as_ref().expect("C1 is weighted"),
    );
    let problem = LayerProblem::new(stage.shape, 4);
    let input = synth::ifmap(&stage.shape, 4, l.cfg.seed);
    let reps = l.reps(30);
    for arrays in [1usize, 2] {
        let plan = plan_layer(
            rs,
            &problem,
            arrays,
            &chip(),
            &TableIv,
            &SharedDram::scaled(arrays),
            Objective::EnergyDelayProduct,
        )
        .expect("C1 plans on one and two arrays");
        let cluster = Cluster::new(arrays, chip());
        let run = |c: &Cluster| c.execute(&plan, &problem, &input, weights, bias);
        run(&cluster).expect("C1 executes");
        let ns = l.median_ns("cluster", "execute", reps, || run(&cluster));
        l.put(format!("cluster.execute_us.a{arrays}"), ns / 1e3, "us");
        if arrays == 1 {
            // The same problem under the same mapping, with no cluster
            // around it: what one array's dispatch and reassembly cost.
            let tile = &plan.per_array[0].tiles[0];
            let mapping =
                RsMapping::from_params(&tile.mapping.params).expect("an RS plan carries RS params");
            let mut acc = Accelerator::new(chip());
            let mut direct =
                || acc.run_conv_planned(mapping, &stage.shape, 4, &input, weights, bias);
            direct().expect("the planned mapping runs");
            let direct_ns = l.median_ns("sim", "run_conv_planned", reps, &mut direct);
            l.put("cluster.overhead_us.a1", (ns - direct_ns) / 1e3, "us");
        }
    }
}

/// `sim.*`.
fn sim(l: &mut Ladder, dense: &[ConvCase], net: &eyeriss::nn::network::Network) {
    let run = |chip: &mut Accelerator, c: &ConvCase| {
        chip.run_conv(&c.shape, c.batch, &c.input, &c.weights, &c.bias)
            .expect("rota cases run")
    };
    let reps = l.reps(10);
    let mut acc = Accelerator::new(chip());
    let mut stats = SimStats::default();
    let mut total_ns = 0.0;
    for c in dense {
        stats.merge(&run(&mut acc, c).stats); // and warms the chip
        let ns = l.median_ns("sim", "run_conv", reps, || run(&mut acc, c));
        total_ns += ns;
        l.put(
            format!("sim.ns_per_mac.{}", c.name),
            ns / c.macs() as f64,
            "ns/MAC",
        );
    }
    let dense_macs: u64 = dense.iter().map(ConvCase::macs).sum();
    let run_conv_ns_per_mac = total_ns / dense_macs as f64;
    l.put("sim.host_mmacs_per_s", 1e3 / run_conv_ns_per_mac, "MMAC/s");
    l.put(
        "sim.pe_utilization",
        stats.utilization(chip().num_pes()),
        "share",
    );
    l.put("sim.stall_share", stats.stall_fraction(), "share");

    let sparse = conv_rota(l.cfg.seed, SPARSITY);
    for kind in SPARSE_CHIPS {
        let mut acc = sparse_chip(kind);
        let mut stats = SimStats::default();
        for c in &sparse {
            stats.merge(&run(&mut acc, c).stats);
        }
        let ns = l.median_ns("sim", "run_conv", reps, || {
            for c in &sparse {
                black_box(run(&mut acc, c));
            }
        });
        l.put(
            format!("sim.ns_per_mac.{kind}"),
            ns / dense_macs as f64,
            "ns/MAC",
        );
        match kind {
            "gated" => l.put("sim.skipped_mac_share", stats.gating_fraction(), "share"),
            "rlc" => l.put(
                "sim.dram_compression_ratio",
                stats.compression_ratio(),
                "ratio",
            ),
            _ => {}
        }
    }

    let tiny = mobilenet::mobilenet_tiny(l.cfg.seed);
    let tiny_in = synth::ifmap(&tiny.stages()[0].shape, 1, l.cfg.seed);
    let mut acc = Accelerator::new(chip());
    runner::run_network(&mut acc, &tiny, 1, &tiny_in).expect("MobileNet-tiny runs");
    let ns = l.median_ns("sim", "run_network", reps, || {
        runner::run_network(&mut acc, &tiny, 1, &tiny_in)
    });
    l.put(
        "sim.ns_per_mac.depthwise",
        ns / tiny.total_ops(1) as f64,
        "ns/MAC",
    );

    let pe_dense = pe_kernels(l);
    l.put(
        "sim.orchestration_share",
        1.0 - pe_dense / run_conv_ns_per_mac,
        "share",
    );

    let case = &dense[5];
    let reps = l.reps(5);
    let ns = l.median_ns("sim", "run_conv", reps, || {
        run(&mut Accelerator::new(chip()), case)
    });
    l.put("sim.first_run_us", ns / 1e3, "us");

    let input = &request_pool(net, l.cfg.seed, 1)[0].0;
    let mut acc = Accelerator::new(chip());
    runner::run_network(&mut acc, net, 1, input).expect("the serve net runs");
    let reps = l.reps(20);
    let ns = l.median_ns("sim", "run_network", reps, || {
        runner::run_network(&mut acc, net, 1, input)
    });
    l.put("sim.run_network_us", ns / 1e3, "us");
}

/// `sim.pe_ns_per_mac.*`: the 1-D primitive alone, a 3-tap filter row
/// slid over a 33-pixel ifmap row. Returns the dense figure.
fn pe_kernels(l: &mut Ladder) -> f64 {
    const TAPS: usize = 3;
    const OUT: usize = 31;
    let shape = eyeriss::nn::LayerShape::conv(1, 1, OUT + TAPS - 1, TAPS, 1).expect("valid row");
    let row_of = |t: &eyeriss::nn::Tensor4<Fix16>| t.row(0, 0, 0).to_vec();
    let dense_row = row_of(&synth::ifmap(&shape, 1, l.cfg.seed));
    let sparse_row = row_of(&synth::sparse_ifmap(&shape, 1, l.cfg.seed, SPARSITY));
    let filter = synth::filters(&shape, l.cfg.seed).row(0, 0, 0).to_vec();
    let calls = if l.cfg.quick { 10 } else { 20_000 };
    let macs = (calls * OUT * TAPS) as f64;
    let reps = l.reps(5);
    let mut psums = vec![0i32; OUT];

    let mut pe = Pe::new(224, 24);
    pe.load_filter_row(&filter).expect("three words fit");
    let dense_ns = l.median_ns("sim", "run_primitive", reps, || {
        for _ in 0..calls {
            pe.run_primitive(0, black_box(&dense_row), 1, true, &mut psums);
        }
        black_box(&psums);
    });
    l.put("sim.pe_ns_per_mac.dense", dense_ns / macs, "ns/MAC");

    pe.set_zero_gating(true);
    let ns = l.median_ns("sim", "run_primitive", reps, || {
        for _ in 0..calls {
            pe.run_primitive(0, black_box(&sparse_row), 1, true, &mut psums);
        }
        black_box(&psums);
    });
    l.put("sim.pe_ns_per_mac.gated", ns / macs, "ns/MAC");

    let (mut values, mut indices) = (Vec::new(), Vec::new());
    csc::encode_row_into(&sparse_row, &mut values, &mut indices);
    let ns = l.median_ns("sim", "run_primitive_csc", reps, || {
        for _ in 0..calls {
            pe.run_primitive_csc(
                0,
                black_box(&values),
                &indices,
                sparse_row.len(),
                1,
                true,
                &mut psums,
            );
        }
        black_box(&psums);
    });
    l.put("sim.pe_ns_per_mac.csc", ns / macs, "ns/MAC");
    dense_ns / macs
}

/// What one short closed-loop burst showed.
struct ClosedBurst {
    ops_per_s: f64,
    queue_us: Vec<f64>,
    compile_us: Vec<f64>,
    execute_us: Vec<f64>,
    respond_us: Vec<f64>,
    submit_us: Vec<f64>,
    total_us: Vec<f64>,
    batch_mean: f64,
    /// Share of the burst's wall time the worker spent outside execute.
    outside_execute: f64,
    failed: u64,
}

fn closed_burst(l: &mut Ladder, rig: &Rig, ops: usize) -> ClosedBurst {
    let mut generator = ClosedLoop::default();
    let warm = if l.cfg.quick { 8 } else { 200 };
    generator.run(rig, warm, &Tracer::new(false), |_| {});
    let mut b = ClosedBurst {
        ops_per_s: 0.0,
        queue_us: Vec::new(),
        compile_us: Vec::new(),
        execute_us: Vec::new(),
        respond_us: Vec::new(),
        submit_us: Vec::new(),
        total_us: Vec::new(),
        batch_mean: 0.0,
        outside_execute: 0.0,
        failed: 0,
    };
    let (mut batch_sum, mut worker_execute_us) = (0.0, 0.0);
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let t0 = Instant::now();
    generator.run(rig, ops, l.tracer, |done| {
        b.total_us.push(done.us);
        b.submit_us.push(done.submit_us);
        let Some(r) = done.response else {
            b.failed += 1;
            return;
        };
        b.queue_us.push(us(r.latency.queue));
        b.compile_us.push(us(r.latency.compile));
        b.execute_us.push(us(r.latency.execute));
        b.respond_us.push(done.us - us(r.latency.total()));
        batch_sum += r.batch_size as f64;
        // A batch's execute time is on each of its requests.
        worker_execute_us += us(r.latency.execute) / r.batch_size as f64;
    });
    let wall_us = us(t0.elapsed());
    generator.drain();
    l.attempted += ops as u64;
    l.failed += b.failed;
    b.ops_per_s = ops as f64 * 1e6 / wall_us;
    b.batch_mean = batch_sum / b.queue_us.len().max(1) as f64;
    b.outside_execute = 1.0 - worker_execute_us / wall_us;
    b
}

/// `serve.*`: the stage breakdown of a request, the cost of set-up, the
/// latency-at-rate table, the overload step and the cost of asking.
fn serve(l: &mut Ladder) {
    let seed = l.cfg.seed;
    let closed_ops = if l.cfg.quick { 32 } else { 4000 };
    let ratio_ops = if l.cfg.quick { 32 } else { 2400 };

    let rig = Rig::start(seed, serve_config(false));
    l.put("serve.start_ms", rig.start_ms, "ms");
    l.put("serve.prewarm_ms", rig.prewarm_ms, "ms");
    let b = closed_burst(l, &rig, closed_ops);
    let (shutdown_ns, _) = l.time("serve", "shutdown", || rig.server.shutdown());
    l.put("serve.shutdown_ms", shutdown_ns / 1e6, "ms");
    l.put("serve.queue_us_p50", pct(&b.queue_us, 0.50), "us");
    l.put("serve.compile_us_p50", pct(&b.compile_us, 0.50), "us");
    l.put("serve.execute_us_p50", pct(&b.execute_us, 0.50), "us");
    l.put("serve.respond_us_p50", pct(&b.respond_us, 0.50), "us");
    l.put("serve.submit_us_p50", pct(&b.submit_us, 0.50), "us");
    l.put("serve.batch_mean.closed", b.batch_mean, "req");
    l.put("serve.req_p99_us.closed", pct(&b.total_us, 0.99), "us");
    l.put("serve.overhead_share", b.outside_execute, "share");

    // The cost of asking: the same closed loop with live telemetry, and
    // with ABFT checksums, over the same loop with both off.
    let off = closed_burst_on(l, seed, ratio_ops, |_| {});
    let tele = closed_burst_on(l, seed, ratio_ops, |cfg| cfg.telemetry = None);
    let abft = closed_burst_on(l, seed, ratio_ops, |cfg| cfg.abft = true);
    l.put("serve.telemetry_on_ratio", tele / off, "ratio");
    l.put("serve.abft_on_ratio", abft / off, "ratio");

    let compiler = PlanCompiler::new(1, chip());
    let shape = alexnet::conv_layers()[2].shape;
    compiler.compile_layer(&shape, 16).expect("CONV3 plans");
    let calls = if l.cfg.quick { 10 } else { 2000 };
    let reps = l.reps(5);
    let ns = l.median_ns("serve", "compile_layer", reps, || {
        for _ in 0..calls {
            black_box(compiler.compile_layer(black_box(&shape), 16).is_ok());
        }
    });
    l.put("serve.plan_hit_ns", ns / calls as f64, "ns");

    // Latency at three fixed rates through the sched front, then a step
    // well past capacity with deadlines that bind.
    let rig = Rig::start(seed, serve_config(true));
    let burst_s = if l.cfg.quick { 0.02 } else { 0.7 };
    let mut first_op = l.next_op;
    let mut burst = |l: &mut Ladder, rate: f64, deadline: Duration| -> OpenRun {
        let ops = ((rate * burst_s) as usize).max(8);
        let run = open_loop(&rig, rate, ops, deadline, first_op, l.tracer);
        first_op += ops as u64;
        run
    };
    burst(l, 1500.0, OPEN_DEADLINE); // warm-up
    for rate in OPEN_RATES {
        let run = burst(l, f64::from(rate), OPEN_DEADLINE);
        let lat: Vec<f64> = run.answered.iter().map(|&(us, _)| us).collect();
        // Below capacity nothing should be refused or shed; if the box
        // stalls and something is, the document's `failed` says so.
        l.attempted += (lat.len() + run.refused_us.len()) as u64;
        l.failed +=
            (run.answered.iter().filter(|&&(_, ok)| !ok).count() + run.refused_us.len()) as u64;
        l.put(format!("serve.open.p50_us.r{rate}"), pct(&lat, 0.50), "us");
        l.put(format!("serve.open.p95_us.r{rate}"), pct(&lat, 0.95), "us");
        if rate == 1500 {
            l.put("serve.open.gen_late_p99_us", pct(&run.late_us, 0.99), "us");
            l.put("serve.sched.submit_us_p50", pct(&run.submit_us, 0.50), "us");
            l.put(
                "serve.batch_mean.open",
                run.batch_sum as f64 / lat.len() as f64,
                "req",
            );
            l.put("serve.req_p99_us.open", pct(&lat, 0.99), "us");
        }
    }
    let run = burst(l, OVERLOAD_RATE, OVERLOAD_DEADLINE);
    let sent = (run.answered.len() + run.refused_us.len()) as f64;
    let good: u64 = run.good_by_tenant.iter().sum();
    l.put(
        "serve.sched.overload_goodput_rps",
        good as f64 / run.wall_s,
        "1/s",
    );
    l.put(
        "serve.sched.overload_shed_share",
        1.0 - good as f64 / sent,
        "share",
    );
    l.put(
        "serve.sched.hog_share",
        run.good_by_tenant[0] as f64 / good.max(1) as f64,
        "share",
    );
    l.next_op = first_op;
    rig.server.shutdown();
}

/// Closed-loop ops/s on a fresh server configured by `tweak`.
fn closed_burst_on(
    l: &mut Ladder,
    seed: u64,
    ops: usize,
    tweak: impl FnOnce(&mut eyeriss::serve::ServeConfig),
) -> f64 {
    let mut cfg = serve_config(false);
    tweak(&mut cfg);
    let rig = Rig::start(seed, cfg);
    let b = closed_burst(l, &rig, ops);
    rig.server.shutdown();
    b.ops_per_s
}

/// `wire.*`: persisting AlexNet's batch-16 plans against searching them.
fn wire(l: &mut Ladder) {
    let layers = if l.cfg.quick {
        alexnet::conv_layers()
    } else {
        alexnet::all_layers()
    };
    let compiler = PlanCompiler::new(1, chip());
    let (search_ns, _) = l.time("serve", "compile_layers", || {
        compiler.compile_layers(&layers, 16).expect("AlexNet plans")
    });
    // Scratch file beside the executable: inside the build directory,
    // so inside the checkout.
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_else(|| ".".into());
    let path = dir.join(format!("benchmark-plans-{}.wire", std::process::id()));
    let reps = l.reps(5);
    let save_ns = l.median_ns("wire", "save_plans", reps, || {
        compiler.cache().save(&path).expect("the plan file writes")
    });
    let (reg, costs) = (DataflowRegistry::builtin(), CostModelRegistry::builtin());
    let load_ns = l.median_ns("wire", "load_plans", reps, || {
        PlanCache::load(&path, &reg, &costs)
            .expect("the plan file reads back")
            .len()
    });
    let _ = std::fs::remove_file(&path);
    l.put("wire.save_plans_ms", save_ns / 1e6, "ms");
    l.put("wire.load_plans_ms", load_ns / 1e6, "ms");
    l.put("wire.load_vs_search_ratio", load_ns / search_ns, "ratio");
}

/// `telemetry.*` on an enabled instance, and `par.spawn_join_us`.
fn telemetry_and_par(l: &mut Ladder) {
    let tele = Telemetry::new_enabled();
    let calls = if l.cfg.quick { 10 } else { 20_000 };
    let reps = l.reps(5);
    let ns = l.median_ns("telemetry", "span", reps, || {
        for _ in 0..calls {
            drop(black_box(tele.span("bench.probe", "bench")));
        }
    });
    l.put("telemetry.span_ns", ns / calls as f64, "ns");
    let hist = tele.histogram("bench.probe_ns");
    let ns = l.median_ns("telemetry", "record", reps, || {
        for i in 0..calls as u64 {
            hist.record(black_box(i * 37));
        }
    });
    l.put("telemetry.hist_record_ns", ns / calls as f64, "ns");
    let reps = l.reps(10);
    let ns = l.median_ns("telemetry", "snapshot", reps, || tele.snapshot());
    l.put("telemetry.snapshot_us", ns / 1e3, "us");

    let threads = eyeriss_par::num_threads();
    let reps = l.reps(200);
    let ns = l.median_ns("par", "par_map", reps, || {
        eyeriss_par::par_map(vec![(); threads], |()| ())
    });
    l.put("par.spawn_join_us", ns / 1e3, "us");
}

/// `analysis.*`: each figure's time, and the paper's headline ratio.
fn analysis(l: &mut Ladder) {
    let reps = l.reps(3);
    for fig in FIGURES {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let span = l.tracer.op(l.next_op, "bench", "figure");
                l.next_op += 1;
                run_figure(fig, &span).0
            })
            .collect();
        l.put(
            format!("analysis.fig_ms.{fig}"),
            median(&samples) / 1e3,
            "ms",
        );
    }
    let energy = |kind| run_conv_layers(kind, 16, 256).map(|r| r.energy_per_op());
    let rs = energy(DataflowKind::RowStationary).expect("RS always operates");
    let ratios: Vec<f64> = DataflowKind::ALL[1..]
        .iter()
        .filter_map(|&k| energy(k))
        .map(|e| e / rs)
        .collect();
    let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().copied().fold(0.0, f64::max);
    l.put("analysis.rs_energy_advantage_min", min, "ratio");
    l.put("analysis.rs_energy_advantage_max", max, "ratio");
}
