//! `serve_closed` and `serve_open_sched`: the serving runtime end to
//! end, once with the pipeline kept full and once at partial load
//! through the scheduling front.

use crate::inputs::{request_pool, serve_net};
use crate::pace::{Clock, Schedule, WallClock};
use crate::stats::Timed;
use crate::trace::{Span, Tracer};
use crate::workload::{Config, Model, Workload};
use eyeriss::nn::{Fix16, Tensor4};
use eyeriss::serve::{
    BatchPolicy, CompiledPlan, RequestHandle, Response, SchedConfig, ServeConfig, Server,
    SubmitOptions, TenantId, TenantSpec,
};
use eyeriss::telemetry::Telemetry;
use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Requests the closed-loop generator keeps outstanding. One request in
/// flight (ping-pong) measures which vCPU the threads landed on, not
/// the runtime: p50 is bimodal on two vCPUs. Eight on one worker keeps
/// the pipeline full and hides the thread hand-off.
pub const CONCURRENCY: usize = 8;
/// Distinct request inputs.
pub const POOL: usize = 16;
/// The open-loop rate, requests per second: about a third of what the
/// closed loop sustains.
pub const OPEN_RATE: f64 = 1500.0;
/// Deadline on every open-loop request: long enough never to shed, so
/// deadline pricing runs on every submit and refuses none.
pub const OPEN_DEADLINE: Duration = Duration::from_secs(1);

/// How long the closed loop's batcher holds a batch open for company.
/// Longer than a batch takes to execute (about 0.85 ms), so the eight
/// outstanding requests always travel as two full batches. At 200 µs a
/// generator that resubmits late makes the batcher cut a short batch,
/// and short batches sustain themselves (a batch of one answers one
/// request, whose successor again waits alone): segments then flip
/// between a p50 of 1.7 ms and one of 2.6 ms, and `op_p95_us` spread
/// 16-27 % from run to run.
const CLOSED_MAX_WAIT: Duration = Duration::from_millis(2);
/// The open loop's: a fifth of the gap between requests at a third of
/// capacity, so batches are mostly of one and the wait is paid in full.
const OPEN_MAX_WAIT: Duration = Duration::from_micros(200);

/// The serving configuration of both workloads: one worker of one array
/// (more of either keeps both vCPUs busy and swings throughput ±15 %),
/// batches of up to four, telemetry off; `sched` picks the front and
/// with it the loop that drives it. The queue is deep enough that a
/// scheduling stall of the shared box delays open-loop requests and
/// does not refuse them.
pub fn serve_config(sched: bool) -> ServeConfig {
    let mut cfg = ServeConfig::new();
    cfg.workers = 1;
    cfg.arrays = 1;
    cfg.queue_capacity = 1024;
    cfg.policy = BatchPolicy {
        max_batch: 4,
        max_wait: if sched {
            OPEN_MAX_WAIT
        } else {
            CLOSED_MAX_WAIT
        },
    };
    // A private instance that stays disabled: the end-to-end numbers
    // are the cost of not asking; `serve.telemetry_on_ratio` prices asking.
    cfg.telemetry = Some(Telemetry::new());
    if sched {
        cfg.sched = Some(
            SchedConfig::new()
                .tenant(TenantSpec::new("hog").weight(3.0))
                .tenant(TenantSpec::new("guest").weight(1.0)),
        );
    }
    cfg
}

/// A started, prewarmed server with its request pool.
pub struct Rig {
    pub server: Server,
    /// (input, the output `Network::forward` gives for it).
    pub pool: Vec<(Tensor4<Fix16>, Tensor4<Fix16>)>,
    /// The batch-1 plan: the model metrics' source.
    pub unit_plan: Arc<CompiledPlan>,
    /// MACs of one request (POOL comparisons included, as the paper counts).
    pub macs_per_request: u64,
    /// `[hog, guest]` on a sched server.
    pub tenants: Option<[TenantId; 2]>,
    pub start_ms: f64,
    pub prewarm_ms: f64,
}

impl Rig {
    pub fn start(seed: u64, cfg: ServeConfig) -> Rig {
        let net = serve_net(seed);
        let pool = request_pool(&net, seed, POOL);
        let macs_per_request = net.total_ops(1);
        let t0 = Instant::now();
        let server = Server::start(net, cfg);
        let start_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let plans = server
            .prewarm()
            .expect("the served net plans at every batch size");
        let prewarm_ms = t1.elapsed().as_secs_f64() * 1e3;
        let snapshots = server.tenants();
        let id_of = |name: &str| snapshots.iter().find(|t| t.name == name).map(|t| t.id);
        Rig {
            server,
            pool,
            unit_plan: Arc::clone(&plans[0]),
            macs_per_request,
            tenants: id_of("hog").zip(id_of("guest")).map(|(h, g)| [h, g]),
            start_ms,
            prewarm_ms,
        }
    }

    pub fn model(&self) -> Model {
        let macs = self.macs_per_request as f64;
        Model {
            energy_per_mac: self.unit_plan.analytic_energy() / macs,
            cycles_per_kmac: self.unit_plan.analytic_delay() * 1e3 / macs,
        }
    }

    fn output_ok(&self, slot: usize, response: &Response) -> bool {
        response.output == self.pool[slot].1
    }
}

/// One finished closed-loop request, as the generator saw it.
pub struct Done<'a> {
    /// Submit call to response received, microseconds.
    pub us: f64,
    /// Time inside `Server::submit`, microseconds.
    pub submit_us: f64,
    /// The response, when there was one and its output was right.
    pub response: Option<&'a Response>,
    /// The submit was refused.
    pub refused: bool,
}

struct InFlight {
    handle: RequestHandle,
    t0: Instant,
    submit_us: f64,
    slot: usize,
    span: Span,
}

/// The closed-loop generator: keeps [`CONCURRENCY`] requests outstanding
/// and waits for them oldest first (one worker answers in order).
#[derive(Default)]
pub struct ClosedLoop {
    inflight: VecDeque<InFlight>,
    next: u64,
}

impl ClosedLoop {
    /// Completes `ops` requests, topping the pipeline up as it goes, and
    /// reports each to `on_done` (a refused submit counts as completed,
    /// with no response). The pipeline is left full.
    pub fn run(&mut self, rig: &Rig, ops: usize, tracer: &Tracer, mut on_done: impl FnMut(Done)) {
        let mut done = 0;
        while done < ops {
            while self.inflight.len() < CONCURRENCY {
                let slot = (self.next % rig.pool.len() as u64) as usize;
                let span = tracer.op(self.next, "serve", "request");
                self.next += 1;
                let t0 = Instant::now();
                let submitted = {
                    let _call = span.child("serve", "submit");
                    rig.server.submit(rig.pool[slot].0.clone())
                };
                let submit_us = t0.elapsed().as_secs_f64() * 1e6;
                match submitted {
                    Ok(handle) => self.inflight.push_back(InFlight {
                        handle,
                        t0,
                        submit_us,
                        slot,
                        span,
                    }),
                    Err(_) => {
                        on_done(Done {
                            us: submit_us,
                            submit_us,
                            response: None,
                            refused: true,
                        });
                        done += 1;
                    }
                }
            }
            let oldest = self.inflight.pop_front().expect("the pipeline is full");
            let answer = {
                let _call = oldest.span.child("serve", "wait");
                oldest.handle.wait()
            };
            let us = oldest.t0.elapsed().as_secs_f64() * 1e6;
            let response = answer.ok().filter(|r| rig.output_ok(oldest.slot, r));
            on_done(Done {
                us,
                submit_us: oldest.submit_us,
                response: response.as_ref(),
                refused: false,
            });
            done += 1;
        }
    }

    /// Waits out whatever is still in flight, untimed.
    pub fn drain(&mut self) {
        for f in self.inflight.drain(..) {
            let _ = f.handle.wait();
        }
    }
}

/// FIFO front, closed loop, concurrency 8.
pub struct ServeClosed {
    rig: Rig,
    generator: ClosedLoop,
}

impl Workload for ServeClosed {
    const NAME: &'static str = "serve_closed";
    const SEGMENT_CYCLES: usize = 313;
    const SETUPS: usize = 21;

    fn setup(cfg: &Config) -> Self {
        let mut w = ServeClosed {
            rig: Rig::start(cfg.seed, serve_config(false)),
            generator: ClosedLoop::default(),
        };
        let warm = if cfg.quick { POOL } else { 400 };
        w.segment(warm, &Tracer::new(false), &mut Timed::default());
        w
    }

    fn cycle_ops(&self) -> usize {
        POOL
    }

    fn segment(&mut self, ops: usize, tracer: &Tracer, out: &mut Timed) {
        let t_seg = Instant::now();
        self.generator.run(&self.rig, ops, tracer, |done| {
            out.op(done.us, done.response.is_some());
            out.refused += u64::from(done.refused);
        });
        out.close_segment(ops, t_seg.elapsed().as_secs_f64());
    }

    fn model(&self) -> Model {
        self.rig.model()
    }

    fn teardown(mut self) {
        self.generator.drain();
        self.rig.server.shutdown();
    }
}

/// What one open-loop burst collected. Latencies run from each
/// request's due time.
#[derive(Debug, Default)]
pub struct OpenRun {
    /// Latency of every request that got a handle, microseconds, with
    /// whether its answer arrived and was right.
    pub answered: Vec<(f64, bool)>,
    /// Requests refused at submit; each entry is its latency so far.
    pub refused_us: Vec<f64>,
    /// How late the generator sent each request, microseconds.
    pub late_us: Vec<f64>,
    /// Time inside `submit_with`, microseconds.
    pub submit_us: Vec<f64>,
    /// Sum of the answered requests' batch sizes.
    pub batch_sum: u64,
    /// Right answers per tenant, `[hog, guest]`.
    pub good_by_tenant: [u64; 2],
    pub wall_s: f64,
}

struct Sent {
    handle: RequestHandle,
    due_ns: u64,
    slot: usize,
    tenant: usize,
    span: Span,
}

/// Sends `ops` requests at `rate` per second through the sched front,
/// tenants alternating, each with `deadline`. The generator paces on
/// absolute due times; a collector thread waits for the answers.
pub fn open_loop(
    rig: &Rig,
    rate: f64,
    ops: usize,
    deadline: Duration,
    first_op: u64,
    tracer: &Tracer,
) -> OpenRun {
    let tenants = rig.tenants.expect("the open loop needs the sched front");
    let clock = WallClock::start();
    let schedule = Schedule::new(clock.now_ns(), rate);
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut run = OpenRun::default();
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut answered = Vec::with_capacity(ops);
            let (mut batch_sum, mut good) = (0u64, [0u64; 2]);
            for sent in rx {
                let answer = {
                    let _call = sent.span.child("serve", "wait");
                    sent.handle.wait()
                };
                let us = (clock.now_ns() - sent.due_ns) as f64 / 1e3;
                let ok = match &answer {
                    Ok(r) => {
                        batch_sum += r.batch_size as u64;
                        rig.output_ok(sent.slot, r)
                    }
                    Err(_) => false,
                };
                good[sent.tenant] += u64::from(ok);
                answered.push((us, ok));
            }
            (answered, batch_sum, good)
        });
        for i in 0..ops as u64 {
            let (due_ns, late_ns) = schedule.wait(&clock, i);
            let slot = ((first_op + i) % rig.pool.len() as u64) as usize;
            let tenant = (i % 2) as usize;
            let span = tracer.op(first_op + i, "serve", "request");
            let t0 = clock.now_ns();
            let submitted = {
                let _call = span.child("serve", "submit_with");
                rig.server.submit_with(
                    rig.pool[slot].0.clone(),
                    SubmitOptions::tenant(tenants[tenant]).deadline(deadline),
                )
            };
            let now = clock.now_ns();
            run.late_us.push(late_ns as f64 / 1e3);
            run.submit_us.push((now - t0) as f64 / 1e3);
            match submitted {
                Ok(handle) => tx
                    .send(Sent {
                        handle,
                        due_ns,
                        slot,
                        tenant,
                        span,
                    })
                    .expect("the collector outlives the generator"),
                Err(_) => run.refused_us.push((now - due_ns) as f64 / 1e3),
            }
        }
        drop(tx);
        (run.answered, run.batch_sum, run.good_by_tenant) =
            collector.join().expect("the collector does not panic");
    });
    run.wall_s = clock.now_ns() as f64 / 1e9;
    run
}

/// Sched front, open loop at a fixed rate, two weighted tenants.
pub struct ServeOpenSched {
    rig: Rig,
    next: u64,
}

impl Workload for ServeOpenSched {
    const NAME: &'static str = "serve_open_sched";
    /// 1 504 requests: a second at [`OPEN_RATE`].
    const SEGMENT_CYCLES: usize = 94;
    const SETUPS: usize = 9;

    fn setup(cfg: &Config) -> Self {
        let mut w = ServeOpenSched {
            rig: Rig::start(cfg.seed, serve_config(true)),
            next: 0,
        };
        let warm = if cfg.quick { POOL } else { 304 };
        w.segment(warm, &Tracer::new(false), &mut Timed::default());
        w
    }

    fn cycle_ops(&self) -> usize {
        POOL
    }

    fn segment(&mut self, ops: usize, tracer: &Tracer, out: &mut Timed) {
        let run = open_loop(&self.rig, OPEN_RATE, ops, OPEN_DEADLINE, self.next, tracer);
        self.next += ops as u64;
        for &(us, ok) in &run.answered {
            out.op(us, ok);
        }
        for &us in &run.refused_us {
            out.op(us, false);
            out.refused += 1;
        }
        out.close_segment(ops, run.wall_s);
    }

    fn model(&self) -> Model {
        self.rig.model()
    }

    fn teardown(self) {
        self.rig.server.shutdown();
    }
}
