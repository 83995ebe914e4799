//! The request runtime: admission, the ready queue, the dynamic batcher
//! and the supervised multi-array worker pool — one pipeline for every
//! server.
//!
//! ```text
//!  submit(_with)──►admission──►[ReadyQueue]──►batcher──►[BatchQueue]─┬─►worker 0 (Cluster of A arrays)
//!                  tenant,      tier→DRR→EDF;  up to max_batch /     ├─►worker 1 (Cluster of A arrays)
//!                  deadline,    full: submit   max_wait; sheds       └─►worker W-1      │
//!                  quota, burn  waits, the     expired entries                supervisor restarts the dead
//!                               rest bounce
//! ```
//!
//! Tenants, deadlines and priorities come from the scheduling layer
//! ([`crate::sched`]). A plain [`Server::submit`] is `submit_with` for
//! the default tenant with no deadline, so without a [`SchedConfig`]
//! requests dispatch in FIFO order and a full queue blocks the caller
//! (backpressure).
//!
//! Each worker owns a private [`eyeriss_cluster::Cluster`] — array-level
//! parallelism inside a batch flows through `eyeriss-par`'s
//! thread-per-array executor — and executes batches from precompiled
//! plans fetched from the shared [`crate::PlanCache`]. Every completed
//! request carries a queue/compile/execute latency breakdown; the
//! server aggregates p50/p99 and throughput in [`ServerStats`].
//!
//! # Fault tolerance
//!
//! Workers run batches under `catch_unwind`; a supervisor thread
//! restarts a worker that panics (the in-flight batch's requests fail
//! with a typed [`ServeError::WorkerLost`] — never a hung client — via
//! each request's drop guard). Typed transient failures from the
//! cluster (an ABFT [`ClusterError::Corrupted`] mismatch or an injected
//! [`ClusterError::Crashed`]) retry with bounded backoff through
//! [`BatchQueue::requeue`]; arrays that fail
//! [`RecoveryPolicy::quarantine_after`] consecutive times are
//! quarantined and the worker re-plans onto its healthy subset. A
//! worker whose every array is quarantined retires, shrinking the pool
//! in the admission estimates. Deterministic fault injection opts in
//! via [`ServeConfig::faults`]; ABFT via [`ServeConfig::abft`]; both
//! are off by default and cost one branch when disabled.

use crate::attrib::Attribution;
use crate::batch::BatchPolicy;
use crate::error::ServeError;
use crate::metrics::{LatencyBreakdown, RequestRecord, ServerSnapshot, ServerStats};
use crate::plan::{CompiledPlan, PlanCompiler, StagePlan};
use crate::recover::{BatchQueue, RecoveryPolicy};
use crate::sched::queue::{PushError, Pushed, ReadyQueue};
use crate::sched::tenant::TenantState;
use crate::sched::{
    AdmissionController, AdmissionError, AdmitRequest, Backlog, Priority, SchedConfig, TenantId,
    TenantRegistry, TenantSnapshot, TenantSpec,
};
use eyeriss_arch::cost::CostReport;
use eyeriss_arch::AcceleratorConfig;
use eyeriss_cluster::{Cluster, ClusterError, ClusterHealth};
use eyeriss_nn::network::Network;
use eyeriss_nn::{reference, Fix16, LayerProblem, Tensor4};
use eyeriss_sim::fault::{FaultInjector, FaultPlan};
use eyeriss_sim::Accelerator;
use eyeriss_telemetry::{
    Counter, Gauge, Histogram, RetroSpan, SloMonitor, SloSpec, Telemetry, TraceContext,
    REQUEST_ROW_TID,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The per-batch-size network plans shared by every worker: each
/// `(batch size, cluster width)` the pool can need maps to one
/// immutable [`Arc<CompiledPlan>`], compiled once and handed out by
/// reference — workers never lock the layer-level plan cache (or clone
/// a plan) at request time. Widths below the configured array count
/// exist only on degraded clusters (quarantined arrays); their
/// compilers are derived via [`PlanCompiler::resized`] and share the
/// base compiler's content-keyed layer cache.
struct NetPlans {
    net: Arc<Network>,
    base: Arc<PlanCompiler>,
    compilers: Mutex<HashMap<usize, Arc<PlanCompiler>>>,
    by_batch: Mutex<HashMap<(usize, usize), Arc<CompiledPlan>>>,
    /// Per-batch-size attribution basis — the plan's `(cost report,
    /// analytic delay)` — computed at most once per size, so traced
    /// requests never re-price the network on the hot path.
    basis_by_batch: Mutex<HashMap<usize, Arc<(CostReport, f64)>>>,
}

impl NetPlans {
    fn new(net: Arc<Network>, compiler: Arc<PlanCompiler>) -> Self {
        let mut compilers = HashMap::new();
        compilers.insert(compiler.arrays(), Arc::clone(&compiler));
        NetPlans {
            net,
            base: compiler,
            compilers: Mutex::new(compilers),
            by_batch: Mutex::new(HashMap::new()),
            basis_by_batch: Mutex::new(HashMap::new()),
        }
    }

    /// The compiler for a cluster of `width` arrays (the base compiler
    /// at full width, a cache-sharing resize below it).
    fn compiler_for(&self, width: usize) -> Arc<PlanCompiler> {
        let mut map = self
            .compilers
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            map.entry(width)
                .or_insert_with(|| Arc::new(self.base.resized(width))),
        )
    }

    /// The network plan for batch size `b` on a cluster of `width`
    /// healthy arrays — a shared handle, compiled at most once per
    /// `(size, width)` (a lost race wastes one duplicate compile, which
    /// itself hits the layer cache).
    fn get_for(&self, b: usize, width: usize) -> Result<Arc<CompiledPlan>, ServeError> {
        if let Some(plan) = self
            .by_batch
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&(b, width))
        {
            return Ok(Arc::clone(plan));
        }
        let plan = Arc::new(self.compiler_for(width).compile_network(&self.net, b)?);
        let mut plans = self.by_batch.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(Arc::clone(plans.entry((b, width)).or_insert(plan)))
    }

    /// [`NetPlans::get_for`] at the configured (full) cluster width.
    fn get(&self, b: usize) -> Result<Arc<CompiledPlan>, ServeError> {
        self.get_for(b, self.base.arrays())
    }

    /// The attribution basis for `plan`: its full [`CostReport`] under
    /// the compiler's cost model and its analytic delay, shared and
    /// memoized per batch size.
    fn attribution_basis(&self, plan: &CompiledPlan) -> Arc<(CostReport, f64)> {
        let mut memo = self
            .basis_by_batch
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(memo.entry(plan.batch).or_insert_with(|| {
            Arc::new((
                plan.cost_report(self.base.cost_model()),
                plan.analytic_delay(),
            ))
        }))
    }
}

/// Server sizing and batching policy.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Simulated arrays per worker cluster.
    pub arrays: usize,
    /// Worker threads (each owning one cluster). The simulated-array
    /// pool is `workers x arrays`.
    pub workers: usize,
    /// Dynamic batching bounds.
    pub policy: BatchPolicy,
    /// Ready-queue depth; a full queue blocks [`Server::submit`]
    /// (backpressure) and fails [`Server::try_submit`] and
    /// [`Server::submit_with`] with [`AdmissionError::QueueFull`]
    /// unless the request outranks a queued one.
    pub queue_capacity: usize,
    /// Per-array hardware configuration.
    pub hw: AcceleratorConfig,
    /// Telemetry instance the server records into. `None` (the
    /// default) gives the server a private, always-enabled instance so
    /// [`Server::snapshot`] is live out of the box; pass a shared
    /// instance to fold serve/cluster/sim metrics into one timeline
    /// (e.g. [`eyeriss_telemetry::Telemetry::global`], or the engine's
    /// via its builder).
    pub telemetry: Option<Telemetry>,
    /// Service-level objectives evaluated live by the server's
    /// [`SloMonitor`] (empty = monitoring off). A breach dumps the
    /// flight recorder; see [`Server::slo_monitor`].
    pub slos: Vec<SloSpec>,
    /// Capacity of the flight recorder: how many recent per-request
    /// [`Attribution`] summaries a breach dump covers.
    pub flight_capacity: usize,
    /// Scheduling layer configuration: tenants, DRR quantum and aging
    /// (see [`crate::sched`]). `None` (the default) means
    /// [`SchedConfig::default`] — only the `"default"` tenant, so plain
    /// submits dispatch in FIFO order.
    pub sched: Option<SchedConfig>,
    /// Deterministic fault-injection schedule. `None` or an empty plan
    /// (the default) means no injection and zero hot-path cost; see
    /// [`eyeriss_sim::fault`].
    pub faults: Option<FaultPlan>,
    /// ABFT checksum verification of every executed conv tile:
    /// detected corruption fails the batch with a retryable
    /// [`ClusterError::Corrupted`] instead of returning wrong numbers.
    /// Off by default.
    pub abft: bool,
    /// Retry, backoff and quarantine policy for faulted batches.
    pub recovery: RecoveryPolicy,
}

impl ServeConfig {
    /// A small default: two workers of two arrays each, default batching
    /// bounds, and the fabricated chip's per-array configuration.
    pub fn new() -> Self {
        ServeConfig {
            arrays: 2,
            workers: 2.min(eyeriss_par::num_threads()).max(1),
            policy: BatchPolicy::default(),
            queue_capacity: 64,
            hw: AcceleratorConfig::eyeriss_chip(),
            telemetry: None,
            slos: Vec::new(),
            flight_capacity: 256,
            sched: None,
            faults: None,
            abft: false,
            recovery: RecoveryPolicy::new(),
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig::new()
    }
}

/// Pre-resolved handles for every serve-layer metric, so the hot paths
/// never touch the registry lock. Cloning shares the same storage.
#[derive(Clone)]
struct ServeTele {
    queue_depth: Gauge,
    inflight_batches: Gauge,
    live_workers: Gauge,
    completed: Counter,
    shed: Counter,
    expired: Counter,
    retries: Counter,
    worker_restarts: Counter,
    failed: Counter,
    queue_ns: Histogram,
    compile_ns: Histogram,
    execute_ns: Histogram,
    total_ns: Histogram,
    batch_size: Histogram,
    delay_residual: Histogram,
}

impl ServeTele {
    fn resolve(tele: &Telemetry) -> Self {
        ServeTele {
            queue_depth: tele.gauge("serve.queue_depth"),
            inflight_batches: tele.gauge("serve.inflight_batches"),
            live_workers: tele.gauge("serve.live_workers"),
            completed: tele.counter("serve.completed"),
            shed: tele.counter("serve.shed"),
            expired: tele.counter("serve.expired"),
            retries: tele.counter("serve.retries"),
            worker_restarts: tele.counter("serve.worker_restarts"),
            failed: tele.counter("serve.failed"),
            queue_ns: tele.histogram("serve.queue_ns"),
            compile_ns: tele.histogram("serve.compile_ns"),
            execute_ns: tele.histogram("serve.execute_ns"),
            total_ns: tele.histogram("serve.total_ns"),
            batch_size: tele.histogram("serve.batch_size"),
            delay_residual: tele.histogram("serve.delay_residual"),
        }
    }
}

/// One in-flight request.
struct Pending {
    id: u64,
    input: Tensor4<Fix16>,
    submitted: Instant,
    trace: TraceContext,
    /// Taken exactly once by [`Pending::respond`]. A `Pending` dropped
    /// with the sender still armed died mid-flight (a worker panic, a
    /// closed pool) — its `Drop` sends a typed
    /// [`ServeError::WorkerLost`], so no client ever hangs.
    tx: Option<Sender<Result<Response, ServeError>>>,
    /// The submitting tenant, whose counters record how this request
    /// ends.
    tenant: Arc<TenantState>,
    /// Absolute deadline on the telemetry epoch timeline; checked again
    /// at worker pickup so a request that outlived its deadline in the
    /// dispatch pipeline expires instead of completing late.
    deadline_ns: Option<u64>,
    /// `serve.failed` handle, carried so the drop guard can account a
    /// lost request without reaching the server.
    failed: Counter,
    /// Transient-fault retries this request's batch has burned.
    attempts: u32,
}

impl Pending {
    /// Delivers the result (first call wins; later calls no-op).
    fn respond(&mut self, result: Result<Response, ServeError>) {
        if let Some(tx) = self.tx.take() {
            let _ = tx.send(result);
        }
    }

    /// Fails the request with full accounting: the `serve.failed`
    /// counter, the tenant's failed count, and a typed error to the
    /// client.
    fn fail(&mut self, err: ServeError) {
        self.failed.inc();
        self.tenant.note_failed();
        self.respond(Err(err));
    }

    /// Sheds the request because its deadline passed before it could
    /// execute, counting it in `expired` and against its tenant.
    fn expire(&mut self, expired: &Counter) {
        expired.inc();
        self.tenant.note_expired();
        self.respond(Err(AdmissionError::DeadlinePassed.into()));
    }

    /// Drops the responder without the worker-lost accounting — for
    /// submit-side rejections, where the caller already holds a typed
    /// error and the handle never escaped.
    fn disarm(&mut self) {
        self.tx = None;
    }
}

impl Drop for Pending {
    fn drop(&mut self) {
        if self.tx.is_some() {
            self.fail(ServeError::WorkerLost);
        }
    }
}

/// Per-request scheduling options for
/// [`Server::submit_with`] — tenant identity, an optional
/// deadline and a priority override.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// The submitting tenant (default: [`TenantId::DEFAULT`]).
    pub tenant: TenantId,
    /// Relative deadline from submission; the request is rejected at
    /// admission if its estimated completion misses it, and shed at
    /// dispatch if it expires in queue. `None` = best effort.
    pub deadline: Option<Duration>,
    /// Overrides the tenant's configured [`Priority`] for this request.
    pub priority: Option<Priority>,
}

impl SubmitOptions {
    /// Options for `tenant` with no deadline and its configured
    /// priority.
    pub fn tenant(tenant: TenantId) -> SubmitOptions {
        SubmitOptions {
            tenant,
            ..SubmitOptions::default()
        }
    }

    /// Sets the relative deadline.
    pub fn deadline(mut self, deadline: Duration) -> SubmitOptions {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the priority override.
    pub fn priority(mut self, priority: Priority) -> SubmitOptions {
        self.priority = Some(priority);
        self
    }
}

/// A completed inference.
#[derive(Debug, Clone)]
pub struct Response {
    /// The request id assigned at submission.
    pub id: u64,
    /// The network output for this request (`[1][M][E][E]`), bit-exact
    /// against a single-array simulation of the same input.
    pub output: Tensor4<Fix16>,
    /// Where this request's latency went.
    pub latency: LatencyBreakdown,
    /// How many requests shared the batch.
    pub batch_size: usize,
    /// Energy/delay attribution for this request — present whenever
    /// the server's telemetry instance was enabled at execution time.
    pub attribution: Option<Attribution>,
}

/// The caller's side of one submitted request.
#[derive(Debug)]
pub struct RequestHandle {
    id: u64,
    trace: u64,
    rx: Receiver<Result<Response, ServeError>>,
}

impl RequestHandle {
    /// The request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The trace id minted at submission (0 when telemetry is
    /// disabled) — the key tying this request to its span tree in the
    /// server's telemetry snapshot.
    pub fn trace_id(&self) -> u64 {
        self.trace
    }

    /// Blocks until the request completes.
    ///
    /// # Errors
    ///
    /// Returns the worker's error for this batch;
    /// [`ServeError::WorkerLost`] if the responder vanished mid-flight
    /// without delivering anything (every in-runtime loss path sends
    /// the same typed error explicitly, so this is the uniform
    /// worst-case answer — never a hang).
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().map_err(|_| ServeError::WorkerLost)?
    }
}

/// How a worker's loop ended, reported to the supervisor.
enum WorkerExit {
    /// The dispatch queue closed and drained: clean shutdown.
    Shutdown,
    /// Every array in this worker's cluster is quarantined; the worker
    /// handed its batch back and left the pool.
    Retired,
    /// The worker panicked mid-batch (injected or real); the
    /// supervisor respawns the slot.
    Died,
}

/// Everything the server's threads share, once, behind an `Arc`: the
/// submit path, the batcher, the workers and the supervisor that
/// respawns them.
struct Shared {
    /// Admitted requests awaiting the batcher: tier → DRR → EDF.
    ready: ReadyQueue<Pending>,
    registry: TenantRegistry,
    admission: AdmissionController,
    /// The batch-1 analytic delay completion estimates price, memoized
    /// on first use.
    unit_cycles: OnceLock<Option<f64>>,
    policy: BatchPolicy,
    /// Formed batches awaiting a worker.
    queue: BatchQueue<Vec<Pending>>,
    net: Arc<Network>,
    plans: NetPlans,
    records: Mutex<Vec<RequestRecord>>,
    tele: Telemetry,
    metrics: ServeTele,
    monitor: SloMonitor,
    /// Per-slot health records — shared with each slot's cluster and
    /// *surviving* worker restarts, so a quarantine outlives the panic
    /// that exposed the bad array.
    healths: Vec<Arc<ClusterHealth>>,
    faults: Option<FaultInjector>,
    recovery: RecoveryPolicy,
    abft: bool,
    arrays: usize,
    hw: AcceleratorConfig,
}

impl Shared {
    /// Feeds one admission decision to the SLO monitor when a shed
    /// spec is configured (a relaxed load plus a bool check otherwise).
    fn observe_admission(&self, shed: bool) {
        if self.monitor.wants_shed() && self.tele.enabled() {
            self.monitor
                .observe_shed(self.tele.since_epoch(Instant::now()), shed);
        }
    }

    /// The live queue the completion estimate prices.
    fn backlog(&self) -> Backlog {
        Backlog {
            queued: self.metrics.queue_depth.get(),
            inflight: self.metrics.inflight_batches.get(),
        }
    }

    /// The batch-1 plan's analytic delay, which prices completion
    /// estimates: compiled on first use (prewarmed servers find it
    /// cached), then memoized.
    fn unit_cycles(&self) -> Option<f64> {
        *self.unit_cycles.get_or_init(|| {
            let plan = self.plans.get(1).ok()?;
            Some(self.plans.attribution_basis(&plan).1)
        })
    }
}

/// Spawns worker `idx`: builds its private cluster around the slot's
/// persistent health record and runs the loop, reporting the exit to
/// the supervisor.
fn spawn_worker(
    idx: usize,
    shared: &Arc<Shared>,
    exit_tx: Sender<(usize, WorkerExit)>,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        let cluster = Cluster::new(shared.arrays, shared.hw)
            .with_telemetry(shared.tele.clone())
            .with_health(Arc::clone(&shared.healths[idx]))
            .with_faults(shared.faults.clone())
            .array_base(idx * shared.arrays)
            .abft(shared.abft);
        let pool_chip = Accelerator::new(shared.hw).telemetry(shared.tele.clone());
        let exit = worker_loop(idx, &shared, &cluster, pool_chip);
        let _ = exit_tx.send((idx, exit));
    })
}

/// An inference server for one network.
///
/// # Example
///
/// ```no_run
/// use eyeriss_serve::{ServeConfig, Server};
/// use eyeriss_nn::network::NetworkBuilder;
/// use eyeriss_nn::synth;
///
/// let net = NetworkBuilder::new(3, 19).conv("C1", 8, 3, 2)?.build(7);
/// let input = synth::ifmap(&net.stages()[0].shape, 1, 42);
/// let server = Server::start(net, ServeConfig::new());
/// let response = server.submit(input)?.wait()?;
/// println!("request {} done in {:?}", response.id, response.latency.total());
/// let stats = server.shutdown();
/// assert_eq!(stats.completed(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Server {
    shared: Arc<Shared>,
    /// The batcher, then the supervisor: the order shutdown joins them.
    threads: Vec<JoinHandle<()>>,
    started: Instant,
    next_id: AtomicU64,
}

impl Server {
    /// Starts batcher, worker and supervisor threads serving `net` with
    /// a fresh plan cache.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.arrays` or `cfg.workers` is zero.
    pub fn start(net: Network, cfg: ServeConfig) -> Self {
        let compiler = PlanCompiler::new(cfg.arrays, cfg.hw);
        Server::start_with_compiler(net, cfg, compiler)
    }

    /// [`Server::start`] with a caller-provided compiler, so a warm
    /// [`crate::PlanCache`] can be shared across server restarts (or
    /// across servers) via [`PlanCompiler::with_cache`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg.workers` is zero or the compiler's cluster width
    /// disagrees with `cfg.arrays`.
    pub fn start_with_compiler(net: Network, cfg: ServeConfig, compiler: PlanCompiler) -> Self {
        assert!(cfg.workers > 0, "server needs at least one worker");
        assert_eq!(
            compiler.arrays(),
            cfg.arrays,
            "compiler cluster width must match the server's"
        );
        let net = Arc::new(net);
        let tele = cfg.telemetry.unwrap_or_else(Telemetry::new_enabled);
        let metrics = ServeTele::resolve(&tele);
        metrics.live_workers.set(cfg.workers as i64);
        let sched = cfg.sched.unwrap_or_default();
        let registry = TenantRegistry::new(tele.clone());
        for spec in sched.tenants {
            registry.register(spec);
        }
        let shared = Arc::new(Shared {
            ready: ReadyQueue::new(
                cfg.queue_capacity,
                sched.quantum,
                sched.aging.as_nanos().min(u64::MAX as u128) as u64,
            ),
            registry,
            admission: AdmissionController::new(cfg.workers, cfg.policy.max_batch),
            unit_cycles: OnceLock::new(),
            policy: cfg.policy,
            // Bounded by the worker count so that a slow pool pushes back
            // through the batcher into the ready queue and onto the
            // admission estimate. Workers put transiently-faulted batches
            // *back* via its unbounded front-of-queue requeue — the
            // operation a plain channel lacks.
            queue: BatchQueue::new(cfg.workers),
            plans: NetPlans::new(Arc::clone(&net), Arc::new(compiler)),
            net,
            records: Mutex::new(Vec::new()),
            monitor: SloMonitor::new(cfg.slos, cfg.flight_capacity),
            healths: (0..cfg.workers)
                .map(|_| Arc::new(ClusterHealth::new(cfg.arrays)))
                .collect(),
            // One shared injector: clones share run counters, so a spec's
            // timeline is fleet-global and survives worker restarts.
            // Telemetry must attach before the first clone escapes.
            faults: cfg
                .faults
                .as_ref()
                .filter(|p| !p.is_empty())
                .map(|p| FaultInjector::new(p.clone()).with_telemetry(&tele)),
            tele,
            metrics,
            recovery: cfg.recovery,
            abft: cfg.abft,
            arrays: cfg.arrays,
            hw: cfg.hw,
        });
        let batcher = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let metrics = &shared.metrics;
                let now = || shared.tele.since_epoch(Instant::now());
                while let Some(drained) = shared.ready.next_batch(&shared.policy, now) {
                    for mut pending in drained.expired {
                        metrics.queue_depth.dec();
                        pending.expire(&metrics.expired);
                    }
                    if drained.batch.is_empty() {
                        continue;
                    }
                    metrics.queue_depth.add(-(drained.batch.len() as i64));
                    if let Err(refused) = shared.queue.push(drained.batch) {
                        // The pool is gone. Refuse new submits *before*
                        // the refused batch fails its clients, so none of
                        // them can be admitted into a queue nobody drains;
                        // whatever is still queued fails the same way.
                        shared.ready.close();
                        drop(refused);
                    }
                }
                shared.queue.close();
            })
        };

        let (exit_tx, exit_rx) = mpsc::channel::<(usize, WorkerExit)>();
        let mut handles: Vec<Option<JoinHandle<()>>> = (0..cfg.workers)
            .map(|i| Some(spawn_worker(i, &shared, exit_tx.clone())))
            .collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut alive = handles.len();
                while alive > 0 {
                    let Ok((idx, exit)) = exit_rx.recv() else {
                        break;
                    };
                    if let Some(handle) = handles[idx].take() {
                        let _ = handle.join();
                    }
                    match exit {
                        WorkerExit::Died => {
                            shared.metrics.worker_restarts.inc();
                            handles[idx] = Some(spawn_worker(idx, &shared, exit_tx.clone()));
                        }
                        WorkerExit::Retired | WorkerExit::Shutdown => alive -= 1,
                    }
                }
                // The pool is gone — drained shutdown, or every worker
                // retired. Close the dispatch queue and drain whatever
                // is still queued: each dropped request's guard sends a
                // typed `WorkerLost`, so no client waits forever.
                shared.queue.close();
                while shared.queue.pop().is_some() {}
            })
        };

        Server {
            shared,
            threads: vec![batcher, supervisor],
            started: Instant::now(),
            next_id: AtomicU64::new(0),
        }
    }

    /// Compiles the served network's plans for every batch size the
    /// batcher can form (`1..=max_batch`), so no request ever pays a
    /// plan search at serving time. Returns one shared
    /// [`crate::CompiledPlan`] handle per batch size, in increasing-size
    /// order — the same `Arc`s the workers will execute from.
    ///
    /// # Errors
    ///
    /// Fails if any weighted stage has no feasible plan at some batch
    /// size.
    pub fn prewarm(&self) -> Result<Vec<Arc<CompiledPlan>>, ServeError> {
        let shared = &*self.shared;
        (1..=shared.policy.max_batch.max(1))
            .map(|n| shared.plans.get(n))
            .collect()
    }

    fn pending(
        &self,
        input: Tensor4<Fix16>,
        tenant: Arc<TenantState>,
    ) -> Result<(Pending, RequestHandle), ServeError> {
        let (c, h) = self.shared.net.input_dims();
        if input.dims() != [1, c, h, h] {
            return Err(ServeError::Input(format!(
                "expected [1, {c}, {h}, {h}], got {:?}",
                input.dims()
            )));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let trace = self.shared.tele.mint_trace();
        let (tx, rx) = mpsc::channel();
        Ok((
            Pending {
                id,
                input,
                submitted: Instant::now(),
                trace,
                tx: Some(tx),
                tenant,
                deadline_ns: None,
                failed: self.shared.metrics.failed.clone(),
                attempts: 0,
            },
            RequestHandle {
                id,
                trace: trace.trace,
                rx,
            },
        ))
    }

    /// Submits one single-image request (`[1][C][H][H]`) for the
    /// default tenant with no deadline: [`Server::submit_with`] under
    /// default [`SubmitOptions`], except that where `submit_with` would
    /// reject with [`AdmissionError::QueueFull`] this waits for room —
    /// the backpressure path.
    ///
    /// # Errors
    ///
    /// Fails on mismatched input dimensions, a shut-down server, or an
    /// [`AdmissionError`] from the default tenant's admission checks.
    pub fn submit(&self, input: Tensor4<Fix16>) -> Result<RequestHandle, ServeError> {
        self.enqueue(input, SubmitOptions::default(), true)
    }

    /// Non-blocking [`Server::submit`]: exactly [`Server::submit_with`]
    /// under default [`SubmitOptions`], so a full queue rejects at once
    /// with [`AdmissionError::QueueFull`] (load shedding for open-loop
    /// clients).
    ///
    /// # Errors
    ///
    /// Every [`Server::submit_with`] failure mode.
    pub fn try_submit(&self, input: Tensor4<Fix16>) -> Result<RequestHandle, ServeError> {
        self.submit_with(input, SubmitOptions::default())
    }

    /// Submits one request with explicit scheduling options — tenant,
    /// deadline, priority — through admission control and a ranked push
    /// into the ready queue. Never waits on a full queue.
    ///
    /// # Errors
    ///
    /// Fails on mismatched input dimensions, a shut-down server, or with
    /// a typed [`ServeError::Admission`] when the scheduling layer
    /// rejects: unknown tenant, passed or infeasible deadline,
    /// over-quota, burn-rate shed, or a full queue the request does not
    /// outrank.
    pub fn submit_with(
        &self,
        input: Tensor4<Fix16>,
        opts: SubmitOptions,
    ) -> Result<RequestHandle, ServeError> {
        self.enqueue(input, opts, false)
    }

    /// Admission control, then a ranked push into the ready queue that
    /// waits for room when `wait` is set.
    fn enqueue(
        &self,
        input: Tensor4<Fix16>,
        opts: SubmitOptions,
        wait: bool,
    ) -> Result<RequestHandle, ServeError> {
        let shared = &*self.shared;
        let Some(tenant) = shared.registry.get(opts.tenant) else {
            return Err(AdmissionError::UnknownTenant(opts.tenant.0).into());
        };
        let (mut pending, handle) = self.pending(input, Arc::clone(&tenant))?;
        tenant.note_submitted();
        let now_ns = shared.tele.since_epoch(pending.submitted);
        let deadline_ns = opts
            .deadline
            .map(|d| now_ns.saturating_add(d.as_nanos().min(u64::MAX as u128) as u64));
        pending.deadline_ns = deadline_ns;
        let tier = opts.priority.unwrap_or(tenant.spec().priority).tier();
        if let Err(e) = shared.admission.admit(
            &tenant,
            AdmitRequest {
                tier,
                deadline_ns,
                now_ns,
                // Only a deadline is priced against the estimate.
                unit_cycles: deadline_ns.and_then(|_| shared.unit_cycles()),
                backlog: shared.backlog(),
                burning: shared.monitor.burning(),
            },
        ) {
            pending.disarm();
            tenant.note_rejected(&e);
            shared.metrics.shed.inc();
            shared.observe_admission(true);
            return Err(e.into());
        }
        // Increment before the push: the matching decrement (in the
        // batcher) can only follow a successful push, so the gauge never
        // goes negative (a waiting submit counts as queued).
        shared.metrics.queue_depth.inc();
        let push = if wait {
            ReadyQueue::push_wait
        } else {
            ReadyQueue::push
        };
        let lane = opts.tenant.index();
        match push(
            &shared.ready,
            pending,
            lane,
            tenant.spec().weight,
            tier,
            deadline_ns,
            now_ns,
        ) {
            Ok(Pushed::Queued) => {}
            Ok(Pushed::Displaced(mut victim)) => {
                // The new entry took the victim's slot: net queue depth
                // is unchanged, the victim is shed.
                shared.metrics.queue_depth.dec();
                shared.metrics.shed.inc();
                victim.tenant.note_shed();
                shared.observe_admission(true);
                victim.respond(Err(AdmissionError::Shed.into()));
            }
            Err(PushError::Full(mut p)) => {
                p.disarm();
                shared.metrics.queue_depth.dec();
                let e = AdmissionError::QueueFull;
                tenant.note_rejected(&e);
                shared.metrics.shed.inc();
                shared.observe_admission(true);
                return Err(e.into());
            }
            Err(PushError::Closed(mut p)) => {
                p.disarm();
                shared.metrics.queue_depth.dec();
                return Err(ServeError::ShutDown);
            }
        }
        tenant.note_admitted();
        shared.observe_admission(false);
        Ok(handle)
    }

    /// Registers a new tenant, returning its id for
    /// [`SubmitOptions::tenant`].
    pub fn register_tenant(&self, spec: TenantSpec) -> TenantId {
        self.shared.registry.register(spec)
    }

    /// Live per-tenant counters in tenant-id order, starting with the
    /// always-present `"default"` tenant.
    pub fn tenants(&self) -> Vec<TenantSnapshot> {
        self.shared.registry.snapshots()
    }

    /// The admission controller's live completion estimate for a
    /// request submitted right now — expected queue wait against the
    /// current backlog plus one service time. `None` before the workers
    /// have fed the estimator its first sample.
    pub fn estimated_completion(&self) -> Option<Duration> {
        let shared = &*self.shared;
        let now_ns = shared.tele.since_epoch(Instant::now());
        shared
            .admission
            .estimate_completion_ns(now_ns, shared.unit_cycles(), shared.backlog())
            .map(|est| Duration::from_nanos(est.saturating_sub(now_ns)))
    }

    /// Snapshot of the plan-cache counters.
    pub fn cache_stats(&self) -> crate::plan::CacheStats {
        self.shared.plans.base.cache().stats()
    }

    /// A live, point-in-time view of the server — queue depth,
    /// in-flight batches, pool health and streaming latency quantiles —
    /// available **while requests are running**, unlike
    /// [`Server::shutdown`]'s [`ServerStats`]. With the default
    /// configuration (no injected telemetry) the backing instance is
    /// always enabled, so this is never empty once requests complete.
    pub fn snapshot(&self) -> ServerSnapshot {
        let shared = &*self.shared;
        let metrics = &shared.metrics;
        ServerSnapshot {
            elapsed: self.started.elapsed(),
            completed: metrics.completed.get(),
            shed: metrics.shed.get(),
            queue_depth: metrics.queue_depth.get(),
            inflight_batches: metrics.inflight_batches.get(),
            workers: shared.healths.len(),
            live_workers: metrics.live_workers.get(),
            worker_restarts: metrics.worker_restarts.get(),
            retries: metrics.retries.get(),
            failed: metrics.failed.get(),
            quarantined_arrays: shared
                .healths
                .iter()
                .map(|h| h.quarantined_count() as u64)
                .sum(),
            faults_injected: shared.faults.as_ref().map_or(0, |f| f.injected()),
            faults_detected: shared.tele.counter("sim.faults_detected").get(),
            cache: self.cache_stats(),
            queue_ns: metrics.queue_ns.snapshot(),
            compile_ns: metrics.compile_ns.snapshot(),
            execute_ns: metrics.execute_ns.snapshot(),
            total_ns: metrics.total_ns.snapshot(),
            batch_size: metrics.batch_size.snapshot(),
            delay_residual: metrics.delay_residual.snapshot(),
            tenants: self.tenants(),
        }
    }

    /// The live SLO monitor (configured via [`ServeConfig::slos`]):
    /// breach counts and flight-recorder dumps are readable while the
    /// server runs, and survive until [`Server::shutdown`] through the
    /// handle's clones.
    pub fn slo_monitor(&self) -> &SloMonitor {
        &self.shared.monitor
    }

    /// The telemetry instance this server records into — spans from the
    /// workers' clusters and simulated chips land here too, so
    /// [`eyeriss_telemetry::Telemetry::snapshot`] plus
    /// [`eyeriss_telemetry::TelemetrySnapshot::chrome_trace`] yields a
    /// loadable `chrome://tracing` timeline of the serving run.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.tele
    }

    /// Drains in-flight requests, stops every thread and returns the
    /// lifetime statistics.
    pub fn shutdown(mut self) -> ServerStats {
        // The batcher drains what is queued, then exits (closing the
        // batch queue behind itself); the supervisor follows the pool.
        self.shared.ready.close();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
        let mut records = self
            .shared
            .records
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        ServerStats {
            records: std::mem::take(&mut *records),
            elapsed: self.started.elapsed(),
            cache: self.cache_stats(),
        }
    }
}

impl Drop for Server {
    /// A server dropped without [`Server::shutdown`] still answers what
    /// it admitted: closing the ready queue lets its threads drain it
    /// and exit.
    fn drop(&mut self) {
        self.shared.ready.close();
    }
}

/// One worker: picks whole batches off the shared queue and executes
/// them on its private cluster under `catch_unwind`, retrying
/// transiently-faulted batches, until the queue closes, the worker's
/// last array is quarantined, or a panic kills it.
fn worker_loop(
    idx: usize,
    shared: &Shared,
    cluster: &Cluster,
    mut pool_chip: Accelerator,
) -> WorkerExit {
    while let Some(mut batch) = shared.queue.pop() {
        recheck_deadlines(shared, &mut batch);
        if batch.is_empty() {
            continue;
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if shared.faults.as_ref().is_some_and(|f| f.poll_worker(idx)) {
                panic!("injected worker panic (chaos)");
            }
            execute_batch(shared, cluster, &mut pool_chip, batch)
        }));
        match outcome {
            // The closure owned the batch, so it dropped during the
            // unwind and every request's guard already delivered a
            // typed `WorkerLost`. The supervisor respawns this slot.
            Err(_) => return WorkerExit::Died,
            Ok(Ok(())) => {}
            Ok(Err((batch, err))) => {
                if let Some(exit) = handle_failure(shared, cluster, batch, err) {
                    return exit;
                }
            }
        }
    }
    WorkerExit::Shutdown
}

/// Re-checks deadlines at pickup: the dispatch queue holds several
/// batches, so a request can outlive its deadline between dispatch and
/// pickup. Expiring it now bounds a completed request's latency by its
/// deadline plus one batch execution. Filters `batch` in place, and
/// reads no clock when no request in it carries a deadline.
fn recheck_deadlines(shared: &Shared, batch: &mut Vec<Pending>) {
    if batch.iter().all(|p| p.deadline_ns.is_none()) {
        return;
    }
    let now_ns = shared.tele.since_epoch(Instant::now());
    batch.retain_mut(|pending| {
        let expired = pending.deadline_ns.is_some_and(|d| d < now_ns);
        if expired {
            pending.expire(&shared.metrics.expired);
        }
        !expired
    });
}

/// Executes one batch end to end and delivers the responses. A typed
/// execution error hands the batch back to the caller for retry /
/// quarantine handling instead of consuming it.
fn execute_batch(
    shared: &Shared,
    cluster: &Cluster,
    pool_chip: &mut Accelerator,
    batch: Vec<Pending>,
) -> Result<(), (Vec<Pending>, ServeError)> {
    let metrics = &shared.metrics;
    let tele = &shared.tele;
    let outcome = {
        // A panic in run_batch unwinds through the guard, so the
        // inflight gauge can never leak an increment. The guard also
        // drops before responses are delivered: a client that has
        // seen its response never observes its batch as inflight.
        let _inflight = metrics.inflight_batches.scoped_inc();
        // The batch joins the first request's trace; every request's
        // queue wait links into the batch span as a flow arrow, so
        // multi-trace batches stay attributable.
        let dispatch = Instant::now();
        let batch_trace = batch.first().map_or(0, |p| p.trace.trace);
        let _root = tele.in_context(TraceContext {
            trace: batch_trace,
            parent: 0,
        });
        let batch_span = tele.span_with("serve.batch", "serve", batch.len() as u64);
        let bid = batch_span.id();
        if bid != 0 {
            for pending in &batch {
                tele.record_retro(RetroSpan {
                    name: "serve.queue",
                    cat: "serve",
                    arg: pending.id,
                    tid: REQUEST_ROW_TID,
                    ctx: pending.trace,
                    start: pending.submitted,
                    dur: dispatch.duration_since(pending.submitted),
                    link: bid,
                });
            }
        }
        // `batch_span` is still live: spans opened inside run_batch
        // on this thread parent to it through the ambient context.
        run_batch(&shared.net, &shared.plans, cluster, pool_chip, &batch, tele)
    };
    match outcome {
        Ok(done) => {
            // Calibrate the admission estimator: one sample per
            // executed batch, its plan's analytic delay against the
            // measured execute wall time.
            if let (Some(first), Ok(plan)) = (done.first(), shared.plans.get(batch.len())) {
                let execute_ns = first.0.latency.execute.as_nanos().min(u64::MAX as u128) as u64;
                let cycles = shared.plans.attribution_basis(&plan).1;
                shared.admission.estimator().observe(cycles, execute_ns);
            }
            let wants_records = !shared.monitor.is_empty();
            let mut recs = shared
                .records
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for (mut pending, response) in batch.into_iter().zip(done) {
                pending.tenant.note_completed();
                let latency = response.0.latency;
                metrics.queue_ns.record_duration(latency.queue);
                metrics.compile_ns.record_duration(latency.compile);
                metrics.execute_ns.record_duration(latency.execute);
                metrics.total_ns.record_duration(latency.total());
                metrics.batch_size.record(response.0.batch_size as u64);
                metrics.completed.inc();
                if let Some(att) = &response.0.attribution {
                    metrics
                        .delay_residual
                        .record(att.residual_cycles().abs() as u64);
                    if wants_records {
                        shared.monitor.record(att.flight_record());
                    }
                }
                recs.push(RequestRecord {
                    id: response.0.id,
                    batch_size: response.0.batch_size,
                    latency,
                    sim_cycles: response.1,
                });
                pending.respond(Ok(response.0));
            }
            Ok(())
        }
        Err(e) => Err((batch, e)),
    }
}

/// Decides what a typed batch failure means: strike → quarantine
/// bookkeeping for the offending array, retirement when the worker's
/// cluster has no healthy arrays left, bounded-backoff retry for
/// transient faults, and a typed failure to every client once the
/// budget is spent. Returns `Some(exit)` when the worker must leave
/// the pool.
fn handle_failure(
    shared: &Shared,
    cluster: &Cluster,
    mut batch: Vec<Pending>,
    err: ServeError,
) -> Option<WorkerExit> {
    // Only the cluster's fault-typed errors are retryable: a clean
    // re-execution can produce the bit-exact output a corrupted or
    // crashed one could not. Everything else (no plan, bad input) would
    // fail identically again.
    let faulty_array = match &err {
        ServeError::Cluster(
            ClusterError::Corrupted { array } | ClusterError::Crashed { array },
        ) => Some(*array),
        _ => None,
    };
    if let Some(array) = faulty_array {
        // The cluster already struck the array; consecutive strikes
        // reaching the threshold mean the fault is persistent, not
        // transient — quarantine it and re-plan on the healthy subset.
        if cluster.health().strikes(array) >= shared.recovery.quarantine_after {
            cluster.quarantine(array);
        }
        if cluster.healthy_arrays() == 0 {
            // Nothing left to execute on: hand the batch to the rest of
            // the pool and retire. The requeue bypasses the retry
            // budget — another worker's healthy cluster may complete it
            // first try.
            shared.queue.requeue(batch);
            shared.metrics.live_workers.dec();
            let live = shared.metrics.live_workers.get().max(1) as usize;
            shared.admission.set_workers(live);
            return Some(WorkerExit::Retired);
        }
    }
    let attempt = batch.iter().map(|p| p.attempts).max().unwrap_or(0) + 1;
    if faulty_array.is_some() && attempt <= shared.recovery.max_retries {
        for pending in &mut batch {
            pending.attempts = attempt;
        }
        shared.metrics.retries.add(batch.len() as u64);
        std::thread::sleep(shared.recovery.backoff_for(attempt));
        shared.queue.requeue(batch);
    } else {
        for mut pending in batch {
            pending.fail(err.clone());
        }
    }
    None
}

/// Executes one batch end-to-end; returns one `(response, sim_cycles)`
/// per request, in batch order. With telemetry enabled, each response
/// carries an [`Attribution`] built from the executed plan's cost
/// report and the simulator's measured cycles. Plans resolve at the
/// cluster's *healthy* width, so a degraded worker transparently
/// re-plans onto its surviving arrays.
fn run_batch(
    net: &Network,
    plans: &NetPlans,
    cluster: &Cluster,
    pool_chip: &mut Accelerator,
    batch: &[Pending],
    tele: &Telemetry,
) -> Result<Vec<(Response, u64)>, ServeError> {
    let started = Instant::now();
    let b = batch.len();
    let (c, h) = net.input_dims();
    // Stack the single-image requests into one [b][C][H][H] batch: each
    // request's image is one contiguous copy, no per-element indexing.
    let mut act = Tensor4::zeros([b, c, h, h]);
    for (z, pending) in batch.iter().enumerate() {
        act.image_mut(z).copy_from_slice(pending.input.image(0));
    }

    // One shared network plan for the whole batch: every weighted stage's
    // `Arc<ClusterPlan>` is already resolved, so the execute loop touches
    // no cache lock and clones nothing.
    let t0 = Instant::now();
    let netplan = plans.get_for(b, cluster.healthy_arrays())?;
    let compile = t0.elapsed();
    let mut sim_cycles = 0u64;
    // Weighted-stage cycles only: the residual compares against
    // `analytic_delay`, which prices weighted stages.
    let mut layer_cycles = 0u64;
    for (stage, splan) in net.stages().iter().zip(&netplan.stages) {
        match splan {
            StagePlan::Pool { shape, .. } => {
                let (out, stats) = pool_chip.run_pool(shape, b, &act);
                sim_cycles += stats.total_cycles();
                act = out;
            }
            StagePlan::Layer {
                shape, relu, plan, ..
            } => {
                let weights = stage.weights.as_ref().expect("weighted stage");
                let bias = stage.bias.as_ref().expect("weighted stage");
                let problem = LayerProblem::new(*shape, b);
                let run = cluster.execute(plan, &problem, &act, weights, bias)?;
                sim_cycles += run.stats.cluster_cycles();
                layer_cycles += run.stats.cluster_cycles();
                act = reference::quantize(&run.psums, *relu);
            }
        }
    }
    let execute = started.elapsed().saturating_sub(compile);
    let completed = Instant::now();
    // One memoized (cost report, analytic delay) pair per batch size:
    // attribution costs no plan re-pricing per request.
    let basis = tele.enabled().then(|| plans.attribution_basis(&netplan));

    let [_, m, e, _] = act.dims();
    Ok(batch
        .iter()
        .enumerate()
        .map(|(z, pending)| {
            // Unstack by image: one contiguous copy per response.
            let output = Tensor4::from_vec([1, m, e, e], act.image(z).to_vec());
            let latency = LatencyBreakdown {
                queue: started.duration_since(pending.submitted),
                compile,
                execute,
            };
            let attribution = basis.as_ref().map(|basis| Attribution {
                id: pending.id,
                trace: pending.trace.trace,
                batch_size: b,
                latency,
                report: basis.0,
                analytic_delay: basis.1,
                measured_cycles: layer_cycles,
                submitted_ns: tele.since_epoch(pending.submitted),
                completed_ns: tele.since_epoch(completed),
            });
            (
                Response {
                    id: pending.id,
                    output,
                    latency,
                    batch_size: b,
                    attribution,
                },
                sim_cycles,
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_arch::GridDims;
    use eyeriss_nn::network::NetworkBuilder;
    use eyeriss_nn::synth;
    use eyeriss_sim::fault::{FaultKind, FaultSpec};

    fn tiny_net() -> Network {
        NetworkBuilder::new(3, 19)
            .conv("C1", 8, 3, 2)
            .unwrap()
            .pool("P1", 3, 2)
            .unwrap()
            .conv("C2", 12, 3, 1)
            .unwrap()
            .fully_connected("FC", 10)
            .unwrap()
            .build(7)
    }

    fn small_cfg() -> ServeConfig {
        ServeConfig {
            arrays: 2,
            workers: 2,
            policy: BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_millis(20),
            },
            queue_capacity: 16,
            hw: AcceleratorConfig {
                grid: GridDims::new(6, 8),
                rf_bytes_per_pe: 512.0,
                buffer_bytes: 32.0 * 1024.0,
            },
            ..ServeConfig::new()
        }
    }

    #[test]
    fn serves_requests_bit_exactly_with_breakdown() {
        let net = tiny_net();
        let golden_net = net.clone();
        let server = Server::start(net, small_cfg());
        let shape = golden_net.stages()[0].shape;
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let input = synth::ifmap(&shape, 1, 100 + i);
                (i, server.submit(input).unwrap())
            })
            .collect();
        for (i, handle) in handles {
            let input = synth::ifmap(&shape, 1, 100 + i);
            let golden = golden_net.forward(1, &input);
            let response = handle.wait().unwrap();
            assert_eq!(response.output, golden, "request {i} diverged");
            assert!(response.batch_size >= 1);
            assert!(response.latency.total() >= response.latency.execute);
        }
        let snap = server.snapshot();
        assert_eq!(snap.completed, 6);
        assert_eq!(snap.queue_depth, 0, "ready queue drained");
        // Plain submits land on the always-present default tenant.
        assert_eq!(snap.tenants.len(), 1);
        let t = &snap.tenants[0];
        assert_eq!(t.name, "default");
        assert_eq!((t.submitted, t.admitted, t.completed), (6, 6, 6));
        assert_eq!((t.rejected, t.shed, t.expired), (0, 0, 0));
        assert_eq!(t.failed, 0);
        let stats = server.shutdown();
        assert_eq!(stats.completed(), 6);
        assert!(stats.p99() >= stats.p50());
        // Every weighted stage went through the plan cache (batch sizes
        // may differ between batches, so only misses are deterministic).
        assert!(stats.cache.misses > 0);
        assert!(stats.records.iter().all(|r| r.sim_cycles > 0));
    }

    #[test]
    fn snapshot_is_live_and_consistent_with_final_stats() {
        let net = tiny_net();
        let shape = net.stages()[0].shape;
        let server = Server::start(net, small_cfg());
        assert_eq!(server.snapshot().completed, 0);
        let handles: Vec<_> = (0..6)
            .map(|i| server.submit(synth::ifmap(&shape, 1, i)).unwrap())
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        let snap = server.snapshot();
        assert_eq!(snap.completed, 6);
        assert_eq!(snap.shed, 0);
        assert_eq!(snap.queue_depth, 0, "queue drained");
        assert_eq!(snap.total_ns.count(), 6);
        assert!(snap.p99() >= snap.p50());
        assert!(snap.throughput_rps() > 0.0);
        assert!(snap.mean_batch() >= 1.0);
        // A fault-free run reports a fully healthy pool.
        assert_eq!((snap.workers, snap.live_workers), (2, 2));
        assert_eq!((snap.worker_restarts, snap.retries, snap.failed), (0, 0, 0));
        assert_eq!(snap.quarantined_arrays, 0);
        assert_eq!((snap.faults_injected, snap.faults_detected), (0, 0));
        // The cluster and chip record spans into the server's instance.
        let tele = server.telemetry().snapshot();
        assert!(tele.spans.iter().any(|s| s.name == "serve.batch"));
        assert!(tele.spans.iter().any(|s| s.name == "cluster.array"));
        assert!(tele.spans.iter().any(|s| s.name == "sim.pass"));
        let trace = tele.chrome_trace();
        assert!(trace.contains("\"name\":\"cluster.array\""));
        // The live server's snapshot round-trips through its wire export.
        let parsed = eyeriss_wire::Value::parse(&tele.to_wire().render()).unwrap();
        eyeriss_telemetry::TelemetrySnapshot::from_wire(&parsed).unwrap();

        let stats = server.shutdown();
        assert_eq!(stats.completed(), 6);
        // Streaming p50/p99 agree with the exact nearest-rank stats to
        // within the documented bucket error.
        let summary = stats.latency_summary();
        for (stream, exact) in [(snap.p50(), summary.p50), (snap.p99(), summary.p99)] {
            let bound = exact.as_nanos() as f64 * eyeriss_telemetry::RELATIVE_ERROR + 1.0;
            let delta = stream.as_nanos().abs_diff(exact.as_nanos()) as f64;
            assert!(delta <= bound, "stream {stream:?} vs exact {exact:?}");
        }
    }

    #[test]
    fn rejects_wrong_input_dims() {
        let server = Server::start(tiny_net(), small_cfg());
        let bad = Tensor4::<Fix16>::zeros([1, 3, 18, 18]);
        assert!(matches!(server.submit(bad), Err(ServeError::Input(_))));
        let batch_of_two = Tensor4::<Fix16>::zeros([2, 3, 19, 19]);
        assert!(matches!(
            server.try_submit(batch_of_two),
            Err(ServeError::Input(_))
        ));
        let stats = server.shutdown();
        assert_eq!(stats.completed(), 0);
    }

    #[test]
    fn shutdown_drains_in_flight_requests() {
        let net = tiny_net();
        let shape = net.stages()[0].shape;
        let server = Server::start(net, small_cfg());
        let handles: Vec<_> = (0..8)
            .map(|i| server.submit(synth::ifmap(&shape, 1, i)).unwrap())
            .collect();
        let stats = server.shutdown(); // must not drop queued work
        assert_eq!(stats.completed(), 8);
        for handle in handles {
            assert!(handle.wait().is_ok());
        }
        // A server dropped without `shutdown` answers what it admitted.
        let server = Server::start(tiny_net(), small_cfg());
        let handle = server.submit(synth::ifmap(&shape, 1, 9)).unwrap();
        drop(server);
        assert!(handle.wait().is_ok());
    }

    #[test]
    fn prewarm_compiles_every_batch_size_and_survives_restart() {
        let net = tiny_net();
        let shape = net.stages()[0].shape;
        let cfg = small_cfg();
        let compiler = PlanCompiler::new(cfg.arrays, cfg.hw);
        let cache = Arc::clone(compiler.cache());

        let server = Server::start_with_compiler(net.clone(), cfg.clone(), compiler);
        let plans = server.prewarm().unwrap();
        assert_eq!(plans.len(), 4, "one compiled plan per batch size 1..=4");
        assert!(plans.iter().all(|p| p.analytic_delay() > 0.0));
        let warmed = server.cache_stats();
        // 3 weighted stages x 4 batch sizes, all distinct problems.
        assert_eq!(warmed.misses, 12);
        // A warmed server never searches at request time.
        let response = server.submit(synth::ifmap(&shape, 1, 5)).unwrap();
        response.wait().unwrap();
        assert_eq!(server.cache_stats().misses, warmed.misses);
        server.shutdown();

        // Restart sharing the same cache: prewarm is now free.
        let compiler = PlanCompiler::new(cfg.arrays, cfg.hw).with_cache(cache);
        let restarted = Server::start_with_compiler(net, cfg, compiler);
        let replans = restarted.prewarm().unwrap();
        assert!(replans.iter().all(|p| p.searched == 0), "all hits");
        assert_eq!(restarted.cache_stats().misses, warmed.misses);
        restarted.shutdown();
    }

    #[test]
    fn unbatched_policy_means_batch_size_one() {
        let net = tiny_net();
        let shape = net.stages()[0].shape;
        let mut cfg = small_cfg();
        cfg.policy = BatchPolicy::unbatched();
        cfg.workers = 1;
        let server = Server::start(net, cfg);
        let handles: Vec<_> = (0..3)
            .map(|i| server.submit(synth::ifmap(&shape, 1, i)).unwrap())
            .collect();
        for handle in handles {
            assert_eq!(handle.wait().unwrap().batch_size, 1);
        }
        let stats = server.shutdown();
        assert_eq!(stats.max_batch(), 1);
        // With unbatched policy every request is size 1 and the workers
        // share one network plan per batch size: the layer cache is
        // consulted only by the first compile (3 weighted stages), and
        // no number of further requests adds lookups of either kind.
        assert_eq!(stats.cache.misses, 3);
        assert_eq!(stats.cache.hits, 0);
    }

    #[test]
    fn injected_worker_panic_restarts_worker_and_types_the_loss() {
        let net = tiny_net();
        let golden = net.clone();
        let shape = net.stages()[0].shape;
        let mut cfg = small_cfg();
        cfg.workers = 1;
        cfg.policy = BatchPolicy::unbatched();
        // The slot's first batch pickup panics; later pickups are clean.
        cfg.faults =
            Some(FaultPlan::new(11).spec(FaultSpec::once(FaultKind::WorkerPanic, 0).target(0)));
        let server = Server::start(net, cfg);
        let lost = server.submit(synth::ifmap(&shape, 1, 1)).unwrap().wait();
        assert!(matches!(lost, Err(ServeError::WorkerLost)), "{lost:?}");
        // The supervisor restarted the slot: follow-ups complete
        // bit-exactly on the same server.
        let input = synth::ifmap(&shape, 1, 2);
        let response = server.submit(input.clone()).unwrap().wait().unwrap();
        assert_eq!(response.output, golden.forward(1, &input));
        let snap = server.snapshot();
        assert_eq!(snap.worker_restarts, 1);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.live_workers, 1, "restart keeps the pool at size");
        assert_eq!(snap.faults_injected, 1);
        server.shutdown();
    }

    #[test]
    fn transient_corruption_retries_to_bit_exact_output() {
        let net = tiny_net();
        let golden = net.clone();
        let shape = net.stages()[0].shape;
        let mut cfg = small_cfg();
        cfg.workers = 1;
        cfg.policy = BatchPolicy::unbatched();
        cfg.abft = true;
        // One transient psum flip on global array 0's first execution:
        // ABFT detects it, the batch retries, the clean pass is exact.
        cfg.faults =
            Some(FaultPlan::new(5).spec(FaultSpec::once(FaultKind::PsumBitFlip, 0).target(0)));
        let server = Server::start(net, cfg);
        let input = synth::ifmap(&shape, 1, 7);
        let response = server.submit(input.clone()).unwrap().wait().unwrap();
        assert_eq!(
            response.output,
            golden.forward(1, &input),
            "retried output must be bit-exact"
        );
        let snap = server.snapshot();
        assert_eq!(snap.retries, 1);
        assert_eq!((snap.faults_injected, snap.faults_detected), (1, 1));
        assert_eq!((snap.failed, snap.worker_restarts), (0, 0));
        assert_eq!(snap.quarantined_arrays, 0, "one strike, then a clean run");
        assert_eq!(snap.completed, 1);
        server.shutdown();
    }

    #[test]
    fn sched_server_routes_tenants_and_calibrates() {
        let net = tiny_net();
        let shape = net.stages()[0].shape;
        let cfg = ServeConfig {
            sched: Some(
                SchedConfig::new()
                    .tenant(TenantSpec::new("interactive").weight(3.0))
                    .tenant(TenantSpec::new("batch").priority(Priority::Low)),
            ),
            ..small_cfg()
        };
        let server = Server::start(net, cfg);
        server.prewarm().unwrap();
        let interactive = TenantId(1);
        let batch = TenantId(2);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let opts = SubmitOptions::tenant(if i % 2 == 0 { interactive } else { batch });
                server
                    .submit_with(synth::ifmap(&shape, 1, i as u64), opts)
                    .unwrap()
            })
            .collect();
        for handle in handles {
            handle.wait().unwrap();
        }
        let tenants = server.tenants();
        assert_eq!(tenants.len(), 3);
        assert_eq!(tenants[interactive.index()].completed, 2);
        assert_eq!(tenants[batch.index()].completed, 2);
        // Workers fed the estimator, so completion estimates are live.
        let estimator = server.shared.admission.estimator();
        assert!(estimator.samples() > 0);
        assert!(estimator.ns_per_cycle().unwrap() > 0.0);
        // An unknown tenant is rejected with a typed error.
        let err = server
            .submit_with(
                synth::ifmap(&shape, 1, 9),
                SubmitOptions::tenant(TenantId(77)),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Admission(AdmissionError::UnknownTenant(77))
        ));
        // Registering it live makes the same id usable.
        let late = server.register_tenant(TenantSpec::new("late"));
        assert_eq!(late, TenantId(3));
        server
            .submit_with(synth::ifmap(&shape, 1, 9), SubmitOptions::tenant(late))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(server.tenants()[late.index()].completed, 1);
        server.shutdown();
    }

    #[test]
    fn sched_server_rejects_passed_deadlines_and_expires_queued_work() {
        let net = tiny_net();
        let shape = net.stages()[0].shape;
        let server = Server::start(net, small_cfg());
        // A zero deadline has always already passed at admission.
        let err = server
            .submit_with(
                synth::ifmap(&shape, 1, 1),
                SubmitOptions::default().deadline(Duration::ZERO),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Admission(AdmissionError::DeadlinePassed)
        ));
        let snap = server.snapshot();
        assert_eq!(snap.tenants[0].rejected, 1);
        assert_eq!(snap.completed, 0);
        // A generous deadline admits and completes.
        server
            .submit_with(
                synth::ifmap(&shape, 1, 2),
                SubmitOptions::default().deadline(Duration::from_secs(60)),
            )
            .unwrap()
            .wait()
            .unwrap();
        let stats = server.shutdown();
        assert_eq!(stats.completed(), 1);
    }

    /// The explicit preset the benchmark sets; it must serve exactly as
    /// the unset (`None`) default does.
    fn sched_cfg() -> ServeConfig {
        ServeConfig {
            sched: Some(SchedConfig::new()),
            ..small_cfg()
        }
    }

    #[test]
    fn sched_server_serves_bit_exactly_via_default_tenant() {
        let net = tiny_net();
        let golden_net = net.clone();
        let shape = net.stages()[0].shape;
        let server = Server::start(net, sched_cfg());
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let input = synth::ifmap(&shape, 1, 100 + i);
                (i, server.submit(input).unwrap())
            })
            .collect();
        for (i, handle) in handles {
            let input = synth::ifmap(&shape, 1, 100 + i);
            let golden = golden_net.forward(1, &input);
            assert_eq!(
                handle.wait().unwrap().output,
                golden,
                "request {i} diverged"
            );
        }
        let snap = server.snapshot();
        assert_eq!(snap.completed, 6);
        assert_eq!(snap.queue_depth, 0, "ready queue drained");
        // Plain submits land on the always-present default tenant.
        assert_eq!(snap.tenants.len(), 1);
        let t = &snap.tenants[0];
        assert_eq!(t.name, "default");
        assert_eq!((t.submitted, t.admitted, t.completed), (6, 6, 6));
        assert_eq!((t.rejected, t.shed, t.expired), (0, 0, 0));
        assert_eq!(t.failed, 0);
        let stats = server.shutdown();
        assert_eq!(stats.completed(), 6);
    }

    #[test]
    fn sched_shutdown_drains_in_flight_requests() {
        let net = tiny_net();
        let shape = net.stages()[0].shape;
        let server = Server::start(net, sched_cfg());
        let handles: Vec<_> = (0..8)
            .map(|i| server.submit(synth::ifmap(&shape, 1, i)).unwrap())
            .collect();
        let stats = server.shutdown(); // must not drop queued work
        assert_eq!(stats.completed(), 8);
        for handle in handles {
            assert!(handle.wait().is_ok());
        }
    }
}
