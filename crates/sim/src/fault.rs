//! Deterministic, seeded fault injection.
//!
//! Real spatial-array deployments see transient bit flips in psum
//! accumulators and weight scratchpads, corrupted DRAM reads, straggler
//! arrays and outright array or worker crashes. This module describes
//! those faults as data — a [`FaultPlan`] of [`FaultSpec`]s on a
//! reproducible schedule — and turns the plan into a shared
//! [`FaultInjector`] that the cluster executor and the serving runtime
//! poll at well-defined points:
//!
//! * **array scope** — once per array per layer execution
//!   ([`FaultInjector::poll_array`], keyed by a fleet-global array id):
//!   psum/weight bit flips, DRAM read corruption, stall/slowdown,
//!   crash;
//! * **worker scope** — once per batch pickup
//!   ([`FaultInjector::poll_worker`], keyed by worker index):
//!   worker panic.
//!
//! Like telemetry, injection is **off by default and zero-cost when
//! disabled**: consumers hold an `Option<FaultInjector>` and the
//! fault-free hot path pays one `is_none()` branch. Every decision is a
//! pure function of `(seed, scope id, run index, spec)`, so a failing
//! chaos run replays exactly — including which element and which bit a
//! flip lands on.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// The kinds of fault the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Flip one bit of one psum accumulator after an array's compute
    /// (a transient SEU in the psum datapath).
    PsumBitFlip,
    /// Flip one bit of one weight word before an array's compute (a
    /// corrupted filter scratchpad fill).
    WeightBitFlip,
    /// Flip one bit of one ifmap word before an array's compute (a
    /// corrupted DRAM read burst).
    DramCorrupt,
    /// Slow the array down: extra stall cycles in its statistics plus a
    /// real wall-clock delay (a straggler, not an error).
    Stall,
    /// The array fails outright for this execution (and, with a
    /// persistent window, every later one).
    Crash,
    /// The worker thread hosting the array panics at batch pickup.
    WorkerPanic,
}

/// When a spec fires, in scope-local run indices (run 0 is the scope's
/// first execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultWindow {
    /// Fires on exactly one run — a **transient** fault.
    Once(u64),
    /// Fires on every run at or after `0`'s value — a **persistent**
    /// fault (a dead array keeps failing until quarantined).
    From(u64),
    /// Fires periodically: runs `start`, `start + period`, … —
    /// recurring transients.
    Every {
        /// First firing run.
        start: u64,
        /// Runs between firings (clamped to at least 1).
        period: u64,
    },
}

impl FaultWindow {
    fn fires(&self, run: u64) -> bool {
        match *self {
            FaultWindow::Once(n) => run == n,
            FaultWindow::From(n) => run >= n,
            FaultWindow::Every { start, period } => {
                run >= start && (run - start).is_multiple_of(period.max(1))
            }
        }
    }
}

/// One scheduled fault: what, where and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// Scope id the spec targets: a fleet-global array id for array
    /// faults, a worker index for [`FaultKind::WorkerPanic`]. `None`
    /// targets every scope.
    pub target: Option<usize>,
    /// When the spec fires, in the target scope's run indices.
    pub window: FaultWindow,
}

impl FaultSpec {
    /// A spec of `kind` firing once on run `run` of every scope.
    pub fn once(kind: FaultKind, run: u64) -> FaultSpec {
        FaultSpec {
            kind,
            target: None,
            window: FaultWindow::Once(run),
        }
    }

    /// A persistent spec of `kind` firing on every run at or after
    /// `run`.
    pub fn from(kind: FaultKind, run: u64) -> FaultSpec {
        FaultSpec {
            kind,
            target: None,
            window: FaultWindow::From(run),
        }
    }

    /// Restricts the spec to one scope id (array id or worker index).
    pub fn target(mut self, id: usize) -> FaultSpec {
        self.target = Some(id);
        self
    }
}

/// A reproducible fault schedule: a seed (which element/bit each flip
/// lands on) plus the specs. Carried by configuration
/// (`ServeConfig::faults` in `eyeriss-serve`); `None`/absent means no
/// injection and no cost.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed deriving every per-fault random choice.
    pub seed: u64,
    /// The scheduled faults.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan under `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Adds one spec (builder style).
    pub fn spec(mut self, spec: FaultSpec) -> FaultPlan {
        self.specs.push(spec);
        self
    }

    /// True when no spec can ever fire.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// One corruption to apply to an array execution: the kind and a
/// deterministic salt the consumer maps onto an element index and bit
/// position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corruption {
    /// [`FaultKind::PsumBitFlip`], [`FaultKind::WeightBitFlip`] or
    /// [`FaultKind::DramCorrupt`].
    pub kind: FaultKind,
    /// Seed-derived salt, unique per `(seed, array, run, spec)`.
    pub salt: u64,
}

/// Everything the injector decided for one array execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArrayInjection {
    /// The array fails this execution.
    pub crash: bool,
    /// The array stalls (consumer adds stall cycles and a real delay).
    pub stall: bool,
    /// Data corruptions to apply, in spec order.
    pub corruptions: Vec<Corruption>,
}

#[derive(Debug, Default)]
struct InjectorState {
    /// Per-array run counters (array faults).
    array_runs: HashMap<usize, u64>,
    /// Per-worker run counters (worker panics).
    worker_runs: HashMap<usize, u64>,
}

#[derive(Debug)]
struct InjectorInner {
    plan: FaultPlan,
    state: Mutex<InjectorState>,
    injected_total: AtomicU64,
    /// Mirrored `sim.faults_injected` counter, when telemetry is
    /// attached.
    tele: Option<eyeriss_telemetry::Counter>,
}

/// The shared runtime of a [`FaultPlan`]: run counters per scope and
/// lifetime injection counts. Cheap to clone — all clones share state,
/// so one injector can serve every worker cluster of a pool while
/// keeping a single deterministic timeline per scope.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    inner: Arc<InjectorInner>,
}

/// splitmix64 — a tiny, well-mixed PRF for deriving per-fault salts.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl FaultInjector {
    /// Builds the runtime for `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            inner: Arc::new(InjectorInner {
                plan,
                state: Mutex::new(InjectorState::default()),
                injected_total: AtomicU64::new(0),
                tele: None,
            }),
        }
    }

    /// Mirrors every injection into `tele`'s `sim.faults_injected`
    /// counter. Call before cloning the injector out to consumers.
    pub fn with_telemetry(mut self, tele: &eyeriss_telemetry::Telemetry) -> FaultInjector {
        let inner = Arc::get_mut(&mut self.inner)
            .expect("attach telemetry before sharing the injector across threads");
        inner.tele = Some(tele.counter("sim.faults_injected"));
        self
    }

    fn count(&self) {
        self.inner.injected_total.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = &self.inner.tele {
            c.inc();
        }
    }

    /// Total faults injected so far, across every scope and kind.
    pub fn injected(&self) -> u64 {
        self.inner.injected_total.load(Ordering::Relaxed)
    }

    /// Advances `array`'s run counter and returns what (if anything) to
    /// inject into this execution. `array` is a fleet-global id
    /// (`worker_index × arrays_per_worker + local_index` in the serving
    /// runtime), so specs can target one physical array across worker
    /// restarts.
    pub fn poll_array(&self, array: usize) -> ArrayInjection {
        let run = {
            let mut state = self
                .inner
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let slot = state.array_runs.entry(array).or_insert(0);
            let run = *slot;
            *slot += 1;
            run
        };
        let mut inj = ArrayInjection::default();
        for (i, spec) in self.inner.plan.specs.iter().enumerate() {
            if spec.kind == FaultKind::WorkerPanic
                || spec.target.is_some_and(|t| t != array)
                || !spec.window.fires(run)
            {
                continue;
            }
            match spec.kind {
                FaultKind::Crash => inj.crash = true,
                FaultKind::Stall => inj.stall = true,
                FaultKind::PsumBitFlip | FaultKind::WeightBitFlip | FaultKind::DramCorrupt => {
                    inj.corruptions.push(Corruption {
                        kind: spec.kind,
                        salt: mix(self
                            .inner
                            .plan
                            .seed
                            .wrapping_add(mix(array as u64))
                            .wrapping_add(mix(run).rotate_left(17))
                            .wrapping_add(i as u64)),
                    });
                }
                FaultKind::WorkerPanic => unreachable!("filtered above"),
            }
            self.count();
        }
        inj
    }

    /// Advances `worker`'s run counter (one run per batch pickup) and
    /// returns whether a [`FaultKind::WorkerPanic`] fires now.
    pub fn poll_worker(&self, worker: usize) -> bool {
        let run = {
            let mut state = self
                .inner
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let slot = state.worker_runs.entry(worker).or_insert(0);
            let run = *slot;
            *slot += 1;
            run
        };
        let fires = self.inner.plan.specs.iter().any(|spec| {
            spec.kind == FaultKind::WorkerPanic
                && spec.target.is_none_or(|t| t == worker)
                && spec.window.fires(run)
        });
        if fires {
            self.count();
        }
        fires
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_fire_as_documented() {
        assert!(FaultWindow::Once(3).fires(3));
        assert!(!FaultWindow::Once(3).fires(2) && !FaultWindow::Once(3).fires(4));
        assert!(FaultWindow::From(2).fires(2) && FaultWindow::From(2).fires(100));
        assert!(!FaultWindow::From(2).fires(1));
        let every = FaultWindow::Every {
            start: 1,
            period: 3,
        };
        assert!(every.fires(1) && every.fires(4) && every.fires(7));
        assert!(!every.fires(0) && !every.fires(2));
        // A zero period is clamped, not a division by zero.
        assert!(FaultWindow::Every {
            start: 0,
            period: 0
        }
        .fires(5));
    }

    #[test]
    fn poll_array_is_deterministic_and_scoped() {
        let plan = FaultPlan::new(42)
            .spec(FaultSpec::once(FaultKind::PsumBitFlip, 1).target(0))
            .spec(FaultSpec::from(FaultKind::Crash, 2).target(1));
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        for run in 0..4 {
            // Array 0: clean, flip, clean, clean.
            let flip = a.poll_array(0);
            assert_eq!(flip, b.poll_array(0));
            let kinds: Vec<_> = flip.corruptions.iter().map(|c| c.kind).collect();
            let want = if run == 1 {
                vec![FaultKind::PsumBitFlip]
            } else {
                vec![]
            };
            assert_eq!(kinds, want, "array 0, run {run}");
            assert!(!flip.crash && !flip.stall);
            // Array 1: clean, clean, crash, crash.
            let crash = a.poll_array(1);
            assert_eq!(crash, b.poll_array(1));
            let want = ArrayInjection {
                crash: run >= 2,
                ..ArrayInjection::default()
            };
            assert_eq!(crash, want, "array 1, run {run}");
        }
        assert_eq!(a.injected(), 3);
        // Replays agree injection-for-injection, salt included.
        assert_eq!(b.injected(), 3);
    }

    #[test]
    fn untargeted_specs_hit_every_scope_independently() {
        let inj =
            FaultInjector::new(FaultPlan::new(7).spec(FaultSpec::once(FaultKind::DramCorrupt, 0)));
        let x = inj.poll_array(3);
        let y = inj.poll_array(9);
        assert_eq!(x.corruptions.len(), 1);
        assert_eq!(y.corruptions.len(), 1);
        // Scope feeds the salt: distinct arrays corrupt distinct spots.
        assert_ne!(x.corruptions[0].salt, y.corruptions[0].salt);
        // Each scope's run counter advanced independently past the window.
        assert_eq!(inj.poll_array(3), ArrayInjection::default());
        assert_eq!(inj.poll_array(9), ArrayInjection::default());
    }

    #[test]
    fn worker_panic_polls_separate_counters() {
        let inj = FaultInjector::new(
            FaultPlan::new(1).spec(FaultSpec::once(FaultKind::WorkerPanic, 1).target(0)),
        );
        assert!(!inj.poll_worker(0), "run 0 clean");
        assert!(!inj.poll_worker(1), "other worker untouched");
        assert!(inj.poll_worker(0), "run 1 fires");
        assert!(!inj.poll_worker(0));
        // Array polls never see worker specs.
        assert_eq!(inj.poll_array(0), ArrayInjection::default());
        assert_eq!(inj.poll_array(0), ArrayInjection::default());
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn clones_share_one_timeline() {
        let inj = FaultInjector::new(
            FaultPlan::new(5).spec(FaultSpec::once(FaultKind::Stall, 1).target(2)),
        );
        let clone = inj.clone();
        assert_eq!(inj.poll_array(2), ArrayInjection::default(), "run 0");
        assert!(clone.poll_array(2).stall, "clone sees run 1");
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn telemetry_mirror_counts_injections() {
        let tele = eyeriss_telemetry::Telemetry::new_enabled();
        let inj = FaultInjector::new(FaultPlan::new(3).spec(FaultSpec::from(FaultKind::Crash, 0)))
            .with_telemetry(&tele);
        inj.poll_array(0);
        inj.poll_array(0);
        assert_eq!(tele.counter("sim.faults_injected").get(), 2);
    }
}
