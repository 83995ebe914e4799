//! Acceptance tests for the fault-tolerance layer: injected worker
//! panics leave the server completing subsequent requests with the loss
//! typed (never a hang), transient faults retry to bit-exact outputs
//! under arbitrary seeded schedules, quarantine never drops an
//! in-flight request, and losing the whole pool fails clients typed
//! instead of hanging them.

use eyeriss::nn::network::NetworkBuilder;
use eyeriss::prelude::*;
use eyeriss::serve::{
    BatchPolicy, FaultKind, FaultPlan, FaultSpec, RecoveryPolicy, SchedConfig, ServeConfig,
    ServeError, Server,
};
use proptest::prelude::*;
use std::time::Duration;

fn tiny_net() -> eyeriss::nn::network::Network {
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

fn fault_cfg(workers: usize, arrays: usize, faults: FaultPlan) -> ServeConfig {
    ServeConfig {
        arrays,
        workers,
        policy: BatchPolicy::unbatched(),
        queue_capacity: 64,
        hw: AcceleratorConfig::eyeriss_chip(),
        telemetry: None,
        slos: Vec::new(),
        flight_capacity: 256,
        sched: None,
        faults: Some(faults),
        abft: true,
        recovery: RecoveryPolicy::new(),
    }
}

/// With the default configuration (no `sched` set: one default tenant
/// served in FIFO order), an injected worker panic types the lost
/// request as [`ServeError::WorkerLost`] — the client returns
/// immediately, never hangs — and the tenant's books balance (`failed`
/// absorbs the admitted request; `submitted` counts never leak). The
/// supervisor restarts the slot, so every subsequent request on the
/// *same* server completes bit-exactly.
#[test]
fn fifo_worker_panic_is_typed_and_the_pool_self_heals() {
    let net = tiny_net();
    let golden = net.clone();
    let shape = net.stages()[0].shape;
    let plan = FaultPlan::new(7).spec(FaultSpec::once(FaultKind::WorkerPanic, 0).target(0));
    let server = Server::start(net, fault_cfg(1, 2, plan));

    let lost = server.submit(synth::ifmap(&shape, 1, 1)).unwrap().wait();
    assert!(matches!(lost, Err(ServeError::WorkerLost)), "{lost:?}");
    let t = &server.tenants()[0];
    assert_eq!((t.submitted, t.admitted), (1, 1));
    assert_eq!((t.failed, t.completed), (1, 0), "the loss is attributed");

    for i in 2..6u64 {
        let input = synth::ifmap(&shape, 1, i);
        let response = server.submit(input.clone()).unwrap().wait().unwrap();
        assert_eq!(
            response.output,
            golden.forward(1, &input),
            "post-restart request {i} diverged"
        );
    }
    let t = &server.tenants()[0];
    assert_eq!(
        (t.submitted, t.admitted, t.completed, t.failed),
        (5, 5, 4, 1)
    );
    let snap = server.snapshot();
    assert_eq!(snap.worker_restarts, 1);
    assert_eq!(snap.failed, 1);
    assert_eq!(snap.completed, 4);
    assert_eq!(snap.live_workers, 1, "the restarted slot rejoins the pool");
    server.shutdown();
}

/// The same injection with an explicit [`SchedConfig::new()`], the
/// preset the benchmark sets: the loss is typed, the tenant's books
/// balance, and the restarted pool completes the tenant's next request.
#[test]
fn sched_worker_panic_marks_the_tenant_request_failed() {
    let net = tiny_net();
    let golden = net.clone();
    let shape = net.stages()[0].shape;
    let plan = FaultPlan::new(9).spec(FaultSpec::once(FaultKind::WorkerPanic, 0).target(0));
    let mut cfg = fault_cfg(1, 2, plan);
    cfg.sched = Some(SchedConfig::new());
    let server = Server::start(net, cfg);

    let lost = server.submit(synth::ifmap(&shape, 1, 1)).unwrap().wait();
    assert!(matches!(lost, Err(ServeError::WorkerLost)), "{lost:?}");
    let t = &server.tenants()[0];
    assert_eq!((t.submitted, t.admitted), (1, 1));
    assert_eq!((t.failed, t.completed), (1, 0), "the loss is attributed");

    let input = synth::ifmap(&shape, 1, 2);
    let response = server.submit(input.clone()).unwrap().wait().unwrap();
    assert_eq!(response.output, golden.forward(1, &input));
    let t = &server.tenants()[0];
    assert_eq!(
        (t.submitted, t.admitted, t.completed, t.failed),
        (2, 2, 1, 1)
    );
    assert_eq!(server.snapshot().worker_restarts, 1);
    server.shutdown();
}

/// When every worker retires, the server stops admitting: requests
/// already in flight or queued fail with [`ServeError::WorkerLost`], and
/// a later submit is refused at once with [`ServeError::ShutDown`]
/// instead of queueing for a pool that no longer exists.
#[test]
fn losing_the_whole_pool_refuses_later_submits() {
    let net = tiny_net();
    let shape = net.stages()[0].shape;
    // The only array crashes on every run: two strikes quarantine it and
    // its worker, the whole pool, retires.
    let plan = FaultPlan::new(5).spec(FaultSpec::from(FaultKind::Crash, 0).target(0));
    let server = Server::start(net, fault_cfg(1, 1, plan));

    let a = server.submit(synth::ifmap(&shape, 1, 1)).unwrap().wait();
    assert!(matches!(a, Err(ServeError::WorkerLost)), "A: {a:?}");
    let b = server.submit(synth::ifmap(&shape, 1, 2));
    assert!(matches!(b, Err(ServeError::ShutDown)), "B: {b:?}");
    let c = server.submit(synth::ifmap(&shape, 1, 3));
    assert!(matches!(c, Err(ServeError::ShutDown)), "C: {c:?}");
    let snap = server.snapshot();
    assert_eq!((snap.live_workers, snap.quarantined_arrays), (0, 1));
    server.shutdown();
}

/// A persistent crash quarantines its array and retires its
/// single-array worker — and through all of it not one in-flight
/// request is dropped: the struck batches re-queue onto the surviving
/// worker and complete bit-exactly.
#[test]
fn quarantine_never_drops_an_in_flight_request() {
    let net = tiny_net();
    let golden = net.clone();
    let shape = net.stages()[0].shape;
    // Array 1 (worker 1's only array) crashes on every execution: two
    // consecutive strikes quarantine it and the worker retires.
    let plan = FaultPlan::new(3).spec(FaultSpec::from(FaultKind::Crash, 0).target(1));
    let server = Server::start(net, fault_cfg(2, 1, plan));

    let mut submitted = 0u64;
    // Bursts keep both workers busy so the doomed worker keeps drawing
    // batches until its second strike; cap well above the two pickups
    // quarantine needs.
    while server.snapshot().quarantined_arrays == 0 && submitted < 64 {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                submitted += 1;
                let input = synth::ifmap(&shape, 1, submitted);
                (submitted, server.submit(input).unwrap())
            })
            .collect();
        for (seed, handle) in handles {
            let input = synth::ifmap(&shape, 1, seed);
            let response = handle.wait().expect("crashed batches must re-queue");
            assert_eq!(
                response.output,
                golden.forward(1, &input),
                "request {seed} diverged"
            );
        }
    }
    let snap = server.snapshot();
    assert_eq!(snap.quarantined_arrays, 1, "the crashing array quarantines");
    assert_eq!(snap.live_workers, 1, "its worker retires");
    assert_eq!(snap.failed, 0, "no request was dropped or exhausted");
    assert_eq!(snap.completed, submitted);

    // The degraded pool keeps serving bit-exactly.
    let input = synth::ifmap(&shape, 1, 999);
    let response = server.submit(input.clone()).unwrap().wait().unwrap();
    assert_eq!(response.output, golden.forward(1, &input));
    server.shutdown();
}

/// One sampled fault for the chaos properties below, as a raw
/// `(kind index, run, target)` tuple, firing once at a small run index
/// on one of the four global arrays (2 workers x 2 arrays). The first
/// `kinds` entries of [`KINDS`] are eligible.
fn arb_fault(kinds: usize) -> impl Strategy<Value = (usize, u64, usize)> {
    (0usize..kinds, 0u64..3, 0usize..4)
}

/// Ordered so a prefix selects the detection-guaranteed kinds: a psum
/// bit flip always shifts the ABFT sum by ±2^b, a crash is typed, a
/// stall only slows — while weight/ifmap corruption (the tail) is
/// caught only when its net effect on the checksum is non-zero.
const KINDS: [FaultKind; 5] = [
    FaultKind::PsumBitFlip,
    FaultKind::Crash,
    FaultKind::Stall,
    FaultKind::WeightBitFlip,
    FaultKind::DramCorrupt,
];

fn spec_of((kind, run, target): (usize, u64, usize)) -> FaultSpec {
    FaultSpec::once(KINDS[kind], run).target(target)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Chaos property: under ANY schedule of one-shot psum flips,
    /// crashes and stalls (any seed, any timing), an ABFT-enabled
    /// server completes every request bit-exactly. At most three
    /// strikes can hit one batch and the retry budget is three, so
    /// nothing ever exhausts; ABFT's checksum catches every single
    /// psum corruption before a wrong answer can escape. Sampled specs
    /// are deduplicated to one fault per array execution `(run,
    /// target)` — the additive checksum guarantees detection of any
    /// *single* corrupted execution, while two coincident corruptions
    /// can cancel in the sum (the classic ABFT single-error detection
    /// bound, exercised and documented in `eyeriss_nn::abft`).
    #[test]
    fn prop_transient_faults_always_retry_to_bit_exact_outputs(
        seed in 0u64..1000,
        specs in proptest::collection::vec(arb_fault(3), 1..4),
    ) {
        let net = tiny_net();
        let golden = net.clone();
        let shape = net.stages()[0].shape;
        let mut seen = std::collections::HashSet::new();
        let plan = specs
            .into_iter()
            .filter(|&(_, run, target)| seen.insert((run, target)))
            .map(spec_of)
            .fold(FaultPlan::new(seed), |plan, spec| plan.spec(spec));
        let server = Server::start(net, fault_cfg(2, 2, plan));
        let handles: Vec<_> = (0..6u64)
            .map(|i| (i, server.submit(synth::ifmap(&shape, 1, i)).unwrap()))
            .collect();
        for (i, handle) in handles {
            let response = handle.wait().expect("non-panic faults always retry");
            let input = synth::ifmap(&shape, 1, i);
            prop_assert_eq!(
                response.output,
                golden.forward(1, &input),
                "request {} diverged under injected faults",
                i
            );
        }
        let snap = server.snapshot();
        prop_assert_eq!(snap.completed, 6);
        prop_assert_eq!(snap.failed, 0);
        // Detections never exceed injections (crashes and stalls are
        // injected but not ABFT-detected).
        prop_assert!(snap.faults_detected <= snap.faults_injected);
        server.shutdown();
    }

    /// Liveness property over EVERY non-panic fault kind, including
    /// weight/ifmap corruption whose checksum detection is
    /// overwhelming-probability rather than guaranteed: whatever is
    /// injected, every client gets a definitive answer — a response or
    /// a typed error, never a hang — and the server's books balance.
    #[test]
    fn prop_no_fault_schedule_hangs_a_client(
        seed in 0u64..1000,
        specs in proptest::collection::vec(arb_fault(5), 1..4),
    ) {
        let net = tiny_net();
        let shape = net.stages()[0].shape;
        let plan = specs
            .into_iter()
            .map(spec_of)
            .fold(FaultPlan::new(seed), |plan, spec| plan.spec(spec));
        let server = Server::start(net, fault_cfg(2, 2, plan));
        let handles: Vec<_> = (0..6u64)
            .map(|i| server.submit(synth::ifmap(&shape, 1, i)).unwrap())
            .collect();
        let mut answered = 0u64;
        for handle in handles {
            // Returning at all is the property; both arms count.
            match handle.wait() {
                Ok(_) => answered += 1,
                Err(_) => answered += 1,
            }
        }
        prop_assert_eq!(answered, 6);
        let snap = server.snapshot();
        prop_assert_eq!(snap.completed + snap.failed, 6);
        server.shutdown();
    }
}

/// Shutdown with a dead-and-restarted worker still drains: queued work
/// after a panic completes or fails typed, never hangs the caller.
#[test]
fn shutdown_after_panic_leaves_no_hung_clients() {
    let net = tiny_net();
    let shape = net.stages()[0].shape;
    let plan = FaultPlan::new(13).spec(FaultSpec::once(FaultKind::WorkerPanic, 0).target(0));
    let mut cfg = fault_cfg(1, 2, plan);
    cfg.policy = BatchPolicy {
        max_batch: 4,
        max_wait: Duration::from_millis(5),
    };
    let server = Server::start(net, cfg);
    let handles: Vec<_> = (0..8u64)
        .map(|i| server.submit(synth::ifmap(&shape, 1, i)).unwrap())
        .collect();
    server.shutdown();
    let (mut ok, mut lost) = (0, 0);
    for handle in handles {
        match handle.wait() {
            Ok(_) => ok += 1,
            Err(ServeError::WorkerLost) => lost += 1,
            Err(e) => panic!("unexpected error after shutdown: {e}"),
        }
    }
    assert_eq!(ok + lost, 8, "every client got a definitive answer");
    assert!(lost >= 1, "the panicked batch is typed as lost");
    assert!(ok >= 1, "the restarted worker completed the rest");
}
