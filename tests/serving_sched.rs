//! Property and integration tests for the `serve::sched` scheduling
//! layer: EDF dispatch order under concurrent submission, DRR share
//! convergence, aging as a starvation bound, the admission controller's
//! "never accept a passed deadline" invariant, and end-to-end
//! multi-tenant behavior through a live [`Server`].

use eyeriss::nn::network::NetworkBuilder;
use eyeriss::nn::synth;
use eyeriss::prelude::*;
use eyeriss::serve::sched::{AdmissionController, AdmitRequest, Backlog, ReadyQueue};
use eyeriss::serve::{
    AdmissionError, BatchPolicy, Priority, RateLimit, RecoveryPolicy, SchedConfig, ServeConfig,
    ServeError, Server, SubmitOptions, TenantId, TenantSpec,
};
use eyeriss::telemetry::Telemetry;
use proptest::prelude::*;
use std::time::Duration;

/// Sentinel for "no deadline" when the queued item *is* its deadline.
const NO_DEADLINE: u64 = u64::MAX;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// EDF within a lane survives concurrent submission: however four
    /// threads interleave their pushes, a single-tenant single-tier
    /// queue drains in non-decreasing deadline order (deadline-free
    /// entries last).
    #[test]
    fn prop_edf_orders_concurrent_submissions(
        deadlines in proptest::collection::vec(
            (0u64..1_000_000).prop_map(|v| (v != 0).then_some(v)), 8..64),
    ) {
        let queue = ReadyQueue::new(deadlines.len(), 1.0, 0);
        std::thread::scope(|scope| {
            for chunk in deadlines.chunks(deadlines.len().div_ceil(4)) {
                let queue = &queue;
                scope.spawn(move || {
                    for &deadline in chunk {
                        let item = deadline.unwrap_or(NO_DEADLINE);
                        queue
                            .push(item, 0, 1.0, 0, deadline, 0)
                            .expect("queue sized for all entries");
                    }
                });
            }
        });
        let mut drained = Vec::new();
        while let Some((item, popped)) = queue.pop(0) {
            prop_assert_eq!(popped.lane, 0);
            drained.push(item);
        }
        prop_assert_eq!(drained.len(), deadlines.len());
        for pair in drained.windows(2) {
            prop_assert!(
                pair[0] <= pair[1],
                "EDF violated: {} dispatched before {}",
                pair[0],
                pair[1]
            );
        }
    }

    /// DRR throughput shares converge to the weight ratio: two lanes
    /// backlogged throughout an integral number of rounds split the
    /// dispatches `w0 : w1` within one round of slack.
    #[test]
    fn prop_drr_shares_converge_to_weights(
        w0 in 1u32..=8, w1 in 1u32..=8, rounds in 2usize..=6,
    ) {
        let per_round = (w0 + w1) as usize;
        let pops = rounds * per_round;
        // Enough backlog that neither lane empties mid-measurement.
        let queue = ReadyQueue::new(2 * pops, 1.0, 0);
        for i in 0..pops as u64 {
            queue.push(i, 0, f64::from(w0), 0, None, 0).unwrap();
            queue.push(i, 1, f64::from(w1), 0, None, 0).unwrap();
        }
        let mut counts = [0usize; 2];
        for _ in 0..pops {
            let (_, popped) = queue.pop(0).expect("backlog covers every pop");
            counts[popped.lane] += 1;
        }
        let expect0 = rounds * w0 as usize;
        prop_assert!(
            counts[0].abs_diff(expect0) <= per_round,
            "lane 0 took {} of {} dispatches; weights {}:{} expect ~{}",
            counts[0], pops, w0, w1, expect0
        );
    }

    /// Aging prevents starvation: a lowest-tier entry buried under a
    /// high-priority flood is promoted to the front once enough time
    /// passes — and without aging, the same entry drains dead last.
    #[test]
    fn prop_aging_prevents_starvation(
        aging_ns in 1_000u64..100_000, flood in 8usize..32,
    ) {
        const STARVED: u64 = u64::MAX;
        let aged = ReadyQueue::new(flood + 1, 1.0, aging_ns);
        let frozen = ReadyQueue::new(flood + 1, 1.0, 0);
        for queue in [&aged, &frozen] {
            queue
                .push(STARVED, 0, 1.0, Priority::Low.tier(), None, 0)
                .unwrap();
            for i in 0..flood as u64 {
                queue.push(i, 1, 1.0, Priority::High.tier(), None, 0).unwrap();
            }
        }
        // Two aging intervals later the Low entry reaches tier 0 and
        // competes under DRR at equal weight: it dispatches within the
        // first few pops instead of waiting out the whole flood.
        let now = 2 * aging_ns;
        let position = |queue: &ReadyQueue<u64>| {
            let mut pos = 0usize;
            while let Some((item, _)) = queue.pop(now) {
                if item == STARVED {
                    return pos;
                }
                pos += 1;
            }
            unreachable!("starved entry was queued");
        };
        prop_assert!(
            position(&aged) < 4,
            "aged entry should dispatch near the front"
        );
        prop_assert_eq!(
            position(&frozen), flood,
            "without aging the Low entry drains last"
        );
    }

    /// The admission controller never accepts a request whose deadline
    /// already passed — calibrated or not, burning or not, regardless
    /// of backlog or tier.
    #[test]
    fn prop_admission_never_accepts_past_deadlines(
        now_ns in 0u64..u64::MAX / 2,
        late_by in 0u64..1_000_000,
        tier in 0u8..=2,
        queued in 0i64..64,
        inflight in 0i64..8,
        burning in any::<bool>(),
        calibration in (0u64..10_000).prop_map(|v| (v != 0).then_some(v)),
    ) {
        let registry =
            eyeriss::serve::sched::TenantRegistry::new(Telemetry::new_enabled());
        let tenant = registry.get(Default::default()).unwrap();
        let controller = AdmissionController::new(2, 4);
        if let Some(ns) = calibration {
            controller.estimator().observe(100.0, 100 * ns);
        }
        let verdict = controller.admit(
            &tenant,
            AdmitRequest {
                tier,
                deadline_ns: Some(now_ns.saturating_sub(late_by)),
                now_ns,
                unit_cycles: Some(1_000.0),
                backlog: Backlog { queued, inflight },
                burning,
            },
        );
        prop_assert_eq!(verdict, Err(AdmissionError::DeadlinePassed));
    }

    /// Once calibrated, a future deadline the completion estimate
    /// cannot make is rejected as infeasible, and the error carries
    /// the estimate that condemned it.
    #[test]
    fn prop_calibrated_admission_rejects_infeasible_deadlines(
        now_ns in 0u64..1 << 40,
        ns_per_cycle in 1u64..1_000,
        queued in 0i64..64,
        inflight in 0i64..8,
        slack_num in 1u64..100,
    ) {
        let registry =
            eyeriss::serve::sched::TenantRegistry::new(Telemetry::new_enabled());
        let tenant = registry.get(Default::default()).unwrap();
        let controller = AdmissionController::new(2, 4);
        controller.estimator().observe(100.0, 100 * ns_per_cycle);
        let backlog = Backlog { queued, inflight };
        let estimated = controller
            .estimate_completion_ns(now_ns, Some(1_000.0), backlog)
            .expect("calibrated");
        prop_assume!(estimated > now_ns + 1);
        // A deadline strictly between now and the estimate.
        let deadline = now_ns + 1 + (estimated - now_ns - 1) * slack_num / 100;
        prop_assume!(deadline < estimated);
        let verdict = controller.admit(
            &tenant,
            AdmitRequest {
                tier: 0,
                deadline_ns: Some(deadline),
                now_ns,
                unit_cycles: Some(1_000.0),
                backlog,
                burning: false,
            },
        );
        prop_assert_eq!(
            verdict,
            Err(AdmissionError::DeadlineInfeasible {
                estimated_ns: estimated,
                deadline_ns: deadline,
            })
        );
    }
}

fn sched_server(sched: SchedConfig) -> (Server, eyeriss::nn::LayerShape) {
    let net = NetworkBuilder::new(3, 19)
        .conv("C1", 8, 3, 2)
        .unwrap()
        .fully_connected("FC", 10)
        .unwrap()
        .build(7);
    let shape = net.stages()[0].shape;
    let cfg = ServeConfig {
        arrays: 2,
        workers: 1,
        policy: BatchPolicy {
            max_batch: 2,
            max_wait: Duration::from_millis(1),
        },
        queue_capacity: 16,
        hw: AcceleratorConfig::eyeriss_chip(),
        telemetry: None,
        slos: Vec::new(),
        flight_capacity: 256,
        sched: Some(sched),
        faults: None,
        abft: false,
        recovery: RecoveryPolicy::new(),
    };
    (Server::start(net, cfg), shape)
}

/// A tenant with a one-token bucket gets exactly one request through:
/// the second submit bounces with `RateLimited` and the registry's
/// counters attribute the rejection to that tenant.
#[test]
fn rate_limited_tenant_is_rejected_end_to_end() {
    let spec = TenantSpec::new("metered").rate(RateLimit::new(1e-6, 1.0));
    let (server, shape) = sched_server(SchedConfig::new().tenant(spec));
    let metered = server
        .tenants()
        .into_iter()
        .find(|t| t.name == "metered")
        .expect("registered at startup")
        .id;
    let input = synth::ifmap(&shape, 1, 11);
    let first = server
        .submit_with(input.clone(), SubmitOptions::tenant(metered))
        .expect("burst token admits the first request");
    let second = server.submit_with(input, SubmitOptions::tenant(metered));
    assert!(
        matches!(
            second,
            Err(ServeError::Admission(AdmissionError::RateLimited))
        ),
        "second submit must exhaust the bucket, got {second:?}"
    );
    first.wait().expect("admitted request completes");
    let snap = server
        .tenants()
        .into_iter()
        .find(|t| t.name == "metered")
        .unwrap();
    assert_eq!((snap.submitted, snap.admitted), (2, 1));
    assert_eq!((snap.rejected, snap.completed), (1, 1));
    server.shutdown();
}

/// A server configured with no `SchedConfig` still runs the scheduling
/// layer: it lists the default tenant, registers new ones, and applies
/// admission to every submit.
#[test]
fn default_server_schedules_tenants_and_admits() {
    let net = NetworkBuilder::new(3, 19)
        .conv("C1", 8, 3, 2)
        .unwrap()
        .fully_connected("FC", 10)
        .unwrap()
        .build(7);
    let shape = net.stages()[0].shape;
    let server = Server::start(net, ServeConfig::new());
    let names: Vec<String> = server.tenants().into_iter().map(|t| t.name).collect();
    assert_eq!(names, ["default"]);
    let guest = server.register_tenant(TenantSpec::new("guest"));
    assert_eq!(guest, TenantId(1));
    let late = server.submit_with(
        synth::ifmap(&shape, 1, 3),
        SubmitOptions::default().deadline(Duration::ZERO),
    );
    assert!(
        matches!(
            late,
            Err(ServeError::Admission(AdmissionError::DeadlinePassed))
        ),
        "{late:?}"
    );
    let stranger = server.submit_with(
        synth::ifmap(&shape, 1, 3),
        SubmitOptions::tenant(TenantId(42)).priority(Priority::Low),
    );
    assert!(
        matches!(
            stranger,
            Err(ServeError::Admission(AdmissionError::UnknownTenant(42)))
        ),
        "{stranger:?}"
    );
    server
        .submit_with(synth::ifmap(&shape, 1, 3), SubmitOptions::tenant(guest))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(server.tenants()[guest.index()].completed, 1);
    server.shutdown();
}
