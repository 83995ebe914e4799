//! Property-based telemetry correctness: the streaming log-bucketed
//! histogram's quantiles must honor the documented error bound against
//! an exact nearest-rank percentile ([`nearest_rank`]), snapshot merging
//! must be order-insensitive and associative, and the lock-free registry
//! must count exactly under multi-threaded hammering.

use eyeriss::prelude::*;
use eyeriss::telemetry::{
    HistogramSnapshot, RetroSpan, TraceContext, EXACT_BELOW, RELATIVE_ERROR, REQUEST_ROW_TID,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Asserts `approx` is within the histogram's documented bound of the
/// exact quantile: exact for values below [`EXACT_BELOW`], within
/// [`RELATIVE_ERROR`] relative error above it.
fn assert_within_bound(approx: u64, exact: u64, q: f64) {
    if exact < EXACT_BELOW {
        assert_eq!(approx, exact, "q={q}: sub-{EXACT_BELOW} values are exact");
    } else {
        let err = (approx as f64 - exact as f64).abs() / exact as f64;
        assert!(
            err <= RELATIVE_ERROR,
            "q={q}: approx {approx} vs exact {exact} (relative error {err:.4} > {RELATIVE_ERROR})"
        );
    }
}

/// Exact nearest-rank percentile of non-empty `samples` (`q` in
/// `(0, 1]`): the `⌈q·n⌉`-th smallest sample — the oracle the
/// histogram's quantiles are held to.
fn nearest_rank(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn record_all(samples: &[u64]) -> HistogramSnapshot {
    let tele = Telemetry::new_enabled();
    let h = tele.histogram("test.samples");
    for &v in samples {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// p50/p99 from the streaming histogram against the exact
    /// nearest-rank percentile over the same samples.
    #[test]
    fn bucketed_quantiles_match_exact_nearest_rank(
        samples in proptest::collection::vec(0u64..5_000_000, 1..200),
        qi in 0usize..3,
    ) {
        let q = [0.5, 0.9, 0.99][qi];
        let snap = record_all(&samples);
        let exact = nearest_rank(&samples, q);
        let approx = snap.quantile(q).expect("non-empty histogram");
        assert_within_bound(approx, exact, q);
    }

    /// Merging snapshots is associative and order-insensitive: any
    /// grouping of per-shard snapshots equals one histogram fed every
    /// sample, bucket for bucket.
    #[test]
    fn merge_is_associative(
        a in proptest::collection::vec(0u64..1_000_000, 0..60),
        b in proptest::collection::vec(0u64..1_000_000, 0..60),
        c in proptest::collection::vec(0u64..1_000_000, 0..60),
    ) {
        let (sa, sb, sc) = (record_all(&a), record_all(&b), record_all(&c));

        let mut ab_c = sa.clone();
        ab_c.merge(&sb);
        ab_c.merge(&sc);

        let mut a_bc = sc.clone();
        a_bc.merge(&sb);
        a_bc.merge(&sa);

        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        let direct = record_all(&all);

        assert_eq!(ab_c, direct, "(a+b)+c must equal one-shot recording");
        assert_eq!(a_bc, direct, "(c+b)+a must equal one-shot recording");
        assert_eq!(direct.count(), all.len() as u64);
    }

    /// Span-ring wraparound under concurrent writers: the
    /// overwrite-oldest ring must never tear a record (every retained
    /// span's writer/tid/trace fields stay mutually consistent), span
    /// ids stay unique and non-zero, and parent links either resolve to
    /// the *actual* parent or are explicitly orphaned — a parent id
    /// must never dangle into a slot reused by an unrelated span.
    #[test]
    fn span_ring_wraparound_keeps_parent_links_sound(
        capacity in 8usize..96,
        writers in 2usize..5,
        iters in 16usize..64,
    ) {
        let tele = Telemetry::new_enabled();
        tele.set_span_capacity(capacity);
        std::thread::scope(|scope| {
            for w in 0..writers {
                let tele = tele.clone();
                scope.spawn(move || {
                    let ctx = tele.mint_trace();
                    let _g = tele.in_context(ctx);
                    let mut first_outer = 0;
                    for i in 0..iters {
                        let arg = ((w as u64) << 32) | i as u64;
                        let outer = tele.span_with("prop.outer", "prop", arg);
                        if i == 0 {
                            first_outer = outer.id();
                        }
                        let _inner = tele.span_with("prop.inner", "prop", arg);
                    }
                    // A late span pointing back at this writer's first
                    // outer span, which heavy wraparound has usually
                    // overwritten by now: its parent must resolve to
                    // exactly that span or to nothing at all.
                    tele.record_retro(RetroSpan {
                        name: "prop.late",
                        cat: "prop",
                        arg: (w as u64) << 32,
                        tid: REQUEST_ROW_TID,
                        ctx: TraceContext { trace: ctx.trace, parent: first_outer },
                        start: Instant::now(),
                        dur: Duration::ZERO,
                        link: 0,
                    });
                });
            }
        });

        let spans = tele.snapshot().spans;
        let total = writers * (2 * iters + 1);
        prop_assert_eq!(spans.len(), total.min(capacity), "ring keeps the newest records");

        // Ids are unique and never zero.
        let mut ids = HashSet::new();
        for s in &spans {
            prop_assert!(s.id != 0);
            prop_assert!(ids.insert(s.id), "span id {} reused", s.id);
        }
        let by_id: HashMap<u64, &_> = spans.iter().map(|s| (s.id, s)).collect();

        // No torn records: each retained span belongs wholly to one
        // writer — its (writer, tid) and (writer, trace) pairings are
        // globally consistent.
        let mut tid_of: HashMap<u64, u64> = HashMap::new();
        let mut trace_of: HashMap<u64, u64> = HashMap::new();
        for s in &spans {
            let w = s.arg >> 32;
            prop_assert!((w as usize) < writers);
            prop_assert!(s.trace != 0);
            prop_assert_eq!(*trace_of.entry(w).or_insert(s.trace), s.trace);
            if s.name != "prop.late" {
                prop_assert_eq!(*tid_of.entry(w).or_insert(s.tid), s.tid);
            }
        }
        prop_assert_eq!(
            trace_of.values().collect::<HashSet<_>>().len(),
            trace_of.len(),
            "each writer minted a distinct trace"
        );

        // Parent links resolve to the true parent or are orphaned.
        for s in &spans {
            match s.name {
                "prop.outer" => prop_assert_eq!(s.parent, 0, "outer spans are roots"),
                "prop.inner" | "prop.late" => {
                    prop_assert!(s.parent != 0, "{} spans are parented", s.name);
                    let Some(p) = by_id.get(&s.parent) else {
                        continue; // explicitly orphaned: parent overwritten
                    };
                    prop_assert_eq!(p.name, "prop.outer");
                    prop_assert_eq!(p.trace, s.trace);
                    if s.name == "prop.inner" {
                        // The resolved parent is this very iteration's
                        // outer span, and it encloses the child (small
                        // slack for independent ns truncation).
                        prop_assert_eq!(p.arg, s.arg);
                        prop_assert_eq!(p.tid, s.tid);
                        prop_assert!(p.start_ns <= s.start_ns);
                        prop_assert!(p.start_ns + p.dur_ns + 2 >= s.start_ns + s.dur_ns);
                    } else {
                        prop_assert_eq!(p.arg, s.arg, "late span resolves to iteration 0");
                    }
                }
                other => prop_assert!(false, "unexpected span {other}"),
            }
        }
    }
}

/// Counters and gauges resolved from many threads against one registry
/// must land every increment exactly once.
#[test]
fn registry_counts_exactly_under_contention() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 5_000;
    let tele = Telemetry::new_enabled();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let tele = tele.clone();
            scope.spawn(move || {
                // Re-resolve handles mid-run: resolution must dedupe
                // onto the same underlying atomics.
                let counter = tele.counter("hammer.count");
                let gauge = tele.gauge("hammer.level");
                let hist = tele.histogram("hammer.dist");
                for i in 0..PER_THREAD {
                    counter.inc();
                    gauge.inc();
                    hist.record(t * PER_THREAD + i);
                    if i % 1024 == 0 {
                        let again = tele.counter("hammer.count");
                        again.add(0);
                    }
                }
                for _ in 0..PER_THREAD {
                    gauge.dec();
                }
            });
        }
    });
    let snap = tele.snapshot();
    assert_eq!(snap.counter("hammer.count"), Some(THREADS * PER_THREAD));
    assert_eq!(snap.gauge("hammer.level"), Some(0));
    let dist = snap.histogram("hammer.dist").expect("histogram registered");
    assert_eq!(dist.count(), THREADS * PER_THREAD);
    let max = dist.quantile(1.0).expect("non-empty");
    let exact_max = THREADS * PER_THREAD - 1;
    assert_within_bound(max, exact_max, 1.0);
}
