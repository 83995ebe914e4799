//! The benchmark's own span recorder.
//!
//! Spans are opened from the benchmark's files around each call into a
//! layer of the product (spans *inside* the product are a later change).
//! They are kept in memory and written out, as a Chrome trace, when the
//! run ends. A disabled tracer costs one branch per span, so the
//! end-to-end runs carry the same code as the traced ones.

use crate::json::Json;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Layer names: the product's crates, plus `bench` for the harness's
/// own time (op bookkeeping and output checks).
pub const LAYERS: [&str; 11] = [
    "nn",
    "arch",
    "dataflow",
    "cluster",
    "sim",
    "serve",
    "wire",
    "telemetry",
    "par",
    "analysis",
    "bench",
];

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub id: u32,
    /// The span that caused this one (`None` for an op's root span).
    pub parent: Option<u32>,
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<SpanRec>>,
}

impl Recorder {
    fn open(
        self: &Arc<Self>,
        parent: Option<u32>,
        op: u64,
        layer: &'static str,
        name: &'static str,
    ) -> Span {
        let rec = SpanRec {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            layer,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        };
        Span(Some((rec, Arc::clone(self))))
    }
}

/// The recorder handle; `None` inside when tracing is off.
#[derive(Debug, Clone)]
pub struct Tracer(Option<Arc<Recorder>>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer(enabled.then(|| {
            Arc::new(Recorder {
                epoch: Instant::now(),
                next_id: AtomicU32::new(0),
                spans: Mutex::new(Vec::new()),
            })
        }))
    }

    /// Opens the root span of op `op`, in `layer`.
    pub fn op(&self, op: u64, layer: &'static str, name: &'static str) -> Span {
        match &self.0 {
            Some(rec) => rec.open(None, op, layer, name),
            None => Span(None),
        }
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<SpanRec> {
        match &self.0 {
            Some(rec) => std::mem::take(&mut *rec.spans.lock().expect("no span holder panics")),
            None => Vec::new(),
        }
    }
}

/// An open span; closes when dropped. It owns a handle on its recorder,
/// so a request's span can travel with the request between threads.
#[derive(Debug)]
pub struct Span(Option<(SpanRec, Arc<Recorder>)>);

impl Span {
    /// Opens a span caused by this one, around a call into `layer`.
    pub fn child(&self, layer: &'static str, name: &'static str) -> Span {
        match &self.0 {
            Some((rec, recorder)) => recorder.open(Some(rec.id), rec.op, layer, name),
            None => Span(None),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((mut rec, recorder)) = self.0.take() {
            rec.end_ns = recorder.epoch.elapsed().as_nanos() as u64;
            // A poisoned lock means another thread already panicked;
            // losing this span is the lesser problem.
            if let Ok(mut spans) = recorder.spans.lock() {
                spans.push(rec);
            }
        }
    }
}

/// Self time per layer, nanoseconds, in [`LAYERS`] order: each span's
/// duration minus the part its children cover.
pub fn self_ns_by_layer(spans: &[SpanRec]) -> [u64; LAYERS.len()] {
    let slot_of: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| slot_of.get(&p)) {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = [0u64; LAYERS.len()];
    for (s, covered) in spans.iter().zip(child_ns) {
        let layer = LAYERS
            .iter()
            .position(|l| *l == s.layer)
            .expect("spans name a known layer");
        out[layer] += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// The spans as a Chrome trace document (`chrome://tracing`, Perfetto).
pub fn chrome_trace(spans: &[SpanRec]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let mut args = vec![
                ("id".to_string(), Json::Num(f64::from(s.id))),
                ("op".to_string(), Json::Num(s.op as f64)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Json::Num(f64::from(p))));
            }
            Json::obj([
                ("name", Json::str(format!("{}.{}", s.layer, s.name))),
                ("cat", Json::str(s.layer)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                // Ops overlap in the serving workloads; one track per op
                // slot keeps them readable.
                ("tid", Json::Num((s.op % 16) as f64)),
                ("args", Json::Obj(args)),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ns")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            op: 0,
            layer,
            name: "x",
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = [
            rec(0, None, "bench", 0, 100),
            rec(1, Some(0), "serve", 10, 40),
            rec(2, Some(0), "sim", 50, 90),
            rec(3, Some(2), "nn", 60, 70),
        ];
        let by_layer = self_ns_by_layer(&spans);
        let of = |l: &str| by_layer[LAYERS.iter().position(|x| *x == l).unwrap()];
        assert_eq!(of("bench"), 100 - 30 - 40);
        assert_eq!(of("serve"), 30);
        assert_eq!(of("sim"), 40 - 10);
        assert_eq!(of("nn"), 10);
        assert_eq!(
            by_layer.iter().sum::<u64>(),
            100,
            "self times tile the root"
        );
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let op = t.op(1, "bench", "op");
            let _call = op.child("sim", "run_conv");
        }
        assert!(t.take().is_empty());
    }

    #[test]
    fn spans_link_to_their_parent_and_share_the_op_id() {
        let t = Tracer::new(true);
        {
            let op = t.op(42, "bench", "op");
            let _call = op.child("sim", "run_conv");
        }
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        // Children close first.
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans.iter().all(|s| s.op == 42));
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
        let doc = chrome_trace(&spans).render().unwrap();
        let back = Json::parse(&doc).unwrap();
        assert_eq!(back.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
    }
}
