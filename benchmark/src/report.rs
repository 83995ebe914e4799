//! The result document: one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`, printed as the last
//! line of standard output.

use crate::json::Json;
use crate::ladder::{Ledger, Metric};
use crate::spec::Declared;
use crate::trace::{self, SpanRec, LAYERS};
use crate::workload::{peak_rss_mb, Pass};

/// The end-to-end metrics, reported on every workload, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p95_us", "us"),
    ("peak_heap_mb", "MB"),
    ("model_energy_per_mac", "MAC-energy"),
    ("model_cycles_per_kmac", "cycles/kMAC"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct ResultDoc {
    pub attempted: u64,
    /// Failed, refused and wrong-output ops together.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl ResultDoc {
    /// The end-to-end document of an untraced pass.
    pub fn end_to_end(pass: &Pass) -> ResultDoc {
        let (p50, p95, _p99) = pass.timed.latency_us();
        let values = [
            pass.setup_s,
            pass.timed.ops_per_s(),
            p50,
            p95,
            crate::heap::peak_mb(),
            pass.model.energy_per_mac,
            pass.model.cycles_per_kmac,
        ];
        ResultDoc {
            attempted: pass.timed.attempted,
            failed: pass.timed.failed,
            metrics: END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), value)| Metric {
                    name: name.to_string(),
                    value,
                    unit,
                })
                .collect(),
        }
    }

    /// The per-layer document of a traced run: the ledger, what tracing
    /// cost this workload, and where its traced pass spent its time.
    pub fn per_layer(
        untraced: &Pass,
        traced: &Pass,
        workload_spans: &[SpanRec],
        ledger: Ledger,
    ) -> ResultDoc {
        let mut metrics = ledger.metrics;
        let mut put = |name: String, value: f64, unit: &'static str| {
            metrics.push(Metric { name, value, unit });
        };
        put(
            "host.cpu_us_per_op".into(),
            untraced.timed.cpu_s * 1e6 / untraced.timed.attempted as f64,
            "us",
        );
        put("host.peak_rss_mb".into(), peak_rss_mb(), "MB");
        put(
            "host.trace_overhead_share".into(),
            1.0 - traced.timed.ops_per_s() / untraced.timed.ops_per_s(),
            "share",
        );
        let self_ns = trace::self_ns_by_layer(workload_spans);
        let total: u64 = self_ns.iter().sum();
        for (layer, ns) in LAYERS.iter().zip(self_ns) {
            put(
                format!("trace.self_share.{layer}"),
                ns as f64 / total.max(1) as f64,
                "share",
            );
        }
        put(
            "trace.spans_per_op".into(),
            workload_spans.len() as f64 / traced.timed.attempted as f64,
            "count",
        );
        ResultDoc {
            attempted: untraced.timed.attempted + traced.timed.attempted + ledger.attempted,
            failed: untraced.timed.failed + traced.timed.failed + ledger.failed,
            metrics,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let entry = Json::obj([
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(m.unit)),
                            ]);
                            (m.name.clone(), entry)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Re-parses a rendered result line and holds it against what
/// `BENCHMARK.json` declares for this kind of run: every declared name
/// present once, finite, tagged with the declared unit and spelled from
/// `[A-Za-z0-9_.-]`; nothing undeclared; exactly the four top-level keys.
///
/// # Errors
///
/// Every violation found, one per line.
pub fn self_check(line: &str, declared: &[Declared]) -> Result<(), String> {
    let mut problems = Vec::new();
    let doc = Json::parse(line).map_err(|e| format!("the result line is not JSON: {e}"))?;
    let keys: Vec<&str> = doc
        .as_obj()
        .map(|pairs| pairs.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        problems.push(format!("top-level keys are {keys:?}"));
    }
    for key in ["attempted", "failed"] {
        match doc.get(key).and_then(Json::as_f64) {
            Some(n) if n >= 0.0 && n.fract() == 0.0 => {}
            other => problems.push(format!("`{key}` is {other:?}, not a whole number")),
        }
    }
    if doc.get("attempted").and_then(Json::as_f64) < Some(1.0) {
        problems.push("`attempted` is below 1".into());
    }
    if !matches!(doc.get("correct"), Some(Json::Bool(_))) {
        problems.push("`correct` is not a boolean".into());
    }
    let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
    for d in declared {
        let found: Vec<&Json> = metrics
            .iter()
            .filter(|(k, _)| *k == d.name)
            .map(|(_, v)| v)
            .collect();
        let [entry] = found[..] else {
            problems.push(format!("`{}` appears {} times", d.name, found.len()));
            continue;
        };
        match entry.get("value").and_then(Json::as_f64) {
            Some(v) if v.is_finite() => {}
            other => problems.push(format!("`{}` has value {other:?}", d.name)),
        }
        let unit = entry.get("unit").and_then(Json::as_str);
        if unit != Some(d.unit.as_str()) {
            problems.push(format!(
                "`{}` has unit {unit:?}, declared {:?}",
                d.name, d.unit
            ));
        }
    }
    for (name, _) in metrics {
        let spelled = !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b));
        if !spelled {
            problems.push(format!("`{name}` is not spelled from [A-Za-z0-9_.-]"));
        }
        if !declared.iter().any(|d| d.name == *name) {
            problems.push(format!("`{name}` is not declared"));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Spec;

    fn repo_spec() -> Spec {
        Spec::load(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap()
    }

    /// A quick traced run, ledger and all, emits exactly the per-layer
    /// names `BENCHMARK.json` declares, in its order and with its units.
    #[test]
    fn declared_names_are_the_emitted_names() {
        use crate::trace::Tracer;
        use crate::workload::{run_pass, Config};
        use crate::workloads::sim::SimDense;

        let spec = repo_spec();
        let pairs = |declared: &[Declared]| -> Vec<(String, String)> {
            declared
                .iter()
                .map(|d| (d.name.clone(), d.unit.clone()))
                .collect()
        };
        let emitted = |doc: &ResultDoc| -> Vec<(String, String)> {
            doc.metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect()
        };
        let cfg = Config {
            seed: 5,
            seconds: 0.01,
            quick: true,
            repeat_setup: false,
        };
        let untraced = run_pass::<SimDense>(&cfg, &Tracer::new(false));
        assert_eq!(
            emitted(&ResultDoc::end_to_end(&untraced)),
            pairs(&spec.end_to_end)
        );
        let tracer = Tracer::new(true);
        let traced = run_pass::<SimDense>(&cfg, &tracer);
        let spans = tracer.take();
        let ledger = crate::ladder::run(&cfg, &tracer);
        assert_eq!(ledger.failed, 0);
        let doc = ResultDoc::per_layer(&untraced, &traced, &spans, ledger);
        assert_eq!(emitted(&doc), pairs(&spec.per_layer));
        assert_eq!(
            spec.workloads,
            [
                "sim_dense",
                "sim_sparse",
                "plan_cold",
                "paper_figs",
                "serve_closed",
                "serve_open_sched"
            ]
        );
    }

    #[test]
    fn the_guard_accepts_a_sound_document_and_names_each_fault() {
        let declared = [
            Declared {
                name: "a.b-c_1".into(),
                unit: "us".into(),
                lower_is_better: true,
                bound: None,
            },
            Declared {
                name: "rate".into(),
                unit: "1/s".into(),
                lower_is_better: false,
                bound: Some(0.1),
            },
        ];
        let doc = ResultDoc {
            attempted: 10,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "a.b-c_1".into(),
                    value: 1.5,
                    unit: "us",
                },
                Metric {
                    name: "rate".into(),
                    value: 2e6,
                    unit: "1/s",
                },
            ],
        };
        let line = doc.to_json().render().unwrap();
        self_check(&line, &declared).unwrap();

        let missing = self_check(&line.replace("rate", "rat e"), &declared).unwrap_err();
        assert!(missing.contains("`rate` appears 0 times"), "{missing}");
        assert!(missing.contains("not spelled"), "{missing}");
        assert!(missing.contains("not declared"), "{missing}");
        let unit = self_check(&line.replace("\"us\"", "\"ms\""), &declared).unwrap_err();
        assert!(unit.contains("has unit"), "{unit}");
        let extra = line.replacen('{', "{\"note\": 1, ", 1);
        assert!(self_check(&extra, &declared)
            .unwrap_err()
            .contains("top-level"));
        assert!(self_check("cargo noise\n{}", &declared).is_err());
    }
}
