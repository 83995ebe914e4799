//! The repository's benchmark. See `README.md` beside `Cargo.toml`.
//!
//! The product is driven only through public functions of the `eyeriss`
//! facade's crates and `eyeriss_par`.

mod compare;
mod heap;
mod inputs;
mod json;
mod ladder;
mod pace;
mod report;
mod spec;
mod stats;
mod trace;
mod workload;
mod workloads;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

use json::Json;
use report::ResultDoc;
use spec::Spec;
use std::process::ExitCode;
use trace::Tracer;
use workload::{run_pass, Config, Pass, Workload};
use workloads::{figs::PaperFigs, plan::PlanCold, serve, sim};

type RunPass = fn(&Config, &Tracer) -> Pass;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [(&str, RunPass); 6] = [
    (sim::SimDense::NAME, run_pass::<sim::SimDense>),
    (sim::SimSparse::NAME, run_pass::<sim::SimSparse>),
    (PlanCold::NAME, run_pass::<PlanCold>),
    (PaperFigs::NAME, run_pass::<PaperFigs>),
    (serve::ServeClosed::NAME, run_pass::<serve::ServeClosed>),
    (
        serve::ServeOpenSched::NAME,
        run_pass::<serve::ServeOpenSched>,
    ),
];

const USAGE: &str = "\
usage: benchmark [--workload NAME|all] [--seed N] [--seconds N] [--trace 0|1]
                 [--trace-out FILE] [--self-check] [--quick] [--benchmark-json FILE]
       benchmark --compare A B [--benchmark-json FILE]

One workload prints one result document as the last line of stdout:
--trace 0 the end-to-end metrics, --trace 1 the per-layer ledger.
`all` (the default) runs every workload both ways, each in a child
process, and prints one record per line and nothing else: append them
to a file (`>> a.jsonl`) to build the input of --compare.";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<String>,
    self_check: bool,
    quick: bool,
    spec_path: String,
    compare: Option<(String, String)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 12,
        seconds: 10.0,
        traced: false,
        trace_out: None,
        self_check: false,
        quick: false,
        spec_path: "BENCHMARK.json".into(),
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?),
            "--self-check" => args.self_check = true,
            "--quick" => args.quick = true,
            "--benchmark-json" => args.spec_path = value()?,
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn pass(name: &str, cfg: &Config, tracer: &Tracer) -> Option<Pass> {
    let (_, run) = WORKLOADS.iter().find(|(n, _)| *n == name)?;
    Some(run(cfg, tracer))
}

fn summarize(what: &str, p: &Pass) {
    let (p50, p95, p99) = p.timed.latency_us();
    eprintln!(
        "{what}: set-up {:.3} s; median of {} segments of {} ops: {:.1} op/s, op p50 {p50:.1} us, \
         p95 {p95:.1} us, p99 {p99:.1} us; ops_attempted {}, ops_ok {}, ops_failed {} (of which \
         ops_refused {})",
        p.setup_s,
        p.timed.segment_rates.len(),
        p.timed.attempted / p.timed.segment_rates.len() as u64,
        p.timed.ops_per_s(),
        p.timed.attempted,
        p.timed.attempted - p.timed.failed,
        p.timed.failed,
        p.timed.refused,
    );
}

/// Runs one workload and returns its result document.
fn run_one(args: &Args) -> Result<ResultDoc, String> {
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        repeat_setup: true,
    };
    let unknown = || {
        let names = WORKLOADS.map(|(n, _)| n);
        format!("no workload named {}; one of {names:?}", args.workload)
    };
    if !args.traced {
        // No end-to-end number is ever taken from a traced run.
        let p = pass(&args.workload, &cfg, &Tracer::new(false)).ok_or_else(unknown)?;
        summarize(&args.workload, &p);
        return Ok(ResultDoc::end_to_end(&p));
    }
    // The workload twice at a quarter length, tracing off then on: the
    // difference is what tracing costs it. Then the ledger.
    let quarter = Config {
        seconds: cfg.seconds / 4.0,
        repeat_setup: false,
        ..cfg
    };
    let untraced = pass(&args.workload, &quarter, &Tracer::new(false)).ok_or_else(unknown)?;
    summarize("untraced quarter pass", &untraced);
    let tracer = Tracer::new(true);
    let traced = pass(&args.workload, &quarter, &tracer).ok_or_else(unknown)?;
    summarize("traced quarter pass", &traced);
    let mut spans = tracer.take();
    let ledger = ladder::run(&cfg, &tracer);
    let doc = ResultDoc::per_layer(&untraced, &traced, &spans, ledger);
    if let Some(path) = &args.trace_out {
        spans.extend(tracer.take());
        let text = trace::chrome_trace(&spans).render()?;
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("wrote {} spans to {path}", spans.len());
    }
    Ok(doc)
}

/// Runs every workload, untraced then traced, each in a child process
/// of its own (own set-up, own peak RSS, cold caches).
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    for (workload, _) in WORKLOADS {
        for trace in [0u8, 1] {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload, "--trace", &trace.to_string()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--benchmark-json", &args.spec_path]);
            if args.self_check {
                cmd.arg("--self-check");
            }
            if args.quick {
                cmd.arg("--quick");
            }
            // stderr is inherited; `output` waits for the child to end.
            let done = cmd
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("starting {workload}: {e}"))?;
            if !done.status.success() {
                return Err(format!(
                    "{workload} --trace {trace} ended with {}",
                    done.status
                ));
            }
            let stdout = String::from_utf8_lossy(&done.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            let record = Json::obj([
                ("workload", Json::str(workload)),
                ("seed", Json::Num(args.seed as f64)),
                ("seconds", Json::Num(args.seconds)),
                ("trace", Json::Num(f64::from(trace))),
                ("result", Json::parse(line)?),
            ])
            .render()?;
            println!("{record}");
        }
    }
    Ok(())
}

fn run_compare(a: &str, b: &str, spec_path: &str) -> Result<bool, String> {
    let spec = Spec::load(spec_path)?;
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        compare::parse_runs(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare::compare(&read(a)?, &read(b)?, &spec)?;
    print!("{}", compare::render(&rows));
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    let (regressed, unresolved) = (
        count(compare::Verdict::Regressed),
        count(compare::Verdict::Unresolved),
    );
    println!(
        "{} rows: {regressed} regressed, {unresolved} unresolved",
        rows.len()
    );
    Ok(regressed == 0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((a, b)) = &args.compare {
        run_compare(a, b, &args.spec_path)
    } else if args.workload == "all" {
        run_all(&args).map(|()| true)
    } else {
        run_one(&args).and_then(|doc| {
            let line = doc.to_json().render()?;
            if args.self_check {
                let spec = Spec::load(&args.spec_path)?;
                let declared = if args.traced {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                report::self_check(&line, declared)?;
                eprintln!("self-check passed: {} metrics", doc.metrics.len());
            }
            println!("{line}");
            Ok(true)
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--quick`: every workload at one tiny segment, all output checks
    /// on. Unoptimised builds included, this stays a matter of seconds.
    #[test]
    fn quick_smoke_runs_every_workload_without_a_failed_op() {
        let cfg = Config {
            seed: 3,
            seconds: 0.01,
            quick: true,
            repeat_setup: false,
        };
        for (name, _) in WORKLOADS {
            let p = pass(name, &cfg, &Tracer::new(false)).expect("a known workload");
            assert!(p.timed.attempted > 0, "{name} ran nothing");
            assert_eq!((p.timed.failed, p.timed.refused), (0, 0), "{name}");
            assert_eq!(p.timed.segment_rates.len(), 1, "{name}: one segment");
            assert!(p.model.energy_per_mac > 1.0 && p.model.cycles_per_kmac > 0.0);
            let doc = ResultDoc::end_to_end(&p);
            let line = doc.to_json().render().unwrap();
            let spec = Spec::load(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
            report::self_check(&line, &spec.unwrap().end_to_end).unwrap();
        }
        assert!(pass("no_such_workload", &cfg, &Tracer::new(false)).is_none());
    }

    #[test]
    fn traced_passes_record_spans_per_op() {
        let cfg = Config {
            seed: 3,
            seconds: 0.01,
            quick: true,
            repeat_setup: false,
        };
        let tracer = Tracer::new(true);
        let p = pass("serve_closed", &cfg, &tracer).unwrap();
        let spans = tracer.take();
        let roots = spans.iter().filter(|s| s.parent.is_none()).count() as u64;
        // Every completed request has a root; up to CONCURRENCY more were
        // in flight when the pass ended, their spans closed by the drain.
        assert!(roots >= p.timed.attempted, "{roots} roots");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let by_layer = trace::self_ns_by_layer(&spans);
        let serve = trace::LAYERS.iter().position(|l| *l == "serve").unwrap();
        assert_eq!(by_layer.iter().sum::<u64>(), by_layer[serve]);
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let argv: Vec<String> = "--workload plan_cold --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("plan_cold", 7, 10.0, true)
        );
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
        assert_eq!(parse_args(&[]).unwrap().workload, "all");
    }
}
