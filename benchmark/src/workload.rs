//! The run shape every workload shares.
//!
//! A workload is a fixed rota of ops, timed in [`SEGMENTS`] *segments*
//! of whole rota cycles. The cycles in a segment are fixed in the code
//! ([`Workload::SEGMENT_CYCLES`] at `--seconds 10`, about a second at
//! the speed of the commit that defined the benchmark, and scaled with
//! `--seconds`), never a time budget: two commits do identical work,
//! allocate identically, and a faster one finishes sooner. Every
//! statistic is taken per segment and the run reports the median
//! segment, so a slow phase of the shared box has to cover half the run
//! before it moves a number.

use crate::stats::Timed;
use crate::trace::Tracer;
use std::time::Instant;

/// Timed segments in a run.
pub const SEGMENTS: usize = 10;

/// What a run was asked for.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: f64,
    /// Smoke-test size: cut-down rotas, one set-up and a single segment.
    pub quick: bool,
    /// Set up [`Workload::SETUPS`] times and report the median; a pass
    /// that reports no `setup_s` sets up once.
    pub repeat_setup: bool,
}

/// What the modelled hardware spends, in Table IV units. Deterministic:
/// a change that only speeds up the host must leave both identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Model {
    /// Energy per MAC (1 = the energy of one MAC).
    pub energy_per_mac: f64,
    /// Simulated or analytic cycles per 1 000 MACs.
    pub cycles_per_kmac: f64,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// Whole rota cycles in one segment at `--seconds 10`.
    const SEGMENT_CYCLES: usize;
    /// Set-ups in a run, `setup_s` being their median: as many as fit
    /// in about two seconds.
    const SETUPS: usize;

    /// Builds inputs and goldens, compiles or prewarms, starts servers
    /// and runs the warm-up ops: everything before the first timed op.
    fn setup(cfg: &Config) -> Self;

    /// Ops in one whole rota cycle.
    fn cycle_ops(&self) -> usize;

    /// Runs `ops` ops (a whole number of cycles) as one timed segment.
    fn segment(&mut self, ops: usize, tracer: &Tracer, out: &mut Timed);

    fn model(&self) -> Model;

    /// Stops whatever set-up started.
    fn teardown(self) {}
}

/// Ops per segment: `segment_cycles` whole cycles at `--seconds 10`,
/// in proportion at any other length, never less than one cycle.
pub fn segment_ops(segment_cycles: usize, seconds: f64, cycle_ops: usize) -> usize {
    let cycles = (segment_cycles as f64 * seconds / 10.0).round() as usize;
    cycles.max(1) * cycle_ops
}

/// One measured pass over a workload.
#[derive(Debug)]
pub struct Pass {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    pub timed: Timed,
    pub model: Model,
}

/// Process CPU time (user + system, all threads), seconds.
pub fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, in clock ticks. The command
    // name (field 2) may hold spaces, so count from its closing ')'.
    // Linux fixes USER_HZ at 100 on every architecture Rust targets.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 1..];
            let mut fields = rest.split_ascii_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Sets the workload up (several times, keeping the last) and times
/// [`SEGMENTS`] segments.
pub fn run_pass<W: Workload>(cfg: &Config, tracer: &Tracer) -> Pass {
    let repeats = if cfg.repeat_setup && !cfg.quick {
        W::SETUPS
    } else {
        1
    };
    let mut setups = Vec::with_capacity(repeats);
    let mut workload = None;
    for _ in 0..repeats {
        if let Some(previous) = workload.take() {
            W::teardown(previous);
        }
        let t0 = Instant::now();
        workload = Some(W::setup(cfg));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("set up at least once");
    let ops = segment_ops(W::SEGMENT_CYCLES, cfg.seconds, w.cycle_ops());
    let mut timed = Timed::default();
    let cpu0 = process_cpu_s();
    for _ in 0..if cfg.quick { 1 } else { SEGMENTS } {
        w.segment(ops, tracer, &mut timed);
    }
    timed.cpu_s = process_cpu_s() - cpu0;
    let model = w.model();
    w.teardown();
    Pass {
        setup_s: crate::stats::median(&setups),
        timed,
        model,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_are_whole_cycles_in_proportion_to_the_run() {
        assert_eq!(segment_ops(371, 10.0, 7), 2597);
        assert_eq!(segment_ops(371, 2.5, 7), 93 * 7, "a quarter, rounded");
        assert_eq!(segment_ops(3, 10.0, 8), 24);
        assert_eq!(segment_ops(3, 20.0, 8), 48);
        assert_eq!(segment_ops(3, 0.01, 8), 8, "never less than one cycle");
    }

    #[test]
    fn proc_readers_return_something_plausible() {
        assert!(peak_rss_mb() > 0.5);
        let before = process_cpu_s();
        let mut x = 0u64;
        while process_cpu_s() - before < 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
    }
}
