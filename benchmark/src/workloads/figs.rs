//! `paper_figs`: regenerate the paper's evaluation — the architect's
//! end-to-end, through all six dataflow spaces and three array sizes.

use crate::stats::Timed;
use crate::trace::Tracer;
use crate::workload::{Config, Model, Workload};
use eyeriss::analysis::experiments::{
    fig10, fig11, fig12, fig13, fig14, fig15, fig7, flex_dataflow,
};
use eyeriss::analysis::run_conv_layers;
use eyeriss::dataflow::DataflowKind;
use std::time::Instant;

/// The eight figure ops, named as their `analysis.fig_ms.*` metric.
pub const FIGURES: [&str; 8] = [
    "fig7", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "flex",
];

/// FNV-1a over the rendered tables: cheap, and any changed digit shows.
fn hash(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `tests/paper_claims.rs` bands on a Fig. 12 result: RS has the
/// lowest energy in every bar group, and at 256 PEs and batch 16 every
/// other dataflow costs 1.2 to 3.2 times RS.
pub fn fig12_in_bands(panels: &[fig12::Fig12Panel]) -> bool {
    panels.iter().all(|panel| {
        panel.batches.iter().zip(&panel.bars).all(|(&batch, bars)| {
            let Some(rs) = bars[0].as_ref().map(fig12::EnergyBar::total) else {
                return false;
            };
            bars[1..].iter().flatten().all(|other| {
                let ratio = other.total() / rs;
                let banded = panel.num_pes != 256 || batch != 16 || (1.2..3.2).contains(&ratio);
                ratio > 1.0 && banded
            })
        })
    })
}

/// Runs one figure. Returns the time inside `run` (rendering is the
/// check, not the op), the rendered tables, and whether the result is
/// inside the paper-claim bands.
pub fn run_figure(name: &str, span: &crate::trace::Span) -> (f64, String, bool) {
    fn timed<T>(
        span: &crate::trace::Span,
        name: &'static str,
        run: impl FnOnce() -> T,
    ) -> (f64, T) {
        let t0 = Instant::now();
        let _call = span.child("analysis", name);
        let data = run();
        (t0.elapsed().as_secs_f64() * 1e6, data)
    }
    let join = |tables: Vec<String>| tables.join("\n");
    match name {
        "fig7" => {
            let (us, d) = timed(span, "fig7", || fig7::run(256));
            (us, fig7::render(&d), true)
        }
        "fig10" => {
            let (us, d) = timed(span, "fig10", fig10::run);
            (us, fig10::render(&d), true)
        }
        "fig11" => {
            let (us, d) = timed(span, "fig11", fig11::run);
            (us, join(d.iter().map(fig11::render).collect()), true)
        }
        "fig12" => {
            let (us, d) = timed(span, "fig12", fig12::run);
            let tables = d
                .iter()
                .flat_map(|p| [fig12::render_by_level(p), fig12::render_by_type(p)])
                .collect();
            (us, join(tables), fig12_in_bands(&d))
        }
        "fig13" => {
            let (us, d) = timed(span, "fig13", fig13::run);
            (us, join(d.iter().map(fig13::render).collect()), true)
        }
        "fig14" => {
            let (us, d) = timed(span, "fig14", fig14::run);
            (us, fig14::render(&d), true)
        }
        "fig15" => {
            let (us, d) = timed(span, "fig15", fig15::run);
            (us, fig15::render(&d), true)
        }
        "flex" => {
            let (us, d) = timed(span, "flex", flex_dataflow::run);
            (us, flex_dataflow::render(&d), true)
        }
        other => panic!("no figure named {other}"),
    }
}

pub struct PaperFigs {
    /// The cycle's figures. The figures take no data, so the seed has
    /// nothing to vary; shuffling their order only moves the heap's
    /// high-water mark around (40 to 107 MB between seeds).
    order: Vec<&'static str>,
    /// Table hash of each figure's first run; later cycles must match.
    hashes: Vec<Option<u64>>,
    next: u64,
}

impl Workload for PaperFigs {
    const NAME: &'static str = "paper_figs";
    /// Three cycles a segment, thirty a run: about 1.5 to 2 s a segment,
    /// twice the other workloads. At two cycles the segment's p95 was
    /// simply its slowest figure.
    const SEGMENT_CYCLES: usize = 3;
    const SETUPS: usize = 5;

    fn setup(cfg: &Config) -> Self {
        let order: Vec<&'static str> = if cfg.quick {
            vec!["fig7", "fig10"]
        } else {
            FIGURES.to_vec()
        };
        let mut w = PaperFigs {
            hashes: vec![None; order.len()],
            order,
            next: 0,
        };
        w.segment(w.cycle_ops(), &Tracer::new(false), &mut Timed::default());
        w
    }

    fn cycle_ops(&self) -> usize {
        self.order.len()
    }

    fn segment(&mut self, ops: usize, tracer: &Tracer, out: &mut Timed) {
        out.segment(ops, || {
            let slot = (self.next % self.order.len() as u64) as usize;
            let span = tracer.op(self.next, "bench", "op");
            self.next += 1;
            let (us, tables, in_bands) = run_figure(self.order[slot], &span);
            let h = hash(&tables);
            (us, in_bands && *self.hashes[slot].get_or_insert(h) == h)
        });
    }

    fn model(&self) -> Model {
        // The paper's central operating point: RS, batch 16, 256 PEs.
        let rs = run_conv_layers(DataflowKind::RowStationary, 16, 256).expect("RS always operates");
        Model {
            energy_per_mac: rs.energy_per_op(),
            cycles_per_kmac: rs.delay_per_op() * 1e3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_hash_tells_tables_apart() {
        assert_eq!(hash("a | 1.000"), hash("a | 1.000"));
        assert_ne!(hash("a | 1.000"), hash("a | 1.001"));
    }
}
