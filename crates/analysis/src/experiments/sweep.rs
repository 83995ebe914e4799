//! The shared (PE count x batch size x dataflow) sweep behind
//! Figs. 11, 12, 13 (CONV layers) and Fig. 14 (FC layers).

use crate::metrics::DataflowRun;
use crate::runner;
use eyeriss_dataflow::DataflowKind;

/// PE array sizes of the CONV comparison (Figs. 11–13).
pub const CONV_PE_SIZES: [usize; 3] = [256, 512, 1024];
/// Batch sizes of the CONV comparison.
pub const CONV_BATCHES: [usize; 3] = [1, 16, 64];
/// PE array size of the FC comparison (Fig. 14).
pub const FC_PE_SIZE: usize = 1024;
/// Batch sizes of the FC comparison ("batch size now starts from 16").
pub const FC_BATCHES: [usize; 3] = [16, 64, 256];

/// One (PE count, batch) operating point with all six dataflows mapped.
/// `runs[i]` corresponds to `DataflowKind::ALL[i]`; `None` marks a
/// dataflow that cannot operate at this point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// PE array size.
    pub num_pes: usize,
    /// Batch size.
    pub batch: usize,
    /// Optimized run per dataflow, in [`DataflowKind::ALL`] order.
    pub runs: Vec<Option<DataflowRun>>,
}

impl SweepPoint {
    /// The run for one dataflow, if feasible.
    pub fn run_of(&self, kind: DataflowKind) -> Option<&DataflowRun> {
        let idx = DataflowKind::ALL.iter().position(|&k| k == kind)?;
        self.runs[idx].as_ref()
    }
}

/// Runs the CONV sweep for a single PE array size (one subplot of
/// Figs. 11–13).
pub fn conv_sweep_at(num_pes: usize) -> Vec<SweepPoint> {
    CONV_BATCHES
        .iter()
        .map(|&batch| SweepPoint {
            num_pes,
            batch,
            runs: DataflowKind::ALL
                .iter()
                .map(|&k| runner::run_conv_layers(k, batch, num_pes))
                .collect(),
        })
        .collect()
}

/// Runs the FC-layer sweep of Fig. 14 (1024 PEs, batches 16/64/256).
pub fn fc_sweep() -> Vec<SweepPoint> {
    FC_BATCHES
        .iter()
        .map(|&batch| SweepPoint {
            num_pes: FC_PE_SIZE,
            batch,
            runs: DataflowKind::ALL
                .iter()
                .map(|&k| runner::run_fc_layers(k, batch, FC_PE_SIZE))
                .collect(),
        })
        .collect()
}

/// The Fig. 12/13 normalization reference: RS at 256 PEs, batch 1.
pub fn rs_conv_reference() -> DataflowRun {
    runner::run_conv_layers(DataflowKind::RowStationary, 1, 256)
        .expect("RS is feasible at the reference point")
}

/// The Fig. 14 normalization reference: RS FC at batch 16 on 1024 PEs
/// (the first plotted batch — at batch 1 every dataflow is pinned to the
/// weight-fetch DRAM floor and the normalization would dwarf all bars).
pub fn rs_fc_reference() -> DataflowRun {
    runner::run_fc_layers(DataflowKind::RowStationary, 16, FC_PE_SIZE)
        .expect("RS is feasible at the FC reference point")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_sweep_at_256_marks_ws_infeasible_only_at_64() {
        let points = conv_sweep_at(256);
        assert_eq!(points.len(), 3);
        let ws = DataflowKind::WeightStationary;
        assert!(points[0].run_of(ws).is_some(), "N=1");
        assert!(points[1].run_of(ws).is_some(), "N=16");
        assert!(points[2].run_of(ws).is_none(), "N=64 must be infeasible");
        for p in &points {
            for kind in DataflowKind::ALL {
                if kind != ws {
                    assert!(p.run_of(kind).is_some(), "{kind} at N={}", p.batch);
                }
            }
        }
    }

    #[test]
    fn fc_sweep_covers_batches() {
        let points = fc_sweep();
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.run_of(DataflowKind::RowStationary).is_some());
        }
    }
}
