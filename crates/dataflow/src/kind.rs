//! The dataflow taxonomy of Section IV and Table III.

use crate::id::DataflowId;
use std::fmt;

/// One of the six CNN dataflows compared in the paper.
///
/// The three output-stationary variants follow the paper's renaming in
/// Section VII: SOC-MOP -> OSA, MOC-MOP -> OSB, MOC-SOP -> OSC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataflowKind {
    /// Row stationary (Section V) — the paper's contribution.
    RowStationary,
    /// Weight stationary (Section IV-A): weights pinned in PE RFs.
    WeightStationary,
    /// Output stationary, single ofmap channel / multiple ofmap pixels.
    OutputStationaryA,
    /// Output stationary, multiple ofmap channels / multiple ofmap pixels.
    OutputStationaryB,
    /// Output stationary, multiple ofmap channels / single ofmap pixel.
    OutputStationaryC,
    /// No local reuse (Section IV-C): ALU-only PEs, everything in the buffer.
    NoLocalReuse,
}

impl DataflowKind {
    /// All six dataflows in the order the paper's figures list them.
    pub const ALL: [DataflowKind; 6] = [
        DataflowKind::RowStationary,
        DataflowKind::WeightStationary,
        DataflowKind::OutputStationaryA,
        DataflowKind::OutputStationaryB,
        DataflowKind::OutputStationaryC,
        DataflowKind::NoLocalReuse,
    ];

    /// The open-world identity of this builtin dataflow — what the
    /// optimizer, memo and plan caches key on. Extensions registered
    /// through [`crate::DataflowRegistry`] coin their own ids.
    pub fn id(self) -> DataflowId {
        DataflowId::new(self.label())
    }

    /// The builtin kind carrying `label`, if any (the inverse of
    /// [`DataflowKind::label`], used when decoding persisted plans).
    pub fn from_label(label: &str) -> Option<DataflowKind> {
        DataflowKind::ALL.into_iter().find(|k| k.label() == label)
    }

    /// The figure label ("RS", "WS", "OSA", "OSB", "OSC", "NLR").
    pub fn label(self) -> &'static str {
        match self {
            DataflowKind::RowStationary => "RS",
            DataflowKind::WeightStationary => "WS",
            DataflowKind::OutputStationaryA => "OSA",
            DataflowKind::OutputStationaryB => "OSB",
            DataflowKind::OutputStationaryC => "OSC",
            DataflowKind::NoLocalReuse => "NLR",
        }
    }

    /// Per-PE register file requirement in bytes (Section VI-B).
    ///
    /// These drive the Fig. 7b storage split: RS keeps the full 512 B RF
    /// ("we fix the RF size in RS dataflow at 512B since it shows the lowest
    /// energy consumption"); WS holds a single 16-bit weight; the OS
    /// variants hold a psum accumulator plus (for A/B) a small ifmap shift
    /// window; NLR has no RF at all.
    pub fn rf_bytes(self) -> f64 {
        match self {
            DataflowKind::RowStationary => 512.0,
            DataflowKind::WeightStationary => 4.0,
            DataflowKind::OutputStationaryA => 32.0,
            DataflowKind::OutputStationaryB => 32.0,
            DataflowKind::OutputStationaryC => 4.0,
            DataflowKind::NoLocalReuse => 0.0,
        }
    }
}

impl fmt::Display for DataflowKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_order() {
        let labels: Vec<_> = DataflowKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels, ["RS", "WS", "OSA", "OSB", "OSC", "NLR"]);
    }

    #[test]
    fn rs_has_largest_rf_nlr_none() {
        for k in DataflowKind::ALL {
            assert!(k.rf_bytes() <= DataflowKind::RowStationary.rf_bytes());
        }
        assert_eq!(DataflowKind::NoLocalReuse.rf_bytes(), 0.0);
    }

    #[test]
    fn display_equals_label() {
        assert_eq!(DataflowKind::OutputStationaryB.to_string(), "OSB");
    }

    #[test]
    fn id_and_label_are_inverses() {
        for k in DataflowKind::ALL {
            assert_eq!(k.id().label(), k.label());
            assert_eq!(DataflowKind::from_label(k.label()), Some(k));
        }
        assert_eq!(DataflowKind::from_label("TOY"), None);
    }
}
