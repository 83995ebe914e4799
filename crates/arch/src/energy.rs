//! The data-movement hierarchy and its normalized energy costs (Table IV).
//!
//! The spatial architecture provides four levels of storage hierarchy —
//! DRAM, global buffer, array (inter-PE communication) and RF — with energy
//! per access, normalized to one MAC operation, extracted from a commercial
//! 65 nm process (Table IV of the paper):
//!
//! | Level  | DRAM | Buffer (>100 kB) | Array (1–2 mm) | RF (0.5 kB) |
//! |--------|------|------------------|-----------------|-------------|
//! | Cost   | 200x | 6x               | 2x              | 1x          |

use crate::cost::CostModelError;
use std::fmt;

/// One level of the data-movement hierarchy (Section VI-C), plus the ALU
/// itself so that compute energy can share the same accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Off-chip DRAM.
    Dram,
    /// On-chip global buffer (typically 100–300 kB).
    Buffer,
    /// Inter-PE communication across the array NoC.
    Array,
    /// Per-PE register file (local scratchpad, <= 1 kB).
    Rf,
    /// The MAC datapath itself.
    Alu,
}

impl Level {
    /// All levels, ordered from most to least expensive.
    pub const ALL: [Level; 5] = [
        Level::Dram,
        Level::Buffer,
        Level::Array,
        Level::Rf,
        Level::Alu,
    ];

    /// Short label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            Level::Dram => "DRAM",
            Level::Buffer => "Buffer",
            Level::Array => "Array",
            Level::Rf => "RF",
            Level::Alu => "ALU",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Normalized energy cost per access at each hierarchy level.
///
/// # Example
///
/// ```
/// use eyeriss_arch::energy::{EnergyModel, Level};
///
/// let m = EnergyModel::table_iv();
/// // Moving a word from DRAM costs 200 MACs' worth of energy.
/// assert_eq!(m.cost(Level::Dram) / m.cost(Level::Alu), 200.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    dram: f64,
    buffer: f64,
    array: f64,
    rf: f64,
    alu: f64,
}

impl EnergyModel {
    /// The commercial 65 nm numbers of Table IV.
    pub const fn table_iv() -> Self {
        EnergyModel {
            dram: 200.0,
            buffer: 6.0,
            array: 2.0,
            rf: 1.0,
            alu: 1.0,
        }
    }

    /// Builds a custom model (for sensitivity/ablation studies).
    ///
    /// # Errors
    ///
    /// [`CostModelError::InvalidCost`] when a cost is negative or
    /// non-finite, [`CostModelError::UnorderedHierarchy`] when the
    /// ordering `dram >= buffer >= array >= rf` is violated — the
    /// hierarchy is defined by decreasing access cost (Section II).
    pub fn new(
        dram: f64,
        buffer: f64,
        array: f64,
        rf: f64,
        alu: f64,
    ) -> Result<Self, CostModelError> {
        let m = EnergyModel {
            dram,
            buffer,
            array,
            rf,
            alu,
        };
        for level in Level::ALL {
            let value = m.cost(level);
            if !value.is_finite() || value < 0.0 {
                return Err(CostModelError::InvalidCost { level, value });
            }
        }
        for pair in [Level::Dram, Level::Buffer, Level::Array, Level::Rf].windows(2) {
            let (upper, lower) = (pair[0], pair[1]);
            if m.cost(upper) < m.cost(lower) {
                return Err(CostModelError::UnorderedHierarchy {
                    upper,
                    lower,
                    upper_cost: m.cost(upper),
                    lower_cost: m.cost(lower),
                });
            }
        }
        Ok(m)
    }

    /// Energy cost of one access at `level`, in MAC-equivalents.
    pub fn cost(&self, level: Level) -> f64 {
        match level {
            Level::Dram => self.dram,
            Level::Buffer => self.buffer,
            Level::Array => self.array,
            Level::Rf => self.rf,
            Level::Alu => self.alu,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::table_iv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_values() {
        let m = EnergyModel::table_iv();
        assert_eq!(m.cost(Level::Dram), 200.0);
        assert_eq!(m.cost(Level::Buffer), 6.0);
        assert_eq!(m.cost(Level::Array), 2.0);
        assert_eq!(m.cost(Level::Rf), 1.0);
        assert_eq!(m.cost(Level::Alu), 1.0);
    }

    #[test]
    fn costs_strictly_ordered() {
        let m = EnergyModel::default();
        assert!(m.cost(Level::Dram) > m.cost(Level::Buffer));
        assert!(m.cost(Level::Buffer) > m.cost(Level::Array));
        assert!(m.cost(Level::Array) > m.cost(Level::Rf));
    }

    #[test]
    fn new_rejects_inverted_hierarchy_with_typed_error() {
        let err = EnergyModel::new(1.0, 6.0, 2.0, 1.0, 1.0).unwrap_err();
        assert!(matches!(
            err,
            CostModelError::UnorderedHierarchy {
                upper: Level::Dram,
                lower: Level::Buffer,
                ..
            }
        ));
        assert!(err.to_string().contains("DRAM"));
        let err = EnergyModel::new(200.0, 6.0, 2.0, -1.0, 1.0).unwrap_err();
        assert!(matches!(
            err,
            CostModelError::InvalidCost {
                level: Level::Rf,
                ..
            }
        ));
        let err = EnergyModel::new(f64::NAN, 6.0, 2.0, 1.0, 1.0).unwrap_err();
        assert!(matches!(err, CostModelError::InvalidCost { .. }));
        assert!(EnergyModel::new(200.0, 6.0, 2.0, 1.0, 1.0).is_ok());
    }

    #[test]
    fn labels_are_unique() {
        let labels: Vec<_> = Level::ALL.iter().map(|l| l.label()).collect();
        let mut dedup = labels.clone();
        dedup.dedup();
        assert_eq!(labels, dedup);
    }
}
