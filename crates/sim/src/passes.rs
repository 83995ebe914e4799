//! The two-phase mapping (Section V-B) as executed by the simulator.
//!
//! The logical PE array (one PE per 1-D primitive) is folded onto the
//! physical array exactly as in `eyeriss-dataflow`'s row-stationary model;
//! the winning mapping parameters from the same optimizer are reused here
//! so the simulator executes the mapping the analysis framework scored.

use crate::error::SimError;
use eyeriss_arch::config::AcceleratorConfig;
use eyeriss_arch::cost::TableIv;
use eyeriss_dataflow::candidate::MappingParams;
use eyeriss_dataflow::registry::builtin;
use eyeriss_dataflow::search::{self, Objective};
use eyeriss_dataflow::DataflowKind;
use eyeriss_nn::{LayerProblem, LayerShape};

/// A resolved row-stationary mapping for one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RsMapping {
    /// Images interleaved per pass.
    pub n: usize,
    /// Filters interleaved per PE.
    pub p: usize,
    /// Channels interleaved per PE.
    pub q: usize,
    /// Ofmap rows per strip.
    pub e: usize,
    /// Vertical sets (channel groups accumulated spatially).
    pub r: usize,
    /// Horizontal sets (filter groups sharing ifmap rows).
    pub t: usize,
    /// Buffer residency policy.
    pub filter_resident: bool,
}

impl RsMapping {
    /// Derives the energy-optimal mapping for `shape` at batch `n_batch`.
    ///
    /// # Errors
    ///
    /// Fails when the row-stationary model has no feasible mapping (e.g.
    /// the filter is taller than the PE array).
    pub fn plan(
        shape: &LayerShape,
        n_batch: usize,
        hw: &AcceleratorConfig,
    ) -> Result<Self, SimError> {
        let rs = builtin(DataflowKind::RowStationary);
        let best = search::optimize(
            rs,
            &LayerProblem::new(*shape, n_batch),
            hw,
            &TableIv,
            Objective::Energy,
        )
        .ok_or_else(|| {
            SimError::new(format!(
                "no feasible row-stationary mapping for {}x{} filter on {}x{} array",
                shape.r, shape.r, hw.grid.rows, hw.grid.cols
            ))
        })?;
        // The typed error path: a candidate carrying another dataflow's
        // params surfaces as a `SimError` instead of aborting.
        let params = best.params.expect_dataflow(rs.id())?;
        RsMapping::from_params(params)
            .ok_or_else(|| SimError::new(format!("row-stationary params expected, got {params}")))
    }

    /// Builds the executable mapping from searched row-stationary
    /// parameters — the bridge that lets a precompiled plan's winning
    /// candidate execute directly, with no repeat search. Returns `None`
    /// for another dataflow's parameters (the caller falls back to
    /// [`RsMapping::plan`]).
    pub fn from_params(params: &MappingParams) -> Option<Self> {
        let &MappingParams::RowStationary {
            n,
            p,
            q,
            e,
            r,
            t,
            filter_resident,
        } = params
        else {
            return None;
        };
        Some(RsMapping {
            n,
            p,
            q,
            e,
            r,
            t,
            filter_resident,
        })
    }

    /// True when this mapping fits `hw`'s per-array resources: every
    /// factor non-zero, its spatial footprint within the PE grid and its
    /// RF interleaving within the scratchpads — the same feasibility
    /// constraints the row-stationary enumerator prunes with
    /// ([`eyeriss_dataflow::rs::rf_words_needed`] is the shared RF
    /// accounting). Executors use this to screen mappings from plans
    /// compiled against a physically larger array.
    pub fn fits(&self, shape: &LayerShape, hw: &AcceleratorConfig) -> bool {
        [self.n, self.p, self.q, self.e, self.r, self.t]
            .iter()
            .all(|&f| f > 0)
            && self.r * shape.r <= hw.grid.rows
            && self.t * self.e <= hw.grid.cols
            && eyeriss_dataflow::rs::rf_words_needed(shape, self.n, self.p, self.q)
                <= hw.rf_words_per_pe()
    }

    /// Fold counts along each dimension for `shape` at batch `n_batch`:
    /// `(batch groups, filter groups, channel groups, strips)`.
    pub fn fold_counts(&self, shape: &LayerShape, n_batch: usize) -> (usize, usize, usize, usize) {
        (
            n_batch.div_ceil(self.n),
            shape.m.div_ceil(self.p * self.t),
            shape.c.div_ceil(self.q * self.r),
            shape.e.div_ceil(self.e),
        )
    }

    /// Filters handled by horizontal set `sh` of filter group `mg`,
    /// clamped to the layer.
    pub fn filters_of(&self, shape: &LayerShape, mg: usize, sh: usize) -> std::ops::Range<usize> {
        let start = (mg * self.t + sh) * self.p;
        start.min(shape.m)..(start + self.p).min(shape.m)
    }

    /// Channels handled by vertical set `sv` of channel group `cg`,
    /// clamped to the layer.
    pub fn channels_of(&self, shape: &LayerShape, cg: usize, sv: usize) -> std::ops::Range<usize> {
        let start = (cg * self.r + sv) * self.q;
        start.min(shape.c)..(start + self.q).min(shape.c)
    }

    /// Images of batch group `ng`, clamped to the batch.
    pub fn images_of(&self, n_batch: usize, ng: usize) -> std::ops::Range<usize> {
        let start = ng * self.n;
        start.min(n_batch)..(start + self.n).min(n_batch)
    }

    /// Ofmap rows of strip `sg`, clamped to the layer.
    pub fn ofmap_rows_of(&self, shape: &LayerShape, sg: usize) -> std::ops::Range<usize> {
        let start = sg * self.e;
        start.min(shape.e)..(start + self.e).min(shape.e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_nn::alexnet;

    fn chip() -> AcceleratorConfig {
        AcceleratorConfig::eyeriss_chip()
    }

    #[test]
    fn plans_every_alexnet_layer_on_the_chip() {
        for layer in alexnet::all_layers() {
            let m = RsMapping::plan(&layer.shape, 4, &chip()).expect(&layer.name);
            assert!(m.r * layer.shape.r <= 12, "{}", layer.name);
            assert!(m.t * m.e <= 14, "{}", layer.name);
        }
    }

    #[test]
    fn folds_cover_every_coordinate() {
        let shape = alexnet::conv_layers()[1].shape; // CONV2
        let m = RsMapping::plan(&shape, 3, &chip()).unwrap();
        let (ngs, mgs, cgs, sgs) = m.fold_counts(&shape, 3);

        // Filters: union of all (mg, sh) ranges is exactly 0..M.
        let mut seen = vec![false; shape.m];
        for mg in 0..mgs {
            for sh in 0..m.t {
                for f in m.filters_of(&shape, mg, sh) {
                    assert!(!seen[f], "filter {f} mapped twice");
                    seen[f] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "some filters unmapped");

        // Channels.
        let mut seen = vec![false; shape.c];
        for cg in 0..cgs {
            for sv in 0..m.r {
                for c in m.channels_of(&shape, cg, sv) {
                    assert!(!seen[c], "channel {c} mapped twice");
                    seen[c] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "some channels unmapped");

        // Images and ofmap rows.
        let imgs: usize = (0..ngs).map(|ng| m.images_of(3, ng).len()).sum();
        assert_eq!(imgs, 3);
        let rows: usize = (0..sgs).map(|sg| m.ofmap_rows_of(&shape, sg).len()).sum();
        assert_eq!(rows, shape.e);
    }

    #[test]
    fn infeasible_layer_is_an_error() {
        let shape = LayerShape::conv(2, 2, 29, 15, 1).unwrap(); // R=15 > 12 rows
        let err = RsMapping::plan(&shape, 1, &chip()).unwrap_err();
        assert!(err.to_string().contains("no feasible"));
    }
}
