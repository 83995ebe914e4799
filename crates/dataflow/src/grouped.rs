//! Grouped-convolution lowering shared by the six dense mapping spaces.
//!
//! The paper's dataflows predate grouped/depthwise convolution, so none of
//! their mapping spaces know about groups. The honest lowering — and what
//! the paper itself does for AlexNet's two-tower layers (Table II lists
//! per-tower shapes) — is to map *one group* and run the `G` groups
//! sequentially: the per-group shape is enumerated as usual and every
//! access count scales by `G`, while the mapping parameters and active-PE
//! count stay per-group. A candidate's [`delay`](crate::MappingCandidate::delay)
//! then reflects the serialized groups automatically
//! (`G·alu_per_group / active_pes`), which is exactly why compact
//! depthwise layers starve these dataflows and motivate `flex-rs`.

use crate::candidate::{MappingCandidate, MappingParams};
use crate::dataflow::CandidateSink;
use eyeriss_arch::access::LayerAccessProfile;
use eyeriss_nn::{LayerProblem, LayerShape};

/// Lowers `problem` through `per_group`, a dense mapping fold over
/// `(shape, batch, sink)`: identity for dense layers; for grouped layers
/// the per-group shape is folded and every candidate's (and bound's)
/// profile scaled by `G` (sequential group execution).
pub(crate) fn lower(
    problem: &LayerProblem,
    sink: &mut dyn CandidateSink,
    per_group: impl FnOnce(&LayerShape, usize, &mut dyn CandidateSink),
) {
    let g = problem.shape.groups;
    if g <= 1 {
        per_group(&problem.shape, problem.batch, sink);
    } else {
        let mut lift = Lift {
            inner: sink,
            groups: g as f64,
            mesh: 1.0,
            rep: 1,
            relabel: None,
        };
        per_group(&problem.shape.per_group(), problem.batch, &mut lift);
    }
}

/// Forwards a per-group fold's candidates and bounds as whole-layer ones:
/// every count `× groups`, array hops `× mesh`, active PEs `× rep`, and
/// the params from `relabel` when given. Plain grouped lowering scales
/// only; flex-rs's gangs use all four.
pub(crate) struct Lift<'a> {
    pub(crate) inner: &'a mut dyn CandidateSink,
    pub(crate) groups: f64,
    pub(crate) mesh: f64,
    pub(crate) rep: usize,
    pub(crate) relabel: Option<&'a dyn Fn() -> MappingParams>,
}

impl Lift<'_> {
    fn profile(&self, profile: &LayerAccessProfile) -> LayerAccessProfile {
        let mut p = *profile;
        p.scale(self.groups);
        p.ifmap.array_hops *= self.mesh;
        p.filter.array_hops *= self.mesh;
        p.psum.array_hops *= self.mesh;
        p
    }

    fn candidate(&self, candidate: &MappingCandidate) -> MappingCandidate {
        MappingCandidate {
            profile: self.profile(&candidate.profile),
            active_pes: candidate.active_pes * self.rep,
            params: self.relabel.map_or(candidate.params, |relabel| relabel()),
        }
    }
}

impl CandidateSink for Lift<'_> {
    fn offer(&mut self, candidate: MappingCandidate) {
        let lifted = self.candidate(&candidate);
        self.inner.offer(lifted);
    }

    fn price(&self, lower: &LayerAccessProfile, active_pes: usize) -> f64 {
        self.inner
            .price(&self.profile(lower), active_pes * self.rep)
    }

    fn prunes(&self, lower: &LayerAccessProfile, active_pes: usize) -> bool {
        self.inner
            .prunes(&self.profile(lower), active_pes * self.rep)
    }

    fn seed(&mut self, candidate: &MappingCandidate) {
        let lifted = self.candidate(candidate);
        self.inner.seed(&lifted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::DataflowKind;
    use crate::registry;

    #[test]
    fn grouped_profile_is_g_times_the_per_group_profile() {
        for kind in DataflowKind::ALL {
            let df = registry::builtin(kind);
            let hw = df.comparison_hardware(256);
            let grouped =
                LayerProblem::new(LayerShape::conv_grouped(8, 4, 13, 3, 2, 2).unwrap(), 2);
            let per = grouped.per_group();
            let gc = df.enumerate(&grouped, &hw);
            let pc = df.enumerate(&per, &hw);
            assert_eq!(gc.len(), pc.len(), "{kind}");
            for (g, p) in gc.iter().zip(&pc) {
                assert_eq!(g.params, p.params, "{kind}");
                assert_eq!(g.active_pes, p.active_pes, "{kind}");
                assert_eq!(g.profile.alu_ops, p.profile.alu_ops * 2.0, "{kind}");
                assert_eq!(
                    g.profile.ifmap.rf_reads,
                    p.profile.ifmap.rf_reads * 2.0,
                    "{kind}"
                );
                // Serialized groups: double the work on the same PEs.
                assert_eq!(g.delay(), p.delay() * 2.0, "{kind}");
            }
        }
    }

    #[test]
    fn grouped_alu_ops_match_layer_macs() {
        let df = registry::builtin(DataflowKind::RowStationary);
        let hw = df.comparison_hardware(256);
        let dw = LayerProblem::new(LayerShape::depthwise(16, 13, 3, 1).unwrap(), 2);
        let cands = df.enumerate(&dw, &hw);
        assert!(!cands.is_empty());
        for c in cands {
            assert_eq!(c.profile.alu_ops, dw.macs() as f64);
        }
    }
}
