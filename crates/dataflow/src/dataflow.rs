//! The open `Dataflow` trait: one interface over every mapping space.
//!
//! The paper frames each dataflow as "a set of parameters ... that
//! describes the optimal mapping in terms of energy efficiency", all
//! searched by one optimizer (Section VI-C). This trait is that framing
//! made literal: a dataflow *is* anything that can fold its candidate
//! mappings into a [`CandidateSink`], re-derive the model for given
//! parameters, and validate a candidate against hardware. The optimizer
//! ([`crate::search`]), the cluster planner and the serving plan compiler
//! are generic over `&dyn Dataflow`, so new spaces (Eyeriss v2's flexible
//! RS, a serial-accumulation OS variant) plug in through the
//! [`crate::DataflowRegistry`] without touching any of them.

use crate::candidate::{MappingCandidate, MappingParams};
use crate::error::DataflowError;
use crate::id::DataflowId;
use eyeriss_arch::access::LayerAccessProfile;
use eyeriss_arch::config::AcceleratorConfig;
use eyeriss_nn::LayerProblem;

/// Where a mapping space sends its candidates: the optimizer's running
/// fold ([`crate::search::optimize`]) or a plain collector (`Vec`).
///
/// The contract a space keeps:
///
/// * **Order.** Candidates are offered in the space's enumeration order.
///   The optimizer breaks exact ties (equal active PEs, equal score)
///   toward the *later* offer, so a space that visits its candidates in
///   another order must still offer them in enumeration order.
/// * **Bounds.** A space may skip a whole group of candidates when
///   [`prunes`](CandidateSink::prunes) says so for a `lower` profile
///   whose every count is ≤ the same count of every candidate the group
///   covers, with `active_pes` the *largest* PE count among them (more
///   PEs can only shorten the delay). A looser bound prunes less; a bound
///   above any covered count could change the winner.
/// * **Seeds.** A space may [`seed`](CandidateSink::seed) candidates
///   ahead of their turn, in any order, so that pruning bites early. A
///   seeded candidate must still be offered in its turn, unless a pruned
///   group covers it.
///
/// Only [`offer`](CandidateSink::offer) is required: a collector that
/// never prunes keeps every candidate.
pub trait CandidateSink {
    /// Takes one feasible candidate.
    fn offer(&mut self, candidate: MappingCandidate);

    /// The objective score of `lower` on `active_pes` PEs, by which a
    /// space orders its groups tightest first. Sinks without an objective
    /// price everything at 0.
    fn price(&self, lower: &LayerAccessProfile, active_pes: usize) -> f64 {
        let _ = (lower, active_pes);
        0.0
    }

    /// True when no candidate covered by the bound (`lower`,
    /// `active_pes`) can win, so the space may skip them all.
    fn prunes(&self, lower: &LayerAccessProfile, active_pes: usize) -> bool {
        let _ = (lower, active_pes);
        false
    }

    /// Takes `candidate` ahead of its turn, to prune against. Its offer in
    /// turn follows, so collectors ignore seeds.
    fn seed(&mut self, candidate: &MappingCandidate) {
        let _ = candidate;
    }
}

impl CandidateSink for Vec<MappingCandidate> {
    fn offer(&mut self, candidate: MappingCandidate) {
        self.push(candidate);
    }
}

/// The first offered candidate carrying `params` ([`Dataflow::model`]).
struct FindParams<'a> {
    params: &'a MappingParams,
    found: Option<MappingCandidate>,
}

impl CandidateSink for FindParams<'_> {
    fn offer(&mut self, candidate: MappingCandidate) {
        if self.found.is_none() && candidate.params == *self.params {
            self.found = Some(candidate);
        }
    }
}

/// A parameterized dataflow mapping space (Section VI-A, opened up).
///
/// The operations mirror the optimizer's contract:
///
/// * [`for_each_candidate`](Dataflow::for_each_candidate) — fold the
///   candidate mappings of a problem on given hardware into a
///   [`CandidateSink`] (nothing offered when the dataflow cannot operate);
///   [`enumerate`](Dataflow::enumerate) collects them;
/// * [`model`](Dataflow::model) — re-derive the full candidate (access
///   profile, active PEs) for *known* parameters, used to check
///   deserialized plans against the live model;
/// * [`validate`](Dataflow::validate) — feasibility screening of one
///   candidate, the typed replacement for `panic!` on params mismatch.
pub trait Dataflow: Send + Sync {
    /// Stable identity; the registry, memo and plan caches key on this.
    fn id(&self) -> DataflowId;

    /// Per-PE register file requirement in bytes (drives the Fig. 7b
    /// fixed-area storage split).
    fn rf_bytes(&self) -> f64;

    /// Offers every feasible mapping of `problem` on `hw` to `sink`, each
    /// with exact aggregate access counts, keeping the [`CandidateSink`]
    /// contract (enumeration order; bounds below every covered count).
    /// Offering nothing means the dataflow cannot operate at this point
    /// (WS at batch 64 on 256 PEs, Fig. 11a). The simplest space ignores
    /// the bounds and offers everything.
    fn for_each_candidate(
        &self,
        problem: &LayerProblem,
        hw: &AcceleratorConfig,
        sink: &mut dyn CandidateSink,
    );

    /// Collects every feasible mapping of `problem` on `hw`, in
    /// enumeration order. An empty vector means the dataflow cannot
    /// operate at this point.
    fn enumerate(&self, problem: &LayerProblem, hw: &AcceleratorConfig) -> Vec<MappingCandidate> {
        let mut out = Vec::new();
        self.for_each_candidate(problem, hw, &mut out);
        out
    }

    /// Re-derives the candidate for known `params`.
    ///
    /// The default folds the space looking for an exact parameter match;
    /// spaces with a closed-form model can override.
    ///
    /// # Errors
    ///
    /// [`DataflowError::Mismatch`] when `params` belong to another
    /// dataflow, [`DataflowError::NoSuchMapping`] when they are not in
    /// this space for `problem`.
    fn model(
        &self,
        params: &MappingParams,
        problem: &LayerProblem,
        hw: &AcceleratorConfig,
    ) -> Result<MappingCandidate, DataflowError> {
        params.expect_dataflow(self.id())?;
        let mut find = FindParams {
            params,
            found: None,
        };
        self.for_each_candidate(problem, hw, &mut find);
        find.found.ok_or_else(|| DataflowError::NoSuchMapping {
            dataflow: self.id(),
            detail: format!(
                "{params} for {}x{}x{} (batch {})",
                problem.shape.m, problem.shape.c, problem.shape.h, problem.batch
            ),
        })
    }

    /// Screens one candidate for feasibility on `hw`.
    ///
    /// # Errors
    ///
    /// [`DataflowError::Mismatch`] for foreign parameters,
    /// [`DataflowError::InvalidCandidate`] for degenerate PE counts or
    /// non-finite access counts.
    fn validate(
        &self,
        candidate: &MappingCandidate,
        hw: &AcceleratorConfig,
    ) -> Result<(), DataflowError> {
        candidate.params.expect_dataflow(self.id())?;
        if candidate.active_pes == 0 || candidate.active_pes > hw.num_pes() {
            return Err(DataflowError::InvalidCandidate {
                dataflow: self.id(),
                detail: format!(
                    "{} active PEs outside 1..={}",
                    candidate.active_pes,
                    hw.num_pes()
                ),
            });
        }
        if !candidate.profile.is_valid() {
            return Err(DataflowError::InvalidCandidate {
                dataflow: self.id(),
                detail: "non-finite or negative access counts".into(),
            });
        }
        Ok(())
    }

    /// The hardware this dataflow gets under the fixed-area comparison of
    /// Section VI-B: its own RF requirement, the rest of the Eq. (2)
    /// baseline storage area as buffer.
    fn comparison_hardware(&self, num_pes: usize) -> AcceleratorConfig {
        AcceleratorConfig::under_baseline_area(num_pes, self.rf_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::DataflowKind;
    use crate::registry;
    use eyeriss_nn::LayerShape;

    fn problem() -> LayerProblem {
        LayerProblem::new(LayerShape::conv(8, 4, 13, 3, 2).unwrap(), 2)
    }

    #[test]
    fn model_rederives_enumerated_candidates() {
        let df = registry::builtin(DataflowKind::RowStationary);
        let hw = df.comparison_hardware(256);
        let p = problem();
        let cands = df.enumerate(&p, &hw);
        assert!(!cands.is_empty());
        for c in cands.iter().take(4) {
            let again = df.model(&c.params, &p, &hw).unwrap();
            assert_eq!(&again, c, "model() must reproduce enumerate()'s candidate");
        }
    }

    #[test]
    fn model_rejects_foreign_params() {
        let rs = registry::builtin(DataflowKind::RowStationary);
        let hw = rs.comparison_hardware(256);
        let ws_params = MappingParams::WeightStationary { g_m: 1, g_c: 1 };
        let err = rs.model(&ws_params, &problem(), &hw).unwrap_err();
        assert!(matches!(err, DataflowError::Mismatch(_)));
    }

    #[test]
    fn model_rejects_out_of_space_params() {
        let rs = registry::builtin(DataflowKind::RowStationary);
        let hw = rs.comparison_hardware(256);
        // Absurd knobs no enumeration would produce.
        let params = MappingParams::RowStationary {
            n: 999,
            p: 999,
            q: 999,
            e: 999,
            r: 999,
            t: 999,
            filter_resident: true,
        };
        let err = rs.model(&params, &problem(), &hw).unwrap_err();
        assert!(matches!(err, DataflowError::NoSuchMapping { .. }));
    }

    #[test]
    fn validate_screens_pe_counts_and_profiles() {
        let rs = registry::builtin(DataflowKind::RowStationary);
        let hw = rs.comparison_hardware(256);
        let p = problem();
        let good = rs.enumerate(&p, &hw).into_iter().next().unwrap();
        assert!(rs.validate(&good, &hw).is_ok());

        let mut too_many = good.clone();
        too_many.active_pes = hw.num_pes() + 1;
        assert!(matches!(
            rs.validate(&too_many, &hw),
            Err(DataflowError::InvalidCandidate { .. })
        ));

        let mut bad_profile = good.clone();
        bad_profile.profile.alu_ops = f64::NAN;
        assert!(matches!(
            rs.validate(&bad_profile, &hw),
            Err(DataflowError::InvalidCandidate { .. })
        ));

        let mut foreign = good;
        foreign.params = MappingParams::WeightStationary { g_m: 1, g_c: 1 };
        assert!(matches!(
            rs.validate(&foreign, &hw),
            Err(DataflowError::Mismatch(_))
        ));
    }

    #[test]
    fn comparison_hardware_matches_fixed_area_split() {
        for kind in DataflowKind::ALL {
            let df = registry::builtin(kind);
            let hw = df.comparison_hardware(256);
            let direct = AcceleratorConfig::under_baseline_area(256, kind.rf_bytes());
            assert_eq!(hw, direct, "{kind}");
        }
    }
}
