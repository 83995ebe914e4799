//! Wire codecs for mapping candidates.
//!
//! A [`MappingCandidate`] round-trips through [`encode_candidate`] /
//! [`decode_candidate`] *bit-exactly*: the access profile travels as
//! IEEE-754 bit patterns and the params as tagged integers, so a plan
//! reloaded from disk scores, ties and re-executes identically to the
//! one that was saved. Parameters are tagged with the owning dataflow's
//! label; labels outside the builtin six resolve through the
//! [`DataflowRegistry`], so persisted plans of registered extensions
//! reload too.

use crate::candidate::{MappingCandidate, MappingParams};
use crate::kind::DataflowKind;
use crate::registry::DataflowRegistry;
use eyeriss_arch::wire as arch_wire;
use eyeriss_wire::{Value, WireError};

/// Schema version of one encoded candidate.
pub const CANDIDATE_VERSION: u64 = 1;

/// Encodes one candidate (versioned).
pub fn encode_candidate(c: &MappingCandidate) -> Value {
    Value::obj([
        ("v", Value::u64(CANDIDATE_VERSION)),
        ("profile", arch_wire::encode_profile(&c.profile)),
        ("active_pes", Value::usize(c.active_pes)),
        ("params", encode_params(&c.params)),
    ])
}

/// Decodes one candidate; custom dataflow labels resolve through `reg`.
///
/// # Errors
///
/// [`WireError`] on structural problems, unknown versions, or labels
/// absent from both the builtin taxonomy and `reg`.
pub fn decode_candidate(v: &Value, reg: &DataflowRegistry) -> Result<MappingCandidate, WireError> {
    let version = v.get("v")?.as_u64()?;
    if version != CANDIDATE_VERSION {
        return Err(WireError::UnsupportedVersion {
            supported: CANDIDATE_VERSION,
            found: version,
        });
    }
    let candidate = MappingCandidate {
        profile: arch_wire::decode_profile(v.get("profile")?)?,
        active_pes: v.get("active_pes")?.as_usize()?,
        params: decode_params(v.get("params")?, reg)?,
    };
    // Structural screening of untrusted documents: a tampered file must
    // not smuggle in divide-by-zero delays or NaN energies.
    if candidate.active_pes == 0 {
        return Err(WireError::Invalid("candidate has zero active PEs".into()));
    }
    if !candidate.profile.is_valid() {
        return Err(WireError::Invalid(
            "candidate access counts are non-finite or negative".into(),
        ));
    }
    Ok(candidate)
}

/// Encodes mapping params, tagged by the owning dataflow's label.
pub fn encode_params(p: &MappingParams) -> Value {
    let mut pairs = vec![("df".to_string(), Value::str(p.dataflow().label()))];
    let mut knob = |k: &str, v: usize| pairs.push((k.to_string(), Value::usize(v)));
    match *p {
        MappingParams::RowStationary {
            n,
            p,
            q,
            e,
            r,
            t,
            filter_resident,
        } => {
            knob("n", n);
            knob("p", p);
            knob("q", q);
            knob("e", e);
            knob("r", r);
            knob("t", t);
            pairs.push(("filter_resident".into(), Value::Bool(filter_resident)));
        }
        MappingParams::WeightStationary { g_m, g_c } => {
            knob("g_m", g_m);
            knob("g_c", g_c);
        }
        MappingParams::OutputStationaryA { e_x, e_y, n_par } => {
            knob("e_x", e_x);
            knob("e_y", e_y);
            knob("n_par", n_par);
        }
        MappingParams::OutputStationaryB { o_m, o_p } => {
            knob("o_m", o_m);
            knob("o_p", o_p);
        }
        MappingParams::OutputStationaryC { o_m, n_par } => {
            knob("o_m", o_m);
            knob("n_par", n_par);
        }
        MappingParams::NoLocalReuse {
            g_c,
            g_w,
            ifmap_resident,
        } => {
            knob("g_c", g_c);
            knob("g_w", g_w);
            pairs.push(("ifmap_resident".into(), Value::Bool(ifmap_resident)));
        }
        MappingParams::Custom { knobs, .. } => {
            pairs.push((
                "knobs".into(),
                Value::arr(knobs.iter().map(|&k| Value::usize(k))),
            ));
        }
    }
    Value::Obj(pairs)
}

/// Decodes mapping params; non-builtin labels resolve through `reg` into
/// [`MappingParams::Custom`].
///
/// # Errors
///
/// [`WireError::Invalid`] for labels neither builtin nor registered.
pub fn decode_params(v: &Value, reg: &DataflowRegistry) -> Result<MappingParams, WireError> {
    let label = v.get("df")?.as_str()?;
    let knob = |k: &str| -> Result<usize, WireError> { v.get(k)?.as_usize() };
    match DataflowKind::from_label(label) {
        Some(DataflowKind::RowStationary) => Ok(MappingParams::RowStationary {
            n: knob("n")?,
            p: knob("p")?,
            q: knob("q")?,
            e: knob("e")?,
            r: knob("r")?,
            t: knob("t")?,
            filter_resident: v.get("filter_resident")?.as_bool()?,
        }),
        Some(DataflowKind::WeightStationary) => Ok(MappingParams::WeightStationary {
            g_m: knob("g_m")?,
            g_c: knob("g_c")?,
        }),
        Some(DataflowKind::OutputStationaryA) => Ok(MappingParams::OutputStationaryA {
            e_x: knob("e_x")?,
            e_y: knob("e_y")?,
            n_par: knob("n_par")?,
        }),
        Some(DataflowKind::OutputStationaryB) => Ok(MappingParams::OutputStationaryB {
            o_m: knob("o_m")?,
            o_p: knob("o_p")?,
        }),
        Some(DataflowKind::OutputStationaryC) => Ok(MappingParams::OutputStationaryC {
            o_m: knob("o_m")?,
            n_par: knob("n_par")?,
        }),
        Some(DataflowKind::NoLocalReuse) => Ok(MappingParams::NoLocalReuse {
            g_c: knob("g_c")?,
            g_w: knob("g_w")?,
            ifmap_resident: v.get("ifmap_resident")?.as_bool()?,
        }),
        None => {
            let df = reg
                .by_label(label)
                .ok_or_else(|| WireError::Invalid(format!("unregistered dataflow {label:?}")))?;
            let raw = v.get("knobs")?.as_arr()?;
            if raw.len() != 4 {
                return Err(WireError::Invalid(format!(
                    "custom params carry {} knobs, expected 4",
                    raw.len()
                )));
            }
            let mut knobs = [0usize; 4];
            for (slot, item) in knobs.iter_mut().zip(raw) {
                *slot = item.as_usize()?;
            }
            Ok(MappingParams::Custom { id: df.id(), knobs })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::Dataflow;
    use crate::id::DataflowId;
    use crate::search::{self, Objective};
    use eyeriss_arch::config::AcceleratorConfig;
    use eyeriss_arch::cost::TableIv;
    use eyeriss_arch::energy::EnergyModel;
    use eyeriss_nn::{LayerProblem, LayerShape};
    use std::sync::Arc;

    #[test]
    fn searched_candidates_roundtrip_bit_exactly() {
        let em = EnergyModel::table_iv();
        let reg = DataflowRegistry::builtin();
        let p = LayerProblem::new(LayerShape::conv(8, 4, 13, 3, 2).unwrap(), 2);
        for df in reg.iter() {
            let hw = df.comparison_hardware(256);
            let Some(best) = search::optimize(df.as_ref(), &p, &hw, &TableIv, Objective::Energy)
            else {
                continue;
            };
            let back = decode_candidate(&encode_candidate(&best), &reg).unwrap();
            assert_eq!(back, best, "{} candidate diverged", df.id());
            assert_eq!(
                back.profile.total_energy(&em).to_bits(),
                best.profile.total_energy(&em).to_bits(),
                "{} energy lost bits",
                df.id()
            );
        }
    }

    #[test]
    fn custom_params_need_a_registry_entry() {
        struct Toy;
        impl Dataflow for Toy {
            fn id(&self) -> DataflowId {
                DataflowId::new("TOY")
            }
            fn rf_bytes(&self) -> f64 {
                8.0
            }
            fn for_each_candidate(
                &self,
                _: &LayerProblem,
                _: &AcceleratorConfig,
                _: &mut dyn crate::dataflow::CandidateSink,
            ) {
            }
        }
        let params = MappingParams::Custom {
            id: DataflowId::new("TOY"),
            knobs: [9, 8, 7, 6],
        };
        let encoded = encode_params(&params);
        // Without the registration the label is untrusted.
        assert!(matches!(
            decode_params(&encoded, &DataflowRegistry::builtin()),
            Err(WireError::Invalid(_))
        ));
        let mut reg = DataflowRegistry::builtin();
        reg.register(Arc::new(Toy)).unwrap();
        assert_eq!(decode_params(&encoded, &reg).unwrap(), params);
    }

    proptest::proptest! {
        #[test]
        fn prop_flex_custom_knobs_roundtrip(
            knobs in proptest::array::uniform4(0usize..100_000),
        ) {
            // flex-rs knob quadruples of any magnitude survive the wire
            // format bit-exactly once the dataflow is registered — the
            // persistence contract behind `PlanCache` reloads of flex
            // plans.
            let mut reg = DataflowRegistry::builtin();
            reg.register(Arc::new(crate::flex::FlexRsModel)).unwrap();
            let params = MappingParams::Custom {
                id: crate::flex::FLEX_RS,
                knobs,
            };
            let back = decode_params(&encode_params(&params), &reg).unwrap();
            proptest::prop_assert_eq!(back, params);
            // Without the registration the same bytes are refused, never
            // misattributed to a builtin space.
            proptest::prop_assert!(matches!(
                decode_params(&encode_params(&params), &DataflowRegistry::builtin()),
                Err(WireError::Invalid(_))
            ));
        }
    }

    #[test]
    fn unknown_candidate_version_is_rejected() {
        let reg = DataflowRegistry::builtin();
        let v = Value::obj([("v", Value::u64(99))]);
        assert!(matches!(
            decode_candidate(&v, &reg),
            Err(WireError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn tampered_candidates_are_screened() {
        let reg = DataflowRegistry::builtin();
        let rs = crate::registry::builtin(crate::kind::DataflowKind::RowStationary);
        let p = LayerProblem::new(LayerShape::conv(8, 4, 13, 3, 2).unwrap(), 2);
        let hw = rs.comparison_hardware(256);
        let best = search::optimize(rs, &p, &hw, &TableIv, Objective::Energy).unwrap();

        let mut zero_pes = best.clone();
        zero_pes.active_pes = 0;
        assert!(matches!(
            decode_candidate(&encode_candidate(&zero_pes), &reg),
            Err(WireError::Invalid(_))
        ));

        let mut nan_profile = best;
        nan_profile.profile.alu_ops = f64::NAN;
        assert!(matches!(
            decode_candidate(&encode_candidate(&nan_profile), &reg),
            Err(WireError::Invalid(_))
        ));
    }
}
