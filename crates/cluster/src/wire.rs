//! Wire codecs for cluster plans.
//!
//! A [`ClusterPlan`] is the unit the serving plan cache persists: one
//! partition, every tile, and every tile's winning mapping with its
//! exact access profile. The codec is versioned and bit-exact — a plan
//! decoded from disk compares equal (`==`) to the plan that was saved,
//! re-executes to identical psums, and reports identical access counts.

use crate::partition::{Partition, Tile};
use crate::plan::{ArrayPlan, ClusterPlan, TilePlan};
use eyeriss_arch::wire as arch_wire;
use eyeriss_arch::CostModelRegistry;
use eyeriss_dataflow::wire as df_wire;
use eyeriss_dataflow::DataflowRegistry;
use eyeriss_nn::wire as nn_wire;
use eyeriss_wire::{Value, WireError};

/// Schema version of one encoded cluster plan. Version 2 added the
/// cost-model descriptor (which model priced the plan — see
/// [`arch_wire::COST_DESCRIPTOR_VERSION`]); version-1 plans predate open
/// cost models and are rejected with a typed error.
pub const PLAN_VERSION: u64 = 2;

/// Encodes a partition scheme.
pub fn encode_partition(p: &Partition) -> Value {
    match *p {
        Partition::Batch => Value::obj([("scheme", Value::str("batch"))]),
        Partition::OfmapChannel => Value::obj([("scheme", Value::str("ofmap-ch"))]),
        Partition::FmapTile => Value::obj([("scheme", Value::str("fmap-tile"))]),
        Partition::Hybrid {
            batch_ways,
            channel_ways,
        } => Value::obj([
            ("scheme", Value::str("hybrid")),
            ("batch_ways", Value::usize(batch_ways)),
            ("channel_ways", Value::usize(channel_ways)),
        ]),
    }
}

/// Decodes a partition scheme.
///
/// # Errors
///
/// [`WireError::Invalid`] on an unknown scheme tag.
pub fn decode_partition(v: &Value) -> Result<Partition, WireError> {
    match v.get("scheme")?.as_str()? {
        "batch" => Ok(Partition::Batch),
        "ofmap-ch" => Ok(Partition::OfmapChannel),
        "fmap-tile" => Ok(Partition::FmapTile),
        "hybrid" => Ok(Partition::Hybrid {
            batch_ways: v.get("batch_ways")?.as_usize()?,
            channel_ways: v.get("channel_ways")?.as_usize()?,
        }),
        other => Err(WireError::Invalid(format!(
            "unknown partition scheme {other:?}"
        ))),
    }
}

fn encode_tile(t: &Tile) -> Value {
    Value::obj([
        ("shape", nn_wire::encode_shape(&t.shape)),
        ("n", Value::usize(t.n)),
        ("img0", Value::usize(t.img0)),
        ("m0", Value::usize(t.m0)),
        ("y0", Value::usize(t.y0)),
        ("x0", Value::usize(t.x0)),
        ("keep_y", Value::usize(t.keep_y)),
        ("keep_x", Value::usize(t.keep_x)),
    ])
}

fn decode_tile(v: &Value) -> Result<Tile, WireError> {
    Ok(Tile {
        shape: nn_wire::decode_shape(v.get("shape")?)?,
        n: v.get("n")?.as_usize()?,
        img0: v.get("img0")?.as_usize()?,
        m0: v.get("m0")?.as_usize()?,
        y0: v.get("y0")?.as_usize()?,
        x0: v.get("x0")?.as_usize()?,
        keep_y: v.get("keep_y")?.as_usize()?,
        keep_x: v.get("keep_x")?.as_usize()?,
    })
}

/// Encodes one cluster plan (versioned).
pub fn encode_plan(p: &ClusterPlan) -> Value {
    Value::obj([
        ("v", Value::u64(PLAN_VERSION)),
        ("partition", encode_partition(&p.partition)),
        ("arrays", Value::usize(p.arrays)),
        (
            "per_array",
            Value::arr(p.per_array.iter().map(|a| {
                Value::obj([
                    ("array_id", Value::usize(a.array_id)),
                    (
                        "tiles",
                        Value::arr(a.tiles.iter().map(|t| {
                            Value::obj([
                                ("tile", encode_tile(&t.tile)),
                                ("mapping", df_wire::encode_candidate(&t.mapping)),
                            ])
                        })),
                    ),
                ])
            })),
        ),
        ("cost", arch_wire::encode_cost_descriptor(&p.cost)),
        ("energy", Value::f64_bits(p.energy)),
        ("delay", Value::f64_bits(p.delay)),
        ("dram_delay", Value::f64_bits(p.dram_delay)),
    ])
}

/// Decodes one cluster plan; custom dataflow labels in tile mappings
/// resolve through `reg`, and the pricing cost model's label through
/// `costs`.
///
/// # Errors
///
/// [`WireError`] on structural problems or unknown versions/labels —
/// including plans priced by a cost model not registered in `costs`.
pub fn decode_plan(
    v: &Value,
    reg: &DataflowRegistry,
    costs: &CostModelRegistry,
) -> Result<ClusterPlan, WireError> {
    let version = v.get("v")?.as_u64()?;
    if version != PLAN_VERSION {
        return Err(WireError::UnsupportedVersion {
            supported: PLAN_VERSION,
            found: version,
        });
    }
    let mut per_array = Vec::new();
    for a in v.get("per_array")?.as_arr()? {
        let mut tiles = Vec::new();
        for t in a.get("tiles")?.as_arr()? {
            tiles.push(TilePlan {
                tile: decode_tile(t.get("tile")?)?,
                mapping: df_wire::decode_candidate(t.get("mapping")?, reg)?,
            });
        }
        per_array.push(ArrayPlan {
            array_id: a.get("array_id")?.as_usize()?,
            tiles,
        });
    }
    Ok(ClusterPlan {
        partition: decode_partition(v.get("partition")?)?,
        arrays: v.get("arrays")?.as_usize()?,
        cost: arch_wire::decode_cost_descriptor(v.get("cost")?, costs)?,
        per_array,
        energy: v.get("energy")?.as_f64_bits()?,
        delay: v.get("delay")?.as_f64_bits()?,
        dram_delay: v.get("dram_delay")?.as_f64_bits()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contention::SharedDram;
    use crate::plan::plan_layer;
    use eyeriss_arch::{AcceleratorConfig, TableIv};
    use eyeriss_dataflow::registry::builtin;
    use eyeriss_dataflow::search::Objective;
    use eyeriss_dataflow::DataflowKind;
    use eyeriss_nn::{LayerProblem, LayerShape};

    fn a_plan() -> ClusterPlan {
        plan_layer(
            builtin(DataflowKind::RowStationary),
            &LayerProblem::new(LayerShape::conv(8, 3, 13, 3, 2).unwrap(), 4),
            2,
            &AcceleratorConfig::eyeriss_chip(),
            &TableIv,
            &SharedDram::scaled(2),
            Objective::EnergyDelayProduct,
        )
        .unwrap()
    }

    #[test]
    fn partitions_roundtrip() {
        for p in [
            Partition::Batch,
            Partition::OfmapChannel,
            Partition::FmapTile,
            Partition::Hybrid {
                batch_ways: 2,
                channel_ways: 3,
            },
        ] {
            assert_eq!(decode_partition(&encode_partition(&p)).unwrap(), p);
        }
        let bad = Value::obj([("scheme", Value::str("ring"))]);
        assert!(matches!(decode_partition(&bad), Err(WireError::Invalid(_))));
    }

    #[test]
    fn plans_roundtrip_through_text() {
        let reg = DataflowRegistry::builtin();
        let costs = CostModelRegistry::builtin();
        let plan = a_plan();
        assert_eq!(plan.cost.id.label(), "table-iv");
        let text = encode_plan(&plan).render();
        let back = decode_plan(&Value::parse(&text).unwrap(), &reg, &costs).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.energy.to_bits(), plan.energy.to_bits());
        assert_eq!(back.delay.to_bits(), plan.delay.to_bits());
        assert_eq!(
            back.subproblems().collect::<Vec<_>>(),
            plan.subproblems().collect::<Vec<_>>()
        );
        assert_eq!(
            back.total_profile(),
            plan.total_profile(),
            "access counts must survive the round trip"
        );
    }

    #[test]
    fn future_plan_versions_are_rejected() {
        let reg = DataflowRegistry::builtin();
        let costs = CostModelRegistry::builtin();
        let mut v = encode_plan(&a_plan());
        if let Value::Obj(pairs) = &mut v {
            for (k, val) in pairs.iter_mut() {
                if k == "v" {
                    *val = Value::u64(PLAN_VERSION + 1);
                }
            }
        }
        assert!(matches!(
            decode_plan(&v, &reg, &costs),
            Err(WireError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn plans_priced_by_unregistered_models_are_rejected() {
        use eyeriss_arch::cost::CostModel;
        use eyeriss_arch::EnergyModel;
        let custom = CostModel::new("flat", EnergyModel::new(200.0, 2.0, 2.0, 1.0, 1.0).unwrap());
        let plan = plan_layer(
            builtin(DataflowKind::RowStationary),
            &LayerProblem::new(LayerShape::conv(8, 3, 13, 3, 2).unwrap(), 4),
            2,
            &AcceleratorConfig::eyeriss_chip(),
            &custom,
            &SharedDram::scaled(2),
            Objective::EnergyDelayProduct,
        )
        .unwrap();
        let v = encode_plan(&plan);
        let reg = DataflowRegistry::builtin();
        assert!(matches!(
            decode_plan(&v, &reg, &CostModelRegistry::builtin()),
            Err(WireError::Invalid(_))
        ));
        let mut costs = CostModelRegistry::builtin();
        costs.register(custom).unwrap();
        let back = decode_plan(&v, &reg, &costs).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.cost.fingerprint, custom.fingerprint());
    }
}
