//! Cluster-level (partition, mapping) co-optimization.
//!
//! Composes the partition space of [`crate::partition`] with the
//! per-array mapping optimizer of [`eyeriss_dataflow::search`]
//! (Section VI-C of the paper): for every feasible partition of a layer,
//! each distinct sub-problem is mapped optimally onto its array, and the
//! partition is scored by total energy and cluster delay under the
//! shared-DRAM contention model. The best `(partition, mapping)` pair is
//! picked per layer under an energy or energy-delay-product objective —
//! the TETRIS-style scheduling loop, one level above the paper's
//! single-array optimizer. The planner is generic over
//! [`&dyn Dataflow`](Dataflow): it co-optimizes any registered mapping
//! space, not just the builtin six.

use crate::contention::SharedDram;
use crate::partition::{enumerate, split, Partition, Tile};
use eyeriss_arch::access::LayerAccessProfile;
use eyeriss_arch::config::AcceleratorConfig;
use eyeriss_arch::cost::{CostDescriptor, CostModel, CostReport};
use eyeriss_dataflow::search::{MappingMemo, Objective};
use eyeriss_dataflow::{Dataflow, MappingCandidate};
use eyeriss_nn::LayerProblem;

/// One tile with its optimal per-array mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct TilePlan {
    /// The tile.
    pub tile: Tile,
    /// The energy-optimal mapping of that tile on one array.
    pub mapping: MappingCandidate,
}

/// The planned work of one array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayPlan {
    /// Which array.
    pub array_id: usize,
    /// Planned tiles, executed sequentially.
    pub tiles: Vec<TilePlan>,
}

impl ArrayPlan {
    /// Delay proxy of this array: the sum of its tiles' mapping delays
    /// (MACs / active PEs, the Section VII-B delay model).
    pub fn delay(&self) -> f64 {
        self.tiles.iter().map(|t| t.mapping.delay()).sum()
    }

    /// Analytic delay of this array under `cost`: per-tile compute
    /// proxies floored by the model's per-level bandwidths (identical to
    /// [`ArrayPlan::delay`] for latency-transparent models).
    pub fn delay_under(&self, cost: &CostModel) -> f64 {
        self.tiles
            .iter()
            .map(|t| cost.delay_of(&t.mapping.profile, t.mapping.active_pes))
            .sum()
    }

    /// Total analytic energy of this array's tiles under `cost`.
    pub fn energy(&self, cost: &CostModel) -> f64 {
        self.tiles
            .iter()
            .map(|t| cost.energy_of(&t.mapping.profile))
            .sum()
    }
}

/// A fully planned layer: one partition, per-array optimal mappings and
/// the cluster-level cost model evaluated.
///
/// Serializable through [`crate::wire`] with a versioned schema, so a
/// serving plan cache can persist compiled plans across restarts and a
/// cold process re-executes them bit-exactly without a single mapping
/// search.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPlan {
    /// The chosen partition.
    pub partition: Partition,
    /// Number of arrays planned for.
    pub arrays: usize,
    /// Which cost model priced this plan (identity + exact numeric
    /// fingerprint) — persisted with the plan, so reloads never cross-hit
    /// plans priced under different numbers.
    pub cost: CostDescriptor,
    /// Per-array plans, in array order (idle arrays have no tiles).
    pub per_array: Vec<ArrayPlan>,
    /// Total analytic energy across arrays (MAC units). Energy is
    /// additive — partitioning buys delay, not energy.
    pub energy: f64,
    /// Cluster delay: critical-path array delay, floored by the shared
    /// DRAM channel's aggregate transfer time.
    pub delay: f64,
    /// The shared-channel transfer component of [`ClusterPlan::delay`].
    pub dram_delay: f64,
}

impl ClusterPlan {
    /// Energy-delay product of the planned layer.
    pub fn edp(&self) -> f64 {
        self.energy * self.delay
    }

    /// Aggregate access profile across every planned tile.
    pub fn total_profile(&self) -> LayerAccessProfile {
        profile_of(&self.per_array)
    }

    /// Re-prices the plan into the unified [`CostReport`] vocabulary.
    /// Energies add across arrays; per-level transfer floors are the
    /// *per-array maximum* (arrays run in parallel, each owning private
    /// bandwidth at every level), applied on top of the plan's own
    /// cluster delay (critical path, shared-DRAM-floored).
    pub fn report(&self, cost: &CostModel) -> CostReport {
        let per_array: Vec<LayerAccessProfile> = self
            .per_array
            .iter()
            .map(|a| {
                let mut p = LayerAccessProfile::new();
                for t in &a.tiles {
                    p.accumulate(&t.mapping.profile);
                }
                p
            })
            .collect();
        let refs: Vec<&LayerAccessProfile> = per_array.iter().collect();
        cost.report_parallel(&refs, self.delay)
    }

    /// True when the shared DRAM channel, not compute, bounds the delay.
    pub fn bandwidth_bound(&self) -> bool {
        self.dram_delay >= self.delay
    }

    /// The executor sub-problems this plan describes (each array's
    /// planned tiles, in array order), borrowed straight from the plan —
    /// no tile clones — so a runtime can execute a cached plan via
    /// [`crate::Cluster::execute`] without re-partitioning or
    /// re-searching.
    pub fn subproblems(&self) -> impl Iterator<Item = SubProblemView<'_>> {
        self.per_array.iter().map(|a| SubProblemView {
            array_id: a.array_id,
            tiles: &a.tiles,
        })
    }
}

/// Borrowed view of one array's planned work ([`ClusterPlan::subproblems`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubProblemView<'a> {
    /// Which array runs these tiles.
    pub array_id: usize,
    /// The planned tiles, executed sequentially on that array.
    pub tiles: &'a [TilePlan],
}

/// Sums the access profiles of every tile across `per_array`.
fn profile_of(per_array: &[ArrayPlan]) -> LayerAccessProfile {
    let mut p = LayerAccessProfile::new();
    for a in per_array {
        for t in &a.tiles {
            p.accumulate(&t.mapping.profile);
        }
    }
    p
}

/// Plans one specific `partition` of `problem` over `arrays` arrays of
/// configuration `hw`, optimizing each distinct sub-problem within
/// `df`'s mapping space. Returns `None` when the partition is infeasible
/// or any tile has no feasible mapping.
#[allow(clippy::too_many_arguments)]
pub fn plan_partition(
    df: &dyn Dataflow,
    partition: Partition,
    problem: &LayerProblem,
    arrays: usize,
    hw: &AcceleratorConfig,
    cost: &CostModel,
    shared: &SharedDram,
    objective: Objective,
) -> Option<ClusterPlan> {
    let mut memo = MappingMemo::new(hw, cost, objective);
    plan_partition_memo(&mut memo, df, partition, problem, arrays, cost, shared)
}

/// [`plan_partition`] against a caller-owned [`MappingMemo`], so distinct
/// tile problems — which repeat both *within* a partition (balanced
/// chunking yields at most two distinct sizes per dimension) and
/// *across* the partitions a layer search enumerates — are each mapped
/// exactly once.
fn plan_partition_memo(
    memo: &mut MappingMemo<'_>,
    df: &dyn Dataflow,
    partition: Partition,
    problem: &LayerProblem,
    arrays: usize,
    cost: &CostModel,
    shared: &SharedDram,
) -> Option<ClusterPlan> {
    let subs = split(partition, &problem.shape, problem.batch, arrays).ok()?;
    let mut per_array = Vec::with_capacity(subs.len());
    for sub in subs {
        let mut tiles = Vec::with_capacity(sub.tiles.len());
        for tile in sub.tiles {
            let mapping = memo.best(df, &LayerProblem::new(tile.shape, tile.n))?;
            tiles.push(TilePlan { tile, mapping });
        }
        per_array.push(ArrayPlan {
            array_id: sub.array_id,
            tiles,
        });
    }
    let energy: f64 = per_array.iter().map(|a| a.energy(cost)).sum();
    let compute_delay = per_array
        .iter()
        .map(|a| a.delay_under(cost))
        .fold(0.0f64, f64::max);
    let dram_delay = shared.transfer_delay(profile_of(&per_array).dram_accesses());
    Some(ClusterPlan {
        partition,
        arrays,
        cost: cost.descriptor(),
        per_array,
        energy,
        delay: compute_delay.max(dram_delay),
        dram_delay,
    })
}

/// Plans `problem` over the cluster, searching every feasible partition
/// and returning the best under `objective`. Returns `None` only when no
/// partition of this layer is feasible at all.
///
/// # Example
///
/// ```
/// use eyeriss_cluster::{plan_layer, SharedDram};
/// use eyeriss_dataflow::search::Objective;
/// use eyeriss_dataflow::{registry, DataflowKind};
/// use eyeriss_arch::{AcceleratorConfig, TableIv};
/// use eyeriss_nn::{LayerProblem, LayerShape};
///
/// let conv3 = LayerProblem::new(LayerShape::conv(384, 256, 15, 3, 1)?, 16);
/// let hw = AcceleratorConfig::eyeriss_chip();
/// let plan = plan_layer(
///     registry::builtin(DataflowKind::RowStationary), &conv3, 4, &hw,
///     &TableIv, &SharedDram::scaled(4),
///     Objective::EnergyDelayProduct,
/// ).expect("CONV3 partitions over 4 arrays");
/// assert_eq!(plan.arrays, 4);
/// assert!(plan.delay > 0.0);
/// # Ok::<(), eyeriss_nn::ShapeError>(())
/// ```
pub fn plan_layer(
    df: &dyn Dataflow,
    problem: &LayerProblem,
    arrays: usize,
    hw: &AcceleratorConfig,
    cost: &CostModel,
    shared: &SharedDram,
    objective: Objective,
) -> Option<ClusterPlan> {
    let score = |p: &ClusterPlan| -> f64 { objective.score(p.energy, p.delay) };
    // One memo across every enumerated partition: sub-shapes recur from
    // partition to partition (idle splits, balanced chunk sizes), so the
    // shared memo turns the layer search into one scan per distinct tile.
    let mut memo = MappingMemo::new(hw, cost, objective);
    enumerate(&problem.shape, problem.batch, arrays)
        .into_iter()
        .filter_map(|p| plan_partition_memo(&mut memo, df, p, problem, arrays, cost, shared))
        .min_by(|a, b| score(a).partial_cmp(&score(b)).expect("finite scores"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_arch::cost::TableIv;
    use eyeriss_dataflow::registry::builtin;
    use eyeriss_dataflow::DataflowKind;
    use eyeriss_nn::LayerShape;

    fn hw() -> AcceleratorConfig {
        AcceleratorConfig::eyeriss_chip()
    }

    fn rs() -> &'static dyn Dataflow {
        builtin(DataflowKind::RowStationary)
    }

    fn plan(
        partition: Partition,
        shape: &LayerShape,
        n: usize,
        arrays: usize,
    ) -> Option<ClusterPlan> {
        plan_partition(
            rs(),
            partition,
            &LayerProblem::new(*shape, n),
            arrays,
            &hw(),
            &TableIv,
            &SharedDram::scaled(arrays),
            Objective::Energy,
        )
    }

    #[test]
    fn batch_partition_divides_delay() {
        let conv3 = LayerShape::conv(384, 256, 15, 3, 1).unwrap();
        let one = plan(Partition::Batch, &conv3, 16, 1).unwrap();
        let four = plan(Partition::Batch, &conv3, 16, 4).unwrap();
        assert!(four.delay < one.delay * 0.5, "no speedup from 4 arrays");
        // Energy does not parallelize away; mapping smaller batches can
        // shift it somewhat, but it must stay in the same regime.
        assert!((0.5..2.0).contains(&(four.energy / one.energy)));
    }

    #[test]
    fn plan_layer_picks_the_best_partition() {
        let conv3 = LayerProblem::new(LayerShape::conv(384, 256, 15, 3, 1).unwrap(), 16);
        let shared = SharedDram::scaled(4);
        let best =
            plan_layer(rs(), &conv3, 4, &hw(), &TableIv, &shared, Objective::Energy).unwrap();
        assert_eq!(best.cost, TableIv.descriptor(), "plan records its pricer");
        for p in enumerate(&conv3.shape, 16, 4) {
            if let Some(candidate) = plan_partition(
                rs(),
                p,
                &conv3,
                4,
                &hw(),
                &TableIv,
                &shared,
                Objective::Energy,
            ) {
                assert!(best.energy <= candidate.energy * (1.0 + 1e-9), "{p}");
            }
        }
    }

    #[test]
    fn fc_layer_plans_via_channel_partition() {
        let fc = LayerProblem::new(LayerShape::fully_connected(4096, 256, 6).unwrap(), 16);
        let plan = plan_layer(
            rs(),
            &fc,
            8,
            &hw(),
            &TableIv,
            &SharedDram::scaled(8),
            Objective::Energy,
        )
        .unwrap();
        assert_eq!(plan.per_array.len(), 8);
        assert!(plan.per_array.iter().all(|a| !a.tiles.is_empty()));
    }

    #[test]
    fn scarce_shared_bandwidth_becomes_the_bound() {
        let conv1 = LayerProblem::new(LayerShape::conv(96, 3, 227, 11, 4).unwrap(), 4);
        let p = plan_partition(
            rs(),
            Partition::OfmapChannel,
            &conv1,
            4,
            &hw(),
            &TableIv,
            &SharedDram::new(0.001),
            Objective::EnergyDelayProduct,
        )
        .unwrap();
        assert!(p.bandwidth_bound());
        assert!(p.delay >= p.dram_delay);
    }

    #[test]
    fn batch_one_rejects_batch_partition_but_plans_others() {
        let conv3 = LayerShape::conv(384, 256, 15, 3, 1).unwrap();
        assert!(plan(Partition::Batch, &conv3, 1, 4).is_none());
        assert!(plan(Partition::OfmapChannel, &conv3, 1, 4).is_some());
        assert!(plan(Partition::FmapTile, &conv3, 1, 4).is_some());
    }

    #[test]
    fn profile_aggregates_all_tiles() {
        let conv3 = LayerShape::conv(384, 256, 15, 3, 1).unwrap();
        let p = plan(Partition::OfmapChannel, &conv3, 4, 4).unwrap();
        let profile = p.total_profile();
        assert_eq!(profile.alu_ops, conv3.macs(4) as f64);
        assert!(profile.is_valid());
        // The unified report re-prices the same profile: totals agree
        // bit-exactly with the plan's energy accounting order-for-order
        // up to the per-array association, and the delay baseline is the
        // plan's own cluster delay.
        let report = p.report(&TableIv);
        assert!((report.total_energy - p.energy).abs() < 1e-6 * p.energy.max(1.0));
        assert_eq!(report.delay, p.delay);
        assert_eq!(report.model, TableIv.descriptor());
    }
}
