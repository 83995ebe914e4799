//! The hierarchical-mesh NoC of Eyeriss v2, alongside the v1 buses the
//! chip counts its array traffic on.
//!
//! Eyeriss v1 moves every word over global multicast buses and a psum
//! chain; all array-level deliveries cost one hop. Eyeriss v2 instead
//! groups PEs into *PE clusters* joined by *router clusters* in a 2-D
//! mesh: deliveries inside a cluster ride a local all-to-all fabric
//! (one hop, as before), while words leaving their source cluster also
//! traverse router-to-router links. This module models that second tier:
//! it counts local and router hops per transfer mode and exposes the
//! aggregate router bandwidth, so measured [`crate::SimStats`] and a
//! bandwidth-aware [`CostModel`](eyeriss_arch::cost::CostModel)
//! both see the mesh.
//!
//! The router charge uses the same closed form as the `flex-rs` analytical
//! model ([`eyeriss_dataflow::flex::mesh_routing_factor`]): the simulator
//! and the mapping search must price the mesh identically or the
//! optimizer's choices would not survive execution.

use crate::error::SimError;
use eyeriss_arch::config::GridDims;
use eyeriss_dataflow::flex::mesh_routing_factor;

/// How a transfer uses the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeshMode {
    /// One source cluster to one destination cluster (e.g. a psum handoff
    /// between neighbouring gangs).
    Unicast,
    /// One source to a tagged subset of PEs across the gang's clusters
    /// (filter rows, diagonal ifmap delivery).
    Multicast,
    /// One source to every PE of the gang (v2's weight broadcast mode).
    Broadcast,
}

/// Hop counters of the two mesh tiers.
///
/// Local hops are exact integers; router hops are fractional because the
/// average-distance charge is (the same halo-style averaging the access
/// profiles already use).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeshStats {
    /// Transfers issued.
    pub transactions: u64,
    /// Word deliveries over intra-cluster fabrics.
    pub local_hops: f64,
    /// Word traversals of router-to-router links.
    pub router_hops: f64,
}

impl MeshStats {
    /// Total array-level hops (local + router), the quantity charged at
    /// the Table IV array cost.
    pub fn total_hops(&self) -> f64 {
        self.local_hops + self.router_hops
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &MeshStats) {
        self.transactions += other.transactions;
        self.local_hops += other.local_hops;
        self.router_hops += other.router_hops;
    }
}

/// A hierarchical mesh over a PE array: the array is tiled into clusters
/// of `cluster` PEs, and `gangs` disjoint gangs each own an equal share
/// of the clusters.
///
/// # Example
///
/// ```
/// use eyeriss_sim::mesh::HierarchicalMesh;
/// use eyeriss_arch::GridDims;
///
/// // The 12x14 chip carved into 3x1 clusters, 8 gangs of 7 clusters.
/// let mesh = HierarchicalMesh::new(GridDims::new(12, 14), GridDims::new(3, 1), 8)?;
/// assert_eq!(mesh.n_clusters(), 56);
/// assert_eq!(mesh.clusters_per_gang(), 7);
/// assert!(mesh.routing_factor() > 1.0);
/// # Ok::<(), eyeriss_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchicalMesh {
    grid: GridDims,
    cluster: GridDims,
    gangs: usize,
}

impl HierarchicalMesh {
    /// Builds a mesh over `grid` with `cluster`-shaped PE clusters and
    /// `gangs` replication gangs.
    ///
    /// # Errors
    ///
    /// Fails unless the cluster tiles the grid exactly and `gangs`
    /// divides the cluster count — ragged meshes have no hardware analog.
    pub fn new(grid: GridDims, cluster: GridDims, gangs: usize) -> Result<Self, SimError> {
        if !grid.rows.is_multiple_of(cluster.rows) || !grid.cols.is_multiple_of(cluster.cols) {
            return Err(SimError::new(format!(
                "{}x{} clusters do not tile a {}x{} array",
                cluster.rows, cluster.cols, grid.rows, grid.cols
            )));
        }
        let n_clusters = (grid.rows / cluster.rows) * (grid.cols / cluster.cols);
        if gangs == 0 || !n_clusters.is_multiple_of(gangs) {
            return Err(SimError::new(format!(
                "{gangs} gangs do not divide {n_clusters} clusters"
            )));
        }
        Ok(HierarchicalMesh {
            grid,
            cluster,
            gangs,
        })
    }

    /// A degenerate mesh equivalent to the v1 single-bus array: one
    /// cluster spanning the whole grid.
    pub fn single_cluster(grid: GridDims) -> Self {
        HierarchicalMesh {
            grid,
            cluster: grid,
            gangs: 1,
        }
    }

    /// The PE array the mesh spans.
    pub fn grid(&self) -> GridDims {
        self.grid
    }

    /// The PE-cluster shape.
    pub fn cluster(&self) -> GridDims {
        self.cluster
    }

    /// Number of PE clusters in the array.
    pub fn n_clusters(&self) -> usize {
        (self.grid.rows / self.cluster.rows) * (self.grid.cols / self.cluster.cols)
    }

    /// Replication gangs sharing the array.
    pub fn gangs(&self) -> usize {
        self.gangs
    }

    /// Clusters owned by one gang.
    pub fn clusters_per_gang(&self) -> usize {
        self.n_clusters() / self.gangs
    }

    /// Average hop inflation of a delivery within one gang — the shared
    /// closed form of [`eyeriss_dataflow::flex::mesh_routing_factor`].
    /// Exactly 1.0 for [`HierarchicalMesh::single_cluster`].
    pub fn routing_factor(&self) -> f64 {
        mesh_routing_factor(
            self.cluster.rows,
            self.cluster.cols,
            self.clusters_per_gang(),
        )
    }

    /// Records one transfer of `words` words to `receivers` PEs.
    ///
    /// Every delivered word costs one local hop (the intra-cluster
    /// all-to-all). Router hops depend on the mode: a broadcast crosses
    /// each of the gang's `cpg - 1` inter-cluster links once per word (a
    /// spanning tree over the gang); a unicast pays the mean inter-cluster
    /// distance `(cpg - 1)/2`; a multicast charges the average-case
    /// boundary-crossing share per delivery — `receivers x` the routing
    /// factor's excess — which is what makes aggregated multicast traffic
    /// match [`HierarchicalMesh::charge_bus`].
    ///
    /// # Panics
    ///
    /// Panics if there are no receivers.
    pub fn transfer(&self, stats: &mut MeshStats, mode: MeshMode, words: usize, receivers: usize) {
        assert!(receivers > 0, "mesh transfer needs at least one receiver");
        let cpg = self.clusters_per_gang() as f64;
        stats.transactions += 1;
        stats.local_hops += (words * receivers) as f64;
        stats.router_hops += match mode {
            MeshMode::Unicast => words as f64 * (cpg - 1.0) / 2.0,
            MeshMode::Broadcast => words as f64 * (cpg - 1.0),
            MeshMode::Multicast => (words * receivers) as f64 * (self.routing_factor() - 1.0),
        };
    }

    /// Folds an aggregate bus hop count (the v1 buses' `word_hops`) into
    /// mesh accounting: all hops stay local, plus the routing factor's
    /// excess as router hops. `total_hops()` afterwards equals
    /// `word_hops x routing_factor()` — the identity the `flex-rs`
    /// analytical profiles rely on.
    pub fn charge_bus(&self, stats: &mut MeshStats, word_hops: f64) {
        stats.local_hops += word_hops;
        stats.router_hops += word_hops * (self.routing_factor() - 1.0);
    }

    /// Aggregate router bandwidth in words per cycle, given each
    /// router-to-router link moves `link_words_per_cycle`: every
    /// inter-cluster link of the 2-D mesh operates concurrently. Feed
    /// this to
    /// [`CostModel::with_bandwidth`](eyeriss_arch::cost::CostModel::with_bandwidth)
    /// at [`Level::Array`](eyeriss_arch::energy::Level::Array) to let the
    /// analytic delay see the mesh.
    pub fn aggregate_bandwidth(&self, link_words_per_cycle: f64) -> f64 {
        let gr = self.grid.rows / self.cluster.rows;
        let gc = self.grid.cols / self.cluster.cols;
        let links = gr * (gc - 1) + gc * (gr - 1);
        // A single-cluster mesh has no router links; its "bandwidth" is
        // the local fabric's, modeled as one link.
        links.max(1) as f64 * link_words_per_cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eyeriss_arch::cost::CostModel;
    use eyeriss_arch::energy::{EnergyModel, Level};

    fn chip_mesh() -> HierarchicalMesh {
        HierarchicalMesh::new(GridDims::new(12, 14), GridDims::new(3, 1), 8).unwrap()
    }

    #[test]
    fn geometry_is_validated() {
        assert!(HierarchicalMesh::new(GridDims::new(12, 14), GridDims::new(5, 1), 1).is_err());
        assert!(HierarchicalMesh::new(GridDims::new(12, 14), GridDims::new(3, 1), 5).is_err());
        let m = chip_mesh();
        assert_eq!(m.n_clusters(), 56);
        assert_eq!(m.clusters_per_gang(), 7);
        assert_eq!(m.gangs(), 8);
        assert_eq!(m.cluster(), GridDims::new(3, 1));
    }

    #[test]
    fn single_cluster_is_the_v1_bus() {
        let m = HierarchicalMesh::single_cluster(GridDims::new(12, 14));
        assert_eq!(m.routing_factor(), 1.0);
        let mut s = MeshStats::default();
        m.transfer(&mut s, MeshMode::Broadcast, 10, 168);
        assert_eq!(s.router_hops, 0.0);
        assert_eq!(s.total_hops(), 1680.0);
        m.charge_bus(&mut s, 500.0);
        assert_eq!(s.total_hops(), 2180.0);
    }

    #[test]
    fn modes_order_router_cost() {
        let m = chip_mesh();
        let (mut uni, mut multi, mut bcast) = Default::default();
        m.transfer(&mut uni, MeshMode::Unicast, 100, 1);
        m.transfer(&mut multi, MeshMode::Multicast, 100, 21);
        m.transfer(&mut bcast, MeshMode::Broadcast, 100, 21);
        assert_eq!(uni.router_hops, 100.0 * 3.0); // (7-1)/2 links
        assert_eq!(bcast.router_hops, 100.0 * 6.0); // 7-1 links
        assert!(multi.router_hops > 0.0);
        // Every delivered word is one local hop regardless of mode.
        assert_eq!(multi.local_hops, 2100.0);
        assert_eq!(uni.local_hops, 100.0);
    }

    #[test]
    fn charge_bus_matches_the_flex_factor() {
        let m = chip_mesh();
        let mut s = MeshStats::default();
        m.charge_bus(&mut s, 1000.0);
        assert!((s.total_hops() - 1000.0 * m.routing_factor()).abs() < 1e-9);
        assert_eq!(
            m.routing_factor(),
            eyeriss_dataflow::flex::mesh_routing_factor(3, 1, 7)
        );
    }

    #[test]
    fn stats_merge_adds() {
        let m = chip_mesh();
        let mut a = MeshStats::default();
        m.transfer(&mut a, MeshMode::Unicast, 10, 1);
        let b = a;
        a.merge(&b);
        assert_eq!(a.transactions, 2);
        assert_eq!(a.total_hops(), 2.0 * b.total_hops());
    }

    #[test]
    fn aggregate_bandwidth_feeds_a_cost_model() {
        let m = chip_mesh(); // 4x14 cluster grid: 4*13 + 14*3 = 94 links
        let bw = m.aggregate_bandwidth(2.0);
        assert_eq!(bw, 188.0);
        let priced = CostModel::new("mesh-bw", EnergyModel::table_iv())
            .with_bandwidth(Level::Array, bw)
            .unwrap();
        assert_eq!(priced.bandwidth(Level::Array), 188.0);
        // The degenerate mesh still reports a usable bandwidth.
        let solo = HierarchicalMesh::single_cluster(GridDims::new(12, 14));
        assert_eq!(solo.aggregate_bandwidth(2.0), 2.0);
    }
}
