//! The cost-model layer: energy *and* latency accounting from one value.
//!
//! Table IV of the paper fixes one 200×/6×/2×/1× energy hierarchy, but the
//! methodology of Section VI-C — "counting the number of accesses to each
//! level ... and weighting the accesses at each level with a cost" — is
//! parametric in those weights. Different processes, NoC designs and array
//! sizes change the per-level costs, and a serving deployment additionally
//! needs a *latency* dimension (per-level bandwidth) the energy table
//! cannot express. A cost model is therefore ten numbers — five energy
//! costs and five bandwidths — and one pricing path over them:
//!
//! * [`CostModel`] — the value type: identity, energy cost per [`Level`],
//!   per-level bandwidth, and every pricing method (energy, delay,
//!   report, fingerprint). Nothing else multiplies counts by costs.
//! * [`TableIv`] — the canonical model (the paper's numbers,
//!   latency-transparent: infinite per-level bandwidth, so delay reduces
//!   to the Section VII-B compute proxy).
//! * [`CostReport`] — the unified result vocabulary: per-level ×
//!   per-data-type energy plus the analytic delay, returned by simulator
//!   stats, cluster stats and the analysis metrics alike.
//! * [`CostModelRegistry`] — models looked up by label, so persisted plans
//!   reload against the model that priced them.
//!
//! A model can only be built from a validated [`EnergyModel`] (costs
//! finite and non-negative) plus positive bandwidths, so every model is
//! monotone: more accesses never price lower.
//!
//! # Example
//!
//! ```
//! use eyeriss_arch::cost::{CostModel, TableIv};
//! use eyeriss_arch::energy::{EnergyModel, Level};
//!
//! // The canonical model prices exactly like Table IV.
//! assert_eq!(TableIv.energy_cost(Level::Dram), 200.0);
//!
//! // A custom 28 nm-ish scenario: cheaper DRAM, a finite DRAM channel.
//! let low_power = CostModel::new("lp-28nm", EnergyModel::new(120.0, 5.0, 2.0, 1.0, 1.0)?)
//!     .with_bandwidth(Level::Dram, 4.0)?;
//! assert!(low_power.energy_cost(Level::Dram) < TableIv.energy_cost(Level::Dram));
//! assert_ne!(low_power.fingerprint(), TableIv.fingerprint());
//! # Ok::<(), eyeriss_arch::cost::CostModelError>(())
//! ```

use crate::access::{AccessCounts, DataType, LayerAccessProfile};
use crate::energy::{EnergyModel, Level};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Stable identity of a [`CostModel`].
///
/// Compares and hashes by label *content*; the label is also the
/// serialization form persisted plan caches store on disk.
#[derive(Debug, Clone, Copy)]
pub struct CostModelId(&'static str);

impl CostModelId {
    /// Creates an id from a static label. Labels are the wire format of
    /// the id, so pick short, stable, unique names.
    pub const fn new(label: &'static str) -> Self {
        CostModelId(label)
    }

    /// The id's label.
    pub fn label(&self) -> &'static str {
        self.0
    }
}

impl PartialEq for CostModelId {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for CostModelId {}

impl Hash for CostModelId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl fmt::Display for CostModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

/// Exact bit-pattern fingerprint of a cost model: the IEEE-754 bits of
/// the energy cost and bandwidth at every level, in [`Level::ALL`] order.
/// Two models with equal fingerprints price every profile identically, so
/// plan caches may share entries between them; distinct fingerprints must
/// never cross-hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CostFingerprint {
    /// Energy-cost bits per level, [`Level::ALL`] order.
    pub energy_bits: [u64; 5],
    /// Bandwidth bits per level, [`Level::ALL`] order.
    pub bandwidth_bits: [u64; 5],
}

/// The `(identity, fingerprint)` pair a priced artifact (cluster plan,
/// plan-cache key) records, so persisted plans remember which model
/// priced them and reload against the matching one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CostDescriptor {
    /// Which model.
    pub id: CostModelId,
    /// Its exact numeric fingerprint at pricing time.
    pub fingerprint: CostFingerprint,
}

impl fmt::Display for CostDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// Typed errors of the cost layer: construction invariants (the Section II
/// hierarchy ordering) and registry lookups.
#[derive(Debug, Clone, PartialEq)]
pub enum CostModelError {
    /// A per-level cost is negative or non-finite.
    InvalidCost {
        /// The offending level.
        level: Level,
        /// The offending value.
        value: f64,
    },
    /// The hierarchy ordering `DRAM >= buffer >= array >= RF` is violated
    /// (Section II defines the hierarchy by decreasing access cost).
    UnorderedHierarchy {
        /// The higher level whose cost fell below the lower one.
        upper: Level,
        /// The lower level.
        lower: Level,
        /// Cost at `upper`.
        upper_cost: f64,
        /// Cost at `lower`.
        lower_cost: f64,
    },
    /// A per-level bandwidth is zero, negative or NaN.
    InvalidBandwidth {
        /// The offending level.
        level: Level,
        /// The offending value.
        value: f64,
    },
    /// A model with this id is already registered.
    Duplicate(CostModelId),
    /// No registered model carries this label.
    Unknown(String),
}

impl fmt::Display for CostModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostModelError::InvalidCost { level, value } => {
                write!(
                    f,
                    "energy cost at {level} must be finite and >= 0, got {value}"
                )
            }
            CostModelError::UnorderedHierarchy {
                upper,
                lower,
                upper_cost,
                lower_cost,
            } => write!(
                f,
                "hierarchy costs must decrease with level: {upper} ({upper_cost}) \
                 < {lower} ({lower_cost})"
            ),
            CostModelError::InvalidBandwidth { level, value } => {
                write!(f, "bandwidth at {level} must be positive, got {value}")
            }
            CostModelError::Duplicate(id) => {
                write!(f, "cost model {id} is already registered")
            }
            CostModelError::Unknown(label) => {
                write!(f, "no cost model registered under {label:?}")
            }
        }
    }
}

impl std::error::Error for CostModelError {}

/// A cost model over the four-level hierarchy (Section VI-C): an
/// identity, an energy cost per access at each [`Level`] and a bandwidth
/// per level. Every price — profile energies, the analytic delay, the
/// [`CostReport`] vocabulary — is computed here from these ten numbers
/// and nothing else, so two models with equal [`CostFingerprint`]s price
/// identically by construction (plan caches rely on it).
///
/// A model is built only through [`CostModel::new`] (costs from a
/// validated [`EnergyModel`]: finite and non-negative) and
/// [`CostModel::with_bandwidth`] (positive), so more accesses never price
/// lower, and search may prune by lower bounds under any model.
///
/// # Example
///
/// ```
/// use eyeriss_arch::cost::CostModel;
/// use eyeriss_arch::energy::{EnergyModel, Level};
///
/// let m = CostModel::new("dram-x2", EnergyModel::new(400.0, 6.0, 2.0, 1.0, 1.0)?)
///     .with_bandwidth(Level::Dram, 8.0)?;
/// assert_eq!(m.id().label(), "dram-x2");
/// assert_eq!(m.energy_cost(Level::Dram), 400.0);
/// assert_eq!(m.bandwidth(Level::Dram), 8.0);
/// assert!(m.bandwidth(Level::Buffer).is_infinite());
/// # Ok::<(), eyeriss_arch::cost::CostModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    id: CostModelId,
    energy: EnergyModel,
    bandwidth: [f64; 5],
}

impl CostModel {
    /// A latency-transparent model with `energy`'s per-level costs under
    /// the id `label`: infinite bandwidth everywhere, so
    /// [`CostModel::delay_of`] is the paper's Section VII-B compute proxy
    /// (MACs / active PEs).
    pub const fn new(label: &'static str, energy: EnergyModel) -> Self {
        CostModel {
            id: CostModelId::new(label),
            energy,
            bandwidth: [f64::INFINITY; 5],
        }
    }

    /// Sets a finite bandwidth (words per cycle) at `level`, letting that
    /// level bound the analytic delay.
    ///
    /// # Errors
    ///
    /// [`CostModelError::InvalidBandwidth`] unless positive.
    pub fn with_bandwidth(
        mut self,
        level: Level,
        words_per_cycle: f64,
    ) -> Result<Self, CostModelError> {
        if words_per_cycle.is_nan() || words_per_cycle <= 0.0 {
            return Err(CostModelError::InvalidBandwidth {
                level,
                value: words_per_cycle,
            });
        }
        self.bandwidth[level_index(level)] = words_per_cycle;
        Ok(self)
    }

    /// Stable identity; registries and plan caches key on this (together
    /// with the numeric [`CostModel::fingerprint`]).
    pub fn id(&self) -> CostModelId {
        self.id
    }

    /// Energy cost of one access at `level`, normalized to one MAC.
    pub fn energy_cost(&self, level: Level) -> f64 {
        self.energy.cost(level)
    }

    /// Deliverable words per cycle at `level` (infinite unless set by
    /// [`CostModel::with_bandwidth`]).
    pub fn bandwidth(&self, level: Level) -> f64 {
        self.bandwidth[level_index(level)]
    }

    /// Exact numeric fingerprint: the bit patterns of every per-level
    /// energy cost and bandwidth. Two models fingerprinting equal price
    /// identically; plan caches must never share entries across distinct
    /// fingerprints.
    pub fn fingerprint(&self) -> CostFingerprint {
        CostFingerprint {
            energy_bits: Level::ALL.map(|l| self.energy_cost(l).to_bits()),
            bandwidth_bits: self.bandwidth.map(f64::to_bits),
        }
    }

    /// The `(id, fingerprint)` descriptor priced artifacts record.
    pub fn descriptor(&self) -> CostDescriptor {
        CostDescriptor {
            id: self.id,
            fingerprint: self.fingerprint(),
        }
    }

    /// Energy of one data type's accesses at one level: count × cost,
    /// the weighted term of Section VI-C. Every energy below is a sum of
    /// these cells — over levels first, then over data types.
    fn cell(&self, counts: &AccessCounts, level: Level) -> f64 {
        counts.at_level(level) * self.energy_cost(level)
    }

    /// Compute (ALU) energy of a profile.
    fn alu_energy(&self, profile: &LayerAccessProfile) -> f64 {
        profile.alu_ops * self.energy_cost(Level::Alu)
    }

    /// Transfer time at one storage level: words moved there (all data
    /// types) over its bandwidth.
    fn transfer_delay(&self, profile: &LayerAccessProfile, level: Level) -> f64 {
        let words: f64 = DataType::ALL
            .iter()
            .map(|&t| profile.of(t).at_level(level))
            .sum();
        words / self.bandwidth(level)
    }

    /// Total energy of a layer profile including ALU operations: per-type
    /// level sums, then across types, then the ALU term.
    pub fn energy_of(&self, profile: &LayerAccessProfile) -> f64 {
        let data: f64 = DataType::ALL
            .iter()
            .map(|&t| self.energy_of_type(profile, t))
            .sum();
        data + self.alu_energy(profile)
    }

    /// Energy at one level summed over data types (the Fig. 10/12
    /// stacks); [`Level::Alu`] returns the MAC energy.
    pub fn energy_at_level(&self, profile: &LayerAccessProfile, level: Level) -> f64 {
        if level == Level::Alu {
            return self.alu_energy(profile);
        }
        DataType::ALL
            .iter()
            .map(|&t| self.cell(profile.of(t), level))
            .sum()
    }

    /// Energy of one data type across all levels (the Fig. 12d/14c
    /// stacks).
    pub fn energy_of_type(&self, profile: &LayerAccessProfile, ty: DataType) -> f64 {
        Level::ALL
            .iter()
            .map(|&l| self.cell(profile.of(ty), l))
            .sum()
    }

    /// Analytic delay of a layer profile on `active_pes` PEs: the compute
    /// proxy (MACs / active PEs, Section VII-B) floored by every level's
    /// transfer time under this model's bandwidths. Latency-transparent
    /// models return exactly the compute proxy.
    pub fn delay_of(&self, profile: &LayerAccessProfile, active_pes: usize) -> f64 {
        MEMORY_LEVELS
            .iter()
            .fold(profile.alu_ops / active_pes as f64, |delay, &l| {
                delay.max(self.transfer_delay(profile, l))
            })
    }

    /// Prices a whole layer profile into the unified [`CostReport`]
    /// vocabulary: per-level × per-data-type energy plus the analytic
    /// delay decomposition (compute proxy = MACs / active PEs).
    pub fn report(&self, profile: &LayerAccessProfile, active_pes: usize) -> CostReport {
        self.report_with_delay(profile, profile.alu_ops / active_pes as f64)
    }

    /// [`CostModel::report`] with an explicit compute-delay baseline, for
    /// callers whose delay is not the analytic PE proxy — a simulator's
    /// measured cycles, a cluster plan's critical path. The report's
    /// final delay is the baseline floored by every level's transfer time
    /// under this model's bandwidths.
    pub fn report_with_delay(
        &self,
        profile: &LayerAccessProfile,
        compute_delay: f64,
    ) -> CostReport {
        let energy = DataType::ALL.map(|t| Level::ALL.map(|l| self.cell(profile.of(t), l)));
        let mut transfer_delay = [0.0f64; 5];
        let mut delay = compute_delay;
        for (t, &level) in transfer_delay.iter_mut().zip(&MEMORY_LEVELS) {
            *t = self.transfer_delay(profile, level);
            delay = delay.max(*t);
        }
        CostReport {
            model: self.descriptor(),
            energy,
            alu_energy: self.alu_energy(profile),
            total_energy: self.energy_of(profile),
            compute_delay,
            transfer_delay,
            delay,
        }
    }

    /// Prices units that run *in parallel* (cluster arrays) into one
    /// report: energies add across units, but each unit owns private
    /// bandwidth at every level, so per-level transfer floors combine by
    /// **maximum** rather than summing — and the final delay is the
    /// caller's critical-path baseline (which should already account for
    /// shared resources, e.g. a cluster's shared-DRAM contention model)
    /// floored by those per-unit transfer times.
    pub fn report_parallel(
        &self,
        units: &[&LayerAccessProfile],
        baseline_delay: f64,
    ) -> CostReport {
        let mut total = CostReport::zero(self.descriptor());
        let mut transfer_delay = [0.0f64; 5];
        for profile in units {
            let unit = self.report_with_delay(profile, 0.0);
            for (acc, t) in transfer_delay.iter_mut().zip(&unit.transfer_delay) {
                *acc = acc.max(*t);
            }
            total.accumulate(&unit);
        }
        total.compute_delay = baseline_delay;
        total.transfer_delay = transfer_delay;
        total.delay = transfer_delay
            .iter()
            .fold(baseline_delay, |acc, &t| acc.max(t));
        total
    }
}

/// The canonical cost model: the commercial 65 nm numbers of Table IV
/// (DRAM 200×, buffer 6×, array 2×, RF 1×, ALU 1×), latency-transparent.
//
// Named like a unit struct because callers, the benchmark among them,
// write `&TableIv` and `TableIv.report(..)`; a borrow of the constant is
// promoted to `'static`.
#[allow(non_upper_case_globals)]
pub const TableIv: CostModel = CostModel::new("table-iv", EnergyModel::table_iv());

/// The hierarchy's storage levels, [`Level::ALL`] without the ALU.
const MEMORY_LEVELS: [Level; 4] = [Level::Dram, Level::Buffer, Level::Array, Level::Rf];

/// Index of `level` in [`Level::ALL`] (the report matrices' column order).
fn level_index(level: Level) -> usize {
    Level::ALL
        .iter()
        .position(|&l| l == level)
        .expect("Level::ALL is total")
}

/// Index of `ty` in [`DataType::ALL`] (the report matrices' row order).
fn type_index(ty: DataType) -> usize {
    DataType::ALL
        .iter()
        .position(|&t| t == ty)
        .expect("DataType::ALL is total")
}

/// The unified pricing vocabulary: one layer (or an accumulated network)
/// priced under one [`CostModel`] — per-level × per-data-type energy, the
/// ALU term, and the analytic delay decomposition.
///
/// Reports accumulate ([`CostReport::accumulate`]) so network totals and
/// cluster aggregates speak the same vocabulary as single layers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostReport {
    /// Which model priced this report (identity + exact fingerprint, so
    /// accumulation can reject sums across same-label models with
    /// different numbers).
    pub model: CostDescriptor,
    /// Energy per data type (row, [`DataType::ALL`] order) and level
    /// (column, [`Level::ALL`] order). The ALU column is zero — compute
    /// energy lives in [`CostReport::alu_energy`].
    energy: [[f64; 5]; 3],
    /// MAC/compute energy.
    pub alu_energy: f64,
    /// Total energy (data movement + ALU), in MAC units.
    pub total_energy: f64,
    /// The compute-bound delay term: MACs / active PEs (Section VII-B).
    pub compute_delay: f64,
    /// Per-level transfer delays (words at level / model bandwidth),
    /// [`Level::ALL`] order; zero under infinite bandwidth.
    transfer_delay: [f64; 5],
    /// Analytic delay: the maximum of the compute term and every level's
    /// transfer term, in MAC-time units.
    pub delay: f64,
}

impl CostReport {
    /// An all-zero report priced under `model` (identity for
    /// [`CostReport::accumulate`]).
    pub fn zero(model: CostDescriptor) -> Self {
        CostReport {
            model,
            energy: [[0.0; 5]; 3],
            alu_energy: 0.0,
            total_energy: 0.0,
            compute_delay: 0.0,
            transfer_delay: [0.0; 5],
            delay: 0.0,
        }
    }

    /// Energy of one data type at one level.
    pub fn energy_cell(&self, ty: DataType, level: Level) -> f64 {
        self.energy[type_index(ty)][level_index(level)]
    }

    /// Energy at one level summed over data types (the Fig. 10/12
    /// stacks); [`Level::Alu`] returns the MAC energy.
    pub fn energy_at(&self, level: Level) -> f64 {
        if level == Level::Alu {
            return self.alu_energy;
        }
        let li = level_index(level);
        self.energy.iter().map(|row| row[li]).sum()
    }

    /// Energy of one data type across levels (the Fig. 12d/14c stacks).
    pub fn energy_of(&self, ty: DataType) -> f64 {
        self.energy[type_index(ty)].iter().sum()
    }

    /// Data-movement energy (total minus ALU), summed per type then
    /// across types.
    pub fn data_energy(&self) -> f64 {
        DataType::ALL.iter().map(|&t| self.energy_of(t)).sum()
    }

    /// Transfer-delay component at one level ([`Level::Alu`] reports the
    /// compute term).
    pub fn transfer_delay_at(&self, level: Level) -> f64 {
        if level == Level::Alu {
            return self.compute_delay;
        }
        self.transfer_delay[level_index(level)]
    }

    /// The level whose transfer time dominates the compute term — the
    /// bandwidth bottleneck — or `None` when compute dominates (always
    /// `None` for latency-transparent models). For accumulated reports
    /// the comparison is between the summed transfer and compute terms.
    pub fn bound_level(&self) -> Option<Level> {
        let bottleneck = Level::ALL
            .into_iter()
            .filter(|&l| l != Level::Alu)
            .max_by(|a, b| {
                self.transfer_delay_at(*a)
                    .partial_cmp(&self.transfer_delay_at(*b))
                    .expect("finite delays")
            })?;
        (self.transfer_delay_at(bottleneck) > self.compute_delay).then_some(bottleneck)
    }

    /// Energy–delay product.
    pub fn edp(&self) -> f64 {
        self.total_energy * self.delay
    }

    /// Element-wise accumulation: sequential composition of layers (or
    /// stages) priced under the same model — energies and delays add.
    ///
    /// # Panics
    ///
    /// Panics when the reports were priced by different models; summing
    /// across models is meaningless.
    pub fn accumulate(&mut self, other: &CostReport) {
        assert_eq!(
            self.model, other.model,
            "cannot accumulate reports priced by different cost models"
        );
        for (row, orow) in self.energy.iter_mut().zip(&other.energy) {
            for (cell, ocell) in row.iter_mut().zip(orow) {
                *cell += ocell;
            }
        }
        self.alu_energy += other.alu_energy;
        self.total_energy += other.total_energy;
        self.compute_delay += other.compute_delay;
        for (cell, ocell) in self.transfer_delay.iter_mut().zip(&other.transfer_delay) {
            *cell += ocell;
        }
        self.delay += other.delay;
    }

    /// A copy with every **energy** term multiplied by `factor` —
    /// attribution of a batch-level report to its constituents (e.g.
    /// `1/batch` gives one request's even share). Delay terms are left
    /// untouched: a batch's latency is shared by its requests, not
    /// divided among them.
    pub fn scaled(&self, factor: f64) -> CostReport {
        let mut out = *self;
        for row in &mut out.energy {
            for cell in row.iter_mut() {
                *cell *= factor;
            }
        }
        out.alu_energy *= factor;
        out.total_energy *= factor;
        out
    }
}

/// An ordered set of [`CostModel`]s, looked up by [`CostModelId`] or
/// label. Loading persisted plans resolves their recorded descriptors
/// here, so a model registered here is all it takes to reload plans
/// priced under it.
///
/// # Example
///
/// ```
/// use eyeriss_arch::cost::{CostModel, CostModelRegistry, TableIv};
/// use eyeriss_arch::energy::EnergyModel;
///
/// let mut reg = CostModelRegistry::builtin();
/// assert!(reg.get(TableIv.id()).is_some());
/// reg.register(CostModel::new("flat", EnergyModel::new(200.0, 2.0, 2.0, 1.0, 1.0)?))?;
/// assert_eq!(reg.len(), 2);
/// assert!(reg.by_label("flat").is_some());
/// # Ok::<(), eyeriss_arch::cost::CostModelError>(())
/// ```
#[derive(Clone)]
pub struct CostModelRegistry {
    entries: Vec<CostModel>,
}

impl CostModelRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        CostModelRegistry {
            entries: Vec::new(),
        }
    }

    /// A registry holding the canonical [`TableIv`] model.
    pub fn builtin() -> Self {
        let mut reg = CostModelRegistry::empty();
        reg.entries.push(TableIv);
        reg
    }

    /// Registers a cost model.
    ///
    /// # Errors
    ///
    /// [`CostModelError::Duplicate`] when the id is already present.
    pub fn register(&mut self, model: CostModel) -> Result<(), CostModelError> {
        let id = model.id();
        if self.get(id).is_some() {
            return Err(CostModelError::Duplicate(id));
        }
        self.entries.push(model);
        Ok(())
    }

    /// Looks a model up by id.
    pub fn get(&self, id: CostModelId) -> Option<&CostModel> {
        self.entries.iter().find(|m| m.id() == id)
    }

    /// Looks a model up by label (the on-disk form of the id).
    pub fn by_label(&self, label: &str) -> Option<&CostModel> {
        self.entries.iter().find(|m| m.id().label() == label)
    }

    /// [`CostModelRegistry::get`] with a typed error for the miss.
    ///
    /// # Errors
    ///
    /// [`CostModelError::Unknown`].
    pub fn resolve(&self, id: CostModelId) -> Result<&CostModel, CostModelError> {
        self.get(id)
            .ok_or_else(|| CostModelError::Unknown(id.label().to_string()))
    }

    /// [`CostModelRegistry::by_label`] with a typed error for the miss.
    ///
    /// # Errors
    ///
    /// [`CostModelError::Unknown`].
    pub fn resolve_label(&self, label: &str) -> Result<&CostModel, CostModelError> {
        self.by_label(label)
            .ok_or_else(|| CostModelError::Unknown(label.to_string()))
    }

    /// The registered models, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &CostModel> {
        self.entries.iter()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for CostModelRegistry {
    fn default() -> Self {
        CostModelRegistry::builtin()
    }
}

impl fmt::Debug for CostModelRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.entries.iter().map(|m| m.id()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> LayerAccessProfile {
        let mut p = LayerAccessProfile::new();
        p.ifmap = AccessCounts {
            dram_reads: 10.0,
            buffer_reads: 100.0,
            array_hops: 300.0,
            rf_reads: 1000.0,
            ..AccessCounts::default()
        };
        p.filter = AccessCounts {
            dram_reads: 3.0,
            rf_reads: 700.0,
            rf_writes: 11.0,
            ..AccessCounts::default()
        };
        p.psum = AccessCounts {
            dram_writes: 5.0,
            buffer_writes: 40.0,
            rf_reads: 900.0,
            rf_writes: 900.0,
            ..AccessCounts::default()
        };
        p.alu_ops = 4321.0;
        p
    }

    #[test]
    fn table_iv_prices_bit_identically_to_the_energy_model() {
        // Every report cell is one count times the Table IV cost, and the
        // per-level, per-type and total methods sum exactly those cells.
        let p = sample_profile();
        let em = EnergyModel::table_iv();
        let report = TableIv.report(&p, 123);
        for ty in DataType::ALL {
            for level in Level::ALL {
                assert_eq!(
                    report.energy_cell(ty, level).to_bits(),
                    (p.of(ty).at_level(level) * em.cost(level)).to_bits(),
                    "{} at {level}",
                    ty.label()
                );
            }
        }
        assert_eq!(
            report.total_energy.to_bits(),
            TableIv.energy_of(&p).to_bits()
        );
        for level in Level::ALL {
            assert_eq!(
                report.energy_at(level).to_bits(),
                TableIv.energy_at_level(&p, level).to_bits(),
                "{level}"
            );
        }
        for ty in DataType::ALL {
            assert_eq!(
                report.energy_of(ty).to_bits(),
                TableIv.energy_of_type(&p, ty).to_bits()
            );
        }
    }

    #[test]
    fn latency_transparent_delay_is_the_compute_proxy() {
        let p = sample_profile();
        let report = TableIv.report(&p, 100);
        assert_eq!(report.delay, p.alu_ops / 100.0);
        assert_eq!(report.delay, report.compute_delay);
        assert_eq!(report.bound_level(), None);
        assert_eq!(TableIv.delay_of(&p, 100), report.delay);
    }

    #[test]
    fn finite_bandwidth_bounds_the_delay() {
        let p = sample_profile();
        // 18 DRAM words at 0.001 words/cycle dominate 4321 MACs / 100 PEs.
        let m = CostModel::new("slow-dram", EnergyModel::table_iv())
            .with_bandwidth(Level::Dram, 0.001)
            .unwrap();
        let report = m.report(&p, 100);
        assert_eq!(report.delay, 18.0 / 0.001);
        assert_eq!(report.bound_level(), Some(Level::Dram));
        assert!(report.delay > report.compute_delay);
        assert_eq!(m.delay_of(&p, 100), report.delay);
        // Energy is untouched by bandwidth.
        assert_eq!(
            report.total_energy.to_bits(),
            TableIv.report(&p, 100).total_energy.to_bits()
        );
    }

    #[test]
    fn fingerprints_separate_costs_and_bandwidths() {
        let base = CostModel::new("a", EnergyModel::table_iv());
        assert_eq!(base.fingerprint(), TableIv.fingerprint());
        let scaled = CostModel::new("b", EnergyModel::new(400.0, 6.0, 2.0, 1.0, 1.0).unwrap());
        assert_ne!(scaled.fingerprint(), TableIv.fingerprint());
        let banded = base.with_bandwidth(Level::Dram, 4.0).unwrap();
        assert_ne!(banded.fingerprint(), TableIv.fingerprint());
        assert_eq!(TableIv.descriptor().id, TableIv.id());
        assert_eq!(TableIv.descriptor().fingerprint, TableIv.fingerprint());
    }

    #[test]
    fn reports_accumulate_elementwise() {
        let p = sample_profile();
        let one = TableIv.report(&p, 64);
        let mut two = one;
        two.accumulate(&one);
        assert_eq!(two.total_energy, 2.0 * one.total_energy);
        assert_eq!(two.delay, 2.0 * one.delay);
        assert_eq!(two.alu_energy, 2.0 * one.alu_energy);
        assert_eq!(
            two.energy_cell(DataType::Psum, Level::Rf),
            2.0 * one.energy_cell(DataType::Psum, Level::Rf)
        );
        let mut zero = CostReport::zero(TableIv.descriptor());
        zero.accumulate(&one);
        assert_eq!(zero, one);
        assert_eq!(one.edp(), one.total_energy * one.delay);
    }

    #[test]
    fn scaled_attributes_energy_but_keeps_delay() {
        let p = sample_profile();
        let batch = TableIv.report(&p, 64);
        let share = batch.scaled(0.25);
        assert_eq!(share.model, batch.model);
        assert_eq!(share.total_energy, 0.25 * batch.total_energy);
        assert_eq!(share.alu_energy, 0.25 * batch.alu_energy);
        for level in Level::ALL {
            assert_eq!(share.energy_at(level), 0.25 * batch.energy_at(level));
        }
        for ty in DataType::ALL {
            assert_eq!(share.energy_of(ty), 0.25 * batch.energy_of(ty));
        }
        // Latency is shared by the batch, not split across requests.
        assert_eq!(share.delay, batch.delay);
        assert_eq!(share.compute_delay, batch.compute_delay);
        // Scaling by 1 is bit-exact identity.
        assert_eq!(batch.scaled(1.0), batch);
    }

    #[test]
    #[should_panic(expected = "different cost models")]
    fn accumulate_rejects_cross_model_sums() {
        let p = sample_profile();
        let mut a = TableIv.report(&p, 64);
        let b = CostModel::new("other", EnergyModel::table_iv()).report(&p, 64);
        a.accumulate(&b);
    }

    #[test]
    #[should_panic(expected = "different cost models")]
    fn accumulate_rejects_same_label_different_numbers() {
        // Two models under one label but distinct fingerprints must not
        // sum silently — the descriptor, not just the id, is the guard.
        let p = sample_profile();
        let mut a = CostModel::new("scenario", EnergyModel::table_iv()).report(&p, 64);
        let b = CostModel::new(
            "scenario",
            EnergyModel::new(400.0, 6.0, 2.0, 1.0, 1.0).unwrap(),
        )
        .report(&p, 64);
        a.accumulate(&b);
    }

    #[test]
    fn parallel_reports_add_energy_but_max_transfer_floors() {
        // Two parallel units under a finite DRAM channel: energy doubles,
        // but the DRAM floor is the slower unit's own transfer time — not
        // the sum of both units' words through one private channel.
        let m = CostModel::new("banded", EnergyModel::table_iv())
            .with_bandwidth(Level::Dram, 1.0)
            .unwrap();
        let a = sample_profile(); // 18 DRAM words
        let mut b = sample_profile();
        b.ifmap.dram_reads += 10.0; // 28 DRAM words
        let report = m.report_parallel(&[&a, &b], 5.0);
        let single_a = m.report_with_delay(&a, 0.0);
        let single_b = m.report_with_delay(&b, 0.0);
        assert_eq!(
            report.total_energy,
            single_a.total_energy + single_b.total_energy
        );
        assert_eq!(report.transfer_delay_at(Level::Dram), 28.0);
        assert_eq!(report.delay, 28.0, "per-unit max, not 46-word sum");
        assert_eq!(report.compute_delay, 5.0);
        assert_eq!(report.bound_level(), Some(Level::Dram));
        // With a dominant baseline (e.g. a cluster's own critical path),
        // the baseline wins and compute is reported as the bound.
        let bounded = m.report_parallel(&[&a, &b], 1000.0);
        assert_eq!(bounded.delay, 1000.0);
        assert_eq!(bounded.bound_level(), None);
    }

    #[test]
    fn report_breakdowns_sum_to_totals() {
        let p = sample_profile();
        let r = TableIv.report(&p, 16);
        let by_level: f64 = Level::ALL.iter().map(|&l| r.energy_at(l)).sum();
        assert!((by_level - r.total_energy).abs() < 1e-9);
        let by_type: f64 =
            DataType::ALL.iter().map(|&t| r.energy_of(t)).sum::<f64>() + r.alu_energy;
        assert!((by_type - r.total_energy).abs() < 1e-9);
        assert!((r.data_energy() - (r.total_energy - r.alu_energy)).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_validation_is_typed() {
        let m = CostModel::new("x", EnergyModel::table_iv());
        assert!(matches!(
            m.with_bandwidth(Level::Dram, 0.0),
            Err(CostModelError::InvalidBandwidth { .. })
        ));
        assert!(matches!(
            m.with_bandwidth(Level::Rf, f64::NAN),
            Err(CostModelError::InvalidBandwidth { .. })
        ));
    }

    #[test]
    fn registry_mirrors_the_dataflow_registry() {
        let mut reg = CostModelRegistry::builtin();
        assert_eq!(reg.len(), 1);
        assert!(reg.resolve(TableIv.id()).is_ok());
        assert!(reg.resolve_label("table-iv").is_ok());
        let flat = CostModel::new("flat", EnergyModel::new(200.0, 2.0, 2.0, 1.0, 1.0).unwrap());
        reg.register(flat).unwrap();
        assert_eq!(reg.len(), 2);
        assert!(matches!(
            reg.register(flat),
            Err(CostModelError::Duplicate(id)) if id.label() == "flat"
        ));
        assert!(matches!(
            reg.resolve_label("nope"),
            Err(CostModelError::Unknown(l)) if l == "nope"
        ));
        let ids: Vec<_> = reg.iter().map(|m| m.id().label()).collect();
        assert_eq!(ids, ["table-iv", "flat"]);
        assert!(CostModelRegistry::empty().is_empty());
        assert!(format!("{reg:?}").contains("flat"));
    }

    #[test]
    fn cost_model_ids_compare_by_content() {
        assert_eq!(CostModelId::new("x"), CostModelId::new("x"));
        assert_ne!(CostModelId::new("x"), CostModelId::new("y"));
        assert_eq!(CostModelId::new("abc").to_string(), "abc");
    }
}
