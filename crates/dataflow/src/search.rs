//! The mapping optimizer of Section VI-C, generic over [`Dataflow`].
//!
//! "For each dataflow, there exists a set of parameters ... that describes
//! the optimal mapping in terms of energy efficiency under a given CNN
//! layer shape. It is obtained through an optimization process with
//! objective functions defined in Eq. (3) and (4), constrained by the
//! hardware resources." Here the optimization is a running fold over the
//! (divisor-pruned) candidate space each [`Dataflow`] streams into it
//! through [`CandidateSink`]; no candidate list is ever built.
//!
//! * **The fold** scores each offered candidate and keeps the lowest
//!   score seen (the incumbent). A space may also seed candidates ahead
//!   of their turn (row stationary seeds its tightest group), so that the
//!   incumbent and the band below are good before most of the space is
//!   visited.
//! * **The band.** Candidates within 10 % of the best score tie, and the
//!   tie goes to the most active PEs, then the lower score, then the
//!   later offer. The band is kept as a Pareto front over
//!   (active PEs ↑, score ↓): a member with no more PEs and no lower score
//!   than another can never win while that other is in the band, and
//!   cannot outlast it because the cut only shrinks. So memory is
//!   O(front), not O(space).
//! * **The bound.** A space may ask whether a group of candidates can be
//!   skipped, handing over a profile below every count of the group.
//!   Priced like a candidate (with a 1e-9 margin for rounding), a bound
//!   above the band's cut proves no covered candidate can enter the band,
//!   and a bound at or above the score of a front member with more PEs
//!   proves none can win it; either way skipping the group leaves the
//!   winner unchanged. Pruning needs an objective monotone in the counts.
//!   Every [`CostModel`] is: it can only be built with finite,
//!   non-negative energy costs and positive bandwidths.
//!
//! The optimizer never learns *which* dataflow it is searching, so spaces
//! registered through [`crate::DataflowRegistry`] beyond the paper's six
//! are searched identically.

use crate::candidate::MappingCandidate;
use crate::dataflow::{CandidateSink, Dataflow};
use crate::id::DataflowId;
use eyeriss_arch::access::LayerAccessProfile;
use eyeriss_arch::config::AcceleratorConfig;
use eyeriss_arch::cost::CostModel;
use eyeriss_nn::LayerProblem;
use eyeriss_telemetry::{Counter, Histogram, Telemetry};
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Handles into [`Telemetry::global`] resolved once per process.
///
/// [`optimize`] keeps its signature (it is called from every layer of
/// the workspace), so its instrumentation reports to the *global*
/// instance only: enable it via `Telemetry::global().set_enabled(true)`
/// or `Engine::builder().telemetry_enabled(true)`. While the global
/// instance is disabled the cost per search is two relaxed loads.
struct SearchTele {
    searches: Counter,
    candidates: Counter,
    wall_ns: Histogram,
    memo_hits: Counter,
    memo_misses: Counter,
}

fn search_tele() -> &'static SearchTele {
    static TELE: OnceLock<SearchTele> = OnceLock::new();
    TELE.get_or_init(|| {
        let t = Telemetry::global();
        SearchTele {
            searches: t.counter("search.searches"),
            candidates: t.counter("search.candidates_scored"),
            wall_ns: t.histogram("search.wall_ns"),
            memo_hits: t.counter("search.memo_hits"),
            memo_misses: t.counter("search.memo_misses"),
        }
    })
}

/// The optimization objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize total normalized energy (the paper's default).
    Energy,
    /// Minimize energy x delay (used for the EDP discussion).
    EnergyDelayProduct,
}

impl Objective {
    /// Stable wire label ("energy" / "edp").
    pub fn label(self) -> &'static str {
        match self {
            Objective::Energy => "energy",
            Objective::EnergyDelayProduct => "edp",
        }
    }

    /// The objective carrying `label`, if any (inverse of
    /// [`Objective::label`]).
    pub fn from_label(label: &str) -> Option<Objective> {
        match label {
            "energy" => Some(Objective::Energy),
            "edp" => Some(Objective::EnergyDelayProduct),
            _ => None,
        }
    }

    /// Folds an `(energy, delay)` pair into this objective's scalar score
    /// (lower is better). The single place the objective taxonomy is
    /// matched — search, cluster planning and serving all score through
    /// here.
    pub fn score(self, energy: f64, delay: f64) -> f64 {
        match self {
            Objective::Energy => energy,
            Objective::EnergyDelayProduct => energy * delay,
        }
    }
}

/// Finds the best mapping of `problem` in `df`'s space on `hw` under
/// `objective`, priced by `cost` — any [`CostModel`], searched exactly
/// like the canonical Table IV model.
/// Returns `None` when the dataflow cannot operate (e.g. WS
/// at batch 64 on 256 PEs, Fig. 11a).
///
/// # Example
///
/// ```
/// use eyeriss_dataflow::{registry, search, DataflowKind};
/// use eyeriss_dataflow::search::Objective;
/// use eyeriss_arch::TableIv;
/// use eyeriss_nn::{LayerProblem, LayerShape};
///
/// let nlr = registry::builtin(DataflowKind::NoLocalReuse);
/// let problem = LayerProblem::new(LayerShape::conv(384, 256, 15, 3, 1)?, 16); // CONV3
/// let best = search::optimize(nlr, &problem, &nlr.comparison_hardware(256),
///                             &TableIv, Objective::Energy);
/// assert!(best.is_some());
/// # Ok::<(), eyeriss_nn::ShapeError>(())
/// ```
pub fn optimize(
    df: &dyn Dataflow,
    problem: &LayerProblem,
    hw: &AcceleratorConfig,
    cost: &CostModel,
    objective: Objective,
) -> Option<MappingCandidate> {
    let tele = search_tele();
    let start = Telemetry::global().enabled().then(Instant::now);
    let found = optimize_impl(df, problem, hw, cost, objective, tele);
    if let Some(t0) = start {
        tele.searches.inc();
        tele.wall_ns.record_duration(t0.elapsed());
    }
    found
}

fn optimize_impl(
    df: &dyn Dataflow,
    problem: &LayerProblem,
    hw: &AcceleratorConfig,
    cost: &CostModel,
    objective: Objective,
    tele: &SearchTele,
) -> Option<MappingCandidate> {
    let mut race = Race::new(cost, objective);
    df.for_each_candidate(problem, hw, &mut race);
    tele.candidates.add(race.scored);
    race.finish()
}

/// The optimizer's [`CandidateSink`]: the running best score and the
/// tie band's Pareto front (see the module docs).
struct Race {
    cost: CostModel,
    objective: Objective,
    /// The lowest score offered or seeded so far.
    incumbent: f64,
    /// Band members and their scores: distinct active-PE counts, none
    /// dominating another.
    front: Vec<(f64, MappingCandidate)>,
    /// Candidates scored (offers and seeds).
    scored: u64,
}

impl Race {
    fn new(cost: &CostModel, objective: Objective) -> Self {
        Race {
            cost: *cost,
            objective,
            incumbent: f64::INFINITY,
            front: Vec::new(),
            scored: 0,
        }
    }

    /// The score of a valid candidate; `None` marks an invalid one.
    fn score(&mut self, candidate: &MappingCandidate) -> Option<f64> {
        self.scored += 1;
        let s = candidate
            .profile
            .is_valid()
            .then(|| self.price(&candidate.profile, candidate.active_pes))?;
        if s.is_nan() {
            return None;
        }
        self.incumbent = self.incumbent.min(s);
        Some(s)
    }

    fn cut(&self) -> f64 {
        self.incumbent * UTILIZATION_TIE_BAND
    }

    /// Near-ties in the objective are broken toward PE utilization: the
    /// paper notes RS's "mapping of 1D convolution primitives efficiently
    /// utilizes available PEs", and its Fig. 13 delays presume mappings
    /// that fill the array when doing so costs (almost) nothing. Among
    /// equally utilized near-ties the lower score wins, then the later
    /// offer.
    fn finish(self) -> Option<MappingCandidate> {
        if !self.incumbent.is_finite() {
            return None;
        }
        let cut = self.cut();
        self.front
            .into_iter()
            .filter(|(s, _)| *s <= cut)
            .max_by_key(|(_, c)| c.active_pes)
            .map(|(_, c)| c)
    }
}

impl CandidateSink for Race {
    fn offer(&mut self, candidate: MappingCandidate) {
        let Some(s) = self.score(&candidate) else {
            return;
        };
        let cut = self.cut();
        self.front.retain(|(fs, _)| *fs <= cut);
        if s > cut {
            return;
        }
        let pes = candidate.active_pes;
        // Kept only if no member has as many PEs and as low a score (an
        // exact tie goes to the later offer), and then it evicts those it
        // covers the same way.
        let beaten = self
            .front
            .iter()
            .any(|(fs, f)| f.active_pes >= pes && *fs <= s && (f.active_pes, *fs) != (pes, s));
        if !beaten {
            self.front
                .retain(|(fs, f)| !(f.active_pes <= pes && *fs >= s));
            self.front.push((s, candidate));
        }
    }

    fn price(&self, profile: &LayerAccessProfile, active_pes: usize) -> f64 {
        let delay = match self.objective {
            Objective::Energy => 0.0,
            Objective::EnergyDelayProduct => self.cost.delay_of(profile, active_pes),
        };
        self.objective.score(self.cost.energy_of(profile), delay)
    }

    fn prunes(&self, lower: &LayerAccessProfile, active_pes: usize) -> bool {
        // No covered candidate scores below `floor`: none can enter the
        // band above the cut, nor beat a member with more PEs and no
        // higher score (or as many PEs and a lower score).
        let floor = self.price(lower, active_pes) * (1.0 - BOUND_MARGIN);
        floor > self.cut()
            || self.front.iter().any(|(s, f)| {
                (f.active_pes > active_pes && *s <= floor)
                    || (f.active_pes == active_pes && *s < floor)
            })
    }

    /// A seed joins the front like an offer. Its own offer in turn
    /// replaces it (an exact tie goes to the later offer), so it only
    /// decides ties as that offer would; and if that offer never comes, a
    /// pruned bound proved it can neither win nor enter the band.
    fn seed(&mut self, candidate: &MappingCandidate) {
        self.offer(candidate.clone());
    }
}

/// Optimizes a whole list of problems in `df`'s space, deduplicating
/// identical entries so each distinct problem is searched exactly once.
/// Result `i` corresponds to `problems[i]`.
pub fn optimize_all(
    df: &dyn Dataflow,
    problems: &[LayerProblem],
    hw: &AcceleratorConfig,
    cost: &CostModel,
    objective: Objective,
) -> Vec<Option<MappingCandidate>> {
    let mut memo = MappingMemo::new(hw, cost, objective);
    problems.iter().map(|p| memo.best(df, p)).collect()
}

/// A memoizing front-end over [`optimize`] for workloads that search many
/// layers against one fixed `(hardware, cost model, objective)` operating
/// point — the in-crate counterpart of a serving plan cache.
///
/// Networks repeat layer shapes heavily (VGG-16's thirteen CONV layers
/// collapse to nine distinct shapes; cluster partitions produce at most
/// two distinct tile sizes per dimension), so keying on
/// `(dataflow id, problem)` lets every repeat share one search.
///
/// # Example
///
/// ```
/// use eyeriss_dataflow::{registry, DataflowKind};
/// use eyeriss_dataflow::search::{MappingMemo, Objective};
/// use eyeriss_arch::{AcceleratorConfig, TableIv};
/// use eyeriss_nn::{LayerProblem, LayerShape};
///
/// let rs = registry::builtin(DataflowKind::RowStationary);
/// let hw = AcceleratorConfig::eyeriss_chip();
/// let mut memo = MappingMemo::new(&hw, &TableIv, Objective::Energy);
/// let p = LayerProblem::new(LayerShape::conv(64, 32, 16, 3, 1)?, 4);
/// let a = memo.best(rs, &p);
/// let b = memo.best(rs, &p); // cached
/// assert_eq!(a, b);
/// assert_eq!((memo.searches(), memo.hits()), (1, 1));
/// # Ok::<(), eyeriss_nn::ShapeError>(())
/// ```
pub struct MappingMemo<'a> {
    hw: &'a AcceleratorConfig,
    cost: &'a CostModel,
    objective: Objective,
    cache: HashMap<(DataflowId, LayerProblem), Option<MappingCandidate>>,
    hits: usize,
}

impl std::fmt::Debug for MappingMemo<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappingMemo")
            .field("hw", &self.hw)
            .field("cost", &self.cost.id())
            .field("objective", &self.objective)
            .field("searches", &self.cache.len())
            .field("hits", &self.hits)
            .finish()
    }
}

impl<'a> MappingMemo<'a> {
    /// Creates an empty memo pinned to one operating point.
    pub fn new(hw: &'a AcceleratorConfig, cost: &'a CostModel, objective: Objective) -> Self {
        MappingMemo {
            hw,
            cost,
            objective,
            cache: HashMap::new(),
            hits: 0,
        }
    }

    /// The best mapping of `problem` in `df`'s space, searching at most
    /// once per distinct `(dataflow, problem)` key.
    pub fn best(&mut self, df: &dyn Dataflow, problem: &LayerProblem) -> Option<MappingCandidate> {
        let key = (df.id(), *problem);
        if let Some(cached) = self.cache.get(&key) {
            self.hits += 1;
            search_tele().memo_hits.inc();
            return cached.clone();
        }
        search_tele().memo_misses.inc();
        let found = optimize(df, problem, self.hw, self.cost, self.objective);
        self.cache.insert(key, found.clone());
        found
    }

    /// Distinct searches actually performed.
    pub fn searches(&self) -> usize {
        self.cache.len()
    }

    /// Lookups answered from the memo without a search.
    pub fn hits(&self) -> usize {
        self.hits
    }
}

/// Candidates within this factor of the optimal objective are considered
/// tied and resolved by active-PE count.
const UTILIZATION_TIE_BAND: f64 = 1.10;

/// The share by which a priced bound may exceed a covered candidate's
/// score through rounding alone (bound and candidate sum their terms in
/// different orders).
const BOUND_MARGIN: f64 = 1e-9;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::DataflowKind;
    use crate::registry::builtin;
    use eyeriss_arch::cost::TableIv;
    use eyeriss_arch::energy::{EnergyModel, Level};
    use eyeriss_nn::{alexnet, LayerShape};

    fn problem(shape: &LayerShape, n: usize) -> LayerProblem {
        LayerProblem::new(*shape, n)
    }

    #[test]
    fn rs_beats_others_on_conv_aggregate() {
        // The headline claim, at one operating point: RS total CONV energy
        // at 256 PEs / batch 16 is lower than every other dataflow's.
        let conv = alexnet::conv_layers();
        let total = |kind: DataflowKind| -> Option<f64> {
            let df = builtin(kind);
            let hw = df.comparison_hardware(256);
            let mut sum = 0.0;
            for layer in &conv {
                let best = optimize(
                    df,
                    &problem(&layer.shape, 16),
                    &hw,
                    &TableIv,
                    Objective::Energy,
                )?;
                sum += TableIv.energy_of(&best.profile);
            }
            Some(sum)
        };
        let rs = total(DataflowKind::RowStationary).expect("RS feasible");
        for kind in DataflowKind::ALL.into_iter().skip(1) {
            if let Some(e) = total(kind) {
                assert!(rs < e, "{kind}: RS {rs:.3e} not below {e:.3e}");
            }
        }
    }

    #[test]
    fn edp_objective_never_picks_lower_utilization_for_worse_energy_delay() {
        let conv5 = &alexnet::conv_layers()[4].shape;
        let rs = builtin(DataflowKind::RowStationary);
        let hw = rs.comparison_hardware(256);
        let p = problem(conv5, 16);
        let by_energy = optimize(rs, &p, &hw, &TableIv, Objective::Energy).unwrap();
        let by_edp = optimize(rs, &p, &hw, &TableIv, Objective::EnergyDelayProduct).unwrap();
        let edp = |c: &MappingCandidate| TableIv.energy_of(&c.profile) * c.delay();
        assert!(edp(&by_edp) <= edp(&by_energy) + 1e-6);
    }

    #[test]
    fn batch_entry_point_dedups_repeated_shapes() {
        // VGG-16 repeats shapes (CONV3_2 == CONV3_3 etc.); the batch entry
        // point must search each distinct shape once and still return one
        // result per input, positionally.
        let rs = builtin(DataflowKind::RowStationary);
        let hw = rs.comparison_hardware(256);
        let conv = alexnet::conv_layers();
        let problems: Vec<LayerProblem> = vec![
            problem(&conv[2].shape, 4),
            problem(&conv[4].shape, 4),
            problem(&conv[2].shape, 4), // duplicate of [0]
            problem(&conv[2].shape, 1), // same shape, different batch: distinct
        ];
        let results = optimize_all(rs, &problems, &hw, &TableIv, Objective::Energy);
        assert_eq!(results.len(), 4);
        assert_eq!(
            results[0], results[2],
            "duplicate shapes must share a result"
        );
        assert_ne!(results[0], results[3], "different batches stay distinct");
        for (r, p) in results.iter().zip(&problems) {
            let direct = optimize(rs, p, &hw, &TableIv, Objective::Energy);
            assert_eq!(r, &direct, "memoized result differs from direct search");
        }
    }

    #[test]
    fn memo_counts_hits_and_searches() {
        let rs = builtin(DataflowKind::RowStationary);
        let hw = rs.comparison_hardware(256);
        let conv5 = problem(&alexnet::conv_layers()[4].shape, 16);
        let mut memo = MappingMemo::new(&hw, &TableIv, Objective::Energy);
        for _ in 0..3 {
            memo.best(rs, &conv5);
        }
        // Infeasible results are memoized too.
        let ws = builtin(DataflowKind::WeightStationary);
        let ws_hw = ws.comparison_hardware(256);
        let mut ws_memo = MappingMemo::new(&ws_hw, &TableIv, Objective::Energy);
        let conv1 = problem(&alexnet::conv_layers()[0].shape, 64);
        assert!(ws_memo.best(ws, &conv1).is_none());
        assert!(ws_memo.best(ws, &conv1).is_none());
        assert_eq!((memo.searches(), memo.hits()), (1, 2));
        assert_eq!((ws_memo.searches(), ws_memo.hits()), (1, 1));
        assert!(format!("{memo:?}").contains("table-iv"));
    }

    #[test]
    fn infeasible_returns_none() {
        let conv1 = &alexnet::conv_layers()[0].shape;
        let ws = builtin(DataflowKind::WeightStationary);
        let hw = ws.comparison_hardware(256);
        assert!(optimize(ws, &problem(conv1, 64), &hw, &TableIv, Objective::Energy).is_none());
    }

    #[test]
    fn objective_labels_roundtrip() {
        for o in [Objective::Energy, Objective::EnergyDelayProduct] {
            assert_eq!(Objective::from_label(o.label()), Some(o));
        }
        assert_eq!(Objective::from_label("latency"), None);
        assert_eq!(Objective::Energy.score(7.0, 3.0), 7.0);
        assert_eq!(Objective::EnergyDelayProduct.score(7.0, 3.0), 21.0);
    }

    #[test]
    fn custom_cost_models_steer_the_search() {
        // A DRAM-free pricing makes buffer traffic the dominant term; the
        // optimizer must honor whatever model it is handed.
        let conv3 = &alexnet::conv_layers()[2].shape;
        let rs = builtin(DataflowKind::RowStationary);
        let hw = rs.comparison_hardware(256);
        let p = problem(conv3, 16);
        let table = optimize(rs, &p, &hw, &TableIv, Objective::Energy).unwrap();
        let flat = CostModel::new(
            "flat-onchip",
            EnergyModel::new(200.0, 2.0, 2.0, 1.0, 1.0).unwrap(),
        );
        let under_flat = optimize(rs, &p, &hw, &flat, Objective::Energy).unwrap();
        assert!(
            flat.energy_of(&under_flat.profile) <= flat.energy_of(&table.profile),
            "search under the flat model must be at least as good under it"
        );
        // A bandwidth-starved DRAM channel turns the EDP search
        // latency-aware: the chosen mapping's analytic delay under the
        // custom model bounds the Table IV winner's.
        let starved = CostModel::new("starved", EnergyModel::table_iv())
            .with_bandwidth(Level::Dram, 0.25)
            .unwrap();
        let under_starved = optimize(rs, &p, &hw, &starved, Objective::EnergyDelayProduct).unwrap();
        let edp = |c: &MappingCandidate| {
            starved.energy_of(&c.profile) * starved.delay_of(&c.profile, c.active_pes)
        };
        let table_edp = optimize(rs, &p, &hw, &TableIv, Objective::EnergyDelayProduct).unwrap();
        assert!(edp(&under_starved) <= edp(&table_edp) * (1.0 + 1e-9));
    }

    /// The exhaustive scan the fold replaced, kept as its oracle: score
    /// every enumerated candidate through the `CostModel` methods, then
    /// take the most active PEs within the band (the lower score, then
    /// the later candidate, on ties).
    fn exhaustive(
        mut cands: Vec<MappingCandidate>,
        cost: &CostModel,
        objective: Objective,
    ) -> Option<MappingCandidate> {
        let scores: Vec<f64> = cands
            .iter()
            .map(|c| {
                if !c.profile.is_valid() {
                    return f64::NAN;
                }
                let delay = match objective {
                    Objective::Energy => 0.0,
                    Objective::EnergyDelayProduct => cost.delay_of(&c.profile, c.active_pes),
                };
                objective.score(cost.energy_of(&c.profile), delay)
            })
            .collect();
        let best = scores.iter().copied().fold(f64::INFINITY, f64::min);
        if !best.is_finite() {
            return None;
        }
        let cut = best * UTILIZATION_TIE_BAND;
        let mut winner: Option<usize> = None;
        for (i, &s) in scores.iter().enumerate() {
            if !matches!(
                s.partial_cmp(&cut),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            ) {
                continue;
            }
            winner = match winner {
                Some(w)
                    if cands[i]
                        .active_pes
                        .cmp(&cands[w].active_pes)
                        .then_with(|| scores[w].partial_cmp(&s).expect("finite scores"))
                        == std::cmp::Ordering::Less =>
                {
                    Some(w)
                }
                _ => Some(i),
            };
        }
        winner.map(|w| cands.swap_remove(w))
    }

    /// Seeded layer shapes (SplitMix64): CONV of every published filter
    /// size and stride, grouped and depthwise CONV, and FC.
    struct Shapes(u64);

    impl Shapes {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn next(&mut self) -> LayerShape {
            let (r, u) = [(1, 1), (3, 1), (3, 2), (5, 1), (7, 2), (11, 4)][self.below(6)];
            let h = r + u * self.below(40);
            let c = 1 + self.below(256);
            let m = 1 + self.below(384);
            match self.below(8) {
                0 => LayerShape::fully_connected(m, c, 1 + self.below(7)),
                1 => LayerShape::depthwise(c, h, r, u),
                2 => LayerShape::conv_grouped(2 * m, c, h, r, u, 2),
                _ => LayerShape::conv(m, c, h, r, u),
            }
            .expect("generated shapes are valid")
        }
    }

    /// Every distinct AlexNet, VGG-16 and MobileNet-v1 layer, then
    /// `random` seeded shapes.
    fn corpus(random: usize) -> Vec<LayerShape> {
        let mut shapes: Vec<LayerShape> = Vec::new();
        let published = [
            eyeriss_nn::alexnet::all_layers(),
            eyeriss_nn::vgg::all_layers(),
            eyeriss_nn::mobilenet::mobilenet_v1(),
        ];
        for layer in published.into_iter().flatten() {
            if layer.shape.kind != eyeriss_nn::LayerKind::Pool && !shapes.contains(&layer.shape) {
                shapes.push(layer.shape);
            }
        }
        let mut rng = Shapes(2016);
        shapes.extend((0..random).map(|_| rng.next()));
        shapes
    }

    /// Searched, scored and enumerated counts of a parity run.
    #[derive(Debug, Default)]
    struct Parity {
        searches: u64,
        scored: u64,
        enumerated: u64,
    }

    /// Asserts the fold returns the oracle's candidate, to the bit, on
    /// every `(shape, hardware, batch, objective)` point.
    fn assert_parity(
        df: &dyn Dataflow,
        shapes: &[LayerShape],
        hws: &[AcceleratorConfig],
        batches: &[usize],
        cost: &CostModel,
    ) -> Parity {
        let mut tally = Parity::default();
        for shape in shapes {
            for hw in hws {
                for &n in batches {
                    let p = problem(shape, n);
                    let cands = df.enumerate(&p, hw);
                    for objective in [Objective::Energy, Objective::EnergyDelayProduct] {
                        let mut race = Race::new(cost, objective);
                        df.for_each_candidate(&p, hw, &mut race);
                        tally.searches += 1;
                        tally.scored += race.scored;
                        tally.enumerated += cands.len() as u64;
                        let want = exhaustive(cands.clone(), cost, objective);
                        assert_eq!(
                            format!("{:?}", race.finish()),
                            format!("{want:?}"),
                            "{} {shape:?} batch {n} on {:?} under {objective:?}",
                            df.id(),
                            hw.grid
                        );
                    }
                }
            }
        }
        tally
    }

    fn parity_hardware() -> [AcceleratorConfig; 3] {
        let rs = builtin(DataflowKind::RowStationary);
        [
            AcceleratorConfig::eyeriss_chip(),
            rs.comparison_hardware(256),
            rs.comparison_hardware(1024),
        ]
    }

    #[test]
    fn fold_picks_the_exhaustive_winner_for_every_builtin_space() {
        let shapes = corpus(6);
        for kind in DataflowKind::ALL.into_iter().skip(1) {
            let df = builtin(kind);
            let hws = [df.comparison_hardware(256), df.comparison_hardware(1024)];
            assert_parity(df, &shapes, &hws, &[1, 16], &TableIv);
        }
    }

    #[test]
    fn rs_fold_picks_the_exhaustive_winner_and_prunes() {
        let rs = builtin(DataflowKind::RowStationary);
        let shapes: Vec<LayerShape> = alexnet::all_layers()
            .into_iter()
            .map(|l| l.shape)
            .chain(corpus(12).into_iter().rev().take(12))
            .collect();
        let tally = assert_parity(rs, &shapes, &parity_hardware()[..2], &[1, 16], &TableIv);
        assert!(
            tally.scored * 4 < tally.enumerated,
            "bounds should spare most of the space: {tally:?}"
        );
        // Priced under models other than Table IV, including a latency
        // bound that makes the EDP delay depend on DRAM traffic.
        let starved = CostModel::new("starved", EnergyModel::table_iv())
            .with_bandwidth(Level::Dram, 0.25)
            .unwrap();
        let flat = CostModel::new(
            "flat-onchip",
            EnergyModel::new(200.0, 2.0, 2.0, 1.0, 1.0).unwrap(),
        );
        let conv = &shapes[..5];
        let chip = [AcceleratorConfig::eyeriss_chip()];
        assert_parity(rs, conv, &chip, &[3], &starved);
        assert_parity(rs, conv, &chip, &[3], &flat);
    }

    /// The full parity corpus: every AlexNet, VGG-16 and
    /// MobileNet-v1 layer plus 600 seeded shapes, on the chip and 256 and
    /// 1024 PEs, at batch 1, 3 and 16, under both objectives (seconds in
    /// release: `cargo test --release -p eyeriss-dataflow -- --ignored`).
    #[test]
    #[ignore = "exhaustive scans of the full corpus; run in release"]
    fn rs_fold_matches_the_exhaustive_scan_on_the_full_corpus() {
        let rs = builtin(DataflowKind::RowStationary);
        let tally = assert_parity(rs, &corpus(600), &parity_hardware(), &[1, 3, 16], &TableIv);
        eprintln!("{tally:?}");
    }

    #[test]
    fn flex_fold_picks_the_exhaustive_winner_with_its_ordinal() {
        let flex = crate::flex::FlexRsModel;
        // AlexNet CONV5, and MobileNet's last depthwise, pointwise and FC
        // layers.
        let shapes: Vec<LayerShape> = alexnet::conv_layers()
            .into_iter()
            .skip(4)
            .chain(
                eyeriss_nn::mobilenet::mobilenet_v1()
                    .into_iter()
                    .rev()
                    .take(3),
            )
            .map(|l| l.shape)
            .collect();
        let hws = [AcceleratorConfig::eyeriss_chip()];
        let tally = assert_parity(&flex, &shapes, &hws, &[1, 16], &TableIv);
        assert!(tally.scored * 4 < tally.enumerated, "{tally:?}");
    }

    /// AlexNet CONV and every MobileNet-v1 layer on the chip and 256 PEs
    /// at batch 1 and 16 (`--ignored`, release).
    #[test]
    #[ignore = "exhaustive scans of the full corpus; run in release"]
    fn flex_fold_matches_the_exhaustive_scan_on_the_full_corpus() {
        let flex = crate::flex::FlexRsModel;
        let mut shapes: Vec<LayerShape> = Vec::new();
        for layer in alexnet::conv_layers()
            .into_iter()
            .chain(eyeriss_nn::mobilenet::mobilenet_v1())
        {
            if layer.shape.kind != eyeriss_nn::LayerKind::Pool && !shapes.contains(&layer.shape) {
                shapes.push(layer.shape);
            }
        }
        let hws = [
            AcceleratorConfig::eyeriss_chip(),
            flex.comparison_hardware(256),
        ];
        let tally = assert_parity(&flex, &shapes, &hws, &[1, 16], &TableIv);
        eprintln!("{tally:?}");
    }
}
