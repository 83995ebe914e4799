//! Shared enumeration helpers.
//!
//! The old closed `DataflowModel` trait collapsed into the open
//! [`Dataflow`](crate::dataflow::Dataflow) trait (see [`crate::dataflow`]);
//! this module keeps the enumeration arithmetic the six builtin spaces
//! share. (The deprecated `model_for` shim was removed after one release;
//! use [`crate::registry::builtin`].)

/// Ceiling division for mapping-fold counts.
pub(crate) fn ceil_div(a: usize, b: usize) -> usize {
    debug_assert!(b > 0);
    a.div_ceil(b)
}

/// Candidate tiling factors for a dimension of extent `dim` under `cap`.
///
/// Uses divisors of `dim` (perfect tilings), powers of two (common
/// hardware folds) and the clamps `{1, min(dim, cap)}`, deduplicated and
/// sorted. Keeps search spaces small without losing the optima the paper's
/// framework would find.
pub(crate) fn factor_candidates(dim: usize, cap: usize) -> Vec<usize> {
    assert!(dim > 0, "dimension must be non-zero");
    let cap = cap.max(1);
    let bound = dim.min(cap);
    let mut out = Vec::new();
    // Divisors of dim up to bound.
    let mut k = 1usize;
    while k * k <= dim {
        if dim.is_multiple_of(k) {
            if k <= bound {
                out.push(k);
            }
            let other = dim / k;
            if other <= bound {
                out.push(other);
            }
        }
        k += 1;
    }
    // Powers of two up to bound.
    let mut p = 1usize;
    while p <= bound {
        out.push(p);
        p *= 2;
    }
    out.push(bound);
    out.sort_unstable();
    out.dedup();
    out
}

/// Every mapping `df` offers for `shape` at batch `n` on `hw`.
#[cfg(test)]
pub(crate) fn mappings_of(
    df: &dyn crate::Dataflow,
    shape: &eyeriss_nn::LayerShape,
    n: usize,
    hw: &eyeriss_arch::AcceleratorConfig,
) -> Vec<crate::MappingCandidate> {
    df.enumerate(&eyeriss_nn::LayerProblem::new(*shape, n), hw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_candidates_cover_divisors_and_pow2() {
        let c = factor_candidates(55, 16);
        assert!(c.contains(&1) && c.contains(&5) && c.contains(&11));
        assert!(c.contains(&8) && c.contains(&16));
        assert!(!c.contains(&55), "55 exceeds the cap");
        assert!(c.windows(2).all(|w| w[0] < w[1]), "sorted and deduped");
    }

    #[test]
    fn factor_candidates_clamped() {
        assert_eq!(factor_candidates(1, 100), vec![1]);
        let c = factor_candidates(100, 1);
        assert_eq!(c, vec![1]);
    }

    #[test]
    fn ceil_div_rounds_up() {
        assert_eq!(ceil_div(10, 3), 4);
        assert_eq!(ceil_div(9, 3), 3);
        assert_eq!(ceil_div(1, 4), 1);
    }
}
