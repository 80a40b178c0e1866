//! Risk-surface coverage (Type 1 quality metric).
//!
//! §3 frames XPlain's promise as identifying "the full risk surface of
//! the heuristic (the set of inputs where the heuristic underperforms)".
//! This module measures how close a set of discovered subspaces comes:
//! Monte-Carlo estimates of
//!
//! * **volume coverage** — the fraction of the input box inside at least
//!   one subspace;
//! * **risk recall** — among sampled points whose gap exceeds a
//!   threshold, the fraction inside a discovered subspace (did we find
//!   the places that matter?);
//! * **risk precision** — among sampled points inside subspaces, the
//!   fraction whose gap actually exceeds the threshold (are the regions
//!   we report truly bad?).

use crate::subspace::Subspace;
use rand::Rng;
use serde::{Deserialize, Serialize};
use xplain_analyzer::oracle::GapOracle;

/// Coverage estimates (all in `[0, 1]`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoverageReport {
    pub volume_fraction: f64,
    pub risk_recall: f64,
    pub risk_precision: f64,
    /// Gap threshold used to classify a point as "bad".
    pub gap_threshold: f64,
    pub samples: usize,
    /// Raw counts for downstream re-aggregation.
    pub bad_points: usize,
    pub covered_points: usize,
}

/// Estimate coverage of `subspaces` over the oracle's input box.
///
/// `gap_threshold` classifies a sampled point as part of the risk
/// surface; a natural choice is a fraction of the largest discovered gap.
///
/// Volume fraction and recall come from uniform sampling of the whole
/// input box. Precision is estimated from a *dedicated* pass that
/// rejection-samples inside each subspace's bounding box — discovered
/// regions are often a sliver of the global volume, so the global pass
/// would see too few interior points to judge them.
pub fn estimate_coverage(
    oracle: &dyn GapOracle,
    subspaces: &[Subspace],
    gap_threshold: f64,
    samples: usize,
    rng: &mut impl Rng,
) -> CoverageReport {
    let bounds = oracle.bounds();
    let dims = bounds.len();

    // --- Global pass: volume fraction and recall -------------------------
    let mut covered = 0usize;
    let mut bad = 0usize;
    let mut bad_and_covered = 0usize;
    let mut valid = 0usize;
    // One sample buffer for both passes, refilled in place.
    let mut x: Vec<f64> = Vec::with_capacity(dims);

    for _ in 0..samples {
        x.clear();
        x.extend((0..dims).map(|d| rng.gen_range(bounds[d].0..=bounds[d].1)));
        let g = oracle.gap(&x);
        if !g.is_finite() {
            continue;
        }
        valid += 1;
        let inside = subspaces.iter().any(|s| s.contains(&x));
        let is_bad = g >= gap_threshold;
        if inside {
            covered += 1;
        }
        if is_bad {
            bad += 1;
            if inside {
                bad_and_covered += 1;
            }
        }
    }

    // --- Interior pass: precision ----------------------------------------
    let per_subspace = (samples / subspaces.len().max(1)).clamp(50, 1000);
    let mut interior = 0usize;
    let mut interior_bad = 0usize;
    for s in subspaces {
        let mut produced = 0usize;
        let mut attempts = 0usize;
        while produced < per_subspace && attempts < per_subspace * 40 {
            attempts += 1;
            x.clear();
            x.extend((0..dims).map(|d| rng.gen_range(s.rough_lo[d]..=s.rough_hi[d])));
            if !s.contains(&x) {
                continue;
            }
            let g = oracle.gap(&x);
            if !g.is_finite() {
                continue;
            }
            produced += 1;
            interior += 1;
            if g >= gap_threshold {
                interior_bad += 1;
            }
        }
    }

    let frac = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    CoverageReport {
        volume_fraction: frac(covered, valid),
        risk_recall: frac(bad_and_covered, bad),
        risk_precision: frac(interior_bad, interior),
        gap_threshold,
        samples: valid + interior,
        bad_points: bad,
        covered_points: covered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xplain_analyzer::geometry::Polytope;

    struct BoxOracle;
    impl GapOracle for BoxOracle {
        fn dims(&self) -> usize {
            2
        }
        fn bounds(&self) -> Vec<(f64, f64)> {
            vec![(0.0, 1.0); 2]
        }
        fn gap(&self, x: &[f64]) -> f64 {
            if x[0] >= 0.5 && x[1] >= 0.5 {
                10.0
            } else {
                0.0
            }
        }
    }

    fn subspace(lo: Vec<f64>, hi: Vec<f64>) -> Subspace {
        Subspace {
            polytope: Polytope::from_box(&lo, &hi),
            seed: lo.clone(),
            seed_gap: 10.0,
            rough_lo: lo,
            rough_hi: hi,
            predicate_descriptions: Vec::new(),
            leaf_mean_gap: 10.0,
            leaf_samples: 0,
            evaluations: 0,
        }
    }

    #[test]
    fn perfect_subspace_scores_high() {
        // The subspace IS the bad quadrant.
        let s = subspace(vec![0.5, 0.5], vec![1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(1);
        let r = estimate_coverage(&BoxOracle, &[s], 5.0, 4000, &mut rng);
        assert!((r.volume_fraction - 0.25).abs() < 0.03, "{r:?}");
        assert!(r.risk_recall > 0.97, "{r:?}");
        assert!(r.risk_precision > 0.97, "{r:?}");
    }

    #[test]
    fn missing_subspace_scores_zero_recall() {
        // A subspace in the wrong corner.
        let s = subspace(vec![0.0, 0.0], vec![0.2, 0.2]);
        let mut rng = StdRng::seed_from_u64(2);
        let r = estimate_coverage(&BoxOracle, &[s], 5.0, 2000, &mut rng);
        assert!(r.risk_recall < 0.02, "{r:?}");
        assert_eq!(r.risk_precision, 0.0, "{r:?}");
    }

    #[test]
    fn partial_coverage_in_between() {
        // Covers half the bad quadrant.
        let s = subspace(vec![0.5, 0.5], vec![1.0, 0.75]);
        let mut rng = StdRng::seed_from_u64(3);
        let r = estimate_coverage(&BoxOracle, &[s], 5.0, 4000, &mut rng);
        assert!(r.risk_recall > 0.4 && r.risk_recall < 0.6, "{r:?}");
        assert!(r.risk_precision > 0.95, "{r:?}");
    }

    #[test]
    fn no_subspaces_zero_everything() {
        let mut rng = StdRng::seed_from_u64(4);
        let r = estimate_coverage(&BoxOracle, &[], 5.0, 500, &mut rng);
        assert_eq!(r.volume_fraction, 0.0);
        assert_eq!(r.risk_recall, 0.0);
        assert_eq!(r.covered_points, 0);
    }

    #[test]
    fn multiple_subspaces_union() {
        let a = subspace(vec![0.5, 0.5], vec![1.0, 0.75]);
        let b = subspace(vec![0.5, 0.75], vec![1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(5);
        let r = estimate_coverage(&BoxOracle, &[a, b], 5.0, 4000, &mut rng);
        assert!(r.risk_recall > 0.95, "{r:?}");
    }
}
