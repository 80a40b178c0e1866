//! The adversarial subspace generator (§5.2, Fig. 5).
//!
//! From a single adversarial point found by the analyzer:
//!
//! 1. start with a small cube around the point;
//! 2. treat the `2n` axis-aligned **slices** (slabs just beyond each face)
//!    as expansion directions; sample each slice — the per-slice sample
//!    count comes from the DKW inequality — and expand while the density
//!    of *bad* samples (gap above a fraction of the seed gap) stays high;
//!    stop a direction when its density drops (Fig. 5a);
//! 3. refine the rough cube with a regression tree trained to predict the
//!    gap, keeping the root-to-leaf path containing the seed (Fig. 5b);
//! 4. report the polytope `[I; -I] x <= [hi; -lo]` ∩ tree predicates —
//!    exactly the `A/T/V` form of Fig. 5c.

use crate::features::FeatureMap;
use rand::Rng;
use serde::{Deserialize, Serialize};
use xplain_analyzer::geometry::Polytope;
use xplain_analyzer::oracle::GapOracle;
use xplain_analyzer::search::Adversarial;
use xplain_stats::dkw::dkw_samples;
use xplain_stats::tree::{RegressionTree, TreeParams};

/// Tuning for the subspace generator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubspaceParams {
    /// Initial cube half-width, as a fraction of each dimension's range.
    pub initial_frac: f64,
    /// Slice thickness per expansion, as a fraction of the range.
    pub expand_frac: f64,
    /// A sample is *bad* when `gap >= bad_frac * seed_gap`.
    pub bad_frac: f64,
    /// Keep expanding a direction while its bad-sample density is at
    /// least this.
    pub density_threshold: f64,
    /// DKW accuracy for the per-slice density estimate.
    pub dkw_eps: f64,
    /// DKW confidence for the per-slice density estimate.
    pub dkw_delta: f64,
    /// Cap on expansions per direction (safety valve).
    pub max_expansions: usize,
    /// Regression-tree refinement settings.
    pub tree: TreeParams,
    /// Samples drawn inside the rough box to train the tree, as a
    /// multiple of the per-slice DKW count.
    pub tree_sample_factor: usize,
    /// Skip step 3 entirely (rough box only).
    pub refine_with_tree: bool,
}

impl Default for SubspaceParams {
    fn default() -> Self {
        SubspaceParams {
            initial_frac: 0.05,
            expand_frac: 0.05,
            bad_frac: 0.5,
            density_threshold: 0.5,
            dkw_eps: 0.15,
            dkw_delta: 0.1,
            max_expansions: 20,
            tree: TreeParams {
                max_depth: 4,
                min_leaf: 12,
                min_gain: 1e-9,
            },
            tree_sample_factor: 6,
            refine_with_tree: true,
        }
    }
}

/// A discovered adversarial subspace, in the paper's reporting form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Subspace {
    /// The analyzer's adversarial point this subspace grew from.
    pub seed: Vec<f64>,
    pub seed_gap: f64,
    /// Rough cube from the slice-expansion phase.
    pub rough_lo: Vec<f64>,
    pub rough_hi: Vec<f64>,
    /// Tree-path predicates, rendered over the feature map.
    pub predicate_descriptions: Vec<String>,
    /// The final region: rough box ∩ tree half-spaces (Fig. 5c).
    pub polytope: Polytope,
    /// Mean gap and sample count of the tree leaf containing the seed.
    pub leaf_mean_gap: f64,
    pub leaf_samples: usize,
    /// Total oracle evaluations spent growing this subspace.
    pub evaluations: usize,
}

impl Subspace {
    /// A box-only subspace around a known adversarial point, skipping the
    /// generator entirely — for hand-specified regions (the Fig. 4
    /// reproductions pin the paper's exact subspaces this way) and tests.
    pub fn from_rough_box(lo: Vec<f64>, hi: Vec<f64>, seed: Vec<f64>, seed_gap: f64) -> Self {
        Subspace {
            polytope: Polytope::from_box(&lo, &hi),
            rough_lo: lo,
            rough_hi: hi,
            seed_gap,
            seed,
            predicate_descriptions: Vec::new(),
            leaf_mean_gap: seed_gap,
            leaf_samples: 0,
            evaluations: 0,
        }
    }

    /// Membership test.
    pub fn contains(&self, x: &[f64]) -> bool {
        self.polytope.contains(x, 1e-9)
    }
}

/// Grow a subspace around `seed` (§5.2 steps 1–2 plus tree refinement).
///
/// `features` drives the tree refinement; identity features reproduce raw
/// coordinate predicates, identity+sum reproduces Fig. 5b.
pub fn grow_subspace(
    oracle: &dyn GapOracle,
    seed: &Adversarial,
    features: &FeatureMap,
    params: &SubspaceParams,
    rng: &mut impl Rng,
) -> Subspace {
    let bounds = oracle.bounds();
    let dims = bounds.len();
    let ranges: Vec<f64> = bounds.iter().map(|(lo, hi)| hi - lo).collect();
    let bad_gap = (params.bad_frac * seed.gap).max(1e-12);
    let n_slice = dkw_samples(params.dkw_eps, params.dkw_delta);
    let mut evaluations = 0usize;

    // Step 1: initial cube around the seed.
    let mut lo: Vec<f64> = (0..dims)
        .map(|d| (seed.input[d] - params.initial_frac * ranges[d]).max(bounds[d].0))
        .collect();
    let mut hi: Vec<f64> = (0..dims)
        .map(|d| (seed.input[d] + params.initial_frac * ranges[d]).min(bounds[d].1))
        .collect();

    // All samples seen (reused to train the tree).
    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();

    // Step 2: slice-by-slice expansion.
    // Directions: (dim, +1) grows hi, (dim, -1) grows lo.
    let mut alive: Vec<bool> = (0..2 * dims).map(|_| true).collect();
    let mut expansions = vec![0usize; 2 * dims];
    loop {
        let mut any = false;
        for dir in 0..2 * dims {
            if !alive[dir] {
                continue;
            }
            let d = dir / 2;
            let positive = dir % 2 == 0;
            if expansions[d * 2 + if positive { 0 } else { 1 }] >= params.max_expansions {
                alive[dir] = false;
                continue;
            }
            let step = params.expand_frac * ranges[d];
            // The candidate slice spans the current box in every other
            // dimension and the new slab in dimension d.
            let (slab_lo, slab_hi) = if positive {
                let new_hi = (hi[d] + step).min(bounds[d].1);
                if new_hi - hi[d] < 1e-12 {
                    alive[dir] = false;
                    continue;
                }
                (hi[d], new_hi)
            } else {
                let new_lo = (lo[d] - step).max(bounds[d].0);
                if lo[d] - new_lo < 1e-12 {
                    alive[dir] = false;
                    continue;
                }
                (new_lo, lo[d])
            };

            // Sample the slice.
            let mut bad = 0usize;
            for _ in 0..n_slice {
                let mut x: Vec<f64> = (0..dims).map(|dd| rng.gen_range(lo[dd]..=hi[dd])).collect();
                x[d] = rng.gen_range(slab_lo..=slab_hi);
                let g = oracle.gap(&x);
                evaluations += 1;
                if g.is_finite() {
                    if g >= bad_gap {
                        bad += 1;
                    }
                    xs.push(x);
                    ys.push(g.max(0.0));
                }
            }
            let density = bad as f64 / n_slice as f64;
            if density >= params.density_threshold {
                if positive {
                    hi[d] = slab_hi;
                } else {
                    lo[d] = slab_lo;
                }
                expansions[dir] += 1;
                any = true;
            } else {
                alive[dir] = false;
            }
        }
        if !any {
            break;
        }
    }

    // Fill samples inside the final rough box for tree training.
    let fill = params.tree_sample_factor * n_slice;
    for _ in 0..fill {
        let x: Vec<f64> = (0..dims).map(|d| rng.gen_range(lo[d]..=hi[d])).collect();
        let g = oracle.gap(&x);
        evaluations += 1;
        if g.is_finite() {
            xs.push(x);
            ys.push(g.max(0.0));
        }
    }
    // Make sure the seed itself is in the training set.
    xs.push(seed.input.clone());
    ys.push(seed.gap);

    let mut polytope = Polytope::from_box(&lo, &hi);
    let mut predicate_descriptions = Vec::new();
    let mut leaf_mean_gap = seed.gap;
    let mut leaf_samples = xs.len();

    // Step 3: regression-tree refinement in feature space.
    if params.refine_with_tree && xs.len() >= 2 * params.tree.min_leaf {
        let feat_rows: Vec<Vec<f64>> = xs.iter().map(|x| features.eval(x)).collect();
        if let Ok(tree) = RegressionTree::fit(&feat_rows, &ys, &params.tree) {
            let seed_feats = features.eval(&seed.input);
            for pred in tree.path_for(&seed_feats) {
                let f = &features.features[pred.feature];
                polytope.intersect(f.halfspace(pred.threshold, pred.leq));
                predicate_descriptions.push(format!(
                    "{} {} {:.4}",
                    f.name,
                    if pred.leq { "<=" } else { ">" },
                    pred.threshold
                ));
            }
            let (mean, n) = tree.leaf_stats(&seed_feats);
            leaf_mean_gap = mean;
            leaf_samples = n;
        }
    }

    Subspace {
        seed: seed.input.clone(),
        seed_gap: seed.gap,
        rough_lo: lo,
        rough_hi: hi,
        predicate_descriptions,
        polytope,
        leaf_mean_gap,
        leaf_samples,
        evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A synthetic oracle with a known adversarial box: gap is 10 inside
    /// `[0.6, 0.9] x [0.1, 0.4]`, else 0.
    struct BoxOracle;
    impl GapOracle for BoxOracle {
        fn dims(&self) -> usize {
            2
        }
        fn bounds(&self) -> Vec<(f64, f64)> {
            vec![(0.0, 1.0); 2]
        }
        fn gap(&self, x: &[f64]) -> f64 {
            if x[0] >= 0.6 && x[0] <= 0.9 && x[1] >= 0.1 && x[1] <= 0.4 {
                10.0
            } else {
                0.0
            }
        }
    }

    fn params_fast() -> SubspaceParams {
        SubspaceParams {
            dkw_eps: 0.2,
            dkw_delta: 0.2,
            ..Default::default()
        }
    }

    #[test]
    fn recovers_known_box() {
        let seed = Adversarial {
            input: vec![0.75, 0.25],
            gap: 10.0,
        };
        let mut rng = StdRng::seed_from_u64(7);
        let fm = FeatureMap::identity(2, &[]);
        let s = grow_subspace(&BoxOracle, &seed, &fm, &params_fast(), &mut rng);
        // The rough box must cover most of the true box and not leak far
        // outside it.
        assert!(s.rough_lo[0] <= 0.67 && s.rough_hi[0] >= 0.83, "{s:?}");
        assert!(s.rough_lo[1] <= 0.17 && s.rough_hi[1] >= 0.33, "{s:?}");
        assert!(s.rough_lo[0] >= 0.45, "leaked left: {:?}", s.rough_lo);
        assert!(s.rough_hi[0] <= 1.0);
        // Seed stays inside the final polytope.
        assert!(s.contains(&seed.input));
        // The leaf containing the seed should have a high mean gap.
        assert!(s.leaf_mean_gap > 5.0, "{}", s.leaf_mean_gap);
    }

    #[test]
    fn expansion_stops_at_bounds() {
        // Seed near the domain corner: expansion must clip, not panic.
        struct CornerOracle;
        impl GapOracle for CornerOracle {
            fn dims(&self) -> usize {
                2
            }
            fn bounds(&self) -> Vec<(f64, f64)> {
                vec![(0.0, 1.0); 2]
            }
            fn gap(&self, x: &[f64]) -> f64 {
                if x[0] >= 0.9 && x[1] >= 0.9 {
                    5.0
                } else {
                    0.0
                }
            }
        }
        let seed = Adversarial {
            input: vec![0.97, 0.97],
            gap: 5.0,
        };
        let mut rng = StdRng::seed_from_u64(8);
        let fm = FeatureMap::identity(2, &[]);
        let s = grow_subspace(&CornerOracle, &seed, &fm, &params_fast(), &mut rng);
        assert!(s.rough_hi[0] <= 1.0 + 1e-12);
        assert!(s.rough_hi[1] <= 1.0 + 1e-12);
        assert!(s.contains(&[0.97, 0.97]));
    }

    #[test]
    fn no_tree_mode_keeps_plain_box() {
        let seed = Adversarial {
            input: vec![0.75, 0.25],
            gap: 10.0,
        };
        let mut rng = StdRng::seed_from_u64(9);
        let fm = FeatureMap::identity(2, &[]);
        let params = SubspaceParams {
            refine_with_tree: false,
            ..params_fast()
        };
        let s = grow_subspace(&BoxOracle, &seed, &fm, &params, &mut rng);
        assert!(s.predicate_descriptions.is_empty());
        // Box polytope: 2 uppers + 2 lowers.
        assert_eq!(s.polytope.halfspaces.len(), 4);
    }

    #[test]
    fn half_space_count_includes_tree_predicates() {
        let seed = Adversarial {
            input: vec![0.75, 0.25],
            gap: 10.0,
        };
        let mut rng = StdRng::seed_from_u64(10);
        let fm = FeatureMap::identity_with_sum(2, &[]);
        let s = grow_subspace(&BoxOracle, &seed, &fm, &params_fast(), &mut rng);
        assert!(s.polytope.halfspaces.len() >= 4);
        assert_eq!(
            s.polytope.halfspaces.len(),
            4 + s.predicate_descriptions.len()
        );
    }

    #[test]
    fn evaluation_budget_reported() {
        let seed = Adversarial {
            input: vec![0.75, 0.25],
            gap: 10.0,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let fm = FeatureMap::identity(2, &[]);
        let s = grow_subspace(&BoxOracle, &seed, &fm, &params_fast(), &mut rng);
        assert!(s.evaluations > 0);
    }
}
