//! Search-based adversarial input finder.
//!
//! This is the documented substitution for MetaOpt's Gurobi-backed bilevel
//! solver on instances too large for the exact MILP route (DESIGN.md §2):
//! multi-start compass (pattern) search over the gap oracle, with support
//! for the exclusion regions that XPlain's iterate-and-exclude loop
//! (§5.2 step 3) feeds back. The exact MILP analyzers
//! ([`crate::dp_metaopt`], [`crate::ff_metaopt`]) cross-validate it on
//! paper-scale instances.

use crate::geometry::Polytope;
use crate::oracle::GapOracle;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shared cooperative-cancellation flag. The analysis-session layer hands
/// the same `Arc` to its `CancelToken`, so flipping the token mid-search
/// makes [`find_adversarial`] return at its next check instead of burning
/// the rest of its evaluation budget.
pub type StopFlag = Arc<AtomicBool>;

/// Search configuration.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Independent random restarts.
    pub restarts: usize,
    /// Evaluation budget per restart.
    pub evals_per_restart: usize,
    /// Initial pattern step as a fraction of each dimension's range.
    pub init_step_frac: f64,
    /// Stop shrinking below this fraction.
    pub min_step_frac: f64,
    /// Structured seed points probed before random restarts (corners,
    /// threshold-straddling points...). Invalid/excluded entries are
    /// skipped silently.
    pub seeds: Vec<Vec<f64>>,
    /// Hard cap on oracle evaluations across the *whole* call (`None`:
    /// only the per-restart budget applies). When exhausted the search
    /// returns its best-so-far. For callers that bound a single search
    /// invocation; the session layer bounds whole probes instead —
    /// `max_analyzer_calls` at event boundaries plus the cooperative
    /// [`SearchOptions::stop`] flag — and leaves this `None`.
    pub max_total_evals: Option<usize>,
    /// Cooperative cancellation: when the flag flips mid-search the call
    /// returns its best-so-far at the next check. An aborted call leaves
    /// the caller's RNG mid-stream, so determinism-sensitive callers
    /// (the session layer) discard the result and replay the probe from
    /// their last checkpoint.
    pub stop: Option<StopFlag>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            restarts: 24,
            evals_per_restart: 400,
            init_step_frac: 0.25,
            min_step_frac: 1e-3,
            seeds: Vec::new(),
            max_total_evals: None,
            stop: None,
        }
    }
}

/// An adversarial input and its gap. Serializable because it rides inside
/// session checkpoints (a session interrupted between the analyzer probe
/// and the subspace-growth step persists the pending probe).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adversarial {
    pub input: Vec<f64>,
    pub gap: f64,
}

/// Find an input maximizing the oracle's gap, avoiding `excluded` regions.
///
/// Returns `None` when no valid (finite-gap, non-excluded) point with a
/// strictly positive gap is found within budget — the signal that the
/// iterate-and-exclude loop has exhausted the space.
pub fn find_adversarial(
    oracle: &dyn GapOracle,
    excluded: &[Polytope],
    opts: &SearchOptions,
    rng: &mut impl Rng,
) -> Option<Adversarial> {
    let bounds = oracle.bounds();
    let dims = bounds.len();
    let ranges: Vec<f64> = bounds.iter().map(|(lo, hi)| hi - lo).collect();
    let is_excluded = |x: &[f64]| excluded.iter().any(|p| p.contains(x, 1e-9));

    let eval = |x: &[f64]| -> f64 {
        if is_excluded(x) {
            f64::NEG_INFINITY
        } else {
            oracle.gap(x)
        }
    };

    // Whole-call budget hooks (both default off and cost nothing then).
    let mut total_evals = 0usize;
    let out_of_budget = |total: usize| opts.max_total_evals.is_some_and(|cap| total >= cap);
    let stop_requested = || {
        opts.stop
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    };

    let mut best: Option<Adversarial> = None;
    let consider = |x: &[f64], g: f64, best: &mut Option<Adversarial>| {
        if g.is_finite() && g > 0.0 && best.as_ref().is_none_or(|b| g > b.gap) {
            *best = Some(Adversarial {
                input: x.to_vec(),
                gap: g,
            });
        }
    };

    // Structured seeds first.
    let mut starts: Vec<Vec<f64>> = opts
        .seeds
        .iter()
        .filter(|s| s.len() == dims)
        .cloned()
        .collect();
    for _ in 0..opts.restarts {
        starts.push(
            bounds
                .iter()
                .map(|(lo, hi)| rng.gen_range(*lo..=*hi))
                .collect(),
        );
    }

    let mut cand: Vec<f64> = Vec::with_capacity(dims);
    for start in starts {
        if out_of_budget(total_evals) || stop_requested() {
            break;
        }
        let mut x = clamp(&start, &bounds);
        let mut fx = eval(&x);
        let mut evals = 1usize;
        total_evals += 1;
        // Re-draw excluded/invalid starts a few times.
        let mut tries = 0;
        while !fx.is_finite() && tries < 20 && evals < opts.evals_per_restart {
            x = bounds
                .iter()
                .map(|(lo, hi)| rng.gen_range(*lo..=*hi))
                .collect();
            fx = eval(&x);
            evals += 1;
            total_evals += 1;
            tries += 1;
        }
        if !fx.is_finite() {
            continue;
        }
        consider(&x, fx, &mut best);

        // Each candidate differs from `x` in one coordinate: it is built
        // in `cand`, which equals `x` between evaluations.
        cand.clear();
        cand.extend_from_slice(&x);
        let mut step = opts.init_step_frac;
        while step >= opts.min_step_frac && evals < opts.evals_per_restart {
            if out_of_budget(total_evals) || stop_requested() {
                break;
            }
            let mut improved = false;
            for d in 0..dims {
                for sign in [1.0, -1.0] {
                    if evals >= opts.evals_per_restart || out_of_budget(total_evals) {
                        break;
                    }
                    cand[d] = (x[d] + sign * step * ranges[d]).clamp(bounds[d].0, bounds[d].1);
                    if (cand[d] - x[d]).abs() < 1e-15 {
                        cand[d] = x[d];
                        continue;
                    }
                    let fc = eval(&cand);
                    evals += 1;
                    total_evals += 1;
                    if fc > fx + 1e-12 {
                        x[d] = cand[d];
                        fx = fc;
                        consider(&x, fx, &mut best);
                        improved = true;
                        break;
                    }
                    cand[d] = x[d];
                }
                if improved {
                    break;
                }
            }
            if !improved {
                step *= 0.5;
            }
        }
    }

    best
}

fn clamp(x: &[f64], bounds: &[(f64, f64)]) -> Vec<f64> {
    x.iter()
        .zip(bounds)
        .map(|(v, (lo, hi))| v.clamp(*lo, *hi))
        .collect()
}

/// Structured seed points for a DP-style oracle: demands straddling the
/// pinning threshold. Covers the "one pinnable demand + saturating
/// neighbors" patterns that make DP underperform.
pub fn dp_seeds(dims: usize, threshold: f64, cap: f64) -> Vec<Vec<f64>> {
    let mut seeds = Vec::new();
    let pin = threshold; // pinnable (d <= T)
    for k in 0..dims {
        let mut all_big = vec![cap; dims];
        all_big[k] = pin;
        seeds.push(all_big);
        let mut one_hot = vec![0.0; dims];
        one_hot[k] = pin;
        seeds.push(one_hot);
    }
    seeds.push(vec![pin; dims]);
    seeds.push(vec![cap; dims]);
    seeds
}

/// Structured seeds for a makespan-scheduling oracle: the Graham-tight
/// pattern (two jobs each of `2m-1 .. m+1` plus three of `m`, padded or
/// truncated to `dims` and scaled into `[0, p_max]`), plus uniform and
/// bimodal mixes.
pub fn sched_seeds(dims: usize, machines: usize, p_max: f64) -> Vec<Vec<f64>> {
    let m = machines.max(2);
    let mut tight: Vec<f64> = Vec::with_capacity(2 * m + 1);
    for size in (m + 1..=2 * m - 1).rev() {
        tight.push(size as f64);
        tight.push(size as f64);
    }
    tight.extend([m as f64; 3]);
    let scale = if (2 * m - 1) as f64 > p_max {
        p_max / (2 * m - 1) as f64
    } else {
        1.0
    };
    tight.iter_mut().for_each(|p| *p *= scale);
    tight.resize(dims, 0.0); // tight is sorted descending: keep the large jobs

    let mut seeds = vec![tight];
    seeds.push(vec![0.5 * p_max; dims]);
    let mut bimodal = Vec::with_capacity(dims);
    for i in 0..dims {
        bimodal.push(if i % 2 == 0 {
            p_max / 3.0
        } else {
            2.0 * p_max / 3.0
        });
    }
    seeds.push(bimodal);
    seeds
}

/// Structured seeds for an FF oracle: the classic "small filler + balls
/// just over half" patterns.
pub fn ff_seeds(dims: usize, cap: f64, min_size: f64) -> Vec<Vec<f64>> {
    let mut seeds = Vec::new();
    let just_under = 0.49 * cap;
    let just_over = 0.51 * cap;
    let mut s1 = vec![just_over; dims];
    s1[0] = min_size.max(0.01 * cap);
    if dims > 1 {
        s1[1] = just_under;
    }
    seeds.push(s1);
    seeds.push(vec![just_over; dims]);
    let mut s3 = Vec::with_capacity(dims);
    for i in 0..dims {
        s3.push(if i % 2 == 0 { 0.3 * cap } else { 0.8 * cap });
    }
    seeds.push(s3);
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{DpOracle, FfOracle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xplain_domains::te::TeProblem;

    #[test]
    fn finds_dp_gap_on_fig1a() {
        let oracle = DpOracle::new(TeProblem::fig1a(), 50.0);
        let opts = SearchOptions {
            seeds: dp_seeds(3, 50.0, 100.0),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        let adv = find_adversarial(&oracle, &[], &opts, &mut rng).expect("gap exists");
        // The true maximum gap is 100 (Fig. 1a); the search must get close.
        assert!(adv.gap >= 90.0, "found only {}", adv.gap);
        // The pinnable demand must be at/below the threshold.
        assert!(adv.input[0] <= 50.0 + 1e-9);
    }

    #[test]
    fn finds_ff_gap_with_four_balls() {
        let oracle = FfOracle::new(4);
        let opts = SearchOptions {
            seeds: ff_seeds(4, 1.0, 0.01),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        let adv = find_adversarial(&oracle, &[], &opts, &mut rng).expect("gap exists");
        assert!(adv.gap >= 1.0, "found only {}", adv.gap);
    }

    #[test]
    fn respects_exclusions() {
        let oracle = DpOracle::new(TeProblem::fig1a(), 50.0);
        // Exclude the whole box: nothing to find.
        let all = Polytope::from_box(&[0.0, 0.0, 0.0], &[100.0, 100.0, 100.0]);
        let opts = SearchOptions {
            restarts: 4,
            evals_per_restart: 50,
            seeds: dp_seeds(3, 50.0, 100.0),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        assert!(find_adversarial(&oracle, &[all], &opts, &mut rng).is_none());
    }

    #[test]
    fn exclusion_moves_the_answer() {
        let oracle = DpOracle::new(TeProblem::fig1a(), 50.0);
        let opts = SearchOptions {
            seeds: dp_seeds(3, 50.0, 100.0),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let first = find_adversarial(&oracle, &[], &opts, &mut rng).unwrap();
        // Exclude a box around the first answer.
        let lo: Vec<f64> = first.input.iter().map(|v| (v - 10.0).max(0.0)).collect();
        let hi: Vec<f64> = first.input.iter().map(|v| (v + 10.0).min(100.0)).collect();
        let excl = Polytope::from_box(&lo, &hi);
        let mut rng2 = StdRng::seed_from_u64(5);
        if let Some(second) =
            find_adversarial(&oracle, std::slice::from_ref(&excl), &opts, &mut rng2)
        {
            assert!(!excl.contains(&second.input, 1e-9));
        }
    }

    #[test]
    fn finds_sched_gap_on_tight_family() {
        use crate::oracle::SchedOracle;
        let oracle = SchedOracle::new(5, 2);
        let opts = SearchOptions {
            seeds: sched_seeds(5, 2, oracle.p_max),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        let adv = find_adversarial(&oracle, &[], &opts, &mut rng).expect("gap exists");
        // The Graham-tight point reaches gap 1; the search must find it
        // (or something at least as bad).
        assert!(adv.gap >= 1.0 - 1e-9, "found only {}", adv.gap);
    }

    #[test]
    fn sched_seeds_cover_padding_and_scaling() {
        // dims > 2m+1: padded with zeros.
        let s = sched_seeds(8, 2, 3.0);
        assert_eq!(s[0].len(), 8);
        assert_eq!(s[0][..5], [3.0, 3.0, 2.0, 2.0, 2.0]);
        assert_eq!(s[0][5..], [0.0, 0.0, 0.0]);
        // p_max below 2m-1: scaled down to fit the box.
        let t = sched_seeds(5, 2, 1.5);
        assert!(t[0].iter().all(|&p| p <= 1.5 + 1e-12));
        assert!((t[0][0] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn total_eval_budget_caps_the_search() {
        let oracle = DpOracle::new(TeProblem::fig1a(), 50.0);
        let opts = SearchOptions {
            seeds: dp_seeds(3, 50.0, 100.0),
            max_total_evals: Some(5),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        // A 5-eval cap still probes the first structured seed, so the
        // adversarial point is found — just not polished across restarts.
        let capped = find_adversarial(&oracle, &[], &opts, &mut rng);
        assert!(capped.is_some());

        // With the cap off and the same seed, the search must do at least
        // as well (budget hooks never improve the answer).
        let full_opts = SearchOptions {
            seeds: dp_seeds(3, 50.0, 100.0),
            ..Default::default()
        };
        let mut rng2 = StdRng::seed_from_u64(1);
        let full = find_adversarial(&oracle, &[], &full_opts, &mut rng2).unwrap();
        assert!(full.gap >= capped.unwrap().gap - 1e-12);
    }

    #[test]
    fn preflipped_stop_flag_short_circuits() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let oracle = DpOracle::new(TeProblem::fig1a(), 50.0);
        let flag: StopFlag = Arc::new(AtomicBool::new(true));
        let opts = SearchOptions {
            seeds: dp_seeds(3, 50.0, 100.0),
            stop: Some(flag),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(2);
        // Stop requested before the first restart: nothing is probed.
        assert!(find_adversarial(&oracle, &[], &opts, &mut rng).is_none());
    }

    #[test]
    fn default_options_leave_budget_hooks_off() {
        let opts = SearchOptions::default();
        assert!(opts.max_total_evals.is_none());
        assert!(opts.stop.is_none());
    }

    #[test]
    fn adversarial_roundtrips_through_json() {
        let adv = Adversarial {
            input: vec![1.5, 0.25],
            gap: 3.75,
        };
        let json = serde_json::to_string(&adv).unwrap();
        let back: Adversarial = serde_json::from_str(&json).unwrap();
        assert_eq!(back.input, adv.input);
        assert_eq!(back.gap, adv.gap);
    }

    #[test]
    fn zero_gap_oracle_returns_none() {
        struct Flat;
        impl GapOracle for Flat {
            fn dims(&self) -> usize {
                2
            }
            fn bounds(&self) -> Vec<(f64, f64)> {
                vec![(0.0, 1.0); 2]
            }
            fn gap(&self, _x: &[f64]) -> f64 {
                0.0
            }
        }
        let mut rng = StdRng::seed_from_u64(6);
        let opts = SearchOptions {
            restarts: 3,
            evals_per_restart: 30,
            ..Default::default()
        };
        assert!(find_adversarial(&Flat, &[], &opts, &mut rng).is_none());
    }
}
