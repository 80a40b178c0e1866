//! Exact (optimal) vector bin packing by branch and bound.
//!
//! The benchmark side of the analyzer needs true optima. A specialized
//! search beats the generic MILP here: balls are assigned in order, each to
//! an existing bin or one fresh bin (symmetry breaking), pruned by the
//! per-dimension volume lower bound and the incumbent (seeded with FFD).
//!
//! A MILP formulation via `xplain-lp` is also provided as a cross-check —
//! the property tests assert both agree.

use crate::vbp::instance::{Packing, VbpInstance};
use crate::vbp::scratch::{Balls, PackScratch};
use xplain_lp::{milp, Cmp, LinExpr, LpError, Model, Sense};

/// Exact optimum by branch and bound. Suitable for the paper-scale
/// instances (n ≲ 25 in the adversarial analyses).
pub fn optimal(inst: &VbpInstance) -> Packing {
    PackScratch::packing(inst, PackScratch::optimal)
}

/// The bin count of [`optimal`] on balls given flat, as
/// [`first_fit_deferred_bins`](crate::vbp::first_fit_deferred_bins) takes
/// them. Allocates nothing once the calling thread has packed an instance
/// this large.
pub fn optimal_bins(capacity: &[f64], sizes: &[f64]) -> usize {
    PackScratch::with(|s| s.optimal(Balls::flat(capacity, sizes)))
}

impl PackScratch {
    fn optimal(&mut self, balls: Balls<'_>) -> usize {
        let n = balls.n;
        if n == 0 {
            self.assignment.clear();
            return 0;
        }

        // The search's buffers are sized even when the incumbent proves
        // optimal, so no later search of this size allocates. (FFD
        // reserves the remaining capacity of one bin per ball.)
        self.work.clear();
        self.work.resize(n, usize::MAX);

        // Incumbent from FFD, which also fills the sizes.
        let ffd_bins = self.first_fit_decreasing(balls);
        let lower = balls.lower_bound();
        if ffd_bins == lower {
            return ffd_bins;
        }

        // Sort balls by size descending: large balls first fail fast.
        let size = &self.size;
        self.order.clear();
        self.order.extend(0..n);
        self.order.sort_by(|&a, &b| {
            size[b]
                .partial_cmp(&size[a])
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        self.remaining.clear();
        // The incumbent's assignment is the best so far; each leaf the
        // search reaches beats it and overwrites it.
        let mut search = Search {
            balls,
            order: &self.order,
            best_bins: ffd_bins,
            best: &mut self.assignment,
            lower,
            work: &mut self.work,
            remaining: &mut self.remaining,
        };
        search.branch(0, 0);
        search.best_bins
    }
}

struct Search<'a> {
    balls: Balls<'a>,
    order: &'a [usize],
    best_bins: usize,
    best: &'a mut [usize],
    lower: usize,
    work: &'a mut [usize],
    /// Remaining capacity, one row of `dims` per open bin.
    remaining: &'a mut Vec<f64>,
}

impl Search<'_> {
    /// Place the balls from `order[depth]` on, with `bins` bins open.
    fn branch(&mut self, depth: usize, bins: usize) {
        if bins >= self.best_bins {
            return; // can't improve
        }
        if depth == self.order.len() {
            self.best_bins = bins;
            self.best.copy_from_slice(self.work);
            return;
        }
        let ball_ix = self.order[depth];
        let ball = self.balls.ball(ball_ix);
        let dims = ball.len();

        // Try existing bins.
        for b in 0..bins {
            let row = b * dims;
            let fits = (0..dims).all(|d| ball[d] <= self.remaining[row + d] + 1e-9);
            if !fits {
                continue;
            }
            for d in 0..dims {
                self.remaining[row + d] -= ball[d];
            }
            self.work[ball_ix] = b;
            self.branch(depth + 1, bins);
            for d in 0..dims {
                self.remaining[row + d] += ball[d];
            }
            if self.best_bins == self.lower {
                return; // proven optimal
            }
        }
        // Open one new bin (symmetry: only one).
        if bins + 1 < self.best_bins {
            let capacity = self.balls.capacity;
            self.remaining
                .extend((0..dims).map(|d| capacity[d] - ball[d]));
            self.work[ball_ix] = bins;
            self.branch(depth + 1, bins + 1);
            self.remaining.truncate(bins * dims);
        }
    }
}

/// MILP formulation of optimal bin packing (cross-check for [`optimal`]):
/// binaries `x[i][j]` (ball i in bin j) and `y[j]` (bin j used), at most
/// `max_bins` bins.
pub fn optimal_milp(inst: &VbpInstance, max_bins: usize) -> Result<Packing, LpError> {
    optimal_milp_stats(inst, max_bins).map(|(p, _)| p)
}

/// [`optimal_milp`] plus branch-and-bound work counters (see the sched
/// twin for why node counts are worth pinning).
pub fn optimal_milp_stats(
    inst: &VbpInstance,
    max_bins: usize,
) -> Result<(Packing, milp::MilpStats), LpError> {
    let n = inst.num_balls();
    if n == 0 {
        return Ok((
            Packing {
                assignment: Vec::new(),
                bins_used: 0,
            },
            milp::MilpStats::default(),
        ));
    }
    let mut m = Model::new(Sense::Minimize);
    let x: Vec<Vec<_>> = (0..n)
        .map(|i| {
            (0..max_bins)
                .map(|j| m.add_binary(format!("x[{i},{j}]")))
                .collect()
        })
        .collect();
    let y: Vec<_> = (0..max_bins)
        .map(|j| m.add_binary(format!("y[{j}]")))
        .collect();

    for i in 0..n {
        m.add_constr(
            format!("place[{i}]"),
            LinExpr::sum(x[i].iter().copied()),
            Cmp::Eq,
            1.0,
        );
    }
    for j in 0..max_bins {
        for d in 0..inst.num_dims() {
            let mut load = LinExpr::new();
            for i in 0..n {
                load.add_term(x[i][j], inst.balls[i][d]);
            }
            load.add_term(y[j], -inst.bin_capacity[d]);
            m.add_constr(format!("cap[{j},{d}]"), load, Cmp::Le, 0.0);
        }
        // Symmetry breaking: bins used in order.
        if j + 1 < max_bins {
            m.add_constr(
                format!("sym[{j}]"),
                LinExpr::term(y[j + 1], 1.0) - y[j],
                Cmp::Le,
                0.0,
            );
        }
    }
    m.set_objective(LinExpr::sum(y.iter().copied()));
    let (sol, stats) = milp::solve_with(&m, milp::Backend::Revised)?;

    let mut assignment = vec![0usize; n];
    for i in 0..n {
        for j in 0..max_bins {
            if sol.value(x[i][j]) > 0.5 {
                assignment[i] = j;
                break;
            }
        }
    }
    Ok((
        Packing {
            assignment,
            bins_used: sol.objective.round() as usize,
        },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vbp::heuristics::{first_fit, first_fit_decreasing};

    /// §2: optimal packs (1%, 49%, 51%, 51%) into 2 bins.
    #[test]
    fn sec2_optimal_is_two_bins() {
        let inst = VbpInstance::sec2_example();
        let p = optimal(&inst);
        assert_eq!(p.bins_used, 2);
        assert!(p.check(&inst, 1e-9).is_none());
    }

    /// Fig. 2: optimal packs the 17 balls into 8 bins (FF needs 9).
    #[test]
    fn fig2_optimal_is_eight_bins() {
        let inst = VbpInstance::fig2_example();
        let p = optimal(&inst);
        assert_eq!(p.bins_used, 8);
        assert!(p.check(&inst, 1e-9).is_none());
        assert_eq!(first_fit(&inst).bins_used, 9);
    }

    #[test]
    fn milp_agrees_on_sec2() {
        let inst = VbpInstance::sec2_example();
        let p = optimal_milp(&inst, 4).unwrap();
        assert_eq!(p.bins_used, 2);
        assert!(p.check(&inst, 1e-9).is_none());
    }

    #[test]
    fn empty_and_single() {
        let empty = VbpInstance::one_dim(&[]);
        assert_eq!(optimal(&empty).bins_used, 0);
        let single = VbpInstance::one_dim(&[0.4]);
        assert_eq!(optimal(&single).bins_used, 1);
    }

    #[test]
    fn perfect_pairs() {
        let inst = VbpInstance::one_dim(&[0.4, 0.6, 0.3, 0.7, 0.5, 0.5]);
        assert_eq!(optimal(&inst).bins_used, 3);
    }

    #[test]
    fn optimal_never_above_heuristics() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..25 {
            let n = rng.gen_range(1..12);
            let sizes: Vec<f64> = (0..n).map(|_| rng.gen_range(0.05..0.95)).collect();
            let inst = VbpInstance::one_dim(&sizes);
            let opt = optimal(&inst);
            assert!(opt.check(&inst, 1e-9).is_none());
            assert!(opt.bins_used <= first_fit(&inst).bins_used);
            assert!(opt.bins_used <= first_fit_decreasing(&inst).bins_used);
            assert!(opt.bins_used >= inst.lower_bound());
        }
    }

    #[test]
    fn milp_and_bnb_agree_on_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..8 {
            let n = rng.gen_range(2..7);
            let sizes: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..0.9)).collect();
            let inst = VbpInstance::one_dim(&sizes);
            let a = optimal(&inst);
            let b = optimal_milp(&inst, n).unwrap();
            assert_eq!(a.bins_used, b.bins_used, "sizes {sizes:?}");
        }
    }

    #[test]
    fn multi_dim_optimal() {
        let inst = VbpInstance {
            bin_capacity: vec![1.0, 1.0],
            balls: vec![
                vec![0.9, 0.1],
                vec![0.1, 0.9],
                vec![0.5, 0.5],
                vec![0.5, 0.5],
            ],
        };
        let p = optimal(&inst);
        // {0.9,0.1}+{0.1,0.9} share a bin; the two {0.5,0.5} share another.
        assert_eq!(p.bins_used, 2);
    }
}
