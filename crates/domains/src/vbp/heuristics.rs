//! Bin-packing heuristics: first-fit (the paper's running example), plus
//! best-fit and first-fit-decreasing — the variants §2 names as harder to
//! reason about ("best fit or first fit decreasing, as evidenced by the
//! years of research by theoreticians in this space").

use crate::vbp::instance::{Packing, VbpInstance};
use crate::vbp::scratch::{Balls, PackScratch};

/// Does `ball` fit in a bin with `remaining` capacity (per dimension)?
fn fits(ball: &[f64], remaining: &[f64], tol: f64) -> bool {
    ball.iter().zip(remaining).all(|(s, r)| *s <= *r + tol)
}

/// First-fit: place each ball (in input order) into the first bin it fits;
/// open a new bin when none fits (Fig. 1c's heuristic).
pub fn first_fit(inst: &VbpInstance) -> Packing {
    PackScratch::packing(inst, |s, balls| s.in_input_order(balls, BinChoice::First))
}

/// Best-fit: place each ball into the *fullest* bin it fits (the one whose
/// remaining capacity, summed over dimensions, is smallest after placing).
pub fn best_fit(inst: &VbpInstance) -> Packing {
    PackScratch::packing(inst, |s, balls| s.in_input_order(balls, BinChoice::Best))
}

/// First-fit-decreasing: sort balls by total size descending, then
/// first-fit. The returned assignment is indexed by *original* ball order.
pub fn first_fit_decreasing(inst: &VbpInstance) -> Packing {
    PackScratch::packing(inst, PackScratch::first_fit_decreasing)
}

/// First-fit with deferred small balls: balls of total size at least
/// `defer_below` are placed first (in input order), then the deferred
/// small ones (also in input order). `defer_below = 0.0` defers nothing
/// and is exactly [`first_fit`] — the identity default the tuner starts
/// from. A positive threshold repairs §2's pathology: small fillers no
/// longer claim early bins that over-half balls can then not join.
pub fn first_fit_deferred(inst: &VbpInstance, defer_below: f64) -> Packing {
    PackScratch::packing(inst, |s, balls| s.first_fit_deferred(balls, defer_below))
}

/// The bin count of [`first_fit_deferred`] on balls given flat:
/// `sizes[i * capacity.len() + d]` is ball `i`'s size in dimension `d`.
/// Allocates nothing once the calling thread has packed an instance this
/// large. Panics on an empty `capacity` or a `sizes` that is not whole
/// balls.
pub fn first_fit_deferred_bins(capacity: &[f64], sizes: &[f64], defer_below: f64) -> usize {
    PackScratch::with(|s| s.first_fit_deferred(Balls::flat(capacity, sizes), defer_below))
}

enum BinChoice {
    First,
    Best,
}

impl PackScratch {
    fn in_input_order(&mut self, balls: Balls<'_>, choice: BinChoice) -> usize {
        self.order.clear();
        self.order.extend(0..balls.n);
        self.place(balls, choice)
    }

    pub(crate) fn first_fit_decreasing(&mut self, balls: Balls<'_>) -> usize {
        self.order_decreasing(balls);
        self.place(balls, BinChoice::First)
    }

    fn first_fit_deferred(&mut self, balls: Balls<'_>, defer_below: f64) -> usize {
        self.fill_sizes(balls);
        let size = &self.size;
        self.order.clear();
        self.order
            .extend((0..balls.n).filter(|&i| size[i] >= defer_below));
        self.order
            .extend((0..balls.n).filter(|&i| size[i] < defer_below));
        self.place(balls, BinChoice::First)
    }

    /// Place the balls of [`PackScratch::order`], each into the bin
    /// `choice` picks among those it fits (a new bin when none does), and
    /// return the bins used; [`PackScratch::assignment`] holds the bins.
    fn place(&mut self, balls: Balls<'_>, choice: BinChoice) -> usize {
        const TOL: f64 = 1e-9;
        let dims = balls.dims();
        let PackScratch {
            order,
            remaining,
            assignment,
            ..
        } = self;
        remaining.clear();
        // At most one bin per ball: room for all of them up front.
        remaining.reserve(balls.n * dims);
        assignment.clear();
        assignment.resize(balls.n, usize::MAX);
        let mut bins = 0;

        for &i in order.iter() {
            let ball = balls.ball(i);
            let row = |b: usize| &remaining[b * dims..(b + 1) * dims];
            let target = match choice {
                BinChoice::First => (0..bins).position(|b| fits(ball, row(b), TOL)),
                BinChoice::Best => {
                    (0..bins)
                        .filter(|&b| fits(ball, row(b), TOL))
                        .min_by(|&a, &b| {
                            let ra: f64 = row(a).iter().sum::<f64>();
                            let rb: f64 = row(b).iter().sum::<f64>();
                            ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
                        })
                }
            };
            let bin = match target {
                Some(b) => b,
                None => {
                    remaining.extend_from_slice(balls.capacity);
                    bins += 1;
                    bins - 1
                }
            };
            for d in 0..dims {
                remaining[bin * dims + d] -= ball[d];
            }
            assignment[i] = bin;
        }
        bins
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §2: sizes (1%, 49%, 51%, 51%) — FF uses 3 bins, OPT needs only 2.
    #[test]
    fn sec2_first_fit_uses_three_bins() {
        let inst = VbpInstance::sec2_example();
        let p = first_fit(&inst);
        assert_eq!(p.bins_used, 3);
        assert!(p.check(&inst, 1e-9).is_none());
        // 0.01 and 0.49 share bin 0; each 0.51 gets its own bin.
        assert_eq!(p.assignment, vec![0, 0, 1, 2]);
    }

    /// Fig. 2: FF uses 9 bins on the 17-ball instance (optimal is 8).
    #[test]
    fn fig2_first_fit_uses_nine_bins() {
        let inst = VbpInstance::fig2_example();
        let p = first_fit(&inst);
        assert_eq!(p.bins_used, 9);
        assert!(p.check(&inst, 1e-9).is_none());
    }

    #[test]
    fn ffd_beats_ff_on_sec2() {
        let inst = VbpInstance::sec2_example();
        let p = first_fit_decreasing(&inst);
        // Sorted: 0.51, 0.51, 0.49, 0.01 -> bins {0.51+0.49}, {0.51+0.01}.
        assert_eq!(p.bins_used, 2);
        assert!(p.check(&inst, 1e-9).is_none());
    }

    #[test]
    fn best_fit_on_sec2() {
        // BF behaves like FF here (same 3 bins) — the example targets FF
        // but BF shares the pathology.
        let inst = VbpInstance::sec2_example();
        let p = best_fit(&inst);
        assert_eq!(p.bins_used, 3);
    }

    #[test]
    fn best_fit_prefers_fuller_bin() {
        // Balls 0.5, 0.3, 0.2: FF puts 0.2 in bin 0 (0.5 + 0.3 + 0.2 = 1.0
        // exactly fits!). Use 0.5, 0.3, 0.4, 0.2: FF -> bin0 {0.5,0.3,0.2}
        // ... construct a case where they differ:
        // sizes 0.6, 0.5, 0.4: FF: {0.6,0.4}? No: 0.5 opens bin1 (0.6+0.5>1),
        // 0.4 goes to bin0 (0.6+0.4=1.0). BF: same. Use dims where best
        // picks the tighter bin: 0.3, 0.55, 0.4, 0.45:
        //   FF: b0={0.3,0.55}(0.85), 0.4 -> b1, 0.45 -> b1 (0.85). 2 bins.
        //   BF: same count, but 0.45 placed in the fuller of {b0: 0.15 rem,
        //       b1: 0.6 rem} -> must go b1 anyway.
        // Differentiating case: 0.5, 0.25, 0.7, 0.25:
        //   FF: b0={0.5,0.25}, 0.7->b1, 0.25->b0 (1.0). bins 2.
        //   BF: b0={0.5,0.25}, 0.7->b1, 0.25: fits b0 (rem .25) and b1
        //       (rem .3); BF picks b0. bins 2, same count, diff layout OK.
        // Assert layout difference instead of count.
        let inst = VbpInstance::one_dim(&[0.5, 0.25, 0.7, 0.26]);
        let bf = best_fit(&inst);
        // rem after 3 balls: b0 = 0.25, b1 = 0.3 -> 0.26 fits only b1 for
        // FF-order too; tighten: ball 0.24 fits both; BF chooses b0.
        let inst2 = VbpInstance::one_dim(&[0.5, 0.25, 0.7, 0.24]);
        let bf2 = best_fit(&inst2);
        assert_eq!(bf2.assignment[3], 0, "best-fit picks the fuller bin");
        let ff2 = first_fit(&inst2);
        assert_eq!(ff2.assignment[3], 0, "first bin also fits here");
        assert!(bf.check(&inst, 1e-9).is_none());
    }

    /// `defer_below = 0` must be *exactly* first-fit: the tuner's default
    /// candidate may not change behavior.
    #[test]
    fn deferred_zero_is_first_fit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let n = rng.gen_range(1..12);
            let sizes: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1.0)).collect();
            let inst = VbpInstance::one_dim(&sizes);
            let ff = first_fit(&inst);
            let fd = first_fit_deferred(&inst, 0.0);
            assert_eq!(ff.bins_used, fd.bins_used);
            assert_eq!(ff.assignment, fd.assignment);
        }
    }

    /// §2's adversarial sizes (1%, 49%, 51%, 51%): deferring the small
    /// filler recovers the optimal 2 bins where FF burns 3.
    #[test]
    fn deferred_repairs_sec2() {
        let inst = VbpInstance::sec2_example();
        let p = first_fit_deferred(&inst, 0.1);
        assert_eq!(p.bins_used, 2);
        assert!(p.check(&inst, 1e-9).is_none());
    }

    #[test]
    fn exact_fit_boundary() {
        // Sizes that sum to exactly 1.0 share a bin (no float drama).
        let inst = VbpInstance::one_dim(&[0.3, 0.7, 0.3, 0.7]);
        let p = first_fit(&inst);
        assert_eq!(p.bins_used, 2);
        assert_eq!(p.assignment, vec![0, 0, 1, 1]);
    }

    #[test]
    fn empty_instance_zero_bins() {
        let inst = VbpInstance::one_dim(&[]);
        assert_eq!(first_fit(&inst).bins_used, 0);
        assert_eq!(best_fit(&inst).bins_used, 0);
        assert_eq!(first_fit_decreasing(&inst).bins_used, 0);
    }

    #[test]
    fn multi_dim_first_fit() {
        // Two dims: balls conflict on different dimensions.
        let inst = VbpInstance {
            bin_capacity: vec![1.0, 1.0],
            balls: vec![
                vec![0.9, 0.1],
                vec![0.1, 0.9],
                vec![0.9, 0.1], // fits with ball 1 in dim0? 0.1+0.9 = 1.0 ok dim0, dim1 0.9+0.1 ok
            ],
        };
        let p = first_fit(&inst);
        assert!(p.check(&inst, 1e-9).is_none());
        // Ball 2 cannot join bin 0 (dim0: 0.9+0.9 > 1) but joins bin 1.
        assert_eq!(p.assignment, vec![0, 0, 1]);
    }

    #[test]
    fn ffd_assignment_indexed_by_original_order() {
        let inst = VbpInstance::one_dim(&[0.2, 0.9]);
        let p = first_fit_decreasing(&inst);
        // 0.9 placed first (bin 0), then 0.2 — doesn't fit (1.1), bin 1.
        assert_eq!(p.assignment, vec![1, 0]);
    }

    #[test]
    fn heuristics_never_overload() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..30 {
            let n = rng.gen_range(1..15);
            let sizes: Vec<f64> = (0..n).map(|_| rng.gen_range(0.01..1.0)).collect();
            let inst = VbpInstance::one_dim(&sizes);
            for p in [
                first_fit(&inst),
                best_fit(&inst),
                first_fit_decreasing(&inst),
            ] {
                assert!(p.check(&inst, 1e-9).is_none());
                assert!(p.bins_used >= inst.lower_bound());
            }
        }
    }
}
