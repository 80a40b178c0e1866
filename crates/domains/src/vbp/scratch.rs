//! The working memory of the packing algorithms.
//!
//! Every packing algorithm of this crate has one body, a [`PackScratch`]
//! method over a flat [`Balls`] view, and runs in its thread's scratch:
//! once a thread has packed an instance, packing one of the same or a
//! smaller size allocates nothing (up to 512 balls: beyond that, std's
//! stable sort takes a heap buffer of its own). The [`Packing`] functions lay an
//! instance out flat and copy the result out of the scratch; the gap
//! oracle's count functions ([`first_fit_deferred_bins`](crate::vbp::first_fit_deferred_bins),
//! [`optimal_bins`](crate::vbp::optimal_bins)) read the bin count alone
//! and stay allocation-free.

use std::cell::RefCell;

use crate::vbp::instance::{Packing, VbpInstance};

/// Balls laid out flat: ball `i`'s size in dimension `d` is
/// `sizes[i * dims + d]`, with `dims = capacity.len()`.
#[derive(Clone, Copy)]
pub(crate) struct Balls<'a> {
    /// Per-dimension bin capacity.
    pub capacity: &'a [f64],
    pub sizes: &'a [f64],
    /// Ball count (explicit, so zero-dimensional instances keep theirs).
    pub n: usize,
}

impl<'a> Balls<'a> {
    /// A caller's flat layout. Panics on zero-dimensional bins or a
    /// `sizes` that is not whole balls.
    pub fn flat(capacity: &'a [f64], sizes: &'a [f64]) -> Self {
        assert!(
            !capacity.is_empty() && sizes.len().is_multiple_of(capacity.len()),
            "{} sizes are not whole balls of {} dimensions",
            sizes.len(),
            capacity.len()
        );
        Balls {
            capacity,
            sizes,
            n: sizes.len() / capacity.len(),
        }
    }

    pub fn dims(&self) -> usize {
        self.capacity.len()
    }

    pub fn ball(&self, i: usize) -> &'a [f64] {
        let dims = self.dims();
        &self.sizes[i * dims..(i + 1) * dims]
    }

    /// Per-dimension volume bound, as [`VbpInstance::lower_bound`].
    pub fn lower_bound(&self) -> usize {
        volume_bound(self.n, self.capacity, |i, d| self.ball(i)[d])
    }
}

/// `max_d ceil(Σ_i size(i, d) / cap_d)`, at least 1 if there are balls.
pub(crate) fn volume_bound(
    n: usize,
    capacity: &[f64],
    size: impl Fn(usize, usize) -> f64,
) -> usize {
    if n == 0 {
        return 0;
    }
    let mut best = 1usize;
    for (d, &cap) in capacity.iter().enumerate() {
        let total: f64 = (0..n).map(|i| size(i, d)).sum();
        let lb = (total / cap - 1e-9).ceil().max(0.0) as usize;
        best = best.max(lb);
    }
    best
}

/// Buffers the packing bodies work in; they grow to the largest instance
/// a thread has packed and are never shrunk.
pub(crate) struct PackScratch {
    /// Total size of each ball (summed over dimensions).
    pub size: Vec<f64>,
    /// Placement order (a permutation of the balls).
    pub order: Vec<usize>,
    /// Remaining capacity, one row of `dims` per open bin.
    pub remaining: Vec<f64>,
    /// The result: `assignment[i]` = bin of ball `i`.
    pub assignment: Vec<usize>,
    /// The branch and bound's working assignment.
    pub work: Vec<usize>,
}

thread_local! {
    static SCRATCH: RefCell<PackScratch> = const {
        RefCell::new(PackScratch {
            size: Vec::new(),
            order: Vec::new(),
            remaining: Vec::new(),
            assignment: Vec::new(),
            work: Vec::new(),
        })
    };
}

impl PackScratch {
    /// Run `f` in this thread's scratch.
    pub fn with<R>(f: impl FnOnce(&mut PackScratch) -> R) -> R {
        SCRATCH.with(|s| f(&mut s.borrow_mut()))
    }

    /// Run `body` on `inst` laid out flat, and package the bin count it
    /// returns with the assignment it left.
    pub fn packing(
        inst: &VbpInstance,
        body: impl FnOnce(&mut PackScratch, Balls<'_>) -> usize,
    ) -> Packing {
        let dims = inst.num_dims();
        let sizes: Vec<f64> = inst
            .balls
            .iter()
            .flat_map(|b| b[..dims].iter().copied())
            .collect();
        let balls = Balls {
            capacity: &inst.bin_capacity,
            sizes: &sizes,
            n: inst.num_balls(),
        };
        PackScratch::with(|s| {
            let bins_used = body(s, balls);
            Packing {
                assignment: s.assignment.clone(),
                bins_used,
            }
        })
    }

    /// Fill [`PackScratch::size`] for `balls`.
    pub fn fill_sizes(&mut self, balls: Balls<'_>) {
        self.size.clear();
        self.size
            .extend((0..balls.n).map(|i| balls.ball(i).iter().sum::<f64>()));
    }

    /// Set the placement order to every ball by total size, largest
    /// first, ties in index order. Fills the sizes.
    pub fn order_decreasing(&mut self, balls: Balls<'_>) {
        self.fill_sizes(balls);
        let size = &self.size;
        self.order.clear();
        self.order.extend(0..balls.n);
        self.order.sort_by(|&a, &b| {
            size[b]
                .partial_cmp(&size[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
    }
}
