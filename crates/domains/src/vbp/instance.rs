//! Vector bin packing instances and packings.
//!
//! Balls are `d`-dimensional nonnegative vectors; bins have a capacity per
//! dimension. The paper's running examples are one-dimensional with unit
//! bins (sizes expressed as a fraction of the bin), but VBP itself — and
//! everything in this module — is multi-dimensional (§2: "places
//! multi-dimensional balls into multi-dimensional bins").

use serde::{Deserialize, Serialize};

use crate::vbp::scratch::volume_bound;

/// A VBP instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VbpInstance {
    /// Per-dimension bin capacity (same for every bin).
    pub bin_capacity: Vec<f64>,
    /// `balls[i][d]` = size of ball `i` in dimension `d`.
    pub balls: Vec<Vec<f64>>,
}

impl VbpInstance {
    /// One-dimensional instance with unit bins.
    pub fn one_dim(sizes: &[f64]) -> Self {
        VbpInstance {
            bin_capacity: vec![1.0],
            balls: sizes.iter().map(|&s| vec![s]).collect(),
        }
    }

    /// The §2 example: ball sizes 1%, 49%, 51%, 51% of the bin.
    /// First-fit uses 3 bins, the optimal 2.
    pub fn sec2_example() -> Self {
        VbpInstance::one_dim(&[0.01, 0.49, 0.51, 0.51])
    }

    /// The Fig. 2 instance (17 balls): first-fit uses 9 bins, optimal 8.
    pub fn fig2_example() -> Self {
        VbpInstance::one_dim(&[
            0.3, 0.8, 0.2, 0.4, 0.7, 0.7, 0.15, 0.85, 0.25, 0.25, 0.3, 0.75, 0.75, 0.6, 0.12, 0.4,
            0.4,
        ])
    }

    pub fn num_balls(&self) -> usize {
        self.balls.len()
    }

    pub fn num_dims(&self) -> usize {
        self.bin_capacity.len()
    }

    /// Sanity checks: consistent dimensions, nonnegative finite sizes, and
    /// every ball individually fits a bin.
    pub fn validate(&self) -> Result<(), String> {
        if self.bin_capacity.is_empty() {
            return Err("zero-dimensional bins".into());
        }
        if self
            .bin_capacity
            .iter()
            .any(|c| !c.is_finite() || *c <= 0.0)
        {
            return Err("bin capacities must be positive and finite".into());
        }
        for (i, b) in self.balls.iter().enumerate() {
            if b.len() != self.num_dims() {
                return Err(format!(
                    "ball {i} has {} dims, expected {}",
                    b.len(),
                    self.num_dims()
                ));
            }
            for (d, &s) in b.iter().enumerate() {
                if !s.is_finite() || s < 0.0 {
                    return Err(format!("ball {i} dim {d} size {s}"));
                }
                if s > self.bin_capacity[d] + 1e-12 {
                    return Err(format!(
                        "ball {i} dim {d} size {s} exceeds bin capacity {}",
                        self.bin_capacity[d]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Per-dimension lower bound on the optimal bin count:
    /// `max_d ceil(Σ_i size_i_d / cap_d)` (at least 1 if there are balls).
    pub fn lower_bound(&self) -> usize {
        volume_bound(self.num_balls(), &self.bin_capacity, |i, d| {
            self.balls[i][d]
        })
    }
}

/// A packing: bin index per ball.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packing {
    /// `assignment[i]` = bin of ball `i`.
    pub assignment: Vec<usize>,
    pub bins_used: usize,
}

impl Packing {
    /// Build from an assignment, computing `bins_used` as the number of
    /// distinct bins actually used.
    pub fn from_assignment(assignment: Vec<usize>) -> Self {
        let mut seen = std::collections::BTreeSet::new();
        for &b in &assignment {
            seen.insert(b);
        }
        Packing {
            bins_used: seen.len(),
            assignment,
        }
    }

    /// Check capacity feasibility against an instance.
    pub fn check(&self, inst: &VbpInstance, tol: f64) -> Option<String> {
        if self.assignment.len() != inst.num_balls() {
            return Some(format!(
                "assignment covers {} balls, instance has {}",
                self.assignment.len(),
                inst.num_balls()
            ));
        }
        let max_bin = self.assignment.iter().copied().max().unwrap_or(0);
        let mut load = vec![vec![0.0; inst.num_dims()]; max_bin + 1];
        for (i, &b) in self.assignment.iter().enumerate() {
            for d in 0..inst.num_dims() {
                load[b][d] += inst.balls[i][d];
            }
        }
        for (b, l) in load.iter().enumerate() {
            for d in 0..inst.num_dims() {
                if l[d] > inst.bin_capacity[d] + tol {
                    return Some(format!(
                        "bin {b} dim {d} overloaded: {} > {}",
                        l[d], inst.bin_capacity[d]
                    ));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sec2_example_shape() {
        let inst = VbpInstance::sec2_example();
        inst.validate().unwrap();
        assert_eq!(inst.num_balls(), 4);
        assert_eq!(inst.lower_bound(), 2); // sum = 1.52 -> 2 bins minimum
    }

    #[test]
    fn fig2_example_shape() {
        let inst = VbpInstance::fig2_example();
        inst.validate().unwrap();
        assert_eq!(inst.num_balls(), 17);
        assert_eq!(inst.lower_bound(), 8); // sum = 7.92 -> 8 bins minimum
    }

    #[test]
    fn validation_rejects_oversized_ball() {
        let inst = VbpInstance::one_dim(&[0.5, 1.5]);
        assert!(inst.validate().is_err());
    }

    #[test]
    fn validation_rejects_ragged_dims() {
        let inst = VbpInstance {
            bin_capacity: vec![1.0, 1.0],
            balls: vec![vec![0.5, 0.5], vec![0.5]],
        };
        assert!(inst.validate().is_err());
    }

    #[test]
    fn packing_check_finds_overload() {
        let inst = VbpInstance::one_dim(&[0.6, 0.6]);
        let p = Packing::from_assignment(vec![0, 0]);
        assert!(p.check(&inst, 1e-9).is_some());
        let q = Packing::from_assignment(vec![0, 1]);
        assert!(q.check(&inst, 1e-9).is_none());
        assert_eq!(q.bins_used, 2);
    }

    #[test]
    fn empty_instance() {
        let inst = VbpInstance::one_dim(&[]);
        inst.validate().unwrap();
        assert_eq!(inst.lower_bound(), 0);
    }

    #[test]
    fn multi_dim_lower_bound_takes_max() {
        let inst = VbpInstance {
            bin_capacity: vec![1.0, 1.0],
            balls: vec![vec![0.2, 0.9], vec![0.2, 0.9], vec![0.2, 0.9]],
        };
        // dim 0: 0.6 -> 1 bin; dim 1: 2.7 -> 3 bins.
        assert_eq!(inst.lower_bound(), 3);
    }
}
