//! Exact adversarial analysis of first-fit bin packing — the Fig. 1c
//! encoding.
//!
//! FF is a deterministic *function* of the ball sizes, so — unlike DP's
//! max-flow — it needs no KKT rewriting: the Fig. 1c constraint system
//! (`r`, `f = AllLeq`, `γ = AllEq`, `α = AND`, `IfThenElse`) pins the
//! heuristic's decisions uniquely. The benchmark (optimal packing)
//! appears with negative sign in the gap, and since it is a minimization,
//! primal feasibility of *some* packing suffices — maximizing the gap
//! drives it to the true optimum.
//!
//! The §2 setting: one-dimensional balls, `n_bins` equal bins; MetaOpt
//! "produces the adversarial ball sizes 1%, 49%, 51%, 51% … for an example
//! with 4 balls and 3 equal-sized bins".

use crate::dp_metaopt::add_exclusions;
use crate::geometry::Polytope;
use crate::helpers::{all_eq, all_leq, and, if_then_else, GadgetParams};
use crate::search::Adversarial;
use xplain_domains::vbp::{first_fit, optimal, VbpInstance};
use xplain_lp::{milp, Cmp, LinExpr, LpError, Model, Sense, VarId, VarType};

/// Exact FF analyzer configuration.
#[derive(Debug, Clone)]
pub struct FfMetaOpt {
    pub n_balls: usize,
    pub n_bins: usize,
    pub capacity: f64,
    /// Smallest admissible ball size (1% of the bin in the paper).
    pub min_size: f64,
    pub gadget: GadgetParams,
}

/// Handles into the constructed model.
#[derive(Debug, Clone)]
pub struct FfModel {
    pub model: Model,
    pub size_vars: Vec<VarId>,
    /// `x[i][j]` — flow of ball `i` into bin `j` (only `j <= i` exist).
    pub x_vars: Vec<Vec<VarId>>,
    /// `alpha[i][j]` — FF places ball `i` in bin `j`.
    pub alpha_vars: Vec<Vec<VarId>>,
    pub ff_used: Vec<VarId>,
    pub opt_used: Vec<VarId>,
}

impl FfMetaOpt {
    /// The paper's §2 instance shape: 4 balls, 3 unit bins, 1% minimum.
    pub fn sec2() -> Self {
        FfMetaOpt::new(4, 3)
    }

    pub fn new(n_balls: usize, n_bins: usize) -> Self {
        FfMetaOpt {
            n_balls,
            n_bins,
            capacity: 1.0,
            min_size: 0.01,
            gadget: GadgetParams {
                eps: 5e-3,
                big_m: 4.0,
            },
        }
    }

    /// Bins ball `i` may use under the `j <= i` symmetry/feasibility cut.
    fn bins_for(&self, i: usize) -> usize {
        self.n_bins.min(i + 1)
    }

    /// Build the gap-maximization MILP.
    pub fn build_model(&self, exclusions: &[Polytope]) -> FfModel {
        let g = self.gadget;
        let cap = self.capacity;
        let mut m = Model::new(Sense::Maximize);

        // OuterVar Y: ball sizes.
        let size_vars: Vec<VarId> = (0..self.n_balls)
            .map(|i| m.add_var(format!("Y[{i}]"), VarType::Continuous, self.min_size, cap))
            .collect();

        // --- Heuristic (FF) side: Fig. 1c verbatim -----------------------
        let mut x_vars: Vec<Vec<VarId>> = Vec::with_capacity(self.n_balls);
        let mut alpha_vars: Vec<Vec<VarId>> = Vec::with_capacity(self.n_balls);
        for i in 0..self.n_balls {
            let nj = self.bins_for(i);
            let xs: Vec<VarId> = (0..nj)
                .map(|j| m.add_var(format!("x[{i},{j}]"), VarType::Continuous, 0.0, cap))
                .collect();
            let mut alphas = Vec::with_capacity(nj);
            for j in 0..nj {
                // r_ij = C - Y_i - Σ_{u<i, j<=u bins} x_uj
                // fits f_ij = AllLeq([-r_ij], 0) = 1[Y_i + Σ x_uj - C <= 0]
                let mut load = LinExpr::term(size_vars[i], 1.0);
                for (u, xu) in x_vars.iter().enumerate().take(i) {
                    if j < self.bins_for(u) {
                        load.add_term(xu[j], 1.0);
                    }
                }
                let fits = all_leq(&mut m, format!("fits[{i},{j}]"), &[load - cap], 0.0, g);
                // γ_ij = AllEq([x_ik]_{k<j}, 0): not placed earlier.
                let earlier: Vec<LinExpr> = (0..j).map(|k| LinExpr::term(xs[k], 1.0)).collect();
                let alpha = if earlier.is_empty() {
                    fits // first bin: α = fits
                } else {
                    let gamma = all_eq(&mut m, format!("gamma[{i},{j}]"), &earlier, 0.0, g);
                    and(&mut m, format!("alpha[{i},{j}]"), &[fits, gamma])
                };
                // IfThenElse(α, x_ij = Y_i, x_ij = 0).
                if_then_else(
                    &mut m,
                    format!("place[{i},{j}]"),
                    alpha,
                    &[(xs[j], LinExpr::term(size_vars[i], 1.0))],
                    &[(xs[j], LinExpr::constant(0.0))],
                    g,
                );
                alphas.push(alpha);
            }
            // FF must place every ball (enough bins by construction).
            m.add_constr(
                format!("placed[{i}]"),
                LinExpr::sum(alphas.iter().copied()),
                Cmp::Eq,
                1.0,
            );
            x_vars.push(xs);
            alpha_vars.push(alphas);
        }

        // FF bin-used indicators.
        let ff_used: Vec<VarId> = (0..self.n_bins)
            .map(|j| m.add_binary(format!("ff_used[{j}]")))
            .collect();
        for j in 0..self.n_bins {
            let mut any = LinExpr::new();
            for (i, alphas) in alpha_vars.iter().enumerate() {
                if j < self.bins_for(i) {
                    m.add_constr(
                        format!("ff_used_ge[{j}/{i}]"),
                        LinExpr::term(alpha_vars[i][j], 1.0) - ff_used[j],
                        Cmp::Le,
                        0.0,
                    );
                    any.add_term(alphas[j], 1.0);
                }
            }
            any.add_term(ff_used[j], -1.0);
            m.add_constr(format!("ff_used_le[{j}]"), any, Cmp::Ge, 0.0);
        }

        // --- Benchmark (optimal packing) side ----------------------------
        // o[i][j] assignment binaries with the same j <= i cut,
        // w[i][j] = Y_i * o[i][j] McCormick-linearized.
        let mut o_vars: Vec<Vec<VarId>> = Vec::with_capacity(self.n_balls);
        let mut w_vars: Vec<Vec<VarId>> = Vec::with_capacity(self.n_balls);
        for i in 0..self.n_balls {
            let nj = self.bins_for(i);
            let os: Vec<VarId> = (0..nj)
                .map(|j| m.add_binary(format!("o[{i},{j}]")))
                .collect();
            let ws: Vec<VarId> = (0..nj)
                .map(|j| m.add_var(format!("w[{i},{j}]"), VarType::Continuous, 0.0, cap))
                .collect();
            m.add_constr(
                format!("opt_place[{i}]"),
                LinExpr::sum(os.iter().copied()),
                Cmp::Eq,
                1.0,
            );
            for j in 0..nj {
                // w = Y * o: w <= C o; w <= Y; w >= Y - C(1 - o); w >= 0.
                m.add_constr(
                    format!("mc1[{i},{j}]"),
                    LinExpr::term(ws[j], 1.0) - LinExpr::term(os[j], cap),
                    Cmp::Le,
                    0.0,
                );
                m.add_constr(
                    format!("mc2[{i},{j}]"),
                    LinExpr::term(ws[j], 1.0) - size_vars[i],
                    Cmp::Le,
                    0.0,
                );
                m.add_constr(
                    format!("mc3[{i},{j}]"),
                    LinExpr::term(ws[j], 1.0) - size_vars[i] - LinExpr::term(os[j], cap),
                    Cmp::Ge,
                    -cap,
                );
            }
            o_vars.push(os);
            w_vars.push(ws);
        }
        let opt_used: Vec<VarId> = (0..self.n_bins)
            .map(|j| m.add_binary(format!("opt_used[{j}]")))
            .collect();
        for j in 0..self.n_bins {
            let mut load = LinExpr::new();
            for i in 0..self.n_balls {
                if j < self.bins_for(i) {
                    load.add_term(w_vars[i][j], 1.0);
                    m.add_constr(
                        format!("opt_used_ge[{j}/{i}]"),
                        LinExpr::term(o_vars[i][j], 1.0) - opt_used[j],
                        Cmp::Le,
                        0.0,
                    );
                }
            }
            m.add_constr(format!("opt_cap[{j}]"), load, Cmp::Le, cap);
            // Symmetry: used bins are contiguous.
            if j + 1 < self.n_bins {
                m.add_constr(
                    format!("opt_sym[{j}]"),
                    LinExpr::term(opt_used[j + 1], 1.0) - opt_used[j],
                    Cmp::Le,
                    0.0,
                );
            }
        }

        add_exclusions(&mut m, &size_vars, exclusions, cap, g.eps);

        // Objective: FF bins − OPT bins.
        let mut obj = LinExpr::new();
        for &u in &ff_used {
            obj.add_term(u, 1.0);
        }
        for &v in &opt_used {
            obj.add_term(v, -1.0);
        }
        m.set_objective(obj);

        FfModel {
            model: m,
            size_vars,
            x_vars,
            alpha_vars,
            ff_used,
            opt_used,
        }
    }

    /// Solve for the adversarial ball sizes.
    pub fn find_adversarial(&self, exclusions: &[Polytope]) -> Result<Adversarial, LpError> {
        let built = self.build_model(exclusions);
        let sol = milp::solve(&built.model)?;
        let input: Vec<f64> = built.size_vars.iter().map(|&v| sol.value(v)).collect();
        Ok(Adversarial {
            gap: sol.objective,
            input,
        })
    }

    /// Recompute the gap at `input` by direct simulation.
    pub fn simulate_gap(&self, input: &[f64]) -> f64 {
        let inst = VbpInstance {
            bin_capacity: vec![self.capacity],
            balls: input.iter().map(|&s| vec![s]).collect(),
        };
        first_fit(&inst).bins_used as f64 - optimal(&inst).bins_used as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// §2's exact result: 4 balls / 3 bins — MetaOpt finds a gap of 1 bin
    /// (FF 3, OPT 2) with the small-filler pattern.
    #[test]
    fn sec2_gap_of_one_bin() {
        let analyzer = FfMetaOpt::sec2();
        let adv = analyzer.find_adversarial(&[]).expect("solvable");
        assert!(
            (adv.gap - 1.0).abs() < 1e-6,
            "expected gap 1 bin, got {}",
            adv.gap
        );
        // The MILP's decisions must match the real heuristic at its own
        // adversarial point (up to indicator-tolerance boundary cases).
        let sim = analyzer.simulate_gap(&adv.input);
        assert!(
            (sim - adv.gap).abs() < 0.5,
            "model gap {} vs simulated {} at {:?}",
            adv.gap,
            sim,
            adv.input
        );
    }

    #[test]
    fn two_balls_cannot_gap() {
        // With 2 balls, FF is optimal (any pair either shares or can't).
        let analyzer = FfMetaOpt::new(2, 2);
        let adv = analyzer.find_adversarial(&[]).expect("solvable");
        assert!(adv.gap < 0.5, "gap should be 0, got {}", adv.gap);
    }

    #[test]
    fn exclusion_respected() {
        let analyzer = FfMetaOpt::sec2();
        let first = analyzer.find_adversarial(&[]).unwrap();
        let lo: Vec<f64> = first.input.iter().map(|v| (v - 0.05).max(0.0)).collect();
        let hi: Vec<f64> = first.input.iter().map(|v| (v + 0.05).min(1.0)).collect();
        let excl = Polytope::from_box(&lo, &hi);
        if let Ok(second) = analyzer.find_adversarial(std::slice::from_ref(&excl)) {
            assert!(
                !excl.contains(&second.input, 1e-9),
                "{:?} inside exclusion",
                second.input
            );
        }
    }
}
