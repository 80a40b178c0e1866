//! Exact adversarial analysis of Demand Pinning — the Fig. 1b encoding,
//! flattened to a single MILP.
//!
//! Mirrors MetaOpt's model line by line:
//!
//! * `OuterVar d_k` — demand variables, the adversarial input;
//! * `ForceToZeroIfLeq(d_k − f_p̂k, d_k, T)` — the pinning constraints,
//!   entering the heuristic's max-flow LP as big-M rows gated by the
//!   pinned indicator `p_k = 1[d_k <= T]`;
//! * `MaxFlow()` — the heuristic's inner LP, pinned to *optimality* via
//!   the KKT encoding of [`crate::bilevel`] (the heuristic appears with
//!   negative sign in the gap objective, so feasibility alone would let
//!   the outer problem under-drive it);
//! * the benchmark max-flow appears with positive sign, so primal
//!   feasibility suffices.
//!
//! The result maximizes `OPT(d) − DP(d)` exactly (up to indicator
//! tolerance), and supports the exclusion polytopes of XPlain's
//! iterate-and-exclude loop.

use crate::bilevel::{encode_inner_optimality, InnerLp, InnerRow, KktParams};
use crate::geometry::Polytope;
use crate::helpers::{indicator_leq, GadgetParams};
use crate::search::Adversarial;
use xplain_domains::te::{DemandPinning, TeProblem};
use xplain_lp::{milp, Cmp, LinExpr, LpError, Model, Sense, VarId, VarType};

/// Exact DP analyzer configuration.
#[derive(Debug, Clone)]
pub struct DpMetaOpt {
    pub problem: TeProblem,
    pub threshold: f64,
    pub gadget: GadgetParams,
    pub kkt: KktParams,
}

/// The constructed model plus handles into it.
#[derive(Debug, Clone)]
pub struct DpModel {
    pub model: Model,
    pub demand_vars: Vec<VarId>,
    pub pinned_vars: Vec<VarId>,
    pub heuristic_flows: Vec<Vec<VarId>>,
    pub optimal_flows: Vec<Vec<VarId>>,
}

impl DpMetaOpt {
    pub fn new(problem: TeProblem, threshold: f64) -> Self {
        let cap = problem.demand_cap;
        DpMetaOpt {
            problem,
            threshold,
            gadget: GadgetParams {
                eps: 1e-3,
                // Big-M for pinning: must dominate any |d - f| (≤ cap).
                big_m: 4.0 * cap,
            },
            kkt: KktParams {
                dual_bound: 64.0,
                slack_bound: 64.0 * cap,
                primal_bound: 4.0 * cap,
            },
        }
    }

    /// Build the single-level MILP (Fig. 1b + KKT flattening).
    pub fn build_model(&self, exclusions: &[Polytope]) -> DpModel {
        let p = &self.problem;
        let n = p.num_demands();
        let mut m = Model::new(Sense::Maximize);

        // OuterVar: the demand vector.
        let demand_vars: Vec<VarId> = (0..n)
            .map(|k| {
                m.add_var(
                    format!("d[{}]", p.demand_name(k)),
                    VarType::Continuous,
                    0.0,
                    p.demand_cap,
                )
            })
            .collect();

        // Pinned indicators: p_k = 1[d_k <= T].
        let pinned_vars: Vec<VarId> = (0..n)
            .map(|k| {
                indicator_leq(
                    &mut m,
                    format!("pin[{}]", p.demand_name(k)),
                    LinExpr::term(demand_vars[k], 1.0),
                    self.threshold,
                    self.gadget,
                )
            })
            .collect();

        // Heuristic flows.
        let heuristic_flows: Vec<Vec<VarId>> = (0..n)
            .map(|k| {
                (0..p.paths[k].len())
                    .map(|pp| {
                        m.add_var(
                            format!("fh[{}/{pp}]", p.demand_name(k)),
                            VarType::Continuous,
                            0.0,
                            self.kkt.primal_bound,
                        )
                    })
                    .collect()
            })
            .collect();

        // Inner LP rows: demand limits, link capacities, pinning.
        let mut rows: Vec<InnerRow> = Vec::new();
        let mut inner_vars = Vec::new();
        let mut inner_obj = Vec::new();
        for k in 0..n {
            for &v in &heuristic_flows[k] {
                inner_vars.push(v);
                inner_obj.push(1.0);
            }
            rows.push(InnerRow {
                name: format!("dem[{}]", p.demand_name(k)),
                coeffs: heuristic_flows[k].iter().map(|&v| (v, 1.0)).collect(),
                rhs: LinExpr::term(demand_vars[k], 1.0),
            });
        }
        for (l, link) in p.topology.links.iter().enumerate() {
            let mut coeffs = Vec::new();
            for (k, paths) in p.paths.iter().enumerate() {
                for (pp, path) in paths.iter().enumerate() {
                    if path.links.contains(&l) {
                        coeffs.push((heuristic_flows[k][pp], 1.0));
                    }
                }
            }
            if !coeffs.is_empty() {
                rows.push(InnerRow {
                    name: format!("cap[{}]", p.topology.link_name(l)),
                    coeffs,
                    rhs: LinExpr::constant(link.capacity),
                });
            }
        }
        // Pinning rows: f_sp >= d_k - M (1 - p_k), i.e.
        // -f_sp <= -d_k + M - M p_k.
        let big_m = self.gadget.big_m;
        for k in 0..n {
            let mut rhs = LinExpr::term(demand_vars[k], -1.0);
            rhs.add_constant(big_m);
            rhs.add_term(pinned_vars[k], -big_m);
            rows.push(InnerRow {
                name: format!("pin[{}]", p.demand_name(k)),
                coeffs: vec![(heuristic_flows[k][0], -1.0)],
                rhs,
            });
        }
        let inner = InnerLp {
            vars: inner_vars,
            objective: inner_obj,
            rows,
        };
        encode_inner_optimality(&mut m, "dp", &inner, self.kkt);

        // Benchmark flows: primal feasibility only.
        let optimal_flows: Vec<Vec<VarId>> = (0..n)
            .map(|k| {
                (0..p.paths[k].len())
                    .map(|pp| {
                        m.add_var(
                            format!("fo[{}/{pp}]", p.demand_name(k)),
                            VarType::Continuous,
                            0.0,
                            self.kkt.primal_bound,
                        )
                    })
                    .collect()
            })
            .collect();
        for k in 0..n {
            m.add_constr(
                format!("opt_dem[{}]", p.demand_name(k)),
                LinExpr::sum(optimal_flows[k].iter().copied()) - LinExpr::term(demand_vars[k], 1.0),
                Cmp::Le,
                0.0,
            );
        }
        for (l, link) in p.topology.links.iter().enumerate() {
            let mut e = LinExpr::new();
            for (k, paths) in p.paths.iter().enumerate() {
                for (pp, path) in paths.iter().enumerate() {
                    if path.links.contains(&l) {
                        e.add_term(optimal_flows[k][pp], 1.0);
                    }
                }
            }
            if !e.is_empty() {
                m.add_constr(
                    format!("opt_cap[{}]", p.topology.link_name(l)),
                    e,
                    Cmp::Le,
                    link.capacity,
                );
            }
        }

        // Exclusion polytopes: the input must violate at least one
        // half-space of every excluded region.
        add_exclusions(
            &mut m,
            &demand_vars,
            exclusions,
            p.demand_cap,
            self.gadget.eps,
        );

        // Objective: the performance gap.
        let mut obj = LinExpr::new();
        for k in 0..n {
            for &v in &optimal_flows[k] {
                obj.add_term(v, 1.0);
            }
            for &v in &heuristic_flows[k] {
                obj.add_term(v, -1.0);
            }
        }
        m.set_objective(obj);

        DpModel {
            model: m,
            demand_vars,
            pinned_vars,
            heuristic_flows,
            optimal_flows,
        }
    }

    /// Solve for the adversarial demand vector.
    pub fn find_adversarial(&self, exclusions: &[Polytope]) -> Result<Adversarial, LpError> {
        let built = self.build_model(exclusions);
        let sol = milp::solve(&built.model)?;
        let input: Vec<f64> = built.demand_vars.iter().map(|&v| sol.value(v)).collect();
        Ok(Adversarial {
            gap: sol.objective,
            input,
        })
    }

    /// Recompute the gap at `input` by direct simulation (sanity check for
    /// the MILP encoding).
    pub fn simulate_gap(&self, input: &[f64]) -> f64 {
        DemandPinning::new(self.threshold)
            .gap(&self.problem, input)
            .unwrap_or(f64::NEG_INFINITY)
    }
}

/// Shared exclusion encoding: for each polytope, at least one half-space
/// must be violated by margin `eps`.
pub(crate) fn add_exclusions(
    m: &mut Model,
    input_vars: &[VarId],
    exclusions: &[Polytope],
    input_scale: f64,
    eps: f64,
) {
    for (b, poly) in exclusions.iter().enumerate() {
        if poly.halfspaces.is_empty() {
            continue;
        }
        let mut violated = Vec::with_capacity(poly.halfspaces.len());
        for (h_ix, h) in poly.halfspaces.iter().enumerate() {
            let o = m.add_binary(format!("excl[{b}/{h_ix}]"));
            // o = 1 -> a·x >= rhs + eps:  a·x >= rhs + eps - M(1-o)
            let norm: f64 = h.coeffs.iter().map(|c| c.abs()).sum::<f64>();
            let big = norm * input_scale + h.rhs.abs() + eps + 1.0;
            let mut e = LinExpr::new();
            for (d, &c) in h.coeffs.iter().enumerate() {
                if let Some(&v) = input_vars.get(d) {
                    e.add_term(v, c);
                }
            }
            e.add_term(o, -big);
            m.add_constr(
                format!("excl_hs[{b}/{h_ix}]"),
                e,
                Cmp::Ge,
                h.rhs + eps - big,
            );
            violated.push(o);
        }
        m.add_constr(
            format!("excl_any[{b}]"),
            LinExpr::sum(violated),
            Cmp::Ge,
            1.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact analyzer must find the Fig. 1a gap of 100 and agree with
    /// the simulation at its own adversarial point.
    #[test]
    fn finds_the_fig1a_gap_exactly() {
        let analyzer = DpMetaOpt::new(TeProblem::fig1a(), 50.0);
        let adv = analyzer.find_adversarial(&[]).expect("solvable");
        assert!(
            (adv.gap - 100.0).abs() < 1.0,
            "expected gap 100, got {}",
            adv.gap
        );
        let sim = analyzer.simulate_gap(&adv.input);
        assert!(
            (sim - adv.gap).abs() < 1.0,
            "model gap {} vs simulated {}",
            adv.gap,
            sim
        );
        // The pinnable demand sits at/below the threshold.
        assert!(adv.input[0] <= 50.0 + 1e-6, "{:?}", adv.input);
    }

    #[test]
    fn zero_threshold_means_zero_gap() {
        // With T = 0 nothing (except zero demands) is pinned: DP == OPT.
        let analyzer = DpMetaOpt::new(TeProblem::fig1a(), 0.0);
        let adv = analyzer.find_adversarial(&[]).expect("solvable");
        assert!(adv.gap < 1.0, "gap should vanish, got {}", adv.gap);
    }

    #[test]
    fn exclusion_forces_different_region() {
        let analyzer = DpMetaOpt::new(TeProblem::fig1a(), 50.0);
        let first = analyzer.find_adversarial(&[]).unwrap();
        // Exclude a generous box around the first adversarial input.
        let lo: Vec<f64> = first.input.iter().map(|v| (v - 20.0).max(0.0)).collect();
        let hi: Vec<f64> = first.input.iter().map(|v| (v + 20.0).min(100.0)).collect();
        let excl = Polytope::from_box(&lo, &hi);
        let second = analyzer
            .find_adversarial(std::slice::from_ref(&excl))
            .unwrap();
        assert!(
            !excl.contains(&second.input, 1e-6),
            "second point {:?} still inside exclusion",
            second.input
        );
        // Gap outside the best region can't beat the global optimum.
        assert!(second.gap <= first.gap + 1.0);
    }
}
