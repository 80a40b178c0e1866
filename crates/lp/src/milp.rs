//! Branch-and-bound MILP solver on top of the simplex.
//!
//! Best-first search ordered by the LP relaxation bound, branching on the
//! most fractional integer variable. Two things make it fast enough for
//! the MetaOpt-style encodings XPlain generates:
//!
//! * **One prepared LP.** The root relaxation is standardized once into a
//!   [`Prepared`]; each node stores only its bound overrides, applied as
//!   deltas before the node's LP and undone after — no per-node model
//!   clone and no per-node re-standardization.
//! * **Warm starts.** All nodes share one [`SolverSession`]: a child's LP
//!   differs from its parent's only in one variable bound, so the cached
//!   factorization stays valid and a few dual simplex steps replace a
//!   cold phase-1 solve.
//!
//! [`Backend::Reference`] swaps the per-node LP for the reference tableau
//! solver (cold every node) — the baseline of the `solver_speed` B&B
//! replay gate and the differential MILP tests.

use crate::counters;
use crate::error::LpError;
use crate::model::{Model, Sense, Solution, VarType};
use crate::revised::{Prepared, SolverSession, SolverStats};
use crate::simplex;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which LP solver runs at each node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Revised simplex, one warm-started session across all nodes.
    Revised,
    /// Reference tableau solver, cold at every node (benchmark baseline).
    Reference,
}

/// Work counters for one branch-and-bound run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MilpStats {
    /// Nodes popped from the queue (including pruned ones).
    pub nodes: u64,
    /// LP effort across all node relaxations.
    pub lp: SolverStats,
}

/// What happened to one popped node (exposed for the exploration-order
/// regression tests; not a stable API).
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTrace {
    /// The node's accumulated `(var, lo, hi)` overrides.
    pub bounds: Vec<(usize, f64, f64)>,
    pub event: NodeEvent,
}

#[doc(hidden)]
#[derive(Debug, Clone, PartialEq)]
pub enum NodeEvent {
    PrunedByBound,
    EmptyDomain,
    LpInfeasible,
    PrunedAfterLp,
    Integral { objective: f64 },
    Branched { var: usize, objective: f64 },
}

/// A pending node: variable-bound overrides plus the parent's bound.
struct Node {
    /// (var index, lo, hi) overrides accumulated along the branch.
    bounds: Vec<(usize, f64, f64)>,
    /// LP bound inherited from the parent (optimistic).
    bound: f64,
    sense: Sense,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: the "largest" node should be the most
        // promising bound (largest for max, smallest for min).
        let ord = self
            .bound
            .partial_cmp(&other.bound)
            .unwrap_or(Ordering::Equal);
        match self.sense {
            Sense::Maximize => ord,
            Sense::Minimize => ord.reverse(),
        }
    }
}

/// Apply `bounds` onto `scratch`, recording undo entries. Returns `false`
/// (with everything already rolled back) when the intersection is empty.
fn apply_bounds(
    scratch: &mut Model,
    bounds: &[(usize, f64, f64)],
    undo: &mut Vec<(usize, f64, f64)>,
) -> bool {
    undo.clear();
    for &(ix, lo, hi) in bounds {
        let v = crate::VarId::from_index(ix);
        let (cur_lo, cur_hi) = scratch.var_bounds(v);
        undo.push((ix, cur_lo, cur_hi));
        let nlo = cur_lo.max(lo);
        let nhi = cur_hi.min(hi);
        if nlo > nhi {
            restore_bounds(scratch, undo);
            return false;
        }
        scratch.set_var_bounds(v, nlo, nhi);
    }
    true
}

/// Undo [`apply_bounds`] (reverse order: a variable may appear twice).
fn restore_bounds(scratch: &mut Model, undo: &mut Vec<(usize, f64, f64)>) {
    while let Some((ix, lo, hi)) = undo.pop() {
        scratch.set_var_bounds(crate::VarId::from_index(ix), lo, hi);
    }
}

/// [`apply_bounds`], but as deltas on the prepared (already standardized)
/// root relaxation — the hot path of [`Backend::Revised`]. Must mirror the
/// model-space version exactly: same intersection, same empty-domain check,
/// same undo discipline (pinned by `delta_and_clone_node_orders_match`).
fn apply_bounds_prepared(
    prep: &mut Prepared,
    bounds: &[(usize, f64, f64)],
    undo: &mut Vec<(usize, f64, f64)>,
) -> bool {
    undo.clear();
    for &(ix, lo, hi) in bounds {
        let v = crate::VarId::from_index(ix);
        let (cur_lo, cur_hi) = prep.var_bounds(v);
        undo.push((ix, cur_lo, cur_hi));
        let nlo = cur_lo.max(lo);
        let nhi = cur_hi.min(hi);
        if nlo > nhi {
            restore_bounds_prepared(prep, undo);
            return false;
        }
        prep.set_var_bounds(v, nlo, nhi);
    }
    true
}

/// Undo [`apply_bounds_prepared`] (reverse order).
fn restore_bounds_prepared(prep: &mut Prepared, undo: &mut Vec<(usize, f64, f64)>) {
    while let Some((ix, lo, hi)) = undo.pop() {
        prep.set_var_bounds(crate::VarId::from_index(ix), lo, hi);
    }
}

/// Solve a mixed-integer model exactly by branch and bound.
pub fn solve(model: &Model) -> Result<Solution, LpError> {
    solve_with(model, Backend::Revised).map(|(sol, _)| sol)
}

/// [`solve`] plus work counters (node count, LP effort).
pub fn solve_with(model: &Model, backend: Backend) -> Result<(Solution, MilpStats), LpError> {
    let mut session = SolverSession::new();
    solve_inner(model, backend, false, None, &mut session)
}

/// Test hook: `clone_per_node` re-clones the scratch model at every node
/// (the pre-warm-start behavior) instead of applying bound deltas. Both
/// modes must produce identical traces — pinned by a regression test.
#[doc(hidden)]
pub fn solve_traced(
    model: &Model,
    backend: Backend,
    clone_per_node: bool,
) -> (Result<(Solution, MilpStats), LpError>, Vec<NodeTrace>) {
    let mut trace = Vec::new();
    let mut session = SolverSession::new();
    let out = solve_inner(
        model,
        backend,
        clone_per_node,
        Some(&mut trace),
        &mut session,
    );
    (out, trace)
}

fn solve_inner(
    model: &Model,
    backend: Backend,
    clone_per_node: bool,
    mut trace: Option<&mut Vec<NodeTrace>>,
    session: &mut SolverSession,
) -> Result<(Solution, MilpStats), LpError> {
    model.validate()?;
    let opts = model.options().clone();
    let int_vars: Vec<usize> = (0..model.num_vars())
        .filter(|&i| {
            matches!(
                model.var_type(crate::VarId::from_index(i)),
                VarType::Integer | VarType::Binary
            )
        })
        .collect();

    let sense = model.sense();
    let mut incumbent: Option<Solution> = None;
    let mut incumbent_obj = sense.worst();

    let mut heap = BinaryHeap::new();
    heap.push(Node {
        bounds: Vec::new(),
        bound: match sense {
            Sense::Maximize => f64::INFINITY,
            Sense::Minimize => f64::NEG_INFINITY,
        },
        sense,
    });

    let mut stats = MilpStats::default();
    let lp_before = session.stats;
    // Hot path: the root relaxation is standardized exactly once and every
    // node re-solves it through bound deltas. The reference backend and the
    // legacy clone-per-node test mode still route through a scratch `Model`.
    let use_prepared = backend == Backend::Revised && !clone_per_node;
    let mut prep = if use_prepared {
        Some(Prepared::new(model)?)
    } else {
        None
    };
    let mut scratch = if use_prepared {
        None
    } else {
        Some(model.clone())
    };
    let mut undo: Vec<(usize, f64, f64)> = Vec::new();

    let record = |trace: &mut Option<&mut Vec<NodeTrace>>, node: &Node, event: NodeEvent| {
        if let Some(t) = trace {
            t.push(NodeTrace {
                bounds: node.bounds.clone(),
                event,
            });
        }
    };

    while let Some(node) = heap.pop() {
        stats.nodes += 1;
        counters::record_bb_node();
        if stats.nodes as usize > opts.max_nodes {
            stats.lp.absorb(&session.stats.diff(&lp_before));
            return incumbent.map(|s| (s, stats)).ok_or(LpError::NodeLimit {
                nodes: stats.nodes as usize,
            });
        }

        // Bound-based pruning against the incumbent.
        if incumbent.is_some() && !sense.better(node.bound, incumbent_obj, opts.opt_tol) {
            record(&mut trace, &node, NodeEvent::PrunedByBound);
            continue;
        }

        // Apply the branch bounds as deltas (prepared LP or scratch model),
        // or — in the legacy test mode — rebuild the scratch from the
        // original; then solve the node relaxation.
        let relax = if let Some(prep) = prep.as_mut() {
            if !apply_bounds_prepared(prep, &node.bounds, &mut undo) {
                record(&mut trace, &node, NodeEvent::EmptyDomain);
                continue;
            }
            let r = session.solve_prepared(prep);
            restore_bounds_prepared(prep, &mut undo);
            r
        } else {
            let scratch = scratch.as_mut().expect("scratch exists when not prepared");
            if clone_per_node {
                scratch.clone_from(model);
            }
            if !apply_bounds(scratch, &node.bounds, &mut undo) {
                record(&mut trace, &node, NodeEvent::EmptyDomain);
                continue;
            }
            let r = match backend {
                Backend::Revised => session.solve_unchecked(scratch),
                Backend::Reference => {
                    stats.lp.solves += 1;
                    stats.lp.cold_starts += 1;
                    simplex::reference::solve(scratch)
                }
            };
            if !clone_per_node {
                restore_bounds(scratch, &mut undo);
            }
            r
        };
        let relax = match relax {
            Ok(s) => s,
            Err(LpError::Infeasible) => {
                record(&mut trace, &node, NodeEvent::LpInfeasible);
                continue;
            }
            Err(LpError::Unbounded) => return Err(LpError::Unbounded),
            Err(e) => return Err(e),
        };

        if incumbent.is_some() && !sense.better(relax.objective, incumbent_obj, opts.opt_tol) {
            record(&mut trace, &node, NodeEvent::PrunedAfterLp);
            continue;
        }

        // Find the most fractional integer variable.
        let mut branch_var: Option<usize> = None;
        let mut worst_frac = opts.int_tol;
        for &ix in &int_vars {
            let v = relax.values[ix];
            let frac = (v - v.round()).abs();
            if frac > worst_frac {
                worst_frac = frac;
                branch_var = Some(ix);
            }
        }

        match branch_var {
            None => {
                // Integral: snap and accept as incumbent if better.
                let mut vals = relax.values.clone();
                for &ix in &int_vars {
                    vals[ix] = vals[ix].round();
                }
                let obj = model.objective().eval(&vals);
                record(&mut trace, &node, NodeEvent::Integral { objective: obj });
                if incumbent.is_none() || sense.better(obj, incumbent_obj, opts.opt_tol) {
                    incumbent_obj = obj;
                    incumbent = Some(Solution {
                        objective: obj,
                        values: vals,
                    });
                }
            }
            Some(ix) => {
                record(
                    &mut trace,
                    &node,
                    NodeEvent::Branched {
                        var: ix,
                        objective: relax.objective,
                    },
                );
                let v = relax.values[ix];
                let floor = v.floor();
                let mut down = node.bounds.clone();
                down.push((ix, f64::NEG_INFINITY, floor));
                heap.push(Node {
                    bounds: down,
                    bound: relax.objective,
                    sense,
                });
                let mut up = node.bounds.clone();
                up.push((ix, floor + 1.0, f64::INFINITY));
                heap.push(Node {
                    bounds: up,
                    bound: relax.objective,
                    sense,
                });
            }
        }
    }

    stats.lp.absorb(&session.stats.diff(&lp_before));
    incumbent.map(|s| (s, stats)).ok_or(LpError::Infeasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, LinExpr, LpError, Model, Sense, VarType};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn knapsack_small() {
        // values [10, 13, 7], weights [3, 4, 2], cap 6 -> take 2 & 3: 20
        let mut m = Model::new(Sense::Maximize);
        let x: Vec<_> = (0..3).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.add_constr("cap", x[0] * 3.0 + x[1] * 4.0 + x[2] * 2.0, Cmp::Le, 6.0);
        m.set_objective(x[0] * 10.0 + x[1] * 13.0 + x[2] * 7.0);
        let s = m.solve().unwrap();
        assert_close(s.objective, 20.0);
        assert_close(s.value(x[0]), 0.0);
        assert_close(s.value(x[1]), 1.0);
        assert_close(s.value(x[2]), 1.0);
    }

    #[test]
    fn integer_rounding_not_lp_rounding() {
        // max x + y s.t. 2x + 2y <= 3, integers: LP gives 1.5, MILP 1.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarType::Integer, 0.0, 10.0);
        let y = m.add_var("y", VarType::Integer, 0.0, 10.0);
        m.add_constr("c", x * 2.0 + y * 2.0, Cmp::Le, 3.0);
        m.set_objective(x + y);
        let s = m.solve().unwrap();
        assert_close(s.objective, 1.0);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 2b + x, x <= 1.5, b binary, x + b <= 2 -> b=1, x=1: 3
        let mut m = Model::new(Sense::Maximize);
        let b = m.add_binary("b");
        let x = m.add_var("x", VarType::Continuous, 0.0, 1.5);
        m.add_constr("c", x + b, Cmp::Le, 2.0);
        m.set_objective(b * 2.0 + x);
        let s = m.solve().unwrap();
        assert_close(s.objective, 3.0);
        assert_close(s.value(b), 1.0);
    }

    #[test]
    fn milp_infeasible() {
        let mut m = Model::new(Sense::Maximize);
        let b = m.add_binary("b");
        m.add_constr("c", b + 0.0, Cmp::Ge, 2.0);
        m.set_objective(b + 0.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn minimize_bin_count_toy() {
        // Cover demand 3 with bins of size 2: need 2 bins.
        let mut m = Model::new(Sense::Minimize);
        let b: Vec<_> = (0..4).map(|i| m.add_binary(format!("b{i}"))).collect();
        let mut cover = LinExpr::new();
        for &bi in &b {
            cover.add_term(bi, 2.0);
        }
        m.add_constr("cover", cover, Cmp::Ge, 3.0);
        m.set_objective(LinExpr::sum(b.iter().copied()));
        let s = m.solve().unwrap();
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn branching_respects_existing_bounds() {
        // Integer var in [2, 5], maximize -> 5.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarType::Integer, 2.0, 5.0);
        m.add_constr("c", x * 2.0, Cmp::Le, 11.0); // x <= 5.5
        m.set_objective(x + 0.0);
        let s = m.solve().unwrap();
        assert_close(s.objective, 5.0);
    }

    #[test]
    fn equality_with_binaries() {
        // b0 + b1 + b2 = 2, maximize b0*5 + b1*1 + b2*3 -> b0, b2: 8
        let mut m = Model::new(Sense::Maximize);
        let b: Vec<_> = (0..3).map(|i| m.add_binary(format!("b{i}"))).collect();
        m.add_constr("eq", LinExpr::sum(b.iter().copied()), Cmp::Eq, 2.0);
        m.set_objective(b[0] * 5.0 + b[1] * 1.0 + b[2] * 3.0);
        let s = m.solve().unwrap();
        assert_close(s.objective, 8.0);
    }

    #[test]
    fn big_m_indicator_pattern() {
        // y <= M*b; maximize y - 0.5 b with y <= 3: b=1, y=3 -> 2.5
        let mut m = Model::new(Sense::Maximize);
        let b = m.add_binary("b");
        let y = m.add_var("y", VarType::Continuous, 0.0, 3.0);
        m.add_constr("ind", LinExpr::term(y, 1.0) - b * 100.0, Cmp::Le, 0.0);
        m.set_objective(LinExpr::term(y, 1.0) - b * 0.5);
        let s = m.solve().unwrap();
        assert_close(s.objective, 2.5);
    }

    #[test]
    fn all_integral_lp_short_circuits() {
        // LP relaxation already integral.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarType::Integer, 0.0, 4.0);
        m.set_objective(x + 0.0);
        let s = m.solve().unwrap();
        assert_close(s.objective, 4.0);
    }

    #[test]
    fn larger_knapsack_matches_brute_force() {
        let values = [12.0, 7.0, 9.0, 15.0, 5.0, 11.0, 3.0, 8.0];
        let weights = [4.0, 3.0, 5.0, 7.0, 2.0, 6.0, 1.0, 4.0];
        let cap = 14.0;
        let n = values.len();

        let mut m = Model::new(Sense::Maximize);
        let x: Vec<_> = (0..n).map(|i| m.add_binary(format!("x{i}"))).collect();
        let mut w = LinExpr::new();
        let mut obj = LinExpr::new();
        for i in 0..n {
            w.add_term(x[i], weights[i]);
            obj.add_term(x[i], values[i]);
        }
        m.add_constr("cap", w, Cmp::Le, cap);
        m.set_objective(obj);
        let s = m.solve().unwrap();

        let mut best = 0.0f64;
        for mask in 0u32..(1 << n) {
            let (mut tw, mut tv) = (0.0, 0.0);
            for i in 0..n {
                if mask >> i & 1 == 1 {
                    tw += weights[i];
                    tv += values[i];
                }
            }
            if tw <= cap {
                best = best.max(tv);
            }
        }
        assert_close(s.objective, best);
    }

    #[test]
    fn stats_report_nodes_and_warm_hits() {
        let mut m = Model::new(Sense::Maximize);
        let x: Vec<_> = (0..6).map(|i| m.add_binary(format!("x{i}"))).collect();
        let mut w = LinExpr::new();
        let mut obj = LinExpr::new();
        for (i, &v) in x.iter().enumerate() {
            w.add_term(v, 1.0 + (i % 3) as f64);
            obj.add_term(v, 2.0 + ((i * 7) % 5) as f64);
        }
        m.add_constr("cap", w, Cmp::Le, 6.5);
        m.set_objective(obj);
        let (sol, stats) = solve_with(&m, Backend::Revised).unwrap();
        let (ref_sol, ref_stats) = solve_with(&m, Backend::Reference).unwrap();
        assert_close(sol.objective, ref_sol.objective);
        assert!(stats.nodes >= 3, "{stats:?}");
        // Every node after the root re-solves warm: exactly one cold start.
        assert_eq!(stats.lp.cold_starts, 1, "{stats:?}");
        assert_eq!(stats.lp.warm_hits + 1, stats.lp.solves, "{stats:?}");
        // The reference backend is cold at every node.
        assert_eq!(ref_stats.lp.cold_starts, ref_stats.lp.solves);
    }

    #[test]
    fn delta_and_clone_node_orders_match() {
        // The satellite regression: applying/undoing bound deltas on one
        // scratch model must visit exactly the nodes the per-node clone
        // visited, in the same order, with the same outcomes.
        let mut m = Model::new(Sense::Minimize);
        let x: Vec<_> = (0..5).map(|i| m.add_binary(format!("b{i}"))).collect();
        let mut cover = LinExpr::new();
        for (i, &v) in x.iter().enumerate() {
            cover.add_term(v, 1.7 + (i % 2) as f64);
        }
        m.add_constr("cover", cover, Cmp::Ge, 4.2);
        m.set_objective(LinExpr::sum(x.iter().copied()));
        let (a, trace_delta) = solve_traced(&m, Backend::Revised, false);
        let (b, trace_clone) = solve_traced(&m, Backend::Revised, true);
        let (sa, _) = a.unwrap();
        let (sb, _) = b.unwrap();
        assert_close(sa.objective, sb.objective);
        assert_eq!(trace_delta, trace_clone);
        assert!(!trace_delta.is_empty());
    }
}
