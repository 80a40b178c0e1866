//! The Demand Pinning heuristic (§2, Fig. 1a/1b).
//!
//! DP "first filters all demands below a pre-defined threshold and routes
//! them through (pins them to) their shortest path. It then routes the
//! remaining demands optimally using the available capacity."
//!
//! Pinnable means `d <= T` (§3: "we call a demand d : d <= T a pinnable
//! demand"; Fig. 1a pins the demand that equals the threshold).

use crate::te::problem::{TeAllocation, TeLexSolver, TeProblem};
use serde::{Deserialize, Serialize};
use xplain_lp::LpError;

/// What to do when a pinned demand exceeds the residual capacity of its
/// shortest path.
///
/// MetaOpt constrains the adversarial input so pins always fit (the
/// heuristic model would otherwise be infeasible); when *sampling* the
/// input space XPlain needs a total function, so the default clamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PinOverflow {
    /// Route only what fits (total function; default for sampling).
    Clamp,
    /// Return an error (mirrors MetaOpt's hard-constraint semantics).
    Strict,
}

/// Demand Pinning configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DemandPinning {
    /// The pinning threshold `T_d`.
    pub threshold: f64,
    pub overflow: PinOverflow,
}

impl DemandPinning {
    pub fn new(threshold: f64) -> Self {
        DemandPinning {
            threshold,
            overflow: PinOverflow::Clamp,
        }
    }

    pub fn strict(threshold: f64) -> Self {
        DemandPinning {
            threshold,
            overflow: PinOverflow::Strict,
        }
    }

    /// Which demands DP pins for the given volumes.
    pub fn pinned(&self, volumes: &[f64]) -> Vec<bool> {
        volumes.iter().map(|&d| d <= self.threshold).collect()
    }

    /// Run the heuristic (one-shot: builds a [`TeLexSolver`] per call;
    /// the same bits as [`DemandPinning::solve_with`] on any solver).
    ///
    /// Errors are either LP failures or, in strict mode, a pinned demand
    /// that does not fit its shortest path.
    pub fn solve(&self, problem: &TeProblem, volumes: &[f64]) -> Result<TeAllocation, DpError> {
        let mut solver = problem.lex_solver().map_err(DpError::Lp)?;
        self.solve_with(problem, volumes, &mut solver)
    }

    /// [`DemandPinning::solve`] through a caller-held [`TeLexSolver`] for
    /// `problem`: the phase-2 LP re-solves by rhs deltas from the
    /// solver's anchor — no per-evaluation model build, and the same
    /// allocation whatever the solver solved before.
    pub fn solve_with(
        &self,
        problem: &TeProblem,
        volumes: &[f64],
        solver: &mut TeLexSolver,
    ) -> Result<TeAllocation, DpError> {
        let pin = self.pin_phase(problem, volumes)?;
        solver.restore_anchor();
        let alloc = solver
            .solve_max_flow_lex(volumes, Some(&pin.pass.residual), &pin.pass.pinned)
            .map_err(DpError::Lp)?;
        Ok(pin.merge(problem, alloc))
    }

    /// Phase 1: pin, recording each pinned demand's shortest-path flow.
    fn pin_phase(&self, problem: &TeProblem, volumes: &[f64]) -> Result<PinPhase, DpError> {
        let mut flows: Vec<Vec<f64>> = problem.paths.iter().map(|ps| vec![0.0; ps.len()]).collect();
        let pass = self.pin_pass(problem, volumes, |k, route| flows[k][0] = route)?;
        Ok(PinPhase { pass, flows })
    }

    /// The pin pass itself, in demand order (deterministic). `on_route`
    /// sees each routed pin as `(demand, amount)`; the gap needs only the
    /// totals, so it builds no per-path flow matrix.
    fn pin_pass(
        &self,
        problem: &TeProblem,
        volumes: &[f64],
        mut on_route: impl FnMut(usize, f64),
    ) -> Result<PinPass, DpError> {
        let n = problem.num_demands();
        let pinned = self.pinned(volumes);
        let mut residual: Vec<f64> = problem.topology.links.iter().map(|l| l.capacity).collect();
        let mut pinned_total = 0.0;

        for k in 0..n {
            if !pinned[k] {
                continue;
            }
            let want = volumes.get(k).copied().unwrap_or(0.0).max(0.0);
            if want == 0.0 {
                continue;
            }
            let shortest = &problem.paths[k][0];
            let avail = shortest
                .links
                .iter()
                .map(|&l| residual[l])
                .fold(f64::INFINITY, f64::min);
            let route = match self.overflow {
                PinOverflow::Clamp => want.min(avail),
                PinOverflow::Strict => {
                    if want > avail + 1e-9 {
                        return Err(DpError::PinOverflow {
                            demand: k,
                            want,
                            available: avail,
                        });
                    }
                    want
                }
            };
            for &l in &shortest.links {
                residual[l] -= route;
            }
            on_route(k, route);
            pinned_total += route;
        }
        Ok(PinPass {
            pinned,
            residual,
            pinned_total,
        })
    }

    /// The performance gap `OPT(volumes) - DP(volumes)` (nonnegative up to
    /// LP tolerance, since DP is a restriction of OPT). One-shot: builds a
    /// [`TeLexSolver`] per call; the same bits as
    /// [`DemandPinning::gap_with`] on any solver.
    pub fn gap(&self, problem: &TeProblem, volumes: &[f64]) -> Result<f64, DpError> {
        let mut solver = problem.lex_solver().map_err(DpError::Lp)?;
        self.gap_with(problem, volumes, &mut solver)
    }

    /// [`DemandPinning::gap`] through a caller-held [`TeLexSolver`] for
    /// `problem`. The gap is OPT's stage-1 total minus (pinned total +
    /// phase-2 stage-1 total): two stage-1 solves via
    /// [`TeLexSolver::total_flow`], since a total needs no lexicographic
    /// vertex. The first starts from the solver's anchor and the second
    /// from where the first ended, so the gap is a function of (problem,
    /// volumes) alone.
    pub fn gap_with(
        &self,
        problem: &TeProblem,
        volumes: &[f64],
        solver: &mut TeLexSolver,
    ) -> Result<f64, DpError> {
        solver.restore_anchor();
        let opt_total = solver.total_flow(volumes, None, &[]).map_err(DpError::Lp)?;
        let pin = self.pin_pass(problem, volumes, |_, _| {})?;
        let phase2_total = solver
            .total_flow(volumes, Some(&pin.residual), &pin.pinned)
            .map_err(DpError::Lp)?;
        Ok(opt_total - (pin.pinned_total + phase2_total))
    }
}

/// The deterministic pin pass: which demands are pinned, what capacity
/// is left, and how much the pins routed in total.
struct PinPass {
    pinned: Vec<bool>,
    residual: Vec<f64>,
    pinned_total: f64,
}

/// A pin pass plus the per-path flows it routed.
struct PinPhase {
    pass: PinPass,
    flows: Vec<Vec<f64>>,
}

impl PinPhase {
    /// Overlay the phase-2 allocation of the unpinned demands.
    fn merge(mut self, problem: &TeProblem, alloc: TeAllocation) -> TeAllocation {
        for (k, paths) in problem.paths.iter().enumerate() {
            for (p, _) in paths.iter().enumerate() {
                if !self.pass.pinned[k] {
                    self.flows[k][p] = alloc.flows[k][p];
                }
            }
        }
        TeAllocation {
            total: self.pass.pinned_total + alloc.total,
            flows: self.flows,
        }
    }
}

/// Errors from the DP heuristic.
#[derive(Debug, Clone, PartialEq)]
pub enum DpError {
    Lp(LpError),
    PinOverflow {
        demand: usize,
        want: f64,
        available: f64,
    },
}

impl std::fmt::Display for DpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpError::Lp(e) => write!(f, "LP failure: {e}"),
            DpError::PinOverflow {
                demand,
                want,
                available,
            } => write!(
                f,
                "pinned demand {demand} wants {want} but only {available} fits its shortest path"
            ),
        }
    }
}

impl std::error::Error for DpError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// The headline Fig. 1a table: DP totals 150 vs OPT 250.
    #[test]
    fn fig1a_dp_is_150() {
        let p = TeProblem::fig1a();
        let dp = DemandPinning::new(50.0);
        let volumes = [50.0, 100.0, 100.0];
        let alloc = dp.solve(&p, &volumes).unwrap();
        assert_close(alloc.total, 150.0);
        // Demand 1⇝3 (= threshold) pinned to its shortest path 1-2-3.
        assert_close(alloc.flows[0][0], 50.0);
        assert_close(alloc.flows[0][1], 0.0);
        // 1⇝2 and 2⇝3 squeezed to 50 each by the pinned flow.
        assert_close(alloc.flows[1][0], 50.0);
        assert_close(alloc.flows[2][0], 50.0);
        assert!(p.check_allocation(&volumes, &alloc, 1e-6).is_none());
        // And the gap is 100 (40% of OPT) — the paper's motivating number.
        assert_close(dp.gap(&p, &volumes).unwrap(), 100.0);
    }

    #[test]
    fn no_pinnable_matches_optimal() {
        let p = TeProblem::fig1a();
        let dp = DemandPinning::new(10.0); // nothing at or below 10
        let volumes = [50.0, 100.0, 100.0];
        let alloc = dp.solve(&p, &volumes).unwrap();
        assert_close(alloc.total, 250.0);
        assert_close(dp.gap(&p, &volumes).unwrap(), 0.0);
    }

    #[test]
    fn everything_pinned() {
        let p = TeProblem::fig1a();
        let dp = DemandPinning::new(1000.0);
        let volumes = [50.0, 100.0, 100.0];
        let alloc = dp.solve(&p, &volumes).unwrap();
        // All demands pinned to shortest paths in order:
        // 1⇝3 takes 50 on 1-2-3, leaving 50 on both 1->2 and 2->3;
        // 1⇝2 then pins 100 but only 50 fits (clamped); 2⇝3 likewise.
        assert_close(alloc.total, 150.0);
    }

    #[test]
    fn strict_mode_errors_on_overflow() {
        let p = TeProblem::fig1a();
        let dp = DemandPinning::strict(1000.0);
        let volumes = [50.0, 100.0, 100.0];
        assert!(matches!(
            dp.solve(&p, &volumes),
            Err(DpError::PinOverflow { .. })
        ));
    }

    #[test]
    fn gap_nonnegative_on_grid() {
        let p = TeProblem::fig1a();
        let dp = DemandPinning::new(50.0);
        for &a in &[0.0, 25.0, 50.0, 75.0, 100.0] {
            for &b in &[0.0, 50.0, 100.0] {
                for &c in &[0.0, 50.0, 100.0] {
                    let g = dp.gap(&p, &[a, b, c]).unwrap();
                    assert!(g >= -1e-6, "gap {g} at ({a},{b},{c})");
                }
            }
        }
    }

    #[test]
    fn zero_demand_not_counted() {
        let p = TeProblem::fig1a();
        let dp = DemandPinning::new(50.0);
        let alloc = dp.solve(&p, &[0.0, 0.0, 0.0]).unwrap();
        assert_close(alloc.total, 0.0);
    }

    #[test]
    fn pinned_classification() {
        let dp = DemandPinning::new(50.0);
        assert_eq!(
            dp.pinned(&[49.0, 50.0, 51.0, 0.0]),
            vec![true, true, false, true]
        );
    }

    #[test]
    fn dp_never_beats_optimal_random_points() {
        use rand::{Rng, SeedableRng};
        let p = TeProblem::fig1a();
        let dp = DemandPinning::new(50.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let v: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..100.0)).collect();
            let g = dp.gap(&p, &v).unwrap();
            assert!(g >= -1e-6, "negative gap {g} at {v:?}");
        }
    }
}
