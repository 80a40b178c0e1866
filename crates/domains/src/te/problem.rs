//! The traffic-engineering problem: demands over a topology with a fixed
//! path set, plus the optimal (benchmark) max-flow LP.

use crate::te::paths::{k_shortest_paths, Path};
use crate::te::topology::Topology;
use serde::{Deserialize, Serialize};
use std::sync::{Mutex, MutexGuard};
use xplain_lp::{
    Cmp, LinExpr, LpError, Model, Prepared, Sense, SolverSession, SolverStats, VarType, WarmBasis,
};

/// A demand endpoint pair (amounts are supplied separately — they are the
/// *input space* the analyzer searches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DemandPair {
    pub src: usize,
    pub dst: usize,
}

/// A TE problem instance: topology, demand pairs, and per-demand path sets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TeProblem {
    pub topology: Topology,
    pub demands: Vec<DemandPair>,
    /// `paths[k]` are the candidate paths of demand `k`, shortest first
    /// (`paths[k][0]` is the pinning target `p̂_k`).
    pub paths: Vec<Vec<Path>>,
    /// Upper bound on any single demand (the input-space box).
    pub demand_cap: f64,
}

/// A flow allocation: per demand, per path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TeAllocation {
    /// `flows[k][p]` = flow of demand `k` on path `p`.
    pub flows: Vec<Vec<f64>>,
    /// Total routed flow (the TE objective).
    pub total: f64,
}

impl TeProblem {
    /// Build a problem over all given demand pairs, enumerating every
    /// simple path (up to `max_hops`).
    pub fn new(
        topology: Topology,
        demands: Vec<DemandPair>,
        max_hops: usize,
        demand_cap: f64,
    ) -> Result<Self, String> {
        topology.validate()?;
        let paths: Vec<Vec<Path>> = demands
            .iter()
            .map(|d| k_shortest_paths(&topology, d.src, d.dst, max_hops, 0))
            .collect();
        for (k, ps) in paths.iter().enumerate() {
            if ps.is_empty() {
                return Err(format!(
                    "demand {k} ({} -> {}) has no path",
                    topology.node_names[demands[k].src], topology.node_names[demands[k].dst]
                ));
            }
        }
        Ok(TeProblem {
            topology,
            demands,
            paths,
            demand_cap,
        })
    }

    /// The Fig. 1a instance: three demands 1⇝3, 1⇝2, 2⇝3 on the Fig. 1a
    /// topology with a demand cap of 100.
    pub fn fig1a() -> Self {
        let topo = Topology::fig1a();
        let demands = vec![
            DemandPair { src: 0, dst: 2 }, // 1 ⇝ 3
            DemandPair { src: 0, dst: 1 }, // 1 ⇝ 2
            DemandPair { src: 1, dst: 2 }, // 2 ⇝ 3
        ];
        TeProblem::new(topo, demands, 8, 100.0).expect("fig1a is well-formed")
    }

    /// The Fig. 4a instance: all eight connected demand pairs of the
    /// Fig. 1a topology (1⇝2, 1⇝3, 1⇝4, 1⇝5, 2⇝3, 4⇝3, 4⇝5, 5⇝3).
    pub fn fig4a() -> Self {
        let topo = Topology::fig1a();
        let demands = vec![
            DemandPair { src: 0, dst: 1 },
            DemandPair { src: 0, dst: 2 },
            DemandPair { src: 0, dst: 3 },
            DemandPair { src: 0, dst: 4 },
            DemandPair { src: 1, dst: 2 },
            DemandPair { src: 3, dst: 2 },
            DemandPair { src: 3, dst: 4 },
            DemandPair { src: 4, dst: 2 },
        ];
        TeProblem::new(topo, demands, 8, 100.0).expect("fig4a is well-formed")
    }

    /// Number of demands (the dimensionality of the input space).
    pub fn num_demands(&self) -> usize {
        self.demands.len()
    }

    /// Demand label like `"1~3"`.
    pub fn demand_name(&self, k: usize) -> String {
        let d = self.demands[k];
        format!(
            "{}~{}",
            self.topology.node_names[d.src], self.topology.node_names[d.dst]
        )
    }

    /// Build the path-based max-flow LP for the given demand volumes and
    /// residual link capacities. `capacities` defaults to the topology's.
    pub fn max_flow_model(
        &self,
        volumes: &[f64],
        capacities: Option<&[f64]>,
        skip_demand: &[bool],
    ) -> Model {
        let mut m = Model::new(Sense::Maximize);
        let mut path_vars: Vec<Vec<xplain_lp::VarId>> = Vec::with_capacity(self.num_demands());
        for (k, paths) in self.paths.iter().enumerate() {
            let mut row = Vec::with_capacity(paths.len());
            for (p, _) in paths.iter().enumerate() {
                row.push(m.add_var(
                    format!("f[{}/{p}]", self.demand_name(k)),
                    VarType::Continuous,
                    0.0,
                    f64::INFINITY,
                ));
            }
            path_vars.push(row);
        }
        // Demand constraints.
        for k in 0..self.num_demands() {
            let vol = if skip_demand.get(k).copied().unwrap_or(false) {
                0.0
            } else {
                volumes.get(k).copied().unwrap_or(0.0)
            };
            m.add_constr(
                format!("demand[{}]", self.demand_name(k)),
                LinExpr::sum(path_vars[k].iter().copied()),
                Cmp::Le,
                vol.max(0.0),
            );
        }
        // Link capacity constraints.
        for (l, link) in self.topology.links.iter().enumerate() {
            let mut e = LinExpr::new();
            for (k, paths) in self.paths.iter().enumerate() {
                for (p, path) in paths.iter().enumerate() {
                    if path.links.contains(&l) {
                        e.add_term(path_vars[k][p], 1.0);
                    }
                }
            }
            let cap = capacities.map(|c| c[l]).unwrap_or(link.capacity).max(0.0);
            m.add_constr(
                format!("cap[{}]", self.topology.link_name(l)),
                e,
                Cmp::Le,
                cap,
            );
        }
        let mut obj = LinExpr::new();
        for row in &path_vars {
            for &v in row {
                obj.add_term(v, 1.0);
            }
        }
        m.set_objective(obj);
        m
    }

    /// Solve the benchmark: optimal multi-commodity max-flow.
    ///
    /// Max-flow optima are generally not unique. Among them we pick the
    /// one minimizing total flow on *shortest* paths (a second,
    /// lexicographic solve). This makes the benchmark deterministic and
    /// matches the paper's Type-2 narrative — "DP does shortest-path
    /// routing for these demands, whereas the optimal does not" — so the
    /// explainer's heat-map contrasts are crisp (see DESIGN.md §6).
    ///
    /// One-shot: builds a [`TeLexSolver`] per call and solves from its
    /// anchor, so the result equals, bit for bit, a sweep's
    /// [`TeLexSolver::optimal`] at the same point.
    pub fn optimal(&self, volumes: &[f64]) -> Result<TeAllocation, LpError> {
        self.lex_solver()?.optimal(volumes)
    }

    /// The lexicographic stage-2 LP over a stage-1 `model`: the
    /// `lex_total` pin row (`total flow >= total_pin`) plus the negated
    /// shortest-path objective, so stage 2 minimizes shortest-path usage
    /// among the stage-1 optima.
    fn lex_stage2_model(&self, mut model: Model, total_pin: f64) -> Model {
        let objective = model.objective().clone();
        model.add_constr("lex_total", objective, Cmp::Ge, total_pin);
        let mut secondary = LinExpr::new();
        let mut var_ix = 0usize;
        for paths in &self.paths {
            if !paths.is_empty() {
                secondary.add_term(xplain_lp::VarId::from_index(var_ix), 1.0);
            }
            var_ix += paths.len();
        }
        model.set_objective(-secondary);
        model
    }

    /// Build a [`TeLexSolver`]: both lexicographic stage LPs standardized
    /// once, so sweeps over demand vectors (the analyzer's probe fan-out)
    /// re-solve through rhs deltas with no per-evaluation model build.
    ///
    /// The solver also solves both stages once at the anchor point, the
    /// box centre (`demand_cap / 2` for every demand), and keeps each
    /// stage's final basis for [`TeLexSolver::restore_anchor`]. Then it
    /// forgets the bases, so its first solve without a restore is cold.
    /// The anchor is a function of the problem alone. A stage whose
    /// anchor solve fails has no anchor, and its restores start cold.
    pub fn lex_solver(&self) -> Result<TeLexSolver, LpError> {
        let model = self.max_flow_model(&vec![0.0; self.num_demands()], None, &[]);
        let stage1 = Prepared::new(&model)?;
        let stage2 = Prepared::new(&self.lex_stage2_model(model, 0.0))?;
        let mut solver = TeLexSolver {
            stage1,
            stage2,
            path_counts: self.paths.iter().map(|ps| ps.len()).collect(),
            link_caps: self.topology.links.iter().map(|l| l.capacity).collect(),
            session1: SolverSession::new(),
            session2: SolverSession::new(),
            anchor1: None,
            anchor2: None,
        };
        let centre = vec![self.demand_cap / 2.0; self.num_demands()];
        if solver.solve_max_flow_lex(&centre, None, &[]).is_ok() {
            solver.anchor1 = solver.session1.snapshot();
            solver.anchor2 = solver.session2.snapshot();
        }
        solver.session1.reset();
        solver.session2.reset();
        Ok(solver)
    }

    /// Total link load of an allocation, per link.
    pub fn link_loads(&self, alloc: &TeAllocation) -> Vec<f64> {
        let mut loads = vec![0.0; self.topology.num_links()];
        for (k, paths) in self.paths.iter().enumerate() {
            for (p, path) in paths.iter().enumerate() {
                for &l in &path.links {
                    loads[l] += alloc.flows[k][p];
                }
            }
        }
        loads
    }

    /// Verify an allocation: nonnegative flows, demand limits, capacities.
    pub fn check_allocation(
        &self,
        volumes: &[f64],
        alloc: &TeAllocation,
        tol: f64,
    ) -> Option<String> {
        for (k, row) in alloc.flows.iter().enumerate() {
            let routed: f64 = row.iter().sum();
            if row.iter().any(|f| *f < -tol) {
                return Some(format!("demand {k} has negative flow"));
            }
            if routed > volumes.get(k).copied().unwrap_or(0.0) + tol {
                return Some(format!(
                    "demand {k} routes {routed} > volume {}",
                    volumes.get(k).copied().unwrap_or(0.0)
                ));
            }
        }
        let loads = self.link_loads(alloc);
        for (l, load) in loads.iter().enumerate() {
            if *load > self.topology.links[l].capacity + tol {
                return Some(format!(
                    "link {} overloaded: {load} > {}",
                    self.topology.link_name(l),
                    self.topology.links[l].capacity
                ));
            }
        }
        None
    }
}

/// Prepared lexicographic max-flow solver for one [`TeProblem`] — the
/// one solve path behind every TE benchmark and Demand Pinning solve.
///
/// Holds both stage LPs pre-standardized, each with its own warm-start
/// [`SolverSession`] (the stages differ in shape, so each re-solves
/// against its own history); [`TeLexSolver::solve_max_flow_lex`] only
/// writes rhs values (demand volumes, residual capacities, the stage-2
/// total pin) before re-solving. The rhs computation mirrors
/// [`TeProblem::max_flow_model`] bit for bit and a prepared solve equals
/// the model solve it stands for, so a solve returns *byte-identical*
/// solutions to building the stage models afresh through sessions with
/// the same history — pinned by `te_lex_solver_matches_model_path`
/// below.
///
/// A warm solve lands on whichever optimal vertex its start basis leads
/// to, and max-flow optima are not unique, so the flows and the trailing
/// bits of a total depend on that start. Every DP evaluation therefore
/// first calls [`TeLexSolver::restore_anchor`], which starts both stages
/// from the bases [`TeProblem::lex_solver`] kept at the box centre: its
/// result is a function of (problem, point) alone, whichever solver it
/// ran on and whatever that solver solved before, and it is warm.
pub struct TeLexSolver {
    stage1: Prepared,
    stage2: Prepared,
    /// Paths per demand, for flow extraction (demand rows are `0..n`).
    path_counts: Vec<usize>,
    /// Topology link capacities — the per-solve default (cap rows follow
    /// the demand rows).
    link_caps: Vec<f64>,
    session1: SolverSession,
    session2: SolverSession,
    /// Each stage's final basis at the anchor point.
    anchor1: Option<WarmBasis>,
    anchor2: Option<WarmBasis>,
}

/// Start `session`'s next solve from `anchor`, or cold without one.
fn restore_or_reset(session: &mut SolverSession, anchor: Option<&WarmBasis>) {
    match anchor {
        Some(basis) => session.restore(basis),
        None => session.reset(),
    }
}

/// The stage-2 `lex_total` pin for a stage-1 optimum: a tiny slack, just
/// enough to absorb stage-1 round-off without letting stage 2 trade away
/// measurable total flow.
fn lex_total_pin(total: f64) -> f64 {
    total - 1e-9 * total.abs().max(1.0)
}

/// The demand rows (`0..n`) then the link-capacity rows of a max-flow LP
/// as `(row, rhs)`, computed exactly as [`TeProblem::max_flow_model`]
/// computes them.
fn max_flow_rhs<'a>(
    n: usize,
    link_caps: &'a [f64],
    volumes: &'a [f64],
    capacities: Option<&'a [f64]>,
    skip_demand: &'a [bool],
) -> impl Iterator<Item = (usize, f64)> + 'a {
    let demands = (0..n).map(move |k| {
        let vol = if skip_demand.get(k).copied().unwrap_or(false) {
            0.0
        } else {
            volumes.get(k).copied().unwrap_or(0.0)
        };
        (k, vol.max(0.0))
    });
    let links = link_caps.iter().enumerate().map(move |(l, &link_cap)| {
        let cap = capacities.map(|c| c[l]).unwrap_or(link_cap).max(0.0);
        (n + l, cap)
    });
    demands.chain(links)
}

impl TeLexSolver {
    /// Lexicographic max-flow: maximize the total routed flow, then among
    /// the optima minimize the flow carried by each demand's shortest
    /// path. `capacities` overrides the topology's link capacities and a
    /// `skip_demand` entry zeroes that demand (Demand Pinning's phase 2).
    pub fn solve_max_flow_lex(
        &mut self,
        volumes: &[f64],
        capacities: Option<&[f64]>,
        skip_demand: &[bool],
    ) -> Result<TeAllocation, LpError> {
        let n = self.path_counts.len();
        for (row, rhs) in max_flow_rhs(n, &self.link_caps, volumes, capacities, skip_demand) {
            self.stage1.set_rhs(row, rhs);
            self.stage2.set_rhs(row, rhs);
        }
        let total = self.session1.solve_prepared(&self.stage1)?.objective;
        self.stage2
            .set_rhs(n + self.link_caps.len(), lex_total_pin(total));
        let sol2 = self.session2.solve_prepared(&self.stage2)?;

        let mut flows = Vec::with_capacity(n);
        let mut var_ix = 0usize;
        let mut routed = 0.0;
        for &count in &self.path_counts {
            let mut row = Vec::with_capacity(count);
            for _ in 0..count {
                let f = sol2.values[var_ix].max(0.0);
                routed += f;
                row.push(f);
                var_ix += 1;
            }
            flows.push(row);
        }
        Ok(TeAllocation {
            flows,
            total: routed,
        })
    }

    /// The benchmark (see [`TeProblem::optimal`]) through the prepared
    /// LPs, solved from the anchor.
    pub fn optimal(&mut self, volumes: &[f64]) -> Result<TeAllocation, LpError> {
        self.restore_anchor();
        self.solve_max_flow_lex(volumes, None, &[])
    }

    /// Start the next solve of each stage from its anchor basis (see
    /// [`TeProblem::lex_solver`]) instead of the last solve's basis.
    pub fn restore_anchor(&mut self) {
        restore_or_reset(&mut self.session1, self.anchor1.as_ref());
        restore_or_reset(&mut self.session2, self.anchor2.as_ref());
    }

    /// The maximum total flow alone — stage 1's objective, skipping the
    /// vertex-refinement stage entirely.
    ///
    /// Stage 2 only decides *which* optimal allocation to report; the
    /// total is fixed by stage 1 (the objective is the plain sum of path
    /// flows). Callers that consume nothing but the value — the gap
    /// oracle's `OPT − DP`, evaluated tens of thousands of times per
    /// analysis — halve their LP count by calling this instead of
    /// [`TeLexSolver::solve_max_flow_lex`].
    pub fn total_flow(
        &mut self,
        volumes: &[f64],
        capacities: Option<&[f64]>,
        skip_demand: &[bool],
    ) -> Result<f64, LpError> {
        let n = self.path_counts.len();
        for (row, rhs) in max_flow_rhs(n, &self.link_caps, volumes, capacities, skip_demand) {
            self.stage1.set_rhs(row, rhs);
        }
        Ok(self.session1.solve_prepared(&self.stage1)?.objective)
    }

    /// Solver statistics of both stage sessions, summed.
    pub fn stats(&self) -> SolverStats {
        let mut total = self.session1.stats;
        total.absorb(&self.session2.stats);
        total
    }
}

/// A thread-safe checkout stack of [`TeLexSolver`]s for one problem.
///
/// Callers that fan evaluations across threads (the gap oracle, the
/// explainer's DSL mapper) pop a solver, use it, and push it back: the
/// lock is held only to pop and push, and the stack grows to the peak
/// number of concurrent callers. Those callers start every solve from
/// the anchor ([`TeLexSolver::restore_anchor`]), so which solver a
/// thread draws does not change what it computes. A poisoned stack (a
/// panicked sibling thread) still holds valid solvers, so it is used as
/// is.
pub struct TeLexSolverStack {
    solvers: Mutex<Vec<TeLexSolver>>,
}

impl TeLexSolverStack {
    /// A stack holding one solver for `problem`.
    pub fn new(problem: &TeProblem) -> Result<Self, LpError> {
        Ok(TeLexSolverStack {
            solvers: Mutex::new(vec![problem.lex_solver()?]),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Vec<TeLexSolver>> {
        self.solvers
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Run `f` on a checked-out solver, building one only when every
    /// solver is in flight on another thread. `problem` must be the one
    /// the stack was built for.
    pub fn with<T>(
        &self,
        problem: &TeProblem,
        f: impl FnOnce(&mut TeLexSolver) -> T,
    ) -> Result<T, LpError> {
        let checked_out = self.lock().pop();
        let mut solver = match checked_out {
            Some(solver) => solver,
            None => problem.lex_solver()?,
        };
        let out = f(&mut solver);
        self.lock().push(solver);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// A prepared solver and the model-building path must return
    /// byte-identical allocations across a sweep (they feed the replay
    /// pins, which compare serialized output exactly). The model path
    /// builds both stage models per point and solves each through its own
    /// warm session.
    #[test]
    fn te_lex_solver_matches_model_path() {
        let p = TeProblem::fig1a();
        let mut solver = p.lex_solver().unwrap();
        let mut sessions = (SolverSession::new(), SolverSession::new());
        let mut model_path = |volumes: &[f64], caps: Option<&[f64]>, skips: &[bool]| {
            let model = p.max_flow_model(volumes, caps, skips);
            let total = sessions.0.solve(&model).unwrap().objective;
            let stage2 = p.lex_stage2_model(model, lex_total_pin(total));
            let sol2 = sessions.1.solve(&stage2).unwrap();
            let flows: Vec<f64> = sol2.values.iter().map(|f| f.max(0.0)).collect();
            let total = flows.iter().fold(0.0, |acc, f| acc + f);
            (total, flows)
        };
        let mut check = |volumes: &[f64], caps: Option<&[f64]>, skips: &[bool]| {
            let a = solver.solve_max_flow_lex(volumes, caps, skips).unwrap();
            let (total, flows) = model_path(volumes, caps, skips);
            assert_eq!(a.total.to_bits(), total.to_bits());
            let a_flows: Vec<u64> = a.flows.iter().flatten().map(|f| f.to_bits()).collect();
            let b_flows: Vec<u64> = flows.iter().map(|f| f.to_bits()).collect();
            assert_eq!(a_flows, b_flows);
        };
        let sweeps: &[[f64; 3]] = &[
            [50.0, 100.0, 100.0],
            [0.0, 0.0, 0.0],
            [10.0, 90.0, 20.0],
            [100.0, 100.0, 100.0],
            [-5.0, 10.0, 10.0],
        ];
        for volumes in sweeps {
            check(volumes, None, &[]);
        }
        // Residual-capacity + skip route (the DP phase-2 shape).
        let caps = vec![50.0, 50.0, 50.0, 50.0, 50.0];
        check(&[100.0, 100.0, 100.0], Some(&caps), &[true, false, false]);
    }

    /// Solves started from the anchor are warm at every point: over
    /// seeded fig1a points, every lexicographic solve and every total is
    /// a warm hit, and none rebuilds the factorization. Only the two
    /// anchor solves that built the solver ran cold.
    #[test]
    fn anchored_solves_are_warm_and_never_refactorize() {
        use rand::{Rng, SeedableRng};
        let p = TeProblem::fig1a();
        let mut solver = p.lex_solver().unwrap();
        let built = solver.stats();
        assert_eq!((built.solves, built.cold_starts), (2, 2));
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let x: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..=100.0)).collect();
            solver.restore_anchor();
            solver.solve_max_flow_lex(&x, None, &[]).unwrap();
            solver.restore_anchor();
            solver.total_flow(&x, None, &[]).unwrap();
        }
        let work = solver.stats().diff(&built);
        assert_eq!(work.solves, 600);
        assert_eq!(work.warm_hits, 600);
        assert_eq!(work.cold_starts, 0);
        assert_eq!(work.refactorizations, 0);
    }

    #[test]
    fn fig1a_optimal_is_250() {
        let p = TeProblem::fig1a();
        let opt = p.optimal(&[50.0, 100.0, 100.0]).unwrap();
        assert_close(opt.total, 250.0);
        assert!(p
            .check_allocation(&[50.0, 100.0, 100.0], &opt, 1e-6)
            .is_none());
        // The optimal must route 1⇝3 over the long path 1-4-5-3.
        assert_close(opt.flows[0][1], 50.0);
        assert_close(opt.flows[0][0], 0.0);
    }

    #[test]
    fn optimal_zero_demands() {
        let p = TeProblem::fig1a();
        let opt = p.optimal(&[0.0, 0.0, 0.0]).unwrap();
        assert_close(opt.total, 0.0);
    }

    #[test]
    fn optimal_caps_by_capacity() {
        let p = TeProblem::fig1a();
        // Demand 2⇝3 of 500 can route at most 100 (link 2->3).
        let opt = p.optimal(&[0.0, 0.0, 500.0]).unwrap();
        assert_close(opt.total, 100.0);
    }

    #[test]
    fn fig4a_has_eight_demands() {
        let p = TeProblem::fig4a();
        assert_eq!(p.num_demands(), 8);
        // Paths listed in Fig. 4a: 1⇝3 has two, 1⇝5 has one (1-4-5)...
        assert_eq!(p.paths[1].len(), 2);
        let opt = p.optimal(&[10.0; 8]).unwrap();
        assert!(opt.total > 0.0);
    }

    #[test]
    fn no_path_rejected() {
        let topo = Topology::fig1a();
        let r = TeProblem::new(
            topo,
            vec![DemandPair { src: 2, dst: 0 }], // 3 ⇝ 1 unreachable
            8,
            100.0,
        );
        assert!(r.is_err());
    }

    #[test]
    fn skip_demand_zeroes_volume() {
        let p = TeProblem::fig1a();
        let m = p.max_flow_model(&[50.0, 100.0, 100.0], None, &[true, false, false]);
        let sol = m.solve().unwrap();
        assert_close(sol.objective, 200.0); // only 1⇝2 and 2⇝3
    }

    #[test]
    fn residual_capacities_respected() {
        let p = TeProblem::fig1a();
        let caps = vec![50.0, 50.0, 50.0, 50.0, 50.0];
        let m = p.max_flow_model(&[100.0, 100.0, 100.0], Some(&caps), &[]);
        let sol = m.solve().unwrap();
        // 1->2 and 2->3 reduced to 50: total at most 50(1⇝2) + 50(2⇝3) + 50(1⇝3 long)
        assert_close(sol.objective, 150.0);
    }

    #[test]
    fn negative_volumes_clamped() {
        let p = TeProblem::fig1a();
        let opt = p.optimal(&[-5.0, 10.0, 10.0]).unwrap();
        assert_close(opt.total, 20.0);
    }

    #[test]
    fn demand_names() {
        let p = TeProblem::fig1a();
        assert_eq!(p.demand_name(0), "1~3");
        assert_eq!(p.demand_name(2), "2~3");
    }
}
