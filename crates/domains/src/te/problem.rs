//! The traffic-engineering problem: demands over a topology with a fixed
//! path set, plus the optimal (benchmark) max-flow LP.

use crate::te::paths::{k_shortest_paths, Path};
use crate::te::topology::Topology;
use serde::{Deserialize, Serialize};
use std::sync::{Mutex, MutexGuard};
use xplain_lp::{Cmp, LinExpr, LpError, Model, Prepared, Sense, SessionPool, SolverStats, VarType};

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
    pub fn optimal(&self, volumes: &[f64]) -> Result<TeAllocation, LpError> {
        self.solve_max_flow_lex(volumes, None, &[])
    }

    /// [`TeProblem::optimal`] through a warm-start [`SessionPool`]: the
    /// benchmark LP has a fixed structure per problem, so sweeps over
    /// demand vectors (the analyzer's bread and butter) re-solve from the
    /// previous basis instead of running a cold phase 1 every time.
    pub fn optimal_pooled(
        &self,
        volumes: &[f64],
        pool: &mut SessionPool,
    ) -> Result<TeAllocation, LpError> {
        self.solve_max_flow_lex_pooled(volumes, None, &[], pool)
    }

    /// Lexicographic max-flow: maximize total, then among optima minimize
    /// the flow carried by each demand's shortest path.
    pub fn solve_max_flow_lex(
        &self,
        volumes: &[f64],
        capacities: Option<&[f64]>,
        skip_demand: &[bool],
    ) -> Result<TeAllocation, LpError> {
        let mut pool = SessionPool::new();
        self.solve_max_flow_lex_pooled(volumes, capacities, skip_demand, &mut pool)
    }

    /// [`TeProblem::solve_max_flow_lex`] through a caller-owned pool. The
    /// two lexicographic stages have different shapes (stage 2 carries the
    /// `lex_total` pin), so they warm-start against separate sessions.
    pub fn solve_max_flow_lex_pooled(
        &self,
        volumes: &[f64],
        capacities: Option<&[f64]>,
        skip_demand: &[bool],
        pool: &mut SessionPool,
    ) -> Result<TeAllocation, LpError> {
        let model = self.max_flow_model(volumes, capacities, skip_demand);
        let sol = pool.solve(&model)?;
        let total = sol.objective;

        // Phase 2: pin the total, minimize shortest-path usage.
        let mut model2 = self.max_flow_model(volumes, capacities, skip_demand);
        let objective = model2.objective().clone();
        // Tiny slack: just enough to absorb phase-1 round-off without
        // letting phase 2 trade away measurable total flow.
        let slack = 1e-9 * total.abs().max(1.0);
        model2.add_constr("lex_total", objective, Cmp::Ge, total - slack);
        let mut secondary = LinExpr::new();
        let mut var_ix = 0usize;
        for paths in &self.paths {
            for pp in 0..paths.len() {
                if pp == 0 {
                    secondary.add_term(xplain_lp::VarId::from_index(var_ix), 1.0);
                }
                var_ix += 1;
            }
        }
        model2.set_objective(-secondary);
        let sol2 = pool.solve(&model2)?;

        let mut flows = Vec::with_capacity(self.num_demands());
        let mut var_ix = 0usize;
        let mut routed = 0.0;
        for paths in &self.paths {
            let mut row = Vec::with_capacity(paths.len());
            for _ in paths {
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

    /// Build a [`TeLexSolver`]: both lexicographic stage LPs standardized
    /// once, so sweeps over demand vectors (the analyzer's probe fan-out)
    /// re-solve through rhs deltas with no per-evaluation model build.
    pub fn lex_solver(&self) -> Result<TeLexSolver, LpError> {
        let zeros = vec![0.0; self.num_demands()];
        let stage1 = Prepared::new(&self.max_flow_model(&zeros, None, &[]))?;
        // Stage 2 mirrors `solve_max_flow_lex_pooled` exactly: same model,
        // plus the `lex_total` pin row (rhs set per solve) and the negated
        // shortest-path objective.
        let mut m2 = self.max_flow_model(&zeros, None, &[]);
        let objective = m2.objective().clone();
        m2.add_constr("lex_total", objective, Cmp::Ge, 0.0);
        let mut secondary = LinExpr::new();
        let mut var_ix = 0usize;
        for paths in &self.paths {
            for pp in 0..paths.len() {
                if pp == 0 {
                    secondary.add_term(xplain_lp::VarId::from_index(var_ix), 1.0);
                }
                var_ix += 1;
            }
        }
        m2.set_objective(-secondary);
        let stage2 = Prepared::new(&m2)?;
        Ok(TeLexSolver {
            stage1,
            stage2,
            path_counts: self.paths.iter().map(|ps| ps.len()).collect(),
            link_caps: self.topology.links.iter().map(|l| l.capacity).collect(),
            pool: SessionPool::new(),
        })
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

/// Prepared lexicographic max-flow solver for one [`TeProblem`].
///
/// Holds both stage LPs pre-standardized plus a warm-start [`SessionPool`];
/// [`TeLexSolver::solve_max_flow_lex`] only writes rhs values (demand
/// volumes, residual capacities, the stage-2 total pin) before re-solving.
/// The rhs computation mirrors [`TeProblem::max_flow_model`] bit for bit
/// and both paths funnel into the same solver entry point, so a prepared
/// solve returns *byte-identical* solutions to building the model afresh —
/// pinned by `te_lex_solver_matches_model_path` below and the analyzer's
/// replay suite.
pub struct TeLexSolver {
    stage1: Prepared,
    stage2: Prepared,
    /// Paths per demand, for flow extraction (demand rows are `0..n`).
    path_counts: Vec<usize>,
    /// Topology link capacities — the per-solve default (cap rows follow
    /// the demand rows).
    link_caps: Vec<f64>,
    pool: SessionPool,
}

impl TeLexSolver {
    /// Lexicographic max-flow (see [`TeProblem::solve_max_flow_lex`]) via
    /// rhs deltas on the prepared stage LPs.
    pub fn solve_max_flow_lex(
        &mut self,
        volumes: &[f64],
        capacities: Option<&[f64]>,
        skip_demand: &[bool],
    ) -> Result<TeAllocation, LpError> {
        let n = self.path_counts.len();
        for k in 0..n {
            let vol = if skip_demand.get(k).copied().unwrap_or(false) {
                0.0
            } else {
                volumes.get(k).copied().unwrap_or(0.0)
            };
            let rhs = vol.max(0.0);
            self.stage1.set_rhs(k, rhs);
            self.stage2.set_rhs(k, rhs);
        }
        for (l, &link_cap) in self.link_caps.iter().enumerate() {
            let cap = capacities.map(|c| c[l]).unwrap_or(link_cap).max(0.0);
            self.stage1.set_rhs(n + l, cap);
            self.stage2.set_rhs(n + l, cap);
        }
        let sol = self.pool.solve_prepared(&self.stage1)?;
        let total = sol.objective;

        let slack = 1e-9 * total.abs().max(1.0);
        self.stage2.set_rhs(n + self.link_caps.len(), total - slack);
        let sol2 = self.pool.solve_prepared(&self.stage2)?;

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

    /// The benchmark (see [`TeProblem::optimal`]) through the prepared LPs.
    pub fn optimal(&mut self, volumes: &[f64]) -> Result<TeAllocation, LpError> {
        self.solve_max_flow_lex(volumes, None, &[])
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
        for k in 0..n {
            let vol = if skip_demand.get(k).copied().unwrap_or(false) {
                0.0
            } else {
                volumes.get(k).copied().unwrap_or(0.0)
            };
            self.stage1.set_rhs(k, vol.max(0.0));
        }
        for (l, &link_cap) in self.link_caps.iter().enumerate() {
            let cap = capacities.map(|c| c[l]).unwrap_or(link_cap).max(0.0);
            self.stage1.set_rhs(n + l, cap);
        }
        Ok(self.pool.solve_prepared(&self.stage1)?.objective)
    }

    /// Forget every cached basis, so the next solve starts cold.
    ///
    /// A cold solve's vertex depends only on the input — exactly the
    /// model-building path's behavior, minus the per-call model build and
    /// standardization. Callers that need vertex determinism across
    /// threads (the explainer's DSL mappers) reset a reused solver before
    /// each evaluation; the sessions keep their workspaces, so the reset
    /// solver allocates no more than a warm one.
    pub fn reset(&mut self) {
        self.pool.reset();
    }

    /// Aggregate solver statistics of the internal pool.
    pub fn stats(&self) -> SolverStats {
        self.pool.stats()
    }
}

/// A thread-safe checkout stack of [`TeLexSolver`]s for one problem.
///
/// Callers that fan evaluations across threads (the gap oracle, the
/// explainer's DSL mapper) pop a solver, use it, and push it back: the
/// lock is held only to pop and push, and the stack grows to the peak
/// number of concurrent callers. A poisoned stack (a panicked sibling
/// thread) still holds valid solvers, so it is used as is.
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

    /// Aggregate solver statistics of the checked-in solvers (one in
    /// flight on another thread contributes once it is returned).
    pub fn stats(&self) -> SolverStats {
        let mut total = SolverStats::default();
        for s in self.lock().iter() {
            total.absorb(&s.stats());
        }
        total
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
    /// pins, which compare serialized output exactly).
    #[test]
    fn te_lex_solver_matches_model_path() {
        let p = TeProblem::fig1a();
        let mut solver = p.lex_solver().unwrap();
        let mut pool = SessionPool::new();
        let sweeps: &[[f64; 3]] = &[
            [50.0, 100.0, 100.0],
            [0.0, 0.0, 0.0],
            [10.0, 90.0, 20.0],
            [100.0, 100.0, 100.0],
            [-5.0, 10.0, 10.0],
        ];
        for volumes in sweeps {
            let a = solver.solve_max_flow_lex(volumes, None, &[]).unwrap();
            let b = p
                .solve_max_flow_lex_pooled(volumes, None, &[], &mut pool)
                .unwrap();
            assert_eq!(a.total.to_bits(), b.total.to_bits());
            for (ra, rb) in a.flows.iter().zip(&b.flows) {
                for (fa, fb) in ra.iter().zip(rb) {
                    assert_eq!(fa.to_bits(), fb.to_bits());
                }
            }
        }
        // Residual-capacity + skip route (the DP phase-2 shape).
        let caps = vec![50.0, 50.0, 50.0, 50.0, 50.0];
        let skips = [true, false, false];
        let a = solver
            .solve_max_flow_lex(&[100.0, 100.0, 100.0], Some(&caps), &skips)
            .unwrap();
        let b = p
            .solve_max_flow_lex_pooled(&[100.0, 100.0, 100.0], Some(&caps), &skips, &mut pool)
            .unwrap();
        assert_eq!(a.total.to_bits(), b.total.to_bits());
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
