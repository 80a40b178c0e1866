//! Revised simplex with native bounded variables, a product-form sparse
//! basis factorization, and warm starts.
//!
//! The production LP hot path. Differences from the reference tableau
//! solver ([`crate::simplex::reference`]) that matter at XPlain's scale:
//!
//! * **Native bounds.** A variable with bounds `lo <= x <= hi` is one
//!   column whose nonbasic status is *at-lower* or *at-upper*; moving
//!   between finite bounds is a bound *flip* (no pivot, no basis change).
//!   The reference solver instead emits a `y <= hi - lo` constraint row
//!   per two-sided variable — on the binary-heavy MetaOpt MILPs that
//!   doubles the row count before phase 1 even starts.
//! * **Basis factorization.** The basis is held as a sparse product-form
//!   factorization (`factor::Factorization`): base etas from a sparse
//!   Gauss–Jordan pass, one update eta appended per pivot in `O(nnz)`,
//!   rebuilt on an adaptive cadence (`refactor_cadence`) to bound drift.
//!   `ftran`/`btran` are linear scans over one contiguous eta arena and
//!   skip etas wholesale when the running vector is zero at their pivot
//!   row — the previous engine's dense `O(m²)` inverse updates and
//!   `O(m³)` rebuilds are gone.
//! * **Pricing.** Devex (reference-framework weights, maintained across
//!   pivots) over *incrementally maintained* reduced costs: each pivot
//!   updates `d` via the pivot row instead of recomputing duals from
//!   scratch every iteration. Apparent optimality is always confirmed
//!   against freshly computed reduced costs before the solver returns,
//!   so maintenance drift can cost extra pivots but never correctness.
//!   A degenerate streak switches to Bland's rule (anti-cycling) and —
//!   unlike the previous engine — switches *back* on the first
//!   non-degenerate step, so one degenerate patch no longer condemns the
//!   rest of a long solve to Bland crawling.
//! * **Warm starts.** A [`SolverSession`] caches the final basis *and its
//!   factorization*. When the next model has the same shape and constraint
//!   matrix fingerprint, the solve reuses the factorization outright —
//!   bound changes (branch-and-bound children) and rhs changes (gap-oracle
//!   sweeps) cost a handful of dual simplex steps with zero refactoring.
//!   A call site that alternates between a few fixed shapes holds one
//!   session per shape (the lexicographic max-flow's two stages do).
//! * **Canonical starts.** [`SolverSession::snapshot`] copies the cached
//!   basis and factorization out as a [`WarmBasis`];
//!   [`SolverSession::restore`] puts it back. A solve after `restore`
//!   runs exactly as it would have right after the snapshotted solve, so
//!   its bits depend on the snapshot and the model alone, not on what
//!   the session solved in between.
//! * **Prepared re-solves.** [`Prepared`] standardizes a model once;
//!   [`SolverSession::solve_prepared`] then re-solves after in-place
//!   bound/rhs edits without touching the `Model` at all. The contract:
//!   a prepared solve is *byte-for-byte identical* to materializing the
//!   edited model and calling [`SolverSession::solve_unchecked`] — same
//!   standardized data, same pivots, same bits out.
//! * **Allocation-free re-solves.** A session owns a workspace holding
//!   every buffer the core works in (statuses, basis, basic values,
//!   reduced costs, devex weights, ftran/btran scratch, artificials, the
//!   cold-start residual, the warm-start flip list) and the factorization
//!   arena, which refactorizations rebuild in place. Once one solve has
//!   sized them, a re-solve — warm, or cold after
//!   [`SolverSession::reset`], which drops the cached basis but keeps the
//!   buffers — allocates exactly once: the returned `Solution::values`
//!   (pinned by `lp/tests/alloc_budget.rs`).

use crate::counters;
use crate::error::LpError;
use crate::expr::{LinExpr, VarId};
use crate::factor::Factorization;
use crate::model::{Cmp, Model, Sense, Solution};

/// Upper bound on the refactorization cadence (pivots between rebuilds).
const REFACTOR_EVERY: usize = 64;

/// Pivots between factorization rebuilds: roughly one basis dimension's
/// worth of update etas, clamped to `[8, REFACTOR_EVERY]`. On small LPs a
/// long eta chain costs more per ftran/btran than the rebuild it defers —
/// the warm sweep loses to the cold tableau past ~2m etas — while on large
/// bases the 64 cap bounds drift exactly as before.
fn refactor_cadence(m: usize) -> usize {
    m.clamp(8, REFACTOR_EVERY)
}
/// Consecutive degenerate steps before switching to Bland's rule.
const DEGENERATE_STREAK_LIMIT: usize = 64;
/// Smallest pivot element magnitude accepted during elimination.
const PIVOT_TOL: f64 = 1e-9;
/// Dual-feasibility tolerance for accepting a warm basis.
const DUAL_TOL: f64 = 1e-7;

/// Cumulative statistics of one session (or one cold solve).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// LP solves completed.
    pub solves: u64,
    /// Primal simplex pivots + bound flips (both phases).
    pub iterations: u64,
    /// Dual simplex pivots (warm-start repair).
    pub dual_iterations: u64,
    /// Basis-factorization rebuilds.
    pub refactorizations: u64,
    /// Solves that resumed from a cached basis.
    pub warm_hits: u64,
    /// Solves that ran the full cold phase-1 route.
    pub cold_starts: u64,
}

impl SolverStats {
    /// Work done since `earlier` (field-wise saturating difference).
    pub fn diff(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            solves: self.solves.saturating_sub(earlier.solves),
            iterations: self.iterations.saturating_sub(earlier.iterations),
            dual_iterations: self.dual_iterations.saturating_sub(earlier.dual_iterations),
            refactorizations: self
                .refactorizations
                .saturating_sub(earlier.refactorizations),
            warm_hits: self.warm_hits.saturating_sub(earlier.warm_hits),
            cold_starts: self.cold_starts.saturating_sub(earlier.cold_starts),
        }
    }

    /// Accumulate `other` into `self`.
    pub fn absorb(&mut self, other: &SolverStats) {
        self.solves += other.solves;
        self.iterations += other.iterations;
        self.dual_iterations += other.dual_iterations;
        self.refactorizations += other.refactorizations;
        self.warm_hits += other.warm_hits;
        self.cold_starts += other.cold_starts;
    }
}

/// Where a column currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Basic,
    AtLower,
    AtUpper,
    /// Free nonbasic variable resting at 0.
    Free,
}

/// Standard form: `min c'x  s.t.  Ax = b,  lo <= x <= hi`, columns =
/// structural variables (bounds as declared) followed by one slack per
/// row (`Le`: `s in [0, inf)`, `Ge`: `s in (-inf, 0]`, `Eq`: `s = 0`).
/// The matrix never depends on variable bounds — that is what makes
/// bound-delta warm starts (and [`Prepared`] in-place edits) cheap.
#[derive(Debug, Clone)]
struct StdLp {
    n_struct: usize,
    m: usize,
    /// `n_struct + m` (structural + slack).
    ncols: usize,
    /// Sparse columns: `(row, coeff)` lists.
    cols: Vec<Vec<(usize, f64)>>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Minimization costs (slacks are free of charge).
    cost: Vec<f64>,
    b: Vec<f64>,
    /// FNV-1a over the sparse matrix (columns only — not bounds, costs,
    /// or rhs). Two standardized LPs with equal shape and fingerprint
    /// share basis factorizations: a cached one from one solve is valid
    /// for the other, which is what lets bound-delta and rhs-delta warm
    /// starts skip refactorization entirely.
    matrix_fp: u64,
}

fn standardize(model: &Model) -> StdLp {
    let n_struct = model.num_vars();
    let m = model.num_constraints();
    let ncols = n_struct + m;
    let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ncols];
    let mut lo = Vec::with_capacity(ncols);
    let mut hi = Vec::with_capacity(ncols);
    for v in &model.vars {
        lo.push(v.lo);
        hi.push(v.hi);
    }
    let mut b = Vec::with_capacity(m);
    for (r, c) in model.constraints.iter().enumerate() {
        for (var, coef) in c.expr.iter() {
            if coef != 0.0 {
                cols[var.index()].push((r, coef));
            }
        }
        b.push(c.rhs - c.expr.constant_part());
        let s = n_struct + r;
        cols[s].push((r, 1.0));
        let (slo, shi) = match c.cmp {
            Cmp::Le => (0.0, f64::INFINITY),
            Cmp::Ge => (f64::NEG_INFINITY, 0.0),
            Cmp::Eq => (0.0, 0.0),
        };
        lo.push(slo);
        hi.push(shi);
    }
    let sign = match model.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut cost = vec![0.0; ncols];
    for (var, coef) in model.objective.iter() {
        cost[var.index()] += sign * coef;
    }
    let mut fp = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
    let mix = |fp: &mut u64, x: u64| {
        *fp ^= x;
        *fp = fp.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for (j, col) in cols.iter().enumerate() {
        mix(&mut fp, j as u64);
        for &(r, v) in col {
            mix(&mut fp, r as u64);
            mix(&mut fp, v.to_bits());
        }
    }
    StdLp {
        n_struct,
        m,
        ncols,
        cols,
        lo,
        hi,
        cost,
        b,
        matrix_fp: fp,
    }
}

/// The column of standardized/artificial index `j` as a sparse slice.
/// A free function (not a `Core` method) so hot loops can hold it while
/// mutating disjoint `Core` fields.
#[inline]
fn column<'c>(lp: &'c StdLp, art: &'c [(usize, f64)], j: usize) -> &'c [(usize, f64)] {
    if j < lp.ncols {
        &lp.cols[j]
    } else {
        std::slice::from_ref(&art[j - lp.ncols])
    }
}

/// A model standardized once for repeated in-place re-solving.
///
/// `Prepared::new` pays validation, standardization, and matrix
/// fingerprinting a single time; after that, [`Prepared::set_rhs`] and
/// [`Prepared::set_var_bounds`] edit the standardized arrays directly and
/// a [`SolverSession::solve_prepared`] call runs the solver core with no
/// per-solve model build at all. Because the constraint *matrix* (and its
/// fingerprint) never changes, every re-solve through one session reuses
/// the cached basis factorization.
///
/// Equivalence contract (pinned by `lp/tests/differential.rs`): a
/// prepared solve is byte-for-byte identical to building a fresh `Model`
/// with the same bounds/rhs and calling [`SolverSession::solve_unchecked`]
/// on it through the same session.
#[derive(Debug, Clone)]
pub struct Prepared {
    lp: StdLp,
    objective: LinExpr,
    /// Constant part of each row's expression: `b[r] = rhs[r] - shift[r]`.
    shift: Vec<f64>,
    max_iterations: usize,
    feas_tol: f64,
    opt_tol: f64,
}

impl Prepared {
    /// Validate and standardize `model` for repeated re-solving.
    pub fn new(model: &Model) -> Result<Self, LpError> {
        model.validate()?;
        let lp = standardize(model);
        let shift = model
            .constraints
            .iter()
            .map(|c| c.expr.constant_part())
            .collect();
        Ok(Prepared {
            lp,
            objective: model.objective.clone(),
            shift,
            max_iterations: model.options().max_iterations,
            feas_tol: model.options().feas_tol,
            opt_tol: model.options().opt_tol,
        })
    }

    pub fn num_vars(&self) -> usize {
        self.lp.n_struct
    }

    pub fn num_constraints(&self) -> usize {
        self.lp.m
    }

    /// Set constraint `row`'s right-hand side (model-space, i.e. the value
    /// that `Model::add_constr` would have taken).
    pub fn set_rhs(&mut self, row: usize, rhs: f64) {
        self.lp.b[row] = rhs - self.shift[row];
    }

    /// Constraint `row`'s current right-hand side (model-space).
    pub fn rhs(&self, row: usize) -> f64 {
        self.lp.b[row] + self.shift[row]
    }

    /// Set a structural variable's bounds in place.
    pub fn set_var_bounds(&mut self, v: VarId, lo: f64, hi: f64) {
        let ix = v.index();
        debug_assert!(ix < self.lp.n_struct, "not a structural variable");
        debug_assert!(lo <= hi, "empty bound interval [{lo}, {hi}]");
        self.lp.lo[ix] = lo;
        self.lp.hi[ix] = hi;
    }

    /// A structural variable's current bounds.
    pub fn var_bounds(&self, v: VarId) -> (f64, f64) {
        let ix = v.index();
        (self.lp.lo[ix], self.lp.hi[ix])
    }
}

/// Which solve the basis held in a session's [`Workspace`] came from: it
/// is reusable when the next model has the same `(vars, constraints)`
/// shape, and its factorization only while the matrix fingerprint matches.
#[derive(Debug, Clone, Copy)]
struct WarmKey {
    n_struct: usize,
    m: usize,
    matrix_fp: u64,
}

/// Every buffer the solver core works in, owned by the session so that
/// re-solves allocate nothing: [`Core::new`] takes the buffers at the
/// start of a solve and [`Core::release`] hands them back at the end.
/// Each solve resets what it reads, so stale contents never leak into a
/// result. While the session holds a [`WarmKey`], `status`, `basis` and
/// `lu` *are* the cached basis; `lu` carries its own update count, so the
/// refactorization cadence holds session-wide.
#[derive(Debug, Default)]
struct Workspace {
    art: Vec<(usize, f64)>,
    art_hi: Vec<f64>,
    status: Vec<Status>,
    basis: Vec<usize>,
    lu: Factorization,
    xb: Vec<f64>,
    d: Vec<f64>,
    devex: Vec<f64>,
    work: Vec<f64>,
    w_pos: Vec<f64>,
    rho: Vec<f64>,
    alpha: Vec<f64>,
    resid: Vec<f64>,
    flips: Vec<usize>,
}

/// A cached basis copied out of a session ([`SolverSession::snapshot`])
/// to start later solves from ([`SolverSession::restore`]): the statuses,
/// the basis, and its factorization with its update count. The factor is
/// copied rather than rebuilt on restore, since a copy costs less than a
/// refactorization. It keeps the shape and matrix fingerprint of the
/// solve it came from, so a model of another shape still starts cold and
/// one with another matrix still refactorizes.
#[derive(Debug, Clone)]
pub struct WarmBasis {
    key: WarmKey,
    status: Vec<Status>,
    basis: Vec<usize>,
    lu: Factorization,
}

/// A warm-startable solver handle.
///
/// The session contract: `solve` is *exact* regardless of what is cached —
/// a warm basis only changes which pivots run, never the optimum. A model
/// whose shape differs from the cached one (different variable or
/// constraint count) falls back to a cold start transparently.
#[derive(Debug, Default)]
pub struct SolverSession {
    warm: Option<WarmKey>,
    ws: Workspace,
    /// Counters over the lifetime of this session.
    pub stats: SolverStats,
}

impl SolverSession {
    pub fn new() -> Self {
        Self::default()
    }

    /// Solve `model`, warm-starting from the previous solve's basis when
    /// the model shape matches. Validates the model first.
    pub fn solve(&mut self, model: &Model) -> Result<Solution, LpError> {
        model.validate()?;
        self.solve_unchecked(model)
    }

    /// [`SolverSession::solve`] without re-validating (for hot loops that
    /// mutate only bounds/rhs of an already-validated model).
    pub fn solve_unchecked(&mut self, model: &Model) -> Result<Solution, LpError> {
        let lp = standardize(model);
        self.solve_std(
            &lp,
            &model.objective,
            model.options().max_iterations,
            model.options().feas_tol,
            model.options().opt_tol,
        )
    }

    /// Re-solve a [`Prepared`] model. No model build, no standardization,
    /// no fingerprint hashing — just the solver core against the prepared
    /// arrays, warm-starting exactly like [`SolverSession::solve`] would.
    pub fn solve_prepared(&mut self, prep: &Prepared) -> Result<Solution, LpError> {
        self.solve_std(
            &prep.lp,
            &prep.objective,
            prep.max_iterations,
            prep.feas_tol,
            prep.opt_tol,
        )
    }

    /// The shared solve path: every route into the core — model-based or
    /// prepared — funnels through here, which is what makes the two
    /// byte-for-byte identical on identical standardized data.
    fn solve_std(
        &mut self,
        lp: &StdLp,
        objective: &LinExpr,
        max_iterations: usize,
        feas_tol: f64,
        opt_tol: f64,
    ) -> Result<Solution, LpError> {
        let warm = self
            .warm
            .take()
            .filter(|w| w.n_struct == lp.n_struct && w.m == lp.m);
        let mut core = Core::new(lp, &mut self.ws, max_iterations, feas_tol);
        let out = core.run(warm, opt_tol);
        let stats = core.stats;
        core.release(&mut self.ws);
        // Cache the basis even on Infeasible (a later bound relaxation can
        // still warm-start from it); drop it on numerical trouble.
        self.warm = match &out {
            Ok(_) | Err(LpError::Infeasible) | Err(LpError::Unbounded) => {
                self.ws.status.truncate(lp.ncols);
                Some(WarmKey {
                    n_struct: lp.n_struct,
                    m: lp.m,
                    matrix_fp: lp.matrix_fp,
                })
            }
            Err(_) => None,
        };
        self.stats.absorb(&stats);
        counters::record(&stats);
        let values = out?;
        let objective = objective.eval(&values);
        if !objective.is_finite() {
            return Err(LpError::Numerical("objective evaluated non-finite".into()));
        }
        Ok(Solution { objective, values })
    }

    /// Forget the cached basis (the next solve is cold). The workspace
    /// buffers stay, so the cold solve allocates no more than a warm one.
    pub fn reset(&mut self) {
        self.warm = None;
    }

    /// True if a basis is cached.
    pub fn has_warm_basis(&self) -> bool {
        self.warm.is_some()
    }

    /// A copy of the cached basis, or `None` when no basis is cached.
    pub fn snapshot(&self) -> Option<WarmBasis> {
        let key = self.warm?;
        let mut lu = Factorization::default();
        lu.copy_from(&self.ws.lu);
        Some(WarmBasis {
            key,
            status: self.ws.status.clone(),
            basis: self.ws.basis.clone(),
            lu,
        })
    }

    /// Cache `basis` in place of whatever is cached: the next solve
    /// starts from it exactly as it would have right after the solve
    /// [`SolverSession::snapshot`] copied it from. Each solve resets
    /// every other buffer it reads, so that solve's result is a function
    /// of `basis` and the model alone. Copies into the session's own
    /// buffers, so a restore allocates nothing once they are sized.
    pub fn restore(&mut self, basis: &WarmBasis) {
        self.ws.status.clone_from(&basis.status);
        self.ws.basis.clone_from(&basis.basis);
        self.ws.lu.copy_from(&basis.lu);
        self.warm = Some(basis.key);
    }
}

/// One-shot cold solve (what [`crate::simplex::solve`] calls).
pub fn solve(model: &Model) -> Result<Solution, LpError> {
    let mut session = SolverSession::new();
    session.solve_unchecked(model)
}

// ---------------------------------------------------------------------------
// Solver core
// ---------------------------------------------------------------------------

struct Core<'a> {
    lp: &'a StdLp,
    /// Artificial columns (cold phase 1 only): `(row, coeff)`, column
    /// index `lp.ncols + k`. Bounds `[0, art_hi[k]]`; `art_hi` drops to 0
    /// once phase 1 ends so artificials can never re-enter with value.
    art: Vec<(usize, f64)>,
    art_hi: Vec<f64>,
    status: Vec<Status>,
    /// Basic column per basis position.
    basis: Vec<usize>,
    /// Sparse product-form factorization of the basis.
    lu: Factorization,
    /// Values of the basic variables, per basis position.
    xb: Vec<f64>,
    m: usize,
    iters_left: usize,
    feas_tol: f64,
    stats: SolverStats,
    /// Reduced costs, maintained incrementally across pivots (confirmed
    /// fresh before any optimality claim).
    d: Vec<f64>,
    /// Devex reference-framework weights.
    devex: Vec<f64>,
    /// Row-space scratch (ftran input/output).
    work: Vec<f64>,
    /// Position-space image of the entering column.
    w_pos: Vec<f64>,
    /// Row-space scratch for btran (duals, pivot rows).
    rho: Vec<f64>,
    /// Pivot-row alphas (`ρ·a_j` per nonbasic column), cached so the dual
    /// candidate scan and the price maintenance of the same pivot share
    /// one btran + one matrix sweep instead of doing each twice.
    alpha: Vec<f64>,
    /// Cold-start scratch: each row's residual once the structurals rest
    /// at their bounds.
    resid: Vec<f64>,
    /// Warm-start scratch: nonbasic columns to flip to their other bound.
    flips: Vec<usize>,
}

/// What a primal phase should minimize.
#[derive(Clone, Copy)]
enum Objective {
    /// The model's own costs.
    Real,
    /// Sum of artificial variables.
    Phase1,
}

/// How trustworthy `Core::d` is on entry to a primal phase.
#[derive(Clone, Copy, PartialEq)]
enum DState {
    /// `d` holds exact reduced costs for this objective.
    Fresh,
    /// `d` was maintained across pivots — usable for pricing, but any
    /// optimality claim must be confirmed on recomputed values.
    Maintained,
    /// `d` is for a different objective/basis; recompute before pricing.
    Stale,
}

impl<'a> Core<'a> {
    /// A core working in `ws`'s buffers (taken, not copied). `status`,
    /// `basis` and `lu` keep the session's cached basis for
    /// [`Core::try_warm`]; a cold start overwrites them.
    fn new(lp: &'a StdLp, ws: &mut Workspace, max_iterations: usize, feas_tol: f64) -> Self {
        let Workspace {
            mut art,
            mut art_hi,
            status,
            basis,
            lu,
            xb,
            d,
            devex,
            mut work,
            mut w_pos,
            mut rho,
            alpha,
            resid,
            flips,
        } = std::mem::take(ws);
        art.clear();
        art_hi.clear();
        for v in [&mut work, &mut w_pos, &mut rho] {
            v.clear();
            v.resize(lp.m, 0.0);
        }
        Core {
            lp,
            art,
            art_hi,
            status,
            basis,
            lu,
            xb,
            m: lp.m,
            iters_left: max_iterations,
            feas_tol,
            stats: SolverStats::default(),
            d,
            devex,
            work,
            w_pos,
            rho,
            alpha,
            resid,
            flips,
        }
    }

    /// Hand the buffers (and with them the end-of-solve basis) back.
    fn release(self, ws: &mut Workspace) {
        *ws = Workspace {
            art: self.art,
            art_hi: self.art_hi,
            status: self.status,
            basis: self.basis,
            lu: self.lu,
            xb: self.xb,
            d: self.d,
            devex: self.devex,
            work: self.work,
            w_pos: self.w_pos,
            rho: self.rho,
            alpha: self.alpha,
            resid: self.resid,
            flips: self.flips,
        };
    }

    #[inline]
    fn ncols_total(&self) -> usize {
        self.lp.ncols + self.art.len()
    }

    #[inline]
    fn lo(&self, j: usize) -> f64 {
        if j < self.lp.ncols {
            self.lp.lo[j]
        } else {
            0.0
        }
    }

    #[inline]
    fn hi(&self, j: usize) -> f64 {
        if j < self.lp.ncols {
            self.lp.hi[j]
        } else {
            self.art_hi[j - self.lp.ncols]
        }
    }

    fn cost(&self, j: usize, obj: Objective) -> f64 {
        match obj {
            Objective::Real => {
                if j < self.lp.ncols {
                    self.lp.cost[j]
                } else {
                    0.0
                }
            }
            Objective::Phase1 => {
                if j < self.lp.ncols {
                    0.0
                } else {
                    1.0
                }
            }
        }
    }

    /// Resting value of a nonbasic column.
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.status[j] {
            Status::AtLower => self.lo(j),
            Status::AtUpper => self.hi(j),
            Status::Free => 0.0,
            Status::Basic => unreachable!("basic column has no resting value"),
        }
    }

    /// `work = B⁻¹ a_j` (row space) and `w_pos` (position space).
    fn ftran_col(&mut self, j: usize) {
        for x in self.work.iter_mut() {
            *x = 0.0;
        }
        {
            let (lp, art, work) = (self.lp, &self.art, &mut self.work);
            for &(r, v) in column(lp, art, j) {
                work[r] += v;
            }
        }
        self.lu.apply(&mut self.work);
        let (lu, work, w_pos) = (&self.lu, &self.work, &mut self.w_pos);
        for (k, w) in w_pos.iter_mut().enumerate() {
            *w = work[lu.row_of_pos(k)];
        }
    }

    /// Exact reduced costs for every column under `obj` (one btran + one
    /// sparse matrix sweep).
    fn compute_reduced_costs(&mut self, obj: Objective) {
        let nt = self.ncols_total();
        self.d.clear();
        self.d.resize(nt, 0.0);
        for x in self.rho.iter_mut() {
            *x = 0.0;
        }
        let mut any = false;
        for k in 0..self.m {
            let cb = self.cost(self.basis[k], obj);
            if cb != 0.0 {
                self.rho[self.lu.row_of_pos(k)] = cb;
                any = true;
            }
        }
        if any {
            self.lu.apply_transposed(&mut self.rho);
        }
        for j in 0..nt {
            if self.status[j] == Status::Basic {
                continue;
            }
            let mut dj = self.cost(j, obj);
            if any {
                for &(r, v) in column(self.lp, &self.art, j) {
                    dj -= self.rho[r] * v;
                }
            }
            self.d[j] = dj;
        }
    }

    /// Rebuild the factorization from the basis columns, resync `xb` and
    /// the reduced costs. `Err` when the basis matrix is singular — the
    /// product form had drifted beyond repair, surface it rather than
    /// iterating on garbage.
    fn refactor(&mut self, obj: Objective) -> Result<(), LpError> {
        if !self.refactor_basis() {
            return Err(LpError::Numerical(
                "basis became singular at refactorization".into(),
            ));
        }
        self.recompute_xb();
        self.compute_reduced_costs(obj);
        Ok(())
    }

    /// The factorization rebuild alone; `false` on a singular basis.
    fn refactor_basis(&mut self) -> bool {
        self.stats.refactorizations += 1;
        let (lp, art, basis) = (self.lp, &self.art, &self.basis);
        self.lu.rebuild(self.m, |k| column(lp, art, basis[k]))
    }

    /// `xb = B⁻¹ (b - N x_N)` from statuses.
    fn recompute_xb(&mut self) {
        self.work.copy_from_slice(&self.lp.b);
        let nt = self.ncols_total();
        for j in 0..nt {
            if self.status[j] == Status::Basic {
                continue;
            }
            let v = self.nonbasic_value(j);
            if v != 0.0 {
                let (lp, art, work) = (self.lp, &self.art, &mut self.work);
                for &(r, a) in column(lp, art, j) {
                    work[r] -= a * v;
                }
            }
        }
        self.lu.apply(&mut self.work);
        let (lu, work, xb) = (&self.lu, &self.work, &mut self.xb);
        for (k, x) in xb.iter_mut().enumerate() {
            *x = work[lu.row_of_pos(k)];
        }
    }

    fn charge_iteration(&mut self) -> Result<(), LpError> {
        if self.iters_left == 0 {
            return Err(LpError::IterationLimit {
                iterations: self.stats.iterations as usize + self.stats.dual_iterations as usize,
            });
        }
        self.iters_left -= 1;
        Ok(())
    }

    /// Maintain reduced costs and devex weights across the pivot at
    /// position `k` entering column `q`. Must run *before* statuses,
    /// basis, and factorization change; `w_pos` must hold the entering
    /// column's image. When `alphas_cached`, `self.alpha` already holds
    /// the pivot-row alphas for every nonbasic column (the dual candidate
    /// scan computed them against the same basis, so the values are
    /// bit-identical) and the btran + matrix sweep are skipped.
    fn maintain_prices(&mut self, k: usize, q: usize, alphas_cached: bool) {
        if !alphas_cached {
            let r_star = self.lu.row_of_pos(k);
            for x in self.rho.iter_mut() {
                *x = 0.0;
            }
            self.rho[r_star] = 1.0;
            self.lu.apply_transposed(&mut self.rho);
            let nt = self.ncols_total();
            self.alpha.clear();
            self.alpha.resize(nt, 0.0);
            let lp = self.lp;
            let art = &self.art;
            let status = &self.status;
            let rho = &self.rho;
            let alpha = &mut self.alpha;
            for (j, slot) in alpha.iter_mut().enumerate() {
                if status[j] == Status::Basic {
                    continue;
                }
                let mut a = 0.0;
                for &(r, v) in column(lp, art, j) {
                    a += rho[r] * v;
                }
                *slot = a;
            }
        }

        let alpha_q = self.w_pos[k];
        let theta_d = self.d[q] / alpha_q;
        let gamma_q = self.devex[q].max(1.0);
        let leaving = self.basis[k];
        {
            let status = &self.status;
            let alpha = &self.alpha;
            let d = &mut self.d;
            let devex = &mut self.devex;
            let nt = self.lp.ncols + self.art.len();
            for j in 0..nt {
                if j == q || status[j] == Status::Basic {
                    continue;
                }
                let a = alpha[j];
                if a != 0.0 {
                    d[j] -= theta_d * a;
                    let ratio = a / alpha_q;
                    let w = ratio * ratio * gamma_q;
                    if w > devex[j] {
                        devex[j] = w;
                    }
                }
            }
        }
        // The leaving variable re-enters the nonbasic set with the pivot
        // row's own alpha of 1.
        self.d[leaving] = -theta_d;
        self.devex[leaving] = (gamma_q / (alpha_q * alpha_q)).max(1.0);
        self.d[q] = 0.0;
        self.devex[q] = 1.0;
    }

    /// Execute the pivot: column `q` enters at position `k` moving `t` in
    /// direction `dir`; the leaving variable parks at `leaving_status`.
    /// Returns `true` if the reduced costs were recomputed exactly (a
    /// refactorization fired).
    fn pivot(
        &mut self,
        k: usize,
        q: usize,
        dir: f64,
        t: f64,
        leaving_status: Status,
        obj: Objective,
        alphas_cached: bool,
    ) -> Result<bool, LpError> {
        self.maintain_prices(k, q, alphas_cached);
        let entering_value = self.nonbasic_value(q) + dir * t;
        for i in 0..self.m {
            self.xb[i] -= dir * t * self.w_pos[i];
        }
        let leaving = self.basis[k];
        self.status[leaving] = leaving_status;
        self.status[q] = Status::Basic;
        self.basis[k] = q;
        self.xb[k] = entering_value;
        self.lu.push_update(&self.w_pos, k);
        if self.lu.updates() >= refactor_cadence(self.m) {
            self.refactor(obj)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Devex pricing over the maintained reduced costs; Bland's rule when
    /// `bland` (first eligible index).
    fn price(&self, opt_tol: f64, bland: bool) -> Option<(usize, f64)> {
        let mut pick: Option<(usize, f64)> = None;
        let mut best_score = 0.0f64;
        for j in 0..self.lp.ncols {
            // Artificials never re-enter; fixed columns cannot move.
            match self.status[j] {
                Status::Basic => continue,
                _ if self.lo(j) == self.hi(j) => continue,
                _ => {}
            }
            let dj = self.d[j];
            let (viol, dir) = match self.status[j] {
                Status::AtLower => (-dj, 1.0),
                Status::AtUpper => (dj, -1.0),
                Status::Free => (dj.abs(), if dj < 0.0 { 1.0 } else { -1.0 }),
                Status::Basic => unreachable!(),
            };
            if viol <= opt_tol {
                continue;
            }
            if bland {
                return Some((j, dir));
            }
            let score = viol * viol / self.devex[j];
            if score > best_score {
                best_score = score;
                pick = Some((j, dir));
            }
        }
        pick
    }

    /// Primal simplex on the current basis until optimal or unbounded.
    /// `d0` says whether `self.d` can be trusted on entry.
    fn primal(&mut self, obj: Objective, opt_tol: f64, d0: DState) -> Result<(), LpError> {
        if d0 == DState::Stale {
            self.compute_reduced_costs(obj);
        }
        let mut fresh = d0 != DState::Maintained;
        let nt = self.ncols_total();
        self.devex.clear();
        self.devex.resize(nt, 1.0);
        let mut bland = false;
        let mut degenerate_streak = 0usize;
        loop {
            self.charge_iteration()?;

            let mut picked = self.price(opt_tol, bland);
            if picked.is_none() && !fresh {
                // Maintained costs say optimal — confirm on exact values
                // before believing it.
                self.compute_reduced_costs(obj);
                fresh = true;
                picked = self.price(opt_tol, bland);
            }
            let Some((j, dir)) = picked else {
                return Ok(()); // optimal for this objective
            };

            self.ftran_col(j);

            // Ratio test: how far can x_j move by `t >= 0` in direction
            // `dir` before a basic variable (or x_j's own far bound)
            // blocks? Ties break toward the smallest basis column index —
            // deterministic, and Bland-compatible.
            let own_range = self.hi(j) - self.lo(j); // inf for free/one-sided
            let mut best_t = if own_range.is_finite() {
                own_range
            } else {
                f64::INFINITY
            };
            let mut leave: Option<usize> = None;
            for i in 0..self.m {
                let delta = -dir * self.w_pos[i]; // d x_Bi / d t
                let bj = self.basis[i];
                let limit = if delta < -PIVOT_TOL {
                    let lo = self.lo(bj);
                    if lo.is_finite() {
                        (self.xb[i] - lo) / -delta
                    } else {
                        f64::INFINITY
                    }
                } else if delta > PIVOT_TOL {
                    let hi = self.hi(bj);
                    if hi.is_finite() {
                        (hi - self.xb[i]) / delta
                    } else {
                        f64::INFINITY
                    }
                } else {
                    f64::INFINITY
                };
                let limit = limit.max(0.0); // degenerate overshoot clamps to 0
                if limit < best_t - 1e-12
                    || (limit < best_t + 1e-12 && leave.is_some_and(|lr| bj < self.basis[lr]))
                {
                    best_t = limit;
                    leave = Some(i);
                }
            }

            if !best_t.is_finite() {
                if !fresh {
                    // The unbounded ray was selected off maintained costs;
                    // re-verify against exact ones before declaring.
                    self.compute_reduced_costs(obj);
                    fresh = true;
                    continue;
                }
                return Err(LpError::Unbounded);
            }

            if best_t < 1e-12 {
                degenerate_streak += 1;
                if degenerate_streak >= DEGENERATE_STREAK_LIMIT {
                    bland = true;
                }
            } else {
                // The streak cleared: drop back to devex pricing instead
                // of crawling on Bland for the rest of the solve.
                degenerate_streak = 0;
                bland = false;
            }

            self.stats.iterations += 1;
            match leave {
                None => {
                    // Bound flip: x_j travels to its opposite bound. No
                    // basis change, so maintained costs stay valid.
                    for i in 0..self.m {
                        self.xb[i] -= dir * best_t * self.w_pos[i];
                    }
                    self.status[j] = match self.status[j] {
                        Status::AtLower => Status::AtUpper,
                        Status::AtUpper => Status::AtLower,
                        other => other, // free: cannot happen (infinite range)
                    };
                }
                Some(r) => {
                    // The leaving variable parks at whichever bound blocked.
                    let delta = -dir * self.w_pos[r];
                    let leaving_status = if delta < 0.0 {
                        Status::AtLower
                    } else {
                        Status::AtUpper
                    };
                    fresh = self.pivot(r, j, dir, best_t, leaving_status, obj, false)?;
                }
            }
        }
    }

    /// Dual simplex: restore primal feasibility while keeping reduced
    /// costs dual feasible. Requires a dual-feasible starting basis.
    /// `Err(Infeasible)` when a violated row has no entering candidate.
    fn dual(&mut self) -> Result<(), LpError> {
        let obj = Objective::Real;
        let nt = self.ncols_total();
        self.devex.clear();
        self.devex.resize(nt, 1.0);
        let mut bland = false;
        let mut degenerate_streak = 0usize;
        loop {
            self.charge_iteration()?;

            // Leaving position: the worst bound violation among basic vars.
            let mut leave: Option<(usize, f64)> = None; // (pos, violation signed)
            let mut worst = self.feas_tol;
            for i in 0..self.m {
                let bj = self.basis[i];
                let below = self.lo(bj) - self.xb[i];
                let above = self.xb[i] - self.hi(bj);
                let (v, signed) = if below > above {
                    (below, -below)
                } else {
                    (above, above)
                };
                if v > worst {
                    leave = Some((i, signed));
                    if bland {
                        break;
                    }
                    worst = v;
                }
            }
            let Some((r, signed_viol)) = leave else {
                return Ok(()); // primal feasible
            };

            // Pivot row ρ = (B⁻¹)' e_{r*}.
            for x in self.rho.iter_mut() {
                *x = 0.0;
            }
            self.rho[self.lu.row_of_pos(r)] = 1.0;
            self.lu.apply_transposed(&mut self.rho);

            // Entering candidate minimizing |d_j| / |alpha_j| among columns
            // whose movement repairs the violation without breaking their
            // own status direction. The scan caches every nonbasic alpha
            // (fixed and artificial columns included) so the price
            // maintenance of the chosen pivot reuses them instead of
            // redoing the btran + matrix sweep.
            let below = signed_viol < 0.0; // x_Br below its lower bound
            let mut best: Option<(usize, f64, f64)> = None; // (col, ratio, alpha)
            let nt_scan = self.ncols_total();
            self.alpha.clear();
            self.alpha.resize(nt_scan, 0.0);
            for j in 0..nt_scan {
                if self.status[j] == Status::Basic {
                    continue;
                }
                let mut alpha = 0.0;
                for &(row, v) in column(self.lp, &self.art, j) {
                    alpha += self.rho[row] * v;
                }
                self.alpha[j] = alpha;
                // Artificials never re-enter; fixed columns cannot move.
                if j >= self.lp.ncols || self.lo(j) == self.hi(j) {
                    continue;
                }
                if alpha.abs() <= PIVOT_TOL {
                    continue;
                }
                // x_Br moves by -alpha * dx_j. To raise x_Br (below): need
                // alpha*dx_j < 0; to lower it: alpha*dx_j > 0.
                let usable = match self.status[j] {
                    Status::AtLower => {
                        // dx_j >= 0
                        if below {
                            alpha < 0.0
                        } else {
                            alpha > 0.0
                        }
                    }
                    Status::AtUpper => {
                        // dx_j <= 0
                        if below {
                            alpha > 0.0
                        } else {
                            alpha < 0.0
                        }
                    }
                    Status::Free => true,
                    Status::Basic => unreachable!(),
                };
                if !usable {
                    continue;
                }
                let ratio = (self.d[j].abs() / alpha.abs()).max(0.0);
                // Scanning j ascending means ties already resolve to the
                // smallest column index: only strictly better ratios win.
                let better = match &best {
                    None => true,
                    Some((_, br, _)) => ratio < br - 1e-12,
                };
                if better {
                    best = Some((j, ratio, alpha));
                }
            }
            let Some((j, _ratio, alpha)) = best else {
                // The violated row cannot be repaired: primal infeasible.
                return Err(LpError::Infeasible);
            };

            // Step length: drive x_Br exactly to the violated bound.
            let bj = self.basis[r];
            let target = if below { self.lo(bj) } else { self.hi(bj) };
            let dxj = (self.xb[r] - target) / alpha;
            let t = dxj.abs();
            let dir = if dxj >= 0.0 { 1.0 } else { -1.0 };

            if t < 1e-12 {
                degenerate_streak += 1;
                if degenerate_streak >= DEGENERATE_STREAK_LIMIT {
                    bland = true;
                }
            } else {
                degenerate_streak = 0;
                bland = false;
            }

            self.ftran_col(j);
            self.stats.dual_iterations += 1;
            let leaving_status = if below {
                Status::AtLower
            } else {
                Status::AtUpper
            };
            self.pivot(r, j, dir, t, leaving_status, obj, true)?;
        }
    }

    /// Cold start: slack basis, artificials where the slack bounds reject
    /// the residual, then phase 1 (minimize artificial mass).
    fn cold_start(&mut self, opt_tol: f64) -> Result<(), LpError> {
        self.stats.cold_starts += 1;
        let lp = self.lp;
        self.art.clear();
        self.art_hi.clear();
        self.status.clear();
        self.status.resize(lp.ncols, Status::AtLower);
        for j in 0..lp.n_struct {
            self.status[j] = if lp.lo[j].is_finite() {
                Status::AtLower
            } else if lp.hi[j].is_finite() {
                Status::AtUpper
            } else {
                Status::Free
            };
        }
        // Residual per row once the structurals rest at their bounds.
        let mut resid = std::mem::take(&mut self.resid);
        resid.clear();
        resid.extend_from_slice(&lp.b);
        for j in 0..lp.n_struct {
            let v = self.nonbasic_value(j);
            if v != 0.0 {
                for &(r, a) in &lp.cols[j] {
                    resid[r] -= a * v;
                }
            }
        }
        self.basis.clear();
        self.xb.clear();
        self.xb.resize(self.m, 0.0);
        for r in 0..self.m {
            let s = lp.n_struct + r;
            let (slo, shi) = (lp.lo[s], lp.hi[s]);
            if resid[r] >= slo - self.feas_tol && resid[r] <= shi + self.feas_tol {
                self.status[s] = Status::Basic;
                self.basis.push(s);
                self.xb[r] = resid[r];
            } else {
                // Park the slack at the bound nearest the residual and
                // cover the rest with an artificial of positive value.
                let parked = if resid[r] < slo { slo } else { shi };
                self.status[s] = if parked == slo {
                    Status::AtLower
                } else {
                    Status::AtUpper
                };
                let art_v = resid[r] - parked;
                let coeff = if art_v >= 0.0 { 1.0 } else { -1.0 };
                self.art.push((r, coeff));
                self.art_hi.push(f64::INFINITY);
                self.status.push(Status::Basic);
                let aj = lp.ncols + self.art.len() - 1;
                self.basis.push(aj);
                self.xb[r] = art_v.abs();
            }
        }
        self.resid = resid;
        // The starting basis matrix is diagonal (slack +1 / artificial ±1):
        // its factorization is m trivial single-entry etas.
        if !self.refactor_basis() {
            return Err(LpError::Numerical("singular initial basis".into()));
        }

        if !self.art.is_empty() {
            self.primal(Objective::Phase1, opt_tol, DState::Stale)?;
            let infeas: f64 = (0..self.m)
                .filter(|&i| self.basis[i] >= lp.ncols)
                .map(|i| self.xb[i])
                .sum();
            if infeas > self.feas_tol {
                return Err(LpError::Infeasible);
            }
            // Pin artificials to zero forever; basic zero-valued ones may
            // stay (degenerate) — their bounds keep them at 0.
            for h in self.art_hi.iter_mut() {
                *h = 0.0;
            }
            // Where possible, swap a still-basic artificial for any
            // structural/slack column with a nonzero pivot-row entry. The
            // swaps are degenerate (t = 0): values are unchanged, and the
            // reduced costs are recomputed at the next phase start anyway.
            for r in 0..self.m {
                if self.basis[r] < lp.ncols {
                    continue;
                }
                for x in self.rho.iter_mut() {
                    *x = 0.0;
                }
                self.rho[self.lu.row_of_pos(r)] = 1.0;
                self.lu.apply_transposed(&mut self.rho);
                let mut candidate = None;
                for j in 0..lp.ncols {
                    if self.status[j] == Status::Basic {
                        continue;
                    }
                    let mut alpha = 0.0;
                    for &(row, v) in column(lp, &self.art, j) {
                        alpha += self.rho[row] * v;
                    }
                    if alpha.abs() > 1e-7 {
                        candidate = Some(j);
                        break;
                    }
                }
                if let Some(j) = candidate {
                    self.ftran_col(j);
                    let old = self.basis[r];
                    self.status[old] = Status::AtLower; // value 0, bounds [0,0]
                    self.status[j] = Status::Basic;
                    self.basis[r] = j;
                    self.lu.push_update(&self.w_pos, r);
                    if self.lu.updates() >= refactor_cadence(self.m) {
                        self.refactor(Objective::Real)?;
                    }
                    self.recompute_xb();
                }
            }
        }
        Ok(())
    }

    /// Full solve: optional warm basis, then phases as needed. Returns the
    /// structural variable values.
    fn run(&mut self, warm: Option<WarmKey>, opt_tol: f64) -> Result<Vec<f64>, LpError> {
        self.stats.solves += 1;
        let mut warmed = false;
        if let Some(w) = warm {
            warmed = self.try_warm(w, opt_tol)?;
        }
        if !warmed {
            self.cold_start(opt_tol)?;
            self.primal(Objective::Real, opt_tol, DState::Stale)?;
        }
        self.extract()
    }

    /// Attempt the warm path. `Ok(true)` if it ran to optimality,
    /// `Ok(false)` to request a cold start, `Err` on a definitive status.
    /// The cached basis is the one `Core::new` took over from the session.
    fn try_warm(&mut self, w: WarmKey, opt_tol: f64) -> Result<bool, LpError> {
        let lp = self.lp;
        if self.basis.len() != self.m || self.status.len() != lp.ncols {
            return Ok(false);
        }
        if self.basis.iter().any(|&j| j >= lp.ncols) {
            return Ok(false);
        }
        // Re-anchor nonbasic statuses against the (possibly changed) bounds.
        for j in 0..lp.ncols {
            if self.status[j] == Status::Basic {
                continue;
            }
            self.status[j] = match (lp.lo[j].is_finite(), lp.hi[j].is_finite()) {
                (true, true) => {
                    if self.status[j] == Status::AtUpper {
                        Status::AtUpper
                    } else {
                        Status::AtLower
                    }
                }
                (true, false) => Status::AtLower,
                (false, true) => Status::AtUpper,
                (false, false) => Status::Free,
            };
        }
        self.xb.clear();
        self.xb.resize(self.m, 0.0);
        if w.matrix_fp == lp.matrix_fp
            && self.lu.dim() == self.m
            && self.lu.updates() < refactor_cadence(self.m)
        {
            // Same constraint matrix: the donor's factorization is still
            // exact for this model — only bounds/rhs moved. Reuse it as-is
            // (no refactorization) and keep its update-count cadence. A
            // donor at or past the refactor cadence rebuilds instead: its
            // eta chain would tax every ftran/btran of this solve.
            self.recompute_xb();
        } else {
            // Different matrix (or incompatible factorization): rebuild
            // from the basis columns; a singular basis falls back cold.
            if !self.refactor_basis() {
                return Ok(false);
            }
            self.recompute_xb();
        }

        // Dual feasibility of the cached basis under the new costs/bounds.
        // A nonbasic column with a wrong-signed reduced cost is *repairable*
        // when its opposite bound is finite: parking it there (a bound
        // flip) makes the sign correct. Best-first branch-and-bound hops
        // between subtrees, un-fixing variables the donor basis had fixed —
        // flips are what keep those hops warm.
        self.compute_reduced_costs(Objective::Real);
        let mut dual_ok = true;
        self.flips.clear();
        for j in 0..lp.ncols {
            if self.status[j] == Status::Basic || lp.lo[j] == lp.hi[j] {
                continue;
            }
            let d = self.d[j];
            match self.status[j] {
                Status::AtLower if d < -DUAL_TOL => {
                    if lp.hi[j].is_finite() {
                        self.flips.push(j);
                    } else {
                        dual_ok = false;
                        break;
                    }
                }
                Status::AtUpper if d > DUAL_TOL => {
                    if lp.lo[j].is_finite() {
                        self.flips.push(j);
                    } else {
                        dual_ok = false;
                        break;
                    }
                }
                Status::Free if d.abs() > DUAL_TOL => {
                    dual_ok = false;
                    break;
                }
                _ => {}
            }
        }

        let primal_feasible = |core: &Core<'_>| {
            (0..core.m).all(|i| {
                let bj = core.basis[i];
                core.xb[i] >= core.lo(bj) - core.feas_tol
                    && core.xb[i] <= core.hi(bj) + core.feas_tol
            })
        };

        if dual_ok {
            if !self.flips.is_empty() {
                for &j in &self.flips {
                    self.status[j] = match self.status[j] {
                        Status::AtLower => Status::AtUpper,
                        Status::AtUpper => Status::AtLower,
                        other => other,
                    };
                }
                // Flips move nonbasic resting values, not the basis: the
                // reduced costs stay exact.
                self.recompute_xb();
            }
            self.stats.warm_hits += 1;
            if primal_feasible(self) {
                // Already feasible: the exact costs we just computed feed
                // straight into the (usually zero-pivot) certifying pass.
                self.primal(Objective::Real, opt_tol, DState::Fresh)?;
            } else {
                self.dual()?;
                self.primal(Objective::Real, opt_tol, DState::Maintained)?;
            }
            return Ok(true);
        }

        // Dual-unrepairable: the basis is still worth keeping if the point
        // itself is feasible — plain primal simplex finishes the job.
        if primal_feasible(self) {
            self.stats.warm_hits += 1;
            self.primal(Objective::Real, opt_tol, DState::Fresh)?;
            return Ok(true);
        }
        Ok(false)
    }

    fn extract(&self) -> Result<Vec<f64>, LpError> {
        let lp = self.lp;
        let mut values = vec![0.0; lp.n_struct];
        for j in 0..lp.n_struct {
            values[j] = match self.status[j] {
                Status::AtLower => lp.lo[j],
                Status::AtUpper => lp.hi[j],
                Status::Free => 0.0,
                Status::Basic => 0.0, // filled below
            };
        }
        for (i, &bj) in self.basis.iter().enumerate() {
            if bj < lp.n_struct {
                let mut v = self.xb[i];
                if !v.is_finite() {
                    return Err(LpError::Numerical(format!(
                        "basic value non-finite in row {i}"
                    )));
                }
                // Snap tiny bound violations (dual/warm tolerance dust).
                if lp.lo[bj].is_finite() && v < lp.lo[bj] {
                    v = lp.lo[bj];
                }
                if lp.hi[bj].is_finite() && v > lp.hi[bj] {
                    v = lp.hi[bj];
                }
                values[bj] = v;
            }
        }
        Ok(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, Model, Sense, VarType};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn two_var_max() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_constr("c1", x + y, Cmp::Le, 4.0);
        m.add_constr("c2", x + y * 3.0, Cmp::Le, 6.0);
        m.set_objective(x * 3.0 + y * 2.0);
        let s = solve(&m).unwrap();
        assert_close(s.objective, 12.0);
    }

    #[test]
    fn bounded_vars_without_bound_rows() {
        // Two-sided bounds solved natively: optimum at the upper bounds.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 1.0, 3.0);
        let y = m.add_var("y", VarType::Continuous, -2.0, 2.0);
        m.add_constr("c", x + y, Cmp::Le, 4.5);
        m.set_objective(x + y);
        let s = solve(&m).unwrap();
        assert_close(s.objective, 4.5);
        assert!(m.check_feasible(&s.values, 1e-6).is_none());
    }

    #[test]
    fn ge_and_eq_rows_need_phase1() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarType::Continuous, 2.0, f64::INFINITY);
        let y = m.add_var("y", VarType::Continuous, 3.0, f64::INFINITY);
        m.add_constr("sum", x + y, Cmp::Ge, 10.0);
        m.set_objective(x * 2.0 + y * 3.0);
        let s = solve(&m).unwrap();
        assert_close(s.objective, 23.0);
    }

    #[test]
    fn equality_system() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_constr("e1", x + y, Cmp::Eq, 5.0);
        m.add_constr("e2", x - y, Cmp::Eq, 1.0);
        m.set_objective(x + y);
        let s = solve(&m).unwrap();
        assert_close(s.value(x), 3.0);
        assert_close(s.value(y), 2.0);
    }

    #[test]
    fn infeasible_and_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 0.0, 1.0);
        m.add_constr("hi", x + 0.0, Cmp::Ge, 2.0);
        m.set_objective(x + 0.0);
        assert_eq!(solve(&m).unwrap_err(), LpError::Infeasible);

        let mut m2 = Model::new(Sense::Maximize);
        let z = m2.add_nonneg("z");
        m2.set_objective(z + 0.0);
        assert_eq!(solve(&m2).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn free_and_upper_only_vars() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarType::Continuous, f64::NEG_INFINITY, f64::INFINITY);
        m.add_constr("lb", x + 0.0, Cmp::Ge, -5.0);
        m.set_objective(x + 0.0);
        assert_close(solve(&m).unwrap().objective, -5.0);

        let mut m2 = Model::new(Sense::Maximize);
        let u = m2.add_var("u", VarType::Continuous, f64::NEG_INFINITY, 3.0);
        m2.set_objective(u + 0.0);
        assert_close(solve(&m2).unwrap().objective, 3.0);
    }

    #[test]
    fn fixed_variable() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 2.5, 2.5);
        let y = m.add_var("y", VarType::Continuous, 0.0, 10.0);
        m.add_constr("c", x + y, Cmp::Le, 4.0);
        m.set_objective(x + y);
        let s = solve(&m).unwrap();
        assert_close(s.value(x), 2.5);
        assert_close(s.value(y), 1.5);
    }

    #[test]
    fn degenerate_origin_terminates() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        for i in 0..20 {
            m.add_constr(
                format!("r{i}"),
                x + y * (1.0 + i as f64 * 0.01),
                Cmp::Le,
                0.0,
            );
        }
        m.set_objective(x + y);
        assert_close(solve(&m).unwrap().objective, 0.0);
    }

    #[test]
    fn transportation() {
        let mut m = Model::new(Sense::Minimize);
        let mut x = Vec::new();
        for i in 0..2 {
            for j in 0..2 {
                x.push(m.add_nonneg(format!("x{i}{j}")));
            }
        }
        m.add_constr("s0", x[0] + x[1], Cmp::Le, 10.0);
        m.add_constr("s1", x[2] + x[3], Cmp::Le, 20.0);
        m.add_constr("d0", x[0] + x[2], Cmp::Ge, 15.0);
        m.add_constr("d1", x[1] + x[3], Cmp::Ge, 15.0);
        m.set_objective(x[0] * 1.0 + x[1] * 2.0 + x[2] * 3.0 + x[3] * 1.0);
        assert_close(solve(&m).unwrap().objective, 40.0);
    }

    #[test]
    fn warm_start_after_rhs_change_skips_phase1() {
        // A max-flow-shaped LP re-solved with new rhs: the second solve
        // must be a warm hit with no cold start.
        let mut session = SolverSession::new();
        let build = |d1: f64, d2: f64| {
            let mut m = Model::new(Sense::Maximize);
            let f1 = m.add_nonneg("f1");
            let f2 = m.add_nonneg("f2");
            m.add_constr("dem1", f1 + 0.0, Cmp::Le, d1);
            m.add_constr("dem2", f2 + 0.0, Cmp::Le, d2);
            m.add_constr("cap", f1 + f2, Cmp::Le, 120.0);
            m.set_objective(f1 + f2);
            m
        };
        let s1 = session.solve(&build(50.0, 100.0)).unwrap();
        assert_close(s1.objective, 120.0);
        assert_eq!(session.stats.cold_starts, 1);
        let s2 = session.solve(&build(30.0, 60.0)).unwrap();
        assert_close(s2.objective, 90.0);
        assert_eq!(session.stats.cold_starts, 1, "second solve must be warm");
        assert_eq!(session.stats.warm_hits, 1);
    }

    #[test]
    fn warm_start_after_bound_tightening_uses_dual_steps() {
        // Branch-and-bound shape: tighten a variable's bounds, re-solve.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 0.0, 10.0);
        let y = m.add_var("y", VarType::Continuous, 0.0, 10.0);
        m.add_constr("c", x * 2.0 + y * 2.0, Cmp::Le, 11.0);
        m.set_objective(x + y);
        let mut session = SolverSession::new();
        let s1 = session.solve(&m).unwrap();
        assert_close(s1.objective, 5.5);
        m.set_var_bounds(x, 0.0, 2.0);
        let s2 = session.solve(&m).unwrap();
        assert_close(s2.objective, 5.5); // y picks up the slack
        m.set_var_bounds(y, 0.0, 1.0);
        let s3 = session.solve(&m).unwrap();
        assert_close(s3.objective, 3.0);
        assert_eq!(session.stats.cold_starts, 1);
        assert_eq!(session.stats.warm_hits, 2);
    }

    #[test]
    fn warm_start_detects_infeasibility() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 0.0, 10.0);
        m.add_constr("need", x + 0.0, Cmp::Ge, 4.0);
        m.set_objective(x + 0.0);
        let mut session = SolverSession::new();
        session.solve(&m).unwrap();
        m.set_var_bounds(x, 0.0, 3.0);
        assert_eq!(session.solve(&m).unwrap_err(), LpError::Infeasible);
        // ...and recovers when the bound relaxes again.
        m.set_var_bounds(x, 0.0, 10.0);
        assert_close(session.solve(&m).unwrap().objective, 10.0);
    }

    #[test]
    fn session_shape_change_falls_back_to_cold() {
        let mut session = SolverSession::new();
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 0.0, 1.0);
        m.set_objective(x + 0.0);
        session.solve(&m).unwrap();
        let mut m2 = Model::new(Sense::Maximize);
        let a = m2.add_var("a", VarType::Continuous, 0.0, 1.0);
        let b = m2.add_var("b", VarType::Continuous, 0.0, 1.0);
        m2.add_constr("c", a + b, Cmp::Le, 1.5);
        m2.set_objective(a + b);
        let s = session.solve(&m2).unwrap();
        assert_close(s.objective, 1.5);
        assert_eq!(session.stats.cold_starts, 2);
    }

    #[test]
    fn negative_rhs_rows() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 0.0, 10.0);
        let y = m.add_var("y", VarType::Continuous, 0.0, 10.0);
        m.add_constr("c", x - y, Cmp::Le, -1.0);
        m.set_objective(x + 0.0);
        assert_close(solve(&m).unwrap().objective, 9.0);
    }

    #[test]
    fn objective_constant_carried() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 0.0, 1.0);
        m.set_objective(x + 41.0);
        assert_close(solve(&m).unwrap().objective, 42.0);
    }

    #[test]
    fn feasibility_only_model() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarType::Continuous, 0.0, 10.0);
        let y = m.add_var("y", VarType::Continuous, 0.0, 10.0);
        m.add_constr("c", x + y, Cmp::Eq, 7.0);
        let s = solve(&m).unwrap();
        assert!(m.check_feasible(&s.values, 1e-6).is_none());
    }

    #[test]
    fn mixed_bounds_feasible_solution() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarType::Continuous, -3.0, 8.0);
        let y = m.add_var("y", VarType::Continuous, f64::NEG_INFINITY, 4.0);
        m.add_constr("c1", x * 2.0 + y, Cmp::Le, 10.0);
        m.add_constr("c2", x - y, Cmp::Ge, -2.0);
        m.set_objective(x + y * 0.5);
        let s = solve(&m).unwrap();
        assert!(m.check_feasible(&s.values, 1e-6).is_none());
    }

    #[test]
    fn redundant_equalities_ok() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 0.0, 1.5);
        let y = m.add_var("y", VarType::Continuous, 0.0, 1.5);
        m.add_constr("e1", x + y, Cmp::Eq, 2.0);
        m.add_constr("e2", x + y, Cmp::Eq, 2.0);
        m.set_objective(x + 0.0);
        let s = solve(&m).unwrap();
        assert_close(s.value(x), 1.5);
        assert_close(s.value(y), 0.5);
    }

    /// One production-shaped model used by the prepared-API tests.
    fn flow_model(d1: f64, d2: f64, cap: f64) -> Model {
        let mut m = Model::new(Sense::Maximize);
        let f1 = m.add_nonneg("f1");
        let f2 = m.add_nonneg("f2");
        m.add_constr("dem1", f1 + 0.0, Cmp::Le, d1);
        m.add_constr("dem2", f2 + 0.0, Cmp::Le, d2);
        m.add_constr("cap", f1 + f2, Cmp::Le, cap);
        m.set_objective(f1 + f2);
        m
    }

    #[test]
    fn prepared_matches_model_path_bitwise() {
        // The byte-for-byte contract: a prepared re-solve must equal the
        // materialize-and-solve path through an identically warmed session.
        let mut prep = Prepared::new(&flow_model(50.0, 100.0, 120.0)).unwrap();
        let mut s_prep = SolverSession::new();
        let mut s_model = SolverSession::new();
        let sweeps = [(50.0, 100.0), (30.0, 60.0), (90.0, 10.0), (0.0, 200.0)];
        for &(d1, d2) in &sweeps {
            prep.set_rhs(0, d1);
            prep.set_rhs(1, d2);
            let a = s_prep.solve_prepared(&prep).unwrap();
            let b = s_model.solve_unchecked(&flow_model(d1, d2, 120.0)).unwrap();
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            assert_eq!(a.values.len(), b.values.len());
            for (x, y) in a.values.iter().zip(&b.values) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(s_prep.stats, s_model.stats);
        assert_eq!(s_prep.stats.cold_starts, 1);
        assert_eq!(s_prep.stats.warm_hits, 3);
    }

    /// Two demands over three paths sharing two links: the max-flow
    /// optimum is not unique, so the vertex a solve lands on depends on
    /// where it starts.
    fn shared_links_model() -> Prepared {
        let mut m = Model::new(Sense::Maximize);
        let f = [m.add_nonneg("a0"), m.add_nonneg("a1"), m.add_nonneg("b0")];
        m.add_constr("dem_a", f[0] + f[1], Cmp::Le, 0.0);
        m.add_constr("dem_b", f[2] + 0.0, Cmp::Le, 0.0);
        m.add_constr("link0", f[0] + f[2], Cmp::Le, 60.0);
        m.add_constr("link1", f[1] + f[2], Cmp::Le, 80.0);
        m.set_objective(f[0] + f[1] + f[2]);
        Prepared::new(&m).unwrap()
    }

    #[test]
    fn restored_basis_solves_the_same_bits_whatever_came_before() {
        let mut prep = shared_links_model();
        let mut solve_at = |session: &mut SolverSession, a: f64, b: f64| {
            prep.set_rhs(0, a);
            prep.set_rhs(1, b);
            session.solve_prepared(&prep).unwrap()
        };
        let mut anchor_session = SolverSession::new();
        solve_at(&mut anchor_session, 50.0, 50.0);
        let anchor = anchor_session.snapshot().unwrap();

        let bits = |s: &Solution| {
            let mut v: Vec<u64> = s.values.iter().map(|x| x.to_bits()).collect();
            v.push(s.objective.to_bits());
            v
        };
        let targets = [(90.0, 10.0), (20.0, 70.0), (100.0, 100.0), (0.0, 40.0)];
        let mut fresh = SolverSession::new();
        let expected: Vec<Vec<u64>> = targets
            .iter()
            .map(|&(a, b)| {
                fresh.restore(&anchor);
                bits(&solve_at(&mut fresh, a, b))
            })
            .collect();

        let mut other_shape = Model::new(Sense::Maximize);
        let x = other_shape.add_var("x", VarType::Continuous, 0.0, 1.0);
        other_shape.set_objective(x + 0.0);
        let mut session = SolverSession::new();
        for (round, &(a, b)) in targets.iter().cycle().take(12).enumerate() {
            // A different history before every restore: earlier points,
            // another shape, a reset, or nothing at all.
            match round % 4 {
                0 => {
                    solve_at(&mut session, b, a);
                    solve_at(&mut session, 100.0 - a, 5.0);
                }
                1 => {
                    session.solve(&other_shape).unwrap();
                }
                2 => session.reset(),
                _ => {}
            }
            session.restore(&anchor);
            let before = session.stats;
            let got = bits(&solve_at(&mut session, a, b));
            let work = session.stats.diff(&before);
            assert_eq!(got, expected[round % targets.len()], "round {round}");
            assert_eq!((work.warm_hits, work.cold_starts), (1, 0), "round {round}");
        }
    }

    #[test]
    fn prepared_rhs_roundtrip_and_bounds() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 0.0, 4.0);
        m.add_constr("c", x + 1.5, Cmp::Le, 10.0); // constant part 1.5
        m.set_objective(x + 0.0);
        let mut prep = Prepared::new(&m).unwrap();
        assert_eq!(prep.num_vars(), 1);
        assert_eq!(prep.num_constraints(), 1);
        assert_close(prep.rhs(0), 10.0);
        prep.set_rhs(0, 3.0);
        assert_close(prep.rhs(0), 3.0);
        // The constant part must still be honored: x <= 3 - 1.5.
        let s = SolverSession::new().solve_prepared(&prep).unwrap();
        assert_close(s.objective, 1.5);
        prep.set_var_bounds(x, 0.0, 1.0);
        assert_eq!(prep.var_bounds(x), (0.0, 1.0));
        let s2 = SolverSession::new().solve_prepared(&prep).unwrap();
        assert_close(s2.objective, 1.0);
    }
}
