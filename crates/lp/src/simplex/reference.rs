//! Dense two-phase primal simplex — the **reference oracle**.
//!
//! This is the original solver of the reproduction, kept alive verbatim as
//! the slow-but-trusted oracle for the differential test-bed
//! (`crates/lp/tests/differential.rs`) and the baseline of the
//! `solver_speed` gates (`crates/analyzer/tests/solver_speed.rs`). The
//! production hot path is [`crate::revised`]; two-sided variable bounds
//! here become explicit `y <= hi - lo` constraint rows, which is exactly
//! the overhead the revised solver removes.
//!
//! The solver converts a [`Model`] to standard form (`min c'y, Ay = b, y >= 0`)
//! by shifting/splitting bounded and free variables, then runs phase 1 with
//! artificial variables and phase 2 with the true objective. Dantzig pricing
//! is used until a degeneracy streak is detected, after which Bland's rule
//! guarantees termination.
//!
//! Targets the model sizes XPlain generates (up to a few thousand variables
//! and constraints); all arithmetic is dense `f64`.

use crate::error::LpError;
use crate::model::{Cmp, Model, Sense, Solution};

/// How a model variable maps onto nonnegative standard-form columns.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = lo + y[col]`
    Shift { col: usize, lo: f64 },
    /// `x = hi - y[col]` (used when only an upper bound is finite)
    NegShift { col: usize, hi: f64 },
    /// `x = y[pos] - y[neg]` (free variable)
    Free { pos: usize, neg: usize },
}

/// A standard-form row before slack/artificial augmentation.
struct StdRow {
    coeffs: Vec<(usize, f64)>,
    cmp: Cmp,
    rhs: f64,
}

/// Result of standard-form conversion.
struct StdForm {
    maps: Vec<VarMap>,
    n_y: usize,
    rows: Vec<StdRow>,
    /// Cost vector over y (always a minimization).
    costs: Vec<f64>,
}

fn standardize(model: &Model) -> Result<StdForm, LpError> {
    let mut maps = Vec::with_capacity(model.vars.len());
    let mut n_y = 0usize;
    let mut rows: Vec<StdRow> = Vec::new();

    for v in &model.vars {
        let lo_fin = v.lo.is_finite();
        let hi_fin = v.hi.is_finite();
        let map = match (lo_fin, hi_fin) {
            (true, true) => {
                let col = n_y;
                n_y += 1;
                // y <= hi - lo keeps the two-sided bound.
                rows.push(StdRow {
                    coeffs: vec![(col, 1.0)],
                    cmp: Cmp::Le,
                    rhs: v.hi - v.lo,
                });
                VarMap::Shift { col, lo: v.lo }
            }
            (true, false) => {
                let col = n_y;
                n_y += 1;
                VarMap::Shift { col, lo: v.lo }
            }
            (false, true) => {
                let col = n_y;
                n_y += 1;
                VarMap::NegShift { col, hi: v.hi }
            }
            (false, false) => {
                let pos = n_y;
                let neg = n_y + 1;
                n_y += 2;
                VarMap::Free { pos, neg }
            }
        };
        maps.push(map);
    }

    // Substitute the mapping into each constraint.
    for c in &model.constraints {
        let mut coeffs: Vec<(usize, f64)> = Vec::with_capacity(c.expr.len() * 2);
        let mut rhs = c.rhs - c.expr.constant_part();
        for (var, coef) in c.expr.iter() {
            if coef == 0.0 {
                continue;
            }
            match maps[var.index()] {
                VarMap::Shift { col, lo } => {
                    coeffs.push((col, coef));
                    rhs -= coef * lo;
                }
                VarMap::NegShift { col, hi } => {
                    coeffs.push((col, -coef));
                    rhs -= coef * hi;
                }
                VarMap::Free { pos, neg } => {
                    coeffs.push((pos, coef));
                    coeffs.push((neg, -coef));
                }
            }
        }
        rows.push(StdRow {
            coeffs,
            cmp: c.cmp,
            rhs,
        });
    }

    // Cost vector (minimization): substitute objective, drop constants.
    let mut costs = vec![0.0; n_y];
    let sign = match model.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    for (var, coef) in model.objective.iter() {
        match maps[var.index()] {
            VarMap::Shift { col, .. } => costs[col] += sign * coef,
            VarMap::NegShift { col, .. } => costs[col] -= sign * coef,
            VarMap::Free { pos, neg } => {
                costs[pos] += sign * coef;
                costs[neg] -= sign * coef;
            }
        }
    }

    Ok(StdForm {
        maps,
        n_y,
        rows,
        costs,
    })
}

/// Dense tableau with an attached reduced-cost row.
struct Tableau {
    /// m x (ncols+1); last column is the rhs.
    a: Vec<f64>,
    /// reduced-cost row, length ncols+1; last entry is -objective.
    z: Vec<f64>,
    m: usize,
    ncols: usize,
    basis: Vec<usize>,
    /// First artificial column index (columns >= this are artificial).
    art_start: usize,
    /// Rows proved redundant in phase 1 (all-zero).
    dead_rows: Vec<bool>,
}

impl Tableau {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * (self.ncols + 1) + c]
    }

    #[inline]
    fn at_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.a[r * (self.ncols + 1) + c]
    }

    #[inline]
    fn rhs(&self, r: usize) -> f64 {
        self.at(r, self.ncols)
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let w = self.ncols + 1;
        let p = self.a[row * w + col];
        debug_assert!(p.abs() > 1e-12, "pivot on (near) zero element");
        let inv = 1.0 / p;
        for j in 0..w {
            self.a[row * w + j] *= inv;
        }
        // Clean the pivot column exactly.
        self.a[row * w + col] = 1.0;
        for r in 0..self.m {
            if r == row {
                continue;
            }
            let f = self.a[r * w + col];
            if f == 0.0 {
                continue;
            }
            for j in 0..w {
                self.a[r * w + j] -= f * self.a[row * w + j];
            }
            self.a[r * w + col] = 0.0;
        }
        let f = self.z[col];
        if f != 0.0 {
            for j in 0..w {
                self.z[j] -= f * self.a[row * w + j];
            }
            self.z[col] = 0.0;
        }
        self.basis[row] = col;
    }
}

const PIVOT_TOL: f64 = 1e-9;
const DEGENERATE_STREAK_LIMIT: usize = 64;

/// Run the simplex loop on the tableau until optimal / unbounded / limit.
/// `allowed` restricts which columns may enter the basis.
fn iterate(
    t: &mut Tableau,
    opt_tol: f64,
    max_iterations: usize,
    allow_artificial: bool,
    iters_used: &mut usize,
) -> Result<(), LpError> {
    let mut bland = false;
    let mut degenerate_streak = 0usize;
    let col_limit = if allow_artificial {
        t.ncols
    } else {
        t.art_start
    };

    loop {
        if *iters_used >= max_iterations {
            return Err(LpError::IterationLimit {
                iterations: *iters_used,
            });
        }

        // Pricing: pick the entering column.
        let mut enter: Option<usize> = None;
        if bland {
            for j in 0..col_limit {
                if t.z[j] < -opt_tol {
                    enter = Some(j);
                    break;
                }
            }
        } else {
            let mut best = -opt_tol;
            for j in 0..col_limit {
                if t.z[j] < best {
                    best = t.z[j];
                    enter = Some(j);
                }
            }
        }
        let Some(col) = enter else {
            return Ok(()); // optimal
        };

        // Ratio test: pick the leaving row.
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for r in 0..t.m {
            if t.dead_rows[r] {
                continue;
            }
            let a = t.at(r, col);
            if a > PIVOT_TOL {
                let ratio = t.rhs(r) / a;
                let better = ratio < best_ratio - 1e-12
                    || (ratio < best_ratio + 1e-12
                        && leave.is_some_and(|lr| t.basis[r] < t.basis[lr]));
                if better {
                    best_ratio = ratio;
                    leave = Some(r);
                }
            }
        }
        let Some(row) = leave else {
            return Err(LpError::Unbounded);
        };

        if !best_ratio.is_finite() {
            return Err(LpError::Numerical(format!(
                "non-finite ratio at column {col}"
            )));
        }

        if best_ratio < 1e-12 {
            degenerate_streak += 1;
            if degenerate_streak >= DEGENERATE_STREAK_LIMIT {
                bland = true;
            }
        } else {
            degenerate_streak = 0;
        }

        t.pivot(row, col);
        *iters_used += 1;
    }
}

/// Solve the LP relaxation of `model` with the two-phase simplex.
pub fn solve(model: &Model) -> Result<Solution, LpError> {
    let mut iters = 0usize;
    let out = solve_counted(model, &mut iters);
    crate::counters::record(&crate::revised::SolverStats {
        solves: 1,
        iterations: iters as u64,
        cold_starts: 1,
        ..Default::default()
    });
    out
}

fn solve_counted(model: &Model, iters_out: &mut usize) -> Result<Solution, LpError> {
    let std = standardize(model)?;
    let n_y = std.n_y;
    let m = std.rows.len();

    // Count slacks and artificials; normalize rows to rhs >= 0 first.
    // Row layout of columns: [y (n_y)] [slacks] [artificials] [rhs]
    let mut norm_rows: Vec<(Vec<(usize, f64)>, Cmp, f64)> = Vec::with_capacity(m);
    for r in &std.rows {
        let mut coeffs = r.coeffs.clone();
        let mut cmp = r.cmp;
        let mut rhs = r.rhs;
        if rhs < 0.0 {
            for (_, c) in coeffs.iter_mut() {
                *c = -*c;
            }
            rhs = -rhs;
            cmp = match cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
        }
        norm_rows.push((coeffs, cmp, rhs));
    }

    let n_slack = norm_rows
        .iter()
        .filter(|(_, cmp, _)| !matches!(cmp, Cmp::Eq))
        .count();
    // Artificials are needed for >= and = rows (slack of a <= row with
    // rhs >= 0 can start basic).
    let n_art = norm_rows
        .iter()
        .filter(|(_, cmp, _)| !matches!(cmp, Cmp::Le))
        .count();

    let ncols = n_y + n_slack + n_art;
    let w = ncols + 1;
    let mut a = vec![0.0; m * w];
    let mut basis = vec![usize::MAX; m];
    let art_start = n_y + n_slack;

    let mut slack_ix = 0usize;
    let mut art_ix = 0usize;
    for (r, (coeffs, cmp, rhs)) in norm_rows.iter().enumerate() {
        for &(j, c) in coeffs {
            a[r * w + j] += c;
        }
        a[r * w + ncols] = *rhs;
        match cmp {
            Cmp::Le => {
                let s = n_y + slack_ix;
                slack_ix += 1;
                a[r * w + s] = 1.0;
                basis[r] = s;
            }
            Cmp::Ge => {
                let s = n_y + slack_ix;
                slack_ix += 1;
                a[r * w + s] = -1.0;
                let art = art_start + art_ix;
                art_ix += 1;
                a[r * w + art] = 1.0;
                basis[r] = art;
            }
            Cmp::Eq => {
                let art = art_start + art_ix;
                art_ix += 1;
                a[r * w + art] = 1.0;
                basis[r] = art;
            }
        }
    }

    let mut t = Tableau {
        a,
        z: vec![0.0; w],
        m,
        ncols,
        basis,
        art_start,
        dead_rows: vec![false; m],
    };

    let opts = model.options();
    let iters = iters_out;

    // ---- Phase 1: minimize the sum of artificials -----------------------
    if n_art > 0 {
        // Reduced costs: c_j - sum over artificial-basic rows of a[r][j].
        for j in 0..w {
            let mut acc = 0.0;
            for r in 0..m {
                if t.basis[r] >= art_start {
                    acc += t.a[r * w + j];
                }
            }
            t.z[j] = -acc;
        }
        for j in art_start..ncols {
            t.z[j] += 1.0; // their own cost
        }

        iterate(&mut t, opts.opt_tol, opts.max_iterations, true, iters)?;

        let phase1_obj = -t.z[ncols];
        if phase1_obj > opts.feas_tol {
            return Err(LpError::Infeasible);
        }

        // Drive remaining artificials out of the basis.
        for r in 0..m {
            if t.basis[r] < art_start {
                continue;
            }
            let mut pivot_col = None;
            for j in 0..art_start {
                if t.at(r, j).abs() > 1e-7 {
                    pivot_col = Some(j);
                    break;
                }
            }
            match pivot_col {
                Some(j) => t.pivot(r, j),
                None => {
                    // Redundant row: zero it out so it never participates.
                    for j in 0..w {
                        *t.at_mut(r, j) = 0.0;
                    }
                    t.dead_rows[r] = true;
                }
            }
        }
    }

    // ---- Phase 2: the real objective ------------------------------------
    for j in 0..w {
        t.z[j] = 0.0;
    }
    for (j, &c) in std.costs.iter().enumerate() {
        t.z[j] = c;
    }
    // Subtract contribution of the basic variables.
    for r in 0..m {
        if t.dead_rows[r] {
            continue;
        }
        let b = t.basis[r];
        let cb = if b < n_y { std.costs[b] } else { 0.0 };
        if cb != 0.0 {
            for j in 0..w {
                t.z[j] -= cb * t.a[r * w + j];
            }
        }
    }

    iterate(&mut t, opts.opt_tol, opts.max_iterations, false, iters)?;

    // ---- Extract the solution -------------------------------------------
    let mut y = vec![0.0; n_y];
    for r in 0..m {
        if t.dead_rows[r] {
            continue;
        }
        let b = t.basis[r];
        if b < n_y {
            y[b] = t.rhs(r).max(0.0);
        }
    }

    let mut values = vec![0.0; model.num_vars()];
    for (i, map) in std.maps.iter().enumerate() {
        values[i] = match *map {
            VarMap::Shift { col, lo } => lo + y[col],
            VarMap::NegShift { col, hi } => hi - y[col],
            VarMap::Free { pos, neg } => y[pos] - y[neg],
        };
    }

    let objective = model.objective.eval(&values);
    if !objective.is_finite() {
        return Err(LpError::Numerical("objective evaluated non-finite".into()));
    }

    Ok(Solution { objective, values })
}

#[cfg(test)]
mod tests {
    use super::solve;
    use crate::{Cmp, LinExpr, LpError, Model, Sense, VarType};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn max_simple_two_var() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> (4,0): 12
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_constr("c1", x + y, Cmp::Le, 4.0);
        m.add_constr("c2", x + y * 3.0, Cmp::Le, 6.0);
        m.set_objective(x * 3.0 + y * 2.0);
        let s = solve(&m).unwrap();
        assert_close(s.objective, 12.0);
        assert_close(s.value(x), 4.0);
        assert_close(s.value(y), 0.0);
    }

    #[test]
    fn min_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3  -> x=7, y=3: 23
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarType::Continuous, 2.0, f64::INFINITY);
        let y = m.add_var("y", VarType::Continuous, 3.0, f64::INFINITY);
        m.add_constr("sum", x + y, Cmp::Ge, 10.0);
        m.set_objective(x * 2.0 + y * 3.0);
        let s = solve(&m).unwrap();
        assert_close(s.objective, 23.0);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 5, x - y = 1 -> x=3, y=2
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
    fn infeasible_detected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 0.0, 1.0);
        m.add_constr("hi", x + 0.0, Cmp::Ge, 2.0);
        m.set_objective(x + 0.0);
        assert_eq!(solve(&m).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg("x");
        m.set_objective(x + 0.0);
        assert_eq!(solve(&m).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn free_variable_split() {
        // min x s.t. x >= -5 as a constraint on a free var -> -5
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarType::Continuous, f64::NEG_INFINITY, f64::INFINITY);
        m.add_constr("lb", x + 0.0, Cmp::Ge, -5.0);
        m.set_objective(x + 0.0);
        let s = solve(&m).unwrap();
        assert_close(s.objective, -5.0);
    }

    #[test]
    fn upper_bounded_only_variable() {
        // max x with x <= 3 (only upper bound finite)
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarType::Continuous, f64::NEG_INFINITY, 3.0);
        m.set_objective(x + 0.0);
        let s = solve(&m).unwrap();
        assert_close(s.objective, 3.0);
    }

    #[test]
    fn fixed_variable_via_equal_bounds() {
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
    fn negative_rhs_rows_normalize() {
        // x - y <= -1 with x,y in [0, 10]; max x -> y >= x + 1 -> x = 9
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 0.0, 10.0);
        let y = m.add_var("y", VarType::Continuous, 0.0, 10.0);
        m.add_constr("c", x - y, Cmp::Le, -1.0);
        m.set_objective(x + 0.0);
        let s = solve(&m).unwrap();
        assert_close(s.objective, 9.0);
    }

    #[test]
    fn objective_constant_carried() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 0.0, 1.0);
        m.set_objective(x + 41.0);
        let s = solve(&m).unwrap();
        assert_close(s.objective, 42.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Many redundant constraints through the origin (classic degeneracy).
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
        m.add_constr("cap", x + y, Cmp::Le, 0.0);
        m.set_objective(x + y);
        let s = solve(&m).unwrap();
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn redundant_equalities_ok() {
        // x + y = 2 twice; max x with x,y <= 1.5
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

    #[test]
    fn transportation_problem() {
        // 2 supplies (10, 20), 2 demands (15, 15); costs [[1,2],[3,1]]
        // optimal: s0->d0:10, s1->d0:5, s1->d1:15 cost = 10 + 15 + 15 = 40
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
        let s = solve(&m).unwrap();
        assert_close(s.objective, 40.0);
    }

    #[test]
    fn feasibility_only_model() {
        // No objective: any feasible point works; check constraints hold.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", VarType::Continuous, 0.0, 10.0);
        let y = m.add_var("y", VarType::Continuous, 0.0, 10.0);
        m.add_constr("c", x + y, Cmp::Eq, 7.0);
        let s = solve(&m).unwrap();
        assert!(m.check_feasible(&s.values, 1e-6).is_none());
    }

    #[test]
    fn solution_satisfies_constraints_always() {
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
    fn larger_random_like_lp_is_consistent() {
        // Diagonal-dominant system with known optimum at upper bounds.
        let mut m = Model::new(Sense::Maximize);
        let n = 30;
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_var(format!("v{i}"), VarType::Continuous, 0.0, 1.0))
            .collect();
        let mut obj = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            obj.add_term(v, 1.0 + (i % 3) as f64);
        }
        m.add_constr("budget", LinExpr::sum(vars.iter().copied()), Cmp::Le, 10.0);
        m.set_objective(obj);
        let s = solve(&m).unwrap();
        assert!(m.check_feasible(&s.values, 1e-6).is_none());
        // Greedy bound: picking the ten weight-3 vars gives 30.
        assert_close(s.objective, 30.0);
    }
}
