//! Property-based tests for the LP/MILP solver.
//!
//! Invariants checked:
//! * every returned solution is feasible for the model it came from;
//! * the reported LP optimum is at least as good as any feasible point we
//!   can construct by sampling;
//! * the sparse-factorization revised engine agrees with the reference
//!   tableau on random models;
//! * the MILP optimum matches brute-force enumeration on small binary
//!   models;
//! * the LP relaxation bound dominates the MILP optimum.

use proptest::prelude::*;
use xplain_lp::{simplex, Cmp, LinExpr, LpError, Model, Sense, VarType};

/// Build a random bounded LP: n vars in [0, ub], m "<=" constraints with
/// nonnegative coefficients (always feasible at the origin, never unbounded
/// because each variable is capped).
fn bounded_lp(
    n: usize,
    coefs: &[Vec<f64>],
    rhs: &[f64],
    obj: &[f64],
    ub: f64,
) -> (Model, Vec<xplain_lp::VarId>) {
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_var(format!("v{i}"), VarType::Continuous, 0.0, ub))
        .collect();
    for (k, row) in coefs.iter().enumerate() {
        let mut e = LinExpr::new();
        for (i, &c) in row.iter().enumerate() {
            e.add_term(vars[i], c);
        }
        m.add_constr(format!("c{k}"), e, Cmp::Le, rhs[k]);
    }
    let mut o = LinExpr::new();
    for (i, &c) in obj.iter().enumerate() {
        o.add_term(vars[i], c);
    }
    m.set_objective(o);
    (m, vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lp_solution_is_feasible_and_dominant(
        n in 1usize..6,
        mrows in 1usize..5,
        seedcoefs in proptest::collection::vec(0.0f64..3.0, 36),
        rhs in proptest::collection::vec(0.5f64..10.0, 6),
        obj in proptest::collection::vec(-2.0f64..4.0, 6),
        sample in proptest::collection::vec(0.0f64..1.0, 6),
    ) {
        let coefs: Vec<Vec<f64>> = (0..mrows)
            .map(|k| (0..n).map(|i| seedcoefs[k * 6 + i]).collect())
            .collect();
        let (m, _) = bounded_lp(n, &coefs, &rhs, &obj[..n], 5.0);
        let sol = m.solve().expect("bounded LP must solve");

        // Feasibility of the returned point.
        prop_assert!(m.check_feasible(&sol.values, 1e-6).is_none(),
            "infeasible solution: {:?}", m.check_feasible(&sol.values, 1e-6));

        // Dominance: scale a random sample into the feasible region and
        // compare objectives.
        let mut point: Vec<f64> = sample[..n].iter().map(|s| s * 5.0).collect();
        // Shrink until feasible (coefficients are nonnegative so scaling
        // toward the origin preserves feasibility).
        for _ in 0..60 {
            if m.check_feasible(&point, 1e-9).is_none() { break; }
            for p in point.iter_mut() { *p *= 0.7; }
        }
        if m.check_feasible(&point, 1e-9).is_none() {
            let obj_at_point = m.objective().eval(&point);
            prop_assert!(sol.objective >= obj_at_point - 1e-6,
                "optimum {} beaten by sampled point {}", sol.objective, obj_at_point);
        }
    }

    #[test]
    fn revised_agrees_with_reference(
        n in 1usize..6,
        mrows in 1usize..5,
        seedcoefs in proptest::collection::vec(0.0f64..3.0, 36),
        rhs in proptest::collection::vec(0.5f64..10.0, 6),
        obj in proptest::collection::vec(-2.0f64..4.0, 6),
    ) {
        // The sparse-LU product-form engine and the dense reference
        // tableau must find the same optimum on any of these (always
        // feasible, always bounded) models.
        let coefs: Vec<Vec<f64>> = (0..mrows)
            .map(|k| (0..n).map(|i| seedcoefs[k * 6 + i]).collect())
            .collect();
        let (m, _) = bounded_lp(n, &coefs, &rhs, &obj[..n], 5.0);
        let revised = simplex::solve(&m).expect("bounded LP must solve");
        let reference = simplex::reference::solve(&m).expect("bounded LP must solve");
        prop_assert!((revised.objective - reference.objective).abs() < 1e-6,
            "revised {} vs reference {}", revised.objective, reference.objective);
        prop_assert!(m.check_feasible(&revised.values, 1e-6).is_none(),
            "revised point infeasible: {:?}", m.check_feasible(&revised.values, 1e-6));
    }


    #[test]
    fn milp_matches_brute_force_binary(
        n in 1usize..5,
        weights in proptest::collection::vec(0.1f64..4.0, 5),
        values in proptest::collection::vec(-1.0f64..5.0, 5),
        cap in 1.0f64..8.0,
    ) {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..n).map(|i| m.add_binary(format!("b{i}"))).collect();
        let mut w = LinExpr::new();
        let mut o = LinExpr::new();
        for i in 0..n {
            w.add_term(vars[i], weights[i]);
            o.add_term(vars[i], values[i]);
        }
        m.add_constr("cap", w, Cmp::Le, cap);
        m.set_objective(o);
        let sol = m.solve().expect("feasible: all-zeros works");

        let mut best = f64::NEG_INFINITY;
        for mask in 0u32..(1 << n) {
            let (mut tw, mut tv) = (0.0, 0.0);
            for i in 0..n {
                if mask >> i & 1 == 1 { tw += weights[i]; tv += values[i]; }
            }
            if tw <= cap + 1e-9 { best = best.max(tv); }
        }
        prop_assert!((sol.objective - best).abs() < 1e-6,
            "milp {} vs brute force {}", sol.objective, best);
    }

    #[test]
    fn relaxation_bounds_milp(
        n in 1usize..5,
        weights in proptest::collection::vec(0.5f64..4.0, 5),
        values in proptest::collection::vec(0.0f64..5.0, 5),
        cap in 1.0f64..8.0,
    ) {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..n).map(|i| m.add_binary(format!("b{i}"))).collect();
        let mut w = LinExpr::new();
        let mut o = LinExpr::new();
        for i in 0..n {
            w.add_term(vars[i], weights[i]);
            o.add_term(vars[i], values[i]);
        }
        m.add_constr("cap", w, Cmp::Le, cap);
        m.set_objective(o);
        let milp = m.solve().expect("feasible");
        let relax = m.solve_relaxation().expect("feasible");
        prop_assert!(relax.objective >= milp.objective - 1e-6,
            "relaxation {} below MILP {}", relax.objective, milp.objective);
    }

    #[test]
    fn infeasible_never_returns_solution(
        lo in 1.0f64..5.0,
    ) {
        // x in [0, lo], require x >= lo + 1: always infeasible.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", VarType::Continuous, 0.0, lo);
        m.add_constr("impossible", LinExpr::term(x, 1.0), Cmp::Ge, lo + 1.0);
        m.set_objective(LinExpr::term(x, 1.0));
        prop_assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn equality_systems_roundtrip(
        a in 0.5f64..3.0,
        b in 0.5f64..3.0,
        target in 1.0f64..6.0,
    ) {
        // a*x + b*y = target with x = y enforced -> x = target / (a + b).
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        let mut e = LinExpr::new();
        e.add_term(x, a);
        e.add_term(y, b);
        m.add_constr("sum", e, Cmp::Eq, target);
        m.add_constr("eq", x - y, Cmp::Eq, 0.0);
        m.set_objective(x + y);
        let s = m.solve().expect("consistent system");
        let expect = target / (a + b);
        prop_assert!((s.value(x) - expect).abs() < 1e-6);
        prop_assert!((s.value(y) - expect).abs() < 1e-6);
    }
}
