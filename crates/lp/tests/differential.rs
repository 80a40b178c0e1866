//! Differential test-bed: the revised bounded-variable simplex against the
//! reference tableau solver on randomized models.
//!
//! Every case builds one model and solves it with both engines. The two
//! must agree on *status* (optimal / infeasible / unbounded) and, when
//! optimal, on the objective to 1e-6; the revised solution is additionally
//! re-checked for feasibility against the original model (never against
//! the solver's own internal form). Coefficients are drawn from small
//! integer grids so degenerate ties and redundant rows appear constantly —
//! the regime where pivoting bugs hide.
//!
//! Blocks:
//! * `lp_statuses_and_objectives_agree` — 256 cases sweeping bound shapes
//!   (two-sided / one-sided / free / fixed), row senses, and sign-mixed
//!   coefficients, including infeasible and unbounded instances;
//! * `warm_session_matches_cold_reference` — bound-perturbation chains
//!   re-solved through one `SolverSession` vs a cold reference each step
//!   (the branch-and-bound access pattern);
//! * `rhs_sweep_matches_cold_reference` — rhs-perturbation chains (the
//!   gap-oracle access pattern);
//! * `milp_backends_agree` — branch-and-bound with the revised session
//!   backend vs the reference backend;
//! * `reused_workspace_matches_fresh_session` — a session reused across
//!   solves (its buffers kept, its basis dropped by `reset()`) against
//!   fresh sessions, bit for bit.

use proptest::prelude::*;
use xplain_lp::{
    milp, simplex, Cmp, LinExpr, LpError, Model, Prepared, Sense, SessionPool, Solution,
    SolverSession, VarType,
};

/// Outcome classes the two solvers must agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Optimal,
    Infeasible,
    Unbounded,
}

fn classify<T>(which: &str, m: &Model, r: &Result<T, LpError>) -> Status {
    match r {
        Ok(_) => Status::Optimal,
        Err(LpError::Infeasible) => Status::Infeasible,
        Err(LpError::Unbounded) => Status::Unbounded,
        Err(e) => panic!("{which} solver failed unexpectedly: {e}\nmodel:\n{m}"),
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()))
}

/// Bound shape selector: 0 two-sided, 1 lower-only, 2 upper-only, 3 free,
/// 4 fixed.
fn bounds_for(kind: u8, lo_raw: i32, width_raw: i32) -> (f64, f64) {
    let lo = lo_raw as f64 * 0.5;
    let width = width_raw as f64 * 0.5;
    match kind % 5 {
        0 => (lo, lo + width),
        1 => (lo, f64::INFINITY),
        2 => (f64::NEG_INFINITY, lo + width),
        3 => (f64::NEG_INFINITY, f64::INFINITY),
        _ => (lo, lo),
    }
}

#[allow(clippy::too_many_arguments)]
fn build_model(
    n: usize,
    mrows: usize,
    kinds: &[u8],
    lo_raw: &[i32],
    width_raw: &[i32],
    coefs: &[i32],
    cmps: &[u8],
    rhs: &[i32],
    obj: &[i32],
    sense_max: bool,
) -> Model {
    let sense = if sense_max {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let mut m = Model::new(sense);
    let vars: Vec<_> = (0..n)
        .map(|i| {
            let (lo, hi) = bounds_for(kinds[i], lo_raw[i], width_raw[i]);
            m.add_var(format!("v{i}"), VarType::Continuous, lo, hi)
        })
        .collect();
    for r in 0..mrows {
        let mut e = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            let c = coefs[r * 6 + i];
            if c != 0 {
                e.add_term(v, c as f64);
            }
        }
        let cmp = match cmps[r] % 3 {
            0 => Cmp::Le,
            1 => Cmp::Ge,
            _ => Cmp::Eq,
        };
        m.add_constr(format!("c{r}"), e, cmp, rhs[r] as f64);
    }
    let mut o = LinExpr::new();
    for (i, &v) in vars.iter().enumerate() {
        o.add_term(v, obj[i] as f64);
    }
    m.set_objective(o);
    m
}

fn assert_agree(m: &Model) {
    let revised = simplex::solve(m);
    let reference = simplex::reference::solve(m);
    let rs = classify("revised", m, &revised);
    let fs = classify("reference", m, &reference);
    prop_assert_eq!(
        rs,
        fs,
        "status diverged ({:?} vs {:?})\nmodel:\n{}",
        rs,
        fs,
        m
    );
    if let (Ok(a), Ok(b)) = (&revised, &reference) {
        prop_assert!(
            close(a.objective, b.objective),
            "objective diverged: revised {} vs reference {}\nmodel:\n{}",
            a.objective,
            b.objective,
            m
        );
        // Feasibility is always judged against the original model.
        prop_assert!(
            m.check_feasible(&a.values, 1e-6).is_none(),
            "revised solution infeasible: {:?}\nmodel:\n{}",
            m.check_feasible(&a.values, 1e-6),
            m
        );
        prop_assert!(
            close(a.objective, m.objective().eval(&a.values)),
            "revised objective does not match its own values"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline sweep: 256 random models over every bound shape.
    #[test]
    fn lp_statuses_and_objectives_agree(
        n in 1usize..6,
        mrows in 0usize..6,
        kinds in collection::vec(0u8..5, 6),
        lo_raw in collection::vec(-6i32..6, 6),
        width_raw in collection::vec(0i32..8, 6),
        coefs in collection::vec(-3i32..4, 36),
        cmps in collection::vec(0u8..3, 6),
        rhs in collection::vec(-8i32..9, 6),
        obj in collection::vec(-3i32..4, 6),
        sense_bit in 0u8..2,
    ) {
        let m = build_model(
            n, mrows, &kinds, &lo_raw, &width_raw, &coefs, &cmps, &rhs, &obj, sense_bit == 1,
        );
        assert_agree(&m);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Branch-and-bound access pattern: a chain of bound tightenings
    /// re-solved through one warm session must match a cold reference
    /// solve at every step.
    #[test]
    fn warm_session_matches_cold_reference(
        n in 2usize..6,
        mrows in 1usize..5,
        coefs in collection::vec(0i32..4, 36),
        rhs in collection::vec(2i32..12, 6),
        obj in collection::vec(-2i32..4, 6),
        tweak_var in collection::vec(0usize..6, 4),
        tweak_kind in collection::vec(0u8..3, 4),
        tweak_val in collection::vec(0i32..5, 4),
    ) {
        // Start bounded-feasible: x in [0, 4], nonnegative rows.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_var(format!("v{i}"), VarType::Continuous, 0.0, 4.0))
            .collect();
        for r in 0..mrows {
            let mut e = LinExpr::new();
            for (i, &v) in vars.iter().enumerate() {
                let c = coefs[r * 6 + i];
                if c != 0 {
                    e.add_term(v, c as f64);
                }
            }
            m.add_constr(format!("c{r}"), e, Cmp::Le, rhs[r] as f64);
        }
        let mut o = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            o.add_term(v, obj[i] as f64);
        }
        m.set_objective(o);

        let mut session = SolverSession::new();
        for t in 0..4 {
            let v = vars[tweak_var[t] % n];
            let (lo, hi) = m.var_bounds(v);
            let val = tweak_val[t] as f64;
            let (nlo, nhi) = match tweak_kind[t] {
                0 => (lo.max(val.min(4.0)), hi), // raise lower
                1 => (lo, hi.min(val)),          // drop upper
                _ => (0.0, 4.0),                 // relax back
            };
            if nlo > nhi {
                continue;
            }
            m.set_var_bounds(v, nlo, nhi);

            let warm = session.solve(&m);
            let cold = simplex::reference::solve(&m);
            let ws = classify("warm", &m, &warm);
            let cs = classify("reference", &m, &cold);
            prop_assert_eq!(ws, cs, "status diverged after tweak\nmodel:\n{}", m);
            if let (Ok(a), Ok(b)) = (&warm, &cold) {
                prop_assert!(
                    close(a.objective, b.objective),
                    "objective diverged: warm {} vs cold {}\nmodel:\n{}",
                    a.objective, b.objective, m
                );
                prop_assert!(m.check_feasible(&a.values, 1e-6).is_none());
            }
        }
    }

    /// Gap-oracle access pattern: same structure, shifting rhs.
    #[test]
    fn rhs_sweep_matches_cold_reference(
        n in 2usize..5,
        coefs in collection::vec(1i32..4, 10),
        rhs_flat in collection::vec(0i32..14, 10),
        obj in collection::vec(1i32..4, 5),
    ) {
        let mut session = SolverSession::new();
        for step in rhs_flat.chunks(2) {
            let mut m = Model::new(Sense::Maximize);
            let vars: Vec<_> = (0..n)
                .map(|i| m.add_var(format!("v{i}"), VarType::Continuous, 0.0, f64::INFINITY))
                .collect();
            for (r, &b) in step.iter().enumerate() {
                let mut e = LinExpr::new();
                for (i, &v) in vars.iter().enumerate() {
                    e.add_term(v, coefs[r * 5 + i] as f64);
                }
                m.add_constr(format!("c{r}"), e, Cmp::Le, b as f64);
            }
            let mut o = LinExpr::new();
            for (i, &v) in vars.iter().enumerate() {
                o.add_term(v, obj[i] as f64);
            }
            m.set_objective(o);

            let warm = session.solve(&m).expect("bounded feasible LP");
            let cold = simplex::reference::solve(&m).expect("bounded feasible LP");
            prop_assert!(
                close(warm.objective, cold.objective),
                "objective diverged: warm {} vs cold {}\nmodel:\n{}",
                warm.objective, cold.objective, m
            );
            prop_assert!(m.check_feasible(&warm.values, 1e-6).is_none());
        }
        // The sweep re-solves one shape: everything after the first solve
        // must have warm-started.
        prop_assert_eq!(session.stats.cold_starts, 1);
        prop_assert_eq!(session.stats.warm_hits, session.stats.solves - 1);
    }

    /// Branch-and-bound differential: warm revised sessions vs cold
    /// reference solves must reach the same MILP optimum.
    #[test]
    fn milp_backends_agree(
        n in 1usize..6,
        weights in collection::vec(1i32..5, 6),
        values in collection::vec(-2i32..6, 6),
        cap in 2i32..12,
        eq_bit in 0u8..2,
    ) {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..n).map(|i| m.add_binary(format!("b{i}"))).collect();
        let mut w = LinExpr::new();
        let mut o = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            w.add_term(v, weights[i] as f64);
            o.add_term(v, values[i] as f64);
        }
        m.add_constr("cap", w, Cmp::Le, cap as f64);
        if eq_bit == 1 && n >= 2 {
            m.add_constr("pair", vars[0] + vars[1], Cmp::Le, 1.0);
        }
        m.set_objective(o);

        let revised = milp::solve_with(&m, milp::Backend::Revised);
        let reference = milp::solve_with(&m, milp::Backend::Reference);
        let rs = classify("revised milp", &m, &revised);
        let fs = classify("reference milp", &m, &reference);
        prop_assert_eq!(rs, fs);
        if let (Ok((a, _)), Ok((b, _))) = (&revised, &reference) {
            prop_assert!(
                close(a.objective, b.objective),
                "MILP objective diverged: revised {} vs reference {}",
                a.objective, b.objective
            );
            prop_assert!(m.check_feasible(&a.values, 1e-6).is_none());
        }
    }
}

/// `a` and `b` are the same outcome: equal errors, or solutions equal bit
/// for bit.
fn assert_same_bits(a: &Result<Solution, LpError>, b: &Result<Solution, LpError>, what: &str) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.objective.to_bits(), y.objective.to_bits(), "{what}");
            assert_eq!(x.values.len(), y.values.len(), "{what}");
            for (u, v) in x.values.iter().zip(&y.values) {
                assert_eq!(u.to_bits(), v.to_bits(), "{what}: {x:?} vs {y:?}");
            }
        }
        (Err(x), Err(y)) => assert_eq!(x, y, "{what}"),
        (x, y) => panic!("{what}: {x:?} vs {y:?}"),
    }
}

/// `n` variables in `[0, 1]` and `mrows` rows, the first of which asks
/// for more than the bounds allow.
fn infeasible_model(n: usize, mrows: usize) -> Model {
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_var(format!("v{i}"), VarType::Continuous, 0.0, 1.0))
        .collect();
    m.add_constr(
        "over",
        LinExpr::sum(vars.iter().copied()),
        Cmp::Ge,
        n as f64 + 1.0,
    );
    for r in 1..mrows {
        m.add_constr(format!("c{r}"), vars[r % n] + 0.0, Cmp::Le, 1.0);
    }
    m.set_objective(LinExpr::sum(vars.iter().copied()));
    m
}

/// `n` nonnegative variables, `mrows` rows that bound nothing from above,
/// and an objective that grows without limit.
fn unbounded_model(n: usize, mrows: usize) -> Model {
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = (0..n).map(|i| m.add_nonneg(format!("v{i}"))).collect();
    for r in 0..mrows {
        m.add_constr(format!("c{r}"), vars[r % n] + 0.0, Cmp::Ge, -1.0);
    }
    m.set_objective(LinExpr::sum(vars.iter().copied()));
    m
}

/// Maximize over `n` nonnegative variables under `rows.len()` `<=` rows
/// of positive coefficients: bounded and, for nonnegative rhs, feasible.
fn packing_model(n: usize, coefs: &[i32], rhs: &[f64], obj: &[i32]) -> Model {
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = (0..n).map(|i| m.add_nonneg(format!("v{i}"))).collect();
    for (r, &b) in rhs.iter().enumerate() {
        let mut e = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            e.add_term(v, coefs[r * 6 + i] as f64);
        }
        m.add_constr(format!("c{r}"), e, Cmp::Le, b);
    }
    let mut o = LinExpr::new();
    for (i, &v) in vars.iter().enumerate() {
        o.add_term(v, obj[i] as f64);
    }
    m.set_objective(o);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A session keeps its workspace buffers across solves and across
    /// `reset()`, so no state may leak from one solve into the next:
    /// * after `reset()`, whatever the previous solve ended in (optimal,
    ///   `Infeasible`, `Unbounded`, `IterationLimit`), the reused session
    ///   returns bit for bit what a fresh session returns;
    /// * two shapes alternating through one session (every solve cold)
    ///   or one `SessionPool` (each shape warm on its own history, reset
    ///   together) match fresh or per-shape sessions;
    /// * a warm prepared rhs sweep long enough to cross the
    ///   refactorization cadence (the factorization arena is rebuilt in
    ///   place) equals the same sweep through built models in a second,
    ///   fresh session.
    #[test]
    fn reused_workspace_matches_fresh_session(
        n in 1usize..6,
        mrows in 1usize..6,
        kinds in collection::vec(0u8..5, 6),
        lo_raw in collection::vec(-6i32..6, 6),
        width_raw in collection::vec(0i32..8, 6),
        coefs in collection::vec(-3i32..4, 36),
        cmps in collection::vec(0u8..3, 6),
        rhs in collection::vec(-8i32..9, 6),
        obj in collection::vec(-3i32..4, 6),
        sense_bit in 0u8..2,
        other_coefs in collection::vec(-3i32..4, 36),
        other_rhs in collection::vec(-8i32..9, 6),
        iter_cap in 0usize..3,
        pack_coefs in collection::vec(1i32..4, 36),
        pack_obj in collection::vec(1i32..4, 6),
        sweep in collection::vec(0i32..24, 96),
        resets in collection::vec(0u8..4, 12),
    ) {
        let target = build_model(
            n, mrows, &kinds, &lo_raw, &width_raw, &coefs, &cmps, &rhs, &obj, sense_bit == 1,
        );
        let fresh = SolverSession::new().solve(&target);

        // Reset after every kind of ending.
        let other = build_model(
            n, mrows, &kinds, &lo_raw, &width_raw, &other_coefs, &cmps, &other_rhs, &obj,
            sense_bit == 0,
        );
        let mut capped = other.clone();
        capped.options_mut().max_iterations = iter_cap;
        let mut session = SolverSession::new();
        let predecessors = [
            (other, None),
            (capped, None),
            (infeasible_model(n, mrows), Some(LpError::Infeasible)),
            (unbounded_model(n, mrows), Some(LpError::Unbounded)),
            (infeasible_model(n + 1, mrows + 1), Some(LpError::Infeasible)),
        ];
        for (before, expect) in &predecessors {
            let ended = session.solve(before);
            if let Some(e) = expect {
                prop_assert_eq!(ended.as_ref().unwrap_err(), e);
            }
            session.reset();
            prop_assert!(!session.has_warm_basis());
            let again = session.solve(&target);
            assert_same_bits(&again, &fresh, &format!("after {ended:?}\nmodel:\n{target}"));
        }

        // Two shapes alternating: through one session every solve is a
        // cold start on the other shape's buffers (the last solve above
        // was `target`, so the alternation starts with the other shape).
        let wide = packing_model(n + 1, &pack_coefs, &[9.0; 6][..mrows], &pack_obj);
        for round in 0..3 {
            for m in [&wide, &target] {
                let reused = session.solve(m);
                assert_same_bits(&reused, &SolverSession::new().solve(m), &format!("round {round}"));
            }
        }
        // ...and through one pool, reset together, against one dedicated
        // session per shape.
        let mut pool = SessionPool::new();
        let mut own = [SolverSession::new(), SolverSession::new()];
        for (step, &r) in resets.iter().enumerate() {
            if r == 0 {
                pool.reset();
                own.iter_mut().for_each(SolverSession::reset);
            }
            let b = 2.0 + (step % 5) as f64 * 2.0;
            let shaped = [
                packing_model(n, &pack_coefs, &vec![b; mrows], &pack_obj),
                packing_model(n + 1, &pack_coefs, &vec![b + 1.0; mrows + 1], &pack_obj),
            ];
            for (m, own) in shaped.iter().zip(own.iter_mut()) {
                assert_same_bits(&pool.solve(m), &own.solve(m), &format!("pool step {step}"));
            }
        }
        prop_assert_eq!(pool.len(), 2);

        // A long warm rhs sweep on a session with history, against fresh
        // built-model solves.
        let (sn, sm) = ((n + 2).min(6), (mrows + 2).min(6));
        let base = packing_model(sn, &pack_coefs, &vec![0.0; sm], &pack_obj);
        let mut prep = Prepared::new(&base).unwrap();
        session.reset();
        let before = session.stats;
        let mut built = SolverSession::new();
        for step in sweep.chunks_exact(sm) {
            let b: Vec<f64> = step.iter().map(|&v| v as f64).collect();
            for (row, &v) in b.iter().enumerate() {
                prep.set_rhs(row, v);
            }
            let a = session.solve_prepared(&prep);
            let m = packing_model(sn, &pack_coefs, &b, &pack_obj);
            assert_same_bits(&a, &built.solve_unchecked(&m), &format!("sweep rhs {b:?}"));
        }
        prop_assert_eq!(session.stats.diff(&before), built.stats);
        prop_assert_eq!(built.stats.cold_starts, 1);
        // The sweep crossed the cadence: beyond the cold start's own
        // factorization, at least one in-place rebuild ran warm.
        prop_assert!(built.stats.refactorizations > 1, "{:?}", built.stats);
    }
}

/// Tiny deterministic LCG so the 256-case chains below are reproducible
/// without pulling proptest's shrinking into a *sequential* scenario
/// (each step's warm state depends on every step before it).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The fingerprint-guarded warm-start bugfix: a 256-step bound-delta chain
/// re-solved through one session (matrix fingerprint identical at every
/// step, so after the first solve every re-solve reuses the cached
/// factorization) must agree with a cold reference solve on status and
/// objective at every step.
#[test]
fn warm_equals_cold_across_256_bound_deltas() {
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = (0..6)
        .map(|i| m.add_var(format!("v{i}"), VarType::Continuous, 0.0, 4.0))
        .collect();
    let coefs = [
        [1.0, 2.0, 0.0, 1.0, 3.0, 1.0],
        [2.0, 0.0, 1.0, 1.0, 0.0, 2.0],
        [0.0, 1.0, 2.0, 0.0, 1.0, 1.0],
        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
    ];
    for (r, row) in coefs.iter().enumerate() {
        let mut e = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            if row[i] != 0.0 {
                e.add_term(v, row[i]);
            }
        }
        m.add_constr(format!("c{r}"), e, Cmp::Le, 9.0 + r as f64);
    }
    let mut o = LinExpr::new();
    for (i, &v) in vars.iter().enumerate() {
        o.add_term(v, 1.0 + (i % 3) as f64);
    }
    m.set_objective(o);

    let mut session = SolverSession::new();
    let mut rng = Lcg(0x9e3779b97f4a7c15);
    for step in 0..256 {
        // One bound delta per step; every shape of tightening/relaxing.
        let v = vars[rng.pick(6)];
        let (nlo, nhi) = match rng.pick(4) {
            0 => (rng.pick(4) as f64 * 0.5, 4.0),       // raise lower
            1 => (0.0, 1.0 + rng.pick(6) as f64 * 0.5), // drop upper
            2 => (0.0, 4.0),                            // relax back
            _ => {
                let x = rng.pick(8) as f64 * 0.5;
                (x, x) // fix
            }
        };
        if nlo > nhi {
            continue;
        }
        m.set_var_bounds(v, nlo, nhi);

        let warm = session.solve(&m);
        let cold = simplex::reference::solve(&m);
        let ws = classify("warm", &m, &warm);
        let cs = classify("reference", &m, &cold);
        assert_eq!(ws, cs, "status diverged at step {step}\nmodel:\n{m}");
        if let (Ok(a), Ok(b)) = (&warm, &cold) {
            assert!(
                close(a.objective, b.objective),
                "objective diverged at step {step}: warm {} vs cold {}\nmodel:\n{}",
                a.objective,
                b.objective,
                m
            );
            assert!(m.check_feasible(&a.values, 1e-6).is_none());
        }
    }
    // The whole chain re-solves one matrix: exactly one cold start, and
    // with the fingerprint guard no warm re-solve pays a refactorization
    // beyond the periodic cadence refreshes inside long solves.
    assert_eq!(session.stats.cold_starts, 1, "{:?}", session.stats);
    assert_eq!(
        session.stats.warm_hits,
        session.stats.solves - 1,
        "{:?}",
        session.stats
    );
}

/// The batched re-solve contract: `solve_batch` over N probes returns
/// bit-identical solutions to applying each probe by hand and issuing N
/// separate `solve_prepared` calls through an identically warmed session —
/// the batch API amortizes, it never diverges.
#[test]
fn batched_resolves_match_independent_solves_bitwise() {
    use xplain_lp::{Prepared, Probe, VarId};

    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = (0..5)
        .map(|i| m.add_var(format!("v{i}"), VarType::Continuous, 0.0, 6.0))
        .collect();
    let coefs = [
        [1.0, 1.0, 2.0, 0.0, 1.0],
        [2.0, 1.0, 0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0, 2.0, 0.0],
    ];
    for (r, row) in coefs.iter().enumerate() {
        let mut e = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            if row[i] != 0.0 {
                e.add_term(v, row[i]);
            }
        }
        m.add_constr(format!("c{r}"), e, Cmp::Le, 10.0);
    }
    let mut o = LinExpr::new();
    for (i, &v) in vars.iter().enumerate() {
        o.add_term(v, 1.0 + i as f64 * 0.5);
    }
    m.set_objective(o);

    let mut rng = Lcg(0x2545f4914f6cdd1d);
    let probes: Vec<Probe> = (0..32)
        .map(|_| {
            let mut p = Probe::default();
            for _ in 0..rng.pick(3) {
                let ix = rng.pick(5);
                let lo = rng.pick(5) as f64 * 0.5;
                p.bounds.push((VarId::from_index(ix), lo, lo + 2.0));
            }
            for _ in 0..rng.pick(3) {
                p.rhs.push((rng.pick(3), 4.0 + rng.pick(12) as f64));
            }
            p
        })
        .collect();

    // Path A: the batch API.
    let mut prep_a = Prepared::new(&m).unwrap();
    let mut session_a = SolverSession::new();
    let batch = session_a.solve_batch(&mut prep_a, &probes);

    // Path B: by-hand probe application, one solve_prepared per probe.
    let base = Prepared::new(&m).unwrap();
    let mut session_b = SolverSession::new();
    for (probe, from_batch) in probes.iter().zip(&batch) {
        let mut prep = base.clone();
        for &(v, lo, hi) in &probe.bounds {
            prep.set_var_bounds(v, lo, hi);
        }
        for &(row, rhs) in &probe.rhs {
            prep.set_rhs(row, rhs);
        }
        let single = session_b.solve_prepared(&prep);
        match (from_batch, &single) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.objective.to_bits(), b.objective.to_bits());
                assert_eq!(a.values.len(), b.values.len());
                for (x, y) in a.values.iter().zip(&b.values) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("batch {a:?} diverged from independent {b:?}"),
        }
    }
    assert_eq!(session_a.stats, session_b.stats);
    // The base prepared LP must come back untouched from the batch.
    for (i, &v) in vars.iter().enumerate() {
        assert_eq!(prep_a.var_bounds(v), base.var_bounds(vars[i]));
    }
    for r in 0..3 {
        assert_eq!(prep_a.rhs(r).to_bits(), base.rhs(r).to_bits());
    }
}
