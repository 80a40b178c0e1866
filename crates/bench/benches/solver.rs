//! Criterion benches for the optimization substrate: simplex scaling and
//! branch-and-bound, the foundations every experiment rests on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xplain_lp::{Cmp, LinExpr, Model, Sense, VarType};

/// A dense random-ish LP with `n` variables and `n` constraints
/// (deterministic coefficients — no RNG in benches).
fn dense_lp(n: usize) -> Model {
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_var(format!("x{i}"), VarType::Continuous, 0.0, 10.0))
        .collect();
    for r in 0..n {
        let mut e = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            let c = 1.0 + ((r * 7 + i * 3) % 5) as f64;
            e.add_term(v, c);
        }
        m.add_constr(format!("c{r}"), e, Cmp::Le, 50.0 + (r % 7) as f64);
    }
    let mut obj = LinExpr::new();
    for (i, &v) in vars.iter().enumerate() {
        obj.add_term(v, 1.0 + (i % 3) as f64);
    }
    m.set_objective(obj);
    m
}

fn knapsack(n: usize) -> Model {
    let mut m = Model::new(Sense::Maximize);
    let x: Vec<_> = (0..n).map(|i| m.add_binary(format!("b{i}"))).collect();
    let mut w = LinExpr::new();
    let mut obj = LinExpr::new();
    for (i, &v) in x.iter().enumerate() {
        w.add_term(v, 1.0 + ((i * 13) % 7) as f64);
        obj.add_term(v, 2.0 + ((i * 11) % 9) as f64);
    }
    m.add_constr("cap", w, Cmp::Le, n as f64);
    m.set_objective(obj);
    m
}

fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex");
    group.sample_size(20);
    for n in [10usize, 25, 50] {
        let model = dense_lp(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &model, |b, m| {
            b.iter(|| black_box(m.solve().expect("solvable")));
        });
    }
    group.finish();

    // The reference tableau on the same models, for the revised-vs-
    // reference scaling picture (`crates/analyzer/tests/solver_speed.rs`
    // gates the revised engine's lead).
    let mut group = c.benchmark_group("simplex_reference");
    group.sample_size(20);
    for n in [10usize, 25, 50] {
        let model = dense_lp(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &model, |b, m| {
            b.iter(|| black_box(xplain_lp::simplex::reference::solve(m).expect("solvable")));
        });
    }
    group.finish();

    // Warm-started sessions over a rhs sweep (the gap-oracle pattern).
    let mut group = c.benchmark_group("simplex_warm_sweep");
    group.sample_size(20);
    let model_for = |cap: f64| {
        let mut m = dense_lp(25);
        // dense_lp's rows all share structure; vary the model through an
        // extra capacity row so each solve differs in rhs only.
        let vars: Vec<_> = (0..25).map(xplain_lp::VarId::from_index).collect();
        m.add_constr("sweep", LinExpr::sum(vars), Cmp::Le, cap);
        m
    };
    group.bench_function("25_x16", |b| {
        b.iter(|| {
            let mut session = xplain_lp::SolverSession::new();
            for i in 0..16 {
                let m = model_for(30.0 + i as f64);
                black_box(session.solve(&m).expect("solvable"));
            }
        });
    });
    group.finish();
}

fn bench_milp(c: &mut Criterion) {
    let mut group = c.benchmark_group("branch_and_bound_knapsack");
    group.sample_size(10);
    for n in [8usize, 12, 16] {
        let model = knapsack(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &model, |b, m| {
            b.iter(|| black_box(m.solve().expect("solvable")));
        });
    }
    group.finish();
}

fn bench_te_lp(c: &mut Criterion) {
    use xplain_domains::te::TeProblem;
    let mut group = c.benchmark_group("te_max_flow");
    group.sample_size(30);
    let fig1a = TeProblem::fig1a();
    group.bench_function("fig1a_optimal", |b| {
        b.iter(|| black_box(fig1a.optimal(&[50.0, 100.0, 100.0]).unwrap()));
    });
    let fig4a = TeProblem::fig4a();
    group.bench_function("fig4a_optimal", |b| {
        b.iter(|| black_box(fig4a.optimal(&[40.0; 8]).unwrap()));
    });
    group.finish();
}

fn bench_vbp(c: &mut Criterion) {
    use xplain_domains::vbp::{first_fit, optimal, VbpInstance};
    let mut group = c.benchmark_group("vbp");
    let inst = VbpInstance::fig2_example();
    group.bench_function("first_fit_fig2", |b| {
        b.iter(|| black_box(first_fit(&inst)));
    });
    group.sample_size(10);
    group.bench_function("optimal_fig2", |b| {
        b.iter(|| black_box(optimal(&inst)));
    });
    group.finish();
}

criterion_group!(benches, bench_simplex, bench_milp, bench_te_lp, bench_vbp);
criterion_main!(benches);
