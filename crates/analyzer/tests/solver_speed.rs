//! Solver speed gates: the revised engine against the cold reference
//! tableau (`simplex::reference`), on the two patterns the product runs.
//!
//! * **Prepared sweep.** The fig4a max-flow LP solved over a fixed grid
//!   of 40 demand vectors. The reference builds and solves each point
//!   cold; the revised engine standardizes once and re-solves after
//!   rewriting the demand rhs rows, which is what the gap oracle and the
//!   lexicographic stages do. Gate: reference / prepared `> 1.0`. The
//!   pre-sparse-LU engine shipped a warm path at 0.81x of the reference.
//! * **Node-LP replay.** The fixed LP sequence one revised
//!   branch-and-bound run solved (`milp::solve_traced`), re-timed per
//!   engine, each driven the way its B&B drives it: the revised engine
//!   applies and undoes per-node bound deltas on one `Prepared`; the
//!   reference rebuilds every node. Replay, not end-to-end B&B time,
//!   because degenerate LPs admit many optimal vertices and branching
//!   follows the vertex, so node counts differ between engines. The
//!   workloads are the sched assignment MILP on the Graham-tight
//!   instances (3 and 4 machines) and the 3-ball/3-bin first-fit MetaOpt
//!   encoding. Gate: the smallest reference / revised ratio `>= 2.0`.
//!
//! Timings are medians of 3 runs (1 for the MetaOpt encoding). This is
//! the only test in the binary, and cargo runs test binaries one at a
//! time, so nothing else competes for the CPU while it times. CI runs it
//! in release: `cargo test --release -p xplain-analyzer --test
//! solver_speed -- --nocapture` prints the figures.

use std::time::Instant;
use xplain_analyzer::FfMetaOpt;
use xplain_domains::sched::{self, SchedInstance};
use xplain_domains::te::TeProblem;
use xplain_lp::milp::{self, NodeEvent};
use xplain_lp::{simplex, Model, Prepared, SolverSession, VarId};

const REPEATS: usize = 3;
const SWEEP_POINTS: usize = 40;

/// Time `f` over `repeats` runs and return the median seconds.
fn time_median<F: FnMut()>(repeats: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// A deterministic grid of demand vectors for the sweep.
fn demand_grid(dims: usize, points: usize) -> Vec<Vec<f64>> {
    (0..points)
        .map(|p| {
            (0..dims)
                .map(|d| 10.0 + ((p * 37 + d * 13) % 91) as f64)
                .collect()
        })
        .collect()
}

/// Reference seconds over prepared seconds on the fig4a sweep.
fn warm_speedup() -> f64 {
    let problem = TeProblem::fig4a();
    let grid = demand_grid(problem.num_demands(), SWEEP_POINTS);
    let reference_s = time_median(REPEATS, || {
        for v in &grid {
            let m = problem.max_flow_model(v, None, &[]);
            simplex::reference::solve(&m).expect("feasible max-flow");
        }
    });
    // Rows 0..n of the max-flow encoding are the demand rows.
    let base = problem.max_flow_model(&grid[0], None, &[]);
    let prepared_s = time_median(REPEATS, || {
        let mut session = SolverSession::new();
        let mut prep = Prepared::new(&base).expect("valid max-flow model");
        for v in &grid {
            for (k, &vol) in v.iter().enumerate() {
                prep.set_rhs(k, vol.max(0.0));
            }
            session.solve_prepared(&prep).expect("feasible max-flow");
        }
    });
    reference_s / prepared_s.max(1e-12)
}

/// Reference seconds over revised seconds replaying `model`'s node LPs.
fn replay_speedup(model: &Model, repeats: usize) -> f64 {
    // Every node whose relaxation was actually solved.
    let (_, trace) = milp::solve_traced(model, milp::Backend::Revised, false);
    let node_bounds: Vec<Vec<(usize, f64, f64)>> = trace
        .into_iter()
        .filter(|t| !matches!(t.event, NodeEvent::PrunedByBound | NodeEvent::EmptyDomain))
        .map(|t| t.bounds)
        .collect();

    let revised_s = time_median(repeats, || {
        let mut session = SolverSession::new();
        let mut prep = Prepared::new(model).expect("B&B model is valid");
        let mut undo: Vec<(VarId, f64, f64)> = Vec::new();
        for bounds in &node_bounds {
            undo.clear();
            for &(ix, lo, hi) in bounds {
                let v = VarId::from_index(ix);
                let (cur_lo, cur_hi) = prep.var_bounds(v);
                undo.push((v, cur_lo, cur_hi));
                prep.set_var_bounds(v, cur_lo.max(lo), cur_hi.min(hi));
            }
            let _ = session.solve_prepared(&prep);
            for &(v, lo, hi) in undo.iter().rev() {
                prep.set_var_bounds(v, lo, hi);
            }
        }
    });
    let reference_s = time_median(repeats, || {
        let mut scratch = model.clone();
        for bounds in &node_bounds {
            scratch.clone_from(model);
            for &(ix, lo, hi) in bounds {
                let v = VarId::from_index(ix);
                let (cur_lo, cur_hi) = scratch.var_bounds(v);
                scratch.set_var_bounds(v, cur_lo.max(lo), cur_hi.min(hi));
            }
            let _ = simplex::reference::solve(&scratch);
        }
    });
    reference_s / revised_s.max(1e-12)
}

#[test]
fn revised_engine_beats_the_reference_tableau() {
    let warm = warm_speedup();
    let sched_model = |machines| sched::milp_model(&SchedInstance::lpt_tight(machines)).0;
    let replays = [
        ("sched_tight_m3", replay_speedup(&sched_model(3), REPEATS)),
        ("sched_tight_m4", replay_speedup(&sched_model(4), REPEATS)),
        (
            "ff_metaopt_3ball",
            replay_speedup(&FfMetaOpt::new(3, 3).build_model(&[]).model, 1),
        ),
    ];
    let min = replays.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    println!("prepared sweep vs reference: {warm:.2}x");
    for (name, speedup) in &replays {
        println!("node-LP replay {name}: {speedup:.2}x");
    }
    assert!(
        warm > 1.0,
        "prepared re-solves no faster than the cold reference: {warm:.3}x"
    );
    assert!(
        min >= 2.0,
        "node-LP replay below 2x the reference: {replays:?}"
    );
}
