//! Exact (optimal) makespan scheduling.
//!
//! The benchmark side of the analyzer needs true optima. Mirroring the
//! VBP domain, two routes are provided:
//!
//! * [`optimal`] — depth-first branch and bound specialized to `P || C_max`
//!   (jobs in descending order, machine-load symmetry breaking, incumbent
//!   seeded with LPT). This is what the gap oracle calls on the hot path —
//!   it is exact and orders of magnitude faster than the generic MILP.
//! * [`optimal_milp`] — the assignment MILP over `xplain-lp` (binaries
//!   `x[i][j]`, makespan variable `C`). The tests assert both agree, so
//!   the cheap route inherits the MILP's exactness guarantee.

use crate::sched::instance::{SchedInstance, Schedule};
use crate::sched::lpt::lpt;
use xplain_lp::{milp, Cmp, LinExpr, LpError, Model, Sense, VarId, VarType};

const TOL: f64 = 1e-9;

/// Exact optimum by branch and bound. Suitable for the analysis-scale
/// instances (n ≲ 20).
pub fn optimal(inst: &SchedInstance) -> Schedule {
    let n = inst.num_jobs();
    if n == 0 {
        return Schedule::from_assignment(inst, Vec::new());
    }

    // Incumbent from LPT; the volume/longest-job bound proves optimality
    // early on benign instances.
    let mut best = lpt(inst);
    let lower = inst.lower_bound();
    if best.makespan <= lower + TOL {
        return best;
    }

    // Jobs in descending order: big jobs fail fast.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        inst.jobs[b]
            .partial_cmp(&inst.jobs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    // Suffix sums of remaining work for the volume bound at each depth.
    let mut suffix = vec![0.0; n + 1];
    for d in (0..n).rev() {
        suffix[d] = suffix[d + 1] + inst.jobs[order[d]];
    }

    struct Ctx<'a> {
        inst: &'a SchedInstance,
        order: &'a [usize],
        suffix: &'a [f64],
        lower: f64,
        best_makespan: f64,
        best_assignment: Vec<usize>,
        assignment: Vec<usize>,
    }

    fn recurse(ctx: &mut Ctx<'_>, depth: usize, loads: &mut [f64], cur_max: f64) {
        if cur_max >= ctx.best_makespan - TOL {
            return; // cannot improve
        }
        if depth == ctx.order.len() {
            ctx.best_makespan = cur_max;
            ctx.best_assignment = ctx.assignment.clone();
            return;
        }
        // Volume bound over the remaining work.
        let total_left: f64 = ctx.suffix[depth] + loads.iter().sum::<f64>();
        if total_left / loads.len() as f64 >= ctx.best_makespan - TOL {
            return;
        }
        let job_ix = ctx.order[depth];
        let p = ctx.inst.jobs[job_ix];
        let mut tried = Vec::with_capacity(loads.len());
        for m in 0..loads.len() {
            // Machines with equal loads are interchangeable: try one.
            if tried.iter().any(|&l: &f64| (l - loads[m]).abs() < TOL) {
                continue;
            }
            tried.push(loads[m]);
            loads[m] += p;
            ctx.assignment[job_ix] = m;
            recurse(ctx, depth + 1, loads, cur_max.max(loads[m]));
            loads[m] -= p;
            if ctx.best_makespan <= ctx.lower + TOL {
                return; // proven optimal
            }
        }
    }

    let mut ctx = Ctx {
        inst,
        order: &order,
        suffix: &suffix,
        lower,
        best_makespan: best.makespan,
        best_assignment: best.assignment.clone(),
        assignment: vec![0usize; n],
    };
    let mut loads = vec![0.0; inst.machines];
    recurse(&mut ctx, 0, &mut loads, 0.0);

    if ctx.best_makespan < best.makespan - TOL {
        best = Schedule::from_assignment(inst, ctx.best_assignment);
    }
    best
}

/// MILP formulation (cross-check for [`optimal`]), built by
/// [`milp_model`].
pub fn optimal_milp(inst: &SchedInstance) -> Result<Schedule, LpError> {
    optimal_milp_stats(inst).map(|(s, _)| s)
}

/// The assignment MILP: binaries `x[i][j]` (job i on machine j) and a
/// continuous makespan `C >= load_j` to minimize; job 0 is pinned to
/// machine 0 to break machine symmetry. Returns the model and the `x`
/// grid. The instance must have at least one job.
pub fn milp_model(inst: &SchedInstance) -> (Model, Vec<Vec<VarId>>) {
    let n = inst.num_jobs();
    let m_count = inst.machines;
    let total: f64 = inst.jobs.iter().sum();

    let mut m = Model::new(Sense::Minimize);
    let x: Vec<Vec<_>> = (0..n)
        .map(|i| {
            (0..m_count)
                .map(|j| m.add_binary(format!("x[{i},{j}]")))
                .collect()
        })
        .collect();
    let c = m.add_var("C", VarType::Continuous, inst.lower_bound(), total);

    for i in 0..n {
        m.add_constr(
            format!("place[{i}]"),
            LinExpr::sum(x[i].iter().copied()),
            Cmp::Eq,
            1.0,
        );
    }
    for j in 0..m_count {
        let mut load = LinExpr::new();
        for i in 0..n {
            load.add_term(x[i][j], inst.jobs[i]);
        }
        load.add_term(c, -1.0);
        m.add_constr(format!("makespan[{j}]"), load, Cmp::Le, 0.0);
    }
    // Symmetry breaking: job 0 runs on machine 0.
    m.add_constr("sym", LinExpr::term(x[0][0], 1.0), Cmp::Eq, 1.0);
    m.set_objective(LinExpr::term(c, 1.0));
    (m, x)
}

/// [`optimal_milp`] plus branch-and-bound work counters — the regression
/// tests pin node counts on these encodings so a warm-start bug that
/// silently explores extra nodes fails CI instead of just running slower.
pub fn optimal_milp_stats(inst: &SchedInstance) -> Result<(Schedule, milp::MilpStats), LpError> {
    let n = inst.num_jobs();
    if n == 0 {
        return Ok((
            Schedule::from_assignment(inst, Vec::new()),
            milp::MilpStats::default(),
        ));
    }
    let (m, x) = milp_model(inst);
    let (sol, stats) = milp::solve_with(&m, milp::Backend::Revised)?;

    let mut assignment = vec![0usize; n];
    for i in 0..n {
        for j in 0..inst.machines {
            if sol.value(x[i][j]) > 0.5 {
                assignment[i] = j;
                break;
            }
        }
    }
    Ok((Schedule::from_assignment(inst, assignment), stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_machine_example_optimum_is_six() {
        let inst = SchedInstance::two_machine_example();
        let s = optimal(&inst);
        assert!(s.check(&inst, 1e-9).is_none());
        assert!((s.makespan - 6.0).abs() < 1e-9, "{}", s.makespan);
    }

    #[test]
    fn tight_family_optimum_is_3m() {
        for machines in 2..=5 {
            let inst = SchedInstance::lpt_tight(machines);
            let s = optimal(&inst);
            assert!(
                (s.makespan - (3 * machines) as f64).abs() < 1e-9,
                "m = {machines}: {}",
                s.makespan
            );
        }
    }

    #[test]
    fn milp_agrees_on_the_examples() {
        for inst in [
            SchedInstance::two_machine_example(),
            SchedInstance::lpt_tight(3),
        ] {
            let bnb = optimal(&inst);
            let milp = optimal_milp(&inst).unwrap();
            assert!(milp.check(&inst, 1e-6).is_none());
            assert!(
                (bnb.makespan - milp.makespan).abs() < 1e-6,
                "B&B {} vs MILP {}",
                bnb.makespan,
                milp.makespan
            );
        }
    }

    #[test]
    fn milp_and_bnb_agree_on_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for _ in 0..8 {
            let n = rng.gen_range(2..7);
            let machines = rng.gen_range(2..4);
            let jobs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..4.0)).collect();
            let inst = SchedInstance::new(machines, jobs.clone());
            let a = optimal(&inst);
            let b = optimal_milp(&inst).unwrap();
            assert!(
                (a.makespan - b.makespan).abs() < 1e-6,
                "jobs {jobs:?} on {machines} machines: B&B {} vs MILP {}",
                a.makespan,
                b.makespan
            );
        }
    }

    #[test]
    fn optimal_never_above_lpt_nor_below_bound() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for _ in 0..20 {
            let n = rng.gen_range(1..10);
            let machines = rng.gen_range(1..4);
            let jobs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..3.0)).collect();
            let inst = SchedInstance::new(machines, jobs);
            let opt = optimal(&inst);
            assert!(opt.check(&inst, 1e-9).is_none());
            assert!(opt.makespan <= lpt(&inst).makespan + 1e-9);
            assert!(opt.makespan >= inst.lower_bound() - 1e-9);
        }
    }

    #[test]
    fn empty_instance() {
        let inst = SchedInstance::new(2, vec![]);
        assert_eq!(optimal(&inst).makespan, 0.0);
    }
}
