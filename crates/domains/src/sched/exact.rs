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

use crate::sched::instance::{lower_bound, SchedInstance, Schedule};
use crate::sched::scratch::SchedScratch;
use xplain_lp::{milp, Cmp, LinExpr, LpError, Model, Sense, VarId, VarType};

const TOL: f64 = 1e-9;

/// Exact optimum by branch and bound. Suitable for the analysis-scale
/// instances (n ≲ 20).
pub fn optimal(inst: &SchedInstance) -> Schedule {
    SchedScratch::schedule(|s| s.optimal(inst.machines, &inst.jobs))
}

/// The makespans of [`lpt_capped`](crate::sched::lpt_capped) and of
/// [`optimal`] for `jobs` on `machines` machines, in one borrow of the
/// thread's scratch: an uncapped LPT run (`cap_factor <= 0`) is also the
/// search's incumbent, so LPT runs once. Allocates nothing once the
/// calling thread has scheduled an instance this large.
pub fn lpt_capped_and_optimal_makespans(
    machines: usize,
    jobs: &[f64],
    cap_factor: f64,
) -> (f64, f64) {
    SchedScratch::with(|s| {
        let heuristic = s.lpt_capped(machines, jobs, cap_factor);
        let lpt = if cap_factor > 0.0 {
            s.lpt_capped(machines, jobs, 0.0)
        } else {
            heuristic
        };
        (heuristic, s.improve_lpt(machines, jobs, lpt))
    })
}

impl SchedScratch {
    fn optimal(&mut self, machines: usize, jobs: &[f64]) -> f64 {
        let lpt = self.lpt_capped(machines, jobs, 0.0);
        self.improve_lpt(machines, jobs, lpt)
    }

    /// The optimum by branch and bound from the incumbent that the
    /// uncapped LPT run just left in `self` (its order and assignment)
    /// with makespan `lpt_makespan`.
    fn improve_lpt(&mut self, machines: usize, jobs: &[f64], lpt_makespan: f64) -> f64 {
        let n = jobs.len();

        // The search's buffers are sized even when the incumbent proves
        // optimal, so no later search of this size allocates. Each node
        // on a root-to-leaf path tries at most every machine.
        self.suffix.clear();
        self.suffix.resize(n + 1, 0.0);
        self.work.clear();
        self.work.resize(n, 0);
        self.tried.clear();
        self.tried.reserve(n * machines);

        // The volume/longest-job bound proves optimality early on benign
        // instances (and on no jobs at all).
        let lower = lower_bound(machines, jobs);
        if lpt_makespan <= lower + TOL {
            return lpt_makespan;
        }

        // Jobs in descending order (big jobs fail fast): LPT's order,
        // which is still in `self.order`.
        // Suffix sums of remaining work for the volume bound at each depth.
        for d in (0..n).rev() {
            self.suffix[d] = self.suffix[d + 1] + jobs[self.order[d]];
        }

        self.loads.clear();
        self.loads.resize(machines, 0.0);
        // LPT's assignment is the best so far; each leaf the search
        // reaches beats it and overwrites it.
        let mut search = Search {
            jobs,
            order: &self.order,
            suffix: &self.suffix,
            lower,
            best_makespan: lpt_makespan,
            best: &mut self.assignment,
            work: &mut self.work,
            tried: &mut self.tried,
        };
        search.branch(0, &mut self.loads, 0.0);

        if search.best_makespan < lpt_makespan - TOL {
            self.settle(machines, jobs)
        } else {
            lpt_makespan
        }
    }
}

struct Search<'a> {
    jobs: &'a [f64],
    order: &'a [usize],
    suffix: &'a [f64],
    lower: f64,
    best_makespan: f64,
    best: &'a mut [usize],
    work: &'a mut [usize],
    tried: &'a mut Vec<f64>,
}

impl Search<'_> {
    /// Place the jobs from `order[depth]` on, given the machine `loads`
    /// so far and their largest, `cur_max`.
    fn branch(&mut self, depth: usize, loads: &mut [f64], cur_max: f64) {
        if cur_max >= self.best_makespan - TOL {
            return; // cannot improve
        }
        if depth == self.order.len() {
            self.best_makespan = cur_max;
            self.best.copy_from_slice(self.work);
            return;
        }
        // Volume bound over the remaining work.
        let total_left: f64 = self.suffix[depth] + loads.iter().sum::<f64>();
        if total_left / loads.len() as f64 >= self.best_makespan - TOL {
            return;
        }
        let job_ix = self.order[depth];
        let p = self.jobs[job_ix];
        // This node's tried loads sit above `base`; its children pop
        // theirs before they return.
        let base = self.tried.len();
        for m in 0..loads.len() {
            // Machines with equal loads are interchangeable: try one.
            if self.tried[base..]
                .iter()
                .any(|&l: &f64| (l - loads[m]).abs() < TOL)
            {
                continue;
            }
            self.tried.push(loads[m]);
            loads[m] += p;
            self.work[job_ix] = m;
            self.branch(depth + 1, loads, cur_max.max(loads[m]));
            loads[m] -= p;
            if self.best_makespan <= self.lower + TOL {
                break; // proven optimal
            }
        }
        self.tried.truncate(base);
    }
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
    use crate::sched::lpt::lpt;

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
