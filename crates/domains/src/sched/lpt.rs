//! The LPT (Longest Processing Time first) heuristic.
//!
//! Jobs are sorted by processing time descending and each is assigned to
//! the currently least-loaded machine. Graham's bound says LPT is within
//! `4/3 − 1/(3m)` of optimal; the [`SchedInstance::lpt_tight`] family
//! attains it, which is what makes this a worthwhile heuristic to point
//! XPlain at.

use crate::sched::instance::{lower_bound, SchedInstance, Schedule};
use crate::sched::scratch::SchedScratch;

/// Run LPT. Ties in processing time keep input order; ties in machine load
/// go to the lowest machine index — both choices make the heuristic fully
/// deterministic, which the runtime's bit-for-bit reproducibility checks
/// rely on.
pub fn lpt(inst: &SchedInstance) -> Schedule {
    lpt_capped(inst, 0.0)
}

/// LPT with a MULTIFIT-style capacity cap: jobs are taken longest-first
/// and placed on the first machine (lowest index) whose load stays within
/// `cap_factor × lower_bound` — falling back to the least-loaded machine
/// when no machine has room. `cap_factor = 0.0` caps nothing under the
/// bound, so every job takes the fallback and the result is exactly
/// [`lpt`] — the identity default the tuner starts from. `cap_factor`
/// near 1 bin-packs jobs against the makespan lower bound, which pairs
/// the long jobs of the Graham-tight family the way the optimum does.
pub fn lpt_capped(inst: &SchedInstance, cap_factor: f64) -> Schedule {
    SchedScratch::schedule(|s| s.lpt_capped(inst.machines, &inst.jobs, cap_factor))
}

/// List scheduling in the given job order: each job goes to the machine
/// with the smallest current load (lowest index on ties).
pub fn list_schedule(inst: &SchedInstance, order: &[usize]) -> Schedule {
    SchedScratch::schedule(|s| {
        s.order.clear();
        s.order.extend_from_slice(order);
        s.place(inst.machines, &inst.jobs, None)
    })
}

impl SchedScratch {
    pub(crate) fn lpt_capped(&mut self, machines: usize, jobs: &[f64], cap_factor: f64) -> f64 {
        // A non-positive factor disables the cap entirely (rather than
        // letting zero-length jobs sneak under it), so the fallback —
        // least-loaded, lowest index — handles every job: exactly `lpt`.
        let cap = (cap_factor > 0.0).then(|| cap_factor * lower_bound(machines, jobs));
        self.order_decreasing(jobs);
        self.place(machines, jobs, cap)
    }

    /// Place the jobs of [`SchedScratch::order`], each on the first
    /// machine (lowest index) whose load stays within `cap`, or else on
    /// the least-loaded one (lowest index on ties), and return the
    /// makespan; [`SchedScratch::assignment`] holds the machines.
    fn place(&mut self, machines: usize, jobs: &[f64], cap: Option<f64>) -> f64 {
        let SchedScratch {
            order,
            loads,
            assignment,
            ..
        } = self;
        loads.clear();
        loads.resize(machines, 0.0);
        assignment.clear();
        assignment.resize(jobs.len(), 0);
        for &i in order.iter() {
            let p = jobs[i];
            let capped = cap.and_then(|cap| loads.iter().position(|&l| l + p <= cap + 1e-9));
            let target = capped.unwrap_or_else(|| {
                loads
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(j, _)| j)
                    .unwrap_or(0)
            });
            assignment[i] = target;
            loads[target] += p;
        }
        self.settle(machines, jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_on_two_machine_example() {
        let inst = SchedInstance::two_machine_example();
        let s = lpt(&inst);
        assert!(s.check(&inst, 1e-9).is_none());
        // 3→M0, 3→M1, 2→M0 (5), 2→M1 (5), 2→M0 (7).
        assert!((s.makespan - 7.0).abs() < 1e-9, "{}", s.makespan);
    }

    #[test]
    fn lpt_attains_grahams_tight_bound() {
        for m in 2..=5 {
            let inst = SchedInstance::lpt_tight(m);
            let s = lpt(&inst);
            assert!(
                (s.makespan - (4 * m - 1) as f64).abs() < 1e-9,
                "m = {m}: {}",
                s.makespan
            );
        }
    }

    #[test]
    fn lpt_is_optimal_on_balanced_pairs() {
        let inst = SchedInstance::new(2, vec![0.6, 0.4, 0.6, 0.4]);
        let s = lpt(&inst);
        assert!((s.makespan - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_and_single_job() {
        let empty = SchedInstance::new(3, vec![]);
        assert_eq!(lpt(&empty).makespan, 0.0);
        let one = SchedInstance::new(3, vec![2.5]);
        assert!((lpt(&one).makespan - 2.5).abs() < 1e-9);
    }

    /// `cap_factor = 0` must be *exactly* LPT: the tuner's default
    /// candidate may not change behavior.
    #[test]
    fn capped_zero_is_lpt() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        for _ in 0..40 {
            let m = rng.gen_range(1..4);
            let n = rng.gen_range(0..10);
            let jobs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..3.0)).collect();
            let inst = SchedInstance::new(m, jobs);
            let a = lpt(&inst);
            let b = lpt_capped(&inst, 0.0);
            assert_eq!(a.assignment, b.assignment);
            assert!((a.makespan - b.makespan).abs() < 1e-12);
        }
    }

    /// At `cap_factor = 1` the cap equals the makespan lower bound and
    /// the Graham-tight family is scheduled optimally: the long jobs
    /// pair up instead of splitting, closing LPT's `m − 1` gap.
    #[test]
    fn capped_repairs_graham_tight_family() {
        for m in 2..=5 {
            let inst = SchedInstance::lpt_tight(m);
            let s = lpt_capped(&inst, 1.0);
            assert!(s.check(&inst, 1e-9).is_none());
            assert!(
                (s.makespan - (3 * m) as f64).abs() < 1e-9,
                "m = {m}: capped makespan {} != optimal {}",
                s.makespan,
                3 * m
            );
        }
    }

    #[test]
    fn never_below_the_lower_bound() {
        let inst = SchedInstance::new(3, vec![4.0, 3.0, 3.0, 2.0, 2.0, 1.0]);
        let s = lpt(&inst);
        assert!(s.makespan >= inst.lower_bound() - 1e-9);
    }
}
