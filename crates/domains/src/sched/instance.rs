//! Makespan-scheduling instances and schedules.
//!
//! `P || C_max`: `n` jobs with processing times `p_i` are assigned to `m`
//! identical machines; the makespan is the largest machine load. This is
//! the third evaluation domain — beyond the paper's two running examples —
//! registered with the runtime to prove the `Domain` interface is open.

use serde::{Deserialize, Serialize};

/// A scheduling instance: identical machines plus job processing times.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedInstance {
    pub machines: usize,
    /// `jobs[i]` = processing time of job `i`.
    pub jobs: Vec<f64>,
}

impl SchedInstance {
    pub fn new(machines: usize, jobs: Vec<f64>) -> Self {
        SchedInstance { machines, jobs }
    }

    /// The classic LPT worst case for `m` machines: two jobs each of sizes
    /// `2m-1 .. m+1` plus three jobs of size `m` (`2m+1` jobs total).
    /// OPT balances every machine at `3m`; LPT reaches `4m-1`, so the gap
    /// is `m - 1` — growing with the machine count, which is exactly the
    /// Type-3 trend the generalizer should discover.
    pub fn lpt_tight(machines: usize) -> Self {
        assert!(machines >= 2, "the tight family needs at least 2 machines");
        let m = machines;
        let mut jobs = Vec::with_capacity(2 * m + 1);
        for size in (m + 1..=2 * m - 1).rev() {
            jobs.push(size as f64);
            jobs.push(size as f64);
        }
        jobs.extend([m as f64; 3]);
        SchedInstance::new(m, jobs)
    }

    /// The 2-machine miniature used throughout the docs and tests:
    /// `p = (3, 3, 2, 2, 2)`. LPT ends at makespan 7, the optimum
    /// (`{3,3} | {2,2,2}`) at 6.
    pub fn two_machine_example() -> Self {
        SchedInstance::lpt_tight(2)
    }

    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Sanity checks: at least one machine, finite nonnegative times.
    pub fn validate(&self) -> Result<(), String> {
        if self.machines == 0 {
            return Err("zero machines".into());
        }
        for (i, &p) in self.jobs.iter().enumerate() {
            if !p.is_finite() || p < 0.0 {
                return Err(format!("job {i} has processing time {p}"));
            }
        }
        Ok(())
    }

    /// Lower bound on the optimal makespan:
    /// `max(total_work / m, max_i p_i)`.
    pub fn lower_bound(&self) -> f64 {
        lower_bound(self.machines, &self.jobs)
    }
}

/// [`SchedInstance::lower_bound`] of `jobs` on `machines` machines.
pub(crate) fn lower_bound(machines: usize, jobs: &[f64]) -> f64 {
    let total: f64 = jobs.iter().sum();
    let longest = jobs.iter().cloned().fold(0.0, f64::max);
    (total / machines as f64).max(longest)
}

/// Fill `loads` with the per-machine totals of `assignment`, summed in
/// job-index order, and return the makespan (the largest of them).
pub(crate) fn machine_loads(
    machines: usize,
    jobs: &[f64],
    assignment: &[usize],
    loads: &mut Vec<f64>,
) -> f64 {
    loads.clear();
    loads.resize(machines, 0.0);
    for (i, &m) in assignment.iter().enumerate() {
        loads[m] += jobs[i];
    }
    loads.iter().cloned().fold(0.0, f64::max)
}

/// A schedule: machine index per job, plus the derived loads and makespan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// `assignment[i]` = machine of job `i`.
    pub assignment: Vec<usize>,
    /// Per-machine total load.
    pub loads: Vec<f64>,
    pub makespan: f64,
}

impl Schedule {
    /// Build from an assignment, computing loads and makespan.
    pub fn from_assignment(inst: &SchedInstance, assignment: Vec<usize>) -> Self {
        let mut loads = Vec::new();
        let makespan = machine_loads(inst.machines, &inst.jobs, &assignment, &mut loads);
        Schedule {
            assignment,
            loads,
            makespan,
        }
    }

    /// Check consistency against an instance (job count, machine indices,
    /// loads that match the assignment).
    pub fn check(&self, inst: &SchedInstance, tol: f64) -> Option<String> {
        if self.assignment.len() != inst.num_jobs() {
            return Some(format!(
                "assignment covers {} jobs, instance has {}",
                self.assignment.len(),
                inst.num_jobs()
            ));
        }
        if let Some(&m) = self.assignment.iter().find(|&&m| m >= inst.machines) {
            return Some(format!("machine index {m} out of range"));
        }
        let recomputed = Schedule::from_assignment(inst, self.assignment.clone());
        if (recomputed.makespan - self.makespan).abs() > tol {
            return Some(format!(
                "makespan {} does not match assignment (recomputed {})",
                self.makespan, recomputed.makespan
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tight_family_shape() {
        for m in 2..=5 {
            let inst = SchedInstance::lpt_tight(m);
            inst.validate().unwrap();
            assert_eq!(inst.num_jobs(), 2 * m + 1);
            let total: f64 = inst.jobs.iter().sum();
            // Total work is 3m per machine.
            assert!((total - (3 * m * m) as f64).abs() < 1e-9, "m = {m}");
            assert!((inst.lower_bound() - (3 * m) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn two_machine_example_is_the_docs_instance() {
        let inst = SchedInstance::two_machine_example();
        assert_eq!(inst.machines, 2);
        assert_eq!(inst.jobs, vec![3.0, 3.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn validate_rejects_bad_instances() {
        assert!(SchedInstance::new(0, vec![1.0]).validate().is_err());
        assert!(SchedInstance::new(2, vec![-1.0]).validate().is_err());
        assert!(SchedInstance::new(2, vec![f64::NAN]).validate().is_err());
        assert!(SchedInstance::new(2, vec![]).validate().is_ok());
    }

    #[test]
    fn lower_bound_takes_longest_job() {
        // One huge job dominates the volume bound.
        let inst = SchedInstance::new(3, vec![10.0, 1.0, 1.0]);
        assert!((inst.lower_bound() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn schedule_check_catches_mismatches() {
        let inst = SchedInstance::two_machine_example();
        let ok = Schedule::from_assignment(&inst, vec![0, 0, 1, 1, 1]);
        assert!(ok.check(&inst, 1e-9).is_none());
        assert!((ok.makespan - 6.0).abs() < 1e-9);

        let short = Schedule::from_assignment(&inst, vec![0, 0, 1, 1, 1]);
        let mut bad = short.clone();
        bad.assignment = vec![0, 0];
        assert!(bad.check(&inst, 1e-9).is_some());
        let mut oob = short;
        oob.assignment[0] = 7;
        assert!(oob.check(&inst, 1e-9).is_some());
    }
}
