//! The working memory of the scheduling algorithms.
//!
//! As in [`vbp`](crate::vbp), every scheduling algorithm has one body, a
//! [`SchedScratch`] method over a machine count and a job slice, and runs
//! in its thread's scratch: once a thread has scheduled an instance,
//! scheduling one of the same or a smaller size allocates nothing. The
//! [`Schedule`] functions copy the result out of the scratch; the gap
//! oracle's [`lpt_capped_and_optimal_makespans`](crate::sched::lpt_capped_and_optimal_makespans)
//! reads the makespans alone and stays allocation-free.

use std::cell::RefCell;

use crate::sched::instance::{machine_loads, Schedule};

/// Buffers the scheduling bodies work in; they grow to the largest
/// instance a thread has scheduled and are never shrunk.
pub(crate) struct SchedScratch {
    /// Placement order (a permutation of the jobs, or a caller's list).
    pub order: Vec<usize>,
    /// Machine loads in placement order.
    pub loads: Vec<f64>,
    /// The result: `assignment[i]` = machine of job `i`.
    pub assignment: Vec<usize>,
    /// The result's machine loads, summed in job-index order.
    pub index_loads: Vec<f64>,
    /// The branch and bound's suffix sums of the remaining work.
    pub suffix: Vec<f64>,
    /// The branch and bound's working assignment.
    pub work: Vec<usize>,
    /// The loads each open search node has tried, node after node.
    pub tried: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<SchedScratch> = const {
        RefCell::new(SchedScratch {
            order: Vec::new(),
            loads: Vec::new(),
            assignment: Vec::new(),
            index_loads: Vec::new(),
            suffix: Vec::new(),
            work: Vec::new(),
            tried: Vec::new(),
        })
    };
}

impl SchedScratch {
    /// Run `f` in this thread's scratch.
    pub fn with<R>(f: impl FnOnce(&mut SchedScratch) -> R) -> R {
        SCRATCH.with(|s| f(&mut s.borrow_mut()))
    }

    /// Run `body` in this thread's scratch and package the makespan it
    /// returns with the assignment and loads it left.
    pub fn schedule(body: impl FnOnce(&mut SchedScratch) -> f64) -> Schedule {
        SchedScratch::with(|s| {
            let makespan = body(s);
            Schedule {
                assignment: s.assignment.clone(),
                loads: s.index_loads.clone(),
                makespan,
            }
        })
    }

    /// Set the placement order to every job by processing time, longest
    /// first, ties in index order.
    pub fn order_decreasing(&mut self, jobs: &[f64]) {
        self.order.clear();
        self.order.extend(0..jobs.len());
        self.order.sort_by(|&a, &b| {
            jobs[b]
                .partial_cmp(&jobs[a])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
    }

    /// The makespan of [`SchedScratch::assignment`], with
    /// [`SchedScratch::index_loads`] summed as [`Schedule::from_assignment`]
    /// sums them.
    pub fn settle(&mut self, machines: usize, jobs: &[f64]) -> f64 {
        machine_loads(machines, jobs, &self.assignment, &mut self.index_loads)
    }
}
