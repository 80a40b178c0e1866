//! Per-thread solver counters.
//!
//! Every solve — cold or warm, LP or branch-and-bound — adds its
//! statistics to the running total of the thread that solved, so layers
//! that cannot thread a [`crate::revised::SolverSession`] through (the
//! XPlain pipeline calls the solver from deep inside domain oracles) can
//! still report solver work: snapshot before, snapshot after, diff. A
//! delta taken around a region of code counts exactly the solves that
//! region made, whatever other threads solve meanwhile.
//!
//! Work a region hands to helper threads belongs to the thread that
//! spawned them: [`on_threads`] runs tasks on scoped threads and adds
//! their counts to the calling thread's total. Every place that solves
//! on helper threads goes through it.
//!
//! Recording is a thread-local add: no lock and no shared atomic per
//! solve.

use crate::revised::SolverStats;
use serde::{Deserialize, Serialize};
use std::cell::Cell;

thread_local! {
    /// The calling thread's solver work since it started.
    static TOTAL: Cell<SolverCounters> = Cell::new(SolverCounters::default());
}

fn add(work: &SolverCounters) {
    TOTAL.with(|total| total.set(total.get().plus(work)));
}

/// Fold one solve's statistics into the calling thread's total.
pub(crate) fn record(stats: &SolverStats) {
    add(&SolverCounters {
        lp_solves: stats.solves,
        lp_iterations: stats.iterations,
        lp_dual_iterations: stats.dual_iterations,
        lp_refactorizations: stats.refactorizations,
        lp_warm_hits: stats.warm_hits,
        lp_cold_starts: stats.cold_starts,
        bb_nodes: 0,
    });
}

/// One branch-and-bound node explored.
pub(crate) fn record_bb_node() {
    add(&SolverCounters {
        bb_nodes: 1,
        ..SolverCounters::default()
    });
}

/// Run `task(0)`, …, `task(threads - 1)` each on its own scoped thread
/// and return their values in order. The threads' solver work is added
/// to the calling thread's total, as if it had run every task itself; a
/// panicking task panics the caller with its payload.
pub fn on_threads<T, F>(threads: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let task = &task;
    std::thread::scope(|scope| {
        // A new thread's total starts at zero, so it ends as its task's work.
        let handles: Vec<_> = (0..threads)
            .map(|i| scope.spawn(move || (task(i), SolverCounters::snapshot())))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let (value, work) = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
                add(&work);
                value
            })
            .collect()
    })
}

/// A snapshot of (or delta between) the calling thread's solver totals.
///
/// Serializable so it can ride inside `PipelineResult`; all fields are far
/// below the JSON-safe 2^53 window for any realistic run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverCounters {
    /// LP solves (cold + warm).
    pub lp_solves: u64,
    /// Primal simplex pivots and bound flips.
    pub lp_iterations: u64,
    /// Dual simplex pivots (warm-start repair).
    pub lp_dual_iterations: u64,
    /// Basis-inverse rebuilds.
    pub lp_refactorizations: u64,
    /// Solves resumed from a cached basis.
    pub lp_warm_hits: u64,
    /// Solves that ran the cold phase-1 route.
    pub lp_cold_starts: u64,
    /// Branch-and-bound nodes explored.
    pub bb_nodes: u64,
}

impl SolverCounters {
    /// The calling thread's totals: its own solves plus those of the
    /// [`on_threads`] tasks it ran.
    pub fn snapshot() -> Self {
        TOTAL.with(Cell::get)
    }

    /// Counters accumulated since `earlier`. A later snapshot of the same
    /// thread never underflows; `saturating_sub` only guards callers that
    /// mix snapshots up.
    pub fn since(&self, earlier: &SolverCounters) -> SolverCounters {
        SolverCounters {
            lp_solves: self.lp_solves.saturating_sub(earlier.lp_solves),
            lp_iterations: self.lp_iterations.saturating_sub(earlier.lp_iterations),
            lp_dual_iterations: self
                .lp_dual_iterations
                .saturating_sub(earlier.lp_dual_iterations),
            lp_refactorizations: self
                .lp_refactorizations
                .saturating_sub(earlier.lp_refactorizations),
            lp_warm_hits: self.lp_warm_hits.saturating_sub(earlier.lp_warm_hits),
            lp_cold_starts: self.lp_cold_starts.saturating_sub(earlier.lp_cold_starts),
            bb_nodes: self.bb_nodes.saturating_sub(earlier.bb_nodes),
        }
    }

    /// Field-wise sum — lets a resumable consumer (the analysis session)
    /// accumulate per-step deltas across interrupted segments into one
    /// total equal to what a single uninterrupted delta would report.
    pub fn plus(&self, other: &SolverCounters) -> SolverCounters {
        SolverCounters {
            lp_solves: self.lp_solves + other.lp_solves,
            lp_iterations: self.lp_iterations + other.lp_iterations,
            lp_dual_iterations: self.lp_dual_iterations + other.lp_dual_iterations,
            lp_refactorizations: self.lp_refactorizations + other.lp_refactorizations,
            lp_warm_hits: self.lp_warm_hits + other.lp_warm_hits,
            lp_cold_starts: self.lp_cold_starts + other.lp_cold_starts,
            bb_nodes: self.bb_nodes + other.bb_nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, Model, Sense};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn solve_tiny() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg("x");
        let y = m.add_nonneg("y");
        m.add_constr("cap", x + y, Cmp::Le, 3.0);
        m.set_objective(x + y);
        m.solve().unwrap();
    }

    #[test]
    fn solves_move_the_counters() {
        let before = SolverCounters::snapshot();
        solve_tiny();
        let delta = SolverCounters::snapshot().since(&before);
        assert_eq!(delta.lp_solves, 1, "{delta:?}");
        assert_eq!(delta.lp_cold_starts, 1, "{delta:?}");
    }

    /// Another thread solving all the while leaves this thread's delta
    /// exactly its own.
    #[test]
    fn other_threads_solves_do_not_count_here() {
        let mut alone = SolverCounters::default();
        for _ in 0..20 {
            let before = SolverCounters::snapshot();
            solve_tiny();
            alone = alone.plus(&SolverCounters::snapshot().since(&before));
        }
        let stop = AtomicBool::new(false);
        let beside = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    solve_tiny();
                }
            });
            let before = SolverCounters::snapshot();
            for _ in 0..20 {
                solve_tiny();
            }
            let delta = SolverCounters::snapshot().since(&before);
            stop.store(true, Ordering::Relaxed);
            delta
        });
        assert_eq!(alone.lp_solves, 20);
        assert_eq!(beside, alone);
    }

    /// Work split over 1 or 3 threads lands on the caller as the same
    /// total as doing it inline.
    #[test]
    fn thread_work_lands_on_the_caller() {
        let inline = {
            let before = SolverCounters::snapshot();
            for _ in 0..6 {
                solve_tiny();
            }
            SolverCounters::snapshot().since(&before)
        };
        for threads in [1, 3] {
            let before = SolverCounters::snapshot();
            let values = on_threads(threads, |i| {
                for _ in 0..6 / threads {
                    solve_tiny();
                }
                i
            });
            assert_eq!(values, (0..threads).collect::<Vec<_>>());
            assert_eq!(
                SolverCounters::snapshot().since(&before),
                inline,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn since_saturates() {
        let a = SolverCounters {
            lp_solves: 1,
            ..Default::default()
        };
        let b = SolverCounters {
            lp_solves: 5,
            ..Default::default()
        };
        assert_eq!(a.since(&b).lp_solves, 0);
        assert_eq!(b.since(&a).lp_solves, 4);
    }
}
