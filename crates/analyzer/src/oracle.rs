//! The analyzer's view of a heuristic-analysis problem: a black-box *gap
//! oracle* over a box-shaped input space.
//!
//! Both the exact MILP analyzers and the search analyzer expose the same
//! downstream interface, so the XPlain pipeline (subspace generation,
//! significance checking, explanation) is agnostic to how adversarial
//! inputs are found — exactly the role MetaOpt plays in the paper's Fig. 3.

use xplain_domains::sched::{lpt, SchedInstance};
use xplain_domains::te::{DemandPinning, TeLexSolverStack, TeProblem};
use xplain_domains::vbp::{first_fit, optimal, VbpInstance};

/// A heuristic-vs-benchmark gap function over a box input space.
///
/// `Send + Sync` because oracles are both shared across the explainer's
/// scoped sample threads and *moved* into the runtime's batch-executor
/// workers (`Box<dyn GapOracle>` built by a `Domain` factory on one
/// thread may run on another).
pub trait GapOracle: Send + Sync {
    /// Input dimensionality.
    fn dims(&self) -> usize;

    /// Per-dimension `[lo, hi]` bounds of the input space.
    fn bounds(&self) -> Vec<(f64, f64)>;

    /// `benchmark(x) - heuristic(x)` (larger = worse for the heuristic).
    /// Implementations must be total on the box; invalid points should
    /// return `f64::NEG_INFINITY` rather than panic.
    fn gap(&self, x: &[f64]) -> f64;

    /// Human-readable dimension names (defaults to `x0..`).
    fn dim_names(&self) -> Vec<String> {
        (0..self.dims()).map(|d| format!("x{d}")).collect()
    }
}

/// References forward wholesale, so a borrowed `&dyn GapOracle` can be
/// boxed into an owning context (the analysis session holds
/// `Box<dyn GapOracle + 'a>`, which a plain reference satisfies through
/// this impl — no wrapper type needed).
impl<T: GapOracle + ?Sized> GapOracle for &T {
    fn dims(&self) -> usize {
        (**self).dims()
    }
    fn bounds(&self) -> Vec<(f64, f64)> {
        (**self).bounds()
    }
    fn gap(&self, x: &[f64]) -> f64 {
        (**self).gap(x)
    }
    fn dim_names(&self) -> Vec<String> {
        (**self).dim_names()
    }
}

/// Demand Pinning gap oracle: input = demand volumes, gap = OPT − DP.
///
/// Every evaluation solves two max-flow LPs over the *same* problem
/// structure (the benchmark total and the heuristic's phase-2 residual
/// total — the gap needs no vertex, so the lexicographic refinement
/// stage is skipped), and the oracle keeps prepared
/// [`TeLexSolver`](xplain_domains::te::TeLexSolver)s:
/// the stage LPs are standardized once and every evaluation re-solves
/// them through rhs deltas on warm bases — no per-evaluation model
/// build. Solvers live in a [`TeLexSolverStack`], so the explainer's
/// sample threads each hold one for the duration of an evaluation and
/// the stack stays warm from then on. Solutions are exact regardless of
/// which solver a call draws, so contention only costs time, never
/// determinism.
pub struct DpOracle {
    pub problem: TeProblem,
    pub heuristic: DemandPinning,
    solvers: TeLexSolverStack,
}

impl DpOracle {
    pub fn new(problem: TeProblem, threshold: f64) -> Self {
        let solvers = TeLexSolverStack::new(&problem)
            .expect("max-flow LP of a validated TeProblem is well-formed");
        DpOracle {
            problem,
            heuristic: DemandPinning::new(threshold),
            solvers,
        }
    }

    /// Aggregate solver statistics accumulated by this oracle's solvers
    /// (checked-in solvers only — an evaluation in flight on another
    /// thread contributes once it returns its solver).
    pub fn solver_stats(&self) -> xplain_lp::SolverStats {
        self.solvers.stats()
    }
}

impl GapOracle for DpOracle {
    fn dims(&self) -> usize {
        self.problem.num_demands()
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        vec![(0.0, self.problem.demand_cap); self.dims()]
    }

    fn gap(&self, x: &[f64]) -> f64 {
        self.solvers
            .with(&self.problem, |solver| {
                self.heuristic.gap_prepared(&self.problem, x, solver)
            })
            .ok()
            .and_then(Result::ok)
            .unwrap_or(f64::NEG_INFINITY)
    }

    fn dim_names(&self) -> Vec<String> {
        (0..self.dims())
            .map(|k| format!("d[{}]", self.problem.demand_name(k)))
            .collect()
    }
}

/// First-fit bin packing gap oracle: input = ball sizes, gap = FF bins −
/// OPT bins (integer-valued).
pub struct FfOracle {
    pub n_balls: usize,
    pub bin_capacity: f64,
    /// Smallest admissible ball (the paper's examples use ≥ 1% of the bin).
    pub min_size: f64,
}

impl FfOracle {
    pub fn new(n_balls: usize) -> Self {
        FfOracle {
            n_balls,
            bin_capacity: 1.0,
            min_size: 0.01,
        }
    }
}

impl GapOracle for FfOracle {
    fn dims(&self) -> usize {
        self.n_balls
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        vec![(self.min_size, self.bin_capacity); self.n_balls]
    }

    fn gap(&self, x: &[f64]) -> f64 {
        if x.len() != self.n_balls
            || x.iter()
                .any(|&s| !s.is_finite() || s < 0.0 || s > self.bin_capacity + 1e-12)
        {
            return f64::NEG_INFINITY;
        }
        let inst = VbpInstance {
            bin_capacity: vec![self.bin_capacity],
            balls: x.iter().map(|&s| vec![s]).collect(),
        };
        let ff = first_fit(&inst).bins_used as f64;
        let opt = optimal(&inst).bins_used as f64;
        ff - opt
    }

    fn dim_names(&self) -> Vec<String> {
        (0..self.n_balls).map(|i| format!("B{i}")).collect()
    }
}

/// Makespan-scheduling gap oracle: input = job processing times, gap =
/// LPT makespan − optimal makespan.
pub struct SchedOracle {
    pub n_jobs: usize,
    pub n_machines: usize,
    /// Largest admissible processing time. The default (`2m − 1`) is the
    /// longest job of the Graham-tight family, so the adversarial pattern
    /// sits inside the box.
    pub p_max: f64,
}

impl SchedOracle {
    pub fn new(n_jobs: usize, n_machines: usize) -> Self {
        assert!(n_machines >= 1, "a scheduling oracle needs a machine");
        SchedOracle {
            n_jobs,
            n_machines,
            p_max: (2 * n_machines - 1) as f64,
        }
    }
}

impl GapOracle for SchedOracle {
    fn dims(&self) -> usize {
        self.n_jobs
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        vec![(0.0, self.p_max); self.n_jobs]
    }

    fn gap(&self, x: &[f64]) -> f64 {
        if x.len() != self.n_jobs
            || x.iter()
                .any(|&p| !p.is_finite() || p < 0.0 || p > self.p_max + 1e-12)
        {
            return f64::NEG_INFINITY;
        }
        let inst = SchedInstance::new(self.n_machines, x.to_vec());
        let h = lpt(&inst).makespan;
        let b = xplain_domains::sched::optimal(&inst).makespan;
        h - b
    }

    fn dim_names(&self) -> Vec<String> {
        (0..self.n_jobs).map(|i| format!("J{i}")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dp_oracle_fig1a_point() {
        let oracle = DpOracle::new(TeProblem::fig1a(), 50.0);
        assert_eq!(oracle.dims(), 3);
        assert_eq!(oracle.bounds()[0], (0.0, 100.0));
        let g = oracle.gap(&[50.0, 100.0, 100.0]);
        assert!((g - 100.0).abs() < 1e-6, "{g}");
        assert_eq!(oracle.dim_names()[0], "d[1~3]");
    }

    #[test]
    fn dp_oracle_zero_point() {
        let oracle = DpOracle::new(TeProblem::fig1a(), 50.0);
        assert!(oracle.gap(&[0.0, 0.0, 0.0]).abs() < 1e-6);
    }

    #[test]
    fn ff_oracle_sec2_point() {
        let oracle = FfOracle::new(4);
        let g = oracle.gap(&[0.01, 0.49, 0.51, 0.51]);
        assert_eq!(g, 1.0);
    }

    #[test]
    fn ff_oracle_benign_point() {
        let oracle = FfOracle::new(4);
        assert_eq!(oracle.gap(&[0.5, 0.5, 0.5, 0.5]), 0.0);
    }

    #[test]
    fn ff_oracle_rejects_invalid() {
        let oracle = FfOracle::new(2);
        assert_eq!(oracle.gap(&[0.5]), f64::NEG_INFINITY);
        assert_eq!(oracle.gap(&[0.5, 1.5]), f64::NEG_INFINITY);
        assert_eq!(oracle.gap(&[0.5, f64::NAN]), f64::NEG_INFINITY);
    }

    #[test]
    fn sched_oracle_tight_point() {
        let oracle = SchedOracle::new(5, 2);
        assert_eq!(oracle.dims(), 5);
        assert_eq!(oracle.bounds()[0], (0.0, 3.0));
        // The Graham-tight instance: LPT 7 vs OPT 6.
        let g = oracle.gap(&[3.0, 3.0, 2.0, 2.0, 2.0]);
        assert!((g - 1.0).abs() < 1e-9, "{g}");
        assert_eq!(oracle.dim_names()[0], "J0");
    }

    #[test]
    fn sched_oracle_benign_point() {
        let oracle = SchedOracle::new(4, 2);
        // Perfectly pairable jobs: LPT is optimal.
        assert!(oracle.gap(&[3.0, 3.0, 1.0, 1.0]).abs() < 1e-9);
    }

    #[test]
    fn sched_oracle_rejects_invalid() {
        let oracle = SchedOracle::new(3, 2);
        assert_eq!(oracle.gap(&[1.0]), f64::NEG_INFINITY);
        assert_eq!(oracle.gap(&[1.0, 1.0, 9.0]), f64::NEG_INFINITY);
        assert_eq!(oracle.gap(&[1.0, 1.0, f64::NAN]), f64::NEG_INFINITY);
    }

    /// The satellite audit: oracles must move into executor worker
    /// threads, so trait objects have to be `Send` as well as `Sync`.
    #[test]
    fn oracles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DpOracle>();
        assert_send_sync::<FfOracle>();
        assert_send_sync::<SchedOracle>();
        assert_send_sync::<Box<dyn GapOracle>>();
    }
}
