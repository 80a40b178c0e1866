//! The analyzer's view of a heuristic-analysis problem: a black-box *gap
//! oracle* over a box-shaped input space.
//!
//! Both the exact MILP analyzers and the search analyzer expose the same
//! downstream interface, so the XPlain pipeline (subspace generation,
//! significance checking, explanation) is agnostic to how adversarial
//! inputs are found — exactly the role MetaOpt plays in the paper's Fig. 3.

use std::sync::Arc;
use xplain_domains::sched::lpt_capped_and_optimal_makespans;
use xplain_domains::te::{DemandPinning, TeLexSolverStack, TeProblem};
use xplain_domains::vbp::{first_fit_deferred_bins, optimal_bins};

/// A heuristic-vs-benchmark gap function over a box input space.
///
/// `Send + Sync` because oracles are shared across threads by reference
/// (the `&T` impl below is `Send` only for a `Sync` oracle) and *moved*
/// into the runtime's workers (`Box<dyn GapOracle>` built by a `Domain`
/// factory on one thread may run on another).
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

/// Demand Pinning gap oracle: input = demand volumes, gap = OPT − DP as
/// [`DemandPinning::gap_with`] defines it — the same value the one-shot
/// [`DemandPinning::gap`], the instance family's observations, the
/// adversarial witnesses and the bank replay report.
///
/// Every evaluation solves two max-flow LPs over the *same* problem
/// structure (the benchmark total and the heuristic's phase-2 residual
/// total — the gap needs no vertex, so the lexicographic refinement
/// stage is skipped), and the oracle keeps prepared
/// [`TeLexSolver`](xplain_domains::te::TeLexSolver)s:
/// the stage LPs are standardized once and every evaluation re-solves
/// them through rhs deltas — no per-evaluation model build. Solvers live
/// in a [`TeLexSolverStack`], so concurrent callers on one stack each
/// hold one for the duration of an evaluation. The stack depends on the
/// problem alone, never on the threshold, so oracles for one problem
/// can share one ([`DpOracle::sharing`]: a domain's oracles, mapper and
/// tune candidates solve the anchor once between them). Each evaluation
/// starts warm from the solver's anchor basis (the box centre's), so a
/// gap is a function of (problem, point) alone: a fresh oracle, a
/// long-lived one, one on a shared stack and the one-shot
/// [`DemandPinning::gap`] agree bit for bit.
pub struct DpOracle {
    pub problem: TeProblem,
    pub heuristic: DemandPinning,
    solvers: Arc<TeLexSolverStack>,
}

impl DpOracle {
    /// An oracle with a stack of its own (two anchor solves).
    pub fn new(problem: TeProblem, threshold: f64) -> Self {
        let solvers = TeLexSolverStack::new(&problem)
            .expect("max-flow LP of a validated TeProblem is well-formed");
        DpOracle::sharing(problem, threshold, Arc::new(solvers))
    }

    /// An oracle on an existing stack, which must have been built for
    /// `problem`. Solves nothing.
    pub fn sharing(problem: TeProblem, threshold: f64, solvers: Arc<TeLexSolverStack>) -> Self {
        DpOracle {
            problem,
            heuristic: DemandPinning::new(threshold),
            solvers,
        }
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
                self.heuristic.gap_with(&self.problem, x, solver)
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
/// OPT bins (integer-valued). The point itself is the balls' flat layout,
/// so a gap builds no instance: both counts run in the calling thread's
/// packing scratch and, once the thread has packed this many balls,
/// allocate nothing.
pub struct FfOracle {
    pub n_balls: usize,
    pub bin_capacity: f64,
    /// Smallest admissible ball (the paper's examples use ≥ 1% of the bin).
    pub min_size: f64,
    /// The heuristic's sizing rule: balls smaller than this are placed
    /// after the rest (`first_fit_deferred`). `0.0` (from
    /// [`FfOracle::new`]) defers nothing and is exactly first-fit; the
    /// repair tuner searches over it.
    pub defer_below: f64,
}

impl FfOracle {
    pub fn new(n_balls: usize) -> Self {
        FfOracle {
            n_balls,
            bin_capacity: 1.0,
            min_size: 0.01,
            defer_below: 0.0,
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
        let capacity = [self.bin_capacity];
        let ff = first_fit_deferred_bins(&capacity, x, self.defer_below) as f64;
        let opt = optimal_bins(&capacity, x) as f64;
        ff - opt
    }

    fn dim_names(&self) -> Vec<String> {
        (0..self.n_balls).map(|i| format!("B{i}")).collect()
    }
}

/// Makespan-scheduling gap oracle: input = job processing times, gap =
/// LPT makespan − optimal makespan. Both makespans run on the point in
/// the calling thread's scheduling scratch and, once the thread has
/// scheduled this many jobs, allocate nothing; uncapped, the LPT run is
/// also the optimum search's incumbent.
pub struct SchedOracle {
    pub n_jobs: usize,
    pub n_machines: usize,
    /// Largest admissible processing time. The default (`2m − 1`) is the
    /// longest job of the Graham-tight family, so the adversarial pattern
    /// sits inside the box.
    pub p_max: f64,
    /// The heuristic's MULTIFIT-style cap (`lpt_capped`). `0.0` (from
    /// [`SchedOracle::new`]) caps nothing and is exactly LPT; the repair
    /// tuner searches over it.
    pub cap_factor: f64,
}

impl SchedOracle {
    pub fn new(n_jobs: usize, n_machines: usize) -> Self {
        assert!(n_machines >= 1, "a scheduling oracle needs a machine");
        SchedOracle {
            n_jobs,
            n_machines,
            p_max: (2 * n_machines - 1) as f64,
            cap_factor: 0.0,
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
        let (h, b) = lpt_capped_and_optimal_makespans(self.n_machines, x, self.cap_factor);
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

    /// Points at which `warm` (kept across every earlier point) and a
    /// fresh oracle disagree in a gap's bits, over 300 seeded points.
    fn history_mismatches(problem: TeProblem) -> usize {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let warm = DpOracle::new(problem.clone(), 50.0);
        let cap = problem.demand_cap;
        (0..300)
            .filter(|_| {
                let x: Vec<f64> = (0..warm.dims()).map(|_| rng.gen_range(0.0..=cap)).collect();
                let fresh = DpOracle::new(problem.clone(), 50.0);
                warm.gap(&x).to_bits() != fresh.gap(&x).to_bits()
            })
            .count()
    }

    /// A gap is a function of (problem, point) alone: an oracle that has
    /// solved earlier points returns the bits a fresh oracle does, so a
    /// replay, a resume or a rebuilt oracle re-evaluates a finding
    /// exactly.
    #[test]
    fn dp_oracle_gap_does_not_depend_on_solver_history() {
        let mismatches = (
            history_mismatches(TeProblem::fig1a()),
            history_mismatches(TeProblem::fig4a()),
        );
        assert_eq!(mismatches, (0, 0), "(fig1a, fig4a) points of 300");
    }

    /// Packing and scheduling oracles of several sizes and parameters.
    fn packing_and_scheduling_oracles() -> Vec<Box<dyn GapOracle>> {
        vec![
            Box::new(FfOracle::new(4)),
            Box::new(FfOracle::new(12)),
            Box::new(FfOracle {
                defer_below: 0.3,
                ..FfOracle::new(7)
            }),
            Box::new(SchedOracle::new(5, 2)),
            Box::new(SchedOracle::new(9, 3)),
            Box::new(SchedOracle {
                cap_factor: 1.0,
                ..SchedOracle::new(6, 4)
            }),
        ]
    }

    /// `count` (oracle, point) pairs; a third of the coordinates sit on a
    /// coarse grid of the box, so ties are common.
    fn seeded_points(
        oracles: &[Box<dyn GapOracle>],
        seed: u64,
        count: usize,
    ) -> Vec<(usize, Vec<f64>)> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let k = rng.gen_range(0..oracles.len());
                let x = oracles[k]
                    .bounds()
                    .iter()
                    .map(|&(lo, hi)| match rng.gen_range(0..3) {
                        0 => lo + (hi - lo) * rng.gen_range(0..=4) as f64 / 4.0,
                        _ => rng.gen_range(lo..=hi),
                    })
                    .collect();
                (k, x)
            })
            .collect()
    }

    /// The ff and sched gaps run in per-thread scratch: a thread whose
    /// every probe follows four seeded points of other sizes (1,200 in
    /// all) returns the bits a thread with empty scratch does.
    #[test]
    fn ff_and_sched_gaps_do_not_depend_on_scratch_history() {
        let oracles = packing_and_scheduling_oracles();
        let probes = seeded_points(&oracles, 1, 300);
        let gap_bits = |(k, x): &(usize, Vec<f64>)| oracles[*k].gap(x).to_bits();
        let fresh: Vec<u64> = probes
            .iter()
            .map(|probe| std::thread::scope(|s| s.spawn(|| gap_bits(probe)).join().unwrap()))
            .collect();
        std::thread::scope(|s| {
            let warm: Vec<_> = (0..3)
                .map(|t| {
                    let (oracles, probes, gap_bits) = (&oracles, &probes, &gap_bits);
                    s.spawn(move || {
                        let earlier = seeded_points(oracles, 100 + t, 4 * probes.len());
                        probes
                            .iter()
                            .zip(earlier.chunks(4))
                            .map(|(probe, earlier)| {
                                for point in earlier {
                                    gap_bits(point);
                                }
                                gap_bits(probe)
                            })
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            for (t, handle) in warm.into_iter().enumerate() {
                assert_eq!(handle.join().unwrap(), fresh, "warm thread {t}");
            }
        });
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
