//! Demand Pinning (traffic engineering) bound to the runtime.
//!
//! [`DpDomain`] packages the Fig. 1a-style TE problem for the registry;
//! [`DpDslMapper`] maps inputs to Fig. 4a heat-map flows; [`DpFamily`] /
//! [`generate_dp_instances`] realize §5.4's instance generator for the
//! Type-3 trends (chains of growing pinned-path length).

use crate::domain::{Domain, ParamDescriptor, ParamSpace};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use xplain_analyzer::oracle::{DpOracle, GapOracle};
use xplain_analyzer::search::dp_seeds;
use xplain_core::explainer::DslMapper;
use xplain_core::generalizer::Observation;
use xplain_domains::te::{
    DemandPair, DemandPinning, TeAllocation, TeDsl, TeLexSolver, TeLexSolverStack, TeProblem,
    Topology,
};
use xplain_flownet::FlowNet;

/// DSL mapper for Demand Pinning on a TE problem (Fig. 4a).
///
/// Concurrent jobs share a domain's solvers, and max-flow optima are
/// not unique: a solve that started from whatever basis its solver last
/// held would return a *vertex* (the flow split among equally-optimal
/// allocations) that depends on thread scheduling and call order,
/// breaking the runtime's byte-for-byte determinism guarantee. So the mapper checks a prepared
/// [`TeLexSolver`] (both lexicographic stage LPs standardized once) out of
/// a [`TeLexSolverStack`], and every solve starts from that solver's
/// anchor basis, the one [`TeProblem::lex_solver`] kept at the box
/// centre. The output is a function of the input alone, whichever solver
/// an evaluation drew, and every solve is warm. It is byte-identical to
/// the one-shot `DemandPinning::solve` / `TeProblem::optimal`, which
/// start from the same anchor (pinned by the history-independence tests
/// below and the replay suite). [`DpDomain::mapper`] hands out mappers
/// on the domain's own stack, shared with its oracles.
pub struct DpDslMapper {
    pub problem: TeProblem,
    pub heuristic: DemandPinning,
    pub dsl: TeDsl,
    solvers: Arc<TeLexSolverStack>,
}

impl DpDslMapper {
    /// A mapper with a stack of its own (two anchor solves).
    pub fn new(problem: TeProblem, threshold: f64) -> Self {
        let solvers = TeLexSolverStack::new(&problem)
            .expect("max-flow LP of a validated TeProblem is well-formed");
        DpDslMapper::sharing(problem, threshold, Arc::new(solvers))
    }

    /// A mapper on an existing stack, which must have been built for
    /// `problem`. Solves nothing.
    pub fn sharing(problem: TeProblem, threshold: f64, solvers: Arc<TeLexSolverStack>) -> Self {
        DpDslMapper {
            heuristic: DemandPinning::new(threshold),
            dsl: TeDsl::build(&problem),
            problem,
            solvers,
        }
    }

    /// Run `f` on a checked-out solver.
    fn with_solver(
        &self,
        f: impl FnOnce(&mut TeLexSolver) -> Option<TeAllocation>,
    ) -> Option<TeAllocation> {
        self.solvers.with(&self.problem, f).ok().flatten()
    }
}

impl DslMapper for DpDslMapper {
    fn net(&self) -> &FlowNet {
        &self.dsl.net
    }

    fn heuristic_flows(&self, x: &[f64]) -> Option<Vec<f64>> {
        let alloc =
            self.with_solver(|solver| self.heuristic.solve_with(&self.problem, x, solver).ok())?;
        Some(self.dsl.assignment(x, &alloc))
    }

    fn benchmark_flows(&self, x: &[f64]) -> Option<Vec<f64>> {
        let alloc = self.with_solver(|solver| solver.optimal(x).ok())?;
        Some(self.dsl.assignment(x, &alloc))
    }
}

/// Parameters of the DP instance family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DpFamily {
    /// Chain lengths (pinned-path lengths) to generate.
    pub lengths: Vec<usize>,
    pub chain_cap: f64,
    pub bypass_cap: f64,
    pub threshold: f64,
    /// Random capacity jitter (fraction of the base capacity).
    pub cap_jitter: f64,
}

impl Default for DpFamily {
    fn default() -> Self {
        DpFamily {
            // Lengths start at 2: with a single hop the per-hop demand is
            // the end-to-end pair itself and can escape over the bypass,
            // so the gap degenerates to zero.
            lengths: (2..=7).collect(),
            chain_cap: 100.0,
            bypass_cap: 60.0,
            threshold: 50.0,
            cap_jitter: 0.0,
        }
    }
}

/// A generated DP instance with its adversarial input and features.
#[derive(Debug, Clone)]
pub struct DpInstance {
    pub problem: TeProblem,
    pub threshold: f64,
    /// The structured adversarial input (pinnable end-to-end demand at the
    /// threshold, per-hop demands saturating).
    pub adversarial_input: Vec<f64>,
    pub observation: Observation,
}

/// Generate the DP family: one instance per requested chain length.
///
/// Instance `L`: chain of `L` hops (capacity `chain_cap`) with an
/// end-to-end bypass of `L + 1` hops (capacity `bypass_cap`); demands are
/// the pinnable end-to-end pair plus one per-hop demand. At the structured
/// adversarial input the gap is `L * T` — growing with the pinned path
/// length, which is what the generalizer should discover.
pub fn generate_dp_instances(family: &DpFamily, rng: &mut impl Rng) -> Vec<DpInstance> {
    let mut out = Vec::with_capacity(family.lengths.len());
    for &len in &family.lengths {
        let mut jitter = |base: f64| -> f64 {
            if family.cap_jitter > 0.0 {
                base * (1.0 + family.cap_jitter * rng.gen_range(-1.0..1.0))
            } else {
                base
            }
        };
        let chain_cap = jitter(family.chain_cap);
        let bypass_cap = jitter(family.bypass_cap).max(family.threshold + 1.0);
        let topo = Topology::chain_with_long_bypass(len, chain_cap, bypass_cap);

        let mut demands = vec![DemandPair { src: 0, dst: len }];
        for i in 0..len {
            demands.push(DemandPair { src: i, dst: i + 1 });
        }
        let problem = TeProblem::new(topo, demands, 2 * len + 2, chain_cap.max(bypass_cap))
            .expect("chain instance is well-formed");

        // Structured adversarial input: pinnable demand at the threshold,
        // hop demands saturating their direct links.
        let mut input = vec![family.threshold];
        input.extend(std::iter::repeat_n(chain_cap, len));

        let dp = DemandPinning::new(family.threshold);
        let gap = dp.gap(&problem, &input).unwrap_or(0.0);

        let pinned_path = &problem.paths[0][0];
        let min_cap = pinned_path.min_capacity(&problem.topology);
        let observation = Observation {
            features: vec![
                ("pinned_path_length".to_string(), pinned_path.len() as f64),
                ("pinned_path_min_capacity".to_string(), min_cap),
                ("num_demands".to_string(), problem.num_demands() as f64),
            ],
            gap,
        };

        out.push(DpInstance {
            problem,
            threshold: family.threshold,
            adversarial_input: input,
            observation,
        });
    }
    out
}

/// The TE / Demand Pinning domain: a registry entry around one concrete
/// [`TeProblem`] and pinning threshold.
///
/// The domain builds one [`TeLexSolverStack`] for its problem when it is
/// constructed, so the problem's anchor is solved once per domain. Its
/// oracles, mappers and tuned oracles all share that stack: none of
/// them solves anything when built, and a job's or a tune's solver work
/// is its evaluations alone. The threshold is per oracle; the stack
/// depends on the problem alone, which is why the problem is read-only.
pub struct DpDomain {
    problem: TeProblem,
    solvers: Arc<TeLexSolverStack>,
    pub threshold: f64,
    pub family: DpFamily,
}

impl DpDomain {
    /// The domain over `problem` (two anchor solves, on this thread).
    pub fn new(problem: TeProblem, threshold: f64) -> Self {
        let solvers = TeLexSolverStack::new(&problem)
            .expect("max-flow LP of a validated TeProblem is well-formed");
        DpDomain {
            problem,
            solvers: Arc::new(solvers),
            threshold,
            family: DpFamily::default(),
        }
    }

    /// The paper's Fig. 1a instance at threshold 50.
    pub fn fig1a() -> Self {
        DpDomain::new(TeProblem::fig1a(), 50.0)
    }

    /// The TE problem every oracle and mapper of this domain solves.
    pub fn problem(&self) -> &TeProblem {
        &self.problem
    }

    /// An oracle on the domain's stack with the given threshold.
    fn oracle_at(&self, threshold: f64) -> DpOracle {
        DpOracle::sharing(self.problem.clone(), threshold, self.solvers.clone())
    }
}

impl Domain for DpDomain {
    fn id(&self) -> &str {
        "dp"
    }

    fn description(&self) -> String {
        format!(
            "Demand Pinning (threshold {}) vs optimal multi-commodity flow on {} demands",
            self.threshold,
            self.problem.num_demands()
        )
    }

    fn oracle(&self) -> Box<dyn GapOracle> {
        Box::new(self.oracle_at(self.threshold))
    }

    fn mapper(&self) -> Option<Box<dyn DslMapper>> {
        Some(Box::new(DpDslMapper::sharing(
            self.problem.clone(),
            self.threshold,
            self.solvers.clone(),
        )))
    }

    fn seeds(&self) -> Vec<Vec<f64>> {
        dp_seeds(
            self.problem.num_demands(),
            self.threshold,
            self.problem.demand_cap,
        )
    }

    fn instance_family(&self, seed: u64) -> Vec<Observation> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        generate_dp_instances(&self.family, &mut rng)
            .into_iter()
            .map(|i| i.observation)
            .collect()
    }

    fn param_space(&self) -> Option<ParamSpace> {
        Some(ParamSpace {
            domain: "dp".to_string(),
            params: vec![ParamDescriptor {
                name: "pin_threshold".to_string(),
                lo: 0.0,
                hi: self.problem.demand_cap,
                default: self.threshold,
            }],
        })
    }

    fn tuned_oracle(&self, params: &[f64]) -> Option<Box<dyn GapOracle>> {
        let &[threshold] = params else { return None };
        Some(Box::new(self.oracle_at(threshold)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xplain_core::explainer::{explain, EdgeScore, ExplainerParams};
    use xplain_core::generalizer::{generalize, GeneralizerParams, Trend};
    use xplain_core::pipeline::PipelineConfig;
    use xplain_core::session::{SessionBudgets, SessionEvent};
    use xplain_core::subspace::Subspace;

    /// The streaming API through the DP adapter: an analyzer-call budget
    /// stops the session mid-loop with the first finding already
    /// delivered, and the partial result says why.
    #[test]
    fn dp_session_streams_first_finding_under_budget() {
        let config = PipelineConfig {
            max_subspaces: 3,
            significance: xplain_core::SignificanceParams {
                pairs: 40,
                ..Default::default()
            },
            explainer: ExplainerParams {
                samples: 60,
                threads: 1,
                ..Default::default()
            },
            coverage_samples: 0,
            ..Default::default()
        };
        let mut session = DpDomain::fig1a()
            .session(
                &config,
                SessionBudgets {
                    max_analyzer_calls: Some(1),
                    ..Default::default()
                },
            )
            .expect("dp session builds");
        let mut delivered = 0usize;
        let result = session.drain_with(|event| {
            if let SessionEvent::ExplanationReady { finding, .. } = event {
                delivered += 1;
                // Type 2 flows through the streaming path too.
                assert!(finding.explanation.is_some());
                assert!(finding.subspace.seed_gap > 0.0);
            }
        });
        assert_eq!(delivered, 1, "budget of 1 call ⇒ exactly one finding");
        assert_eq!(result.analyzer_calls, 1);
        assert!(!session.finished_naturally());
    }

    /// The Fig. 4a claim: inside the DP adversarial subspace, the
    /// heuristic-only edges are the pinned demand's shortest path and the
    /// benchmark-only edges are the long path.
    #[test]
    fn dp_heatmap_matches_fig4a() {
        let mapper = DpDslMapper::new(TeProblem::fig1a(), 50.0);
        // Subspace: pinnable 1⇝3 near the threshold, other demands large.
        let sub = Subspace::from_rough_box(
            vec![35.0, 85.0, 85.0],
            vec![50.0, 100.0, 100.0],
            vec![50.0, 100.0, 100.0],
            100.0,
        );
        let params = ExplainerParams {
            samples: 250,
            threads: 2,
            ..Default::default()
        };
        let ex = explain(&mapper, &sub, &params, 42);
        assert!(ex.samples_used >= 200, "{}", ex.samples_used);

        let find = |label: &str| -> &EdgeScore {
            ex.edges
                .iter()
                .find(|e| e.label == label)
                .unwrap_or_else(|| panic!("edge {label} missing"))
        };
        // Heuristic-only (red): pinned demand on its shortest path.
        let short = find("1~3->1-2-3");
        assert!(short.score < -0.9, "short path score {}", short.score);
        // Benchmark-only (blue): the optimal reroutes over 1-4-5-3.
        let long = find("1~3->1-4-5-3");
        assert!(long.score > 0.9, "long path score {}", long.score);
        // Both route the other demands on their single paths: score ~ 0.
        let d12 = find("1~2->1-2");
        assert!(d12.score.abs() < 0.2, "1~2 score {}", d12.score);
    }

    /// Points across the Fig. 1a input box: pinnable and not, ties at
    /// the threshold, zeros, and demands past the link capacities.
    fn history_points() -> Vec<Vec<f64>> {
        let mut points = vec![
            vec![50.0, 100.0, 100.0],
            vec![0.0, 0.0, 0.0],
            vec![100.0, 100.0, 100.0],
            vec![49.5, 10.0, 90.0],
            vec![51.0, 0.0, 100.0],
        ];
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            points.push((0..3).map(|_| rng.gen_range(0.0..=100.0)).collect());
        }
        points
    }

    fn assert_bits(a: &[f64], b: &[f64], what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{what}: {a:?} vs {b:?}");
    }

    /// The mapper's flows are a function of the input alone: whatever
    /// order the points come in and whichever thread asks (so whichever
    /// reused solver it draws), they equal bit for bit the flows of the
    /// one-shot solves, each on a fresh solver.
    #[test]
    fn dp_mapper_output_does_not_depend_on_call_history() {
        let problem = TeProblem::fig1a();
        let mapper = DpDslMapper::new(problem.clone(), 50.0);
        let points = history_points();
        let expected: Vec<(Vec<f64>, Vec<f64>)> = points
            .iter()
            .map(|x| {
                let h = mapper.heuristic.solve(&problem, x).unwrap();
                let b = problem.optimal(x).unwrap();
                (mapper.dsl.assignment(x, &h), mapper.dsl.assignment(x, &b))
            })
            .collect();
        let check = |ix: usize, what: &str| {
            let x = &points[ix];
            let (h, b) = &expected[ix];
            assert_bits(&mapper.heuristic_flows(x).unwrap(), h, what);
            assert_bits(&mapper.benchmark_flows(x).unwrap(), b, what);
        };
        for ix in 0..points.len() {
            check(ix, "forward");
        }
        for ix in (0..points.len()).rev() {
            check(ix, "reverse");
        }
        std::thread::scope(|scope| {
            for tid in 0..2 {
                let check = &check;
                let n = points.len();
                scope.spawn(move || {
                    for k in 0..n {
                        let ix = if tid == 0 { k } else { n - 1 - k };
                        check(ix, "two threads");
                    }
                });
            }
        });
    }

    /// One domain's oracles and mappers share its stack under
    /// concurrency: three threads evaluating the same 300 seeded fig1a
    /// points through `oracle()` and `mapper()` at once get, bit for
    /// bit, what a fresh `DpOracle::new` / `DpDslMapper::new` computes,
    /// and the stack never owns more solvers than the peak number of
    /// concurrent callers.
    #[test]
    fn dp_domain_oracles_and_mappers_share_one_stack() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;
        let domain = DpDomain::fig1a();
        let mut rng = StdRng::seed_from_u64(24);
        let points: Vec<Vec<f64>> = (0..300)
            .map(|_| (0..3).map(|_| rng.gen_range(0.0..=100.0)).collect())
            .collect();
        let oracle = DpOracle::new(TeProblem::fig1a(), 50.0);
        let mapper = DpDslMapper::new(TeProblem::fig1a(), 50.0);
        let evaluate = |oracle: &dyn GapOracle, mapper: &dyn DslMapper, x: &[f64]| {
            let mut values = vec![oracle.gap(x)];
            values.extend(mapper.heuristic_flows(x).unwrap());
            values.extend(mapper.benchmark_flows(x).unwrap());
            values
        };
        let expected: Vec<Vec<f64>> = points
            .iter()
            .map(|x| evaluate(&oracle, &mapper, x))
            .collect();
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let start = Barrier::new(3);
        std::thread::scope(|scope| {
            for tid in 0..3 {
                let (domain, points, expected) = (&domain, &points, &expected);
                let (in_flight, peak, start, evaluate) = (&in_flight, &peak, &start, &evaluate);
                scope.spawn(move || {
                    let oracle = domain.oracle();
                    let mapper = domain.mapper().unwrap();
                    start.wait();
                    for k in 0..points.len() {
                        let ix = (k + 100 * tid) % points.len();
                        let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        let got = evaluate(oracle.as_ref(), mapper.as_ref(), &points[ix]);
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                        assert_bits(&got, &expected[ix], "shared stack");
                    }
                });
            }
        });
        let (owned, peak) = (domain.solvers.solvers(), peak.into_inner());
        assert!(
            owned <= peak,
            "{owned} solvers for {peak} concurrent callers"
        );
    }

    /// Two runs of a two-stream explainer over one mapper serialize to
    /// the same bytes.
    #[test]
    fn dp_explanation_bytes_repeat_across_runs() {
        let mapper = DpDslMapper::new(TeProblem::fig1a(), 50.0);
        let sub = Subspace::from_rough_box(
            vec![35.0, 85.0, 85.0],
            vec![50.0, 100.0, 100.0],
            vec![50.0, 100.0, 100.0],
            100.0,
        );
        let params = ExplainerParams {
            samples: 120,
            threads: 2,
            ..Default::default()
        };
        let first = serde_json::to_string(&explain(&mapper, &sub, &params, 9)).unwrap();
        let second = serde_json::to_string(&explain(&mapper, &sub, &params, 9)).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn dp_family_gap_grows_linearly_with_length() {
        let mut rng = StdRng::seed_from_u64(1);
        let family = DpFamily::default();
        let instances = generate_dp_instances(&family, &mut rng);
        assert_eq!(instances.len(), 6);
        for (ix, inst) in instances.iter().enumerate() {
            let len = (ix + 2) as f64;
            // Gap = L * T (chain pinning starves every hop demand by T).
            let expect = len * family.threshold;
            assert!(
                (inst.observation.gap - expect).abs() < 1e-4,
                "L = {len}: gap {} != {expect}",
                inst.observation.gap
            );
        }
    }

    /// The gap has one definition: a generated instance's observed gap
    /// equals, bit for bit, what the analysis oracle computes at the
    /// same adversarial input — over the default family and jittered
    /// capacities.
    #[test]
    fn dp_family_gap_is_the_oracle_gap() {
        let jittered = DpFamily {
            cap_jitter: 0.2,
            ..DpFamily::default()
        };
        let mut checked = 0usize;
        for (family, seeds) in [(DpFamily::default(), 0..1u64), (jittered, 0..4u64)] {
            for seed in seeds {
                let mut rng = StdRng::seed_from_u64(seed);
                for inst in generate_dp_instances(&family, &mut rng) {
                    let oracle = DpOracle::new(inst.problem.clone(), inst.threshold);
                    let gap = oracle.gap(&inst.adversarial_input);
                    assert_eq!(
                        inst.observation.gap.to_bits(),
                        gap.to_bits(),
                        "seed {seed}: observed {} vs oracle {gap}",
                        inst.observation.gap
                    );
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 30);
    }

    #[test]
    fn dp_family_features_present() {
        let mut rng = StdRng::seed_from_u64(2);
        let instances = generate_dp_instances(&DpFamily::default(), &mut rng);
        let names: Vec<&str> = instances[0]
            .observation
            .features
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert!(names.contains(&"pinned_path_length"));
        assert!(names.contains(&"pinned_path_min_capacity"));
    }

    /// The paper's E8 headline: the generalizer emits `increasing(P)` for
    /// the pinned-path-length feature.
    #[test]
    fn generalizer_discovers_increasing_pinned_path_length() {
        let observations = DpDomain::fig1a().instance_family(3);
        let findings = generalize(&observations, &GeneralizerParams::default());
        let f = findings
            .iter()
            .find(|f| f.feature == "pinned_path_length")
            .expect("increasing(pinned_path_length) must be discovered");
        assert_eq!(f.trend, Trend::Increasing);
        assert!(f.p_value < 0.05);
    }
}
