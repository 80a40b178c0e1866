//! Makespan scheduling (LPT) bound to the runtime — the third registered
//! domain, proving the registry is open beyond the paper's two examples.
//!
//! [`SchedDomain`] packages an `n_jobs × n_machines` setting for the
//! registry; [`SchedDslMapper`] maps processing-time vectors onto the
//! canonical-slot DSL flows; [`SchedFamily`] / [`generate_sched_instances`]
//! generate the Graham-tight family whose gap grows as `m − 1` — the
//! Type-3 trend `increasing(num_machines)`.

use crate::domain::{Domain, ParamDescriptor, ParamSpace};
use rand::Rng;
use serde::{Deserialize, Serialize};
use xplain_analyzer::oracle::{GapOracle, SchedOracle};
use xplain_analyzer::search::sched_seeds;
use xplain_core::explainer::DslMapper;
use xplain_core::generalizer::Observation;
use xplain_domains::sched::{lpt, optimal, SchedDsl, SchedInstance};
use xplain_flownet::FlowNet;

/// DSL mapper for LPT makespan scheduling.
pub struct SchedDslMapper {
    pub n_jobs: usize,
    pub n_machines: usize,
    pub p_max: f64,
    pub dsl: SchedDsl,
}

impl SchedDslMapper {
    pub fn new(n_jobs: usize, n_machines: usize, p_max: f64) -> Self {
        SchedDslMapper {
            n_jobs,
            n_machines,
            p_max,
            dsl: SchedDsl::build(n_jobs, n_machines, p_max),
        }
    }

    fn instance(&self, x: &[f64]) -> Option<SchedInstance> {
        if x.len() != self.n_jobs {
            return None;
        }
        Some(SchedInstance::new(self.n_machines, x.to_vec()))
    }
}

impl DslMapper for SchedDslMapper {
    fn net(&self) -> &FlowNet {
        &self.dsl.net
    }

    fn heuristic_flows(&self, x: &[f64]) -> Option<Vec<f64>> {
        let inst = self.instance(x)?;
        let schedule = lpt(&inst);
        self.dsl.assignment(&inst, &schedule)
    }

    fn benchmark_flows(&self, x: &[f64]) -> Option<Vec<f64>> {
        let inst = self.instance(x)?;
        let schedule = optimal(&inst);
        self.dsl.assignment(&inst, &schedule)
    }
}

/// Parameters of the scheduling instance family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedFamily {
    /// Machine counts to generate (one Graham-tight instance each).
    pub machine_counts: Vec<usize>,
    /// Random processing-time jitter (fraction of each job's size).
    pub p_jitter: f64,
}

impl Default for SchedFamily {
    fn default() -> Self {
        SchedFamily {
            machine_counts: (2..=6).collect(),
            p_jitter: 0.0,
        }
    }
}

/// A generated scheduling instance plus features.
#[derive(Debug, Clone)]
pub struct SchedFamilyInstance {
    pub instance: SchedInstance,
    pub observation: Observation,
}

/// Generate the scheduling family: one Graham-tight instance per machine
/// count. At `m` machines the LPT−OPT gap is exactly `m − 1`, so the
/// generalizer should discover `increasing(num_machines)`.
pub fn generate_sched_instances(
    family: &SchedFamily,
    rng: &mut impl Rng,
) -> Vec<SchedFamilyInstance> {
    let mut out = Vec::with_capacity(family.machine_counts.len());
    for &m in &family.machine_counts {
        let mut instance = SchedInstance::lpt_tight(m);
        if family.p_jitter > 0.0 {
            for p in &mut instance.jobs {
                *p *= 1.0 + family.p_jitter * rng.gen_range(-1.0..1.0);
            }
        }
        let gap = lpt(&instance).makespan - optimal(&instance).makespan;
        let total: f64 = instance.jobs.iter().sum();
        let observation = Observation {
            features: vec![
                ("num_machines".to_string(), m as f64),
                ("num_jobs".to_string(), instance.num_jobs() as f64),
                ("total_work".to_string(), total),
            ],
            gap,
        };
        out.push(SchedFamilyInstance {
            instance,
            observation,
        });
    }
    out
}

/// The makespan-scheduling domain: a registry entry around one
/// `n_jobs × n_machines` setting.
pub struct SchedDomain {
    pub n_jobs: usize,
    pub n_machines: usize,
    pub family: SchedFamily,
}

impl SchedDomain {
    pub fn new(n_jobs: usize, n_machines: usize) -> Self {
        SchedDomain {
            n_jobs,
            n_machines,
            family: SchedFamily::default(),
        }
    }

    /// The 2-machine, 5-job setting whose Graham-tight point has gap 1.
    pub fn small() -> Self {
        SchedDomain::new(5, 2)
    }
}

impl Domain for SchedDomain {
    fn id(&self) -> &str {
        "sched"
    }

    fn description(&self) -> String {
        format!(
            "LPT makespan scheduling vs exact optimum ({} jobs, {} machines)",
            self.n_jobs, self.n_machines
        )
    }

    fn oracle(&self) -> Box<dyn GapOracle> {
        Box::new(SchedOracle::new(self.n_jobs, self.n_machines))
    }

    fn mapper(&self) -> Option<Box<dyn DslMapper>> {
        let oracle = SchedOracle::new(self.n_jobs, self.n_machines);
        Some(Box::new(SchedDslMapper::new(
            self.n_jobs,
            self.n_machines,
            oracle.p_max,
        )))
    }

    fn seeds(&self) -> Vec<Vec<f64>> {
        let oracle = SchedOracle::new(self.n_jobs, self.n_machines);
        sched_seeds(self.n_jobs, self.n_machines, oracle.p_max)
    }

    fn instance_family(&self, seed: u64) -> Vec<Observation> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        generate_sched_instances(&self.family, &mut rng)
            .into_iter()
            .map(|i| i.observation)
            .collect()
    }

    fn param_space(&self) -> Option<ParamSpace> {
        Some(ParamSpace {
            domain: "sched".to_string(),
            params: vec![ParamDescriptor {
                name: "cap_factor".to_string(),
                lo: 0.0,
                hi: 2.0,
                default: 0.0,
            }],
        })
    }

    fn tuned_oracle(&self, params: &[f64]) -> Option<Box<dyn GapOracle>> {
        let &[cap_factor] = params else { return None };
        Some(Box::new(SchedOracle {
            cap_factor,
            ..SchedOracle::new(self.n_jobs, self.n_machines)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xplain_core::explainer::{explain, ExplainerParams};
    use xplain_core::generalizer::{generalize, GeneralizerParams, Trend};
    use xplain_core::subspace::Subspace;

    /// Around the Graham-tight point, LPT splits the two longest jobs
    /// across machines while the optimum pairs them — the heat-map must
    /// show that disagreement on the canonical-slot edges.
    #[test]
    fn sched_heatmap_shows_pairing_disagreement() {
        let mapper = SchedDslMapper::new(5, 2, 3.0);
        let sub = Subspace::from_rough_box(
            vec![2.9, 2.9, 1.9, 1.9, 1.9],
            vec![3.0, 3.0, 2.0, 2.0, 2.0],
            vec![3.0, 3.0, 2.0, 2.0, 2.0],
            1.0,
        );
        let params = ExplainerParams {
            samples: 200,
            threads: 2,
            ..Default::default()
        };
        let ex = explain(&mapper, &sub, &params, 11);
        assert!(ex.samples_used >= 150, "{}", ex.samples_used);
        // J0 lands on slot 0 under both (slot 0 is J0's machine by
        // canonicalization), so the story is told by J1: the optimum
        // pairs it with J0 on slot 0, LPT sends it to slot 1.
        let j1s0 = ex.edges.iter().find(|e| e.label == "J1->M0").unwrap();
        assert!(j1s0.score > 0.9, "J1->M0 score {}", j1s0.score);
        let j1s1 = ex.edges.iter().find(|e| e.label == "J1->M1").unwrap();
        assert!(j1s1.score < -0.9, "J1->M1 score {}", j1s1.score);
    }

    #[test]
    fn sched_family_gap_is_m_minus_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let family = SchedFamily::default();
        let instances = generate_sched_instances(&family, &mut rng);
        assert_eq!(instances.len(), 5);
        for (inst, &m) in instances.iter().zip(&family.machine_counts) {
            assert!(
                (inst.observation.gap - (m - 1) as f64).abs() < 1e-9,
                "m = {m}: gap {}",
                inst.observation.gap
            );
        }
    }

    #[test]
    fn generalizer_discovers_increasing_num_machines() {
        let observations = SchedDomain::small().instance_family(9);
        let findings = generalize(&observations, &GeneralizerParams::default());
        let f = findings
            .iter()
            .find(|f| f.feature == "num_machines")
            .expect("increasing(num_machines) must be discovered");
        assert_eq!(f.trend, Trend::Increasing);
        assert!(f.p_value < 0.05);
    }

    /// The streaming API through the sched adapter: deadline budgets are
    /// honored (an already-expired deadline finishes before any work),
    /// while an unbudgeted session runs the full Type-1/2 event stream.
    #[test]
    fn sched_session_honors_deadline_and_streams_naturally() {
        use xplain_core::pipeline::PipelineConfig;
        use xplain_core::session::{FinishReason, SessionBudgets, SessionEvent};

        let config = PipelineConfig {
            max_subspaces: 1,
            significance: xplain_core::SignificanceParams {
                pairs: 40,
                ..Default::default()
            },
            explainer: xplain_core::ExplainerParams {
                samples: 60,
                threads: 1,
                ..Default::default()
            },
            coverage_samples: 0,
            ..Default::default()
        };
        let domain = SchedDomain::small();

        let mut expired = domain
            .session(
                &config,
                SessionBudgets {
                    deadline_ms: Some(0),
                    ..Default::default()
                },
            )
            .expect("sched session builds");
        let Some(SessionEvent::Finished { reason, result }) = expired.next_event() else {
            panic!("expired deadline must finish immediately");
        };
        assert_eq!(reason, FinishReason::DeadlineExceeded);
        assert_eq!(result.analyzer_calls, 0);

        let mut kinds = Vec::new();
        let result = domain
            .session(&config, SessionBudgets::unlimited())
            .expect("sched session builds")
            .drain_with(|e| kinds.push(e.kind()));
        assert!(!result.findings.is_empty());
        for expected in [
            "analyzer_probe",
            "subspace_grown",
            "significance_verdict",
            "explanation_ready",
            "finished",
        ] {
            assert!(kinds.contains(&expected), "missing {expected}: {kinds:?}");
        }
    }

    #[test]
    fn jittered_family_stays_valid() {
        let mut rng = StdRng::seed_from_u64(2);
        let family = SchedFamily {
            p_jitter: 0.02,
            ..Default::default()
        };
        for inst in generate_sched_instances(&family, &mut rng) {
            inst.instance.validate().unwrap();
            assert!(inst.observation.gap >= -1e-9);
        }
    }
}
