//! First-fit bin packing bound to the runtime.
//!
//! [`FfDomain`] packages the §2 VBP setting for the registry;
//! [`FfDslMapper`] maps size vectors to Fig. 4b heat-map flows;
//! [`FfFamily`] / [`generate_ff_instances`] realize §5.4's instance
//! generator for the Type-3 trends (over-half balls, small fillers).

use crate::domain::{Domain, ParamDescriptor, ParamSpace};
use rand::Rng;
use serde::{Deserialize, Serialize};
use xplain_analyzer::oracle::{FfOracle, GapOracle};
use xplain_analyzer::search::ff_seeds;
use xplain_core::explainer::DslMapper;
use xplain_core::generalizer::Observation;
use xplain_domains::vbp::{first_fit, optimal, VbpDsl, VbpInstance};
use xplain_flownet::FlowNet;

/// DSL mapper for first-fit bin packing (Fig. 4b).
pub struct FfDslMapper {
    pub n_balls: usize,
    pub n_bins: usize,
    pub capacity: f64,
    pub dsl: VbpDsl,
}

impl FfDslMapper {
    pub fn new(n_balls: usize, n_bins: usize, capacity: f64) -> Self {
        FfDslMapper {
            n_balls,
            n_bins,
            capacity,
            dsl: VbpDsl::build(n_balls, n_bins, capacity),
        }
    }

    fn instance(&self, x: &[f64]) -> Option<VbpInstance> {
        if x.len() != self.n_balls {
            return None;
        }
        Some(VbpInstance {
            bin_capacity: vec![self.capacity],
            balls: x.iter().map(|&s| vec![s]).collect(),
        })
    }
}

impl DslMapper for FfDslMapper {
    fn net(&self) -> &FlowNet {
        &self.dsl.net
    }

    fn heuristic_flows(&self, x: &[f64]) -> Option<Vec<f64>> {
        let inst = self.instance(x)?;
        let packing = first_fit(&inst);
        self.dsl.assignment(&inst, &packing)
    }

    fn benchmark_flows(&self, x: &[f64]) -> Option<Vec<f64>> {
        let inst = self.instance(x)?;
        let packing = optimal(&inst);
        self.dsl.assignment(&inst, &packing)
    }
}

/// Parameters of the FF instance family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FfFamily {
    /// Number of random size-vectors to generate.
    pub instances: usize,
    pub n_balls: usize,
    pub capacity: f64,
    pub min_size: f64,
}

impl Default for FfFamily {
    fn default() -> Self {
        FfFamily {
            instances: 40,
            n_balls: 12,
            capacity: 1.0,
            min_size: 0.01,
        }
    }
}

/// A generated FF instance (a concrete ball-size vector) plus features.
#[derive(Debug, Clone)]
pub struct FfInstance {
    pub sizes: Vec<f64>,
    pub observation: Observation,
}

/// Generate random FF instances and their structural features.
///
/// Features: the count of balls over half a bin, the count of small
/// fillers, and the total volume. The Type-3 trends the generalizer
/// discovers on this family: *more small fillers → larger gap* (FF
/// strands them in early bins that over-half balls can no longer join)
/// and *more over-half balls → smaller gap* (they cost FF and the
/// optimal the same bin each).
pub fn generate_ff_instances(family: &FfFamily, rng: &mut impl Rng) -> Vec<FfInstance> {
    let cap = family.capacity;
    let mut out = Vec::with_capacity(family.instances);
    for _ in 0..family.instances {
        // Mix of size classes so the over-half count varies by instance.
        let over_half = rng.gen_range(0..=family.n_balls / 2 * 2);
        let sizes: Vec<f64> = (0..family.n_balls)
            .map(|i| {
                if i < over_half {
                    rng.gen_range(0.51 * cap..0.60 * cap)
                } else {
                    rng.gen_range(family.min_size..0.45 * cap)
                }
            })
            .collect();
        let inst = VbpInstance {
            bin_capacity: vec![cap],
            balls: sizes.iter().map(|&s| vec![s]).collect(),
        };
        let gap = first_fit(&inst).bins_used as f64 - optimal(&inst).bins_used as f64;
        let count_over = sizes.iter().filter(|&&s| s > 0.5 * cap).count() as f64;
        let count_small = sizes.iter().filter(|&&s| s < 0.25 * cap).count() as f64;
        let total: f64 = sizes.iter().sum();
        out.push(FfInstance {
            observation: Observation {
                features: vec![
                    ("balls_over_half".to_string(), count_over),
                    ("small_fillers".to_string(), count_small),
                    ("total_volume".to_string(), total),
                ],
                gap,
            },
            sizes,
        });
    }
    out
}

/// The first-fit bin-packing domain: a registry entry around one ball
/// count and a DSL with a fixed number of bins.
pub struct FfDomain {
    pub n_balls: usize,
    pub n_bins: usize,
    pub family: FfFamily,
}

impl FfDomain {
    pub fn new(n_balls: usize, n_bins: usize) -> Self {
        FfDomain {
            n_balls,
            n_bins,
            family: FfFamily::default(),
        }
    }

    /// The §2 setting: 4 balls, 3 bins.
    pub fn small() -> Self {
        FfDomain::new(4, 3)
    }
}

impl Domain for FfDomain {
    fn id(&self) -> &str {
        "ff"
    }

    fn description(&self) -> String {
        format!(
            "First-fit bin packing vs exact optimum ({} balls, {} bins)",
            self.n_balls, self.n_bins
        )
    }

    fn oracle(&self) -> Box<dyn GapOracle> {
        Box::new(FfOracle::new(self.n_balls))
    }

    fn mapper(&self) -> Option<Box<dyn DslMapper>> {
        let oracle = FfOracle::new(self.n_balls);
        Some(Box::new(FfDslMapper::new(
            self.n_balls,
            self.n_bins,
            oracle.bin_capacity,
        )))
    }

    fn seeds(&self) -> Vec<Vec<f64>> {
        let oracle = FfOracle::new(self.n_balls);
        ff_seeds(self.n_balls, oracle.bin_capacity, oracle.min_size)
    }

    fn instance_family(&self, seed: u64) -> Vec<Observation> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        generate_ff_instances(&self.family, &mut rng)
            .into_iter()
            .map(|i| i.observation)
            .collect()
    }

    fn param_space(&self) -> Option<ParamSpace> {
        let oracle = FfOracle::new(self.n_balls);
        Some(ParamSpace {
            domain: "ff".to_string(),
            params: vec![ParamDescriptor {
                name: "defer_below".to_string(),
                lo: 0.0,
                hi: oracle.bin_capacity,
                default: 0.0,
            }],
        })
    }

    fn tuned_oracle(&self, params: &[f64]) -> Option<Box<dyn GapOracle>> {
        let &[defer_below] = params else { return None };
        Some(Box::new(FfOracle {
            defer_below,
            ..FfOracle::new(self.n_balls)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xplain_core::explainer::{explain, ExplainerParams};
    use xplain_core::generalizer::{generalize, GeneralizerParams};
    use xplain_core::pipeline::PipelineConfig;
    use xplain_core::session::SessionBudgets;
    use xplain_core::subspace::Subspace;

    /// The streaming API through the FF adapter: the first finding is
    /// delivered strictly before the stream terminates (progressive
    /// delivery, not end-of-batch), and a checkpoint taken mid-stream
    /// resumes to the identical final result.
    #[test]
    fn ff_session_delivers_findings_progressively_and_resumes() {
        let config = PipelineConfig {
            max_subspaces: 1,
            significance: xplain_core::SignificanceParams {
                pairs: 40,
                ..Default::default()
            },
            explainer: ExplainerParams {
                samples: 60,
                threads: 1,
                ..Default::default()
            },
            coverage_samples: 100,
            ..Default::default()
        };
        let domain = FfDomain::small();
        let unlimited = SessionBudgets::unlimited();

        let mut kinds = Vec::new();
        let mut session = domain.session(&config, unlimited).expect("ff session");
        let reference = session.drain_with(|e| kinds.push(e.kind()));
        let finding_at = kinds
            .iter()
            .position(|k| *k == "explanation_ready")
            .expect("ff finds its subspace");
        assert!(
            finding_at + 1 < kinds.len(),
            "finding must stream before the terminal event: {kinds:?}"
        );

        // Interrupt a second run mid-stream; resume must converge on the
        // identical result (wall-time normalized — execution metadata).
        let mut interrupted = domain.session(&config, unlimited).expect("ff session");
        interrupted.next_event().expect("first event");
        interrupted.next_event().expect("second event");
        let mut resumed = crate::domain::build_session(
            &domain,
            &config,
            unlimited,
            xplain_core::session::CancelToken::new(),
            Some(interrupted.checkpoint()),
        )
        .expect("checkpoint resumes");
        let mut a = reference.clone();
        let mut b = resumed.drain();
        a.wall_time_ms = 0;
        b.wall_time_ms = 0;
        a.solver = Default::default();
        b.solver = Default::default();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    /// Fig. 4b in miniature: in the §2 subspace FF places the filler+ball
    /// differently from the optimal.
    #[test]
    fn ff_heatmap_shows_bin_disagreement() {
        let mapper = FfDslMapper::new(4, 3, 1.0);
        let sub = Subspace::from_rough_box(
            vec![0.01, 0.45, 0.51, 0.51],
            vec![0.05, 0.49, 0.55, 0.55],
            vec![0.01, 0.49, 0.51, 0.51],
            1.0,
        );
        let params = ExplainerParams {
            samples: 200,
            threads: 2,
            ..Default::default()
        };
        let ex = explain(&mapper, &sub, &params, 7);
        assert!(ex.samples_used >= 150);
        // FF always places B0 (the filler) in Bin0: heuristic uses
        // B0->Bin0 in every sample.
        let b0bin0 = ex.edges.iter().find(|e| e.label == "B0->Bin0").unwrap();
        assert!(
            b0bin0.heuristic_frac > 0.99,
            "B0->Bin0 heuristic frac {}",
            b0bin0.heuristic_frac
        );
        // Some edge must show strong disagreement (|score| large).
        let strongest = ex.strongest_disagreements(1)[0];
        assert!(
            strongest.score.abs() > 0.5,
            "strongest disagreement only {}",
            strongest.score
        );
    }

    #[test]
    fn unmappable_packings_skipped() {
        // DSL with 2 bins but instances that may need 3: those samples are
        // skipped, not fatal.
        let mapper = FfDslMapper::new(3, 2, 1.0);
        let sub = Subspace::from_rough_box(
            vec![0.6, 0.6, 0.6],
            vec![0.9, 0.9, 0.9],
            vec![0.7, 0.7, 0.7],
            0.0,
        );
        let params = ExplainerParams {
            samples: 30,
            threads: 1,
            ..Default::default()
        };
        let ex = explain(&mapper, &sub, &params, 5);
        // Every ball needs its own bin here (all > 0.5): 3 bins > 2.
        assert_eq!(ex.samples_used, 0);
    }

    #[test]
    fn ff_family_gap_correlates_with_over_half_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let family = FfFamily {
            instances: 100,
            ..Default::default()
        };
        let instances = generate_ff_instances(&family, &mut rng);
        assert_eq!(instances.len(), 100);
        let observations: Vec<Observation> =
            instances.iter().map(|i| i.observation.clone()).collect();
        let findings = generalize(&observations, &GeneralizerParams::default());
        // The over-half count should show up as an increasing trend.
        let f = findings.iter().find(|f| f.feature == "balls_over_half");
        assert!(f.is_some(), "findings: {findings:?}");
    }

    #[test]
    fn ff_instances_within_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        let family = FfFamily::default();
        for inst in generate_ff_instances(&family, &mut rng) {
            for &s in &inst.sizes {
                assert!(s >= family.min_size - 1e-12 && s <= family.capacity);
            }
            assert!(inst.observation.gap >= 0.0);
        }
    }
}
