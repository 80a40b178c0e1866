//! The XPlain pipeline (Fig. 3): analyzer → adversarial subspace
//! generator → significance checker → explainer, iterating with
//! exclusions until the input space holds no further adversarial regions.
//!
//! This module is deliberately domain-agnostic: it knows about gap
//! oracles, DSL mappers, feature maps, and finders — never about Demand
//! Pinning, first-fit, or any other concrete heuristic. Domains are bound
//! to the pipeline through the `xplain-runtime` crate's `Domain` trait
//! and registry; this keeps the loop reusable for any heuristic an
//! operator registers (the paper's §6 "it is important for XPlain to be
//! usable for many heuristics" requirement).

use crate::coverage::CoverageReport;
use crate::explainer::{DslMapper, ExplainerParams, Explanation};
use crate::features::FeatureMap;
use crate::session::SessionBuilder;
use crate::significance::{SignificanceParams, SignificanceReport};
use crate::subspace::{Subspace, SubspaceParams};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use xplain_analyzer::geometry::Polytope;
use xplain_analyzer::oracle::GapOracle;
use xplain_analyzer::search::Adversarial;
use xplain_lp::SolverCounters;

/// Version stamp of the serialized [`PipelineResult`] layout. The result
/// store treats entries bearing any other version (including pre-stamp
/// entries, which deserialize to 0) as cache misses, so schema evolution
/// degrades to recomputation instead of misreads.
pub const PIPELINE_SCHEMA_VERSION: u32 = 1;

/// Pipeline configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Stop after this many subspaces.
    pub max_subspaces: usize,
    /// Stop when a newly found gap drops below this fraction of the first
    /// (largest) gap.
    pub min_gap_frac: f64,
    pub subspace: SubspaceParams,
    pub significance: SignificanceParams,
    pub explainer: ExplainerParams,
    pub seed: u64,
    /// Re-examination budget for regions that fail the significance test
    /// (the paper: "they need to include the number of times they are
    /// willing to re-examine an area to avoid an infinite cycle").
    pub max_insignificant_retries: usize,
    /// Samples for the final risk-surface coverage estimate (0 disables).
    pub coverage_samples: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            max_subspaces: 8,
            min_gap_frac: 0.2,
            subspace: SubspaceParams::default(),
            significance: SignificanceParams::default(),
            explainer: ExplainerParams::default(),
            seed: 0xD5,
            max_insignificant_retries: 2,
            coverage_samples: 2000,
        }
    }
}

/// One discovered subspace with its companion analyses.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubspaceFinding {
    pub subspace: Subspace,
    pub significance: Option<SignificanceReport>,
    pub explanation: Option<Explanation>,
    /// The concrete adversarial instance that triggered significance —
    /// the analyzer's seed point and its measured gap. Optional with a
    /// serde default so results stored before this field existed remain
    /// readable (they read back as `None`). This is what the regression
    /// bank persists: the polytope describes *where* the heuristic
    /// underperforms, the witness is a replayable *proof*.
    #[serde(default)]
    pub witness: Option<Witness>,
}

/// A replayable adversarial input: the point the analyzer surfaced and
/// the gap it exhibited at discovery time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Witness {
    pub input: Vec<f64>,
    pub gap: f64,
}

/// Full pipeline output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PipelineResult {
    /// [`PIPELINE_SCHEMA_VERSION`] at production time. `#[serde(default)]`
    /// so pre-stamp JSON still parses — it reads back as 0, which the
    /// store rejects as a miss (forward/backward compat by recompute).
    #[serde(default)]
    pub schema_version: u32,
    /// Statistically significant subspaces, in discovery order (Type 1 +
    /// Type 2 outputs).
    pub findings: Vec<SubspaceFinding>,
    /// Regions found but rejected by the significance checker.
    pub rejected: usize,
    /// Analyzer invocations.
    pub analyzer_calls: usize,
    /// Monte-Carlo risk-surface coverage of the discovered subspaces
    /// (how much of §3's "full risk surface" was found).
    pub coverage: Option<CoverageReport>,
    /// Total gap-oracle evaluations across all phases.
    pub oracle_evaluations: usize,
    /// Wall-clock. `u64` (not `u128`): the JSON layer is f64-backed and
    /// rejects integers beyond 2^53, and stored results must stay
    /// serializable; 2^64 ms is ~585 million years of pipeline anyway.
    pub wall_time_ms: u64,
    /// LP/MILP work this run did (iterations, warm-start hits,
    /// branch-and-bound nodes): the per-thread `xplain_lp::counters`
    /// delta of each stage, so it is the run's own work whatever else
    /// solves in the process. Execution metadata
    /// like `wall_time_ms`: the batch executor normalizes the stored
    /// copy to zero and reports the count on the job outcome instead.
    pub solver: SolverCounters,
}

/// A pluggable adversarial-input finder (exact MILP or search).
pub type Finder<'a> = dyn Fn(&[Polytope], &mut StdRng) -> Option<Adversarial> + 'a;

/// Run the full loop against an oracle.
///
/// `mapper` enables the explainer stage when provided; `features` controls
/// the tree-refinement space (identity(+sum) is the paper's default).
///
/// Since the streaming redesign this is a thin drain over
/// [`crate::session::AnalysisSession`] — the batch and streaming paths
/// share one state machine, so they cannot diverge (the replay-pin tests
/// hold the drained result byte-identical to the pre-redesign loop).
pub fn run_pipeline(
    oracle: &dyn GapOracle,
    mapper: Option<&dyn DslMapper>,
    features: &FeatureMap,
    finder: &Finder<'_>,
    config: &PipelineConfig,
) -> PipelineResult {
    let mut builder = SessionBuilder::new(oracle)
        .features(features.clone())
        .finder(move |excl: &[Polytope], rng: &mut StdRng| finder(excl, rng))
        .config(config.clone());
    if let Some(m) = mapper {
        builder = builder.mapper(m);
    }
    builder
        .build()
        .expect("a fresh, fully-specified session always builds")
        .drain()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplain_analyzer::search::{find_adversarial, SearchOptions};

    /// A synthetic domain-free oracle: the gap is positive only inside a
    /// corner box of the unit square, peaking at the corner itself.
    struct CornerOracle;

    impl GapOracle for CornerOracle {
        fn dims(&self) -> usize {
            2
        }
        fn bounds(&self) -> Vec<(f64, f64)> {
            vec![(0.0, 1.0); 2]
        }
        fn gap(&self, x: &[f64]) -> f64 {
            if x.iter().any(|v| !v.is_finite()) {
                return f64::NEG_INFINITY;
            }
            let inside = x[0] > 0.7 && x[1] > 0.7;
            if inside {
                (x[0] + x[1] - 1.4) * 10.0
            } else {
                0.0
            }
        }
    }

    fn fast_config() -> PipelineConfig {
        PipelineConfig {
            max_subspaces: 2,
            subspace: SubspaceParams {
                dkw_eps: 0.25,
                dkw_delta: 0.25,
                max_expansions: 6,
                tree_sample_factor: 3,
                ..Default::default()
            },
            significance: SignificanceParams {
                pairs: 60,
                ..Default::default()
            },
            explainer: ExplainerParams {
                samples: 150,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn corner_finder(
        oracle: &CornerOracle,
    ) -> impl Fn(&[Polytope], &mut StdRng) -> Option<Adversarial> + '_ {
        let search = SearchOptions {
            seeds: vec![vec![1.0, 1.0], vec![0.8, 0.8]],
            ..Default::default()
        };
        move |excl: &[Polytope], rng: &mut StdRng| find_adversarial(oracle, excl, &search, rng)
    }

    #[test]
    fn generic_pipeline_finds_the_corner() {
        let oracle = CornerOracle;
        let features = FeatureMap::identity_with_sum(2, &oracle.dim_names());
        let finder = corner_finder(&oracle);
        let result = run_pipeline(&oracle, None, &features, &finder, &fast_config());
        assert!(
            !result.findings.is_empty(),
            "pipeline found no significant subspace (rejected {})",
            result.rejected
        );
        let f = &result.findings[0];
        // The seed should sit at (or near) the peak gap of 6.
        assert!(f.subspace.seed_gap > 4.0, "{}", f.subspace.seed_gap);
        assert!(f.significance.as_ref().unwrap().significant);
        // No mapper wired: Type 2 is absent by construction.
        assert!(f.explanation.is_none());
        assert!(result.oracle_evaluations > 0);
        assert!(result.analyzer_calls >= result.findings.len());
    }

    #[test]
    fn exclusions_accumulate_on_synthetic_oracle() {
        let oracle = CornerOracle;
        let features = FeatureMap::identity_with_sum(2, &oracle.dim_names());
        let finder = corner_finder(&oracle);
        let config = PipelineConfig {
            max_subspaces: 3,
            ..fast_config()
        };
        let result = run_pipeline(&oracle, None, &features, &finder, &config);
        if result.findings.len() >= 2 {
            let first = &result.findings[0].subspace;
            for later in &result.findings[1..] {
                assert!(
                    !first.contains(&later.subspace.seed),
                    "later seed inside earlier subspace"
                );
            }
        }
    }

    #[test]
    fn pipeline_result_wall_time_fits_json_safe_integers() {
        let oracle = CornerOracle;
        let features = FeatureMap::identity(2, &oracle.dim_names());
        let finder = corner_finder(&oracle);
        let result = run_pipeline(&oracle, None, &features, &finder, &fast_config());
        // u64 ms always fits the f64-backed JSON layer's 2^53 window for
        // any realistic runtime; the field must stay u64, not u128.
        assert!(result.wall_time_ms < (1u64 << 53));
    }
}
