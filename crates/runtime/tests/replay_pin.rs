//! The acceptance replay pin: draining an `AnalysisSession` to
//! completion produces a `PipelineResult` byte-identical (via
//! serde_json) to the **pre-redesign** `run_pipeline` for the dp/ff/sched
//! domains at default config.
//!
//! The pre-redesign loop is preserved verbatim below
//! ([`legacy_run_pipeline`]) as the oracle of this test — the decomposed
//! state machine must reproduce the monolithic loop's RNG draw sequence
//! and accounting exactly.
//!
//! Solver counters are per thread, so the legacy single delta and the
//! session's accumulated per-stage deltas count exactly this test's
//! solves and compare as they are. Only `wall_time_ms` is normalized —
//! it is execution metadata (the executor zeroes it in stored results
//! for the same reason).

use rand::rngs::StdRng;
use rand::SeedableRng;
use xplain_analyzer::geometry::Polytope;
use xplain_analyzer::oracle::GapOracle;
use xplain_analyzer::search::find_adversarial;
use xplain_core::coverage::estimate_coverage;
use xplain_core::explainer::{explain, DslMapper};
use xplain_core::features::FeatureMap;
use xplain_core::pipeline::{
    Finder, PipelineConfig, PipelineResult, SubspaceFinding, PIPELINE_SCHEMA_VERSION,
};
use xplain_core::significance::check_significance;
use xplain_core::subspace::{grow_subspace, Subspace};
use xplain_lp::SolverCounters;
use xplain_runtime::{run_domain, DomainRegistry};

/// The pre-redesign `run_pipeline`, kept byte-for-byte (modulo the
/// `schema_version` stamp, which did not exist then and is set to the
/// current constant so the serialized forms are comparable).
fn legacy_run_pipeline(
    oracle: &dyn GapOracle,
    mapper: Option<&dyn DslMapper>,
    features: &FeatureMap,
    finder: &Finder<'_>,
    config: &PipelineConfig,
) -> PipelineResult {
    let start = std::time::Instant::now();
    let solver_before = SolverCounters::snapshot();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut exclusions: Vec<Polytope> = Vec::new();
    let mut findings: Vec<SubspaceFinding> = Vec::new();
    let mut rejected = 0usize;
    let mut analyzer_calls = 0usize;
    let mut oracle_evaluations = 0usize;
    let mut first_gap: Option<f64> = None;
    let mut insignificant_strikes = 0usize;

    while findings.len() < config.max_subspaces {
        analyzer_calls += 1;
        let Some(adv) = finder(&exclusions, &mut rng) else {
            break; // no adversarial input left outside the exclusions
        };
        let reference = *first_gap.get_or_insert(adv.gap);
        if adv.gap < config.min_gap_frac * reference {
            break; // remaining regions are below the interest threshold
        }

        let subspace = grow_subspace(oracle, &adv, features, &config.subspace, &mut rng);
        oracle_evaluations += subspace.evaluations;

        let significance =
            check_significance(oracle, &subspace, &config.significance, &mut rng).ok();
        oracle_evaluations += config.significance.pairs * 2;

        let significant = significance.as_ref().is_some_and(|r| r.significant);

        exclusions.push(subspace.polytope.clone());

        if significant {
            insignificant_strikes = 0;
            let explanation = mapper.map(|m| {
                explain(
                    m,
                    &subspace,
                    &config.explainer,
                    config.seed ^ (findings.len() as u64 + 1),
                )
            });
            if let Some(e) = &explanation {
                oracle_evaluations += e.samples_used * 2;
            }
            let witness = Some(xplain_core::pipeline::Witness {
                input: subspace.seed.clone(),
                gap: subspace.seed_gap,
            });
            findings.push(SubspaceFinding {
                subspace,
                significance,
                explanation,
                witness,
            });
        } else {
            rejected += 1;
            insignificant_strikes += 1;
            if insignificant_strikes > config.max_insignificant_retries {
                break;
            }
        }
    }

    let coverage = if config.coverage_samples > 0 && !findings.is_empty() {
        let threshold = config.min_gap_frac * first_gap.unwrap_or(0.0);
        let subspaces: Vec<Subspace> = findings.iter().map(|f| f.subspace.clone()).collect();
        let report = estimate_coverage(
            oracle,
            &subspaces,
            threshold.max(1e-9),
            config.coverage_samples,
            &mut rng,
        );
        oracle_evaluations += report.samples;
        Some(report)
    } else {
        None
    };

    PipelineResult {
        schema_version: PIPELINE_SCHEMA_VERSION,
        findings,
        rejected,
        analyzer_calls,
        coverage,
        oracle_evaluations,
        wall_time_ms: start.elapsed().as_millis() as u64,
        solver: SolverCounters::snapshot().since(&solver_before),
    }
}

fn normalized(result: &PipelineResult) -> String {
    let mut r = result.clone();
    r.wall_time_ms = 0;
    serde_json::to_string(&r).expect("result serializes")
}

#[test]
fn session_drain_matches_pre_redesign_pipeline_at_default_config() {
    let registry = DomainRegistry::builtin();
    for id in registry.ids() {
        let domain = registry.get(&id).expect("builtin id resolves");
        let config = PipelineConfig::default();

        // The pre-redesign batch loop, assembled exactly the way the old
        // `run_domain` did (stop flag absent — it did not exist).
        let legacy = {
            let oracle = domain.oracle();
            let finder_oracle = domain.oracle();
            let mapper = domain.mapper();
            let features = domain.feature_schema();
            let search = domain.search_options();
            let finder = move |excl: &[Polytope], rng: &mut StdRng| {
                find_adversarial(finder_oracle.as_ref(), excl, &search, rng)
            };
            legacy_run_pipeline(
                oracle.as_ref(),
                mapper.as_deref(),
                &features,
                &finder,
                &config,
            )
        };

        // The redesigned path: session drain via the domain layer.
        let streamed = run_domain(domain, &config);

        assert!(
            !streamed.findings.is_empty(),
            "{id}: default config found nothing (vacuous pin)"
        );
        assert_eq!(
            normalized(&legacy),
            normalized(&streamed),
            "{id}: session drain diverged from the pre-redesign pipeline"
        );
    }
}
