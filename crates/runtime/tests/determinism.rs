//! The executor's core guarantee, pinned as a property test: the same
//! manifest run with 1 worker and with N workers yields identical
//! `PipelineResult` JSON per job, and rerunning against a warm store is
//! pure cache hits with the same bytes.

use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;
use xplain_analyzer::geometry::Polytope;
use xplain_analyzer::oracle::GapOracle;
use xplain_analyzer::search::find_adversarial;
use xplain_core::explainer::DslMapper;
use xplain_core::pipeline::PipelineConfig;
use xplain_core::session::SessionBuilder;
use xplain_core::{ExplainerParams, SignificanceParams};
use xplain_flownet::FlowNet;
use xplain_runtime::{
    build_session, run_manifest, CancelToken, DomainRegistry, JobOutcome, JobSpec, ResultStore,
    SessionBudgets, SolverCounters,
};

/// Small-but-real config so each property case stays fast.
fn tiny_config(pairs: usize, samples: usize, coverage: usize) -> PipelineConfig {
    PipelineConfig {
        max_subspaces: 1,
        significance: SignificanceParams {
            pairs,
            ..Default::default()
        },
        explainer: ExplainerParams {
            samples,
            threads: 1,
            ..Default::default()
        },
        coverage_samples: coverage,
        ..Default::default()
    }
}

/// One job per registered domain, all sharing the manifest base seed.
fn three_domain_manifest(config: &PipelineConfig, seed: u64) -> Vec<JobSpec> {
    DomainRegistry::builtin()
        .ids()
        .into_iter()
        .map(|domain| JobSpec {
            domain,
            config: config.clone(),
            seed,
            budgets: Default::default(),
        })
        .collect()
}

fn results_json(outcomes: &[JobOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| serde_json::to_string(&o.result).expect("result serializes"))
        .collect()
}

fn scratch_store(tag: &str) -> ResultStore {
    let dir = std::env::temp_dir().join(format!("xplain-determinism-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ResultStore::new(dir)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The satellite requirement: serial ≡ parallel, per job, over random
    /// small configs and manifest seeds.
    #[test]
    fn serial_equals_parallel_per_job(
        seed in 0u64..1_000_000,
        pairs in 20usize..40,
        samples in 20usize..60,
        coverage in 0usize..200,
        workers in 2usize..5,
    ) {
        let jobs = three_domain_manifest(&tiny_config(pairs, samples, coverage), seed);
        let registry = DomainRegistry::builtin();
        let serial = run_manifest(&registry, &jobs, None, 1);
        let parallel = run_manifest(&registry, &jobs, None, workers);
        prop_assert_eq!(serial.len(), parallel.len());
        let sj = results_json(&serial);
        let pj = results_json(&parallel);
        for (i, (s, p)) in sj.iter().zip(&pj).collect::<Vec<_>>().into_iter().enumerate() {
            prop_assert_eq!(s, p, "job {} diverged between 1 and {} workers", i, workers);
        }
        // Derived seeds are positional: same between runs, distinct
        // across the manifest (all base seeds equal, indices differ).
        for (s, p) in serial.iter().zip(&parallel) {
            prop_assert_eq!(s.derived_seed, p.derived_seed);
        }
        prop_assert!(serial[0].derived_seed != serial[1].derived_seed);
    }
}

/// The acceptance scenario end to end: a 3-domain manifest executed with
/// 4 workers reproduces the single-threaded results byte-for-byte, and a
/// second run over the store is all cache hits with identical bytes.
#[test]
fn three_domain_manifest_4_workers_bit_identical_with_cache_hits() {
    let registry = DomainRegistry::builtin();
    let jobs = three_domain_manifest(&tiny_config(40, 80, 200), 0xACCE97);
    assert_eq!(jobs.len(), 3, "one job per registered domain");

    let store = scratch_store("acceptance");
    let serial = run_manifest(&registry, &jobs, None, 1);
    let parallel = run_manifest(&registry, &jobs, Some(&store), 4);
    let cached = run_manifest(&registry, &jobs, Some(&store), 4);

    let sj = results_json(&serial);
    let pj = results_json(&parallel);
    let cj = results_json(&cached);
    assert_eq!(
        sj, pj,
        "1-worker vs 4-worker results must be byte-identical"
    );
    assert_eq!(pj, cj, "cached results must be byte-identical");
    for o in &parallel {
        assert!(!o.cache_hit, "cold store must compute");
        assert!(o.error.is_none());
        assert!(o.result.is_some());
    }
    for o in &cached {
        assert!(o.cache_hit, "warm store must hit ({})", o.domain);
    }
    assert_eq!(store.len(), 3);
    let _ = std::fs::remove_dir_all(store.dir());
}

/// Corrupting a store entry between runs degrades to a recompute that
/// heals the cache — never a panic, never a wrong result.
#[test]
fn corrupted_store_entry_recovers_through_the_executor() {
    let registry = DomainRegistry::builtin();
    let jobs = three_domain_manifest(&tiny_config(30, 40, 0), 0xC0FFEE);
    let store = scratch_store("corrupt");

    let first = run_manifest(&registry, &jobs, Some(&store), 2);
    // Vandalize the sched entry (garbage bytes) and delete the dp entry.
    let mut sched_config = jobs[2].config.clone();
    sched_config.seed = first[2].derived_seed;
    std::fs::write(store.entry_path("sched", &sched_config), b"not json").unwrap();
    let mut dp_config = jobs[0].config.clone();
    dp_config.seed = first[0].derived_seed;
    std::fs::remove_file(store.entry_path("dp", &dp_config)).unwrap();

    let second = run_manifest(&registry, &jobs, Some(&store), 2);
    assert_eq!(results_json(&first), results_json(&second));
    assert!(!second[0].cache_hit, "deleted entry recomputes");
    assert!(second[1].cache_hit, "untouched entry still hits");
    assert!(!second[2].cache_hit, "corrupted entry recomputes");

    // The recompute healed the store: third run is all hits.
    let third = run_manifest(&registry, &jobs, Some(&store), 2);
    assert!(third.iter().all(|o| o.cache_hit));
    let _ = std::fs::remove_dir_all(store.dir());
}

/// A dp job's solver counts are its own: the same job reports the same
/// `JobOutcome::solver` alone on one worker and beside two other dp jobs
/// on three. Its explainer runs two sample streams on the job's thread,
/// and the three jobs' solves share the domain's solver stack.
#[test]
fn dp_solver_counts_do_not_depend_on_the_jobs_beside_it() {
    let registry = DomainRegistry::builtin();
    let mut config = tiny_config(30, 60, 100);
    config.explainer.threads = 2;
    let jobs: Vec<JobSpec> = [11, 12, 13]
        .into_iter()
        .map(|seed| JobSpec {
            domain: "dp".into(),
            config: config.clone(),
            seed,
            budgets: Default::default(),
        })
        .collect();
    let alone = run_manifest(&registry, &jobs[..1], None, 1);
    assert!(alone[0].solver.lp_solves > 0, "{:?}", alone[0].solver);
    for round in 0..3 {
        let beside = run_manifest(&registry, &jobs, None, 3);
        assert_eq!(
            beside[0].solver, alone[0].solver,
            "round {round}: the job's counts moved with its neighbours"
        );
        assert_eq!(results_json(&beside[..1]), results_json(&alone));
    }
}

/// A dp job's `JobOutcome::solver` is all the solver work the job does:
/// the domain solved its problem's anchor when the registry was built,
/// so building a session (two oracles, the mapper and the feature
/// schema's oracle) solves nothing, and the counts around the whole job
/// equal the counts it reports.
#[test]
fn a_dp_job_reports_all_of_its_solver_work() {
    let registry = DomainRegistry::builtin();
    let domain = registry.get("dp").expect("registered");
    let config = tiny_config(30, 60, 100);

    let before = SolverCounters::snapshot();
    let mut session = build_session(
        domain,
        &config,
        SessionBudgets::unlimited(),
        CancelToken::new(),
        None,
    )
    .expect("dp session builds");
    let built = SolverCounters::snapshot().since(&before);
    assert_eq!(
        built,
        SolverCounters::default(),
        "building solved: {built:?}"
    );
    let result = session.drain();
    assert!(result.solver.lp_solves > 0, "{:?}", result.solver);
    assert_eq!(SolverCounters::snapshot().since(&before), result.solver);

    let job = JobSpec {
        domain: "dp".into(),
        config,
        seed: 5,
        budgets: Default::default(),
    };
    let before = SolverCounters::snapshot();
    let outcome = run_manifest(&registry, &[job], None, 1);
    assert_eq!(SolverCounters::snapshot().since(&before), outcome[0].solver);
}

/// A domain's oracle or mapper that notes the thread of every call.
struct Recorded<T: ?Sized> {
    threads: Mutex<HashSet<ThreadId>>,
    inner: Box<T>,
}

impl<T: ?Sized> Recorded<T> {
    fn new(inner: Box<T>) -> Self {
        Recorded {
            threads: Mutex::new(HashSet::new()),
            inner,
        }
    }

    fn note(&self) -> &T {
        self.threads
            .lock()
            .unwrap()
            .insert(std::thread::current().id());
        &self.inner
    }

    fn threads(&self) -> HashSet<ThreadId> {
        self.threads.lock().unwrap().clone()
    }
}

impl GapOracle for Recorded<dyn GapOracle> {
    fn dims(&self) -> usize {
        self.note().dims()
    }
    fn bounds(&self) -> Vec<(f64, f64)> {
        self.note().bounds()
    }
    fn gap(&self, x: &[f64]) -> f64 {
        self.note().gap(x)
    }
    fn dim_names(&self) -> Vec<String> {
        self.note().dim_names()
    }
}

impl DslMapper for Recorded<dyn DslMapper> {
    fn net(&self) -> &FlowNet {
        self.note().net()
    }
    fn heuristic_flows(&self, x: &[f64]) -> Option<Vec<f64>> {
        self.note().heuristic_flows(x)
    }
    fn benchmark_flows(&self, x: &[f64]) -> Option<Vec<f64>> {
        self.note().benchmark_flows(x)
    }
}

/// A default-config session runs on the thread that drives it: every
/// gap (analyzer, growth, significance, coverage) and every explainer
/// sample of each built-in domain is evaluated on the calling thread.
#[test]
fn a_default_config_session_starts_no_thread() {
    let registry = DomainRegistry::builtin();
    let caller = HashSet::from([std::thread::current().id()]);
    for id in registry.ids() {
        let domain = registry.get(&id).expect("registered");
        let oracle = Recorded::new(domain.oracle());
        let mapper = Recorded::new(domain.mapper().expect("every built-in domain explains"));
        let search = domain.search_options();
        let result = SessionBuilder::new(&oracle)
            .mapper(&mapper)
            .features(domain.feature_schema())
            .finder(|excl: &[Polytope], rng: &mut _| find_adversarial(&oracle, excl, &search, rng))
            .config(PipelineConfig::default())
            .build()
            .expect("session builds")
            .drain();
        assert!(
            result.findings.iter().any(|f| f.explanation.is_some()),
            "{id}: nothing was explained"
        );
        assert_eq!(oracle.threads(), caller, "{id}: gaps ran on other threads");
        assert_eq!(
            mapper.threads(),
            caller,
            "{id}: samples ran on other threads"
        );
    }
}
