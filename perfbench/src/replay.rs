//! In-process replay of served jobs, one at a time, with the session's
//! stages timed from outside.
//!
//! Each job runs through `build_session` — the call the server's workers
//! make — over a fresh builtin registry, on the calling thread, with
//! nothing else solving in the process. That makes the solver-counter
//! deltas and the oracle-evaluation counts exact and repeatable: the
//! same spec list gives the same counts in every process.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use xplain_analyzer::oracle::GapOracle;
use xplain_analyzer::search::SearchOptions;
use xplain_core::explainer::DslMapper;
use xplain_core::features::FeatureMap;
use xplain_core::generalizer::Observation;
use xplain_core::pipeline::PipelineResult;
use xplain_lp::SolverCounters;
use xplain_runtime::{
    build_session, derive_seed, BankRecord, CancelToken, Domain, DomainRegistry, JobSpec,
    ParamSpace, ResultStore, SessionBudgets, SessionEvent,
};

use crate::trace::Tracer;

/// Session stages, keyed by the event that ends each one.
pub const STAGES: [&str; 7] = [
    "analyzer_probe",
    "subspace_grown",
    "significance_verdict",
    "explanation_ready",
    "insignificant_retry",
    "coverage_estimated",
    "finished",
];

/// What one replayed job did.
#[derive(Debug, Clone)]
pub struct ReplayJob {
    pub domain: String,
    pub session_ms: f64,
    /// Time per stage, indexed like [`STAGES`].
    pub stage_ms: [f64; STAGES.len()],
    /// Events per stage, indexed like [`STAGES`].
    pub stage_events: [u64; STAGES.len()],
    /// Time until the session's first event (the first analyzer probe).
    pub first_event_ms: f64,
    pub events: u64,
    pub oracle_evals: u64,
    pub verdicts: u64,
    pub significant: u64,
    pub solver: SolverCounters,
    pub bank_records: Vec<(u64, BankRecord)>,
    pub natural: bool,
    /// The result with execution metadata normalized, as JSON.
    pub result_json: String,
}

/// The config a served job actually runs with (submissions are index 0).
pub fn derived_config(spec: &JobSpec) -> xplain_core::pipeline::PipelineConfig {
    let mut config = spec.config.clone();
    config.seed = derive_seed(spec.seed, 0);
    config
}

/// Normalize the execution metadata the server also keeps out of its
/// stored results (wall clock, process-wide solver counters), so a
/// streamed result and an in-process one compare byte for byte.
pub fn normalized_json(result: &PipelineResult) -> String {
    let mut result = result.clone();
    result.wall_time_ms = 0;
    result.solver = SolverCounters::default();
    serde_json::to_string(&result).expect("result serializes")
}

/// Replay one spec in-process. With a tracer, the job gets a span and
/// every `next_event` a child span named after the event kind, each
/// carrying its solver-counter delta.
pub fn replay(spec: &JobSpec, tracer: Option<&Tracer>) -> ReplayJob {
    let registry = DomainRegistry::builtin();
    let inner = registry
        .get(&spec.domain)
        .expect("workload domains are builtin");
    let evals = Arc::new(AtomicU64::new(0));
    let domain = Counted {
        inner,
        evals: Arc::clone(&evals),
    };
    let config = derived_config(spec);

    let started = Instant::now();
    let job_span = tracer.map(|t| t.open(&format!("replay.{}", spec.domain), None, started));
    let before = SolverCounters::snapshot();
    let mut session = build_session(
        &domain,
        &config,
        SessionBudgets::unlimited(),
        CancelToken::new(),
        None,
    )
    .expect("a fresh session builds");
    let mut job = ReplayJob {
        domain: spec.domain.clone(),
        session_ms: 0.0,
        stage_ms: [0.0; STAGES.len()],
        stage_events: [0; STAGES.len()],
        first_event_ms: 0.0,
        events: 0,
        oracle_evals: 0,
        verdicts: 0,
        significant: 0,
        solver: SolverCounters::default(),
        bank_records: Vec::new(),
        natural: false,
        result_json: String::new(),
    };
    let mut result = None;
    let mut last = started;
    let mut last_counters = before;
    while let Some(event) = session.next_event() {
        let now = Instant::now();
        let counters = SolverCounters::snapshot();
        let stage = STAGES
            .iter()
            .position(|s| *s == event.kind())
            .expect("every event kind is a stage");
        let ms = now.duration_since(last).as_secs_f64() * 1000.0;
        if job.events == 0 {
            job.first_event_ms = ms;
        }
        job.stage_ms[stage] += ms;
        job.stage_events[stage] += 1;
        job.events += 1;
        if let Some(t) = tracer {
            let id = t.open(&format!("event.{}", event.kind()), job_span, last);
            t.close(id, now, Some(counters.since(&last_counters)));
        }
        match &event {
            SessionEvent::SignificanceVerdict { significant, .. } => {
                job.verdicts += 1;
                job.significant += u64::from(*significant);
            }
            SessionEvent::Finished { reason, result: r } => {
                job.natural = reason.is_natural();
                result = Some(r.clone());
            }
            _ => {}
        }
        last = now;
        last_counters = counters;
    }
    job.session_ms = last.duration_since(started).as_secs_f64() * 1000.0;
    job.solver = last_counters.since(&before);
    job.oracle_evals = evals.load(Ordering::Relaxed);
    let result = result.expect("a session ends with Finished");
    let job_key = format!("{:016x}", ResultStore::key(&spec.domain, &config));
    for finding in &result.findings {
        if let Some(record) = BankRecord::from_finding(&spec.domain, finding, &job_key, config.seed)
        {
            let key = xplain_runtime::RegressionBank::key(&record.domain, &record.instance);
            job.bank_records.push((key, record));
        }
    }
    job.result_json = normalized_json(&result);
    if let (Some(t), Some(id)) = (tracer, job_span) {
        t.close(id, last, Some(job.solver));
    }
    job
}

/// A domain that forwards everything to a builtin one and counts gap
/// evaluations on the oracles it hands out (the session's and the
/// analyzer search's).
struct Counted<'a> {
    inner: &'a dyn Domain,
    evals: Arc<AtomicU64>,
}

struct CountingOracle {
    inner: Box<dyn GapOracle>,
    evals: Arc<AtomicU64>,
}

impl GapOracle for CountingOracle {
    fn dims(&self) -> usize {
        self.inner.dims()
    }
    fn bounds(&self) -> Vec<(f64, f64)> {
        self.inner.bounds()
    }
    fn gap(&self, x: &[f64]) -> f64 {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.gap(x)
    }
    fn dim_names(&self) -> Vec<String> {
        self.inner.dim_names()
    }
}

impl Domain for Counted<'_> {
    fn id(&self) -> &str {
        self.inner.id()
    }
    fn description(&self) -> String {
        self.inner.description()
    }
    fn oracle(&self) -> Box<dyn GapOracle> {
        Box::new(CountingOracle {
            inner: self.inner.oracle(),
            evals: Arc::clone(&self.evals),
        })
    }
    fn mapper(&self) -> Option<Box<dyn DslMapper>> {
        self.inner.mapper()
    }
    fn seeds(&self) -> Vec<Vec<f64>> {
        self.inner.seeds()
    }
    fn instance_family(&self, seed: u64) -> Vec<Observation> {
        self.inner.instance_family(seed)
    }
    fn feature_schema(&self) -> FeatureMap {
        self.inner.feature_schema()
    }
    fn param_space(&self) -> Option<ParamSpace> {
        self.inner.param_space()
    }
    fn tuned_oracle(&self, params: &[f64]) -> Option<Box<dyn GapOracle>> {
        self.inner.tuned_oracle(params)
    }
    fn search_options(&self) -> SearchOptions {
        self.inner.search_options()
    }
}
