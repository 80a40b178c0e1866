//! The parallel batch-analysis executor and the per-job engine.
//!
//! A *manifest* is JSONL: one [`JobSpec`] per line (domain id +
//! [`PipelineConfig`] + base seed). [`run_manifest_opts`] fans the lines
//! out with [`fan_out`] over `std::thread::scope` workers, each line one
//! call to `run_job` — the per-job engine the serving queue
//! ([`crate::queue::JobQueue`]) also calls, so batch and served
//! executions run the same code. Determinism is by construction:
//!
//! * each job's effective pipeline seed is derived from its manifest seed
//!   and its *position* in the manifest ([`derive_seed`], a splitmix64
//!   mix) — never from which worker ran it or when;
//! * [`fan_out`] returns results in index order, so output order is
//!   manifest order;
//! * [`crate::domain::run_domain`] itself is deterministic given a seed.
//!
//! Therefore a manifest run with 1 worker and with N workers yields
//! byte-for-byte identical per-job results and per-job solver counts —
//! the properties the tests and the `runner --smoke` CI gate pin down.
//! The execution metadata, `wall_time_ms` and the solver counts, moves
//! out of the stored result and into the [`JobOutcome`] wrapper (the
//! stored copy is normalized to 0).
//!
//! Each job *is* an [`xplain_core::session::AnalysisSession`]: `run_job`
//! drives the session's event stream, forwards events to an optional
//! sink ([`RunOptions::sink`] — the `runner --watch` NDJSON feed),
//! enforces per-job [`SessionBudgets`], and (with [`RunOptions::resume`])
//! persists a checkpoint through the content-addressed store when a
//! budget or cancellation stops the session, and at event boundaries
//! every `CHECKPOINT_INTERVAL` (250 ms) of work, so an interrupted or
//! killed runner continues mid-loop on the next invocation.
//! A job that panics becomes a [`SessionError::Internal`] outcome at its
//! own index; the other jobs of the run are unaffected.
//!
//! Durability note: batch jobs are deliberately *not* written through
//! the serving queue's write-ahead journal ([`crate::journal`]) — the
//! manifest file is already a durable record of what was requested
//! (rerun it; completed jobs answer from the store). The journal covers
//! the serving path, where the only record of an accepted job would
//! otherwise be queue memory; see DESIGN.md §10.

use std::sync::atomic::{AtomicUsize, Ordering};

use serde::{Deserialize, Serialize};
use xplain_core::pipeline::{PipelineConfig, PipelineResult};
use xplain_core::session::{CancelToken, FinishReason, SessionBudgets, SessionError, SessionEvent};
use xplain_lp::{counters, SolverCounters};

use crate::domain::{build_session, DomainRegistry};
use crate::store::ResultStore;

/// One line of a JSONL manifest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobSpec {
    /// Registered domain id (`"dp"`, `"ff"`, `"sched"`, …).
    pub domain: String,
    /// Pipeline configuration. Its `seed` field is overwritten by the
    /// derived per-job seed before running (and before store keying).
    pub config: PipelineConfig,
    /// Base seed mixed with the job index by [`derive_seed`].
    pub seed: u64,
    /// Per-job execution budgets (absent in a manifest = unlimited).
    /// Budget-limited runs produce partial results, so they bypass the
    /// result cache; their checkpoints still persist under `--resume`.
    #[serde(default)]
    pub budgets: SessionBudgets,
}

/// The largest per-job counts a [`JobSpec`] may ask for: about ten times
/// the largest config the repo ships (E4's 3,000 explainer samples, the
/// 2,000 default coverage samples, E5's 400 significance pairs). Budgets,
/// the deadline included, are checked only between stages, so a count
/// past these would hold a worker inside one stage for minutes.
const MAX_SAMPLES: usize = 30_000;
const MAX_STREAMS: usize = 64;
const MAX_PAIRS: usize = 4_000;
const MAX_COVERAGE: usize = 20_000;

impl JobSpec {
    /// Refuse a spec that asks for more than 30,000 explainer samples,
    /// 64 explainer streams, 4,000 significance pairs or 20,000 coverage
    /// samples; the error names the first such field. The serving tier
    /// checks every spec it is sent (a 400) before queueing it.
    pub fn check_sizes(&self) -> Result<(), SessionError> {
        fn limit(field: &str, value: usize, max: usize) -> Result<(), SessionError> {
            if value <= max {
                return Ok(());
            }
            Err(SessionError::InvalidConfig {
                message: format!("{field} is {value}, above the limit of {max}"),
            })
        }
        let c = &self.config;
        limit("config.explainer.samples", c.explainer.samples, MAX_SAMPLES)?;
        limit("config.explainer.threads", c.explainer.threads, MAX_STREAMS)?;
        limit("config.significance.pairs", c.significance.pairs, MAX_PAIRS)?;
        limit("config.coverage_samples", c.coverage_samples, MAX_COVERAGE)
    }
}

/// Terminal-event metadata and budget accounting for one executed
/// session (absent on cache hits and failed jobs — no session ran).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionFinish {
    /// Why the session's event stream ended.
    pub reason: FinishReason,
    /// Whether the loop ran to its own stopping rule (false: a budget or
    /// cancellation stopped it early and a checkpoint can continue it).
    pub natural: bool,
    /// Whether this execution continued from a persisted checkpoint.
    pub resumed: bool,
    /// Events emitted, cumulative across resumed segments.
    pub events: u64,
    /// The budgets the session ran under.
    pub budgets: SessionBudgets,
}

/// The outcome of one manifest job.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobOutcome {
    /// Position in the manifest.
    pub index: usize,
    pub domain: String,
    /// The derived seed the pipeline actually ran with.
    pub derived_seed: u64,
    /// Whether the result came from the store.
    pub cache_hit: bool,
    /// Wall-clock of *this* execution (near zero on cache hits). Kept
    /// outside `result`, whose own `wall_time_ms` is normalized to 0 so
    /// results compare and cache byte-for-byte.
    pub wall_time_ms: u64,
    /// The solver work this execution did (zero on cache hits;
    /// cumulative across segments on resumed sessions), whatever else
    /// ran beside it. Same treatment as `wall_time_ms`: it describes the
    /// execution, not the result, so the stored result's copy is
    /// normalized to zero.
    pub solver: SolverCounters,
    /// `Some` unless the job failed (unknown domain id).
    pub result: Option<PipelineResult>,
    /// Structured failure, when the job could not run at all.
    pub error: Option<SessionError>,
    /// Terminal session event + budget accounting (absent on cache hits).
    #[serde(default)]
    pub finish: Option<SessionFinish>,
}

/// splitmix64 — the standard 64-bit finalizer; full-period, so distinct
/// `(base, index)` pairs land on well-separated seeds.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derived seeds are masked into the exactly-representable-in-f64 range:
/// the seed rides inside `PipelineConfig` through the JSON layer (store
/// entries, outcome dumps), which is f64-backed and rejects integers
/// beyond 2^53 — the same failure class that forced `wall_time_ms` down
/// to `u64`.
pub const SEED_MASK: u64 = (1 << 53) - 1;

/// Deterministic per-job seed: a function of the manifest seed and the
/// job's index only, so any worker (or worker count) produces the same
/// stream. Base seeds are interpreted mod 2^53 (the masked and unmasked
/// forms of a base derive identical seeds), so a programmatically built
/// [`JobSpec`] with a full-range `u64` seed behaves exactly like its
/// JSON-serializable masked twin.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    splitmix64((base & SEED_MASK) ^ splitmix64(index)) & SEED_MASK
}

/// Display cap for offending-line snippets in manifest errors.
fn snippet_of(line: &str) -> String {
    const MAX: usize = 48;
    if line.chars().count() <= MAX {
        line.to_string()
    } else {
        let head: String = line.chars().take(MAX).collect();
        format!("{head}…")
    }
}

/// Parse a JSONL manifest. Blank lines and `#` comment lines are
/// skipped; anything else must be a complete [`JobSpec`] object.
/// Errors carry the 1-based line number and the offending snippet
/// ([`SessionError::Manifest`]).
pub fn parse_manifest(text: &str) -> Result<Vec<JobSpec>, SessionError> {
    let mut jobs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let spec: JobSpec = serde_json::from_str(trimmed).map_err(|e| SessionError::Manifest {
            line: lineno + 1,
            snippet: snippet_of(trimmed),
            message: format!("{e:?}"),
        })?;
        jobs.push(spec);
    }
    Ok(jobs)
}

/// Serialize jobs back to JSONL (the inverse of [`parse_manifest`]).
///
/// Base seeds are written masked to [`SEED_MASK`] — the f64-backed JSON
/// layer cannot represent larger integers, and [`derive_seed`] treats
/// the masked and unmasked forms identically, so the round trip
/// preserves behavior bit-for-bit.
pub fn manifest_to_jsonl(jobs: &[JobSpec]) -> String {
    let mut out = String::new();
    for job in jobs {
        let writable = JobSpec {
            seed: job.seed & SEED_MASK,
            ..job.clone()
        };
        out.push_str(&serde_json::to_string(&writable).expect("JobSpec serializes"));
        out.push('\n');
    }
    out
}

/// Resolve a worker-count request (0 = auto) against the job count.
fn effective_workers(requested: usize, n_jobs: usize) -> usize {
    let auto = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);
    let workers = if requested == 0 { auto } else { requested };
    workers.clamp(1, n_jobs.max(1))
}

/// Fan `n` index-addressed tasks out across `workers` scoped threads
/// (0 = auto). Results return in index order regardless of scheduling;
/// a panicking task propagates (the whole fan-out fails loudly rather
/// than reporting partial results; manifest jobs never panic out of
/// `run_job`). The workers' solver work lands on the calling thread's
/// counters, as if it had run every task itself.
///
/// This is the shared primitive under [`run_manifest`], the tune
/// engine's candidate scoring and the repro harness's concurrent E1–E9
/// regeneration.
pub fn fan_out<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = effective_workers(workers, n);
    if n == 0 {
        return Vec::new();
    }
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = counters::on_threads(workers, |_| {
        let mut claimed = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return claimed;
            }
            claimed.push((i, f(i)));
        }
    })
    .into_iter()
    .flatten()
    .collect();
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, value)| value).collect()
}

/// Per-event observer: `(manifest index, event)`. `Sync` because workers
/// share it; the `runner --watch` sink serializes each event to NDJSON.
pub type EventSink<'s> = &'s (dyn Fn(usize, &SessionEvent) + Sync);

/// Execution policy for a manifest run, beyond the job specs themselves.
#[derive(Default, Clone, Copy)]
pub struct RunOptions<'s> {
    /// Override every job's budgets (CLI flags beat manifest fields).
    pub budgets_override: Option<SessionBudgets>,
    /// Load a persisted checkpoint before running each job, persist one
    /// when a budget or cancellation stops it and at event boundaries
    /// every `CHECKPOINT_INTERVAL` (250 ms) of work, so an interrupted
    /// or killed run continues mid-loop next time. Requires a store; a
    /// no-op without one.
    pub resume: bool,
    /// Forward every session event as it happens.
    pub sink: Option<EventSink<'s>>,
    /// Origin tag stamped into store entries this run commits (the mesh
    /// sets it to the computing shard's id). `None` (the default) stores
    /// entries untagged.
    pub origin: Option<&'s str>,
}

/// Execute a manifest against a registry, optionally through a result
/// store (hits skip the pipeline entirely). `workers = 0` auto-sizes.
pub fn run_manifest(
    registry: &DomainRegistry,
    jobs: &[JobSpec],
    store: Option<&ResultStore>,
    workers: usize,
) -> Vec<JobOutcome> {
    run_manifest_opts(registry, jobs, store, workers, RunOptions::default())
}

/// [`run_manifest`] with explicit [`RunOptions`] (budget overrides,
/// checkpoint resume, event streaming): every manifest line is one
/// `run_job` call at its own index, fanned out over `workers` threads,
/// and outcomes return in manifest order.
pub fn run_manifest_opts(
    registry: &DomainRegistry,
    jobs: &[JobSpec],
    store: Option<&ResultStore>,
    workers: usize,
    opts: RunOptions<'_>,
) -> Vec<JobOutcome> {
    fan_out(jobs.len(), workers, |i| {
        run_job(registry, &jobs[i], i, store, opts, CancelToken::new())
    })
}

/// Execute one job spec end to end: cache lookup, optional checkpoint
/// resume, session drive (events to the sink), result normalization,
/// store commit. The shared per-job engine under both the batch driver
/// and the serving queue; `cancel` is owned by the caller so a server
/// can interrupt a running job.
///
/// Never panics: a panicking job becomes a [`SessionError::Internal`]
/// outcome, so neither a long-lived serve worker nor a manifest's other
/// jobs go down with it (the batch runner still exits nonzero on any
/// error outcome, so CI stays loud).
pub(crate) fn run_job(
    registry: &DomainRegistry,
    job: &JobSpec,
    index: usize,
    store: Option<&ResultStore>,
    opts: RunOptions<'_>,
    cancel: CancelToken,
) -> JobOutcome {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        drive_job(registry, job, index, store, opts, cancel)
    }))
    .unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "job panicked with a non-string payload".to_string());
        JobOutcome {
            error: Some(SessionError::Internal { message }),
            ..blank_outcome(job, index)
        }
    })
}

/// The outcome of `job` at `index` before anything has run: no result,
/// no error, no session.
pub(crate) fn blank_outcome(job: &JobSpec, index: usize) -> JobOutcome {
    JobOutcome {
        index,
        domain: job.domain.clone(),
        derived_seed: derive_seed(job.seed, index as u64),
        cache_hit: false,
        wall_time_ms: 0,
        solver: SolverCounters::default(),
        result: None,
        error: None,
        finish: None,
    }
}

/// The least work a job does between two checkpoints it persists at
/// event boundaries: `drive_job` writes one only once this much time has
/// passed since the execution started or last wrote one. Sessions are
/// deterministic, so a skipped checkpoint costs only recomputation,
/// never a different result; a SIGKILL loses at most this interval plus
/// one stage of work. 250 ms keeps checkpoints a small share of any long
/// session even where a publish with real fsyncs costs a few ms, and
/// the 5–25 ms benchmark sessions write none. A default-config job run
/// alone (37–390 ms measured on a 2-core host) writes none unless it
/// runs past 250 ms, and then one per 250 ms of work.
/// An interrupted session (budget, cancel, shutdown) always persists
/// its checkpoint on the way out.
const CHECKPOINT_INTERVAL: std::time::Duration = std::time::Duration::from_millis(250);

/// The body of [`run_job`], outside its panic boundary.
fn drive_job(
    registry: &DomainRegistry,
    job: &JobSpec,
    index: usize,
    store: Option<&ResultStore>,
    opts: RunOptions<'_>,
    cancel: CancelToken,
) -> JobOutcome {
    let start = std::time::Instant::now();
    let mut outcome = blank_outcome(job, index);
    let mut config = job.config.clone();
    config.seed = outcome.derived_seed;
    let budgets = opts.budgets_override.unwrap_or(job.budgets);

    let Some(domain) = registry.get(&job.domain) else {
        outcome.error = Some(SessionError::UnknownDomain {
            id: job.domain.clone(),
        });
        return outcome;
    };

    // Budget-limited runs may stop mid-loop; their partial results must
    // never alias the canonical entry for this (domain, config), so the
    // cache is read only for unlimited jobs.
    if budgets.is_unlimited() {
        if let Some(store) = store {
            if let Some(result) = store.lookup(&job.domain, &config) {
                outcome.cache_hit = true;
                outcome.result = Some(result);
                outcome.wall_time_ms = start.elapsed().as_millis() as u64;
                return outcome;
            }
        }
    }

    // Resume from a persisted checkpoint when asked (anything unusable
    // silently degrades to a fresh start — same philosophy as the result
    // cache).
    let checkpoint = match (opts.resume, store) {
        (true, Some(store)) => store.load_checkpoint(&job.domain, &config),
        _ => None,
    };
    let mut resumed = checkpoint.is_some();
    let session =
        build_session(domain, &config, budgets, cancel.clone(), checkpoint).or_else(|_| {
            // An incompatible checkpoint (e.g. the domain changed shape
            // since it was written) degrades to a fresh session — and the
            // outcome must not claim it resumed.
            resumed = false;
            build_session(domain, &config, budgets, cancel.clone(), None)
        });
    let mut session = match session {
        Ok(s) => s,
        Err(e) => {
            outcome.error = Some(e);
            return outcome;
        }
    };

    let mut finished: Option<(FinishReason, PipelineResult)> = None;
    let mut last_save = start;
    while let Some(event) = session.next_event() {
        if let Some(sink) = opts.sink {
            sink(index, &event);
        }
        match &event {
            SessionEvent::Finished { reason, result } => {
                finished = Some((*reason, result.clone()));
            }
            _ => {
                if opts.resume && last_save.elapsed() >= CHECKPOINT_INTERVAL {
                    if let Some(store) = store {
                        // Best-effort: a failed write only costs replay.
                        let _ = store.save_checkpoint(&job.domain, &config, &session.checkpoint());
                        last_save = std::time::Instant::now();
                    }
                }
            }
        }
    }
    let (reason, mut result) = finished.expect("a session's event stream terminates with Finished");
    let natural = session.finished_naturally();

    // Normalize: wall-clock and solver counters are execution metadata,
    // not content. Stored and compared results must be identical across
    // runs and worker counts; the measured values live on the outcome
    // instead.
    result.wall_time_ms = 0;
    outcome.solver = std::mem::take(&mut result.solver);
    if let Some(store) = store {
        if natural {
            // Failing to persist is not failing the job (e.g. read-only
            // dir); the next run simply recomputes.
            let _ = store.insert_with_origin(&job.domain, &config, &result, opts.origin);
            // Write-through to the regression bank: every significant
            // finding's witness permanently hardens the corpus. Same
            // best-effort discipline as the store insert, and idempotent
            // by content key — re-running a job re-inserts nothing.
            let bank = store.bank();
            let job_key = format!("{:016x}", ResultStore::key(&job.domain, &config));
            for finding in &result.findings {
                if let Some(record) = crate::bank::BankRecord::from_finding(
                    &job.domain,
                    finding,
                    &job_key,
                    config.seed,
                ) {
                    let _ = bank.insert(&record);
                }
            }
            if opts.resume {
                store.clear_checkpoint(&job.domain, &config);
            }
        } else if opts.resume {
            let _ = store.save_checkpoint(&job.domain, &config, &session.checkpoint());
        }
    }
    outcome.finish = Some(SessionFinish {
        reason,
        natural,
        resumed,
        events: session.checkpoint().events_emitted,
        budgets,
    });
    outcome.result = Some(result);
    outcome.wall_time_ms = start.elapsed().as_millis() as u64;
    outcome
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use xplain_analyzer::oracle::GapOracle;
    use xplain_core::explainer::DslMapper;
    use xplain_core::generalizer::Observation;

    /// A registered domain whose oracle construction panics — the stand-in
    /// for a buggy third-party heuristic.
    pub(crate) struct BoomDomain;

    impl crate::domain::Domain for BoomDomain {
        fn id(&self) -> &str {
            "boom"
        }
        fn description(&self) -> String {
            "panics on purpose".into()
        }
        fn oracle(&self) -> Box<dyn GapOracle> {
            panic!("kaboom: oracle construction failed")
        }
        fn mapper(&self) -> Option<Box<dyn DslMapper>> {
            None
        }
        fn seeds(&self) -> Vec<Vec<f64>> {
            Vec::new()
        }
        fn instance_family(&self, _seed: u64) -> Vec<Observation> {
            Vec::new()
        }
    }

    /// The built-in domains plus [`BoomDomain`].
    pub(crate) fn registry_with_boom() -> DomainRegistry {
        let mut registry = DomainRegistry::builtin();
        registry.register(Box::new(BoomDomain));
        registry
    }

    /// The built-in sched domain under the id `slow-sched`. The first gap
    /// any of its oracles computes sleeps [`CHECKPOINT_INTERVAL`] plus
    /// 50 ms, so the first session to run it reaches its first event
    /// boundary past the interval and the rest quickly.
    struct SlowSchedDomain(
        crate::SchedDomain,
        std::sync::Arc<std::sync::atomic::AtomicBool>,
    );

    struct SlowFirstGap {
        inner: Box<dyn GapOracle>,
        slept: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl GapOracle for SlowFirstGap {
        fn dims(&self) -> usize {
            self.inner.dims()
        }
        fn bounds(&self) -> Vec<(f64, f64)> {
            self.inner.bounds()
        }
        fn gap(&self, x: &[f64]) -> f64 {
            if !self.slept.swap(true, Ordering::Relaxed) {
                std::thread::sleep(CHECKPOINT_INTERVAL + std::time::Duration::from_millis(50));
            }
            self.inner.gap(x)
        }
    }

    impl crate::domain::Domain for SlowSchedDomain {
        fn id(&self) -> &str {
            "slow-sched"
        }
        fn description(&self) -> String {
            "sched with a slow first gap".into()
        }
        fn oracle(&self) -> Box<dyn GapOracle> {
            Box::new(SlowFirstGap {
                inner: self.0.oracle(),
                slept: self.1.clone(),
            })
        }
        fn mapper(&self) -> Option<Box<dyn DslMapper>> {
            self.0.mapper()
        }
        fn seeds(&self) -> Vec<Vec<f64>> {
            self.0.seeds()
        }
        fn instance_family(&self, seed: u64) -> Vec<Observation> {
            self.0.instance_family(seed)
        }
    }

    fn checkpoints_in(dir: &std::path::Path) -> usize {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
                    .count()
            })
            .unwrap_or(0)
    }

    fn tiny_job(domain: &str, seed: u64) -> JobSpec {
        let mut config = PipelineConfig {
            max_subspaces: 1,
            coverage_samples: 20,
            ..Default::default()
        };
        config.significance.pairs = 20;
        config.explainer.samples = 20;
        config.explainer.threads = 1;
        JobSpec {
            domain: domain.into(),
            config,
            seed,
            budgets: SessionBudgets::unlimited(),
        }
    }

    /// An outcome's JSON without its wall clock, which differs run to
    /// run.
    fn outcome_bytes(outcome: &JobOutcome) -> String {
        let mut outcome = outcome.clone();
        outcome.wall_time_ms = 0;
        serde_json::to_string(&outcome).expect("outcome serializes")
    }

    #[test]
    fn panicking_manifest_line_is_an_internal_outcome_at_its_index() {
        let registry = registry_with_boom();
        let good: Vec<JobSpec> = ["sched", "ff", "no-such-domain"]
            .iter()
            .map(|d| tiny_job(d, 11))
            .collect();
        let mut with_boom = good.clone();
        with_boom.push(tiny_job("boom", 11));
        let reference = run_manifest(&registry, &good, None, 1);
        for workers in [1, 4] {
            let outcomes = run_manifest(&registry, &with_boom, None, workers);
            assert_eq!(outcomes.len(), with_boom.len());
            let bad = &outcomes[good.len()];
            assert_eq!(bad.index, good.len());
            assert_eq!(bad.domain, "boom");
            assert!(bad.result.is_none());
            let Some(SessionError::Internal { message }) = &bad.error else {
                panic!("expected an Internal error, got {:?}", bad.error);
            };
            assert!(message.contains("kaboom"), "{message}");
            for (i, (got, want)) in outcomes.iter().zip(&reference).enumerate() {
                assert_eq!(
                    outcome_bytes(got),
                    outcome_bytes(want),
                    "job {i} changed next to a panicking line at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn batch_runs_stamp_the_requested_origin() {
        let dir = std::env::temp_dir().join(format!("xplain-exec-origin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::new(&dir);
        let registry = DomainRegistry::builtin();
        let jobs = vec![tiny_job("sched", 4)];
        let opts = RunOptions {
            origin: Some("batch-7"),
            ..RunOptions::default()
        };
        let outcomes = run_manifest_opts(&registry, &jobs, Some(&store), 1, opts);
        assert!(outcomes[0].error.is_none());
        let mut config = jobs[0].config.clone();
        config.seed = outcomes[0].derived_seed;
        assert_eq!(store.origin("sched", &config).as_deref(), Some("batch-7"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A job shorter than [`CHECKPOINT_INTERVAL`] persists no checkpoint
    /// at its event boundaries. A checkpoint written at one boundary is on
    /// disk when the next event reaches the sink, so the sink checks the
    /// store at every event whose previous one came before the interval
    /// had elapsed since before the job started (a slow host only checks
    /// fewer boundaries, never none).
    #[test]
    fn a_short_job_writes_no_checkpoint_at_event_boundaries() {
        let dir = std::env::temp_dir().join(format!("xplain-exec-short-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::new(&dir);
        let registry = DomainRegistry::builtin();
        let seen = std::sync::Mutex::new(Vec::new());
        for domain in ["sched", "ff"] {
            let start = std::time::Instant::now();
            let previous = std::sync::Mutex::new(None);
            let sink = |_: usize, _: &SessionEvent| {
                if let Some(at) = previous.lock().unwrap().replace(start.elapsed()) {
                    if at < CHECKPOINT_INTERVAL {
                        seen.lock().unwrap().push(checkpoints_in(&dir));
                    }
                }
            };
            let opts = RunOptions {
                resume: true,
                sink: Some(&sink),
                ..RunOptions::default()
            };
            let job = tiny_job(domain, 9);
            let outcome = run_job(&registry, &job, 0, Some(&store), opts, CancelToken::new());
            assert!(outcome.error.is_none(), "{:?}", outcome.error);
        }
        let seen = seen.into_inner().unwrap();
        assert!(!seen.is_empty(), "no boundary came inside the interval");
        assert!(
            seen.iter().all(|&n| n == 0),
            "checkpoints per boundary: {seen:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A session that runs past [`CHECKPOINT_INTERVAL`] persists a
    /// mid-run checkpoint and then no other until the interval has passed
    /// again, and a copy of it resumes over a store without the result to
    /// the uninterrupted run's bytes.
    #[test]
    fn a_long_session_checkpoints_mid_run_and_resumes_from_it() {
        let root = std::env::temp_dir().join(format!("xplain-exec-long-{}", std::process::id()));
        let (full_dir, copy_dir) = (root.join("full"), root.join("copy"));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&copy_dir).unwrap();
        let mut registry = DomainRegistry::builtin();
        registry.register(Box::new(SlowSchedDomain(
            crate::SchedDomain::small(),
            Default::default(),
        )));
        let job = tiny_job("slow-sched", 5);
        // At every event: when the sink saw it, and the checkpoint bytes
        // on disk then.
        let seen = std::sync::Mutex::new(Vec::new());
        let sink = |_: usize, _: &SessionEvent| {
            let ckpt = std::fs::read_dir(&full_dir).ok().and_then(|entries| {
                entries
                    .filter_map(Result::ok)
                    .find(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
            });
            if let Some(entry) = &ckpt {
                if !copy_dir.join(entry.file_name()).exists() {
                    std::fs::copy(entry.path(), copy_dir.join(entry.file_name())).unwrap();
                }
            }
            let bytes = ckpt.and_then(|e| std::fs::read(e.path()).ok());
            seen.lock()
                .unwrap()
                .push((std::time::Instant::now(), bytes));
        };
        let opts = RunOptions {
            resume: true,
            sink: Some(&sink),
            ..RunOptions::default()
        };
        let full_store = ResultStore::new(&full_dir);
        let full = run_job(
            &registry,
            &job,
            0,
            Some(&full_store),
            opts,
            CancelToken::new(),
        );
        assert!(full.error.is_none(), "{:?}", full.error);
        assert_eq!(checkpoints_in(&full_dir), 0, "natural completion clears it");

        // The first checkpoint was written after the sink saw the event
        // before it; a second one may only appear a full interval later.
        let seen = seen.into_inner().unwrap();
        let first = seen
            .iter()
            .position(|(_, bytes)| bytes.is_some())
            .expect("a mid-run checkpoint was written");
        assert!(first > 0);
        let (written_after, first_bytes) = (seen[first - 1].0, &seen[first].1);
        for (at, bytes) in &seen[first..] {
            if *at < written_after + CHECKPOINT_INTERVAL {
                assert_eq!(bytes, first_bytes, "a checkpoint within the interval");
            }
        }

        let copy_store = ResultStore::new(&copy_dir);
        let opts = RunOptions {
            resume: true,
            ..RunOptions::default()
        };
        let resumed = run_job(
            &registry,
            &job,
            0,
            Some(&copy_store),
            opts,
            CancelToken::new(),
        );
        let finish = resumed.finish.as_ref().expect("a session ran");
        assert!(finish.resumed && finish.natural, "{finish:?}");
        let bytes = |o: &JobOutcome| serde_json::to_string(&o.result).unwrap();
        assert_eq!(bytes(&resumed), bytes(&full));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Every config the repo ships fits the size limits: the defaults
    /// (`runner --emit-manifest`) and E4/E5's counts. Each count is
    /// admitted at its limit and refused one past it, naming the field.
    #[test]
    fn job_sizes_admit_the_shipped_configs_and_name_the_field_past_a_limit() {
        let mut job = tiny_job("dp", 1);
        job.config = PipelineConfig::default();
        assert_eq!(job.check_sizes(), Ok(()));
        job.config.explainer.samples = 3_000;
        job.config.significance.pairs = 400;
        assert_eq!(job.check_sizes(), Ok(()));
        let c = &mut job.config;
        c.explainer.samples = MAX_SAMPLES;
        c.explainer.threads = MAX_STREAMS;
        c.significance.pairs = MAX_PAIRS;
        c.coverage_samples = MAX_COVERAGE;
        assert_eq!(job.check_sizes(), Ok(()), "every count at its limit");
        // The fields are checked in order, so raising them from the last
        // makes each in turn the first one past its limit.
        let refused = |job: &JobSpec| match job.check_sizes() {
            Err(SessionError::InvalidConfig { message }) => message,
            other => panic!("admitted past a limit: {other:?}"),
        };
        job.config.coverage_samples += 1;
        assert!(refused(&job).starts_with("config.coverage_samples is 20001,"));
        job.config.significance.pairs += 1;
        assert!(refused(&job).starts_with("config.significance.pairs is 4001,"));
        job.config.explainer.threads += 1;
        assert!(refused(&job).starts_with("config.explainer.threads is 65,"));
        job.config.explainer.samples += 1;
        assert!(refused(&job).starts_with("config.explainer.samples is 30001,"));
    }

    #[test]
    fn run_job_turns_a_panic_into_an_internal_outcome() {
        let registry = registry_with_boom();
        let job = tiny_job("boom", 3);
        let outcome = run_job(
            &registry,
            &job,
            5,
            None,
            RunOptions::default(),
            CancelToken::new(),
        );
        assert_eq!(outcome.index, 5);
        assert_eq!(outcome.derived_seed, derive_seed(3, 5));
        assert!(matches!(outcome.error, Some(SessionError::Internal { .. })));
    }

    #[test]
    fn derive_seed_is_positional_and_stable() {
        assert_eq!(derive_seed(7, 0), derive_seed(7, 0));
        assert_ne!(derive_seed(7, 0), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }

    #[test]
    fn derived_seeds_are_json_safe() {
        // The f64-backed JSON layer rejects integers beyond 2^53; derived
        // seeds must stay inside that window even for extreme inputs.
        for base in [0, 7, u64::MAX, 1 << 60] {
            for index in [0, 1, 1000, u64::MAX] {
                assert!(derive_seed(base, index) <= SEED_MASK);
            }
        }
    }

    #[test]
    fn fan_out_preserves_index_order() {
        let squares = fan_out(100, 4, |i| i * i);
        assert_eq!(squares.len(), 100);
        for (i, &sq) in squares.iter().enumerate() {
            assert_eq!(sq, i * i);
        }
    }

    #[test]
    fn fan_out_handles_empty_and_serial() {
        assert!(fan_out(0, 4, |i| i).is_empty());
        assert_eq!(fan_out(3, 1, |i| i + 1), vec![1, 2, 3]);
    }

    /// The tasks' solves count on the thread that called `fan_out`, the
    /// same on 1 worker as on 3.
    #[test]
    fn fan_out_hands_solver_work_to_the_caller() {
        use xplain_lp::{Cmp, Model, Sense};
        let solve = |i: usize| {
            let mut m = Model::new(Sense::Maximize);
            let x = m.add_nonneg("x");
            m.add_constr("cap", x * 1.0, Cmp::Le, i as f64);
            m.set_objective(x * 1.0);
            m.solve().unwrap().objective
        };
        let totals: Vec<SolverCounters> = [1, 3]
            .into_iter()
            .map(|workers| {
                let before = SolverCounters::snapshot();
                fan_out(12, workers, solve);
                SolverCounters::snapshot().since(&before)
            })
            .collect();
        assert_eq!(totals[0].lp_solves, 12, "{:?}", totals[0]);
        assert_eq!(totals[0], totals[1]);
    }

    #[test]
    fn manifest_roundtrip_skips_comments() {
        let text = "# smoke manifest\n\n{\"domain\":\"dp\",\"config\":".to_string()
            + &serde_json::to_string(&PipelineConfig::default()).unwrap()
            + ",\"seed\":7}\n";
        let jobs = parse_manifest(&text).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].domain, "dp");
        assert_eq!(jobs[0].seed, 7);
        let back = parse_manifest(&manifest_to_jsonl(&jobs)).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].domain, "dp");
    }

    #[test]
    fn malformed_manifest_line_reports_position() {
        let err = parse_manifest("# ok\n{not json}\n").unwrap_err();
        let SessionError::Manifest { line, snippet, .. } = &err else {
            panic!("expected a Manifest error, got {err:?}");
        };
        assert_eq!(*line, 2);
        assert_eq!(snippet, "{not json}");
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn manifest_error_snippet_is_truncated() {
        let long = format!("{{\"domain\": \"{}\"", "x".repeat(200));
        let err = parse_manifest(&long).unwrap_err();
        let SessionError::Manifest { line, snippet, .. } = err else {
            panic!("expected a Manifest error");
        };
        assert_eq!(line, 1);
        assert!(snippet.chars().count() <= 49, "{snippet}");
        assert!(snippet.ends_with('…'));
    }

    #[test]
    fn manifest_budgets_default_to_unlimited_and_roundtrip() {
        // A pre-redesign manifest line (no "budgets" field) still parses.
        let text = "{\"domain\":\"dp\",\"config\":".to_string()
            + &serde_json::to_string(&PipelineConfig::default()).unwrap()
            + ",\"seed\":7}\n";
        let jobs = parse_manifest(&text).unwrap();
        assert!(jobs[0].budgets.is_unlimited());

        // Budgets survive the JSONL round trip.
        let mut job = jobs[0].clone();
        job.budgets.max_analyzer_calls = Some(3);
        job.budgets.deadline_ms = Some(250);
        let back = parse_manifest(&manifest_to_jsonl(&[job])).unwrap();
        assert_eq!(back[0].budgets.max_analyzer_calls, Some(3));
        assert_eq!(back[0].budgets.deadline_ms, Some(250));
        assert_eq!(back[0].budgets.max_solver_iterations, None);
    }

    #[test]
    fn unknown_domain_is_an_error_outcome_not_a_panic() {
        let registry = crate::domain::DomainRegistry::builtin();
        let jobs = vec![JobSpec {
            domain: "no-such-domain".into(),
            config: PipelineConfig::default(),
            seed: 1,
            budgets: SessionBudgets::unlimited(),
        }];
        let outcomes = run_manifest(&registry, &jobs, None, 1);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].result.is_none());
        let error = outcomes[0].error.clone().unwrap();
        assert_eq!(
            error,
            SessionError::UnknownDomain {
                id: "no-such-domain".into()
            }
        );
        assert!(error.to_string().contains("no-such-domain"));
    }
}
