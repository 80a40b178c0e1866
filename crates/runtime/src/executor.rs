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
//! byte-for-byte identical per-job results — the property the tests and
//! the `runner --smoke` CI gate pin down. The one nondeterministic field,
//! `wall_time_ms`, is moved out of the stored result and into the
//! [`JobOutcome`] wrapper (the stored copy is normalized to 0).
//!
//! Each job *is* an [`xplain_core::session::AnalysisSession`]: `run_job`
//! drives the session's event stream, forwards events to an optional
//! sink ([`RunOptions::sink`] — the `runner --watch` NDJSON feed),
//! enforces per-job [`SessionBudgets`], and (with [`RunOptions::resume`])
//! persists a checkpoint through the content-addressed store after every
//! event so a killed runner continues mid-loop on the next invocation.
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
use std::sync::Mutex;

use serde::{Deserialize, Serialize};
use xplain_core::pipeline::{PipelineConfig, PipelineResult};
use xplain_core::session::{CancelToken, FinishReason, SessionBudgets, SessionError, SessionEvent};
use xplain_lp::SolverCounters;

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
    /// Solver work observed during this execution (zero on cache hits;
    /// cumulative across segments on resumed sessions). Same treatment
    /// as `wall_time_ms`: the stored result's copy is normalized because
    /// the process-wide counters bleed across concurrently running jobs,
    /// which would break the 1-worker ≡ N-workers determinism guarantee.
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
/// `run_job`).
///
/// This is the shared primitive under [`run_manifest`] and the repro
/// harness's concurrent E1–E9 regeneration.
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
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

/// Per-event observer: `(manifest index, event)`. `Sync` because workers
/// share it; the `runner --watch` sink serializes each event to NDJSON.
pub type EventSink<'s> = &'s (dyn Fn(usize, &SessionEvent) + Sync);

/// Execution policy for a manifest run, beyond the job specs themselves.
#[derive(Default, Clone, Copy)]
pub struct RunOptions<'s> {
    /// Override every job's budgets (CLI flags beat manifest fields).
    pub budgets_override: Option<SessionBudgets>,
    /// Load a persisted checkpoint before running each job and persist
    /// one after every event, so an interrupted or killed run continues
    /// mid-loop next time. Requires a store; a no-op without one.
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
    while let Some(event) = session.next_event() {
        if let Some(sink) = opts.sink {
            sink(index, &event);
        }
        match &event {
            SessionEvent::Finished { reason, result } => {
                finished = Some((*reason, result.clone()));
            }
            _ => {
                if opts.resume {
                    if let Some(store) = store {
                        // Best-effort: a failed write only costs replay.
                        let _ = store.save_checkpoint(&job.domain, &config, &session.checkpoint());
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

    /// An outcome's JSON without its execution metadata (`wall_time_ms`
    /// and the process-wide solver counters), which differ run to run.
    fn outcome_bytes(outcome: &JobOutcome) -> String {
        let mut outcome = outcome.clone();
        outcome.wall_time_ms = 0;
        outcome.solver = SolverCounters::default();
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
