//! End-to-end HTTP tests over a live loopback server.
//!
//! The load-bearing properties:
//!
//! 1. **streamed ≡ batch** — for each built-in domain, the NDJSON event
//!    stream served over `GET /v1/jobs/{id}/events` is byte-identical to
//!    the `runner --watch` lines of a direct `run_manifest` of the same
//!    spec (terminal lines compared after zeroing the embedded result's
//!    `wall_time_ms`, the one nondeterministic execution-metadata field).
//! 2. **cancel → checkpoint → resubmit resumes** — a cancelled streaming
//!    job leaves a `.ckpt` in the store; resubmitting the same spec
//!    resumes it, and the concatenation of the two event streams is
//!    byte-identical to an uninterrupted run.
//! 3. **admission control** — a full queue answers 429 + `Retry-After`.
//! 4. **graceful shutdown** — in-flight sessions checkpoint; a *new*
//!    server over the same store resumes them.
//! 5. **bank freshness** — records written or swept behind the server's
//!    back (another process on the same store, e.g. a mesh shard) show
//!    up on the very next `GET /v1/regressions` page.
//!
//! The interruption tests (2 and 4) never race the session they
//! interrupt: they run a `held-sched` job, the built-in sched domain
//! with an oracle that stops inside its session until the test has
//! seen the cancellation land, so the session cannot finish first.
//!
//! Terminal watch lines embed each job's solver counts, and those are
//! the job's own (counters are per thread), so the tests compare them
//! byte for byte while other tests of this binary solve in parallel.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use xplain_analyzer::oracle::GapOracle;
use xplain_core::pipeline::{PipelineConfig, SubspaceFinding, Witness};
use xplain_core::subspace::{Subspace, SubspaceParams};
use xplain_core::{DslMapper, ExplainerParams, Observation, SignificanceParams};
use xplain_runtime::{
    run_manifest_opts, watch_line, BankRecord, Domain, DomainRegistry, JobOutcome, JobSpec,
    RegressionBank, RunOptions, SchedDomain, SessionBudgets, SessionEvent, SolverCounters,
    WatchLine,
};
use xplain_serve::{Client, Server, ServerConfig, ServerHandle};

fn tiny_config() -> PipelineConfig {
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
            pairs: 40,
            ..Default::default()
        },
        explainer: ExplainerParams {
            samples: 80,
            threads: 1,
            ..Default::default()
        },
        coverage_samples: 200,
        ..Default::default()
    }
}

fn spec(domain: &str, seed: u64) -> JobSpec {
    JobSpec {
        domain: domain.into(),
        config: tiny_config(),
        seed,
        budgets: SessionBudgets::unlimited(),
    }
}

fn spec_json(spec: &JobSpec) -> String {
    serde_json::to_string(spec).expect("spec serializes")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xplain-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Holds one session mid-run. Every oracle of a `held-sched` domain
/// counts its gap calls here, and the call numbered `at` waits until
/// [`Hold::open`].
struct Hold {
    calls: AtomicUsize,
    at: usize,
    open: Mutex<bool>,
    opened: Condvar,
}

impl Hold {
    fn at(call: usize) -> Arc<Hold> {
        Arc::new(Hold {
            calls: AtomicUsize::new(0),
            at: call,
            open: Mutex::new(false),
            opened: Condvar::new(),
        })
    }

    fn never() -> Arc<Hold> {
        Hold::at(usize::MAX)
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn count_call(&self) {
        if self.calls.fetch_add(1, Ordering::SeqCst) == self.at {
            let mut open = self.open.lock().unwrap();
            while !*open {
                open = self.opened.wait(open).unwrap();
            }
        }
    }
}

/// The built-in sched domain under the id `held-sched`, its gap calls
/// counted (and one of them held) by a [`Hold`].
struct HeldSched(SchedDomain, Arc<Hold>);

struct HeldOracle(Box<dyn GapOracle>, Arc<Hold>);

impl GapOracle for HeldOracle {
    fn dims(&self) -> usize {
        self.0.dims()
    }
    fn bounds(&self) -> Vec<(f64, f64)> {
        self.0.bounds()
    }
    fn gap(&self, x: &[f64]) -> f64 {
        self.1.count_call();
        self.0.gap(x)
    }
    fn dim_names(&self) -> Vec<String> {
        self.0.dim_names()
    }
}

impl Domain for HeldSched {
    fn id(&self) -> &str {
        "held-sched"
    }
    fn description(&self) -> String {
        "sched, held mid-run by the test".into()
    }
    fn oracle(&self) -> Box<dyn GapOracle> {
        Box::new(HeldOracle(self.0.oracle(), self.1.clone()))
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

fn held_registry(hold: Arc<Hold>) -> DomainRegistry {
    let mut registry = DomainRegistry::builtin();
    registry.register(Box::new(HeldSched(SchedDomain::small(), hold)));
    registry
}

/// Bind on an ephemeral port and run the server on a background thread.
fn start_server(
    store_dir: Option<PathBuf>,
    workers: usize,
    capacity: usize,
) -> (ServerHandle, std::thread::JoinHandle<()>) {
    start_held_server(store_dir, workers, capacity, Hold::never())
}

/// [`start_server`] whose registry also has `held-sched` under `hold`.
fn start_held_server(
    store_dir: Option<PathBuf>,
    workers: usize,
    capacity: usize,
    hold: Arc<Hold>,
) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_workers: workers,
        http_threads: 4,
        capacity,
        store_dir,
        read_timeout: Duration::from_secs(120),
        retain_done: 1024,
        ..ServerConfig::default()
    })
    .expect("ephemeral bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        server.run(&held_registry(hold)).expect("server runs");
    });
    (handle, join)
}

fn client(handle: &ServerHandle) -> Client {
    Client::new(handle.addr()).with_timeout(Duration::from_secs(120))
}

/// The `runner --watch` lines of a direct, serial, storeless run — the
/// reference the served stream must match byte-for-byte.
fn reference_lines(job: &JobSpec) -> (Vec<String>, JobOutcome) {
    let (lines, outcome, _) = counted_reference(job);
    (lines, outcome)
}

/// The reference stream of a `held-sched` job, and a hold that stops the
/// served run of the same job in its first gap call after `events`
/// events (sessions are deterministic, so the served run makes the same
/// calls as the reference).
fn held_reference(job: &JobSpec, events: usize) -> (Vec<String>, Arc<Hold>) {
    let (lines, _, calls) = counted_reference(job);
    assert!(
        calls[events - 1] < calls[calls.len() - 2],
        "no gap call between event {events} and the last stage"
    );
    (lines, Hold::at(calls[events - 1]))
}

/// [`reference_lines`], and how many `held-sched` gap calls the run had
/// made when each event reached the sink.
fn counted_reference(job: &JobSpec) -> (Vec<String>, JobOutcome, Vec<usize>) {
    let counter = Hold::never();
    let registry = held_registry(counter.clone());
    let jobs = vec![job.clone()];
    let lines: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let calls: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let sink = |index: usize, event: &SessionEvent| {
        lines
            .lock()
            .unwrap()
            .push(watch_line(index, &jobs[index].domain, event));
        calls
            .lock()
            .unwrap()
            .push(counter.calls.load(Ordering::SeqCst));
    };
    let opts = RunOptions {
        budgets_override: None,
        resume: false,
        sink: Some(&sink),
        origin: None,
    };
    let outcomes = run_manifest_opts(&registry, &jobs, None, 1, opts);
    (
        lines.into_inner().unwrap(),
        outcomes.into_iter().next().unwrap(),
        calls.into_inner().unwrap(),
    )
}

/// Zero the embedded result's `wall_time_ms` on a terminal line so
/// streams compare modulo execution metadata only.
fn normalize_terminal(line: &str) -> String {
    let mut parsed: WatchLine = serde_json::from_str(line).expect("watch line parses");
    if let SessionEvent::Finished { result, .. } = &mut parsed.event {
        result.wall_time_ms = 0;
    }
    serde_json::to_string(&parsed).expect("watch line reserializes")
}

fn line_kind(line: &str) -> String {
    serde_json::from_str::<WatchLine>(line)
        .expect("watch line parses")
        .kind
}

/// Byte-identity for event streams: non-terminal lines must match
/// exactly; terminal lines match after wall-time normalization.
fn assert_streams_equal(served: &[String], reference: &[String], context: &str) {
    assert_eq!(
        served.len(),
        reference.len(),
        "{context}: stream lengths differ\nserved:    {served:#?}\nreference: {reference:#?}"
    );
    for (i, (s, r)) in served.iter().zip(reference).enumerate() {
        if line_kind(r) == "finished" {
            assert_eq!(
                normalize_terminal(s),
                normalize_terminal(r),
                "{context}: terminal line {i} differs"
            );
        } else {
            assert_eq!(s, r, "{context}: line {i} differs byte-for-byte");
        }
    }
}

#[derive(serde::Deserialize)]
struct SubmitResp {
    id: String,
    status: String,
    disposition: String,
    cache_hit: bool,
}

#[derive(serde::Deserialize)]
struct StatusResp {
    id: String,
    domain: String,
    status: String,
    #[serde(default)]
    events: usize,
    outcome: Option<JobOutcome>,
}

/// Property 1: submit → stream for every built-in domain; streamed
/// events ≡ direct `run_manifest` watch lines; repeat submissions are
/// cache hits served without recomputation.
#[test]
fn served_streams_match_direct_runs_for_all_domains() {
    let store_dir = scratch_dir("stream");
    let (handle, join) = start_server(Some(store_dir.clone()), 1, 16);
    let api = client(&handle);

    let mut reference_solver = SolverCounters::default();
    for domain in ["dp", "ff", "sched"] {
        let job = spec(domain, 0xE2E);
        let (reference, ref_outcome) = reference_lines(&job);
        reference_solver = reference_solver.plus(&ref_outcome.solver);

        let resp = api.post("/v1/jobs", &spec_json(&job)).unwrap();
        assert_eq!(resp.status, 202, "{domain}: {}", resp.body);
        let submit: SubmitResp = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(submit.disposition, "enqueued", "{domain}");
        assert!(!submit.cache_hit);

        let (status, mut stream) = api
            .stream(&format!("/v1/jobs/{}/events", submit.id))
            .unwrap();
        assert_eq!(status, 200);
        let served = stream.collect_lines().unwrap();
        assert_streams_equal(&served, &reference, domain);

        // Status endpoint: done, natural, computed (not a cache hit).
        let resp = api.get(&format!("/v1/jobs/{}", submit.id)).unwrap();
        assert_eq!(resp.status, 200);
        let status: StatusResp = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(status.id, submit.id);
        assert_eq!(status.domain, domain);
        assert_eq!(status.status, "done");
        assert_eq!(status.events, served.len());
        let outcome = status.outcome.expect("done job has an outcome");
        assert!(!outcome.cache_hit);
        assert!(outcome.finish.as_ref().is_some_and(|f| f.natural));
        // The served outcome's result equals the direct run's.
        assert_eq!(
            serde_json::to_string(&outcome.result).unwrap(),
            serde_json::to_string(&ref_outcome.result).unwrap(),
            "{domain}: served result differs from direct run"
        );

        // Resubmission: answered from memory as a cache hit (200, not
        // 202 — nothing new was scheduled).
        let resp = api.post("/v1/jobs", &spec_json(&job)).unwrap();
        assert_eq!(resp.status, 200, "{domain}: {}", resp.body);
        let again: SubmitResp = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(again.id, submit.id);
        assert_eq!(again.disposition, "cache_hit");
        assert!(again.cache_hit);
        assert_eq!(again.status, "done");
    }

    // Metrics reflect the traffic: submissions, completions, cache hits.
    let resp = api.get("/v1/metrics").unwrap();
    assert_eq!(resp.status, 200);
    let metrics: serde::Value = serde_json::from_str(&resp.body).unwrap();
    let queue = serde::map_get(metrics.as_map().unwrap(), "queue")
        .unwrap()
        .as_map()
        .unwrap();
    let get = |k: &str| serde::map_get(queue, k).unwrap().as_f64().unwrap();
    assert_eq!(get("submitted"), 6.0, "{}", resp.body);
    assert_eq!(get("completed"), 3.0);
    assert_eq!(get("cache_hits"), 3.0);
    assert_eq!(get("cache_hit_rate"), 0.5);
    assert!(serde::map_get(metrics.as_map().unwrap(), "routes")
        .unwrap()
        .as_seq()
        .is_some_and(|routes| !routes.is_empty()));
    // The solver block is the served jobs' own work, which equals the
    // direct runs'.
    #[derive(serde::Deserialize)]
    struct MetricsSolver {
        solver: SolverCounters,
    }
    let reported: MetricsSolver = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(reported.solver, reference_solver);

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Property 2 (the acceptance criterion): a cancelled streaming job's
/// checkpoint is resumed by a resubmit of the same spec, and the
/// concatenated event stream is byte-identical to an uninterrupted run.
#[test]
fn cancelled_stream_resumes_on_resubmit_with_identical_concatenated_stream() {
    let store_dir = scratch_dir("cancel-resume");
    let job = spec("held-sched", 0xCA7CE1);
    let (reference, hold) = held_reference(&job, 2);
    let (handle, join) = start_held_server(Some(store_dir.clone()), 1, 16, hold.clone());
    let api = client(&handle);

    assert!(
        reference.len() >= 4,
        "config too small to interrupt meaningfully ({} events)",
        reference.len()
    );

    // Submit and start streaming; cancel after two events arrive. The
    // session waits in its next gap call until the cancel is answered.
    let resp = api.post("/v1/jobs", &spec_json(&job)).unwrap();
    assert_eq!(resp.status, 202);
    let submit: SubmitResp = serde_json::from_str(&resp.body).unwrap();
    let (_, mut stream) = api
        .stream(&format!("/v1/jobs/{}/events", submit.id))
        .unwrap();
    let mut first_segment = Vec::new();
    for _ in 0..2 {
        first_segment.push(stream.next_line().unwrap().expect("live event"));
    }
    let resp = api
        .post(&format!("/v1/jobs/{}/cancel", submit.id), "")
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    hold.open();
    // Drain to the terminal event the cancellation forces.
    first_segment.extend(stream.collect_lines().unwrap());
    let terminal = first_segment.pop().expect("cancelled stream terminates");
    let parsed: WatchLine = serde_json::from_str(&terminal).unwrap();
    assert_eq!(parsed.kind, "finished");
    assert!(
        terminal.contains("\"Cancelled\""),
        "expected a cancelled terminal event, got: {terminal}"
    );
    // Every retained line is a clean prefix of the reference stream.
    assert!(
        first_segment.len() < reference.len() - 1,
        "cancellation landed after the run finished; nothing was interrupted"
    );

    // The cancelled session checkpointed under its content key.
    let ckpt = store_dir.join(format!("{}.ckpt", submit.id));
    assert!(ckpt.is_file(), "no checkpoint at {}", ckpt.display());

    // Resubmit the same spec: the queue re-enqueues it as a resuming
    // execution under the same id.
    let resp = api.post("/v1/jobs", &spec_json(&job)).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);
    let resumed: SubmitResp = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(resumed.id, submit.id);
    assert_eq!(resumed.disposition, "resumed");

    let (_, mut stream) = api
        .stream(&format!("/v1/jobs/{}/events", resumed.id))
        .unwrap();
    let second_segment = stream.collect_lines().unwrap();

    // The resumed outcome must acknowledge the checkpoint.
    let status: StatusResp =
        serde_json::from_str(&api.get(&format!("/v1/jobs/{}", resumed.id)).unwrap().body).unwrap();
    let outcome = status.outcome.expect("resumed job finished");
    let finish = outcome.finish.expect("resumed job ran a session");
    assert!(finish.natural, "resumed run must finish naturally");
    assert!(
        finish.resumed,
        "second execution must resume the checkpoint"
    );

    // THE acceptance check: concatenated segments ≡ uninterrupted run.
    let mut concatenated = first_segment;
    concatenated.extend(second_segment);
    assert_streams_equal(&concatenated, &reference, "cancel+resume concatenation");

    // Natural completion cleared the checkpoint.
    assert!(!ckpt.exists(), "checkpoint must clear on natural finish");

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Property 3: admission control — a full waiting line answers 429 with
/// a Retry-After; plus the small-surface error paths (404/405/400).
#[test]
fn full_queue_answers_429_and_error_paths_are_clean() {
    let (handle, join) = start_server(None, 1, 1);
    let api = client(&handle);

    // Occupy the single worker…
    let running = spec("sched", 1);
    let resp = api.post("/v1/jobs", &spec_json(&running)).unwrap();
    assert_eq!(resp.status, 202);
    let running: SubmitResp = serde_json::from_str(&resp.body).unwrap();
    // …wait until it is actually running (not just queued)…
    loop {
        let status: StatusResp =
            serde_json::from_str(&api.get(&format!("/v1/jobs/{}", running.id)).unwrap().body)
                .unwrap();
        if status.status == "running" {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // …fill the waiting line (capacity 1)…
    let waiting = api.post("/v1/jobs", &spec_json(&spec("sched", 2))).unwrap();
    assert_eq!(waiting.status, 202, "{}", waiting.body);
    // …and overflow it.
    let rejected = api.post("/v1/jobs", &spec_json(&spec("sched", 3))).unwrap();
    assert_eq!(rejected.status, 429, "{}", rejected.body);
    let retry_after: u64 = rejected
        .header("retry-after")
        .expect("429 carries Retry-After")
        .parse()
        .expect("Retry-After is integral seconds");
    assert!(retry_after >= 1);

    // An identical spec still dedups instead of rejecting.
    let joined = api.post("/v1/jobs", &spec_json(&spec("sched", 1))).unwrap();
    assert_eq!(joined.status, 202);
    let joined: SubmitResp = serde_json::from_str(&joined.body).unwrap();
    assert_eq!(joined.disposition, "in_flight");

    // Error surface.
    assert_eq!(api.get("/v1/jobs/0123456789abcdef").unwrap().status, 404);
    assert_eq!(api.get("/v1/jobs/not-hex").unwrap().status, 404);
    assert_eq!(api.get("/nope").unwrap().status, 404);
    let m405 = api.get("/v1/shutdown").unwrap();
    assert_eq!(m405.status, 405);
    assert_eq!(m405.header("allow"), Some("POST"));
    assert_eq!(api.post("/v1/jobs", "{not json").unwrap().status, 400);
    let unknown = api
        .post("/v1/jobs", &spec_json(&spec("no-such-domain", 1)))
        .unwrap();
    assert_eq!(unknown.status, 400);
    assert!(unknown.body.contains("unknown domain"), "{}", unknown.body);

    // Domains listing matches the registry.
    let domains = api.get("/v1/domains").unwrap();
    assert_eq!(domains.status, 200);
    for id in DomainRegistry::builtin().ids() {
        assert!(
            domains.body.contains(&format!("\"{id}\"")),
            "{}",
            domains.body
        );
    }

    // Metrics counted the rejection.
    let metrics: serde::Value =
        serde_json::from_str(&api.get("/v1/metrics").unwrap().body).unwrap();
    let queue = serde::map_get(metrics.as_map().unwrap(), "queue")
        .unwrap()
        .as_map()
        .unwrap();
    assert_eq!(
        serde::map_get(queue, "rejected_busy").unwrap().as_f64(),
        Some(1.0)
    );

    // Cancel everything and stop; shutdown must still drain cleanly with
    // a job mid-flight.
    api.post(&format!("/v1/jobs/{}/cancel", running.id), "")
        .unwrap();
    handle.shutdown();
    join.join().unwrap();
}

/// Property 4: graceful shutdown checkpoints in-flight sessions, and a
/// NEW server over the same store resumes them on resubmit — the
/// restart-durability story.
#[test]
fn shutdown_checkpoints_inflight_and_next_server_resumes() {
    let store_dir = scratch_dir("shutdown");
    let job = spec("held-sched", 0x5D0D0);
    let (reference, hold) = held_reference(&job, 1);

    // Server 1: start the job, take one event, shut down via the API.
    // The session waits in its next gap call until the shutdown has
    // cancelled it.
    let (handle, join) = start_held_server(Some(store_dir.clone()), 1, 16, hold.clone());
    let api = client(&handle);
    let resp = api.post("/v1/jobs", &spec_json(&job)).unwrap();
    assert_eq!(resp.status, 202);
    let submit: SubmitResp = serde_json::from_str(&resp.body).unwrap();
    let (_, mut stream) = api
        .stream(&format!("/v1/jobs/{}/events", submit.id))
        .unwrap();
    let mut first_segment = vec![stream.next_line().unwrap().expect("live event")];
    // A second job waits behind the held one. The drain cancels waiting
    // jobs and running sessions under one lock, so once the waiting
    // job's stream has ended the held session's cancel is set.
    let resp = api
        .post("/v1/jobs", &spec_json(&spec("sched", 0x5D0D1)))
        .unwrap();
    assert_eq!(resp.status, 202);
    let waiting: SubmitResp = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(waiting.status, "queued", "{}", resp.body);
    let (_, mut waiting_stream) = api
        .stream(&format!("/v1/jobs/{}/events", waiting.id))
        .unwrap();
    let resp = api.post("/v1/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
    waiting_stream.collect_lines().unwrap();
    hold.open();
    // The shutdown cancels the session; its stream ends with a terminal
    // event and the server drains.
    first_segment.extend(stream.collect_lines().unwrap());
    let terminal = first_segment.pop().expect("stream terminates on shutdown");
    assert_eq!(line_kind(&terminal), "finished");
    join.join().unwrap();

    let ckpt = store_dir.join(format!("{}.ckpt", submit.id));
    assert!(
        ckpt.is_file(),
        "graceful shutdown must leave a checkpoint at {}",
        ckpt.display()
    );

    // Server 2, same store: resubmit resumes mid-loop and completes; the
    // concatenated stream is the uninterrupted one.
    let (handle, join) = start_server(Some(store_dir.clone()), 1, 16);
    let api = client(&handle);
    let resp = api.post("/v1/jobs", &spec_json(&job)).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);
    let resubmit: SubmitResp = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(resubmit.id, submit.id, "content-addressed ids are stable");
    let (_, mut stream) = api
        .stream(&format!("/v1/jobs/{}/events", resubmit.id))
        .unwrap();
    let second_segment = stream.collect_lines().unwrap();
    let status: StatusResp =
        serde_json::from_str(&api.get(&format!("/v1/jobs/{}", resubmit.id)).unwrap().body).unwrap();
    let finish = status.outcome.unwrap().finish.expect("session ran");
    assert!(finish.natural && finish.resumed, "{finish:?}");

    let mut concatenated = first_segment;
    concatenated.extend(second_segment);
    assert_streams_equal(&concatenated, &reference, "restart concatenation");

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[derive(serde::Deserialize)]
struct RegressionsPage {
    total: usize,
    entries: Vec<RegressionEntry>,
}

#[derive(serde::Deserialize)]
struct RegressionEntry {
    id: String,
    job_key: String,
}

/// A banked record for `domain` at `instance`, as a session would write it.
fn bank_record(domain: &str, instance: Vec<f64>, job_key: &str) -> BankRecord {
    let lo: Vec<f64> = instance.iter().map(|v| v - 1.0).collect();
    let hi: Vec<f64> = instance.iter().map(|v| v + 1.0).collect();
    let finding = SubspaceFinding {
        subspace: Subspace::from_rough_box(lo, hi, instance.clone(), 5.0),
        significance: None,
        explanation: None,
        witness: Some(Witness {
            input: instance,
            gap: 5.0,
        }),
    };
    BankRecord::from_finding(domain, &finding, job_key, 1).expect("positive-gap witness banks")
}

fn regressions_page(api: &Client) -> RegressionsPage {
    let resp = api.get("/v1/regressions").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    serde_json::from_str(&resp.body).unwrap()
}

/// Property 5: the server's bank index never serves a stale page —
/// inserts and sweeps through a separate bank handle on the same store
/// directory (what a second mesh shard does) show up on the next read.
#[test]
fn regressions_page_sees_writes_and_sweeps_behind_the_servers_back() {
    let store_dir = scratch_dir("bank-freshness");
    let (handle, join) = start_server(Some(store_dir.clone()), 1, 16);
    let api = client(&handle);
    let outside = RegressionBank::new(&store_dir);

    assert_eq!(regressions_page(&api).total, 0);
    outside
        .insert(&bank_record(
            "dp",
            vec![50.0, 100.0, 100.0],
            "00000000000000a1",
        ))
        .unwrap();
    let page = regressions_page(&api);
    assert_eq!(page.total, 1);

    let retired = bank_record("retired-domain", vec![1.0, 2.0], "00000000000000b2");
    outside.insert(&retired).unwrap();
    let retired_id =
        RegressionBank::format_id(RegressionBank::key(&retired.domain, &retired.instance));
    let page = regressions_page(&api);
    assert_eq!(page.total, 2);
    let listed = page
        .entries
        .iter()
        .find(|e| e.id == retired_id)
        .expect("the outside insert is listed");
    assert_eq!(listed.job_key, "00000000000000b2");

    let swept = outside.sweep(&DomainRegistry::builtin().ids());
    assert_eq!(swept.entries_removed, 1);
    let page = regressions_page(&api);
    assert_eq!(page.total, 1);
    assert!(page.entries.iter().all(|e| e.id != retired_id));

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&store_dir);
}
