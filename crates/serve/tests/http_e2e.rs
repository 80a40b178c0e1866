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
//! Terminal watch lines embed each job's solver counts, and those are
//! the job's own (counters are per thread), so the tests compare them
//! byte for byte while other tests of this binary solve in parallel.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use xplain_core::pipeline::{PipelineConfig, SubspaceFinding, Witness};
use xplain_core::subspace::{Subspace, SubspaceParams};
use xplain_core::{ExplainerParams, SignificanceParams};
use xplain_runtime::{
    run_manifest_opts, watch_line, BankRecord, DomainRegistry, JobOutcome, JobSpec, RegressionBank,
    RunOptions, SessionBudgets, SessionEvent, SolverCounters, WatchLine,
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

/// Bind on an ephemeral port and run the server on a background thread.
fn start_server(
    store_dir: Option<PathBuf>,
    workers: usize,
    capacity: usize,
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
        let registry = DomainRegistry::builtin();
        server.run(&registry).expect("server runs");
    });
    (handle, join)
}

fn client(handle: &ServerHandle) -> Client {
    Client::new(handle.addr()).with_timeout(Duration::from_secs(120))
}

/// The `runner --watch` lines of a direct, serial, storeless run — the
/// reference the served stream must match byte-for-byte.
fn reference_lines(job: &JobSpec) -> (Vec<String>, JobOutcome) {
    let registry = DomainRegistry::builtin();
    let jobs = vec![job.clone()];
    let lines: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let sink = |index: usize, event: &SessionEvent| {
        lines
            .lock()
            .unwrap()
            .push(watch_line(index, &jobs[index].domain, event));
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
    let (handle, join) = start_server(Some(store_dir.clone()), 1, 16);
    let api = client(&handle);

    let job = spec("sched", 0xCA7CE1);
    let (reference, _) = reference_lines(&job);
    assert!(
        reference.len() >= 4,
        "config too small to interrupt meaningfully ({} events)",
        reference.len()
    );

    // Submit and start streaming; cancel after two events arrive.
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
    let job = spec("sched", 0x5D0D0);
    let (reference, _) = reference_lines(&job);

    // Server 1: start the job, take one event, shut down via the API.
    let (handle, join) = start_server(Some(store_dir.clone()), 1, 16);
    let api = client(&handle);
    let resp = api.post("/v1/jobs", &spec_json(&job)).unwrap();
    assert_eq!(resp.status, 202);
    let submit: SubmitResp = serde_json::from_str(&resp.body).unwrap();
    let (_, mut stream) = api
        .stream(&format!("/v1/jobs/{}/events", submit.id))
        .unwrap();
    let mut first_segment = vec![stream.next_line().unwrap().expect("live event")];
    let resp = api.post("/v1/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
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
