//! The served stack under load: in-process shards and gateway on
//! loopback, closed-loop clients, and the correctness checks on what
//! comes back.

use std::net::SocketAddr;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Value;
use xplain_core::pipeline::PipelineResult;
use xplain_mesh::{Gateway, GatewayConfig, GatewayHandle, Peer};
use xplain_runtime::{DomainRegistry, JobSpec, SessionEvent, WatchLine};
use xplain_serve::{Client, Server, ServerConfig, ServerHandle};

use crate::spec::{self, Specs};
use crate::trace::Tracer;

const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// Operation and correctness accounting for one run.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    mismatches: Mutex<Vec<String>>,
}

/// Why an operation did not count as a success.
#[derive(Debug)]
pub enum Failure {
    /// Transport error or an unexpected status: the operation failed.
    Op(String),
    /// The operation answered, but with the wrong content.
    Mismatch(String),
}

impl Tally {
    /// Count one operation and its outcome; `Some` on success.
    pub fn check<T>(&self, result: Result<T, Failure>) -> Option<T> {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(v) => Some(v),
            Err(failure) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                let message = match failure {
                    Failure::Op(m) => m,
                    Failure::Mismatch(m) => {
                        self.mismatch(m.clone());
                        m
                    }
                };
                eprintln!("perfbench: {message}");
                None
            }
        }
    }

    /// Record a correctness mismatch found outside a counted operation.
    pub fn mismatch(&self, what: String) {
        self.mismatches.lock().expect("tally").push(what);
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn mismatches(&self) -> Vec<String> {
        self.mismatches.lock().expect("tally").clone()
    }
}

fn op(e: impl std::fmt::Display) -> Failure {
    Failure::Op(e.to_string())
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1000.0
}

// ------------------------------------------------------------- services

/// One in-process `xplain-serve` shard.
pub struct Shard {
    handle: ServerHandle,
    join: JoinHandle<()>,
}

/// Shard config for a run: as many queue workers as cores, enough
/// connection threads for every client's open stream plus its unary
/// requests.
pub fn shard_config(store: Option<&Path>, nproc: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_workers: nproc,
        http_threads: 2 * nproc + 4,
        capacity: 256,
        store_dir: store.map(Path::to_path_buf),
        read_timeout: CLIENT_TIMEOUT,
        retain_done: 256,
        ..ServerConfig::default()
    }
}

/// Config of a shard that serves the measured reads: it keeps a single
/// finished job in memory, so a resubmit of any other finished spec
/// misses the in-memory done slots and is answered by
/// `ResultStore::lookup` — the path a long-lived server takes for all
/// but its most recent completions. Safe only where jobs finish one at
/// a time (the read shards run no jobs; the operator is one client), as
/// a job evicted while its events stream would truncate the stream.
pub fn read_config(store: &Path, nproc: usize) -> ServerConfig {
    ServerConfig {
        retain_done: 1,
        ..shard_config(Some(store), nproc)
    }
}

impl Shard {
    /// Bind, open store and journal (recovering whatever the journal
    /// holds), and wait until the shard answers requests.
    pub fn start(config: ServerConfig) -> std::io::Result<Shard> {
        let server = Server::bind(config)?;
        let handle = server.handle();
        let join = std::thread::spawn(move || {
            let registry = DomainRegistry::builtin();
            if let Err(e) = server.run(&registry) {
                eprintln!("perfbench: shard stopped: {e}");
            }
        });
        wait_ready(handle.addr())?;
        Ok(Shard { handle, join })
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    pub fn stop(self) {
        self.handle.shutdown();
        let _ = self.join.join();
    }
}

/// An in-process mesh gateway in front of shards.
pub struct Front {
    handle: GatewayHandle,
    join: JoinHandle<()>,
}

impl Front {
    pub fn start(shards: &[SocketAddr]) -> std::io::Result<Front> {
        let gateway = Gateway::bind(GatewayConfig {
            addr: "127.0.0.1:0".into(),
            peers: shards
                .iter()
                .map(|addr| Peer {
                    id: addr.to_string(),
                    addr: *addr,
                })
                .collect(),
            read_timeout: CLIENT_TIMEOUT,
            upstream_timeout: CLIENT_TIMEOUT,
            ..GatewayConfig::default()
        })?;
        let handle = gateway.handle();
        let join = std::thread::spawn(move || {
            if let Err(e) = gateway.run() {
                eprintln!("perfbench: gateway stopped: {e}");
            }
        });
        wait_ready(handle.addr())?;
        Ok(Front { handle, join })
    }

    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    pub fn stop(self) {
        self.handle.shutdown();
        let _ = self.join.join();
    }
}

fn wait_ready(addr: SocketAddr) -> std::io::Result<()> {
    let api = client(addr);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match api.get("/v1/domains") {
            Ok(r) if r.status == 200 => return Ok(()),
            _ if Instant::now() > deadline => {
                return Err(std::io::Error::other(format!("{addr} never became ready")))
            }
            _ => std::thread::sleep(Duration::from_micros(200)),
        }
    }
}

pub fn client(addr: SocketAddr) -> Client {
    Client::new(addr).with_timeout(CLIENT_TIMEOUT)
}

// ------------------------------------------------------------ operations

/// Client-side timings of one cold job, all from the submit.
#[derive(Debug, Clone)]
pub struct ColdJob {
    pub spec_index: usize,
    pub domain: String,
    /// When the spec was submitted.
    pub start: Instant,
    pub id: String,
    pub accept_ms: f64,
    pub first_line_ms: f64,
    pub first_explanation_ms: Option<f64>,
    pub done_ms: f64,
    pub stream_bytes: usize,
    /// The streamed result. Set-up keeps every one (their findings are
    /// the bank the reads check against); load blocks keep only the
    /// first [`KEPT_RESULTS`] (the ones checked against in-process
    /// replays), so memory does not grow with throughput.
    pub result: Option<PipelineResult>,
}

/// Results kept per load block.
pub const KEPT_RESULTS: usize = 8;

/// Submit a fresh spec (expect `202`), stream its events to the
/// terminal line, and check that the session finished naturally.
pub fn cold_job(
    api: &Client,
    spec: &JobSpec,
    spec_index: usize,
    tracer: Option<&Tracer>,
) -> Result<ColdJob, Failure> {
    let t0 = Instant::now();
    let resp = api.post("/v1/jobs", &spec::body(spec)).map_err(op)?;
    if resp.status != 202 {
        return Err(Failure::Op(format!(
            "fresh {} spec #{spec_index}: status {} ({})",
            spec.domain, resp.status, resp.body
        )));
    }
    let accepted = Instant::now();
    let receipt = serde_json::parse(&resp.body).map_err(|e| op(format!("{e:?}")))?;
    let id = field(&receipt, "id")
        .and_then(Value::as_str)
        .ok_or_else(|| Failure::Mismatch(format!("receipt without id: {}", resp.body)))?
        .to_string();
    let (status, mut stream) = api.stream(&format!("/v1/jobs/{id}/events")).map_err(op)?;
    if status != 200 {
        return Err(Failure::Op(format!("events of {id}: status {status}")));
    }
    let mut first_line = None;
    let mut first_explanation = None;
    let mut bytes = 0;
    let mut finished = None;
    while let Some(line) = stream.next_line().map_err(op)? {
        bytes += line.len() + 1;
        first_line.get_or_insert_with(|| ms(t0));
        if line.contains("\"kind\":\"explanation_ready\"") {
            first_explanation.get_or_insert_with(|| ms(t0));
        }
        if line.contains("\"kind\":\"finished\"") {
            finished = Some(line);
        }
    }
    let done = Instant::now();
    let Some(line) = finished else {
        return Err(Failure::Mismatch(format!(
            "job {id} stream ended without a finished line"
        )));
    };
    let parsed: WatchLine = serde_json::from_str(&line)
        .map_err(|e| Failure::Mismatch(format!("job {id} terminal line: {e:?}")))?;
    let SessionEvent::Finished { reason, result } = parsed.event else {
        return Err(Failure::Mismatch(format!(
            "job {id} terminal line is not Finished"
        )));
    };
    if !reason.is_natural() {
        return Err(Failure::Mismatch(format!(
            "job {id} finished unnaturally: {reason:?}"
        )));
    }
    if let Some(t) = tracer {
        let job = t.open(&format!("job.{}", spec.domain), None, t0);
        t.record("http.submit", Some(job), t0, accepted);
        t.record("http.events", Some(job), accepted, done);
        t.close(job, done, None);
    }
    Ok(ColdJob {
        spec_index,
        domain: spec.domain.clone(),
        start: t0,
        id,
        accept_ms: accepted.duration_since(t0).as_secs_f64() * 1000.0,
        first_line_ms: first_line.unwrap_or(0.0),
        first_explanation_ms: first_explanation,
        done_ms: done.duration_since(t0).as_secs_f64() * 1000.0,
        stream_bytes: bytes,
        result: Some(result),
    })
}

/// Resubmit a finished spec: must answer `200` with `cache_hit: true`.
pub fn resubmit(api: &Client, spec: &JobSpec, tracer: Option<&Tracer>) -> Result<f64, Failure> {
    let t0 = Instant::now();
    let resp = api.post("/v1/jobs", &spec::body(spec)).map_err(op)?;
    let elapsed = ms(t0);
    if resp.status != 200 || !resp.body.contains("\"cache_hit\":true") {
        return Err(Failure::Mismatch(format!(
            "resubmit of a finished {} spec: status {} ({})",
            spec.domain, resp.status, resp.body
        )));
    }
    if let Some(t) = tracer {
        t.record("http.hit", None, t0, Instant::now());
    }
    Ok(elapsed)
}

/// `GET /v1/jobs/{id}` of a finished job: must report `done`.
pub fn status(api: &Client, id: &str, tracer: Option<&Tracer>) -> Result<f64, Failure> {
    let t0 = Instant::now();
    let resp = api.get(&format!("/v1/jobs/{id}")).map_err(op)?;
    let elapsed = ms(t0);
    if resp.status != 200 || !resp.body.contains("\"status\":\"done\"") {
        return Err(Failure::Mismatch(format!(
            "status of finished job {id}: {} ({})",
            resp.status,
            resp.body.chars().take(200).collect::<String>()
        )));
    }
    if let Some(t) = tracer {
        t.record("http.status", None, t0, Instant::now());
    }
    Ok(elapsed)
}

/// One `GET /v1/regressions` page: the bank holds at least `min_total`
/// records and the page carries exactly the records it should.
pub fn regressions(
    api: &Client,
    offset: usize,
    min_total: usize,
    tracer: Option<&Tracer>,
) -> Result<(f64, usize), Failure> {
    const LIMIT: usize = 50;
    let t0 = Instant::now();
    let resp = api
        .get(&format!("/v1/regressions?offset={offset}&limit={LIMIT}"))
        .map_err(op)?;
    let elapsed = ms(t0);
    if resp.status != 200 {
        return Err(Failure::Op(format!(
            "regressions page: status {}",
            resp.status
        )));
    }
    let page = serde_json::parse(&resp.body).map_err(|e| op(format!("{e:?}")))?;
    let total = field(&page, "total")
        .and_then(Value::as_f64)
        .unwrap_or(-1.0);
    let entries = field(&page, "entries")
        .and_then(Value::as_seq)
        .map_or(0, <[Value]>::len);
    let total = if total < 0.0 { 0 } else { total as usize };
    let expected = LIMIT.min(total.saturating_sub(offset));
    if total < min_total || entries != expected {
        return Err(Failure::Mismatch(format!(
            "regressions page at {offset}: total {total} (want >= {min_total}), {entries} entries (want {expected})"
        )));
    }
    if let Some(t) = tracer {
        t.record("http.regressions", None, t0, Instant::now());
    }
    Ok((elapsed, total))
}

/// `POST /v1/tune` (quick) streamed to its report, which must parse and
/// have scored at least one bank instance.
pub fn tune(api: &Client, domain: &str, tracer: Option<&Tracer>) -> Result<f64, Failure> {
    let t0 = Instant::now();
    let body = format!("{{\"domain\":\"{domain}\",\"quick\":true}}");
    let (status, _, mut stream) = api.stream_post("/v1/tune", &body).map_err(op)?;
    if status != 200 {
        return Err(Failure::Op(format!("tune {domain}: status {status}")));
    }
    let mut report = None;
    let mut generations = 0;
    while let Some(line) = stream.next_line().map_err(op)? {
        if line.starts_with("{\"generation\"") {
            generations += 1;
        } else {
            report = Some(line);
        }
    }
    let elapsed = ms(t0);
    let line = report.ok_or_else(|| Failure::Mismatch(format!("tune {domain}: no report")))?;
    let value = serde_json::parse(&line).map_err(|e| Failure::Mismatch(format!("{e:?}")))?;
    let report = field(&value, "report")
        .ok_or_else(|| Failure::Mismatch(format!("tune {domain}: not a report line")))?;
    let parsed: xplain_tune::TuneReport = serde::Deserialize::from_value(report)
        .map_err(|e| Failure::Mismatch(format!("tune {domain} report: {e:?}")))?;
    if parsed.domain != domain
        || parsed.bank_instances == 0
        || parsed.trajectory.len() != generations
    {
        return Err(Failure::Mismatch(format!(
            "tune {domain}: report for {} over {} instances, {} of {generations} generations",
            parsed.domain,
            parsed.bank_instances,
            parsed.trajectory.len()
        )));
    }
    if let Some(t) = tracer {
        t.record("http.tune", None, t0, Instant::now());
    }
    Ok(elapsed)
}

pub fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value.as_map().and_then(|m| serde::map_get(m, key))
}

/// Follow a path of map keys.
pub fn path<'a>(value: &'a Value, keys: &[&str]) -> Option<&'a Value> {
    keys.iter().try_fold(value, |v, k| field(v, k))
}

// ------------------------------------------------------------ load loops

/// Run cold jobs on `clients` closed-loop threads, taking the spec
/// indices of `indices` in order, until they run out or `deadline`
/// passes. Each finished job's spec is resubmitted once and must be a
/// cache hit. The jobs of the first `keep_results` indices keep their
/// streamed results. Returns the finished jobs in completion order.
pub fn closed_loop(
    addr: SocketAddr,
    specs: &Specs,
    indices: Range<usize>,
    deadline: Option<Instant>,
    keep_results: usize,
    clients: usize,
    tally: &Tally,
    tracer: Option<&Tracer>,
) -> Vec<ColdJob> {
    let first = indices.start;
    let next = AtomicUsize::new(first);
    let done = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                let api = client(addr);
                loop {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= indices.end {
                        break;
                    }
                    let spec = specs.get(i);
                    if let Some(mut job) = tally.check(cold_job(&api, &spec, i, tracer)) {
                        tally.check(resubmit(&api, &spec, tracer));
                        if i - first >= keep_results {
                            job.result = None;
                        }
                        done.lock().expect("job log").push(job);
                    }
                }
            });
        }
    });
    done.into_inner().expect("job log")
}

/// Bytes in the store's committed result entries, and their count.
pub fn store_entry_bytes(store: &Path) -> (u64, usize) {
    let mut bytes = 0;
    let mut count = 0;
    if let Ok(dir) = std::fs::read_dir(store) {
        for entry in dir.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".json") && !name.starts_with('.') {
                if let Ok(meta) = entry.metadata() {
                    bytes += meta.len();
                    count += 1;
                }
            }
        }
    }
    (bytes, count)
}

/// Where runs keep their state, inside the working directory; RAM-backed
/// when [`crate::sys::mount_ram`] takes.
pub const WORK_ROOT: &str = ".perfbench-work";

/// Where the traced run keeps the store it serves from the real disk.
pub const DISK_ROOT: &str = ".perfbench-disk";

/// A directory for this run's state under `root`.
pub fn work_dir(root: &str, workload: &str) -> PathBuf {
    PathBuf::from(root).join(format!("{workload}-{}", std::process::id()))
}
