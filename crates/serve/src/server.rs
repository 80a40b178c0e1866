//! The shard server: the route handlers that bind the wire protocol to
//! the runtime's [`JobQueue`], behind the [`front`](crate::front) it
//! shares with the mesh gateway.
//!
//! Threading model (all scoped — the server owns no detached threads):
//!
//! * the caller's thread runs the front's blocking accept loop;
//! * `http_threads` connection handlers pull accepted sockets off an
//!   mpsc channel; each connection is one request (`Connection: close`);
//! * `queue_workers` session workers drain the shared [`JobQueue`] —
//!   the same engine the batch runner drives, so a job served over HTTP
//!   is byte-identical to the same job run from a manifest.
//!
//! Graceful shutdown ([`ServerHandle::shutdown`] or `POST /v1/shutdown`):
//! the accept loop stops, the queue cancels queued jobs and fires every
//! running session's cancel token, sessions persist checkpoints through
//! the store's `.ckpt` path at their next event boundary and emit their
//! terminal event (so live event streams end cleanly), then workers and
//! connection handlers are joined and [`Server::run`] returns. A
//! resubmit of an interrupted spec — to this or a future server over the
//! same store — resumes mid-loop.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Serialize;
use xplain_runtime::{
    BankRecord, DomainRegistry, JobJournal, JobOutcome, JobPhase, JobQueue, JobSpec, QueueFull,
    QueueOptions, RegressionBank, ResultStore, SolverCounters, TenantRegistry,
};
use xplain_tune::{generation_line, report_line, tune_with, TuneOptions};

use crate::admission::AdmissionPolicy;
use crate::front::{unattributed, Front, FrontHandle, Service};
use crate::http::{finish_chunked, start_chunked, write_line, Request, Response};
use crate::metrics::ServerMetrics;
use crate::router::Route;

/// Server tunables. `Default` suits a laptop smoke run; production picks
/// explicit numbers.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (tests, perfbench).
    pub addr: String,
    /// Session workers draining the job queue (0 = auto: available
    /// parallelism capped at 8).
    pub queue_workers: usize,
    /// Connection handler threads. A streaming subscriber occupies one
    /// for the life of its job, so size this above the expected number
    /// of concurrent watchers.
    pub http_threads: usize,
    /// Maximum *waiting* jobs before submissions get 429
    /// ([`AdmissionPolicy`] sets the `Retry-After`).
    pub capacity: usize,
    /// Content-addressed store directory. `None` disables result
    /// caching, dedup-against-disk, and checkpoint/resume.
    pub store_dir: Option<PathBuf>,
    /// Write-ahead job journal: accepted jobs are durable before the
    /// `202` goes out, and a restarted server over the same store
    /// re-enqueues whatever a crashed predecessor accepted but never
    /// finished. On by default; requires a store (no store, no journal).
    pub journal: bool,
    /// Journal directory override. `None` (the default) puts it at
    /// `<store_dir>/journal`, or `<store_dir>/journal-<shard_id>` when a
    /// shard id is set — mesh shards share the content-addressed store,
    /// but each must journal its own accepted jobs separately.
    pub journal_dir: Option<PathBuf>,
    /// Time budget for reading one whole request (head and body); a
    /// client that runs it out gets 408.
    pub read_timeout: Duration,
    /// Completed jobs kept in memory (outcome + event log) before the
    /// oldest are evicted — bounds a long-lived server's footprint.
    /// Evicted ids read as unknown; resubmits hit the store instead.
    pub retain_done: usize,
    /// Mesh identity: stamped into store entries this server commits
    /// (ownership metadata) and echoed in the metrics mesh block. `None`
    /// for a standalone server.
    pub shard_id: Option<String>,
    /// Minimum per-worker service time (ms) for freshly executed jobs —
    /// per-worker rate limiting / overload protection
    /// ([`xplain_runtime::QueueOptions::pace_ms`]). `0` disables.
    pub pace_ms: u64,
    /// Shared mesh gauges (`GET /v1/metrics` reports them). The mesh
    /// layer creates this and keeps updating it from the membership
    /// heartbeat and steal loop.
    pub mesh: Option<Arc<crate::metrics::MeshStatus>>,
    /// Tenant registry config (JSON; see DESIGN.md §12). `None` runs the
    /// server in open mode: no auth, one anonymous queue lane,
    /// byte-for-byte the pre-tenancy wire format. `Some` turns on
    /// `Authorization: Bearer` enforcement on submission routes,
    /// weighted fair-share dispatch, per-tenant quotas, and the
    /// `tenants` metrics block.
    pub tenants: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7070".into(),
            queue_workers: 0,
            http_threads: 8,
            capacity: 64,
            store_dir: None,
            journal: true,
            journal_dir: None,
            read_timeout: Duration::from_secs(5),
            retain_done: 1024,
            shard_id: None,
            pace_ms: 0,
            mesh: None,
            tenants: None,
        }
    }
}

fn auto_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

/// A bound-but-not-yet-running server.
pub struct Server {
    front: Front,
    config: ServerConfig,
}

/// Remote control for a running [`Server`] (cloneable, thread-safe).
pub type ServerHandle = FrontHandle;

impl Server {
    /// Bind the listening socket (fails fast on bad addresses — before
    /// any threads exist).
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        Ok(Server {
            front: Front::bind(&config.addr)?,
            config,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    pub fn handle(&self) -> ServerHandle {
        self.front.handle()
    }

    /// Serve until shutdown is requested, then drain gracefully. Blocks
    /// the calling thread (spawn it if you need the handle elsewhere —
    /// the e2e tests and perfbench do exactly that).
    pub fn run(self, registry: &DomainRegistry) -> io::Result<()> {
        // Load the tenant registry first: a malformed config is a
        // startup error (serving with the wrong quota table is worse
        // than refusing to start). No config → open mode.
        let tenants = match &self.config.tenants {
            Some(path) => TenantRegistry::load(path)?,
            None => TenantRegistry::open(),
        };
        let store = self.config.store_dir.as_ref().map(ResultStore::new);
        // Open (and replay) the write-ahead journal before anything else
        // can accept work: recovery must observe the dead predecessor's
        // state, not this server's. Failing to open is a startup error —
        // silently serving without the durability the operator asked for
        // is worse than refusing to start.
        let journal = match (&store, self.config.journal) {
            (Some(store), true) => {
                let dir = self.config.journal_dir.clone().unwrap_or_else(|| {
                    store.dir().join(match &self.config.shard_id {
                        Some(id) => format!("journal-{id}"),
                        None => "journal".to_string(),
                    })
                });
                Some(JobJournal::open(dir)?)
            }
            _ => None,
        };
        let queue = JobQueue::new(
            registry,
            store.as_ref(),
            QueueOptions {
                capacity: self.config.capacity,
                retain_done: self.config.retain_done,
                pace_ms: self.config.pace_ms,
            },
        )
        .with_origin(self.config.shard_id.clone())
        .with_journal(journal.as_ref())
        .with_tenants(Some(&tenants));
        // Re-enqueue everything a crashed predecessor accepted but never
        // finished — before workers spawn, so recovered jobs sit at the
        // head of the line in their original order.
        queue.recover();
        let metrics = ServerMetrics::new();
        let queue_workers = auto_workers(self.config.queue_workers);
        let ctx = Ctx {
            registry,
            queue: &queue,
            store: store.as_ref(),
            journal: journal.as_ref(),
            metrics: &metrics,
            policy: AdmissionPolicy::default(),
            front: self.front.handle(),
            queue_workers,
            capacity: self.config.capacity,
            mesh: self.config.mesh.clone(),
            tenants: &tenants,
        };

        std::thread::scope(|scope| {
            for _ in 0..queue_workers {
                scope.spawn(|| queue.serve_worker());
            }
            self.front.serve(
                scope,
                &ctx,
                self.config.http_threads,
                self.config.read_timeout,
            );
            // Graceful drain: no new connections; cancel queued and
            // running jobs (sessions checkpoint + emit terminal events,
            // ending live streams); workers and handlers then exit.
            queue.shutdown();
        });
        Ok(())
    }
}

/// Borrowed context shared by every connection handler.
struct Ctx<'a> {
    registry: &'a DomainRegistry,
    queue: &'a JobQueue<'a>,
    store: Option<&'a ResultStore>,
    journal: Option<&'a JobJournal>,
    metrics: &'a ServerMetrics,
    policy: AdmissionPolicy,
    front: FrontHandle,
    queue_workers: usize,
    capacity: usize,
    mesh: Option<Arc<crate::metrics::MeshStatus>>,
    tenants: &'a TenantRegistry,
}

impl Service for Ctx<'_> {
    fn tenants(&self) -> &TenantRegistry {
        self.tenants
    }

    fn serve(
        &self,
        stream: &mut TcpStream,
        route: Route,
        request: &Request,
        tenant: Option<&str>,
        read_done: Instant,
    ) {
        let tag = route.tag();
        let response = match route {
            Route::SubmitJob => Some(submit_job(self, request, tenant)),
            Route::JobStatus(id) => Some(job_status(self, &id)),
            Route::JobEvents(id) => handle_events(stream, self, &id),
            Route::CancelJob(id) => Some(cancel_job(self, &id)),
            Route::Domains => Some(domains(self)),
            Route::QueueInfo => Some(queue_info(self)),
            Route::Steal => Some(steal(self, request)),
            Route::Metrics => Some(metrics(self)),
            Route::Regressions => Some(regressions(self, request)),
            Route::Tune => handle_tune(stream, self, request, tenant),
            Route::Shutdown => Some(self.front.shutdown_response()),
        };
        if let Some(response) = response {
            let _ = response.write_to(stream);
        }
        self.metrics
            .observe(tag, read_done.elapsed().as_secs_f64() * 1000.0);
    }
}

// ------------------------------------------------------------- responses

/// `POST /v1/jobs` receipt.
#[derive(Debug, Serialize)]
struct SubmitBody {
    id: String,
    /// `queued` / `running` / `done`.
    status: String,
    /// How the dedup resolved: `cache_hit`, `in_flight`, `enqueued`,
    /// `resumed`.
    disposition: String,
    cache_hit: bool,
}

/// `GET /v1/jobs/{id}` body.
#[derive(Debug, Serialize)]
struct StatusBody {
    id: String,
    domain: String,
    status: String,
    /// Events retained for streaming so far.
    events: usize,
    /// This execution was re-enqueued from the write-ahead journal at
    /// startup — accepted by a previous server process over the same
    /// store that died before finishing it.
    recovered: bool,
    /// Present once `status == "done"`.
    outcome: Option<JobOutcome>,
}

#[derive(Debug, Serialize)]
struct CancelBody {
    id: String,
    /// Phase the job was in when the cancel landed.
    was: String,
    /// Whether the cancel can still affect the job (false once done).
    cancelled: bool,
}

#[derive(Debug, Serialize)]
struct DomainBody {
    id: String,
    description: String,
}

/// `GET /v1/queue` body: the waiting line, as a peer deciding whether
/// to steal sees it.
#[derive(Debug, Serialize)]
struct QueueInfoBody {
    /// Jobs waiting for a worker.
    depth: usize,
    /// Sessions executing right now.
    active: usize,
    /// Waiting jobs not yet offered to any peer.
    stealable: usize,
    pending: Vec<PendingJobBody>,
}

/// One waiting job in the `GET /v1/queue` listing. `Serialize` is hand
/// written so the `tenant` key only appears for attributed jobs — in
/// open mode every job is anonymous and the wire format stays
/// byte-identical to the pre-tenancy surface.
#[derive(Debug)]
struct PendingJobBody {
    id: String,
    domain: String,
    donated: bool,
    tenant: Option<String>,
}

impl Serialize for PendingJobBody {
    fn to_value(&self) -> serde::Value {
        let mut map: Vec<(String, serde::Value)> = vec![
            ("id".into(), self.id.to_value()),
            ("domain".into(), self.domain.to_value()),
            ("donated".into(), self.donated.to_value()),
        ];
        if let Some(tenant) = &self.tenant {
            map.push(("tenant".into(), tenant.to_value()));
        }
        serde::Value::Map(map)
    }
}

/// `POST /v1/queue/steal` request body.
#[derive(Debug, serde::Deserialize)]
struct StealRequest {
    /// Maximum jobs to donate.
    max: usize,
}

/// `POST /v1/queue/steal` response: the donated specs, ready for the
/// thief to resubmit verbatim (content keys are identical on both
/// sides, so the ids and store entries line up).
#[derive(Debug, Serialize)]
struct StealBody {
    jobs: Vec<JobSpec>,
}

fn submit_job(ctx: &Ctx<'_>, request: &Request, tenant: Option<&str>) -> Response {
    if let Some(denied) = unattributed(ctx.tenants, tenant) {
        return denied;
    }
    let body = match request.body_str() {
        Ok(b) => b,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let spec: JobSpec = match serde_json::from_str(body) {
        Ok(s) => s,
        Err(e) => return Response::error(400, &format!("malformed JobSpec: {e:?}")),
    };
    if let Err(e) = spec.check_sizes() {
        return Response::error(400, &e.to_string());
    }
    if ctx.registry.get(&spec.domain).is_none() {
        return Response::error(
            400,
            &format!(
                "unknown domain id '{}' (GET /v1/domains lists them)",
                spec.domain
            ),
        );
    }
    match ctx.queue.submit_deduped(spec, tenant) {
        Ok(sub) => {
            let cache_hit = sub.disposition == xplain_runtime::Disposition::CacheHit;
            let status = if cache_hit { 200 } else { 202 };
            Response::json(
                status,
                serde_json::to_string(&SubmitBody {
                    id: sub.id,
                    status: sub.phase.as_str().to_string(),
                    disposition: sub.disposition.as_str().to_string(),
                    cache_hit,
                })
                .expect("body serializes"),
            )
        }
        Err(full) => {
            let retry = ctx.policy.retry_after_secs(&full, ctx.queue_workers);
            Response::error(429, &full.to_string()).with_header("Retry-After", &retry.to_string())
        }
    }
}

fn job_status(ctx: &Ctx<'_>, id: &str) -> Response {
    let Some(view) = JobQueue::parse_id(id).and_then(|key| ctx.queue.poll(key)) else {
        return Response::error(404, &format!("no job '{id}'"));
    };
    Response::json(
        200,
        serde_json::to_string(&StatusBody {
            id: view.id,
            domain: view.domain,
            status: view.phase.as_str().to_string(),
            events: view.events_logged,
            recovered: view.recovered,
            outcome: view.outcome,
        })
        .expect("body serializes"),
    )
}

fn cancel_job(ctx: &Ctx<'_>, id: &str) -> Response {
    let Some(phase) = JobQueue::parse_id(id).and_then(|key| ctx.queue.cancel(key)) else {
        return Response::error(404, &format!("no job '{id}'"));
    };
    Response::json(
        200,
        serde_json::to_string(&CancelBody {
            id: id.to_string(),
            was: phase.as_str().to_string(),
            cancelled: phase != JobPhase::Done,
        })
        .expect("body serializes"),
    )
}

fn domains(ctx: &Ctx<'_>) -> Response {
    let list: Vec<DomainBody> = ctx
        .registry
        .ids()
        .into_iter()
        .map(|id| {
            let description = ctx
                .registry
                .get(&id)
                .map(|d| d.description())
                .unwrap_or_default();
            DomainBody { id, description }
        })
        .collect();
    Response::json(200, serde_json::to_string(&list).expect("body serializes"))
}

fn queue_info(ctx: &Ctx<'_>) -> Response {
    let pending: Vec<PendingJobBody> = ctx
        .queue
        .pending_jobs()
        .into_iter()
        .map(|p| PendingJobBody {
            id: p.id,
            domain: p.domain,
            donated: p.donated,
            tenant: p.tenant,
        })
        .collect();
    Response::json(
        200,
        serde_json::to_string(&QueueInfoBody {
            depth: pending.len(),
            active: ctx.queue.active(),
            stealable: ctx.queue.stealable(),
            pending,
        })
        .expect("body serializes"),
    )
}

fn steal(ctx: &Ctx<'_>, request: &Request) -> Response {
    let body = match request.body_str() {
        Ok(b) => b,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let req: StealRequest = match serde_json::from_str(body) {
        Ok(r) => r,
        Err(e) => return Response::error(400, &format!("malformed steal request: {e:?}")),
    };
    let jobs = ctx.queue.donate(req.max);
    Response::json(
        200,
        serde_json::to_string(&StealBody { jobs }).expect("body serializes"),
    )
}

fn metrics(ctx: &Ctx<'_>) -> Response {
    let tenants = ctx.tenants.enforcing().then(|| ctx.queue.tenant_counters());
    let report = ctx.metrics.report(
        ctx.queue,
        ctx.store,
        ctx.mesh.as_deref(),
        ctx.journal,
        tenants,
    );
    Response::json(
        200,
        serde_json::to_string(&report).expect("body serializes"),
    )
}

/// `GET /v1/regressions` body: one page of the bank, in content-key
/// order (stable across calls — the bank is append-only).
#[derive(Debug, Serialize)]
struct RegressionsBody {
    /// Bank size (not the page size).
    total: usize,
    offset: usize,
    entries: Vec<RegressionEntryBody>,
}

#[derive(Debug, Serialize)]
struct RegressionEntryBody {
    id: String,
    domain: String,
    gap: f64,
    instance: Vec<f64>,
    job_key: String,
    session_seed: u64,
}

/// One `key=value` query parameter as usize, or a 400.
fn usize_param(request: &Request, key: &str, default: usize) -> Result<usize, Box<Response>> {
    match request.query_param(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| {
            Box::new(Response::error(
                400,
                &format!("query parameter '{key}' must be a non-negative integer, got '{v}'"),
            ))
        }),
    }
}

fn regressions(ctx: &Ctx<'_>, request: &Request) -> Response {
    let Some(store) = ctx.store else {
        return Response::error(404, "server runs storeless; no regression bank");
    };
    let offset = match usize_param(request, "offset", 0) {
        Ok(v) => v,
        Err(r) => return *r,
    };
    let limit = match usize_param(request, "limit", 50) {
        Ok(v) => v,
        Err(r) => return *r,
    };
    let all = store.bank().records();
    let total = all.len();
    let entries: Vec<RegressionEntryBody> = all
        .iter()
        .skip(offset)
        .take(limit)
        .map(|(key, r)| RegressionEntryBody {
            id: RegressionBank::format_id(*key),
            domain: r.domain.clone(),
            gap: r.gap,
            instance: r.instance.clone(),
            job_key: r.job_key.clone(),
            session_seed: r.session_seed,
        })
        .collect();
    Response::json(
        200,
        serde_json::to_string(&RegressionsBody {
            total,
            offset,
            entries,
        })
        .expect("body serializes"),
    )
}

/// `POST /v1/tune` request body. Absent knobs take [`TuneOptions`]
/// defaults (or the quick preset when `"quick": true`).
#[derive(Debug, serde::Deserialize)]
struct TuneRequestBody {
    domain: String,
    #[serde(default)]
    quick: bool,
    #[serde(default)]
    generations: Option<usize>,
    #[serde(default)]
    population: Option<usize>,
    #[serde(default)]
    seed: Option<u64>,
    #[serde(default)]
    workers: Option<usize>,
}

/// `POST /v1/tune`: run the repair loop on this connection's thread,
/// streaming chunked NDJSON — one `{"generation":{...}}` line per
/// generation, then a terminal `{"report":{...}}` line. The lines are
/// byte-identical to `runner tune --watch` for the same bank, options,
/// and seed. Returns the answer to write when no stream started.
///
/// Tuning is real work, so it is admission-checked like job
/// submissions: while the session queue is saturated the server answers
/// 429 with the policy's `Retry-After` instead of piling tuning runs on
/// top of a full box.
fn handle_tune(
    stream: &mut TcpStream,
    ctx: &Ctx<'_>,
    request: &Request,
    tenant: Option<&str>,
) -> Option<Response> {
    if let Some(denied) = unattributed(ctx.tenants, tenant) {
        return Some(denied);
    }
    let Some(store) = ctx.store else {
        return Some(Response::error(
            404,
            "server runs storeless; no regression bank to tune against",
        ));
    };
    let body = match request.body_str() {
        Ok(b) => b,
        Err(e) => return Some(Response::error(400, &e.to_string())),
    };
    let req: TuneRequestBody = match serde_json::from_str(body) {
        Ok(r) => r,
        Err(e) => {
            return Some(Response::error(
                400,
                &format!("malformed tune request: {e:?}"),
            ))
        }
    };
    let Some(domain) = ctx.registry.get(&req.domain) else {
        return Some(Response::error(
            400,
            &format!(
                "unknown domain id '{}' (GET /v1/domains lists them)",
                req.domain
            ),
        ));
    };
    let depth = ctx.queue.depth();
    if depth >= ctx.capacity {
        let retry = ctx.policy.retry_after_secs(
            &QueueFull {
                depth,
                capacity: ctx.capacity,
                tenant: None,
            },
            ctx.queue_workers,
        );
        return Some(
            Response::error(429, "session queue is saturated; retry tuning later")
                .with_header("Retry-After", &retry.to_string()),
        );
    }

    let opts = TuneOptions::resolve(
        req.quick,
        req.generations,
        req.population,
        req.seed,
        req.workers,
    );

    // Only this domain's records are copied out of the shared index;
    // `tune_with` ignores every other domain's anyway.
    let records: Vec<(u64, BankRecord)> = store
        .bank()
        .records()
        .into_iter()
        .filter(|(_, r)| r.domain == domain.id())
        .map(|(key, r)| (key, BankRecord::clone(&r)))
        .collect();
    // The chunked 200 head goes out lazily, right before the first
    // generation line — so pre-stream failures (untunable domain, empty
    // corpus) still get a proper JSON error status.
    let mut streaming = false;
    let mut broken = false;
    let solver_before = SolverCounters::snapshot();
    let result = tune_with(domain, &records, &opts, |stat| {
        if broken {
            return;
        }
        if !streaming {
            if start_chunked(stream, 200, "application/x-ndjson").is_err() {
                broken = true;
                return;
            }
            streaming = true;
        }
        if write_line(stream, &generation_line(stat)).is_err() {
            broken = true;
        }
    });
    ctx.metrics
        .add_tune_solver(&SolverCounters::snapshot().since(&solver_before));
    match result {
        // Streaming already started: the client sees truncation.
        Err(e) => (!streaming).then(|| Response::error(400, &e.to_string())),
        Ok(report) => {
            // `broken`: the subscriber went away mid-run.
            if streaming && !broken && write_line(stream, &report_line(&report)).is_ok() {
                let _ = finish_chunked(stream);
            }
            None
        }
    }
}

/// `GET /v1/jobs/{id}/events`: chunked NDJSON, one watch line per
/// session event, tailed live until the job's stream completes. The
/// lines are byte-identical to `runner --watch` output for the same job
/// (both serialize through `xplain_runtime::watch_line`). Returns the
/// answer to write when no stream started.
fn handle_events(stream: &mut TcpStream, ctx: &Ctx<'_>, id: &str) -> Option<Response> {
    let Some(slot) = JobQueue::parse_id(id).and_then(|key| ctx.queue.resolve(key)) else {
        return Some(Response::error(404, &format!("no job '{id}'")));
    };
    if start_chunked(stream, 200, "application/x-ndjson").is_err() {
        return None;
    }
    let mut offset = 0usize;
    loop {
        let Some(chunk) = ctx
            .queue
            .wait_events(slot, offset, Duration::from_millis(250))
        else {
            // The slot was evicted (retain_done pressure) while we were
            // replaying it. Abort WITHOUT the chunked terminator: the
            // client sees transport-level truncation — an error — never
            // a well-formed stream that silently lost its tail.
            return None;
        };
        for line in &chunk.lines {
            if write_line(stream, line).is_err() {
                return None; // subscriber went away; the job keeps running
            }
        }
        offset += chunk.lines.len();
        if chunk.done {
            break;
        }
    }
    let _ = finish_chunked(stream);
    None
}
