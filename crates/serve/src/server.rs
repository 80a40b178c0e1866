//! The HTTP server: accept loop, connection thread pool, and the route
//! handlers that bind the wire protocol to the runtime's [`JobQueue`].
//!
//! Threading model (all scoped — the server owns no detached threads):
//!
//! * the caller's thread runs the accept loop (non-blocking accept with
//!   a short poll so shutdown is observed promptly);
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
//! terminal event (so live event streams end cleanly), workers drain,
//! and [`Server::run`] returns. A resubmit of an interrupted spec — to
//! this or a future server over the same store — resumes mid-loop.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::Serialize;
use xplain_runtime::{
    BankRecord, DomainRegistry, JobJournal, JobOutcome, JobPhase, JobQueue, JobSpec, QueueFull,
    QueueOptions, RegressionBank, ResultStore, TenantRegistry,
};
use xplain_tune::{generation_line, report_line, tune_with, TuneOptions};

use crate::admission::AdmissionPolicy;
use crate::http::{
    finish_chunked, read_request, start_chunked, write_chunk, HttpError, Request, Response,
};
use crate::metrics::ServerMetrics;
use crate::router::{route, Route, RouteError};

/// Server tunables. `Default` suits a laptop smoke run; production picks
/// explicit numbers.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (tests, benches).
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
    /// Per-connection read timeout.
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
    listener: TcpListener,
    config: ServerConfig,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

/// Remote control for a running [`Server`] (cloneable, thread-safe).
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        request_shutdown(&self.shutdown, self.addr);
    }
}

/// Flag shutdown and poke the accept loop awake: the listener blocks in
/// `accept` (zero added latency on real connections — an earlier polling
/// accept put a sleep on every request's critical path), so shutdown
/// opens one throwaway loopback connection to unblock it.
///
/// The poke is only load-bearing when the listener is *idle*: if the
/// accept backlog has pending connections, `accept` returns on its own
/// and the loop observes the flag — and an idle listener accepts the
/// poke immediately. A couple of retries cover transient connect
/// failures; past that, the next real connection ends the loop.
fn request_shutdown(flag: &AtomicBool, addr: SocketAddr) {
    flag.store(true, Ordering::Relaxed);
    for timeout_ms in [200, 1000] {
        if TcpStream::connect_timeout(&addr, Duration::from_millis(timeout_ms)).is_ok() {
            break;
        }
    }
}

impl Server {
    /// Bind the listening socket (fails fast on bad addresses — before
    /// any threads exist).
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Server {
            listener,
            config,
            local_addr,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.local_addr,
            shutdown: Arc::clone(&self.shutdown),
        }
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
                // Cancelled/interrupted sessions must leave resumable
                // checkpoints — the serving contract — so resume mode is
                // on whenever there is somewhere to persist them.
                resume: store.is_some(),
                budgets_override: None,
                record_events: true,
                retain_done: self.config.retain_done,
                pace_ms: self.config.pace_ms,
            },
            None,
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
            shutdown: &self.shutdown,
            addr: self.local_addr,
            queue_workers,
            capacity: self.config.capacity,
            read_timeout: self.config.read_timeout,
            mesh: self.config.mesh.clone(),
            tenants: &tenants,
        };

        let (conn_tx, conn_rx) = mpsc::channel::<TcpStream>();
        let conn_rx = Mutex::new(conn_rx);

        std::thread::scope(|scope| {
            for _ in 0..queue_workers {
                scope.spawn(|| queue.serve_worker());
            }
            for _ in 0..self.config.http_threads.max(1) {
                scope.spawn(|| loop {
                    let next = conn_rx
                        .lock()
                        .expect("connection channel")
                        .recv_timeout(Duration::from_millis(100));
                    match next {
                        Ok(stream) => handle_connection(stream, &ctx),
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                });
            }
            // Accept loop — this thread. Blocking accept keeps new
            // connections off a poll-sleep; `request_shutdown` unblocks
            // it with a throwaway connection.
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if self.shutdown.load(Ordering::Relaxed) {
                            break; // likely the shutdown poke itself
                        }
                        let _ = conn_tx.send(stream);
                    }
                    Err(_) => {
                        if self.shutdown.load(Ordering::Relaxed) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            }
            // Graceful drain: no new connections; cancel queued and
            // running jobs (sessions checkpoint + emit terminal events,
            // ending live streams); workers and handlers then exit.
            drop(conn_tx);
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
    shutdown: &'a AtomicBool,
    addr: SocketAddr,
    queue_workers: usize,
    capacity: usize,
    read_timeout: Duration,
    mesh: Option<Arc<crate::metrics::MeshStatus>>,
    tenants: &'a TenantRegistry,
}

/// Resolve the caller's tenant identity, or the error response that ends
/// the request.
///
/// Open mode: every request is the anonymous tenant (`Ok(None)`), headers
/// ignored. Enforcing mode:
///
/// * `Authorization: Bearer <key>` — authenticated against the registry's
///   FNV-hashed key table; unknown keys are 403 on every route.
/// * `X-Xplain-Tenant: <id>` — trusted forwarding from a mesh gateway
///   that already authenticated the bearer at the edge (shards sit on a
///   private network behind it; see DESIGN.md §12's trust model).
///   Unknown ids are 403.
/// * Neither header → `Ok(None)`. Routes that *attribute* work (submit,
///   tune) then answer 401; read/ops routes stay open so liveness
///   probes, mesh heartbeats, and work stealing keep working.
fn authenticate(ctx: &Ctx<'_>, request: &Request) -> Result<Option<String>, Box<Response>> {
    if !ctx.tenants.enforcing() {
        return Ok(None);
    }
    if let Some(value) = request.header("authorization") {
        let key = match value.split_once(' ') {
            Some((scheme, rest)) if scheme.eq_ignore_ascii_case("bearer") => rest.trim(),
            _ => {
                return Err(Box::new(Response::error(
                    401,
                    "malformed Authorization header (expected 'Bearer <api-key>')",
                )))
            }
        };
        return match ctx.tenants.authenticate(key) {
            Some(tenant) => Ok(Some(tenant.id.clone())),
            None => Err(Box::new(Response::error(403, "unknown API key"))),
        };
    }
    if let Some(id) = request.header("x-xplain-tenant") {
        return match ctx.tenants.lookup(id) {
            Some(tenant) => Ok(Some(tenant.id.clone())),
            None => Err(Box::new(Response::error(
                403,
                &format!("unknown tenant id '{id}'"),
            ))),
        };
    }
    Ok(None)
}

fn handle_connection(mut stream: TcpStream, ctx: &Ctx<'_>) {
    let _ = stream.set_read_timeout(Some(ctx.read_timeout));
    let _ = stream.set_nodelay(true);
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(HttpError::Closed) => return,
        Err(HttpError::TooLarge) => {
            let _ = Response::error(413, "request exceeds size caps").write_to(&mut stream);
            return;
        }
        Err(HttpError::BadRequest(m)) => {
            let _ = Response::error(400, &m).write_to(&mut stream);
            return;
        }
        Err(HttpError::Io(_)) => {
            let _ = Response::error(408, "timed out reading request").write_to(&mut stream);
            return;
        }
    };
    let started = Instant::now();
    let tenant = match authenticate(ctx, &request) {
        Ok(t) => t,
        Err(response) => {
            let _ = response.write_to(&mut stream);
            return;
        }
    };
    match route(&request.method, &request.path) {
        Ok(Route::JobEvents(id)) => {
            let tag = Route::JobEvents(String::new()).tag();
            handle_events(&mut stream, ctx, &id);
            ctx.metrics
                .observe(tag, started.elapsed().as_secs_f64() * 1000.0);
        }
        Ok(Route::Tune) => {
            let tag = Route::Tune.tag();
            handle_tune(&mut stream, ctx, &request, tenant.as_deref());
            ctx.metrics
                .observe(tag, started.elapsed().as_secs_f64() * 1000.0);
        }
        Ok(r) => {
            let tag = r.tag();
            let response = dispatch(ctx, r, &request, tenant.as_deref());
            let _ = response.write_to(&mut stream);
            ctx.metrics
                .observe(tag, started.elapsed().as_secs_f64() * 1000.0);
        }
        Err(RouteError::NotFound) => {
            let _ = Response::error(404, "no such resource").write_to(&mut stream);
        }
        Err(RouteError::MethodNotAllowed { allowed }) => {
            let _ = Response::error(405, "method not allowed")
                .with_header("Allow", allowed)
                .write_to(&mut stream);
        }
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

#[derive(Debug, Serialize)]
struct ShutdownBody {
    shutting_down: bool,
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

fn dispatch(ctx: &Ctx<'_>, route: Route, request: &Request, tenant: Option<&str>) -> Response {
    match route {
        Route::SubmitJob => submit_job(ctx, request, tenant),
        Route::JobStatus(id) => job_status(ctx, &id),
        Route::CancelJob(id) => cancel_job(ctx, &id),
        Route::Domains => domains(ctx),
        Route::QueueInfo => queue_info(ctx),
        Route::Steal => steal(ctx, request),
        Route::Metrics => metrics(ctx),
        Route::Regressions => regressions(ctx, request),
        Route::Shutdown => {
            request_shutdown(ctx.shutdown, ctx.addr);
            Response::json(
                200,
                serde_json::to_string(&ShutdownBody {
                    shutting_down: true,
                })
                .expect("body serializes"),
            )
        }
        // Streamed separately in `handle_connection`.
        Route::JobEvents(_) => Response::error(500, "events route must stream"),
        Route::Tune => Response::error(500, "tune route must stream"),
    }
}

fn submit_job(ctx: &Ctx<'_>, request: &Request, tenant: Option<&str>) -> Response {
    if ctx.tenants.enforcing() && tenant.is_none() {
        return Response::error(
            401,
            "missing API key (send 'Authorization: Bearer <api-key>')",
        );
    }
    let body = match request.body_str() {
        Ok(b) => b,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let spec: JobSpec = match serde_json::from_str(body) {
        Ok(s) => s,
        Err(e) => return Response::error(400, &format!("malformed JobSpec: {e:?}")),
    };
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
            // `phase`, not `poll`: the hot cache-hit route must not
            // deep-clone a full outcome just to read one word.
            let phase = ctx.queue.phase(sub.key).unwrap_or(JobPhase::Queued);
            let cache_hit = sub.disposition == xplain_runtime::Disposition::CacheHit;
            let status = if cache_hit { 200 } else { 202 };
            Response::json(
                status,
                serde_json::to_string(&SubmitBody {
                    id: sub.id,
                    status: phase.as_str().to_string(),
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
/// and seed.
///
/// Tuning is real work, so it is admission-checked like job
/// submissions: while the session queue is saturated the server answers
/// 429 with the policy's `Retry-After` instead of piling tuning runs on
/// top of a full box.
fn handle_tune(stream: &mut TcpStream, ctx: &Ctx<'_>, request: &Request, tenant: Option<&str>) {
    if ctx.tenants.enforcing() && tenant.is_none() {
        let _ = Response::error(
            401,
            "missing API key (send 'Authorization: Bearer <api-key>')",
        )
        .write_to(stream);
        return;
    }
    let Some(store) = ctx.store else {
        let _ = Response::error(
            404,
            "server runs storeless; no regression bank to tune against",
        )
        .write_to(stream);
        return;
    };
    let body = match request.body_str() {
        Ok(b) => b,
        Err(e) => {
            let _ = Response::error(400, &e.to_string()).write_to(stream);
            return;
        }
    };
    let req: TuneRequestBody = match serde_json::from_str(body) {
        Ok(r) => r,
        Err(e) => {
            let _ =
                Response::error(400, &format!("malformed tune request: {e:?}")).write_to(stream);
            return;
        }
    };
    let Some(domain) = ctx.registry.get(&req.domain) else {
        let _ = Response::error(
            400,
            &format!(
                "unknown domain id '{}' (GET /v1/domains lists them)",
                req.domain
            ),
        )
        .write_to(stream);
        return;
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
        let _ = Response::error(429, "session queue is saturated; retry tuning later")
            .with_header("Retry-After", &retry.to_string())
            .write_to(stream);
        return;
    }

    let mut opts = if req.quick {
        TuneOptions::quick()
    } else {
        TuneOptions::default()
    };
    if let Some(g) = req.generations {
        opts.generations = g.clamp(1, 256);
    }
    if let Some(p) = req.population {
        opts.population = p.clamp(2, 256);
    }
    if let Some(s) = req.seed {
        opts.seed = s;
    }
    opts.workers = req.workers.unwrap_or(1).clamp(1, 8);

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
        let mut payload = generation_line(stat).into_bytes();
        payload.push(b'\n');
        if write_chunk(stream, &payload).is_err() {
            broken = true;
        }
    });
    match result {
        Err(e) => {
            if !streaming {
                let _ = Response::error(400, &e.to_string()).write_to(stream);
            }
            // Streaming already started: the client sees truncation.
        }
        Ok(report) => {
            if broken || !streaming {
                return; // subscriber went away mid-run
            }
            let mut payload = report_line(&report).into_bytes();
            payload.push(b'\n');
            if write_chunk(stream, &payload).is_ok() {
                let _ = finish_chunked(stream);
            }
        }
    }
}

/// `GET /v1/jobs/{id}/events`: chunked NDJSON, one watch line per
/// session event, tailed live until the job's stream completes. The
/// lines are byte-identical to `runner --watch` output for the same job
/// (both serialize through `xplain_runtime::watch_line`).
fn handle_events(stream: &mut TcpStream, ctx: &Ctx<'_>, id: &str) {
    let Some(slot) = JobQueue::parse_id(id).and_then(|key| ctx.queue.resolve(key)) else {
        let _ = Response::error(404, &format!("no job '{id}'")).write_to(stream);
        return;
    };
    if start_chunked(stream, 200, "application/x-ndjson").is_err() {
        return;
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
            return;
        };
        for line in &chunk.lines {
            let mut payload = Vec::with_capacity(line.len() + 1);
            payload.extend_from_slice(line.as_bytes());
            payload.push(b'\n');
            if write_chunk(stream, &payload).is_err() {
                return; // subscriber went away; the job keeps running
            }
        }
        offset += chunk.lines.len();
        if chunk.done {
            break;
        }
    }
    let _ = finish_chunked(stream);
}
