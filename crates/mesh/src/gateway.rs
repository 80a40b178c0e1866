//! The mesh gateway: the routes that make N `xplain-serve` shards look
//! like a single logical explanation server.
//!
//! The gateway runs the shards' own HTTP front ([`xplain_serve::front`]:
//! listener, accept loop, handler pool, authentication, and the answers
//! to unreadable, unknown and wrong-method requests), so it terminates
//! the same API the shards speak (same routes, same JSON, same NDJSON
//! event stream) and *proxies* rather than reimplements: a submitted `JobSpec` is hashed exactly the way every
//! shard hashes it (`JobQueue::job_key`), the rendezvous ring
//! picks the owning shard under the current membership view, and the
//! request is forwarded verbatim. Because content keys — not queue
//! state — decide placement, a resubmit of the same spec always lands on
//! the same shard and hits its cache or resumes its checkpoint, and any
//! two gateways (or a gateway and a stealing shard) agree on ownership
//! without talking to each other.
//!
//! Failure handling per request, in preference order of the ring:
//! unreachable shards are skipped; 429s are waited out per shard
//! ([`xplain_serve::Client::post_retry`]) before failing over; 404s on
//! id-routed requests fall through to the next shard (the job may have
//! been computed elsewhere — the store is shared, so a resubmit
//! anywhere answers from cache). Only when *no* healthy shard remains
//! does the gateway answer 503.
//!
//! Event streams are proxied chunk-for-chunk, live. Upstream truncation
//! (a shard dying mid-stream) is propagated as transport-level
//! truncation — the gateway never fabricates a clean terminator for a
//! stream it did not see end.
//!
//! With a tenant registry configured ([`GatewayConfig::tenants`]) the
//! gateway is the tier's *authentication edge*: the front terminates
//! `Authorization: Bearer` through the same `authenticate` a standalone
//! shard runs (401 malformed/missing, 403 unknown), and the gateway forwards the authenticated tenant
//! id upstream via the trusted `X-Xplain-Tenant` header, and reports
//! per-tenant edge counters in its own `/v1/metrics`. Shards are
//! assumed to sit on a private network behind the gateway (DESIGN.md
//! §12's trust model); quota enforcement itself lives on the shards,
//! whose tenant-scoped 429s relay through unchanged.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::Serialize;
use xplain_runtime::{JobQueue, JobSpec, TenantRegistry};
use xplain_serve::front::{unattributed, Front, FrontHandle, Service};
use xplain_serve::http::{finish_chunked, start_chunked, write_line, Request, Response};
use xplain_serve::{Client, EventStream, HttpResponse, MeshReport, MeshStatus, Route};

use crate::membership::{Membership, Peer, PeerState};
use crate::ring;

/// Gateway tunables.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// The shard seed list (static membership).
    pub peers: Vec<Peer>,
    /// Connection handler threads; a streaming watcher occupies one for
    /// the life of its job.
    pub http_threads: usize,
    /// Time budget for reading one whole client request (head and
    /// body); a client that runs it out gets 408.
    pub read_timeout: Duration,
    /// Upstream timeout for unary proxy calls.
    pub upstream_timeout: Duration,
    /// Upstream read timeout while proxying an event stream (streams
    /// idle between events; this bounds how long a stalled shard can
    /// hold a watcher).
    pub stream_timeout: Duration,
    /// TCP connect budget for one health probe.
    pub probe_timeout: Duration,
    /// Heartbeat period.
    pub heartbeat: Duration,
    /// `POST` attempts per shard (429 + Retry-After waits) before
    /// failing over to the next peer in the ring.
    pub upstream_attempts: u32,
    /// Tenant registry config path (DESIGN.md §12). `None` (the
    /// default) runs the gateway open — no authentication, every
    /// request anonymous, byte-for-byte the pre-tenancy behavior.
    pub tenants: Option<PathBuf>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:7080".into(),
            peers: Vec::new(),
            http_threads: 8,
            read_timeout: Duration::from_secs(5),
            upstream_timeout: Duration::from_secs(30),
            stream_timeout: Duration::from_secs(120),
            probe_timeout: Duration::from_millis(250),
            heartbeat: Duration::from_millis(500),
            upstream_attempts: 3,
            tenants: None,
        }
    }
}

/// A bound-but-not-yet-running gateway.
pub struct Gateway {
    front: Front,
    config: GatewayConfig,
}

/// Remote control for a running [`Gateway`] (cloneable, thread-safe).
pub type GatewayHandle = FrontHandle;

impl Gateway {
    /// Bind the listening socket (fails fast on bad addresses or an
    /// empty peer list).
    pub fn bind(config: GatewayConfig) -> io::Result<Gateway> {
        if config.peers.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "gateway needs at least one peer",
            ));
        }
        Ok(Gateway {
            front: Front::bind(&config.addr)?,
            config,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    pub fn handle(&self) -> GatewayHandle {
        self.front.handle()
    }

    /// Serve until shutdown, then stop the heartbeat and return. Blocks
    /// the calling thread.
    pub fn run(self) -> io::Result<()> {
        let tenants = match &self.config.tenants {
            Some(path) => TenantRegistry::load(path)?,
            None => TenantRegistry::open(),
        };
        let mesh = Arc::new(MeshStatus::new("gateway"));
        let membership = Membership::bootstrap(
            self.config.peers.clone(),
            self.config.probe_timeout,
            Some(Arc::clone(&mesh)),
        );
        let hb_stop = Arc::new(AtomicBool::new(false));
        let heartbeat =
            Arc::clone(&membership).start_heartbeat(self.config.heartbeat, Arc::clone(&hb_stop));

        let tenant_stats = Mutex::new(BTreeMap::new());
        let ctx = GatewayCtx {
            membership: &membership,
            mesh: &mesh,
            config: &self.config,
            tenants: &tenants,
            tenant_stats: &tenant_stats,
            front: self.front.handle(),
            started: Instant::now(),
        };
        std::thread::scope(|scope| {
            self.front.serve(
                scope,
                &ctx,
                self.config.http_threads,
                self.config.read_timeout,
            )
        });
        hb_stop.store(true, Ordering::Relaxed);
        heartbeat.join().expect("heartbeat thread joins");
        Ok(())
    }
}

struct GatewayCtx<'a> {
    membership: &'a Arc<Membership>,
    mesh: &'a MeshStatus,
    config: &'a GatewayConfig,
    tenants: &'a TenantRegistry,
    /// Per-tenant edge counters (submits relayed/rejected *through this
    /// gateway* — shard metrics count the authoritative queue view).
    tenant_stats: &'a Mutex<BTreeMap<String, GatewayTenantStats>>,
    front: FrontHandle,
    started: Instant,
}

#[derive(Debug, Default, Clone)]
struct GatewayTenantStats {
    submitted: u64,
    rejected: u64,
}

/// The gateway's own `GET /v1/metrics` body: it holds no queue, so the
/// report is uptime plus the mesh block (shard metrics live on the
/// shards; aggregate by polling each). When the gateway enforces
/// tenancy a `tenants` block of edge counters is appended; in open
/// mode the key is absent and the body is byte-for-byte pre-tenancy.
#[derive(Debug)]
struct GatewayMetrics {
    uptime_ms: u64,
    mesh: MeshReport,
    tenants: Option<Vec<GatewayTenantReport>>,
}

// Hand-written: the vendored serde has no `skip_serializing_if`, and
// the open-mode body must not grow a `"tenants":null` key.
impl Serialize for GatewayMetrics {
    fn to_value(&self) -> serde::Value {
        let mut map: Vec<(String, serde::Value)> = vec![
            ("uptime_ms".into(), self.uptime_ms.to_value()),
            ("mesh".into(), self.mesh.to_value()),
        ];
        if let Some(tenants) = &self.tenants {
            map.push(("tenants".into(), tenants.to_value()));
        }
        serde::Value::Map(map)
    }
}

/// One tenant's edge counters, sorted by id in the report.
#[derive(Debug, Serialize)]
struct GatewayTenantReport {
    tenant: String,
    weight: u64,
    submitted: u64,
    rejected: u64,
}

/// Snapshot the per-tenant edge counters: every registered tenant
/// appears (zeroed if it never submitted here), sorted by id — the
/// same discipline as the shard-side `tenants` block.
fn tenant_reports(ctx: &GatewayCtx<'_>) -> Vec<GatewayTenantReport> {
    let stats = ctx.tenant_stats.lock().expect("tenant stats");
    let mut reports: Vec<GatewayTenantReport> = ctx
        .tenants
        .tenants()
        .iter()
        .map(|t| {
            let s = stats.get(&t.id).cloned().unwrap_or_default();
            GatewayTenantReport {
                tenant: t.id.clone(),
                weight: t.weight,
                submitted: s.submitted,
                rejected: s.rejected,
            }
        })
        .collect();
    reports.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    reports
}

/// Bump a tenant's edge counter for one settled submit.
fn record_submit(ctx: &GatewayCtx<'_>, tenant: Option<&str>, accepted: bool) {
    let Some(id) = tenant else { return };
    let mut stats = ctx.tenant_stats.lock().expect("tenant stats");
    let entry = stats.entry(id.to_string()).or_default();
    if accepted {
        entry.submitted += 1;
    } else {
        entry.rejected += 1;
    }
}

impl Service for GatewayCtx<'_> {
    fn tenants(&self) -> &TenantRegistry {
        self.tenants
    }

    fn serve(
        &self,
        stream: &mut TcpStream,
        route: Route,
        request: &Request,
        tenant: Option<&str>,
        _read_done: Instant,
    ) {
        let response = match route {
            Route::SubmitJob => Some(submit(self, request, tenant)),
            Route::JobStatus(id) => {
                Some(forward_by_id(self, &id, "GET", &format!("/v1/jobs/{id}")))
            }
            Route::JobEvents(id) => proxy_events(stream, self, &id),
            Route::CancelJob(id) => Some(forward_by_id(
                self,
                &id,
                "POST",
                &format!("/v1/jobs/{id}/cancel"),
            )),
            Route::Domains => Some(forward_any(self, "/v1/domains")),
            // The bank lives in the shared store, so any healthy shard
            // answers identically; the query string rides along verbatim.
            Route::Regressions => {
                let target = if request.query.is_empty() {
                    "/v1/regressions".to_string()
                } else {
                    format!("/v1/regressions?{}", request.query)
                };
                Some(forward_any(self, &target))
            }
            Route::Metrics => {
                let body = GatewayMetrics {
                    uptime_ms: self.started.elapsed().as_millis() as u64,
                    mesh: self.mesh.report(0),
                    tenants: self.tenants.enforcing().then(|| tenant_reports(self)),
                };
                Some(Response::json(
                    200,
                    serde_json::to_string(&body).expect("body serializes"),
                ))
            }
            Route::Tune => proxy_tune(stream, self, request, tenant),
            Route::Shutdown => Some(self.front.shutdown_response()),
            // The gateway holds no queue of its own; peers steal from
            // shards directly.
            Route::QueueInfo | Route::Steal => Some(Response::error(
                404,
                "the gateway holds no queue; address a shard directly",
            )),
        };
        if let Some(response) = response {
            let _ = response.write_to(stream);
        }
    }
}

/// Rebuild an upstream response for the client (body + status carried
/// verbatim; `Retry-After` preserved so backpressure propagates through
/// the gateway).
fn relay(upstream: HttpResponse) -> Response {
    let mut response = Response::json(upstream.status, upstream.body.clone());
    if let Some(retry) = upstream.header("retry-after") {
        response = response.with_header("Retry-After", retry);
    }
    response
}

fn no_healthy() -> Response {
    Response::error(503, "no healthy shard in the mesh")
}

/// `POST /v1/jobs`: hash the spec exactly as every shard does, forward
/// to the ring owner, fail over down the preference list. When
/// enforcing, an anonymous submit is refused at the edge (401) and an
/// authenticated one carries its tenant id upstream, so the owning
/// shard applies that tenant's lane, caps, and submit rate — a
/// tenant-scoped 429 (Retry-After computed from *that tenant's*
/// backlog) relays through unchanged.
fn submit(ctx: &GatewayCtx<'_>, request: &Request, tenant: Option<&str>) -> Response {
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
    let key = JobQueue::job_key(&spec);
    let view = ctx.membership.view();
    let mut settled: Option<Response> = None;
    for peer in ring::preference(key, &view)
        .into_iter()
        .filter(|p| p.healthy)
    {
        let client = upstream_client(ctx, peer, tenant);
        match client.post_retry("/v1/jobs", body, ctx.config.upstream_attempts) {
            // Still 429 after the retry budget, or shard-side failure:
            // fail over (another shard computes the same bytes; the
            // shared store deduplicates).
            Ok(r) if r.status == 429 || r.status >= 500 => settled = Some(relay(r)),
            Ok(r) => {
                settled = Some(relay(r));
                break;
            }
            Err(_) => {} // unreachable mid-epoch; skip
        }
    }
    let response = settled.unwrap_or_else(no_healthy);
    record_submit(ctx, tenant, matches!(response.status, 200 | 202));
    response
}

/// Id-routed GET/POST (`/v1/jobs/{id}`, `/v1/jobs/{id}/cancel`): try the
/// ring owner first, then the rest of the preference list — after a
/// steal or a failover the job may live (or have completed into the
/// shared store via) another shard. 404 only once every healthy shard
/// said 404.
fn forward_by_id(ctx: &GatewayCtx<'_>, id: &str, method: &str, path: &str) -> Response {
    let Some(key) = JobQueue::parse_id(id) else {
        return Response::error(404, &format!("no job '{id}'"));
    };
    let view = ctx.membership.view();
    let mut last: Option<Response> = None;
    for peer in ring::preference(key, &view)
        .into_iter()
        .filter(|p| p.healthy)
    {
        let client = upstream_client(ctx, peer, None);
        let result = match method {
            "POST" => client.post(path, ""),
            _ => client.get(path),
        };
        match result {
            Ok(r) if r.status == 404 => last = Some(relay(r)),
            Ok(r) => return relay(r),
            Err(_) => {}
        }
    }
    last.unwrap_or_else(no_healthy)
}

/// Key-independent GET (`/v1/domains`): any healthy shard can answer.
fn forward_any(ctx: &GatewayCtx<'_>, path: &str) -> Response {
    let view = ctx.membership.view();
    for peer in view.healthy() {
        if let Ok(r) = upstream_client(ctx, peer, None).get(path) {
            return relay(r);
        }
    }
    no_healthy()
}

/// A unary upstream client; an authenticated tenant rides along as the
/// trusted `X-Xplain-Tenant` forwarding header.
fn upstream_client(ctx: &GatewayCtx<'_>, peer: &PeerState, tenant: Option<&str>) -> Client {
    let client = Client::new(peer.peer.addr).with_timeout(ctx.config.upstream_timeout);
    match tenant {
        Some(id) => client.with_tenant(id),
        None => client,
    }
}

/// `POST /v1/tune`: open the upstream tuning stream on any healthy
/// shard (the bank lives in the shared store, so each shard sees the
/// same corpus and — tuning being deterministic — produces the same
/// NDJSON bytes), then relay generation lines chunk-for-chunk.
/// Buffered upstream errors are relayed with their status; 429/5xx
/// fail over to the next shard, and `Retry-After` is preserved so
/// backpressure propagates. Returns the answer to write when no stream
/// started.
fn proxy_tune(
    stream: &mut TcpStream,
    ctx: &GatewayCtx<'_>,
    request: &Request,
    tenant: Option<&str>,
) -> Option<Response> {
    // Tuning mutates the shipped heuristic corpus — it attributes work
    // just like a submit, so the edge demands identity too.
    if let Some(denied) = unattributed(ctx.tenants, tenant) {
        return Some(denied);
    }
    let body = match request.body_str() {
        Ok(b) => b,
        Err(e) => return Some(Response::error(400, &e.to_string())),
    };
    let view = ctx.membership.view();
    let mut last: Option<Response> = None;
    for peer in view.healthy() {
        let mut client = Client::new(peer.peer.addr).with_timeout(ctx.config.stream_timeout);
        if let Some(id) = tenant {
            client = client.with_tenant(id);
        }
        match client.stream_post("/v1/tune", body) {
            Ok((200, _headers, lines)) => {
                relay_lines(stream, lines);
                return None;
            }
            Ok((status, headers, mut rest)) => {
                let response = relay(HttpResponse {
                    status,
                    headers,
                    body: rest
                        .collect_lines()
                        .map(|ls| ls.join("\n"))
                        .unwrap_or_default(),
                });
                if status == 429 || status >= 500 {
                    last = Some(response); // fail over
                } else {
                    return Some(response);
                }
            }
            Err(_) => {} // unreachable mid-epoch; skip
        }
    }
    Some(last.unwrap_or_else(no_healthy))
}

/// `GET /v1/jobs/{id}/events`: open the upstream stream on the owning
/// shard (failing over like any id-routed request), then relay NDJSON
/// lines chunk-for-chunk as they arrive. Returns the answer to write
/// when no stream started.
fn proxy_events(stream: &mut TcpStream, ctx: &GatewayCtx<'_>, id: &str) -> Option<Response> {
    let Some(key) = JobQueue::parse_id(id) else {
        return Some(Response::error(404, &format!("no job '{id}'")));
    };
    let view = ctx.membership.view();
    let mut saw_404 = false;
    for peer in ring::preference(key, &view)
        .into_iter()
        .filter(|p| p.healthy)
    {
        let client = Client::new(peer.peer.addr).with_timeout(ctx.config.stream_timeout);
        match client.stream(&format!("/v1/jobs/{id}/events")) {
            Ok((200, events)) => {
                relay_lines(stream, events);
                return None;
            }
            Ok((404, _)) => saw_404 = true,
            Ok((_, _)) | Err(_) => {}
        }
    }
    Some(if saw_404 {
        Response::error(404, &format!("no job '{id}'"))
    } else {
        no_healthy()
    })
}

/// Relay an upstream 200 NDJSON stream to the client, one chunk per
/// line, as the lines arrive. A clean upstream end gets a clean chunked
/// terminator; an upstream error mid-stream (a shard dying) closes the
/// client connection *without* one, so truncation stays visible as
/// truncation.
fn relay_lines(stream: &mut TcpStream, mut upstream: EventStream) {
    if start_chunked(stream, 200, "application/x-ndjson").is_err() {
        return;
    }
    loop {
        match upstream.next_line() {
            Ok(Some(line)) => {
                if write_line(stream, &line).is_err() {
                    return; // client went away
                }
            }
            Ok(None) => {
                let _ = finish_chunked(stream);
                return;
            }
            Err(_) => return,
        }
    }
}
