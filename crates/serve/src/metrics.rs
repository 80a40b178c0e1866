//! The `GET /v1/metrics` surface: queue gauges, cache effectiveness,
//! process-wide solver counters, and per-route latency histograms.
//!
//! Latencies land in log-bucketed [`xplain_stats::Histogram`]s (constant
//! memory on a long-lived server; quantile error bounded by the bucket
//! growth factor — see that module's docs). One histogram per route tag,
//! each behind its own mutex: recording is a few comparisons, so the
//! lock is never the bottleneck next to socket I/O.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;
use xplain_lp::SolverCounters;
use xplain_runtime::{BankInfo, JobJournal, JobQueue, JournalStats, ResultStore, TenantCounters};
use xplain_stats::Histogram;

use crate::router::ROUTE_TAGS;

/// Live mesh gauges for one shard (or gateway). Owned by the mesh layer
/// — the membership heartbeat and the steal loop update it — and shared
/// with the server (via `ServerConfig::mesh`) so `GET /v1/metrics`
/// reports it. All atomics: writers never block the metrics endpoint.
pub struct MeshStatus {
    /// This process's stable shard id (the gateway uses `"gateway"`).
    shard_id: String,
    ring_epoch: AtomicU64,
    peers_total: AtomicUsize,
    peers_healthy: AtomicUsize,
    jobs_stolen: AtomicU64,
}

impl MeshStatus {
    pub fn new(shard_id: impl Into<String>) -> Self {
        MeshStatus {
            shard_id: shard_id.into(),
            ring_epoch: AtomicU64::new(0),
            peers_total: AtomicUsize::new(0),
            peers_healthy: AtomicUsize::new(0),
            jobs_stolen: AtomicU64::new(0),
        }
    }

    pub fn shard_id(&self) -> &str {
        &self.shard_id
    }

    /// Record a membership view change (epoch + health counts).
    pub fn set_view(&self, epoch: u64, peers_total: usize, peers_healthy: usize) {
        self.ring_epoch.store(epoch, Ordering::Relaxed);
        self.peers_total.store(peers_total, Ordering::Relaxed);
        self.peers_healthy.store(peers_healthy, Ordering::Relaxed);
    }

    /// Count jobs this process pulled from peers' queues.
    pub fn add_stolen(&self, n: u64) {
        self.jobs_stolen.fetch_add(n, Ordering::Relaxed);
    }

    pub fn jobs_stolen(&self) -> u64 {
        self.jobs_stolen.load(Ordering::Relaxed)
    }

    /// Snapshot for the metrics report (`jobs_donated` comes from the
    /// queue's counters, not this struct — donation happens inside the
    /// victim's queue).
    pub fn report(&self, jobs_donated: u64) -> MeshReport {
        MeshReport {
            shard_id: self.shard_id.clone(),
            ring_epoch: self.ring_epoch.load(Ordering::Relaxed),
            peers_total: self.peers_total.load(Ordering::Relaxed),
            peers_healthy: self.peers_healthy.load(Ordering::Relaxed),
            jobs_stolen: self.jobs_stolen.load(Ordering::Relaxed),
            jobs_donated,
        }
    }
}

impl std::fmt::Debug for MeshStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MeshStatus")
            .field("shard_id", &self.shard_id)
            .field("ring_epoch", &self.ring_epoch.load(Ordering::Relaxed))
            .field("peers_total", &self.peers_total.load(Ordering::Relaxed))
            .field("peers_healthy", &self.peers_healthy.load(Ordering::Relaxed))
            .field("jobs_stolen", &self.jobs_stolen.load(Ordering::Relaxed))
            .finish()
    }
}

/// Live metric collectors for one server.
pub struct ServerMetrics {
    started: Instant,
    /// Baseline so the report shows solver work done *by this server*,
    /// not whatever the process accumulated before it started.
    solver_at_start: SolverCounters,
    routes: Vec<(&'static str, Mutex<Histogram>)>,
}

impl ServerMetrics {
    pub fn new() -> Self {
        ServerMetrics {
            started: Instant::now(),
            solver_at_start: SolverCounters::snapshot(),
            routes: ROUTE_TAGS
                .iter()
                .map(|tag| (*tag, Mutex::new(Histogram::latency_ms())))
                .collect(),
        }
    }

    /// Record one request's latency under its route tag.
    pub fn observe(&self, tag: &str, latency_ms: f64) {
        if let Some((_, hist)) = self.routes.iter().find(|(t, _)| *t == tag) {
            hist.lock().expect("route histogram").record(latency_ms);
        }
    }

    /// Assemble the report against the live queue. Each attachment fills
    /// its block (`null` without it): the store's entry count and bank
    /// gauges, the mesh gauges (shards and gateways running under
    /// `xplain-mesh`), the write-ahead journal stats (a server running
    /// with durability). `tenants` — passed only when tenancy is
    /// enforcing — adds the per-tenant `tenants` block, absent otherwise.
    pub fn report(
        &self,
        queue: &JobQueue<'_>,
        store: Option<&ResultStore>,
        mesh: Option<&MeshStatus>,
        journal: Option<&JobJournal>,
        tenants: Option<Vec<TenantCounters>>,
    ) -> MetricsReport {
        let counters = queue.counters();
        MetricsReport {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            queue: QueueReport {
                depth: queue.depth(),
                active_sessions: queue.active(),
                submitted: counters.submitted,
                completed: counters.completed,
                cancelled: counters.cancelled,
                rejected_busy: counters.rejected_full,
                cache_hits: counters.cache_hits,
                cache_hit_rate: if counters.submitted > 0 {
                    counters.cache_hits as f64 / counters.submitted as f64
                } else {
                    0.0
                },
                donated: counters.donated,
                recovered: counters.recovered,
            },
            tenants: tenants.map(|list| list.into_iter().map(TenantReport::from).collect()),
            store_entries: store.map(|s| s.len()),
            bank: store.map(|s| s.bank().info()),
            journal: journal.map(|j| j.stats()),
            mesh: mesh.map(|m| m.report(counters.donated)),
            solver: SolverCounters::snapshot().since(&self.solver_at_start),
            routes: self
                .routes
                .iter()
                .filter_map(|(tag, hist)| {
                    let h = hist.lock().expect("route histogram");
                    (!h.is_empty()).then(|| RouteLatency {
                        route: (*tag).to_string(),
                        count: h.count(),
                        mean_ms: h.mean().unwrap_or(0.0),
                        p50_ms: h.quantile(0.50).unwrap_or(0.0),
                        p90_ms: h.quantile(0.90).unwrap_or(0.0),
                        p99_ms: h.quantile(0.99).unwrap_or(0.0),
                        max_ms: h.max().unwrap_or(0.0),
                    })
                })
                .collect(),
        }
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

/// The `GET /v1/metrics` response body.
///
/// `Serialize` is written by hand (not derived) for one reason: the
/// `tenants` block must be *absent* in open mode, not `null`. The
/// conformance suite pins the exact top-level key list, and the
/// open-mode contract (DESIGN.md §12) is byte-for-byte compatibility
/// with the pre-tenancy wire format — a derived `Option` field would
/// emit `"tenants":null` unconditionally.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    pub uptime_ms: u64,
    pub queue: QueueReport,
    /// Per-tenant gauges, sorted by tenant id. `None` (key absent on the
    /// wire) when the server runs in open mode.
    pub tenants: Option<Vec<TenantReport>>,
    /// Committed results on disk (`null` when the server runs storeless).
    pub store_entries: Option<usize>,
    /// Regression-bank gauges — entry count, bytes on disk, and the last
    /// replay-gate verdict (`null` when the server runs storeless).
    pub bank: Option<BankInfo>,
    /// Write-ahead journal gauges (`null` when the server runs without
    /// durability — no store, or `--no-journal`).
    pub journal: Option<JournalStats>,
    /// Mesh gauges (`null` on a standalone server).
    pub mesh: Option<MeshReport>,
    /// Solver work since this server started (process-wide counters; a
    /// superset of served work if something else solves in-process).
    pub solver: SolverCounters,
    /// Per-route latency, routes with traffic only.
    pub routes: Vec<RouteLatency>,
}

impl Serialize for MetricsReport {
    fn to_value(&self) -> serde::Value {
        let mut map: Vec<(String, serde::Value)> = vec![
            ("uptime_ms".into(), self.uptime_ms.to_value()),
            ("queue".into(), self.queue.to_value()),
        ];
        if let Some(tenants) = &self.tenants {
            map.push(("tenants".into(), tenants.to_value()));
        }
        map.push(("store_entries".into(), self.store_entries.to_value()));
        map.push(("bank".into(), self.bank.to_value()));
        map.push(("journal".into(), self.journal.to_value()));
        map.push(("mesh".into(), self.mesh.to_value()));
        map.push(("solver".into(), self.solver.to_value()));
        map.push(("routes".into(), self.routes.to_value()));
        serde::Value::Map(map)
    }
}

/// One tenant's entry in the metrics `tenants` block. Field order is the
/// wire key order and is pinned by the conformance suite.
#[derive(Debug, Clone, Serialize)]
pub struct TenantReport {
    pub tenant: String,
    /// Fair-share weight (DRR grants `weight / active_weight` of every
    /// dispatch round).
    pub weight: u64,
    /// Jobs waiting in this tenant's lane.
    pub pending: usize,
    /// Sessions executing for this tenant right now.
    pub running: usize,
    pub submitted: u64,
    pub completed: u64,
    /// Submissions answered 429 — global capacity, in-flight cap, or
    /// submit rate.
    pub rejected: u64,
}

impl From<TenantCounters> for TenantReport {
    fn from(c: TenantCounters) -> Self {
        TenantReport {
            tenant: c.tenant,
            weight: c.weight,
            pending: c.pending,
            running: c.running,
            submitted: c.submitted,
            completed: c.completed,
            rejected: c.rejected,
        }
    }
}

#[derive(Debug, Clone, Serialize)]
pub struct QueueReport {
    /// Jobs waiting for a worker.
    pub depth: usize,
    /// Sessions executing right now.
    pub active_sessions: usize,
    pub submitted: u64,
    pub completed: u64,
    pub cancelled: u64,
    /// Submissions answered 429.
    pub rejected_busy: u64,
    pub cache_hits: u64,
    /// `cache_hits / submitted` — the fraction of accepted submissions
    /// answered from cache (0 before any traffic).
    pub cache_hit_rate: f64,
    /// Waiting jobs handed to mesh peers (0 on a standalone server).
    pub donated: u64,
    /// Jobs re-enqueued from the write-ahead journal at startup.
    pub recovered: u64,
}

/// The `mesh` block of the metrics report — one shard's view of the
/// distributed tier.
#[derive(Debug, Clone, Serialize)]
pub struct MeshReport {
    pub shard_id: String,
    /// Monotonic membership-view epoch (bumps only when peer health
    /// actually changes — routers never flip-flop within an epoch).
    pub ring_epoch: u64,
    pub peers_total: usize,
    pub peers_healthy: usize,
    /// Jobs this process pulled from busy peers.
    pub jobs_stolen: u64,
    /// Jobs this process's queue handed to idle peers.
    pub jobs_donated: u64,
}

#[derive(Debug, Clone, Serialize)]
pub struct RouteLatency {
    pub route: String,
    pub count: u64,
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplain_runtime::{DomainRegistry, QueueOptions};

    #[test]
    fn report_reflects_observations_and_queue_state() {
        let registry = DomainRegistry::builtin();
        let queue = JobQueue::new(&registry, None, QueueOptions::default());
        let metrics = ServerMetrics::new();
        for ms in [1.0, 2.0, 4.0] {
            metrics.observe("GET /v1/metrics", ms);
        }
        metrics.observe("no-such-route", 9.0); // silently ignored

        let report = metrics.report(&queue, None, None, None, None);
        assert_eq!(report.queue.depth, 0);
        assert_eq!(report.queue.active_sessions, 0);
        assert_eq!(report.queue.cache_hit_rate, 0.0);
        assert!(report.store_entries.is_none());
        assert_eq!(report.routes.len(), 1, "only routes with traffic appear");
        let r = &report.routes[0];
        assert_eq!(r.route, "GET /v1/metrics");
        assert_eq!(r.count, 3);
        assert!(r.p50_ms > 0.0 && r.p50_ms <= r.p99_ms && r.p99_ms <= r.max_ms);

        // The report serializes (the endpoint's whole job).
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"cache_hit_rate\""), "{json}");
        assert!(json.contains("GET /v1/metrics"), "{json}");
        // Standalone servers report no mesh block; storeless servers no
        // bank block.
        assert!(report.mesh.is_none());
        assert!(json.contains("\"mesh\":null"), "{json}");
        assert!(report.bank.is_none());
        assert!(json.contains("\"bank\":null"), "{json}");
    }

    #[test]
    fn bank_gauges_ride_the_metrics_surface() {
        let registry = DomainRegistry::builtin();
        let dir = std::env::temp_dir().join(format!("xplain-metrics-bank-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = xplain_runtime::ResultStore::new(&dir);
        let queue = JobQueue::new(&registry, Some(&store), QueueOptions::default());
        let metrics = ServerMetrics::new();
        let report = metrics.report(&queue, Some(&store), None, None, None);
        let bank = report.bank.as_ref().expect("bank block present");
        assert_eq!(bank.entries, 0);
        assert_eq!(bank.last_replay_pass, None);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"bank\":{\"entries\":0"), "{json}");
    }

    #[test]
    fn mesh_gauges_ride_the_metrics_surface() {
        let registry = DomainRegistry::builtin();
        let queue = JobQueue::new(&registry, None, QueueOptions::default());
        let metrics = ServerMetrics::new();
        let mesh = MeshStatus::new("shard-1");
        mesh.set_view(3, 4, 2);
        mesh.add_stolen(5);
        assert_eq!(mesh.jobs_stolen(), 5);
        assert_eq!(mesh.shard_id(), "shard-1");

        let report = metrics.report(&queue, None, Some(&mesh), None, None);
        let m = report.mesh.as_ref().expect("mesh block present");
        assert_eq!(m.shard_id, "shard-1");
        assert_eq!(m.ring_epoch, 3);
        assert_eq!(m.peers_total, 4);
        assert_eq!(m.peers_healthy, 2);
        assert_eq!(m.jobs_stolen, 5);
        assert_eq!(m.jobs_donated, 0);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"jobs_stolen\":5"), "{json}");
        assert!(json.contains("\"shard_id\":\"shard-1\""), "{json}");
    }

    #[test]
    fn tenants_block_absent_in_open_mode_present_when_enforcing() {
        let registry = DomainRegistry::builtin();
        let queue = JobQueue::new(&registry, None, QueueOptions::default());
        let metrics = ServerMetrics::new();

        // Open mode: the key must be ABSENT, not null — byte-for-byte
        // compatibility with the pre-tenancy wire format.
        let open = metrics.report(&queue, None, None, None, None);
        let json = serde_json::to_string(&open).unwrap();
        assert!(!json.contains("\"tenants\""), "{json}");

        let report = metrics.report(
            &queue,
            None,
            None,
            None,
            Some(vec![TenantCounters {
                tenant: "acme".into(),
                weight: 3,
                pending: 2,
                running: 1,
                submitted: 9,
                completed: 6,
                rejected: 1,
            }]),
        );
        let json = serde_json::to_string(&report).unwrap();
        assert!(
            json.contains(
                "\"tenants\":[{\"tenant\":\"acme\",\"weight\":3,\"pending\":2,\
                 \"running\":1,\"submitted\":9,\"completed\":6,\"rejected\":1}]"
            ),
            "{json}"
        );
        // The block rides between `queue` and `store_entries`.
        let qpos = json.find("\"queue\"").unwrap();
        let tpos = json.find("\"tenants\"").unwrap();
        let spos = json.find("\"store_entries\"").unwrap();
        assert!(qpos < tpos && tpos < spos, "{json}");
    }
}
