//! # xplain-serve
//!
//! The wire in front of the runtime: a dependency-free (std-only,
//! consistent with the workspace's vendored-deps policy) HTTP/1.1
//! service that turns the batch analysis engine into a long-lived,
//! multi-tenant explanation server — the shape the paper's interactive
//! "when and why does my heuristic underperform?" workflow actually
//! needs, and the serving tier X-SYS argues explanation systems must
//! grow.
//!
//! The JSON API (full semantics in DESIGN.md §8):
//!
//! | Route | Behavior |
//! |---|---|
//! | `POST /v1/jobs` | Submit a `JobSpec`; deduplicated against in-flight jobs **and** the content-addressed store, so repeat queries are cache hits |
//! | `GET /v1/jobs/{id}` | Status + `JobOutcome` |
//! | `GET /v1/jobs/{id}/events` | Chunked NDJSON stream of session events — the `runner --watch` wire format, byte-identical |
//! | `POST /v1/jobs/{id}/cancel` | Cooperative cancel; the session checkpoints, a later resubmit resumes |
//! | `GET /v1/domains` | Registered domain ids |
//! | `GET /v1/queue` | Waiting line (depth / active / stealable + pending jobs), as a peer deciding whether to steal sees it |
//! | `POST /v1/queue/steal` | Donate up to `max` queued jobs to the calling peer (the mesh work stealer's pull endpoint) |
//! | `GET /v1/metrics` | Queue depth, active sessions, cache hit rate, mesh gauges, solver counters, per-route latency histograms (full schema in DESIGN.md §9) |
//! | `POST /v1/shutdown` | Graceful shutdown (in-flight sessions checkpoint through the store) |
//!
//! Module map: [`http`] (hand-rolled HTTP/1.1 parsing + chunked
//! responses), [`router`] (typed routes), [`front`] (the one HTTP front
//! a shard and the mesh gateway share: listener, accept loop, connection
//! pool, authentication, and the 400/401/403/404/405/408/413 answers; a
//! tier plugs in its routes as a [`front::Service`]), [`admission`]
//! (429 + `Retry-After` policy), [`metrics`] (latency histograms via
//! `xplain-stats`, plus the [`metrics::MeshStatus`] gauges the mesh
//! layer feeds), [`server`] (the shard's route handlers over the shared
//! `xplain_runtime::JobQueue`), [`client`] (the minimal blocking client
//! the gateway, stealer, tests, and load generators drive).
//!
//! `serve/tests/conformance.rs` pins this wire format exactly — status
//! codes, JSON key order, NDJSON chunk framing — because the mesh tier
//! (`xplain-mesh`, which also hosts the `runner` binary now) builds on
//! it process-to-process.

pub mod admission;
pub mod client;
pub mod front;
pub mod http;
pub mod metrics;
pub mod router;
pub mod server;

pub use admission::AdmissionPolicy;
pub use client::{Client, EventStream, HttpResponse};
pub use metrics::{MeshReport, MeshStatus, MetricsReport, ServerMetrics};
pub use router::{route, Route, RouteError};
pub use server::{Server, ServerConfig, ServerHandle};
