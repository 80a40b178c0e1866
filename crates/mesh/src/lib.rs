//! # xplain-mesh
//!
//! The distributed tier: run N `xplain-serve` shards as **one logical
//! explanation server**. Still std-only, per the workspace's
//! vendored-deps policy — membership, routing, proxying, and stealing
//! are all built on `std::net` plus the serve crate's own HTTP pieces.
//!
//! The design leans entirely on the runtime's content addressing. A
//! job's identity is a deterministic hash of its spec, computed
//! identically by every process ([`xplain_runtime::JobQueue::job_key`]);
//! placement is a deterministic function of that key and the membership
//! view ([`ring`]). So the mesh needs no routing table, no job registry,
//! and no coordination protocol: every gateway and every shard derives
//! the same answer from the same seed list, and the shared
//! content-addressed store makes even *duplicated* execution harmless —
//! two shards computing the same key commit byte-identical entries.
//!
//! Module map, front to back:
//!
//! * [`ring`] — rendezvous hashing: content key + peer id → owner and
//!   failover order. Losing a shard moves only that shard's keys.
//! * [`membership`] — static seed list, TCP heartbeats, epoch-numbered
//!   immutable [`membership::View`]s. Routers capture one view per
//!   request and never flip-flop mid-request; a one-peer list is the
//!   honest single-node fallback.
//! * [`gateway`] — the gateway's routes behind the shards' own HTTP
//!   front (`xplain_serve::front`: listener, authentication, refusals).
//!   Speaks the exact serve API (`POST /v1/jobs`, status, cancel,
//!   chunked NDJSON event streams) and proxies each request to the
//!   owning shard, failing over down the ring's preference list; 503
//!   only when no shard is healthy.
//! * [`steal`] — work stealing. Idle shards poll peers'
//!   `GET /v1/queue`, pull *queued* (never in-flight) jobs via
//!   `POST /v1/queue/steal`, and resubmit them locally; the victim keeps
//!   donated jobs at the back of its queue as a safety net, and the
//!   shared store deduplicates the race.
//!
//! The `runner` binary lives here (it stacks `mesh` on top of `serve`,
//! `gc`, and the batch CLI): `runner mesh --shards N` spawns a local
//! mesh of N shard processes plus the gateway; `runner mesh --peers ...`
//! fronts shards that are already running. See DESIGN.md §9.

pub mod gateway;
pub mod membership;
pub mod ring;
pub mod steal;

pub use gateway::{Gateway, GatewayConfig, GatewayHandle};
pub use membership::{parse_peers, Membership, Peer, PeerState, View};
pub use steal::{Stealer, StealerConfig};
