//! # xplain-runtime
//!
//! The serving layer over the XPlain pipeline — what turns the library
//! into something operators point at *their* heuristics (the paper's §6
//! pitch, and X-SYS's "explanation systems need a reference serving
//! architecture" argument):
//!
//! * [`domain`] — the object-safe [`Domain`] trait (oracle factory, DSL
//!   mapper, analyzer seeds, instance family, feature schema) and the
//!   id-keyed [`DomainRegistry`]. `core::pipeline` knows nothing about
//!   concrete domains; this crate binds them.
//! * [`adapters`] — the built-in domains: Demand Pinning (`"dp"`),
//!   first-fit bin packing (`"ff"`), and LPT makespan scheduling
//!   (`"sched"` — the third domain, proving the registry is open).
//! * [`executor`] — the parallel batch engine: JSONL job manifests fanned
//!   out over `std::thread::scope` workers with deterministic per-job
//!   seed derivation (1 worker and N workers produce byte-identical
//!   results).
//! * [`queue`] — the shared [`queue::JobQueue`]: submit/poll/cancel and
//!   per-job event tailing, the one engine under both the batch driver
//!   and the `xplain-serve` HTTP layer.
//! * [`store`] — the content-addressed on-disk result store (JSON keyed
//!   by a hash of domain id + config); repeated jobs are cache hits,
//!   corrupted entries degrade to recomputes.
//! * [`journal`] — the write-ahead job journal: accepted jobs are
//!   durable before they are visible, so a crashed server re-enqueues
//!   every accepted-but-unfinished job on restart.
//! * [`tenant`] — the multi-tenancy layer: [`tenant::TenantRegistry`]
//!   (API keys, weights, quotas, loaded from JSON config), the
//!   deficit-round-robin [`tenant::DrrScheduler`] the queue dispatches
//!   through, and token-bucket submit rates. With no config the queue
//!   runs in "open mode": one anonymous lane, byte-identical to the
//!   pre-tenancy FIFO.
//! * [`bank`] — the adversarial regression bank: every naturally
//!   finished session writes its findings' witnesses through to a
//!   content-addressed corpus under the store, which `runner bank
//!   replay` gates on and `xplain-tune` repairs against.
//! * [`watch`] — the NDJSON event wire format shared by `runner --watch`
//!   and the HTTP streaming endpoint.
//!
//! The `runner` binary (in the `xplain-serve` crate, which stacks the
//! HTTP serving layer on this one) drives all of it from the command
//! line; see the README's batch-runner quickstart.

pub mod adapters;
pub mod bank;
pub mod domain;
pub mod executor;
pub mod journal;
pub mod queue;
pub mod store;
pub mod tenant;
pub mod watch;

pub use adapters::{DpDomain, DpDslMapper, FfDomain, FfDslMapper, SchedDomain, SchedDslMapper};
pub use bank::{BankInfo, BankRecord, BankSweep, RegressionBank, BANK_SCHEMA_VERSION};
pub use domain::{
    build_session, run_domain, run_domain_full, Domain, DomainAnalysis, DomainRegistry,
    ParamDescriptor, ParamSpace,
};
pub use executor::{
    derive_seed, fan_out, manifest_to_jsonl, parse_manifest, run_manifest, run_manifest_opts,
    EventSink, JobOutcome, JobSpec, RunOptions, SessionFinish,
};
pub use journal::{JobJournal, JournalStats};
pub use queue::{
    Disposition, EventsChunk, JobPhase, JobQueue, JobView, PendingJob, QueueCounters, QueueFull,
    QueueOptions, Submitted, TenantCounters, TenantRejection,
};
pub use store::{fnv1a64, GcReport, ResultStore, STALE_TMP_MAX_AGE};
pub use tenant::{DrrScheduler, Tenant, TenantQuota, TenantRegistry, TokenBucket};
pub use watch::{watch_line, WatchLine};
// The session vocabulary travels with the runtime so callers need not
// depend on xplain-core directly.
pub use xplain_core::session::{
    AnalysisSession, CancelToken, FinishReason, SessionBudgets, SessionBuilder, SessionCheckpoint,
    SessionError, SessionEvent,
};
// Solver counters ride on `JobOutcome` and the watch wire format, so
// their type travels too.
pub use xplain_lp::SolverCounters;
