//! The serving job queue — the submission/polling/cancellation surface
//! the HTTP serving layer drives.
//!
//! Batch manifests do not come through here: they fan out straight over
//! the per-job engine ([`crate::executor::run_manifest_opts`]). A server
//! cannot work that way — jobs arrive one at a time, clients poll and
//! stream while work is in flight, and identical queries must coalesce.
//! [`JobQueue`] is that serving tier over the same engine
//! (`executor::run_job`):
//!
//! * **submit** — [`JobQueue::submit_deduped`]: jobs are keyed by their
//!   content-addressed store key, so a resubmitted spec joins the
//!   in-flight execution, returns the finished outcome, or — when the
//!   prior execution was cancelled or budget-stopped — starts a new
//!   execution that resumes from the persisted checkpoint. A single
//!   submission has no manifest position: every job runs at index 0
//!   ([`crate::executor::derive_seed`]), so the same spec derives the
//!   same seed and id on every shard.
//! * **poll** — [`JobQueue::poll`] snapshots a job's phase and outcome.
//! * **cancel** — [`JobQueue::cancel`] fires the job's [`CancelToken`];
//!   a running session checkpoints through the store (when one is
//!   attached), so a later resubmit continues mid-loop.
//! * **events** — every session event is retained as its NDJSON watch
//!   line ([`crate::watch::watch_line`]); [`JobQueue::wait_events`] lets
//!   any number of subscribers tail a job's stream from any offset (the
//!   HTTP `GET /v1/jobs/{id}/events` endpoint is a loop over it).
//! * **workers** — the queue owns no threads. Callers drive it:
//!   [`JobQueue::serve_worker`] (block for work until
//!   [`JobQueue::shutdown`]) or [`JobQueue::drain_worker`] (run until
//!   the queue is empty — tests drive the scheduler with it). Which
//!   worker runs a job never changes its bytes.
//!
//! Shutdown is graceful by construction: it cancels every queued and
//! running job, running sessions hit their next event boundary, persist
//! a checkpoint (when a store is attached), and emit their terminal
//! event; workers then drain and return.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use xplain_core::pipeline::PipelineConfig;
use xplain_core::session::{CancelToken, FinishReason, SessionEvent};
use xplain_lp::SolverCounters;

use crate::domain::DomainRegistry;
use crate::executor::{blank_outcome, derive_seed, run_job, JobOutcome, JobSpec, RunOptions};
use crate::journal::JobJournal;
use crate::store::ResultStore;
use crate::tenant::{DrrScheduler, TenantRegistry, TokenBucket};
use crate::watch::watch_line;

/// Queue-wide execution policy. Every job loads and persists session
/// checkpoints through the store when one is attached (a cancelled or
/// killed execution continues mid-loop on resubmit), runs under its own
/// spec's budgets, and has its events retained for subscribers.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueOptions {
    /// Maximum number of *waiting* (not yet running) jobs; submissions
    /// beyond it are rejected with [`QueueFull`]. `0` = unbounded.
    pub capacity: usize,
    /// Completed jobs retained in memory (outcome + event log) before
    /// the oldest are *evicted* — tombstoned and dropped from the key
    /// index, so a long-lived server's memory stays bounded. An evicted
    /// job's id answers like an unknown job; resubmitting its spec is
    /// served from the store (cache hit) or recomputed. `0` = never
    /// evict.
    pub retain_done: usize,
    /// Minimum per-worker service time in milliseconds for *executed*
    /// (non-cache-hit) jobs — a serve worker that finishes a job faster
    /// sleeps out the remainder before taking the next one. `0` (the
    /// default) disables pacing. This is per-worker rate limiting /
    /// overload protection: it caps a shard's job throughput at
    /// `workers × 1000/pace_ms` regardless of how cheap individual jobs
    /// are, which also makes per-shard capacity machine-independent —
    /// the property the mesh scaling gate
    /// (`crates/mesh/tests/paced_scaling.rs`) relies on.
    /// [`JobQueue::drain_worker`] never paces.
    pub pace_ms: u64,
}

/// A submission was rejected — the global waiting line is at capacity,
/// or (with a [`TenantRegistry`] attached) the submitting tenant hit
/// its own quota. Carries the depth observed at rejection time so
/// admission layers can derive a `Retry-After`, plus tenant-scoped
/// context when the submission carried an identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueFull {
    pub depth: usize,
    pub capacity: usize,
    /// Tenant-scoped rejection context (`None` for anonymous
    /// submissions — the pre-tenancy global estimate applies).
    pub tenant: Option<TenantRejection>,
}

/// Why and for whom a tenant-attributed submission was rejected — the
/// inputs an admission layer needs to compute a *tenant-scoped*
/// `Retry-After` (the tenant's own backlog over the tenant's own drain
/// share) instead of the global backlog estimate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantRejection {
    /// The submitting tenant's id.
    pub tenant: String,
    /// The tenant's queued backlog at rejection time.
    pub backlog: usize,
    /// The tenant's fair-share weight.
    pub weight: u64,
    /// Sum of weights over tenants with backlog (the share
    /// denominator; >= `weight` whenever `backlog > 0`).
    pub active_weight: u64,
    /// Exact wait reported by a token-bucket rejection, in whole
    /// seconds (0 when the rejection was depth-based, not rate-based).
    pub retry_secs: u64,
}

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.tenant {
            Some(t) if t.retry_secs > 0 => write!(
                f,
                "tenant '{}' is over its submit rate (retry in {}s)",
                t.tenant, t.retry_secs
            ),
            Some(t) => write!(
                f,
                "tenant '{}' is at capacity ({} waiting of {} total, capacity {})",
                t.tenant, t.backlog, self.depth, self.capacity
            ),
            None => write!(
                f,
                "job queue is full ({} waiting, capacity {})",
                self.depth, self.capacity
            ),
        }
    }
}

impl std::error::Error for QueueFull {}

/// Where a job stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobPhase {
    Queued,
    Running,
    Done,
}

impl JobPhase {
    /// Lowercase wire tag (HTTP responses key on this).
    pub fn as_str(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
        }
    }
}

/// How a deduplicated submission was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// The outcome already exists (in-memory completion or store entry);
    /// no new execution was scheduled.
    CacheHit,
    /// An identical job is already queued or running; the submission
    /// joined it.
    InFlight,
    /// A fresh execution was queued.
    Enqueued,
    /// A prior execution stopped early (cancelled or budget-stopped); a
    /// new execution was queued that resumes from its checkpoint when
    /// the store holds one.
    Resumed,
}

impl Disposition {
    pub fn as_str(&self) -> &'static str {
        match self {
            Disposition::CacheHit => "cache_hit",
            Disposition::InFlight => "in_flight",
            Disposition::Enqueued => "enqueued",
            Disposition::Resumed => "resumed",
        }
    }
}

/// Receipt for a deduplicated submission.
#[derive(Debug, Clone)]
pub struct Submitted {
    /// Content-addressed job id (the store key, zero-padded hex).
    pub id: String,
    pub key: u64,
    /// Slot handle for event streaming ([`JobQueue::wait_events`]).
    pub slot: usize,
    pub disposition: Disposition,
    /// The job's phase when the submission was answered, read under the
    /// same lock that enqueued or found it: a fresh enqueue is `Queued`
    /// however soon a worker takes it.
    pub phase: JobPhase,
}

/// Point-in-time view of one job.
#[derive(Debug, Clone)]
pub struct JobView {
    pub id: String,
    pub key: u64,
    pub domain: String,
    pub phase: JobPhase,
    /// Present once `phase == Done`.
    pub outcome: Option<JobOutcome>,
    /// Events retained so far.
    pub events_logged: usize,
    /// This execution was re-enqueued from the write-ahead journal at
    /// startup (its acceptance predates this process).
    pub recovered: bool,
}

/// Summary of one waiting job — the `GET /v1/queue` surface a peer
/// inspects before stealing.
#[derive(Debug, Clone)]
pub struct PendingJob {
    pub id: String,
    pub domain: String,
    /// Already offered to a peer via [`JobQueue::donate`].
    pub donated: bool,
    /// Tenant attribution (`None` for anonymous submissions).
    pub tenant: Option<String>,
}

/// One batch of tailed events.
#[derive(Debug, Clone)]
pub struct EventsChunk {
    /// NDJSON watch lines from the requested offset (no trailing
    /// newlines).
    pub lines: Vec<String>,
    /// The job's stream is complete — no further lines will appear.
    pub done: bool,
}

/// Monotonic queue counters (metrics surface).
#[derive(Debug, Clone, Copy, Default)]
pub struct QueueCounters {
    /// Accepted submissions, every disposition (joins and cache-served
    /// answers included).
    pub submitted: u64,
    /// Executions that reached `Done` (inline cache answers included).
    pub completed: u64,
    /// Submissions answered from cache — memory or store — plus
    /// executions whose outcome was a store hit.
    pub cache_hits: u64,
    pub cancelled: u64,
    /// Submissions rejected with [`QueueFull`].
    pub rejected_full: u64,
    /// Pending jobs handed to a peer via [`JobQueue::donate`] (the
    /// work-stealing surface — a donated job stays queued here too; the
    /// count is jobs *offered*, not jobs whose local execution was
    /// skipped).
    pub donated: u64,
    /// Jobs re-enqueued from the write-ahead journal at startup
    /// ([`JobQueue::recover`]) — accepted by a previous process over the
    /// same store that died before finishing them.
    pub recovered: u64,
    /// The summed [`JobOutcome::solver`] of every execution that reached
    /// `Done`.
    pub solver: SolverCounters,
}

/// Point-in-time per-tenant gauges and counters (the `tenants` block of
/// `GET /v1/metrics` when tenancy is configured).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantCounters {
    pub tenant: String,
    /// Fair-share weight.
    pub weight: u64,
    /// Jobs waiting in this tenant's lane.
    pub pending: usize,
    /// Jobs currently executing for this tenant.
    pub running: usize,
    /// Accepted submissions, every disposition.
    pub submitted: u64,
    /// Executions (and inline cache answers) that reached `Done`.
    pub completed: u64,
    /// Submissions rejected — global capacity, in-flight cap, or
    /// submit rate.
    pub rejected: u64,
}

/// Mutable per-tenant accounting, keyed by tenant id under the queue
/// mutex.
#[derive(Debug, Default)]
struct TenantStats {
    running: usize,
    submitted: u64,
    completed: u64,
    rejected: u64,
    bucket: Option<TokenBucket>,
}

enum SlotState {
    Queued,
    Running,
    Done(Box<JobOutcome>),
    /// Tombstone: the outcome and event log were released under
    /// [`QueueOptions::retain_done`] pressure. Slot handles stay valid
    /// but the job no longer resolves, and event reads answer `None`
    /// (a mid-replay subscriber must observe truncation, not a
    /// "complete" stream missing its tail).
    Evicted,
}

impl SlotState {
    fn phase(&self) -> JobPhase {
        match self {
            SlotState::Queued => JobPhase::Queued,
            SlotState::Running => JobPhase::Running,
            SlotState::Done(_) | SlotState::Evicted => JobPhase::Done,
        }
    }
}

/// How the in-memory state answers a deduplicated submission (`None`:
/// the key is unknown in memory; consult the store / enqueue fresh).
enum MemDedup {
    /// An existing slot serves the submission as-is.
    Answer(usize, Disposition),
    /// The prior execution stopped early; enqueue a resuming one.
    Resume,
}

struct JobSlot {
    spec: JobSpec,
    key: u64,
    domain: String,
    state: SlotState,
    cancel: CancelToken,
    /// NDJSON watch lines.
    events: Vec<String>,
    /// No further events will be appended.
    events_done: bool,
    /// Handed to a peer via [`JobQueue::donate`]. The slot stays
    /// pending (the local execution is the safety net if the thief
    /// dies), but it is never offered twice.
    donated: bool,
    /// Re-enqueued from the journal at startup rather than submitted by
    /// a client of *this* process (surfaced on `GET /v1/jobs/{id}`).
    recovered: bool,
    /// Tenant attribution of the first submitter (`None` for anonymous
    /// submissions). Joins from other tenants do not re-home a
    /// job — the content key, not the identity, names the work.
    tenant: Option<String>,
}

struct QueueState {
    slots: Vec<JobSlot>,
    /// The waiting line: per-tenant FIFO lanes drained by weighted
    /// deficit round robin. With no tenancy configured every job lands
    /// in the single anonymous lane and this is exactly the old global
    /// FIFO.
    sched: DrrScheduler,
    /// Per-tenant accounting (named tenants only).
    tenant_stats: HashMap<String, TenantStats>,
    /// Content key → newest slot (deduplicated submissions only).
    by_key: HashMap<u64, usize>,
    /// Completion order, oldest first — the eviction queue when
    /// [`QueueOptions::retain_done`] bounds retained completions.
    done_order: VecDeque<usize>,
    /// The metrics surface, updated in the same critical sections that
    /// change the slots it counts, so one lock reads a consistent copy.
    counters: QueueCounters,
}

/// The shared job queue. See the module docs for the contract.
pub struct JobQueue<'a> {
    registry: &'a DomainRegistry,
    store: Option<&'a ResultStore>,
    opts: QueueOptions,
    /// Stamped into store entries this queue commits (the mesh sets it
    /// to the shard id, so `origin` metadata records which process
    /// computed each result).
    origin: Option<String>,
    /// Write-ahead journal: every accept/dispatch/completion is durable
    /// before it is visible, and [`JobQueue::recover`] re-enqueues what
    /// a dead process left behind.
    journal: Option<&'a JobJournal>,
    /// Tenant directory for weights and quotas. `None` (and open-mode
    /// registries) schedule everything in the anonymous lane with no
    /// quota checks — the pre-tenancy behavior, byte for byte.
    tenants: Option<&'a TenantRegistry>,
    state: Mutex<QueueState>,
    /// Wakes workers when work arrives or shutdown fires.
    work_cv: Condvar,
    /// Wakes event subscribers and completion pollers.
    event_cv: Condvar,
    shutting_down: AtomicBool,
    active: AtomicUsize,
}

impl<'a> JobQueue<'a> {
    pub fn new(
        registry: &'a DomainRegistry,
        store: Option<&'a ResultStore>,
        opts: QueueOptions,
    ) -> Self {
        JobQueue {
            registry,
            store,
            opts,
            origin: None,
            journal: None,
            tenants: None,
            state: Mutex::new(QueueState {
                slots: Vec::new(),
                sched: DrrScheduler::new(),
                tenant_stats: HashMap::new(),
                by_key: HashMap::new(),
                done_order: VecDeque::new(),
                counters: QueueCounters::default(),
            }),
            work_cv: Condvar::new(),
            event_cv: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            active: AtomicUsize::new(0),
        }
    }

    /// Stamp every store entry this queue commits with an origin tag
    /// (typically the mesh shard id) — see [`ResultStore`] origin
    /// metadata.
    pub fn with_origin(mut self, origin: Option<String>) -> Self {
        self.origin = origin;
        self
    }

    /// Attach a write-ahead journal: serving-path submissions become
    /// durable before they are acknowledged, and [`JobQueue::recover`]
    /// re-enqueues whatever a previous process accepted but never
    /// finished. Call `recover` after construction, before workers poll.
    pub fn with_journal(mut self, journal: Option<&'a JobJournal>) -> Self {
        self.journal = journal;
        self
    }

    /// Attach a tenant directory: submissions via
    /// [`JobQueue::submit_deduped`] are scheduled in per-tenant
    /// lanes weighted by the registry, and per-tenant quotas (in-flight
    /// cap, submit rate) reject with tenant-scoped [`QueueFull`]
    /// context. Without one — or with an open-mode registry — every
    /// submission is anonymous and nothing changes.
    pub fn with_tenants(mut self, tenants: Option<&'a TenantRegistry>) -> Self {
        self.tenants = tenants;
        self
    }

    /// Re-enqueue every accepted-but-unfinished job the journal replayed
    /// at open, in original acceptance order. Jobs whose results landed
    /// in the store before the crash answer as cache hits and are
    /// journaled terminal instead of re-running. Returns the number of
    /// executions scheduled. No-op without a journal.
    ///
    /// Respects [`QueueOptions::capacity`]: jobs that do not fit stay
    /// live in the journal and surface again on the next restart.
    pub fn recover(&self) -> usize {
        let Some(journal) = self.journal else {
            return 0;
        };
        let mut scheduled = 0;
        for (spec, tenant) in journal.take_recovered() {
            match self.submit_deduped_inner(spec, tenant.as_deref(), true) {
                Ok(sub) if sub.disposition == Disposition::CacheHit => {
                    // The result survived the crash; close the journal
                    // entry so compaction can drop the job.
                    journal.record_done(sub.key);
                }
                Ok(_) => scheduled += 1,
                Err(_) => {} // queue full: recovered on the next restart
            }
        }
        scheduled
    }

    /// Content-addressed identity of a spec: the store key of its
    /// domain + seed-derived config.
    pub fn job_key(spec: &JobSpec) -> u64 {
        ResultStore::key(&spec.domain, &Self::derived_config(spec))
    }

    /// Format a key as the public job id.
    pub fn format_id(key: u64) -> String {
        format!("{key:016x}")
    }

    /// Parse a public job id back into a key (`None` on malformed input).
    pub fn parse_id(id: &str) -> Option<u64> {
        (id.len() == 16).then(|| u64::from_str_radix(id, 16).ok())?
    }

    fn derived_config(spec: &JobSpec) -> PipelineConfig {
        let mut config = spec.config.clone();
        config.seed = derive_seed(spec.seed, 0);
        config
    }

    fn new_slot(spec: JobSpec, tenant: Option<&str>, recovered: bool) -> JobSlot {
        let key = Self::job_key(&spec);
        let domain = spec.domain.clone();
        JobSlot {
            spec,
            key,
            domain,
            state: SlotState::Queued,
            cancel: CancelToken::new(),
            events: Vec::new(),
            events_done: false,
            donated: false,
            recovered,
            tenant: tenant.map(str::to_string),
        }
    }

    /// The scheduling weight of a tenant id (anonymous and unknown ids
    /// weigh 1).
    fn tenant_weight(&self, tenant: Option<&str>) -> u64 {
        self.tenants.map(|r| r.weight_of(tenant)).unwrap_or(1)
    }

    /// Submit one spec, deduplicated against both in-memory jobs and the
    /// content-addressed store.
    ///
    /// Budget caveat: the content key excludes budgets, so an
    /// [`Disposition::InFlight`] join may pin the caller to an execution
    /// running under *different* budgets than it asked for — possibly
    /// observing a budget-stopped partial outcome (visibly marked
    /// `finish.natural == false`). That is the documented contract for
    /// budget-stopped work everywhere in this stack: resubmit, and the
    /// next execution resumes from the checkpoint under the new
    /// submission's budgets.
    ///
    /// `tenant` attributes the job: it is scheduled in the tenant's
    /// weighted lane, counted against the tenant's quotas, and journaled
    /// with the attribution so recovery preserves fairness state. `None`
    /// is the anonymous tenant (open mode).
    pub fn submit_deduped(
        &self,
        spec: JobSpec,
        tenant: Option<&str>,
    ) -> Result<Submitted, QueueFull> {
        self.submit_deduped_inner(spec, tenant, false)
    }

    /// [`JobQueue::submit_deduped`] with the recovery stamp —
    /// `recovered` is true only for [`JobQueue::recover`]
    /// re-submissions (which bypass the submit-rate bucket: recovery is
    /// not a client burst).
    fn submit_deduped_inner(
        &self,
        spec: JobSpec,
        tenant: Option<&str>,
        recovered: bool,
    ) -> Result<Submitted, QueueFull> {
        let derived = Self::derived_config(&spec);
        let key = ResultStore::key(&spec.domain, &derived);
        let id = Self::format_id(key);

        // Fast path: answer from in-memory state alone — the hot route
        // for repeat queries, no disk touched.
        let mut state = self.state.lock().expect("queue state");
        if !recovered {
            if let Err(retry_secs) = self.rate_check_locked(&mut state, tenant) {
                let rejection = QueueFull {
                    depth: state.sched.len(),
                    capacity: self.opts.capacity,
                    tenant: self.tenant_context(&state, tenant, retry_secs),
                };
                self.note_rejected(&mut state, tenant);
                return Err(rejection);
            }
        }
        match Self::dedup_in_memory(&state, key) {
            Some(MemDedup::Answer(slot, disposition)) => {
                return Ok(self.noted(&mut state, tenant, slot, disposition, id, key))
            }
            Some(MemDedup::Resume) => {
                return self.enqueue_locked(state, spec, tenant, Disposition::Resumed, recovered)
            }
            None => {}
        }

        // Miss: consult the store (unlimited budgets only — partial
        // results never alias the canonical entry) to answer inline
        // without occupying a worker. The read happens with the lock
        // RELEASED — disk I/O under the queue mutex would stall every
        // event sink and poller — then the in-memory state is
        // re-checked: a racing submitter of the same key wins, and the
        // race only cost this thread a wasted read.
        drop(state);
        let cached = match (spec.budgets.is_unlimited(), self.store) {
            (true, Some(store)) => store.lookup(&spec.domain, &derived),
            _ => None,
        };
        let mut state = self.state.lock().expect("queue state");
        match Self::dedup_in_memory(&state, key) {
            Some(MemDedup::Answer(slot, disposition)) => {
                return Ok(self.noted(&mut state, tenant, slot, disposition, id, key))
            }
            Some(MemDedup::Resume) => {
                return self.enqueue_locked(state, spec, tenant, Disposition::Resumed, recovered)
            }
            None => {}
        }

        if let Some(result) = cached {
            let slot_idx = state.slots.len();
            let mut slot = Self::new_slot(spec, tenant, recovered);
            slot.state = SlotState::Done(Box::new(JobOutcome {
                cache_hit: true,
                result: Some(result),
                ..blank_outcome(&slot.spec, 0)
            }));
            slot.events_done = true;
            state.by_key.insert(key, slot_idx);
            state.slots.push(slot);
            state.counters.submitted += 1;
            state.counters.completed += 1;
            state.counters.cache_hits += 1;
            if let Some(id) = tenant {
                let stats = state.tenant_stats.entry(id.to_string()).or_default();
                stats.submitted += 1;
                stats.completed += 1;
            }
            self.mark_done_locked(&mut state, slot_idx);
            drop(state);
            self.event_cv.notify_all();
            return Ok(Submitted {
                id,
                key,
                slot: slot_idx,
                disposition: Disposition::CacheHit,
                phase: JobPhase::Done,
            });
        }

        self.enqueue_locked(state, spec, tenant, Disposition::Enqueued, recovered)
    }

    /// Take one submit-rate token for the tenant (if it has a rate
    /// quota); `Err` carries the whole seconds until a token refills.
    fn rate_check_locked(&self, state: &mut QueueState, tenant: Option<&str>) -> Result<(), u64> {
        let (Some(registry), Some(id)) = (self.tenants, tenant) else {
            return Ok(());
        };
        let Some((rate, burst)) = registry.quota_of(Some(id)).rate else {
            return Ok(());
        };
        let now = std::time::Instant::now();
        let stats = state.tenant_stats.entry(id.to_string()).or_default();
        let bucket = stats
            .bucket
            .get_or_insert_with(|| TokenBucket::new(rate, burst, now));
        bucket.try_take(now)
    }

    /// Tenant-scoped rejection context for a submission from `tenant`
    /// (`None` for anonymous ones).
    fn tenant_context(
        &self,
        state: &QueueState,
        tenant: Option<&str>,
        retry_secs: u64,
    ) -> Option<TenantRejection> {
        let id = tenant?;
        let weight = self.tenant_weight(Some(id));
        Some(TenantRejection {
            tenant: id.to_string(),
            backlog: state.sched.lane_depth(Some(id)),
            weight,
            active_weight: state.sched.active_weight().max(weight),
            retry_secs,
        })
    }

    /// Count one rejection, globally and against the tenant.
    fn note_rejected(&self, state: &mut QueueState, tenant: Option<&str>) {
        state.counters.rejected_full += 1;
        if let Some(id) = tenant {
            state
                .tenant_stats
                .entry(id.to_string())
                .or_default()
                .rejected += 1;
        }
    }

    /// Classify what the in-memory state can do for a submission of
    /// `key` (see [`MemDedup`]). Pure read; counters are the caller's.
    fn dedup_in_memory(state: &QueueState, key: u64) -> Option<MemDedup> {
        let &slot_idx = state.by_key.get(&key)?;
        match &state.slots[slot_idx].state {
            SlotState::Queued | SlotState::Running => {
                Some(MemDedup::Answer(slot_idx, Disposition::InFlight))
            }
            SlotState::Done(outcome) => {
                let stopped_early =
                    outcome.finish.as_ref().is_some_and(|f| !f.natural) && outcome.error.is_none();
                if stopped_early {
                    // Cancelled or budget-stopped: a new execution can
                    // resume the checkpoint.
                    Some(MemDedup::Resume)
                } else {
                    // Natural completion, cache hit, or terminal error:
                    // the outcome stands; serve it.
                    Some(MemDedup::Answer(slot_idx, Disposition::CacheHit))
                }
            }
            // An evicted slot no longer answers for its key (the map
            // should not point here, but a racing evict may have just
            // cleared it).
            SlotState::Evicted => None,
        }
    }

    /// Count and package an in-memory dedup answer.
    fn noted(
        &self,
        state: &mut QueueState,
        tenant: Option<&str>,
        slot: usize,
        disposition: Disposition,
        id: String,
        key: u64,
    ) -> Submitted {
        state.counters.submitted += 1;
        if disposition == Disposition::CacheHit {
            state.counters.cache_hits += 1;
        }
        if let Some(tid) = tenant {
            state
                .tenant_stats
                .entry(tid.to_string())
                .or_default()
                .submitted += 1;
        }
        Submitted {
            id,
            key,
            slot,
            disposition,
            phase: state.slots[slot].state.phase(),
        }
    }

    fn enqueue_locked(
        &self,
        mut state: std::sync::MutexGuard<'_, QueueState>,
        spec: JobSpec,
        tenant: Option<&str>,
        disposition: Disposition,
        recovered: bool,
    ) -> Result<Submitted, QueueFull> {
        // Tenant in-flight cap first (the tenant-scoped answer beats
        // the global one), then global capacity — which still carries
        // the tenant context so the admission layer can scope its
        // `Retry-After` to the tenant's own backlog and drain share.
        if let Some(registry) = self.tenants {
            if let Some(cap) = registry.quota_of(tenant).max_in_flight {
                let id = tenant.expect("quota implies a tenant id");
                let in_flight = state.sched.lane_depth(tenant)
                    + state.tenant_stats.get(id).map_or(0, |s| s.running);
                if in_flight >= cap {
                    let rejection = QueueFull {
                        depth: state.sched.len(),
                        capacity: self.opts.capacity,
                        tenant: self.tenant_context(&state, tenant, 0),
                    };
                    self.note_rejected(&mut state, tenant);
                    return Err(rejection);
                }
            }
        }
        if self.opts.capacity > 0 && state.sched.len() >= self.opts.capacity {
            let rejection = QueueFull {
                depth: state.sched.len(),
                capacity: self.opts.capacity,
                tenant: self.tenant_context(&state, tenant, 0),
            };
            self.note_rejected(&mut state, tenant);
            return Err(rejection);
        }
        let slot_idx = state.slots.len();
        let slot = Self::new_slot(spec, tenant, recovered);
        let (id, key) = (Self::format_id(slot.key), slot.key);
        // Write-ahead: the accept is durable *before* the job becomes
        // visible to workers (we hold the state lock, so no worker can
        // start it — or journal a `started` — until the accept record
        // has hit the disk). Crash before this line: the client never
        // got its receipt, so nothing was promised. Crash after: the
        // journal re-enqueues the job on restart, tenant attribution
        // included.
        if let Some(journal) = self.journal {
            journal.record_accepted(key, &slot.spec, tenant);
        }
        state.by_key.insert(key, slot_idx);
        state.slots.push(slot);
        let weight = self.tenant_weight(tenant);
        state.sched.push(tenant, weight, slot_idx);
        state.counters.submitted += 1;
        if recovered {
            state.counters.recovered += 1;
        }
        if let Some(tid) = tenant {
            state
                .tenant_stats
                .entry(tid.to_string())
                .or_default()
                .submitted += 1;
        }
        drop(state);
        self.work_cv.notify_one();
        Ok(Submitted {
            id,
            key,
            slot: slot_idx,
            disposition,
            phase: JobPhase::Queued,
        })
    }

    /// Record a completion for eviction accounting and, under
    /// [`QueueOptions::retain_done`] pressure, tombstone the oldest
    /// completed slots: release their outcome + event log and drop them
    /// from the key index. Call with the slot already `Done`.
    fn mark_done_locked(&self, state: &mut QueueState, slot_idx: usize) {
        state.done_order.push_back(slot_idx);
        if self.opts.retain_done == 0 {
            return;
        }
        while state.done_order.len() > self.opts.retain_done {
            let oldest = state.done_order.pop_front().expect("non-empty done queue");
            let key = state.slots[oldest].key;
            let slot = &mut state.slots[oldest];
            slot.state = SlotState::Evicted;
            slot.events = Vec::new();
            slot.events_done = true;
            if state.by_key.get(&key) == Some(&oldest) {
                state.by_key.remove(&key);
            }
        }
    }

    /// Complete a not-yet-running slot as cancelled (it never started, so
    /// there is no checkpoint) — shared by [`JobQueue::cancel`] and
    /// [`JobQueue::shutdown`]. Caller removes the slot from `pending`.
    fn complete_cancelled_locked(&self, state: &mut QueueState, slot_idx: usize) {
        let slot = &mut state.slots[slot_idx];
        slot.state = SlotState::Done(Box::new(JobOutcome {
            finish: Some(crate::executor::SessionFinish {
                reason: FinishReason::Cancelled,
                natural: false,
                resumed: false,
                events: 0,
                budgets: slot.spec.budgets,
            }),
            ..blank_outcome(&slot.spec, 0)
        }));
        slot.events_done = true;
        let key = slot.key;
        let tenant = slot.tenant.clone();
        state.counters.cancelled += 1;
        state.counters.completed += 1;
        if let Some(tid) = tenant {
            state.tenant_stats.entry(tid).or_default().completed += 1;
        }
        if let Some(journal) = self.journal {
            journal.record_cancelled(key);
        }
        self.mark_done_locked(state, slot_idx);
    }

    /// Resolve a job id to its newest slot handle.
    pub fn resolve(&self, key: u64) -> Option<usize> {
        self.state
            .lock()
            .expect("queue state")
            .by_key
            .get(&key)
            .copied()
    }

    /// Snapshot one job by key (its newest slot).
    pub fn poll(&self, key: u64) -> Option<JobView> {
        let state = self.state.lock().expect("queue state");
        let &slot_idx = state.by_key.get(&key)?;
        Some(Self::view_of(&state.slots[slot_idx]))
    }

    fn view_of(slot: &JobSlot) -> JobView {
        // An evicted slot is unreachable through `poll` (eviction drops
        // the key index); defensively it reads as a completed job with
        // nothing left.
        let outcome = match &slot.state {
            SlotState::Done(o) => Some((**o).clone()),
            _ => None,
        };
        JobView {
            id: Self::format_id(slot.key),
            key: slot.key,
            domain: slot.domain.clone(),
            phase: slot.state.phase(),
            outcome,
            events_logged: slot.events.len(),
            recovered: slot.recovered,
        }
    }

    /// Request cancellation of a job. A queued job is removed and
    /// completed as cancelled without running (no checkpoint — it never
    /// started); a running job's token fires and its session checkpoints
    /// at the next event boundary (resume mode with a store). Returns the
    /// phase the job was in, or `None` for unknown keys.
    pub fn cancel(&self, key: u64) -> Option<JobPhase> {
        let mut state = self.state.lock().expect("queue state");
        let &slot_idx = state.by_key.get(&key)?;
        let phase = match &state.slots[slot_idx].state {
            SlotState::Queued => {
                state.sched.remove(|i| i != slot_idx);
                self.complete_cancelled_locked(&mut state, slot_idx);
                JobPhase::Queued
            }
            SlotState::Running => {
                state.slots[slot_idx].cancel.cancel();
                JobPhase::Running
            }
            SlotState::Done(_) | SlotState::Evicted => JobPhase::Done,
        };
        drop(state);
        self.event_cv.notify_all();
        Some(phase)
    }

    /// Tail a job's event lines from `from`, blocking up to `timeout`
    /// when nothing new is available yet. Use the slot handle from
    /// [`Submitted::slot`] / [`JobQueue::resolve`] so a stream stays
    /// pinned to one execution even if the key is resubmitted.
    ///
    /// Returns `None` for unknown handles **and for evicted slots**: an
    /// eviction racing a mid-replay subscriber must not let the stream
    /// end as if complete — the caller aborts without a clean terminator
    /// so the client sees truncation, not a well-formed partial log.
    pub fn wait_events(&self, slot: usize, from: usize, timeout: Duration) -> Option<EventsChunk> {
        let mut state = self.state.lock().expect("queue state");
        if slot >= state.slots.len() {
            return None;
        }
        if matches!(state.slots[slot].state, SlotState::Evicted) {
            return None;
        }
        if state.slots[slot].events.len() <= from && !state.slots[slot].events_done {
            let (guard, _timeout) = self
                .event_cv
                .wait_timeout(state, timeout)
                .expect("queue state");
            state = guard;
        }
        let s = &state.slots[slot];
        if matches!(s.state, SlotState::Evicted) {
            return None; // evicted while we waited
        }
        Some(EventsChunk {
            lines: s.events.get(from..).unwrap_or_default().to_vec(),
            done: s.events_done,
        })
    }

    /// Block until a slot's job completes (tests and synchronous
    /// clients). Returns the final view.
    pub fn wait_done(&self, slot: usize) -> Option<JobView> {
        let mut state = self.state.lock().expect("queue state");
        loop {
            if slot >= state.slots.len() {
                return None;
            }
            if matches!(state.slots[slot].state, SlotState::Done(_)) {
                return Some(Self::view_of(&state.slots[slot]));
            }
            state = self
                .event_cv
                .wait_timeout(state, Duration::from_millis(200))
                .expect("queue state")
                .0;
        }
    }

    /// Number of jobs waiting to run.
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue state").sched.len()
    }

    /// Snapshot the waiting line in projected execution order (the DRR
    /// dispatch order if nothing else arrived — with a single anonymous
    /// lane, exactly the FIFO order this surface always showed).
    pub fn pending_jobs(&self) -> Vec<PendingJob> {
        let state = self.state.lock().expect("queue state");
        state
            .sched
            .projected_order()
            .into_iter()
            .map(|i| {
                let slot = &state.slots[i];
                PendingJob {
                    id: Self::format_id(slot.key),
                    domain: slot.domain.clone(),
                    donated: slot.donated,
                    tenant: slot.tenant.clone(),
                }
            })
            .collect()
    }

    /// Number of waiting jobs not yet offered to a peer — what an idle
    /// peer stands to gain by calling [`JobQueue::donate`].
    pub fn stealable(&self) -> usize {
        let state = self.state.lock().expect("queue state");
        state
            .sched
            .projected_order()
            .into_iter()
            .filter(|&i| !state.slots[i].donated)
            .count()
    }

    /// The work-stealing victim side: hand up to `max` waiting jobs to
    /// a peer. Each donated job is returned as its [`JobSpec`] (the
    /// thief resubmits it to its own queue — specs are content-keyed, so
    /// both sides derive the same id and the same store entry), marked
    /// so it is never offered twice, and rotated to the
    /// *back* of the local waiting line rather than removed: the local
    /// execution is the safety net. If the thief finishes first, this
    /// queue's eventual execution answers from the store (cache hit);
    /// if the thief dies, the job simply runs here — a steal can
    /// duplicate work, never lose it.
    pub fn donate(&self, max: usize) -> Vec<JobSpec> {
        if max == 0 {
            return Vec::new();
        }
        let mut state = self.state.lock().expect("queue state");
        let picked: Vec<usize> = state
            .sched
            .projected_order()
            .into_iter()
            .filter(|&i| !state.slots[i].donated)
            .take(max)
            .collect();
        if picked.is_empty() {
            return Vec::new();
        }
        let mut specs = Vec::with_capacity(picked.len());
        for &slot_idx in &picked {
            let slot = &mut state.slots[slot_idx];
            slot.donated = true;
            specs.push(slot.spec.clone());
        }
        // A donated job stays queued (the local safety net) but yields
        // to the rest of its own tenant's line — rotation never crosses
        // lanes, so one tenant's donations cannot reorder another's.
        for slot_idx in picked {
            state.sched.rotate_to_back(slot_idx);
        }
        state.counters.donated += specs.len() as u64;
        specs
    }

    /// Number of jobs currently executing.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// A copy of the counters taken under the state lock, so a job
    /// counts as completed, with its solver work, exactly when its slot
    /// reads `Done`.
    pub fn counters(&self) -> QueueCounters {
        self.state.lock().expect("queue state").counters
    }

    /// Per-tenant accounting snapshot, sorted by tenant id. Registered
    /// tenants always appear (zeroed if idle); tenants only observed via
    /// forwarded attribution (e.g. recovered journals) appear once they
    /// have any recorded activity. The anonymous lane is excluded — its
    /// traffic is the open-mode aggregate already covered by `counters`.
    pub fn tenant_counters(&self) -> Vec<TenantCounters> {
        let state = self.state.lock().expect("queue state");
        let mut merged: BTreeMap<String, TenantCounters> = BTreeMap::new();
        if let Some(registry) = self.tenants {
            for tenant in registry.tenants() {
                merged.insert(
                    tenant.id.clone(),
                    TenantCounters {
                        tenant: tenant.id.clone(),
                        weight: tenant.weight,
                        ..TenantCounters::default()
                    },
                );
            }
        }
        for (id, stats) in &state.tenant_stats {
            let entry = merged.entry(id.clone()).or_insert_with(|| TenantCounters {
                tenant: id.clone(),
                weight: 1,
                ..TenantCounters::default()
            });
            entry.running = stats.running;
            entry.submitted = stats.submitted;
            entry.completed = stats.completed;
            entry.rejected = stats.rejected;
        }
        for (tenant, weight, depth) in state.sched.lanes() {
            if let Some(id) = tenant {
                let entry = merged.entry(id.clone()).or_insert_with(|| TenantCounters {
                    tenant: id,
                    weight,
                    ..TenantCounters::default()
                });
                entry.pending = depth;
            }
        }
        merged.into_values().collect()
    }

    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting work (serve workers exit once
    /// idle), cancel every queued job, and fire every running job's
    /// token — sessions checkpoint at their next event boundary and emit
    /// their terminal event, so subscribers' streams end cleanly.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::Relaxed);
        let mut state = self.state.lock().expect("queue state");
        let waiting: Vec<usize> = state.sched.drain();
        for slot_idx in waiting {
            self.complete_cancelled_locked(&mut state, slot_idx);
        }
        for slot in &state.slots {
            if matches!(slot.state, SlotState::Running) {
                slot.cancel.cancel();
            }
        }
        drop(state);
        self.work_cv.notify_all();
        self.event_cv.notify_all();
    }

    /// Release the next job under the scheduler and mark it running.
    /// The DRR state lives entirely under the mutex, so the dispatch
    /// sequence is identical however many workers call this.
    fn take_next_locked(&self, state: &mut QueueState) -> Option<usize> {
        let slot_idx = state.sched.pop()?;
        state.slots[slot_idx].state = SlotState::Running;
        if let Some(tid) = state.slots[slot_idx].tenant.clone() {
            state.tenant_stats.entry(tid).or_default().running += 1;
        }
        Some(slot_idx)
    }

    /// Run jobs until the queue is empty, then return (no pacing).
    pub fn drain_worker(&self) {
        loop {
            let slot_idx = {
                let mut state = self.state.lock().expect("queue state");
                match self.take_next_locked(&mut state) {
                    Some(i) => i,
                    None => return,
                }
            };
            self.execute(slot_idx);
        }
    }

    /// Server worker: block for work until [`JobQueue::shutdown`], then
    /// return once the queue is drained. With [`QueueOptions::pace_ms`],
    /// each freshly executed (non-cache-hit) job occupies the worker for
    /// at least that long — per-worker rate limiting.
    pub fn serve_worker(&self) {
        loop {
            let slot_idx = {
                let mut state = self.state.lock().expect("queue state");
                loop {
                    if let Some(i) = self.take_next_locked(&mut state) {
                        break i;
                    }
                    if self.is_shutting_down() {
                        return;
                    }
                    state = self
                        .work_cv
                        .wait_timeout(state, Duration::from_millis(100))
                        .expect("queue state")
                        .0;
                }
            };
            let started = std::time::Instant::now();
            let cache_hit = self.execute(slot_idx);
            if self.opts.pace_ms > 0 && !cache_hit && !self.is_shutting_down() {
                let floor = Duration::from_millis(self.opts.pace_ms);
                if let Some(rest) = floor.checked_sub(started.elapsed()) {
                    std::thread::sleep(rest);
                }
            }
        }
    }

    /// Run one slot to completion. Returns whether the outcome was a
    /// cache hit (pacing exempts those — they cost no compute).
    fn execute(&self, slot_idx: usize) -> bool {
        self.active.fetch_add(1, Ordering::Relaxed);
        let (spec, key, domain, cancel) = {
            let state = self.state.lock().expect("queue state");
            let slot = &state.slots[slot_idx];
            (
                slot.spec.clone(),
                slot.key,
                slot.domain.clone(),
                slot.cancel.clone(),
            )
        };
        // Journal the dispatch: a crash mid-run replays as live and the
        // restarted execution resumes from the session's last periodic
        // checkpoint, or starts over if it had written none.
        if let Some(journal) = self.journal {
            journal.record_started(key);
        }
        let sink = |idx: usize, event: &SessionEvent| {
            let line = watch_line(idx, &domain, event);
            let mut state = self.state.lock().expect("queue state");
            state.slots[slot_idx].events.push(line);
            drop(state);
            self.event_cv.notify_all();
        };
        // Resume is a no-op without a store; with one, cancelled and
        // interrupted sessions leave resumable checkpoints (the serving
        // contract).
        let opts = RunOptions {
            resume: true,
            sink: Some(&sink),
            origin: self.origin.as_deref(),
            ..RunOptions::default()
        };
        let outcome = run_job(self.registry, &spec, 0, self.store, opts, cancel);

        let cache_hit = outcome.cache_hit;
        let was_cancelled = outcome
            .finish
            .as_ref()
            .is_some_and(|f| f.reason == FinishReason::Cancelled);
        // Journal the terminal transition before publishing the outcome.
        // (Crash in the gap either way is safe: the job replays as live,
        // re-runs, and lands on the committed store entry — a cache hit
        // with byte-identical results.) Budget-stopped partials journal
        // as done too: the outcome was delivered; only an explicit
        // resubmit resumes them.
        if let Some(journal) = self.journal {
            if was_cancelled {
                journal.record_cancelled(key);
            } else {
                journal.record_done(key);
            }
        }

        let mut state = self.state.lock().expect("queue state");
        let counters = &mut state.counters;
        counters.completed += 1;
        counters.cache_hits += u64::from(cache_hit);
        counters.cancelled += u64::from(was_cancelled);
        counters.solver = counters.solver.plus(&outcome.solver);
        let slot = &mut state.slots[slot_idx];
        slot.state = SlotState::Done(Box::new(outcome));
        slot.events_done = true;
        if let Some(tid) = slot.tenant.clone() {
            let stats = state.tenant_stats.entry(tid).or_default();
            stats.running = stats.running.saturating_sub(1);
            stats.completed += 1;
        }
        self.mark_done_locked(&mut state, slot_idx);
        drop(state);
        self.active.fetch_sub(1, Ordering::Relaxed);
        self.event_cv.notify_all();
        cache_hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplain_core::session::{SessionBudgets, SessionError};

    fn spec(domain: &str, seed: u64) -> JobSpec {
        JobSpec {
            domain: domain.into(),
            config: PipelineConfig::default(),
            seed,
            budgets: SessionBudgets::unlimited(),
        }
    }

    #[test]
    fn ids_roundtrip() {
        let key = JobQueue::job_key(&spec("dp", 7));
        let id = JobQueue::format_id(key);
        assert_eq!(id.len(), 16);
        assert_eq!(JobQueue::parse_id(&id), Some(key));
        assert_eq!(JobQueue::parse_id("nope"), None);
        assert_eq!(JobQueue::parse_id("zz00000000000000"), None);
    }

    #[test]
    fn capacity_rejects_with_queue_full() {
        let registry = DomainRegistry::builtin();
        let queue = JobQueue::new(
            &registry,
            None,
            QueueOptions {
                capacity: 1,
                ..Default::default()
            },
        );
        queue.submit_deduped(spec("dp", 1), None).unwrap();
        let err = queue.submit_deduped(spec("dp", 2), None).unwrap_err();
        assert_eq!(err.capacity, 1);
        assert_eq!(err.depth, 1);
        assert_eq!(queue.counters().rejected_full, 1);
        // Identical spec still joins in-flight work even at capacity.
        let joined = queue.submit_deduped(spec("dp", 1), None).unwrap();
        assert_eq!(joined.disposition, Disposition::InFlight);
    }

    #[test]
    fn unknown_domain_runs_to_error_outcome_and_dedups_as_done() {
        let registry = DomainRegistry::builtin();
        let queue = JobQueue::new(&registry, None, QueueOptions::default());
        let sub = queue.submit_deduped(spec("no-such", 1), None).unwrap();
        assert_eq!(sub.disposition, Disposition::Enqueued);
        queue.drain_worker();
        let view = queue.poll(sub.key).unwrap();
        assert_eq!(view.phase, JobPhase::Done);
        let outcome = view.outcome.unwrap();
        assert_eq!(
            outcome.error,
            Some(SessionError::UnknownDomain {
                id: "no-such".into()
            })
        );
        // Resubmitting a terminally failed job serves the failure, it
        // does not re-run it.
        let again = queue.submit_deduped(spec("no-such", 1), None).unwrap();
        assert_eq!(again.disposition, Disposition::CacheHit);
        assert_eq!(again.slot, sub.slot);
        // Its (empty) event stream reads as complete.
        let chunk = queue
            .wait_events(sub.slot, 0, Duration::from_millis(10))
            .unwrap();
        assert!(chunk.done);
    }

    #[test]
    fn cancel_of_queued_job_completes_without_running() {
        let registry = DomainRegistry::builtin();
        let queue = JobQueue::new(&registry, None, QueueOptions::default());
        let sub = queue.submit_deduped(spec("dp", 9), None).unwrap();
        // No worker running: the job sits queued; cancel it.
        assert_eq!(queue.cancel(sub.key), Some(JobPhase::Queued));
        let view = queue.poll(sub.key).unwrap();
        assert_eq!(view.phase, JobPhase::Done);
        let finish = view.outcome.unwrap().finish.unwrap();
        assert_eq!(finish.reason, FinishReason::Cancelled);
        assert!(!finish.natural);
        assert_eq!(queue.depth(), 0);
        assert_eq!(queue.counters().cancelled, 1);
        // Unknown keys answer None.
        assert_eq!(queue.cancel(0xdead), None);
    }

    /// A fresh submission answers the phase it was enqueued in: an idle
    /// worker that takes the job at once cannot make it read "running"
    /// (or "done").
    #[test]
    fn a_fresh_submit_reads_queued_with_an_idle_worker_waiting() {
        let registry = DomainRegistry::builtin();
        let queue = JobQueue::new(&registry, None, QueueOptions::default());
        // Answers are collected first and checked after the worker has
        // shut down, so a failing check cannot leave it running.
        let answers: Vec<_> = std::thread::scope(|scope| {
            scope.spawn(|| queue.serve_worker());
            let answers = (0..8)
                .map(|seed| {
                    let sub = queue.submit_deduped(spec("no-such", seed), None).unwrap();
                    while queue.poll(sub.key).unwrap().phase != JobPhase::Done {
                        std::thread::yield_now();
                    }
                    // A resubmission is answered from the finished slot.
                    let again = queue.submit_deduped(spec("no-such", seed), None).unwrap();
                    [
                        (sub.disposition, sub.phase),
                        (again.disposition, again.phase),
                    ]
                })
                .collect();
            queue.shutdown();
            answers
        });
        for (seed, answer) in answers.into_iter().enumerate() {
            assert_eq!(
                answer,
                [
                    (Disposition::Enqueued, JobPhase::Queued),
                    (Disposition::CacheHit, JobPhase::Done)
                ],
                "seed {seed}"
            );
        }
    }

    #[test]
    fn retain_done_evicts_oldest_completions() {
        let registry = DomainRegistry::builtin();
        let queue = JobQueue::new(
            &registry,
            None,
            QueueOptions {
                retain_done: 1,
                ..Default::default()
            },
        );
        // Error outcomes complete instantly — cheap Done slots.
        let a = queue.submit_deduped(spec("no-such", 1), None).unwrap();
        queue.drain_worker();
        let b = queue.submit_deduped(spec("no-such", 2), None).unwrap();
        queue.drain_worker();
        // Only the newest completion is retained; the oldest is
        // tombstoned and its id no longer resolves.
        assert!(queue.poll(a.key).is_none(), "evicted job must not resolve");
        assert!(queue.poll(b.key).is_some());
        assert!(queue.resolve(a.key).is_none());
        // An evicted slot refuses event reads entirely (None): a
        // subscriber caught mid-replay must see truncation, never a
        // "complete" stream missing its tail.
        assert!(queue
            .wait_events(a.slot, 0, Duration::from_millis(10))
            .is_none());
        // Resubmitting the evicted spec schedules a fresh execution.
        let again = queue.submit_deduped(spec("no-such", 1), None).unwrap();
        assert_eq!(again.disposition, Disposition::Enqueued);
    }

    #[test]
    fn donate_offers_each_pending_job_once_and_keeps_it_queued() {
        let registry = DomainRegistry::builtin();
        let queue = JobQueue::new(&registry, None, QueueOptions::default());
        let a = queue.submit_deduped(spec("dp", 1), None).unwrap();
        let b = queue.submit_deduped(spec("ff", 2), None).unwrap();
        assert_eq!(queue.stealable(), 2);
        let stolen = queue.donate(1);
        assert_eq!(stolen.len(), 1);
        assert_eq!(stolen[0].domain, "dp");
        // The donated job stays queued (the local safety net) but is
        // never offered twice, and rotates to the back of the line.
        assert_eq!(queue.depth(), 2);
        assert_eq!(queue.stealable(), 1);
        let pending = queue.pending_jobs();
        assert_eq!(pending[0].id, JobQueue::format_id(b.key));
        assert!(!pending[0].donated);
        assert_eq!(pending[1].id, JobQueue::format_id(a.key));
        assert!(pending[1].donated);
        // A thief submitting the donated spec derives the same id.
        assert_eq!(JobQueue::job_key(&stolen[0]), a.key);
        let rest = queue.donate(10);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].domain, "ff");
        assert!(queue.donate(10).is_empty());
        assert_eq!(queue.counters().donated, 2);
        assert_eq!(queue.donate(0).len(), 0);
    }

    /// The satellite gate for `retain_done`: eviction of the oldest
    /// completions must stay consistent while submitters, pollers, and
    /// event subscribers hammer the queue concurrently with the workers
    /// draining it.
    #[test]
    fn retain_done_eviction_survives_concurrent_hammering() {
        use std::sync::atomic::AtomicUsize;

        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 40;
        const RETAIN: usize = 4;

        let registry = DomainRegistry::builtin();
        let queue = JobQueue::new(
            &registry,
            None,
            QueueOptions {
                retain_done: RETAIN,
                ..Default::default()
            },
        );
        let keys = Mutex::new(Vec::<u64>::new());
        let done_seen = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| queue.serve_worker());
            }
            let mut hammers = Vec::new();
            for t in 0..THREADS {
                let (queue, keys, done_seen) = (&queue, &keys, &done_seen);
                hammers.push(scope.spawn(move || {
                    // Unknown-domain specs complete instantly with an
                    // error outcome — cheap Done slots, maximum
                    // eviction churn.
                    let mut mine = Vec::new();
                    for i in 0..PER_THREAD {
                        let sub = queue
                            .submit_deduped(spec("no-such", t * 1000 + i), None)
                            .unwrap();
                        mine.push(sub);
                        // Re-poll everything this thread submitted while
                        // evictions race: every answer must be a clean
                        // miss or a coherent view, never a panic.
                        for prev in &mine {
                            match queue.poll(prev.key) {
                                None => {} // evicted
                                Some(view) if view.phase == JobPhase::Done => {
                                    done_seen.fetch_add(1, Ordering::Relaxed);
                                }
                                Some(_) => {}
                            }
                            // Event reads on evicted slots answer None
                            // (truncation), never a bogus "complete".
                            if let Some(chunk) =
                                queue.wait_events(prev.slot, 0, Duration::from_millis(1))
                            {
                                assert!(chunk.lines.len() <= 64);
                            }
                        }
                    }
                    let mut keys = keys.lock().unwrap();
                    keys.extend(mine.iter().map(|s| s.key));
                }));
            }
            for h in hammers {
                h.join().unwrap();
            }
            queue.shutdown();
        });

        let keys = keys.into_inner().unwrap();
        assert_eq!(keys.len(), (THREADS * PER_THREAD) as usize);
        let counters = queue.counters();
        assert_eq!(counters.submitted, THREADS * PER_THREAD);
        // Every submission either ran to an error outcome or was
        // cancelled by shutdown — nothing lost, nothing double-counted.
        assert_eq!(counters.completed, THREADS * PER_THREAD);
        assert!(done_seen.load(Ordering::Relaxed) > 0, "pollers saw work");
        // Eviction kept its bound: at most `retain_done` completions
        // still resolve, the rest answer like unknown jobs.
        let resolvable = keys.iter().filter(|&&k| queue.poll(k).is_some()).count();
        assert!(
            resolvable <= RETAIN,
            "{resolvable} completions retained, expected <= {RETAIN}"
        );
        for key in keys {
            if let Some(view) = queue.poll(key) {
                assert_eq!(view.phase, JobPhase::Done);
                assert!(view.outcome.is_some());
            }
        }
    }

    #[test]
    fn panicking_job_becomes_an_error_outcome_not_a_dead_worker() {
        let registry = crate::executor::tests::registry_with_boom();
        let queue = JobQueue::new(&registry, None, QueueOptions::default());
        let sub = queue.submit_deduped(spec("boom", 1), None).unwrap();
        // The worker survives the panic…
        queue.drain_worker();
        let view = queue.poll(sub.key).unwrap();
        assert_eq!(view.phase, JobPhase::Done);
        let error = view.outcome.unwrap().error.expect("panic becomes error");
        let SessionError::Internal { message } = &error else {
            panic!("expected Internal, got {error:?}");
        };
        assert!(message.contains("kaboom"), "{message}");
        assert_eq!(queue.active(), 0, "active gauge must not leak");
        // …and keeps working afterwards.
        let ok = queue.submit_deduped(spec("boom", 2), None).unwrap();
        queue.drain_worker();
        assert_eq!(queue.poll(ok.key).unwrap().phase, JobPhase::Done);
    }

    fn journal_scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xplain-queue-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The tentpole contract, in-process: a queue that dies with
    /// accepted-but-unfinished jobs hands them to its successor through
    /// the journal, in original acceptance order.
    #[test]
    fn journal_recovers_accepted_jobs_in_order_across_queue_lifetimes() {
        let dir = journal_scratch("recover");
        let registry = DomainRegistry::builtin();

        // First life: accept three jobs, run none ("crash" with a full
        // waiting line — dropping the queue loses all in-memory state).
        let keys: Vec<u64> = {
            let journal = JobJournal::open(&dir).unwrap();
            let queue = JobQueue::new(&registry, None, QueueOptions::default())
                .with_journal(Some(&journal));
            assert_eq!(queue.recover(), 0, "fresh journal recovers nothing");
            [1u64, 2, 3]
                .iter()
                .map(|&s| queue.submit_deduped(spec("no-such", s), None).unwrap().key)
                .collect()
        };

        // Second life over the same journal dir.
        let journal = JobJournal::open(&dir).unwrap();
        let queue =
            JobQueue::new(&registry, None, QueueOptions::default()).with_journal(Some(&journal));
        let recovered = queue.recover();
        assert_eq!(recovered, 3, "every accepted job comes back");
        assert_eq!(queue.counters().recovered, 3);
        // Original order is preserved in the waiting line.
        let pending = queue.pending_jobs();
        let ids: Vec<String> = keys.iter().map(|&k| JobQueue::format_id(k)).collect();
        assert_eq!(
            pending.iter().map(|p| p.id.clone()).collect::<Vec<_>>(),
            ids
        );
        queue.drain_worker();
        for &key in &keys {
            let view = queue.poll(key).unwrap();
            assert_eq!(view.phase, JobPhase::Done);
            assert!(view.recovered, "recovered executions carry the stamp");
        }
        // All terminal now: a third life recovers nothing and the
        // journal's live set is empty.
        assert_eq!(journal.stats().live_jobs, 0);
        let journal3 = JobJournal::open(&dir).unwrap();
        assert!(journal3.take_recovered().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_treats_done_and_cancelled_jobs_as_terminal() {
        let dir = journal_scratch("terminal");
        let registry = DomainRegistry::builtin();
        {
            let journal = JobJournal::open(&dir).unwrap();
            let queue = JobQueue::new(&registry, None, QueueOptions::default())
                .with_journal(Some(&journal));
            // One job runs to its (error) outcome…
            let done = queue.submit_deduped(spec("no-such", 1), None).unwrap();
            queue.drain_worker();
            assert_eq!(queue.poll(done.key).unwrap().phase, JobPhase::Done);
            // …one is cancelled while queued…
            let gone = queue.submit_deduped(spec("no-such", 2), None).unwrap();
            assert_eq!(queue.cancel(gone.key), Some(JobPhase::Queued));
            // …and shutdown cancels the rest.
            queue.submit_deduped(spec("no-such", 3), None).unwrap();
            queue.shutdown();
        }
        let journal = JobJournal::open(&dir).unwrap();
        assert!(
            journal.take_recovered().is_empty(),
            "terminal jobs must not replay"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The satellite pin for `retain_done` vs a live tail: a subscriber
    /// mid-tail when its job is evicted must observe termination (the
    /// `None` truncation answer) promptly — never hang, never a
    /// "complete" stream missing its tail.
    #[test]
    fn evicted_job_terminates_event_tails_promptly() {
        use std::sync::atomic::AtomicBool;

        let registry = DomainRegistry::builtin();
        let queue = JobQueue::new(
            &registry,
            None,
            QueueOptions {
                retain_done: 1,
                ..Default::default()
            },
        );
        let a = queue.submit_deduped(spec("no-such", 1), None).unwrap();
        queue.drain_worker();
        let evicted_seen = AtomicBool::new(false);
        let clean_done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let tail = scope.spawn(|| {
                // The exact loop the HTTP events handler runs: tail from
                // the current offset with a bounded wait per round.
                let mut from = 0usize;
                loop {
                    match queue.wait_events(a.slot, from, Duration::from_millis(250)) {
                        None => {
                            evicted_seen.store(true, Ordering::Relaxed);
                            return; // truncation: abort the stream
                        }
                        Some(chunk) => {
                            from += chunk.lines.len();
                            if chunk.done {
                                clean_done.store(true, Ordering::Relaxed);
                                return; // clean terminator
                            }
                        }
                    }
                }
            });
            // Evict `a` by completing a second job under retain_done: 1.
            queue.submit_deduped(spec("no-such", 2), None).unwrap();
            queue.drain_worker();
            // The tail must terminate on its own, promptly. (A done
            // stream read *before* the eviction landed is equally
            // correct — the job completed; the race decides which.)
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while !tail.is_finished() {
                assert!(
                    std::time::Instant::now() < deadline,
                    "event tail hung after eviction"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            tail.join().unwrap();
        });
        assert!(
            evicted_seen.load(Ordering::Relaxed) || clean_done.load(Ordering::Relaxed),
            "tail ended without observing truncation or completion"
        );
    }

    #[test]
    fn shutdown_cancels_queued_work() {
        let registry = DomainRegistry::builtin();
        let queue = JobQueue::new(&registry, None, QueueOptions::default());
        let a = queue.submit_deduped(spec("dp", 1), None).unwrap();
        let b = queue.submit_deduped(spec("ff", 2), None).unwrap();
        queue.shutdown();
        assert!(queue.is_shutting_down());
        for sub in [a, b] {
            let view = queue.poll(sub.key).unwrap();
            assert_eq!(view.phase, JobPhase::Done);
            assert_eq!(
                view.outcome.unwrap().finish.unwrap().reason,
                FinishReason::Cancelled
            );
        }
        // A serve worker started after shutdown returns immediately.
        queue.serve_worker();
    }
}
