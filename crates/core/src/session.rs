//! The streaming analysis session — XPlain's iterative loop (Fig. 3)
//! exposed as a resumable state machine instead of a blocking call.
//!
//! The pipeline is inherently incremental: analyzer probe → subspace
//! growth → significance verdict → explanation, repeating under
//! exclusions. [`AnalysisSession`] walks exactly that loop one *event* at
//! a time, so callers see each significant [`SubspaceFinding`] the moment
//! it clears the significance checker rather than at loop exit (X-SYS's
//! "explanations must arrive progressively" argument, and the shape
//! Ignatiev-style validate/repair/refine loops assume).
//!
//! * **Events** — [`SessionEvent`]: a typed stream consumed either as a
//!   pull iterator ([`AnalysisSession::next_event`], `Iterator` impl) or
//!   through an observer callback ([`AnalysisSession::drain_with`]).
//! * **Budgets** — [`SessionBudgets`]: wall-clock deadline, analyzer-call
//!   cap, and solver-iteration cap, all enforced at event boundaries (the
//!   analyzer's own search additionally honors a cooperative stop flag;
//!   see `xplain_analyzer::search::SearchOptions::stop`).
//! * **Cancellation** — [`CancelToken`]: cooperative, checked between
//!   events and inside the analyzer search. A cancelled (or
//!   budget-stopped) session emits a terminal [`SessionEvent::Finished`]
//!   carrying the partial result, and stays resumable.
//! * **Resume** — [`AnalysisSession::checkpoint`] snapshots the complete
//!   loop state (including the RNG mid-stream) as a serializable
//!   [`SessionCheckpoint`]; [`SessionBuilder::resume_from`] continues it.
//!   Because every state transition is committed only at event
//!   boundaries, a run interrupted after any event and resumed from its
//!   checkpoint produces a final [`PipelineResult`] byte-identical to the
//!   uninterrupted run (modulo the `wall_time_ms` execution-metadata
//!   field) — the contract the determinism-under-interruption tests pin.
//!
//! `run_pipeline` is now a thin drain over this machine, so the batch
//! and streaming paths cannot diverge.

use crate::coverage::{estimate_coverage, CoverageReport};
use crate::explainer::{explain, DslMapper};
use crate::features::FeatureMap;
use crate::pipeline::{PipelineConfig, PipelineResult, SubspaceFinding, PIPELINE_SCHEMA_VERSION};
use crate::significance::{check_significance, SignificanceReport};
use crate::subspace::{grow_subspace, Subspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xplain_analyzer::geometry::Polytope;
use xplain_analyzer::oracle::GapOracle;
use xplain_analyzer::search::{Adversarial, StopFlag};
use xplain_lp::SolverCounters;

/// Version stamp of the serialized [`SessionCheckpoint`] layout. Loaders
/// refuse other versions ([`SessionError::SchemaVersion`]) rather than
/// misinterpreting state; stores treat them as absent checkpoints.
pub const SESSION_CHECKPOINT_SCHEMA_VERSION: u32 = 1;

// ---------------------------------------------------------------- errors

/// Structured errors for the session stack — replaces the stringly-typed
/// errors the executor and manifest parser used to hand around.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SessionError {
    /// A manifest or CLI named a domain the registry does not know.
    UnknownDomain { id: String },
    /// A JSONL manifest line failed to parse. `line` is 1-based;
    /// `snippet` is the offending text (truncated for display).
    Manifest {
        line: usize,
        snippet: String,
        message: String,
    },
    /// A checkpoint exists but its contents are unusable.
    Checkpoint { message: String },
    /// A checkpoint (or stored payload) was written by an incompatible
    /// schema version.
    SchemaVersion { found: u32, expected: u32 },
    /// The session was assembled inconsistently (e.g. no finder).
    InvalidConfig { message: String },
    /// The session (or the stage driving it) failed unexpectedly — e.g.
    /// a panic caught at an execution boundary so one bad job cannot
    /// take a long-lived worker down with it.
    Internal { message: String },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownDomain { id } => write!(f, "unknown domain id '{id}'"),
            SessionError::Manifest {
                line,
                snippet,
                message,
            } => write!(f, "manifest line {line}: {message} (near `{snippet}`)"),
            SessionError::Checkpoint { message } => {
                write!(f, "unusable session checkpoint: {message}")
            }
            SessionError::SchemaVersion { found, expected } => write!(
                f,
                "checkpoint schema version {found} is not supported (expected {expected})"
            ),
            SessionError::InvalidConfig { message } => {
                write!(f, "invalid session configuration: {message}")
            }
            SessionError::Internal { message } => {
                write!(f, "internal session failure: {message}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

// --------------------------------------------------------------- budgets

/// Execution budgets, all optional and all enforced at event boundaries
/// (granularity: one pipeline stage). A session stopped by a budget emits
/// [`SessionEvent::Finished`] with the matching [`FinishReason`], carries
/// the partial result, and remains resumable from its checkpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionBudgets {
    /// Cumulative wall-clock cap in milliseconds, counted across resumed
    /// segments (a session resumed after 300ms of a 500ms deadline has
    /// 200ms left, regardless of how long the checkpoint sat on disk).
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Cap on analyzer invocations (finder calls).
    #[serde(default)]
    pub max_analyzer_calls: Option<usize>,
    /// Cap on LP simplex iterations (primal + dual) the session's own
    /// stages made on its thread (`xplain_lp::counters`). What other jobs
    /// solve meanwhile does not count, so the cap fires at the same event
    /// however many workers run beside it.
    #[serde(default)]
    pub max_solver_iterations: Option<u64>,
}

impl SessionBudgets {
    /// No limits — the batch default.
    pub fn unlimited() -> Self {
        SessionBudgets::default()
    }

    pub fn is_unlimited(&self) -> bool {
        *self == SessionBudgets::default()
    }
}

/// Cooperative cancellation handle. Clone it, hand one side to the
/// session and keep the other; [`CancelToken::cancel`] makes the session
/// finish (with reason [`FinishReason::Cancelled`]) at its next check —
/// between events, or inside the analyzer search via [`StopFlag`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation (idempotent, thread-safe).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The raw flag, in the shape the analyzer's search accepts
    /// (`SearchOptions::stop`) so one token interrupts both layers.
    pub fn stop_flag(&self) -> StopFlag {
        self.flag.clone()
    }
}

// ---------------------------------------------------------------- events

/// Why a session's event stream terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FinishReason {
    /// The analyzer found no adversarial input outside the exclusions.
    SpaceExhausted,
    /// The newest gap fell below `min_gap_frac` of the first gap.
    GapBelowThreshold,
    /// `max_subspaces` significant findings collected.
    MaxSubspaces,
    /// Too many consecutive insignificant regions
    /// (`max_insignificant_retries`).
    InsignificantRetriesExhausted,
    /// [`SessionBudgets::deadline_ms`] elapsed.
    DeadlineExceeded,
    /// [`SessionBudgets::max_analyzer_calls`] reached.
    AnalyzerBudgetExhausted,
    /// [`SessionBudgets::max_solver_iterations`] reached.
    SolverBudgetExhausted,
    /// The [`CancelToken`] fired.
    Cancelled,
}

impl FinishReason {
    /// Natural completions ran the loop to its own stopping rule (and the
    /// coverage estimate); the rest stopped early, left `coverage` unset,
    /// and can be resumed from a checkpoint.
    pub fn is_natural(&self) -> bool {
        matches!(
            self,
            FinishReason::SpaceExhausted
                | FinishReason::GapBelowThreshold
                | FinishReason::MaxSubspaces
                | FinishReason::InsignificantRetriesExhausted
        )
    }
}

/// One step of the iterate-and-exclude loop, emitted as it completes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum SessionEvent {
    /// The analyzer ran. `gap` is `None` when no adversarial input was
    /// found; `accepted` is false when the probe ends the loop (space
    /// exhausted, or gap below the interest threshold).
    AnalyzerProbe {
        call: usize,
        gap: Option<f64>,
        accepted: bool,
    },
    /// The subspace generator grew a region around the probe point.
    /// `index` is the would-be finding index (== number of findings so
    /// far).
    SubspaceGrown { index: usize, subspace: Subspace },
    /// The significance checker ruled on the grown region.
    SignificanceVerdict {
        index: usize,
        significant: bool,
        report: Option<SignificanceReport>,
    },
    /// A significant finding is complete — delivered the moment it
    /// clears the checker (plus the explainer, when the domain has a DSL
    /// mapper; `finding.explanation` is `None` otherwise).
    ExplanationReady {
        index: usize,
        finding: SubspaceFinding,
    },
    /// An insignificant region was excluded and the re-examination budget
    /// ticked down. `exhausted` means the retry budget is spent and the
    /// loop ends.
    InsignificantRetry { strikes: usize, exhausted: bool },
    /// The final Monte-Carlo risk-surface coverage estimate (natural
    /// completions only, and only when configured).
    CoverageEstimated { report: CoverageReport },
    /// Terminal event: the assembled [`PipelineResult`] (partial when the
    /// reason is non-natural) and why the stream ended. Always the last
    /// event of a stream.
    Finished {
        reason: FinishReason,
        result: PipelineResult,
    },
}

impl SessionEvent {
    /// Short machine-friendly tag (NDJSON consumers key on this).
    pub fn kind(&self) -> &'static str {
        match self {
            SessionEvent::AnalyzerProbe { .. } => "analyzer_probe",
            SessionEvent::SubspaceGrown { .. } => "subspace_grown",
            SessionEvent::SignificanceVerdict { .. } => "significance_verdict",
            SessionEvent::ExplanationReady { .. } => "explanation_ready",
            SessionEvent::InsignificantRetry { .. } => "insignificant_retry",
            SessionEvent::CoverageEstimated { .. } => "coverage_estimated",
            SessionEvent::Finished { .. } => "finished",
        }
    }
}

// ------------------------------------------------------------ checkpoint

/// Where the loop stands, between two events. Payload-carrying phases
/// persist the intermediate artifact so a resumed session continues
/// *mid-iteration*, not from the top of the loop.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Phase {
    /// Next: run the analyzer (or conclude the loop).
    Probe,
    /// Next: grow a subspace around this probe.
    Grow { adv: Adversarial },
    /// Next: significance-check this subspace.
    Check { subspace: Subspace },
    /// Next: bookkeeping for an insignificant region.
    Retry,
    /// Next: explain and deliver this significant finding.
    Explain {
        subspace: Subspace,
        significance: Option<SignificanceReport>,
    },
    /// Next: the final coverage estimate (if configured), then finish.
    Coverage { reason: FinishReason },
    /// Next: emit [`SessionEvent::Finished`] (idempotent on resume).
    Finishing { reason: FinishReason },
}

/// Full serialized bit-stream state of the RNG, hex-encoded because the
/// state words are full-range `u64`s and the JSON layer is f64-backed
/// (integers beyond 2^53 do not survive it).
mod rng_state_serde {
    pub fn serialize(words: &[u64; 4]) -> serde::Value {
        serde::Value::Seq(
            words
                .iter()
                .map(|w| serde::Value::Str(format!("{w:016x}")))
                .collect(),
        )
    }

    pub fn deserialize(v: &serde::Value) -> Result<[u64; 4], serde::de::Error> {
        let seq = v
            .as_seq()
            .ok_or_else(|| serde::de::Error::custom("rng state: expected sequence"))?;
        if seq.len() != 4 {
            return Err(serde::de::Error::custom(format!(
                "rng state: expected 4 words, got {}",
                seq.len()
            )));
        }
        let mut words = [0u64; 4];
        for (i, w) in seq.iter().enumerate() {
            let s = w
                .as_str()
                .ok_or_else(|| serde::de::Error::custom("rng state: expected hex string"))?;
            words[i] = u64::from_str_radix(s, 16)
                .map_err(|e| serde::de::Error::custom(format!("rng state word {i}: {e}")))?;
        }
        Ok(words)
    }
}

/// Complete, serializable session state at an event boundary.
///
/// A checkpoint restored through [`SessionBuilder::resume_from`] (with
/// the same domain components and config) continues the event stream
/// exactly where it stopped; the final result is byte-identical to an
/// uninterrupted run apart from `wall_time_ms`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// [`SESSION_CHECKPOINT_SCHEMA_VERSION`] at write time.
    #[serde(default)]
    pub schema_version: u32,
    /// The config the session runs under (a resumed session always uses
    /// the checkpoint's config — budgets, by contrast, are supplied
    /// fresh by the builder).
    pub config: PipelineConfig,
    phase: Phase,
    exclusions: Vec<Polytope>,
    findings: Vec<SubspaceFinding>,
    rejected: usize,
    analyzer_calls: usize,
    oracle_evaluations: usize,
    first_gap: Option<f64>,
    insignificant_strikes: usize,
    coverage: Option<CoverageReport>,
    #[serde(with = "rng_state_serde")]
    rng_state: [u64; 4],
    /// Cumulative wall-clock across all segments, microseconds.
    elapsed_us: u64,
    /// Cumulative solver work across all segments.
    solver: SolverCounters,
    /// Events emitted so far (diagnostics; not part of the replay state).
    pub events_emitted: u64,
}

impl SessionCheckpoint {
    fn fresh(config: PipelineConfig) -> Self {
        let rng_state = StdRng::seed_from_u64(config.seed).state();
        SessionCheckpoint {
            schema_version: SESSION_CHECKPOINT_SCHEMA_VERSION,
            config,
            phase: Phase::Probe,
            exclusions: Vec::new(),
            findings: Vec::new(),
            rejected: 0,
            analyzer_calls: 0,
            oracle_evaluations: 0,
            first_gap: None,
            insignificant_strikes: 0,
            coverage: None,
            rng_state,
            elapsed_us: 0,
            solver: SolverCounters::default(),
            events_emitted: 0,
        }
    }

    /// Findings delivered so far (useful when inspecting a checkpoint
    /// without resuming it).
    pub fn findings(&self) -> &[SubspaceFinding] {
        &self.findings
    }

    /// Whether the checkpointed session had already finished naturally
    /// (resuming such a checkpoint just re-emits `Finished`).
    pub fn is_finished(&self) -> bool {
        matches!(self.phase, Phase::Finishing { .. })
    }
}

// --------------------------------------------------------------- builder

/// The adversarial-input finder a session drives. `FnMut` (not `Fn`) so
/// stateful finders — e.g. ones maintaining a solver session pool — fit.
pub type SessionFinder<'a> = Box<dyn FnMut(&[Polytope], &mut StdRng) -> Option<Adversarial> + 'a>;

/// Assembles an [`AnalysisSession`] from domain components, pipeline
/// config, budgets, a cancel token, and optionally a checkpoint to
/// resume.
pub struct SessionBuilder<'a> {
    oracle: Box<dyn GapOracle + 'a>,
    mapper: Option<Box<dyn DslMapper + 'a>>,
    features: Option<FeatureMap>,
    finder: Option<SessionFinder<'a>>,
    config: PipelineConfig,
    budgets: SessionBudgets,
    cancel: CancelToken,
    checkpoint: Option<SessionCheckpoint>,
}

impl<'a> SessionBuilder<'a> {
    /// Start from a gap oracle (owned, or a `&dyn GapOracle` borrow — the
    /// reference blanket-impl forwards).
    pub fn new(oracle: impl GapOracle + 'a) -> Self {
        Self::from_boxed(Box::new(oracle))
    }

    /// Start from an already-boxed oracle (the shape `Domain::oracle()`
    /// factories produce).
    pub fn from_boxed(oracle: Box<dyn GapOracle + 'a>) -> Self {
        SessionBuilder {
            oracle,
            mapper: None,
            features: None,
            finder: None,
            config: PipelineConfig::default(),
            budgets: SessionBudgets::unlimited(),
            cancel: CancelToken::new(),
            checkpoint: None,
        }
    }

    /// Enable the Type-2 explainer stage.
    pub fn mapper(mut self, mapper: impl DslMapper + 'a) -> Self {
        self.mapper = Some(Box::new(mapper));
        self
    }

    /// Enable the explainer stage with an already-boxed mapper (the shape
    /// `Domain::mapper()` factories produce).
    pub fn mapper_boxed(mut self, mapper: Box<dyn DslMapper + 'a>) -> Self {
        self.mapper = Some(mapper);
        self
    }

    /// Feature schema for tree refinement (default: the paper's
    /// identity-plus-sum map over the oracle's dimensions).
    pub fn features(mut self, features: FeatureMap) -> Self {
        self.features = Some(features);
        self
    }

    /// The adversarial-input finder (required).
    pub fn finder(
        mut self,
        finder: impl FnMut(&[Polytope], &mut StdRng) -> Option<Adversarial> + 'a,
    ) -> Self {
        self.finder = Some(Box::new(finder));
        self
    }

    pub fn config(mut self, config: PipelineConfig) -> Self {
        self.config = config;
        self
    }

    pub fn budgets(mut self, budgets: SessionBudgets) -> Self {
        self.budgets = budgets;
        self
    }

    /// Shorthand for a wall-clock deadline budget.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.budgets.deadline_ms = Some(ms);
        self
    }

    /// Shorthand for an analyzer-call budget.
    pub fn max_analyzer_calls(mut self, calls: usize) -> Self {
        self.budgets.max_analyzer_calls = Some(calls);
        self
    }

    /// Shorthand for a solver-iteration budget.
    pub fn max_solver_iterations(mut self, iterations: u64) -> Self {
        self.budgets.max_solver_iterations = Some(iterations);
        self
    }

    /// Observe/raise cancellation through this token (callers keep a
    /// clone).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Continue from a checkpoint instead of starting fresh. The
    /// checkpoint's config wins over any `config(...)` set on the
    /// builder; budgets and cancellation are taken from the builder
    /// (fresh limits for the new segment — `deadline_ms` still counts
    /// cumulative elapsed time recorded in the checkpoint).
    pub fn resume_from(mut self, checkpoint: SessionCheckpoint) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    pub fn build(self) -> Result<AnalysisSession<'a>, SessionError> {
        let finder = self.finder.ok_or_else(|| SessionError::InvalidConfig {
            message: "an adversarial-input finder is required".to_string(),
        })?;
        let dims = self.oracle.dims();
        let state = match self.checkpoint {
            Some(cp) => {
                if cp.schema_version != SESSION_CHECKPOINT_SCHEMA_VERSION {
                    return Err(SessionError::SchemaVersion {
                        found: cp.schema_version,
                        expected: SESSION_CHECKPOINT_SCHEMA_VERSION,
                    });
                }
                let bad_dims = cp
                    .exclusions
                    .iter()
                    .flat_map(|p| p.halfspaces.iter())
                    .any(|h| h.coeffs.len() != dims)
                    || cp.findings.iter().any(|f| f.subspace.seed.len() != dims);
                if bad_dims {
                    return Err(SessionError::Checkpoint {
                        message: format!(
                            "checkpoint geometry does not match the oracle's {dims} dimensions"
                        ),
                    });
                }
                cp
            }
            None => SessionCheckpoint::fresh(self.config),
        };
        let features = self
            .features
            .unwrap_or_else(|| FeatureMap::identity_with_sum(dims, &self.oracle.dim_names()));
        let rng = StdRng::from_state(state.rng_state);
        Ok(AnalysisSession {
            oracle: self.oracle,
            mapper: self.mapper,
            features,
            finder,
            budgets: self.budgets,
            cancel: self.cancel,
            state,
            rng,
            exhausted: false,
        })
    }
}

// --------------------------------------------------------------- session

/// The streaming pipeline state machine. See the module docs for the
/// event/budget/resume contracts.
pub struct AnalysisSession<'a> {
    oracle: Box<dyn GapOracle + 'a>,
    mapper: Option<Box<dyn DslMapper + 'a>>,
    features: FeatureMap,
    finder: SessionFinder<'a>,
    budgets: SessionBudgets,
    cancel: CancelToken,
    state: SessionCheckpoint,
    rng: StdRng,
    /// `Finished` emitted by *this* object — the stream is over.
    exhausted: bool,
}

impl<'a> AnalysisSession<'a> {
    /// Pull the next event. `None` once `Finished` has been emitted.
    pub fn next_event(&mut self) -> Option<SessionEvent> {
        if self.exhausted {
            return None;
        }
        let event = loop {
            // Interruption guards, at event (stage) granularity. A
            // session already in its finishing step just finishes.
            if !matches!(self.state.phase, Phase::Finishing { .. }) {
                if self.cancel.is_cancelled() {
                    break self.interrupt(FinishReason::Cancelled);
                }
                if self
                    .budgets
                    .deadline_ms
                    .is_some_and(|d| self.state.elapsed_us / 1000 >= d)
                {
                    break self.interrupt(FinishReason::DeadlineExceeded);
                }
                let spent_iterations =
                    self.state.solver.lp_iterations + self.state.solver.lp_dual_iterations;
                if self
                    .budgets
                    .max_solver_iterations
                    .is_some_and(|m| spent_iterations >= m)
                {
                    break self.interrupt(FinishReason::SolverBudgetExhausted);
                }
            }
            match self.step() {
                Some(event) => break event,
                None => continue, // silent transition, keep stepping
            }
        };
        self.state.events_emitted += 1;
        Some(event)
    }

    /// Snapshot the state at the current event boundary. Hand the result
    /// to [`SessionBuilder::resume_from`] (with the same domain
    /// components) to continue the stream later — in this process or
    /// another.
    pub fn checkpoint(&self) -> SessionCheckpoint {
        let mut cp = self.state.clone();
        cp.rng_state = self.rng.state();
        cp
    }

    /// Whether the loop ran to its own stopping rule (as opposed to a
    /// budget/cancellation interrupt, or not being done yet).
    pub fn finished_naturally(&self) -> bool {
        self.state.is_finished()
    }

    /// The budgets this session enforces.
    pub fn budgets(&self) -> &SessionBudgets {
        &self.budgets
    }

    /// Drain the stream, forwarding every event to `observer`, and return
    /// the terminal result (partial if a budget or cancellation stopped
    /// the session first).
    pub fn drain_with(&mut self, mut observer: impl FnMut(&SessionEvent)) -> PipelineResult {
        let mut result = None;
        while let Some(event) = self.next_event() {
            if let SessionEvent::Finished { result: r, .. } = &event {
                result = Some(r.clone());
            }
            observer(&event);
        }
        result.expect("an unexhausted session always terminates with Finished")
    }

    /// Drain the stream discarding intermediate events — the batch path
    /// (`run_pipeline` is exactly this).
    pub fn drain(&mut self) -> PipelineResult {
        self.drain_with(|_| {})
    }

    // ------------------------------------------------------------ steps

    /// Run one micro-step: returns the event it produced, or `None` for a
    /// silent phase transition.
    fn step(&mut self) -> Option<SessionEvent> {
        match self.state.phase.clone() {
            Phase::Probe => self.step_probe(),
            Phase::Grow { adv } => Some(self.step_grow(adv)),
            Phase::Check { subspace } => Some(self.step_check(subspace)),
            Phase::Retry => Some(self.step_retry()),
            Phase::Explain {
                subspace,
                significance,
            } => Some(self.step_explain(subspace, significance)),
            Phase::Coverage { reason } => self.step_coverage(reason),
            Phase::Finishing { reason } => {
                self.exhausted = true;
                Some(SessionEvent::Finished {
                    reason,
                    result: self.assemble_result(),
                })
            }
        }
    }

    /// Emit `Finished` for a budget/cancellation interrupt *without*
    /// advancing the phase — the checkpoint stays resumable mid-loop.
    fn interrupt(&mut self, reason: FinishReason) -> SessionEvent {
        self.exhausted = true;
        SessionEvent::Finished {
            reason,
            result: self.assemble_result(),
        }
    }

    fn step_probe(&mut self) -> Option<SessionEvent> {
        if self.state.findings.len() >= self.state.config.max_subspaces {
            self.state.phase = Phase::Coverage {
                reason: FinishReason::MaxSubspaces,
            };
            return None;
        }
        if self
            .budgets
            .max_analyzer_calls
            .is_some_and(|m| self.state.analyzer_calls >= m)
        {
            return Some(self.interrupt(FinishReason::AnalyzerBudgetExhausted));
        }

        // Run the finder on a scratch RNG: if cancellation aborts the
        // search mid-stream, the step is discarded wholesale and the
        // resumed session replays it from the last event boundary —
        // that's what keeps interrupted runs byte-identical.
        let mut probe_rng = self.rng.clone();
        let adv = self.timed(|s| (s.finder)(&s.state.exclusions, &mut probe_rng));
        if self.cancel.is_cancelled() {
            return Some(self.interrupt(FinishReason::Cancelled));
        }
        self.rng = probe_rng;
        self.state.analyzer_calls += 1;
        let call = self.state.analyzer_calls;

        Some(match adv {
            None => {
                self.state.phase = Phase::Coverage {
                    reason: FinishReason::SpaceExhausted,
                };
                SessionEvent::AnalyzerProbe {
                    call,
                    gap: None,
                    accepted: false,
                }
            }
            Some(adv) => {
                let reference = *self.state.first_gap.get_or_insert(adv.gap);
                if adv.gap < self.state.config.min_gap_frac * reference {
                    self.state.phase = Phase::Coverage {
                        reason: FinishReason::GapBelowThreshold,
                    };
                    SessionEvent::AnalyzerProbe {
                        call,
                        gap: Some(adv.gap),
                        accepted: false,
                    }
                } else {
                    let gap = adv.gap;
                    self.state.phase = Phase::Grow { adv };
                    SessionEvent::AnalyzerProbe {
                        call,
                        gap: Some(gap),
                        accepted: true,
                    }
                }
            }
        })
    }

    fn step_grow(&mut self, adv: Adversarial) -> SessionEvent {
        let subspace = self.timed(|s| {
            grow_subspace(
                s.oracle.as_ref(),
                &adv,
                &s.features,
                &s.state.config.subspace,
                &mut s.rng,
            )
        });
        self.state.oracle_evaluations += subspace.evaluations;
        let event = SessionEvent::SubspaceGrown {
            index: self.state.findings.len(),
            subspace: subspace.clone(),
        };
        self.state.phase = Phase::Check { subspace };
        event
    }

    fn step_check(&mut self, subspace: Subspace) -> SessionEvent {
        let significance = self.timed(|s| {
            check_significance(
                s.oracle.as_ref(),
                &subspace,
                &s.state.config.significance,
                &mut s.rng,
            )
            .ok()
        });
        self.state.oracle_evaluations += self.state.config.significance.pairs * 2;
        let significant = significance.as_ref().is_some_and(|r| r.significant);
        // Exclude the region either way so the finder moves on.
        self.state.exclusions.push(subspace.polytope.clone());
        let event = SessionEvent::SignificanceVerdict {
            index: self.state.findings.len(),
            significant,
            report: significance.clone(),
        };
        self.state.phase = if significant {
            Phase::Explain {
                subspace,
                significance,
            }
        } else {
            Phase::Retry
        };
        event
    }

    fn step_retry(&mut self) -> SessionEvent {
        self.state.rejected += 1;
        self.state.insignificant_strikes += 1;
        let exhausted =
            self.state.insignificant_strikes > self.state.config.max_insignificant_retries;
        let event = SessionEvent::InsignificantRetry {
            strikes: self.state.insignificant_strikes,
            exhausted,
        };
        self.state.phase = if exhausted {
            Phase::Coverage {
                reason: FinishReason::InsignificantRetriesExhausted,
            }
        } else {
            Phase::Probe
        };
        event
    }

    fn step_explain(
        &mut self,
        subspace: Subspace,
        significance: Option<SignificanceReport>,
    ) -> SessionEvent {
        self.state.insignificant_strikes = 0;
        let explainer_seed = self.state.config.seed ^ (self.state.findings.len() as u64 + 1);
        let explanation = self.timed(|s| {
            s.mapper.as_ref().map(|m| {
                explain(
                    m.as_ref(),
                    &subspace,
                    &s.state.config.explainer,
                    explainer_seed,
                )
            })
        });
        if let Some(e) = &explanation {
            self.state.oracle_evaluations += e.samples_used * 2;
        }
        // The subspace's seed is the analyzer point that triggered this
        // finding — capture it as a replayable witness before the move.
        let witness = Some(crate::pipeline::Witness {
            input: subspace.seed.clone(),
            gap: subspace.seed_gap,
        });
        let finding = SubspaceFinding {
            subspace,
            significance,
            explanation,
            witness,
        };
        self.state.findings.push(finding.clone());
        let event = SessionEvent::ExplanationReady {
            index: self.state.findings.len() - 1,
            finding,
        };
        self.state.phase = Phase::Probe;
        event
    }

    fn step_coverage(&mut self, reason: FinishReason) -> Option<SessionEvent> {
        let config = &self.state.config;
        let event = if config.coverage_samples > 0 && !self.state.findings.is_empty() {
            let threshold = config.min_gap_frac * self.state.first_gap.unwrap_or(0.0);
            let samples = config.coverage_samples;
            let subspaces: Vec<Subspace> = self
                .state
                .findings
                .iter()
                .map(|f| f.subspace.clone())
                .collect();
            let report = self.timed(|s| {
                estimate_coverage(
                    s.oracle.as_ref(),
                    &subspaces,
                    threshold.max(1e-9),
                    samples,
                    &mut s.rng,
                )
            });
            self.state.oracle_evaluations += report.samples;
            self.state.coverage = Some(report.clone());
            Some(SessionEvent::CoverageEstimated { report })
        } else {
            None
        };
        self.state.phase = Phase::Finishing { reason };
        event
    }

    fn assemble_result(&self) -> PipelineResult {
        PipelineResult {
            schema_version: PIPELINE_SCHEMA_VERSION,
            findings: self.state.findings.clone(),
            rejected: self.state.rejected,
            analyzer_calls: self.state.analyzer_calls,
            coverage: self.state.coverage.clone(),
            oracle_evaluations: self.state.oracle_evaluations,
            wall_time_ms: self.state.elapsed_us / 1000,
            solver: self.state.solver,
        }
    }

    /// Run a stage under wall-clock + solver-counter accounting, so the
    /// accumulated totals match what a single delta around an
    /// uninterrupted run would report. The counters are this thread's,
    /// so the delta is the stage's own work.
    fn timed<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let t0 = std::time::Instant::now();
        let before = SolverCounters::snapshot();
        let out = f(self);
        self.state.solver = self
            .state
            .solver
            .plus(&SolverCounters::snapshot().since(&before));
        self.state.elapsed_us += t0.elapsed().as_micros() as u64;
        out
    }
}

impl Iterator for AnalysisSession<'_> {
    type Item = SessionEvent;

    fn next(&mut self) -> Option<SessionEvent> {
        self.next_event()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_pipeline;
    use crate::subspace::SubspaceParams;
    use crate::{ExplainerParams, SignificanceParams};
    use xplain_analyzer::search::{find_adversarial, SearchOptions};

    /// The pipeline module's synthetic corner oracle, shared shape.
    struct CornerOracle;

    impl GapOracle for CornerOracle {
        fn dims(&self) -> usize {
            2
        }
        fn bounds(&self) -> Vec<(f64, f64)> {
            vec![(0.0, 1.0); 2]
        }
        fn gap(&self, x: &[f64]) -> f64 {
            if x.iter().any(|v| !v.is_finite()) {
                return f64::NEG_INFINITY;
            }
            if x[0] > 0.7 && x[1] > 0.7 {
                (x[0] + x[1] - 1.4) * 10.0
            } else {
                0.0
            }
        }
    }

    fn fast_config() -> PipelineConfig {
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
                pairs: 60,
                ..Default::default()
            },
            explainer: ExplainerParams {
                samples: 150,
                ..Default::default()
            },
            coverage_samples: 400,
            ..Default::default()
        }
    }

    fn corner_session(config: &PipelineConfig) -> AnalysisSession<'static> {
        let search = SearchOptions {
            seeds: vec![vec![1.0, 1.0], vec![0.8, 0.8]],
            ..Default::default()
        };
        SessionBuilder::new(CornerOracle)
            .config(config.clone())
            .finder(move |excl: &[Polytope], rng: &mut StdRng| {
                find_adversarial(&CornerOracle, excl, &search, rng)
            })
            .build()
            .expect("fresh session builds")
    }

    fn normalized(result: &PipelineResult) -> String {
        let mut r = result.clone();
        r.wall_time_ms = 0; // execution metadata, nondeterministic
        serde_json::to_string(&r).unwrap()
    }

    #[test]
    fn event_stream_matches_batch_result() {
        let config = fast_config();
        let mut session = corner_session(&config);
        let mut events = Vec::new();
        let streamed = session.drain_with(|e| events.push(e.kind()));
        assert!(matches!(events.last(), Some(&"finished")));
        assert!(events.contains(&"analyzer_probe"));
        assert!(events.contains(&"subspace_grown"));
        assert!(events.contains(&"significance_verdict"));
        assert!(events.contains(&"explanation_ready"));
        assert!(events.contains(&"coverage_estimated"));
        assert!(session.finished_naturally());

        // The batch entry point is a drain over the same machine.
        let oracle = CornerOracle;
        let features = FeatureMap::identity_with_sum(2, &oracle.dim_names());
        let search = SearchOptions {
            seeds: vec![vec![1.0, 1.0], vec![0.8, 0.8]],
            ..Default::default()
        };
        let finder = move |excl: &[Polytope], rng: &mut StdRng| {
            find_adversarial(&oracle, excl, &search, rng)
        };
        let batch = run_pipeline(&CornerOracle, None, &features, &finder, &config);
        assert_eq!(normalized(&streamed), normalized(&batch));
    }

    #[test]
    fn findings_arrive_before_the_stream_ends() {
        let mut session = corner_session(&fast_config());
        let mut first_finding_at = None;
        let mut total = 0usize;
        for (i, event) in session.by_ref().enumerate() {
            total = i + 1;
            if first_finding_at.is_none() && matches!(event, SessionEvent::ExplanationReady { .. })
            {
                first_finding_at = Some(i);
            }
        }
        let at = first_finding_at.expect("corner oracle yields a finding");
        assert!(
            at + 1 < total,
            "finding delivered only at stream end ({at} of {total})"
        );
    }

    #[test]
    fn iterator_and_pull_are_the_same_stream() {
        let config = fast_config();
        let pulled: Vec<String> = {
            let mut s = corner_session(&config);
            let mut kinds = Vec::new();
            while let Some(e) = s.next_event() {
                kinds.push(e.kind().to_string());
            }
            kinds
        };
        let iterated: Vec<String> = corner_session(&config)
            .map(|e| e.kind().to_string())
            .collect();
        assert_eq!(pulled, iterated);
    }

    #[test]
    fn interrupt_after_every_event_and_resume_identically() {
        let config = fast_config();
        let reference = corner_session(&config).drain();

        // Stop after every event index k, checkpoint, resume, and demand
        // the identical final result — the determinism-under-interruption
        // contract, at the core layer.
        let total_events = corner_session(&config).count();
        for k in 0..total_events {
            let mut session = corner_session(&config);
            for _ in 0..k {
                session.next_event().expect("event before interruption");
            }
            let checkpoint = session.checkpoint();
            let mut resumed = SessionBuilder::new(CornerOracle)
                .finder({
                    let search = SearchOptions {
                        seeds: vec![vec![1.0, 1.0], vec![0.8, 0.8]],
                        ..Default::default()
                    };
                    move |excl: &[Polytope], rng: &mut StdRng| {
                        find_adversarial(&CornerOracle, excl, &search, rng)
                    }
                })
                .resume_from(checkpoint)
                .build()
                .expect("checkpoint resumes");
            let result = resumed.drain();
            assert_eq!(
                normalized(&reference),
                normalized(&result),
                "resume after event {k} diverged"
            );
        }
    }

    #[test]
    fn cancelled_session_emits_partial_finished_and_resumes() {
        let config = fast_config();
        let cancel = CancelToken::new();
        let mut session = corner_session(&config);
        // Consume two events, then cancel.
        session.next_event().unwrap();
        session.next_event().unwrap();
        cancel.cancel();
        // The session was built with its own token; attach ours instead.
        let checkpoint = session.checkpoint();
        let search = SearchOptions {
            seeds: vec![vec![1.0, 1.0], vec![0.8, 0.8]],
            ..Default::default()
        };
        let mut cancelled = SessionBuilder::new(CornerOracle)
            .finder(move |excl: &[Polytope], rng: &mut StdRng| {
                find_adversarial(&CornerOracle, excl, &search, rng)
            })
            .cancel_token(cancel.clone())
            .resume_from(checkpoint.clone())
            .build()
            .unwrap();
        let Some(SessionEvent::Finished { reason, .. }) = cancelled.next_event() else {
            panic!("cancelled session must emit Finished immediately");
        };
        assert_eq!(reason, FinishReason::Cancelled);
        assert!(!cancelled.finished_naturally());
        assert!(
            cancelled.next_event().is_none(),
            "stream ends after Finished"
        );

        // The same checkpoint without the cancelled token runs to the end.
        let search2 = SearchOptions {
            seeds: vec![vec![1.0, 1.0], vec![0.8, 0.8]],
            ..Default::default()
        };
        let mut resumed = SessionBuilder::new(CornerOracle)
            .finder(move |excl: &[Polytope], rng: &mut StdRng| {
                find_adversarial(&CornerOracle, excl, &search2, rng)
            })
            .resume_from(checkpoint)
            .build()
            .unwrap();
        let reference = corner_session(&config).drain();
        assert_eq!(normalized(&reference), normalized(&resumed.drain()));
    }

    #[test]
    fn analyzer_budget_stops_early_with_partial_result() {
        let session = corner_session(&fast_config());
        // Rebuild with a 1-call budget.
        let checkpoint = session.checkpoint();
        let search = SearchOptions {
            seeds: vec![vec![1.0, 1.0], vec![0.8, 0.8]],
            ..Default::default()
        };
        let mut budgeted = SessionBuilder::new(CornerOracle)
            .finder(move |excl: &[Polytope], rng: &mut StdRng| {
                find_adversarial(&CornerOracle, excl, &search, rng)
            })
            .max_analyzer_calls(1)
            .resume_from(checkpoint)
            .build()
            .unwrap();
        let mut finished = None;
        while let Some(event) = budgeted.next_event() {
            if let SessionEvent::Finished { reason, result } = event {
                finished = Some((reason, result));
            }
        }
        let (reason, result) = finished.unwrap();
        assert_eq!(reason, FinishReason::AnalyzerBudgetExhausted);
        assert_eq!(result.analyzer_calls, 1);
        assert!(result.coverage.is_none(), "interrupted runs skip coverage");
        assert!(!budgeted.finished_naturally());
    }

    #[test]
    fn deadline_zero_finishes_immediately() {
        let config = fast_config();
        let search = SearchOptions {
            seeds: vec![vec![1.0, 1.0]],
            ..Default::default()
        };
        let mut session = SessionBuilder::new(CornerOracle)
            .config(config)
            .finder(move |excl: &[Polytope], rng: &mut StdRng| {
                find_adversarial(&CornerOracle, excl, &search, rng)
            })
            .deadline_ms(0)
            .build()
            .unwrap();
        let Some(SessionEvent::Finished { reason, result }) = session.next_event() else {
            panic!("expected immediate Finished");
        };
        assert_eq!(reason, FinishReason::DeadlineExceeded);
        assert!(result.findings.is_empty());
    }

    #[test]
    fn checkpoint_roundtrips_through_json() {
        let mut session = corner_session(&fast_config());
        for _ in 0..3 {
            session.next_event().unwrap();
        }
        let checkpoint = session.checkpoint();
        let json = serde_json::to_string(&checkpoint).unwrap();
        let back: SessionCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, SESSION_CHECKPOINT_SCHEMA_VERSION);
        assert_eq!(back.events_emitted, 3);

        let search = SearchOptions {
            seeds: vec![vec![1.0, 1.0], vec![0.8, 0.8]],
            ..Default::default()
        };
        let mut resumed = SessionBuilder::new(CornerOracle)
            .finder(move |excl: &[Polytope], rng: &mut StdRng| {
                find_adversarial(&CornerOracle, excl, &search, rng)
            })
            .resume_from(back)
            .build()
            .unwrap();
        let reference = corner_session(&fast_config()).drain();
        let mut resumed_direct = SessionBuilder::new(CornerOracle)
            .finder({
                let search = SearchOptions {
                    seeds: vec![vec![1.0, 1.0], vec![0.8, 0.8]],
                    ..Default::default()
                };
                move |excl: &[Polytope], rng: &mut StdRng| {
                    find_adversarial(&CornerOracle, excl, &search, rng)
                }
            })
            .resume_from(session.checkpoint())
            .build()
            .unwrap();
        assert_eq!(
            normalized(&reference),
            normalized(&resumed.drain()),
            "JSON-roundtripped checkpoint diverged"
        );
        assert_eq!(normalized(&reference), normalized(&resumed_direct.drain()));
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut session = corner_session(&fast_config());
        session.next_event().unwrap();
        let mut checkpoint = session.checkpoint();
        checkpoint.schema_version = 999;
        let err = SessionBuilder::new(CornerOracle)
            .finder(|_: &[Polytope], _: &mut StdRng| None)
            .resume_from(checkpoint)
            .build()
            .err()
            .expect("unknown schema version must be rejected");
        assert_eq!(
            err,
            SessionError::SchemaVersion {
                found: 999,
                expected: SESSION_CHECKPOINT_SCHEMA_VERSION
            }
        );
    }

    #[test]
    fn missing_finder_is_invalid_config() {
        let err = SessionBuilder::new(CornerOracle).build().err().unwrap();
        assert!(matches!(err, SessionError::InvalidConfig { .. }), "{err}");
        assert!(err.to_string().contains("finder"));
    }

    #[test]
    fn finished_checkpoint_re_emits_finished_on_resume() {
        let mut session = corner_session(&fast_config());
        let reference = session.drain();
        let checkpoint = session.checkpoint();
        assert!(checkpoint.is_finished());
        let mut resumed = SessionBuilder::new(CornerOracle)
            .finder(|_: &[Polytope], _: &mut StdRng| None)
            .resume_from(checkpoint)
            .build()
            .unwrap();
        let Some(SessionEvent::Finished { reason, result }) = resumed.next_event() else {
            panic!("finished checkpoint must re-emit Finished");
        };
        assert!(reason.is_natural());
        assert_eq!(normalized(&reference), normalized(&result));
        assert!(resumed.next_event().is_none());
    }

    #[test]
    fn session_error_display_is_informative() {
        let e = SessionError::Manifest {
            line: 3,
            snippet: "{not json}".into(),
            message: "expected value".into(),
        };
        let s = e.to_string();
        assert!(s.contains("line 3") && s.contains("{not json}"), "{s}");
        assert!(SessionError::UnknownDomain { id: "zz".into() }
            .to_string()
            .contains("'zz'"));
    }
}
