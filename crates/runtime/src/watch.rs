//! The NDJSON event wire format shared by `runner --watch` and the
//! `xplain-serve` streaming endpoint.
//!
//! One [`WatchLine`] per session event: `{"job", "domain", "kind",
//! "solver", "event"}`. Because both the CLI sink and the HTTP event
//! stream serialize through [`watch_line`], a job streamed over HTTP is
//! byte-identical to the same job watched from the batch runner — the
//! property the serve smoke test pins (terminal lines excepted only for
//! the nondeterministic `wall_time_ms` execution metadata inside the
//! embedded result).
//!
//! `solver` is populated on terminal (`"finished"`) lines only and
//! carries the session's accumulated [`SolverCounters`]: the job's own
//! solver work, the numbers the batch summary table prints from
//! `JobOutcome::solver`.

use serde::{Deserialize, Serialize};
use xplain_core::session::SessionEvent;
use xplain_lp::SolverCounters;

/// One NDJSON `--watch` line. Emitted per session event and re-parsed by
/// the `--smoke --watch` CI gate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WatchLine {
    /// Manifest index (batch) or 0 (single HTTP submissions).
    pub job: usize,
    pub domain: String,
    /// [`SessionEvent::kind`] of the embedded event.
    pub kind: String,
    /// The job's solver work — terminal lines only (`None`, serialized
    /// as `null`, elsewhere). Equals `JobOutcome::solver` for a computed
    /// job: cumulative across resumed segments, and the job's own work
    /// however many workers ran beside it.
    #[serde(default)]
    pub solver: Option<SolverCounters>,
    pub event: SessionEvent,
}

impl WatchLine {
    /// Build the line for one event of one job.
    pub fn new(job: usize, domain: &str, event: &SessionEvent) -> Self {
        let solver = match event {
            SessionEvent::Finished { result, .. } => Some(result.solver),
            _ => None,
        };
        WatchLine {
            job,
            domain: domain.to_string(),
            kind: event.kind().to_string(),
            solver,
            event: event.clone(),
        }
    }
}

/// Serialize one event as its NDJSON watch line (no trailing newline).
pub fn watch_line(job: usize, domain: &str, event: &SessionEvent) -> String {
    serde_json::to_string(&WatchLine::new(job, domain, event)).expect("watch lines serialize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use xplain_core::pipeline::{PipelineResult, PIPELINE_SCHEMA_VERSION};
    use xplain_core::session::FinishReason;

    #[test]
    fn non_terminal_lines_have_null_solver() {
        let event = SessionEvent::AnalyzerProbe {
            call: 2,
            gap: Some(1.5),
            accepted: true,
        };
        let line = watch_line(3, "dp", &event);
        let parsed: WatchLine = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed.job, 3);
        assert_eq!(parsed.domain, "dp");
        assert_eq!(parsed.kind, "analyzer_probe");
        assert!(parsed.solver.is_none());
        assert!(matches!(
            parsed.event,
            SessionEvent::AnalyzerProbe { call: 2, .. }
        ));
    }

    #[test]
    fn terminal_lines_carry_the_solver_delta() {
        let mut result = PipelineResult {
            schema_version: PIPELINE_SCHEMA_VERSION,
            findings: Vec::new(),
            rejected: 0,
            analyzer_calls: 1,
            coverage: None,
            oracle_evaluations: 10,
            wall_time_ms: 0,
            solver: SolverCounters::default(),
        };
        result.solver.lp_solves = 42;
        result.solver.lp_warm_hits = 40;
        let event = SessionEvent::Finished {
            reason: FinishReason::SpaceExhausted,
            result,
        };
        let line = watch_line(0, "sched", &event);
        let parsed: WatchLine = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed.kind, "finished");
        let solver = parsed.solver.expect("terminal line carries solver delta");
        assert_eq!(solver.lp_solves, 42);
        assert_eq!(solver.lp_warm_hits, 40);
    }
}
