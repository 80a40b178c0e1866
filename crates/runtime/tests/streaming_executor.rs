//! Executor-level streaming behavior: event sinks, budget enforcement,
//! and checkpoint-resume through `run_manifest_opts` — the API surface
//! `runner --watch/--resume/--deadline-ms/--max-analyzer-calls` drives.
//!
//! Solver counters are per thread, so the tests here compare them as
//! they are, beside each other and beside solves on other threads; only
//! `wall_time_ms` is normalized.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use xplain_core::pipeline::PipelineConfig;
use xplain_core::session::{FinishReason, SessionBudgets, SessionEvent};
use xplain_core::subspace::SubspaceParams;
use xplain_core::{ExplainerParams, PipelineResult, SignificanceParams};
use xplain_lp::{Cmp, Model, Sense};
use xplain_runtime::{
    run_manifest, run_manifest_opts, DomainRegistry, JobOutcome, JobSpec, ResultStore, RunOptions,
};

fn tiny_config() -> PipelineConfig {
    PipelineConfig {
        max_subspaces: 1,
        subspace: SubspaceParams {
            dkw_eps: 0.25,
            dkw_delta: 0.25,
            max_expansions: 6,
            tree_sample_factor: 3,
            ..Default::default()
        },
        significance: SignificanceParams {
            pairs: 40,
            ..Default::default()
        },
        explainer: ExplainerParams {
            samples: 80,
            threads: 1,
            ..Default::default()
        },
        coverage_samples: 100,
        ..Default::default()
    }
}

fn job(domain: &str, budgets: SessionBudgets) -> JobSpec {
    JobSpec {
        domain: domain.into(),
        config: tiny_config(),
        seed: 0x5EED,
        budgets,
    }
}

fn normalized(result: &Option<PipelineResult>) -> String {
    let mut r = result.clone().expect("result present");
    r.wall_time_ms = 0;
    serde_json::to_string(&r).expect("result serializes")
}

fn scratch_store(tag: &str) -> ResultStore {
    let dir = std::env::temp_dir().join(format!(
        "xplain-streaming-exec-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    ResultStore::new(dir)
}

#[test]
fn event_sink_sees_the_whole_stream_in_order() {
    let registry = DomainRegistry::builtin();
    let jobs = vec![job("sched", SessionBudgets::unlimited())];
    let log: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    let sink = |index: usize, event: &SessionEvent| {
        log.lock().unwrap().push((index, event.kind().to_string()));
    };
    let opts = RunOptions {
        budgets_override: None,
        resume: false,
        sink: Some(&sink),
        origin: None,
    };
    let outcomes = run_manifest_opts(&registry, &jobs, None, 1, opts);
    assert!(outcomes[0].error.is_none());
    let finish = outcomes[0].finish.as_ref().expect("session ran");
    assert!(finish.natural);
    assert!(finish.reason.is_natural());
    assert!(!finish.resumed);

    let log = log.into_inner().unwrap();
    assert_eq!(finish.events as usize, log.len());
    let kinds: Vec<&str> = log.iter().map(|(_, k)| k.as_str()).collect();
    assert_eq!(
        kinds.last(),
        Some(&"finished"),
        "stream must end with the terminal event: {kinds:?}"
    );
    assert!(kinds.contains(&"analyzer_probe"));
    assert!(kinds.contains(&"subspace_grown"));
    assert!(kinds.contains(&"significance_verdict"));
    assert!(kinds.contains(&"explanation_ready"));
    // Findings stream before the end, not at it.
    let finding_at = kinds
        .iter()
        .position(|k| *k == "explanation_ready")
        .unwrap();
    assert!(finding_at + 1 < kinds.len());
    assert!(log.iter().all(|(i, _)| *i == 0));
}

#[test]
fn analyzer_budget_stops_job_then_resume_completes_identically() {
    let registry = DomainRegistry::builtin();
    let store = scratch_store("budget-resume");

    // Two subspaces wanted, so a 1-call analyzer budget fires mid-loop
    // (with the tiny 1-subspace config the loop would finish naturally
    // before ever consulting the budget).
    let two_subspace = |budgets| {
        let mut j = job("sched", budgets);
        j.config.max_subspaces = 2;
        j
    };

    // Reference: the unbudgeted result.
    let reference = run_manifest(
        &registry,
        &[two_subspace(SessionBudgets::unlimited())],
        None,
        1,
    );
    assert!(reference[0].finish.as_ref().unwrap().natural);

    // Budgeted: one analyzer call only — stops mid-loop after the first
    // finding, deterministically.
    let budgeted_spec = two_subspace(SessionBudgets {
        max_analyzer_calls: Some(1),
        ..Default::default()
    });
    let opts = RunOptions {
        budgets_override: None,
        resume: true,
        sink: None,
        origin: None,
    };
    let stopped = run_manifest_opts(
        &registry,
        std::slice::from_ref(&budgeted_spec),
        Some(&store),
        1,
        opts,
    );
    let finish = stopped[0].finish.as_ref().expect("session ran");
    assert_eq!(finish.reason, FinishReason::AnalyzerBudgetExhausted);
    assert!(!finish.natural);
    let partial = stopped[0].result.as_ref().expect("partial result present");
    assert_eq!(partial.analyzer_calls, 1);
    assert!(partial.coverage.is_none(), "interrupted runs skip coverage");

    // The partial result must NOT have been cached as the canonical one…
    let derived_config = {
        let mut c = budgeted_spec.config.clone();
        c.seed = stopped[0].derived_seed;
        c
    };
    assert!(
        store.lookup("sched", &derived_config).is_none(),
        "budget-stopped partial result leaked into the result cache"
    );
    // …but its checkpoint must be there.
    assert!(store.load_checkpoint("sched", &derived_config).is_some());

    // Rerun without the budget and with --resume semantics: continues
    // mid-loop and lands on the byte-identical full result.
    let resumed = run_manifest_opts(
        &registry,
        &[two_subspace(SessionBudgets::unlimited())],
        Some(&store),
        1,
        opts,
    );
    let finish = resumed[0].finish.as_ref().expect("session ran");
    assert!(finish.natural);
    assert!(
        finish.resumed,
        "second run must continue from the checkpoint"
    );
    assert_eq!(
        normalized(&reference[0].result),
        normalized(&resumed[0].result)
    );
    // Natural completion commits the result and clears the checkpoint.
    assert!(store.lookup("sched", &derived_config).is_some());
    assert!(store.load_checkpoint("sched", &derived_config).is_none());

    // Third run: pure cache hit.
    let cached = run_manifest_opts(
        &registry,
        &[two_subspace(SessionBudgets::unlimited())],
        Some(&store),
        1,
        opts,
    );
    assert!(cached[0].cache_hit);
    assert_eq!(
        normalized(&reference[0].result),
        normalized(&cached[0].result)
    );

    let _ = std::fs::remove_dir_all(store.dir());
}

#[test]
fn deadline_zero_override_interrupts_every_job() {
    let registry = DomainRegistry::builtin();
    let jobs = vec![
        job("dp", SessionBudgets::unlimited()),
        job("ff", SessionBudgets::unlimited()),
    ];
    let opts = RunOptions {
        budgets_override: Some(SessionBudgets {
            deadline_ms: Some(0),
            ..Default::default()
        }),
        resume: false,
        sink: None,
        origin: None,
    };
    let outcomes = run_manifest_opts(&registry, &jobs, None, 2, opts);
    for o in &outcomes {
        let finish = o.finish.as_ref().expect("session ran");
        assert_eq!(
            finish.reason,
            FinishReason::DeadlineExceeded,
            "{}",
            o.domain
        );
        assert!(!finish.natural);
        let result = o.result.as_ref().unwrap();
        assert!(result.findings.is_empty());
        assert_eq!(result.analyzer_calls, 0);
    }
}

#[test]
fn outcomes_serialize_with_structured_errors_and_finish() {
    let registry = DomainRegistry::builtin();
    let jobs = vec![
        job("sched", SessionBudgets::unlimited()),
        job("no-such", SessionBudgets::unlimited()),
    ];
    let outcomes = run_manifest(&registry, &jobs, None, 1);
    let json = serde_json::to_string(&outcomes).unwrap();
    let back: Vec<xplain_runtime::JobOutcome> = serde_json::from_str(&json).unwrap();
    assert!(back[0].error.is_none());
    assert!(back[0].finish.as_ref().unwrap().natural);
    let err = back[1].error.as_ref().expect("unknown domain errors");
    assert_eq!(
        *err,
        xplain_runtime::SessionError::UnknownDomain {
            id: "no-such".into()
        }
    );
    assert!(back[1].finish.is_none());
}

/// A solver-iteration budget counts the session's own work: a dp job
/// stopped by one stops at the same event with the same bytes and
/// counts whether it runs alone or while another thread solves LPs for
/// as long as it runs.
#[test]
fn solver_budget_ignores_solves_on_other_threads() {
    let registry = DomainRegistry::builtin();
    let mut spec = job("dp", SessionBudgets::unlimited());
    spec.config.max_subspaces = 2;
    let full = run_manifest(&registry, std::slice::from_ref(&spec), None, 1);
    let total = full[0].solver.lp_iterations + full[0].solver.lp_dual_iterations;
    assert!(total > 0, "{:?}", full[0].solver);
    spec.budgets.max_solver_iterations = Some(total / 2);
    let run = || run_manifest(&registry, std::slice::from_ref(&spec), None, 1);
    let stopped = |outcomes: &[JobOutcome]| {
        let finish = outcomes[0].finish.clone().expect("session ran");
        assert_eq!(finish.reason, FinishReason::SolverBudgetExhausted);
        (
            finish.events,
            outcomes[0].solver,
            normalized(&outcomes[0].result),
        )
    };
    let alone = stopped(&run());
    let done = AtomicBool::new(false);
    let beside = std::thread::scope(|s| {
        s.spawn(|| {
            let mut m = Model::new(Sense::Maximize);
            let x = m.add_nonneg("x");
            let y = m.add_nonneg("y");
            m.add_constr("cap", x + y, Cmp::Le, 3.0);
            m.add_constr("x", x * 1.0, Cmp::Le, 2.0);
            m.set_objective(x * 2.0 + y);
            while !done.load(Ordering::Relaxed) {
                m.solve().unwrap();
            }
        });
        let outcomes = run();
        done.store(true, Ordering::Relaxed);
        outcomes
    });
    assert_eq!(stopped(&beside), alone);
}
