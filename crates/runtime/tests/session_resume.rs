//! Determinism under interruption, through the runtime layer: interrupt
//! a domain session after every event index k, persist the checkpoint
//! through the content-addressed store (exactly what a killed `runner
//! --resume` leaves behind), resume, and demand the final
//! `PipelineResult` byte-identical to the uninterrupted run's.
//!
//! Solver counters are per thread, so the uninterrupted run's
//! accumulated counters and every resumed run's (partial + rest) sum
//! count exactly this test's solves — `solver` is *not* normalized here,
//! pinning that budget accounting survives interruption too. Only
//! `wall_time_ms` (pure execution metadata) is normalized.

use xplain_core::pipeline::PipelineConfig;
use xplain_core::session::{CancelToken, SessionBudgets};
use xplain_core::subspace::SubspaceParams;
use xplain_core::{ExplainerParams, PipelineResult, SignificanceParams};
use xplain_runtime::{build_session, DomainRegistry, ResultStore};

fn tiny_config() -> PipelineConfig {
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
            pairs: 40,
            ..Default::default()
        },
        explainer: ExplainerParams {
            samples: 80,
            threads: 1,
            ..Default::default()
        },
        coverage_samples: 200,
        ..Default::default()
    }
}

fn normalized(result: &PipelineResult) -> String {
    let mut r = result.clone();
    r.wall_time_ms = 0;
    serde_json::to_string(&r).expect("result serializes")
}

#[test]
fn interrupt_after_every_event_resume_via_store_is_byte_identical() {
    let registry = DomainRegistry::builtin();
    // `sched` exercises the full Type-1/2 path (mapper present) at the
    // lowest oracle cost of the three builtin domains.
    let domain = registry.get("sched").expect("sched is builtin");
    let config = tiny_config();
    let store = ResultStore::new(
        std::env::temp_dir().join(format!("xplain-session-resume-{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(store.dir());

    let fresh = || {
        build_session(
            domain,
            &config,
            SessionBudgets::unlimited(),
            CancelToken::new(),
            None,
        )
        .expect("fresh session builds")
    };

    let reference = fresh().drain();
    assert!(
        !reference.findings.is_empty(),
        "vacuous test: uninterrupted run found nothing"
    );
    let total_events = {
        let mut n = 0usize;
        let mut s = fresh();
        while s.next_event().is_some() {
            n += 1;
        }
        n
    };
    assert!(total_events >= 6, "expected a multi-event stream");

    for k in 0..total_events {
        // Run to event k, then abandon the session (as a kill would),
        // leaving only the persisted checkpoint behind.
        let mut session = fresh();
        for _ in 0..k {
            session.next_event().expect("event before interruption");
        }
        store
            .save_checkpoint(domain.id(), &config, &session.checkpoint())
            .expect("checkpoint persists");
        drop(session);

        let checkpoint = store
            .load_checkpoint(domain.id(), &config)
            .expect("checkpoint loads back");
        let mut resumed = build_session(
            domain,
            &config,
            SessionBudgets::unlimited(),
            CancelToken::new(),
            Some(checkpoint),
        )
        .expect("checkpoint resumes");
        let result = resumed.drain();
        assert!(
            resumed.finished_naturally(),
            "resume after event {k} did not run to completion"
        );
        assert_eq!(
            normalized(&reference),
            normalized(&result),
            "resume after event {k} diverged from the uninterrupted run"
        );
        store.clear_checkpoint(domain.id(), &config);
    }

    let _ = std::fs::remove_dir_all(store.dir());
}
