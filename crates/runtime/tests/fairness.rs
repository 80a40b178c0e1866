//! Weighted fair-share dispatch, pinned as property tests: deficit
//! round robin preserves per-tenant FIFO order, never starves a
//! nonzero-weight tenant, and the queue's dispatch (and every job's
//! result bytes) are identical across worker counts — the same
//! positional-determinism contract the executor pins in
//! `determinism.rs`, extended to tenant lanes.

use proptest::prelude::*;
use xplain_core::pipeline::PipelineConfig;
use xplain_core::{ExplainerParams, SignificanceParams};
use xplain_runtime::{
    DomainRegistry, DrrScheduler, JobQueue, JobSpec, QueueOptions, TenantRegistry,
};

/// Tenant ids for up to four lanes; index 3 is the anonymous lane.
fn lane(t: usize) -> Option<String> {
    (t < 3).then(|| format!("tenant-{t}"))
}

/// Replay a push schedule into a scheduler. `weights[t]` may be 0 to
/// exercise the clamp-to-1 contract.
fn build(pushes: &[usize], weights: &[u64]) -> DrrScheduler {
    let mut sched = DrrScheduler::new();
    for (item, &t) in pushes.iter().enumerate() {
        sched.push(lane(t).as_deref(), weights[t.min(weights.len() - 1)], item);
    }
    sched
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Within one tenant, DRR is FIFO: the dispatch order restricted to
    /// any tenant's items equals their arrival order, and nothing is
    /// lost or duplicated.
    #[test]
    fn drr_preserves_per_tenant_fifo(
        pushes in proptest::collection::vec(0usize..4, 1..80),
        weights in proptest::collection::vec(0u64..5, 4usize),
    ) {
        let mut sched = build(&pushes, &weights);
        prop_assert_eq!(sched.len(), pushes.len());
        let mut popped = Vec::new();
        while let Some(item) = sched.pop() {
            popped.push(item);
        }
        prop_assert!(sched.is_empty());
        prop_assert_eq!(popped.len(), pushes.len());
        for t in 0..4 {
            let arrived: Vec<usize> = (0..pushes.len()).filter(|&i| pushes[i] == t).collect();
            let dispatched: Vec<usize> =
                popped.iter().copied().filter(|&i| pushes[i] == t).collect();
            prop_assert_eq!(arrived, dispatched, "tenant {} reordered", t);
        }
    }

    /// No starvation: while a tenant has backlog, it waits at most one
    /// full DRR round — the sum of all lane weights — between
    /// consecutive dispatches, whatever the other tenants' weights or
    /// backlogs are. (Zero configured weights clamp to 1, so every lane
    /// has a nonzero share.)
    #[test]
    fn drr_never_starves_a_backlogged_tenant(
        pushes in proptest::collection::vec(0usize..4, 4..120),
        weights in proptest::collection::vec(0u64..6, 4usize),
    ) {
        let mut sched = build(&pushes, &weights);
        // One full round dispatches `clamped weight` items per lane.
        let round: u64 = weights.iter().map(|w| (*w).max(1)).sum();
        let mut backlog = [0usize; 4];
        for &t in &pushes {
            backlog[t] += 1;
        }
        let mut waited = [0u64; 4];
        while let Some(item) = sched.pop() {
            let t = pushes[item];
            backlog[t] -= 1;
            waited[t] = 0;
            for other in 0..4 {
                if other != t && backlog[other] > 0 {
                    waited[other] += 1;
                    prop_assert!(
                        waited[other] <= round,
                        "tenant {} starved for {} dispatches (round is {})",
                        other, waited[other], round
                    );
                }
            }
        }
    }

    /// Dispatch order is a pure function of the arrival order: the
    /// projection the queue surfaces (`/v1/queue`, steal planning) is
    /// exactly what `pop` then yields, item for item.
    #[test]
    fn drr_projected_order_matches_dispatch(
        pushes in proptest::collection::vec(0usize..4, 1..60),
        weights in proptest::collection::vec(1u64..5, 4usize),
    ) {
        let mut sched = build(&pushes, &weights);
        let projected = sched.projected_order();
        let mut popped = Vec::new();
        while let Some(item) = sched.pop() {
            popped.push(item);
        }
        prop_assert_eq!(projected, popped);
    }
}

// ---------------------------------------------------------------- queue

/// Small-but-real config so each case stays fast.
fn tiny_config() -> PipelineConfig {
    PipelineConfig {
        max_subspaces: 1,
        significance: SignificanceParams {
            pairs: 24,
            ..Default::default()
        },
        explainer: ExplainerParams {
            samples: 24,
            threads: 1,
            ..Default::default()
        },
        coverage_samples: 50,
        ..Default::default()
    }
}

fn spec(seed: u64) -> JobSpec {
    JobSpec {
        domain: "dp".into(),
        config: tiny_config(),
        seed,
        budgets: Default::default(),
    }
}

const TWO_TENANTS: &str = r#"{"tenants": [
    {"id": "heavy", "key_fnv": "00000000000000aa", "weight": 3},
    {"id": "light", "key_fnv": "00000000000000bb", "weight": 1}
]}"#;

/// Submit the same two-tenant workload and drain it with `workers`
/// threads; returns each job's result JSON in submission order.
fn run_two_tenant_queue(workers: usize) -> Vec<String> {
    let registry = DomainRegistry::builtin();
    let tenants = TenantRegistry::from_json(TWO_TENANTS).expect("config parses");
    let queue =
        JobQueue::new(&registry, None, QueueOptions::default()).with_tenants(Some(&tenants));
    let mut subs = Vec::new();
    for (tenant, seed) in [
        ("heavy", 10),
        ("heavy", 11),
        ("light", 20),
        ("heavy", 12),
        ("light", 21),
        ("heavy", 13),
    ] {
        subs.push(
            queue
                .submit_deduped(spec(seed), Some(tenant))
                .expect("under capacity"),
        );
    }
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| queue.drain_worker());
        }
    });
    subs.iter()
        .map(|sub| {
            let outcome = queue.poll(sub.key).expect("job resolves").outcome.unwrap();
            serde_json::to_string(&outcome.result).expect("result serializes")
        })
        .collect()
}

/// The tenancy determinism contract end to end: 1 worker and N workers
/// produce byte-identical results per job for a mixed two-tenant
/// workload — DRR dispatch order lives under the queue mutex, so worker
/// count never leaks into outcomes.
#[test]
fn two_tenant_queue_results_are_byte_identical_across_worker_counts() {
    let serial = run_two_tenant_queue(1);
    let parallel = run_two_tenant_queue(3);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "job {i} diverged between 1 and 3 workers");
    }
}

/// Weighted interleave at the queue level: with both lanes backlogged,
/// a weight-3 tenant gets three dispatches per round to the light
/// tenant's one, and each lane stays FIFO. `pending_jobs` (the
/// `/v1/queue` projection) is the dispatch order.
#[test]
fn queue_dispatch_interleaves_by_weight() {
    let registry = DomainRegistry::builtin();
    let tenants = TenantRegistry::from_json(TWO_TENANTS).expect("config parses");
    let queue =
        JobQueue::new(&registry, None, QueueOptions::default()).with_tenants(Some(&tenants));
    let mut heavy_ids = Vec::new();
    let mut light_ids = Vec::new();
    for seed in 0..6u64 {
        heavy_ids.push(queue.submit_deduped(spec(seed), Some("heavy")).unwrap().id);
    }
    for seed in 100..102u64 {
        light_ids.push(queue.submit_deduped(spec(seed), Some("light")).unwrap().id);
    }
    let order: Vec<(Option<String>, String)> = queue
        .pending_jobs()
        .into_iter()
        .map(|p| (p.tenant, p.id))
        .collect();
    let expect: Vec<(Option<String>, String)> = [
        ("heavy", &heavy_ids[0]),
        ("heavy", &heavy_ids[1]),
        ("heavy", &heavy_ids[2]),
        ("light", &light_ids[0]),
        ("heavy", &heavy_ids[3]),
        ("heavy", &heavy_ids[4]),
        ("heavy", &heavy_ids[5]),
        ("light", &light_ids[1]),
    ]
    .into_iter()
    .map(|(t, id)| (Some(t.to_string()), id.clone()))
    .collect();
    assert_eq!(order, expect);
}
