//! Tenant fairness gate: the light tenant's submit → done p99 under a
//! 10:1 heavy-tenant flood, over its p99 alone.
//!
//! This measures scheduling policy, not speed. One server worker is
//! paced at `PACE_MS` per executed job (`ServerConfig::pace_ms`) and
//! each job's compute is a small fraction of the pace, so service time,
//! not the shared CPU, is what the tenants divide. With FIFO dispatch
//! every light job would wait behind the flood and its p99 would grow
//! about 10x. Weighted deficit round robin, with the light tenant at
//! weight 3 and the heavy one at weight 1, keeps about 3/4 of the
//! service for the light lane, so its p99 should sit near 4/3 of its
//! isolation value.
//!
//! The timed test is the only one in this binary that times anything, and
//! cargo runs test binaries one at a time. CI runs it in release with
//! `cargo test --release -p xplain-serve --test paced_fairness`.
//! `BENCH_10.json` at the repo root is the committed 10-light /
//! 100-heavy snapshot.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use xplain_core::pipeline::PipelineConfig;
use xplain_core::subspace::SubspaceParams;
use xplain_core::{ExplainerParams, SignificanceParams};
use xplain_runtime::{DomainRegistry, JobSpec, SessionBudgets, TenantRegistry};
use xplain_serve::{Client, Server, ServerConfig};
use xplain_stats::percentile_exact;

/// Per-worker minimum service time for executed jobs (ms).
const PACE_MS: u64 = 150;
const LIGHT_WEIGHT: u64 = 3;
const HEAVY_WEIGHT: u64 = 1;
const LIGHT_JOBS: usize = 6;

/// Deliberately tiny pipeline work (compute much less than `PACE_MS`)
/// that still runs the whole authenticated submit → lane → compute path.
fn paced_config() -> PipelineConfig {
    PipelineConfig {
        max_subspaces: 1,
        subspace: SubspaceParams {
            dkw_eps: 0.25,
            dkw_delta: 0.25,
            max_expansions: 3,
            tree_sample_factor: 3,
            ..Default::default()
        },
        significance: SignificanceParams {
            pairs: 30,
            ..Default::default()
        },
        explainer: ExplainerParams {
            samples: 40,
            threads: 1,
            ..Default::default()
        },
        coverage_samples: 0,
        ..Default::default()
    }
}

fn spec_json(seed: u64) -> String {
    serde_json::to_string(&JobSpec {
        domain: "sched".into(),
        config: paced_config(),
        seed,
        budgets: SessionBudgets::unlimited(),
    })
    .expect("spec serializes")
}

fn extract_id(body: &str) -> String {
    body.split("\"id\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("submit receipt carries an id")
        .to_string()
}

/// Write the two-tenant registry the server loads.
fn write_tenants_file(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "xplain-paced-fairness-tenants-{tag}-{}.json",
        std::process::id()
    ));
    std::fs::write(
        &path,
        format!(
            r#"{{"tenants": [
                {{"id": "heavy", "key_fnv": "{}", "weight": {HEAVY_WEIGHT}}},
                {{"id": "light", "key_fnv": "{}", "weight": {LIGHT_WEIGHT}}}
            ]}}"#,
            TenantRegistry::hash_api_key("heavy-key"),
            TenantRegistry::hash_api_key("light-key"),
        ),
    )
    .expect("tenant config writes");
    path
}

/// Stand up one enforcing single-worker server, flood it with
/// `heavy_jobs` from the heavy tenant, then submit `LIGHT_JOBS` from the
/// light tenant and return the p99 of their submit → done latencies (ms).
fn light_p99_ms(tag: &str, heavy_jobs: usize, seed_base: u64) -> f64 {
    let tenants_file = write_tenants_file(tag);
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_workers: 1,
        http_threads: 4,
        capacity: 4096,
        store_dir: None,
        read_timeout: Duration::from_secs(120),
        retain_done: 8192,
        shard_id: None,
        pace_ms: PACE_MS,
        mesh: None,
        journal: false,
        journal_dir: None,
        tenants: Some(tenants_file.clone()),
    })
    .expect("server binds");
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        server.run(&DomainRegistry::builtin()).expect("server runs");
    });
    let client = |key: &str| {
        Client::new(handle.addr())
            .with_timeout(Duration::from_secs(120))
            .with_bearer(key)
    };
    let (heavy, light) = (client("heavy-key"), client("light-key"));
    let submit = |api: &Client, seed: u64| {
        let resp = api.post("/v1/jobs", &spec_json(seed)).expect("submit");
        assert!(
            resp.status == 200 || resp.status == 202,
            "submit failed: {} {}",
            resp.status,
            resp.body
        );
        extract_id(&resp.body)
    };

    let heavy_ids: Vec<String> = (0..heavy_jobs)
        .map(|i| submit(&heavy, seed_base + i as u64))
        .collect();
    let mut light_pending: Vec<(String, Instant)> = (0..LIGHT_JOBS)
        .map(|i| {
            (
                submit(&light, seed_base + 0x1000 + i as u64),
                Instant::now(),
            )
        })
        .collect();

    // Poll every outstanding light job each cycle, so observation lag is
    // one cycle, not a chain of per-job waits.
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(LIGHT_JOBS);
    while !light_pending.is_empty() {
        light_pending.retain(|(id, submitted)| {
            let status = light.get(&format!("/v1/jobs/{id}")).expect("poll");
            if status.body.contains("\"status\":\"done\"") {
                latencies_ms.push(submitted.elapsed().as_secs_f64() * 1000.0);
                false
            } else {
                true
            }
        });
        if !light_pending.is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // The flood has served its purpose; cancel what is still queued so
    // shutdown takes seconds, not `heavy_jobs x pace`.
    for id in &heavy_ids {
        let _ = heavy.post(&format!("/v1/jobs/{id}/cancel"), "");
    }
    handle.shutdown();
    join.join().expect("server thread");
    let _ = std::fs::remove_file(&tenants_file);
    percentile_exact(&latencies_ms, 0.99).unwrap_or(0.0)
}

#[test]
fn a_ten_to_one_flood_at_most_triples_the_light_p99() {
    // Distinct seed ranges per scenario, so neither inherits warmth.
    let isolation = light_p99_ms("isolation", 0, 0xFA_0000);
    let contended = light_p99_ms("contended", LIGHT_JOBS * 10, 0xFB_0000);
    let ratio = if isolation > 0.0 {
        contended / isolation
    } else {
        f64::INFINITY
    };
    println!("light p99: isolation {isolation:.1} ms, contended {contended:.1} ms, {ratio:.2}x");
    assert!(
        ratio <= 3.0,
        "light p99 contended / isolation {ratio:.2}x > 3.0x"
    );
}

#[derive(serde::Deserialize)]
struct CommittedSnapshot {
    mode: String,
    light_p99_contended_over_isolation: f64,
}

#[test]
fn committed_snapshot_at_most_doubles_the_light_p99() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_10.json");
    let text = std::fs::read_to_string(path).expect("BENCH_10.json is committed");
    let snapshot: CommittedSnapshot = serde_json::from_str(&text).expect("BENCH_10.json parses");
    assert_eq!(snapshot.mode, "full");
    assert!(
        snapshot.light_p99_contended_over_isolation <= 2.0,
        "committed light p99 contended / isolation {:.2}x > 2.0x",
        snapshot.light_p99_contended_over_isolation
    );
}
