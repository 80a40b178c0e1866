//! Mesh scaling gate: cold-job throughput through the gateway at 1 vs 4
//! in-process shards.
//!
//! This measures scheduling capacity, not speed. Every shard has one
//! worker paced at `PACE_MS` per executed job (`ServerConfig::pace_ms`),
//! and each job's compute is a small fraction of the pace, so throughput
//! is bounded by service capacity and not by the shared CPU. The sleeps
//! overlap across shards the way service time on separate machines
//! would, so the 1 → 4 shard ratio shows four workers' worth of service
//! draining the same workload, work stealing included: rendezvous
//! placement alone leaves the busiest shard more than `jobs / 4` keys. A
//! stolen job is paid for once: the thief commits it to the shared store
//! and the victim's copy completes as a cache hit, which pacing exempts.
//!
//! The timed test is the only one in this binary that times anything, and
//! cargo runs test binaries one at a time. CI runs it in release with
//! `cargo test --release -p xplain-mesh --test paced_scaling`.
//! `BENCH_7.json` at the repo root is the committed 40-job snapshot.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xplain_core::pipeline::PipelineConfig;
use xplain_core::subspace::SubspaceParams;
use xplain_core::{ExplainerParams, SignificanceParams};
use xplain_mesh::{Gateway, GatewayConfig, Membership, Peer, Stealer, StealerConfig};
use xplain_runtime::{DomainRegistry, JobSpec, SessionBudgets};
use xplain_serve::{Client, MeshStatus, Server, ServerConfig};

/// Per-worker minimum service time for executed jobs (ms).
const PACE_MS: u64 = 150;
/// Cold jobs submitted per topology.
const JOBS: usize = 12;

/// Deliberately tiny pipeline work: cheap next to `PACE_MS`, while still
/// running the whole submit → route → compute → store path.
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

/// Stand up `shards` one-worker servers over one shared store, their
/// stealers and a gateway; push `JOBS` cold submissions through the
/// gateway and return jobs per second until the gateway reports all done.
fn throughput(shards: usize, seed_base: u64) -> f64 {
    let store_dir = std::env::temp_dir().join(format!(
        "xplain-paced-scaling-{shards}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&store_dir);

    let mut meshes = Vec::with_capacity(shards);
    let mut handles = Vec::with_capacity(shards);
    let mut joins = Vec::with_capacity(shards);
    for i in 0..shards {
        let mesh = Arc::new(MeshStatus::new(format!("shard-{i}")));
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_workers: 1,
            http_threads: 4,
            capacity: 1024,
            store_dir: Some(store_dir.clone()),
            read_timeout: Duration::from_secs(120),
            retain_done: 4096,
            shard_id: Some(format!("shard-{i}")),
            pace_ms: PACE_MS,
            mesh: Some(Arc::clone(&mesh)),
            // All shards share one store dir, where a journal per shard
            // would collide on its segment files.
            journal: false,
            journal_dir: None,
            tenants: None,
        })
        .expect("shard binds");
        let handle = server.handle();
        joins.push(std::thread::spawn(move || {
            server.run(&DomainRegistry::builtin()).expect("shard runs");
        }));
        meshes.push(mesh);
        handles.push(handle);
    }
    let peers: Vec<Peer> = handles
        .iter()
        .map(|h| Peer {
            id: h.addr().to_string(),
            addr: h.addr(),
        })
        .collect();

    // Aggressive stealers, so the 4-shard figure shows the tier's
    // capacity rather than rendezvous imbalance.
    let steal_stop = Arc::new(AtomicBool::new(false));
    let stealer_joins: Vec<_> = if shards > 1 {
        handles
            .iter()
            .zip(&meshes)
            .map(|(h, mesh)| {
                let membership = Membership::bootstrap(
                    peers.clone(),
                    Duration::from_millis(250),
                    Some(Arc::clone(mesh)),
                );
                Stealer::new(
                    h.addr(),
                    membership,
                    Arc::clone(mesh),
                    StealerConfig {
                        interval: Duration::from_millis(40),
                        batch_max: 2,
                        ..StealerConfig::default()
                    },
                )
                .start(Arc::clone(&steal_stop))
            })
            .collect()
    } else {
        Vec::new()
    };

    let gateway = Gateway::bind(GatewayConfig {
        addr: "127.0.0.1:0".into(),
        peers,
        heartbeat: Duration::from_millis(200),
        ..GatewayConfig::default()
    })
    .expect("gateway binds");
    let gw = gateway.handle();
    let gw_join = std::thread::spawn(move || gateway.run().expect("gateway runs"));
    let api = Client::new(gw.addr()).with_timeout(Duration::from_secs(120));

    // The measured section: every submission through the gateway, then
    // poll (also through the gateway) until everything is done.
    let t0 = Instant::now();
    let mut remaining: Vec<String> = (0..JOBS)
        .map(|i| {
            let resp = api
                .post("/v1/jobs", &spec_json(seed_base + i as u64))
                .expect("submit");
            assert!(
                resp.status == 200 || resp.status == 202,
                "submit failed: {} {}",
                resp.status,
                resp.body
            );
            extract_id(&resp.body)
        })
        .collect();
    while !remaining.is_empty() {
        remaining.retain(|id| {
            let status = api.get(&format!("/v1/jobs/{id}")).expect("poll");
            !status.body.contains("\"status\":\"done\"")
        });
        if !remaining.is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let elapsed_s = t0.elapsed().as_secs_f64();

    steal_stop.store(true, Ordering::Relaxed);
    for j in stealer_joins {
        j.join().expect("stealer thread");
    }
    gw.shutdown();
    gw_join.join().expect("gateway thread");
    for h in &handles {
        h.shutdown();
    }
    for j in joins {
        j.join().expect("shard thread");
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    JOBS as f64 / elapsed_s
}

#[test]
fn four_paced_shards_serve_at_least_twice_one() {
    // Distinct seed ranges per topology, so neither inherits the other's
    // cache.
    let one = throughput(1, 0xB7_0000);
    let four = throughput(4, 0xB7_0000 + (1 << 16));
    let scaling = four / one;
    println!(
        "{JOBS} paced jobs: 1 shard {one:.2} jobs/s, 4 shards {four:.2} jobs/s, {scaling:.2}x"
    );
    assert!(scaling >= 2.0, "1 -> 4 shard scaling {scaling:.2}x < 2.0x");
}

#[derive(serde::Deserialize)]
struct CommittedSnapshot {
    mode: String,
    scaling_cold_1_to_4: f64,
}

#[test]
fn committed_snapshot_scales_at_least_three_times() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_7.json");
    let text = std::fs::read_to_string(path).expect("BENCH_7.json is committed");
    let snapshot: CommittedSnapshot = serde_json::from_str(&text).expect("BENCH_7.json parses");
    assert_eq!(snapshot.mode, "full");
    assert!(
        snapshot.scaling_cold_1_to_4 >= 3.0,
        "committed 1 -> 4 shard scaling {:.2}x < 3.0x",
        snapshot.scaling_cold_1_to_4
    );
}
