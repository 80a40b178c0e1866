//! Crash-recovery e2e: a real `runner serve` process is SIGKILLed with
//! a mix of queued, running, and done jobs, then restarted over the
//! same store and journal. The write-ahead job journal (DESIGN.md §10)
//! must bring every accepted-but-unfinished job back — same ids, same
//! order, byte-identical results — and repeated kill/restart cycles
//! must not grow the journal without bound (compaction).
//!
//! `Child::kill` delivers SIGKILL on Unix: the server gets no chance to
//! drain, flush, or checkpoint. Whatever survives is exactly what the
//! journal and the store's fsync-before-rename discipline made durable.
//!
//! The byte-identity reference is an in-process serial run. Its solver
//! counts are its own (counters are per thread), so the tests of this
//! binary run in parallel.

use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use xplain_core::pipeline::PipelineConfig;
use xplain_core::subspace::SubspaceParams;
use xplain_core::{ExplainerParams, SignificanceParams};
use xplain_mesh::{Gateway, GatewayConfig, Peer};
use xplain_runtime::{
    run_manifest_opts, DomainRegistry, JobOutcome, JobSpec, RunOptions, SessionBudgets,
    TenantRegistry,
};
use xplain_serve::Client;

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

fn spec(domain: &str, seed: u64) -> JobSpec {
    JobSpec {
        domain: domain.into(),
        config: tiny_config(),
        seed,
        budgets: SessionBudgets::unlimited(),
    }
}

fn spec_json(spec: &JobSpec) -> String {
    serde_json::to_string(spec).expect("spec serializes")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xplain-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("ephemeral bind"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

/// One `runner serve` process under crash-test: spawned with a fixed
/// argument list so a respawn is exactly "the same server, restarted".
struct ServeProc {
    child: Child,
    addr: SocketAddr,
    args: Vec<String>,
}

impl ServeProc {
    fn spawn(addr: SocketAddr, store: &Path, pace_ms: u64) -> ServeProc {
        Self::spawn_with_tenants(addr, store, pace_ms, None)
    }

    fn spawn_with_tenants(
        addr: SocketAddr,
        store: &Path,
        pace_ms: u64,
        tenants: Option<&Path>,
    ) -> ServeProc {
        let mut args = vec![
            "serve".to_string(),
            "--addr".into(),
            addr.to_string(),
            "--workers".into(),
            "1".into(),
            "--store".into(),
            store.display().to_string(),
            "--pace-ms".into(),
            pace_ms.to_string(),
        ];
        if let Some(file) = tenants {
            args.push("--tenants".into());
            args.push(file.display().to_string());
        }
        let child = Command::new(env!("CARGO_BIN_EXE_runner"))
            .args(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("runner serve spawns");
        ServeProc { child, addr, args }
    }

    fn wait_ready(&self) {
        let api = Client::new(self.addr).with_timeout(Duration::from_secs(5));
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if matches!(api.get("/v1/domains"), Ok(r) if r.status == 200) {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "server {} never became ready",
                self.addr
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// SIGKILL — no drain, no flush, no goodbye.
    fn kill9(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Start a fresh process on the same address over the same store.
    fn respawn(&mut self) {
        self.child = Command::new(env!("CARGO_BIN_EXE_runner"))
            .args(&self.args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("runner serve respawns");
        self.wait_ready();
    }

    fn stop(&mut self) {
        let _ = Client::new(self.addr)
            .with_timeout(Duration::from_secs(10))
            .post("/v1/shutdown", "");
        let _ = self.child.wait();
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn client_at(addr: SocketAddr) -> Client {
    Client::new(addr).with_timeout(Duration::from_secs(120))
}

#[derive(serde::Deserialize)]
struct SubmitResp {
    id: String,
    #[serde(default)]
    cache_hit: bool,
}

#[derive(serde::Deserialize)]
struct StatusResp {
    status: String,
    #[serde(default)]
    recovered: bool,
    outcome: Option<JobOutcome>,
}

/// The byte-identity reference: a direct, serial, storeless in-process
/// run of the same spec (the result JSON the server must reproduce).
fn reference_result_json(job: &JobSpec) -> String {
    let registry = DomainRegistry::builtin();
    let outcomes = run_manifest_opts(
        &registry,
        std::slice::from_ref(job),
        None,
        1,
        RunOptions::default(),
    );
    serde_json::to_string(&outcomes[0].result).expect("result serializes")
}

/// Poll `GET /v1/jobs/{id}` until done; panics past the deadline.
fn wait_done(api: &Client, id: &str) -> StatusResp {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = api.get(&format!("/v1/jobs/{id}")).unwrap();
        if resp.status == 200 {
            let status: StatusResp = serde_json::from_str(&resp.body).unwrap();
            if status.status == "done" {
                return status;
            }
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn journal_bytes(store_dir: &Path) -> u64 {
    let journal = store_dir.join("journal");
    let Ok(entries) = std::fs::read_dir(&journal) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// The tentpole property: SIGKILL a server holding a mix of done,
/// running, and queued jobs; restart it over the same store + journal;
/// every accepted job reaches a terminal state with results
/// byte-identical to an uninterrupted run, and recovered executions say
/// so on `GET /v1/jobs/{id}`.
#[test]
fn sigkill_with_queued_jobs_recovers_every_accepted_job_byte_identically() {
    let store_dir = scratch_dir("recover");
    let port = free_ports(1)[0];
    let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();

    // One worker paced at 300ms per fresh job: submissions pile up
    // behind it, guaranteeing a queued backlog at kill time.
    let mut server = ServeProc::spawn(addr, &store_dir, 300);
    server.wait_ready();
    let api = client_at(addr);

    let specs: Vec<JobSpec> = [
        ("dp", 11u64),
        ("ff", 12),
        ("sched", 13),
        ("dp", 14),
        ("ff", 15),
    ]
    .iter()
    .map(|(d, s)| spec(d, *s))
    .collect();
    let mut ids = Vec::new();
    for job in &specs {
        let resp = api.post("/v1/jobs", &spec_json(job)).unwrap();
        assert!(
            resp.status == 202 || resp.status == 200,
            "submit failed: {} {}",
            resp.status,
            resp.body
        );
        ids.push(serde_json::from_str::<SubmitResp>(&resp.body).unwrap().id);
    }

    // Let the first job finish so the kill catches a done/running/queued
    // mix, not just a cold queue.
    wait_done(&api, &ids[0]);
    server.kill9();

    // Restart over the same store + journal. Recovery happens before
    // the listener accepts, so the journal gauges are visible at once.
    server.respawn();
    let metrics = api.get("/v1/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(
        !metrics.body.contains("\"journal\":null"),
        "store-backed server must journal by default: {}",
        metrics.body
    );
    assert!(
        !metrics.body.contains("\"recovered\":0,"),
        "a kill with a backlog must recover jobs: {}",
        metrics.body
    );

    // Every accepted job reaches a terminal state with the reference
    // bytes. Jobs that finished *before* the kill are terminal in the
    // journal and not re-enqueued — their ids read 404 from the fresh
    // process, and a resubmit must answer from the store (cache hit)
    // with the same bytes, never recompute.
    let mut recovered_seen = 0;
    for (job, id) in specs.iter().zip(&ids) {
        let reference = reference_result_json(job);
        let probe = api.get(&format!("/v1/jobs/{id}")).unwrap();
        let served = if probe.status == 404 {
            let resp = api.post("/v1/jobs", &spec_json(job)).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body);
            let resubmit: SubmitResp = serde_json::from_str(&resp.body).unwrap();
            assert!(
                resubmit.cache_hit,
                "done-before-kill job {id} must answer from the store"
            );
            assert_eq!(resubmit.id, *id, "content key must be stable");
            wait_done(&api, id)
        } else {
            wait_done(&api, id)
        };
        recovered_seen += served.recovered as usize;
        let outcome = served.outcome.expect("done job has an outcome");
        assert_eq!(
            serde_json::to_string(&outcome.result).unwrap(),
            reference,
            "job {id} result differs from an uninterrupted run"
        );
    }
    assert!(
        recovered_seen >= 1,
        "at least one served job must be flagged recovered"
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// The mesh-layer view of the same property: a gateway fronts a shard
/// that is SIGKILLed with queued work; after the shard restarts over
/// its store + journal, the gateway serves every accepted job to
/// completion and resubmits answer from the store.
#[test]
fn gateway_serves_queued_work_after_its_shard_recovers_from_sigkill() {
    let store_dir = scratch_dir("gateway");
    let port = free_ports(1)[0];
    let shard_addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();

    let mut shard = ServeProc::spawn(shard_addr, &store_dir, 300);
    shard.wait_ready();
    let gateway = Gateway::bind(GatewayConfig {
        addr: "127.0.0.1:0".into(),
        peers: vec![Peer {
            id: shard_addr.to_string(),
            addr: shard_addr,
        }],
        heartbeat: Duration::from_millis(100),
        ..GatewayConfig::default()
    })
    .expect("gateway binds");
    let gw_handle = gateway.handle();
    let gw_join = std::thread::spawn(move || gateway.run().expect("gateway runs"));
    let api = client_at(gw_handle.addr());

    let specs: Vec<JobSpec> = [("dp", 21u64), ("ff", 22), ("sched", 23)]
        .iter()
        .map(|(d, s)| spec(d, *s))
        .collect();
    let mut ids = Vec::new();
    for job in &specs {
        let resp = api.post_retry("/v1/jobs", &spec_json(job), 5).unwrap();
        assert!(
            resp.status == 202 || resp.status == 200,
            "gateway submit failed: {} {}",
            resp.status,
            resp.body
        );
        ids.push(serde_json::from_str::<SubmitResp>(&resp.body).unwrap().id);
    }
    wait_done(&api, &ids[0]);

    shard.kill9();
    shard.respawn();

    // Every accepted job completes, served through the gateway; jobs
    // terminal before the kill answer from the store on resubmit.
    for (job, id) in specs.iter().zip(&ids) {
        let probe = api.get(&format!("/v1/jobs/{id}")).unwrap();
        if probe.status == 404 {
            let resp = api.post_retry("/v1/jobs", &spec_json(job), 5).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body);
            assert!(
                serde_json::from_str::<SubmitResp>(&resp.body)
                    .unwrap()
                    .cache_hit,
                "pre-kill result must come from the store"
            );
        }
        wait_done(&api, id);
    }

    gw_handle.shutdown();
    gw_join.join().unwrap();
    shard.stop();
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[derive(serde::Deserialize)]
struct QueueResp {
    pending: Vec<PendingEntry>,
}

#[derive(serde::Deserialize)]
struct PendingEntry {
    id: String,
    #[serde(default)]
    tenant: Option<String>,
}

/// The tenancy view of crash recovery: SIGKILL a shard holding a mixed
/// two-tenant backlog; on restart the journal must re-enqueue every
/// accepted-but-unfinished job *in acceptance order* with its tenant
/// attribution intact — each lane's pending sequence is exactly that
/// tenant's submission order, every pending entry names its tenant, and
/// the recovered backlog drains to completion under enforcement.
#[test]
fn sigkill_with_two_tenant_backlog_recovers_attribution_and_order() {
    let store_dir = scratch_dir("tenancy");
    let tenants_file =
        std::env::temp_dir().join(format!("xplain-crash-tenants-{}.json", std::process::id()));
    std::fs::write(
        &tenants_file,
        format!(
            r#"{{"tenants": [
                {{"id": "heavy", "key_fnv": "{}", "weight": 3}},
                {{"id": "light", "key_fnv": "{}", "weight": 1}}
            ]}}"#,
            TenantRegistry::hash_api_key("heavy-key"),
            TenantRegistry::hash_api_key("light-key"),
        ),
    )
    .expect("tenant config writes");
    let port = free_ports(1)[0];
    let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();

    let mut server = ServeProc::spawn_with_tenants(addr, &store_dir, 300, Some(&tenants_file));
    server.wait_ready();
    let heavy = client_at(addr).with_bearer("heavy-key");
    let light = client_at(addr).with_bearer("light-key");

    // Interleaved acceptance: the per-tenant order the recovered queue
    // must reproduce.
    let plan: Vec<(&str, JobSpec)> = vec![
        ("heavy", spec("dp", 31)),
        ("heavy", spec("ff", 32)),
        ("light", spec("sched", 41)),
        ("heavy", spec("dp", 33)),
        ("light", spec("ff", 42)),
    ];
    let mut ids: Vec<(&str, String)> = Vec::new();
    for (tenant, job) in &plan {
        let api = if *tenant == "heavy" { &heavy } else { &light };
        let resp = api.post("/v1/jobs", &spec_json(job)).unwrap();
        assert!(
            resp.status == 202 || resp.status == 200,
            "submit failed: {} {}",
            resp.status,
            resp.body
        );
        ids.push((
            tenant,
            serde_json::from_str::<SubmitResp>(&resp.body).unwrap().id,
        ));
    }

    // Kill with the backlog queued behind the paced worker, restart
    // over the same store + journal.
    server.kill9();
    server.respawn();

    // `/v1/queue` stays an open ops route under enforcement. The first
    // job may already be running again, so the pending view is checked
    // as: correct attribution on every entry, and each tenant's pending
    // sequence equals its acceptance order restricted to pending ids.
    let queue: QueueResp =
        serde_json::from_str(&client_at(addr).get("/v1/queue").unwrap().body).unwrap();
    let pending_ids: Vec<&str> = queue.pending.iter().map(|p| p.id.as_str()).collect();
    for entry in &queue.pending {
        let submitted_as = ids
            .iter()
            .find(|(_, id)| id == &entry.id)
            .map(|(t, _)| *t)
            .expect("pending job was one of ours");
        assert_eq!(
            entry.tenant.as_deref(),
            Some(submitted_as),
            "job {} lost its attribution across the crash",
            entry.id
        );
    }
    for tenant in ["heavy", "light"] {
        let accepted: Vec<&str> = ids
            .iter()
            .filter(|(t, id)| *t == tenant && pending_ids.contains(&id.as_str()))
            .map(|(_, id)| id.as_str())
            .collect();
        let recovered: Vec<&str> = queue
            .pending
            .iter()
            .filter(|p| p.tenant.as_deref() == Some(tenant))
            .map(|p| p.id.as_str())
            .collect();
        assert_eq!(
            recovered, accepted,
            "tenant '{tenant}' lane not recovered in acceptance order"
        );
    }

    // Enforcement survives the restart: the per-tenant metrics block is
    // present and anonymous submits are still refused.
    let metrics = client_at(addr).get("/v1/metrics").unwrap();
    assert!(
        metrics.body.contains("\"tenants\":[{\"tenant\":\"heavy\""),
        "restarted server lost its tenant registry: {}",
        metrics.body
    );
    let anon = client_at(addr)
        .post("/v1/jobs", &spec_json(&spec("dp", 99)))
        .unwrap();
    assert_eq!(anon.status, 401, "{}", anon.body);

    // The recovered backlog drains: every accepted job reaches done,
    // and at least one execution is flagged recovered.
    let mut recovered_seen = 0;
    for (_, id) in &ids {
        recovered_seen += wait_done(&heavy, id).recovered as usize;
    }
    assert!(
        recovered_seen >= 1,
        "a kill with a queued two-tenant backlog must recover jobs"
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&store_dir);
    let _ = std::fs::remove_file(&tenants_file);
}

/// The compaction bound: kill/restart cycles each replay and compact
/// the journal at open, so accumulated terminal history collapses and
/// the on-disk footprint stays flat instead of growing per cycle.
#[test]
fn repeated_kill_restart_cycles_keep_the_journal_bounded() {
    let store_dir = scratch_dir("bounded");
    let port = free_ports(1)[0];
    let addr: SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();

    let mut server = ServeProc::spawn(addr, &store_dir, 0);
    server.wait_ready();
    let api = client_at(addr);

    let mut seed = 100u64;
    let mut sizes = Vec::new();
    for _cycle in 0..4 {
        for _ in 0..3 {
            seed += 1;
            let resp = api.post("/v1/jobs", &spec_json(&spec("dp", seed))).unwrap();
            assert!(resp.status == 202 || resp.status == 200, "{}", resp.body);
            let id = serde_json::from_str::<SubmitResp>(&resp.body).unwrap().id;
            wait_done(&api, &id);
        }
        server.kill9();
        server.respawn(); // replays + compacts the dead process's journal
        sizes.push(journal_bytes(&store_dir));
    }
    server.stop();

    // All jobs were terminal at every kill, so each restart compacts to
    // an (almost) empty journal: the footprint must not trend upward
    // with history. Generous absolute bound — the point is "bytes, not
    // megabytes, and flat across cycles".
    let last = *sizes.last().unwrap();
    assert!(
        last <= 4096,
        "journal did not compact across restarts: sizes {sizes:?}"
    );
    assert!(
        last <= sizes[0] + 1024,
        "journal grows with restart history: sizes {sizes:?}"
    );
    let _ = std::fs::remove_dir_all(&store_dir);
}
