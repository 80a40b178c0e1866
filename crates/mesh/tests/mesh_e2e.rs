//! End-to-end mesh tests: real shard *processes* (the `runner` binary)
//! fronted by a gateway, over one shared content-addressed store.
//!
//! The load-bearing properties:
//!
//! 1. **gateway ≡ single node** — for each built-in domain, submitting
//!    through the gateway and streaming `GET /v1/jobs/{id}/events` is
//!    byte-identical to a direct in-process `run_manifest` of the same
//!    spec (terminal lines compared after zeroing `wall_time_ms`).
//!    Resubmits through the gateway are cache hits.
//! 2. **cancel → shard restart → resume** — a job cancelled through the
//!    gateway checkpoints into the shared store; after its owning shard
//!    process is stopped and restarted, a gateway resubmit resumes it,
//!    and the concatenated event stream equals an uninterrupted run.
//! 3. **failover + single-node fallback** — keys owned by a dead shard
//!    route to a healthy one; a one-peer mesh degrades to a working
//!    reverse proxy; an all-dead mesh answers 503.
//! 4. **work stealing** — an idle shard pulls queued jobs from a busy
//!    peer; the victim's donated counter and the thief's stolen gauge
//!    both move, all jobs complete, and every store entry carries its
//!    computing shard's origin stamp.
//! 5. **one front** — a shard and the gateway refuse requests that never
//!    reach a route (unknown path, wrong method, oversized body or head,
//!    garbage, truncated body) with byte-identical answers.
//!
//! Byte-equivalence tests (1, 2) run their shard processes *without*
//! `--peers`, i.e. with no stealers: stealing deliberately moves work
//! between processes, which is exactly the nondeterminism a
//! byte-comparison must exclude (property 4 covers stealing with a
//! deterministic, manually-ticked stealer instead).
//!
//! Solver counters are process-global and terminal watch lines embed
//! per-job counter deltas, so tests that solve in *this* process hold a
//! file-wide mutex (same discipline as serve's `http_e2e`).

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use xplain_core::pipeline::PipelineConfig;
use xplain_core::subspace::SubspaceParams;
use xplain_core::{ExplainerParams, SignificanceParams};
use xplain_mesh::{
    ring, Gateway, GatewayConfig, GatewayHandle, Membership, Peer, PeerState, Stealer,
    StealerConfig, View,
};
use xplain_runtime::{
    run_manifest_opts, watch_line, DomainRegistry, JobOutcome, JobQueue, JobSpec, RunOptions,
    SessionBudgets, SessionEvent, TenantRegistry, WatchLine,
};
use xplain_serve::http::{MAX_BODY_BYTES, MAX_HEAD_BYTES};
use xplain_serve::{Client, MeshStatus, Server, ServerConfig, ServerHandle};

fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

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
    let dir = std::env::temp_dir().join(format!("xplain-mesh-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reserve `n` distinct loopback ports by binding and releasing them
/// (shard processes need addresses known before they start).
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("ephemeral bind"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

/// One shard process (the real `runner serve` binary), killed on drop.
struct ShardProc {
    child: Child,
    addr: SocketAddr,
    args: Vec<String>,
}

impl ShardProc {
    fn spawn(addr: SocketAddr, store: &Path, shard_id: &str, peers: Option<&str>) -> ShardProc {
        let mut args = vec![
            "serve".to_string(),
            "--addr".into(),
            addr.to_string(),
            "--workers".into(),
            "1".into(),
            "--store".into(),
            store.display().to_string(),
            "--shard-id".into(),
            shard_id.to_string(),
        ];
        if let Some(p) = peers {
            args.push("--peers".into());
            args.push(p.to_string());
        }
        let child = Command::new(env!("CARGO_BIN_EXE_runner"))
            .args(&args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("runner serve spawns");
        ShardProc { child, addr, args }
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
                "shard {} never became ready",
                self.addr
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Graceful stop: drain over HTTP, reap the process.
    fn stop(&mut self) {
        let _ = Client::new(self.addr)
            .with_timeout(Duration::from_secs(10))
            .post("/v1/shutdown", "");
        let _ = self.child.wait();
    }

    /// Stop, then start a fresh process on the same address with the
    /// same arguments — "the shard restarts".
    fn restart(&mut self) {
        self.stop();
        self.child = Command::new(env!("CARGO_BIN_EXE_runner"))
            .args(&self.args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("runner serve respawns");
        self.wait_ready();
    }
}

impl Drop for ShardProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn peers_of(addrs: &[SocketAddr]) -> Vec<Peer> {
    addrs
        .iter()
        .map(|a| Peer {
            id: a.to_string(),
            addr: *a,
        })
        .collect()
}

fn start_gateway(peers: Vec<Peer>) -> (GatewayHandle, std::thread::JoinHandle<()>) {
    let gateway = Gateway::bind(GatewayConfig {
        addr: "127.0.0.1:0".into(),
        peers,
        heartbeat: Duration::from_millis(100),
        ..GatewayConfig::default()
    })
    .expect("gateway binds");
    let handle = gateway.handle();
    let join = std::thread::spawn(move || gateway.run().expect("gateway runs"));
    (handle, join)
}

fn client_at(addr: SocketAddr) -> Client {
    Client::new(addr).with_timeout(Duration::from_secs(120))
}

/// The `runner --watch` lines of a direct, serial, storeless run — the
/// reference the gateway-served stream must match byte-for-byte.
fn reference_lines(job: &JobSpec) -> (Vec<String>, JobOutcome) {
    let registry = DomainRegistry::builtin();
    let jobs = vec![job.clone()];
    let lines: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let sink = |index: usize, event: &SessionEvent| {
        lines
            .lock()
            .unwrap()
            .push(watch_line(index, &jobs[index].domain, event));
    };
    let opts = RunOptions {
        budgets_override: None,
        resume: false,
        sink: Some(&sink),
        origin: None,
    };
    let outcomes = run_manifest_opts(&registry, &jobs, None, 1, opts);
    (
        lines.into_inner().unwrap(),
        outcomes.into_iter().next().unwrap(),
    )
}

fn normalize_terminal(line: &str) -> String {
    let mut parsed: WatchLine = serde_json::from_str(line).expect("watch line parses");
    if let SessionEvent::Finished { result, .. } = &mut parsed.event {
        result.wall_time_ms = 0;
    }
    serde_json::to_string(&parsed).expect("watch line reserializes")
}

fn line_kind(line: &str) -> String {
    serde_json::from_str::<WatchLine>(line)
        .expect("watch line parses")
        .kind
}

fn assert_streams_equal(served: &[String], reference: &[String], context: &str) {
    assert_eq!(
        served.len(),
        reference.len(),
        "{context}: stream lengths differ\nserved:    {served:#?}\nreference: {reference:#?}"
    );
    for (i, (s, r)) in served.iter().zip(reference).enumerate() {
        if line_kind(r) == "finished" {
            assert_eq!(
                normalize_terminal(s),
                normalize_terminal(r),
                "{context}: terminal line {i} differs"
            );
        } else {
            assert_eq!(s, r, "{context}: line {i} differs byte-for-byte");
        }
    }
}

#[derive(serde::Deserialize)]
struct SubmitResp {
    id: String,
    status: String,
    disposition: String,
    cache_hit: bool,
}

#[derive(serde::Deserialize)]
struct StatusResp {
    id: String,
    domain: String,
    status: String,
    outcome: Option<JobOutcome>,
}

fn wait_done(api: &Client, id: &str) -> StatusResp {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = api.get(&format!("/v1/jobs/{id}")).unwrap();
        if resp.status == 200 {
            let status: StatusResp = serde_json::from_str(&resp.body).unwrap();
            if status.status == "done" {
                return status;
            }
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Property 1: three shard processes, one gateway — dp/ff/sched routed
/// through the gateway produce byte-identical streams to direct runs,
/// and resubmits are cache hits.
#[test]
fn gateway_routed_streams_match_direct_runs_for_all_domains() {
    let _guard = test_lock();
    let store_dir = scratch_dir("route");
    let ports = free_ports(3);
    let addrs: Vec<SocketAddr> = ports
        .iter()
        .map(|p| format!("127.0.0.1:{p}").parse().unwrap())
        .collect();
    let mut shards: Vec<ShardProc> = addrs
        .iter()
        .enumerate()
        .map(|(i, a)| ShardProc::spawn(*a, &store_dir, &format!("shard-{i}"), None))
        .collect();
    for shard in &shards {
        shard.wait_ready();
    }
    let (gw, gw_join) = start_gateway(peers_of(&addrs));
    let api = client_at(gw.addr());

    for domain in ["dp", "ff", "sched"] {
        let job = spec(domain, 0xE2E);
        // Reference first: the shards are idle while this process
        // solves, and vice versa.
        let (reference, ref_outcome) = reference_lines(&job);

        let resp = api.post("/v1/jobs", &spec_json(&job)).unwrap();
        assert_eq!(resp.status, 202, "{domain}: {}", resp.body);
        let submit: SubmitResp = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(submit.disposition, "enqueued", "{domain}");
        assert!(!submit.cache_hit);

        let (status, mut stream) = api
            .stream(&format!("/v1/jobs/{}/events", submit.id))
            .unwrap();
        assert_eq!(status, 200);
        let served = stream.collect_lines().unwrap();
        assert_streams_equal(&served, &reference, domain);

        let status = wait_done(&api, &submit.id);
        assert_eq!(status.id, submit.id);
        assert_eq!(status.domain, domain);
        let outcome = status.outcome.expect("done job has an outcome");
        assert_eq!(
            serde_json::to_string(&outcome.result).unwrap(),
            serde_json::to_string(&ref_outcome.result).unwrap(),
            "{domain}: gateway-served result differs from direct run"
        );

        // Resubmission through the gateway lands on the same owner and
        // answers from its cache.
        let resp = api.post("/v1/jobs", &spec_json(&job)).unwrap();
        assert_eq!(resp.status, 200, "{domain}: {}", resp.body);
        let again: SubmitResp = serde_json::from_str(&resp.body).unwrap();
        assert_eq!(again.id, submit.id);
        assert!(again.cache_hit, "{domain}: {}", resp.body);
    }

    // The gateway's metrics report the mesh: 3 healthy peers, epoch ≥ 1.
    let metrics = api.get("/v1/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let parsed: serde::Value = serde_json::from_str(&metrics.body).unwrap();
    let mesh = serde::map_get(parsed.as_map().unwrap(), "mesh")
        .expect("gateway metrics carry a mesh block")
        .as_map()
        .unwrap();
    assert_eq!(
        serde::map_get(mesh, "shard_id").unwrap().as_str(),
        Some("gateway")
    );
    assert_eq!(
        serde::map_get(mesh, "peers_healthy").unwrap().as_f64(),
        Some(3.0),
        "{}",
        metrics.body
    );

    // Domains proxy through.
    let domains = api.get("/v1/domains").unwrap();
    assert_eq!(domains.status, 200);
    assert!(domains.body.contains("\"sched\""), "{}", domains.body);

    // Every store entry is stamped with the shard that computed it.
    let mut stamped = 0;
    for entry in std::fs::read_dir(&store_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(
                text.contains("\"origin\":\"shard-"),
                "store entry {} lacks an origin stamp",
                path.display()
            );
            stamped += 1;
        }
    }
    assert_eq!(stamped, 3, "one committed entry per domain");

    gw.shutdown();
    gw_join.join().unwrap();
    for shard in &mut shards {
        shard.stop();
    }
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Property 2: cancel through the gateway, restart the owning shard
/// process, resubmit through the gateway — the job resumes from its
/// checkpoint and the concatenated stream equals an uninterrupted run.
#[test]
fn cancel_then_shard_restart_then_resume_through_the_gateway() {
    let _guard = test_lock();
    let store_dir = scratch_dir("restart");
    let ports = free_ports(3);
    let addrs: Vec<SocketAddr> = ports
        .iter()
        .map(|p| format!("127.0.0.1:{p}").parse().unwrap())
        .collect();
    let mut shards: Vec<ShardProc> = addrs
        .iter()
        .enumerate()
        .map(|(i, a)| ShardProc::spawn(*a, &store_dir, &format!("shard-{i}"), None))
        .collect();
    for shard in &shards {
        shard.wait_ready();
    }
    let (gw, gw_join) = start_gateway(peers_of(&addrs));
    let api = client_at(gw.addr());

    let job = spec("sched", 0xCA7CE1);
    let (reference, _) = reference_lines(&job);
    assert!(reference.len() >= 4, "config too small to interrupt");

    // Submit and stream through the gateway; cancel after two events.
    let resp = api.post("/v1/jobs", &spec_json(&job)).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);
    let submit: SubmitResp = serde_json::from_str(&resp.body).unwrap();
    let (_, mut stream) = api
        .stream(&format!("/v1/jobs/{}/events", submit.id))
        .unwrap();
    let mut first_segment = Vec::new();
    for _ in 0..2 {
        first_segment.push(stream.next_line().unwrap().expect("live event"));
    }
    let resp = api
        .post(&format!("/v1/jobs/{}/cancel", submit.id), "")
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    first_segment.extend(stream.collect_lines().unwrap());
    let terminal = first_segment.pop().expect("cancelled stream terminates");
    assert_eq!(line_kind(&terminal), "finished");
    assert!(
        first_segment.len() < reference.len() - 1,
        "cancellation landed after the run finished"
    );

    // The checkpoint is in the *shared* store, named by content key.
    let ckpt = store_dir.join(format!("{}.ckpt", submit.id));
    assert!(ckpt.is_file(), "no checkpoint at {}", ckpt.display());

    // Restart the shard that owns this key (same address, same store).
    let view = View {
        epoch: 1,
        peers: addrs
            .iter()
            .map(|a| PeerState {
                peer: Peer {
                    id: a.to_string(),
                    addr: *a,
                },
                healthy: true,
            })
            .collect(),
    };
    let key = JobQueue::parse_id(&submit.id).expect("id parses");
    let owner_addr = ring::owner(key, &view).expect("owner exists").peer.addr;
    let owner = shards
        .iter_mut()
        .find(|s| s.addr == owner_addr)
        .expect("owner is one of ours");
    owner.restart();

    // Resubmit through the gateway: same key → same owner → resume.
    let resp = api.post("/v1/jobs", &spec_json(&job)).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);
    let resumed: SubmitResp = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(resumed.id, submit.id, "content-addressed ids are stable");
    // The restarted process has no in-memory record of the cancel, so
    // the disposition is `enqueued`; the resume is proven below by
    // `finish.resumed` and the byte-equal concatenated stream.
    let (_, mut stream) = api
        .stream(&format!("/v1/jobs/{}/events", resumed.id))
        .unwrap();
    let second_segment = stream.collect_lines().unwrap();

    let status = wait_done(&api, &resumed.id);
    let finish = status.outcome.unwrap().finish.expect("session ran");
    assert!(finish.natural && finish.resumed, "{finish:?}");

    let mut concatenated = first_segment;
    concatenated.extend(second_segment);
    assert_streams_equal(&concatenated, &reference, "restart concatenation");
    assert!(!ckpt.exists(), "checkpoint must clear on natural finish");

    gw.shutdown();
    gw_join.join().unwrap();
    for shard in &mut shards {
        shard.stop();
    }
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// In-process server helper for the failover and stealing tests.
fn start_inproc_shard(
    store_dir: Option<PathBuf>,
    shard_id: &str,
    pace_ms: u64,
    mesh: Option<Arc<MeshStatus>>,
) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_workers: 1,
        http_threads: 4,
        capacity: 32,
        store_dir,
        read_timeout: Duration::from_secs(120),
        retain_done: 1024,
        shard_id: Some(shard_id.into()),
        pace_ms,
        mesh,
        ..ServerConfig::default()
    })
    .expect("ephemeral bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || {
        let registry = DomainRegistry::builtin();
        server.run(&registry).expect("server runs");
    });
    (handle, join)
}

/// Property 3: dead-owner failover, single-node fallback, and the
/// all-dead 503.
#[test]
fn gateway_fails_over_dead_owners_and_degrades_honestly() {
    let _guard = test_lock();

    // One live in-process shard plus one permanently dead address.
    let (live, live_join) = start_inproc_shard(None, "live", 0, None);
    let dead_addr: SocketAddr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
        // listener drops here: the port is closed
    };
    let peers = peers_of(&[live.addr(), dead_addr]);
    let (gw, gw_join) = start_gateway(peers);
    let api = client_at(gw.addr());

    // Find a seed whose ring owner (all-healthy view) would be the dead
    // peer — the gateway must route it to the live shard anyway.
    let all_healthy = View {
        epoch: 1,
        peers: [live.addr(), dead_addr]
            .iter()
            .map(|a| PeerState {
                peer: Peer {
                    id: a.to_string(),
                    addr: *a,
                },
                healthy: true,
            })
            .collect(),
    };
    let victim_seed = (0..64u64)
        .find(|seed| {
            let key = JobQueue::job_key(&spec("dp", *seed));
            ring::owner(key, &all_healthy).unwrap().peer.addr == dead_addr
        })
        .expect("some seed hashes to the dead peer");
    let resp = api
        .post("/v1/jobs", &spec_json(&spec("dp", victim_seed)))
        .unwrap();
    assert_eq!(
        resp.status, 202,
        "dead-owner submit must fail over: {}",
        resp.body
    );
    let submit: SubmitResp = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(submit.status, "queued");
    wait_done(&api, &submit.id);

    // Single-node fallback: the one-peer path is just a working proxy
    // (exercised above — the live shard took everything); check the
    // mesh gauges agree one peer is down.
    let metrics: serde::Value =
        serde_json::from_str(&api.get("/v1/metrics").unwrap().body).unwrap();
    let mesh = serde::map_get(metrics.as_map().unwrap(), "mesh")
        .unwrap()
        .as_map()
        .unwrap();
    assert_eq!(
        serde::map_get(mesh, "peers_total").unwrap().as_f64(),
        Some(2.0)
    );
    assert_eq!(
        serde::map_get(mesh, "peers_healthy").unwrap().as_f64(),
        Some(1.0)
    );

    // All-dead mesh: 503 on every proxied route.
    let (gw_dead, gw_dead_join) = start_gateway(peers_of(&[dead_addr]));
    let dead_api = client_at(gw_dead.addr());
    assert_eq!(
        dead_api
            .post("/v1/jobs", &spec_json(&spec("dp", 1)))
            .unwrap()
            .status,
        503
    );
    assert_eq!(dead_api.get("/v1/domains").unwrap().status, 503);
    assert_eq!(
        dead_api.get("/v1/jobs/0123456789abcdef").unwrap().status,
        503
    );
    gw_dead.shutdown();
    gw_dead_join.join().unwrap();

    gw.shutdown();
    gw_join.join().unwrap();
    live.shutdown();
    live_join.join().unwrap();
}

/// An untrusted submit body nested far past the JSON depth limit is a
/// 400 on a shard and at the gateway, not a stack overflow that kills
/// the process; both keep serving, and the next job completes.
#[test]
fn deeply_nested_submit_is_refused_and_the_mesh_keeps_serving() {
    let _guard = test_lock();
    let (shard, shard_join) = start_inproc_shard(None, "deep", 0, None);
    let (gw, gw_join) = start_gateway(peers_of(&[shard.addr()]));
    let direct = client_at(shard.addr());
    let proxied = client_at(gw.addr());

    let deep = "[".repeat(200_000) + &"]".repeat(200_000);
    for (tier, api) in [("shard", &direct), ("gateway", &proxied)] {
        let resp = api.post("/v1/jobs", &deep).unwrap();
        assert_eq!(resp.status, 400, "{tier}: {}", resp.body);
        assert!(
            resp.body.contains("recursion limit exceeded"),
            "{tier}: {}",
            resp.body
        );
    }

    let resp = proxied
        .post("/v1/jobs", &spec_json(&spec("sched", 3)))
        .unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);
    let submit: SubmitResp = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(wait_done(&proxied, &submit.id).status, "done");

    gw.shutdown();
    gw_join.join().unwrap();
    shard.shutdown();
    shard_join.join().unwrap();
}

/// Write `raw` on a fresh connection, half-close it, and read the
/// whole answer.
fn raw_exchange(addr: SocketAddr, raw: &[u8]) -> String {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    conn.write_all(raw).unwrap();
    conn.shutdown(Shutdown::Write).unwrap();
    let mut answer = String::new();
    conn.read_to_string(&mut answer).unwrap();
    answer
}

/// A shard and the gateway share one HTTP front, so a request that never
/// reaches a route gets the same answer, byte for byte, from either:
/// status line, `Allow` header, and error body.
#[test]
fn shard_and_gateway_fronts_refuse_requests_identically() {
    let (shard, shard_join) = start_inproc_shard(None, "front", 0, None);
    let (gw, gw_join) = start_gateway(peers_of(&[shard.addr()]));

    let long_head = format!(
        "GET /v1/domains HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "y".repeat(MAX_HEAD_BYTES)
    );
    let cases: [(&str, Vec<u8>); 6] = [
        ("HTTP/1.1 404 ", b"GET /v1/nope HTTP/1.1\r\n\r\n".to_vec()),
        (
            "HTTP/1.1 405 ",
            b"GET /v1/shutdown HTTP/1.1\r\n\r\n".to_vec(),
        ),
        (
            "HTTP/1.1 413 ",
            format!(
                "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .into_bytes(),
        ),
        ("HTTP/1.1 413 ", long_head.into_bytes()),
        ("HTTP/1.1 400 ", b"NONSENSE\r\n\r\n".to_vec()),
        (
            "HTTP/1.1 400 ",
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc".to_vec(),
        ),
    ];
    for (status, raw) in &cases {
        let direct = raw_exchange(shard.addr(), raw);
        let proxied = raw_exchange(gw.addr(), raw);
        assert!(direct.starts_with(status), "shard: {direct}");
        assert_eq!(proxied, direct, "gateway and shard fronts differ");
    }
    let not_allowed = raw_exchange(gw.addr(), &cases[1].1);
    assert!(not_allowed.contains("\r\nAllow: POST\r\n"), "{not_allowed}");
    let truncated = raw_exchange(gw.addr(), &cases[5].1);
    assert!(
        truncated.ends_with("{\"error\":\"truncated request body\"}"),
        "{truncated}"
    );

    gw.shutdown();
    gw_join.join().unwrap();
    shard.shutdown();
    shard_join.join().unwrap();
}

/// Property 4: an idle shard steals queued (never in-flight) jobs from
/// a busy peer; both sides' gauges move; everything completes; every
/// committed entry is origin-stamped.
#[test]
fn idle_shard_steals_queued_work_from_a_busy_peer() {
    let _guard = test_lock();
    let store_dir = scratch_dir("steal");

    // Victim "a" paces its worker (150ms per fresh job) so submissions
    // pile up; thief "b" runs flat out.
    let mesh_a = Arc::new(MeshStatus::new("a"));
    let mesh_b = Arc::new(MeshStatus::new("b"));
    let (a, a_join) =
        start_inproc_shard(Some(store_dir.clone()), "a", 150, Some(Arc::clone(&mesh_a)));
    let (b, b_join) =
        start_inproc_shard(Some(store_dir.clone()), "b", 0, Some(Arc::clone(&mesh_b)));
    let api_a = client_at(a.addr());
    let api_b = client_at(b.addr());

    // Load shard a directly with 6 distinct jobs.
    let mut ids = Vec::new();
    for seed in 1..=6u64 {
        let resp = api_a
            .post("/v1/jobs", &spec_json(&spec("sched", seed)))
            .unwrap();
        assert_eq!(resp.status, 202, "{}", resp.body);
        let submit: SubmitResp = serde_json::from_str(&resp.body).unwrap();
        ids.push(submit.id);
    }

    // Thief loop, ticked deterministically (no background thread).
    let membership = Membership::bootstrap(
        peers_of(&[a.addr(), b.addr()]),
        Duration::from_millis(250),
        Some(Arc::clone(&mesh_b)),
    );
    let stealer = Stealer::new(
        b.addr(),
        membership,
        Arc::clone(&mesh_b),
        StealerConfig {
            batch_max: 2,
            ..StealerConfig::default()
        },
    );
    let mut stolen = 0usize;
    let deadline = Instant::now() + Duration::from_secs(10);
    while stolen == 0 && Instant::now() < deadline {
        stolen += stealer.tick();
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(stolen > 0, "the idle shard never managed to steal");
    assert_eq!(mesh_b.jobs_stolen(), stolen as u64);

    // The victim's queue recorded the donation.
    let metrics_a: serde::Value =
        serde_json::from_str(&api_a.get("/v1/metrics").unwrap().body).unwrap();
    let queue_a = serde::map_get(metrics_a.as_map().unwrap(), "queue")
        .unwrap()
        .as_map()
        .unwrap();
    let donated = serde::map_get(queue_a, "donated")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(
        donated >= stolen as f64,
        "donated={donated} stolen={stolen}"
    );

    // The thief's metrics expose the stolen gauge on the wire.
    let metrics_b: serde::Value =
        serde_json::from_str(&api_b.get("/v1/metrics").unwrap().body).unwrap();
    let mesh_block = serde::map_get(metrics_b.as_map().unwrap(), "mesh")
        .unwrap()
        .as_map()
        .unwrap();
    assert_eq!(
        serde::map_get(mesh_block, "jobs_stolen").unwrap().as_f64(),
        Some(stolen as f64)
    );

    // Every job completes — on the victim's view of the world (donated
    // copies either recompute or answer from the shared store).
    for id in &ids {
        let status = wait_done(&api_a, id);
        assert!(status.outcome.is_some(), "job {id} has no outcome");
    }

    // All committed entries carry an origin stamp from one of the two
    // shards.
    let mut entries = 0;
    for entry in std::fs::read_dir(&store_dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(
                text.contains("\"origin\":\"a\"") || text.contains("\"origin\":\"b\""),
                "store entry {} lacks an origin stamp",
                path.display()
            );
            entries += 1;
        }
    }
    assert_eq!(entries, 6, "one committed entry per job");

    a.shutdown();
    b.shutdown();
    a_join.join().unwrap();
    b_join.join().unwrap();
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Property 5: the repair-loop surface proxies transparently. The
/// regression listing (including its query string) is byte-identical
/// through the gateway and against the shard directly, and a tuning
/// stream relayed by the gateway matches the shard's NDJSON line for
/// line (same store ⇒ same corpus ⇒ deterministic tuner).
#[test]
fn regressions_and_tune_are_identical_through_gateway_and_shard() {
    let _guard = test_lock();
    let store_dir = scratch_dir("tune-proxy");

    let (shard, shard_join) = start_inproc_shard(Some(store_dir.clone()), "t0", 0, None);
    let (gw, gw_join) = start_gateway(peers_of(&[shard.addr()]));
    let direct = client_at(shard.addr());
    let proxied = client_at(gw.addr());

    // Seed the bank: one finished dp session, submitted via the gateway.
    let resp = proxied
        .post("/v1/jobs", &spec_json(&spec("dp", 0x5EED)))
        .unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);
    let submit: SubmitResp = serde_json::from_str(&resp.body).unwrap();
    wait_done(&proxied, &submit.id);

    // Listing: byte-identical with and without a query string.
    for path in ["/v1/regressions", "/v1/regressions?offset=0&limit=2"] {
        let a = direct.get(path).unwrap();
        let b = proxied.get(path).unwrap();
        assert_eq!(a.status, 200, "{path}: {}", a.body);
        assert_eq!(b.status, 200, "{path}: {}", b.body);
        assert_eq!(a.body, b.body, "{path} differs through the gateway");
    }
    let listing: serde::Value =
        serde_json::from_str(&direct.get("/v1/regressions").unwrap().body).unwrap();
    let total = serde::map_get(listing.as_map().unwrap(), "total")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(total >= 1.0, "dp session seeded no regressions");

    // Tuning: the relayed stream is the shard's stream, line for line.
    let body = r#"{"domain":"dp","quick":true,"seed":11}"#;
    let (status, _, mut stream) = direct.stream_post("/v1/tune", body).unwrap();
    assert_eq!(status, 200);
    let direct_lines = stream.collect_lines().unwrap();
    let (status, headers, mut stream) = proxied.stream_post("/v1/tune", body).unwrap();
    assert_eq!(status, 200);
    assert!(
        headers
            .iter()
            .any(|(k, v)| k.eq_ignore_ascii_case("content-type") && v == "application/x-ndjson"),
        "gateway must relay the NDJSON content type: {headers:?}"
    );
    let proxied_lines = stream.collect_lines().unwrap();
    assert_eq!(
        direct_lines, proxied_lines,
        "tune stream differs through the gateway"
    );
    assert!(
        proxied_lines
            .last()
            .is_some_and(|l| l.starts_with("{\"report\":")),
        "stream must close with the report line: {proxied_lines:?}"
    );

    gw.shutdown();
    gw_join.join().unwrap();
    shard.shutdown();
    shard_join.join().unwrap();
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Tenancy at the edge (DESIGN.md §12): the gateway authenticates
/// bearer keys exactly like a shard (401 missing/malformed on submit,
/// 403 unknown on every route), forwards the authenticated tenant id
/// upstream so the shard enforces that tenant's lane and quotas,
/// relays tenant-scoped 429s with Retry-After intact, and both tiers
/// report per-tenant metrics blocks.
#[test]
fn gateway_authenticates_tenants_at_the_edge_and_forwards_attribution() {
    let _guard = test_lock();
    let tenants_file =
        std::env::temp_dir().join(format!("xplain-mesh-tenants-{}.json", std::process::id()));
    std::fs::write(
        &tenants_file,
        format!(
            r#"{{"tenants": [
                {{"id": "heavy", "key_fnv": "{}", "weight": 3}},
                {{"id": "light", "key_fnv": "{}", "weight": 1,
                  "submit_rate": 0.25, "submit_burst": 1}}
            ]}}"#,
            TenantRegistry::hash_api_key("heavy-key"),
            TenantRegistry::hash_api_key("light-key"),
        ),
    )
    .expect("tenant config writes");

    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_workers: 1,
        http_threads: 4,
        capacity: 32,
        store_dir: None,
        read_timeout: Duration::from_secs(120),
        retain_done: 1024,
        shard_id: Some("t0".into()),
        pace_ms: 0,
        mesh: None,
        tenants: Some(tenants_file.clone()),
        ..ServerConfig::default()
    })
    .expect("shard binds");
    let shard = server.handle();
    let shard_join = std::thread::spawn(move || {
        let registry = DomainRegistry::builtin();
        server.run(&registry).expect("server runs");
    });

    let gateway = Gateway::bind(GatewayConfig {
        addr: "127.0.0.1:0".into(),
        peers: peers_of(&[shard.addr()]),
        heartbeat: Duration::from_millis(100),
        // One attempt per shard: a tenant-scoped 429 must surface to
        // the caller (Retry-After intact), not be waited out upstream.
        upstream_attempts: 1,
        tenants: Some(tenants_file.clone()),
        ..GatewayConfig::default()
    })
    .expect("gateway binds");
    let gw = gateway.handle();
    let gw_join = std::thread::spawn(move || gateway.run().expect("gateway runs"));

    // The edge refuses anonymous and bad credentials before anything
    // is forwarded: 401 missing/malformed, 403 unknown — the same
    // answers a standalone shard gives.
    let anon = client_at(gw.addr());
    let resp = anon.post("/v1/jobs", &spec_json(&spec("dp", 1))).unwrap();
    assert_eq!(resp.status, 401, "{}", resp.body);
    let resp = client_at(gw.addr())
        .with_header("Authorization", "Basic dXNlcjpwdw==")
        .post("/v1/jobs", &spec_json(&spec("dp", 1)))
        .unwrap();
    assert_eq!(resp.status, 401, "{}", resp.body);
    let resp = client_at(gw.addr())
        .with_bearer("no-such-key")
        .get("/v1/domains")
        .unwrap();
    assert_eq!(resp.status, 403, "{}", resp.body);
    let resp = client_at(gw.addr())
        .with_tenant("nobody")
        .get("/v1/domains")
        .unwrap();
    assert_eq!(resp.status, 403, "{}", resp.body);

    // Authenticated submits route through; the light tenant's second
    // immediate submit trips its own token bucket on the shard and the
    // 429 relays back out with the tenant-scoped Retry-After.
    let heavy = client_at(gw.addr()).with_bearer("heavy-key");
    let light = client_at(gw.addr()).with_bearer("light-key");
    let resp = heavy.post("/v1/jobs", &spec_json(&spec("dp", 7))).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);
    let heavy_id = serde_json::from_str::<SubmitResp>(&resp.body).unwrap().id;
    let resp = light.post("/v1/jobs", &spec_json(&spec("ff", 8))).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);
    let light_id = serde_json::from_str::<SubmitResp>(&resp.body).unwrap().id;
    let resp = light.post("/v1/jobs", &spec_json(&spec("ff", 9))).unwrap();
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert!(
        resp.body.contains("tenant 'light'"),
        "429 must be tenant-scoped: {}",
        resp.body
    );
    assert!(
        resp.header("retry-after").is_some(),
        "gateway must relay Retry-After"
    );

    // Per-tenant metrics on both tiers: the gateway's edge counters and
    // the shard's authoritative queue view, both sorted by tenant id.
    let gw_metrics = anon.get("/v1/metrics").unwrap().body;
    assert!(
        gw_metrics.contains(
            "\"tenants\":[\
             {\"tenant\":\"heavy\",\"weight\":3,\"submitted\":1,\"rejected\":0},\
             {\"tenant\":\"light\",\"weight\":1,\"submitted\":1,\"rejected\":1}]"
        ),
        "gateway edge counters wrong: {gw_metrics}"
    );
    let shard_metrics = client_at(shard.addr()).get("/v1/metrics").unwrap().body;
    assert!(
        shard_metrics.contains("\"tenant\":\"heavy\",\"weight\":3,")
            && shard_metrics.contains("\"tenant\":\"light\",\"weight\":1,"),
        "shard lost forwarded attribution: {shard_metrics}"
    );

    wait_done(&heavy, &heavy_id);
    wait_done(&light, &light_id);

    gw.shutdown();
    gw_join.join().unwrap();
    shard.shutdown();
    shard_join.join().unwrap();
    let _ = std::fs::remove_file(&tenants_file);
}
