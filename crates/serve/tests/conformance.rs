//! Wire-format conformance: pins the HTTP surface other processes
//! build against — the mesh gateway, the work stealer, perfbench, and
//! any out-of-tree client.
//!
//! Everything here is intentionally brittle: exact status codes, exact
//! JSON key lists **in serialization order**, exact NDJSON chunked
//! framing. Renaming a field or reordering a struct is a wire-format
//! break for every deployed peer, so it must show up as a test diff,
//! not as a silent drift the gateway discovers in production.
//!
//! Solver counters are process-global; tests that execute jobs hold the
//! usual file-wide mutex.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use xplain_core::pipeline::PipelineConfig;
use xplain_core::subspace::SubspaceParams;
use xplain_core::{ExplainerParams, SignificanceParams};
use xplain_runtime::{DomainRegistry, JobSpec, SessionBudgets, TenantRegistry};
use xplain_serve::{Client, Server, ServerConfig, ServerHandle};

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

fn spec_json(domain: &str, seed: u64) -> String {
    serde_json::to_string(&JobSpec {
        domain: domain.into(),
        config: tiny_config(),
        seed,
        budgets: SessionBudgets::unlimited(),
    })
    .expect("spec serializes")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xplain-conformance-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(
    store: Option<PathBuf>,
    capacity: usize,
    pace_ms: u64,
) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_workers: 1,
        http_threads: 4,
        capacity,
        store_dir: store,
        read_timeout: Duration::from_secs(120),
        retain_done: 1024,
        pace_ms,
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

fn start_server_with_tenants(
    capacity: usize,
    pace_ms: u64,
    tenants: PathBuf,
) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        queue_workers: 1,
        http_threads: 4,
        capacity,
        store_dir: None,
        read_timeout: Duration::from_secs(120),
        retain_done: 1024,
        pace_ms,
        tenants: Some(tenants),
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

fn client(handle: &ServerHandle) -> Client {
    Client::new(handle.addr()).with_timeout(Duration::from_secs(120))
}

/// The top-level keys of a JSON object, in serialization order.
fn keys(body: &str) -> Vec<String> {
    let value: serde::Value = serde_json::from_str(body).expect("body is JSON");
    object_keys(&value)
}

fn object_keys(value: &serde::Value) -> Vec<String> {
    value
        .as_map()
        .expect("value is a JSON object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn get_field<'v>(value: &'v serde::Value, key: &str) -> &'v serde::Value {
    serde::map_get(value.as_map().expect("object"), key)
        .unwrap_or_else(|| panic!("missing field '{key}'"))
}

fn wait_done(api: &Client, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = api.get(&format!("/v1/jobs/{id}")).unwrap();
        if resp.status == 200 && resp.body.contains("\"status\":\"done\"") {
            return;
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Every success body's field names and every route's status code, in
/// one sweep over a live server.
#[test]
fn success_bodies_and_status_codes_are_pinned() {
    let _guard = test_lock();
    let store_dir = scratch_dir("shapes");
    let (handle, join) = start_server(Some(store_dir.clone()), 16, 0);
    let api = client(&handle);

    // GET /v1/domains → 200, a bare array of {id, description}.
    let resp = api.get("/v1/domains").unwrap();
    assert_eq!(resp.status, 200);
    let listing: serde::Value = serde_json::from_str(&resp.body).unwrap();
    let entries = listing.as_seq().expect("domains is a JSON array");
    assert!(!entries.is_empty());
    for entry in entries {
        assert_eq!(object_keys(entry), ["id", "description"]);
    }

    // POST /v1/jobs (fresh) → 202 {id, status, disposition, cache_hit};
    // ids are exactly 16 lowercase hex digits (the content key).
    let resp = api.post("/v1/jobs", &spec_json("dp", 0xC0FF)).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);
    assert_eq!(
        keys(&resp.body),
        ["id", "status", "disposition", "cache_hit"]
    );
    let submit: serde::Value = serde_json::from_str(&resp.body).unwrap();
    let id = get_field(&submit, "id").as_str().unwrap().to_string();
    assert_eq!(id.len(), 16, "id {id:?}");
    assert!(
        id.chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()),
        "id {id:?} is not lowercase hex"
    );
    wait_done(&api, &id);

    // GET /v1/jobs/{id} → 200 {id, domain, status, events, recovered,
    // outcome}.
    let resp = api.get(&format!("/v1/jobs/{id}")).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        keys(&resp.body),
        ["id", "domain", "status", "events", "recovered", "outcome"]
    );

    // POST /v1/jobs (repeat) → 200, same shape, cache_hit true.
    let resp = api.post("/v1/jobs", &spec_json("dp", 0xC0FF)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(
        keys(&resp.body),
        ["id", "status", "disposition", "cache_hit"]
    );
    assert!(resp.body.contains("\"cache_hit\":true"), "{}", resp.body);

    // POST /v1/jobs/{id}/cancel on a done job → 200 {id, was, cancelled},
    // honest about being too late.
    let resp = api.post(&format!("/v1/jobs/{id}/cancel"), "").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(keys(&resp.body), ["id", "was", "cancelled"]);
    let cancel: serde::Value = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(get_field(&cancel, "was").as_str(), Some("done"));
    assert_eq!(get_field(&cancel, "cancelled").as_bool(), Some(false));

    // GET /v1/queue → 200 {depth, active, stealable, pending}; pending
    // entries (none right now) are {id, domain, donated}.
    let resp = api.get("/v1/queue").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        keys(&resp.body),
        ["depth", "active", "stealable", "pending"]
    );

    // POST /v1/queue/steal → 200 {jobs}; an idle queue donates nothing.
    let resp = api.post("/v1/queue/steal", r#"{"max":2}"#).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(keys(&resp.body), ["jobs"]);
    assert_eq!(resp.body, r#"{"jobs":[]}"#);

    // GET /v1/metrics → 200; the full report schema documented in
    // DESIGN.md §"Metrics schema". `mesh` is null on a standalone
    // server; `store_entries` is a number and `journal` an object
    // because this server runs store-backed with the journal on.
    let resp = api.get("/v1/metrics").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        keys(&resp.body),
        [
            "uptime_ms",
            "queue",
            "store_entries",
            "bank",
            "journal",
            "mesh",
            "solver",
            "routes"
        ]
    );
    let metrics: serde::Value = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(
        object_keys(get_field(&metrics, "queue")),
        [
            "depth",
            "active_sessions",
            "submitted",
            "completed",
            "cancelled",
            "rejected_busy",
            "cache_hits",
            "cache_hit_rate",
            "donated",
            "recovered"
        ]
    );
    assert!(
        matches!(get_field(&metrics, "mesh"), serde::Value::Null),
        "standalone server must report mesh:null, got {}",
        resp.body
    );
    assert!(get_field(&metrics, "store_entries").as_f64().is_some());
    assert_eq!(
        object_keys(get_field(&metrics, "bank")),
        ["entries", "bytes", "last_replay_pass"],
        "bank gauge block schema (store-backed server exposes the bank)"
    );
    assert_eq!(
        object_keys(get_field(&metrics, "journal")),
        [
            "segments",
            "bytes",
            "live_jobs",
            "records",
            "recovered",
            "append_errors",
            "segments_compacted",
            "bytes_compacted"
        ],
        "journal block schema (store-backed server journals by default)"
    );
    for route in get_field(&metrics, "routes").as_seq().unwrap() {
        assert_eq!(
            object_keys(route),
            ["route", "count", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms"]
        );
    }

    // POST /v1/shutdown → 200 {shutting_down}.
    let resp = api.post("/v1/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(keys(&resp.body), ["shutting_down"]);
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Every failure path: envelope shape, code, and the headers clients
/// key off (`Allow`, `Retry-After`).
#[test]
fn error_envelopes_codes_and_headers_are_pinned() {
    let _guard = test_lock();
    // capacity 1 + a paced worker makes the 429 deterministic: one job
    // runs (held ≥300ms), one waits, the next submission overflows.
    let (handle, join) = start_server(None, 1, 300);
    let api = client(&handle);

    // 404: unknown path, and a well-formed id nobody submitted.
    let resp = api.get("/no/such/path").unwrap();
    assert_eq!(resp.status, 404);
    assert_eq!(keys(&resp.body), ["error"]);
    assert_eq!(api.get("/v1/jobs/0123456789abcdef").unwrap().status, 404);
    assert_eq!(
        api.get("/v1/jobs/0123456789abcdef/events").unwrap().status,
        404
    );

    // 405: wrong method, with the allowed one named in `Allow`.
    let resp = api.get("/v1/jobs").unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("POST"));
    assert_eq!(keys(&resp.body), ["error"]);
    let resp = api.post("/v1/domains", "").unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("GET"));
    let resp = api.post("/v1/queue", "").unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("GET"));
    let resp = api.get("/v1/queue/steal").unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("POST"));
    let resp = api.post("/v1/regressions", "").unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("GET"));
    let resp = api.get("/v1/tune").unwrap();
    assert_eq!(resp.status, 405);
    assert_eq!(resp.header("allow"), Some("POST"));

    // 404: the regression bank and the tuner live in the store; a
    // storeless server has neither.
    assert_eq!(api.get("/v1/regressions").unwrap().status, 404);
    let resp = api.post("/v1/tune", r#"{"domain":"dp"}"#).unwrap();
    assert_eq!(resp.status, 404);
    assert_eq!(keys(&resp.body), ["error"]);

    // 400: unparseable body, then a parseable spec for a domain that
    // does not exist (the message points at the discovery route).
    let resp = api.post("/v1/jobs", "{not json").unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(keys(&resp.body), ["error"]);
    let resp = api
        .post("/v1/jobs", &spec_json("no-such-domain", 1))
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("/v1/domains"), "{}", resp.body);
    let resp = api.post("/v1/queue/steal", "{not json").unwrap();
    assert_eq!(resp.status, 400);

    // 413: a declared body over the 1 MiB cap is refused from the
    // headers alone — the server never reads (or waits for) the body.
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(
        raw,
        "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        1024 * 1024 + 1
    )
    .unwrap();
    let mut head = String::new();
    raw.read_to_string(&mut head).unwrap();
    assert!(
        head.starts_with("HTTP/1.1 413 "),
        "oversized body got: {head}"
    );
    drop(raw);

    // 429: fill the paced server, overflow, and read Retry-After.
    let resp = api.post("/v1/jobs", &spec_json("dp", 1)).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);
    let first: serde::Value = serde_json::from_str(&resp.body).unwrap();
    let first_id = get_field(&first, "id").as_str().unwrap().to_string();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = api.get(&format!("/v1/jobs/{first_id}")).unwrap();
        if status.body.contains("\"status\":\"running\"") {
            break;
        }
        assert!(Instant::now() < deadline, "first job never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        api.post("/v1/jobs", &spec_json("dp", 2)).unwrap().status,
        202
    );
    let resp = api.post("/v1/jobs", &spec_json("dp", 3)).unwrap();
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert_eq!(keys(&resp.body), ["error"]);
    let retry_after: u64 = resp
        .header("retry-after")
        .expect("429 must carry Retry-After")
        .parse()
        .expect("Retry-After is integral seconds");
    assert!(retry_after >= 1);

    handle.shutdown();
    join.join().unwrap();
}

/// The tenancy wire surface: 401 on missing/malformed credentials, 403
/// on unknown ones, the tenant-scoped 429 `Retry-After`, tenant
/// attribution in `/v1/queue`, and the exact key order of the
/// `tenants` block in `/v1/metrics`. Read/ops routes stay open even
/// when enforcing (liveness probes and mesh internals rely on it).
#[test]
fn tenancy_auth_quota_and_metrics_surfaces_are_pinned() {
    let _guard = test_lock();
    let dir = scratch_dir("tenancy");
    std::fs::create_dir_all(&dir).unwrap();
    let config_path = dir.join("tenants.json");
    let config = format!(
        concat!(
            r#"{{"tenants":["#,
            r#"{{"id":"light","key_fnv":"{}","weight":1,"submit_rate":0.25,"submit_burst":1}},"#,
            r#"{{"id":"heavy","key_fnv":"{}","weight":3}}"#,
            r#"]}}"#
        ),
        TenantRegistry::hash_api_key("light-key"),
        TenantRegistry::hash_api_key("heavy-key"),
    );
    std::fs::write(&config_path, config).unwrap();
    // pace 300ms keeps later submissions visibly queued for the
    // attribution check.
    let (handle, join) = start_server_with_tenants(16, 300, config_path);
    let api = client(&handle);

    // 401: submission without credentials, and with a malformed
    // Authorization header (scheme must be Bearer).
    let resp = api.post("/v1/jobs", &spec_json("dp", 1)).unwrap();
    assert_eq!(resp.status, 401, "{}", resp.body);
    assert_eq!(keys(&resp.body), ["error"]);
    let resp = client(&handle)
        .with_header("Authorization", "Basic bGlnaHQ=")
        .post("/v1/jobs", &spec_json("dp", 1))
        .unwrap();
    assert_eq!(resp.status, 401, "{}", resp.body);

    // 403: well-formed but unknown API key — on every route, not just
    // submissions. Same for an unknown forwarded tenant id.
    let resp = client(&handle)
        .with_bearer("no-such-key")
        .post("/v1/jobs", &spec_json("dp", 1))
        .unwrap();
    assert_eq!(resp.status, 403, "{}", resp.body);
    assert_eq!(keys(&resp.body), ["error"]);
    let resp = client(&handle)
        .with_bearer("no-such-key")
        .get("/v1/domains")
        .unwrap();
    assert_eq!(resp.status, 403, "{}", resp.body);
    let resp = client(&handle)
        .with_tenant("nobody")
        .post("/v1/jobs", &spec_json("dp", 1))
        .unwrap();
    assert_eq!(resp.status, 403, "{}", resp.body);

    // Read/ops routes answer without credentials (DESIGN.md §12's trust
    // model: auth gates work attribution, not liveness).
    assert_eq!(api.get("/v1/domains").unwrap().status, 200);
    assert_eq!(api.get("/v1/queue").unwrap().status, 200);

    // An authenticated submission is accepted; an immediate second one
    // overruns light's 0.25/s single-token bucket and gets the
    // tenant-scoped 429: Retry-After is the bucket's own refill time
    // (~4s), NOT the global backlog estimate (empty queue → 1s).
    let light = client(&handle).with_bearer("light-key");
    let resp = light.post("/v1/jobs", &spec_json("dp", 0xA11CE)).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);
    let resp = light.post("/v1/jobs", &spec_json("dp", 0xA11CF)).unwrap();
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert_eq!(keys(&resp.body), ["error"]);
    assert!(
        resp.body.contains("tenant 'light'") && resp.body.contains("submit rate"),
        "{}",
        resp.body
    );
    let retry_after: u64 = resp
        .header("retry-after")
        .expect("tenant 429 must carry Retry-After")
        .parse()
        .expect("Retry-After is integral seconds");
    assert!(
        (2..=4).contains(&retry_after),
        "expected the bucket refill time, got {retry_after}"
    );

    // The gateway forwarding path: X-Xplain-Tenant attributes without a
    // bearer key. Two heavy jobs guarantee at least one is still
    // waiting, so /v1/queue shows the attributed `tenant` key.
    let forwarded = client(&handle).with_tenant("heavy");
    let resp = forwarded.post("/v1/jobs", &spec_json("dp", 2)).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);
    let heavy = client(&handle).with_bearer("heavy-key");
    let resp = heavy.post("/v1/jobs", &spec_json("dp", 3)).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);

    let resp = api.get("/v1/queue").unwrap();
    assert_eq!(resp.status, 200);
    let queue: serde::Value = serde_json::from_str(&resp.body).unwrap();
    let pending = get_field(&queue, "pending").as_seq().unwrap();
    assert!(!pending.is_empty(), "{}", resp.body);
    for entry in pending {
        assert_eq!(object_keys(entry), ["id", "domain", "donated", "tenant"]);
    }

    // GET /v1/metrics grows the `tenants` block between `queue` and
    // `store_entries`, sorted by tenant id, with this exact key order.
    let resp = api.get("/v1/metrics").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(
        keys(&resp.body),
        [
            "uptime_ms",
            "queue",
            "tenants",
            "store_entries",
            "bank",
            "journal",
            "mesh",
            "solver",
            "routes"
        ]
    );
    let metrics: serde::Value = serde_json::from_str(&resp.body).unwrap();
    let tenants = get_field(&metrics, "tenants").as_seq().unwrap();
    assert_eq!(tenants.len(), 2, "{}", resp.body);
    for entry in tenants {
        assert_eq!(
            object_keys(entry),
            [
                "tenant",
                "weight",
                "pending",
                "running",
                "submitted",
                "completed",
                "rejected"
            ]
        );
    }
    assert_eq!(get_field(&tenants[0], "tenant").as_str(), Some("heavy"));
    assert_eq!(get_field(&tenants[0], "weight").as_f64(), Some(3.0));
    assert_eq!(get_field(&tenants[0], "submitted").as_f64(), Some(2.0));
    assert_eq!(get_field(&tenants[1], "tenant").as_str(), Some("light"));
    assert_eq!(get_field(&tenants[1], "submitted").as_f64(), Some(1.0));
    assert_eq!(get_field(&tenants[1], "rejected").as_f64(), Some(1.0));

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The event stream on the wire: chunked transfer encoding, NDJSON
/// content type, one event line (newline-terminated) per chunk, and the
/// zero-length terminator chunk that distinguishes a complete stream
/// from a truncated one.
#[test]
fn event_stream_framing_is_one_ndjson_line_per_chunk() {
    let _guard = test_lock();
    let (handle, join) = start_server(None, 16, 0);
    let api = client(&handle);

    let resp = api.post("/v1/jobs", &spec_json("dp", 0xF4A)).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);
    let submit: serde::Value = serde_json::from_str(&resp.body).unwrap();
    let id = get_field(&submit, "id").as_str().unwrap().to_string();
    wait_done(&api, &id);

    // Raw socket: no client-side dechunking between us and the bytes.
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write!(raw, "GET /v1/jobs/{id}/events HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut wire = Vec::new();
    raw.read_to_end(&mut wire).unwrap();
    let wire = String::from_utf8(wire).expect("stream is UTF-8");

    let (head, body) = wire
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    let header_lines: Vec<&str> = head.split("\r\n").skip(1).collect();
    let has = |needle: &str| header_lines.iter().any(|l| l.eq_ignore_ascii_case(needle));
    assert!(has("transfer-encoding: chunked"), "{head}");
    assert!(has("content-type: application/x-ndjson"), "{head}");
    assert!(has("connection: close"), "{head}");

    // Walk the chunks by hand: `<hex size>\r\n<payload>\r\n`, each
    // payload exactly one JSON event line ending in '\n', then `0\r\n\r\n`.
    let mut rest = body;
    let mut lines = 0usize;
    loop {
        let (size_hex, after) = rest.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size_hex, 16).expect("chunk size is hex");
        if size == 0 {
            assert_eq!(after, "\r\n", "terminator chunk must end the stream");
            break;
        }
        let payload = &after[..size];
        assert!(
            payload.ends_with('\n') && !payload[..size - 1].contains('\n'),
            "chunk is not exactly one NDJSON line: {payload:?}"
        );
        let parsed: serde::Value =
            serde_json::from_str(payload.trim_end()).expect("chunk payload is JSON");
        assert!(parsed.as_map().is_some());
        lines += 1;
        rest = after[size..].strip_prefix("\r\n").expect("chunk CRLF");
    }
    assert!(lines >= 2, "expected a multi-event stream, saw {lines}");

    handle.shutdown();
    join.join().unwrap();
}

/// The repair-loop surface: `GET /v1/regressions` paging and entry
/// shape, `POST /v1/tune` NDJSON framing (`{"generation":…}` lines
/// closed by one `{"report":…}` line), and both routes' error codes on
/// a store-backed server.
#[test]
fn regression_and_tune_surfaces_are_pinned() {
    let _guard = test_lock();
    let store_dir = scratch_dir("tune");
    let (handle, join) = start_server(Some(store_dir.clone()), 16, 0);
    let api = client(&handle);

    // A finished dp session writes its findings' witnesses through to
    // the bank — the corpus both routes below serve.
    let resp = api.post("/v1/jobs", &spec_json("dp", 0x5EED)).unwrap();
    assert_eq!(resp.status, 202, "{}", resp.body);
    let submit: serde::Value = serde_json::from_str(&resp.body).unwrap();
    let id = get_field(&submit, "id").as_str().unwrap().to_string();
    wait_done(&api, &id);

    // GET /v1/regressions → 200 {total, offset, entries}; entries are
    // {id, domain, gap, instance, job_key, session_seed} with 16-hex ids.
    let resp = api.get("/v1/regressions").unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(keys(&resp.body), ["total", "offset", "entries"]);
    let listing: serde::Value = serde_json::from_str(&resp.body).unwrap();
    let total = get_field(&listing, "total").as_f64().unwrap() as usize;
    assert!(
        total >= 1,
        "dp session seeded no regressions: {}",
        resp.body
    );
    let entries = get_field(&listing, "entries").as_seq().unwrap();
    assert_eq!(entries.len(), total.min(50), "default limit is 50");
    for entry in entries {
        assert_eq!(
            object_keys(entry),
            ["id", "domain", "gap", "instance", "job_key", "session_seed"]
        );
        let entry_id = get_field(entry, "id").as_str().unwrap();
        assert_eq!(entry_id.len(), 16, "id {entry_id:?}");
    }

    // Paging: an offset past the end yields an empty page with the same
    // total; a malformed offset is a 400, not a silent default.
    let resp = api
        .get(&format!("/v1/regressions?offset={total}&limit=5"))
        .unwrap();
    assert_eq!(resp.status, 200);
    let page: serde::Value = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(get_field(&page, "offset").as_f64(), Some(total as f64));
    assert!(get_field(&page, "entries").as_seq().unwrap().is_empty());
    assert_eq!(api.get("/v1/regressions?offset=nope").unwrap().status, 400);

    // POST /v1/tune error paths answer plain (unchunked) statuses.
    let resp = api.post("/v1/tune", "{not json").unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(keys(&resp.body), ["error"]);
    let resp = api
        .post("/v1/tune", r#"{"domain":"no-such-domain"}"#)
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("/v1/domains"), "{}", resp.body);

    // POST /v1/tune on the wire: chunked NDJSON, one line per chunk,
    // every line but the last `{"generation":{…}}`, the last
    // `{"report":{…}}` with the full TuneReport schema.
    let body = r#"{"domain":"dp","quick":true,"seed":7}"#;
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    write!(
        raw,
        "POST /v1/tune HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .unwrap();
    let mut wire = Vec::new();
    raw.read_to_end(&mut wire).unwrap();
    let wire = String::from_utf8(wire).expect("stream is UTF-8");
    let (head, chunks) = wire
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    let header_lines: Vec<&str> = head.split("\r\n").skip(1).collect();
    let has = |needle: &str| header_lines.iter().any(|l| l.eq_ignore_ascii_case(needle));
    assert!(has("transfer-encoding: chunked"), "{head}");
    assert!(has("content-type: application/x-ndjson"), "{head}");

    let mut rest = chunks;
    let mut lines: Vec<String> = Vec::new();
    loop {
        let (size_hex, after) = rest.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size_hex, 16).expect("chunk size is hex");
        if size == 0 {
            assert_eq!(after, "\r\n", "terminator chunk must end the stream");
            break;
        }
        let payload = &after[..size];
        assert!(
            payload.ends_with('\n') && !payload[..size - 1].contains('\n'),
            "chunk is not exactly one NDJSON line: {payload:?}"
        );
        lines.push(payload.trim_end().to_string());
        rest = after[size..].strip_prefix("\r\n").expect("chunk CRLF");
    }
    assert!(
        lines.len() >= 2,
        "expected generations + report, saw {lines:?}"
    );
    let (report_line, generation_lines) = lines.split_last().unwrap();
    for line in generation_lines {
        let parsed: serde::Value = serde_json::from_str(line).unwrap();
        assert_eq!(object_keys(&parsed), ["generation"]);
        assert_eq!(
            object_keys(get_field(&parsed, "generation")),
            ["generation", "evaluated", "best_fitness", "best_params"]
        );
    }
    let parsed: serde::Value = serde_json::from_str(report_line).unwrap();
    assert_eq!(object_keys(&parsed), ["report"]);
    let report = get_field(&parsed, "report");
    assert_eq!(
        object_keys(report),
        [
            "schema_version",
            "domain",
            "param_names",
            "default_params",
            "default_fitness",
            "best",
            "improved",
            "trajectory",
            "bank_instances",
            "skipped_instances",
            "probe_points",
            "still_defeated"
        ]
    );
    assert_eq!(
        object_keys(get_field(report, "best")),
        ["params", "fitness", "failures"]
    );
    assert_eq!(get_field(report, "domain").as_str(), Some("dp"));

    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&store_dir);
}
