//! `runner` — drive the batch-analysis engine and the explanation
//! server from the command line.
//!
//! ```text
//! runner --manifest jobs.jsonl [--workers N] [--store DIR] [--json]
//!        [--watch] [--resume] [--deadline-ms N] [--max-analyzer-calls N]
//!        [--max-solver-iterations N]
//! runner --smoke [--watch] [--workers N] [--store DIR]
//! runner --list-domains | --emit-manifest | --version
//! runner serve [--addr HOST:PORT] [--workers N] [--http-threads N]
//!              [--capacity N] [--store DIR] [--journal DIR|--no-journal]
//!              [--shard-id ID] [--pace-ms N] [--peers HOST:PORT,...]
//!              [--tenants FILE]
//! runner mesh --shards N [--base-port P] [--addr HOST:PORT]
//!             [--store DIR] [--workers N] [--pace-ms N] [--capacity N]
//!             [--tenants FILE]
//! runner mesh --peers HOST:PORT,... [--addr HOST:PORT] [--tenants FILE]
//! runner tune --domain ID --store DIR [--generations N] [--population N]
//!             [--seed N] [--workers N] [--quick] [--watch] [--json]
//! runner bank replay --store DIR [--json]
//! runner gc --store DIR [--json]
//!
//!   --manifest PATH   JSONL manifest: one {"domain", "config", "seed"}
//!                     object per line (# starts a comment line; an
//!                     optional "budgets" object sets per-job limits)
//!   --workers N       worker threads (0 = auto) [default: 0]
//!   --store DIR       content-addressed result store; omit to disable
//!                     caching (and checkpointing)
//!   --json            print the machine-readable JSON outcome array
//!                     instead of the summary table
//!   --watch           stream session events as NDJSON on stdout while
//!                     jobs run: one {"job", "domain", "kind", "solver",
//!                     "event"} object per line, ending in a "finished"
//!                     event per job whose "solver" field carries the
//!                     job's solver-counter delta
//!   --resume          continue interrupted jobs from checkpoints in the
//!                     store (written after every event; cleared when a
//!                     job finishes naturally). Requires --store
//!   --deadline-ms N          per-job wall-clock budget (overrides
//!                            manifest budgets)
//!   --max-analyzer-calls N   per-job analyzer-invocation budget
//!   --max-solver-iterations N  per-job LP-iteration budget
//!   --list-domains    list registered domain ids and exit
//!   --emit-manifest   print an editable one-job-per-domain JSONL
//!                     manifest (default pipeline config) and exit
//!   --version         print the workspace version and exit
//!   --smoke           run the built-in one-job-per-domain manifest three
//!                     ways (1 worker, N workers, N workers against the
//!                     warm store) and fail unless all three agree
//!                     byte-for-byte (the first two in solver counts
//!                     too) and the third is pure cache hits.
//!                     With --watch, additionally exercises the event
//!                     stream headlessly: every event must serialize to
//!                     NDJSON, parse back, terminal lines must carry the
//!                     job's solver delta, and the streamed result must
//!                     match the batch result byte-for-byte.
//!                     Uses its own `runner-smoke-store/` scratch
//!                     subdirectory (under --store when given); existing
//!                     cache entries are never touched
//!
//! `runner serve` starts the HTTP explanation server (see DESIGN.md §8
//! for the API): --addr binds (port 0 = ephemeral), --workers sizes the
//! session worker pool, --http-threads the connection pool, --capacity
//! the admission cap (submissions beyond it get 429 + Retry-After), and
//! --store enables result caching, dedup and checkpoint/resume. A
//! store-backed server also keeps a write-ahead job journal (DESIGN.md
//! §10): accepted jobs are durable before the 202 goes out, and a
//! restart over the same store re-enqueues whatever a crashed
//! predecessor left unfinished. --journal overrides its directory
//! (default `<store>/journal`, per-shard when --shard-id is set);
//! --no-journal turns durability off. Stop the server with
//! `POST /v1/shutdown` — in-flight sessions checkpoint and resume
//! on resubmit. The mesh flags turn the server into one shard of a
//! distributed tier (DESIGN.md §9): --shard-id stamps store entries and
//! the metrics mesh block, --pace-ms sets a per-worker minimum service
//! time for freshly executed jobs (rate limiting), and --peers names
//! the full shard seed list — it starts the membership heartbeat and
//! the work-stealing loop against those peers. --tenants FILE loads a
//! tenant registry (DESIGN.md §12): submits then require
//! `Authorization: Bearer <api-key>`, each tenant gets a weighted
//! fair-share lane plus its configured caps and submit rate, and
//! `/v1/metrics` grows a per-tenant block. Without the flag the server
//! runs open (single anonymous tenant, pre-tenancy behavior).
//!
//! `runner mesh` runs the distributed tier itself. With `--shards N` it
//! spawns N local `runner serve` shard processes (ports `--base-port`
//! upward, shared `--store`, stealing enabled) and fronts them with the
//! gateway on --addr; `POST /v1/shutdown` on the gateway drains the
//! shards too. With `--peers` it only runs the gateway over shards that
//! are already running (started however the operator likes). --tenants
//! FILE makes the gateway the tier's authentication edge (and, with
//! `--shards`, hands the same registry to every spawned shard):
//! bearer keys are checked once at the gateway and the tenant id is
//! forwarded to the owning shard, which enforces that tenant's lane
//! weight, caps, and submit rate.
//!
//! `runner tune` closes the repair loop (DESIGN.md §11): it scores the
//! named domain's shipped heuristic against every banked adversarial
//! instance (plus fresh probes), then searches the domain's parameter
//! space for a candidate whose *worst-case* gap over that corpus is
//! strictly lower. `--quick` uses the CI-sized preset, `--watch`
//! streams one `{"generation":…}` NDJSON line per generation and a
//! terminal `{"report":…}` line (byte-identical to `POST /v1/tune`),
//! `--json` prints the bare report object. The options resolve as
//! `POST /v1/tune` resolves them (`TuneOptions::resolve`: generations
//! 1–256, population 2–256, workers 1–8). The tuner is deterministic:
//! `--workers N` changes wall-clock only, never a byte of output.
//!
//! `runner bank replay` is the regression gate: it recomputes every
//! banked instance's gap with the current oracle and fails (exit 1) if
//! any instance stopped exhibiting at least its recorded gap — either
//! the heuristic changed behavior or the oracle regressed. Entries no
//! current code can interpret (unknown schema version, unregistered
//! domain) are *skipped*, not failed; dropping them is `runner gc`'s
//! job. A store without a `bank/` directory is a usage error (exit 2,
//! nothing created); an existing empty bank passes as 0 of 0.
//!
//! `runner gc --store DIR` deletes orphaned checkpoints (a `{key}.ckpt`
//! whose `{key}.json` result exists — what a killed `--resume` run
//! followed by a plain rerun strands) and stale temp files (a crash
//! between temp-write and rename strands a hidden `.*.tmp`), then
//! compacts every journal under the store (terminal history dropped,
//! live jobs kept) and sweeps the regression bank (entries with an
//! unknown schema version or an unregistered domain are removed).
//! `--json` prints one machine-readable object instead of the summary
//! line. Run it offline — no server may own the store meanwhile.
//!
//! Budget-stopped jobs report their partial result and finish reason in
//! the outcome; with `--store --resume` the next invocation continues
//! them mid-loop from the persisted checkpoint. Budgets count
//! *cumulatively* across resumed segments (a 2-call analyzer budget
//! already spent stays spent), so the resuming run must raise or drop
//! the budget to make progress.
//!
//! Exit status: 0 on success; 1 on any job error, determinism mismatch,
//! or cache inconsistency; 2 on usage errors.

use xplain_core::pipeline::PipelineConfig;
use xplain_core::{ExplainerParams, SignificanceParams};
use xplain_mesh::{parse_peers, Gateway, GatewayConfig, Membership, Stealer, StealerConfig};
use xplain_runtime::{
    manifest_to_jsonl, parse_manifest, run_manifest_opts, watch_line, DomainRegistry, JobJournal,
    JobOutcome, JobSpec, ResultStore, RunOptions, SessionBudgets, SessionEvent, WatchLine,
};
use xplain_serve::{MeshStatus, Server, ServerConfig};
use xplain_tune::{generation_line, replay_bank, report_line, tune_with, TuneOptions};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[derive(Default)]
struct Args {
    manifest: Option<String>,
    workers: usize,
    store: Option<String>,
    json: bool,
    watch: bool,
    resume: bool,
    deadline_ms: Option<u64>,
    max_analyzer_calls: Option<usize>,
    max_solver_iterations: Option<u64>,
    list_domains: bool,
    emit_manifest: bool,
    smoke: bool,
}

/// The value of a flag that takes one — the next argument, parsed. A
/// missing value, or one that is itself a flag (`--store --json`), is a
/// usage error rather than a value.
fn flag_value<T>(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    match it.next() {
        Some(value) if !value.starts_with("--") => {
            value.parse().map_err(|e| format!("{flag}: {e}"))
        }
        _ => Err(format!("{flag} needs a value")),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--manifest" => args.manifest = Some(flag_value(&mut it, "--manifest")?),
            "--workers" => args.workers = flag_value(&mut it, "--workers")?,
            "--store" => args.store = Some(flag_value(&mut it, "--store")?),
            "--json" => args.json = true,
            "--watch" => args.watch = true,
            "--resume" => args.resume = true,
            "--deadline-ms" => args.deadline_ms = Some(flag_value(&mut it, "--deadline-ms")?),
            "--max-analyzer-calls" => {
                args.max_analyzer_calls = Some(flag_value(&mut it, "--max-analyzer-calls")?)
            }
            "--max-solver-iterations" => {
                args.max_solver_iterations = Some(flag_value(&mut it, "--max-solver-iterations")?)
            }
            "--list-domains" => args.list_domains = true,
            "--emit-manifest" => args.emit_manifest = true,
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                print!("{}", USAGE);
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.resume && args.store.is_none() {
        return Err("--resume requires --store (checkpoints live in the store)".into());
    }
    Ok(args)
}

const USAGE: &str = "\
runner — XPlain batch-analysis engine and explanation server

usage:
  runner --manifest jobs.jsonl [--workers N] [--store DIR] [--json]
         [--watch] [--resume] [--deadline-ms N] [--max-analyzer-calls N]
         [--max-solver-iterations N]
  runner --smoke [--watch] [--workers N] [--store DIR]
  runner --list-domains | --emit-manifest | --version
  runner serve [--addr HOST:PORT] [--workers N] [--http-threads N]
               [--capacity N] [--store DIR] [--journal DIR|--no-journal]
               [--shard-id ID] [--pace-ms N] [--peers HOST:PORT,...]
               [--tenants FILE]
  runner mesh --shards N [--base-port P] [--addr HOST:PORT]
              [--store DIR] [--workers N] [--pace-ms N] [--capacity N]
              [--tenants FILE]
  runner mesh --peers HOST:PORT,... [--addr HOST:PORT] [--tenants FILE]
  runner tune --domain ID --store DIR [--generations N] [--population N]
              [--seed N] [--workers N] [--quick] [--watch] [--json]
  runner bank replay --store DIR [--json]
  runner gc --store DIR [--json]
";

/// CLI budget flags folded into one override (None: manifest budgets
/// apply unchanged).
fn budgets_override(args: &Args) -> Option<SessionBudgets> {
    let budgets = SessionBudgets {
        deadline_ms: args.deadline_ms,
        max_analyzer_calls: args.max_analyzer_calls,
        max_solver_iterations: args.max_solver_iterations,
    };
    (!budgets.is_unlimited()).then_some(budgets)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--version" || a == "-V") {
        println!("runner {}", env!("CARGO_PKG_VERSION"));
        return;
    }
    match argv.first().map(String::as_str) {
        Some("serve") => std::process::exit(serve_main(&argv[1..])),
        Some("mesh") => std::process::exit(mesh_main(&argv[1..])),
        Some("tune") => std::process::exit(tune_main(&argv[1..])),
        Some("bank") => std::process::exit(bank_main(&argv[1..])),
        Some("gc") => std::process::exit(gc_main(&argv[1..])),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("runner: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let registry = DomainRegistry::builtin();

    if args.list_domains {
        print!("{}", list_domains_text(&registry));
        return;
    }

    if args.emit_manifest {
        println!(
            "# one job per registered domain; edit configs/seeds and feed back via --manifest"
        );
        println!(
            "# each job's pipeline seed derives from its \"seed\" field and its line position;"
        );
        println!(
            "# the \"seed\" inside \"config\" is overwritten at run time — edit the outer one"
        );
        print!("{}", manifest_to_jsonl(&default_manifest(&registry)));
        return;
    }

    if args.smoke {
        std::process::exit(run_smoke(&registry, &args));
    }

    let Some(path) = &args.manifest else {
        eprintln!("runner: --manifest, --smoke, or --list-domains required\n{USAGE}");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("runner: cannot read manifest '{path}': {e}");
            std::process::exit(2);
        }
    };
    let jobs = match parse_manifest(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("runner: {e}");
            std::process::exit(2);
        }
    };

    let store = args.store.as_ref().map(ResultStore::new);
    // `println!` takes the stdout lock per call, so concurrent workers
    // interleave whole lines, never fragments.
    let sink = |index: usize, event: &SessionEvent| {
        println!("{}", watch_line(index, &jobs[index].domain, event));
    };
    let opts = RunOptions {
        budgets_override: budgets_override(&args),
        resume: args.resume,
        sink: args.watch.then_some(&sink),
        origin: None,
    };
    let outcomes = run_manifest_opts(&registry, &jobs, store.as_ref(), args.workers, opts);

    if args.json {
        println!(
            "{}",
            serde_json::to_string(&outcomes).expect("outcomes serialize")
        );
    } else if !args.watch {
        print!("{}", summary_table(&outcomes));
    }

    if outcomes.iter().any(|o| o.error.is_some()) {
        std::process::exit(1);
    }
}

// ------------------------------------------------------------ subcommands

/// `runner serve` — start the HTTP explanation server and block until a
/// `POST /v1/shutdown` lands.
fn serve_main(argv: &[String]) -> i32 {
    let mut config = ServerConfig::default();
    let mut peers_csv: Option<String> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let parsed = match arg.as_str() {
            "--addr" => flag_value(&mut it, "--addr").map(|v| config.addr = v),
            "--workers" => flag_value(&mut it, "--workers").map(|n| config.queue_workers = n),
            "--http-threads" => {
                flag_value(&mut it, "--http-threads").map(|n| config.http_threads = n)
            }
            "--capacity" => flag_value(&mut it, "--capacity").map(|n| config.capacity = n),
            "--store" => flag_value(&mut it, "--store").map(|v| config.store_dir = Some(v)),
            "--journal" => flag_value(&mut it, "--journal").map(|v| config.journal_dir = Some(v)),
            "--no-journal" => {
                config.journal = false;
                Ok(())
            }
            "--shard-id" => flag_value(&mut it, "--shard-id").map(|v| config.shard_id = Some(v)),
            "--pace-ms" => flag_value(&mut it, "--pace-ms").map(|n| config.pace_ms = n),
            "--peers" => flag_value(&mut it, "--peers").map(|v| peers_csv = Some(v)),
            "--tenants" => flag_value(&mut it, "--tenants").map(|v| config.tenants = Some(v)),
            "--help" | "-h" => {
                print!("{}", USAGE);
                return 0;
            }
            other => Err(format!("unknown serve argument '{other}'")),
        };
        if let Err(e) = parsed {
            eprintln!("runner serve: {e}\n{USAGE}");
            return 2;
        }
    }
    let peers = match peers_csv.as_deref().map(parse_peers).transpose() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("runner serve: --peers: {e}\n{USAGE}");
            return 2;
        }
    };
    // Mesh gauges exist whenever this server is a shard of a tier; the
    // membership heartbeat and the stealer keep them current, and
    // `GET /v1/metrics` reports them.
    let mesh = peers.as_ref().map(|_| {
        Arc::new(MeshStatus::new(
            config
                .shard_id
                .clone()
                .unwrap_or_else(|| config.addr.clone()),
        ))
    });
    config.mesh = mesh.clone();
    let registry = DomainRegistry::builtin();
    let server = match Server::bind(config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("runner serve: cannot bind '{}': {e}", config.addr);
            return 2;
        }
    };
    let self_addr = server.local_addr();
    println!(
        "runner serve: listening on http://{} ({} domains: {}; store: {})",
        self_addr,
        registry.len(),
        registry.ids().join(", "),
        config
            .store_dir
            .as_ref()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "disabled".into()),
    );
    println!("runner serve: POST /v1/shutdown for graceful shutdown");

    // Shard mode: membership heartbeat + work-stealing loop alongside
    // the server, torn down after it drains.
    let stop = Arc::new(AtomicBool::new(false));
    let mut mesh_threads = Vec::new();
    if let (Some(peers), Some(mesh)) = (peers, mesh) {
        println!(
            "runner serve: shard '{}' of a {}-peer mesh (heartbeat + stealer running)",
            mesh.shard_id(),
            peers.len()
        );
        let membership =
            Membership::bootstrap(peers, Duration::from_millis(250), Some(Arc::clone(&mesh)));
        mesh_threads.push(
            Arc::clone(&membership).start_heartbeat(Duration::from_millis(500), Arc::clone(&stop)),
        );
        let stealer = Stealer::new(self_addr, membership, mesh, StealerConfig::default());
        mesh_threads.push(stealer.start(Arc::clone(&stop)));
    }

    let outcome = server.run(&registry);
    stop.store(true, Ordering::Relaxed);
    for thread in mesh_threads {
        let _ = thread.join();
    }
    match outcome {
        Ok(()) => {
            println!("runner serve: drained and stopped");
            0
        }
        Err(e) => {
            eprintln!("runner serve: {e}");
            1
        }
    }
}

/// `runner mesh` — run the distributed tier: spawn local shard
/// processes (`--shards`) or front already-running ones (`--peers`),
/// then block in the gateway until `POST /v1/shutdown`.
fn mesh_main(argv: &[String]) -> i32 {
    let mut gateway_addr = "127.0.0.1:7080".to_string();
    let mut peers_csv: Option<String> = None;
    let mut shards: usize = 0;
    let mut base_port: u16 = 7101;
    let mut store: Option<String> = None;
    let mut workers: usize = 0;
    let mut pace_ms: u64 = 0;
    let mut capacity: usize = 64;
    let mut tenants: Option<String> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let parsed = match arg.as_str() {
            "--addr" => flag_value(&mut it, "--addr").map(|v| gateway_addr = v),
            "--peers" => flag_value(&mut it, "--peers").map(|v| peers_csv = Some(v)),
            "--shards" => flag_value(&mut it, "--shards").map(|n| shards = n),
            "--base-port" => flag_value(&mut it, "--base-port").map(|n| base_port = n),
            "--store" => flag_value(&mut it, "--store").map(|v| store = Some(v)),
            "--workers" => flag_value(&mut it, "--workers").map(|n| workers = n),
            "--pace-ms" => flag_value(&mut it, "--pace-ms").map(|n| pace_ms = n),
            "--capacity" => flag_value(&mut it, "--capacity").map(|n| capacity = n),
            "--tenants" => flag_value(&mut it, "--tenants").map(|v| tenants = Some(v)),
            "--help" | "-h" => {
                print!("{}", USAGE);
                return 0;
            }
            other => Err(format!("unknown mesh argument '{other}'")),
        };
        if let Err(e) = parsed {
            eprintln!("runner mesh: {e}\n{USAGE}");
            return 2;
        }
    }
    if peers_csv.is_some() == (shards > 0) {
        eprintln!("runner mesh: exactly one of --peers or --shards is required\n{USAGE}");
        return 2;
    }

    // --shards: spawn the shard processes (this same binary, `serve`
    // mode) on consecutive ports over one shared store.
    let mut children: Vec<(std::process::Child, std::net::SocketAddr)> = Vec::new();
    let peers_arg = if shards > 0 {
        let exe = match std::env::current_exe() {
            Ok(p) => p,
            Err(e) => {
                eprintln!("runner mesh: cannot locate own binary: {e}");
                return 1;
            }
        };
        let store_dir = store.clone().unwrap_or_else(|| "mesh-store".into());
        let addrs: Vec<String> = (0..shards)
            .map(|i| format!("127.0.0.1:{}", base_port + i as u16))
            .collect();
        let all = addrs.join(",");
        for (i, addr) in addrs.iter().enumerate() {
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("serve")
                .arg("--addr")
                .arg(addr)
                .arg("--store")
                .arg(&store_dir)
                .arg("--shard-id")
                .arg(format!("shard-{i}"))
                .arg("--peers")
                .arg(&all)
                .arg("--capacity")
                .arg(capacity.to_string());
            if workers > 0 {
                cmd.arg("--workers").arg(workers.to_string());
            }
            if pace_ms > 0 {
                cmd.arg("--pace-ms").arg(pace_ms.to_string());
            }
            // Shards enforce quotas, so they need the same registry the
            // gateway authenticates against.
            if let Some(file) = &tenants {
                cmd.arg("--tenants").arg(file);
            }
            match cmd.spawn() {
                Ok(child) => children.push((child, addr.parse().expect("shard addr parses"))),
                Err(e) => {
                    eprintln!("runner mesh: cannot spawn shard {i}: {e}");
                    shutdown_children(&mut children);
                    return 1;
                }
            }
        }
        all
    } else {
        peers_csv.expect("checked above")
    };
    let peers = match parse_peers(&peers_arg) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("runner mesh: --peers: {e}\n{USAGE}");
            shutdown_children(&mut children);
            return 2;
        }
    };

    // Wait for spawned shards to start listening (bounded).
    for (_, addr) in &children {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while std::net::TcpStream::connect_timeout(addr, Duration::from_millis(200)).is_err() {
            if std::time::Instant::now() > deadline {
                eprintln!("runner mesh: shard {addr} never came up");
                shutdown_children(&mut children);
                return 1;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    let config = GatewayConfig {
        addr: gateway_addr.clone(),
        peers,
        tenants: tenants.clone().map(Into::into),
        ..GatewayConfig::default()
    };
    let gateway = match Gateway::bind(config) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("runner mesh: cannot bind '{gateway_addr}': {e}");
            shutdown_children(&mut children);
            return 2;
        }
    };
    println!(
        "runner mesh: gateway on http://{} over {} shard(s): {}",
        gateway.local_addr(),
        peers_arg.split(',').count(),
        peers_arg
    );
    println!("runner mesh: POST /v1/shutdown (on the gateway) drains the tier");
    let code = match gateway.run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("runner mesh: {e}");
            1
        }
    };
    shutdown_children(&mut children);
    println!("runner mesh: drained and stopped");
    code
}

/// Gracefully stop spawned shard processes: ask each over HTTP, then
/// wait (kill only if the socket is already gone).
fn shutdown_children(children: &mut Vec<(std::process::Child, std::net::SocketAddr)>) {
    for (child, addr) in children.iter_mut() {
        let asked = xplain_serve::Client::new(*addr)
            .with_timeout(Duration::from_secs(5))
            .post("/v1/shutdown", "")
            .is_ok();
        if !asked {
            let _ = child.kill();
        }
        let _ = child.wait();
    }
    children.clear();
}

/// `runner tune` — search the domain's parameter space for a repair
/// whose worst-case gap over the regression bank (plus fresh probes)
/// strictly beats the shipped heuristic's.
fn tune_main(argv: &[String]) -> i32 {
    let mut domain_id: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut quick = false;
    let mut watch = false;
    let mut json = false;
    let mut generations: Option<usize> = None;
    let mut population: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut workers: Option<usize> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let parsed = match arg.as_str() {
            "--domain" => flag_value(&mut it, "--domain").map(|v| domain_id = Some(v)),
            "--store" => flag_value(&mut it, "--store").map(|v| store_dir = Some(v)),
            "--generations" => flag_value(&mut it, "--generations").map(|n| generations = Some(n)),
            "--population" => flag_value(&mut it, "--population").map(|n| population = Some(n)),
            "--seed" => flag_value(&mut it, "--seed").map(|n| seed = Some(n)),
            "--workers" => flag_value(&mut it, "--workers").map(|n| workers = Some(n)),
            "--quick" => {
                quick = true;
                Ok(())
            }
            "--watch" => {
                watch = true;
                Ok(())
            }
            "--json" => {
                json = true;
                Ok(())
            }
            "--help" | "-h" => {
                print!("{}", USAGE);
                return 0;
            }
            other => Err(format!("unknown tune argument '{other}'")),
        };
        if let Err(e) = parsed {
            eprintln!("runner tune: {e}\n{USAGE}");
            return 2;
        }
    }
    let (Some(domain_id), Some(dir)) = (domain_id, store_dir) else {
        eprintln!("runner tune: --domain ID and --store DIR required\n{USAGE}");
        return 2;
    };
    let registry = DomainRegistry::builtin();
    let Some(domain) = registry.get(&domain_id) else {
        eprintln!("runner tune: unknown domain '{domain_id}' (try --list-domains)\n{USAGE}");
        return 2;
    };
    let opts = TuneOptions::resolve(quick, generations, population, seed, workers);

    let records = ResultStore::new(&dir).bank().entries();
    let on_generation = |stat: &xplain_tune::GenerationStat| {
        if watch {
            println!("{}", generation_line(stat));
        }
    };
    let report = match tune_with(domain, &records, &opts, on_generation) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("runner tune: {e}");
            return 1;
        }
    };

    if watch {
        println!("{}", report_line(&report));
    } else if json {
        println!(
            "{}",
            serde_json::to_string(&report).expect("report serializes")
        );
    } else {
        let pairs: Vec<String> = report
            .param_names
            .iter()
            .zip(&report.best.params)
            .map(|(name, v)| format!("{name}={v}"))
            .collect();
        println!(
            "tune: domain '{}' — {} bank instance(s), {} probe(s), {} skipped",
            report.domain, report.bank_instances, report.probe_points, report.skipped_instances
        );
        println!(
            "tune: worst-case gap {:.6} (shipped) → {:.6} (best candidate): {}",
            report.default_fitness,
            report.best.fitness,
            if report.improved {
                "improved"
            } else {
                "no strict improvement"
            }
        );
        println!("tune: best params: {}", pairs.join(", "));
        if report.still_defeated.is_empty() {
            println!("tune: no banked instance defeats the best candidate");
        } else {
            println!(
                "tune: {} banked instance(s) still defeat it: {}",
                report.still_defeated.len(),
                report.still_defeated.join(", ")
            );
        }
    }
    0
}

/// `runner bank replay` — the regression gate: recompute every banked
/// instance's gap with the current oracle; exit 1 on any regression,
/// 2 on a usage error or a store with no bank.
fn bank_main(argv: &[String]) -> i32 {
    let Some(("replay", rest)) = argv
        .split_first()
        .map(|(first, rest)| (first.as_str(), rest))
    else {
        eprintln!("runner bank: expected a 'replay' subcommand\n{USAGE}");
        return 2;
    };
    let mut store_dir: Option<String> = None;
    let mut json = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let parsed = match arg.as_str() {
            "--store" => flag_value(&mut it, "--store").map(|v| store_dir = Some(v)),
            "--json" => {
                json = true;
                Ok(())
            }
            "--help" | "-h" => {
                print!("{}", USAGE);
                return 0;
            }
            other => Err(format!("unknown argument '{other}'")),
        };
        if let Err(e) = parsed {
            eprintln!("runner bank replay: {e}\n{USAGE}");
            return 2;
        }
    }
    let Some(dir) = store_dir else {
        eprintln!("runner bank replay: --store DIR required\n{USAGE}");
        return 2;
    };
    let bank = ResultStore::new(&dir).bank();
    // Replaying a bank that is not there would pass vacuously, and the
    // replay's marker write would create the directories.
    if !bank.dir().is_dir() {
        eprintln!(
            "runner bank replay: no regression bank at {}",
            bank.dir().display()
        );
        return 2;
    }
    let registry = DomainRegistry::builtin();
    let report = replay_bank(&registry, &bank);

    if json {
        println!(
            "{}",
            serde_json::to_string(&report).expect("replay report serializes")
        );
    } else {
        for entry in &report.entries {
            if entry.status == "fail" {
                eprintln!(
                    "bank replay FAIL: {} ({}): recorded gap {:.6}, recomputed {}",
                    entry.id,
                    entry.domain,
                    entry.recorded_gap,
                    entry
                        .recomputed_gap
                        .map(|g| format!("{g:.6}"))
                        .unwrap_or_else(|| "non-finite".into()),
                );
            }
        }
        println!(
            "bank replay: {}/{} passed, {} failed, {} skipped (store: {dir}) — {}",
            report.passed,
            report.total,
            report.failed,
            report.skipped,
            if report.pass { "PASS" } else { "FAIL" },
        );
    }
    if report.pass {
        0
    } else {
        1
    }
}

/// The `runner gc --json` output — one object so scripts (and the CI
/// smoke) parse one line instead of scraping the human text.
#[derive(serde::Serialize)]
struct GcOutput {
    checkpoints_removed: usize,
    temp_files_removed: usize,
    bytes_reclaimed: u64,
    journals_compacted: usize,
    journal_bytes_reclaimed: u64,
    bank_entries_removed: usize,
    bank_bytes_reclaimed: u64,
}

/// Journal directories living under a store: the standalone server's
/// `journal/` plus any per-shard `journal-<id>/` dirs.
fn find_journal_dirs(store_dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let Ok(entries) = std::fs::read_dir(store_dir) else {
        return Vec::new();
    };
    let mut dirs: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.is_dir()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n == "journal" || n.starts_with("journal-"))
        })
        .collect();
    dirs.sort();
    dirs
}

/// `runner gc` — sweep orphaned checkpoints and stale temp files from a
/// store, and compact its write-ahead journal(s). Offline maintenance:
/// run it while no server owns the store (a live server compacts its
/// own journal as it rotates).
fn gc_main(argv: &[String]) -> i32 {
    let mut store_dir: Option<String> = None;
    let mut json = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let parsed = match arg.as_str() {
            "--store" => flag_value(&mut it, "--store").map(|v| store_dir = Some(v)),
            "--json" => {
                json = true;
                Ok(())
            }
            "--help" | "-h" => {
                print!("{}", USAGE);
                return 0;
            }
            other => Err(format!("unknown argument '{other}'")),
        };
        if let Err(e) = parsed {
            eprintln!("runner gc: {e}\n{USAGE}");
            return 2;
        }
    }
    let Some(dir) = store_dir else {
        eprintln!("runner gc: --store DIR required\n{USAGE}");
        return 2;
    };
    let store = ResultStore::new(&dir);
    let report = store.gc();

    // Opening a journal replays and compacts it (terminal history is
    // dropped, live jobs are carried forward); `bytes_compacted` is what
    // that freed. Live jobs stay journaled — gc never forgets work.
    let mut journals_compacted = 0usize;
    let mut journal_bytes_reclaimed = 0u64;
    for journal_dir in find_journal_dirs(std::path::Path::new(&dir)) {
        match JobJournal::open(&journal_dir) {
            Ok(journal) => {
                journal.compact();
                journal_bytes_reclaimed += journal.stats().bytes_compacted;
                journals_compacted += 1;
            }
            Err(e) => {
                eprintln!(
                    "runner gc: cannot open journal '{}': {e}",
                    journal_dir.display()
                );
                return 1;
            }
        }
    }

    // Bank hygiene rides the same offline pass: entries no current
    // deployment can interpret (unknown schema version, unregistered
    // domain) would sit as permanent replay `skipped` noise otherwise.
    let swept = store.bank().sweep(&DomainRegistry::builtin().ids());

    if json {
        let out = GcOutput {
            checkpoints_removed: report.checkpoints_removed,
            temp_files_removed: report.temp_files_removed,
            bytes_reclaimed: report.bytes_reclaimed,
            journals_compacted,
            journal_bytes_reclaimed,
            bank_entries_removed: swept.entries_removed,
            bank_bytes_reclaimed: swept.bytes_reclaimed,
        };
        println!("{}", serde_json::to_string(&out).expect("gc serializes"));
    } else {
        println!(
            "gc: removed {} orphaned checkpoint(s) and {} stale temp file(s), reclaimed {} bytes; \
             compacted {} journal(s), reclaimed {} journal bytes; \
             swept {} uninterpretable bank entr(ies), reclaimed {} bank bytes (store: {dir})",
            report.checkpoints_removed,
            report.temp_files_removed,
            report.bytes_reclaimed,
            journals_compacted,
            journal_bytes_reclaimed,
            swept.entries_removed,
            swept.bytes_reclaimed,
        );
    }
    0
}

// ------------------------------------------------------------- batch mode

/// Registered ids (sorted — the registry is id-keyed) with descriptions
/// aligned to the longest id, so the listing is stable and columnar no
/// matter what order domains were registered in.
fn list_domains_text(registry: &DomainRegistry) -> String {
    let ids = registry.ids();
    let width = ids.iter().map(|id| id.len()).max().unwrap_or(0).max(8);
    let mut out = String::new();
    for id in ids {
        let d = registry.get(&id).expect("listed id resolves");
        out.push_str(&format!("{id:<width$}  {}\n", d.description()));
    }
    out
}

/// Render outcomes as a fixed-width summary table.
fn summary_table(outcomes: &[JobOutcome]) -> String {
    let mut out = String::new();
    out.push_str(
        "  job  domain    seed              cache  findings  rejected  oracle-evals  lp-solves  warm%  ms\n",
    );
    for o in outcomes {
        let (findings, rejected, evals) = o
            .result
            .as_ref()
            .map(|r| (r.findings.len(), r.rejected, r.oracle_evaluations))
            .unwrap_or((0, 0, 0));
        let warm_pct = if o.solver.lp_solves > 0 {
            100.0 * o.solver.lp_warm_hits as f64 / o.solver.lp_solves as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "  {:<4} {:<9} {:016x}  {:<5} {:<9} {:<9} {:<13} {:<10} {:<6.1} {}\n",
            o.index,
            o.domain,
            o.derived_seed,
            if o.cache_hit { "hit" } else { "miss" },
            findings,
            rejected,
            evals,
            o.solver.lp_solves,
            warm_pct,
            o.wall_time_ms,
        ));
        if let Some(finish) = &o.finish {
            if !finish.natural {
                // Budgets are cumulative across resumed segments, so
                // continuing needs --resume AND a raised (or dropped)
                // budget — rerunning with the same one re-finishes
                // instantly with zero progress.
                out.push_str(&format!(
                    "       STOPPED: {:?} after {} events{} — rerun with --store --resume and a higher (or no) budget to continue\n",
                    finish.reason,
                    finish.events,
                    if finish.resumed { " (resumed)" } else { "" },
                ));
            }
        }
        if let Some(err) = &o.error {
            out.push_str(&format!("       ERROR: {err}\n"));
        }
    }
    out
}

/// CI-sized pipeline config for the smoke manifest.
fn smoke_config() -> PipelineConfig {
    PipelineConfig {
        max_subspaces: 1,
        significance: SignificanceParams {
            pairs: 60,
            ..Default::default()
        },
        explainer: ExplainerParams {
            samples: 120,
            threads: 2,
            ..Default::default()
        },
        coverage_samples: 300,
        ..Default::default()
    }
}

/// One default-config job per registered domain.
fn default_manifest(registry: &DomainRegistry) -> Vec<JobSpec> {
    registry
        .ids()
        .into_iter()
        .map(|id| JobSpec {
            domain: id,
            config: PipelineConfig::default(),
            seed: 7,
            budgets: SessionBudgets::unlimited(),
        })
        .collect()
}

/// The zero-setup self-check gating CI: one job per registered domain,
/// run three ways.
///
/// 1. serial (1 worker, no store) — the reference;
/// 2. parallel (N workers, cold store) — must match 1 byte-for-byte and
///    in each job's solver counts;
/// 3. parallel again (warm store) — must be all cache hits and match 2.
///
/// With `--watch`, a fourth streaming pass re-runs the manifest serially
/// with an NDJSON event sink: every event line must parse back, every
/// job must end in a natural `finished` event carrying its solver-counter
/// delta, and the streamed terminal results must equal the batch results
/// byte-for-byte.
fn run_smoke(registry: &DomainRegistry, args: &Args) -> i32 {
    let jobs: Vec<JobSpec> = registry
        .ids()
        .into_iter()
        .map(|id| JobSpec {
            domain: id,
            config: smoke_config(),
            seed: 0x5A05E,
            budgets: SessionBudgets::unlimited(),
        })
        .collect();
    println!(
        "smoke: {} jobs (one per domain: {})",
        jobs.len(),
        registry.ids().join(", ")
    );
    let workers = if args.workers == 0 { 4 } else { args.workers };

    // The smoke needs a cold store, so it owns a dedicated scratch
    // subdirectory (under --store's path when given) and never touches
    // the user's actual cache entries.
    let base = args.store.clone().unwrap_or_else(|| "target".into());
    let store_dir = std::path::Path::new(&base).join("runner-smoke-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = ResultStore::new(&store_dir);

    let serial = run_manifest_opts(registry, &jobs, None, 1, RunOptions::default());
    let parallel = run_manifest_opts(
        registry,
        &jobs,
        Some(&store),
        workers,
        RunOptions::default(),
    );
    let cached = run_manifest_opts(
        registry,
        &jobs,
        Some(&store),
        workers,
        RunOptions::default(),
    );

    print!("{}", summary_table(&parallel));

    let mut failures = 0;
    for ((s, p), c) in serial.iter().zip(&parallel).zip(&cached) {
        let id = format!("job {} ({})", s.index, s.domain);
        for o in [s, p, c] {
            if let Some(err) = &o.error {
                eprintln!("smoke FAIL: {id}: {err}");
                failures += 1;
            }
        }
        let sj = serde_json::to_string(&s.result).expect("result serializes");
        let pj = serde_json::to_string(&p.result).expect("result serializes");
        let cj = serde_json::to_string(&c.result).expect("result serializes");
        if sj != pj {
            eprintln!("smoke FAIL: {id}: 1-worker and {workers}-worker results differ");
            failures += 1;
        }
        if s.solver != p.solver {
            eprintln!("smoke FAIL: {id}: 1-worker and {workers}-worker solver counts differ");
            failures += 1;
        }
        if pj != cj {
            eprintln!("smoke FAIL: {id}: cached result differs from computed result");
            failures += 1;
        }
        if !c.cache_hit {
            eprintln!("smoke FAIL: {id}: second store pass was not a cache hit");
            failures += 1;
        }
        if s.result.as_ref().is_none_or(|r| r.findings.is_empty()) {
            eprintln!("smoke FAIL: {id}: pipeline found no significant subspace");
            failures += 1;
        }
    }

    if args.watch {
        failures += run_streaming_smoke(registry, &jobs, &serial);
    }

    if failures == 0 {
        println!(
            "smoke OK: serial ≡ {workers}-worker ≡ cached for all {} jobs{} (store: {})",
            jobs.len(),
            if args.watch { " ≡ streamed" } else { "" },
            store_dir.display()
        );
        0
    } else {
        eprintln!("smoke: {failures} failure(s)");
        1
    }
}

/// The `--watch --smoke` gate: exercise the event stream headlessly.
fn run_streaming_smoke(
    registry: &DomainRegistry,
    jobs: &[JobSpec],
    reference: &[JobOutcome],
) -> i32 {
    use std::sync::Mutex;

    println!("smoke: streaming pass (--watch): NDJSON event-stream checks");
    let lines: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let sink = |index: usize, event: &SessionEvent| {
        let line = watch_line(index, &jobs[index].domain, event);
        println!("{line}");
        lines.lock().expect("line log").push(line);
    };
    let opts = RunOptions {
        budgets_override: None,
        resume: false,
        sink: Some(&sink),
        origin: None,
    };
    let streamed = run_manifest_opts(registry, jobs, None, 1, opts);

    let mut failures = 0;
    let lines = lines.into_inner().expect("line log");
    if lines.is_empty() {
        eprintln!("smoke FAIL: streaming pass emitted no events");
        failures += 1;
    }
    // Every NDJSON line must parse back into a typed event; terminal
    // lines must carry the job's solver-counter delta (the field the
    // batch table prints but the stream used to drop).
    let mut finished_per_job = vec![0usize; jobs.len()];
    let mut terminal_solver: Vec<Option<xplain_runtime::SolverCounters>> = vec![None; jobs.len()];
    for line in &lines {
        match serde_json::from_str::<WatchLine>(line) {
            Ok(parsed) => {
                if parsed.kind == "finished" {
                    finished_per_job[parsed.job] += 1;
                    if parsed.solver.is_none() {
                        eprintln!(
                            "smoke FAIL: terminal watch line lacks the solver delta\n  {line}"
                        );
                        failures += 1;
                    }
                    terminal_solver[parsed.job] = parsed.solver;
                } else if parsed.solver.is_some() {
                    eprintln!(
                        "smoke FAIL: non-terminal watch line carries a solver delta\n  {line}"
                    );
                    failures += 1;
                }
            }
            Err(e) => {
                eprintln!("smoke FAIL: watch line does not parse back: {e:?}\n  {line}");
                failures += 1;
            }
        }
    }
    for (i, count) in finished_per_job.iter().enumerate() {
        if *count != 1 {
            eprintln!("smoke FAIL: job {i} emitted {count} terminal events (expected exactly 1)");
            failures += 1;
        }
    }
    // The streamed terminal results must equal the batch results, and
    // the streamed solver delta must be the outcome's.
    for (s, r) in streamed.iter().zip(reference) {
        let id = format!("job {} ({})", s.index, s.domain);
        match &s.finish {
            Some(finish) if finish.natural => {}
            other => {
                eprintln!("smoke FAIL: {id}: streamed run did not finish naturally: {other:?}");
                failures += 1;
            }
        }
        let sj = serde_json::to_string(&s.result).expect("result serializes");
        let rj = serde_json::to_string(&r.result).expect("result serializes");
        if sj != rj {
            eprintln!("smoke FAIL: {id}: streamed result differs from batch result");
            failures += 1;
        }
        if terminal_solver[s.index].is_some_and(|solver| solver != s.solver) {
            eprintln!("smoke FAIL: {id}: terminal line solver delta differs from the outcome's");
            failures += 1;
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_domains_output_is_sorted_and_aligned() {
        let registry = DomainRegistry::builtin();
        let text = list_domains_text(&registry);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), registry.len());
        // Sorted by id.
        let ids: Vec<&str> = lines
            .iter()
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "listing must be sorted by id");
        // Descriptions start at one aligned column.
        let starts: Vec<usize> = lines
            .iter()
            .map(|l| {
                let id_len = l.split_whitespace().next().unwrap().len();
                l[id_len..]
                    .find(|c: char| !c.is_whitespace())
                    .map(|o| id_len + o)
                    .unwrap()
            })
            .collect();
        assert!(
            starts.windows(2).all(|w| w[0] == w[1]),
            "description columns not aligned: {starts:?}\n{text}"
        );
    }

    #[test]
    fn budget_flags_fold_into_an_override() {
        let mut args = Args::default();
        assert!(budgets_override(&args).is_none());
        args.deadline_ms = Some(500);
        args.max_analyzer_calls = Some(3);
        let b = budgets_override(&args).unwrap();
        assert_eq!(b.deadline_ms, Some(500));
        assert_eq!(b.max_analyzer_calls, Some(3));
        assert_eq!(b.max_solver_iterations, None);
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_values_must_be_present_and_not_flags() {
        let args = argv(&["--store", "dir", "--workers", "3"]);
        let mut it = args.iter();
        it.next();
        assert_eq!(
            flag_value::<String>(&mut it, "--store"),
            Ok("dir".to_string())
        );
        it.next();
        assert_eq!(flag_value::<usize>(&mut it, "--workers"), Ok(3));
        // Nothing left: a missing value.
        assert_eq!(
            flag_value::<String>(&mut it, "--store"),
            Err("--store needs a value".to_string())
        );
        // The next flag is not a value (`runner gc --store --json`).
        let args = argv(&["--json"]);
        assert_eq!(
            flag_value::<String>(&mut args.iter(), "--store"),
            Err("--store needs a value".to_string())
        );
        // A value that does not parse names its flag.
        let args = argv(&["many"]);
        let err = flag_value::<usize>(&mut args.iter(), "--workers").unwrap_err();
        assert!(err.starts_with("--workers: "), "{err}");
        // Single-dash words are still values.
        let args = argv(&["-x"]);
        assert_eq!(
            flag_value::<String>(&mut args.iter(), "--addr"),
            Ok("-x".to_string())
        );
    }

    #[test]
    fn subcommands_refuse_a_flag_as_a_value() {
        assert_eq!(gc_main(&argv(&["--store", "--json"])), 2);
        assert_eq!(bank_main(&argv(&["replay", "--store", "--json"])), 2);
        assert_eq!(gc_main(&argv(&["--store"])), 2);
        assert!(parse_args(&argv(&["--manifest", "--watch"])).is_err());
        assert!(parse_args(&argv(&["--store", "--json", "--smoke"])).is_err());
    }

    /// `bank replay` on a store or bank that does not exist is a usage
    /// error that leaves the file system as it was, not a vacuous pass;
    /// an existing empty bank replays as 0 of 0 passed.
    #[test]
    fn bank_replay_refuses_a_missing_store_and_creates_nothing() {
        let root = std::env::temp_dir().join(format!("runner-bank-missing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = root.join("store");
        let replay = argv(&["replay", "--store", store.to_str().unwrap(), "--json"]);
        assert_eq!(bank_main(&replay), 2);
        assert!(!root.exists(), "a missing store was created");
        std::fs::create_dir_all(&store).unwrap();
        assert_eq!(bank_main(&replay), 2);
        assert!(!store.join("bank").exists(), "a missing bank was created");
        std::fs::create_dir_all(store.join("bank")).unwrap();
        assert_eq!(bank_main(&replay), 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn arg_parser_accepts_the_batch_surface() {
        let argv: Vec<String> = ["--manifest", "jobs.jsonl", "--workers", "3", "--watch"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.manifest.as_deref(), Some("jobs.jsonl"));
        assert_eq!(args.workers, 3);
        assert!(args.watch);
        // --resume without --store is a usage error.
        let argv: Vec<String> = vec!["--resume".into()];
        assert!(parse_args(&argv).is_err());
    }
}
