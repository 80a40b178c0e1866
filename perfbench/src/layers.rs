//! The traced run: the same load with spans, then probes that time and
//! count calls into each layer's public API from outside.
//!
//! Exact counts (`lp.*`, `core.oracle_evals_per_job`,
//! `core.significant_ratio`, `runtime.bank_records_per_job`,
//! `tune.candidates_per_run`) come from in-process replays of a fixed
//! slice of the spec list and an in-process tuning run over a fixed
//! record set, after every server has stopped — so two traced runs with
//! one seed report them identically.

use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use serde::Value;
use xplain_lp::SolverCounters;
use xplain_runtime::{DomainRegistry, JobSpec, ResultStore};
use xplain_tune::TuneOptions;

use crate::harness::{self, path, Front, Shard, Tally};
use crate::replay::{self, derived_config, ReplayJob, STAGES};
use crate::run::{self, median, metric, Args, Metric, Stage};
use crate::spec::Workload;
use crate::sys;
use crate::trace::Tracer;

/// Served jobs replayed in-process, from the first load-phase index.
pub const REPLAY_JOBS: usize = harness::KEPT_RESULTS;
/// Fresh specs served durable vs storeless for the persistence cost,
/// from a spec index no load phase reaches.
const DISK_JOBS: usize = 8;
const DISK_FIRST: usize = 1_000_000;
/// Request pairs sent through the gateway and directly.
const HOP_PAIRS: usize = 150;
const LOOKUPS: usize = 400;

/// Per-layer metrics, in report order.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("lp.solves_per_job", "count"),
    ("lp.pivots_per_job", "count"),
    ("lp.refactorizations_per_job", "count"),
    ("lp.warm_hit_ratio", "ratio"),
    ("lp.bb_nodes_per_job", "count"),
    ("lp.solves_per_tune", "count"),
    ("analyzer.probes_per_job", "count"),
    ("analyzer.probe_ms_per_job", "ms"),
    ("core.grow_ms_per_job", "ms"),
    ("core.significance_ms_per_job", "ms"),
    ("core.explain_ms_per_job", "ms"),
    ("core.coverage_ms_per_job", "ms"),
    ("core.session_ms_per_job", "ms"),
    ("core.events_per_job", "count"),
    ("core.oracle_evals_per_job", "count"),
    ("core.significant_ratio", "ratio"),
    ("runtime.serve_overhead_ms_per_job", "ms"),
    ("runtime.dispatch_wait_ms", "ms"),
    ("runtime.journal_records_per_job", "count"),
    ("runtime.store_bytes_per_job", "B"),
    ("runtime.bank_records_per_job", "count"),
    ("runtime.store_lookup_ms", "ms"),
    ("runtime.disk_overhead_ms_per_job", "ms"),
    ("bank.records", "count"),
    ("bank.entries_ms", "ms"),
    ("bank.page_ms_per_record", "ms"),
    ("serve.submit_p50_ms", "ms"),
    ("serve.status_p50_ms", "ms"),
    ("serve.events_p50_ms", "ms"),
    ("serve.regressions_p50_ms", "ms"),
    ("serve.tune_p50_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.stream_bytes_per_job", "B"),
    ("mesh.gateway_hop_ms", "ms"),
    ("tune.candidates_per_run", "count"),
    ("tune.eval_points_per_run", "count"),
    ("tune.ms_per_candidate", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("accept_p50_ms", "ms"),
];

/// Run the traced load and every layer probe; stops the stage.
/// Returns the number of jobs the two load blocks served.
pub fn traced(
    args: &Args,
    stage: Stage,
    store: &Path,
    nproc: usize,
    tally: &Tally,
    tracer: &Tracer,
) -> Result<(usize, Vec<Metric>), String> {
    let shard_api = harness::client(stage.shard.addr());
    let half = args.seconds / 2.0;
    let before = scrape(&shard_api)?;
    let (mut traced, next) = run::measure(
        args,
        &stage,
        stage.first,
        nproc,
        tally,
        Some(tracer),
        half,
        1,
    );
    let traced = traced.remove(0);
    let after = scrape(&shard_api)?;
    let read_after = scrape(&harness::client(stage.read_shard().addr()))?;
    let (untraced, _) = run::measure(args, &stage, next, nproc, tally, None, half, 1);
    let untraced = &untraced[0];

    let reader = stage.read_shard().addr();
    let hop = match &stage.front {
        Some(front) => gateway_hop(reader, front.addr(), &stage, tally),
        None => {
            let front = Front::start(&[reader]).map_err(|e| e.to_string())?;
            let hop = gateway_hop(reader, front.addr(), &stage, tally);
            front.stop();
            hop
        }
    };
    let disk = disk_overhead(args, &stage, store, nproc, tally)?;
    let lookup_ms = store_lookup(&stage.read_store, &stage.finished, tally);
    let (entry_bytes, entry_count) = harness::store_entry_bytes(store);
    let bank = ResultStore::new(&stage.read_store).bank();
    let entries_ms = median(
        &(0..3)
            .map(|_| {
                let t0 = Instant::now();
                let _ = bank.entries();
                t0.elapsed().as_secs_f64() * 1000.0
            })
            .collect::<Vec<_>>(),
    );
    let bank_records = bank.len() as f64;
    let operator = args.workload == Workload::Operator;
    let bank_dp_records = if operator { bank.entries() } else { Vec::new() };
    let hit_p50 = median(&run::ms(&traced.hits));
    let page_p50 = median(&run::ms(&traced.pages));
    let specs = stage.specs;
    let first = stage.first;
    run::stop(stage);

    // Exact counts: nothing else runs in the process from here on.
    let replays: Vec<ReplayJob> = (first..first + REPLAY_JOBS)
        .map(|i| replay::replay(&specs.get(i), Some(tracer)))
        .collect();
    // Each replay beside the traced load's served job of the same spec.
    let paired: Vec<(&harness::ColdJob, &ReplayJob)> = replays
        .iter()
        .zip(first..)
        .filter_map(|(r, i)| {
            if !r.natural {
                tally.mismatch(format!("replay of spec #{i} ended early"));
            }
            traced
                .jobs
                .iter()
                .find(|j| j.spec_index == i)
                .map(|j| (j, r))
        })
        .collect();
    for (job, replayed) in &paired {
        run::check_replay(job, replayed, tally);
    }
    let tune_records = if operator {
        bank_dp_records
    } else {
        replays
            .iter()
            .flat_map(|r| r.bank_records.iter().cloned())
            .collect()
    };
    let registry = DomainRegistry::builtin();
    let tune_domain = registry
        .get(args.workload.tune_domain())
        .expect("builtin tune domain");
    let counters = SolverCounters::snapshot();
    let t0 = Instant::now();
    let tuned = xplain_tune::tune(tune_domain, &tune_records, &TuneOptions::quick());
    let tune_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let tune_solver = SolverCounters::snapshot().since(&counters);
    let (candidates, eval_points) = match &tuned {
        Ok(report) => (
            report.trajectory.iter().map(|g| g.evaluated).sum::<usize>() as f64,
            (report.bank_instances + report.probe_points) as f64,
        ),
        Err(e) => {
            tally.mismatch(format!("in-process tune: {e:?}"));
            (0.0, 0.0)
        }
    };

    let n = replays.len().max(1) as f64;
    let per_job = |f: &dyn Fn(&ReplayJob) -> f64| replays.iter().map(f).sum::<f64>() / n;
    let stage_ms = |name: &str| {
        let k = STAGES.iter().position(|s| *s == name).expect("stage");
        per_job(&|r| r.stage_ms[k])
    };
    let solves: f64 = replays.iter().map(|r| r.solver.lp_solves as f64).sum();
    let warm: f64 = replays.iter().map(|r| r.solver.lp_warm_hits as f64).sum();
    let verdicts: f64 = replays.iter().map(|r| r.verdicts as f64).sum();
    let significant: f64 = replays.iter().map(|r| r.significant as f64).sum();

    let mean = |v: Vec<f64>| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let serve_overhead = mean(
        paired
            .iter()
            .map(|(j, r)| j.done_ms - r.session_ms)
            .collect(),
    );
    let dispatch_wait = mean(
        paired
            .iter()
            .map(|(j, r)| j.first_line_ms - j.accept_ms - r.first_event_ms)
            .collect(),
    );
    let journal = |v: &Value| path(v, &["journal", "records"]).and_then(Value::as_f64);
    let journal_records = match (journal(&before), journal(&after)) {
        (Some(b), Some(a)) if !traced.jobs.is_empty() => (a - b) / traced.jobs.len() as f64,
        _ => 0.0,
    };
    // Reads go to the read shard (the shard itself for the operator).
    let route = |tag: &str| route_p50(&read_after, tag);
    let traced_p50 = median(&traced.job_ms());
    let untraced_p50 = median(&untraced.job_ms());

    let values = [
        solves / n,
        per_job(&|r| (r.solver.lp_iterations + r.solver.lp_dual_iterations) as f64),
        per_job(&|r| r.solver.lp_refactorizations as f64),
        if solves > 0.0 { warm / solves } else { 0.0 },
        per_job(&|r| r.solver.bb_nodes as f64),
        tune_solver.lp_solves as f64,
        per_job(&|r| r.stage_events[0] as f64),
        stage_ms("analyzer_probe"),
        stage_ms("subspace_grown"),
        stage_ms("significance_verdict"),
        stage_ms("explanation_ready"),
        stage_ms("coverage_estimated"),
        per_job(&|r| r.session_ms),
        per_job(&|r| r.events as f64),
        per_job(&|r| r.oracle_evals as f64),
        if verdicts > 0.0 {
            significant / verdicts
        } else {
            0.0
        },
        serve_overhead,
        dispatch_wait,
        journal_records,
        if entry_count > 0 {
            entry_bytes as f64 / entry_count as f64
        } else {
            0.0
        },
        per_job(&|r| r.bank_records.len() as f64),
        lookup_ms,
        disk,
        bank_records,
        entries_ms,
        if bank_records > 0.0 {
            page_p50 / bank_records
        } else {
            0.0
        },
        route("POST /v1/jobs"),
        route("GET /v1/jobs/{id}"),
        route_p50(&after, "GET /v1/jobs/{id}/events"),
        route("GET /v1/regressions"),
        route("POST /v1/tune"),
        hit_p50 - route("POST /v1/jobs"),
        mean(traced.jobs.iter().map(|j| j.stream_bytes as f64).collect()),
        hop,
        candidates,
        eval_points,
        if candidates > 0.0 {
            tune_ms / candidates
        } else {
            0.0
        },
        if untraced_p50 > 0.0 {
            traced_p50 / untraced_p50
        } else {
            0.0
        },
        median(&traced.jobs.iter().map(|j| j.accept_ms).collect::<Vec<_>>()),
    ];
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|((name, unit), value)| metric(name, value, unit))
        .collect();
    Ok((traced.jobs.len() + untraced.jobs.len(), metrics))
}

fn scrape(api: &xplain_serve::Client) -> Result<Value, String> {
    let resp = api.get("/v1/metrics").map_err(|e| e.to_string())?;
    serde_json::parse(&resp.body).map_err(|e| format!("metrics: {e:?}"))
}

/// Server-side p50 of one route from a `/v1/metrics` scrape (0 when the
/// route saw no traffic).
fn route_p50(metrics: &Value, tag: &str) -> f64 {
    harness::field(metrics, "routes")
        .and_then(Value::as_seq)
        .and_then(|routes| {
            routes
                .iter()
                .find(|r| harness::field(r, "route").and_then(Value::as_str) == Some(tag))
        })
        .and_then(|r| harness::field(r, "p50_ms"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Median of paired (gateway − direct) latencies of the same request
/// kinds: cache hits, status polls and regression pages. The two hits
/// of a pair resubmit different finished specs, so each misses the
/// shard's one in-memory done slot and is answered from the store.
fn gateway_hop(direct: SocketAddr, gateway: SocketAddr, stage: &Stage, tally: &Tally) -> f64 {
    let direct = harness::client(direct);
    let gateway = harness::client(gateway);
    let mut diffs = Vec::new();
    let n = stage.finished.len();
    if n < 2 {
        return 0.0;
    }
    for k in 0..HOP_PAIRS {
        let order: [&xplain_serve::Client; 2] = if k % 2 == 0 {
            [&direct, &gateway]
        } else {
            [&gateway, &direct]
        };
        let mut hit = [0.0; 2];
        let mut poll = [0.0; 2];
        let mut page = [0.0; 2];
        for (slot, api) in order.iter().enumerate() {
            let at = if k % 2 == 0 { slot } else { 1 - slot };
            let (spec, id) = &stage.finished[(2 * k + slot) % n];
            hit[at] = tally
                .check(harness::resubmit(api, spec, None))
                .unwrap_or(0.0);
            poll[at] = tally.check(harness::status(api, id, None)).unwrap_or(0.0);
            if k % 10 == 0 {
                page[at] = tally
                    .check(harness::regressions(api, 0, stage.bank.len(), None))
                    .map_or(0.0, |(ms, _)| ms);
            }
        }
        diffs.push(hit[1] - hit[0]);
        diffs.push(poll[1] - poll[0]);
        if k % 10 == 0 {
            diffs.push(page[1] - page[0]);
        }
    }
    median(&diffs)
}

/// Median served time of the same fresh specs, one at a time, on a
/// shard whose store and journal sit on the disk under the working
/// directory, with fsyncs that reach it, minus on one beside the run's
/// store (RAM-backed; or, where the private tmpfs mount was refused, on
/// the disk with fsyncs that return at once — see `sys::set_real_sync`).
/// Each pass gets a fresh store, so both compute.
fn disk_overhead(
    args: &Args,
    stage: &Stage,
    store: &Path,
    nproc: usize,
    tally: &Tally,
) -> Result<f64, String> {
    let disk_dir = harness::work_dir(harness::DISK_ROOT, args.workload.name());
    let serve = |real: bool| -> Result<Vec<f64>, String> {
        let dir = if real {
            disk_dir.clone()
        } else {
            store.with_file_name("disk-ram")
        };
        let shard =
            Shard::start(harness::shard_config(Some(&dir), nproc)).map_err(|e| e.to_string())?;
        let api = harness::client(shard.addr());
        sys::set_real_sync(real);
        let done = (DISK_FIRST..DISK_FIRST + DISK_JOBS)
            .filter_map(|i| tally.check(harness::cold_job(&api, &stage.specs.get(i), i, None)))
            .map(|j| j.done_ms)
            .collect();
        sys::set_real_sync(false);
        shard.stop();
        Ok(done)
    };
    let disk = serve(true);
    let _ = std::fs::remove_dir_all(&disk_dir);
    let _ = std::fs::remove_dir(harness::DISK_ROOT);
    let ram = serve(false)?;
    Ok(median(&disk?) - median(&ram))
}

/// Median time of direct `ResultStore::lookup`s of finished jobs.
fn store_lookup(store: &Path, finished: &[(JobSpec, String)], tally: &Tally) -> f64 {
    if finished.is_empty() {
        return 0.0;
    }
    let store = ResultStore::new(store);
    let mut samples = Vec::with_capacity(LOOKUPS);
    for k in 0..LOOKUPS {
        let (spec, _) = &finished[k % finished.len()];
        let config = derived_config(spec);
        let t0 = Instant::now();
        let hit = store.lookup(&spec.domain, &config);
        samples.push(t0.elapsed().as_secs_f64() * 1000.0);
        if hit.is_none() {
            tally.mismatch(format!(
                "store lookup missed a finished {} job",
                spec.domain
            ));
            break;
        }
    }
    median(&samples)
}

/// Write the spans and their per-name summary under `.perfbench-trace/`
/// and print the summary to stderr. Returns the file's path.
pub fn write_spans(args: &Args, tracer: &Tracer) -> String {
    let summary = tracer.summary();
    eprintln!(
        "{:<34} {:>7} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, s) in &summary {
        eprintln!(
            "{name:<34} {:>7} {:>12.1} {:>12.1}",
            s.count, s.total_ms, s.self_ms
        );
    }
    let dir = Path::new(".perfbench-trace");
    let file = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    let body = serde::Value::Map(vec![
        ("summary".into(), serde::Serialize::to_value(&summary)),
        ("spans".into(), serde::Serialize::to_value(&tracer.spans())),
    ]);
    let text = serde_json::to_string(&body).expect("spans serialize");
    if std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&file, text))
        .is_err()
    {
        eprintln!("perfbench: could not write {}", file.display());
    }
    file.display().to_string()
}
