//! One benchmark run: set up, warm up, measure, check, report.
//!
//! Timeline of every run:
//!
//! 1. **set-up** — untimed warm-up jobs fill the store and bank the
//!    reads run against; the shards (and for `operator` the gateway)
//!    start over them.
//! 2. **load** — `--seconds` of traffic in [`BLOCKS`] equal blocks.
//!    Each block starts with [`SETUPS_PER_BLOCK`] timed starts of a
//!    probe shard (`setup_s`), spread over the run because how long a
//!    start takes drifts with the host from one second to the next.
//!    A `dp_paper` / `sched_ff` block then reads from an idle shard
//!    (cache hits, status polls, regression pages, `tune --quick`, so
//!    sub-millisecond reads are timed without a session competing for
//!    the core), then runs closed-loop cold jobs on `nproc - 1` clients
//!    (at least one). An `operator` block runs its mixed cycles. From
//!    a block's first probe start to the end of its traffic, a thread
//!    samples the host's speed ([`crate::calib`]). Every end-to-end
//!    metric except `peak_rss_mb` is taken at the reference host speed,
//!    computed per block and reported as the median over blocks, so a
//!    stall that hits a minority of blocks does not move it.
//! 3. **check** — in-process replays of a sample of served jobs must
//!    equal the streamed results.
//!
//! With `--trace 1` the load phase is two blocks: the first records
//! spans, the second does not (their `job_p50_ms` ratio is the tracing
//! overhead). After it come the layer probes in [`crate::layers`].

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use xplain_core::pipeline::PipelineResult;
use xplain_runtime::{derive_seed, BankRecord, DomainRegistry, JobSpec, RegressionBank};
use xplain_serve::ServerConfig;
use xplain_stats::percentile_exact;

use crate::calib;
use crate::harness::{self, closed_loop, ColdJob, Failure, Front, Shard, Tally, KEPT_RESULTS};
use crate::layers;
use crate::replay::{self, normalized_json};
use crate::spec::{self, Specs, Workload};
use crate::sys;
use crate::trace::Tracer;

/// Timed probe-shard starts before each load block; `setup_s` is the
/// median over all of them.
pub const SETUPS_PER_BLOCK: usize = 2;
/// Blocks of an untraced load phase.
pub const BLOCKS: usize = 16;
/// Served jobs replayed in-process to check results (untraced runs).
const VERIFY_JOBS: usize = 2;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Everything a run reports.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Context printed beside the result (machine, filesystem, counts).
    pub info: Vec<(String, serde::Value)>,
}

/// One timed read: when it was sent, how long it took, and its kind
/// (the domain of a resubmitted spec; empty for pages and tunes).
#[derive(Debug, Clone)]
pub struct Timed {
    pub at: Instant,
    pub ms: f64,
    pub kind: String,
}

/// Record a read of `kind` sent at `at` that succeeded in `ms`.
fn record(samples: &mut Vec<Timed>, at: Instant, kind: &str, ms: Option<f64>) {
    samples.extend(ms.map(|ms| Timed {
        at,
        ms,
        kind: kind.to_string(),
    }));
}

pub fn ms(samples: &[Timed]) -> Vec<f64> {
    samples.iter().map(|s| s.ms).collect()
}

/// Samples of one load block.
#[derive(Default)]
pub struct Load {
    pub jobs: Vec<ColdJob>,
    /// When the block's jobs began (the reads excluded for the direct
    /// workloads), and the seconds spent on them.
    pub began: Option<Instant>,
    pub seconds: f64,
    pub hits: Vec<Timed>,
    pub pages: Vec<Timed>,
    pub tunes: Vec<Timed>,
    /// The probe-shard starts before the block (in ms).
    pub setups: Vec<Timed>,
    /// Peak resident set during the block's traffic, in MB.
    pub peak_rss_mb: f64,
    /// The host's speed while the block's traffic ran.
    pub speed: calib::Speed,
}

impl Load {
    pub fn job_ms(&self) -> Vec<f64> {
        self.jobs.iter().map(|j| j.done_ms).collect()
    }
}

pub fn p(samples: &[f64], q: f64) -> f64 {
    percentile_exact(samples, q).unwrap_or(0.0)
}

pub fn median(samples: &[f64]) -> f64 {
    p(samples, 0.5)
}

/// Finished jobs as (spec, id).
pub type Finished = Vec<(JobSpec, String)>;

/// The state a run builds before its load phase.
pub struct Stage {
    pub shard: Shard,
    /// The operator's gateway (absent for the direct workloads).
    pub front: Option<Front>,
    /// The direct workloads' read shard: its own store holds the
    /// warm-up's results and a bank of fixed size, which the load never
    /// touches (the load shard's bank grows with throughput).
    pub reader: Option<Shard>,
    /// Store directory of the shard that serves the reads.
    pub read_store: PathBuf,
    /// Store directory the timed probe starts open.
    pub probe_store: PathBuf,
    pub specs: Specs,
    /// First spec index the load phase submits.
    pub first: usize,
    /// Finished jobs whose specs the reads resubmit.
    pub finished: Finished,
    /// Keys of the records the read shard's bank held when the run
    /// started (its jobs' findings plus the widened copies); the
    /// operator's fresh jobs add more.
    pub bank: BTreeSet<u64>,
}

impl Stage {
    /// The shard that serves the reads of `finished` specs.
    pub fn read_shard(&self) -> &Shard {
        self.reader.as_ref().unwrap_or(&self.shard)
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let root = Path::new(harness::WORK_ROOT);
    let ram = sys::mount_ram(root);
    let dir = harness::work_dir(harness::WORK_ROOT, args.workload.name());
    let _ = std::fs::remove_dir_all(&dir);
    let result = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))
        .and_then(|()| run_in(args, &dir));
    let _ = std::fs::remove_dir_all(&dir);
    if ram {
        sys::unmount(root);
    }
    let _ = std::fs::remove_dir(root);
    result
}

fn run_in(args: &Args, dir: &Path) -> Result<Report, String> {
    let nproc = sys::nproc();
    let store = dir.join("store");
    let tally = Tally::default();
    let stage = match args.workload {
        Workload::Operator => stage_operator(args, &store, nproc, &tally)?,
        _ => stage_direct(args, &store, nproc, &tally)?,
    };
    let mut info = vec![
        ("workload".to_string(), str_value(args.workload.name())),
        ("seed".to_string(), num(args.seed as f64)),
        ("nproc".to_string(), num(nproc as f64)),
        ("store_fs".to_string(), str_value(&sys::fs_type(&store))),
        ("bank_floor".to_string(), num(stage.bank.len() as f64)),
    ];
    let (metrics, jobs) = if args.trace {
        let tracer = Tracer::new();
        let (jobs, metrics) = layers::traced(args, stage, &store, nproc, &tally, &tracer)?;
        info.push(("spans".to_string(), num(tracer.spans().len() as f64)));
        let path = layers::write_spans(args, &tracer);
        info.push(("span_file".to_string(), str_value(&path)));
        (metrics, jobs)
    } else {
        info.push((
            "rss_peak_reset".to_string(),
            serde::Value::Bool(sys::reset_peak_rss()),
        ));
        let (blocks, _) = measure(
            args,
            &stage,
            stage.first,
            nproc,
            &tally,
            None,
            args.seconds,
            BLOCKS,
        );
        let jobs: Vec<ColdJob> = blocks.iter().flat_map(|b| b.jobs.iter().cloned()).collect();
        verify(&stage.specs, &jobs, VERIFY_JOBS, &tally);
        let metrics = end_to_end(&blocks);
        info.push((
            "kernel_ms".to_string(),
            num(median(
                &blocks
                    .iter()
                    .map(|b| b.speed.kernel_ms())
                    .collect::<Vec<_>>(),
            )),
        ));
        info.push((
            "unscaled".to_string(),
            serde::Value::Map(
                unscaled(&blocks)
                    .into_iter()
                    .map(|m| (m.name, num(m.value)))
                    .collect(),
            ),
        ));
        stop(stage);
        (metrics, jobs.len())
    };
    info.push(("load_jobs".to_string(), num(jobs as f64)));
    Ok(Report {
        tally,
        metrics,
        info,
    })
}

pub fn stop(stage: Stage) {
    if let Some(front) = stage.front {
        front.stop();
    }
    if let Some(reader) = stage.reader {
        reader.stop();
    }
    stage.shard.stop();
}

fn str_value(s: &str) -> serde::Value {
    serde::Value::Str(s.to_string())
}

fn num(v: f64) -> serde::Value {
    serde::Value::Num(v)
}

/// One timed start of a probe shard over the stage's probe store (with
/// a gateway in front for `operator`), stopped again at once: bind,
/// store and journal open, journal recovery, ready to answer. The probe
/// keeps its own journal, so it never replays the served shard's.
fn probe_start(stage: &Stage, nproc: usize) -> Result<f64, Failure> {
    let config = ServerConfig {
        shard_id: Some("setup-probe".into()),
        ..harness::shard_config(Some(&stage.probe_store), nproc)
    };
    let t0 = Instant::now();
    let shard = Shard::start(config).map_err(|e| Failure::Op(format!("probe start: {e}")))?;
    let front = match stage.front {
        Some(_) => Some(
            Front::start(&[shard.addr()])
                .map_err(|e| Failure::Op(format!("probe gateway start: {e}")))?,
        ),
        None => None,
    };
    let seconds = t0.elapsed().as_secs_f64();
    if let Some(front) = front {
        front.stop();
    }
    shard.stop();
    Ok(seconds)
}

/// Add the bank keys a finished job writes through to `keys`.
fn bank_keys(keys: &mut BTreeSet<u64>, domain: &str, result: &Option<PipelineResult>) {
    for finding in result.iter().flat_map(|r| &r.findings) {
        if let Some(r) = BankRecord::from_finding(domain, finding, "", 0) {
            keys.insert(RegressionBank::key(&r.domain, &r.instance));
        }
    }
}

/// Finished jobs as (spec, id), in spec order, and the bank keys their
/// findings write through.
fn finished_jobs(specs: &Specs, mut jobs: Vec<ColdJob>) -> (Finished, BTreeSet<u64>) {
    jobs.sort_by_key(|j| j.spec_index);
    let mut bank = BTreeSet::new();
    let list = jobs
        .iter()
        .map(|j| {
            let spec = specs.get(j.spec_index);
            bank_keys(&mut bank, &spec.domain, &j.result);
            (spec, j.id.clone())
        })
        .collect();
    (list, bank)
}

/// Warm-up jobs per client for the direct workloads.
const WARM_PER_CLIENT: usize = 4;

/// `dp_paper` / `sched_ff`: the load shard over a fresh store, and a
/// read shard over its own store filled by warm-up jobs.
fn stage_direct(args: &Args, store: &Path, nproc: usize, tally: &Tally) -> Result<Stage, String> {
    let read_store = store.with_file_name("reads");
    let (finished, bank) = fill_reads(
        args.workload,
        &read_store,
        WARM_PER_CLIENT * nproc,
        nproc,
        tally,
    )?;
    let reader = Shard::start(harness::read_config(&read_store, nproc))
        .map_err(|e| format!("read shard start: {e}"))?;
    let shard = Shard::start(harness::shard_config(Some(store), nproc))
        .map_err(|e| format!("shard start: {e}"))?;
    Ok(Stage {
        shard,
        front: None,
        reader: Some(reader),
        read_store,
        probe_store: store.with_file_name("probe"),
        specs: spec::spec_list(args.workload, args.seed),
        first: 0,
        finished,
        bank,
    })
}

/// The direct workloads' read corpus: `jobs` warm-up jobs served into
/// `store` by `nproc` closed-loop clients, then its bank widened.
/// Returns the finished jobs as (spec, id) and the keys of every bank
/// record: those the jobs' findings wrote through, and the widening's.
///
/// The warm-up jobs, and so the corpus the reads run against, are the
/// same for every seed ([`spec::warm_list`]): a regressions page or a
/// tuning run costs in proportion to the records it parses and scores,
/// and which records a seed's first jobs find would otherwise decide it.
pub fn fill_reads(
    workload: Workload,
    store: &Path,
    jobs: usize,
    nproc: usize,
    tally: &Tally,
) -> Result<(Finished, BTreeSet<u64>), String> {
    let warm_specs = spec::warm_list(workload);
    let filler = Shard::start(harness::shard_config(Some(store), nproc))
        .map_err(|e| format!("warm-up shard start: {e}"))?;
    let warm = closed_loop(
        filler.addr(),
        &warm_specs,
        0..jobs,
        None,
        jobs,
        nproc,
        tally,
        None,
    );
    filler.stop();
    let (finished, mut bank) = finished_jobs(&warm_specs, warm);
    widen_bank(store, spec::WARM_SEED, &mut bank, &workload.bank_size())?;
    Ok((finished, bank))
}

/// Reads per load block of the direct workloads.
const READ_HITS: usize = 100;
const READ_STATUSES: usize = 50;
const READ_PAGES: usize = 10;
const READ_TUNES: usize = 4;

/// One block's reads against the read shard, while the load shard is
/// idle. Each status poll follows the hit of its own spec (the read
/// shard keeps one finished job in memory). The bank must hold exactly
/// the records the warm-up wrote.
fn direct_reads(
    args: &Args,
    stage: &Stage,
    tally: &Tally,
    tracer: Option<&Tracer>,
    load: &mut Load,
) {
    let api = harness::client(stage.read_shard().addr());
    let n = stage.finished.len();
    for k in 0..READ_HITS.min(n * READ_HITS) {
        let (spec, id) = &stage.finished[k % n];
        let at = Instant::now();
        let hit = tally.check(harness::resubmit(&api, spec, tracer));
        record(&mut load.hits, at, &spec.domain, hit);
        if k % (READ_HITS / READ_STATUSES) == 0 {
            tally.check(harness::status(&api, id, tracer));
        }
    }
    let bank = stage.bank.len();
    for _ in 0..READ_PAGES {
        let at = Instant::now();
        let page = tally.check(harness::regressions(&api, 0, bank, tracer));
        if let Some((ms, total)) = page {
            record(&mut load.pages, at, "", Some(ms));
            if total != bank {
                tally.mismatch(format!(
                    "idle bank holds {total} records, jobs wrote {bank}"
                ));
            }
        }
    }
    for _ in 0..READ_TUNES {
        let domain = args.workload.tune_domain();
        let at = Instant::now();
        let tune = tally.check(harness::tune(&api, domain, tracer));
        record(&mut load.tunes, at, "", tune);
    }
}

/// Operator fill: small sched/ff jobs plus `dp` jobs for the tuner.
const FILL_JOBS: usize = 64;
const FILL_DP_JOBS: usize = 4;

/// `operator`: fill a store and bank, then restart over it through a
/// gateway.
fn stage_operator(args: &Args, store: &Path, nproc: usize, tally: &Tally) -> Result<Stage, String> {
    let specs = spec::spec_list(Workload::Operator, args.seed);
    let fill_dp = spec::operator_dp_fill(args.seed);
    let filler = Shard::start(harness::shard_config(Some(store), nproc))
        .map_err(|e| format!("fill shard: {e}"))?;
    let fill = |specs: &Specs, n: usize| {
        closed_loop(filler.addr(), specs, 0..n, None, n, nproc, tally, None)
    };
    let filled = fill(&specs, FILL_JOBS);
    let filled_dp = fill(&fill_dp, FILL_DP_JOBS);
    filler.stop();
    let (finished, mut bank) = finished_jobs(&specs, filled);
    bank.extend(finished_jobs(&fill_dp, filled_dp).1);
    widen_bank(store, args.seed, &mut bank, &args.workload.bank_size())?;

    // Warm restart over the filled store, behind a gateway.
    let shard = Shard::start(harness::read_config(store, nproc))
        .map_err(|e| format!("shard start: {e}"))?;
    let front = Front::start(&[shard.addr()]).map_err(|e| format!("gateway start: {e}"))?;
    let mut stage = Stage {
        shard,
        front: Some(front),
        reader: None,
        read_store: store.to_path_buf(),
        probe_store: store.to_path_buf(),
        specs,
        first: FILL_JOBS,
        finished,
        bank,
    };
    // Warm-up: one full cycle, untimed.
    let mut cursor = stage.first;
    operator_cycle(&stage, 0, &mut cursor, tally, None, &mut Load::default());
    stage.first = cursor;
    Ok(stage)
}

/// Grow the bank until each listed domain holds `n` records, adding
/// copies of its real records whose instances are moved by up to 1% of
/// each dimension's range (deterministic in `seed`). Every regressions
/// page and tuning run parses the whole bank, so a fixed, seed-independent
/// size keeps their cost from depending on how many records the warm-up
/// happened to find; for the operator it also keeps the records its own
/// fresh jobs add a small share.
fn widen_bank(
    store: &Path,
    seed: u64,
    keys: &mut BTreeSet<u64>,
    targets: &[(&str, usize)],
) -> Result<(), String> {
    let bank = RegressionBank::new(store);
    let registry = DomainRegistry::builtin();
    let entries = bank.entries();
    let mut draw = 0u64;
    for (domain, target) in targets {
        let real: Vec<&BankRecord> = entries
            .iter()
            .map(|(_, r)| r)
            .filter(|r| r.domain == *domain)
            .collect();
        if real.is_empty() {
            return Err(format!("the warm-up wrote no {domain} bank records"));
        }
        let bounds = registry
            .get(domain)
            .expect("builtin domain")
            .oracle()
            .bounds();
        let mut count = real.len();
        let mut attempts = 0;
        while count < *target {
            attempts += 1;
            if attempts > 100 * target {
                return Err(format!("could not widen the {domain} bank records"));
            }
            let mut record = real[count % real.len()].clone();
            for (x, (lo, hi)) in record.instance.iter_mut().zip(&bounds) {
                draw += 1;
                let u = derive_seed(seed, draw) as f64 / (1u64 << 53) as f64;
                *x = (*x + (u - 0.5) * 0.02 * (hi - lo)).clamp(*lo, *hi);
            }
            if bank
                .insert(&record)
                .map_err(|e| format!("bank insert: {e}"))?
            {
                keys.insert(RegressionBank::key(&record.domain, &record.instance));
                count += 1;
            }
        }
    }
    Ok(())
}

/// Operator mix, per cycle: one regressions page, `HITS_PER_CYCLE` ×
/// (cache-hit resubmit + status poll), `FRESH_PER_CYCLE` fresh sched/ff
/// jobs streamed to completion (each then resubmitted as a hit), and
/// every `TUNE_EVERY`-th cycle a `tune --quick` for `dp`.
const HITS_PER_CYCLE: usize = 6;
const FRESH_PER_CYCLE: usize = 2;
const TUNE_EVERY: usize = 3;

pub fn operator_cycle(
    stage: &Stage,
    cycle: usize,
    cursor: &mut usize,
    tally: &Tally,
    tracer: Option<&Tracer>,
    load: &mut Load,
) {
    let front = stage
        .front
        .as_ref()
        .expect("operator runs through a gateway");
    let api = harness::client(front.addr());
    let n = stage.finished.len().max(1);
    let offset = (cycle * 50) % stage.bank.len().max(1);
    let at = Instant::now();
    let page = tally.check(harness::regressions(&api, offset, stage.bank.len(), tracer));
    record(&mut load.pages, at, "", page.map(|(ms, _)| ms));
    for k in 0..HITS_PER_CYCLE {
        let Some((spec, id)) = stage.finished.get((cycle * HITS_PER_CYCLE + k) % n) else {
            break;
        };
        let at = Instant::now();
        let hit = tally.check(harness::resubmit(&api, spec, tracer));
        record(&mut load.hits, at, &spec.domain, hit);
        tally.check(harness::status(&api, id, tracer));
    }
    for _ in 0..FRESH_PER_CYCLE {
        let i = *cursor;
        *cursor += 1;
        let spec = stage.specs.get(i);
        if let Some(mut job) = tally.check(harness::cold_job(&api, &spec, i, tracer)) {
            tally.check(harness::resubmit(&api, &spec, tracer));
            if i >= stage.first + KEPT_RESULTS {
                job.result = None;
            }
            load.jobs.push(job);
        }
    }
    if cycle.is_multiple_of(TUNE_EVERY) {
        let at = Instant::now();
        let tune = tally.check(harness::tune(&api, "dp", tracer));
        record(&mut load.tunes, at, "", tune);
    }
}

/// Closed-loop clients of the direct workloads' load: `nproc - 1` (at
/// least one), so the clients, HTTP threads and event streams have a core
/// beside the sessions. With a client per core every core runs a
/// session, and how the scheduler then shares cores among sessions and
/// response paths settled differently from run to run on a 2-vCPU VM:
/// job latency moved by 30–45% between runs of the same code.
pub fn load_clients(nproc: usize) -> usize {
    nproc.saturating_sub(1).max(1)
}

/// The load phase: `seconds` of traffic from spec index `first`, in
/// `blocks` equal blocks. Returns the blocks and the next unused spec
/// index.
pub fn measure(
    args: &Args,
    stage: &Stage,
    first: usize,
    nproc: usize,
    tally: &Tally,
    tracer: Option<&Tracer>,
    seconds: f64,
    blocks: usize,
) -> (Vec<Load>, usize) {
    let block = Duration::from_secs_f64(seconds / blocks as f64);
    let mut next = first;
    let mut cycle = 1;
    let mut out = Vec::with_capacity(blocks);
    for _ in 0..blocks {
        let mut load = Load::default();
        let sampler = calib::Sampler::start();
        for _ in 0..SETUPS_PER_BLOCK {
            let at = Instant::now();
            let start = tally.check(probe_start(stage, nproc));
            record(&mut load.setups, at, "", start.map(|s| s * 1000.0));
        }
        sys::reset_peak_rss();
        match args.workload {
            Workload::Operator => {
                let t0 = Instant::now();
                load.began = Some(t0);
                let deadline = t0 + block;
                while Instant::now() < deadline {
                    operator_cycle(stage, cycle, &mut next, tally, tracer, &mut load);
                    cycle += 1;
                }
                // Operator throughput counts the whole mixed cycle.
                load.seconds = t0.elapsed().as_secs_f64();
            }
            _ => {
                direct_reads(args, stage, tally, tracer, &mut load);
                let t0 = Instant::now();
                load.began = Some(t0);
                load.jobs = closed_loop(
                    stage.shard.addr(),
                    &stage.specs,
                    next..usize::MAX,
                    Some(t0 + block),
                    KEPT_RESULTS,
                    load_clients(nproc),
                    tally,
                    tracer,
                );
                load.seconds = t0.elapsed().as_secs_f64();
                next = load
                    .jobs
                    .iter()
                    .map(|j| j.spec_index + 1)
                    .max()
                    .unwrap_or(next)
                    .max(next);
            }
        }
        load.peak_rss_mb = sys::peak_rss_mb();
        load.speed = sampler.finish();
        out.push(load);
    }
    (out, next)
}

/// Replay the `n` lowest-index served jobs in-process; each must equal
/// its streamed result.
pub fn verify(specs: &Specs, jobs: &[ColdJob], n: usize, tally: &Tally) {
    let mut sample: Vec<&ColdJob> = jobs.iter().collect();
    sample.sort_by_key(|j| j.spec_index);
    for job in sample.into_iter().take(n) {
        let replayed = replay::replay(&specs.get(job.spec_index), None);
        check_replay(job, &replayed, tally);
    }
}

pub fn check_replay(job: &ColdJob, replayed: &replay::ReplayJob, tally: &Tally) {
    let streamed = job.result.as_ref().map(normalized_json);
    if streamed.as_ref() != Some(&replayed.result_json) {
        tally.mismatch(format!(
            "job {} (spec #{}): streamed result differs from the in-process drain",
            job.id, job.spec_index
        ));
    }
}

/// The end-to-end metrics of an untraced run: each the median over
/// blocks of its per-block value. Latencies and throughput are taken at
/// the reference host speed ([`calib`]): each job or read is scaled by
/// the host's speed while it ran.
pub fn end_to_end(blocks: &[Load]) -> Vec<Metric> {
    metrics_at(blocks, true)
}

/// The latencies and throughput of [`end_to_end`] as measured, at
/// whatever speed the host ran.
pub fn unscaled(blocks: &[Load]) -> Vec<Metric> {
    metrics_at(blocks, false)
        .into_iter()
        .filter(|m| m.name != "peak_rss_mb")
        .collect()
}

/// The `q`-quantile of each kind's samples, averaged over the kinds.
/// Where a workload alternates job kinds (`sched`, `ff`), its latencies
/// have a mode per kind; a quantile of the pooled samples falls in the
/// gap between the modes and jumps from one run to the next as the
/// modes' shares wobble, while each kind's quantile holds still.
pub fn per_kind<'a>(samples: impl Iterator<Item = (&'a str, f64)>, q: f64) -> f64 {
    let mut kinds: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (kind, ms) in samples {
        kinds.entry(kind).or_default().push(ms);
    }
    if kinds.is_empty() {
        return 0.0;
    }
    kinds.values().map(|v| p(v, q)).sum::<f64>() / kinds.len() as f64
}

/// Memory does not depend on the host's speed; it is reported as
/// measured.
fn metrics_at(blocks: &[Load], scaled: bool) -> Vec<Metric> {
    let over = |f: &dyn Fn(&Load) -> f64| {
        let per_block: Vec<f64> = blocks.iter().map(f).collect();
        median(&per_block)
    };
    // A time `ms` from `at`, at the reference speed.
    let at_ref = |b: &Load, at: Instant, ms: f64| {
        if scaled {
            ms * b.speed.over(at, ms)
        } else {
            ms
        }
    };
    let reads = |b: &Load, samples: &[Timed]| {
        per_kind(
            samples
                .iter()
                .map(|s| (s.kind.as_str(), at_ref(b, s.at, s.ms))),
            0.5,
        )
    };
    let jobs = |b: &Load, q: f64| {
        per_kind(
            b.jobs
                .iter()
                .map(|j| (j.domain.as_str(), at_ref(b, j.start, j.done_ms))),
            q,
        )
    };
    vec![
        metric(
            "setup_s",
            median(
                &blocks
                    .iter()
                    .flat_map(|b| b.setups.iter().map(|s| at_ref(b, s.at, s.ms) / 1000.0))
                    .collect::<Vec<_>>(),
            ),
            "s",
        ),
        metric("peak_rss_mb", over(&|b| b.peak_rss_mb), "MB"),
        metric(
            "jobs_per_s",
            over(&|b| {
                let seconds = b.seconds.max(1e-9);
                let work = match b.began {
                    Some(t0) => at_ref(b, t0, seconds * 1000.0) / 1000.0,
                    None => seconds,
                };
                b.jobs.len() as f64 / work.max(1e-9)
            }),
            "jobs/s",
        ),
        metric("job_p50_ms", over(&|b| jobs(b, 0.5)), "ms"),
        metric("job_p90_ms", over(&|b| jobs(b, 0.9)), "ms"),
        metric(
            "first_explanation_p50_ms",
            over(&|b| {
                per_kind(
                    b.jobs.iter().filter_map(|j| {
                        Some((
                            j.domain.as_str(),
                            at_ref(b, j.start, j.first_explanation_ms?),
                        ))
                    }),
                    0.5,
                )
            }),
            "ms",
        ),
        metric("hit_p50_ms", over(&|b| reads(b, &b.hits)), "ms"),
        metric("regressions_p50_ms", over(&|b| reads(b, &b.pages)), "ms"),
        metric("tune_p50_ms", over(&|b| reads(b, &b.tunes)), "ms"),
    ]
}
