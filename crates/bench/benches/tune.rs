//! Repair-loop timing benches: regression-bank content hashing,
//! insert/dedupe and cold vs. warm listing, the replay gate's oracle
//! recompute, and one full `--quick` tuning run — the costs
//! `runner bank replay` and `runner tune` pay per entry and per
//! generation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::PathBuf;
use xplain_core::pipeline::{SubspaceFinding, Witness};
use xplain_core::subspace::Subspace;
use xplain_runtime::DomainRegistry;
use xplain_tune::{replay_records, tune, BankRecord, RegressionBank, TuneOptions};

/// A synthetic banked finding for `domain` at `instance`.
fn record(domain: &str, instance: Vec<f64>, gap: f64) -> BankRecord {
    let lo: Vec<f64> = instance.iter().map(|v| v - 1.0).collect();
    let hi: Vec<f64> = instance.iter().map(|v| v + 1.0).collect();
    let finding = SubspaceFinding {
        subspace: Subspace::from_rough_box(lo, hi, instance.clone(), gap),
        significance: None,
        explanation: None,
        witness: Some(Witness {
            input: instance,
            gap,
        }),
    };
    BankRecord::from_finding(domain, &finding, "00000000000000ab", 7).expect("witness banks")
}

/// In-bounds instances for every builtin domain: quantile points of the
/// oracle's dimension box, banked with their *true* recomputed gap
/// (zero-gap points are not adversarial and never bank).
fn synthetic_records(registry: &DomainRegistry) -> Vec<(u64, BankRecord)> {
    let mut out = Vec::new();
    for id in registry.ids() {
        let domain = registry.get(&id).expect("listed id resolves");
        let oracle = domain.oracle();
        let bounds = oracle.bounds();
        // One candidate per dimension — that dimension at its midpoint,
        // every other at its maximum (the fig. 1a adversarial shape) —
        // plus the all-midpoints point.
        let mut candidates: Vec<Vec<f64>> = (0..bounds.len())
            .map(|pivot| {
                bounds
                    .iter()
                    .enumerate()
                    .map(|(d, (lo, hi))| {
                        if d == pivot {
                            lo + 0.5 * (hi - lo)
                        } else {
                            *hi
                        }
                    })
                    .collect()
            })
            .collect();
        candidates.push(bounds.iter().map(|(lo, hi)| lo + 0.5 * (hi - lo)).collect());
        for point in candidates {
            let gap = oracle.gap(&point);
            if !gap.is_finite() || gap <= 0.0 {
                continue;
            }
            let rec = record(&id, point, gap);
            out.push((RegressionBank::key(&rec.domain, &rec.instance), rec));
        }
    }
    assert!(
        out.iter().any(|(_, r)| r.domain == "dp"),
        "dp corpus must be non-empty for the search bench"
    );
    out.sort_by_key(|(k, _)| *k);
    out
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("xplain-bench-tune-{tag}-{}", std::process::id()))
}

fn bench_bank(c: &mut Criterion) {
    let registry = DomainRegistry::builtin();
    let records = synthetic_records(&registry);

    let mut group = c.benchmark_group("tune_bank");
    group.bench_function("content_key", |b| {
        b.iter(|| {
            for (_, rec) in &records {
                black_box(RegressionBank::key(&rec.domain, &rec.instance));
            }
        });
    });

    // Steady-state insert: every record already present, so this times
    // the dedupe path the executor hits on every repeat session.
    let root = scratch_dir("dedupe");
    let _ = std::fs::remove_dir_all(&root);
    let bank = RegressionBank::new(&root);
    for (_, rec) in &records {
        bank.insert(rec).expect("fresh insert");
    }
    group.bench_function("insert_dedupe", |b| {
        b.iter(|| {
            for (_, rec) in &records {
                assert!(!bank.insert(rec).expect("dedupe probe"));
            }
        });
    });
    // A fresh handle per iteration: the full parse a restarted process
    // pays on its first read.
    group.bench_function("entries_cold", |b| {
        b.iter(|| black_box(RegressionBank::new(&root).entries().len()));
    });
    // One handle, index warm: a directory listing, a stat per entry, and
    // the deep copy `entries()` returns.
    let _ = bank.entries();
    group.bench_function("entries_warm", |b| {
        b.iter(|| black_box(bank.entries().len()));
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&root);
}

fn bench_replay(c: &mut Criterion) {
    let registry = DomainRegistry::builtin();
    let records = synthetic_records(&registry);
    let mut group = c.benchmark_group("tune_replay");
    group.sample_size(20);
    group.bench_function("gate", |b| {
        b.iter(|| {
            let report = replay_records(&registry, &records);
            assert!(black_box(&report).pass);
        });
    });
    group.finish();
}

fn bench_tune_quick(c: &mut Criterion) {
    let registry = DomainRegistry::builtin();
    let records = synthetic_records(&registry);
    let domain = registry.get("dp").expect("dp is builtin");
    let opts = TuneOptions::quick();
    let mut group = c.benchmark_group("tune_search");
    group.sample_size(10);
    group.bench_function("dp_quick", |b| {
        b.iter(|| black_box(tune(domain, &records, &opts).expect("dp tunes")));
    });
    group.finish();
}

criterion_group!(benches, bench_bank, bench_replay, bench_tune_quick);
criterion_main!(benches);
