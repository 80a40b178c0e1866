//! The tuner's determinism contract, pinned: the same domain, bank, and
//! options produce a byte-identical `TuneReport` whether candidate
//! evaluation runs on 1 worker or N — and the `--watch` NDJSON stream is
//! identical too.

use xplain_core::pipeline::{SubspaceFinding, Witness};
use xplain_core::subspace::Subspace;
use xplain_runtime::{DomainRegistry, SolverCounters};
use xplain_tune::{generation_line, report_line, tune, tune_with, BankRecord, TuneOptions};

/// Synthetic bank records for every builtin domain: the oracle-box
/// midpoint plus a corner-ish point, each wrapped in a witnessed
/// finding over the domain's full input box.
fn synthetic_records(registry: &DomainRegistry) -> Vec<(u64, BankRecord)> {
    let mut records = Vec::new();
    for id in registry.ids() {
        let domain = registry.get(&id).expect("registered");
        let bounds = domain.oracle().bounds();
        let mid: Vec<f64> = bounds.iter().map(|(lo, hi)| lo + 0.5 * (hi - lo)).collect();
        let high: Vec<f64> = bounds.iter().map(|(lo, hi)| lo + 0.9 * (hi - lo)).collect();
        for (j, instance) in [mid, high].into_iter().enumerate() {
            let lo: Vec<f64> = bounds.iter().map(|&(l, _)| l).collect();
            let hi: Vec<f64> = bounds.iter().map(|&(_, h)| h).collect();
            let subspace = Subspace::from_rough_box(lo, hi, instance.clone(), 1.0);
            let finding = SubspaceFinding {
                subspace,
                significance: None,
                explanation: None,
                witness: Some(Witness {
                    input: instance.clone(),
                    gap: 1.0,
                }),
            };
            let record = BankRecord::from_finding(&id, &finding, "synthetic", j as u64)
                .expect("witnessed finding banks");
            let key = xplain_tune::RegressionBank::key(&id, &record.instance);
            records.push((key, record));
        }
    }
    records.sort_by_key(|(k, _)| *k);
    records
}

#[test]
fn one_worker_equals_n_workers_byte_for_byte() {
    let registry = DomainRegistry::builtin();
    let records = synthetic_records(&registry);
    for id in registry.ids() {
        let domain = registry.get(&id).expect("registered");
        if domain.param_space().is_none() {
            continue;
        }
        let mut serial_opts = TuneOptions::quick();
        serial_opts.workers = 1;
        let mut parallel_opts = TuneOptions::quick();
        parallel_opts.workers = 4;

        let mut serial_stream = Vec::new();
        let serial = tune_with(domain, &records, &serial_opts, |stat| {
            serial_stream.push(generation_line(stat));
        })
        .expect("tune runs");
        let mut parallel_stream = Vec::new();
        let parallel = tune_with(domain, &records, &parallel_opts, |stat| {
            parallel_stream.push(generation_line(stat));
        })
        .expect("tune runs");

        assert_eq!(
            report_line(&serial),
            report_line(&parallel),
            "domain '{id}': report must not depend on worker count"
        );
        assert_eq!(
            serial_stream, parallel_stream,
            "domain '{id}': --watch stream must not depend on worker count"
        );
        // NDJSON framing: every line is a single-key object.
        for line in serial_stream {
            assert!(line.starts_with("{\"generation\":{"), "bad frame: {line}");
            assert!(line.ends_with("}}"), "bad frame: {line}");
        }
        assert!(report_line(&serial).starts_with("{\"report\":{"));
    }
}

#[test]
fn all_builtin_domains_are_tunable() {
    let registry = DomainRegistry::builtin();
    for id in registry.ids() {
        let domain = registry.get(&id).expect("registered");
        let space = domain
            .param_space()
            .unwrap_or_else(|| panic!("builtin domain '{id}' must expose a ParamSpace"));
        assert_eq!(space.domain, id);
        assert!(!space.params.is_empty());
        // The tuned oracle at the default vector must reproduce the
        // shipped oracle on a midpoint probe.
        let defaults = space.defaults();
        let tuned = domain
            .tuned_oracle(&defaults)
            .expect("tunable domain yields a tuned oracle");
        let shipped = domain.oracle();
        let mid: Vec<f64> = shipped
            .bounds()
            .iter()
            .map(|(lo, hi)| lo + 0.5 * (hi - lo))
            .collect();
        let a = shipped.gap(&mid);
        let b = tuned.gap(&mid);
        assert!(
            (a - b).abs() < 1e-12 || (a.is_nan() && b.is_nan()),
            "domain '{id}': default tuned oracle diverges from shipped oracle ({a} vs {b})"
        );
    }
}

/// A dp tune's candidates share the domain's solver stack, whose anchor
/// was solved when the registry was built: however many tuned oracles a
/// tune builds, on one worker or several, none of its solves is cold.
#[test]
fn a_dp_tune_makes_no_cold_start() {
    let registry = DomainRegistry::builtin();
    let records = synthetic_records(&registry);
    let domain = registry.get("dp").expect("registered");
    for workers in [1, 4] {
        let opts = TuneOptions {
            workers,
            ..TuneOptions::quick()
        };
        let before = SolverCounters::snapshot();
        tune(domain, &records, &opts).expect("tune runs");
        let work = SolverCounters::snapshot().since(&before);
        assert!(work.lp_solves > 0, "{workers} workers: {work:?}");
        assert_eq!(work.lp_cold_starts, 0, "{workers} workers: {work:?}");
    }
}
