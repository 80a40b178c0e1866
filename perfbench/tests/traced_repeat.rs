//! Two traced runs with one seed report identical exact counts.
//!
//! Later count-based claims ("this change removes N LP solves per job")
//! rest on these repeating exactly. The counts come from in-process
//! replays and tuning after the servers stop, so this file holds a
//! single test: nothing else in the process may solve LPs meanwhile.

use xplain_perfbench::run::{self, Args};
use xplain_perfbench::spec::Workload;

const EXACT: [&str; 10] = [
    "lp.solves_per_job",
    "lp.pivots_per_job",
    "lp.refactorizations_per_job",
    "lp.warm_hit_ratio",
    "lp.bb_nodes_per_job",
    "lp.solves_per_tune",
    "core.oracle_evals_per_job",
    "core.significant_ratio",
    "runtime.bank_records_per_job",
    "tune.candidates_per_run",
];

fn traced(workload: Workload) -> Vec<(String, f64)> {
    let report = run::run(&Args {
        workload,
        seed: 5,
        seconds: 1.0,
        trace: true,
    })
    .expect("traced run");
    assert!(
        report.tally.mismatches().is_empty(),
        "{:?}",
        report.tally.mismatches()
    );
    assert_eq!(report.tally.failed(), 0);
    report
        .metrics
        .into_iter()
        .filter(|m| EXACT.contains(&m.name.as_str()))
        .map(|m| (m.name, m.value))
        .collect()
}

#[test]
fn two_traced_runs_report_identical_exact_counts() {
    for workload in [Workload::DpPaper, Workload::SchedFf] {
        let first = traced(workload);
        let second = traced(workload);
        assert_eq!(first.len(), EXACT.len());
        assert_eq!(first, second, "{}", workload.name());
        let get = |name: &str| first.iter().find(|(n, _)| n == name).unwrap().1;
        assert!(get("core.oracle_evals_per_job") > 0.0);
        assert!(get("tune.candidates_per_run") > 0.0);
        if workload == Workload::DpPaper {
            assert!(get("lp.solves_per_job") > 0.0);
        }
    }
}
