//! The direct workloads' read corpus knows every bank record its
//! warm-up wrote, however many warm-up jobs there are (one per four
//! cores' worth of clients, so far more than a load block keeps results
//! for on a large machine).

use std::collections::BTreeSet;

use xplain_perfbench::harness::{Tally, KEPT_RESULTS};
use xplain_perfbench::run;
use xplain_perfbench::spec::Workload;
use xplain_runtime::RegressionBank;

#[test]
fn warm_up_bank_keys_match_the_bank_on_disk() {
    let store = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("warm_bank");
    let _ = std::fs::remove_dir_all(&store);
    let tally = Tally::default();
    let jobs = 3 * KEPT_RESULTS;
    let (finished, bank) =
        run::fill_reads(Workload::SchedFf, &store, jobs, 2, &tally).expect("warm-up");
    assert!(tally.mismatches().is_empty(), "{:?}", tally.mismatches());
    assert_eq!(tally.failed(), 0);
    assert_eq!(finished.len(), jobs);
    let on_disk: BTreeSet<u64> = RegressionBank::new(&store)
        .entries()
        .into_iter()
        .map(|(key, _)| key)
        .collect();
    let _ = std::fs::remove_dir_all(&store);
    assert_eq!(bank, on_disk);
}
