//! The workload seed fixes the spec list, and BENCHMARK.json names the
//! metrics the benchmark prints.

use xplain_perfbench::layers::PER_LAYER;
use xplain_perfbench::spec::{self, Workload};
use xplain_perfbench::END_TO_END;

#[test]
fn same_seed_gives_byte_identical_spec_lists() {
    for workload in Workload::ALL {
        let a = spec::spec_bytes(workload, 42, 64);
        let b = spec::spec_bytes(workload, 42, 64);
        assert_eq!(a, b, "{}", workload.name());
        assert_eq!(a.lines().count(), 64);
    }
    let fill = |seed| xplain_runtime::manifest_to_jsonl(&spec::operator_dp_fill(seed).take(8));
    assert_eq!(fill(42), fill(42));
}

#[test]
fn different_seeds_give_different_spec_lists() {
    for workload in Workload::ALL {
        let a = spec::spec_bytes(workload, 42, 64);
        let b = spec::spec_bytes(workload, 43, 64);
        assert_ne!(a, b, "{}", workload.name());
        // Every job differs, not just one.
        for (x, y) in a.lines().zip(b.lines()) {
            assert_ne!(x, y);
        }
    }
    let fill = |seed| xplain_runtime::manifest_to_jsonl(&spec::operator_dp_fill(seed).take(8));
    assert_ne!(fill(42), fill(43));
}

#[test]
fn workloads_use_their_domains_and_run_every_stage() {
    let domains = |w| {
        spec::spec_list(w, 7)
            .take(4)
            .into_iter()
            .map(|s| s.domain)
            .collect::<Vec<_>>()
    };
    assert_eq!(domains(Workload::DpPaper), ["dp", "dp", "dp", "dp"]);
    assert_eq!(domains(Workload::SchedFf), ["sched", "ff", "sched", "ff"]);
    for job in spec::spec_list(Workload::SchedFf, 7)
        .take(2)
        .into_iter()
        .chain(spec::spec_list(Workload::DpPaper, 7).take(1))
    {
        let c = &job.config;
        assert!(c.max_subspaces > 0 && c.significance.pairs > 0);
        assert!(c.explainer.samples > 0 && c.coverage_samples > 0);
        assert_eq!(c.explainer.threads, 1);
        assert!(job.budgets.is_unlimited());
    }
}

/// BENCHMARK.json (at the repository root) lists exactly the metrics the
/// benchmark prints, with the same units.
#[test]
fn benchmark_json_matches_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let json = serde_json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        let map = json.as_map().expect("object");
        serde::map_get(map, key)
            .and_then(serde::Value::as_seq)
            .expect("metric list")
            .iter()
            .map(|m| {
                let m = m.as_map().expect("metric object");
                let get = |k| serde::map_get(m, k).and_then(serde::Value::as_str).unwrap();
                (get("name").to_string(), get("unit").to_string())
            })
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), owned(&END_TO_END));
    assert_eq!(listed("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = serde::map_get(json.as_map().unwrap(), "workloads")
        .and_then(serde::Value::as_seq)
        .unwrap()
        .iter()
        .map(|w| {
            serde::map_get(w.as_map().unwrap(), "name")
                .and_then(serde::Value::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);
}
