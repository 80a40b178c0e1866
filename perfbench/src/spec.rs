//! Workloads and their seeded job lists.
//!
//! The program under test only ever sees the [`JobSpec`]s built here.
//! A workload seed fixes the whole list: job `i` gets base seed
//! `derive_seed(seed, i)` and is built when a run asks for it, so the
//! same `--seed` gives a byte-identical list ([`manifest_to_jsonl`]) and
//! a different one gives a different list. Every config gives nonzero work to all five session stages
//! (analyzer probe, subspace growth, significance, explainer, coverage)
//! and runs the explainer on one thread.

use xplain_core::pipeline::PipelineConfig;
use xplain_core::subspace::SubspaceParams;
use xplain_core::{ExplainerParams, SignificanceParams};
use xplain_runtime::{derive_seed, manifest_to_jsonl, JobSpec, SessionBudgets};

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold `dp` analyses of the paper's Fig. 1a demand-pinning example.
    DpPaper,
    /// Cold analyses alternating `sched` and `ff`: short sessions, no LP.
    SchedFf,
    /// One operator through the mesh gateway: cache hits, status polls,
    /// regression pages, `tune --quick`, and small fresh jobs.
    Operator,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::DpPaper, Workload::SchedFf, Workload::Operator];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DpPaper => "dp_paper",
            Workload::SchedFf => "sched_ff",
            Workload::Operator => "operator",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Domain the workload's `POST /v1/tune` repairs.
    pub fn tune_domain(self) -> &'static str {
        match self {
            Workload::SchedFf => "sched",
            Workload::DpPaper | Workload::Operator => "dp",
        }
    }

    /// Bank records per domain the server holds when the measured reads
    /// begin (the warm-up's or fill's real records, widened).
    pub fn bank_size(self) -> Vec<(&'static str, usize)> {
        match self {
            Workload::DpPaper => vec![("dp", 16)],
            Workload::SchedFf => vec![("sched", 12), ("ff", 12)],
            Workload::Operator => vec![("sched", 100), ("ff", 100)],
        }
    }

    /// Domains of the cold jobs, in turn.
    fn domains(self) -> &'static [&'static str] {
        match self {
            Workload::DpPaper => &["dp"],
            Workload::SchedFf | Workload::Operator => &["sched", "ff"],
        }
    }
}

/// Pipeline config of one cold job: one subspace, small fixed sample
/// counts, single-threaded explainer, and a coverage pass.
pub fn job_config(domain: &str) -> PipelineConfig {
    let dp = domain == "dp";
    PipelineConfig {
        max_subspaces: 1,
        subspace: SubspaceParams {
            dkw_eps: 0.25,
            dkw_delta: 0.25,
            max_expansions: 4,
            tree_sample_factor: 3,
            ..Default::default()
        },
        significance: SignificanceParams {
            pairs: if dp { 120 } else { 100 },
            ..Default::default()
        },
        explainer: ExplainerParams {
            samples: if dp { 600 } else { 400 },
            threads: 1,
            ..Default::default()
        },
        coverage_samples: if dp { 1500 } else { 2000 },
        ..Default::default()
    }
}

/// A seeded job list, built one spec at a time: a run holds only the
/// specs it submits, however far its load gets.
#[derive(Debug, Clone, Copy)]
pub struct Specs {
    base: u64,
    /// Job `i` runs `domains[i % domains.len()]`.
    domains: &'static [&'static str],
}

impl Specs {
    /// Job `i` of the list.
    pub fn get(&self, i: usize) -> JobSpec {
        let domain = self.domains[i % self.domains.len()];
        JobSpec {
            domain: domain.to_string(),
            config: job_config(domain),
            seed: derive_seed(self.base, i as u64),
            budgets: SessionBudgets::unlimited(),
        }
    }

    /// The first `n` jobs.
    pub fn take(&self, n: usize) -> Vec<JobSpec> {
        (0..n).map(|i| self.get(i)).collect()
    }
}

/// The cold jobs of a workload under `seed`.
pub fn spec_list(workload: Workload, seed: u64) -> Specs {
    Specs {
        base: seed ^ workload_salt(workload),
        domains: workload.domains(),
    }
}

/// Seed of the warm-up jobs of `dp_paper` and `sched_ff`. It is far
/// above the seeds a benchmark run is given, so a load phase never
/// resubmits a warm-up spec.
pub const WARM_SEED: u64 = 0x000F_A11E_D5EE_D000;

/// The warm-up jobs of `dp_paper` and `sched_ff`: the same for every
/// seed.
pub fn warm_list(workload: Workload) -> Specs {
    spec_list(workload, WARM_SEED)
}

/// The `dp` jobs that fill the operator's bank before its restart, so
/// `POST /v1/tune` for `dp` has records to repair against.
pub fn operator_dp_fill(seed: u64) -> Specs {
    Specs {
        base: seed ^ workload_salt(Workload::Operator) ^ 0xD9,
        domains: &["dp"],
    }
}

/// The first `n` specs as JSONL bytes (the form the determinism test
/// pins).
pub fn spec_bytes(workload: Workload, seed: u64, n: usize) -> String {
    manifest_to_jsonl(&spec_list(workload, seed).take(n))
}

/// Keeps the workloads' job streams apart under one seed: the
/// operator's fill jobs must not be the `sched_ff` jobs.
fn workload_salt(workload: Workload) -> u64 {
    match workload {
        Workload::DpPaper => 0x0D70_0000,
        Workload::SchedFf => 0x05CF_0000,
        Workload::Operator => 0x0A7E_0000,
    }
}

/// Serialize one spec as a `POST /v1/jobs` body.
pub fn body(spec: &JobSpec) -> String {
    serde_json::to_string(spec).expect("JobSpec serializes")
}
