//! End-to-end and per-layer benchmark of the served XPlain stack.
//!
//! `perfbench --workload <dp_paper|sched_ff|operator> --seed N --seconds S
//! --trace <0|1>` starts shards (and a mesh gateway) in-process on
//! loopback, drives them over real HTTP from closed-loop clients, checks
//! what comes back, and prints one JSON result line. See `README.md`
//! in this directory for the metrics and what each one should move.

pub mod calib;
pub mod harness;
pub mod layers;
pub mod replay;
pub mod run;
pub mod spec;
pub mod sys;
pub mod trace;

/// End-to-end metrics (`--trace 0`), in report order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("first_explanation_p50_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("regressions_p50_ms", "ms"),
    ("tune_p50_ms", "ms"),
];
