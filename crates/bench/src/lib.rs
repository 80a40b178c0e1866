//! # xplain-bench
//!
//! The reproduction harness: one module per table/figure/claim in the
//! paper's evaluation (see DESIGN.md §4 for the experiment index):
//!
//! | id | module | paper artifact | engine |
//! |----|--------|----------------|--------|
//! | E1 | [`fig1`] | Fig. 1a table (DP 150 vs OPT 250) | fan-out task |
//! | E2 | [`vbp_examples`] | §2 adversarial VBP sizes (1/49/51/51) | fan-out task |
//! | E3 | [`vbp_examples`] | Fig. 2 (FF 9 vs OPT 8 on 17 balls) | fan-out task |
//! | E4 | [`fig4`] | Fig. 4 heat-maps (3000 samples) | fan-out task |
//! | E5 | [`fig5`] | Fig. 5 subspaces + p-values (2e-60 / 8e-11) | fan-out task |
//! | E6 | [`speedup`] | §5.1 compiled-DSL 4.3× speedup | fan-out task |
//! | E7 | [`pipeline_time`] | Fig. 4 caption (20 min/figure) | **manifest jobs** |
//! | E8 | [`generalize`] | §5.4 `increasing(P)` | fan-out task |
//! | E9 | [`appendix_a`] | Theorem A.1 executed | fan-out task |
//!
//! "Engine" says how `repro all` routes the artifact through
//! `xplain-runtime`: every artifact renders inside an executor fan-out
//! task (so E1–E9 regenerate concurrently), and E7 additionally runs its
//! per-domain pipelines as batch-manifest jobs — one per registered
//! domain (DP, FF, and LPT scheduling). The `repro engine` experiment
//! demos the manifest + content-addressed store path explicitly.
//!
//! Beyond the paper, [`ablations`] quantifies the design choices
//! DESIGN.md §5 documents (tree refinement, DKW sizing, expansion
//! thresholds, heuristic variants).
//!
//! `cargo run -p xplain-bench --release --bin repro -- all` regenerates
//! everything, and `cargo bench -p xplain-bench` runs the Criterion
//! timing benches. The crate has one binary, `repro`.
//!
//! The end-to-end benchmark of the served stack is `perfbench/` at the
//! repo root (`BENCHMARK.json`). The solver speed gates are
//! `crates/analyzer/tests/solver_speed.rs`, and the paced mesh-scaling
//! and tenant-fairness gates are `crates/mesh/tests/paced_scaling.rs`
//! and `crates/serve/tests/paced_fairness.rs`.

pub mod ablations;
pub mod appendix_a;
pub mod fig1;
pub mod fig4;
pub mod fig5;
pub mod generalize;
pub mod pipeline_time;
pub mod speedup;
pub mod vbp_examples;
