//! Branch-and-bound regression pins for the MetaOpt-style analyzer
//! encodings (the big-M/indicator MILPs of Fig. 1b/1c).
//!
//! Complements `crates/domains/tests/milp_regression.rs`: those pin the
//! clean assignment MILPs, these pin the gadget-heavy encodings whose LP
//! relaxations are exactly where a warm-start bug would change the
//! explored tree. Objectives stay correct under such a bug — node counts
//! do not.

use xplain_analyzer::{DpMetaOpt, FfMetaOpt};
use xplain_domains::te::TeProblem;
use xplain_lp::milp;

#[test]
fn ff_sec2_encoding_nodes_pinned() {
    // §2's 4-ball / 3-bin instance: gap of exactly 1 bin.
    let analyzer = FfMetaOpt::sec2();
    let built = analyzer.build_model(&[]);
    let (sol, stats) = milp::solve_with(&built.model, milp::Backend::Revised).expect("solvable");
    assert!((sol.objective - 1.0).abs() < 1e-6, "{}", sol.objective);
    assert_eq!(stats.nodes, PIN_FF_SEC2, "node count drifted: {stats:?}");
    assert_eq!(stats.lp.cold_starts, 1, "{stats:?}");
    assert_eq!(stats.lp.warm_hits + 1, stats.lp.solves, "{stats:?}");
}

#[test]
fn dp_fig1a_encoding_nodes_pinned() {
    // The Fig. 1b bilevel flattening on the Fig. 1a instance: gap 100.
    let analyzer = DpMetaOpt::new(TeProblem::fig1a(), 50.0);
    let built = analyzer.build_model(&[]);
    let (sol, stats) = milp::solve_with(&built.model, milp::Backend::Revised).expect("solvable");
    assert!((sol.objective - 100.0).abs() < 1.0, "{}", sol.objective);
    assert_eq!(stats.nodes, PIN_DP_FIG1A, "node count drifted: {stats:?}");
}

// Recorded from the revised-solver branch-and-bound; re-pinned when the
// sparse-factorization engine with devex pricing landed (ff 177 → 203,
// dp 1037 → 523 — devex picks different LP vertices, and the adaptive
// refactorization cadence moves where exact recomputation lands, so
// branching explores a different tree). See the domains twin for the
// drift policy.
const PIN_FF_SEC2: u64 = 203;
const PIN_DP_FIG1A: u64 = 523;
