//! Makespan scheduling (`P || C_max`) with the **LPT** heuristic against
//! an exact optimum — the third evaluation domain, added to prove the
//! runtime's `Domain` registry is genuinely open (the paper's §6 pitch:
//! operators point XPlain at *their* heuristic, not just the two running
//! examples).
//!
//! * [`instance`] — instances, schedules, and the Graham-tight family;
//! * [`mod@lpt`] — Longest Processing Time first (deterministic
//!   tie-breaks);
//! * [`exact`] — branch-and-bound optimum plus the cross-checking MILP
//!   formulation over `xplain-lp`;
//! * [`dsl`] — the flow-network DSL encoding (jobs as pick-sources,
//!   machines as split nodes) with canonical machine slots so the
//!   explainer's heat-map is invariant to machine permutations.

pub mod dsl;
pub mod exact;
pub mod instance;
pub mod lpt;
mod scratch;

pub use dsl::{canonical_machine_slots, SchedDsl};
pub use exact::{
    lpt_capped_and_optimal_makespans, milp_model, optimal, optimal_milp, optimal_milp_stats,
};
pub use instance::{SchedInstance, Schedule};
pub use lpt::{list_schedule, lpt, lpt_capped};
