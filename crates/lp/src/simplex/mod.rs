//! LP solve entry point.
//!
//! [`solve`] runs the production solver — the revised simplex with native
//! bounded variables of [`crate::revised`] — as a cold one-shot solve.
//! Callers with repeated near-identical solves (branch-and-bound nodes,
//! gap-oracle sweeps) should hold a [`crate::revised::SolverSession`]
//! instead and warm-start.
//!
//! [`mod@reference`] keeps the original dense two-phase tableau solver alive
//! as the trusted oracle of the differential test-bed: same signature,
//! same typed errors, independently implemented.

pub mod reference;

use crate::error::LpError;
use crate::model::{Model, Solution};

/// Solve the LP relaxation of `model` (cold start, revised simplex).
pub fn solve(model: &Model) -> Result<Solution, LpError> {
    crate::revised::solve(model)
}
