//! Vector bin packing: the first-fit running example (§2, Fig. 1c, Fig. 2).

pub mod dsl;
pub mod exact;
pub mod heuristics;
pub mod instance;
mod scratch;

pub use dsl::VbpDsl;
pub use exact::{optimal, optimal_bins, optimal_milp, optimal_milp_stats};
pub use heuristics::{
    best_fit, first_fit, first_fit_decreasing, first_fit_deferred, first_fit_deferred_bins,
};
pub use instance::{Packing, VbpInstance};
