//! Traffic engineering: the Demand Pinning running example (§2, Fig. 1).

pub mod demand_pinning;
pub mod dsl;
pub mod paths;
pub mod problem;
pub mod topology;

pub use demand_pinning::{DemandPinning, DpError, PinOverflow};
pub use dsl::TeDsl;
pub use paths::{k_shortest_paths, Path};
pub use problem::{DemandPair, TeAllocation, TeLexSolver, TeLexSolverStack, TeProblem};
pub use topology::{Link, Topology};
