//! # xplain-lp
//!
//! A small, exact, dependency-free linear-programming and mixed-integer
//! linear-programming solver. This crate is the optimization substrate of
//! the XPlain reproduction: the paper's pipeline (MetaOpt-style heuristic
//! analysis, the network-flow DSL compiler, optimal baselines) is built on
//! commercial solvers in the original work; here everything runs on this
//! two-phase primal simplex plus branch-and-bound.
//!
//! ## Design
//!
//! * **Exactness first, speed second — but both.** The hot path is a
//!   revised simplex with native bounded variables and warm-startable
//!   sessions ([`revised`]); the original dense tableau solver survives
//!   as [`simplex::reference`], the oracle of a differential test-bed
//!   that pins the two against each other on randomized models.
//! * **Robustness.** All public entry points validate the model, reject
//!   NaN/infinite coefficients, and surface infeasibility/unboundedness and
//!   iteration caps as typed errors — never panics.
//! * **Observability.** Every solve feeds its thread's [`counters`]
//!   (iterations, refactorizations, warm-start hits, branch-and-bound
//!   nodes) so upper layers can report their own solver work unplumbed.
//!
//! ## Quick start
//!
//! ```
//! use xplain_lp::{Model, Sense, Cmp};
//!
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_nonneg("x");
//! let y = m.add_nonneg("y");
//! m.add_constr("capacity", x + y, Cmp::Le, 10.0);
//! m.set_objective(x * 2.0 + y);
//! let sol = m.solve().expect("solvable");
//! assert!((sol.objective - 20.0).abs() < 1e-6);
//! ```

pub mod counters;
pub mod error;
pub mod expr;
mod factor;
pub mod milp;
pub mod model;
pub mod revised;
pub mod serde_inf;
pub mod simplex;

pub use counters::SolverCounters;
pub use error::LpError;
pub use expr::{LinExpr, VarId};
pub use milp::{Backend, MilpStats};
pub use model::{Cmp, Constraint, Model, Sense, Solution, SolveOptions, VarType};
pub use revised::{Prepared, SolverSession, SolverStats, WarmBasis};
