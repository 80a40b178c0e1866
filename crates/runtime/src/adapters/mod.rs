//! Built-in domain adapters: concrete [`crate::domain::Domain`]
//! implementations binding the problem logic in `xplain-domains` (and its
//! oracles in `xplain-analyzer`) to the runtime.
//!
//! Each adapter module carries the domain's DSL mapper (the Type-2
//! explainer hook) and its §5.4 instance family (the Type-3 generalizer
//! feed) alongside the `Domain` impl, so registering a new domain is one
//! self-contained file — see [`sched`] for the template.

pub mod dp;
pub mod ff;
pub mod sched;

pub use dp::{generate_dp_instances, DpDomain, DpDslMapper, DpFamily, DpInstance};
pub use ff::{generate_ff_instances, FfDomain, FfDslMapper, FfFamily, FfInstance};
pub use sched::{
    generate_sched_instances, SchedDomain, SchedDslMapper, SchedFamily, SchedFamilyInstance,
};
