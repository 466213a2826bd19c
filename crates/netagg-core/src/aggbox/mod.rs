//! The agg box: a middlebox node executing application aggregation
//! functions (Section 3.2.1).

pub mod scheduler;
pub mod tree;

pub mod runtime;

pub use runtime::{AggBox, AggBoxConfig, BoxSnapshot, BoxStats, RouteInstall};
