//! The six workloads.

pub mod figs;
pub mod plan;
pub mod serve;
pub mod sim;
