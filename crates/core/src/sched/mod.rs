//! Scheduler implementations: WaterWise and every baseline the paper
//! compares against.

mod baseline;
mod ecovisor;
mod greedy_opt;
mod least_load;
mod round_robin;
mod transport;
mod waterwise;

#[cfg(test)]
pub(crate) mod test_support;

pub use baseline::BaselineScheduler;
pub use ecovisor::{max_wait_budget, EcovisorConfig, EcovisorScheduler};
pub use greedy_opt::{GreedyObjective, GreedyOptScheduler};
pub use least_load::LeastLoadScheduler;
pub use round_robin::RoundRobinScheduler;
pub use waterwise::{paper_default_scheduler, SolveStats, WaterWiseConfig, WaterWiseScheduler};
