//! Runtime state of each simulated region and the read-only view exposed to
//! schedulers.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use waterwise_telemetry::Region;

/// The read-only view of one region's state that a scheduler may consult
/// when making placement decisions (the `cap(n)` of Eq. 10 comes from here).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionView {
    /// Which region this describes.
    pub region: Region,
    /// Total number of servers in the region.
    pub total_servers: usize,
    /// Servers currently running a job.
    pub busy_servers: usize,
    /// Jobs waiting in the region's queue (assigned but not yet started).
    pub queued_jobs: usize,
    /// Jobs currently in flight to this region (assigned, still transferring).
    pub inbound_jobs: usize,
}

impl RegionView {
    /// Remaining capacity usable by the scheduler this round: servers not
    /// busy and not already promised to queued or in-flight jobs.
    pub fn remaining_capacity(&self) -> usize {
        self.total_servers
            .saturating_sub(self.busy_servers + self.queued_jobs + self.inbound_jobs)
    }

    /// Current utilization of the region's servers (0–1).
    pub fn utilization(&self) -> f64 {
        if self.total_servers == 0 {
            0.0
        } else {
            self.busy_servers as f64 / self.total_servers as f64
        }
    }

    /// Total load committed to the region (running + queued + inbound) as a
    /// fraction of its servers — the signal the Least-Load baseline uses.
    pub fn committed_load(&self) -> f64 {
        if self.total_servers == 0 {
            f64::INFINITY
        } else {
            (self.busy_servers + self.queued_jobs + self.inbound_jobs) as f64
                / self.total_servers as f64
        }
    }
}

/// Mutable runtime state of one region inside the simulator.
#[derive(Debug, Clone)]
pub(crate) struct RegionRuntime {
    /// Which region this is.
    pub region: Region,
    /// Number of servers.
    pub servers: usize,
    /// Servers currently busy.
    pub busy: usize,
    /// Jobs currently in flight to this region.
    pub inbound: usize,
    /// FIFO queue of the in-flight slots of the jobs waiting for a free
    /// server.
    pub queue: VecDeque<usize>,
    /// Accumulated busy server-seconds (for utilization accounting).
    pub busy_server_seconds: f64,
    /// Time of the last busy-count change (for utilization accounting).
    pub last_update: f64,
}

impl RegionRuntime {
    pub fn new(region: Region, servers: usize) -> Self {
        Self {
            region,
            servers,
            busy: 0,
            inbound: 0,
            queue: VecDeque::new(),
            busy_server_seconds: 0.0,
            last_update: 0.0,
        }
    }

    /// Advance the utilization integral to `now`.
    pub fn advance_to(&mut self, now: f64) {
        if now > self.last_update {
            self.busy_server_seconds += self.busy as f64 * (now - self.last_update);
            self.last_update = now;
        }
    }

    /// Snapshot visible to schedulers.
    pub fn view(&self) -> RegionView {
        RegionView {
            region: self.region,
            total_servers: self.servers,
            busy_servers: self.busy,
            queued_jobs: self.queue.len(),
            inbound_jobs: self.inbound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remaining_capacity_accounts_for_commitments() {
        let v = RegionView {
            region: Region::Milan,
            total_servers: 10,
            busy_servers: 4,
            queued_jobs: 2,
            inbound_jobs: 1,
        };
        assert_eq!(v.remaining_capacity(), 3);
        assert!((v.utilization() - 0.4).abs() < 1e-12);
        assert!((v.committed_load() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn remaining_capacity_saturates_at_zero() {
        let v = RegionView {
            region: Region::Milan,
            total_servers: 2,
            busy_servers: 2,
            queued_jobs: 5,
            inbound_jobs: 0,
        };
        assert_eq!(v.remaining_capacity(), 0);
    }

    #[test]
    fn empty_region_has_infinite_committed_load() {
        let v = RegionView {
            region: Region::Milan,
            total_servers: 0,
            busy_servers: 0,
            queued_jobs: 0,
            inbound_jobs: 0,
        };
        assert!(v.committed_load().is_infinite());
        assert_eq!(v.utilization(), 0.0);
    }

    #[test]
    fn utilization_integral_advances() {
        let mut r = RegionRuntime::new(Region::Oregon, 4);
        r.busy = 2;
        r.advance_to(10.0);
        assert!((r.busy_server_seconds - 20.0).abs() < 1e-12);
        r.busy = 4;
        r.advance_to(15.0);
        assert!((r.busy_server_seconds - 40.0).abs() < 1e-12);
        // Advancing backwards is a no-op.
        r.advance_to(10.0);
        assert!((r.busy_server_seconds - 40.0).abs() < 1e-12);
    }
}
