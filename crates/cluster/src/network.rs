//! Inter-region transfer model: latency, bandwidth, and the energy (and
//! hence carbon/water) cost of moving a job package between regions.
//!
//! The paper transfers compressed `.tar` execution packages over SCP between
//! AWS regions on 25 Gbps NICs; the effective WAN throughput between
//! continents is far lower. Table 3 reports the resulting communication
//! overhead as a fraction of execution carbon/water, which this model
//! reproduces: the overhead is dominated by transfer latency and is a
//! fraction of a percent of the execution footprint.

use serde::{Deserialize, Serialize};
use waterwise_sustain::{KilowattHours, Seconds};
use waterwise_telemetry::Region;

/// Transfer model between the five regions.
///
/// ```
/// use waterwise_cluster::TransferModel;
/// use waterwise_telemetry::Region;
///
/// let model = TransferModel::paper_default();
/// // Same-region "transfers" are free; real hops pay setup + latency +
/// // bandwidth.
/// assert_eq!(model.transfer_time(Region::Oregon, Region::Oregon, 1 << 30).value(), 0.0);
/// assert!(model.transfer_time(Region::Oregon, Region::Mumbai, 1 << 30).value() > 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferModel {
    /// One-way network latency between region pairs (seconds), symmetric.
    rtt: [[f64; 5]; 5],
    /// Effective inter-region throughput in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Marginal energy consumed by the network path per byte transferred
    /// (kWh/byte). The paper attributes only a fraction of a percent of the
    /// execution footprint to communication (Table 3), which corresponds to
    /// the *marginal* energy of pushing packets through already-powered
    /// equipment (~0.2 Wh/GB), not the amortized total network energy.
    pub energy_per_byte_kwh: f64,
    /// Fixed per-transfer protocol overhead (seconds) covering SCP session
    /// setup and packaging.
    pub setup_overhead: f64,
}

impl Default for TransferModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl TransferModel {
    /// The default model calibrated to inter-continental AWS paths.
    pub fn paper_default() -> Self {
        // One-way latencies in milliseconds, roughly proportional to
        // geographic distance between the five AWS regions.
        const MS: [[f64; 5]; 5] = [
            // Zurich  Madrid  Oregon  Milan   Mumbai
            [0.0, 17.0, 75.0, 8.0, 55.0],   // Zurich
            [17.0, 0.0, 80.0, 15.0, 65.0],  // Madrid
            [75.0, 80.0, 0.0, 78.0, 110.0], // Oregon
            [8.0, 15.0, 78.0, 0.0, 50.0],   // Milan
            [55.0, 65.0, 110.0, 50.0, 0.0], // Mumbai
        ];
        let mut rtt = [[0.0; 5]; 5];
        for (i, row) in MS.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                rtt[i][j] = v / 1000.0;
            }
        }
        Self {
            rtt,
            // ~1.2 Gbps effective cross-region throughput.
            bandwidth_bytes_per_sec: 150.0 * 1024.0 * 1024.0,
            energy_per_byte_kwh: 0.0002 / 1.0e9,
            setup_overhead: 1.5,
        }
    }

    /// One-way latency between two regions.
    pub fn latency(&self, from: Region, to: Region) -> Seconds {
        Seconds::new(self.rtt[from.index()][to.index()])
    }

    /// Total time to move a package of `bytes` from `from` to `to`
    /// (zero if the regions are the same): the pair's
    /// [`TransferModel::fixed_transfer_time`] plus the package's
    /// [`TransferModel::wire_time`].
    pub fn transfer_time(&self, from: Region, to: Region, bytes: u64) -> Seconds {
        match self.fixed_transfer_time(from, to) {
            Some(fixed) => Seconds::new(fixed.value() + self.wire_time(bytes).value()),
            None => Seconds::zero(),
        }
    }

    /// The part of a transfer from `from` to `to` that no package changes:
    /// setup plus one-way latency. `None` within a region, where nothing
    /// moves. A caller timing many packages over the same pairs computes it
    /// once per pair and adds each package's [`TransferModel::wire_time`]:
    /// the sum is [`TransferModel::transfer_time`]'s, to the bit.
    pub fn fixed_transfer_time(&self, from: Region, to: Region) -> Option<Seconds> {
        (from != to).then(|| Seconds::new(self.setup_overhead + self.rtt[from.index()][to.index()]))
    }

    /// The time `bytes` take on the wire between two distinct regions; it
    /// depends on the package alone.
    pub fn wire_time(&self, bytes: u64) -> Seconds {
        Seconds::new(bytes as f64 / self.bandwidth_bytes_per_sec)
    }

    /// Energy consumed by transferring `bytes` between distinct regions.
    pub fn transfer_energy(&self, from: Region, to: Region, bytes: u64) -> KilowattHours {
        if from == to {
            return KilowattHours::zero();
        }
        KilowattHours::new(bytes as f64 * self.energy_per_byte_kwh)
    }

    /// The average transfer time from `from` to every *other* region for a
    /// package of `bytes` — the `L_avg` term of the slack manager's urgency
    /// score (Eq. 14).
    pub fn average_transfer_time(&self, from: Region, bytes: u64, regions: &[Region]) -> Seconds {
        // Counted, then summed over the same filter in the same order: called
        // once per pending job in every truncated round, it must not allocate.
        let others = || regions.iter().filter(|r| **r != from);
        let count = others().count();
        if count == 0 {
            return Seconds::zero();
        }
        let total: f64 = others()
            .map(|r| self.transfer_time(from, *r, bytes).value())
            .sum();
        Seconds::new(total / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waterwise_telemetry::ALL_REGIONS;

    #[test]
    fn same_region_transfer_is_free() {
        let m = TransferModel::paper_default();
        assert_eq!(
            m.transfer_time(Region::Oregon, Region::Oregon, 1 << 30)
                .value(),
            0.0
        );
        assert_eq!(
            m.transfer_energy(Region::Oregon, Region::Oregon, 1 << 30)
                .value(),
            0.0
        );
    }

    #[test]
    fn transfer_time_is_the_fixed_part_plus_the_wire_time() {
        let m = TransferModel::paper_default();
        for from in ALL_REGIONS {
            for to in ALL_REGIONS {
                for bytes in [0, 1, 200 << 20, 1 << 40, u64::MAX] {
                    let whole = m.transfer_time(from, to, bytes).value();
                    let split = match m.fixed_transfer_time(from, to) {
                        Some(fixed) => fixed.value() + m.wire_time(bytes).value(),
                        None => 0.0,
                    };
                    assert_eq!(whole.to_bits(), split.to_bits(), "{from} → {to}, {bytes} B");
                    // The sum the model always took: setup + latency + wire.
                    let literal = if from == to {
                        0.0
                    } else {
                        m.setup_overhead
                            + m.latency(from, to).value()
                            + bytes as f64 / m.bandwidth_bytes_per_sec
                    };
                    assert_eq!(whole.to_bits(), literal.to_bits());
                }
            }
        }
    }

    #[test]
    fn latency_matrix_is_symmetric_with_zero_diagonal() {
        let m = TransferModel::paper_default();
        for a in ALL_REGIONS {
            assert_eq!(m.latency(a, a).value(), 0.0);
            for b in ALL_REGIONS {
                assert_eq!(m.latency(a, b).value(), m.latency(b, a).value());
            }
        }
    }

    #[test]
    fn bigger_packages_take_longer() {
        let m = TransferModel::paper_default();
        let small = m.transfer_time(Region::Oregon, Region::Zurich, 100 << 20);
        let large = m.transfer_time(Region::Oregon, Region::Zurich, 1 << 30);
        assert!(large.value() > small.value());
    }

    #[test]
    fn oregon_to_mumbai_is_the_longest_hop_from_oregon() {
        let m = TransferModel::paper_default();
        let bytes = 500 << 20;
        let to_mumbai = m
            .transfer_time(Region::Oregon, Region::Mumbai, bytes)
            .value();
        for r in [Region::Zurich, Region::Madrid, Region::Milan] {
            assert!(to_mumbai >= m.transfer_time(Region::Oregon, r, bytes).value());
        }
    }

    #[test]
    fn transfer_is_fast_relative_to_job_execution() {
        // Table 3 / Sec. 6: communication overhead is a small fraction of the
        // execution footprint; a ~500 MB package must move in well under the
        // shortest job's execution time (~200 s).
        let m = TransferModel::paper_default();
        let t = m
            .transfer_time(Region::Oregon, Region::Mumbai, 500 << 20)
            .value();
        assert!(t < 60.0, "transfer takes {t}s");
        assert!(t > 1.0);
    }

    #[test]
    fn transfer_energy_is_small_but_positive() {
        let m = TransferModel::paper_default();
        let e = m
            .transfer_energy(Region::Oregon, Region::Zurich, 1 << 30)
            .value();
        // ~0.2 Wh/GB marginal energy.
        assert!(e > 1e-5 && e < 1e-3, "energy {e}");
    }

    #[test]
    fn average_transfer_time_excludes_self() {
        let m = TransferModel::paper_default();
        let avg = m
            .average_transfer_time(Region::Oregon, 200 << 20, &ALL_REGIONS)
            .value();
        assert!(avg > 0.0);
        let only_self = m.average_transfer_time(Region::Oregon, 200 << 20, &[Region::Oregon]);
        assert_eq!(only_self.value(), 0.0);
        // The mean over the other regions in list order, to the bit — whether
        // or not the home region is in the list.
        for regions in [&ALL_REGIONS[..], &ALL_REGIONS[..2], &ALL_REGIONS[3..]] {
            let others: Vec<f64> = regions
                .iter()
                .filter(|r| **r != Region::Oregon)
                .map(|r| m.transfer_time(Region::Oregon, *r, 200 << 20).value())
                .collect();
            let reference = others.iter().sum::<f64>() / others.len() as f64;
            let avg = m.average_transfer_time(Region::Oregon, 200 << 20, regions);
            assert_eq!(avg.value().to_bits(), reference.to_bits());
        }
    }
}
