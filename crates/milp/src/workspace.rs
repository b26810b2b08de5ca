//! Reusable solver state for rolling-horizon (repeated) solves.
//!
//! A [`SolverWorkspace`] serves two purposes:
//!
//! * **Allocation reuse** — the dense simplex tableau is the dominant
//!   allocation of a solve; the workspace keeps the last one so a scheduler
//!   re-solving every slot does not pay a fresh `m × n` allocation per
//!   round.
//! * **Warm-start accounting** — every simplex run that goes through a
//!   workspace records whether it was warm-started (crash basis built from a
//!   prior solution, phase 1 skipped) or cold (two-phase from the all-slack
//!   basis), and how many pivots it spent. The cold-vs-warm split is what the
//!   scheduler's `SolveStats` reports.

use serde::{Deserialize, Serialize};

/// Cold-vs-warm solve counters accumulated by a [`SolverWorkspace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmStats {
    /// Simplex runs performed without a usable warm-start hint.
    pub cold_solves: usize,
    /// Simplex runs that built a crash basis from a prior solution and
    /// skipped phase 1 entirely.
    pub warm_solves: usize,
    /// Pivots spent in cold runs (both phases). Runs whose hint was
    /// rejected count here too, *including* their wasted crash pivots —
    /// this bucket measures what non-warm solves actually cost, not what an
    /// ideal hint-free solver would have cost.
    pub cold_pivots: usize,
    /// Pivots spent in warm runs (crash pivots + phase 2).
    pub warm_pivots: usize,
    /// Hints that were offered but rejected (crash basis could not eliminate
    /// the artificial variables, so the run fell back to a cold phase 1).
    pub rejected_hints: usize,
}

/// Reusable allocations plus warm-start statistics shared across solves.
///
/// Create one per scheduler (or per thread) and pass it to
/// [`crate::Model::solve_warm`]; the workspace is deliberately not `Sync` —
/// concurrent campaigns each carry their own.
///
/// ```
/// use waterwise_milp::SolverWorkspace;
///
/// let workspace = SolverWorkspace::new();
/// assert_eq!(workspace.stats().cold_solves, 0);
/// ```
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    /// The tableau buffer of the last finished solve: a solve takes it and
    /// puts it back, and no two tableaus are ever alive at once.
    buffer: Vec<f64>,
    stats: WarmStats,
}

impl SolverWorkspace {
    /// An empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulated cold/warm statistics.
    pub fn stats(&self) -> WarmStats {
        self.stats
    }

    /// Take the tableau buffer as exactly `len` zeros (allocating only when
    /// it has never held as many).
    pub(crate) fn take_buffer(&mut self, len: usize) -> Vec<f64> {
        let mut buffer = std::mem::take(&mut self.buffer);
        buffer.clear();
        buffer.resize(len, 0.0);
        buffer
    }

    /// Put a finished solve's tableau buffer back for the next solve.
    pub(crate) fn recycle_buffer(&mut self, buffer: Vec<f64>) {
        self.buffer = buffer;
    }

    /// Number of tableau buffers held between solves, 0 or 1 (exposed for
    /// tests).
    pub fn pooled_buffers(&self) -> usize {
        usize::from(self.buffer.capacity() > 0)
    }

    pub(crate) fn record_solve(&mut self, warm: bool, pivots: usize) {
        if warm {
            self.stats.warm_solves += 1;
            self.stats.warm_pivots += pivots;
        } else {
            self.stats.cold_solves += 1;
            self.stats.cold_pivots += pivots;
        }
    }

    pub(crate) fn record_rejected_hint(&mut self) {
        self.stats.rejected_hints += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_recycled_and_zeroed() {
        let mut ws = SolverWorkspace::new();
        let mut buffer = ws.take_buffer(4);
        buffer[2] = 7.0;
        ws.recycle_buffer(buffer);
        assert_eq!(ws.pooled_buffers(), 1);
        let buffer = ws.take_buffer(6);
        assert_eq!(buffer, vec![0.0; 6]);
        assert_eq!(ws.pooled_buffers(), 0, "the buffer is out with the solve");
    }
}
