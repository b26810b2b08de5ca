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
//!   Fig. 14 overhead experiment and the scheduler's `SolveStats` report.

use crate::cache::{CacheStats, ModelFingerprint, SolutionCacheHandle};
use crate::solution::Solution;
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

impl WarmStats {
    /// Counters accumulated since `earlier` (both taken from the same
    /// workspace). Saturating: if the workspace was reset or replaced
    /// between the two snapshots, the delta clamps to zero instead of
    /// underflowing the campaign-level counters.
    pub fn delta_since(&self, earlier: &WarmStats) -> WarmStats {
        WarmStats {
            cold_solves: self.cold_solves.saturating_sub(earlier.cold_solves),
            warm_solves: self.warm_solves.saturating_sub(earlier.warm_solves),
            cold_pivots: self.cold_pivots.saturating_sub(earlier.cold_pivots),
            warm_pivots: self.warm_pivots.saturating_sub(earlier.warm_pivots),
            rejected_hints: self.rejected_hints.saturating_sub(earlier.rejected_hints),
        }
    }

    /// Mean pivots per cold solve (0 when no cold solve happened).
    pub fn mean_cold_pivots(&self) -> f64 {
        if self.cold_solves == 0 {
            0.0
        } else {
            self.cold_pivots as f64 / self.cold_solves as f64
        }
    }

    /// Mean pivots per warm solve (0 when no warm solve happened).
    pub fn mean_warm_pivots(&self) -> f64 {
        if self.warm_solves == 0 {
            0.0
        } else {
            self.warm_pivots as f64 / self.warm_solves as f64
        }
    }
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
/// assert!(workspace.cache().is_none());
/// ```
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    /// The tableau buffer of the last finished solve: a solve takes it and
    /// puts it back, and no two tableaus are ever alive at once.
    buffer: Vec<f64>,
    stats: WarmStats,
    /// Optional shared solution cache consulted by [`crate::Model::solve_warm`]
    /// before any cold/warm solving.
    cache: Option<SolutionCacheHandle>,
    /// This workspace's own view of its cache traffic (the shared cache also
    /// keeps aggregate counters across every workspace attached to it).
    cache_stats: CacheStats,
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

    /// Attach a (possibly shared) solution cache. Subsequent
    /// [`crate::Model::solve_warm`] calls consult it before solving and
    /// publish optimal solutions back into it.
    pub fn attach_cache(&mut self, cache: SolutionCacheHandle) {
        self.cache = Some(cache);
    }

    /// The attached solution cache, if any.
    pub fn cache(&self) -> Option<&SolutionCacheHandle> {
        self.cache.as_ref()
    }

    /// This workspace's cache hit/miss/eviction counters (all zero when no
    /// cache is attached).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_stats
    }

    /// Probe the attached cache for `fingerprint`, recording the outcome in
    /// this workspace's local counters. `None` without a cache attached.
    pub(crate) fn cache_lookup(
        &mut self,
        fingerprint: ModelFingerprint,
        num_vars: usize,
    ) -> Option<Solution> {
        let solution = self.cache.as_ref()?.lookup(fingerprint, num_vars);
        self.cache_stats.record_lookup(solution.is_some());
        solution
    }

    /// Publish a solution into the attached cache (no-op without one).
    pub(crate) fn cache_insert(&mut self, fingerprint: ModelFingerprint, solution: &Solution) {
        if let Some(cache) = &self.cache {
            let evicted = cache.insert(fingerprint, solution);
            self.cache_stats.record_insert(evicted);
        }
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

    #[test]
    fn stats_deltas_subtract_fieldwise() {
        let mut ws = SolverWorkspace::new();
        ws.record_solve(false, 10);
        let before = ws.stats();
        ws.record_solve(true, 3);
        ws.record_rejected_hint();
        let delta = ws.stats().delta_since(&before);
        assert_eq!(delta.warm_solves, 1);
        assert_eq!(delta.warm_pivots, 3);
        assert_eq!(delta.cold_solves, 0);
        assert_eq!(delta.rejected_hints, 1);
        assert!(ws.stats().mean_cold_pivots() > 9.9);
        assert!(ws.stats().mean_warm_pivots() < 3.1);
    }
}
