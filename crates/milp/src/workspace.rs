//! Reusable solver state for rolling-horizon (repeated) solves.
//!
//! A [`SolverWorkspace`] serves two purposes:
//!
//! * **Allocation reuse** — the dense simplex tableau is the dominant
//!   allocation of a solve; the workspace pools whole tableau buffers so a
//!   scheduler re-solving every slot does not pay a fresh `m × n` allocation
//!   per round.
//! * **Warm-start accounting** — every simplex run that goes through a
//!   workspace records whether it was warm-started (crash basis built from a
//!   prior solution, phase 1 skipped) or cold (two-phase from the all-slack
//!   basis), and how many pivots it spent. The cold-vs-warm split is what the
//!   Fig. 14 overhead experiment and the scheduler's `SolveStats` report.

use crate::cache::{CacheStats, ModelFingerprint, SolutionCacheHandle};
use crate::simplex::BasisSnapshot;
use crate::solution::Solution;
use serde::{Deserialize, Serialize};

/// Cold-vs-warm solve counters accumulated by a [`SolverWorkspace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmStats {
    /// Simplex runs performed without a usable warm-start hint.
    pub cold_solves: usize,
    /// Simplex runs that built a crash basis from a prior solution and
    /// skipped phase 1 entirely, plus dual restarts from a basis snapshot.
    pub warm_solves: usize,
    /// Pivots spent in cold runs (both phases). Runs whose hint was
    /// rejected count here too, *including* their wasted crash pivots —
    /// this bucket measures what non-warm solves actually cost, not what an
    /// ideal hint-free solver would have cost.
    pub cold_pivots: usize,
    /// Pivots spent in warm runs (crash pivots + phase 2, or dual-restart
    /// pivots for basis-snapshot restarts).
    pub warm_pivots: usize,
    /// Hints that were offered but rejected (crash basis could not eliminate
    /// the artificial variables, so the run fell back to a cold phase 1).
    pub rejected_hints: usize,
    /// Dual-simplex restarts *attempted* from a parent-node basis snapshot
    /// (branch & bound child nodes; see
    /// [`crate::simplex::solve_dual_from_snapshot`]).
    pub dual_restarts: usize,
    /// Dual restarts that ran to a definitive verdict without falling back
    /// to a cold solve. `dual_restarts - basis_reuse_hits` is the number of
    /// cold fallbacks (pivot cap hit or snapshot incompatible).
    pub basis_reuse_hits: usize,
    /// Variables whose bound moved across dual restarts — the sparse work a
    /// restart replays instead of a full re-solve.
    pub bound_flips: usize,
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
            dual_restarts: self.dual_restarts.saturating_sub(earlier.dual_restarts),
            basis_reuse_hits: self
                .basis_reuse_hits
                .saturating_sub(earlier.basis_reuse_hits),
            bound_flips: self.bound_flips.saturating_sub(earlier.bound_flips),
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
    /// Pool of tableau buffers returned by finished solves.
    buffer_pool: Vec<Vec<f64>>,
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

    /// Detach the solution cache, returning the handle if one was attached.
    pub fn detach_cache(&mut self) -> Option<SolutionCacheHandle> {
        self.cache.take()
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

    /// Take a tableau buffer of exactly `len` zeros from the pool (or
    /// allocate a fresh one).
    pub(crate) fn take_buffer(&mut self, len: usize) -> Vec<f64> {
        let mut buffer = self.buffer_pool.pop().unwrap_or_default();
        buffer.clear();
        buffer.resize(len, 0.0);
        buffer
    }

    /// Copy `source` into a pooled tableau buffer (or a fresh one).
    pub(crate) fn copy_buffer(&mut self, source: &[f64]) -> Vec<f64> {
        let mut buffer = self.buffer_pool.pop().unwrap_or_default();
        buffer.clear();
        buffer.extend_from_slice(source);
        buffer
    }

    /// Return a tableau buffer to the pool for the next solve.
    pub(crate) fn recycle_buffer(&mut self, buffer: Vec<f64>) {
        // Cap the pool so a burst of branch & bound snapshots doesn't pin
        // memory forever; a buffer that was moved out has nothing to keep.
        const MAX_POOLED_BUFFERS: usize = 8;
        if buffer.capacity() > 0 && self.buffer_pool.len() < MAX_POOLED_BUFFERS {
            self.buffer_pool.push(buffer);
        }
    }

    /// Return a finished [`BasisSnapshot`]'s tableau buffer to the pool.
    ///
    /// Branch & bound captures a snapshot per explored node and shares it
    /// with both children; once the last child has consumed it, recycling
    /// keeps the node's `m x n` tableau allocation alive for the next solve
    /// instead of dropping it.
    ///
    /// ```
    /// use waterwise_milp::{
    ///     solve_with_basis_capture, LpConstraint, LpProblem, Sense, SimplexConfig,
    ///     SolverWorkspace,
    /// };
    ///
    /// let problem = LpProblem {
    ///     num_vars: 1,
    ///     costs: vec![1.0],
    ///     lower: vec![0.0],
    ///     upper: vec![f64::INFINITY],
    ///     constraints: vec![LpConstraint {
    ///         coeffs: vec![(0, 1.0)],
    ///         sense: Sense::GreaterEqual,
    ///         rhs: 2.0,
    ///     }],
    /// };
    /// let mut ws = SolverWorkspace::new();
    /// let (_, snapshot) =
    ///     solve_with_basis_capture(&problem, &SimplexConfig::default(), None, Some(&mut ws));
    /// // The optimal basis was captured, so its tableau was *not* recycled...
    /// let snapshot = snapshot.expect("optimal solve captures a basis");
    /// assert_eq!(snapshot.rows(), 1, "one row per constraint, none per bound");
    /// assert_eq!(ws.pooled_buffers(), 0);
    /// // ...until the snapshot is explicitly returned to the pool.
    /// ws.recycle_snapshot(snapshot);
    /// assert_eq!(ws.pooled_buffers(), 1);
    /// ```
    pub fn recycle_snapshot(&mut self, snapshot: BasisSnapshot) {
        self.recycle_buffer(snapshot.into_buffer());
    }

    /// Number of pooled tableau buffers (exposed for tests).
    pub fn pooled_buffers(&self) -> usize {
        self.buffer_pool.len()
    }

    pub(crate) fn record_dual_restart(&mut self, reused: bool, bound_flips: usize) {
        self.stats.dual_restarts += 1;
        if reused {
            self.stats.basis_reuse_hits += 1;
        }
        self.stats.bound_flips += bound_flips;
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
        let copy = ws.copy_buffer(&[1.0, 2.0]);
        assert_eq!(copy, vec![1.0, 2.0]);
        ws.recycle_buffer(copy);
        let buffer = ws.take_buffer(6);
        assert_eq!(buffer, vec![0.0; 6]);
        assert_eq!(ws.pooled_buffers(), 0);
        // A buffer that was moved out (no allocation) is not worth pooling.
        ws.recycle_buffer(Vec::new());
        assert_eq!(ws.pooled_buffers(), 0);
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

    #[test]
    fn dual_restart_counters_accumulate_and_saturate() {
        let mut ws = SolverWorkspace::new();
        ws.record_dual_restart(true, 3);
        let before = ws.stats();
        ws.record_dual_restart(false, 2);
        ws.record_dual_restart(true, 0);
        let delta = ws.stats().delta_since(&before);
        assert_eq!(delta.dual_restarts, 2);
        assert_eq!(delta.basis_reuse_hits, 1);
        assert_eq!(delta.bound_flips, 2);
        // Saturating: a reset workspace never underflows campaign counters.
        let fresh = WarmStats::default().delta_since(&ws.stats());
        assert_eq!(fresh.dual_restarts, 0);
        assert_eq!(fresh.basis_reuse_hits, 0);
        assert_eq!(fresh.bound_flips, 0);
    }
}
