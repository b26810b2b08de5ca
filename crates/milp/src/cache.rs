//! Solution caching within one process.
//!
//! A [`SolutionCache`] is a map from a model's bits to its solution. It pays
//! where the same model is solved twice while one handle lives: a campaign
//! re-run against a handle its first run warmed.
//!
//! * Every model is reduced to a [`ModelFingerprint`]: one 64-bit FNV-1a
//!   hash over exactly what determines the solution — variable kinds and
//!   bounds, every row's sense, terms and right-hand side, the objective,
//!   and the six simplex / branch-and-bound settings. Names are not hashed
//!   and nothing is rounded.
//! * A lookup whose fingerprint is resident is a **hit**: the model and the
//!   configuration are bit-for-bit the ones that produced the stored
//!   optimum, so the stored solution *is* the solution and the solve is
//!   skipped. Anything else is a miss and the solve runs with whatever hint
//!   the caller brought — the cache offers none of its own.
//! * Collisions: at most 4 096 entries are resident by default, so a probe
//!   for a model that is *not* resident matches some entry's 64-bit hash
//!   with probability ≤ 4 096 / 2⁶⁴ ≈ 2·10⁻¹⁶; a stored solution of the
//!   wrong length is additionally refused (and counted as a miss).
//!
//! The cache is `Sync` behind one lock, so a [`SolutionCacheHandle`] can be
//! attached to any [`crate::SolverWorkspace`]; nothing contends for it on a
//! hot path.

use crate::branch_bound::BranchBoundConfig;
use crate::model::{Direction, Model, Sense, VarKind};
use crate::simplex::SimplexConfig;
use crate::solution::{Solution, SolveStatus};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A shareable, thread-safe handle to a [`SolutionCache`].
pub type SolutionCacheHandle = Arc<SolutionCache>;

/// Default entry capacity: a bound on a long-lived handle's memory (a few
/// hundred values an entry, so a few MiB when full). A campaign whose models
/// outnumber it replays, on a re-run, only what oldest-first eviction left.
const DEFAULT_CAPACITY: usize = 4096;

/// 64-bit FNV-1a, the workspace's dependency-free hash.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_u8(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.write_u8(byte);
        }
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    fn write_f64(&mut self, value: f64) {
        // `to_bits` distinguishes -0.0 from 0.0 and every NaN payload: the
        // hash is exactly as strict as `f64` equality-of-bits.
        self.write_u64(value.to_bits());
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// The fingerprint of a model + solver configuration: one hash over every
/// bit that determines the solution, and nothing else. Two models that differ
/// only in names share it; the caller maps values back to its own entities
/// by position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ModelFingerprint(pub u64);

impl ModelFingerprint {
    /// Fingerprint `model` as solved under the given configurations.
    pub fn of(
        model: &Model,
        simplex_config: &SimplexConfig,
        bb_config: &BranchBoundConfig,
    ) -> ModelFingerprint {
        let mut h = Fnv::new();
        let lp = model.lp();

        h.write_usize(model.num_vars());
        for (i, var) in model.vars().iter().enumerate() {
            h.write_u8(match var.kind {
                VarKind::Continuous => 0,
                VarKind::Integer => 1,
                VarKind::Binary => 2,
            });
            h.write_f64(lp.lower[i]);
            h.write_f64(lp.upper[i]);
        }

        h.write_usize(lp.constraints.len());
        for constraint in &lp.constraints {
            h.write_u8(match constraint.sense {
                Sense::LessEqual => 0,
                Sense::GreaterEqual => 1,
                Sense::Equal => 2,
            });
            h.write_usize(constraint.coeffs.len());
            for &(index, coeff) in &constraint.coeffs {
                h.write_usize(index);
                h.write_f64(coeff);
            }
            h.write_f64(constraint.rhs);
        }

        if let Some((direction, objective)) = model.objective() {
            h.write_u8(match direction {
                Direction::Minimize => 0,
                Direction::Maximize => 1,
            });
            h.write_usize(objective.len());
            for (index, coeff) in objective.iter_terms() {
                h.write_usize(index);
                h.write_f64(coeff);
            }
            h.write_f64(objective.constant_term());
        }

        // The configuration closes the hash, so a solution stored under one
        // configuration never answers a lookup under another.
        h.write_usize(simplex_config.max_iterations);
        h.write_f64(simplex_config.tolerance);
        h.write_usize(simplex_config.stall_threshold);
        h.write_usize(bb_config.max_nodes);
        h.write_f64(bb_config.integrality_tolerance);
        h.write_f64(bb_config.absolute_gap);
        ModelFingerprint(h.finish())
    }
}

/// Counters describing how a cache (or one workspace's view of it) was used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups whose fingerprint was resident: the stored solution was
    /// returned and the solve skipped entirely.
    pub exact_hits: usize,
    /// Lookups that found no (usable) entry for the fingerprint.
    pub misses: usize,
    /// Solutions written into the cache.
    pub insertions: usize,
    /// Entries displaced to make room for an insertion.
    pub evictions: usize,
}

impl CacheStats {
    /// Total lookups performed.
    pub fn lookups(&self) -> usize {
        self.exact_hits + self.misses
    }

    /// Counters accumulated since `earlier`. Saturating, so a reset or
    /// replaced counter source can never underflow the reported deltas.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            exact_hits: self.exact_hits.saturating_sub(earlier.exact_hits),
            misses: self.misses.saturating_sub(earlier.misses),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }

    pub(crate) fn record_lookup(&mut self, hit: bool) {
        if hit {
            self.exact_hits += 1;
        } else {
            self.misses += 1;
        }
    }

    pub(crate) fn record_insert(&mut self, evicted: bool) {
        self.insertions += 1;
        if evicted {
            self.evictions += 1;
        }
    }
}

#[derive(Debug, Clone)]
struct CacheEntry {
    status: SolveStatus,
    objective: f64,
    values: Vec<f64>,
    stamp: u64,
}

/// A deterministic model-fingerprint → solution cache.
///
/// Determinism guarantee: with the cache attached, schedules (solver
/// results) are byte-identical to cache-free solving. A hit returns the
/// stored solution of a bit-identical model + configuration; a miss solves
/// exactly as a cache-free workspace would (see [`crate::Model::solve_warm`]).
/// Only the amount of solver work — and therefore the statistics — depends
/// on the cache.
///
/// ```
/// use waterwise_milp::{
///     BranchBoundConfig, Model, Sense, SimplexConfig, SolutionCache, SolverWorkspace, VarKind,
/// };
///
/// let mut model = Model::new("cache-example");
/// let x = model.add_var("x", VarKind::Binary, 0.0, 1.0);
/// model.add_constraint("cap", x * 1.0, Sense::LessEqual, 1.0);
/// model.maximize(x * 3.0);
///
/// let cache = SolutionCache::shared();
/// let mut workspace = SolverWorkspace::new();
/// workspace.attach_cache(cache.clone());
/// let simplex = SimplexConfig::default();
/// let bb = BranchBoundConfig::default();
///
/// // First solve misses and publishes; re-solving the bit-identical model
/// // replays the stored optimum without any simplex work.
/// model.solve_warm(&simplex, &bb, None, &mut workspace).unwrap();
/// let replayed = model.solve_warm(&simplex, &bb, None, &mut workspace).unwrap();
/// assert_eq!(replayed.simplex_iterations, 0);
/// assert_eq!(cache.stats().exact_hits, 1);
/// ```
#[derive(Debug)]
pub struct SolutionCache {
    /// Fingerprint → entry. A `BTreeMap` by the DET001 discipline: the
    /// eviction scan iterates it, and hash order must never pick the victim
    /// (stamps break ties exactly, but the scan order stays deterministic
    /// this way).
    entries: Mutex<BTreeMap<u64, CacheEntry>>,
    capacity: usize,
    stamp: AtomicU64,
    exact_hits: AtomicUsize,
    misses: AtomicUsize,
    insertions: AtomicUsize,
    evictions: AtomicUsize,
}

impl Default for SolutionCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SolutionCache {
    /// A cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A cache holding at most `capacity` entries (at least one). The oldest
    /// entry is evicted when an insertion would exceed it.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            entries: Mutex::new(BTreeMap::new()),
            capacity: capacity.max(1),
            stamp: AtomicU64::new(0),
            exact_hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            insertions: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    /// A fresh handle with the default capacity.
    pub fn shared() -> SolutionCacheHandle {
        Arc::new(SolutionCache::new())
    }

    /// Lock the map, recovering from poisoning. A poisoned lock only means
    /// another thread panicked while holding it; entries are inserted whole,
    /// so the map is still structurally sound and serving slightly-stale
    /// cache state beats propagating the panic (DET003).
    fn entries(&self) -> MutexGuard<'_, BTreeMap<u64, CacheEntry>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Probe the cache for the solution of a model with `num_vars`
    /// variables. A resident entry of any other length can only be a hash
    /// collision and is a miss.
    pub fn lookup(&self, fingerprint: ModelFingerprint, num_vars: usize) -> Option<Solution> {
        let solution = self
            .entries()
            .get(&fingerprint.0)
            .filter(|entry| entry.values.len() == num_vars)
            .map(|entry| Solution {
                status: entry.status,
                objective: entry.objective,
                values: entry.values.clone(),
                simplex_iterations: 0,
                nodes_explored: 0,
            });
        let counter = if solution.is_some() {
            &self.exact_hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        solution
    }

    /// Store (or refresh) the solution for `fingerprint`. Returns `true` if
    /// the oldest entry was evicted to make room.
    pub fn insert(&self, fingerprint: ModelFingerprint, solution: &Solution) -> bool {
        let entry = CacheEntry {
            status: solution.status,
            objective: solution.objective,
            values: solution.values.clone(),
            stamp: self.stamp.fetch_add(1, Ordering::Relaxed),
        };
        let mut entries = self.entries();
        // A bit-identical model re-solved refreshes in place, no eviction.
        let is_new = entries.insert(fingerprint.0, entry).is_none();
        let evicted = is_new && entries.len() > self.capacity;
        if evicted {
            let oldest = entries.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k);
            if let Some(oldest) = oldest {
                entries.remove(&oldest);
            }
        }
        drop(entries);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        evicted
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// `true` when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of entries the cache can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Aggregate usage counters across every workspace sharing this cache.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            exact_hits: self.exact_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;

    fn assignment_model(objective_scale: f64, rhs: f64) -> Model {
        let mut m = Model::new("cache-test");
        let x = m.add_binary("x0");
        let y = m.add_binary("x1");
        m.add_constraint("pick", LinExpr::from(x) + y, Sense::Equal, 1.0);
        m.add_constraint("cap", LinExpr::from(x) * 2.0 + y, Sense::LessEqual, rhs);
        m.minimize(LinExpr::from(x) * objective_scale + LinExpr::from(y) * (2.0 * objective_scale));
        m
    }

    fn fingerprint(m: &Model) -> ModelFingerprint {
        ModelFingerprint::of(m, &SimplexConfig::default(), &BranchBoundConfig::default())
    }

    fn solution_of(values: Vec<f64>) -> Solution {
        Solution {
            status: SolveStatus::Optimal,
            objective: 0.0,
            values,
            simplex_iterations: 0,
            nodes_explored: 0,
        }
    }

    #[test]
    fn lookup_hits_the_resident_fingerprint_and_nothing_else() {
        let cache = SolutionCache::new();
        let model = assignment_model(1.0, 3.0);
        let fp = fingerprint(&model);
        assert_eq!(cache.lookup(fp, 2), None);

        let solution = model.solve().unwrap();
        cache.insert(fp, &solution);
        let stored = cache.lookup(fp, 2).expect("resident fingerprint");
        assert_eq!(stored.values, solution.values);
        assert_eq!(stored.status, solution.status);
        assert_eq!(stored.simplex_iterations, 0, "hits do no work");

        // Same shape, different objective or rhs: a different model.
        assert_eq!(
            cache.lookup(fingerprint(&assignment_model(5.0, 3.0)), 2),
            None
        );
        assert_eq!(
            cache.lookup(fingerprint(&assignment_model(1.0, 2.5)), 2),
            None
        );
        // A stored solution of the wrong length is a collision, not a hit.
        assert_eq!(cache.lookup(fp, 3), None);

        let stats = cache.stats();
        assert_eq!(
            (stats.exact_hits, stats.misses, stats.insertions),
            (1, 4, 1)
        );
    }

    #[test]
    fn eviction_under_capacity_is_bounded_and_counted() {
        const K: usize = 4;
        let cache = SolutionCache::with_capacity(K);
        assert_eq!(cache.capacity(), K);
        let solution = solution_of(vec![1.0]);
        // Four times the capacity in distinct fingerprints: the map keeps the
        // newest `K`, and every insertion past the first `K` evicts one.
        for k in 0..(4 * K as u64) {
            cache.insert(ModelFingerprint(k), &solution);
        }
        assert_eq!(cache.len(), K);
        let stats = cache.stats();
        assert_eq!(stats.insertions, 4 * K);
        assert_eq!(stats.evictions, 3 * K);
        for k in 0..(3 * K as u64) {
            assert_eq!(cache.lookup(ModelFingerprint(k), 1), None, "{k} is old");
        }
        assert!(cache.lookup(ModelFingerprint(3 * K as u64), 1).is_some());
        // Re-inserting a resident fingerprint refreshes in place: no
        // eviction. A new one into the full map does evict.
        let last = 4 * K as u64 - 1;
        assert!(!cache.insert(ModelFingerprint(last), &solution));
        assert_eq!(cache.stats().evictions, 3 * K);
        assert!(cache.insert(ModelFingerprint(last + 1), &solution));
        assert_eq!(cache.len(), K);
    }

    #[test]
    fn stats_deltas_saturate() {
        let later = CacheStats {
            exact_hits: 1,
            ..CacheStats::default()
        };
        let earlier = CacheStats {
            exact_hits: 5,
            misses: 2,
            ..CacheStats::default()
        };
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.exact_hits, 0, "reset counters must not underflow");
        assert_eq!(delta.misses, 0);
    }
}
