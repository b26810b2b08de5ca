//! Cross-solve (and cross-campaign) solution caching.
//!
//! A [`SolutionCache`] is a map from a model's bits to its solution. It pays
//! where the same model is solved twice: re-running a sweep against a warmed
//! shared handle, repeating a campaign, or resuming a host from a snapshot
//! on disk ([`crate::persist`]).
//!
//! * Every model is reduced to a [`ModelFingerprint`]: one 64-bit FNV-1a
//!   hash over exactly what determines the solution — variable kinds and
//!   bounds, every row's sense, terms and right-hand side, the objective,
//!   and the solver configuration ([`solver_config_hash`]). Names are not
//!   hashed and nothing is rounded.
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
//! The cache is `Sync` and sharded: reads take a per-shard `RwLock` read
//! guard, so concurrent campaign workers probing different (or identical)
//! fingerprints do not serialize against each other. Share one handle across
//! a `run_matrix` sweep by attaching clones of a [`SolutionCacheHandle`] to
//! each worker's [`crate::SolverWorkspace`].

use crate::branch_bound::BranchBoundConfig;
use crate::model::{Direction, Model, Sense, VarKind};
use crate::simplex::{SimplexConfig, KERNEL_REVISION};
use crate::solution::{Solution, SolveStatus};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A cache shard: fingerprint → entry. A `BTreeMap` by the DET001
/// discipline — the capacity-eviction scan iterates the shard, and hash
/// order must never pick the victim (stamps break ties exactly, but the scan
/// order itself stays deterministic this way).
type Shard = BTreeMap<u64, CacheEntry>;

/// Read-lock a shard, recovering from poisoning. A poisoned shard only
/// means another thread panicked while holding the lock; entries are
/// inserted whole under the write guard, so the map is still structurally
/// sound and serving slightly-stale cache state beats propagating a panic
/// into every sibling campaign (DET003).
fn read_shard(lock: &RwLock<Shard>) -> RwLockReadGuard<'_, Shard> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-lock a shard, recovering from poisoning (see [`read_shard`]).
fn write_shard(lock: &RwLock<Shard>) -> RwLockWriteGuard<'_, Shard> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// A shareable, thread-safe handle to a [`SolutionCache`].
pub type SolutionCacheHandle = Arc<SolutionCache>;

/// Number of independently locked shards (power of two).
const SHARDS: usize = 16;

/// Default total entry capacity across all shards.
///
/// Sized from the observed shape of a persisted campaign sweep (the
/// `fig15`/`fig19` 3×3 tolerance-by-weight matrix at a quarter day): nine
/// cells of a few hundred slot models each occupy about three thousand
/// entries, so 4096 keeps a saved-and-reloaded sweep fully resident (a
/// snapshot of that size is a few hundred KiB on disk) while still bounding
/// a long-lived host.
const DEFAULT_CAPACITY: usize = 4096;

/// 64-bit FNV-1a, the workspace's dependency-free hash. Shared with the
/// persistence codec ([`crate::persist`]), whose content checksum must be
/// exactly this hash.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write_u8(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub(crate) fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.write_u8(byte);
        }
    }

    pub(crate) fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    pub(crate) fn write_f64(&mut self, value: f64) {
        // `to_bits` distinguishes -0.0 from 0.0 and every NaN payload: the
        // hash is exactly as strict as `f64` equality-of-bits.
        self.write_u64(value.to_bits());
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Hash of the solver configuration a solution is reproducible under: the
/// six simplex / branch-and-bound settings, then the kernel revision byte,
/// because "exact" is a claim about bits and a different kernel may round the
/// same optimum differently. It is the last word of every
/// [`ModelFingerprint`] and the gate [`SolutionCache::load`] checks a
/// snapshot against, so a solution stored under one configuration never
/// answers a lookup under another.
pub fn solver_config_hash(simplex: &SimplexConfig, bb: &BranchBoundConfig) -> u64 {
    let mut hash = Fnv::new();
    hash.write_usize(simplex.max_iterations);
    hash.write_f64(simplex.tolerance);
    hash.write_usize(simplex.stall_threshold);
    hash.write_usize(bb.max_nodes);
    hash.write_f64(bb.integrality_tolerance);
    hash.write_f64(bb.absolute_gap);
    hash.write_u8(KERNEL_REVISION);
    hash.finish()
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

        h.write_u64(solver_config_hash(simplex_config, bb_config));
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

    /// Fraction of lookups that hit; 0 when no lookup happened.
    pub fn hit_fraction(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.exact_hits as f64 / lookups as f64
        }
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

/// A deterministic, sharded model-fingerprint → solution cache.
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
    shards: Vec<RwLock<Shard>>,
    shard_capacity: usize,
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

    /// A cache holding at most `capacity` entries (rounded up to a multiple
    /// of the shard count; at least one entry per shard). The oldest entry
    /// of a full shard is evicted on insertion.
    pub fn with_capacity(capacity: usize) -> Self {
        let shard_capacity = capacity.div_ceil(SHARDS).max(1);
        Self {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::new())).collect(),
            shard_capacity,
            stamp: AtomicU64::new(0),
            exact_hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            insertions: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
        }
    }

    /// Wrap the cache into a shareable handle.
    pub fn into_handle(self) -> SolutionCacheHandle {
        Arc::new(self)
    }

    /// A fresh handle with the default capacity (the common constructor for
    /// sharing one cache across a campaign matrix).
    pub fn shared() -> SolutionCacheHandle {
        SolutionCache::new().into_handle()
    }

    fn shard(&self, fingerprint: u64) -> &RwLock<Shard> {
        &self.shards[(fingerprint as usize) & (SHARDS - 1)]
    }

    /// Probe the cache for the solution of a model with `num_vars`
    /// variables. Read-locks a single shard. A resident entry of any other
    /// length can only be a hash collision and is a miss.
    pub fn lookup(&self, fingerprint: ModelFingerprint, num_vars: usize) -> Option<Solution> {
        let solution = read_shard(self.shard(fingerprint.0))
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
    /// the oldest entry of a full shard was evicted to make room.
    pub fn insert(&self, fingerprint: ModelFingerprint, solution: &Solution) -> bool {
        let entry = CacheEntry {
            status: solution.status,
            objective: solution.objective,
            values: solution.values.clone(),
            stamp: self.stamp.fetch_add(1, Ordering::Relaxed),
        };
        let mut shard = write_shard(self.shard(fingerprint.0));
        // A bit-identical model re-solved refreshes in place, no eviction.
        let is_new = shard.insert(fingerprint.0, entry).is_none();
        let evicted = is_new && shard.len() > self.shard_capacity;
        if evicted {
            let oldest = shard.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k);
            if let Some(oldest) = oldest {
                shard.remove(&oldest);
            }
        }
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        evicted
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read_shard(s).len()).sum()
    }

    /// `true` when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of entries the cache can hold.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * SHARDS
    }

    /// Drop every cached entry (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            write_shard(shard).clear();
        }
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

    /// Flatten the cache into a deterministic entry stream for the
    /// persistence codec: shards in index order, fingerprints in ascending
    /// (`BTreeMap`) order within each shard. [`SolutionCache::import`]
    /// rebuilds exactly this layout, so export → import → export is
    /// byte-stable.
    pub(crate) fn export(&self) -> CacheExport {
        let mut entries = Vec::new();
        for shard in &self.shards {
            for (fingerprint, entry) in read_shard(shard).iter() {
                entries.push(ExportedEntry {
                    fingerprint: *fingerprint,
                    status: entry.status,
                    objective: entry.objective,
                    values: entry.values.clone(),
                    stamp: entry.stamp,
                });
            }
        }
        CacheExport {
            capacity: self.capacity(),
            next_stamp: self.stamp.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Rebuild a cache from an exported snapshot, or say what about the
    /// snapshot cannot be a cache: a repeated fingerprint, or a shard holding
    /// more entries than the declared capacity allows (which no sequence of
    /// [`Self::insert`]s produces, and which eviction — one entry per
    /// insertion — would never work off). Entries go straight into their
    /// shards, bypassing `insert`, so stored stamps survive verbatim and no
    /// insertion/eviction counters move. Usage counters start at zero: they
    /// describe *this process's* cache traffic, not the lifetime of the
    /// snapshot.
    pub(crate) fn import(export: CacheExport) -> Result<SolutionCache, String> {
        let cache = SolutionCache::with_capacity(export.capacity);
        for entry in export.entries {
            let mut shard = write_shard(cache.shard(entry.fingerprint));
            let repeated = shard.insert(
                entry.fingerprint,
                CacheEntry {
                    status: entry.status,
                    objective: entry.objective,
                    values: entry.values,
                    stamp: entry.stamp,
                },
            );
            if repeated.is_some() {
                return Err(format!(
                    "fingerprint {:#018x} is stored twice",
                    entry.fingerprint
                ));
            }
            if shard.len() > cache.shard_capacity {
                return Err(format!(
                    "more than {} entries in one shard of a cache declared to hold {}",
                    cache.shard_capacity, export.capacity
                ));
            }
        }
        cache.stamp.store(export.next_stamp, Ordering::Relaxed);
        Ok(cache)
    }
}

/// A flattened, order-stable snapshot of a cache's contents, the in-memory
/// side of the [`crate::persist`] codec.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CacheExport {
    /// Total capacity the cache was created with (already rounded to a
    /// multiple of the shard count by `with_capacity`, so reimporting with
    /// the same value reproduces the same shard capacity).
    pub(crate) capacity: usize,
    /// The stamp counter's next value; restoring it keeps recency-based
    /// eviction ordering consistent across a save/load cycle.
    pub(crate) next_stamp: u64,
    /// Every cached entry, in export order (see [`SolutionCache::export`]).
    pub(crate) entries: Vec<ExportedEntry>,
}

/// One cached solution, flattened for serialization.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ExportedEntry {
    /// Fingerprint of the model + solver configuration it solves.
    pub(crate) fingerprint: u64,
    /// Solve status of the stored solution.
    pub(crate) status: SolveStatus,
    /// Stored objective value.
    pub(crate) objective: f64,
    /// Stored variable values.
    pub(crate) values: Vec<f64>,
    /// Insertion stamp (recency order for eviction).
    pub(crate) stamp: u64,
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
    fn the_default_configuration_hash_is_pinned() {
        // Snapshots on disk carry this word: a reordered field list or a new
        // `KERNEL_REVISION` (4: the scheduler's transportation-form models)
        // moves it, and every existing snapshot then fails `ConfigMismatch`
        // — on purpose, acknowledged here. Last moved when the dual-restart
        // switch left `BranchBoundConfig` and its byte left the hash (was
        // 0x104d_ac94_b47f_ef05); the revision stayed at 4, since no snapshot
        // saved before that can load anyway.
        assert_eq!(KERNEL_REVISION, 4);
        assert_eq!(
            solver_config_hash(&SimplexConfig::default(), &BranchBoundConfig::default()),
            0xee27_2d88_4963_c57c
        );
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
        assert!((stats.hit_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn eviction_under_capacity_is_bounded_and_counted() {
        let cache = SolutionCache::with_capacity(SHARDS); // one entry per shard
        assert_eq!(cache.capacity(), SHARDS);
        let solution = solution_of(vec![1.0]);
        // Many distinct fingerprints; each shard keeps only its newest.
        for k in 0..(4 * SHARDS as u64) {
            cache.insert(ModelFingerprint(k), &solution);
        }
        assert_eq!(cache.len(), cache.capacity());
        let stats = cache.stats();
        assert_eq!(stats.insertions, 4 * SHARDS);
        assert_eq!(
            stats.evictions,
            3 * SHARDS,
            "each shard evicts its overflow"
        );
        assert_eq!(cache.lookup(ModelFingerprint(0), 1), None, "oldest went");
        // Re-inserting a resident fingerprint refreshes in place: no
        // eviction. A new one on the same (full) shard does evict.
        let last = 4 * SHARDS as u64 - 1;
        assert!(!cache.insert(ModelFingerprint(last), &solution));
        assert_eq!(cache.stats().evictions, 3 * SHARDS);
        assert!(cache.insert(ModelFingerprint(last + SHARDS as u64), &solution));
        assert_eq!(cache.len(), cache.capacity());
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = SolutionCache::new();
        cache.insert(ModelFingerprint(1), &solution_of(vec![]));
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().insertions, 1);
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
        assert_eq!(CacheStats::default().hit_fraction(), 0.0);
    }
}
