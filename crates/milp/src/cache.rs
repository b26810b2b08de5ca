//! Cross-solve (and cross-campaign) solution caching.
//!
//! The WaterWise scheduler re-solves a near-identical assignment MILP every
//! scheduling slot, and campaign sweeps (`run_matrix`) re-solve the *same*
//! slot models across neighboring configuration cells — adjacent delay
//! tolerances or objective weights leave the model *structure* (variables,
//! constraint sparsity, senses, latency-ratio coefficients) untouched and
//! only move the objective coefficients and right-hand sides. A
//! [`SolutionCache`] exploits that:
//!
//! * Every model is reduced to a [`ModelFingerprint`] with two components:
//!   a **structural key** (model, variable and constraint names — whichever
//!   of them the builder gave; the scheduler names its model and its
//!   `assign_{job}` / `cap_{region}` rows — kinds, bounds, senses, sparsity
//!   pattern, and *quantized* constraint coefficients) and
//!   an **exact hash** covering every coefficient bit, right-hand side, the
//!   objective, and the solver configuration.
//! * The cache maps structural keys to a small bucket of recently solved
//!   variants (one per exact hash), so a sweep's neighboring cells — which
//!   share the key but differ in objective/rhs data — can coexist instead
//!   of overwriting each other.
//! * A lookup whose exact hash matches the stored one is an **exact hit**:
//!   the model (and solver configuration) is bit-for-bit the one that
//!   produced the stored optimum, so the stored solution *is* the solution
//!   and the solve is skipped entirely.
//! * A lookup that matches only the structural key is a **hint hit**: the
//!   stored values are offered to the solver as a warm-start hint. Hints are
//!   advisory by construction — [`crate::branch_bound::solve_warm`] validates
//!   them against the current model and only ever uses them to seed a bound
//!   and crash a basis — so a stale or mismatched entry can cost pivots but
//!   never change the returned optimum. (As with any warm start, an *exact*
//!   objective tie between two optimal vertices may resolve toward the
//!   hinted one; models with continuous real-world coefficients do not tie
//!   exactly.)
//!
//! The cache is `Sync` and sharded: reads take a per-shard `RwLock` read
//! guard, so concurrent campaign workers probing different (or identical)
//! keys do not serialize against each other. Share one handle across a
//! `run_matrix` sweep by attaching clones of a [`SolutionCacheHandle`] to
//! each worker's [`crate::SolverWorkspace`].

use crate::branch_bound::BranchBoundConfig;
use crate::model::{Direction, Model, Sense, VarKind};
use crate::simplex::SimplexConfig;
use crate::solution::{Solution, SolveStatus};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A cache shard: fingerprint key → exact-variant bucket. A `BTreeMap` by
/// the DET001 discipline — the capacity-eviction scan iterates the shard,
/// and hash order must never pick the victim (stamps break ties exactly,
/// but the scan order itself stays deterministic this way).
type Shard = BTreeMap<u64, Vec<CacheEntry>>;

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
/// `fig15`/`fig19` 3×3 tolerance-by-weight matrix at a quarter day): each
/// cell re-solves the same few dozen structural keys, and the nine cells
/// write up to nine exact variants per key, so a full sweep occupies on the
/// order of several hundred entries. The previous 1024-entry default left a
/// warmed snapshot evicting its own tail once two sweeps shared a handle;
/// 4096 keeps a saved-and-reloaded sweep fully resident (a snapshot of that
/// size is a few hundred KiB on disk) while still bounding a long-lived
/// host.
const DEFAULT_CAPACITY: usize = 4096;

/// Maximum exact-hash variants retained per structural key. Sized to cover a
/// typical sweep axis (a 3×3 weight/tolerance matrix writes nine variants
/// per key) with headroom — which is also what makes a persisted snapshot
/// useful: every axis cell of the saved sweep reloads as an exact hit
/// instead of only the most recent one. The oldest variant is evicted
/// beyond this.
pub const VARIANTS_PER_KEY: usize = 16;

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

    pub(crate) fn write_i64(&mut self, value: i64) {
        self.write_u64(value as u64);
    }

    pub(crate) fn write_f64(&mut self, value: f64) {
        // `to_bits` distinguishes -0.0 from 0.0 and every NaN payload; exact
        // hashes must be exactly as strict as `f64` equality-of-bits.
        self.write_u64(value.to_bits());
    }

    pub(crate) fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        for byte in s.as_bytes() {
            self.write_u8(*byte);
        }
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Quantize a coefficient onto a coarse grid (2⁻¹² ≈ 2.4e-4 resolution) for
/// the structural key, so telemetry-scale drift between near-identical
/// models does not fragment the key space. Non-finite values map to
/// sentinels.
fn quantize(value: f64) -> i64 {
    if value.is_nan() {
        return i64::MIN + 1;
    }
    if value == f64::INFINITY {
        return i64::MAX;
    }
    if value == f64::NEG_INFINITY {
        return i64::MIN;
    }
    let scaled = (value * 4096.0).round();
    if scaled >= (i64::MAX - 2) as f64 {
        i64::MAX - 1
    } else if scaled <= (i64::MIN + 2) as f64 {
        i64::MIN + 2
    } else {
        scaled as i64
    }
}

/// The canonical fingerprint of a model + solver configuration.
///
/// `key` addresses the cache (structure + quantized constraint
/// coefficients; objective values and right-hand sides excluded so sweeps
/// over weights/tolerances collide on purpose). `exact` covers every bit of
/// the model and the solver configuration; only an `exact` match allows the
/// stored solution to be trusted as *the* solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ModelFingerprint {
    /// Structural cache key (see type-level docs).
    pub key: u64,
    /// Exact content hash of the full model and solver configuration.
    pub exact: u64,
}

/// The two hashes of a fingerprint under construction.
struct Hashes {
    key: Fnv,
    exact: Fnv,
}

impl Hashes {
    /// Structure: goes into both hashes.
    fn structure(&mut self, write: impl Fn(&mut Fnv)) {
        write(&mut self.key);
        write(&mut self.exact);
    }

    /// Structure up to quantization: coarse in the key, every bit in the
    /// exact hash.
    fn coefficient(&mut self, value: f64) {
        self.key.write_i64(quantize(value));
        self.exact.write_f64(value);
    }
}

impl ModelFingerprint {
    /// Fingerprint `model` as solved under the given configurations.
    pub fn of(
        model: &Model,
        simplex_config: &SimplexConfig,
        bb_config: &BranchBoundConfig,
    ) -> ModelFingerprint {
        let mut h = Hashes {
            key: Fnv::new(),
            exact: Fnv::new(),
        };
        let lp = model.lp();

        h.structure(|f| f.write_str(&model.name));
        h.structure(|f| f.write_usize(model.num_vars()));
        for (i, var) in model.vars().iter().enumerate() {
            let kind = match var.kind {
                VarKind::Continuous => 0u8,
                VarKind::Integer => 1,
                VarKind::Binary => 2,
            };
            h.structure(|f| f.write_str(&var.name));
            h.structure(|f| f.write_u8(kind));
            h.coefficient(lp.lower[i]);
            h.coefficient(lp.upper[i]);
        }

        h.structure(|f| f.write_usize(model.num_constraints()));
        for (constraint, name) in lp.constraints.iter().zip(model.constraint_names()) {
            let sense = match constraint.sense {
                Sense::LessEqual => 0u8,
                Sense::GreaterEqual => 1,
                Sense::Equal => 2,
            };
            h.structure(|f| f.write_str(name));
            h.structure(|f| f.write_u8(sense));
            h.structure(|f| f.write_usize(constraint.coeffs.len()));
            for &(index, coeff) in &constraint.coeffs {
                h.structure(|f| f.write_usize(index));
                h.coefficient(coeff);
            }
            // The rhs (the expression's constant folded in) belongs to the
            // varying "data" half of the model: exact hash only.
            h.exact.write_f64(constraint.rhs);
        }

        if let Some((direction, objective)) = model.objective() {
            let dir = match direction {
                Direction::Minimize => 0u8,
                Direction::Maximize => 1,
            };
            h.structure(|f| f.write_u8(dir));
            h.structure(|f| f.write_usize(objective.len()));
            for (index, coeff) in objective.iter_terms() {
                // Objective *sparsity* is structure; the coefficient values
                // are what weight sweeps change, so they stay exact-only.
                h.structure(|f| f.write_usize(index));
                h.exact.write_f64(coeff);
            }
            h.exact.write_f64(objective.constant_term());
        }

        // A stored solution is only bit-reproducible under the same solver
        // configuration, so the configs are part of the exact hash.
        h.exact.write_usize(simplex_config.max_iterations);
        h.exact.write_f64(simplex_config.tolerance);
        h.exact.write_usize(simplex_config.stall_threshold);
        h.exact.write_usize(bb_config.max_nodes);
        h.exact.write_f64(bb_config.integrality_tolerance);
        h.exact.write_f64(bb_config.absolute_gap);
        h.exact.write_u8(bb_config.use_dual_restart as u8);

        ModelFingerprint {
            key: h.key.finish(),
            exact: h.exact.finish(),
        }
    }
}

/// Counters describing how a cache (or one workspace's view of it) was used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups whose exact hash matched: the stored solution was returned
    /// and the solve skipped entirely.
    pub exact_hits: usize,
    /// Lookups that matched the structural key only: the stored values were
    /// offered to the solver as a warm-start hint.
    pub hint_hits: usize,
    /// Lookups that found no entry for the structural key.
    pub misses: usize,
    /// Solutions written into the cache.
    pub insertions: usize,
    /// Entries displaced to make room for an insertion.
    pub evictions: usize,
}

impl CacheStats {
    /// Total lookups performed.
    pub fn lookups(&self) -> usize {
        self.exact_hits + self.hint_hits + self.misses
    }

    /// Fraction of lookups that hit (exact or hint); 0 when no lookup
    /// happened.
    pub fn hit_fraction(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            (self.exact_hits + self.hint_hits) as f64 / lookups as f64
        }
    }

    /// Counters accumulated since `earlier`. Saturating, so a reset or
    /// replaced counter source can never underflow the reported deltas.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            exact_hits: self.exact_hits.saturating_sub(earlier.exact_hits),
            hint_hits: self.hint_hits.saturating_sub(earlier.hint_hits),
            misses: self.misses.saturating_sub(earlier.misses),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }

    pub(crate) fn record_lookup(&mut self, lookup: &CacheLookup) {
        match lookup {
            CacheLookup::Exact(_) => self.exact_hits += 1,
            CacheLookup::Hint(_) => self.hint_hits += 1,
            CacheLookup::Miss => self.misses += 1,
        }
    }

    pub(crate) fn record_insert(&mut self, evicted: bool) {
        self.insertions += 1;
        if evicted {
            self.evictions += 1;
        }
    }
}

/// The outcome of one cache probe.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// Exact fingerprint match: this *is* the solution of the probed model.
    Exact(Solution),
    /// Structural match only: prior incumbent values, usable as a warm-start
    /// hint but not as a solution.
    Hint(Vec<f64>),
    /// No entry under the structural key.
    Miss,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    exact: u64,
    status: SolveStatus,
    objective: f64,
    values: Vec<f64>,
    stamp: u64,
}

/// A deterministic, sharded model-fingerprint → incumbent-solution cache.
///
/// Each structural key holds up to [`VARIANTS_PER_KEY`] recently solved
/// exact variants; a lookup returns the variant whose exact hash matches
/// (exact hit) or the most recently stored variant's values as a hint.
///
/// Determinism guarantee: with the cache attached, schedules (solver
/// results) are byte-identical to cache-free solving. Exact hits return the
/// stored solution of a bit-identical model + configuration, and hint hits
/// only warm-start the solver, which is hint-invariant for solves that run
/// to optimality (see [`crate::Model::solve_warm`]). Only the amount of
/// solver work — and therefore the statistics — depends on the cache.
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
    hint_hits: AtomicUsize,
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
            hint_hits: AtomicUsize::new(0),
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

    fn shard(&self, key: u64) -> &RwLock<Shard> {
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Probe the cache. Read-locks a single shard.
    pub fn lookup(&self, fingerprint: ModelFingerprint) -> CacheLookup {
        let shard = read_shard(self.shard(fingerprint.key));
        let result = match shard.get(&fingerprint.key) {
            Some(bucket) => {
                if let Some(entry) = bucket.iter().find(|e| e.exact == fingerprint.exact) {
                    CacheLookup::Exact(Solution {
                        status: entry.status,
                        objective: entry.objective,
                        values: entry.values.clone(),
                        simplex_iterations: 0,
                        nodes_explored: 0,
                    })
                } else if let Some(latest) = bucket.iter().max_by_key(|e| e.stamp) {
                    CacheLookup::Hint(latest.values.clone())
                } else {
                    CacheLookup::Miss
                }
            }
            None => CacheLookup::Miss,
        };
        match &result {
            CacheLookup::Exact(_) => self.exact_hits.fetch_add(1, Ordering::Relaxed),
            CacheLookup::Hint(_) => self.hint_hits.fetch_add(1, Ordering::Relaxed),
            CacheLookup::Miss => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Store (or refresh) the incumbent solution for `fingerprint`. Returns
    /// `true` if an unrelated entry was evicted to make room (per-key
    /// variant overflow or shard capacity).
    pub fn insert(&self, fingerprint: ModelFingerprint, solution: &Solution) -> bool {
        let stamp = self.stamp.fetch_add(1, Ordering::Relaxed);
        let entry = CacheEntry {
            exact: fingerprint.exact,
            status: solution.status,
            objective: solution.objective,
            values: solution.values.clone(),
            stamp,
        };
        let mut shard = write_shard(self.shard(fingerprint.key));
        let mut evicted = false;
        let bucket = shard.entry(fingerprint.key).or_default();
        if let Some(existing) = bucket.iter_mut().find(|e| e.exact == fingerprint.exact) {
            // Bit-identical model re-solved: refresh in place, no eviction.
            *existing = entry;
        } else {
            bucket.push(entry);
            if bucket.len() > VARIANTS_PER_KEY {
                if let Some(oldest) = bucket
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(i, _)| i)
                {
                    bucket.remove(oldest);
                    evicted = true;
                }
            }
            if !evicted {
                let total: usize = shard.values().map(Vec::len).sum();
                if total > self.shard_capacity {
                    // Evict the globally oldest entry of this shard.
                    if let Some((key, index)) = shard
                        .iter()
                        .flat_map(|(k, b)| b.iter().enumerate().map(move |(i, e)| (*k, i, e.stamp)))
                        .min_by_key(|&(_, _, s)| s)
                        .map(|(k, i, _)| (k, i))
                    {
                        // The key was just found by the scan above; a miss
                        // here only skips one eviction (DET003: no panic).
                        if let Some(bucket) = shard.get_mut(&key) {
                            bucket.remove(index);
                            if bucket.is_empty() {
                                shard.remove(&key);
                            }
                            evicted = true;
                        }
                    }
                }
            }
        }
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        evicted
    }

    /// Number of cached entries (exact variants) across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| read_shard(s).values().map(Vec::len).sum::<usize>())
            .sum()
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
            hint_hits: self.hint_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Flatten the cache into a deterministic entry stream for the
    /// persistence codec: shards in index order, keys in ascending
    /// (`BTreeMap`) order within each shard, variants in bucket order.
    /// [`SolutionCache::import`] rebuilds exactly this layout, so
    /// export → import → export is byte-stable.
    pub(crate) fn export(&self) -> CacheExport {
        let mut entries = Vec::new();
        for shard in &self.shards {
            let shard = read_shard(shard);
            for (key, bucket) in shard.iter() {
                for entry in bucket {
                    entries.push(ExportedEntry {
                        key: *key,
                        exact: entry.exact,
                        status: entry.status,
                        objective: entry.objective,
                        values: entry.values.clone(),
                        stamp: entry.stamp,
                    });
                }
            }
        }
        CacheExport {
            capacity: self.capacity(),
            next_stamp: self.stamp.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Rebuild a cache from an exported snapshot. Entries are placed
    /// directly into their buckets (shard routing is a pure function of the
    /// key, and bucket order follows the stream), bypassing [`Self::insert`]
    /// so stored stamps survive verbatim and no insertion/eviction counters
    /// move. Usage counters start at zero: they describe *this process's*
    /// cache traffic, not the lifetime of the snapshot.
    pub(crate) fn import(export: CacheExport) -> SolutionCache {
        let cache = SolutionCache::with_capacity(export.capacity);
        for entry in export.entries {
            let mut shard = write_shard(cache.shard(entry.key));
            shard.entry(entry.key).or_default().push(CacheEntry {
                exact: entry.exact,
                status: entry.status,
                objective: entry.objective,
                values: entry.values,
                stamp: entry.stamp,
            });
        }
        cache.stamp.store(export.next_stamp, Ordering::Relaxed);
        cache
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
    /// Every cached variant, in export order (see [`SolutionCache::export`]).
    pub(crate) entries: Vec<ExportedEntry>,
}

/// One cached exact variant, flattened for serialization.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ExportedEntry {
    /// Structural cache key the variant is bucketed under.
    pub(crate) key: u64,
    /// Exact content hash of the model + solver configuration.
    pub(crate) exact: u64,
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

    #[test]
    fn identical_models_share_the_full_fingerprint() {
        let a = fingerprint(&assignment_model(1.0, 3.0));
        let b = fingerprint(&assignment_model(1.0, 3.0));
        assert_eq!(a, b);
    }

    #[test]
    fn objective_and_rhs_changes_keep_the_key_but_move_the_exact_hash() {
        let base = fingerprint(&assignment_model(1.0, 3.0));
        let other_weights = fingerprint(&assignment_model(7.0, 3.0));
        let other_rhs = fingerprint(&assignment_model(1.0, 2.5));
        assert_eq!(
            base.key, other_weights.key,
            "objective values are not structural"
        );
        assert_ne!(base.exact, other_weights.exact);
        assert_eq!(base.key, other_rhs.key, "rhs values are not structural");
        assert_ne!(base.exact, other_rhs.exact);
    }

    #[test]
    fn structural_changes_move_the_key() {
        let base = fingerprint(&assignment_model(1.0, 3.0));
        let mut renamed = assignment_model(1.0, 3.0);
        renamed.name = "other".to_string();
        assert_ne!(base.key, fingerprint(&renamed).key);

        let mut extra_var = assignment_model(1.0, 3.0);
        extra_var.add_binary("x2");
        assert_ne!(base.key, fingerprint(&extra_var).key);

        let mut different_coeff = Model::new("cache-test");
        let x = different_coeff.add_binary("x0");
        let y = different_coeff.add_binary("x1");
        different_coeff.add_constraint("pick", LinExpr::from(x) + y, Sense::Equal, 1.0);
        // Constraint coefficient 2.0 -> 3.0: beyond quantization, structural.
        different_coeff.add_constraint("cap", LinExpr::from(x) * 3.0 + y, Sense::LessEqual, 3.0);
        different_coeff.minimize(LinExpr::from(x) + LinExpr::from(y) * 2.0);
        assert_ne!(base.key, fingerprint(&different_coeff).key);
    }

    #[test]
    fn quantization_absorbs_sub_grid_drift() {
        let mut drifted = Model::new("cache-test");
        let x = drifted.add_binary("x0");
        let y = drifted.add_binary("x1");
        drifted.add_constraint("pick", LinExpr::from(x) + y, Sense::Equal, 1.0);
        drifted.add_constraint(
            "cap",
            LinExpr::from(x) * (2.0 + 1e-8) + y,
            Sense::LessEqual,
            3.0,
        );
        drifted.minimize(LinExpr::from(x) + LinExpr::from(y) * 2.0);
        let base = fingerprint(&assignment_model(1.0, 3.0));
        let drifted = fingerprint(&drifted);
        assert_eq!(base.key, drifted.key);
        assert_ne!(base.exact, drifted.exact);
    }

    #[test]
    fn lookup_distinguishes_exact_hint_and_miss() {
        let cache = SolutionCache::new();
        let model = assignment_model(1.0, 3.0);
        let fp = fingerprint(&model);
        assert_eq!(cache.lookup(fp), CacheLookup::Miss);

        let solution = model.solve().unwrap();
        cache.insert(fp, &solution);
        match cache.lookup(fp) {
            CacheLookup::Exact(stored) => {
                assert_eq!(stored.values, solution.values);
                assert_eq!(stored.status, solution.status);
                assert_eq!(stored.simplex_iterations, 0, "exact hits do no work");
            }
            other => panic!("expected exact hit, got {other:?}"),
        }

        // Same structure, different objective: hint, not exact.
        let neighbor = fingerprint(&assignment_model(5.0, 3.0));
        assert_eq!(neighbor.key, fp.key);
        match cache.lookup(neighbor) {
            CacheLookup::Hint(values) => assert_eq!(values, solution.values),
            other => panic!("expected hint hit, got {other:?}"),
        }

        let stats = cache.stats();
        assert_eq!(stats.exact_hits, 1);
        assert_eq!(stats.hint_hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert!((stats.hit_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn eviction_under_capacity_is_bounded_and_counted() {
        let cache = SolutionCache::with_capacity(SHARDS); // one entry per shard
        assert_eq!(cache.capacity(), SHARDS);
        let solution = Solution {
            status: SolveStatus::Optimal,
            objective: 0.0,
            values: vec![1.0],
            simplex_iterations: 0,
            nodes_explored: 0,
        };
        // Many distinct keys; some will land on full shards and evict.
        for k in 0..(4 * SHARDS as u64) {
            let fp = ModelFingerprint { key: k, exact: k };
            cache.insert(fp, &solution);
        }
        assert!(
            cache.len() <= cache.capacity(),
            "len {} exceeds capacity",
            cache.len()
        );
        let stats = cache.stats();
        assert_eq!(stats.insertions, 4 * SHARDS);
        assert_eq!(
            stats.evictions,
            3 * SHARDS,
            "each shard evicts its overflow"
        );
        // Re-inserting a bit-identical fingerprint refreshes in place: no
        // eviction. (Key 4*SHARDS-1 was the last insert, so it is resident.)
        let before = cache.stats().evictions;
        let last = 4 * SHARDS as u64 - 1;
        let existing = ModelFingerprint {
            key: last,
            exact: last,
        };
        assert!(!cache.insert(existing, &solution));
        assert_eq!(cache.stats().evictions, before);
        // A *new* exact variant of that key, with the shard at capacity,
        // does evict.
        let variant = ModelFingerprint {
            key: last,
            exact: 99,
        };
        assert!(cache.insert(variant, &solution));
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn per_key_variant_overflow_evicts_the_oldest_variant() {
        let cache = SolutionCache::new(); // ample total capacity
        let key = 5u64;
        let mk = |exact: u64, value: f64| {
            let solution = Solution {
                status: SolveStatus::Optimal,
                objective: value,
                values: vec![value],
                simplex_iterations: 0,
                nodes_explored: 0,
            };
            (ModelFingerprint { key, exact }, solution)
        };
        for exact in 0..(VARIANTS_PER_KEY as u64 + 3) {
            let (fp, solution) = mk(exact, exact as f64);
            cache.insert(fp, &solution);
        }
        assert_eq!(cache.len(), VARIANTS_PER_KEY, "bucket must stay bounded");
        assert_eq!(cache.stats().evictions, 3, "each overflow evicts one");
        // The oldest variants are gone (hint only); recent ones hit exactly.
        assert!(matches!(
            cache.lookup(ModelFingerprint { key, exact: 0 }),
            CacheLookup::Hint(_)
        ));
        let newest = VARIANTS_PER_KEY as u64 + 2;
        match cache.lookup(ModelFingerprint { key, exact: newest }) {
            CacheLookup::Exact(solution) => assert_eq!(solution.values, vec![newest as f64]),
            other => panic!("expected exact hit, got {other:?}"),
        }
        // The hint is the most recently inserted variant's values.
        match cache.lookup(ModelFingerprint {
            key,
            exact: u64::MAX,
        }) {
            CacheLookup::Hint(values) => assert_eq!(values, vec![newest as f64]),
            other => panic!("expected hint, got {other:?}"),
        }
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = SolutionCache::new();
        let fp = ModelFingerprint { key: 1, exact: 1 };
        let solution = Solution {
            status: SolveStatus::Optimal,
            objective: 0.0,
            values: vec![],
            simplex_iterations: 0,
            nodes_explored: 0,
        };
        cache.insert(fp, &solution);
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
            hint_hits: 2,
            ..CacheStats::default()
        };
        let delta = later.delta_since(&earlier);
        assert_eq!(delta.exact_hits, 0, "reset counters must not underflow");
        assert_eq!(delta.hint_hits, 0);
        assert_eq!(CacheStats::default().hit_fraction(), 0.0);
    }
}
