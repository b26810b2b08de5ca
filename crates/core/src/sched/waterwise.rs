//! The WaterWise scheduler: MILP-based carbon/water co-optimization with
//! soft constraints and slack management (Sec. 4 of the paper).
//!
//! Each scheduling round the controller:
//!
//! 1. Collects all pending jobs (newly arrived plus previously deferred —
//!    the `J ∪ J_delay` of Algorithm 1).
//! 2. If the batch exceeds the total remaining capacity, the **slack
//!    manager** keeps only the most urgent `Σ cap(n)` jobs, ranked by the
//!    urgency score of Eq. 14 (ascending — smaller means closer to a
//!    violation).
//! 3. Decides Eq. 8–11 in the region-major columns that price the round:
//!    the hard model's picks, folded as the columns are written, where a
//!    second pass over the columns proves them an optimum
//!    (`certify_columns`); else the transportation kernel's optimum where
//!    it proves that optimum unique; else the MILP (`assignment_model`) it
//!    solves. A soft round goes straight to the kernel.
//! 4. If the hard-constrained model is infeasible, re-solves with **soft
//!    constraints** (Eq. 12–13): overshooting a job's delay tolerance costs
//!    `σ` per unit in the objective instead of being forbidden.

use super::transport::{Transport, Verdict};
use crate::experiment::Parallelism;
use crate::objective::ObjectiveWeights;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;
use waterwise_cluster::{
    Assignment, PendingJob, Scheduler, SchedulingContext, SchedulingDecision, SolverActivity,
};
use waterwise_milp::{BranchBoundConfig, LinExpr, Model, Sense, SimplexConfig, Var, VarKind};
use waterwise_sustain::{
    Co2Grams, FootprintEstimator, KilowattHours, Liters, RegionConditions, Seconds,
};
use waterwise_telemetry::{ConditionsProvider, Region, ALL_REGIONS};

/// Configuration of the WaterWise decision controller.
///
/// ```
/// use waterwise_core::WaterWiseConfig;
///
/// let config = WaterWiseConfig::default()
///     .with_carbon_weight(0.7) // λ_H2O becomes 0.3
///     .with_horizon(Some(25)) // cap each MILP at the 25 most urgent jobs
///     .with_warm_start(true);
/// assert_eq!(config.weights.lambda_co2, 0.7);
/// assert_eq!(config.horizon, Some(25));
/// // A zero-job window would stall pending jobs forever; it clamps to 1.
/// assert_eq!(WaterWiseConfig::default().with_horizon(Some(0)).horizon, Some(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WaterWiseConfig {
    /// Objective weights (`λ_CO2`, `λ_H2O`, `λ_ref`).
    pub weights: ObjectiveWeights,
    /// Window (hours) of the history learner feeding `CO2_ref` / `H2O_ref`.
    pub history_window_hours: usize,
    /// Penalty weight `σ` applied to delay-tolerance relaxation variables in
    /// the soft-constrained model (Eq. 12).
    pub soft_penalty: f64,
    /// Simplex configuration forwarded to the solver.
    pub simplex: SimplexConfig,
    /// Branch-and-bound configuration forwarded to the solver.
    pub branch_bound: BranchBoundConfig,
    /// Pick each job's cheapest admissible region with a free slot as the
    /// hard model is priced: a round whose picks are certified optimal
    /// returns them, the transportation kernel decides the rest (and every
    /// soft round) unless their optimum is tied, and tied rounds solve the
    /// MILP. Off, every round solves the MILP: the all-MILP reference, the
    /// same schedule for more solver work (see
    /// `SolveStats::certified_rounds` and [`Scheduler::solver_activity`]).
    pub warm_start: bool,
    /// Optional sliding-window cap on how many jobs enter one MILP. `None`
    /// bounds the window by the remaining cluster capacity only (the paper's
    /// behavior); `Some(h)` additionally caps it at the `h` most urgent
    /// jobs, deferring the rest to later slots.
    pub horizon: Option<usize>,
}

impl Default for WaterWiseConfig {
    fn default() -> Self {
        Self {
            weights: ObjectiveWeights::paper_default(),
            history_window_hours: 10,
            soft_penalty: 10.0,
            simplex: SimplexConfig::default(),
            branch_bound: BranchBoundConfig::default(),
            warm_start: true,
            horizon: None,
        }
    }
}

impl WaterWiseConfig {
    /// Override the carbon weight (`λ_H2O` becomes `1 − λ_CO2`).
    pub fn with_carbon_weight(mut self, lambda_co2: f64) -> Self {
        self.weights = self.weights.with_carbon_weight(lambda_co2);
        self
    }

    /// Choose the picks, certificate and kernel (`true`, the default) or the
    /// all-MILP reference (`false`); see [`WaterWiseConfig::warm_start`].
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Set the sliding-window job cap per solve.
    ///
    /// `Some(0)` is clamped to `Some(1)` at build time: a zero-job window
    /// would produce an empty solve batch every slot and stall pending jobs
    /// forever.
    pub fn with_horizon(mut self, horizon: Option<usize>) -> Self {
        self.horizon = horizon.map(|h| h.max(1));
        self
    }

    /// This configuration unchanged: the per-round numerics are prepared
    /// serially, whatever [`Parallelism`] is passed. Kept only because the
    /// frozen perf ledger calls it; ROADMAP item 1 deletes the name.
    pub fn with_parallelism(self, _parallelism: Parallelism) -> Self {
        self
    }
}

/// Statistics the controller keeps about its own solves.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Rounds in which the assignment problem of Eq. 8–11 was decided.
    pub rounds: usize,
    /// Rounds that required the soft-constrained fallback.
    pub soft_fallbacks: usize,
    /// Rounds decided without a model: the hard model's picks passed the
    /// optimality certificate, or the transportation kernel proved its
    /// optimum unique (after proving the hard round infeasible, if it
    /// softened), so the solver never saw them.
    /// `rounds - certified_rounds` is what reached `Model::solve_with`.
    pub certified_rounds: usize,
    /// Rounds in which the slack manager had to drop jobs.
    pub slack_truncations: usize,
    /// Models solved, hard or soft (a round that softens may solve two),
    /// that passed `Model::validate`.
    pub solves: usize,
    /// Total simplex iterations across all solves.
    pub simplex_iterations: usize,
    /// Total branch-and-bound nodes across all solves, one simplex run each
    /// (the assignment model's binaries never branch into an empty box):
    /// `nodes == solves` when every solve ended at the root.
    pub nodes: usize,
    /// Wall-clock seconds spent preparing the round's numerics (footprint
    /// totals, Eq. 7 maxima, objective coefficients, latency ratios) ahead
    /// of the solves, estimated from every 16th round (the first, the
    /// 17th, …): their sum scaled by `rounds` over the rounds timed, 0.0
    /// before any round. A timing measurement, not deterministic work: it
    /// varies run to run. Only the perf ledger reads it.
    pub prepare_seconds: f64,
    /// Wall-clock seconds spent deciding the assignments — certificate,
    /// kernel, or building and solving the MILPs, the soft-constrained
    /// fallback included when it engages — estimated from the same rounds
    /// as [`SolveStats::prepare_seconds`], and timing like it.
    pub solve_seconds: f64,
}

/// Every list a round works on, kept by the scheduler so that a round
/// allocates nothing but the `Vec<Assignment>` it returns: `schedule` lends
/// it to the round in place, and each step overwrites its own lists — the
/// history terms only when their key has changed, as they are a pure
/// function of it. No decision depends on an earlier one.
#[derive(Default)]
struct RoundScratch {
    /// Per region, in `ctx.regions` order: its name, free slots, conditions
    /// at `ctx.now` and normalized history terms (taken at the start of the
    /// hour that contains `ctx.now`).
    regions: Vec<Region>,
    capacities: Vec<usize>,
    conditions: Vec<RegionConditions>,
    history: Vec<(f64, f64)>,
    /// What `history` was computed for: the telemetry hour `⌊now/3600⌋` and
    /// the regions. `history` is a pure function of this key, so a round
    /// that finds it unchanged keeps `history` as it is.
    history_key: Option<(f64, Vec<Region>)>,
    /// The selected jobs as indices into `ctx.pending`, out of the slack
    /// manager's `(pool index, urgency)` ranking; the region-major columns
    /// `prepare_numerics` prices them in; the hard model's pick of each
    /// (a region index, or [`UNPICKED`]) and its coefficient, as those
    /// columns fold them; the slots a region keeps under the picks, and the
    /// regions a fixed arc priced below a pick needs a free slot in.
    selected: Vec<usize>,
    ranked: Vec<(usize, f64)>,
    prices: PriceColumns,
    hint: Vec<usize>,
    at_hint: Vec<f64>,
    capacity_left: Vec<usize>,
    tempted: Vec<bool>,
    /// The transportation kernel's working memory.
    transport: Transport,
    /// Whether the round reached `solve_with` (it is not certified then).
    modelled: bool,
}

/// `prepare_numerics`' working columns, each computed at the scope it
/// depends on: per round, per job, or per region × job. The last two are
/// the round's numerics, region-major: every round is decided in them
/// ([`PriceColumns::columns`]).
#[derive(Default)]
struct PriceColumns {
    /// Per region: the history reference term
    /// `λ_ref·(λ_CO2·CO2_ref + λ_H2O·H2O_ref)` of Eq. 8.
    reference: Vec<f64>,
    /// Per home region (by [`Region::index`], all of them) × round region:
    /// the transfer's fixed part, `None` where the job stays home.
    fixed_transfer: Vec<Option<f64>>,
    /// Per job, what its cells need that no region changes: the
    /// [`JOB_COLUMNS`] `f64` columns of [`JobColumns`], one after the other
    /// in one buffer sized once a round, each job's home region (by
    /// [`Region::index`]), and its remaining delay tolerance
    /// `TOL% − waited/exec`, clamped at zero (Eq. 11 rhs).
    jobs: Vec<f64>,
    homes: Vec<usize>,
    remaining_tolerance: Vec<f64>,
    /// Per job: the worst-region carbon and water of Eq. 7, folded in
    /// region order.
    max_carbon: Vec<f64>,
    max_water: Vec<f64>,
    /// Per region × job, region-major (region `n`'s column is
    /// `[n·J, (n+1)·J)`): the job's total carbon and water there; once the
    /// maxima are whole, each cell of `carbon` is overwritten with the
    /// coefficient and then the cell of `water` with the latency ratio.
    carbon: Vec<f64>,
    water: Vec<f64>,
}

impl PriceColumns {
    /// The priced columns.
    fn columns(&self) -> Columns<'_> {
        Columns {
            coeffs: &self.carbon,
            latency_ratio: &self.water,
            remaining_tolerance: &self.remaining_tolerance,
        }
    }
}

/// Everything the MILP needs to know about a round, region-major: region
/// `n`'s column is `[n·J, (n+1)·J)` of `coeffs` (the objective coefficients
/// of Eq. 7/8 plus the history-learner reference term) and `latency_ratio`
/// (`transfer_latency / execution_time`, Eq. 11 lhs), and job `m`'s
/// remaining delay tolerance is `remaining_tolerance[m]`
/// (`J = remaining_tolerance.len()`).
#[derive(Debug, Clone, Copy)]
struct Columns<'a> {
    coeffs: &'a [f64],
    latency_ratio: &'a [f64],
    remaining_tolerance: &'a [f64],
}

impl Columns<'_> {
    fn n_jobs(&self) -> usize {
        self.remaining_tolerance.len()
    }

    fn n_regions(&self) -> usize {
        self.coeffs.len() / self.n_jobs().max(1)
    }

    /// Whether region `n` satisfies Eq. 11 for job `m`: the one comparison
    /// bounds, costs and picks all read, so they cannot disagree by an ulp.
    fn admits(&self, m: usize, n: usize) -> bool {
        self.latency_ratio[n * self.n_jobs() + m] <= self.remaining_tolerance[m]
    }

    /// By how much region `n` overshoots job `m`'s remaining tolerance (what
    /// Eq. 13 forces on `P[m]` there); zero exactly where it is admitted.
    fn violation(&self, m: usize, n: usize) -> f64 {
        if self.admits(m, n) {
            0.0
        } else {
            self.latency_ratio[n * self.n_jobs() + m] - self.remaining_tolerance[m]
        }
    }

    /// The cost of `x[m][n]`: Eq. 8's coefficient, plus Eq. 12's `σ·P[m]`
    /// folded in when soft. The one expression model and kernel share.
    fn cost(&self, m: usize, n: usize, soft_penalty: Option<f64>) -> f64 {
        let coeff = self.coeffs[n * self.n_jobs() + m];
        soft_penalty.map_or(coeff, |sigma| coeff + sigma * self.violation(m, n))
    }
}

/// How many `f64` columns [`PriceColumns::jobs`] holds.
const JOB_COLUMNS: usize = 5;

/// A round's per-job terms, a column each, one cell per job in selection
/// order (`J = home.len()`).
#[derive(Debug, Clone, Copy)]
struct JobColumns<'a> {
    /// The estimated energy (kWh) and the embodied carbon (g) and water (L)
    /// of its footprint.
    energy: &'a [f64],
    embodied_carbon: &'a [f64],
    embodied_water: &'a [f64],
    /// Its package's time on the wire.
    wire: &'a [f64],
    /// The estimated execution time, at least 1 s: the delay ratios' base.
    exec: &'a [f64],
    /// Its home region, by [`Region::index`].
    home: &'a [usize],
    remaining_tolerance: &'a [f64],
}

impl<'a> JobColumns<'a> {
    /// The columns of `jobs` (as [`PriceColumns::jobs`] holds them) and
    /// `home`, with the jobs' `remaining_tolerance`.
    fn of(jobs: &'a [f64], home: &'a [usize], remaining_tolerance: &'a [f64]) -> Self {
        let n_jobs = home.len();
        let [energy, embodied_carbon, embodied_water, wire, exec]: [&[f64]; JOB_COLUMNS] =
            std::array::from_fn(|i| &jobs[i * n_jobs..(i + 1) * n_jobs]);
        Self {
            energy,
            embodied_carbon,
            embodied_water,
            wire,
            exec,
            home,
            remaining_tolerance,
        }
    }

    /// The cells of `jobs` alone.
    #[inline]
    fn range(self, jobs: Range<usize>) -> Self {
        Self {
            energy: &self.energy[jobs.clone()],
            embodied_carbon: &self.embodied_carbon[jobs.clone()],
            embodied_water: &self.embodied_water[jobs.clone()],
            wire: &self.wire[jobs.clone()],
            exec: &self.exec[jobs.clone()],
            home: &self.home[jobs.clone()],
            remaining_tolerance: &self.remaining_tolerance[jobs],
        }
    }
}

/// `buffer` cut into `N` consecutive columns of `len` cells each.
fn columns_mut<const N: usize>(mut buffer: &mut [f64], len: usize) -> [&mut [f64]; N] {
    std::array::from_fn(|_| {
        let (column, rest) = std::mem::take(&mut buffer).split_at_mut(len);
        buffer = rest;
        column
    })
}

/// Proof that this CPU runs AVX2 code: only [`Avx2::detect`] makes one.
#[derive(Debug, Clone, Copy)]
#[cfg_attr(
    not(target_arch = "x86_64"),
    expect(dead_code, reason = "only an x86-64 CPU is asked for AVX2")
)]
struct Avx2(());

impl Avx2 {
    /// `Some` where the CPU has AVX2 (asked at run time).
    #[cfg(target_arch = "x86_64")]
    fn detect() -> Option<Self> {
        std::arch::is_x86_feature_detected!("avx2").then_some(Self(()))
    }

    /// Never: the lane body is compiled for x86-64 alone.
    #[cfg(not(target_arch = "x86_64"))]
    fn detect() -> Option<Self> {
        None
    }
}

/// The jobs the lane body takes at a time: four iterations of its vector
/// loop, of AVX2's four `f64` lanes each. Only whole blocks go to the lanes;
/// the jobs past the last one, and so every job of a smaller round, go to
/// the fused loop. The pricing pass alone runs faster in lanes from 8 jobs
/// on, but with blocks of 8 `campaign_borg`'s rounds (12 jobs at the
/// median) did not read faster in the ledger.
const LANE_BLOCK: usize = 4 * 4;

/// How many home regions a job's transfer may start from.
const HOMES: usize = ALL_REGIONS.len();

/// One pricing of a round's region-major columns: what `prepare_numerics`
/// computed per round and per job, and the columns, Eq. 7 maxima and hard
/// model's picks it writes (`J = hint.len()` jobs, one column per region).
/// Two bodies compute the same cells: the fused loop, one job at a time,
/// and the lane body, branch-free, compiled for AVX2. Each cell is the same
/// elementwise IEEE `+ − × ÷`, `f64::max` and comparisons in both, with no
/// sum across jobs and no contracted multiply-add, so both write the same
/// bits (`the_lane_body_prices_as_the_fused_loop`).
struct Pricing<'a> {
    estimator: &'a FootprintEstimator,
    weights: &'a ObjectiveWeights,
    /// Per region: its conditions, its history reference term and its free
    /// slots.
    conditions: &'a [RegionConditions],
    reference: &'a [f64],
    capacities: &'a [usize],
    /// [`PriceColumns::fixed_transfer`].
    fixed_transfer: &'a [Option<f64>],
    jobs: JobColumns<'a>,
    /// Whether the hard model's picks are folded (`warm_start`).
    picking: bool,
    max_carbon: &'a mut [f64],
    max_water: &'a mut [f64],
    /// [`PriceColumns::carbon`] and [`PriceColumns::water`], zeroed.
    carbon: &'a mut [f64],
    water: &'a mut [f64],
    /// Each job's pick, [`UNPICKED`] so far, and its coefficient.
    hint: &'a mut [usize],
    at_hint: &'a mut [f64],
}

impl Pricing<'_> {
    /// Price every job: its whole blocks in the lane body where `lanes`
    /// proves AVX2, the rest in the fused loop.
    fn price(&mut self, lanes: Option<Avx2>) {
        let n_jobs = self.hint.len();
        let blocks = n_jobs - n_jobs % LANE_BLOCK;
        let tail = match lanes {
            Some(avx2) if blocks > 0 => {
                self.in_lanes(avx2, 0..blocks);
                blocks
            }
            _ => 0,
        };
        self.price_jobs(tail..n_jobs, totals_column, price_column::<false>);
    }

    /// Both passes over `jobs`, region by region: every region's column
    /// through `totals`, and then, the maxima whole, through `price`.
    #[inline(always)]
    fn price_jobs(
        &mut self,
        jobs: Range<usize>,
        mut totals: impl FnMut(
            ColumnRegion<'_>,
            JobColumns<'_>,
            &mut [f64],
            &mut [f64],
            &mut [f64],
            &mut [f64],
        ),
        mut price: impl FnMut(
            ColumnRegion<'_>,
            JobColumns<'_>,
            (&[f64], &[f64]),
            &mut [f64],
            &mut [f64],
            &mut [usize],
            &mut [f64],
        ),
    ) {
        let n_jobs = self.hint.len();
        let terms = self.jobs.range(jobs.clone());
        let Pricing {
            estimator,
            weights,
            conditions,
            reference,
            capacities,
            fixed_transfer,
            picking,
            max_carbon,
            max_water,
            carbon,
            water,
            hint,
            at_hint,
            ..
        } = self;
        let (estimator, weights, fixed_transfer) = (*estimator, *weights, *fixed_transfer);
        let picking = *picking;
        let region = |(n, (&conditions, (&reference, &free))): (usize, _)| ColumnRegion {
            estimator,
            weights,
            n,
            conditions,
            reference,
            offered: picking && free > 0,
            fixed_transfer,
        };
        let regions = conditions
            .iter()
            .zip(reference.iter().zip(capacities.iter()));
        let regions = regions.enumerate().map(region);
        let (max_carbon, max_water) = (&mut max_carbon[jobs.clone()], &mut max_water[jobs.clone()]);
        let (hint, at_hint) = (&mut hint[jobs.clone()], &mut at_hint[jobs.clone()]);
        let column = |n: usize| n * n_jobs + jobs.start..n * n_jobs + jobs.end;
        for region in regions.clone() {
            let (carbon, water) = (&mut carbon[column(region.n)], &mut water[column(region.n)]);
            totals(region, terms, carbon, water, max_carbon, max_water);
        }
        for region in regions {
            let (carbon, water) = (&mut carbon[column(region.n)], &mut water[column(region.n)]);
            let maxima = (&*max_carbon, &*max_water);
            price(region, terms, maxima, carbon, water, hint, at_hint);
        }
    }

    /// Both passes over `jobs` in the lane body: each region's columns in
    /// [`totals_avx2`] and [`price_avx2`].
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn lanes_avx2(&mut self, jobs: Range<usize>) {
        self.price_jobs(
            jobs,
            |region, terms, carbon, water, max_carbon, max_water| {
                totals_avx2(region, terms, carbon, water, max_carbon, max_water)
            },
            |region, terms, maxima, carbon, water, hint, at_hint| {
                price_avx2(region, terms, maxima, carbon, water, hint, at_hint)
            },
        );
    }

    /// `jobs` in the AVX2 lane body.
    #[cfg(target_arch = "x86_64")]
    #[expect(
        unsafe_code,
        reason = "the one call into AVX2 code, which needs a CPU that has it"
    )]
    fn in_lanes(&mut self, _avx2: Avx2, jobs: Range<usize>) {
        // SAFETY: an `Avx2` exists only where `is_x86_feature_detected!("avx2")`
        // returned true (`Avx2::detect`), so this CPU runs AVX2 code.
        unsafe { self.lanes_avx2(jobs) }
    }

    /// Never called: no `Avx2` exists off x86-64.
    #[cfg(not(target_arch = "x86_64"))]
    fn in_lanes(&mut self, _avx2: Avx2, jobs: Range<usize>) {
        self.price_jobs(jobs, totals_column, price_column::<false>);
    }
}

/// What a pricing pass reads of region `n` of a round: its conditions and
/// history reference term, whether its column folds picks (a free slot,
/// with `warm_start`), and the round's terms all regions share.
#[derive(Clone, Copy)]
struct ColumnRegion<'a> {
    estimator: &'a FootprintEstimator,
    weights: &'a ObjectiveWeights,
    n: usize,
    conditions: RegionConditions,
    reference: f64,
    offered: bool,
    /// [`PriceColumns::fixed_transfer`].
    fixed_transfer: &'a [Option<f64>],
}

/// The first pass over one region's column: each job's footprint totals
/// there, folded into its running worst-region maxima of Eq. 7 (in region
/// order from `f64::MIN_POSITIVE`). Branch-free, so both bodies share it.
#[inline(always)]
fn totals_column(
    region: ColumnRegion<'_>,
    terms: JobColumns<'_>,
    carbon: &mut [f64],
    water: &mut [f64],
    max_carbon: &mut [f64],
    max_water: &mut [f64],
) {
    let cells = carbon.iter_mut().zip(water.iter_mut());
    let maxima = max_carbon.iter_mut().zip(max_water.iter_mut());
    let embodied = terms.embodied_carbon.iter().zip(terms.embodied_water);
    let footprint = terms.energy.iter().zip(embodied);
    for (((c, w), (max_c, max_w)), (&energy, (&carbon, &water))) in cells.zip(maxima).zip(footprint)
    {
        let (energy, embodied) = (
            KilowattHours::new(energy),
            (Co2Grams::new(carbon), Liters::new(water)),
        );
        (*c, *w) = region.estimator.totals(energy, embodied, region.conditions);
        *max_c = max_c.max(*c);
        *max_w = max_w.max(*w);
    }
}

/// The second pass over one region's column, the maxima whole: each cell
/// of `carbon` is overwritten with the coefficient and the cell of `water`
/// with the latency ratio, and the region, if admissible and offered, is
/// offered to the job as its cell is written, which folds the hard model's
/// hint for [`certify_columns`].
///
/// `LANES` picks how a cell's latency ratio and offer are written. The
/// fused loop (`false`) takes one job at a time: it looks the home's fixed
/// transfer up and branches into [`offer`]. The lane body (`true`) is
/// branch-free, so that a vector loop takes four jobs at a time: the home's
/// fixed transfer is a compare-select over the homes, and the offer is
/// `take = offered & admitted & (unpicked | cheaper)`, applied as two
/// selects. It is compiled only into [`price_avx2`]: built for the SSE2
/// baseline it is slower than the fused loop.
#[inline(always)]
fn price_column<const LANES: bool>(
    region: ColumnRegion<'_>,
    terms: JobColumns<'_>,
    (max_carbon, max_water): (&[f64], &[f64]),
    carbon: &mut [f64],
    water: &mut [f64],
    hint: &mut [usize],
    at_hint: &mut [f64],
) {
    let ColumnRegion {
        weights,
        n,
        reference,
        offered,
        fixed_transfer,
        ..
    } = region;
    let n_regions = fixed_transfer.len() / HOMES;
    // For the lanes, per home: the fixed transfer into region `n`, and
    // whether there is one (the job leaves home).
    let (mut fixed, mut leaves) = ([0.0; HOMES], [false; HOMES]);
    if LANES {
        for (home, (fixed, leaves)) in fixed.iter_mut().zip(&mut leaves).enumerate() {
            if let Some(time) = fixed_transfer[home * n_regions + n] {
                (*fixed, *leaves) = (time, true);
            }
        }
    }
    let cells = carbon.iter_mut().zip(water.iter_mut());
    let maxima = max_carbon.iter().zip(max_water);
    let picks = hint.iter_mut().zip(at_hint.iter_mut());
    let transfer = terms.home.iter().zip(terms.wire.iter().zip(terms.exec));
    let terms = transfer.zip(terms.remaining_tolerance);
    for (((c, w), (&max_c, &max_w)), (((&home, (&wire, &exec)), &tolerance), (pick, at_pick))) in
        cells.zip(maxima).zip(terms.zip(picks))
    {
        let coeff = coefficient(weights, (*c, *w), (max_c, max_w), reference);
        if LANES {
            let (mut from_home, mut away) = (0.0, false);
            for (at, (&fixed, &leaves)) in fixed.iter().zip(&leaves).enumerate() {
                let here = home == at;
                from_home = if here { fixed } else { from_home };
                away |= here & leaves;
            }
            let moved = if away { from_home + wire } else { 0.0 };
            let ratio = moved / exec;
            (*c, *w) = (coeff, ratio);
            let cheaper = (*pick == UNPICKED) | (coeff < *at_pick);
            let take = offered & (ratio <= tolerance) & cheaper;
            *pick = if take { n } else { *pick };
            *at_pick = if take { coeff } else { *at_pick };
        } else {
            let fixed = fixed_transfer[home * n_regions + n];
            let ratio = fixed.map_or(0.0, |fixed| fixed + wire) / exec;
            (*c, *w) = (coeff, ratio);
            // `Columns::admits`' comparison.
            if offered && ratio <= tolerance {
                offer(pick, at_pick, n, coeff);
            }
        }
    }
}

/// [`totals_column`], compiled for AVX2. A function of its own, never
/// inlined, so that the compiler knows the lists it writes overlap nothing
/// else: the loop is then vectorised with no run-time overlap checks, which
/// kept the lanes scalar below 24 jobs.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn totals_avx2(
    region: ColumnRegion<'_>,
    terms: JobColumns<'_>,
    carbon: &mut [f64],
    water: &mut [f64],
    max_carbon: &mut [f64],
    max_water: &mut [f64],
) {
    totals_column(region, terms, carbon, water, max_carbon, max_water);
}

/// [`price_column`]'s lane body, compiled for AVX2 and never inlined, as
/// [`totals_avx2`] is.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn price_avx2(
    region: ColumnRegion<'_>,
    terms: JobColumns<'_>,
    maxima: (&[f64], &[f64]),
    carbon: &mut [f64],
    water: &mut [f64],
    hint: &mut [usize],
    at_hint: &mut [f64],
) {
    price_column::<true>(region, terms, maxima, carbon, water, hint, at_hint);
}

/// Eq. 8's coefficient of a cell whose totals are `c` and `w`, under its
/// job's maxima and its region's reference term.
#[inline(always)]
fn coefficient(
    weights: &ObjectiveWeights,
    (c, w): (f64, f64),
    (max_c, max_w): (f64, f64),
    reference: f64,
) -> f64 {
    weights.lambda_co2 * c / max_c + weights.lambda_h2o * w / max_w + reference
}

/// The round's MILP over binaries `x[m][n]` (index `m * n_regions + n`):
/// Eq. 8's cost, Eq. 9 (one equality per job), Eq. 10 (one unit-coefficient
/// capacity row per region). Under Eq. 9 exactly one `x[m][·]` is one, so
/// Eq. 11 (`Σ_n ratio[m][n]·x[m][n] ≤ tol[m]`) only says `x[m][n] = 0`
/// wherever [`Columns::admits`] fails — the hard model (`soft_penalty`
/// `None`) fixes those by their upper bound — and Eq. 13 makes `P[m]` the
/// chosen region's [`Columns::violation`], so the soft model adds
/// `σ·violation` to each `x[m][n]`'s cost (Eq. 12). What is left is a
/// transportation problem: every vertex of its relaxation is integral and
/// branch-and-bound ends at the root. Nothing is named (faults cite indices).
fn assignment_model(
    columns: Columns<'_>,
    capacities: &[usize],
    soft_penalty: Option<f64>,
) -> Model {
    let (n_jobs, n_regions) = (columns.n_jobs(), capacities.len());
    let n_x = n_jobs * n_regions;
    let x = |m: usize, n: usize| Var::from_index(m * n_regions + n);
    let mut model = Model::new("waterwise-assignment");
    model.reserve(n_x, n_jobs + n_regions);
    let mut objective = LinExpr::with_capacity(n_x);
    for (cost, open) in arcs(columns, soft_penalty) {
        let var = model.add_var("", VarKind::Binary, 0.0, if open { 1.0 } else { 0.0 });
        objective.add_term(var, cost);
    }
    model.minimize(objective);
    // Eq. 9: each job is assigned to exactly one region.
    for m in 0..n_jobs {
        let mut expr = LinExpr::with_capacity(n_regions);
        for n in 0..n_regions {
            expr.add_term(x(m, n), 1.0);
        }
        model.add_constraint("", expr, Sense::Equal, 1.0);
    }
    // Eq. 10: regional capacity.
    for (n, &capacity) in capacities.iter().enumerate() {
        let mut expr = LinExpr::with_capacity(n_jobs);
        for m in 0..n_jobs {
            expr.add_term(x(m, n), 1.0);
        }
        model.add_constraint("", expr, Sense::LessEqual, capacity as f64);
    }
    model
}

/// What [`certify_columns`] proved about the hard model's picks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hint {
    /// No proof: the kernel decides.
    Uncertified,
    /// The picks are an optimum of [`assignment_model`]. Not always the only
    /// one: where another optimum costs the same, the solver may return that
    /// one instead (`a_certified_hint_is_an_optimum_of_the_milp`).
    Certified,
}

/// The certificate's last line: a fixed arc below the hint only flips into
/// a region the hint leaves a free slot.
fn fixed_arcs_only_flip(tempted: &[bool], capacity_left: &[usize]) -> bool {
    let flips = |(&tempted, &left): (&bool, &usize)| !tempted || left >= 1;
    tempted.iter().zip(capacity_left).all(flips)
}

/// A job's pick before any region is offered to it.
const UNPICKED: usize = usize::MAX;

/// Offer region `n`, admissible and with a free slot, at `coeff` to a job
/// whose pick so far is `pick` at `at_pick`. Offered in region order, the
/// pick is the job's cheapest such region: a later region displaces the
/// pick only when strictly cheaper, so ties (and unordered pairs) go to the
/// lower index.
fn offer(pick: &mut usize, at_pick: &mut f64, n: usize, coeff: f64) {
    if *pick == UNPICKED || coeff < *at_pick {
        (*pick, *at_pick) = (n, coeff);
    }
}

/// Whether the hard model's picks are an optimum of [`assignment_model`],
/// in two passes over the region-major columns: `hint` and `at_hint` are
/// each job's pick and its coefficient, as `prepare_numerics` folded them
/// with [`offer`].
///
/// `None` (declined) when some job has no pick or some region more picks
/// than free slots: the picks are then no assignment, and the kernel
/// decides. Otherwise they are one, and `capacity_left` holds the free
/// slots they leave.
///
/// The certificate: a proof, in O(J·R) without the model, that the picks
/// are an optimum. Their basis is {`x[m][hint[m]]` in job row `m`, the slack
/// in each capacity row}, with duals `u_m = cost(m, hint[m])`, `v_n = 0`:
/// every open `x[m][n]` prices at `cost(m, n) − cost(m, hint[m])`, and none
/// below `−tol` is the simplex's own optimality test. A fixed arc
/// (`!admits(m, n)`) below it is held at zero by its bound; it marks `n` in
/// `tempted`, and the round is certified only if region `n` keeps a free
/// slot under the picks — a conservative line that leaves the other rounds
/// to the kernel. A capacity that needs a price goes to the kernel too:
/// `v_n ≠ 0` needs duals this pass does not compute. A non-finite cost is
/// never certified; the kernel then calls the round tied, and the solver's
/// validation refuses it.
fn certify_columns(
    columns: Columns<'_>,
    capacities: &[usize],
    tol: f64,
    hint: &[usize],
    at_hint: &[f64],
    capacity_left: &mut Vec<usize>,
    tempted: &mut Vec<bool>,
) -> Option<Hint> {
    capacities.clone_into(capacity_left);
    for &n in hint {
        // `UNPICKED` indexes no region.
        let left = capacity_left.get_mut(n)?;
        *left = left.checked_sub(1)?;
    }
    let n_jobs = hint.len();
    tempted.clear();
    tempted.resize(capacities.len(), false);
    for (n, tempted) in tempted.iter_mut().enumerate() {
        let column = n * n_jobs..(n + 1) * n_jobs;
        let arcs = columns.coeffs[column.clone()]
            .iter()
            .zip(&columns.latency_ratio[column]);
        let jobs = at_hint.iter().zip(columns.remaining_tolerance);
        let mut certified = true;
        for ((&cost, &ratio), (&at_hint, &tolerance)) in arcs.zip(jobs) {
            // With both costs finite their difference is never NaN, so
            // `below` is exactly "not at or above `−tol`".
            let below = cost - at_hint < -tol;
            *tempted |= below;
            certified &= cost.is_finite() && !(below && ratio <= tolerance);
        }
        if !certified {
            return Some(Hint::Uncertified);
        }
    }
    Some(if fixed_arcs_only_flip(tempted, capacity_left) {
        Hint::Certified
    } else {
        Hint::Uncertified
    })
}

/// [`assignment_model`]'s arcs in its layout, job by job, for
/// [`Transport::solve`]: each `x[m][n]`'s cost, and whether its upper bound
/// is 1 rather than 0.
fn arcs(columns: Columns<'_>, soft_penalty: Option<f64>) -> impl Iterator<Item = (f64, bool)> + '_ {
    let soften = soft_penalty.is_some();
    (0..columns.n_jobs()).flat_map(move |m| {
        let open = move |n| soften || columns.admits(m, n);
        (0..columns.n_regions()).map(move |n| (columns.cost(m, n, soft_penalty), open(n)))
    })
}

/// Not a cache: a unit that [`WaterWiseScheduler::attach_cache`] ignores.
/// Kept only because the frozen perf ledger names it (ROADMAP standing
/// rule 1); ROADMAP item 1 deletes the name.
#[derive(Debug)]
pub struct SolutionCache;

impl SolutionCache {
    /// A handle to a new unit. Kept for the ledger, like the type.
    pub fn shared() -> SolutionCacheHandle {
        Arc::new(SolutionCache)
    }
}

/// A handle to a [`SolutionCache`], which holds nothing. Kept only because
/// the frozen perf ledger names it (ROADMAP standing rule 1).
pub type SolutionCacheHandle = Arc<SolutionCache>;

/// The WaterWise scheduler.
///
/// ```
/// use std::sync::Arc;
/// use waterwise_core::WaterWiseScheduler;
/// use waterwise_telemetry::SyntheticTelemetry;
///
/// let scheduler = WaterWiseScheduler::with_defaults(Arc::new(
///     SyntheticTelemetry::with_seed(42),
/// ));
/// assert_eq!(scheduler.stats().rounds, 0);
/// assert!(scheduler.config().warm_start);
/// ```
pub struct WaterWiseScheduler {
    controller: Controller,
    /// The round's working lists, kept apart from the controller so that a
    /// round borrows both in place. Every round
    /// overwrites what it reads, except the history terms, which it keeps
    /// only when their key (hour and regions) is the one they were computed
    /// for — and they are a pure function of that key. So no decision
    /// depends on an earlier one (`memoised_history_decides_as_recomputed`).
    scratch: RoundScratch,
}

/// Everything of the scheduler but its round's working lists: what a round
/// reads, and what it counts in.
struct Controller {
    provider: Arc<dyn ConditionsProvider>,
    estimator: FootprintEstimator,
    config: WaterWiseConfig,
    stats: SolveStats,
    /// The phase timings of the rounds that were timed.
    phases: PhaseSamples,
    /// Whether this CPU prices a round's whole blocks of jobs in the AVX2
    /// lane body ([`Pricing::price`]), asked once per scheduler.
    lanes: Option<Avx2>,
}

/// One round in this many has its two phases timed, starting with the
/// first: a clock read costs about 3 % of a median Borg round, so timing
/// both phases of every round would cost about a tenth of it.
const PHASE_SAMPLE_STRIDE: usize = 16;

/// The rounds whose phases were timed, and the sums of their timings.
#[derive(Default)]
struct PhaseSamples {
    rounds: usize,
    prepare_seconds: f64,
    solve_seconds: f64,
}

impl PhaseSamples {
    /// Whether the `round`-th round (from 1) is timed.
    fn times(round: usize) -> bool {
        (round - 1).is_multiple_of(PHASE_SAMPLE_STRIDE)
    }

    /// Add a timed round's three clock reads: prepare start, the
    /// prepare/solve boundary, solve end.
    fn record(&mut self, [start, boundary, end]: [Instant; 3]) {
        self.rounds += 1;
        self.prepare_seconds += (boundary - start).as_secs_f64();
        self.solve_seconds += (end - boundary).as_secs_f64();
    }

    /// The two sums scaled from the timed rounds to all `rounds`: 0.0 each
    /// when no round was timed.
    fn estimate(&self, rounds: usize) -> (f64, f64) {
        if self.rounds == 0 {
            return (0.0, 0.0);
        }
        let scale = rounds as f64 / self.rounds as f64;
        (self.prepare_seconds * scale, self.solve_seconds * scale)
    }
}

/// A reading of the phase clock.
#[expect(
    clippy::disallowed_methods,
    reason = "DET002: SolveStats phase timing; scrubbed from schedules by without_wall_clock"
)]
fn phase_clock() -> Instant {
    Instant::now()
}

impl WaterWiseScheduler {
    /// Create a WaterWise scheduler.
    ///
    /// `provider` supplies *current* (not future) conditions; `estimator`
    /// must match the simulator's data-center parameters so the scheduler
    /// optimizes the same quantities the evaluation measures.
    pub fn new(
        provider: Arc<dyn ConditionsProvider>,
        estimator: FootprintEstimator,
        config: WaterWiseConfig,
    ) -> Self {
        let controller = Controller {
            provider,
            estimator,
            config,
            stats: SolveStats::default(),
            phases: PhaseSamples::default(),
            lanes: Avx2::detect(),
        };
        Self {
            controller,
            scratch: RoundScratch::default(),
        }
    }

    /// With the paper's default configuration.
    pub fn with_defaults(provider: Arc<dyn ConditionsProvider>) -> Self {
        Self::new(
            provider,
            FootprintEstimator::paper_default(),
            WaterWiseConfig::default(),
        )
    }

    /// Solver statistics accumulated so far.
    pub fn stats(&self) -> SolveStats {
        let Controller { stats, phases, .. } = &self.controller;
        let (prepare_seconds, solve_seconds) = phases.estimate(stats.rounds);
        SolveStats {
            prepare_seconds,
            solve_seconds,
            ..*stats
        }
    }

    /// Does nothing: there is no solution cache, and `cache` is dropped.
    /// Kept only because the frozen perf ledger calls it (ROADMAP standing
    /// rule 1); ROADMAP item 1 deletes the name.
    pub fn attach_cache(&mut self, _cache: SolutionCacheHandle) {}

    /// The configuration in use.
    pub fn config(&self) -> &WaterWiseConfig {
        &self.controller.config
    }
}

impl Controller {
    /// Decide one round whose pool is not empty and whose regions have a
    /// free slot, in `round`'s lists.
    fn decide(&mut self, ctx: &SchedulingContext<'_>, round: &mut RoundScratch) -> Vec<Assignment> {
        self.stats.rounds += 1;
        let timed = PhaseSamples::times(self.stats.rounds);
        let views = ctx.regions.iter();
        round.regions.clear();
        round.regions.extend(views.clone().map(|v| v.region));
        round.capacities.clear();
        let free = views.map(|v| v.remaining_capacity());
        round.capacities.extend(free);
        self.slack_select(ctx, round);
        // Eq. 7/8's per-job numerics, over the round's history terms.
        self.history_terms(ctx, round);
        let start = timed.then(phase_clock);
        self.prepare_numerics(ctx, round);
        // Hard-constrained solve first; soften on infeasibility
        // (Algorithm 1, lines 8–11). The fallback reuses the numerics.
        let boundary = timed.then(phase_clock);
        round.modelled = false;
        let hard = self.solve_assignment(ctx, round, None);
        let assignments = hard.unwrap_or_else(|| {
            self.stats.soft_fallbacks += 1;
            let sigma = Some(self.config.soft_penalty);
            self.solve_assignment(ctx, round, sigma).unwrap_or_default()
        });
        self.stats.certified_rounds += usize::from(!round.modelled);
        if let (Some(start), Some(boundary)) = (start, boundary) {
            self.phases.record([start, boundary, phase_clock()]);
        }
        assignments
    }

    /// Urgency score of Eq. 14 (smaller = more urgent):
    /// `TOL% · t_m − L_avg_m − (T_current − T_start_m)`.
    fn urgency(&self, job: &PendingJob, ctx: &SchedulingContext<'_>, regions: &[Region]) -> f64 {
        let tol_budget = ctx.delay_tolerance * job.spec.estimated_execution_time.value();
        let avg_transfer = ctx
            .transfer
            .average_transfer_time(job.spec.home_region, job.spec.package_bytes, regions)
            .value();
        let waited = job.waiting_time(ctx.now).value();
        tol_budget - avg_transfer - waited
    }

    /// The slack manager (Algorithm 1, lines 5–7): select, as indices into
    /// `ctx.pending`, the most urgent jobs the remaining capacity can start —
    /// every job, in pool order, when they all fit. The rolling-horizon window
    /// additionally caps the batch at `horizon`; the rest stay pending.
    fn slack_select(&mut self, ctx: &SchedulingContext<'_>, round: &mut RoundScratch) {
        let capacity: usize = round.capacities.iter().sum();
        let horizon = self.config.horizon;
        let limit = horizon.map_or(capacity, |h| h.max(1).min(capacity));
        let (selected, ranked) = (&mut round.selected, &mut round.ranked);
        selected.clear();
        if ctx.pending.len() <= limit {
            return selected.extend(0..ctx.pending.len());
        }
        self.stats.slack_truncations += 1;
        let urgency = |(i, job)| (i, self.urgency(job, ctx, &round.regions));
        ranked.clear();
        ranked.extend(ctx.pending.iter().enumerate().map(urgency));
        most_urgent_first(ranked, limit);
        selected.extend(ranked[..limit].iter().map(|&(i, _)| i));
    }

    /// Price the selected jobs, in selection order, into the round's
    /// [`PriceColumns`], computing each term at the scope it depends on. Per round: one
    /// conditions lookup and one history reference term per region, and the
    /// transfers' fixed parts. Per job: its embodied terms, its package's
    /// wire time, `exec` and its remaining tolerance, a column each. Per
    /// region, over the jobs' columns ([`Pricing`]): their footprint totals
    /// and the running worst-region maxima of Eq. 7; once those are whole,
    /// each job's coefficient `λ_CO2·c/max_c + λ_H2O·w/max_w + reference`
    /// and latency ratio — and, with `warm_start`, the job's pick, which
    /// folds the hard model's picks for [`certify_columns`].
    fn prepare_numerics(&self, ctx: &SchedulingContext<'_>, round: &mut RoundScratch) {
        let (estimator, weights) = (&self.estimator, &self.config.weights);
        let RoundScratch {
            regions,
            capacities,
            conditions,
            history,
            selected,
            prices,
            hint,
            at_hint,
            ..
        } = round;
        let PriceColumns {
            reference,
            fixed_transfer,
            jobs,
            homes,
            remaining_tolerance,
            max_carbon,
            max_water,
            carbon,
            water,
        } = prices;
        let (n_regions, n_jobs) = (regions.len(), selected.len());
        // Per round. Every job of the round is estimated at `ctx.now`.
        self.provider.conditions_of(regions, ctx.now, conditions);
        let history_term = |&(carbon_ref, water_ref): &(f64, f64)| {
            weights.lambda_ref * (weights.lambda_co2 * carbon_ref + weights.lambda_h2o * water_ref)
        };
        reference.clear();
        reference.extend(history.iter().map(history_term));
        fixed_transfer.clear();
        for home in ALL_REGIONS {
            let fixed = |&region: &Region| ctx.transfer.fixed_transfer_time(home, region);
            fixed_transfer.extend(regions.iter().map(|r| fixed(r).map(Seconds::value)));
        }
        // Per job.
        remaining_tolerance.clear();
        jobs.clear();
        jobs.resize(JOB_COLUMNS * n_jobs, 0.0);
        homes.clear();
        homes.extend(
            selected
                .iter()
                .map(|&pending| ctx.pending[pending].spec.home_region.index()),
        );
        let [energy, embodied_carbon, embodied_water, wire, exec] =
            columns_mut::<JOB_COLUMNS>(jobs, n_jobs);
        let pool = selected.iter().map(|&pending| &ctx.pending[pending]);
        for (m, job) in pool.enumerate() {
            let spec = &job.spec;
            exec[m] = spec.estimated_execution_time.value().max(1.0);
            let waited = job.waiting_time(ctx.now).value();
            remaining_tolerance.push((ctx.delay_tolerance - waited / exec[m]).max(0.0));
            energy[m] = spec.estimated_energy.value();
            let (carbon, water) = estimator.embodied(spec.estimated_execution_time);
            (embodied_carbon[m], embodied_water[m]) = (carbon.value(), water.value());
            wire[m] = ctx.transfer.wire_time(spec.package_bytes).value();
        }
        // Per region, over the columns.
        for maxima in [&mut *max_carbon, &mut *max_water] {
            maxima.clear();
            maxima.resize(n_jobs, f64::MIN_POSITIVE);
        }
        for totals in [&mut *carbon, &mut *water] {
            totals.clear();
            totals.resize(n_jobs * n_regions, 0.0);
        }
        hint.clear();
        hint.resize(n_jobs, UNPICKED);
        at_hint.clear();
        at_hint.resize(n_jobs, 0.0);
        Pricing {
            estimator,
            weights,
            conditions,
            reference,
            capacities,
            fixed_transfer,
            jobs: JobColumns::of(jobs, homes, remaining_tolerance),
            picking: self.config.warm_start,
            max_carbon,
            max_water,
            carbon,
            water,
            hint,
            at_hint,
        }
        .price(self.lanes);
    }

    /// Decide the selected jobs' assignment (`soft_penalty` selects Eq. 12/13's
    /// relaxation): the hard model's picks where [`certify_columns`] proves
    /// them an optimum → else the transportation kernel → only on a tie or a
    /// non-finite cost, [`assignment_model`] → `solve_with` → one read-back
    /// by position. A round the kernel proves infeasible returns `None` at
    /// once. Without `warm_start` every round takes the model path: the
    /// reference the other two are held to.
    fn solve_assignment(
        &mut self,
        ctx: &SchedulingContext<'_>,
        round: &mut RoundScratch,
        soft_penalty: Option<f64>,
    ) -> Option<Vec<Assignment>> {
        let RoundScratch {
            selected,
            prices,
            capacities,
            hint,
            at_hint,
            capacity_left,
            tempted,
            transport,
            modelled,
            ..
        } = round;
        let n_regions = capacities.len();
        let warm = self.config.warm_start;
        let tol = self.config.simplex.tolerance;
        let columns = prices.columns();
        let certified = warm
            && soft_penalty.is_none()
            && certify_columns(
                columns,
                capacities,
                tol,
                hint,
                at_hint,
                capacity_left,
                tempted,
            ) == Some(Hint::Certified);
        let decided = if certified {
            Some(&hint[..])
        } else if warm {
            match transport.solve(capacities, arcs(columns, soft_penalty), tol) {
                Verdict::Unique(chosen) => Some(chosen),
                Verdict::Tied => None,
                Verdict::Infeasible => return None,
            }
        } else {
            None
        };
        let place = |m: usize, n: usize| Assignment {
            job: ctx.pending[selected[m]].spec.id,
            region: ctx.regions[n].region,
        };
        if let Some(chosen) = decided {
            return Some(
                chosen
                    .iter()
                    .enumerate()
                    .map(|(m, &n)| place(m, n))
                    .collect(),
            );
        }
        *modelled = true;
        let model = assignment_model(columns, capacities, soft_penalty);
        let (simplex, branch_bound) = (&self.config.simplex, &self.config.branch_bound);
        let solution = model.solve_with(simplex, branch_bound).ok()?;
        self.stats.solves += 1;
        self.stats.simplex_iterations += solution.simplex_iterations;
        self.stats.nodes += solution.nodes_explored;
        if !solution.status.has_solution() {
            return None;
        }
        let x = |m: usize, n: usize| Var::from_index(m * n_regions + n);
        let mut assignments = Vec::with_capacity(selected.len());
        for m in 0..selected.len() {
            if let Some(n) = (0..n_regions).find(|&n| solution.is_one(x(m, n))) {
                assignments.push(place(m, n));
            }
        }
        Some(assignments)
    }

    /// Normalized trailing-window footprints per region, the `CO2_ref` /
    /// `H2O_ref` history terms of Eq. 8 (a handful of trailing means: serial).
    ///
    /// The means are taken at the start of the telemetry hour that contains
    /// `ctx.now`, `H·3600` with `H = ⌊now/3600⌋`. For hourly telemetry that
    /// is exact: every `now − 3600k` is computed exactly and falls in the
    /// same hour as `H·3600 − 3600k`, so both instants sample the same hours
    /// (`trailing_means_are_those_of_the_hours_start`). With the anchor the
    /// terms are a pure function of `(H, regions)`, so they are recomputed
    /// only when that key changes: once per hour, not once per round.
    fn history_terms(&self, ctx: &SchedulingContext<'_>, round: &mut RoundScratch) {
        let hour = (ctx.now.value() / 3600.0).floor();
        if let Some((at, regions)) = &round.history_key {
            if *at == hour && *regions == round.regions {
                return;
            }
        }
        let anchor = Seconds::new(hour * 3600.0);
        let (pue, window) = (self.estimator.params.pue, self.config.history_window_hours);
        let trailing = |&r: &Region| {
            let carbon = self.provider.trailing_carbon(r, anchor, window).value();
            let water = self
                .provider
                .trailing_water_intensity(r, anchor, window, pue);
            (carbon, water)
        };
        let history = &mut round.history;
        history.clear();
        history.extend(round.regions.iter().map(trailing));
        let max_of = |pick: fn(&(f64, f64)) -> f64| {
            history.iter().map(pick).fold(f64::MIN_POSITIVE, f64::max)
        };
        let (max_carbon, max_water) = (max_of(|h| h.0), max_of(|h| h.1));
        for (carbon, water) in history.iter_mut() {
            *carbon /= max_carbon;
            *water /= max_water;
        }
        let key = round.history_key.get_or_insert_with(Default::default);
        key.0 = hour;
        round.regions.clone_into(&mut key.1);
    }
}

/// Move the `limit` most urgent of `ranked`'s `(pool index, urgency)` pairs
/// to its front, most urgent first, leaving the rest in no particular order.
/// Ties on urgency (`-0.0` ties `0.0`) go in pool order, which is where a
/// stable sort of the whole pool on urgency alone puts them: the front is
/// that sort's first `limit` (`most_urgent_first_is_the_stable_sorts_prefix`),
/// found by one selection and a sort of the kept pairs.
fn most_urgent_first(ranked: &mut [(usize, f64)], limit: usize) {
    let order = |a: &(usize, f64), b: &(usize, f64)| {
        let by_urgency = a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal);
        by_urgency.then(a.0.cmp(&b.0))
    };
    if limit < ranked.len() {
        ranked.select_nth_unstable_by(limit, order);
    }
    ranked[..limit].sort_unstable_by(order);
}

impl Scheduler for WaterWiseScheduler {
    fn name(&self) -> &str {
        "waterwise"
    }

    fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision {
        if ctx.pending.is_empty() || ctx.total_remaining_capacity() == 0 {
            // No job, or (no region, none free) nothing can start this round.
            return SchedulingDecision::defer_all();
        }
        let Self {
            controller,
            scratch,
        } = self;
        let assignments = controller.decide(ctx, scratch);
        SchedulingDecision { assignments }
    }

    fn solver_activity(&self) -> Option<SolverActivity> {
        let stats = &self.controller.stats;
        Some(SolverActivity {
            solves: stats.solves,
            simplex_pivots: stats.simplex_iterations,
            nodes: stats.nodes,
            // The warm-start, cache, dual-restart and bound-flip counters:
            // always 0.
            ..SolverActivity::default()
        })
    }
}

/// Convenience constructor mirroring the paper's default deployment.
pub fn paper_default_scheduler(provider: Arc<dyn ConditionsProvider>) -> WaterWiseScheduler {
    WaterWiseScheduler::with_defaults(provider)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::test_support::{context_fixture, ContextFixture};
    use waterwise_cluster::RegionView;
    use waterwise_telemetry::SyntheticTelemetry;

    /// One job's row of a [`RoundNumerics`], borrowed: its objective
    /// coefficient and latency ratio per region, and its remaining delay
    /// tolerance. [`Columns::admits`], [`Columns::violation`] and
    /// [`Columns::cost`] over a row.
    #[derive(Debug, Clone, Copy)]
    struct JobNumerics<'a> {
        coeffs: &'a [f64],
        latency_ratio: &'a [f64],
        remaining_tolerance: f64,
    }

    impl JobNumerics<'_> {
        fn admits(&self, n: usize) -> bool {
            self.latency_ratio[n] <= self.remaining_tolerance
        }

        fn violation(&self, n: usize) -> f64 {
            if self.admits(n) {
                0.0
            } else {
                self.latency_ratio[n] - self.remaining_tolerance
            }
        }

        fn cost(&self, n: usize, soft_penalty: Option<f64>) -> f64 {
            let coeff = self.coeffs[n];
            soft_penalty.map_or(coeff, |sigma| coeff + sigma * self.violation(n))
        }
    }

    /// A round's numerics in the row form the fixtures draw: job `m`'s row is
    /// `[m·R, (m+1)·R)` of `coeffs` and `latency_ratio` (`R = n_regions`), its
    /// tolerance `remaining_tolerance[m]`. [`priced`] turns it into the
    /// columns the scheduler decides in.
    #[derive(Debug, Clone, Default)]
    struct RoundNumerics {
        n_regions: usize,
        coeffs: Vec<f64>,
        latency_ratio: Vec<f64>,
        remaining_tolerance: Vec<f64>,
    }

    impl RoundNumerics {
        fn reset(&mut self, n_regions: usize) {
            self.n_regions = n_regions;
            self.coeffs.clear();
            self.latency_ratio.clear();
            self.remaining_tolerance.clear();
        }

        fn len(&self) -> usize {
            self.remaining_tolerance.len()
        }

        fn job(&self, m: usize) -> JobNumerics<'_> {
            let row = m * self.n_regions..(m + 1) * self.n_regions;
            JobNumerics {
                coeffs: &self.coeffs[row.clone()],
                latency_ratio: &self.latency_ratio[row],
                remaining_tolerance: self.remaining_tolerance[m],
            }
        }

        fn jobs(&self) -> impl Iterator<Item = JobNumerics<'_>> {
            (0..self.len()).map(|m| self.job(m))
        }
    }

    /// `batch`'s coefficients and latency ratios as region-major columns.
    fn columns_of(batch: &RoundNumerics) -> [Vec<f64>; 2] {
        let (n_jobs, n_regions) = (batch.len(), batch.n_regions);
        let transpose = |rows: &[f64]| -> Vec<f64> {
            let cell = |n| (0..n_jobs).map(move |m| rows[m * n_regions + n]);
            (0..n_regions).flat_map(cell).collect()
        };
        [transpose(&batch.coeffs), transpose(&batch.latency_ratio)]
    }

    /// `batch` as `prepare_numerics` leaves a round: its [`PriceColumns`],
    /// whose [`PriceColumns::columns`] the model, kernel and certificate read.
    fn priced(batch: &RoundNumerics) -> PriceColumns {
        let [carbon, water] = columns_of(batch);
        PriceColumns {
            carbon,
            water,
            remaining_tolerance: batch.remaining_tolerance.clone(),
            ..PriceColumns::default()
        }
    }

    /// The hinted assignment and its certificate in one walk over the job
    /// rows, the reference [`certify_columns`] is held to. `None` when some
    /// job has no feasible region under `capacity_left`.
    ///
    /// The hint, one region index per job into `hint`: each job, in batch
    /// order, to its cheapest feasible region under `capacity_left` (ties to
    /// the lowest index). The certificate is [`certify_columns`]' over that
    /// hint, for the soft model too (where every arc is open), with
    /// `capacity_left` once the walk ends as the slots the hint leaves.
    fn hint_and_certify(
        numerics: &RoundNumerics,
        capacities: &[usize],
        soft_penalty: Option<f64>,
        tol: f64,
        hint: &mut Vec<usize>,
        capacity_left: &mut Vec<usize>,
        tempted: &mut Vec<bool>,
    ) -> Option<Hint> {
        let n_regions = capacities.len();
        let soften = soft_penalty.is_some();
        capacities.clone_into(capacity_left);
        hint.clear();
        tempted.clear();
        tempted.resize(n_regions, false);
        let mut certified = true;
        for numbers in numerics.jobs() {
            // The cheapest feasible region by coefficient, ties (and unordered
            // pairs) to the lower index: a later region displaces the best so
            // far only when strictly cheaper.
            let mut chosen: Option<(usize, f64)> = None;
            let open = numbers.coeffs.iter().zip(capacity_left.iter()).enumerate();
            for (n, (&coeff, &left)) in open {
                let cheaper = chosen.is_none_or(|(_, best)| coeff < best);
                if cheaper && left > 0 && (soften || numbers.admits(n)) {
                    chosen = Some((n, coeff));
                }
            }
            let (chosen, _) = chosen?;
            capacity_left[chosen] -= 1;
            hint.push(chosen);
            if !certified {
                continue;
            }
            let at_hint = numbers.cost(chosen, soft_penalty);
            // With both costs finite their difference is never NaN, so
            // `below` is exactly "not at or above `−tol`".
            certified = at_hint.is_finite()
                && (0..n_regions).all(|n| {
                    let cost = numbers.cost(n, soft_penalty);
                    let below = cost - at_hint < -tol;
                    tempted[n] |= below;
                    cost.is_finite() && !(below && (soften || numbers.admits(n)))
                });
        }
        let certified = certified && fixed_arcs_only_flip(tempted, capacity_left);
        Some(if certified {
            Hint::Certified
        } else {
            Hint::Uncertified
        })
    }

    fn scheduler() -> WaterWiseScheduler {
        WaterWiseScheduler::with_defaults(Arc::new(SyntheticTelemetry::with_seed(3)))
    }

    fn ctx_from<'a>(
        fixture: &'a ContextFixture,
        now_hours: f64,
        tolerance: f64,
    ) -> SchedulingContext<'a> {
        SchedulingContext {
            now: Seconds::from_hours(now_hours),
            pending: &fixture.pending,
            regions: &fixture.regions,
            delay_tolerance: tolerance,
            transfer: &fixture.transfer,
        }
    }

    /// `n` jobs received at hour 6 over regions of `servers` slots each. With
    /// few enough slots the cheapest region cannot take every job that wants
    /// it, so a capacity row needs a price: the hint is not certified and the
    /// round reaches the MILP — what the solver-side tests below need now that
    /// an unpressured round builds no model.
    fn capacity_bound_fixture(n: usize, seed: u64, servers: usize) -> ContextFixture {
        let mut fixture = context_fixture(n, seed);
        for p in &mut fixture.pending {
            p.received_at = Seconds::from_hours(6.0);
        }
        for v in &mut fixture.regions {
            v.total_servers = servers;
        }
        fixture
    }

    #[test]
    fn assigns_every_job_when_capacity_allows() {
        let mut fixture = context_fixture(12, 3);
        for p in &mut fixture.pending {
            p.received_at = Seconds::from_hours(6.0);
        }
        let ctx = ctx_from(&fixture, 6.0, 0.5);
        let mut sched = scheduler();
        let decision = sched.schedule(&ctx);
        assert_eq!(decision.assignments.len(), 12);
        assert_eq!(sched.stats().rounds, 1);
        assert_eq!(sched.stats().slack_truncations, 0);
    }

    #[test]
    fn respects_capacity_via_slack_manager() {
        let mut fixture = context_fixture(30, 5);
        for v in &mut fixture.regions {
            v.total_servers = 2; // 10 total slots for 30 jobs.
        }
        let ctx = ctx_from(&fixture, 6.0, 0.5);
        let mut sched = scheduler();
        let decision = sched.schedule(&ctx);
        assert!(decision.assignments.len() <= 10);
        assert!(!decision.assignments.is_empty());
        assert_eq!(sched.stats().slack_truncations, 1);
        let mut counts = [0usize; 5];
        for a in &decision.assignments {
            counts[a.region.index()] += 1;
        }
        assert!(counts.iter().all(|&c| c <= 2), "{counts:?}");
    }

    #[test]
    fn avoids_the_carbon_worst_region_under_equal_weights() {
        let mut fixture = context_fixture(20, 7);
        for p in &mut fixture.pending {
            p.received_at = Seconds::from_hours(12.0);
        }
        let ctx = ctx_from(&fixture, 12.0, 1.0);
        let decision = scheduler().schedule(&ctx);
        let mumbai_jobs = decision
            .assignments
            .iter()
            .filter(|a| a.region == waterwise_telemetry::Region::Mumbai)
            .count();
        // Mumbai jobs should only be those submitted there whose migration
        // would violate tolerance — with generous tolerance that is few.
        assert!(
            mumbai_jobs <= decision.assignments.len() / 3,
            "{mumbai_jobs} of {} jobs in Mumbai",
            decision.assignments.len()
        );
    }

    #[test]
    fn tight_tolerance_keeps_jobs_near_home() {
        let fixture = context_fixture(15, 9);
        // Zero tolerance: any transfer latency violates Eq. 11, so the hard
        // model forces home-region execution (latency 0).
        let ctx = ctx_from(&fixture, 3.0, 0.0);
        let decision = scheduler().schedule(&ctx);
        for a in &decision.assignments {
            let job = fixture.pending.iter().find(|p| p.spec.id == a.job).unwrap();
            assert_eq!(a.region, job.spec.home_region, "job {} migrated", a.job.0);
        }
    }

    #[test]
    fn soft_fallback_engages_when_hard_model_is_infeasible() {
        let mut fixture = context_fixture(6, 11);
        // Make the home regions unavailable so every job *must* migrate, and
        // set a zero tolerance so the hard delay constraint is unsatisfiable.
        fixture
            .regions
            .retain(|v| v.region == waterwise_telemetry::Region::Milan);
        for p in &mut fixture.pending {
            p.spec.home_region = waterwise_telemetry::Region::Oregon;
        }
        let ctx = ctx_from(&fixture, 3.0, 0.0);
        let mut sched = scheduler();
        let decision = sched.schedule(&ctx);
        // The soft model still assigns the jobs (at a penalty).
        assert_eq!(decision.assignments.len(), 6);
        assert!(sched.stats().soft_fallbacks >= 1);
        // No job has a feasible region, so the columns decline the hard round,
        // and the kernel proves it infeasible without a model. It then proves
        // the soft round's optimum unique: the round never reaches the solver.
        assert_eq!(sched.stats().certified_rounds, 1);
        assert_eq!(sched.solver_activity().unwrap(), SolverActivity::default());
        assert!(decision
            .assignments
            .iter()
            .all(|a| a.region == waterwise_telemetry::Region::Milan));
        // The all-MILP reference proves the hard model infeasible by a cold
        // solve, then solves the soft one: the same placement.
        let mut reference = WaterWiseScheduler::new(
            Arc::new(SyntheticTelemetry::with_seed(3)),
            FootprintEstimator::paper_default(),
            WaterWiseConfig::default().with_warm_start(false),
        );
        assert_eq!(reference.schedule(&ctx), decision);
        let activity = reference.solver_activity().unwrap();
        assert_eq!((activity.solves, activity.warm_solves), (2, 0));
        assert_eq!(reference.stats().soft_fallbacks, 1);
    }

    /// The hinted assignment as two passes computed it, the reference
    /// [`hint_and_certify`] is held to: each job, in batch order, to its
    /// cheapest feasible region under `capacity_left` (ties to the lowest
    /// index). `false` when some job has none.
    fn build_hint(
        numerics: &RoundNumerics,
        capacities: &[usize],
        soften: bool,
        hint: &mut Vec<usize>,
        capacity_left: &mut Vec<usize>,
    ) -> bool {
        capacities.clone_into(capacity_left);
        hint.clear();
        for numbers in numerics.jobs() {
            let feasible = |&n: &usize| capacity_left[n] > 0 && (soften || numbers.admits(n));
            let by_cost = |a: &usize, b: &usize| {
                let order = numbers.coeffs[*a].partial_cmp(&numbers.coeffs[*b]);
                order.unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(b))
            };
            let Some(chosen) = (0..capacities.len()).filter(feasible).min_by(by_cost) else {
                return false;
            };
            capacity_left[chosen] -= 1;
            hint.push(chosen);
        }
        true
    }

    /// The certificate as a second pass over a given hint `chosen`, the
    /// reference [`hint_and_certify`] is held to: every arc priced at or
    /// above `cost(hint) − tol`, or fixed (hard model) into a region the
    /// hint leaves a free slot in; every cost finite. `free` is working
    /// memory: the slots left under `chosen`.
    fn certified(
        numerics: &RoundNumerics,
        capacities: &[usize],
        soft_penalty: Option<f64>,
        chosen: &[usize],
        tol: f64,
        free: &mut Vec<usize>,
    ) -> bool {
        capacities.clone_into(free);
        chosen.iter().for_each(|&n| free[n] -= 1);
        numerics.jobs().zip(chosen).all(|(numbers, &hinted)| {
            let at_hint = numbers.cost(hinted, soft_penalty);
            (0..capacities.len()).all(|n| {
                let cost = numbers.cost(n, soft_penalty);
                let flips = soft_penalty.is_none() && !numbers.admits(n) && free[n] >= 1;
                cost.is_finite() && (cost - at_hint >= -tol || flips)
            })
        })
    }

    /// A batch in the flat layout, from one `(coeffs, latency_ratio,
    /// remaining_tolerance)` row per job.
    fn numerics(rows: &[(&[f64], &[f64], f64)]) -> RoundNumerics {
        let mut batch = RoundNumerics::default();
        batch.reset(rows.first().map_or(0, |row| row.0.len()));
        for (coeffs, latency_ratio, remaining_tolerance) in rows {
            assert_eq!(
                (coeffs.len(), latency_ratio.len()),
                (batch.n_regions, batch.n_regions)
            );
            batch.coeffs.extend_from_slice(coeffs);
            batch.latency_ratio.extend_from_slice(latency_ratio);
            batch.remaining_tolerance.push(*remaining_tolerance);
        }
        batch
    }

    #[test]
    fn soft_model_picks_the_least_violating_region_when_costs_tie() {
        // Three equally cheap regions, none admissible: only the folded
        // penalty `σ·violation` tells them apart.
        let batch = numerics(&[(&[0.4, 0.4, 0.4], &[0.9, 0.3, 0.6], 0.1)]);
        assert!((0..3).all(|n| !priced(&batch).columns().admits(0, n)));
        let sigma = WaterWiseConfig::default().soft_penalty;
        let solution = assignment_model(priced(&batch).columns(), &[1, 1, 1], Some(sigma))
            .solve()
            .unwrap();
        assert_eq!(solution.status, waterwise_milp::SolveStatus::Optimal);
        assert_eq!(solution.values, [0.0, 1.0, 0.0]);
        assert!((solution.objective - (0.4 + sigma * (0.3 - 0.1))).abs() < 1e-12);
        assert_eq!(solution.nodes_explored, 1);
    }

    #[test]
    fn admissible_regions_are_never_charged() {
        // A ratio exactly at the tolerance is admissible: bound 1 in the
        // hard model, no penalty in the soft one — even when a pricier
        // penalty-free region competes with a cheaper violating one.
        let batch = numerics(&[(&[0.5, 0.2], &[0.25, 0.26], 0.25)]);
        let prices = priced(&batch);
        let job = prices.columns();
        assert!(job.admits(0, 0) && !job.admits(0, 1));
        assert_eq!(job.violation(0, 0), 0.0);
        let hard = assignment_model(job, &[1, 1], None);
        assert_eq!(hard.bounds(Var::from_index(0)), (0.0, 1.0));
        assert_eq!(hard.bounds(Var::from_index(1)), (0.0, 0.0));
        let soft = assignment_model(job, &[1, 1], Some(100.0));
        assert_eq!(soft.bounds(Var::from_index(1)), (0.0, 1.0));
        assert_eq!(soft.solve().unwrap().values, [1.0, 0.0]);
    }

    #[test]
    fn a_job_with_every_region_fixed_makes_the_hard_model_infeasible() {
        // Eq. 9 is an equality: a job whose arcs are all fixed at zero cannot
        // be left out of the hard model, so the whole round softens — as it
        // did when Eq. 11 was a row.
        let free = (&[0.3, 0.6][..], &[0.0, 0.2][..], 0.5);
        let stuck = (&[0.3, 0.6][..], &[0.7, 0.9][..], 0.5);
        let batch = numerics(&[free, stuck]);
        let hard = assignment_model(priced(&batch).columns(), &[2, 2], None);
        assert_eq!((hard.num_vars(), hard.num_constraints()), (4, 2 + 2));
        let solution = hard.solve().unwrap();
        assert_eq!(solution.status, waterwise_milp::SolveStatus::Infeasible);
        assert_eq!(solution.nodes_explored, 1);
        let soft = assignment_model(priced(&batch).columns(), &[2, 2], Some(10.0))
            .solve()
            .unwrap();
        assert_eq!(soft.values, [1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn carbon_weight_shifts_the_placement_mix() {
        let mut fixture = context_fixture(25, 13);
        for p in &mut fixture.pending {
            p.received_at = Seconds::from_hours(12.0);
        }
        let provider: Arc<dyn ConditionsProvider> = Arc::new(SyntheticTelemetry::with_seed(3));
        let mut carbon_heavy = WaterWiseScheduler::new(
            provider.clone(),
            FootprintEstimator::paper_default(),
            WaterWiseConfig::default().with_carbon_weight(0.95),
        );
        let mut water_heavy = WaterWiseScheduler::new(
            provider,
            FootprintEstimator::paper_default(),
            WaterWiseConfig::default().with_carbon_weight(0.05),
        );
        let ctx = ctx_from(&fixture, 12.0, 1.0);
        let a = carbon_heavy.schedule(&ctx);
        let b = water_heavy.schedule(&ctx);
        let dist = |d: &SchedulingDecision| {
            let mut counts = [0usize; 5];
            for a in &d.assignments {
                counts[a.region.index()] += 1;
            }
            counts
        };
        assert_ne!(dist(&a), dist(&b), "weights should change the distribution");
    }

    #[test]
    fn warm_start_produces_identical_decisions_to_cold() {
        // Several rounds over the same fixture with evolving time: warm and
        // cold schedulers must agree on every single placement. 20 slots for
        // 18 jobs, so capacity binds every round (with 50-server regions
        // every warm round is certified from the hint), and the comparison
        // holds the transportation kernel to the cold solver.
        let fixture = capacity_bound_fixture(18, 21, 4);
        let provider: Arc<dyn ConditionsProvider> = Arc::new(SyntheticTelemetry::with_seed(3));
        let mut warm = WaterWiseScheduler::new(
            provider.clone(),
            FootprintEstimator::paper_default(),
            WaterWiseConfig::default().with_warm_start(true),
        );
        let mut cold = WaterWiseScheduler::new(
            provider,
            FootprintEstimator::paper_default(),
            WaterWiseConfig::default().with_warm_start(false),
        );
        for hour in [6.0, 6.5, 7.0, 9.0] {
            let ctx = ctx_from(&fixture, hour, 0.5);
            let a = warm.schedule(&ctx);
            let b = cold.schedule(&ctx);
            assert_eq!(a, b, "warm and cold schedules diverged at hour {hour}");
        }
        // No hint is certified (capacity needs a price); the kernel proves
        // each round's optimum unique and decides it without a model.
        assert_eq!(warm.stats().certified_rounds, 4);
        assert_eq!(warm.solver_activity().unwrap(), SolverActivity::default());
        assert_eq!(cold.stats().certified_rounds, 0, "no hint, no certificate");
        let cold_activity = cold.solver_activity().unwrap();
        assert_eq!((cold_activity.solves, cold_activity.warm_solves), (4, 0));
    }

    #[test]
    fn a_tied_round_commits_what_the_all_milp_reference_commits() {
        // Twin jobs, as `force_ties` builds them: every odd job a copy of the
        // job before it. One slot per region splits each pair of twins
        // between two regions, where they can swap: the kernel calls the
        // round `Tied` and the model is solved, as the reference solves it.
        let mut fixture = capacity_bound_fixture(4, 21, 1);
        for m in (1..fixture.pending.len()).step_by(2) {
            let id = fixture.pending[m].spec.id;
            fixture.pending[m] = fixture.pending[m - 1].clone();
            fixture.pending[m].spec.id = id;
        }
        let provider: Arc<dyn ConditionsProvider> = Arc::new(SyntheticTelemetry::with_seed(3));
        let mut default = WaterWiseScheduler::with_defaults(provider.clone());
        let mut reference = WaterWiseScheduler::new(
            provider,
            FootprintEstimator::paper_default(),
            WaterWiseConfig::default().with_warm_start(false),
        );
        let ctx = ctx_from(&fixture, 6.0, 0.5);
        assert_eq!(default.schedule(&ctx), reference.schedule(&ctx));
        assert_eq!(default.stats().certified_rounds, 0);
        let activity = default.solver_activity().unwrap();
        assert!(activity.solves > 0, "the round was not tied: {activity:?}");
        assert_eq!(activity, reference.solver_activity().unwrap());
    }

    /// `SyntheticTelemetry` counting the trailing means it is asked for.
    struct CountingTrailing {
        inner: SyntheticTelemetry,
        trailing: std::sync::atomic::AtomicUsize,
    }

    impl ConditionsProvider for CountingTrailing {
        fn conditions(&self, region: Region, at: Seconds) -> RegionConditions {
            self.inner.conditions(region, at)
        }

        fn trailing_carbon(
            &self,
            region: Region,
            at: Seconds,
            window_hours: usize,
        ) -> waterwise_sustain::CarbonIntensity {
            self.trailing
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.trailing_carbon(region, at, window_hours)
        }

        fn trailing_water_intensity(
            &self,
            region: Region,
            at: Seconds,
            window_hours: usize,
            pue: f64,
        ) -> f64 {
            self.inner
                .trailing_water_intensity(region, at, window_hours, pue)
        }
    }

    /// A WaterWise scheduler that forgets its history terms before every
    /// round: the per-round recomputation the memo replaced.
    struct Recomputing(WaterWiseScheduler);

    impl Scheduler for Recomputing {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn schedule(&mut self, ctx: &SchedulingContext<'_>) -> SchedulingDecision {
            self.0.scratch.history_key = None;
            self.0.schedule(ctx)
        }
    }

    #[test]
    fn memoised_history_decides_as_recomputed() {
        use waterwise_cluster::{schedule_digest, SimulationConfig, Simulator};
        use waterwise_traces::{TraceConfig, TraceGenerator};
        // A Borg day: 1 440 rounds across 24 hour boundaries, every one with
        // a free server (a round without one never asks for history terms).
        let jobs = TraceGenerator::new(TraceConfig::borg(1.0, 5)).generate();
        let telemetry = SyntheticTelemetry::with_seed(5);
        let simulator =
            Simulator::new(SimulationConfig::paper_default(50, 0.5), telemetry.clone()).unwrap();
        let run = |scheduler: &mut dyn Scheduler| simulator.run(&jobs, scheduler).unwrap();
        let provider = |telemetry: &SyntheticTelemetry| {
            Arc::new(CountingTrailing {
                inner: telemetry.clone(),
                trailing: Default::default(),
            })
        };
        let (memo_side, recompute_side) = (provider(&telemetry), provider(&telemetry));
        let mut memoised = WaterWiseScheduler::with_defaults(memo_side.clone());
        let mut recomputing =
            Recomputing(WaterWiseScheduler::with_defaults(recompute_side.clone()));
        let (memo, reference) = (run(&mut memoised), run(&mut recomputing));
        assert_eq!(memo.outcomes, reference.outcomes);
        assert_eq!(
            schedule_digest(&memo.outcomes),
            schedule_digest(&reference.outcomes)
        );
        let rounds = memoised.stats().rounds;
        assert_eq!(rounds, recomputing.0.stats().rounds);
        // One trailing carbon mean per region per round against one per
        // region per hour that had a round.
        let count =
            |side: &CountingTrailing| side.trailing.load(std::sync::atomic::Ordering::Relaxed);
        let regions = waterwise_telemetry::ALL_REGIONS.len();
        assert_eq!(count(&recompute_side), regions * rounds);
        let hours: std::collections::BTreeSet<u64> = memo
            .overhead
            .iter()
            .filter(|round| round.batch_size > 0)
            .map(|round| (round.sim_time.value() / 3600.0) as u64)
            .collect();
        assert!(hours.len() >= 24 && rounds > 20 * hours.len(), "fixture");
        assert_eq!(count(&memo_side), regions * hours.len());
    }

    #[test]
    fn stats_time_the_prepare_and_solve_phases() {
        let fixture = context_fixture(10, 17);
        let ctx = ctx_from(&fixture, 6.0, 0.5);
        let mut sched = scheduler();
        assert_eq!(sched.stats().prepare_seconds, 0.0);
        assert_eq!(sched.stats().solve_seconds, 0.0);
        sched.schedule(&ctx);
        let stats = sched.stats();
        assert!(stats.prepare_seconds > 0.0, "prepare phase was never timed");
        assert!(stats.solve_seconds > 0.0, "solve phase was never timed");
    }

    #[test]
    fn one_round_in_the_stride_is_timed_and_the_sums_scale_to_all() {
        let fixture = context_fixture(10, 17);
        let mut sched = scheduler();
        for round in 0..40 {
            let ctx = ctx_from(&fixture, 6.0 + round as f64 / 60.0, 0.5);
            sched.schedule(&ctx);
        }
        let stats = sched.stats();
        assert_eq!(stats.rounds, 40);
        // ⌈40 / 16⌉: rounds 1, 17 and 33.
        assert_eq!(PHASE_SAMPLE_STRIDE, 16);
        assert_eq!(sched.controller.phases.rounds, 3);
        for seconds in [stats.prepare_seconds, stats.solve_seconds] {
            assert!(seconds.is_finite() && seconds > 0.0, "{seconds}");
        }
        // A scheduler that never decided a round reports zeros, not NaN.
        let mut idle = scheduler();
        let empty = ContextFixture {
            pending: Vec::new(),
            ..context_fixture(1, 17)
        };
        idle.schedule(&ctx_from(&empty, 6.0, 0.5));
        let stats = idle.stats();
        assert_eq!(stats.rounds, 0);
        assert_eq!(
            (
                stats.prepare_seconds.to_bits(),
                stats.solve_seconds.to_bits()
            ),
            (0, 0)
        );
    }

    #[test]
    fn horizon_caps_the_solve_window_and_defers_the_rest() {
        let mut fixture = context_fixture(20, 23);
        for p in &mut fixture.pending {
            p.received_at = Seconds::from_hours(6.0);
        }
        let ctx = ctx_from(&fixture, 6.0, 1.0);
        let mut sched = WaterWiseScheduler::new(
            Arc::new(SyntheticTelemetry::with_seed(3)),
            FootprintEstimator::paper_default(),
            WaterWiseConfig::default().with_horizon(Some(5)),
        );
        let decision = sched.schedule(&ctx);
        assert_eq!(decision.assignments.len(), 5, "window must cap the batch");
        assert_eq!(sched.stats().slack_truncations, 1);
    }

    #[test]
    fn zero_horizon_is_clamped_at_config_build_time() {
        // Regression: `with_horizon(Some(0))` used to yield an empty solve
        // batch every slot, deferring every pending job forever. The config
        // builder now clamps to a one-job window.
        let config = WaterWiseConfig::default().with_horizon(Some(0));
        assert_eq!(config.horizon, Some(1));

        let mut fixture = context_fixture(8, 27);
        for p in &mut fixture.pending {
            p.received_at = Seconds::from_hours(6.0);
        }
        let ctx = ctx_from(&fixture, 6.0, 1.0);
        let mut sched = WaterWiseScheduler::new(
            Arc::new(SyntheticTelemetry::with_seed(3)),
            FootprintEstimator::paper_default(),
            config,
        );
        let decision = sched.schedule(&ctx);
        assert_eq!(
            decision.assignments.len(),
            1,
            "a clamped zero horizon must still make progress"
        );
    }

    #[test]
    fn an_attached_cache_changes_nothing() {
        // 15 slots for 13 jobs: the hour-6 batch reaches `solve_with`, and
        // the same round twice is solved twice, attached or not.
        let fixture = capacity_bound_fixture(13, 33, 3);
        let mut plain = scheduler();
        let mut attached = scheduler();
        attached.attach_cache(SolutionCache::shared());
        for hour in [6.0, 6.0, 6.25, 7.0] {
            let ctx = ctx_from(&fixture, hour, 0.5);
            assert_eq!(plain.schedule(&ctx), attached.schedule(&ctx), "hour {hour}");
        }
        let untimed = |stats: SolveStats| SolveStats {
            prepare_seconds: 0.0,
            solve_seconds: 0.0,
            ..stats
        };
        assert_eq!(untimed(plain.stats()), untimed(attached.stats()));
        let activity = attached.solver_activity().unwrap();
        assert_eq!(plain.solver_activity().unwrap(), activity);
        assert_eq!(activity.solves, 2, "both hour-6 rounds solve: {activity:?}");
        assert_eq!(
            (
                activity.cache_exact_hits,
                activity.cache_hint_hits,
                activity.cache_misses
            ),
            (0, 0, 0)
        );
    }

    #[test]
    fn solver_activity_reports_cumulative_work() {
        // A round decided without a model is no solver work: the activity
        // stays at zero — for a certified hint, and for a round whose capacity
        // rows bind (10 slots for 10 jobs) but whose optimum the kernel
        // proves unique.
        let roomy = context_fixture(10, 25);
        let bound = capacity_bound_fixture(10, 25, 2);
        let mut sched = scheduler();
        assert_eq!(sched.solver_activity().unwrap(), SolverActivity::default());
        for (fixture, certified) in [(&roomy, 1), (&bound, 2)] {
            sched.schedule(&ctx_from(fixture, 6.0, 0.5));
            assert_eq!(sched.stats().certified_rounds, certified);
            assert_eq!(sched.solver_activity().unwrap(), SolverActivity::default());
        }
        // The all-MILP reference solves both, and its activity adds them up.
        let mut reference = WaterWiseScheduler::new(
            Arc::new(SyntheticTelemetry::with_seed(3)),
            FootprintEstimator::paper_default(),
            WaterWiseConfig::default().with_warm_start(false),
        );
        reference.schedule(&ctx_from(&roomy, 6.0, 0.5));
        let first = reference.solver_activity().unwrap();
        assert_eq!(first.solves, 1);
        reference.schedule(&ctx_from(&bound, 6.0, 0.5));
        let activity = reference.solver_activity().unwrap();
        assert_eq!(activity.solves, 2);
        assert!(activity.simplex_pivots > first.simplex_pivots);
    }

    /// What the MILP path answers: [`assignment_model`] solved as
    /// `solve_assignment` solves it.
    fn solved(
        numerics: &RoundNumerics,
        capacities: &[usize],
        soft_penalty: Option<f64>,
    ) -> waterwise_milp::Solution {
        assignment_model(priced(numerics).columns(), capacities, soft_penalty)
            .solve()
            .unwrap()
    }

    /// The assignment `chosen` as the 0/1 point of [`assignment_model`]'s
    /// layout.
    fn one_hot(chosen: &[usize], n_regions: usize) -> Vec<f64> {
        let mut dense = vec![0.0; chosen.len() * n_regions];
        for (m, &n) in chosen.iter().enumerate() {
            dense[m * n_regions + n] = 1.0;
        }
        dense
    }

    #[test]
    fn the_certificate_draws_its_lines_where_the_kernel_does() {
        let tol = SimplexConfig::default().tolerance;
        // One job hinted to region 0 at cost 0: region 1's reduced cost is
        // its cost. Returns the certificate's verdict and the solver's answer.
        let verdict = |rival_cost: f64, rival_ratio: f64, soft_penalty: Option<f64>| {
            let job = numerics(&[(&[0.0, rival_cost], &[0.25, rival_ratio], 0.25)]);
            let accepted = certified(&job, &[1, 1], soft_penalty, &[0], tol, &mut Vec::new());
            (accepted, solved(&job, &[1, 1], soft_penalty).values)
        };
        let (stays, moves) = (vec![1.0, 0.0], vec![0.0, 1.0]);
        // The hinted region sits exactly at the tolerance: admitted. A rival
        // at `−tol` is not *below* `−tol`, so nothing enters ...
        assert_eq!(verdict(-tol, 0.0, None), (true, stays.clone()));
        assert_eq!(verdict(-tol, 0.0, Some(10.0)), (true, stays.clone()));
        // ... at `−2·tol` it does, and the solver moves the job.
        assert_eq!(verdict(-2.0 * tol, 0.0, None), (false, moves.clone()));
        // A cheaper rival exactly at the tolerance is a free arc, not a fixed
        // one: it is never waved through as a flip.
        assert_eq!(verdict(-1.0, 0.25, None), (false, moves.clone()));
        // Past the tolerance it is fixed at zero and, its region having a
        // free slot, only flips: the hard model keeps the hint, the soft one
        // (where the arc is free and the penalty tiny) does not.
        let past = 0.25 + f64::EPSILON;
        assert_eq!(verdict(-1.0, past, None), (true, stays));
        assert_eq!(verdict(-1.0, past, Some(10.0)), (false, moves));

        // The same fixed arc into a region the hint filled: the flip ties
        // with the full region's slack at ratio 0, so the round is solved.
        let settled = (&[0.5, 0.0][..], &[0.0, 0.0][..], 0.25);
        let tempted = (&[0.0, -1.0][..], &[0.0, 0.9][..], 0.25);
        let batch = numerics(&[settled, tempted]);
        let free = &mut Vec::new();
        assert!(!certified(&batch, &[1, 1], None, &[1, 0], tol, free));
        assert!(certified(&batch, &[1, 2], None, &[1, 0], tol, free));
        assert_eq!(solved(&batch, &[1, 2], None).values, one_hot(&[1, 0], 2));
    }

    #[test]
    fn a_non_finite_cost_is_never_certified_and_reaches_validate() {
        let tol = SimplexConfig::default().tolerance;
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for soft_penalty in [None, Some(10.0)] {
                // At the hinted region, at a free rival, and at a fixed rival
                // whose region has room (which a finite cost would flip).
                for (at, ratio) in [(0, 0.0), (1, 0.0), (1, 0.9)] {
                    let mut batch = numerics(&[(&[0.1, 0.2], &[0.0, ratio], 0.5)]);
                    batch.coeffs[at] = poison;
                    assert!(
                        !certified(&batch, &[2, 2], soft_penalty, &[0], tol, &mut Vec::new()),
                        "{poison} at region {at} (ratio {ratio}, soft {soft_penalty:?}) certified"
                    );
                    let model = assignment_model(priced(&batch).columns(), &[2, 2], soft_penalty);
                    assert!(matches!(
                        model.validate(),
                        Err(waterwise_milp::MilpError::NonFiniteCoefficient { .. })
                    ));
                }
            }
        }

        // End to end: a provider whose reading for one region is NaN. Every
        // job's cost there is NaN; both models are refused by `validate` as
        // before (no solve, no placement) instead of the hint being returned.
        struct Poisoned(SyntheticTelemetry);
        impl ConditionsProvider for Poisoned {
            fn conditions(
                &self,
                region: Region,
                at: Seconds,
            ) -> waterwise_sustain::RegionConditions {
                let mut conditions = self.0.conditions(region, at);
                if region == Region::Milan {
                    conditions.carbon_intensity = waterwise_sustain::CarbonIntensity::new(f64::NAN);
                }
                conditions
            }
        }
        let fixture = context_fixture(8, 35);
        let mut sched =
            WaterWiseScheduler::with_defaults(Arc::new(Poisoned(SyntheticTelemetry::with_seed(3))));
        let decision = sched.schedule(&ctx_from(&fixture, 6.0, 0.5));
        assert!(decision.assignments.is_empty());
        let stats = sched.stats();
        assert_eq!(
            (stats.rounds, stats.certified_rounds, stats.soft_fallbacks),
            (1, 0, 1)
        );
        assert_eq!(sched.solver_activity().unwrap().solves, 0);
    }

    #[test]
    fn without_warm_start_no_round_is_certified() {
        // Roomy regions: the default scheduler certifies every round, the
        // all-MILP reference solves every one, and they place alike.
        let fixture = capacity_bound_fixture(16, 37, 50);
        let provider: Arc<dyn ConditionsProvider> = Arc::new(SyntheticTelemetry::with_seed(3));
        let mut default = WaterWiseScheduler::with_defaults(provider.clone());
        let mut reference = WaterWiseScheduler::new(
            provider,
            FootprintEstimator::paper_default(),
            WaterWiseConfig::default().with_warm_start(false),
        );
        for hour in [6.0, 6.5, 8.0] {
            let ctx = ctx_from(&fixture, hour, 0.5);
            assert_eq!(
                default.schedule(&ctx),
                reference.schedule(&ctx),
                "hour {hour}"
            );
        }
        assert_eq!(default.stats().certified_rounds, 3);
        assert_eq!(
            default.solver_activity().unwrap(),
            SolverActivity::default()
        );
        assert_eq!(reference.stats().certified_rounds, 0);
        assert_eq!(reference.solver_activity().unwrap().solves, 3);
    }

    #[test]
    fn empty_pending_or_zero_capacity_defers() {
        let mut fixture = context_fixture(5, 15);
        let empty_ctx = SchedulingContext {
            now: Seconds::zero(),
            pending: &[],
            regions: &fixture.regions,
            delay_tolerance: 0.5,
            transfer: &fixture.transfer,
        };
        assert!(scheduler().schedule(&empty_ctx).assignments.is_empty());

        for v in &mut fixture.regions {
            v.busy_servers = v.total_servers;
        }
        let ctx = ctx_from(&fixture, 1.0, 0.5);
        assert!(scheduler().schedule(&ctx).assignments.is_empty());
    }

    /// The round's MILP as the paper writes it — Eq. 11/13 as one weighted
    /// row per job, Eq. 12's penalty as a variable `P[m]` per job after the
    /// `x` block. The oracle [`assignment_model`] is held to; lives only here.
    fn paper_literal_model(
        numerics: &RoundNumerics,
        capacities: &[usize],
        soft_penalty: Option<f64>,
    ) -> Model {
        let n_regions = capacities.len();
        let x = |m: usize, n: usize| Var::from_index(m * n_regions + n);
        let penalty = |m: usize| Var::from_index(numerics.len() * n_regions + m);
        let mut model = Model::new("paper-literal");
        for _ in 0..numerics.len() * n_regions {
            model.add_binary("");
        }
        let mut objective = LinExpr::zero();
        for (m, numbers) in numerics.jobs().enumerate() {
            for (n, &coeff) in numbers.coeffs.iter().enumerate() {
                objective.add_term(x(m, n), coeff);
            }
        }
        if let Some(sigma) = soft_penalty {
            for m in 0..numerics.len() {
                model.add_non_negative("");
                objective.add_term(penalty(m), sigma);
            }
        }
        model.minimize(objective);
        for (m, numbers) in numerics.jobs().enumerate() {
            let assign = LinExpr::sum((0..n_regions).map(|n| LinExpr::from(x(m, n))));
            model.add_constraint("", assign, Sense::Equal, 1.0);
            let mut delay = LinExpr::zero();
            for (n, &ratio) in numbers.latency_ratio.iter().enumerate() {
                delay.add_term(x(m, n), ratio);
            }
            if soft_penalty.is_some() {
                delay.add_term(penalty(m), -1.0);
            }
            model.add_constraint("", delay, Sense::LessEqual, numbers.remaining_tolerance);
        }
        for (n, &capacity) in capacities.iter().enumerate() {
            let load = LinExpr::sum((0..numerics.len()).map(|m| LinExpr::from(x(m, n))));
            model.add_constraint("", load, Sense::LessEqual, capacity as f64);
        }
        model
    }

    use proptest::prelude::*;

    /// Batch size up to which the paper-literal MILP is solved to proven
    /// optimality in the property test below.
    const ORACLE_JOBS: usize = 12;

    /// A random batch in the shape `prepare_numerics` hands the model, and
    /// its regions' capacities (`fill` × the batch size, split by `shares`).
    fn random_round(
        n_jobs: usize,
        n_regions: usize,
        (loose, homes, fill): (bool, bool, f64),
        draws: &[(f64, f64, f64)],
        shares: &[f64],
    ) -> (RoundNumerics, Vec<usize>) {
        let mut batch = RoundNumerics::default();
        batch.reset(n_regions);
        for m in 0..n_jobs {
            let row = &draws[m * 8..m * 8 + n_regions];
            batch.coeffs.extend(row.iter().map(|d| d.0));
            batch.latency_ratio.extend(row.iter().map(|d| d.1));
            if homes {
                batch.latency_ratio[m * n_regions + m * 5 % n_regions] = 0.0;
            }
            let tolerance = if loose { 0.5 } else { row[0].2 };
            batch.remaining_tolerance.push(tolerance);
        }
        let share_sum: f64 = shares[..n_regions].iter().sum();
        let capacities = shares[..n_regions]
            .iter()
            .map(|s| (fill * n_jobs as f64 * s / share_sum).round() as usize)
            .collect();
        (batch, capacities)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The slack manager's selection keeps what the stable full sort it
        /// replaced kept, in the same order. Urgencies come from five values,
        /// `0.0` and `-0.0` among them, so most comparisons tie.
        #[test]
        fn most_urgent_first_is_the_stable_sorts_prefix(
            draws in prop::collection::vec(0usize..5, 1..80),
            cut in 0.0f64..1.0,
        ) {
            let values = [-30.0, -0.0, 0.0, 12.5, 1e9];
            let ranked: Vec<(usize, f64)> =
                draws.iter().enumerate().map(|(i, &d)| (i, values[d])).collect();
            let limit = (cut * ranked.len() as f64) as usize;
            let mut sorted = ranked.clone();
            sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
            let mut selected = ranked;
            most_urgent_first(&mut selected, limit);
            let bits = |pairs: &[(usize, f64)]| -> Vec<(usize, u64)> {
                pairs.iter().map(|&(i, u)| (i, u.to_bits())).collect()
            };
            prop_assert_eq!(bits(&selected[..limit]), bits(&sorted[..limit]));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Arc bounds + folded penalty == weighted rows + penalty variables,
        /// and the former never branches.
        #[test]
        fn transportation_form_matches_the_paper_literal_milp_at_the_root(
            shape in (1usize..61, 1usize..9),
            // Tolerance 0.5 for every job, or per job and mostly tight.
            loose in 0usize..2,
            // Whether every job has a zero-latency home region.
            homes in 0usize..2,
            // Total capacity as a fraction of the batch: < 1 cannot place
            // every job (Eq. 9 fails in both forms), ≈ 1 binds, > 1 is slack.
            fill in 0.8f64..2.2,
            draws in prop::collection::vec((0.05f64..1.0, 0.0f64..0.7, 0.0f64..0.3), 60 * 8),
            shares in prop::collection::vec(0.2f64..1.0, 8),
        ) {
            use waterwise_milp::SolveStatus::{Infeasible, Optimal};
            let (n_jobs, n_regions) = shape;
            let regime = (loose == 1, homes == 1, fill);
            let simplex = SimplexConfig::default();
            // An open node holds two bound vectors, not a tableau.
            let to_optimality = BranchBoundConfig {
                max_nodes: 20_000,
                ..BranchBoundConfig::default()
            };
            for soft_penalty in [None, Some(10.0)] {
                // Integral at the root at every size ...
                let (batch, capacities) = random_round(n_jobs, n_regions, regime, &draws, &shares);
                let model = assignment_model(priced(&batch).columns(), &capacities, soft_penalty);
                prop_assert_eq!(model.num_vars(), n_jobs * n_regions);
                prop_assert_eq!(model.num_constraints(), n_jobs + n_regions);
                let solution = model.solve().unwrap();
                prop_assert_eq!(solution.nodes_explored, 1);
                prop_assert!(matches!(solution.status, Optimal | Infeasible));

                // ... and equal to the literal MILP wherever branch-and-bound
                // can finish that one: its relaxation is weak enough that
                // 20 000 nodes do not settle 31 jobs × 5 regions under binding
                // capacity, so the oracle sees the first ORACLE_JOBS jobs.
                let n_jobs = n_jobs.min(ORACLE_JOBS);
                let (batch, capacities) = random_round(n_jobs, n_regions, regime, &draws, &shares);
                let ours = assignment_model(priced(&batch).columns(), &capacities, soft_penalty).solve().unwrap();
                prop_assert_eq!(ours.nodes_explored, 1);
                let literal = paper_literal_model(&batch, &capacities, soft_penalty);
                let theirs = literal.solve_with(&simplex, &to_optimality).unwrap();
                prop_assert!(
                    matches!(theirs.status, Optimal | Infeasible),
                    "the oracle ran out of nodes: {:?}", theirs.status
                );
                prop_assert_eq!(ours.status, theirs.status);
                if theirs.status == Infeasible {
                    continue;
                }
                prop_assert!(
                    (ours.objective - theirs.objective).abs() < 1e-7,
                    "objective {} vs the literal model's {}", ours.objective, theirs.objective
                );
                // Our assignment, with each `P[m]` at the violation it incurs,
                // is a feasible point of the literal model at the same cost.
                let mut point = ours.values.clone();
                let mut cost = 0.0;
                for (m, numbers) in batch.jobs().enumerate() {
                    let chosen = (0..n_regions)
                        .find(|&n| ours.values[m * n_regions + n] == 1.0)
                        .expect("an integral assignment row");
                    cost += numbers.coeffs[chosen];
                    if let Some(sigma) = soft_penalty {
                        point.push(numbers.violation(chosen));
                        cost += sigma * numbers.violation(chosen);
                    }
                }
                prop_assert!(literal.is_feasible(&point, 1e-9));
                prop_assert!((cost - theirs.objective).abs() < 1e-7);
            }
        }
    }

    /// [`build_hint`]'s hint for the batch, if every job has a feasible region.
    fn greedy_hint(
        batch: &RoundNumerics,
        capacities: &[usize],
        soften: bool,
    ) -> Option<Vec<usize>> {
        let mut hint = Vec::new();
        build_hint(batch, capacities, soften, &mut hint, &mut Vec::new()).then_some(hint)
    }

    /// Cases of the property below, and how they fell: certified, and not
    /// (declined or uncertified); the certified ones also by whether the
    /// kernel proves them unique.
    const CERTIFICATE_CASES: usize = 256;
    static ACCEPTED: AtomicUsize = AtomicUsize::new(0);
    static REJECTED: AtomicUsize = AtomicUsize::new(0);
    static CERTIFIED_UNIQUE: AtomicUsize = AtomicUsize::new(0);
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CERTIFICATE_CASES as u32))]

        /// Certified == solved: whenever [`certify_columns`] accepts the hard
        /// model's picks, which the scheduler then commits, they are an
        /// optimum of the MILP, and where the kernel proves the optimum
        /// unique the MILP returns exactly the picks. On a tie the solver
        /// may return another optimum of the same cost.
        #[test]
        fn a_certified_hint_is_an_optimum_of_the_milp(
            shape in (1usize..61, 1usize..9),
            loose in 0usize..2,
            // 0: no zero-latency home region, and a tight round has no hint.
            homes in 0usize..4,
            fill in 0.8f64..2.2,
            // 0: `fill` × the batch is the total, split by `shares` (some
            // region binds); else every region holds that many (rarely binds).
            roomy in 0usize..3,
            // 1: costs on a coarse grid (equal-cost regions); 2: that, and
            // every odd job a copy of the job before it (duplicate jobs).
            ties in 0usize..3,
            draws in prop::collection::vec((0.05f64..1.0, 0.0f64..0.7, 0.0f64..0.3), 60 * 8),
            shares in prop::collection::vec(0.2f64..1.0, 8),
        ) {
            let (n_jobs, n_regions) = shape;
            let regime = (loose == 1, homes != 0, fill);
            let (mut batch, mut capacities) =
                random_round(n_jobs, n_regions, regime, &draws, &shares);
            if roomy != 0 {
                capacities.fill((fill * n_jobs as f64).round() as usize);
            }
            force_ties(&mut batch, ties);
            let tol = SimplexConfig::default().tolerance;
            let (verdict, picks, _) = column_verdict(&batch, &capacities, tol);
            if verdict == Some(Hint::Certified) {
                ACCEPTED.fetch_add(1, Relaxed);
                let solution = solved(&batch, &capacities, None);
                prop_assert_eq!(solution.status, waterwise_milp::SolveStatus::Optimal);
                prop_assert_eq!(solution.nodes_explored, 1);
                let cost = |(m, &n): (usize, &usize)| batch.job(m).cost(n, None);
                let objective: f64 = picks.iter().enumerate().map(cost).sum();
                prop_assert!(
                    (objective - solution.objective).abs() <= 2.0 * (n_jobs + n_regions) as f64 * tol,
                    "picks {} vs solver {}", objective, solution.objective
                );
                let mut transport = Transport::default();
                let verdict = transport.solve(&capacities, arcs(priced(&batch).columns(), None), tol);
                if let Verdict::Unique(chosen) = verdict {
                    CERTIFIED_UNIQUE.fetch_add(1, Relaxed);
                    prop_assert_eq!(chosen, &picks[..]);
                    prop_assert_eq!(solution.values, one_hot(&picks, n_regions));
                }
            } else {
                REJECTED.fetch_add(1, Relaxed);
            }
            // The last case checks that the generator exercised both sides.
            let (yes, no) = (ACCEPTED.load(Relaxed), REJECTED.load(Relaxed));
            if yes + no == CERTIFICATE_CASES {
                let third = CERTIFICATE_CASES / 3;
                prop_assert!(yes >= third && no >= third, "{yes} certified, {no} not");
                let unique = CERTIFIED_UNIQUE.load(Relaxed);
                prop_assert!(3 * unique >= yes, "{unique} of {yes} certified picks unique");
            }
        }
    }

    /// `ties ≥ 1`: round every cost to a coarse grid (equal-cost regions);
    /// `ties == 2`: also make every odd job a copy of the job before it.
    fn force_ties(batch: &mut RoundNumerics, ties: usize) {
        if ties >= 1 {
            for coeff in &mut batch.coeffs {
                *coeff = (*coeff * 4.0).round() / 4.0;
            }
        }
        if ties == 2 {
            let r = batch.n_regions;
            for m in (1..batch.len()).step_by(2) {
                let (from, to) = ((m - 1) * r..m * r, m * r);
                batch.coeffs.copy_within(from.clone(), to);
                batch.latency_ratio.copy_within(from, to);
                batch.remaining_tolerance[m] = batch.remaining_tolerance[m - 1];
            }
        }
    }

    /// Whether some region is the cheapest open arc of more jobs than it
    /// holds, so that its capacity row needs a price.
    fn capacity_bound(batch: &RoundNumerics, capacities: &[usize], soft: Option<f64>) -> bool {
        let mut wanted = vec![0; capacities.len()];
        for numbers in batch.jobs() {
            let open = (0..capacities.len()).filter(|&n| soft.is_some() || numbers.admits(n));
            let by_cost =
                |a: &usize, b: &usize| numbers.cost(*a, soft).total_cmp(&numbers.cost(*b, soft));
            if let Some(n) = open.min_by(by_cost) {
                wanted[n] += 1;
            }
        }
        wanted.iter().zip(capacities).any(|(w, c)| w > c)
    }

    /// Cases of the kernel property below, and how its (case, model)
    /// instances fell: capacity-bound, and by the kernel's verdict.
    const KERNEL_CASES: usize = 256;
    static BOUND: AtomicUsize = AtomicUsize::new(0);
    static UNIQUE: AtomicUsize = AtomicUsize::new(0);
    static TIED: AtomicUsize = AtomicUsize::new(0);
    static INFEASIBLE: AtomicUsize = AtomicUsize::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(KERNEL_CASES as u32))]

        /// Kernel == solver: on every instance the kernel's optimum costs what
        /// the MILP's does, it is infeasible exactly when the MILP is, and an
        /// optimum it proves unique is the MILP's assignment.
        #[test]
        fn the_priced_kernel_is_what_the_milp_returns(
            shape in (1usize..61, 1usize..9),
            loose in 0usize..2,
            homes in 0usize..4,
            // Below 1 the batch does not fit: Hall's condition fails in both
            // models. Just above it, capacity binds.
            fill in 0.8f64..1.6,
            // 0: region 0 holds nothing.
            full in 0usize..3,
            ties in 0usize..3,
            draws in prop::collection::vec((0.05f64..1.0, 0.0f64..0.7, 0.0f64..0.3), 60 * 8),
            shares in prop::collection::vec(0.2f64..1.0, 8),
        ) {
            use waterwise_milp::SolveStatus::{Infeasible, Optimal};
            let (n_jobs, n_regions) = shape;
            let regime = (loose == 1, homes != 0, fill);
            let (mut batch, mut capacities) =
                random_round(n_jobs, n_regions, regime, &draws, &shares);
            if full == 0 {
                capacities[0] = 0;
            }
            force_ties(&mut batch, ties);
            let (simplex, branch_bound) = (SimplexConfig::default(), BranchBoundConfig::default());
            let mut transport = Transport::default();
            for soft_penalty in [None, Some(10.0)] {
                if capacity_bound(&batch, &capacities, soft_penalty) {
                    BOUND.fetch_add(1, Relaxed);
                }
                let verdict = transport.solve(&capacities, arcs(priced(&batch).columns(), soft_penalty), simplex.tolerance);
                let (unique, infeasible) =
                    (matches!(verdict, Verdict::Unique(_)), verdict == Verdict::Infeasible);
                let model = assignment_model(priced(&batch).columns(), &capacities, soft_penalty);
                let solved = model.solve_with(&simplex, &branch_bound).unwrap();
                if !infeasible {
                    let point = one_hot(transport.assignment(), n_regions);
                    prop_assert!(model.is_feasible(&point, 0.0), "the kernel placed off the model");
                }
                prop_assert_eq!(solved.nodes_explored, 1);
                prop_assert_eq!(infeasible, solved.status == Infeasible, "{:?}", solved.status);
                if infeasible {
                    INFEASIBLE.fetch_add(1, Relaxed);
                    continue;
                }
                prop_assert_eq!(solved.status, Optimal);
                let chosen = transport.assignment();
                let cost = |(m, &n): (usize, &usize)| batch.job(m).cost(n, soft_penalty);
                let objective: f64 = chosen.iter().enumerate().map(cost).sum();
                prop_assert!(
                    (objective - solved.objective).abs() <= simplex.tolerance,
                    "kernel {} vs solver {}", objective, solved.objective
                );
                if unique {
                    UNIQUE.fetch_add(1, Relaxed);
                    prop_assert_eq!(&solved.values, &one_hot(chosen, n_regions));
                } else {
                    TIED.fetch_add(1, Relaxed);
                }
            }
            // The last case checks what the generator exercised.
            let verdicts = [&UNIQUE, &TIED, &INFEASIBLE].map(|count| count.load(Relaxed));
            if verdicts.iter().sum::<usize>() == 2 * KERNEL_CASES {
                let bound = BOUND.load(Relaxed);
                prop_assert!(3 * bound >= 2 * KERNEL_CASES, "{bound} capacity-bound");
                prop_assert!(verdicts.iter().all(|&n| n > 0), "unique, tied, infeasible: {verdicts:?}");
            }
        }
    }

    /// Cases of the property below, and how its (case, model) instances fell.
    const FUSED_CASES: usize = 512;
    static FUSED: [AtomicUsize; 3] = [const { AtomicUsize::new(0) }; 3];

    /// An index per verdict: no hint (or declined), uncertified, certified.
    fn outcome(verdict: Option<Hint>) -> usize {
        verdict.map_or(0, |hint| hint as usize + 1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(FUSED_CASES as u32))]

        /// One walk == two passes: [`hint_and_certify`] returns the hint of
        /// [`build_hint`] and the verdict of [`certified`] on it, for hard and
        /// soft models, with roomy, binding and full regions, fixed arcs, tied
        /// costs, and NaN or ±∞ costs.
        #[test]
        fn hint_and_certify_walks_as_the_two_passes(
            shape in (1usize..61, 1usize..9),
            loose in 0usize..2,
            homes in 0usize..4,
            fill in 0.8f64..2.2,
            // 0: `fill` × the batch split by `shares`; 1: every region holds
            // that many; 2: split, and region 0 holds nothing.
            room in 0usize..3,
            ties in 0usize..3,
            // A NaN, +∞ or −∞ cost (kinds 0–2) at a drawn arc; else none.
            poison in (0usize..6, 0usize..480),
            draws in prop::collection::vec((0.05f64..1.0, 0.0f64..0.7, 0.0f64..0.3), 60 * 8),
            shares in prop::collection::vec(0.2f64..1.0, 8),
        ) {
            let (n_jobs, n_regions) = shape;
            let regime = (loose == 1, homes != 0, fill);
            let (mut batch, mut capacities) =
                random_round(n_jobs, n_regions, regime, &draws, &shares);
            match room {
                1 => capacities.fill((fill * n_jobs as f64).round() as usize),
                2 => capacities[0] = 0,
                _ => {}
            }
            force_ties(&mut batch, ties);
            if let Some(&value) = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY].get(poison.0) {
                let at = poison.1 % batch.coeffs.len();
                batch.coeffs[at] = value;
            }
            let tol = SimplexConfig::default().tolerance;
            let (mut hint, mut left, mut tempted) = (Vec::new(), Vec::new(), Vec::new());
            for soft_penalty in [None, Some(10.0)] {
                let reference = greedy_hint(&batch, &capacities, soft_penalty.is_some())
                    .map(|expected| {
                        let free = &mut Vec::new();
                        let verdict = certified(&batch, &capacities, soft_penalty, &expected, tol, free);
                        (expected, verdict)
                    });
                let fused = hint_and_certify(
                    &batch, &capacities, soft_penalty, tol, &mut hint, &mut left, &mut tempted,
                );
                match reference {
                    None => prop_assert_eq!(fused, None),
                    Some((expected, verdict)) => {
                        prop_assert_eq!(&hint, &expected);
                        let certified = if verdict { Hint::Certified } else { Hint::Uncertified };
                        prop_assert_eq!(fused, Some(certified));
                    }
                }
                FUSED[outcome(fused)].fetch_add(1, Relaxed);
            }
            // The last case checks that the generator reached every outcome.
            let counts = FUSED.each_ref().map(|count| count.load(Relaxed));
            if counts.iter().sum::<usize>() == 2 * FUSED_CASES {
                prop_assert!(counts.iter().all(|&n| n >= FUSED_CASES / 8), "absent, uncertified, certified: {counts:?}");
            }
        }
    }

    /// The picks `prepare_numerics` folds as it writes the columns: each
    /// admissible region with a free slot [`offer`]ed to each job, region by
    /// region. Each job's pick (or [`UNPICKED`]) and its coefficient.
    fn column_picks(columns: Columns<'_>, capacities: &[usize]) -> (Vec<usize>, Vec<f64>) {
        let n_jobs = columns.remaining_tolerance.len();
        let (mut hint, mut at_hint) = (vec![UNPICKED; n_jobs], vec![0.0; n_jobs]);
        for n in (0..capacities.len()).filter(|&n| capacities[n] > 0) {
            for (m, &tolerance) in columns.remaining_tolerance.iter().enumerate() {
                let cell = n * n_jobs + m;
                if columns.latency_ratio[cell] <= tolerance {
                    offer(&mut hint[m], &mut at_hint[m], n, columns.coeffs[cell]);
                }
            }
        }
        (hint, at_hint)
    }

    /// [`certify_columns`] on `batch`'s hard model, over its columns: the
    /// verdict, the picks and the free slots they leave.
    fn column_verdict(
        batch: &RoundNumerics,
        capacities: &[usize],
        tol: f64,
    ) -> (Option<Hint>, Vec<usize>, Vec<usize>) {
        let prices = priced(batch);
        let columns = prices.columns();
        let (hint, at_hint) = column_picks(columns, capacities);
        let (mut left, mut tempted) = (Vec::new(), Vec::new());
        let verdict = certify_columns(
            columns,
            capacities,
            tol,
            &hint,
            &at_hint,
            &mut left,
            &mut tempted,
        );
        (verdict, hint, left)
    }

    /// Cases of the property below, and how they fell: declined,
    /// uncertified, certified.
    const COLUMN_CASES: usize = 512;
    static COLUMN: [AtomicUsize; 3] = [const { AtomicUsize::new(0) }; 3];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(COLUMN_CASES as u32))]

        /// Columns == walk: on the hard model, wherever [`certify_columns`]
        /// gives a verdict it is [`hint_and_certify`]'s, on the same hint and
        /// free slots when certified; where it declines, the walk finds no
        /// hint or some region was picked more often than it has free slots.
        /// Roomy, binding, full and empty regions, fixed arcs, tied costs,
        /// NaN or ±∞ costs; every outcome exercised.
        #[test]
        fn the_column_certificate_decides_as_the_walk_does(
            shape in (1usize..61, 1usize..9),
            loose in 0usize..2,
            homes in 0usize..4,
            fill in 0.8f64..2.2,
            // 0: `fill` × the batch split by `shares`; 1: every region holds
            // that many; 2: split, and region 0 holds nothing.
            room in 0usize..3,
            ties in 0usize..3,
            // A NaN, +∞ or −∞ cost (kinds 0–2) at a drawn arc; else none.
            poison in (0usize..6, 0usize..480),
            draws in prop::collection::vec((0.05f64..1.0, 0.0f64..0.7, 0.0f64..0.3), 60 * 8),
            shares in prop::collection::vec(0.2f64..1.0, 8),
        ) {
            let (n_jobs, n_regions) = shape;
            let regime = (loose == 1, homes != 0, fill);
            let (mut batch, mut capacities) =
                random_round(n_jobs, n_regions, regime, &draws, &shares);
            match room {
                1 => capacities.fill((fill * n_jobs as f64).round() as usize),
                2 => capacities[0] = 0,
                _ => {}
            }
            force_ties(&mut batch, ties);
            if let Some(&value) = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY].get(poison.0) {
                let at = poison.1 % batch.coeffs.len();
                batch.coeffs[at] = value;
            }
            let tol = SimplexConfig::default().tolerance;
            let (verdict, picks, left) = column_verdict(&batch, &capacities, tol);
            let (mut hint, mut walk_left, mut tempted) = (Vec::new(), Vec::new(), Vec::new());
            let walk = hint_and_certify(
                &batch, &capacities, None, tol, &mut hint, &mut walk_left, &mut tempted,
            );
            match verdict {
                None => {
                    let mut picked = vec![0; n_regions];
                    picks.iter().filter(|&&n| n != UNPICKED).for_each(|&n| picked[n] += 1);
                    let overfilled = picked.iter().zip(&capacities).any(|(p, c)| p > c);
                    prop_assert!(walk.is_none() || overfilled, "declined a {walk:?} round");
                }
                Some(Hint::Certified) => {
                    prop_assert_eq!(walk, verdict);
                    prop_assert_eq!(&picks, &hint);
                    prop_assert_eq!(&left, &walk_left);
                }
                Some(Hint::Uncertified) => {
                    // A NaN ranks below no region, so a full region may make
                    // the walk pick differently and run out of regions later.
                    let nan = batch.coeffs.iter().any(|c| c.is_nan());
                    prop_assert!(walk == verdict || (nan && walk.is_none()), "{verdict:?} vs the walk's {walk:?}");
                }
            }
            COLUMN[outcome(verdict)].fetch_add(1, Relaxed);
            // The last case checks that the generator reached every outcome.
            let counts = COLUMN.each_ref().map(|count| count.load(Relaxed));
            if counts.iter().sum::<usize>() == COLUMN_CASES {
                prop_assert!(counts.iter().all(|&n| n >= COLUMN_CASES / 8), "declined, uncertified, certified: {counts:?}");
            }
        }
    }

    /// Cases of the property below, and how its (case, model) instances fell:
    /// certified in the columns; passed to the kernel by the walk too; certified
    /// by the walk where the kernel proves the optimum unique; and certified
    /// by the walk where the kernel calls the round tied, the MILP then
    /// returning the walk's hint or another optimum.
    const ORDER_CASES: usize = 512;
    static ORDER: [AtomicUsize; 5] = [const { AtomicUsize::new(0) }; 5];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(ORDER_CASES as u32))]

        /// Kernel == walk then kernel: with the walk gone from in front of the
        /// kernel, every round commits what it did, hard and soft, on
        /// [`the_column_certificate_decides_as_the_walk_does`]' generator. Both
        /// orders hand the kernel the same arcs, to the bit. They differ only
        /// where the walk certified a hint and the kernel calls the round
        /// tied: the MILP now decides it, and the hint and the MILP's answer
        /// are optima of [`assignment_model`] at one cost within the kernel's
        /// margin `2·(J+R)·tol`.
        #[test]
        fn without_the_walk_a_round_commits_what_it_did(
            shape in (1usize..61, 1usize..9),
            loose in 0usize..2,
            homes in 0usize..4,
            fill in 0.8f64..2.2,
            // 0: `fill` × the batch split by `shares`; 1: every region holds
            // that many; 2: split, and region 0 holds nothing.
            room in 0usize..3,
            ties in 0usize..3,
            // A NaN, +∞ or −∞ cost (kinds 0–2) at a drawn arc; else none.
            poison in (0usize..6, 0usize..480),
            draws in prop::collection::vec((0.05f64..1.0, 0.0f64..0.7, 0.0f64..0.3), 60 * 8),
            shares in prop::collection::vec(0.2f64..1.0, 8),
        ) {
            use waterwise_milp::SolveStatus::Optimal;
            let (n_jobs, n_regions) = shape;
            let regime = (loose == 1, homes != 0, fill);
            let (mut batch, mut capacities) =
                random_round(n_jobs, n_regions, regime, &draws, &shares);
            match room {
                1 => capacities.fill((fill * n_jobs as f64).round() as usize),
                2 => capacities[0] = 0,
                _ => {}
            }
            force_ties(&mut batch, ties);
            if let Some(&value) = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY].get(poison.0) {
                let at = poison.1 % batch.coeffs.len();
                batch.coeffs[at] = value;
            }
            let tol = SimplexConfig::default().tolerance;
            let margin = 2.0 * (n_jobs + n_regions) as f64 * tol;
            let prices = priced(&batch);
            let (mut hint, mut left, mut tempted) = (Vec::new(), Vec::new(), Vec::new());
            let mut transport = Transport::default();
            for soft_penalty in [None, Some(10.0)] {
                let soften = soft_penalty.is_some();
                let row_arc = |numbers: JobNumerics<'_>, n: usize| {
                    (numbers.cost(n, soft_penalty), soften || numbers.admits(n))
                };
                let rows: Vec<(f64, bool)> = batch
                    .jobs()
                    .flat_map(|numbers| (0..n_regions).map(move |n| row_arc(numbers, n)))
                    .collect();
                let columns: Vec<(f64, bool)> = arcs(prices.columns(), soft_penalty).collect();
                let split = |arcs: &[(f64, bool)]| -> (Vec<f64>, Vec<bool>) { arcs.iter().copied().unzip() };
                let ((row_costs, row_open), (costs, open)) = (split(&rows), split(&columns));
                prop_assert!(same_cells(&row_costs, &costs), "the rows and columns price the arcs apart");
                prop_assert_eq!(row_open, open);
                if !soften && column_verdict(&batch, &capacities, tol).0 == Some(Hint::Certified) {
                    ORDER[0].fetch_add(1, Relaxed);
                    continue;
                }
                let walk = hint_and_certify(
                    &batch, &capacities, soft_penalty, tol, &mut hint, &mut left, &mut tempted,
                );
                if walk != Some(Hint::Certified) {
                    ORDER[1].fetch_add(1, Relaxed);
                    continue;
                }
                match transport.solve(&capacities, columns, tol) {
                    Verdict::Unique(chosen) => {
                        prop_assert_eq!(chosen, &hint[..], "the kernel and the walk commit apart");
                        ORDER[2].fetch_add(1, Relaxed);
                    }
                    Verdict::Infeasible => prop_assert!(false, "the kernel found a hinted round infeasible"),
                    Verdict::Tied => {
                        let model = assignment_model(prices.columns(), &capacities, soft_penalty);
                        let solution = model.solve().unwrap();
                        prop_assert_eq!(solution.status, Optimal);
                        let hinted = one_hot(&hint, n_regions);
                        prop_assert!(model.is_feasible(&hinted, 0.0), "the hint placed off the model");
                        let cost = |(m, &n): (usize, &usize)| batch.job(m).cost(n, soft_penalty);
                        let objective: f64 = hint.iter().enumerate().map(cost).sum();
                        prop_assert!(
                            (objective - solution.objective).abs() <= margin,
                            "hint {} vs solver {}", objective, solution.objective
                        );
                        let same = solution.values == hinted;
                        ORDER[if same { 3 } else { 4 }].fetch_add(1, Relaxed);
                    }
                }
            }
            // The last case says how the instances fell, and checks that the
            // generator reached every class (the walk's tied hints together).
            let counts = ORDER.each_ref().map(|count| count.load(Relaxed));
            if counts.iter().sum::<usize>() == 2 * ORDER_CASES {
                eprintln!(
                    "columns {}, kernel in both orders {}, walk and kernel unique {}, \
                     walk and kernel tied: the MILP returns the hint {}, another optimum {}",
                    counts[0], counts[1], counts[2], counts[3], counts[4]
                );
                let tied = counts[3] + counts[4];
                prop_assert!(counts[..3].iter().all(|&n| n >= ORDER_CASES / 32) && tied > 0, "{counts:?}");
            }
        }
    }

    /// A round's pricing inputs, drawn from `batch` and its `capacities`:
    /// job `m`'s terms are cells of its row, region `n` is
    /// `ALL_REGIONS[n % HOMES]` (a job whose home that is stays there), and
    /// its conditions and reference term scale with `shares[n]`.
    struct PricingInputs {
        conditions: Vec<RegionConditions>,
        reference: Vec<f64>,
        capacities: Vec<usize>,
        fixed_transfer: Vec<Option<f64>>,
        jobs: Vec<f64>,
        homes: Vec<usize>,
        remaining_tolerance: Vec<f64>,
        picking: bool,
    }

    impl PricingInputs {
        fn of(batch: &RoundNumerics, capacities: Vec<usize>, shares: &[f64]) -> Self {
            use waterwise_sustain::{
                CarbonIntensity, WaterScarcityFactor, WaterUsageEffectiveness,
            };
            let (n_jobs, n_regions) = (batch.len(), batch.n_regions);
            let conditions = shares[..n_regions]
                .iter()
                .map(|&s| RegionConditions {
                    carbon_intensity: CarbonIntensity::new(100.0 + 500.0 * s),
                    ewif: waterwise_sustain::LitersPerKwh::new(0.5 + 3.0 * s),
                    wue: WaterUsageEffectiveness::new(0.2 + s),
                    wsf: WaterScarcityFactor::new(s),
                })
                .collect();
            let reference = shares[..n_regions].iter().map(|s| 0.05 * s).collect();
            let fixed_transfer = (0..HOMES)
                .flat_map(|home| {
                    let fixed =
                        move |n: usize| (n % HOMES != home).then(|| 900.0 * shares[(home + n) % 8]);
                    (0..n_regions).map(fixed)
                })
                .collect();
            // Job `m`'s energy, embodied carbon and water, wire time and
            // execution time, from cells of its row.
            let cell = |m: usize, k: usize| m * n_regions + k % n_regions;
            let terms: [&dyn Fn(usize) -> f64; JOB_COLUMNS] = [
                &|m| batch.coeffs[cell(m, 0)],
                &|m| 40.0 * batch.coeffs[cell(m, 1)],
                &|m| 0.5 * batch.latency_ratio[cell(m, 2)],
                &|m| 600.0 * batch.latency_ratio[cell(m, 0)],
                &|m| 1.0 + 4000.0 * batch.coeffs[cell(m, 3)],
            ];
            Self {
                conditions,
                reference,
                capacities,
                fixed_transfer,
                jobs: terms
                    .iter()
                    .flat_map(|term| (0..n_jobs).map(term))
                    .collect(),
                homes: (0..n_jobs).map(|m| m * 3 % HOMES).collect(),
                remaining_tolerance: batch.remaining_tolerance.clone(),
                picking: true,
            }
        }

        /// What [`Pricing::price`] writes for these inputs, with `lanes`:
        /// the coefficient and latency-ratio columns, the two maxima, the
        /// picks and their coefficients.
        fn price(&self, lanes: Option<Avx2>) -> ([Vec<f64>; 4], Vec<usize>, Vec<f64>) {
            let (n_jobs, n_regions) = (self.homes.len(), self.conditions.len());
            let mut maxima = [(); 2].map(|()| vec![f64::MIN_POSITIVE; n_jobs]);
            let mut cells = [(); 2].map(|()| vec![0.0; n_jobs * n_regions]);
            let (mut hint, mut at_hint) = (vec![UNPICKED; n_jobs], vec![0.0; n_jobs]);
            let ([max_carbon, max_water], [carbon, water]) = (&mut maxima, &mut cells);
            let estimator = FootprintEstimator::paper_default();
            Pricing {
                estimator: &estimator,
                weights: &ObjectiveWeights::paper_default(),
                conditions: &self.conditions,
                reference: &self.reference,
                capacities: &self.capacities,
                fixed_transfer: &self.fixed_transfer,
                jobs: JobColumns::of(&self.jobs, &self.homes, &self.remaining_tolerance),
                picking: self.picking,
                max_carbon,
                max_water,
                carbon,
                water,
                hint: &mut hint,
                at_hint: &mut at_hint,
            }
            .price(lanes);
            let [carbon, water] = cells;
            let [max_carbon, max_water] = maxima;
            ([carbon, water, max_carbon, max_water], hint, at_hint)
        }
    }

    /// Whether `a` and `b` hold the same bits, or a NaN each.
    fn same_cells(a: &[f64], b: &[f64]) -> bool {
        let same = |(x, y): (&f64, &f64)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
        a.len() == b.len() && a.iter().zip(b).all(same)
    }

    /// Says once, on a CPU without AVX2, that the lane body was not compared.
    static NO_LANES: std::sync::Once = std::sync::Once::new();

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Lanes == fused: the AVX2 lane body over a round's whole blocks and
        /// then the fused loop over the rest write the columns, maxima, picks
        /// and picked coefficients the fused loop writes alone, to the bit (a
        /// NaN only NaN on both sides). Every size from none to two blocks
        /// and one job, so the block/tail boundary is crossed; roomy, binding
        /// and full regions, no picking at all, tied regions and twin jobs,
        /// and a NaN or ±∞ job term.
        #[test]
        fn the_lane_body_prices_as_the_fused_loop(
            n_regions in 1usize..9,
            loose in 0usize..2,
            homes in 0usize..4,
            fill in 0.8f64..2.2,
            // 0: `fill` × the batch split by `shares`; 1: every region holds
            // that many; 2: split, and region 0 holds nothing; 3: split, and
            // nothing is picked (no `warm_start`).
            room in 0usize..4,
            ties in 0usize..3,
            // A NaN, +∞ or −∞ job term (kinds 0–2) at a drawn cell; else none.
            poison in (0usize..6, 0usize..480),
            draws in prop::collection::vec((0.05f64..1.0, 0.0f64..0.7, 0.0f64..0.3), 60 * 8),
            shares in prop::collection::vec(0.2f64..1.0, 8),
        ) {
            let Some(avx2) = Avx2::detect() else {
                NO_LANES.call_once(|| eprintln!("no AVX2 on this CPU: the lane body was not compared"));
                return;
            };
            // Tied costs: regions on a coarse grid price alike.
            let shares: Vec<f64> = match ties {
                0 => shares,
                _ => shares.iter().map(|s| (s * 4.0).round() / 4.0).collect(),
            };
            let regime = (loose == 1, homes != 0, fill);
            for n_jobs in 0..=2 * LANE_BLOCK + 1 {
                let (mut batch, mut capacities) =
                    random_round(n_jobs, n_regions, regime, &draws, &shares);
                match room {
                    1 => capacities.fill((fill * n_jobs as f64).round() as usize),
                    2 => capacities[0] = 0,
                    _ => {}
                }
                force_ties(&mut batch, ties);
                let mut inputs = PricingInputs::of(&batch, capacities, &shares);
                inputs.picking = room != 3;
                let poisoned = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY].get(poison.0);
                if let (Some(&value), false) = (poisoned, inputs.jobs.is_empty()) {
                    let at = poison.1 % inputs.jobs.len();
                    inputs.jobs[at] = value;
                }
                let (lanes, lane_hint, lane_at_hint) = inputs.price(Some(avx2));
                let (fused, hint, at_hint) = inputs.price(None);
                let names = ["coefficients", "latency ratios", "carbon maxima", "water maxima"];
                for ((name, lanes), fused) in names.iter().zip(&lanes).zip(&fused) {
                    prop_assert!(same_cells(lanes, fused), "{n_jobs} jobs: the {name} differ:\n{lanes:?}\n{fused:?}");
                }
                prop_assert_eq!(&lane_hint, &hint, "{} jobs: the picks differ", n_jobs);
                prop_assert!(same_cells(&lane_at_hint, &at_hint), "{n_jobs} jobs: the picked coefficients differ");
            }
        }
    }

    #[test]
    fn a_nan_behind_a_full_region_leaves_both_certificates_uncertified() {
        let tol = SimplexConfig::default().tolerance;
        // Job 0 fills region 0. Job 1 finds region 0, its first admissible
        // one, full in the walk, which then picks region 1's NaN (nothing
        // ranks below it); the columns fold region 0 and then the cheaper
        // region 2. Job 2 is admitted only in region 1.
        let (open, far) = (&[0.0, 0.0, 0.0][..], &[0.0, 0.9, 0.0][..]);
        let rows = [
            (&[0.1, 0.5, 0.9][..], far, 0.5),
            (&[0.5, f64::NAN, 0.3][..], open, 0.5),
            (&[0.2, 0.4, 0.6][..], &[0.9, 0.0, 0.9][..], 0.5),
        ];
        let walk_of = |batch: &RoundNumerics| {
            let (mut hint, mut left, mut tempted) = (Vec::new(), Vec::new(), Vec::new());
            let walk = hint_and_certify(
                batch,
                &[1, 1, 1],
                None,
                tol,
                &mut hint,
                &mut left,
                &mut tempted,
            );
            (walk, hint)
        };
        // Two jobs: the hints differ, and neither is certified.
        let two = numerics(&rows[..2]);
        let (verdict, picks, _) = column_verdict(&two, &[1, 1, 1], tol);
        assert_eq!((verdict, picks), (Some(Hint::Uncertified), vec![0, 2]));
        assert_eq!(walk_of(&two), (Some(Hint::Uncertified), vec![0, 1]));
        // Three: the walk's region 1 is gone when job 2 needs it.
        let three = numerics(&rows);
        let (verdict, picks, _) = column_verdict(&three, &[1, 1, 1], tol);
        assert_eq!((verdict, picks), (Some(Hint::Uncertified), vec![0, 2, 1]));
        assert_eq!(walk_of(&three).0, None);
    }

    /// The round's numerics priced job by job, the reference
    /// [`Controller::prepare_numerics`] is held to:
    /// [`candidate_footprints`], the per-job [`Normalizer`], the history term
    /// added on, `transfer_time / exec`.
    fn reference_numerics(
        sched: &WaterWiseScheduler,
        ctx: &SchedulingContext<'_>,
        selected: &[usize],
        history: &[(f64, f64)],
    ) -> RoundNumerics {
        use crate::objective::{candidate_footprints, Normalizer};
        let regions: Vec<Region> = ctx.regions.iter().map(|v| v.region).collect();
        let Controller {
            provider,
            estimator,
            config,
            ..
        } = &sched.controller;
        let weights = &config.weights;
        let mut batch = RoundNumerics::default();
        batch.reset(regions.len());
        for job in selected.iter().map(|&i| &ctx.pending[i]) {
            let candidates =
                candidate_footprints(job, &regions, provider.as_ref(), estimator, ctx.now);
            let normalizer = Normalizer::from_candidates(&candidates);
            let exec = job.spec.estimated_execution_time.value().max(1.0);
            for (candidate, &(carbon_ref, water_ref)) in candidates.iter().zip(history) {
                let mut coefficient = normalizer.objective_term(candidate, weights);
                coefficient += weights.lambda_ref
                    * (weights.lambda_co2 * carbon_ref + weights.lambda_h2o * water_ref);
                batch.coeffs.push(coefficient);
                let (home, bytes) = (job.spec.home_region, job.spec.package_bytes);
                let latency = ctx.transfer.transfer_time(home, candidate.region, bytes);
                batch.latency_ratio.push(latency.value() / exec);
            }
            let waited = job.waiting_time(ctx.now).value();
            batch
                .remaining_tolerance
                .push((ctx.delay_tolerance - waited / exec).max(0.0));
        }
        batch
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The region-major pass prices every job as the per-job reference
        /// does, to the bit, round after round on one scheduler: 1–8 region
        /// views (a region may repeat), execution times below 1 s, jobs at
        /// home, packages up to `u64::MAX` bytes, waits past the tolerance,
        /// and pools the slack manager truncates. Its columns are the
        /// reference's rows transposed, its picks are the ones they fold, and
        /// the columns decline a capacity-bound round. Pools past
        /// [`LANE_BLOCK`] jobs reach the lane body where the CPU has AVX2;
        /// every case also runs on the fused loop alone.
        #[test]
        fn the_round_pass_prices_as_the_per_job_reference(
            picks in prop::collection::vec((0usize..5, 0usize..30), 1..9),
            jobs in prop::collection::vec(
                ((0usize..4, 0.0f64..1.0), (0.0f64..5.0, 0usize..5), (0usize..3, 0.0f64..1.0), 0.0f64..1.1),
                1..40,
            ),
            now_hours in 0.0f64..2000.0,
            tolerance in 0.0f64..1.5,
        ) {
            let regions: Vec<RegionView> = picks
                .iter()
                .map(|&(region, servers)| RegionView {
                    region: ALL_REGIONS[region],
                    total_servers: servers,
                    busy_servers: 0,
                    queued_jobs: 0,
                    inbound_jobs: 0,
                })
                .collect();
            let now = Seconds::from_hours(now_hours);
            let pending: Vec<PendingJob> = jobs
                .iter()
                .enumerate()
                .map(|(i, &((time, x), (kwh, home), (size, y), received))| {
                    let exec = match time {
                        0 => x,
                        1 => 0.0,
                        _ => 60.0 + x * 20_000.0,
                    };
                    let package_bytes = match size {
                        0 => (y * 2e9) as u64,
                        1 => 0,
                        _ => u64::MAX - (y * 1e18) as u64,
                    };
                    PendingJob {
                        spec: waterwise_traces::JobSpec {
                            id: waterwise_traces::JobId(i as u64),
                            benchmark: waterwise_traces::ALL_BENCHMARKS[i % 10],
                            submit_time: Seconds::zero(),
                            home_region: ALL_REGIONS[home],
                            actual_execution_time: Seconds::new(exec),
                            actual_energy: waterwise_sustain::KilowattHours::new(kwh),
                            estimated_execution_time: Seconds::new(exec),
                            estimated_energy: waterwise_sustain::KilowattHours::new(kwh),
                            package_bytes,
                        },
                        // Up to 10 % after `now`: a wait that clamps to zero.
                        received_at: Seconds::new(now.value() * received),
                        deferrals: 0,
                    }
                })
                .collect();
            let transfer = waterwise_cluster::TransferModel::paper_default();
            // Both pricing paths: the lane body where the CPU has AVX2, and
            // the fused loop alone.
            for lanes in [Avx2::detect(), None] {
                let mut sched = scheduler();
                sched.controller.lanes = lanes;
                // A capacity-bound round: the first view twice, one server each.
                // Every job prices alike in both, so two jobs pick the first (or
                // neither), and the columns decline the round.
                let twice = [RegionView { total_servers: 1, ..regions[0] }; 2];
                // The whole pool, then half of it an hour and a half later (the
                // second round reuses the first one's columns), then the bound one.
                let half = &pending[..pending.len().div_ceil(2)];
                let rounds = [
                    (&pending[..], 0.0, &regions[..], false),
                    (half, 5400.0, &regions[..], false),
                    (&pending[..], 10800.0, &twice[..], true),
                ];
                for (pool, later, regions, bound) in rounds {
                    let ctx = SchedulingContext {
                        now: Seconds::new(now.value() + later),
                        pending: pool,
                        regions,
                        delay_tolerance: tolerance,
                        transfer: &transfer,
                    };
                    let rounds = sched.stats().rounds;
                    sched.schedule(&ctx);
                    if sched.stats().rounds == rounds {
                        continue; // No free slot: nothing priced.
                    }
                    let round = &sched.scratch;
                    let reference = reference_numerics(&sched, &ctx, &round.selected, &round.history);
                    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    let [coeffs, latency_ratio] = columns_of(&reference);
                    let (prices, columns) = (&round.prices, round.prices.columns());
                    prop_assert_eq!(bits(&prices.carbon), bits(&coeffs));
                    prop_assert_eq!(bits(&prices.water), bits(&latency_ratio));
                    prop_assert_eq!(bits(&prices.remaining_tolerance), bits(&reference.remaining_tolerance));
                    prop_assert_eq!(columns.n_regions(), reference.n_regions);
                    let capacities: Vec<usize> = regions.iter().map(|v| v.remaining_capacity()).collect();
                    let (picks, at_picks) = column_picks(columns, &capacities);
                    prop_assert_eq!(&round.hint, &picks);
                    prop_assert_eq!(bits(&round.at_hint), bits(&at_picks));
                    if bound && round.selected.len() >= 2 {
                        let (mut left, mut tempted) = (Vec::new(), Vec::new());
                        let verdict = certify_columns(columns, &capacities, SimplexConfig::default().tolerance, &picks, &at_picks, &mut left, &mut tempted);
                        prop_assert_eq!(verdict, None, "a bound round was not declined");
                    }
                }
            }
        }
    }
}
