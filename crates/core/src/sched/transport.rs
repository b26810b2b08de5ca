//! The round's transportation problem — Eq. 8–10, with Eq. 11–13 folded into
//! arc bounds and costs — decided without a model, by successive shortest
//! paths over the `R` region nodes, together with a proof that the optimum
//! found is the only one the dense simplex can stop at.
//!
//! Jobs enter in batch order. Job `m` takes its cheapest open region when that
//! region has a free slot: under the optimal placement of the jobs before it,
//! no insertion path costs less. Otherwise Bellman–Ford prices every insertion
//! path. Its arc `a → b` is the cheapest move of a job now at `a` to `b`, and a
//! path ends at a region with a free slot. When no such region is reachable,
//! the jobs so far violate Hall's condition and the round is infeasible. That
//! verdict reads only which arcs are open and which regions have room, never a
//! cost.
//!
//! Every other feasible assignment differs from the one found by region
//! cycles and by chains that move a job out of a loaded region and, job by
//! job, into a region with a free slot. Floyd–Warshall over the same graph
//! finds the cheapest of these. The simplex stops once no reduced cost is
//! below `−tol`, so it may settle within a few `tol` per row of the optimum.
//! When every alternative costs more than `2·(J+R)·tol` above it, the optimum
//! is outside that band and is the vertex the simplex returns, whatever its
//! pivoting order. Closer than that, the round is [`Verdict::Tied`] and goes
//! to the solver, which picks among the near-optima.

/// No region: a path's origin, or an arc no job makes.
const NONE: usize = usize::MAX;

/// What [`Transport::solve`] proved about a round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) enum Verdict<'a> {
    /// The optimum, one region per job, beats every other assignment by
    /// more than the margin.
    Unique(&'a [usize]),
    /// No proof: an alternative comes within the margin, or a cost is not
    /// finite (the model's own validation then rejects the round).
    Tied,
    /// No assignment places every job on an open arc within capacity.
    Infeasible,
}

/// The kernel's working memory, reused round to round: solving allocates
/// only while a round is larger than every round before it.
#[derive(Debug, Default)]
pub(super) struct Transport {
    n_regions: usize,
    /// The simplex's reduced-cost tolerance.
    tol: f64,
    /// `J × R` arc costs, row-major; `+∞` where the arc is fixed at zero.
    cost: Vec<f64>,
    /// The region of each job placed so far.
    assignment: Vec<usize>,
    /// Free slots per region under `assignment`.
    free: Vec<usize>,
    /// `R × R`: the cheapest move of a placed job from `a` to `b`
    /// (`+∞` when none, and on the diagonal), then the job that makes it.
    /// Floyd–Warshall overwrites `moves` with the cheapest walks.
    moves: Vec<f64>,
    mover: Vec<usize>,
    /// Bellman–Ford's distance from the entering job to each region, and
    /// the region it was reached from (`NONE`: straight from the job).
    dist: Vec<f64>,
    via: Vec<usize>,
}

impl Transport {
    /// Decide the round over `capacities.len()` regions. `arcs` yields, job
    /// by job in batch order, `(cost, open)` for each region: what `x[m][n]`
    /// costs and whether its upper bound is 1 rather than 0.
    pub(super) fn solve(
        &mut self,
        capacities: &[usize],
        arcs: impl IntoIterator<Item = (f64, bool)>,
        tol: f64,
    ) -> Verdict<'_> {
        let n_regions = capacities.len();
        (self.n_regions, self.tol) = (n_regions, tol);
        self.cost.clear();
        for (cost, open) in arcs {
            if !cost.is_finite() {
                return Verdict::Tied;
            }
            self.cost.push(if open { cost } else { f64::INFINITY });
        }
        let n_jobs = self.cost.len() / n_regions.max(1);
        capacities.clone_into(&mut self.free);
        self.assignment.clear();
        for m in 0..n_jobs {
            if let Err(verdict) = self.insert(m) {
                return verdict;
            }
        }
        let margin = 2.0 * (n_jobs + n_regions) as f64 * tol;
        if self.cheapest_alternative() > margin {
            Verdict::Unique(&self.assignment)
        } else {
            Verdict::Tied
        }
    }

    /// The last placement, one region per job: after `Tied` from a round
    /// whose costs are all finite, a (not provably unique) optimum.
    #[cfg(test)]
    pub(super) fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Place job `m` (jobs `0..m` are placed optimally) on its cheapest
    /// insertion path. Bellman–Ford takes an arc only when it shortens a path
    /// by more than `tol`, the simplex's own threshold: rounding on a
    /// zero-cost cycle (twin jobs) then cannot keep it relaxing. A path up to
    /// `R·tol` longer than the shortest leaves a placement that some cycle
    /// improves, which the certificate reads as a tie. Without a negative
    /// cycle a path has at most `R − 1` arcs, so pass `R` shortens nothing;
    /// if it does, `Err(Tied)`.
    fn insert(&mut self, m: usize) -> Result<(), Verdict<'static>> {
        let r = self.n_regions;
        let row = &self.cost[m * r..(m + 1) * r];
        let cheapest = (0..r)
            .filter(|&n| row[n] < f64::INFINITY)
            .min_by(|&a, &b| row[a].total_cmp(&row[b]));
        let Some(cheapest) = cheapest else {
            return Err(Verdict::Infeasible);
        };
        if self.free[cheapest] > 0 {
            self.free[cheapest] -= 1;
            self.assignment.push(cheapest);
            return Ok(());
        }
        self.price_moves();
        self.dist.clear();
        self.dist.extend_from_slice(&self.cost[m * r..(m + 1) * r]);
        self.via.clear();
        self.via.resize(r, NONE);
        let settled = (0..r).any(|_| !self.relax());
        let target = (0..r)
            .filter(|&n| self.free[n] > 0 && self.dist[n] < f64::INFINITY)
            .min_by(|&a, &b| self.dist[a].total_cmp(&self.dist[b]));
        let Some(target) = target else {
            return Err(Verdict::Infeasible);
        };
        if !settled {
            return Err(Verdict::Tied);
        }
        // Walk back from the free slot, moving one job along each arc. A
        // tree path visits each region once, so each move is a distinct job.
        let mut at = target;
        for _ in 0..r {
            let from = self.via[at];
            if from == NONE {
                self.free[target] -= 1;
                self.assignment.push(at);
                return Ok(());
            }
            self.assignment[self.mover[from * r + at]] = at;
            at = from;
        }
        Err(Verdict::Tied)
    }

    /// One Bellman–Ford pass over every arc; whether it shortened a path.
    fn relax(&mut self) -> bool {
        let r = self.n_regions;
        let mut shortened = false;
        for a in 0..r {
            let to_a = self.dist[a];
            if to_a == f64::INFINITY {
                continue;
            }
            for b in 0..r {
                let through = to_a + self.moves[a * r + b];
                if through < self.dist[b] - self.tol {
                    self.dist[b] = through;
                    self.via[b] = a;
                    shortened = true;
                }
            }
        }
        shortened
    }

    /// Fill `moves` / `mover` from the current placement, in O(J·R).
    fn price_moves(&mut self) {
        let r = self.n_regions;
        self.moves.clear();
        self.moves.resize(r * r, f64::INFINITY);
        self.mover.resize(r * r, NONE);
        for (j, &a) in self.assignment.iter().enumerate() {
            let row = &self.cost[j * r..(j + 1) * r];
            for (b, &cost) in row.iter().enumerate() {
                let delta = cost - row[a];
                if b != a && delta < self.moves[a * r + b] {
                    self.moves[a * r + b] = delta;
                    self.mover[a * r + b] = j;
                }
            }
        }
    }

    /// What the cheapest other assignment costs above the current one: the
    /// shortest region cycle, or walk from a region to another with a free
    /// slot (its first move leaves a loaded region). `+∞` when there is none.
    fn cheapest_alternative(&mut self) -> f64 {
        let r = self.n_regions;
        self.price_moves();
        let walks = &mut self.moves;
        for k in 0..r {
            for i in 0..r {
                let to_k = walks[i * r + k];
                if to_k == f64::INFINITY {
                    continue;
                }
                for j in 0..r {
                    let through = to_k + walks[k * r + j];
                    if through < walks[i * r + j] {
                        walks[i * r + j] = through;
                    }
                }
            }
        }
        let free = &self.free;
        (0..r * r)
            .filter(|&ij| ij / r == ij % r || free[ij % r] > 0)
            .map(|ij| walks[ij])
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-9;

    /// Solve a dense `J × R` cost table (`None`: the arc is fixed at zero).
    fn decide(
        transport: &mut Transport,
        costs: &[&[Option<f64>]],
        capacities: &[usize],
    ) -> Result<Vec<usize>, &'static str> {
        let arcs = costs
            .iter()
            .flat_map(|row| row.iter().map(|c| (c.unwrap_or(0.0), c.is_some())));
        match transport.solve(capacities, arcs, TOL) {
            Verdict::Unique(assignment) => Ok(assignment.to_vec()),
            Verdict::Tied => Err("tied"),
            Verdict::Infeasible => Err("infeasible"),
        }
    }

    #[test]
    fn a_full_region_prices_its_slot_and_the_job_that_loses_least_moves() {
        // Both jobs prefer region 0, which holds one; job 1 loses more by
        // moving (0.7 vs 0.5), so job 0 — which entered first — is moved.
        let costs: &[&[Option<f64>]] = &[&[Some(0.1), Some(0.6)], &[Some(0.1), Some(0.8)]];
        let mut transport = Transport::default();
        assert_eq!(decide(&mut transport, costs, &[1, 1]), Ok(vec![1, 0]));
        // Room for both: each takes its cheapest region.
        assert_eq!(decide(&mut transport, costs, &[2, 0]), Ok(vec![0, 0]));
    }

    #[test]
    fn a_chain_through_a_full_region_reaches_the_free_slot() {
        // Region 0 and 1 hold one job each, region 2 two. Job 2 wants region
        // 0: job 0 moves 0 → 1 and job 1 moves 1 → 2 to make room.
        let costs: &[&[Option<f64>]] = &[
            &[Some(0.0), Some(0.1), Some(5.0)],
            &[Some(5.0), Some(0.0), Some(0.2)],
            &[Some(-1.0), Some(4.0), Some(4.0)],
        ];
        let mut transport = Transport::default();
        assert_eq!(decide(&mut transport, costs, &[1, 1, 2]), Ok(vec![1, 2, 0]));
    }

    #[test]
    fn infeasibility_is_hall_s_condition_not_a_cost() {
        let mut transport = Transport::default();
        // Two jobs whose only open arc is region 0, which holds one.
        let cramped: &[&[Option<f64>]] = &[&[Some(0.3), None], &[Some(0.9), None]];
        assert_eq!(decide(&mut transport, cramped, &[1, 5]), Err("infeasible"));
        // A job with no open arc at all.
        let stuck: &[&[Option<f64>]] = &[&[Some(0.3), Some(0.1)], &[None, None]];
        assert_eq!(decide(&mut transport, stuck, &[2, 2]), Err("infeasible"));
        // More jobs than slots.
        let many: &[&[Option<f64>]] = &[&[Some(0.3)], &[Some(0.3)]];
        assert_eq!(decide(&mut transport, many, &[1]), Err("infeasible"));
        // Room once the first job moves off region 0 — feasible, and solved.
        let shuffled: &[&[Option<f64>]] = &[&[Some(0.1), Some(0.2)], &[Some(0.9), None]];
        assert_eq!(decide(&mut transport, shuffled, &[1, 1]), Ok(vec![1, 0]));
    }

    #[test]
    fn the_margin_is_two_tol_per_job_and_region() {
        // Two jobs, two regions of one slot each: the only alternative swaps
        // them and costs `gap` more. J + R = 4, so the margin is 8·tol.
        let margin = 2.0 * (2 + 2) as f64 * TOL;
        let verdict = |gap: f64| {
            let costs: &[&[Option<f64>]] =
                &[&[Some(0.25), Some(0.25 + gap)], &[Some(0.5), Some(0.5)]];
            decide(&mut Transport::default(), costs, &[1, 1])
        };
        assert_eq!(verdict(margin * 1.01), Ok(vec![0, 1]));
        assert_eq!(verdict(margin * 0.99), Err("tied"));
        assert_eq!(verdict(0.0), Err("tied"));
        // A free slot makes a chain an alternative too: moving job 0 to the
        // empty region 2 costs `gap`.
        let chain = |gap: f64| {
            let costs: &[&[Option<f64>]] = &[&[Some(0.0), None, Some(gap)]];
            decide(&mut Transport::default(), costs, &[1, 1, 1])
        };
        let margin = 2.0 * (1 + 3) as f64 * TOL;
        assert_eq!(chain(margin * 1.01), Ok(vec![0]));
        assert_eq!(chain(margin * 0.99), Err("tied"));
    }

    #[test]
    fn a_non_finite_cost_declines_even_on_a_fixed_arc() {
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for (at, open) in [(0, true), (1, true), (1, false)] {
                let mut arcs = [(0.1, true), (0.2, true)];
                arcs[at] = (poison, open);
                let mut transport = Transport::default();
                let verdict = transport.solve(&[2, 2], arcs, TOL);
                assert_eq!(verdict, Verdict::Tied, "{poison} at {at} (open {open})");
            }
        }
    }
}
