//! The five workloads: what each runs, why it is here, and the result
//! record a workload's child process hands back to the driver.

use crate::json::Value;
use crate::metrics::END_TO_END;
use crate::stats::Summary;
use waterwise::core::CampaignConfig;

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CampaignBorg,
    CampaignAlibaba,
    CampaignPressure,
    CampaignTight,
    ServeTcp,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::CampaignBorg,
        Workload::CampaignAlibaba,
        Workload::CampaignPressure,
        Workload::CampaignTight,
        Workload::ServeTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignBorg => "campaign_borg",
            Workload::CampaignAlibaba => "campaign_alibaba",
            Workload::CampaignPressure => "campaign_pressure",
            Workload::CampaignTight => "campaign_tight",
            Workload::ServeTcp => "serve_tcp",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload is in the benchmark (`BENCHMARK.json`
    /// carries the same sentence).
    pub fn why(self) -> &'static str {
        match self {
            Workload::CampaignBorg => "Many tiny MILPs (~13 jobs/round): per-round fixed cost, the event loop and footprint accounting carry the time, the tableau kernel does little.",
            Workload::CampaignAlibaba => "Few dense MILPs (~120 jobs/round, root-integral): >= 95 % of wall is simplex pivots on a ~250-row tableau, so only the solver kernel moves it.",
            Workload::CampaignPressure => "30 servers per region: capacity rows bind, the hard model is infeasible, the soft model is re-solved cold and jobs defer; guards the cold/fallback path.",
            Workload::CampaignTight => "Delay tolerance 0.10: the only real traffic where branch-and-bound, dual restarts and basis snapshots run; a few rounds hit the 10 000-node cap and cost more than all the others.",
            Workload::ServeTcp => "The same engine behind ClusterHost + TcpClusterServer on loopback, one NDJSON connection, journal fsynced to disk: ~2/3 of the wall is serving, not solving.",
        }
    }

    /// Whether `BENCHMARK.json` lists the workload for the acceptance driver.
    /// That driver runs a workload on ten different seeds, twice, and
    /// refuses the benchmark if the quartiles of a metric are further apart
    /// than a quarter of its median, or the second ten's median is that much
    /// worse than the first's. Three of the five cannot meet that on wall
    /// clocks (README, "What BENCHMARK.json can hold"); they run in the
    /// ledger, where runs of one seed are compared.
    ///
    /// A workload that can reach the solver's 10 000-node cap: whether a
    /// trace holds such a round, and what it costs, is a property of the
    /// seed. `campaign_tight` holds 0 to 7 of them (eleven seeds; 1 to 25 s
    /// and up to 4.8 GiB each, so a pass takes 0.4 to 34 s);
    /// `campaign_pressure` holds one on 3 seeds in 31 (a pass 1 s longer,
    /// 300 to 800 MiB instead of 20), and its `peak_rss_mb` spreads by 0.17
    /// even without. And `serve_tcp`, half a dozen threads on two cores,
    /// follows the host's slow and fast quarters of an hour twice as far as
    /// a single-threaded campaign does (±20 % against ±8 %), and its journal's
    /// `fsync` has two speeds of its own: ten runs spread by 0.12 to 0.37,
    /// and consecutive tens differ by up to a quarter, journal or no journal.
    pub fn steady_across_seeds(self) -> bool {
        matches!(self, Workload::CampaignBorg | Workload::CampaignAlibaba)
    }

    /// Simulated days of trace per pass: about 3 s a pass on the 2-core
    /// reference box (`campaign_tight`: 14 to 23 s at seed 42).
    pub fn default_days(self) -> f64 {
        match self {
            Workload::CampaignBorg => 16.0,
            Workload::CampaignAlibaba => 0.5,
            Workload::CampaignPressure | Workload::CampaignTight => 2.0,
            Workload::ServeTcp => 4.0,
        }
    }

    /// Whether the workload runs one timed pass and no warm-up, whatever
    /// was asked for: a pass of `campaign_tight` is 14 to 23 s and 4 GiB.
    pub fn single_pass(self) -> bool {
        self == Workload::CampaignTight
    }

    /// The campaign configuration of one pass. `seed` feeds every
    /// generator (trace and telemetry); everything else is the product's
    /// default.
    pub fn config(self, seed: u64, days: f64) -> CampaignConfig {
        match self {
            Workload::CampaignBorg | Workload::ServeTcp => {
                CampaignConfig::paper_default(days, 0.5, seed)
            }
            // 2400 servers keep the LPs root-integral; at the default 280
            // the trace exhausts memory from 0.15 days on (README, "cliffs").
            Workload::CampaignAlibaba => CampaignConfig::paper_default(days, 0.5, seed)
                .with_alibaba_trace(days, seed)
                .with_servers_per_region(2400),
            Workload::CampaignPressure => {
                CampaignConfig::paper_default(days, 0.5, seed).with_servers_per_region(30)
            }
            Workload::CampaignTight => CampaignConfig::paper_default(days, 0.10, seed),
        }
    }
}

/// How long the timed region of a workload is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Timed {
    /// Exactly this many timed passes (the ledger's own runs: five).
    Passes(usize),
    /// Passes repeat until this many seconds are used up, never fewer than
    /// [`MIN_PASSES`] (the acceptance driver's `--seconds`).
    Seconds(f64),
}

/// How one workload is to be run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    pub seed: u64,
    pub timed: Timed,
    /// Override the workload's simulated days (the tests' smoke runs).
    pub days: Option<f64>,
    /// Spans, lookup counts, allocation counts, direct loops and ablations.
    pub traced: bool,
}

/// Timed passes of a run that was not told otherwise.
pub const DEFAULT_PASSES: usize = 5;

/// Timed passes a multi-pass workload never goes below.
pub const MIN_PASSES: usize = 3;

impl RunOptions {
    /// Whether `workload` should run another timed pass after `done` passes
    /// and `elapsed` seconds of timed region.
    pub fn wants_another_pass(&self, workload: Workload, done: usize, elapsed: f64) -> bool {
        if workload.single_pass() {
            return done < 1;
        }
        match self.timed {
            Timed::Passes(passes) => done < passes,
            Timed::Seconds(seconds) => done < MIN_PASSES || elapsed < seconds,
        }
    }
}

/// What one workload's child process reports.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    /// Every correctness check held.
    pub correct: bool,
    /// The checks that did not, in words.
    pub problems: Vec<String>,
    /// Jobs (requests) submitted over the timed passes.
    pub attempted: u64,
    /// Jobs without an outcome, error lines and missing responses.
    pub failed: u64,
    pub passes: usize,
    /// `schedule_digest` shared by every pass (printed, not pinned).
    pub digest: u64,
    /// Scheduling rounds pooled into the percentiles.
    pub round_samples: usize,
    /// The nine end-to-end metrics, in `END_TO_END` order.
    pub metrics: Vec<(String, Summary)>,
    /// Per-layer metrics: the counters an untraced run gets for free, all
    /// of `PER_LAYER` from a traced one.
    pub layers: Vec<(String, f64)>,
}

impl WorkloadResult {
    /// The record of a workload whose child died or failed before it could
    /// measure anything: everything attempted counts as failed.
    pub fn dead(workload: &str, problem: String) -> Self {
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                let value = if m.name == "failed_share" {
                    1.0
                } else {
                    f64::NAN
                };
                (m.name.to_string(), Summary::exact(value))
            })
            .collect();
        Self {
            workload: workload.to_string(),
            correct: false,
            problems: vec![problem],
            attempted: 1,
            failed: 1,
            passes: 0,
            digest: 0,
            round_samples: 0,
            metrics,
            layers: Vec::new(),
        }
    }

    pub fn metric(&self, name: &str) -> Option<Summary> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
    }

    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn to_json(&self) -> Value {
        let summary = |name: &str, s: &Summary| {
            let unit = crate::metrics::end_to_end(name).map_or("", |m| m.unit);
            Value::object([
                ("value", Value::Number(s.value)),
                ("unit", Value::String(unit.to_string())),
                ("q1", Value::Number(s.q1)),
                ("q3", Value::Number(s.q3)),
                ("n", Value::Number(s.n as f64)),
            ])
        };
        Value::object([
            ("workload", Value::String(self.workload.clone())),
            ("correct", Value::Bool(self.correct)),
            (
                "problems",
                Value::Array(self.problems.iter().cloned().map(Value::String).collect()),
            ),
            ("attempted", Value::Number(self.attempted as f64)),
            ("failed", Value::Number(self.failed as f64)),
            ("passes", Value::Number(self.passes as f64)),
            ("digest", Value::String(format!("{:016x}", self.digest))),
            ("round_samples", Value::Number(self.round_samples as f64)),
            (
                "metrics",
                Value::object(self.metrics.iter().map(|(n, s)| (n.clone(), summary(n, s)))),
            ),
            (
                "layers",
                Value::object(self.layers.iter().map(|(n, v)| {
                    let unit = crate::metrics::PER_LAYER
                        .iter()
                        .find(|l| l.name == n)
                        .map_or("", |l| l.unit);
                    (
                        n.clone(),
                        Value::object([
                            ("value", Value::Number(*v)),
                            ("unit", Value::String(unit.to_string())),
                        ]),
                    )
                })),
            ),
        ])
    }

    pub fn from_json(value: &Value) -> Result<Self, String> {
        let field = |key: &str| value.get(key).ok_or(format!("missing field: {key}"));
        let number = |key: &str| {
            field(key)?
                .as_f64()
                .ok_or(format!("field {key} is not a number"))
        };
        let summary = |v: &Value| -> Result<Summary, String> {
            // A non-finite value is written as null: read it back as NaN.
            let part = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
            Ok(Summary {
                value: part("value"),
                q1: part("q1"),
                q3: part("q3"),
                n: part("n") as usize,
            })
        };
        Ok(Self {
            workload: field("workload")?
                .as_str()
                .ok_or("workload is not a string")?
                .to_string(),
            correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
            problems: field("problems")?
                .elements()
                .iter()
                .filter_map(|p| p.as_str().map(str::to_string))
                .collect(),
            attempted: number("attempted")? as u64,
            failed: number("failed")? as u64,
            passes: number("passes")? as usize,
            digest: u64::from_str_radix(field("digest")?.as_str().unwrap_or(""), 16)
                .map_err(|e| format!("digest: {e}"))?,
            round_samples: number("round_samples")? as usize,
            metrics: field("metrics")?
                .members()
                .iter()
                .map(|(name, v)| Ok((name.clone(), summary(v)?)))
                .collect::<Result<_, String>>()?,
            layers: field("layers")?
                .members()
                .iter()
                .map(|(name, v)| {
                    (
                        name.clone(),
                        v.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN),
                    )
                })
                .collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip_and_are_five() {
        assert_eq!(Workload::ALL.len(), 5);
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
            assert!(workload.why().len() <= 200, "{}", workload.name());
            assert!(!workload.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn pass_budget_honours_the_floor_the_count_and_the_single_pass_workload() {
        let borg = Workload::CampaignBorg;
        let timed = RunOptions {
            seed: 1,
            timed: Timed::Seconds(2.0),
            days: None,
            traced: false,
        };
        assert!(
            timed.wants_another_pass(borg, 2, 100.0),
            "never below three"
        );
        assert!(timed.wants_another_pass(borg, 3, 1.9));
        assert!(!timed.wants_another_pass(borg, 3, 2.0));
        let fixed = RunOptions {
            timed: Timed::Passes(4),
            ..timed
        };
        assert!(fixed.wants_another_pass(borg, 3, 100.0));
        assert!(!fixed.wants_another_pass(borg, 4, 0.0));
        for options in [timed, fixed] {
            assert!(options.wants_another_pass(Workload::CampaignTight, 0, 0.0));
            assert!(!options.wants_another_pass(Workload::CampaignTight, 1, 0.0));
        }
    }

    #[test]
    fn results_round_trip_through_json_including_a_dead_child() {
        let mut result = WorkloadResult::dead("serve_tcp", "child died: signal 9".into());
        result.layers.push(("milp.pivots".to_string(), 13.0));
        let back =
            WorkloadResult::from_json(&Value::parse(&result.to_json().encode()).unwrap()).unwrap();
        assert_eq!(back.workload, "serve_tcp");
        assert!(!back.correct);
        assert_eq!(back.metric("failed_share").unwrap().value, 1.0);
        assert!(back.metric("jobs_per_s").unwrap().value.is_nan());
        assert_eq!(back.layer("milp.pivots"), Some(13.0));
        assert_eq!(back.problems, result.problems);
    }
}
