//! `ledger --compare A.json B.json`: is B worse than A?
//!
//! One row per workload × end-to-end metric with both medians, the ratio
//! B ÷ A (base: A) and a verdict. A metric whose own quartile range — in
//! either file — is wider than its bound cannot be told apart from noise:
//! its row reads `unresolved`, not `unchanged`, unless the two quartile
//! ranges do not even overlap.

use crate::json::Value;
use crate::metrics::{Better, Bound, MetricDef, END_TO_END};
use crate::stats::Summary;
use crate::workload::WorkloadResult;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric of the candidate run `b` against the reference run `a`
/// of the same `workload`.
pub fn judge(def: &MetricDef, workload: &str, a: Summary, b: Summary) -> Verdict {
    if !a.value.is_finite() {
        // Nothing to be worse than.
        return Verdict::Unresolved;
    }
    if !b.value.is_finite() {
        return Verdict::Regressed;
    }
    // Positive = the candidate is worse.
    let worse_by = match def.better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    let (share, floor) = match def.bound_on(workload) {
        Bound::Absolute(limit) => {
            return if worse_by > limit {
                Verdict::Regressed
            } else if -worse_by > limit {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            };
        }
        Bound::Relative { share, floor } => (share, floor),
    };
    let limit = (share * a.value.abs()).max(floor);
    let beyond = worse_by.abs() > limit;
    if a.spread().max(b.spread()) <= share {
        return match (beyond, worse_by > 0.0) {
            (false, _) => Verdict::Unchanged,
            (true, true) => Verdict::Regressed,
            (true, false) => Verdict::Improved,
        };
    }
    // Noisy: only quartile ranges that do not overlap settle it.
    let apart = a.q3 < b.q1 || b.q3 < a.q1;
    match (apart && beyond, worse_by > 0.0) {
        (true, true) => Verdict::Regressed,
        (true, false) => Verdict::Improved,
        (false, _) => Verdict::Unresolved,
    }
}

fn load(path: &Path) -> Result<Vec<WorkloadResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let document = Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    document
        .get("workloads")
        .ok_or_else(|| format!("{}: not a ledger file (no \"workloads\")", path.display()))?
        .members()
        .iter()
        .map(|(_, result)| WorkloadResult::from_json(result))
        .collect::<Result<_, String>>()
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Compare two result files, print the table, and return whether the
/// candidate is free of regressions.
pub fn run(reference: &Path, candidate: &Path) -> Result<bool, String> {
    let (a, b) = (load(reference)?, load(candidate)?);
    println!(
        "{:<18} {:<24} {:>14} {:>14} {:>9}  verdict (ratio base: {})",
        "workload",
        "metric",
        "A",
        "B",
        "B/A",
        reference.display()
    );
    let mut clean = true;
    for ra in &a {
        let Some(rb) = b.iter().find(|r| r.workload == ra.workload) else {
            println!("{:<18} missing from {}", ra.workload, candidate.display());
            clean = false;
            continue;
        };
        for def in &END_TO_END {
            let (Some(sa), Some(sb)) = (ra.metric(def.name), rb.metric(def.name)) else {
                continue;
            };
            let verdict = judge(def, &ra.workload, sa, sb);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{:<18} {:<24} {:>14.5} {:>14.5} {:>9.4}  {}",
                ra.workload,
                def.name,
                sa.value,
                sb.value,
                sb.value / sa.value,
                verdict.label()
            );
        }
        if ra.correct && !rb.correct {
            println!("{:<18} correctness checks fail in B", ra.workload);
            clean = false;
        }
    }
    println!(
        "{}",
        if clean {
            "no end-to-end metric is worse by more than its bound"
        } else {
            "B is worse than A by more than a bound"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn tight(value: f64) -> Summary {
        Summary {
            value,
            q1: value * 0.99,
            q3: value * 1.01,
            n: 5,
        }
    }

    fn judge_on_borg(name: &str, a: Summary, b: Summary) -> Verdict {
        judge(end_to_end(name).unwrap(), "campaign_borg", a, b)
    }

    #[test]
    fn a_fifteen_percent_throughput_drop_is_flagged_and_five_is_not() {
        let judge = |a, b| judge_on_borg("jobs_per_s", tight(a), tight(b));
        assert_eq!(judge(100.0, 85.0), Verdict::Regressed);
        assert_eq!(judge(100.0, 95.0), Verdict::Unchanged);
        assert_eq!(judge(100.0, 115.0), Verdict::Improved);
        // Lower-is-better metrics flip.
        let judge = |a, b| judge_on_borg("round_ms_p50", tight(a), tight(b));
        assert_eq!(judge(1.0, 1.15), Verdict::Regressed);
        assert_eq!(judge(1.0, 0.85), Verdict::Improved);
    }

    #[test]
    fn campaign_tight_gets_its_wider_bounds() {
        let def = end_to_end("jobs_per_s").unwrap();
        let on_tight = |b| judge(def, "campaign_tight", tight(100.0), tight(b));
        assert_eq!(on_tight(60.0), Verdict::Unchanged);
        assert_eq!(on_tight(45.0), Verdict::Regressed);
        // Memory repeats exactly there too: no wider bound.
        let def = end_to_end("peak_rss_mb").unwrap();
        assert_eq!(
            judge(def, "campaign_tight", tight(4000.0), tight(4300.0)),
            Verdict::Regressed
        );
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved_unless_the_ranges_part() {
        let noisy = |value: f64| Summary {
            value,
            q1: value * 0.9,
            q3: value * 1.1,
            n: 5,
        };
        let judge = |a, b| judge_on_borg("jobs_per_s", noisy(a), noisy(b));
        assert_eq!(judge(100.0, 95.0), Verdict::Unresolved);
        assert_eq!(judge(100.0, 88.0), Verdict::Unresolved);
        // 60 ± 6 and 100 ± 10 do not overlap.
        assert_eq!(judge(100.0, 60.0), Verdict::Regressed);
        assert_eq!(judge(60.0, 100.0), Verdict::Improved);
    }

    #[test]
    fn deterministic_metrics_use_absolute_bounds() {
        let exact = Summary::exact;
        let judge = |a, b| judge_on_borg("carbon_saving_pct", exact(a), exact(b));
        assert_eq!(judge(39.0, 38.995), Verdict::Unchanged);
        assert_eq!(judge(39.0, 38.98), Verdict::Regressed);
        assert_eq!(judge(39.0, 39.5), Verdict::Improved);
        let judge = |a, b| judge_on_borg("failed_share", exact(a), exact(b));
        assert_eq!(judge(0.0, 0.0), Verdict::Unchanged);
        assert_eq!(judge(0.0, 1e-6), Verdict::Regressed);
        // Set-up differences under 20 ms are ignored whatever their share.
        let judge = |a, b| judge_on_borg("setup_s", tight(a), tight(b));
        assert_eq!(judge(0.038, 0.048), Verdict::Unchanged);
        assert_eq!(judge(0.10, 0.13), Verdict::Regressed);
        // A dead candidate is a regression on every metric.
        assert_eq!(
            judge_on_borg("jobs_per_s", tight(100.0), exact(f64::NAN)),
            Verdict::Regressed
        );
    }
}
