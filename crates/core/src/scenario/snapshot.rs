//! Golden-snapshot verification: canonical rendering, drift diffs, and the
//! `UPDATE_SNAPSHOTS=1` bless path.
//!
//! A [`Snapshot`] is a set of `key = value` entries rendered in sorted key
//! order — insertion order (and therefore `HashMap` iteration order in the
//! caller) never changes the output. [`Snapshot::of`] renders the
//! deterministic view of a [`CampaignSummary`] by reusing
//! [`CampaignSummary::without_wall_clock`] and additionally omitting the
//! solver-activity counters: solver effort legitimately differs with
//! `warm_start` on and off while the *schedule contract* — every
//! other field, plus the [`waterwise_cluster::schedule_digest`] — must stay
//! byte-identical. That is exactly what a golden snapshot pins.
//!
//! [`assert_snapshot`] compares a rendering against
//! `<dir>/<scenario>.snap`. On drift it fails with a line-level diff that
//! names the snapshot file; setting `UPDATE_SNAPSHOTS=1` rewrites the file
//! instead (the bless workflow, see `docs/SCENARIOS.md`).

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use waterwise_cluster::{schedule_digest, CampaignSummary, JobOutcome};

/// A canonical, order-independent `key = value` rendering of campaign
/// results.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    entries: BTreeMap<String, String>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical snapshot of one campaign summary (entries under the
    /// `summary.` prefix).
    pub fn of(summary: &CampaignSummary) -> Self {
        let mut snapshot = Self::new();
        snapshot.add_summary("summary", summary);
        snapshot
    }

    /// Add one entry. Keys must be unique; re-adding a key is a
    /// test-authoring bug and panics.
    pub fn entry(&mut self, key: impl Into<String>, value: impl fmt::Display) {
        let key = key.into();
        let value = value.to_string();
        assert!(
            self.entries.insert(key.clone(), value).is_none(),
            "snapshot key `{key}` added twice"
        );
    }

    /// Add the deterministic fields of `summary` under `prefix.`.
    ///
    /// Canonicalization reuses [`CampaignSummary::without_wall_clock`] (so
    /// decision timings can never leak into a golden) and leaves out [`CampaignSummary::solver`], which measures
    /// solver *effort* — a property of the `warm_start` setting, not of
    /// the schedule the snapshot certifies.
    pub fn add_summary(&mut self, prefix: &str, summary: &CampaignSummary) {
        let s = summary.without_wall_clock();
        self.entry(format!("{prefix}.total_jobs"), s.total_jobs);
        self.entry(
            format!("{prefix}.total_carbon_g"),
            format!("{:?}", s.total_carbon.value()),
        );
        self.entry(
            format!("{prefix}.total_water_l"),
            format!("{:?}", s.total_water.value()),
        );
        self.entry(
            format!("{prefix}.mean_service_stretch"),
            format!("{:?}", s.mean_service_stretch),
        );
        self.entry(
            format!("{prefix}.violation_fraction"),
            format!("{:?}", s.violation_fraction),
        );
        self.entry(
            format!("{prefix}.migration_fraction"),
            format!("{:?}", s.migration_fraction),
        );
        self.entry(
            format!("{prefix}.jobs_per_region"),
            format!("{:?}", s.jobs_per_region),
        );
        self.entry(
            format!("{prefix}.mean_utilization"),
            format!("{:?}", s.mean_utilization),
        );
    }

    /// Add a schedule's length and order-sensitive digest under `prefix.`.
    pub fn add_schedule(&mut self, prefix: &str, outcomes: &[JobOutcome]) {
        self.entry(format!("{prefix}.jobs"), outcomes.len());
        self.entry(
            format!("{prefix}.digest"),
            format!("{:016x}", schedule_digest(outcomes)),
        );
    }

    /// Render to the stable text form: one `key = value` line per entry,
    /// sorted by key, trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.entries {
            out.push_str(key);
            out.push_str(" = ");
            out.push_str(value);
            out.push('\n');
        }
        out
    }
}

/// Whether the bless path is active (`UPDATE_SNAPSHOTS=1` in the
/// environment). CI guards that this is never set there.
pub fn update_mode() -> bool {
    matches!(
        std::env::var("UPDATE_SNAPSHOTS").as_deref(),
        Ok("1") | Ok("true")
    )
}

/// Path of a scenario's golden snapshot inside `dir`.
pub fn snapshot_path(dir: &Path, scenario: &str) -> PathBuf {
    dir.join(format!("{scenario}.snap"))
}

/// Outcome of a successful [`check_snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotCheck {
    /// The rendering matches the stored golden byte for byte.
    Match,
    /// Bless mode: the golden was (re)written from the rendering.
    Updated,
}

/// A failed snapshot comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// No golden exists yet for this scenario.
    Missing {
        /// Path where the golden was expected.
        path: String,
    },
    /// The rendering differs from the stored golden.
    Drift {
        /// Path of the stored golden.
        path: String,
        /// Line-level diff, `-` golden / `+` actual.
        diff: String,
    },
    /// The golden could not be read or written.
    Io {
        /// Path involved.
        path: String,
        /// Underlying error message.
        message: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Missing { path } => write!(
                f,
                "missing golden snapshot `{path}`\n  bless it with: UPDATE_SNAPSHOTS=1 cargo test"
            ),
            SnapshotError::Drift { path, diff } => write!(
                f,
                "snapshot drift against `{path}`:\n{diff}  if the change is intended, \
                 re-bless with: UPDATE_SNAPSHOTS=1 cargo test (and commit the diff)"
            ),
            SnapshotError::Io { path, message } => {
                write!(f, "snapshot I/O error at `{path}`: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Compare `rendered` against `<dir>/<scenario>.snap`.
///
/// In bless mode ([`update_mode`]) the golden is rewritten and the check
/// reports [`SnapshotCheck::Updated`]; otherwise a missing golden or any
/// byte difference is a typed error whose message names the snapshot file
/// and shows a line-level diff.
pub fn check_snapshot(
    dir: &Path,
    scenario: &str,
    rendered: &str,
) -> Result<SnapshotCheck, SnapshotError> {
    let path = snapshot_path(dir, scenario);
    let shown = path.display().to_string();
    if update_mode() {
        std::fs::create_dir_all(dir).map_err(|e| SnapshotError::Io {
            path: shown.clone(),
            message: e.to_string(),
        })?;
        std::fs::write(&path, rendered).map_err(|e| SnapshotError::Io {
            path: shown.clone(),
            message: e.to_string(),
        })?;
        return Ok(SnapshotCheck::Updated);
    }
    let stored = match std::fs::read_to_string(&path) {
        Ok(stored) => stored,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(SnapshotError::Missing { path: shown })
        }
        Err(e) => {
            return Err(SnapshotError::Io {
                path: shown,
                message: e.to_string(),
            })
        }
    };
    if stored == rendered {
        return Ok(SnapshotCheck::Match);
    }
    Err(SnapshotError::Drift {
        path: shown,
        diff: diff_lines(&stored, rendered),
    })
}

/// Assert that `rendered` matches the stored golden, panicking with the
/// full diff (naming the `.snap` file) on drift — the `assert_snapshot`
/// idiom. In bless mode the golden is written instead.
#[expect(
    clippy::panic,
    reason = "DET003: this is the test-harness assert itself; panicking with the diff is the whole point, and non-panicking callers use check_snapshot"
)]
pub fn assert_snapshot(dir: &Path, scenario: &str, rendered: &str) {
    if let Err(error) = check_snapshot(dir, scenario, rendered) {
        panic!("{error}");
    }
}

/// Line-level diff between a stored golden (`-`) and an actual rendering
/// (`+`). Snapshot lines are sorted `key = value` pairs, so the diff merges
/// by key when both sides have that shape and falls back to a positional
/// comparison otherwise.
pub fn diff_lines(expected: &str, actual: &str) -> String {
    fn keyed(text: &str) -> Option<BTreeMap<&str, &str>> {
        let mut map = BTreeMap::new();
        for line in text.lines() {
            let (key, _) = line.split_once(" = ")?;
            if map.insert(key, line).is_some() {
                return None; // duplicate keys: not canonical, fall back
            }
        }
        Some(map)
    }

    let mut out = String::new();
    match (keyed(expected), keyed(actual)) {
        (Some(want), Some(got)) => {
            for key in want
                .keys()
                .chain(got.keys())
                .collect::<std::collections::BTreeSet<_>>()
            {
                match (want.get(*key), got.get(*key)) {
                    (Some(w), Some(g)) if w == g => {}
                    (Some(w), Some(g)) => {
                        out.push_str(&format!("  - {w}\n  + {g}\n"));
                    }
                    (Some(w), None) => out.push_str(&format!("  - {w}\n")),
                    (None, Some(g)) => out.push_str(&format!("  + {g}\n")),
                    #[expect(
                        clippy::unreachable,
                        reason = "DET003: every key iterated comes from the union of the two maps, so at least one lookup must succeed"
                    )]
                    (None, None) => unreachable!("key from union of both maps"),
                }
            }
        }
        _ => {
            let want: Vec<&str> = expected.lines().collect();
            let got: Vec<&str> = actual.lines().collect();
            for i in 0..want.len().max(got.len()) {
                match (want.get(i), got.get(i)) {
                    (Some(w), Some(g)) if w == g => {}
                    (w, g) => {
                        if let Some(w) = w {
                            out.push_str(&format!("  - {w}\n"));
                        }
                        if let Some(g) = g {
                            out.push_str(&format!("  + {g}\n"));
                        }
                    }
                }
            }
        }
    }
    out
}

/// `.snap` files in `dir` that belong to no expected scenario — stale
/// goldens left behind by a renamed or deleted scenario. A missing
/// directory has no orphans.
pub fn orphaned_snapshots(dir: &Path, expected: &[&str]) -> Result<Vec<String>, SnapshotError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(SnapshotError::Io {
                path: dir.display().to_string(),
                message: e.to_string(),
            })
        }
    };
    let mut orphans = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| SnapshotError::Io {
            path: dir.display().to_string(),
            message: e.to_string(),
        })?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("snap") {
            continue;
        }
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        if !expected.contains(&stem) {
            orphans.push(path.display().to_string());
        }
    }
    orphans.sort();
    Ok(orphans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use waterwise_cluster::SolverActivity;
    use waterwise_sustain::{Co2Grams, Liters, Seconds};

    fn summary() -> CampaignSummary {
        CampaignSummary {
            total_jobs: 120,
            total_carbon: Co2Grams::new(321.5),
            total_water: Liters::new(9.25),
            mean_service_stretch: 1.0625,
            violation_fraction: 0.025,
            migration_fraction: 0.4,
            jobs_per_region: [30, 20, 40, 20, 10],
            mean_utilization: 0.15,
            mean_decision_time: Seconds::zero(),
            decision_overhead_fraction: 0.0,
            solver: SolverActivity::default(),
        }
    }

    #[test]
    fn rendering_is_stable_across_insertion_order() {
        let pairs: BTreeMap<String, String> = (0..16)
            .map(|i| (format!("k{i:02}"), format!("v{i}")))
            .collect();
        let mut forward = Snapshot::new();
        for (k, v) in pairs.iter() {
            forward.entry(k.clone(), v);
        }
        let mut reversed = Snapshot::new();
        let mut collected: Vec<_> = pairs.iter().collect();
        collected.reverse();
        for (k, v) in collected {
            reversed.entry(k.clone(), v);
        }
        assert_eq!(forward.render(), reversed.render());
        // And the render is actually sorted.
        let rendered = forward.render();
        let lines: Vec<&str> = rendered.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn summary_rendering_excludes_wall_clock_and_solver_effort() {
        let clean = summary();
        let mut noisy = summary();
        noisy.mean_decision_time = Seconds::new(0.125);
        noisy.decision_overhead_fraction = 0.5;
        noisy.solver.solves = 500;
        noisy.solver.simplex_pivots = 12_345;
        assert_eq!(
            Snapshot::of(&clean).render(),
            Snapshot::of(&noisy).render(),
            "wall-clock and solver-effort fields must not reach the golden"
        );
        // The fields the snapshot *does* pin are all present.
        let rendered = Snapshot::of(&clean).render();
        for key in [
            "summary.total_jobs",
            "summary.total_carbon_g",
            "summary.total_water_l",
            "summary.mean_service_stretch",
            "summary.violation_fraction",
            "summary.migration_fraction",
            "summary.jobs_per_region",
            "summary.mean_utilization",
        ] {
            assert!(rendered.contains(key), "missing `{key}` in:\n{rendered}");
        }
    }

    #[test]
    fn drift_reports_a_line_diff_naming_the_snapshot_file() {
        if update_mode() {
            return; // bless runs rewrite instead of failing; nothing to test
        }
        let dir = std::env::temp_dir().join(format!("ww-snap-drift-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            snapshot_path(&dir, "demo"),
            "a = 1\nsummary.total_jobs = 120\n",
        )
        .unwrap();
        let err = check_snapshot(&dir, "demo", "a = 1\nsummary.total_jobs = 121\n").unwrap_err();
        let message = err.to_string();
        assert!(message.contains("demo.snap"), "diff must name the file");
        assert!(message.contains("- summary.total_jobs = 120"));
        assert!(message.contains("+ summary.total_jobs = 121"));
        assert!(!message.contains("- a = 1"), "unchanged lines stay out");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_snapshot_points_at_the_bless_workflow() {
        if update_mode() {
            return;
        }
        let dir = std::env::temp_dir().join(format!("ww-snap-missing-{}", std::process::id()));
        let err = check_snapshot(&dir, "nope", "x = 1\n").unwrap_err();
        assert!(matches!(err, SnapshotError::Missing { .. }));
        assert!(err.to_string().contains("UPDATE_SNAPSHOTS=1"));
    }

    #[test]
    fn orphaned_snapshots_are_detected() {
        let dir = std::env::temp_dir().join(format!("ww-snap-orphan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(snapshot_path(&dir, "kept"), "x = 1\n").unwrap();
        std::fs::write(snapshot_path(&dir, "stale"), "x = 1\n").unwrap();
        std::fs::write(dir.join("README.md"), "not a snapshot").unwrap();
        let orphans = orphaned_snapshots(&dir, &["kept"]).unwrap();
        assert_eq!(orphans.len(), 1);
        assert!(orphans[0].ends_with("stale.snap"));
        assert_eq!(
            orphaned_snapshots(&dir.join("missing-subdir"), &["kept"]).unwrap(),
            Vec::<String>::new()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schedule_entries_pin_length_and_digest() {
        let mut snapshot = Snapshot::new();
        snapshot.add_schedule("waterwise", &[]);
        let rendered = snapshot.render();
        assert!(rendered.contains("waterwise.jobs = 0"));
        assert!(rendered.contains(&format!(
            "waterwise.digest = {:016x}",
            waterwise_cluster::schedule_digest(&[])
        )));
    }
}
