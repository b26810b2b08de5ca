//! Workspace file discovery: every `.rs` file that feeds the shipped
//! binaries, in a deterministic (sorted) order.
//!
//! Skipped subtrees:
//! - `target/`, `.git/` — build artifacts and VCS metadata;
//! - `crates/compat/` — vendored API stubs for external crates; their whole
//!   point is to mimic `criterion`/`rand` behavior (including wall-clock
//!   reads), not to feed schedules;
//! - `tests/`, `benches/`, `examples/` directories — test and harness code,
//!   where `unwrap()` is the correct idiom (in-file `#[cfg(test)]` modules
//!   are masked separately by the rule engine);
//! - `crates/lint/tests/fixtures/` — deliberately violating fixture files
//!   (covered by the `tests/` rule but called out because a lint that lints
//!   its own counterexamples would deadlock development);
//! - the top-level `benchmark/` directory — the perf ledger is a package of
//!   its own outside the root workspace, and a measuring harness whose job
//!   is to read `nproc` and the wall clock;
//! - files named `tests.rs` — the workspace convention for an out-of-line
//!   `#[cfg(test)] mod tests;` (the gating attribute lives in the parent
//!   `mod.rs`, which a per-file pass cannot see).

use std::io;
use std::path::{Path, PathBuf};

const SKIP_DIRS: &[&str] = &[
    "target", ".git", "tests", "benches", "examples", "fixtures", "compat",
];

/// Collect workspace-relative paths (forward slashes) of every `.rs` file
/// under `root` that the lint should scan, sorted for deterministic output.
pub fn workspace_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    let mut stack = vec![PathBuf::new()];
    while let Some(rel_dir) = stack.pop() {
        let dir = root.join(&rel_dir);
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            let rel = if rel_dir.as_os_str().is_empty() {
                PathBuf::from(&name)
            } else {
                rel_dir.join(&name)
            };
            let kind = entry.file_type()?;
            if kind.is_dir() {
                let outside_workspace = rel_dir.as_os_str().is_empty() && name == "benchmark";
                if !SKIP_DIRS.contains(&name.as_str())
                    && !name.starts_with('.')
                    && !outside_workspace
                {
                    stack.push(rel);
                }
            } else if kind.is_file() && name.ends_with(".rs") && name != "tests.rs" {
                files.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walks_this_workspace_and_skips_fixture_and_compat_trees() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = workspace_files(&root).expect("workspace is readable");
        assert!(files.iter().any(|f| f == "crates/lint/src/walk.rs"));
        assert!(files
            .iter()
            .any(|f| f == "crates/core/src/sched/waterwise.rs"));
        assert!(!files.iter().any(|f| f.contains("compat")));
        assert!(!files.iter().any(|f| f.contains("fixtures")));
        assert!(!files.iter().any(|f| f.contains("target/")));
        assert!(
            !files.iter().any(|f| f.ends_with("/tests.rs")),
            "out-of-line #[cfg(test)] test modules must be skipped"
        );
        assert!(!files.iter().any(|f| f.starts_with("examples/")));
        assert!(
            !files.iter().any(|f| f.starts_with("benchmark/")),
            "the standalone perf ledger is outside the root workspace"
        );
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "walk order must be deterministic");
    }
}
