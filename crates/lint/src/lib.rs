//! `waterwise-lint` — a determinism & hot-path static-analysis pass that
//! enforces the byte-identity discipline at the source level.
//!
//! Every PR since the seed stakes its correctness claim on byte-identical
//! schedules (serial==parallel, warm==cold, online==offline,
//! snapshot==replay), but until now those invariants were
//! enforced only *dynamically* — by proptests and in-bench asserts that run
//! after a nondeterminism bug has already been written. This crate moves
//! the discipline to the source: a hand-rolled Rust lexer (no registry
//! dependencies, in the same spirit as the scenario spec parser and the
//! bench JSON writer) feeds a small rule engine with five named rules:
//!
//! | rule | guards against |
//! |------|----------------|
//! | DET001 | hash-ordered iteration (`HashMap`/`HashSet`) in schedule-affecting crates |
//! | DET002 | wall-clock reads outside `without_wall_clock`-scrubbed capture sites |
//! | DET003 | `unwrap`/`expect`/`panic!` in engine/scheduler/solver non-test code |
//! | DET004 | per-call `available_parallelism()` / thread-identity branching |
//! | DET005 | float `==`/`!=` in objective/accounting code |
//!
//! Real violations are either fixed or waived inline with
//! `// lint:allow(DET00N: reason)` — and a waiver without a reason, naming
//! an unknown rule, or covering a line where the rule no longer fires is
//! itself an error (WVR001–WVR003), so the waiver set can never rot.
//!
//! ```
//! use waterwise_lint::{check_file, ScopeMode};
//!
//! let findings = check_file(
//!     "crates/core/src/sched/example.rs",
//!     "fn f() { let m = std::collections::HashMap::<u32, u32>::new(); }",
//!     ScopeMode::Workspace,
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule.code(), "DET001");
//! assert!(findings[0].render().starts_with("crates/core/src/sched/example.rs:1: DET001"));
//! ```

mod lexer;
mod rules;
mod walk;

pub use lexer::{lex, LexedFile, Token, TokenKind};
pub use rules::{check_file, Finding, RuleId, ScopeMode};
pub use walk::workspace_files;

use std::path::Path;
use waterwise_service::wire::json_string;

/// The outcome of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of files scanned.
    pub files: usize,
    /// Every finding, waived ones included, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
}

impl Report {
    /// Findings not covered by a waiver — the ones that fail `--deny`.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.waived.is_none())
    }

    /// Number of active (unwaived) findings.
    pub fn active_count(&self) -> usize {
        self.active().count()
    }

    /// Number of findings suppressed by a reasoned waiver.
    pub fn waived_count(&self) -> usize {
        self.findings.len() - self.active_count()
    }

    /// Serialize as machine-readable JSON, built with the workspace's one
    /// hand-rolled string escaper ([`waterwise_service::wire::json_string`]);
    /// the report is the artifact the CI lint job archives.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"waterwise-lint/1\"");
        out.push_str(&format!(
            ",\"files_scanned\":{},\"active\":{},\"waived\":{},\"findings\":[",
            self.files,
            self.active_count(),
            self.waived_count()
        ));
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":{},\"path\":{},\"line\":{},\"message\":{},\"waived\":{},\"reason\":{}}}",
                json_string(f.rule.code()),
                json_string(&f.path),
                f.line,
                json_string(&f.message),
                if f.waived.is_some() { "true" } else { "false" },
                json_string(f.waived.as_deref().unwrap_or("")),
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Lint every workspace `.rs` file under `root` (see
/// [`workspace_files`] for what is scanned) with the real crate scopes.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    lint_paths(root, &workspace_files(root)?, ScopeMode::Workspace)
}

/// Lint an explicit set of workspace-relative paths. The fixture battery
/// uses this with [`ScopeMode::Everywhere`] to exercise every rule on
/// files that live outside the real crate scopes.
pub fn lint_paths(root: &Path, rel_paths: &[String], mode: ScopeMode) -> std::io::Result<Report> {
    let mut report = Report::default();
    for rel in rel_paths {
        let src = std::fs::read_to_string(root.join(rel))?;
        report.findings.extend(check_file(rel, &src, mode));
        report.files += 1;
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_valid_and_complete() {
        let dir = std::env::temp_dir().join("waterwise-lint-selftest");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        std::fs::write(
            dir.join("offender.rs"),
            "fn f() { let m = HashMap::new(); } // lint:allow(DET001: demo reason)\n\
             fn g() { x.unwrap(); }\n",
        )
        .expect("write fixture");
        let report =
            lint_paths(&dir, &["offender.rs".into()], ScopeMode::Everywhere).expect("lint runs");
        assert_eq!(report.files, 1);
        assert_eq!(report.active_count(), 1);
        assert_eq!(report.waived_count(), 1);
        let json = report.to_json();
        assert!(json.starts_with("{\"schema\":\"waterwise-lint/1\""));
        assert!(json.contains("\"rule\":\"DET001\""));
        assert!(json.contains("\"reason\":\"demo reason\""));
        assert!(json.contains("\"rule\":\"DET003\""));
    }
}
