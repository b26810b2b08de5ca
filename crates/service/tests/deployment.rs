//! `placement_server`'s deployment settings: the variable tables of its
//! module doc and of `docs/ONLINE_SERVICE.md` list exactly what the server
//! reads — the spec path, the spec-key overrides (`KEYS` rows) and the
//! deployment variables (`DEPLOYMENT` rows), each with its grammar and what
//! it overrides — and the settings shape each run's admission policy.

use waterwise_core::scenario::KEYS;
use waterwise_service::deployment::{DEPLOYMENT, SPEC_OVERRIDES};
use waterwise_service::{AdmissionConfig, AdmissionMode, Deployment};

/// The rows the docs must print, sorted.
fn variable_rows() -> Vec<String> {
    let row = |name: &str, grammar: &str, overrides: &str, doc: &str| {
        let cell = |text: &str| text.replace('|', "\\|");
        format!(
            "| `{name}` | {} | {overrides} | {} |",
            cell(grammar),
            cell(doc)
        )
    };
    let spec = "Path of the scenario spec file (as `--scenario`).";
    let mut rows = vec![row("WATERWISE_SCENARIO", "path", "the whole spec", spec)];
    for key in KEYS {
        if let Some(var) = key.env.filter(|var| SPEC_OVERRIDES.contains(var)) {
            let overrides = format!("`[{}] {}`", key.section, key.name);
            rows.push(row(var, key.grammar, &overrides, key.doc));
        }
    }
    rows.extend(
        DEPLOYMENT
            .iter()
            .map(|var| row(var.name, var.grammar, "—", var.doc)),
    );
    rows.sort();
    rows
}

/// The table rows of `doc` (each line stripped of `prefix`), sorted.
fn documented_rows(doc: &str, prefix: &str) -> Vec<String> {
    let mut rows: Vec<String> = doc
        .lines()
        .filter_map(|line| line.strip_prefix(prefix))
        .filter(|line| line.starts_with("| `WATERWISE_"))
        .map(str::to_string)
        .collect();
    rows.sort();
    rows
}

#[test]
fn every_override_the_server_honors_overrides_a_key() {
    for var in SPEC_OVERRIDES {
        assert!(KEYS.iter().any(|key| key.env == Some(var)), "{var}");
    }
}

#[test]
fn the_module_doc_lists_exactly_the_variables_read() {
    let expected = variable_rows();
    assert_eq!(
        documented_rows(include_str!("../src/bin/placement_server.rs"), "//! "),
        expected,
        "the module doc's variable table should read:\n{}",
        expected.join("\n")
    );
}

#[test]
fn the_operator_guide_lists_exactly_the_variables_read() {
    let guide = include_str!("../../../docs/ONLINE_SERVICE.md");
    assert_eq!(documented_rows(guide, ""), variable_rows());
}

#[test]
fn a_run_admits_its_own_session_count_under_the_set_quotas() {
    let mut deployment = Deployment {
        admission: AdmissionConfig {
            tenant_inflight_quota: 3,
            drr_quantum: 2,
            ..AdmissionConfig::default()
        },
        ..Deployment::default()
    };
    let streaming = deployment.admission(4);
    assert_eq!(
        (streaming.tenant_inflight_quota, streaming.drr_quantum),
        (3, 2)
    );
    assert!(matches!(
        streaming.mode,
        AdmissionMode::Streaming {
            close_after_sessions: Some(4)
        }
    ));
    deployment.gated = true;
    let gated = deployment.admission(2);
    assert!(matches!(gated.mode, AdmissionMode::Gated { sessions: 2 }));
    assert_eq!(gated.tenant_inflight_quota, 3);
}
