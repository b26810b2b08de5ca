//! Negative battery for the scenario spec parser: one test per rejection
//! class. Every malformed, unknown, or out-of-range spec must come back as
//! a typed [`ScenarioError`] carrying the offending 1-based line number —
//! never a panic, never a silently-defaulted value.

use waterwise_cluster::ConfigError;
use waterwise_core::{load_spec, parse_spec, ScenarioError};

/// A minimal valid spec (5 lines); appended text starts at line 6.
const BASE: &str = "[scenario]\nname = t\nseed = 7\n[trace]\ndays = 0.02\n";

fn with(extra: &str) -> Result<waterwise_core::Scenario, ScenarioError> {
    parse_spec(&format!("{BASE}{extra}"))
}

#[test]
fn malformed_line_is_a_syntax_error_with_its_line_number() {
    let err = with("this is not a key value pair\n").unwrap_err();
    assert!(
        matches!(err, ScenarioError::Syntax { line: 6, .. }),
        "got {err:?}"
    );
    assert!(err.to_string().contains("line 6"));
}

#[test]
fn unterminated_section_header_is_a_syntax_error() {
    let err = parse_spec("[scenario\nname = t\n").unwrap_err();
    assert!(
        matches!(err, ScenarioError::Syntax { line: 1, .. }),
        "got {err:?}"
    );
}

#[test]
fn empty_section_header_is_a_syntax_error() {
    let err = parse_spec("[]\n").unwrap_err();
    assert!(
        matches!(err, ScenarioError::Syntax { line: 1, .. }),
        "got {err:?}"
    );
}

#[test]
fn key_before_any_section_is_a_syntax_error() {
    let err = parse_spec("name = t\n").unwrap_err();
    assert!(
        matches!(err, ScenarioError::Syntax { line: 1, .. }),
        "got {err:?}"
    );
}

#[test]
fn unknown_section_is_rejected_by_name() {
    let err = with("[scheduler]\n").unwrap_err();
    assert_eq!(
        err,
        ScenarioError::UnknownSection {
            line: 6,
            section: "scheduler".to_string()
        }
    );
}

#[test]
fn unknown_key_is_rejected_with_its_section() {
    for (extra, section, key) in [
        ("[simulation]\nservers = 10\n", "simulation", "servers"),
        // A retired key is an unknown one, not a silently ignored one.
        ("[campaign]\ncache_path = x\n", "campaign", "cache_path"),
    ] {
        let err = with(extra).unwrap_err();
        assert_eq!(
            err,
            ScenarioError::UnknownKey {
                line: 7,
                section,
                key: key.to_string()
            }
        );
    }
}

#[test]
fn duplicate_key_is_rejected_at_the_second_assignment() {
    let err = with("days = 0.04\n").unwrap_err();
    assert_eq!(
        err,
        ScenarioError::DuplicateKey {
            line: 6,
            key: "days".to_string()
        }
    );
}

#[test]
fn non_numeric_value_is_an_invalid_value() {
    let err = parse_spec("[scenario]\nname = t\nseed = many\n").unwrap_err();
    assert!(
        matches!(
            err,
            ScenarioError::InvalidValue {
                line: 3,
                key: "seed",
                ..
            }
        ),
        "got {err:?}"
    );
}

#[test]
fn non_finite_float_is_out_of_range() {
    for bad in ["nan", "inf", "-inf"] {
        let err = with(&format!("rate_multiplier = {bad}\n")).unwrap_err();
        assert!(
            matches!(
                err,
                ScenarioError::OutOfRange {
                    line: 6,
                    key: "rate_multiplier",
                    ..
                }
            ),
            "`{bad}` got {err:?}"
        );
    }
}

#[test]
fn non_positive_days_is_out_of_range() {
    for bad in ["0", "-0.5"] {
        let err = parse_spec(&format!(
            "[scenario]\nname = t\nseed = 7\n[trace]\ndays = {bad}\n"
        ))
        .unwrap_err();
        assert!(
            matches!(
                err,
                ScenarioError::OutOfRange {
                    line: 5,
                    key: "days",
                    ..
                }
            ),
            "`{bad}` got {err:?}"
        );
    }
}

#[test]
fn lambda_outside_unit_interval_is_out_of_range() {
    for bad in ["-0.1", "1.5"] {
        let err = with(&format!("[objective]\nlambda_co2 = {bad}\n")).unwrap_err();
        assert!(
            matches!(
                err,
                ScenarioError::OutOfRange {
                    line: 7,
                    key: "lambda_co2",
                    ..
                }
            ),
            "`{bad}` got {err:?}"
        );
    }
}

#[test]
fn unknown_engine_label_and_zero_workers_are_rejected() {
    let err = with("[simulation]\nengine = threads\n").unwrap_err();
    assert!(
        matches!(
            err,
            ScenarioError::InvalidValue {
                line: 7,
                key: "engine",
                ..
            }
        ),
        "got {err:?}"
    );
    let err = with("[simulation]\nengine = pipelined:0\n").unwrap_err();
    assert!(
        matches!(
            err,
            ScenarioError::OutOfRange {
                line: 7,
                key: "engine",
                ..
            }
        ),
        "got {err:?}"
    );
}

#[test]
fn unknown_clock_label_and_non_positive_scale_are_rejected() {
    let err = with("[simulation]\nclock = wall\n").unwrap_err();
    assert!(
        matches!(
            err,
            ScenarioError::InvalidValue {
                line: 7,
                key: "clock",
                ..
            }
        ),
        "got {err:?}"
    );
    let err = with("[simulation]\nclock = real-time:0\n").unwrap_err();
    assert!(
        matches!(
            err,
            ScenarioError::OutOfRange {
                line: 7,
                key: "clock",
                ..
            }
        ),
        "got {err:?}"
    );
}

#[test]
fn unknown_and_duplicate_regions_are_rejected() {
    let err = with("regions = Oregon, Atlantis\n").unwrap_err();
    assert!(
        matches!(
            err,
            ScenarioError::InvalidValue {
                line: 6,
                key: "regions",
                ..
            }
        ),
        "got {err:?}"
    );
    let err = with("regions = Oregon, Oregon\n").unwrap_err();
    assert!(
        matches!(
            err,
            ScenarioError::InvalidValue {
                line: 6,
                key: "regions",
                ..
            }
        ),
        "got {err:?}"
    );
    let err = with("regions = \n").unwrap_err();
    assert!(
        matches!(
            err,
            ScenarioError::InvalidValue {
                line: 6,
                key: "regions",
                ..
            }
        ),
        "empty list: got {err:?}"
    );
}

#[test]
fn unknown_benchmark_is_rejected() {
    let err = with("benchmarks = linpack\n").unwrap_err();
    assert!(
        matches!(
            err,
            ScenarioError::InvalidValue {
                line: 6,
                key: "benchmarks",
                ..
            }
        ),
        "got {err:?}"
    );
}

#[test]
fn missing_required_keys_are_reported_by_section_and_key() {
    assert_eq!(
        parse_spec("[scenario]\nseed = 7\n[trace]\ndays = 0.02\n").unwrap_err(),
        ScenarioError::MissingKey {
            section: "scenario",
            key: "name"
        }
    );
    assert_eq!(
        parse_spec("[scenario]\nname = t\n[trace]\ndays = 0.02\n").unwrap_err(),
        ScenarioError::MissingKey {
            section: "scenario",
            key: "seed"
        }
    );
    assert_eq!(
        parse_spec("[scenario]\nname = t\nseed = 7\n").unwrap_err(),
        ScenarioError::MissingKey {
            section: "trace",
            key: "days"
        }
    );
}

#[test]
fn zero_servers_per_region_is_out_of_range() {
    let err = with("[simulation]\nservers_per_region = 0\n").unwrap_err();
    assert!(
        matches!(
            err,
            ScenarioError::OutOfRange {
                line: 7,
                key: "servers_per_region",
                ..
            }
        ),
        "got {err:?}"
    );
}

#[test]
fn non_positive_scheduling_interval_surfaces_the_typed_cluster_error() {
    // Parsed fine, rejected by `SimulationConfig::validate` — the spec layer
    // must pass the cluster's own `ConfigError` through unchanged.
    let err = with("[simulation]\nscheduling_interval_s = 0\n").unwrap_err();
    assert_eq!(
        err,
        ScenarioError::Config(ConfigError::NonPositiveSchedulingInterval { seconds: 0.0 })
    );
}

#[test]
fn non_positive_embodied_perturbation_surfaces_the_typed_cluster_error() {
    let err = with("[simulation]\nembodied_perturbation = -1\n").unwrap_err();
    assert_eq!(
        err,
        ScenarioError::Config(ConfigError::NonPositiveEmbodiedPerturbation { factor: -1.0 })
    );
}

#[test]
fn invalid_scenario_name_is_rejected() {
    let err = parse_spec("[scenario]\nname = ../escape\n").unwrap_err();
    assert!(
        matches!(
            err,
            ScenarioError::InvalidValue {
                line: 2,
                key: "name",
                ..
            }
        ),
        "got {err:?}"
    );
}

#[test]
fn unreadable_spec_file_is_a_typed_io_error() {
    let err = load_spec("/nonexistent/waterwise/missing.spec").unwrap_err();
    assert!(matches!(err, ScenarioError::Io { .. }), "got {err:?}");
    assert!(err.line().is_none());
}

#[test]
fn located_errors_render_as_file_line_message() {
    let err = with("[objective]\nlambda_co2 = 2\n").unwrap_err();
    let located = err.located("scenarios/broken.spec");
    assert!(
        located.starts_with("scenarios/broken.spec:7: "),
        "located: {located}"
    );
}
