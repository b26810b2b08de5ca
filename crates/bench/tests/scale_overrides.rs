//! An unparsable `WATERWISE_DAYS` / `WATERWISE_SEED` is a startup error: the
//! binary exits 2 naming the variable and its value, before any campaign runs.

use std::process::Command;

/// Run `bin` with one unparsable override and demand exit 2 with the
/// variable and its value on stderr.
fn assert_rejected(bin: &str, key: &str, value: &str) {
    let output = Command::new(bin)
        .env_remove("WATERWISE_DAYS")
        .env_remove("WATERWISE_SEED")
        .env_remove("WATERWISE_SCENARIO")
        .env(key, value)
        .output()
        .expect("bench binary must spawn");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "{key}={value} must exit 2; stderr: {stderr}"
    );
    assert!(stderr.contains(key), "stderr must name {key}: {stderr}");
    assert!(stderr.contains(value), "stderr must echo {value}: {stderr}");
}

#[test]
fn an_unparsable_seed_exits_2_naming_the_variable_and_value() {
    assert_rejected(
        env!("CARGO_BIN_EXE_table3_comm_overhead"),
        "WATERWISE_SEED",
        "4x2",
    );
}

#[test]
fn an_unparsable_days_override_of_a_scenario_exits_2_naming_the_variable_and_value() {
    assert_rejected(
        env!("CARGO_BIN_EXE_fig05_waterwise_google"),
        "WATERWISE_DAYS",
        "abc",
    );
}
