//! Startup errors of the fig binaries: an unparsable `WATERWISE_DAYS` /
//! `WATERWISE_SEED`, or a `--scenario` with no path, exits 2 with a message
//! naming the culprit, before any campaign runs.

use std::process::Command;

/// Run `bin` with `args` and the overrides `env`, and demand exit 2 with
/// every one of `needles` on stderr.
fn assert_rejected(bin: &str, args: &[&str], env: &[(&str, &str)], needles: &[&str]) {
    let mut command = Command::new(bin);
    command
        .args(args)
        .env_remove("WATERWISE_DAYS")
        .env_remove("WATERWISE_SEED")
        .env_remove("WATERWISE_SCENARIO");
    for (key, value) in env {
        command.env(key, value);
    }
    let output = command.output().expect("bench binary must spawn");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "{args:?} {env:?} must exit 2; stderr: {stderr}"
    );
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "stderr must name {needle}: {stderr}"
        );
    }
}

#[test]
fn an_unparsable_seed_exits_2_naming_the_variable_and_value() {
    assert_rejected(
        env!("CARGO_BIN_EXE_table3_comm_overhead"),
        &[],
        &[("WATERWISE_SEED", "4x2")],
        &["WATERWISE_SEED", "4x2"],
    );
}

#[test]
fn an_unparsable_days_override_of_a_scenario_exits_2_naming_the_variable_and_value() {
    assert_rejected(
        env!("CARGO_BIN_EXE_fig05_waterwise_google"),
        &[],
        &[("WATERWISE_DAYS", "abc")],
        &["WATERWISE_DAYS", "abc"],
    );
}

#[test]
fn a_scenario_flag_without_a_path_exits_2_naming_the_flag() {
    // A short campaign, should the flag ever be ignored again.
    assert_rejected(
        env!("CARGO_BIN_EXE_fig05_waterwise_google"),
        &["--scenario"],
        &[("WATERWISE_DAYS", "0.01")],
        &["--scenario"],
    );
}
