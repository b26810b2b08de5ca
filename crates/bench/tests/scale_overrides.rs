//! Startup errors of the fig binaries: an unparsable `WATERWISE_SEED`, a
//! `WATERWISE_DAYS` that is not a finite number of days > 0, or a
//! `--scenario` with no path, exits 2 with a message naming the culprit,
//! before any campaign runs.

use std::process::{Command, Stdio};
use std::time::Duration;
use waterwise_bench::experiments::SCALE_OVERRIDES;
use waterwise_core::scenario::KEYS;

/// Run `bin` with `args` and the overrides `env`, and demand exit 2 with
/// every one of `needles` on stderr. A binary that accepted them would run a
/// campaign (or, for infinite days, never finish), so the wait is bounded
/// by a poll count and a survivor is killed.
fn assert_rejected(bin: &str, args: &[&str], env: &[(&str, &str)], needles: &[&str]) {
    let mut child = Command::new(bin)
        .args(args)
        .env_remove("WATERWISE_DAYS")
        .env_remove("WATERWISE_SEED")
        .env_remove("WATERWISE_SCENARIO")
        .envs(env.iter().copied())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("bench binary must spawn");
    let mut polls = 0;
    while child.try_wait().expect("poll bench binary").is_none() {
        polls += 1;
        if polls > 1_500 {
            child.kill().ok();
            child.wait().ok();
            panic!("{args:?} {env:?} was accepted: the binary ran instead of exiting 2");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("collect bench binary");
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
fn a_bad_days_override_exits_2_naming_the_variable_and_value() {
    // `abc` does not parse; the rest parse but break the spec's `days` rule
    // (finite and > 0). Both readers are covered: the scenario override and
    // the experiment scale.
    for bin in [
        env!("CARGO_BIN_EXE_fig05_waterwise_google"),
        env!("CARGO_BIN_EXE_fig13_overhead"),
    ] {
        for days in ["abc", "NaN", "-1", "0", "inf"] {
            assert_rejected(
                bin,
                &[],
                &[("WATERWISE_DAYS", days)],
                &["WATERWISE_DAYS", days],
            );
        }
    }
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

#[test]
fn every_scale_override_overrides_a_key() {
    for var in SCALE_OVERRIDES {
        assert!(KEYS.iter().any(|key| key.env == Some(var)), "{var}");
    }
}
