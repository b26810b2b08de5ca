//! Startup errors of the `figures` binary: an unknown figure id, an
//! unparsable `WATERWISE_SEED`, a `WATERWISE_DAYS` that is not a finite
//! number of days > 0, a `--scenario` with no path, or a spec (flag or
//! `WATERWISE_SCENARIO`) with no one figure to apply to, exits 2 with a
//! message naming the culprit, before any campaign runs.

use std::process::{Command, Stdio};
use std::time::Duration;
use waterwise_bench::experiments::SCALE_OVERRIDES;
use waterwise_bench::FIGURES;
use waterwise_core::scenario::KEYS;

const FIGURES_BIN: &str = env!("CARGO_BIN_EXE_figures");

/// Run `figures` with `args` and the overrides `env`, and demand exit 2 with
/// every one of `needles` on stderr. A binary that accepted them would run a
/// campaign (or, for infinite days, never finish), so the wait is bounded
/// by a poll count and a survivor is killed.
fn assert_rejected(args: &[&str], env: &[(&str, &str)], needles: &[&str]) {
    let mut child = Command::new(FIGURES_BIN)
        .args(args)
        .env_remove("WATERWISE_DAYS")
        .env_remove("WATERWISE_SEED")
        .env_remove("WATERWISE_SCENARIO")
        .envs(env.iter().copied())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("figures must spawn");
    let mut polls = 0;
    while child.try_wait().expect("poll figures").is_none() {
        polls += 1;
        if polls > 1_500 {
            child.kill().ok();
            child.wait().ok();
            panic!("{args:?} {env:?} was accepted: the binary ran instead of exiting 2");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("collect figures");
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
        &["table3"],
        &[("WATERWISE_SEED", "4x2")],
        &["WATERWISE_SEED", "4x2"],
    );
}

#[test]
fn a_bad_days_override_exits_2_naming_the_variable_and_value() {
    // `abc` does not parse; the rest parse but break the spec's `days` rule
    // (finite and > 0). Every path to a scenario is covered: a figure's own
    // spec, the committed spec among several figures, and the paper's
    // default scenario.
    for args in [&["fig05"][..], &["fig05", "fig13"], &["fig13"]] {
        for days in ["abc", "NaN", "-1", "0", "inf"] {
            assert_rejected(args, &[("WATERWISE_DAYS", days)], &["WATERWISE_DAYS", days]);
        }
    }
}

#[test]
fn a_scenario_flag_without_a_path_exits_2_naming_the_flag() {
    // A short campaign, should the flag ever be ignored again.
    assert_rejected(
        &["fig05", "--scenario"],
        &[("WATERWISE_DAYS", "0.01")],
        &["--scenario"],
    );
}

#[test]
fn a_spec_applies_only_to_the_one_figure_named_that_has_a_spec() {
    // `all`, several figures, or a figure without a spec: the spec would be
    // silently ignored, so the binary refuses it by name, flag or variable.
    for args in [&["all"][..], &["fig05", "fig08"], &["fig09"]] {
        let mut with_flag = args.to_vec();
        with_flag.extend(["--scenario", "scenarios/fig05.spec"]);
        assert_rejected(&with_flag, &[], &["--scenario", "fig05, fig08"]);
        let mut with_inline_flag = args.to_vec();
        with_inline_flag.push("--scenario=scenarios/fig05.spec");
        assert_rejected(&with_inline_flag, &[], &["--scenario", "fig05, fig08"]);
        assert_rejected(
            args,
            &[("WATERWISE_SCENARIO", "scenarios/fig05.spec")],
            &["WATERWISE_SCENARIO", "fig05, fig08"],
        );
    }
}

#[test]
fn the_one_figure_named_loads_the_spec_it_is_given() {
    // A path that does not exist: honoring it is a startup error naming it.
    let missing = "no/such/dir/missing.spec";
    assert_rejected(&["fig08", "--scenario", missing], &[], &[missing]);
    assert_rejected(&["fig05"], &[("WATERWISE_SCENARIO", missing)], &[missing]);
}

#[test]
fn an_unknown_figure_exits_2_naming_it_and_listing_the_figures() {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    let listing = ids.join(", ");
    assert_rejected(&["fig04"], &[], &["fig04", &listing]);
    assert_rejected(&["fig05", "fig4"], &[], &["fig4", &listing]);
    assert_rejected(&[], &[], &["all", &listing]);
}

#[test]
fn every_scale_override_overrides_a_key() {
    for var in SCALE_OVERRIDES {
        assert!(KEYS.iter().any(|key| key.env == Some(var)), "{var}");
    }
}
