//! `placement_server` startup: a present-but-unparsable environment
//! override, or a `--scenario` with no path, is an operator error (exit
//! status 2, stderr names the culprit), never a silently applied default.

#![expect(
    clippy::disallowed_methods,
    reason = "DET002: the wall clock only bounds how long a test waits for the server to exit; it never reaches a schedule"
)]

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Start the server with `args` and the overrides `env` (a bad one plus the
/// variables it needs to matter) and return its stderr. A server that
/// accepted them would sit waiting for a client, so the wait is bounded and
/// a survivor is killed.
fn startup_failure(args: &[&str], env: &[(&str, &str)]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_placement_server"))
        .args(args)
        .env("WATERWISE_ADDR", "127.0.0.1:0")
        .envs(env.iter().copied())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn placement_server");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll placement_server").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("{args:?} {env:?} was accepted: the server is serving instead of exiting");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("collect placement_server");
    assert_eq!(output.status.code(), Some(2), "{args:?} {env:?}");
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn unparsable_overrides_fail_startup_naming_the_variable() {
    // A resume flag only matters with a journal to resume from.
    let journal = std::env::temp_dir()
        .join(format!("ww-env-overrides-{}.journal", std::process::id()))
        .display()
        .to_string();
    let with_journal = [("WATERWISE_JOURNAL_PATH", journal.as_str())];
    for (key, value, context) in [
        ("WATERWISE_TENANT_QUOTA", "6x4", &[][..]),
        // Each parses, but names no usable count: a zero quota, quantum or
        // concurrency is rejected, not raised to 1.
        ("WATERWISE_TENANT_QUOTA", "0", &[]),
        ("WATERWISE_DRR_QUANTUM", "0", &[]),
        ("WATERWISE_MULTI_SESSION", "0", &[]),
        ("WATERWISE_CLOCK", "real-time:abc", &[]),
        ("WATERWISE_CLOCK", "sometimes", &[]),
        // Parses as a number, but no clock runs at that scale: the spec's
        // `clock` grammar rejects it, so the variable does too.
        ("WATERWISE_CLOCK", "real-time:0", &[]),
        ("WATERWISE_CLOCK", "real-time:-5", &[]),
        ("WATERWISE_CLOCK", "real-time:inf", &[]),
        // The spec's `servers_per_region` and `delay_tolerance` rules
        // refuse these, so the variables naming them do too.
        ("WATERWISE_SERVERS", "0", &[]),
        ("WATERWISE_TOLERANCE", "-1", &[]),
        ("WATERWISE_TOLERANCE", "NaN", &[]),
        ("WATERWISE_ADMISSION", "gatd", &[]),
        ("WATERWISE_RESUME", "yes", &with_journal[..]),
    ] {
        let env: Vec<(&str, &str)> = [(key, value)].iter().chain(context).copied().collect();
        let stderr = startup_failure(&[], &env);
        assert!(stderr.contains(key), "stderr must name {key}: {stderr}");
        assert!(
            stderr.contains(value),
            "stderr must quote {value}: {stderr}"
        );
    }
}

#[test]
fn a_scenario_flag_without_a_path_fails_startup_naming_the_flag() {
    let stderr = startup_failure(&["--scenario"], &[]);
    assert!(
        stderr.contains("--scenario"),
        "stderr must name the flag: {stderr}"
    );
}
