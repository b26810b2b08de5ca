//! `placement_server` startup: a present-but-unparsable environment
//! override is an operator error (exit status 2, stderr names the variable
//! and the rejected value), never a silently applied default.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Start the server with one bad override (plus the `context` variables it
/// needs to matter) and return its stderr. A server that accepted the value
/// would sit waiting for a client, so the wait is bounded and a survivor is
/// killed.
fn startup_failure(key: &str, value: &str, context: &[(&str, String)]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_placement_server"))
        .env("WATERWISE_ADDR", "127.0.0.1:0")
        .env(key, value)
        .envs(context.iter().map(|(k, v)| (k, v)))
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn placement_server");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll placement_server").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("{key}={value} was accepted: the server is serving instead of exiting");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = child.wait_with_output().expect("collect placement_server");
    assert_eq!(output.status.code(), Some(2), "{key}={value}");
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn unparsable_overrides_fail_startup_naming_the_variable() {
    // A resume flag only matters with a journal to resume from.
    let journal = std::env::temp_dir()
        .join(format!("ww-env-overrides-{}.journal", std::process::id()))
        .display()
        .to_string();
    let with_journal = [("WATERWISE_JOURNAL_PATH", journal)];
    for (key, value, context) in [
        ("WATERWISE_TENANT_QUOTA", "6x4", &[][..]),
        ("WATERWISE_CLOCK", "real-time:abc", &[]),
        ("WATERWISE_CLOCK", "sometimes", &[]),
        // Parses as a number, but no clock runs at that scale: the spec's
        // `clock` grammar rejects it, so the variable does too.
        ("WATERWISE_CLOCK", "real-time:0", &[]),
        ("WATERWISE_CLOCK", "real-time:-5", &[]),
        ("WATERWISE_CLOCK", "real-time:inf", &[]),
        ("WATERWISE_ADMISSION", "gatd", &[]),
        ("WATERWISE_RESUME", "yes", &with_journal[..]),
    ] {
        let stderr = startup_failure(key, value, context);
        assert!(stderr.contains(key), "stderr must name {key}: {stderr}");
        assert!(
            stderr.contains(value),
            "stderr must quote {value}: {stderr}"
        );
    }
}
