//! Journal-driven host helpers shared by the `resume_equals_uninterrupted`
//! row of the root `tests/invariants.rs` and the `server_resume` golden
//! test (both include this file by path).

#![expect(
    clippy::disallowed_methods,
    reason = "DET002: the wall clock only bounds how long a test waits for the journal; it never reaches a schedule"
)]

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};
use waterwise_service::{ClusterHost, PlacementResponse, TenantId};
use waterwise_traces::JobSpec;

/// Wait until the journal file holds at least `lines` newline-terminated
/// entries — the proof that admissions stream to disk as they happen, and
/// the crash point of an interrupted run.
pub fn wait_for_journal_lines(path: &Path, lines: usize) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let text = fs::read_to_string(path).unwrap_or_default();
        if text.bytes().filter(|b| *b == b'\n').count() >= lines {
            return text;
        }
        assert!(
            Instant::now() < deadline,
            "journal {} never reached {lines} entries (has: {text:?})",
            path.display(),
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Submit one wave through one session and hand back the session's
/// response outbox. Each submission is serialized against the journal
/// file (submit, wait for its line, submit the next): the admission
/// queue's deficit-round-robin drains whatever is queued *when the engine
/// takes*, so un-serialized concurrent submissions would make the drain
/// order — and with it the watermark stamping — timing-dependent. The
/// identity under test is "same admitted stream ⇒ same schedule", so the
/// test pins the stream. `base_lines` is how many entries the journal
/// already held. A wave must fit in the session's bounded outbox (see
/// `docs/ONLINE_SERVICE.md` §Backpressure), so its responses can be
/// collected after shutdown without backpressure.
pub fn submit_wave(
    host: &ClusterHost,
    wave: &[(TenantId, JobSpec)],
    journal_path: &Path,
    base_lines: usize,
) -> std::sync::mpsc::Receiver<PlacementResponse> {
    let session = host.open_session("wave").expect("open session");
    let responses = session.take_responses().expect("take responses");
    for (index, (tenant, spec)) in wave.iter().enumerate() {
        session.submit_as(tenant, spec.clone()).expect("submit");
        wait_for_journal_lines(journal_path, base_lines + index + 1);
    }
    session.finish();
    responses
}
