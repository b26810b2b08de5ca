//! DET002 positive: raw wall-clock reads.

#[expect(clippy::disallowed_methods, reason = "fixture: DET002 fires here")]
fn stamp() -> (std::time::Instant, std::time::SystemTime) {
    let started = std::time::Instant::now();
    let stamped = std::time::SystemTime::now();
    (started, stamped)
}
