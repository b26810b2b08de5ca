//! DET004 positive: per-call parallelism and thread-identity reads.

#[expect(clippy::disallowed_methods, reason = "fixture: DET004 fires here")]
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "fixture: DET004 fires here"
)]
fn shard_by_thread() -> bool {
    let id: std::thread::ThreadId = std::thread::current().id();
    format!("{id:?}").len() % 2 == 0
}
