//! DET002 waiver: a scrubbed timing capture names its scrub path.

fn timed() -> f64 {
    #[expect(
        clippy::disallowed_methods,
        reason = "DET002: prepare timing capture; scrubbed by without_wall_clock"
    )]
    let started = std::time::Instant::now();
    started.elapsed().as_secs_f64()
}
