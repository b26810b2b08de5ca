//! WVR002 positive: a waiver naming a lint that does not exist.

#[expect(unknown_lints, reason = "fixture: WVR002 fires here")]
mod unknown {
    #[expect(clippy::det999, reason = "trust me")]
    fn noisy(queue: &mut Vec<u32>) -> u32 {
        queue.pop().unwrap_or(0)
    }
}
