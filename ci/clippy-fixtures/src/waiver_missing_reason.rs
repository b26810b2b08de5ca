//! WVR001 positive: a waiver that fails to justify itself.

#[expect(
    clippy::allow_attributes_without_reason,
    reason = "fixture: WVR001 fires here"
)]
mod unjustified {
    #[expect(clippy::unwrap_used)]
    fn noisy(queue: &mut Vec<u32>) -> u32 {
        queue.pop().unwrap()
    }
}
