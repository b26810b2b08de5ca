//! DET003 positive: panicking operators in engine code.

#[expect(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    reason = "fixture: DET003 fires here"
)]
fn drain(queue: &mut Vec<u32>) -> u32 {
    let head = queue.pop().unwrap();
    let next = queue.last().expect("non-empty");
    if head > *next {
        panic!("inverted order");
    }
    unreachable!("drain never falls through");
}
