//! WVR003 positive: a waiver that outlived its violation. rustc cannot
//! expect `unfulfilled_lint_expectations`, so this target must fail:
//! clippy reports "this lint expectation is unfulfilled".

#[expect(
    clippy::unwrap_used,
    reason = "the queue is checked non-empty by the caller"
)]
fn quiet(queue: &mut Vec<u32>) -> Option<u32> {
    queue.pop()
}

fn main() {
    let _ = quiet(&mut vec![1]);
}
