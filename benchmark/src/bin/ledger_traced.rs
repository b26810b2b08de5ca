//! The same driver with tracing on: spans, lookup counts, direct loops,
//! ablations, and every allocation counted.

use waterwise_benchmark::trace::CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    waterwise_benchmark::main_with(true)
}
