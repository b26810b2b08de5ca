//! The untraced ledger: the system allocator, no wrappers, no spans.

fn main() -> std::process::ExitCode {
    waterwise_benchmark::main_with(false)
}
