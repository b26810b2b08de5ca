#!/usr/bin/env bash
# The command BENCHMARK.json names: build both ledger binaries from source
# (a no-op when they are current), then hand every argument to the driver.
# `--trace 1` needs ledger_traced next to ledger, which `cargo run` alone
# would not build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --offline --release --quiet --manifest-path "$here/Cargo.toml" --bins 1>&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/ledger" "$@"
