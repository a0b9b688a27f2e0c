#!/usr/bin/env bash
# Builds the reference benchmark (`cqbench/`, a package of its own that
# tier-1 `cargo test` never compiles) against the current crates and runs
# its unit tests and its `--check` smoke pass: every workload at 1/20 size,
# verified against the brute-force oracle, replayed twice for the
# determinism gate. A change under `crates/` that breaks a signature the
# benchmark uses, or the exact repeatability of its counts, fails here.
#
#   scripts/check_cqbench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release --manifest-path cqbench/Cargo.toml
cargo run --release --manifest-path cqbench/Cargo.toml -- --check
echo "cqbench OK"
