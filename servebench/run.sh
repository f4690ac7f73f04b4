#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments, from the
# repository root:
#   bash servebench/run.sh --workload wp-read --seed 1 --seconds 25 --trace 0
# The binary replaces this shell (exec) rather than running under
# `cargo run`, so the peak RSS it reports is its own, not cargo's.
set -euo pipefail
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml
exec "${CARGO_TARGET_DIR:-servebench/target}/release/joza-servebench" "$@"
