#!/usr/bin/env bash
# The benchmark's one command: builds the release binaries it drives
# (msmr-served, msmr-router) and its own (msmr-benchmark), then runs
#
#   benchmark/run.sh [--workload NAME] [--seed S] [--seconds N]
#                    [--trace [0|1]] [--quick] [--out PATH] [--pin]
#   benchmark/run.sh compare PARENT.json CHANGE.json
#
# from the root of the repository. See benchmark/README.md.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
cd "$ROOT"

# One target directory for both workspaces, so the benchmark finds the
# product binaries next to its own. A relative CARGO_TARGET_DIR is
# relative to the root, where cargo is run from.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$ROOT/target}"

# Build output goes to stderr: stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path "$ROOT/Cargo.toml" \
    -p msmr-cluster --bin msmr-served -p msmr-router --bin msmr-router >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/msmr-benchmark" "$@"
