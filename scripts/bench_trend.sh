#!/usr/bin/env bash
# Trend gate over the BENCH_kernels.json run history: compares the
# latest non-fast run against the best value each of its kernels
# achieved over the previous N recordings and fails when any regressed
# beyond the tolerance; series it no longer records are `retired` notes
# (see crates/report/src/trend.rs for the semantics).
#
# Usage: scripts/bench_trend.sh [--window N] [--tolerance PCT] [--file PATH] [--include-fast]
set -euo pipefail

cargo run --release -q -p msmr-report --bin bench_trend -- "$@"
