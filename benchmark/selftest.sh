#!/usr/bin/env bash
# The benchmark's own A/A gate: two full sets of runs of the same build
# must agree within the benchmark's bounds on every (workload,
# end-to-end metric). Exits non-zero when `compare` finds a `worse` row.
#
#   benchmark/selftest.sh [--seed S] [--seconds N] [--trace]   # two full sets + compare
#   benchmark/selftest.sh --quick                              # smoke: < 30 s
#
# --quick runs one repetition per workload at a quarter of the op counts
# and compares the file with itself: it proves the plumbing (spawn,
# drive, check, reap, write, compare), not the numbers.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
OUT="$HERE/out"

if [ "${1:-}" = "--quick" ]; then
    "$HERE/run.sh" --quick --seed 2 --out "$OUT/selftest.quick.json"
    exec "$HERE/run.sh" compare "$OUT/selftest.quick.json" "$OUT/selftest.quick.json"
fi

"$HERE/run.sh" "$@" --out "$OUT/selftest.a.json"
"$HERE/run.sh" "$@" --out "$OUT/selftest.b.json"
exec "$HERE/run.sh" compare "$OUT/selftest.a.json" "$OUT/selftest.b.json"
