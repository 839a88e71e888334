#!/usr/bin/env bash
# Boots the admission daemon in its default mode on a Unix socket and
# drives both kinds of session through the one daemon: a verified replay
# on the connection's private session, a verify against the wrong bound
# that must fail, the verified replay on a fresh named session
# (`--sessions 1`, named loadgen-<seed>-0) that a second connection then
# sees, and a shutdown that snapshots the named one.
# Fails on non-zero exit (including any verdict mismatch).
#
# Usage: scripts/service_smoke.sh [jobs] [seed]
set -euo pipefail

JOBS="${1:-40}"
SEED="${2:-7}"
SOCK="${TMPDIR:-/tmp}/msmr-smoke-$$.sock"
SNAPDIR="${TMPDIR:-/tmp}/msmr-smoke-$$-snapshots"
SERVED="target/release/msmr-served"
ADMIT="target/release/msmr-admit"

# msmr-admit lives in msmr-serve; the msmr-served daemon in msmr-cluster.
cargo build --release -p msmr-serve -p msmr-cluster

"$SERVED" --uds "$SOCK" --snapshot-dir "$SNAPDIR" &
SERVED_PID=$!
cleanup() {
    kill "$SERVED_PID" 2>/dev/null || true
    rm -rf "$SOCK" "$SNAPDIR"
}
trap cleanup EXIT

# Wait for the daemon to bind.
for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    sleep 0.1
done
[ -S "$SOCK" ] || { echo "daemon did not bind $SOCK" >&2; exit 1; }

# A withdraw mix exercises the general O(n·N) mid-set withdraw of the
# online seam; --verify byte-checks every admit *and* withdraw verdict
# stream against offline evaluate.
"$ADMIT" --uds "$SOCK" --replay --jobs "$JOBS" --seed "$SEED" --withdraw-ratio 0.25 --evaluate --verify

# Negative control: verifying an eq10 daemon's verdicts against an eq6
# mirror must fail with exit code 1 *and* the oracle's divergence
# message — an oracle that compared nothing would pass here, and exit 1
# alone could be any other failure. Like the run above it uses a private
# session, so nothing of it reaches the snapshot directory.
status=0
out=$("$ADMIT" --uds "$SOCK" --replay --jobs 40 --seed 7 --withdraw-ratio 0.25 --evaluate --verify --bound eq6 \
    2>&1) || status=$?
[ "$status" -eq 1 ] && grep -q '^verdict mismatch: seq ' <<<"$out" || {
    echo "a verify against the wrong bound exited $status without naming a divergent seq:" >&2
    echo "$out" >&2
    exit 1
}

# The same daemon serves named sessions: the replay again, on the fresh
# named session loadgen-$SEED-0; a second connection attaching by name
# sees the jobs the first one left (its private predecessor above left
# nothing behind).
"$ADMIT" --uds "$SOCK" --replay --sessions 1 --jobs "$JOBS" --seed "$SEED" --withdraw-ratio 0.25 --evaluate --verify
"$ADMIT" --uds "$SOCK" --session "loadgen-$SEED-0" --status | grep -Eq '"jobs":[1-9]' || {
    echo "a second connection did not see the named session's jobs" >&2
    exit 1
}

# The graceful shutdown snapshots the named session (and only it).
"$ADMIT" --uds "$SOCK" --shutdown
wait "$SERVED_PID"
[ "$(ls "$SNAPDIR")" = "loadgen-$SEED-0.json" ] || {
    echo "shutdown did not leave exactly loadgen-$SEED-0.json in $SNAPDIR" >&2
    exit 1
}
trap - EXIT
rm -rf "$SOCK" "$SNAPDIR"
echo "service smoke: OK"
