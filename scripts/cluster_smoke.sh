#!/usr/bin/env bash
# Boots the admission daemon in --cluster mode on a Unix socket (with the
# stats side channel and trace-event export on), runs a short
# multi-client msmr-admit replay burst over shared named sessions with
# offline-oracle verification and daemon-counter cross-checking, then a
# multi-client verify against the wrong bound that must fail,
# queries the live stats channel mid-burst through msmr-top (one-shot
# and two frames of the live dashboard),
# exercises the snapshot op through msmr-admit, shuts the daemon down,
# validates the written trace and replays it offline against the final
# live snapshot, restores the shutdown snapshots (one given an older
# build's decider slot) on a fresh daemon, then verifies a contended
# decider-only burst on another daemon. Fails on any non-zero exit (including verdict
# mismatches in the bursts' verification).
#
# Usage: scripts/cluster_smoke.sh [clients] [sessions] [jobs] [seed]
set -euo pipefail

CLIENTS="${1:-2}"
SESSIONS="${2:-1}"
JOBS="${3:-16}"
SEED="${4:-7}"
SOCK="${TMPDIR:-/tmp}/msmr-cluster-smoke-$$.sock"
SNAPDIR="${TMPDIR:-/tmp}/msmr-cluster-smoke-$$-snapshots"
TRACE_OUT="${TMPDIR:-/tmp}/msmr-cluster-smoke-$$.trace"
FINAL_SNAP="${TMPDIR:-/tmp}/msmr-cluster-smoke-$$-final.json"
SERVED_LOG="${TMPDIR:-/tmp}/msmr-cluster-smoke-$$-served.log"
SOCK2="${TMPDIR:-/tmp}/msmr-cluster-smoke-$$-decider.sock"
SERVED="target/release/msmr-served"
ADMIT="target/release/msmr-admit"
TOP="target/release/msmr-top"

cargo build --release -p msmr-serve -p msmr-cluster -p msmr-stats

"$SERVED" --uds "$SOCK" --cluster --shards 4 --workers 2 --snapshot-dir "$SNAPDIR" \
    --stats-addr 127.0.0.1:0 --trace-out "$TRACE_OUT" >"$SERVED_LOG" &
SERVED_PID=$!
cleanup() {
    kill "$SERVED_PID" 2>/dev/null || true
    rm -rf "$SOCK" "$SOCK2" "$SNAPDIR" "$TRACE_OUT" "$SERVED_LOG" "$FINAL_SNAP"
}
trap cleanup EXIT

# Wait for the daemon to bind both the socket and the stats channel
# (the stats line carries the ephemeral port picked for 127.0.0.1:0).
for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && grep -q "stats on tcp://" "$SERVED_LOG" && break
    sleep 0.1
done
[ -S "$SOCK" ] || { echo "daemon did not bind $SOCK" >&2; exit 1; }
STATS_ADDR="$(sed -n 's|.*stats on tcp://||p' "$SERVED_LOG" | head -n 1)"
[ -n "$STATS_ADDR" ] || { echo "daemon did not report a stats address" >&2; exit 1; }

# A concurrent burst over shared sessions — with a withdraw mix, so the
# general O(n·N) mid-set withdraw of the online seam runs under
# multi-client load — verified against a serialized offline replay, and
# cross-checked against the daemon's own stats counters (the daemon is
# fresh, so the run's admit/reject/withdraw/overload tallies must match
# it exactly).
"$ADMIT" --uds "$SOCK" --replay \
    --clients "$CLIENTS" --sessions "$SESSIONS" --jobs "$JOBS" --seed "$SEED" \
    --withdraw-ratio 0.3 --evaluate --verify --check-stats &
BURST_PID=$!

# Mid-burst, the side channel must serve a valid JSON snapshot with a
# non-zero admit counter whose stored latency summaries are the ones
# their own histogram buckets yield (msmr-top --once parses and asserts
# both). Only "the burst's first admit has not landed yet" is retried;
# any other failure — a histogram-validation failure above all — ends
# the script with msmr-top's message.
STATS_OK=""
for _ in $(seq 1 100); do
    if TOP_ERR="$("$TOP" --addr "$STATS_ADDR" --once --min-admits 1 2>&1 >/dev/null)"; then
        STATS_OK=1
        break
    fi
    case "$TOP_ERR" in
        *"below required"*) sleep 0.1 ;;
        *) echo "$TOP_ERR" >&2; exit 1 ;;
    esac
done
[ -n "$STATS_OK" ] || {
    echo "stats side channel did not serve a snapshot with admits >= 1 mid-burst" >&2
    exit 1
}

# The live dashboard itself: two polled frames, then a clean exit. Each
# frame starts with the dashboard header, so exactly two must render.
FRAMES="$("$TOP" --addr "$STATS_ADDR" --iterations 2 --interval-ms 200 |
    grep -o 'msmr-top — admission daemon live stats' | wc -l)"
[ "$FRAMES" -eq 2 ] || {
    echo "live dashboard rendered $FRAMES frames, expected 2" >&2
    exit 1
}

wait "$BURST_PID"

# Negative control for the multi-client path: two clients on one fresh
# session (seed + 1, so new names), verified against an eq6 mirror of
# the eq10 daemon, must exit 1 *and* name a divergent seq — an oracle
# that compared nothing would pass here.
status=0
out=$("$ADMIT" --uds "$SOCK" --replay --clients 2 --sessions 1 --jobs "$JOBS" \
    --seed $((SEED + 1)) --evaluate --verify --bound eq6 2>&1) || status=$?
[ "$status" -eq 1 ] && grep -q '^verdict mismatch: seq ' <<<"$out" || {
    echo "a multi-client verify against the wrong bound exited $status without naming a divergent seq:" >&2
    echo "$out" >&2
    exit 1
}

# Post-burst, the same snapshot is also served in-band through the v4
# stats op (one JSON line with the counter fields, histograms included).
"$ADMIT" --uds "$SOCK" --stats | grep -q '"admits":' || {
    echo "the stats op did not answer with counters" >&2
    exit 1
}
"$ADMIT" --uds "$SOCK" --stats | grep -q '"histo_buckets":' || {
    echo "the stats op did not carry latency histograms" >&2
    exit 1
}

# The per-session breakdown (stats op with a session argument) answers
# for a burst session without attaching to it.
"$ADMIT" --uds "$SOCK" --stats --session "loadgen-$SEED-0" \
    | grep -q '"withdraws":' || {
    echo "the per-session stats breakdown did not answer" >&2
    exit 1
}

# A second connection attaches to the burst's first session by name and
# reads its status, then the graceful shutdown snapshots every
# session (the explicit snapshot op is covered by the e2e suite). The
# final snapshot is saved first: the offline replay below cross-checks
# the trace's per-solver span counts against its decision counters.
"$TOP" --addr "$STATS_ADDR" --once > "$FINAL_SNAP"
"$ADMIT" --uds "$SOCK" --session "loadgen-$SEED-0" --status
"$ADMIT" --uds "$SOCK" --shutdown
wait "$SERVED_PID"
ls "$SNAPDIR"/loadgen-"$SEED"-*.json >/dev/null || {
    echo "shutdown did not snapshot the sessions" >&2
    exit 1
}

# The daemon closed a valid Chrome trace-event file: one complete span
# per solver verdict on a named per-solver lane, plus the periodic
# gauge counter samples (queue depth / attached clients / live
# sessions; at least one sweep of the three must have landed).
"$TOP" --check-trace "$TRACE_OUT" --expect-counters 3

# Offline post-mortem: replay the recorded trace without a daemon and
# assert every solver's span count equals the decision counter the live
# snapshot reported for it.
"$TOP" --replay "$TRACE_OUT" --against "$FINAL_SNAP"

# The snapshot upgrade path with real processes: older builds wrote the
# decider states into every image under `online`. Add such a slot to one
# shutdown snapshot and boot a daemon on the same directory: every
# snapshot must restore (none quarantined) and the session must answer.
SNAPS=("$SNAPDIR"/*.json)
sed -i 's|"decisions":|"online":{"states":{"DM":"Stateless","DMR":{"Repair":{"jobs":1,"flips":[]}},"OPDCA":{"Audsley":{"winners":[0],"probes":[1],"rejected":false}}}},"decisions":|' \
    "$SNAPDIR/loadgen-$SEED-0.json"
grep -q '"online":{' "$SNAPDIR/loadgen-$SEED-0.json" || {
    echo "could not add a decider slot to loadgen-$SEED-0.json" >&2
    exit 1
}
rm -f "$SOCK"
"$SERVED" --uds "$SOCK" --cluster --snapshot-dir "$SNAPDIR" >"$SERVED_LOG" &
SERVED_PID=$!
for _ in $(seq 1 100); do
    grep -q "listening on unix://" "$SERVED_LOG" && break
    sleep 0.1
done
grep -q "restored ${#SNAPS[@]} session(s)" "$SERVED_LOG" || {
    echo "expected ${#SNAPS[@]} restored sessions:" >&2
    cat "$SERVED_LOG" >&2
    exit 1
}
if ls "$SNAPDIR"/*.corrupt >/dev/null 2>&1; then
    echo "a snapshot with a decider slot was quarantined" >&2
    exit 1
fi
"$ADMIT" --uds "$SOCK" --session "loadgen-$SEED-0" --status
"$ADMIT" --uds "$SOCK" --shutdown
wait "$SERVED_PID"

# A contended decider-only burst on a second, fresh daemon (--check-stats
# compares daemon-lifetime counters): four clients over two sessions
# race for each session's lock, so some ops run to completion on their
# connection thread and the rest queue on the one worker. Both oracles
# byte-check the decider's verdict of every op, whichever executor ran it.
"$SERVED" --uds "$SOCK2" --cluster --workers 1 &
SERVED_PID=$!
for _ in $(seq 1 100); do
    [ -S "$SOCK2" ] && break
    sleep 0.1
done
[ -S "$SOCK2" ] || { echo "daemon did not bind $SOCK2" >&2; exit 1; }
"$ADMIT" --uds "$SOCK2" --replay --clients 4 --sessions 2 --jobs "$JOBS" --seed "$SEED" \
    --withdraw-ratio 0.3 --verify --check-stats
"$ADMIT" --uds "$SOCK2" --shutdown
wait "$SERVED_PID"

trap - EXIT
rm -rf "$SOCK" "$SOCK2" "$SNAPDIR" "$TRACE_OUT" "$SERVED_LOG" "$FINAL_SNAP"
echo "cluster smoke: OK"
