#!/usr/bin/env bash
# Smoke-tests the distributed admission tier end to end from the
# outside, against release binaries. First the seeded router-failover
# chaos scenario (SIGKILL a backend mid-replay; the resuming client's
# journal applies exactly once and the surviving history byte-verifies
# offline). Then a real tier: three msmr-served --cluster backends on a
# shared snapshot directory behind one msmr-router — a verified
# multi-client msmr-admit replay burst through the router with --check-stats
# against the *aggregated* snapshot (which must equal the run's tallies
# exactly, i.e. the per-backend sum), an exact cross-check of the
# router's stats side channel against the per-backend side channels, a
# live migration over the admin channel, a SIGKILL of the migrated
# session's backend with warm restore on a survivor, a second verified
# burst over the degraded tier, and a single shutdown op through the
# router that takes the whole tier down gracefully.
#
# Usage: scripts/router_smoke.sh [seed]
set -euo pipefail

SEED="${1:-7}"
BASE="${TMPDIR:-/tmp}/msmr-router-smoke-$$"
SNAPDIR="$BASE-snapshots"
PIDFILE="$BASE-router.pid"
ROUTER_LOG="$BASE-router.log"
SERVED="target/release/msmr-served"
ROUTER="target/release/msmr-router"
ADMIT="target/release/msmr-admit"
TOP="target/release/msmr-top"
CHAOS="target/release/msmr-chaos"

# msmr-admit lives in msmr-serve; the msmr-served daemon in msmr-cluster.
cargo build --release -p msmr-serve -p msmr-cluster -p msmr-router -p msmr-chaos -p msmr-stats

# The seeded kill-mid-replay scenario through the router: failover to a
# survivor, exactly-once journal resume, offline byte-identity.
MSMR_SERVED_BIN="$SERVED" "$CHAOS" --scenario router-failover --seed "$SEED"

# Boot the tier: three backends sharing one snapshot directory (the
# failover and migration stories move sessions between daemons by
# snapshot), each with its own stats side channel for the cross-check.
mkdir -p "$SNAPDIR"
BACKEND_PIDS=()
BACKEND_LOGS=()
for i in 1 2 3; do
    LOG="$BASE-backend$i.log"
    "$SERVED" --cluster --tcp 127.0.0.1:0 --snapshot-dir "$SNAPDIR" \
        --stats-addr 127.0.0.1:0 >"$LOG" 2>&1 &
    BACKEND_PIDS+=($!)
    BACKEND_LOGS+=("$LOG")
done
cleanup() {
    kill "${BACKEND_PIDS[@]}" "${ROUTER_PID:-}" 2>/dev/null || true
    rm -rf "$BASE"*
}
trap cleanup EXIT

BACKENDS=()
BACKEND_STATS=()
for LOG in "${BACKEND_LOGS[@]}"; do
    for _ in $(seq 1 100); do
        grep -q "stats on tcp://" "$LOG" && break
        sleep 0.1
    done
    ADDR="$(sed -n 's|.*listening on tcp://||p' "$LOG" | head -n 1)"
    STATS="$(sed -n 's|.*stats on tcp://||p' "$LOG" | head -n 1)"
    [ -n "$ADDR" ] && [ -n "$STATS" ] || {
        echo "a backend did not report its addresses ($LOG)" >&2
        exit 1
    }
    BACKENDS+=("$ADDR")
    BACKEND_STATS+=("$STATS")
done

"$ROUTER" --tcp 127.0.0.1:0 \
    --backend "${BACKENDS[0]}" --backend "${BACKENDS[1]}" --backend "${BACKENDS[2]}" \
    --admin-addr 127.0.0.1:0 --stats-addr 127.0.0.1:0 --pidfile "$PIDFILE" \
    --health-interval-ms 50 --health-failures 2 >"$ROUTER_LOG" 2>&1 &
ROUTER_PID=$!
for _ in $(seq 1 100); do
    grep -q "stats on tcp://" "$ROUTER_LOG" && [ -f "$PIDFILE" ] && break
    sleep 0.1
done
ROUTER_ADDR="$(sed -n 's|.*listening on tcp://||p' "$ROUTER_LOG" | head -n 1)"
ADMIN_ADDR="$(sed -n 's|.*admin on tcp://||p' "$ROUTER_LOG" | head -n 1)"
STATS_ADDR="$(sed -n 's|.*stats on tcp://||p' "$ROUTER_LOG" | head -n 1)"
[ -n "$ROUTER_ADDR" ] && [ -n "$ADMIN_ADDR" ] && [ -n "$STATS_ADDR" ] || {
    echo "router did not report its addresses" >&2
    exit 1
}

# One admin command per connection; replies end with an ok/err line.
# The reply is printed in one write: a `grep -q` reader exits at its
# first match, and a line-by-line writer would then die of SIGPIPE and
# fail the pipeline under pipefail.
admin() {
    exec 3<>"/dev/tcp/${ADMIN_ADDR%:*}/${ADMIN_ADDR##*:}"
    printf '%s\n' "$1" >&3
    local line reply=""
    while IFS= read -r line <&3; do
        reply+="$line"$'\n'
        case "$line" in ok\ * | err\ *) break ;; esac
    done
    exec 3<&- 3>&-
    printf '%s' "$reply"
}

admin backends | grep -q "ok 3 backends" || {
    echo "admin channel does not list 3 backends" >&2
    exit 1
}

# A verified multi-client burst *through the router*. The backends are
# fresh, so --check-stats — answered by the router with the aggregated
# snapshot — must equal the run's tallies exactly: aggregation sums the
# per-backend counters with nothing lost and nothing double-counted.
"$ADMIT" --tcp "$ROUTER_ADDR" --replay \
    --clients 3 --sessions 3 --jobs 12 --seed "$SEED" \
    --withdraw-ratio 0.25 --evaluate --verify --check-stats

# The router's stats side channel serves the same aggregate: its admits
# counter must equal the sum over the per-backend side channels.
admits_of() {
    "$TOP" --addr "$1" --once | sed -n 's/.*"admits":\([0-9]*\).*/\1/p'
}
ROUTER_ADMITS="$(admits_of "$STATS_ADDR")"
BACKEND_SUM=0
for STATS in "${BACKEND_STATS[@]}"; do
    BACKEND_SUM=$((BACKEND_SUM + $(admits_of "$STATS")))
done
[ "$ROUTER_ADMITS" = "$BACKEND_SUM" ] && [ "$ROUTER_ADMITS" -gt 0 ] || {
    echo "aggregated admits $ROUTER_ADMITS != per-backend sum $BACKEND_SUM" >&2
    exit 1
}

# Live migration over the admin channel: move one burst session to a
# backend it is not on, and see the route flip.
SESSION="loadgen-$SEED-0"
OWNER="$(admin routes | awk -v s="$SESSION" '$1 == s { print $2 }')"
[ -n "$OWNER" ] || { echo "router has no route for $SESSION" >&2; exit 1; }
TARGET=""
for ADDR in "${BACKENDS[@]}"; do
    [ "$ADDR" != "$OWNER" ] && TARGET="$ADDR" && break
done
admin "migrate $SESSION $TARGET" | grep -q "^ok migrated" || {
    echo "migrate $SESSION $TARGET was refused" >&2
    exit 1
}
admin routes | grep -q "^$SESSION $TARGET\$" || {
    echo "route of $SESSION did not flip to $TARGET" >&2
    exit 1
}

# SIGKILL the migrated session's new backend. The health monitor must
# declare it dead and proactively restore its sessions — the migrated
# one included — warm on the survivors from the shared snapshot dir.
for i in 0 1 2; do
    [ "${BACKENDS[$i]}" = "$TARGET" ] && kill -9 "${BACKEND_PIDS[$i]}"
done
FAILED_OVER=""
for _ in $(seq 1 100); do
    if grep -q "backend $TARGET is dead" "$ROUTER_LOG" \
        && grep -q "session \`$SESSION\` restored on" "$ROUTER_LOG"; then
        FAILED_OVER=1
        break
    fi
    sleep 0.1
done
[ -n "$FAILED_OVER" ] || {
    echo "router never failed $TARGET over (see $ROUTER_LOG)" >&2
    exit 1
}
admin backends | grep -q "^$TARGET dead\$" || {
    echo "admin channel does not show $TARGET dead" >&2
    exit 1
}
# The restored session answers per-session stats through the router.
"$ADMIT" --tcp "$ROUTER_ADDR" --stats --session "$SESSION" >/dev/null || {
    echo "per-session stats for $SESSION failed after the failover" >&2
    exit 1
}

# The degraded tier still takes verified traffic: a second burst (new
# seed => new sessions, placed over the two survivors) byte-verifies
# its replays offline.
"$ADMIT" --tcp "$ROUTER_ADDR" --replay \
    --clients 2 --sessions 2 --jobs 10 --seed $((SEED + 100)) \
    --withdraw-ratio 0.25 --evaluate --verify

# One shutdown op through the router takes the whole tier down: the
# router broadcasts to the alive backends, then exits itself.
"$ADMIT" --tcp "$ROUTER_ADDR" --shutdown >/dev/null
wait "$ROUTER_PID"
grep -q "shutdown complete" "$ROUTER_LOG" || {
    echo "router did not report a clean shutdown" >&2
    exit 1
}
[ ! -e "$PIDFILE" ] || { echo "router pidfile survived the shutdown" >&2; exit 1; }
for i in 0 1 2; do
    [ "${BACKENDS[$i]}" = "$TARGET" ] && continue
    wait "${BACKEND_PIDS[$i]}" || {
        echo "backend ${BACKENDS[$i]} did not exit cleanly" >&2
        exit 1
    }
done

trap - EXIT
rm -rf "$BASE"*
echo "router smoke: OK"
