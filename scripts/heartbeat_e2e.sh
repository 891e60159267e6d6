#!/usr/bin/env bash
# Live-telemetry check (wired into ctest as `heartbeat_e2e`).
#
# Proves the heartbeat pipeline end to end on a real bench binary
# (docs/OBSERVABILITY.md):
#
#   1. live    : a sweep started with --heartbeat in the
#                background produces a parseable heartbeat file
#                while still running, and `inspect --top --once`
#                renders it (totals line, worker lines)
#   2. follow  : `inspect --top` without --once follows the file
#                and exits on its own once the sweep's final beat
#                reports done
#   3. final   : the final beat is done=true with every cell
#                accounted for and no workers still listed
#   4. phases  : the same run's --resources --json export holds
#                obs.res.measure_us (the per-cell phase times) in
#                every ok row
#
# Usage: scripts/heartbeat_e2e.sh [--fig12-bin=PATH]
#            [--inspect-bin=PATH]

set -eu

cd "$(dirname "$0")/.." || exit 1

fig12_bin="build/bench/fig12_mpki"
inspect_bin="build/tools/inspect"
for arg in "$@"; do
    case "$arg" in
        --fig12-bin=*) fig12_bin="${arg#--fig12-bin=}" ;;
        --inspect-bin=*) inspect_bin="${arg#--inspect-bin=}" ;;
        *)
            echo "heartbeat_e2e: unknown argument '$arg'" >&2
            echo "usage: $0 [--fig12-bin=PATH]" \
                 "[--inspect-bin=PATH]" >&2
            exit 2
            ;;
    esac
done

for bin in "$fig12_bin" "$inspect_bin"; do
    [ -x "$bin" ] || {
        echo "heartbeat_e2e: binary '$bin' not found; build" \
             "first (cmake --build build) or pass --fig12-bin= /" \
             "--inspect-bin=" >&2
        exit 2
    }
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

hb="$tmp/heartbeat.json"
json="$tmp/sweep.json"

echo "heartbeat_e2e: [1/4] background sweep with --heartbeat" >&2
# Long enough (and on few enough threads) that the sweep is still
# mid-flight when we sample the heartbeat.
"$fig12_bin" --workloads 429.mcf,403.gcc,470.lbm \
    --policies RLR --warmup 100000 --instructions 400000 \
    --seed 42 --threads 2 --heartbeat "$hb" \
    --heartbeat-period 0.05 --resources --json "$json" \
    >"$tmp/sweep.out" 2>&1 &
sweep_pid=$!

# Wait for the first beat (the writer thread's first period).
live_frame=""
for _ in $(seq 1 100); do
    if [ -s "$hb" ] &&
        "$inspect_bin" --top "$hb" --once >"$tmp/top_live.out" \
            2>/dev/null; then
        live_frame=yes
        break
    fi
    sleep 0.05
done
if [ -z "$live_frame" ]; then
    echo "heartbeat_e2e: no parseable heartbeat appeared while" \
         "the sweep ran" >&2
    kill "$sweep_pid" 2>/dev/null || true
    wait "$sweep_pid" 2>/dev/null || true
    exit 1
fi
grep -q "sweep heartbeat  seq" "$tmp/top_live.out" || {
    echo "heartbeat_e2e: --top frame missing the totals line:" >&2
    cat "$tmp/top_live.out" >&2
    exit 1
}
grep -q "cells: .*running" "$tmp/top_live.out" || {
    echo "heartbeat_e2e: --top frame missing cell counts:" >&2
    cat "$tmp/top_live.out" >&2
    exit 1
}

echo "heartbeat_e2e: [2/4] inspect --top follows until done" >&2
# The follower must exit by itself when the final beat lands.
"$inspect_bin" --top "$hb" --interval 0.05 >"$tmp/top_follow.out" &
top_pid=$!

wait "$sweep_pid" || {
    echo "heartbeat_e2e: sweep failed:" >&2
    cat "$tmp/sweep.out" >&2
    exit 1
}
follow_rc=0
for _ in $(seq 1 100); do
    kill -0 "$top_pid" 2>/dev/null || break
    sleep 0.05
done
if kill -0 "$top_pid" 2>/dev/null; then
    echo "heartbeat_e2e: inspect --top did not exit after the" \
         "final done=true beat" >&2
    kill "$top_pid" 2>/dev/null || true
    exit 1
fi
wait "$top_pid" || follow_rc=$?
if [ "$follow_rc" -ne 0 ]; then
    echo "heartbeat_e2e: inspect --top exited with $follow_rc" >&2
    cat "$tmp/top_follow.out" >&2
    exit 1
fi
grep -q "\[DONE\]" "$tmp/top_follow.out" || {
    echo "heartbeat_e2e: follower never rendered the done" \
         "frame:" >&2
    cat "$tmp/top_follow.out" >&2
    exit 1
}

echo "heartbeat_e2e: [3/4] final beat accounts for every cell" >&2
"$inspect_bin" --top "$hb" --once >"$tmp/top_final.out"
grep -q "\[DONE\]" "$tmp/top_final.out" || {
    echo "heartbeat_e2e: final beat is not done=true:" >&2
    cat "$tmp/top_final.out" >&2
    exit 1
}
# fig12 prepends LRU: 3 workloads x 2 policies = 6 cells + the
# final frame must show no cell running and none failed.
grep -q "cells: 6/6 done (0 resumed), 0 failed, 0 running" \
    "$tmp/top_final.out" || {
    echo "heartbeat_e2e: unexpected final cell totals:" >&2
    cat "$tmp/top_final.out" >&2
    exit 1
}
grep -q "workers: (all finished)" "$tmp/top_final.out" || {
    echo "heartbeat_e2e: final frame still lists workers:" >&2
    cat "$tmp/top_final.out" >&2
    exit 1
}

echo "heartbeat_e2e: [4/4] every ok cell exports phase times" >&2
# Every row of this sweep must be ok, and each ok row's stats
# snapshot holds one obs.res.measure_us (failed rows have none).
ok_rows=$(grep -c '"error": null' "$json" || true)
timed_rows=$(grep -o '"obs.res.measure_us": [0-9]*' "$json" |
    wc -l)
if [ "$ok_rows" -ne 6 ] || [ "$timed_rows" -ne "$ok_rows" ]; then
    echo "heartbeat_e2e: expected 6 ok rows with" \
         "obs.res.measure_us, got $timed_rows of $ok_rows:" >&2
    cat "$json" >&2
    exit 1
fi

echo "heartbeat_e2e: OK (live frame rendered mid-sweep, follower" \
     "exited on done=true, 6/6 cells accounted, phase times" \
     "exported)"
