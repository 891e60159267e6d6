#!/usr/bin/env bash
# Crash/resume equivalence check (wired into ctest as
# `crash_resume_e2e` and run by both scripts/ci.sh stages).
#
# Proves the durable-journal guarantee end to end on a real bench
# binary (docs/ROBUSTNESS.md):
#
#   1. reference : uninterrupted sweep with --stable-json
#   2. crash     : same sweep with --journal and an injected
#                  `abort` fault — the process SIGKILLs itself
#                  mid-sweep (exit 137), leaving the journal with
#                  only the cells that finished first
#   3. resume    : same command without the fault — completed
#                  cells are served from the journal, the rest
#                  re-run, and the --json export must be
#                  BYTE-IDENTICAL to the reference run's
#   4. watchdog  : an injected `hang` is reaped by --cell-timeout
#                  while every other cell completes (exit 1, the
#                  timeout appears in the failed-cell table and is
#                  journaled as a failed record)
#   5. re-run    : the same journaled command without the fault —
#                  the failed record re-runs, the ok ones resume
#                  (exit 0), and the export must be BYTE-IDENTICAL
#                  to the reference run's
#
# Usage: scripts/crash_resume_e2e.sh [--fig12-bin=PATH]
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
            echo "crash_resume_e2e: unknown argument '$arg'" >&2
            echo "usage: $0 [--fig12-bin=PATH]" \
                 "[--inspect-bin=PATH]" >&2
            exit 2
            ;;
    esac
done

for bin in "$fig12_bin" "$inspect_bin"; do
    [ -x "$bin" ] || {
        echo "crash_resume_e2e: binary '$bin' not found; build" \
             "first (cmake --build build) or pass --fig12-bin= /" \
             "--inspect-bin=" >&2
        exit 2
    }
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# A tiny fully deterministic 4-cell grid. fig12 prepends LRU, so
# the cell order is fixed: (429.mcf,LRU) (429.mcf,RLR)
# (470.lbm,LRU) (470.lbm,RLR). --threads 1 in the crash run makes
# the journal contents deterministic: cells 0 and 1 complete, the
# abort fault kills the process the instant cell 2 is reached.
common="--workloads 429.mcf,470.lbm --policies RLR \
        --warmup 20000 --instructions 30000 --seed 42 \
        --stable-json"

echo "crash_resume_e2e: [1/5] reference run" >&2
"$fig12_bin" $common --threads 2 --json "$tmp/ref.json" \
    >/dev/null

echo "crash_resume_e2e: [2/5] crash run (SIGKILL at cell 2)" >&2
rc=0
"$fig12_bin" $common --threads 1 --journal "$tmp/journal" \
    --faults abort@2 --json "$tmp/crash.json" \
    >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 137 ]; then
    echo "crash_resume_e2e: expected the crash run to die with" \
         "SIGKILL (exit 137), got $rc" >&2
    exit 1
fi
if [ -e "$tmp/crash.json" ]; then
    echo "crash_resume_e2e: the killed run must not have written" \
         "its --json export" >&2
    exit 1
fi
records=$(ls "$tmp/journal/sweep-0/" | grep -c '^cell-') || true
if [ "$records" -ne 2 ]; then
    echo "crash_resume_e2e: expected 2 journaled cells after the" \
         "crash, found $records" >&2
    ls -l "$tmp/journal/sweep-0/" >&2
    exit 1
fi

echo "crash_resume_e2e: [3/5] resume run" >&2
"$fig12_bin" $common --threads 2 --journal "$tmp/journal" \
    --json "$tmp/resume.json" >"$tmp/resume.out"
grep -q "sweep.resumed_cells 2" "$tmp/resume.out" || {
    echo "crash_resume_e2e: resume run did not report 2 resumed" \
         "cells" >&2
    cat "$tmp/resume.out" >&2
    exit 1
}
if ! cmp -s "$tmp/ref.json" "$tmp/resume.json"; then
    echo "crash_resume_e2e: resumed export differs from the" \
         "uninterrupted run's:" >&2
    diff -u "$tmp/ref.json" "$tmp/resume.json" >&2 || true
    exit 1
fi
# The journal now covers the whole sweep and summarizes cleanly.
"$inspect_bin" --journal "$tmp/journal/sweep-0" \
    >"$tmp/summary.out"
grep -q "4 records: 4 ok, 0 failed, 0 unreadable" \
    "$tmp/summary.out" || {
    echo "crash_resume_e2e: unexpected journal summary:" >&2
    cat "$tmp/summary.out" >&2
    exit 1
}

echo "crash_resume_e2e: [4/5] watchdog reaps a hung cell" >&2
rc=0
"$fig12_bin" $common --threads 2 --faults hang@0 \
    --cell-timeout 2 --journal "$tmp/hang-journal" \
    >"$tmp/hang.out" 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "crash_resume_e2e: expected exit 1 from the timed-out" \
         "sweep, got $rc" >&2
    cat "$tmp/hang.out" >&2
    exit 1
fi
grep -q "timeout: attempt exceeded --cell-timeout" \
    "$tmp/hang.out" || {
    echo "crash_resume_e2e: timeout error missing from the" \
         "output" >&2
    cat "$tmp/hang.out" >&2
    exit 1
}
grep -q "sweep.timeouts 1" "$tmp/hang.out" || {
    echo "crash_resume_e2e: sweep.timeouts counter missing" >&2
    cat "$tmp/hang.out" >&2
    exit 1
}

echo "crash_resume_e2e: [5/5] resume re-runs the timed-out cell" >&2
"$fig12_bin" $common --threads 2 --cell-timeout 2 \
    --journal "$tmp/hang-journal" --json "$tmp/rerun.json" \
    >"$tmp/rerun.out"
grep -q "sweep.resumed_cells 3" "$tmp/rerun.out" || {
    echo "crash_resume_e2e: re-run did not resume the 3 ok cells" >&2
    cat "$tmp/rerun.out" >&2
    exit 1
}
if ! cmp -s "$tmp/ref.json" "$tmp/rerun.json"; then
    echo "crash_resume_e2e: re-run export differs from the" \
         "uninterrupted run's:" >&2
    diff -u "$tmp/ref.json" "$tmp/rerun.json" >&2 || true
    exit 1
fi

echo "crash_resume_e2e: OK (kill -9 at cell 2, resumed export" \
     "byte-identical; hung cell reaped, then re-run on resume)"
