#!/usr/bin/env bash
# Full CI pipeline: the tier-1 build + test pass in Release, then
# the same test suite rebuilt with AddressSanitizer + UBSan
# (-DRLR_SANITIZE=address,undefined, recovery disabled so any
# report is fatal), then the concurrency tests rebuilt with
# ThreadSanitizer (-DRLR_SANITIZE=thread, build-tsan). The release
# and ASan stages additionally run the crash-resume harness
# (scripts/crash_resume_e2e.sh) standalone against their own
# binaries, so the kill-and-resume guarantee is proven both in
# Release and under the sanitizers. All stages must pass.
#
# The release stage additionally runs the LLC hot-path throughput
# benchmark (bench/sim_throughput) and exports its per-policy
# accesses/sec and counters to BENCH_sim_throughput.json
# (docs/PERFORMANCE.md; the whole-System trajectory is bench/e2e),
# and exports a self-profile of the tier-1 sweep path to
# PROF_tier1.json (docs/OBSERVABILITY.md).
# Set RLR_STABLE_BENCH=1 to zero the wall-clock fields so
# same-seed runs are byte-identical.
#
# Usage: scripts/ci.sh [-j N]
#   -j N   parallel build/test jobs (default: nproc)

set -eu

cd "$(dirname "$0")/.." || exit 1

jobs=$(nproc 2>/dev/null || echo 4)
while getopts "j:" opt; do
    case "$opt" in
        j) jobs="$OPTARG" ;;
        *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
    esac
done

run_stage() {
    local label="$1" dir="$2"
    shift 2
    echo "=== ci: configure $label ($dir) ==="
    cmake -B "$dir" -S . "$@"
    echo "=== ci: build $label ==="
    cmake --build "$dir" -j "$jobs"
    echo "=== ci: test $label ==="
    ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

run_crash_resume() {
    local label="$1" dir="$2"
    echo "=== ci: crash-resume $label ==="
    scripts/crash_resume_e2e.sh \
        --fig12-bin="$dir/bench/fig12_mpki" \
        --inspect-bin="$dir/tools/inspect"
}

run_sim_throughput() {
    local dir="$1"
    echo "=== ci: sim_throughput (perf trajectory) ==="
    local stable_flag=""
    if [ "${RLR_STABLE_BENCH:-0}" != "0" ]; then
        stable_flag="--stable-json"
    fi
    # shellcheck disable=SC2086  # stable_flag is empty or one flag
    "$dir/bench/sim_throughput" \
        --json=BENCH_sim_throughput.json $stable_flag
}

run_profile_artifact() {
    local dir="$1"
    echo "=== ci: tier-1 self-profile (PROF_tier1.json) ==="
    local stable_flag=""
    if [ "${RLR_STABLE_BENCH:-0}" != "0" ]; then
        stable_flag="--stable-json"
    fi
    # shellcheck disable=SC2086  # stable_flag is empty or one flag
    "$dir/bench/fig12_mpki" \
        --workloads 429.mcf,470.lbm --policies RLR \
        --warmup 50000 --instructions 200000 \
        --profile PROF_tier1.json $stable_flag >/dev/null
    # The export must render (also validates the JSON).
    "$dir/tools/inspect" --profile PROF_tier1.json >/dev/null
}

# The tests that run threads against shared state: parallelFor,
# heartbeats, the profiler, cancellation, journal resume, and the
# journal itself.
tsan_tests="test_thread_pool test_heartbeat test_profiler"
tsan_tests="$tsan_tests test_sweep_runner test_cancel_token"
tsan_tests="$tsan_tests test_sweep_resume test_journal"

run_tsan_stage() {
    local dir="build-tsan"
    echo "=== ci: configure tsan ($dir) ==="
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DRLR_SANITIZE=thread
    echo "=== ci: build tsan ==="
    # shellcheck disable=SC2086  # one target per word
    cmake --build "$dir" -j "$jobs" --target $tsan_tests
    echo "=== ci: test tsan ==="
    TSAN_OPTIONS="halt_on_error=1" \
        ctest --test-dir "$dir" --output-on-failure -j "$jobs" \
        -R "^($(echo $tsan_tests | tr ' ' '|'))\$"
}

run_stage "release" build -DCMAKE_BUILD_TYPE=Release
run_crash_resume "release" build
run_sim_throughput build
run_profile_artifact build

# Sanitizer stage: RelWithDebInfo keeps line numbers in reports
# without debug-build slowness; halt_on_error via
# -fno-sanitize-recover=all (set by the CMake option).
ASAN_OPTIONS="detect_leaks=0" \
UBSAN_OPTIONS="print_stacktrace=1" \
run_stage "asan+ubsan" build-san \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DRLR_SANITIZE=address,undefined
ASAN_OPTIONS="detect_leaks=0" \
UBSAN_OPTIONS="print_stacktrace=1" \
run_crash_resume "asan+ubsan" build-san

run_tsan_stage

echo "=== ci: all stages passed ==="
