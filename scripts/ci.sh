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
# The release stage builds from clean and fails on any compiler
# warning reported at a path under the repo's own src/, tools/,
# bench/ or tests/.
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
    # Every compiler line goes to $dir/build.log as well, for
    # check_own_warnings.
    cmake --build "$dir" -j "$jobs" ${clean_first:+--clean-first} \
        2>&1 | tee "$dir/build.log"
    [ "${PIPESTATUS[0]}" -eq 0 ] || exit 1
    echo "=== ci: test $label ==="
    ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

# Fail on any warning whose location is in the repo's own code.
# GCC 12's libstdc++ false positives (-Wrestrict, and
# -Wnull-dereference inlined from our calls) are reported at
# paths under /usr/include and are not matched.
check_own_warnings() {
    local dir="$1"
    echo "=== ci: no warnings in src/ tools/ bench/ tests/ ==="
    local own
    own=$(grep -E "^($PWD/)?(src|tools|bench|tests)/[^:]*:[0-9]+:([0-9]+:)? warning:" \
        "$dir/build.log" | sort -u || true)
    if [ -n "$own" ]; then
        echo "$own" >&2
        echo "ci: the build warned in the repo's own code" >&2
        exit 1
    fi
}

run_crash_resume() {
    local label="$1" dir="$2"
    echo "=== ci: crash-resume $label ==="
    scripts/crash_resume_e2e.sh \
        --fig12-bin="$dir/bench/fig12_mpki" \
        --inspect-bin="$dir/tools/inspect"
}

# The tests that run threads against shared state: parallelFor,
# heartbeats, cancellation, journal resume, and the journal itself.
tsan_tests="test_thread_pool test_heartbeat"
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

clean_first=1 run_stage "release" build -DCMAKE_BUILD_TYPE=Release
check_own_warnings build
run_crash_resume "release" build

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
