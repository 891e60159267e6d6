#!/usr/bin/env bash
# Docs drift checker (wired into ctest as `check_docs`).
#
# Fails when:
#   1. a PolicyFactory policy is missing from docs/POLICIES.md;
#   2. a bench/tools binary is not mentioned in README.md;
#   3. README.md references a build/<dir>/<name> binary that no
#      CMakeLists defines;
#   4. a shared bench flag (bench/common.hh) is absent from
#      README.md;
#   5. a required doc file is missing;
#   6. a fuzz_policies flag (tools/fuzz_policies.cc) is absent
#      from docs/TESTING.md, or the test scripts are undocumented;
#   7. a tools/inspect flag is absent from docs/OBSERVABILITY.md,
#      or the llc.epoch.* / llc.events.* stat families are
#      undocumented there;
#   8. the robustness layer (docs/ROBUSTNESS.md) is out of sync:
#      a sweep robustness flag, a FaultPlan kind, a sweep.*
#      counter, or the crash-resume harness is undocumented.
#
# Pure grep/sed over the sources: runs without a compiler, so it
# can gate doc-only changes too. Run from the repository root.

set -u

cd "$(dirname "$0")/.." || exit 1

fail=0
err() {
    echo "check_docs: $*" >&2
    fail=1
}

for f in README.md docs/POLICIES.md docs/ARCHITECTURE.md \
         docs/TESTING.md docs/OBSERVABILITY.md \
         docs/ROBUSTNESS.md docs/PERFORMANCE.md EXPERIMENTS.md; do
    [ -f "$f" ] || err "required doc '$f' is missing"
done
[ "$fail" -eq 0 ] || exit 1

# --- 1. every factory policy is documented --------------------------
# The authoritative list is the knownPolicies() initializer in
# policy_factory.cc; docs/POLICIES.md must name each as `Name`.
policies=$(sed -n '/^knownPolicies/,/^}/p' \
               src/core/policy_factory.cc |
           grep -o '"[^"]*"' | tr -d '"')
[ -n "$policies" ] ||
    err "could not extract knownPolicies() from policy_factory.cc"
for p in $policies; do
    grep -qF "\`$p\`" docs/POLICIES.md ||
        err "policy '$p' is not documented in docs/POLICIES.md"
done

# --- 2. every binary is mentioned in README.md ----------------------
bench_targets=$(grep -o 'rlr_add_bench([A-Za-z0-9_]*' \
                    bench/CMakeLists.txt | sed 's/.*(//')
extra_targets=$(grep -o 'add_executable([A-Za-z0-9_]*' \
                    bench/CMakeLists.txt tools/CMakeLists.txt |
                sed 's/.*(//')
for t in $bench_targets $extra_targets; do
    grep -q "\b$t\b" README.md ||
        err "binary '$t' is not mentioned in README.md"
done

# --- 3. README build/<dir>/<name> references exist ------------------
refs=$(grep -o 'build/[a-z]*/[A-Za-z0-9_]*' README.md | sort -u)
for ref in $refs; do
    dir=$(echo "$ref" | cut -d/ -f2)
    name=$(echo "$ref" | cut -d/ -f3)
    cmakelists="$dir/CMakeLists.txt"
    [ -f "$cmakelists" ] || {
        err "README references '$ref' but $cmakelists not found"
        continue
    }
    grep -q "\b$name\b" "$cmakelists" ||
        err "README references '$ref' but '$name' is not a" \
            "target in $cmakelists"
done

# --- 4. shared bench flags are documented ---------------------------
flags=$(grep -o 'add\(Option\|Flag\)("[a-z-]*"' bench/common.hh |
        sed 's/.*("//; s/"//')
for f in $flags; do
    grep -q -- "--$f" README.md ||
        err "shared bench flag '--$f' (bench/common.hh) is not" \
            "documented in README.md"
done

# --- 6. the verification harness is documented ----------------------
# Every fuzz_policies CLI flag must appear in docs/TESTING.md, and
# the test-infrastructure scripts must be referenced there.
fuzz_flags=$(grep -o 'add\(Option\|Flag\)("[a-z-]*"' \
                 tools/fuzz_policies.cc | sed 's/.*("//; s/"//')
[ -n "$fuzz_flags" ] ||
    err "could not extract flags from tools/fuzz_policies.cc"
for f in $fuzz_flags; do
    grep -q -- "--$f" docs/TESTING.md ||
        err "fuzz_policies flag '--$f' is not documented in" \
            "docs/TESTING.md"
done
for s in scripts/ci.sh scripts/update_golden.sh; do
    grep -q "$s" docs/TESTING.md ||
        err "'$s' is not referenced in docs/TESTING.md"
done
grep -q "RLR_VERIFY" docs/TESTING.md ||
    err "the RLR_VERIFY invariant toggle is not documented in" \
        "docs/TESTING.md"

# --- 7. the observability layer is documented -----------------------
# Every tools/inspect CLI flag must appear in
# docs/OBSERVABILITY.md, along with the stat families and the
# e2e golden script.
inspect_flags=$(grep -o 'add\(Option\|Flag\)("[a-z-]*"' \
                    tools/inspect.cc | sed 's/.*("//; s/"//')
[ -n "$inspect_flags" ] ||
    err "could not extract flags from tools/inspect.cc"
for f in $inspect_flags; do
    grep -q -- "--$f" docs/OBSERVABILITY.md ||
        err "inspect flag '--$f' is not documented in" \
            "docs/OBSERVABILITY.md"
done
for needle in "llc.epoch." "llc.events." scripts/inspect_e2e.sh \
              "obs.res." obs.res.measure_us rlr-heartbeat \
              scripts/heartbeat_e2e.sh; do
    grep -q "$needle" docs/OBSERVABILITY.md ||
        err "'$needle' is not documented in docs/OBSERVABILITY.md"
done

# --- 8. the robustness layer is documented --------------------------
# The sweep robustness flags, every FaultPlan kind (the
# authoritative list is faultKindName() in fault_plan.cc), the
# sweep.* counters, and the crash-resume harness must all appear
# in docs/ROBUSTNESS.md.
for f in journal cell-timeout faults; do
    grep -q -- "--$f" docs/ROBUSTNESS.md ||
        err "robustness flag '--$f' is not documented in" \
            "docs/ROBUSTNESS.md"
done
fault_kinds=$(sed -n '/^faultKindName/,/^}/p' \
                  src/sim/fault_plan.cc |
              grep -o 'return "[a-z-]*"' | sed 's/return "//; s/"//' |
              grep -v '^none$')
[ -n "$fault_kinds" ] ||
    err "could not extract fault kinds from fault_plan.cc"
for k in $fault_kinds; do
    grep -q "\`$k\`" docs/ROBUSTNESS.md ||
        err "fault kind '$k' is not documented in" \
            "docs/ROBUSTNESS.md"
done
for c in completed_cells resumed_cells timeouts \
         failed_cells cancelled_cells reaped_markers; do
    grep -q "sweep.$c" docs/ROBUSTNESS.md ||
        err "counter 'sweep.$c' is not documented in" \
            "docs/ROBUSTNESS.md"
done
grep -q scripts/crash_resume_e2e.sh docs/ROBUSTNESS.md ||
    err "'scripts/crash_resume_e2e.sh' is not referenced in" \
        "docs/ROBUSTNESS.md"

if [ "$fail" -ne 0 ]; then
    echo "check_docs: FAILED (see messages above)" >&2
    exit 1
fi
echo "check_docs: OK"
