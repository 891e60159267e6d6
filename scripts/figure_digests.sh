#!/usr/bin/env bash
# Figure-suite byte-identity check (wired into ctest as
# `figure_digests`): runs every fig*, table* and ablation_* bench at
# a reduced length with --stable-json and compares a SHA-256 digest
# of each --json export (benches that run a sweep) and of each
# stdout against the committed tests/data/figure_digests.txt. One
# more fig12_mpki run with --events and --epoch covers the LLC
# event log and epoch sampler; fig1 and fig3-7 cover trace capture.
#
# --update rewrites the digest file instead of diffing (that is
# what `scripts/update_golden.sh --figures` delegates to). A change
# that means to move results regenerates the file and says why in
# CHANGES.md. The runs are deterministic and independent of the
# thread count.
#
# Usage: scripts/figure_digests.sh [--check|--update]
#            [--bench-dir=DIR]

set -eu
# The bench/*.cc glob below orders the digest file.
export LC_ALL=C

cd "$(dirname "$0")/.." || exit 1

mode=check
bench_dir="build/bench"
for arg in "$@"; do
    case "$arg" in
        --check) mode=check ;;
        --update) mode=update ;;
        --bench-dir=*) bench_dir="${arg#--bench-dir=}" ;;
        *)
            echo "figure_digests: unknown argument '$arg'" >&2
            echo "usage: $0 [--check|--update] [--bench-dir=DIR]" >&2
            exit 2
            ;;
    esac
done
# Absolute: every bench runs from inside the temp dir so the file
# names it prints stay relative.
case "$bench_dir" in /*) ;; *) bench_dir="$PWD/$bench_dir" ;; esac

golden="tests/data/figure_digests.txt"
scale=(--warmup 20000 --instructions 50000 --rl-instructions 50000
       --rl-epochs 1 --seed 42 --stable-json)
# Two sweep threads keep the ctest light; results do not depend on
# the thread count.
threads=2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out="$tmp/figure_digests.txt"

digest() {
    sha256sum "$1" | cut -d' ' -f1
}

# run LABEL BENCH ARGS...: one bench run, one digest line per output.
run() {
    local label=$1 bench=$2
    shift 2
    [ -x "$bench_dir/$bench" ] || {
        echo "figure_digests: '$bench_dir/$bench' not found; build" \
             "first (cmake --build build) or pass --bench-dir=" >&2
        exit 2
    }
    (cd "$tmp" && "$bench_dir/$bench" "${scale[@]}" \
        --threads "$threads" "$@" --json "$label.json" \
        >"$label.stdout")
    echo "$label stdout $(digest "$tmp/$label.stdout")" >>"$out"
    if [ -f "$tmp/$label.json" ]; then
        echo "$label json $(digest "$tmp/$label.json")" >>"$out"
    fi
}

{
    echo "# SHA-256 of each bench's --stable-json --json export and"
    echo "# stdout at: ${scale[*]} (any --threads)"
    echo "# Regenerate: scripts/update_golden.sh --figures"
} >"$out"
for src in bench/fig*.cc bench/table*.cc bench/ablation_*.cc; do
    run "$(basename "$src" .cc)" "$(basename "$src" .cc)"
done
run fig12_mpki.events fig12_mpki \
    --workloads 429.mcf,470.lbm,483.xalancbmk \
    --events events.json --epoch 4096
echo "fig12_mpki.events events $(digest "$tmp/events.json")" >>"$out"

if [ "$mode" = update ]; then
    cp "$out" "$golden"
    echo "figure_digests: regenerated $golden"
elif ! diff -u "$golden" "$out"; then
    echo "figure_digests: results differ from $golden; if the" \
         "change is intended, run scripts/update_golden.sh" \
         "--figures and say why in CHANGES.md" >&2
    exit 1
else
    echo "figure_digests: all figure outputs match $golden"
fi
