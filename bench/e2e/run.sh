#!/usr/bin/env bash
# Run every sim_e2e workload, each in its own process, and print every
# metric (bench/e2e/README.md). With --trace, also the traced run.
#
#   bench/e2e/run.sh [--seed S] [--out DIR] [--seconds T] [--trace]
#
# Exits nonzero when a cell failed, the mirror's oracle failed, or
# tracing.coverage fell outside 0.9-1.1.
exec python3 "$(dirname "$0")/run.py" --suite "$@"
