#!/usr/bin/env python3
"""Compare sim_e2e runs of a parent commit and a change (README.md).

    python3 bench/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the reports of repeated runs.sh --out runs, one
subdirectory per run (PARENT_DIR/1/<workload>.json, ...). Runs pair
up in sorted order, so alternate the sides when taking them. For each
end-to-end metric in BENCHMARK.json, one row per workload:

  improved    the change wins at least 9 of every 10 pairs (ties count
              for neither side; needs 10 pairs or more) and the medians
              differ by more than the parent's interquartile range
  regressed   the change's median is worse by more than the bound
  unresolved  the runs spread wider than the bound, unless every change
              run beats every parent run
  unchanged   everything else

Any difference in sim_digest is flagged: a change that claims to leave
the simulation alone must leave it identical. Exits 1 on a regression
or a digest difference.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory, workload):
    paths = sorted(Path(directory).glob(f"**/{workload}.json"))
    return [json.loads(p.read_text()) for p in paths]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """Classify one (metric, workload) row by the section 8 rule."""
    sign = 1.0 if better == "higher" else -1.0
    med_p = statistics.median(parent)
    med_c = statistics.median(change)
    q1_p, q3_p = quartiles(parent)
    q1_c, q3_c = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (med_c - med_p) > q3_p - q1_p):
        return "improved"
    if sign * (med_p - med_c) > bound * abs(med_p):
        return "regressed"
    spread = max((q3_p - q1_p) / abs(med_p) if med_p else 0.0,
                 (q3_c - q1_c) / abs(med_c) if med_c else 0.0)
    if better == "higher":
        dominates = min(change) > max(parent)
    else:
        dominates = max(change) < min(parent)
    if spread > bound and not dominates:
        return "unresolved"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent_dir, change_dir = sys.argv[1], sys.argv[2]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    print(f"{'workload':12} {'metric':12} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8} n  verdict")
    for w in bench["workloads"]:
        name = w["name"]
        parent = load_runs(parent_dir, name)
        change = load_runs(change_dir, name)
        if not parent or not change:
            print(f"{name:12} no runs in {parent_dir if not parent else change_dir}")
            failed = True
            continue
        for m in bench["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in parent]
            c = [r["metrics"][m["name"]]["value"] for r in change]
            v = verdict(p, c, m["better"], m["bound"])
            failed |= v == "regressed"
            mp, mc = statistics.median(p), statistics.median(c)
            fmt = "{:.4g} [{:.4g}, {:.4g}]"
            print(f"{name:12} {m['name']:12} {fmt.format(mp, *quartiles(p)):>34} "
                  f"{fmt.format(mc, *quartiles(c)):>34} "
                  f"{100 * (mc - mp) / mp if mp else 0.0:+7.2f}% "
                  f"{min(len(p), len(c))}  {v}")
        digests = ({r["info"]["sim_digest"] for r in parent},
                   {r["info"]["sim_digest"] for r in change})
        if digests[0] != digests[1]:
            print(f"{name:12} SIM_DIGEST DIFFERS: parent {sorted(digests[0])} "
                  f"change {sorted(digests[1])}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
