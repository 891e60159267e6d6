#!/usr/bin/env python3
"""Structural smoke test of sim_e2e (ctest sim_e2e_smoke).

    smoke.py SIM_E2E SIM_E2E_TRACE BENCHMARK_JSON

At a tiny run length, for every workload in BENCHMARK.json: every
metric it names is emitted, no cell fails (the traced run includes the
mirror's oracle), and sim_digest is identical across two invocations
with the same seed and differs for another seed. No wall-clock
assertions.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run(binary, workload, seed, out):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--tiny", "--json", str(out)]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=600,
                          check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(out.read_text())


def main():
    sim_e2e, sim_e2e_trace, benchmark = sys.argv[1:4]
    bench = json.loads(Path(benchmark).read_text())
    errors = []
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        tmp = Path(tmp)
        for w in (w["name"] for w in bench["workloads"]):
            a = run(sim_e2e, w, 1, tmp / "a.json")
            b = run(sim_e2e, w, 1, tmp / "b.json")
            c = run(sim_e2e, w, 2, tmp / "c.json")
            t = run(sim_e2e_trace, w, 1, tmp / "t.json")
            for report, wanted in ((a, "end_to_end"), (t, "per_layer")):
                missing = [m["name"] for m in bench[wanted]
                           if m["name"] not in report["metrics"]]
                if missing:
                    errors.append(f"{w}: {wanted} metrics missing: {missing}")
            for report in (a, b, c, t):
                if report["failed"] or not report["correct"]:
                    errors.append(f"{w}: failed cells {report['errors']}")
            if a["metrics"]["cell_fail_ratio"]["value"] != 0:
                errors.append(f"{w}: cell_fail_ratio != 0")
            da, db, dc = (r["info"]["sim_digest"] for r in (a, b, c))
            if da != db:
                errors.append(f"{w}: sim_digest differs for one seed: "
                              f"{da} {db}")
            if da == dc:
                errors.append(f"{w}: sim_digest ignores the seed: {da}")
    for e in errors:
        print(e)
    print("sim_e2e_smoke:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
