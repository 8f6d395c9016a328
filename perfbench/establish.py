"""Establish the committed optima of the exact workloads.

    python3 perfbench/establish.py

Solves every base instance of every exact workload with both solver
variants, refuses to continue unless they agree on a proven optimum, and
writes the weights to ``perfbench/expected.json``.  The benchmark checks
each exact answer against that file, so rerun this only when the instance
families in ``bench.py`` change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import mwis  # noqa: E402
from perfbench import bench  # noqa: E402


def main() -> int:
    optima = {}
    for wl in bench.WORKLOADS.values():
        if not wl.exact:
            continue
        for k in range(wl.count):
            g = bench.base_graph(wl, k)
            weights = set()
            for variant in ("full", "dense"):
                res = mwis.solve(g, mwis.SolverConfig(variant=variant))
                if not res.solution.optimal:
                    raise SystemExit(f"{variant} did not prove an optimum")
                weights.add(res.solution.weight)
            name = bench.exact_name(wl, k)
            if len(weights) != 1:
                raise SystemExit(f"{name}: full and dense disagree: {sorted(weights)}")
            optima[name] = weights.pop()
            print(name, optima[name], flush=True)
    with open(bench.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(optima, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
