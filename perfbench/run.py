"""Run one workload of the mwis benchmark and print its metrics.

    python3 perfbench/run.py --workload sparse-full --seed 1 --seconds 30 --trace 0

Workloads: ``sparse-full``, ``dense-branch``, ``kernel-large`` (see
``bench.py`` for what each measures and ``BENCHMARK.json`` for why).  With
``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric, with times scaled to a reference loop's speed (see
``bench.Stopwatch``); with ``--trace 1`` it carries every per-layer metric
from a traced run, where all layer times are self times (span minus traced
children) in wall seconds.  On the exact workloads only the ``solve`` step
is traced, so the layers there are the solver's own.  The line before it stamps the backend, the
Python and numpy versions and the core count.  Full records with raw wall
times, span dumps and determinism fingerprints go to ``perfbench/out/``.

The package is imported from ``src/`` next to this directory, with
``MWIS_BACKEND`` set to ``numpy`` unless the caller chose a backend.  The
exit code is 0 when every answer checked out, 1 when any failed, and 2 when
the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Seeded benchmark of the mwis package.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mwis" / "__init__.py").is_file():
        print(f"perfbench: package source {SRC / 'mwis'} not found", file=sys.stderr)
        return 2
    os.environ.setdefault("MWIS_BACKEND", "numpy")
    for path in (str(ROOT), str(SRC)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    import mwis

    if not Path(mwis.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported mwis from {mwis.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import bench

    wl = bench.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    result, info, _ = bench.run(wl, args.seed, args.seconds, bool(args.trace),
                                bench.load_optima(), bench.OUT)
    for line in info["errors"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"stamp": {k: info[k] for k in (
        "workload", "seed", "backend", "mwis_backend_env", "python", "numpy", "nproc")}}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
