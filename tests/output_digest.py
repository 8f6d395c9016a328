"""Print one SHA-256 over the solver's and the kernelizer's outputs on a
fixed set of graphs, so two checkouts can be compared for byte-identical
results:

    python3 tests/output_digest.py

The graphs are the builders of ``tests/helpers`` (random graphs, gnm
graphs, twin gadgets and the structured family), each run in both
variants.  Per (graph, variant) the hash covers ``solve``'s solution,
every ``SearchStats`` field, the convergence weights and the kernel size,
then ``reduce_to_kernel``'s kernel as ``serialize_graph`` writes it and its
sidecar as ``write_lifting`` writes it.  Times are left out.  The package
is imported from this checkout's ``src``, whatever is installed.
"""

import dataclasses
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from helpers import (copy_graph, gnm_graph, random_graph,  # noqa: E402
                     structured_family, twin_gadget_graph)
from mwis import SolverConfig, reduce_to_kernel, solve  # noqa: E402
from mwis.graph_io import serialize_graph, write_lifting  # noqa: E402
from mwis.reductions import VARIANTS  # noqa: E402


def graphs():
    for seed in range(200):
        yield random_graph(seed, 1 + seed % 30, (0.1, 0.3, 0.6)[seed % 3])
    for seed in range(47):
        n = 30 + 2 * seed
        yield gnm_graph(seed, n, (2 + seed % 3) * n // 2)
    for seed in range(30):
        yield twin_gadget_graph(seed, wmax=200)
    for _, g in sorted(structured_family().items()):
        yield g


def outputs(g, variant):
    """The lines one (graph, variant) pair adds to the hash."""
    res = solve(g, SolverConfig(variant=variant))
    stats = dataclasses.asdict(res.stats)
    stats["rule_applications"] = sorted(stats["rule_applications"].items())
    yield repr((res.solution.vertices, res.solution.weight, res.solution.optimal))
    yield repr(sorted(stats.items()))
    yield repr(([w for _, w in res.convergence], res.kernel_n, res.kernel_m))
    kr = reduce_to_kernel(copy_graph(g), variant=variant)
    yield serialize_graph(kr.kernel)
    sidecar = io.StringIO()
    write_lifting(kr.offset, sorted(kr.kernel.alive_vertices()), kr.stack, sidecar)
    yield sidecar.getvalue()


def main():
    digest = hashlib.sha256()
    pairs = 0
    for g in graphs():
        for variant in VARIANTS:
            for line in outputs(g, variant):
                digest.update(line.encode())
                digest.update(b"\0")
            pairs += 1
    print(f"{digest.hexdigest()}  {pairs} (graph, variant) pairs")


if __name__ == "__main__":
    main()
