"""Exhaustive reference solvers.

These are the ground truth that every reduction, bound and the full solver
are tested against, and the ``oracle`` command of the CLI.  They enumerate
all subsets; no memoization, no pruning beyond skipping infeasible subsets,
so they stay obviously correct.

Ties between equal-weight optimal sets are broken toward the vertex set
whose sorted id sequence is lexicographically smallest.  For positive
weights no two optimal sets are nested, so that set is the one containing
the smallest id on which the candidates disagree.

The subset scan is one vectorized numpy pass on every backend; numba
compiles only the local-search core (see :mod:`mwis._accel`).  numpy is
imported by the scans themselves, not with this module, so that importing
the package and every command but ``oracle`` run without it.
"""

from __future__ import annotations

from .errors import OracleSizeError
from .graph import WeightedGraph, check_total_weight
from .solution import Solution

MAX_ORACLE_VERTICES = 24
MAX_CRITICAL_VERTICES = 14

_CHUNK_BITS = 18  # subsets are scanned in chunks of 2**18


def _reverse_bits(mask: int, n: int) -> int:
    """``mask`` with bit ``i`` moved to bit ``n - 1 - i``."""
    return int(format(mask, f"0{n}b")[::-1], 2) if n else 0


def mwis_weight_and_mask(adj_masks: list[int], weights: list[int]) -> tuple[int, int]:
    """Exact MWIS of a mask-encoded graph: (weight, chosen-subset mask).

    The scan relabels bit ``v`` as ``n - 1 - v``.  The tie-break winner
    holds the smallest id on which two optimal sets differ, their highest
    differing bit after relabelling, so its mask is the larger: the scan
    visits masks in increasing order and keeps the last maximum.
    """
    import numpy as np

    n = len(adj_masks)
    adj = [_reverse_bits(m, n) for m in adj_masks[::-1]]
    w = np.array(weights[::-1], dtype=np.int64)
    total_masks = 1 << n
    chunk = min(total_masks, 1 << _CHUNK_BITS)
    best_w = best_m = 0
    for base in range(0, total_masks, chunk):
        masks = np.arange(base, min(base + chunk, total_masks), dtype=np.int64)
        feas = np.ones(masks.shape, dtype=bool)
        wsum = np.zeros(masks.shape, dtype=np.int64)
        for b in range(n):
            has = ((masks >> b) & 1).astype(bool)
            feas &= ~(has & ((masks & adj[b]) != 0))
            wsum += has * w[b]
        wsum[~feas] = -1
        last = len(wsum) - 1 - int(np.argmax(wsum[::-1]))
        if wsum[last] >= best_w:
            best_w, best_m = int(wsum[last]), base + last
    return best_w, _reverse_bits(best_m, n)


def _masks_of(graph: WeightedGraph, cap: int = MAX_ORACLE_VERTICES,
              name: str = "oracle") -> tuple[list[int], list[int], list[int]]:
    """Neighbor bitmasks, weights and ids of the alive graph, bit ``i``
    standing for ``verts[i]``, the ``i``-th smallest alive id.  Refuses more
    than ``cap`` vertices."""
    xadj, adj, weights, verts, _ = graph.alive_csr()
    if len(weights) > cap:
        raise OracleSizeError(f"{name} limited to {cap} vertices, got {len(weights)}")
    check_total_weight(weights)
    masks = [sum(1 << j for j in adj[xadj[i]:xadj[i + 1]]) for i in range(len(weights))]
    return masks, weights, verts


def brute_force_mwis(graph: WeightedGraph) -> Solution:
    """Exact maximum weight independent set by subset enumeration.

    Refuses graphs with more than ``MAX_ORACLE_VERTICES`` alive vertices.
    """
    adj, w, verts = _masks_of(graph)
    best_w, best_m = mwis_weight_and_mask(adj, w)
    chosen = tuple(verts[i] for i in range(len(verts)) if best_m >> i & 1)
    return Solution(chosen, best_w, optimal=True)


def brute_force_critical_set(graph: WeightedGraph) -> tuple[list[int], int]:
    """Exhaustive maximizer of ``w(U) - w(N(U))`` over all vertex subsets.

    ``N(U)`` is the union of the members' neighborhoods, members included
    when they neighbor each other.  Returns the first maximizer in subset
    enumeration order (the empty set when nothing beats zero).
    """
    import numpy as np

    adj, w, verts = _masks_of(graph, MAX_CRITICAL_VERTICES, "critical-set oracle")
    n = len(verts)
    size = 1 << n
    wsum = np.zeros(size, dtype=np.int64)
    nbr = np.zeros(size, dtype=np.int64)
    masks = np.arange(size, dtype=np.int64)
    for b in range(n):
        has = ((masks >> b) & 1).astype(bool)
        wsum[has] += w[b]
        nbr[has] |= adj[b]
    value = wsum - wsum[nbr]
    best = int(np.argmax(value))  # first maximizer
    return [verts[i] for i in range(n) if best >> i & 1], int(value[best])
