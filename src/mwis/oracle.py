"""Exhaustive reference solvers.

These are the ground truth that every reduction, bound and the full solver
are tested against, and they double as the subsolver for the local
subproblems of the neighbor-removal meta reduction.  They enumerate all
subsets; no memoization, no pruning beyond skipping infeasible subsets, so
they stay obviously correct.

Ties between equal-weight optimal sets are broken toward the vertex set
whose sorted id sequence is lexicographically smallest.  For positive
weights no two optimal sets are nested, so that set is the one containing
the smallest id on which the candidates disagree.

The hot subset loop has a numba-compiled backend and a vectorized numpy
fallback (see :mod:`mwis._accel`); both return identical results.
"""

from __future__ import annotations

import numpy as np

from ._accel import BACKEND, maybe_njit
from .errors import OracleSizeError
from .graph import WeightedGraph, check_total_weight
from .solution import Solution

MAX_ORACLE_VERTICES = 24
MAX_CRITICAL_VERTICES = 14

_CHUNK_BITS = 18  # numpy fallback processes subsets in chunks of 2**18


def _enum_mwis_loop(adj: np.ndarray, w: np.ndarray) -> tuple[int, int]:
    """Scan all subsets; adj[v] is the neighbor bitmask of vertex v."""
    n = adj.shape[0]
    best_w = np.int64(0)
    best_m = np.int64(0)
    for mask in range(1, 1 << n):
        m = mask
        total = np.int64(0)
        feasible = True
        while m:
            b = m & (-m)
            v = 0
            bb = b
            while bb > 1:
                bb >>= 1
                v += 1
            if adj[v] & mask:
                feasible = False
                break
            total += w[v]
            m ^= b
        if feasible:
            if total > best_w:
                best_w = total
                best_m = np.int64(mask)
            elif total == best_w:
                d = np.int64(mask) ^ best_m
                if mask & (d & (-d)):
                    best_m = np.int64(mask)
    return int(best_w), int(best_m)


_enum_mwis_fast = maybe_njit(_enum_mwis_loop)


def _lex_smaller(a: int, b: int) -> bool:
    """True when set-mask ``a`` precedes ``b`` in sorted-sequence order."""
    if b == 0:
        return False
    if a == 0:
        return True
    d = a ^ b
    return bool(a & (d & (-d)))


def _enum_mwis_numpy(adj: np.ndarray, w: np.ndarray) -> tuple[int, int]:
    """Vectorized subset scan, chunked to bound memory."""
    n = adj.shape[0]
    total_masks = 1 << n
    chunk = min(total_masks, 1 << _CHUNK_BITS)
    best_w = 0
    best_m = 0
    for base in range(0, total_masks, chunk):
        masks = np.arange(base, min(base + chunk, total_masks), dtype=np.int64)
        feas = np.ones(masks.shape, dtype=bool)
        wsum = np.zeros(masks.shape, dtype=np.int64)
        for b in range(n):
            has = ((masks >> b) & 1).astype(bool)
            feas &= ~(has & ((masks & adj[b]) != 0))
            wsum += has * w[b]
        wsum[~feas] = -1
        top = int(wsum.max(initial=-1))
        if top < best_w or top < 0:
            continue
        cands = masks[wsum == top]
        rev = np.zeros(cands.shape, dtype=np.int64)
        for b in range(n):
            rev |= ((cands >> b) & 1) << (n - 1 - b)
        pick = int(cands[int(np.argmax(rev))])
        if top > best_w or (top == best_w and _lex_smaller(pick, best_m)):
            best_w, best_m = top, pick
    return best_w, best_m


def mwis_weight_and_mask(adj_masks: np.ndarray, weights: np.ndarray) -> tuple[int, int]:
    """Exact MWIS of a mask-encoded graph: (weight, chosen-subset mask)."""
    n = adj_masks.shape[0]
    if n == 0:
        return 0, 0
    if n > MAX_ORACLE_VERTICES:
        raise OracleSizeError(f"oracle limited to {MAX_ORACLE_VERTICES} vertices, got {n}")
    if BACKEND == "numba":
        return _enum_mwis_fast(adj_masks, weights)
    return _enum_mwis_numpy(adj_masks, weights)


def _masks_of(graph: WeightedGraph, vertices: list[int]) -> tuple[np.ndarray, np.ndarray]:
    weights = [graph.weight(v) for v in vertices]
    check_total_weight(weights)
    index = {v: i for i, v in enumerate(vertices)}
    adj = np.zeros(len(vertices), dtype=np.int64)
    for v in vertices:
        i = index[v]
        m = 0
        for u in graph.neighbors(v):
            j = index.get(u)
            if j is not None:
                m |= 1 << j
        adj[i] = m
    return adj, np.array(weights, dtype=np.int64)


def brute_force_mwis(graph: WeightedGraph) -> Solution:
    """Exact maximum weight independent set by subset enumeration.

    Refuses graphs with more than ``MAX_ORACLE_VERTICES`` alive vertices.
    """
    verts = sorted(graph.alive_vertices())
    if len(verts) > MAX_ORACLE_VERTICES:
        raise OracleSizeError(
            f"oracle limited to {MAX_ORACLE_VERTICES} vertices, got {len(verts)}"
        )
    adj, w = _masks_of(graph, verts)
    best_w, best_m = mwis_weight_and_mask(adj, w)
    chosen = tuple(verts[i] for i in range(len(verts)) if best_m >> i & 1)
    return Solution(chosen, best_w, optimal=True)


def subgraph_mwis_weight(graph: WeightedGraph, vertices) -> int:
    """Exact MWIS weight of the subgraph induced by ``vertices``."""
    verts = sorted(set(vertices))
    if not verts:
        return 0
    adj, w = _masks_of(graph, verts)
    return mwis_weight_and_mask(adj, w)[0]


def brute_force_critical_set(graph: WeightedGraph) -> tuple[list[int], int]:
    """Exhaustive maximizer of ``w(U) - w(N(U))`` over all vertex subsets.

    ``N(U)`` is the union of the members' neighborhoods, members included
    when they neighbor each other.  Returns the first maximizer in subset
    enumeration order (the empty set when nothing beats zero).
    """
    verts = sorted(graph.alive_vertices())
    n = len(verts)
    if n > MAX_CRITICAL_VERTICES:
        raise OracleSizeError(
            f"critical-set oracle limited to {MAX_CRITICAL_VERTICES} vertices, got {n}"
        )
    if n == 0:
        return [], 0
    adj, w = _masks_of(graph, verts)
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
