"""Critical weighted sets via a minimum cut on the bipartite double cover.

A critical weighted set maximizes ``w(U) - w(N(U))`` over all vertex subsets,
where ``N(U)`` is the union of the members' neighborhoods (members adjacent
to other members count).  Such a maximizer can be read off a minimum s-t cut
of a network on two copies ``L_v``, ``R_v`` of the vertex set:

* ``s -> L_v`` with capacity ``w(v)``,
* ``L_u -> R_v`` with unbounded capacity, for each edge ``{u, v}`` in both
  directions,
* ``R_v -> t`` with capacity ``w(v)``.

The vertices whose left copy is reachable from ``s`` in the residual network
of a maximum flow and whose right copy is not form an independent maximizer,
and the maximum value equals the total weight minus the flow.  Both facts are
checked against the graph on every call, and the whole construction is
validated against the exhaustive :func:`mwis.oracle.brute_force_critical_set`
in the test suite.

**Residual state.**  The network lives in flat lists over the CSR snapshot of
the alive graph (:meth:`WeightedGraph.alive_csr`): ``cs[i]`` and ``ct[j]`` are
the residual capacities of ``s -> L_i`` and ``R_j -> t``, and ``f[p]`` is the
flow on ``L_i -> R_j`` for the position ``p`` of ``j`` in row ``i``.  A middle
arc can always be crossed forward; ``R_j`` reaches ``L_i`` backward through
``f[rev[q]]``, where ``q`` is the position of ``i`` in row ``j`` and ``rev[q]``
that of ``j`` in row ``i``.  A greedy pass saturates the paths
``s, L_i, R_j, t``; Dinic phases follow, each a layered BFS from every left
copy with ``cs > 0`` and a blocking flow pushed by a current-arc DFS over an
explicit path.  The deadline is looked at once per phase and every
``_AUGMENTS_PER_CHECK`` augmentations; once it has passed,
:class:`mwis.errors.DeadlinePassed` is raised, the flow reached handed back.
Weights stay Python ints, so any size is exact.

**Warm start.**  A caller may pass the ``(u, v, amount)`` middle-arc flows of
an earlier call, by vertex id.  They are clipped onto the current graph: an
arc is kept only when both ends are alive and adjacent, and its amount is
capped by what is left of ``cs`` and ``ct``.  The result is a feasible flow
whatever happened to the graph in between (edits, rollbacks, fold ids handed
out again), so a warm start changes the work done and nothing else.

**Why every maximum flow yields the same set.**  The nodes reachable from
``s`` in the residual network of a maximum flow are the source side of the
minimal minimum cut, the intersection of all minimum cuts' source sides, and
do not depend on which maximum flow was found.  The returned set and value
are therefore functions of the graph alone: the greedy pass, the phase order
and the warm start cannot move them.

**Stopping early.**  The total weight minus any feasible flow bounds the
maximum value from above, so :func:`critical_value` can stop the flow once
that bound falls to a caller's threshold: after the clip and the greedy
pass, and after every Dinic phase.  The LP bound of
:meth:`mwis.reductions.ReductionEngine.lp_bound` uses this to decide a
prune test without raising the flow to a maximum.  The rule itself always
raises it to a maximum, which its cut certificate needs.

**Futile calls.**  If ``U`` maximizes ``w(U) - w(N(U))`` on ``G``, then
``G - N[U]`` holds no set of positive value.  Such a set ``X`` avoids
``N[U]``, so it is not adjacent to ``U`` and its neighbors in ``G`` lie in
``N(U)`` or in its neighborhood within ``G - N[U]``; then ``U | X`` would
beat ``U``.  A graph on which the maximum value is 0 holds none either.
:meth:`mwis.reductions.ReductionEngine.cwis_reduction` uses this to skip
the flow on a graph left unedited since the rule last fired or found nothing.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import InternalError, check_deadline
from .graph import WeightedGraph

_AUGMENTS_PER_CHECK = 256  # augmentations between two looks at the deadline


def critical_weighted_set(graph: WeightedGraph,
                          flow: list[tuple[int, int, int]] | None = None,
                          deadline: float | None = None,
                          ) -> tuple[list[int], int]:
    """Return a maximizer of ``w(U) - w(N(U))`` and its value.

    The returned set is independent and ascending.  ``flow``, when given,
    holds ``(u, v, amount)`` flows on the arcs ``L_u -> R_v`` of an earlier
    call; they seed this call, and the list is overwritten with its final
    flow.  Raises :class:`mwis.errors.DeadlinePassed`, leaving the flow
    reached in ``flow``, when the ``time.monotonic()`` deadline passes
    first, and :class:`InternalError` if the cut fails its own certificate,
    which would indicate a bug.
    """
    verts, cs, (left, right) = _flow(graph, flow, deadline)
    chosen = [v for v, l, r in zip(verts, left, right) if l >= 0 > r]

    value = sum(cs)  # the total weight minus the flow: the cut's value
    nbhd = set()
    for v in chosen:
        nbhd.update(graph.neighbors(v))
    direct = sum(graph.weight(v) for v in chosen) - sum(graph.weight(u) for u in nbhd)
    if direct != value:
        raise InternalError(
            f"critical-set cut certificate failed: cut value {value}, set value {direct}"
        )
    if nbhd.intersection(chosen):
        raise InternalError("critical-set extraction produced a non-independent set")
    return chosen, value


def critical_value(graph: WeightedGraph,
                   flow: list[tuple[int, int, int]] | None = None,
                   deadline: float | None = None,
                   stop: int | None = None) -> int:
    """Return the maximum of ``w(U) - w(N(U))``, or an upper bound on it.

    The value is the total weight minus the flow, so every feasible flow
    bounds it from above.  With ``stop`` given, the flow is not raised
    further once that bound is at most ``stop``, and the bound is returned;
    otherwise the flow is raised to a maximum and the value is exact.
    ``flow`` and ``deadline`` work as in :func:`critical_weighted_set`.
    """
    return sum(_flow(graph, flow, deadline, stop)[1])


def _flow(graph, flow, deadline, stop=None):
    """Warm-start and raise the flow on the double cover of ``graph``.

    Returns the alive vertices in snapshot order, the residual source
    capacities ``cs`` and the final layers of :func:`_max_flow`, which are
    ``None`` once ``sum(cs)`` is at most ``stop``.  The flow reached is
    handed back in ``flow``, also when the deadline passes.
    """
    xadj, adj, w, verts, index = graph.alive_csr()
    cs, ct, f = w[:], w[:], [0] * len(adj)
    if flow:
        _clip(flow, index, xadj, adj, cs, ct, f)
    _saturate_short_paths(xadj, adj, cs, ct, f)
    reach = None
    try:
        if stop is None or sum(cs) > stop:
            reach = _max_flow(xadj, adj, _reverse_arcs(xadj, adj), cs, ct, f, deadline, stop)
    finally:
        if flow is not None:
            flow[:] = [(verts[i], verts[adj[p]], f[p])
                       for i in range(len(verts)) for p in range(xadj[i], xadj[i + 1]) if f[p]]
    return verts, cs, reach


def _clip(flow, index, xadj, adj, cs, ct, f) -> None:
    """Load the arc flows of an earlier call that the current graph admits."""
    for u, v, amount in flow:
        i, j = index.get(u), index.get(v)
        if i is None or j is None:
            continue
        end = xadj[i + 1]
        p = bisect_left(adj, j, xadj[i], end)
        if p == end or adj[p] != j:
            continue
        b = min(amount, cs[i], ct[j])
        if b > 0:
            f[p] += b
            cs[i] -= b
            ct[j] -= b


def _saturate_short_paths(xadj, adj, cs, ct, f) -> None:
    """Push flow greedily along the paths ``s, L_i, R_j, t``."""
    for i, c in enumerate(cs):
        if not c:
            continue
        for p in range(xadj[i], xadj[i + 1]):
            d = ct[adj[p]]
            if d:
                b = c if c < d else d
                f[p] += b
                ct[adj[p]] = d - b
                c -= b
                if not c:
                    break
        cs[i] = c


def _reverse_arcs(xadj, adj) -> list[int]:
    """``rev[p]``: the position of ``i`` in row ``adj[p]`` for ``p`` in row ``i``.

    Rows are ascending, so the rows visiting ``j`` in ascending order meet
    their slots in row ``j`` in order too.
    """
    nxt = xadj[:-1]
    rev = [0] * len(adj)
    for i in range(len(nxt)):
        for p in range(xadj[i], xadj[i + 1]):
            j = adj[p]
            rev[p] = nxt[j]
            nxt[j] += 1
    return rev


def _max_flow(xadj, adj, rev, cs, ct, f, deadline, stop=None):
    """Raise the flow to a maximum by Dinic phases.

    Returns the BFS layers ``(left, right)`` of the final residual network,
    ``-1`` where a copy is unreachable from ``s``, or ``None`` once, after a
    phase, ``sum(cs)`` is at most ``stop``.
    """
    n = len(cs)
    while True:
        check_deadline(deadline)
        left, right = [-1] * n, [-1] * n
        sources = [i for i, c in enumerate(cs) if c]
        for i in sources:
            left[i] = 0
        layer, k = sources, 0
        while layer:
            reached = []
            for i in layer:
                for j in adj[xadj[i]:xadj[i + 1]]:
                    if right[j] < 0:
                        right[j] = k
                        reached.append(j)
            if any(ct[j] for j in reached):
                break  # t is one arc past layer k
            k += 1
            layer = []
            for j in reached:
                lo, hi = xadj[j], xadj[j + 1]
                for i, r in zip(adj[lo:hi], rev[lo:hi]):
                    if left[i] < 0 and f[r]:
                        left[i] = k
                        layer.append(i)
        if not layer:
            return left, right
        _blocking_flow(sources, k, xadj, adj, rev, cs, ct, f, left, right, deadline)
        if stop is not None and sum(cs) <= stop:
            return None


def _blocking_flow(sources, last, xadj, adj, rev, cs, ct, f, left, right, deadline) -> None:
    """Saturate every shortest augmenting path of the layered network.

    ``path`` holds arc positions from ``L_i0``: forward arcs ``p`` (in the
    row of their left end) at even depths, backward arcs ``q`` (in the row
    of their right end) at odd ones, so the node reached is ``adj[path[-1]]``
    and a left copy at depth ``2k`` and a right copy at ``2k + 1`` are in
    layer ``k``.  A dead end leaves the layered network by having its layer
    set to -1.
    """
    it_left, it_right = xadj[:-1], xadj[:-1]  # current arcs
    augments = 0
    for i0 in sources:
        path: list[int] = []
        while cs[i0]:
            depth = len(path)
            k = depth >> 1
            if depth & 1 == 0:  # at a left copy
                u = adj[path[-1]] if path else i0
                p, end = it_left[u], xadj[u + 1]
                while p < end and right[adj[p]] != k:
                    p += 1
                it_left[u] = p
                if p < end:
                    path.append(p)
                    continue
                left[u] = -1
                if not path:
                    break
                path.pop()
                continue
            u = adj[path[-1]]  # at a right copy
            if k == last:
                if not ct[u]:
                    right[u] = -1
                    path.pop()
                    continue
                back = path[1::2]
                b = min(cs[i0], ct[u], *(f[rev[q]] for q in back))
                for p in path[0::2]:
                    f[p] += b
                for q in back:
                    f[rev[q]] -= b
                cs[i0] -= b
                ct[u] -= b
                for d, q in enumerate(back):
                    if not f[rev[q]]:
                        del path[2 * d + 1:]  # resume at the tail of the first saturated arc
                        break
                augments += 1
                if augments % _AUGMENTS_PER_CHECK == 0:
                    check_deadline(deadline)
                continue
            q, end = it_right[u], xadj[u + 1]
            while q < end and (left[adj[q]] != k + 1 or not f[rev[q]]):
                q += 1
            it_right[u] = q
            if q < end:
                path.append(q)
            else:
                right[u] = -1
                path.pop()
