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
``s, L_i, R_j, t``; Dinic phases follow.  Each is layered from the sink
side, by a BFS backward from every right copy with ``ct > 0`` that stops at
the first level holding a left copy with ``cs > 0``; only those sources push
a blocking flow, by a current-arc DFS over an explicit path, so no phase
walks a source that cannot reach ``t``.  When a phase labels no source, the
flow is a maximum, and one forward pass from the sources reads the cut.
The deadline is looked at once per phase and every
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
maximum value from above, so :func:`critical_value_at_most` can stop the
flow once that bound falls to a caller's threshold: after the clip and the
greedy pass, and after every Dinic phase.  The LP prune test of
:meth:`mwis.reductions.ReductionEngine.lp_prunes` uses this to decide
``LP <= slack`` without raising the flow to a maximum; a flow that does
reach its maximum decides it by the exact value.  The rule itself always
raises the flow to a maximum, which its cut certificate needs.

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
    chosen = [v for v, l, r in zip(verts, left, right) if l and not r]

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


def critical_value_at_most(graph: WeightedGraph, flow: list[tuple[int, int, int]],
                           deadline: float | None, stop: int) -> bool:
    """Whether the maximum of ``w(U) - w(N(U))`` is at most ``stop``.

    The value is the total weight minus the flow, so every feasible flow
    bounds it from above: the flow is not raised further once that bound is
    at most ``stop``.  ``flow`` and ``deadline`` work as in
    :func:`critical_weighted_set`.
    """
    return sum(_flow(graph, flow, deadline, stop)[1]) <= stop


def _flow(graph, flow, deadline, stop=None):
    """Warm-start and raise the flow on the double cover of ``graph``.

    Returns the alive vertices in snapshot order, the residual source
    capacities ``cs`` and what :func:`_max_flow` returns: the copies that
    :func:`_source_side` finds reachable from ``s`` once the flow is a
    maximum, or ``None`` once ``sum(cs)`` is at most ``stop``.  The flow
    reached is handed back in ``flow``, also when the deadline passes.
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
    """Raise the flow to a maximum by Dinic phases layered from the sink.

    Each phase labels the copies by their residual distance to ``t``:
    every right copy with ``ct > 0`` is at level 0, a left copy takes the
    lowest level of a right copy adjacent to it, and a right copy one level
    above a left copy that sends it flow (read in the left copy's row, so
    no ``rev``).  The labelling stops at the first level that holds a left
    copy with ``cs > 0``, and only those sources push the phase's blocking
    flow.  When no source is labelled the flow is a maximum, and the one
    forward pass of :func:`_source_side` returns the copies reachable from
    ``s``.  Returns ``None`` instead once, after a phase, ``sum(cs)`` is at
    most ``stop``.
    """
    n = len(cs)
    while True:
        check_deadline(deadline)
        left, right = [-1] * n, [-1] * n
        layer = [j for j in range(n) if ct[j]]
        for j in layer:
            right[j] = 0
        k, sources = 0, []
        while layer:
            reached = []
            for j in layer:
                for i in adj[xadj[j]:xadj[j + 1]]:
                    if left[i] < 0:
                        left[i] = k
                        reached.append(i)
            sources = [i for i in reached if cs[i]]
            if sources:
                break
            k += 1
            layer = []
            for i in reached:
                lo, hi = xadj[i], xadj[i + 1]
                for j, b in zip(adj[lo:hi], f[lo:hi]):
                    if b and right[j] < 0:
                        right[j] = k
                        layer.append(j)
        if not sources:
            return _source_side(xadj, adj, rev, cs, f)
        _blocking_flow(sources, k, xadj, adj, rev, cs, ct, f, left, right, deadline)
        if stop is not None and sum(cs) <= stop:
            return None


def _source_side(xadj, adj, rev, cs, f):
    """Mark the copies reachable from ``s`` in the residual network.

    Returns ``(left, right)``, true where ``L_i`` and ``R_j`` are reachable.
    """
    n = len(cs)
    left, right = [c > 0 for c in cs], [False] * n
    stack = [i for i in range(n) if left[i]]
    while stack:
        i = stack.pop()
        for j in adj[xadj[i]:xadj[i + 1]]:
            if not right[j]:
                right[j] = True
                lo, hi = xadj[j], xadj[j + 1]
                for u, r in zip(adj[lo:hi], rev[lo:hi]):
                    if f[r] and not left[u]:
                        left[u] = True
                        stack.append(u)
    return left, right


def _blocking_flow(sources, top, xadj, adj, rev, cs, ct, f, left, right, deadline) -> None:
    """Saturate every shortest augmenting path of the layered network.

    The sources are the left copies at level ``top``.  ``path`` holds arc
    positions from ``L_i0``: forward arcs ``p`` (in the row of their left
    end) at even depths, backward arcs ``q`` (in the row of their right end)
    at odd ones, so the node reached is ``adj[path[-1]]``, and a left copy
    at depth ``2d`` and a right copy at ``2d + 1`` are at level ``top - d``.
    A dead end leaves the layered network by having its level set to -1;
    every labelled copy reaches ``t`` when the phase starts, so only arcs
    this phase saturated make one.
    """
    it_left, it_right = xadj[:-1], xadj[:-1]  # current arcs
    augments = 0
    for i0 in sources:
        path: list[int] = []
        while cs[i0]:
            depth = len(path)
            k = top - (depth >> 1)
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
            if k == 0:
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
            while q < end and (left[adj[q]] != k - 1 or not f[rev[q]]):
                q += 1
            it_right[u] = q
            if q < end:
                path.append(q)
            else:
                right[u] = -1
                path.pop()
