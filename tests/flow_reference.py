"""Test-only reference: the critical-set flow as a generic recursive Dinic.

This is the max flow the production :mod:`mwis.critical` replaced with a
network specialised to the bipartite double cover, kept verbatim so that
differential tests can require the same ``(chosen, value)`` on every graph.
It builds the network of the double cover (source to left copies and right
copies to sink with capacity ``w(v)``, left to right copies along every
edge with a capacity past any cut) and reads the set off the vertices
reachable from the source.  Nothing in the package uses it.
"""

from __future__ import annotations

from collections import deque

from mwis.errors import InternalError
from mwis.graph import WeightedGraph


class _Dinic:
    """Max-flow on a small integer-capacity network."""

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add_arc(self, u: int, v: int, cap: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def _levels(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.n
        level[s] = 0
        queue = deque((s,))
        while queue:
            u = queue.popleft()
            for a in self.head[u]:
                v = self.to[a]
                if self.cap[a] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[t] >= 0 else None

    def _augment(self, u: int, t: int, limit: int, level, it) -> int:
        if u == t:
            return limit
        while it[u] < len(self.head[u]):
            a = self.head[u][it[u]]
            v = self.to[a]
            if self.cap[a] > 0 and level[v] == level[u] + 1:
                pushed = self._augment(v, t, min(limit, self.cap[a]), level, it)
                if pushed:
                    self.cap[a] -= pushed
                    self.cap[a ^ 1] += pushed
                    return pushed
            it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._levels(s, t)
            if level is None:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, 1 << 62, level, it)
                if not pushed:
                    break
                flow += pushed

    def source_side(self, s: int) -> list[bool]:
        """Vertices reachable from ``s`` in the residual network."""
        seen = [False] * self.n
        seen[s] = True
        queue = deque((s,))
        while queue:
            u = queue.popleft()
            for a in self.head[u]:
                v = self.to[a]
                if self.cap[a] > 0 and not seen[v]:
                    seen[v] = True
                    queue.append(v)
        return seen


def critical_weighted_set(graph: WeightedGraph) -> tuple[list[int], int]:
    """Return a maximizer of ``w(U) - w(N(U))`` and its value.

    The returned set is independent.  Raises :class:`InternalError` if the
    cut fails its own certificate, which would indicate a bug.
    """
    verts = sorted(graph.alive_vertices())
    n = len(verts)
    if n == 0:
        return [], 0
    index = {v: i for i, v in enumerate(verts)}
    total = sum(graph.weight(v) for v in verts)
    inf = total + 1
    # Node layout: s, left copies, right copies, t.
    s, t = 0, 2 * n + 1
    net = _Dinic(2 * n + 2)
    for v in verts:
        i = index[v]
        net.add_arc(s, 1 + i, graph.weight(v))
        net.add_arc(1 + n + i, t, graph.weight(v))
    for v in verts:
        i = index[v]
        for u in graph.neighbors(v):
            net.add_arc(1 + i, 1 + n + index[u], inf)
    flow = net.max_flow(s, t)
    side = net.source_side(s)
    chosen = [verts[i] for i in range(n) if side[1 + i] and not side[1 + n + i]]

    value = total - flow
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
