"""Weighted clique cover upper bound for pruning.

A weighted clique cover assigns cliques ``C_i`` with weights ``W_i`` so that
every vertex's covering cliques carry at least its weight; the total
``sum W_i`` then bounds the weight of any independent set, because an
independent set meets each clique at most once.

The cover is built greedily over vertices in descending weight order (ties:
higher degree, then lower id).  Each vertex joins the heaviest existing
clique it completes, else opens a singleton clique weighted by the vertex.
Because heavier vertices are placed first, a joining vertex never forces a
clique's weight up, so the construction runs in time independent of the
weight values.  Given a deadline, the construction looks at the clock after
its sort and then every ``_DEADLINE_STRIDE`` vertices, and gives up once the
deadline has passed: a cover cut short bounds nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import InternalError
from .graph import WeightedGraph

_DEADLINE_STRIDE = 4096  # vertices placed between two looks at the clock


@dataclass
class CliqueCover:
    """Disjoint cliques plus their assigned weights."""

    cliques: list[list[int]]
    weights: list[int]

    @property
    def bound(self) -> int:
        return sum(self.weights)

    def validate(self, graph: WeightedGraph) -> None:
        """Assert cover validity against ``graph``; for tests."""
        covered: dict[int, int] = {}
        for clique, w in zip(self.cliques, self.weights):
            for i, u in enumerate(clique):
                covered[u] = covered.get(u, 0) + w
                for x in clique[i + 1:]:
                    if not graph.has_edge(u, x):
                        raise InternalError(f"clique member pair {u},{x} not adjacent")
        for v in graph.alive_vertices():
            if covered.get(v, 0) < graph.weight(v):
                raise InternalError(f"vertex {v} not covered by enough clique weight")
        if set(covered) != set(graph.alive_vertices()):
            raise InternalError("cover does not span the alive vertices")


def build_clique_cover(graph: WeightedGraph,
                       deadline: float | None = None) -> CliqueCover | None:
    """The greedy cover of ``graph``, or ``None`` once ``deadline`` (a
    ``time.monotonic()`` value) has passed."""
    order = sorted(
        graph.alive_vertices(),
        key=lambda v: (-graph.weight(v), -graph.degree(v), v),
    )
    clique_of: dict[int, int] = {}
    cliques: list[list[int]] = []
    sizes: list[int] = []
    weights: list[int] = []
    for i, v in enumerate(order):
        if deadline is not None and i % _DEADLINE_STRIDE == 0 \
                and time.monotonic() >= deadline:
            return None
        # Count how many members of each existing clique neighbor v; v can
        # join a clique only when it neighbors every member.
        hits: dict[int, int] = {}
        for u in graph.neighbors(v):
            c = clique_of.get(u)
            if c is not None:
                hits[c] = hits.get(c, 0) + 1
        best = -1
        for c, k in hits.items():
            if k == sizes[c] and (best < 0 or weights[c] > weights[best]
                                  or (weights[c] == weights[best] and c < best)):
                best = c
        if best >= 0:
            cliques[best].append(v)
            sizes[best] += 1
            clique_of[v] = best
        else:
            clique_of[v] = len(cliques)
            cliques.append([v])
            sizes.append(1)
            weights.append(graph.weight(v))
    return CliqueCover(cliques, weights)


def clique_cover_bound(graph: WeightedGraph,
                       deadline: float | None = None) -> int | None:
    """Upper bound on the maximum weight independent set of ``graph``, or
    ``None`` once ``deadline`` has passed."""
    cover = build_clique_cover(graph, deadline)
    return None if cover is None else cover.bound
