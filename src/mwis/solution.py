"""Independent-set solutions and their certificates."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificateError
from .graph import WeightedGraph


@dataclass(frozen=True)
class Solution:
    """A claimed independent set: vertex ids, total weight, optimality flag."""

    vertices: tuple[int, ...]
    weight: int
    optimal: bool = False

    @staticmethod
    def of(graph: WeightedGraph, vertices, optimal: bool = False) -> "Solution":
        verts = tuple(sorted(set(vertices)))
        return Solution(verts, sum(graph.weight(v) for v in verts), optimal)


def verify_independent_set(graph: WeightedGraph, vertices, base: int = 0) -> int:
    """Check that ``vertices`` is an independent set of alive vertices.

    Returns its weight; raises :class:`CertificateError` with the offending
    vertex or edge otherwise, its ids shifted by ``base`` (1 for the ids of
    graph and solution files).
    """
    verts = sorted(set(vertices))
    chosen = set()
    total = 0
    for v in verts:
        if not graph.is_alive(v):
            raise CertificateError(f"vertex {v + base} is not an alive vertex of the graph")
        chosen.add(v)
        total += graph.weight(v)
    for v in verts:
        for u in graph.neighbors(v):
            if u in chosen:
                raise CertificateError(
                    f"solution contains the edge {min(u, v) + base}-{max(u, v) + base}")
    return total


def verify_solution(graph: WeightedGraph, solution: Solution, base: int = 0) -> None:
    """Full certificate: independence plus the claimed weight."""
    total = verify_independent_set(graph, solution.vertices, base)
    if total != solution.weight:
        raise CertificateError(
            f"claimed weight {solution.weight} but the vertices weigh {total}"
        )
