"""Mutable vertex-weighted graph with an undo log.

The branch-and-reduce search repeatedly removes vertices, folds vertex groups
into fresh vertices and rewrites weights, then has to take everything back
when it backtracks.  ``WeightedGraph`` supports exactly those edits and keeps
a log of inverse actions so that ``rollback`` restores any earlier
``checkpoint`` byte-for-byte (see ``canonical_serialization``).

Conventions:

* vertices are dense integer ids; folded vertices get fresh ids appended past
  the original range, dead ids are never reused,
* weights are positive integers of any size; the local search and the
  oracle sum them in int64 and refuse graphs past ``MAX_TOTAL_WEIGHT``
  (2**63 - 1), and the solver skips its local-search bound there,
* neighbor lists are kept sorted and never contain dead vertices, so
  subset/merge tests over neighborhoods are linear scans.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Iterable, Iterator

from .errors import GraphError

# Edit-log event tags.
_REMOVE = 0  # (_REMOVE, v, saved_neighbor_tuple)
_NEW = 1     # (_NEW, v)
_WEIGHT = 2  # (_WEIGHT, v, old_weight)

MAX_TOTAL_WEIGHT = (1 << 63) - 1


def check_total_weight(weights: list[int]) -> None:
    """Raise :class:`GraphError` unless ``weights`` sum to at most
    ``MAX_TOTAL_WEIGHT``, so every int64 sum over them is exact."""
    total = sum(weights)
    if total > MAX_TOTAL_WEIGHT:
        raise GraphError(
            f"total vertex weight {total} exceeds 2**63 - 1, the int64 limit "
            "of the local search and the oracle")


class WeightedGraph:
    """Undirected graph with positive integer vertex weights and an edit log."""

    __slots__ = ("_w", "_adj", "_alive", "_n_alive", "_m_alive", "_log")

    def __init__(self, weights: Iterable[int], edges: Iterable[tuple[int, int]] = ()):
        self._w = [int(w) for w in weights]
        n = len(self._w)
        for v, w in enumerate(self._w):
            if w < 1:
                raise GraphError(f"vertex {v} has non-positive weight {w}")
        self._adj: list[list[int]] = [[] for _ in range(n)]
        self._alive = [True] * n
        self._n_alive = n
        self._m_alive = 0
        self._log: list[tuple] = []
        seen = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            insort(self._adj[u], v)
            insort(self._adj[v], u)
            self._m_alive += 1

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------

    @property
    def n_total(self) -> int:
        """Number of vertex slots ever allocated, dead ones included."""
        return len(self._w)

    @property
    def n_alive(self) -> int:
        return self._n_alive

    @property
    def m_alive(self) -> int:
        return self._m_alive

    def is_alive(self, v: int) -> bool:
        return 0 <= v < len(self._w) and self._alive[v]

    def weight(self, v: int) -> int:
        return self._w[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def neighbors(self, v: int) -> list[int]:
        """Sorted neighbor list of ``v``.  Treat as read-only."""
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        a = self._adj[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def alive_vertices(self) -> Iterator[int]:
        for v in range(len(self._w)):
            if self._alive[v]:
                yield v

    def _require_alive(self, v: int) -> None:
        if not (0 <= v < len(self._w)):
            raise GraphError(f"vertex {v} out of range")
        if not self._alive[v]:
            raise GraphError(f"vertex {v} is dead")

    # ------------------------------------------------------------------
    # Edits (all logged)
    # ------------------------------------------------------------------

    def remove_vertex(self, v: int) -> None:
        """Delete ``v`` and its incident edges; reversible via rollback."""
        self._require_alive(v)
        nbrs = self._adj[v]
        for u in nbrs:
            a = self._adj[u]
            del a[bisect_left(a, v)]
        self._log.append((_REMOVE, v, tuple(nbrs)))
        self._m_alive -= len(nbrs)
        self._adj[v] = []
        self._alive[v] = False
        self._n_alive -= 1

    def set_weight(self, v: int, w: int) -> None:
        self._require_alive(v)
        if w < 1:
            raise GraphError(f"weight of vertex {v} must stay positive, got {w}")
        self._log.append((_WEIGHT, v, self._w[v]))
        self._w[v] = int(w)

    def fold_into_new_vertex(
        self,
        consumed: Iterable[int],
        new_weight: int,
        new_neighbors: Iterable[int],
    ) -> int:
        """Replace the ``consumed`` vertices by one fresh vertex.

        The fresh vertex gets ``new_weight`` and is wired to ``new_neighbors``,
        which must be alive and disjoint from ``consumed``.  Returns its id.
        """
        consumed = sorted(set(consumed))
        new_neighbors = sorted(set(new_neighbors))
        if new_weight < 1:
            raise GraphError(f"folded vertex needs positive weight, got {new_weight}")
        for v in consumed:
            self._require_alive(v)
        cset = set(consumed)
        for u in new_neighbors:
            self._require_alive(u)
            if u in cset:
                raise GraphError(f"new neighbor {u} is among the consumed vertices")
        for v in consumed:
            self.remove_vertex(v)
        vid = len(self._w)
        self._w.append(int(new_weight))
        self._adj.append(list(new_neighbors))
        self._alive.append(True)
        self._n_alive += 1
        self._m_alive += len(new_neighbors)
        for u in new_neighbors:
            self._adj[u].append(vid)  # vid exceeds every existing id
        self._log.append((_NEW, vid))
        return vid

    # ------------------------------------------------------------------
    # Checkpoint / rollback
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Mark the current state; pass the mark to :meth:`rollback`."""
        return len(self._log)

    def rollback(self, mark: int) -> None:
        """Undo every edit made after ``mark`` (LIFO)."""
        if not (0 <= mark <= len(self._log)):
            raise GraphError(f"stale or invalid checkpoint mark {mark}")
        log = self._log
        while len(log) > mark:
            kind, v, *payload = log.pop()
            if kind == _REMOVE:
                nbrs = payload[0]
                self._adj[v] = list(nbrs)
                self._alive[v] = True
                self._n_alive += 1
                self._m_alive += len(nbrs)
                for u in nbrs:
                    insort(self._adj[u], v)
            elif kind == _NEW:
                nbrs = self._adj[v]
                for u in nbrs:
                    a = self._adj[u]
                    del a[bisect_left(a, v)]
                self._m_alive -= len(nbrs)
                self._n_alive -= 1
                self._w.pop()
                self._adj.pop()
                self._alive.pop()
            else:  # _WEIGHT
                self._w[v] = payload[0]

    # ------------------------------------------------------------------
    # Queries used by the solver
    # ------------------------------------------------------------------

    def connected_components(self) -> list[list[int]]:
        """Partition of the alive vertices into maximal connected sets.

        Components are listed by their smallest member, members ascending.
        """
        seen = set()
        comps = []
        for s in self.alive_vertices():
            if s in seen:
                continue
            seen.add(s)
            comp = [s]
            queue = deque((s,))
            while queue:
                u = queue.popleft()
                for x in self._adj[u]:
                    if x not in seen:
                        seen.add(x)
                        comp.append(x)
                        queue.append(x)
            comp.sort()
            comps.append(comp)
        return comps

    def alive_csr(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """Snapshot of the alive graph in compressed sparse rows.

        Returns ``(xadj, adj, weights, verts)``: ``verts`` lists the alive ids
        ascending and local index ``i`` stands for ``verts[i]``; the neighbors
        of ``i`` are ``adj[xadj[i]:xadj[i + 1]]``, ascending, and its weight is
        ``weights[i]``.  Later edits are not seen.
        """
        verts = [v for v in range(len(self._w)) if self._alive[v]]
        index = {v: i for i, v in enumerate(verts)}
        xadj = [0]
        adj: list[int] = []
        for v in verts:
            adj.extend(map(index.__getitem__, self._adj[v]))
            xadj.append(len(adj))
        return xadj, adj, [self._w[v] for v in verts], verts

    def induced_subgraph(self, vertices: Iterable[int]) -> tuple["WeightedGraph", list[int]]:
        """Copy of the subgraph induced by ``vertices``.

        Returns the new graph plus the list mapping its local ids back to
        ids of ``self``.
        """
        verts = sorted(set(vertices))
        for v in verts:
            self._require_alive(v)
        index = {v: i for i, v in enumerate(verts)}
        sub = WeightedGraph([self._w[v] for v in verts])
        m = 0
        for v in verts:
            av = [index[u] for u in self._adj[v] if u in index]
            sub._adj[index[v]] = av
            m += len(av)
        sub._m_alive = m // 2
        return sub, verts

    def compact_copy(self) -> tuple["WeightedGraph", list[int]]:
        """Alive part of the graph with dense ids, plus the id mapping."""
        return self.induced_subgraph(self.alive_vertices())

    def canonical_serialization(self) -> str:
        """One line per alive vertex: ``id weight sorted-neighbor-ids``."""
        lines = []
        for v in self.alive_vertices():
            parts = [str(v), str(self._w[v])] + [str(u) for u in self._adj[v]]
            lines.append(" ".join(parts))
        return "\n".join(lines)

    def check_invariants(self) -> None:
        """Assert structural invariants; meant for tests and debugging."""
        n = len(self._w)
        m2 = 0
        for v in range(n):
            if not self._alive[v]:
                if self._adj[v]:
                    raise _invariant_error(v, "dead vertex keeps a neighbor list")
                continue
            if self._w[v] < 1:
                raise _invariant_error(v, "non-positive weight")
            a = self._adj[v]
            m2 += len(a)
            for i, u in enumerate(a):
                if u == v:
                    raise _invariant_error(v, "self-loop")
                if i and a[i - 1] >= u:
                    raise _invariant_error(v, "neighbor list not strictly sorted")
                if not (0 <= u < n) or not self._alive[u]:
                    raise _invariant_error(v, f"dead or invalid neighbor {u}")
                if not self.has_edge(u, v):
                    raise _invariant_error(v, f"asymmetric edge to {u}")
        if m2 != 2 * self._m_alive:
            raise _invariant_error(-1, "edge counter out of sync")
        if sum(self._alive) != self._n_alive:
            raise _invariant_error(-1, "alive counter out of sync")


def _invariant_error(v: int, msg: str):
    from .errors import InternalError

    return InternalError(f"graph invariant violated at vertex {v}: {msg}")
