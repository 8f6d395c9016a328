"""Weight-preserving data reductions and the incremental reduction scheduler.

Every rule here shrinks the graph while keeping the maximum weight
independent set reconstructible: the engine accumulates a weight ``offset``
and a stack of :class:`FoldRecord` entries whose replay (:func:`lift_solution`)
turns any independent set of the reduced graph into one of the original graph
with weight increased by exactly the offset.  Applying the rules to a
fixpoint yields the kernel.  A rule that forces a set into the solution calls
``ReductionEngine.include``, and one that merges vertices into a fresh one
calls ``ReductionEngine.fold``; each edits the graph and pushes its own
record.  A fold replaces ``out`` and k groups by k fresh vertices; an
include deletes the forced set's neighbors, then folds it with k = 0.

Scheduling follows the incremental discipline: each local rule is one
engine method, ``_try_<rule>(v)``, and keeps a min-heap of vertices whose
closed neighborhood changed since the rule last looked at them.  A rule
drains its queue; whenever any rule changed the graph, scheduling restarts
from the first rule.  The dirty-vertex bookkeeping only skips vertices whose
check cannot have changed, so a scheduler that re-queues every alive vertex
before each drain must produce the same kernel; the test suite keeps one as
its reference and asserts that equivalence.  The rules a reduce drains are
always a prefix of ``LOCAL_RULES``, followed in the ``full`` variant by the
critical rule; a ``dense`` reduce below the root drains the first four, and
only the queues of the prefix are filled.  Given a deadline, a reduce raises
:class:`mwis.errors.DeadlinePassed` at its first clock read past it, every
edit made so far recorded.

A touched vertex ``v`` joins a rule's queue only when it passes that rule's
screen (``_screens``), an O(1) necessary condition on the degree, the weight
and the neighbor-weight sum ``s(v)`` that the graph keeps: ``w(v) >= s(v)``
for neighborhood removal, degree 2 for vertex folding, degree 3 for the
twin rule, and degree 1 to ``MAX_META_SIZE`` with ``s(v) > w(v)`` for
neighborhood folding.  The screens are exact: every change to the members,
weights or induced edges of ``N[v]`` touches ``v`` again, so a vertex kept
out could only have been popped to fail, and the rules fire in the same
order as without them.  The tests keep an unscreened engine as the
reference of the screens.

Three rules also read past ``N[v]``: domination and the meta rule the
neighborhoods (the meta rule also the weights) of ``v``'s neighbors, the
twin rule those of ``v``'s first neighbor and of the twins found there.  So
each touched vertex is also noted for them, and before such a rule's next
pop ``_FAR_CHECKS`` names the untouched vertices nearby whose check the
change may have made fire.  One named at or below the largest vertex the
running drain has popped waits for the rule's next drain, as a scan checks
each vertex once per drain.  Domination and the meta rule test each edge's
pairs in one pass over the graph's plain lists, and the meta rule's refutes
most pairs before building the local subproblem.

Rule order (cheap local rules first, the global flow-based rule last):

1.  neighborhood removal        (forces a vertex outweighing its neighbors)
2.  weighted domination         (drops a dominated-covering lighter vertex)
3.  weighted vertex folding     (degree-2 fold)
4.  weighted twin               (degree-3 twins, include or fold)
5.  neighborhood folding        (independent neighborhood fold, size-capped;
                                 dense variant: initial reduce only)
6.  neighbor removal            (local exact subsolve, size-capped; dense
                                 variant: initial reduce only)
7.  critical weighted set       (global min-cut rule; full variant only)

The paper's isolated vertex removal and weight transfer are engine methods
that rules 1 and 2 imply, so they are not drained.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .critical import critical_value_at_most, critical_weighted_set
from .errors import GraphError, check_deadline
from .graph import WeightedGraph
from .solution import verify_independent_set

LOCAL_RULES = (
    "neighborhood_removal",
    "weighted_domination",
    "weighted_vertex_folding",
    "weighted_twin",
    "neighborhood_folding",
    "neighbor_removal_meta",
)
CRITICAL_RULE = "critical_set"
VARIANTS = ("full", "dense")  # the reduction portfolios; see ReductionEngine.reduce
_DENSE_BRANCH_RULES = 4  # the prefix of LOCAL_RULES a dense reduce below the root drains
MAX_META_SIZE = 16  # size cap of the neighborhood fold and the local subsolve


def subgraph_mwis_weight(graph: WeightedGraph, vertices: Iterable[int]) -> int:
    """Exact MWIS weight of the subgraph induced by ``vertices``.

    A branch and bound over bitmasks held in Python ints, meant for the
    small local subproblems of the meta rule (recursion depth grows with the
    vertex count).  Each node takes every vertex with no neighbor left in
    the mask, then branches on the vertex of largest degree inside the mask,
    including it first, and prunes when the weight left in the mask cannot
    beat the best set found.  Weights are Python ints, so any size is exact.
    """
    xadj, nbrs, weight, _, _ = graph.alive_csr(vertices)
    adj = [sum(1 << j for j in nbrs[xadj[i]:xadj[i + 1]]) for i in range(len(weight))]
    best = 0

    def branch(mask: int, acc: int) -> None:
        nonlocal best
        rest = 0  # weight left in the mask once its free vertices are taken
        pick, pick_deg = -1, 0
        m = mask
        while m:
            low = m & -m
            m ^= low
            i = low.bit_length() - 1
            deg = (adj[i] & mask).bit_count()
            if deg == 0:
                mask ^= low
                acc += weight[i]
            else:
                rest += weight[i]
                if deg > pick_deg:
                    pick, pick_deg = i, deg
        if acc > best:
            best = acc
        if pick < 0 or acc + rest <= best:
            return
        bit = 1 << pick
        branch(mask & ~(adj[pick] | bit), acc + weight[pick])
        branch(mask & ~bit, acc)

    branch((1 << len(weight)) - 1, 0)
    return best


def _screens(deg: int, w: int, s: int) -> tuple[bool, ...]:
    """For each rule of ``LOCAL_RULES``, whether it can fire at a vertex of
    degree ``deg``, weight ``w`` and neighbor-weight sum ``s``: a necessary
    condition of the rule, decided in O(1) whatever the degree."""
    return (w >= s,                                  # neighborhood removal
            True,                                    # weighted domination
            deg == 2,                                # weighted vertex folding
            deg == 3,                                # weighted twin
            1 <= deg <= MAX_META_SIZE and s > w,     # neighborhood folding
            True)                                    # neighbor removal meta


def _covers(big: Sequence[int], small: Sequence[int], skip: int) -> bool:
    """True when ``set(small) - {skip}`` is contained in sorted ``big``."""
    i = 0
    nbig = len(big)
    for x in small:
        if x == skip:
            continue
        while i < nbig and big[i] < x:
            i += 1
        if i == nbig or big[i] != x:
            return False
        i += 1
    return True


def _meta_unrefuted(a: int, b: int, w: list[int], adj: list[list[int]]) -> bool:
    """False when the meta rule cannot remove ``b`` for ``a``: ``w(a) <
    w(b)``, or some vertex of ``N(a) - N[b]`` outweighs the slack ``w(a) -
    w(b)``, found without building that set."""
    slack = w[a] - w[b]
    if slack < 0:
        return False
    nb = adj[b]
    for x in adj[a]:
        if w[x] > slack and x != b:
            i = bisect_left(nb, x)
            if i == len(nb) or nb[i] != x:
                return False
    return True


# The checks of three rules read past ``N[v]``.  For each, keyed by its
# name: a function of the vertices ``touched`` since the rule last looked
# and of the graph's weights and neighbor lists, that names (maybe twice)
# every untouched vertex whose check of the rule a change at a touched
# ``u`` may have made fire.  A dead ``u`` has no neighbors, so names
# nothing.  Domination and the meta rule name only neighbors ``x < u``: for
# ``x > u`` the touched ``u`` is popped first, and its own check tests the
# pair, so by the time ``x`` is popped the pair cannot fire unless ``x`` or
# ``u`` was touched again.


def _dominated_pairs(touched: set[int], w: list[int], adj: list[list[int]]) -> list[int]:
    # When x was not touched, N[x], w(x) and w(u) stand, and N[u] only lost
    # vertices outside N[x] (a fold also gives u the fresh vertex, outside
    # N[x] too), so of the pair's two ways only x going, N[u] inside N[x],
    # can have become true.
    out = []
    for u in touched:
        nu = adj[u]
        wu, du = w[u], len(nu)
        for x in nu:
            if x > u:
                break
            nx = adj[x]
            if w[x] <= wu and len(nx) >= du and _covers(nx, nu, skip=x):
                out.append(x)
    return out


def _twin_askers(touched: set[int], w: list[int], adj: list[list[int]]) -> list[int]:
    # The twins of u, and the degree-3 vertices whose first neighbor is u
    # and that have a twin among its neighbors: the first of their twins
    # may have gone, leaving another one first.
    out = []
    for u in touched:
        nu = adj[u]
        if len(nu) == 3:
            out += [t for t in adj[nu[0]] if t != u and adj[t] == nu]
        for x in nu:
            ax = adj[x]
            if len(ax) == 3 and ax[0] == u:
                for t in nu:
                    if t != x and adj[t] == ax:
                        out.append(x)
                        break
    return out


def _meta_pairs(touched: set[int], w: list[int], adj: list[list[int]]) -> list[int]:
    # When x was not touched, the local set N(x) - N[u] of removing u for x
    # stands (what u lost or gained lies outside N(x)); only N(u) - N[x], of
    # removing x for u, changed.
    out = []
    for u in touched:
        wu = w[u]
        for x in adj[u]:
            if x > u:
                break
            if w[x] <= wu and _meta_unrefuted(u, x, w, adj):
                out.append(x)
    return out


_FAR_CHECKS = {"weighted_domination": _dominated_pairs, "weighted_twin": _twin_askers,
               "neighbor_removal_meta": _meta_pairs}


@dataclass(frozen=True)
class FoldRecord:
    """One reversible reduction step, replayed over a kernel solution ``I``
    by one rule: each fresh vertex ``introduced[i]`` in ``I`` is swapped for
    its group ``fold_in[i]``; if ``I`` holds none of them, ``out`` joins.
    Either way the solution weight rises by exactly ``offset``.

    A fold (``ReductionEngine.fold``) of k groups introduces k vertices; an
    include (``ReductionEngine.include``) is the case k = 0.
    """

    rule: str
    offset: int
    out: tuple[int, ...]
    introduced: tuple[int, ...] = ()
    fold_in: tuple[tuple[int, ...], ...] = ()


def lift_solution(kernel_vertices: Iterable[int],
                  stack: Sequence[FoldRecord]) -> set[int]:
    """Map an independent set of the kernel back to the original graph.

    ``stack`` is replayed last-record-first.
    """
    chosen = set(kernel_vertices)
    for rec in reversed(stack):
        taken = [group for vid, group in zip(rec.introduced, rec.fold_in) if vid in chosen]
        chosen.difference_update(rec.introduced)
        for group in taken or [rec.out]:
            chosen.update(group)
    return chosen


@dataclass
class KernelResult:
    """Outcome of reducing a graph to its kernel."""

    kernel: WeightedGraph
    offset: int
    stack: tuple[FoldRecord, ...]

    def lift(self, kernel_vertices: Iterable[int]) -> set[int]:
        """Lift a kernel independent set; validates it first."""
        verify_independent_set(self.kernel, kernel_vertices)
        return lift_solution(kernel_vertices, self.stack)


class ReductionEngine:
    """Owns a graph, its dirty-vertex queues, and the lifting stack.

    All graph edits made by the solver must go through the engine so the
    queues stay sound.  ``checkpoint``/``rollback`` mirror the graph's and
    additionally truncate the record stack; queues are simply cleared on
    rollback, which is correct because the engine only reduces immediately
    after edits (rolled-back edits leave nothing pending).  The engine also
    keeps the critical-set rule's last flow as the warm start of its next
    one, and the graph mark at which that rule is known not to fire; the
    LP prune test ``lp_prunes`` reads both, and its flow is the only one a
    ``dense`` engine runs.  Each local rule is one method, ``_try_<rule>``,
    which the scheduler looks up by the rule's name.  There is one
    scheduler; the tests' reference schedulers are subclasses whose
    ``_drain`` re-queues every alive vertex first, or whose ``touch`` queues
    a vertex for every rule it fills, screens aside.
    """

    def __init__(self, graph: WeightedGraph, variant: str = "full",
                 stats: Counter | None = None):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.g = graph
        self.variant = variant
        self.records: list[FoldRecord] = []
        self.offset = 0
        self.stats: Counter = Counter() if stats is None else stats
        # Per local rule: its heap of queued vertices, the set of them, and
        # for a rule of _FAR_CHECKS the touched vertices not yet looked
        # around (None for the others).
        self._queues = [([], set(), set() if rule in _FAR_CHECKS else None)
                        for rule in LOCAL_RULES]
        self._filled = self._queues  # the states ``_touched`` fills
        self._cwis_flow: list[tuple[int, int, int]] = []
        self._cwis_idle_mark = -1
        self.lp_flows = 0
        w, adj, s = graph.plain_lists()
        for v in graph.alive_vertices():
            for (heap, _, _), ok in zip(self._queues, _screens(len(adj[v]), w[v], s[v])):
                if ok:
                    heap.append(v)  # ascending, so each list is a heap
        for heap, members, _ in self._queues:
            members.update(heap)

    # ------------------------------------------------------------------
    # Dirty-vertex bookkeeping and tracked edits
    # ------------------------------------------------------------------

    def touch(self, v: int) -> None:
        """Queue the alive vertex ``v`` for every rule the current mode
        drains whose screen it passes."""
        w, adj, s = self.g.plain_lists()
        for (heap, members, _), ok in zip(self._filled, _screens(len(adj[v]), w[v], s[v])):
            if ok and v not in members:
                members.add(v)
                heapq.heappush(heap, v)

    def _touched(self, verts: Sequence[int]) -> None:
        """Queue ``verts``, whose closed neighborhoods an edit changed, and
        note them for the rules that read past a vertex's own."""
        for v in verts:
            self.touch(v)
        for _, _, far in self._filled:
            if far is not None:
                far.update(verts)

    def remove_vertex(self, v: int) -> None:
        nbrs = list(self.g.neighbors(v))
        self.g.remove_vertex(v)
        self._touched(nbrs)

    def include(self, chosen: Sequence[int], rule: str = "branch") -> None:
        """Force the independent set ``chosen`` into the solution: delete
        ``N(chosen)`` in ascending order, then fold ``chosen`` with no group."""
        for u in sorted({u for x in chosen for u in self.g.neighbors(x)}):
            self.remove_vertex(u)
        self.fold((), chosen, rule)

    def fold(self, groups: Sequence[Sequence[int]], out: Sequence[int], rule: str) -> None:
        """Replace ``out`` and the k ``groups`` by k fresh vertices and
        record it: a lift takes a group for its fresh vertex, ``out`` for
        none, so the offset is ``w(out)``.  A group's fresh vertex weighs
        ``w(group) - w(out)``, wired to the group's neighbors outside
        ``out`` and the groups and to the fresh vertices before it.  A fresh
        weight below 1 is refused (``GraphError``) before any edit."""
        g = self.g
        groups, out = tuple(map(tuple, groups)), tuple(out)
        w_out = sum(g.weight(x) for x in out)
        weights = [sum(g.weight(x) for x in group) - w_out for group in groups]
        if weights and min(weights) < 1:
            raise GraphError(f"a fold vertex would weigh {min(weights)}")
        gone = set(out).union(*groups)
        introduced: list[int] = []
        fringe: set[int] = set()
        for group, weight in zip(groups, weights):
            wires = {u for x in group for u in g.neighbors(x) if u not in gone}
            fringe |= wires
            introduced.append(g.add_vertex(weight, [*wires, *introduced]))
        for x in sorted(gone):
            g.remove_vertex(x)
        self._touched([*introduced, *sorted(fringe)])
        self.records.append(FoldRecord(rule, w_out, out, tuple(introduced), groups))
        self.offset += w_out

    def exclude_vertex(self, v: int) -> None:
        """Remove ``v`` knowing some optimal solution avoids it."""
        self.remove_vertex(v)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint(self) -> tuple[int, int, int]:
        return (self.g.checkpoint(), len(self.records), self.offset)

    def rollback(self, mark: tuple[int, int, int]) -> None:
        gmark, nrec, offset = mark
        self.g.rollback(gmark)
        del self.records[nrec:]
        self.offset = offset
        self._cwis_idle_mark = -1
        self._empty(self._queues)

    # ------------------------------------------------------------------
    # The scheduler
    # ------------------------------------------------------------------

    def reduce(self, initial: bool = False, deadline: float | None = None) -> None:
        """Apply the rules to a fixpoint.

        The rules drained are the first ``k`` of ``LOCAL_RULES``, then, in
        the ``full`` variant, the critical rule as index ``k``.  A ``dense``
        reduce outside the initial one drops the last two local rules
        (``_DENSE_BRANCH_RULES`` are kept).  Queues past ``k`` are emptied
        and stay unfilled until a reduce drains them again.  ``deadline`` is
        looked at before each drain, every 64 rule checks and in the
        critical flow; once it has passed,
        :class:`mwis.errors.DeadlinePassed` is raised."""
        dense = self.variant == "dense"
        k = _DENSE_BRANCH_RULES if dense and not initial else len(LOCAL_RULES)
        self._filled = self._queues[:k]
        self._empty(self._queues[k:])
        end = k if dense else k + 1
        i = 0
        while i < end:
            check_deadline(deadline)
            changed = self._drain(i, deadline) if i < k else self.cwis_reduction(deadline)
            i = 0 if changed else i + 1

    @staticmethod
    def _empty(states) -> None:
        for heap, members, far in states:
            heap.clear()
            members.clear()
            if far is not None:
                far.clear()

    def _drain(self, i: int, deadline: float | None) -> bool:
        rule = LOCAL_RULES[i]
        heap, members, far = self._queues[i]
        # Looked up on every drain, not cached: a wrapper installed on the
        # class (tracing counts rule calls this way) must take effect.
        apply_at = getattr(self, "_try_" + rule)
        later: list[int] = []  # for the next drain: popped here, asked again
        top = -1  # the largest vertex popped so far
        changed = False
        ticks = 0
        while True:
            if far:
                self._queue_far(i, top, later)
            if not heap:
                break
            v = heapq.heappop(heap)
            members.discard(v)
            if v > top:
                top = v
            if not self.g.is_alive(v):
                continue
            if apply_at(v):
                self.stats[rule] += 1
                changed = True
            ticks += 1
            if ticks % 64 == 0:
                check_deadline(deadline)
        for v in later:
            if v not in members:
                members.add(v)
                heapq.heappush(heap, v)
        return changed

    def _queue_far(self, i: int, top: int, later: list[int]) -> None:
        """Queue for rule ``i`` what its ``_FAR_CHECKS`` entry names, those
        up to ``top`` into ``later``."""
        heap, members, far = self._queues[i]
        w, adj, _ = self.g.plain_lists()
        for x in _FAR_CHECKS[LOCAL_RULES[i]](far, w, adj):
            if x not in members:
                if x > top:
                    members.add(x)
                    heapq.heappush(heap, x)
                else:
                    later.append(x)
        far.clear()

    # ------------------------------------------------------------------
    # Small structural helpers
    # ------------------------------------------------------------------

    def _is_clique(self, verts: Sequence[int]) -> bool:
        for u in verts:
            if not _covers(self.g.neighbors(u), verts, skip=u):
                return False
        return True

    def _is_independent(self, verts: Sequence[int]) -> bool:
        for i, u in enumerate(verts):
            for x in verts[i + 1:]:
                if self.g.has_edge(u, x):
                    return False
        return True

    # ------------------------------------------------------------------
    # The rules: ``_try_<rule>(v)`` applies the rule at most once at ``v``
    # and reports whether the graph changed.
    # ------------------------------------------------------------------

    def _try_neighborhood_removal(self, v: int) -> bool:
        """Force ``v`` in when it outweighs its whole neighborhood."""
        g = self.g
        if g.weight(v) >= g.neighbor_weight(v):
            self.include((v,), "neighborhood_removal")
            return True
        return False

    def _try_weighted_domination(self, v: int) -> bool:
        # Each edge (u, v), both ways: ``u`` goes when ``N[u]`` covers
        # ``N[v]`` and ``w(u) <= w(v)``.  When both ways apply, the higher
        # id goes, so of two equal-weight true twins the lower id stays.
        w, adj, _ = self.g.plain_lists()
        nv = adj[v]
        wv, dv = w[v], len(nv)
        for u in nv:
            nu = adj[u]
            wu, du = w[u], len(nu)
            u_goes = wu <= wv and du >= dv and _covers(nu, nv, skip=u)
            v_goes = wv <= wu and dv >= du and _covers(nv, nu, skip=v)
            if u_goes or v_goes:
                self.remove_vertex(u if u_goes and (u > v or not v_goes) else v)
                return True
        return False

    def _try_weighted_vertex_folding(self, v: int) -> bool:
        """Fold a degree-2 vertex with non-adjacent neighbors."""
        g = self.g
        if g.degree(v) != 2:
            return False
        u, x = g.neighbors(v)
        if g.has_edge(u, x):
            return False
        wv, wu, wx = g.weight(v), g.weight(u), g.weight(x)
        if not (wv < wu + wx and wv >= max(wu, wx)):
            return False
        self.fold(((u, x),), (v,), "weighted_vertex_folding")
        return True

    def _try_isolated_vertex_removal(self, v: int) -> bool:
        """Force in a simplicial vertex that is heaviest in its clique.

        Not in ``LOCAL_RULES``: a reduce would drain it only at the fixpoint
        of neighborhood removal and domination, where an isolated ``v`` is
        taken and a clique mate no heavier than ``v`` is a domination pair,
        so neither this rule nor the weight transfer (which needs such a
        mate) could fire.  Both stay, callable on their own, for the tests
        of their safety."""
        g = self.g
        nbrs = g.neighbors(v)
        wv = g.weight(v)
        if any(g.weight(u) > wv for u in nbrs):
            return False
        if not self._is_clique(nbrs):
            return False
        self.include((v,), "isolated_vertex_removal")
        return True

    def _try_isolated_weight_transfer(self, v: int) -> bool:
        """Remove a simplicial vertex, pushing its weight onto heavier mates.

        Clique mates no heavier than ``v`` are deleted outright; then ``v``
        is folded with each heavier mate as its own group (struction's
        clique case).  Applied only when it deletes at least one neighbor,
        and only when every simplicial clique mate is no heavier than
        ``v``.  Not drained, for the reason and with the use that
        ``_try_isolated_vertex_removal`` gives.
        """
        g = self.g
        nbrs = list(g.neighbors(v))
        wv = g.weight(v)
        removed = [u for u in nbrs if g.weight(u) <= wv]
        if not removed:
            return False
        if not self._is_clique(nbrs):
            return False
        for u in nbrs:
            if g.weight(u) > wv and self._is_clique(g.neighbors(u)):
                return False  # a heavier simplicial clique mate forbids the transfer
        for u in removed:
            self.remove_vertex(u)
        self.fold([(u,) for u in nbrs if g.weight(u) > wv], (v,), "isolated_weight_transfer")
        return True

    def _try_weighted_twin(self, v: int) -> bool:
        """Include or fold ``v`` and its twin over an independent degree-3
        neighborhood.  Only the first twin in ``v``'s first neighbor's list
        is tried."""
        g = self.g
        if g.degree(v) != 3:
            return False
        nbrs = g.neighbors(v)
        for twin in g.neighbors(nbrs[0]):
            if twin != v and g.degree(twin) == 3 and g.neighbors(twin) == nbrs:
                break
        else:
            return False
        if not self._is_independent(nbrs):
            return False
        pair = (min(twin, v), max(twin, v))
        w_twins = g.weight(twin) + g.weight(v)
        w_nbrs = sum(g.weight(x) for x in nbrs)
        if w_twins >= w_nbrs:
            self.include(pair, "weighted_twin")
            return True
        if w_twins > w_nbrs - min(g.weight(x) for x in nbrs):
            self.fold((nbrs,), pair, "weighted_twin")
            return True
        return False

    def _try_neighborhood_folding(self, v: int) -> bool:
        """Fold ``v`` with its independent neighborhood when only the full
        neighborhood can beat ``v``."""
        g = self.g
        nbrs = list(g.neighbors(v))
        if not nbrs or len(nbrs) > MAX_META_SIZE:
            return False
        wv = g.weight(v)
        w_nb = g.neighbor_weight(v)
        if not (w_nb > wv and w_nb - min(g.weight(u) for u in nbrs) < wv):
            return False
        if not self._is_independent(nbrs):
            return False
        self.fold((nbrs,), (v,), "neighborhood_folding")
        return True

    def _try_neighbor_removal_meta(self, v: int) -> bool:
        # Each edge (u, v) is tried both ways, ``v`` keeping first.  Only the
        # pairs ``_meta_unrefuted`` leaves go to ``neighbor_removal_meta``,
        # which edits the graph only when it returns True, so the loop over
        # ``adj[v]`` ends there.
        w, adj, _ = self.g.plain_lists()
        for u in adj[v]:
            for a, b in ((v, u), (u, v)):
                if (w[a] >= w[b] and _meta_unrefuted(a, b, w, adj)
                        and self.neighbor_removal_meta(a, b)):
                    return True
        return False

    def neighbor_removal_meta(self, v: int, u: int) -> bool:
        """Remove the neighbor ``u`` of ``v`` when the best set inside
        ``N(v) - N[u]`` plus ``u`` still cannot beat ``v``.

        Weight tests decide most pairs in O(k): a single local vertex heavier
        than the slack ``w(v) - w(u)`` refutes the rule, and a local
        neighborhood whose whole weight fits in the slack confirms it.  Only
        the pairs in between are solved exactly, so the local subproblem is
        capped at ``MAX_META_SIZE`` vertices."""
        g = self.g
        if not g.has_edge(u, v):
            return False
        slack = g.weight(v) - g.weight(u)
        if slack < 0:
            return False
        nu = set(g.neighbors(u))
        local = [x for x in g.neighbors(v) if x != u and x not in nu]
        if len(local) > MAX_META_SIZE:
            return False
        local_w = [g.weight(x) for x in local]
        if max(local_w, default=0) > slack:
            return False
        # Looked up at call time, so a wrapper on the module name sees only
        # the exact subsolves.
        if sum(local_w) > slack and subgraph_mwis_weight(g, local) > slack:
            return False
        self.remove_vertex(u)
        return True

    def cwis_reduction(self, deadline: float | None = None) -> bool:
        """Force in a critical weighted independent set found by min cut.

        The flow starts from the previous call's, and ``deadline`` works as
        in :meth:`reduce`.  It is not run on a graph left unedited since the
        rule last fired or found nothing, which holds no set of
        positive value (see :mod:`mwis.critical`); log marks identify the
        graph until a rollback."""
        g = self.g
        if g.n_alive == 0 or g.checkpoint() == self._cwis_idle_mark:
            return False
        chosen, value = critical_weighted_set(g, self._cwis_flow, deadline)
        if value == 0:
            self._cwis_idle_mark = g.checkpoint()
            return False
        self.stats[CRITICAL_RULE] += 1
        self.include(chosen, "cwis")
        self._cwis_idle_mark = g.checkpoint()
        return True

    def lp_prunes(self, slack: int, deadline: float | None = None) -> bool:
        """Whether the half-integral LP relaxation of the graph, rounded
        down, is at most ``slack``: the search's prune test.

        A maximum flow ``F`` on the bipartite double cover gives the LP value
        ``W - F / 2``, which is ``(W + value) / 2`` for the critical-set value
        ``value`` and the alive weight ``W`` (Nemhauser & Trotter), so the
        test is ``value <= 2 * slack + 1 - W``.  Since ``value >= 0``, the LP
        is at least ``W // 2``: when that exceeds ``slack`` the answer is no,
        and on a graph the critical rule is known not to fire on, ``value``
        is 0 and the answer is yes, both without a flow.  Otherwise the flow
        starts from the rule's last one and stops as soon as it proves the
        prune (see :func:`mwis.critical.critical_value_at_most`); the flow
        left behind is a valid warm start.  ``deadline`` works as in
        :meth:`reduce`, the flow reached kept.  ``lp_flows`` counts the flows
        run."""
        g = self.g
        if g.w_alive // 2 > slack:
            return False
        if g.checkpoint() == self._cwis_idle_mark:
            return True
        self.lp_flows += 1
        return critical_value_at_most(g, self._cwis_flow, deadline,
                                      2 * slack + 1 - g.w_alive)

def reduce_to_kernel(graph: WeightedGraph, variant: str = "full") -> KernelResult:
    """Reduce ``graph`` in place to its kernel.

    Returns the kernel view together with the accumulated weight offset and
    the lifting stack.
    """
    engine = ReductionEngine(graph, variant=variant)
    engine.reduce(initial=True)
    return KernelResult(kernel=graph, offset=engine.offset,
                        stack=tuple(engine.records))
