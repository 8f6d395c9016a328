"""Test-only reference: the local-search core as a full sweep.

This is the sweep that :mod:`mwis._ls_core` replays with its worklist
descent, kept verbatim (numpy arrays, run interpreted) so that differential
tests can require identical solutions and state after every call.  It also
holds the two moves as callable operations, each followed by greedy
re-maximization, which the moves' spec tests apply one at a time; the
package runs them only inside its descent.  Nothing in the package uses
this module.
"""

import numpy as np

from mwis.graph import WeightedGraph, check_total_weight

S_RNG = 0    # generator state
S_CUR = 1    # weight of the current solution
S_BEST = 2   # weight of the best solution seen
S_FAILS = 3  # rounds since the last improvement
S_INIT = 4   # 1 once the greedy start ran
S_SIZE = 5   # current solution size
STATE_LEN = 6

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_MASK63 = (1 << 63) - 1


def _rng_below(state, k):
    # int() keeps the interpreted path in exact Python integers; under numba
    # the product wraps mod 2**64, which the 63-bit mask makes equivalent.
    s = (_LCG_A * int(state[S_RNG]) + _LCG_C) & _MASK63
    state[S_RNG] = s
    return (s >> 31) % k


def _has_edge(xadj, adj, u, v):
    lo = xadj[u]
    hi = xadj[u + 1]
    while lo < hi:
        mid = (lo + hi) // 2
        if adj[mid] < v:
            lo = mid + 1
        else:
            hi = mid
    return lo < xadj[u + 1] and adj[lo] == v


def _insert(v, xadj, adj, w, in_sol, tight, loss, state):
    in_sol[v] = 1
    state[S_CUR] += w[v]
    state[S_SIZE] += 1
    for i in range(xadj[v], xadj[v + 1]):
        u = adj[i]
        tight[u] += 1
        loss[u] += w[v]


def _remove(v, xadj, adj, w, in_sol, tight, loss, state):
    in_sol[v] = 0
    state[S_CUR] -= w[v]
    state[S_SIZE] -= 1
    for i in range(xadj[v], xadj[v + 1]):
        u = adj[i]
        tight[u] -= 1
        loss[u] -= w[v]


def _force_insert(v, xadj, adj, w, in_sol, tight, loss, state):
    """Insert ``v`` after evicting its solution neighbors."""
    for i in range(xadj[v], xadj[v + 1]):
        u = adj[i]
        if in_sol[u] == 1:
            _remove(u, xadj, adj, w, in_sol, tight, loss, state)
    _insert(v, xadj, adj, w, in_sol, tight, loss, state)


def _greedy_maximize(xadj, adj, w, order, in_sol, tight, loss, state):
    """Add free vertices in descending weight order until maximal."""
    n = order.shape[0]
    for oi in range(n):
        v = order[oi]
        if in_sol[v] == 0 and tight[v] == 0:
            _insert(v, xadj, adj, w, in_sol, tight, loss, state)


def _omega_swap(v, xadj, adj, w, in_sol, tight, loss, state):
    """Insert ``v`` when it outweighs its solution neighbors (strictly)."""
    if in_sol[v] == 1 or w[v] <= loss[v]:
        return False
    _force_insert(v, xadj, adj, w, in_sol, tight, loss, state)
    return True


def _one_two_swap(v, xadj, adj, w, in_sol, tight, loss, cand, state):
    """Trade ``v`` for its best pair of independent, otherwise-free neighbors."""
    if in_sol[v] == 0:
        return False
    t = 0
    for i in range(xadj[v], xadj[v + 1]):
        u = adj[i]
        if tight[u] == 1:  # v is its only solution neighbor
            cand[t] = u
            t += 1
    best_gain = w[v]
    best_a = -1
    best_b = -1
    for i in range(t):
        a = cand[i]
        for j in range(i + 1, t):
            b = cand[j]
            if w[a] + w[b] > best_gain and not _has_edge(xadj, adj, a, b):
                best_gain = w[a] + w[b]
                best_a = a
                best_b = b
    if best_a < 0:
        return False
    _remove(v, xadj, adj, w, in_sol, tight, loss, state)
    _insert(best_a, xadj, adj, w, in_sol, tight, loss, state)
    _insert(best_b, xadj, adj, w, in_sol, tight, loss, state)
    return True


def _descend(xadj, adj, w, order, in_sol, tight, loss, cand, state):
    """Run swaps to a local optimum; every applied move raises the weight."""
    n = order.shape[0]
    improved = True
    while improved:
        improved = False
        for oi in range(n):
            v = order[oi]
            if in_sol[v] == 0 and w[v] > loss[v]:
                _force_insert(v, xadj, adj, w, in_sol, tight, loss, state)
                improved = True
        for oi in range(n):
            v = order[oi]
            if in_sol[v] == 1:
                if _one_two_swap(v, xadj, adj, w, in_sol, tight, loss, cand, state):
                    improved = True


def _perturb(k, xadj, adj, w, in_sol, tight, loss, state):
    n = w.shape[0]
    for _ in range(k):
        if state[S_SIZE] >= n:
            return
        v = _rng_below(state, n)
        while in_sol[v] == 1:
            v = (v + 1) % n
        _force_insert(v, xadj, adj, w, in_sol, tight, loss, state)


def ils_rounds(xadj, adj, w, order, in_sol, tight, loss, best_sol, cand,
               state, rounds):
    """Advance the search by ``rounds`` perturbation rounds.

    The first call also builds the greedy start and descends from it.
    """
    n = w.shape[0]
    if state[S_INIT] == 0:
        state[S_INIT] = 1
        _descend(xadj, adj, w, order, in_sol, tight, loss, cand, state)
        state[S_BEST] = state[S_CUR]
        best_sol[:] = in_sol
    for _ in range(rounds):
        fails = state[S_FAILS]
        esc = fails if fails < 12 else 12
        k = 1 << esc
        cap = n // 4 + 1
        if k > cap:
            k = cap
        _perturb(k, xadj, adj, w, in_sol, tight, loss, state)
        _descend(xadj, adj, w, order, in_sol, tight, loss, cand, state)
        if state[S_CUR] > state[S_BEST]:
            state[S_BEST] = state[S_CUR]
            best_sol[:] = in_sol
            state[S_FAILS] = 0
        else:
            state[S_FAILS] += 1


def _csr_of(graph: WeightedGraph):
    verts = sorted(graph.alive_vertices())
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    xadj = np.zeros(n + 1, dtype=np.int64)
    for v in verts:
        xadj[index[v] + 1] = graph.degree(v)
    np.cumsum(xadj, out=xadj)
    adj = np.empty(int(xadj[-1]), dtype=np.int64)
    for v in verts:
        i = index[v]
        adj[xadj[i]:xadj[i + 1]] = [index[u] for u in graph.neighbors(v)]
    weights = [graph.weight(v) for v in verts]
    check_total_weight(weights)
    return xadj, adj, np.array(weights, dtype=np.int64), verts


class SweepLs:
    """The resumable search state of :class:`mwis.LsState`, on the sweep."""

    def __init__(self, graph: WeightedGraph, seed: int = 0):
        self.xadj, self.adj, self.w, self.verts = _csr_of(graph)
        n = len(self.verts)
        self._index = {v: i for i, v in enumerate(self.verts)}
        self.order = np.array(
            sorted(range(n), key=lambda i: (-int(self.w[i]), i)), dtype=np.int64
        )
        self.in_sol = np.zeros(n, dtype=np.uint8)
        self.tight = np.zeros(n, dtype=np.int64)
        self.loss = np.zeros(n, dtype=np.int64)
        self.best_sol = np.zeros(n, dtype=np.uint8)
        self.cand = np.empty(max(n, 1), dtype=np.int64)
        self.state = np.zeros(STATE_LEN, dtype=np.int64)
        self.state[S_RNG] = seed & ((1 << 63) - 1)

    def omega_one_swap(self, v: int) -> bool:
        applied = _omega_swap(self._index[v], self.xadj, self.adj, self.w,
                              self.in_sol, self.tight, self.loss, self.state)
        if applied:
            self._maximize()
        return bool(applied)

    def weighted_one_two_swap(self, v: int) -> bool:
        applied = _one_two_swap(self._index[v], self.xadj, self.adj, self.w,
                                self.in_sol, self.tight, self.loss,
                                self.cand, self.state)
        if applied:
            self._maximize()
        return bool(applied)

    def _maximize(self) -> None:
        _greedy_maximize(self.xadj, self.adj, self.w, self.order,
                         self.in_sol, self.tight, self.loss, self.state)

    @property
    def current_weight(self) -> int:
        return int(self.state[S_CUR])

    def current_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, f in zip(self.verts, self.in_sol) if f)

    def run_rounds(self, rounds: int) -> None:
        ils_rounds(self.xadj, self.adj, self.w, self.order, self.in_sol,
                   self.tight, self.loss, self.best_sol, self.cand,
                   self.state, rounds)
