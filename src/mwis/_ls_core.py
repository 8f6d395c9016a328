"""Inner loops of the weighted iterated local search.

Everything here operates on flat CSR buffers so the numba backend can
compile it: ``int64``/``uint8`` arrays under numba, plain Python lists under
the numpy backend, where list indexing is several times cheaper than numpy
scalar indexing (see :mod:`mwis._accel` and
:class:`mwis.local_search.LsState`).  The code therefore takes lengths with
``len()``.  State travels in the ``state`` buffer indexed by the ``S_*``
constants, solution membership in 0/1 buffers, so a call is resumable:
running 100 rounds twice equals running 200 rounds once.

Descent is a worklist replay of a full sweep.  The sweep alternates an
insertion pass and a (1,2)-swap pass over every vertex in ``order`` until a
pair of passes changes nothing.  Each check reads only local state, so a
vertex whose check cannot have turned true since its last visit is skipped:

* the insertion check of a free ``v`` (``w[v] > loss[v]``) can only turn
  true when ``v`` or a neighbor leaves the solution, so ``_remove`` marks
  ``v`` and its neighbors;
* the swap check of ``x`` reads ``in_sol[x]`` and the neighbors ``u`` of
  ``x`` with ``tight[u] == 1``; it can only turn true when ``x`` enters the
  solution or that set grows, so ``_insert`` marks ``x`` and ``_remove``
  marks the remaining solution neighbor of every ``u`` whose ``tight``
  drops from 2 to 1.  Insertions only ever make other checks false.

A mark is the vertex's position in ``order``, queued per pass kind in
``queue`` (insertion marks in its first half, swap marks in its second),
with counts in ``state[S_QINS]`` / ``state[S_QSWAP]`` and a queued flag per
vertex and kind in ``queued``.  A pass drains its queue into a min-heap and
visits positions in increasing order, so its cursor only moves forward: a
mark raised ahead of the cursor joins the running pass, one raised at or
behind it waits for the next pass of its kind, which is where the sweep
would look next.  The moves, and so the whole trajectory, are the sweep's,
at a cost that follows the perturbed neighborhood instead of n.  Because
marks come from ``_insert``/``_remove``, perturbation, greedy maximization
and moves applied between calls are covered; a fresh state queues every
vertex for both passes.

Randomness comes from a 63-bit truncated LCG.  All arithmetic is masked to
63 bits, which wraps identically in compiled and interpreted mode.
"""

import heapq

from ._accel import maybe_njit

S_RNG = 0    # generator state
S_CUR = 1    # weight of the current solution
S_BEST = 2   # weight of the best solution seen
S_FAILS = 3  # rounds since the last improvement
S_INIT = 4   # 1 once the greedy start ran
S_SIZE = 5   # current solution size
S_QINS = 6   # queued insertion marks (S_QINS + k counts the marks of kind k)
S_QSWAP = 7  # queued swap marks
STATE_LEN = 8

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


def _mark(k, v, pos, queued, queue, state):
    """Queue ``v`` for the passes of kind ``k`` (0 insertion, 1 swap)."""
    i = k * len(pos)
    if queued[i + v] == 0:
        queued[i + v] = 1
        queue[i + state[S_QINS + k]] = pos[v]
        state[S_QINS + k] += 1


def _insert(v, xadj, adj, w, pos, in_sol, tight, loss, queued, queue, state):
    in_sol[v] = 1
    state[S_CUR] += w[v]
    state[S_SIZE] += 1
    _mark(1, v, pos, queued, queue, state)
    for i in range(xadj[v], xadj[v + 1]):
        u = adj[i]
        tight[u] += 1
        loss[u] += w[v]


def _remove(v, xadj, adj, w, pos, in_sol, tight, loss, queued, queue, state):
    in_sol[v] = 0
    wv = w[v]
    state[S_CUR] -= wv
    state[S_SIZE] -= 1
    _mark(0, v, pos, queued, queue, state)
    n = len(pos)
    # the hot loop of every move, so both marks are written out inline
    for i in range(xadj[v], xadj[v + 1]):
        u = adj[i]
        t = tight[u] - 1
        tight[u] = t
        loss[u] -= wv
        if queued[u] == 0:
            queued[u] = 1
            queue[state[S_QINS]] = pos[u]
            state[S_QINS] += 1
        if t == 1:
            for j in range(xadj[u], xadj[u + 1]):
                x = adj[j]
                if in_sol[x] == 1:
                    if queued[n + x] == 0:
                        queued[n + x] = 1
                        queue[n + state[S_QSWAP]] = pos[x]
                        state[S_QSWAP] += 1
                    break


def _force_insert(v, xadj, adj, w, pos, in_sol, tight, loss, queued, queue, state):
    """Insert ``v`` after evicting its solution neighbors."""
    for i in range(xadj[v], xadj[v + 1]):
        u = adj[i]
        if in_sol[u] == 1:
            _remove(u, xadj, adj, w, pos, in_sol, tight, loss, queued, queue, state)
    _insert(v, xadj, adj, w, pos, in_sol, tight, loss, queued, queue, state)


def _greedy_maximize(xadj, adj, w, order, pos, in_sol, tight, loss, queued,
                     queue, state):
    """Add free vertices in descending weight order until maximal."""
    for oi in range(len(order)):
        v = order[oi]
        if in_sol[v] == 0 and tight[v] == 0:
            _insert(v, xadj, adj, w, pos, in_sol, tight, loss, queued, queue, state)


def _omega_swap(v, xadj, adj, w, pos, in_sol, tight, loss, queued, queue, state):
    """Insert ``v`` when it outweighs its solution neighbors (strictly)."""
    if in_sol[v] == 1 or w[v] <= loss[v]:
        return False
    _force_insert(v, xadj, adj, w, pos, in_sol, tight, loss, queued, queue, state)
    return True


def _one_two_swap(v, xadj, adj, w, pos, in_sol, tight, loss, queued, queue,
                  cand, state):
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
    _remove(v, xadj, adj, w, pos, in_sol, tight, loss, queued, queue, state)
    _insert(best_a, xadj, adj, w, pos, in_sol, tight, loss, queued, queue, state)
    _insert(best_b, xadj, adj, w, pos, in_sol, tight, loss, queued, queue, state)
    return True


def _pass(k, xadj, adj, w, order, pos, in_sol, tight, loss, queued, queue,
          cand, state):
    """One sweep pass of kind ``k`` (0 insertion, 1 swap) over its marks."""
    base = k * len(order)
    heap = [queue[base + i] for i in range(state[S_QINS + k])]
    state[S_QINS + k] = 0
    heapq.heapify(heap)
    while len(heap) > 0:
        p = heapq.heappop(heap)
        v = order[p]
        queued[base + v] = 0
        start = state[S_QINS + k]
        moved = False
        if k == 0:
            if in_sol[v] == 0 and w[v] > loss[v]:
                _force_insert(v, xadj, adj, w, pos, in_sol, tight, loss, queued,
                              queue, state)
                moved = True
        elif in_sol[v] == 1:
            moved = _one_two_swap(v, xadj, adj, w, pos, in_sol, tight, loss,
                                  queued, queue, cand, state)
        if moved:
            keep = start
            for i in range(start, state[S_QINS + k]):
                q = queue[base + i]
                if q > p:
                    heapq.heappush(heap, q)
                else:
                    queue[base + keep] = q
                    keep += 1
            state[S_QINS + k] = keep


def _descend(xadj, adj, w, order, pos, in_sol, tight, loss, queued, queue,
             cand, state):
    """Run swaps to a local optimum; every applied move raises the weight."""
    while state[S_QINS] > 0 or state[S_QSWAP] > 0:
        _pass(0, xadj, adj, w, order, pos, in_sol, tight, loss, queued, queue,
              cand, state)
        _pass(1, xadj, adj, w, order, pos, in_sol, tight, loss, queued, queue,
              cand, state)


def _perturb(k, xadj, adj, w, pos, in_sol, tight, loss, queued, queue, state):
    n = len(w)
    for _ in range(k):
        if state[S_SIZE] >= n:
            return
        v = _rng_below(state, n)
        while in_sol[v] == 1:
            v = (v + 1) % n
        _force_insert(v, xadj, adj, w, pos, in_sol, tight, loss, queued, queue,
                      state)


def ils_rounds(xadj, adj, w, order, pos, in_sol, tight, loss, best_sol,
               queued, queue, cand, state, rounds):
    """Advance the search by ``rounds`` perturbation rounds.

    The first call also builds the greedy start and descends from it.
    """
    n = len(w)
    if state[S_INIT] == 0:
        state[S_INIT] = 1
        _descend(xadj, adj, w, order, pos, in_sol, tight, loss, queued, queue,
                 cand, state)
        state[S_BEST] = state[S_CUR]
        best_sol[:] = in_sol
    for _ in range(rounds):
        fails = state[S_FAILS]
        esc = fails if fails < 12 else 12
        k = 1 << esc
        cap = n // 4 + 1
        if k > cap:
            k = cap
        _perturb(k, xadj, adj, w, pos, in_sol, tight, loss, queued, queue, state)
        _descend(xadj, adj, w, order, pos, in_sol, tight, loss, queued, queue,
                 cand, state)
        if state[S_CUR] > state[S_BEST]:
            state[S_BEST] = state[S_CUR]
            best_sol[:] = in_sol
            state[S_FAILS] = 0
        else:
            state[S_FAILS] += 1


_rng_below = maybe_njit(_rng_below)
_has_edge = maybe_njit(_has_edge)
_mark = maybe_njit(_mark)
_insert = maybe_njit(_insert)
_remove = maybe_njit(_remove)
_force_insert = maybe_njit(_force_insert)
_greedy_maximize = maybe_njit(_greedy_maximize)
_omega_swap = maybe_njit(_omega_swap)
_one_two_swap = maybe_njit(_one_two_swap)
_pass = maybe_njit(_pass)
_descend = maybe_njit(_descend)
_perturb = maybe_njit(_perturb)
ils_rounds = maybe_njit(ils_rounds)
