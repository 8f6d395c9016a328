"""Weighted iterated local search.

Provides lower bounds for the branch-and-reduce solver and the standalone
``ls`` / ``hybrid`` modes.  The search alternates greedy descent built from
two moves and an escalating random perturbation:

* an insertion swap puts a vertex into the solution whenever it strictly
  outweighs its current solution neighbors (plain insertion when it has
  none), evicting them and re-maximizing greedily by weight;
* a one-for-two swap trades a solution vertex for its best pair of
  non-adjacent neighbors that conflict only with it, when the pair is
  strictly heavier.

Each descent replays a full sweep over all vertices, move for move, but
visits only the vertices whose check a change could have turned true: the
core queues a mark on a vertex when its local state changes and runs each
pass as a forward-moving cursor over the marked positions (see
:mod:`mwis._ls_core`).  A round therefore costs its perturbed neighborhood,
not O(n).  :class:`LsState` keeps the marks with the rest of the state, so
runs resume exactly; it hands the core Python lists under the numpy backend,
which the interpreter indexes faster than numpy arrays, and ``int64`` arrays
under numba.  So numpy is imported here only under numba; the numpy backend
keeps its name, which the benchmark stamps, though it runs without numpy.

Runs are deterministic given (graph, seed, round budget); a wall-clock
budget hands the core one round at a time and stops issuing rounds once the
deadline passes, so it overshoots by about one round.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import compress

from . import _ls_core as core
from ._accel import NUMBA_ENABLED
from .graph import WeightedGraph, check_total_weight
from .solution import Solution

_CHUNK_ROUNDS = 32


def _buffer(values: list[int], dtype: str):
    """A core buffer: a numpy array of ``dtype`` for numba to compile
    against, else the list itself, which interpreted code indexes several
    times faster.  Only the numba backend imports numpy."""
    if not NUMBA_ENABLED:
        return values
    import numpy as np
    return np.array(values, dtype=dtype)


class LsState:
    """Resumable local-search state over a snapshot of the alive graph.

    Vertex arguments and reported solutions use the graph's vertex ids; the
    snapshot is taken at construction, later graph edits are not seen.
    Raises :class:`GraphError` when the alive weights sum past
    ``MAX_TOTAL_WEIGHT``.
    """

    def __init__(self, graph: WeightedGraph, seed: int = 0):
        xadj, adj, w, self.verts, self._index = graph.alive_csr()
        check_total_weight(w)
        n = len(self.verts)
        order = sorted(range(n), key=w.__getitem__, reverse=True)  # stable, so ties keep index order
        pos = [0] * n
        for p, v in enumerate(order):
            pos[v] = p
        state = [0] * core.STATE_LEN
        state[core.S_RNG] = seed & ((1 << 63) - 1)
        state[core.S_QINS] = state[core.S_QSWAP] = n  # every vertex queued for both passes
        i64, u8 = "int64", "uint8"
        self.xadj, self.adj, self.w = _buffer(xadj, i64), _buffer(adj, i64), _buffer(w, i64)
        self.order, self.pos = _buffer(order, i64), _buffer(pos, i64)
        self.in_sol, self.best_sol = _buffer([0] * n, u8), _buffer([0] * n, u8)
        self.tight, self.loss = _buffer([0] * n, i64), _buffer([0] * n, i64)
        self.queued = _buffer([1] * (2 * n), u8)
        self.queue = _buffer(list(range(n)) * 2, i64)
        self.cand = _buffer([0] * max(n, 1), i64)
        self.state = _buffer(state, i64)

    # -- spec-level move operations (mainly for tests) -------------------

    def omega_one_swap(self, v: int) -> bool:
        """Insert ``v`` if strictly heavier than its solution neighbors."""
        applied = core._omega_swap(self._index[v], self.xadj, self.adj, self.w,
                                   self.pos, self.in_sol, self.tight, self.loss,
                                   self.queued, self.queue, self.state)
        if applied:
            self._maximize()
        return bool(applied)

    def weighted_one_two_swap(self, v: int) -> bool:
        """Trade ``v`` for its best strictly-heavier free neighbor pair."""
        applied = core._one_two_swap(self._index[v], self.xadj, self.adj, self.w,
                                     self.pos, self.in_sol, self.tight, self.loss,
                                     self.queued, self.queue, self.cand, self.state)
        if applied:
            self._maximize()
        return bool(applied)

    def _maximize(self) -> None:
        core._greedy_maximize(self.xadj, self.adj, self.w, self.order, self.pos,
                              self.in_sol, self.tight, self.loss, self.queued,
                              self.queue, self.state)

    def run_rounds(self, rounds: int) -> None:
        core.ils_rounds(self.xadj, self.adj, self.w, self.order, self.pos,
                        self.in_sol, self.tight, self.loss, self.best_sol,
                        self.queued, self.queue, self.cand, self.state, rounds)

    # -- views -----------------------------------------------------------

    @property
    def current_weight(self) -> int:
        return int(self.state[core.S_CUR])

    @property
    def best_weight(self) -> int:
        return int(self.state[core.S_BEST])

    def current_vertices(self) -> tuple[int, ...]:
        return tuple(compress(self.verts, self.in_sol))

    def best_vertices(self) -> tuple[int, ...]:
        return tuple(compress(self.verts, self.best_sol))


@dataclass
class LsResult:
    solution: Solution
    rounds: int
    convergence: list[tuple[float, int]] = field(default_factory=list)


def ils_run(graph: WeightedGraph, iterations: int | None = None,
            time_limit: float | None = None, seed: int = 0,
            stall: int | None = None) -> LsResult:
    """Run the iterated local search under a round and/or time budget.

    At least one budget must be given; a time budget runs from the call.
    Under a time budget the core runs one round per call and the clock is
    read after each, so the run stops within about one round of its limit;
    a round budget alone runs chunks of ``_CHUNK_ROUNDS`` rounds.  The
    trajectory does not depend on that chunking.  With ``stall`` set the run
    also stops at the first round that leaves the best weight unimproved
    for ``stall`` rounds in a row.  Emits an ``(elapsed_seconds, weight)``
    convergence entry whenever the best known weight improves, observed
    after each core call.  A NaN or infinite time limit is a ``ValueError``:
    neither deadline ever passes, so without another budget the run would
    not stop.
    """
    if iterations is None and time_limit is None:
        raise ValueError("ils_run needs an iteration or time budget")
    if time_limit is not None and not math.isfinite(time_limit):
        raise ValueError(f"ils_run needs a finite time limit, got {time_limit}")
    t0 = time.monotonic()
    deadline = None if time_limit is None else t0 + time_limit
    if graph.n_alive == 0:
        return LsResult(Solution((), 0), 0, [])
    st = LsState(graph, seed=seed)
    convergence: list[tuple[float, int]] = []
    logged = 0
    done = 0
    per_call = _CHUNK_ROUNDS if deadline is None else 1
    while True:
        if deadline is not None and time.monotonic() >= deadline:
            break
        if iterations is not None and done >= iterations:
            break
        chunk = per_call if iterations is None else min(per_call, iterations - done)
        if stall is not None:
            chunk = min(chunk, stall - int(st.state[core.S_FAILS]))
            if chunk <= 0:
                break
        st.run_rounds(chunk)
        done += chunk
        if st.best_weight > logged:
            logged = st.best_weight
            convergence.append((time.monotonic() - t0, logged))
    if st.state[core.S_INIT] == 0:  # deadline hit before the first call
        st.run_rounds(0)
        if st.best_weight > logged:
            convergence.append((time.monotonic() - t0, st.best_weight))
    sol = Solution(tuple(st.best_vertices()), st.best_weight, optimal=False)
    return LsResult(sol, done, convergence)
