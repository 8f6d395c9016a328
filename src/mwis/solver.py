"""Exact branch-and-reduce solver for maximum weight independent sets.

Each search node reduces the graph to a fixpoint through the incremental
reduction engine, computes a one-off local-search lower bound per
subproblem (stopped once ``_LS_STALL`` rounds in a row fail to improve it,
``_LS_ITERATIONS`` rounds at most, none below ``_LS_MIN_SIZE`` vertices or
past ``MAX_TOTAL_WEIGHT`` in total, wall-capped at ``_LS_FRACTION`` of a
time limit), prunes against the smaller of two upper bounds, a weighted
clique cover and the half-integral LP relaxation that the critical-set flow
gives, splits connected components into independent subproblems, and
otherwise branches on the vertex of maximum degree (including it first).
Backtracking rolls the shared graph back via the edit log instead of
copying.

The prune only asks whether the LP is at most the slack ``best - offset``,
the yes/no test of :meth:`ReductionEngine.lp_prunes`; the LP is never below
half the alive weight ``W``, so the test runs no flow when ``W // 2``
exceeds the slack.  It is tried before the cover.
In ``full`` the LP is free at the reduction fixpoint, where the
critical-set rule has just found nothing: it is ``W // 2``.  ``dense``
never runs that rule, so its LP test runs a warm-started flow of its own,
stopped as soon as the flow proves the prune.

Each search node is one generator that yields its children in turn, and
the recursion is run on an explicit stack of node generators so deep
exclusion chains cannot overflow the interpreter stack.  Under a time limit
the solver is anytime: the first clock read past the deadline raises
:class:`mwis.errors.DeadlinePassed`, and :func:`solve` alone catches it and
returns its best lifted solution, greedily completed, flagged non-optimal.
Every returned solution is certificate-checked against the input graph.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import count

from .bounds import clique_cover_bound
from .errors import DeadlinePassed, InternalError, check_deadline
from .graph import MAX_TOTAL_WEIGHT, WeightedGraph
from .local_search import ils_run
from .reductions import ReductionEngine, lift_solution
from .solution import Solution, verify_independent_set, verify_solution

_LS_ITERATIONS = 600  # ILS round budget per subproblem (capped at 10n + 50)
_LS_STALL = 32        # ILS stops after this many rounds without improvement
_LS_FRACTION = 0.05   # share of the time limit one ILS run may take, at most 10 s
_LS_MIN_SIZE = 12     # subproblems smaller than this get no ILS bound


@dataclass
class SolverConfig:
    """Settings of the branch-and-reduce search.

    ``variant`` selects the reduction portfolio: ``full`` runs everything
    including the global critical-set rule; ``dense`` drops the critical-set
    rule entirely and, outside the initial kernelization, restricts the
    clique rules to triangles and disables the folding/subsolve meta rules.

    The local-search lower bound runs once per subproblem of at least
    ``_LS_MIN_SIZE`` vertices whose total weight fits in int64
    (``MAX_TOTAL_WEIGHT``), seeded from ``seed``.  It stops at the first
    round that leaves its best weight unimproved ``_LS_STALL`` rounds in a
    row, and after ``_LS_ITERATIONS`` rounds at the latest, so it is
    deterministic; when ``time_limit`` is set it is additionally wall-capped
    at ``_LS_FRACTION`` of the limit, at most 10 seconds.
    """

    variant: str = "full"
    time_limit: float | None = None
    seed: int = 0


@dataclass
class SearchStats:
    nodes: int = 0
    prunes: int = 0
    ils_runs: int = 0
    ils_rounds: int = 0  # summed over the ILS runs
    lp_flows: int = 0  # flows run by the LP prune test
    max_depth: int = 0
    rule_applications: Counter = field(default_factory=Counter)


@dataclass
class SolveResult:
    solution: Solution
    stats: SearchStats
    convergence: list[tuple[float, int]]
    kernel_n: int
    kernel_m: int
    elapsed: float


def select_branch_vertex(graph: WeightedGraph) -> int:
    """Maximum degree; ties: larger weight, then lower id."""
    return min(
        graph.alive_vertices(),
        key=lambda v: (-graph.degree(v), -graph.weight(v), v),
    )


def greedy_complete(graph: WeightedGraph, partial=()) -> Solution:
    """Extend an independent set to a maximal one, heaviest vertices first."""
    verify_independent_set(graph, partial)
    chosen = set(partial)
    blocked = set()
    for v in chosen:
        blocked.update(graph.neighbors(v))
    order = sorted(graph.alive_vertices(), key=lambda v: (-graph.weight(v), v))
    for v in order:
        if v in chosen or v in blocked:
            continue
        chosen.add(v)
        blocked.update(graph.neighbors(v))
    return Solution.of(graph, chosen)


class _Ctx:
    """Incumbent state of one (sub)problem: a graph plus its engine."""

    __slots__ = ("engine", "best_w", "best_set", "index")

    def __init__(self, engine: ReductionEngine, index: int):
        self.engine = engine
        self.best_w = 0
        self.best_set: set[int] | None = None
        self.index = index  # creation order; seeds the context's ILS run


class _Machine:
    def __init__(self, engine: ReductionEngine, config: SolverConfig,
                 stats: SearchStats, t0: float):
        self.config = config
        self.stats = stats
        self.t0 = t0
        self.deadline = None if config.time_limit is None else t0 + config.time_limit
        self.convergence: list[tuple[float, int]] = []
        self._indices = count()
        self.root = _Ctx(engine, next(self._indices))

    def _offer(self, ctx: _Ctx, weight: int, kernel_set) -> None:
        """Keep ``kernel_set`` of ``ctx``'s reduced graph, lifted, if it is better."""
        if weight > ctx.best_w or ctx.best_set is None:
            ctx.best_w = weight
            ctx.best_set = lift_solution(kernel_set, ctx.engine.records)
            if ctx is self.root:
                self._log_improvement(weight)

    def _log_improvement(self, weight: int) -> None:
        if not self.convergence or weight > self.convergence[-1][1]:
            self.convergence.append((time.monotonic() - self.t0, weight))

    def run(self) -> None:
        stack = [self._node(self.root, True)]
        while stack:
            if len(stack) > self.stats.max_depth:
                self.stats.max_depth = len(stack)
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(self._node(*child))

    def _node(self, ctx: _Ctx, first: bool):
        """Search one node of ``ctx``'s graph and leave the graph as found.

        ``first`` marks the context's first node, which runs the ILS bound.
        The node reduces, then records a leaf, prunes, splits into
        components or branches on one vertex.  It yields ``(child ctx,
        first)`` for each child to search, and ``run`` resumes it once that
        child's search is done.
        """
        eng = ctx.engine
        self.stats.nodes += 1
        ckpt = eng.checkpoint()
        initial = first and ctx is self.root
        try:
            eng.reduce(initial=initial, deadline=self.deadline)
        finally:  # a reduce cut short reports the root graph as far as it got
            if initial:
                self.kernel_n = eng.g.n_alive
                self.kernel_m = eng.g.m_alive
        check_deadline(self.deadline)
        if first:
            self._ils_bound(ctx)
        g = eng.g
        if g.n_alive == 0:
            self._offer(ctx, eng.offset, ())
        elif self._bounded(eng, ctx.best_w - eng.offset):
            self.stats.prunes += 1
        else:
            check_deadline(self.deadline)
            comps = g.connected_components()
            if len(comps) > 1:
                children = []
                for comp in comps:
                    sub, mapping = g.induced_subgraph(comp)
                    child_engine = ReductionEngine(
                        sub, variant=self.config.variant,
                        stats=self.stats.rule_applications)
                    children.append((_Ctx(child_engine, next(self._indices)), mapping))
                for child, _ in children:
                    yield child, True
                total = eng.offset
                union: set[int] = set()
                for child, mapping in children:
                    total += child.best_w
                    union.update(mapping[i] for i in child.best_set or ())
                self._offer(ctx, total, union)
            else:
                v = select_branch_vertex(g)
                branch = eng.checkpoint()
                eng.include_vertex(v)
                yield ctx, False
                eng.rollback(branch)
                eng.exclude_vertex(v)
                yield ctx, False
        eng.rollback(ckpt)

    def _bounded(self, eng: ReductionEngine, slack: int) -> bool:
        """True when ``min(LP, clique cover)`` of the engine's graph is at
        most ``slack``.  The LP test goes first: it runs no flow when half
        the alive weight already exceeds ``slack`` or at the ``full``
        reduction fixpoint, and stops its flow once the prune is proved."""
        flows = eng.lp_flows
        try:
            if eng.lp_prunes(slack, self.deadline):
                return True
        finally:  # a flow cut short by the deadline still counts
            self.stats.lp_flows += eng.lp_flows - flows
        return clique_cover_bound(eng.g, self.deadline) <= slack

    def _ils_bound(self, ctx: _Ctx) -> None:
        g = ctx.engine.g
        n = g.n_alive
        if n < _LS_MIN_SIZE:
            return
        if g.w_alive > MAX_TOTAL_WEIGHT:
            return  # the local search sums in int64; the search stays exact without it
        self.stats.ils_runs += 1
        rounds = min(_LS_ITERATIONS, 10 * n + 50)
        cap = None
        if self.deadline is not None:
            cap = min(_LS_FRACTION * self.config.time_limit, 10.0,
                      max(self.deadline - time.monotonic(), 0.0))
        seed = (self.config.seed * 0x9E3779B9 + ctx.index) & ((1 << 62) - 1)
        res = ils_run(g, iterations=rounds, time_limit=cap, seed=seed, stall=_LS_STALL)
        self.stats.ils_rounds += res.rounds
        self._offer(ctx, ctx.engine.offset + res.solution.weight, res.solution.vertices)


def solve(graph: WeightedGraph, config: SolverConfig | None = None) -> SolveResult:
    """Solve MWIS on ``graph`` exactly, or anytime under a time limit.

    The input graph is not modified.  The result's solution is flagged
    ``optimal`` only when the search finished within the budget; either way
    it is a verified independent set of the input.  A NaN time limit is a
    ``ValueError``.
    """
    config = config or SolverConfig()
    if config.time_limit is not None and math.isnan(config.time_limit):
        raise ValueError("solve needs a time limit that is a number, got nan")
    t0 = time.monotonic()
    stats = SearchStats()
    working, root_map = graph.compact_copy()
    engine = ReductionEngine(working, variant=config.variant,
                             stats=stats.rule_applications)
    machine = _Machine(engine, config, stats, t0)
    try:
        machine.run()
        optimal = True
    except DeadlinePassed:
        optimal = False
    chosen = {root_map[v] for v in machine.root.best_set or ()}
    if optimal:
        solution = Solution.of(graph, chosen, optimal=True)
        if solution.weight != machine.root.best_w:
            raise InternalError(
                f"solver weight accounting is off: {solution.weight} "
                f"!= {machine.root.best_w}")
    else:
        solution = greedy_complete(graph, chosen)
        machine._log_improvement(solution.weight)
    verify_solution(graph, solution)
    return SolveResult(
        solution=solution,
        stats=stats,
        convergence=machine.convergence,
        kernel_n=machine.kernel_n,
        kernel_m=machine.kernel_m,
        elapsed=time.monotonic() - t0,
    )
