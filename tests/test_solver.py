"""Branch-and-reduce solver: exactness, anytime behavior, determinism."""

import math
import time

import pytest

import mwis.solver
from helpers import (clique_graph, cubic_graph, deadline_clock, exact_lp, gnm_graph,
                     path_graph, random_graph, star_graph, structured_family)
from mwis import (CertificateError, ReductionEngine, SolverConfig, WeightedGraph,
                  brute_force_mwis, greedy_complete, select_branch_vertex,
                  solve)
from mwis.solution import verify_solution


def test_empty_graph():
    r = solve(WeightedGraph([]))
    assert r.solution.weight == 0 and r.solution.vertices == ()
    assert r.solution.optimal
    assert r.stats.prunes == 0  # the empty leaf is not a prune


def test_single_edge():
    r = solve(WeightedGraph([5, 1], [(0, 1)]))
    assert r.solution.vertices == (0,) and r.solution.weight == 5
    assert r.solution.optimal


def test_matches_oracle_on_seeded_graphs():
    for seed in range(120):
        n = 1 + seed % 16
        g = random_graph(seed, n, [0.1, 0.3, 0.6][seed % 3])
        want = brute_force_mwis(g).weight
        for variant in ("full", "dense"):
            r = solve(g, SolverConfig(variant=variant))
            assert r.solution.weight == want, (seed, variant)
            assert r.solution.optimal
            verify_solution(g, r.solution)


def test_matches_oracle_on_structured_instances():
    for name, g in sorted(structured_family().items()):
        want = brute_force_mwis(g).weight
        assert solve(g).solution.weight == want, name


def test_input_graph_not_mutated():
    g = random_graph(1, 12, 0.3)
    before = g.canonical_serialization()
    solve(g)
    assert g.canonical_serialization() == before


# -- branching ---------------------------------------------------------

def test_branch_picks_max_degree():
    g = star_graph(1, [1, 1, 1, 1])
    assert select_branch_vertex(g) == 0


def test_branch_degree_tie_prefers_heavier():
    g = WeightedGraph([2, 9, 2, 2], [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert select_branch_vertex(g) == 1


def test_branch_full_tie_prefers_lower_id():
    g = clique_graph([3, 3, 3])
    assert select_branch_vertex(g) == 0


def test_exploration_order_does_not_change_weight(monkeypatch):
    # the three dense graphs search as many nodes either way round; the
    # sparser fourth one does not, which shows that the swap took effect
    graphs = [random_graph(seed, 24, 0.45) for seed in (2, 7, 11)] + [random_graph(7, 30, 0.3)]
    include_first = [solve(g) for g in graphs]
    include, exclude = ReductionEngine.include, ReductionEngine.exclude_vertex

    def exclude_on_branch(self, chosen, rule="branch"):
        if rule == "branch":
            (v,) = chosen
            exclude(self, v)
        else:
            include(self, chosen, rule)

    # the branch now excludes its vertex first and includes it second
    monkeypatch.setattr(ReductionEngine, "include", exclude_on_branch)
    monkeypatch.setattr(ReductionEngine, "exclude_vertex", lambda self, v: include(self, (v,)))
    exclude_first = [solve(g) for g in graphs]
    assert ([r.solution.weight for r in exclude_first]
            == [r.solution.weight for r in include_first])
    assert any(a.stats.nodes != b.stats.nodes for a, b in zip(include_first, exclude_first))


# -- components --------------------------------------------------------

def test_two_disjoint_edges():
    g = WeightedGraph([5, 1, 2, 7], [(0, 1), (2, 3)])
    r = solve(g)
    assert r.solution.weight == 12
    assert set(r.solution.vertices) == {0, 3}


def test_component_sum_matches_oracle():
    for seed in range(20):
        g = random_graph(seed, 14, 0.08)  # sparse: usually disconnected
        assert solve(g).solution.weight == brute_force_mwis(g).weight


def test_weights_past_int64_solve_without_the_ils_bound():
    g = random_graph(3, 30, 0.5)
    heavy = WeightedGraph([g.weight(v) << 55 for v in range(g.n_alive)],
                          [(u, v) for u in range(g.n_alive) for v in g.neighbors(u) if u < v])
    want = solve(g).solution.weight << 55
    assert want > 2**63 - 1
    r = solve(heavy)
    assert r.solution.optimal and r.solution.weight == want
    verify_solution(heavy, r.solution)


def test_single_component_no_split():
    g = clique_graph([4, 5, 6])
    r = solve(g)
    assert r.solution.weight == 6


# -- pruning -----------------------------------------------------------

def test_pruning_toggle_preserves_weight(monkeypatch):
    graphs = [random_graph(seed, 26, 0.4) for seed in (1, 5, 9)]
    on = [solve(g) for g in graphs]
    monkeypatch.setattr(mwis.solver, "clique_cover_bound", lambda g, deadline=None: math.inf)
    monkeypatch.setattr(ReductionEngine, "lp_prunes", lambda eng, slack, deadline=None: False)
    off = [solve(g) for g in graphs]
    for a, b in zip(on, off):
        assert a.solution.weight == b.solution.weight
        assert b.stats.prunes == 0
        assert b.stats.nodes >= a.stats.nodes


# Bounds that never prune.
BOUND_OFF = {"clique_cover_bound": lambda g, deadline=None: math.inf,
             "lp_prunes": lambda eng, slack, deadline=None: False}


@pytest.mark.parametrize("variant", ["full", "dense"])
@pytest.mark.parametrize("off", sorted(BOUND_OFF))
def test_either_bound_alone_prunes(monkeypatch, variant, off):
    g = random_graph(1, 40, 0.3)
    both = solve(g, SolverConfig(variant=variant))
    monkeypatch.setattr(ReductionEngine if off == "lp_prunes" else mwis.solver, off, BOUND_OFF[off])
    r = solve(g, SolverConfig(variant=variant))
    assert r.solution.optimal and r.solution.weight == both.solution.weight
    assert r.stats.prunes > 0 and r.stats.nodes >= both.stats.nodes


def test_pruning_happens_on_hard_instances(monkeypatch):
    monkeypatch.setattr(mwis.solver, "_LS_MIN_SIZE", 4)
    g = random_graph(3, 30, 0.5)
    r = solve(g)
    assert r.stats.prunes > 0


@pytest.mark.parametrize("variant", ["full", "dense"])
def test_lp_prune_test_searches_like_the_exact_lp(monkeypatch, variant):
    graphs = [random_graph(seed, 40, 0.2) for seed in (0, 2, 3, 5)]
    decided = [solve(g, SolverConfig(variant=variant)) for g in graphs]
    assert all(a.stats.prunes for a in decided)
    monkeypatch.setattr(ReductionEngine, "lp_prunes",
                        lambda eng, slack, deadline=None: exact_lp(eng.g) <= slack)
    for g, a in zip(graphs, decided):
        b = solve(g, SolverConfig(variant=variant))
        assert (a.stats.nodes, a.stats.prunes) == (b.stats.nodes, b.stats.prunes)
        assert a.solution.vertices == b.solution.vertices


def test_lp_flows_counts_the_bound_flows(monkeypatch):
    g = gnm_graph(1, 150, 375)
    full = solve(g, SolverConfig(variant="full"))
    assert full.stats.prunes > 0
    assert full.stats.lp_flows == 0  # every node sits at the reduce fixpoint
    calls = {"bound": 0, "flow": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ReductionEngine, "lp_prunes", counted("bound", ReductionEngine.lp_prunes))
    monkeypatch.setattr(mwis.reductions, "critical_value_at_most",
                        counted("flow", mwis.reductions.critical_value_at_most))
    dense = solve(g, SolverConfig(variant="dense"))
    assert dense.stats.lp_flows == calls["flow"] > 0  # dense runs no critical rule
    assert dense.stats.lp_flows < calls["bound"] < dense.stats.nodes  # the skip fired


# -- local-search lower bound --------------------------------------------

def test_ils_bound_stops_once_it_stalls(monkeypatch):
    g = gnm_graph(1, 150, 375)
    runs = []
    original = mwis.solver.ils_run

    def counted(*args, **kwargs):
        res = original(*args, **kwargs)
        runs.append(res.rounds)
        return res

    monkeypatch.setattr(mwis.solver, "ils_run", counted)
    weights = set()
    for variant in ("full", "dense"):
        runs.clear()
        r = solve(g, SolverConfig(variant=variant))
        assert r.solution.optimal
        weights.add(r.solution.weight)
        assert r.stats.ils_runs == len(runs) > 0
        assert r.stats.ils_rounds == sum(runs)
        assert all(0 < k < mwis.solver._LS_ITERATIONS for k in runs)
    assert len(weights) == 1


# -- greedy completion ---------------------------------------------------

def test_greedy_complete_edgeless():
    g = WeightedGraph([3, 1, 2])
    assert greedy_complete(g).vertices == (0, 1, 2)


def test_greedy_complete_path_picks_heavy_middle():
    sol = greedy_complete(path_graph([2, 5, 2]))
    assert sol.vertices == (1,) and sol.weight == 5


def test_greedy_complete_keeps_maximal_input():
    g = path_graph([2, 5, 2])
    sol = greedy_complete(g, (1,))
    assert sol.vertices == (1,)


def test_greedy_complete_rejects_bad_partial():
    g = path_graph([1, 1])
    with pytest.raises(CertificateError):
        greedy_complete(g, (0, 1))


# -- anytime behavior ----------------------------------------------------

def test_timeout_returns_verified_nonoptimal():
    g = random_graph(7, 150, 0.5)
    t0 = time.monotonic()
    r = solve(g, SolverConfig(time_limit=1.0))
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    assert not r.solution.optimal
    verify_solution(g, r.solution)
    weights = [w for _, w in r.convergence]
    assert weights == sorted(set(weights)) and weights
    times = [t for t, _ in r.convergence]
    assert times == sorted(times)


def test_timeout_overshoot_does_not_grow_with_the_graph():
    # one critical-set flow on this graph takes seconds, so an uninterruptible
    # flow would overrun the limit several times over
    g = cubic_graph(1, 30000, wmax=1)
    t0 = time.monotonic()
    r = solve(g, SolverConfig(time_limit=2.0))
    elapsed = time.monotonic() - t0
    assert elapsed < 2.5
    assert not r.solution.optimal
    verify_solution(g, r.solution)


def test_dense_timeout_cuts_the_bound_flow_short():
    # the dense variant's first LP-bound flow on this graph takes about a
    # second; one that ignored the deadline would overrun the limit by that much
    g = cubic_graph(1, 30000, wmax=1)
    t0 = time.monotonic()
    r = solve(g, SolverConfig(variant="dense", time_limit=2.0))
    assert time.monotonic() - t0 < 2.5
    assert not r.solution.optimal
    verify_solution(g, r.solution)


# Clock reads that only record or budget time: the solve's start and end,
# the convergence log, and the local-search bound's cap and run.  Every
# other read decides whether the deadline has passed.
BOOKKEEPING_READS = {"solve", "_log_improvement", "_ils_bound", "ils_run"}


@pytest.mark.parametrize("variant", ["full", "dense"])
def test_deadline_at_every_clock_read(monkeypatch, variant):
    # The k-th read after the solve's start is the first past the deadline,
    # for every k up to the first at which the search finishes.  The kernel
    # size reported is the root graph as the initial reduce left it.
    real_reduce = ReductionEngine.reduce
    left = []

    def reduce(eng, *args, **kwargs):
        try:
            real_reduce(eng, *args, **kwargs)
        finally:
            left.append((eng.g.n_alive, eng.g.m_alive))

    monkeypatch.setattr(ReductionEngine, "reduce", reduce)
    config = SolverConfig(variant=variant, time_limit=1.0)
    cut_kernels = 0
    for seed, n in ((0, 20), (1, 22), (2, 24)):
        g = random_graph(seed, n, 0.3)
        before = g.canonical_serialization()
        want = brute_force_mwis(g).weight
        reads = []
        monkeypatch.setattr(time, "monotonic", deadline_clock(float("inf"), reads))
        full = solve(g, config)
        last_check = max(i for i, name in enumerate(reads) if name not in BOOKKEEPING_READS)
        assert full.solution.optimal and full.solution.weight == want
        for k in range(1, last_check + 2):
            reads, left[:] = [], []
            monkeypatch.setattr(time, "monotonic", deadline_clock(k, reads))
            r = solve(g, config)
            verify_solution(g, r.solution)
            assert r.solution.optimal == (k > last_check), (seed, k)
            assert r.solution.weight == want if r.solution.optimal else r.solution.weight <= want
            assert g.canonical_serialization() == before
            assert (r.kernel_n, r.kernel_m) == left[0], (seed, k)
            cut_kernels += left[0] != (full.kernel_n, full.kernel_m)
    assert cut_kernels > 0  # some deadlines fell inside the initial reduce


def test_nan_time_limit_is_refused():
    # a NaN deadline never compares as passed, so the limit would be ignored
    with pytest.raises(ValueError, match="nan"):
        solve(path_graph([2, 3, 2]), SolverConfig(time_limit=math.nan))


def test_fast_instance_finishes_under_limit():
    g = path_graph([2, 3, 2, 3, 2])
    r = solve(g, SolverConfig(time_limit=30.0))
    assert r.solution.optimal


# -- determinism ---------------------------------------------------------

def test_identical_runs_identical_results():
    for seed in (0, 4):
        g = random_graph(seed, 40, 0.12)
        a = solve(g, SolverConfig(seed=3))
        b = solve(g, SolverConfig(seed=3))
        assert a.solution == b.solution
        assert a.stats.nodes == b.stats.nodes
        assert a.stats.prunes == b.stats.prunes
        assert dict(a.stats.rule_applications) == dict(b.stats.rule_applications)
        assert a.kernel_n == b.kernel_n and a.kernel_m == b.kernel_m


def test_convergence_log_matches_final_weight():
    g = random_graph(2, 30, 0.3)
    r = solve(g)
    assert r.convergence[-1][1] == r.solution.weight
