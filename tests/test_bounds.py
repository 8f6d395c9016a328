"""Upper bounds: the clique cover's examples, validity and soundness, and
the LP bound of the critical-set flow, alone and beside the cover."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (clique_graph, cubic_graph, exact_lp, path_graph, random_graph,
                     small_graphs, validate_cover)
from mwis import (DeadlinePassed, ReductionEngine, SolverConfig, WeightedGraph,
                  brute_force_mwis, build_clique_cover, clique_cover_bound,
                  critical_weighted_set, solve)


def test_triangle_single_clique():
    g = clique_graph([5, 3, 2])
    cliques, weights = build_clique_cover(g)
    assert len(cliques) == 1
    assert sum(weights) == 5
    assert sum(weights) == brute_force_mwis(g).weight


def test_edgeless_singletons():
    g = WeightedGraph([1, 2, 3])
    cliques, weights = build_clique_cover(g)
    assert len(cliques) == 3
    assert sum(weights) == 6 == brute_force_mwis(g).weight


def test_path_2_5_2():
    g = path_graph([2, 5, 2])
    cliques, weights = build_clique_cover(g)
    # heavy middle opens {b}, light 'a' joins it, 'c' stays a singleton
    assert sorted(len(c) for c in cliques) == [1, 2]
    assert sum(weights) == 7
    assert sum(weights) >= brute_force_mwis(g).weight == 5


def test_cover_validity_and_soundness_random():
    for seed in range(80):
        n = 1 + seed % 15
        g = random_graph(seed, n, [0.1, 0.3, 0.6][seed % 3])
        cliques, weights = build_clique_cover(g)
        validate_cover(g, cliques, weights)
        assert sum(weights) == clique_cover_bound(g) >= brute_force_mwis(g).weight


def test_bound_of_empty_graph_is_zero():
    assert clique_cover_bound(WeightedGraph([])) == 0


def test_cover_gives_up_past_its_deadline():
    g = cubic_graph(1, 30000)
    with pytest.raises(DeadlinePassed):
        clique_cover_bound(g, deadline=time.monotonic() - 1.0)
    with pytest.raises(DeadlinePassed):
        build_clique_cover(g, deadline=time.monotonic() - 1.0)
    assert clique_cover_bound(g) == 1864108
    assert clique_cover_bound(g, deadline=time.monotonic() + 3600.0) == 1864108


# Weights 1..6 (many ties), 1..10**6, and the latter shifted past 2**63: the
# oracle sums in int64, so the optimum of a shifted graph is the shifted
# optimum of the unshifted one.
HEAVY_SHIFT = 63
bound_cases = st.one_of(
    st.tuples(small_graphs(), st.just(0)),
    st.tuples(small_graphs(max_w=10**6), st.just(0)),
    st.tuples(small_graphs(max_w=10**6), st.just(HEAVY_SHIFT)))


def _shifted(g, shift):
    return WeightedGraph([g.weight(v) << shift for v in range(g.n_total)],
                         [(u, v) for u in range(g.n_total) for v in g.neighbors(u) if u < v])


@settings(max_examples=300, deadline=None)
@given(bound_cases, st.sampled_from(["full", "dense"]))
def test_lp_bound_is_sound_alone_and_beside_the_cover(case, variant):
    g, shift = case
    want = brute_force_mwis(g).weight << shift
    work = _shifted(g, shift)
    eng = ReductionEngine(work, variant=variant)
    eng.reduce(initial=True)
    lp = exact_lp(work)
    assert eng.lp_prunes(lp) and not eng.lp_prunes(lp - 1)
    assert eng.offset + lp >= want
    assert eng.offset + min(clique_cover_bound(work), lp) >= want
    res = solve(_shifted(g, shift), SolverConfig(variant=variant))
    assert res.solution.optimal and res.solution.weight == want


@settings(max_examples=200, deadline=None)
@given(bound_cases, st.data())
def test_full_fixpoint_lp_shortcut_matches_a_cold_flow(case, data):
    g, shift = case
    g = _shifted(g, shift)
    eng = ReductionEngine(g)
    eng.reduce(initial=True)
    for _ in range(2):  # the reduce fixpoint, then again below a branch
        if g.n_alive == 0:
            break
        assert g.checkpoint() == eng._cwis_idle_mark  # lp_prunes runs no flow here
        _, value = critical_weighted_set(g)
        assert value == 0
        half = exact_lp(g)
        assert half == g.w_alive // 2
        assert eng.lp_prunes(half) and not eng.lp_prunes(half - 1)
        assert eng.lp_flows == 0
        eng.exclude_vertex(data.draw(st.sampled_from(sorted(g.alive_vertices()))))
        eng.reduce()


def test_dense_lp_bound_runs_the_flow_and_honours_the_deadline():
    for seed in range(30):
        g = random_graph(seed, 14, 0.3)
        eng = ReductionEngine(g, variant="dense")
        eng.reduce(initial=True)
        lp = exact_lp(g)
        assert lp >= brute_force_mwis(g).weight
        assert eng.lp_prunes(lp) and not eng.lp_prunes(lp - 1)
        # a dense engine never knows the critical rule idle, so every test
        # whose slack reaches half the alive weight runs a flow
        assert eng.lp_flows == 1 + (lp - 1 >= g.w_alive // 2)
    g = cubic_graph(1, 2000, wmax=1)
    big = ReductionEngine(g, variant="dense")
    slack = g.w_alive // 2  # the smallest slack that runs the flow
    with pytest.raises(DeadlinePassed):
        big.lp_prunes(slack, deadline=time.monotonic())
    # The early stop needed a flow of 2W - 2 * slack - 1; the clip and the
    # greedy pass, all that ran before the deadline, reached less, and what
    # they reached was handed back.
    assert 0 < sum(a for _, _, a in big._cwis_flow) < 2 * g.w_alive - 2 * slack - 1


@settings(max_examples=150, deadline=None)
@given(bound_cases, st.sampled_from(["full", "dense"]), st.data())
def test_lp_prune_test_decides_like_the_exact_lp(case, variant, data):
    g, shift = case

    def reduced():
        eng = ReductionEngine(_shifted(g, shift), variant=variant)
        eng.reduce(initial=True)
        return eng

    exact = exact_lp(reduced().g)
    half = reduced().g.w_alive // 2
    if exact - half <= 40:
        slacks = range(half - 2, exact + 3)
    else:
        inner = st.integers(half + 3, exact - 3)
        slacks = [*range(half - 2, half + 3), *range(exact - 2, exact + 3),
                  *(data.draw(inner) for _ in range(4))]
    for s in slacks:
        eng = reduced()
        assert eng.lp_prunes(s) == (exact <= s)
        # warm-started from the flow left behind, the flow still reaches the
        # exact LP when it must
        assert eng.lp_prunes(exact) and not eng.lp_prunes(exact - 1)


@settings(max_examples=200, deadline=None)
@given(bound_cases, st.sampled_from(["full", "dense"]), st.data())
def test_lp_prune_test_through_edits_and_rollbacks(case, variant, data):
    # Early-stopped flows carried as warm starts across includes, excludes,
    # weight cuts, reduces and rollbacks, and the full variant's idle-mark
    # shortcut, decide every test like the exact LP of the graph as it stands.
    # A cut edits the graph behind the engine's queues: only lp_prunes is
    # checked, and it reads the graph.
    g, shift = case
    g = _shifted(g, shift)
    eng = ReductionEngine(g, variant=variant)
    marks = []
    for _ in range(10):
        op = data.draw(st.sampled_from(["include", "exclude", "cut", "reduce", "checkpoint",
                                        "rollback"]))
        alive = sorted(g.alive_vertices())
        if op in ("include", "exclude", "cut") and alive:
            v = data.draw(st.sampled_from(alive))
            if op == "cut":
                g.set_weight(v, (g.weight(v) + 1) // 2)
            else:
                eng.include((v,)) if op == "include" else eng.exclude_vertex(v)
        elif op == "reduce":
            eng.reduce(initial=data.draw(st.booleans()))
        elif op == "checkpoint":
            marks.append(eng.checkpoint())
        elif op == "rollback" and marks:
            eng.rollback(marks.pop())
        exact, half = exact_lp(g), g.w_alive // 2
        slacks = [half - 1, half, exact - 1, exact, exact + 1, (exact + g.w_alive) // 2]
        for s in data.draw(st.permutations(slacks)):
            assert eng.lp_prunes(s) == (exact <= s), (op, s)
