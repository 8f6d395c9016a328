"""Iterated local search: moves, invariants, determinism, quality."""

import time

import numpy as np
import pytest

import ls_reference
from helpers import cubic_graph, gnm_graph, path_graph, random_graph
from mwis import GraphError, LsState, WeightedGraph, brute_force_mwis, ils_run
from mwis._ls_core import S_FAILS
from mwis.local_search import _CHUNK_ROUNDS
from mwis.solution import verify_independent_set


def test_edgeless_graph_takes_everything():
    g = WeightedGraph([4, 1, 9])
    res = ils_run(g, iterations=5)
    assert res.solution.vertices == (0, 1, 2)
    assert res.solution.weight == 14


def test_single_edge_picks_heavy_end():
    g = WeightedGraph([5, 1], [(0, 1)])
    res = ils_run(g, iterations=5, seed=99)
    assert res.solution.vertices == (0,) and res.solution.weight == 5


def test_omega_swap_inserts_heavier_vertex():
    # vertex 0 (w9) against two solution neighbors weighing 3+4
    g = WeightedGraph([9, 3, 4], [(0, 1), (0, 2)])
    st = LsState(g)
    assert st.omega_one_swap(1)  # plain insertion; re-maximization adds 2
    assert st.current_vertices() == (1, 2)
    assert st.omega_one_swap(0)
    assert st.current_vertices() == (0,) and st.current_weight == 9


def test_omega_swap_requires_strict_improvement():
    g = WeightedGraph([7, 3, 4], [(0, 1), (0, 2)])
    st = LsState(g)
    st.omega_one_swap(1)
    st.omega_one_swap(2)
    assert not st.omega_one_swap(0)  # 7 == 3+4, plateau move refused
    assert st.current_vertices() == (1, 2)


def test_omega_swap_plain_insert_without_neighbors():
    g = WeightedGraph([2, 2], [])
    st = LsState(g)
    assert st.omega_one_swap(0)
    # greedy re-maximization already pulled in the free vertex 1
    assert st.current_vertices() == (0, 1)


def test_one_two_swap_basic():
    g = WeightedGraph([3, 2, 2], [(0, 1), (0, 2)])
    st = LsState(g)
    st.omega_one_swap(0)
    assert st.current_vertices() == (0,)
    assert st.weighted_one_two_swap(0)
    assert st.current_vertices() == (1, 2) and st.current_weight == 4


def test_one_two_swap_rejects_adjacent_pair():
    g = WeightedGraph([3, 2, 2], [(0, 1), (0, 2), (1, 2)])
    st = LsState(g)
    st.omega_one_swap(0)
    assert not st.weighted_one_two_swap(0)


def test_one_two_swap_picks_best_pair():
    # center 0 (w5); pairs: (1,2)=4+4=8 adjacent, (1,3)=4+3=7, (2,4)=4+2=6...
    g = WeightedGraph([5, 4, 4, 3, 2, 9],
                      [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (5, 4)])
    st = LsState(g)
    # force exactly {0, 5} into the solution
    st.omega_one_swap(5)
    st.omega_one_swap(0)
    assert set(st.current_vertices()) == {0, 5}
    assert st.weighted_one_two_swap(0)
    # best feasible pair among {1,2,3}: (1,3) with weight 7 (1-2 is an edge)
    assert set(st.current_vertices()) == {1, 3, 5}


def test_intermediate_states_stay_independent():
    for seed in range(10):
        g = random_graph(seed, 14, 0.3)
        st = LsState(g, seed=seed)
        best_seen = 0
        for _ in range(5):
            st.run_rounds(10)
            verify_independent_set(g, st.current_vertices())
            verify_independent_set(g, st.best_vertices())
            # at round boundaries the best tracks the current solution and
            # never decays
            assert st.best_weight >= st.current_weight
            assert st.best_weight >= best_seen
            best_seen = st.best_weight
        assert sum(g.weight(v) for v in st.best_vertices()) == st.best_weight


def test_deterministic_given_seed_and_budget():
    g = random_graph(3, 20, 0.25)
    a = ils_run(g, iterations=400, seed=11)
    b = ils_run(g, iterations=400, seed=11)
    assert a.solution == b.solution
    c = ils_run(g, iterations=400, seed=12)
    assert c.solution.weight <= brute_force_mwis(g).weight


def test_chunking_does_not_change_the_trajectory():
    # on the large graph a round touches few vertices, so the descent's
    # worklist must carry over between calls
    for g, chunk, chunks in ((random_graph(4, 16, 0.3), 10, 10),
                             (cubic_graph(7, 2000), 1, 64)):
        st1 = LsState(g, seed=5)
        st1.run_rounds(chunk * chunks)
        st2 = LsState(g, seed=5)
        for _ in range(chunks):
            st2.run_rounds(chunk)
        assert st1.best_weight == st2.best_weight
        assert st1.best_vertices() == st2.best_vertices()
        assert st1.current_vertices() == st2.current_vertices()
        assert list(st1.state) == list(st2.state)


def test_time_limit_stops_within_a_round():
    # late rounds perturb thousands of vertices each, so 32 of them take
    # seconds on this graph, while one round takes about 0.1 s
    g = cubic_graph(1, 20000, wmax=1)
    t0 = time.monotonic()
    res = ils_run(g, time_limit=0.5)
    assert time.monotonic() - t0 < 1.0
    assert res.rounds > 0


@pytest.mark.parametrize("limit", [float("nan"), float("inf")])
def test_non_finite_time_limit_is_refused_at_once(limit):
    # neither deadline ever compares as passed: with no round or stall
    # budget beside it the run would not return, so no round may run
    t0 = time.monotonic()
    with pytest.raises(ValueError, match=f"got {limit}"):
        ils_run(gnm_graph(2, 300, 750), time_limit=limit, iterations=10_000)
    assert time.monotonic() - t0 < 0.5


def test_reported_vertices_are_python_ints_of_the_set_flags():
    # ids with gaps, so the local index and the graph id differ
    g = gnm_graph(5, 60, 150)
    for v in range(0, 60, 7):
        g.remove_vertex(v)
    res = ils_run(g, iterations=40, seed=3)
    st = LsState(g, seed=3)
    st.run_rounds(40)
    for got, flags in ((st.current_vertices(), st.in_sol), (st.best_vertices(), st.best_sol)):
        assert got == tuple(st.verts[i] for i in np.flatnonzero(flags))
        assert all(type(v) is int for v in got)
    assert res.solution.vertices == st.best_vertices()


def _stalled_replay(g, seed, stall, iterations):
    """One round at a time until ``stall`` rounds in a row brought nothing."""
    st = LsState(g, seed=seed)
    done = 0
    while done < iterations and st.state[S_FAILS] < stall:
        st.run_rounds(1)
        done += 1
    return st, done


@pytest.mark.parametrize("stall", [1, 5, _CHUNK_ROUNDS - 1, _CHUNK_ROUNDS,
                                   _CHUNK_ROUNDS + 1, 3 * _CHUNK_ROUNDS + 7])
def test_stall_stops_at_the_first_stalled_round(stall):
    for g, seed in ((random_graph(4, 40, 0.15), 3), (gnm_graph(2, 300, 750), 7)):
        st, done = _stalled_replay(g, seed, stall, 10_000)
        assert done < 10_000  # the stall rule, not the round budget, ended it
        res = ils_run(g, iterations=10_000, seed=seed, stall=stall)
        assert res.rounds == done
        assert res.solution.vertices == st.best_vertices()
        assert res.solution.weight == st.best_weight


def test_stall_gives_way_to_the_round_budget():
    g = gnm_graph(2, 300, 750)
    st, done = _stalled_replay(g, 7, 1000, 45)
    assert done == 45
    res = ils_run(g, iterations=45, seed=7, stall=1000)
    assert res.rounds == 45
    assert res.solution == ils_run(g, iterations=45, seed=7).solution
    assert res.solution.vertices == st.best_vertices()


@pytest.mark.parametrize("iterations", [0, 1, _CHUNK_ROUNDS, 100])
def test_unstalled_run_replays_the_reference_sweep(iterations):
    # chunk by chunk: the convergence log reads the best weight after each one
    g = gnm_graph(3, 200, 500)
    res = ils_run(g, iterations=iterations, seed=5, stall=None)
    ref = ls_reference.SweepLs(g, seed=5)
    logged = []
    done = 0
    while True:  # a zero budget still runs the greedy start
        chunk = min(_CHUNK_ROUNDS, iterations - done)
        ref.run_rounds(chunk)
        done += chunk
        best = int(ref.state[ls_reference.S_BEST])
        if not logged or best > logged[-1]:
            logged.append(best)
        if done >= iterations:
            break
    assert res.rounds == iterations
    assert [w for _, w in res.convergence] == logged
    best_set = tuple(ref.verts[i] for i in range(len(ref.verts)) if ref.best_sol[i])
    assert res.solution.vertices == best_set
    assert res.solution.weight == logged[-1]


@pytest.mark.slow
def test_quality_on_small_random_graphs():
    hits = 0
    for seed in range(100):
        g = random_graph(1000 + seed, 14, 0.3)
        want = brute_force_mwis(g).weight
        res = ils_run(g, iterations=10_000, seed=seed)
        assert res.solution.weight <= want
        hits += res.solution.weight == want
    assert hits >= 95


def test_convergence_entries_strictly_increase():
    g = random_graph(9, 30, 0.2)
    res = ils_run(g, iterations=500, seed=2)
    weights = [w for _, w in res.convergence]
    times = [t for t, _ in res.convergence]
    assert weights == sorted(set(weights))
    assert times == sorted(times)
    assert res.solution.weight == weights[-1]


def test_path_counterexample_needs_perturbation():
    # greedy descent alone plateaus at {5}; perturbation must find 2+2=4? no:
    # the optimum of 2-5-2 is 5, so ILS must simply hold it
    g = path_graph([2, 5, 2])
    res = ils_run(g, iterations=200, seed=0)
    assert res.solution.weight == 5


@pytest.mark.parametrize("weights", [[2**62, 1, 2**62], [2**63, 1, 1]])
def test_weights_past_int64_are_refused_promptly(weights):
    # a wrapped int64 sum would make the descent "improve" forever
    g = path_graph(weights)
    t0 = time.monotonic()
    with pytest.raises(GraphError, match="2\\*\\*63 - 1"):
        ils_run(g, iterations=5)
    assert time.monotonic() - t0 < 1.0


def test_weights_summing_to_the_int64_limit_are_exact():
    g = path_graph([2**62, 2**62 - 2, 1])  # total 2**63 - 1
    res = ils_run(g, iterations=5)
    assert res.solution.weight == 2**62 + 1
    assert verify_independent_set(g, res.solution.vertices) == 2**62 + 1
