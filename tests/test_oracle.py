"""Brute-force oracle behavior, including backend agreement."""

import pytest

from helpers import clique_graph, cycle_graph, path_graph, random_graph, star_graph
from mwis import (GraphError, OracleSizeError, WeightedGraph,
                  brute_force_critical_set, brute_force_mwis)
from mwis.oracle import (_enum_mwis_loop, _enum_mwis_numpy, _masks_of,
                         subgraph_mwis_weight)
from mwis.solution import verify_independent_set


def test_triangle_picks_heaviest():
    sol = brute_force_mwis(clique_graph([5, 3, 2]))
    assert sol.vertices == (0,) and sol.weight == 5 and sol.optimal


def test_cycle5_unit_weights():
    assert brute_force_mwis(cycle_graph([1] * 5)).weight == 2


def test_p4_lexicographic_tie_break():
    # both {1,3} and {0,2} weigh 10; the id-smallest sorted sequence wins
    sol = brute_force_mwis(path_graph([1, 9, 9, 1]))
    assert sol.weight == 10
    assert sol.vertices == (0, 2)


def test_size_cap_refusal():
    g = WeightedGraph([1] * 25)
    with pytest.raises(OracleSizeError):
        brute_force_mwis(g)


@pytest.mark.parametrize("weights", [[2**62, 1, 2**62], [2**63, 1, 1]])
def test_weights_past_int64_are_refused(weights):
    g = path_graph(weights)
    with pytest.raises(GraphError):
        brute_force_mwis(g)
    with pytest.raises(GraphError):
        subgraph_mwis_weight(g, [0, 2])


def test_weights_summing_to_the_int64_limit_are_exact():
    sol = brute_force_mwis(path_graph([2**62, 2**62 - 2, 1]))  # total 2**63 - 1
    assert sol.vertices == (0, 2) and sol.weight == 2**62 + 1


def test_empty_graph():
    sol = brute_force_mwis(WeightedGraph([]))
    assert sol.vertices == () and sol.weight == 0


def test_returns_independent_set():
    for seed in range(25):
        g = random_graph(seed, 12, 0.4)
        sol = brute_force_mwis(g)
        assert verify_independent_set(g, sol.vertices) == sol.weight


def test_loop_and_numpy_enumerations_agree():
    for seed in range(30):
        g = random_graph(seed, 11, 0.35)
        adj, w = _masks_of(g, sorted(g.alive_vertices()))
        assert _enum_mwis_loop(adj, w) == _enum_mwis_numpy(adj, w)


def test_subgraph_weight_matches_full_oracle():
    g = random_graph(5, 12, 0.3)
    verts = [0, 2, 3, 7, 9, 11]
    sub, _ = g.induced_subgraph(verts)
    assert subgraph_mwis_weight(g, verts) == brute_force_mwis(sub).weight


# -- critical sets -----------------------------------------------------

def test_critical_edge():
    g = WeightedGraph([5, 1], [(0, 1)])
    assert brute_force_critical_set(g) == ([0], 4)


def test_critical_c4_unit_is_empty():
    assert brute_force_critical_set(cycle_graph([1] * 4)) == ([], 0)


def test_critical_star_light_center():
    g = star_graph(1, [2, 2, 2])
    assert brute_force_critical_set(g) == ([1, 2, 3], 5)


def test_critical_size_cap():
    with pytest.raises(OracleSizeError):
        brute_force_critical_set(WeightedGraph([1] * 15))


def _critical_over_independent(g):
    """Exhaustive max of w(I) - w(N(I)) over independent sets only."""
    verts = sorted(g.alive_vertices())
    n = len(verts)
    adj, w = _masks_of(g, verts)
    best = 0
    for mask in range(1 << n):
        if any(adj[i] & mask for i in range(n) if mask >> i & 1):
            continue
        nb = 0
        for i in range(n):
            if mask >> i & 1:
                nb |= adj[i]
        val = sum(int(w[i]) for i in range(n) if mask >> i & 1) \
            - sum(int(w[i]) for i in range(n) if nb >> i & 1)
        best = max(best, val)
    return best


def test_critical_value_attained_by_independent_sets():
    for seed in range(20):
        g = random_graph(seed, 10, 0.3)
        _, value = brute_force_critical_set(g)
        assert value == _critical_over_independent(g)
