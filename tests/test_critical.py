"""Min-cut critical set extraction against the exhaustive oracle, and its
warm start and deadline."""

import time
from collections import Counter

import pytest

from helpers import cubic_graph, cycle_graph, random_graph, star_graph
from mwis import (DeadlinePassed, WeightedGraph, brute_force_critical_set,
                  critical_weighted_set)
from mwis.solution import verify_independent_set


def test_edge_five_one():
    g = WeightedGraph([5, 1], [(0, 1)])
    chosen, value = critical_weighted_set(g)
    assert chosen == [0] and value == 4


def test_c4_unit_value_zero():
    _, value = critical_weighted_set(cycle_graph([1] * 4))
    assert value == 0


def test_star_light_center():
    chosen, value = critical_weighted_set(star_graph(1, [2, 2, 2]))
    assert chosen == [1, 2, 3] and value == 5


def test_empty_graph():
    assert critical_weighted_set(WeightedGraph([])) == ([], 0)


def test_edgeless_takes_everything():
    g = WeightedGraph([3, 1, 4])
    chosen, value = critical_weighted_set(g)
    assert chosen == [0, 1, 2] and value == 8


def test_matches_exhaustive_value_and_is_independent():
    for seed in range(120):
        n = 1 + seed % 12
        g = random_graph(seed, n, [0.1, 0.3, 0.6][seed % 3])
        chosen, value = critical_weighted_set(g)
        _, want = brute_force_critical_set(g)
        assert value == want, f"seed {seed}"
        verify_independent_set(g, chosen)
        # the returned set itself attains the maximum
        nbhd = set()
        for v in chosen:
            nbhd.update(g.neighbors(v))
        direct = sum(g.weight(v) for v in chosen) - sum(g.weight(u) for u in nbhd)
        assert direct == want


def assert_feasible(g, flow):
    out, into = Counter(), Counter()
    for u, v, amount in flow:
        assert amount > 0 and g.has_edge(u, v)
        out[u] += amount
        into[v] += amount
    assert all(out[v] <= g.weight(v) and into[v] <= g.weight(v) for v in g.alive_vertices())


def test_warm_start_survives_weight_cuts_and_reused_ids():
    g = star_graph(10, [4, 4, 4])
    flow = []
    critical_weighted_set(g, flow)
    assert_feasible(g, flow)
    assert any(v == 0 for _, v, _ in flow)  # the leaves push into the center
    g.set_weight(0, 1)  # the center can no longer take that inflow
    assert critical_weighted_set(g, flow) == critical_weighted_set(g) == ([1, 2, 3], 11)
    assert_feasible(g, flow)
    mark = g.checkpoint()
    assert g.fold_into_new_vertex([1], 9, [0, 2]) == 4
    critical_weighted_set(g, flow)
    g.rollback(mark)
    assert g.fold_into_new_vertex([2], 1, [3]) == 4  # same id, other arcs and weight
    assert critical_weighted_set(g, flow) == critical_weighted_set(g)
    assert_feasible(g, flow)


def test_deadline_stops_the_flow():
    g = cubic_graph(0, 2000, wmax=1)
    flow = []
    with pytest.raises(DeadlinePassed):
        critical_weighted_set(g, flow, deadline=time.monotonic())
    assert flow  # the greedy pass ran, and its flow was handed back
    assert_feasible(g, flow)
    assert critical_weighted_set(g, flow) == critical_weighted_set(g) == ([], 0)
