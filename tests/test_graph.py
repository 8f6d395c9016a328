"""Graph structure, edit log and rollback behavior."""

import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import path_graph, random_graph, star_graph
from mwis import GraphError, WeightedGraph


def test_remove_vertex_triangle():
    g = WeightedGraph([1, 2, 3], [(0, 1), (1, 2), (0, 2)])
    g.remove_vertex(0)
    assert not g.is_alive(0)
    assert g.neighbors(1) == [2] and g.neighbors(2) == [1]
    assert g.n_alive == 2 and g.m_alive == 1
    g.check_invariants()


def test_remove_vertex_singleton():
    g = WeightedGraph([4])
    g.remove_vertex(0)
    assert g.n_alive == 0
    assert list(g.alive_vertices()) == []


def test_remove_path_middle():
    g = path_graph([1, 1, 1])
    g.remove_vertex(1)
    assert g.degree(0) == 0 and g.degree(2) == 0
    assert g.m_alive == 0


def test_remove_dead_vertex_errors():
    g = WeightedGraph([1, 1], [(0, 1)])
    g.remove_vertex(0)
    with pytest.raises(GraphError):
        g.remove_vertex(0)
    with pytest.raises(GraphError):
        g.remove_vertex(7)


def test_fold_path_to_isolated_vertex():
    g = path_graph([2, 3, 2])
    vid = g.fold_into_new_vertex([0, 1, 2], 1, [])
    assert g.is_alive(vid) and g.weight(vid) == 1
    assert g.n_alive == 1 and g.degree(vid) == 0


def test_fold_star_wiring():
    # center 0 with leaves 1,2 and an extra neighbor 3; fold {0,1,2} onto {3}
    g = WeightedGraph([5, 2, 2, 4], [(0, 1), (0, 2), (0, 3)])
    vid = g.fold_into_new_vertex([0, 1, 2], 3, [3])
    assert g.neighbors(vid) == [3]
    assert g.neighbors(3) == [vid]
    g.check_invariants()


def test_fold_overlap_is_error():
    g = path_graph([1, 1, 1])
    with pytest.raises(GraphError):
        g.fold_into_new_vertex([0, 1], 2, [1, 2])
    with pytest.raises(GraphError):
        g.fold_into_new_vertex([0], 0, [2])


@pytest.mark.parametrize("bad", [2.7, 2.0, "2", np.float64(3.0)])
def test_non_integer_weights_are_rejected(bad):
    with pytest.raises(GraphError, match="non-integer"):
        WeightedGraph([bad, 1])
    g = path_graph([1, 1, 1])
    before = g.canonical_serialization()
    with pytest.raises(GraphError, match="non-integer"):
        g.set_weight(0, bad)
    with pytest.raises(GraphError, match="non-integer"):
        g.fold_into_new_vertex([0], bad, [1])
    assert g.canonical_serialization() == before and g.checkpoint() == 0


def test_numpy_integer_weights_are_stored_as_ints():
    g = WeightedGraph([np.int64(3), np.int32(2)], [(0, 1)])
    g.set_weight(1, np.int64(2**40))
    vid = g.fold_into_new_vertex([0], np.uint8(7), [1])
    assert [g.weight(v) for v in (0, 1, vid)] == [3, 2**40, 7]
    assert all(type(g.weight(v)) is int for v in (0, 1, vid))
    assert g.w_alive == 2**40 + 7


def test_rollback_restores_serialization():
    g = random_graph(1, 8, 0.4)
    before = g.canonical_serialization()
    mark = g.checkpoint()
    g.remove_vertex(0)
    g.remove_vertex(3)
    g.remove_vertex(5)
    g.rollback(mark)
    assert g.canonical_serialization() == before
    g.check_invariants()


def test_rollback_after_fold_and_reweight():
    g = random_graph(2, 8, 0.4)
    before = g.canonical_serialization()
    mark = g.checkpoint()
    nbrs = [u for u in range(8) if u not in (0, 1) and not g.has_edge(0, u)]
    g.fold_into_new_vertex([0], 9, nbrs[:2])
    g.set_weight(2, 123)
    g.rollback(mark)
    assert g.canonical_serialization() == before


def test_nested_checkpoints_unwind_lifo():
    g = random_graph(3, 10, 0.3)
    s0 = g.canonical_serialization()
    m0 = g.checkpoint()
    g.remove_vertex(0)
    s1 = g.canonical_serialization()
    m1 = g.checkpoint()
    g.remove_vertex(1)
    g.set_weight(2, 55)
    g.rollback(m1)
    assert g.canonical_serialization() == s1
    g.rollback(m0)
    assert g.canonical_serialization() == s0


def test_stale_mark_errors():
    g = path_graph([1, 1])
    mark = g.checkpoint()
    with pytest.raises(GraphError):
        g.rollback(mark + 5)


def _bfs_components(g):
    seen, comps = set(), []
    for s in sorted(g.alive_vertices()):
        if s in seen:
            continue
        comp, queue = set(), deque([s])
        seen.add(s)
        while queue:
            u = queue.popleft()
            comp.add(u)
            for x in g.neighbors(u):
                if x not in seen:
                    seen.add(x)
                    queue.append(x)
        comps.append(sorted(comp))
    return comps


def test_components_two_disjoint_edges():
    g = WeightedGraph([1, 1, 1, 1], [(0, 1), (2, 3)])
    assert g.connected_components() == [[0, 1], [2, 3]]


def test_components_empty_graph():
    assert WeightedGraph([]).connected_components() == []


def test_components_match_bfs_oracle():
    for seed in range(20):
        g = random_graph(seed, 12, 0.1)
        assert g.connected_components() == _bfs_components(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_random_edit_sequences_roll_back(seed, data):
    g = random_graph(seed % 50, 9, 0.3)
    before = g.canonical_serialization()
    mark = g.checkpoint()
    for _ in range(data.draw(st.integers(0, 8))):
        alive = sorted(g.alive_vertices())
        if not alive:
            break
        op = data.draw(st.sampled_from(["remove", "weight", "fold"]))
        v = data.draw(st.sampled_from(alive))
        if op == "remove":
            g.remove_vertex(v)
        elif op == "weight":
            g.set_weight(v, data.draw(st.integers(1, 99)))
        else:
            others = [u for u in alive if u != v and not g.has_edge(u, v)]
            g.fold_into_new_vertex([v], 5, others[:2])
        g.check_invariants()
    g.rollback(mark)
    assert g.canonical_serialization() == before
    g.check_invariants()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_alive_weight_matches_a_recount_through_edits_and_rollbacks(seed, data):
    g = random_graph(seed % 50, 10, 0.3, wmax=2**70)

    def recount():
        return sum(g.weight(v) for v in g.alive_vertices())

    marks = [g.checkpoint()]
    for _ in range(data.draw(st.integers(0, 16))):
        alive = sorted(g.alive_vertices())
        op = data.draw(st.sampled_from(["remove", "weight", "fold", "mark", "rollback"]))
        if op == "mark":
            marks.append(g.checkpoint())
        elif op == "rollback":
            g.rollback(marks.pop() if len(marks) > 1 else marks[0])
        elif alive:
            v = data.draw(st.sampled_from(alive))
            if op == "remove":
                g.remove_vertex(v)
            elif op == "weight":
                g.set_weight(v, data.draw(st.integers(1, 2**70)))
            else:
                group = [v] + [u for u in g.neighbors(v)][:data.draw(st.integers(0, 2))]
                others = [u for u in alive if u not in group]
                g.fold_into_new_vertex(group, data.draw(st.integers(1, 2**70)), others[:3])
        assert g.w_alive == recount()
        g.check_invariants()  # recounts every neighbor-weight sum too
    g.rollback(marks[0])
    assert g.w_alive == recount()
    g.check_invariants()


def test_induced_subgraph_keeps_weights_and_edges():
    g = star_graph(9, [1, 2, 3])
    sub, mapping = g.induced_subgraph([0, 2, 3])
    assert [sub.weight(i) for i in range(3)] == [9, 2, 3]
    assert mapping == [0, 2, 3]
    assert sub.has_edge(0, 1) and sub.has_edge(0, 2) and not sub.has_edge(1, 2)
