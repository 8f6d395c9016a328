"""Differential checks on generated graphs: variants, scheduling modes, the
kernel round trip against the solver, the meta rule's subsolve and weight
tests against the brute-force oracle, the local search's worklist descent
against the full sweep it replays, and the critical-set flow, cold and warm
started, against the generic max flow it replaced."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flow_reference
import ls_reference
from helpers import copy_graph, gnm_graph
from mwis import (LsState, ReductionEngine, SolverConfig, WeightedGraph,
                  brute_force_mwis, critical_weighted_set, oracle,
                  reduce_to_kernel, reductions, solve)
from mwis.solution import verify_independent_set


@st.composite
def small_graphs(draw, max_n=12, max_w=6, min_w=1):
    n = draw(st.integers(0, max_n))
    weights = draw(st.lists(st.integers(min_w, max_w), min_size=n, max_size=n))  # ties are common
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return WeightedGraph(weights, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_variants_and_modes_agree(g):
    weights = {variant: solve(g, SolverConfig(variant=variant)).solution.weight
               for variant in ("full", "dense")}
    assert weights["full"] == weights["dense"]
    for variant in ("full", "dense"):
        queue, scan = copy_graph(g), copy_graph(g)
        eq = ReductionEngine(queue, variant=variant, mode="queue")
        es = ReductionEngine(scan, variant=variant, mode="scan")
        eq.reduce(initial=True)
        es.reduce(initial=True)
        assert queue.canonical_serialization() == scan.canonical_serialization()
        assert eq.offset == es.offset
        assert eq.records == es.records


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.sampled_from(["full", "dense"]))
def test_kernel_round_trip_matches_solve(g, variant):
    want = solve(g, SolverConfig(variant=variant)).solution.weight
    kr = reduce_to_kernel(copy_graph(g), variant=variant)
    kernel_opt = brute_force_mwis(kr.kernel)
    assert kr.offset + kernel_opt.weight == want
    assert verify_independent_set(g, kr.lift(kernel_opt.vertices)) == want


meta_graphs = small_graphs(max_n=16) | small_graphs(max_n=16, max_w=10**6)


@settings(max_examples=300, deadline=None)
@given(meta_graphs, st.data())
def test_subsolve_matches_oracle(g, data):
    keep = data.draw(st.lists(st.booleans(), min_size=g.n_alive, max_size=g.n_alive))
    verts = [v for v, k in enumerate(keep) if k]
    assert reductions.subgraph_mwis_weight(g, verts) == oracle.subgraph_mwis_weight(g, verts)


@settings(max_examples=300, deadline=None)
@given(meta_graphs)
def test_meta_rule_matches_unfiltered_rule(g):
    eng = ReductionEngine(g)
    for v in range(g.n_alive):
        for u in list(g.neighbors(v)):
            nu = set(g.neighbors(u))
            local = [x for x in g.neighbors(v) if x != u and x not in nu]
            want = (len(local) <= reductions.MAX_META_SIZE
                    and oracle.subgraph_mwis_weight(g, local) + g.weight(u) <= g.weight(v))
            mark = eng.checkpoint()
            assert eng.neighbor_removal_meta(v, u) is want
            assert g.is_alive(u) is not want
            eng.rollback(mark)


@st.composite
def sparse_graphs(draw, max_n=40, max_w=6, min_w=1):
    n = draw(st.integers(1, max_n))
    weights = draw(st.lists(st.integers(min_w, max_w), min_size=n, max_size=n))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), min_size=n // 2, max_size=3 * n))
    return WeightedGraph(weights, {(min(u, v), max(u, v)) for u, v in pairs if u != v})


ls_graphs = (sparse_graphs() | sparse_graphs(max_w=10**6) | small_graphs(max_w=10**6)).filter(
    lambda g: g.n_alive > 0)
ls_ops = st.lists(st.tuples(st.sampled_from(["rounds"] * 4 + ["omega", "swap"]),
                            st.integers(0, 60)), min_size=1, max_size=6)


def _same_search(new, ref):
    assert [int(x) for x in new.in_sol] == [int(x) for x in ref.in_sol]
    assert [int(x) for x in new.best_sol] == [int(x) for x in ref.best_sol]
    assert [int(x) for x in new.state[:ls_reference.STATE_LEN]] == [int(x) for x in ref.state]


@settings(max_examples=300, deadline=None)
@given(ls_graphs, st.integers(0, 2**64), ls_ops)
def test_worklist_descent_replays_the_sweep(g, seed, ops):
    new, ref = LsState(g, seed=seed), ls_reference.SweepLs(g, seed=seed)
    for op, k in ops:
        if op == "rounds":
            new.run_rounds(k)
            ref.run_rounds(k)
        else:  # a manual move, then the search resumes from it
            v = k % g.n_alive
            move = "omega_one_swap" if op == "omega" else "weighted_one_two_swap"
            assert getattr(new, move)(v) == getattr(ref, move)(v)
        _same_search(new, ref)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_worklist_descent_replays_the_sweep_on_larger_graphs(seed):
    # many moves per pass, so marks raised ahead of the cursor matter
    g = gnm_graph(seed, 300, 750)
    new, ref = LsState(g, seed=seed), ls_reference.SweepLs(g, seed=seed)
    for k in (0, 1, 30, 33):
        new.run_rounds(k)
        ref.run_rounds(k)
        _same_search(new, ref)


flow_graphs = st.one_of(*(maker(max_n=30, max_w=hi, min_w=lo)
                          for maker in (small_graphs, sparse_graphs)
                          for lo, hi in ((1, 6), (1, 10**6), (2**64, 2**66))))


@settings(max_examples=300, deadline=None)
@given(flow_graphs)
def test_flow_matches_reference(g):
    assert critical_weighted_set(g) == flow_reference.critical_weighted_set(g)


engine_ops = st.lists(st.tuples(st.sampled_from(
    ["include", "exclude", "reduce", "cwis", "cwis", "checkpoint", "rollback"]),
    st.integers(0, 10**6)), min_size=1, max_size=14)


@settings(max_examples=200, deadline=None)
@given(sparse_graphs(max_n=24) | sparse_graphs(max_n=24, max_w=10**6), engine_ops)
def test_warm_started_flows_match_cold_calls(g, ops):
    flows = []

    def spy(graph, flow=None, deadline=None):
        cold = critical_weighted_set(graph)
        warm = critical_weighted_set(graph, flow, deadline)
        assert warm == cold
        flows.append(warm)
        return warm

    eng = ReductionEngine(g)
    marks = []
    # True while the graph is unedited since a critical-set call that fired
    # or found nothing, when that rule cannot fire and runs no flow
    settled = False
    with mock.patch.object(reductions, "critical_weighted_set", spy):
        for op, k in ops:
            alive = sorted(g.alive_vertices())
            if op in ("include", "exclude") and alive:
                v = alive[k % len(alive)]
                eng.include_vertex(v) if op == "include" else eng.exclude_vertex(v)
                settled = False
            elif op == "reduce":
                eng.reduce()  # full variant: ends on a critical-set call that did not fire
                settled = True
            elif op == "cwis":
                before = len(flows)
                eng.cwis_reduction()
                assert len(flows) - before == (0 if settled or not alive else 1)
                settled = True
            elif op == "checkpoint":
                marks.append(eng.checkpoint())
            elif op == "rollback" and marks:
                eng.rollback(marks.pop())
                settled = False
