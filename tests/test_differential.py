"""Differential checks on generated graphs: variants, scheduling modes, the
engine's screens against an engine that queues every touched vertex, the
kernel round trip against the solver, the meta rule's subsolve and weight
tests against the brute-force oracle, the local search's worklist descent
against the full sweep it replays, and the critical-set flow, cold and warm
started, against the generic max flow it replaced."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flow_reference
import ls_reference
import mwis.solver
from helpers import (ScanEngine, UnscreenedEngine, copy_graph, cubic_graph,
                     gnm_graph, small_graphs)
from mwis import (LsState, ReductionEngine, SolverConfig, WeightedGraph,
                  brute_force_mwis, critical, critical_weighted_set,
                  reduce_to_kernel, reductions, solve)
from mwis.critical import critical_value_at_most
from mwis.solution import verify_independent_set


@settings(max_examples=300, deadline=None)
@given(small_graphs())
def test_variants_and_modes_agree(g):
    weights = {variant: solve(g, SolverConfig(variant=variant)).solution.weight
               for variant in ("full", "dense")}
    assert weights["full"] == weights["dense"]
    for variant in ("full", "dense"):
        queue, scan = copy_graph(g), copy_graph(g)
        eq = ReductionEngine(queue, variant=variant)
        es = ScanEngine(scan, variant=variant)
        eq.reduce(initial=True)
        es.reduce(initial=True)
        assert queue.canonical_serialization() == scan.canonical_serialization()
        assert eq.offset == es.offset
        assert eq.records == es.records


@settings(max_examples=300, deadline=None)
@given(small_graphs(), st.sampled_from(["full", "dense"]))
def test_screened_engine_matches_the_unscreened_one(g, variant):
    screened, unscreened = copy_graph(g), copy_graph(g)
    es = ReductionEngine(screened, variant=variant)
    eu = UnscreenedEngine(unscreened, variant=variant)
    es.reduce(initial=True)
    eu.reduce(initial=True)
    assert es.records == eu.records
    assert es.offset == eu.offset
    assert es.stats == eu.stats
    assert screened.canonical_serialization() == unscreened.canonical_serialization()
    want = solve(g, SolverConfig(variant=variant))
    with mock.patch.object(mwis.solver, "ReductionEngine", UnscreenedEngine):
        ref = solve(g, SolverConfig(variant=variant))
    assert want.solution == ref.solution
    assert want.stats == ref.stats  # nodes, prunes, lp_flows, rule_applications, ...


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
    want = brute_force_mwis(g.induced_subgraph(verts)[0]).weight
    assert reductions.subgraph_mwis_weight(g, verts) == want


@settings(max_examples=300, deadline=None)
@given(meta_graphs)
def test_meta_rule_matches_unfiltered_rule(g):
    eng = ReductionEngine(g)
    for v in range(g.n_alive):
        for u in list(g.neighbors(v)):
            nu = set(g.neighbors(u))
            local = [x for x in g.neighbors(v) if x != u and x not in nu]
            want = (len(local) <= reductions.MAX_META_SIZE
                    and brute_force_mwis(g.induced_subgraph(local)[0]).weight + g.weight(u)
                    <= g.weight(v))
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
ls_rounds = st.lists(st.integers(0, 60), min_size=1, max_size=6)


def _same_search(new, ref):
    assert [int(x) for x in new.in_sol] == [int(x) for x in ref.in_sol]
    assert [int(x) for x in new.best_sol] == [int(x) for x in ref.best_sol]
    assert [int(x) for x in new.state[:ls_reference.STATE_LEN]] == [int(x) for x in ref.state]


@settings(max_examples=300, deadline=None)
@given(ls_graphs, st.integers(0, 2**64), ls_rounds)
def test_worklist_descent_replays_the_sweep(g, seed, rounds):
    new, ref = LsState(g, seed=seed), ls_reference.SweepLs(g, seed=seed)
    for k in rounds:
        new.run_rounds(k)
        ref.run_rounds(k)
        _same_search(new, ref)


# the hand-built graphs of the moves' spec tests in test_local_search.py,
# which run the reference's moves: here they run the search itself
spec_graphs = [([9, 3, 4], [(0, 1), (0, 2)]),
               ([7, 3, 4], [(0, 1), (0, 2)]),
               ([2, 2], []),
               ([3, 2, 2], [(0, 1), (0, 2)]),
               ([3, 2, 2], [(0, 1), (0, 2), (1, 2)]),
               ([5, 4, 4, 3, 2, 9], [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (5, 4)])]


@pytest.mark.parametrize("weights, edges", spec_graphs)
@pytest.mark.parametrize("seed", range(5))
def test_worklist_descent_replays_the_sweep_on_the_spec_graphs(weights, edges, seed):
    g = WeightedGraph(weights, edges)
    new, ref = LsState(g, seed=seed), ls_reference.SweepLs(g, seed=seed)
    for k in (0, 1, 2, 5):
        new.run_rounds(k)
        ref.run_rounds(k)
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


def _near_2_64(g):
    return WeightedGraph([2**64 - g.weight(v) for v in range(g.n_total)],
                         [(u, v) for u in range(g.n_total) for v in g.neighbors(u) if u < v])


def test_flow_matches_reference_on_large_graphs():
    # Long augmenting paths and many phases, which the small hypothesis
    # graphs above never reach; cold and warm started, and stopped early.
    phases = []
    for g in (gnm_graph(1, 2000, 4000), gnm_graph(2, 2000, 5000),
              cubic_graph(1, 2000, wmax=1), _near_2_64(gnm_graph(3, 2000, 4000))):
        with mock.patch.object(critical, "_blocking_flow",
                               wraps=critical._blocking_flow) as blocking:
            cold = critical_weighted_set(g)
        phases.append(blocking.call_count)
        assert cold == flow_reference.critical_weighted_set(g)
        value, total = cold[1], g.w_alive
        for stop in (0, value - 1, value, value + 1, value + (total - value) // 8, total):
            flow = []
            at_most = critical_value_at_most(g, flow, None, stop)
            got = total - sum(a for _, _, a in flow)  # the bound the flow reached
            assert value <= got <= stop if value <= stop else got == value, stop
            assert at_most == (value <= stop)

        def spy(graph, flow=None, deadline=None):
            warm = critical_weighted_set(graph, flow, deadline)
            assert warm == critical_weighted_set(graph)
            flows.append(warm)
            return warm

        flows, marks, rng = [], [], random.Random(g.n_total + g.w_alive)
        eng = ReductionEngine(g)
        with mock.patch.object(reductions, "critical_weighted_set", spy):
            for op in ("cwis", "exclude", "cwis", "checkpoint", "include", "exclude",
                       "cwis", "rollback", "cwis", "include", "cwis"):
                v = rng.choice(sorted(g.alive_vertices()))
                if op == "include":
                    eng.include_vertex(v)
                elif op == "exclude":
                    eng.exclude_vertex(v)
                elif op == "checkpoint":
                    marks.append(eng.checkpoint())
                elif op == "rollback":
                    eng.rollback(marks.pop())
                else:
                    eng.cwis_reduction()
        assert len(flows) == 5  # each call is the first or follows an edit, so runs a flow
    assert max(phases) >= 10


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
