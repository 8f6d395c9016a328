"""Differential checks on generated graphs: variants, scheduling modes, the
kernel round trip against the solver, and the meta rule's subsolve and weight
tests against the brute-force oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import copy_graph
from mwis import (ReductionEngine, SolverConfig, WeightedGraph,
                  brute_force_mwis, oracle, reduce_to_kernel, reductions, solve)
from mwis.solution import verify_independent_set


@st.composite
def small_graphs(draw, max_n=12, max_w=6):
    n = draw(st.integers(0, max_n))
    weights = draw(st.lists(st.integers(1, max_w), min_size=n, max_size=n))  # ties are common
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
