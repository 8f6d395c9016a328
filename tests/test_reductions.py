"""Reduction rules: worked examples, safety, lifting, and scheduling."""

from copy import deepcopy

import pytest

from helpers import (ScanEngine, clique_graph, copy_graph, cubic_graph, cycle_graph,
                     gnm_graph, path_graph, random_graph, random_tree, star_graph,
                     structured_family, twin_gadget_graph)
from mwis import (CertificateError, GraphError, ReductionEngine, WeightedGraph,
                  brute_force_mwis, critical_weighted_set, lift_solution,
                  reduce_to_kernel, select_branch_vertex)
from mwis import reductions
from mwis.solution import verify_independent_set

PETERSEN_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                  (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                  (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]


def petersen(weights=None):
    return WeightedGraph(weights or [1] * 10, PETERSEN_EDGES)


def check_alpha_preserved(g, engine):
    """alpha(original) == alpha(kernel) + offset, and the lifted kernel
    optimum is a valid optimal set of the original."""
    original = copy_graph(g)
    want = brute_force_mwis(original).weight
    kernel_opt = brute_force_mwis(engine.g)
    assert kernel_opt.weight + engine.offset == want
    lifted = lift_solution(kernel_opt.vertices, engine.records)
    assert verify_independent_set(original, lifted) == want


# ----------------------------------------------------------------------
# neighborhood removal
# ----------------------------------------------------------------------

def test_neighborhood_removal_star():
    g = star_graph(10, [3, 3, 3])
    eng = ReductionEngine(g)
    assert eng._try_neighborhood_removal(0)
    assert g.n_alive == 0 and eng.offset == 10
    assert lift_solution((), eng.records) == {0}


def test_neighborhood_removal_isolated_vertex():
    g = WeightedGraph([5])
    eng = ReductionEngine(g)
    assert eng._try_neighborhood_removal(0)
    assert eng.offset == 5


def test_neighborhood_removal_triangle_oracle():
    g = clique_graph([5, 2, 2])
    eng = ReductionEngine(g)
    assert eng._try_neighborhood_removal(0)
    check_alpha_preserved(clique_graph([5, 2, 2]), eng)


def test_neighborhood_removal_not_applicable():
    g = star_graph(5, [3, 3])
    eng = ReductionEngine(g)
    assert not eng._try_neighborhood_removal(0)
    assert eng.offset == 0 and g.n_alive == 3


# ----------------------------------------------------------------------
# neighbor removal (meta)
# ----------------------------------------------------------------------

def test_neighbor_removal_meta_empty_subproblem():
    # u adjacent to v and to all of N(v): the local subproblem is empty
    g = WeightedGraph([6, 2, 1, 1],
                      [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    eng = ReductionEngine(g)
    assert eng.neighbor_removal_meta(0, 1)
    assert not g.is_alive(1)
    check_alpha_preserved(WeightedGraph([6, 2, 1, 1],
                                        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]), eng)


def test_neighbor_removal_meta_small_subproblem():
    g = WeightedGraph([4, 1, 2], [(0, 1), (0, 2)])
    eng = ReductionEngine(g)
    assert eng.neighbor_removal_meta(0, 1)
    assert not g.is_alive(1)
    check_alpha_preserved(WeightedGraph([4, 1, 2], [(0, 1), (0, 2)]), eng)


def test_neighbor_removal_meta_condition_fails():
    g = WeightedGraph([3, 2, 2], [(0, 1), (0, 2)])
    eng = ReductionEngine(g)
    assert not eng.neighbor_removal_meta(0, 1)
    assert g.n_alive == 3


def test_neighbor_removal_meta_weight_tests_skip_the_subsolve(monkeypatch):
    calls = []

    def spy(graph, vertices):
        calls.append(sorted(vertices))
        return exact(graph, vertices)

    exact = reductions.subgraph_mwis_weight
    monkeypatch.setattr(reductions, "subgraph_mwis_weight", spy)
    # slack 5 - 3 = 2 < leaf 4: the max test rejects
    assert not ReductionEngine(star_graph(5, [3, 4])).neighbor_removal_meta(0, 1)
    # slack 2 - 3 < 0: rejected before the local set is built
    assert not ReductionEngine(star_graph(2, [3, 1])).neighbor_removal_meta(0, 1)
    # slack 10 - 3 = 7 >= 4 + 2: the sum test accepts
    g = star_graph(10, [3, 4, 2])
    assert ReductionEngine(g).neighbor_removal_meta(0, 1)
    assert not g.is_alive(1)
    assert calls == []
    # slack 5 - 1 = 4 lies between max 3 and sum 5: only the subsolve decides
    assert not ReductionEngine(star_graph(5, [1, 2, 3])).neighbor_removal_meta(0, 1)
    assert calls == [[2, 3]]


@pytest.mark.parametrize("wv, applies", [(2**64 + 1, True), (2**64, False)])
def test_neighbor_removal_meta_past_int64(wv, applies):
    # total weight far above 2**63 - 1; the local optimum 2**64 (vertices 3
    # and 4, not 2) decides against the slack wv - 1 only when summed exactly
    big = 2**63
    g = WeightedGraph([wv, 1, big, big, big],
                      [(0, 1), (0, 2), (0, 3), (0, 4), (2, 3), (2, 4)])
    assert reductions.subgraph_mwis_weight(g, [2, 3, 4]) == 2**64
    assert ReductionEngine(g).neighbor_removal_meta(0, 1) is applies
    assert g.is_alive(1) is not applies


# ----------------------------------------------------------------------
# neighborhood folding
# ----------------------------------------------------------------------

def test_neighborhood_folding_path():
    g = path_graph([2, 3, 2])
    eng = ReductionEngine(g)
    assert eng._try_neighborhood_folding(1)
    assert eng.offset == 3
    (vid,) = g.alive_vertices()
    assert g.weight(vid) == 1
    check_alpha_preserved(path_graph([2, 3, 2]), eng)


def test_neighborhood_folding_blocked_by_light_neighborhood():
    g = path_graph([1, 5, 1])
    eng = ReductionEngine(g)
    assert not eng._try_neighborhood_folding(1)


def test_neighborhood_folding_blocked_by_second_condition():
    g = star_graph(3, [4, 4])
    eng = ReductionEngine(g)
    assert not eng._try_neighborhood_folding(0)


def test_neighborhood_folding_lift_both_ways():
    # kernel vertex chosen -> take the old neighborhood, else take v
    g = path_graph([2, 3, 2])
    eng = ReductionEngine(g)
    eng._try_neighborhood_folding(1)
    (vid,) = g.alive_vertices()
    assert lift_solution((vid,), eng.records) == {0, 2}
    assert lift_solution((), eng.records) == {1}


# ----------------------------------------------------------------------
# isolated vertex removal
# ----------------------------------------------------------------------

def test_isolated_removal_triangle():
    g = clique_graph([5, 3, 2])
    eng = ReductionEngine(g)
    assert eng._try_isolated_vertex_removal(0)
    assert eng.offset == 5 and g.n_alive == 0
    check_alpha_preserved(clique_graph([5, 3, 2]), eng)


def test_isolated_removal_k4_symmetric():
    g = clique_graph([7, 7, 7, 7])
    eng = ReductionEngine(g)
    assert eng._try_isolated_vertex_removal(2)
    assert eng.offset == 7


def test_isolated_removal_blocked_by_heavier_mate():
    g = clique_graph([5, 6, 2])
    eng = ReductionEngine(g)
    assert not eng._try_isolated_vertex_removal(0)


# ----------------------------------------------------------------------
# isolated weight transfer
# ----------------------------------------------------------------------

def test_weight_transfer_example():
    g = WeightedGraph([4, 3, 6, 5], [(0, 1), (0, 2), (1, 2), (2, 3)])
    eng = ReductionEngine(g)
    assert eng._try_isolated_weight_transfer(0)
    assert eng.offset == 4
    assert not g.is_alive(0) and not g.is_alive(1)
    assert g.weight(2) == 2
    check_alpha_preserved(WeightedGraph([4, 3, 6, 5],
                                        [(0, 1), (0, 2), (1, 2), (2, 3)]), eng)


def test_weight_transfer_lift_guard():
    g = WeightedGraph([4, 3, 6, 5], [(0, 1), (0, 2), (1, 2), (2, 3)])
    eng = ReductionEngine(g)
    eng._try_isolated_weight_transfer(0)
    # kernel = {2: w2, 3: w5}; picking 2 blocks v, picking 3 releases it
    assert lift_solution((2,), eng.records) == {2}
    assert lift_solution((3,), eng.records) == {0, 3}


def test_weight_transfer_degenerates_to_isolated_removal():
    g = clique_graph([5, 3, 2])
    eng = ReductionEngine(g)
    assert eng._try_isolated_weight_transfer(0)
    assert eng.offset == 5 and g.n_alive == 0
    assert lift_solution((), eng.records) == {0}


def test_weight_transfer_blocked_by_heavier_isolated_mate():
    g = clique_graph([4, 3, 6])
    eng = ReductionEngine(g)
    assert not eng._try_isolated_weight_transfer(0)


def test_weight_transfer_needs_a_removable_neighbor():
    # vertex 0 is simplicial but every clique mate is strictly heavier, so
    # the transfer would delete no neighbor and must not fire
    g = WeightedGraph([2, 5, 6, 1, 1], [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])
    eng = ReductionEngine(g)
    assert not eng._try_isolated_weight_transfer(0)
    assert g.n_alive == 5


# ----------------------------------------------------------------------
# weighted vertex folding
# ----------------------------------------------------------------------

def test_vertex_folding_path():
    g = path_graph([2, 3, 2])
    eng = ReductionEngine(g)
    assert eng._try_weighted_vertex_folding(1)
    assert eng.offset == 3
    (vid,) = g.alive_vertices()
    assert g.weight(vid) == 1
    check_alpha_preserved(path_graph([2, 3, 2]), eng)


def test_vertex_folding_weight_condition_fails():
    g = path_graph([4, 3, 2])
    eng = ReductionEngine(g)
    assert not eng._try_weighted_vertex_folding(1)


def test_vertex_folding_cycle4():
    original = cycle_graph([2, 3, 2, 3])
    g = cycle_graph([2, 3, 2, 3])
    eng = ReductionEngine(g)
    assert eng._try_weighted_vertex_folding(1)
    check_alpha_preserved(original, eng)


def test_vertex_folding_lift():
    g = path_graph([2, 3, 2])
    eng = ReductionEngine(g)
    eng._try_weighted_vertex_folding(1)
    (vid,) = g.alive_vertices()
    assert lift_solution((vid,), eng.records) == {0, 2}
    assert lift_solution((), eng.records) == {1}


# ----------------------------------------------------------------------
# weighted twin
# ----------------------------------------------------------------------

def test_twin_include_case():
    g = structured_family()["twin_include"]
    eng = ReductionEngine(g)
    assert eng._try_weighted_twin(0)
    assert eng.offset == 10 and g.n_alive == 0
    assert lift_solution((), eng.records) == {0, 1}


def test_twin_fold_case():
    original = structured_family()["twin_fold"]
    g = structured_family()["twin_fold"]
    eng = ReductionEngine(g)
    assert eng._try_weighted_twin(0)
    assert eng.offset == 7
    vid = max(g.alive_vertices())
    assert g.weight(vid) == 2
    check_alpha_preserved(original, eng)
    assert lift_solution((vid,), eng.records) == {2, 3, 4}
    assert lift_solution((), eng.records) == {0, 1}


def test_twin_neither_case():
    g = WeightedGraph([2, 2, 3, 3, 3],
                      [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    eng = ReductionEngine(g)
    assert not eng._try_weighted_twin(0)


def test_twin_requires_independent_neighborhood():
    g = WeightedGraph([5, 5, 3, 3, 3],
                      [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)])
    eng = ReductionEngine(g)
    assert not eng._try_weighted_twin(0)


# ----------------------------------------------------------------------
# weighted domination
# ----------------------------------------------------------------------

def test_domination_example():
    # N[3] = {0,1,3} is inside N[0] = {0,1,2,3} and w(0) <= w(3)
    original = structured_family()["domination"]
    g = structured_family()["domination"]
    eng = ReductionEngine(g)
    assert eng._try_weighted_domination(3)
    assert not g.is_alive(0) and eng.offset == 0
    check_alpha_preserved(original, eng)


def test_domination_equal_true_twins_keep_lower_id():
    g = WeightedGraph([4, 4, 1], [(0, 1), (0, 2), (1, 2)])
    eng = ReductionEngine(g)
    eng.reduce(initial=True)
    # the reduction pass must have dropped exactly one of the twins first;
    # afterwards everything else reduces away too
    assert eng.stats["weighted_domination"] >= 1
    check_alpha_preserved(WeightedGraph([4, 4, 1], [(0, 1), (0, 2), (1, 2)]), eng)
    for v in (0, 1):  # whichever twin the rule is tried at, vertex 1 goes
        g = WeightedGraph([4, 4, 1], [(0, 1), (0, 2), (1, 2)])
        assert ReductionEngine(g)._try_weighted_domination(v)
        assert list(g.alive_vertices()) == [0, 2]


def test_domination_blocked_by_weight():
    # 0 dominates 1 structurally but is heavier, so 0 must stay
    for v in (0, 1, 2):
        g = WeightedGraph([5, 3, 2], [(0, 1), (0, 2), (1, 2)])
        assert ReductionEngine(g)._try_weighted_domination(v)
        assert g.is_alive(0)


# ----------------------------------------------------------------------
# critical weighted set reduction
# ----------------------------------------------------------------------

def test_cwis_edge():
    g = WeightedGraph([5, 1], [(0, 1)])
    eng = ReductionEngine(g)
    assert eng.cwis_reduction()
    assert eng.offset == 5 and g.n_alive == 0
    assert lift_solution((), eng.records) == {0}


def test_cwis_c4_unit_no_op():
    g = cycle_graph([1] * 4)
    eng = ReductionEngine(g)
    assert not eng.cwis_reduction()
    assert g.n_alive == 4


def test_cwis_star():
    g = star_graph(1, [2, 2, 2])
    eng = ReductionEngine(g)
    assert eng.cwis_reduction()
    assert eng.offset == 6
    assert lift_solution((), eng.records) == {1, 2, 3}


def test_cwis_flow_runs_only_when_it_can_fire(monkeypatch):
    calls = []

    def spy(graph, flow=None, deadline=None):
        calls.append(graph.n_alive)
        return critical_weighted_set(graph, flow, deadline)

    monkeypatch.setattr(reductions, "critical_weighted_set", spy)
    # an edge the rule takes apart, next to a unit triangle it cannot reduce
    g = WeightedGraph([5, 1, 1, 1, 1], [(0, 1), (2, 3), (2, 4), (3, 4)])
    eng = ReductionEngine(g)
    assert eng.cwis_reduction() and g.n_alive == 3
    assert not eng.cwis_reduction() and calls == [5]  # nothing left to find
    eng.rollback(eng.checkpoint())  # even an empty rollback forgets that
    assert not eng.cwis_reduction() and calls == [5, 3]
    assert not eng.cwis_reduction() and calls == [5, 3]
    eng.exclude_vertex(2)
    assert not eng.cwis_reduction() and calls == [5, 3, 2]


# ----------------------------------------------------------------------
# reduce_to_kernel and lifting
# ----------------------------------------------------------------------

def test_kernel_irreducible_input_unchanged():
    g = petersen()
    before = g.canonical_serialization()
    kr = reduce_to_kernel(g)
    assert kr.offset == 0 and kr.stack == ()
    assert g.canonical_serialization() == before


def test_kernel_trees_reduce_to_empty():
    for seed in range(25):
        n = 1 + seed % 15
        g = random_tree(seed, n)
        original = copy_graph(g)
        want = brute_force_mwis(g).weight
        kr = reduce_to_kernel(g)
        assert kr.kernel.n_alive == 0
        assert kr.offset == want
        assert verify_independent_set(original, lift_solution((), kr.stack)) == want


def test_kernel_transfer_topology_matches_oracle():
    original = structured_family()["transfer"]
    g = structured_family()["transfer"]
    kr = reduce_to_kernel(g)
    want = brute_force_mwis(original).weight
    kernel_best = brute_force_mwis(kr.kernel)
    assert kr.offset + kernel_best.weight == want
    lifted = kr.lift(kernel_best.vertices)
    assert verify_independent_set(original, lifted) == want


def test_lift_empty_kernel_forced_vertices():
    g = WeightedGraph([5, 1, 7, 1], [(0, 1), (2, 3)])
    kr = reduce_to_kernel(g)
    assert kr.kernel.n_alive == 0
    assert lift_solution((), kr.stack) == {0, 2}


def test_lift_rejects_non_independent_input():
    g = petersen([1, 1, 1, 1, 1, 1, 1, 1, 1, 1])
    kr = reduce_to_kernel(g)
    with pytest.raises(CertificateError):
        kr.lift((0, 1))


# ----------------------------------------------------------------------
# safety of every rule in isolation
# ----------------------------------------------------------------------

RULES = reductions.LOCAL_RULES + (reductions.CRITICAL_RULE,)


def apply_rule_once(engine, rule):
    if rule == reductions.CRITICAL_RULE:
        return engine.cwis_reduction()
    try_fn = getattr(engine, "_try_" + rule)
    for v in sorted(engine.g.alive_vertices()):
        if try_fn(v):
            return True
    return False


def _safety_instance(rule, seed):
    if rule == "weighted_twin":
        return twin_gadget_graph(seed)
    n = 1 + seed % 14
    p = [0.15, 0.35, 0.6][seed % 3]
    return random_graph(seed, n, p, wmax=8)


@pytest.mark.parametrize("rule", RULES)
def test_rule_safety_on_random_graphs(rule):
    applied = 0
    for seed in range(120):
        g = _safety_instance(rule, seed)
        original = copy_graph(g)
        before_alive = g.n_alive
        eng = ReductionEngine(g)
        if not apply_rule_once(eng, rule):
            continue
        applied += 1
        assert g.n_alive < before_alive  # every application shrinks the graph
        want = brute_force_mwis(original).weight
        kernel_opt = brute_force_mwis(g)
        assert kernel_opt.weight + eng.offset == want, f"{rule} seed {seed}"
        lifted = lift_solution(kernel_opt.vertices, eng.records)
        assert verify_independent_set(original, lifted) == want, f"{rule} seed {seed}"
    assert applied >= 5, f"{rule} never applied; generator too narrow"


@pytest.mark.parametrize("name", sorted(structured_family()))
def test_rule_safety_on_structured_instances(name):
    for rule in RULES:
        original = structured_family()[name]
        g = structured_family()[name]
        eng = ReductionEngine(g)
        if not apply_rule_once(eng, rule):
            continue
        want = brute_force_mwis(original).weight
        kernel_opt = brute_force_mwis(g)
        assert kernel_opt.weight + eng.offset == want, (name, rule)
        lifted = lift_solution(kernel_opt.vertices, eng.records)
        assert verify_independent_set(original, lifted) == want, (name, rule)


# ----------------------------------------------------------------------
# scheduling properties
# ----------------------------------------------------------------------

def test_fixpoint_no_rule_reapplies():
    for seed in range(15):
        g = random_graph(seed, 14, 0.3)
        reduce_to_kernel(g)
        eng = ScanEngine(g)
        eng.reduce(initial=True)
        assert eng.offset == 0 and not eng.records
        assert sum(eng.stats.values()) == 0


def test_queue_equals_scan_scheduling():
    for seed in range(40):
        n = 1 + seed % 16
        g1 = random_graph(seed, n, 0.3)
        g2 = copy_graph(g1)
        e1 = ReductionEngine(g1)
        e2 = ScanEngine(g2)
        e1.reduce(initial=True)
        e2.reduce(initial=True)
        assert g1.canonical_serialization() == g2.canonical_serialization()
        assert e1.offset == e2.offset
        assert e1.records == e2.records


def test_screens_reject_only_where_the_rule_cannot_fire():
    # a vertex kept out of a rule's queue could only have been popped to fail
    rejected = dict.fromkeys(reductions.LOCAL_RULES, 0)
    for seed in range(60):
        n = 2 + seed % 14
        g = random_graph(seed, n, [0.1, 0.25, 0.5][seed % 3], wmax=[1, 4, 50][seed // 3 % 3])
        w, adj, s = g.plain_lists()
        for v in g.alive_vertices():
            screens = reductions._screens(len(adj[v]), w[v], s[v])
            for rule, ok in zip(reductions.LOCAL_RULES, screens):
                if ok:
                    continue
                rejected[rule] += 1
                copy = copy_graph(g)
                before = copy.canonical_serialization()
                assert not getattr(ReductionEngine(copy), "_try_" + rule)(v), (seed, v, rule)
                assert copy.canonical_serialization() == before
    screened = [r for r in reductions.LOCAL_RULES
                if r not in ("weighted_domination", "neighbor_removal_meta")]
    assert all(rejected[r] > 0 for r in screened), rejected


def test_a_refused_fold_changes_nothing():
    # The fresh vertex would weigh w(0) - w(1) = -2: the graph refuses it
    # before the group goes, so the graph, its log, the records, the offset
    # and the queues stay as they were.
    g = WeightedGraph([3, 5, 1], [(0, 1), (1, 2)])
    eng = ReductionEngine(g)
    before, queues = g.canonical_serialization(), deepcopy(eng._queues)
    with pytest.raises(GraphError):
        eng.fold((0,), (1,), "x")
    assert g.canonical_serialization() == before and g.checkpoint() == 0
    assert eng.records == [] and eng.offset == 0 and eng._queues == queues


def test_dense_branch_reduce_leaves_no_queue_filled():
    # Below the root a dense reduce drains only a prefix of the rules; the
    # queues of the two it drops must not collect vertices that no drain
    # pops, nor their far sets touched vertices that no drain looks around.
    g = gnm_graph(1, 150, 375)
    eng = ReductionEngine(g, variant="dense")
    eng.reduce(initial=True)
    assert g.n_alive > 0
    eng.include((select_branch_vertex(g),))
    eng.reduce()
    assert all(not heap and not members for heap, members, _ in eng._queues)
    dropped = eng._queues[reductions._DENSE_BRANCH_RULES:]
    assert [far for _, _, far in dropped] == [None, set()]


def test_reduce_dispatches_through_the_class_try_attribute(monkeypatch):
    # Tracing counts rule calls by wrapping ReductionEngine._try_<rule>; the
    # scheduler must look the rule up there at call time.
    results = []
    original = ReductionEngine._try_weighted_vertex_folding

    def counting(self, v):
        results.append(original(self, v))
        return results[-1]

    eng = ReductionEngine(path_graph([2, 3, 2]))
    monkeypatch.setattr(ReductionEngine, "_try_weighted_vertex_folding", counting)
    eng.reduce()
    assert True in results
    assert eng.stats["weighted_vertex_folding"] == results.count(True)


def test_kernel_alpha_identity_random():
    for seed in range(60):
        n = 1 + seed % 15
        g = random_graph(seed, n, [0.1, 0.3, 0.6][seed % 3])
        original = copy_graph(g)
        want = brute_force_mwis(original).weight
        kr = reduce_to_kernel(g)
        kernel_opt = brute_force_mwis(kr.kernel)
        assert kr.offset + kernel_opt.weight == want
        lifted = kr.lift(kernel_opt.vertices)
        assert verify_independent_set(original, lifted) == want


@pytest.mark.parametrize("make, want", [
    (lambda: gnm_graph(1, 5000, 12500), (3728, 8985, 72442, 558)),
    (lambda: cubic_graph(1, 5000, wmax=1), (5000, 7500, 0, 0)),
], ids=["gnm", "cubic-unit"])
def test_large_kernels_are_pinned(make, want):
    # A critical-set flow that reads a different cut moves these at once.
    kr = reduce_to_kernel(make())
    assert (kr.kernel.n_alive, kr.kernel.m_alive, kr.offset, len(kr.stack)) == want
