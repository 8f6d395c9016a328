"""Deterministic graph builders and reference checks shared by the tests."""

import heapq
import random
import sys

from hypothesis import strategies as st

from mwis import ReductionEngine, WeightedGraph, critical_weighted_set
from mwis.reductions import CRITICAL_RULE

# Every rule the safety tests apply on its own: the local rules a reduce
# drains, with the two simplicial-vertex rules it does not drain listed
# after vertex folding, where the schedule once had them, then the critical
# rule.
RULES = ("neighborhood_removal", "weighted_domination", "weighted_vertex_folding",
         "isolated_vertex_removal", "isolated_weight_transfer", "weighted_twin",
         "neighborhood_folding", "neighbor_removal_meta", CRITICAL_RULE)


def random_graph(seed, n, p, wmax=200):
    rng = random.Random(seed)
    weights = [rng.randint(1, wmax) for _ in range(n)]
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return WeightedGraph(weights, edges)


def gnm_graph(seed, n, m, wmax=200):
    rng = random.Random(seed)
    weights = [rng.randint(1, wmax) for _ in range(n)]
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return WeightedGraph(weights, sorted(edges))


def cubic_graph(seed, n, wmax=200):
    """Random simple 3-regular graph on an even ``n``: a random pairing of
    three points per vertex, redrawn until it has no loop or repeated edge."""
    rng = random.Random(seed)
    weights = [rng.randint(1, wmax) for _ in range(n)]
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2]) if a != b}
        if len(edges) == 3 * n // 2:
            return WeightedGraph(weights, sorted(edges))


def random_tree(seed, n, wmax=200):
    rng = random.Random(seed)
    weights = [rng.randint(1, wmax) for _ in range(n)]
    edges = [(rng.randint(0, v - 1), v) for v in range(1, n)]
    return WeightedGraph(weights, edges)


@st.composite
def small_graphs(draw, max_n=12, max_w=6, min_w=1):
    """Hypothesis strategy: a graph on at most ``max_n`` vertices with
    weights in ``min_w..max_w`` and any edge set."""
    n = draw(st.integers(0, max_n))
    weights = draw(st.lists(st.integers(min_w, max_w), min_size=n, max_size=n))  # ties are common
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return WeightedGraph(weights, [e for e, k in zip(pairs, keep) if k])


def path_graph(weights):
    return WeightedGraph(weights, [(i, i + 1) for i in range(len(weights) - 1)])


def cycle_graph(weights):
    n = len(weights)
    return WeightedGraph(weights, [(i, (i + 1) % n) for i in range(n)])


def star_graph(center_weight, leaf_weights):
    return WeightedGraph([center_weight] + list(leaf_weights),
                         [(0, i + 1) for i in range(len(leaf_weights))])


def clique_graph(weights):
    n = len(weights)
    return WeightedGraph(weights, [(u, v) for u in range(n) for v in range(u + 1, n)])


def twin_gadget_graph(seed, wmax=8):
    """Random graph with a planted degree-3 twin pair over an independent
    neighborhood."""
    rng = random.Random(seed)
    base = rng.randint(3, 8)
    weights = [rng.randint(1, wmax) for _ in range(base + 2)]
    u, v = base, base + 1
    shared = rng.sample(range(base), 3)
    edges = set()
    for a in range(base):
        for b in range(a + 1, base):
            if a in shared and b in shared:
                continue  # keep the shared neighborhood independent
            if rng.random() < 0.3:
                edges.add((a, b))
    for s in shared:
        edges.add((min(s, u), max(s, u)))
        edges.add((min(s, v), max(s, v)))
    return WeightedGraph(weights, sorted(edges))


def apply_rule_once(engine, rule):
    """Apply ``rule`` at the first alive vertex, in id order, where it
    fires (the critical rule once, to the whole graph); whether it did."""
    if rule == CRITICAL_RULE:
        return engine.cwis_reduction()
    try_fn = getattr(engine, "_try_" + rule)
    for v in sorted(engine.g.alive_vertices()):
        if try_fn(v):
            return True
    return False


def copy_graph(g):
    return g.compact_copy()[0]


def deadline_clock(past_from, reads):
    """A ``time.monotonic`` reading 0 until read ``past_from`` (the first
    read is read 0) and far past any limit from then on; the name of each
    read's caller goes into ``reads``."""
    def monotonic():
        reads.append(sys._getframe(1).f_code.co_name)
        return 0.0 if len(reads) <= past_from else 1e9
    return monotonic


def validate_cover(graph, cliques, weights):
    """Assert that the weighted cliques cover the alive vertices of
    ``graph``: each is a clique, and each vertex's cliques carry at least
    its weight."""
    covered = {}
    for clique, w in zip(cliques, weights):
        for i, u in enumerate(clique):
            covered[u] = covered.get(u, 0) + w
            for x in clique[i + 1:]:
                assert graph.has_edge(u, x), f"clique member pair {u},{x} not adjacent"
    assert set(covered) == set(graph.alive_vertices()), "cover does not span the alive vertices"
    for v in graph.alive_vertices():
        assert covered[v] >= graph.weight(v), f"vertex {v} not covered by enough clique weight"


def exact_lp(g):
    """The half-integral LP relaxation of ``g``'s MWIS, rounded down: half
    the alive weight plus the critical-set value (Nemhauser & Trotter)."""
    return (g.w_alive + critical_weighted_set(g)[1]) // 2


class ScanEngine(ReductionEngine):
    """Reference scheduler: re-queues every alive vertex before each drain,
    so it checks every rule everywhere instead of at dirty vertices only."""

    def _drain(self, i, deadline):
        heap, members, _ = self._queues[i]
        for v in self.g.alive_vertices():
            if v not in members:
                members.add(v)
                heapq.heappush(heap, v)
        return super()._drain(i, deadline)


class UnscreenedEngine(ReductionEngine):
    """Reference for the engine's screens: ``touch`` queues every touched
    vertex for every rule the engine fills, and every alive vertex starts
    queued for every rule, so each rule is also tried where its screen says
    it cannot fire."""

    def __init__(self, graph, variant="full", stats=None):
        super().__init__(graph, variant=variant, stats=stats)
        for v in graph.alive_vertices():
            self.touch(v)

    def touch(self, v):
        for heap, members, _ in self._filled:
            if v not in members:
                members.add(v)
                heapq.heappush(heap, v)


def structured_family(wmax=200):
    """Small named instances exercising every reduction shape."""
    out = {
        "path3": path_graph([2, 3, 2]),
        "path3_heavy_mid": path_graph([1, 5, 1]),
        "path5": path_graph([2, 5, 2, 5, 2]),
        "cycle4": cycle_graph([2, 3, 2, 3]),
        "cycle5_unit": cycle_graph([1, 1, 1, 1, 1]),
        "star": star_graph(10, [3, 3, 3]),
        "star_light_center": star_graph(1, [2, 2, 2]),
        "clique4": clique_graph([7, 7, 7, 7]),
        "clique_mixed": clique_graph([5, 3, 2]),
        # isolated weight transfer shape: clique {0,1,2}, 2 wired outside to 3
        "transfer": WeightedGraph([4, 3, 6, 5],
                                  [(0, 1), (0, 2), (1, 2), (2, 3)]),
        # twins 0,1 over independent {2,3,4} with a fringe vertex 5
        "twin_fold": WeightedGraph([4, 3, 3, 3, 3, 9],
                                   [(0, 2), (0, 3), (0, 4),
                                    (1, 2), (1, 3), (1, 4), (4, 5)]),
        "twin_include": WeightedGraph([5, 5, 3, 3, 3],
                                      [(0, 2), (0, 3), (0, 4),
                                       (1, 2), (1, 3), (1, 4)]),
        # 3 dominates 0 (N[0] superset of N[3], w equal)
        "domination": WeightedGraph([2, 3, 4, 2],
                                    [(0, 1), (0, 2), (0, 3), (1, 3)]),
    }
    return out
