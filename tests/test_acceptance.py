"""Acceptance gate: one test per top-level criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  The hybrid-improvement criterion dominates the runtime (twenty
instances under a ten-second wall budget each, twice); everything else
finishes in seconds.
"""

import contextlib
import io
import json
import math
import random
import time

import pytest

from helpers import (ScanEngine, clique_graph, copy_graph, cycle_graph, exact_lp,
                     gnm_graph, path_graph, random_graph, random_tree,
                     star_graph, structured_family, twin_gadget_graph)
from mwis import (ReductionEngine, SolverConfig,
                  brute_force_critical_set, brute_force_mwis,
                  clique_cover_bound, critical_weighted_set,
                  lift_solution, reduce_to_kernel, solve)
import mwis.solver
from mwis import graph_io, reductions
from mwis.cli import main
from mwis.solution import verify_independent_set, verify_solution

HYBRID_BUDGET_SEC = 10.0


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _oracle_suite_graphs():
    """1000+ seeded random graphs plus the structured families."""
    graphs = []
    seed = 0
    for p in (0.1, 0.3, 0.6):
        for i in range(334):
            n = 1 + (seed * 7 + i) % 16
            graphs.append(random_graph(seed, n, p))
            seed += 1
    rng = random.Random(12345)
    for n in range(2, 12):
        graphs.append(path_graph([rng.randint(1, 200) for _ in range(n)]))
        if n >= 3:
            graphs.append(cycle_graph([rng.randint(1, 200) for _ in range(n)]))
    for k in range(1, 8):
        graphs.append(star_graph(rng.randint(1, 200),
                                 [rng.randint(1, 200) for _ in range(k)]))
    for n in range(2, 8):
        graphs.append(clique_graph([rng.randint(1, 200) for _ in range(n)]))
    for s in range(30):
        graphs.append(twin_gadget_graph(s, wmax=200))
    graphs.extend(g for _, g in sorted(structured_family().items()))
    return graphs


def test_01_oracle_exactness():
    graphs = _oracle_suite_graphs()
    t0 = time.monotonic()
    checked = 0
    for g in graphs:
        want = brute_force_mwis(g).weight
        for variant in ("full", "dense"):
            res = solve(g, SolverConfig(variant=variant))
            assert res.solution.weight == want and res.solution.optimal
            verify_solution(g, res.solution)
            checked += 1
    _report("oracle exactness", checked >= 2000,
            f"{checked} solves matched the oracle in {time.monotonic() - t0:.1f}s")


RULES = reductions.LOCAL_RULES + (reductions.CRITICAL_RULE,)


def _apply_rule_once(engine, rule):
    if rule == reductions.CRITICAL_RULE:
        return engine.cwis_reduction()
    try_fn = getattr(engine, "_try_" + rule)
    for v in sorted(engine.g.alive_vertices()):
        if try_fn(v):
            return True
    return False


def test_02_reduction_safety():
    applications = 0
    for rule in RULES:
        for seed in range(200):
            if rule == "weighted_twin":
                g = twin_gadget_graph(seed)
            else:
                n = 1 + seed % 16
                g = random_graph(seed, n, [0.15, 0.35, 0.6][seed % 3], wmax=9)
            original = copy_graph(g)
            eng = ReductionEngine(g)
            if not _apply_rule_once(eng, rule):
                continue
            applications += 1
            want = brute_force_mwis(original).weight
            kernel_best = brute_force_mwis(g)
            assert kernel_best.weight + eng.offset == want, (rule, seed)
            lifted = lift_solution(kernel_best.vertices, eng.records)
            assert verify_independent_set(original, lifted) == want, (rule, seed)
    _report("reduction safety", applications >= 200,
            f"{applications} single-rule applications preserved alpha exactly")


def test_03_cwis_certificate():
    agree = 0
    for seed in range(220):
        n = 1 + seed % 14
        g = random_graph(seed, n, [0.1, 0.3, 0.6][seed % 3])
        _, flow_value = critical_weighted_set(g)
        _, want = brute_force_critical_set(g)
        assert flow_value == want, seed
        agree += 1
    _report("cwis certificate", agree >= 200,
            f"flow value matched exhaustive value on {agree} graphs")


def test_04_bound_soundness_and_prune_ab(monkeypatch):
    checked = 0
    for g in _oracle_suite_graphs():
        want = brute_force_mwis(g).weight
        assert clique_cover_bound(g) >= want
        assert exact_lp(g) >= want
        checked += 1
    graphs = [random_graph(seed, 24, 0.4) for seed in range(20)]
    on = [solve(g) for g in graphs]
    monkeypatch.setattr(mwis.solver, "clique_cover_bound", lambda g, deadline=None: math.inf)
    monkeypatch.setattr(ReductionEngine, "lp_prunes", lambda eng, slack, deadline=None: False)
    off = [solve(g) for g in graphs]
    for seed, (a, b) in enumerate(zip(on, off)):
        assert a.solution.weight == b.solution.weight, seed
        assert b.stats.prunes == 0, seed
    ab = len(graphs)
    _report("bound soundness", True,
            f"cover and LP >= alpha on {checked} graphs; prune A/B equal on {ab}")


def test_05_kernel_fixpoint():
    for seed in range(50):
        g = gnm_graph(seed, 500, 1500)
        reduce_to_kernel(g)
        eng = ScanEngine(g)
        eng.reduce(initial=True)
        assert sum(eng.stats.values()) == 0, f"rule re-fired on kernel, seed {seed}"
    empty = 0
    for seed in range(25):
        g = random_tree(seed, 500)
        kr = reduce_to_kernel(g)
        empty += kr.kernel.n_alive == 0
    assert empty == 25
    shrunk = 0
    for seed in range(10):
        g = gnm_graph(1000 + seed, 300, 320)  # degree-<=2-rich
        n0 = g.n_alive
        kr = reduce_to_kernel(g)
        shrunk += kr.kernel.n_alive < n0
    assert shrunk == 10
    _report("kernel fixpoint", True,
            "0 re-fires on 50 kernels; 25/25 trees emptied; "
            "10/10 sparse graphs shrank")


def test_06_variant_agreement():
    agree = 0
    for seed in range(100):
        n = 20 + (seed * 13) % 41  # 20..60
        g = gnm_graph(seed, n, int(1.8 * n))
        full = solve(g, SolverConfig(variant="full"))
        dense = solve(g, SolverConfig(variant="dense"))
        assert full.solution.optimal and dense.solution.optimal
        assert full.solution.weight == dense.solution.weight, seed
        agree += 1
    _report("variant agreement", agree == 100,
            f"full == dense weight on {agree}/100 sparse instances")


def test_07_anytime_contract():
    g = random_graph(7, 150, 0.5)  # far too hard for one second
    t0 = time.monotonic()
    res = solve(g, SolverConfig(time_limit=1.0))
    elapsed = time.monotonic() - t0
    verify_solution(g, res.solution)
    weights = [w for _, w in res.convergence]
    ok = (not res.solution.optimal and elapsed < 10.0
          and weights == sorted(set(weights)) and len(weights) >= 1)
    _report("anytime contract", ok,
            f"timeout after {elapsed:.2f}s, verified weight {res.solution.weight}, "
            f"monotone log with {len(weights)} entries")


def test_08_determinism():
    identical = 0
    for seed, variant in ((0, "full"), (1, "dense"), (2, "full")):
        g = gnm_graph(seed, 60, 110)
        records = []
        stats = []
        for _ in range(2):
            res = solve(g, SolverConfig(variant=variant, seed=seed))
            rec = graph_io.result_record(
                "instance", g.n_alive, g.m_alive, res.elapsed, seed, variant,
                weight=res.solution.weight, optimal=res.solution.optimal,
                kernel_n=res.kernel_n, kernel_m=res.kernel_m,
                solution=res.solution.vertices)
            rec["elapsed_sec"] = 0.0
            records.append(graph_io.format_record(rec))
            stats.append((res.stats.nodes, res.stats.prunes,
                          tuple(sorted(res.stats.rule_applications.items()))))
        assert records[0] == records[1], seed
        assert stats[0] == stats[1], seed
        identical += 1
    _report("determinism", identical == 3,
            f"{identical}/3 configs gave byte-identical records and stats")


def _cli_record(argv):
    """Run a shipped ``mwis`` command and return its result record."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())


@pytest.mark.slow
def test_09_hybrid_improvement(tmp_path):
    # both modes run as shipped, from the same file under the same budget
    at_least, strictly = 0, 0
    for seed in range(20):
        g = gnm_graph(seed, 5000, 10000)
        path = tmp_path / f"gnm-{seed}.graph"
        path.write_text(graph_io.serialize_graph(g))
        budget = ["--time-limit", str(HYBRID_BUDGET_SEC), "--seed", str(seed)]
        ls = _cli_record(["ls", str(path), *budget])["weight"]
        record = _cli_record(["hybrid", str(path), *budget])
        hybrid = verify_independent_set(g, [v - 1 for v in record["solution"]])
        assert hybrid == record["weight"]
        at_least += hybrid >= ls
        strictly += hybrid > ls
    ok = at_least >= 18 and strictly >= 10
    _report("hybrid improvement", ok,
            f"hybrid >= ls on {at_least}/20, strictly better on {strictly}/20")
