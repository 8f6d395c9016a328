"""Workloads, the per-instance pipeline, its correctness checks and the metrics.

Every instance goes through the same closed-loop pipeline, one instance at a
time on one thread, timed only around calls into the package's public API:

1. parse the graph text and kernelize it (``reduce_s``, ``kernel_frac``);
2. run a few iterated local searches with a fixed round budget on the kernel
   (``ls_rounds_per_s``);
3. lift the best one and certificate-check it against the input (``weight``,
   and ``gap`` to the kernel offset plus the kernel's clique cover bound);
4. on the exact workloads, ``solve`` the input to a proven optimum with no
   time limit (``solve_s``).  On ``kernel-large`` the answer of steps 1-3 is
   the workload's answer, and ``solve_s`` is the time of those steps.

Every end-to-end metric is thus measured on every workload.  Exact instances
are the first few seeds of a weighted gnm family, renumbered by a
permutation drawn from the run's seed; their optima are committed in
``expected.json`` (see ``establish.py``).  ``kernel-large`` draws fresh
graphs from the run's seed.  Instances repeat in a loop until the run's time
is up and each has run at least twice.  Times are per-instance medians of
wall time summed over the instance set, and every repeat must reproduce the
first one's node count, weights and kernel size.  A traced run traces step 4
on the exact workloads and steps 1-3 on ``kernel-large``.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mwis
from mwis import graph_io
from mwis._accel import BACKEND

from .spans import LOCAL_RULES, ROOT_SPAN, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

MIN_SAMPLES = 2          # per instance, so every run checks determinism
# Local-search starts per instance.  The search escalates its perturbation
# after a seed-dependent number of rounds, and later rounds cost several
# times the early ones, so the time of one start varies by a third from one
# graph to the next; several short starts average that out.
ILS_STARTS = 4
SETUP_REPEATS = 5
MEASURE_CAP_S = 120.0    # never start another instance after this long
WMAX = 200


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    exact: bool      # solve every instance to a proven optimum
    n: int
    m: int
    count: int       # exact workloads: gnm base seeds 0 .. count-1
    ils_rounds: int  # per local-search start; ILS_STARTS starts per instance


WORKLOADS = {
    # Critical-set flow and meta-rule oracle carry most of these solves.
    "sparse-full": Workload("sparse-full", "full", True, n=150, m=375, count=4,
                            ils_rounds=64),
    # The dense variant skips the critical rule and runs the meta rules only
    # at the root; per-component ILS, clique cover and rollback carry it.
    "dense-branch": Workload("dense-branch", "dense", True, n=120, m=360, count=3,
                             ils_rounds=64),
    # One reduction pass over a big graph and a few long ILS calls; on the
    # cubic unit-weight graph almost no rule fires.  At m = 2.5n the gnm
    # kernel keeps about three quarters of the graph on every seed; at m = 2n
    # the family sits on the reduction threshold and its kernel swings
    # between 13% and 46% of the graph from one seed to the next.
    "kernel-large": Workload("kernel-large", "full", False, n=5000, m=12500, count=0,
                             ils_rounds=32),
}

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("reduce_s", "s"),
    ("ls_rounds_per_s", "1/s"),
    ("weight", "weight"),
    ("gap", "frac"),
    ("kernel_frac", "frac"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("critical.calls", "count"),
    ("critical.s", "s"),
    ("critical.fire_ratio", "ratio"),
    ("oracle.calls", "count"),
    ("oracle.s", "s"),
    ("oracle.mean_k", "vertices"),
    *((f"reductions.{rule}.{kind}", unit) for rule in LOCAL_RULES
      for kind, unit in (("calls", "count"), ("applied", "count"), ("s", "s"))),
    ("reductions.reduce_s", "s"),
    ("reductions.lift_s", "s"),
    ("local_search.calls", "count"),
    ("local_search.s", "s"),
    ("local_search.rounds", "count"),
    ("local_search.rounds_per_s", "1/s"),
    ("bounds.calls", "count"),
    ("bounds.s", "s"),
    ("solver.prune_ratio", "ratio"),
    ("graph.rollback_s", "s"),
    ("graph.components_s", "s"),
    ("graph.induced_subgraph_s", "s"),
    ("graph.compact_copy_s", "s"),
    ("solver.nodes", "count"),
    ("solver.prunes", "count"),
    ("solver.max_depth", "count"),
    ("solver.ils_runs", "count"),
    ("solver.self_s", "s"),
    ("graph_io.parse_s", "s"),
    ("solution.verify_s", "s"),
    ("tracing_overhead", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.attributed_frac", "frac"),
)


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------

@dataclass
class Instance:
    name: str
    graph: mwis.WeightedGraph   # the input; never modified
    text: str                   # the same graph in the package's file format
    optimum: int | None         # committed optimum weight, exact workloads only


def gnm_graph(rng: random.Random, n: int, m: int) -> mwis.WeightedGraph:
    """Uniform weights in [1, WMAX], then m distinct random edges."""
    weights = [rng.randint(1, WMAX) for _ in range(n)]
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return mwis.WeightedGraph(weights, sorted(edges))


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def cubic_graph(rng: random.Random, n: int) -> mwis.WeightedGraph:
    """Random simple 3-regular graph with unit weights.

    Draws one random pairing of 3n points (three per vertex), then repairs
    each loop or repeated edge by switching it with a random other pair,
    (a, b), (c, d) -> (a, c), (b, d), when both new edges are new and simple.
    A switch keeps every degree, and the few repairs cost about the same on
    every seed, unlike redrawing the pairing until it happens to be simple.
    """
    if n % 2 or n < 4:
        raise ValueError("a cubic graph needs an even n >= 4")
    points = [v for v in range(n) for _ in range(3)]
    rng.shuffle(points)
    pairs = [(points[i], points[i + 1]) for i in range(0, len(points), 2)]
    mult = Counter(_edge(u, v) for u, v in pairs)

    def simple(i: int) -> bool:
        u, v = pairs[i]
        return u != v and mult[_edge(u, v)] == 1

    for i in range(len(pairs)):
        while not simple(i):
            j = rng.randrange(len(pairs))
            (a, b), (c, d) = pairs[i], pairs[j]
            new = (_edge(a, c), _edge(b, d))
            if a == c or b == d or new[0] == new[1] or mult[new[0]] or mult[new[1]]:
                continue
            for e in (_edge(a, b), _edge(c, d)):
                mult[e] -= 1
            for e in new:
                mult[e] += 1
            pairs[i], pairs[j] = (a, c), (b, d)
    return mwis.WeightedGraph([1] * n, sorted(_edge(u, v) for u, v in pairs))


def relabel(graph: mwis.WeightedGraph, rng: random.Random) -> mwis.WeightedGraph:
    """The same graph with vertex ids permuted at random."""
    n = graph.n_total
    perm = list(range(n))
    rng.shuffle(perm)
    weights = [0] * n
    for v in range(n):
        weights[perm[v]] = graph.weight(v)
    edges = [(perm[u], perm[v]) for u in range(n) for v in graph.neighbors(u) if u < v]
    return mwis.WeightedGraph(weights, edges)


def exact_name(wl: Workload, base_seed: int) -> str:
    return f"gnm-n{wl.n}-m{wl.m}-s{base_seed}"


def base_graph(wl: Workload, base_seed: int) -> mwis.WeightedGraph:
    return gnm_graph(random.Random(base_seed), wl.n, wl.m)


def build_instances(wl: Workload, seed: int, optima: dict[str, int]) -> list[Instance]:
    if wl.exact:
        graphs = [(exact_name(wl, k),
                   relabel(base_graph(wl, k), random.Random(f"relabel/{seed}/{k}")))
                  for k in range(wl.count)]
    else:
        graphs = [(f"cubic-n{wl.n}-seed{seed}",
                   cubic_graph(random.Random(f"cubic/{seed}"), wl.n)),
                  (f"gnm-n{wl.n}-m{wl.m}-seed{seed}",
                   gnm_graph(random.Random(f"gnm/{seed}"), wl.n, wl.m))]
    return [Instance(name, g, graph_io.serialize_graph(g),
                     optima.get(name) if wl.exact else None) for name, g in graphs]


def load_optima() -> dict[str, int]:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------

REF_NOMINAL_S = 0.02     # reference loop time that scaled times are quoted at


class Stopwatch:
    """Scales step times by the machine's speed at the time of the step.

    The machine shares its cores with other tenants, and its speed drifts by
    tens of percent within seconds.  The stopwatch runs a fixed arithmetic
    loop before and after every timed step and scales the step's wall time
    by ``REF_NOMINAL_S`` over the mean of the two loop times.  In five runs
    of ``sparse-full`` that cut the spread between runs (quartile distance
    over median) of ``solve_s``, ``reduce_s`` and ``ls_rounds_per_s`` from
    30%, 24% and 20% in wall time to 11%, 12% and 5%.  The loop is the
    benchmark's own code, so a change to the package moves the scaled times
    as it moves wall times.  Raw wall times stay in the run's record.
    """

    STEPS = 250_000

    def __init__(self):
        self.loop_times: list[float] = []
        self._before = 0.0

    def _loop(self) -> float:
        t = time.perf_counter()
        acc = 0
        for i in range(self.STEPS):
            acc += i * i
        self.loop_times.append(time.perf_counter() - t)
        return self.loop_times[-1]

    def begin(self) -> None:
        """Take the speed before the first of a series of adjacent steps."""
        self._before = self._loop()

    def scale(self, seconds: float) -> float:
        """Scale the wall time of the step that just ended."""
        after = self._loop()
        scaled = seconds * 2 * REF_NOMINAL_S / (self._before + after)
        self._before = after
        return scaled


@dataclass
class Sample:
    instance: str
    traced: bool
    times: dict = field(default_factory=dict)   # wall seconds per step
    scaled: dict = field(default_factory=dict)  # the same, scaled by a Stopwatch
    n: int = 0
    kernel_n: int = 0
    offset: int = 0
    ub: int = 0
    ls_weight: int = 0
    rounds: int = 0
    weight: int = 0
    nodes: int = 0
    prunes: int = 0
    max_depth: int = 0
    ils_runs: int = 0
    layers: dict = field(default_factory=dict)
    error: str | None = None

    def wall(self, steps) -> float:
        return sum(self.times[k] for k in steps)

    def fingerprint(self) -> tuple:
        return (self.kernel_n, self.offset, self.ls_weight, self.weight, self.nodes)


def traced_steps(wl: Workload) -> tuple[str, ...]:
    """The steps a traced run traces: the solve on the exact workloads, whose
    per-layer metrics are about the solver alone, and steps 1-3 otherwise."""
    return ("solve",) if wl.exact else ("reduce", "ils", "lift")


def run_sample(inst: Instance, wl: Workload, watch: Stopwatch | None = None,
               tracer: Tracer | None = None) -> Sample:
    """Run the pipeline once on ``inst``, then check what it returned.

    With a tracer, each step of ``traced_steps(wl)`` runs with the tracer
    installed, under a root span of its own."""
    s = Sample(inst.name, tracer is not None, n=inst.graph.n_alive)
    result = None
    traced = traced_steps(wl) if tracer is not None else ()
    try:
        def step(name, fn):
            if name in traced:
                tracer.install()
                tracer.enter(tracer.span_id(ROOT_SPAN))
            try:
                t = time.perf_counter()
                out = fn()
                s.times[name] = time.perf_counter() - t
            finally:
                if name in traced:
                    tracer.leave()
                    tracer.uninstall()
            if watch is not None:
                s.scaled[name] = watch.scale(s.times[name])
            return out

        if watch is not None:
            watch.begin()
        try:
            kr = step("reduce", lambda: mwis.reduce_to_kernel(
                graph_io.parse_graph_text(inst.text), variant=wl.variant))
            starts = step("ils", lambda: [
                mwis.ils_run(kr.kernel, iterations=wl.ils_rounds, seed=k)
                for k in range(ILS_STARTS)])
            ls = max(starts, key=lambda r: r.solution.weight)

            def lift():
                lifted = mwis.Solution.of(inst.graph, kr.lift(ls.solution.vertices))
                mwis.verify_solution(inst.graph, lifted)
                return lifted
            lifted = step("lift", lift)
            if wl.exact:
                result = step("solve", lambda: mwis.solve(
                    inst.graph, mwis.SolverConfig(variant=wl.variant)))
        finally:
            if tracer is not None:
                s.layers = tracer.take()
        s.kernel_n, s.offset = kr.kernel.n_alive, kr.offset
        s.rounds = sum(r.rounds for r in starts)
        s.ls_weight = lifted.weight
        s.ub = kr.offset + mwis.clique_cover_bound(kr.kernel)
        problems = _check(inst, s, kr.offset + ls.solution.weight, result)
        if problems:
            s.error = "; ".join(problems)
    except Exception as exc:  # one failed instance must not end the run
        traceback.print_exc(file=sys.stderr)
        s.error = f"{type(exc).__name__}: {exc}"
    return s


def _check(inst: Instance, s: Sample, expected_lift: int, result) -> list[str]:
    problems = []
    if s.ls_weight != expected_lift:
        problems.append(f"lifted weight {s.ls_weight} != kernel weight + offset {expected_lift}")
    if s.ub < s.ls_weight:
        problems.append(f"upper bound {s.ub} below a feasible weight {s.ls_weight}")
    if result is None:
        return problems
    sol = result.solution
    s.weight, s.nodes = sol.weight, result.stats.nodes
    s.prunes, s.max_depth, s.ils_runs = (result.stats.prunes, result.stats.max_depth,
                                         result.stats.ils_runs)
    mwis.verify_solution(inst.graph, sol)
    if not sol.optimal:
        problems.append("solve returned optimal=false")
    if inst.optimum is None:
        problems.append("no committed optimum for this instance")
    elif sol.weight != inst.optimum:
        problems.append(f"solve weight {sol.weight} != committed optimum {inst.optimum}")
    elif not s.ls_weight <= inst.optimum <= s.ub:
        problems.append(f"optimum {inst.optimum} outside [{s.ls_weight}, {s.ub}]")
    return problems


# ----------------------------------------------------------------------
# Set-up, the measurement loop and the checks across repeats
# ----------------------------------------------------------------------

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import mwis, mwis.graph_io; "
                 "print(time.perf_counter() - t)")


def time_import() -> float:
    """Seconds to import the package in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout.strip().splitlines()[-1])


def set_up(wl: Workload, seed: int, optima: dict[str, int],
           watch: Stopwatch) -> tuple[list[Instance], float, float]:
    """Import the package and build the instance set ``SETUP_REPEATS`` times.

    Returns the instances and the median set-up time, in wall seconds and
    scaled by ``watch``.
    """
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        watch.begin()
        t_import = time_import()
        t0 = time.perf_counter()
        instances = build_instances(wl, seed, optima)
        wall.append(t_import + time.perf_counter() - t0)
        scaled.append(watch.scale(wall[-1]))
    return instances, statistics.median(wall), statistics.median(scaled)


def warm_up(wl: Workload, seed: int) -> list[Sample]:
    """Run the pipeline once on tiny instances of the workload's kind before
    anything is timed, so first-call costs stay out of the measurement.  The
    samples are checked like measured ones, against brute-force optima."""
    warm = Workload("warm-up", wl.variant, wl.exact, n=20, m=40, count=1, ils_rounds=2)
    optima = {exact_name(warm, 0): mwis.brute_force_mwis(base_graph(warm, 0)).weight}
    return [run_sample(inst, warm) for inst in build_instances(warm, seed, optima)]


def measure(wl: Workload, instances: list[Instance], seconds: float,
            watch: Stopwatch, tracer: Tracer | None) -> dict[str, list[Sample]]:
    """Closed loop over the instances until ``seconds`` are used and each
    instance ran ``MIN_SAMPLES`` times.  With a tracer, every untraced run
    is followed by a traced run of the same instance.  An instance still
    short of ``MIN_SAMPLES`` runs at ``MEASURE_CAP_S`` gets a failed sample."""
    runs: dict[str, list[Sample]] = {inst.name: [] for inst in instances}
    t0 = time.perf_counter()
    while True:
        for inst in instances:
            runs[inst.name].append(run_sample(inst, wl, watch))
            if tracer is not None:
                runs[inst.name].append(run_sample(inst, wl, tracer=tracer))
            elapsed = time.perf_counter() - t0
            done = all(len(r) >= MIN_SAMPLES for r in runs.values())
            if (done and elapsed >= seconds) or elapsed >= MEASURE_CAP_S:
                for name, r in runs.items():
                    if len(r) < MIN_SAMPLES:
                        r.append(Sample(name, False, error=(
                            f"only {len(r)} runs before the {MEASURE_CAP_S:g} s cap")))
                return runs


def check_repeats(runs: dict[str, list[Sample]]) -> None:
    """Every good run of an instance must reproduce the first one's results."""
    for samples in runs.values():
        good = [s for s in samples if s.error is None]
        for s in good[1:]:
            if s.fingerprint() != good[0].fingerprint():
                s.error = (f"not deterministic: {s.fingerprint()} after "
                           f"{good[0].fingerprint()} (kernel_n, offset, ls weight, "
                           f"weight, nodes)")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py"), EXPECTED]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_previous_run(path: Path, digest: str, runs: dict[str, list[Sample]]) -> None:
    """Compare with the last run of the same workload, seed and source."""
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            previous = json.load(fh)
        if previous.get("source_digest") == digest:
            for name, fp in previous["fingerprints"].items():
                for s in runs.get(name, ()):
                    if s.error is None and list(s.fingerprint()) != fp:
                        s.error = f"differs from the previous run of this seed: {fp}"
    fingerprints = {name: list(good[0].fingerprint()) for name, samples in runs.items()
                    if (good := [s for s in samples if s.error is None])}
    _write_json(path, {"source_digest": digest, "fingerprints": fingerprints})


def _write_json(path: Path, data) -> None:
    """Write whole or not at all, so a killed run leaves no torn file."""
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def _median_sum(groups, key) -> float:
    return sum(statistics.median(key(s) for s in g) for g in groups)


def _mean_sum(groups, key) -> float:
    return sum(statistics.fmean(key(s) for s in g) for g in groups)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end_metrics(wl: Workload, groups: list[list[Sample]], setup_s: float) -> dict:
    firsts = [g[0] for g in groups]
    if wl.exact:
        solve_s = _median_sum(groups, lambda s: s.scaled["solve"])
    else:
        solve_s = _median_sum(groups, lambda s: s.scaled["reduce"] + s.scaled["ils"]
                              + s.scaled["lift"])
    ub = sum(s.ub for s in firsts)
    weight = sum(s.ls_weight for s in firsts)
    values = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "reduce_s": _median_sum(groups, lambda s: s.scaled["reduce"]),
        "ls_rounds_per_s": _ratio(sum(s.rounds for s in firsts),
                                  _median_sum(groups, lambda s: s.scaled["ils"])),
        "weight": weight,
        "gap": _ratio(ub - weight, ub),
        "kernel_frac": _ratio(sum(s.kernel_n for s in firsts), sum(s.n for s in firsts)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _as_number(x: float):
    return int(x) if float(x).is_integer() else x


def per_layer_metrics(wl: Workload, traced: list[list[Sample]],
                      plain: list[list[Sample]]) -> dict:
    """Per-name totals of one pass over the instance set: each instance's
    traced runs are averaged, then instances are summed.  Wall times are
    those of the traced steps, in the traced and in the untraced runs."""
    tot: dict[str, list[float]] = {}
    for g in traced:
        for s in g:
            for name, vals in s.layers.items():
                acc = tot.setdefault(name, [0.0, 0.0, 0.0])
                for i, v in enumerate(vals):
                    acc[i] += v / len(g)

    def calls(n): return tot.get(n, (0, 0, 0))[0]
    def secs(n): return tot.get(n, (0, 0, 0))[1]
    def extra(n): return tot.get(n, (0, 0, 0))[2]

    firsts = [g[0] for g in traced]
    steps = traced_steps(wl)
    wall = _mean_sum(traced, lambda s: s.wall(steps))
    attributed = sum(t for name, (_, t, _) in tot.items() if name != ROOT_SPAN)
    values = {
        "critical.calls": calls("critical"),
        "critical.s": secs("critical"),
        "critical.fire_ratio": _ratio(extra("critical"), calls("critical")),
        "oracle.calls": calls("oracle"),
        "oracle.s": secs("oracle"),
        "oracle.mean_k": _ratio(extra("oracle"), calls("oracle")),
        "reductions.reduce_s": secs("reductions.reduce"),
        "reductions.lift_s": secs("reductions.lift"),
        "local_search.calls": calls("local_search"),
        "local_search.s": secs("local_search"),
        "local_search.rounds": extra("local_search"),
        "local_search.rounds_per_s": _ratio(extra("local_search"), secs("local_search")),
        "bounds.calls": calls("bounds"),
        "bounds.s": secs("bounds"),
        "solver.prune_ratio": _ratio(sum(s.prunes for s in firsts), calls("bounds")),
        "graph.rollback_s": secs("graph.rollback"),
        "graph.components_s": secs("graph.components"),
        "graph.induced_subgraph_s": secs("graph.induced_subgraph"),
        "graph.compact_copy_s": secs("graph.compact_copy"),
        "solver.nodes": sum(s.nodes for s in firsts),
        "solver.prunes": sum(s.prunes for s in firsts),
        "solver.max_depth": max((s.max_depth for s in firsts), default=0),
        "solver.ils_runs": sum(s.ils_runs for s in firsts),
        "solver.self_s": secs("solver"),
        "graph_io.parse_s": secs("graph_io.parse"),
        "solution.verify_s": secs("solution.verify"),
        "tracing_overhead": _ratio(wall, _median_sum(plain, lambda s: s.wall(steps))),
        "trace.wall_s": wall,
        "trace.attributed_frac": _ratio(attributed, wall),
    }
    for rule in LOCAL_RULES:
        values[f"reductions.{rule}.calls"] = calls(f"reductions.{rule}")
        values[f"reductions.{rule}.applied"] = extra(f"reductions.{rule}")
        values[f"reductions.{rule}.s"] = secs(f"reductions.{rule}")
    return {name: {"value": _as_number(values[name]), "unit": unit} for name, unit in PER_LAYER}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

def stamp(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "backend": BACKEND, "mwis_backend_env": os.environ.get("MWIS_BACKEND"),
        "python": platform.python_version(), "numpy": np.__version__, "nproc": nproc,
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool,
        optima: dict[str, int], out_dir: Path) -> tuple[dict, dict, Tracer | None]:
    """One benchmark run: (result line, stamped record, tracer if traced)."""
    watch = Stopwatch()
    instances, setup_wall, setup_s = set_up(wl, seed, optima, watch)
    warm = warm_up(wl, seed)
    tracer = Tracer() if trace else None
    runs = measure(wl, instances, seconds, watch, tracer)
    check_repeats(runs)
    info = stamp(wl, seed, seconds, trace)
    info["setup_wall_s"] = setup_wall
    info["reference_loop_s"] = statistics.median(watch.loop_times)
    out_dir.mkdir(parents=True, exist_ok=True)
    info["source_digest"] = source_digest()
    check_previous_run(out_dir / f"fingerprints-{wl.name}-seed{seed}.json",
                       info["source_digest"], runs)
    samples = warm + [s for r in runs.values() for s in r]
    failed = sum(s.error is not None for s in samples)
    plain = [[s for s in r if not s.traced and s.error is None] for r in runs.values()]
    traced = [[s for s in r if s.traced and s.error is None] for r in runs.values()]
    metrics = {}
    if failed == 0:
        if trace:
            metrics = per_layer_metrics(wl, traced, plain)
        else:
            metrics = end_to_end_metrics(wl, plain, setup_s)
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
              "metrics": metrics}
    info["missing_hooks"] = tracer.missing if tracer else []
    info["errors"] = sorted({f"{s.instance}: {s.error}" for s in samples if s.error})
    info["instances"] = [
        {"name": name, "runs": len(r), "n": r[0].n, "kernel_n": r[0].kernel_n,
         "ls_weight": r[0].ls_weight, "ub": r[0].ub, "weight": r[0].weight,
         "nodes": r[0].nodes,
         "wall_s": [{"traced": s.traced, **s.times} for s in r],
         "scaled_s": [s.scaled for s in r if not s.traced]}
        for name, r in runs.items()]
    tag = f"{wl.name}-seed{seed}-trace{int(trace)}"
    _write_json(out_dir / f"result-{tag}.json", {**info, "result": result})
    if tracer is not None:
        tracer.dump(out_dir / f"spans-{tag}.npz")
    return result, info, tracer
