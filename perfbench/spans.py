"""In-memory span tracer for the benchmark's traced runs.

The tracer instruments the ``mwis`` package from outside: :meth:`Tracer.install`
swaps each hooked attribute for a wrapper that records a span (name, start,
end, parent) around the call, and :meth:`Tracer.uninstall` puts the originals
back, so untraced runs execute the package exactly as shipped.

Self time of a span is its duration minus the durations of its direct
children.  It is accumulated per span name as spans close, so the self times
of all names add up to the duration of the outermost spans.  Span records are
kept in flat arrays (24 bytes each) up to ``MAX_RECORDS``; past that only the
per-name totals grow, and :meth:`Tracer.dump` reports how many were dropped.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

LOCAL_RULES = (
    "neighborhood_removal",
    "weighted_domination",
    "weighted_vertex_folding",
    "isolated_vertex_removal",
    "isolated_weight_transfer",
    "weighted_twin",
    "neighborhood_folding",
    "neighbor_removal_meta",
)

ROOT_SPAN = "bench.sample"
MAX_RECORDS = 2_000_000

# What a hook counts besides calls and time, from (result, call args).
_COUNTERS = {
    "applied": lambda result, args: 1 if result else 0,
    "k": lambda result, args: len(args[1]),  # subgraph_mwis_weight(graph, vertices)
    "rounds": lambda result, args: result.rounds,
}

# (module, attribute path, span name, counter).  The package-level names are
# the ones the benchmark itself calls; the module-level ones are where the
# solver and the reduction engine look their collaborators up at call time.
HOOKS = (
    ("mwis", "solve", "solver", None),
    ("mwis", "reduce_to_kernel", "reductions.reduce", None),
    ("mwis", "ils_run", "local_search", "rounds"),
    ("mwis", "verify_solution", "solution.verify", None),
    ("mwis.graph_io", "parse_graph_text", "graph_io.parse", None),
    ("mwis.solver", "ils_run", "local_search", "rounds"),
    ("mwis.solver", "verify_solution", "solution.verify", None),
    ("mwis.solver", "clique_cover_bound", "bounds", None),
    ("mwis.solver", "lift_solution", "reductions.lift", None),
    ("mwis.reductions", "lift_solution", "reductions.lift", None),
    ("mwis.reductions", "KernelResult.lift", "reductions.lift", None),
    ("mwis.reductions", "ReductionEngine.reduce", "reductions.reduce", None),
    ("mwis.reductions", "ReductionEngine.cwis_reduction", "critical", "applied"),
    ("mwis.reductions", "subgraph_mwis_weight", "oracle", "k"),
    *(("mwis.reductions", f"ReductionEngine._try_{rule}", f"reductions.{rule}", "applied")
      for rule in LOCAL_RULES),
    ("mwis.graph", "WeightedGraph.rollback", "graph.rollback", None),
    ("mwis.graph", "WeightedGraph.connected_components", "graph.components", None),
    ("mwis.graph", "WeightedGraph.induced_subgraph", "graph.induced_subgraph", None),
    ("mwis.graph", "WeightedGraph.compact_copy", "graph.compact_copy", None),
)


def _resolve(module: str, path: str):
    """(owner object, attribute name) for a dotted attribute path."""
    owner = importlib.import_module(module)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans around the hooked calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._sid: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.extra: list[int] = []
        self.rec_name = array("i")
        self.rec_parent = array("q")
        self.rec_start = array("d")
        self.rec_end = array("d")
        self.dropped = 0
        self.missing: list[str] = []
        self._stack: list[list] = []  # [record index, span id, start, child time]
        self._wrappers = []
        for module, path, span, counter in HOOKS:
            try:
                owner, name = _resolve(module, path)
                original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            except (AttributeError, KeyError):
                self.missing.append(f"{module}.{path}")
                continue
            self._wrappers.append((owner, name, original,
                                   self._wrap(original, self.span_id(span), counter)))

    def span_id(self, name: str) -> int:
        sid = self._sid.get(name)
        if sid is None:
            sid = self._sid[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.extra.append(0)
        return sid

    # -- span bookkeeping ------------------------------------------------

    def enter(self, sid: int) -> None:
        t = perf_counter()
        idx = -1
        if len(self.rec_name) < MAX_RECORDS:
            idx = len(self.rec_name)
            self.rec_name.append(sid)
            self.rec_parent.append(self._stack[-1][0] if self._stack else -1)
            self.rec_start.append(t)
            self.rec_end.append(t)
        else:
            self.dropped += 1
        self._stack.append([idx, sid, t, 0.0])

    def leave(self) -> None:
        t = perf_counter()
        idx, sid, start, child = self._stack.pop()
        dur = t - start
        if idx >= 0:
            self.rec_end[idx] = t
        self.calls[sid] += 1
        self.self_s[sid] += dur - child
        if self._stack:
            self._stack[-1][3] += dur

    def _wrap(self, fn, sid: int, counter: str | None):
        enter, leave = self.enter, self.leave
        if counter is None:
            def traced(*args, **kwargs):
                enter(sid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave()
        else:
            count, extra = _COUNTERS[counter], self.extra

            def traced(*args, **kwargs):
                enter(sid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    leave()
                extra[sid] += count(result, args)
                return result
        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for owner, name, _, traced in self._wrappers:
            setattr(owner, name, traced)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._wrappers:
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------

    def take(self) -> dict[str, tuple[int, float, int]]:
        """Per-name (calls, self seconds, counter) since the last take."""
        out = {name: (self.calls[i], self.self_s[i], self.extra[i])
               for i, name in enumerate(self.names) if self.calls[i]}
        n = len(self.names)
        self.calls[:] = [0] * n
        self.self_s[:] = [0.0] * n
        self.extra[:] = [0] * n
        return out

    def records(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.array(self.rec_name, dtype=np.int32),
            "parent": np.array(self.rec_parent, dtype=np.int64),
            "start": np.array(self.rec_start, dtype=np.float64),
            "end": np.array(self.rec_end, dtype=np.float64),
            "dropped": np.array(self.dropped),
        }

    def dump(self, path) -> None:
        """Write the span records as a compressed numpy archive."""
        np.savez_compressed(path, **self.records())


def self_times(rec: dict[str, np.ndarray]) -> dict[str, float]:
    """Per-name self time recomputed from span records alone."""
    dur = rec["end"] - rec["start"]
    child = np.zeros_like(dur)
    has_parent = rec["parent"] >= 0
    np.add.at(child, rec["parent"][has_parent], dur[has_parent])
    own = np.bincount(rec["name"], weights=dur - child, minlength=len(rec["names"]))
    return {str(name): float(own[i]) for i, name in enumerate(rec["names"])}
