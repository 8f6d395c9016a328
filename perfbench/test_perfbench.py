"""Smoke test of the benchmark harness on tiny instances.

Checks that every metric named in BENCHMARK.json is printed with its unit,
that traced spans nest and their self times match the per-layer metrics,
that the tracer leaves the package unpatched, and that the command fails
cleanly without the package source.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mwis  # noqa: E402
from perfbench import bench, spans  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(name):
    wl = bench.WORKLOADS[name]
    if wl.exact:
        return dataclasses.replace(wl, n=16, m=32, count=2, ils_rounds=5)
    return dataclasses.replace(wl, n=40, m=80, ils_rounds=5)


def _optima(wl):
    return {bench.exact_name(wl, k): mwis.brute_force_mwis(bench.base_graph(wl, k)).weight
            for k in range(wl.count)}


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(bench.PER_LAYER)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(name, tmp_path):
    wl = _tiny(name)
    result, info, tracer = bench.run(wl, 3, 0.0, False, _optima(wl), tmp_path)
    assert tracer is None
    assert result["correct"] and result["failed"] == 0, info["errors"]
    assert result["attempted"] >= bench.MIN_SAMPLES * len(info["instances"])
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["backend"] == mwis._accel.BACKEND and info["nproc"] >= 1


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_traced_run_nests_spans_and_accounts_self_time(name, tmp_path):
    wl = _tiny(name)
    result, info, tracer = bench.run(wl, 3, 0.0, True, _optima(wl), tmp_path)
    assert result["correct"], info["errors"]
    metrics = result["metrics"]
    assert _units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert info["missing_hooks"] == []
    assert not hasattr(mwis.solve, "__wrapped__")
    assert not hasattr(mwis.reductions.ReductionEngine.reduce, "__wrapped__")

    rec = tracer.records()
    assert rec["dropped"] == 0 and len(rec["name"]) > 0
    parent = rec["parent"]
    top = parent < 0
    assert set(rec["names"][rec["name"][top]]) == {spans.ROOT_SPAN}
    inner = ~top
    assert (rec["start"][parent[inner]] <= rec["start"][inner]).all()
    assert (rec["end"][inner] <= rec["end"][parent[inner]]).all()
    assert (rec["start"] <= rec["end"]).all()

    # One traced run per instance at zero seconds, so the metrics are the
    # record totals.
    own = spans.self_times(rec)
    for metric, span in (("solver.self_s", "solver"), ("critical.s", "critical"),
                         ("oracle.s", "oracle"), ("local_search.s", "local_search"),
                         ("reductions.reduce_s", "reductions.reduce"),
                         ("reductions.lift_s", "reductions.lift"),
                         ("graph_io.parse_s", "graph_io.parse")):
        assert metrics[metric]["value"] == pytest.approx(own.get(span, 0.0), abs=1e-9)
    assert 0.5 < metrics["trace.attributed_frac"]["value"] <= 1.0
    assert metrics["tracing_overhead"]["value"] > 0
    if wl.exact:
        assert metrics["solver.nodes"]["value"] > 0
    if wl.variant == "dense":
        assert metrics["critical.calls"]["value"] == 0
    else:
        assert metrics["critical.calls"]["value"] > 0


def test_cubic_graph_is_simple_and_3_regular():
    g = bench.cubic_graph(bench.random.Random(7), 200)
    assert all(len(set(g.neighbors(v))) == 3 and v not in g.neighbors(v) for v in range(200))
    assert sum(len(g.neighbors(v)) for v in range(200)) == 600


def test_instances_short_of_samples_at_the_cap_fail(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "MEASURE_CAP_S", 0.0)
    wl = _tiny("sparse-full")
    result, info, _ = bench.run(wl, 3, 0.0, False, _optima(wl), tmp_path)
    assert not result["correct"] and result["failed"] == len(info["instances"])
    assert result["metrics"] == {}
    assert all("cap" in e for e in info["errors"])


def test_nondeterministic_repeat_is_a_failure():
    first = bench.Sample("g", False, kernel_n=5, weight=10, nodes=3)
    again = bench.Sample("g", False, kernel_n=5, weight=10, nodes=4)
    bench.check_repeats({"g": [first, again]})
    assert first.error is None and "not deterministic" in again.error


def test_command_fails_without_package_source(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-full", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
