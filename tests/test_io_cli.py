"""Graph files, weight generation, records, sidecars, and the CLI."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mwis

from helpers import copy_graph, gnm_graph, random_graph, structured_family, twin_gadget_graph
from mwis import (FoldRecord, ParseError, ReductionEngine, WeightedGraph, brute_force_mwis,
                  lift_solution, reduce_to_kernel)
from mwis import graph_io
from mwis.cli import main
from mwis.solution import verify_independent_set

EDGE_FIXTURE = "2 1 10\n5 2\n1 1\n"


def test_parse_weighted_path():
    g = graph_io.parse_graph_text("3 2 10\n5 2\n7 1 3\n2 2\n")
    assert [g.weight(v) for v in range(3)] == [5, 7, 2]
    assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)


def test_parse_unweighted_then_generate():
    g = graph_io.parse_graph_text("3 2 0\n2\n1 3\n2\n")
    assert [g.weight(v) for v in range(3)] == [1, 1, 1]
    graph_io.generate_weights(g, seed=42)
    w1 = [g.weight(v) for v in range(3)]
    assert all(1 <= w <= 200 for w in w1)
    g2 = graph_io.parse_graph_text("3 2 0\n2\n1 3\n2\n")
    graph_io.generate_weights(g2, seed=42)
    assert [g2.weight(v) for v in range(3)] == w1


def test_parse_comments_skipped():
    g = graph_io.parse_graph_text("% header comment\n2 1 10\n% interior\n3 2\n4 1\n")
    assert g.weight(0) == 3 and g.weight(1) == 4


def test_parse_self_loop_reports_line():
    with pytest.raises(ParseError) as exc:
        graph_io.parse_graph_text("2 1 10\n3 1\n4 1\n")
    assert exc.value.line == 2


def test_parse_asymmetric_rejected():
    with pytest.raises(ParseError, match="asymmetric"):
        graph_io.parse_graph_text("3 2 0\n2 3\n1 3\n\n")


def test_parse_star_is_linear_in_hub_degree():
    leaves = 40_000
    text = (f"{leaves + 1} {leaves} 0\n" + " ".join(map(str, range(2, leaves + 2)))
            + "\n" + "1\n" * leaves)
    t0 = time.monotonic()
    g = graph_io.parse_graph_text(text)
    assert time.monotonic() - t0 < 2.0  # a quadratic symmetry check takes over 10 s
    assert g.degree(0) == leaves


def test_parse_bad_header():
    with pytest.raises(ParseError, match="header"):
        graph_io.parse_graph_text("nope\n")


def test_parse_bad_weight():
    with pytest.raises(ParseError, match="weight"):
        graph_io.parse_graph_text("1 0 10\n0\n")


def test_parse_neighbor_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        graph_io.parse_graph_text("2 1 0\n2\n3\n")


def test_parse_edge_count_mismatch():
    with pytest.raises(ParseError, match="mentions"):
        graph_io.parse_graph_text("2 2 0\n2\n1\n")


def test_round_trip_serialization():
    for seed in range(10):
        g = random_graph(seed, 12, 0.3)
        text = graph_io.serialize_graph(g)
        g2 = graph_io.parse_graph_text(text)
        assert g2.canonical_serialization() == g.canonical_serialization()
        assert graph_io.serialize_graph(g2) == text


def test_weight_generation_degenerate_interval():
    g = WeightedGraph([1] * 5)
    graph_io.generate_weights(g, seed=0, lo=7, hi=7)
    assert all(g.weight(v) == 7 for v in range(5))


def test_weight_generation_mean():
    rng = graph_io.SplitMix64(123)
    draws = [1 + rng.below(200) for _ in range(100_000)]
    mean = sum(draws) / len(draws)
    assert abs(mean - 100.5) / 100.5 < 0.01
    assert min(draws) >= 1 and max(draws) <= 200


def test_convergence_csv_format():
    buf = io.StringIO()
    graph_io.write_convergence([(0.5, 10), (1.25, 12)], buf)
    assert buf.getvalue() == "elapsed_seconds,weight\n0.500000,10\n1.250000,12\n"


def test_lifting_sidecar_round_trip():
    # seed 4 leaves a nonempty kernel whose stack contains fold records, so
    # the sidecar has to carry folded vertex ids beyond the input range
    g = random_graph(4, 30, 0.15)
    original = copy_graph(g)
    kr = reduce_to_kernel(g)
    assert kr.kernel.n_alive > 0
    assert any(r.introduced for r in kr.stack)
    kernel_map = sorted(kr.kernel.alive_vertices())
    buf = io.StringIO()
    graph_io.write_lifting(kr.offset, kernel_map, kr.stack, buf)
    buf.seek(0)
    offset, mapping, records = graph_io.read_lifting(buf)
    assert offset == kr.offset
    assert mapping == kernel_map
    assert records == kr.stack
    # lifting through the re-read records matches the in-process lift
    best = brute_force_mwis(kr.kernel)
    local = [mapping[kernel_map.index(v)] for v in best.vertices]
    lifted = lift_solution(local, records)
    assert lifted == lift_solution(best.vertices, kr.stack)
    assert verify_independent_set(original, lifted) == best.weight + offset
    from mwis import solve
    assert best.weight + offset == solve(original).solution.weight


# Random graphs of mixed density fold and force; the twin gadgets add the
# twin records they seldom make.  No kernelization makes a fold of more than
# one group: the tests after test_each_rule_writes_its_sidecar_record read
# such folds back.
kernel_inputs = (
    st.builds(random_graph, st.integers(0, 2**32), st.integers(1, 18),
              st.sampled_from([0.1, 0.2, 0.35, 0.6]), st.sampled_from([4, 200]))
    | st.builds(twin_gadget_graph, st.integers(0, 2**32)))


@settings(max_examples=200, deadline=None)
@given(kernel_inputs, st.sampled_from(["full", "dense"]))
def test_sidecar_of_any_kernel_reads_back_and_lifts_alike(g, variant):
    original = copy_graph(g)
    kr = reduce_to_kernel(g, variant)
    kernel_map = sorted(kr.kernel.alive_vertices())
    buf = io.StringIO()
    graph_io.write_lifting(kr.offset, kernel_map, kr.stack, buf)
    buf.seek(0)
    offset, mapping, records = graph_io.read_lifting(buf)
    assert (offset, mapping, records) == (kr.offset, kernel_map, kr.stack)
    best = brute_force_mwis(kr.kernel)
    lifted = lift_solution(best.vertices, records)
    assert lifted == lift_solution(best.vertices, kr.stack)
    assert verify_independent_set(original, lifted) == best.weight + offset \
        == brute_force_mwis(original).weight


SIDECAR_HEAD = "% lifting sidecar\noffset 5\nmap 1 2\n"  # the bad line comes fourth


@pytest.mark.parametrize("line, message", [
    ("bogus 1", "unknown sidecar line 'bogus'"),
    ("rec merge r forced=1 consumed=1 offset=0", "unknown record kind 'merge'"),
    ("rec include r forced=1", "malformed sidecar line"),  # no offset=
    ("map 3 1", "map lines out of order"),
    ("map 2 x", "malformed sidecar line"),
    # a bad value or a repeated field is named before a field of older versions
    ("rec include r forced=1,b consumed=1 offset=0", "malformed sidecar line"),
    # the writer gives each record kind exactly its fields, once, and one offset line
    ("rec include r forced=1 offset=0 guard=2", "include record has no field 'guard'"),
    ("rec fold r introduced=2 in=1 out=- offset=0 forced=1", "fold record has no field 'forced'"),
    ("rec include r forced=1 forced=2 consumed=1 offset=0", "a record field is given twice"),
    ("rec include r forced=1 consumed=1 offset=0 offset=0", "a record field is given twice"),
    # the weight transfer's record of older versions; it is a fold today
    ("rec transfer r forced=1 guard=3 offset=4", "unknown record kind 'transfer'"),
    # a fold has one group per introduced id, at least one, and no group empty
    ("rec fold r introduced=4 in=1;2 out=3 offset=0",
     "a fold record needs one group per introduced id"),
    ("rec fold r introduced=- in=1 out=2 offset=0",
     "a fold record needs one group per introduced id"),
    ("rec fold r introduced=4,5,6 in=1;;2 out=3 offset=0", "malformed sidecar line"),
    ("rec fold r introduced=4,5 in=1;- out=3 offset=0", "malformed sidecar line"),
    ("offset 6", "second offset line"),
    # a record as older versions wrote it, with the vertices it removed
    ("rec include r forced=1 consumed=1 offset=0", "include record has no field 'consumed'"),
    # numbers only as str() writes them: ids from 1, offsets from 0, no sign,
    # underscore or leading zero
    ("map 2 0", "malformed sidecar line"),
    ("map 2 +2", "malformed sidecar line"),
    ("map 2 02", "malformed sidecar line"),
    ("rec include r forced=0 offset=0", "malformed sidecar line"),
    ("rec include r forced=1_0 offset=0", "malformed sidecar line"),
    ("rec fold r introduced=2 in=-1 out=1 offset=0", "malformed sidecar line"),
    ("rec fold r introduced=0 in=1 out=2 offset=0", "malformed sidecar line"),
    ("rec include r forced=1 offset=-3", "malformed sidecar line"),
    ("rec include r forced=1 offset=+3", "malformed sidecar line"),
])
def test_sidecar_reader_names_the_bad_line(line, message, tmp_path, capsys):
    text = SIDECAR_HEAD + line + "\n"
    with pytest.raises(ParseError) as exc:
        graph_io.read_lifting(io.StringIO(text))
    assert exc.value.line == 4 and message in str(exc.value)
    gpath, lpath, ksol = tmp_path / "g.graph", tmp_path / "l.side", tmp_path / "ksol.txt"
    gpath.write_text("3 2 10\n5 2\n7 1 3\n2 2\n")
    lpath.write_text(text)
    ksol.write_text("1\n")
    assert main(["lift", str(gpath), str(ksol), "--lift", str(lpath)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 4: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("head", ["offset -1", "offset +5", "offset 05", "offset 5_0"])
def test_sidecar_reader_takes_the_offset_only_as_written(head):
    with pytest.raises(ParseError) as exc:
        graph_io.read_lifting(io.StringIO(head + "\n"))
    assert exc.value.line == 1 and "malformed sidecar line" in str(exc.value)


def test_sidecar_reader_needs_an_offset_line(tmp_path, capsys):
    text = "map 1 2\nrec include r forced=1 offset=0\n"
    with pytest.raises(ParseError) as exc:
        graph_io.read_lifting(io.StringIO(text))
    assert exc.value.line is None and "no offset line" in str(exc.value)
    gpath, lpath, ksol = tmp_path / "g.graph", tmp_path / "l.side", tmp_path / "ksol.txt"
    gpath.write_text("3 2 10\n5 2\n7 1 3\n2 2\n")
    lpath.write_text(text)
    ksol.write_text("1\n")
    assert main(["lift", str(gpath), str(ksol), "--lift", str(lpath)]) == 1
    err = capsys.readouterr().err
    assert err == "error: the sidecar has no offset line\n"


# The documented bytes: a sidecar holding records of each kind, and the
# record of every record-printing command on one small graph.
SIDECAR_OF_EACH_KIND = (
    "offset 12\n"
    "map 1 9\n"
    "rec fold isolated_weight_transfer introduced=8 in=3 out=1 offset=4\n"
    "rec include neighborhood_removal forced=4 offset=5\n"
    "rec fold neighborhood_folding introduced=9 in=5,7 out=6 offset=3\n")

SMALL_GRAPH = ("11 18 10\n43 3 4 7 9 10 11\n108 7 10\n177 1 5 7\n108 1 6 7 9 11\n"
               "163 3\n73 4 7 10\n123 1 2 3 4 6\n56\n122 1 4 10 11\n132 1 2 6 9\n"
               "47 1 4 9\n")
SMALL_RECORDS = {
    "solve": '{"elapsed_sec":0.0,"instance":"g.graph","kernel_m":10,"kernel_n":7,"m":18,'
             '"n":11,"optimal":true,"seed":0,"solution":[2,3,6,8,9],"variant":"full",'
             '"weight":536}',
    "ls": '{"elapsed_sec":0.0,"instance":"g.graph","kernel_m":18,"kernel_n":11,"m":18,'
          '"n":11,"optimal":false,"seed":0,"solution":[2,3,6,8,9],"variant":"ls",'
          '"weight":536}',
    "hybrid": '{"elapsed_sec":0.0,"instance":"g.graph","kernel_m":10,"kernel_n":7,"m":18,'
              '"n":11,"optimal":false,"seed":0,"solution":[2,3,6,8,9],"variant":"hybrid",'
              '"weight":536}',
    "oracle": '{"elapsed_sec":0.0,"instance":"g.graph","kernel_m":18,"kernel_n":11,"m":18,'
              '"n":11,"optimal":true,"seed":0,"solution":[2,3,6,8,9],"variant":"oracle",'
              '"weight":536}',
    "reduce": '{"elapsed_sec":0.0,"instance":"g.graph","kernel_m":10,"kernel_n":7,"m":18,'
              '"n":11,"offset":233,"seed":0,"variant":"full"}',
    "lift": '{"elapsed_sec":0.0,"instance":"g.graph","kernel_n":7,"m":18,"n":11,'
            '"offset":233,"optimal":false,"seed":0,"solution":[2,3,6,8,9],'
            '"variant":"lift","weight":536}',
}
SMALL_KERNEL = ("7 10 10\n108 5 7\n108 3 4 6 7\n73 2 5 7\n122 2 5 6\n"
                "132 1 3 4\n47 2 4\n109 1 2 3\n")
SMALL_SIDECAR = (
    "offset 233\nmap 1 2\nmap 2 4\nmap 3 6\nmap 4 9\nmap 5 10\nmap 6 11\nmap 7 12\n"
    "rec include neighborhood_removal forced=8 offset=56\n"
    "rec fold weighted_vertex_folding introduced=12 in=5,7 out=3 offset=177\n")


# One record of each rule that forces a set into the solution or folds: the
# graph, the rule's one application, and the record line the sidecar writes.
RULE_RECORDS = {
    # 1 is simplicial and the heaviest of its triangle {0, 1, 2}
    "isolated_vertex_removal": (
        [2, 5, 3, 4], [(0, 1), (0, 2), (1, 2), (2, 3)],
        lambda eng: eng._try_isolated_vertex_removal(1),
        "rec include isolated_vertex_removal forced=2 offset=5"),
    # twins 3, 4 outweigh their independent neighborhood {0, 1, 2}
    "twin_include": (
        [3, 3, 3, 5, 5], [(t, p) for t in (3, 4) for p in (0, 1, 2)],
        lambda eng: eng._try_weighted_twin(4),
        "rec include weighted_twin forced=4,5 offset=10"),
    # twins 3, 4 outweigh any two of {0, 1, 2} but not all three
    "twin_fold": (
        [2, 2, 3, 3, 3], [(t, p) for t in (3, 4) for p in (0, 1, 2)],
        lambda eng: eng._try_weighted_twin(3),
        "rec fold weighted_twin introduced=6 in=1,2,3 out=4,5 offset=6"),
    # degree-2 vertex 2 between the non-adjacent 0 and 1
    "weighted_vertex_folding": (
        [3, 2, 4], [(0, 2), (1, 2)],
        lambda eng: eng._try_weighted_vertex_folding(2),
        "rec fold weighted_vertex_folding introduced=4 in=1,2 out=3 offset=4"),
    # the path 5 - 1 - 5: its two ends are the critical set
    "cwis": (
        [5, 1, 5], [(0, 1), (1, 2)],
        lambda eng: eng.cwis_reduction(),
        "rec include cwis forced=1,3 offset=10"),
}


@pytest.mark.parametrize("rule", RULE_RECORDS)
def test_each_rule_writes_its_sidecar_record(rule):
    weights, edges, apply, line = RULE_RECORDS[rule]
    eng = ReductionEngine(WeightedGraph(weights, edges))
    assert apply(eng)
    buf = io.StringIO()
    graph_io.write_lifting(eng.offset, [], eng.records, buf)
    assert buf.getvalue() == f"offset {eng.offset}\n{line}\n"
    buf.seek(0)
    assert graph_io.read_lifting(buf) == (eng.offset, [], tuple(eng.records))


def test_a_fold_of_three_groups_reads_back_and_lifts_each_choice():
    # Fresh vertices 7, 8 and 9 stand for the groups {1, 2}, {3} and
    # {4, 5, 6}; a solution with none of them takes out = {0}.
    rec = FoldRecord("r", 5, (0,), (7, 8, 9), ((1, 2), (3,), (4, 5, 6)))
    buf = io.StringIO()
    graph_io.write_lifting(5, [10], [rec], buf)
    assert buf.getvalue() == ("offset 5\nmap 1 11\n"
                              "rec fold r introduced=8,9,10 in=2,3;4;5,6,7 out=1 offset=5\n")
    buf.seek(0)
    offset, mapping, records = graph_io.read_lifting(buf)
    assert (offset, mapping, records) == (5, [10], (rec,))
    assert lift_solution([10], records) == {0, 10}
    for vid, group in zip(rec.introduced, rec.fold_in):
        assert lift_solution([vid, 10], records) == {*group, 10}


# The isolated weight transfer at vertex 1 of this graph (1-based ids): its
# clique mates 2 and 3 are heavier, so each becomes a fresh vertex, 7 and 8,
# and its mate 4 is lighter, so it goes.  A reduce removes 4 by domination
# first, and then the transfer cannot fire, so `mwis reduce` never writes
# this fold of two groups; the workflow's console-script step lifts kernel
# solutions through this sidecar.
TRANSFER_GRAPH = "6 8 10\n2 2 3 4\n5 1 3 4 5\n4 1 2 4 6\n1 1 2 3\n3 2\n3 3\n"
TRANSFER_SIDECAR = (
    "offset 2\nmap 1 5\nmap 2 6\nmap 3 7\nmap 4 8\n"
    "rec fold isolated_weight_transfer introduced=7,8 in=2;3 out=1 offset=2\n")


@pytest.mark.parametrize("ksol, lifted", [("1 2", [1, 5, 6]), ("2 3", [2, 6]), ("1 4", [3, 5])])
def test_a_two_mate_transfer_lifts_through_its_sidecar(ksol, lifted, tmp_path, capsys):
    g = graph_io.parse_graph_text(TRANSFER_GRAPH)
    eng = ReductionEngine(g)
    assert eng._try_isolated_weight_transfer(0)
    buf = io.StringIO()
    graph_io.write_lifting(eng.offset, sorted(g.alive_vertices()), eng.records, buf)
    assert buf.getvalue() == TRANSFER_SIDECAR
    gpath, lpath, kpath = tmp_path / "g.graph", tmp_path / "k.side", tmp_path / "k.txt"
    gpath.write_text(TRANSFER_GRAPH)
    lpath.write_text(TRANSFER_SIDECAR)
    kpath.write_text(ksol + "\n")
    assert main(["lift", str(gpath), str(kpath), "--lift", str(lpath)]) == 0
    assert json.loads(capsys.readouterr().out)["solution"] == lifted


def test_documented_output_bytes(tmp_path, capsys):
    transfer = structured_family()["transfer"]  # clique {0,1,2}, 2 wired to 3
    g = WeightedGraph([transfer.weight(v) for v in range(4)] + [2, 3, 2],
                      [(u, v) for u in range(4) for v in transfer.neighbors(u) if u < v]
                      + [(4, 5), (5, 6)])
    eng = ReductionEngine(g)
    assert eng._try_isolated_weight_transfer(0)
    assert eng._try_neighborhood_removal(3)
    assert eng._try_neighborhood_folding(5)
    kernel_map = sorted(g.alive_vertices())
    buf = io.StringIO()
    graph_io.write_lifting(eng.offset, kernel_map, eng.records, buf)
    assert buf.getvalue() == SIDECAR_OF_EACH_KIND
    buf.seek(0)
    assert graph_io.read_lifting(buf) == (eng.offset, kernel_map, tuple(eng.records))

    def record(argv):
        assert main([argv[0], str(gpath)] + argv[1:]) == 0
        rec = json.loads(capsys.readouterr().out)
        rec["elapsed_sec"] = 0.0
        return graph_io.format_record(rec)

    gpath, kpath, lpath = tmp_path / "g.graph", tmp_path / "k.graph", tmp_path / "k.side"
    gpath.write_text(SMALL_GRAPH)
    assert record(["solve"]) == SMALL_RECORDS["solve"]
    assert record(["solve", "--variant", "dense"]) == SMALL_RECORDS["solve"].replace(
        '"full"', '"dense"')
    assert record(["ls", "--iterations", "20"]) == SMALL_RECORDS["ls"]
    assert record(["hybrid", "--iterations", "20"]) == SMALL_RECORDS["hybrid"]
    assert record(["oracle"]) == SMALL_RECORDS["oracle"]
    assert record(["reduce", "--kernel-out", str(kpath), "--lift", str(lpath)]) \
        == SMALL_RECORDS["reduce"]
    assert kpath.read_text() == SMALL_KERNEL
    assert lpath.read_text() == SMALL_SIDECAR
    ksol = tmp_path / "k.txt"
    ksol.write_text("1 3 4\n")  # the kernel's optimum, weight 303
    assert record(["lift", str(ksol), "--lift", str(lpath)]) == SMALL_RECORDS["lift"]


# Runs each argv given as JSON with numpy made unimportable before the first
# import of the package, and prints each exit code and captured stdout.
_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # every later `import numpy` raises ImportError
from mwis.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps(runs))
"""


def test_commands_but_oracle_run_without_numpy(tmp_path):
    # in a subprocess, because this suite has already imported numpy
    (tmp_path / "g.graph").write_text(SMALL_GRAPH)
    (tmp_path / "raw.graph").write_text("3 2 0\n2\n1 3\n2\n")
    (tmp_path / "k.txt").write_text("1 3 4\n")  # the kernel's optimum, weight 303
    (tmp_path / "sol.txt").write_text("2 3 6 8 9\n")
    records = {
        "solve": ["solve", "g.graph"],
        "ls": ["ls", "g.graph", "--iterations", "20"],
        "hybrid": ["hybrid", "g.graph", "--iterations", "20"],
        "reduce": ["reduce", "g.graph", "--kernel-out", "k.graph", "--lift", "k.side"],
        "lift": ["lift", "g.graph", "k.txt", "--lift", "k.side"],
    }
    printed = [
        (["verify", "g.graph", "sol.txt"], "OK independent set of weight 536 (5 vertices)\n"),
        (["gen-weights", "raw.graph", "--seed", "9", "-o", "w.graph"], "wrote w.graph\n"),
    ]
    package_root = str(Path(mwis.__file__).resolve().parent.parent)
    env = dict(os.environ, MWIS_BACKEND="numpy")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    argvs = list(records.values()) + [argv for argv, _ in printed]
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert [code for code, _ in runs] == [0] * len(argvs)
    for name, (_, out) in zip(records, runs):
        rec = json.loads(out)
        rec["elapsed_sec"] = 0.0
        assert graph_io.format_record(rec) == SMALL_RECORDS[name]
    assert [out for _, out in runs[len(records):]] == [text for _, text in printed]
    assert (tmp_path / "k.graph").read_text() == SMALL_KERNEL
    assert (tmp_path / "k.side").read_text() == SMALL_SIDECAR
    g = graph_io.parse_graph_text("3 2 0\n2\n1 3\n2\n")
    graph_io.generate_weights(g, seed=9)
    assert (tmp_path / "w.graph").read_text() == graph_io.serialize_graph(g)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

@pytest.fixture
def edge_graph(tmp_path):
    p = tmp_path / "edge.graph"
    p.write_text(EDGE_FIXTURE)
    return p


def test_cli_solve_record(edge_graph, capsys):
    assert main(["solve", str(edge_graph)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["weight"] == 5
    assert record["optimal"] is True
    assert record["solution"] == [1]
    assert record["variant"] == "full"


def test_cli_verify_accepts_record(edge_graph, tmp_path, capsys):
    main(["solve", str(edge_graph)])
    sol = tmp_path / "sol.json"
    sol.write_text(capsys.readouterr().out)
    assert main(["verify", str(edge_graph), str(sol)]) == 0
    assert "OK" in capsys.readouterr().out


def test_cli_verify_rejects_edge(edge_graph, tmp_path, capsys):
    sol = tmp_path / "bad.txt"
    sol.write_text("1 2\n")
    assert main(["verify", str(edge_graph), str(sol)]) == 1
    assert "edge 1-2" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("1 x", "solution id 'x' is not an integer"),
    ("[1]", "JSON solution must be an object"),
    ('{"weight": 5}', "JSON solution must be an object"),
    ('{"solution": ["1"]}', "list of integer ids"),
    ('{"solution": [1], "weight": "5"}', "claimed weight '5' is not an integer"),
    ("1 1", "solution id 1 is listed twice"),
    ("0", "solution id 0 out of range 1..2"),
    ("3", "solution id 3 out of range 1..2"),
])
def test_cli_verify_rejects_malformed_solution(edge_graph, tmp_path, capsys, text, message):
    sol = tmp_path / "bad.txt"
    sol.write_text(text + "\n")
    assert main(["verify", str(edge_graph), str(sol)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_cli_reduce_and_external_lift(tmp_path, capsys):
    g = random_graph(8, 16, 0.25)
    gpath = tmp_path / "in.graph"
    gpath.write_text(graph_io.serialize_graph(g))
    kpath, lpath = tmp_path / "kernel.graph", tmp_path / "lift.side"
    assert main(["reduce", str(gpath), "--kernel-out", str(kpath),
                 "--lift", str(lpath)]) == 0
    record = json.loads(capsys.readouterr().out)
    kernel = graph_io.parse_graph(kpath)
    assert kernel.n_alive == record["kernel_n"]
    with open(lpath) as fh:
        offset, mapping, records = graph_io.read_lifting(fh)
    best = brute_force_mwis(kernel)  # kernel file uses dense local ids
    lifted = lift_solution([mapping[v] for v in best.vertices], records)
    assert verify_independent_set(g, lifted) == best.weight + offset
    assert best.weight + offset == brute_force_mwis(g).weight


@pytest.mark.parametrize("seed", [2, 6])
def test_cli_kernel_round_trip_reduce_oracle_lift_verify(seed, tmp_path, capsys):
    g = random_graph(seed, 22, 0.3)
    gpath = tmp_path / "in.graph"
    gpath.write_text(graph_io.serialize_graph(g))
    assert main(["solve", str(gpath)]) == 0
    want = json.loads(capsys.readouterr().out)["weight"]
    kpath, lpath = tmp_path / "kernel.graph", tmp_path / "lift.side"
    assert main(["reduce", str(gpath), "--kernel-out", str(kpath), "--lift", str(lpath)]) == 0
    reduced = json.loads(capsys.readouterr().out)
    assert reduced["kernel_n"] > 0
    for tool, extra in (("oracle", []), ("ls", ["--iterations", "300"])):
        ksol = tmp_path / f"kernel.{tool}.json"
        assert main([tool, str(kpath), *extra]) == 0
        kernel_rec = json.loads(capsys.readouterr().out)
        ksol.write_text(json.dumps(kernel_rec))
        lifted = tmp_path / f"lifted.{tool}.json"
        assert main(["lift", str(gpath), str(ksol), "--lift", str(lpath)]) == 0
        lifted.write_text(capsys.readouterr().out)
        record = json.loads(lifted.read_text())
        assert record["weight"] == kernel_rec["weight"] + reduced["offset"]
        assert record["kernel_n"] == reduced["kernel_n"]
        assert main(["verify", str(gpath), str(lifted)]) == 0
        assert f"weight {record['weight']}" in capsys.readouterr().out
        if tool == "oracle":
            assert record["weight"] == want
        assert record["weight"] <= want


def test_cli_lift_rejects_a_solution_that_does_not_fit_the_sidecar(tmp_path, capsys):
    g = random_graph(2, 22, 0.3)
    gpath, kpath, lpath = tmp_path / "in.graph", tmp_path / "k.graph", tmp_path / "l.side"
    gpath.write_text(graph_io.serialize_graph(g))
    assert main(["reduce", str(gpath), "--kernel-out", str(kpath), "--lift", str(lpath)]) == 0
    kernel_n = json.loads(capsys.readouterr().out)["kernel_n"]
    kernel = graph_io.parse_graph(kpath)
    u = next(v for v in range(kernel_n) if kernel.degree(v))
    cases = [
        (f"{kernel_n + 1}\n", f"solution id {kernel_n + 1} out of range 1..{kernel_n}"),
        (f"{u + 1} {kernel.neighbors(u)[0] + 1}\n", "solution contains the edge"),
        (json.dumps({"solution": [u + 1], "weight": kernel.weight(u) + 1}),
         "is not the claimed kernel weight"),
    ]
    for text, message in cases:
        ksol = tmp_path / "ksol.txt"
        ksol.write_text(text)
        assert main(["lift", str(gpath), str(ksol), "--lift", str(lpath)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


def test_cli_ls_and_hybrid(tmp_path, capsys):
    g = random_graph(4, 30, 0.15)
    gpath = tmp_path / "g.graph"
    gpath.write_text(graph_io.serialize_graph(g))
    conv = tmp_path / "conv.csv"
    assert main(["ls", str(gpath), "--iterations", "200",
                 "--convergence", str(conv)]) == 0
    ls_rec = json.loads(capsys.readouterr().out)
    lines = conv.read_text().strip().splitlines()
    assert lines[0] == "elapsed_seconds,weight"
    weights = [int(line.split(",")[1]) for line in lines[1:]]
    assert weights == sorted(set(weights))
    assert main(["hybrid", str(gpath), "--iterations", "200"]) == 0
    hy_rec = json.loads(capsys.readouterr().out)
    assert hy_rec["weight"] >= ls_rec["weight"]
    assert hy_rec["optimal"] is False


def test_cli_ls_reports_its_wall_time(tmp_path, capsys):
    # the search improves early and then runs on until the limit
    gpath = tmp_path / "g.graph"
    gpath.write_text(graph_io.serialize_graph(random_graph(4, 30, 0.15)))
    assert main(["ls", str(gpath), "--time-limit", "0.3"]) == 0
    assert json.loads(capsys.readouterr().out)["elapsed_sec"] >= 0.3


def test_cli_hybrid_time_limit_covers_reduce_and_search(tmp_path, capsys):
    # reduce takes over half the limit here, so a search budget that also
    # counted from the start of reduce would end before the search began
    gpath = tmp_path / "g.graph"
    gpath.write_text(graph_io.serialize_graph(gnm_graph(1, 5000, 12500)))
    conv = tmp_path / "conv.csv"
    assert main(["hybrid", str(gpath), "--time-limit", "0.8", "--convergence", str(conv)]) == 0
    assert json.loads(capsys.readouterr().out)["elapsed_sec"] >= 0.8
    rows = [line.split(",") for line in conv.read_text().splitlines()[1:]]
    times, weights = [float(t) for t, _ in rows], [int(w) for _, w in rows]
    assert times == sorted(times) and weights == sorted(set(weights))


def test_cli_gen_weights_and_fmt0_flow(tmp_path, capsys):
    raw = tmp_path / "raw.graph"
    raw.write_text("3 2 0\n2\n1 3\n2\n")
    out = tmp_path / "weighted.graph"
    assert main(["gen-weights", str(raw), "--seed", "9", "-o", str(out)]) == 0
    g = graph_io.parse_graph(out)
    assert all(1 <= g.weight(v) <= 200 for v in range(3))
    capsys.readouterr()
    assert main(["solve", str(raw), "--weights", "generate:1:200", "--seed", "9"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["weight"] == brute_force_mwis(g).weight


@pytest.mark.parametrize("lo, hi", [(5, 1), (0, 3)])
def test_cli_rejects_a_bad_weight_range(tmp_path, capsys, lo, hi):
    raw = tmp_path / "raw.graph"
    raw.write_text("3 2 0\n2\n1 3\n2\n")
    out = tmp_path / "weighted.graph"
    for argv in (["gen-weights", str(raw), "--lo", str(lo), "--hi", str(hi), "-o", str(out)],
                 ["solve", str(raw), "--weights", f"generate:{lo}:{hi}"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"[{lo}, {hi}]" in err and err.count("\n") == 1
    assert not out.exists()


def _run_python(args, **kwargs):
    """``python args`` in a subprocess that imports the package this suite
    imported, installed or not."""
    package_root = str(Path(mwis.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, **kwargs)


def _run_cli(argv, **kwargs):
    return _run_python(["-m", "mwis.cli", *argv], **kwargs)


@pytest.mark.parametrize("argv", [["gen-weights", "--lo", "1", "--hi", str(10**23), "-o", "w.graph"],
                                  ["solve", "--weights", f"generate:1:{2**64 + 2}"]])
def test_cli_rejects_a_weight_span_past_2_64(tmp_path, argv):
    # one 64-bit draw cannot cover such a span: rejection sampling would
    # refuse every draw, so the command must fail at once instead of spinning
    raw = tmp_path / "raw.graph"
    raw.write_text("3 2 0\n2\n1 3\n2\n")
    out = _run_cli([argv[0], str(raw), *argv[1:]], cwd=tmp_path, timeout=30)
    assert out.returncode == 1
    assert out.stderr.startswith("error: bad ") and "exceeds 2**64" in out.stderr
    assert not (tmp_path / "w.graph").exists()


@pytest.mark.parametrize("bound", [0, 2**64 + 1], ids=["zero", "past_2_64"])
def test_splitmix_below_refuses_a_bound_outside_1_to_2_64(bound):
    # past 2**64 rejection sampling would refuse every draw, so the call runs
    # in a subprocess whose timeout turns a spin into a failure
    code = ("from mwis.graph_io import SplitMix64\n"
            "try:\n"
            f"    SplitMix64(1).below({bound})\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    out = _run_python(["-c", code], timeout=30)
    assert out.returncode == 0 and out.stderr == ""
    assert "exceeds 2**64" in out.stdout


def test_weight_generation_span_of_exactly_2_64():
    g = WeightedGraph([1] * 50)
    graph_io.generate_weights(g, seed=2, lo=2, hi=2**64 + 1)
    assert all(2 <= g.weight(v) <= 2**64 + 1 for v in range(50))
    assert len({g.weight(v) for v in range(50)}) == 50


def test_cli_oracle_size_cap(tmp_path, capsys):
    g = WeightedGraph([1] * 30)
    gpath = tmp_path / "big.graph"
    gpath.write_text(graph_io.serialize_graph(g))
    assert main(["oracle", str(gpath)]) == 1
    assert "limited" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["oracle", "reduce"])
def test_cli_offers_no_convergence_log_where_none_is_written(command, tmp_path, capsys):
    gpath = tmp_path / "g.graph"
    gpath.write_text(graph_io.serialize_graph(random_graph(1, 8, 0.3)))
    conv = tmp_path / "conv.csv"
    extra = ["--kernel-out", str(tmp_path / "k.graph"), "--lift", str(tmp_path / "k.lift")]
    with pytest.raises(SystemExit) as exc:
        main([command, str(gpath), *(extra if command == "reduce" else []),
              "--convergence", str(conv)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --convergence" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.graph"]


def test_cli_timeout_is_exit_zero(tmp_path, capsys):
    g = random_graph(7, 120, 0.5)
    gpath = tmp_path / "hard.graph"
    gpath.write_text(graph_io.serialize_graph(g))
    assert main(["solve", str(gpath), "--time-limit", "0.5"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["optimal"] is False
    verify_independent_set(g, [v - 1 for v in rec["solution"]])


@pytest.mark.parametrize("argv", [
    ["ls", "--time-limit", "nan"], ["ls", "--time-limit", "inf"],
    ["solve", "--time-limit", "nan"], ["solve", "--time-limit", "-1"],
    ["hybrid", "--time-limit", "-0.5"], ["ls", "--iterations", "-3"],
    ["hybrid", "--iterations", "-1"]])
def test_cli_refuses_budgets_that_never_end_or_are_negative(tmp_path, capsys, argv):
    # `ls` under a NaN or infinite limit used to run forever
    gpath = tmp_path / "p3.graph"
    gpath.write_text("3 2 10\n1 2\n5 1 3\n1 2\n")
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(gpath), *argv[1:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"argument {argv[1]}: expected a finite value >= 0" in err
    assert main([argv[0], str(gpath), argv[1], "0"]) == 0  # zero is a budget
    assert json.loads(capsys.readouterr().out)["weight"] >= 2


HEAVY_PATH = f"3 2 10\n{2**62} 2\n1 1 3\n{2**62} 2\n"  # total weight 2**63 + 1


def test_cli_refuses_weights_past_int64(tmp_path, capsys):
    gpath = tmp_path / "heavy.graph"
    gpath.write_text(HEAVY_PATH)
    assert main(["ls", str(gpath), "--iterations", "5"]) == 1
    assert "2**63 - 1" in capsys.readouterr().err


def test_cli_solve_takes_weights_past_int64(tmp_path, capsys):
    gpath = tmp_path / "heavy.graph"
    gpath.write_text(HEAVY_PATH)
    assert main(["solve", str(gpath)]) == 0
    assert json.loads(capsys.readouterr().out)["weight"] == 2**63


def test_cli_hybrid_completes_a_kernel_past_int64_greedily(tmp_path, capsys):
    g = random_graph(3, 30, 0.5)
    heavy = WeightedGraph([g.weight(v) << 55 for v in range(g.n_alive)],
                          [(u, v) for u in range(g.n_alive) for v in g.neighbors(u) if u < v])
    gpath = tmp_path / "heavy.graph"
    gpath.write_text(graph_io.serialize_graph(heavy))
    assert main(["hybrid", str(gpath), "--iterations", "5"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["kernel_n"] > 0 and rec["weight"] > 2**63 - 1
    assert verify_independent_set(heavy, [v - 1 for v in rec["solution"]]) == rec["weight"]


def test_console_script_entry_point(edge_graph):
    out = _run_cli(["solve", str(edge_graph)])
    assert out.returncode == 0
    assert json.loads(out.stdout)["weight"] == 5
