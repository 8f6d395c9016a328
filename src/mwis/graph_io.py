"""Graph files, weight generation, result records and lifting sidecars.

Graph format (adjacency list; the README documents it bit-exactly):

* ``%`` lines are comments,
* header ``n m fmt`` (``fmt`` optional, default 0); ``fmt=10`` means every
  vertex line starts with the vertex weight, ``fmt=0`` means no weights in
  the file (supply them via :func:`generate_weights` or a weight file),
* then ``n`` vertex lines listing 1-based neighbor ids; every edge must
  appear from both endpoints and self-loops are rejected.

Weight generation uses splitmix64 with rejection sampling, so identical
seeds give identical weights on every platform.

Every command's result record, one line of JSON with sorted keys, comes from
:func:`result_record`; convergence logs are ``elapsed_seconds,weight`` CSV.
The lifting sidecar written next to an exported kernel carries the weight
offset, the id map and the fold record stack in replay order, enough to lift
a kernel solution in a separate process.  A record with no introduced
vertex is written as an ``include``, any other as a ``fold`` whose groups
are separated by ``;``.  ``_RECORD_FIELDS`` gives each record kind's fields
to the writer and to the reader, which rejects any line that the writer does
not write, down to the spelling of each number.
"""

from __future__ import annotations

import json
from typing import Sequence, TextIO

from .errors import ParseError
from .graph import WeightedGraph
from .reductions import FoldRecord

_M64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator (splitmix64), identical everywhere."""

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _M64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling; one 64-bit
        draw covers at most 2**64 values, so ``bound`` must be in [1, 2**64]."""
        if not 1 <= bound <= 1 << 64:
            raise ValueError(f"bound {bound} is below 1 or exceeds 2**64")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next64()
            if x < limit:
                return x % bound


def generate_weights(graph: WeightedGraph, seed: int, lo: int = 1, hi: int = 200) -> None:
    """Assign uniform random weights in [lo, hi], in ascending vertex order."""
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if hi - lo + 1 > 1 << 64:  # refused before any draw, so also on an empty graph
        raise ValueError(f"the span of [{lo}, {hi}] exceeds 2**64")
    rng = SplitMix64(seed)
    for v in graph.alive_vertices():
        graph.set_weight(v, lo + rng.below(hi - lo + 1))


# ----------------------------------------------------------------------
# Graph files
# ----------------------------------------------------------------------

def parse_graph_text(text: str) -> WeightedGraph:
    lines = text.splitlines()
    content: list[tuple[int, str]] = [
        (i + 1, line) for i, line in enumerate(lines) if not line.lstrip().startswith("%")
    ]
    if not content:
        raise ParseError("missing header line")
    lineno, header = content[0]
    parts = header.split()
    if len(parts) not in (2, 3):
        raise ParseError(f"header needs 'n m [fmt]', got {header!r}", lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
        fmt = int(parts[2]) if len(parts) == 3 else 0
    except ValueError:
        raise ParseError(f"non-integer header field in {header!r}", lineno) from None
    if fmt not in (0, 10):
        raise ParseError(f"unsupported fmt {fmt} (expected 0 or 10)", lineno)
    if n < 0 or m < 0:
        raise ParseError("negative vertex or edge count", lineno)
    if len(content) - 1 != n:
        raise ParseError(
            f"expected {n} vertex lines, found {len(content) - 1}", lineno)

    weights = [1] * n
    adj: list[list[int]] = [[] for _ in range(n)]
    listed: list[set[int]] = []  # the 1-based ids on each vertex line
    mentions = 0
    for v in range(n):
        lineno, line = content[v + 1]
        tokens = line.split()
        if fmt == 10:
            if not tokens:
                raise ParseError(f"vertex {v + 1}: missing weight token", lineno)
            try:
                w = int(tokens[0])
            except ValueError:
                raise ParseError(
                    f"vertex {v + 1}: weight {tokens[0]!r} is not an integer", lineno
                ) from None
            if w < 1:
                raise ParseError(f"vertex {v + 1}: weight must be >= 1, got {w}", lineno)
            weights[v] = w
            tokens = tokens[1:]
        seen: set[int] = set()
        listed.append(seen)
        for tok in tokens:
            try:
                u = int(tok)
            except ValueError:
                raise ParseError(
                    f"vertex {v + 1}: neighbor {tok!r} is not an integer", lineno
                ) from None
            if not (1 <= u <= n):
                raise ParseError(
                    f"vertex {v + 1}: neighbor id {u} out of range 1..{n}", lineno)
            if u == v + 1:
                raise ParseError(f"vertex {v + 1}: self-loop", lineno)
            if u in seen:
                raise ParseError(
                    f"vertex {v + 1}: duplicate neighbor {u}", lineno)
            seen.add(u)
            adj[v].append(u - 1)
            mentions += 1
    if mentions != 2 * m:
        raise ParseError(
            f"header claims {m} edges but the body mentions {mentions} endpoints")
    for v in range(n):
        for u in adj[v]:
            if v + 1 not in listed[u]:
                raise ParseError(
                    f"asymmetric edge: vertex {v + 1} lists {u + 1} but not vice versa",
                    content[u + 1][0])
    del listed  # freed before the graph is built, to keep the peak memory down
    edges = [(v, u) for v in range(n) for u in adj[v] if v < u]
    return WeightedGraph(weights, edges)


def parse_graph(path) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def serialize_graph(graph: WeightedGraph) -> str:
    """Write the alive subgraph, renumbered 1..n, in fmt=10."""
    xadj, adj, weights, _, _ = graph.alive_csr()
    lines = [f"{len(weights)} {graph.m_alive} 10"]
    for i, w in enumerate(weights):
        nbrs = " ".join(str(j + 1) for j in adj[xadj[i]:xadj[i + 1]])
        lines.append(f"{w} {nbrs}".rstrip())
    return "\n".join(lines) + "\n"


def write_graph(graph: WeightedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_graph(graph))


def read_weight_file(path, n: int) -> list[int]:
    weights = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh):
            if line.lstrip().startswith("%") or not line.strip():
                continue
            try:
                w = int(line.strip())
            except ValueError:
                raise ParseError(f"weight {line.strip()!r} is not an integer", i + 1) from None
            if w < 1:
                raise ParseError(f"weight must be >= 1, got {w}", i + 1)
            weights.append(w)
    if len(weights) != n:
        raise ParseError(f"weight file has {len(weights)} entries for {n} vertices")
    return weights


# ----------------------------------------------------------------------
# Result records and convergence logs
# ----------------------------------------------------------------------

def result_record(instance: str, n: int, m: int, elapsed: float, seed: int,
                  variant: str, **fields) -> dict:
    """The record every command prints: the shared keys plus ``fields``.  A
    ``solution`` field, 0-based vertex ids, is written as sorted 1-based ids."""
    record = {"instance": instance, "n": n, "m": m, "elapsed_sec": round(elapsed, 6),
              "seed": seed, "variant": variant, **fields}
    if "solution" in fields:
        record["solution"] = [v + 1 for v in sorted(fields["solution"])]
    return record


def format_record(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_convergence(entries: Sequence[tuple[float, int]], fh: TextIO) -> None:
    fh.write("elapsed_seconds,weight\n")
    for t, w in entries:
        fh.write(f"{t:.6f},{w}\n")


# ----------------------------------------------------------------------
# Lifting sidecar
# ----------------------------------------------------------------------

# Each record kind's fields in written order, with the FoldRecord attribute
# each fills: ``offset`` is an integer, ``in`` a ``;``-separated list of
# groups, one per introduced id, and every other field an id list.
_RECORD_FIELDS = {
    "include": {"forced": "out", "offset": "offset"},
    "fold": {"introduced": "introduced", "in": "fold_in", "out": "out", "offset": "offset"},
}


def _format_field(attr: str, value) -> str:
    if attr == "offset":
        return str(value)
    if attr == "fold_in":
        return ";".join(_format_field("out", group) for group in value)
    return ",".join(str(v + 1) for v in value) or "-"


def _number(text: str, least: int) -> int:
    """``text`` as an integer at least ``least``, if ``str`` writes that
    integer as ``text``: no sign, ``_``, space or leading zero."""
    value = int(text)
    if str(value) != text or value < least:
        raise ValueError(text)
    return value


def _parse_ids(text: str) -> tuple[int, ...]:
    return tuple(_number(tok, 1) - 1 for tok in text.split(","))


def _parse_field(attr: str, text: str):
    """Reads what ``_format_field`` writes: offsets from 0, ids from 1, and
    no group empty."""
    if attr == "offset":
        return _number(text, 0)
    if attr == "fold_in":
        return tuple(map(_parse_ids, text.split(";")))
    return () if text == "-" else _parse_ids(text)


def write_lifting(offset: int, kernel_map: Sequence[int],
                  records: Sequence[FoldRecord], fh: TextIO) -> None:
    """Sidecar: weight offset, kernel-id map, record stack in replay order."""
    fh.write(f"offset {offset}\n")
    for kid, orig in enumerate(kernel_map):
        fh.write(f"map {kid + 1} {orig + 1}\n")
    for rec in records:
        kind = "fold" if rec.introduced else "include"
        fields = " ".join(f"{name}={_format_field(attr, getattr(rec, attr))}"
                          for name, attr in _RECORD_FIELDS[kind].items())
        fh.write(f"rec {kind} {rec.rule} {fields}\n")


def read_lifting(fh: TextIO) -> tuple[int, list[int], tuple[FoldRecord, ...]]:
    """Read a sidecar, rejecting any line that ``write_lifting`` does not write."""
    offset = None
    kernel_map: list[int] = []
    records: list[FoldRecord] = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        try:
            if parts[0] == "offset":
                if offset is not None:
                    raise ParseError("second offset line", lineno)
                (text,) = parts[1:]
                offset = _number(text, 0)
            elif parts[0] == "map":
                kid, orig = (_number(tok, 1) - 1 for tok in parts[1:])
                if kid != len(kernel_map):
                    raise ParseError("map lines out of order", lineno)
                kernel_map.append(orig)
            elif parts[0] == "rec":
                kind, rule = parts[1], parts[2]
                if kind not in _RECORD_FIELDS:
                    raise ParseError(f"unknown record kind {kind!r}", lineno)
                fields = _RECORD_FIELDS[kind]
                given = dict(kv.split("=", 1) for kv in parts[3:])
                if len(given) < len(parts) - 3:
                    raise ParseError("a record field is given twice", lineno)
                rec = FoldRecord(rule=rule, **{
                    attr: _parse_field(attr, given[name]) for name, attr in fields.items()})
                unknown = given.keys() - fields.keys()
                if unknown:
                    raise ParseError(f"{kind} record has no field {min(unknown)!r}", lineno)
                if len(rec.fold_in) != len(rec.introduced):  # a fold with k = 0 is an include
                    raise ParseError("a fold record needs one group per introduced id", lineno)
                records.append(rec)
            else:
                raise ParseError(f"unknown sidecar line {parts[0]!r}", lineno)
        except ParseError:
            raise
        except (IndexError, KeyError, ValueError):
            raise ParseError(f"malformed sidecar line {line!r}", lineno) from None
    if offset is None:
        raise ParseError("the sidecar has no offset line")
    return offset, kernel_map, tuple(records)
