"""Command-line surface.

Subcommands: ``solve`` (branch-and-reduce), ``reduce`` (kernel + lifting
sidecar export), ``lift`` (map a kernel solution back through the sidecar),
``ls`` (local search only), ``hybrid`` (reduce, then local search on the
kernel, then lift), ``oracle`` (size-capped brute force), ``verify`` (check
a solution file against a graph), ``gen-weights`` (deterministic weight
assignment).

Every solving command prints a one-line JSON result record to stdout and
optionally writes an ``elapsed_seconds,weight`` convergence CSV.  Timeouts
are normal outcomes (exit 0, ``optimal`` false); bad inputs and failed
verification exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import graph_io
from .errors import CertificateError, GraphError, OracleSizeError, ParseError
from .graph import MAX_TOTAL_WEIGHT, WeightedGraph
from .local_search import ils_run
from .oracle import brute_force_mwis
from .reductions import lift_solution, reduce_to_kernel
from .solution import Solution, verify_independent_set, verify_solution
from .solver import SolverConfig, greedy_complete, solve


def _add_common(p: argparse.ArgumentParser, anytime: bool = True) -> None:
    p.add_argument("graph", help="input graph file")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--weights", default=None, metavar="SPEC",
                   help="'generate:LO:HI' for random weights or 'file:PATH'; "
                        "defaults to the weights in the graph file (fmt 10)")
    if anytime:
        p.add_argument("--time-limit", type=float, default=None, metavar="SECONDS")
        p.add_argument("--convergence", default=None, metavar="PATH",
                       help="write an elapsed_seconds,weight CSV here")


def _load_graph(args) -> WeightedGraph:
    g = graph_io.parse_graph(args.graph)
    spec = getattr(args, "weights", None)
    if spec:
        if spec.startswith("generate:"):
            try:
                _, lo, hi = spec.split(":")
                graph_io.generate_weights(g, args.seed, int(lo), int(hi))
            except ValueError as exc:
                raise ParseError(f"bad --weights spec {spec!r}: {exc}") from None
        elif spec.startswith("file:"):
            weights = graph_io.read_weight_file(spec[5:], g.n_alive)
            for v, w in zip(sorted(g.alive_vertices()), weights):
                g.set_weight(v, w)
        else:
            raise ParseError(f"--weights must be 'generate:LO:HI' or 'file:PATH', got {spec!r}")
    return g


def _emit(args, n: int, m: int, elapsed: float, variant: str, **fields) -> None:
    print(graph_io.format_record(graph_io.result_record(
        os.path.basename(args.graph), n, m, elapsed, args.seed, variant, **fields)))


def _write_convergence(args, entries) -> None:
    if args.convergence:
        with open(args.convergence, "w", encoding="utf-8") as fh:
            graph_io.write_convergence(entries, fh)


def cmd_solve(args) -> int:
    g = _load_graph(args)
    config = SolverConfig(variant=args.variant, time_limit=args.time_limit,
                          seed=args.seed)
    result = solve(g, config)
    _emit(args, g.n_alive, g.m_alive, result.elapsed, args.variant,
          weight=result.solution.weight, optimal=result.solution.optimal,
          kernel_n=result.kernel_n, kernel_m=result.kernel_m,
          solution=result.solution.vertices)
    _write_convergence(args, result.convergence)
    return 0


def cmd_reduce(args) -> int:
    g = _load_graph(args)
    n0, m0 = g.n_alive, g.m_alive
    t0 = time.monotonic()
    kr = reduce_to_kernel(g, variant=args.variant)
    elapsed = time.monotonic() - t0
    kernel_map = sorted(kr.kernel.alive_vertices())
    graph_io.write_graph(kr.kernel, args.kernel_out)
    with open(args.lift, "w", encoding="utf-8") as fh:
        graph_io.write_lifting(kr.offset, kernel_map, kr.stack, fh)
    _emit(args, n0, m0, elapsed, args.variant, kernel_n=kr.kernel.n_alive,
          kernel_m=kr.kernel.m_alive, offset=kr.offset)
    return 0


def cmd_lift(args) -> int:
    g = _load_graph(args)
    t0 = time.monotonic()
    with open(args.lift, "r", encoding="utf-8") as fh:
        offset, kernel_map, records = graph_io.read_lifting(fh)
    ids, claimed = _read_solution(args.kernel_solution, len(kernel_map))
    lifted = lift_solution([kernel_map[v - 1] for v in ids], records)
    weight = verify_independent_set(g, lifted, base=1)
    if claimed is not None and weight != claimed + offset:
        raise CertificateError(
            f"lifted weight {weight} is not the claimed kernel weight {claimed} "
            f"plus the offset {offset}")
    _emit(args, g.n_alive, g.m_alive, time.monotonic() - t0, "lift", weight=weight,
          optimal=False, kernel_n=len(kernel_map), offset=offset, solution=lifted)
    return 0


def cmd_ls(args) -> int:
    g = _load_graph(args)
    if args.time_limit is None and args.iterations is None:
        args.iterations = 10000
    t0 = time.monotonic()
    res = ils_run(g, iterations=args.iterations, time_limit=args.time_limit,
                  seed=args.seed)
    _emit(args, g.n_alive, g.m_alive, time.monotonic() - t0, "ls",
          weight=res.solution.weight, optimal=False, kernel_n=g.n_alive,
          kernel_m=g.m_alive, solution=res.solution.vertices)
    _write_convergence(args, res.convergence)
    return 0


def cmd_hybrid(args) -> int:
    g = _load_graph(args)
    if args.time_limit is None and args.iterations is None:
        args.iterations = 10000
    t0 = time.monotonic()
    work, mapping = g.compact_copy()
    kr = reduce_to_kernel(work, variant=args.variant)
    reduced_at = time.monotonic() - t0
    convergence = [(reduced_at, kr.offset)]
    kernel_sol: tuple[int, ...] = ()
    if kr.kernel.w_alive > MAX_TOTAL_WEIGHT:
        # the local search sums in int64; complete the kernel greedily instead
        greedy = greedy_complete(kr.kernel)
        kernel_sol = greedy.vertices
        convergence.append((time.monotonic() - t0, kr.offset + greedy.weight))
    elif kr.kernel.n_alive > 0:
        remaining = None
        if args.time_limit is not None:  # the limit covers reduce and search
            remaining = max(args.time_limit - reduced_at, 0.0)
        res = ils_run(kr.kernel, iterations=args.iterations,
                      time_limit=remaining, seed=args.seed)
        kernel_sol = res.solution.vertices
        convergence.extend((reduced_at + t, w + kr.offset) for t, w in res.convergence)
    lifted = lift_solution(kernel_sol, kr.stack)
    chosen = {mapping[v] for v in lifted}
    solution = Solution.of(g, chosen)
    verify_solution(g, solution)
    _emit(args, g.n_alive, g.m_alive, time.monotonic() - t0, "hybrid",
          weight=solution.weight, optimal=False, kernel_n=kr.kernel.n_alive,
          kernel_m=kr.kernel.m_alive, solution=solution.vertices)
    _write_convergence(args, convergence)
    return 0


def cmd_oracle(args) -> int:
    g = _load_graph(args)
    t0 = time.monotonic()
    sol = brute_force_mwis(g)
    _emit(args, g.n_alive, g.m_alive, time.monotonic() - t0, "oracle",
          weight=sol.weight, optimal=True, kernel_n=g.n_alive, kernel_m=g.m_alive,
          solution=sol.vertices)
    return 0


def _read_solution(path, n: int) -> tuple[list[int], int | None]:
    """1-based vertex ids and claimed weight (``None`` when not given) of a
    solution file: a JSON result record, or whitespace-separated ids."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read().strip()
    if text.startswith(("{", "[")):
        try:
            record = json.loads(text)
            ids, claimed = record["solution"], record.get("weight")
        except (json.JSONDecodeError, TypeError, KeyError):
            raise ParseError("a JSON solution must be an object with a 'solution' list") from None
        if not isinstance(ids, list) or not all(type(v) is int for v in ids):
            raise ParseError("the 'solution' field must be a list of integer ids")
        if claimed is not None and type(claimed) is not int:
            raise ParseError(f"claimed weight {claimed!r} is not an integer")
    else:
        ids, claimed = [], None
        for tok in text.split():
            try:
                ids.append(int(tok))
            except ValueError:
                raise ParseError(f"solution id {tok!r} is not an integer") from None
    seen = set()
    for v in ids:
        if not 1 <= v <= n:
            raise ParseError(f"solution id {v} out of range 1..{n}")
        if v in seen:
            raise ParseError(f"solution id {v} is listed twice")
        seen.add(v)
    return ids, claimed


def cmd_verify(args) -> int:
    g = _load_graph(args)
    ids, claimed_weight = _read_solution(args.solution, g.n_alive)
    vertices = tuple(sorted(v - 1 for v in ids))
    weight = sum(g.weight(v) for v in vertices)
    solution = Solution(vertices, claimed_weight if claimed_weight is not None else weight)
    verify_solution(g, solution, base=1)
    print(f"OK independent set of weight {solution.weight} ({len(vertices)} vertices)")
    return 0


def cmd_gen_weights(args) -> int:
    g = graph_io.parse_graph(args.graph)
    try:
        graph_io.generate_weights(g, args.seed, args.lo, args.hi)
    except ValueError as exc:
        raise ParseError(f"bad --lo/--hi: {exc}") from None
    graph_io.write_graph(g, args.output)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mwis",
        description="Exact and heuristic maximum weight independent set solving.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact branch-and-reduce")
    _add_common(p)
    p.add_argument("--variant", choices=("full", "dense"), default="full")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("reduce", help="export the kernel and a lifting sidecar")
    _add_common(p, anytime=False)
    p.add_argument("--variant", choices=("full", "dense"), default="full")
    p.add_argument("--kernel-out", required=True, metavar="PATH")
    p.add_argument("--lift", required=True, metavar="PATH")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("lift", help="lift a kernel solution through a sidecar")
    _add_common(p, anytime=False)
    p.add_argument("kernel_solution", help="solution file of the kernel graph")
    p.add_argument("--lift", required=True, metavar="PATH", help="sidecar from 'reduce'")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("ls", help="iterated local search only")
    _add_common(p)
    p.add_argument("--iterations", type=int, default=None)
    p.set_defaults(fn=cmd_ls)

    p = sub.add_parser("hybrid", help="reduce, local-search the kernel, lift")
    _add_common(p)
    p.add_argument("--variant", choices=("full", "dense"), default="full")
    p.add_argument("--iterations", type=int, default=None)
    p.set_defaults(fn=cmd_hybrid)

    p = sub.add_parser("oracle", help="brute force (small graphs only)")
    _add_common(p, anytime=False)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("verify", help="check a solution file against a graph")
    _add_common(p, anytime=False)
    p.add_argument("solution")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen-weights", help="write a weighted copy of a graph")
    p.add_argument("graph")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lo", type=int, default=1)
    p.add_argument("--hi", type=int, default=200)
    p.add_argument("--output", "-o", required=True)
    p.set_defaults(fn=cmd_gen_weights)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, GraphError, OracleSizeError, CertificateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
