"""Exact branch-and-reduce solving and local search for the maximum weight
independent set problem on sparse graphs."""

from .bounds import build_clique_cover, clique_cover_bound
from .critical import critical_weighted_set
from .errors import (CertificateError, DeadlinePassed, GraphError,
                     InternalError, OracleSizeError, ParseError)
from .graph import WeightedGraph
from .local_search import LsState, ils_run
from .oracle import brute_force_critical_set, brute_force_mwis
from .reductions import (FoldRecord, KernelResult, ReductionEngine,
                         lift_solution, reduce_to_kernel)
from .solution import Solution, verify_independent_set, verify_solution
from .solver import (SearchStats, SolveResult, SolverConfig, greedy_complete,
                     select_branch_vertex, solve)

__version__ = "0.1.0"

__all__ = [
    "build_clique_cover", "clique_cover_bound",
    "critical_weighted_set",
    "CertificateError", "DeadlinePassed", "GraphError", "InternalError",
    "OracleSizeError", "ParseError",
    "WeightedGraph",
    "LsState", "ils_run",
    "brute_force_critical_set", "brute_force_mwis",
    "FoldRecord", "KernelResult", "ReductionEngine", "lift_solution",
    "reduce_to_kernel",
    "Solution", "verify_independent_set", "verify_solution",
    "SearchStats", "SolveResult", "SolverConfig", "greedy_complete",
    "select_branch_vertex", "solve",
    "__version__",
]
