"""Exact IGEPA solver via the integral benchmark formulation.

Lemma 1: restricting the benchmark LP's variables to {0, 1} gives an ILP
whose optimal solutions are exactly the optimal feasible arrangements —
every feasible arrangement induces one admissible set per user (their
assigned events), and conversely.  Branch-and-bound over the LP relaxation
solves it exactly on the small instances used to validate the approximation
ratio.  This is exponential in the worst case; use it for |U| in the tens.
"""

from __future__ import annotations

import numpy as np

from repro.core.admissible import DEFAULT_MAX_SETS_PER_USER
from repro.core.base import ArrangementAlgorithm
from repro.core.lp_formulation import build_benchmark_lp
from repro.model.arrangement import Arrangement
from repro.model.instance import IGEPAInstance
from repro.solver.branch_and_bound import BranchAndBoundOptions, solve_ilp
from repro.solver.result import SolveStatus


class ExactSolveError(RuntimeError):
    """The branch-and-bound search did not prove optimality."""


class ExactILP(ArrangementAlgorithm):
    """Optimal IGEPA arrangements by branch-and-bound (small instances only).

    Args:
        max_nodes: branch-and-bound node cap; exceeding it raises
            :class:`ExactSolveError` unless ``allow_gap`` is set.
        allow_gap: return the incumbent (with its gap in ``details``) instead
            of raising when the node cap is hit.
        max_sets_per_user: admissible-set explosion guard.
    """

    name = "exact-ilp"

    def __init__(
        self,
        max_nodes: int = 200_000,
        allow_gap: bool = False,
        max_sets_per_user: int = DEFAULT_MAX_SETS_PER_USER,
    ):
        super().__init__(seed=None)
        self.max_nodes = max_nodes
        self.allow_gap = allow_gap
        self.max_sets_per_user = max_sets_per_user

    def _solve(
        self, instance: IGEPAInstance, rng: np.random.Generator
    ) -> tuple[Arrangement, dict]:
        benchmark = build_benchmark_lp(
            instance, integer=True, max_sets_per_user=self.max_sets_per_user
        )
        if benchmark.lp.num_variables == 0:
            return Arrangement(instance), {"nodes_explored": 0, "gap": 0.0}
        solution = solve_ilp(
            benchmark.lp,
            BranchAndBoundOptions(max_nodes=self.max_nodes),
        )
        if solution.status is SolveStatus.INFEASIBLE:
            # The empty arrangement is always feasible, so the ILP cannot be
            # infeasible unless the formulation is broken.
            raise ExactSolveError("benchmark ILP reported infeasible")
        if solution.status is SolveStatus.NODE_LIMIT and not self.allow_gap:
            raise ExactSolveError(
                f"node limit {self.max_nodes} hit with optimality gap "
                f"{solution.gap:.3%}; raise max_nodes or pass allow_gap=True"
            )
        if not solution.is_optimal and solution.status is not SolveStatus.NODE_LIMIT:
            raise ExactSolveError(
                f"branch-and-bound failed with status {solution.status.value}"
            )
        if solution.x.size == 0:
            # Node limit hit before any incumbent was found; the empty
            # arrangement is the best certified-feasible answer available.
            pairs: list[tuple[int, int]] = []
        else:
            pairs = benchmark.pairs_from_solution(solution.x)
        arrangement = Arrangement.from_pairs(instance, pairs, check=True)
        details = {
            "nodes_explored": solution.nodes_explored,
            "gap": solution.gap,
            "ilp_objective": solution.objective_value,
        }
        return arrangement, details
