"""Exact IGEPA solver via the integral benchmark formulation.

Lemma 1: restricting the benchmark LP's variables to {0, 1} gives an ILP
whose optimal solutions are exactly the optimal feasible arrangements —
every feasible arrangement induces one admissible set per user (their
assigned events), and conversely.  HiGHS's MIP solver proves the optimum of
that ILP (zero relative gap; see :func:`repro.solver.api.solve_lp`) on the
small instances used to validate the approximation ratio.  This is
exponential in the worst case; use it for |U| in the tens.
"""

from __future__ import annotations

import numpy as np

from repro.core.admissible import DEFAULT_MAX_SETS_PER_USER
from repro.core.base import ArrangementAlgorithm
from repro.core.lp_formulation import build_benchmark_lp
from repro.model.arrangement import Arrangement
from repro.model.instance import IGEPAInstance
from repro.solver.api import solve_lp


class ExactSolveError(RuntimeError):
    """The ILP solve did not prove optimality."""


class ExactILP(ArrangementAlgorithm):
    """Optimal IGEPA arrangements from the integer benchmark LP (small
    instances only).

    Args:
        max_sets_per_user: admissible-set explosion guard.
    """

    name = "exact-ilp"

    def __init__(self, max_sets_per_user: int = DEFAULT_MAX_SETS_PER_USER):
        super().__init__(seed=None)
        self.max_sets_per_user = max_sets_per_user

    def _solve(
        self, instance: IGEPAInstance, rng: np.random.Generator
    ) -> tuple[Arrangement, dict]:
        benchmark = build_benchmark_lp(
            instance, integer=True, max_sets_per_user=self.max_sets_per_user
        )
        solution = solve_lp(benchmark.lp)
        diagnostics = solution.diagnostics or {}
        if not solution.is_optimal:
            # The empty arrangement is always feasible, so anything but a
            # proven optimum means the solve (or the formulation) failed.
            raise ExactSolveError(
                f"benchmark ILP solve failed with status {solution.status.value}: "
                f"{diagnostics.get('linprog_message', 'no message')}"
            )
        pairs = benchmark.pairs_from_solution(solution.x)
        arrangement = Arrangement.from_pairs(instance, pairs, check=True)
        details = {
            "nodes_explored": diagnostics.get("mip_node_count", 0),
            "gap": diagnostics.get("mip_gap", 0.0),
            "ilp_objective": solution.objective_value,
        }
        return arrangement, details
