"""Analysis helpers: LP upper bounds and empirical approximation ratios.

Used by the test suite and the ``approx_ratio`` ablation bench to check
Theorem 2 empirically: with ``α = 1/2``, ``E[ALG] ≥ (1/4)·LP* ≥ (1/4)·OPT``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.core.admissible import DEFAULT_MAX_SETS_PER_USER
from repro.core.base import ArrangementAlgorithm
from repro.core.exact import ExactILP
from repro.core.lp_formulation import build_benchmark_lp
from repro.model.instance import IGEPAInstance
from repro.solver.api import solve_lp


def lp_upper_bound(
    instance: IGEPAInstance,
    max_sets_per_user: int = DEFAULT_MAX_SETS_PER_USER,
) -> float:
    """The benchmark-LP optimum — a valid upper bound on OPT (Lemma 1)."""
    benchmark = build_benchmark_lp(instance, max_sets_per_user=max_sets_per_user)
    solution = solve_lp(benchmark.lp)
    if not solution.is_optimal:
        raise RuntimeError(
            f"benchmark LP solve failed with status {solution.status.value}"
        )
    return solution.objective_value


@dataclass
class RatioReport:
    """Empirical approximation statistics for one algorithm on one instance.

    Attributes:
        algorithm: algorithm name.
        utilities: per-repetition utilities.
        lp_bound: benchmark LP optimum (upper bound on OPT).
        exact_optimum: true OPT when computed (small instances), else None.
        mean_utility: average utility across repetitions.
        ratio_vs_lp: ``mean_utility / lp_bound`` (1.0 when the bound is 0).
        ratio_vs_exact: ``mean_utility / exact_optimum`` when available.
    """

    #: :class:`~repro.experiments.persistence.ReportEnvelope` discriminator.
    envelope_kind: ClassVar[str] = "ratio"

    algorithm: str
    utilities: list[float]
    lp_bound: float
    exact_optimum: float | None

    @property
    def mean_utility(self) -> float:
        return float(np.mean(self.utilities)) if self.utilities else 0.0

    @property
    def ratio_vs_lp(self) -> float:
        if self.lp_bound <= 0.0:
            return 1.0
        return self.mean_utility / self.lp_bound

    @property
    def ratio_vs_exact(self) -> float | None:
        if self.exact_optimum is None:
            return None
        if self.exact_optimum <= 0.0:
            return 1.0
        return self.mean_utility / self.exact_optimum

    def to_dict(self) -> dict:
        """JSON-ready snapshot through the shared report envelope."""
        # Deferred: repro.experiments imports repro.core back (the runner
        # solves with core algorithms), so the envelope import stays local.
        from repro.experiments.persistence import report_to_dict

        return report_to_dict(
            "ratio",
            {
                "algorithm": self.algorithm,
                "utilities": list(self.utilities),
                "lp_bound": self.lp_bound,
                "exact_optimum": self.exact_optimum,
                "mean_utility": self.mean_utility,
                "ratio_vs_lp": self.ratio_vs_lp,
                "ratio_vs_exact": self.ratio_vs_exact,
            },
            [],
        )


def empirical_approximation_ratio(
    instance: IGEPAInstance,
    algorithm: ArrangementAlgorithm,
    repetitions: int = 50,
    seed: int = 0,
    compute_exact: bool = False,
) -> RatioReport:
    """Run ``algorithm`` repeatedly and relate its mean utility to the bounds.

    Args:
        instance: the IGEPA instance.
        algorithm: any :class:`ArrangementAlgorithm`; randomized ones receive
            seeds ``seed, seed+1, ...`` per repetition.
        repetitions: number of runs to average.
        seed: base seed.
        compute_exact: additionally solve the instance exactly (viable only
            for small instances).
    """
    utilities = [
        algorithm.solve(instance, seed=seed + repetition).utility
        for repetition in range(repetitions)
    ]
    bound = lp_upper_bound(instance)
    exact_value: float | None = None
    if compute_exact:
        exact_value = ExactILP().solve(instance).utility
    return RatioReport(
        algorithm=algorithm.name,
        utilities=utilities,
        lp_bound=bound,
        exact_optimum=exact_value,
    )
