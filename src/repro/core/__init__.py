"""The paper's contribution: LP-packing and everything around it.

* :mod:`repro.core.admissible` — admissible event sets (``A_u``).
* :mod:`repro.core.lp_formulation` — the benchmark LP (1)-(4).
* :mod:`repro.core.lp_packing` — Algorithm 1 (LP-packing).
* :mod:`repro.core.baselines` — Random-U, Random-V, GG.
* :mod:`repro.core.exact` — exact ILP solver (Lemma 1).
* :mod:`repro.core.analysis` — LP bounds and empirical approximation ratios.
* :mod:`repro.core.repair` — targeted arrangement repair after churn deltas.
* :mod:`repro.core.parallel` — shard-parallel repair (propose in workers,
  commit serially at the event-side sync).
"""

from repro.core.admissible import (
    DEFAULT_MAX_SETS_PER_USER,
    AdmissibleSetExplosion,
    enumerate_admissible_sets,
    enumerate_all_admissible_sets,
    is_admissible,
)
from repro.core.analysis import (
    RatioReport,
    empirical_approximation_ratio,
    lp_upper_bound,
)
from repro.core.base import ArrangementAlgorithm
from repro.core.baselines import GGGreedy, RandomU, RandomV
from repro.core.exact import ExactILP, ExactSolveError
from repro.core.local_search import LocalSearch, improve, iter_passes
from repro.core.lp_formulation import BenchmarkLP, build_benchmark_lp
from repro.core.lp_packing import REPAIR_ORDERS, LPPacking, LPPackingError
from repro.core.metrics import (
    event_fill_rates,
    interaction_lift,
    jain_fairness,
    mean_fill_rate,
    summarize,
    user_coverage,
    user_utilities,
)
from repro.core.online import OnlineGreedy, OnlineRandom, competitive_ratio
from repro.core.parallel import parallel_repair
from repro.core.repair import apply_with_repair, repair
from repro.core.result import ArrangementResult

__all__ = [
    "ArrangementAlgorithm",
    "ArrangementResult",
    "LPPacking",
    "LPPackingError",
    "REPAIR_ORDERS",
    "RandomU",
    "RandomV",
    "GGGreedy",
    "ExactILP",
    "ExactSolveError",
    "LocalSearch",
    "improve",
    "iter_passes",
    "repair",
    "apply_with_repair",
    "parallel_repair",
    "OnlineGreedy",
    "OnlineRandom",
    "competitive_ratio",
    "BenchmarkLP",
    "build_benchmark_lp",
    "enumerate_admissible_sets",
    "enumerate_all_admissible_sets",
    "is_admissible",
    "AdmissibleSetExplosion",
    "DEFAULT_MAX_SETS_PER_USER",
    "lp_upper_bound",
    "empirical_approximation_ratio",
    "RatioReport",
    "summarize",
    "event_fill_rates",
    "mean_fill_rate",
    "user_coverage",
    "user_utilities",
    "jain_fairness",
    "interaction_lift",
]
