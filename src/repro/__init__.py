"""repro — reproduction of *Interaction-Aware Arrangement for Event-Based
Social Networks* (Kou et al., ICDE 2019).

The package implements the IGEPA problem (Interaction-aware Global
Event-Participant Arrangement), the LP-packing approximation algorithm with its
1/4 approximation guarantee, the paper's baselines, the synthetic and
Meetup-like workload generators, and the full experiment harness regenerating
every figure and table in the paper's evaluation.

Quickstart::

    from repro import generate_synthetic, LPPacking

    instance = generate_synthetic(seed=0)
    result = LPPacking(alpha=1.0, seed=0).solve(instance)
    print(result.utility, len(result.arrangement))

Subpackages
-----------

``repro.core``
    The paper's contribution: admissible sets, benchmark LP, LP-packing,
    baselines, exact solver, analysis helpers.
``repro.model``
    EBSN data model: events, users, conflicts, interest, instances,
    arrangements.
``repro.social``
    Social-network substrate (graphs, generators, metrics).
``repro.solver``
    LP/ILP solver substrate: every program is solved by HiGHS (via scipy).
``repro.datagen``
    Synthetic (Table I) and Meetup-like dataset generators.
``repro.experiments``
    Figure/table experiment registry, sweep runner and reporting.
"""

from repro.core.admissible import enumerate_admissible_sets
from repro.core.analysis import empirical_approximation_ratio, lp_upper_bound
from repro.core.baselines import GGGreedy, RandomU, RandomV
from repro.core.exact import ExactILP
from repro.core.local_search import LocalSearch
from repro.core.lp_packing import LPPacking
from repro.core.online import OnlineGreedy, OnlineRandom, competitive_ratio
from repro.core.repair import repair
from repro.core.result import ArrangementResult
from repro.datagen.churn import ChurnConfig, ChurnTrace, generate_churn_trace
from repro.datagen.meetup import MeetupConfig, generate_meetup
from repro.datagen.synthetic import SyntheticConfig, generate_synthetic
from repro.experiments.replay import ReplayReport, replay_trace
from repro.model.arrangement import Arrangement
from repro.model.conflicts import (
    CompositeConflict,
    MatrixConflict,
    NoConflict,
    TimeIntervalConflict,
)
from repro.model.delta import Delta, DeltaResult, apply_delta
from repro.model.entities import Event, User
from repro.model.instance import IGEPAInstance
from repro.model.interest import (
    CosineInterest,
    JaccardInterest,
    TabulatedInterest,
)
from repro.social.graph import Graph

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core algorithms
    "LPPacking",
    "GGGreedy",
    "RandomU",
    "RandomV",
    "ExactILP",
    "LocalSearch",
    "OnlineGreedy",
    "OnlineRandom",
    "competitive_ratio",
    "ArrangementResult",
    "enumerate_admissible_sets",
    "lp_upper_bound",
    "empirical_approximation_ratio",
    # model
    "Event",
    "User",
    "IGEPAInstance",
    "Arrangement",
    "Delta",
    "DeltaResult",
    "apply_delta",
    "MatrixConflict",
    "TimeIntervalConflict",
    "CompositeConflict",
    "NoConflict",
    "CosineInterest",
    "JaccardInterest",
    "TabulatedInterest",
    # social
    "Graph",
    # datasets
    "SyntheticConfig",
    "generate_synthetic",
    "MeetupConfig",
    "generate_meetup",
    # churn engine
    "repair",
    "ChurnConfig",
    "ChurnTrace",
    "generate_churn_trace",
    "ReplayReport",
    "replay_trace",
]
