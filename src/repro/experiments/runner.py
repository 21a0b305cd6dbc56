"""Repetition runner: the paper's "repeated 50 times, averages reported".

A *repetition* draws a fresh instance (seed ``base_seed + i``) and runs every
algorithm once on it with the same seed — so algorithms are compared on
identical data and randomness budgets, repetition by repetition.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.base import ArrangementAlgorithm
from repro.core.baselines import GGGreedy, RandomU, RandomV
from repro.core.lp_packing import LPPacking
from repro.model.instance import IGEPAInstance

InstanceFactory = Callable[[int], IGEPAInstance]
AlgorithmFactory = Callable[[], list[ArrangementAlgorithm]]


def default_algorithms() -> list[ArrangementAlgorithm]:
    """The paper's four algorithms in its Table II order.

    LP-packing uses ``α = 1`` ("We empirically set α = 1 in LP-packing").
    """
    return [
        LPPacking(alpha=1.0),
        RandomU(),
        RandomV(),
        GGGreedy(),
    ]


@dataclass
class AlgorithmStats:
    """Aggregated repetition statistics for one algorithm.

    Attributes:
        algorithm: display name.
        utilities: utility per repetition.
        runtimes: solve wall-clock per repetition (seconds).
        pair_counts: arrangement sizes per repetition.
    """

    algorithm: str
    utilities: list[float] = field(default_factory=list)
    runtimes: list[float] = field(default_factory=list)
    pair_counts: list[int] = field(default_factory=list)

    @property
    def mean_utility(self) -> float:
        return float(np.mean(self.utilities)) if self.utilities else 0.0

    @property
    def std_utility(self) -> float:
        return float(np.std(self.utilities)) if self.utilities else 0.0

    @property
    def mean_runtime(self) -> float:
        return float(np.mean(self.runtimes)) if self.runtimes else 0.0

    @property
    def mean_pairs(self) -> float:
        return float(np.mean(self.pair_counts)) if self.pair_counts else 0.0


def run_repetitions(
    instance_factory: InstanceFactory,
    algorithms: Sequence[ArrangementAlgorithm] | None = None,
    repetitions: int = 3,
    base_seed: int = 0,
) -> dict[str, AlgorithmStats]:
    """Run every algorithm on ``repetitions`` freshly drawn instances.

    Args:
        instance_factory: maps a repetition seed to an instance (e.g.
            ``lambda s: generate_synthetic(config, seed=s)``).
        algorithms: algorithm objects (defaults to the paper's four).
        repetitions: number of instance draws.
        base_seed: repetition ``i`` uses seed ``base_seed + i`` for both the
            instance and the algorithms.

    Returns:
        Per-algorithm statistics keyed by algorithm name.
    """
    if algorithms is None:
        algorithms = default_algorithms()
    stats = {algorithm.name: AlgorithmStats(algorithm.name) for algorithm in algorithms}
    for repetition in range(repetitions):
        seed = base_seed + repetition
        instance = instance_factory(seed)
        for algorithm in algorithms:
            result = algorithm.solve(instance, seed=seed)
            record = stats[algorithm.name]
            record.utilities.append(result.utility)
            record.runtimes.append(result.runtime_seconds)
            record.pair_counts.append(result.num_pairs)
    return stats


def run_on_instance(
    instance: IGEPAInstance,
    algorithms: Sequence[ArrangementAlgorithm] | None = None,
    repetitions: int = 3,
    base_seed: int = 0,
) -> dict[str, AlgorithmStats]:
    """Like :func:`run_repetitions` but on one fixed instance.

    Used for the real-dataset experiment (Table II), where the data is fixed
    and only algorithm randomness varies.  LP-packing's internal LP cache
    makes the extra repetitions nearly free.
    """
    return run_repetitions(
        lambda _seed: instance,
        algorithms=algorithms,
        repetitions=repetitions,
        base_seed=base_seed,
    )
