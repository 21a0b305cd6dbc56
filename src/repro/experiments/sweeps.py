"""Parameter sweeps for Fig. 1(a)-(f).

Each panel of Fig. 1 varies one factor of the synthetic generator around the
Table I defaults.  The exact grids are not printed in the paper text; the
grids below are the conventional ones for these factors, and the CLI re-runs
any panel with other grids.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.core.base import ArrangementAlgorithm
from repro.datagen.synthetic import TABLE1_DEFAULTS, SyntheticConfig, generate_synthetic
from repro.experiments.runner import AlgorithmStats, default_algorithms, run_repetitions

#: Figure id -> (SyntheticConfig field, paper axis label, value grid).
FIG1_SWEEPS: dict[str, tuple[str, str, list]] = {
    "fig1a": ("num_events", "|V|", [100, 150, 200, 250, 300]),
    "fig1b": ("num_users", "|U|", [1000, 2000, 5000, 8000, 10000]),
    "fig1c": ("conflict_probability", "pcf", [0.1, 0.2, 0.3, 0.4, 0.5]),
    "fig1d": ("friend_probability", "pdeg", [0.1, 0.3, 0.5, 0.7, 0.9]),
    "fig1e": ("max_event_capacity", "max cv", [10, 30, 50, 70, 90]),
    "fig1f": ("max_user_capacity", "max cu", [2, 3, 4, 5, 6]),
}


@dataclass
class SweepResult:
    """All repetition statistics of one parameter sweep.

    Attributes:
        parameter: the swept SyntheticConfig field.
        label: the paper's axis label (e.g. ``|V|``).
        values: grid of swept values.
        stats: per value, per algorithm name, the aggregated stats.
        repetitions: repetitions per grid point.
    """

    parameter: str
    label: str
    values: list
    stats: list[dict[str, AlgorithmStats]] = field(default_factory=list)
    repetitions: int = 0

    def series(self, algorithm: str) -> list[float]:
        """Mean utility of one algorithm across the grid."""
        return [point[algorithm].mean_utility for point in self.stats]

    def algorithms(self) -> list[str]:
        return list(self.stats[0].keys()) if self.stats else []


def run_sweep(
    parameter: str,
    values: Sequence,
    *,
    label: str | None = None,
    base_config: SyntheticConfig = TABLE1_DEFAULTS,
    algorithm_factory: Callable[[], list[ArrangementAlgorithm]] = default_algorithms,
    repetitions: int = 3,
    base_seed: int = 0,
) -> SweepResult:
    """Sweep one synthetic-generator parameter and run all algorithms.

    Fresh algorithm objects per grid point keep LP caches from leaking
    across instances.

    Args:
        parameter: a :class:`SyntheticConfig` field name.
        values: grid values for the field.
        label: display label (defaults to the field name).
        base_config: the fixed factors (Table I defaults).
        algorithm_factory: builds the algorithm list per grid point.
        repetitions: instance draws per grid point.
        base_seed: see :func:`run_repetitions`; grid point ``j`` shifts the
            seed window by ``max(1000, repetitions) * j`` to decorrelate
            points.  (A fixed stride of 1000 made windows overlap beyond
            1000 repetitions, so later grid points silently reused earlier
            points' instance draws.)
    """
    result = SweepResult(
        parameter=parameter,
        label=label or parameter,
        values=list(values),
        repetitions=repetitions,
    )
    # Grid point j consumes seeds [base + stride*j, base + stride*j + reps);
    # the stride must be at least the window width to keep points disjoint.
    stride = max(1000, repetitions)
    for j, value in enumerate(values):
        config = base_config.with_overrides(**{parameter: value})
        stats = run_repetitions(
            lambda seed, cfg=config: generate_synthetic(cfg, seed=seed),
            algorithms=algorithm_factory(),
            repetitions=repetitions,
            base_seed=base_seed + stride * j,
        )
        result.stats.append(stats)
    return result


def run_figure(
    figure_id: str,
    *,
    repetitions: int = 3,
    base_seed: int = 0,
    base_config: SyntheticConfig = TABLE1_DEFAULTS,
    algorithm_factory: Callable[[], list[ArrangementAlgorithm]] = default_algorithms,
) -> SweepResult:
    """Run one Fig. 1 panel by id (``fig1a`` ... ``fig1f``).

    Raises:
        KeyError: for unknown figure ids.
    """
    if figure_id not in FIG1_SWEEPS:
        raise KeyError(
            f"unknown figure id {figure_id!r}; expected one of {sorted(FIG1_SWEEPS)}"
        )
    parameter, axis_label, values = FIG1_SWEEPS[figure_id]
    return run_sweep(
        parameter,
        values,
        label=axis_label,
        base_config=base_config,
        algorithm_factory=algorithm_factory,
        repetitions=repetitions,
        base_seed=base_seed,
    )
