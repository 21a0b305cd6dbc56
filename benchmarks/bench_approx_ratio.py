"""Ablation: empirical validation of the 1/4 approximation ratio (Theorem 2).

On instances small enough for the exact ILP, the bench measures
``E[LP-packing] / OPT`` and ``E[LP-packing] / LP*`` at the theoretical
``α = 1/2`` and the empirical ``α = 1``.  Theorem 2 guarantees the α = 1/2
ratio is at least 1/4; in practice both settings land far above the bound.
"""

import numpy as np

from benchmarks.conftest import write_report
from repro.core import ExactILP, LPPacking, empirical_approximation_ratio
from repro.datagen import SyntheticConfig, generate_synthetic

NUM_INSTANCES = 5
REPS_PER_INSTANCE = 60
CONFIG = SyntheticConfig(
    num_events=8,
    num_users=12,
    max_event_capacity=3,
    max_user_capacity=3,
    conflict_probability=0.4,
)


def _run_validation():
    rows = []
    for alpha in (0.5, 1.0):
        ratios_lp = []
        ratios_exact = []
        for index in range(NUM_INSTANCES):
            instance = generate_synthetic(CONFIG, seed=100 + index)
            report = empirical_approximation_ratio(
                instance,
                LPPacking(alpha=alpha),
                repetitions=REPS_PER_INSTANCE,
                seed=0,
                compute_exact=True,
            )
            ratios_lp.append(report.ratio_vs_lp)
            ratios_exact.append(report.ratio_vs_exact)
        rows.append(
            (
                alpha,
                float(np.mean(ratios_lp)),
                float(min(ratios_lp)),
                float(np.mean(ratios_exact)),
                float(min(ratios_exact)),
            )
        )
    return rows


def bench_approx_ratio(bench_once):
    rows = bench_once(_run_validation)

    for alpha, _mean_lp, min_lp, _mean_exact, min_exact in rows:
        if alpha == 0.5:
            # Theorem 2: E[ALG] >= (1/4) LP* — check the worst instance too.
            assert min_lp >= 0.25, f"1/4 bound violated: {min_lp:.3f}"
            assert min_exact >= 0.25

    lines = [
        f"Theorem 2 validation: {NUM_INSTANCES} small instances x "
        f"{REPS_PER_INSTANCE} runs, exact optimum by HiGHS's MIP solver",
        f"{'α':>6} {'mean vs LP*':>12} {'min vs LP*':>11} "
        f"{'mean vs OPT':>12} {'min vs OPT':>11}",
    ]
    for alpha, mean_lp, min_lp, mean_exact, min_exact in rows:
        lines.append(
            f"{alpha:>6.2f} {mean_lp:>11.1%} {min_lp:>10.1%} "
            f"{mean_exact:>11.1%} {min_exact:>10.1%}"
        )
    lines.append("guarantee at α = 1/2: ratio >= α(1-α) = 25%")
    write_report("approx_ratio", "\n".join(lines))


def bench_exact_solver_nodes(bench_once):
    """Companion measurement: MIP search effort on these instances (0 nodes
    when HiGHS's presolve settles the ILP outright)."""

    def run():
        details = []
        for index in range(NUM_INSTANCES):
            instance = generate_synthetic(CONFIG, seed=100 + index)
            details.append(ExactILP().solve(instance).details)
        return details

    details = bench_once(run)
    assert all(d["gap"] == 0.0 for d in details)
    write_report(
        "exact_nodes",
        "MIP nodes per small instance: "
        + ", ".join(str(d["nodes_explored"]) for d in details),
    )
