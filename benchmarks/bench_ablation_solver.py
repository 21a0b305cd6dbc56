"""Ablation: LP solver backends on the benchmark LP (1)-(4).

The paper used Gurobi; this repository solves the benchmark LP with HiGHS
(through scipy, ``solve_lp``'s default) and keeps an in-repo revised
simplex (wide-LP friendly) as an independent reference.  The bench solves
the same benchmark LP with both, asserts they agree to 1e-6, and reports
wall-clock and iteration counts.
"""

import time

from benchmarks.conftest import BENCH_SEED, write_report
from repro.core import build_benchmark_lp
from repro.datagen import SyntheticConfig, generate_synthetic
from repro.solver import solve_lp

#: ~60 users yield a few hundred LP columns.  Production sweeps use HiGHS on
#: tens of thousands of columns.
CONFIG = SyntheticConfig(num_events=25, num_users=60)

BACKENDS = ["revised-simplex", "scipy"]


def _run_ablation():
    instance = generate_synthetic(CONFIG, seed=BENCH_SEED)
    benchmark = build_benchmark_lp(instance)
    rows = []
    for backend in BACKENDS:
        started = time.perf_counter()
        solution = solve_lp(benchmark.lp, backend=backend)
        elapsed = time.perf_counter() - started
        assert solution.is_optimal, f"{backend} failed: {solution.status}"
        rows.append(
            (backend, solution.objective_value, solution.iterations, elapsed)
        )
    return benchmark.lp.num_variables, benchmark.lp.num_constraints, rows


def bench_ablation_solver(bench_once):
    num_vars, num_cons, rows = bench_once(_run_ablation)

    objectives = [objective for _b, objective, _i, _t in rows]
    assert max(objectives) - min(objectives) < 1e-6, (
        f"backends disagree: {objectives}"
    )

    lines = [
        f"Ablation: LP backends on the benchmark LP "
        f"({num_vars} variables, {num_cons} constraints)",
        f"{'backend':>16} {'objective':>12} {'iterations':>11} {'time':>10}",
    ]
    for backend, objective, iterations, elapsed in rows:
        lines.append(
            f"{backend:>16} {objective:>12.6f} {iterations:>11} "
            f"{elapsed * 1e3:>8.1f}ms"
        )
    lines.append("paper used Gurobi; all backends return the same optimum.")
    write_report("ablation_solver", "\n".join(lines))
