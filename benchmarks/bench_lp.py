"""LP backend benchmark: dense tableau vs revised (dense/sparse) vs scipy.

Times every from-scratch backend on a fixed-seed ladder of benchmark LPs
(1)-(4) plus a wide random packing LP, cross-checks all optimal objectives
against each other and scipy (HiGHS) to 1e-6, and records the
results as ``benchmarks/output/BENCH_lp.json`` so the perf trajectory
accumulates across PRs.

Run as a script (CI does)::

    python benchmarks/bench_lp.py --quick --out benchmarks/output/BENCH_lp.json

or through pytest-benchmark with the rest of the bench suite::

    python -m pytest benchmarks/bench_lp.py

The headline acceptance number is ``speedup_vs_tableau`` of the sparse
revised simplex on the largest instance — the sparse backend must be at
least 5x faster than the dense tableau backend.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np

from repro.core.lp_formulation import build_benchmark_lp
from repro.datagen import SyntheticConfig, generate_synthetic
from repro.experiments.persistence import write_bench_artifact
from repro.solver import LinearProgram, Sense, solve_lp

#: Backends timed on every instance.  ``simplex`` is the dense tableau — the
#: reference dense backend the sparse revised simplex is gated against.
TIMED_BACKENDS = ["simplex", "revised-simplex-dense", "revised-simplex-sparse"]

MIN_SPEEDUP_VS_TABLEAU = 5.0


def _wide_random_lp(seed: int, n: int = 2000, m: int = 60) -> LinearProgram:
    """A wide random packing LP shaped like the benchmark LP.

    Variables carry no explicit upper bound (a global budget row keeps the
    LP bounded instead): explicit bounds that no row implies would each cost
    a standard-form row, turning the wide LP tall — exactly what the
    benchmark LP avoids because presolve proves its ``x <= 1`` bounds
    redundant against the per-user rows.
    """
    rng = np.random.default_rng(seed)
    lp = LinearProgram(name=f"wide-random[{n}x{m}]", maximize=True)
    for j in range(n):
        lp.add_variable(f"x{j}", objective=float(rng.uniform(0.1, 1.0)))
    for _ in range(m - 1):
        columns = rng.choice(n, size=int(rng.integers(20, 60)), replace=False)
        lp.add_constraint(
            {int(j): 1.0 for j in columns}, Sense.LE, float(rng.integers(2, 8))
        )
    lp.add_constraint({j: 1.0 for j in range(n)}, Sense.LE, float(n // 40))
    return lp


def _instances(seed: int, quick: bool):
    user_counts = (100, 200) if quick else (100, 200, 400)
    for num_users in user_counts:
        instance = generate_synthetic(SyntheticConfig(num_users=num_users), seed=seed)
        bench = build_benchmark_lp(instance)
        yield f"benchmark-lp[|U|={num_users}]", bench.lp
    yield "wide-random[2000x60]", _wide_random_lp(seed)


def run_bench(
    seed: int = 0, quick: bool = False, min_speedup: float = MIN_SPEEDUP_VS_TABLEAU
) -> dict:
    """Time all backends on the ladder; returns the JSON-ready report.

    ``min_speedup`` is the hard gate on the largest benchmark LP (default
    5x, the acceptance criterion); CI passes a looser floor because shared
    runners add wall-clock noise — the measured ratio is always recorded in
    the JSON artifact either way.
    """
    rows = []
    for name, lp in _instances(seed, quick):
        row: dict = {
            "instance": name,
            "num_variables": lp.num_variables,
            "num_constraints": lp.num_constraints,
        }
        objectives = {}
        for backend in TIMED_BACKENDS:
            start = time.perf_counter()
            solution = solve_lp(lp, backend=backend)
            elapsed = time.perf_counter() - start
            assert solution.is_optimal, f"{backend} failed on {name}"
            row[backend] = {
                "seconds": round(elapsed, 4),
                "objective": solution.objective_value,
                "iterations": solution.iterations,
            }
            objectives[backend] = solution.objective_value
        start = time.perf_counter()
        reference = solve_lp(lp, backend="scipy")
        row["scipy"] = {
            "seconds": round(time.perf_counter() - start, 4),
            "objective": reference.objective_value,
            "iterations": reference.iterations,
        }
        objectives["scipy"] = reference.objective_value
        spread = max(objectives.values()) - min(objectives.values())
        assert spread < 1e-6 * max(1.0, abs(max(objectives.values()))), (
            f"objective mismatch on {name}: {objectives}"
        )
        row["objective_spread"] = spread
        row["speedup_vs_tableau"] = round(
            row["simplex"]["seconds"] / row["revised-simplex-sparse"]["seconds"], 2
        )
        row["speedup_vs_revised_dense"] = round(
            row["revised-simplex-dense"]["seconds"]
            / row["revised-simplex-sparse"]["seconds"],
            2,
        )
        rows.append(row)
        print(
            f"{name:28s} n={lp.num_variables:>6} m={lp.num_constraints:>5} "
            f"tableau={row['simplex']['seconds']:>8.3f}s "
            f"rev-dense={row['revised-simplex-dense']['seconds']:>8.3f}s "
            f"rev-sparse={row['revised-simplex-sparse']['seconds']:>8.3f}s "
            f"({row['speedup_vs_tableau']:.1f}x vs tableau)"
        )

    benchmark_rows = [r for r in rows if r["instance"].startswith("benchmark-lp")]
    largest = max(benchmark_rows, key=lambda r: r["num_variables"])
    report = {
        "seed": seed,
        "quick": quick,
        "instances": rows,
        "largest_benchmark_instance": largest["instance"],
        "largest_speedup_vs_tableau": largest["speedup_vs_tableau"],
        "min_required_speedup": min_speedup,
    }
    assert largest["speedup_vs_tableau"] >= min_speedup, (
        f"sparse revised simplex is only {largest['speedup_vs_tableau']}x faster "
        f"than the dense tableau on {largest['instance']} "
        f"(required: {min_speedup}x)"
    )
    return report


def bench_lp_backends(bench_once):
    """pytest-benchmark entry: quick ladder, same assertions as the script."""
    report = bench_once(run_bench, seed=0, quick=True)
    assert report["largest_speedup_vs_tableau"] >= MIN_SPEEDUP_VS_TABLEAU


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="CI-sized ladder")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=MIN_SPEEDUP_VS_TABLEAU,
        help="hard floor on the largest benchmark LP's sparse-vs-tableau ratio",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "output" / "BENCH_lp.json",
    )
    args = parser.parse_args()
    report = run_bench(seed=args.seed, quick=args.quick, min_speedup=args.min_speedup)
    write_bench_artifact(
        "bench_lp", report, report.pop("instances"), path=args.out
    )
    print(f"[written to {args.out}]")


if __name__ == "__main__":
    main()
