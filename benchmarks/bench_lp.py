"""LP backend benchmark: revised simplex (dense and sparse) vs HiGHS.

Times the in-repo revised simplex in both constraint representations on a
fixed-seed ladder of benchmark LPs (1)-(4) plus a wide random packing LP,
cross-checks every optimal objective against HiGHS (``solve_lp``'s default
backend) to 1e-6, and records the results as
``benchmarks/output/BENCH_lp.json`` so the perf trajectory accumulates
across PRs.

Run as a script (CI does)::

    python benchmarks/bench_lp.py --quick --out benchmarks/output/BENCH_lp.json

or through pytest-benchmark with the rest of the bench suite::

    python -m pytest benchmarks/bench_lp.py

The gate is the objective agreement; the timings (and the sparse
representation's speedup over the dense one) are recorded, not gated.
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
from repro.solver import (
    LinearProgram,
    RevisedSimplexOptions,
    Sense,
    solve_lp,
    solve_lp_revised_simplex,
)

#: Revised-simplex representations timed on every instance, by row key.
TIMED = {"revised-dense": False, "revised-sparse": True}


def _wide_random_lp(seed: int, n: int = 2000, m: int = 60) -> LinearProgram:
    """A wide random packing LP shaped like the benchmark LP.

    Variables carry no explicit upper bound (a global budget row keeps the
    LP bounded instead): explicit bounds that no row implies would each cost
    a standard-form row, turning the wide LP tall — exactly what the
    benchmark LP avoids when built with ``implied_upper=True``, which leaves
    its ``x <= 1`` bounds to the per-user rows.
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
        bench = build_benchmark_lp(instance, implied_upper=True)
        yield f"benchmark-lp[|U|={num_users}]", bench.lp
    yield "wide-random[2000x60]", _wide_random_lp(seed)


def run_bench(seed: int = 0, quick: bool = False) -> dict:
    """Time both representations on the ladder; returns the JSON-ready
    report.  Every objective must match HiGHS's to 1e-6."""
    rows = []
    for name, lp in _instances(seed, quick):
        row: dict = {
            "instance": name,
            "num_variables": lp.num_variables,
            "num_constraints": lp.num_constraints,
        }
        objectives = {}
        for key, sparse in TIMED.items():
            start = time.perf_counter()
            solution = solve_lp_revised_simplex(lp, RevisedSimplexOptions(sparse=sparse))
            elapsed = time.perf_counter() - start
            assert solution.is_optimal, f"{key} failed on {name}"
            row[key] = {
                "seconds": round(elapsed, 4),
                "objective": solution.objective_value,
                "iterations": solution.iterations,
            }
            objectives[key] = solution.objective_value
        start = time.perf_counter()
        reference = solve_lp(lp)
        row["highs"] = {
            "seconds": round(time.perf_counter() - start, 4),
            "objective": reference.objective_value,
            "iterations": reference.iterations,
        }
        objectives["highs"] = reference.objective_value
        spread = max(objectives.values()) - min(objectives.values())
        assert spread < 1e-6 * max(1.0, abs(max(objectives.values()))), (
            f"objective mismatch on {name}: {objectives}"
        )
        row["objective_spread"] = spread
        row["speedup_vs_revised_dense"] = round(
            row["revised-dense"]["seconds"] / row["revised-sparse"]["seconds"], 2
        )
        rows.append(row)
        print(
            f"{name:28s} n={lp.num_variables:>6} m={lp.num_constraints:>5} "
            f"rev-dense={row['revised-dense']['seconds']:>8.3f}s "
            f"rev-sparse={row['revised-sparse']['seconds']:>8.3f}s "
            f"highs={row['highs']['seconds']:>8.3f}s"
        )

    benchmark_rows = [r for r in rows if r["instance"].startswith("benchmark-lp")]
    largest = max(benchmark_rows, key=lambda r: r["num_variables"])
    return {
        "seed": seed,
        "quick": quick,
        "instances": rows,
        "largest_benchmark_instance": largest["instance"],
    }


def bench_lp_backends(bench_once):
    """pytest-benchmark entry: quick ladder, same assertions as the script."""
    report = bench_once(run_bench, seed=0, quick=True)
    assert all(row["objective_spread"] < 1e-6 for row in report["instances"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="CI-sized ladder")
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "output" / "BENCH_lp.json",
    )
    args = parser.parse_args()
    report = run_bench(seed=args.seed, quick=args.quick)
    write_bench_artifact(
        "bench_lp", report, report.pop("instances"), path=args.out
    )
    print(f"[written to {args.out}]")


if __name__ == "__main__":
    main()
