"""Churn engine benchmark: incremental update+repair vs full rebuild+re-solve.

Replays fixed-seed churn traces over a Table-I-shaped instance ladder and
times, per batch, the incremental pipeline (delta-patched
``InstanceIndex`` + carried arrangement + targeted local-search repair)
against the full pipeline (successor rebuild + from-scratch index + re-solve
with the deployed solver).  Results land in
``benchmarks/output/BENCH_churn.json`` so the perf trajectory accumulates
across PRs.

Run as a script (CI does)::

    python benchmarks/bench_churn.py --quick --out benchmarks/output/BENCH_churn.json

or through pytest-benchmark with the rest of the bench suite::

    python -m pytest benchmarks/bench_churn.py

The headline acceptance number is ``speedup`` on the largest instance
(|U| = 4000): incremental update+repair must be at least 5x faster per
batch than rebuilding and re-solving with LP-packing (α = 1, the paper's
algorithm and this repo's deployed solver).  A secondary, ungated row
records the same trace against gg+ls — the cheapest credible re-solve — for
context.  Independent of speed, every batch must satisfy the tentpole
correctness gates: the patched index bit-identical to a from-scratch build,
and the repaired arrangement feasible.

The ``lp_resolve`` row gates the incremental LP layer: patching the
benchmark LP in place and solving the patched program with HiGHS must be
at least 2x faster per batch than rebuilding the LP and re-solving it with
the in-repo revised simplex warm-started from basis labels (the
pre-incremental baseline), with identical optima to 1e-6.  A companion
pure-capacity-shock trace checks that every shock batch is an RHS-only
delta whose patched optimum matches the rebuild.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import numpy as np

from repro.core import GGGreedy, LocalSearch, LPPacking
from repro.datagen import (
    ChurnConfig,
    ChurnTrace,
    SyntheticConfig,
    generate_churn_trace,
    generate_synthetic,
)
from repro.experiments.persistence import write_bench_artifact
from repro.experiments.replay import lp_resolve_comparison, replay_trace
from repro.model.delta import Delta

MIN_SPEEDUP = 5.0
MIN_RETENTION = 0.9
MIN_LP_RESOLVE_SPEEDUP = 2.0


def _trace(num_users: int, num_batches: int, seed: int):
    """A fixed-seed trace churning ~1% of the population per batch."""
    instance = generate_synthetic(
        SyntheticConfig(num_users=num_users), seed=seed
    )
    config = ChurnConfig(
        num_batches=num_batches,
        user_arrival_rate=num_users / 100,
        user_departure_rate=num_users / 100,
        rebid_rate=num_users / 50,
        event_open_rate=2.0,
        event_close_rate=2.0,
        conflict_toggle_rate=2.0,
        burst_every=max(2, num_batches // 2),
    )
    return generate_churn_trace(instance, config, seed=seed + 1)


def _capacity_shock_trace(instance, num_batches: int, seed: int) -> ChurnTrace:
    """Pure capacity-shock batches: every delta is RHS edits only."""
    rng = np.random.default_rng(seed)
    capacities = {e.event_id: int(e.capacity) for e in instance.events}
    event_ids = sorted(capacities)
    deltas = []
    for _ in range(num_batches):
        picks = rng.choice(
            event_ids, size=max(2, len(event_ids) // 10), replace=False
        )
        updates = []
        for event_id in sorted(int(e) for e in picks):
            shift = int(rng.integers(-3, 4))
            capacity = max(1, capacities[event_id] + shift)
            capacities[event_id] = capacity
            updates.append((event_id, capacity))
        deltas.append(Delta(set_event_capacity=tuple(updates)))
    return ChurnTrace(initial=instance, deltas=deltas, seed=seed)


def _lp_resolve_row(num_users: int, num_batches: int, seed: int) -> dict:
    """Delta-patched LP re-solve vs the warm-rebuild baseline, one size."""
    row = lp_resolve_comparison(_trace(num_users, num_batches, seed))
    row["num_users"] = num_users
    row["num_batches"] = num_batches
    print(
        f"|U|={num_users:>5} lp_resolve   "
        f"patch={row['mean_patch_seconds'] * 1e3:>7.1f}ms/batch "
        f"warm={row['mean_warm_seconds'] * 1e3:>8.1f}ms/batch "
        f"speedup={row['speedup']:>6.1f}x "
        f"iterations={row['iterations']}"
    )

    # Pure capacity shocks: every batch is an RHS-only delta, and
    # lp_resolve_comparison asserts each patched optimum against the
    # rebuild (1e-6).
    instance = generate_synthetic(
        SyntheticConfig(num_users=min(num_users, 1000)), seed=seed
    )
    shock = lp_resolve_comparison(
        _capacity_shock_trace(instance, num_batches, seed + 2)
    )
    for batch in shock["batches"]:
        assert batch["rhs_only"], "capacity-shock trace emitted a mixed delta"
    row["capacity_shock"] = shock
    return row


def _run_one(num_users: int, num_batches: int, seed: int, algorithm) -> dict:
    trace = _trace(num_users, num_batches, seed)
    report = replay_trace(trace, algorithm=algorithm, seed=seed, check_parity=True)
    assert report.all_parity, (
        f"|U|={num_users} {algorithm.name}: patched index differs from a "
        "from-scratch build"
    )
    assert report.all_feasible, (
        f"|U|={num_users} {algorithm.name}: a repaired arrangement is infeasible"
    )
    row = report.to_dict()
    row["num_users"] = num_users
    row["num_batches"] = num_batches
    retention = report.utility_retention
    print(
        f"|U|={num_users:>5} vs {algorithm.name:<12} "
        f"incr={report.mean_incremental_seconds * 1e3:>7.1f}ms/batch "
        f"full={report.mean_full_seconds * 1e3:>8.1f}ms/batch "
        f"speedup={report.speedup:>6.1f}x "
        f"retention={'n/a' if retention is None else format(retention, '.1%')}"
    )
    return row


def run_bench(
    seed: int = 0, quick: bool = False, min_speedup: float = MIN_SPEEDUP
) -> dict:
    """Run the churn ladder; returns the JSON-ready report.

    ``min_speedup`` gates the largest instance's incremental-vs-LP-packing
    ratio (default 5x, the acceptance criterion); CI passes a looser floor
    because shared runners add wall-clock noise — the measured ratio is
    always recorded in the JSON artifact either way.
    """
    sizes = [(1000, 4)] if quick else [(1000, 4), (4000, 8)]
    rows = []
    for num_users, num_batches in sizes:
        row = _run_one(num_users, num_batches, seed, LPPacking(alpha=1.0))
        # Context row: the cheapest credible re-solve; not gated.
        row["gg_ls_reference"] = _run_one(
            num_users, num_batches, seed, LocalSearch(GGGreedy())
        )
        # Gated row: the delta-patched incremental LP re-solve must beat
        # the warm-rebuild baseline (optima asserted equal to 1e-6 inside
        # the comparison).
        row["lp_resolve"] = _lp_resolve_row(num_users, num_batches, seed)
        rows.append(row)

    largest = max(rows, key=lambda r: r["num_users"])
    report = {
        "seed": seed,
        "quick": quick,
        "instances": rows,
        "largest_num_users": largest["num_users"],
        "largest_speedup": largest["speedup"],
        "largest_utility_retention": largest["utility_retention"],
        "largest_lp_resolve_speedup": largest["lp_resolve"]["speedup"],
        "min_required_speedup": min_speedup,
        "min_required_lp_resolve_speedup": MIN_LP_RESOLVE_SPEEDUP,
    }
    assert largest["lp_resolve"]["speedup"] >= MIN_LP_RESOLVE_SPEEDUP, (
        f"delta-patched LP re-solve is only "
        f"{largest['lp_resolve']['speedup']:.1f}x faster than the warm "
        f"rebuild at |U|={largest['num_users']} "
        f"(required: {MIN_LP_RESOLVE_SPEEDUP}x)"
    )
    assert largest["utility_retention"] >= MIN_RETENTION, (
        f"repair retains only {largest['utility_retention']:.1%} of the "
        f"re-solved utility at |U|={largest['num_users']} "
        f"(required: {MIN_RETENTION:.0%})"
    )
    assert largest["speedup"] >= min_speedup, (
        f"incremental update+repair is only {largest['speedup']:.1f}x faster "
        f"than full rebuild+re-solve at |U|={largest['num_users']} "
        f"(required: {min_speedup}x)"
    )
    return report


def bench_churn_engine(bench_once):
    """pytest-benchmark entry: quick ladder, same assertions as the script."""
    report = bench_once(run_bench, seed=0, quick=True)
    assert report["largest_speedup"] >= MIN_SPEEDUP


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="CI-sized ladder")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=MIN_SPEEDUP,
        help="hard floor on the largest instance's incremental-vs-full ratio",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "output" / "BENCH_churn.json",
    )
    args = parser.parse_args()
    report = run_bench(seed=args.seed, quick=args.quick, min_speedup=args.min_speedup)
    write_bench_artifact(
        "bench_churn", report, report.pop("instances"), path=args.out
    )
    print(f"[written to {args.out}]")


if __name__ == "__main__":
    main()
