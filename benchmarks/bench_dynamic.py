"""Dynamic-platform benchmark: online arrivals + churn + defragmentation.

Runs the :func:`repro.experiments.simulate.simulate` loop twice over one
fixed-seed churn trace — capacity shocks, interest drift and adversarial
shrink bursts included — once with the defragmentation schedule off and
once with a periodic schedule on.  Results land in
``benchmarks/output/BENCH_dynamic.json`` so the trajectory accumulates
across PRs.

Run as a script (CI does, with ``--quick``)::

    python benchmarks/bench_dynamic.py --quick --seed 0 \
        --out benchmarks/output/BENCH_dynamic.json

or through pytest-benchmark with the rest of the bench suite::

    python -m pytest benchmarks/bench_dynamic.py

Hard gates, independent of machine speed:

* **per-tick feasibility** — every tick of both runs passes the full
  Definition 4 audit;
* **index parity** — the delta-patched index is bit-identical to a
  from-scratch rebuild on every tick of both runs (the check adds the same
  rebuild cost to each side, so the recorded tick timings stay
  comparable);
* **defrag pays** — long-horizon utility retention with the schedule on is
  at least the retention with it off;
* an ungated context row repeats the defrag-on run with the resolver's
  benchmark LP maintained incrementally (``defrag_lp_incremental=True``:
  churn deltas patch the program in place and each defrag solves the
  patched program) — feasibility and parity are still asserted;
* **long-horizon retention** (full mode only, |U| = 4000 over ≥ 50
  batches) — the defrag-on platform retains ≥ 95% of the periodic full
  re-solve oracle.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core.online import OnlineGreedy
from repro.datagen import (
    ChurnConfig,
    SyntheticConfig,
    generate_churn_trace,
    generate_synthetic,
)
from repro.experiments.persistence import write_bench_artifact
from repro.experiments.simulate import PeriodicDefrag, simulate

MIN_RETENTION = 0.95


def _trace(num_users: int, num_batches: int, seed: int):
    """A fixed-seed dynamic trace: ~1% churn/tick + drift + capacity shocks."""
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
        drift_rate=num_users / 100,
        capacity_shock_rate=2.0,
        burst_every=max(4, num_batches // 5),
        burst_capacity_shrink_fraction=0.2,
    )
    return generate_churn_trace(instance, config, seed=seed + 1)


def run_bench(
    seed: int = 0, quick: bool = False, min_retention: float = MIN_RETENTION
) -> dict:
    """Run the defrag-off/defrag-on pair; returns the JSON-ready report."""
    num_users = 1000 if quick else 4000
    num_batches = 12 if quick else 50
    oracle_every = 4 if quick else 10
    defrag_period = 4 if quick else 10
    trace = _trace(num_users, num_batches, seed)

    off = simulate(
        trace,
        OnlineGreedy(),
        seed=seed,
        oracle_every=oracle_every,
        check_parity=True,
    )
    on = simulate(
        trace,
        OnlineGreedy(),
        seed=seed,
        oracle_every=oracle_every,
        defrag=PeriodicDefrag(defrag_period),
        check_parity=True,
    )
    # Context row (ungated): the same defrag-on run with the resolver's LP
    # maintained incrementally — every churn batch delta-patches the
    # program and each defrag solves the patched program.
    on_incremental = simulate(
        trace,
        OnlineGreedy(),
        seed=seed,
        oracle_every=oracle_every,
        defrag=PeriodicDefrag(defrag_period),
        defrag_lp_incremental=True,
        check_parity=True,
    )
    runs = (
        ("defrag-off", off),
        ("defrag-on", on),
        ("defrag-on-ilp", on_incremental),
    )
    for label, run in runs:
        assert run.all_feasible, f"{label}: a tick's arrangement is infeasible"
        retention = run.long_horizon_retention
        print(
            f"|U|={num_users:>5} x{num_batches} ticks {label:<13} "
            f"retention={'n/a' if retention is None else format(retention, '.1%')} "
            f"acceptance={run.arrival_acceptance_rate:.1%} "
            f"defrags={run.defrag_count} "
            f"tick={run.mean_tick_seconds * 1e3:.1f}ms"
        )
    for label, run in runs:
        assert run.all_parity, (
            f"{label}: patched index differs from a from-scratch build "
            "along the trace"
        )
    assert on.long_horizon_retention >= off.long_horizon_retention, (
        f"defragmentation lost utility: on={on.long_horizon_retention:.3f} "
        f"< off={off.long_horizon_retention:.3f}"
    )
    if not quick:
        assert on.long_horizon_retention >= min_retention, (
            f"defrag-on platform retains only {on.long_horizon_retention:.1%} "
            f"of the full re-solve oracle (required: {min_retention:.0%})"
        )
    return {
        "seed": seed,
        "quick": quick,
        "num_users": num_users,
        "num_batches": num_batches,
        "oracle_every": oracle_every,
        "defrag_period": defrag_period,
        "min_required_retention": None if quick else min_retention,
        "retention_defrag_off": off.long_horizon_retention,
        "retention_defrag_on": on.long_horizon_retention,
        "retention_defrag_on_incremental": on_incremental.long_horizon_retention,
        "acceptance_defrag_off": off.arrival_acceptance_rate,
        "acceptance_defrag_on": on.arrival_acceptance_rate,
        "defrag_off": off.to_dict(),
        "defrag_on": on.to_dict(),
        "defrag_on_incremental": on_incremental.to_dict(),
    }


def bench_dynamic_platform(bench_once):
    """pytest-benchmark entry: quick pair, same assertions as the script."""
    report = bench_once(run_bench, seed=0, quick=True)
    assert report["retention_defrag_on"] >= report["retention_defrag_off"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--min-retention",
        type=float,
        default=MIN_RETENTION,
        help="hard floor on defrag-on long-horizon retention (full mode)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "output" / "BENCH_dynamic.json",
    )
    args = parser.parse_args()
    report = run_bench(
        seed=args.seed, quick=args.quick, min_retention=args.min_retention
    )
    write_bench_artifact("bench_dynamic", report, path=args.out)
    print(f"[written to {args.out}]")


if __name__ == "__main__":
    main()
