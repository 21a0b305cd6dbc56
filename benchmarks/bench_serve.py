"""Arrangement-as-a-service benchmark: the asyncio serving loop under load.

Replays a fixed-seed timestamped request trace — bursty arrivals plus
churn — through :func:`repro.service.serve_requests` on a virtual clock
and gates on the serving-loop contract rather than utility alone.
Results land in ``benchmarks/output/BENCH_serve.json`` so the latency
trajectory accumulates across PRs.

Run as a script (CI does, with ``--quick``)::

    python benchmarks/bench_serve.py --quick --seed 0 \
        --out benchmarks/output/BENCH_serve.json

or through pytest-benchmark with the rest of the bench suite::

    python -m pytest benchmarks/bench_serve.py

Hard gates, independent of machine speed:

* **every arrival answered** — one terminal response per arrival, under
  admit-all *and* under a deadline queue with bursts (requeues and
  expiries allowed; drops never);
* **per-tick audits under concurrent repair** — every tick of every run
  passes the full Definition 4 feasibility audit, and the delta-patched
  index matches a from-scratch rebuild bit for bit;
* **fixed-seed bit-reproducibility** — two runs over the same trace agree
  on the decision-derived report projection
  (:meth:`~repro.service.report.ServeReport.determinism_fingerprint`).

Machine-speed floors (full mode, |U| = 20000 with burst clumps):

* **p99 serve latency** under admit-all at most ``--max-p99`` seconds
  (default 2.0) — pure serve time, nothing queues;
* **p99 answer latency** under the deadline queue at most
  ``--max-queued-p99`` seconds (default 12.0) — burst overflow requeues
  by design, so queue wait (ticks waited x tick wall time) counts
  against this much looser ceiling;
* **throughput** of at least ``--min-throughput`` answered arrivals per
  second of monotonic wall time (default 100), both admission modes.
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
from repro.datagen.churn import generate_request_trace
from repro.experiments.persistence import write_bench_artifact
from repro.service import (
    AdmitAll,
    DeadlineQueue,
    PeriodicDefrag,
    ServiceConfig,
    TickEngine,
    VirtualClock,
    serve_requests,
)
from repro.service.requests import ArrivalRequest

MAX_P99_SECONDS = 2.0
MAX_QUEUED_P99_SECONDS = 12.0
MIN_ARRIVALS_PER_SECOND = 100.0


def _request_trace(num_users: int, num_batches: int, seed: int):
    """Bursty fixed-seed serving workload: ~1% churn/tick, clumped arrivals."""
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
        burst_user_multiplier=8.0,
    )
    churn = generate_churn_trace(instance, config, seed=seed + 1)
    return generate_request_trace(churn, batch_seconds=1.0, seed=seed + 2)


def _serve(trace, seed: int, *, admission=None, quick: bool = True):
    # Full mode follows the nightly-soak regime: defrag without the LP
    # re-solve and a sparse oracle cadence (each oracle tick then solves the
    # benchmark LP for LP*) — at |U|=20k both would dominate wall-clock and
    # the gates here are about the serving loop, not the LP.
    engine = TickEngine(
        trace.initial,
        OnlineGreedy(),
        seed=seed,
        defrag=PeriodicDefrag(4),
        oracle_every=4 if quick else 10,
        defrag_lp=quick,
        check_parity=True,
        clock=VirtualClock(),
    )
    config = ServiceConfig(
        max_batch=64,
        max_wait=0.5,
        admission=admission if admission is not None else DeadlineQueue(48, deadline=2.0),
    )
    return serve_requests(engine, trace.requests, config=config)


def _audit(label: str, trace, report, responses) -> None:
    arrivals = sum(1 for r in trace.requests if isinstance(r, ArrivalRequest))
    assert len(responses) == arrivals, (
        f"{label}: {arrivals - len(responses)} of {arrivals} arrivals were "
        "never answered"
    )
    assert len({r.user_id for r in responses}) == arrivals, (
        f"{label}: some arrival was answered more than once"
    )
    assert report.all_answered, f"{label}: a non-terminal outcome leaked"
    assert report.all_feasible, f"{label}: a tick's arrangement is infeasible"
    assert report.all_parity, (
        f"{label}: patched index differs from a from-scratch build"
    )


def run_bench(
    seed: int = 0,
    quick: bool = False,
    max_p99: float = MAX_P99_SECONDS,
    max_queued_p99: float = MAX_QUEUED_P99_SECONDS,
    min_throughput: float = MIN_ARRIVALS_PER_SECOND,
) -> dict:
    """Run the serve gates; returns the JSON-ready report."""
    num_users = 2000 if quick else 20000
    num_batches = 10 if quick else 30

    # Gate 1: fixed-seed bit-reproducibility (always at the small size —
    # the projection compares every decision-derived field).
    fingerprints = []
    for _ in range(2):
        trace = _request_trace(2000, 10, seed)
        report, responses = _serve(trace, seed)
        _audit("determinism", trace, report, responses)
        fingerprints.append(report.determinism_fingerprint())
    assert fingerprints[0] == fingerprints[1], (
        "fixed-seed serve runs diverged on decision-derived state"
    )

    # Gate 2: the load run — deadline-queue admission over bursts.
    trace = _request_trace(num_users, num_batches, seed)
    queued_report, responses = _serve(trace, seed, quick=quick)
    _audit("deadline-queue", trace, queued_report, responses)

    # Gate 3: admit-all over the same trace (no admission control to hide
    # behind — every arrival is served in full).
    admit_report, responses = _serve(
        trace, seed, admission=AdmitAll(), quick=quick
    )
    _audit("admit-all", trace, admit_report, responses)

    for label, report in (
        ("deadline-queue", queued_report),
        ("admit-all", admit_report),
    ):
        print(
            f"|U|={num_users:>6} x{num_batches} batches {label:<14} "
            f"ticks={len(report.records)} "
            f"p50={report.p50_latency * 1e3:.2f}ms "
            f"p99={report.p99_latency * 1e3:.2f}ms "
            f"throughput={report.arrivals_per_second:.0f}/s "
            f"requeues={report.total_requeues} "
            f"superseded={report.superseded_defrags}/{report.defrag_count}"
        )

    # Machine-speed floors gate the big run only: quick mode is for
    # correctness on loaded CI workers.  Admit-all measures pure serve
    # latency; the deadline queue deliberately requeues burst overflow,
    # so queue wait counts against a looser ceiling there.
    if not quick:
        for label, report, ceiling in (
            ("deadline-queue", queued_report, max_queued_p99),
            ("admit-all", admit_report, max_p99),
        ):
            assert report.p99_latency <= ceiling, (
                f"{label}: p99 answer latency {report.p99_latency:.3f}s "
                f"exceeds the {ceiling:.1f}s SLO"
            )
            assert report.arrivals_per_second >= min_throughput, (
                f"{label}: {report.arrivals_per_second:.0f} arrivals/s "
                f"below the {min_throughput:.0f}/s floor"
            )

    return {
        "seed": seed,
        "quick": quick,
        "num_users": num_users,
        "num_batches": num_batches,
        "max_p99_seconds": None if quick else max_p99,
        "max_queued_p99_seconds": None if quick else max_queued_p99,
        "min_arrivals_per_second": None if quick else min_throughput,
        "deadline_queue": queued_report.to_dict(),
        "admit_all": admit_report.to_dict(),
    }


def bench_serve(bench_once):
    """pytest-benchmark entry: quick gates, same assertions as the script."""
    report = bench_once(run_bench, seed=0, quick=True)
    assert report["deadline_queue"]["all_feasible"]
    assert report["admit_all"]["all_feasible"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--max-p99",
        type=float,
        default=MAX_P99_SECONDS,
        help="p99 serve-latency ceiling under admit-all, seconds (full mode)",
    )
    parser.add_argument(
        "--max-queued-p99",
        type=float,
        default=MAX_QUEUED_P99_SECONDS,
        help=(
            "p99 answer-latency ceiling under the deadline queue, seconds "
            "(full mode; queue wait included)"
        ),
    )
    parser.add_argument(
        "--min-throughput",
        type=float,
        default=MIN_ARRIVALS_PER_SECOND,
        help="hard floor on answered arrivals per second (full mode)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "output" / "BENCH_serve.json",
    )
    args = parser.parse_args()
    report = run_bench(
        seed=args.seed,
        quick=args.quick,
        max_p99=args.max_p99,
        max_queued_p99=args.max_queued_p99,
        min_throughput=args.min_throughput,
    )
    write_bench_artifact("bench_serve", report, path=args.out)
    print(f"[written to {args.out}]")


if __name__ == "__main__":
    main()
