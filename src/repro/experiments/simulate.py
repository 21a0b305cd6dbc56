"""Dynamic-platform simulator: online arrivals under event churn.

The paper solves a one-shot arrangement; PR 3's churn engine repairs a
fixed-population arrangement under deltas; the online extension serves
arrivals against a *frozen* platform.  Real EBSN platforms do all of it at
once — Bikakis et al.'s dynamic event-scheduling line has organizers
continuously (re)scheduling events while users keep registering — and this
module closes that gap with a clocked loop over a churn trace:

1. **churn** — the tick's :class:`~repro.model.delta.Delta` is applied
   through :func:`~repro.model.delta.apply_delta`: the index is patched at
   the CSR-entry level (capacity changes and interest drift included) and
   the arrangement is carried over with every invalidated pair shed;
2. **arrivals** — the delta's new users are served *online* in arrival
   order through :meth:`repro.core.online._OnlineAlgorithm.serve` against
   the capacities remaining right now, and the tick records its arrival
   acceptance rate (measured at arrival time);
3. **repair** — the targeted repair (:func:`repro.core.repair.repair`, or
   the shard-parallel :func:`repro.core.parallel.parallel_repair` when
   workers are configured) re-optimizes the churned scope.  Arrivals are
   excluded from the user-side scan, so the online policy's choice is
   never *improved upon* on their behalf; the event-side refill/evict
   moves still treat them like any other bidder, so the platform may later
   re-seat (or displace) an arrival the way a real venue reshuffle would;
4. **defragmentation** — a pluggable :class:`DefragSchedule` decides when
   the platform pays for a full-scope pass: ``parallel_repair(...,
   full_scope=True)`` (or a full local-search sweep when serial) plus an
   LP-packing re-solve whose arrangement is adopted when it beats the
   repaired one.  :class:`PeriodicDefrag` runs every k-th tick;
   :class:`RetentionDefrag` triggers when utility falls below a fraction of
   the last oracle re-solve;
5. **oracle** — every ``oracle_every``-th tick a full re-solve of the
   current instance measures what a from-scratch optimizer would achieve;
   the quotient is the **retention curve**, and its running reference turns
   the per-tick utility gap into **repair debt** (the utility a
   defragmentation pass could reclaim).

The five stages themselves now live in
:class:`repro.service.engine.TickEngine`; this module is the *synchronous
driver* over that engine, preserving PR 5's report shapes, seed threading
and audits bit-for-bit.  The asyncio serving loop
(:class:`repro.service.loop.ArrangementService`) drives the same engine
request-by-request; ``igepa serve`` is its front end.

Every tick is audited: the repaired arrangement must pass the full
Definition 4 feasibility check, and (``check_parity``) the patched index
must be bit-identical to a from-scratch build.
:mod:`benchmarks.bench_dynamic` gates on both plus long-horizon retention.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.core.online import _OnlineAlgorithm
from repro.datagen.churn import ChurnTrace
from repro.experiments.persistence import report_to_dict
from repro.service.defrag import DefragSchedule, PeriodicDefrag, RetentionDefrag
from repro.service.engine import TickEngine

__all__ = [
    "DefragSchedule",
    "PeriodicDefrag",
    "RetentionDefrag",
    "SimulationInfeasibleError",
    "SimulationReport",
    "TickRecord",
    "format_simulation_table",
    "simulate",
]


class SimulationInfeasibleError(RuntimeError):
    """A tick's arrangement failed its feasibility audit.

    Carries the partial :class:`SimulationReport` (including the failing
    tick's record) as ``report`` for inspection.
    """

    def __init__(self, message: str, report: "SimulationReport"):
        super().__init__(message)
        self.report = report


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
@dataclass
class TickRecord:
    """Measurements of one simulated tick.

    Attributes:
        tick: tick number (0-based).
        operations: the delta's operation counts.
        num_users / num_events / num_pairs: platform sizes after the tick.
        arrivals: users arriving this tick.
        accepted: arrivals assigned at least one event by the online policy
            *at arrival time* — the platform's admission answer.  Later
            repair/defrag moves may re-arrange them like any other user.
        dropped_pairs: pairs the delta invalidated (incl. capacity sheds).
        repair_moves: targeted-repair move counts.
        defrag: whether the defragmentation pass ran this tick.
        defrag_moves: its move counts (plus ``lp_utility``/``lp_adopted``
            when the LP re-solve ran); None when it did not run.
        utility: arrangement utility at the end of the tick.
        oracle_utility: full re-solve utility (None on non-oracle ticks).
        repair_debt: most recent oracle utility minus ``utility``, floored
            at 0 (None before the first oracle measurement) — the utility a
            full defragmentation could reclaim.
        seconds: wall-clock of churn + arrivals + repair + defrag (the
            oracle re-solve is measurement apparatus and excluded).
        feasible: full Definition 4 audit of the end-of-tick arrangement.
        parity_mismatches: index arrays differing from a fresh build (None
            when the parity check is off; empty list = bit-identical).
    """

    tick: int
    operations: dict
    num_users: int
    num_events: int
    num_pairs: int
    arrivals: int
    accepted: int
    dropped_pairs: int
    repair_moves: dict
    defrag: bool
    defrag_moves: dict | None
    utility: float
    oracle_utility: float | None
    repair_debt: float | None
    seconds: float
    feasible: bool
    parity_mismatches: list[str] | None

    @property
    def acceptance_rate(self) -> float | None:
        """Accepted fraction of this tick's arrivals (None: no arrivals)."""
        if not self.arrivals:
            return None
        return self.accepted / self.arrivals

    @property
    def retention(self) -> float | None:
        """Utility over the oracle re-solve (None on non-oracle ticks)."""
        if self.oracle_utility is None or self.oracle_utility <= 0.0:
            return None
        return self.utility / self.oracle_utility


@dataclass
class SimulationReport:
    """All tick records of one simulated trace plus aggregate views."""

    #: :class:`~repro.experiments.persistence.ReportEnvelope` discriminator.
    envelope_kind: ClassVar[str] = "simulation"

    online_algorithm: str
    oracle_algorithm: str
    defrag_schedule: str
    initial_utility: float
    initial_seconds: float
    records: list[TickRecord] = field(default_factory=list)

    @property
    def arrival_acceptance_rate(self) -> float | None:
        """Accepted fraction of all arrivals across the horizon."""
        arrivals = sum(r.arrivals for r in self.records)
        if not arrivals:
            return None
        return sum(r.accepted for r in self.records) / arrivals

    @property
    def retention_curve(self) -> list[tuple[int, float]]:
        """(tick, utility / oracle utility) at every oracle tick."""
        return [
            (r.tick, r.retention) for r in self.records if r.retention is not None
        ]

    @property
    def long_horizon_retention(self) -> float | None:
        """Mean retention across oracle ticks (None: no oracle ran)."""
        curve = [value for _tick, value in self.retention_curve]
        return float(np.mean(curve)) if curve else None

    @property
    def final_retention(self) -> float | None:
        """Retention at the last oracle tick (None: no oracle ran)."""
        curve = self.retention_curve
        return curve[-1][1] if curve else None

    @property
    def max_repair_debt(self) -> float | None:
        debts = [r.repair_debt for r in self.records if r.repair_debt is not None]
        return max(debts) if debts else None

    @property
    def defrag_count(self) -> int:
        return sum(1 for r in self.records if r.defrag)

    @property
    def mean_tick_seconds(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.seconds for r in self.records]))

    @property
    def all_feasible(self) -> bool:
        return all(r.feasible for r in self.records)

    @property
    def all_parity(self) -> bool:
        """True when every checked tick had a bit-identical patched index."""
        return all(
            not r.parity_mismatches
            for r in self.records
            if r.parity_mismatches is not None
        )

    def to_dict(self) -> dict:
        """JSON-ready snapshot (the dynamic bench / soak artifact).

        Shares the :func:`repro.experiments.persistence.report_to_dict`
        envelope with :class:`~repro.experiments.replay.ReplayReport`.
        """
        summary = {
            "online_algorithm": self.online_algorithm,
            "oracle_algorithm": self.oracle_algorithm,
            "defrag_schedule": self.defrag_schedule,
            "initial_utility": self.initial_utility,
            "initial_seconds": self.initial_seconds,
            "arrival_acceptance_rate": self.arrival_acceptance_rate,
            "long_horizon_retention": self.long_horizon_retention,
            "final_retention": self.final_retention,
            "retention_curve": [list(point) for point in self.retention_curve],
            "max_repair_debt": self.max_repair_debt,
            "defrag_count": self.defrag_count,
            "mean_tick_seconds": self.mean_tick_seconds,
            "all_feasible": self.all_feasible,
            "all_parity": self.all_parity,
        }
        records = [
            {
                "tick": r.tick,
                "operations": r.operations,
                "num_users": r.num_users,
                "num_events": r.num_events,
                "num_pairs": r.num_pairs,
                "arrivals": r.arrivals,
                "accepted": r.accepted,
                "acceptance_rate": r.acceptance_rate,
                "dropped_pairs": r.dropped_pairs,
                "repair_moves": r.repair_moves,
                "defrag": r.defrag,
                "defrag_moves": r.defrag_moves,
                "utility": r.utility,
                "oracle_utility": r.oracle_utility,
                "retention": r.retention,
                "repair_debt": r.repair_debt,
                "seconds": r.seconds,
                "feasible": r.feasible,
                "parity_mismatches": r.parity_mismatches,
            }
            for r in self.records
        ]
        return report_to_dict("simulation", summary, records, records_key="ticks")


def format_simulation_table(report: SimulationReport) -> str:
    """Fixed-width per-tick table for the CLI."""
    lines = [
        f"simulate: {report.online_algorithm} arrivals, "
        f"defrag {report.defrag_schedule}, oracle {report.oracle_algorithm}, "
        f"initial utility {report.initial_utility:.2f} "
        f"({report.initial_seconds * 1e3:.0f} ms)",
        f"{'tick':>5} {'|U|':>6} {'|V|':>5} {'arriv':>5} {'acc':>5} "
        f"{'dropped':>7} {'defrag':>6} {'utility':>9} {'oracle':>9} "
        f"{'retain':>7} {'debt':>8} {'ms':>8}",
    ]
    for r in report.records:
        acc = "-" if r.acceptance_rate is None else f"{r.acceptance_rate:5.0%}"
        oracle = "-" if r.oracle_utility is None else f"{r.oracle_utility:9.2f}"
        retain = "-" if r.retention is None else f"{r.retention:7.1%}"
        debt = "-" if r.repair_debt is None else f"{r.repair_debt:8.2f}"
        lines.append(
            f"{r.tick:>5} {r.num_users:>6} {r.num_events:>5} "
            f"{r.arrivals:>5} {acc:>5} {r.dropped_pairs:>7} "
            f"{'yes' if r.defrag else '-':>6} {r.utility:9.2f} "
            f"{oracle:>9} {retain:>7} {debt:>8} {r.seconds * 1e3:8.1f}"
        )
    summary = [f"mean tick: {report.mean_tick_seconds * 1e3:.1f} ms"]
    if report.arrival_acceptance_rate is not None:
        summary.append(f"acceptance: {report.arrival_acceptance_rate:.1%}")
    if report.long_horizon_retention is not None:
        summary.append(f"retention: {report.long_horizon_retention:.1%}")
    summary.append(f"defrags: {report.defrag_count}")
    summary.append(f"feasible: {report.all_feasible}")
    lines.append(", ".join(summary))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The simulation loop: a synchronous driver over TickEngine
# ----------------------------------------------------------------------
def simulate(
    trace: ChurnTrace,
    online: _OnlineAlgorithm | None = None,
    *,
    workers: int | None = None,
    **engine_options,
) -> SimulationReport:
    """Run the dynamic-platform loop over a churn trace.

    Args:
        trace: the initial instance and delta batches; each delta's
            ``add_users`` are this tick's online arrivals.
        online: the arrival-serving policy; it also produces the initial
            arrangement (the pre-trace population arrived online too).
        workers: shard-parallel repair across this many worker processes
            (None/0: serial).
        **engine_options: the remaining
            :class:`~repro.service.engine.TickEngine` options (``seed``,
            ``defrag``, ``oracle``, ``oracle_every``, ``defrag_lp``, ...),
            with its defaults.  The oracle also runs on the final tick;
            with ``oracle_every=0`` retention and debt fields stay None.

    Returns:
        A :class:`SimulationReport` with per-tick records.

    Raises:
        SimulationInfeasibleError: when a tick's arrangement fails the full
            feasibility audit (never expected; a delta/repair invariant
            would be broken).  The partial report rides on the exception.
    """
    executor = None
    if workers:
        from concurrent.futures import ProcessPoolExecutor

        executor = ProcessPoolExecutor(max_workers=workers)
    try:
        engine = TickEngine(
            trace.initial, online, executor=executor, **engine_options
        )
        return _simulate(trace, engine)
    finally:
        if executor is not None:
            executor.shutdown()


def _simulate(trace: ChurnTrace, engine: TickEngine) -> SimulationReport:
    initial_utility, initial_seconds = engine.bootstrap()
    report = SimulationReport(
        online_algorithm=engine.online.name,
        oracle_algorithm=engine.oracle.name,
        defrag_schedule=engine.defrag.name,
        initial_utility=initial_utility,
        initial_seconds=initial_seconds,
    )
    last_tick = len(trace.deltas) - 1
    for tick, delta in enumerate(trace.deltas):
        tick_started = time.perf_counter()
        result = engine.apply_churn(delta)
        accepted = engine.serve_arrivals(result, delta)
        repair_moves = engine.repair(result)

        utility = engine.utility()
        defragged = engine.should_defrag(tick, utility)
        defrag_moves = None
        if defragged:
            defrag_moves, utility = engine.defragment(result, tick)
        seconds = time.perf_counter() - tick_started

        tick_oracle: float | None = None
        if engine.should_run_oracle(tick, last_tick):
            tick_oracle = engine.oracle_solve(tick)
        repair_debt = engine.repair_debt(utility)

        feasible, parity = engine.audit(result)
        report.records.append(
            TickRecord(
                tick=tick,
                operations=delta.summary(),
                num_users=result.instance.num_users,
                num_events=result.instance.num_events,
                num_pairs=len(engine.arrangement),
                arrivals=len(delta.add_users),
                accepted=accepted,
                dropped_pairs=len(result.dropped_pairs),
                repair_moves=repair_moves,
                defrag=defragged,
                defrag_moves=defrag_moves,
                utility=utility,
                oracle_utility=tick_oracle,
                repair_debt=repair_debt,
                seconds=seconds,
                feasible=feasible,
                parity_mismatches=parity,
            )
        )
        if not feasible:
            # Recorded first, and the partial report rides on the error,
            # so the failing tick stays inspectable.
            raise SimulationInfeasibleError(
                f"tick {tick}: arrangement is infeasible: "
                f"{engine.arrangement.violations()[:5]}",
                report,
            )
    return report
