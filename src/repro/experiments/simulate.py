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
3. **repair** — the targeted repair (:func:`repro.core.repair.repair`)
   re-optimizes the churned scope.  Arrivals are excluded from the
   user-side scan, so the online policy's choice is never *improved upon*
   on their behalf; the event-side refill/evict moves still treat them
   like any other bidder, so the platform may later re-seat (or displace)
   an arrival the way a real venue reshuffle would;
4. **defragmentation** — a pluggable :class:`DefragSchedule` decides when
   the platform pays for a full-scope pass: an LP-packing re-solve whose
   arrangement is adopted on net gain, and a full local-search sweep
   (:func:`repro.core.local_search.iter_passes`).  :class:`PeriodicDefrag`
   runs every k-th tick and decides before repair, so its defrag tick is
   the LP alone, in place of stage 3: repair and the sweep run after it
   only when the LP is not adopted.  :class:`RetentionDefrag` triggers
   when the repaired utility falls below a fraction of the last oracle
   bound, so its defrag runs after repair: the sweep, then the LP;
5. **oracle** — every ``oracle_every``-th tick the benchmark-LP optimum
   LP*, an upper bound on every arrangement (Lemma 1): ``utility / LP*`` is
   the **retention curve**, and the gap to LP* the **repair debt**.

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
    "simulate_engine",
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
        repair_moves: targeted-repair move counts (None: the tick's
            LP-first defrag was adopted, so no repair ran).
        defrag: whether the defragmentation pass ran this tick.
        defrag_moves: its sweep move counts, plus ``lp_utility``/
            ``lp_adopted`` when the LP re-solve ran (``lp_failed: True``
            instead of ``lp_utility`` when its solve failed); None when no
            defrag ran.
        utility: arrangement utility at the end of the tick.
        oracle_utility: LP* of the tick's instance (None on non-oracle
            ticks).
        repair_debt: most recent LP* minus ``utility``, floored at 0
            (None before the first oracle measurement).
        seconds: wall-clock of churn + arrivals + repair + defrag (the
            oracle is measurement apparatus and excluded).
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
    repair_moves: dict | None
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
        """Utility over LP* (None on non-oracle ticks)."""
        if self.oracle_utility is None or self.oracle_utility <= 0.0:
            return None
        return self.utility / self.oracle_utility


@dataclass
class SimulationReport:
    """All tick records of one simulated trace plus aggregate views."""

    #: :class:`~repro.experiments.persistence.ReportEnvelope` discriminator.
    envelope_kind: ClassVar[str] = "simulation"

    online_algorithm: str
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
        """(tick, utility / LP*) at every oracle tick."""
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
        f"defrag {report.defrag_schedule}, "
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
    **engine_options,
) -> SimulationReport:
    """Run the dynamic-platform loop over a churn trace.

    Args:
        trace: the initial instance and delta batches; each delta's
            ``add_users`` are this tick's online arrivals.
        online: the arrival-serving policy; it also produces the initial
            arrangement (the pre-trace population arrived online too).
        **engine_options: the remaining
            :class:`~repro.service.engine.TickEngine` options (``seed``,
            ``defrag``, ``oracle_every``, ``defrag_lp``, ...),
            with its defaults.  The oracle also runs on the final tick;
            with ``oracle_every=0`` retention and debt fields stay None.

    Returns:
        A :class:`SimulationReport` with per-tick records.

    Raises:
        SimulationInfeasibleError: when a tick's arrangement fails the full
            feasibility audit (never expected; a delta/repair invariant
            would be broken).  The partial report rides on the exception.
    """
    return simulate_engine(TickEngine(trace.initial, online, **engine_options), trace)


def simulate_engine(engine: TickEngine, trace: ChurnTrace) -> SimulationReport:
    """:func:`simulate` on an engine built over ``trace.initial``."""
    initial_utility, initial_seconds = engine.bootstrap()
    report = SimulationReport(
        online_algorithm=engine.online.name,
        defrag_schedule=engine.defrag.name,
        initial_utility=initial_utility,
        initial_seconds=initial_seconds,
    )
    last_tick = len(trace.deltas) - 1
    for tick, delta in enumerate(trace.deltas):
        tick_started = engine.clock.perf()
        result = engine.apply_churn(delta)
        accepted = engine.serve_arrivals(result, delta)
        repair_moves, defrag_moves, utility = engine.optimize(result, tick)
        seconds = engine.clock.perf() - tick_started

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
                defrag=defrag_moves is not None,
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
