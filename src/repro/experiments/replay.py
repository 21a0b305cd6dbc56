"""Churn replay driver: incremental repair vs full recompute, batch by batch.

Replays a :class:`~repro.datagen.churn.ChurnTrace` through two pipelines:

* **incremental** — a :class:`~repro.service.engine.TickEngine` run: each
  batch is the engine's churn stage (:func:`repro.model.delta.apply_delta`
  patches the predecessor's :class:`~repro.model.index.InstanceIndex` and
  carries the arrangement over), its targeted repair
  (:func:`repro.core.repair.repair`, touched users/events only) and its
  end-of-batch audit;
* **full** — the successor instance content is materialized the same way,
  but its index is built from scratch and the base algorithm re-solves the
  whole instance.

Both pipelines see identical successor instances, so the driver can verify
the tentpole guarantees per batch: the patched index must equal a
from-scratch build array for array (bit-identical), and the repaired
arrangement must be feasible.  The report records per-batch wall-clock for
both sides, the utility retention of repair vs re-solve, and the headline
``speedup`` — what :mod:`benchmarks.bench_churn` gates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.core.base import ArrangementAlgorithm
from repro.core.baselines import GGGreedy
from repro.core.local_search import LocalSearch
# ``repair`` is unused here (batches repair through the engine); the name
# stays because ``perfbench/spans.py`` wraps this module global for its
# traced run and fails when it is missing.
from repro.core.repair import repair  # noqa: F401
from repro.datagen.churn import ChurnTrace
from repro.model.delta import apply_delta
from repro.service.engine import TickEngine


class ReplayInfeasibleError(RuntimeError):
    """A repaired arrangement failed its feasibility audit during replay.

    Carries the partial :class:`ReplayReport` (including the failing
    batch's record) as ``report``, so callers and debuggers can inspect
    what happened up to the failure.
    """

    def __init__(self, message: str, report: "ReplayReport"):
        super().__init__(message)
        self.report = report


@dataclass
class BatchRecord:
    """Measurements of one replayed batch.

    Attributes:
        batch: batch number (0-based).
        operations: the delta's operation counts.
        num_users / num_events / num_pairs: successor sizes after the batch.
        incremental_seconds: apply_delta (patched index + carryover) + repair.
        full_seconds: instance rebuild + from-scratch index + re-solve
            (None when the comparison side is off).
        incremental_utility: utility of the repaired arrangement.
        full_utility: utility of the re-solved arrangement (None as above).
        dropped_pairs: pairs the delta invalidated.
        moves: repair move counts.
        feasible: full feasibility audit of the repaired arrangement.
        parity_mismatches: index arrays differing from a fresh build
            (None when the parity check is off; empty list = bit-identical).
    """

    batch: int
    operations: dict
    num_users: int
    num_events: int
    num_pairs: int
    incremental_seconds: float
    full_seconds: float | None
    incremental_utility: float
    full_utility: float | None
    dropped_pairs: int
    moves: dict
    feasible: bool
    parity_mismatches: list[str] | None

    @property
    def speedup(self) -> float | None:
        if self.full_seconds is None or self.incremental_seconds <= 0.0:
            return None
        return self.full_seconds / self.incremental_seconds


@dataclass
class ReplayReport:
    """All batch records of one replayed trace plus aggregate views."""

    #: :class:`~repro.experiments.persistence.ReportEnvelope` discriminator.
    envelope_kind: ClassVar[str] = "replay"

    algorithm: str
    initial_utility: float
    initial_solve_seconds: float
    records: list[BatchRecord] = field(default_factory=list)

    @property
    def mean_incremental_seconds(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.incremental_seconds for r in self.records]))

    @property
    def mean_full_seconds(self) -> float | None:
        times = [r.full_seconds for r in self.records if r.full_seconds is not None]
        return float(np.mean(times)) if times else None

    @property
    def speedup(self) -> float | None:
        """Mean full time over mean incremental time across all batches."""
        full = self.mean_full_seconds
        incremental = self.mean_incremental_seconds
        if full is None or incremental <= 0.0:
            return None
        return full / incremental

    @property
    def utility_retention(self) -> float | None:
        """Mean repaired utility as a fraction of the re-solved utility.

        Batches whose full re-solve scored 0 are excluded (the ratio is
        undefined there); None when no batch had a positive full utility.
        """
        ratios = [
            r.incremental_utility / r.full_utility
            for r in self.records
            if r.full_utility is not None and r.full_utility > 0.0
        ]
        return float(np.mean(ratios)) if ratios else None

    @property
    def all_feasible(self) -> bool:
        return all(r.feasible for r in self.records)

    @property
    def all_parity(self) -> bool:
        """True when every checked batch had a bit-identical patched index."""
        return all(
            not r.parity_mismatches
            for r in self.records
            if r.parity_mismatches is not None
        )

    def to_dict(self) -> dict:
        """JSON-ready snapshot (used by the churn bench artifact).

        Serialized through the shared
        :func:`repro.experiments.persistence.report_to_dict` envelope, so
        replay and simulation artifacts stay schema-consistent.
        """
        from repro.experiments.persistence import report_to_dict

        summary = {
            "algorithm": self.algorithm,
            "initial_utility": self.initial_utility,
            "initial_solve_seconds": self.initial_solve_seconds,
            "mean_incremental_seconds": self.mean_incremental_seconds,
            "mean_full_seconds": self.mean_full_seconds,
            "speedup": self.speedup,
            "utility_retention": self.utility_retention,
            "all_feasible": self.all_feasible,
            "all_parity": self.all_parity,
        }
        records = [
            {
                "batch": r.batch,
                "operations": r.operations,
                "num_users": r.num_users,
                "num_events": r.num_events,
                "num_pairs": r.num_pairs,
                "incremental_seconds": r.incremental_seconds,
                "full_seconds": r.full_seconds,
                "speedup": r.speedup,
                "incremental_utility": r.incremental_utility,
                "full_utility": r.full_utility,
                "dropped_pairs": r.dropped_pairs,
                "moves": r.moves,
                "feasible": r.feasible,
                "parity_mismatches": r.parity_mismatches,
            }
            for r in self.records
        ]
        return report_to_dict("replay", summary, records, records_key="batches")


def format_replay_table(report: ReplayReport) -> str:
    """Fixed-width per-batch table for the CLI."""
    lines = [
        f"replay: {report.algorithm}, initial utility "
        f"{report.initial_utility:.2f} "
        f"({report.initial_solve_seconds * 1e3:.0f} ms solve)",
        f"{'batch':>5} {'|U|':>6} {'|V|':>5} {'dropped':>7} "
        f"{'incr (ms)':>10} {'full (ms)':>10} {'speedup':>8} "
        f"{'u(incr)':>9} {'u(full)':>9}",
    ]
    for r in report.records:
        full_ms = "-" if r.full_seconds is None else f"{r.full_seconds * 1e3:10.1f}"
        speedup = "-" if r.speedup is None else f"{r.speedup:8.1f}"
        full_utility = (
            "-" if r.full_utility is None else f"{r.full_utility:9.2f}"
        )
        lines.append(
            f"{r.batch:>5} {r.num_users:>6} {r.num_events:>5} "
            f"{r.dropped_pairs:>7} {r.incremental_seconds * 1e3:10.1f} "
            f"{full_ms:>10} {speedup:>8} {r.incremental_utility:9.2f} "
            f"{full_utility:>9}"
        )
    summary = [
        f"mean incremental: {report.mean_incremental_seconds * 1e3:.1f} ms/batch"
    ]
    if report.mean_full_seconds is not None:
        summary.append(f"mean full: {report.mean_full_seconds * 1e3:.1f} ms/batch")
    if report.speedup is not None:
        summary.append(f"speedup: {report.speedup:.1f}x")
    if report.utility_retention is not None:
        summary.append(f"utility retention: {report.utility_retention:.1%}")
    summary.append(f"feasible: {report.all_feasible}")
    lines.append(", ".join(summary))
    return "\n".join(lines)


def replay_trace(
    trace: ChurnTrace,
    algorithm: ArrangementAlgorithm | None = None,
    *,
    seed: int = 0,
    compare_full: bool = True,
    check_parity: bool = False,
    max_passes: int = 20,
) -> ReplayReport:
    """Replay a churn trace, timing incremental repair against full recompute.

    Args:
        trace: the initial instance and delta batches.
        algorithm: base solver for the initial arrangement and the full
            recompute side (default: ``gg+ls``, the strongest non-LP
            combination).
        seed: solver seed (initial solve uses ``seed``, batch ``i`` re-solves
            with ``seed + 1 + i`` so repetitions stay decorrelated).
        compare_full: also run the full rebuild + re-solve per batch.
        check_parity: rebuild the index from scratch per batch and compare
            against the patched one (adds the fresh build's cost — leave off
            when timing, on when verifying).
        max_passes: local-search pass cap for the targeted repair.

    Returns:
        A :class:`ReplayReport` with per-batch records.

    Raises:
        ReplayInfeasibleError: when a repaired arrangement fails its
            feasibility audit (never expected; a delta-layer invariant
            would be broken).  The partial report rides on the exception.
    """
    if algorithm is None:
        algorithm = LocalSearch(GGGreedy())
    engine = TickEngine(
        trace.initial,
        seed=seed,
        defrag_lp=False,
        max_passes=max_passes,
        check_parity=check_parity,
    )
    started = engine.clock.perf()
    initial = algorithm.solve(trace.initial, seed=seed)
    initial_seconds = engine.clock.perf() - started
    engine.arrangement = initial.arrangement

    report = ReplayReport(
        algorithm=algorithm.name,
        initial_utility=initial.utility,
        initial_solve_seconds=initial_seconds,
    )
    for batch, delta in enumerate(trace.deltas):
        predecessor = engine.instance
        started = engine.clock.perf()
        result = engine.apply_churn(delta)
        moves = engine.repair(result)
        incremental_seconds = engine.clock.perf() - started

        full_seconds = None
        full_utility = None
        if compare_full:
            started = engine.clock.perf()
            rebuilt = apply_delta(predecessor, delta, incremental=False).instance
            rebuilt.index  # from-scratch index build, part of the full cost
            full_result = algorithm.solve(rebuilt, seed=seed + 1 + batch)
            full_seconds = engine.clock.perf() - started
            full_utility = full_result.utility

        feasible, parity = engine.audit(result)
        report.records.append(
            BatchRecord(
                batch=batch,
                operations=delta.summary(),
                num_users=result.instance.num_users,
                num_events=result.instance.num_events,
                num_pairs=len(result.arrangement),
                incremental_seconds=incremental_seconds,
                full_seconds=full_seconds,
                incremental_utility=result.arrangement.utility(),
                full_utility=full_utility,
                dropped_pairs=len(result.dropped_pairs),
                moves=moves,
                feasible=feasible,
                parity_mismatches=parity,
            )
        )
        if not feasible:
            # Recorded first, and the partial report rides on the error,
            # so the failing batch stays inspectable.
            raise ReplayInfeasibleError(
                f"batch {batch}: repaired arrangement is infeasible: "
                f"{result.arrangement.violations()[:5]}",
                report,
            )
    return report
