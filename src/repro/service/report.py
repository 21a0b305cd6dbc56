"""Serving reports: latency SLOs, throughput and admission accounting.

The synchronous simulator reports utility retention; a serving loop is
additionally judged on *answers*: how fast each arrival got one
(p50/p99 latency), how many per second the loop sustains, and what
admission control did under burst (rejections, degrades, requeues,
expiries).  :class:`ServeReport` carries all of it —

* one :class:`ArrivalRecord` per answered arrival (latency samples ride
  here), and
* one :class:`ServeTickRecord` per tick (batch shape, pipeline moves,
  utility, audits, switching-cost spend),

sharing the :func:`repro.experiments.persistence.report_to_dict` envelope
with the replay/simulation reports, so CI artifacts aggregate uniformly.

Latency is *measurement* time (monotonic) and varies run to run; every
decision-derived field is deterministic under a fixed seed and virtual
clock.  :meth:`ServeReport.determinism_fingerprint` projects out exactly
the decision-derived fields, so the reproducibility gate in
``bench_serve.py`` can compare two runs without tripping on timing noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.experiments.persistence import report_to_dict


@dataclass
class ArrivalRecord:
    """One answered arrival (see :class:`~repro.service.requests.ServeResponse`)."""

    user_id: int
    tick: int
    outcome: str
    events: tuple[int, ...]
    latency_seconds: float
    timestamp: float
    requeues: int = 0


@dataclass
class ServeTickRecord:
    """Measurements of one served tick.

    Attributes:
        tick: tick number (0-based).
        decision_time: virtual/decision time at which the batch flushed.
        batch_size: requests in the flushed batch (churn + arrivals).
        operations: the coalesced tick delta's operation counts.
        arrivals: arrivals answered this tick (including expiries).
        accepted / degraded / rejected / expired / empty: admission
            outcome counts among them.
        requeued: arrivals pushed to a later tick (not yet answered).
        num_users / num_events / num_pairs: platform sizes after the tick.
        repair_moves: targeted-repair move counts (None: the tick's
            LP-first defrag was adopted, so no repair ran).
        defrag: whether the defragmentation pass started this tick.
        defrag_moves: its accumulated move counts (``superseded: True``
            when a newer churn batch cut its sweep short at a pass
            boundary; ``lp_failed: True`` when its LP solve failed).
        switching_pairs / switching_spend: revocation accounting of the
            tick's defrag (0 when no penalty is configured).
        utility: arrangement utility at the end of the tick's pipeline.
        oracle_utility: the benchmark-LP optimum LP* (None off-cadence).
        seconds: monotonic time of the admission + serve stage (the
            background pipeline is excluded — it overlaps the next tick).
        feasible: full Definition 4 audit of the end-of-tick arrangement.
        parity_mismatches: index arrays differing from a fresh build (None
            when the parity check is off; empty list = bit-identical).
    """

    tick: int
    decision_time: float
    batch_size: int
    operations: dict
    arrivals: int
    accepted: int
    degraded: int
    rejected: int
    expired: int
    empty: int
    requeued: int
    num_users: int
    num_events: int
    num_pairs: int
    repair_moves: dict | None
    defrag: bool
    defrag_moves: dict | None
    switching_pairs: int
    switching_spend: float
    utility: float
    oracle_utility: float | None
    seconds: float
    feasible: bool
    parity_mismatches: list[str] | None


@dataclass
class ServeReport:
    """All tick and arrival records of one serving session."""

    #: :class:`~repro.experiments.persistence.ReportEnvelope` discriminator.
    envelope_kind: ClassVar[str] = "serve"

    online_algorithm: str
    admission_policy: str
    defrag_schedule: str
    switching_penalty: float
    initial_utility: float
    initial_seconds: float
    records: list[ServeTickRecord] = field(default_factory=list)
    arrivals: list[ArrivalRecord] = field(default_factory=list)
    wall_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Latency / throughput aggregates (measurement time)
    # ------------------------------------------------------------------
    def latency_quantile(self, q: float) -> float | None:
        """Latency quantile in seconds over all answered arrivals."""
        if not self.arrivals:
            return None
        samples = [record.latency_seconds for record in self.arrivals]
        return float(np.quantile(samples, q))

    @property
    def p50_latency(self) -> float | None:
        return self.latency_quantile(0.5)

    @property
    def p99_latency(self) -> float | None:
        return self.latency_quantile(0.99)

    @property
    def arrivals_per_second(self) -> float | None:
        """Answered arrivals over the session's monotonic wall time."""
        if not self.arrivals or self.wall_seconds <= 0.0:
            return None
        return len(self.arrivals) / self.wall_seconds

    # ------------------------------------------------------------------
    # Admission accounting (decision-derived, deterministic)
    # ------------------------------------------------------------------
    def outcome_counts(self) -> dict[str, int]:
        counts = {
            "accepted": 0,
            "empty": 0,
            "degraded": 0,
            "rejected": 0,
            "expired": 0,
        }
        for record in self.arrivals:
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        return counts

    @property
    def all_answered(self) -> bool:
        """Every arrival carries exactly one terminal outcome record."""
        return all(record.outcome in (
            "accepted",
            "empty",
            "degraded",
            "rejected",
            "expired",
        ) for record in self.arrivals)

    @property
    def total_requeues(self) -> int:
        return sum(record.requeues for record in self.arrivals)

    @property
    def switching_spend_total(self) -> float:
        return sum(record.switching_spend for record in self.records)

    @property
    def switching_pairs_total(self) -> int:
        return sum(record.switching_pairs for record in self.records)

    @property
    def defrag_count(self) -> int:
        return sum(1 for record in self.records if record.defrag)

    @property
    def superseded_defrags(self) -> int:
        return sum(
            1
            for record in self.records
            if record.defrag_moves is not None
            and record.defrag_moves.get("superseded")
        )

    @property
    def all_feasible(self) -> bool:
        return all(record.feasible for record in self.records)

    @property
    def all_parity(self) -> bool:
        return all(
            not record.parity_mismatches
            for record in self.records
            if record.parity_mismatches is not None
        )

    @property
    def final_utility(self) -> float:
        if not self.records:
            return self.initial_utility
        return self.records[-1].utility

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def determinism_fingerprint(self) -> dict:
        """Decision-derived projection for bit-reproducibility checks.

        Excludes every monotonic measurement (latencies, tick seconds,
        wall time); two fixed-seed virtual-clock runs must compare equal
        on this projection.
        """
        return {
            "ticks": [
                {
                    "tick": record.tick,
                    "decision_time": record.decision_time,
                    "batch_size": record.batch_size,
                    "operations": record.operations,
                    "outcomes": [
                        record.accepted,
                        record.degraded,
                        record.rejected,
                        record.expired,
                        record.empty,
                        record.requeued,
                    ],
                    "utility": record.utility,
                    "defrag": record.defrag,
                    "switching_pairs": record.switching_pairs,
                    "switching_spend": record.switching_spend,
                }
                for record in self.records
            ],
            "arrivals": [
                {
                    "user_id": record.user_id,
                    "tick": record.tick,
                    "outcome": record.outcome,
                    "events": list(record.events),
                    "requeues": record.requeues,
                }
                for record in self.arrivals
            ],
        }

    def to_dict(self) -> dict:
        """JSON-ready snapshot (the serve bench / soak artifact)."""
        summary = {
            "online_algorithm": self.online_algorithm,
            "admission_policy": self.admission_policy,
            "defrag_schedule": self.defrag_schedule,
            "switching_penalty": self.switching_penalty,
            "initial_utility": self.initial_utility,
            "initial_seconds": self.initial_seconds,
            "wall_seconds": self.wall_seconds,
            "p50_latency": self.p50_latency,
            "p99_latency": self.p99_latency,
            "arrivals_per_second": self.arrivals_per_second,
            "outcome_counts": self.outcome_counts(),
            "total_requeues": self.total_requeues,
            "switching_pairs_total": self.switching_pairs_total,
            "switching_spend_total": self.switching_spend_total,
            "defrag_count": self.defrag_count,
            "superseded_defrags": self.superseded_defrags,
            "final_utility": self.final_utility,
            "all_feasible": self.all_feasible,
            "all_parity": self.all_parity,
            "arrivals": [
                {
                    "user_id": record.user_id,
                    "tick": record.tick,
                    "outcome": record.outcome,
                    "events": list(record.events),
                    "latency_seconds": record.latency_seconds,
                    "timestamp": record.timestamp,
                    "requeues": record.requeues,
                }
                for record in self.arrivals
            ],
        }
        records = [
            {
                "tick": record.tick,
                "decision_time": record.decision_time,
                "batch_size": record.batch_size,
                "operations": record.operations,
                "arrivals": record.arrivals,
                "accepted": record.accepted,
                "degraded": record.degraded,
                "rejected": record.rejected,
                "expired": record.expired,
                "empty": record.empty,
                "requeued": record.requeued,
                "num_users": record.num_users,
                "num_events": record.num_events,
                "num_pairs": record.num_pairs,
                "repair_moves": record.repair_moves,
                "defrag": record.defrag,
                "defrag_moves": record.defrag_moves,
                "switching_pairs": record.switching_pairs,
                "switching_spend": record.switching_spend,
                "utility": record.utility,
                "oracle_utility": record.oracle_utility,
                "seconds": record.seconds,
                "feasible": record.feasible,
                "parity_mismatches": record.parity_mismatches,
            }
            for record in self.records
        ]
        return report_to_dict("serve", summary, records, records_key="ticks")
