"""Defragmentation schedules: when the platform pays for a full-scope pass.

Moved here from :mod:`repro.experiments.simulate` (which re-exports them
unchanged) so the asyncio serving loop and the synchronous simulation
driver consult one policy surface.  A schedule sees only online-observable
state — the tick number, the arrangement's utility after repair, and the
most recent oracle bound LP* — and answers one question: run the expensive
full-scope defragmentation now?

A schedule that decides without the utility (:attr:`DefragSchedule.
reads_utility` false) may be asked before repair: a
:class:`~repro.service.engine.TickEngine` with its LP step on does so, to
make a defrag tick the LP-packing re-solve alone and run repair only when
the LP is not adopted.
"""

from __future__ import annotations

from typing import ClassVar


class DefragSchedule:
    """When the platform pays for a full-scope defragmentation pass.

    The base schedule never defragments — the "defrag off" baseline the
    dynamic bench compares against.  Subclasses override
    :meth:`should_run`; it is consulted once per tick, after arrivals, and
    after targeted repair unless :attr:`reads_utility` is false.
    """

    name = "none"
    #: Whether :meth:`should_run` reads its ``utility`` argument.  True is
    #: the safe answer for a subclass: it is then asked after repair, with
    #: the repaired utility.  A schedule that decides without it sets this
    #: false and may be asked before repair, with ``utility=None``.
    reads_utility: ClassVar[bool] = True

    def should_run(
        self, tick: int, utility: float | None, oracle_utility: float | None
    ) -> bool:
        """Decide from online-observable state only.

        Args:
            tick: 0-based tick number.
            utility: the arrangement's utility after this tick's repair
                (None when asked before repair, which only a schedule with
                :attr:`reads_utility` false is).
            oracle_utility: the most recent oracle bound LP* (from a
                *previous* tick; None before the first oracle run).
        """
        return False

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class PeriodicDefrag(DefragSchedule):
    """Defragment every ``period``-th tick, unconditionally."""

    reads_utility = False

    def __init__(self, period: int):
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        self.period = period
        self.name = f"periodic-{period}"

    def should_run(
        self, tick: int, utility: float | None, oracle_utility: float | None
    ) -> bool:
        return (tick + 1) % self.period == 0


class RetentionDefrag(DefragSchedule):
    """Defragment when utility falls below ``threshold`` × the last oracle.

    The oracle is the benchmark-LP optimum LP*, an upper bound on every
    arrangement, so ``threshold`` is a certified fraction of the optimum.

    Before the first oracle measurement the trigger never fires — run the
    simulation with ``oracle_every`` set, or nothing will trip it.
    """

    def __init__(self, threshold: float = 0.95):
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        self.threshold = threshold
        self.name = f"retention-{threshold:g}"

    def should_run(
        self, tick: int, utility: float | None, oracle_utility: float | None
    ) -> bool:
        return (
            utility is not None
            and oracle_utility is not None
            and oracle_utility > 0.0
            and utility / oracle_utility < self.threshold
        )
