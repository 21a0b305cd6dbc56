"""The five-stage tick pipeline as a reusable engine.

:class:`TickEngine` holds the live state (instance, arrangement, RNG, the
benchmark-LP resolver, oracle reference) and runs churn → arrivals → repair
→ defragmentation → oracle as methods, so the three drivers that advance a
churn trace share one copy of each stage and its invariants:

* **replay** (``experiments.replay``) applies, repairs and audits each
  batch and times it against a full rebuild and re-solve;
* **simulate** (``experiments.simulate``) calls the stages back-to-back per
  churn batch;
* **serve** (:mod:`repro.service.loop`) interleaves them: arrivals are
  answered per request between stage boundaries, and repair and
  defragmentation run through :meth:`TickEngine.optimize_steps` so the loop
  can stop a local-search defrag sweep at a pass boundary (every pass is
  feasibility-preserving, so stopping can never strand an infeasible
  arrangement).

**A defrag tick is the LP.**  When the defrag schedule decides without the
post-repair utility (:attr:`~repro.service.defrag.DefragSchedule.
reads_utility` false, e.g. :class:`~repro.service.defrag.PeriodicDefrag`)
and the LP step is on, a defrag tick runs churn → arrivals → LP-packing
re-solve: LP-packing builds its arrangement from the LP optimum alone, so
the repair and the sweep that would precede it only fed its warm start.
Repair and the sweep run after the LP only when it is not adopted (a
switching penalty outweighs its gain, or the solve failed).  Every other
tick keeps repair → sweep → LP.  :meth:`TickEngine.optimize_steps` is the
one place this order is decided.

Determinism contract: the engine's RNG is consumed *only* by ``serve``
calls in arrival order; the defrag LP samples with ``seed + 100_003 +
tick``; the LP resolver is one object across the horizon.  The oracle is
the benchmark-LP optimum LP*, which bounds every feasible arrangement
(Lemma 1): a utility above it raises :class:`LPBoundError`.  All timing
goes through the injected :class:`~repro.service.clock.Clock`'s ``perf()``
— measurement only, never a decision input.

**Revocable assignments** ride on defragmentation: re-seating an
already-served arrival pays ``switching_penalty`` per changed (user, event)
pair into the adoption objective, so the LP candidate wins only on *net*
gain.  With the default penalty of 0 the gate reduces to
``lp_utility > utility``.
"""

from __future__ import annotations

import warnings
from collections.abc import Collection, Generator, Iterable, Iterator

import numpy as np

# No stage calls ``improve`` (defragmentation steps through ``iter_passes``);
# the name stays because ``perfbench/spans.py`` wraps this module global for
# its traced run and fails when it is missing.
from repro.core.local_search import improve, iter_passes  # noqa: F401
from repro.core.lp_packing import LPPacking, LPPackingError
from repro.core.online import BOUND_RTOL, OnlineGreedy, _OnlineAlgorithm
from repro.core.repair import repair as targeted_repair
from repro.model.arrangement import Arrangement
from repro.model.delta import (
    Delta,
    DeltaResult,
    apply_delta,
    fresh_index_like,
    index_parity_mismatches,
)
from repro.model.instance import IGEPAInstance
from repro.service.clock import Clock, MonotonicClock
from repro.service.defrag import DefragSchedule


#: Move counters of one defragmentation sweep.
_SWEEP_KEYS = ("adds", "refills", "upgrades", "evictions", "passes")


class LPBoundError(RuntimeError):
    """An arrangement's utility exceeds the benchmark-LP optimum LP*."""


def check_lp_bound(utility: float, bound: float, what: str) -> None:
    """Raise :class:`LPBoundError` when ``utility`` exceeds LP* ``bound``."""
    if utility > bound * (1.0 + BOUND_RTOL):
        raise LPBoundError(
            f"{what} utility {utility!r} exceeds the benchmark-LP optimum "
            f"{bound!r} (Lemma 1 bounds every feasible arrangement)"
        )


class TickEngine:
    """Live pipeline state plus the five stages as methods.

    Args:
        initial: the platform's starting instance (the trace's ``initial``).
        online: arrival-serving policy; also produces the bootstrap
            arrangement (default :class:`~repro.core.online.OnlineGreedy`).
        seed: RNG seed; the per-tick defrag LP seed derives from it.
        defrag: defragmentation schedule (default: never).
        oracle_every: LP* cadence in ticks (0: never; must be >= 0).
        defrag_lp: run an LP-packing re-solve during defrag and adopt its
            arrangement on net gain.  The benchmark LP is rebuilt as arrays
            for every defrag and every LP* oracle, from the tick's instance,
            and solved by :func:`~repro.solver.api.solve_lp` (HiGHS), its
            simplex started from the arrangement the LP would replace
            (:meth:`~repro.core.lp_packing.LPPacking.start_from`): the
            carried arrangement after arrivals on an LP-first defrag tick,
            the swept one otherwise (see :meth:`optimize_steps`).
        defrag_lp_incremental: retired and ignored; passing it warns with
            :class:`DeprecationWarning`.
        max_passes: local-search pass cap for repair and defrag sweeps.
        check_parity: rebuild the index from scratch in :meth:`audit` and
            compare against the patched one.
        clock: time source; ``perf()`` is used for measurements only.
        switching_penalty: utility cost per re-seated (user, event) pair of
            a *served* user during defragmentation (0: revocation is free,
            PR 5 behavior).
    """

    def __init__(
        self,
        initial: IGEPAInstance,
        online: _OnlineAlgorithm | None = None,
        *,
        seed: int = 0,
        defrag: DefragSchedule | None = None,
        oracle_every: int = 0,
        defrag_lp: bool = True,
        defrag_lp_incremental: bool | None = None,
        max_passes: int = 20,
        check_parity: bool = False,
        clock: Clock | None = None,
        switching_penalty: float = 0.0,
    ):
        if oracle_every < 0:
            raise ValueError(f"oracle_every must be >= 0, got {oracle_every}")
        if switching_penalty < 0.0:
            raise ValueError(
                f"switching_penalty must be >= 0, got {switching_penalty}"
            )
        if defrag_lp_incremental is not None:
            # Accepted only because the repository benchmark still passes
            # it; ROADMAP item 1's benchmark-only change deletes it.
            warnings.warn(
                "defrag_lp_incremental is retired and ignored: every defrag "
                "rebuilds the benchmark LP and solves it warm",
                DeprecationWarning,
                stacklevel=2,
            )
        self.instance = initial
        self.online = online if online is not None else OnlineGreedy()
        self.defrag = defrag if defrag is not None else DefragSchedule()
        self.seed = seed
        self.oracle_every = oracle_every
        self.max_passes = max_passes
        self.check_parity = check_parity
        self.clock: Clock = clock if clock is not None else MonotonicClock()
        self.switching_penalty = switching_penalty
        self.rng = np.random.default_rng(seed)
        # One resolver across the horizon for the defrag LP and LP*.
        self.defrag_lp = defrag_lp
        self.lp_resolver = LPPacking(alpha=1.0)
        self.arrangement: Arrangement | None = None
        self.oracle_reference: float | None = None
        self.switching_spend_total = 0.0
        self.switching_pairs_total = 0

    # ------------------------------------------------------------------
    # Stage 0: bootstrap
    # ------------------------------------------------------------------
    def bootstrap(self) -> tuple[float, float]:
        """Solve the initial arrangement (the pre-trace population arrived
        online too).  Returns ``(utility, seconds)``."""
        started = self.clock.perf()
        initial = self.online.solve(self.instance, seed=self.seed)
        self.arrangement = initial.arrangement
        return initial.utility, self.clock.perf() - started

    # ------------------------------------------------------------------
    # Stage 1: churn
    # ------------------------------------------------------------------
    def apply_churn(self, delta: Delta) -> DeltaResult:
        """Apply one churn batch; the engine advances to the successor
        instance and the carried (pair-shed) arrangement."""
        result = apply_delta(self.instance, delta, self.arrangement)
        self.instance = result.instance
        self.arrangement = result.arrangement
        return result

    # ------------------------------------------------------------------
    # Stage 2: arrivals
    # ------------------------------------------------------------------
    def prepare_arrivals(self, user_ids: list[int]) -> None:
        """Announce the arrivals about to be served, in order, so the online
        policy can enumerate their options in one batch."""
        self.online.prepare(self.instance, user_ids)

    def serve_one(self, user_id: int) -> list[int]:
        """Serve one arrival against the live arrangement, consuming the
        engine RNG.  Returns the newly assigned event ids (sorted; empty =
        nothing fit)."""
        return self.online.serve(self.instance, self.arrangement, user_id, self.rng)

    def exclude_from_repair(
        self, result: DeltaResult, user_ids: Iterable[int]
    ) -> None:
        """Drop arrivals from the repair's user-side scan so the online
        policy's choice is never improved upon on their behalf (event-side
        refill/evict still treats them like any other bidder)."""
        result.touched_users.difference_update(user_ids)

    def serve_arrivals(self, result: DeltaResult, delta: Delta) -> int:
        """The PR 5 arrival stage: serve the delta's new users in arrival
        order, then exclude them from the repair scan.  Returns the number
        accepted (assigned at least one event at arrival time)."""
        accepted = 0
        self.prepare_arrivals([user.user_id for user in delta.add_users])
        for user in delta.add_users:
            if self.serve_one(user.user_id):
                accepted += 1
        self.exclude_from_repair(
            result, (user.user_id for user in delta.add_users)
        )
        return accepted

    # ------------------------------------------------------------------
    # Stage 3: targeted repair
    # ------------------------------------------------------------------
    def repair(self, result: DeltaResult) -> dict:
        """Re-optimize the churned scope with the targeted serial repair."""
        return targeted_repair(result, max_passes=self.max_passes)

    # ------------------------------------------------------------------
    # Stage 4: defragmentation (+ revocation accounting)
    # ------------------------------------------------------------------
    def should_defrag(self, tick: int, utility: float | None) -> bool:
        return self.defrag.should_run(tick, utility, self.oracle_reference)

    def assignment_snapshot(
        self, user_ids: Iterable[int]
    ) -> dict[int, frozenset[int]]:
        """Snapshot the given users' assignments (for switching-cost diffs
        across a defrag pass).  Unknown ids are skipped — a served arrival
        may have been churned off the platform since."""
        return {
            user_id: frozenset(self.arrangement.events_of(user_id))
            for user_id in user_ids
            if user_id in self.instance.user_by_id
        }

    def _switching_snapshot(
        self, served_users: Iterable[int]
    ) -> dict[int, frozenset[int]] | None:
        """:meth:`assignment_snapshot` of ``served_users`` when a switching
        penalty is set (None: re-seating is free, nothing to charge)."""
        if self.switching_penalty > 0.0:
            return self.assignment_snapshot(served_users)
        return None

    def switching_pairs(
        self,
        snapshot: dict[int, frozenset[int]],
        arrangement: Arrangement | None = None,
    ) -> int:
        """Count (user, event) pairs that changed against ``snapshot``."""
        arrangement = arrangement if arrangement is not None else self.arrangement
        return sum(
            len(before ^ arrangement.events_of(user_id))
            for user_id, before in snapshot.items()
        )

    def record_switching(
        self, moves: dict, snapshot: dict[int, frozenset[int]]
    ) -> float:
        """Charge the live arrangement's re-seating against ``snapshot``.
        Mutates ``moves`` and returns the spend."""
        pairs = self.switching_pairs(snapshot)
        spend = self.switching_penalty * pairs
        moves["switching_pairs"] = pairs
        moves["switching_spend"] = spend
        self.switching_pairs_total += pairs
        self.switching_spend_total += spend
        return spend

    def iter_defrag_passes(self, result: DeltaResult) -> Iterator[dict]:
        """Full-scope improvement, one pass per iteration.

        Yields each pass's move counts from
        :func:`~repro.core.local_search.iter_passes` — one search state for
        the whole defrag.  The search state mirrors the arrangement, so
        nothing else may modify it while the iteration is suspended.
        """
        return iter_passes(
            result.instance, self.arrangement, max_passes=self.max_passes
        )

    def adopt_lp(
        self,
        result: DeltaResult,
        tick: int,
        moves: dict,
        utility: float,
        snapshot: dict[int, frozenset[int]] | None = None,
    ) -> float:
        """Defrag's LP step: LP-packing re-solve, adopted on net gain.

        ``utility`` is the live arrangement's, the one the LP arrangement
        would replace.  With a switching ``snapshot``, each candidate's
        utility is charged ``switching_penalty`` per re-seated pair before
        comparison.  Records ``lp_utility`` and ``lp_adopted`` in ``moves``
        and returns the (possibly adopted) utility; the caller charges the
        final re-seating (:meth:`record_switching`).

        A solve that fails (:class:`~repro.core.lp_packing.LPPackingError`)
        adopts nothing and records ``lp_failed: True``: the live arrangement
        is feasible, so the tick goes on with it.  A utility above the LP
        optimum raises :class:`LPBoundError`, which stays fatal.
        """
        if self.defrag_lp:
            moves["lp_adopted"] = False
            # The live arrangement is a feasible vertex of the rebuilt
            # defrag LP: HiGHS starts from it instead of from scratch.
            self.lp_resolver.start_from(self.arrangement)
            try:
                lp_result = self.lp_resolver.solve(
                    result.instance, seed=self.seed + 100_003 + tick
                )
            except LPPackingError:
                moves["lp_failed"] = True
            else:
                bound = lp_result.details["lp_objective"]
                check_lp_bound(utility, bound, "pre-LP")
                check_lp_bound(lp_result.utility, bound, "LP-packing")
                spend = lp_spend = 0.0
                if snapshot is not None:
                    penalty = self.switching_penalty
                    spend = penalty * self.switching_pairs(snapshot)
                    lp_spend = penalty * self.switching_pairs(
                        snapshot, lp_result.arrangement
                    )
                moves["lp_utility"] = lp_result.utility
                moves["lp_adopted"] = lp_result.utility - lp_spend > utility - spend
                if moves["lp_adopted"]:
                    self.arrangement = lp_result.arrangement
                    utility = lp_result.utility
        result.arrangement = self.arrangement
        return utility

    def _sweep_steps(
        self,
        result: DeltaResult,
        tick: int,
        moves: dict,
        snapshot: dict[int, frozenset[int]] | None,
        *,
        lp: bool,
    ) -> Generator[dict, bool | None, tuple[dict, float]]:
        """The full-scope sweep into ``moves``, then (``lp``) the LP step;
        the re-seating against ``snapshot`` is charged at the end.  Yields
        after every pass that moved something; ``True`` sent there stops
        the sweep without the LP step."""
        for counts in self.iter_defrag_passes(result):
            for key, count in counts.items():
                moves[key] += count
            moves["passes"] += 1
            if not any(counts.values()):
                break
            if (yield moves):
                lp = False
                break
        utility = self.utility()
        if lp:
            utility = self.adopt_lp(result, tick, moves, utility, snapshot)
        if snapshot is not None:
            self.record_switching(moves, snapshot)
        return moves, utility

    def defrag_steps(
        self,
        result: DeltaResult,
        tick: int,
        *,
        served_users: Iterable[int] = (),
    ) -> Generator[dict, bool | None, tuple[dict, float]]:
        """One full-scope defragmentation: the local-search sweep
        (:meth:`iter_defrag_passes`), then the LP step (:meth:`adopt_lp`).

        Yields the running move counts after every pass that moved
        something.  Sending ``True`` there stops the defrag at that pass
        boundary without the LP step (to hand the arrangement back fast);
        the re-seating already done is still charged to ``served_users``
        when a switching penalty is set.  Run to the end, the sweep makes
        exactly the moves of one ``improve(max_passes=N)`` call.  Returns
        ``(moves, utility)`` for the (possibly LP-replaced) arrangement.
        """
        return self._sweep_steps(
            result,
            tick,
            dict.fromkeys(_SWEEP_KEYS, 0),
            self._switching_snapshot(served_users),
            lp=True,
        )

    def defragment(self, result: DeltaResult, tick: int) -> tuple[dict, float]:
        """:meth:`defrag_steps` run to the end: ``(moves, utility)``."""
        return _run_to_end(self.defrag_steps(result, tick))

    def optimize_steps(
        self,
        result: DeltaResult,
        tick: int,
        *,
        served_users: Collection[int] = (),
    ) -> Generator[dict, bool | None, tuple[dict | None, dict | None, float]]:
        """This tick's repair and scheduled defragmentation, in one order.

        * **LP first** — the schedule decides before repair
          (``reads_utility`` false) and ``defrag_lp`` is on.  A defrag tick
          runs the LP step at once, warm from the carried arrangement, and
          adopts on net gain over it.  Only if it is not adopted do repair
          and the sweep run, as a defrag without a second LP solve;
          switching is then charged against the post-repair assignments.
          A tick without a defrag is the repair alone.
        * **Repair first** — otherwise: repair, then the schedule reads the
          repaired utility, then :meth:`defrag_steps`.

        Yields where the sweep does (:meth:`defrag_steps`); sending ``True``
        stops the sweep there.  Returns ``(repair_moves, defrag_moves,
        utility)``: ``repair_moves`` is None when the adopted LP made repair
        moot, ``defrag_moves`` None when no defrag ran.
        """
        lp_first = self.defrag_lp and not self.defrag.reads_utility
        if lp_first and self.should_defrag(tick, None):
            snapshot = self._switching_snapshot(served_users)
            moves = dict.fromkeys(_SWEEP_KEYS, 0)
            utility = self.adopt_lp(result, tick, moves, self.utility(), snapshot)
            if moves["lp_adopted"]:
                if snapshot is not None:
                    self.record_switching(moves, snapshot)
                return None, moves, utility
            repair_moves = self.repair(result)
            moves, utility = yield from self._sweep_steps(
                result, tick, moves, self._switching_snapshot(served_users), lp=False
            )
            if "lp_utility" in moves:
                # The solved LP's optimum (cached) bounds the swept arrangement.
                bound = self.lp_resolver.lp_optimum(result.instance)
                check_lp_bound(utility, bound, "swept")
            return repair_moves, moves, utility
        repair_moves = self.repair(result)
        utility = self.utility()
        # An LP-first schedule has already said no to this tick.
        if lp_first or not self.should_defrag(tick, utility):
            return repair_moves, None, utility
        moves, utility = yield from self.defrag_steps(
            result, tick, served_users=served_users
        )
        return repair_moves, moves, utility

    def optimize(
        self, result: DeltaResult, tick: int
    ) -> tuple[dict | None, dict | None, float]:
        """:meth:`optimize_steps` run to the end."""
        return _run_to_end(self.optimize_steps(result, tick))

    # ------------------------------------------------------------------
    # Stage 5: oracle + audits
    # ------------------------------------------------------------------
    def should_run_oracle(self, tick: int, last_tick: int) -> bool:
        return bool(self.oracle_every) and (
            (tick + 1) % self.oracle_every == 0 or tick == last_tick
        )

    def oracle_solve(self, tick: int) -> float:
        """LP* of the current instance (cached when this tick's defrag LP
        solved it), checked against the utility; updates the reference that
        retention, repair debt and ``RetentionDefrag`` read."""
        self.lp_resolver.start_from(self.arrangement)
        bound = self.lp_resolver.lp_optimum(self.instance)
        check_lp_bound(self.utility(), bound, f"tick {tick}")
        self.oracle_reference = bound
        return bound

    def repair_debt(self, utility: float) -> float | None:
        """The gap to the last LP* (None before the first oracle
        measurement)."""
        if self.oracle_reference is None:
            return None
        return max(0.0, self.oracle_reference - utility)

    def audit(self, result: DeltaResult) -> tuple[bool, list[str] | None]:
        """End-of-tick audits: full Definition 4 feasibility, and (when
        ``check_parity``) patched-vs-fresh index parity."""
        parity: list[str] | None = None
        if self.check_parity:
            parity = index_parity_mismatches(
                result.instance.index,
                fresh_index_like(result.instance.index, result.instance),
            )
        return self.arrangement.is_feasible(), parity

    def utility(self) -> float:
        return self.arrangement.utility()


def _run_to_end(steps: Generator):
    """Run a steps generator without stopping it; return its value."""
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return done.value
