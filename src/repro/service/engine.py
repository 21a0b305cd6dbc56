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
  answered per request between stage boundaries, and defragmentation runs
  through :meth:`TickEngine.defrag_steps` so the loop can stop it at a pass
  boundary (every pass is feasibility-preserving, so stopping can never
  strand an infeasible arrangement).

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

from collections.abc import Generator, Iterable, Iterator

import numpy as np

# No stage calls ``improve`` (defragmentation steps through ``iter_passes``);
# the name stays because ``perfbench/spans.py`` wraps this module global for
# its traced run and fails when it is missing.
from repro.core.local_search import improve, iter_passes  # noqa: F401
from repro.core.lp_packing import LPPacking
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
            arrangement on net gain.  The benchmark LP is rebuilt per defrag
            and solved by :func:`~repro.solver.api.solve_lp` (HiGHS), its
            simplex started from the arrangement the defrag sweep left
            (:meth:`~repro.core.lp_packing.LPPacking.start_from`).
        defrag_lp_incremental: maintain the defrag LP incrementally —
            :meth:`apply_churn` feeds every delta into the resolver's
            delta-patched program, so each defrag solve patches the
            previous program instead of rebuilding it; HiGHS solves it
            either way, started from the sweep's arrangement.  The LP
            optimum is identical either way; the sampled arrangement may
            differ (the patched program orders its columns differently, so
            HiGHS can land on another optimal vertex).
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
        defrag_lp_incremental: bool = False,
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
        # One resolver across the horizon for the defrag LP and LP*; in
        # incremental mode it carries the patched program between defrags.
        self.defrag_lp = defrag_lp
        self.lp_resolver = LPPacking(
            alpha=1.0, incremental=defrag_lp and defrag_lp_incremental
        )
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
        # Keep the resolver's delta-patched LP in lockstep with the live
        # instance (a no-op outside incremental mode / before the first
        # defrag solve anchors the chain).
        self.lp_resolver.observe_delta(delta, result.instance)
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
    def should_defrag(self, tick: int, utility: float) -> bool:
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

        With a switching ``snapshot``, each candidate's utility is charged
        ``switching_penalty`` per re-seated pair before comparison; the
        final arrangement's spend is recorded in ``moves`` and accumulated
        on the engine.  Mutates ``moves`` in place and returns the (possibly
        adopted) utility.
        """
        if self.defrag_lp:
            penalty = self.switching_penalty
            spend = (
                penalty * self.switching_pairs(snapshot)
                if snapshot is not None
                else 0.0
            )
            # The post-sweep arrangement is a feasible vertex of the
            # defrag LP, rebuilt or patched: HiGHS starts from it instead of
            # from scratch.
            self.lp_resolver.start_from(self.arrangement)
            lp_result = self.lp_resolver.solve(
                result.instance, seed=self.seed + 100_003 + tick
            )
            lp_spend = (
                penalty * self.switching_pairs(snapshot, lp_result.arrangement)
                if snapshot is not None
                else 0.0
            )
            bound = lp_result.details["lp_objective"]
            check_lp_bound(utility, bound, "swept")
            check_lp_bound(lp_result.utility, bound, "LP-packing")
            moves["lp_utility"] = lp_result.utility
            moves["lp_adopted"] = lp_result.utility - lp_spend > utility - spend
            if moves["lp_adopted"]:
                self.arrangement = lp_result.arrangement
                utility = lp_result.utility
        if snapshot is not None:
            self.record_switching(moves, snapshot)
        result.arrangement = self.arrangement
        return utility

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
        snapshot = (
            self.assignment_snapshot(served_users)
            if self.switching_penalty > 0.0
            else None
        )
        moves = {"adds": 0, "refills": 0, "upgrades": 0, "evictions": 0, "passes": 0}
        for counts in self.iter_defrag_passes(result):
            for key, count in counts.items():
                moves[key] += count
            moves["passes"] += 1
            if not any(counts.values()):
                break
            if (yield moves):
                if snapshot is not None:
                    self.record_switching(moves, snapshot)
                return moves, self.utility()
        return moves, self.adopt_lp(result, tick, moves, self.utility(), snapshot)

    def defragment(self, result: DeltaResult, tick: int) -> tuple[dict, float]:
        """:meth:`defrag_steps` run to the end: ``(moves, utility)``."""
        steps = self.defrag_steps(result, tick)
        while True:
            try:
                next(steps)
            except StopIteration as done:
                return done.value

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
