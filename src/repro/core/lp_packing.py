"""LP-packing (Algorithm 1) — the paper's approximation algorithm.

The algorithm:

1. solve the benchmark LP (1)-(4) for ``x*``;
2. for each user ``u`` independently, sample one admissible event set
   ``S_u ∈ A_u`` with probability ``α·x*_{u,S}`` (no set with the residual
   probability);
3. repair event-capacity violations: scan the sampled pairs and drop any
   assignment to an event that is already full;
4. return the surviving pairs as the arrangement.

Theorem 2: with ``α = 1/2`` the expected utility is at least
``α(1-α) = 1/4`` of the LP optimum, hence of OPT.  The paper's experiments
set ``α = 1`` (§IV "Baselines"), which is this implementation's default;
pass ``alpha=0.5`` to reproduce the theoretical setting.

Repair-order strategies (an ablation in this repository; the paper fixes an
unspecified user scan order):

* ``"user"`` — instance user order, events in sorted order (deterministic,
  the faithful reading of Algorithm 1 lines 4-7);
* ``"random"`` — uniformly shuffled pair order;
* ``"weight"`` — pairs by decreasing ``w(u, v)`` (greedy repair).

Every strategy yields a feasible arrangement; they differ only in *which*
pair survives when an event is oversubscribed.
"""

from __future__ import annotations

import itertools
import weakref

import numpy as np

from repro.core.admissible import DEFAULT_MAX_SETS_PER_USER
from repro.core.base import ArrangementAlgorithm
from repro.core.lp_formulation import BenchmarkLP, build_benchmark_lp
from repro.core.lp_incremental import IncrementalBenchmarkLP
from repro.model.arrangement import Arrangement
from repro.model.delta import Delta
from repro.model.instance import IGEPAInstance
from repro.solver.api import solve_lp
from repro.solver.result import LPSolution

REPAIR_ORDERS = ("user", "random", "weight")


class LPPackingError(RuntimeError):
    """The benchmark LP could not be solved to optimality."""

    @classmethod
    def from_solution(cls, solution: LPSolution) -> "LPPackingError":
        """The error for a non-optimal solve, its diagnostics in the message."""
        message = f"benchmark LP solve failed with status {solution.status.value}"
        if solution.diagnostics:
            details = ", ".join(f"{k}={v!r}" for k, v in solution.diagnostics.items())
            message = f"{message} ({details})"
        return cls(message)


def _running_sums(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """``np.cumsum`` of each segment ``values[start : start + length]``.

    Segments of one length are stacked into the rows of one 2-D array and
    accumulated along the rows, left to right as the 1-D ``np.cumsum`` of
    each segment alone — one NumPy call per distinct length.
    """
    cumulative = np.empty_like(values)
    for length in np.unique(lengths).tolist():
        cells = starts[lengths == length][:, None] + np.arange(length)
        cumulative[cells] = np.cumsum(values[cells], axis=1)
    return cumulative


class LPPacking(ArrangementAlgorithm):
    """The LP-packing approximation algorithm (Algorithm 1).

    Args:
        alpha: sampling scale ``α ∈ (0, 1]``.  ``1.0`` is the paper's
            empirical setting; ``0.5`` gives the proven 1/4 guarantee.
        seed: default RNG seed (overridable per ``solve`` call).
        repair_order: one of :data:`REPAIR_ORDERS`.
        max_sets_per_user: admissible-set explosion guard.
        cache_lp: reuse the solved benchmark LP across ``solve`` calls on the
            *same instance object*.  The LP (lines 1-2 of Algorithm 1) is
            deterministic per instance; only sampling and repair (lines 3-7)
            depend on the seed, so repeated-run experiments — the paper
            averages 50 repetitions — only pay the solve once.
        incremental: maintain one delta-patched benchmark LP across churn
            (:class:`~repro.core.lp_incremental.IncrementalBenchmarkLP`)
            instead of rebuilding per instance.  Feed each churn batch in
            via :meth:`observe_delta`; a subsequent ``solve`` on the
            successor instance then solves the *patched* program.  Solving
            an instance the chain was not advanced onto rebases the chain
            with a fresh build.

    Either way the benchmark LP is solved by
    :func:`~repro.solver.api.solve_lp`'s default backend (HiGHS, the role
    Gurobi plays in the paper).

    Raises:
        ValueError: on out-of-range ``alpha`` or unknown ``repair_order``.
    """

    name = "lp-packing"

    def __init__(
        self,
        alpha: float = 1.0,
        seed: int | None = None,
        repair_order: str = "user",
        max_sets_per_user: int = DEFAULT_MAX_SETS_PER_USER,
        cache_lp: bool = True,
        incremental: bool = False,
    ):
        super().__init__(seed=seed)
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if repair_order not in REPAIR_ORDERS:
            raise ValueError(
                f"unknown repair_order {repair_order!r}; expected one of {REPAIR_ORDERS}"
            )
        self.alpha = alpha
        self.repair_order = repair_order
        self.max_sets_per_user = max_sets_per_user
        self.cache_lp = cache_lp
        self.incremental = incremental
        self._incremental_lp: IncrementalBenchmarkLP | None = None
        # Keyed by the live instance object (identity semantics).  A weak
        # mapping — not id() — because CPython reuses the ids of collected
        # objects, which would silently serve one instance another
        # instance's LP solution across repeated-run experiments.
        self._lp_cache: weakref.WeakKeyDictionary[
            IGEPAInstance, tuple[BenchmarkLP, np.ndarray, float, int]
        ] = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # Algorithm 1, lines 1-3: LP + sampling
    # ------------------------------------------------------------------
    def sample_sets(
        self,
        benchmark: BenchmarkLP,
        x_star: np.ndarray,
        rng: np.random.Generator,
    ) -> dict[int, tuple[int, ...]]:
        """Sample ``S_u`` per user with probability ``α·x*_{u,S}``.

        Returns only users that drew a set.  Sampling is independent across
        users, exactly as the analysis of Theorem 2 requires.  All users are
        drawn at once: one ``rng.random`` call makes the per-user draws (the
        same stream as one scalar draw per user with sets, in ``by_user``
        order), and every sum below is accumulated in the order the scalar
        ``np.sum``/``np.cumsum`` over the user's own probabilities uses, so
        the result is bit for bit that of a per-user loop.
        """
        users = [user_id for user_id, indices in benchmark.by_user.items() if indices]
        if not users:
            return {}
        groups = [benchmark.by_user[user_id] for user_id in users]
        lengths = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
        ends = np.cumsum(lengths)
        starts = ends - lengths
        flat = np.fromiter(
            itertools.chain.from_iterable(groups), dtype=np.int64, count=int(ends[-1])
        )
        probabilities = self.alpha * np.clip(x_star[flat], 0.0, 1.0)
        cumulative = _running_sums(probabilities, starts, lengths)
        totals = cumulative[ends - 1]
        # np.sum adds pairwise from 8 elements on, so its total can differ
        # from the running sum in the last bits — unless at most two entries
        # are nonzero, when every order adds the same two numbers.  Those
        # few users take np.sum over a fresh array, as the per-user loop did.
        nonzero = np.add.reduceat((probabilities != 0.0).astype(np.int64), starts)
        for k in np.flatnonzero((lengths >= 8) & (nonzero >= 3)).tolist():
            totals[k] = float(probabilities[starts[k] : ends[k]].copy().sum())
        over = totals > 1.0
        if over.any():
            # Constraint (2) bounds the exact sum by 1; anything above is
            # solver noise, so rescale rather than crash (x / 1.0 is x).
            probabilities /= np.repeat(np.where(over, totals, 1.0), lengths)
            cumulative = _running_sums(probabilities, starts, lengths)
        draws = rng.random(len(users))
        # First offset whose running sum strictly exceeds the draw, i.e. the
        # count of running sums at or below it (they never decrease).
        offsets = np.add.reduceat(
            (cumulative <= np.repeat(draws, lengths)).astype(np.int64), starts
        )
        drew = np.flatnonzero(offsets < lengths)
        chosen = flat[starts[drew] + offsets[drew]].tolist()
        assignments = benchmark.assignments
        return {
            users[k]: assignments[index][1]
            for k, index in zip(drew.tolist(), chosen)
        }

    # ------------------------------------------------------------------
    # Algorithm 1, lines 4-7: capacity repair
    # ------------------------------------------------------------------
    def repair(
        self,
        instance: IGEPAInstance,
        sampled: dict[int, tuple[int, ...]],
        rng: np.random.Generator,
    ) -> list[tuple[int, int]]:
        """Drop assignments to events whose capacity the sample exceeds.

        The sampled sets already satisfy the bid, user-capacity and conflict
        constraints (they are admissible), so only event capacities (c_v) can
        be violated.  Pairs are scanned in the configured order and kept
        while their event has room — every scan order yields a feasible
        arrangement.
        """
        index = instance.index
        pairs: list[tuple[int, int]] = []
        for user_id, events in sampled.items():
            pairs.extend((event_id, user_id) for event_id in sorted(events))

        if self.repair_order == "random":
            rng.shuffle(pairs)
        elif pairs:
            # Argsort over the index arrays replaces the per-pair key tuples.
            event_ids = np.fromiter((p[0] for p in pairs), dtype=np.int64)
            upos = np.fromiter(
                (index.user_pos[p[1]] for p in pairs), dtype=np.int64
            )
            if self.repair_order == "user":
                order = np.lexsort((event_ids, upos))
            else:  # "weight": decreasing w(u, v), ties by (user position, event)
                vpos = np.fromiter(
                    (index.event_pos[e] for e in event_ids), dtype=np.int64
                )
                # Sampled sets are admissible, hence bid pairs.
                weights = index.pair_weights(upos, vpos)
                order = np.lexsort((event_ids, upos, -weights))
            pairs = [pairs[k] for k in order.tolist()]

        remaining = index.event_capacity.tolist()
        event_pos = index.event_pos
        survivors: list[tuple[int, int]] = []
        for event_id, user_id in pairs:
            position = event_pos[event_id]
            if remaining[position] > 0:
                remaining[position] -= 1
                survivors.append((event_id, user_id))
        return survivors

    # ------------------------------------------------------------------
    # Incremental churn feed
    # ------------------------------------------------------------------
    def observe_delta(self, delta: Delta, successor: IGEPAInstance) -> None:
        """Advance the incremental LP chain across one churn batch.

        Call right after :func:`repro.model.delta.apply_delta` with the
        delta and the instance it produced — ``successor`` must descend
        from the chain's current instance.  The next ``solve`` on
        ``successor`` then solves the patched program instead of a
        rebuild.  A no-op when ``incremental`` is off
        or no LP has been built yet (the first solve anchors the chain).
        """
        if not self.incremental:
            return
        incremental = self._incremental_lp
        if incremental is None:
            return
        # The cached tuple for the predecessor aliases the very structures
        # the patch mutates in place — evict before patching.
        self._lp_cache.pop(incremental.instance, None)
        incremental.observe_delta(delta, successor)

    # ------------------------------------------------------------------
    # Full solve
    # ------------------------------------------------------------------
    def _solved_benchmark(
        self, instance: IGEPAInstance
    ) -> tuple[BenchmarkLP, np.ndarray, float, int, str]:
        """Build (or patch) and solve the benchmark LP, consulting the
        per-instance cache."""
        if self.cache_lp and instance in self._lp_cache:
            benchmark, x_star, objective, iterations = self._lp_cache[instance]
            return benchmark, x_star, objective, iterations, "cache"
        if self.incremental:
            incremental = self._incremental_lp
            if incremental is None or incremental.instance is not instance:
                # First solve, or the chain was never advanced onto this
                # instance via observe_delta: rebase with a fresh build.
                incremental = IncrementalBenchmarkLP(
                    instance, max_sets_per_user=self.max_sets_per_user
                )
                self._incremental_lp = incremental
            benchmark = incremental.benchmark
            solution = incremental.solve()
        else:
            benchmark = build_benchmark_lp(
                instance, max_sets_per_user=self.max_sets_per_user
            )
            solution = solve_lp(benchmark.lp)
        if not solution.is_optimal:
            raise LPPackingError.from_solution(solution)
        x_star = solution.x
        objective = solution.objective_value
        iterations = solution.iterations
        if self.cache_lp:
            self._lp_cache[instance] = (benchmark, x_star, objective, iterations)
        return benchmark, x_star, objective, iterations, solution.backend

    def _solve(
        self, instance: IGEPAInstance, rng: np.random.Generator
    ) -> tuple[Arrangement, dict]:
        benchmark, x_star, lp_objective, iterations, backend = self._solved_benchmark(
            instance
        )
        sampled = self.sample_sets(benchmark, x_star, rng)
        sampled_pairs = sum(len(events) for events in sampled.values())
        survivors = self.repair(instance, sampled, rng)
        arrangement = Arrangement.from_pairs(instance, survivors, check=True)
        details = {
            "lp_objective": lp_objective,
            "num_variables": benchmark.lp.num_variables,
            "num_admissible_sets": sum(
                len(sets) for sets in benchmark.admissible.values()
            ),
            "num_sampled_pairs": sampled_pairs,
            "num_surviving_pairs": len(survivors),
            "lp_iterations": iterations,
            "lp_backend": backend,
            "alpha": self.alpha,
            "repair_order": self.repair_order,
        }
        return arrangement, details
