"""LP-packing (Algorithm 1) — the paper's approximation algorithm.

The algorithm:

1. solve the benchmark LP (1)-(4) for ``x*``;
2. for each user ``u`` independently, sample one admissible event set
   ``S_u ∈ A_u`` with probability ``α·x*_{u,S}`` (no set with the residual
   probability);
3. repair event-capacity violations: scan the sampled pairs and drop any
   assignment to an event that is already full;
4. return the surviving pairs as the arrangement.

The rebuild path runs on arrays end to end: the LP is built as an
:class:`~repro.solver.problem.ArrayProgram` and handed to HiGHS as such,
sampling reads each user's column range, the repair ranks pairs per event,
and the arrangement is filled from the surviving positions and then audited
against Definition 4 in one vectorized pass.  Every solve rebuilds the LP
from its instance; :meth:`LPPacking.start_from` starts the next solve's
simplex from a feasible arrangement of the same instance (the arrangement
the defrag step's LP would replace: the carried one after arrivals on an
LP-first defrag tick, the swept one otherwise) instead of cold, so a
rebuild across churn costs a warm solve.

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

import weakref

import numpy as np

from repro.core.admissible import DEFAULT_MAX_SETS_PER_USER
from repro.core.base import ArrangementAlgorithm
from repro.core.lp_formulation import BenchmarkLP, build_benchmark_lp
from repro.model.arrangement import Arrangement
from repro.model.delta import Delta
from repro.model.errors import ArrangementError
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

    The benchmark LP is built as arrays per instance
    (:func:`~repro.core.lp_formulation.build_benchmark_lp`) and solved by
    :func:`~repro.solver.api.solve_lp`'s default backend (HiGHS, the role
    Gurobi plays in the paper), warm when :meth:`start_from` gave a start.

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
        self._start_from: Arrangement | None = None
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
    ) -> np.ndarray:
        """Sample ``S_u`` per user with probability ``α·x*_{u,S}``.

        Returns the column of each drawn set, in user position order; users
        that drew no set have none.  Sampling is independent across users,
        exactly as the analysis of Theorem 2 requires.  A user's sets are
        the user's columns in ascending order.  All users are drawn at
        once: one ``rng.random`` call makes the per-user draws (the same
        stream as one scalar draw per user with sets, in user order), and
        every sum below is accumulated in the order the scalar
        ``np.sum``/``np.cumsum`` over the user's own probabilities uses, so
        the result is bit for bit that of a per-user loop.
        """
        set_upos = benchmark.set_upos
        if not set_upos.size:
            return np.empty(0, dtype=np.int64)
        # Columns user by user, each user's in ascending order.
        flat = np.argsort(set_upos, kind="stable")
        lengths = np.bincount(set_upos)
        lengths = lengths[lengths > 0]
        ends = np.cumsum(lengths)
        starts = ends - lengths
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
        draws = rng.random(lengths.size)
        # First offset whose running sum strictly exceeds the draw, i.e. the
        # count of running sums at or below it (they never decrease).
        offsets = np.add.reduceat(
            (cumulative <= np.repeat(draws, lengths)).astype(np.int64), starts
        )
        drew = np.flatnonzero(offsets < lengths)
        return flat[starts[drew] + offsets[drew]]

    # ------------------------------------------------------------------
    # Algorithm 1, lines 4-7: capacity repair
    # ------------------------------------------------------------------
    def repair(
        self,
        instance: IGEPAInstance,
        benchmark: BenchmarkLP,
        chosen: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Drop assignments to events whose capacity the sample exceeds.

        The sampled sets (``chosen`` columns of ``benchmark``) already
        satisfy the bid, user-capacity and conflict constraints (they are
        admissible), so only event capacities (c_v) can be violated.  Pairs
        are scanned in the configured order and kept while their event has
        room: a pair survives iff its rank among its event's pairs in scan
        order is below the event's capacity.  Every scan order yields a
        feasible arrangement.

        Returns:
            The surviving pairs as ``(user positions, event positions)``,
            in scan order.
        """
        index = instance.index
        upos, vpos = benchmark.column_pairs(chosen)
        if self.repair_order == "random":
            # Shuffling the pair indices swaps as shuffling the pairs would:
            # the same permutation from the same stream.
            order = np.arange(upos.size)
            rng.shuffle(order)
        else:
            event_ids = index.event_ids[vpos]
            if self.repair_order == "user":
                order = np.lexsort((event_ids, upos))
            else:  # "weight": decreasing w(u, v), ties by (user position, event)
                weights = index.pair_weights(upos, vpos)
                order = np.lexsort((event_ids, upos, -weights))
        upos, vpos = upos[order], vpos[order]
        by_event = np.argsort(vpos, kind="stable")
        grouped = vpos[by_event]
        rank = np.empty(vpos.size, dtype=np.int64)
        rank[by_event] = np.arange(vpos.size) - np.searchsorted(grouped, grouped)
        keep = rank < index.event_capacity[vpos]
        return upos[keep], vpos[keep]

    # ------------------------------------------------------------------
    # Churn feed (retired)
    # ------------------------------------------------------------------
    def observe_delta(self, delta: Delta, successor: IGEPAInstance) -> None:
        """A no-op: every solve rebuilds the LP from its own instance.

        Kept only because the repository benchmark's traced run wraps it;
        ROADMAP item 1's benchmark-only change deletes it.
        """

    # ------------------------------------------------------------------
    # Warm start
    # ------------------------------------------------------------------
    def start_from(self, arrangement: Arrangement) -> None:
        """Start the next solve's simplex from ``arrangement``.

        The next ``solve`` of ``arrangement.instance`` hands HiGHS the basis
        of the vertex encoding ``arrangement``
        (:meth:`~repro.core.lp_formulation.BenchmarkLP.start_basis`) in
        place of a cold start: a feasible arrangement is a primal-feasible
        basis of the same program, so only the pivots from it to the
        optimum remain.  The hint is used by the next solve only and then
        dropped; a solve of another instance and a cached one ignore it.
        """
        self._start_from = arrangement

    # ------------------------------------------------------------------
    # Full solve
    # ------------------------------------------------------------------
    def _solved_benchmark(
        self, instance: IGEPAInstance
    ) -> tuple[BenchmarkLP, np.ndarray, float, int, str, str]:
        """Build and solve the benchmark LP, consulting the per-instance
        cache."""
        hint, self._start_from = self._start_from, None
        if self.cache_lp and instance in self._lp_cache:
            benchmark, x_star, objective, iterations = self._lp_cache[instance]
            return benchmark, x_star, objective, iterations, "cache", "cold"
        benchmark = build_benchmark_lp(
            instance, max_sets_per_user=self.max_sets_per_user
        )
        start = (
            benchmark.start_basis(hint)
            if hint is not None and hint.instance is instance
            else None
        )
        solution = solve_lp(benchmark.program, start=start)
        if not solution.is_optimal:
            raise LPPackingError.from_solution(solution)
        x_star = solution.x
        objective = solution.objective_value
        iterations = solution.iterations
        if self.cache_lp:
            self._lp_cache[instance] = (benchmark, x_star, objective, iterations)
        return (
            benchmark, x_star, objective, iterations, solution.backend, solution.start
        )

    def lp_optimum(self, instance: IGEPAInstance) -> float:
        """The benchmark-LP optimum LP* of ``instance``, cached, without
        sampling."""
        return self._solved_benchmark(instance)[2]

    def _solve(
        self, instance: IGEPAInstance, rng: np.random.Generator
    ) -> tuple[Arrangement, dict]:
        benchmark, x_star, lp_objective, iterations, backend, start = (
            self._solved_benchmark(instance)
        )
        chosen = self.sample_sets(benchmark, x_star, rng)
        sampled_pairs = int(
            (benchmark.set_indptr[chosen + 1] - benchmark.set_indptr[chosen]).sum()
        )
        upos, vpos = self.repair(instance, benchmark, chosen, rng)
        arrangement = Arrangement.from_positions(instance, upos, vpos)
        if not arrangement.is_feasible():
            raise ArrangementError(
                "LP-packing repair left a Definition-4 violation: "
                + "; ".join(arrangement.violations())
            )
        details = {
            "lp_objective": lp_objective,
            "num_variables": benchmark.num_columns,
            "num_admissible_sets": benchmark.num_columns,
            "num_sampled_pairs": sampled_pairs,
            "num_surviving_pairs": int(upos.size),
            "lp_iterations": iterations,
            "lp_backend": backend,
            "lp_start": start,
            "alpha": self.alpha,
            "repair_order": self.repair_order,
        }
        return arrangement, details
