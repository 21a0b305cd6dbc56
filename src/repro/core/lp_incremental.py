"""Churn deltas -> LP patches: the incrementally maintained benchmark LP.

:class:`IncrementalBenchmarkLP` keeps one :class:`~repro.core.lp_formulation.
BenchmarkLP` alive across a churn stream.  Each :class:`~repro.model.delta.
Delta` is translated into an :class:`~repro.solver.patch.LPPatch` — columns
for the *dirty* users' (user, admissible-set) pairs are removed and
re-enumerated, event rows follow their column counts, capacity shocks become
RHS edits, re-weightings become objective edits — applied in place with
:func:`~repro.solver.patch.apply_lp_patch`, and the patched program is solved
by HiGHS through :func:`~repro.solver.api.solve_lp`, the solver every other
LP of the library goes to.

Dirty users — whose admissible-set collection may have changed, so their
columns are re-enumerated against the successor:

* added users, and users adding/withdrawing bids;
* users whose capacity changed (the set size bound moved);
* bidders of closing events (their bid lists shrink implicitly);
* for every edited conflict pair, the users bidding *both* events (only
  sets containing both appear or disappear).

Re-weighted users — sets unchanged, objective coefficients rewritten:

* users named by interest drift entries;
* when the user set or the degree overrides change and ``beta < 1``, every
  surviving user whose ``D(G, u)`` moved (the normalization is
  ``deg / (|U| - 1)``, so user churn re-weights everyone with neighbours).

Row lifecycle mirrors :func:`~repro.core.lp_formulation.build_benchmark_lp`
exactly: a ``user[u]`` row exists while the user has columns, an
``event[v]`` row while any column contains the event — so a patched program
is structurally identical to a from-scratch build over the successor (the
property suite asserts optima match to 1e-6).

The LP is built with ``implied_upper=True`` (constraint (2) implies
``x <= 1``), so no column carries an upper bound the patches would have to
maintain; the from-scratch builds the chain is compared against use the
same setting.  Since the rebuild path builds the LP as arrays, rebuilding
and solving with HiGHS is the faster of the two:
:func:`~repro.experiments.replay.lp_resolve_comparison` reads the chain at
about 0.5-0.7x the rebuild's speed on ``bench_churn``'s traces.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.admissible import (
    DEFAULT_MAX_SETS_PER_USER,
    enumerate_admissible_batch,
    split_sets,
)
from repro.core.lp_formulation import (
    BenchmarkLP,
    build_benchmark_lp,
    set_weights,
    sum_in_order,
)
from repro.model.delta import Delta
from repro.model.index import BaseInstanceIndex
from repro.model.instance import IGEPAInstance
from repro.solver.api import solve_lp
from repro.solver.patch import (
    LPPatch,
    PatchConstraint,
    PatchVariable,
    apply_lp_patch,
)
from repro.solver.problem import Sense
from repro.solver.result import LPSolution


def _user_row(user_id: int) -> str:
    return f"user[{user_id}]"


def _event_row(event_id: int) -> str:
    return f"event[{event_id}]"


def _column_name(user_id: int, events: tuple[int, ...]) -> str:
    return f"x[{user_id},{','.join(map(str, events))}]"


def _mirrored(
    benchmark: BenchmarkLP,
    index: BaseInstanceIndex,
    *,
    by_user: dict[int, list[int]],
    admissible: dict[int, list[tuple[int, ...]]],
) -> BenchmarkLP:
    """The column table of the patched ``benchmark.lp``, read off its
    mirrored ``assignments`` against the successor's ``index``."""
    assignments = benchmark.assignments
    sizes = np.fromiter(
        (len(events) for _u, events in assignments),
        dtype=np.int64,
        count=len(assignments),
    )
    set_indptr = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=set_indptr[1:])
    return BenchmarkLP(
        name=benchmark.name,
        user_ids=index.user_ids,
        event_ids=index.event_ids,
        set_upos=np.fromiter(
            (index.user_pos[user_id] for user_id, _s in assignments),
            dtype=np.int64,
            count=sizes.size,
        ),
        set_indptr=set_indptr,
        set_vpos=np.fromiter(
            map(
                index.event_pos.__getitem__,
                itertools.chain.from_iterable(events for _u, events in assignments),
            ),
            dtype=np.int64,
            count=int(set_indptr[-1]),
        ),
        lp=benchmark.lp,
        assignments=assignments,
        by_user=by_user,
        admissible=admissible,
    )


class IncrementalBenchmarkLP:
    """One benchmark LP, delta-patched across churn and solved by HiGHS.

    Args:
        instance: the initial instance; the LP is built from scratch once.
        max_sets_per_user: admissible-set explosion guard (must match the
            from-scratch builds it is compared against).

    Attributes:
        benchmark: the live :class:`BenchmarkLP` — its ``lp`` is patched in
            place, its ``assignments`` / ``by_user`` / ``admissible`` side
            tables are mirrored after every patch, and its column arrays
            (what sampling and repair read) are re-read from the mirrored
            ``assignments`` against the successor's index.
        instance: the instance the program currently describes.
    """

    def __init__(
        self,
        instance: IGEPAInstance,
        *,
        max_sets_per_user: int = DEFAULT_MAX_SETS_PER_USER,
    ):
        self.instance = instance
        self.max_sets_per_user = max_sets_per_user
        # The chain owns the object views from here on and patches them in
        # place, so they are built once, now, from the rebase's arrays.
        built = build_benchmark_lp(
            instance,
            max_sets_per_user=max_sets_per_user,
            implied_upper=True,
        ).materialize()
        self.benchmark: BenchmarkLP = built
        self.deltas_observed = 0
        # Live column count per event id — an event row exists iff > 0.
        counts = np.bincount(built.set_vpos, minlength=built.event_ids.size)
        live = np.flatnonzero(counts)
        self._event_columns: dict[int, int] = dict(
            zip(built.event_ids[live].tolist(), counts[live].tolist())
        )

    # ------------------------------------------------------------------
    # Delta -> patch translation
    # ------------------------------------------------------------------
    def _dirty_users(self, delta: Delta) -> tuple[set[int], set[int]]:
        """(dirty survivors to re-enumerate, removed users)."""
        predecessor = self.instance
        removed = set(delta.remove_users)
        dirty: set[int] = set()
        dirty.update(user.user_id for user in delta.add_users)
        dirty.update(user_id for user_id, _e in delta.add_bids)
        dirty.update(user_id for user_id, _e in delta.remove_bids)
        dirty.update(user_id for user_id, _c in delta.set_user_capacity)
        for event_id in delta.remove_events:
            dirty.update(predecessor.bidders(event_id))
        event_pos = predecessor.index.event_pos
        for first, second in (*delta.add_conflicts, *delta.remove_conflicts):
            # Only users bidding both endpoints gain/lose admissible sets.
            # Pairs touching events added in this delta are covered: the
            # new event's bidders arrive via add_users/add_bids, which
            # already mark them dirty.
            if first in event_pos and second in event_pos:
                dirty.update(
                    set(predecessor.bidders(first))
                    & set(predecessor.bidders(second))
                )
        return dirty - removed, removed

    def _reweight_users(
        self, delta: Delta, successor: IGEPAInstance, exclude: set[int]
    ) -> set[int]:
        """Surviving users whose weights (not sets) changed."""
        reweight = {user_id for _e, user_id, _v in delta.interest}
        if successor.beta < 1.0 and (
            delta.add_users or delta.remove_users or delta.degrees
        ):
            # D(G, u) = deg / (|U| - 1): user churn or overrides can move
            # every survivor's degree term; diff the two degree vectors.
            old_index = self.instance.index
            new_index = successor.index
            old_pos = old_index.user_pos
            old_degrees = old_index.degrees
            new_degrees = new_index.degrees
            for new_upos, user_id in enumerate(new_index.user_ids.tolist()):
                opos = old_pos.get(user_id)
                if opos is not None and (
                    old_degrees[opos] != new_degrees[new_upos]
                ):
                    reweight.add(user_id)
        reweight -= exclude
        # Only users that actually hold columns carry objective entries.
        return {
            user_id
            for user_id in reweight
            if self.benchmark.by_user.get(user_id)
        }

    def build_patch(
        self, delta: Delta, successor: IGEPAInstance
    ) -> tuple[
        LPPatch,
        list[tuple[int, tuple[int, ...]]],
        dict[int, list[tuple[int, ...]]],
        set[int],
        dict[int, int],
    ]:
        """Translate ``delta`` into the LP patch (plus mirroring payloads).

        Returns ``(patch, added_records, new_sets, removed_users,
        event_count_delta)``; :meth:`observe_delta` is the high-level entry
        that also applies the patch and mirrors the side tables.
        """
        benchmark = self.benchmark
        lp = benchmark.lp
        dirty, removed_users = self._dirty_users(delta)
        reweight = self._reweight_users(delta, successor, dirty | removed_users)

        remove_variables: list[str] = []
        remove_constraints: list[str] = []
        add_constraints: list[PatchConstraint] = []
        add_variables: list[PatchVariable] = []
        set_rhs: list[tuple[str, float]] = []
        set_objective: list[tuple[str, float]] = []
        event_count_delta: dict[int, int] = {}

        # Every dirty or leaving user sheds all their columns (dirty ones
        # get fresh columns below); their (2)-row goes with the columns and
        # is re-added under the same name when new sets exist.
        for user_id in sorted(dirty | removed_users):
            indices = benchmark.by_user.get(user_id)
            if not indices:
                continue
            for idx in indices:
                _uid, events = benchmark.assignments[idx]
                remove_variables.append(lp.variables[idx].name)
                for event_id in dict.fromkeys(events):
                    event_count_delta[event_id] = (
                        event_count_delta.get(event_id, 0) - 1
                    )
            remove_constraints.append(_user_row(user_id))

        new_sets: dict[int, list[tuple[int, ...]]] = {}
        added_records: list[tuple[int, tuple[int, ...]]] = []
        new_index = successor.index
        # Every dirty user's A_u in one batch, users in id order.
        dirty_ids = sorted(dirty)
        batch = enumerate_admissible_batch(
            new_index,
            np.fromiter(
                map(new_index.user_pos.__getitem__, dirty_ids),
                dtype=np.int64,
                count=len(dirty_ids),
            ),
            self.max_sets_per_user,
        )
        weights = set_weights(new_index.bid_weights[batch.bids], batch.indptr).tolist()
        ends = itertools.accumulate(batch.counts.tolist())
        for user_id, sets, end in zip(dirty_ids, split_sets(batch, new_index), ends):
            new_sets[user_id] = sets
            if not sets:
                continue
            add_constraints.append(
                PatchConstraint(_user_row(user_id), Sense.LE, 1.0)
            )
            for events, weight in zip(sets, weights[end - len(sets) : end]):
                coefficients = [(_user_row(user_id), 1.0)]
                for event_id in dict.fromkeys(events):
                    coefficients.append((_event_row(event_id), 1.0))
                    event_count_delta[event_id] = (
                        event_count_delta.get(event_id, 0) + 1
                    )
                add_variables.append(
                    PatchVariable(
                        name=_column_name(user_id, events),
                        objective=weight,
                        coefficients=tuple(coefficients),
                    )
                )
                added_records.append((user_id, events))

        # Event-row lifecycle: rows follow their column counts; capacity
        # changes on persisting rows are pure RHS edits.
        removed_events = set(delta.remove_events)
        capacity_updates = dict(delta.set_event_capacity)
        event_capacity = new_index.event_capacity
        event_pos = new_index.event_pos
        for event_id in sorted(
            set(event_count_delta) | removed_events | set(capacity_updates)
        ):
            before = self._event_columns.get(event_id, 0)
            after = before + event_count_delta.get(event_id, 0)
            if event_id in removed_events:
                if before > 0:
                    remove_constraints.append(_event_row(event_id))
                continue
            if before > 0 and after == 0:
                remove_constraints.append(_event_row(event_id))
            elif before == 0 and after > 0:
                add_constraints.append(
                    PatchConstraint(
                        _event_row(event_id),
                        Sense.LE,
                        float(event_capacity[event_pos[event_id]]),
                    )
                )
            elif before > 0 and event_id in capacity_updates:
                set_rhs.append(
                    (_event_row(event_id), float(capacity_updates[event_id]))
                )

        for user_id in sorted(reweight):
            upos = new_index.user_pos[user_id]
            weight_of = new_index.user_weight_by_event_id(upos)
            for idx in benchmark.by_user[user_id]:
                _uid, events = benchmark.assignments[idx]
                weight = sum_in_order(
                    weight_of[event_id]
                    if event_id in weight_of
                    else successor.weight(user_id, event_id)
                    for event_id in events
                )
                set_objective.append((lp.variables[idx].name, weight))

        patch = LPPatch(
            remove_variables=tuple(remove_variables),
            remove_constraints=tuple(remove_constraints),
            add_constraints=tuple(add_constraints),
            add_variables=tuple(add_variables),
            set_rhs=tuple(set_rhs),
            set_objective=tuple(set_objective),
        )
        return patch, added_records, new_sets, removed_users, event_count_delta

    # ------------------------------------------------------------------
    # Application + side-table mirroring
    # ------------------------------------------------------------------
    def observe_delta(self, delta: Delta, successor: IGEPAInstance) -> LPPatch:
        """Patch the program from ``self.instance`` to ``successor``.

        ``successor`` must be the result of applying ``delta`` to the
        current instance (:func:`repro.model.delta.apply_delta`).  The LP
        and the benchmark side tables are updated in place; the next
        :meth:`solve` solves the patched program.
        """
        (
            patch,
            added_records,
            new_sets,
            removed_users,
            event_count_delta,
        ) = self.build_patch(delta, successor)
        benchmark = self.benchmark

        if not patch.is_empty:
            application = apply_lp_patch(benchmark.lp, patch)
            # Mirror the assignments list through the swap-with-last journal,
            # then append the new columns in emission order.
            assignments = benchmark.assignments
            for hole, last in application.variable_moves:
                if hole != last:
                    assignments[hole] = assignments[last]
                assignments.pop()
            assignments.extend(added_records)

        # Event-column counts.
        for event_id, change in event_count_delta.items():
            count = self._event_columns.get(event_id, 0) + change
            if count > 0:
                self._event_columns[event_id] = count
            else:
                self._event_columns.pop(event_id, None)
        for event_id in delta.remove_events:
            self._event_columns.pop(event_id, None)

        # by_user: indices moved arbitrarily — rebuild from the mirrored
        # assignments (O(columns), trivial next to the re-solve).
        by_user: dict[int, list[int]] = {
            int(user_id): []
            for user_id in successor.index.user_ids.tolist()
        }
        for idx, (user_id, _events) in enumerate(benchmark.assignments):
            by_user[user_id].append(idx)

        admissible = benchmark.admissible
        for user_id in removed_users:
            admissible.pop(user_id, None)
        admissible.update(new_sets)
        self.benchmark = _mirrored(
            benchmark, successor.index, by_user=by_user, admissible=admissible
        )

        self.instance = successor
        self.deltas_observed += 1
        return patch

    def solve(self) -> LPSolution:
        """Solve the current program with HiGHS; ``solution.x`` aligns with
        ``benchmark.assignments``."""
        return solve_lp(self.benchmark.lp)

    # ------------------------------------------------------------------
    # Invariant check (tests / debugging)
    # ------------------------------------------------------------------
    def check_tables(self) -> None:
        """Assert the mirrored side tables agree with the live program."""
        benchmark = self.benchmark
        lp = benchmark.lp
        assert len(benchmark.assignments) == lp.num_variables
        counts: dict[int, int] = {}
        for idx, (user_id, events) in enumerate(benchmark.assignments):
            assert lp.variables[idx].name == _column_name(user_id, events)
            for event_id in dict.fromkeys(events):
                counts[event_id] = counts.get(event_id, 0) + 1
        assert counts == self._event_columns
        flat = sorted(
            idx for indices in benchmark.by_user.values() for idx in indices
        )
        assert flat == list(range(lp.num_variables))
        con_index = lp.constraint_index()
        for event_id, count in counts.items():
            assert (_event_row(event_id) in con_index) == (count > 0)
