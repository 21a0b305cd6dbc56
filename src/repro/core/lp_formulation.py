"""The benchmark LP (1)-(4) of the paper.

Variables ``x_{u,S}`` indicate assigning admissible event set ``S`` to user
``u``; the LP maximizes total weight subject to one set per user (2) and
event capacities (3)::

    max   Σ_u Σ_{S ∈ A_u}  x_{u,S} · w(u, S)                       (1)
    s.t.  Σ_{S ∈ A_u}      x_{u,S} ≤ 1            ∀ u ∈ U          (2)
          Σ_u Σ_{S ∋ v}    x_{u,S} ≤ c_v          ∀ v ∈ V          (3)
          0 ≤ x_{u,S} ≤ 1                                          (4)

with ``w(u, v) = β·SI(l_v, l_u) + (1-β)·D(G, u)`` and ``w(u, S) = Σ_{v∈S}
w(u, v)``.  Marking the variables integral turns the LP into the exact IGEPA
ILP (Lemma 1): integral solutions correspond one-to-one with feasible
arrangements.

:func:`build_benchmark_lp` assembles the program from one batched
enumeration of every ``A_u`` (:func:`~repro.core.admissible.
enumerate_admissible_batch`) without a Python object per column: the
:class:`BenchmarkLP` it returns holds the column table and an
:class:`~repro.solver.problem.ArrayProgram` (objective, bounds, COO
constraint triplets, right-hand sides), which
:func:`~repro.solver.api.solve_lp` hands HiGHS as is.  The named
:class:`~repro.solver.problem.LinearProgram` and the per-column decoding
tables are built from those arrays on first access.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterable

import numpy as np

from repro.core.admissible import (
    DEFAULT_MAX_SETS_PER_USER,
    enumerate_admissible_batch,
)
from repro.model.arrangement import Arrangement
from repro.model.instance import IGEPAInstance
from repro.solver.problem import ArrayProgram, LinearProgram, Sense, StartBasis


def sum_in_order(weights: Iterable[float]) -> float:
    """``w(u, S)`` from its members' ``w(u, v)``: added left to right from
    0.0, the one summation rule for every objective of the benchmark LP.

    Builtin ``sum()`` is not that rule everywhere: from Python 3.12 on it
    compensates float sums (Neumaier), which can round differently from
    :func:`build_benchmark_lp`'s position-by-position array sums.  Objectives
    built here and patched in by
    :class:`~repro.core.lp_incremental.IncrementalBenchmarkLP` all go through
    this rule, so one set carries the same bits on every Python.
    """
    return functools.reduce(operator.add, weights, 0.0)


def set_weights(member_weights: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """``w(u, S)`` of every set whose members' ``w(u, v)`` are
    ``member_weights[indptr[k]:indptr[k+1]]``.

    Added position by position over all sets at once: left to right from
    0.0 per set, the rule of :func:`sum_in_order`.
    """
    sizes = np.diff(indptr)
    weights = np.zeros(sizes.size)
    first_member = indptr[:-1]
    for position in range(int(sizes.max()) if sizes.size else 0):
        longer = np.flatnonzero(sizes > position)
        weights[longer] += member_weights[first_member[longer] + position]
    return weights


class BenchmarkLP:
    """The benchmark LP's columns, as arrays, and the program over them.

    Column ``j`` is the variable ``x_{u,S}`` of user position
    ``set_upos[j]`` and the set whose event positions are
    ``set_vpos[set_indptr[j]:set_indptr[j+1]]`` (ascending event id).

    Attributes:
        name: the program's name.
        user_ids / event_ids: the ids of the positions above.
        set_upos / set_indptr / set_vpos: the column table.
        program: the program (1)-(4) as an :class:`ArrayProgram`, what
            :func:`~repro.solver.api.solve_lp` hands HiGHS; ``None`` for a
            table mirrored from a patched :class:`LinearProgram` (see
            :class:`~repro.core.lp_incremental.IncrementalBenchmarkLP`).

    The object views are built on first access: ``lp`` (the
    :class:`LinearProgram` with named variables and rows), ``assignments``
    (per column, the ``(user_id, S)`` it encodes), ``by_user`` (user id ->
    column indices, ascending) and ``admissible`` (user id -> ``A_u``).
    They serve the patch chain, benches and tests;
    the LP-packing rebuild path and the exact ILP read only the arrays.
    """

    def __init__(
        self,
        *,
        name: str,
        user_ids: np.ndarray,
        event_ids: np.ndarray,
        set_upos: np.ndarray,
        set_indptr: np.ndarray,
        set_vpos: np.ndarray,
        program: ArrayProgram | None = None,
        lp: LinearProgram | None = None,
        assignments: list[tuple[int, tuple[int, ...]]] | None = None,
        by_user: dict[int, list[int]] | None = None,
        admissible: dict[int, list[tuple[int, ...]]] | None = None,
    ):
        self.name = name
        self.user_ids = user_ids
        self.event_ids = event_ids
        self.set_upos = set_upos
        self.set_indptr = set_indptr
        self.set_vpos = set_vpos
        self.program = program
        self._lp = lp
        self._assignments = assignments
        self._by_user = by_user
        self._admissible = admissible

    @property
    def num_columns(self) -> int:
        """The number of LP variables, one per (user, admissible set)."""
        return self.set_upos.size

    # ------------------------------------------------------------------
    # Object views, built on first access
    # ------------------------------------------------------------------
    @property
    def assignments(self) -> list[tuple[int, tuple[int, ...]]]:
        if self._assignments is None:
            flat = self.event_ids[self.set_vpos].tolist()
            bounds = self.set_indptr.tolist()
            self._assignments = list(
                zip(
                    self.user_ids[self.set_upos].tolist(),
                    [tuple(flat[lo:hi]) for lo, hi in itertools.pairwise(bounds)],
                )
            )
        return self._assignments

    @property
    def by_user(self) -> dict[int, list[int]]:
        if self._by_user is None:
            order = np.argsort(self.set_upos, kind="stable").tolist()
            counts = np.bincount(self.set_upos, minlength=self.user_ids.size)
            ends = itertools.accumulate(counts.tolist())
            self._by_user = {
                user_id: order[end - count : end]
                for user_id, count, end in zip(
                    self.user_ids.tolist(), counts.tolist(), ends
                )
            }
        return self._by_user

    @property
    def admissible(self) -> dict[int, list[tuple[int, ...]]]:
        if self._admissible is None:
            assignments = self.assignments
            self._admissible = {
                user_id: [assignments[k][1] for k in columns]
                for user_id, columns in self.by_user.items()
            }
        return self._admissible

    def materialize(self) -> BenchmarkLP:
        """Build every object view now; returns ``self``."""
        for view in ("lp", "assignments", "by_user", "admissible"):
            getattr(self, view)
        return self

    @property
    def lp(self) -> LinearProgram:
        """The program as a :class:`LinearProgram`: variables
        ``x[u,e1,e2,…]``, rows ``user[u]`` then ``event[v]``."""
        if self._lp is None:
            self._lp = self._build_lp()
        return self._lp

    def _build_lp(self) -> LinearProgram:
        program = self.program
        if program is None:
            raise ValueError("a mirrored column table carries its own lp")
        lp = LinearProgram(name=self.name, maximize=program.maximize)
        # Users share many sets, so each distinct set is spelled out once.
        assignments = self.assignments
        distinct = {events for _u, events in assignments}
        labels = {events: ",".join(map(str, events)) for events in distinct}
        upper = program.upper[0] if program.num_variables else math.inf
        lp.add_variables(
            [f"x[{user_id},{labels[events]}]" for user_id, events in assignments],
            objective=program.objective,
            lower=0.0,
            upper=float(upper),
            is_integer=program.has_integer_variables,
        )
        # One (2) row per user and one (3) row per event with a column.
        user_rows = np.bincount(self.set_upos, minlength=self.user_ids.size) > 0
        event_rows = np.bincount(self.set_vpos, minlength=self.event_ids.size) > 0
        lp.add_constraints(
            [f"user[{u}]" for u in self.user_ids[user_rows].tolist()]
            + [f"event[{v}]" for v in self.event_ids[event_rows].tolist()],
            Sense.LE,
            program.rhs,
            program.rows,
            program.cols,
            program.vals,
        )
        return lp

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def column_pairs(self, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(user positions, event positions)`` of every member of the
        given columns, column by column in the given order."""
        starts = self.set_indptr[columns]
        sizes = self.set_indptr[columns + 1] - starts
        members = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
        members += np.arange(members.size)
        return np.repeat(self.set_upos[columns], sizes), self.set_vpos[members]

    def start_basis(self, arrangement: Arrangement) -> StartBasis | None:
        """The simplex basis of the vertex that encodes ``arrangement``.

        Each assigned user's column (the one whose set is exactly the
        user's events) is basic at 1 and that user's (2) row is nonbasic
        at its upper bound; every other user's (2) row and every (3) row is
        basic (its slack), every other column at its lower bound 0.  Each
        nonbasic (2) row holds exactly one basic column, so the basis is
        triangular and always factors; a feasible arrangement makes it
        primal feasible.

        Columns are matched by a per-set hash of their events and then
        checked exactly: the basic columns must spell out the arrangement's
        pairs.  Returns ``None`` when they do not (a set not in the table,
        ``arrangement`` of another instance).  Rows are those of the
        program the table is solved as: ``program``'s layout for an
        array-built table, the patched ``lp``'s own row order for a table
        mirrored from the incremental chain.
        """
        index = arrangement.instance.index
        if not (
            np.array_equal(index.user_ids, self.user_ids)
            and np.array_equal(index.event_ids, self.event_ids)
        ):
            return None
        upos, vpos = arrangement.assigned_positions()
        num_users = self.user_ids.size
        keys = _position_keys(self.event_ids.size)
        # Sets summed per column and per user (uint64 sums wrap: a hash).
        column_keys = np.zeros(self.num_columns, dtype=np.uint64)
        np.add.at(
            column_keys,
            np.repeat(np.arange(self.num_columns), np.diff(self.set_indptr)),
            keys[self.set_vpos],
        )
        user_keys = np.zeros(num_users, dtype=np.uint64)
        np.add.at(user_keys, upos, keys[vpos])
        assigned = np.zeros(num_users, dtype=bool)
        assigned[upos] = True
        candidates = np.flatnonzero(
            assigned[self.set_upos] & (column_keys == user_keys[self.set_upos])
        )
        # One column per user: the first candidate (columns ascend).
        users, first = np.unique(self.set_upos[candidates], return_index=True)
        basic = candidates[first]
        if users.size != np.count_nonzero(assigned):
            return None
        col_upos, col_vpos = self.column_pairs(basic)
        order = np.lexsort((col_vpos, col_upos))
        if not (
            np.array_equal(col_upos[order], upos)
            and np.array_equal(col_vpos[order], vpos)
        ):
            return None
        basic_columns = np.zeros(self.num_columns, dtype=bool)
        basic_columns[basic] = True
        program = self.program
        if program is not None:
            # Rows as build_benchmark_lp lays them out: the (2) row of every
            # user with a column, then the (3) rows.
            num_rows = program.num_constraints
            counts = np.bincount(self.set_upos, minlength=num_users)
            rows = (np.cumsum(counts > 0) - 1)[users]
        else:
            # A patched program keeps its rows in its own order, by name.
            num_rows = self.lp.num_constraints
            row_of = self.lp.constraint_index()
            rows = np.fromiter(
                (row_of[f"user[{u}]"] for u in self.user_ids[users].tolist()),
                dtype=np.int64,
                count=users.size,
            )
        basic_rows = np.ones(num_rows, dtype=bool)
        basic_rows[rows] = False
        return StartBasis(basic_columns=basic_columns, basic_rows=basic_rows)

    def pairs_from_solution(self, x, threshold: float = 0.5) -> list[tuple[int, int]]:
        """Decode an *integral* solution into ``(event_id, user_id)`` pairs.

        Variables with value above ``threshold`` are treated as chosen; for
        truly integral solutions any threshold in (0, 1) gives the same
        result.
        """
        chosen = np.flatnonzero(np.asarray(x, dtype=float) > threshold)
        upos, vpos = self.column_pairs(chosen)
        return list(zip(self.event_ids[vpos].tolist(), self.user_ids[upos].tolist()))


def _position_keys(size: int) -> np.ndarray:
    """A fixed pseudo-random 64-bit key per position (splitmix64's
    finalizer over ``1, 2, …``): sums of keys hash sets of positions."""
    z = (np.arange(1, size + 1, dtype=np.uint64)) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def build_benchmark_lp(
    instance: IGEPAInstance,
    *,
    integer: bool = False,
    max_sets_per_user: int = DEFAULT_MAX_SETS_PER_USER,
    implied_upper: bool = False,
) -> BenchmarkLP:
    """Construct the benchmark LP (1)-(4) for ``instance``, as arrays.

    Columns run user by user (instance order), each user's sets in ``A_u``
    order, so user ``u``'s columns are one contiguous range.  Rows are the
    (2) row of every user with a column, then the (3) row of every event in
    some column, both in position order.

    Args:
        instance: the IGEPA instance.
        integer: mark variables integral (the exact ILP of Lemma 1).
        max_sets_per_user: admissible-set explosion guard.
        implied_upper: leave the variables' upper bounds at ``+inf`` and let
            constraint (2) imply (4): every variable appears in its user's
            row with coefficient 1 and rhs 1, so ``x ≤ 1`` holds at every
            feasible point and the optimum is unchanged.  With no finite
            upper bounds the standard form needs no synthetic ``ub`` rows,
            and the incremental path
            (:class:`repro.core.lp_incremental.IncrementalBenchmarkLP`)
            has no column bounds to maintain across its patches.

    Raises:
        AdmissibleSetExplosion: propagated from enumeration.
    """
    index = instance.index
    sets = enumerate_admissible_batch(index, max_sets=max_sets_per_user)
    num_vars = sets.upos.size
    sizes = np.diff(sets.indptr)
    member_var = np.repeat(np.arange(num_vars, dtype=np.int64), sizes)

    weights = set_weights(index.bid_weights[sets.bids], sets.indptr)

    # (2): at most one admissible set per user, over the user's contiguous
    # variable range.  (3): event capacity over all sets containing the
    # event, variables ascending (a stable sort of the variable-ordered
    # memberships by event).  Every coefficient is 1.0.
    counts = sets.counts
    user_rows = np.flatnonzero(counts)
    event_counts = np.bincount(sets.vpos, minlength=index.num_events)
    event_rows = np.flatnonzero(event_counts)
    row_lengths = np.concatenate([counts[user_rows], event_counts[event_rows]])
    cols = np.concatenate(
        [
            np.arange(num_vars, dtype=np.int64),
            member_var[np.argsort(sets.vpos, kind="stable")],
        ]
    )
    num_rows = row_lengths.size
    program = ArrayProgram(
        maximize=True,
        objective=weights,
        lower=np.zeros(num_vars),
        upper=np.full(num_vars, math.inf if implied_upper else 1.0),
        integer=np.full(num_vars, integer),
        rows=np.repeat(np.arange(num_rows, dtype=np.int64), row_lengths),
        cols=cols,
        vals=np.ones(cols.size),
        senses=np.ones(num_rows, dtype=np.int64),
        rhs=np.concatenate(
            [
                np.ones(user_rows.size),
                index.event_capacity[event_rows].astype(np.float64),
            ]
        ),
    )
    return BenchmarkLP(
        name=f"benchmark-lp[{instance.name}]",
        user_ids=index.user_ids,
        event_ids=index.event_ids,
        set_upos=sets.upos,
        set_indptr=sets.indptr,
        set_vpos=sets.vpos,
        program=program,
    )
