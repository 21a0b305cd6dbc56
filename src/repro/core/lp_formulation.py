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
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.core.admissible import (
    DEFAULT_MAX_SETS_PER_USER,
    enumerate_all_admissible_sets,
)
from repro.model.instance import IGEPAInstance
from repro.solver.problem import LinearProgram, Sense


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


@dataclass
class BenchmarkLP:
    """The built LP together with its variable decoding tables.

    Attributes:
        lp: the :class:`LinearProgram` realizing (1)-(4).
        assignments: per LP variable index, the ``(user_id, S)`` it encodes.
        by_user: user id -> LP variable indices of that user's sets.
        admissible: user id -> the user's admissible event sets (``A_u``).
    """

    lp: LinearProgram
    assignments: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    by_user: dict[int, list[int]] = field(default_factory=dict)
    admissible: dict[int, list[tuple[int, ...]]] = field(default_factory=dict)

    def set_weight(self, instance: IGEPAInstance, user_id: int, events: tuple[int, ...]) -> float:
        """``w(u, S)`` for a decoded variable."""
        return sum_in_order(instance.weight(user_id, event_id) for event_id in events)

    def pairs_from_solution(self, x, threshold: float = 0.5) -> list[tuple[int, int]]:
        """Decode an *integral* solution into ``(event_id, user_id)`` pairs.

        Variables with value above ``threshold`` are treated as chosen; for
        truly integral solutions any threshold in (0, 1) gives the same
        result.
        """
        pairs: list[tuple[int, int]] = []
        chosen = np.flatnonzero(np.asarray(x, dtype=float) > threshold)
        for index in chosen.tolist():
            user_id, events = self.assignments[index]
            pairs.extend((event_id, user_id) for event_id in events)
        return pairs


def build_benchmark_lp(
    instance: IGEPAInstance,
    *,
    integer: bool = False,
    max_sets_per_user: int = DEFAULT_MAX_SETS_PER_USER,
    admissible: dict[int, list[tuple[int, ...]]] | None = None,
    implied_upper: bool = False,
) -> BenchmarkLP:
    """Construct the benchmark LP (1)-(4) for ``instance``.

    Args:
        instance: the IGEPA instance.
        integer: mark variables integral (the exact ILP of Lemma 1).
        max_sets_per_user: admissible-set explosion guard.
        admissible: pre-enumerated ``A_u`` (skips re-enumeration).
        implied_upper: leave the variables' upper bounds at ``+inf`` and let
            constraint (2) imply (4): every variable appears in its user's
            row with coefficient 1 and rhs 1, so ``x ≤ 1`` holds at every
            feasible point and the optimum is unchanged.  With no finite
            upper bounds the standard form needs no synthetic ``ub`` rows,
            which is what lets the incremental path
            (:class:`repro.core.lp_incremental.IncrementalBenchmarkLP`)
            delta-patch the cached standard form in place.

    Raises:
        AdmissibleSetExplosion: propagated from enumeration.
    """
    if admissible is None:
        admissible = enumerate_all_admissible_sets(instance, max_sets_per_user)

    index = instance.index
    user_ids = index.user_ids.tolist()
    event_ids = index.event_ids.tolist()
    num_events = len(event_ids)
    # Variables run user by user (instance order), each user's sets in A_u
    # order, so user u's variables are one contiguous range.
    user_sets = [admissible.get(user_id, []) for user_id in user_ids]
    counts = np.fromiter(map(len, user_sets), dtype=np.int64, count=len(user_ids))
    sets: list[tuple[int, ...]] = list(itertools.chain.from_iterable(user_sets))
    num_vars = len(sets)
    ends = np.cumsum(counts).tolist()
    by_user = {
        user_id: list(range(end - count, end))
        for user_id, count, end in zip(user_ids, counts.tolist(), ends)
    }
    var_upos = np.repeat(np.arange(len(user_ids), dtype=np.int64), counts)
    var_user_ids = index.user_ids[var_upos].tolist()
    assignments = list(zip(var_user_ids, sets))

    # One entry per (variable, event) membership, variables in order.
    sizes = np.fromiter(map(len, sets), dtype=np.int64, count=num_vars)
    member_var = np.repeat(np.arange(num_vars, dtype=np.int64), sizes)
    member_upos = var_upos[member_var]
    member_ids = np.fromiter(
        itertools.chain.from_iterable(sets), dtype=np.int64, count=member_var.size
    )
    member_vpos = np.fromiter(
        map(index.event_pos.__getitem__, member_ids.tolist()),
        dtype=np.int64,
        count=member_ids.size,
    )

    # w(u, S) = Σ_{v∈S} w(u, v) over the CSR weights, added position by
    # position over all sets at once: left to right from 0.0 per set, the
    # rule of sum_in_order.  Caller-supplied admissible sets may reach
    # outside the bid list; those pairs take the scalar accessor.
    member_weights = index.pair_weights(member_upos, member_vpos)
    for k in np.flatnonzero(~index.pair_bid_mask(member_upos, member_vpos)).tolist():
        member_weights[k] = instance.weight(
            var_user_ids[member_var[k]], int(member_ids[k])
        )
    weights = np.zeros(num_vars)
    first_member = np.cumsum(sizes) - sizes
    for position in range(int(sizes.max()) if num_vars else 0):
        longer = np.flatnonzero(sizes > position)
        weights[longer] += member_weights[first_member[longer] + position]

    lp = LinearProgram(name=f"benchmark-lp[{instance.name}]", maximize=True)
    # Users share many sets, so each distinct set is spelled out once.
    labels = {events_: ",".join(map(str, events_)) for events_ in set(sets)}
    lp.add_variables(
        [f"x[{user_id},{labels[events_]}]" for user_id, events_ in assignments],
        objective=weights,
        lower=0.0,
        upper=math.inf if implied_upper else 1.0,
        is_integer=integer,
    )

    # (3) counts each variable once per event, so repeats of an event inside
    # a caller-supplied set collapse to their first occurrence.  Enumerated
    # sets are strictly increasing, which rules repeats out.
    in_set = member_var[1:] == member_var[:-1]
    if np.any(in_set & (member_ids[1:] <= member_ids[:-1])):
        keys = member_var * max(1, num_events) + member_vpos
        first = np.sort(np.unique(keys, return_index=True)[1])
        member_var, member_vpos = member_var[first], member_vpos[first]

    # (2): at most one admissible set per user, over the user's contiguous
    # variable range.  (3): event capacity over all sets containing the
    # event, variables ascending (a stable sort of the variable-ordered
    # memberships by event).  Every coefficient is 1.0.
    user_rows = np.flatnonzero(counts)
    event_counts = np.bincount(member_vpos, minlength=num_events)
    event_rows = np.flatnonzero(event_counts)
    row_lengths = np.concatenate([counts[user_rows], event_counts[event_rows]])
    cols = np.concatenate(
        [
            np.arange(num_vars, dtype=np.int64),
            member_var[np.argsort(member_vpos, kind="stable")],
        ]
    )
    lp.add_constraints(
        [f"user[{user_ids[p]}]" for p in user_rows.tolist()]
        + [f"event[{event_ids[p]}]" for p in event_rows.tolist()],
        Sense.LE,
        [1.0] * user_rows.size
        + index.event_capacity[event_rows].astype(np.float64).tolist(),
        np.repeat(np.arange(row_lengths.size, dtype=np.int64), row_lengths),
        cols,
        np.ones(cols.size),
    )

    return BenchmarkLP(
        lp=lp, assignments=assignments, by_user=by_user, admissible=admissible
    )
