"""Shared instance factories for the test suite."""

from __future__ import annotations

import numpy as np

from repro.model import (
    Event,
    IGEPAInstance,
    MatrixConflict,
    TabulatedInterest,
    User,
)
from repro.social import Graph, erdos_renyi_graph


def bid_interest_table(instance: IGEPAInstance) -> dict[tuple[int, int], float]:
    """The store's ``bid_si`` column as an ``(event_id, user_id)`` dict."""
    store = instance.store
    entry_users = np.repeat(store.user_ids, np.diff(store.bid_indptr)).tolist()
    entry_events = store.event_ids[store.bid_event_pos].tolist()
    return dict(zip(zip(entry_events, entry_users), store.bid_si.tolist()))


def entity_inputs(instance: IGEPAInstance) -> dict:
    """The entity constructor's inputs, unpacked from a store's arrays.

    Returns ``events`` (``Event`` objects), ``users`` (``User`` objects), a
    tabulated ``interest`` dict and an id-keyed ``degrees`` dict for a
    :func:`~repro.datagen.generate_synthetic_stream` instance — keyword
    arguments for ``IGEPAInstance(...)``.
    """
    store = instance.store
    user_ids = store.user_ids.tolist()
    return {
        "events": [
            Event(event_id=event_id, capacity=capacity)
            for event_id, capacity in zip(
                store.event_ids.tolist(), store.event_capacity.tolist()
            )
        ],
        "users": [
            User(user_id=user_id, capacity=capacity, bids=tuple(bids))
            for user_id, capacity, bids in zip(
                user_ids, store.user_capacity.tolist(), store.bid_lists()
            )
        ],
        "interest": TabulatedInterest(bid_interest_table(instance)),
        "degrees": dict(zip(user_ids, store.degrees.tolist())),
    }


def entity_built_twin(instance: IGEPAInstance) -> IGEPAInstance:
    """The same instance through the entity constructor.

    Hands :func:`entity_inputs` to ``IGEPAInstance(...)`` — the counterpart
    the constructor-parity tests compare against ``IGEPAInstance.from_store``.
    """
    return IGEPAInstance(
        conflict=instance.conflict,
        social=Graph(nodes=instance.store.user_ids.tolist()),
        beta=instance.beta,
        name=instance.name,
        **entity_inputs(instance),
    )


def tiny_instance(beta: float = 0.5) -> IGEPAInstance:
    """A 3-event / 4-user instance with one conflict, fully hand-checkable.

    Layout:
        events: 1 (cap 2), 2 (cap 1), 3 (cap 2); conflict (1, 2).
        users:  10 bids {1,2} cap 1; 11 bids {1,3} cap 2;
                12 bids {2,3} cap 2; 13 bids {3} cap 1.
        social: 10-11, 11-12 (so D: 10->1/3, 11->2/3, 12->1/3, 13->0).
    """
    events = [
        Event(event_id=1, capacity=2),
        Event(event_id=2, capacity=1),
        Event(event_id=3, capacity=2),
    ]
    users = [
        User(user_id=10, capacity=1, bids=(1, 2)),
        User(user_id=11, capacity=2, bids=(1, 3)),
        User(user_id=12, capacity=2, bids=(2, 3)),
        User(user_id=13, capacity=1, bids=(3,)),
    ]
    interest = TabulatedInterest(
        {
            (1, 10): 0.9,
            (2, 10): 0.4,
            (1, 11): 0.6,
            (3, 11): 0.8,
            (2, 12): 0.7,
            (3, 12): 0.3,
            (3, 13): 1.0,
        }
    )
    social = Graph(nodes=[10, 11, 12, 13], edges=[(10, 11), (11, 12)])
    return IGEPAInstance(
        events=events,
        users=users,
        conflict=MatrixConflict([(1, 2)]),
        interest=interest,
        social=social,
        beta=beta,
        name="tiny",
    )


def random_instance(
    seed: int,
    num_events: int = 6,
    num_users: int = 10,
    max_event_capacity: int = 3,
    max_user_capacity: int = 3,
    conflict_probability: float = 0.3,
    friend_probability: float = 0.4,
    max_bids: int = 4,
    beta: float = 0.5,
) -> IGEPAInstance:
    """A small random instance for exhaustive / statistical tests."""
    rng = np.random.default_rng(seed)
    event_ids = list(range(num_events))
    user_ids = list(range(100, 100 + num_users))
    events = [
        Event(event_id=e, capacity=int(rng.integers(1, max_event_capacity + 1)))
        for e in event_ids
    ]
    interest_values = {}
    users = []
    for u in user_ids:
        count = int(rng.integers(1, max_bids + 1))
        bids = tuple(
            int(b) for b in rng.choice(event_ids, size=min(count, num_events), replace=False)
        )
        users.append(
            User(
                user_id=u,
                capacity=int(rng.integers(1, max_user_capacity + 1)),
                bids=bids,
            )
        )
        for b in bids:
            interest_values[(b, u)] = float(rng.uniform())
    conflict = MatrixConflict.sample(event_ids, conflict_probability, rng)
    social = erdos_renyi_graph(user_ids, friend_probability, rng=rng)
    return IGEPAInstance(
        events=events,
        users=users,
        conflict=conflict,
        interest=TabulatedInterest(interest_values),
        social=social,
        beta=beta,
        name=f"random-{seed}",
    )


def dfs_admissible_sets(
    index, user_id: int, bids, capacity: int, max_sets: int
) -> list[tuple[int, ...]]:
    """The reference enumeration of ``A_u``: a recursive depth-first walk
    over the sorted bids that extends only by non-conflicting events, the
    chosen events carried as a bitmask over event positions.  Raises
    :class:`~repro.core.admissible.AdmissibleSetExplosion` right after
    appending set number ``max_sets + 1``."""
    from repro.core.admissible import AdmissibleSetExplosion

    bids = sorted(bids)
    results: list[tuple[int, ...]] = []
    if capacity == 0 or not bids:
        return results
    conflict_bits = index.conflict_bits
    positions = [index.event_pos[event_id] for event_id in bids]
    masks = [conflict_bits[p] for p in positions]
    flags = [1 << p for p in positions]

    def extend(start: int, current: list[int], chosen: int) -> None:
        for offset in range(start, len(bids)):
            if masks[offset] & chosen:
                continue
            current.append(bids[offset])
            results.append(tuple(current))
            if len(results) > max_sets:
                raise AdmissibleSetExplosion(user_id, max_sets)
            if len(current) < capacity:
                extend(offset + 1, current, chosen | flags[offset])
            current.pop()

    extend(0, [], 0)
    return results


def dfs_all_admissible_sets(
    instance: IGEPAInstance, max_sets: int = 100_000
) -> dict[int, list[tuple[int, ...]]]:
    """:func:`dfs_admissible_sets` for every user, keyed by user id."""
    return {
        user.user_id: dfs_admissible_sets(
            instance.index, user.user_id, user.bids, user.capacity, max_sets
        )
        for user in instance.users
    }


def reference_lp(lp) -> tuple:
    """The reference solve of an LP: ``(SolveStatus, objective)``, the
    objective in ``lp``'s own sense (NaN unless optimal).

    Shares no code with :func:`~repro.solver.api.solve_lp`: it takes the
    dense matrix from the row dicts (``dense_constraint_matrix``), reading
    neither the COO cache nor ``to_arrays``, negates ``>=`` rows by hand,
    and runs HiGHS's interior-point method rather than the dual simplex
    ``solve_lp`` gets.  So it checks the repo's own assembly, sense flips,
    bounds and the sign of a maximization — not HiGHS itself: a bug both
    HiGHS algorithms share goes unseen.

    Where the interior-point method breaks down (linprog status 4, e.g.
    on a right-hand side of 1e-250, which HiGHS's IPM reports as a solve
    error), the same arrays are solved again by HiGHS's dual simplex: a
    numerical breakdown of the reference is not a verdict on the LP.
    """
    from scipy.optimize import linprog

    from repro.solver import Sense, SolveStatus

    assert not lp.has_integer_variables, "reference_lp solves LPs only"
    matrix, senses, rhs = lp.dense_constraint_matrix()
    # One extra column fixed at 0 keeps a program without variables
    # solvable, so HiGHS still judges its constant rows.
    matrix = np.hstack([matrix, np.zeros((len(senses), 1))])
    le = np.array([sense is Sense.LE for sense in senses], dtype=bool)
    ge = np.array([sense is Sense.GE for sense in senses], dtype=bool)
    eq = ~(le | ge)
    sign = -1.0 if lp.maximize else 1.0
    arrays = dict(
        c=[sign * variable.objective for variable in lp.variables] + [0.0],
        A_ub=np.vstack([matrix[le], -matrix[ge]]),
        b_ub=np.concatenate([rhs[le], -rhs[ge]]),
        A_eq=matrix[eq],
        b_eq=rhs[eq],
        bounds=[(v.lower, v.upper) for v in lp.variables] + [(0.0, 0.0)],
    )
    result = linprog(**arrays, method="highs-ipm")
    if result.status == 4:
        result = linprog(**arrays, method="highs-ds")
    status = {
        0: SolveStatus.OPTIMAL,
        2: SolveStatus.INFEASIBLE,
        3: SolveStatus.UNBOUNDED,
    }.get(result.status, SolveStatus.ERROR)
    objective = sign * float(result.fun) if status.is_optimal else float("nan")
    return status, objective


def stub_highs_run(monkeypatch, model_status, iterations: int = 7) -> None:
    """Make every HiGHS object that :func:`~repro.solver.api.solve_lp`
    creates end its run on ``model_status`` after ``iterations`` simplex
    iterations, without solving (the bindings' class, subclassed)."""
    from scipy.optimize._highspy import _core

    class Stopped(_core._Highs):
        def run(self):
            return _core.HighsStatus.kError

        def getModelStatus(self):
            return model_status

        def getInfo(self):
            info = super().getInfo()
            info.simplex_iteration_count = iterations
            return info

    monkeypatch.setattr(_core, "_Highs", Stopped)


def lower_dense_cap(monkeypatch, cap: int) -> None:
    """Set the dense index's cell cap to ``cap``, so a test reaches the
    size switch (``index_class``) without a 10⁷-cell platform."""
    monkeypatch.setattr("repro.model.index.DENSE_CELL_CAP", cap)


def replay_conflicts(pairs: set[frozenset[int]], delta) -> set[frozenset[int]]:
    """σ after ``delta`` on a plain set of unordered event-id pairs.

    The independent reference for the patched conflict matrix: a closing
    event's pairs go, then the delta's removals and additions apply.  An
    event the delta opens conflicts with nothing the delta does not add.
    """
    closed = set(delta.remove_events)
    kept = {pair for pair in pairs if not pair & closed}
    kept -= {frozenset(pair) for pair in delta.remove_conflicts}
    return kept | {frozenset(pair) for pair in delta.add_conflicts}


def conflict_mismatches(index, pairs: set[frozenset[int]]) -> list[str]:
    """Names of the index's σ representations (``conflict_matrix``,
    ``conflict_words``, ``conflict_bits``) that disagree with ``pairs``,
    each rebuilt bit by bit from the pair set.  A pair naming an event the
    index does not hold raises ``KeyError``."""
    n = index.num_events
    bits = [0] * n
    for pair in pairs:
        first, second = (index.event_pos[event_id] for event_id in pair)
        bits[first] |= 1 << second
        bits[second] |= 1 << first
    num_words = -(-n // 64)
    expected = {
        "conflict_matrix": np.array(
            [[row >> p & 1 for p in range(n)] for row in bits], dtype=bool
        ).reshape(n, n),
        "conflict_words": np.array(
            [[row >> (64 * w) & (2**64 - 1) for w in range(num_words)] for row in bits],
            dtype=np.uint64,
        ).reshape(n, num_words),
    }
    mismatches = [
        name
        for name, array in expected.items()
        if not np.array_equal(getattr(index, name), array)
    ]
    if index.conflict_bits != tuple(bits):
        mismatches.append("conflict_bits")
    return mismatches


def reference_carry(instance, successor, arrangement, delta, maps) -> tuple:
    """The reference carry of an arrangement across a delta: ``(carried,
    dropped, touched_users, touched_events)`` as
    :func:`repro.model.delta._carry_arrangement` returns them.

    The earlier scalar implementation, kept as the yardstick of the array
    one: every added conflict scans the held pairs for the users of both
    events and drops the lighter pair per user (ties drop the higher event
    id), conflicts in delta order; every shrunk event, then every shrunk
    user, sheds its lightest pairs one target at a time (ties drop the
    higher user or event id).
    """
    from repro.model import Arrangement

    old_index = instance.index
    index = successor.index

    old_upos, old_vpos = arrangement.assigned_positions()
    new_upos = maps.user_map[old_upos]
    new_vpos = maps.event_map[old_vpos]
    keep = (new_upos >= 0) & (new_vpos >= 0)
    keep[keep] = index.pair_bid_mask(new_upos[keep], new_vpos[keep])
    dropped = list(
        zip(
            old_index.event_ids[old_vpos[~keep]].tolist(),
            old_index.user_ids[old_upos[~keep]].tolist(),
        )
    )
    carried = Arrangement.from_positions(successor, new_upos[keep], new_vpos[keep])
    held_u, held_v = carried.assigned_positions()

    def attendees(vpos: int) -> np.ndarray:
        users = held_u[held_v == vpos]
        return users[carried.assigned_mask(users, vpos)]

    def drop(event_id: int, user_id: int) -> None:
        carried.remove(event_id, user_id)
        dropped.append((event_id, user_id))

    for first, second in delta.add_conflicts:
        pa, pb = index.event_pos[first], index.event_pos[second]
        both = attendees(pa)
        both = both[carried.assigned_mask(both, pb)]
        for upos in both.tolist():
            w_first = index.weight_at(upos, pa)
            w_second = index.weight_at(upos, pb)
            if w_first < w_second or (w_first == w_second and first > second):
                victim_id = first
            else:
                victim_id = second
            drop(victim_id, int(index.user_ids[upos]))

    for event_id, _capacity in delta.set_event_capacity:
        vpos = index.event_pos[event_id]
        over = int(carried.attendance_counts[vpos]) - int(index.event_capacity[vpos])
        if over <= 0:
            continue
        seated = attendees(vpos)
        weights = index.pair_weights(seated, np.full(seated.size, vpos, dtype=np.int64))
        attendee_ids = index.user_ids[seated]
        order = np.lexsort((-attendee_ids, weights))
        for k in order[:over].tolist():
            drop(event_id, int(attendee_ids[k]))
    for user_id, _capacity in delta.set_user_capacity:
        upos = index.user_pos[user_id]
        over = int(carried.load_counts[upos]) - int(index.user_capacity[upos])
        if over <= 0:
            continue
        attended = held_v[held_u == upos]
        attended = attended[carried.assigned_mask(upos, attended)]
        weights = index.pair_weights(np.full(attended.size, upos), attended)
        attended_ids = index.event_ids[attended]
        order = np.lexsort((-attended_ids, weights))
        for k in order[:over].tolist():
            drop(int(attended_ids[k]), user_id)

    touched_users = {user_id for _event_id, user_id in dropped}
    touched_events = {event_id for event_id, _user_id in dropped}
    return carried, dropped, touched_users, touched_events


def replay_interest(table: dict[tuple[int, int], float], delta, base) -> dict:
    """Every bid's SI after ``delta``, on a plain ``(event_id, user_id)``
    dict holding exactly the bid pairs.

    The independent reference for the store's ``bid_si`` column: withdrawn
    bids and the bids of departing users and closing events go, then each
    added bid (a new user's list, then ``add_bids``) takes ``base(event_id,
    user_id)``, the instance's interest function, and the delta's interest
    entries overwrite bid pairs in order; an entry on any other pair is
    dropped.
    """
    closed_users = set(delta.remove_users)
    closed_events = set(delta.remove_events)
    withdrawn = {(event_id, user_id) for user_id, event_id in delta.remove_bids}
    replayed = {
        pair: value
        for pair, value in table.items()
        if pair not in withdrawn
        and pair[0] not in closed_events
        and pair[1] not in closed_users
    }
    for user in delta.add_users:
        for event_id in user.bids:
            replayed[(event_id, user.user_id)] = base(event_id, user.user_id)
    for user_id, event_id in delta.add_bids:
        replayed[(event_id, user_id)] = base(event_id, user_id)
    for event_id, user_id, value in delta.interest:
        if (event_id, user_id) in replayed:
            replayed[(event_id, user_id)] = value
    return replayed
