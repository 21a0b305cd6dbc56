"""Runtime sanitizers behind ``IGEPA_SANITIZE=1``: frozen arrays + CSR checks.

``igepa lint`` proves contracts *statically*; this module enforces the two
that matter most *at runtime*, so a violation raises at the offending line
instead of surfacing batches later as a parity mismatch:

* :func:`freeze_store_arrays` / :func:`freeze_index_arrays` — set
  ``writeable=False`` on every store/index-owned array.  The zero-copy
  architecture shares these buffers between the
  :class:`~repro.model.columnar.ColumnarStore`, both index implementations
  and every delta-patched successor; any in-place write to a shared buffer
  is a correctness bug by construction (delta purity, IGP004) and now
  raises ``ValueError: assignment destination is read-only`` with a
  traceback pointing at the write.
* :func:`check_csr_invariants` — the structural contract of the bid
  incidence: monotone ``indptr``, entries in range, no duplicate bids per
  user, ``bid_si`` alignment and range, bidder-transpose and degree-vector
  consistency, and bit-exact derived weights.

Nothing here runs unless the caller asks: the model layer calls
:func:`sanitize_index` / :func:`sanitize_store` after each build, and those
are no-ops unless the ``IGEPA_SANITIZE`` environment variable is set to a
non-empty value other than ``0``.  The parity suites and the nightly soak
export ``IGEPA_SANITIZE=1`` so the 200-batch trace runs entirely on frozen
buffers.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.model.columnar import ColumnarStore
    from repro.model.index import BaseInstanceIndex

#: Environment flag gating the runtime hooks.
ENV_FLAG = "IGEPA_SANITIZE"

#: Array-valued ColumnarStore slots frozen by :func:`freeze_store_arrays`.
STORE_ARRAY_SLOTS = (
    "user_ids",
    "user_capacity",
    "event_ids",
    "event_capacity",
    "bid_indptr",
    "bid_event_pos",
    "bid_si",
    "degrees",
    "event_start",
    "event_duration",
    "conflict_matrix",
    "user_attributes",
    "event_attributes",
)

#: Index attributes frozen by :func:`freeze_index_arrays`: the primary
#: arrays (shared with the store) plus every derived array ``_finalize``
#: builds.  Guarded by ``hasattr`` so both implementations work.
INDEX_ARRAY_ATTRS = (
    "user_ids",
    "event_ids",
    "user_capacity",
    "event_capacity",
    "degrees",
    "conflict_matrix",
    "conflict_words",
    "bid_indptr",
    "bid_indices",
    "bid_si",
    "bid_user_positions",
    "bid_weights",
    "bidder_indptr",
    "bidder_indices",
    "bidder_weights",
    # Dense-only storage.
    "W",
    "SI",
    "bid_mask",
)


class SanitizeError(AssertionError):
    """A structural invariant of the CSR/columnar layer does not hold."""


def sanitize_enabled() -> bool:
    """Whether the ``IGEPA_SANITIZE`` runtime hooks are active."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def _freeze(array: object) -> int:
    """Set ``writeable=False`` on an ndarray (or each array in a list).

    Returns the number of arrays frozen.  Arrays that cannot be frozen
    (e.g. read-only mmap views of spilled columns are already frozen) count
    as zero.
    """
    if isinstance(array, np.ndarray):
        if not array.flags.writeable:
            return 0
        try:
            array.flags.writeable = False
        except ValueError:  # pragma: no cover - non-owning exotic views
            return 0
        return 1
    if isinstance(array, (list, tuple)):
        return sum(_freeze(item) for item in array)
    return 0


def freeze_store_arrays(store: "ColumnarStore") -> int:
    """Freeze every array column of a store.  Returns arrays frozen.

    After this call, any in-place write through the store — or through an
    index sharing its buffers zero-copy — raises ``ValueError`` at the
    offending line.  Spilled (mmap) columns are already read-only.
    """
    return sum(
        _freeze(getattr(store, name, None)) for name in STORE_ARRAY_SLOTS
    )


def freeze_index_arrays(index: "BaseInstanceIndex") -> int:
    """Freeze the primary and derived arrays of either index implementation."""
    count = sum(
        _freeze(getattr(index, name, None)) for name in INDEX_ARRAY_ATTRS
    )
    # The lazy pair-accessor sort tables, if already built.
    count += _freeze(getattr(index, "_pair_sorted_keys", None))
    count += _freeze(getattr(index, "_pair_sorted_entries", None))
    return count


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SanitizeError(message)


def check_csr_invariants(index: "BaseInstanceIndex") -> None:
    """Verify the structural contract of an index's bid incidence.

    Checks, in order:

    * ``bid_indptr`` starts at 0, is monotone non-decreasing, and covers
      exactly ``bid_indices``;
    * every entry's event position is in range, with no duplicate
      (user, event) bid pair inside a user's row;
    * ``bid_si`` is aligned entry-for-entry and inside ``[0, 1]``;
    * ``bid_user_positions`` is the row expansion of the CSR;
    * ``bid_weights`` equals ``β·SI + (1-β)·D`` bit for bit;
    * the bidder transpose (``bidder_indptr`` / ``bidder_indices`` /
      ``bidder_weights``) is consistent with the forward incidence;
    * the degree vector has one finite entry in ``[0, 1]`` per user.

    Raises :class:`SanitizeError` on the first violation.
    """
    num_users = index.num_users
    num_events = index.num_events
    indptr = index.bid_indptr
    indices = index.bid_indices
    si = index.bid_si

    _require(indptr.ndim == 1, "bid_indptr must be one-dimensional")
    _require(
        indptr.size == num_users + 1,
        f"bid_indptr has {indptr.size} entries, expected {num_users + 1}",
    )
    _require(int(indptr[0]) == 0, "bid_indptr must start at 0")
    steps = np.diff(indptr)
    _require(
        bool((steps >= 0).all()), "bid_indptr must be monotone non-decreasing"
    )
    _require(
        int(indptr[-1]) == indices.size,
        f"bid_indptr covers {int(indptr[-1])} entries, "
        f"bid_indices has {indices.size}",
    )
    if indices.size:
        _require(
            bool((indices >= 0).all()) and bool((indices < num_events).all()),
            "bid_indices holds out-of-range event positions",
        )
    _require(
        si.size == indices.size,
        f"bid_si has {si.size} entries, bid_indices has {indices.size}",
    )
    if si.size:
        _require(
            bool((si >= 0.0).all()) and bool((si <= 1.0).all()),
            "bid_si outside [0, 1] (Definition 5)",
        )

    # No duplicate (user, event) pair within a row: row-keyed entry ids are
    # unique iff no user bids the same event twice.
    if indices.size:
        rows = np.repeat(np.arange(num_users, dtype=np.int64), steps)
        keys = rows * np.int64(max(1, num_events)) + indices
        _require(
            np.unique(keys).size == keys.size,
            "duplicate (user, event) bid pair inside a user's row",
        )
        expansion = rows
        _require(
            np.array_equal(index.bid_user_positions, expansion),
            "bid_user_positions is not the row expansion of bid_indptr",
        )

    beta = index.instance.beta
    degrees = index.degrees
    _require(
        degrees.shape == (num_users,),
        f"degree vector shape {degrees.shape} != ({num_users},)",
    )
    if num_users:
        _require(
            bool(np.isfinite(degrees).all()),
            "degree vector holds non-finite values",
        )
        _require(
            bool((degrees >= 0.0).all()) and bool((degrees <= 1.0).all()),
            "degree vector outside [0, 1]",
        )

    if indices.size:
        expected_weights = beta * si + (1.0 - beta) * degrees[
            index.bid_user_positions
        ]
        _require(
            np.array_equal(index.bid_weights, expected_weights),
            "bid_weights drifted from beta*SI + (1-beta)*D (bit mismatch)",
        )

    bidder_indptr = index.bidder_indptr
    bidder_indices = index.bidder_indices
    _require(
        bidder_indptr.size == num_events + 1,
        f"bidder_indptr has {bidder_indptr.size} entries, "
        f"expected {num_events + 1}",
    )
    _require(
        bidder_indices.size == indices.size,
        "bidder transpose entry count != forward incidence entry count",
    )
    if indices.size:
        counts = np.bincount(indices, minlength=num_events)
        _require(
            np.array_equal(np.diff(bidder_indptr), counts),
            "bidder_indptr row sizes disagree with per-event bid counts",
        )
        order = index._bidder_order
        _require(
            np.array_equal(bidder_indices, index.bid_user_positions[order]),
            "bidder_indices is not the stable transpose of the incidence",
        )
        _require(
            np.array_equal(index.bidder_weights, index.bid_weights[order]),
            "bidder_weights misaligned with the transpose permutation",
        )


def check_store_invariants(store: "ColumnarStore") -> None:
    """Structural checks on a store's CSR and capacity columns."""
    num_users = store.num_users
    num_events = store.num_events
    indptr = store.bid_indptr
    indices = store.bid_event_pos
    _require(
        indptr.size == num_users + 1,
        f"store bid_indptr has {indptr.size} entries, expected {num_users + 1}",
    )
    _require(int(indptr[0]) == 0, "store bid_indptr must start at 0")
    _require(
        bool((np.diff(indptr) >= 0).all()),
        "store bid_indptr must be monotone non-decreasing",
    )
    _require(
        int(indptr[-1]) == indices.size,
        "store bid_indptr does not cover bid_event_pos",
    )
    if indices.size:
        _require(
            bool((indices >= 0).all()) and bool((indices < num_events).all()),
            "store bid_event_pos holds out-of-range event positions",
        )
    _require(
        store.bid_si is not None and store.bid_si.size == indices.size,
        "store bid_si missing or misaligned with bid_event_pos",
    )
    _require(
        np.unique(store.user_ids).size == num_users,
        "duplicate user ids in the store",
    )
    _require(
        np.unique(store.event_ids).size == num_events,
        "duplicate event ids in the store",
    )


def sanitize_store(store: "ColumnarStore") -> None:
    """Runtime hook: freeze + check a freshly built store (env-gated)."""
    if not sanitize_enabled():
        return
    check_store_invariants(store)
    freeze_store_arrays(store)


def sanitize_index(index: "BaseInstanceIndex") -> None:
    """Runtime hook: freeze + check a freshly built index (env-gated)."""
    if not sanitize_enabled():
        return
    check_csr_invariants(index)
    freeze_index_arrays(index)
