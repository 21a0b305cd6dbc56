"""Exception types for the EBSN data model."""

from __future__ import annotations


class ModelError(ValueError):
    """Base class for data-model validation failures."""


class InstanceValidationError(ModelError):
    """An IGEPA instance violates a structural invariant (duplicate ids,
    dangling bids, invalid capacities, ...)."""


class ArrangementError(ModelError):
    """An arrangement operation would violate the bid, capacity or conflict
    constraint of Definition 4."""


class IndexCapacityError(ModelError):
    """A dense ``(num_users, num_events)`` index was requested beyond the
    dense cell cap; the instance needs the CSR index."""
