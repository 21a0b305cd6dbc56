"""EBSN data model: the IGEPA problem statement as code.

Definitions 1-8 of the paper map to this package as follows:

* Definition 1 (Event) -> :class:`Event`
* Definition 2 (User) -> :class:`User`
* Definition 3 (Conflict) -> :class:`ConflictFunction` and implementations
* Definition 4 (Arrangement + feasibility) -> :class:`Arrangement`
* Definition 5 (Interest) -> :class:`InterestFunction` and implementations
* Definition 6 (Degree of potential interaction) -> ``IGEPAInstance.degree``
* Definition 7 (Utility) -> ``Arrangement.utility``
* Definition 8 (IGEPA problem) -> :class:`IGEPAInstance`
"""

from repro.model.arrangement import Arrangement
from repro.model.builders import InstanceBuilder
from repro.model.columnar import (
    ColumnarStore,
    EventColumn,
    EventView,
    UserColumn,
    UserView,
)
from repro.model.conflicts import (
    AlwaysConflict,
    CompositeConflict,
    ConflictFunction,
    MatrixConflict,
    NoConflict,
    TimeIntervalConflict,
    conflict_from_dict,
    conflict_matrix,
    validate_symmetry,
)
from repro.model.delta import Delta, DeltaError, DeltaResult, apply_delta
from repro.model.entities import Event, User
from repro.model.errors import (
    ArrangementError,
    IndexCapacityError,
    InstanceValidationError,
    ModelError,
)
from repro.model.index import (
    BaseInstanceIndex,
    InstanceIndex,
    ShardedInstanceIndex,
)
from repro.model.instance import IGEPAInstance
from repro.model.interest import (
    CosineInterest,
    InterestFunction,
    JaccardInterest,
    ScaledDotInterest,
    TabulatedInterest,
    interest_from_dict,
)

__all__ = [
    "Event",
    "User",
    "ColumnarStore",
    "UserView",
    "EventView",
    "UserColumn",
    "EventColumn",
    "IGEPAInstance",
    "BaseInstanceIndex",
    "InstanceIndex",
    "ShardedInstanceIndex",
    "Arrangement",
    "InstanceBuilder",
    "Delta",
    "DeltaResult",
    "apply_delta",
    "ConflictFunction",
    "MatrixConflict",
    "TimeIntervalConflict",
    "CompositeConflict",
    "NoConflict",
    "AlwaysConflict",
    "conflict_matrix",
    "conflict_from_dict",
    "validate_symmetry",
    "InterestFunction",
    "CosineInterest",
    "JaccardInterest",
    "ScaledDotInterest",
    "TabulatedInterest",
    "interest_from_dict",
    "ModelError",
    "InstanceValidationError",
    "ArrangementError",
    "IndexCapacityError",
    "DeltaError",
]
