"""LP patches: swap-with-last journals, COO cache integrity, solves.

:func:`apply_lp_patch` edits a :class:`LinearProgram` in place — removals
swap with the last element, additions append — and keeps the primed COO
triplet cache in sync, so ``to_arrays`` after a patch must agree
coefficient for coefficient with a program rebuilt from the patched row
dicts, and HiGHS (which reads the cache) must find the optimum that the
test reference, reading the row dicts, finds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.solver.api import solve_lp
from repro.solver.patch import (
    LPPatch,
    PatchConstraint,
    PatchError,
    PatchVariable,
    apply_lp_patch,
)
from repro.solver.problem import LinearProgram, Sense
from tests.util import reference_lp


def _lp() -> LinearProgram:
    lp = LinearProgram(name="patchable", maximize=True)
    a = lp.add_variable("a", objective=3.0)
    b = lp.add_variable("b", objective=2.0)
    c = lp.add_variable("c", objective=1.0)
    d = lp.add_variable("d", objective=4.0)
    lp.add_constraint({a: 1.0, b: 1.0}, Sense.LE, 4.0, name="r1")
    lp.add_constraint({b: 1.0, c: 1.0, d: 1.0}, Sense.LE, 3.0, name="r2")
    lp.add_constraint({a: 1.0, d: 2.0}, Sense.LE, 5.0, name="r3")
    return lp


def _clone_from_rows(lp: LinearProgram) -> LinearProgram:
    """Rebuild an identical program by re-walking the patched dicts —
    the ground truth the COO cache must match."""
    clone = LinearProgram(name="clone", maximize=lp.maximize)
    for variable in lp.variables:
        clone.add_variable(
            variable.name,
            lower=variable.lower,
            upper=variable.upper,
            objective=variable.objective,
            is_integer=variable.is_integer,
        )
    for constraint in lp.constraints:
        clone.add_constraint(
            dict(constraint.coefficients),
            constraint.sense,
            constraint.rhs,
            name=constraint.name,
        )
    return clone


def _dense(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constraint matrix (from the COO cache), rhs and objective."""
    program = lp.to_arrays()
    matrix = np.zeros((program.num_constraints, program.num_variables))
    np.add.at(matrix, (program.rows, program.cols), program.vals)
    return matrix, program.rhs, program.objective


def test_remove_variable_swaps_with_last():
    lp = _lp()
    application = apply_lp_patch(lp, LPPatch(remove_variables=("b",)))
    # 'd' (last) moved into 'b''s slot 1.
    assert [v.name for v in lp.variables] == ["a", "d", "c"]
    assert application.variable_moves == [(1, 3)]
    assert application.variable_map.tolist() == [0, -1, 2, 1]
    assert application.structural
    # Rows reference the moved index, not the hole.
    assert lp.constraints[2].coefficients == {0: 1.0, 1: 2.0}
    # 'b' is gone from every row.
    assert lp.constraints[0].coefficients == {0: 1.0}


def test_remove_constraint_swaps_with_last():
    lp = _lp()
    application = apply_lp_patch(lp, LPPatch(remove_constraints=("r1",)))
    assert [c.name for c in lp.constraints] == ["r3", "r2"]
    assert application.constraint_moves == [(0, 2)]
    assert application.constraint_map.tolist() == [-1, 1, 0]


def test_add_variable_and_constraint_append():
    lp = _lp()
    application = apply_lp_patch(
        lp,
        LPPatch(
            add_constraints=(PatchConstraint("r4", Sense.LE, 2.0),),
            add_variables=(
                PatchVariable(
                    name="e",
                    objective=6.0,
                    coefficients=(("r1", 1.0), ("r4", 1.0)),
                ),
            ),
        ),
    )
    assert application.added_variables == [4]
    assert application.added_constraints == [3]
    assert lp.variables[4].name == "e"
    assert lp.constraints[3].coefficients == {4: 1.0}
    assert lp.constraints[0].coefficients[4] == 1.0


def test_rhs_and_objective_edits_are_non_structural():
    lp = _lp()
    application = apply_lp_patch(
        lp, LPPatch(set_rhs=(("r2", 9.0),), set_objective=(("c", 7.0),))
    )
    assert not application.structural
    assert not application.rhs_only
    assert not application.objective_only
    assert lp.constraints[1].rhs == 9.0
    assert lp.variables[2].objective == 7.0
    rhs_only = apply_lp_patch(lp, LPPatch(set_rhs=(("r1", 1.0),)))
    assert rhs_only.rhs_only and not rhs_only.structural


def test_unknown_names_raise_patch_error():
    lp = _lp()
    with pytest.raises(PatchError):
        apply_lp_patch(lp, LPPatch(remove_variables=("zz",)))
    with pytest.raises(PatchError):
        apply_lp_patch(lp, LPPatch(set_rhs=(("nope", 1.0),)))
    with pytest.raises(PatchError):
        apply_lp_patch(
            lp,
            LPPatch(
                add_variables=(
                    PatchVariable(
                        name="e", objective=0.0, coefficients=(("nope", 1.0),)
                    ),
                )
            ),
        )


def test_coo_cache_matches_row_dicts_after_patches():
    lp = _lp()
    # Prime the COO cache the way the benchmark builder does.
    assert lp.constraints_coo()[0].size > 0
    apply_lp_patch(
        lp,
        LPPatch(
            remove_variables=("b",),
            remove_constraints=("r1",),
            add_constraints=(PatchConstraint("r4", Sense.LE, 2.0),),
            add_variables=(
                PatchVariable(
                    name="e",
                    objective=6.0,
                    coefficients=(("r2", 1.0), ("r4", 1.0)),
                ),
            ),
            set_rhs=(("r3", 7.0),),
            set_objective=(("a", 5.0),),
        ),
    )
    matrix, b, c = _dense(lp)
    clone_matrix, clone_b, clone_c = _dense(_clone_from_rows(lp))
    np.testing.assert_array_equal(matrix, clone_matrix)
    np.testing.assert_array_equal(b, clone_b)
    np.testing.assert_array_equal(c, clone_c)


def _assert_matches_rebuild(lp: LinearProgram) -> None:
    # HiGHS assembles its matrix from the patch-maintained COO cache; the
    # test reference, which reads the patched row dicts, is the independent
    # check.
    patched = solve_lp(lp)
    assert patched.is_optimal
    assert patched.backend == "scipy-highs"
    _, rebuilt = reference_lp(lp)
    assert patched.objective_value == pytest.approx(rebuilt, abs=1e-9)


def test_dispatch_modes_and_optima():
    # Each patch shape is classified on the journal, and every shape leaves
    # the program HiGHS solves equal to a rebuild.
    lp = _lp()
    assert solve_lp(lp).is_optimal

    objective_only = apply_lp_patch(lp, LPPatch(set_objective=(("c", 10.0),)))
    assert objective_only.objective_only
    assert not objective_only.rhs_only and not objective_only.structural
    _assert_matches_rebuild(lp)

    structural = apply_lp_patch(
        lp,
        LPPatch(
            add_variables=(
                PatchVariable(
                    name="e",
                    objective=9.0,
                    coefficients=(("r1", 1.0), ("r2", 1.0)),
                ),
            )
        ),
    )
    assert structural.structural
    assert not structural.rhs_only and not structural.objective_only
    _assert_matches_rebuild(lp)

    removal = apply_lp_patch(
        lp, LPPatch(remove_variables=("a",), remove_constraints=("r3",))
    )
    assert removal.structural
    _assert_matches_rebuild(lp)

    # Mixed rhs+objective: non-structural, but neither single-shape flag.
    mixed = apply_lp_patch(
        lp, LPPatch(set_rhs=(("r2", 2.0),), set_objective=(("d", 1.0),))
    )
    assert not mixed.structural
    assert not mixed.rhs_only and not mixed.objective_only
    _assert_matches_rebuild(lp)


def test_eager_patch_then_solve_keeps_fast_dispatch():
    # An RHS patch applied eagerly (for the move journal) must leave the
    # primed COO triplets in place, so the next solve reuses them instead
    # of re-walking the row dicts.
    lp = _lp()
    assert solve_lp(lp).is_optimal
    coo = lp._coo
    assert coo is not None
    application = apply_lp_patch(lp, LPPatch(set_rhs=(("r1", 1.0),)))
    assert application.rhs_only
    assert lp._coo is coo
    _assert_matches_rebuild(lp)
