"""Unit tests for the LinearProgram model."""

import math

import numpy as np
import pytest

from repro.solver import Constraint, LinearProgram, Sense


class TestVariables:
    def test_add_variable_returns_sequential_indices(self):
        lp = LinearProgram()
        assert lp.add_variable("a") == 0
        assert lp.add_variable("b") == 1
        assert lp.num_variables == 2

    def test_default_bounds_are_nonnegative(self):
        lp = LinearProgram()
        lp.add_variable("x")
        assert lp.variables[0].lower == 0.0
        assert lp.variables[0].upper == math.inf

    def test_auto_generated_names(self):
        lp = LinearProgram()
        lp.add_variable()
        lp.add_variable()
        assert [v.name for v in lp.variables] == ["x0", "x1"]

    def test_duplicate_name_raises(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(ValueError, match="duplicate"):
            lp.add_variable("x")

    def test_inverted_bounds_raise(self):
        lp = LinearProgram()
        with pytest.raises(ValueError, match="lower"):
            lp.add_variable("x", lower=2.0, upper=1.0)

    def test_integer_marker(self):
        lp = LinearProgram()
        lp.add_variable("x", is_integer=True)
        lp.add_variable("y")
        assert lp.has_integer_variables
        assert lp.variables[0].is_integer
        assert not lp.variables[1].is_integer

    def test_no_integer_variables(self):
        lp = LinearProgram()
        lp.add_variable("x")
        assert not lp.has_integer_variables


class TestConstraints:
    def test_add_constraint_drops_zero_coefficients(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.add_constraint({x: 1.0, y: 0.0}, Sense.LE, 5.0)
        assert lp.constraints[0].coefficients == {x: 1.0}

    def test_unknown_variable_index_raises(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(IndexError, match="unknown variable"):
            lp.add_constraint({7: 1.0}, Sense.LE, 1.0)

    def test_constraint_evaluate(self):
        c = Constraint("c", {0: 2.0, 2: -1.0}, Sense.LE, 4.0)
        assert c.evaluate(np.array([1.0, 9.0, 3.0])) == pytest.approx(-1.0)

    def test_constraint_satisfaction_le(self):
        c = Constraint("c", {0: 1.0}, Sense.LE, 1.0)
        assert c.is_satisfied(np.array([0.5]))
        assert c.is_satisfied(np.array([1.0]))
        assert not c.is_satisfied(np.array([1.5]))

    def test_constraint_satisfaction_ge(self):
        c = Constraint("c", {0: 1.0}, Sense.GE, 1.0)
        assert not c.is_satisfied(np.array([0.5]))
        assert c.is_satisfied(np.array([1.5]))

    def test_constraint_satisfaction_eq(self):
        c = Constraint("c", {0: 1.0}, Sense.EQ, 1.0)
        assert c.is_satisfied(np.array([1.0]))
        assert not c.is_satisfied(np.array([1.1]))


class TestBulkConstruction:
    """add_variables / add_constraints build what the one-at-a-time calls
    build, with the same checks."""

    def _one_at_a_time(self):
        lp = LinearProgram()
        for name, weight in (("a", 1.5), ("b", 2.0), ("c", 0.25)):
            lp.add_variable(name, upper=1.0, objective=weight)
        lp.add_constraint({0: 1.0, 2: 3.0}, Sense.LE, 1.0, name="r0")
        lp.add_constraint({1: 2.0}, Sense.LE, 4.0, name="r1")
        return lp

    def _bulk(self):
        lp = LinearProgram()
        lp.add_variables(["a", "b", "c"], objective=np.array([1.5, 2.0, 0.25]), upper=1.0)
        lp.add_constraints(
            ["r0", "r1"],
            Sense.LE,
            [1.0, 4.0],
            rows=np.array([0, 0, 1]),
            cols=np.array([0, 2, 1]),
            vals=np.array([1.0, 3.0, 2.0]),
        )
        return lp

    def test_same_program_as_one_at_a_time(self):
        bulk, single = self._bulk(), self._one_at_a_time()
        assert bulk.variables == single.variables
        assert bulk.constraints == single.constraints
        assert bulk._names == single._names

    def test_constraints_prime_the_coo_cache(self):
        lp = self._bulk()
        assert lp._coo is not None
        for ours, theirs in zip(lp.constraints_coo(), self._one_at_a_time().constraints_coo()):
            assert np.array_equal(ours, theirs)

    def test_only_fills_an_empty_program(self):
        lp = self._bulk()
        with pytest.raises(ValueError, match="without variables"):
            lp.add_variables(["d"], objective=[1.0])
        with pytest.raises(ValueError, match="without constraints"):
            lp.add_constraints(["r2"], Sense.LE, [1.0], [0], [0], [1.0])

    def test_duplicate_name_raises(self):
        with pytest.raises(ValueError, match="duplicate variable name 'y'"):
            LinearProgram().add_variables(["x", "y", "y"], objective=[0.0, 0.0, 0.0])

    def test_objective_length_must_match_names(self):
        lp = LinearProgram()
        with pytest.raises(ValueError, match="2 objective entries for 3 variables"):
            lp.add_variables(["x", "y", "z"], objective=[1.0, 2.0])
        assert lp.variables == [] and lp._names == set()

    def test_inverted_bounds_raise(self):
        with pytest.raises(ValueError, match="lower"):
            LinearProgram().add_variables(["x"], objective=[0.0], lower=2.0, upper=1.0)

    def test_bad_triplets_raise(self):
        def fresh():
            lp = LinearProgram()
            lp.add_variables(["a", "b"], objective=[1.0, 1.0])
            return lp

        with pytest.raises(IndexError, match="unknown variable"):
            fresh().add_constraints(["r"], Sense.LE, [1.0], [0], [7], [1.0])
        with pytest.raises(ValueError, match="sorted"):
            fresh().add_constraints(["r", "s"], Sense.LE, [1.0, 1.0], [1, 0], [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError, match="nonzero"):
            fresh().add_constraints(["r"], Sense.LE, [1.0], [0, 0], [0, 1], [1.0, 0.0])
        with pytest.raises(ValueError, match="more than once"):
            fresh().add_constraints(["r"], Sense.LE, [1.0], [0, 0], [1, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="length"):
            fresh().add_constraints(["r"], Sense.LE, [1.0, 2.0], [0], [1], [1.0])


class TestProgramQueries:
    def _small_lp(self):
        lp = LinearProgram(maximize=True)
        x = lp.add_variable("x", upper=4.0, objective=3.0)
        y = lp.add_variable("y", upper=2.0, objective=5.0)
        lp.add_constraint({x: 1.0, y: 2.0}, Sense.LE, 8.0)
        return lp, x, y

    def test_objective_vector_and_value(self):
        lp, _, _ = self._small_lp()
        assert lp.objective_vector() == pytest.approx([3.0, 5.0])
        assert lp.objective_value(np.array([1.0, 1.0])) == pytest.approx(8.0)

    def test_dense_constraint_matrix(self):
        lp, _, _ = self._small_lp()
        a, senses, b = lp.dense_constraint_matrix()
        assert a == pytest.approx(np.array([[1.0, 2.0]]))
        assert senses == [Sense.LE]
        assert b == pytest.approx([8.0])

    def test_is_feasible_checks_bounds_and_rows(self):
        lp, _, _ = self._small_lp()
        assert lp.is_feasible(np.array([4.0, 2.0]))
        assert not lp.is_feasible(np.array([5.0, 0.0]))  # bound violated
        assert not lp.is_feasible(np.array([-0.1, 0.0]))  # lower bound
        assert not lp.is_feasible(np.array([4.0, 2.5]))  # row and bound

    def test_is_feasible_rejects_wrong_shape(self):
        lp, _, _ = self._small_lp()
        with pytest.raises(ValueError, match="shape"):
            lp.is_feasible(np.array([1.0]))

    def test_repr_mentions_shape_and_kind(self):
        lp, _, _ = self._small_lp()
        assert "vars=2" in repr(lp)
        assert "LP" in repr(lp)
        lp.add_variable("z", is_integer=True)
        assert "ILP" in repr(lp)
