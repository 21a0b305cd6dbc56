"""Property-based tests (hypothesis) for the LP solver substrate."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.solver import LinearProgram, Sense, SolveStatus, solve_lp
from tests.util import reference_lp

# ----------------------------------------------------------------------
# Strategy: random bounded packing LPs (always feasible: x = 0 works).
# ----------------------------------------------------------------------


@st.composite
def packing_lps(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=0, max_value=5))
    lp = LinearProgram(maximize=True)
    for j in range(n):
        upper = draw(st.floats(min_value=0.5, max_value=4.0))
        objective = draw(st.floats(min_value=0.0, max_value=3.0))
        lp.add_variable(f"x{j}", upper=upper, objective=objective)
    for _ in range(m):
        coeffs = {}
        for j in range(n):
            if draw(st.booleans()):
                coeffs[j] = draw(st.floats(min_value=0.1, max_value=2.0))
        if coeffs:
            lp.add_constraint(
                coeffs, Sense.LE, draw(st.floats(min_value=0.5, max_value=8.0))
            )
    return lp


@st.composite
def general_lps(draw):
    """LPs with mixed senses and signed coefficients; may be infeasible."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=0, max_value=4))
    lp = LinearProgram(maximize=draw(st.booleans()))
    for j in range(n):
        lower = draw(st.floats(min_value=-3.0, max_value=0.0))
        upper = lower + draw(st.floats(min_value=0.1, max_value=5.0))
        lp.add_variable(
            f"x{j}",
            lower=lower,
            upper=upper,
            objective=draw(st.floats(min_value=-2.0, max_value=2.0)),
        )
    senses = [Sense.LE, Sense.GE, Sense.EQ]
    for _ in range(m):
        coeffs = {}
        for j in range(n):
            if draw(st.booleans()):
                coeffs[j] = draw(
                    st.floats(min_value=-2.0, max_value=2.0).filter(
                        lambda v: abs(v) > 1e-3
                    )
                )
        if coeffs:
            lp.add_constraint(
                coeffs,
                draw(st.sampled_from(senses)),
                draw(st.floats(min_value=-4.0, max_value=4.0)),
            )
    return lp


class TestPackingLPProperties:
    """Bounded packing LPs are always feasible and bounded -> OPTIMAL."""

    @given(packing_lps())
    @settings(max_examples=40, deadline=None)
    def test_simplex_returns_feasible_optimal_point(self, lp):
        solution = solve_lp(lp)
        assert solution.status is SolveStatus.OPTIMAL
        assert lp.is_feasible(solution.x, tol=1e-6)
        assert solution.objective_value == pytest.approx(
            lp.objective_value(solution.x), abs=1e-6
        )

    @given(packing_lps())
    @settings(max_examples=40, deadline=None)
    def test_revised_simplex_agrees_with_highs(self, lp):
        highs = solve_lp(lp)
        status, objective = reference_lp(lp)
        assert highs.status is SolveStatus.OPTIMAL
        assert status is SolveStatus.OPTIMAL
        assert highs.objective_value == pytest.approx(objective, abs=1e-6)

    @given(packing_lps())
    @settings(max_examples=25, deadline=None)
    def test_optimum_dominates_origin_and_respects_duality_bound(self, lp):
        solution = solve_lp(lp)
        # x = 0 is feasible with objective 0; a maximizer must do >= 0.
        assert solution.objective_value >= -1e-9
        # Trivial upper bound: sum of c_j * u_j over positive costs.
        cap = sum(
            v.objective * v.upper for v in lp.variables if v.objective > 0
        )
        assert solution.objective_value <= cap + 1e-6


def _tiny_rhs_lp():
    """An equality row with a right-hand side of ~3e-250, on which HiGHS's
    interior-point method (the reference) reports a solve error."""
    lp = LinearProgram(maximize=False)
    for j, (upper, objective) in enumerate([(1, 1), (1, 0), (4, 0), (5, -1)]):
        lp.add_variable(
            f"x{j}", lower=0.0, upper=float(upper), objective=float(objective)
        )
    lp.add_constraint({0: -1.0, 2: -0.5, 3: 0.5}, Sense.EQ, 2.9639050560176934e-250)
    return lp


class TestGeneralLPAgainstHiGHS:
    @given(general_lps())
    @example(_tiny_rhs_lp())
    @settings(max_examples=40, deadline=None)
    def test_status_and_value_match_scipy(self, lp):
        ours = solve_lp(lp)
        status, objective = reference_lp(lp)
        assert ours.status == status, f"solve_lp={ours.status} reference={status}"
        if status.is_optimal:
            assert ours.objective_value == pytest.approx(objective, abs=1e-5)
            assert lp.is_feasible(ours.x, tol=1e-5)
