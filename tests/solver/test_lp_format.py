"""Unit tests for the LP-format writer/reader."""

import math

import pytest

from repro.solver import LinearProgram, Sense, solve_lp
from repro.solver.lp_format import LPFormatError, parse_lp_format, write_lp_format


def _sample_lp():
    lp = LinearProgram(maximize=True)
    x = lp.add_variable("x", upper=4.0, objective=3.0)
    y = lp.add_variable("y", upper=2.0, objective=5.0)
    lp.add_constraint({x: 1.0, y: 2.0}, Sense.LE, 8.0, name="cap")
    lp.add_constraint({x: 1.0, y: -1.0}, Sense.GE, -1.0, name="bal")
    return lp


class TestWriter:
    def test_sections_present(self):
        text = write_lp_format(_sample_lp())
        for section in ("Maximize", "Subject To", "Bounds", "End"):
            assert section in text

    def test_minimize_sense(self):
        lp = LinearProgram(maximize=False)
        lp.add_variable("x", objective=1.0)
        assert "Minimize" in write_lp_format(lp)

    def test_integer_section(self):
        lp = LinearProgram()
        lp.add_variable("n", upper=5.0, objective=1.0, is_integer=True)
        text = write_lp_format(lp)
        assert "General" in text
        assert "n" in text

    def test_default_bounds_omitted(self):
        lp = LinearProgram()
        lp.add_variable("x", objective=1.0)  # [0, inf): the format default
        text = write_lp_format(lp)
        bounds_section = text.split("Bounds")[1]
        assert "x" not in bounds_section.split("End")[0]

    def test_bracketed_names_sanitized(self):
        lp = LinearProgram()
        lp.add_variable("x[10,(1,3)]", objective=1.0, upper=1.0)
        text = write_lp_format(lp)
        assert "[" not in text
        assert "(" not in text


class TestRoundTrip:
    def test_sample_round_trip_preserves_optimum(self):
        original = _sample_lp()
        restored = parse_lp_format(write_lp_format(original))
        assert restored.maximize == original.maximize
        assert restored.num_variables == original.num_variables
        assert restored.num_constraints == original.num_constraints
        assert solve_lp(restored).objective_value == pytest.approx(
            solve_lp(original).objective_value
        )

    def test_free_variable_round_trip(self):
        lp = LinearProgram(maximize=False)
        x = lp.add_variable("x", lower=-math.inf, upper=math.inf, objective=1.0)
        lp.add_constraint({x: 1.0}, Sense.GE, -3.0)
        restored = parse_lp_format(write_lp_format(lp))
        assert restored.variables[0].lower == -math.inf
        assert restored.variables[0].upper == math.inf
        assert solve_lp(restored).objective_value == pytest.approx(-3.0)

    def test_negative_bounds_round_trip(self):
        lp = LinearProgram(maximize=False)
        lp.add_variable("x", lower=-2.5, upper=1.5, objective=1.0)
        restored = parse_lp_format(write_lp_format(lp))
        assert restored.variables[0].lower == pytest.approx(-2.5)
        assert restored.variables[0].upper == pytest.approx(1.5)

    def test_integer_round_trip(self):
        lp = LinearProgram()
        lp.add_variable("n", upper=7.0, objective=2.0, is_integer=True)
        lp.add_variable("y", upper=1.0, objective=1.0)
        restored = parse_lp_format(write_lp_format(lp))
        assert restored.variables[0].is_integer
        assert not restored.variables[1].is_integer

    def test_benchmark_lp_round_trip(self):
        """The real benchmark LP (bracketed names and all) must survive."""
        from repro.core import build_benchmark_lp
        from tests.util import tiny_instance

        benchmark = build_benchmark_lp(tiny_instance())
        restored = parse_lp_format(write_lp_format(benchmark.lp))
        assert solve_lp(restored).objective_value == pytest.approx(
            solve_lp(benchmark.lp).objective_value
        )


class TestParser:
    def test_unnamed_constraints_get_defaults(self):
        text = """Maximize
 obj: 2 x + 3 y
Subject To
 x + y <= 4
Bounds
End
"""
        lp = parse_lp_format(text)
        assert lp.num_constraints == 1
        assert lp.constraints[0].name == "c0"

    def test_implicit_unit_coefficients(self):
        lp = parse_lp_format(
            "Minimize\n obj: x - y\nSubject To\n r1: x - y >= 1\nEnd\n"
        )
        assert lp.constraints[0].coefficients == {0: 1.0, 1: -1.0}

    def test_empty_text_rejected(self):
        with pytest.raises(LPFormatError, match="empty"):
            parse_lp_format("")

    def test_missing_relation_rejected(self):
        with pytest.raises(LPFormatError, match="relation"):
            parse_lp_format("Maximize\n obj: x\nSubject To\n r: x 4\nEnd\n")

    def test_content_outside_section_rejected(self):
        with pytest.raises(LPFormatError, match="outside"):
            parse_lp_format("3 x + 2 y\nMaximize\n obj: x\nEnd\n")

    def test_scipy_agrees_on_parsed_program(self):
        text = write_lp_format(_sample_lp())
        lp = parse_lp_format(text)
        simplex = solve_lp(lp, backend="simplex")
        highs = solve_lp(lp, backend="scipy")
        assert simplex.objective_value == pytest.approx(highs.objective_value)
