"""The metric registry: extractor dispatch, totality, directions."""

import math

import pytest

from repro.experiments.persistence import KIND_REGISTRY
from repro.metrics import METRICS, Metric, extract_metrics, metrics_for_kind, register_metric


def simulation_payload(**overrides):
    payload = {
        "format_version": 2,
        "kind": "simulation",
        "retention_curve": [[0, 1.0], [5, 0.9], [10, 0.95]],
        "final_retention": 0.95,
        "arrival_acceptance_rate": 0.8,
        "mean_tick_seconds": 0.012,
        "ticks": [{"repair_debt": 0.5}, {"repair_debt": 1.5}],
    }
    payload.update(overrides)
    return payload


class TestRegistryShape:
    def test_every_metric_kind_is_registered(self):
        # An extractor bound to a kind load_report would reject can never
        # fire — typo guard between the two registries.
        for metric in METRICS.values():
            for kind in metric.kinds:
                assert kind in KIND_REGISTRY, (metric.name, kind)

    def test_every_metric_has_direction_and_threshold(self):
        for metric in METRICS.values():
            assert metric.direction in ("up", "down")
            assert 0.0 < metric.max_relative_drop <= 1.0

    def test_headline_metrics_present(self):
        expected = {
            "retention_auc",
            "repair_debt_mean",
            "serve_p99_ms",
            "peak_rss_mb",
            "answered_per_sec",
        }
        assert expected <= set(METRICS)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_metric(
                Metric("retention_auc", "dupe", "ratio", "up", 0.1, {})
            )

    def test_metrics_for_kind(self):
        names = {m.name for m in metrics_for_kind("simulation")}
        assert "retention_auc" in names
        assert "serve_p99_ms" not in names


class TestExtraction:
    def test_simulation_payload_yields_expected_values(self):
        values = extract_metrics(simulation_payload())
        # Trapezoid area over [(0,1),(5,.9),(10,.95)] / span 10.
        assert values["retention_auc"] == pytest.approx(0.9375)
        assert values["final_retention"] == 0.95
        assert values["repair_debt_mean"] == pytest.approx(1.0)
        assert values["mean_tick_ms"] == pytest.approx(12.0)

    def test_missing_fields_are_omitted_not_errors(self):
        values = extract_metrics({"format_version": 2, "kind": "simulation"})
        assert values == {}

    def test_single_point_curve_degenerates_to_its_value(self):
        values = extract_metrics(
            simulation_payload(retention_curve=[[3, 0.87]])
        )
        assert values["retention_auc"] == pytest.approx(0.87)

    def test_non_finite_values_dropped(self):
        values = extract_metrics(
            simulation_payload(final_retention=math.nan, mean_tick_seconds=math.inf)
        )
        assert "final_retention" not in values
        assert "mean_tick_ms" not in values

    def test_unknown_kind_yields_nothing(self):
        assert extract_metrics({"kind": "mystery"}) == {}

    def test_bench_dynamic_reads_nested_defrag_on(self):
        payload = {
            "kind": "bench_dynamic",
            "acceptance_defrag_on": 0.75,
            "defrag_on": simulation_payload(),
        }
        values = extract_metrics(payload)
        assert values["retention_auc"] == pytest.approx(0.9375)
        assert values["arrival_acceptance"] == 0.75

    def test_bench_churn_reads_largest_rung(self):
        payload = {
            "kind": "bench_churn",
            "largest_speedup": 9.0,
            "instances": [
                {"num_users": 1000, "mean_incremental_seconds": 0.002},
                {"num_users": 4000, "mean_incremental_seconds": 0.008},
            ],
        }
        values = extract_metrics(payload)
        # Per-rung fields come from the largest rung only.
        assert values["incremental_ms_per_batch"] == pytest.approx(8.0)
        assert values["churn_speedup"] == 9.0

    def test_bench_shard_prefers_columnar_gate(self):
        base = {"kind": "bench_shard", "scale": {"peak_delta_mb": 60.0}}
        assert extract_metrics(base)["peak_rss_mb"] == 60.0
        with_columnar = dict(base, columnar={"peak_delta_mb": 900.0})
        assert extract_metrics(with_columnar)["peak_rss_mb"] == 900.0

    def test_serve_latency_converted_to_ms(self):
        payload = {
            "kind": "serve",
            "p99_latency": 0.25,
            "arrivals_per_second": 140.0,
            "final_utility": 123.0,
        }
        values = extract_metrics(payload)
        assert values["serve_p99_ms"] == pytest.approx(250.0)
        assert values["answered_per_sec"] == 140.0
        assert values["serve_final_utility"] == 123.0
