"""Unit tests for experiment result persistence."""

import json

import pytest

from repro.core import GGGreedy, RandomU
from repro.datagen import SyntheticConfig
from repro.experiments import run_sweep
from repro.experiments.persistence import (
    FORMAT_VERSION,
    load_stats,
    load_sweep,
    save_stats,
    save_sweep,
    stats_from_dict,
    stats_to_dict,
)
from repro.experiments.reporting import format_sweep_table
from repro.experiments.runner import AlgorithmStats, run_on_instance
from tests.util import random_instance


def _small_sweep():
    return run_sweep(
        "num_events",
        [4, 8],
        base_config=SyntheticConfig(num_events=8, num_users=20),
        algorithm_factory=lambda: [GGGreedy(), RandomU()],
        repetitions=2,
    )


class TestStatsRoundTrip:
    def test_field_preservation(self):
        stats = AlgorithmStats(
            "gg", utilities=[1.5, 2.5], runtimes=[0.01, 0.02], pair_counts=[3, 4]
        )
        restored = stats_from_dict(stats_to_dict(stats))
        assert restored.algorithm == "gg"
        assert restored.utilities == [1.5, 2.5]
        assert restored.mean_utility == stats.mean_utility
        assert restored.pair_counts == [3, 4]

    def test_fixed_instance_stats_file(self, tmp_path):
        instance = random_instance(seed=0)
        stats = run_on_instance(
            instance, algorithms=[GGGreedy(), RandomU()], repetitions=2
        )
        path = tmp_path / "table.json"
        save_stats(stats, path, label="test run")
        restored = load_stats(path)
        assert set(restored) == set(stats)
        for name in stats:
            assert restored[name].utilities == stats[name].utilities


class TestSweepRoundTrip:
    def test_sweep_file_round_trip(self, tmp_path):
        sweep = _small_sweep()
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        restored = load_sweep(path)
        assert restored.parameter == sweep.parameter
        assert restored.values == sweep.values
        assert restored.repetitions == sweep.repetitions
        for name in ("gg", "random-u"):
            assert restored.series(name) == sweep.series(name)

    def test_restored_sweep_renders_identically(self, tmp_path):
        sweep = _small_sweep()
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        restored = load_sweep(path)
        assert format_sweep_table(restored) == format_sweep_table(sweep)

    def test_file_is_plain_json(self, tmp_path):
        sweep = _small_sweep()
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == FORMAT_VERSION
        assert payload["kind"] == "sweep"
        # Written payloads carry the provenance block the history store
        # keys on (version-1 archives load without one).
        assert set(payload["provenance"]) >= {
            "git_sha",
            "timestamp_utc",
            "host",
            "python",
            "numpy",
        }


class TestVersionGuards:
    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99, "kind": "sweep"}))
        with pytest.raises(ValueError, match="version"):
            load_sweep(path)

    def test_kind_mismatch_rejected(self, tmp_path):
        sweep = _small_sweep()
        path = tmp_path / "sweep.json"
        save_sweep(sweep, path)
        with pytest.raises(ValueError, match="not a stats payload"):
            load_stats(path)

    def test_unknown_kind_rejected(self, tmp_path):
        from repro.experiments.persistence import load_report

        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"format_version": 2, "kind": "mystery"})
        )
        with pytest.raises(ValueError, match="unknown report kind"):
            load_report(path)

    def test_version_1_payload_still_loads(self, tmp_path):
        # Archives from before the provenance block must keep loading.
        from repro.experiments.persistence import load_report

        path = tmp_path / "old.json"
        path.write_text(
            json.dumps(
                {"format_version": 1, "kind": "replay", "batches": []}
            )
        )
        envelope = load_report(path)
        assert envelope.version == 1
        assert envelope.provenance is None
        assert envelope.records == []


class TestUnifiedLoader:
    """load_report is the single entry point over every registered kind."""

    def test_dump_load_dump_is_bit_stable(self, tmp_path):
        # Round trip for each report class: the written payload minus the
        # write-time provenance block must equal to_dict() exactly.
        from repro.experiments.persistence import load_report, save_report
        from repro.experiments.replay import ReplayReport

        report = ReplayReport(
            algorithm="gg", initial_utility=2.0, initial_solve_seconds=0.1
        )
        path = tmp_path / "replay.json"
        save_report(report, path)
        loaded = load_report(path, expect_kind="replay")
        stripped = {
            k: v for k, v in loaded.payload.items() if k != "provenance"
        }
        assert stripped == report.to_dict()
        # Deterministic snapshots: a second dump is bit-identical.
        assert json.dumps(report.to_dict(), sort_keys=True) == json.dumps(
            report.to_dict(), sort_keys=True
        )

    def test_every_registered_kind_round_trips(self, tmp_path):
        from repro.experiments.persistence import (
            KIND_REGISTRY,
            load_report,
            report_to_dict,
            save_report,
        )

        for kind, spec in KIND_REGISTRY.items():
            records_key = spec.records_key or "batches"
            payload = report_to_dict(
                kind,
                {"label": f"fixture-{kind}"},
                [{"row": 1}] if spec.records_key else [],
                records_key=records_key,
            )
            path = tmp_path / f"{kind}.json"
            written = save_report(payload, path)
            loaded = load_report(path, expect_kind=kind)
            assert loaded.payload == written
            assert loaded.summary["label"] == f"fixture-{kind}"
            if spec.records_key:
                assert loaded.records == [{"row": 1}]
            else:
                assert loaded.records == []

    def test_report_classes_satisfy_envelope_protocol(self):
        # ReportEnvelope has a data member, so issubclass() is off the
        # table — assert the structural contract save_report relies on.
        from repro.core.analysis import RatioReport
        from repro.experiments.persistence import KIND_REGISTRY
        from repro.experiments.replay import ReplayReport
        from repro.experiments.simulate import SimulationReport
        from repro.service.report import ServeReport

        for cls in (ReplayReport, SimulationReport, ServeReport, RatioReport):
            assert cls.envelope_kind in KIND_REGISTRY, cls.__name__
            assert callable(cls.to_dict), cls.__name__

    def test_ratio_report_routes_through_envelope(self):
        from repro.core.analysis import RatioReport

        payload = RatioReport(
            algorithm="gg", utilities=[1.0, 3.0], lp_bound=5.0, exact_optimum=None
        ).to_dict()
        assert payload["format_version"] == FORMAT_VERSION
        assert payload["kind"] == "ratio"
        assert payload["ratio_vs_lp"] == pytest.approx(0.4)

    def test_unregistered_kind_rejected_at_build_time(self):
        from repro.experiments.persistence import report_to_dict

        with pytest.raises(ValueError, match="unknown report kind"):
            report_to_dict("mystery", {}, [])

    def test_summary_may_not_shadow_envelope_keys(self):
        from repro.experiments.persistence import report_to_dict

        with pytest.raises(ValueError, match="shadow"):
            report_to_dict("replay", {"provenance": {}}, [])

    def test_records_key_must_match_registry(self):
        from repro.experiments.persistence import report_to_dict

        with pytest.raises(ValueError, match="stores records under"):
            report_to_dict("simulation", {}, [], records_key="batches")


class TestBenchArtifacts:
    def test_write_bench_artifact_carries_envelope_and_provenance(
        self, tmp_path
    ):
        from repro.experiments.persistence import (
            load_report,
            write_bench_artifact,
        )

        path = tmp_path / "BENCH_churn.json"
        write_bench_artifact(
            "bench_churn",
            {"seed": 0, "largest_speedup": 7.5},
            [{"num_users": 1000, "num_batches": 4}],
            path=path,
        )
        envelope = load_report(path, expect_kind="bench_churn")
        assert envelope.version == FORMAT_VERSION
        assert envelope.summary["largest_speedup"] == 7.5
        assert envelope.records == [{"num_users": 1000, "num_batches": 4}]
        assert set(envelope.provenance) >= {
            "git_sha",
            "timestamp_utc",
            "host",
            "python",
            "numpy",
        }

    def test_unknown_bench_kind_rejected(self, tmp_path):
        from repro.experiments.persistence import write_bench_artifact

        with pytest.raises(ValueError, match="unknown bench kind"):
            write_bench_artifact(
                "bench_mystery", {}, path=tmp_path / "x.json"
            )


class TestReportEnvelope:
    def test_report_to_dict_envelope(self):
        from repro.experiments.persistence import report_to_dict

        payload = report_to_dict(
            "simulation",
            {"all_feasible": True},
            [{"tick": 0}],
            records_key="ticks",
        )
        assert payload["format_version"] == FORMAT_VERSION
        assert payload["kind"] == "simulation"
        assert payload["all_feasible"] is True
        assert payload["ticks"] == [{"tick": 0}]

    def test_replay_report_uses_envelope(self):
        """Regression for the shared-serialization satellite: replay used to
        hand-roll its dict without the version/kind envelope."""
        from repro.experiments.replay import ReplayReport

        payload = ReplayReport(
            algorithm="gg", initial_utility=1.0, initial_solve_seconds=0.0
        ).to_dict()
        assert payload["format_version"] == FORMAT_VERSION
        assert payload["kind"] == "replay"
        assert payload["batches"] == []
