"""``igepa metrics`` end to end: ingest → report → check exit codes."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import persistence
from repro.experiments.persistence import write_bench_artifact
from repro.metrics import HistoryStore, Sample

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SEED_HISTORY = REPO_ROOT / "benchmarks" / "history" / "history.jsonl"


def write_history(path, values, metric="retention_auc", kind="simulation"):
    store = HistoryStore(path)
    for i, v in enumerate(values):
        store.append(
            Sample(
                sha=f"sha{i}",
                timestamp_utc=f"2026-07-{i + 1:02d}T00:00:00+00:00",
                kind=kind,
                metrics={metric: v},
            )
        )
    return path


def write_smoke_artifact(path):
    write_bench_artifact(
        "bench_smoke",
        {"seed": 0, "sizes": [100]},
        [
            {
                "num_users": 100,
                "algorithm": "gg",
                "runtime_seconds": 0.01,
                "utility": 50.0,
            }
        ],
        path=path,
    )
    return path


class TestIngest:
    def test_ingest_artifact_appends_and_dedupes(self, tmp_path, capsys, monkeypatch):
        # Pin the provenance sha: a checkout without git metadata stamps
        # "unknown", which the store never dedupes (next test).
        monkeypatch.setattr(persistence, "_GIT_SHA_CACHE", "0123abcd")
        artifact = write_smoke_artifact(tmp_path / "BENCH_smoke.json")
        history = tmp_path / "history.jsonl"
        argv = ["metrics", "ingest", str(artifact), "--history", str(history)]
        assert main(argv) == 0
        assert "ingested 1 sample(s)" in capsys.readouterr().out
        assert main(argv) == 0  # idempotent second run
        assert "ingested 0 sample(s)" in capsys.readouterr().out
        assert len(history.read_text().splitlines()) == 1

    def test_unknown_sha_artifact_appends_every_time(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(persistence, "_GIT_SHA_CACHE", "unknown")
        artifact = write_smoke_artifact(tmp_path / "BENCH_smoke.json")
        history = tmp_path / "history.jsonl"
        argv = ["metrics", "ingest", str(artifact), "--history", str(history)]
        for _ in range(2):
            assert main(argv) == 0
            assert "ingested 1 sample(s)" in capsys.readouterr().out
        assert len(history.read_text().splitlines()) == 2


class TestCheck:
    def test_injected_slump_exits_nonzero(self, tmp_path, capsys):
        # The acceptance scenario: >=20% retention_auc slump must fail.
        history = write_history(
            tmp_path / "h.jsonl", [0.95, 0.94, 0.96, 0.95, 0.75]
        )
        assert main(["metrics", "check", "--history", str(history)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "retention_auc" in out

    def test_flat_history_exits_zero(self, tmp_path, capsys):
        history = write_history(
            tmp_path / "h.jsonl", [0.95, 0.94, 0.96, 0.95, 0.95]
        )
        assert main(["metrics", "check", "--history", str(history)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_improving_history_exits_zero(self, tmp_path):
        history = write_history(
            tmp_path / "h.jsonl", [0.90, 0.92, 0.94, 0.96, 0.98]
        )
        assert main(["metrics", "check", "--history", str(history)]) == 0

    def test_metric_filter_and_unknown_metric(self, tmp_path):
        history = write_history(
            tmp_path / "h.jsonl", [0.95, 0.95, 0.95, 0.95, 0.70]
        )
        argv = ["metrics", "check", "--history", str(history)]
        assert main([*argv, "--metrics", "serve_p99_ms"]) == 0
        assert main([*argv, "--metrics", "retention_auc"]) == 1
        assert main([*argv, "--metrics", "no_such_metric"]) == 2

    def test_empty_history_passes(self, tmp_path):
        absent = tmp_path / "none.jsonl"
        assert main(["metrics", "check", "--history", str(absent)]) == 0

    def test_committed_seed_history_passes(self):
        # The history CI seeds its trajectory gate from must itself be
        # regression-free, or every PR build fails out of the gate.
        assert SEED_HISTORY.exists(), "seed history missing"
        assert main(["metrics", "check", "--history", str(SEED_HISTORY)]) == 0


class TestReport:
    def test_report_renders_and_writes(self, tmp_path, capsys):
        history = write_history(
            tmp_path / "h.jsonl", [0.95, 0.94, 0.96, 0.95, 0.95]
        )
        out_file = tmp_path / "trend.txt"
        assert (
            main(
                [
                    "metrics",
                    "report",
                    "--history",
                    str(history),
                    "--out",
                    str(out_file),
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "retention_auc" in text
        assert out_file.exists()
        assert "retention_auc" in out_file.read_text()

    def test_list_prints_registry(self, capsys):
        assert main(["metrics", "list"]) == 0
        out = capsys.readouterr().out
        assert "retention_auc" in out
        assert "serve_p99_ms" in out


class TestEndToEnd:
    def test_simulate_out_ingests_and_checks(self, tmp_path):
        # igepa simulate --out → igepa metrics ingest → check: the whole
        # pipeline over a real (tiny) report envelope.
        report_path = tmp_path / "sim.json"
        assert (
            main(
                [
                    "simulate",
                    "--users",
                    "60",
                    "--events",
                    "15",
                    "--batches",
                    "3",
                    "--oracle-every",
                    "2",
                    "--out",
                    str(report_path),
                ]
            )
            == 0
        )
        payload = json.loads(report_path.read_text())
        assert payload["kind"] == "simulation"
        assert "provenance" in payload
        history = tmp_path / "h.jsonl"
        assert (
            main(
                [
                    "metrics",
                    "ingest",
                    str(report_path),
                    "--history",
                    str(history),
                ]
            )
            == 0
        )
        store = HistoryStore(history)
        frame = store.load()
        assert len(frame) == 1
        assert "final_retention" in frame.samples[0].metrics
        assert main(["metrics", "check", "--history", str(history)]) == 0


@pytest.mark.parametrize("command", [["metrics", "list"], ["metrics", "check"]])
def test_subcommands_reachable_from_parser(command, tmp_path, monkeypatch):
    # `igepa metrics` must stay wired into the main parser.
    monkeypatch.chdir(tmp_path)  # default history path resolves locally
    assert main(command) == 0
