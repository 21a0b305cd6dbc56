"""The history store: JSONL append, dedupe-by-(sha, kind), ingestion."""

import json

import pytest

from repro.experiments import persistence
from repro.experiments.persistence import write_bench_artifact
from repro.metrics import HistoryFrame, HistoryStore, Sample, sample_from_payload


def sample(sha="abc", kind="simulation", ts="2026-08-01T00:00:00+00:00", **metrics):
    return Sample(
        sha=sha,
        timestamp_utc=ts,
        kind=kind,
        metrics=metrics or {"retention_auc": 0.9},
    )


class TestAppendAndDedupe:
    def test_append_then_load_round_trips(self, tmp_path):
        store = HistoryStore(tmp_path / "history.jsonl")
        assert store.append(sample())
        frame = store.load()
        assert len(frame) == 1
        assert frame.samples[0].sha == "abc"
        assert frame.samples[0].metrics == {"retention_auc": 0.9}

    def test_same_sha_and_kind_dedupes(self, tmp_path):
        store = HistoryStore(tmp_path / "history.jsonl")
        assert store.append(sample())
        assert not store.append(sample(retention_auc=0.1))
        assert len(store.load()) == 1

    def test_same_sha_different_kind_both_kept(self, tmp_path):
        store = HistoryStore(tmp_path / "history.jsonl")
        assert store.append(sample(kind="simulation"))
        assert store.append(sample(kind="serve"))
        assert len(store.load()) == 2

    def test_unknown_sha_never_dedupes(self, tmp_path):
        # Local runs without git metadata must still accumulate.
        store = HistoryStore(tmp_path / "history.jsonl")
        assert store.append(sample(sha="unknown", ts=""))
        assert store.append(sample(sha="unknown", ts=""))
        assert len(store.load()) == 2

    def test_last_line_wins_within_key(self, tmp_path):
        # A force-pushed sha's corrected numbers supersede on load even
        # though the file is append-only.
        path = tmp_path / "history.jsonl"
        rows = [
            sample(retention_auc=0.5).to_dict(),
            sample(retention_auc=0.9).to_dict(),
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        frame = HistoryStore(path).load()
        assert len(frame) == 1
        assert frame.samples[0].metrics["retention_auc"] == 0.9

    def test_chronological_order_on_load(self, tmp_path):
        path = tmp_path / "history.jsonl"
        rows = [
            sample(sha="b", ts="2026-08-02T00:00:00+00:00").to_dict(),
            sample(sha="a", ts="2026-08-01T00:00:00+00:00").to_dict(),
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        frame = HistoryStore(path).load()
        assert [s.sha for s in frame] == ["a", "b"]

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_text(json.dumps(sample().to_dict()) + "\nnot json\n")
        with pytest.raises(ValueError, match="history.jsonl:2"):
            HistoryStore(path).load()

    def test_missing_file_loads_empty(self, tmp_path):
        assert len(HistoryStore(tmp_path / "absent.jsonl").load()) == 0


class TestSampleFromPayload:
    def test_provenance_keys_the_sample(self):
        payload = {
            "kind": "simulation",
            "final_retention": 0.9,
            "provenance": {
                "git_sha": "deadbeef",
                "timestamp_utc": "2026-08-08T00:00:00+00:00",
                "host": "runner-1",
            },
        }
        out = sample_from_payload(payload, source="SOAK_simulate.json")
        assert out.sha == "deadbeef"
        assert out.host == "runner-1"
        assert out.source == "SOAK_simulate.json"
        assert out.metrics == {"final_retention": 0.9}

    def test_v1_payload_without_provenance_records_unknown(self):
        out = sample_from_payload({"kind": "simulation", "final_retention": 0.9})
        assert out.sha == "unknown"

    def test_payload_without_metrics_returns_none(self):
        assert sample_from_payload({"kind": "stats", "label": "x"}) is None


class TestIngest:
    def test_ingest_bench_artifact_end_to_end(self, tmp_path, monkeypatch):
        # Pin the provenance sha: without git metadata it reads "unknown",
        # which never dedupes (TestAppendAndDedupe).
        monkeypatch.setattr(persistence, "_GIT_SHA_CACHE", "0123abcd")
        artifact = tmp_path / "BENCH_smoke.json"
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
            path=artifact,
        )
        store = HistoryStore(tmp_path / "history.jsonl")
        appended, skipped = store.ingest([artifact])
        assert (appended, skipped) == (1, 0)
        # Same artifact, same sha: idempotent.
        appended, skipped = store.ingest([artifact])
        assert (appended, skipped) == (0, 1)
        frame = store.load()
        assert frame.samples[0].kind == "bench_smoke"
        assert frame.samples[0].source == "BENCH_smoke.json"
        assert frame.samples[0].metrics["smoke_runtime_ms"] == pytest.approx(10.0)

    def test_ingest_rejects_unenveloped_artifact(self, tmp_path):
        bad = tmp_path / "raw.json"
        bad.write_text(json.dumps({"speedup": 3.0}))
        with pytest.raises(ValueError, match="version"):
            HistoryStore(tmp_path / "history.jsonl").ingest([bad])


class TestFrameSeries:
    def test_series_is_chronological_and_kind_filterable(self):
        frame = HistoryFrame(
            [
                sample(sha="a", ts="2026-08-01T00:00:00+00:00", retention_auc=0.9),
                sample(
                    sha="b",
                    ts="2026-08-02T00:00:00+00:00",
                    kind="bench_dynamic",
                    retention_auc=0.8,
                ),
                sample(sha="c", ts="2026-08-03T00:00:00+00:00", retention_auc=0.95),
            ]
        )
        all_points = [v for _, v in frame.series("retention_auc")]
        assert all_points == [0.9, 0.8, 0.95]
        sim_only = [v for _, v in frame.series("retention_auc", kind="simulation")]
        assert sim_only == [0.9, 0.95]
        assert frame.metric_names() == ["retention_auc"]
        assert frame.kinds() == ["bench_dynamic", "simulation"]
