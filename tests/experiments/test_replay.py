"""Unit tests for the churn replay driver."""

import json

import pytest

from repro.core import GGGreedy, LocalSearch, RandomU, repair
from repro.datagen import (
    ChurnConfig,
    ChurnTrace,
    SyntheticConfig,
    generate_churn_trace,
    generate_synthetic,
)
from repro.experiments import format_replay_table, replay_trace
from repro.experiments.replay import lp_resolve_comparison
from repro.model import Delta, InstanceIndex, ShardedInstanceIndex, apply_delta
from repro.service import TickEngine
from tests.util import lower_dense_cap


def small_trace(seed=0, num_batches=4):
    instance = generate_synthetic(
        SyntheticConfig(num_events=12, num_users=50), seed=seed
    )
    config = ChurnConfig(
        num_batches=num_batches,
        user_arrival_rate=4.0,
        user_departure_rate=4.0,
        rebid_rate=6.0,
        event_open_rate=1.0,
        event_close_rate=1.0,
        conflict_toggle_rate=1.0,
    )
    return generate_churn_trace(instance, config, seed=seed + 1)


class TestReplay:
    def test_record_per_batch(self):
        report = replay_trace(small_trace(), seed=0)
        assert len(report.records) == 4
        assert report.algorithm == "gg+ls"
        for i, record in enumerate(report.records):
            assert record.batch == i
            assert record.feasible
            assert record.incremental_seconds > 0.0
            assert record.full_seconds > 0.0
            assert record.num_users >= 1
        assert report.all_feasible
        assert report.speedup is not None
        assert report.utility_retention is not None

    def test_parity_check(self):
        report = replay_trace(small_trace(), seed=0, check_parity=True)
        assert report.all_parity
        for record in report.records:
            assert record.parity_mismatches == []

    def test_no_full_side(self):
        report = replay_trace(small_trace(), seed=0, compare_full=False)
        assert report.mean_full_seconds is None
        assert report.speedup is None
        assert report.utility_retention is None
        for record in report.records:
            assert record.full_seconds is None
            assert record.full_utility is None
            assert record.speedup is None

    def test_custom_algorithm(self):
        report = replay_trace(small_trace(), algorithm=GGGreedy(), seed=0)
        assert report.algorithm == "gg"

    def test_to_dict_is_json_ready(self):
        report = replay_trace(small_trace(), seed=0, check_parity=True)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["algorithm"] == "gg+ls"
        assert len(payload["batches"]) == 4
        assert payload["all_feasible"] is True
        assert payload["all_parity"] is True
        assert payload["speedup"] == pytest.approx(report.speedup)

    def test_format_table(self):
        report = replay_trace(small_trace(num_batches=2), seed=0)
        text = format_replay_table(report)
        lines = text.splitlines()
        assert "replay: gg+ls" in lines[0]
        assert "speedup" in lines[1]
        assert len(lines) == 2 + 2 + 1  # header x2, 2 batches, summary
        assert "feasible: True" in lines[-1]

    def test_format_table_without_full_side(self):
        report = replay_trace(
            small_trace(num_batches=2), seed=0, compare_full=False
        )
        text = format_replay_table(report)
        assert "feasible: True" in text
        assert "speedup:" not in text.splitlines()[-1]


class TestLPResolveComparison:
    """The delta-patched LP chain against the HiGHS rebuild, per batch."""

    SUMMARY_KEYS = {
        "initial_seconds",
        "batches",
        "mean_patch_seconds",
        "mean_rebuild_seconds",
        "speedup",
        "iterations",
        "max_objective_diff",
    }

    @staticmethod
    def _assert_optima_agree(row, num_batches):
        assert set(row) == TestLPResolveComparison.SUMMARY_KEYS
        assert len(row["batches"]) == num_batches
        for batch in row["batches"]:
            assert batch["objective_diff"] <= 1e-6
            assert batch["patch_seconds"] > 0.0
            assert batch["rebuild_seconds"] > 0.0
        assert row["max_objective_diff"] <= 1e-6

    def test_churn_trace(self):
        instance = generate_synthetic(
            SyntheticConfig(num_events=12, num_users=60), seed=3
        )
        trace = generate_churn_trace(instance, ChurnConfig(num_batches=3), seed=4)
        row = lp_resolve_comparison(trace)
        self._assert_optima_agree(row, 3)
        assert not any(batch["rhs_only"] for batch in row["batches"])

    def test_capacity_shock_trace_is_rhs_only(self):
        instance = generate_synthetic(
            SyntheticConfig(num_events=12, num_users=60), seed=5
        )
        event_ids = [event.event_id for event in instance.events]
        deltas = [
            Delta(
                set_event_capacity=tuple(
                    (event_id, 1 + (event_id + shift) % 4)
                    for event_id in event_ids[shift::3]
                )
            )
            for shift in range(3)
        ]
        row = lp_resolve_comparison(ChurnTrace(initial=instance, deltas=deltas))
        self._assert_optima_agree(row, 3)
        assert all(batch["rhs_only"] for batch in row["batches"])


def hand_replay(trace, algorithm, seed):
    """The replay loop written out with the model and core calls: apply the
    batch, repair it, and re-solve a from-scratch rebuild beside it."""
    instance = trace.initial
    arrangement = algorithm.solve(instance, seed=seed).arrangement
    batches = []
    for batch, delta in enumerate(trace.deltas):
        result = apply_delta(instance, delta, arrangement)
        moves = repair(result)
        rebuilt = apply_delta(instance, delta, incremental=False).instance
        batches.append(
            {
                "pairs": sorted(result.arrangement.pairs),
                "utility": result.arrangement.utility(),
                "full_utility": algorithm.solve(rebuilt, seed=seed + 1 + batch).utility,
                "moves": moves,
                "dropped_pairs": len(result.dropped_pairs),
            }
        )
        instance, arrangement = result.instance, result.arrangement
    return batches


@pytest.mark.parametrize("index_class", [InstanceIndex, ShardedInstanceIndex])
def test_replay_matches_hand_written_loop(index_class, monkeypatch):
    """replay_trace on TickEngine's stages makes the same decisions as a
    plain apply_delta + repair loop, batch for batch, on both index kinds."""
    instance = generate_synthetic(
        SyntheticConfig(num_events=12, num_users=50), seed=3
    )
    instance.configure_index(sharded=index_class is ShardedInstanceIndex)
    assert type(instance.index) is index_class
    config = ChurnConfig(
        num_batches=4,
        user_arrival_rate=4.0,
        user_departure_rate=4.0,
        rebid_rate=6.0,
        conflict_toggle_rate=1.0,
        burst_every=2,
    )
    trace = generate_churn_trace(instance, config, seed=4)
    # A seeded base solver, so the full side's per-batch seeds matter.
    expected = hand_replay(trace, LocalSearch(RandomU()), seed=7)

    audited = []
    audit = TickEngine.audit

    def recording_audit(engine, result):
        audited.append(sorted(engine.arrangement.pairs))
        return audit(engine, result)

    monkeypatch.setattr(TickEngine, "audit", recording_audit)
    report = replay_trace(trace, LocalSearch(RandomU()), seed=7, compare_full=True)

    assert len(report.records) == len(expected) == 4
    for record, pairs, hand in zip(report.records, audited, expected):
        assert pairs == hand["pairs"]
        assert record.num_pairs == len(hand["pairs"])
        assert record.incremental_utility == hand["utility"]
        assert record.full_utility == hand["full_utility"]
        assert record.moves == hand["moves"]
        assert record.dropped_pairs == hand["dropped_pairs"]


class TestReplayCLI:
    def test_replay_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "replay.json"
        code = main(
            [
                "replay",
                "--users", "40",
                "--events", "10",
                "--batches", "2",
                "--arrival-rate", "3",
                "--departure-rate", "3",
                "--rebid-rate", "4",
                "--check-parity",
                "--out", str(out),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "replay: gg+ls" in output
        assert "index parity (bit-identical): True" in output
        payload = json.loads(out.read_text())
        assert payload["all_parity"] is True
        assert len(payload["batches"]) == 2

    def test_replay_subcommand_sharded(self, tmp_path, capsys, monkeypatch):
        """With the dense cap far below 60 x 10 cells the CLI picks the CSR
        index by size, for the initial platform and every successor (the
        full rebuilds included), and every parity check passes on it."""
        from repro.cli import main
        from repro.model.index import BaseInstanceIndex

        lower_dense_cap(monkeypatch, 100)
        built = []
        finalize = BaseInstanceIndex._finalize

        def recording_finalize(index):
            built.append(type(index))
            finalize(index)

        monkeypatch.setattr(BaseInstanceIndex, "_finalize", recording_finalize)
        out = tmp_path / "replay.json"
        code = main(
            [
                "replay",
                "--users", "60",
                "--events", "10",
                "--batches", "2",
                "--arrival-rate", "3",
                "--departure-rate", "3",
                "--rebid-rate", "4",
                "--check-parity",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert built and set(built) == {ShardedInstanceIndex}
        output = capsys.readouterr().out
        assert "index parity (bit-identical): True" in output
        payload = json.loads(out.read_text())
        assert payload["all_parity"] is True

    def test_parity_failure_exits_nonzero(self, monkeypatch, capsys):
        """--check-parity must fail the command when parity breaks, not
        just print False."""
        import repro.cli as cli_module
        from repro.cli import main
        from repro.experiments import BatchRecord, ReplayReport

        broken = ReplayReport(
            algorithm="gg+ls", initial_utility=1.0, initial_solve_seconds=0.0
        )
        broken.records.append(
            BatchRecord(
                batch=0,
                operations={},
                num_users=1,
                num_events=1,
                num_pairs=0,
                incremental_seconds=0.001,
                full_seconds=0.002,
                incremental_utility=1.0,
                full_utility=1.0,
                dropped_pairs=0,
                moves={},
                feasible=True,
                parity_mismatches=["SI"],
            )
        )
        monkeypatch.setattr(cli_module, "replay_trace", lambda *a, **k: broken)
        code = main(
            ["replay", "--users", "10", "--events", "4", "--batches", "1",
             "--check-parity"]
        )
        assert code == 1
        assert "index parity (bit-identical): False" in capsys.readouterr().out
