"""Unit tests for the dynamic-platform simulator."""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.core.online import OnlineRandom
from repro.datagen import (
    ChurnConfig,
    SyntheticConfig,
    generate_churn_trace,
    generate_synthetic,
)
from repro.experiments.simulate import (
    DefragSchedule,
    PeriodicDefrag,
    RetentionDefrag,
    format_simulation_table,
    simulate,
)

CHURN = ChurnConfig(
    num_batches=5,
    user_arrival_rate=6.0,
    user_departure_rate=6.0,
    rebid_rate=10.0,
    drift_rate=5.0,
    capacity_shock_rate=2.0,
    burst_every=3,
    burst_capacity_shrink_fraction=0.25,
)


def _trace(seed=0, num_users=150, config=CHURN):
    instance = generate_synthetic(
        SyntheticConfig(num_users=num_users, num_events=30), seed=seed
    )
    return generate_churn_trace(instance, config, seed=seed + 1)


class TestSchedules:
    def test_base_schedule_never_runs(self):
        schedule = DefragSchedule()
        assert not schedule.should_run(9, 1.0, 100.0)
        assert schedule.name == "none"

    def test_periodic_fires_every_kth_tick(self):
        schedule = PeriodicDefrag(3)
        fired = [t for t in range(9) if schedule.should_run(t, 1.0, None)]
        assert fired == [2, 5, 8]

    def test_periodic_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            PeriodicDefrag(0)

    def test_retention_trigger(self):
        schedule = RetentionDefrag(0.9)
        assert not schedule.should_run(0, 95.0, None)  # no oracle yet
        assert not schedule.should_run(0, 95.0, 100.0)
        assert schedule.should_run(0, 89.0, 100.0)

    def test_retention_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            RetentionDefrag(0.0)
        with pytest.raises(ValueError):
            RetentionDefrag(1.5)


class TestSimulate:
    def test_ticks_feasible_and_parity(self):
        report = simulate(_trace(), seed=0, oracle_every=2, check_parity=True)
        assert len(report.records) == CHURN.num_batches
        assert report.all_feasible
        assert report.all_parity
        # Every tick's arrivals/acceptance accounting is consistent.
        for record in report.records:
            assert 0 <= record.accepted <= record.arrivals
        assert 0.0 <= report.arrival_acceptance_rate <= 1.0

    def test_oracle_cadence_and_retention_curve(self):
        report = simulate(_trace(), seed=0, oracle_every=2)
        oracle_ticks = [
            r.tick for r in report.records if r.oracle_utility is not None
        ]
        # Every 2nd tick plus the final tick.
        assert oracle_ticks == [1, 3, 4]
        assert [t for t, _v in report.retention_curve] == oracle_ticks
        assert report.long_horizon_retention is not None
        assert report.final_retention == report.retention_curve[-1][1]
        # Repair debt is defined from the first oracle tick onwards.
        assert report.records[0].repair_debt is None
        assert all(r.repair_debt is not None for r in report.records[1:])

    def test_no_oracle_leaves_retention_none(self):
        report = simulate(_trace(), seed=0)
        assert report.long_horizon_retention is None
        assert report.retention_curve == []
        assert all(r.repair_debt is None for r in report.records)

    def test_periodic_defrag_runs_and_never_loses_utility(self):
        trace = _trace()
        off = simulate(trace, seed=0)
        on = simulate(trace, seed=0, defrag=PeriodicDefrag(2))
        assert off.defrag_count == 0
        assert on.defrag_count == len(trace.deltas) // 2
        # Same trace, same seed: defrag ticks only ever add utility.
        for tick, (a, b) in enumerate(zip(off.records, on.records)):
            if b.defrag:
                assert b.defrag_moves is not None
                assert "lp_utility" in b.defrag_moves
        assert on.records[-1].utility >= off.records[-1].utility

    def test_online_random_policy_runs(self):
        report = simulate(_trace(), OnlineRandom(), seed=0)
        assert report.online_algorithm == "online-random"
        assert report.all_feasible

    def test_to_dict_shares_replay_envelope(self):
        from repro.experiments.replay import replay_trace

        trace = _trace()
        sim_payload = json.loads(
            json.dumps(simulate(trace, seed=0, oracle_every=2).to_dict())
        )
        replay_payload = replay_trace(trace, seed=0, compare_full=False).to_dict()
        assert sim_payload["format_version"] == replay_payload["format_version"]
        assert sim_payload["kind"] == "simulation"
        assert replay_payload["kind"] == "replay"
        assert len(sim_payload["ticks"]) == CHURN.num_batches
        for key in ("retention", "repair_debt", "acceptance_rate", "feasible"):
            assert key in sim_payload["ticks"][0]

    def test_retired_incremental_lp_keyword_warns_and_changes_nothing(self):
        trace = _trace(seed=4)
        options = {"seed": 0, "oracle_every": 2, "defrag": PeriodicDefrag(1)}
        with pytest.warns(DeprecationWarning, match="defrag_lp_incremental"):
            retired = simulate(trace, defrag_lp_incremental=True, **options)
        plain = simulate(trace, **options)

        def untimed(report):
            return [
                {k: v for k, v in dataclasses.asdict(r).items() if k != "seconds"}
                for r in report.records
            ]

        assert any(r.defrag for r in plain.records)
        assert untimed(retired) == untimed(plain)

    def test_lp_first_ticks_record_no_repair(self):
        """An adopted LP-first defrag ran no repair: its record says None,
        and the table and the JSON report carry that through."""
        report = simulate(_trace(), seed=0, defrag=PeriodicDefrag(2), oracle_every=2)
        adopted = [
            r for r in report.records if r.defrag and r.defrag_moves["lp_adopted"]
        ]
        assert adopted and all(r.repair_moves is None for r in adopted)
        assert all(r.repair_moves is not None for r in report.records if not r.defrag)
        payload = json.loads(json.dumps(report.to_dict()))
        assert [tick["repair_moves"] is None for tick in payload["ticks"]] == [
            r.repair_moves is None for r in report.records
        ]
        table = format_simulation_table(report)
        assert len(table.splitlines()) == CHURN.num_batches + 3

    def test_failed_defrag_lp_falls_back_to_repair_and_sweep(self, monkeypatch):
        from repro.core.lp_packing import LPPacking, LPPackingError

        def failing(self, instance, seed=None):
            raise LPPackingError("injected")

        monkeypatch.setattr(LPPacking, "solve", failing)
        trace = _trace()
        report = simulate(
            trace, seed=0, defrag=PeriodicDefrag(1), oracle_every=2, check_parity=True
        )
        assert len(report.records) == len(trace.deltas)
        assert report.all_feasible and report.all_parity
        for record, delta in zip(report.records, trace.deltas):
            assert record.defrag_moves["lp_failed"]
            assert not record.defrag_moves["lp_adopted"]
            assert record.repair_moves is not None
            assert record.defrag_moves["passes"] > 0
            assert record.arrivals == len(delta.add_users)
            assert 0 <= record.accepted <= record.arrivals

    def test_format_table(self):
        report = simulate(_trace(), seed=0, oracle_every=2)
        table = format_simulation_table(report)
        assert "simulate: online-greedy" in table
        assert "retention" in table or "retain" in table
        assert len(table.splitlines()) == CHURN.num_batches + 3


class TestCLI:
    def test_simulate_subcommand(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        code = main(
            [
                "simulate",
                "--users", "120",
                "--events", "25",
                "--batches", "3",
                "--oracle-every", "2",
                "--defrag", "periodic",
                "--defrag-period", "2",
                "--no-defrag-lp",
                "--check-parity",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "simulation"
        assert payload["all_feasible"] is True
        assert payload["all_parity"] is True
        assert payload["defrag_count"] == 1
        output = capsys.readouterr().out
        assert "index parity (bit-identical): True" in output

    def test_simulate_retention_schedule_parses(self, capsys):
        code = main(
            [
                "simulate",
                "--users", "80",
                "--events", "20",
                "--batches", "2",
                "--defrag", "retention",
                "--defrag-threshold", "0.9",
                "--no-defrag-lp",
            ]
        )
        assert code == 0
        assert "defrag retention-0.9" in capsys.readouterr().out
