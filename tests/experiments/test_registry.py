"""Unit tests for the experiment registry (reduced scales)."""

import pytest

from repro.datagen import MeetupConfig, SyntheticConfig
from repro.experiments import EXPERIMENTS, run_experiment


class TestRegistryContents:
    def test_every_paper_artefact_registered(self):
        assert sorted(EXPERIMENTS) == [
            "fig1a", "fig1b", "fig1c", "fig1d", "fig1e", "fig1f", "table2",
        ]

    def test_descriptions_and_expectations_present(self):
        for experiment in EXPERIMENTS.values():
            assert experiment.description
            assert experiment.paper_expectation

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig7")


class TestFigureExperiments:
    def test_figure_runs_at_reduced_scale(self):
        report = run_experiment(
            "fig1c",
            repetitions=1,
            seed=0,
            base_config=SyntheticConfig(num_events=12, num_users=30),
        )
        assert report.experiment_id == "fig1c"
        assert "varying pcf" in report.text
        assert "lp-packing" in report.text
        assert report.ranking
        assert "lp-packing" in report.ranking
        sweep = report.data
        assert sweep.values == [0.1, 0.2, 0.3, 0.4, 0.5]

    def test_report_ranking_reflects_last_grid_point(self):
        report = run_experiment(
            "fig1a",
            repetitions=1,
            seed=0,
            base_config=SyntheticConfig(num_events=10, num_users=25),
        )
        assert "lp-packing" in report.ranking


class TestTable2Experiment:
    def test_table2_reduced_scale(self):
        report = run_experiment(
            "table2",
            repetitions=2,
            seed=0,
            config=MeetupConfig(num_events=20, num_users=60, num_groups=5),
        )
        assert report.experiment_id == "table2"
        assert "Table II" in report.text
        assert "20 events, 60 users" in report.text
        stats = report.data
        assert set(stats) == {"lp-packing", "random-u", "random-v", "gg"}
        for record in stats.values():
            assert len(record.utilities) == 2
