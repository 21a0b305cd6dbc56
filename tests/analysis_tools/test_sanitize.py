"""Runtime sanitizer tests: frozen arrays, CSR checks, env gating, CLI."""

import json

import pytest

from repro.analysis_tools import sanitize
from repro.analysis_tools.engine import main as lint_main
from repro.analysis_tools.sanitize import (
    SanitizeError,
    check_csr_invariants,
    check_store_invariants,
    freeze_index_arrays,
    freeze_store_arrays,
    sanitize_enabled,
)
from repro.datagen import SyntheticConfig, generate_synthetic
from repro.model import (
    IGEPAInstance,
    InstanceValidationError,
    NoConflict,
    TabulatedInterest,
    User,
)
from repro.social import Graph

CONFIG = SyntheticConfig(num_users=40, num_events=12)


@pytest.fixture()
def instance(monkeypatch):
    # Build with the sanitizer hooks off so arrays start writeable; the
    # freezing tests below exercise the freeze functions explicitly and
    # must see the transition regardless of the ambient env.
    monkeypatch.delenv(sanitize.ENV_FLAG, raising=False)
    return generate_synthetic(CONFIG, seed=3)


class TestFreezing:
    def test_frozen_store_rejects_writes(self, instance):
        store = instance.store
        assert freeze_store_arrays(store) > 0
        with pytest.raises(ValueError, match="read-only"):
            store.user_capacity[0] = 99
        with pytest.raises(ValueError, match="read-only"):
            store.bid_indptr[0] = 1

    def test_frozen_index_rejects_writes(self, instance):
        index = instance.index
        assert freeze_index_arrays(index) > 0
        with pytest.raises(ValueError, match="read-only"):
            index.bid_weights[0] = 2.0

    def test_freeze_is_idempotent(self, instance):
        store = instance.store
        freeze_store_arrays(store)
        assert freeze_store_arrays(store) == 0

    def test_reads_still_work_after_freeze(self, instance):
        index = instance.index
        freeze_index_arrays(index)
        check_csr_invariants(index)
        assert index.bid_weights.size == index.num_bids


class TestCsrChecker:
    def test_clean_index_passes(self, instance):
        check_csr_invariants(instance.index)
        check_store_invariants(instance.store)

    def test_detects_indptr_corruption(self, instance):
        index = instance.index
        index.bid_indptr = index.bid_indptr.copy()
        index.bid_indptr[0] = 1
        with pytest.raises(SanitizeError, match="start at 0"):
            check_csr_invariants(index)

    def test_detects_si_out_of_range(self, instance):
        index = instance.index
        index.bid_si = index.bid_si.copy()
        index.bid_si[0] = 1.5
        with pytest.raises(SanitizeError, match="\\[0, 1\\]"):
            check_csr_invariants(index)

    def test_detects_weight_drift(self, instance):
        index = instance.index
        index.bid_weights = index.bid_weights.copy()
        index.bid_weights[0] += 1e-9
        with pytest.raises(SanitizeError, match="bid_weights drifted"):
            check_csr_invariants(index)

    def test_detects_transpose_misalignment(self, instance):
        index = instance.index
        index.bidder_indices = index.bidder_indices.copy()
        if index.bidder_indices.size >= 2:
            index.bidder_indices[:2] = index.bidder_indices[:2][::-1].copy()
        with pytest.raises(SanitizeError):
            check_csr_invariants(index)


class TestEnvGating:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(sanitize.ENV_FLAG, raising=False)
        assert not sanitize_enabled()
        monkeypatch.setenv(sanitize.ENV_FLAG, "0")
        assert not sanitize_enabled()

    def test_enabled_freezes_new_instances(self, monkeypatch):
        monkeypatch.setenv(sanitize.ENV_FLAG, "1")
        assert sanitize_enabled()
        inst = generate_synthetic(CONFIG, seed=4)
        assert not inst.store.bid_indptr.flags.writeable
        assert not inst.index.bid_weights.flags.writeable

    def test_validation_errors_reported_before_store_checks(self, monkeypatch):
        # Malformed input is the caller's error, not a broken invariant:
        # it raises the same error with the sanitizers on as with them off.
        monkeypatch.setenv(sanitize.ENV_FLAG, "1")
        users = [User(user_id=1, capacity=1), User(user_id=1, capacity=2)]
        with pytest.raises(InstanceValidationError, match="duplicate user"):
            IGEPAInstance([], users, NoConflict(), TabulatedInterest({}), Graph())

    def test_disabled_leaves_arrays_writeable(self, monkeypatch):
        monkeypatch.delenv(sanitize.ENV_FLAG, raising=False)
        inst = generate_synthetic(CONFIG, seed=5)
        assert inst.store.bid_indptr.flags.writeable
        assert inst.index.bid_weights.flags.writeable


class TestDeltaPathSanitized:
    def test_patched_successor_is_frozen_and_valid(self, monkeypatch):
        from repro.datagen import ChurnConfig, generate_churn_trace
        from repro.model.delta import apply_delta

        monkeypatch.setenv(sanitize.ENV_FLAG, "1")
        inst = generate_synthetic(CONFIG, seed=6)
        trace = generate_churn_trace(
            inst, ChurnConfig(num_batches=2), seed=7
        )
        current = inst
        for delta in trace.deltas:
            result = apply_delta(current, delta)
            successor = result.instance
            check_csr_invariants(successor.index)
            assert not successor.index.bid_weights.flags.writeable
            current = successor


class TestCliJson:
    def test_lint_json_on_clean_file(self, capsys):
        code = lint_main(["src/repro/model/errors.py", "--format=json"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert code == 0
        assert payload["findings"] == []
        assert payload["files_scanned"] == 1

    def test_lint_json_reports_findings(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "core" / "metrics.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "def total(instance):\n"
            "    acc = 0\n"
            "    for user in instance.users:\n"
            "        acc += user.capacity\n"
            "    return acc\n"
        )
        code = lint_main([str(bad), "--format=json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [f["code"] for f in payload["findings"]] == ["IGP001"]

    def test_select_filters_rules(self, tmp_path, capsys):
        bad = tmp_path / "wallclock.py"
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert lint_main([str(bad), "--select", "IGP005"]) == 0
        capsys.readouterr()
        assert lint_main([str(bad), "--select", "IGP007"]) == 1
