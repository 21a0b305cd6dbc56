"""Per-rule fixtures for ``igepa lint`` (IGP001-IGP010).

Each rule gets at least one *bad* fixture (a minimal source snippet that
must produce a finding with the rule's code) and one *good* fixture (the
sanctioned way to write the same thing, which must stay silent).  Paths are
virtual — the engine scopes rules by path suffix, so a snippet linted under
``src/repro/core/metrics.py`` is treated as hot-path code.
"""

import json

from repro.analysis_tools import default_rules, lint_source
from repro.analysis_tools.engine import format_json, parse_suppressions


def codes(source, path):
    return [f.code for f in lint_source(source, path, default_rules())]


HOT = "src/repro/core/metrics.py"
COLD = "src/repro/experiments/reporting.py"


class TestHotPathLoops:
    def test_loop_over_entity_collection_flagged(self):
        src = (
            "def total(instance):\n"
            "    acc = 0\n"
            "    for user in instance.users:\n"
            "        acc += user.capacity\n"
            "    return acc\n"
        )
        assert "IGP001" in codes(src, HOT)

    def test_loop_over_range_num_users_flagged(self):
        src = (
            "def scan(index):\n"
            "    for i in range(index.num_users):\n"
            "        pass\n"
        )
        assert "IGP001" in codes(src, HOT)

    def test_enumerate_wrapper_flagged(self):
        src = (
            "def scan(instance):\n"
            "    for i, e in enumerate(instance.events):\n"
            "        pass\n"
        )
        assert "IGP001" in codes(src, HOT)

    def test_comprehension_allowed(self):
        src = "def ids(instance):\n    return [u.user_id for u in instance.users]\n"
        assert codes(src, HOT) == []

    def test_bare_local_name_not_an_entity_sweep(self):
        # A local called ``bids`` is a bounded per-user slice, not a sweep.
        src = (
            "def gains(bids):\n"
            "    acc = 0.0\n"
            "    for b in bids:\n"
            "        acc += b\n"
            "    return acc\n"
        )
        assert codes(src, HOT) == []

    def test_user_id_walk_in_lp_formulation_flagged(self):
        # The benchmark LP is built from arrays; a per-user loop there is
        # the object build coming back.
        src = (
            "def rows(index, lp):\n"
            "    for user_id in index.user_ids.tolist():\n"
            "        lp.add_constraint({}, None, 1.0, name=f'user[{user_id}]')\n"
        )
        assert "IGP001" in codes(src, "src/repro/core/lp_formulation.py")

    def test_same_loop_fine_outside_hot_modules(self):
        src = (
            "def total(instance):\n"
            "    acc = 0\n"
            "    for user in instance.users:\n"
            "        acc += user.capacity\n"
            "    return acc\n"
        )
        assert codes(src, COLD) == []


class TestDenseMaterialization:
    def test_dense_user_event_zeros_flagged(self):
        src = (
            "import numpy as np\n"
            "def slab(num_users, num_events):\n"
            "    return np.zeros((num_users, num_events))\n"
        )
        assert "IGP002" in codes(src, COLD)

    def test_toarray_flagged(self):
        src = "def densify(matrix):\n    return matrix.toarray()\n"
        assert "IGP002" in codes(src, COLD)

    def test_whitelisted_slab_builder_allowed(self):
        src = (
            "import numpy as np\n"
            "class InstanceIndex:\n"
            "    def _finalize(self):\n"
            "        self.W = np.zeros((self.num_users, self.num_events))\n"
        )
        assert codes(src, "src/repro/model/index.py") == []

    def test_one_dimensional_zeros_allowed(self):
        src = (
            "import numpy as np\n"
            "def vec(num_users):\n"
            "    return np.zeros(num_users)\n"
        )
        assert codes(src, COLD) == []


class TestStoreCopy:
    INDEX = "src/repro/model/index.py"

    def test_copy_of_store_column_flagged(self):
        src = (
            "def build(store):\n"
            "    degrees = store.degrees.copy()\n"
            "    return degrees\n"
        )
        assert "IGP003" in codes(src, self.INDEX)

    def test_astype_copy_true_flagged(self):
        src = (
            "import numpy as np\n"
            "def build(store):\n"
            "    return store.degrees.astype(np.float64, copy=True)\n"
        )
        assert "IGP003" in codes(src, self.INDEX)

    def test_zero_copy_astype_allowed(self):
        src = (
            "import numpy as np\n"
            "def build(store):\n"
            "    return store.degrees.astype(np.float64, copy=False)\n"
        )
        assert codes(src, self.INDEX) == []

    def test_outside_index_build_modules_silent(self):
        src = (
            "def snapshot(store):\n"
            "    return store.degrees.copy()\n"
        )
        assert codes(src, COLD) == []


class TestDeltaPurity:
    DELTA = "src/repro/model/delta.py"

    def test_write_into_predecessor_array_flagged(self):
        src = (
            "def patch(old):\n"
            "    weights = old.bid_weights\n"
            "    weights[0] = 1.0\n"
            "    return weights\n"
        )
        assert "IGP004" in codes(src, self.DELTA)

    def test_augassign_into_param_flagged(self):
        src = (
            "def patch(degrees):\n"
            "    degrees += 1.0\n"
            "    return degrees\n"
        )
        assert "IGP004" in codes(src, self.DELTA)

    def test_write_into_fresh_copy_allowed(self):
        src = (
            "import numpy as np\n"
            "def patch(old):\n"
            "    weights = np.array(old.bid_weights)\n"
            "    weights[0] = 1.0\n"
            "    return weights\n"
        )
        assert codes(src, self.DELTA) == []

    def test_write_through_fresh_object_attribute_allowed(self):
        # ``carried`` is constructed here, so views of its attributes are
        # function-owned even though the write target is dotted.
        src = (
            "def carry(successor):\n"
            "    carried = Arrangement(successor)\n"
            "    assigned = carried.assignment_words\n"
            "    assigned[0, 0] = 1\n"
            "    carried.attendance_counts[:] = 0\n"
            "    return carried\n"
        )
        assert codes(src, self.DELTA) == []


class TestRngDiscipline:
    def test_bare_random_import_flagged(self):
        src = "import random\n\nx = random.random()\n"
        assert "IGP005" in codes(src, COLD)

    def test_module_level_np_random_call_flagged(self):
        src = "import numpy as np\n\nnoise = np.random.rand(4)\n"
        assert "IGP005" in codes(src, COLD)

    def test_unseeded_default_rng_flagged(self):
        src = (
            "import numpy as np\n"
            "def draw():\n"
            "    return np.random.default_rng().random()\n"
        )
        assert "IGP005" in codes(src, COLD)

    def test_seeded_generator_allowed(self):
        src = (
            "import numpy as np\n"
            "def draw(seed):\n"
            "    rng = np.random.default_rng(seed)\n"
            "    return rng.random()\n"
        )
        assert codes(src, COLD) == []


class TestWallClock:
    def test_time_time_flagged_everywhere(self):
        src = (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        )
        assert "IGP007" in codes(src, "src/repro/core/local_search.py")
        assert "IGP007" in codes(src, "src/repro/experiments/replay.py")

    def test_perf_counter_outside_timing_modules_flagged(self):
        src = (
            "import time\n"
            "def stamp():\n"
            "    return time.perf_counter()\n"
        )
        assert "IGP007" in codes(src, "src/repro/core/local_search.py")

    def test_perf_counter_in_timing_modules_allowed(self):
        src = (
            "import time\n"
            "def stamp():\n"
            "    return time.perf_counter()\n"
        )
        assert codes(src, "src/repro/experiments/runner.py") == []

    def test_perf_counter_in_simulate_flagged(self):
        # simulate and replay time their ticks through the engine's Clock,
        # so a direct timer read there is a finding.
        src = (
            "import time\n"
            "def stamp():\n"
            "    return time.perf_counter()\n"
        )
        assert "IGP007" in codes(src, "src/repro/experiments/simulate.py")
        assert "IGP007" in codes(src, "src/repro/experiments/replay.py")

    def test_service_clock_module_may_read_monotonic_timers(self):
        # service/clock.py is the serving loop's single sanctioned timer
        # access: Clock.perf() feeds latency reports, never decisions.
        src = (
            "import time\n"
            "class MonotonicClock:\n"
            "    def now(self):\n"
            "        return time.monotonic()\n"
            "    def perf(self):\n"
            "        return time.perf_counter()\n"
        )
        assert codes(src, "src/repro/service/clock.py") == []

    def test_service_clock_module_still_bans_wall_clock(self):
        src = (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        )
        assert "IGP007" in codes(src, "src/repro/service/clock.py")

    def test_rest_of_service_package_rejects_timer_reads(self):
        # Everything else in repro/service must take time through the
        # injected Clock — direct timer reads would leak wall time into
        # batching/admission decisions and break replay determinism.
        src = (
            "import time\n"
            "def flush_due():\n"
            "    return time.perf_counter()\n"
        )
        for module in (
            "src/repro/service/loop.py",
            "src/repro/service/batcher.py",
            "src/repro/service/admission.py",
            "src/repro/service/engine.py",
        ):
            assert "IGP007" in codes(src, module)
        wall = (
            "import time\n"
            "def cutoff():\n"
            "    return time.time()\n"
        )
        assert "IGP007" in codes(wall, "src/repro/service/loop.py")


class TestPublicApiAnnotations:
    API = "src/repro/solver/api.py"

    def test_unannotated_public_function_flagged(self):
        src = "def solve(instance):\n    return instance\n"
        assert "IGP008" in codes(src, self.API)

    def test_missing_return_annotation_flagged(self):
        src = "def solve(instance: object):\n    return instance\n"
        assert "IGP008" in codes(src, self.API)

    def test_fully_annotated_allowed(self):
        src = "def solve(instance: object) -> object:\n    return instance\n"
        assert codes(src, self.API) == []

    def test_private_helpers_exempt(self):
        src = "def _helper(x):\n    return x\n"
        assert codes(src, self.API) == []


class TestRawReportDump:
    BENCH = "benchmarks/bench_churn.py"

    def test_json_dump_of_report_flagged(self):
        src = (
            "import json\n"
            "def main(report, path):\n"
            "    path.write_text(json.dumps(report, indent=2))\n"
        )
        assert "IGP010" in codes(src, self.BENCH)

    def test_json_dump_of_to_dict_result_flagged(self):
        # The old cli.py pattern: dumping a report object's snapshot raw.
        src = (
            "import json\n"
            "def write(report, handle):\n"
            "    json.dump(report.to_dict(), handle, indent=2)\n"
        )
        assert "IGP010" in codes(src, "src/repro/cli.py")

    def test_persistence_module_exempt(self):
        src = (
            "import json\n"
            "def _write_payload(report, path):\n"
            "    path.write_text(json.dumps(report, indent=1))\n"
        )
        assert codes(src, "src/repro/experiments/persistence.py") == []

    def test_non_report_json_allowed(self):
        # Instance files, wire responses and JSONL store rows are not
        # report envelopes.
        src = (
            "import json\n"
            "def save(instance, sample, response, handle):\n"
            "    json.dump(instance.to_dict(), handle)\n"
            "    json.dump(sample.to_dict(), handle)\n"
            "    print(json.dumps(response_to_dict(response)))\n"
        )
        assert codes(src, "src/repro/model/instance.py") == []

    def test_ignore_marker_sanctions_internal_dump(self):
        src = (
            "import json\n"
            "def child(report, path):\n"
            "    path.write_text(json.dumps(report))  # igepa: ignore[IGP010]\n"
        )
        assert codes(src, self.BENCH) == []


class TestSuppressions:
    def test_inline_ignore_silences_one_line(self):
        src = (
            "def total(instance):\n"
            "    acc = 0\n"
            "    for user in instance.users:  # igepa: ignore[IGP001]\n"
            "        acc += user.capacity\n"
            "    return acc\n"
        )
        assert codes(src, HOT) == []

    def test_ignore_is_code_specific(self):
        src = (
            "def total(instance):\n"
            "    acc = 0\n"
            "    for user in instance.users:  # igepa: ignore[IGP002]\n"
            "        acc += user.capacity\n"
            "    return acc\n"
        )
        assert "IGP001" in codes(src, HOT)

    def test_multiple_codes_parse(self):
        line = "x = 1  # igepa: ignore[IGP001, IGP005]"
        assert parse_suppressions(line) == {1: frozenset({"IGP001", "IGP005"})}


class TestEngine:
    def test_parse_error_reports_igp000(self):
        findings = lint_source("def broken(:\n", COLD, default_rules())
        assert [f.code for f in findings] == ["IGP000"]

    def test_json_format_shape(self):
        findings = lint_source(
            "import random\n", COLD, default_rules()
        )
        payload = json.loads(format_json(findings, 1))
        assert payload["tool"] == "igepa-lint"
        assert payload["files_scanned"] == 1
        assert payload["findings"][0]["code"] == "IGP005"
        assert payload["findings"][0]["path"] == COLD


class TestRepoIsClean:
    def test_lint_src_has_zero_findings(self):
        from repro.analysis_tools import lint_paths

        findings, scanned = lint_paths(["src"])
        assert scanned > 50
        assert findings == []
