"""Repository benchmark: one command, closed-loop workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-bursty --seed 1 --seconds 50 --trace 0

``--workload`` is ``serve-bursty``, ``tick-lp`` or ``churn-wide`` (see
``drivers.py`` and ``metric_map.json`` for what each runs and why;
``BENCHMARK.json`` lists the first two, ``churn-wide`` is run by hand).  The
seed makes every input: every pass of a run goes over its own platform,
generated from its own seed derived from ``--seed``, so a run averages over
as many independent draws of the inputs as it makes passes.  ``--seconds``
sets how much work is measured: each workload knows the nominal length of
one pass on a two-core x86 machine, and the run makes
``round(seconds / pass length)`` passes (at least one), so that every run
of a seed does the same work.  Each platform is generated, untimed, just
before its pass.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
Its per-operation times and throughput are scaled to a reference host
speed (``ref_`` metrics; ``reference.py`` samples the host's speed between
the operations of each pass), because a shared host's speed drifts between
runs; the raw figures are printed above the result line under the issue's
names and kept in the record.
``--trace 1`` is the separate traced run: half as many platforms, each
given an untraced pass and then a traced pass; it prints the per-layer
metrics (means over the traced passes) plus the tracing overhead between
the two.

Every invocation also makes one untimed verification pass with the
patched-vs-rebuilt index parity check on, and checks the program's
outputs: Definition 4 feasibility of every tick or batch, every arrival
answered exactly once, identical decisions and utility across all passes
of the seed, the program's own timers inside the outside ones, and (on
``tick-lp``) the patched LP's objective against HiGHS.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
of the run (shape, percentiles and sample counts, timer gaps, checks, any
partial report of a failed pass) goes to ``.perfbench/`` in the checkout,
with the traced run's spans as JSON lines beside it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("serve-bursty", "churn-wide", "tick-lp")
#: Set-up is repeated this often in a timed run; ``setup_s`` is the median.
SETUP_REPS = 3
#: How far the traced spans' self times may fall short of the wall time.
COVERAGE_TOLERANCE_PCT = 5.0

#: What one operation is on each workload, as the issue's metric names
#: call it, and the issue's name for the throughput metric there.
OPERATION = {
    "serve-bursty": ("answer", "answered_per_s"),
    "churn-wide": ("batch", "batches_per_s"),
    "tick-lp": ("tick", "ticks_per_s"),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "mean_utility": "w",
    "ref_op_ms_p50": "ms",
    "ref_op_ms_tail": "ms",
    "ref_ops_per_s": "1/s",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def import_probe() -> float:
    """Wall time of a fresh interpreter importing what the benchmark
    imports (the program, numpy and scipy)."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import drivers"],
        cwd=HERE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(HERE)])},
        check=True,
    )
    return time.perf_counter() - started


def digest(fingerprint) -> str:
    """Short stable hash of a pass's decision-derived fingerprint."""
    blob = json.dumps(fingerprint, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run(args: argparse.Namespace, import_s: float) -> tuple[dict, dict]:
    """Run one invocation; returns ``(result line, full record)``."""
    import drivers
    import reference
    from spans import PER_LAYER, Tracer, layer_metrics

    workload = drivers.WORKLOADS[args.workload]
    passes = max(1, round(args.seconds / workload.pass_seconds))
    if args.trace == 1:
        passes = max(1, passes // 2)  # an untraced and a traced pass each
    seeds = [drivers.platform_seed(args.seed, k) for k in range(passes)]

    # Set-up of the first platform, repeated: input generation, index
    # build and bootstrap.  The other platforms are generated untimed.
    setup_runs = []
    summaries = []
    setup_host_ms = []
    first = None
    for _ in range(SETUP_REPS if args.trace == 0 else 1):
        first = None
        gc.collect()
        setup_host_ms += reference.burst()
        started = time.perf_counter()
        first = workload.generate(seeds[0])
        generated = time.perf_counter()
        first.instance.index  # builds the index
        indexed = time.perf_counter()
        workload.bootstrap(first)
        finished = time.perf_counter()
        setup_runs.append(
            {
                "seconds": finished - started,
                "generate_ms": (generated - started) * 1e3,
                "index_ms": (indexed - generated) * 1e3,
                "bootstrap_ms": (finished - indexed) * 1e3,
            }
        )
        summaries.append(first.counts)
    imports = [import_s]
    if args.trace == 0:
        for _ in range(SETUP_REPS - 1):
            setup_host_ms += reference.burst()
            imports.append(import_probe())
    raw_setup_s = statistics.median(imports) + statistics.median(
        run["seconds"] for run in setup_runs
    )
    # Scaled to the reference host speed like the passes' times, from the
    # slices run just before each set-up and import sample.
    setup_slowdown = reference.slowdown(setup_host_ms)
    setup_s = raw_setup_s / setup_slowdown

    shape = {
        "workload": workload.name,
        "seed": args.seed,
        "platform_seeds": seeds,
        "num_users": first.instance.num_users,
        "num_events": first.instance.num_events,
        "index_classes": [],
        "columnar": first.instance.is_columnar,
        "passes": passes,
        "platform_counts": [],
    }

    def platform(position):
        """The platform of one position, generated (untimed) unless it is
        the first; fails loudly if it left the workload's index side."""
        inputs = first if position == 0 else workload.generate(seeds[position])
        picked = type(inputs.instance.index).__name__  # builds the index
        if picked != workload.index_class:
            raise SystemExit(
                f"perfbench: {workload.name} must run on {workload.index_class}, "
                f"but platform {position} picked {picked}"
            )
        if picked not in shape["index_classes"]:
            shape["index_classes"].append(picked)
        shape["platform_counts"].append(inputs.counts)
        return inputs

    def one_pass(inputs, position, **kwargs):
        gc.collect()  # every pass starts from the same collector state
        result = workload.run_pass(inputs, **kwargs)
        result.counts["platform"] = position
        return result

    # Measured passes, one platform each; a timed pass samples the host's
    # speed between its operations.
    untraced = []
    traced = []
    tracers = []
    for position in range(passes):
        inputs = platform(position)
        host = reference.HostProbe(enabled=args.trace == 0)
        untraced.append(one_pass(inputs, position, probe=host))
        if args.trace == 1:
            tracer = Tracer()
            traced.append(one_pass(inputs, position, tracer=tracer))
            tracers.append(tracer)
        del inputs
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The untimed verification pass, on the first platform.
    with drivers.lp_probe(check_objective=workload.name == "tick-lp") as probe:
        verify = one_pass(first, 0, check_parity=True, verify=True)
    shape["lp_backend"] = ",".join(sorted(map(str, probe["backends"]))) or "none"

    measured = untraced + traced
    by_platform: dict[int, list] = {}
    for p in measured:
        by_platform.setdefault(p.counts["platform"], []).append(p)
    same_decisions = all(
        p.fingerprint == group[0].fingerprint and p.mean_utility == group[0].mean_utility
        for group in by_platform.values()
        for p in group
    ) and verify.fingerprint == by_platform[0][0].fingerprint[: len(verify.fingerprint)]
    checks = {
        "inputs_identical_across_setups": all(s == summaries[0] for s in summaries),
        "feasible": all(p.feasible for p in measured + [verify]),
        "index_parity": bool(verify.parity),
        "decisions_identical": same_decisions,
        "own_timers_inside_outside": all(p.contained for p in measured + [verify]),
        "no_errors": all(p.error is None for p in measured + [verify]),
    }
    if workload.name == "tick-lp":
        checks["lp_objective_matches_highs"] = bool(probe["ok"] and probe["checked"])
    correct = all(checks.values())

    attempted = sum(p.attempted for p in measured)
    failed = sum(p.failed for p in measured)
    op_ms = [value for p in untraced for value in p.op_ms]
    walls = sum(p.wall_s for p in untraced)
    tail_q = workload.tail_percentile
    operation, rate_name = OPERATION[workload.name]
    gaps = [value for p in untraced for value in p.gap_ms]
    utilities = [group[0].mean_utility or 0.0 for group in by_platform.values()]

    record = {
        "shape": shape,
        "setup": {
            "import_s": imports,
            "raw_setup_s": raw_setup_s,
            "slowdown": setup_slowdown,
            "setup_s": setup_s,
            "runs": setup_runs,
        },
        "decisions": {
            str(platform): digest(group[0].fingerprint)
            for platform, group in sorted(by_platform.items())
        },
        "passes": [
            {
                "traced": p in traced,
                "verify": p is verify,
                "wall_s": p.wall_s,
                "attempted": p.attempted,
                "failed": p.failed,
                "counts": p.counts,
                "mean_utility": p.mean_utility,
                "error": p.error,
                "partial_report": p.report,
                "op_ms": p.op_ms,
                "host_ms": p.host_ms,
            }
            for p in measured + [verify]
        ],
        "checks": checks,
        "lp_probe": {k: v for k, v in probe.items() if k != "backends"},
        "timers": {
            "operation": operation,
            "gap_ms_p50": percentile(gaps, 50) if gaps else None,
            "gap_ms_max": max(gaps) if gaps else None,
            "gap_share_p50": (
                percentile(gaps, 50) / percentile(op_ms, 50) if gaps and op_ms else None
            ),
        },
        "error_rate": failed / attempted if attempted else None,
    }

    if args.trace == 0:
        raw = {
            "op_ms_p50": percentile(op_ms, 50) if op_ms else 0.0,
            "op_ms_tail": percentile(op_ms, tail_q) if op_ms else 0.0,
            "ops_per_s": len(op_ms) / walls if walls else 0.0,
        }
        # Each pass's times over its host slowdown (reference.py); a pass
        # too short to sample (one that failed at once) is taken as is.
        slowdowns = [reference.slowdown(p.host_ms) or 1.0 for p in untraced]
        ref_ms = [value / f for p, f in zip(untraced, slowdowns) for value in p.op_ms]
        ref_walls = sum(p.wall_s / f for p, f in zip(untraced, slowdowns))
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_ratio": (attempted - failed) / attempted if attempted else 0.0,
            "mean_utility": statistics.fmean(utilities),
            "ref_op_ms_p50": percentile(ref_ms, 50) if ref_ms else 0.0,
            "ref_op_ms_tail": percentile(ref_ms, tail_q) if ref_ms else 0.0,
            "ref_ops_per_s": len(ref_ms) / ref_walls if ref_walls else 0.0,
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        record["tail"] = {
            "percentile": tail_q,
            "samples": len(op_ms),
            "beyond": round(len(op_ms) * (100.0 - tail_q) / 100.0),
        }
        slowdown = walls / ref_walls if ref_walls else None
        record["host"] = {
            "reference_ms": reference.REFERENCE_MS,
            "slowdown": slowdown,
            "pass_slowdowns": slowdowns,
        }
        record["issue_names"] = {
            f"{operation}_ms_p50": raw["op_ms_p50"],
            f"{operation}_ms_tail (p{tail_q:g} of {len(op_ms)})": raw["op_ms_tail"],
            rate_name: raw["ops_per_s"],
            "error_rate": record["error_rate"],
            "host slowdown": slowdown,
            "setup_s (raw)": raw_setup_s,
        }
    else:
        per_pass = []
        tables = []
        for p_untraced, p_traced, tracer in zip(untraced, traced, tracers):
            values, table = layer_metrics(
                tracer.spans,
                traced_wall_s=p_traced.wall_s,
                untraced_wall_s=p_untraced.wall_s,
                superseded=p_traced.superseded,
                requeues=p_traced.requeues,
                setup=setup_runs[0],
            )
            per_pass.append(values)
            tables.append(table)
        metrics = {
            name: {
                "value": statistics.fmean(values[name] for values in per_pass),
                "unit": unit,
            }
            for name, unit, _better in PER_LAYER
        }
        # No layer is missing: the spans' self times make up the traced
        # passes' wall time.
        checks["spans_cover_wall"] = all(
            abs(values["trace.coverage_pct"] - 100.0) <= COVERAGE_TOLERANCE_PCT
            for values in per_pass
        )
        correct = all(checks.values())
        record["layer_self_ms"] = tables
        OUT.mkdir(exist_ok=True)
        for position, tracer in enumerate(tracers):
            tracer.write(OUT / f"spans-{workload.name}-s{args.seed}-p{position}.jsonl")
    record["metrics"] = metrics
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread: the program is a single closed-loop client, and the
    # default OpenBLAS pool only spins a second core without shortening a
    # pass, which makes its timings depend on the rest of the host.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({src})", file=sys.stderr)
        return 2
    started = time.perf_counter()
    sys.path.insert(0, str(src))
    import drivers  # noqa: F401  (imports the program, numpy and scipy)

    import_s = time.perf_counter() - started
    result, record = run(args, import_s)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    shape = record["shape"]
    print(
        f"{shape['workload']} seed={shape['seed']} |U|={shape['num_users']} "
        f"|V|={shape['num_events']} index={','.join(shape['index_classes'])} "
        f"lp={shape['lp_backend']} "
        f"platforms={len(shape['platform_seeds'])} passes={shape['passes']}"
    )
    print(f"  decisions: {record['decisions']}")
    for name, value in record.get("issue_names", {}).items():
        print(f"  {name} = {value}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    failing = [name for name, ok in record["checks"].items() if not ok]
    print(f"  checks: {'all passed' if not failing else 'FAILED ' + ', '.join(failing)}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
