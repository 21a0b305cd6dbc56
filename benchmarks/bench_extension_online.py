"""Extension: online IGEPA (irrevocable assignment at user arrival).

Measures the price of online-ness — the gap between online algorithms over
random arrival orders and the offline LP bound — plus the offline
LP-packing reference on the same instance.
"""

from benchmarks.conftest import BENCH_SEED, write_report
from repro.core import LPPacking, OnlineGreedy, OnlineRandom, competitive_ratio, lp_upper_bound
from repro.datagen import SyntheticConfig, generate_synthetic

RUNS = 10
CONFIG = SyntheticConfig(num_events=30, num_users=300, max_event_capacity=5)


def _run_comparison():
    instance = generate_synthetic(CONFIG, seed=BENCH_SEED)
    bound = lp_upper_bound(instance)
    offline = LPPacking(alpha=1.0).solve(instance, seed=0).utility
    greedy = competitive_ratio(instance, OnlineGreedy(), repetitions=RUNS, seed=0)
    random_online = competitive_ratio(
        instance, OnlineRandom(), repetitions=RUNS, seed=0
    )
    return bound, offline, greedy, random_online


def bench_extension_online(bench_once):
    bound, offline, greedy, random_online = bench_once(_run_comparison)

    assert greedy["mean_utility"] <= bound + 1e-7
    assert greedy["mean_ratio"] >= random_online["mean_ratio"] * 0.98
    # Online greedy should retain a large fraction of the offline value on
    # these workloads (no adversarial arrival order).
    assert greedy["mean_ratio"] >= 0.5

    lines = [
        f"Extension: online arrivals ({RUNS} random orders; offline LP* = {bound:.2f})",
        f"{'algorithm':>16} {'mean utility':>13} {'mean vs LP*':>12} {'worst vs LP*':>13}",
        f"{'offline lp-packing':>16} {offline:>13.2f} {offline / bound:>11.1%} {'-':>13}",
    ]
    for name, report in (("online-greedy", greedy), ("online-random", random_online)):
        lines.append(
            f"{name:>16} {report['mean_utility']:>13.2f} "
            f"{report['mean_ratio']:>11.1%} {report['worst_ratio']:>12.1%}"
        )
    write_report("extension_online", "\n".join(lines))
