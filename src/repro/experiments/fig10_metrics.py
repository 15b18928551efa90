"""Fig. 10: key prefetcher performance metrics per selection algorithm.

Stacked distribution of covered-timely / covered-untimely / uncovered
misses (normalised to baseline misses, summing to 1) plus overprediction
on the same scale, aggregated over the SPEC benchmarks.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import SELECTOR_NAMES, make_selector
from repro.sim import simulate
from repro.sim.metrics import PrefetchMetrics
from repro.workloads.spec06 import spec06_memory_intensive
from repro.workloads.spec17 import spec17_memory_intensive
from repro.experiments.runner import _cached_trace, experiment_main
from repro.registry import register_experiment


@register_experiment(
    "fig10",
    title="Fig. 10 — prefetcher metrics (normalised to baseline misses)",
    paper=(
        "Alecto: best accuracy (0.415 covered-timely share, accuracy "
        "+13.51% over Bandit6) without sacrificing "
        "coverage/timeliness."
    ),
    fast_params={"accesses": 800},
)
def run(accesses: int = 12000, seed: int = 1) -> Dict[str, Dict[str, float]]:
    """Normalised metric breakdown per selector.

    Returns:
        ``{selector: {covered_timely, covered_untimely, uncovered,
        overprediction, accuracy, coverage}}``.
    """
    profiles = {}
    profiles.update(spec06_memory_intensive())
    profiles.update(spec17_memory_intensive())
    rows: Dict[str, Dict[str, float]] = {}
    for selector_name in SELECTOR_NAMES:
        merged = PrefetchMetrics()
        for profile in profiles.values():
            # One trace per benchmark, shared by every selector.
            trace = _cached_trace(profile, accesses, seed)
            result = simulate(trace, make_selector(selector_name), name=profile.name)
            merged = merged.merge(result.metrics)
        row = merged.normalized()
        row["accuracy"] = merged.accuracy
        row["coverage"] = merged.coverage
        rows[selector_name] = row
    return rows


main = experiment_main("fig10")


if __name__ == "__main__":
    main()
