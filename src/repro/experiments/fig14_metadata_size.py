"""Fig. 14: temporal-prefetching speedup vs metadata table size.

Bandit trains the temporal metadata with the whole L2 stream and thrashes
small tables; Alecto's demand allocation keeps only metadata that earns
its keep, so it reaches Bandit's 1 MB performance with a fraction of the
budget ("to achieve the same performance as Bandit with a 1MB metadata
table, Alecto only requires less than 256KB").
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import geomean, make_selector
from repro.experiments.fig13_temporal import METADATA_SCALE, temporal_config
from repro.sim import simulate
from repro.workloads.temporal_suite import TEMPORAL_PROFILES
from repro.experiments.runner import experiment_main
from repro.registry import register_experiment

KB = 1024
SIZES = (128 * KB, 256 * KB, 512 * KB, 1024 * KB)
#: (row label, selector with the temporal prefetcher, selector without).
_POLICIES = (
    ("bandit", "bandit6", "bandit6"),
    ("alecto", "alecto", "alecto"),
)


@register_experiment(
    "fig14",
    title="Fig. 14 — geomean speedup vs temporal metadata size",
    paper=(
        "Alecto consistently above Bandit at every budget (gains "
        "4.82%-8.39%); Alecto at <256KB matches Bandit at 1MB."
    ),
    fast_params={"accesses": 800},
)
def run(accesses: int = 15000, seed: int = 1) -> Dict[str, Dict[str, float]]:
    """Geomean speedup per metadata size for Bandit and Alecto.

    Returns:
        ``{"128KB": {"bandit": x, "alecto": y}, ...}``.
    """
    config = temporal_config()
    traces = {
        name: profile.generate(accesses, seed=seed)
        for name, profile in TEMPORAL_PROFILES.items()
    }
    # The runs without the temporal prefetcher do not depend on the
    # metadata size, so each is simulated once, not once per size.
    base_ipc = {
        (without_tp, name): simulate(
            trace, make_selector(without_tp), config=config, name=name
        ).ipc
        for _, _, without_tp in _POLICIES
        for name, trace in traces.items()
    }
    rows: Dict[str, Dict[str, float]] = {}
    for size in SIZES:
        label = f"{size // KB}KB"
        per_policy: Dict[str, float] = {}
        for policy, with_tp, without_tp in _POLICIES:
            speedups = []
            for name, trace in traces.items():
                base = base_ipc[without_tp, name]
                full = simulate(
                    trace,
                    make_selector(
                        with_tp,
                        with_temporal=True,
                        temporal_bytes=size // METADATA_SCALE,
                    ),
                    config=config,
                    name=name,
                )
                speedups.append(full.ipc / base if base else 0.0)
            per_policy[policy] = geomean(speedups)
        rows[label] = per_policy
    return rows


main = experiment_main("fig14")


if __name__ == "__main__":
    main()
