"""Fig. 18 / Section VI-I: training occurrences and energy vs Bandit6.

The paper reports Alecto cutting per-prefetcher training occurrences by
48% and memory-hierarchy energy by 7% relative to Bandit6, because blocked
prefetchers never touch their tables and inaccurate prefetch traffic
(cache fills + DRAM reads) disappears.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import make_selector
from repro.sim import simulate
from repro.workloads.spec06 import spec06_memory_intensive
from repro.workloads.spec17 import spec17_memory_intensive
from repro.experiments.runner import _cached_trace, experiment_main
from repro.registry import register_experiment


@register_experiment(
    "fig18",
    title="Fig. 18 / Sec. VI-I — training occurrences and energy",
    paper=(
        "Alecto cuts per-prefetcher training by 48% and "
        "memory-hierarchy energy by 7% vs Bandit6."
    ),
    fast_params={"accesses": 800},
)
def run(accesses: int = 12000, seed: int = 1) -> Dict[str, Dict[str, float]]:
    """Training occurrences per prefetcher and hierarchy energy.

    Returns:
        ``{"bandit6": {...}, "alecto": {...}, "reduction": {...}}`` where
        the selector rows carry per-prefetcher training counts (thousands)
        and total hierarchy energy (microjoules).
    """
    profiles = {}
    profiles.update(spec06_memory_intensive())
    profiles.update(spec17_memory_intensive())
    rows: Dict[str, Dict[str, float]] = {}
    for selector_name in ("bandit6", "alecto"):
        training: Dict[str, float] = {}
        energy_uj = 0.0
        prefetcher_energy_uj = 0.0
        for profile in profiles.values():
            # One trace per benchmark, shared by every selector.
            trace = _cached_trace(profile, accesses, seed)
            result = simulate(trace, make_selector(selector_name), name=profile.name)
            for name, count in result.training_occurrences.items():
                training[name] = training.get(name, 0.0) + count / 1000.0
            energy_uj += result.energy.hierarchy_pj / 1e6
            prefetcher_energy_uj += result.energy.prefetcher_tables_pj / 1e6
        row = {f"training_{k}_k": v for k, v in training.items()}
        row["hierarchy_energy_uj"] = energy_uj
        row["prefetcher_energy_uj"] = prefetcher_energy_uj
        rows[selector_name] = row
    reduction = {}
    for key in rows["bandit6"]:
        before = rows["bandit6"][key]
        after = rows["alecto"].get(key, 0.0)
        reduction[key] = 1.0 - after / before if before else 0.0
    rows["reduction"] = reduction
    return rows


main = experiment_main("fig18")


if __name__ == "__main__":
    main()
