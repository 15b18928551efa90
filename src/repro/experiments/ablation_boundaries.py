"""Ablation: sensitivity to the Proficiency / Deficiency Boundaries.

The paper calls out PB=0.75 / DB=0.05 (Section V-B) as load-bearing
design constants.  This sweep shows the plateau around the paper's
choice: too low a PB promotes junk prefetchers; too high a PB starves
coverage; too high a DB blocks useful-but-imperfect prefetchers.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import geomean, make_selector
from repro.selection.alecto import AlectoConfig
from repro.sim import simulate
from repro.workloads.spec06 import spec06_memory_intensive
from repro.experiments.runner import experiment_main
from repro.registry import register_experiment

#: A representative subset keeps the sweep tractable.
BENCHMARKS = ("bwaves", "GemsFDTD", "milc", "sphinx3", "bzip2", "libquantum")

PB_VALUES = (0.5, 0.65, 0.75, 0.85, 0.95)
DB_VALUES = (0.0, 0.05, 0.20, 0.40)


@register_experiment(
    "abl_boundaries",
    title="Ablation — PB/DB boundary sensitivity (geomean speedup)",
    paper=(
        "No paper counterpart: the PB=0.75 / DB=0.05 operating point "
        "should sit on a plateau."
    ),
    fast_params={"accesses": 800},
)
def run(accesses: int = 10000, seed: int = 1) -> Dict[str, Dict[str, float]]:
    """Geomean speedup per boundary setting.

    Returns:
        ``{"PB": {value: speedup}, "DB": {value: speedup}}``.
    """
    profiles = {
        name: prof
        for name, prof in spec06_memory_intensive().items()
        if name in BENCHMARKS
    }
    traces = {
        name: prof.generate(accesses, seed=seed) for name, prof in profiles.items()
    }
    baselines = {name: simulate(t, None, name=name) for name, t in traces.items()}

    def sweep(configs):
        results = {}
        for label, config in configs:
            speedups = []
            for name, trace in traces.items():
                result = simulate(
                    trace,
                    make_selector("alecto", alecto_config=config),
                    name=name,
                )
                speedups.append(result.ipc / baselines[name].ipc)
            results[label] = geomean(speedups)
        return results

    pb_rows = sweep(
        (f"PB={pb:g}", AlectoConfig(proficiency_boundary=pb)) for pb in PB_VALUES
    )
    db_rows = sweep(
        (f"DB={db:g}", AlectoConfig(deficiency_boundary=db)) for db in DB_VALUES
    )
    return {"PB": pb_rows, "DB": db_rows}


main = experiment_main("abl_boundaries")


if __name__ == "__main__":
    main()
