"""Fig. 1: prefetcher-table misses with vs without DDRA.

The paper's motivating figure: the same composite prefetcher (GS+CS+PMP)
suffers far more table misses when every demand request trains every
prefetcher (prior works, represented by IPCP's train-all allocation) than
under Alecto's dynamic demand request allocation.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import benchmark_cells
from repro.workloads.spec06 import SPEC06_PROFILES
from repro.workloads.spec17 import SPEC17_PROFILES
from repro.experiments.runner import experiment_main
from repro.registry import register_experiment


@register_experiment(
    "fig01",
    title="Fig. 1 — prefetcher table misses (thousands)",
    paper=(
        "DDRA significantly reduces prefetcher-table conflicts vs "
        "train-all allocation on SPEC06 and SPEC17."
    ),
    fast_params={"accesses": 800},
)
def run(accesses: int = 10000, seed: int = 1) -> Dict[str, Dict[str, float]]:
    """Total prefetcher-table misses (thousands) per suite.

    Returns:
        ``{suite: {"without_ddra": k_misses, "with_ddra": k_misses}}``.
    """
    rows: Dict[str, Dict[str, float]] = {}
    for suite_name, profiles in (
        ("SPEC CPU2006", SPEC06_PROFILES),
        ("SPEC CPU2017", SPEC17_PROFILES),
    ):
        without = 0
        with_ddra = 0
        for profile in profiles.values():
            # benchmark_cells reads each (benchmark, selector) cell through
            # the active result store, so regeneration after a fingerprint
            # bump re-simulates only the bumped selector's cells; both
            # selectors share one generated trace.
            cells = benchmark_cells(profile, ("ipcp", "alecto"), accesses, seed)
            without += cells["ipcp"]["table_misses"]
            with_ddra += cells["alecto"]["table_misses"]
        rows[suite_name] = {
            "without_ddra": without / 1000.0,
            "with_ddra": with_ddra / 1000.0,
        }
    return rows


main = experiment_main("fig01")


if __name__ == "__main__":
    main()
