"""One module per paper figure/table (index: ``docs/experiments.md``).

Every module registers an :class:`~repro.experiments.runner.Experiment`
via :func:`repro.registry.register_experiment`: a ``run(accesses=...,
seed=..., ...)`` function returning the figure's rows, plus a shared
``main()`` that runs it and prints the rows.  ``python -m
repro.experiments.fig08_spec06`` regenerates the corresponding result;
``python -m repro experiment <name>`` goes through the registry and can
emit structured JSON (:class:`~repro.experiments.runner.ExperimentResult`).

Shared machinery lives in :mod:`repro.experiments.common`
(selector construction, speedup suites) and
:mod:`repro.experiments.runner` (the experiment/result API and the
parallel :class:`~repro.experiments.runner.SuiteRunner`).
"""

import importlib

from repro.experiments.common import (
    SELECTOR_NAMES,
    cell_rows,
    geomean,
    make_selector,
    speedup_suite,
)

#: Every experiment module, in the paper's presentation order.  Importing
#: one registers its experiment; :func:`load_all` (invoked lazily by
#: :mod:`repro.registry`) imports them all.
EXPERIMENT_MODULES = (
    "fig01_table_misses",
    "fig08_spec06",
    "fig09_spec17",
    "fig10_metrics",
    "fig11_diverse",
    "fig12_noncomposite",
    "fig13_temporal",
    "fig14_metadata_size",
    "fig15_llc_size",
    "fig16_bandwidth",
    "fig17_multicore",
    "fig18_energy",
    "fig19_ablation",
    "fig20_ppf",
    "table3_storage",
    "sec6a_csr_tuning",
    "sec6h_extended_bandit",
    "sec7b_degree_study",
    "ablation_boundaries",
    "ablation_epoch",
    "ablation_sandbox",
    "scenario_phase",
    "scenario_external",
)


def load_all() -> None:
    """Import every experiment module, populating the experiment registry."""
    for module in EXPERIMENT_MODULES:
        importlib.import_module(f"repro.experiments.{module}")


__all__ = [
    "EXPERIMENT_MODULES",
    "SELECTOR_NAMES",
    "cell_rows",
    "geomean",
    "load_all",
    "make_selector",
    "speedup_suite",
]
