"""Synthetic workloads standing in for SPEC06 / SPEC17 / PARSEC / Ligra.

The paper's argument is about matching memory-access *patterns* to
prefetchers, so each named benchmark is modelled as a deterministic
mixture of the pattern generators in :mod:`repro.workloads.patterns`
(stream, stride, delta-sequence, spatial, temporal, pointer-chase,
random noise), with a memory intensity and footprint chosen to match the
benchmark's published character.  See ``docs/workloads.md`` for the
pattern-family catalog, and :mod:`repro.workloads.scenarios` for the phase-change /
drift / adversarial scenario suite.

Workloads are a registered subsystem (``docs/workloads.md`` is the
authoring guide): importing this package populates the
:data:`repro.registry.WORKLOADS` and :data:`repro.registry.SUITES`
registries with every suite member — flat names first-suite-wins in
:data:`SUITE_PRECEDENCE` order, with every member also addressable as
``suite/name`` — plus the parameterized scenario factories
(``"phased:period=2000"``) and any external traces previously imported
with ``repro trace import`` (see :mod:`repro.cpu.champsim`).
"""

from repro.registry import SUITES, WORKLOADS
from repro.workloads.ligra import LIGRA_PROFILES
from repro.workloads.parsec import PARSEC_PROFILES
from repro.workloads.profiles import BenchmarkProfile, PatternSpec
from repro.workloads.scenarios import SCENARIO_PROFILES  # also registers factories
from repro.workloads.spec06 import SPEC06_PROFILES, spec06_memory_intensive
from repro.workloads.spec17 import SPEC17_PROFILES, spec17_memory_intensive
from repro.workloads.temporal_suite import TEMPORAL_PROFILES

#: The four core suites (kept for backward compatibility; the registry
#: additionally knows ``temporal``, ``scenarios``, and ``imported``).
ALL_SUITES = {
    "spec06": SPEC06_PROFILES,
    "spec17": SPEC17_PROFILES,
    "parsec": PARSEC_PROFILES,
    "ligra": LIGRA_PROFILES,
}

#: Flat-name lookup order: when two suites define the same benchmark
#: name (spec06 and temporal both have ``mcf``), the earlier suite owns
#: the flat name and the later one stays reachable as ``suite/name``.
SUITE_PRECEDENCE = ("spec06", "spec17", "parsec", "ligra", "temporal",
                    "scenarios")

_REGISTERED_SUITES = {
    **ALL_SUITES,
    "temporal": TEMPORAL_PROFILES,
    "scenarios": SCENARIO_PROFILES,
}


def _register_builtin() -> None:
    for suite_name in SUITE_PRECEDENCE:
        profiles = _REGISTERED_SUITES[suite_name]
        SUITES.add(suite_name, profiles)
        for name, profile in profiles.items():
            qualified = f"{suite_name}/{name}"
            WORKLOADS.add(qualified, profile, suite=suite_name)
            if name not in WORKLOADS:
                WORKLOADS.add(name, profile, suite=suite_name)


_register_builtin()

# External traces imported with `repro trace import` register themselves
# as workloads of the "imported" suite (scanned from the imports
# directory; a missing or empty directory is simply no registrations).
from repro.cpu.champsim import register_imported_traces as _scan_imports  # noqa: E402

_scan_imports()


def get_profile(name: str) -> BenchmarkProfile:
    """Look up a benchmark profile by registered workload name or spec.

    Accepts everything :func:`repro.registry.build_workload` does: flat
    benchmark names (``"mcf"``), suite-qualified names
    (``"temporal/mcf"``), and parameterized factory specs
    (``"phased:period=2000"``).  Unknown names raise the registries'
    uniform did-you-mean ``ValueError`` (previously a bare
    ``KeyError``).
    """
    from repro.registry import build_workload

    return build_workload(name)


__all__ = [
    "ALL_SUITES",
    "BenchmarkProfile",
    "LIGRA_PROFILES",
    "PARSEC_PROFILES",
    "PatternSpec",
    "SCENARIO_PROFILES",
    "SPEC06_PROFILES",
    "SPEC17_PROFILES",
    "SUITE_PRECEDENCE",
    "TEMPORAL_PROFILES",
    "get_profile",
    "spec06_memory_intensive",
    "spec17_memory_intensive",
]
