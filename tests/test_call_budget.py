"""A deterministic budget on Python calls per simulated access.

Wall-clock gates are noisy; the number of Python frames a simulation
enters is not.  ``sys.setprofile`` counts every ``call`` event (Python
functions, dataclass ``__init__`` methods, comprehensions and generator
resumptions; C functions raise ``c_call`` instead) while ``simulate``
runs a pre-generated trace, so trace generation and selector set-up
stay outside the count.

Each ceiling is the count measured when the training pass was folded
into one ``train_grants`` call per step, plus about 5% headroom: 43.3
calls per access for gcc/alecto and 33.9 for gcc/ipcp, against 54.9 and
48.9 before.  A change that puts frames back on the per-access path
trips it; one that removes more should lower it.
"""

import sys

import pytest

from repro.registry import build_selector
from repro.sim.simulator import simulate
from repro.workloads import get_profile

ACCESSES = 2000

#: (benchmark, selector) -> ceiling on Python calls per access.
BUDGETS = {
    ("gcc", "alecto"): 45.5,
    ("gcc", "ipcp"): 35.6,
}

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info < (3, 11),
    reason="frame counts are interpreter-specific; budgets measured on CPython 3.11",
)


def calls_per_access(benchmark: str, spec: str, accesses: int = ACCESSES) -> float:
    """Python ``call`` events per access while ``simulate`` runs."""
    trace = get_profile(benchmark).generate(accesses, seed=1)
    selector = build_selector(spec)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        simulate(trace, selector)
    finally:
        sys.setprofile(previous)
    return calls / accesses


@pytest.mark.parametrize("case", sorted(BUDGETS), ids="/".join)
def test_calls_per_access_within_budget(case):
    measured = calls_per_access(*case)
    assert measured <= BUDGETS[case], (
        f"{'/'.join(case)}: {measured:.2f} Python calls per access, "
        f"budget {BUDGETS[case]}"
    )
