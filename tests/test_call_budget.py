"""A deterministic budget on Python calls per simulated access.

Wall-clock gates are noisy; the number of Python frames a simulation
enters is not.  ``sys.setprofile`` counts every ``call`` event (Python
functions, dataclass ``__init__`` methods, comprehensions and generator
resumptions; C functions raise ``c_call`` instead) while ``simulate``
runs a pre-generated trace, so trace generation and selector set-up
stay outside the count.

Each ceiling is the count measured once trace records, access results
and outstanding misses became tuples and the L1 hit, the core's fast
paths and the prefetch issue probes were inlined, plus about 5%
headroom.  Calls per access, before → after that change:

- gcc/none: 13.79 → 6.39
- gcc/alecto: 43.30 → 33.05
- gcc/ipcp: 33.93 → 23.48
- mcf/bandit6: 40.81 → 30.27

Trace production has its own per-record budgets: iterating a
``BlockTraceReader`` costs 1.00 call per record (the generator's
resumption; 2.00 while records were frozen dataclasses), and
``BenchmarkProfile.stream`` on gcc 4.11 (5.11 before).  A change that
puts frames back on either path trips a budget; one that removes more
should lower it.
"""

import sys

import pytest

from repro.cpu.blocktrace import BlockTraceReader, write_trace_v2
from repro.registry import build_selector
from repro.sim.simulator import simulate
from repro.workloads import get_profile

ACCESSES = 2000

#: (benchmark, selector) -> ceiling on Python calls per access.
BUDGETS = {
    ("gcc", "none"): 6.7,
    ("gcc", "alecto"): 34.7,
    ("gcc", "ipcp"): 24.7,
    ("mcf", "bandit6"): 31.8,
}

#: Ceilings on Python calls per record while trace records are produced.
DECODE_BUDGET = 1.05
STREAM_BUDGET = 4.3

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info < (3, 11),
    reason="frame counts are interpreter-specific; budgets measured on CPython 3.11",
)


def count_calls(run) -> int:
    """Python ``call`` events while ``run()`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def calls_per_access(benchmark: str, spec: str, accesses: int = ACCESSES) -> float:
    """Python ``call`` events per access while ``simulate`` runs."""
    trace = get_profile(benchmark).generate(accesses, seed=1)
    selector = None if spec == "none" else build_selector(spec)
    return count_calls(lambda: simulate(trace, selector)) / accesses


@pytest.mark.parametrize("case", sorted(BUDGETS), ids="/".join)
def test_calls_per_access_within_budget(case):
    measured = calls_per_access(*case)
    assert measured <= BUDGETS[case], (
        f"{'/'.join(case)}: {measured:.2f} Python calls per access, "
        f"budget {BUDGETS[case]}"
    )


def calls_per_record(records) -> float:
    """Python ``call`` events per record while ``records`` is iterated."""
    produced = []
    return count_calls(lambda: produced.extend(records)) / len(produced)


def test_v2_decode_calls_per_record_within_budget(tmp_path):
    path = str(tmp_path / "gcc.trace.v2")
    write_trace_v2(path, get_profile("gcc").stream(ACCESSES, seed=1))
    measured = calls_per_record(BlockTraceReader(path))
    assert measured <= DECODE_BUDGET, (
        f"v2 decode: {measured:.2f} Python calls per record, "
        f"budget {DECODE_BUDGET}"
    )


def test_generation_calls_per_record_within_budget():
    measured = calls_per_record(get_profile("gcc").stream(ACCESSES, seed=1))
    assert measured <= STREAM_BUDGET, (
        f"gcc stream: {measured:.2f} Python calls per record, "
        f"budget {STREAM_BUDGET}"
    )
