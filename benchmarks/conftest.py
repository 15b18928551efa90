"""Shared benchmark configuration.

Each benchmark regenerates one paper figure/table at a reduced scale
(trace length) so the whole suite runs in minutes; the experiment modules'
``run()`` defaults produce the EXPERIMENTS.md numbers at full scale.
Results are attached to ``benchmark.extra_info`` and printed, so
``pytest benchmarks/ --benchmark-only -s`` shows every regenerated row.

The benchmarks of one session read their cells through one fresh result
store, so a cell two figures share (Fig. 8's SPEC06 cells recur in the
LLC-size, bandwidth and composite sweeps) simulates once per session.
Rows are those of an uncached run: the store returns the summary rows
the same cell computed earlier in the session.
"""

import pytest

from repro.store import ResultStore, activate

#: Trace length used by the scaled-down benchmark runs.
BENCH_ACCESSES = 6000
#: Reduced per-core trace length for the eight-core benchmark.
BENCH_MULTICORE_ACCESSES = 2500


@pytest.fixture(scope="session")
def session_cell_store(tmp_path_factory):
    """An empty result store that lives for the benchmark session."""
    return ResultStore(str(tmp_path_factory.mktemp("bench-cells")))


@pytest.fixture(autouse=True)
def _cells_through_session_store(session_cell_store):
    # Active only while a benchmark runs, so tests elsewhere in the
    # same session never see it.
    with activate(session_cell_store):
        yield


def record_rows(benchmark, title, rows):
    """Attach experiment rows to the benchmark report and print them."""
    benchmark.extra_info["rows"] = {
        str(k): {str(a): round(float(b), 4) for a, b in v.items()}
        if isinstance(v, dict)
        else round(float(v), 4)
        for k, v in rows.items()
    }
    print(f"\n{title}")
    for key, row in rows.items():
        if isinstance(row, dict):
            cells = "  ".join(f"{a}={float(b):.3f}" for a, b in row.items())
            print(f"  {key}: {cells}")
        else:
            print(f"  {key}: {row}")
