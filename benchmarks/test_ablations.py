"""Benches: design-choice ablations the paper calls load-bearing.

Not paper figures — these regenerate the sensitivity sweeps around
Alecto's design constants (PB/DB boundaries, epoch length, Sandbox
capacity) plus the Section VI-A CSR tuning experiment.
"""

from conftest import record_rows

from repro.experiments import (
    ablation_boundaries,
    ablation_epoch,
    ablation_sandbox,
    sec6a_csr_tuning,
)

ABLATION_ACCESSES = 5000


def test_ablation_boundaries(benchmark):
    rows = benchmark.pedantic(
        lambda: ablation_boundaries.run(accesses=ABLATION_ACCESSES),
        rounds=1,
        iterations=1,
    )
    record_rows(benchmark, "Ablation — PB/DB sensitivity", rows)
    # The paper's operating point must not be a cliff: PB=0.75 within a
    # few percent of the best swept value.
    pb = rows["PB"]
    assert pb["PB=0.75"] >= 0.93 * max(pb.values())


def test_ablation_epoch(benchmark):
    rows = benchmark.pedantic(
        lambda: ablation_epoch.run(accesses=ABLATION_ACCESSES),
        rounds=1,
        iterations=1,
    )
    record_rows(benchmark, "Ablation — epoch length", rows)
    assert rows["epoch=100"] >= 0.93 * max(rows.values())


def test_ablation_sandbox(benchmark):
    rows = benchmark.pedantic(
        lambda: ablation_sandbox.run(accesses=ABLATION_ACCESSES),
        rounds=1,
        iterations=1,
    )
    record_rows(benchmark, "Ablation — sandbox capacity", rows)
    assert rows["sandbox=512"] >= 0.93 * max(rows.values())


def test_sec6a_csr_tuning(benchmark):
    rows = benchmark.pedantic(
        lambda: sec6a_csr_tuning.run(accesses=ABLATION_ACCESSES),
        rounds=1,
        iterations=1,
    )
    record_rows(benchmark, "Sec. VI-A — CSR tuning", rows)
    for name, row in rows.items():
        # Tuned Alecto must close most of any gap to Bandit6 (paper: <1%).
        assert row["alecto_tuned"] >= row["bandit6"] - 0.05, name
