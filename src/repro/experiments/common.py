"""Shared experiment machinery: selector construction and suite runners."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

from repro.common.config import SystemConfig
from repro.registry import build_selector
from repro.selection import AlectoConfig
from repro.sim import simulate
from repro.workloads.profiles import BenchmarkProfile

#: The five selectors compared throughout Section VI.
SELECTOR_NAMES = ("ipcp", "dol", "bandit3", "bandit6", "alecto")


def make_selector(
    name: str,
    composite: str = "gs_cs_pmp",
    with_temporal: bool = False,
    temporal_bytes: int = 1024 * 1024,
    alecto_config: Optional[AlectoConfig] = None,
):
    """Build a fresh selector (with fresh prefetchers) by registry spec.

    Thin wrapper over :func:`repro.registry.build_selector`; kept as the
    historical entry point for experiments and examples.

    Args:
        name: a registered selector name — ``ipcp``, ``dol``, ``bandit3``,
            ``bandit6``, ``bandit_ext``, ``alecto``, ``alecto_fix``,
            ``ppf_aggressive``, ``ppf_conservative``, ``triangel``, or a
            single-prefetcher baseline (``pmp_only`` / ``berti_only``) —
            optionally with declarative parameters appended, e.g.
            ``"alecto:fixed_degree=6"`` (see
            :func:`repro.registry.parse_spec`).
        composite: which composite prefetcher set to schedule.
        with_temporal: append an L2 temporal prefetcher (Fig. 13 setups).
        temporal_bytes: temporal metadata budget.
        alecto_config: overrides for Alecto variants.
    """
    return build_selector(
        name,
        composite=composite,
        with_temporal=with_temporal,
        temporal_bytes=temporal_bytes,
        alecto_config=alecto_config,
    )


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's aggregate for speedups)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def cell_store_key(
    profile: BenchmarkProfile,
    selector_name: Optional[str],
    accesses: int,
    seed: int,
    config: Optional[SystemConfig],
    selector_kwargs: Dict,
):
    """The result-store key of one (benchmark × selector × config) cell.

    One shared derivation for every call site —
    :meth:`repro.experiments.runner.SuiteRunner.speedup_suite` (at any
    job count) and :func:`benchmark_cells` (so :func:`cell_rows`) — so a
    cell computed by any of them is a cache hit for all of them.
    """
    from repro.store.keys import cell_key, trace_identity

    return cell_key(
        trace_identity(profile=profile),
        selector_name,
        accesses,
        seed,
        config=config,
        context=selector_kwargs,
    )


def benchmark_cells(
    profile: BenchmarkProfile,
    specs: Sequence[Optional[str]],
    accesses: int,
    seed: int = 1,
    config: Optional[SystemConfig] = None,
    **selector_kwargs,
) -> Dict[Optional[str], Dict]:
    """Summary rows of several cells on one benchmark, ``{spec: rows}``.

    Each cell is read through the active result store, in ``specs``
    order; the first miss generates the trace, which every missing
    spec then simulates before its record is put.  The store sees the
    same operations, in the same order and with the same record meta,
    as one :func:`cell_rows` call per spec, but the benchmark's trace
    is generated at most once.  The trace is not cached: it is dropped
    on return.  Without an active store every spec simply simulates.
    """
    from repro.experiments.runner import _cell_meta, simulation_rows
    from repro.store.resultstore import active_store

    store = active_store()
    trace = None
    rows: Dict[Optional[str], Dict] = {}
    for index, spec in enumerate(specs, 1):
        key = None
        if store is not None:
            key = cell_store_key(
                profile, spec, accesses, seed, config, selector_kwargs
            )
            value = store.get_value(key)
            if value is not None:
                rows[spec] = value
                continue
        if trace is None:
            trace = profile.generate(accesses, seed=seed)
        # No local holds the selector, so its tables are freed as soon
        # as the simulation returns, before the next spec's are built.
        result = simulate(
            trace,
            make_selector(spec, **selector_kwargs) if spec is not None else None,
            config=config,
            name=profile.name,
        )
        if index == len(specs):
            # Free the trace before the summary and the store write, as
            # a lone cell_rows call always did: it keeps peak RSS level.
            trace = None
        rows[spec] = simulation_rows(result)
        if store is not None:
            store.put(key, rows[spec], meta=_cell_meta(profile.name, spec))
    return rows


def cell_rows(
    profile: BenchmarkProfile,
    selector_name: Optional[str],
    accesses: int,
    seed: int = 1,
    config: Optional[SystemConfig] = None,
    **selector_kwargs,
) -> Dict:
    """Summary rows of one cell, read through the active result store.

    The rows are :func:`repro.experiments.runner.simulation_rows` of
    the simulation (``selector_name=None`` simulates without
    prefetching): experiments that only consume scalar outputs — IPC,
    ``table_misses``, accuracy/coverage — call this and become
    incremental for free.  Without an active store it simply
    simulates.  The one-spec case of :func:`benchmark_cells`.
    """
    return benchmark_cells(
        profile, (selector_name,), accesses, seed, config, **selector_kwargs
    )[selector_name]


def speedup_suite(
    profiles: Dict[str, BenchmarkProfile],
    selector_names: Sequence[str] = SELECTOR_NAMES,
    accesses: int = 15000,
    seed: int = 1,
    config: Optional[SystemConfig] = None,
    jobs: int = 1,
    **selector_kwargs,
) -> Dict[str, Dict[str, float]]:
    """Speedup over no-prefetching for every (benchmark, selector) pair.

    Returns ``{benchmark: {selector: speedup}}``.  Forwards to
    :meth:`repro.experiments.runner.SuiteRunner.speedup_suite` with
    ``jobs`` worker processes: cells are read through the active result
    store (:func:`repro.store.active_store`) and only the misses
    simulate, so a warm run executes zero simulations, and after a
    selector's ``code_fingerprint`` bump exactly that selector's cells
    recompute.  Rows are identical at every job count.
    """
    from repro.experiments.runner import SuiteRunner

    return SuiteRunner(jobs=jobs).speedup_suite(
        profiles, selector_names, accesses, seed, config, **selector_kwargs
    )


def add_geomean_rows(
    rows: Dict[str, Dict[str, float]],
    profiles: Dict[str, BenchmarkProfile],
) -> Dict[str, Dict[str, float]]:
    """Append the paper's Geomean-Mem / Geomean-All aggregate rows."""
    selectors: List[str] = list(next(iter(rows.values())).keys()) if rows else []
    mem = {
        s: geomean(
            rows[b][s] for b in rows if profiles[b].memory_intensive
        )
        for s in selectors
    }
    allr = {s: geomean(rows[b][s] for b in rows) for s in selectors}
    out = dict(rows)
    out["Geomean-Mem"] = mem
    out["Geomean-All"] = allr
    return out


def format_table(rows: Dict[str, Dict[str, float]], digits: int = 3) -> str:
    """Render rows as an aligned text table."""
    if not rows:
        return "(empty)"
    selectors = list(next(iter(rows.values())).keys())
    header = f"{'benchmark':<16}" + "".join(f"{s:>12}" for s in selectors)
    lines = [header]
    for name, row in rows.items():
        lines.append(
            f"{name:<16}"
            + "".join(f"{row.get(s, float('nan')):>12.{digits}f}" for s in selectors)
        )
    return "\n".join(lines)
