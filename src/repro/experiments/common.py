"""Shared experiment machinery: selector construction and suite runners."""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

from repro.common.config import SystemConfig
from repro.registry import build_selector
from repro.selection import AlectoConfig
from repro.sim import SimulationResult, simulate
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


def run_benchmark(
    profile: BenchmarkProfile,
    selector_name: Optional[str],
    accesses: int,
    seed: int = 1,
    config: Optional[SystemConfig] = None,
    **selector_kwargs,
) -> SimulationResult:
    """Simulate one benchmark under one selector (None = no prefetching)."""
    trace = profile.generate(accesses, seed=seed)
    selector = (
        make_selector(selector_name, **selector_kwargs)
        if selector_name is not None
        else None
    )
    return simulate(trace, selector, config=config, name=profile.name)


def cell_store_key(
    profile: BenchmarkProfile,
    selector_name: Optional[str],
    accesses: int,
    seed: int,
    config: Optional[SystemConfig],
    selector_kwargs: Dict,
):
    """The result-store key of one (benchmark × selector × config) cell.

    One shared derivation for every call site — the serial suite, the
    process-pool fan-out, and :func:`cell_rows` — so a cell computed by
    any of them is a cache hit for all of them.
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


def cell_rows(
    profile: BenchmarkProfile,
    selector_name: Optional[str],
    accesses: int,
    seed: int = 1,
    config: Optional[SystemConfig] = None,
    **selector_kwargs,
) -> Dict:
    """Summary rows of one cell, read through the active result store.

    The JSON-serializable twin of :func:`run_benchmark`
    (:func:`repro.experiments.runner.simulation_rows` of the same
    simulation): experiments that only consume scalar outputs — IPC,
    ``table_misses``, accuracy/coverage — can call this instead and
    become incremental for free.  Without an active store it simply
    simulates.
    """
    from repro.experiments.runner import simulation_rows
    from repro.store.resultstore import active_store

    store = active_store()
    key = None
    if store is not None:
        key = cell_store_key(
            profile, selector_name, accesses, seed, config, selector_kwargs
        )
        value = store.get_value(key)
        if value is not None:
            return value
    rows = simulation_rows(
        run_benchmark(
            profile, selector_name, accesses, seed, config, **selector_kwargs
        )
    )
    if store is not None:
        from repro.experiments.runner import _cell_meta

        store.put(key, rows, meta=_cell_meta(profile.name, selector_name))
    return rows


def _compute_missing_cells(
    store,
    profile: BenchmarkProfile,
    name: str,
    missing: Sequence[Optional[str]],
    keys: Dict,
    summaries: Dict,
    accesses: int,
    seed: int,
    config: Optional[SystemConfig],
    selector_kwargs: Dict,
) -> None:
    """Fill ``summaries`` for every spec in ``missing``, claim-first.

    Without a store this simply simulates.  With one, each cell is
    leased (``store.claim``) before it simulates so several nodes
    sharing a store partition the grid: cells another node holds are
    deferred, then polled — served from the store once the peer's
    record lands, or computed here if its lease expires first.  The
    trace is fetched lazily, once, and only if this node actually
    computes a cell; it comes from the per-process trace cache, so a
    sweep that runs the same suite once per point generates it once.
    """
    import time as _time

    from repro.experiments.runner import (
        _cached_trace,
        _cell_meta,
        simulation_rows,
    )

    trace = None

    def compute(spec: Optional[str]) -> None:
        nonlocal trace
        if trace is None:
            trace = _cached_trace(profile, accesses, seed)
        selector = (
            make_selector(spec, **selector_kwargs) if spec is not None else None
        )
        result = simulate(trace, selector, config=config, name=name)
        summaries[spec] = simulation_rows(result)
        if store is not None:
            store.put(keys[spec], summaries[spec], meta=_cell_meta(name, spec))

    if store is None:
        for spec in missing:
            compute(spec)
        return

    from repro.store.resultstore import lease_ttl

    ttl = lease_ttl()
    claimed: List[Optional[str]] = []
    deferred: List[Optional[str]] = []
    for spec in missing:
        (claimed if store.claim(keys[spec], ttl) else deferred).append(spec)
    held = set(claimed)
    try:
        for spec in claimed:
            compute(spec)
            store.release(keys[spec])
            held.discard(spec)
        poll = 0.05
        give_up_at = _time.monotonic() + 2.0 * ttl + 60.0
        pending = deferred
        while pending:
            still: List[Optional[str]] = []
            for spec in pending:
                value = store.get_value(keys[spec])
                if value is not None:
                    summaries[spec] = value
                elif store.claim(keys[spec], ttl):
                    held.add(spec)
                    compute(spec)
                    store.release(keys[spec])
                    held.discard(spec)
                else:
                    still.append(spec)
            pending = still
            if not pending:
                return
            if _time.monotonic() > give_up_at:
                # Peer wedged past any credible TTL: fail open (like
                # ResultStore.claim) and compute locally — duplicated
                # work is byte-identical; a hung suite is worse.
                for spec in pending:
                    compute(spec)
                return
            _time.sleep(poll)
            poll = min(poll * 1.6, 2.0)
    finally:
        for spec in held:
            store.release(keys[spec])


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

    Returns ``{benchmark: {selector: speedup}}``; traces are generated once
    per benchmark so every selector sees the identical access stream.
    ``jobs > 1`` fans the independent (benchmark, selector) cells out over
    a process pool (:class:`repro.experiments.runner.SuiteRunner`); the
    rows are numerically identical to the serial run.

    When a result store is active (:func:`repro.store.active_store`),
    every cell is read through it and only the misses simulate: a warm
    run executes zero simulations, and after a selector's
    ``code_fingerprint`` bump exactly that selector's cells recompute.
    """
    if jobs > 1:
        from repro.experiments.runner import SuiteRunner

        return SuiteRunner(jobs=jobs).speedup_suite(
            profiles,
            selector_names,
            accesses=accesses,
            seed=seed,
            config=config,
            **selector_kwargs,
        )
    from repro.store.resultstore import active_store

    store = active_store()
    rows: Dict[str, Dict[str, float]] = {}
    for name, profile in profiles.items():
        specs = (None, *selector_names)
        summaries: Dict[Optional[str], Dict] = {}
        keys: Dict[Optional[str], object] = {}
        if store is not None:
            for spec in specs:
                keys[spec] = cell_store_key(
                    profile, spec, accesses, seed, config, selector_kwargs
                )
                value = store.get_value(keys[spec])
                if value is not None:
                    summaries[spec] = value
        missing = [spec for spec in specs if spec not in summaries]
        if missing:
            _compute_missing_cells(
                store, profile, name, missing, keys, summaries,
                accesses, seed, config, selector_kwargs,
            )
        baseline = summaries[None]["ipc"]
        rows[name] = {
            spec: (summaries[spec]["ipc"] / baseline if baseline else 0.0)
            for spec in selector_names
        }
    return rows


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
