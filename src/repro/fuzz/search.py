"""Seeded directed search over workload-factory parameter spaces.

The search hunts for *adversarial* workload points: parameter settings
of a registered factory (``"phased"``, ``"drifting"``) where an
objective fires — a selector's accuracy collapses, a paper-claimed
ordering inverts, an adaptive selector loses to the static best (see
:mod:`repro.fuzz.objectives`).  It is a deliberately simple
(1+1)-style hill climb with random restarts:

1. start at the factory's registered defaults;
2. each iteration proposes a candidate — usually a local mutation of
   one or two parameters of the current point, occasionally a fresh
   uniform sample of the whole space (escape hatch from local optima);
3. the candidate is scored by running its (selector × workload) cells
   through :func:`repro.experiments.common.benchmark_cells` — store-backed,
   so re-probing a point is a cache hit — and the walk moves when the
   score improves (plus a small deterministic acceptance slack);
4. every candidate whose objective **fires** is recorded, then
   auto-minimized: each parameter is greedily returned to its default
   (or bisected as close to it as possible) while the objective still
   fires, so the committed find names the *minimal deviation* that
   reproduces the failure.

Everything is deterministic: every stochastic decision is a blake2b
hash of ``(seed, structured tag)`` (:class:`repro.fuzz.space.DrawRng`,
same construction as :mod:`repro.faults`), and simulation itself is
seed-stable — so the same ``(budget, seed, objectives, factories)``
produce a byte-identical find list on every run, which is what lets CI
assert determinism and lets a warm store replay a whole search with
zero simulations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.fuzz.objectives import Objective, build_objective, list_objectives
from repro.fuzz.space import (
    DrawRng,
    factory_param_space,
    render_workload_spec,
    searchable_factories,
)
from repro.log import get_logger

_log = get_logger("fuzz")

__all__ = ["FIND_SCHEMA", "Find", "FuzzReport", "run_fuzz"]

#: Schema identifier stamped on every find / corpus entry.
FIND_SCHEMA = "repro.fuzz-find.v1"

#: Probability of a random restart instead of a local mutation.
_RESTART_P = 0.15
#: Probability of accepting a non-improving candidate (exploration).
_ACCEPT_WORSE_P = 0.10
#: Bisection steps per parameter during minimization.
_MINIMIZE_STEPS = 8


@dataclass(frozen=True)
class Find:
    """One minimized adversarial find (the corpus entry, pre-naming).

    Attributes:
        name: deterministic find name
            (``"<objective>-<factory>-<8 hex>"``).
        factory: the workload factory searched.
        workload: **fully-specified** factory spec — every searchable
            parameter spelled out, so the frozen regression workload
            never drifts if a factory default changes later.
        minimized: the canonical minimal spec (defaults dropped) — the
            human-readable "what actually matters" form.
        objective: canonical objective spec that fired.
        selectors: selector specs the objective evaluated (baseline
            ``None`` excluded).
        seed: trace seed of the evaluated cells.
        accesses: trace length of the evaluated cells.
        search_seed: seed of the search that found it (provenance).
        score: objective score at the minimized point.
        metrics: observed metrics at the minimized point (frozen into
            the corpus; replay must reproduce them).
    """

    name: str
    factory: str
    workload: str
    minimized: str
    objective: str
    selectors: Tuple[str, ...]
    seed: int
    accesses: int
    search_seed: int
    score: float
    metrics: Dict[str, Any]

    def as_dict(self) -> Dict[str, Any]:
        """The ``repro.fuzz-find.v1`` JSON document for this find."""
        return {
            "schema": FIND_SCHEMA,
            "name": self.name,
            "factory": self.factory,
            "workload": self.workload,
            "minimized": self.minimized,
            "objective": self.objective,
            "selectors": list(self.selectors),
            "seed": self.seed,
            "accesses": self.accesses,
            "search_seed": self.search_seed,
            "score": self.score,
            "metrics": self.metrics,
        }


@dataclass
class FuzzReport:
    """Everything one ``run_fuzz`` invocation did."""

    finds: List[Find]
    probes: int
    budget: int
    seed: int
    accesses: int
    trace_seed: int
    factories: Tuple[str, ...]
    objectives: Tuple[str, ...]
    #: Probes served from the in-run memo or the result store would be
    #: invisible in ``probes``; ``evaluations`` counts distinct
    #: (workload, objective) points actually assessed.
    evaluations: int = 0
    minimize_probes: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)


class _Evaluator:
    """Runs (selector × workload) cells for one objective, memoized.

    Cells go through :func:`repro.experiments.common.benchmark_cells`,
    so a probe generates its trace at most once, and an active result
    store makes every repeated probe — within this run or across runs —
    a cache hit; the in-run memo additionally avoids re-assessing a
    point the walk revisits when no store is active.
    """

    def __init__(
        self,
        objective: Objective,
        accesses: int,
        trace_seed: int,
        config: Any = None,
    ):
        self.objective = objective
        self.accesses = accesses
        self.trace_seed = trace_seed
        self.config = config
        self.probes = 0
        self._memo: Dict[str, Any] = {}

    def outcome(self, workload_spec: str):
        if workload_spec in self._memo:
            return self._memo[workload_spec]
        from repro.experiments.common import benchmark_cells
        from repro.registry import build_workload

        rows = benchmark_cells(
            build_workload(workload_spec),
            self.objective.selectors,
            self.accesses,
            seed=self.trace_seed,
            config=self.config,
        )
        outcome = self.objective.assess(rows)
        self.probes += 1
        self._memo[workload_spec] = outcome
        return outcome


def _resolved_defaults(factory: str, space: Dict[str, Any]) -> Dict[str, Any]:
    """The factory's default point, clamped into the declared domains.

    A default outside its own declared domain is a declaration bug, but
    the search should start *somewhere* sane rather than crash — the
    hypothesis sweep in the test-suite is what rejects lying domains.
    """
    from repro.registry import spec_defaults

    declared = spec_defaults("workload", factory)
    point: Dict[str, Any] = {}
    for name in sorted(space):
        domain = space[name]
        default = declared.get(name)
        if default is not None and domain.contains(default):
            point[name] = default
        elif default is not None and hasattr(domain, "clamp"):
            point[name] = domain.clamp(default)
        else:
            point[name] = domain.sample(0.0)
    return point


def _sample_point(
    space: Dict[str, Any], rng: DrawRng, tag: str
) -> Dict[str, Any]:
    return {
        name: space[name].sample(rng.draw(f"{tag}|sample|{name}"))
        for name in sorted(space)
    }


def _mutate_point(
    point: Dict[str, Any], space: Dict[str, Any], rng: DrawRng, tag: str
) -> Dict[str, Any]:
    names = sorted(space)
    mutated = dict(point)
    count = 2 if len(names) > 1 and rng.draw(f"{tag}|arity") < 0.35 else 1
    chosen: List[str] = []
    pool = list(names)
    for index in range(count):
        name = rng.pick(f"{tag}|param|{index}", pool)
        pool.remove(name)
        chosen.append(name)
    for name in chosen:
        mutated[name] = space[name].mutate(
            mutated[name], rng.draw(f"{tag}|value|{name}")
        )
    return mutated


def _find_name(
    objective: Objective, factory: str, minimized: str, accesses: int, seed: int
) -> str:
    digest = hashlib.blake2b(
        f"{minimized}|{objective.spec}|{accesses}|{seed}".encode("utf-8"),
        digest_size=4,
    ).hexdigest()
    return f"{objective.name}-{factory}-{digest}"


def _minimize(
    params: Dict[str, Any],
    defaults: Dict[str, Any],
    space: Dict[str, Any],
    fires: Callable[[Dict[str, Any]], bool],
) -> Dict[str, Any]:
    """Greedy per-parameter shrink toward the default point.

    For each parameter (sorted order — deterministic), first try the
    default outright; if the objective stops firing, bisect between the
    last firing value and the default, keeping the firing value closest
    to the default.  The result is a point that still fires but deviates
    from the defaults in as few parameters, by as little, as greedy
    search can manage.
    """
    current = dict(params)
    for name in sorted(space):
        if current[name] == defaults[name]:
            continue
        trial = dict(current)
        trial[name] = defaults[name]
        if fires(trial):
            current = trial
            continue
        domain = space[name]
        firing = current[name]
        dead = defaults[name]
        for _ in range(_MINIMIZE_STEPS):
            mid = domain.midpoint(firing, dead)
            if mid == firing or mid == dead:
                break
            trial = dict(current)
            trial[name] = mid
            if fires(trial):
                firing = mid
            else:
                dead = mid
        current[name] = firing
    return current


def _search_one(
    factory: str,
    objective: Objective,
    budget: int,
    rng: DrawRng,
    evaluator: _Evaluator,
) -> List[Tuple[Dict[str, Any], Any]]:
    """Hill-climb one (factory, objective) pair; returns fired points."""
    space = factory_param_space(factory)
    defaults = _resolved_defaults(factory, space)
    fired: List[Tuple[Dict[str, Any], Any]] = []
    seen_specs: set = set()

    def consider(point: Dict[str, Any], outcome: Any) -> None:
        spec = render_workload_spec(factory, point)
        if outcome.fired and spec not in seen_specs:
            seen_specs.add(spec)
            fired.append((dict(point), outcome))

    prefix = f"{factory}|{objective.spec}"
    current = defaults
    best = evaluator.outcome(render_workload_spec(factory, current))
    consider(current, best)
    for iteration in range(1, budget):
        tag = f"{prefix}|{iteration}"
        if rng.draw(f"{tag}|restart") < _RESTART_P:
            candidate = _sample_point(space, rng, tag)
        else:
            candidate = _mutate_point(current, space, rng, tag)
        outcome = evaluator.outcome(render_workload_spec(factory, candidate))
        consider(candidate, outcome)
        if (
            outcome.score > best.score
            or rng.draw(f"{tag}|accept") < _ACCEPT_WORSE_P
        ):
            current, best = candidate, outcome
    return fired


def run_fuzz(
    budget: int,
    seed: int = 0,
    objectives: Optional[List[str]] = None,
    factories: Optional[List[str]] = None,
    accesses: int = 6000,
    trace_seed: int = 1,
    config: Any = None,
) -> FuzzReport:
    """Directed adversarial search over every searchable factory.

    Args:
        budget: total search evaluations across all (factory,
            objective) pairs, split evenly (earlier pairs take the
            remainder).  Minimization probes are bounded separately and
            reported in ``minimize_probes``.
        seed: search seed — same seed, same trajectory, byte-identical
            find list.
        objectives: objective spec strings (default: every registered
            objective at its defaults).
        factories: factory names to search (default: every workload
            factory declaring a ``param_space``).  Unknown names and
            factories without a declared space raise ``ValueError``.
        accesses: trace length per evaluated cell.
        trace_seed: trace seed per evaluated cell.
        config: optional :class:`~repro.common.config.SystemConfig`.

    Returns a :class:`FuzzReport`; reads/writes cells through the
    *ambient* result store (:func:`repro.store.active_store`) exactly
    like :func:`repro.experiments.common.cell_rows` — activate a store
    around this call to make searches incremental and replays warm.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if factories is None:
        factories = searchable_factories()
    else:
        for name in factories:
            if not factory_param_space(name):
                raise ValueError(
                    f"workload {name!r} declares no param_space "
                    f"(searchable: {', '.join(searchable_factories())})"
                )
    factories = sorted(factories)
    if not factories:
        raise ValueError("no searchable workload factories registered")
    objective_list = [
        build_objective(spec)
        for spec in (objectives if objectives is not None else list_objectives())
    ]
    if not objective_list:
        raise ValueError("at least one objective is required")

    pairs = [
        (factory, objective)
        for objective in objective_list
        for factory in factories
    ]
    share, remainder = divmod(budget, len(pairs))
    rng = DrawRng(seed)
    finds: List[Find] = []
    seen_minimized: set = set()
    probes = 0
    minimize_probes = 0
    evaluations = 0
    for index, (factory, objective) in enumerate(pairs):
        pair_budget = share + (1 if index < remainder else 0)
        if pair_budget == 0:
            continue
        evaluator = _Evaluator(objective, accesses, trace_seed, config=config)
        raw = _search_one(factory, objective, pair_budget, rng, evaluator)
        probes += min(pair_budget, evaluator.probes)
        search_probes = evaluator.probes
        space = factory_param_space(factory)
        defaults = _resolved_defaults(factory, space)

        def fires(point: Dict[str, Any]) -> bool:
            return evaluator.outcome(
                render_workload_spec(factory, point)
            ).fired

        for point, _outcome in raw:
            minimal = _minimize(point, defaults, space, fires)
            workload = render_workload_spec(factory, minimal)
            from repro.registry import canonical_spec

            minimized = canonical_spec("workload", workload)
            key = (minimized, objective.spec)
            if key in seen_minimized:
                continue
            seen_minimized.add(key)
            outcome = evaluator.outcome(workload)
            finds.append(
                Find(
                    name=_find_name(
                        objective, factory, minimized, accesses, trace_seed
                    ),
                    factory=factory,
                    workload=workload,
                    minimized=minimized,
                    objective=objective.spec,
                    selectors=tuple(
                        spec for spec in objective.selectors if spec is not None
                    ),
                    seed=trace_seed,
                    accesses=accesses,
                    search_seed=seed,
                    score=outcome.score,
                    metrics=outcome.metrics,
                )
            )
        minimize_probes += evaluator.probes - search_probes
        evaluations += len(evaluator._memo)
    finds.sort(key=lambda find: (find.objective, find.workload, find.name))
    _log.info(
        "fuzz: %d find(s) in %d probe(s) (budget %d, seed %d)",
        len(finds),
        probes,
        budget,
        seed,
    )
    return FuzzReport(
        finds=finds,
        probes=probes,
        budget=budget,
        seed=seed,
        accesses=accesses,
        trace_seed=trace_seed,
        factories=tuple(factories),
        objectives=tuple(objective.spec for objective in objective_list),
        evaluations=evaluations,
        minimize_probes=minimize_probes,
    )
