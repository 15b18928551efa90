"""Parity pins for the per-access fast paths.

``AlectoSelection.step`` fuses the selection protocol into one pass that
probes each Alecto table once; ``SelectionAlgorithm.step`` composes the
public hooks (observe_demand → allocate → train → filter_prefetches).
Twin selectors, one driven each way over the same trace, must return the
same candidates and end every access in the same table state.
The IPCP, DOL and Bandit ``step`` overrides skip the allocation objects;
their twins must also agree on the prefetch filter and, for Bandit, on
arms and rewards.

``SetAssociativeTable.get_or_insert`` hashes once where ``lookup`` plus
``insert`` hash twice; twin tables driven each way must agree on every
statistic, per-set contents and order, and the replacement RNG.

Every ``step`` trains through one ``train_grants`` pass.  A reference
copy of the per-prefetcher ``train`` wrapper it replaced, and of the
composed step that called it, pins the pass: twins driven each way must
emit the same candidates and count the same training occurrences after
every access.  Alecto caches its grant plan on each entry's states; a
write to the states, an epoch and a reset must each change the next
step's degrees.
"""

import functools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.tables import SetAssociativeTable
from repro.common.types import REGION_SHIFT, DemandAccess, PrefetchCandidate
from repro.prefetchers.base import Prefetcher, train_grants
from repro.registry import build_prefetcher, build_selector, list_prefetchers
from repro.selection.alecto.allocation_table import PrefetcherStates
from repro.selection.alecto.selection import AlectoConfig
from repro.selection.alecto.states import PrefetcherState
from repro.selection.base import SelectionAlgorithm
from repro.workloads import get_profile

#: Small tables, short epochs and a low dead threshold: evictions,
#: epoch transitions and deadlock resets all happen within a short trace.
_TIGHT = AlectoConfig(
    allocation_entries=8,
    sample_entries=8,
    sandbox_entries=32,
    epoch_demands=8,
    dead_threshold=6,
)

#: (selector spec, build_selector keyword arguments) per configuration.
CONFIGS = {
    "default": ("alecto", {}),
    "tight": ("alecto", {"alecto_config": _TIGHT}),
    "alecto_fix": ("alecto_fix", {"alecto_config": _TIGHT}),
    "overrides": (
        "alecto",
        {
            "alecto_config": replace(
                _TIGHT,
                db_overrides=(("pmp", 0.3),),
                degree_overrides=(("stride", 5),),
            )
        },
    ),
    "with_temporal": (
        "alecto",
        {"alecto_config": _TIGHT, "with_temporal": True,
         "temporal_bytes": 4096},
    ),
}


def _twins(config):
    spec, kwargs = CONFIGS[config]
    return build_selector(spec, **kwargs), build_selector(spec, **kwargs)


def _table_state(table):
    """Per-set contents in recency order (the SetAssociativeTable dicts)."""
    return {index: list(entries.items()) for index, entries in table._sets.items()}


def _selector_state(selector):
    allocation = {
        index: [(pc, repr(entry.states)) for pc, entry in entries]
        for index, entries in _table_state(selector.allocation_table._table).items()
    }
    sample = {
        index: [
            (pc, list(e.issued), list(e.confirmed), e.demand_counter,
             e.dead_counter.value)
            for pc, e in entries
        ]
        for index, entries in _table_state(selector.sample_table._table).items()
    }
    sandbox = {
        index: [(line, e.pc_tag, list(e.valid)) for line, e in entries]
        for index, entries in _table_state(selector.sandbox_table._table).items()
    }
    return {
        "allocation": allocation,
        "sample": sample,
        "sandbox": sandbox,
        "epochs_completed": selector.epochs_completed,
        "deadlock_resets": selector.deadlock_resets,
        "duplicates_filtered": selector.sandbox_table.duplicates_filtered,
        "prefetcher_tables": [
            (p.name, p.table_stats, p.training_occurrences)
            for p in selector.prefetchers
        ],
    }


def _candidates(batch):
    return [(c.line, c.prefetcher, c.to_next_level, c.confidence) for c in batch]


def _drive(config, accesses):
    """Run twins access by access; return the fused twin's final counters."""
    fused, composed = _twins(config)
    for access in accesses:
        fast = fused.step(access)
        slow = SelectionAlgorithm.step(composed, access)
        assert _candidates(fast) == _candidates(slow)
        fused.post_issue(access, fast)
        composed.post_issue(access, slow)
        assert _selector_state(fused) == _selector_state(composed)
    return fused


def _access(index, pc, line):
    address = line << 6
    return DemandAccess(
        pc=pc, address=address, timestamp=index + 1, line=line,
        region=address >> REGION_SHIFT,
    )


@st.composite
def traces(draw):
    """Interleaved per-PC strided streams with occasional far jumps."""
    pcs = draw(st.integers(1, 12))
    strides = draw(
        st.lists(st.sampled_from([1, 1, 2, 3, -1, 7, 0]), min_size=pcs, max_size=pcs)
    )
    cursors = [4096 * (i + 1) for i in range(pcs)]
    steps = draw(
        st.lists(st.tuples(st.integers(0, pcs - 1), st.integers(0, 15)),
                 min_size=1, max_size=300)
    )
    accesses = []
    for index, (which, roll) in enumerate(steps):
        if roll == 0:
            cursors[which] += 997  # leave the region: a new spatial trigger
        else:
            cursors[which] += strides[which]
        accesses.append(_access(index, 0x400000 + 0x40 * which, cursors[which]))
    return accesses


@pytest.mark.parametrize("config", sorted(CONFIGS))
@settings(max_examples=25, deadline=None)
@given(accesses=traces())
def test_fused_step_matches_composed_hooks(config, accesses):
    _drive(config, accesses)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_fused_step_matches_on_a_profile_trace(config):
    """A benchmark trace, then one PC that streams and stalls on a line:
    long enough to exercise every Alecto rule, the Dead Counter too."""
    records = get_profile("gcc").generate(1500, seed=2)
    lines = [record.address >> 6 for record in records]
    pcs = [record.pc for record in records]
    stall = 1 << 20
    lines += [stall + i for i in range(300)] + [stall + 300] * 200
    pcs += [0x400100] * 500
    fused = _drive(
        config, [_access(i, pc, line) for i, (pc, line) in enumerate(zip(pcs, lines))]
    )
    assert fused.epochs_completed > 0
    assert fused.sandbox_table.duplicates_filtered > 0
    assert fused.deadlock_resets > 0


# -- IPCP, DOL and Bandit: fused steps ≡ the composed hooks -----------------

#: (selector spec, build_selector keyword arguments) per configuration of
#: the selectors whose step() skips the allocation objects.
TRAIN_ALL_CONFIGS = {
    "ipcp": ("ipcp", {}),
    "dol": ("dol", {}),
    "dol_berti_cplx": ("dol", {"composite": "gs_berti_cplx"}),
    "bandit3": ("bandit3", {}),
    "bandit6": ("bandit6", {}),
    "bandit_ext": ("bandit_ext", {}),
    "bandit_temporal": (
        "bandit6", {"with_temporal": True, "temporal_bytes": 4096}
    ),
}


def _train_all_state(selector):
    state = {
        "filter": _table_state(selector._filter._table),
        "dropped": selector._filter.dropped,
        "prefetcher_tables": [
            (p.name, p.table_stats, p.training_occurrences)
            for p in selector.prefetchers
        ],
    }
    if hasattr(selector, "arms"):
        state.update(
            arm=selector._current_arm,
            values=dict(selector._arm_value),
            pulls=dict(selector._arm_pulls),
            epsilon=selector.epsilon,
            accesses_in_epoch=selector._accesses_in_epoch,
            pending_reward=selector._pending_reward,
        )
    return state


def _drive_train_all(config, accesses):
    """Run twins access by access, rewarding bandits identically."""
    spec, kwargs = TRAIN_ALL_CONFIGS[config]
    fused, composed = build_selector(spec, **kwargs), build_selector(spec, **kwargs)
    if hasattr(fused, "arms"):
        # Short epochs, so arms change within a short trace.
        fused.epoch_accesses = composed.epoch_accesses = 16
    for index, access in enumerate(accesses):
        fast = fused.step(access)
        slow = SelectionAlgorithm.step(composed, access)
        assert _candidates(fast) == _candidates(slow)
        for twin, batch in ((fused, fast), (composed, slow)):
            twin.post_issue(access, batch)
            if twin.needs_reward:
                twin.performance_sample(3 * index + index % 7, 2.0 * index + 1)
        assert _train_all_state(fused) == _train_all_state(composed)
    return fused


@pytest.mark.parametrize("config", sorted(TRAIN_ALL_CONFIGS))
@settings(max_examples=25, deadline=None)
@given(accesses=traces())
def test_train_all_step_matches_composed_hooks(config, accesses):
    _drive_train_all(config, accesses)


@pytest.mark.parametrize("config", sorted(TRAIN_ALL_CONFIGS))
def test_train_all_step_matches_on_a_profile_trace(config):
    records = get_profile("gcc").generate(800, seed=2)
    fused = _drive_train_all(
        config,
        [_access(i, r.pc, r.address >> 6) for i, r in enumerate(records)],
    )
    assert fused._filter.dropped > 0


# -- get_or_insert ≡ lookup + insert ----------------------------------------


def _twin_tables(replacement):
    return [
        SetAssociativeTable(16, ways=4, replacement=replacement, seed=5)
        for _ in range(2)
    ]


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["get_or_insert", "get_or_insert", "insert", "insert_none",
                         "lookup", "invalidate"]),
        st.integers(0, 40),
    ),
    max_size=200,
)


@pytest.mark.parametrize("replacement", ["lru", "random"])
@settings(max_examples=60, deadline=None)
@given(operations=_OPS)
def test_get_or_insert_matches_lookup_then_insert(replacement, operations):
    single, pair = _twin_tables(replacement)
    for step, (op, key) in enumerate(operations):
        if op == "get_or_insert":
            factory = lambda: ("fresh", step)  # noqa: E731
            got = single.get_or_insert(key, factory)
            expected = pair.lookup(key)
            if expected is None:
                expected = factory()
                pair.insert(key, expected)
            assert got == expected
        elif op == "insert":
            assert single.insert(key, ("put", step)) == pair.insert(key, ("put", step))
        elif op == "insert_none":
            assert single.insert(key, None) == pair.insert(key, None)
        elif op == "lookup":
            assert single.lookup(key) == pair.lookup(key)
        else:
            assert single.invalidate(key) == pair.invalidate(key)
        assert single.stats == pair.stats
        assert _table_state(single) == _table_state(pair)
        assert len(single) == len(pair)
        assert single._rng.getstate() == pair._rng.getstate()


# -- one training pass ≡ the per-prefetcher wrapper it replaced ---------------


def _reference_train(prefetcher, access, degree):
    """``Prefetcher.train`` as it was before ``train_grants``."""
    prefetcher.training_occurrences += 1
    max_degree = prefetcher.max_degree
    if max_degree is not None and degree > max_degree:
        degree = max_degree
    lines = prefetcher._train(access, degree)
    if not lines or degree <= 0:
        return []
    confidence = prefetcher.prediction_confidence()
    return [
        PrefetchCandidate(line, prefetcher.name, access.pc,
                          prefetcher.fills_next_level, confidence, access.core_id)
        for line in lines[:degree]
    ]


def _reference_grants(access, grants):
    """The old composed step's training loop over ``grants``."""
    candidates = []
    for prefetcher, degree, next_level_from in grants:
        produced = _reference_train(prefetcher, access, degree)
        if next_level_from is not None:
            for candidate in produced[next_level_from:]:
                candidate.to_next_level = True
        candidates.extend(produced)
    return candidates


def _reference_step(selector, access):
    """The old ``SelectionAlgorithm.step``: hooks in order, one wrapper
    call per allocation decision."""
    selector.observe_demand(access)
    grants = [
        (decision.prefetcher, decision.degree, decision.next_level_from)
        for decision in selector.allocate(access)
    ]
    return selector.filter_prefetches(_reference_grants(access, grants), access)


def _full_candidates(batch):
    return [
        (c.line, c.prefetcher, c.pc, c.to_next_level, c.confidence, c.core_id)
        for c in batch
    ]


def _occurrences(prefetchers):
    return [(p.name, p.training_occurrences) for p in prefetchers]


#: Every registered prefetcher, the temporal one (max_degree 1, fills the
#: next level) included.
_PREFETCHERS = sorted(list_prefetchers())


def _prefetcher_set():
    small = {"temporal": {"metadata_bytes": 4096}}
    return [build_prefetcher(name, **small.get(name, {})) for name in _PREFETCHERS]


@st.composite
def granted_traces(draw):
    """A trace, replayed once so the temporal prefetcher predicts, plus
    per access a grant for each prefetcher (or none)."""
    accesses = draw(traces())
    accesses += [
        _access(len(accesses) + i, a.pc, a.line) for i, a in enumerate(accesses)
    ]
    grant = st.one_of(
        st.none(),
        st.tuples(st.integers(0, 8), st.one_of(st.none(), st.integers(0, 4))),
    )
    plans = draw(st.lists(
        st.lists(grant, min_size=len(_PREFETCHERS), max_size=len(_PREFETCHERS)),
        min_size=len(accesses), max_size=len(accesses),
    ))
    return accesses, plans


@settings(max_examples=25, deadline=None)
@given(trace=granted_traces())
def test_train_grants_matches_the_per_prefetcher_wrapper(trace):
    accesses, plans = trace
    new, old = _prefetcher_set(), _prefetcher_set()
    for access, plan in zip(accesses, plans):
        new_grants = [(p, *g) for p, g in zip(new, plan) if g is not None]
        old_grants = [(p, *g) for p, g in zip(old, plan) if g is not None]
        assert _full_candidates(train_grants(access, new_grants)) == (
            _full_candidates(_reference_grants(access, old_grants))
        )
        assert _occurrences(new) == _occurrences(old)


@pytest.mark.parametrize("next_level_from", [None, 0, 3])
def test_temporal_grant_is_clamped_and_fills_the_next_level(next_level_from):
    temporal = build_prefetcher("temporal", metadata_bytes=4096)
    reference = build_prefetcher("temporal", metadata_bytes=4096)
    emitted = []
    for index, line in enumerate([5, 9, 40, 77] * 8):
        access = _access(index, 0x400, line)
        batch = train_grants(access, [(temporal, 4, next_level_from)])
        assert _full_candidates(batch) == _full_candidates(
            _reference_grants(access, [(reference, 4, next_level_from)])
        )
        emitted += batch
    assert emitted and all(c.to_next_level for c in emitted)
    assert temporal.training_occurrences == reference.training_occurrences == 32


class _Overeager(Prefetcher):
    """Returns more lines than granted; the pass keeps the first ``degree``."""

    name = "overeager"

    def _train(self, access, degree):
        return [access.line + i for i in range(1, 11)]

    def tables(self):
        return ()


@pytest.mark.parametrize("degree, next_level_from", [(0, None), (3, None), (3, 1)])
def test_pass_keeps_the_first_degree_lines(degree, next_level_from):
    access = _access(0, 0x400, 100)
    batch = train_grants(access, [(_Overeager(), degree, next_level_from)])
    assert _full_candidates(batch) == _full_candidates(
        _reference_grants(access, [(_Overeager(), degree, next_level_from)])
    )
    assert [c.line for c in batch] == [101, 102, 103][:degree]


def test_train_is_the_one_prefetcher_pass():
    stride = build_prefetcher("stride")
    reference = build_prefetcher("stride")
    for index in range(32):
        access = _access(index, 0x400, 3 * index)
        assert _full_candidates(stride.train(access, 4)) == (
            _full_candidates(_reference_train(reference, access, 4))
        )
    assert stride.training_occurrences == reference.training_occurrences == 32


#: (selector spec, build_selector keyword arguments): every selector on
#: the shared pass, through its own step or the composed one.
PASS_CONFIGS = {
    "alecto": ("alecto", {"alecto_config": _TIGHT}),
    "alecto_fix": ("alecto_fix", {"alecto_config": _TIGHT}),
    "ipcp": ("ipcp", {}),
    "dol": ("dol", {}),
    "bandit": ("bandit6", {"with_temporal": True, "temporal_bytes": 4096}),
    "ppf": ("ppf_aggressive", {}),
    "triangel": ("triangel", {"with_temporal": True, "temporal_bytes": 4096}),
    "with_temporal": (
        "alecto",
        {"alecto_config": _TIGHT, "with_temporal": True, "temporal_bytes": 4096},
    ),
}


def _drive_against_reference(config, accesses):
    """A selector on the new pass against a twin on the reference wrapper
    (shadow training included), access by access."""
    spec, kwargs = PASS_CONFIGS[config]
    new, old = build_selector(spec, **kwargs), build_selector(spec, **kwargs)
    for prefetcher in old.prefetchers:
        prefetcher.train = functools.partial(_reference_train, prefetcher)
    if hasattr(new, "arms"):
        new.epoch_accesses = old.epoch_accesses = 16
    for index, access in enumerate(accesses):
        fast = new.step(access)
        slow = _reference_step(old, access)
        assert _full_candidates(fast) == _full_candidates(slow)
        for twin, batch in ((new, fast), (old, slow)):
            twin.post_issue(access, batch)
            if twin.needs_reward:
                twin.performance_sample(3 * index + index % 7, 2.0 * index + 1)
        assert _occurrences(new.prefetchers) == _occurrences(old.prefetchers)
    return new


@pytest.mark.parametrize("config", sorted(PASS_CONFIGS))
@settings(max_examples=15, deadline=None)
@given(accesses=traces())
def test_step_matches_the_reference_wrapper(config, accesses):
    _drive_against_reference(config, accesses)


@pytest.mark.parametrize("config", sorted(PASS_CONFIGS))
def test_step_matches_the_reference_wrapper_on_a_profile_trace(config):
    records = get_profile("gcc").generate(1200, seed=2)
    selector = _drive_against_reference(
        config, [_access(i, r.pc, r.address >> 6) for i, r in enumerate(records)]
    )
    assert sum(p.training_occurrences for p in selector.prefetchers) > 1200


# -- Alecto's cached grant plan ------------------------------------------------

_PC = 0x400200


def _recording_alecto():
    """Default Alecto whose prefetchers record their granted degrees."""
    selector = build_selector("alecto")
    granted = []
    for prefetcher in selector.prefetchers:
        def record(access, degree, name=prefetcher.name):
            granted.append((name, degree))
            return []

        prefetcher._train = record
    return selector, granted


def _degrees_of_next_step(selector, granted, index):
    granted.clear()
    access = _access(index, _PC, 1000 + index)
    selector.post_issue(access, selector.step(access))
    return dict(granted)


def test_grant_plan_follows_direct_state_writes():
    selector, granted = _recording_alecto()
    names = [p.name for p in selector.prefetchers]
    assert _degrees_of_next_step(selector, granted, 0) == dict.fromkeys(names, 3)
    entry = selector.allocation_table.peek(_PC)
    entry.states[0] = PrefetcherState.ia(2)
    assert entry.any_aggressive()
    assert _degrees_of_next_step(selector, granted, 1) == {
        names[0]: 6, names[1]: 3, names[2]: 3
    }
    entry.states[1] = PrefetcherState.ib(0)
    assert _degrees_of_next_step(selector, granted, 2) == {names[0]: 6, names[2]: 3}
    entry.states[0] = PrefetcherState.ui()
    assert not entry.any_aggressive()
    assert _degrees_of_next_step(selector, granted, 3) == {names[0]: 3, names[2]: 3}


def test_grant_plan_follows_an_epoch_and_a_reset():
    selector, granted = _recording_alecto()
    names = [p.name for p in selector.prefetchers]
    _degrees_of_next_step(selector, granted, 0)
    entry = selector.allocation_table.peek(_PC)
    selector.allocation_table.apply_epoch(entry, [1.0, None, None])
    assert repr(entry.states) == "[IA_0, IB_0, IB_0]"
    assert _degrees_of_next_step(selector, granted, 1) == {names[0]: 4}
    entry.reset()
    assert _degrees_of_next_step(selector, granted, 2) == dict.fromkeys(names, 3)


def test_state_list_mutations_drop_the_plan():
    states = PrefetcherStates([PrefetcherState.ia(1), PrefetcherState.ui()])
    for mutate in (
        lambda s: s.append(PrefetcherState.ui()),
        lambda s: s.pop(),
        lambda s: s.extend([]),
        lambda s: s.__delitem__(0),
        lambda s: s.__setitem__(slice(0, 1), [PrefetcherState.ui()]),
        lambda s: s.reverse(),
    ):
        states.grants, states.aggressive = ["stale"], True
        mutate(states)
        assert states.grants is None and states.aggressive is None
