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
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.tables import SetAssociativeTable
from repro.common.types import REGION_SHIFT, DemandAccess
from repro.registry import build_selector
from repro.selection.alecto.selection import AlectoConfig
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
