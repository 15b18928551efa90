"""Pins on trace generation: exact output, and how often it runs.

The digests were recorded with pattern set-up driven by the stdlib
(``random.Random.shuffle``/``randrange`` and a successor-array pointer
chase), so any change to a generated record, or to how a pattern
consumes its RNG, fails here.  The call counts pin that the cells of
one benchmark share one generated trace.
"""

import hashlib

import pytest

from repro.experiments.common import benchmark_cells, cell_rows
from repro.experiments.fig01_table_misses import run as fig01
from repro.fuzz.objectives import build_objective
from repro.fuzz.search import _Evaluator
from repro.sim import simulation_count
from repro.store import ResultStore, activate
from repro.workloads import (
    ALL_SUITES,
    SCENARIO_PROFILES,
    SPEC06_PROFILES,
    SPEC17_PROFILES,
    TEMPORAL_PROFILES,
)
from repro.workloads.profiles import BenchmarkProfile
from repro.workloads.scenarios import drifting, phased

ACCESSES = 2000
SEED = 1
#: fig01 shrunk to test scale.
TINY = {"accesses": 120, "seed": 1}

#: blake2b-128 over every record of every profile in the group, at
#: ``ACCESSES`` accesses and seed ``SEED``.
GENERATION_DIGESTS = {
    "spec06": "acb217d6c0d9389a857a3b322364521b",
    "spec17": "d4b408053387634f479f5b5ada4a6acd",
    "parsec": "90a1f971b49aab76ca12bf26b8a5a7ae",
    "ligra": "34f62d9cbf163b0fb23a54050938fca4",
    "temporal": "5bf75fc6563e0b72611ef40e38b9be55",
    "scenarios": "66fe7a04780ba52b5bc85f1e810e8806",
    "phased()": "7764b21a589809f9e111013dd596c3ad",
    "drifting()": "e08ea839cbaab58f1e75d117c02ce63a",
}

_GROUPS = {
    **{name: list(profiles.values()) for name, profiles in ALL_SUITES.items()},
    "temporal": list(TEMPORAL_PROFILES.values()),
    "scenarios": list(SCENARIO_PROFILES.values()),
    "phased()": [phased()],
    "drifting()": [drifting()],
}


def trace_digest(profiles):
    digest = hashlib.blake2b(digest_size=16)
    for profile in profiles:
        digest.update(profile.name.encode() + b"\n")
        for r in profile.generate(ACCESSES, seed=SEED):
            digest.update(
                b"%d,%d,%s,%d,%d\n"
                % (
                    r.pc,
                    r.address,
                    r.access_type.value.encode(),
                    r.nonmem_before,
                    r.dependent,
                )
            )
    return digest.hexdigest()


@pytest.mark.parametrize("group", sorted(GENERATION_DIGESTS))
def test_generated_traces_are_pinned(group):
    assert trace_digest(_GROUPS[group]) == GENERATION_DIGESTS[group]


@pytest.fixture
def generate_calls(monkeypatch):
    """Count every ``BenchmarkProfile.generate`` call."""
    calls = []
    original = BenchmarkProfile.generate

    def counting(self, *args, **kwargs):
        calls.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(BenchmarkProfile, "generate", counting)
    return calls


class TestOneTracePerBenchmark:
    def test_fig01_generates_once_per_benchmark(self, tmp_path, generate_calls):
        store = ResultStore(str(tmp_path / "store"))
        with activate(store):
            cold = fig01(**TINY)
            benchmarks = len(SPEC06_PROFILES) + len(SPEC17_PROFILES)
            assert len(generate_calls) == benchmarks == 50
            assert store.stats.puts == 2 * benchmarks

            del generate_calls[:]
            before = simulation_count()
            assert fig01(**TINY) == cold
            assert generate_calls == []
            assert simulation_count() == before

            rows = cell_rows(SPEC06_PROFILES["mcf"], "alecto", **TINY)
            assert generate_calls == []
            assert rows["table_misses"] >= 0

    def test_fuzz_probe_generates_once(self, generate_calls, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        objective = build_objective("inversion")
        assert len(objective.selectors) > 1
        evaluator = _Evaluator(objective, TINY["accesses"], TINY["seed"])
        evaluator.outcome("phased:period=100")
        assert len(generate_calls) == 1


def _recording_store(path, monkeypatch):
    """A store that logs each get/put as ``(op, digest, meta)``."""
    store = ResultStore(str(path))
    log = []
    get_value, put = store.get_value, store.put

    def logged_get(key):
        log.append(("get", key.digest, None))
        return get_value(key)

    def logged_put(key, value, meta=None, **kwargs):
        provenance = {k: v for k, v in (meta or {}).items() if k != "created"}
        log.append(("put", key.digest, provenance))
        return put(key, value, meta=meta, **kwargs)

    monkeypatch.setattr(store, "get_value", logged_get)
    monkeypatch.setattr(store, "put", logged_put)
    return store, log


def test_benchmark_cells_matches_consecutive_cell_rows(tmp_path, monkeypatch):
    """Same rows, same store operations in the same order, same meta."""
    profile = SPEC06_PROFILES["mcf"]
    specs = ("ipcp", None, "alecto")
    runs = {}
    for name in ("grouped", "single"):
        store, log = _recording_store(tmp_path / name, monkeypatch)
        with activate(store):
            cell_rows(profile, "alecto", **TINY)  # one warm cell
            del log[:]
            if name == "grouped":
                rows = benchmark_cells(profile, specs, **TINY)
            else:
                rows = {spec: cell_rows(profile, spec, **TINY) for spec in specs}
        runs[name] = (rows, log)
    assert runs["grouped"] == runs["single"]
    ops = [op for op, _, _ in runs["grouped"][1]]
    assert ops == ["get", "put", "get", "put", "get"]
