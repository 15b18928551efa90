"""Tests for the content-addressed result store (:mod:`repro.store`).

Pins the store's contract end to end: key stability across processes,
hit/miss/invalidation on ``code_fingerprint`` bumps (exactly the bumped
selector's cells recompute), corrupted-record detection, concurrent
atomic writers, resumability of interrupted suite runs, and warm runs
executing zero simulations with byte-identical rows.
"""

import glob
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from repro.experiments.common import cell_rows, cell_store_key, speedup_suite
from repro.experiments.runner import SuiteRunner, pool_simulation_count
from repro.registry import EXPERIMENTS, SELECTORS
from repro.sim import simulation_count
from repro.store import (
    ResultStore,
    StoreKey,
    activate,
    cell_key,
    experiment_key,
    run_suite,
    trace_identity,
)
from repro.workloads import get_profile

ACCESSES = 400
#: Overrides that shrink fig01/fig08 to test scale (also part of the key).
TINY = {"accesses": 120, "seed": 1}


@pytest.fixture
def store(tmp_path):
    return ResultStore(str(tmp_path / "store"))


@pytest.fixture
def profiles():
    return {"gcc": get_profile("gcc"), "mcf": get_profile("mcf")}


@contextmanager
def bumped_fingerprint(registry, name, fingerprint=2):
    """Temporarily re-register ``name`` with a bumped code fingerprint."""
    obj = registry.get(name)
    meta = registry.metadata(name)
    registry.add(name, obj, **{**meta, "fingerprint": fingerprint})
    try:
        yield
    finally:
        registry.add(name, obj, **meta)


class TestKeys:
    def test_cell_key_is_stable_within_process(self):
        profile = get_profile("gcc")
        first = cell_key(trace_identity(profile=profile), "alecto", 500, 1)
        second = cell_key(trace_identity(profile=profile), "alecto", 500, 1)
        assert first.digest == second.digest

    def test_cell_key_depends_on_every_input(self):
        profile = get_profile("gcc")
        base = cell_key(trace_identity(profile=profile), "alecto", 500, 1)
        variants = [
            cell_key(trace_identity(profile=get_profile("mcf")), "alecto", 500, 1),
            cell_key(trace_identity(profile=profile), "ipcp", 500, 1),
            cell_key(trace_identity(profile=profile), "alecto:fixed_degree=6", 500, 1),
            cell_key(trace_identity(profile=profile), "alecto", 501, 1),
            cell_key(trace_identity(profile=profile), "alecto", 500, 2),
            cell_key(
                trace_identity(profile=profile), "alecto", 500, 1,
                context={"composite": "gs_berti_cplx"},
            ),
        ]
        digests = {base.digest} | {k.digest for k in variants}
        assert len(digests) == len(variants) + 1

    def test_default_config_and_explicit_default_alias(self):
        from repro.common.config import SystemConfig

        profile = get_profile("gcc")
        implicit = cell_key(trace_identity(profile=profile), "alecto", 500, 1)
        explicit = cell_key(
            trace_identity(profile=profile), "alecto", 500, 1,
            config=SystemConfig(),
        )
        assert implicit.digest == explicit.digest

    def test_explicit_default_context_aliases_implicit(self):
        """Spelling out make_selector defaults must not split the cell.

        fig08 omits ``composite`` while other call sites pass
        ``composite="gs_cs_pmp"`` explicitly — both must address the
        same record, or the same simulation is computed and stored
        twice."""
        profile = get_profile("gcc")
        implicit = cell_store_key(profile, "alecto", 500, 1, None, {})
        explicit = cell_store_key(
            profile, "alecto", 500, 1, None,
            {
                "composite": "gs_cs_pmp",
                "with_temporal": False,
                "temporal_bytes": 1024 * 1024,
                "alecto_config": None,
            },
        )
        assert implicit.digest == explicit.digest
        non_default = cell_store_key(
            profile, "alecto", 500, 1, None, {"composite": "gs_berti_cplx"}
        )
        assert non_default.digest != implicit.digest

    def test_trace_meta_identity(self):
        meta = {"benchmark": "gcc", "accesses": 500, "seed": 1}
        key = cell_key(trace_identity(meta=meta), "alecto", 500, 1)
        assert key.payload["trace"]["source"] == "trace.v1"
        with pytest.raises(ValueError):
            trace_identity()
        with pytest.raises(ValueError):
            trace_identity(profile=get_profile("gcc"), meta=meta)

    def test_key_stable_across_processes(self):
        """A spawned interpreter recomputes the identical digests.

        Guards against salted ``hash()``, dict/set iteration order, or
        unstable ``repr`` sneaking into key derivation: pool workers and
        CI runs must address the very same records.  Selector-bearing
        keys also embed registry fingerprint maps — equal between a
        parent and its pool workers (same registrations), but not
        between this test session (other tests register extra
        components) and a fresh interpreter — so the cross-process pin
        uses a baseline cell (full trace/config/context derivation, no
        fingerprint maps) plus a fixed payload.
        """
        profile = get_profile("gcc")
        local_baseline = cell_store_key(profile, None, 500, 1, None, {})
        fixed = StoreKey(
            "cell",
            {"schema": "repro.store.v1", "n": 1, "pi": 3.125, "s": "x"},
        )
        script = (
            "from repro.experiments.common import cell_store_key\n"
            "from repro.store import StoreKey\n"
            "from repro.workloads import get_profile\n"
            "profile = get_profile('gcc')\n"
            "print(cell_store_key(profile, None, 500, 1, None, {}).digest)\n"
            "print(StoreKey('cell', {'schema': 'repro.store.v1', 'n': 1, "
            "'pi': 3.125, 's': 'x'}).digest)\n"
        )
        env = {**os.environ, "PYTHONHASHSEED": "random"}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.split()
        assert out == [local_baseline.digest, fixed.digest]

    def test_fingerprint_bump_changes_only_that_selector(self):
        profile = get_profile("gcc")
        alecto = cell_store_key(profile, "alecto", 500, 1, None, {})
        alecto_spec = cell_store_key(
            profile, "alecto:fixed_degree=6", 500, 1, None, {}
        )
        ipcp = cell_store_key(profile, "ipcp", 500, 1, None, {})
        baseline = cell_store_key(profile, None, 500, 1, None, {})
        with bumped_fingerprint(SELECTORS, "alecto"):
            assert cell_store_key(
                profile, "alecto", 500, 1, None, {}
            ).digest != alecto.digest
            assert cell_store_key(
                profile, "alecto:fixed_degree=6", 500, 1, None, {}
            ).digest != alecto_spec.digest
            assert cell_store_key(
                profile, "ipcp", 500, 1, None, {}
            ).digest == ipcp.digest
            assert cell_store_key(
                profile, None, 500, 1, None, {}
            ).digest == baseline.digest

    def test_experiment_key_ignores_jobs(self):
        serial = experiment_key("fig08", {"accesses": 500, "jobs": 1})
        parallel = experiment_key("fig08", {"accesses": 500, "jobs": 4})
        assert serial.digest == parallel.digest

    def test_experiment_key_tracks_component_fingerprints(self):
        base = experiment_key("fig08", {"accesses": 500})
        with bumped_fingerprint(SELECTORS, "alecto"):
            assert experiment_key("fig08", {"accesses": 500}).digest != base.digest
        assert experiment_key("fig08", {"accesses": 500}).digest == base.digest

    def test_experiment_key_tracks_workload_definitions(self, monkeypatch):
        """Editing a benchmark profile must invalidate experiment records.

        Cells track their own profile via ``trace_identity``; the
        experiment tier embeds ``workload_fingerprint()`` so a changed
        pattern mix cannot leave a whole-experiment record looking
        fresh."""
        import dataclasses

        from repro.workloads import ALL_SUITES

        base = experiment_key("fig08", {"accesses": 500})
        suite = dict(ALL_SUITES["spec06"])
        name, profile = next(iter(suite.items()))
        suite[name] = dataclasses.replace(profile, mem_ratio=profile.mem_ratio / 2)
        monkeypatch.setitem(ALL_SUITES, "spec06", suite)
        assert experiment_key("fig08", {"accesses": 500}).digest != base.digest

    def test_new_workload_registration_invalidates_only_its_own_cells(self):
        """Registering a workload must not move other workloads' cell keys.

        Cells are keyed on their own profile's content
        (``trace_identity``), so a new registration leaves every
        existing cell record hittable — only experiment-tier records
        (which embed ``workload_fingerprint()``) go stale and then
        replay their untouched cells from the store."""
        from repro.registry import WORKLOADS
        from repro.store.keys import workload_fingerprint
        from repro.workloads.profiles import profile as make_profile

        gcc_cell = cell_store_key(get_profile("gcc"), "alecto", 500, 1, None, {})
        baseline = cell_store_key(get_profile("gcc"), None, 500, 1, None, {})
        experiment = experiment_key("fig08", {"accesses": 500})
        fingerprint_before = workload_fingerprint()

        fresh = make_profile("zz_fresh", "test", True, 0.3, [
            (1.0, "drifting_stride", {"footprint": 1 << 22}),
        ])
        WORKLOADS.add("zz_fresh", fresh, suite="test")
        try:
            # Existing cells: byte-identical keys, still cache hits.
            assert cell_store_key(
                get_profile("gcc"), "alecto", 500, 1, None, {}
            ).digest == gcc_cell.digest
            assert cell_store_key(
                get_profile("gcc"), None, 500, 1, None, {}
            ).digest == baseline.digest
            # The new workload's cells are their own, distinct keys.
            assert cell_store_key(
                fresh, "alecto", 500, 1, None, {}
            ).digest != gcc_cell.digest
            # The conservative experiment tier does go stale.
            assert workload_fingerprint() != fingerprint_before
            assert experiment_key(
                "fig08", {"accesses": 500}
            ).digest != experiment.digest
        finally:
            WORKLOADS._entries.pop("zz_fresh", None)
            WORKLOADS._metadata.pop("zz_fresh", None)
        assert workload_fingerprint() == fingerprint_before

    def test_imported_traces_do_not_move_experiment_keys(self, tmp_path):
        """Ambient `repro trace import` runs must not invalidate caches:
        imported traces only reach an experiment through an explicit
        parameter, which is already part of its key."""
        from repro.cpu.champsim import IMPORTED_PROFILES, import_trace, write_champsim
        from repro.registry import WORKLOADS
        from repro.store.keys import workload_fingerprint

        base = experiment_key("fig08", {"accesses": 500})
        fingerprint_before = workload_fingerprint()
        src = str(tmp_path / "zz.champsim.gz")
        write_champsim(src, get_profile("gcc").generate(50, seed=1))
        import_trace(src, name="zz_ambient", directory=str(tmp_path / "i"))
        try:
            assert workload_fingerprint() == fingerprint_before
            assert experiment_key("fig08", {"accesses": 500}).digest == base.digest
        finally:
            IMPORTED_PROFILES.pop("zz_ambient", None)
            for key in ("zz_ambient", "imported/zz_ambient"):
                WORKLOADS._entries.pop(key, None)
                WORKLOADS._metadata.pop(key, None)


class TestResultStore:
    def test_put_get_roundtrip(self, store):
        key = StoreKey("cell", {"schema": "repro.store.v1", "x": 1})
        value = {"ipc": 1.2345678901234567, "table_misses": 42}
        store.put(key, value, meta={"benchmark": "gcc"})
        record = store.get(key)
        assert record["value"] == value  # floats round-trip exactly
        assert record["meta"]["benchmark"] == "gcc"
        assert store.stats.hits == 1 and store.stats.puts == 1

    def test_get_miss(self, store):
        assert store.get(StoreKey("cell", {"absent": True})) is None
        assert store.stats.misses == 1

    def test_value_insertion_order_survives(self, store):
        key = StoreKey("experiment", {"n": 1})
        value = {"zebra": 1, "alpha": 2, "mid": {"b": 1, "a": 2}}
        store.put(key, value)
        assert json.dumps(store.get_value(key)) == json.dumps(value)

    def test_corrupt_record_is_miss_and_verify_flags_it(self, store, capsys):
        key = StoreKey("cell", {"schema": "repro.store.v1", "x": 2})
        store.put(key, {"ipc": 1.0})
        path = store.path_for(key)
        content = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(content.replace(b'"ipc": 1.0', b'"ipc": 9.9'))
        assert store.get(key) is None
        assert store.stats.corrupt == 1
        assert "corrupt record" in capsys.readouterr().err
        problems = store.verify()
        assert len(problems) == 1 and "footer" in problems[0][1]

    def test_truncated_record_detected(self, store):
        key = StoreKey("cell", {"schema": "repro.store.v1", "x": 3})
        store.put(key, {"ipc": 1.0})
        path = store.path_for(key)
        body = open(path, "rb").read().partition(b"\n")[0]
        with open(path, "wb") as handle:
            handle.write(body)  # strip the integrity footer
        assert store.get(key) is None
        assert any("footer" in reason for _, reason in store.verify())

    def test_misfiled_record_flagged(self, store):
        key = StoreKey("cell", {"schema": "repro.store.v1", "x": 4})
        store.put(key, {"ipc": 1.0})
        path = store.path_for(key)
        bogus = os.path.join(os.path.dirname(path), "ab" * 16 + ".json")
        os.rename(path, bogus)
        assert any("filename" in reason for _, reason in store.verify())

    def test_gc_drops_stale_and_corrupt(self, store):
        profile = get_profile("gcc")
        alecto = cell_store_key(profile, "alecto", 500, 1, None, {})
        ipcp = cell_store_key(profile, "ipcp", 500, 1, None, {})
        store.put(alecto, {"ipc": 1.0})
        store.put(ipcp, {"ipc": 1.0})
        with bumped_fingerprint(SELECTORS, "alecto"):
            removed = store.gc()
        assert removed == [store.path_for(alecto)]
        assert store.get(ipcp) is not None

    def test_gc_drops_cells_of_edited_profiles(self, store):
        """A workload edit orphans its old cells; gc must reclaim them."""
        import dataclasses

        profile = get_profile("gcc")
        edited = dataclasses.replace(profile, mem_ratio=profile.mem_ratio / 2)
        orphan = cell_store_key(edited, "alecto", 500, 1, None, {})
        live = cell_store_key(profile, "alecto", 500, 1, None, {})
        store.put(orphan, {"ipc": 1.0})
        store.put(live, {"ipc": 1.0})
        removed = store.gc()
        assert removed == [store.path_for(orphan)]
        assert store.get(live) is not None

    def test_gc_drops_cells_stranded_by_new_prefetcher(self, store):
        """Registering a prefetcher changes every selector-cell key, so
        the old records are unreachable; gc must reclaim them (full-set
        comparison, not per-entry)."""
        from repro.registry import PREFETCHERS

        profile = get_profile("gcc")
        cell = cell_store_key(profile, "alecto", 500, 1, None, {})
        baseline = cell_store_key(profile, None, 500, 1, None, {})
        store.put(cell, {"ipc": 1.0})
        store.put(baseline, {"ipc": 1.0})
        PREFETCHERS.add("_gc_test_prefetcher", object)
        try:
            assert cell_store_key(
                profile, "alecto", 500, 1, None, {}
            ).digest != cell.digest
            removed = store.gc()
            assert removed == [store.path_for(cell)]
            assert store.get(baseline) is not None  # baselines unaffected
        finally:
            del PREFETCHERS._entries["_gc_test_prefetcher"]
            del PREFETCHERS._metadata["_gc_test_prefetcher"]

    def test_gc_everything_and_dry_run(self, store):
        key = StoreKey("cell", {"schema": "repro.store.v1", "x": 5})
        store.put(key, {"ipc": 1.0})
        assert store.gc(everything=True, dry_run=True) == [store.path_for(key)]
        assert store.get(key) is not None
        store.gc(everything=True)
        assert store.get(key) is None

    def test_gc_reclaims_orphaned_tmp_files(self, store):
        """A worker killed mid-``put`` leaks its ``*.tmp`` sibling.

        No process remembers the random temp name afterwards, so gc is
        the only reclaimer — but it must not race a *live* writer, so
        only temps older than the grace period (or ``everything``) go.
        """
        key = StoreKey("cell", {"schema": "repro.store.v1", "x": 5})
        store.put(key, {"ipc": 1.0})
        shard_dir = os.path.dirname(store.path_for(key))
        stale_tmp = os.path.join(shard_dir, "tmpdead01.tmp")
        fresh_tmp = os.path.join(shard_dir, "tmplive01.tmp")
        journal_dir = os.path.join(store.root, "journal")
        os.makedirs(journal_dir)
        journal_tmp = os.path.join(journal_dir, ".run-xyz.tmp")
        for path in (stale_tmp, fresh_tmp, journal_tmp):
            with open(path, "w") as handle:
                handle.write("partial")
        old = time.time() - 7200
        os.utime(stale_tmp, (old, old))
        os.utime(journal_tmp, (old, old))

        # stale=False isolates the temp sweep (the synthetic record has
        # no live fingerprints, so default stale gc would drop it too)
        removed = store.gc(stale=False, dry_run=True)
        assert stale_tmp in removed and journal_tmp in removed
        assert fresh_tmp not in removed
        assert os.path.exists(stale_tmp)  # dry run deleted nothing

        removed = store.gc(stale=False)
        assert stale_tmp in removed and journal_tmp in removed
        assert not os.path.exists(stale_tmp)
        assert not os.path.exists(journal_tmp)
        assert os.path.exists(fresh_tmp)  # within grace: maybe mid-write
        assert store.get_value(key) == {"ipc": 1.0}  # records untouched

        # everything reclaims temps regardless of age
        assert fresh_tmp in store.gc(everything=True)
        assert not os.path.exists(fresh_tmp)

    def test_export_import_roundtrip(self, store, tmp_path):
        keys = [StoreKey("cell", {"schema": "repro.store.v1", "x": i}) for i in range(5)]
        for i, key in enumerate(keys):
            store.put(key, {"ipc": float(i)})
        archive = str(tmp_path / "archive.jsonl.gz")
        assert store.export(archive) == 5
        other = ResultStore(str(tmp_path / "other"))
        assert other.import_archive(archive) == 5
        assert other.import_archive(archive) == 0  # idempotent merge
        for i, key in enumerate(keys):
            assert other.get_value(key) == {"ipc": float(i)}
        assert other.verify() == []

    def test_import_rejects_doctored_archive(self, store, tmp_path):
        import gzip

        store.put(StoreKey("cell", {"schema": "repro.store.v1", "x": 6}), {"ipc": 1.0})
        archive = str(tmp_path / "archive.jsonl.gz")
        store.export(archive)
        lines = gzip.open(archive, "rt").read().splitlines()
        lines[1] = lines[1].replace('"ipc": 1.0', '"ipc": 9.9')
        with gzip.open(archive, "wt") as handle:
            handle.write("\n".join(lines) + "\n")
        other = ResultStore(str(tmp_path / "other"))
        with pytest.raises(ValueError, match="integrity cross-check"):
            other.import_archive(archive)

    def test_concurrent_writers_same_key(self, store, tmp_path):
        """Two processes putting the same key leave one valid record."""
        script = (
            "import sys\n"
            "from repro.store import ResultStore, StoreKey\n"
            "store = ResultStore(sys.argv[1])\n"
            "key = StoreKey('cell', {'schema': 'repro.store.v1', 'race': 1})\n"
            "for _ in range(100):\n"
            "    store.put(key, {'ipc': 1.25})\n"
        )
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH")) if p
        )
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, store.root],
                env=env, stderr=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        for worker in workers:
            assert worker.wait() == 0, worker.stderr.read()
        key = StoreKey("cell", {"schema": "repro.store.v1", "race": 1})
        assert store.get_value(key) == {"ipc": 1.25}
        assert store.verify() == []
        leftovers = [
            name
            for name in os.listdir(os.path.dirname(store.path_for(key)))
            if name.endswith(".tmp")
        ]
        assert leftovers == []


class TestCellCaching:
    def test_warm_speedup_suite_executes_zero_simulations(
        self, store, profiles
    ):
        with activate(store):
            before = simulation_count()
            cold = speedup_suite(profiles, ["ipcp", "alecto"], accesses=ACCESSES)
            cold_sims = simulation_count() - before
            warm = speedup_suite(profiles, ["ipcp", "alecto"], accesses=ACCESSES)
            warm_sims = simulation_count() - before - cold_sims
        assert cold_sims == 6  # (baseline + 2 selectors) x 2 benchmarks
        assert warm_sims == 0
        assert json.dumps(cold) == json.dumps(warm)

    def test_bump_invalidates_exactly_that_selectors_cells(
        self, store, profiles
    ):
        with activate(store):
            speedup_suite(profiles, ["ipcp", "alecto"], accesses=ACCESSES)
            with bumped_fingerprint(SELECTORS, "alecto"):
                before = simulation_count()
                bumped = speedup_suite(
                    profiles, ["ipcp", "alecto"], accesses=ACCESSES
                )
                # one alecto cell per benchmark; baselines and ipcp hit
                assert simulation_count() - before == len(profiles)
            before = simulation_count()
            restored = speedup_suite(
                profiles, ["ipcp", "alecto"], accesses=ACCESSES
            )
            assert simulation_count() - before == 0
        assert json.dumps(bumped) == json.dumps(restored)

    def test_parallel_fanout_populates_store_for_serial_warm_run(
        self, store, profiles
    ):
        cold = SuiteRunner(jobs=2, store=store).speedup_suite(
            profiles, ["ipcp", "alecto"], accesses=ACCESSES
        )
        with activate(store):
            before = simulation_count()
            warm = speedup_suite(profiles, ["ipcp", "alecto"], accesses=ACCESSES)
            assert simulation_count() - before == 0
        assert json.dumps(cold) == json.dumps(warm)

    def test_parallel_fanout_reads_store(self, store, profiles):
        with activate(store):
            speedup_suite(profiles, ["ipcp", "alecto"], accesses=ACCESSES)
        puts = store.stats.puts
        rows = SuiteRunner(jobs=2, store=store).speedup_suite(
            profiles, ["ipcp", "alecto"], accesses=ACCESSES
        )
        assert store.stats.puts == puts  # every cell was a hit
        with activate(store):
            assert json.dumps(rows) == json.dumps(
                speedup_suite(profiles, ["ipcp", "alecto"], accesses=ACCESSES)
            )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_runner_store_is_used_at_every_job_count(
        self, store, profiles, monkeypatch, jobs
    ):
        """``SuiteRunner(store=...)`` reads and fills its own store
        without an ambient one, in-process as well as pooled."""
        monkeypatch.delenv("REPRO_STORE", raising=False)
        SuiteRunner(jobs=jobs, store=store).speedup_suite(
            profiles, ["ipcp"], accesses=ACCESSES
        )
        assert store.stats.puts == 4  # (baseline + ipcp) x 2 benchmarks
        before = simulation_count() + pool_simulation_count()
        SuiteRunner(jobs=jobs, store=store).speedup_suite(
            profiles, ["ipcp"], accesses=ACCESSES
        )
        assert simulation_count() + pool_simulation_count() - before == 0
        assert store.stats.puts == 4

    def test_cell_rows_shares_cells_with_speedup_suite(self, store, profiles):
        with activate(store):
            speedup_suite(profiles, ["ipcp"], accesses=ACCESSES)
            before = simulation_count()
            rows = cell_rows(profiles["gcc"], "ipcp", ACCESSES, 1)
            assert simulation_count() - before == 0
            assert rows["table_misses"] >= 0

    def test_no_store_means_no_caching(self, profiles, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        before = simulation_count()
        speedup_suite(profiles, ["ipcp"], accesses=ACCESSES)
        speedup_suite(profiles, ["ipcp"], accesses=ACCESSES)
        assert simulation_count() - before == 8


class TestRunSuite:
    def test_warm_suite_is_cached_and_byte_identical(self, store):
        cold = run_suite(["fig01"], overrides=TINY, store=store)
        assert cold.computed == ["fig01"] and cold.cached == []
        before = simulation_count()
        warm = run_suite(["fig01"], overrides=TINY, store=store)
        assert simulation_count() - before == 0
        assert warm.cached == ["fig01"] and warm.computed == []
        assert json.dumps(cold.results[0].to_dict()) == json.dumps(
            warm.results[0].to_dict()
        )

    def test_interrupted_suite_resumes(self, store):
        """A crash mid-suite loses only the in-flight experiment."""
        broken = EXPERIMENTS.get("fig08")
        meta = EXPERIMENTS.metadata("fig08")

        def explode(**kwargs):
            raise RuntimeError("injected failure")

        import dataclasses

        EXPERIMENTS.add("fig08", dataclasses.replace(broken, fn=explode), **meta)
        try:
            with pytest.raises(RuntimeError, match="injected"):
                run_suite(["fig01", "fig08"], overrides=TINY, store=store)
        finally:
            EXPERIMENTS.add("fig08", broken, **meta)
        # fig01 completed before the crash and was persisted immediately.
        report = run_suite(["fig01"], overrides=TINY, store=store)
        assert report.cached == ["fig01"]

    def test_experiment_invalidation_reuses_cells(self, store):
        """Bumping a selector re-runs experiments but replays their cells.

        fig01 sums table misses over ipcp and alecto cells; after an
        ``ipcp`` bump the experiment record is stale, yet re-running it
        simulates only the ipcp cells — the alecto half comes from the
        store.
        """
        cold = run_suite(["fig01"], overrides=TINY, store=store)
        cells = sum(1 for _ in glob.iglob(store.root + "/[0-9a-f][0-9a-f]/*.json"))
        with bumped_fingerprint(SELECTORS, "ipcp"):
            before = simulation_count()
            bumped = run_suite(["fig01"], overrides=TINY, store=store)
            sims = simulation_count() - before
        assert bumped.computed == ["fig01"]
        # half the cells (the ipcp ones) re-simulated, none of alecto's
        assert sims == (cells - 1) // 2
        assert json.dumps(bumped.results[0].rows) == json.dumps(
            cold.results[0].rows
        )

    def test_parallel_suite_workers_write_cells(self, store):
        """Pool workers inherit the store and persist their own cells.

        Two experiments so the pool path engages (a single miss runs
        serially in-process)."""
        parent_before = simulation_count()
        report = run_suite(
            ["fig01", "fig08"], overrides=TINY, jobs=2, store=store
        )
        assert sorted(report.computed) == ["fig01", "fig08"]
        # all simulating happened in the workers — and their activity
        # reaches the parent's totals, so the suite summary must not
        # read "0 simulations" just because a pool did the work
        assert simulation_count() == parent_before
        assert report.worker_simulations > 0
        assert store.stats.puts > 2
        with activate(store):
            before = simulation_count()
            cell_rows(get_profile("gcc"), "ipcp", TINY["accesses"], TINY["seed"])
            assert simulation_count() - before == 0
        warm = run_suite(["fig01", "fig08"], overrides=TINY, jobs=1, store=store)
        assert warm.cached == ["fig01", "fig08"]
        assert warm.worker_simulations == 0
        assert json.dumps(warm.results[0].rows) == json.dumps(
            report.results[0].rows
        )

    def test_invalid_cached_result_is_recomputed_not_crash(
        self, store, capsys
    ):
        """An integrity-valid record with a bad result payload is a miss."""
        cold = run_suite(["fig01"], overrides=TINY, store=store)
        from repro.store import experiment_key
        from repro.experiments.runner import resolve_experiments

        (_, _, params) = resolve_experiments(["fig01"], overrides=TINY)[0]
        key = experiment_key("fig01", params)
        record = store.get(key)
        broken = dict(record["value"])
        broken["schema"] = "repro.experiment-result.v999"
        store.put(key, broken, meta=record["meta"])
        hits_before = store.stats.hits
        cells = sum(1 for _ in glob.iglob(store.root + "/[0-9a-f][0-9a-f]/*.json")) - 1
        report = run_suite(["fig01"], overrides=TINY, store=store)
        assert report.computed == ["fig01"]
        assert "recomputing" in capsys.readouterr().err
        # the get() that surfaced the bad record is reclassified as a
        # corrupt miss; the only hits added are the replayed cells
        assert store.stats.hits == hits_before + cells
        assert store.stats.corrupt == 1
        assert json.dumps(report.results[0].rows) == json.dumps(
            cold.results[0].rows
        )
        # the recompute overwrote the bad record: warm again
        assert run_suite(["fig01"], overrides=TINY, store=store).cached == [
            "fig01"
        ]

    def test_store_none_recomputes(self):
        report = run_suite(["fig01"], overrides=TINY, store=None)
        assert report.computed == ["fig01"] and report.store is None
