"""Tests for the experiment runner API (Experiment / ExperimentResult /
SuiteRunner) and its parallel-equals-serial guarantee."""

import json

import pytest

from repro.experiments.common import speedup_suite
from repro.experiments.runner import (
    RESULT_SCHEMA,
    ExperimentResult,
    SuiteRunner,
    render_result,
    run_experiments,
    validate_result_dict,
    write_results_json,
)
from repro.registry import get_experiment, list_experiments
from repro.workloads.profiles import profile

MB = 1 << 20

#: Cheap experiments used for runner-mechanics tests.
CHEAP = ("table3", "abl_epoch")


def tiny_profiles():
    return {
        "tiny_stream": profile("tiny_stream", "test", True, 0.3, [
            (1.0, "stream", {"footprint": 8 * MB, "run_length": 400}),
        ]),
        "tiny_compute": profile("tiny_compute", "test", False, 0.15, [
            (1.0, "stride", {"stride": 64, "footprint": 256 * 1024, "dwell": 2}),
        ]),
    }


class TestExperimentAPI:
    def test_declared_params_are_introspected(self):
        experiment = get_experiment("fig08")
        assert experiment.params["accesses"] == 15000
        assert experiment.params["seed"] == 1
        assert "jobs" in experiment.params

    def test_every_experiment_declares_title_and_fast_params(self):
        for name in list_experiments():
            experiment = get_experiment(name)
            assert experiment.title, name
            assert experiment.paper, name
            assert isinstance(experiment.fast_params, dict)

    def test_run_rejects_unknown_params(self):
        with pytest.raises(ValueError, match="does not declare"):
            get_experiment("table3").run(accesses=100)

    def test_accepted_filters_overrides(self):
        experiment = get_experiment("table3")
        assert experiment.accepted({"accesses": 5, "num_prefetchers": 4}) == {
            "num_prefetchers": 4
        }

    def test_run_returns_structured_result(self):
        result = get_experiment("table3").run()
        assert isinstance(result, ExperimentResult)
        assert result.name == "table3"
        assert result.params == {"num_prefetchers": 3}
        assert result.elapsed_seconds >= 0
        validate_result_dict(result.to_dict())

    def test_result_json_roundtrip(self):
        result = get_experiment("table3").run()
        data = json.loads(result.to_json())
        assert data["schema"] == RESULT_SCHEMA
        assert data["rows"] == result.rows


@pytest.mark.parametrize("name", sorted(list_experiments()))
def test_every_experiment_runs_fast_and_serializes(name):
    """Every registered experiment completes at its smoke scale and emits
    schema-valid JSON."""
    experiment = get_experiment(name)
    result = experiment.run(**experiment.fast_params)
    document = json.loads(result.to_json())
    validate_result_dict(document)
    assert document["name"] == name
    assert document["rows"]
    assert render_result(result).startswith(experiment.title)


class TestValidation:
    def test_missing_key(self):
        result = get_experiment("table3").run().to_dict()
        result.pop("rows")
        with pytest.raises(ValueError, match="rows"):
            validate_result_dict(result)

    def test_bad_schema(self):
        result = get_experiment("table3").run().to_dict()
        result["schema"] = "something-else"
        with pytest.raises(ValueError, match="schema"):
            validate_result_dict(result)

    def test_unserializable_rows(self):
        result = get_experiment("table3").run().to_dict()
        result["rows"] = {"bad": object()}
        with pytest.raises(ValueError, match="JSON"):
            validate_result_dict(result)


class TestSuiteRunnerCells:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            SuiteRunner(jobs=0)

    def test_parallel_speedup_suite_identical_to_serial(self):
        profiles = tiny_profiles()
        kwargs = dict(accesses=1000, seed=1)
        serial = speedup_suite(profiles, ["ipcp", "alecto"], jobs=1, **kwargs)
        parallel = speedup_suite(profiles, ["ipcp", "alecto"], jobs=2, **kwargs)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )
        # Same key order too: byte-identical serialization.
        assert json.dumps(serial) == json.dumps(parallel)

    def test_redefined_profile_not_served_stale_trace(self):
        """Pool workers outlive a suite call; a same-named profile with a
        different definition must be re-generated, not cache-hit."""
        first = {
            "clash": profile("clash", "test", True, 0.3, [
                (1.0, "stream", {"footprint": 8 * MB, "run_length": 400}),
            ]),
        }
        second = {
            "clash": profile("clash", "test", True, 0.3, [
                (1.0, "stream", {"footprint": 8 * MB, "run_length": 50}),
            ]),
        }
        kwargs = dict(accesses=800, seed=1)
        speedup_suite(first, ["ipcp"], jobs=2, **kwargs)  # warm the pool
        parallel = speedup_suite(second, ["ipcp"], jobs=2, **kwargs)
        serial = speedup_suite(second, ["ipcp"], jobs=1, **kwargs)
        assert parallel == serial

    def test_serial_sweep_generates_each_trace_once(self, monkeypatch):
        """A sweep that runs one suite per point (Figs. 15 and 16) reuses
        each benchmark's trace on the serial path."""
        from repro.common.config import SystemConfig
        from repro.experiments import runner
        from repro.workloads.profiles import BenchmarkProfile

        generated = []
        real = BenchmarkProfile.generate

        def counting(self, *args, **kwargs):
            generated.append(self.name)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(BenchmarkProfile, "generate", counting)
        monkeypatch.setattr(runner, "_TRACE_CACHE", {})
        profiles = tiny_profiles()
        rows = [
            speedup_suite(
                profiles, ["ipcp"], accesses=300, seed=1,
                config=SystemConfig().with_llc_size(size),
            )
            for size in (1 << 20, 2 << 20)
        ]
        assert sorted(generated) == sorted(profiles)
        # The second point's rows, from reused traces, match fresh ones.
        monkeypatch.setattr(runner, "_TRACE_CACHE", {})
        assert rows[1] == speedup_suite(
            profiles, ["ipcp"], accesses=300, seed=1,
            config=SystemConfig().with_llc_size(2 << 20),
        )

    def test_pool_sees_components_registered_after_warmup(self):
        """A composite registered after a pool was forked must still be
        buildable by the workers (the pool refreshes on registration)."""
        from repro.prefetchers import StreamPrefetcher, StridePrefetcher
        from repro.registry import COMPOSITES, register_composite

        profiles = tiny_profiles()
        speedup_suite(profiles, ["ipcp"], accesses=600, seed=1, jobs=2)

        @register_composite("tmp_pool_composite")
        def _tmp():
            return [StreamPrefetcher(), StridePrefetcher()]

        try:
            rows = speedup_suite(
                profiles,
                ["ipcp"],
                accesses=600,
                seed=1,
                jobs=2,
                composite="tmp_pool_composite",
            )
            assert all(v > 0 for row in rows.values() for v in row.values())
        finally:
            COMPOSITES._entries.pop("tmp_pool_composite")
            COMPOSITES._metadata.pop("tmp_pool_composite")

    def test_spooled_traces_identical_to_in_memory_fanout(self):
        """The record-once / replay-everywhere path (default) must equal
        both the per-worker in-memory regeneration path and serial."""
        profiles = tiny_profiles()
        kwargs = dict(accesses=1000, seed=1)
        serial = speedup_suite(profiles, ["ipcp", "alecto"], jobs=1, **kwargs)
        spooled = SuiteRunner(jobs=2).speedup_suite(
            profiles, ["ipcp", "alecto"], spool_traces=True, **kwargs
        )
        in_memory = SuiteRunner(jobs=2).speedup_suite(
            profiles, ["ipcp", "alecto"], spool_traces=False, **kwargs
        )
        assert json.dumps(serial) == json.dumps(spooled)
        assert json.dumps(serial) == json.dumps(in_memory)

    def test_spool_dir_cleaned_up(self, tmp_path, monkeypatch):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        SuiteRunner(jobs=2).speedup_suite(
            tiny_profiles(), ["ipcp"], accesses=600, seed=1
        )
        leftovers = list(tmp_path.glob("repro-trace-spool-*"))
        assert leftovers == []

    def test_parallel_rows_have_all_cells(self):
        rows = SuiteRunner(jobs=2).speedup_suite(
            tiny_profiles(), ["ipcp", "alecto"], accesses=800, seed=1
        )
        assert set(rows) == {"tiny_stream", "tiny_compute"}
        assert all(set(row) == {"ipcp", "alecto"} for row in rows.values())
        assert all(v > 0 for row in rows.values() for v in row.values())


class TestSuiteRunnerExperiments:
    def test_results_in_input_order(self):
        results = run_experiments(list(CHEAP), jobs=2)
        assert [r.name for r in results] == list(CHEAP)

    def test_parallel_experiments_identical_to_serial(self):
        serial = run_experiments(list(CHEAP), jobs=1, fast=True)
        parallel = run_experiments(list(CHEAP), jobs=2, fast=True)
        for s, p in zip(serial, parallel):
            assert json.dumps(s.rows, default=float) == json.dumps(
                p.rows, default=float
            )
            assert s.params == p.params

    def test_fast_applies_fast_params(self):
        (result,) = run_experiments(["abl_epoch"], fast=True)
        assert result.params["accesses"] == get_experiment(
            "abl_epoch"
        ).fast_params["accesses"]

    def test_overrides_filtered_per_experiment(self):
        # table3 does not declare `accesses`; the override must not break it.
        results = run_experiments(
            ["table3", "abl_epoch"], overrides={"accesses": 400}
        )
        assert results[0].params == {"num_prefetchers": 3}
        assert results[1].params["accesses"] == 400

    def test_write_results_json(self, tmp_path):
        results = run_experiments(["table3"])
        path = tmp_path / "suite.json"
        document = write_results_json(results, str(path))
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(document, default=float))
        assert loaded["schema"] == "repro.experiment-suite.v1"
        assert len(loaded["results"]) == 1
        validate_result_dict(loaded["results"][0])


class TestProcessStableTraces:
    def test_generate_is_stable_across_hash_seeds(self):
        """Trace generation must not depend on PYTHONHASHSEED (workers in
        a process pool would otherwise disagree with the parent)."""
        import subprocess
        import sys

        code = (
            "from repro.workloads.spec06 import SPEC06_PROFILES;"
            "t = SPEC06_PROFILES['milc'].generate(300, seed=7);"
            "print(sum(r.address for r in t) % (1 << 61))"
        )
        outputs = set()
        for hash_seed in ("1", "2"):
            env = {"PYTHONPATH": "src", "PYTHONHASHSEED": hash_seed}
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                cwd=str(__import__("pathlib").Path(__file__).parent.parent),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout.strip())
        assert len(outputs) == 1
