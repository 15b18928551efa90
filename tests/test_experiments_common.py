"""Tests for the experiment harness (selector registry, suite runners)."""

import pytest

from repro.experiments.common import (
    SELECTOR_NAMES,
    add_geomean_rows,
    cell_rows,
    format_table,
    geomean,
    make_selector,
    speedup_suite,
)
from repro.workloads.profiles import profile

MB = 1 << 20


def tiny_profiles():
    return {
        "tiny_stream": profile("tiny_stream", "test", True, 0.3, [
            (1.0, "stream", {"footprint": 8 * MB, "run_length": 400}),
        ]),
        "tiny_compute": profile("tiny_compute", "test", False, 0.15, [
            (1.0, "stride", {"stride": 64, "footprint": 256 * 1024, "dwell": 2}),
        ]),
    }


class TestGeomean:
    def test_simple(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_ignores_nonpositive(self):
        assert geomean([4.0, 0.0, -1.0]) == pytest.approx(4.0)


class TestSelectorRegistry:
    @pytest.mark.parametrize("name", SELECTOR_NAMES)
    def test_paper_selectors_constructible(self, name):
        selector = make_selector(name)
        assert selector.prefetchers

    def test_selectors_get_fresh_prefetchers(self):
        a = make_selector("alecto")
        b = make_selector("alecto")
        assert a.prefetchers[0] is not b.prefetchers[0]

    def test_temporal_variant(self):
        selector = make_selector("alecto", with_temporal=True)
        assert any(p.is_temporal for p in selector.prefetchers)

    def test_alternate_composite(self):
        selector = make_selector("ipcp", composite="gs_berti_cplx")
        names = {p.name for p in selector.prefetchers}
        assert names == {"stream", "berti", "cplx"}

    def test_ablation_variant(self):
        selector = make_selector("alecto_fix")
        assert selector.config.fixed_degree == 6
        assert selector.name == "alecto_fix"

    def test_ppf_variants_differ_in_threshold(self):
        aggressive = make_selector("ppf_aggressive")
        conservative = make_selector("ppf_conservative")
        assert aggressive.threshold > conservative.threshold

    def test_triangel_requires_temporal(self):
        with pytest.raises(ValueError):
            make_selector("triangel")

    def test_single_prefetcher_configs(self):
        assert len(make_selector("pmp_only").prefetchers) == 1
        assert len(make_selector("berti_only").prefetchers) == 1

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            make_selector("oracle")


class TestSuiteRunner:
    def test_speedup_suite_shape(self):
        rows = speedup_suite(
            tiny_profiles(), ["ipcp", "alecto"], accesses=1500, seed=1
        )
        assert set(rows) == {"tiny_stream", "tiny_compute"}
        assert set(rows["tiny_stream"]) == {"ipcp", "alecto"}
        assert all(v > 0 for row in rows.values() for v in row.values())

    def test_cell_rows_baseline(self):
        rows = cell_rows(tiny_profiles()["tiny_stream"], None, accesses=500)
        assert rows["selector"] == "none"

    def test_add_geomean_rows(self):
        profiles = tiny_profiles()
        rows = speedup_suite(profiles, ["alecto"], accesses=1000, seed=1)
        out = add_geomean_rows(rows, profiles)
        assert "Geomean-Mem" in out and "Geomean-All" in out
        # Mem geomean uses only the memory-intensive benchmark.
        assert out["Geomean-Mem"]["alecto"] == pytest.approx(
            rows["tiny_stream"]["alecto"]
        )

    def test_format_table(self):
        text = format_table({"b": {"alecto": 1.234}})
        assert "alecto" in text and "1.234" in text
        assert format_table({}) == "(empty)"
