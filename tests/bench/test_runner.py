"""Tests for the repro.bench runner, specs and report format."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench import (
    SCENARIOS,
    SUITES,
    BenchConfig,
    BenchRunner,
    Scenario,
    get_scenario,
    load_report,
    run_bench,
    suite_names,
    trimmed_mean,
)
from repro.bench.runner import SCHEMA, ScenarioResult
from repro.bench.specs import make_chunk, make_mixture, rebuild_mixture
from repro.obs import Observer


class TestSpecs:
    def test_workloads_are_seed_deterministic(self):
        np.testing.assert_array_equal(
            make_chunk(7, 50), make_chunk(7, 50)
        )
        first = make_mixture(3)
        second = make_mixture(3)
        np.testing.assert_array_equal(first.weights, second.weights)
        for a, b in zip(first.components, second.components):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.covariance, b.covariance)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_chunk(1, 50), make_chunk(2, 50))

    def test_rebuild_mixture_drops_caches_but_keeps_parameters(self):
        mixture = make_mixture(5)
        mixture.posterior(make_chunk(6, 10))  # populate the batch cache
        rebuilt = rebuild_mixture(mixture)
        assert rebuilt is not mixture
        np.testing.assert_array_equal(rebuilt.weights, mixture.weights)
        for a, b in zip(rebuilt.components, mixture.components):
            np.testing.assert_allclose(a.covariance, b.covariance)
        assert not rebuilt._batch  # fresh caches


class TestBenchConfig:
    def test_defaults(self):
        config = BenchConfig()
        assert config.repeats == 7 and config.warmup == 2

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            BenchConfig(3)  # noqa -- positional must be rejected

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"repeats": 0},
            {"warmup": -1},
            {"trim": 0.5},
            {"trim": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BenchConfig(**kwargs)


class TestTrimmedMean:
    def test_drops_tails(self):
        # 0.2 of 5 values -> drop one from each end.
        assert trimmed_mean([100.0, 1.0, 2.0, 3.0, 0.0], 0.2) == 2.0

    def test_falls_back_when_trim_exhausts(self):
        assert trimmed_mean([4.0], 0.4) == 4.0

    def test_zero_trim_is_plain_mean(self):
        assert trimmed_mean([1.0, 3.0], 0.0) == 2.0


def _counting_scenario(counter):
    def build(seed):
        def run():
            counter.append(seed)
            return float(seed * 2)

        return run

    return Scenario(name="counting", summary="test scenario", build=build)


class TestBenchRunner:
    def test_warmup_plus_repeats_calls(self):
        calls = []
        runner = BenchRunner(BenchConfig(repeats=3, warmup=2, seed=9))
        result = runner.run_scenario(_counting_scenario(calls))
        assert len(calls) == 5 and set(calls) == {9}
        assert result.value == 18.0
        assert len(result.times) == 3
        assert result.best <= result.trimmed or result.std == 0.0

    def test_timings_flow_into_observer_histogram(self):
        observer = Observer()
        runner = BenchRunner(
            BenchConfig(repeats=4, warmup=0), observer=observer
        )
        runner.run_scenario(_counting_scenario([]))
        histogram = observer.registry.histogram("bench.counting")
        assert histogram.count == 4

    def test_registry_run_and_speedups(self):
        report = run_bench(
            scenarios=["estep_batched", "estep_legacy"],
            config=BenchConfig(repeats=2, warmup=1),
        )
        names = {result.name for result in report.scenarios}
        assert names == {"estep_batched", "estep_legacy"}
        assert "estep_batched" in report.speedups
        assert report.speedups["estep_batched"] > 0.0

    def test_checksums_deterministic_across_runs(self):
        config = BenchConfig(repeats=1, warmup=0, seed=4)
        first = run_bench(scenarios=["fit_em"], config=config)
        second = run_bench(scenarios=["fit_em"], config=config)
        assert (
            first.scenario("fit_em").value
            == second.scenario("fit_em").value
        )

    def test_unknown_scenario_and_suite(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")
        with pytest.raises(KeyError, match="unknown suite"):
            suite_names("nope")


class TestReportFormat:
    def test_json_roundtrip(self, tmp_path):
        report = run_bench(
            scenarios=["calibration"],
            config=BenchConfig(repeats=2, warmup=0),
        )
        path = report.write_json(tmp_path / "BENCH_test.json")
        doc = load_report(path)
        assert doc["schema"] == SCHEMA
        assert "calibration" in doc["scenarios"]
        entry = doc["scenarios"]["calibration"]
        assert entry["trimmed"] > 0.0
        assert len(entry["times"]) == 2
        assert doc["config"]["repeats"] == 2
        assert "python" in doc["machine"]

    def test_load_report_rejects_non_reports(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="not a repro.bench report"):
            load_report(bogus)

    def test_scenario_lookup(self):
        result = ScenarioResult.from_times("x", [1.0, 2.0], 5.0, 0.0)
        assert result.mean == 1.5
        assert result.value == 5.0


class TestRegistry:
    def test_suites_reference_known_scenarios(self):
        for names in SUITES.values():
            for name in names:
                assert name in SCENARIOS

    def test_baselines_reference_known_scenarios(self):
        for scenario in SCENARIOS.values():
            if scenario.baseline is not None:
                assert scenario.baseline in SCENARIOS

    def test_core_suite_covers_required_paths(self):
        core = set(SUITES["core"])
        for required in (
            "fit_em",
            "merge_fit",
            "coordinator_cap",
            "tree_feed_lossy",
            "serde_roundtrip",
            "runtime_direct",
            "runtime_simulated",
            "runtime_transport",
            "calibration",
        ):
            assert required in core


class TestTreeFeedLossyScenario:
    def test_checksum_counts_tree_work_and_is_repeatable(self):
        run = get_scenario("tree_feed_lossy").build(0)
        first = run()
        assert first == run()
        # Payload bytes dominate: every streaming site's model reached
        # the root.
        assert first > 1000.0


class TestCoordinatorCapScenario:
    def test_checksum_counts_cap_work_and_is_repeatable(self):
        run = get_scenario("coordinator_cap").build(0)
        first = run()
        assert first == run()
        # merges + splits dominate the checksum: the cap loop ran.
        assert first > 100.0
