"""Every workload at toy size, through the worker's own code path."""

from __future__ import annotations

import json
import math

import pytest

import worker
import workloads
from conftest import ROOT
from test_layers import FakeClock

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
#: A quarter of the records per site: two chunks per star_merge site.
TOY = 0.25


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def runs(request):
    """One untraced and one traced toy run of the same seed."""
    name = request.param
    return (
        worker.run_once(name, seed=5, trace=False, scale=TOY),
        worker.run_once(name, seed=5, trace=True, scale=TOY),
    )


def test_toy_runs_pass_every_output_check(runs):
    for result in runs:
        assert result["error"] is None
        assert result["checks"] == {}
        assert result["failed"] == 0
        assert result["records"] > 0
        assert result["latency_ms"], "every workload emits model updates"
        assert math.isfinite(result["holdout_avg_ll"])


def test_two_runs_of_one_seed_do_the_same_work(runs):
    plain, traced = runs
    assert plain["fingerprint"] == traced["fingerprint"]


def test_traced_run_reports_every_per_layer_metric(runs):
    _, traced = runs
    names = {metric["name"] for metric in BENCH["per_layer"]}
    # The overhead ratio compares two runs and is computed by run.py.
    assert names - {"trace.overhead_ratio"} <= set(traced["layers"])
    metrics = traced["layers"]
    # The outermost wrapped call's self time is left unattributed.
    outer = metrics["runtime.loop_self_s"] + metrics["tree.feed_self_s"]
    assert outer > 0.0
    assert 0.8 < metrics["trace.attributed_ratio"]
    assert metrics["trace.attributed_ratio"] <= 1.0 - outer / metrics["trace.wall_s"]
    assert traced["layers"]["coordinator.update_calls"] > 0
    assert traced["layers"]["remote.records"] == traced["records"]


def test_update_latency_is_site_side_plus_own_absorption():
    from repro.core.protocol import ModelUpdateMessage, WeightUpdateMessage

    clock = FakeClock()
    latency = workloads.UpdateLatency([], clock=clock)

    class Site:
        def __init__(self, site_id):
            self.site_id = site_id
            self.stats = type("Stats", (), {"n_clusterings": 0})()

    def update(site):
        return ModelUpdateMessage(site.site_id, 0, 0, None, 1, 0.0)

    def handle(seconds):
        def handle_message(message):
            clock.now += seconds

        return handle_message

    a, b = Site(0), Site(1)

    def emit_a():  # 2 s, of which 0.5 s absorb b's counter message
        clock.now += 1.5
        a.stats.n_clusterings += 1
        latency.handle(handle(0.5), WeightUpdateMessage(1, 0, 0, 1))

    def busy_b():  # other work between emission and absorption
        clock.now += 3.0

    def emit_b():  # absorbed inside the emitting call, as on the ARQ channel
        clock.now += 1.0
        b.stats.n_clusterings += 1
        latency.handle(handle(0.5), update(b))

    latency.call(emit_a, a)
    latency.call(busy_b, b)
    assert latency.samples == []
    latency.handle(handle(0.25), update(a))
    latency.call(emit_b, b)
    assert latency.samples == [pytest.approx(1.75), pytest.approx(1.5)]


def test_broken_mixture_fails_the_validity_check():
    import numpy as np

    from repro.core.gaussian import Gaussian
    from repro.core.mixture import GaussianMixture

    good = GaussianMixture(np.array([1.0]), (Gaussian(np.zeros(2), np.eye(2)),))
    assert workloads._mixture_problems(good) == []
    good.components[0].covariance.flags.writeable = True
    good.components[0].covariance[0, 0] = -1.0
    assert workloads._mixture_problems(good)
