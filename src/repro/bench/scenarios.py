"""The benchmark scenario registry.

Each :class:`Scenario` names one hot path of the reproduction and knows
how to build a deterministic workload for it.  Scenarios come in two
kinds:

* standalone throughput probes (``fit_em``, ``merge_fit``,
  ``coordinator_cap``, ``tree_feed_lossy``, ``serde_roundtrip``, the
  three end-to-end ``runtime_*`` runs);
* optimisation *pairs*, where the optimised scenario declares its
  ``baseline`` -- the pre-optimisation implementation kept alive here
  purely as a measuring stick.  The runner reports
  ``baseline / optimised`` as the scenario's speedup, which is how the
  repo proves its vectorised kernels actually pay on the current
  machine rather than only in the commit message.

``calibration`` is special: a fixed NumPy matmul whose cost depends
only on the machine.  :mod:`repro.bench.compare` divides every other
scenario by it before comparing two reports, which cancels (most of)
the hardware difference between the machine that stamped the baseline
and the machine running CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.bench.specs import (
    checksum,
    make_chunk,
    make_mixture,
    make_streams,
    rebuild_mixture,
)

__all__ = ["SCENARIOS", "SUITES", "Scenario", "get_scenario", "suite_names"]


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """One registered benchmark.

    ``build(seed)`` performs all setup (sampling workloads, fitting
    models, calibrating detectors -- none of it timed) and returns a
    zero-argument thunk; the runner times repeated thunk calls.  The
    thunk returns a float checksum that must be identical across calls
    with the same seed.

    ``baseline`` optionally names the scenario this one is measured
    against (the unoptimised implementation of the same computation).
    """

    name: str
    summary: str
    build: Callable[[int], Callable[[], float]]
    baseline: str | None = None


# ----------------------------------------------------------------------
# Machine calibration
# ----------------------------------------------------------------------
def _build_calibration(seed: int) -> Callable[[], float]:
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((192, 192))

    def run() -> float:
        out = matrix
        for _ in range(8):
            out = out @ matrix
            out /= np.max(np.abs(out))
        return checksum(out)

    return run


# ----------------------------------------------------------------------
# EM fit
# ----------------------------------------------------------------------
def _build_fit_em(seed: int) -> Callable[[], float]:
    from repro.core.em import EMConfig, fit_em

    data = make_chunk(seed, 600)
    config = EMConfig(n_components=5, n_init=1, max_iter=30)

    def run() -> float:
        result = fit_em(data, config, rng=np.random.default_rng(seed + 1))
        return result.log_likelihood

    return run


# ----------------------------------------------------------------------
# Incremental EM: warm-start refit and suffstat absorption vs cold fits
# ----------------------------------------------------------------------
_WARM_N = 600


def _warm_workload(seed: int):
    """A fitted model plus a slightly drifted next chunk.

    This is the refit-ladder rung-2 situation: the distribution moved
    enough to fail the fit test but the old model is still in the right
    basin, so a few stepwise updates should recover what a cold restart
    re-derives from scratch.
    """
    from repro.core.em import EMConfig, fit_em

    data = make_chunk(seed, _WARM_N)
    config = EMConfig(
        n_components=5, n_init=1, max_iter=30, incremental=True
    )
    warm = fit_em(data, config, rng=np.random.default_rng(seed + 1))
    drifted = make_chunk(seed + 2, _WARM_N) + 0.4
    return config, warm.mixture, drifted


def _build_fit_em_warm(seed: int) -> Callable[[], float]:
    from repro.core.em import incremental_em

    config, mixture, drifted = _warm_workload(seed)

    def run() -> float:
        result = incremental_em(drifted, mixture, config)
        return result.log_likelihood

    return run


def _build_fit_em_cold_refit(seed: int) -> Callable[[], float]:
    from repro.core.em import fit_em

    config, _, drifted = _warm_workload(seed)

    def run() -> float:
        # What the site paid before the ladder existed: a full cold
        # fit on the drifted chunk, warm model discarded.
        result = fit_em(
            drifted, config, rng=np.random.default_rng(seed + 3)
        )
        return result.log_likelihood

    return run


def _build_incremental_absorb(seed: int) -> Callable[[], float]:
    from repro.core.em import absorb_chunk
    from repro.core.suffstats import SufficientStats

    config, mixture, _ = _warm_workload(seed)
    passing = make_chunk(seed + 2, _WARM_N)
    stats = SufficientStats.from_mixture(mixture, float(_WARM_N))

    def run() -> float:
        # Pass-case absorption: one posterior pass, suffstat merge,
        # closed-form materialisation.  No EM iterations at all.
        result = absorb_chunk(passing, mixture, config, stats=stats)
        return result.log_likelihood

    return run


def _build_incremental_absorb_cold(seed: int) -> Callable[[], float]:
    from repro.core.em import fit_em

    config, mixture, _ = _warm_workload(seed)
    passing = make_chunk(seed + 2, _WARM_N)

    def run() -> float:
        # Refreshing the model on a passing chunk without suffstats
        # means full EM sweeps over the chunk.
        result = fit_em(
            passing,
            config,
            rng=np.random.default_rng(seed + 4),
            warm_start=mixture,
        )
        return result.log_likelihood

    return run


# ----------------------------------------------------------------------
# E-step / likelihood kernel: batched GEMM vs per-component loop
# ----------------------------------------------------------------------
_ESTEP_N = 4000
_ESTEP_K = 8


def _build_estep_batched(seed: int) -> Callable[[], float]:
    mixture = make_mixture(seed, n_components=_ESTEP_K)
    points = make_chunk(seed + 1, _ESTEP_N)

    def run() -> float:
        posterior = mixture.posterior(points)
        return mixture.average_log_likelihood(points) + checksum(
            posterior[:, 0]
        )

    return run


def _build_estep_legacy(seed: int) -> Callable[[], float]:
    mixture = make_mixture(seed, n_components=_ESTEP_K)
    points = make_chunk(seed + 1, _ESTEP_N)
    log_weights = np.log(mixture.weights)

    def run() -> float:
        # The pre-vectorisation E-step: one Gaussian.log_pdf call per
        # component, stacked, then a hand-rolled logsumexp.
        stacked = np.stack(
            [component.log_pdf(points) for component in mixture.components],
            axis=1,
        )
        weighted = stacked + log_weights[None, :]
        peak = np.max(weighted, axis=1, keepdims=True)
        log_density = peak[:, 0] + np.log(
            np.sum(np.exp(weighted - peak), axis=1)
        )
        posterior = np.exp(weighted - log_density[:, None])
        return float(np.mean(log_density)) + checksum(posterior[:, 0])

    return run


def _build_logdensity_batched(seed: int) -> Callable[[], float]:
    mixture = make_mixture(seed, n_components=_ESTEP_K)
    points = make_chunk(seed + 1, _ESTEP_N)

    def run() -> float:
        # The fit-test hot path: AvgPr needs only the mixture log
        # density, evaluated once per chunk per tested model.
        return float(np.mean(mixture.log_pdf(points)))

    return run


def _build_logdensity_legacy(seed: int) -> Callable[[], float]:
    mixture = make_mixture(seed, n_components=_ESTEP_K)
    points = make_chunk(seed + 1, _ESTEP_N)
    log_weights = np.log(mixture.weights)

    def run() -> float:
        stacked = np.stack(
            [component.log_pdf(points) for component in mixture.components],
            axis=1,
        )
        weighted = stacked + log_weights[None, :]
        peak = np.max(weighted, axis=1, keepdims=True)
        log_density = peak[:, 0] + np.log(
            np.sum(np.exp(weighted - peak), axis=1)
        )
        return float(np.mean(log_density))

    return run


# ----------------------------------------------------------------------
# Anomaly scoring: one batched pass vs per-record calls
# ----------------------------------------------------------------------
_SCORE_N = 2000


def _make_detector(seed: int):
    from repro.core.scoring import AnomalyDetector

    mixture = make_mixture(seed)
    reference = make_chunk(seed + 1, 500)
    return AnomalyDetector(mixture, reference)


def _verdict_checksum(verdicts) -> float:
    return checksum(
        np.array([v.score for v in verdicts])
    ) + float(sum(v.top_cluster for v in verdicts))


def _build_score_batch(seed: int) -> Callable[[], float]:
    detector = _make_detector(seed)
    records = make_chunk(seed + 2, _SCORE_N)

    def run() -> float:
        return _verdict_checksum(detector.score_batch(records))

    return run


def _build_score_loop(seed: int) -> Callable[[], float]:
    detector = _make_detector(seed)
    records = make_chunk(seed + 2, _SCORE_N)

    def run() -> float:
        return _verdict_checksum(
            [detector.score(record) for record in records]
        )

    return run


# ----------------------------------------------------------------------
# Multi-test chunk testing: cached factors vs re-factorised models
# ----------------------------------------------------------------------
_ARCHIVE_SIZE = 4
_TEST_CHUNKS = 8
_ARCHIVE_DIM = 8


def _chunk_test_workload(seed: int):
    archive = [
        make_mixture(seed + offset, dim=_ARCHIVE_DIM)
        for offset in range(_ARCHIVE_SIZE)
    ]
    references = [
        mixture.average_log_likelihood(
            make_chunk(seed + offset, 400, dim=_ARCHIVE_DIM)
        )
        for offset, mixture in enumerate(archive)
    ]
    chunks = [
        make_chunk(seed + 100 + index, 120, dim=_ARCHIVE_DIM)
        for index in range(_TEST_CHUNKS)
    ]
    return archive, references, chunks


def _run_chunk_tests(archive, references, chunks) -> float:
    from repro.core.testing import fit_test

    total = 0.0
    for chunk in chunks:
        for mixture, reference in zip(archive, references):
            total += fit_test(mixture, chunk, reference, 0.5).j_fit
    return float(total)


def _build_chunk_test_cached(seed: int) -> Callable[[], float]:
    archive, references, chunks = _chunk_test_workload(seed)

    def run() -> float:
        # Archived models persist across chunks (the remote site's
        # multi-test c_max path), so every Cholesky/L⁻¹ factor and
        # batched-kernel stack is computed once and reused.
        return _run_chunk_tests(archive, references, chunks)

    return run


def _build_chunk_test_cold(seed: int) -> Callable[[], float]:
    archive, references, chunks = _chunk_test_workload(seed)

    def run() -> float:
        # No caching at all: every chunk test re-derives the archive's
        # factorisations and batched stacks from raw (μ, Σ).
        total = 0.0
        for chunk in chunks:
            rebuilt = [rebuild_mixture(mixture) for mixture in archive]
            total += _run_chunk_tests(rebuilt, references, [chunk])
        return total

    return run


# ----------------------------------------------------------------------
# Nelder-Mead merge fit
# ----------------------------------------------------------------------
def _build_merge_fit(seed: int) -> Callable[[], float]:
    from repro.core.merging import fit_merged_component

    mixture = make_mixture(seed, n_components=2, separation=1.5)
    comp_i, comp_j = mixture.components
    weight_i, weight_j = (float(w) for w in mixture.weights)

    def run() -> float:
        fit = fit_merged_component(
            weight_i,
            comp_i,
            weight_j,
            comp_j,
            n_samples=512,
            max_iter=40,
            rng=np.random.default_rng(seed + 3),
        )
        return checksum(fit.component.mean) + fit.loss

    return run


# ----------------------------------------------------------------------
# Coordinator cap loop (moment merges)
# ----------------------------------------------------------------------
_CAP_SITES = 8
_CAP_ROUNDS = 12


def _cap_messages(seed: int) -> list:
    """96 model updates from 8 drifting sites (d=4, K=3).

    Each round every site re-announces its one model with every
    component mean moved by N(0, 0.6²), so Algorithm 2 splits and the
    cap loop re-merges on most updates.
    """
    from repro.core.gaussian import Gaussian
    from repro.core.mixture import GaussianMixture
    from repro.core.protocol import ModelUpdateMessage
    from repro.streams.synthetic import random_mixture

    rng = np.random.default_rng(seed)
    bases = [
        random_mixture(dim=4, n_components=3, rng=rng) for _ in range(_CAP_SITES)
    ]
    means = [np.stack([c.mean for c in base.components]) for base in bases]
    messages = []
    for round_ in range(_CAP_ROUNDS):
        for site, base in enumerate(bases):
            means[site] = means[site] + rng.normal(scale=0.6, size=means[site].shape)
            mixture = GaussianMixture(
                base.weights,
                tuple(
                    Gaussian(mean, component.covariance)
                    for mean, component in zip(means[site], base.components)
                ),
            )
            messages.append(
                ModelUpdateMessage(
                    site_id=site,
                    model_id=0,
                    time=round_,
                    mixture=mixture,
                    count=int(rng.integers(300, 700)),
                    reference_likelihood=-1.0,
                )
            )
    return messages


def _build_coordinator_cap(seed: int) -> Callable[[], float]:
    from repro.core.coordinator import Coordinator, CoordinatorConfig

    messages = _cap_messages(seed)
    config = CoordinatorConfig(max_components=16, merge_method="moment")

    def run() -> float:
        coordinator = Coordinator(config, rng=np.random.default_rng(seed + 1))
        for message in messages:
            coordinator.handle_message(message)
        stats = coordinator.stats
        return float(stats.merges + stats.splits) + checksum(
            [cluster.father.mean for cluster in coordinator.clusters]
        )

    return run


# ----------------------------------------------------------------------
# Wire-format serde
# ----------------------------------------------------------------------
def _build_serde_roundtrip(seed: int) -> Callable[[], float]:
    from repro.core.protocol import ModelUpdateMessage
    from repro.core.serde import get_codec

    codec = get_codec("cds1")
    message = ModelUpdateMessage(
        site_id=3,
        model_id=7,
        time=12345,
        mixture=make_mixture(seed),
        count=4200,
        reference_likelihood=-6.25,
    )

    def run() -> float:
        total = 0
        for _ in range(50):
            payload = codec.encode(message)
            decoded = codec.decode(payload)
            total += len(payload) + decoded.count
        return float(total)

    return run


# ----------------------------------------------------------------------
# End-to-end runtime throughput, one scenario per channel backend
# ----------------------------------------------------------------------
_RUNTIME_SITES = 2
_RUNTIME_RECORDS = 300


def _runtime_system(seed: int):
    from repro.core.cludistream import CluDistream, CluDistreamConfig
    from repro.core.coordinator import CoordinatorConfig
    from repro.core.em import EMConfig
    from repro.core.remote import RemoteSiteConfig

    config = CluDistreamConfig(
        n_sites=_RUNTIME_SITES,
        site=RemoteSiteConfig(
            dim=4,
            em=EMConfig(n_components=3, n_init=1, max_iter=25),
            chunk_override=100,
        ),
        coordinator=CoordinatorConfig(max_components=6),
        rate=500.0,
    )
    return CluDistream(config, seed=seed)


def _build_runtime(make_channel) -> Callable[[int], Callable[[], float]]:
    def build(seed: int) -> Callable[[], float]:
        streams = make_streams(seed, _RUNTIME_SITES, _RUNTIME_RECORDS)

        def run() -> float:
            # A fresh system and channel per pass: site/coordinator
            # state is cumulative, so reuse would shrink the work.
            system = _runtime_system(seed)
            report = system.runtime(make_channel()).run(
                streams, max_records_per_site=_RUNTIME_RECORDS
            )
            return float(report.records + report.accounting.attempted)

        return run

    return build


# ----------------------------------------------------------------------
# Lossy in-process tree: the per-record feed path
# ----------------------------------------------------------------------
_TREE_LEAVES = 64
_TREE_FANIN = 4
_TREE_ACTIVE = 8
_TREE_RECORDS = 1000


def _build_tree_feed_lossy(seed: int) -> Callable[[], float]:
    """64 leaves under 16 gateways and a root, 10%-loss edges.

    A wide tree with skewed site rates: 8 of the 64 leaves (one under
    every second gateway) stream 1,000 stationary records each and the
    rest stay idle.  With 500-record chunks each streaming site fits
    one model on its first chunk and its second chunk passes the test,
    so 8 of the 8,000 ``feed`` calls emit.  The cost is ingest, the
    chunk tests and whatever the transport does per record across the
    tree's 80 edges.
    Checksum: merges + splits over every aggregator plus the payload
    bytes crossing all edges.
    """
    from repro.cluster.tree import TransportTree
    from repro.core.coordinator import CoordinatorConfig
    from repro.core.em import EMConfig
    from repro.core.remote import RemoteSiteConfig
    from repro.transport.lossy import FaultConfig

    streams = make_streams(
        seed, _TREE_ACTIVE, _TREE_RECORDS, dim=2, n_components=2
    )
    gateways = _TREE_LEAVES // _TREE_FANIN
    stride = _TREE_LEAVES // _TREE_ACTIVE
    active = [100 + stride * index for index in range(_TREE_ACTIVE)]

    def run() -> float:
        tree = TransportTree(
            site_config=RemoteSiteConfig(
                dim=2,
                em=EMConfig(n_components=2, n_init=1, max_iter=20),
                chunk_override=500,
            ),
            coordinator_config=CoordinatorConfig(
                max_components=4, merge_method="moment"
            ),
            seed=seed,
            faults=FaultConfig(drop_rate=0.1),
        )
        tree.add_internal(0)
        for gateway in range(1, gateways + 1):
            tree.add_internal(gateway, parent_id=0)
        for leaf in range(_TREE_LEAVES):
            tree.add_leaf(100 + leaf, parent_id=1 + leaf // _TREE_FANIN)
        for index in range(_TREE_RECORDS):
            for site, leaf_id in enumerate(active):
                tree.feed(leaf_id, streams[site][index])
        tree.drain()
        decisions = sum(
            node.coordinator.stats.merges + node.coordinator.stats.splits
            for node in tree.internals
        )
        uploaded = tree.total_uplink_bytes()
        tree.close()
        return float(decisions + uploaded)

    return run


def _direct_channel():
    from repro.runtime import DirectChannel

    return DirectChannel()


def _simulated_channel():
    from repro.runtime import SimulatedChannel

    return SimulatedChannel(rate=500.0, latency=0.01)


def _transport_channel():
    from repro.runtime import TransportChannel
    from repro.transport.clock import ManualClock
    from repro.transport.loopback import LoopbackTransport

    return TransportChannel(LoopbackTransport(), ManualClock(), seed=11)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in [
        Scenario(
            name="calibration",
            summary="fixed NumPy matmul; machine-speed yardstick for "
            "cross-machine report comparison",
            build=_build_calibration,
        ),
        Scenario(
            name="fit_em",
            summary="full EM fit on one chunk (n=600, d=4, K=5)",
            build=_build_fit_em,
        ),
        Scenario(
            name="fit_em_warm",
            summary="refit-ladder rung 2: stepwise incremental EM from "
            "the drifted warm model",
            build=_build_fit_em_warm,
            baseline="fit_em_cold_refit",
        ),
        Scenario(
            name="fit_em_cold_refit",
            summary="same drifted chunk refit cold (the pre-ladder "
            "site path)",
            build=_build_fit_em_cold_refit,
        ),
        Scenario(
            name="incremental_absorb",
            summary="pass-case absorption: one posterior pass + "
            "suffstat merge + materialise",
            build=_build_incremental_absorb,
            baseline="incremental_absorb_cold",
        ),
        Scenario(
            name="incremental_absorb_cold",
            summary="same model refresh via full warm-start EM sweeps "
            "(no suffstats)",
            build=_build_incremental_absorb_cold,
        ),
        Scenario(
            name="estep_batched",
            summary="posterior + AvgPr via the batched (n,k) GEMM kernel",
            build=_build_estep_batched,
            baseline="estep_legacy",
        ),
        Scenario(
            name="estep_legacy",
            summary="same E-step via the per-component Gaussian.log_pdf "
            "loop (pre-optimisation path)",
            build=_build_estep_legacy,
        ),
        Scenario(
            name="logdensity_batched",
            summary="mixture log density (the fit-test AvgPr path) via "
            "the batched kernel",
            build=_build_logdensity_batched,
            baseline="logdensity_legacy",
        ),
        Scenario(
            name="logdensity_legacy",
            summary="same log density via per-component stacking",
            build=_build_logdensity_legacy,
        ),
        Scenario(
            name="score_batch",
            summary="AnomalyDetector.score_batch, one vectorised pass",
            build=_build_score_batch,
            baseline="score_loop",
        ),
        Scenario(
            name="score_loop",
            summary="same records scored one AnomalyDetector.score call "
            "at a time",
            build=_build_score_loop,
        ),
        Scenario(
            name="chunk_test_cached",
            summary="multi-test fit_test sweep reusing archived models' "
            "cached factors",
            build=_build_chunk_test_cached,
            baseline="chunk_test_cold",
        ),
        Scenario(
            name="chunk_test_cold",
            summary="same sweep with models re-factorised every pass",
            build=_build_chunk_test_cold,
        ),
        Scenario(
            name="merge_fit",
            summary="Nelder-Mead merge fit of two overlapping components",
            build=_build_merge_fit,
        ),
        Scenario(
            name="coordinator_cap",
            summary="moment-merge coordinator at cap 16 absorbing 96 "
            "drifting site updates (split, re-merge, cap loop)",
            build=_build_coordinator_cap,
        ),
        Scenario(
            name="tree_feed_lossy",
            summary="8,000 records fed one at a time to 8 of the 64 "
            "leaves of a fan-in-4 TransportTree over 10%-loss edges",
            build=_build_tree_feed_lossy,
        ),
        Scenario(
            name="serde_roundtrip",
            summary="50 encode/decode round-trips of a ModelUpdateMessage",
            build=_build_serde_roundtrip,
        ),
        Scenario(
            name="runtime_direct",
            summary="end-to-end Runtime throughput on DirectChannel",
            build=_build_runtime(_direct_channel),
        ),
        Scenario(
            name="runtime_simulated",
            summary="end-to-end Runtime throughput on SimulatedChannel",
            build=_build_runtime(_simulated_channel),
        ),
        Scenario(
            name="runtime_transport",
            summary="end-to-end Runtime throughput on TransportChannel "
            "(loopback ARQ)",
            build=_build_runtime(_transport_channel),
        ),
    ]
}

#: Named scenario sets.  ``core`` is the full sweep that stamps
#: ``BENCH_core.json``; ``smoke`` is the quick CI subset (the kernel
#: pairs plus calibration, no end-to-end runs).
SUITES: dict[str, tuple[str, ...]] = {
    "core": tuple(SCENARIOS),
    "smoke": (
        "calibration",
        "fit_em_warm",
        "fit_em_cold_refit",
        "incremental_absorb",
        "incremental_absorb_cold",
        "estep_batched",
        "estep_legacy",
        "logdensity_batched",
        "logdensity_legacy",
        "score_batch",
        "score_loop",
        "serde_roundtrip",
    ),
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None


def suite_names(suite: str) -> tuple[str, ...]:
    try:
        return SUITES[suite]
    except KeyError:
        known = ", ".join(sorted(SUITES))
        raise KeyError(f"unknown suite {suite!r}; known: {known}") from None
