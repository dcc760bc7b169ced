"""The benchmark's workloads: build from a seed, feed, check.

Each workload is one whole CluDistream deployment in this process,
driven closed-loop and single-threaded: the next record is offered as
soon as the previous feed/submit call returns.  A run has four phases,
timed separately by :mod:`worker`:

1. construction (``__init__``) -- build the system or topology and open
   the channel; part of ``setup_s``;
2. :meth:`WorkloadRun.generate` -- materialise every record and the
   held-out sample up front, so input generation is never timed;
3. :meth:`WorkloadRun.feed` -- the timed phase, including the final
   drain;
4. :meth:`WorkloadRun.checks` and the accessors below it -- output
   checks and the counters the metrics are made of.

Every input is a pure function of the run seed: each site's stream
draws from ``default_rng((seed, STREAM_KEY, site))``, and the system's
and the fault injectors' generators derive from the same seed.
"""

from __future__ import annotations

import itertools
from collections import deque
from time import perf_counter

import numpy as np

from repro import CluDistream, CluDistreamConfig, EMConfig, RemoteSiteConfig
from repro.cluster.spec import build_spec
from repro.cluster.tree import TransportTree
from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.mixture import GaussianMixture
from repro.core.protocol import ModelUpdateMessage
from repro.core.serde import CodecConfig
from repro.obs import HealthMonitor, MultiSink, Observer, SpanCollector
from repro.runtime import ChannelFaults, SimulatedChannel, TransportChannel
from repro.streams.drift import DriftConfig, DriftingGaussianStream
from repro.streams.synthetic import random_mixture
from repro.transport.clock import ManualClock
from repro.transport.loopback import LoopbackTransport
from repro.transport.lossy import FaultConfig
from repro.transport.reliability import ReliabilityConfig

__all__ = ["WORKLOADS", "UpdateLatency", "WorkloadRun", "make_run"]

STREAM_KEY = 1
#: Segment length of the evolving streams.
SEGMENT = 2000
#: Held-out records drawn per site after the fed prefix.
HOLDOUT_PER_SITE = 250
#: Relative tolerance of the mass-conservation check.
MASS_RTOL = 1e-9


class UpdateLatency:
    """Per-model-update latency on the star, from outside the feed loop.

    A sample is the site's side plus the coordinator's side of one
    update: the wall time of the submit call in which the site emitted
    it, less any coordinator work done inside that call, plus the wall
    time of the ``handle_message`` call that absorbed it.  Work done
    between the two -- other sites' records, chunk tests and refits, and
    the absorption of other updates -- is not part of the sample.  On
    the transport channel the absorption falls inside the emitting call
    (it drains after every record); on the simulated star it comes a few
    records later, when the virtual clock reaches the arrival time.  A
    site's updates are absorbed in emission order, so emissions and
    absorptions pair up first in, first out, per site.
    """

    def __init__(self, samples: list[float], clock=perf_counter) -> None:
        self._clock = clock
        self._emitted: dict[int, deque[float]] = {}
        self._absorbed: dict[int, deque[float]] = {}
        self._coordinator_s = 0.0
        self.samples = samples

    def call(self, fn, site, *args):
        """``fn(*args)``, with the site-side time of ``site``'s emissions
        recorded."""
        before = site.stats.n_clusterings
        self._coordinator_s = 0.0
        start = self._clock()
        result = fn(*args)
        elapsed = self._clock() - start - self._coordinator_s
        emitted = site.stats.n_clusterings - before
        for _ in range(emitted):
            self._pair(site.site_id, elapsed / emitted, self._emitted, self._absorbed)
        return result

    def handle(self, handle_message, message) -> None:
        """``handle_message(message)``, timed as coordinator work and, for
        a model update, as that update's absorption."""
        start = self._clock()
        handle_message(message)
        elapsed = self._clock() - start
        self._coordinator_s += elapsed
        if isinstance(message, ModelUpdateMessage):
            self._pair(message.site_id, elapsed, self._absorbed, self._emitted)

    def _pair(self, site_id, seconds, mine, theirs) -> None:
        waiting = theirs.get(site_id)
        if waiting:
            self.samples.append(waiting.popleft() + seconds)
        else:
            mine.setdefault(site_id, deque()).append(seconds)


def _mixture_problems(mixture: GaussianMixture) -> list[str]:
    weights = np.asarray(mixture.weights, dtype=float)
    problems = []
    if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
        problems.append("weights not finite and non-negative")
    elif abs(weights.sum() - 1.0) > 1e-9:
        problems.append(f"weights sum to {weights.sum()!r}")
    for index, component in enumerate(mixture.components):
        cov = np.asarray(component.covariance, dtype=float)
        if not (np.all(np.isfinite(component.mean)) and np.all(np.isfinite(cov))):
            problems.append(f"component {index} not finite")
            continue
        if not np.allclose(cov, cov.T):
            problems.append(f"component {index} covariance not symmetric")
            continue
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            problems.append(f"component {index} covariance not positive definite")
    return problems


def _mass_problem(coordinator: Coordinator) -> str | None:
    leaves = sum(
        leaf.weight for cluster in coordinator.clusters for leaf in cluster.leaves
    )
    counts = sum(count for _, count in coordinator.site_models.values())
    if abs(leaves - counts) > MASS_RTOL * max(1.0, abs(counts)):
        return f"leaf mass {leaves!r} != site-model counts {counts!r}"
    return None


class WorkloadRun:
    """One deployment built from a seed.  Subclasses fill the hooks."""

    name = "workload"
    #: Records per site at scale 1.
    records_per_site = 0

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.n_records = max(1, int(round(self.records_per_site * scale)))
        self.feed_records = 0
        #: Update latency samples in seconds, filled by :meth:`feed`.
        self.latency_s: list[float] = []
        self.records: dict[int, list[np.ndarray]] = {}
        self.holdout: np.ndarray | None = None

    # -- hooks ----------------------------------------------------------
    def _streams(self) -> dict[int, object]:
        raise NotImplementedError

    def feed(self) -> None:
        raise NotImplementedError

    @property
    def sites(self) -> list:
        raise NotImplementedError

    @property
    def root(self) -> Coordinator:
        raise NotImplementedError

    @property
    def coordinators(self) -> list[Coordinator]:
        """Every coordinator, root first."""
        raise NotImplementedError

    def emitted_updates(self) -> int:
        """Model updates the sites emitted."""
        return sum(site.stats.n_clusterings for site in self.sites)

    def update_deliveries(self) -> list[tuple[str, int, int]]:
        """``(edge set, emitted, applied)`` model-update totals."""
        raise NotImplementedError

    def messages_sent(self) -> int:
        raise NotImplementedError

    def undelivered(self) -> int:
        raise NotImplementedError

    def payload_bytes(self) -> int:
        raise NotImplementedError

    def wire(self) -> dict:
        """Transport counters: ``payloads``, ``retransmissions`` and
        ``ack_bytes``."""
        return {"payloads": 0, "retransmissions": 0, "ack_bytes": 0}

    def tree_uploads(self) -> tuple[int, int, int]:
        """``(leaf uploads, aggregator uploads, child updates received
        by aggregators)``; zero off the tree."""
        return (0, 0, 0)

    # -- shared ---------------------------------------------------------
    def generate(self) -> None:
        """Materialise the fed records and the held-out sample."""
        holdout = []
        for site_id, stream in self._streams().items():
            iterator = iter(stream)
            self.records[site_id] = [next(iterator) for _ in range(self.n_records)]
            holdout.extend(next(iterator) for _ in range(HOLDOUT_PER_SITE))
        self.holdout = np.asarray(holdout)

    def checks(self) -> dict[str, list[str]]:
        """Output checks; each maps to the problems it found."""
        results: dict[str, list[str]] = {}
        undelivered = self.undelivered()
        results["nothing_outstanding"] = (
            [f"{undelivered} messages undelivered after the final drain"]
            if undelivered
            else []
        )
        results["updates_applied"] = [
            f"{edges}: {emitted} model updates emitted, {applied} applied"
            for edges, emitted, applied in self.update_deliveries()
            if emitted != applied
        ]
        try:
            results["mixture_valid"] = _mixture_problems(self.root.global_mixture())
        except ValueError as error:
            results["mixture_valid"] = [str(error)]
        results["mass_conserved"] = [
            problem
            for problem in map(_mass_problem, self.coordinators)
            if problem is not None
        ]
        return results

    def holdout_avg_ll(self) -> float:
        return float(self.root.global_mixture().average_log_likelihood(self.holdout))

    def fingerprint(self) -> dict:
        """The work done, which two runs of one seed must repeat exactly."""
        return {
            "updates": self.emitted_updates(),
            "merges": sum(c.stats.merges for c in self.coordinators),
            "splits": sum(c.stats.splits for c in self.coordinators),
            "payload_bytes": self.payload_bytes(),
            "holdout_avg_ll": self.holdout_avg_ll(),
        }


class _StarRun(WorkloadRun):
    """Sites and one coordinator behind a :class:`~repro.runtime.Runtime`."""

    def __init__(self, seed, scale=1.0) -> None:
        super().__init__(seed, scale)
        self.system = CluDistream(self._config(), seed=seed)
        self.channel = self._channel()
        self.runtime = self.system.runtime(self.channel)
        # Open the channel now, so its wiring is set-up, not feed, time.
        self.runtime._ensure_open()

    def _config(self) -> CluDistreamConfig:
        raise NotImplementedError

    def _channel(self):
        raise NotImplementedError

    @property
    def sites(self):
        return self.system.sites

    @property
    def root(self):
        return self.system.coordinator

    @property
    def coordinators(self):
        return [self.system.coordinator]

    def feed(self) -> None:
        latency = UpdateLatency(self.latency_s)
        # Instance attributes shadow the class methods the runtime and
        # the channel's delivery path look up on every call.
        coordinator, channel = self.system.coordinator, self.channel
        handle_message, submit = coordinator.handle_message, channel.submit
        coordinator.handle_message = lambda message: latency.handle(
            handle_message, message
        )
        channel.submit = lambda site, record: latency.call(submit, site, site, record)
        try:
            report = self.runtime.run(self.records, self.n_records)
        finally:
            del coordinator.handle_message, channel.submit
        self.feed_records = report.records

    def update_deliveries(self):
        return [
            (
                "sites->coordinator",
                self.emitted_updates(),
                self.system.coordinator.stats.model_updates,
            )
        ]

    def messages_sent(self) -> int:
        return sum(site.stats.messages_sent for site in self.sites)

    def undelivered(self) -> int:
        accounting = self.channel.accounting()
        return accounting.attempted - accounting.delivered

    def payload_bytes(self) -> int:
        return self.channel.accounting().payload_bytes


def scheduled_streams(seed: int, sites, records: int, period: int, dim: int, k: int):
    """Evolving Gaussian streams whose changes follow a fixed schedule.

    Records come in segments of :data:`SEGMENT`.  The segment boundaries
    inside the fed prefix are numbered across sites, boundary by
    boundary, and every ``period``-th one switches its site to a fresh
    random mixture: the paper's ``P_d = 1 / period``, spread evenly over
    sites and time.  Drawing each change independently, as
    :class:`~repro.streams.EvolvingGaussianStream` does, lets the number
    of model updates, and with it a run's merge work and uplink bytes,
    swing by 2x from seed to seed.  The seed still draws every mixture
    and every record.  Records past the prefix (the held-out sample)
    continue each site's last fed segment.
    """
    sites = list(sites)
    boundaries = records // SEGMENT

    def stream(position: int, site: int):
        rng = np.random.default_rng((seed, STREAM_KEY, site))
        mixture = random_mixture(dim, k, rng)
        for boundary in itertools.count():
            if 0 < boundary < boundaries and (
                ((boundary - 1) * len(sites) + position) % period == 0
            ):
                mixture = random_mixture(dim, k, rng)
            points, _ = mixture.sample(SEGMENT, rng)
            yield from points

    return {site: stream(position, site) for position, site in enumerate(sites)}


class StarMerge(_StarRun):
    """The quickstart shape on the simulated §6 star, simplex merges."""

    name = "star_merge"
    records_per_site = 8000

    def _config(self):
        return CluDistreamConfig(
            n_sites=4,
            site=RemoteSiteConfig(
                dim=4,
                epsilon=0.05,
                delta=0.05,
                c_max=4,
                em=EMConfig(n_components=5, n_init=2, max_iter=60),
                chunk_override=1000,
            ),
            coordinator=CoordinatorConfig(max_components=8),
        )

    def _channel(self):
        return SimulatedChannel()

    def _streams(self):
        return scheduled_streams(self.seed, range(4), self.n_records, 5, dim=4, k=5)


class StarChurn(_StarRun):
    """Drifting streams, refit ladder, CDS2 over lossy ARQ, moment merges."""

    name = "star_churn"
    records_per_site = 6000

    def _config(self):
        return CluDistreamConfig(
            n_sites=8,
            site=RemoteSiteConfig(
                dim=4,
                epsilon=0.05,
                delta=0.05,
                c_max=4,
                em=EMConfig(n_components=3, n_init=1, max_iter=40, incremental=True),
                chunk_override=500,
            ),
            coordinator=CoordinatorConfig(max_components=16, merge_method="moment"),
        )

    def _channel(self):
        return TransportChannel(
            LoopbackTransport(),
            ManualClock(),
            reliability=ReliabilityConfig(heartbeat_interval=None),
            seed=self.seed,
            faults=ChannelFaults(drop_rate=0.1, seed=self.seed),
            wire_codec="cds2",
            codec_config=CodecConfig(quantize="f32", delta=True),
        )

    def _streams(self):
        return {
            site: DriftingGaussianStream(
                DriftConfig(dim=4, n_components=3, drift_per_record=0.004),
                rng=np.random.default_rng((self.seed, STREAM_KEY, site)),
            )
            for site in range(8)
        }

    def wire(self):
        accounting = self.channel.accounting()
        return {
            "payloads": accounting.attempted,
            "retransmissions": accounting.retransmissions,
            "ack_bytes": accounting.ack_bytes,
        }


class TreeSteady(WorkloadRun):
    """The §7 tree in one process: 16 sites under 4 gateways and a root,
    seeded 10%-loss loopback edges, near-stationary streams, and the
    live-monitoring observer (``HealthMonitor`` + ``SpanCollector``)."""

    name = "tree_steady"
    records_per_site = 6000

    def __init__(self, seed, scale=1.0) -> None:
        super().__init__(seed, scale)
        self.spec = build_spec(
            16,
            4,
            seed=seed,
            dim=4,
            clusters=3,
            chunk=500,
            records_per_site=self.n_records,
            merge_method="moment",
            incremental=True,
            wire_codec="cds2",
            quantize="f32",
            delta_encoding=True,
        )
        self.tree = TransportTree.from_spec(
            self.spec,
            faults=FaultConfig(drop_rate=0.1),
            observer=Observer(sink=MultiSink([HealthMonitor(), SpanCollector()])),
        )

    def _streams(self):
        return scheduled_streams(
            self.seed,
            [node.node_id for node in self.spec.site_nodes],
            self.n_records,
            50,
            dim=4,
            k=3,
        )

    @property
    def sites(self):
        return list(self.tree.sites)

    @property
    def root(self):
        return self.tree.root.coordinator

    @property
    def coordinators(self):
        return [node.coordinator for node in self.tree.internals]

    def _gateways(self) -> list:
        return [node for node in self.tree.internals if node.parent_id is not None]

    def feed(self) -> None:
        tree = self.tree
        # With faults configured the tree drains inside every feed call,
        # so an update is absorbed up to the root before the call returns:
        # the call that emitted it is its latency sample.
        feed = tree.feed
        feeders = [
            (site.site_id, site.stats, self.records[site.site_id]) for site in tree.sites
        ]
        for index in range(self.n_records):
            for site_id, stats, records in feeders:
                before = stats.n_clusterings
                start = perf_counter()
                feed(site_id, records[index])
                if stats.n_clusterings != before:
                    self.latency_s.append(perf_counter() - start)
        tree.drain()
        self.feed_records = tree.records_fed

    def update_deliveries(self):
        gateways = self._gateways()
        return [
            (
                "sites->gateways",
                self.emitted_updates(),
                sum(node.coordinator.stats.model_updates for node in gateways),
            ),
            (
                "gateways->root",
                sum(node.messages_up for node in gateways),
                self.root.stats.model_updates,
            ),
        ]

    def messages_sent(self) -> int:
        return sum(level.messages for level in self.tree.level_stats())

    def undelivered(self) -> int:
        delivered = sum(
            self.tree.receiver_stats(node.node_id).delivered
            for node in self.tree.internals
        )
        return self.messages_sent() - delivered

    def payload_bytes(self) -> int:
        return sum(level.payload_bytes for level in self.tree.level_stats())

    def wire(self):
        levels = self.tree.level_stats()
        return {
            "payloads": sum(level.messages for level in levels),
            "retransmissions": sum(level.retransmissions for level in levels),
            "ack_bytes": sum(
                self.tree.receiver_stats(node.node_id).ack_wire_bytes
                for node in self.tree.internals
            ),
        }

    def tree_uploads(self):
        (_, leaf_uploads, received), (_, aggregator_uploads, _) = (
            self.update_deliveries()
        )
        return leaf_uploads, aggregator_uploads, received


WORKLOADS: dict[str, type[WorkloadRun]] = {
    cls.name: cls for cls in (StarMerge, StarChurn, TreeSteady)
}


def make_run(name: str, seed: int, scale: float = 1.0) -> WorkloadRun:
    """Build (set up) workload ``name`` for ``seed``."""
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
        ) from None
    return cls(seed, scale)
