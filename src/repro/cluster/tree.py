"""The §7 communication tree, in one process.

"A more complex and general distributed streams scenario is the
tree-structured hierarchy of the communication network.  By running the
CluDistream between each internal node and its children, we can compute
the Gaussian mixture model over the union of streams on the leaf nodes."

Stream sources sit at the leaves; every :class:`InternalNode` runs the
coordinator over its children and uploads its summary to *its* parent
only when its locally-observed global mixture changes (per
:func:`mixture_change`) -- the stability property that keeps the flat
protocol quiet, applied recursively.  :func:`aggregate_child` is that
one aggregation step; the in-process :class:`TransportTree` and the
deployed :class:`~repro.cluster.aggregator.AggregatorServer` both run it.

:class:`TransportTree` is the one in-process tree.  Every edge is the
star's own :class:`~repro.transport.endpoint.SiteEndpoint`:
serde-encoded payloads inside ``TPT1`` envelopes over a
:class:`~repro.transport.reliability.ReliableSender`, delivered to a
:class:`~repro.transport.reliability.ReliableReceiver` per aggregator,
with optional seeded fault injection per subnet.  It backs the tree
test suite (loopback and lossy links must reach the same root), the
aggregator crash/resume suite (an internal node is snapshotted with its
ARQ edge state and rebuilt mid-run) and the 1000-site soak harness
(:mod:`repro.cluster.soak`), which needs per-level byte accounting
straight off the wire.

Each aggregator owns one *subnet*: the transport instance its children
(sites or lower aggregators) send into.  Node ids double as message
``site_id`` values on each hop, so the standard
:mod:`repro.core.protocol` vocabulary and byte accounting work unchanged
on every level.  Spans adopt the envelope's propagated context on
delivery and re-propagate from the upload path, so a chunk test at a
leaf, the aggregation at its gateway and the merge at the root land on
one causally linked trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.mixture import GaussianMixture
from repro.core.protocol import Message, ModelUpdateMessage
from repro.core.remote import RemoteSite, RemoteSiteConfig
from repro.core.serde import CodecConfig, WireCodec, get_codec
from repro.io.checkpoint import restore_aggregator, snapshot_aggregator
from repro.obs.federation import (
    FederationCollector,
    FederationPublisher,
    TelemetryRelay,
)
from repro.obs.observer import Observer, ensure_observer
from repro.transport.base import DatagramTransport
from repro.transport.clock import ManualClock
from repro.transport.endpoint import SiteEndpoint
from repro.transport.endpoint import drain as drain_endpoints
from repro.transport.loopback import LoopbackTransport
from repro.transport.lossy import FaultConfig, LossyTransport
from repro.transport.reliability import ReliabilityConfig, ReliableReceiver
from repro.transport.wire import CodecSender

__all__ = [
    "InternalNode",
    "LevelStats",
    "TransportTree",
    "aggregate_child",
    "mixture_change",
]

#: ARQ tuning of every tree edge; without jitter a seeded lossy run
#: stays deterministic.
_RELIABILITY = ReliabilityConfig(jitter=0.0, heartbeat_interval=None)


def mixture_change(old: GaussianMixture | None, new: GaussianMixture) -> float:
    """A cheap change score between two mixtures.

    Component counts differing scores ``inf`` (a structural change
    always uploads).  Otherwise components are greedily matched by mean
    distance and the score is the largest matched symmetric Mahalanobis
    distance plus the total weight shift -- zero for identical models.
    """
    if old is None or old.n_components != new.n_components:
        return float("inf")
    remaining = list(range(new.n_components))
    worst = 0.0
    weight_shift = 0.0
    for i, old_component in enumerate(old.components):
        best_j = min(
            remaining,
            key=lambda j: float(
                np.linalg.norm(old_component.mean - new.components[j].mean)
            ),
        )
        remaining.remove(best_j)
        worst = max(
            worst,
            old_component.symmetric_mahalanobis_sq(new.components[best_j]),
        )
        weight_shift += abs(old.weights[i] - new.weights[best_j])
    return worst + weight_shift


@dataclass
class InternalNode:
    """An internal node: coordinator over children, site toward parent.

    Attributes
    ----------
    node_id:
        Used as the ``site_id`` on messages sent up to the parent.
    coordinator:
        Aggregates the children's synopses.
    parent_id:
        The parent aggregator; ``None`` for the root, which has no edge
        to upload on and so runs no upload gate.
    upload_threshold:
        Minimal :func:`mixture_change` score that triggers an upload;
        ``0.0`` uploads on every observable change.
    """

    node_id: int
    coordinator: Coordinator
    parent_id: int | None = None
    upload_threshold: float = 0.05
    _last_uploaded: GaussianMixture | None = field(default=None, repr=False)
    _next_model_id: int = 0
    messages_up: int = 0
    bytes_up: int = 0

    def handle_child_message(self, message: Message) -> list[Message]:
        """Absorb a child's message; maybe emit an upload to the parent."""
        self.coordinator.handle_message(message)
        if self.parent_id is None:
            return []
        try:
            summary = self.coordinator.global_mixture()
        except ValueError:
            return []
        if mixture_change(self._last_uploaded, summary) < self.upload_threshold:
            return []
        self._last_uploaded = summary
        upload = ModelUpdateMessage(
            site_id=self.node_id,
            model_id=self._allocate_model_id(),
            time=message.time,
            mixture=summary,
            count=max(1, round(sum(c.weight for c in self.coordinator.clusters))),
            reference_likelihood=0.0,
        )
        self.messages_up += 1
        self.bytes_up += upload.payload_bytes()
        return [upload]

    def _allocate_model_id(self) -> int:
        model_id = self._next_model_id
        self._next_model_id += 1
        return model_id


def aggregate_child(
    node: InternalNode,
    message: Message,
    uplink: CodecSender | None,
    observer: Observer,
    *,
    child_id: int,
    level: int,
    trace=None,
) -> None:
    """One aggregation step: absorb a child's message, forward uploads.

    Runs under a ``cluster.aggregate`` span parented on the envelope's
    propagated ``trace`` context; each upload goes out on ``uplink``
    (``None`` at the root) carrying this span's context, so the parent's
    merge links back through this hop to the originating leaf.
    """
    with observer.remote_parent(trace):
        with observer.span(
            "cluster.aggregate", node=node.node_id, child=child_id, level=level
        ):
            uploads = node.handle_child_message(message)
            if uplink is not None:
                for upload in uploads:
                    uplink.send(upload, trace=observer.span_context())


@dataclass(frozen=True)
class LevelStats:
    """Wire accounting of all edges whose child sits at one tree level.

    ``bytes_per_record`` divides the level's wire bytes by the total
    records fed into the tree -- the §6 communication gauge, split by
    hop so a deployment can see where its upload budget actually goes.
    ``codecs`` lists the wire codecs spoken on this level's edges;
    ``delta_hit_rate`` is the fraction of model updates that shipped as
    CDS2 deltas and ``bytes_saved`` the payload bytes the codec layer
    avoided versus always-snapshot encoding.
    """

    level: int
    edges: int
    messages: int
    payload_bytes: int
    wire_bytes: int
    retransmissions: int
    bytes_per_record: float
    codecs: tuple[str, ...] = ()
    delta_hit_rate: float = 0.0
    bytes_saved: int = 0

    def as_dict(self) -> dict:
        return {
            "level": self.level,
            "edges": self.edges,
            "messages": self.messages,
            "payload_bytes": self.payload_bytes,
            "wire_bytes": self.wire_bytes,
            "retransmissions": self.retransmissions,
            "bytes_per_record": self.bytes_per_record,
            "codecs": list(self.codecs),
            "delta_hit_rate": self.delta_hit_rate,
            "bytes_saved": self.bytes_saved,
        }


@dataclass
class _InternalWiring:
    node: InternalNode
    level: int
    transport: DatagramTransport
    receiver: ReliableReceiver
    decoder: WireCodec
    uplink: SiteEndpoint | None = None
    relay: TelemetryRelay | None = None
    publisher: FederationPublisher | None = None


@dataclass
class _LeafWiring:
    site: RemoteSite
    level: int
    uplink: SiteEndpoint
    publisher: FederationPublisher | None = None


class TransportTree:
    """A communication tree whose every edge is a transport link.

    Build the topology with :meth:`add_internal` / :meth:`add_leaf`
    (parents must exist before their children), then feed leaf streams
    through :meth:`feed`; read the root's model with
    :meth:`global_mixture`.

    Parameters
    ----------
    site_config / coordinator_config / seed:
        Templates for leaf sites and internal coordinators.
    faults:
        Optional :class:`~repro.transport.lossy.FaultConfig` applied to
        every subnet (each aggregator's subnet gets its own
        deterministic fault stream derived from ``seed``).  ``None``
        runs over loopback: synchronous, loss-free, nothing in flight.
    observer:
        Optional observer shared by all senders/receivers; aggregation
        emits ``cluster.aggregate`` spans causally linked across hops.
    federate:
        Give every node a :class:`~repro.obs.federation.FederationPublisher`,
        every internal node a relay, and the root a
        :class:`~repro.obs.federation.FederationCollector` (exposed as
        :attr:`federation`).  :meth:`flush_telemetry` then ships a round
        of reports up the same transport edges -- in TELEMETRY
        envelopes, outside the ARQ window, so :meth:`level_stats` stays
        identical to a non-federated run.
    wire_codec / codec_config:
        Codec spoken on every edge unless a node overrides it.

    Every edge shares one :class:`~repro.transport.clock.ManualClock`,
    exposed as :attr:`clock`.
    """

    def __init__(
        self,
        site_config: RemoteSiteConfig | None = None,
        coordinator_config: CoordinatorConfig | None = None,
        seed: int = 0,
        faults: FaultConfig | None = None,
        observer: Observer | None = None,
        federate: bool = False,
        wire_codec: str = "cds1",
        codec_config: CodecConfig | None = None,
    ) -> None:
        self._site_config = site_config or RemoteSiteConfig()
        self._coordinator_config = coordinator_config or CoordinatorConfig()
        self._seed = seed
        self._wire_codec = wire_codec
        self._codec_config = codec_config
        self._faults = faults
        self.clock = ManualClock()
        self._obs = ensure_observer(observer)
        self._internals: dict[int, _InternalWiring] = {}
        self._leaves: dict[int, _LeafWiring] = {}
        #: Every edge's child end (leaf and aggregator uplinks alike).
        self._edges: list[SiteEndpoint] = []
        self._root_id: int | None = None
        self.records_fed = 0
        self._federate = federate
        #: Root-side collector (``federate=True`` only); drives the same
        #: rollup the deployed root serves at ``/cluster/health``.
        self.federation: FederationCollector | None = None
        if federate:
            self.federation = FederationCollector(
                clock=lambda: self.clock.now
            )

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        spec,
        faults: FaultConfig | None = None,
        observer: Observer | None = None,
    ) -> "TransportTree":
        """Instantiate a :class:`~repro.cluster.spec.ClusterSpec` in-process."""
        tree = cls(
            site_config=spec.site_config(),
            coordinator_config=spec.coordinator_config(),
            seed=spec.seed,
            faults=faults,
            observer=observer,
            wire_codec=spec.wire_codec,
            codec_config=spec.codec_config(),
        )
        for agg in spec.aggregators:
            tree.add_internal(
                agg.node_id,
                parent_id=agg.parent_id,
                upload_threshold=spec.node_upload_threshold(agg),
                wire_codec=spec.node_wire_codec(agg),
                codec_config=spec.node_codec_config(agg),
            )
        for site in spec.site_nodes:
            tree.add_leaf(
                site.node_id,
                site.parent_id,
                config=spec.site_config_for(site),
                wire_codec=spec.node_wire_codec(site),
                codec_config=spec.node_codec_config(site),
            )
        return tree

    def add_internal(
        self,
        node_id: int,
        parent_id: int | None = None,
        upload_threshold: float = 0.05,
        *,
        wire_codec: str | None = None,
        codec_config: CodecConfig | None = None,
    ) -> InternalNode:
        """Add an aggregator; ``parent_id=None`` makes it the root.

        ``upload_threshold`` sets how much the node's global mixture
        must change (per :func:`mixture_change`) before it uploads to
        its parent -- larger values trade upward freshness for
        bandwidth.  ``wire_codec``/``codec_config`` override the
        tree-wide codec on this node's *uplink* edge only.
        """
        self._check_new_id(node_id)
        if parent_id is None:
            if self._root_id is not None:
                raise ValueError("tree already has a root")
            level = 0
            self._root_id = node_id
        else:
            level = self._require_internal(parent_id).level + 1
        node = InternalNode(
            node_id=node_id,
            coordinator=Coordinator(
                self._coordinator_config,
                rng=np.random.default_rng(self._seed + 50_000 + node_id),
                observer=self._obs,
            ),
            parent_id=parent_id,
            upload_threshold=upload_threshold,
        )
        wiring = _InternalWiring(
            node=node,
            level=level,
            transport=self._make_subnet(node_id),
            receiver=None,  # type: ignore[arg-type]  (set just below)
            # The subnet decoder starts at the tree-wide codec; adding a
            # cds2 child upgrades it (cds2 decodes cds1 payloads too).
            decoder=get_codec(self._wire_codec),
        )
        wiring.receiver = self._make_receiver(wiring)
        if parent_id is not None:
            wiring.uplink = self._make_uplink(
                node_id, parent_id, wire_codec, codec_config
            )
            self._edges.append(wiring.uplink)
        if self._federate:
            assert self.federation is not None
            self.federation.add_topology_node(
                node_id, "aggregator", level, parent_id
            )
            if parent_id is not None:
                wiring.relay = TelemetryRelay()
            wiring.publisher = FederationPublisher(
                node_id,
                "aggregator",
                level,
                uplink_stats=lambda w=wiring: (
                    w.uplink.sender.stats if w.uplink is not None else None
                ),
                codec_stats=lambda w=wiring: (
                    w.uplink.codec_sender.stats
                    if w.uplink is not None
                    else None
                ),
                uplink_codec=wire_codec or self._wire_codec,
                gauges=lambda n=node: {
                    "messages_up": n.messages_up,
                    "bytes_up": n.bytes_up,
                    "components": n.coordinator.n_components,
                },
            )
        self._internals[node_id] = wiring
        return node

    def add_leaf(
        self,
        node_id: int,
        parent_id: int,
        config: RemoteSiteConfig | None = None,
        *,
        wire_codec: str | None = None,
        codec_config: CodecConfig | None = None,
    ) -> RemoteSite:
        """Add a leaf site under an aggregator; returns the site.

        ``config`` overrides the tree-wide site configuration for this
        leaf (how :meth:`from_spec` applies per-node spec overrides
        such as ``incremental``); ``wire_codec``/``codec_config``
        override the codec on this leaf's uplink edge.
        """
        self._check_new_id(node_id)
        parent = self._require_internal(parent_id)
        uplink = self._make_uplink(node_id, parent_id, wire_codec, codec_config)
        self._edges.append(uplink)
        site = RemoteSite(
            site_id=node_id,
            config=config if config is not None else self._site_config,
            rng=np.random.default_rng(self._seed + node_id),
            emit=uplink.send,
            observer=self._obs,
        )
        wiring = _LeafWiring(site=site, level=parent.level + 1, uplink=uplink)
        if self._federate:
            assert self.federation is not None
            self.federation.add_topology_node(
                node_id, "site", wiring.level, parent_id
            )
            wiring.publisher = FederationPublisher(
                node_id,
                "site",
                wiring.level,
                uplink_stats=lambda: uplink.sender.stats,
                codec_stats=lambda: uplink.codec_sender.stats,
                uplink_codec=uplink.codec_sender.codec.name,
                records=lambda: site.stats.records_seen,
                gauges=lambda: {"models": len(site.all_models)},
            )
        self._leaves[node_id] = wiring
        return site

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def root(self) -> InternalNode:
        if self._root_id is None:
            raise ValueError("tree has no root")
        return self._internals[self._root_id].node

    @property
    def internals(self) -> tuple[InternalNode, ...]:
        return tuple(w.node for w in self._internals.values())

    @property
    def sites(self) -> tuple[RemoteSite, ...]:
        return tuple(w.site for w in self._leaves.values())

    def internal(self, node_id: int) -> InternalNode:
        return self._require_internal(node_id).node

    @property
    def depth(self) -> int:
        """Deepest level in the tree (root = 0)."""
        levels = [w.level for w in self._internals.values()]
        levels += [w.level for w in self._leaves.values()]
        return max(levels, default=0)

    def global_mixture(self) -> GaussianMixture:
        """The root's view of the union of all leaf streams."""
        return self.root.coordinator.global_mixture()

    # ------------------------------------------------------------------
    # Stream processing
    # ------------------------------------------------------------------
    def feed(self, leaf_id: int, record: np.ndarray) -> None:
        """Deliver one record to a leaf; uploads ride the transport.

        With faults configured, a record that emitted a message is
        drained up to the root before the call returns; a record that
        emitted nothing skips the drain, which would have returned at
        once (see :func:`~repro.transport.endpoint.drain`).
        """
        leaf = self._leaves.get(leaf_id)
        if leaf is None:
            raise KeyError(f"unknown leaf {leaf_id}")
        emitted = leaf.site.process_record(record)
        self.records_fed += 1
        if emitted and self._faults is not None:
            self.drain()

    def drain(self, step: float = 0.25, limit: float = 600.0) -> float:
        """Advance the clock until every edge's outbox is empty.

        Unconditional: callers use it to settle the tree at the end of a
        stream or before inspecting it, whatever the last record did.
        """
        return drain_endpoints(self.clock, self._edges, step, limit)

    def close(self) -> None:
        """Cancel timers and release transport bindings."""
        for wiring in self._leaves.values():
            wiring.site._emit = None
        for endpoint in self._edges:
            endpoint.close()
        for wiring in self._internals.values():
            wiring.transport.close()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def total_uplink_bytes(self) -> int:
        """Application bytes crossing all tree edges (leaf + internal)."""
        leaf_bytes = sum(
            w.site.stats.bytes_sent for w in self._leaves.values()
        )
        internal_bytes = sum(
            w.node.bytes_up for w in self._internals.values()
        )
        return leaf_bytes + internal_bytes

    def level_stats(self) -> tuple[LevelStats, ...]:
        """Per-level wire accounting, level 1 (root's children) down."""
        per_level: dict[int, list[SiteEndpoint]] = {}
        for wiring in (*self._leaves.values(), *self._internals.values()):
            if wiring.uplink is not None:
                per_level.setdefault(wiring.level, []).append(wiring.uplink)
        records = max(1, self.records_fed)
        stats = []
        for level in sorted(per_level):
            senders = [e.sender for e in per_level[level]]
            codecs = [e.codec_sender for e in per_level[level]]
            wire = sum(s.stats.wire_bytes for s in senders)
            model_updates = sum(c.stats.model_updates for c in codecs)
            delta_updates = sum(c.stats.delta_updates for c in codecs)
            stats.append(
                LevelStats(
                    level=level,
                    edges=len(senders),
                    messages=sum(s.stats.payloads_sent for s in senders),
                    payload_bytes=sum(s.stats.payload_bytes for s in senders),
                    wire_bytes=wire,
                    retransmissions=sum(
                        s.stats.retransmissions for s in senders
                    ),
                    bytes_per_record=wire / records,
                    codecs=tuple(sorted({c.codec.name for c in codecs})),
                    delta_hit_rate=(
                        delta_updates / model_updates if model_updates else 0.0
                    ),
                    bytes_saved=sum(c.stats.bytes_saved for c in codecs),
                )
            )
        return tuple(stats)

    def receiver_stats(self, node_id: int):
        """Delivery counters of one aggregator's subnet receiver."""
        return self._require_internal(node_id).receiver.stats

    # ------------------------------------------------------------------
    # Telemetry federation
    # ------------------------------------------------------------------
    def flush_telemetry(self) -> int:
        """One round of federated reports up the tree; returns sends.

        Deepest level first: every leaf ships its report, then each
        interior aggregator forwards whatever its relay holds plus its
        own report, the root last (ingesting its own report directly).
        On loopback delivery is synchronous, so a single round lands
        every node's report at the root; under fault injection telemetry
        is subject to the same loss/delay as data -- advance the clock
        and flush again until the collector converges (reports are
        idempotent snapshots, so re-sends never double count).
        """
        if not self._federate:
            raise ValueError("tree was not built with federate=True")
        assert self.federation is not None
        sent = 0
        wirings = sorted(
            (*self._leaves.values(), *self._internals.values()),
            key=lambda w: (-w.level, isinstance(w, _InternalWiring)),
        )
        for wiring in wirings:
            assert wiring.publisher is not None
            if wiring.uplink is None:  # root
                self.federation.ingest_report(
                    wiring.publisher.collect_report()
                )
                continue
            sender = wiring.uplink.sender
            if isinstance(wiring, _InternalWiring) and wiring.relay is not None:
                for payload in wiring.relay.drain():
                    sender.send_telemetry(payload)
                    sent += 1
            sender.send_telemetry(wiring.publisher.collect())
            sent += 1
        return sent

    # ------------------------------------------------------------------
    # Crash / resume of one aggregator
    # ------------------------------------------------------------------
    def aggregator_snapshot(self, node_id: int) -> dict:
        """Checkpoint one aggregator including its ARQ edge state."""
        wiring = self._require_internal(node_id)
        arq = {
            "uplink_next_seq": (
                wiring.uplink.sender.last_seq + 1
                if wiring.uplink is not None
                else 1
            ),
            "cursors": wiring.receiver.cursor_snapshot(),
        }
        return snapshot_aggregator(wiring.node, arq=arq)

    def restore_aggregator(self, payload: Mapping) -> InternalNode:
        """Rebuild one aggregator in place from a snapshot (crash path).

        Everything in the node's memory is discarded -- coordinator,
        upload gate, receiver -- and replaced by the checkpointed state;
        the subnet transport and the surviving peers (children's
        senders, the parent's receiver cursor) are left untouched,
        exactly like a process restart on a live deployment.  The
        restored receiver resumes the recorded per-child cursors and
        the restored uplink continues the recorded sequence numbers.
        """
        node_id = payload["node_id"]
        wiring = self._require_internal(node_id)
        node, arq = restore_aggregator(payload, observer=self._obs)
        wiring.node = node
        wiring.receiver = self._make_receiver(wiring)
        if arq is not None:
            for child_id, expected in arq["cursors"].items():
                wiring.receiver.restore_cursor(child_id, expected)
        old = wiring.uplink
        if old is not None:
            old.close()
            assert node.parent_id is not None
            codec = old.codec_sender.codec
            # The rebuilt codec sender starts without delta baselines, so
            # its first uploads go out as full snapshots -- exactly the
            # safe behaviour after losing in-memory codec state.
            wiring.uplink = self._make_uplink(
                node_id,
                node.parent_id,
                codec.name,
                codec.config,
                first_seq=arq["uplink_next_seq"] if arq is not None else 1,
            )
            self._edges[self._edges.index(old)] = wiring.uplink
        return node

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _make_subnet(self, node_id: int) -> DatagramTransport:
        transport: DatagramTransport = LoopbackTransport()
        if self._faults is not None:
            transport = LossyTransport(
                transport,
                self.clock,
                self._faults,
                seed=self._seed + 90_000 + node_id,
                observer=self._obs,
            )
        return transport

    def _make_receiver(self, wiring: _InternalWiring) -> ReliableReceiver:
        on_telemetry = None
        if self._federate:
            # The root ingests child reports straight into the
            # collector; interior nodes buffer the raw payloads for the
            # next flush up their own uplink.  ``wiring`` is captured,
            # not its fields, so a restored aggregator keeps the tap.
            def on_telemetry(_child: int, payload: bytes, w=wiring) -> None:
                if w.node.parent_id is None:
                    assert self.federation is not None
                    self.federation.ingest(payload)
                elif w.relay is not None:
                    w.relay.add(payload)

        receiver = ReliableReceiver(
            deliver_traced=self._make_deliver(wiring),
            send_ack=wiring.transport.send_to_site,
            clock=self.clock,
            config=_RELIABILITY,
            observer=self._obs,
            on_telemetry=on_telemetry,
        )
        wiring.transport.bind_coordinator(receiver.handle_datagram)
        return receiver

    def _make_deliver(
        self, wiring: _InternalWiring
    ) -> Callable[[int, bytes, object], None]:
        def deliver(child_id: int, payload: bytes, trace=None) -> None:
            aggregate_child(
                wiring.node,
                wiring.decoder.decode(payload),
                wiring.uplink.codec_sender if wiring.uplink is not None else None,
                self._obs,
                child_id=child_id,
                level=wiring.level,
                trace=trace,
            )

        return deliver

    def _make_uplink(
        self,
        node_id: int,
        parent_id: int,
        wire_codec: str | None,
        codec_config: CodecConfig | None,
        first_seq: int = 1,
    ) -> SiteEndpoint:
        parent = self._require_internal(parent_id)
        endpoint = SiteEndpoint(
            node_id,
            parent.transport,
            self.clock,
            _RELIABILITY,
            rng=np.random.default_rng(self._seed + 70_000 + node_id),
            observer=self._obs,
            first_seq=first_seq,
            wire_codec=wire_codec or self._wire_codec,
            codec_config=(
                codec_config if codec_config is not None else self._codec_config
            ),
        )
        # Negotiate the edge: the parent's receiver accepts this codec
        # id and its decoder is upgraded if the child speaks CDS2.
        codec = endpoint.codec_sender.codec
        parent.receiver.accept_codec(codec.wire_id)
        if codec.wire_id != 0 and parent.decoder.wire_id == 0:
            parent.decoder = get_codec(codec.name)
        return endpoint

    def _check_new_id(self, node_id: int) -> None:
        if node_id in self._internals or node_id in self._leaves:
            raise ValueError(f"node id {node_id} already used")

    def _require_internal(self, node_id: int) -> _InternalWiring:
        wiring = self._internals.get(node_id)
        if wiring is None:
            raise ValueError(f"parent {node_id} is not an internal node")
        return wiring
