"""``TransportTree.feed`` drains only after records that emit.

A lossy two-level tree (drop, duplicate and reorder faults, propagation
delay, CDS2 deltas with a coalescing window of one) fed record by record
must end in exactly the state of a reference that drains after every
record: same clock, same per-edge and per-receiver counters, same
per-level accounting, same coordinators at every aggregator.  Tree
edges run without heartbeats (``repro.cluster.tree._RELIABILITY``).
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from repro.cluster.tree import TransportTree
from repro.core.coordinator import CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.remote import RemoteSiteConfig
from repro.core.serde import CodecConfig
from repro.io.checkpoint import snapshot_coordinator
from repro.transport.endpoint import SiteEndpoint
from repro.transport.lossy import FaultConfig

FAULTS = FaultConfig(
    drop_rate=0.2,
    duplicate_rate=0.1,
    reorder_rate=0.15,
    delay=0.05,
    delay_jitter=0.05,
)
LEAVES = {10: 1, 11: 1, 20: 2, 21: 2}
CHUNK = 100
RECORDS = 600


def lossy_tree() -> TransportTree:
    tree = TransportTree(
        site_config=RemoteSiteConfig(
            dim=2,
            epsilon=0.05,
            delta=0.05,
            em=EMConfig(n_components=2, n_init=1, max_iter=25, tol=1e-3),
            chunk_override=CHUNK,
        ),
        coordinator_config=CoordinatorConfig(
            max_components=4, merge_method="moment"
        ),
        seed=3,
        faults=FAULTS,
        wire_codec="cds2",
        codec_config=CodecConfig(delta=True, coalesce_window=1),
    )
    tree.add_internal(0)
    tree.add_internal(1, parent_id=0)
    tree.add_internal(2, parent_id=0)
    for leaf_id, parent_id in LEAVES.items():
        tree.add_leaf(leaf_id, parent_id=parent_id)
    return tree


def leaf_records(leaf_id: int) -> np.ndarray:
    """A stream whose centre jumps every chunk, so models keep changing."""
    rng = np.random.default_rng(leaf_id)
    blocks = []
    for block in range(RECORDS // CHUNK):
        center = float(rng.uniform(-6.0, 6.0)) + block
        mixture = GaussianMixture(
            np.array([0.5, 0.5]),
            (
                Gaussian.spherical(np.array([center, 0.0]), 0.3),
                Gaussian.spherical(np.array([center, 5.0]), 0.3),
            ),
        )
        blocks.append(mixture.sample(CHUNK, rng)[0])
    return np.concatenate(blocks)


def run(always_drain: bool) -> dict:
    tree = lossy_tree()
    records = {leaf_id: leaf_records(leaf_id) for leaf_id in LEAVES}
    for index in range(RECORDS):
        for leaf_id in LEAVES:
            tree.feed(leaf_id, records[leaf_id][index])
            if always_drain:
                tree.drain()
    tree.drain()
    internals = (0, 1, 2)
    return {
        "clock": tree.clock.now,
        "levels": tree.level_stats(),
        "receivers": [asdict(tree.receiver_stats(n)) for n in internals],
        "senders": [asdict(edge.sender.stats) for edge in tree._edges],
        "uploads": [tree.internal(n).messages_up for n in internals],
        "coordinators": [
            json.dumps(
                snapshot_coordinator(tree.internal(n).coordinator),
                sort_keys=True,
            )
            for n in internals
        ],
    }


def test_event_driven_feed_matches_always_drain_reference():
    event_driven = run(always_drain=False)
    reference = run(always_drain=True)
    receivers = reference["receivers"]
    assert sum(r["duplicates_suppressed"] for r in receivers) > 0
    assert sum(s["retransmissions"] for s in reference["senders"]) > 0
    # Gateways uploaded to the root more than once.
    assert sum(reference["uploads"][1:]) > 2
    assert event_driven == reference


def test_silent_record_polls_no_edge(monkeypatch):
    tree = lossy_tree()
    calls = []
    original = SiteEndpoint.outstanding

    def counting(endpoint) -> int:
        calls.append(endpoint.site_id)
        return original(endpoint)

    monkeypatch.setattr(SiteEndpoint, "outstanding", counting)
    records = leaf_records(10)
    for record in records[: CHUNK - 1]:
        tree.feed(10, record)
    assert calls == []
    # The chunk-completing record uploads, and that drains every edge.
    tree.feed(10, records[CHUNK - 1])
    assert set(calls) == {10, 11, 20, 21, 1, 2}
