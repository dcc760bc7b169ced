"""``TransportChannel.submit`` drains only after records that emit.

``drain`` leaves every outbox and coalescing queue empty, only a site
send refills one, and the manual clock moves only inside a drain, so a
drain after a record that emitted nothing would return at once.  These
tests pin that down: a lossy star with heartbeats and coalescing ends
in exactly the state of a reference that drains after every record, and
a silent record does not poll a single endpoint.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from repro.core.cludistream import CluDistream, CluDistreamConfig
from repro.core.coordinator import CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.remote import RemoteSiteConfig
from repro.core.serde import CodecConfig
from repro.io.checkpoint import snapshot_coordinator
from repro.runtime import ChannelFaults, TransportChannel
from repro.streams.base import take
from repro.streams.synthetic import EvolvingGaussianStream, EvolvingStreamConfig
from repro.transport.clock import ManualClock
from repro.transport.endpoint import drain
from repro.transport.loopback import LoopbackTransport
from repro.transport.reliability import ReliabilityConfig

RECORDS = 360
CHUNK = 60
SITES = 3


def lossy_star() -> tuple[CluDistream, TransportChannel, ManualClock]:
    system = CluDistream(
        CluDistreamConfig(
            n_sites=SITES,
            site=RemoteSiteConfig(
                dim=2,
                epsilon=0.05,
                delta=0.05,
                em=EMConfig(n_components=2, n_init=1, max_iter=30, tol=1e-3),
                chunk_override=CHUNK,
            ),
            coordinator=CoordinatorConfig(
                max_components=4, merge_method="moment"
            ),
        ),
        seed=0,
    )
    clock = ManualClock()
    channel = TransportChannel(
        LoopbackTransport(),
        clock,
        reliability=ReliabilityConfig(heartbeat_interval=1.0),
        seed=5,
        faults=ChannelFaults(
            drop_rate=0.25, duplicate_rate=0.1, reorder_rate=0.15, seed=9
        ),
        wire_codec="cds2",
        codec_config=CodecConfig(delta=True, coalesce_window=1),
    )
    return system, channel, clock


def streams() -> dict[int, list[np.ndarray]]:
    # One short segment per chunk (P_d = 0.8): sites keep retraining, so
    # the wire carries many synopses and the drains overlap retransmits.
    return {
        site_id: take(
            EvolvingGaussianStream(
                EvolvingStreamConfig(
                    dim=2,
                    n_components=2,
                    segment_length=CHUNK,
                    p_new_distribution=0.8,
                ),
                rng=np.random.default_rng(700 + site_id),
            ),
            RECORDS,
        )
        for site_id in range(SITES)
    }


def run(always_drain: bool) -> dict:
    system, channel, clock = lossy_star()
    runtime = system.runtime(channel)
    records = streams()
    emitting = 0
    for index in range(RECORDS):
        for site_id in range(SITES):
            emitting += bool(runtime.step(site_id, records[site_id][index]))
            if always_drain:
                drain(clock, channel.endpoints)
    channel.quiesce()
    assert emitting > 2 * SITES
    return {
        "clock": clock.now,
        "senders": [asdict(e.sender.stats) for e in channel.endpoints],
        "codecs": [asdict(e.codec_sender.stats) for e in channel.endpoints],
        "receiver": asdict(channel.coordinator_endpoint.receiver.stats),
        "accounting": channel.accounting(),
        "coordinator": json.dumps(
            snapshot_coordinator(system.coordinator), sort_keys=True
        ),
    }


def test_event_driven_drain_matches_always_drain_reference():
    event_driven = run(always_drain=False)
    reference = run(always_drain=True)
    # The run actually exercised the lossy paths and the timers.
    accounting = reference["accounting"]
    assert accounting.dropped > 0
    assert accounting.duplicated > 0
    assert accounting.reordered > 0
    assert accounting.retransmissions > 0
    assert sum(s["heartbeats_sent"] for s in reference["senders"]) > 0
    assert event_driven == reference


def test_silent_record_polls_no_endpoint():
    system, channel, _ = lossy_star()
    runtime = system.runtime(channel)
    runtime.step(0, np.zeros(2))  # opens the channel
    endpoint = channel.endpoints[0]
    calls = []
    original = endpoint.outstanding

    def counting() -> int:
        calls.append(1)
        return original()

    endpoint.outstanding = counting
    records = streams()[0]
    # Records 2..CHUNK-1 of the first chunk complete nothing.
    for record in records[1 : CHUNK - 1]:
        assert runtime.step(0, record) == []
    assert calls == []
    # The record that completes the chunk emits, and that drains.
    assert runtime.step(0, records[CHUNK - 1])
    assert calls
