"""Seeded mutation fuzz of the wire decoders (hostile input).

Every payload a decoder is handed -- however it was damaged in transit
or forged -- must either decode or raise :class:`CodecError`; no
``struct.error``, ``IndexError`` or bare constructor error may escape.
A rejected CDS2 payload must also leave the receiver's delta baselines
exactly as they were.

The fuzzer is dependency-free: a fixed-seed ``numpy`` generator mutates
valid CDS1 and CDS2 payloads (full and diagonal covariances, exact and
quantized factors, snapshots and deltas, counter messages) by flipping
bytes, overwriting header fields, truncating and extending them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.protocol import (
    HEADER_BYTES,
    DeletionMessage,
    ModelUpdateMessage,
    WeightUpdateMessage,
)
from repro.core.serde import (
    CDS2_HEADER_BYTES,
    CodecConfig,
    CodecError,
    get_codec,
)

#: Mutated payloads per codec; each codec's seed-pinned run takes ~1 s.
CASES = 3000


def _mixture(rng: np.random.Generator, dim: int, k: int, diagonal: bool):
    components = []
    for _ in range(k):
        mean = rng.normal(size=dim) * 3.0
        if diagonal:
            cov = np.diag(rng.uniform(0.2, 2.0, size=dim))
        else:
            a = rng.normal(size=(dim, dim))
            cov = a @ a.T + 0.5 * np.eye(dim)
        components.append(Gaussian(mean, cov, diagonal=diagonal))
    weights = rng.uniform(0.2, 1.0, size=k)
    return GaussianMixture(weights / weights.sum(), tuple(components))


def _update(mixture: GaussianMixture, time: int = 40) -> ModelUpdateMessage:
    return ModelUpdateMessage(
        site_id=2,
        model_id=5,
        time=time,
        mixture=mixture,
        count=400,
        reference_likelihood=-3.25,
    )


def _counters() -> list:
    return [
        WeightUpdateMessage(site_id=2, model_id=5, time=60, count_delta=100),
        DeletionMessage(site_id=2, model_id=5, time=80, count_delta=50),
    ]


def _drift(mixture: GaussianMixture, index: int) -> GaussianMixture:
    components = list(mixture.components)
    old = components[index]
    components[index] = Gaussian(
        old.mean + 0.5, old.covariance, diagonal=old.diagonal
    )
    return GaussianMixture(mixture.weights, tuple(components))


def _mutate(rng: np.random.Generator, payload: bytes) -> bytes:
    data = bytearray(payload)
    kind = int(rng.integers(5))
    if kind == 0:  # flip a few random bytes
        for _ in range(int(rng.integers(1, 5))):
            data[int(rng.integers(len(data)))] ^= int(rng.integers(1, 256))
    elif kind == 1:  # overwrite a header byte (tag, flags, K, d, time...)
        data[int(rng.integers(min(len(data), 40)))] = int(rng.integers(256))
    elif kind == 2:  # truncate
        del data[int(rng.integers(len(data))) :]
    elif kind == 3:  # extend with garbage
        data += rng.integers(0, 256, size=int(rng.integers(1, 24))).astype(
            np.uint8
        ).tobytes()
    else:  # overwrite a random float64-sized window
        start = int(rng.integers(max(1, len(data) - 8)))
        data[start : start + 8] = rng.integers(0, 256, size=8).astype(
            np.uint8
        ).tobytes()
    return bytes(data)


def _cds1_corpus(rng: np.random.Generator) -> list[bytes]:
    codec = get_codec("cds1")
    messages = [
        _update(_mixture(rng, dim, k, diagonal))
        for dim, k, diagonal in ((1, 1, False), (3, 2, False), (4, 3, True))
    ] + _counters()
    return [codec.encode(message) for message in messages]


def _decode_or_codec_error(codec, payload: bytes) -> bool:
    """``True`` if ``payload`` decoded, ``False`` if it was rejected."""
    try:
        codec.decode(payload)
    except CodecError:
        return False
    return True


def test_cds1_decode_raises_only_codec_error():
    rng = np.random.default_rng(20240415)
    corpus = _cds1_corpus(rng)
    codec = get_codec("cds1")
    rejected = 0
    for _ in range(CASES):
        payload = _mutate(rng, corpus[int(rng.integers(len(corpus)))])
        rejected += not _decode_or_codec_error(codec, payload)
    # The fuzzer must actually reach the error paths.
    assert CASES // 4 < rejected < CASES


def _rx_state(codec) -> dict:
    return {
        site: [(update_id, id(mixture)) for update_id, mixture in per_site.items()]
        for site, per_site in codec._rx.items()
    }


@pytest.mark.parametrize("quantize", ["f64", "f32", "f16"])
def test_cds2_decode_raises_only_codec_error(quantize):
    rng = np.random.default_rng({"f64": 1, "f32": 2, "f16": 3}[quantize])
    config = CodecConfig(quantize=quantize, delta=True)
    sender = get_codec("cds2", config)
    receiver = get_codec("cds2", config)
    corpus = []
    for dim, k, diagonal in ((2, 2, False), (3, 3, False), (4, 2, True)):
        base = _mixture(rng, dim, k, diagonal)
        snapshot = sender.encode(_update(base))
        receiver.decode(snapshot)
        sender.note_sent(len(corpus) + 1)
        sender.note_acked(len(corpus) + 1)
        delta = sender.encode(_update(_drift(base, 0), time=41))
        assert delta != snapshot
        corpus += [snapshot, delta]
    corpus += [sender.encode(message) for message in _counters()]
    # A CDS2 endpoint also accepts CDS1 bytes.
    corpus += _cds1_corpus(rng)[:1]
    for payload in corpus:
        receiver.decode(payload)
    baseline = {
        site: dict(per_site) for site, per_site in receiver._rx.items()
    }

    rejected = 0
    for _ in range(CASES // 3):
        payload = _mutate(rng, corpus[int(rng.integers(len(corpus)))])
        before = _rx_state(receiver)
        if _decode_or_codec_error(receiver, payload):
            # Put the baselines back so later deltas still resolve.
            receiver._rx = {
                site: type(receiver._rx[site])(per_site)
                for site, per_site in baseline.items()
            }
        else:
            rejected += 1
            assert _rx_state(receiver) == before
    assert CASES // 12 < rejected < CASES // 3


_WIDTH = {"f64": "<f8", "f32": "<f4", "f16": "<f2"}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["mean", "covariance"])
@pytest.mark.parametrize(
    "name, quantize",
    [("cds1", "f64"), ("cds2", "f64"), ("cds2", "f32"), ("cds2", "f16")],
)
def test_non_finite_component_is_rejected(name, quantize, field, value):
    dim, k = 3, 2
    mixture = _mixture(np.random.default_rng(7), dim, k, diagonal=False)
    if name == "cds1":
        codec = get_codec("cds1")
        start = HEADER_BYTES + 16 + 8 * k
    else:
        codec = get_codec("cds2", CodecConfig(quantize=quantize))
        start = CDS2_HEADER_BYTES + 20 + 8 * k
    payload = bytearray(codec.encode(_update(mixture)))
    # Poison the second component: its mean, then its covariance block.
    record = (len(payload) - start) // k
    offset = start + record + (0 if field == "mean" else 8 * dim)
    dtype = "<f8" if field == "mean" else _WIDTH[quantize]
    raw = np.array([value], dtype=dtype).tobytes()
    payload[offset : offset + len(raw)] = raw
    with pytest.raises(CodecError, match="non-finite"):
        codec.decode(bytes(payload))
