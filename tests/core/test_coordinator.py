"""Tests for the coordinator (Algorithm 2)."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import coordinator as coordinator_module
from repro.core.coordinator import Coordinator, CoordinatorConfig, Leaf
from repro.core.gaussian import Gaussian
from repro.core.merging import m_merge
from repro.core.mixture import GaussianMixture
from repro.core.protocol import (
    DeletionMessage,
    ModelUpdateMessage,
    WeightUpdateMessage,
)
from repro.io.checkpoint import restore_coordinator, snapshot_coordinator
from repro.obs.observer import Observer
from repro.obs.stats import summarize_events
from repro.obs.trace import RingBufferSink


def site_mixture(center: np.ndarray) -> GaussianMixture:
    """A two-component site model around ``center``."""
    return GaussianMixture(
        np.array([0.6, 0.4]),
        (
            Gaussian.spherical(center, 0.5),
            Gaussian.spherical(center + np.array([0.0, 4.0]), 0.5),
        ),
    )


def model_update(
    site_id: int, model_id: int, mixture: GaussianMixture, count: int = 1000
) -> ModelUpdateMessage:
    return ModelUpdateMessage(
        site_id=site_id,
        model_id=model_id,
        time=count,
        mixture=mixture,
        count=count,
        reference_likelihood=-1.0,
    )


@pytest.fixture
def coordinator() -> Coordinator:
    return Coordinator(
        CoordinatorConfig(max_components=4, merge_method="moment"),
        rng=np.random.default_rng(0),
    )


class TestModelUpdates:
    def test_first_update_creates_clusters(self, coordinator: Coordinator):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)))
        )
        assert coordinator.n_components >= 1
        assert coordinator.stats.model_updates == 1
        mixture = coordinator.global_mixture()
        assert mixture.dim == 2

    def test_same_distribution_sites_share_clusters(
        self, coordinator: Coordinator
    ):
        # Ten sites reporting near-identical models must NOT produce
        # ten times the components (the r*K blow-up of section 5.2).
        for site_id in range(10):
            jitter = np.full(2, 0.01 * site_id)
            coordinator.handle_message(
                model_update(site_id, 0, site_mixture(jitter))
            )
        assert coordinator.n_components <= 4

    def test_distinct_distributions_stay_separate(
        self, coordinator: Coordinator
    ):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)))
        )
        coordinator.handle_message(
            model_update(1, 0, site_mixture(np.array([50.0, 50.0])))
        )
        mixture = coordinator.global_mixture()
        means = np.stack([c.mean for c in mixture.components])
        spread = np.linalg.norm(means.max(axis=0) - means.min(axis=0))
        assert spread > 10.0

    def test_replacement_update_removes_old_leaves(
        self, coordinator: Coordinator
    ):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)))
        )
        count_before = len(coordinator.full_mixture().components)
        # The same (site, model) reports again: leaves replaced, not added.
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.ones(2)))
        )
        assert len(coordinator.full_mixture().components) == count_before

    def test_full_mixture_is_leaf_union(self, coordinator: Coordinator):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)))
        )
        coordinator.handle_message(
            model_update(1, 0, site_mixture(np.array([30.0, 0.0])))
        )
        full = coordinator.full_mixture()
        assert full.n_components == 4  # 2 sites × 2 components

    def test_empty_coordinator_has_no_mixture(self, coordinator: Coordinator):
        with pytest.raises(ValueError, match="no models"):
            coordinator.global_mixture()
        with pytest.raises(ValueError, match="no models"):
            coordinator.full_mixture()


class TestWeightUpdates:
    def test_weight_update_scales_leaf_masses(self, coordinator: Coordinator):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)), count=1000)
        )
        before = sum(cluster.weight for cluster in coordinator.clusters)
        coordinator.handle_message(
            WeightUpdateMessage(site_id=0, model_id=0, time=2, count_delta=1000)
        )
        after = sum(cluster.weight for cluster in coordinator.clusters)
        assert after == pytest.approx(2.0 * before)
        assert coordinator.stats.weight_updates == 1

    def test_weight_update_for_unknown_model_rejected(
        self, coordinator: Coordinator
    ):
        with pytest.raises(KeyError, match="unknown model"):
            coordinator.handle_message(
                WeightUpdateMessage(site_id=9, model_id=9, time=0, count_delta=5)
            )


class TestDeletions:
    def test_deletion_reduces_weight(self, coordinator: Coordinator):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)), count=1000)
        )
        before = sum(cluster.weight for cluster in coordinator.clusters)
        coordinator.handle_message(
            DeletionMessage(site_id=0, model_id=0, time=3, count_delta=500)
        )
        after = sum(cluster.weight for cluster in coordinator.clusters)
        assert after == pytest.approx(0.5 * before)

    def test_full_deletion_drops_the_model(self, coordinator: Coordinator):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)), count=1000)
        )
        coordinator.handle_message(
            DeletionMessage(site_id=0, model_id=0, time=3, count_delta=1000)
        )
        assert (0, 0) not in coordinator.site_models
        with pytest.raises(ValueError):
            coordinator.global_mixture()

    def test_deletion_of_unknown_model_is_ignored(
        self, coordinator: Coordinator
    ):
        coordinator.handle_message(
            DeletionMessage(site_id=5, model_id=5, time=0, count_delta=10)
        )  # must not raise
        assert coordinator.stats.deletions == 1


class TestMergeCap:
    def test_component_cap_enforced(self):
        coordinator = Coordinator(
            CoordinatorConfig(max_components=3, merge_method="moment"),
            rng=np.random.default_rng(1),
        )
        for site_id in range(6):
            center = np.array([float(site_id * 20), 0.0])
            coordinator.handle_message(
                model_update(site_id, 0, site_mixture(center))
            )
        assert coordinator.n_components <= 3
        assert coordinator.stats.merges > 0

    def test_unbounded_mode_never_merges(self):
        coordinator = Coordinator(
            CoordinatorConfig(max_components=None),
            rng=np.random.default_rng(1),
        )
        for site_id in range(5):
            center = np.array([float(site_id * 20), 0.0])
            coordinator.handle_message(
                model_update(site_id, 0, site_mixture(center))
            )
        assert coordinator.stats.merges == 0
        assert coordinator.n_components >= 5

    def test_simplex_merge_method_works(self):
        coordinator = Coordinator(
            CoordinatorConfig(
                max_components=2, merge_method="simplex", merge_samples=256
            ),
            rng=np.random.default_rng(1),
        )
        for site_id in range(4):
            center = np.array([float(site_id * 15), 0.0])
            coordinator.handle_message(
                model_update(site_id, 0, site_mixture(center))
            )
        assert coordinator.n_components <= 2

    @pytest.mark.parametrize("method", ["simplex", "moment"])
    def test_merge_events_carry_fit_provenance(self, method):
        sink = RingBufferSink()
        coordinator = Coordinator(
            CoordinatorConfig(
                max_components=2, merge_method=method, merge_samples=256
            ),
            rng=np.random.default_rng(1),
            observer=Observer(sink=sink),
        )
        for site_id in range(4):
            center = np.array([float(site_id * 15), 0.0])
            coordinator.handle_message(
                model_update(site_id, 0, site_mixture(center))
            )
        merges = sink.of_type("coord.merge")
        assert len(merges) == coordinator.stats.merges > 0
        for event in merges:
            fields = event.fields
            assert fields["accuracy_loss"] <= fields["moment_loss"]
            if method == "moment":
                assert fields["iterations"] == 0
                assert fields["converged"] is True
            else:
                assert 1 <= fields["iterations"] <= 120
                assert fields["converged"] == (fields["iterations"] < 120)
        summary = summarize_events(sink.events)
        expected_fits = len(merges) if method == "simplex" else 0
        assert summary.simplex_fits == expected_fits
        if expected_fits:
            assert summary.simplex_iterations == sum(
                e.fields["iterations"] for e in merges
            )


class TestAlgorithm2:
    def test_drifted_component_gets_split_and_rehomed(self):
        coordinator = Coordinator(
            CoordinatorConfig(
                max_components=None, attach_threshold=30.0
            ),
            rng=np.random.default_rng(2),
        )
        base = site_mixture(np.zeros(2))
        coordinator.handle_message(model_update(0, 0, base))
        coordinator.handle_message(model_update(1, 0, base))
        # Site 1's model drifts far away; on its update the split check
        # should relocate its leaves out of the shared clusters.
        drifted = site_mixture(np.array([80.0, 80.0]))
        coordinator.handle_message(model_update(1, 0, drifted))
        mixture = coordinator.global_mixture()
        means = np.stack([c.mean for c in mixture.components])
        assert means[:, 0].max() > 50.0  # drifted mass separated

    def test_on_updates_counts_splits(self, coordinator: Coordinator):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)))
        )
        splits = coordinator.on_updates(0)
        assert splits >= 0  # smoke: no crash, count consistent
        assert coordinator.stats.splits >= splits


class TestAccounting:
    def test_bytes_received_accumulate(self, coordinator: Coordinator):
        message = model_update(0, 0, site_mixture(np.zeros(2)))
        coordinator.handle_message(message)
        assert coordinator.stats.bytes_received == message.payload_bytes()

    def test_memory_bytes_positive_after_updates(
        self, coordinator: Coordinator
    ):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)))
        )
        assert coordinator.memory_bytes() > 0

    def test_unsupported_message_type_rejected(
        self, coordinator: Coordinator
    ):
        from repro.core.protocol import Message

        with pytest.raises(TypeError, match="unsupported"):
            coordinator.handle_message(Message(site_id=0, model_id=0, time=0))


class TestLandmarkMixture:
    def test_spans_all_reported_models(self, coordinator: Coordinator):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)), count=3000)
        )
        coordinator.handle_message(
            model_update(0, 1, site_mixture(np.array([40.0, 0.0])), count=1000)
        )
        landmark = coordinator.landmark_mixture()
        assert landmark.n_components == 4  # 2 models x 2 components
        mass_near_origin = sum(
            w for w, c in landmark if c.mean[0] < 20.0
        )
        assert mass_near_origin == pytest.approx(0.75, abs=0.01)

    def test_empty_coordinator_rejected(self, coordinator: Coordinator):
        with pytest.raises(ValueError, match="no models"):
            coordinator.landmark_mixture()

    def test_deleted_models_excluded(self, coordinator: Coordinator):
        coordinator.handle_message(
            model_update(0, 0, site_mixture(np.zeros(2)), count=1000)
        )
        coordinator.handle_message(
            model_update(1, 0, site_mixture(np.array([40.0, 0.0])), count=500)
        )
        coordinator.handle_message(
            DeletionMessage(site_id=1, model_id=0, time=1, count_delta=500)
        )
        landmark = coordinator.landmark_mixture()
        assert landmark.n_components == 2


# ----------------------------------------------------------------------
# The cap loop's cached M_merge scores
# ----------------------------------------------------------------------
def drifting_messages(seed: int, n_sites: int = 4, rounds: int = 10):
    """A seeded site-message stream that keeps the cap loop busy.

    Every round each site's centre drifts and it announces a new
    three-component model; some models then get a weight update, and
    models two rounds old get a (sometimes total) deletion.
    """
    gen = np.random.default_rng(seed)
    centers = gen.normal(scale=5.0, size=(n_sites, 2))
    messages = []
    for round_ in range(rounds):
        for site in range(n_sites):
            centers[site] += gen.normal(scale=0.8, size=2)
            offsets = gen.normal(scale=2.5, size=(3, 2))
            components = tuple(
                Gaussian.spherical(
                    centers[site] + offset, float(gen.uniform(0.3, 1.5))
                )
                for offset in offsets
            )
            mixture = GaussianMixture(gen.dirichlet(np.full(3, 2.0)), components)
            time = 1000 * round_ + site
            messages.append(
                ModelUpdateMessage(
                    site_id=site,
                    model_id=round_,
                    time=time,
                    mixture=mixture,
                    count=int(gen.integers(200, 1000)),
                    reference_likelihood=-1.0,
                )
            )
            if gen.random() < 0.4:
                messages.append(
                    WeightUpdateMessage(
                        site_id=site,
                        model_id=round_,
                        time=time,
                        count_delta=int(gen.integers(-150, 400)),
                    )
                )
            if round_ >= 2 and gen.random() < 0.5:
                messages.append(
                    DeletionMessage(
                        site_id=site,
                        model_id=round_ - 2,
                        time=time,
                        count_delta=int(gen.integers(100, 900)),
                    )
                )
    return messages


def all_pairs_scan(coordinator: Coordinator) -> tuple[int, int, float]:
    """Best pair by scoring every father pair afresh (no cache)."""
    ids = list(coordinator._clusters)
    best, best_score = None, -np.inf
    for a_pos, a_id in enumerate(ids):
        for b_id in ids[a_pos + 1 :]:
            score = m_merge(
                coordinator._clusters[a_id].father,
                coordinator._clusters[b_id].father,
            )
            if score > best_score:
                best, best_score = (a_id, b_id), score
    return (*best, best_score)


def fathers_hex(coordinator: Coordinator) -> list:
    return [
        (
            cluster.cluster_id,
            tuple(float(x).hex() for x in cluster.father.mean),
            tuple(float(x).hex() for x in cluster.father.covariance.ravel()),
        )
        for cluster in coordinator.clusters
    ]


@st.composite
def site_messages(draw):
    """Model updates, weight updates and deletions over 3 sites x 3 models."""
    messages = []
    for step in range(draw(st.integers(4, 14))):
        site = draw(st.integers(0, 2))
        model = draw(st.integers(0, 2))
        kind = draw(st.sampled_from(["model", "model", "weight", "delete"]))
        if kind == "model":
            center = np.array(
                [draw(st.floats(-8.0, 8.0)), draw(st.floats(-8.0, 8.0))]
            )
            spread = draw(st.floats(0.2, 2.0))
            messages.append(
                ModelUpdateMessage(
                    site_id=site,
                    model_id=model,
                    time=step,
                    mixture=GaussianMixture(
                        np.array([0.6, 0.4]),
                        (
                            Gaussian.spherical(center, spread),
                            Gaussian.spherical(center + spread * 3.0, 0.5),
                        ),
                    ),
                    count=draw(st.integers(50, 2000)),
                    reference_likelihood=-1.0,
                )
            )
        elif kind == "weight":
            messages.append(
                WeightUpdateMessage(
                    site_id=site,
                    model_id=model,
                    time=step,
                    count_delta=draw(st.integers(-800, 800)),
                )
            )
        else:
            messages.append(
                DeletionMessage(
                    site_id=site,
                    model_id=model,
                    time=step,
                    count_delta=draw(st.integers(1, 1500)),
                )
            )
    return messages


class TestMergeScoreCache:
    @pytest.mark.parametrize("method", ["moment", "simplex"])
    @given(messages=site_messages())
    @settings(max_examples=25, deadline=None)
    def test_cached_scan_equals_a_fresh_all_pairs_scan(self, method, messages):
        coordinator = Coordinator(
            CoordinatorConfig(
                max_components=2,
                merge_method=method,
                merge_samples=64,
                tolerate_loss=True,
            ),
            rng=np.random.default_rng(3),
        )
        cached_scan = coordinator._best_merge_pair
        scans = []

        def checked_scan():
            expected = all_pairs_scan(coordinator)
            found = cached_scan()
            assert found[:2] == expected[:2]
            assert float(found[2]).hex() == float(expected[2]).hex()
            scans.append(found)
            return found

        coordinator._best_merge_pair = checked_scan
        for message in messages:
            coordinator.handle_message(message)
        assert len(scans) == coordinator.stats.merges

    def test_unchanged_fathers_are_not_rescored(self, monkeypatch):
        coordinator = Coordinator(
            CoordinatorConfig(max_components=4, merge_method="moment"),
            rng=np.random.default_rng(0),
        )
        for message in drifting_messages(1, rounds=2):
            coordinator.handle_message(message)
        assert coordinator.stats.merges > 0
        coordinator._best_merge_pair()
        calls = []
        monkeypatch.setattr(
            coordinator_module,
            "m_merge",
            lambda a, b: calls.append((a, b)) or m_merge(a, b),
        )
        best = coordinator._best_merge_pair()
        assert calls == []
        assert best == all_pairs_scan(coordinator)
        # A new father invalidates exactly the pairs that include it.
        cluster = coordinator.clusters[0]
        cluster.father = None
        cluster.refresh_father()
        coordinator._best_merge_pair()
        assert len(calls) == coordinator.n_components - 1
        assert all(cluster.father in pair for pair in calls)

    def test_bitwise_equal_refresh_keeps_the_father_object(self):
        coordinator = Coordinator(
            CoordinatorConfig(max_components=None),
            rng=np.random.default_rng(0),
        )
        coordinator.handle_message(model_update(0, 0, site_mixture(np.zeros(2))))
        cluster = coordinator.clusters[0]
        father = cluster.father
        cluster.refresh_father()
        assert cluster.father is father
        cluster.leaves.append(
            Leaf(
                site_id=1,
                model_id=0,
                component_index=0,
                gaussian=Gaussian.spherical(np.array([1.0, 0.0]), 0.5),
                weight=10.0,
            )
        )
        cluster.refresh_father()
        assert cluster.father is not father

    @pytest.mark.parametrize("method", ["moment", "simplex"])
    def test_checkpoint_mid_stream_continues_identically(self, method):
        config = CoordinatorConfig(
            max_components=4, merge_method=method, merge_samples=64
        )
        messages = drifting_messages(7, rounds=4)
        uninterrupted = Coordinator(config, rng=np.random.default_rng(5))
        for message in messages:
            uninterrupted.handle_message(message)

        first = Coordinator(config, rng=np.random.default_rng(5))
        half = len(messages) // 2
        for message in messages[:half]:
            first.handle_message(message)
        payload = json.loads(json.dumps(snapshot_coordinator(first)))
        resumed = restore_coordinator(payload)
        for message in messages[half:]:
            resumed.handle_message(message)

        assert uninterrupted.stats.merges > 0
        assert resumed.stats.merges == uninterrupted.stats.merges
        assert resumed.stats.splits == uninterrupted.stats.splits
        assert fathers_hex(resumed) == fathers_hex(uninterrupted)


#: ``drifting_messages(11)`` through a moment-merge coordinator at cap 4
#: with ``rng=default_rng(5)``, recorded before the cap loop cached its
#: scores: merge and split counts and every father as ``float.hex``.
GOLDEN_MOMENT_RUN = {
    "merges": 421,
    "splits": 512,
    "fathers": [
        (
            727,
            ("0x1.17140bf809e74p+3", "0x1.4211c0aced307p+3"),
            ("0x1.7a961387340d0p+0", "-0x1.7c06f9c76d7b0p-2",
             "-0x1.7c06f9c76d7b0p-2", "0x1.178b9852f3fdap+2"),
        ),
        (
            755,
            ("0x1.6b7a24a95657cp+3", "-0x1.e44ccc5a5424fp+2"),
            ("0x1.e521d7046088cp-1", "-0x1.b411762c1ae11p-6",
             "-0x1.b411762c1ae11p-6", "0x1.1f346f38bfeb3p-1"),
        ),
        (
            823,
            ("0x1.581176889927ap+2", "0x1.027be1544885bp+3"),
            ("0x1.493a2f75fe87fp-2", "0x0.0p+0",
             "0x0.0p+0", "0x1.493a2f75fe87fp-2"),
        ),
        (
            845,
            ("0x1.9a67b408d7a6ap+1", "-0x1.04e1e6d414732p+0"),
            ("0x1.c4ecc3c0cbf9ep+3", "-0x1.df7e25bb3ee71p-1",
             "-0x1.df7e25bb3ee71p-1", "0x1.6ce8369b2300bp+4"),
        ),
    ],
}


class TestGoldenMomentRun:
    def test_run_matches_recorded_values(self):
        coordinator = Coordinator(
            CoordinatorConfig(max_components=4, merge_method="moment"),
            rng=np.random.default_rng(5),
        )
        for message in drifting_messages(11):
            coordinator.handle_message(message)
        assert coordinator.stats.merges == GOLDEN_MOMENT_RUN["merges"]
        assert coordinator.stats.splits == GOLDEN_MOMENT_RUN["splits"]
        assert fathers_hex(coordinator) == GOLDEN_MOMENT_RUN["fathers"]
