"""The §7 tree: topology, upload gating and per-hop accounting.

Every edge is a transport link with ARQ.  Most tests run twice -- over
synchronous loopback and over a seeded lossy link -- and the §7
properties (summaries reach the root, stability suppresses uploads,
per-hop byte accounting) must hold identically: the reliability layer's
whole job is to make faults invisible above it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.tree import TransportTree, mixture_change
from repro.core.coordinator import CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.remote import RemoteSiteConfig
from repro.transport.lossy import FaultConfig

LOSSY = FaultConfig(drop_rate=0.2, duplicate_rate=0.1, delay=0.05)


def fast_tree(faults: FaultConfig | None = None) -> TransportTree:
    return TransportTree(
        site_config=RemoteSiteConfig(
            dim=2,
            epsilon=0.3,
            delta=0.05,
            em=EMConfig(n_components=2, n_init=1, max_iter=25, tol=1e-3),
            chunk_override=250,
        ),
        coordinator_config=CoordinatorConfig(
            max_components=4, merge_method="moment"
        ),
        seed=0,
        faults=faults,
    )


def mixture_at(center: float) -> GaussianMixture:
    return GaussianMixture(
        np.array([0.5, 0.5]),
        (
            Gaussian.spherical(np.array([center, 0.0]), 0.3),
            Gaussian.spherical(np.array([center, 5.0]), 0.3),
        ),
    )


def build_two_level(faults: FaultConfig | None = None) -> TransportTree:
    """root(0) <- internal(1), internal(2); two leaves under each."""
    tree = fast_tree(faults)
    tree.add_internal(0)
    tree.add_internal(1, parent_id=0)
    tree.add_internal(2, parent_id=0)
    tree.add_leaf(10, parent_id=1)
    tree.add_leaf(11, parent_id=1)
    tree.add_leaf(20, parent_id=2)
    tree.add_leaf(21, parent_id=2)
    return tree


def feed_leaf(
    tree: TransportTree, leaf_id: int, center: float, n: int, seed: int
) -> None:
    points, _ = mixture_at(center).sample(n, np.random.default_rng(seed))
    for row in points:
        tree.feed(leaf_id, row)
    tree.drain()


@pytest.fixture(params=["loopback", "lossy"])
def faults(request) -> FaultConfig | None:
    return LOSSY if request.param == "lossy" else None


class TestMixtureChange:
    def test_none_baseline_always_changes(self, mixture_2d):
        assert mixture_change(None, mixture_2d) == float("inf")

    def test_identical_mixtures_score_zero(self, mixture_2d):
        assert mixture_change(mixture_2d, mixture_2d) == pytest.approx(0.0)

    def test_component_count_change_is_structural(self, mixture_2d):
        single = GaussianMixture.single(mixture_2d.components[0])
        assert mixture_change(mixture_2d, single) == float("inf")

    def test_moved_component_scores_positive(self, mixture_2d):
        moved = GaussianMixture(
            mixture_2d.weights,
            (Gaussian.spherical(np.array([1.0, 1.0]), 0.5),)
            + mixture_2d.components[1:],
        )
        assert mixture_change(mixture_2d, moved) > 0.1


class TestTopology:
    def test_single_root_enforced(self):
        tree = fast_tree()
        tree.add_internal(0)
        with pytest.raises(ValueError, match="root"):
            tree.add_internal(1)

    def test_duplicate_ids_rejected(self):
        tree = fast_tree()
        tree.add_internal(0)
        with pytest.raises(ValueError, match="already used"):
            tree.add_leaf(0, parent_id=0)

    def test_leaf_requires_internal_parent(self):
        tree = fast_tree()
        tree.add_internal(0)
        tree.add_leaf(1, parent_id=0)
        with pytest.raises(ValueError, match="not an internal node"):
            tree.add_leaf(2, parent_id=1)

    def test_root_property(self):
        tree = fast_tree()
        with pytest.raises(ValueError, match="no root"):
            _ = tree.root
        root = tree.add_internal(0)
        assert tree.root is root

    def test_unknown_leaf_rejected(self):
        tree = build_two_level()
        with pytest.raises(KeyError, match="unknown leaf"):
            tree.feed(99, np.zeros(2))


class TestStreamProcessing:
    def test_summaries_propagate_to_the_root(self, faults):
        tree = build_two_level(faults)
        feed_leaf(tree, 10, 0.0, 250, 1)
        feed_leaf(tree, 20, 40.0, 250, 2)
        mixture = tree.global_mixture()
        means = np.stack([c.mean for c in mixture.components])
        assert means[:, 0].min() < 10.0
        assert means[:, 0].max() > 30.0
        tree.close()

    def test_internal_nodes_upload_only_on_change(self, faults):
        tree = build_two_level(faults)
        feed_leaf(tree, 10, 0.0, 250, 1)
        internal = tree.internal(1)
        uploads_after_first = internal.messages_up
        assert uploads_after_first >= 1
        # A stable continuation generates no new leaf messages, hence
        # no new uploads -- the §7 stability property, and it must
        # survive a faulty link (retransmissions are not uploads).
        feed_leaf(tree, 10, 0.0, 500, 3)
        assert internal.messages_up == uploads_after_first
        tree.close()

    def test_lossy_and_loopback_reach_the_same_mixture(self):
        mixtures = []
        for faults in (None, LOSSY):
            tree = build_two_level(faults)
            feed_leaf(tree, 10, 0.0, 250, 1)
            feed_leaf(tree, 20, 40.0, 250, 2)
            mixtures.append(tree.global_mixture())
            tree.close()
        loopback, lossy = mixtures
        assert loopback.n_components == lossy.n_components
        np.testing.assert_allclose(
            np.sort(loopback.weights), np.sort(lossy.weights), atol=1e-9
        )


class TestAccounting:
    def test_per_level_byte_accounting(self, faults):
        tree = build_two_level(faults)
        feed_leaf(tree, 10, 0.0, 250, 1)
        levels = tree.level_stats()
        assert [s.level for s in levels] == [1, 2]
        gateway, leaves = levels
        assert leaves.edges == 4
        assert gateway.edges == 2
        assert leaves.messages >= 1
        assert leaves.wire_bytes >= leaves.payload_bytes > 0
        assert leaves.bytes_per_record > 0
        # Dict form feeds the telemetry publisher.
        assert leaves.as_dict()["level"] == 2
        tree.close()

    def test_total_uplink_bytes_covers_all_edges(self, faults):
        tree = build_two_level(faults)
        feed_leaf(tree, 10, 0.0, 250, 1)
        leaf_bytes = sum(site.stats.bytes_sent for site in tree.sites)
        # Exactly the bytes that crossed an edge: the root has no
        # parent, so nothing it absorbs may count as an upload.
        wire_payload = sum(level.payload_bytes for level in tree.level_stats())
        assert tree.total_uplink_bytes() == wire_payload
        assert wire_payload >= leaf_bytes > 0
        assert tree.root.messages_up == tree.root.bytes_up == 0
        tree.close()

    def test_faults_cost_retransmissions_not_payloads(self):
        """Same payload accounting either way; only wire traffic grows."""
        heavy = FaultConfig(drop_rate=0.5, duplicate_rate=0.1, delay=0.05)
        stats = {}
        for name, faults in (("loopback", None), ("lossy", heavy)):
            tree = build_two_level(faults)
            feed_leaf(tree, 10, 0.0, 500, 1)
            feed_leaf(tree, 20, 40.0, 500, 2)
            stats[name] = tree.level_stats()
            tree.close()
        for clean, faulty in zip(stats["loopback"], stats["lossy"]):
            assert clean.messages == faulty.messages
            assert clean.payload_bytes == faulty.payload_bytes
            assert clean.retransmissions == 0
        assert sum(s.retransmissions for s in stats["lossy"]) > 0

    def test_receiver_stats_expose_delivery_counts(self, faults):
        tree = build_two_level(faults)
        feed_leaf(tree, 10, 0.0, 250, 1)
        delivered = tree.receiver_stats(1).delivered
        assert delivered >= 1
        assert tree.receiver_stats(2).delivered == 0
        tree.close()


class TestUploadThreshold:
    def test_high_threshold_suppresses_uploads(self, faults):
        tree = fast_tree(faults)
        tree.add_internal(0)
        gateway = tree.add_internal(1, parent_id=0, upload_threshold=1e12)
        tree.add_leaf(10, parent_id=1)
        tree.add_leaf(11, parent_id=1)
        feed_leaf(tree, 10, 0.0, 250, 1)
        first_uploads = gateway.messages_up
        feed_leaf(tree, 11, 60.0, 250, 2)
        # The structural change (component count) always uploads; after
        # that, the huge threshold suppresses parameter-level changes.
        assert gateway.messages_up <= first_uploads + 1
        tree.close()

    def test_zero_threshold_uploads_every_change(self, faults):
        tree = fast_tree(faults)
        tree.add_internal(0)
        gateway = tree.add_internal(1, parent_id=0, upload_threshold=0.0)
        tree.add_leaf(10, parent_id=1)
        feed_leaf(tree, 10, 0.0, 250, 3)
        assert gateway.messages_up >= 1
        tree.close()


class TestWireCodecs:
    def codec_tree(self, wire_codec="cds1", codec_config=None, faults=None):
        from repro.core.serde import CodecConfig  # noqa: F401 (builder arg)

        tree = TransportTree(
            site_config=RemoteSiteConfig(
                dim=2,
                epsilon=0.3,
                delta=0.05,
                em=EMConfig(n_components=2, n_init=1, max_iter=25, tol=1e-3),
                chunk_override=250,
            ),
            coordinator_config=CoordinatorConfig(
                max_components=4, merge_method="moment"
            ),
            seed=0,
            faults=faults,
            wire_codec=wire_codec,
            codec_config=codec_config,
        )
        tree.add_internal(0)
        tree.add_internal(1, parent_id=0)
        tree.add_leaf(10, parent_id=1)
        tree.add_leaf(11, parent_id=1)
        return tree

    def run(self, tree):
        feed_leaf(tree, 10, 0.0, 250, 1)
        feed_leaf(tree, 11, 40.0, 250, 2)
        mixture = tree.global_mixture()
        stats = tree.level_stats()
        tree.close()
        return mixture, stats

    def test_cds2_f64_tree_matches_cds1_exactly(self):
        from repro.core.serde import CodecConfig

        reference, _ = self.run(self.codec_tree())
        observed, _ = self.run(
            self.codec_tree(
                wire_codec="cds2", codec_config=CodecConfig(delta=True)
            )
        )
        assert np.array_equal(reference.weights, observed.weights)
        for ref, obs in zip(reference.components, observed.components):
            assert np.array_equal(ref.mean, obs.mean)
            assert np.array_equal(ref.covariance, obs.covariance)

    def test_level_stats_name_the_codecs(self):
        from repro.core.serde import CodecConfig

        _, stats = self.run(
            self.codec_tree(
                wire_codec="cds2", codec_config=CodecConfig(quantize="f32")
            )
        )
        for level in stats:
            assert level.codecs == ("cds2",)
            entry = level.as_dict()
            assert entry["codecs"] == ["cds2"]
            assert "delta_hit_rate" in entry
            assert "bytes_saved" in entry

    def test_quantized_tree_ships_fewer_bytes(self):
        from repro.core.serde import CodecConfig

        _, plain = self.run(self.codec_tree())
        _, packed = self.run(
            self.codec_tree(
                wire_codec="cds2",
                codec_config=CodecConfig(quantize="f32", delta=True),
            )
        )
        assert sum(s.payload_bytes for s in packed) < sum(
            s.payload_bytes for s in plain
        )
        assert sum(s.bytes_saved for s in packed) > 0

    def test_mixed_codec_edges_interoperate(self):
        from repro.core.serde import CodecConfig

        tree = self.codec_tree()  # tree-wide default: cds1
        tree.add_leaf(
            12,
            parent_id=1,
            wire_codec="cds2",
            codec_config=CodecConfig(quantize="f32"),
        )
        feed_leaf(tree, 10, 0.0, 250, 1)
        feed_leaf(tree, 12, 40.0, 250, 2)
        mixture = tree.global_mixture()
        assert mixture.n_components >= 2
        leaf_level = tree.level_stats()[-1]
        assert leaf_level.codecs == ("cds1", "cds2")
        tree.close()

    def test_quantized_lossy_tree_still_converges(self):
        from repro.core.serde import CodecConfig

        config = CodecConfig(quantize="f32", delta=True)
        clean, _ = self.run(
            self.codec_tree(wire_codec="cds2", codec_config=config)
        )
        faulty, _ = self.run(
            self.codec_tree(
                wire_codec="cds2", codec_config=config, faults=LOSSY
            )
        )
        assert clean.n_components == faulty.n_components
        np.testing.assert_allclose(
            np.sort(clean.weights), np.sort(faulty.weights), atol=1e-9
        )
