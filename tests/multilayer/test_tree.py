"""The §7 multi-layer tree over in-process loopback edges.

These cases exercise the tree exactly as a caller with no fault model
sees it: a ``TransportTree`` with ``faults=None``, whose edges deliver
synchronously.  ``tests/cluster/test_transport_tree.py`` runs the same
properties over both loopback and seeded lossy links.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.tree import TransportTree
from repro.core.coordinator import CoordinatorConfig
from repro.core.em import EMConfig
from repro.core.gaussian import Gaussian
from repro.core.mixture import GaussianMixture
from repro.core.remote import RemoteSiteConfig


def fast_tree() -> TransportTree:
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
    )


def mixture_at(center: float) -> GaussianMixture:
    return GaussianMixture(
        np.array([0.5, 0.5]),
        (
            Gaussian.spherical(np.array([center, 0.0]), 0.3),
            Gaussian.spherical(np.array([center, 5.0]), 0.3),
        ),
    )


def feed_points(tree: TransportTree, leaf_id: int, points: np.ndarray) -> None:
    for row in points:
        tree.feed(leaf_id, row)
    tree.drain()


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


class TestStreamProcessing:
    def build_two_level(self) -> TransportTree:
        """root(0) <- internal(1), internal(2); two leaves under each."""
        tree = fast_tree()
        tree.add_internal(0)
        tree.add_internal(1, parent_id=0)
        tree.add_internal(2, parent_id=0)
        tree.add_leaf(10, parent_id=1)
        tree.add_leaf(11, parent_id=1)
        tree.add_leaf(20, parent_id=2)
        tree.add_leaf(21, parent_id=2)
        return tree

    def feed_leaf(self, tree: TransportTree, leaf_id: int, center: float,
                  n: int, seed: int) -> None:
        points, _ = mixture_at(center).sample(n, np.random.default_rng(seed))
        feed_points(tree, leaf_id, points)

    def test_summaries_propagate_to_the_root(self):
        tree = self.build_two_level()
        self.feed_leaf(tree, 10, 0.0, 250, 1)
        self.feed_leaf(tree, 20, 40.0, 250, 2)
        mixture = tree.global_mixture()
        means = np.stack([c.mean for c in mixture.components])
        assert means[:, 0].min() < 10.0
        assert means[:, 0].max() > 30.0

    def test_internal_nodes_upload_only_on_change(self):
        tree = self.build_two_level()
        self.feed_leaf(tree, 10, 0.0, 250, 1)
        internal = tree.internal(1)
        uploads_after_first = internal.messages_up
        assert uploads_after_first >= 1
        # A stable continuation generates no new leaf messages, hence no
        # new uploads.
        self.feed_leaf(tree, 10, 0.0, 500, 3)
        assert internal.messages_up == uploads_after_first

    def test_uplink_bytes_accounted_per_level(self):
        tree = self.build_two_level()
        self.feed_leaf(tree, 10, 0.0, 250, 1)
        assert tree.total_uplink_bytes() > 0
        leaf_bytes = sum(site.stats.bytes_sent for site in tree.sites)
        assert tree.total_uplink_bytes() >= leaf_bytes

    def test_unknown_leaf_rejected(self):
        tree = self.build_two_level()
        with pytest.raises(KeyError, match="unknown leaf"):
            tree.feed(99, np.zeros(2))


class TestUploadThreshold:
    def test_high_threshold_suppresses_uploads(self):
        tree = fast_tree()
        tree.add_internal(0)
        # An effectively infinite threshold: the gateway absorbs child
        # updates but never bothers the root after its first upload.
        gateway = tree.add_internal(1, parent_id=0, upload_threshold=1e12)
        tree.add_leaf(10, parent_id=1)
        tree.add_leaf(11, parent_id=1)
        points_a, _ = mixture_at(0.0).sample(250, np.random.default_rng(1))
        feed_points(tree, 10, points_a)
        first_uploads = gateway.messages_up
        points_b, _ = mixture_at(60.0).sample(250, np.random.default_rng(2))
        feed_points(tree, 11, points_b)
        # The structural change (component count) always uploads; after
        # that, the huge threshold suppresses parameter-level changes.
        assert gateway.messages_up <= first_uploads + 1

    def test_zero_threshold_uploads_every_change(self):
        tree = fast_tree()
        tree.add_internal(0)
        gateway = tree.add_internal(1, parent_id=0, upload_threshold=0.0)
        tree.add_leaf(10, parent_id=1)
        points, _ = mixture_at(0.0).sample(250, np.random.default_rng(3))
        feed_points(tree, 10, points)
        assert gateway.messages_up >= 1
