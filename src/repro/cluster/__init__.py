"""The §7 communication tree: semantics, in-process tree, deployment.

:mod:`repro.cluster.tree`
    The tree itself: :class:`InternalNode` (coordinator over children,
    upload gate toward the parent, :func:`mixture_change`), the one
    aggregation step both runners share, and :class:`TransportTree` --
    the one in-process tree, every edge the star's own ARQ endpoint
    over loopback or seeded-lossy links.  Backs the tree tests, the
    crash/resume suite and the soak.
:mod:`repro.cluster.spec`
    The tree as declarative data (:class:`ClusterSpec`): topology,
    ports, streams, shared parameters; JSON round-trip for launches
    reproducible from a file.
:mod:`repro.cluster.launcher`
    :class:`ClusterLauncher` -- one OS process per node over TCP
    sockets, spawn-safe, with port rendezvous, ordered shutdown and
    checkpoint manifests.
:mod:`repro.cluster.soak`
    :func:`run_soak` -- 1000 sites through a 2-level tree against a
    flat single-coordinator reference, gap asserted in nats.
"""

from repro.cluster.data import make_stream, site_records
from repro.cluster.launcher import (
    ClusterLaunchError,
    ClusterLauncher,
    ClusterResult,
    NodeHandle,
)
from repro.cluster.soak import SoakReport, run_soak, soak_spec
from repro.cluster.spec import (
    ClusterSpec,
    NodeSpec,
    build_spec,
    load_spec,
    save_spec,
    with_ports,
)
from repro.cluster.tree import (
    InternalNode,
    LevelStats,
    TransportTree,
    mixture_change,
)

__all__ = [
    "ClusterLaunchError",
    "ClusterLauncher",
    "ClusterResult",
    "ClusterSpec",
    "InternalNode",
    "LevelStats",
    "NodeHandle",
    "NodeSpec",
    "SoakReport",
    "TransportTree",
    "build_spec",
    "load_spec",
    "make_stream",
    "mixture_change",
    "run_soak",
    "save_spec",
    "site_records",
    "soak_spec",
    "with_ports",
]
