"""Per-layer self time, measured from outside the program.

The traced run replaces the public functions each layer is entered
through with timing wrappers (:data:`LAYER_CALLS`) and restores the
originals afterwards.  A wrapper records its call count and its *self
time*: the wall time inside the call minus the time spent inside
wrapped calls nested in it.  Nesting is tracked with one stack of
child-time accumulators, so the self times of all wrapped calls add up
to the wall time covered by the outermost ones.

Functions are wrapped where their callers look them up: a module-level
function imported ``from x import f`` into a caller module is patched
on the *caller* module (for example ``repro.core.remote.fit_em``),
methods on the class that defines them.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["LAYER_CALLS", "CallStats", "Tracer"]

#: ``(call name, module, attribute path)`` of every wrapped entry point.
#: The call name's prefix is the layer; :mod:`workloads` turns the
#: per-call statistics into the ``per_layer`` metrics.
LAYER_CALLS: tuple[tuple[str, str, str], ...] = (
    ("merging.fit", "repro.core.coordinator", "fit_merged_component"),
    ("coordinator.update", "repro.core.coordinator", "Coordinator.handle_message"),
    ("remote.ingest", "repro.core.remote", "RemoteSite.process_record"),
    ("testing.fit_test", "repro.core.remote", "fit_test"),
    ("em.cold", "repro.core.remote", "fit_em"),
    ("em.warm", "repro.core.remote", "incremental_em"),
    ("em.absorb", "repro.core.remote", "absorb_chunk"),
    ("serde.encode", "repro.core.serde", "CDS1Codec.encode"),
    ("serde.decode", "repro.core.serde", "CDS1Codec.decode"),
    ("serde.encode", "repro.core.serde", "CDS2Codec.encode"),
    ("serde.decode", "repro.core.serde", "CDS2Codec.decode"),
    ("transport.drain", "repro.transport.endpoint", "drain"),
    ("transport.drain", "repro.cluster.tree", "TransportTree.drain"),
    ("tree.feed", "repro.cluster.tree", "TransportTree.feed"),
    ("simulation.engine", "repro.simulation.engine", "SimulationEngine.advance"),
    ("simulation.engine", "repro.simulation.engine", "SimulationEngine.run"),
    ("obs.fanout", "repro.obs.trace", "MultiSink.write"),
    ("obs.sink", "repro.obs.health", "HealthMonitor.write"),
    ("obs.sink", "repro.obs.spans", "SpanCollector.write"),
    ("runtime.loop", "repro.runtime.runtime", "Runtime.run"),
)


@dataclass
class CallStats:
    """Counters of one call name: calls, total and self seconds."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Return values kept for calls registered with ``keep_results``.
    results: list = field(default_factory=list)


class Tracer:
    """Installs timing wrappers and accumulates :class:`CallStats`.

    Parameters
    ----------
    clock:
        Monotonic time source in seconds (a fake one in tests).
    keep_results:
        Call names whose return values (with their first argument, the
        bound instance for methods) are kept for later inspection.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        keep_results: tuple[str, ...] = (),
    ) -> None:
        self._clock = clock
        self._keep = frozenset(keep_results)
        self._stack: list[float] = []
        self._patches: list[tuple[Any, str, Any, bool]] = []
        self.stats: dict[str, CallStats] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed under ``name``; nested wrapped calls are excluded
        from its self time."""
        stats = self.stats.setdefault(name, CallStats())
        stack = self._stack
        clock = self._clock
        keep = name in self._keep

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children
            if keep:
                stats.results.append((args[0] if args else None, kwargs, result))
            return result

        return timed

    def install(self) -> "Tracer":
        """Wrap every entry point in :data:`LAYER_CALLS`."""
        for name, module_name, path in LAYER_CALLS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self._patches.append((owner, attr, original, own))
            setattr(owner, attr, self.wrap(name, original))
        return self

    def restore(self) -> None:
        """Put every original back, last patch first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def self_s(self, name: str) -> float:
        return self.stats[name].self_s if name in self.stats else 0.0

    def results(self, name: str) -> list:
        return self.stats[name].results if name in self.stats else []

    def attributed_s(self) -> float:
        """Sum of every call name's self time."""
        return sum(stats.self_s for stats in self.stats.values())
