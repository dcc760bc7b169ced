"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload star_merge --seed 7 [--trace]
    python3 perfbench/worker.py --setup-only --workload star_merge --seed 7
    python3 perfbench/worker.py --machine

Prints one JSON object as its last stdout line.  ``setup_s`` runs from
just before the program is imported to the opened channel, so it
includes ``import repro`` and excludes input generation.  The parent
(:mod:`run`) pins the BLAS thread count in the environment before this
process starts; it is pinned again here for direct use.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine() -> dict:
    """Interpreter, numpy/BLAS build, thread pinning and a yardstick.

    The yardstick (median of 7 timings of a fixed 256x256 matmul
    repeated 10 times) is for reading only; no metric is scaled by it.
    """
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256))
    b = rng.standard_normal((256, 256))
    timings = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(10):
            a @ b
        timings.append(time.perf_counter() - start)
    timings.sort()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "yardstick_matmul_ms": 1000.0 * timings[len(timings) // 2],
    }


def run_once(name: str, seed: int, trace: bool, scale: float = 1.0) -> dict:
    """Set up, generate, feed and check one workload run.

    ``scale`` multiplies the records per site; the benchmark's own tests
    use it for toy-size runs.
    """
    started = time.perf_counter()
    import layers
    import workloads

    tracer = None
    if trace:
        tracer = layers.Tracer(keep_results=("merging.fit", "serde.encode")).install()
    try:
        run = workloads.make_run(name, seed, scale)
        setup_s = time.perf_counter() - started
        run.generate()
        error = None
        feed_start, feed_cpu = time.perf_counter(), time.process_time()
        try:
            run.feed()
        except Exception:  # the run is reported as failed, not aborted
            error = traceback.format_exc()
        feed_s = time.perf_counter() - feed_start
        feed_cpu_s = time.process_time() - feed_cpu
    finally:
        if tracer is not None:
            tracer.restore()

    offered = run.n_records * len(run.records)
    messages = run.messages_sent()
    if error is None:
        checks = run.checks()
    else:
        checks = {"feed": [error.strip().splitlines()[-1]]}
    failed_checks = sorted(name for name, problems in checks.items() if problems)
    undelivered = run.undelivered()
    result = {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "feed_s": feed_s,
        "feed_cpu_s": feed_cpu_s,
        "records": run.feed_records,
        "latency_ms": [1000.0 * s for s in run.latency_s],
        "payload_bytes": run.payload_bytes(),
        "peak_rss_mb": _peak_rss_mb(),
        "checks": {name: problems for name, problems in checks.items() if problems},
        "attempted": offered + messages + len(checks),
        "failed": (offered - run.feed_records) + undelivered + len(failed_checks),
        "error": error,
    }
    if error is None:
        result["holdout_avg_ll"] = run.holdout_avg_ll()
        result["fingerprint"] = run.fingerprint()
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, run, feed_s)
    return result


def layer_metrics(tracer, run, feed_s: float) -> dict:
    """The ``per_layer`` metrics of one traced run, as ``name -> value``."""
    from repro.core import merging

    coordinators = run.coordinators
    sites = run.sites
    fits = [fit for _, _, fit in tracer.results("merging.fit")]
    simplex = [fit for fit in fits if fit.iterations > 0]
    max_iter = (
        inspect.signature(merging.fit_merged_component).parameters["max_iter"].default
    )
    hit_max = sum(
        1
        for _, kwargs, fit in tracer.results("merging.fit")
        if fit.iterations >= kwargs.get("max_iter", max_iter)
    )
    loss_ratios = [fit.loss / fit.moment_loss for fit in fits if fit.moment_loss > 0]
    tests = sum(site.stats.n_tests for site in sites)
    passed = sum(site.stats.n_tests_passed for site in sites)
    warm_calls = tracer.calls("em.warm")
    codecs = {id(codec): codec.stats for codec, _, _ in tracer.results("serde.encode")}
    model_updates = sum(stats.model_updates for stats in codecs.values())
    deltas = sum(stats.delta_updates for stats in codecs.values())
    wire = run.wire()
    records = max(1, run.feed_records)
    leaf_uploads, aggregator_uploads, child_updates = run.tree_uploads()
    # The outermost wrapped calls (the runtime loop on the star, the
    # tree's feed on the tree) enclose the whole feed phase: every bit of
    # unwrapped program time lands in their self time.  Leaving them out
    # of the attributed time makes the ratio show how much of the feed
    # phase the layers below the loop account for.
    attributed = (
        tracer.attributed_s()
        - tracer.self_s("runtime.loop")
        - tracer.self_s("tree.feed")
    )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "merging.fit_calls": tracer.calls("merging.fit"),
        "merging.fit_self_s": tracer.self_s("merging.fit"),
        "merging.simplex_iters_mean": ratio(
            sum(fit.iterations for fit in simplex), len(simplex)
        ),
        "merging.hit_max_iter_ratio": ratio(hit_max, len(fits)),
        "merging.loss_ratio_mean": ratio(sum(loss_ratios), len(loss_ratios)),
        "coordinator.update_calls": tracer.calls("coordinator.update"),
        "coordinator.update_self_s": tracer.self_s("coordinator.update"),
        "coordinator.splits": sum(c.stats.splits for c in coordinators),
        "coordinator.merges": sum(c.stats.merges for c in coordinators),
        "coordinator.leaves_end": sum(
            len(cluster.leaves) for c in coordinators for cluster in c.clusters
        ),
        "coordinator.state_bytes_end": sum(c.memory_bytes() for c in coordinators),
        "remote.records": tracer.calls("remote.ingest"),
        "remote.ingest_self_s": tracer.self_s("remote.ingest"),
        "remote.reactivations": sum(site.stats.n_reactivations for site in sites),
        "testing.fit_test_calls": tracer.calls("testing.fit_test"),
        "testing.fit_test_self_s": tracer.self_s("testing.fit_test"),
        "testing.pass_ratio": ratio(passed, tests),
        "em.cold_calls": tracer.calls("em.cold"),
        "em.cold_self_s": tracer.self_s("em.cold"),
        "em.warm_calls": warm_calls,
        "em.warm_self_s": tracer.self_s("em.warm"),
        "em.warm_accept_ratio": ratio(
            sum(site.stats.n_warm_refits for site in sites), warm_calls
        ),
        "em.absorb_calls": tracer.calls("em.absorb"),
        "em.absorb_self_s": tracer.self_s("em.absorb"),
        "serde.encode_calls": tracer.calls("serde.encode"),
        "serde.encode_self_s": tracer.self_s("serde.encode"),
        "serde.decode_self_s": tracer.self_s("serde.decode"),
        "serde.delta_hit_rate": ratio(deltas, model_updates),
        "transport.drain_calls": tracer.calls("transport.drain"),
        "transport.drain_self_s": tracer.self_s("transport.drain"),
        "transport.retx_ratio": ratio(wire["retransmissions"], wire["payloads"]),
        "transport.ack_bytes_per_record": wire["ack_bytes"] / records,
        "tree.feed_self_s": tracer.self_s("tree.feed"),
        "tree.uploads_l1": aggregator_uploads,
        "tree.uploads_l2": leaf_uploads,
        "tree.upload_ratio": ratio(aggregator_uploads, child_updates),
        "simulation.engine_self_s": tracer.self_s("simulation.engine"),
        "obs.sink_self_s": tracer.self_s("obs.fanout") + tracer.self_s("obs.sink"),
        "obs.events": tracer.calls("obs.fanout"),
        "runtime.loop_self_s": tracer.self_s("runtime.loop"),
        "trace.attributed_ratio": ratio(attributed, feed_s),
        "trace.wall_s": feed_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--machine", action="store_true")
    args = parser.parse_args(argv)
    if args.machine:
        print(json.dumps(machine()))
        return 0
    if args.setup_only:
        started = time.perf_counter()
        import workloads

        workloads.make_run(args.workload, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - started}))
        return 0
    print(json.dumps(run_once(args.workload, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
