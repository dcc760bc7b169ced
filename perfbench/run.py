"""CluDistream whole-pipeline benchmark.

    python3 perfbench/run.py --workload star_merge --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  A run repeats the workload until
``--seconds`` have passed (at least :data:`MIN_REPS` times, and at least
the workload's ``quality_reps`` times from ``spec.json``); every
repetition is a fresh process (:mod:`worker`) that builds the workload
from its own seed, ``1000 * --seed + index``, feeds it, and checks its
outputs.  Repetitions of one index get the same inputs on every
commit, so a faster commit only adds repetitions.  The time metrics pool
every repetition; ``bytes_per_record`` and ``holdout_nll``, which are
exact for a given seed, are taken over the first ``quality_reps``
repetitions only, so they cover the same seeds whatever the program's
speed.

With ``--trace 0`` the run reports the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` it runs each repetition twice,
untraced and traced (same seed, alternating order), and reports the
``per_layer`` metrics of the traced runs plus the tracing overhead.
The two runs of one seed must do the same work: their fingerprints are
compared exactly (the determinism self-check).

Every metric is printed by name with its unit; the last stdout line is
the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# Before anything can load numpy/BLAS: worker processes inherit this.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run makes at least this many repetitions, whatever ``--seconds`` says.
MIN_REPS = 3
#: ``setup_s`` is the median of at least this many fresh-process set-ups.
SETUP_SAMPLES = 5
#: No repetition starts once this much wall time has gone (a run must
#: end within 180 s).
DEADLINE_S = 140.0
WORKER_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker(*args: str) -> dict:
    """Run :mod:`worker` in a fresh process; its last stdout line."""
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        # Bytecode goes to an ignored cache inside the checkout, never
        # next to the sources; the warm-up run fills it.
        PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"),
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"worker {args} timed out") from error
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker {args} exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(lines[-1])


def rep_seeds(seed: int, seconds: int, started: float, min_reps: int = MIN_REPS):
    """Repetition seeds until ``seconds`` have passed.

    A repetition starts only while at least half of an average
    repetition still fits, so a run ends within about half a repetition
    of ``seconds`` either way; :data:`DEADLINE_S` bounds ``min_reps``.
    """
    index = 0
    while True:
        elapsed = time.perf_counter() - started
        average = elapsed / index if index else 0.0
        if index >= min_reps and elapsed + average / 2 >= seconds:
            return
        if index and elapsed > DEADLINE_S:
            return
        yield seed * 1000 + index
        index += 1


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def end_to_end(name: str, spec: dict, seed: int, seconds: int, started: float):
    """Untraced repetitions -> (end-to-end metric values, reps, notes)."""
    quality_reps = spec["quality_reps"]
    reps = [
        worker("--workload", name, "--seed", str(rep_seed))
        for rep_seed in rep_seeds(seed, seconds, started, max(MIN_REPS, quality_reps))
    ]
    setups = [rep["setup_s"] for rep in reps]
    extra = 0
    while len(setups) < SETUP_SAMPLES:
        setups.append(
            worker("--setup-only", "--workload", name, "--seed", str(seed))["setup_s"]
        )
        extra += 1
    ok = [rep for rep in reps if rep["error"] is None]
    latencies = [ms for rep in ok for ms in rep["latency_ms"]]
    records = sum(rep["records"] for rep in reps)
    # The same seeds on every commit, or nothing if the run was cut short.
    quality = reps[:quality_reps] if len(reps) >= quality_reps else []
    quality_records = sum(rep["records"] for rep in quality)
    tail_pct = spec["tail_percentile"]
    metrics = {
        "records_per_s": records / sum(rep["feed_s"] for rep in reps),
        "update_latency_p50_ms": (
            statistics.median(latencies) if latencies else math.nan
        ),
        "update_latency_tail_ms": (
            percentile(latencies, tail_pct) if latencies else math.nan
        ),
        "bytes_per_record": (
            sum(rep["payload_bytes"] for rep in quality) / quality_records
            if quality_records
            else math.nan
        ),
        # Sign-flipped holdout_avg_ll: a relative bound needs a positive value.
        "holdout_nll": (
            -statistics.fmean(rep["holdout_avg_ll"] for rep in quality)
            if quality and all(rep["error"] is None for rep in quality)
            else math.nan
        ),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "setup_s": statistics.median(setups),
    }
    notes = [
        f"{len(reps)} repetitions (seeds {reps[0]['seed']}..{reps[-1]['seed']}), "
        f"{records} records, {extra} extra set-up-only processes",
        f"bytes_per_record and holdout_nll over the first {quality_reps} "
        f"repetitions ({quality_records} records)",
        f"update latency: {len(latencies)} samples, tail = p{tail_pct}"
        + (
            ""
            if len(latencies) * (100 - tail_pct) / 100.0 >= 10
            else " (fewer than 10 samples beyond the tail percentile)"
        ),
    ]
    return metrics, reps, notes


def traced(name: str, seed: int, seconds: int, started: float):
    """Untraced/traced pairs -> (per-layer metric values, reps, notes)."""
    plain, traced_reps = [], []
    for index, rep_seed in enumerate(rep_seeds(seed, seconds, started)):
        args = ("--workload", name, "--seed", str(rep_seed))
        if index % 2 == 0:
            plain.append(worker(*args))
            traced_reps.append(worker(*args, "--trace"))
        else:
            traced_reps.append(worker(*args, "--trace"))
            plain.append(worker(*args))
    layers = [rep["layers"] for rep in traced_reps if "layers" in rep]
    metrics = {
        key: statistics.median(values[key] for values in layers) for key in layers[0]
    } if layers else {}
    metrics.pop("trace.wall_s", None)
    metrics["trace.overhead_ratio"] = (
        sum(rep["feed_s"] for rep in traced_reps) / sum(rep["feed_s"] for rep in plain)
        - 1.0
    )
    mismatched = [
        a["seed"]
        for a, b in zip(plain, traced_reps)
        if a.get("fingerprint") is None or a.get("fingerprint") != b.get("fingerprint")
    ]
    notes = [f"{len(plain)} untraced/traced pairs"]
    determinism = {
        "attempted": len(plain),
        "failed": len(mismatched),
        "problem": (
            f"work fingerprints differ between two runs of seeds {mismatched}"
            if mismatched
            else None
        ),
    }
    return metrics, plain + traced_reps, notes, determinism


def run_workload(name: str, args, bench: dict, specs: dict) -> dict:
    """Measure one workload, print its report, return its result."""
    started = time.perf_counter()
    spec = specs["workloads"][name]
    worker("--setup-only", "--workload", name, "--seed", str(args.seed))  # warm-up
    if args.trace:
        values, reps, notes, determinism = traced(
            name, args.seed, args.seconds, started
        )
        declared = bench["per_layer"]
    else:
        values, reps, notes = end_to_end(name, spec, args.seed, args.seconds, started)
        determinism = {"attempted": 0, "failed": 0, "problem": None}
        declared = bench["end_to_end"]
    attempted = sum(rep["attempted"] for rep in reps) + determinism["attempted"]
    failed = sum(rep["failed"] for rep in reps) + determinism["failed"]
    problems = [
        f"seed {rep['seed']}: {check}: {'; '.join(found)}"
        for rep in reps
        for check, found in rep["checks"].items()
    ]
    if determinism["problem"]:
        problems.append(determinism["problem"])
    metrics = {}
    for metric in declared:
        value = values.get(metric["name"], math.nan)
        if not math.isfinite(value):
            problems.append(f"{metric['name']} was not measured")
            value = 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(f"== {name} ({'traced' if args.trace else 'untraced'}) ==")
    for line in notes:
        print(f"  {line}")
    for metric_name, metric in metrics.items():
        print(f"  {metric_name}: {metric['value']:.6g} {metric['unit']}")
    print(f"  error_rate: {failed / attempted:.6g} ({failed}/{attempted})")
    for problem in problems:
        print(f"  CHECK FAILED {problem}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = json.loads((HERE / "spec.json").read_text())
    names = [workload["name"] for workload in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        print("machine: " + json.dumps(worker("--machine")))
        selected = names if args.workload == "all" else [args.workload]
        results = {name: run_workload(name, args, bench, specs) for name in selected}
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
