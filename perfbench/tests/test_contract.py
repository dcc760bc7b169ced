"""BENCHMARK.json's shape, its agreement with spec.json, and the
benchmark's refusal to run without the program's source."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

from conftest import BENCH_DIR, ROOT

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCH["command"][:2] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert 1 <= BENCH["run_seconds"] <= 60
    runs = 4 + 22 * len(BENCH["workloads"])
    assert runs * (BENCH["run_seconds"] + 10) < 3420


def test_metric_and_workload_entries_are_well_formed():
    names = []
    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_spec_covers_every_workload():
    assert set(SPEC["workloads"]) == {w["name"] for w in BENCH["workloads"]}
    for spec in SPEC["workloads"].values():
        assert 50 <= spec["tail_percentile"] < 100
        assert spec["quality_reps"] >= 1
        assert spec["min_updates_per_run"] == spec["quality_reps"] * spec["updates_per_rep"]
        # At least 10 latency samples beyond the tail percentile.
        assert (100 - spec["tail_percentile"]) * spec["min_updates_per_run"] >= 1000
    predicted = {p["layer_metric"].split(".")[0] for p in SPEC["predictions"]}
    layers = {m["name"].split(".")[0] for m in BENCH["per_layer"]} - {"trace"}
    assert layers <= predicted


def test_run_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "star_merge",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
