"""Tests of the benchmark harness itself (not of treespace).

    python3 -m pytest bench/test_bench.py

Smoke runs exercise every workload, stage, check and the traced pass at a
tiny size; the rest pin the span arithmetic and the wrapping of every
binding.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from spans import Sketch, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_runs_every_stage_and_check(workload):
    proc = bench("--workload", workload, "--seed", "3", "--smoke",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0, proc.stdout
    assert line["attempted"] > 10
    assert line["metrics"] == {}
    record = json.loads(
        (BENCH / "results" / f"BENCH_{workload}_seed3_trace1_smoke.json")
        .read_text())
    names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert names <= set(record["samples"])


def test_refuses_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    proc = bench("--workload", "tree-map", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_is_duration_minus_children():
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer():
        time.sleep(0.02)
        traced_leaf()
        traced_leaf()

    traced_outer = tracer.wrap("outer", outer)
    with tracer.stage("stage"):
        traced_outer()

    out = tracer.aggs[("outer", "stage")]
    inner = tracer.aggs[("leaf", "outer")]
    assert out.count == 1 and inner.count == 2
    assert out.total >= 0.04
    assert out.self_time == pytest.approx(out.total - inner.total)
    assert 0.02 <= out.self_time < 0.03
    (stage,) = tracer.stages
    assert stage["parent"] is None
    assert stage["self_s"] == pytest.approx(
        stage["end"] - stage["start"] - out.total)


def test_install_wraps_every_binding_and_restores():
    import treespace
    import treespace.cli

    # the package namespace shadows submodule names with functions
    # (treespace.geodesic is the function), so go through sys.modules
    mods = [sys.modules[f"treespace.{m}"]
            for m in ("cli", "geodesic", "stats", "subtrees")]
    holders = [treespace] + mods
    original = mods[1].geodesic_distance
    with Tracer() as tracer:
        assert all(m.geodesic_distance is not original for m in holders)
        a = treespace.airway_template()
        mods[2].geodesic_distance(a, a)
        mods[3].geodesic_distance(a, a)
    assert all(m.geodesic_distance is original for m in holders)
    assert tracer.by_name("geodesic.geodesic_distance").count == 2
    # the constructor is traced on the class, whoever calls it
    assert tracer.by_name("trees.AttributedTree.__post_init__").count >= 1


def test_sketch_quantiles_within_bucket_width():
    sketch = Sketch()
    for ms in range(1, 101):
        sketch.add(ms / 1e3)
    assert sketch.quantile(0.5) == pytest.approx(0.0505, rel=0.03)
    assert sketch.quantile(0.99) == pytest.approx(0.099, rel=0.03)
