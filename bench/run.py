"""Seeded benchmark of the treespace command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --seed N --smoke

Each run starts fresh worker processes (``bench/worker.py``): a few that
only set up, for the set-up time, and one that sets up, runs the
workload's CLI stages in-process for ``--seconds`` seconds and checks the
outputs.  With ``--trace 0`` the run reports the end-to-end metrics listed
in ``BENCHMARK.json``; with ``--trace 1`` it runs one untraced and one
traced pass and reports the per-layer metrics.  ``--smoke`` runs the same
code paths at a tiny size and reports no metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(machine, every sample, the span table) goes to
``bench/results/BENCH_<workload>_seed<N>_trace<T>.json``.  Exits nonzero,
printing no result, when the package sources or a worker are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# set-up is timed in this many fresh processes and reported as the median
SETUP_SAMPLES = 5
# a run must end within 180 s; the worker is stopped after this many
DEADLINE_S = 170.0


class HarnessError(Exception):
    pass


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "platform": platform.platform(),
            "cpu": platform.processor() or "unknown", "commit": "unknown"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                ref = loose.read_text().strip()
            else:
                packed = (ROOT / ".git" / "packed-refs").read_text()
                ref = next(ln.split()[0] for ln in packed.splitlines()
                           if ln.endswith(" " + name))
        info["commit"] = ref
    except (OSError, StopIteration):
        pass
    return info


def run_worker(args, work: Path, out: Path, deadline: float,
               setup_only: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work), "--out", str(out)]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    left = deadline - time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=max(left, 1))
    except subprocess.TimeoutExpired:
        raise HarnessError("worker did not finish before the deadline")
    if proc.returncode != 0 or not out.is_file():
        raise HarnessError(f"worker exited {proc.returncode}")
    return json.loads(out.read_text())


def collect(args) -> tuple[list[float], dict]:
    deadline = time.monotonic() + DEADLINE_S
    scratch = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    try:
        setups = []
        for i in range(1 if args.smoke else SETUP_SAMPLES - 1):
            res = run_worker(args, scratch / f"setup{i}",
                             scratch / f"setup{i}.json", deadline, True)
            setups.append(res["setup_s"])
        result = run_worker(args, scratch / "run", scratch / "result.json",
                            deadline, False)
        setups.append(result["setup_s"])
        return setups, result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def end_to_end(setups, result) -> tuple[dict, dict]:
    """Metric values and the samples behind them."""
    passes = result["passes"]
    samples = {"setup_s": setups,
               "pipeline_s": [p["pipeline"] for p in passes],
               "peak_rss_mib": [result["peak_rss_mib"]],
               "objective": [result["quality"]["objective"]]}
    for stage in passes[0]:
        if stage != "pipeline":
            samples[f"stage.{stage}_s"] = [p[stage] for p in passes]
    values = {name: statistics.median(v) for name, v in samples.items()}
    return values, samples


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, every code path and check, no metrics")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "treespace" / "__init__.py").is_file():
        print("bench: no package sources at src/treespace", file=sys.stderr)
        return 2
    started = time.time()
    try:
        setups, result = collect(args)
    except HarnessError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1

    values, samples = end_to_end(setups, result)
    if "layers" in result:
        samples.update({k: [v] for k, v in result["layers"].items()})
    if args.trace:
        values = result["layers"]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    all_units = {m["name"]: m["unit"]
                 for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {} if args.smoke else {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()}
    failed = len(result["failures"])
    line = {"correct": failed == 0, "attempted": result["attempted"],
            "failed": failed, "metrics": metrics}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "started": started, "machine": {**machine(), **result["versions"]},
        **{k: line[k] for k in ("correct", "attempted", "failed")},
        "failures": result["failures"], "metrics": metrics,
        "quality": result["quality"], "passes": len(result["passes"]),
        "samples": {k: {"unit": all_units[k], "values": v}
                    for k, v in samples.items()},
    }
    if "span_table" in result:
        record["span_table"] = result["span_table"]
        record["stage_spans"] = result["stage_spans"]
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.smoke:
        tag += "_smoke"
    (results / f"BENCH_{tag}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {len(result['passes'])} "
          f"pass(es), {result['attempted']} operations, {failed} failed")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
