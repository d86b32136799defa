"""One workload in one fresh process: set-up, passes, checks, traced pass.

    python3 bench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --work DIR --out FILE [--smoke] [--setup-only]

``bench/run.py`` starts this script; it is not meant to be run by hand.
The result (set-up time, per-pass stage times, peak RSS, checks, and with
``--trace 1`` the per-layer metrics) goes to ``--out`` as JSON.

Set-up time runs from the first line of this file to the inputs being
written, so it covers interpreter-level imports of the package (numpy and
scipy included) and input generation, as a user pays on each CLI call.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from checks import Ops, check_cohort, check_outputs, check_tree_map  # noqa: E402

# every stage name of every workload, for the stage.<name>_s metrics
STAGES = dict.fromkeys(name for wl in workloads.WORKLOADS.values()
                       for name, _ in wl.stages(Path("."), 0))


def setup(wl, work: Path, seed: int) -> None:
    work.mkdir(parents=True, exist_ok=True)
    import treespace.cli  # noqa: F401
    wl.setup(work, seed)


def run_pass(wl, work: Path, seed: int, ops: Ops, tracer=None) -> dict:
    """One pass over the workload's stages; returns stage -> seconds."""
    times = {}
    for name, argv in wl.stages(work, seed):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = workloads.run_cli(argv)
            else:
                with tracer.stage(name):
                    rc = workloads.run_cli(argv)
        except Exception as e:  # a crash inside the program is a failure
            rc = f"{type(e).__name__}: {e}"
        times[name] = time.perf_counter() - t0
        ops.check(f"stage {name} exits 0", rc == 0, f"exit {rc}")
    times["pipeline"] = sum(times.values())
    return times


def run_checks(wl, work: Path, seed: int, ops: Ops, smoke: bool) -> dict:
    for manifest in sorted(work.rglob("*manifest.json")):
        check_outputs(ops, manifest)
    try:
        if isinstance(wl, workloads.TreeMap):
            return check_tree_map(ops, work, seed,
                                  brute_pairs=20 if smoke else 300,
                                  small_pairs=4 if smoke else 12)
        return check_cohort(ops, work)
    except Exception as e:  # outputs missing or unreadable
        ops.check("workload checks ran", False, f"{type(e).__name__}: {e}")
        return {}


def traced_pass(wl, work: Path, seed: int, ops: Ops):
    """Set-up and one pass under the tracer.

    Returns the tracer, the pass's stage times, and counts read off the
    solvers' results: mean steps, means that stopped at their step cap
    (``MeanConfig``'s default cap is 1000 * n), embedding iterations.
    """
    from spans import Tracer

    counts = {"steps": 0, "capped": 0, "iterations": 0}

    def on_mean(args, kwargs, result):
        trees = args[0] if args else kwargs["trees"]
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        cap = cfg.max_iterations if cfg is not None \
            and cfg.max_iterations is not None else 1000 * len(trees)
        counts["steps"] += result.iterations
        counts["capped"] += result.iterations == cap

    def on_mds(args, kwargs, result):
        counts["iterations"] += len(result.stress_trace) - 1

    tracer = Tracer(hooks={"stats.frechet_mean_detailed": on_mean,
                           "embedding.mds_pd": on_mds})
    work.mkdir(parents=True, exist_ok=True)
    with tracer:
        with tracer.stage("setup"):
            wl.setup(work, seed)
        times = run_pass(wl, work, seed, ops, tracer)
    return tracer, times, counts


def layer_metrics(tracer, counts: dict, traced: dict,
                  untraced: dict) -> dict:
    pair_fns = {"geodesic.geodesic", "geodesic.geodesic_distance",
                "geodesic.geodesic_point"}
    calls = sum(a.count for (n, parent), a in tracer.aggs.items()
                if n in pair_fns and parent not in pair_fns)
    pair_self = sum(tracer.by_name(n).self_time for n in pair_fns)
    point = tracer.by_name("geodesic.GeodesicPath.point")
    construct = tracer.by_name("trees.AttributedTree.__post_init__")
    io_fns = ("tree_to_dict", "tree_from_dict", "serialize_tree",
              "parse_tree", "serialize_population", "parse_population")
    means = tracer.by_name("stats.frechet_mean_detailed")
    mds = tracer.by_name("embedding.mds_pd")
    iters = counts["iterations"]
    m = {
        "geodesic.calls": calls,
        "geodesic.self_s": tracer.self_time("geodesic.") - point.self_time,
        "geodesic.pair_us": 1e6 * pair_self / calls if calls else 0.0,
        "geodesic.point_calls": point.count,
        "geodesic.point_self_s": point.self_time,
        "trees.constructions": construct.count,
        "trees.construct_self_s": construct.self_time,
        "trees.io_s": sum(tracer.by_name(f"trees.{f}").self_time
                          for f in io_fns),
        "stats.mean_calls": means.count,
        "stats.mean_steps": counts["steps"],
        "stats.mean_cap_ratio":
            counts["capped"] / means.count if means.count else 0.0,
        "stats.mean_self_s": means.self_time
            + tracer.by_name("stats.frechet_mean").self_time,
        "subtrees.extract_calls":
            tracer.by_name("subtrees.extract_subtree").count,
        "subtrees.self_s": tracer.self_time("subtrees."),
        "classify.self_s": tracer.self_time("classify."),
        "embedding.restarts": mds.count,
        "embedding.iterations": iters,
        "embedding.mds_pd_self_s": mds.self_time,
        "embedding.iter_ms": 1e3 * mds.self_time / iters if iters else 0.0,
        "distmat.io_s": tracer.self_time("distmat."),
        "svgfig.self_s": tracer.self_time("svgfig."),
        "synthetic.self_s": tracer.self_time("synthetic."),
        "cli.self_s": sum(s["self_s"] for s in tracer.stages
                          if s["name"] != "setup"),
        "trace.overhead_s": traced["pipeline"] - untraced["pipeline"],
    }
    for stage in STAGES:
        m[f"stage.{stage}_s"] = untraced.get(stage, 0.0)
    return m


def versions() -> dict:
    import numpy
    import scipy
    import treespace
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "treespace": treespace.__version__}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = workloads.get(args.workload, args.smoke)
    setup(wl, args.work, args.seed)
    out = {"setup_s": time.perf_counter() - T0}
    if args.setup_only:
        args.out.write_text(json.dumps(out))
        return

    ops = Ops()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, args.work, args.seed, ops))
        if args.trace or args.smoke:
            break
        typical = statistics.median(p["pipeline"] for p in passes)
        if time.perf_counter() - start + typical > args.seconds:
            break
    # ru_maxrss is in KiB on Linux; read before checks allocate anything
    out["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    out["passes"] = passes
    out["quality"] = run_checks(wl, args.work, args.seed, ops, args.smoke)

    if args.trace or args.smoke:
        from micro import micro_timings
        tracer, traced, counts = traced_pass(wl, args.work / "traced",
                                             args.seed, ops)
        out["layers"] = layer_metrics(tracer, counts, traced, passes[-1])
        out["layers"].update(micro_timings(
            ops, 0.05 if args.smoke else 0.5, smoke=args.smoke))
        out["span_table"] = tracer.table()
        out["stage_spans"] = tracer.stages
    out["attempted"] = ops.attempted
    out["failures"] = ops.failures
    out["versions"] = versions()
    args.out.write_text(json.dumps(out))


if __name__ == "__main__":
    main()
