"""The process pool behind ``workers=`` and ``--threads``: pooled runs give
the serial bytes, and failures inside a worker surface as the serial ones.

The pool is forced on small inputs by lowering the pair count at which
``distance_matrix_detailed`` starts one; ``embed`` pools its restarts at
any size.  Run under a one-CPU affinity mask
(``taskset -c 0``), the default worker count falls back to serial, and the
same bytes must come out.
"""

import hashlib
import importlib
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from treespace import (AttributedTree, EmbeddingConfig, TreeError,
                       airway_template, distance_matrix,
                       distance_matrix_detailed, embed, gen_corner,
                       gen_tree_population, permutation_test,
                       serialize_population)
from treespace import _pool
from treespace._pool import cpus, fork_map, resolve_workers
from treespace.cli import main

from test_geodesic import (_PINNED_CSV_SHA256, _pinned_populations,
                           scaled_conflict_pairs)

# the package's ``geodesic`` attribute is the function of that name
geodesic_module = importlib.import_module("treespace.geodesic")


@pytest.fixture()
def pool_always(monkeypatch):
    monkeypatch.setattr(geodesic_module, "_POOL_MIN_PAIRS", 0)


def run(*argv):
    return main([str(a) for a in argv])


def _no_child_left():
    # every worker a map forked has been reaped: no child remains
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


needs_two_cpus = pytest.mark.skipif(
    cpus() < 2, reason="on one CPU fork_map runs serially and forks nothing")


def test_default_workers_follow_the_affinity_mask():
    assert resolve_workers(None) == len(os.sched_getaffinity(0))
    assert resolve_workers(3) == 3


@pytest.mark.parametrize("fn", [
    lambda t, w: distance_matrix(t, workers=w),
    lambda t, w: permutation_test(t[:2], t[2:], m=3, workers=w),
    lambda t, w: embed(distance_matrix(t, workers=1), workers=w),
])
def test_workers_below_one_rejected(fn):
    trees = gen_tree_population(airway_template(), 4, seed=1).trees
    for workers in (0, -2):
        with pytest.raises(ValueError,
                           match="workers: expected a positive integer"):
            fn(trees, workers)


def _embedding_record(result):
    return (result.coordinates.tobytes(), result.final_stress,
            [(r.coordinates.tobytes(), r.stress_trace, r.iterations,
              r.stop_reason) for r in result.restarts],
            result.distortion.to_json(), result.distortion.ratios.tobytes())


def test_pooled_embed_restarts_match_serial():
    target = gen_corner(25, seed=2).matrix
    for method in ("hmds", "hisomap"):
        cfg = EmbeddingConfig(method, isomap_k=5, max_iterations=150,
                              seed=3, restarts=3)
        want = _embedding_record(embed(target, cfg, workers=1))
        assert len(want[2]) == 3
        for workers in (2, None):
            assert _embedding_record(embed(target, cfg, workers)) == want


def test_failure_inside_a_restart_raises_the_serial_error():
    # every restart seeds NumPy with [seed, r], which rejects seed -1
    target = gen_corner(6, seed=1).matrix
    cfg = EmbeddingConfig(seed=-1, restarts=2, max_iterations=5)
    with pytest.raises(ValueError) as serial:
        embed(target, cfg, workers=1)
    with pytest.raises(ValueError) as pooled:
        embed(target, cfg, workers=2)
    assert "negative" in str(serial.value)
    assert str(pooled.value) == str(serial.value)
    _no_child_left()


def test_embed_inside_a_worker_runs_serially():
    target = gen_corner(12, seed=4).matrix
    cfg = EmbeddingConfig(max_iterations=40, restarts=2)
    want = _embedding_record(embed(target, cfg, workers=1))

    def task(_):
        # a worker forks no workers of its own: this map runs serially
        return _embedding_record(embed(target, cfg, workers=2))

    assert fork_map(task, range(2), 2) == [want, want]


def test_pooled_distance_matrix_bytes_pinned(pool_always):
    for trees, digest in zip(_pinned_populations(), _PINNED_CSV_SHA256):
        serial, serial_counts = distance_matrix_detailed(trees, workers=1)
        for workers in (2, None):
            dm, counts = distance_matrix_detailed(trees, workers=workers)
            text = dm.to_csv()
            assert hashlib.sha256(text.encode()).hexdigest() == digest
            assert text == serial.to_csv()
            assert counts == serial_counts


def _underflow_population():
    """Normal trees around a pair whose conflicting squares all underflow."""
    tiny, normal = next(scaled_conflict_pairs(1e-170)), \
        next(scaled_conflict_pairs(1.0))
    return [normal[0], normal[1], *tiny, normal[0]]


def test_failure_inside_a_worker_raises_the_serial_error(pool_always):
    trees = _underflow_population()
    with pytest.raises(ValueError) as serial:
        distance_matrix(trees, workers=1)
    with pytest.raises(ValueError) as pooled:
        distance_matrix(trees, workers=2)
    assert "underflow" in str(serial.value)
    assert str(pooled.value) == str(serial.value)
    _no_child_left()


def test_cli_failure_inside_a_worker_is_one_line(pool_always, tmp_path,
                                                 capsys):
    pop = tmp_path / "pop.json"
    pop.write_text(serialize_population(_underflow_population()))
    assert run("dist", "--input", pop, "-o", tmp_path / "d.csv",
               "--threads", "2") == 70
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "underflow" in err
    _no_child_left()


def test_cli_threads_zero_is_one_line(tmp_path, capsys):
    # a usage error for every command, whether it pools or not, and
    # whether the value comes from a flag or from --config
    pop = tmp_path / "pop.json"
    assert run("gen", "trees", "-o", pop, "--n", "4") == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"threads": 0}')
    for cmd in ("dist", "mean"):
        for option in (["--threads", "0"], ["--config", cfg]):
            capsys.readouterr()
            out = tmp_path / f"{cmd}.out"
            assert run(cmd, "--input", pop, "-o", out, *option) == 64
            assert capsys.readouterr().err == (
                "treespace: error: usage: argument --threads: expected a "
                "positive integer, got '0'\n")
            assert not out.exists()


def test_pools_do_not_nest(pool_always):
    trees = gen_tree_population(airway_template(), 8, topology_noise=0.5,
                                seed=2).trees
    want = distance_matrix(trees, workers=1).values

    def task(_):
        # inside a worker this asks for a pool again; it runs serially,
        # so pools never nest
        return distance_matrix(trees, workers=2).values

    for got in fork_map(task, range(2), 2):
        assert np.array_equal(got, want)


@pytest.fixture()
def recorded_pools(monkeypatch):
    """The (workers forked, items) of every map that forks; the maps run
    for real."""
    pools, forks = [], []
    fork, forked_map = os.fork, _pool._forked_map

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def recorded_map(fn, items, workers):
        before = len(forks)
        try:
            return forked_map(fn, items, workers)
        finally:
            pools.append((len(forks) - before, len(items)))

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(_pool, "_forked_map", recorded_map)
    return pools


def _pool_sizes_at_most_cpus(pools):
    # one CPU leaves one worker, and the map runs serially
    assert all(2 <= size <= cpus() for size, _ in pools)
    assert bool(pools) == (cpus() > 1)


def test_fork_map_starts_at_most_one_process_per_cpu(recorded_pools):
    for workers in (2, 5000, 100_000):
        assert fork_map(lambda x: 2 * x, range(9), workers) == \
            [2 * x for x in range(9)]
    _pool_sizes_at_most_cpus(recorded_pools)
    assert all(tasks == 9 for _, tasks in recorded_pools)
    _no_child_left()


def test_cli_huge_thread_counts_are_capped(recorded_pools, pool_always,
                                           tmp_path):
    pop = tmp_path / "pop.json"
    # ten trees make ten row tasks, a count that four tasks per CPU
    # could not give
    assert run("gen", "trees", "-o", pop, "--n", "10",
               "--topology-noise", "0.5", "--class-shift", '{"LMB": 0.3}',
               "--seed", "2") == 0
    outputs = {}
    for threads in ("1", "100000"):
        d = tmp_path / threads
        assert run("dist", "--input", pop, "-o", d / "d.csv",
                   "--threads", threads) == 0
        assert run("permtest", "--groups", pop, "-o", d / "perm.json",
                   "--M", "4", "--threads", threads) == 0
        outputs[threads] = ((d / "d.csv").read_bytes(),
                            (d / "perm.json").read_bytes())
    assert outputs["1"] == outputs["100000"]
    _pool_sizes_at_most_cpus(recorded_pools)
    # dist maps one task per tree row, whatever the processes; permtest
    # maps its 1 + M splits
    assert [tasks for _, tasks in recorded_pools] == \
        ([10, 5] if cpus() > 1 else [])
    _no_child_left()


def test_fork_map_keeps_input_order():
    assert fork_map(lambda x: x * x, range(7), 3) == \
        [x * x for x in range(7)]
    assert fork_map(lambda x: x, [], 2) == []


def _cli_outputs(tmp_path, name, argv, out):
    """Run ``argv`` under --threads 1, 2 and the default; return each
    run's output bytes and manifest diagnostics."""
    runs = {}
    for threads in ("1", "2", None):
        d = tmp_path / f"{name}-{threads}"
        flag = ["--threads", threads] if threads else []
        assert run(*argv, "-o", d / out, *flag, "--deterministic") == 0
        manifest = json.loads((d / out).with_suffix(".manifest.json")
                              .read_text())
        runs[threads] = (d / out).read_bytes(), manifest["diagnostics"]
    return runs


def test_cli_dist_identical_across_threads(tmp_path):
    pop = tmp_path / "pop.json"
    assert run("gen", "trees", "-o", pop, "--n", "64",
               "--topology-noise", "0.5", "--seed", "3") == 0
    runs = _cli_outputs(tmp_path, "dist", ["dist", "--input", pop],
                        "dist.csv")
    # 64 trees make 2 016 pairs, past the pool's crossover
    assert runs["1"][1]["pairs"] == 2016
    assert runs["1"] == runs["2"] == runs[None]


def test_cli_permtest_identical_across_threads_and_counts_means(tmp_path):
    pop = tmp_path / "pop.json"
    assert run("gen", "trees", "-o", pop, "--n", "12",
               "--topology-noise", "0.5", "--class-shift", '{"LMB": 0.3}',
               "--seed", "2") == 0
    runs = _cli_outputs(tmp_path, "perm",
                        ["permtest", "--groups", pop, "--M", "8"],
                        "perm.json")
    report = json.loads(runs["1"][0])
    assert report["sizes"] == [6, 6]
    assert runs["1"] == runs["2"] == runs[None]
    diagnostics = runs["1"][1]
    # two group means for the observed split and for each replicate
    # every one certifies by orthant solves and hops, without a walk step
    assert diagnostics["mean_stop_reasons"] == {"certified": 2 * (8 + 1)}
    assert diagnostics["mean_iterations"] == 0
    assert diagnostics["mean_hops"] > 0
    # perm.json itself says what its p-value rests on
    for key in ("mean_stop_reasons", "mean_iterations", "mean_hops"):
        assert report[key] == diagnostics[key]


def test_permtest_single_orthant_counts_no_means(tmp_path):
    pop = tmp_path / "pop.json"
    assert run("gen", "trees", "-o", pop, "--n", "8",
               "--class-shift", '{"LMB": 0.3}') == 0
    out = tmp_path / "perm.json"
    assert run("permtest", "--groups", pop, "-o", out, "--M", "20") == 0
    diagnostics = json.loads(out.with_suffix(".manifest.json")
                             .read_text())["diagnostics"]
    assert diagnostics == {"mean_stop_reasons": {}, "mean_iterations": 0,
                           "mean_hops": 0}
    report = json.loads(out.read_text())
    assert report["mean_stop_reasons"] == {}
    assert report["mean_iterations"] == 0


def test_trees_checked_once_raise_the_first_pairwise_error():
    # the checks run in the caller, before any fork, one tree at a time,
    # and name the same pair a pair-by-pair check would name first
    S = frozenset
    edgeless = AttributedTree(tuple("abcd"), {})
    one = AttributedTree(tuple("abcd"), {S("ab"): (1.0,)})
    two = AttributedTree(tuple("abcd"), {S("ab"): (1.0, 2.0)})
    other = AttributedTree(tuple("abce"), {S("ab"): (1.0,)})
    for trees, message in (([edgeless, one, edgeless, two], "1 vs 2"),
                           ([edgeless, two, one, one], "2 vs 1"),
                           ([one, one, two, other], "1 vs 2"),
                           ([one, edgeless, other, two], "leaf sets")):
        with pytest.raises(TreeError, match=message):
            distance_matrix(trees, workers=1)


_SRC = str(Path(_pool.__file__).resolve().parents[1])


def _script(script, *args):
    """Run ``script`` in a fresh interpreter that fails after 60 s rather
    than hang the suite."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [_SRC, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          env=env, capture_output=True, text=True,
                          timeout=60)


_KILLED_WORKER = """
import os, signal
from treespace import _pool

def task(i):
    if _pool._in_worker and i == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return i

try:
    _pool.fork_map(task, range(4), 2)
except ChildProcessError as e:
    print(e)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


@needs_two_cpus
def test_a_killed_worker_fails_the_map():
    proc = _script(_KILLED_WORKER)
    assert proc.stdout == ("a pool worker was killed by SIGKILL\n"
                           "no child left\n"), proc.stderr


_DYING_DIST = """
import os, signal, sys
import treespace.cli
from treespace import _pool

geodesic = sys.modules["treespace.geodesic"]
pair, calls = geodesic._pair, []

def dying_pair(*args):
    # the fifth pair a worker computes kills it
    calls.append(None)
    if _pool._in_worker and len(calls) == 5:
        os.kill(os.getpid(), signal.SIGKILL)
    return pair(*args)

geodesic._pair = dying_pair
geodesic._POOL_MIN_PAIRS = 0
sys.exit(treespace.cli.main(sys.argv[1:]))
"""


@needs_two_cpus
def test_cli_dist_with_a_killed_worker_is_one_line(tmp_path):
    pop = tmp_path / "pop.json"
    assert run("gen", "trees", "-o", pop, "--n", "12",
               "--topology-noise", "0.5", "--seed", "2") == 0
    out = tmp_path / "d.csv"
    proc = _script(_DYING_DIST, "dist", "--input", pop, "-o", out,
                   "--threads", "2")
    assert (proc.returncode, proc.stderr) == (
        70, "treespace: error: compute: a pool worker was killed by "
            "SIGKILL\n")
    assert not out.exists()


@pytest.fixture()
def deadline():
    """A map that hangs fails the test after 60 s instead."""
    def overdue(signum, frame):
        raise TimeoutError("the map still runs after 60 s")

    previous = signal.signal(signal.SIGALRM, overdue)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@needs_two_cpus
def test_a_dead_worker_stops_the_others_at_once(deadline):
    def task(i):
        if _pool._in_worker and i == 0:
            time.sleep(30)  # still running when the other worker dies
        if _pool._in_worker and i == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return i

    # more indices than a pipe holds: the parent is still feeding them
    start = time.monotonic()
    with pytest.raises(ChildProcessError,
                       match="^a pool worker was killed by SIGKILL$"):
        fork_map(task, range(100_000), 2)
    assert time.monotonic() - start < 10
    _no_child_left()


@needs_two_cpus
def test_maps_longer_than_a_pipe_holds():
    # 400 000 bytes of indices, fed as the workers take them
    assert fork_map(lambda x: x + 1, range(100_000), 2) == \
        list(range(1, 100_001))
    _no_child_left()


def test_worker_deaths_name_their_cause():
    # wait statuses as POSIX encodes them: the signal in the low seven
    # bits, or the exit status in the byte above
    assert str(_pool._died(signal.SIGKILL)) == \
        "a pool worker was killed by SIGKILL"
    assert str(_pool._died(signal.SIGRTMIN + 1)) == \
        f"a pool worker was killed by signal {signal.SIGRTMIN + 1}"
    assert str(_pool._died(3 << 8)) == \
        "a pool worker exited with status 3 before reporting"


@needs_two_cpus
def test_results_that_do_not_pickle_fail_their_item():
    with pytest.raises((AttributeError, TypeError, pickle.PicklingError),
                       match="pickle"):
        fork_map(lambda i: lambda: i, range(4), 2)
    _no_child_left()
