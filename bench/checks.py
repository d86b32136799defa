"""Correctness checks on the files one pass wrote, run outside timed spans.

Every check is one operation: ``Ops.check`` counts it as attempted and,
when it does not hold, as failed with a one-line reason.  Stage calls are
operations too (a stage fails when it exits nonzero).
"""

from __future__ import annotations

import csv
import io
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np


class Ops:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def guarded(self, name: str, fn) -> None:
        """Run ``fn() -> (ok, detail)`` as one check; raising fails it."""
        try:
            ok, detail = fn()
        except Exception as e:  # a crashing check is a failed check
            ok, detail = False, f"{type(e).__name__}: {e}"
        self.check(name, ok, detail)


# ---------------------------------------------------------------------------
# read-back: every file a stage writes parses with the package's reader
# ---------------------------------------------------------------------------

def _read_numeric_csv(text):
    """Header row, then rows of a name followed by numbers."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("empty or ragged CSV")
    return [[float(c) for c in r[1:]] for r in rows[1:]]


def read_back(path: Path):
    """Parse ``path`` with the package reader for its format."""
    from treespace import DistanceMatrix, FeatureMatrix, parse_population, \
        parse_tree
    text = path.read_text()
    name = path.name
    if name == "pop.json":
        trees, _ = parse_population(text)
        return trees
    if name == "mean.json":
        return parse_tree(text)
    if name == "dist.csv":
        return DistanceMatrix.from_csv(text)
    if name == "feats.csv":
        return FeatureMatrix.from_csv(text)
    if name == "coordinates.csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        return np.array([[float(r["x"]), float(r["y"])] for r in rows])
    if path.suffix == ".json":
        return json.loads(text)
    if path.suffix == ".svg":
        return ET.fromstring(text)
    if path.suffix == ".csv":
        return _read_numeric_csv(text)
    raise ValueError(f"no reader for {name}")


def check_outputs(ops: Ops, manifest: Path) -> None:
    """Each output named in a stage manifest, and the manifest, read back."""
    try:
        outputs = json.loads(manifest.read_text())["outputs"]
    except (OSError, ValueError, KeyError) as e:
        ops.check(f"readback {manifest.name}", False, str(e))
        return
    ops.check(f"readback {manifest.name}", True)
    for out in outputs:
        p = Path(out)
        ops.guarded(f"readback {p.name}",
                    lambda p=p: (read_back(p) is not None, ""))


# ---------------------------------------------------------------------------
# workload-specific checks
# ---------------------------------------------------------------------------

def _raw_matrix(path: Path) -> np.ndarray:
    """Distance CSV values exactly as written (the package reader would
    symmetrize near-symmetric input)."""
    rows = path.read_text().splitlines()[1:]
    return np.array([[float(c) for c in r.split(",")[2:]] for r in rows])


def check_tree_map(ops: Ops, work: Path, seed: int, brute_pairs: int,
                   small_pairs: int) -> dict:
    from treespace import (brute_force_distance, geodesic_distance,
                           parse_population, sammon_stress)
    from workloads import leaf_names, random_resolved_tree

    d = _raw_matrix(work / "dist.csv")
    n = len(d)
    ops.check("dist symmetric, zero diagonal",
              d.shape == (n, n) and np.array_equal(d, d.T)
              and not np.any(np.diag(d)))

    rng = np.random.default_rng([seed, 2])
    i, j, k = rng.integers(0, n, size=(3, 20000))
    slack = d[i, j] + d[j, k] - d[i, k]
    ops.check("triangle inequality on 20000 seeded triples",
              bool(np.all(slack >= -1e-9)), f"min slack {slack.min():.3g}")

    # the oracle accepts at most 5 conflicting splits a side; at 10 leaves
    # that is only a few random pairs, so a seeded batch of 6-leaf pairs
    # (about 30 ms of oracle time each; 7 leaves can take seconds) follows
    trees, _ = parse_population((work / "pop.json").read_text())
    pairs = [(trees[a], trees[b], d[a, b])
             for a, b in rng.integers(0, n, size=(brute_pairs, 2)) if a != b]
    small = np.random.default_rng([seed, 3])
    for _ in range(small_pairs):
        leaves = leaf_names(6)
        t1 = random_resolved_tree(small, leaves)
        t2 = random_resolved_tree(small, leaves)
        pairs.append((t1, t2, geodesic_distance(t1, t2)))
    for t1, t2, got in pairs:
        try:
            want = brute_force_distance(t1, t2)
        except ValueError:  # more conflicts than the oracle takes
            continue
        ops.check("geodesic matches brute force within 1e-6",
                  abs(got - want) <= 1e-6, f"{got!r} vs {want!r}")

    emb = work / "emb"
    coords = read_back(emb / "coordinates.csv")
    radius = np.hypot(coords[:, 0], coords[:, 1])
    ops.check("embedding strictly inside the disk",
              bool(np.all(radius < 1.0)), f"max |z| {radius.max()!r}")
    summary = json.loads((emb / "embedding.json").read_text())
    stress = summary["final_stress"]
    again = sammon_stress(d, coords, "hyperbolic")
    ops.check("embedding stress matches coordinates within 1e-9",
              abs(stress - again) <= 1e-9 * abs(again),
              f"{stress!r} vs {again!r}")
    ident = json.loads((work / "distortion.json").read_text())
    ops.check("self-distortion is exactly 1",
              ident["multiplicative"] == 1.0, repr(ident["multiplicative"]))
    return {"objective": stress,
            "multiplicative_distortion":
                summary["distortion"]["multiplicative"],
            "embed_iterations": summary["iterations"]}


def check_cohort(ops: Ops, work: Path) -> dict:
    """The mean is no worse than the best input tree.  Its reported
    objective is normalized by the pairwise bound: in a non-positively
    curved space the exact mean has n * sum d^2(mean, t_i) <= sum_{i<j}
    d^2(t_i, t_j), with equality for flat data."""
    from treespace import geodesic_distance, parse_population, parse_tree

    trees, _ = parse_population((work / "pop.json").read_text())
    mean = parse_tree((work / "mean.json").read_text())
    d = _raw_matrix(work / "dist.csv")
    mean_obj = math.fsum(geodesic_distance(mean, t) ** 2 for t in trees)
    best_input = min(math.fsum(row ** 2) for row in d)
    ops.check("mean objective <= best input tree's",
              mean_obj <= best_input * (1 + 1e-12),
              f"{mean_obj!r} > {best_input!r}")
    pairwise = math.fsum((d ** 2).ravel()) / 2
    return {"objective": len(trees) * mean_obj / pairwise,
            "mean_objective": mean_obj, "best_input_objective": best_input}
