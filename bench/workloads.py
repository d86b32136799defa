"""The benchmark's workloads: seeded inputs and the CLI stages run on them.

Each workload writes its inputs into a work directory from the seed alone
(``setup``) and then lists the ``treespace`` command lines of one pass
(``stages``).  The program only ever sees the generated files and the
seed passed on its command line.  ``get(name, smoke=True)`` returns the
same workload at a size that runs in a second or two, for the harness's
own tests.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CLASS_SHIFT = json.dumps({"LMB": 0.3})
# Every branch label but the Trachea: its subtree is the whole tree, whose
# mean the mean stage already computes.
SUBTREE_LABELS = ("LMB", "RMB", "LUL", "RUL", "L1+2+3", "LLB", "BronchInt",
                  "RLL")


def run_cli(argv) -> int:
    from treespace.cli import main
    return main([str(a) for a in argv])


@dataclass(frozen=True)
class Cohort:
    """Airway-like subjects from ``treespace gen trees``, two classes."""

    name: str
    n: int
    attr_sigma: float
    topology_noise: float
    knn: tuple[int, int]             # (k, folds)

    def setup(self, work: Path, seed: int) -> None:
        rc = run_cli(["gen", "trees", "-o", work / "pop.json",
                      "--n", self.n, "--attr-sigma", self.attr_sigma,
                      "--topology-noise", self.topology_noise,
                      "--class-shift", CLASS_SHIFT, "--seed", seed])
        if rc != 0:
            raise RuntimeError(f"gen trees exited {rc}")

    def stages(self, work: Path, seed: int) -> list[tuple[str, list]]:
        pop, dist = work / "pop.json", work / "dist.csv"
        k, folds = self.knn
        out = [
            ("dist", ["dist", "--input", pop, "-o", dist]),
            ("mean", ["mean", "--input", pop, "-o", work / "mean.json"]),
            ("features", ["subtree-features", "--input", pop,
                          "--mode", "pooled", "--labels", *SUBTREE_LABELS,
                          "-o", work / "feats.csv"]),
            ("knn", ["knn", "--matrix", dist, "--k", k, "--folds", folds,
                     "-o", work / "knn.json"]),
        ]
        return [(name, argv + ["--seed", seed]) for name, argv in out]


def random_resolved_tree(rng, leaves):
    """A fully resolved tree from a random recursive partition of
    ``leaves``: every block is a split, pendants and the root included,
    each with a length drawn from U(0.05, 2)."""
    from treespace import AttributedTree
    splits = []

    def recurse(block):
        splits.append(frozenset(block))
        if len(block) < 2:
            return
        cut = int(rng.integers(1, len(block)))
        order = list(block)
        rng.shuffle(order)
        recurse(order[:cut])
        recurse(order[cut:])

    recurse(list(leaves))
    return AttributedTree(
        tuple(leaves),
        {s: (float(rng.uniform(0.05, 2.0)),) for s in splits})


def leaf_names(n):
    return tuple(f"L{i:02d}" for i in range(n))


@dataclass(frozen=True)
class TreeMap:
    """Random fully resolved trees, mapped into the Poincaré disk."""

    name: str
    n: int
    leaves: int
    restarts: int
    max_iterations: int

    def setup(self, work: Path, seed: int) -> None:
        from treespace import serialize_population
        rng = np.random.default_rng([seed, 1])
        leaves = leaf_names(self.leaves)
        trees = [random_resolved_tree(rng, leaves) for _ in range(self.n)]
        (work / "pop.json").write_text(serialize_population(trees))

    def stages(self, work: Path, seed: int) -> list[tuple[str, list]]:
        dist = work / "dist.csv"
        out = [
            ("dist", ["dist", "--input", work / "pop.json", "-o", dist]),
            ("embed", ["embed", "--input", dist, "--method", "hmds",
                       "--restarts", self.restarts,
                       "--max-iterations", self.max_iterations,
                       "-o", work / "emb"]),
            ("distortion", ["distortion", "--original", dist,
                            "--embedded", dist,
                            "-o", work / "distortion.json"]),
        ]
        return [(name, argv + ["--seed", seed]) for name, argv in out]


# Why these two, and why these sizes: see README.md.
WORKLOADS = {
    w.name: w for w in (
        Cohort(name="cohort-mixed", n=17, attr_sigma=0.1,
               topology_noise=0.5, knn=(3, 3)),
        TreeMap(name="tree-map", n=160, leaves=10, restarts=2,
                max_iterations=200),
    )
}

# Sizes at which every stage and every check still runs within seconds.
# The smoke cohort has one topology, so its means take the fast path.
_SMOKE = {
    "cohort-mixed": dict(n=6, topology_noise=0.0),
    "tree-map": dict(n=24, restarts=1, max_iterations=50),
}


def get(name: str, smoke: bool = False):
    wl = WORKLOADS[name]
    return dataclasses.replace(wl, **_SMOKE[name]) if smoke else wl
