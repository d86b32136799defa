"""Population statistics for attributed trees.

The Fréchet mean generalizes the ordinary average to tree space: it is the
tree minimizing the sum of squared geodesic distances to the inputs.  No
closed form exists across orthants, so the mean is approximated by a
law-of-large-numbers scheme: walk from the current iterate a fraction
1/(step+1) of the way toward the next input, cycling the inputs in a fixed
seeded random order.  When every input shares one topology the minimizer is
the coordinatewise average and is returned exactly.

The walk's objective gap falls like O(1/k) in the number k of full cycles
through the inputs, so the objective change between cycle k/2 and cycle k
estimates the gap that remains.  The search stops once that change is
within a relative tolerance of the current objective, or at the step cap.

Group comparisons use permutation tests on two statistics: the distance
between group means and the absolute difference of group variances.  The
p-value (1 + #{permuted >= observed}) / (M + 1) never reaches zero, so a
significant result is never an artifact of too few permutations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ._pool import fork_map, resolve_workers
from .geodesic import geodesic, geodesic_distance
from .trees import AttributedTree

__all__ = [
    "MeanConfig",
    "MeanResult",
    "frechet_mean",
    "frechet_mean_detailed",
    "variance",
    "PermutationTestReport",
    "permutation_test",
    "pearson",
    "SubtreeCorrelation",
    "subtree_variance_correlation",
]

@dataclass(frozen=True)
class MeanConfig:
    """Iteration budget for the mean search.

    ``max_iterations`` caps the walk's steps and defaults to 1000 times the
    population size when left as None.  ``tolerance`` is the relative gap
    estimate at which the search stops: after each full cycle k >= 4 through
    the inputs, stop once the objective changed by at most ``tolerance``
    times its current value since cycle k // 2.
    """

    max_iterations: int | None = None
    tolerance: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass
class MeanResult:
    """``stop_reason`` is "converged" when the gap estimate fell within the
    tolerance (or the mean is exact), "cap" when the step budget ran out;
    ``iterations`` counts walk steps."""

    tree: AttributedTree
    objective: float
    trace: list[float]
    iterations: int
    stop_reason: str


def _check_population(trees):
    if not trees:
        raise ValueError("empty population")
    leaves = trees[0].leaves
    for t in trees[1:]:
        if t.leaves != leaves:
            raise ValueError("trees have different leaf sets")


def _objective(tree, trees):
    return sum(geodesic_distance(tree, t) ** 2 for t in trees)


def _coordinate_mean(trees):
    """Exact mean for a single-topology population (orthants are convex)."""
    first = trees[0]
    edges = {}
    for s in first.sorted_splits():
        vals = np.array([t.edges[s] for t in trees])
        m = vals.mean(axis=0)
        if np.any(m != 0.0):
            edges[s] = tuple(float(v) for v in m)
    labels = {}
    for t in trees:
        for name, sp in t.branch_labels.items():
            if name not in labels and sp in edges:
                labels[name] = sp
    return AttributedTree(first.leaves, edges, labels)


def frechet_mean_detailed(trees, cfg: MeanConfig | None = None) -> MeanResult:
    """Mean search with the objective trace attached.

    ``trace`` holds the best objective seen at each full cycle through the
    inputs (and at the cap), so it is non-increasing; the returned tree is
    the best iterate, never a worse late one.
    """
    trees = list(trees)
    _check_population(trees)
    cfg = cfg or MeanConfig()
    n = len(trees)
    if n == 1:
        return MeanResult(trees[0], 0.0, [0.0], 0, "converged")

    if all(t.splits == trees[0].splits for t in trees):
        mean = _coordinate_mean(trees)
        obj = _objective(mean, trees)
        return MeanResult(mean, obj, [obj], 0, "converged")
    if n == 2:
        # the two-point mean is the midpoint, no iteration needed
        mid = geodesic(trees[0], trees[1]).point(0.5)
        obj = _objective(mid, trees)
        return MeanResult(mid, obj, [obj], 0, "converged")

    max_iter = cfg.max_iterations if cfg.max_iterations is not None \
        else 1000 * n
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(n)

    # start from the best input so the result never loses to an input tree
    input_objs = [_objective(t, trees) for t in trees]
    start = int(np.argmin(input_objs))
    current = trees[start]
    best = current
    best_obj = input_objs[start]
    trace = [best_obj]
    cycle_objs = [best_obj]  # objective at the iterate after each cycle

    for step in range(1, max_iter + 1):
        sample = trees[order[(step - 1) % n]]
        current = geodesic(current, sample).point(1.0 / (step + 1))
        if step % n and step < max_iter:
            continue
        obj = _objective(current, trees)
        if obj < best_obj:
            best_obj = obj
            best = current
        trace.append(best_obj)
        if step % n == 0:
            cycle_objs.append(obj)
            k = step // n
            if k >= 4 and abs(cycle_objs[k // 2] - obj) <= cfg.tolerance * obj:
                return MeanResult(best, best_obj, trace, step, "converged")
    return MeanResult(best, best_obj, trace, max_iter, "cap")


def frechet_mean(trees, cfg: MeanConfig | None = None) -> AttributedTree:
    """The tree minimizing the sum of squared distances to ``trees``."""
    return frechet_mean_detailed(trees, cfg).tree


def variance(trees, mean: AttributedTree) -> float:
    """Sum of squared distances to ``mean`` over (N - 1)."""
    trees = list(trees)
    if len(trees) < 2:
        raise ValueError("variance needs at least two trees")
    return sum(geodesic_distance(t, mean) ** 2 for t in trees) \
        / (len(trees) - 1)


# ---------------------------------------------------------------------------
# permutation tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PermutationTestReport:
    """``mean_stop_reasons`` counts how the group means of the observed
    split and of every replicate stopped (see ``MeanResult``), and
    ``mean_iterations`` sums their steps; both stay empty and 0 when the
    trees share one orthant and the means are plain averages.  ``to_json``
    carries both, so a p-value that rests on capped means says so."""

    statistic_kind: str
    observed: float
    permuted: tuple[float, ...]
    p_value: float
    seed: int
    sizes: tuple[int, int]
    mean_stop_reasons: dict = field(default_factory=dict)
    mean_iterations: int = 0

    @property
    def m(self) -> int:
        return len(self.permuted)

    def to_json(self, include_permuted: bool = False) -> dict:
        arr = np.array(self.permuted)
        out = {
            "kind": self.statistic_kind,
            "observed": self.observed,
            "p_value": self.p_value,
            "M": self.m,
            "seed": self.seed,
            "sizes": list(self.sizes),
            "permuted_summary": {
                f"q{q}": float(np.quantile(arr, q / 100))
                for q in (0, 25, 50, 75, 100)
            },
            "mean_stop_reasons": dict(self.mean_stop_reasons),
            "mean_iterations": self.mean_iterations,
        }
        if include_permuted:
            out["permuted"] = list(self.permuted)
        return out


def _stacked_attributes(trees):
    """Row per tree of concatenated attributes; only for one topology."""
    splits = trees[0].sorted_splits()
    return np.array([[c for s in splits for c in t.edges[s]] for t in trees])


def _group_stat_trees(g1, g2, kind, cfg):
    """The statistic, and (stop_reason, iterations) of both group means."""
    r1, r2 = frechet_mean_detailed(g1, cfg), frechet_mean_detailed(g2, cfg)
    if kind == "mean":
        value = geodesic_distance(r1.tree, r2.tree)
    else:
        value = abs(variance(g1, r1.tree) - variance(g2, r2.tree))
    return value, [(r.stop_reason, r.iterations) for r in (r1, r2)]


def permutation_test(g1, g2, kind: str = "mean", m: int = 1000,
                     seed: int = 0, workers: int | None = None) \
        -> PermutationTestReport:
    """Two-group permutation test on tree populations.

    ``kind`` selects the statistic: distance between group means, or
    absolute difference of group variances.  Each of the ``m`` replicates
    repartitions the pooled trees into the original group sizes, using an
    RNG stream derived from (seed, replicate) so replicates are independent
    of evaluation order.  Partitions are sampled independently, so repeats
    can occur.  When the trees span several orthants, the group means of
    the observed split and the replicates are spread over ``workers``
    processes (default, and at most: the CPUs this process may run on);
    the report does not depend on how many.
    """
    workers = resolve_workers(workers)
    g1, g2 = list(g1), list(g2)
    if len(g1) < 2 or len(g2) < 2:
        raise ValueError("each group needs at least two trees")
    if kind not in ("mean", "variance"):
        raise ValueError(f"unknown statistic kind: {kind!r}")
    if m < 1:
        raise ValueError("m must be at least 1")
    pool = g1 + g2
    _check_population(pool)
    n1 = len(g1)
    n = len(pool)
    parts = [(np.arange(n1), np.arange(n1, n))]
    for rep in range(m):
        perm = np.random.default_rng([seed, rep]).permutation(n)
        parts.append((perm[:n1], perm[n1:]))

    reasons, iterations = Counter(), 0
    if all(t.splits == pool[0].splits for t in pool):
        x = _stacked_attributes(pool)

        def stat(idx1, idx2):
            a, b = x[idx1], x[idx2]
            if kind == "mean":
                diff = a.mean(axis=0) - b.mean(axis=0)
                return float(np.sqrt(diff @ diff))
            va = float(((a - a.mean(axis=0)) ** 2).sum() / (len(idx1) - 1))
            vb = float(((b - b.mean(axis=0)) ** 2).sum() / (len(idx2) - 1))
            return abs(va - vb)

        values = [stat(a, b) for a, b in parts]
    else:
        cfg = MeanConfig(seed=seed)

        def run(part):
            return _group_stat_trees([pool[i] for i in part[0]],
                                     [pool[i] for i in part[1]], kind, cfg)

        values = []
        for value, means in fork_map(run, parts, workers):
            values.append(value)
            for reason, steps in means:
                reasons[reason] += 1
                iterations += steps
    observed = values[0]
    permuted = tuple(float(v) for v in values[1:])
    exceed = sum(1 for v in permuted if v >= observed)
    p = (1 + exceed) / (m + 1)
    return PermutationTestReport(kind, float(observed), permuted, p, seed,
                                 (n1, n - n1), dict(reasons), iterations)


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------

def pearson(x, y) -> float:
    """Sample correlation coefficient of two equal-length sequences."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length 1-D sequences")
    if len(x) < 2:
        raise ValueError("need at least two observations")
    sx = x.std(ddof=1)
    sy = y.std(ddof=1)
    if sx == 0.0 or sy == 0.0:
        raise ValueError("constant input has no correlation")
    r = float(((x - x.mean()) * (y - y.mean())).sum()
              / ((len(x) - 1) * sx * sy))
    return r


@dataclass
class SubtreeCorrelation:
    """Pairwise correlation of per-subject deviations from subtree means.

    ``deviations[i, j]`` is the distance from subject i's subtree j to that
    subtree's population mean; ``matrix[j, k]`` the Pearson correlation of
    deviation columns j and k.
    """

    labels: tuple[str, ...]
    deviations: np.ndarray
    matrix: np.ndarray

    def scatter(self, label_a: str, label_b: str):
        ja = self.labels.index(label_a)
        jb = self.labels.index(label_b)
        return self.deviations[:, ja], self.deviations[:, jb]

    def histogram(self, label: str, bins: int = 20):
        j = self.labels.index(label)
        counts, edges = np.histogram(self.deviations[:, j], bins=bins)
        return counts, edges


def subtree_variance_correlation(populations: dict, means: dict) \
        -> SubtreeCorrelation:
    """Correlate how far subjects sit from each labeled subtree mean.

    ``populations`` maps a label to the list of that subtree across
    subjects (same subjects, same order for every label); ``means`` maps
    the label to the reference mean subtree.
    """
    labels = tuple(populations)
    if not labels:
        raise ValueError("no subtree populations given")
    sizes = {len(populations[lab]) for lab in labels}
    if len(sizes) != 1:
        raise ValueError("subtree populations differ in length")
    missing = [lab for lab in labels if lab not in means]
    if missing:
        raise ValueError(f"no mean for labels: {missing}")
    n = sizes.pop()
    dev = np.zeros((n, len(labels)))
    for j, lab in enumerate(labels):
        mu = means[lab]
        dev[:, j] = [geodesic_distance(t, mu) for t in populations[lab]]
    mat = np.ones((len(labels), len(labels)))
    for j in range(len(labels)):
        for k in range(j + 1, len(labels)):
            mat[j, k] = mat[k, j] = pearson(dev[:, j], dev[:, k])
    return SubtreeCorrelation(labels, dev, mat)
