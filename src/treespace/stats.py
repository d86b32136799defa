"""Population statistics for attributed trees.

The Fréchet mean generalizes the ordinary average to tree space: it is the
tree x minimizing F(x) = sum_i d(x, t_i)^2 over the inputs t_i.  One tree
is its own mean, two trees have their midpoint, and when every input
shares one topology the minimizer is the coordinatewise average; all three
are returned exactly.

Across topologies the search starts from the best input and walks: step k
moves a fraction 1/(k+1) of the way toward the next input, cycling the
inputs in a fixed seeded random order.  The walk's objective gap falls
only like O(1/k) in the number k of full cycles, worst when the mean sits
on a face where some splits have length 0.  With ``MeanConfig.certify``
and scalar lengths (k = 1) the walk is only a way into the right orthant.
After cycles 2, 4, 8, ... F is minimised over the closed orthant of the
walk's current splits by projected descent on the lengths, clamped at 0:
a first step of
1/(2n), exact along common splits, then Barzilai-Borwein steps with Armijo
backtracking.  F and its gradient come straight from the geodesic core.
Against one input, a common split pulls with 2(x_e - y_e), a split of a
support block that collapses at switch time tau with 2 x_e / tau, and a
source split free of conflicts with 2 x_e.

The solution x is certified optimal (Miller, Owen & Provan, Adv. Appl.
Math. 68, 2015; Skwerer, Provan & Marron, SIAM J. Optim. 28(2), 2018) when
all of these hold, with eps = sqrt(2e-14 * n * F(x)):

(i)   the projected gradient on x's face has norm at most eps;
(ii)  every candidate split e, one that is free in the path from x to some
      input, has D(e) = sum_i 2 (|y_i,K| - [e free toward t_i] y_i,e)
      >= -eps, the rate at which F changes as e grows from 0; K holds the
      splits free toward t_i that clash with e;
(iii) no two candidates are compatible, so no direction grows two of them
      at once (two could pay for a clashing split only once together).

F is 2n-strongly convex along geodesics, so then F(x) - min F is at most
1e-14 F(x).  A solve that does not certify keeps x only if it beats the
walk's best iterate, and the walk goes on from its own iterate.  Attribute
vectors with k > 1, and every population when ``certify`` is off (the
default of ``MeanConfig``), use the walk alone.

The walk has its own stop: the change of its objective between cycle k/2
and cycle k estimates the gap that remains, and the search stops once that
change is within ``MeanConfig.tolerance`` of the current objective, or at
the step cap.  So a mean stops "certified", "converged" or at the "cap".

Group comparisons use permutation tests on two statistics: the distance
between group means and the absolute difference of group variances.  The
p-value (1 + #{permuted >= observed}) / (M + 1) never reaches zero, so a
significant result is never an artifact of too few permutations.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ._bounds import ABOVE_ZERO, COUNT, check
from ._pool import fork_map, resolve_workers
from .geodesic import (_COUNTS, _check_trees, _pair, distance_matrix,
                       geodesic, geodesic_distance)
from .trees import AttributedTree, _labels, _view

__all__ = [
    "MeanConfig",
    "MeanResult",
    "frechet_mean",
    "frechet_mean_detailed",
    "variance",
    "PermutationTestReport",
    "permutation_test",
    "pearson",
    "correlation_matrix",
]

# An orthant solve takes at most this many objective+gradient evaluations,
# accepts a step when it gains at least this fraction of its first-order
# prediction (Armijo), and certifies a point only if the certificate bounds
# F(x) - min F by _CERT_GAP * F(x)
_SOLVE_EVALS = 40
_ARMIJO = 1e-4
_CERT_GAP = 1e-14


@dataclass(frozen=True)
class MeanConfig:
    """Iteration budget for the mean search.

    ``max_iterations`` caps the walk's steps and defaults to 1000 times the
    population size when left as None.  ``tolerance`` drives the walk's gap
    rule: after each full cycle k >= 4 through the inputs, the search stops
    once the walk's objective changed by at most ``tolerance`` times its
    current value since cycle k // 2.  It does not touch the orthant
    solves, whose certificate has its own fixed tolerance (see the module
    docstring).  ``certify`` turns the orthant solves on for scalar
    lengths; left off, a mean is the walk alone, and ``max_iterations``
    counts exactly the steps a capped walk takes.  The command line and
    ``permutation_test`` turn it on.  A cap that is not a positive integer,
    or a tolerance that is not a finite number above 0, raises ValueError.
    """

    max_iterations: int | None = None
    tolerance: float = 1e-5
    seed: int = 0
    certify: bool = False

    def __post_init__(self):
        if self.max_iterations is not None:
            check(COUNT, max_iterations=self.max_iterations)
        check(ABOVE_ZERO, tolerance=self.tolerance)


@dataclass
class MeanResult:
    """How the mean search ended.

    ``stop_reason`` is "certified" when an orthant solve proved its point
    optimal (only with ``MeanConfig.certify``), "converged" when the walk's
    gap rule fired (or the mean is exact: one tree, two trees or one
    topology), and "cap" when the step budget ran out.  ``iterations`` counts walk steps and ``evaluations``
    the objective+gradient evaluations of the orthant solves.
    """

    tree: AttributedTree
    objective: float
    trace: list[float]
    iterations: int
    stop_reason: str
    evaluations: int = 0


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
    return AttributedTree(first.leaves, edges, _labels(trees, edges))


def _walk(trees, start, max_iter, seed):
    """Sturm's walk from ``start``: yield (step, iterate, objective) after
    every full cycle through the inputs and at the step cap."""
    n = len(trees)
    order = np.random.default_rng(seed).permutation(n)
    current = start
    for step in range(1, max_iter + 1):
        sample = trees[order[(step - 1) % n]]
        current = geodesic(current, sample).point(1.0 / (step + 1))
        if step % n == 0 or step == max_iter:
            yield step, current, _objective(current, trees)


def _clamp(c):
    """``c`` projected onto [0, inf), and 0 where ``c * c`` underflows, so
    that every positive length has a positive switch time."""
    return c if c > 0.0 and c * c > 0.0 else 0.0


def _orthant_solve(start, trees):
    """Minimise F over the closed orthant of ``start``'s splits, then test
    the optimality certificate.  Returns (tree, F, certified, evaluations).
    """
    n = len(trees)
    v = start._split_view
    views = [t._split_view for t in trees]
    m = len(v.splits)

    def evaluate(x):
        """F(x), its gradient over the orthant's splits, D(e) for every
        candidate mask e, and the split view of x."""
        live = [p for p in range(m) if x[p] > 0.0]
        attrs = tuple((x[p],) for p in live)
        vx = _view(tuple(v.splits[p] for p in live),
                   tuple(v.keys[p] for p in live),
                   tuple(v.masks[p] for p in live), attrs)
        counts = dict.fromkeys(_COUNTS, 0)
        obj, grad, frees = 0, [0.0] * m, []
        for vt in views:
            length, common, free1, free2, support, times = _pair(vx, vt,
                                                                 counts)
            obj += length ** 2
            for p, q in common:
                grad[live[p]] += 2.0 * (attrs[p][0] - vt.attrs[q][0])
            for p in free1:
                grad[live[p]] += 2.0 * attrs[p][0]
            # tau > 0: every live length has a positive square
            for (A, _), tau in zip(support, times):
                for p in A:
                    grad[live[p]] += 2.0 * attrs[p][0] / tau
            frees.append({vt.masks[q]: vt.attrs[q][0] for q in free2})
        # D(e): the rate at which F changes as candidate e grows from 0;
        # it pays for the input's free splits that clash with e and gains
        # the input's own length of e
        deriv = {e: math.fsum(
            2.0 * (math.sqrt(math.fsum(y * y for f, y in free.items()
                                       if f & e not in (0, e, f)))
                   - free.get(e, 0.0)) for free in frees)
            for e in set().union(*frees)}
        # a clamped split of the orthant is a candidate if some input has
        # it; otherwise its one-sided derivative is a sum of norms, >= 0
        for p in range(m):
            if x[p] == 0.0:
                grad[p] = deriv.get(v.masks[p], 0.0)
        return obj, grad, deriv, vx

    def projected(x, grad):
        return [g if c > 0.0 else min(g, 0.0) for c, g in zip(x, grad)]

    x = [_clamp(a[0]) for a in v.attrs]
    obj, grad, deriv, vx = evaluate(x)
    evaluations = 1
    step = 0.5 / n   # the exact minimiser along common splits
    while evaluations < _SOLVE_EVALS:
        eps = math.sqrt(2.0 * _CERT_GAP * n * obj)
        if math.hypot(*projected(x, grad)) <= eps:
            break
        trial = [_clamp(c - step * g) for c, g in zip(x, grad)]
        t_obj, t_grad, t_deriv, t_vx = evaluate(trial)
        evaluations += 1
        descent = math.fsum(g * (b - a) for a, b, g in zip(x, trial, grad))
        if t_obj > obj + _ARMIJO * descent:
            step *= 0.5
            continue
        # Barzilai-Borwein step from the splits positive at both points:
        # one that reached or left 0 carries the jump of the kink there
        pairs = [(b - a, h - g) for a, b, g, h in zip(x, trial, grad, t_grad)
                 if a > 0.0 and b > 0.0]
        sy = math.fsum(d * e for d, e in pairs)
        step = math.fsum(d * d for d, _ in pairs) / sy if sy > 0.0 \
            else 0.5 / n
        x, obj, grad, deriv, vx = trial, t_obj, t_grad, t_deriv, t_vx

    eps = math.sqrt(2.0 * _CERT_GAP * n * obj)
    cands = list(deriv)
    certified = (
        math.hypot(*projected(x, grad)) <= eps
        and all(d >= -eps for d in deriv.values())
        and all(a & b not in (0, a, b)
                for i, a in enumerate(cands) for b in cands[i + 1:]))
    edges = dict(zip(vx.splits, vx.attrs))
    tree = AttributedTree._trusted(start.leaves, edges,
                                   _labels((start, *trees), edges), vx)
    return tree, obj, certified, evaluations


def _search(trees, cfg):
    """Walk from the best input; with ``cfg.certify`` and scalar lengths,
    run an orthant solve after cycles 2, 4, 8, ... and stop as soon as one
    certifies."""
    n = len(trees)
    max_iter = cfg.max_iterations if cfg.max_iterations is not None \
        else 1000 * n
    # the orthant solve reads scalar lengths
    solve = cfg.certify and all(t.k in (None, 1) for t in trees)
    # start from the best input so the result never loses to an input tree;
    # each row sums d ** 2 in input order, as _objective does
    dist = distance_matrix(trees, workers=1).values.tolist()
    input_objs = [sum(d ** 2 for d in row) for row in dist]
    start = int(np.argmin(input_objs))
    best, best_obj = trees[start], input_objs[start]
    trace = [best_obj]
    cycle_objs = [best_obj]  # objective at the iterate after each cycle
    evaluations, next_solve = 0, 2
    for step, current, obj in _walk(trees, best, max_iter, cfg.seed):
        if obj < best_obj:
            best, best_obj = current, obj
        if step % n:
            trace.append(best_obj)
            break
        k = step // n
        cycle_objs.append(obj)
        if solve and k == next_solve:
            next_solve *= 2
            x, x_obj, certified, evals = _orthant_solve(current, trees)
            evaluations += evals
            if x_obj < best_obj:
                best, best_obj = x, x_obj
            if certified:
                trace.append(best_obj)
                return MeanResult(best, best_obj, trace, step, "certified",
                                  evaluations)
        trace.append(best_obj)
        if k >= 4 and abs(cycle_objs[k // 2] - obj) <= cfg.tolerance * obj:
            return MeanResult(best, best_obj, trace, step, "converged",
                              evaluations)
    return MeanResult(best, best_obj, trace, max_iter, "cap", evaluations)


def frechet_mean_detailed(trees, cfg: MeanConfig | None = None) -> MeanResult:
    """Mean search with the objective trace attached.

    ``trace`` holds the best objective seen at each full cycle through the
    inputs (and at the cap), so it is non-increasing; the returned tree is
    the best point seen, walk iterate or orthant solution, never a worse
    late one.
    """
    trees = list(trees)
    if not trees:
        raise ValueError("empty population")
    _check_trees(trees)
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
    return _search(trees, cfg)


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
    else:   # each objective is the sum variance() would compute again
        value = abs(r1.objective / (len(g1) - 1)
                    - r2.objective / (len(g2) - 1))
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
    can occur.  When the trees span several orthants, the group means
    are searched with ``certify`` on, and those of the observed split and
    the replicates are spread over ``workers``
    processes (default, and at most: the CPUs this process may run on);
    the report does not depend on how many.
    """
    workers = resolve_workers(workers)
    g1, g2 = list(g1), list(g2)
    if len(g1) < 2 or len(g2) < 2:
        raise ValueError("each group needs at least two trees")
    if kind not in ("mean", "variance"):
        raise ValueError(f"unknown statistic kind: {kind!r}")
    check(COUNT, m=m)
    pool = g1 + g2
    _check_trees(pool)
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
        cfg = MeanConfig(seed=seed, certify=True)

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


def correlation_matrix(values) -> np.ndarray:
    """Pearson correlations of the columns of ``values`` (subjects by
    rows), with ones on the diagonal."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("values must be a 2-D array")
    d = values.shape[1]
    mat = np.ones((d, d))
    for j in range(d):
        for k in range(j + 1, d):
            mat[j, k] = mat[k, j] = pearson(values[:, j], values[:, k])
    return mat
