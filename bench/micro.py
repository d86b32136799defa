"""Layer micro-timings through the package's public functions.

Inputs are fixed (they do not follow the run's seed) so the numbers of one
layer compare across every run of the harness.  Each timing repeats its
batch until ``budget`` seconds have passed (at least three times) and
reports the median per unit.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from workloads import leaf_names, random_resolved_tree


def _per_unit_us(fn, units: int, budget: float, least: int = 3) -> float:
    samples = []
    start = time.perf_counter()
    while len(samples) < least or time.perf_counter() - start < budget:
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) / units * 1e6)
    return statistics.median(samples)


def _random_pairs(leaves: int, count: int):
    rng = np.random.default_rng([leaves, 4])
    names = leaf_names(leaves)
    return [(random_resolved_tree(rng, names), random_resolved_tree(rng, names))
            for _ in range(count)]


def _airway_trees(n: int):
    from treespace import airway_template, gen_tree_population
    pop = gen_tree_population(airway_template(), n, topology_noise=1.0,
                              attr_sigma=0.1, seed=0)
    return pop.trees


def _enet_instance(seed: int):
    """Standardized 16 x 9 pooled subtree features of an airway cohort with
    a 0.3 LMB shift (the population of the CLI acceptance test).  At seed 1
    the classes are nearly separable, so small-lambda fits run long."""
    from treespace import SubtreeScheme, airway_template, \
        compute_reference_means, feature_matrix, gen_tree_population
    pop = gen_tree_population(airway_template(), 16, attr_sigma=0.4,
                              class_shift={"LMB": 0.3}, seed=seed)
    scheme = SubtreeScheme()
    means = compute_reference_means(pop.trees, pop.classes, scheme, "pooled")
    fm = feature_matrix(pop.trees, scheme, means, y=pop.classes)
    X = np.asarray(fm.values, dtype=float)
    sd = X.std(axis=0)
    X = (X - X.mean(axis=0)) / np.where(sd == 0.0, 1.0, sd)
    return X, np.array([c == "case" for c in fm.y], dtype=float)


def micro_timings(ops, budget: float = 0.5, smoke: bool = False) -> dict:
    """Per-layer timings; the elastic-net path's KKT check goes to ops."""
    from treespace import AttributedTree, MeanConfig, fit_elastic_net, \
        frechet_mean_detailed, geodesic_distance, kkt_residual, \
        lambda_grid, lambda_max

    def pair_batch(pairs):
        def run():
            for a, b in pairs:
                geodesic_distance(a, b)
        return run

    airway = _airway_trees(12)
    airway_pairs = [(a, b) for i, a in enumerate(airway)
                    for b in airway[i + 1:] if a.splits != b.splits]
    batches = {
        "airway": airway_pairs,
        "rand10": _random_pairs(10, 40),
        "rand20": _random_pairs(20, 1 if smoke else 10),
        "rand40": _random_pairs(40, 1 if smoke else 4),
    }
    out = {}
    for name, pairs in batches.items():
        out[f"micro.geodesic_pair_us.{name}"] = _per_unit_us(
            pair_batch(pairs), len(pairs), budget)

    tree = airway[0]
    reps = 200

    def construct():
        for _ in range(reps):
            AttributedTree(tree.leaves, tree.edges, tree.branch_labels)

    out["micro.tree_construct_us"] = _per_unit_us(construct, reps, budget)

    steps = 20 if smoke else 200
    cfg = MeanConfig(max_iterations=steps, seed=0)
    mean_set = airway[:8]
    ran = frechet_mean_detailed(mean_set, cfg).iterations
    ops.check("micro mean runs its step budget", ran == steps, f"{ran}")
    out["micro.mean_step_us"] = _per_unit_us(
        lambda: frechet_mean_detailed(mean_set, cfg), steps, budget)

    X, y = _enet_instance(0 if smoke else 1)
    grid = lambda_grid(lambda_max(X, y, 1.0))
    path = []

    def fit_path():
        path.clear()
        warm = None
        for lam in grid:
            warm = fit_elastic_net(X, y, lam, 1.0, warm=warm)
            path.append(warm)

    # one path takes seconds on the seed code, so a single sample
    out["micro.enet_path_ms"] = _per_unit_us(fit_path, 1, 0.0, least=1) / 1e3
    worst = max(kkt_residual(m, X, y) for m in path)
    ops.check("elastic-net path KKT residual <= 1e-6", worst <= 1e-6,
              f"{worst:.3g}")
    return out
