"""Go/no-go checks for the package's headline guarantees.

One test per guarantee and one printed PASS/FAIL line each, so
``pytest -s tests/test_acceptance.py`` reads as a release checklist.
The tolerances and time budgets asserted here are contracts; loosening
any of them is an interface change, not a test fix.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from treespace import (
    AttributedTree,
    EmbeddingConfig,
    airway_template,
    book_distance,
    brute_force_distance,
    cone_distance,
    distance_matrix,
    embed,
    fit_elastic_net,
    frechet_mean,
    frechet_mean_detailed,
    gen_corner,
    gen_sheets,
    gen_tree_population,
    geodesic,
    geodesic_distance,
    hyperbolic_distance,
    kkt_residual,
    lambda_grid,
    lambda_max,
    pearson,
    permutation_test,
    sammon_stress,
    stress_gradient,
)
from treespace.cli import main as cli_main
from treespace.synthetic import BookPoint, ConePoint

from helpers import leaf_names, random_tree, random_tree_pair

S = frozenset


@contextmanager
def verdict(tag):
    try:
        yield
    except BaseException:
        print(f"{tag}: FAIL")
        raise
    print(f"{tag}: PASS")


def planted_logistic(seed, n, d):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = np.resize([1.0, -0.5, 0.0, 0.3], d)
    margin = X @ w - 0.2
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-margin))).astype(float)
    return X, y


def newton_logistic(X, y, iters=80):
    n = len(y)
    A = np.hstack([np.ones((n, 1)), X])
    b = np.zeros(A.shape[1])
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(A @ b)))
        H = (A * (p * (1 - p))[:, None]).T @ A
        b = b - np.linalg.solve(H, A.T @ (p - y))
    return b[0], b[1:]


def disk_points(rng, n, rmax=0.85):
    r = rmax * np.sqrt(rng.random(n))
    return r * np.exp(2j * np.pi * rng.random(n))


def disk_matrix(z):
    n = len(z)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = hyperbolic_distance(z[i], z[j])
    return out


def test_01_geodesic_matches_exhaustive_oracle():
    with verdict("[ 1] geodesic vs exhaustive oracle (200 pairs)"):
        rng = np.random.default_rng(1)
        t0 = time.monotonic()
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(3, 7))
            k = int(rng.integers(1, 3))
            a, b = random_tree_pair(rng, n, k=k, zero_prob=0.1)
            diff = abs(geodesic_distance(a, b)
                       - brute_force_distance(a, b))
            worst = max(worst, diff)
        elapsed = time.monotonic() - t0
        assert worst <= 1e-6
        assert elapsed < 120.0


def test_02_metric_axioms():
    with verdict("[ 2] triangle inequality and flat-region isometry"):
        rng = np.random.default_rng(2)
        leaves = leaf_names(8)
        trees = [random_tree(rng, leaves, k=3) for _ in range(50)]
        D = distance_matrix(trees).values
        # all C(50,3) triangles at once: worst detour through any midpoint
        thru = (D[:, :, None] + D[None, :, :]).min(axis=1)
        assert (D - thru).max() <= 1e-9

        base = random_tree(rng, leaves, k=3, p_keep=0.9)
        for _ in range(30):
            e1 = {s: tuple(rng.normal(size=3)) for s in base.splits}
            e2 = {s: tuple(rng.normal(size=3)) for s in base.splits}
            t1 = AttributedTree(leaves, e1)
            t2 = AttributedTree(leaves, e2)
            euclid = math.sqrt(sum(
                (x - y) ** 2
                for s in base.splits for x, y in zip(e1[s], e2[s])))
            assert abs(geodesic_distance(t1, t2) - euclid) <= 1e-12


def spider(inner, inner_len=1.0):
    edges = {S(x): (1.0,) for x in "abcd"}
    if inner_len > 0.0:
        edges[S(inner)] = (inner_len,)
    return AttributedTree(("a", "b", "c", "d"), edges)


def test_03_mean_identity_midpoint_and_sticky_origin():
    with verdict("[ 3] mean: identity, midpoint, sticky origin, descent"):
        rng = np.random.default_rng(3)
        t = random_tree(rng, leaf_names(5), k=2)
        m = frechet_mean([t])
        assert m.leaves == t.leaves and m.edges == t.edges

        a, b = random_tree_pair(rng, 5, k=2)
        mid = geodesic(a, b).point(0.5)
        assert geodesic_distance(frechet_mean([a, b]), mid) <= 1e-6

        # three equal pulls into mutually incompatible quadrants cancel at
        # the shared star; a 1-D search along each quadrant axis is exact
        trees = [spider("ab"), spider("ac"), spider("ad")]
        res = frechet_mean_detailed(trees)
        star = spider("ab", 0.0)
        assert geodesic_distance(res.tree, star) <= 1e-3
        axis_best = min(
            sum(geodesic_distance(spider(inner, r), t) ** 2 for t in trees)
            for inner in ("ab", "ac", "ad")
            for r in np.linspace(0.0, 1.0, 101))
        assert res.objective <= axis_best + 1e-9
        for hi, lo in zip(res.trace, res.trace[1:]):
            assert lo <= hi + 1e-12

        many = [random_tree(rng, leaf_names(5)) for _ in range(6)]
        tr = frechet_mean_detailed(many).trace
        for hi, lo in zip(tr, tr[1:]):
            assert lo <= hi + 1e-12


def test_04_permutation_test_calibration_and_power():
    with verdict("[ 4] permutation test: size in [.02,.08], power >= .95"):
        t0 = time.monotonic()
        tpl = airway_template()
        rejections = 0
        for trial in range(100):
            pop = gen_tree_population(tpl, 60, attr_sigma=0.1,
                                      seed=1000 + trial)
            rep = permutation_test(pop.trees[:30], pop.trees[30:],
                                   m=1000, seed=trial)
            rejections += rep.p_value <= 0.05
        assert 2 <= rejections <= 8

        strong = 0
        for trial in range(100):
            pop = gen_tree_population(tpl, 60, attr_sigma=0.1,
                                      class_shift={"LMB": 0.3},
                                      seed=5000 + trial)
            rep = permutation_test(pop.trees[:30], pop.trees[30:],
                                   m=1000, seed=trial)
            strong += rep.p_value <= 0.01
        assert strong >= 95
        assert time.monotonic() - t0 < 300.0


def test_05_elastic_net_optimality():
    with verdict("[ 5] elastic net: KKT, null model, exact fit, sparsity"):
        X, y = planted_logistic(seed=11, n=60, d=6)
        for alpha in (1.0, 0.5, 0.25):
            warm = None
            for lam in lambda_grid(lambda_max(X, y, alpha), num=20):
                warm = fit_elastic_net(X, y, lam, alpha, warm=warm)
                assert kkt_residual(warm, X, y) <= 1e-6

        lmax = lambda_max(X, y, 1.0)
        for lam in (lmax, 2.0 * lmax):
            assert np.all(fit_elastic_net(X, y, lam, 1.0).beta == 0.0)

        b0, bw = newton_logistic(X, y)
        m = fit_elastic_net(X, y, 0.0, 1.0)
        assert abs(m.intercept - b0) <= 1e-6
        assert np.abs(m.beta - bw).max() <= 1e-6

        Xm, ym = planted_logistic(seed=2, n=200, d=4)
        for alpha in (1.0, 0.5):
            warm, sizes = None, []
            for lam in lambda_grid(lambda_max(Xm, ym, alpha), num=30):
                warm = fit_elastic_net(Xm, ym, lam, alpha, warm=warm)
                assert kkt_residual(warm, Xm, ym) <= 1e-6
                sizes.append(len(warm.selected))
            assert sizes == sorted(sizes)


def test_06_disk_metric_and_gradients():
    with verdict("[ 6] disk metric: ln 3, 100 isometries, 100 gradients"):
        assert hyperbolic_distance(0j, 0.5 + 0j) == pytest.approx(
            math.log(3.0), abs=1e-12)

        rng = np.random.default_rng(6)
        for _ in range(100):
            a = disk_points(rng, 1, rmax=0.8)[0]
            phase = np.exp(2j * np.pi * rng.random())
            pts = disk_points(rng, 10)
            moved = phase * (pts - a) / (1.0 - np.conj(a) * pts)
            for i in range(0, 10, 2):
                before = hyperbolic_distance(pts[i], pts[i + 1])
                after = hyperbolic_distance(moved[i], moved[i + 1])
                assert abs(before - after) <= 1e-10

        h = 1e-6
        for cfg in range(100):
            metric = "euclidean" if cfg % 2 else "hyperbolic"
            z = disk_points(rng, 5)
            pts = np.stack([z.real, z.imag], axis=1)
            if metric == "euclidean":
                ref = rng.normal(size=(5, 2))
                target = np.sqrt(
                    ((ref[:, None] - ref[None]) ** 2).sum(axis=2))
            else:
                target = disk_matrix(disk_points(rng, 5))
            grad = stress_gradient(target, pts, metric)
            for i in (0, 3):
                for c in (0, 1):
                    hi, lo = pts.copy(), pts.copy()
                    hi[i, c] += h
                    lo[i, c] -= h
                    fd = (sammon_stress(target, hi, metric)
                          - sammon_stress(target, lo, metric)) / (2 * h)
                    scale = max(abs(fd), abs(grad[i, c]), 1e-8)
                    assert abs(grad[i, c] - fd) / scale <= 1e-5


def test_07_disk_embedding_descent_and_recovery():
    with verdict("[ 7] disk embedding: monotone, recovers, stays inside"):
        rng = np.random.default_rng(17)
        target = disk_matrix(disk_points(rng, 10, rmax=0.7))
        finals = []
        for res in embed(target, EmbeddingConfig(restarts=5)).restarts:
            finals.append(res.final_stress)
            tr = res.stress_trace
            assert all(b <= a for a, b in zip(tr, tr[1:]))
            assert np.all(np.hypot(res.coordinates[:, 0],
                                   res.coordinates[:, 1]) < 1.0)
        assert min(finals) <= 1e-6

        # truncated budgets replay the same trajectory, exposing every
        # intermediate iterate to the inside-the-disk check
        for k in (1, 4, 16, 64, 256):
            res, = embed(target, EmbeddingConfig(max_iterations=k,
                                                 restarts=1)).restarts
            assert np.all(np.hypot(res.coordinates[:, 0],
                                   res.coordinates[:, 1]) < 1.0)


def test_08_curved_embedding_beats_flat_on_glued_sheets():
    with verdict("[ 8] five glued sheets: hyperbolic beats flat MDS"):
        for dim in (2, 3):
            ds = gen_sheets(5, dim, per_sheet=50, seed=0)
            flat = embed(ds.matrix, EmbeddingConfig(method="mds"))
            flat_mult = flat.distortion.multiplicative
            curved = []
            for s in range(10):
                t0 = time.monotonic()
                res = embed(ds.matrix, EmbeddingConfig(
                    method="hmds", restarts=2, seed=s))
                assert time.monotonic() - t0 < 180.0
                curved.append(res.distortion.multiplicative)
            assert float(np.median(curved)) < flat_mult


def test_09_exact_synthetic_metrics():
    with verdict("[ 9] cone/book metrics: continuity, spine, triangles"):
        eps = 1e-7
        lo = cone_distance(ConePoint(1.3, 0.0), ConePoint(0.7, math.pi - eps))
        hi = cone_distance(ConePoint(1.3, 0.0), ConePoint(0.7, math.pi + eps))
        assert abs(lo - hi) <= 1e-12

        u, v = (0.3, -1.2), (1.1, 0.4)
        flat = math.dist(u, v)
        for sa, sb in ((0, 3), (1, 2), (4, 4)):
            got = book_distance(BookPoint(sa, u, 0.0), BookPoint(sb, v, 0.0))
            assert abs(got - flat) <= 1e-12

        rng = np.random.default_rng(9)
        for ds in (gen_corner(80, seed=1),
                   gen_sheets(5, 3, per_sheet=16, seed=2)):
            D = ds.matrix.values
            n = len(D)
            i, j, k = rng.integers(0, n, size=(3, 10_000))
            assert (D[i, j] - D[i, k] - D[k, j]).max() <= 1e-9


def test_10_correlation_closed_forms():
    with verdict("[10] correlation: formula oracle, self pair, 3/5"):
        rng = np.random.default_rng(10)
        for _ in range(50):
            x = rng.normal(size=20)
            y = rng.normal(size=20)
            xc, yc = x - x.mean(), y - y.mean()
            ref = float((xc @ yc) / math.sqrt((xc @ xc) * (yc @ yc)))
            assert abs(pearson(x, y) - ref) <= 1e-12
            assert pearson(x, x) == pytest.approx(1.0, abs=1e-12)
        assert pearson((1, 2, 3, 4), (2, 1, 4, 3)) == pytest.approx(
            0.6, abs=1e-12)


def _run_cli_suite(out: Path, threads: str):
    out.mkdir(parents=True)
    o = str(out)

    def go(*argv):
        assert cli_main([*argv, "--threads", threads,
                         "--deterministic"]) == 0

    go("gen", "trees", "-o", f"{o}/pop.json", "--n", "16",
       "--attr-sigma", "0.4", "--class-shift", '{"LMB": 0.3}',
       "--seed", "5")
    go("gen", "corner", "-o", f"{o}/corner.json", "--n", "15",
       "--seed", "4")
    go("gen", "sheets", "-o", f"{o}/sheets.json", "--sheets", "2",
       "--dim", "2", "--per-sheet", "5", "--seed", "6")
    go("dist", "--input", f"{o}/pop.json", "-o", f"{o}/dist.csv")
    go("mean", "--input", f"{o}/pop.json", "-o", f"{o}/mean.json")
    go("permtest", "--groups", f"{o}/pop.json", "-o", f"{o}/perm.json",
       "--M", "200", "--seed", "2")
    go("subtree-features", "--input", f"{o}/pop.json",
       "-o", f"{o}/feats.csv", "--mode", "pooled")
    go("classify", "--features", f"{o}/feats.csv", "-o", f"{o}/cv.json",
       "--alphas", "1.0", "--folds", "4", "--repeats", "1", "--seed", "3")
    go("knn", "--matrix", f"{o}/dist.csv", "-o", f"{o}/knn.json",
       "--k", "3", "--folds", "2")
    go("correlate", "--input", f"{o}/pop.json", "-o", f"{o}/corr")
    go("embed", "--input", f"{o}/corner.csv", "-o", f"{o}/emb",
       "--method", "hmds", "--restarts", "2")
    go("distortion", "--original", f"{o}/corner.csv",
       "--embedded", f"{o}/corner.csv", "-o", f"{o}/ident.json")

    # manifests record the invocation itself (argv, thread count), so they
    # are the one output allowed to differ between these runs
    return {
        p.relative_to(out): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and not p.name.endswith("manifest.json")
    }


def test_11_cli_byte_deterministic_across_threads(tmp_path):
    with verdict("[11] CLI: byte-identical reruns, any --threads"):
        first = _run_cli_suite(tmp_path / "a", "1")
        again = _run_cli_suite(tmp_path / "b", "1")
        wide = _run_cli_suite(tmp_path / "c", "2")
        assert set(first) == set(again) == set(wide)
        assert len(first) >= 18
        for name in first:
            assert first[name] == again[name], name
            assert first[name] == wide[name], name
