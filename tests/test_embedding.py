import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from treespace import (
    DistanceMatrix,
    EmbeddingConfig,
    classical_mds,
    distance_matrix,
    distortion_report,
    embed,
    hyperbolic_distance,
    isomap_graph_distances,
    mds_pd,
    sammon_stress,
    stress_gradient,
)
from treespace.cli import main
from treespace.embedding import (_Stress, _disk_start, _distances, _pairs,
                                 _pairwise, _square)

from test_geodesic import _pinned_populations


def disk_points(rng, n, rmax=0.85):
    r = rmax * np.sqrt(rng.random(n))
    th = rng.random(n) * 2 * np.pi
    return r * np.exp(1j * th)


def full_matrix(points, metric):
    return _pairwise(points, metric)


def stress_cases():
    """Named (target, points, metric) cases whose stress and gradient are
    pinned in data/stress_reference.json.

    Targets are plane distances of unrelated points, so no case depends on
    the code under test.  The degenerate cases hold a coincident pair
    (1, 4) at a positive target, a zero-target pair (2, 5) at distinct
    points, and a coincident zero-target pair (0, 6).
    """
    rng = np.random.default_rng(2024)
    cases = {}
    for metric in ("euclidean", "hyperbolic"):
        for n in (2, 7, 30):
            z = disk_points(rng, n, 0.9)
            pts = np.stack([z.real, z.imag], axis=1)
            target = 1.5 * squareform(pdist(rng.normal(size=(n, 2))))
            cases[f"{metric}-{n}"] = (target, pts, metric)
        z = disk_points(rng, 7, 0.9)
        z[4], z[6] = z[1], z[0]
        pts = np.stack([z.real, z.imag], axis=1)
        target = 1.5 * squareform(pdist(rng.normal(size=(7, 2))))
        target[2, 5] = target[5, 2] = target[0, 6] = target[6, 0] = 0.0
        cases[f"{metric}-degenerate"] = (target, pts, metric)
    pts = rng.normal(size=(7, 3))
    pts[4] = pts[1]
    target = squareform(pdist(rng.normal(size=(7, 3))))
    target[2, 5] = target[5, 2] = 0.0
    cases["euclidean-3d"] = (target, pts, "euclidean")
    return cases


STRESS_REFERENCE = Path(__file__).parent / "data" / "stress_reference.json"


# ---------------------------------------------------------------------------
# the disk metric
# ---------------------------------------------------------------------------

def test_distance_closed_forms():
    assert hyperbolic_distance(0j, 0.5 + 0j) == pytest.approx(math.log(3.0),
                                                              abs=1e-12)
    assert hyperbolic_distance(0j, 0.8 + 0j) == pytest.approx(math.log(9.0),
                                                              abs=1e-12)
    assert hyperbolic_distance(0.3 + 0.4j, 0.3 + 0.4j) == 0.0
    assert hyperbolic_distance((0.0, 0.0), (0.5, 0.0)) == pytest.approx(
        math.log(3.0), abs=1e-12)


def test_distance_symmetric_and_positive():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = disk_points(rng, 2)
        assert hyperbolic_distance(a, b) == hyperbolic_distance(b, a)
        if a != b:
            assert hyperbolic_distance(a, b) > 0.0


def test_distance_rejects_boundary():
    with pytest.raises(ValueError):
        hyperbolic_distance(1.0 + 0j, 0j)
    with pytest.raises(ValueError):
        hyperbolic_distance(0j, 1.2 + 0j)


def test_distance_invariant_under_disk_automorphisms():
    # rotations composed with Möbius translations are the isometries here
    rng = np.random.default_rng(2)
    pts = disk_points(rng, 6)
    before = full_matrix(pts, "hyperbolic")
    for _ in range(100):
        a = disk_points(rng, 1)[0] * 0.9
        theta = rng.random() * 2 * np.pi
        moved = np.exp(1j * theta) * (pts - a) / (1.0 - np.conj(a) * pts)
        after = full_matrix(moved, "hyperbolic")
        assert np.abs(after - before).max() < 1e-10


# ---------------------------------------------------------------------------
# stress and its gradient
# ---------------------------------------------------------------------------

def test_stress_zero_at_exact_fit():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(5, 2))
    target = full_matrix(pts, "euclidean")
    assert sammon_stress(target, pts, "euclidean") == pytest.approx(0.0,
                                                                    abs=1e-30)
    z = disk_points(rng, 5)
    ht = full_matrix(z, "hyperbolic")
    assert sammon_stress(ht, z, "hyperbolic") == pytest.approx(0.0, abs=1e-30)


def test_stress_unit_triangle_doubled():
    # all target distances 1, all embedded distances 2: every pair
    # contributes (2-1)^2/1, normalized by the total weight 3
    target = np.ones((3, 3)) - np.eye(3)
    side = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, math.sqrt(3.0)]])
    assert sammon_stress(target, side, "euclidean") == pytest.approx(1.0,
                                                                     abs=1e-12)


def test_stress_matches_double_loop():
    rng = np.random.default_rng(5)
    for metric in ("euclidean", "hyperbolic"):
        z = disk_points(rng, 7)
        pts = np.stack([z.real, z.imag], axis=1)
        if metric == "euclidean":
            target = full_matrix(rng.normal(size=(7, 2)), metric)
        else:
            target = full_matrix(disk_points(rng, 7), metric)
        got = sammon_stress(target, pts, metric)
        num = 0.0
        den = 0.0
        for j in range(7):
            for k in range(j + 1, 7):
                if metric == "euclidean":
                    d = math.dist(pts[j], pts[k])
                else:
                    d = hyperbolic_distance(z[j], z[k])
                num += (d - target[j, k]) ** 2 / target[j, k]
                den += target[j, k]
        assert got == pytest.approx(num / den, abs=1e-12)


def test_stress_errors():
    target = np.ones((3, 3)) - np.eye(3)
    for fn in (sammon_stress, stress_gradient):
        for metric in ("euclidean", "hyperbolic"):
            for n in (1, 2, 4):
                with pytest.raises(ValueError, match="match target size"):
                    fn(target, np.zeros((n, 2)), metric)
            with pytest.raises(ValueError):
                fn(np.ones((3, 4)), np.zeros((3, 2)), metric)
        with pytest.raises(ValueError):
            fn(target, np.zeros((3, 2)), metric="spherical")


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-6
    for metric in ("euclidean", "hyperbolic"):
        for _ in range(10):
            z = disk_points(rng, 5)
            pts = np.stack([z.real, z.imag], axis=1)
            if metric == "euclidean":
                target = full_matrix(rng.normal(size=(5, 2)), metric)
            else:
                target = full_matrix(disk_points(rng, 5), metric)
            grad = stress_gradient(target, pts, metric)
            for i in (0, 3):
                for c in (0, 1):
                    hi = pts.copy()
                    lo = pts.copy()
                    hi[i, c] += h
                    lo[i, c] -= h
                    fd = (sammon_stress(target, hi, metric)
                          - sammon_stress(target, lo, metric)) / (2 * h)
                    scale = max(abs(fd), abs(grad[i, c]), 1e-8)
                    assert abs(grad[i, c] - fd) / scale < 1e-5


def test_gradient_two_points_opposite():
    target = np.array([[0.0, 1.0], [1.0, 0.0]])
    pts = np.array([[0.1, 0.0], [0.45, 0.2]])
    for metric in ("euclidean", "hyperbolic"):
        g = stress_gradient(target, pts, metric)
        if metric == "euclidean":
            assert np.abs(g[0] + g[1]).max() < 1e-12


def test_gradient_vanishes_at_exact_fit():
    rng = np.random.default_rng(11)
    z = disk_points(rng, 6)
    target = full_matrix(z, "hyperbolic")
    pts = np.stack([z.real, z.imag], axis=1)
    assert np.abs(stress_gradient(target, pts, "hyperbolic")).max() < 1e-10
    pe = rng.normal(size=(6, 2))
    te = full_matrix(pe, "euclidean")
    assert np.abs(stress_gradient(te, pe, "euclidean")).max() < 1e-10


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 160])
def test_kernel_matches_scipy_bit_for_bit(n, d):
    # the NumPy kernel's condensed norms are pdist's, and its square forms
    # squareform's, signed zeros included
    rng = np.random.default_rng(100 * n + d)
    pairs = _pairs(n)
    for scale in (1e-150, 1e-3, 1.0, 1e4, 1e150):
        x = scale * rng.normal(size=(n, d))
        if n > 2:
            x[2] = x[0]           # a coincident pair has norm +0
            x[1, 0] = -0.0
        nn = _distances(x, False, pairs)[0]
        assert nn.tobytes() == pdist(x).tobytes()
        v = nn.copy()
        v[::2] *= -1.0
        v[1::4] = 0.0
        v[2::4] = -0.0
        square = _square(v, pairs[2])
        if n:  # squareform reads an empty vector as one point
            assert square.tobytes() == squareform(v).tobytes()
        else:
            assert square.shape == (0, 0)
        assert _pairwise(x, "euclidean").tobytes() == \
            (squareform(pdist(x)) if n else np.zeros((0, 0))).tobytes()


def test_disk_stress_matches_public_functions():
    # the condensed distances that _Stress, embedded_matrix and the
    # distortion report share agree with the scalar hyperbolic_distance
    rng = np.random.default_rng(13)
    for n, rmax in ((2, 0.5), (8, 0.85), (8, 0.999999)):
        z = disk_points(rng, n, rmax)
        z[-1] = z[0]  # a coincident pair has distance zero
        ref = np.array([[hyperbolic_distance(a, b) for b in z] for a in z])
        pts = np.stack([z.real, z.imag], axis=1)
        full = _pairwise(pts, "hyperbolic")
        assert full.shape == (n, n)
        assert np.allclose(full, ref, rtol=1e-9, atol=1e-12)
        fn = _Stress(np.zeros((n, n)), "hyperbolic")
        iu = np.triu_indices(n, 1)
        _, err, _, _ = fn.eval(pts)[1]  # err = dist at a zero target
        assert np.allclose(err, ref[iu], rtol=1e-9, atol=1e-12)


def test_stress_and_gradient_match_pinned_values():
    # values recorded on the earlier separate plane and disk
    # implementations (dense plane arithmetic, condensed bincount disk
    # gradient), so the shared kernel is held to both
    ref = json.loads(STRESS_REFERENCE.read_text())
    cases = stress_cases()
    assert sorted(ref) == sorted(cases)
    for name, (target, pts, metric) in cases.items():
        want = ref[name]
        got = sammon_stress(target, pts, metric)
        assert got == pytest.approx(want["stress"], rel=1e-12, abs=0), name
        grad = stress_gradient(target, pts, metric)
        expect = np.array(want["gradient"])
        assert grad.shape == expect.shape == pts.shape, name
        assert np.abs(grad - expect).max() <= 1e-12 * np.abs(expect).max(), \
            name
        if metric == "hyperbolic":  # complex points give the same values
            z = pts[:, 0] + 1j * pts[:, 1]
            assert sammon_stress(target, z, metric) == got
            assert np.array_equal(stress_gradient(target, z, metric), grad)


# ---------------------------------------------------------------------------
# the hyperbolic embedder
# ---------------------------------------------------------------------------

def test_mds_pd_two_points():
    target = np.array([[0.0, 1.3], [1.3, 0.0]])
    res = mds_pd(target)
    z = res.coordinates[:, 0] + 1j * res.coordinates[:, 1]
    assert hyperbolic_distance(z[0], z[1]) == pytest.approx(1.3, abs=1e-5)
    assert res.final_stress < 1e-10


def test_mds_pd_recovers_disk_configuration():
    rng = np.random.default_rng(17)
    z = disk_points(rng, 10, rmax=0.7)
    target = full_matrix(z, "hyperbolic")
    best = min(r.final_stress for r in embed(target).restarts)
    assert best <= 1e-6


def test_mds_pd_trace_monotone_and_inside_disk():
    rng = np.random.default_rng(19)
    for trial in range(3):
        target = full_matrix(disk_points(rng, 8), "hyperbolic") * (trial + 1)
        res = mds_pd(target, EmbeddingConfig(seed=trial))
        tr = res.stress_trace
        assert all(b <= a for a, b in zip(tr, tr[1:]))
        assert res.final_stress == tr[-1]
        assert np.all(np.hypot(res.coordinates[:, 0],
                               res.coordinates[:, 1]) < 1.0)


def test_mds_pd_iterates_stay_inside():
    # deterministic trajectory: truncated runs expose every iterate
    target = np.array([[0.0, 8.0, 9.0], [8.0, 0.0, 7.5], [9.0, 7.5, 0.0]])
    for k in range(1, 25, 3):
        res = mds_pd(target, EmbeddingConfig(max_iterations=k, seed=3))
        assert np.all(np.hypot(res.coordinates[:, 0],
                               res.coordinates[:, 1]) < 1.0)


def test_mds_pd_stop_reasons():
    rng = np.random.default_rng(59)
    target = full_matrix(disk_points(rng, 6), "hyperbolic")
    capped = mds_pd(target, EmbeddingConfig(max_iterations=1, seed=1))
    assert capped.stop_reason == "cap" and capped.iterations == 1
    assert len(capped.stress_trace) == 2
    full = mds_pd(target, EmbeddingConfig(seed=1))
    assert full.stop_reason == "converged"
    assert full.iterations == len(full.stress_trace) - 1 > 1
    # every pair at target zero: zero stress and zero gradient at the start
    zero = mds_pd(np.zeros((4, 4)), EmbeddingConfig(seed=1))
    assert zero.stop_reason == "stationary" and zero.iterations == 0
    assert zero.final_stress == 0.0
    for n in (0, 1):  # no pairs at all
        none = mds_pd(np.zeros((n, n)), EmbeddingConfig(seed=1))
        assert none.stop_reason == "stationary"
        assert none.coordinates.shape == (n, 2)
        assert full_matrix(none.coordinates, "hyperbolic").shape == (n, n)
    # an exact fit ends on a zero gradient or five flat steps, not the cap
    two = mds_pd(np.array([[0.0, 1.3], [1.3, 0.0]]))
    assert two.stop_reason in ("stationary", "converged")
    assert two.final_stress < 1e-10


def test_mds_pd_fits_realizable_configurations_exactly():
    # every restart starts from classical MDS in the disk, inside the exact
    # fit's basin, and a fit rounded to zero stress stops "converged"
    for t in range(12):
        target = full_matrix(disk_points(np.random.default_rng(100 + t), 6),
                             "hyperbolic")
        for r in range(5):
            res = mds_pd(target, EmbeddingConfig(seed=r))
            assert res.final_stress <= 1e-20, (t, r)
            assert res.stop_reason == "converged", (t, r)


def test_mds_pd_clamps_a_start_beyond_the_float64_disk():
    # classical MDS puts these points 45, 15, 5 and 55 from their mean, and
    # tanh(r / 2) rounds to 1 beyond r ~ 38: two starts need the clamp
    xs = np.array([0.0, 30.0, 50.0, 100.0])
    target = np.abs(xs[:, None] - xs[None, :])
    assert np.count_nonzero(np.abs(_disk_start(target)) == 1.0) == 2
    for seed in range(3):
        res = mds_pd(target, EmbeddingConfig(seed=seed))
        assert np.all(np.hypot(res.coordinates[:, 0],
                               res.coordinates[:, 1]) < 1.0)
        tr = res.stress_trace
        assert np.all(np.isfinite(tr))
        assert all(b <= a for a, b in zip(tr, tr[1:]))


def test_mds_pd_deterministic():
    rng = np.random.default_rng(23)
    target = full_matrix(disk_points(rng, 6), "hyperbolic")
    r1 = mds_pd(target, EmbeddingConfig(seed=7))
    r2 = mds_pd(target, EmbeddingConfig(seed=7))
    assert np.array_equal(r1.coordinates, r2.coordinates)
    assert r1.stress_trace == r2.stress_trace


# ---------------------------------------------------------------------------
# flat embeddings
# ---------------------------------------------------------------------------

def test_classical_mds_triangle():
    target = np.array([[0.0, 3.0, 4.0],
                       [3.0, 0.0, 5.0],
                       [4.0, 5.0, 0.0]])
    coords = classical_mds(target)
    got = full_matrix(coords, "euclidean")
    assert np.abs(got - target).max() < 1e-9


def test_classical_mds_collinear():
    xs = np.array([0.0, 1.0, 2.5, 4.0])
    target = np.abs(xs[:, None] - xs[None, :])
    coords = classical_mds(target)
    got = full_matrix(coords, "euclidean")
    assert np.abs(got - target).max() < 1e-9
    # one dimension suffices, so the second coordinate collapses to
    # eigensolver noise
    spread = coords - coords.mean(axis=0)
    assert np.abs(spread[:, 1]).max() < 1e-6


def test_classical_mds_isometric_on_realizable():
    rng = np.random.default_rng(29)
    pts = rng.normal(size=(12, 2))
    target = full_matrix(pts, "euclidean")
    rep = distortion_report(target, full_matrix(classical_mds(target),
                                                "euclidean"))
    assert rep.multiplicative == pytest.approx(1.0, abs=1e-9)


def test_isomap_line_equals_input():
    xs = np.arange(5, dtype=float)
    target = np.abs(xs[:, None] - xs[None, :])
    for k in (2, 4):
        sp = isomap_graph_distances(target, k)
        assert np.abs(sp.values - target).max() < 1e-12


def test_isomap_disconnected_names_components():
    pts = np.array([0.0, 0.1, 50.0, 50.1])
    target = np.abs(pts[:, None] - pts[None, :])
    dm = DistanceMatrix(("a", "b", "c", "d"), target)
    with pytest.raises(ValueError, match="disconnected") as err:
        isomap_graph_distances(dm, 1)
    assert "'a'" in str(err.value) and "'c'" in str(err.value)


def test_isomap_names_array_points_one_way():
    # a plain array's points are p0, p1, ... in the error and the result
    pts = np.array([0.0, 0.1, 50.0, 50.1])
    target = np.abs(pts[:, None] - pts[None, :])
    with pytest.raises(ValueError, match=r"\[\['p0', 'p1'\], "
                                         r"\['p2', 'p3'\]\]; raise k"):
        isomap_graph_distances(target, 1)
    assert isomap_graph_distances(target, 2).ids == ("p0", "p1", "p2", "p3")


def test_isomap_complete_graph_identity():
    rng = np.random.default_rng(31)
    pts = rng.normal(size=(6, 3))
    target = full_matrix(pts[:, :2], "euclidean")
    sp = isomap_graph_distances(target, 5)
    assert np.array_equal(sp.values, target)


# ---------------------------------------------------------------------------
# distortion
# ---------------------------------------------------------------------------

def test_distortion_identity_and_scaling():
    rng = np.random.default_rng(37)
    pts = rng.normal(size=(8, 2))
    target = full_matrix(pts, "euclidean")
    rep = distortion_report(target, target)
    assert rep.multiplicative == pytest.approx(1.0, abs=1e-15)
    assert np.all(rep.ratios == 1.0)
    doubled = distortion_report(target, 2.0 * target)
    assert np.all(doubled.ratios == 0.5)
    assert doubled.multiplicative == pytest.approx(1.0, abs=1e-15)
    assert doubled.histogram_counts.sum() == 8 * 7 // 2


def test_distortion_matches_double_loop():
    rng = np.random.default_rng(41)
    a = full_matrix(rng.normal(size=(7, 2)), "euclidean")
    b = full_matrix(rng.normal(size=(7, 2)), "euclidean")
    rep = distortion_report(a, b)
    ratios = [a[j, k] / b[j, k] for j in range(7) for k in range(j + 1, 7)]
    assert rep.max_distortion == pytest.approx(max(ratios), abs=1e-12)
    assert rep.min_distortion == pytest.approx(min(ratios), abs=1e-12)
    assert rep.multiplicative == pytest.approx(max(ratios) / min(ratios),
                                               abs=1e-12)


def test_distortion_rejects_collapsed_pairs():
    target = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        distortion_report(target, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        distortion_report(target, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# the dispatching front end
# ---------------------------------------------------------------------------

def test_embed_mds_on_realizable_data():
    rng = np.random.default_rng(43)
    pts = rng.normal(size=(10, 2))
    dm = DistanceMatrix(tuple(f"p{i}" for i in range(10)),
                        full_matrix(pts, "euclidean"),
                        tuple("ab" * 5))
    res = embed(dm, EmbeddingConfig(method="mds"))
    assert res.metric == "euclidean"
    assert res.distortion.multiplicative == pytest.approx(1.0, abs=1e-6)
    assert res.ids == dm.ids
    assert res.labels == dm.labels
    back = res.embedded_matrix()
    assert back.ids == dm.ids
    assert np.abs(back.values - dm.values).max() < 1e-9


def test_embed_hmds_keeps_best_restart():
    rng = np.random.default_rng(47)
    z = disk_points(rng, 7, rmax=0.6)
    target = full_matrix(z, "hyperbolic")
    cfg = EmbeddingConfig(method="hmds", restarts=3, seed=5)
    res = embed(target, cfg)
    singles = [r.final_stress for r in res.restarts]
    assert len(singles) == 3
    assert res.final_stress == min(singles)
    assert res.metric == "hyperbolic"
    assert res.distortion is not None
    # restart r starts from the seed [5, r], whatever the restart count
    fewer = embed(target, replace(cfg, restarts=2)).restarts
    assert [r.final_stress for r in fewer] == singles[:2]
    best = singles.index(res.final_stress)
    assert np.array_equal(res.coordinates, res.restarts[best].coordinates)
    assert res.iterations == res.restarts[best].iterations
    assert res.stop_reason == res.restarts[best].stop_reason


def test_embed_hisomap_composes():
    rng = np.random.default_rng(53)
    pts = rng.normal(size=(9, 2))
    target = full_matrix(pts, "euclidean")
    cfg = EmbeddingConfig(method="hisomap", isomap_k=4, restarts=2, seed=1)
    res = embed(target, cfg)
    graph = isomap_graph_distances(target, 4).values
    singles = [r.final_stress for r in res.restarts]
    assert len(singles) == 2
    assert res.final_stress == min(singles)
    # every restart fits the graph distances
    for r in res.restarts:
        assert sammon_stress(graph, r.coordinates, "hyperbolic") == \
            r.final_stress
    # the distortion report still compares against the original input
    emb = full_matrix(res.coordinates, "hyperbolic")
    direct = distortion_report(target, emb)
    assert res.distortion.multiplicative == direct.multiplicative


def test_embed_config_validation():
    with pytest.raises(ValueError):
        EmbeddingConfig(method="tsne")
    with pytest.raises(ValueError):
        EmbeddingConfig(isomap_k=0)
    with pytest.raises(ValueError):
        EmbeddingConfig(max_iterations=0)


# ---------------------------------------------------------------------------
# pinned command bytes
# ---------------------------------------------------------------------------

def _embed_inputs(tmp_path):
    """Distance CSVs: a corner, dim-3 glued sheets, and a tree-map-style
    matrix of 40 random fully resolved 10-leaf trees."""
    o = str(tmp_path)
    assert main(["gen", "corner", "-o", f"{o}/corner.json", "--n", "30",
                 "--seed", "3"]) == 0
    assert main(["gen", "sheets", "-o", f"{o}/sheets.json", "--sheets", "3",
                 "--dim", "3", "--per-sheet", "8", "--seed", "4"]) == 0
    trees = next(_pinned_populations())
    (tmp_path / "trees.csv").write_text(distance_matrix(trees).to_csv())
    return {name: tmp_path / f"{name}.csv"
            for name in ("corner", "sheets", "trees")}


# the input, then the embed options of each pinned run
_PINNED_EMBED_RUNS = {
    **{f"{data}-{method}": (data, ["--method", method, "--restarts", "2",
                                   "--max-iterations", "300",
                                   "--isomap-k", "6"])
       for data in ("corner", "sheets")
       for method in ("hmds", "hisomap", "mds")},
    "trees-hmds": ("trees", ["--method", "hmds", "--restarts", "2",
                             "--max-iterations", "200"]),
}

_EMBED_OUTPUTS = ("coordinates.csv", "embedding.json", "scatter.svg",
                  "histogram.svg")

# sha256 of each run's outputs.  The mds runs were recorded with the SciPy
# pdist/squareform stress kernel and serial restarts, which the NumPy
# kernel and the pooled restarts must keep to the byte; the hmds and
# hisomap runs were re-recorded when the disk descent began at classical
# MDS carried into the disk, whose start is built once before the pool
_PINNED_EMBED_SHA256 = {
    "corner-hmds": [
        "2d0b8f8f927e909896ddf5bae3ba8e93a14a3406517713bcb9d4d0b36bffc674",
        "d713afd24e9cc0955c9cf42c901d1d8f4d05ee1e05afa18b82a4faa1745c7d6c",
        "74a06c858e984eb5640b74ac595087f876ccdf29b898ebd43c8dce7b5c9570fa",
        "d8a8bfb421dbc5b1acd573503c86e6ecded71f4ef3a8a0a6c4184e120074802f",
    ],
    "corner-hisomap": [
        "a8c6aa004f229d37c43b153727d43bb8752d3421cc5a60cecffbee6c0174f63e",
        "e854e8a118cc8cf3cd897d9afe80228523369464e9c7bdd3a64d6dfc7284dc56",
        "e38fbea0b4c20fa7aff31ce07022cecd43db2cca4f80627f551fa5efe815be5a",
        "e61b597de8cf58e8d925328d0cd4f537fcc7dfe43d0e6a87b2bb2b4fdb7732f8",
    ],
    "corner-mds": [
        "53460f04ac4057686545a435f8ebf39f0dcbd7cf7b65b66833617d979891bf5e",
        "c160bc7820f1c7ccfa2b389c900a155d3d5100341096f36e7846e15d7771c7dd",
        "30157d1d7310704b22a917e41dcfb4034b22e17e30ca6d08ad60ec9c119e6ca7",
        "9450a3e7fedd02602c3ff0b4cb56b99a77e71ad2684357ba161d70db1c09e5e8",
    ],
    "sheets-hmds": [
        "3bab4e3939d15e8a2432270b3c0096627d2e99b45bd4a0894857d8daeadda7c8",
        "6ff52c8bf5e02c5459f3a6b80eae296bf6247cd10031469d10c58b2fc51f2d20",
        "88315c2b5218c34c19ddaf2773293f36bc1762f768aa764d9b660345efc220e1",
        "3df584618c55052d6420be110ef3df2509f98e75fe86cebc69e81f5e91cd571a",
    ],
    "sheets-hisomap": [
        "ae4a2fc5cccc09afa37ba36eff23d222f16b091aaa9c5203a0a5a86882cfbbf7",
        "c5c71ea7a4a13e29caf6c0e9eb03f5ae8d7e63271db6e3d006cc68e8746278cf",
        "7ee247307086cd8f386dec38eaf8150f2db45cebfb584a15be23a65abd376b74",
        "a870ea80e6ccb3fcb892136364cd22fe584b30351a75787e4fb3ec3dbb20a670",
    ],
    "sheets-mds": [
        "fd386252a9f29d3f991f6427c0e8167812c90590e88dd8c556f9f6ed1fa187b4",
        "905132acad6fc687c49a043fa9dd40b859ba0b9917a42eb9b95d13255158d19b",
        "bc6e9f98fd9bff9d7e2729f5aba4ba7f393a51a291db6ed7bd0d0786e91daf26",
        "78f563a958ff3a12277201d39973e270fe83d394ac79bb0f9cd7b1ba065c1b57",
    ],
    "trees-hmds": [
        "13184cb4dbaa671288d409426ad321463e2b8280734a2b382644dc4eab178bac",
        "21081689d6760425678bd7c7bc55faf284598f3e1a30aed481a398ffaef14b91",
        "371dbd9f6157b0885c48db0e95516920171010acf4f09190ec2e2aa00b8bbb7e",
        "e58c626cee453889e9fb6b41c80c4aa085995a6fa7ae7011bc37ad49b03e5e33",
    ],
}


def test_embed_bytes_pinned(tmp_path):
    inputs = _embed_inputs(tmp_path)
    diagnostics = {}
    for name, (data, options) in _PINNED_EMBED_RUNS.items():
        for threads in ("1", "2"):
            out = tmp_path / f"{name}-{threads}"
            assert main(["embed", "--input", str(inputs[data]), "-o",
                         str(out), *options, "--seed", "7", "--threads",
                         threads, "--deterministic"]) == 0
            got = [hashlib.sha256((out / f).read_bytes()).hexdigest()
                   for f in _EMBED_OUTPUTS]
            assert got == _PINNED_EMBED_SHA256[name], (name, threads)
            manifest = json.loads((out / "manifest.json").read_text())
            diagnostics.setdefault(name, manifest["diagnostics"])
            assert manifest["diagnostics"] == diagnostics[name]
