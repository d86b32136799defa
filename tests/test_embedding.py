import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from treespace import (
    DistanceMatrix,
    EmbeddingConfig,
    classical_mds,
    distortion_report,
    embed,
    hyperbolic_distance,
    isomap_graph_distances,
    mds_pd,
    sammon_stress,
    stress_gradient,
)
from treespace.embedding import _Stress, _pairwise


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
    best = min(
        (mds_pd(target, seed=[0, r]).final_stress for r in range(5)))
    assert best <= 1e-6


def test_mds_pd_trace_monotone_and_inside_disk():
    rng = np.random.default_rng(19)
    for trial in range(3):
        target = full_matrix(disk_points(rng, 8), "hyperbolic") * (trial + 1)
        res = mds_pd(target, seed=trial)
        tr = res.stress_trace
        assert all(b <= a for a, b in zip(tr, tr[1:]))
        assert res.final_stress == tr[-1]
        assert np.all(np.hypot(res.coordinates[:, 0],
                               res.coordinates[:, 1]) < 1.0)


def test_mds_pd_iterates_stay_inside():
    # deterministic trajectory: truncated runs expose every iterate
    target = np.array([[0.0, 8.0, 9.0], [8.0, 0.0, 7.5], [9.0, 7.5, 0.0]])
    for k in range(1, 25, 3):
        cfg = EmbeddingConfig(max_iterations=k)
        res = mds_pd(target, cfg, seed=3)
        assert np.all(np.hypot(res.coordinates[:, 0],
                               res.coordinates[:, 1]) < 1.0)


def test_mds_pd_stop_reasons():
    rng = np.random.default_rng(59)
    target = full_matrix(disk_points(rng, 6), "hyperbolic")
    capped = mds_pd(target, EmbeddingConfig(max_iterations=1), seed=1)
    assert capped.stop_reason == "cap" and capped.iterations == 1
    assert len(capped.stress_trace) == 2
    full = mds_pd(target, seed=1)
    assert full.stop_reason == "converged"
    assert full.iterations == len(full.stress_trace) - 1 > 1
    # every pair at target zero: zero stress and zero gradient at the start
    zero = mds_pd(np.zeros((4, 4)), seed=1)
    assert zero.stop_reason == "stationary" and zero.iterations == 0
    assert zero.final_stress == 0.0
    for n in (0, 1):  # no pairs at all
        none = mds_pd(np.zeros((n, n)), seed=1)
        assert none.stop_reason == "stationary"
        assert none.coordinates.shape == (n, 2)
        assert full_matrix(none.coordinates, "hyperbolic").shape == (n, n)
    # an exact fit ends on a zero gradient or five flat steps, not the cap
    two = mds_pd(np.array([[0.0, 1.3], [1.3, 0.0]]))
    assert two.stop_reason in ("stationary", "converged")
    assert two.final_stress < 1e-10


def test_mds_pd_deterministic():
    rng = np.random.default_rng(23)
    target = full_matrix(disk_points(rng, 6), "hyperbolic")
    r1 = mds_pd(target, seed=7)
    r2 = mds_pd(target, seed=7)
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
    singles = [mds_pd(target, cfg, seed=[5, r]).final_stress
               for r in range(3)]
    assert res.final_stress == min(singles)
    assert res.metric == "hyperbolic"
    assert res.distortion is not None
    assert [r.final_stress for r in res.restarts] == singles
    best = singles.index(res.final_stress)
    assert res.iterations == res.restarts[best].iterations
    assert res.stop_reason == res.restarts[best].stop_reason


def test_embed_hisomap_composes():
    rng = np.random.default_rng(53)
    pts = rng.normal(size=(9, 2))
    target = full_matrix(pts, "euclidean")
    cfg = EmbeddingConfig(method="hisomap", isomap_k=4, restarts=2, seed=1)
    res = embed(target, cfg)
    graph = isomap_graph_distances(target, 4).values
    singles = [mds_pd(graph, cfg, seed=[1, r]).final_stress
               for r in range(2)]
    assert res.final_stress == min(singles)
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
