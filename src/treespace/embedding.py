"""Two-dimensional embeddings of distance matrices, flat and hyperbolic.

Singular spaces (cones with excess angle, books of glued sheets, tree
space) carry more room around a point than the plane does, so flat
embeddings must distort.  The hyperbolic plane, realized here as the
Poincaré disk with

    d(z1, z2) = 2 atanh( |z1 - z2| / |1 - z1 conj(z2)| ),

has exponentially growing circles and absorbs that excess.  ``mds_pd``
fits disk points by steepest descent on the Sammon stress

    E = (1 / sum delta) * sum (d - delta)^2 / delta

(pairs with delta = 0, i.e. duplicate inputs, are left out of the sums),
taking steps along Möbius translations so iterates stay inside the disk.
Flat counterparts: classical MDS on double-centered squared distances, and
Isomap, which first replaces the input metric by shortest paths in a
k-nearest-neighbor graph.

Embedded-versus-original quality is summarized by the per-pair ratios
original/embedded: the dataset distortion is max ratio over min ratio, and
additive errors (embedded - original) are binned for histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.spatial.distance import pdist

from .distmat import DistanceMatrix

__all__ = [
    "hyperbolic_distance",
    "sammon_stress",
    "stress_gradient",
    "mds_pd",
    "classical_mds",
    "isomap_graph_distances",
    "embed",
    "distortion_report",
    "EmbeddingConfig",
    "EmbeddingResult",
    "DistortionReport",
]

_BOUNDARY = 1.0 - 1e-10  # |z| is clamped here; the metric blows up at 1


def _as_complex(points) -> np.ndarray:
    pts = np.asarray(points)
    if pts.dtype.kind == "c":
        return pts.astype(complex).ravel()
    pts = np.atleast_2d(pts.astype(float))
    if pts.shape[1] != 2:
        raise ValueError("points must be complex or (n, 2) coordinates")
    return pts[:, 0] + 1j * pts[:, 1]


def hyperbolic_distance(z1, z2) -> float:
    """Poincaré-disk distance between two points (complex or (x, y))."""
    a = complex(z1) if np.isscalar(z1) or isinstance(z1, complex) \
        else complex(*z1)
    b = complex(z2) if np.isscalar(z2) or isinstance(z2, complex) \
        else complex(*z2)
    if abs(a) >= 1.0 or abs(b) >= 1.0:
        raise ValueError("points must lie strictly inside the unit disk")
    u = abs(a - b) / abs(1 - a * b.conjugate())
    return 2.0 * math.atanh(min(u, np.nextafter(1.0, 0.0)))


def _target_values(target) -> np.ndarray:
    if isinstance(target, DistanceMatrix):
        return target.values
    arr = np.asarray(target, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("target must be a square distance matrix")
    return arr


def _pairwise(points, metric) -> np.ndarray:
    if metric == "euclidean":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        diff = pts[:, None, :] - pts[None, :, :]
        return np.sqrt((diff ** 2).sum(axis=2))
    if metric == "hyperbolic":
        z = _as_complex(points)
        iu = np.triu_indices(len(z), 1)
        d = np.zeros((len(z), len(z)))
        d[iu] = _disk_terms(z, *iu)["dist"]
        return d + d.T
    raise ValueError(f"unknown metric: {metric!r}")


def _disk_stress(target, points):
    delta = _target_values(target)
    z = _as_complex(points)
    if len(z) != len(delta):
        raise ValueError("points do not match target size")
    return _DiskStress(delta), z


def sammon_stress(target, points, metric: str = "euclidean") -> float:
    """Relative squared misfit of embedded to target distances."""
    if metric == "hyperbolic":
        fn, z = _disk_stress(target, points)
        return fn.eval(z)["stress"]
    delta = _target_values(target)
    d = _pairwise(points, metric)
    if d.shape != delta.shape:
        raise ValueError("points do not match target size")
    iu = np.triu_indices(len(delta), k=1)
    dv, tv = d[iu], delta[iu]
    keep = tv > 0.0
    if not np.any(keep):
        return 0.0
    return float((((dv[keep] - tv[keep]) ** 2) / tv[keep]).sum()
                 / tv[keep].sum())


def stress_gradient(target, points, metric: str = "euclidean") -> np.ndarray:
    """Analytic gradient of the stress in disk/plane coordinates, (n, 2)."""
    if metric == "hyperbolic":
        fn, z = _disk_stress(target, points)
        g = fn.gradient(z, fn.eval(z))
        return np.stack([g.real, g.imag], axis=1)
    if metric != "euclidean":
        raise ValueError(f"unknown metric: {metric!r}")
    delta = _target_values(target)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if len(pts) != len(delta):
        raise ValueError("points do not match target size")
    iu = np.triu_indices(len(delta), k=1)
    total = delta[iu][delta[iu] > 0.0].sum()
    if total == 0.0:
        return np.zeros_like(pts)
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    ok = (delta > 0.0) & (dist > 0.0)
    coef = np.zeros_like(dist)
    coef[ok] = (2.0 / total) * (dist[ok] - delta[ok]) / delta[ok]
    unit = np.zeros_like(diff)
    unit[ok] = diff[ok] / dist[ok][:, None]
    return (coef[:, :, None] * unit).sum(axis=1)


# ---------------------------------------------------------------------------
# hyperbolic embedding by steepest descent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingConfig:
    method: str = "hmds"
    isomap_k: int = 10
    max_iterations: int = 10000
    stress_tolerance: float = 1e-9
    seed: int = 0
    restarts: int = 5
    bins: int = 20

    def __post_init__(self):
        if self.method not in ("mds", "isomap", "hmds", "hisomap"):
            raise ValueError(f"unknown method: {self.method!r}")
        if self.isomap_k < 1:
            raise ValueError("isomap_k must be at least 1")
        if self.stress_tolerance <= 0 or self.max_iterations < 1:
            raise ValueError("tolerances must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


@dataclass
class DistortionReport:
    max_distortion: float
    min_distortion: float
    multiplicative: float
    ratios: np.ndarray
    histogram_counts: np.ndarray
    histogram_edges: np.ndarray

    def to_json(self) -> dict:
        return {
            "multiplicative": self.multiplicative,
            "max": self.max_distortion,
            "min": self.min_distortion,
            "histogram": {
                "edges": [float(e) for e in self.histogram_edges],
                "counts": [int(c) for c in self.histogram_counts],
            },
        }


@dataclass
class EmbeddingResult:
    method: str
    metric: str
    coordinates: np.ndarray
    final_stress: float
    stress_trace: list[float]
    distortion: DistortionReport | None = None
    ids: tuple[str, ...] | None = None
    labels: tuple[str, ...] | None = None

    def embedded_matrix(self) -> DistanceMatrix:
        ids = self.ids or tuple(f"p{i}" for i in range(len(self.coordinates)))
        return DistanceMatrix(ids, _pairwise(self.coordinates, self.metric),
                              self.labels)


def _clamp_disk(z: np.ndarray) -> np.ndarray:
    mag = np.abs(z)
    over = mag > _BOUNDARY
    if np.any(over):
        z = z.copy()
        z[over] *= _BOUNDARY / mag[over]
    return z


def _init_disk(n, rng) -> np.ndarray:
    r = 0.5 * np.sqrt(rng.random(n))
    theta = rng.random(n) * 2.0 * np.pi
    return r * np.exp(1j * theta)


_UMAX = np.nextafter(1.0, 0.0)


def _disk_terms(z: np.ndarray, iu0, iu1) -> dict:
    """Disk distances of the pairs (iu0, iu1), condensed, with the terms
    the stress gradient reuses."""
    nn = pdist(np.stack([z.real, z.imag], axis=1))
    nn2 = nn * nn
    a2 = 1.0 - (z.real * z.real + z.imag * z.imag)
    # |1 - z_j conj(z_k)|^2 = (1 - |z_j|^2)(1 - |z_k|^2) + |z_j - z_k|^2
    ww2 = a2[iu0] * a2[iu1] + nn2
    u2 = np.minimum(nn2 / ww2, _UMAX)
    u = np.sqrt(u2)
    dist = 2.0 * np.arctanh(np.minimum(u, _UMAX))
    return {"nn2": nn2, "ww2": ww2, "u2": u2, "u": u, "dist": dist,
            "a2": a2}


class _DiskStress:
    """Disk stress and gradient over condensed pairs.

    The one implementation behind the hyperbolic sammon_stress and
    stress_gradient.  It works on the upper-triangle vectors only, so the
    descent loop does not rebuild n x n scratch matrices every trial step.
    """

    def __init__(self, delta: np.ndarray):
        n = len(delta)
        self.n = n
        self.iu0, self.iu1 = np.triu_indices(n, 1)
        tv = delta[self.iu0, self.iu1]
        keep = tv > 0.0
        self.tv = tv
        # zero-target pairs (duplicate inputs) drop out of both sums
        self.inv_tv = np.where(keep, 1.0 / np.where(keep, tv, 1.0), 0.0)
        self.total = float(tv[keep].sum())

    def eval(self, z: np.ndarray) -> dict:
        ev = _disk_terms(z, self.iu0, self.iu1)
        err = ev["dist"] - self.tv
        if self.total == 0.0:
            stress = 0.0
        else:
            stress = float((err * err * self.inv_tv).sum() / self.total)
        ev.update(err=err, stress=stress)
        return ev

    def gradient(self, z: np.ndarray, ev: dict) -> np.ndarray:
        if self.total == 0.0:
            return np.zeros(self.n, dtype=complex)
        zu = z[self.iu0]
        zv = z[self.iu1]
        diff = zu - zv
        w = 1.0 - zu * np.conj(zv)
        kappa = (4.0 / self.total) * ev["err"] * self.inv_tv / (1.0 - ev["u2"])
        # the 1e-300 pad keeps coincident points (nn2 = 0) finite; their
        # numerator is exactly zero so the contribution stays zero
        q1 = kappa / np.sqrt(ev["nn2"] * ev["ww2"] + 1e-300)
        t2 = (kappa * ev["u"] / ev["ww2"]) * w
        base = q1 * diff
        tj = base + t2 * zv
        tk = np.conj(t2) * zu - base
        n = self.n
        gx = np.bincount(self.iu0, tj.real, minlength=n) \
            + np.bincount(self.iu1, tk.real, minlength=n)
        gy = np.bincount(self.iu0, tj.imag, minlength=n) \
            + np.bincount(self.iu1, tk.imag, minlength=n)
        return gx + 1j * gy


def mds_pd(target, cfg: EmbeddingConfig | None = None,
           seed=None) -> EmbeddingResult:
    """Hyperbolic embedding by gradient descent in the Poincaré disk.

    Points start uniform over the radius-0.5 disk and move along Möbius
    translations opposite the stress gradient.  The trial step size is
    spectral (Barzilai-Borwein from the last displacement/gradient change)
    and every step is vetted by backtracking with a sufficient-decrease
    test, so recorded stresses never increase.  Stops when the relative
    stress decrease stays below the tolerance for five iterations in a
    row, or on a failed line search.
    """
    cfg = cfg or EmbeddingConfig()
    delta = _target_values(target)
    n = len(delta)
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    z = _init_disk(n, rng)
    fn = _DiskStress(delta)
    ev = fn.eval(z)
    stress = ev["stress"]
    trace = [stress]
    eta = 1.0
    flat = 0
    prev_z = None
    prev_d = None
    for _ in range(cfg.max_iterations):
        gc = fn.gradient(z, ev)
        a2 = ev["a2"]
        d = -gc * a2
        slope = float((a2 * (gc.real * gc.real + gc.imag * gc.imag)).sum())
        if slope == 0.0:
            break
        if prev_z is not None:
            s = z - prev_z
            y = prev_d - d
            sy = float(np.real(np.vdot(s, y)))
            if sy > 0.0:
                eta = min(float(np.real(np.vdot(s, s))) / sy, 1e4)
            else:
                eta = min(eta * 2.0, 1.0)
        accepted = False
        for _ in range(40):
            u = eta * d
            if np.all(np.abs(u) < 1.0):
                znew = _clamp_disk((z + u) / (1.0 + np.conj(u) * z))
                evnew = fn.eval(znew)
                if evnew["stress"] <= stress - 1e-4 * eta * slope:
                    accepted = True
                    break
            eta *= 0.5
        if not accepted:
            break
        prev_z, prev_d = z, d
        drop = (stress - evnew["stress"]) / max(stress, 1e-300)
        z, ev, stress = znew, evnew, evnew["stress"]
        trace.append(stress)
        flat = flat + 1 if drop < cfg.stress_tolerance else 0
        if flat >= 5:
            break
    coords = np.stack([z.real, z.imag], axis=1)
    return EmbeddingResult(cfg.method, "hyperbolic", coords, stress, trace)


# ---------------------------------------------------------------------------
# flat embeddings
# ---------------------------------------------------------------------------

def classical_mds(target, dim: int = 2) -> np.ndarray:
    """Spectral coordinates from double-centered squared distances.

    Exact (up to rigid motion) whenever the target is realizable in
    ``dim`` Euclidean dimensions; negative eigenvalues are truncated.
    """
    delta = _target_values(target)
    n = len(delta)
    d2 = delta ** 2
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ d2 @ j
    vals, vecs = np.linalg.eigh(b)
    order = np.argsort(vals)[::-1][:dim]
    coords = np.zeros((n, dim))
    for c, i in enumerate(order):
        lam = vals[i]
        if lam <= 0.0:
            continue
        v = vecs[:, i]
        if v[np.argmax(np.abs(v))] < 0:  # fix the sign convention
            v = -v
        coords[:, c] = math.sqrt(lam) * v
    return coords


def isomap_graph_distances(target, k: int) -> DistanceMatrix:
    """Shortest-path distances in the k-nearest-neighbor graph.

    Neighborhoods are symmetrized by union.  Raises when the graph is
    disconnected, naming the components, so the caller can raise ``k``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    dm = target if isinstance(target, DistanceMatrix) else None
    delta = _target_values(target)
    n = len(delta)
    graph = np.zeros((n, n))
    for i in range(n):
        order = np.argsort(delta[i], kind="stable")
        picked = [j for j in order if j != i][:k]
        for j in picked:
            graph[i, j] = graph[j, i] = delta[i, j]
    mask = graph > 0
    ncomp, labels = connected_components(mask, directed=False)
    if ncomp > 1 and n > 1:
        comps = [list(np.flatnonzero(labels == c)) for c in range(ncomp)]
        ids = dm.ids if dm is not None else tuple(str(i) for i in range(n))
        named = [[ids[i] for i in comp] for comp in comps]
        raise ValueError(
            f"neighbor graph is disconnected into {ncomp} components: "
            f"{named}; raise k")
    sp = shortest_path(np.where(mask, graph, 0.0), method="D",
                       directed=False)
    ids = dm.ids if dm is not None else tuple(f"p{i}" for i in range(n))
    return DistanceMatrix(ids, sp, dm.labels if dm is not None else None)


def distortion_report(original, embedded, bins: int = 20) \
        -> DistortionReport:
    """Per-pair ratios original/embedded plus additive error histogram.

    Pairs at original distance zero are left out of the ratios; a zero
    embedded distance between distinct points is an error.  The histogram
    of embedded - original covers every pair.
    """
    orig = _target_values(original)
    emb = _target_values(embedded)
    if orig.shape != emb.shape:
        raise ValueError("matrices differ in shape")
    iu = np.triu_indices(len(orig), k=1)
    ov, ev = orig[iu], emb[iu]
    bad = (ov > 0.0) & (ev == 0.0)
    if np.any(bad):
        raise ValueError(
            f"zero embedded distance between {int(bad.sum())} distinct "
            f"pairs")
    keep = ov > 0.0
    ratios = ov[keep] / ev[keep]
    if len(ratios):
        mx, mn = float(ratios.max()), float(ratios.min())
        mult = mx / mn
    else:
        mx = mn = mult = float("nan")
    errors = ev - ov
    counts, edges = np.histogram(errors, bins=bins)
    return DistortionReport(mx, mn, mult, ratios, counts, edges)


def embed(target, cfg: EmbeddingConfig | None = None) -> EmbeddingResult:
    """Dispatch on ``cfg.method`` and attach a distortion report.

    Isomap variants fit to graph distances but the distortion report always
    compares against the original input.  Hyperbolic methods run
    ``cfg.restarts`` seeded starts and keep the lowest-stress one.
    """
    cfg = cfg or EmbeddingConfig()
    dm = target if isinstance(target, DistanceMatrix) else None
    delta = _target_values(target)

    fit_target = delta
    if cfg.method in ("isomap", "hisomap"):
        fit_target = isomap_graph_distances(target, cfg.isomap_k).values

    if cfg.method in ("mds", "isomap"):
        coords = classical_mds(fit_target)
        stress = sammon_stress(fit_target, coords, "euclidean")
        result = EmbeddingResult(cfg.method, "euclidean", coords, stress,
                                 [stress])
    else:
        best = None
        for r in range(cfg.restarts):
            run = mds_pd(fit_target, cfg, seed=[cfg.seed, r])
            if best is None or run.final_stress < best.final_stress:
                best = run
        result = EmbeddingResult(cfg.method, "hyperbolic", best.coordinates,
                                 best.final_stress, best.stress_trace)
    if dm is not None:
        result.ids = dm.ids
        result.labels = dm.labels
    emb = _pairwise(result.coordinates, result.metric)
    result.distortion = distortion_report(delta, emb, cfg.bins)
    return result
