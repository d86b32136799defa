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
It starts from classical MDS carried into the disk by the exponential map
at the origin, as h-MDS does, with a small seeded offset per restart.
Flat counterparts: classical MDS on double-centered squared distances, and
Isomap, which first replaces the input metric by shortest paths in a
k-nearest-neighbor graph.

Embedded-versus-original quality is summarized by the per-pair ratios
original/embedded: the dataset distortion is max ratio over min ratio, and
additive errors (embedded - original) are binned for histograms.

The stress kernel is NumPy only: its condensed pair distances carry the
bits of SciPy's ``pdist`` and its square forms those of ``squareform``.
Only Isomap's neighbor graph uses SciPy, imported when it runs, so the
disk and classical MDS embeddings never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._bounds import COUNT, check
from ._pool import fork_map, resolve_workers
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
_UMAX = np.nextafter(1.0, 0.0)  # u = tanh(d / 2) is capped here
_FLAT_DROP = 1e-9  # mds_pd: a relative stress drop below this is flat
_EPS = np.finfo(float).eps  # mds_pd: a stress at or below this is an exact fit


def hyperbolic_distance(z1, z2) -> float:
    """Poincaré-disk distance between two points (complex or (x, y))."""
    a, b = (complex(z) if np.isscalar(z) else complex(*z) for z in (z1, z2))
    if abs(a) >= 1.0 or abs(b) >= 1.0:
        raise ValueError("points must lie strictly inside the unit disk")
    u = abs(a - b) / abs(1 - a * b.conjugate())
    return 2.0 * math.atanh(min(u, _UMAX))


def _target_values(target) -> np.ndarray:
    if isinstance(target, DistanceMatrix):
        return target.values
    arr = np.asarray(target, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("target must be a square distance matrix")
    return arr


def _coords(points, metric) -> np.ndarray:
    """Points as a contiguous real (n, d) array.  Complex points read as
    (x, y); the disk takes only 2-D points."""
    if metric not in ("euclidean", "hyperbolic"):
        raise ValueError(f"unknown metric: {metric!r}")
    pts = np.asarray(points)
    if pts.dtype.kind == "c":
        return pts.astype(complex).ravel().view(float).reshape(-1, 2)
    pts = np.atleast_2d(pts.astype(float))
    if metric == "hyperbolic" and pts.shape[1] != 2:
        raise ValueError("points must be complex or (n, 2) coordinates")
    return np.ascontiguousarray(pts)


def _pairs(n: int) -> tuple:
    """The condensed layout of n points, in pdist order (row i holds the
    pairs (i, j), j > i): each point's count of later partners, the
    partners row by row, and the upper-triangle mask that scatters the
    pairs into a square form."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    return np.arange(n - 1, -1, -1), np.nonzero(mask)[1], mask


def _square(v: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The symmetric matrix of condensed values v.  Both halves are
    copies of v, so signed zeros survive, as in squareform."""
    m = np.zeros(mask.shape)
    m[mask] = v
    m.T[mask] = v
    return m


def _distances(x: np.ndarray, disk: bool, pairs: tuple) -> tuple:
    """Condensed distances of the real points x, with the disk's u^2 and
    |1 - z_j conj(z_k)|^2 (None in the plane), which the stress gradient
    reuses.  The norms carry pdist's bits: coordinate squares are summed
    in coordinate order before the square root."""
    rows, cols, _ = pairs
    diff = np.repeat(x, rows, axis=0)
    diff -= x.take(cols, axis=0)
    diff *= diff
    nn = np.zeros(len(diff))
    for column in diff.T:
        nn += column
    np.sqrt(nn, out=nn)
    if not disk:
        return nn, nn, None, None
    nn2 = nn * nn
    a2 = 1.0 - (x * x).sum(axis=1)
    # |1 - z_j conj(z_k)|^2 = (1 - |z_j|^2)(1 - |z_k|^2) + |z_j - z_k|^2
    ww2 = np.repeat(a2, rows)
    ww2 *= a2[cols]
    ww2 += nn2
    u2 = np.divide(nn2, ww2, out=nn2)
    np.minimum(u2, _UMAX, out=u2)
    dist = np.sqrt(u2)
    np.minimum(dist, _UMAX, out=dist)
    np.arctanh(dist, out=dist)
    dist *= 2.0
    return nn, dist, u2, ww2


def _pairwise(points, metric) -> np.ndarray:
    x = _coords(points, metric)
    pairs = _pairs(len(x))
    return _square(_distances(x, metric == "hyperbolic", pairs)[1], pairs[2])


class _Stress:
    """Sammon stress against one target, and its gradient, in the plane or
    the disk: the one implementation behind sammon_stress,
    stress_gradient and mds_pd.

    E = sum w (d - delta)^2 over condensed pairs, w = 1 / (delta sum delta)
    and 0 on zero-target pairs.  Evaluating, which every backtracking
    trial does, stays on the condensed vectors; only the gradient builds
    n x n matrices.
    """

    def __init__(self, delta: np.ndarray, metric: str):
        self.pairs = _pairs(len(delta))
        self.disk = metric == "hyperbolic"
        self.tv = delta[self.pairs[2]]
        keep = self.tv > 0.0
        self.w = np.zeros_like(self.tv)
        self.w[keep] = 1.0 / (self.tv[keep] * self.tv[keep].sum())

    def eval(self, x: np.ndarray) -> tuple[float, tuple]:
        """The stress at x and the pair terms its gradient reuses."""
        nn, dist, u2, ww2 = _distances(x, self.disk, self.pairs)
        # in the plane dist is nn, which the gradient still needs
        err = np.subtract(dist, self.tv, out=dist if self.disk else None)
        sq = err * err
        sq *= self.w
        # a numpy sum: a threaded BLAS dot rounds by the thread count
        return float(sq.sum()), (nn, err, u2, ww2)

    def gradient(self, x: np.ndarray, terms: tuple) -> np.ndarray:
        """dE/dx as (n, d): g = x (Q1 - T r^2) - (Q - T) x, with r^2 = |x|^2
        and Q, T the square forms of the pair coefficients q and t.

        In the plane q = 2 err w / d and T = 0.  On the disk d = 2 atanh u
        with u = |z_j - z_k| / |1 - z_j conj(z_k)|, so q carries the extra
        factor 2 / ((1 - u^2) |1 - z_j conj(z_k)|) and t = q u^2.
        Coincident points (d = 0) get q = 0; their pair has no direction.
        """
        nn, err, u2, ww2 = terms
        mask = self.pairs[2]
        c = 2.0 * err
        c *= self.w
        if self.disk:
            f = 1.0 - u2
            f *= np.sqrt(ww2)
            c *= np.divide(2.0, f, out=f)
        q = np.divide(c, nn, out=np.zeros_like(c), where=nn > 0.0)
        qm = _square(q, mask)
        scale = qm.sum(axis=1)
        if self.disk:
            tm = _square(np.multiply(q, u2, out=q), mask)
            scale -= tm @ (x * x).sum(axis=1)
            qm -= tm
        return x * scale[:, None] - qm @ x


def _stress_setup(target, points, metric) -> tuple[_Stress, np.ndarray]:
    delta = _target_values(target)
    x = _coords(points, metric)
    if len(x) != len(delta):
        raise ValueError("points do not match target size")
    return _Stress(delta, metric), x


def sammon_stress(target, points, metric: str = "euclidean") -> float:
    """Relative squared misfit of embedded to target distances."""
    fn, x = _stress_setup(target, points, metric)
    return fn.eval(x)[0]


def stress_gradient(target, points, metric: str = "euclidean") -> np.ndarray:
    """Analytic gradient of the stress in disk/plane coordinates, (n, d)."""
    fn, x = _stress_setup(target, points, metric)
    return fn.gradient(x, fn.eval(x)[1])


# ---------------------------------------------------------------------------
# hyperbolic embedding by steepest descent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingConfig:
    """Settings of ``embed``.  ``isomap_k``, ``max_iterations`` (per
    restart), ``restarts`` and the distortion histogram's ``bins`` are
    positive integers; anything else raises ValueError."""

    method: str = "hmds"
    isomap_k: int = 10
    max_iterations: int = 10000
    seed: int = 0
    restarts: int = 5
    bins: int = 20

    def __post_init__(self):
        if self.method not in ("mds", "isomap", "hmds", "hisomap"):
            raise ValueError(f"unknown method: {self.method!r}")
        check(COUNT, isomap_k=self.isomap_k, restarts=self.restarts,
              max_iterations=self.max_iterations, bins=self.bins)


@dataclass
class DistortionReport:
    # None when no pair has a positive original distance
    max_distortion: float | None
    min_distortion: float | None
    multiplicative: float | None
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
    # descent steps taken and why they stopped: "converged", "cap",
    # "line_search" or "stationary"; the closed-form flat methods take 0
    iterations: int = 0
    stop_reason: str = "converged"
    # every mds_pd start of a hyperbolic embed, in seed order
    restarts: tuple[EmbeddingResult, ...] = ()

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


def _disk_start(delta: np.ndarray) -> np.ndarray:
    """Classical MDS of delta carried into the disk by the exponential map
    at the origin: planar radius r goes to |z| = tanh(r / 2), so each
    point lies at hyperbolic distance r from the origin.  Far points round
    to |z| = 1; the descent clamps them, since the float64 disk holds no
    point beyond hyperbolic radius 2 atanh(1 - 1e-10) ~ 23.7."""
    xy = classical_mds(delta)
    r = np.hypot(xy[:, 0], xy[:, 1])
    scale = np.divide(np.tanh(0.5 * r), r, out=np.zeros_like(r),
                      where=r > 0.0)
    return (xy[:, 0] + 1j * xy[:, 1]) * scale


def _real(z: np.ndarray) -> np.ndarray:
    """The (n, 2) real view of contiguous complex points."""
    return z.view(float).reshape(-1, 2)


def mds_pd(target, cfg: EmbeddingConfig | None = None) -> EmbeddingResult:
    """Hyperbolic embedding by gradient descent in the Poincaré disk.

    Points start at the planar classical MDS of the target carried into
    the disk, radius r to |z| = tanh(r / 2), each moved by an offset of
    at most 0.005 drawn from ``cfg.seed`` (``embed`` draws restart r's
    from [cfg.seed, r]).  They move along Möbius translations opposite
    the stress gradient.  The trial step size is spectral (Barzilai-Borwein
    from the last displacement/gradient change) and every step is vetted
    by backtracking with a sufficient-decrease test, so recorded stresses
    never increase.  The result's stop_reason
    is "converged" once the relative stress drop stays below 1e-9 for five
    steps in a row, "stationary" at a zero gradient, "line_search" when
    40 halvings find no decrease, and "cap" after cfg.max_iterations steps.
    A failed line search from a stress at or below float64 epsilon is
    "converged": that is an exact fit, whose rounding no step can lower.
    """
    cfg = cfg or EmbeddingConfig()
    delta = _target_values(target)
    return _descend(_Stress(delta, "hyperbolic"), _disk_start(delta), cfg,
                    cfg.seed)


def _descend(fn: _Stress, start: np.ndarray, cfg: EmbeddingConfig,
             seed) -> EmbeddingResult:
    """mds_pd's descent from the seeded perturbation of ``start``."""
    rng = np.random.default_rng(seed)
    z = _clamp_disk(start + 0.01 * _init_disk(len(start), rng))
    stress, terms = fn.eval(_real(z))
    trace = [stress]
    eta = 1.0
    flat = 0
    prev_z = prev_d = None
    reason = "cap"
    for _ in range(cfg.max_iterations):
        x = _real(z)
        g = fn.gradient(x, terms)
        a2 = 1.0 - (x * x).sum(axis=1)
        d = -a2 * g.view(complex)[:, 0]
        slope = float((a2 * (g * g).sum(axis=1)).sum())
        if slope == 0.0:
            reason = "stationary"
            break
        if prev_z is not None:
            s = z - prev_z
            y = prev_d - d
            sy = float(np.real(np.vdot(s, y)))
            if sy > 0.0:
                eta = min(float(np.real(np.vdot(s, s))) / sy, 1e4)
            else:
                eta = min(eta * 2.0, 1.0)
        for _ in range(40):
            u = eta * d
            if np.all(np.abs(u) < 1.0):
                znew = _clamp_disk((z + u) / (1.0 + np.conj(u) * z))
                snew, tnew = fn.eval(_real(znew))
                if snew <= stress - 1e-4 * eta * slope:
                    break
            eta *= 0.5
        else:
            reason = "converged" if stress <= _EPS else "line_search"
            break
        prev_z, prev_d = z, d
        drop = (stress - snew) / max(stress, 1e-300)
        z, terms, stress = znew, tnew, snew
        trace.append(stress)
        flat = flat + 1 if drop < _FLAT_DROP else 0
        if flat >= 5:
            reason = "converged"
            break
    return EmbeddingResult(cfg.method, "hyperbolic", _real(z), stress, trace,
                           iterations=len(trace) - 1, stop_reason=reason)


# ---------------------------------------------------------------------------
# flat embeddings
# ---------------------------------------------------------------------------

def classical_mds(target) -> np.ndarray:
    """Planar coordinates from double-centered squared distances.

    Exact (up to rigid motion) whenever the target is realizable in the
    Euclidean plane; negative eigenvalues are truncated.
    """
    delta = _target_values(target)
    n = len(delta)
    d2 = delta ** 2
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ d2 @ j
    vals, vecs = np.linalg.eigh(b)
    order = np.argsort(vals)[::-1][:2]
    coords = np.zeros((n, 2))
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
    check(COUNT, k=k)
    from scipy.sparse.csgraph import connected_components, shortest_path
    dm = target if isinstance(target, DistanceMatrix) else None
    delta = _target_values(target)
    n = len(delta)
    ids = dm.ids if dm is not None else tuple(f"p{i}" for i in range(n))
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
        named = [[ids[i] for i in comp] for comp in comps]
        raise ValueError(
            f"neighbor graph is disconnected into {ncomp} components: "
            f"{named}; raise k")
    sp = shortest_path(np.where(mask, graph, 0.0), method="D",
                       directed=False)
    return DistanceMatrix(ids, sp, dm.labels if dm is not None else None)


def distortion_report(original, embedded, bins: int = 20) \
        -> DistortionReport:
    """Per-pair ratios original/embedded plus additive error histogram.

    Pairs at original distance zero are left out of the ratios, and with
    no pair left the ratio summaries are None; a zero embedded distance
    between distinct points is an error.  The histogram of embedded -
    original covers every pair.
    """
    check(COUNT, bins=bins)
    orig = _target_values(original)
    emb = _target_values(embedded)
    if orig.shape != emb.shape:
        raise ValueError("matrices differ in shape")
    mask = _pairs(len(orig))[2]
    ov, ev = orig[mask], emb[mask]
    bad = (ov > 0.0) & (ev == 0.0)
    if np.any(bad):
        raise ValueError(
            f"zero embedded distance between {int(bad.sum())} distinct "
            f"pairs")
    keep = ov > 0.0
    ratios = ov[keep] / ev[keep]
    mx = mn = mult = None
    if len(ratios):
        mx, mn = float(ratios.max()), float(ratios.min())
        mult = mx / mn
    errors = ev - ov
    counts, edges = np.histogram(errors, bins=bins)
    return DistortionReport(mx, mn, mult, ratios, counts, edges)


def embed(target, cfg: EmbeddingConfig | None = None,
          workers: int | None = None) -> EmbeddingResult:
    """Dispatch on ``cfg.method`` and attach a distortion report.

    Isomap variants fit to graph distances but the distortion report always
    compares against the original input.  Hyperbolic methods run
    ``cfg.restarts`` seeded starts and keep the first of the lowest
    stress.  The starts run on up to ``workers`` processes (None: every
    CPU this process may run on); the result does not depend on how many.
    """
    cfg = cfg or EmbeddingConfig()
    workers = resolve_workers(workers)
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
        # one kernel and one start for every restart, built before forking:
        # n x n BLAS runs far slower in the workers
        fn = _Stress(fit_target, "hyperbolic")
        start = _disk_start(fit_target)
        runs = tuple(fork_map(
            lambda r: _descend(fn, start, cfg, [cfg.seed, r]),
            range(cfg.restarts), workers))
        best = min(runs, key=lambda run: run.final_stress)
        result = replace(best, restarts=runs)
    if dm is not None:
        result.ids = dm.ids
        result.labels = dm.labels
    emb = _pairwise(result.coordinates, result.metric)
    result.distortion = distortion_report(delta, emb, cfg.bins)
    return result
