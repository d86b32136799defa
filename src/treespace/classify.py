"""Sparse logistic classification over subtree features, plus a kNN baseline.

The model minimizes the penalized negative log-likelihood

    sum_i [log(1 + exp(eta_i)) - y_i eta_i]
        + lambda * (alpha |beta|_1 + (1 - alpha)/2 |beta|_2^2)

with eta = intercept + X beta and the intercept left unpenalized.  The
solver takes proximal Newton steps: feature-sign search minimizes the
loss's quadratic model plus the exact penalty, and a line search on the
true objective makes every step a descent step.  Each model reports its
Newton steps and why the fit stopped.

Cross-validation is stratified and repeated.  Accuracies are reported on a
common lambda grid, and additionally with a nested protocol where each
training fold picks its own lambda by an inner 5-fold split, so the nested
accuracy never peeks at its test fold.

SciPy (for ``expit``) is imported inside the functions that fit, apply or
check a model, so importing this module, as every CLI call does, does not
load it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ._bounds import (ABOVE_ZERO, COUNT, FRACTION, FROM_ZERO, MIX, TWO_UP,
                      check)
from .distmat import DistanceMatrix

__all__ = [
    "ElasticNetModel",
    "fit_elastic_net",
    "predict_proba",
    "predict",
    "penalized_objective",
    "kkt_residual",
    "lambda_max",
    "lambda_grid",
    "CvReport",
    "cross_validate",
    "KnnReport",
    "knn_classify",
]


@dataclass
class ElasticNetModel:
    beta: np.ndarray
    intercept: float
    lam: float
    alpha: float
    iterations: int = 0                 # Newton steps taken by the fit
    stop_reason: str | None = None      # converged, cap or line_search

    @property
    def selected(self) -> tuple[int, ...]:
        return tuple(int(j) for j in np.flatnonzero(self.beta))


def _check_xy(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != len(y):
        raise ValueError("X must be (n, d) with matching y")
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite feature value")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("y must be binary 0/1")
    return X, y


def _newton_direction(H, g, w, thr, l2):
    """Minimizer of q(v) = g.(v - w) + (v - w)'H(v - w)/2 + thr.|v| +
    l2.v^2/2, by feature-sign search (Lee, Battle, Raina & Ng 2006).

    From w's support and signs, each round solves for q's minimizer with
    the signs held.  A flipped sign moves v to the lowest of the solve and
    the points toward it where a flipped coefficient is zero; else the
    worst violator among the zero coefficients joins.  A singular or
    inexact solve gives way to a proximal step.  Each round lowers q, so
    a direction left unfinished after 100 rounds still descends.
    """
    def q(u):
        d = u - w
        return g @ d + 0.5 * d @ H @ d + thr @ np.abs(u) + 0.5 * l2 @ (u * u)

    free = thr == 0.0
    v, sign = w, np.sign(w)
    for _ in range(100):
        on = (sign != 0.0) | free
        S = np.flatnonzero(on)
        M = H[np.ix_(S, S)] + np.diag(l2[S])
        b = H[S] @ w - g[S] - thr[S] * sign[S]
        try:
            z = np.linalg.solve(M, b)
        except np.linalg.LinAlgError:   # singular: keep v if it solves it
            z = v[S]
        solved = abs(M @ z - b).max(initial=0) <= 1e-9 * abs(b).max(initial=0)
        if not solved:
            mu = 1e-8 * (abs(M).max(initial=0) or 1.0)
            z = np.linalg.solve(M + mu * np.eye(len(S)), b + mu * v[S])
        u = np.zeros_like(w)
        u[S] = z
        flip = (np.sign(u) != sign) & ~free
        if flip.any() or not solved:
            ks = np.flatnonzero(flip & (v != 0.0))
            cross = v + (v[ks] / (v[ks] - u[ks]))[:, None] * (u - v)
            cross[np.arange(len(ks)), ks] = 0.0
            v = min([u, *cross], key=q)
            sign = np.sign(v)
            continue
        # the relative slack keeps beta exactly zero at lam = lambda_max,
        # where rounding can push |r| a few ulps past the threshold
        r = g + H @ (u - w)
        excess = np.where(on, -np.inf, np.abs(r) - thr * (1.0 + 1e-12))
        j = int(np.argmax(excess))
        v, sign = u, np.sign(u)
        if excess[j] <= 0.0:
            break
        sign[j] = -np.sign(r[j])   # the sign that lowers q
    return v


def fit_elastic_net(X, y, lam: float, alpha: float, *, tol: float = 1e-8,
                    max_sweeps: int = 10000,
                    warm: ElasticNetModel | None = None) -> ElasticNetModel:
    """Penalized logistic fit by proximal Newton steps.

    Each step minimizes the loss's quadratic model plus the exact penalty
    (``_newton_direction``; the intercept is an unpenalized column of
    ones) and is halved until the objective drops by 1e-4 of the predicted
    decrease, so the objective never increases.  A predicted decrease below
    1e-12 of the objective is lost in rounding, and there the model is
    exact: such a step is taken whole.  ``max_sweeps`` caps the Newton
    steps.  ``stop_reason`` is "converged" once a step moves no coefficient
    (intercept included) by tol or more, "cap" at ``max_sweeps``, and
    "line_search" when no step length lowers the objective (e.g. lam = 0 on
    separable data, where the coefficients diverge).
    """
    check(FROM_ZERO, lam=lam)
    check(FRACTION, alpha=alpha)
    from scipy.special import expit
    X, y = _check_xy(X, y)
    n, d = X.shape
    live = np.flatnonzero(X.any(axis=0))   # zero columns carry no signal
    A = np.hstack([np.ones((n, 1)), X[:, live]])
    thr = np.full(A.shape[1], lam * alpha)
    l2 = np.full(A.shape[1], lam * (1.0 - alpha))
    thr[0] = l2[0] = 0.0
    ybar = float(y.mean())
    w = np.zeros(A.shape[1])
    w[0] = np.log(ybar / (1 - ybar)) if 0.0 < ybar < 1.0 else 0.0
    if warm is not None:
        w = np.r_[warm.intercept, warm.beta[live]]

    def penalty(v):
        return float(thr @ np.abs(v) + 0.5 * l2 @ (v * v))

    def objective(v):
        eta = A @ v
        return float(np.logaddexp(0.0, eta).sum() - y @ eta) + penalty(v)

    f = objective(w)
    stop, steps = "cap", 0
    while steps < max_sweeps:
        steps += 1
        p = expit(A @ w)
        g = A.T @ (p - y)
        H = (A.T * (p * (1.0 - p))) @ A
        delta = _newton_direction(H, g, w, thr, l2) - w
        drop = float(g @ delta) + penalty(w + delta) - penalty(w)
        whole = -drop <= 1e-12 * f      # lost in rounding: take it whole
        for t in 0.5 ** np.arange(34):
            f_new = objective(w + t * delta)
            if whole or f_new <= f + 1e-4 * t * drop:
                w, f = w + t * delta, f_new
                break
        else:
            stop = "line_search"
            break
        if np.abs(delta).max() < tol:
            stop = "converged"
            break

    beta = np.zeros(d)
    beta[live] = w[1:]
    return ElasticNetModel(beta, float(w[0]), float(lam), float(alpha),
                           steps, stop)


def predict_proba(model: ElasticNetModel, X) -> np.ndarray:
    """Class-1 probabilities, clipped into the open interval (0, 1)."""
    from scipy.special import expit
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != len(model.beta):
        raise ValueError(
            f"feature dimension {X.shape[1]} != model {len(model.beta)}")
    p = expit(model.intercept + X @ model.beta)
    lo = np.nextafter(0.0, 1.0)
    hi = np.nextafter(1.0, 0.0)
    return np.clip(p, lo, hi)


def predict(model: ElasticNetModel, X) -> np.ndarray:
    return (predict_proba(model, X) >= 0.5).astype(int)


def penalized_objective(model: ElasticNetModel, X, y) -> float:
    X, y = _check_xy(X, y)
    eta = model.intercept + X @ model.beta
    loss = float(np.logaddexp(0.0, eta).sum() - y @ eta)
    pen = model.lam * (model.alpha * np.abs(model.beta).sum()
                       + (1 - model.alpha) / 2 * (model.beta ** 2).sum())
    return loss + float(pen)


def kkt_residual(model: ElasticNetModel, X, y) -> float:
    """Worst violation of the first-order optimality conditions.

    For each coordinate the smooth gradient plus the ridge term must sit
    inside (at zero) or on the matching edge of (when active) the interval
    [-lambda alpha, lambda alpha]; the intercept gradient must vanish.
    """
    from scipy.special import expit
    X, y = _check_xy(X, y)
    p = expit(model.intercept + X @ model.beta)
    grad = X.T @ (p - y) + model.lam * (1 - model.alpha) * model.beta
    thr = model.lam * model.alpha
    res = abs(float((p - y).sum()))
    for j, b in enumerate(model.beta):
        if b > 0:
            res = max(res, abs(grad[j] + thr))
        elif b < 0:
            res = max(res, abs(grad[j] - thr))
        else:
            res = max(res, max(0.0, abs(grad[j]) - thr))
    return res


def lambda_max(X, y, alpha: float) -> float:
    """Smallest penalty that zeroes every coefficient."""
    X, y = _check_xy(X, y)
    check(MIX, alpha=alpha)
    lmax = float(np.max(np.abs(X.T @ (y - y.mean())))) / float(alpha)
    if not np.isfinite(lmax):
        raise ValueError(f"alpha: {alpha!r} is too small for the penalty grid")
    return lmax


def lambda_grid(lmax: float, num: int = 50) -> np.ndarray:
    """Log-spaced descending penalties from lmax down to 1e-4 * lmax."""
    check(ABOVE_ZERO, lmax=lmax)
    return np.geomspace(lmax, 1e-4 * lmax, num)


# ---------------------------------------------------------------------------
# cross-validation
# ---------------------------------------------------------------------------

def _stratified_folds(y, folds, rng):
    """Test-index arrays, class proportions balanced across folds."""
    assign = np.empty(len(y), dtype=int)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        assign[idx] = np.arange(len(idx)) % folds
    return [np.flatnonzero(assign == f) for f in range(folds)]


def _folds_with_all_classes(y, folds, seed_seq):
    classes = set(np.unique(y))
    for attempt in range(10):
        rng = np.random.default_rng(list(seed_seq) + [attempt])
        parts = _stratified_folds(y, folds, rng)
        ok = all(
            len(p) > 0 and set(np.unique(np.delete(y, p))) == classes
            for p in parts)
        if ok:
            return parts
    raise ValueError(
        f"could not build {folds} folds containing every class "
        "in 10 attempts")


def _standardize(train_X, full_X):
    mu = train_X.mean(axis=0)
    sd = train_X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return (full_X - mu) / sd


@dataclass
class CvReport:
    """Cross-validated accuracy over the (alpha, lambda) grid.

    ``grid_mean`` holds per-alpha mean accuracy arrays over the common
    lambda grid; ``nested_mean``/``nested_sd`` score the protocol
    where each fold picks lambda on an inner split.  ``stable_features``
    lists columns selected by every outer fit at the chosen lambda.
    ``stop_reasons`` counts how every fit, outer and inner, stopped.
    """

    alphas: tuple[float, ...]
    lambdas: dict
    grid_mean: dict
    chosen_lambda: dict
    stable_features: dict
    nested_mean: dict
    nested_sd: dict
    folds: int
    repeats: int
    seed: int
    column_names: tuple[str, ...] | None = None
    stop_reasons: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        names = self.column_names
        rows = []
        for a in self.alphas:
            feats = self.stable_features[a]
            rows.append({
                "alpha": a,
                "chosen_lambda": self.chosen_lambda[a],
                "accuracy_mean": float(np.max(self.grid_mean[a])),
                "nested_accuracy_mean": self.nested_mean[a],
                "nested_accuracy_sd": self.nested_sd[a],
                "stable_features": [
                    names[j] if names else int(j) for j in feats],
            })
        return {
            "folds": self.folds,
            "repeats": self.repeats,
            "seed": self.seed,
            "rows": rows,
            "lambda_grid": {str(a): list(map(float, self.lambdas[a]))
                            for a in self.alphas},
            "grid_accuracy_mean": {str(a): list(map(float,
                                                    self.grid_mean[a]))
                                   for a in self.alphas},
        }


def _fit_path(X, y, lams, alpha, tol=1e-8):
    """Warm-started fits along a descending lambda path."""
    out = []
    warm = None
    for lam in lams:
        warm = fit_elastic_net(X, y, lam, alpha, warm=warm, tol=tol)
        out.append(warm)
    return out


def _accuracy(model, X, y):
    return float((predict(model, X) == y).mean())


def cross_validate(X, y, alphas=(1.0, 0.75, 0.5, 0.25), num_lambda=50,
                   folds: int = 5, repeats: int = 10, seed: int = 0,
                   fold_features=None, inner_folds: int = 5,
                   column_names=None) -> CvReport:
    """Repeated stratified CV of the elastic net over an (alpha, lambda) grid.

    ``X`` holds every subject's features and sets the lambda grid.
    ``fold_features(train_idx) -> FeatureMatrix`` rebuilds them per outer
    fold so reference means never see test subjects; without it ``X`` is
    used as-is.  Standardization statistics always come from the training
    rows only.
    """
    check(TWO_UP, folds=folds, inner_folds=inner_folds)
    check(COUNT, repeats=repeats)
    check(MIX, **{f"alphas[{i}]": a for i, a in enumerate(alphas)})
    y = np.asarray(y)
    uniq = sorted(np.unique(y).tolist())
    if len(uniq) != 2:
        raise ValueError("need exactly two classes")
    ybin = (y == uniq[1]).astype(float)
    X = np.asarray(X, dtype=float)

    # common candidate grid; per-fold training data only shifts lambda_max
    # slightly, and shared candidates are what makes accuracies poolable
    grids = {a: lambda_grid(lambda_max(_standardize(X, X), ybin, a),
                            num_lambda) for a in alphas}

    acc = {a: [] for a in alphas}          # rows over folds x repeats
    nested = {a: [] for a in alphas}
    sel_sets = {a: None for a in alphas}   # running intersection
    reasons = Counter()

    for rep in range(repeats):
        parts = _folds_with_all_classes(ybin, folds, (seed, rep))
        for f, test_idx in enumerate(parts):
            train_idx = np.setdiff1d(np.arange(len(ybin)), test_idx)
            if fold_features is not None:
                fm = fold_features(train_idx)
                full = np.asarray(fm.values, dtype=float)
            else:
                full = X
            Xs = _standardize(full[train_idx], full)
            Xtr, ytr = Xs[train_idx], ybin[train_idx]
            Xte, yte = Xs[test_idx], ybin[test_idx]
            try:
                inner_parts = _folds_with_all_classes(
                    ytr, inner_folds, (seed, rep, f, 1))
            except ValueError:
                raise ValueError(
                    f"could not build {inner_folds} inner folds containing "
                    f"every class from a training fold of {len(ytr)} "
                    f"subjects") from None
            for a in alphas:
                path = _fit_path(Xtr, ytr, grids[a], a)
                reasons.update(m.stop_reason for m in path)
                acc[a].append([_accuracy(mm, Xte, yte) for mm in path])

                # inner selection: score the same grid on inner splits
                inner_acc = np.zeros(len(grids[a]))
                for inner_test in inner_parts:
                    inner_train = np.setdiff1d(np.arange(len(ytr)),
                                               inner_test)
                    # selection only compares accuracies, so the inner fits
                    # can stop earlier than the reported outer fits
                    ipath = _fit_path(Xtr[inner_train], ytr[inner_train],
                                      grids[a], a, tol=1e-6)
                    reasons.update(m.stop_reason for m in ipath)
                    inner_acc += [
                        _accuracy(mm, Xtr[inner_test], ytr[inner_test])
                        for mm in ipath]
                best_j = int(np.flatnonzero(
                    inner_acc == inner_acc.max())[0])  # ties: larger lambda
                nested[a].append(_accuracy(path[best_j], Xte, yte))
                live = set(path[best_j].selected)
                sel_sets[a] = live if sel_sets[a] is None \
                    else sel_sets[a] & live

    grid_mean, chosen, stable = {}, {}, {}
    nested_mean, nested_sd = {}, {}
    for a in alphas:
        grid_mean[a] = np.array(acc[a]).mean(axis=0)
        best_j = int(np.flatnonzero(
            grid_mean[a] == grid_mean[a].max())[0])
        chosen[a] = float(grids[a][best_j])
        stable[a] = tuple(sorted(sel_sets[a])) if sel_sets[a] else tuple()
        nested_mean[a] = float(np.mean(nested[a]))
        nested_sd[a] = float(np.std(nested[a], ddof=1)) \
            if len(nested[a]) > 1 else 0.0
    return CvReport(tuple(alphas), grids, grid_mean, chosen,
                    stable, nested_mean, nested_sd, folds, repeats, seed,
                    None if column_names is None else tuple(column_names),
                    dict(reasons))


# ---------------------------------------------------------------------------
# kNN baseline
# ---------------------------------------------------------------------------

@dataclass
class KnnReport:
    k: int
    folds: int
    accuracies: tuple[float, ...]
    mean: float
    sd: float

    def to_json(self) -> dict:
        return {"k": self.k, "folds": self.folds, "mean": self.mean,
                "sd": self.sd, "accuracies": list(self.accuracies)}


def _knn_vote(dists, labels, k):
    order = np.argsort(dists, kind="stable")[:k]
    votes = {}
    for i in order:
        lab = labels[i]
        cnt, tot = votes.get(lab, (0, 0.0))
        votes[lab] = (cnt + 1, tot + float(dists[i]))
    # most votes; ties toward the smaller summed distance, then label order
    return sorted(votes.items(),
                  key=lambda kv: (-kv[1][0], kv[1][1], str(kv[0])))[0][0]


def knn_classify(dm: DistanceMatrix, y, k: int = 5, folds: int = 5,
                 seed: int = 0) -> KnnReport:
    """Cross-validated nearest-neighbor accuracy on a distance matrix."""
    check(COUNT, k=k)
    check(TWO_UP, folds=folds)
    y = np.asarray(y)
    n = len(dm)
    if len(y) != n:
        raise ValueError("labels do not match matrix size")
    parts = _folds_with_all_classes(y, folds, (seed,))
    accs = []
    for test_idx in parts:
        train_idx = np.setdiff1d(np.arange(n), test_idx)
        if k >= len(train_idx):
            raise ValueError(f"k={k} not below training size "
                             f"{len(train_idx)}")
        hits = 0
        for i in test_idx:
            pred = _knn_vote(dm.values[i, train_idx], y[train_idx], k)
            hits += int(pred == y[i])
        accs.append(hits / len(test_idx))
    accs = tuple(float(a) for a in accs)
    sd = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
    return KnnReport(k, folds, accs, float(np.mean(accs)), sd)
